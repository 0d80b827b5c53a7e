//! Streaming JSONL event sink.
//!
//! The in-memory [`Collector`](crate::Collector) aggregates everything and
//! renders one document at the end — fine for a single analysis, but a long
//! `batch` fleet run wants telemetry on disk *while it runs* and without
//! unbounded memory. [`StreamSink`] writes one JSON object per line
//! (`astree-events/1`) as events arrive; [`Fanout`] tees events to several
//! recorders so a run can stream to disk *and* keep the aggregate document.
//!
//! Volume note: the per-operation [`Recorder::domain_op`] hook can fire
//! millions of times per analysis, so the stream deliberately skips it and
//! carries the batched [`Recorder::domain_op_n`] reports instead; exact
//! per-op aggregates stay available in the in-memory document.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::{
    events, AlarmEvent, BatchJobEvent, CacheCounters, FleetCounters, FrameCounters, LoopDoneEvent,
    LoopIterEvent, PmapCounters, PoolCounters, Recorder, SliceEvent,
};

/// The schema identifier on the first line of every event stream.
pub const EVENT_SCHEMA: &str = "astree-events/1";

/// A recorder that appends one JSON line per event to a file.
pub struct StreamSink {
    out: Mutex<BufWriter<File>>,
}

impl StreamSink {
    /// Creates (truncating) `path` and writes the schema header line.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<StreamSink> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{}", Json::obj([("schema", Json::str(EVENT_SCHEMA))]).to_compact())?;
        Ok(StreamSink { out: Mutex::new(out) })
    }

    fn write(&self, record: &Json) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{}", record.to_compact());
    }

    /// Flushes buffered lines to the file.
    pub fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Recorder for StreamSink {
    fn enabled(&self) -> bool {
        true
    }

    fn loop_iter(&self, e: &LoopIterEvent) {
        self.write(&events::loop_iter(e));
    }

    fn loop_done(&self, e: &LoopDoneEvent) {
        self.write(&events::loop_done(e));
    }

    fn unroll(&self, func: &str, loop_id: u32, factor: u32) {
        self.write(&events::unroll(func, loop_id, factor));
    }

    fn partitions(&self, func: &str, live: u64) {
        self.write(&events::partitions(func, live));
    }

    fn domain_op_n(&self, domain: &'static str, op: &'static str, count: u64, nanos: u64) {
        if count == 0 {
            return;
        }
        self.write(&events::domain_op_n(domain, op, count, nanos));
    }

    fn phase_time(&self, phase: &'static str, nanos: u64) {
        self.write(&events::phase_time(phase, nanos));
    }

    fn alarm(&self, e: &AlarmEvent) {
        self.write(&events::alarm(e));
    }

    fn plan(&self, nanos: u64) {
        self.write(&events::plan(nanos));
    }

    fn slice(&self, e: &SliceEvent) {
        self.write(&events::slice(e));
    }

    fn merge(&self, stage: u64, slices: usize, nanos: u64) {
        self.write(&events::merge(stage, slices, nanos));
    }

    fn fallback(&self, reason: &'static str) {
        self.write(&events::fallback(reason));
    }

    fn pool(&self, p: &PoolCounters) {
        self.write(&events::pool(p));
        self.flush();
    }

    fn batch_job(&self, e: &BatchJobEvent) {
        self.write(&events::batch_job(e));
        // A finished job is a durability point for fleet runs.
        self.flush();
    }

    fn cache(&self, c: &CacheCounters) {
        self.write(&events::cache(c));
        self.flush();
    }

    fn fleet(&self, c: &FleetCounters) {
        self.write(&events::fleet(c));
        self.flush();
    }
}

/// Tees every event to a list of recorders, so one run can stream JSONL to
/// disk while the in-memory collector keeps the aggregate document.
pub struct Fanout {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl Fanout {
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Fanout {
        Fanout { sinks }
    }
}

macro_rules! fan {
    ($self:ident, $($call:tt)+) => {
        for s in &$self.sinks {
            s.$($call)+;
        }
    };
}

impl Recorder for Fanout {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn tracing(&self) -> bool {
        self.sinks.iter().any(|s| s.tracing())
    }

    fn loop_iter(&self, e: &LoopIterEvent) {
        fan!(self, loop_iter(e));
    }

    fn loop_done(&self, e: &LoopDoneEvent) {
        fan!(self, loop_done(e));
    }

    fn unroll(&self, func: &str, loop_id: u32, factor: u32) {
        fan!(self, unroll(func, loop_id, factor));
    }

    fn partitions(&self, func: &str, live: u64) {
        fan!(self, partitions(func, live));
    }

    fn domain_op(&self, domain: &'static str, op: &'static str, nanos: u64) {
        fan!(self, domain_op(domain, op, nanos));
    }

    fn domain_op_n(&self, domain: &'static str, op: &'static str, count: u64, nanos: u64) {
        fan!(self, domain_op_n(domain, op, count, nanos));
    }

    fn phase_time(&self, phase: &'static str, nanos: u64) {
        fan!(self, phase_time(phase, nanos));
    }

    fn alarm(&self, e: &AlarmEvent) {
        fan!(self, alarm(e));
    }

    fn plan(&self, nanos: u64) {
        fan!(self, plan(nanos));
    }

    fn slice(&self, e: &SliceEvent) {
        fan!(self, slice(e));
    }

    fn merge(&self, stage: u64, slices: usize, nanos: u64) {
        fan!(self, merge(stage, slices, nanos));
    }

    fn fallback(&self, reason: &'static str) {
        fan!(self, fallback(reason));
    }

    fn pool(&self, p: &PoolCounters) {
        fan!(self, pool(p));
    }

    fn batch_job(&self, e: &BatchJobEvent) {
        fan!(self, batch_job(e));
    }

    fn cache(&self, c: &CacheCounters) {
        fan!(self, cache(c));
    }

    fn fleet(&self, c: &FleetCounters) {
        fan!(self, fleet(c));
    }

    fn pmap(&self, c: &PmapCounters) {
        fan!(self, pmap(c));
    }

    fn frames(&self, c: &FrameCounters) {
        fan!(self, frames(c));
    }

    fn pack_sizes(&self, sizes: &[usize]) {
        fan!(self, pack_sizes(sizes));
    }

    fn trace(&self, line: &str) {
        fan!(self, trace(line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, Phase};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("astree-obs-stream-{}-{name}.jsonl", std::process::id()));
        p
    }

    #[test]
    fn stream_writes_header_and_events() {
        let path = tmp("basic");
        {
            let sink = StreamSink::create(&path).unwrap();
            sink.loop_iter(&LoopIterEvent {
                func: "main",
                loop_id: 1,
                iteration: 1,
                phase: Phase::Widen,
                unstable_cells: 3,
                threshold_hits: 1,
                infinity_escapes: 0,
            });
            sink.slice(&SliceEvent { stage: 1, index: 0, stmts: 4, nanos: 10 });
            sink.fallback("slice_shape");
            sink.pool(&PoolCounters {
                workers: 4,
                tasks: 9,
                steals: 2,
                max_queue_depth: 3,
                busy_nanos: vec![1, 2, 3, 4],
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains(EVENT_SCHEMA));
        assert!(
            lines[1].contains("\"ev\": \"loop_iter\"") || lines[1].contains("\"ev\":\"loop_iter\"")
        );
        assert!(lines[3].contains("slice_shape"));
        assert!(lines[4].contains("\"steals\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn high_volume_domain_op_is_not_streamed() {
        let path = tmp("volume");
        {
            let sink = StreamSink::create(&path).unwrap();
            for _ in 0..1000 {
                sink.domain_op("octagon", "closure", 5);
            }
            sink.domain_op_n("octagon", "closure_saved", 1000, 0);
            sink.domain_op_n("octagon", "closure_saved", 0, 0);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "header + one batched report");
        assert!(text.contains("closure_saved"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fanout_feeds_every_sink() {
        let path = tmp("fanout");
        let collector = Arc::new(Collector::new());
        let sink = Arc::new(StreamSink::create(&path).unwrap());
        let tee = Fanout::new(vec![collector.clone() as Arc<dyn Recorder>, sink.clone()]);
        assert!(tee.enabled());
        tee.plan(7);
        tee.merge(1, 3, 42);
        tee.fallback("worker_panic");
        sink.flush();
        let m = collector.snapshot();
        assert_eq!(m.scheduler.plan_nanos, 7);
        assert_eq!(m.scheduler.stages, 1);
        assert_eq!(m.scheduler.fallbacks["worker_panic"], 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"plan\""));
        assert!(text.contains("\"merge\""));
        assert!(text.contains("worker_panic"));
        std::fs::remove_file(&path).ok();
    }
}
