//! Streaming JSONL event sink.
//!
//! The in-memory [`Collector`](crate::Collector) aggregates everything and
//! renders one document at the end — fine for a single analysis, but a long
//! `batch` fleet run wants telemetry on disk *while it runs* and without
//! unbounded memory. [`StreamSink`] writes each event's `astree-events/1`
//! record ([`Event::to_record`]) as one JSON line as it arrives — to a file
//! or to stderr (`--metrics-stream /dev/stderr`); [`Fanout`] tees events to
//! several recorders so a run can stream *and* keep the aggregate document.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::{Event, Recorder};

/// The schema identifier on the first line of every event stream.
pub const EVENT_SCHEMA: &str = "astree-events/1";

/// A recorder that writes one JSON line per event.
pub struct StreamSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl StreamSink {
    /// Writes the schema header line to `out` and every later event's
    /// record after it, one `write_all` per line (so an unbuffered writer
    /// such as stderr shows each record as it happens).
    pub fn new(out: impl Write + Send + 'static) -> std::io::Result<StreamSink> {
        let sink = StreamSink { out: Mutex::new(Box::new(out)) };
        sink.write_line(&Json::obj([("schema", Json::str(EVENT_SCHEMA))]))?;
        Ok(sink)
    }

    /// Creates (truncating) `path` and streams to it, buffered.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<StreamSink> {
        StreamSink::new(BufWriter::new(File::create(path)?))
    }

    fn write_line(&self, record: &Json) -> std::io::Result<()> {
        let mut line = record.to_compact();
        line.push('\n');
        self.out.lock().unwrap_or_else(|e| e.into_inner()).write_all(line.as_bytes())
    }

    /// Flushes buffered lines to the writer.
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

    fn record(&self, event: &Event) {
        if let Some(record) = event.to_record() {
            let _ = self.write_line(&record);
            if event.flushes() {
                self.flush();
            }
        }
    }
}

/// Tees every event to a list of recorders, so one run can stream JSONL
/// while the in-memory collector keeps the aggregate document.
pub struct Fanout {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl Fanout {
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Fanout {
        Fanout { sinks }
    }
}

impl Recorder for Fanout {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, event: &Event) {
        for s in &self.sinks {
            s.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::*;
    use std::collections::BTreeSet;

    /// An in-memory writer whose bytes stay readable after the sink took it.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().write(bytes)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn lines(&self) -> Vec<Json> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
            text.lines().map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{l:?}: {e}"))).collect()
        }
    }

    /// Which variant `e` is. The match is exhaustive: a new variant does not
    /// build until it has a number here and an instance in `one_of_each`.
    fn variant(e: &Event) -> usize {
        match e {
            Event::LoopIter(_) => 0,
            Event::LoopDone(_) => 1,
            Event::Unroll { .. } => 2,
            Event::Partitions { .. } => 3,
            Event::DomainOp { .. } => 4,
            Event::DomainOps { .. } => 5,
            Event::Phase { .. } => 6,
            Event::Alarm(_) => 7,
            Event::Plan { .. } => 8,
            Event::Slice(_) => 9,
            Event::Merge { .. } => 10,
            Event::Fallback { .. } => 11,
            Event::Pool(_) => 12,
            Event::BatchJob(_) => 13,
            Event::Fleet(_) => 14,
            Event::Cache(_) => 15,
            Event::Pmap(_) => 16,
            Event::Frames(_) => 17,
            Event::PackSizes(_) => 18,
            Event::Premise(_) => 19,
        }
    }
    const VARIANTS: usize = 20;

    /// Hands `f` one event of every variant.
    fn one_of_each(f: &mut dyn FnMut(&Event)) {
        let pool = PoolCounters {
            workers: 2,
            tasks: 9,
            steals: 0,
            max_queue_depth: 3,
            busy_nanos: vec![1, 2],
        };
        let fleet = FleetCounters {
            workers: 2,
            processes: true,
            jobs: 3,
            per_worker: vec![FleetWorkerCounters { jobs: 2, busy_nanos: 9 }],
            ..FleetCounters::default()
        };
        let cache = CacheCounters { misses: 1, loops_solved: 4, ..CacheCounters::default() };
        let premise = PremiseCounters { checked: 94, failed: 0 };
        let pmap = PmapCounters { nodes_allocated: 10, merge_calls: 3, ..Default::default() };
        let frames = FrameCounters {
            calls_framed: 7,
            cells_per_frame: vec![51, 49],
            packs_per_frame: vec![13, 13],
            ..FrameCounters::default()
        };
        let events = [
            Event::LoopIter(LoopIterEvent {
                func: "main",
                loop_id: 1,
                iteration: 2,
                phase: Phase::Widen,
                unstable_cells: 3,
                threshold_hits: 1,
                infinity_escapes: 0,
                grown: Grown { cells: 2, octagons: 1, dtrees: 0, filters: 0 },
            }),
            Event::LoopDone(LoopDoneEvent {
                func: "main",
                loop_id: 1,
                iterations: 4,
                stabilized_at: 3,
            }),
            Event::Unroll { func: "main", loop_id: 1, factor: 2 },
            Event::Partitions { func: "f", live: 3 },
            Event::DomainOp { domain: "octagon", op: "closure", nanos: 5 },
            Event::DomainOps { domain: "octagon", op: "closure_saved", count: 8, nanos: 0 },
            Event::Phase { phase: "iterate", nanos: 100 },
            Event::Alarm(AlarmEvent {
                func: "main",
                stmt: 7,
                line: 12,
                kind: "div_by_zero",
                domain: "int_interval",
                context: "x / y",
                loop_id: Some(1),
                iteration: None,
            }),
            Event::Plan { nanos: 7 },
            Event::Slice(SliceEvent { stage: 1, index: 0, stmts: 4, nanos: 10 }),
            Event::Merge { stage: 1, slices: 2, nanos: 42 },
            Event::Fallback { reason: "slice_shape" },
            Event::Pool(&pool),
            Event::BatchJob(BatchJobEvent {
                name: "gen-1",
                status: "failed",
                reason: Some("compile error"),
                wall_nanos: 5,
                worker: 1,
                alarms: None,
            }),
            Event::Fleet(&fleet),
            Event::Cache(&cache),
            Event::Pmap(&pmap),
            Event::Frames(&frames),
            Event::PackSizes(&[2, 3, 2]),
            Event::Premise(&premise),
        ];
        for e in &events {
            f(e);
        }
    }

    /// Every variant reaches every sink of a fanout: the teed collector
    /// aggregates what a directly-fed one does, and the stream holds one
    /// parseable record per variant but the per-operation `domain_op`.
    #[test]
    fn a_fanout_delivers_every_event_to_every_sink() {
        let buf = SharedBuf::default();
        let teed = Arc::new(Collector::new());
        let sink = Arc::new(StreamSink::new(buf.clone()).unwrap());
        let tee = Fanout::new(vec![Arc::clone(&teed) as Arc<dyn Recorder>, sink]);
        assert!(tee.enabled());
        let direct = Collector::new();
        let mut seen = BTreeSet::new();
        let mut expected = Vec::new();
        one_of_each(&mut |e| {
            seen.insert(variant(e));
            expected.extend(e.to_record());
            tee.record(e);
            direct.record(e);
        });
        assert_eq!(seen.len(), VARIANTS, "one_of_each misses a variant");
        assert_eq!(teed.to_json(), direct.to_json());

        let lines = buf.lines();
        assert_eq!(lines[0], Json::obj([("schema", Json::str(EVENT_SCHEMA))]));
        assert_eq!(lines[1..], expected[..]);
        let kinds: BTreeSet<&str> =
            lines[1..].iter().map(|l| l.get("ev").and_then(Json::as_str).expect("ev")).collect();
        assert_eq!(kinds.len(), VARIANTS - 1, "{kinds:?}");
        for kind in ["pmap", "frames", "pack_sizes"] {
            assert!(kinds.contains(kind), "{kind}");
        }
        // Each payload renders one way: the record is the document's part.
        let doc = direct.to_json();
        let record = |ev: &str| {
            let line = lines.iter().find(|l| l.get("ev") == Some(&Json::str(ev))).unwrap();
            let Json::Obj(fields) = line else { unreachable!() };
            Json::Obj(fields[1..].to_vec())
        };
        assert_eq!(Some(&record("pmap")), doc.get("pmap"));
        assert_eq!(Some(&record("pack_sizes")), doc.get("packs"));
        assert_eq!(Some(&record("frames")), doc.get("core").and_then(|c| c.get("frames")));
        assert_eq!(Some(&record("cache")), doc.get("cache"));
        assert_eq!(Some(&record("premise")), doc.get("premise"));
        let first = |section: Option<&Json>| match section {
            Some(Json::Arr(items)) => items[0].clone(),
            other => panic!("not an array: {other:?}"),
        };
        assert_eq!(record("alarm"), first(doc.get("alarms")));
        let sched = doc.get("scheduler");
        assert_eq!(record("slice"), first(sched.and_then(|s| s.get("slices"))));
        assert_eq!(record("batch_job"), first(sched.and_then(|s| s.get("batch_jobs"))));
    }

    #[test]
    fn stream_writes_header_and_events_to_a_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("astree-obs-stream-{}.jsonl", std::process::id()));
        {
            let sink = StreamSink::create(&path).unwrap();
            sink.record(&Event::Slice(SliceEvent { stage: 1, index: 0, stmts: 4, nanos: 10 }));
            sink.record(&Event::Fallback { reason: "slice_shape" });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], r#"{"schema":"astree-events/1"}"#);
        assert_eq!(lines[2], r#"{"ev":"fallback","reason":"slice_shape"}"#);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn high_volume_domain_op_is_not_streamed() {
        let buf = SharedBuf::default();
        let sink = StreamSink::new(buf.clone()).unwrap();
        for _ in 0..1000 {
            sink.record(&Event::DomainOp { domain: "octagon", op: "closure", nanos: 5 });
        }
        sink.record(&Event::DomainOps {
            domain: "octagon",
            op: "closure_saved",
            count: 1000,
            nanos: 0,
        });
        sink.record(&Event::DomainOps {
            domain: "octagon",
            op: "closure_saved",
            count: 0,
            nanos: 0,
        });
        let lines = buf.lines();
        assert_eq!(lines.len(), 2, "header + one batched report");
        assert_eq!(lines[1].get("op"), Some(&Json::str("closure_saved")));
    }
}
