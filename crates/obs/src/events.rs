//! The one event type and its one rendering.
//!
//! Every analysis event is an [`Event`], handed to a
//! [`Recorder`](crate::Recorder) by `record`. Each payload renders one way:
//! [`Event::to_record`] is the `ev`-tagged `astree-events/1` record that
//! [`StreamSink`](crate::StreamSink) writes as JSONL and the `serve` daemon
//! wraps into `event` frames, and the payloads the `astree-metrics/1`
//! document keeps (alarms, slices, batch jobs, the counter structs, the
//! pack-size histogram) render their part of the document with the same
//! `to_json`. What a stream skips and when it flushes is decided here too.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::{
    AlarmEvent, BatchJobEvent, CacheCounters, FleetCounters, FrameCounters, LoopDoneEvent,
    LoopIterEvent, PmapCounters, PoolCounters, PremiseCounters, SliceEvent,
};

/// One analysis event.
#[derive(Debug, Clone)]
pub enum Event<'a> {
    /// One fixpoint iteration on a loop.
    LoopIter(LoopIterEvent<'a>),
    /// A loop's fixpoint computation finished.
    LoopDone(LoopDoneEvent<'a>),
    /// Semantic unrolling applied to a loop.
    Unroll { func: &'a str, loop_id: u32, factor: u32 },
    /// Trace-partition fan-out observed in a function.
    Partitions { func: &'a str, live: u64 },
    /// One timed application of a domain operation. The only event a
    /// stream skips: it can fire millions of times per analysis.
    DomainOp { domain: &'static str, op: &'static str, nanos: u64 },
    /// `count` applications of a domain operation totalling `nanos`,
    /// accumulated off the hot path (e.g. per-thread saved-closure counters
    /// drained once per slice). Streamed as `domain_op`; a batch with
    /// `count == 0` is recorded nowhere.
    DomainOps { domain: &'static str, op: &'static str, count: u64, nanos: u64 },
    /// Wall time of a whole analysis phase (`iterate`, `check`, `replay`).
    Phase { phase: &'static str, nanos: u64 },
    /// An alarm was recorded (first report of its (statement, kind) pair).
    Alarm(AlarmEvent<'a>),
    /// A block's stage plan (footprints, stages, slices) was computed.
    Plan { nanos: u64 },
    /// A parallel slice completed.
    Slice(SliceEvent),
    /// A sliced stage's ordered overlay merge completed.
    Merge { stage: u64, slices: usize, nanos: u64 },
    /// A stage fell back to sequential execution.
    Fallback { reason: &'static str },
    /// Slice-scatter counters of a run with `jobs > 1`.
    Pool(&'a PoolCounters),
    /// A batch job finished.
    BatchJob(BatchJobEvent<'a>),
    /// Fleet coordinator counters of a fleet run.
    Fleet(&'a FleetCounters),
    /// Invariant-store counters of a run with a store attached.
    Cache(&'a CacheCounters),
    /// Persistent-map sharing counters of a run.
    Pmap(&'a PmapCounters),
    /// Frame usage of a run.
    Frames(&'a FrameCounters),
    /// Premise tests of a run's checking pass.
    Premise(&'a PremiseCounters),
    /// Variables per discovered octagon pack, once per run.
    PackSizes(&'a [usize]),
}

impl Event<'_> {
    /// The `astree-events/1` record: the `ev` tag, then the payload's
    /// fields. `None` for a per-application [`Event::DomainOp`] and for an
    /// empty [`Event::DomainOps`] batch.
    pub fn to_record(&self) -> Option<Json> {
        let (ev, body) = match self {
            Event::LoopIter(e) => (
                "loop_iter",
                Json::obj([
                    ("func", Json::str(e.func)),
                    ("loop", Json::UInt(e.loop_id as u64)),
                    ("iteration", Json::UInt(e.iteration)),
                    ("phase", Json::str(e.phase.as_str())),
                    ("unstable_cells", Json::UInt(e.unstable_cells)),
                    ("threshold_hits", Json::UInt(e.threshold_hits)),
                    ("infinity_escapes", Json::UInt(e.infinity_escapes)),
                    ("grown_cells", Json::UInt(e.grown.cells)),
                    ("grown_octagons", Json::UInt(e.grown.octagons)),
                    ("grown_dtrees", Json::UInt(e.grown.dtrees)),
                    ("grown_filters", Json::UInt(e.grown.filters)),
                ]),
            ),
            Event::LoopDone(e) => (
                "loop_done",
                Json::obj([
                    ("func", Json::str(e.func)),
                    ("loop", Json::UInt(e.loop_id as u64)),
                    ("iterations", Json::UInt(e.iterations)),
                    ("stabilized_at", Json::UInt(e.stabilized_at)),
                ]),
            ),
            Event::Unroll { func, loop_id, factor } => (
                "unroll",
                Json::obj([
                    ("func", Json::str(*func)),
                    ("loop", Json::UInt(*loop_id as u64)),
                    ("factor", Json::UInt(*factor as u64)),
                ]),
            ),
            Event::Partitions { func, live } => {
                ("partitions", Json::obj([("func", Json::str(*func)), ("live", Json::UInt(*live))]))
            }
            Event::DomainOp { .. } | Event::DomainOps { count: 0, .. } => return None,
            Event::DomainOps { domain, op, count, nanos } => (
                "domain_op",
                Json::obj([
                    ("domain", Json::str(*domain)),
                    ("op", Json::str(*op)),
                    ("count", Json::UInt(*count)),
                    ("nanos", Json::UInt(*nanos)),
                ]),
            ),
            Event::Phase { phase, nanos } => {
                ("phase", Json::obj([("phase", Json::str(*phase)), ("nanos", Json::UInt(*nanos))]))
            }
            Event::Alarm(e) => ("alarm", e.to_json()),
            Event::Plan { nanos } => ("plan", Json::obj([("nanos", Json::UInt(*nanos))])),
            Event::Slice(e) => ("slice", e.to_json()),
            Event::Merge { stage, slices, nanos } => (
                "merge",
                Json::obj([
                    ("stage", Json::UInt(*stage)),
                    ("slices", Json::UInt(*slices as u64)),
                    ("nanos", Json::UInt(*nanos)),
                ]),
            ),
            Event::Fallback { reason } => ("fallback", Json::obj([("reason", Json::str(*reason))])),
            Event::Pool(c) => ("pool", c.to_json()),
            Event::BatchJob(e) => ("batch_job", e.to_json()),
            Event::Fleet(c) => ("fleet", c.to_json()),
            Event::Cache(c) => ("cache", c.to_json()),
            Event::Pmap(c) => ("pmap", c.to_json()),
            Event::Frames(c) => ("frames", c.to_json()),
            Event::Premise(c) => ("premise", c.to_json()),
            Event::PackSizes(sizes) => {
                let mut histogram = BTreeMap::new();
                count_pack_sizes(&mut histogram, sizes);
                ("pack_sizes", packs_json(&histogram))
            }
        };
        let mut pairs = vec![("ev".to_string(), Json::str(ev))];
        if let Json::Obj(fields) = body {
            pairs.extend(fields);
        }
        Some(Json::Obj(pairs))
    }

    /// Whether a stream flushes after this event: the counter reports that
    /// close a run and each finished batch job are durability points.
    pub fn flushes(&self) -> bool {
        matches!(
            self,
            Event::Pool(_)
                | Event::BatchJob(_)
                | Event::Fleet(_)
                | Event::Cache(_)
                | Event::Pmap(_)
                | Event::Frames(_)
                | Event::Premise(_)
                | Event::PackSizes(_)
        )
    }
}

/// Adds one pack per entry of `sizes` to the histogram (variables → packs).
pub(crate) fn count_pack_sizes(histogram: &mut BTreeMap<usize, u64>, sizes: &[usize]) {
    for &s in sizes {
        *histogram.entry(s).or_insert(0) += 1;
    }
}

/// The document's `packs` section and the `pack_sizes` record's body.
pub(crate) fn packs_json(histogram: &BTreeMap<usize, u64>) -> Json {
    let counts = histogram.iter().map(|(size, n)| (size.to_string(), Json::UInt(*n)));
    Json::obj([("octagon_size_histogram", Json::Obj(counts.collect()))])
}
