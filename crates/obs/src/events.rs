//! `astree-events/1` record builders.
//!
//! One function per recorder hook, each returning the JSON object that
//! represents the event on the wire (the `ev` tag plus the event's fields).
//! [`crate::StreamSink`] writes these records as JSONL to a file; the
//! `serve` daemon wraps the *same* records into `astree-serve/2` frames to
//! stream them back to a client — one builder, every transport. Counter
//! records carry their struct's one `to_json` rendering.

use crate::json::Json;
use crate::{
    AlarmEvent, BatchJobEvent, CacheCounters, FleetCounters, LoopDoneEvent, LoopIterEvent,
    PoolCounters, SliceEvent,
};

/// Tags the object `body` as event `ev` (the `ev` key first).
fn record(ev: &'static str, body: Json) -> Json {
    let mut pairs = vec![("ev".to_string(), Json::str(ev))];
    if let Json::Obj(fields) = body {
        pairs.extend(fields);
    }
    Json::Obj(pairs)
}

/// One fixpoint iteration on a loop.
pub fn loop_iter(e: &LoopIterEvent) -> Json {
    record(
        "loop_iter",
        Json::obj([
            ("func", Json::str(e.func)),
            ("loop", Json::UInt(e.loop_id as u64)),
            ("iteration", Json::UInt(e.iteration)),
            ("phase", Json::str(e.phase.as_str())),
            ("unstable_cells", Json::UInt(e.unstable_cells)),
            ("threshold_hits", Json::UInt(e.threshold_hits)),
            ("infinity_escapes", Json::UInt(e.infinity_escapes)),
        ]),
    )
}

/// A loop's fixpoint computation finished.
pub fn loop_done(e: &LoopDoneEvent) -> Json {
    record(
        "loop_done",
        Json::obj([
            ("func", Json::str(e.func)),
            ("loop", Json::UInt(e.loop_id as u64)),
            ("iterations", Json::UInt(e.iterations)),
            ("stabilized_at", Json::UInt(e.stabilized_at)),
        ]),
    )
}

/// Semantic unrolling applied to a loop.
pub fn unroll(func: &str, loop_id: u32, factor: u32) -> Json {
    record(
        "unroll",
        Json::obj([
            ("func", Json::str(func)),
            ("loop", Json::UInt(loop_id as u64)),
            ("factor", Json::UInt(factor as u64)),
        ]),
    )
}

/// Trace-partition fan-out observed in a function.
pub fn partitions(func: &str, live: u64) -> Json {
    record("partitions", Json::obj([("func", Json::str(func)), ("live", Json::UInt(live))]))
}

/// A batched domain-operation report.
pub fn domain_op_n(domain: &'static str, op: &'static str, count: u64, nanos: u64) -> Json {
    record(
        "domain_op",
        Json::obj([
            ("domain", Json::str(domain)),
            ("op", Json::str(op)),
            ("count", Json::UInt(count)),
            ("nanos", Json::UInt(nanos)),
        ]),
    )
}

/// Wall time of a whole analysis phase.
pub fn phase_time(phase: &'static str, nanos: u64) -> Json {
    record("phase", Json::obj([("phase", Json::str(phase)), ("nanos", Json::UInt(nanos))]))
}

/// An alarm was recorded.
pub fn alarm(e: &AlarmEvent) -> Json {
    record(
        "alarm",
        Json::obj([
            ("func", Json::str(e.func)),
            ("stmt", Json::UInt(e.stmt as u64)),
            ("line", Json::UInt(e.line as u64)),
            ("kind", Json::str(e.kind)),
            ("domain", Json::str(e.domain)),
            ("context", Json::str(e.context)),
            ("loop", e.loop_id.map_or(Json::Null, |l| Json::UInt(l as u64))),
            ("iteration", e.iteration.map_or(Json::Null, Json::UInt)),
        ]),
    )
}

/// A block's stage plan was computed.
pub fn plan(nanos: u64) -> Json {
    record("plan", Json::obj([("nanos", Json::UInt(nanos))]))
}

/// A parallel slice completed.
pub fn slice(e: &SliceEvent) -> Json {
    record(
        "slice",
        Json::obj([
            ("stage", Json::UInt(e.stage)),
            ("index", Json::UInt(e.index as u64)),
            ("stmts", Json::UInt(e.stmts as u64)),
            ("nanos", Json::UInt(e.nanos)),
        ]),
    )
}

/// A sliced stage's ordered overlay merge completed.
pub fn merge(stage: u64, slices: usize, nanos: u64) -> Json {
    record(
        "merge",
        Json::obj([
            ("stage", Json::UInt(stage)),
            ("slices", Json::UInt(slices as u64)),
            ("nanos", Json::UInt(nanos)),
        ]),
    )
}

/// A stage fell back to sequential execution.
pub fn fallback(reason: &'static str) -> Json {
    record("fallback", Json::obj([("reason", Json::str(reason))]))
}

/// Worker-pool counters for a run.
pub fn pool(p: &PoolCounters) -> Json {
    record("pool", p.to_json())
}

/// A batch job finished.
pub fn batch_job(e: &BatchJobEvent) -> Json {
    record(
        "batch_job",
        Json::obj([
            ("name", Json::str(e.name)),
            ("status", Json::str(e.status)),
            ("reason", e.reason.map_or(Json::Null, Json::str)),
            ("wall_nanos", Json::UInt(e.wall_nanos)),
            ("worker", Json::UInt(e.worker as u64)),
            ("alarms", e.alarms.map_or(Json::Null, Json::UInt)),
        ]),
    )
}

/// Fleet coordinator counters for a fleet run.
pub fn fleet(c: &FleetCounters) -> Json {
    record("fleet", c.to_json())
}

/// Invariant-cache counters for a run.
pub fn cache(c: &CacheCounters) -> Json {
    record("cache", c.to_json())
}
