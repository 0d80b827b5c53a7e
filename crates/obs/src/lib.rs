//! `astree-obs` — structured analysis telemetry.
//!
//! The analyzer's iterator is heavily parametrized (widening thresholds,
//! delayed widening, unrolling, trace partitioning, parallel slicing); this
//! crate makes its behavior observable without perturbing it. The design
//! follows the tuning workflow of Monniaux's parallel-Astrée report: record
//! *where* iterations are spent, *which* strategy fired, and *why* the
//! scheduler fell back, then read it all from one JSON document.
//!
//! Every event is one [`Event`]; a [`Recorder`] has two methods,
//! [`Recorder::enabled`] and [`Recorder::record`]. The implementations:
//!
//! - [`NullRecorder`]: disabled, so instrumented call sites guard with one
//!   cached boolean, build no event and the hot path stays untouched;
//! - [`Collector`]: aggregates events into a [`Metrics`] document behind a
//!   mutex;
//! - [`StreamSink`]: writes each event's `astree-events/1` record as it
//!   happens (`--metrics-stream`);
//! - [`Fanout`]: tees events to several recorders.
//!
//! The JSON schema (`astree-metrics/1`) is documented field by field in the
//! repository's `DESIGN.md`.

pub mod events;
pub mod json;
pub mod stream;

pub use events::Event;
pub use json::Json;
pub use stream::{Fanout, StreamSink, EVENT_SCHEMA};

use std::collections::BTreeMap;
use std::sync::Mutex;

/// The schema identifier emitted at the top of every metrics document.
pub const SCHEMA: &str = "astree-metrics/1";

/// Fixpoint phase of one loop iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Plain-union iteration (delayed widening / stabilization grace).
    Union,
    /// Widening with thresholds.
    Widen,
    /// Threshold-free widening after the hard iteration cap.
    WidenTop,
    /// Decreasing (narrowing) iteration.
    Narrow,
}

impl Phase {
    /// Stable lower-case name used in traces and the JSON document.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Union => "union",
            Phase::Widen => "widen",
            Phase::WidenTop => "widen-top",
            Phase::Narrow => "narrow",
        }
    }
}

/// One fixpoint iteration on one loop.
#[derive(Debug, Clone)]
pub struct LoopIterEvent<'a> {
    /// Enclosing function name.
    pub func: &'a str,
    /// Loop id (stable across runs).
    pub loop_id: u32,
    /// 1-based iteration number within this loop's fixpoint computation.
    pub iteration: u64,
    /// What the iteration did.
    pub phase: Phase,
    /// Environment cells still unstable at this iteration.
    pub unstable_cells: u64,
    /// Bounds that grew onto a finite value this iteration (a threshold, or
    /// a bound the clock implies), `x ± clock` parts included.
    pub threshold_hits: u64,
    /// Bounds that escaped past every threshold to ±∞ this iteration.
    pub infinity_escapes: u64,
    /// What held the iteration open: the components of `F(inv)` not below
    /// the invariant `inv` (zero for a narrowing).
    pub grown: Grown,
}

/// The components of a loop iterate `F(inv)` not below the invariant `inv`
/// it was computed from, by domain. Only a run with a recorder counts them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Grown {
    /// Environment cells (a value or its `x ± clock` parts).
    pub cells: u64,
    /// Octagon packs.
    pub octagons: u64,
    /// Decision-tree packs.
    pub dtrees: u64,
    /// Filter (ellipsoid) packs.
    pub filters: u64,
}

/// Emitted once per loop when its fixpoint computation finishes.
#[derive(Debug, Clone)]
pub struct LoopDoneEvent<'a> {
    /// Enclosing function name.
    pub func: &'a str,
    /// Loop id.
    pub loop_id: u32,
    /// Total iterations spent (unions + widenings + narrowings).
    pub iterations: u64,
    /// Iteration at which the invariant stabilized (before narrowing).
    pub stabilized_at: u64,
}

/// One alarm, with provenance: where it fired, which domain's check failed,
/// and in which loop context it stabilized.
#[derive(Debug, Clone)]
pub struct AlarmEvent<'a> {
    /// Enclosing function name.
    pub func: &'a str,
    /// Statement id.
    pub stmt: u32,
    /// Source line.
    pub line: u32,
    /// Alarm kind slug (e.g. `div_by_zero`).
    pub kind: &'a str,
    /// The base domain whose check could not prove the operation safe.
    pub domain: &'static str,
    /// Statement context (pretty-printed expression).
    pub context: &'a str,
    /// Innermost loop the alarm was found under, if any.
    pub loop_id: Option<u32>,
    /// Checking-phase iteration at which the alarm surfaced (unroll passes
    /// count from 1; the post-fixpoint invariant replay comes after them).
    pub iteration: Option<u64>,
}

impl AlarmEvent<'_> {
    /// The one JSON rendering: an `alarms[]` entry and the `alarm` record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("func", Json::str(self.func)),
            ("stmt", Json::UInt(self.stmt as u64)),
            ("line", Json::UInt(self.line as u64)),
            ("kind", Json::str(self.kind)),
            ("domain", Json::str(self.domain)),
            ("context", Json::str(self.context)),
            ("loop", self.loop_id.map_or(Json::Null, |l| Json::UInt(l as u64))),
            ("iteration", self.iteration.map_or(Json::Null, Json::UInt)),
        ])
    }
}

/// One parallel slice of a sliced stage.
#[derive(Debug, Clone)]
pub struct SliceEvent {
    /// Stage sequence number (per analysis, 1-based).
    pub stage: u64,
    /// Slice index within the stage.
    pub index: usize,
    /// Statements in the slice.
    pub stmts: usize,
    /// Wall time of the slice.
    pub nanos: u64,
}

impl SliceEvent {
    /// The one JSON rendering: a `scheduler.slices[]` entry and the `slice`
    /// record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stage", Json::UInt(self.stage)),
            ("index", Json::UInt(self.index as u64)),
            ("stmts", Json::UInt(self.stmts as u64)),
            ("nanos", Json::UInt(self.nanos)),
        ])
    }
}

/// One finished batch job.
#[derive(Debug, Clone)]
pub struct BatchJobEvent<'a> {
    /// Job name.
    pub name: &'a str,
    /// `done`, `failed`, `panicked` or `timed-out`.
    pub status: &'a str,
    /// Failure detail, when any.
    pub reason: Option<&'a str>,
    /// Wall time the job occupied a worker.
    pub wall_nanos: u64,
    /// Worker index that ran the job.
    pub worker: usize,
    /// Alarm count, when the job completed.
    pub alarms: Option<u64>,
}

impl BatchJobEvent<'_> {
    /// The one JSON rendering: a `scheduler.batch_jobs[]` entry and the
    /// `batch_job` record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("status", Json::str(self.status)),
            ("reason", self.reason.map_or(Json::Null, Json::str)),
            ("wall_nanos", Json::UInt(self.wall_nanos)),
            ("worker", Json::UInt(self.worker as u64)),
            ("alarms", self.alarms.map_or(Json::Null, Json::UInt)),
        ])
    }
}

/// Invariant-cache counters for one analysis run.
///
/// Emitted once per run by the analysis session when a cache store is
/// attached; the [`Collector`] sums runs field-wise, so a batch over a shared
/// store reports fleet-wide totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Stored results replayed verbatim (warm runs).
    pub full_hits: u64,
    /// Runs that found no stored result and solved cold.
    pub misses: u64,
    /// Loop invariants computed by fixpoint iteration in the missing runs.
    pub loops_solved: u64,
    /// Always 0, out of the JSON: kept because `benchsuite/src/layers.rs` reads it.
    pub loops_replayed: u64,
    /// Always 0, out of the JSON: kept because `benchsuite/src/layers.rs` reads it.
    pub loops_seeded: u64,
    /// Results evicted to keep the store under its size bound.
    pub evictions: u64,
    /// Store files rejected as corrupt or truncated (clean cold fallback).
    pub corrupt_files: u64,
    /// Bytes read from cache files.
    pub bytes_read: u64,
    /// Bytes written to cache files.
    pub bytes_written: u64,
    /// Wall time spent decoding and replaying stored results.
    pub replay_nanos: u64,
    /// Estimated analysis time avoided (stored cold time minus replay time).
    pub saved_nanos: u64,
}

impl CacheCounters {
    /// Field-wise sum.
    pub fn add(&mut self, o: &CacheCounters) {
        self.full_hits += o.full_hits;
        self.misses += o.misses;
        self.loops_solved += o.loops_solved;
        self.loops_replayed += o.loops_replayed;
        self.loops_seeded += o.loops_seeded;
        self.evictions += o.evictions;
        self.corrupt_files += o.corrupt_files;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.replay_nanos += o.replay_nanos;
        self.saved_nanos += o.saved_nanos;
    }

    /// Field-wise saturating difference (`self` at a later time minus an
    /// earlier snapshot of the same cumulative counters).
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            full_hits: self.full_hits.saturating_sub(earlier.full_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            loops_solved: self.loops_solved.saturating_sub(earlier.loops_solved),
            loops_replayed: self.loops_replayed.saturating_sub(earlier.loops_replayed),
            loops_seeded: self.loops_seeded.saturating_sub(earlier.loops_seeded),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            corrupt_files: self.corrupt_files.saturating_sub(earlier.corrupt_files),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            replay_nanos: self.replay_nanos.saturating_sub(earlier.replay_nanos),
            saved_nanos: self.saved_nanos.saturating_sub(earlier.saved_nanos),
        }
    }

    /// The one JSON rendering: the metrics document's `cache` section, the
    /// `cache` event and the daemon's `status.cache`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("full_hits", Json::UInt(self.full_hits)),
            ("misses", Json::UInt(self.misses)),
            ("loops_solved", Json::UInt(self.loops_solved)),
            ("evictions", Json::UInt(self.evictions)),
            ("corrupt_files", Json::UInt(self.corrupt_files)),
            ("bytes_read", Json::UInt(self.bytes_read)),
            ("bytes_written", Json::UInt(self.bytes_written)),
            ("replay_nanos", Json::UInt(self.replay_nanos)),
            ("saved_nanos", Json::UInt(self.saved_nanos)),
        ])
    }
}

/// Persistent-map sharing counters for one analysis run.
///
/// Emitted once per run by the analysis session; the totals cover the main
/// thread and every worker slice (per-thread counters are drained once per
/// slice and summed at the merge). The [`Collector`] sums runs field-wise.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PmapCounters {
    /// Tree nodes allocated (every path copy and rebalance).
    pub nodes_allocated: u64,
    /// Binary merge operations started (`union_with` / `union_outcome`).
    pub merge_calls: u64,
    /// Merges answered entirely at the root by pointer equality.
    pub root_shortcut_hits: u64,
    /// Shared subtrees skipped inside merges and diff traversals.
    pub interior_shortcut_hits: u64,
    /// Public operations that returned an input physically unchanged
    /// (no-op inserts, merges whose result is one of the operands).
    pub identity_preserved: u64,
    /// Node allocations served from the slab allocator's free lists
    /// instead of fresh chunk memory.
    pub nodes_recycled: u64,
    /// Bytes handed out by the node slab (fresh and recycled alike).
    pub slab_bytes_allocated: u64,
    /// Bytes returned to the node slab's free lists.
    pub slab_bytes_freed: u64,
}

impl PmapCounters {
    /// Field-wise sum.
    pub fn add(&mut self, o: &PmapCounters) {
        self.nodes_allocated += o.nodes_allocated;
        self.merge_calls += o.merge_calls;
        self.root_shortcut_hits += o.root_shortcut_hits;
        self.interior_shortcut_hits += o.interior_shortcut_hits;
        self.identity_preserved += o.identity_preserved;
        self.nodes_recycled += o.nodes_recycled;
        self.slab_bytes_allocated += o.slab_bytes_allocated;
        self.slab_bytes_freed += o.slab_bytes_freed;
    }

    /// Approximate live slab bytes over the recorded window (allocations
    /// minus frees, clamped at zero).
    pub fn bytes_live(&self) -> u64 {
        self.slab_bytes_allocated.saturating_sub(self.slab_bytes_freed)
    }

    /// The one JSON rendering: the metrics document's `pmap` section and the
    /// `pmap` event.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nodes_allocated", Json::UInt(self.nodes_allocated)),
            ("merge_calls", Json::UInt(self.merge_calls)),
            ("root_shortcut_hits", Json::UInt(self.root_shortcut_hits)),
            ("interior_shortcut_hits", Json::UInt(self.interior_shortcut_hits)),
            ("identity_preserved", Json::UInt(self.identity_preserved)),
            ("nodes_recycled", Json::UInt(self.nodes_recycled)),
            ("slab_bytes_allocated", Json::UInt(self.slab_bytes_allocated)),
            ("slab_bytes_freed", Json::UInt(self.slab_bytes_freed)),
            ("bytes_live", Json::UInt(self.bytes_live())),
        ])
    }
}

/// The checking pass's premise tests of one analysis run (every invariant it
/// used, tested inductive in its context), summed by the [`Collector`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PremiseCounters {
    /// Invariants tested.
    pub checked: u64,
    /// Invariants that failed the test (0 unless the analyzer has a bug).
    pub failed: u64,
}

impl PremiseCounters {
    /// Field-wise sum.
    pub fn add(&mut self, o: &PremiseCounters) {
        self.checked += o.checked;
        self.failed += o.failed;
    }

    /// The document's `premise` section and the `premise` event.
    pub fn to_json(&self) -> Json {
        Json::obj([("checked", Json::UInt(self.checked)), ("failed", Json::UInt(self.failed))])
    }
}

/// Frame usage of one analysis run: how the entry function's call
/// statements ran and how large their frames are.
///
/// Emitted once per run by the analysis session. The [`Collector`] sums the
/// counts and pools the per-frame sizes across runs; the document reports
/// the sizes as min/median/max.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FrameCounters {
    /// Call executions run on their frame.
    pub calls_framed: u64,
    /// Call executions run on the caller's state because the callee may
    /// tick the clock.
    pub calls_whole_wait: u64,
    /// … because the callee's call tree exceeds the syntactic walk's depth.
    pub calls_whole_depth_cap: u64,
    /// Cells per frame, one entry per framed call statement.
    pub cells_per_frame: Vec<u64>,
    /// Relational packs (all kinds) per frame, same order.
    pub packs_per_frame: Vec<u64>,
}

impl FrameCounters {
    /// Sums the counts and pools the per-frame sizes.
    pub fn add(&mut self, o: &FrameCounters) {
        self.calls_framed += o.calls_framed;
        self.calls_whole_wait += o.calls_whole_wait;
        self.calls_whole_depth_cap += o.calls_whole_depth_cap;
        self.cells_per_frame.extend(&o.cells_per_frame);
        self.packs_per_frame.extend(&o.packs_per_frame);
    }

    /// The one JSON rendering: the metrics document's `core.frames` and the
    /// `frames` event.
    pub fn to_json(&self) -> Json {
        let spread = |sizes: &[u64]| {
            let mut v = sizes.to_vec();
            v.sort_unstable();
            let at = |i: usize| v.get(i).map_or(Json::Null, |n| Json::UInt(*n));
            Json::obj([
                ("min", at(0)),
                ("median", at(v.len() / 2)),
                ("max", at(v.len().saturating_sub(1))),
            ])
        };
        Json::obj([
            ("calls_framed", Json::UInt(self.calls_framed)),
            (
                "calls_whole",
                Json::obj([
                    ("wait", Json::UInt(self.calls_whole_wait)),
                    ("depth_cap", Json::UInt(self.calls_whole_depth_cap)),
                ]),
            ),
            ("frames", Json::UInt(self.cells_per_frame.len() as u64)),
            ("cells_per_frame", spread(&self.cells_per_frame)),
            ("packs_per_frame", spread(&self.packs_per_frame)),
        ])
    }
}

/// What one analysis run's parallel stages scattered on their threads.
///
/// Emitted once per run by the analysis session when `jobs > 1`; the
/// [`Collector`] keeps the last report (the counters are cumulative over
/// the session).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PoolCounters {
    /// Workers per stage (`jobs`: the caller + `jobs − 1` threads).
    pub workers: u64,
    /// Slices scattered over the session.
    pub tasks: u64,
    /// Always 0 since the workers share one cursor; kept because readers
    /// of `astree-metrics/1` name the slot.
    pub steals: u64,
    /// The most slices one stage scattered.
    pub max_queue_depth: u64,
    /// Per-worker nanoseconds spent running slices (index 0 = caller).
    pub busy_nanos: Vec<u64>,
}

impl PoolCounters {
    /// The one JSON rendering: `scheduler.pool` and the `pool` event.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workers", Json::UInt(self.workers)),
            ("tasks", Json::UInt(self.tasks)),
            ("steals", Json::UInt(self.steals)),
            ("max_queue_depth", Json::UInt(self.max_queue_depth)),
            ("busy_nanos", Json::Arr(self.busy_nanos.iter().map(|&n| Json::UInt(n)).collect())),
        ])
    }
}

/// Per-worker counters of one fleet run (one entry per coordinator lane).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FleetWorkerCounters {
    /// Jobs this worker completed.
    pub jobs: u64,
    /// Wall time the worker spent executing jobs.
    pub busy_nanos: u64,
}

/// Process-fleet coordinator counters for one fleet run.
///
/// Emitted once per run by the fleet session; the [`Collector`] keeps the
/// last report (the counters are cumulative over the run).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FleetCounters {
    /// Worker lanes (processes, or in-process threads when `processes` is
    /// `false`).
    pub workers: u64,
    /// `true` when jobs ran on worker *processes*; `false` for the
    /// in-process executor.
    pub processes: bool,
    /// Jobs submitted.
    pub jobs: u64,
    /// Always 0 (one queue); kept because `benchsuite` reads `fleet.steals`.
    pub steals: u64,
    /// Jobs put back in the queue after their worker died mid-job.
    pub resent: u64,
    /// Worker processes that died mid-job (crash or lost connection).
    pub crashes: u64,
    /// Jobs killed for exceeding the per-job timeout.
    pub timeouts: u64,
    /// Dead local worker processes replaced with a fresh child.
    pub respawns: u64,
    /// Jobs answered verbatim by the shared invariant store.
    pub store_full_hits: u64,
    /// Store files shipped to workers in `job` frames (`--cache-wire`).
    pub store_gets: u64,
    /// Store files from workers' `done` frames the coordinator's store
    /// accepted.
    pub store_puts: u64,
    /// Per-worker breakdown, indexed by lane.
    pub per_worker: Vec<FleetWorkerCounters>,
}

impl FleetCounters {
    /// The one JSON rendering: the metrics document's `fleet` section, the
    /// `fleet` event and `astree batch --json`'s `fleet`.
    pub fn to_json(&self) -> Json {
        let per_worker = self.per_worker.iter().map(|w| {
            Json::obj([("jobs", Json::UInt(w.jobs)), ("busy_nanos", Json::UInt(w.busy_nanos))])
        });
        Json::obj([
            ("workers", Json::UInt(self.workers)),
            ("processes", Json::Bool(self.processes)),
            ("jobs", Json::UInt(self.jobs)),
            ("resent", Json::UInt(self.resent)),
            ("crashes", Json::UInt(self.crashes)),
            ("timeouts", Json::UInt(self.timeouts)),
            ("respawns", Json::UInt(self.respawns)),
            ("store_full_hits", Json::UInt(self.store_full_hits)),
            ("store_gets", Json::UInt(self.store_gets)),
            ("store_puts", Json::UInt(self.store_puts)),
            ("per_worker", Json::Arr(per_worker.collect())),
        ])
    }
}

/// Daemon-lifetime counters for the resident `astree serve` service.
///
/// Unlike the per-run counters above these describe the *service*, not an
/// analysis: they are cumulative from daemon start and are reported through
/// `status` responses rather than as [`Event`]s.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests received (admitted or rejected).
    pub requests: u64,
    /// Requests that ran to completion and returned a `result` frame.
    pub completed: u64,
    /// Requests rejected with `overloaded` by the admission gate.
    pub rejected_overloaded: u64,
    /// Requests that failed with `bad_request` (malformed frame or request;
    /// a program that does not compile is a `failed` outcome instead).
    pub bad_requests: u64,
    /// Jobs whose analysis panicked (isolated; daemon kept serving).
    pub panicked: u64,
    /// Event frames streamed to clients.
    pub events_streamed: u64,
    /// High-water mark of concurrently admitted requests.
    pub max_inflight_seen: u64,
}

impl ServeCounters {
    /// Renders the counters as a JSON object (used in `status` responses).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::UInt(self.requests)),
            ("completed", Json::UInt(self.completed)),
            ("rejected_overloaded", Json::UInt(self.rejected_overloaded)),
            ("bad_requests", Json::UInt(self.bad_requests)),
            ("panicked", Json::UInt(self.panicked)),
            ("events_streamed", Json::UInt(self.events_streamed)),
            ("max_inflight_seen", Json::UInt(self.max_inflight_seen)),
        ])
    }
}

/// The telemetry sink threaded through the analysis pipeline.
///
/// Instrumented sites cache [`Recorder::enabled`] and build no [`Event`]
/// when it is `false`, so an unrecorded run pays one branch per site.
pub trait Recorder: Send + Sync {
    /// `true` when events should be recorded at all.
    fn enabled(&self) -> bool;

    /// Records one event.
    fn record(&self, event: &Event);
}

/// The no-op recorder: the default everywhere, adds no observable cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// A shared no-op instance for call sites needing a `&'static dyn Recorder`.
pub static NULL: NullRecorder = NullRecorder;

// ---------------------------------------------------------------------------
// Aggregated metrics model
// ---------------------------------------------------------------------------

/// Per-loop fixpoint counters.
#[derive(Debug, Default, Clone)]
pub struct LoopMetrics {
    /// Total fixpoint iterations.
    pub iterations: u64,
    /// Plain-union iterations (delayed widening).
    pub union_iterations: u64,
    /// Widening applications (including threshold-free ones).
    pub widenings: u64,
    /// Threshold-free widenings past the iteration budget
    /// ([`Phase::WidenTop`]), also counted in `widenings`.
    pub widen_top: u64,
    /// Narrowing applications.
    pub narrowings: u64,
    /// Bounds caught by a finite widening threshold.
    pub threshold_hits: u64,
    /// Bounds that escaped to ±∞.
    pub infinity_escapes: u64,
    /// Semantic unrolling factor applied.
    pub unroll_factor: u32,
    /// Iteration at which the invariant stabilized.
    pub stabilized_at: u64,
}

/// Per-function counters.
#[derive(Debug, Default, Clone)]
pub struct FunctionMetrics {
    /// Peak simultaneously-live trace partitions observed.
    pub peak_partitions: u64,
    /// Loops solved within the function, by loop id.
    pub loops: BTreeMap<u32, LoopMetrics>,
}

/// Count and wall time of one domain operation.
#[derive(Debug, Default, Clone)]
pub struct OpMetrics {
    /// Number of applications.
    pub count: u64,
    /// Total wall time.
    pub nanos: u64,
}

/// One recorded alarm with provenance (owned mirror of [`AlarmEvent`]).
#[derive(Debug, Clone)]
pub struct AlarmRecord {
    /// Enclosing function name.
    pub func: String,
    /// Statement id.
    pub stmt: u32,
    /// Source line.
    pub line: u32,
    /// Alarm kind slug.
    pub kind: String,
    /// Responsible base domain.
    pub domain: &'static str,
    /// Statement context.
    pub context: String,
    /// Innermost loop, if any.
    pub loop_id: Option<u32>,
    /// Checking-phase iteration.
    pub iteration: Option<u64>,
}

impl AlarmRecord {
    /// The event this record keeps.
    fn as_event(&self) -> AlarmEvent<'_> {
        AlarmEvent {
            func: &self.func,
            stmt: self.stmt,
            line: self.line,
            kind: &self.kind,
            domain: self.domain,
            context: &self.context,
            loop_id: self.loop_id,
            iteration: self.iteration,
        }
    }
}

/// One recorded batch job (owned mirror of [`BatchJobEvent`]).
#[derive(Debug, Clone)]
pub struct BatchJobRecord {
    /// Job name.
    pub name: String,
    /// Completion status.
    pub status: String,
    /// Failure detail.
    pub reason: Option<String>,
    /// Wall time.
    pub wall_nanos: u64,
    /// Worker index.
    pub worker: usize,
    /// Alarm count.
    pub alarms: Option<u64>,
}

impl BatchJobRecord {
    /// The event this record keeps.
    fn as_event(&self) -> BatchJobEvent<'_> {
        BatchJobEvent {
            name: &self.name,
            status: &self.status,
            reason: self.reason.as_deref(),
            wall_nanos: self.wall_nanos,
            worker: self.worker,
            alarms: self.alarms,
        }
    }
}

/// Scheduler-side counters (parallel slicing + batch execution).
#[derive(Debug, Default, Clone)]
pub struct SchedulerMetrics {
    /// Sliced stages executed.
    pub stages: u64,
    /// Per-slice timings.
    pub slices: Vec<SliceEvent>,
    /// Ordered overlay merges performed.
    pub merges: u64,
    /// Total merge wall time.
    pub merge_nanos: u64,
    /// Total wall time spent planning blocks into stages and slices.
    pub plan_nanos: u64,
    /// Fallback-to-sequential reasons, with occurrence counts.
    pub fallbacks: BTreeMap<&'static str, u64>,
    /// Batch job outcomes.
    pub batch_jobs: Vec<BatchJobRecord>,
    /// Slice-scatter counters (absent when `jobs = 1`).
    pub pool: Option<PoolCounters>,
}

/// The full aggregated metrics document.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Per-function fixpoint counters.
    pub functions: BTreeMap<String, FunctionMetrics>,
    /// Per-domain operation counts and wall times.
    pub domains: BTreeMap<&'static str, BTreeMap<&'static str, OpMetrics>>,
    /// Analysis phase wall times.
    pub phases: BTreeMap<&'static str, u64>,
    /// Alarms with provenance, in report order.
    pub alarms: Vec<AlarmRecord>,
    /// Scheduler counters.
    pub scheduler: SchedulerMetrics,
    /// Invariant-cache counters, summed across recorded runs.
    pub cache: CacheCounters,
    /// Persistent-map sharing counters, summed across recorded runs.
    pub pmap: PmapCounters,
    /// Frame usage, summed across recorded runs.
    pub frames: FrameCounters,
    /// Premise tests, summed across recorded runs.
    pub premise: PremiseCounters,
    /// Octagon pack-size histogram (variables per pack → pack count),
    /// summed across recorded runs. The mass at 2–3 variables is what
    /// justifies the specialized small-pack closure kernels.
    pub pack_size_histogram: BTreeMap<usize, u64>,
    /// Fleet coordinator counters (absent when no fleet ran; the last
    /// reported run wins).
    pub fleet: Option<FleetCounters>,
}

impl Metrics {
    /// Renders the document in the `astree-metrics/1` schema.
    pub fn to_json(&self) -> Json {
        let functions = Json::Obj(
            self.functions
                .iter()
                .map(|(name, f)| {
                    let loops = Json::Obj(
                        f.loops
                            .iter()
                            .map(|(id, l)| {
                                (
                                    id.to_string(),
                                    Json::obj([
                                        ("iterations", Json::UInt(l.iterations)),
                                        ("union_iterations", Json::UInt(l.union_iterations)),
                                        ("widenings", Json::UInt(l.widenings)),
                                        ("widen_top", Json::UInt(l.widen_top)),
                                        ("narrowings", Json::UInt(l.narrowings)),
                                        ("threshold_hits", Json::UInt(l.threshold_hits)),
                                        ("infinity_escapes", Json::UInt(l.infinity_escapes)),
                                        ("unroll_factor", Json::UInt(l.unroll_factor as u64)),
                                        ("stabilized_at", Json::UInt(l.stabilized_at)),
                                    ]),
                                )
                            })
                            .collect(),
                    );
                    (
                        name.clone(),
                        Json::obj([
                            ("peak_partitions", Json::UInt(f.peak_partitions)),
                            ("loops", loops),
                        ]),
                    )
                })
                .collect(),
        );
        let domains = Json::Obj(
            self.domains
                .iter()
                .map(|(domain, ops)| {
                    (
                        domain.to_string(),
                        Json::Obj(
                            ops.iter()
                                .map(|(op, m)| {
                                    (
                                        op.to_string(),
                                        Json::obj([
                                            ("count", Json::UInt(m.count)),
                                            ("nanos", Json::UInt(m.nanos)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        let phases =
            Json::Obj(self.phases.iter().map(|(p, n)| (p.to_string(), Json::UInt(*n))).collect());
        let alarms = Json::Arr(self.alarms.iter().map(|a| a.as_event().to_json()).collect());
        let s = &self.scheduler;
        let scheduler = Json::obj([
            ("stages", Json::UInt(s.stages)),
            ("slices", Json::Arr(s.slices.iter().map(SliceEvent::to_json).collect())),
            ("merges", Json::UInt(s.merges)),
            ("merge_nanos", Json::UInt(s.merge_nanos)),
            ("plan_nanos", Json::UInt(s.plan_nanos)),
            (
                "fallbacks",
                Json::Obj(
                    s.fallbacks.iter().map(|(r, n)| (r.to_string(), Json::UInt(*n))).collect(),
                ),
            ),
            (
                "batch_jobs",
                Json::Arr(s.batch_jobs.iter().map(|j| j.as_event().to_json()).collect()),
            ),
            ("pool", s.pool.as_ref().map_or(Json::Null, PoolCounters::to_json)),
        ]);
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("functions", functions),
            ("domains", domains),
            ("phases", phases),
            ("alarms", alarms),
            ("scheduler", scheduler),
            ("cache", self.cache.to_json()),
            ("pmap", self.pmap.to_json()),
            ("core", Json::obj([("frames", self.frames.to_json())])),
            ("premise", self.premise.to_json()),
            ("packs", events::packs_json(&self.pack_size_histogram)),
            ("fleet", self.fleet.as_ref().map_or(Json::Null, FleetCounters::to_json)),
        ])
    }

    fn loop_metrics(&mut self, func: &str, loop_id: u32) -> &mut LoopMetrics {
        self.functions.entry(func.to_string()).or_default().loops.entry(loop_id).or_default()
    }

    fn add_op(&mut self, domain: &'static str, op: &'static str, count: u64, nanos: u64) {
        let m = self.domains.entry(domain).or_default().entry(op).or_default();
        m.count += count;
        m.nanos += nanos;
    }
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// The collecting recorder: aggregates every event into a [`Metrics`]
/// document.
///
/// The single mutex is deliberate: telemetry runs are diagnostic runs, and
/// the per-event cost (one short critical section) is negligible next to the
/// abstract operations being measured.
#[derive(Debug, Default)]
pub struct Collector {
    metrics: Mutex<Metrics>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// A copy of the aggregated metrics so far.
    pub fn snapshot(&self) -> Metrics {
        self.metrics.lock().expect("collector poisoned").clone()
    }

    /// Renders the aggregated metrics as the `astree-metrics/1` document.
    pub fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

impl Recorder for Collector {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        let mut m = self.metrics.lock().expect("collector poisoned");
        match event {
            Event::LoopIter(e) => {
                let l = m.loop_metrics(e.func, e.loop_id);
                l.iterations += 1;
                match e.phase {
                    Phase::Union => l.union_iterations += 1,
                    Phase::Widen => l.widenings += 1,
                    Phase::WidenTop => {
                        l.widenings += 1;
                        l.widen_top += 1;
                    }
                    Phase::Narrow => l.narrowings += 1,
                }
                l.threshold_hits += e.threshold_hits;
                l.infinity_escapes += e.infinity_escapes;
            }
            Event::LoopDone(e) => m.loop_metrics(e.func, e.loop_id).stabilized_at = e.stabilized_at,
            Event::Unroll { func, loop_id, factor } => {
                m.loop_metrics(func, *loop_id).unroll_factor = *factor
            }
            Event::Partitions { func, live } => {
                let f = m.functions.entry(func.to_string()).or_default();
                f.peak_partitions = f.peak_partitions.max(*live);
            }
            Event::DomainOp { domain, op, nanos } => m.add_op(domain, op, 1, *nanos),
            Event::DomainOps { count: 0, .. } => {}
            Event::DomainOps { domain, op, count, nanos } => m.add_op(domain, op, *count, *nanos),
            Event::Phase { phase, nanos } => *m.phases.entry(*phase).or_insert(0) += nanos,
            Event::Alarm(e) => m.alarms.push(AlarmRecord {
                func: e.func.to_string(),
                stmt: e.stmt,
                line: e.line,
                kind: e.kind.to_string(),
                domain: e.domain,
                context: e.context.to_string(),
                loop_id: e.loop_id,
                iteration: e.iteration,
            }),
            Event::Plan { nanos } => m.scheduler.plan_nanos += nanos,
            Event::Slice(e) => m.scheduler.slices.push(e.clone()),
            Event::Merge { stage: _, slices, nanos } => {
                m.scheduler.stages += 1;
                m.scheduler.merges += *slices as u64;
                m.scheduler.merge_nanos += nanos;
            }
            Event::Fallback { reason } => *m.scheduler.fallbacks.entry(*reason).or_insert(0) += 1,
            Event::Pool(c) => m.scheduler.pool = Some((*c).clone()),
            Event::BatchJob(e) => m.scheduler.batch_jobs.push(BatchJobRecord {
                name: e.name.to_string(),
                status: e.status.to_string(),
                reason: e.reason.map(str::to_string),
                wall_nanos: e.wall_nanos,
                worker: e.worker,
                alarms: e.alarms,
            }),
            Event::Fleet(c) => m.fleet = Some((*c).clone()),
            Event::Cache(c) => m.cache.add(c),
            Event::Pmap(c) => m.pmap.add(c),
            Event::Frames(c) => m.frames.add(c),
            Event::Premise(c) => m.premise.add(c),
            Event::PackSizes(sizes) => events::count_pack_sizes(&mut m.pack_size_histogram, sizes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loop_iter(loop_id: u32, iteration: u64, phase: Phase) -> Event<'static> {
        Event::LoopIter(LoopIterEvent {
            func: "main",
            loop_id,
            iteration,
            phase,
            unstable_cells: 2,
            threshold_hits: u64::from(phase == Phase::Widen),
            infinity_escapes: 0,
            grown: Grown::default(),
        })
    }

    #[test]
    fn null_recorder_is_disabled() {
        assert!(!NullRecorder.enabled());
        NULL.record(&loop_iter(0, 1, Phase::Union));
        NULL.record(&Event::Fallback { reason: "worker_panic" });
    }

    #[test]
    fn collector_aggregates_loop_counters() {
        let c = Collector::new();
        for (i, phase) in [Phase::Union, Phase::Union, Phase::Widen, Phase::WidenTop, Phase::Narrow]
            .into_iter()
            .enumerate()
        {
            c.record(&loop_iter(3, i as u64 + 1, phase));
        }
        c.record(&Event::LoopDone(LoopDoneEvent {
            func: "main",
            loop_id: 3,
            iterations: 5,
            stabilized_at: 4,
        }));
        c.record(&Event::Unroll { func: "main", loop_id: 3, factor: 2 });
        let m = c.snapshot();
        let l = &m.functions["main"].loops[&3];
        assert_eq!(l.iterations, 5);
        assert_eq!(l.union_iterations, 2);
        assert_eq!(l.widenings, 2);
        assert_eq!(l.widen_top, 1);
        assert_eq!(l.narrowings, 1);
        assert_eq!(l.threshold_hits, 1);
        assert_eq!(l.stabilized_at, 4);
        assert_eq!(l.unroll_factor, 2);
    }

    #[test]
    fn collector_aggregates_domain_and_scheduler_events() {
        let c = Collector::new();
        c.record(&Event::DomainOp { domain: "octagon", op: "closure", nanos: 10 });
        c.record(&Event::DomainOp { domain: "octagon", op: "closure", nanos: 5 });
        c.record(&Event::DomainOps { domain: "octagon", op: "closure", count: 3, nanos: 0 });
        c.record(&Event::DomainOps { domain: "octagon", op: "closure_saved", count: 0, nanos: 0 });
        c.record(&Event::DomainOp { domain: "state", op: "widen", nanos: 7 });
        c.record(&Event::Slice(SliceEvent { stage: 1, index: 0, stmts: 8, nanos: 100 }));
        c.record(&Event::Merge { stage: 1, slices: 2, nanos: 50 });
        c.record(&Event::Fallback { reason: "worker_panic" });
        c.record(&Event::Fallback { reason: "worker_panic" });
        c.record(&Event::Phase { phase: "iterate", nanos: 1000 });
        let m = c.snapshot();
        assert_eq!(m.domains["octagon"]["closure"].count, 5);
        assert_eq!(m.domains["octagon"]["closure"].nanos, 15);
        assert!(!m.domains["octagon"].contains_key("closure_saved"), "an empty batch adds nothing");
        assert_eq!(m.domains["state"]["widen"].count, 1);
        assert_eq!(m.scheduler.slices.len(), 1);
        assert_eq!(m.scheduler.stages, 1);
        assert_eq!(m.scheduler.merges, 2);
        assert_eq!(m.scheduler.fallbacks["worker_panic"], 2);
        assert_eq!(m.phases["iterate"], 1000);
    }

    #[test]
    fn json_document_matches_schema() {
        let c = Collector::new();
        c.record(&loop_iter(0, 1, Phase::Widen));
        c.record(&Event::Alarm(AlarmEvent {
            func: "main",
            stmt: 7,
            line: 12,
            kind: "div_by_zero",
            domain: "int_interval",
            context: "x / y",
            loop_id: Some(0),
            iteration: Some(1),
        }));
        c.record(&Event::BatchJob(BatchJobEvent {
            name: "gen-1",
            status: "done",
            reason: None,
            wall_nanos: 5,
            worker: 0,
            alarms: Some(1),
        }));
        c.record(&Event::Cache(&CacheCounters {
            full_hits: 1,
            saved_nanos: 500,
            ..CacheCounters::default()
        }));
        c.record(&Event::Pmap(&PmapCounters {
            nodes_allocated: 10,
            identity_preserved: 3,
            nodes_recycled: 4,
            slab_bytes_allocated: 640,
            slab_bytes_freed: 128,
            ..Default::default()
        }));
        c.record(&Event::Frames(&FrameCounters {
            calls_framed: 7,
            calls_whole_depth_cap: 1,
            cells_per_frame: vec![51, 49, 60],
            packs_per_frame: vec![15, 15, 16],
            ..FrameCounters::default()
        }));
        c.record(&Event::PackSizes(&[2, 2, 3, 2]));
        c.record(&Event::Fleet(&FleetCounters {
            workers: 2,
            processes: true,
            jobs: 3,
            per_worker: vec![FleetWorkerCounters { jobs: 2, busy_nanos: 9 }],
            ..FleetCounters::default()
        }));
        let j = c.to_json();
        assert_eq!(j.get("schema"), Some(&Json::str(SCHEMA)));
        for key in [
            "functions",
            "domains",
            "phases",
            "alarms",
            "scheduler",
            "cache",
            "pmap",
            "core",
            "premise",
            "packs",
            "fleet",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let frames = j.get("core").and_then(|c| c.get("frames")).expect("core.frames");
        assert_eq!(frames.get("calls_framed"), Some(&Json::UInt(7)));
        assert_eq!(
            frames.get("calls_whole").and_then(|w| w.get("depth_cap")),
            Some(&Json::UInt(1))
        );
        let cells = frames.get("cells_per_frame").expect("cells_per_frame");
        assert_eq!(
            (cells.get("min"), cells.get("median"), cells.get("max")),
            (Some(&Json::UInt(49)), Some(&Json::UInt(51)), Some(&Json::UInt(60)))
        );
        let rendered = j.to_string();
        assert!(rendered.contains("\"div_by_zero\""));
        assert!(rendered.contains("\"batch_jobs\""));
        assert!(rendered.contains("\"store_full_hits\""));
        assert!(rendered.contains("\"nodes_recycled\": 4"));
        assert!(rendered.contains("\"bytes_live\": 512"));
        // Histogram: three packs of 2 variables, one of 3.
        assert!(rendered.contains("\"octagon_size_histogram\""));
        assert!(rendered.contains("\"2\": 3"));
        assert!(rendered.contains("\"3\": 1"));
        // The document round-trips through a strict JSON reader shape: no
        // trailing commas, balanced braces.
        assert_eq!(rendered.matches('{').count(), rendered.matches('}').count());
    }
}
