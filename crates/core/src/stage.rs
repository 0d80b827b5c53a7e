//! The staged executor (Monniaux's partition-and-join): the body of a
//! depth-0 loop, the synchronous loop's dispatch, runs stage by stage as
//! [`crate::parallel::plan_block`] cut it, each parallel stage's slices
//! scattered on `jobs` threads, their deltas overlaid in slice order —
//! bit-identical to the sequential interpreter for every worker count.

use crate::alarms::AlarmSink;
use crate::iterator::{Flow, Iter, IterStats};
use crate::parallel::{plan_block, Slice};
use crate::scatter::scatter;
use crate::state::AbsState;
use astree_ir::{Block, Lvalue};
use astree_obs::{Event, PmapCounters, SliceEvent};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one slice of a parallel stage sends back to the merger.
struct SliceOut {
    /// The slice's post-state (`None` when it went to bottom or split into
    /// partitions — shapes the overlay model cannot express).
    post: Option<AbsState>,
    returned: AbsState,
    sink: AlarmSink,
    stats: IterStats,
    oct_useful: Vec<usize>,
    /// The worker that ran the slice (0 = the caller).
    worker: usize,
    wall: Duration,
    /// Persistent-map counters drained from this slice's thread.
    pmap_stats: PmapCounters,
}

impl IterStats {
    /// Folds a worker iterator's counters into this one.
    fn merge_worker(&mut self, o: IterStats) {
        self.loop_iterations += o.loop_iterations;
        self.stmts_interpreted += o.stmts_interpreted;
        self.peak_partitions = self.peak_partitions.max(o.peak_partitions);
        self.par_stages += o.par_stages;
        self.par_slices += o.par_slices;
        self.loops_solved += o.loops_solved;
        self.widen_top += o.widen_top;
        self.budget_loops.extend(o.budget_loops);
        self.loops_rechecked += o.loops_rechecked;
        self.premise.add(&o.premise);
        self.premise_loops.extend(o.premise_loops);
        self.frames.add(&o.frames);
    }
}

impl<'a> Iter<'a> {
    /// Executes a depth-0 loop body stage by stage, slicing the parallel
    /// stages; the plan is made once per block and cached.
    pub(crate) fn exec_block_staged(
        &mut self,
        flow: &mut Flow,
        block: &Block,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) {
        let plan = match self.plans.get(&block[0].id) {
            Some(p) => Arc::clone(p),
            None => {
                let t0 = self.rec_on.then(Instant::now);
                let p = Arc::new(plan_block(
                    self.program,
                    self.layout,
                    self.packs,
                    block,
                    self.config.jobs,
                ));
                if let Some(t0) = t0 {
                    self.rec.record(&Event::Plan { nanos: t0.elapsed().as_nanos() as u64 });
                }
                self.plans.insert(block[0].id, Arc::clone(&p));
                p
            }
        };
        for (stage, slices) in plan.stages.iter().zip(&plan.slices) {
            let run_par = stage.parallel && flow.parts.len() == 1 && !flow.parts[0].is_bottom();
            if !run_par || !self.exec_stage_parallel(flow, block, slices, ret_target, depth) {
                self.exec_block(flow, &block[stage.range()], ret_target, false, depth);
                if flow.parts.is_empty() {
                    return;
                }
            }
        }
    }

    /// Runs one parallel stage: each of its slices (cut when the block was
    /// planned) is analyzed from the shared pre-state by a scratch iterator,
    /// and the slice deltas are overlaid in slice order. Returns `false`
    /// (leaving the flow untouched) when the stage must be replayed
    /// sequentially instead.
    fn exec_stage_parallel(
        &mut self,
        flow: &mut Flow,
        block: &Block,
        slices: &[Slice],
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> bool {
        let pre = flow.parts[0].clone();
        let this: &Iter<'a> = self;
        let config = self.config;

        // Each worker runs under `catch_unwind`: a panicking slice must not
        // take down the analysis, it only forces the sequential replay below
        // (which is safe — nothing of the stage has been committed yet).
        // `AssertUnwindSafe` is sound here because a panicked slice's entire
        // result is discarded and the captured state is read-only.
        let worker = |wid: usize, ci: usize, slice: &Slice| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if config.debug_panic_slice == Some(ci) {
                    panic!("injected slice fault (debug_panic_slice)");
                }
                let t0 = Instant::now();
                let mut w = this.scratch();
                w.mode = this.mode;
                let mut wf = Flow::new(pre.clone());
                w.exec_block(&mut wf, &block[slice.range.clone()], ret_target, false, depth);
                let post = if wf.parts.len() == 1 { Some(wf.parts.pop().unwrap()) } else { None };
                SliceOut {
                    post,
                    returned: wf.returned,
                    sink: w.sink,
                    stats: w.stats,
                    oct_useful: w.oct_useful,
                    worker: wid,
                    wall: t0.elapsed(),
                    pmap_stats: astree_pmap::take_stats(),
                }
            }))
            .ok()
        };
        let results = scatter(config.jobs, slices, worker);
        let counters = &mut self.pool_counters;
        counters.tasks += slices.len() as u64;
        counters.max_queue_depth = counters.max_queue_depth.max(slices.len() as u64);
        for r in results.iter().flatten() {
            counters.busy_nanos[r.worker] += r.wall.as_nanos() as u64;
        }

        if results.iter().any(|r| r.is_none()) {
            if self.rec_on {
                self.rec.record(&Event::Fallback { reason: "worker_panic" });
            }
            return false;
        }
        let results: Vec<SliceOut> =
            results.into_iter().map(|r| r.expect("checked above")).collect();

        // Any slice that went to bottom, split into partitions, or produced a
        // return state falls outside the overlay model: replay sequentially.
        if results.iter().any(|r| r.post.is_none() || !r.returned.is_bottom()) {
            if self.rec_on {
                self.rec.record(&Event::Fallback { reason: "slice_shape" });
            }
            return false;
        }

        let stage_no = self.stats.par_stages + 1;
        if self.rec_on {
            for (ci, r) in results.iter().enumerate() {
                self.rec.record(&Event::Slice(SliceEvent {
                    stage: stage_no,
                    index: ci,
                    stmts: slices[ci].range.len(),
                    nanos: r.wall.as_nanos() as u64,
                }));
            }
        }
        let t_merge = self.rec_on.then(Instant::now);
        let mut merged = pre.clone();
        for (ci, out) in results.into_iter().enumerate() {
            let post = out.post.expect("checked above");
            merged.overlay_from(&pre, &post, &slices[ci].effects, self.layout, self.packs);
            self.sink.absorb(out.sink);
            self.stats.merge_worker(out.stats);
            for (pi, n) in out.oct_useful.into_iter().enumerate() {
                self.oct_useful[pi] += n;
            }
            self.pmap_worker_stats.add(&out.pmap_stats);
        }
        if let Some(t0) = t_merge {
            let nanos = t0.elapsed().as_nanos() as u64;
            self.rec.record(&Event::Merge { stage: stage_no, slices: slices.len(), nanos });
        }
        self.stats.par_stages += 1;
        self.stats.par_slices += slices.len() as u64;
        flow.parts[0] = merged;
        true
    }
}
