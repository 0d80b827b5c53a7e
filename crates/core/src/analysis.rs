//! The public analysis entry point: [`AnalysisSession`], a builder-style
//! session coupling a program with a configuration, an optional telemetry
//! recorder, an optional invariant store and intra-analysis parallelism —
//! all orthogonal options behind one `run()`.

use crate::alarms::Alarm;
use crate::cache::{FullHit, InvariantStore, StoreKey};
use crate::census::Census;
use crate::config::AnalysisConfig;
use crate::iterator::Iter;
use crate::packs::Packs;
use crate::state::AbsState;
use astree_ir::{Program, StmtId};
use astree_memory::{CellLayout, LayoutConfig};
use astree_obs::{CacheCounters, Event, FrameCounters, PremiseCounters, Recorder, NULL};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregated statistics of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Wall time of the invariant-generation phase. On a store hit this
    /// is the *stored cold-run* time, so throughput comparisons stay
    /// meaningful; the hit's own cost is in [`AnalysisStats::time_replay`].
    pub time_iterate: Duration,
    /// Wall time of the checking phase (stored cold-run time on a hit).
    pub time_check: Duration,
    /// Wall time of a store hit, its checking pass included (zero on cold
    /// runs).
    pub time_replay: Duration,
    /// Number of abstract cells after array expansion/shrinking.
    pub cells: usize,
    /// Octagon packs used.
    pub octagon_packs: usize,
    /// Octagon packs that actually improved the analysis (Sect. 7.2.2).
    pub useful_octagon_packs: Vec<usize>,
    /// Decision-tree packs used.
    pub dtree_packs: usize,
    /// Ellipsoid filter instances detected.
    pub ellipse_packs: usize,
    /// Total widening/union loop iterations.
    pub loop_iterations: u64,
    /// Total abstract statement interpretations.
    pub stmts_interpreted: u64,
    /// Peak trace partitions.
    pub peak_partitions: usize,
    /// A proxy for analyzer memory: the cells of the main-loop invariant,
    /// the one invariant the analysis keeps.
    pub invariant_cells: usize,
    /// Statement stages executed by parallel slicing (0 when `jobs` is 1).
    pub parallel_stages: u64,
    /// Total worker slices run across all parallel stages.
    pub parallel_slices: u64,
    /// Loops solved by fixpoint iteration in *this* run.
    pub loops_solved: u64,
    /// Loops the checking pass solved in context: every visit to a loop
    /// other than the main one (the checking pass is handed the main loop's
    /// invariant only).
    pub loops_rechecked: u64,
    /// The invariants the checking pass tested against
    /// [`crate::solve::premise`], and those that failed (0 unless the
    /// analyzer has a bug; nothing is proven then).
    pub premise: PremiseCounters,
    /// The loops whose invariant failed, as (function, loop id), in order.
    pub premise_loops: Vec<(String, u32)>,
    /// Threshold-free widenings the iteration pass applied past
    /// `max_iterations` (0 unless a loop ran out of its budget).
    pub widen_top: u64,
    /// The loops that ran out of their iteration budget, as (function,
    /// loop id), in order.
    pub budget_loops: Vec<(String, u32)>,
}

impl AnalysisStats {
    /// The report line naming the loops that ran out of their iteration
    /// budget (`max_iterations`, the run's), or `None` when none did.
    pub fn budget_line(&self, max_iterations: u32) -> Option<String> {
        if self.widen_top == 0 {
            return None;
        }
        let loops: Vec<String> =
            self.budget_loops.iter().map(|(f, id)| format!("{f} loop {id}")).collect();
        Some(format!(
            "budget: max_iterations ({max_iterations}) ran out, {} widening(s) without \
             thresholds in {}",
            self.widen_top,
            loops.join(", ")
        ))
    }
}

/// How the invariant store participated in one analysis run.
#[derive(Debug, Clone, Default)]
pub struct CacheReport {
    /// `true` when the session had a store attached.
    pub enabled: bool,
    /// `true` when the stored main invariant was re-proved: the checking
    /// pass ran from it, and the iteration pass did not run.
    pub full_hit: bool,
}

/// The result of an analysis.
#[derive(Debug)]
pub struct AnalysisResult {
    /// All alarms (none, with every premise test passed, means the program
    /// is proven free of run-time errors under the environment assumptions).
    pub alarms: Vec<Alarm>,
    /// Statistics.
    pub stats: AnalysisStats,
    /// Census of the invariant the checking pass used at the report loop
    /// (the main loop, else the first loop anywhere), when there is one.
    pub main_census: Option<Census>,
    /// That invariant.
    pub main_invariant: Option<AbsState>,
    /// Cache participation report.
    pub cache: CacheReport,
    /// Joined abstract state per statement from the Check pass, present only
    /// when [`AnalysisConfig::collect_stmt_invariants`] was set. A statement
    /// absent from the map is claimed unreachable. Consumed by the
    /// differential soundness oracle (`astree-oracle`).
    pub stmt_invariants: Option<HashMap<StmtId, AbsState>>,
}

/// Builder for an [`AnalysisSession`]; see [`AnalysisSession::builder`].
pub struct AnalysisSessionBuilder<'a> {
    program: &'a Program,
    config: AnalysisConfig,
    recorder: &'a dyn Recorder,
    cache: Option<Arc<InvariantStore>>,
    jobs: Option<usize>,
}

impl<'a> AnalysisSessionBuilder<'a> {
    /// Sets the analysis configuration (default: [`AnalysisConfig::default`]).
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a telemetry recorder (default: the no-op recorder).
    pub fn recorder(mut self, rec: &'a dyn Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Attaches an invariant store.
    pub fn cache(mut self, store: Arc<InvariantStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// Sets the intra-analysis worker count (overrides the configuration's
    /// `jobs`, regardless of the `config`/`jobs` call order).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Finalizes the session.
    pub fn build(self) -> AnalysisSession<'a> {
        let mut config = self.config;
        if let Some(jobs) = self.jobs {
            config.jobs = jobs;
        }
        AnalysisSession {
            program: self.program,
            config,
            recorder: self.recorder,
            cache: self.cache,
        }
    }
}

/// An analysis session: one program plus everything orthogonal to it —
/// configuration, telemetry, invariant store, parallelism.
///
/// See the [crate root](crate) for an end-to-end example.
pub struct AnalysisSession<'a> {
    program: &'a Program,
    config: AnalysisConfig,
    recorder: &'a dyn Recorder,
    cache: Option<Arc<InvariantStore>>,
}

impl<'a> AnalysisSession<'a> {
    /// Starts building a session for `program`.
    pub fn builder(program: &'a Program) -> AnalysisSessionBuilder<'a> {
        AnalysisSessionBuilder {
            program,
            config: AnalysisConfig::default(),
            recorder: &NULL,
            cache: None,
            jobs: None,
        }
    }

    /// The effective configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Runs the analysis. On an exact match in the store, the checking pass
    /// re-proves the stored main invariant; when every premise test passes
    /// that is the result, else the file is counted corrupt. Otherwise both
    /// passes run exactly as if no store were attached, and a result whose
    /// premise held is stored.
    pub fn run(&self) -> AnalysisResult {
        let t_start = Instant::now();
        let rec = self.recorder;
        let layout = CellLayout::new(
            self.program,
            &LayoutConfig { shrink_threshold: self.config.shrink_threshold },
        );
        let packs = Packs::discover(self.program, &layout, &self.config);
        let Some(store) = &self.cache else {
            return self.passes(&layout, &packs, None, rec).0;
        };
        let key = StoreKey::new(self.program, &self.config);
        let before = store.counters();
        if let Some(hit) = store.lookup_full(&key, &layout, &packs) {
            // The hit's pass records nothing: a rejected one leaves no trace
            // but the corrupt file.
            let (mut result, _) = self.passes(&layout, &packs, Some(hit), &NULL);
            if result.stats.premise.failed == 0 {
                result.stats.time_replay = t_start.elapsed();
                let replay = result.stats.time_replay.as_nanos() as u64;
                let cold = (result.stats.time_iterate + result.stats.time_check).as_nanos() as u64;
                let run = CacheCounters {
                    full_hits: 1,
                    replay_nanos: replay,
                    saved_nanos: cold.saturating_sub(replay),
                    ..CacheCounters::default()
                };
                if rec.enabled() {
                    rec.record(&Event::Phase { phase: "replay", nanos: replay });
                    rec.record(&Event::Premise(&result.stats.premise));
                }
                report_cache_run(store, rec, run, &before);
                return result;
            }
            store.reject();
        }
        let (result, main) = self.passes(&layout, &packs, None, rec);
        // A result that failed its premise is an analyzer bug: nothing to keep.
        if result.stats.premise.failed == 0 {
            store.update(&key, main.as_ref(), &result.stats);
        }
        let run = CacheCounters {
            misses: 1,
            loops_solved: result.stats.loops_solved,
            ..CacheCounters::default()
        };
        report_cache_run(store, rec, run, &before);
        result
    }

    /// Both passes, or on a `hit` the checking pass alone from its main
    /// invariant, with the hit's stored statistics but for this run's
    /// checking-pass counters. Returns the result and the main loop's
    /// invariant the checking pass was handed.
    fn passes(
        &self,
        layout: &CellLayout,
        packs: &Packs,
        hit: Option<FullHit>,
        rec: &dyn Recorder,
    ) -> (AnalysisResult, Option<AbsState>) {
        // Reset the thread-local fast-path counters so a previous analysis
        // on this thread (with telemetry off) cannot leak into this run.
        let _ = astree_domains::take_saved_closures();
        let _ = astree_pmap::take_stats();
        // Arm (or, for the CI differential, disarm) the pointer shortcuts on
        // the calling thread; worker slices re-arm their own threads from the
        // config. Restored below so concurrent sessions on this thread (e.g.
        // the test harness) are not affected. The flag never changes results
        // — it is excluded from the cache fingerprint.
        let prev_shortcuts = astree_pmap::set_ptr_shortcuts(!self.config.debug_no_ptr_shortcuts);

        let mut iter = Iter::with_recorder(self.program, layout, packs, &self.config, rec);

        let t0 = Instant::now();
        let (main, stored) = match hit {
            Some(hit) => (hit.invariant, Some(hit.stats)),
            None => (iter.iterate().1, None),
        };
        let time_iterate = t0.elapsed();

        let t1 = Instant::now();
        let (_, report) = iter.check(main.as_ref());
        let time_check = t1.elapsed();

        let saved_closures = astree_domains::take_saved_closures();
        let mut pmap = astree_pmap::take_stats();
        pmap.add(&iter.pmap_worker_stats);
        astree_pmap::set_ptr_shortcuts(prev_shortcuts);
        let main_census = report.as_ref().map(|s| Census::of_state(s, layout, packs));
        let it = &mut iter.stats;
        let full_hit = stored.is_some();
        // A hit keeps what only the iteration pass knows.
        let mut stats = stored.unwrap_or_else(|| AnalysisStats {
            time_iterate,
            time_check,
            cells: layout.num_cells(),
            octagon_packs: packs.octagons.len(),
            useful_octagon_packs: (iter.oct_useful.iter().enumerate())
                .filter_map(|(i, n)| (*n > 0).then_some(i))
                .collect(),
            dtree_packs: packs.dtrees.len(),
            ellipse_packs: packs.ellipses.len(),
            loop_iterations: it.loop_iterations,
            stmts_interpreted: it.stmts_interpreted,
            peak_partitions: it.peak_partitions,
            invariant_cells: report.as_ref().map_or(0, |s| s.env.len()),
            parallel_stages: it.par_stages,
            parallel_slices: it.par_slices,
            loops_solved: it.loops_solved,
            widen_top: it.widen_top,
            budget_loops: std::mem::take(&mut it.budget_loops).into_iter().collect(),
            ..AnalysisStats::default()
        });
        stats.loops_rechecked = it.loops_rechecked;
        stats.premise = it.premise;
        stats.premise_loops = std::mem::take(&mut it.premise_loops).into_iter().collect();
        if rec.enabled() {
            rec.record(&Event::Phase { phase: "iterate", nanos: time_iterate.as_nanos() as u64 });
            rec.record(&Event::Phase { phase: "check", nanos: time_check.as_nanos() as u64 });
            rec.record(&Event::DomainOps {
                domain: "octagon",
                op: "closure_saved",
                count: saved_closures,
                nanos: 0,
            });
            rec.record(&Event::Pmap(&pmap));
            rec.record(&Event::Frames(&FrameCounters {
                cells_per_frame: iter.frames.framed().map(|f| f.cells.len() as u64).collect(),
                packs_per_frame: iter.frames.framed().map(|f| f.packs() as u64).collect(),
                ..iter.stats.frames.clone()
            }));
            let oct_sizes: Vec<usize> = packs.octagons.iter().map(|p| p.cells.len()).collect();
            rec.record(&Event::PackSizes(&oct_sizes));
            // A `--jobs 1` session spawns no threads and has no counters.
            if self.config.jobs > 1 {
                rec.record(&Event::Pool(&iter.pool_counters));
            }
            rec.record(&Event::Premise(&stats.premise));
        }

        let result = AnalysisResult {
            alarms: std::mem::take(&mut iter.sink).into_sorted(),
            stats,
            main_census,
            main_invariant: report,
            cache: CacheReport { enabled: self.cache.is_some(), full_hit },
            stmt_invariants: (self.config.collect_stmt_invariants)
                .then(|| std::mem::take(&mut iter.stmt_invariants)),
        };
        (result, main)
    }
}

/// Folds one run's counters into the store's totals and reports them to the
/// recorder together with the I/O the store did since `before`.
fn report_cache_run(
    store: &InvariantStore,
    rec: &dyn Recorder,
    mut run: CacheCounters,
    before: &CacheCounters,
) {
    let io = store.counters().since(before);
    store.absorb_run(&run);
    run.bytes_read = io.bytes_read;
    run.bytes_written = io.bytes_written;
    run.corrupt_files = io.corrupt_files;
    run.evictions = io.evictions;
    if rec.enabled() {
        rec.record(&Event::Cache(&run));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astree_frontend::Frontend;

    fn analyze(src: &str) -> AnalysisResult {
        let p = Frontend::new().compile_str(src).expect("compiles");
        AnalysisSession::builder(&p).build().run()
    }

    #[test]
    fn clean_straightline_program() {
        let r = analyze("int x; void main(void) { x = 1 + 2; }");
        assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    }

    #[test]
    fn certain_division_by_zero_is_reported() {
        let r = analyze("int x; int d; void main(void) { d = 0; x = 10 / d; }");
        assert_eq!(r.alarms.len(), 1, "{:?}", r.alarms);
        assert_eq!(r.alarms[0].kind, crate::alarms::AlarmKind::DivByZero);
    }

    #[test]
    fn guarded_division_is_clean() {
        let r = analyze(
            r#"
            volatile int in; int x;
            void main(void) {
                __astree_input_int(in, -100, 100);
                int d = in;
                if (d > 0) { x = 10 / d; }
            }
        "#,
        );
        assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    }

    #[test]
    fn guarded_accumulator_is_clean() {
        // An accumulator guarded against growth: intervals + thresholds
        // prove it bounded.
        let r = analyze(
            r#"
            int i; int sum;
            void main(void) {
                sum = 0;
                for (i = 0; i < 100; i++) {
                    if (sum < 10000) { sum = sum + i; }
                }
            }
        "#,
        );
        assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    }

    #[test]
    fn unrolling_proves_small_accumulators() {
        // An unguarded accumulator needs full semantic unrolling
        // (Sect. 7.1.1): with the default factor it alarms, fully unrolled
        // it is proven exact.
        let src = r#"
            int i; int sum;
            void main(void) {
                sum = 0;
                for (i = 0; i < 5; i++) { sum = sum + i; }
            }
        "#;
        let p = Frontend::new().compile_str(src).unwrap();
        let default = AnalysisSession::builder(&p).build().run();
        assert_eq!(default.alarms.len(), 1, "{:?}", default.alarms);
        let mut cfg = AnalysisConfig::default();
        cfg.loop_unroll = 6;
        let unrolled = AnalysisSession::builder(&p).config(cfg).build().run();
        assert!(unrolled.alarms.is_empty(), "{:?}", unrolled.alarms);
    }

    #[test]
    fn reactive_loop_with_inputs() {
        let r = analyze(
            r#"
            volatile int in; int x;
            void main(void) {
                __astree_input_int(in, 0, 10);
                while (1) {
                    x = in;
                    __astree_wait();
                }
            }
        "#,
        );
        assert!(r.alarms.is_empty(), "{:?}", r.alarms);
        assert!(r.main_census.is_some());
    }

    #[test]
    fn unbounded_counter_overflows_without_clock() {
        // A counter incremented every cycle: bounded only thanks to the
        // clocked domain and the max operating time.
        let src = r#"
            int ticks;
            void main(void) {
                ticks = 0;
                while (1) {
                    ticks = ticks + 1;
                    __astree_wait();
                }
            }
        "#;
        let p = Frontend::new().compile_str(src).unwrap();
        let with_clock = AnalysisSession::builder(&p).build().run();
        assert!(with_clock.alarms.is_empty(), "{:?}", with_clock.alarms);
        let mut cfg = AnalysisConfig::default();
        cfg.enable_clocked = false;
        let without = AnalysisSession::builder(&p).config(cfg).build().run();
        assert_eq!(without.alarms.len(), 1, "{:?}", without.alarms);
        assert_eq!(without.alarms[0].kind, crate::alarms::AlarmKind::IntOverflow);
    }

    #[test]
    fn stats_are_populated() {
        let r =
            analyze("int x; int y; void main(void) { x = y + 1; while (x < 10) { x = x + 1; } }");
        assert!(r.stats.cells >= 2);
        assert!(r.stats.loop_iterations > 0);
        assert!(r.stats.stmts_interpreted > 0);
        assert!(r.stats.loops_solved > 0);
        assert!(!r.cache.enabled);
    }

    /// A planted unsound narrowing — the solve of a callee loop drops a
    /// finite bound of its invariant, in both passes — is caught by the
    /// premise test after the loop's alarm pass, and nothing else fails.
    #[test]
    fn an_unsound_narrowing_fails_the_premise_of_its_loop() {
        let src = r#"
            volatile int in; int k; int acc;
            void fill(void) { k = 0; while (k < 100) { acc = in; k = k + 1; } }
            void main(void) {
                __astree_input_int(in, 0, 10);
                while (1) { fill(); __astree_wait(); }
            }
        "#;
        let p = Frontend::new().compile_str(src).unwrap();
        // Not unrolled, the checking pass meets each loop once.
        let mut cfg = AnalysisConfig::default();
        cfg.loop_unroll = 0;
        let clean = AnalysisSession::builder(&p).config(cfg.clone()).build().run();
        assert!(clean.alarms.is_empty(), "{:?}", clean.alarms);
        assert_eq!(clean.stats.premise, PremiseCounters { checked: 2, failed: 0 });
        // `fill`'s loop is the first one lowered: loop 0.
        crate::iterator::UNSOUND_NARROWING.set(Some(0));
        let r = AnalysisSession::builder(&p).config(cfg).build().run();
        crate::iterator::UNSOUND_NARROWING.set(None);
        assert_eq!(r.stats.premise, PremiseCounters { checked: 2, failed: 1 });
        assert_eq!(r.stats.premise_loops, [("fill".to_string(), 0)]);
    }

    #[test]
    fn builder_jobs_overrides_config_in_any_order() {
        let p = Frontend::new().compile_str("int x; void main(void) { x = 1; }").unwrap();
        let s = AnalysisSession::builder(&p).jobs(3).config(AnalysisConfig::default()).build();
        assert_eq!(s.config().jobs, 3);
        let s = AnalysisSession::builder(&p).config(AnalysisConfig::default()).jobs(2).build();
        assert_eq!(s.config().jobs, 2);
    }
}
