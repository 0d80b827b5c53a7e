//! Determinism of the parallel analysis (Monniaux's partition-and-join
//! scheme): for every program of the family and every worker count, the
//! parallel analyzer must produce **bit-identical** results to the
//! sequential one — the same alarm list (order included) and the same main
//! loop invariant.

use astree::core::{AnalysisConfig, AnalysisResult, AnalysisSession};
use astree::fleet::{FleetSession, JobSpec, JobStatus};
use astree::frontend::Frontend;
use astree::gen::{generate, BugKind, GenConfig};
use std::time::Duration;

fn run_with_jobs(src: &str, jobs: usize) -> AnalysisResult {
    let p = Frontend::new().compile_str(src).expect("compiles");
    let mut cfg = AnalysisConfig::default();
    cfg.jobs = jobs;
    AnalysisSession::builder(&p).config(cfg).build().run()
}

/// Asserts bit-identical observables between a sequential and a parallel
/// run: alarm lists compare by full value (statement, location, kind,
/// context, order), invariants both by their assertion census and by their
/// rendered text — every bound byte-identical, signed zeros included (the
/// joins use total-order min/max, so they are bitwise-commutative).
fn assert_equivalent(name: &str, seq: &AnalysisResult, par: &AnalysisResult, jobs: usize) {
    assert_eq!(seq.alarms, par.alarms, "{name}: alarm list differs between jobs=1 and jobs={jobs}");
    assert_eq!(
        seq.main_census, par.main_census,
        "{name}: main-loop invariant census differs between jobs=1 and jobs={jobs}"
    );
    assert_eq!(
        seq.main_invariant.as_ref().map(|s| s.to_string()),
        par.main_invariant.as_ref().map(|s| s.to_string()),
        "{name}: rendered main-loop invariant differs between jobs=1 and jobs={jobs}"
    );
    assert_eq!(seq.stats.loop_iterations, par.stats.loop_iterations, "{name}: widening schedule");
    assert_eq!(seq.stats.useful_octagon_packs, par.stats.useful_octagon_packs, "{name}");
}

/// A mixed-scale corpus: clean programs of several sizes and seeds, plus one
/// variant per injected bug kind.
fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (channels, seed) in [(1usize, 1u64), (2, 7), (4, 3), (6, 42)] {
        let cfg = GenConfig { channels, seed, bug: None };
        out.push((format!("clean-c{channels}-s{seed}"), generate(&cfg)));
    }
    for (bug, tag) in
        [(BugKind::DivByZero, "div"), (BugKind::OutOfBounds, "oob"), (BugKind::IntOverflow, "ovf")]
    {
        let cfg = GenConfig { channels: 3, seed: 11, bug: Some(bug) };
        out.push((format!("bug-{tag}-c3-s11"), generate(&cfg)));
    }
    out
}

#[test]
fn parallel_analysis_is_bit_identical_to_sequential() {
    let programs = corpus();
    assert!(programs.len() >= 5);
    let mut sliced_somewhere = false;
    for (name, src) in &programs {
        let seq = run_with_jobs(src, 1);
        assert_eq!(seq.stats.parallel_stages, 0, "{name}: sequential run must not slice");
        for jobs in [2usize, 4, 8] {
            let par = run_with_jobs(src, jobs);
            assert_equivalent(name, &seq, &par, jobs);
            sliced_somewhere |= par.stats.parallel_slices > 0;
        }
    }
    // The corpus must actually exercise the parallel path, not just fall
    // back to sequential execution everywhere.
    assert!(sliced_somewhere, "no program in the corpus ran any parallel slice");
}

#[test]
fn parallel_analysis_slices_the_channel_dispatch() {
    // Independent channels make the synchronous loop's dispatch sliceable.
    let src = generate(&GenConfig { channels: 6, seed: 42, bug: None });
    let par = run_with_jobs(&src, 4);
    assert!(
        par.stats.parallel_slices >= 2,
        "expected the 6-channel dispatch to slice, got {} slices over {} stages",
        par.stats.parallel_slices,
        par.stats.parallel_stages
    );
}

#[test]
fn forced_steal_orders_do_not_change_results() {
    // `debug_force_steal` seeds an adversarial initial task placement in the
    // work-stealing pool, so workers must steal to make progress. Whatever
    // the interleaving, the fixed-order overlay merge must keep the result
    // bit-identical — and at least one seed must actually force steals, or
    // this test would pass vacuously.
    use astree::obs::Collector;
    let src = generate(&GenConfig { channels: 6, seed: 42, bug: None });
    let p = Frontend::new().compile_str(&src).expect("compiles");
    let baseline = run_with_jobs(&src, 4);
    assert!(baseline.stats.parallel_slices > 0, "dispatch must slice for this test to bite");

    let mut stole_somewhere = false;
    for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
        let mut cfg = AnalysisConfig::default();
        cfg.jobs = 4;
        cfg.debug_force_steal = Some(seed);
        let c = Collector::new();
        let par = AnalysisSession::builder(&p).config(cfg).recorder(&c).build().run();
        assert_equivalent(&format!("steal-seed-{seed}"), &baseline, &par, 4);
        let pool = c.snapshot().scheduler.pool.expect("pool counters recorded");
        stole_somewhere |= pool.steals > 0;
    }
    assert!(stole_somewhere, "no seed forced a steal — the adversarial placement is inert");
}

#[test]
fn nested_slicing_splits_fat_branches() {
    // A handwritten shape the nested planner targets: the synchronous loop
    // holds one fat `if` whose branch blocks contain independent per-signal
    // chains. Top-level slicing sees a single statement; the nested planner
    // recurses one level and slices the branch block.
    let src = r#"
        double a0; double a1; double a2; double a3;
        double b0; double b1; double b2; double b3;
        int mode;
        void main(void) {
            while (1) {
                if (mode > 0) {
                    a0 = a0 * 0.5 + 1.0; a0 = a0 + 0.25; a0 = a0 * 0.9;
                    a1 = a1 * 0.5 + 2.0; a1 = a1 + 0.25; a1 = a1 * 0.9;
                    a2 = a2 * 0.5 + 3.0; a2 = a2 + 0.25; a2 = a2 * 0.9;
                    a3 = a3 * 0.5 + 4.0; a3 = a3 + 0.25; a3 = a3 * 0.9;
                } else {
                    b0 = b0 * 0.5 - 1.0; b0 = b0 - 0.25; b0 = b0 * 0.9;
                    b1 = b1 * 0.5 - 2.0; b1 = b1 - 0.25; b1 = b1 * 0.9;
                    b2 = b2 * 0.5 - 3.0; b2 = b2 - 0.25; b2 = b2 * 0.9;
                    b3 = b3 * 0.5 - 4.0; b3 = b3 - 0.25; b3 = b3 * 0.9;
                }
                __astree_wait();
            }
        }
    "#;
    let p = Frontend::new().compile_str(src).expect("compiles");
    let run = |nested: bool| {
        let mut cfg = AnalysisConfig::default();
        cfg.jobs = 4;
        cfg.nested_slicing = nested;
        // Every statement is cheap; only the cost-fraction gate would stop
        // nested slicing, so open it fully for this structural test.
        cfg.nested_cost_fraction = 0.0;
        AnalysisSession::builder(&p).config(cfg).build().run()
    };
    let flat = run(false);
    let nested = run(true);
    assert_equivalent("nested-slicing", &flat, &nested, 4);
    assert!(
        nested.stats.parallel_slices > flat.stats.parallel_slices,
        "nested slicing should add branch-block slices (nested={} flat={})",
        nested.stats.parallel_slices,
        flat.stats.parallel_slices
    );
}

#[test]
fn batch_isolates_a_panicking_job() {
    // A worker panic (here: a deliberately poisoned job) must fail that job
    // only; the remaining jobs complete and report normally.
    let mut fleet: Vec<JobSpec> = vec![
        JobSpec::new("clean", generate(&GenConfig { channels: 1, seed: 1, bug: None })),
        JobSpec::new(
            "buggy",
            generate(&GenConfig { channels: 1, seed: 2, bug: Some(BugKind::DivByZero) }),
        ),
    ];
    fleet.insert(1, JobSpec::new("poison", "int x; @!#"));

    let report = FleetSession::builder().jobs(fleet).threads(2).run();
    assert_eq!(report.outcomes.len(), 3);
    assert_eq!(report.outcomes[0].name, "clean");
    assert_eq!(report.outcomes[0].alarms, Some(0), "{:?}", report.outcomes[0]);
    assert_ne!(report.outcomes[1].status, JobStatus::Done);
    assert_eq!(report.outcomes[2].name, "buggy");
    assert!(report.outcomes[2].alarms.unwrap_or(0) >= 1, "{:?}", report.outcomes[2]);
    assert_eq!(report.completed(), 2);
}

#[test]
fn batch_timeout_is_honored() {
    let fleet =
        vec![JobSpec::new("big", generate(&GenConfig { channels: 12, seed: 5, bug: None }))];
    let report = FleetSession::builder().jobs(fleet).timeout(Some(Duration::from_nanos(1))).run();
    assert_eq!(report.outcomes[0].status, JobStatus::TimedOut);
    assert_eq!(report.completed(), 0);
}
