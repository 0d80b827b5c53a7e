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
fn only_the_loop_dispatch_is_sliced() {
    // Eight independent assignments before the loop would make a parallel
    // stage, and so would the branch block inside it: neither is sliced.
    // Only the loop body's own two-statement stage is, every time it runs.
    let src = r#"
        double a0; double a1; double a2; double a3;
        double b0; double b1; double b2; double b3;
        int mode;
        void main(void) {
            a0 = 1.0; a1 = 2.0; a2 = 3.0; a3 = 4.0;
            b0 = 1.0; b1 = 2.0; b2 = 3.0; b3 = 4.0;
            while (1) {
                if (mode > 0) {
                    a0 = a0 * 0.5 + 1.0; a1 = a1 * 0.5 + 2.0;
                    a2 = a2 * 0.5 + 3.0; a3 = a3 * 0.5 + 4.0;
                }
                b0 = b0 * 0.5 - 1.0;
                __astree_wait();
            }
        }
    "#;
    let seq = run_with_jobs(src, 1);
    let par = run_with_jobs(src, 4);
    assert_equivalent("loop-dispatch-only", &seq, &par, 4);
    assert!(par.stats.parallel_stages > 0, "the loop body's `if` and assignment share a stage");
    assert_eq!(
        par.stats.parallel_slices,
        2 * par.stats.parallel_stages,
        "every sliced stage is the loop body's two statements"
    );
}

#[test]
fn slice_counts_are_a_function_of_program_and_jobs() {
    let src = generate(&GenConfig { channels: 6, seed: 42, bug: None });
    let (a, b) = (run_with_jobs(&src, 4), run_with_jobs(&src, 4));
    assert!(a.stats.parallel_slices > 0);
    assert_eq!(a.stats.parallel_stages, b.stats.parallel_stages);
    assert_eq!(a.stats.parallel_slices, b.stats.parallel_slices);
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
