//! Whole-pipeline soundness tests: the analyzer's results must cover every
//! behaviour the reference interpreter can exhibit.
//!
//! Two obligations (the contract of paper Sect. 5.4's abstraction):
//!
//! 1. **No missed errors**: if any concrete execution hits a run-time error
//!    (or records a recoverable error event), the analyzer must report an
//!    alarm of the corresponding class.
//! 2. **Invariant containment**: every concrete state observed at the main
//!    loop head lies inside the analyzer's loop invariant.

use astree::core::{AlarmKind, AnalysisConfig, AnalysisSession};
use astree::frontend::Frontend;
use astree::gen::{generate, BugKind, GenConfig};
use astree::ir::{ExecError, Interp, InterpConfig, RuntimeEvent, SeededInputs};

fn interp_events(
    program: &astree::ir::Program,
    seeds: std::ops::Range<u64>,
    ticks: u64,
) -> (Vec<ExecError>, Vec<RuntimeEvent>) {
    let mut errors = Vec::new();
    let mut events = Vec::new();
    for seed in seeds {
        let mut inputs = SeededInputs::new(seed);
        let mut it = Interp::new(
            program,
            InterpConfig { max_steps: 50_000_000, max_ticks: ticks },
            &mut inputs,
        );
        match it.run() {
            Ok(()) => {}
            Err(e) => errors.push(e),
        }
        events.extend(it.events().iter().map(|(_, e)| *e));
    }
    (errors, events)
}

fn alarm_kinds(result: &astree::core::AnalysisResult) -> Vec<AlarmKind> {
    result.alarms.iter().map(|a| a.kind).collect()
}

#[test]
fn clean_family_members_are_clean_concretely_and_abstractly() {
    for seed in [1u64, 17, 99] {
        let src = generate(&GenConfig { channels: 3, seed, bug: None });
        let p = Frontend::new().compile_str(&src).expect("compiles");
        let result = AnalysisSession::builder(&p).build().run();
        assert!(result.alarms.is_empty(), "seed {seed}: {:?}", result.alarms);
        let (errors, events) = interp_events(&p, 0..10, 150);
        assert!(errors.is_empty(), "seed {seed}: {errors:?}");
        assert!(events.is_empty(), "seed {seed}: {events:?}");
    }
}

#[test]
fn injected_div_by_zero_is_reported_and_real() {
    let src = generate(&GenConfig { channels: 2, seed: 5, bug: Some(BugKind::DivByZero) });
    let p = Frontend::new().compile_str(&src).unwrap();
    let result = AnalysisSession::builder(&p).build().run();
    assert!(alarm_kinds(&result).contains(&AlarmKind::DivByZero), "{:?}", result.alarms);
    let (errors, _) = interp_events(&p, 0..100, 50);
    assert!(
        errors.iter().any(|e| matches!(e, ExecError::DivByZero(_))),
        "no concrete witness in 100 seeds"
    );
}

#[test]
fn injected_oob_is_reported_and_real() {
    let src = generate(&GenConfig { channels: 2, seed: 5, bug: Some(BugKind::OutOfBounds) });
    let p = Frontend::new().compile_str(&src).unwrap();
    let result = AnalysisSession::builder(&p).build().run();
    assert!(alarm_kinds(&result).contains(&AlarmKind::OutOfBounds), "{:?}", result.alarms);
    let (errors, _) = interp_events(&p, 0..100, 50);
    assert!(
        errors.iter().any(|e| matches!(e, ExecError::OutOfBounds(_))),
        "no concrete witness in 100 seeds"
    );
}

#[test]
fn injected_overflow_is_reported_and_real() {
    let src = generate(&GenConfig { channels: 1, seed: 5, bug: Some(BugKind::IntOverflow) });
    let p = Frontend::new().compile_str(&src).unwrap();
    let result = AnalysisSession::builder(&p).build().run();
    assert!(alarm_kinds(&result).contains(&AlarmKind::IntOverflow), "{:?}", result.alarms);
    let (_, events) = interp_events(&p, 0..1, 3000);
    assert!(
        events.iter().any(|e| matches!(e, RuntimeEvent::IntOverflow)),
        "the accumulator should overflow concretely"
    );
}

/// Every concrete value observed at *every executed statement* must lie
/// inside the analyzer's per-statement invariant for the corresponding
/// cell. This test rides the oracle's containment walker (which owns the
/// concrete-to-abstract cell mapping and the per-domain notion of
/// "inside"); the main-loop-head special case the test used to hand-roll
/// is subsumed by the statement-level sweep.
#[test]
fn statement_invariants_contain_concrete_states() {
    use astree::oracle::{analyze_member, run_execution, MemberSpec, OracleConfig};
    let spec = MemberSpec {
        channels: 2,
        gen_seed: 23,
        bug: None,
        knobs: astree::gen::StructKnobs::default(),
    };
    let cfg = OracleConfig::default();
    let am = analyze_member(&spec, &cfg).expect("analyzes");
    for seed in 0..5u64 {
        let rec = run_execution(&am, seed, 60, 50_000_000);
        assert!(rec.states_checked > 0, "seed {seed}: observer never fired");
        assert!(!rec.inconclusive, "seed {seed}: run was inconclusive");
        assert!(
            rec.divergence.is_none(),
            "seed {seed}: concrete state escapes invariant: {:?}",
            rec.divergence
        );
    }
}

/// The clock-aware widening jumps to the configured `max_clock`, not to a
/// constant: with `max_clock = 998`, the main loop's clock and every event
/// counter are bounded by 998, and no alarm appears.
#[test]
fn the_clock_and_its_counters_are_bounded_by_max_clock() {
    use astree::domains::IntItv;
    use astree::memory::{CellLayout, CellVal, LayoutConfig};
    let src = generate(&GenConfig { channels: 2, seed: 1, bug: None });
    let program = Frontend::new().compile_str(&src).expect("compiles");
    let cfg = AnalysisConfig { max_clock: 998, ..AnalysisConfig::default() };
    let layout =
        CellLayout::new(&program, &LayoutConfig { shrink_threshold: cfg.shrink_threshold });
    let r = AnalysisSession::builder(&program).config(cfg).build().run();
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    let inv = r.main_invariant.expect("a main loop");
    assert!(inv.to_string().starts_with("clock = [1, 998]\n"), "{inv}");
    let counters: Vec<IntItv> = layout
        .iter()
        .filter(|(_, info)| info.name.starts_with("count"))
        .map(|(id, _)| match inv.env.get(id, &layout) {
            CellVal::Int(c) => c.val,
            other => panic!("counter {other:?}"),
        })
        .collect();
    assert_eq!(counters, vec![IntItv::new(0, 998); 2]);
}

/// Disabling each domain must never *remove* alarms relative to the full
/// stack (monotonicity of refinement: coarser analyses are sound too, so
/// they can only add false alarms).
#[test]
fn coarser_configurations_only_add_alarms() {
    let src = generate(&GenConfig { channels: 3, seed: 31, bug: Some(BugKind::DivByZero) });
    let p = Frontend::new().compile_str(&src).unwrap();
    let full = AnalysisSession::builder(&p).build().run();
    let full_set: std::collections::BTreeSet<_> =
        full.alarms.iter().map(|a| (a.stmt, a.kind)).collect();
    let mut configs: Vec<(&str, AnalysisConfig)> = Vec::new();
    let mut c = AnalysisConfig::default();
    c.enable_octagons = false;
    configs.push(("no-octagons", c));
    let mut c = AnalysisConfig::default();
    c.enable_dtrees = false;
    configs.push(("no-dtrees", c));
    let mut c = AnalysisConfig::default();
    c.enable_ellipsoids = false;
    configs.push(("no-ellipsoids", c));
    let mut c = AnalysisConfig::default();
    c.enable_linearization = false;
    configs.push(("no-linearization", c));
    configs.push(("baseline", AnalysisConfig::baseline()));
    for (name, cfg) in configs {
        let r = AnalysisSession::builder(&p).config(cfg).build().run();
        let set: std::collections::BTreeSet<_> =
            r.alarms.iter().map(|a| (a.stmt, a.kind)).collect();
        assert!(
            full_set.is_subset(&set),
            "{name}: lost alarms {:?}",
            full_set.difference(&set).collect::<Vec<_>>()
        );
    }
}

/// Hand-written shapes the generator never writes: a `return` inside a
/// loop, inside a nested loop, and with a value. The return leaves the
/// function; folded into the loop's next iterate instead, it would be
/// overwritten by the code after the loop and the division would go
/// unreported. The same sources drive the CI smoke step that checks
/// `astree run` against `analyze`.
const RETURN_IN_LOOP: [(&str, &str); 3] = [
    ("return_in_loop", include_str!("shapes/return_in_loop.c")),
    ("return_value_in_loop", include_str!("shapes/return_value_in_loop.c")),
    ("return_in_nested_loop", include_str!("shapes/return_in_nested_loop.c")),
];

#[test]
fn a_return_inside_a_loop_reaches_its_function() {
    for (name, src) in RETURN_IN_LOOP {
        let p = Frontend::new().compile_str(src).expect("compiles");
        let errors: Vec<ExecError> = (1..=20)
            .filter_map(|seed| {
                let mut inputs = SeededInputs::new(seed);
                let config = InterpConfig { max_steps: 1_000_000, max_ticks: 10 };
                let err = Interp::new(&p, config, &mut inputs).run().err();
                err
            })
            .collect();
        assert!(!errors.is_empty(), "{name}: no seed in 1..=20 errs");
        for (unroll, jobs) in [(0, 1), (0, 4), (3, 1), (3, 4)] {
            let mut config = AnalysisConfig::default();
            config.loop_unroll = unroll;
            config.jobs = jobs;
            let alarms = AnalysisSession::builder(&p).config(config).build().run().alarms;
            for e in &errors {
                let ExecError::DivByZero(s) = e else { panic!("{name}: {e}") };
                assert!(
                    alarms.iter().any(|a| a.stmt == *s && a.kind == AlarmKind::DivByZero),
                    "{name}, unroll {unroll}, jobs {jobs}: {e} unreported: {alarms:?}"
                );
            }
        }
    }
}
