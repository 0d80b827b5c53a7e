//! The single loop routine (`Iter::exec_loop`) under both passes: for every
//! unrolling factor and every loop shape, the checking pass must reproduce
//! the iteration pass's loop exit state, must use the main loop's invariant
//! it was handed, and must report the same alarms sequentially and sliced.

use astree::core::iterator::Iter;
use astree::core::{AbsState, Alarm, AlarmKind, AnalysisConfig, AnalysisSession, Packs};
use astree::frontend::Frontend;
use astree::ir::Program;
use astree::memory::{CellLayout, LayoutConfig};

/// `main` ends at the loop under test, so each pass's final state is that
/// loop's exit state.
const SCENARIOS: [(&str, &str); 4] = [
    (
        "exits-inside-prefix",
        "int i; int x;
         void main(void) { i = 0; x = 0; while (i < 2) { x = x + 3; i = i + 1; } }",
    ),
    (
        "reaches-residual",
        "int i; int x;
         void main(void) {
             i = 0; x = 0;
             while (i < 100) { if (x < 1000) { x = x + 3; } i = i + 1; }
         }",
    ),
    (
        // The inner loop runs under `a == 0` on the first outer iteration
        // and under `a == 100` afterwards: the checking pass solves it in
        // each context. `first` carries the first context's inner exit into
        // the outer loop.
        "inner-under-two-outer-contexts",
        "int i; int j; int a; int b; int first;
         void main(void) {
             a = 0; i = 0; first = 0;
             while (i < 10) {
                 j = 0; b = a;
                 while (j < 5) { b = b + 1; j = j + 1; }
                 if (i == 0) { first = b; }
                 a = 100; i = i + 1;
             }
         }",
    ),
    (
        // One callee loop, two call statements: the second call's invariant
        // hides the first call's division by zero (`v + w` reaches 0 only
        // when `v == 0`), so each call's loop is solved in its own context.
        "callee-loop-from-two-call-sites",
        "volatile int in; int w; int k; int buf;
         void fill(int v) { k = 0; while (k < 4) { buf = 100 / (v + w); k = k + 1; } }
         void main(void) {
             __astree_input_int(in, 0, 1);
             w = in;
             fill(0);
             fill(50);
         }",
    ),
];

fn same(a: &AbsState, b: &AbsState) -> bool {
    // Interval bounds byte for byte (signed zeros included) plus mutual
    // inclusion for the relational components the rendering omits.
    a.to_string() == b.to_string() && a.leq(b) && b.leq(a)
}

/// Runs both passes on one iterator and checks the pass-level contract;
/// returns the checking pass's alarms and its in-context re-solve count.
fn both_passes(name: &str, p: &Program, unroll: u32) -> (Vec<Alarm>, u64) {
    let mut cfg = AnalysisConfig::default();
    cfg.loop_unroll = unroll;
    let layout = CellLayout::new(p, &LayoutConfig { shrink_threshold: cfg.shrink_threshold });
    let packs = Packs::discover(p, &layout, &cfg);
    let mut it = Iter::new(p, &layout, &packs, &cfg);

    let (exit_iterate, main) = it.iterate();
    let (exit_check, used) = it.check(main.as_ref());

    assert!(
        same(&exit_iterate, &exit_check),
        "{name} unroll={unroll}: exit state differs\niterate: {exit_iterate}\ncheck: {exit_check}"
    );
    // With no main loop (the callee scenario) nothing is handed over.
    let used = used.expect("a loop is reached");
    if let Some(main) = main {
        assert!(used.ptr_eq(&main), "{name} unroll={unroll}: the checking pass used another one");
    }
    assert_eq!(it.stats.premise.failed, 0, "{name} unroll={unroll}");
    (std::mem::take(&mut it.sink).into_sorted(), it.stats.loops_rechecked)
}

#[test]
fn check_pass_reproduces_iterate_pass_for_every_unroll_and_shape() {
    for (name, src) in SCENARIOS {
        let p = Frontend::new().compile_str(src).expect("compiles");
        for unroll in [0u32, 1, 3] {
            let (alarms, rechecked) = both_passes(name, &p, unroll);
            for jobs in [1usize, 4] {
                let mut cfg = AnalysisConfig::default();
                cfg.loop_unroll = unroll;
                cfg.jobs = jobs;
                let r = AnalysisSession::builder(&p).config(cfg).build().run();
                assert_eq!(alarms, r.alarms, "{name} unroll={unroll} jobs={jobs}: alarms differ");
                assert_eq!(rechecked, r.stats.loops_rechecked, "{name} unroll={unroll}");
            }
            if name.contains("two") {
                assert!(rechecked >= 1, "{name} unroll={unroll}: no loop solved in context");
            } else {
                assert_eq!(rechecked, 0, "{name} unroll={unroll}: the main loop was re-solved");
            }
            if name == "callee-loop-from-two-call-sites" {
                assert!(
                    alarms.iter().any(|a| a.kind == AlarmKind::DivByZero),
                    "{name} unroll={unroll}: the first call's division by zero was missed"
                );
            }
        }
    }
}
