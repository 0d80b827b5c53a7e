//! End-to-end tests: each refinement of the paper removes the class of
//! false alarms it was designed for (Sect. 3.1's refinement methodology).

use astree_core::{AlarmKind, AnalysisConfig, AnalysisSession};
use astree_frontend::Frontend;

fn analyze_with(src: &str, cfg: AnalysisConfig) -> astree_core::AnalysisResult {
    let p = Frontend::new().compile_str(src).expect("compiles");
    AnalysisSession::builder(&p).config(cfg).build().run()
}

/// Paper Sect. 6.2.3 / Fig. 1: the second-order digital filter. Intervals
/// alone lose the filter state entirely (false float-overflow alarm); the
/// ellipsoid domain proves it bounded.
#[test]
fn ellipsoid_domain_bounds_filters() {
    let src = r#"
        volatile double in;
        double x; double y;
        _Bool init;
        void main(void) {
            __astree_input_float(in, -1.0, 1.0);
            init = 1;
            while (1) {
                double x1;
                if (init) {
                    x = in;
                    y = in;
                    init = 0;
                } else {
                    x1 = 1.5 * x - 0.7 * y + in;
                    y = x;
                    x = x1;
                }
                __astree_wait();
            }
        }
    "#;
    let with = analyze_with(src, AnalysisConfig::default());
    let overflow_with: Vec<_> =
        with.alarms.iter().filter(|a| a.kind == AlarmKind::FloatOverflow).collect();
    assert!(overflow_with.is_empty(), "ellipsoids should bound the filter: {:?}", with.alarms);

    let mut no_ell = AnalysisConfig::default();
    no_ell.enable_ellipsoids = false;
    let without = analyze_with(src, no_ell);
    assert!(
        without.alarms.iter().any(|a| a.kind == AlarmKind::FloatOverflow),
        "without ellipsoids the filter diverges: {:?}",
        without.alarms
    );
}

/// Paper Sect. 6.2.4: booleans carrying numeric facts. `B := (X == 0);
/// if (!B) Y := 1/X` divides only when `X ≠ 0`.
#[test]
fn decision_trees_relate_booleans_to_numerics() {
    let src = r#"
        volatile int in;
        _Bool b; int x; int y;
        void main(void) {
            __astree_input_int(in, 0, 100);
            while (1) {
                x = in;
                b = (_Bool)(x == 0);
                if (!b) { y = 1000 / x; }
                __astree_wait();
            }
        }
    "#;
    let with = analyze_with(src, AnalysisConfig::default());
    assert!(
        !with.alarms.iter().any(|a| a.kind == AlarmKind::DivByZero),
        "decision trees should prove the division safe: {:?}",
        with.alarms
    );

    let mut no_dt = AnalysisConfig::default();
    no_dt.enable_dtrees = false;
    let without = analyze_with(src, no_dt);
    assert!(
        without.alarms.iter().any(|a| a.kind == AlarmKind::DivByZero),
        "without decision trees the boolean fact is lost: {:?}",
        without.alarms
    );
}

/// Paper Sect. 6.3: linearization. `X := X − 0.2·X + in` contracts, but
/// naive interval evaluation inflates it every iteration.
#[test]
fn linearization_stabilizes_contracting_updates() {
    let src = r#"
        volatile double in;
        double x;
        void main(void) {
            __astree_input_float(in, -1.0, 1.0);
            x = 0.0;
            while (1) {
                x = x - 0.2 * x + in;
                __astree_wait();
            }
        }
    "#;
    let with = analyze_with(src, AnalysisConfig::default());
    assert!(
        !with.alarms.iter().any(|a| a.kind == AlarmKind::FloatOverflow),
        "linearization should stabilize the update: {:?}",
        with.alarms
    );

    let mut no_lin = AnalysisConfig::default();
    no_lin.enable_linearization = false;
    let without = analyze_with(src, no_lin);
    assert!(
        without.alarms.iter().any(|a| a.kind == AlarmKind::FloatOverflow),
        "naive interval evaluation should diverge: {:?}",
        without.alarms
    );
}

/// Paper Sect. 6.2.2: the octagon fragment. `R := X − Z; L := X;
/// if (R > V) L := Z + V;` implies `L ≤ X`, needed to keep later
/// arithmetic on `L` in range.
#[test]
fn octagons_recover_variable_differences() {
    let src = r#"
        volatile int xin; volatile int zin; volatile int vin;
        int x; int z; int v; int r; int l; int out;
        void main(void) {
            __astree_input_int(xin, 0, 1000);
            __astree_input_int(zin, 0, 10);
            __astree_input_int(vin, 0, 1000);
            while (1) {
                x = xin; z = zin; v = vin;
                r = x - z;
                if (x < 100) {
                    /* octagon: r − x ≤ 0 and r − x ≥ −10, so here
                       −10 ≤ r ≤ 99; the interval for r alone is [−10, 1000],
                       and 1000 · 2200000 overflows int. */
                    out = r * 2200000;
                }
                __astree_wait();
            }
        }
    "#;
    let with = analyze_with(src, AnalysisConfig::default());
    let overflow_with = with.alarms.iter().filter(|a| a.kind == AlarmKind::IntOverflow).count();
    assert_eq!(overflow_with, 0, "octagons should bound r by x: {:?}", with.alarms);

    let mut no_oct = AnalysisConfig::default();
    no_oct.enable_octagons = false;
    let without = analyze_with(src, no_oct);
    assert!(
        without.alarms.iter().any(|a| a.kind == AlarmKind::IntOverflow),
        "without octagons r keeps its interval bound 1000: {:?}",
        without.alarms
    );
}

/// Paper Sect. 7.1.2: widening thresholds bound `X := α·X + β` updates.
#[test]
fn thresholds_bound_affine_updates() {
    let src = r#"
        volatile double in;
        double x;
        int out;
        void main(void) {
            __astree_input_float(in, -5.0, 5.0);
            x = 0.0;
            while (1) {
                x = 0.5 * x + in;        /* |x| <= 10 is invariant */
                out = (int)(x * 1000.0); /* fits iff the bound is tight */
                __astree_wait();
            }
        }
    "#;
    let with = analyze_with(src, AnalysisConfig::default());
    assert!(
        !with.alarms.iter().any(|a| a.kind == AlarmKind::InvalidCast),
        "thresholds should find a stable bound: {:?}",
        with.alarms
    );

    // Without thresholds, widening overshoots to a huge bound; narrowing
    // recovers a finite but loose bound, and the cast still alarms
    // (the "many false alarms for overflow" of Sect. 7.1.2).
    let mut no_thresholds = AnalysisConfig::default();
    no_thresholds.thresholds = astree_domains::Thresholds::none();
    let p = Frontend::new().compile_str(src).expect("compiles");
    let collector = astree_obs::Collector::new();
    let without =
        AnalysisSession::builder(&p).config(no_thresholds).recorder(&collector).build().run();
    assert!(
        without.alarms.iter().any(|a| a.kind == AlarmKind::InvalidCast),
        "plain widening leaves a loose bound and the cast alarms: {:?}",
        without.alarms
    );
    // The overshoot escapes to ±∞, so the solve still narrows.
    let m = collector.snapshot();
    let narrowings: u64 =
        m.functions.values().flat_map(|f| f.loops.values()).map(|l| l.narrowings).sum();
    assert!(narrowings > 0, "the overshooting loop must narrow");
}

/// Paper Sect. 6.2.1: the clocked domain bounds event counters by the
/// maximal operating time.
#[test]
fn clocked_domain_bounds_event_counters() {
    let src = r#"
        volatile int ev;
        int count;
        void main(void) {
            __astree_input_int(ev, 0, 1);
            count = 0;
            while (1) {
                if (ev == 1) { count = count + 1; }
                __astree_wait();
            }
        }
    "#;
    let with = analyze_with(src, AnalysisConfig::default());
    assert!(with.alarms.is_empty(), "clock bounds the counter: {:?}", with.alarms);

    let mut no_clock = AnalysisConfig::default();
    no_clock.enable_clocked = false;
    let without = analyze_with(src, no_clock);
    assert!(
        without.alarms.iter().any(|a| a.kind == AlarmKind::IntOverflow),
        "without the clocked domain the counter may overflow: {:?}",
        without.alarms
    );
}

/// The full stack proves a representative reactive program entirely clean,
/// and each alarm the interpreter can actually trigger is reported.
#[test]
fn array_bounds_and_shrunk_tables() {
    let src = r#"
        volatile int idx;
        int table[16];
        int big[1000];
        int out;
        void main(void) {
            int i;
            __astree_input_int(idx, 0, 15);
            for (i = 0; i < 16; i++) { table[i] = i * 3; }
            while (1) {
                out = table[idx];
                big[idx] = out;
                __astree_wait();
            }
        }
    "#;
    let r = analyze_with(src, AnalysisConfig::default());
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);

    // Widening the input range beyond the bounds must alarm.
    let src_bad = src.replace("__astree_input_int(idx, 0, 15)", "__astree_input_int(idx, 0, 16)");
    let r = analyze_with(&src_bad, AnalysisConfig::default());
    assert!(r.alarms.iter().any(|a| a.kind == AlarmKind::OutOfBounds), "{:?}", r.alarms);
}

/// Function inlining: context-sensitive analysis of helpers, including
/// by-reference outputs.
#[test]
fn interprocedural_precision() {
    let src = r#"
        volatile int in;
        int out;
        int clamp(int v, int lo, int hi) {
            if (v < lo) { return lo; }
            if (v > hi) { return hi; }
            return v;
        }
        void scale(int *r, int k) { *r = *r * k; }
        void main(void) {
            __astree_input_int(in, -1000000, 1000000);
            while (1) {
                out = clamp(in, -100, 100);
                scale(&out, 1000);       /* |out| <= 100000: fits */
                __astree_wait();
            }
        }
    "#;
    let r = analyze_with(src, AnalysisConfig::default());
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
}

/// Trace partitioning (Sect. 7.1.5): correlated branches need delayed
/// merging.
#[test]
fn trace_partitioning_keeps_branch_correlation() {
    let src = r#"
        volatile int in;
        int mode; int d; int out;
        void step(int t) {
            if (t > 0) { mode = 1; d = t; } else { mode = 0; d = 0; }
            if (mode == 1) { out = 1000 / d; }
        }
        void main(void) {
            __astree_input_int(in, -100, 100);
            while (1) {
                step(in);
                __astree_wait();
            }
        }
    "#;
    // Isolate partitioning: decision trees don't apply (mode is an int) and
    // octagons are disabled (they, too, can relate mode and d here).
    let mut with = AnalysisConfig::default();
    with.partitioned_functions.insert("step".to_string());
    with.enable_dtrees = false;
    with.enable_octagons = false;
    let r = analyze_with(src, with);
    assert!(
        !r.alarms.iter().any(|a| a.kind == AlarmKind::DivByZero),
        "partitioning keeps the correlation: {:?}",
        r.alarms
    );

    let mut without = AnalysisConfig::default();
    without.enable_dtrees = false;
    without.enable_octagons = false;
    let r = analyze_with(src, without);
    assert!(
        r.alarms.iter().any(|a| a.kind == AlarmKind::DivByZero),
        "merged branches lose the correlation: {:?}",
        r.alarms
    );
}

/// Paper Sect. 7.1.3: delayed widening lets exactly-stabilizing values be
/// found before widening overshoots to a threshold.
#[test]
fn delayed_widening_preserves_exact_bounds() {
    let src = r#"
        volatile int in;
        int x; int y; int tbl[14]; int out;
        void main(void) {
            __astree_input_int(in, 0, 3);
            while (1) {
                out = tbl[y + 6];       /* safe iff y <= 7 exactly */
                x = y + in;
                if (x > 7) { x = 7; }
                y = x;
                __astree_wait();
            }
        }
    "#;
    let mut immediate = AnalysisConfig::default();
    immediate.widening_delay = 0;
    immediate.stabilization_grace = 0;
    immediate.enable_octagons = false;
    let r = analyze_with(src, immediate);
    assert!(
        r.alarms.iter().any(|a| a.kind == AlarmKind::OutOfBounds),
        "immediate widening should overshoot: {:?}",
        r.alarms
    );

    let mut delayed = AnalysisConfig::default();
    delayed.enable_octagons = false;
    let r = analyze_with(src, delayed);
    assert!(r.alarms.is_empty(), "delayed widening finds the exact bound: {:?}", r.alarms);
}
