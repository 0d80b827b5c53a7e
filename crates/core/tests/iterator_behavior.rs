//! Behavioural tests of the iterator: calls, returns, nested loops,
//! partitions, assumptions, shrunk arrays, perturbation — the machinery of
//! paper Sect. 5.3–5.5 beyond the headline domains.

use astree_core::{AlarmKind, AnalysisConfig, AnalysisSession};
use astree_frontend::Frontend;

fn analyze(src: &str) -> astree_core::AnalysisResult {
    let p = Frontend::new().compile_str(src).expect("compiles");
    AnalysisSession::builder(&p).build().run()
}

fn analyze_with(src: &str, cfg: AnalysisConfig) -> astree_core::AnalysisResult {
    let p = Frontend::new().compile_str(src).expect("compiles");
    AnalysisSession::builder(&p).config(cfg).build().run()
}

#[test]
fn multiple_returns_join() {
    let r = analyze(
        r#"
        volatile int in; int out;
        int sign(int v) {
            if (v > 0) { return 1; }
            if (v < 0) { return -1; }
            return 0;
        }
        void main(void) {
            __astree_input_int(in, -1000, 1000);
            out = sign(in);
            out = 100 / (out + 2);  /* out ∈ [-1,1]: divisor ∈ [1,3] */
        }
    "#,
    );
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
}

#[test]
fn return_inside_loop_is_sound() {
    let r = analyze(
        r#"
        volatile int in; int out;
        int find(void) {
            int i;
            for (i = 0; i < 10; i++) {
                if (i == in) { return i; }
            }
            return -1;
        }
        void main(void) {
            __astree_input_int(in, 0, 5);
            out = find();      /* out ∈ [-1, 9] */
            out = out + 1;     /* no overflow */
        }
    "#,
    );
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
}

#[test]
fn nested_loops_converge() {
    let r = analyze(
        r#"
        int mat[8][8]; int i; int j; int sum;
        void main(void) {
            for (i = 0; i < 8; i++) {
                for (j = 0; j < 8; j++) {
                    mat[i][j] = i * 8 + j;
                }
            }
            sum = mat[3][4];
        }
    "#,
    );
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
}

#[test]
fn contradictory_assume_kills_path() {
    let r = analyze(
        r#"
        int x;
        void main(void) {
            x = 1;
            if (x == 2) {
                x = 1 / 0;   /* dead: guard is definitely false */
            }
        }
    "#,
    );
    assert!(r.alarms.is_empty(), "dead code must not alarm: {:?}", r.alarms);
}

#[test]
fn assume_narrows_like_a_guard() {
    let r = analyze(
        r#"
        volatile int in; int x;
        void main(void) {
            __astree_input_int(in, -1000000, 1000000);
            x = in;
            __astree_assume(x > 0 && x < 100);
            x = 2000000000 / x;   /* x ∈ [1, 99]: safe */
        }
    "#,
    );
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
}

#[test]
fn shrunk_arrays_stay_sound() {
    // With a tiny shrink threshold the table collapses to one weak cell:
    // reads join all written values, so the range is still provable.
    let src = r#"
        int tbl[64]; int i; int out;
        void main(void) {
            for (i = 0; i < 64; i++) { tbl[i] = i; }
            out = 1000 / (tbl[7] + 1);   /* tbl[*] ∈ [0, 63] ⇒ divisor ≥ 1 */
        }
    "#;
    let mut cfg = AnalysisConfig::default();
    cfg.shrink_threshold = 8;
    let r = analyze_with(src, cfg);
    // The shrunk cell joins 0..63 with the initial 0 — divisor ∈ [1, 64]:
    // still provably non-zero, so no division alarm.
    assert!(!r.alarms.iter().any(|a| a.kind == AlarmKind::DivByZero), "{:?}", r.alarms);
    // But element-precision is gone: an exact-value check would alarm.
    // (Documents the precision/space trade-off of Sect. 6.1.1.)
    assert!(r.stats.cells < 20);
}

#[test]
fn expanded_arrays_are_element_precise() {
    let src = r#"
        int tbl[8]; int out;
        void main(void) {
            int i;
            for (i = 0; i < 8; i++) { tbl[i] = 1; }
            tbl[3] = 0;
            out = 10 / tbl[3];   /* definitely zero: must alarm */
        }
    "#;
    let r = analyze(src);
    assert!(r.alarms.iter().any(|a| a.kind == AlarmKind::DivByZero), "{:?}", r.alarms);
}

#[test]
fn float_perturbation_remains_sound() {
    let src = r#"
        volatile double in;
        double x;
        void main(void) {
            __astree_input_float(in, -1.0, 1.0);
            while (1) {
                x = 0.9 * x + in;
                __astree_wait();
            }
        }
    "#;
    let mut cfg = AnalysisConfig::default();
    cfg.float_perturbation = 1e-6;
    let r = analyze_with(src, cfg);
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    // The perturbed invariant still contains the exact fixpoint |x| ≤ 10.
    let p = Frontend::new().compile_str(src).unwrap();
    let layout = astree_memory::CellLayout::new(&p, &astree_memory::LayoutConfig::default());
    let _ = layout;
}

#[test]
fn partition_cap_folds_exponential_branches() {
    // 8 sequential ifs = 256 paths; the cap keeps analysis bounded.
    let mut body = String::new();
    for i in 0..8 {
        body.push_str(&format!("if (in > {i}) {{ x = x + 1; }} else {{ x = x - 1; }}\n"));
    }
    let src = format!(
        r#"
        volatile int in; int x;
        void step(void) {{ int t; t = in; {body} }}
        void main(void) {{
            __astree_input_int(in, 0, 10);
            while (1) {{ step(); __astree_wait(); }}
        }}
    "#
    );
    let mut cfg = AnalysisConfig::default();
    cfg.partitioned_functions.insert("step".into());
    cfg.max_partitions = 16;
    let p = Frontend::new().compile_str(&src).unwrap();
    let r = AnalysisSession::builder(&p).config(cfg).build().run();
    assert!(r.stats.peak_partitions <= 32, "cap violated: {}", r.stats.peak_partitions);
}

#[test]
fn by_ref_struct_fields() {
    let r = analyze(
        r#"
        struct State { int lo; int hi; };
        struct State s;
        volatile int in;
        int out;
        void widen(struct State *st, int v) {
            if (v < st->lo) { st->lo = v; }
            if (v > st->hi) { st->hi = v; }
        }
        void main(void) {
            __astree_input_int(in, -50, 50);
            s.lo = 0; s.hi = 0;
            widen(&s, in);
            out = s.hi - s.lo;     /* ≤ 100 */
            out = out * 1000000;   /* ≤ 1e8: fits */
        }
    "#,
    );
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
}

#[test]
fn volatile_without_declared_range_uses_type_range() {
    // A volatile int without __astree_input gets the full int range: the
    // division must alarm.
    let r = analyze(
        r#"
        volatile int in; int x;
        void main(void) {
            x = 10 / in;
        }
    "#,
    );
    assert!(r.alarms.iter().any(|a| a.kind == AlarmKind::DivByZero), "{:?}", r.alarms);
}

#[test]
fn checking_replays_deterministically() {
    // Two runs must produce identical alarms (no hidden nondeterminism).
    let src = r#"
        volatile int in; int x; int y;
        void main(void) {
            __astree_input_int(in, -10, 10);
            while (1) {
                x = in;
                if (x != 0) { y = 100 / x; }
                y = y + in;
                __astree_wait();
            }
        }
    "#;
    let a = analyze(src);
    let b = analyze(src);
    assert_eq!(a.alarms, b.alarms);
}

#[test]
fn alarm_lines_point_at_source() {
    let src = "int x; int d;\nvoid main(void) {\n    d = 0;\n    x = 1 / d;\n}\n";
    let r = analyze(src);
    assert_eq!(r.alarms.len(), 1);
    assert_eq!(r.alarms[0].loc.line, 4, "{:?}", r.alarms);
}

/// A widening that jumped is followed by a union: `dout` is computed from
/// the counter, whose bound jumps to the one the clock implies, and settles
/// at what the guard allows instead of climbing the ramp past it (with no
/// grace union left, a widening would round it up to 10¹⁰).
#[test]
fn a_value_computed_from_a_jumped_bound_settles_without_climbing_the_ramp() {
    use astree_domains::IntItv;
    use astree_memory::{CellLayout, CellVal, LayoutConfig};
    let src = r#"
        volatile int ev; int count; int dout;
        void main(void) {
            __astree_input_int(ev, 0, 1);
            while (1) {
                if (ev == 1) { count = count + 1; }
                if (count < 1000) { dout = count * 2000000; }
                __astree_wait();
            }
        }
    "#;
    let p = Frontend::new().compile_str(src).expect("compiles");
    let cfg = AnalysisConfig { stabilization_grace: 0, ..AnalysisConfig::default() };
    let r = AnalysisSession::builder(&p).config(cfg).build().run();
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    let inv = r.main_invariant.expect("a main loop");
    let layout = CellLayout::new(&p, &LayoutConfig::default());
    let value = |name: &str| {
        let (id, _) = layout.iter().find(|(_, info)| info.name == name).expect("a cell");
        match inv.env.get(id, &layout) {
            CellVal::Int(c) => c.val,
            other => panic!("{name}: {other:?}"),
        }
    };
    assert_eq!(value("count"), IntItv::new(0, 3_600_000));
    assert_eq!(value("dout"), IntItv::new(0, 1_998_000_000));
}
