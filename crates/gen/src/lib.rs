//! Generator of the periodic synchronous C program family (paper Sect. 4).
//!
//! The paper's subject programs are proprietary fly-by-wire controllers, so
//! the experiments run on synthetic members of the *same family*: periodic
//! synchronous programs, automatically generated from a block-diagram-style
//! specification, with
//!
//! - the canonical reactive shape (`read inputs; compute; write outputs;
//!   wait for next clock tick`),
//! - a number of global/static state variables linear in the code size,
//! - the idioms each of the paper's abstract domains was built for:
//!   second-order digital filters (ellipsoids), event counters bounded by
//!   the clock (clocked domain), boolean-guarded divisions (decision
//!   trees), rate limiters and difference computations (octagons),
//!   contracting feedback updates (linearization + thresholds), saturators,
//!   interpolation tables (expanded arrays) and shift registers,
//! - generated-code idioms: macros, typedefs, enums, split boolean tests
//!   storing intermediate results in `_Bool` globals.
//!
//! Generated programs are alarm-free by construction (all inputs bounded,
//! divisions guarded, indices clamped) — the analogue of the paper's
//! program "running for 10 years without any run-time error" — unless a
//! [`BugKind`] is injected for soundness experiments.
//!
//! # Examples
//!
//! ```
//! use astree_gen::{generate, GenConfig};
//!
//! let src = generate(&GenConfig { channels: 3, seed: 42, bug: None });
//! assert!(src.contains("__astree_wait"));
//! let program = astree_frontend::Frontend::new().compile_str(&src).unwrap();
//! assert!(program.validate().is_empty());
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// A deliberately injected defect (for soundness experiments: the analyzer
/// must report it, the interpreter must be able to trigger it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugKind {
    /// An unguarded division whose divisor may be zero.
    DivByZero,
    /// An index that can step one past an interpolation table.
    OutOfBounds,
    /// An unguarded accumulator that eventually overflows `int`.
    IntOverflow,
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of processing channels; size scales linearly with this.
    pub channels: usize,
    /// RNG seed (same seed → same program).
    pub seed: u64,
    /// Inject one bug of this kind into the last channel.
    pub bug: Option<BugKind>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { channels: 8, seed: 1, bug: None }
    }
}

/// Structural knobs varying the *shape* of family members beyond channel
/// count — deeper delay lines, wider interpolation tables, different phase
/// periods, and cross-channel coupling. Kept separate from [`GenConfig`] so
/// existing construction sites are untouched; [`generate`] uses the default
/// knobs (the golden digests pin the default output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructKnobs {
    /// Shift-register (delay-line) depth; `HIST` in the emitted source.
    pub hist_depth: usize,
    /// Interpolation-table length; `TBL_SIZE` in the emitted source.
    pub tbl_size: usize,
    /// Modulus of the phase counter gating the output stage.
    pub phase_mod: usize,
    /// Feeds 1% of the previous channel's saturated output into each
    /// integrator, giving the corpus inter-channel dataflow (still
    /// alarm-free: the coupling input is bounded by the saturator).
    pub cross_couple: bool,
}

impl Default for StructKnobs {
    fn default() -> Self {
        StructKnobs { hist_depth: 4, tbl_size: 16, phase_mod: 8, cross_couple: false }
    }
}

/// Random draws for one channel, taken from a per-channel RNG stream so the
/// emitted text for channel `i` does not depend on the member's total channel
/// count (see [`generate_with`]).
struct ChanDraws {
    in_lo: f64,
    in_hi: f64,
    a: f64,
    b: f64,
    k_contract: f64,
    rate_max: f64,
}

/// Approximate generated lines of C per channel (for sizing experiments).
pub const LINES_PER_CHANNEL: usize = 75;

/// Channel count approximating a target size in kLOC.
pub fn channels_for_kloc(kloc: f64) -> usize {
    ((kloc * 1000.0) / LINES_PER_CHANNEL as f64).max(1.0) as usize
}

/// Generates one member of the program family as C source text, with the
/// default structural knobs.
pub fn generate(cfg: &GenConfig) -> String {
    generate_with(cfg, &StructKnobs::default())
}

/// Generates one member of the program family with explicit structural
/// knobs. `generate_with(cfg, &StructKnobs::default())` is byte-identical
/// to [`generate`].
pub fn generate_with(cfg: &GenConfig, knobs: &StructKnobs) -> String {
    let mut out = String::new();
    let w = &mut out;
    let n = cfg.channels.max(1);
    let hist = knobs.hist_depth.max(1);
    let tbl = knobs.tbl_size.max(1);
    let phase_mod = knobs.phase_mod.max(1);

    // One RNG stream per channel, keyed by (seed, channel index) only.
    // Channel i's draws — and therefore its declarations and step function —
    // are byte-identical across members of different channel counts: the
    // members of one seed are one family that differs only in size.
    let draws: Vec<ChanDraws> = (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1),
            );
            let in_lo = -(rng.gen_range(1..=10) as f64);
            let in_hi = rng.gen_range(1..=10) as f64;
            // Stable filter coefficients: 0 < b < 1, a² < 4b.
            let b = 0.4 + 0.4 * rng.gen_range(0.0..1.0_f64);
            let a_max = (4.0 * b).sqrt() * 0.9;
            let a = (rng.gen_range(0.3..1.0_f64) * a_max * 100.0).round() / 100.0;
            let b = (b * 100.0).round() / 100.0;
            let k_contract = (rng.gen_range(0.05..0.4_f64) * 100.0).round() / 100.0;
            let rate_max = rng.gen_range(1..=5) as f64;
            ChanDraws { in_lo, in_hi, a, b, k_contract, rate_max }
        })
        .collect();

    let _ = writeln!(w, "/* generated periodic synchronous controller: {n} channels */");
    let _ = writeln!(w, "#define TBL_SIZE {tbl}");
    let _ = writeln!(w, "#define SAT(v, lo, hi) ((v) > (hi) ? (hi) : ((v) < (lo) ? (lo) : (v)))");
    let _ = writeln!(w, "#define HIST {hist}");
    let _ = writeln!(w, "typedef unsigned char BYTE;");
    let _ = writeln!(w, "enum Mode {{ MODE_OFF, MODE_INIT, MODE_RUN }};");
    let _ = writeln!(w, "struct Range {{ double lo; double hi; }};");
    let _ = writeln!(w);
    // Shared helpers: exercised interprocedurally, including by-reference.
    let _ = writeln!(
        w,
        "double clampf(double v, double lo, double hi) {{\n    if (v < lo) {{ return lo; }}\n    if (v > hi) {{ return hi; }}\n    return v;\n}}"
    );
    let _ = writeln!(
        w,
        "void rate_limit(double *cur, double target, double max_d) {{\n    double d = target - *cur;\n    if (d > max_d) {{ d = max_d; }}\n    if (d < -max_d) {{ d = -max_d; }}\n    *cur = *cur + d;\n}}"
    );
    let _ = writeln!(
        w,
        "void track(struct Range *r, double v) {{\n    if (v < r->lo) {{ r->lo = v; }}\n    if (v > r->hi) {{ r->hi = v; }}\n}}"
    );
    let _ = writeln!(w);

    // Per-channel declarations.
    for (i, d) in draws.iter().enumerate() {
        let ChanDraws { in_lo, in_hi, .. } = *d;
        let _ = writeln!(w, "/* --- channel {i} --- */");
        let _ = writeln!(w, "volatile double in{i};");
        let _ = writeln!(w, "volatile int ev{i};");
        let _ = writeln!(w, "double flt_x{i}; double flt_y{i};");
        let _ = writeln!(w, "double integ{i};");
        let _ = writeln!(w, "double rate{i};");
        let _ = writeln!(w, "int count{i};");
        let _ = writeln!(w, "int drift{i}; int dout{i};");
        let _ = writeln!(w, "_Bool nz{i};");
        let _ = writeln!(w, "double quot{i};");
        let _ = writeln!(w, "static double tbl{i}[TBL_SIZE];");
        let _ = writeln!(w, "double interp{i};");
        let _ = writeln!(w, "BYTE mode{i};");
        let _ = writeln!(w, "double hist{i}[HIST];");
        let _ = writeln!(w, "double avg{i};");
        let _ = writeln!(w, "struct Range range{i};");
        let _ = writeln!(w, "int phase{i};");
        let _ = writeln!(w, "double out{i};");
        let _ = writeln!(w, "/* input range [{in_lo}, {in_hi}] */");
        let _ = writeln!(w);
    }
    let _ = writeln!(w, "_Bool initialized;");
    let _ = writeln!(w);

    // Channel step functions.
    for (i, d) in draws.iter().enumerate() {
        let in_lo = -(1.0 + (i % 7) as f64);
        let in_hi = 1.0 + (i % 5) as f64;
        let in_abs = in_lo.abs().max(in_hi);
        let ChanDraws { a, b, k_contract, rate_max, .. } = *d;
        let _ = writeln!(w, "void step{i}(void) {{");
        // Filter with reinitialization (ellipsoid domain).
        let _ = writeln!(w, "    double x1;");
        let _ = writeln!(w, "    if (mode{i} == MODE_INIT) {{");
        let _ = writeln!(w, "        flt_x{i} = in{i};");
        let _ = writeln!(w, "        flt_y{i} = in{i};");
        let _ = writeln!(w, "        mode{i} = MODE_RUN;");
        let _ = writeln!(w, "    }} else {{");
        let _ = writeln!(w, "        x1 = {a} * flt_x{i} - {b} * flt_y{i} + in{i};");
        let _ = writeln!(w, "        flt_y{i} = flt_x{i};");
        let _ = writeln!(w, "        flt_x{i} = x1;");
        let _ = writeln!(w, "    }}");
        // Contracting integrator (linearization + thresholds).
        let _ = writeln!(w, "    integ{i} = integ{i} - {k_contract} * integ{i} + in{i};");
        if knobs.cross_couple && n > 1 {
            // Bounded inter-channel feedback: the coupled term is the
            // previous channel's saturated output, so contraction still
            // bounds the integrator.
            let prev = (i + n - 1) % n;
            let _ = writeln!(w, "    integ{i} = integ{i} + 0.01 * out{prev};");
        }
        // Rate limiter through a by-reference helper (octagons in callee).
        let _ = writeln!(w, "    rate_limit(&rate{i}, in{i}, {rate_max}.0);");
        let _ = writeln!(w, "    rate{i} = clampf(rate{i}, -100.0, 100.0);");
        // Event counter (clocked domain).
        let _ = writeln!(w, "    if (ev{i} == 1) {{ count{i} = count{i} + 1; }}");
        // Drift monitor: a difference bounded only through its relation to
        // the counter (octagon domain): drift − count ∈ [−1, 0], so under
        // `count < 1000` the product fits int; the interval alone overflows.
        let _ = writeln!(w, "    drift{i} = count{i} - ev{i};");
        let _ = writeln!(w, "    if (count{i} < 1000) {{ dout{i} = drift{i} * 2000000; }}");
        // Boolean-guarded division (decision trees). The generated code
        // stores the test in a boolean first — the split-test idiom the
        // paper attributes to code generators.
        let _ = writeln!(w, "    nz{i} = (_Bool)(count{i} > 0);");
        let _ = writeln!(w, "    if (nz{i}) {{ quot{i} = 1000.0 / (double)count{i}; }}");
        // Interpolation table lookup with clamped index (expanded arrays
        // and octagon-friendly index arithmetic).
        let _ = writeln!(w, "    {{");
        let _ = writeln!(w, "        int idx;");
        let _ = writeln!(w, "        idx = (int)(in{i} * 2.0) + 8;");
        let _ = writeln!(w, "        if (idx < 0) {{ idx = 0; }}");
        let _ = writeln!(w, "        if (idx > TBL_SIZE - 1) {{ idx = TBL_SIZE - 1; }}");
        let _ = writeln!(w, "        interp{i} = tbl{i}[idx];");
        let _ = writeln!(w, "    }}");
        // Shift register (delay line): weak array updates inside a loop.
        let _ = writeln!(w, "    {{");
        let _ = writeln!(w, "        int k;");
        let _ = writeln!(w, "        for (k = HIST - 1; k > 0; k = k - 1) {{");
        let _ = writeln!(w, "            hist{i}[k] = hist{i}[k - 1];");
        let _ = writeln!(w, "        }}");
        let _ = writeln!(w, "        hist{i}[0] = in{i};");
        let sum = (0..hist).map(|k| format!("hist{i}[{k}]")).collect::<Vec<_>>().join(" + ");
        let _ = writeln!(w, "        avg{i} = ({sum}) * {};", 1.0 / hist as f64);
        let _ = writeln!(w, "    }}");
        // Min/max tracker through a by-reference struct parameter.
        let _ = writeln!(w, "    track(&range{i}, rate{i});");
        // Modulo phase counter gating the output stage.
        let _ = writeln!(w, "    phase{i} = (phase{i} + 1) % {phase_mod};");
        // Output mix, saturated.
        let _ = writeln!(w, "    if (phase{i} == 0) {{");
        let _ = writeln!(
            w,
            "        out{i} = SAT(flt_x{i} + integ{i} + rate{i} + avg{i}, -1000.0, 1000.0);"
        );
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);
        let _ = (in_abs, in_lo, in_hi);
    }

    // Injected bug, if requested (into a dedicated function).
    if let Some(bug) = cfg.bug {
        let _ = writeln!(w, "int bug_num; int bug_den; int bug_acc; double bug_out;");
        let _ = writeln!(w, "void buggy(void) {{");
        match bug {
            BugKind::DivByZero => {
                let _ = writeln!(w, "    bug_den = ev0 - 1;          /* may be -1..0 */");
                let _ = writeln!(
                    w,
                    "    bug_num = 100 / (bug_den + 1); /* div by zero when ev0 == 0 */"
                );
            }
            BugKind::OutOfBounds => {
                let _ = writeln!(w, "    {{ int bi; bi = ev0 * TBL_SIZE; bug_out = tbl0[bi]; }} /* bi == 16 when ev0 == 1 */");
            }
            BugKind::IntOverflow => {
                let _ =
                    writeln!(w, "    bug_acc = bug_acc + 1000000; /* unbounded accumulation */");
            }
        }
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);
    }

    // main: init + reactive loop.
    let _ = writeln!(w, "void main(void) {{");
    for i in 0..n {
        let in_lo = -(1.0 + (i % 7) as f64);
        let in_hi = 1.0 + (i % 5) as f64;
        let _ = writeln!(w, "    __astree_input_float(in{i}, {in_lo}, {in_hi});");
        let _ = writeln!(w, "    __astree_input_int(ev{i}, 0, 1);");
    }
    let _ = writeln!(w, "    {{");
    let _ = writeln!(w, "        int k;");
    let _ = writeln!(w, "        for (k = 0; k < TBL_SIZE; k++) {{");
    for i in 0..n {
        let _ = writeln!(w, "            tbl{i}[k] = (double)k * 0.5;");
    }
    let _ = writeln!(w, "        }}");
    let _ = writeln!(w, "    }}");
    for i in 0..n {
        let _ = writeln!(w, "    mode{i} = MODE_INIT;");
    }
    let _ = writeln!(w, "    initialized = 1;");
    let _ = writeln!(w, "    while (1) {{");
    for i in 0..n {
        let _ = writeln!(w, "        step{i}();");
    }
    if cfg.bug.is_some() {
        let _ = writeln!(w, "        buggy();");
    }
    let _ = writeln!(w, "        __astree_wait();");
    let _ = writeln!(w, "    }}");
    let _ = writeln!(w, "}}");
    out
}

/// Counts the physical source lines of a generated program.
pub fn line_count(src: &str) -> usize {
    src.lines().count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use astree_frontend::Frontend;
    use astree_ir::{Interp, InterpConfig, SeededInputs};

    #[test]
    fn generated_source_compiles_and_validates() {
        for channels in [1, 4, 16] {
            let src = generate(&GenConfig { channels, seed: 7, bug: None });
            let p = Frontend::new().compile_str(&src).expect("compiles");
            let errs = p.validate();
            assert!(errs.is_empty(), "{errs:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&GenConfig { channels: 3, seed: 5, bug: None });
        let b = generate(&GenConfig { channels: 3, seed: 5, bug: None });
        let c = generate(&GenConfig { channels: 3, seed: 6, bug: None });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// FNV-1a, as a dependency-free stable digest.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    #[test]
    fn generated_source_is_byte_stable() {
        // Golden digests: the same (channels, seed, bug) must produce a
        // byte-identical program across runs, platforms and refactorings.
        // Downstream results (batch reports, scaling experiments, the
        // parallel-equivalence corpus) are only comparable over time if the
        // inputs are. If a generator change is *intentional*, update the
        // constants below in the same commit.
        let cases: [(usize, u64, Option<BugKind>, u64); 4] = [
            (1, 1, None, 0x1d38b86c2650f293),
            (3, 5, None, 0xd7847f36b5f68ba7),
            (8, 42, None, 0x85765bd1893dc1a8),
            (2, 7, Some(BugKind::DivByZero), 0x094409798f6cff1b),
        ];
        for (channels, seed, bug, want) in cases {
            let src = generate(&GenConfig { channels, seed, bug });
            let got = fnv1a(src.as_bytes());
            assert_eq!(
                got, want,
                "generator output drifted for channels={channels} seed={seed} bug={bug:?}: \
                 digest {got:#018x} (expected {want:#018x})"
            );
        }
    }

    #[test]
    fn default_knobs_match_plain_generate() {
        let cfg = GenConfig { channels: 3, seed: 9, bug: None };
        assert_eq!(generate(&cfg), generate_with(&cfg, &StructKnobs::default()));
    }

    #[test]
    fn knob_variants_compile_and_validate() {
        let variants = [
            StructKnobs { hist_depth: 8, ..StructKnobs::default() },
            StructKnobs { tbl_size: 64, ..StructKnobs::default() },
            StructKnobs { phase_mod: 3, ..StructKnobs::default() },
            StructKnobs { cross_couple: true, ..StructKnobs::default() },
            StructKnobs { hist_depth: 2, tbl_size: 4, phase_mod: 5, cross_couple: true },
        ];
        for knobs in variants {
            let src = generate_with(&GenConfig { channels: 3, seed: 7, bug: None }, &knobs);
            let p =
                Frontend::new().compile_str(&src).unwrap_or_else(|e| panic!("{knobs:?}: {e:?}"));
            let errs = p.validate();
            assert!(errs.is_empty(), "{knobs:?}: {errs:?}");
        }
    }

    #[test]
    fn knob_variants_run_clean() {
        // Structural variants must stay alarm-free by construction: the
        // concrete interpreter sees no errors and no overflow events.
        let knobs = StructKnobs { hist_depth: 6, tbl_size: 32, phase_mod: 5, cross_couple: true };
        let src = generate_with(&GenConfig { channels: 3, seed: 13, bug: None }, &knobs);
        let p = Frontend::new().compile_str(&src).unwrap();
        for seed in 0..10 {
            let mut inputs = SeededInputs::new(seed);
            let mut it = Interp::new(
                &p,
                InterpConfig { max_steps: 10_000_000, max_ticks: 100 },
                &mut inputs,
            );
            it.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(it.events().is_empty(), "seed {seed}: {:?}", it.events());
        }
    }

    #[test]
    fn size_scales_linearly() {
        let small = line_count(&generate(&GenConfig { channels: 2, seed: 1, bug: None }));
        let big = line_count(&generate(&GenConfig { channels: 20, seed: 1, bug: None }));
        let ratio = big as f64 / small as f64;
        assert!(ratio > 5.0, "expected ~10x, got {ratio}");
        // Global/static variables are linear in size too (paper Sect. 4).
        let p = Frontend::new()
            .compile_str(&generate(&GenConfig { channels: 20, seed: 1, bug: None }))
            .unwrap();
        let m = p.metrics();
        assert!(m.globals >= 20 * 10);
    }

    #[test]
    fn channels_for_kloc_inverts_size() {
        let ch = channels_for_kloc(5.0);
        let src = generate(&GenConfig { channels: ch, seed: 1, bug: None });
        let kloc = line_count(&src) as f64 / 1000.0;
        assert!((kloc - 5.0).abs() < 2.0, "asked 5 kLOC, got {kloc}");
    }

    #[test]
    fn clean_program_runs_without_errors() {
        let src = generate(&GenConfig { channels: 3, seed: 11, bug: None });
        let p = Frontend::new().compile_str(&src).unwrap();
        for seed in 0..20 {
            let mut inputs = SeededInputs::new(seed);
            let mut it = Interp::new(
                &p,
                InterpConfig { max_steps: 10_000_000, max_ticks: 200 },
                &mut inputs,
            );
            it.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(it.events().is_empty(), "seed {seed}: {:?}", it.events());
        }
    }

    #[test]
    fn injected_bugs_are_triggerable() {
        let src = generate(&GenConfig { channels: 1, seed: 3, bug: Some(BugKind::DivByZero) });
        let p = Frontend::new().compile_str(&src).unwrap();
        let mut hit = false;
        for seed in 0..50 {
            let mut inputs = SeededInputs::new(seed);
            let mut it =
                Interp::new(&p, InterpConfig { max_steps: 10_000_000, max_ticks: 50 }, &mut inputs);
            if it.run().is_err() {
                hit = true;
                break;
            }
        }
        assert!(hit, "the injected division by zero never fired");
    }

    #[test]
    fn overflow_bug_accumulates() {
        let src = generate(&GenConfig { channels: 1, seed: 3, bug: Some(BugKind::IntOverflow) });
        let p = Frontend::new().compile_str(&src).unwrap();
        let mut inputs = SeededInputs::new(1);
        let mut it =
            Interp::new(&p, InterpConfig { max_steps: 100_000_000, max_ticks: 3000 }, &mut inputs);
        it.run().unwrap();
        assert!(
            it.events().iter().any(|(_, e)| matches!(e, astree_ir::RuntimeEvent::IntOverflow)),
            "accumulator should overflow within 3000 ticks"
        );
    }
}
