//! Frames: a top-level call runs on what it can touch (`DESIGN.md`,
//! "Frames").
//!
//! Abstract inlining hands the callee the caller's whole state, so every
//! statement of every `stepK` used to clone, write, join and drop persistent
//! maps over the whole program — a cost proportional to the size of the
//! state, not to the cells that differ (paper Sect. 6.1.2). A *frame* is the
//! part of the state one call statement can read or write, computed once per
//! call statement of the entry function: the syntactic walk the localized
//! loop-done reduction already uses, closed under "a pack holding a frame
//! cell is in the frame with all its members". The iterator projects the
//! arriving state onto the frame, runs the callee on that small state, and
//! writes back what changed.

use crate::packs::Packs;
use crate::parallel::{call_touched_cells, touch_expr, Unbounded};
use astree_ir::stmt::for_each_stmt;
use astree_ir::{Program, StmtId, StmtKind};
use astree_memory::{CellId, CellLayout};
use std::collections::{BTreeSet, HashMap};

/// The part of the state one call statement can touch: cells and pack
/// indices, each ascending.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Frame {
    pub cells: Vec<CellId>,
    pub octs: Vec<u32>,
    pub dtrees: Vec<u32>,
    pub ells: Vec<u32>,
}

impl Frame {
    /// Relational packs in the frame, all kinds together.
    pub fn packs(&self) -> usize {
        self.octs.len() + self.dtrees.len() + self.ells.len()
    }
}

/// What a depth-0 call statement runs on: a frame, or the caller's whole
/// state, for the reason its touched cells are unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FrameChoice {
    Framed(Frame),
    Whole(Unbounded),
}

/// The frame of every call statement the entry function executes at depth 0
/// (anywhere in its body: call statements of callees run inside a frame, or
/// on the caller's state, already). A pure function of program, layout and
/// packs, shared read-only by the main iterator, its slice workers and the
/// checking pass's scratch iterators.
#[derive(Debug, Default)]
pub(crate) struct Frames {
    by_stmt: HashMap<StmtId, FrameChoice>,
}

impl Frames {
    pub fn discover(program: &Program, layout: &CellLayout, packs: &Packs) -> Frames {
        // A filter pack is found through its state cells (`ellipse_index`)
        // and through the temporary its first statement writes: the `δ`
        // update fires on that statement's id even when `X` and `Y` are
        // by-reference parameters substituted away in the body at hand.
        let mut ell_by_tmp: HashMap<CellId, Vec<usize>> = HashMap::new();
        for (pi, p) in packs.ellipses.iter().enumerate() {
            ell_by_tmp.entry(p.tmp).or_default().push(pi);
        }
        let mut by_stmt = HashMap::new();
        for_each_stmt(&program.func(program.entry).body, &mut |s| {
            let StmtKind::Call(ret, callee, args) = &s.kind else { return };
            let choice = match call_touched_cells(program, layout, ret.as_ref(), *callee, args) {
                Err(why) => FrameChoice::Whole(why),
                Ok(touched) => FrameChoice::Framed(close_under_packs(
                    program,
                    layout,
                    packs,
                    &ell_by_tmp,
                    touched,
                )),
            };
            by_stmt.insert(s.id, choice);
        });
        Frames { by_stmt }
    }

    /// What the call statement `id` runs on; `None` for a statement that is
    /// not a call of the entry function.
    pub fn get(&self, id: StmtId) -> Option<&FrameChoice> {
        self.by_stmt.get(&id)
    }

    /// The frames in use, in no particular order.
    pub fn framed(&self) -> impl Iterator<Item = &Frame> {
        self.by_stmt.values().filter_map(|c| match c {
            FrameChoice::Framed(f) => Some(f),
            FrameChoice::Whole(_) => None,
        })
    }
}

/// Closes a touched-cell set to a fixpoint under pack membership: every
/// relational transfer (assignment, guard, localized reduction) reads and
/// writes whole packs, found through the cells it touches, so a pack holding
/// a frame cell belongs to the frame with all its members — and, for a
/// filter, with the cells of its input term, which the `δ` update evaluates.
fn close_under_packs(
    program: &Program,
    layout: &CellLayout,
    packs: &Packs,
    ell_by_tmp: &HashMap<CellId, Vec<usize>>,
    touched: BTreeSet<CellId>,
) -> Frame {
    let mut cells = touched;
    let mut octs = BTreeSet::new();
    let mut dtrees = BTreeSet::new();
    let mut ells = BTreeSet::new();
    let mut work: Vec<CellId> = cells.iter().copied().collect();
    while let Some(c) = work.pop() {
        let mut members: BTreeSet<CellId> = BTreeSet::new();
        for pi in packs.oct_index.get(c) {
            if octs.insert(pi as u32) {
                members.extend(&packs.octagons[pi].cells);
            }
        }
        for pi in packs.dtree_index.get(c) {
            if dtrees.insert(pi as u32) {
                let p = &packs.dtrees[pi];
                members.extend(p.bools.iter().chain(&p.nums));
            }
        }
        let by_tmp = ell_by_tmp.get(&c).into_iter().flatten().copied();
        for pi in packs.ellipse_index.get(c).chain(by_tmp) {
            if ells.insert(pi as u32) {
                let p = &packs.ellipses[pi];
                members.extend([p.x, p.y]);
                if let Some(t) = &p.t {
                    touch_expr(program, layout, t, &mut members);
                }
            }
        }
        for m in members {
            if cells.insert(m) {
                work.push(m);
            }
        }
    }
    Frame {
        cells: cells.into_iter().collect(),
        octs: octs.into_iter().collect(),
        dtrees: dtrees.into_iter().collect(),
        ells: ells.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alarms::Alarm;
    use crate::config::AnalysisConfig;
    use crate::iterator::{Iter, IterStats};
    use crate::state::AbsState;
    use astree_frontend::Frontend;
    use astree_gen::{generate, generate_with, BugKind, GenConfig, StructKnobs};
    use astree_memory::LayoutConfig;
    use astree_obs::FrameCounters;
    use std::sync::Arc;

    /// Everything one run of both passes yields.
    struct Run {
        after_iterate: AbsState,
        after_check: AbsState,
        main: Option<AbsState>,
        /// The invariant the checking pass used at the report loop.
        used: Option<AbsState>,
        alarms: Vec<Alarm>,
        stats: IterStats,
    }

    struct Setup {
        program: Program,
        layout: CellLayout,
        packs: Packs,
        config: AnalysisConfig,
    }

    impl Setup {
        fn new(src: &str, config: AnalysisConfig) -> Setup {
            let program = Frontend::new().compile_str(src).expect("compiles");
            let layout = CellLayout::new(&program, &LayoutConfig::default());
            let packs = Packs::discover(&program, &layout, &config);
            Setup { program, layout, packs, config }
        }

        fn frames(&self) -> Frames {
            Frames::discover(&self.program, &self.layout, &self.packs)
        }

        fn run(&self, frames: Frames, differential: bool) -> Run {
            let mut it = Iter::new(&self.program, &self.layout, &self.packs, &self.config);
            it.frames = Arc::new(frames);
            it.differential = differential;
            let (after_iterate, main) = it.iterate();
            let (after_check, used) = it.check(main.as_ref());
            Run {
                after_iterate,
                after_check,
                main,
                used,
                alarms: std::mem::take(&mut it.sink).into_sorted(),
                stats: it.stats.clone(),
            }
        }
    }

    /// `a` and `b` are the same abstract element: rendered environments and
    /// mutual inclusion (which covers the packs the rendering only counts).
    fn assert_same(a: &AbsState, b: &AbsState, what: &str) {
        assert_eq!(format!("{a}"), format!("{b}"), "{what}");
        assert!(a.leq(b) && b.leq(a), "{what}: packs differ");
    }

    /// The differential: `src` with its frames — each framed
    /// call of the iteration pass is also run on the caller's state and
    /// compared after write-back, and each loop it solves is solved again
    /// with every narrowing cut off — against `src` with no frame at all.
    /// Returns the framed run.
    fn differential(src: &str, config: AnalysisConfig) -> Run {
        let setup = Setup::new(src, config);
        let framed = setup.run(setup.frames(), true);
        let whole = setup.run(Frames::default(), false);
        assert_same(&framed.after_iterate, &whole.after_iterate, "state after the iteration pass");
        assert_same(&framed.after_check, &whole.after_check, "state after the checking pass");
        assert_eq!(framed.alarms, whole.alarms);
        assert_eq!(framed.stats.loop_iterations, whole.stats.loop_iterations);
        assert_eq!(framed.stats.stmts_interpreted, whole.stats.stmts_interpreted);
        // The main loop is at depth 0, never inside a frame.
        assert_eq!(framed.main.is_some(), whole.main.is_some());
        for (f, w) in framed.main.iter().zip(&whole.main) {
            assert_same(f, w, "main loop invariant");
        }
        assert_eq!(whole.stats.frames, FrameCounters::default());
        framed
    }

    fn member(channels: usize, seed: u64, bug: Option<BugKind>) -> String {
        generate(&GenConfig { channels, seed, bug })
    }

    #[test]
    fn framed_family_members_match_the_unframed_analysis() {
        let run = differential(&member(8, 42, None), AnalysisConfig::default());
        assert!(run.stats.frames.calls_framed > 0, "{:?}", run.stats.frames);
        assert!(run.stats.narrowings_cut > 0, "no narrowing pass was cut");
        for bug in [BugKind::DivByZero, BugKind::OutOfBounds, BugKind::IntOverflow] {
            let run = differential(&member(3, 11, Some(bug)), AnalysisConfig::default());
            assert!(run.stats.frames.calls_framed > 0, "{bug:?}: {:?}", run.stats.frames);
            assert!(run.stats.narrowings_cut > 0, "{bug:?}: no narrowing pass was cut");
        }
        // Cross-channel coupling: a frame reaches into the neighbour channel.
        let coupled = StructKnobs { cross_couple: true, ..StructKnobs::default() };
        let src = generate_with(&GenConfig { channels: 5, seed: 9, bug: None }, &coupled);
        assert!(differential(&src, AnalysisConfig::default()).stats.frames.calls_framed > 0);
    }

    /// Loops whose narrowing does refine bounds, so the reference solve of
    /// the differential tells the passes a solve must run from the ones it
    /// may skip: a reset counter whose
    /// `x ± clock` parts alone escape past the ramp (its value and the clock
    /// stay on a rung), and a float whose copy reads the previous iterate,
    /// so the second pass refines what the first could not.
    #[test]
    fn narrowing_passes_that_refine_are_run() {
        let clocked = r#"
            int k;
            void main(void) {
                while (1) {
                    if (k < 5) { k = k + 1; } else { k = 0; }
                    __astree_wait();
                }
            }
        "#;
        let chained = r#"
            double x; double y;
            void main(void) {
                while (1) {
                    y = x;
                    if (x < 5000.0) { x = x + 1.0; } else { x = 0.0; }
                    __astree_wait();
                }
            }
        "#;
        let mut config = AnalysisConfig::default();
        config.thresholds = astree_domains::Thresholds::geometric(1.0, 10.0, 3);
        config.max_clock = 998;
        config.narrowing_iterations = 3;
        for src in [clocked, chained] {
            let run = differential(src, config.clone());
            assert!(run.stats.narrowings_cut > 0, "no narrowing pass was cut");
            let inv = run.main.as_ref().expect("a main loop");
            assert!(!inv.narrowable(), "narrowing left an infinite bound: {inv}");
        }
    }

    #[test]
    fn framed_46_channel_member_matches_the_unframed_analysis() {
        let stats = differential(&member(46, 1, None), AnalysisConfig::default()).stats.frames;
        assert!(stats.calls_framed > 0, "{stats:?}");
    }

    /// By-reference struct and array arguments, two call sites per helper
    /// (so the helpers' loops and packs are reached from different frames),
    /// a dynamic index into a frame array — in range and out of range.
    const BY_REF: &str = r#"
        struct Pt { double x; double y; };
        typedef double Vec4[4];
        struct Pt p0; struct Pt p1;
        Vec4 h0; Vec4 h1;
        double picked; int sum;
        volatile double in; volatile int sel; volatile int far;
        void move(struct Pt *p, double d) {
            double t;
            t = p->x * 0.5 + d;
            if (t > p->y) { p->y = t; }
            p->x = t;
        }
        void shift(Vec4 *h, double v) {
            int k;
            for (k = 3; k > 0; k = k - 1) { (*h)[k] = (*h)[k - 1]; }
            (*h)[0] = v;
        }
        void pick(Vec4 *h, int i) {
            picked = (*h)[i];
            (*h)[i] = 0.0;
        }
        void main(void) {
            __astree_input_float(in, -1, 1);
            __astree_input_int(sel, 0, 3);
            __astree_input_int(far, 2, 5);
            while (1) {
                move(&p0, in);
                move(&p1, p0.x);
                shift(&h0, in);
                shift(&h1, p1.y);
                pick(&h0, sel);
                pick(&h1, far);
                sum = sum + 1;
                __astree_wait();
            }
        }
    "#;

    #[test]
    fn by_ref_aggregates_and_dynamic_indices() {
        let stats = differential(BY_REF, AnalysisConfig::default()).stats.frames;
        assert!(stats.calls_framed > 0, "{stats:?}");
    }

    /// Early returns inside branches, a guard that makes the callee's whole
    /// body unreachable (⊥ must reach the caller), helpers whose value
    /// parameters share octagon packs across call sites, a call in the entry
    /// block before the main loop, and a nested helper call.
    const CONTROL: &str = r#"
        int a; int b; int c; int d; int lim; int r0; int r1; int dead;
        volatile int in;
        int clamp(int v, int lo, int hi) {
            if (v < lo) { return lo; }
            if (v > hi) { return hi; }
            return v;
        }
        int ramp(int cur, int step) {
            int next;
            next = cur + step;
            if (next > lim) { next = lim; }
            return clamp(next, 0, 1000);
        }
        void never(int v) {
            __astree_assume(v > 100);
            dead = v;
        }
        void init(void) { lim = 500; a = 1; }
        void main(void) {
            __astree_input_int(in, 0, 9);
            init();
            while (1) {
                r0 = ramp(a, in);
                r1 = ramp(b, 2);
                a = r0;
                b = r1;
                c = clamp(in - 5, -3, 3);
                if (in > 50) { never(in); d = d + 1; }
                __astree_wait();
            }
        }
    "#;

    #[test]
    fn returns_in_branches_bottom_guards_shared_packs_and_entry_block_calls() {
        let stats = differential(CONTROL, AnalysisConfig::default()).stats.frames;
        assert!(stats.calls_framed > 0, "{stats:?}");
    }

    #[test]
    fn a_callee_that_goes_bottom_takes_the_caller_with_it() {
        // The call is reachable, its body is not: everything after it is dead.
        let src = r#"
            int x; int y; int pad0; int pad1; int pad2; volatile int in;
            void never(int v) { __astree_assume(v > 100); y = v; }
            void main(void) {
                __astree_input_int(in, 0, 9);
                pad0 = 1; pad1 = 2; pad2 = 3;
                never(in);
                x = 1 / (pad0 - 1);
            }
        "#;
        let setup = Setup::new(src, AnalysisConfig::default());
        let framed = setup.run(setup.frames(), true);
        assert!(framed.stats.frames.calls_framed > 0);
        assert!(framed.after_check.is_bottom());
        assert!(framed.alarms.is_empty(), "{:?}", framed.alarms);
        differential(src, AnalysisConfig::default());
    }

    #[test]
    fn a_partitioned_callee_runs_on_its_frame() {
        let src = r#"
            int mode; int x; int y; int pad0; int pad1; volatile int in;
            void sel(int m) {
                int k;
                if (m > 0) { k = 1; } else { k = -1; }
                if (k > 0) { x = 10 / k; } else { x = 10 / (0 - k); }
                y = x + k;
            }
            void main(void) {
                __astree_input_int(in, -5, 5);
                while (1) {
                    sel(in);
                    pad0 = pad0 + 1;
                    __astree_wait();
                }
            }
        "#;
        let mut config = AnalysisConfig::default();
        config.partitioned_functions.insert("sel".to_string());
        let stats = differential(src, config).stats.frames;
        assert!(stats.calls_framed > 0, "{stats:?}");
    }

    #[test]
    fn a_filter_behind_by_ref_state_stays_inside_the_frame() {
        // The filter pack's X and Y are by-reference parameters, substituted
        // away at each call site; its `δ` update still fires on the
        // statement and reads the parameters' own cells.
        let src = r#"
            double sx0; double sy0; double sx1; double sy1; double pad0; double pad1;
            volatile double in;
            void filt(double *x, double *y, double u) {
                double t;
                t = 0.5 * *x - 0.3 * *y + u;
                *y = *x;
                *x = t;
            }
            void main(void) {
                __astree_input_float(in, -1, 1);
                while (1) {
                    filt(&sx0, &sy0, in);
                    filt(&sx1, &sy1, sx0);
                    pad0 = pad0 * 0.5 + in;
                    __astree_wait();
                }
            }
        "#;
        let stats = differential(src, AnalysisConfig::default()).stats.frames;
        assert!(stats.calls_framed > 0, "{stats:?}");
    }

    #[test]
    fn unbounded_callees_run_on_the_callers_state() {
        let src = r#"
            int ticks; int x; int pad0; int pad1; int pad2; int pad3; volatile int in;
            void tick(void) { ticks = ticks + 1; __astree_wait(); }
            void small(int v) { x = v; }
            void main(void) {
                __astree_input_int(in, 0, 9);
                pad0 = 0; pad1 = 1; pad2 = 2; pad3 = 3;
                while (1) { small(in); tick(); }
            }
        "#;
        let setup = Setup::new(src, AnalysisConfig::default());
        let stats = setup.run(setup.frames(), true).stats.frames;
        assert!(stats.calls_framed > 0 && stats.calls_whole_wait > 0, "{stats:?}");
        assert_eq!(stats.calls_whole_depth_cap, 0);
        differential(src, AnalysisConfig::default());
    }

    #[test]
    fn the_depth_cap_is_a_reason_of_its_own() {
        // A call chain deeper than the syntactic walk follows.
        let mut src = String::from("int x; int pad0; int pad1; volatile int in;\n");
        src.push_str("void f0(int v) { x = v; }\n");
        for i in 1..=17 {
            src.push_str(&format!("void f{i}(int v) {{ f{}(v + 1); }}\n", i - 1));
        }
        src.push_str("void main(void) { __astree_input_int(in, 0, 9); f17(in); f3(in); }\n");
        let setup = Setup::new(&src, AnalysisConfig::default());
        let stats = setup.run(setup.frames(), true).stats.frames;
        assert_eq!((stats.calls_whole_depth_cap, stats.calls_framed), (2, 2), "{stats:?}");
        differential(&src, AnalysisConfig::default());
    }

    #[test]
    fn a_frame_is_closed_under_pack_membership() {
        let setup = Setup::new(&member(4, 3, None), AnalysisConfig::default());
        let frames = setup.frames();
        assert_eq!(frames.framed().count(), 4, "one frame per stepK");
        for f in frames.framed() {
            assert!(
                f.cells.windows(2).all(|w| w[0] < w[1]) && f.octs.windows(2).all(|w| w[0] < w[1])
            );
            for (pi, p) in setup.packs.octagons.iter().enumerate() {
                let holds = p.cells.iter().any(|c| f.cells.binary_search(c).is_ok());
                assert_eq!(holds, f.octs.binary_search(&(pi as u32)).is_ok(), "octagon pack {pi}");
                assert!(!holds || p.cells.iter().all(|c| f.cells.binary_search(c).is_ok()));
            }
            for (pi, p) in setup.packs.dtrees.iter().enumerate() {
                let mut members = p.bools.iter().chain(&p.nums);
                let holds = members.clone().any(|c| f.cells.binary_search(c).is_ok());
                assert_eq!(holds, f.dtrees.binary_search(&(pi as u32)).is_ok(), "tree pack {pi}");
                assert!(!holds || members.all(|c| f.cells.binary_search(c).is_ok()));
            }
            for (pi, p) in setup.packs.ellipses.iter().enumerate() {
                let holds = [p.x, p.y, p.tmp].iter().any(|c| f.cells.binary_search(c).is_ok());
                assert_eq!(holds, f.ells.binary_search(&(pi as u32)).is_ok(), "filter pack {pi}");
            }
            assert_eq!((f.dtrees.len(), f.ells.len()), (1, 1), "one tree, one filter per stepK");
        }
    }

    /// A loop inside a helper reached from two call statements with
    /// different frames: each pass solves it on each frame.
    #[test]
    fn a_helper_loop_is_solved_on_each_frame() {
        let src = r#"
            typedef int Buf[4];
            Buf b0; Buf b1; int n0; int n1; int pad0; int pad1;
            volatile int in;
            void fill(Buf *b, int v) {
                int k;
                for (k = 0; k < 4; k = k + 1) { (*b)[k] = v + k; }
            }
            void main(void) {
                __astree_input_int(in, 0, 9);
                fill(&b0, in);
                fill(&b1, in + 100);
                n0 = b0[3];
                n1 = b1[0];
            }
        "#;
        let stats = differential(src, AnalysisConfig::default()).stats.frames;
        assert!(stats.calls_framed > 0, "{stats:?}");

        // `main` has no loop, so the census reports on `fill`'s: the
        // invariant the checking pass used at its last visit, which has that
        // site's shape (`b1`'s frame), holding none of `b0`'s cells.
        let setup = Setup::new(src, AnalysisConfig::default());
        let run = setup.run(setup.frames(), false);
        assert!(run.main.is_none(), "no main loop");
        let inv = &run.used.expect("fill has a loop");
        let tracks = |name: &str| {
            setup.layout.iter().any(|(c, info)| info.name.starts_with(name) && inv.env.tracks(c))
        };
        assert!(tracks("b1") && !tracks("b0"), "the invariant is the `b1` site's");
    }
}
