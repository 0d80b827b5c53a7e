//! The sharing contract: the pointer-equality fast paths of the
//! persistent-map layer (identity-preserving merges, no-op writes,
//! `diff2`/`all2` shared-subtree skips) are implications, never semantic
//! changes. The crate's `reference` build compiles every one of them out
//! (with every other fast path), and both builds run this suite against one
//! golden, `tests/golden/sharing-corpus.txt`:
//!
//! - the results — alarm list (order included), main-loop census, rendered
//!   invariant, useful packs — are the same lines in both builds;
//! - so is the work schedule with `narrowing_iterations = 0` (`plain` lines,
//!   and `plain-jobs4` for `--jobs 4`, whose counters are the caller's):
//!   every loop's counters and every domain operation's count, bar the
//!   frames' own `state.project`/`absorb`. With no narrowing to cut, nothing
//!   the reference build switches off may change what work is done;
//! - with the default configuration each build's schedule is its own
//!   (`default` and `reference` lines): the reference runs every narrowing
//!   the cuts skip, each a body pass. The widening schedule is the same.
//!
//! Each build also checks that its own shortcuts fired (default) or never
//! did (`reference`).

use astree::core::{AnalysisConfig, AnalysisResult, AnalysisSession};
use astree::frontend::Frontend;
use astree::gen::{generate, BugKind, GenConfig};
use astree::obs::{Collector, Metrics, PmapCounters};
use std::path::Path;

/// Whether the shortcuts are compiled in (see the module documentation).
const SHORTCUTS: bool = !cfg!(feature = "reference");

/// The tag of this build's own schedule lines in the golden.
const BUILD: &str = if SHORTCUTS { "default" } else { "reference" };

fn run_with(src: &str, cfg: AnalysisConfig) -> (AnalysisResult, Metrics) {
    let p = Frontend::new().compile_str(src).expect("compiles");
    let c = Collector::new();
    let r = AnalysisSession::builder(&p).config(cfg).recorder(&c).build().run();
    (r, c.snapshot())
}

fn run(src: &str, jobs: usize) -> (AnalysisResult, PmapCounters) {
    let mut cfg = AnalysisConfig::default();
    cfg.jobs = jobs;
    let (r, m) = run_with(src, cfg);
    (r, m.pmap)
}

/// Everything the contract holds equal, one line per fact.
fn render(name: &str, r: &AnalysisResult) -> String {
    let mut out = format!("member {name}\n");
    for a in &r.alarms {
        out.push_str(&format!("alarm {a}\n"));
    }
    let census = r.main_census.as_ref().map(|c| c.to_string()).unwrap_or_default();
    let invariant = r.main_invariant.as_ref().map(|s| s.to_string()).unwrap_or_default();
    for line in census.lines() {
        out.push_str(&format!("census {line}\n"));
    }
    for line in invariant.lines() {
        out.push_str(&format!("invariant {line}\n"));
    }
    out.push_str(&format!("useful_octagon_packs {:?}\n", r.stats.useful_octagon_packs));
    out
}

/// The work schedule of one run, each line tagged `tag`: every loop's
/// counters and every domain operation's count, bar the frames' own.
fn schedule(tag: &str, r: &AnalysisResult, m: &Metrics) -> String {
    let mut out = format!("{tag} loop_iterations {}\n", r.stats.loop_iterations);
    for (func, f) in &m.functions {
        for (id, l) in &f.loops {
            out.push_str(&format!(
                "{tag} loop {func} {id} unions {} widenings {} widen_top {} narrowings {} \
                 threshold_hits {} infinity_escapes {} unroll {} stabilized_at {}\n",
                l.union_iterations,
                l.widenings,
                l.widen_top,
                l.narrowings,
                l.threshold_hits,
                l.infinity_escapes,
                l.unroll_factor,
                l.stabilized_at
            ));
        }
    }
    for (domain, ops) in &m.domains {
        for (op, o) in ops {
            if !(*domain == "state" && ["project", "absorb"].contains(op)) {
                out.push_str(&format!("{tag} ops {domain}.{op} {}\n", o.count));
            }
        }
    }
    out
}

/// Asserts that this build's fast paths fired, or that none did.
fn assert_shortcuts(name: &str, pmap: &PmapCounters) {
    let hits = pmap.root_shortcut_hits + pmap.interior_shortcut_hits;
    assert_eq!(pmap.identity_preserved > 0, SHORTCUTS, "{name}: identities preserved {pmap:?}");
    assert_eq!(hits > 0, SHORTCUTS, "{name}: pointer shortcuts fired {pmap:?}");
}

/// Clean and buggy family members of several sizes.
fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (channels, seed) in [(1usize, 1u64), (3, 7), (6, 42)] {
        let cfg = GenConfig { channels, seed, bug: None };
        out.push((format!("clean-c{channels}-s{seed}"), generate(&cfg)));
    }
    for (bug, tag) in [(BugKind::DivByZero, "div"), (BugKind::IntOverflow, "ovf")] {
        let cfg = GenConfig { channels: 3, seed: 11, bug: Some(bug) };
        out.push((format!("bug-{tag}-c3-s11"), generate(&cfg)));
    }
    out
}

#[test]
fn disabling_ptr_shortcuts_is_bit_identical() {
    let mut got = String::new();
    for (name, src) in corpus() {
        let (r, m) = run_with(&src, AnalysisConfig::default());
        assert_shortcuts(&name, &m.pmap);
        got.push_str(&render(&name, &r));
        got.push_str(&schedule(BUILD, &r, &m));
        for (tag, jobs) in [("plain", 1), ("plain-jobs4", 4)] {
            let cfg = AnalysisConfig { narrowing_iterations: 0, jobs, ..AnalysisConfig::default() };
            let (r, m) = run_with(&src, cfg);
            got.push_str(&schedule(tag, &r, &m));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sharing-corpus.txt");
    // The other build's schedule lines are not this build's to reproduce.
    let other = if SHORTCUTS { "reference " } else { "default " };
    let want: String = std::fs::read_to_string(&path)
        .expect("golden file")
        .lines()
        .filter(|l| !l.starts_with(other))
        .map(|l| format!("{l}\n"))
        .collect();
    if got != want {
        let first = got.lines().zip(want.lines()).find(|(g, w)| g != w);
        panic!("the results differ from the golden: (got, want) = {first:?}");
    }
}

#[test]
fn sharing_flag_propagates_to_parallel_workers() {
    let src = generate(&GenConfig { channels: 6, seed: 42, bug: None });
    let (seq, _) = run(&src, 1);
    for jobs in [2usize, 4] {
        // The slices run in the build's mode: their shortcut counters,
        // drained per slice, say so.
        let (par, pmap) = run(&src, jobs);
        assert_shortcuts(&format!("jobs={jobs}"), &pmap);
        // Across worker counts the determinism contract (tests/parallel.rs)
        // covers alarms, census and the widening schedule; rendered float
        // bounds may differ in ±0.0 sign between slicings, so compare the
        // sequential baseline at that level.
        assert_eq!(seq.alarms, par.alarms, "jobs={jobs}: alarm list differs from jobs=1");
        assert_eq!(seq.main_census, par.main_census, "jobs={jobs}: census differs");
        assert_eq!(seq.stats.loop_iterations, par.stats.loop_iterations, "jobs={jobs}");
    }
}

#[test]
fn stabilized_iterates_share_storage() {
    // A loop whose invariant stabilizes: after this PR the joins/widens of
    // the fixpoint iteration preserve identity, so the run must report both
    // identity-preserved returns and merge shortcut hits.
    let src = r#"
        volatile int in; int x; int acc;
        void main(void) {
            __astree_input_int(in, 0, 100);
            acc = 0;
            while (1) {
                x = in;
                if (acc < 1000) { acc = acc + x; }
                __astree_wait();
            }
        }
    "#;
    let (r, pmap) = run(src, 1);
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    assert!(pmap.merge_calls > 0);
    assert_shortcuts("stabilizing loop", &pmap);
}

#[test]
fn assignments_to_an_owned_state_write_in_place() {
    // Straight-line code runs on a state nobody else holds: N strong
    // assignments to N distinct cells must cost O(cells + depth) tree nodes
    // (here: none beyond building the initial state), not the N × depth of
    // one root-to-leaf path copy per assignment.
    use astree::core::iterator::Iter;
    use astree::core::{AbsState, Packs};
    use astree::memory::{CellLayout, LayoutConfig};
    const N: usize = 512;
    let decls: String = (0..N).map(|i| format!("int v{i}; ")).collect();
    let body: String = (0..N).map(|i| format!("v{i} = {}; ", i + 1)).collect();
    let p = Frontend::new().compile_str(&format!("{decls} void main(void) {{ {body} }}")).unwrap();
    let cfg = AnalysisConfig::default();
    let layout = CellLayout::new(&p, &LayoutConfig::default());
    let packs = Packs::discover(&p, &layout, &cfg);
    let _ = astree::pmap::take_stats();
    let initial = AbsState::initial(&layout, &packs);
    let build = astree::pmap::take_stats().nodes_allocated;
    assert!(build as usize >= N, "the initial state holds one node per cell");
    let (end, _) = Iter::new(&p, &layout, &packs, &cfg).iterate();
    let run = astree::pmap::take_stats().nodes_allocated;
    assert_eq!(end.env.count_diff(&initial.env), N, "every assignment took effect");
    let writes = run.saturating_sub(build) as usize;
    let depth = N.ilog2() as usize + 1;
    assert!(
        writes <= N + depth,
        "{writes} nodes allocated by {N} assignments: path copies are back (N × depth = {})",
        N * depth
    );
}
