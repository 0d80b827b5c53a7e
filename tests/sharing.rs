//! The sharing differential: `debug_no_ptr_shortcuts` disables every
//! pointer-equality fast path in the persistent-map layer and the iterator
//! (identity-preserving merges, no-op inserts, `diff2`/`all2` shared-subtree
//! skips, the fixpoint `ptr_eq` stabilization checks) — and the analysis
//! must still produce **bit-identical** results: the same alarm list (order
//! included), the same main-loop census, the same rendered invariant, the
//! same widening schedule. The fast paths are implications, never semantic
//! changes; this suite is the contract CI enforces.

use astree::core::{AnalysisConfig, AnalysisResult, AnalysisSession};
use astree::frontend::Frontend;
use astree::gen::{generate, BugKind, GenConfig};
use astree::obs::Collector;

fn run(src: &str, jobs: usize, no_shortcuts: bool) -> (AnalysisResult, astree::obs::PmapCounters) {
    let p = Frontend::new().compile_str(src).expect("compiles");
    let mut cfg = AnalysisConfig::default();
    cfg.jobs = jobs;
    cfg.debug_no_ptr_shortcuts = no_shortcuts;
    let c = Collector::new();
    let r = AnalysisSession::builder(&p).config(cfg).recorder(&c).build().run();
    (r, c.snapshot().pmap)
}

fn assert_bit_identical(name: &str, a: &AnalysisResult, b: &AnalysisResult) {
    assert_eq!(a.alarms, b.alarms, "{name}: alarm list differs");
    assert_eq!(a.main_census, b.main_census, "{name}: main-loop census differs");
    assert_eq!(
        a.main_invariant.as_ref().map(|s| format!("{s}")),
        b.main_invariant.as_ref().map(|s| format!("{s}")),
        "{name}: rendered main invariant differs"
    );
    assert_eq!(a.stats.loop_iterations, b.stats.loop_iterations, "{name}: widening schedule");
    assert_eq!(a.stats.useful_octagon_packs, b.stats.useful_octagon_packs, "{name}");
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
    for (name, src) in corpus() {
        let (on, on_pmap) = run(&src, 1, false);
        let (off, off_pmap) = run(&src, 1, true);
        assert_bit_identical(&name, &on, &off);
        assert!(
            on_pmap.identity_preserved > 0,
            "{name}: the sharing run preserved no identities — the fast paths are dead"
        );
        assert!(
            on_pmap.root_shortcut_hits + on_pmap.interior_shortcut_hits > 0,
            "{name}: no pointer shortcut ever fired"
        );
        assert_eq!(
            off_pmap.root_shortcut_hits
                + off_pmap.interior_shortcut_hits
                + off_pmap.identity_preserved,
            0,
            "{name}: debug_no_ptr_shortcuts left a fast path armed"
        );
        assert!(
            on_pmap.nodes_allocated < off_pmap.nodes_allocated,
            "{name}: sharing did not reduce node allocations ({} vs {})",
            on_pmap.nodes_allocated,
            off_pmap.nodes_allocated,
        );
    }
}

#[test]
fn sharing_flag_propagates_to_parallel_workers() {
    let src = generate(&GenConfig { channels: 6, seed: 42, bug: None });
    let (seq_on, _) = run(&src, 1, false);
    for jobs in [2usize, 4] {
        let (par_on, par_on_pmap) = run(&src, jobs, false);
        let (par_off, par_off_pmap) = run(&src, jobs, true);
        // The sharing contract is a *mode* differential: at a fixed worker
        // count, disabling every fast path must not change one observable
        // bit. This is what proves the flag reached every worker thread.
        assert_bit_identical(&format!("jobs={jobs} on-vs-off"), &par_on, &par_off);
        // Across worker counts the determinism contract (tests/parallel.rs)
        // covers alarms, census and the widening schedule; rendered float
        // bounds may differ in ±0.0 sign between slicings, so compare the
        // sequential baseline at that level.
        assert_eq!(seq_on.alarms, par_on.alarms, "jobs={jobs}: alarm list differs from jobs=1");
        assert_eq!(seq_on.main_census, par_on.main_census, "jobs={jobs}: census differs");
        assert_eq!(seq_on.stats.loop_iterations, par_on.stats.loop_iterations, "jobs={jobs}");
        assert_eq!(
            par_off_pmap.root_shortcut_hits
                + par_off_pmap.interior_shortcut_hits
                + par_off_pmap.identity_preserved,
            0,
            "jobs={jobs}: a worker slice ran with the fast paths armed"
        );
        assert!(par_on_pmap.identity_preserved > 0, "jobs={jobs}: no identity preserved");
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
    let (r, pmap) = run(src, 1, false);
    assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    assert!(pmap.merge_calls > 0);
    assert!(pmap.identity_preserved > 0);
    assert!(pmap.interior_shortcut_hits + pmap.root_shortcut_hits > 0);
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
