//! End-to-end tests of the invariant store: an exact match is re-proved by
//! the checking pass, bit-identically and fast, anything else is solved as
//! if no store were attached, every result is one file, and damaged or
//! forged files degrade to a clean cold run.

use astree::core::{AnalysisConfig, AnalysisResult, AnalysisSession, InvariantStore};
use astree::frontend::Frontend;
use astree::gen::{generate, BugKind, GenConfig};
use astree::ir::Program;
use astree::memory::{CellLayout, LayoutConfig};
use astree::obs::Collector;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("astree-cache-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_cached(program: &Program, store: &Arc<InvariantStore>) -> (AnalysisResult, f64) {
    let t0 = Instant::now();
    let r = AnalysisSession::builder(program).cache(Arc::clone(store)).build().run();
    (r, t0.elapsed().as_secs_f64())
}

/// One run through a fresh handle on `dir`, and what that handle did.
fn run_on(program: &Program, dir: &std::path::Path) -> (AnalysisResult, Arc<InvariantStore>) {
    let store = Arc::new(InvariantStore::open(dir).expect("opens"));
    let (r, _) = run_cached(program, &store);
    (r, store)
}

/// What a run reports, rendered: alarms, census, main invariant.
fn answer(r: &AnalysisResult) -> (Vec<String>, Option<String>, Option<String>) {
    (
        r.alarms.iter().map(|a| a.to_string()).collect(),
        r.main_census.as_ref().map(|c| c.to_string()),
        r.main_invariant.as_ref().map(|s| s.to_string()),
    )
}

fn member(channels: usize) -> String {
    generate(&GenConfig { channels, seed: 9, bug: None })
}

fn compile(src: &str) -> Program {
    Frontend::new().compile_str(src).expect("compiles")
}

/// The headline guarantee: re-analyzing an unchanged program (≥50
/// functions) through a warm store re-proves the stored result
/// bit-identically — same alarms, same census, same invariant — at least 5×
/// faster.
#[test]
fn warm_rerun_is_bit_identical_and_at_least_5x_faster() {
    let dir = temp_dir("full-hit");
    let source = generate(&GenConfig { channels: 47, seed: 1, bug: None });
    let program = Frontend::new().compile_str(&source).expect("compiles");
    assert!(program.funcs.len() >= 50, "need a large program, got {}", program.funcs.len());

    let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
    let (cold, cold_wall) = run_cached(&program, &store);
    assert!(!cold.cache.full_hit);

    // A fresh store on the same directory proves the replay came from disk.
    let store = Arc::new(InvariantStore::open(&dir).expect("reopens"));
    let (warm, warm_wall) = run_cached(&program, &store);
    assert!(warm.cache.full_hit, "unchanged program must be a full hit");

    assert_eq!(answer(&cold), answer(&warm), "the report must be the cold run's");

    // Hit-specific accounting: the stored cold times survive, the hit's own
    // cost is reported separately; the checking pass is this run's.
    assert_eq!(warm.stats.time_iterate, cold.stats.time_iterate);
    assert_eq!(warm.stats.time_check, cold.stats.time_check);
    assert!(warm.stats.time_replay.as_nanos() > 0);
    assert_eq!(warm.stats.loops_solved, 0);
    assert_eq!(warm.stats.loops_rechecked, cold.stats.loops_rechecked);
    assert_eq!(warm.stats.premise, cold.stats.premise);
    assert_eq!(cold.stats.premise.failed, 0);

    assert!(
        cold_wall >= 5.0 * warm_wall,
        "warm hit not ≥5× faster: cold {cold_wall:.3}s, warm {warm_wall:.3}s"
    );
    let c = store.counters();
    assert_eq!(c.full_hits, 1);
    assert!(c.bytes_read > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

const TWO_WORKERS: &str = r#"
    int a; int b; int i; int j;
    void f(void) {
        for (i = 0; i < 1000; i++) { a = a + 1; if (a > 100) { a = 0; } }
    }
    void g(void) {
        for (j = 0; j < 1000; j++) { b = b + STEP; if (b > 200) { b = 0; } }
    }
    void main(void) {
        while (1) { f(); g(); __astree_wait(); }
    }
"#;

fn two_workers(step: &str) -> Program {
    let src = TWO_WORKERS.replace("STEP", step);
    Frontend::new().compile_str(&src).expect("compiles")
}

/// Changing an analysis-relevant parameter changes the store key: a clean
/// miss.
#[test]
fn changing_widening_or_packing_parameters_misses_the_whole_store() {
    let dir = temp_dir("config-miss");
    let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
    let program = two_workers("2");
    run_cached(&program, &store);

    let mut widen = AnalysisConfig::default();
    widen.widening_delay += 1;
    let mut pack = AnalysisConfig::default();
    pack.octagon_pack_cap += 1;
    for cfg in [widen, pack] {
        let store = Arc::new(InvariantStore::open(&dir).expect("reopens"));
        let r =
            AnalysisSession::builder(&program).config(cfg).cache(Arc::clone(&store)).build().run();
        assert!(!r.cache.full_hit);
        assert_eq!(store.counters().misses, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated cache file must not panic or poison the result: the run falls
/// back to cold, reports the corruption, and rewrites the entry.
#[test]
fn corrupt_cache_files_fall_back_to_a_clean_cold_run() {
    let dir = temp_dir("corrupt");
    let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
    let program = two_workers("2");
    let (cold, _) = run_cached(&program, &store);

    for file in std::fs::read_dir(&dir).expect("lists") {
        let path = file.expect("entry").path();
        let bytes = std::fs::read(&path).expect("reads");
        std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("writes");
    }
    let store = Arc::new(InvariantStore::open(&dir).expect("reopens"));
    let (warm, _) = run_cached(&program, &store);
    assert!(!warm.cache.full_hit);
    assert_eq!(warm.alarms, cold.alarms);
    assert!(store.counters().corrupt_files >= 1, "{:?}", store.counters());

    // The rewritten entry is usable again.
    let store = Arc::new(InvariantStore::open(&dir).expect("reopens again"));
    let (warm2, _) = run_cached(&program, &store);
    assert!(warm2.cache.full_hit);
    let _ = std::fs::remove_dir_all(&dir);
}

const TAILED: &str = r#"
    int a; int b; int i; int j; int t;
    void f(void) {
        for (i = 0; i < 1000; i++) { a = a + 1; if (a > 100) { a = 0; } }
        t = TAIL;
        t = 1;
    }
    void g(void) {
        for (j = 0; j < 1000; j++) { b = b + 1; if (b > 200) { b = 0; } }
    }
    void main(void) {
        while (1) { f(); g(); __astree_wait(); }
    }
"#;

fn tailed(tail: &str) -> Program {
    let src = TAILED.replace("TAIL", tail);
    Frontend::new().compile_str(&src).expect("compiles")
}

/// Re-prove or solve: a store that holds no exact match — the same program
/// before an edit inside one function, before an edit outside its loop, or a
/// smaller member of the same family — changes nothing the run reports,
/// down to the number of loops it solves.
#[test]
fn a_store_never_changes_the_answer() {
    let cases = [
        ("edit-in-function", two_workers("2"), two_workers("1 + 1")),
        ("edit-outside-loop", tailed("2"), tailed("3")),
        ("other-member", compile(&member(4)), compile(&member(8))),
    ];
    for (tag, before, after) in cases {
        let dir = temp_dir(&format!("same-answer-{tag}"));
        run_on(&before, &dir);
        let (warm, store) = run_on(&after, &dir);
        assert!(!warm.cache.full_hit, "{tag}: not the stored program");
        assert_eq!(store.counters().bytes_read, 0, "{tag}: nothing stored answers this run");
        let uncached = AnalysisSession::builder(&after).build().run();
        assert_eq!(answer(&warm), answer(&uncached), "{tag}");
        assert_eq!(warm.stats.loops_solved, uncached.stats.loops_solved, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The clamp of channel 0's rate limiter, `n` units tighter.
fn edited(source: &str, n: u32) -> Program {
    let old = "rate0 = clampf(rate0, -100.0, 100.0);";
    assert!(source.contains(old), "generator no longer emits `{old}`");
    let bound = 100 - n;
    compile(&source.replacen(old, &format!("rate0 = clampf(rate0, -{bound}.0, {bound}.0);"), 1))
}

/// Every result is one file: an edit reads nothing, writes one result and
/// leaves every earlier one in place.
#[test]
fn an_edit_costs_one_result() {
    let dir = temp_dir("one-result");
    let source = member(4);
    let mut written = Vec::new();
    for n in 1..=6 {
        let (r, store) = run_on(&edited(&source, n), &dir);
        assert!(!r.cache.full_hit);
        let c = store.counters();
        assert_eq!(c.bytes_read, 0, "edit {n} read the store");
        written.push(c.bytes_written as f64);
    }
    let (first, sixth) = (written[0], written[5]);
    assert!((sixth - first).abs() <= 0.1 * first, "bytes written per edit: {written:?}");
    assert_eq!(std::fs::read_dir(&dir).expect("lists").count(), 6);
    for n in 1..=6 {
        let (r, store) = run_on(&edited(&source, n), &dir);
        assert!(r.cache.full_hit, "edit {n} is still stored");
        assert_eq!(store.counters().bytes_written, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store bounded at about two and a half results evicts the oldest ones
/// instead of growing: the newest result replays, the oldest misses, and no
/// answer differs from the uncached one.
#[test]
fn tiny_cache_bound_evicts_and_still_yields_correct_results() {
    let dir = temp_dir("bounded");
    let versions: Vec<Program> = ["1", "2", "3", "4", "5"].map(two_workers).into();
    let (_, probe) = run_on(&versions[0], &dir);
    let bound = probe.counters().bytes_written * 5 / 2;
    let _ = std::fs::remove_dir_all(&dir);

    let open = || Arc::new(InvariantStore::open_bounded(&dir, bound).expect("opens"));
    let mut evictions = 0;
    for program in &versions {
        let store = open();
        let (r, _) = run_cached(program, &store);
        assert!(!r.cache.full_hit);
        assert_eq!(answer(&r), answer(&AnalysisSession::builder(program).build().run()));
        evictions += store.counters().evictions;
        // Eviction orders by mtime: keep the five writes apart on any clock.
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(evictions >= 1, "five results under a bound of 2.5 must evict");
    assert!(std::fs::read_dir(&dir).expect("lists").count() <= 2);

    let (newest, _) = run_cached(&versions[4], &open());
    assert!(newest.cache.full_hit, "the newest result is never evicted");
    let (oldest, _) = run_cached(&versions[0], &open());
    assert!(!oldest.cache.full_hit, "the oldest result was evicted");
    for (r, program) in [(newest, &versions[4]), (oldest, &versions[0])] {
        assert_eq!(answer(&r), answer(&AnalysisSession::builder(program).build().run()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight sessions over two store handles on one directory finish the same
/// four results at once: every published file is one writer's complete
/// bytes, and no staging file is left behind.
#[test]
fn concurrent_writers_publish_whole_results() {
    let dir = temp_dir("writers");
    let versions: Vec<Program> = ["1", "2", "3", "4"].map(two_workers).into();
    let handles = [0, 1].map(|_| Arc::new(InvariantStore::open(&dir).expect("opens")));
    let start = Barrier::new(8);
    std::thread::scope(|s| {
        for t in 0..8 {
            let (store, versions, start) = (&handles[t % 2], &versions, &start);
            s.spawn(move || {
                start.wait();
                for k in 0..4 {
                    run_cached(&versions[(t + k) % 4], store);
                }
            });
        }
    });
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, handles[0].file_names(), "four results and nothing else");
    assert_eq!(names.len(), 4);
    for program in &versions {
        let (r, store) = run_on(program, &dir);
        assert!(r.cache.full_hit && store.counters().corrupt_files == 0);
        assert_eq!(answer(&r), answer(&AnalysisSession::builder(program).build().run()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the token list of `var`'s cell line in the one stored file of
/// `program` in `dir` with `edit`.
fn forge(dir: &std::path::Path, program: &Program, var: &str, edit: fn(&mut [String])) {
    let layout = CellLayout::new(program, &LayoutConfig::default());
    let cell = layout.scalar_cell(program.var_by_name(var).expect("declared"));
    let prefix = format!("c {} ", cell.0);
    let files: Vec<_> = std::fs::read_dir(dir).expect("lists").map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1);
    let text = std::fs::read_to_string(&files[0]).expect("reads");
    let forged: Vec<String> = (text.lines())
        .map(|line| match line.strip_prefix(&prefix) {
            Some(_) => {
                let mut t: Vec<String> = line.split(' ').map(str::to_string).collect();
                edit(&mut t);
                t.join(" ")
            }
            None => line.to_string(),
        })
        .collect();
    let forged = forged.join("\n") + "\n";
    assert_ne!(forged, text, "{var} is not stored");
    std::fs::write(&files[0], forged).expect("writes");
}

/// A hit is the checking pass run from the stored main invariant, and the
/// invariant is admitted only if it is inductive where the pass meets it. An
/// honest hit reports the cold run's alarms; a forged one is rejected,
/// counted corrupt and solved cold, its report the cold run's, and the file
/// rewritten. Two forgeries: a `--bug div0` member's `bug_den` narrowed to
/// exclude -1, the value that makes `bug_den + 1` zero, and a clean
/// member's input bound tightened by one ulp.
#[test]
fn a_forged_invariant_is_rejected_and_solved_cold() {
    let bug = Some(BugKind::DivByZero);
    let div0 = compile(&generate(&GenConfig { channels: 4, seed: 3, bug }));
    let clean = compile(&member(4));
    let cases: [(&str, &Program, &str, fn(&mut [String])); 2] = [
        ("div0", &div0, "bug_den", |t| {
            assert_eq!((t[2].as_str(), t[3].as_str()), ("i", "-1"));
            t[3] = "0".into();
        }),
        ("ulp", &clean, "in0", |t| {
            let hi = f64::from_bits(u64::from_str_radix(&t[4], 16).expect("hex"));
            assert!(t[2] == "f" && hi > 0.0);
            t[4] = format!("{:016x}", hi.to_bits() - 1);
        }),
    ];
    for (tag, program, var, edit) in cases {
        let dir = temp_dir(&format!("forged-{tag}"));
        let (cold, _) = run_on(program, &dir);
        assert_eq!(
            cold.alarms.iter().any(|a| a.kind == astree::core::AlarmKind::DivByZero),
            tag == "div0"
        );
        let (honest, store) = run_on(program, &dir);
        assert!(honest.cache.full_hit && store.counters().corrupt_files == 0, "{tag}");
        assert_eq!(answer(&honest), answer(&cold), "{tag}");
        assert_eq!(honest.stats.loops_rechecked, cold.stats.loops_rechecked, "{tag}");

        forge(&dir, program, var, edit);
        let (forged, store) = run_on(program, &dir);
        assert!(!forged.cache.full_hit, "{tag}: a forged invariant was admitted");
        assert_eq!(store.counters().corrupt_files, 1, "{tag}");
        assert_eq!(answer(&forged), answer(&cold), "{tag}");
        assert_eq!(forged.stats.premise.failed, 0, "{tag}: the report is the cold run's");
        let (rewritten, store) = run_on(program, &dir);
        assert!(rewritten.cache.full_hit && store.counters().corrupt_files == 0, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A hit runs the checking pass, so it collects the cold run's
/// per-statement states.
#[test]
fn a_hit_collects_the_cold_runs_per_statement_states() {
    let dir = temp_dir("stmt-states");
    let program = compile(&member(4));
    let mut cfg = AnalysisConfig::default();
    cfg.collect_stmt_invariants = true;
    let run = || {
        let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
        AnalysisSession::builder(&program).config(cfg.clone()).cache(store).build().run()
    };
    let (cold, warm) = (run(), run());
    assert!(!cold.cache.full_hit && warm.cache.full_hit);
    let (cold, warm) = (cold.stmt_invariants.expect("cold"), warm.stmt_invariants.expect("warm"));
    assert!(!cold.is_empty());
    assert_eq!(cold.len(), warm.len());
    for (id, c) in &cold {
        let w = &warm[id];
        assert_eq!(c.to_string(), w.to_string(), "statement {id:?}");
        assert!(c.leq(w) && w.leq(c), "statement {id:?}: packs differ");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run that exhausts its iteration budget reports it the same cold and
/// warm: only the iteration pass knows it, and the store keeps it.
#[test]
fn a_hit_reports_the_cold_runs_budget_line() {
    let dir = temp_dir("budget");
    let program = two_workers("2");
    let mut cfg = AnalysisConfig::default();
    cfg.max_iterations = 1;
    let run = || {
        let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
        AnalysisSession::builder(&program).config(cfg.clone()).cache(store).build().run()
    };
    let (cold, warm) = (run(), run());
    assert!(!cold.cache.full_hit && warm.cache.full_hit);
    let line = cold.stats.budget_line(cfg.max_iterations);
    assert!(line.is_some(), "the budget did not run out");
    assert_eq!(line, warm.stats.budget_line(cfg.max_iterations));
    assert_eq!(answer(&cold), answer(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The metrics document grows a `cache` section with the run's counters.
#[test]
fn metrics_document_reports_cache_counters() {
    let dir = temp_dir("metrics");
    let program = two_workers("2");
    for expect_hit in [false, true] {
        let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
        let collector = Collector::new();
        let r = AnalysisSession::builder(&program)
            .recorder(&collector)
            .cache(Arc::clone(&store))
            .build()
            .run();
        assert_eq!(r.cache.full_hit, expect_hit);
        let json = collector.to_json().to_string();
        assert!(json.contains("\"cache\""), "{json}");
        let m = collector.snapshot();
        assert!(m.premise.checked > 0 && m.premise.failed == 0, "{:?}", m.premise);
        if expect_hit {
            assert_eq!(m.cache.full_hits, 1);
            assert!(m.cache.saved_nanos > 0);
        } else {
            assert_eq!(m.cache.misses, 1);
            assert!(m.cache.bytes_written > 0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
