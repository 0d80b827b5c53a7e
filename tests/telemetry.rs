//! End-to-end telemetry (`astree-obs`) coverage: the collecting recorder
//! must observe the fixpoint engine, the domains, the parallel scheduler and
//! the batch runner without changing any analysis result.

use astree::core::{AnalysisConfig, AnalysisSession};
use astree::fleet::{FleetSession, JobSpec, JobStatus};
use astree::frontend::Frontend;
use astree::gen::{generate, BugKind, GenConfig};
use astree::obs::{Collector, Json, Metrics, SCHEMA};
use std::sync::Arc;
use std::time::Duration;

fn collect(src: &str, cfg: AnalysisConfig) -> (astree::core::AnalysisResult, Metrics) {
    let p = Frontend::new().compile_str(src).expect("compiles");
    let collector = Collector::new();
    let result = AnalysisSession::builder(&p).config(cfg).recorder(&collector).build().run();
    (result, collector.snapshot())
}

#[test]
fn metrics_cover_fixpoint_domains_and_scheduler() {
    let src = generate(&GenConfig { channels: 4, seed: 3, bug: None });
    let mut cfg = AnalysisConfig::default();
    cfg.jobs = 4;
    let (result, m) = collect(&src, cfg);
    assert!(result.alarms.is_empty(), "{:?}", result.alarms);

    // Per-function fixpoint counters: the entry function solves the main
    // synchronous loop, with union iterations before any widening.
    let main = m.functions.get("main").expect("main function recorded");
    assert!(!main.loops.is_empty(), "main's loops recorded");
    let l = main.loops.values().next().unwrap();
    assert!(l.iterations > 0 && l.stabilized_at > 0);
    assert!(l.union_iterations > 0, "delayed widening means unions first");
    assert_eq!(l.unroll_factor, 1, "default unrolling factor");

    // Per-domain operation counts with wall time.
    for (domain, op) in
        [("state", "join"), ("state", "widen"), ("octagon", "closure"), ("octagon", "assign")]
    {
        let ops = m.domains.get(domain).unwrap_or_else(|| panic!("domain {domain} recorded"));
        let op = ops.get(op).unwrap_or_else(|| panic!("{domain}.{op} recorded"));
        assert!(op.count > 0, "{domain} op applied at least once");
    }

    // Both analysis phases timed.
    assert!(m.phases.get("iterate").copied().unwrap_or(0) > 0);
    assert!(m.phases.get("check").copied().unwrap_or(0) > 0);

    // Scheduler: the 4-channel dispatch slices, each slice is timed, and
    // every merge is accounted for.
    assert!(m.scheduler.stages > 0, "the dispatch should slice");
    assert!(!m.scheduler.slices.is_empty());
    assert!(m.scheduler.slices.iter().all(|s| s.stmts > 0));
    assert_eq!(m.scheduler.merges, m.scheduler.slices.len() as u64, "one overlay merge per slice");
    assert!(m.scheduler.plan_nanos > 0, "planning the dispatch is timed");
}

/// A loop that runs out of `max_iterations` widens without thresholds: the
/// run counts those widenings, the metrics count them per loop, and the
/// report line names the same loops at any worker count and on a replay.
#[test]
fn budget_exhaustion_is_counted_and_named() {
    let src = generate(&GenConfig { channels: 3, seed: 11, bug: None });
    let (plain, m) = collect(&src, AnalysisConfig::default());
    assert_eq!(plain.stats.widen_top, 0);
    assert!(plain.stats.budget_loops.is_empty() && plain.stats.budget_line(200).is_none());
    assert!(m.functions.values().flat_map(|f| f.loops.values()).all(|l| l.widen_top == 0));

    let mut cfg = AnalysisConfig::default();
    cfg.max_iterations = 2;
    let (tight, m) = collect(&src, cfg.clone());
    assert!(tight.stats.widen_top > 0);
    let per_loop: Vec<(String, u32, u64)> = m
        .functions
        .iter()
        .flat_map(|(f, fm)| fm.loops.iter().map(move |(id, l)| (f.clone(), *id, l.widen_top)))
        .filter(|l| l.2 > 0)
        .collect();
    assert_eq!(per_loop.iter().map(|l| l.2).sum::<u64>(), tight.stats.widen_top);
    let named: Vec<(String, u32)> = per_loop.into_iter().map(|(f, id, _)| (f, id)).collect();
    assert_eq!(named, tight.stats.budget_loops);
    let line = tight.stats.budget_line(2).expect("a budget line");
    assert!(line.starts_with("budget: max_iterations (2) ran out"), "{line}");
    for (f, id) in &tight.stats.budget_loops {
        assert!(line.contains(&format!("{f} loop {id}")), "{line}");
    }

    cfg.jobs = 4;
    let (sliced, _) = collect(&src, cfg.clone());
    assert_eq!(sliced.stats.budget_line(2), Some(line.clone()), "jobs 4");

    let dir = std::env::temp_dir().join(format!("astree-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let program = Frontend::new().compile_str(&src).expect("compiles");
    for full_hit in [false, true] {
        let store = Arc::new(astree::core::InvariantStore::open(&dir).expect("opens"));
        let r = AnalysisSession::builder(&program).config(cfg.clone()).cache(store).build().run();
        assert_eq!(r.cache.full_hit, full_hit);
        assert_eq!(r.stats.budget_line(2), Some(line.clone()), "full hit {full_hit}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_stream_parses_back_and_matches_the_collector() {
    use astree::obs::{Fanout, Recorder, StreamSink, EVENT_SCHEMA};

    let dir = std::env::temp_dir().join(format!("astree-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");

    let src = generate(&GenConfig { channels: 4, seed: 3, bug: Some(BugKind::DivByZero) });
    let p = Frontend::new().compile_str(&src).expect("compiles");
    let collector = Arc::new(Collector::new());
    let sink = Arc::new(StreamSink::create(&path).unwrap());
    let fanout = Fanout::new(vec![
        Arc::clone(&collector) as Arc<dyn Recorder>,
        Arc::clone(&sink) as Arc<dyn Recorder>,
    ]);
    let mut cfg = AnalysisConfig::default();
    cfg.jobs = 4;
    let result = AnalysisSession::builder(&p).config(cfg).recorder(&fanout).build().run();
    sink.flush();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1, "stream holds a header plus events");

    // Every line is a self-contained JSON object (crash-readable JSONL).
    let parsed: Vec<Json> = lines
        .iter()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("unparseable line {l:?}: {e}")))
        .collect();
    assert_eq!(parsed[0].get("schema"), Some(&Json::str(EVENT_SCHEMA)), "header line first");

    // Event counts agree with the aggregating collector fed by the same
    // fanout: the stream is a faithful serialization, not a sample.
    let m = collector.snapshot();
    let count = |ev: &str| {
        parsed.iter().filter(|j| j.get("ev") == Some(&Json::str(ev.to_string()))).count()
    };
    assert_eq!(count("slice"), m.scheduler.slices.len(), "one slice line per recorded slice");
    assert_eq!(count("alarm"), result.alarms.len(), "one alarm line per reported alarm");
    assert_eq!(count("pool"), 1, "final pool-counter snapshot streamed once");
    assert!(count("loop_iter") > 0, "fixpoint iterations streamed");

    // Streamed slice records carry the documented fields with sane values.
    let slice = parsed
        .iter()
        .find(|j| j.get("ev") == Some(&Json::str("slice")))
        .expect("at least one slice event");
    for key in ["stage", "index", "stmts", "nanos"] {
        assert!(
            matches!(slice.get(key), Some(Json::UInt(_))),
            "slice event field {key} missing or mistyped in {slice:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Fanout` of one collector must record what the collector alone does,
/// every event included: the document matches modulo wall times and
/// `pmap.nodes_recycled` (the slab's free lists outlive a run, so the
/// second run in a process recycles what the first freed).
#[test]
fn a_fanout_of_one_collector_records_what_the_collector_does() {
    use astree::obs::{Fanout, Recorder};

    let src = generate(&GenConfig { channels: 4, seed: 3, bug: None });
    let p = Frontend::new().compile_str(&src).expect("compiles");
    let alone = Collector::new();
    AnalysisSession::builder(&p).recorder(&alone).build().run();
    let collector = Arc::new(Collector::new());
    let fanout = Fanout::new(vec![Arc::clone(&collector) as Arc<dyn Recorder>]);
    AnalysisSession::builder(&p).recorder(&fanout).build().run();

    /// `j` with the wall times (`*nanos*` fields, `phases`) and
    /// `nodes_recycled` nulled.
    fn untimed(j: Json) -> Json {
        match j {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| {
                        let varies = k.contains("nanos") || k == "phases" || k == "nodes_recycled";
                        let v = if varies { Json::Null } else { untimed(v) };
                        (k, v)
                    })
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.into_iter().map(untimed).collect()),
            other => other,
        }
    }
    let (teed, direct) = (untimed(collector.to_json()), untimed(alone.to_json()));
    assert!(
        matches!(teed.get("pmap").and_then(|p| p.get("nodes_allocated")), Some(Json::UInt(n)) if *n > 0)
    );
    assert_eq!(teed, direct);
}

#[test]
fn alarm_provenance_names_statement_domain_and_loop() {
    let src = generate(&GenConfig { channels: 2, seed: 1, bug: Some(BugKind::DivByZero) });
    let (result, m) = collect(&src, AnalysisConfig::default());
    assert_eq!(result.alarms.len(), 1, "{:?}", result.alarms);
    assert_eq!(m.alarms.len(), 1, "one provenance record per deduplicated alarm");
    let a = &m.alarms[0];
    assert_eq!(a.kind, "div_by_zero");
    assert_eq!(a.domain, "int_interval");
    assert_eq!(a.stmt, result.alarms[0].stmt.0);
    assert_eq!(a.line, result.alarms[0].loc.line);
    assert!(a.loop_id.is_some(), "the injected bug sits inside the reactive loop");
    assert!(a.iteration.is_some());
}

#[test]
fn recording_does_not_change_results() {
    let src = generate(&GenConfig { channels: 3, seed: 11, bug: Some(BugKind::IntOverflow) });
    let p = Frontend::new().compile_str(&src).expect("compiles");
    let plain = AnalysisSession::builder(&p).build().run();
    let collector = Collector::new();
    let recorded = AnalysisSession::builder(&p).recorder(&collector).build().run();
    assert_eq!(plain.alarms, recorded.alarms);
    assert_eq!(plain.main_census, recorded.main_census);
    assert_eq!(plain.stats.loop_iterations, recorded.stats.loop_iterations);
}

#[test]
fn panicking_slice_falls_back_to_identical_sequential_replay() {
    let src = generate(&GenConfig { channels: 6, seed: 42, bug: Some(BugKind::DivByZero) });
    let p = Frontend::new().compile_str(&src).expect("compiles");

    let seq = AnalysisSession::builder(&p).build().run();

    let mut cfg = AnalysisConfig::default();
    cfg.jobs = 4;
    cfg.debug_panic_slice = Some(0);
    let collector = Collector::new();
    let par = AnalysisSession::builder(&p).config(cfg).recorder(&collector).build().run();
    let m = collector.snapshot();

    // The injected worker panic must be contained: the stage replays
    // sequentially and every observable matches the sequential analysis.
    assert_eq!(seq.alarms, par.alarms, "panic fallback changed the alarm list");
    assert_eq!(seq.main_census, par.main_census, "panic fallback changed the invariant");
    assert_eq!(par.stats.parallel_stages, 0, "every sliced stage must have fallen back");

    // ... and the reason is recorded in the metrics.
    let n = m.scheduler.fallbacks.get("worker_panic").copied().unwrap_or(0);
    assert!(n > 0, "worker_panic fallback recorded, got {:?}", m.scheduler.fallbacks);
}

#[test]
fn batch_metrics_record_job_outcomes_with_reasons() {
    let fleet = vec![
        JobSpec::new("clean", generate(&GenConfig { channels: 1, seed: 1, bug: None })),
        JobSpec::new("poison", "int x; @!#"),
        JobSpec::new(
            "buggy",
            generate(&GenConfig { channels: 1, seed: 2, bug: Some(BugKind::DivByZero) }),
        ),
    ];
    let collector = Arc::new(Collector::new());
    let rec: Arc<dyn astree::obs::Recorder> = Arc::clone(&collector) as _;
    let report = FleetSession::builder().jobs(fleet).threads(2).recorder(rec).run();
    assert_eq!(report.outcomes.len(), 3);

    let m = collector.snapshot();
    assert_eq!(m.scheduler.batch_jobs.len(), 3);
    let by_name = |n: &str| m.scheduler.batch_jobs.iter().find(|j| j.name == n).unwrap();
    assert_eq!(by_name("clean").status, "done");
    assert_eq!(by_name("clean").alarms, Some(0));
    assert_ne!(by_name("poison").status, "done");
    assert!(by_name("poison").reason.is_some(), "failure reason recorded");
    assert_eq!(by_name("buggy").alarms, Some(1));
}

#[test]
fn batch_metrics_record_timeouts() {
    let fleet =
        vec![JobSpec::new("big", generate(&GenConfig { channels: 12, seed: 5, bug: None }))];
    let collector = Arc::new(Collector::new());
    let rec: Arc<dyn astree::obs::Recorder> = Arc::clone(&collector) as _;
    let report = FleetSession::builder()
        .jobs(fleet)
        .timeout(Some(Duration::from_nanos(1)))
        .recorder(rec)
        .run();
    assert_eq!(report.outcomes[0].status, JobStatus::TimedOut);
    let m = collector.snapshot();
    assert_eq!(m.scheduler.batch_jobs[0].status, "timed-out");
}

#[test]
fn json_document_has_the_documented_shape() {
    let src = generate(&GenConfig { channels: 2, seed: 1, bug: Some(BugKind::DivByZero) });
    let mut cfg = AnalysisConfig::default();
    cfg.jobs = 2;
    let (_, m) = collect(&src, cfg);
    let j = m.to_json();
    assert_eq!(j.get("schema"), Some(&Json::str(SCHEMA)));
    for key in ["functions", "domains", "phases", "alarms", "scheduler"] {
        assert!(j.get(key).is_some(), "top-level key {key}");
    }
    let sched = j.get("scheduler").unwrap();
    for key in
        ["stages", "slices", "merges", "merge_nanos", "plan_nanos", "fallbacks", "batch_jobs"]
    {
        assert!(sched.get(key).is_some(), "scheduler key {key}");
    }
    // `core.frames`: every call of the entry function is accounted for, on
    // its frame or on the caller's state with the reason.
    let frames = j.get("core").and_then(|c| c.get("frames")).expect("core.frames");
    for key in ["calls_framed", "calls_whole", "frames", "cells_per_frame", "packs_per_frame"] {
        assert!(frames.get(key).is_some(), "core.frames key {key}");
    }
    let whole = frames.get("calls_whole").unwrap();
    for key in ["wait", "depth_cap"] {
        assert!(whole.get(key).is_some(), "core.frames.calls_whole key {key}");
    }
    let count = |j: Option<&Json>| match j {
        Some(Json::UInt(n)) => *n,
        other => panic!("not a count: {other:?}"),
    };
    let calls = count(frames.get("calls_framed"))
        + ["wait", "depth_cap"].iter().map(|k| count(whole.get(k))).sum::<u64>();
    // A `reference` build runs them on the whole state, uncounted.
    let fast = !cfg!(feature = "reference");
    assert_eq!(calls > 0, fast, "a 2-channel member calls its two stepK every iteration");
    let rendered = j.to_string();
    assert_eq!(rendered.matches('{').count(), rendered.matches('}').count());
    assert!(rendered.contains("\"div_by_zero\""));
}

#[test]
fn sequential_sessions_never_spin_a_worker_pool() {
    // `--jobs 1` must not construct pool threads: the scheduler section of
    // the metrics carries pool counters only when a pool actually ran.
    let src = generate(&GenConfig { channels: 4, seed: 3, bug: None });
    let (_, m) = collect(&src, AnalysisConfig::default());
    assert!(
        m.scheduler.pool.is_none(),
        "jobs=1 session recorded pool counters: {:?}",
        m.scheduler.pool
    );

    let mut cfg = AnalysisConfig::default();
    cfg.jobs = 3;
    let (_, m) = collect(&src, cfg);
    let pool = m.scheduler.pool.expect("jobs=3 session records pool counters");
    assert_eq!(pool.workers, 3);
}
