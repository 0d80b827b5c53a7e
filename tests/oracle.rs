//! Integration tests for the differential soundness oracle: bounded
//! campaigns over the generated family, at any thread count, planted-divergence
//! detection with stable shrinking, report round-tripping, and a regression
//! test for the checking-pass soundness bug the oracle itself discovered.

use astree::core::{AnalysisConfig, AnalysisSession};
use astree::frontend::Frontend;
use astree::gen::{BugKind, StructKnobs};
use astree::obs::Json;
use astree::oracle::{
    build_corpus, campaign_to_json, parse_summary, run_campaign, run_member, Campaign,
    DivergenceKind, MemberSpec, OracleConfig, SCHEMA,
};

fn bounded_cfg() -> OracleConfig {
    OracleConfig { members: 8, seeds: 2, ticks: 12, channels_max: 3, ..OracleConfig::default() }
}

/// The bounded CI-scale campaign: a corpus mixing channel counts,
/// structural knobs and injected (alarmed) faults must produce zero
/// divergences — every concrete state inside the invariants, every
/// concrete error covered by an alarm.
#[test]
fn bounded_campaign_has_zero_divergences() {
    let campaign = run_campaign(&bounded_cfg(), 1);
    assert_eq!(campaign.members, 8);
    assert_eq!(campaign.runs.len(), 8, "one result per member");
    for (spec, result) in &campaign.runs {
        let outcome = result.as_ref().unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
        assert!(outcome.executions > 0, "{}: no executions", spec.label());
    }
    assert!(campaign.divergences.is_empty(), "{:?}", campaign.divergences);
    assert!(campaign.states_checked > 10_000, "oracle barely exercised: {campaign:?}");
    assert!(
        campaign.alarm_census.contains_key("div_by_zero"),
        "fault variants should alarm: {:?}",
        campaign.alarm_census
    );
}

/// The one campaign driver scatters its members over threads and folds them
/// in corpus order: the report and every member's outcome are the same at
/// one thread and at four.
#[test]
fn threaded_campaign_matches_the_sequential_one() {
    let one = run_campaign(&bounded_cfg(), 1);
    let four = run_campaign(&bounded_cfg(), 4);
    assert_eq!(
        campaign_to_json(&four, None).to_compact(),
        campaign_to_json(&one, None).to_compact()
    );
    let labels = |c: &Campaign| c.runs.iter().map(|(s, _)| s.label()).collect::<Vec<_>>();
    let corpus: Vec<String> = build_corpus(&bounded_cfg()).iter().map(MemberSpec::label).collect();
    assert_eq!(labels(&one), corpus, "corpus order");
    assert_eq!(four.runs, one.runs);
}

/// A planted divergence (fault-injected empty invariant for one cell) is
/// detected, shrunk to the minimal witness, and survives a JSON round trip
/// with all its fields.
#[test]
fn planted_divergence_shrinks_and_round_trips() {
    let mut cfg = bounded_cfg();
    cfg.members = 4;
    cfg.channels_max = 2;
    cfg.debug_tighten_cell = Some("count0".into());
    let campaign = run_campaign(&cfg, 1);
    assert!(!campaign.divergences.is_empty(), "planted divergence missed");
    let d = &campaign.divergences[0];
    assert!(d.shrunk);
    assert_eq!(d.member.channels, 1, "not minimal: {d:?}");
    assert_eq!(d.exec_seed, 0, "not minimal: {d:?}");
    assert_eq!(d.tick, 0, "not minimal: {d:?}");
    assert!(matches!(&d.kind, DivergenceKind::Escape { cell, .. } if cell == "count0"), "{d:?}");

    let json = campaign_to_json(&campaign, None);
    let text = json.to_compact();
    let parsed = Json::parse(&text).expect("valid JSON");
    assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
    let divs = match parsed.get("divergences") {
        Some(Json::Arr(a)) => a,
        other => panic!("divergences not an array: {other:?}"),
    };
    assert_eq!(divs.len(), campaign.divergences.len());
    let first = &divs[0];
    assert_eq!(first.get("kind").and_then(Json::as_str), Some("escape"));
    assert_eq!(first.get("cell").and_then(Json::as_str), Some("count0"));
    assert_eq!(first.get("channels").and_then(Json::as_u64), Some(1));
    assert_eq!(first.get("shrunk"), Some(&Json::Bool(true)));
    let summary = parse_summary(&text).expect("parses back");
    assert_eq!(summary.divergences, campaign.divergences.len() as u64);
    assert_eq!(summary.members, campaign.members);

    // The failing report drives a non-zero exit in `astree fuzz`; here we
    // assert the count the CLI keys on is faithfully serialized.
    assert!(summary.divergences > 0);
}

/// Golden report: the exact shape of a clean bounded campaign's JSON,
/// pinned field by field so schema drift is a conscious choice.
#[test]
fn golden_report_shape() {
    let cfg = OracleConfig {
        members: 2,
        seeds: 1,
        ticks: 6,
        channels_max: 1,
        include_bugs: false,
        ..OracleConfig::default()
    };
    let campaign = run_campaign(&cfg, 1);
    let baseline = Json::parse(
        r#"{"schema":"astree-campaign/1","members":2,"executions":2,
            "states_checked":1,"inconclusive":0,"divergence_count":0,
            "alarm_census":{"div_by_zero":1}}"#,
    )
    .unwrap();
    let json = campaign_to_json(&campaign, Some(&baseline));
    for key in [
        "schema",
        "members",
        "executions",
        "states_checked",
        "inconclusive",
        "divergence_count",
        "alarm_census",
        "divergences",
        "baseline_delta",
    ] {
        assert!(json.get(key).is_some(), "missing field {key}");
    }
    assert_eq!(json.get("divergence_count").and_then(Json::as_u64), Some(0));
    // The clean campaign raised no div_by_zero alarms, so the delta reports
    // the baseline's one as lost.
    let delta = json.get("baseline_delta").unwrap();
    assert_eq!(delta.get("div_by_zero"), Some(&Json::Int(-1)));
}

/// Regression test for the checking-pass soundness bug the oracle found
/// during development (and which is fixed in this tree).
///
/// Iteration mode stores loop invariants by overwrite, so a nested loop
/// re-solved once per outer iteration keeps only the *last* visit's
/// invariant — the one for the outer residual context. The checking pass
/// used to replay *every* context (including the unrolled first outer
/// iteration, where e.g. `bug_num` is still 0, not yet in [100,100])
/// against that stale invariant, tightening downstream states unsoundly:
/// on `ch1-seed3-bugDivByZero` the concrete `bug_num = 0` escaped the
/// claimed `[100, 100]` right after the inner history-shift loop.
///
/// The checking pass now keeps no per-loop invariant: it takes the main
/// loop's alone and solves every other loop in the context it arrives in
/// (`stats.loops_rechecked`).
#[test]
fn nested_loop_context_recheck_regression() {
    let spec = MemberSpec {
        channels: 1,
        gen_seed: 3,
        bug: Some(BugKind::DivByZero),
        knobs: StructKnobs::default(),
    };
    let mut cfg = OracleConfig {
        members: 1,
        seeds: 20,
        ticks: 6,
        channels_max: 1,
        ..OracleConfig::default()
    };
    cfg.shrink = false;
    let outcome = run_member(&spec, &cfg).unwrap();
    assert!(
        outcome.divergences.is_empty(),
        "nested-loop invariant overwrite regressed: {:?}",
        outcome.divergences
    );
    assert!(outcome.alarms.contains_key("div_by_zero"), "{:?}", outcome.alarms);

    // The fix is observable: the member's checking pass solves its inner
    // loops in context.
    let src = spec.source();
    let p = Frontend::new().compile_str(&src).unwrap();
    let mut analysis = AnalysisConfig::default();
    analysis.collect_stmt_invariants = true;
    let result = AnalysisSession::builder(&p).config(analysis).build().run();
    assert!(
        result.stats.loops_rechecked >= 1,
        "expected in-context solves, got {}",
        result.stats.loops_rechecked
    );
}
