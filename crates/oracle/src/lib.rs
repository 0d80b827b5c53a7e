//! Differential soundness oracle for the analyzer.
//!
//! The paper's core claim (Sect. 5.4) is that every concrete execution of
//! the subject program is contained in the computed invariants. This crate
//! tests that claim at corpus scale: it generates family members
//! ([`astree_gen`]), analyzes each one with per-statement invariant
//! collection ([`astree_core`]'s `collect_stmt_invariants`), then drives the
//! reference interpreter ([`astree_ir::Interp`]) on seeded random volatile
//! inputs with an observer asserting, at *every executed statement*, that
//! the concrete store lies inside the rendered abstract state — plus the
//! dual obligation that every concrete run-time error is covered by an
//! alarm of the same kind at the same statement.
//!
//! On divergence the counterexample is shrunk (fewest channels, smallest
//! execution seed, shortest input stream) and reported through the
//! `astree-campaign/1` JSON schema.
//!
//! # Example
//!
//! ```
//! use astree_oracle::{run_campaign, OracleConfig};
//!
//! let cfg = OracleConfig {
//!     members: 2,
//!     seeds: 1,
//!     ticks: 5,
//!     include_bugs: false,
//!     ..OracleConfig::default()
//! };
//! let campaign = run_campaign(&cfg, 1);
//! assert_eq!(campaign.members, 2);
//! assert!(campaign.divergences.is_empty());
//! ```

mod campaign;
mod contain;
mod report;
mod shrink;

pub use campaign::{
    analyze_member, build_corpus, error_alarm_kind, event_alarm_kind, run_campaign, run_execution,
    run_member, AnalyzedMember, Campaign, Divergence, DivergenceKind, ExecRecord, MemberError,
    MemberOutcome, MemberSpec, OracleConfig,
};
pub use contain::{
    clock_in, render_abs, render_value, value_in, CellTable, PreparedInvariants, StmtInvariant,
};
pub use report::{campaign_to_json, parse_summary, CampaignSummary, SCHEMA};
pub use shrink::shrink_divergence;

#[cfg(test)]
mod tests {
    use super::*;
    use astree_gen::StructKnobs;
    use astree_ir::{Value, VarId};
    use astree_obs::Json;

    fn tiny_cfg() -> OracleConfig {
        OracleConfig {
            members: 1,
            seeds: 2,
            ticks: 6,
            channels_max: 1,
            include_bugs: false,
            shrink: true,
            ..OracleConfig::default()
        }
    }

    fn tiny_member() -> MemberSpec {
        MemberSpec { channels: 1, gen_seed: 1, bug: None, knobs: StructKnobs::default() }
    }

    #[test]
    fn cell_table_maps_scalars_arrays_and_records() {
        let spec = tiny_member();
        let am = analyze_member(&spec, &tiny_cfg()).unwrap();
        let p = &am.program;
        // Scalar: the volatile input of channel 0.
        let in0 = p
            .vars
            .iter()
            .position(|v| v.name == "in0")
            .map(|i| VarId(i as u32))
            .expect("in0 exists");
        let cell = am.table.lookup(in0, &[]).expect("in0 maps");
        assert_eq!(am.layout.info(cell).name, "in0");
        // Expanded array: tbl0[3].
        let tbl0 = p
            .vars
            .iter()
            .position(|v| v.name == "tbl0")
            .map(|i| VarId(i as u32))
            .expect("tbl0 exists");
        let cell = am.table.lookup(tbl0, &[3]).expect("tbl0[3] maps");
        assert_eq!(am.layout.info(cell).name, "tbl0[3]");
        // Record: range0.lo is field 0.
        let range0 = p
            .vars
            .iter()
            .position(|v| v.name == "range0")
            .map(|i| VarId(i as u32))
            .expect("range0 exists");
        let cell = am.table.lookup(range0, &[0]).expect("range0.lo maps");
        assert_eq!(am.layout.info(cell).name, "range0.lo");
    }

    #[test]
    fn clean_member_has_no_divergences() {
        // Without the clocked domain the `x ± clock` parts are not kept, and
        // only the values are checked.
        let mut unclocked = tiny_cfg();
        unclocked.analysis.enable_clocked = false;
        for cfg in [tiny_cfg(), unclocked] {
            let outcome = run_member(&tiny_member(), &cfg).unwrap();
            assert!(outcome.divergences.is_empty(), "{:?}", outcome.divergences);
            assert_eq!(outcome.executions, 2);
            assert!(outcome.states_checked > 0);
            assert_eq!(outcome.inconclusive, 0);
        }
    }

    #[test]
    fn bug_member_alarms_cover_concrete_errors() {
        // An injected, alarmed fault must NOT read as a missed error.
        let spec = MemberSpec {
            channels: 1,
            gen_seed: 3,
            bug: Some(astree_gen::BugKind::DivByZero),
            knobs: StructKnobs::default(),
        };
        let mut cfg = tiny_cfg();
        cfg.seeds = 20; // enough seeds that the division by zero fires
        let outcome = run_member(&spec, &cfg).unwrap();
        assert!(
            outcome.divergences.is_empty(),
            "alarmed bug misread as divergence: {:?}",
            outcome.divergences
        );
        assert!(outcome.alarms.contains_key("div_by_zero"), "{:?}", outcome.alarms);
    }

    #[test]
    fn planted_divergence_is_detected_and_shrinks_stably() {
        let mut cfg = tiny_cfg();
        cfg.channels_max = 2;
        cfg.debug_tighten_cell = Some("count0".into());
        let spec =
            MemberSpec { channels: 2, gen_seed: 1, bug: None, knobs: StructKnobs::default() };
        let outcome = run_member(&spec, &cfg).unwrap();
        assert_eq!(outcome.divergences.len(), 1);
        let d = &outcome.divergences[0];
        assert!(d.shrunk);
        // Shrinks to the single-channel member (count0 exists there too),
        // the first execution seed, and the earliest tick.
        assert_eq!(d.member.channels, 1, "{d:?}");
        assert_eq!(d.exec_seed, 0, "{d:?}");
        assert_eq!(d.tick, 0, "{d:?}");
        assert!(
            matches!(&d.kind, DivergenceKind::Escape { cell, .. } if cell == "count0"),
            "{d:?}"
        );
        // Determinism: the same campaign shrinks to the same witness.
        let again = run_member(&spec, &cfg).unwrap();
        assert_eq!(outcome.divergences, again.divergences);
    }

    #[test]
    fn report_round_trips_through_json_parse() {
        let mut cfg = tiny_cfg();
        cfg.members = 2;
        let campaign = run_campaign(&cfg, 1);
        let json = campaign_to_json(&campaign, None);
        let text = json.to_compact();
        let summary = parse_summary(&text).expect("parses back");
        assert_eq!(summary.members, campaign.members);
        assert_eq!(summary.executions, campaign.executions);
        assert_eq!(summary.states_checked, campaign.states_checked);
        assert_eq!(summary.divergences, campaign.divergences.len() as u64);
    }

    #[test]
    fn a_failed_premise_fails_the_campaign() {
        let outcome = run_member(&tiny_member(), &tiny_cfg()).unwrap();
        assert!(outcome.premise_failed.is_empty());
        let mut campaign = Campaign::default();
        campaign.runs.push((outcome.spec.clone(), Ok(outcome.clone())));
        assert!(campaign.passed());
        let passing = campaign_to_json(&campaign, None);
        assert!(passing.get("premise_failures").is_none(), "a passing report keeps its bytes");
        // The same member with an invariant that failed its premise test,
        // and no execution reaching what it wrongly excludes.
        let unsound = MemberOutcome { premise_failed: vec![("step0".into(), 1)], ..outcome };
        campaign.runs.push((unsound.spec.clone(), Ok(unsound.clone())));
        assert!(!campaign.passed(), "a failed premise must fail the campaign");
        let failing = campaign_to_json(&campaign, None);
        let want = Json::obj([
            ("member", Json::str(unsound.spec.label())),
            ("func", Json::str("step0")),
            ("loop", Json::UInt(1)),
        ]);
        assert_eq!(failing.get("premise_failures"), Some(&Json::Arr(vec![want])));
    }

    #[test]
    fn baseline_delta_reports_alarm_drift() {
        let baseline = Json::parse(
            r#"{"schema":"astree-campaign/1","members":1,"executions":1,
                "states_checked":1,"inconclusive":0,"divergence_count":0,
                "alarm_census":{"div_by_zero":2,"int_overflow":1}}"#,
        )
        .unwrap();
        let mut c = Campaign::default();
        c.alarm_census.insert("div_by_zero", 3);
        let json = campaign_to_json(&c, Some(&baseline));
        let delta = json.get("baseline_delta").expect("delta present");
        assert_eq!(delta.get("div_by_zero"), Some(&Json::Int(1)));
        assert_eq!(delta.get("int_overflow"), Some(&Json::Int(-1)));
    }

    #[test]
    fn parse_summary_rejects_foreign_schemas() {
        assert!(parse_summary(r#"{"schema":"astree-metrics/1"}"#).is_err());
        assert!(parse_summary("not json").is_err());
        assert!(parse_summary(r#"{"schema":"astree-campaign/1"}"#).is_err());
    }

    #[test]
    fn corpus_is_deterministic_and_sized() {
        let cfg = OracleConfig { members: 24, ..OracleConfig::default() };
        let a = build_corpus(&cfg);
        let b = build_corpus(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 24);
        assert!(a.iter().any(|m| m.bug.is_some()), "corpus should carry fault variants");
        assert!(
            a.iter().any(|m| m.knobs != StructKnobs::default()),
            "corpus should vary structural knobs"
        );
    }

    #[test]
    fn value_in_matches_domain_semantics() {
        use astree_domains::{Clocked, FloatItv, IntItv};
        use astree_memory::CellVal;
        let int_cell = CellVal::Int(Clocked::of_val(IntItv::new(-5, 5), IntItv::new(0, 100)));
        assert!(value_in(&int_cell, &Value::Int(0), 3));
        assert!(!value_in(&int_cell, &Value::Int(6), 3));
        // Type mismatch is a divergence, not a pass.
        assert!(!value_in(&int_cell, &Value::Float(0.0), 3));
        let float_cell = CellVal::Float(FloatItv::new(0.0, 1.0));
        assert!(value_in(&float_cell, &Value::Float(0.5), 3));
        // −0.0 is numerically inside [0.0, 1.0] (numeric order, not bitwise).
        assert!(value_in(&float_cell, &Value::Float(-0.0), 3));
        assert!(!value_in(&float_cell, &Value::Float(1.5), 3));
        assert!(clock_in(IntItv::new(0, 100), 3) && !clock_in(IntItv::new(4, 100), 3));
    }

    /// The clocked parts are checked against the run's tick count `t`: a
    /// counter whose `x − clock` a tick left unshifted at `[0, 0]` holds
    /// `x = 3` at `t = 3`, and lets it escape at `t = 4` (`x − t = −1`),
    /// although its value interval holds it. The fault itself is planted in
    /// `Clocked::tick` by the domain's own tests.
    #[test]
    fn value_in_checks_the_clocked_parts_against_the_ticks() {
        use astree_domains::{Clocked, IntItv};
        use astree_memory::CellVal;
        let unshifted = Clocked {
            val: IntItv::new(0, 10),
            minus: IntItv::singleton(0),
            plus: IntItv::new(0, 20),
        };
        let cell = CellVal::Int(unshifted);
        assert!(value_in(&cell, &Value::Int(3), 3));
        assert!(unshifted.val.contains(3));
        assert!(!value_in(&cell, &Value::Int(3), 4), "x − ticks = −1 is outside x − clock");
        assert!(!value_in(&cell, &Value::Int(9), 12), "x + ticks = 21 is outside x + clock");
    }
}
