//! The `astree-campaign/1` report schema: a JSON summary of one fuzzing
//! campaign, with optional alarm-census deltas against a baseline report.
//!
//! ```json
//! {
//!   "schema": "astree-campaign/1",
//!   "members": 24, "executions": 72, "states_checked": 1234567,
//!   "inconclusive": 0,
//!   "alarm_census": { "div_by_zero": 6 },
//!   "divergences": [ { "member": "ch1-seed4", "channels": 1, ... } ],
//!   "premise_failures": [ { "member": "ch2-seed1", "func": "step1", "loop": 0 } ],
//!   "baseline_delta": { "div_by_zero": 1 }
//! }
//! ```
//!
//! `premise_failures` is present only when an invariant failed its premise
//! test, so a passing campaign's report keeps its bytes.

use crate::campaign::{Campaign, Divergence, DivergenceKind};
use astree_obs::Json;
use std::collections::BTreeMap;

/// Schema identifier emitted in every report.
pub const SCHEMA: &str = "astree-campaign/1";

fn divergence_json(d: &Divergence) -> Json {
    let mut pairs: Vec<(&str, Json)> = vec![
        ("member", Json::str(d.member.label())),
        ("channels", Json::UInt(d.member.channels as u64)),
        ("gen_seed", Json::UInt(d.member.gen_seed)),
        (
            "bug",
            match d.member.bug {
                Some(b) => Json::str(format!("{b:?}")),
                None => Json::Null,
            },
        ),
        ("exec_seed", Json::UInt(d.exec_seed)),
        ("stmt", Json::UInt(d.stmt as u64)),
        ("tick", Json::UInt(d.tick)),
        ("shrunk", Json::Bool(d.shrunk)),
    ];
    match &d.kind {
        DivergenceKind::Escape { cell, value, abs } => {
            pairs.push(("kind", Json::str("escape")));
            pairs.push(("cell", Json::str(cell.clone())));
            pairs.push(("value", Json::str(value.clone())));
            pairs.push(("abs", Json::str(abs.clone())));
        }
        DivergenceKind::Unreachable => {
            pairs.push(("kind", Json::str("unreachable")));
        }
        DivergenceKind::MissedError { kind } => {
            pairs.push(("kind", Json::str("missed_error")));
            pairs.push(("error", Json::str(*kind)));
        }
    }
    Json::obj(pairs)
}

/// Renders a campaign as an `astree-campaign/1` JSON tree. `baseline`
/// (a previously emitted report, parsed) contributes an `alarm_census`
/// delta: positive numbers are alarms gained since the baseline.
pub fn campaign_to_json(c: &Campaign, baseline: Option<&Json>) -> Json {
    let census =
        Json::obj(c.alarm_census.iter().map(|(k, n)| (*k, Json::UInt(*n))).collect::<Vec<_>>());
    let mut pairs: Vec<(&str, Json)> = vec![
        ("schema", Json::str(SCHEMA)),
        ("members", Json::UInt(c.members)),
        ("executions", Json::UInt(c.executions)),
        ("states_checked", Json::UInt(c.states_checked)),
        ("inconclusive", Json::UInt(c.inconclusive)),
        ("divergence_count", Json::UInt(c.divergences.len() as u64)),
        ("alarm_census", census),
        ("divergences", Json::Arr(c.divergences.iter().map(divergence_json).collect())),
    ];
    let failures: Vec<Json> = c
        .premise_failures()
        .map(|(spec, (func, id))| {
            let loop_id = Json::UInt((*id).into());
            Json::obj([
                ("member", Json::str(spec.label())),
                ("func", Json::str(func)),
                ("loop", loop_id),
            ])
        })
        .collect();
    if !failures.is_empty() {
        pairs.push(("premise_failures", Json::Arr(failures)));
    }
    if let Some(base) = baseline {
        let mut delta: BTreeMap<String, i64> = BTreeMap::new();
        for (k, n) in &c.alarm_census {
            delta.insert((*k).to_string(), *n as i64);
        }
        if let Some(Json::Obj(base_census)) = base.get("alarm_census") {
            for (k, v) in base_census {
                let old = v.as_u64().unwrap_or(0) as i64;
                *delta.entry(k.clone()).or_insert(0) -= old;
            }
        }
        delta.retain(|_, d| *d != 0);
        pairs.push((
            "baseline_delta",
            Json::obj(delta.into_iter().map(|(k, d)| (k, Json::Int(d))).collect::<Vec<_>>()),
        ));
    }
    Json::obj(pairs)
}

/// The headline counters parsed back from an `astree-campaign/1` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Members analyzed.
    pub members: u64,
    /// Executions run.
    pub executions: u64,
    /// Concrete states checked.
    pub states_checked: u64,
    /// Inconclusive executions.
    pub inconclusive: u64,
    /// Divergences reported.
    pub divergences: u64,
    /// Alarm census by kind slug.
    pub alarm_census: BTreeMap<String, u64>,
}

/// Parses an `astree-campaign/1` report.
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong schema identifier, or
/// missing counters.
pub fn parse_summary(text: &str) -> Result<CampaignSummary, String> {
    let json = Json::parse(text)?;
    let schema = json.get("schema").and_then(Json::as_str).unwrap_or_default();
    if schema != SCHEMA {
        return Err(format!("expected schema {SCHEMA}, got {schema:?}"));
    }
    let counter = |key: &str| -> Result<u64, String> {
        json.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing counter {key}"))
    };
    let mut alarm_census = BTreeMap::new();
    if let Some(Json::Obj(census)) = json.get("alarm_census") {
        for (k, v) in census {
            alarm_census.insert(k.clone(), v.as_u64().unwrap_or(0));
        }
    }
    Ok(CampaignSummary {
        members: counter("members")?,
        executions: counter("executions")?,
        states_checked: counter("states_checked")?,
        inconclusive: counter("inconclusive")?,
        divergences: counter("divergence_count")?,
        alarm_census,
    })
}
