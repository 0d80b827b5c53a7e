//! JSON codecs for the `astree-serve/2` `run` and `result` frames.
//!
//! Determinism across processes is the point of the fleet, so the codecs
//! are exact. The configuration encodes itself: a spec's `overrides` is an
//! `AnalysisConfig::to_json` object, partial or whole (floats as IEEE-754
//! bit patterns, sets sorted), and the serving process patches it on bit
//! for bit with `AnalysisConfig::patch`.

use crate::job::{JobOutcome, JobSpec, JobStatus, OracleJob};
use crate::proto::SYNC_BYTES_CAP;
use astree_core::{AlarmKind, AnalysisConfig, InvariantStore};
use astree_gen::{BugKind, StructKnobs};
use astree_obs::Json;
use astree_oracle::{Divergence, DivergenceKind, MemberOutcome, MemberSpec};
use std::collections::BTreeMap;
use std::time::Duration;

/// All alarm kinds, for slug interning.
const ALARM_KINDS: [AlarmKind; 7] = [
    AlarmKind::DivByZero,
    AlarmKind::IntOverflow,
    AlarmKind::FloatOverflow,
    AlarmKind::InvalidFloatOp,
    AlarmKind::ShiftRange,
    AlarmKind::OutOfBounds,
    AlarmKind::InvalidCast,
];

/// Interns an alarm-kind slug coming off the wire back to the `&'static`
/// string the in-process types carry.
fn intern_alarm_slug(s: &str) -> Result<&'static str, String> {
    ALARM_KINDS
        .into_iter()
        .map(AlarmKind::slug)
        .find(|k| *k == s)
        .ok_or_else(|| format!("unknown alarm kind slug {s:?}"))
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field {key}"))
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, String> {
    obj.get(key).and_then(Json::as_bool).ok_or_else(|| format!("missing bool field {key}"))
}

fn get_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key}"))
}

fn opt_str(obj: &Json, key: &str) -> Option<String> {
    obj.get(key).and_then(Json::as_str).map(str::to_string)
}

fn get_str_arr(obj: &Json, key: &str) -> Result<Vec<String>, String> {
    match obj.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| v.as_str().map(str::to_string).ok_or_else(|| format!("{key}: not a string")))
            .collect(),
        _ => Err(format!("missing array field {key}")),
    }
}

// ---------------------------------------------------------------------------
// JobSpec
// ---------------------------------------------------------------------------

fn bug_to_json(b: Option<BugKind>) -> Json {
    match b {
        Some(b) => Json::str(format!("{b:?}")),
        None => Json::Null,
    }
}

fn bug_from_json(j: Option<&Json>) -> Result<Option<BugKind>, String> {
    match j.and_then(Json::as_str) {
        None => Ok(None),
        Some("DivByZero") => Ok(Some(BugKind::DivByZero)),
        Some("OutOfBounds") => Ok(Some(BugKind::OutOfBounds)),
        Some("IntOverflow") => Ok(Some(BugKind::IntOverflow)),
        Some(other) => Err(format!("unknown bug kind {other:?}")),
    }
}

/// Encodes a corpus member spec.
pub fn member_spec_to_json(m: &MemberSpec) -> Json {
    Json::obj([
        ("channels", Json::UInt(m.channels as u64)),
        ("gen_seed", Json::UInt(m.gen_seed)),
        ("bug", bug_to_json(m.bug)),
        ("hist_depth", Json::UInt(m.knobs.hist_depth as u64)),
        ("tbl_size", Json::UInt(m.knobs.tbl_size as u64)),
        ("phase_mod", Json::UInt(m.knobs.phase_mod as u64)),
        ("cross_couple", Json::Bool(m.knobs.cross_couple)),
    ])
}

/// Decodes a corpus member spec.
pub fn member_spec_from_json(j: &Json) -> Result<MemberSpec, String> {
    Ok(MemberSpec {
        channels: get_u64(j, "channels")? as usize,
        gen_seed: get_u64(j, "gen_seed")?,
        bug: bug_from_json(j.get("bug"))?,
        knobs: StructKnobs {
            hist_depth: get_u64(j, "hist_depth")? as usize,
            tbl_size: get_u64(j, "tbl_size")? as usize,
            phase_mod: get_u64(j, "phase_mod")? as usize,
            cross_couple: get_bool(j, "cross_couple")?,
        },
    })
}

/// Encodes a job spec for a `run` request.
pub fn spec_to_json(s: &JobSpec) -> Json {
    let oracle = match &s.oracle {
        Some(o) => Json::obj([
            ("spec", member_spec_to_json(&o.spec)),
            ("seeds", Json::UInt(o.seeds)),
            ("ticks", Json::UInt(o.ticks)),
            ("max_steps", Json::UInt(o.max_steps)),
            ("shrink", Json::Bool(o.shrink)),
            ("debug_tighten_cell", o.debug_tighten_cell.as_deref().map_or(Json::Null, Json::str)),
        ]),
        None => Json::Null,
    };
    Json::obj([
        ("name", Json::str(&s.name)),
        ("source", Json::str(&s.source)),
        ("overrides", s.overrides.clone()),
        ("oracle", oracle),
    ])
}

/// Decodes a job spec from a `run` request. Its `overrides` (absent or
/// `null`: none) must patch a configuration: an unknown key or a value of
/// the wrong type is an error naming the key, never an ignored override.
pub fn spec_from_json(j: &Json) -> Result<JobSpec, String> {
    let overrides = match j.get("overrides") {
        None | Some(Json::Null) => Json::Obj(Vec::new()),
        Some(o) => {
            AnalysisConfig::default().patch(o).map_err(|e| format!("overrides: {e}"))?;
            o.clone()
        }
    };
    let oracle = match j.get("oracle") {
        Some(o @ Json::Obj(_)) => Some(OracleJob {
            spec: member_spec_from_json(o.get("spec").ok_or("oracle: missing spec")?)?,
            seeds: get_u64(o, "seeds")?,
            ticks: get_u64(o, "ticks")?,
            max_steps: get_u64(o, "max_steps")?,
            shrink: get_bool(o, "shrink")?,
            debug_tighten_cell: opt_str(o, "debug_tighten_cell"),
        }),
        _ => None,
    };
    Ok(JobSpec { name: get_str(j, "name")?, source: get_str(j, "source")?, overrides, oracle })
}

// ---------------------------------------------------------------------------
// JobOutcome
// ---------------------------------------------------------------------------

fn divergence_to_json(d: &Divergence) -> Json {
    let (kind, fields): (&str, Vec<(&str, Json)>) = match &d.kind {
        DivergenceKind::Escape { cell, value, abs } => (
            "escape",
            vec![
                ("cell", Json::str(cell.clone())),
                ("value", Json::str(value.clone())),
                ("abs", Json::str(abs.clone())),
            ],
        ),
        DivergenceKind::Unreachable => ("unreachable", Vec::new()),
        DivergenceKind::MissedError { kind } => ("missed_error", vec![("error", Json::str(*kind))]),
    };
    let mut pairs = vec![
        ("member", member_spec_to_json(&d.member)),
        ("exec_seed", Json::UInt(d.exec_seed)),
        ("stmt", Json::UInt(d.stmt as u64)),
        ("tick", Json::UInt(d.tick)),
        ("shrunk", Json::Bool(d.shrunk)),
        ("kind", Json::str(kind)),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
}

fn divergence_from_json(j: &Json) -> Result<Divergence, String> {
    let kind = match j.get("kind").and_then(Json::as_str) {
        Some("escape") => DivergenceKind::Escape {
            cell: get_str(j, "cell")?,
            value: get_str(j, "value")?,
            abs: get_str(j, "abs")?,
        },
        Some("unreachable") => DivergenceKind::Unreachable,
        Some("missed_error") => {
            DivergenceKind::MissedError { kind: intern_alarm_slug(&get_str(j, "error")?)? }
        }
        other => return Err(format!("unknown divergence kind {other:?}")),
    };
    Ok(Divergence {
        member: member_spec_from_json(j.get("member").ok_or("divergence: missing member")?)?,
        exec_seed: get_u64(j, "exec_seed")?,
        stmt: get_u64(j, "stmt")? as u32,
        tick: get_u64(j, "tick")?,
        kind,
        shrunk: get_bool(j, "shrunk")?,
    })
}

fn member_outcome_to_json(m: &MemberOutcome) -> Json {
    Json::obj([
        ("spec", member_spec_to_json(&m.spec)),
        ("executions", Json::UInt(m.executions)),
        ("states_checked", Json::UInt(m.states_checked)),
        ("inconclusive", Json::UInt(m.inconclusive)),
        (
            "alarms",
            Json::obj(m.alarms.iter().map(|(k, n)| (*k, Json::UInt(*n))).collect::<Vec<_>>()),
        ),
        ("divergences", Json::Arr(m.divergences.iter().map(divergence_to_json).collect())),
    ])
}

fn member_outcome_from_json(j: &Json) -> Result<MemberOutcome, String> {
    let mut alarms: BTreeMap<&'static str, u64> = BTreeMap::new();
    if let Some(Json::Obj(census)) = j.get("alarms") {
        for (k, v) in census {
            alarms.insert(intern_alarm_slug(k)?, v.as_u64().unwrap_or(0));
        }
    }
    let divergences = match j.get("divergences") {
        Some(Json::Arr(items)) => {
            items.iter().map(divergence_from_json).collect::<Result<Vec<_>, _>>()?
        }
        _ => Vec::new(),
    };
    Ok(MemberOutcome {
        spec: member_spec_from_json(j.get("spec").ok_or("outcome: missing spec")?)?,
        executions: get_u64(j, "executions")?,
        states_checked: get_u64(j, "states_checked")?,
        inconclusive: get_u64(j, "inconclusive")?,
        alarms,
        divergences,
    })
}

/// Encodes a job outcome for a `result` frame.
pub fn outcome_to_json(o: &JobOutcome) -> Json {
    Json::obj([
        ("name", Json::str(&o.name)),
        ("status", Json::str(o.status.slug())),
        ("alarms", o.alarms.map_or(Json::Null, |n| Json::UInt(n as u64))),
        ("alarm_lines", Json::Arr(o.alarm_lines.iter().map(Json::str).collect())),
        ("main_invariant", o.main_invariant.as_deref().map_or(Json::Null, Json::str)),
        ("main_census", o.main_census.as_deref().map_or(Json::Null, Json::str)),
        ("cache_full_hit", Json::Bool(o.cache_full_hit)),
        ("wall_nanos", Json::UInt(o.wall.as_nanos() as u64)),
        ("detail", o.detail.as_deref().map_or(Json::Null, Json::str)),
        ("oracle", o.oracle.as_ref().map_or(Json::Null, member_outcome_to_json)),
    ])
}

/// Decodes a job outcome from a `result` frame. The scheduling fields the
/// worker cannot know (`worker`, `resent`) decode to zero; the coordinator
/// fills them in.
pub fn outcome_from_json(j: &Json) -> Result<JobOutcome, String> {
    let status = JobStatus::from_slug(&get_str(j, "status")?)
        .ok_or_else(|| format!("unknown status {:?}", j.get("status")))?;
    Ok(JobOutcome {
        name: get_str(j, "name")?,
        status,
        alarms: j.get("alarms").and_then(Json::as_u64).map(|n| n as usize),
        alarm_lines: get_str_arr(j, "alarm_lines").unwrap_or_default(),
        main_invariant: opt_str(j, "main_invariant"),
        main_census: opt_str(j, "main_census"),
        cache_full_hit: j.get("cache_full_hit").and_then(Json::as_bool).unwrap_or(false),
        wall: Duration::from_nanos(get_u64(j, "wall_nanos")?),
        worker: 0,
        resent: 0,
        detail: opt_str(j, "detail"),
        oracle: match j.get("oracle") {
            Some(o @ Json::Obj(_)) => Some(member_outcome_from_json(o)?),
            _ => None,
        },
    })
}

/// The outcomes a `result` frame carries, in submission order.
pub fn result_outcomes(frame: &Json) -> Result<Vec<JobOutcome>, String> {
    let (Some("result"), Some(Json::Arr(items))) =
        (frame.get("frame").and_then(Json::as_str), frame.get("outcomes"))
    else {
        return Err(format!("unexpected frame {}", frame.to_compact()));
    };
    items.iter().map(outcome_from_json).collect()
}

// ---------------------------------------------------------------------------
// Store files (`--cache-wire`)
// ---------------------------------------------------------------------------

/// Reads the store files `names` for a frame's `files`, up to
/// [`SYNC_BYTES_CAP`] bytes in all; a file that would overflow the bound
/// is left out (and rides a later job).
pub fn pack_files(store: &InvariantStore, names: Vec<String>) -> Vec<(String, String)> {
    let mut bytes = 0;
    names
        .into_iter()
        .filter_map(|name| {
            let text = store.export_file(&name)?;
            if bytes + text.len() > SYNC_BYTES_CAP {
                return None;
            }
            bytes += text.len();
            Some((name, text))
        })
        .collect()
}

/// Encodes store files as a frame's `files`: `[name, text]` pairs.
pub fn files_to_json(files: Vec<(String, String)>) -> Json {
    Json::Arr(files.into_iter().map(|(n, t)| Json::Arr(vec![Json::str(n), Json::str(t)])).collect())
}

/// The `[name, text]` store files a `run` or `result` frame carries.
pub fn frame_files(frame: &Json) -> impl Iterator<Item = (&str, &str)> {
    let items = match frame.get("files") {
        Some(Json::Arr(items)) => items.as_slice(),
        _ => &[],
    };
    items.iter().filter_map(|item| match item {
        Json::Arr(kv) => Some((kv.first()?.as_str()?, kv.get(1)?.as_str()?)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_and_outcome_round_trip() {
        let spec = JobSpec {
            name: "m1".into(),
            source: "int x;\n".into(),
            overrides: Json::obj([
                ("max_clock", Json::Int(50)),
                ("enable_octagons", Json::Bool(false)),
                ("partitioned_functions", Json::Arr(vec![Json::str("main")])),
            ]),
            oracle: Some(OracleJob {
                spec: MemberSpec {
                    channels: 2,
                    gen_seed: 9,
                    bug: Some(BugKind::DivByZero),
                    knobs: StructKnobs { hist_depth: 8, ..StructKnobs::default() },
                },
                seeds: 3,
                ticks: 40,
                max_steps: 1000,
                shrink: true,
                debug_tighten_cell: Some("count0".into()),
            }),
        };
        let text = spec_to_json(&spec).to_compact();
        let back = spec_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.source, spec.source);
        assert_eq!(back.overrides.to_compact(), spec.overrides.to_compact());
        let o = back.oracle.unwrap();
        assert_eq!(o.spec, spec.oracle.as_ref().unwrap().spec);
        assert_eq!(o.debug_tighten_cell.as_deref(), Some("count0"));

        let mut out = JobOutcome::empty("m1", JobStatus::Done);
        out.alarms = Some(2);
        out.alarm_lines = vec!["line 3: possible division by zero in `x / d`".into()];
        out.main_invariant = Some("x in [0, 4]\n".into());
        out.cache_full_hit = true;
        out.wall = Duration::from_nanos(1234);
        out.oracle = Some(MemberOutcome {
            spec: spec.oracle.as_ref().unwrap().spec.clone(),
            executions: 3,
            states_checked: 77,
            inconclusive: 1,
            alarms: BTreeMap::from([("div_by_zero", 2u64)]),
            divergences: vec![Divergence {
                member: spec.oracle.as_ref().unwrap().spec.clone(),
                exec_seed: 1,
                stmt: 5,
                tick: 2,
                kind: DivergenceKind::MissedError { kind: "int_overflow" },
                shrunk: true,
            }],
        });
        let text = outcome_to_json(&out).to_compact();
        let back = outcome_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.status, JobStatus::Done);
        assert_eq!(back.alarms, Some(2));
        assert_eq!(back.alarm_lines, out.alarm_lines);
        assert_eq!(back.main_invariant, out.main_invariant);
        assert!(back.cache_full_hit);
        assert_eq!(back.wall, out.wall);
        let m = back.oracle.unwrap();
        assert_eq!(m.executions, 3);
        assert_eq!(m.alarms.get("div_by_zero"), Some(&2));
        assert_eq!(m.divergences.len(), 1);
        assert_eq!(m.divergences[0].kind, DivergenceKind::MissedError { kind: "int_overflow" });
    }

    #[test]
    fn overrides_decode_strictly_and_name_the_offending_key() {
        let spec = |overrides: Json| {
            let named = [("name", Json::str("j")), ("source", Json::str(""))];
            spec_from_json(&Json::obj(named.into_iter().chain([("overrides", overrides)])))
        };
        // The old spellings are unknown keys now; a bad value names its key.
        for (key, bad) in [("octagons", Json::Bool(false)), ("enable_octagons", Json::UInt(1))]
            .into_iter()
            .chain([("loop_unroll", Json::str("x")), ("jobs", Json::UInt(0))])
        {
            let err = spec(Json::obj([(key, bad)])).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{err}");
        }
        let ok = spec(Json::obj([("loop_unroll", Json::UInt(2))])).unwrap();
        assert_eq!(ok.config(&AnalysisConfig::default()).unwrap().loop_unroll, 2);
        assert_eq!(spec(Json::Null).unwrap().overrides, Json::Obj(Vec::new()));
    }
}
