//! JSON codecs for the `astree-serve/2` `run` and `result` frames.
//!
//! Determinism across processes is the point of the fleet, so the codecs
//! are exact. The configuration encodes itself: a spec's `overrides` is an
//! `AnalysisConfig::to_json` object, partial or whole (floats as IEEE-754
//! bit patterns, sets sorted), and the serving process patches it on bit
//! for bit with `AnalysisConfig::patch`.

use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::proto::SYNC_BYTES_CAP;
use astree_core::{AnalysisConfig, InvariantStore};
use astree_obs::Json;
use std::time::Duration;

/// The key under which older coordinators shipped a fuzz-campaign member
/// instead of a source. Campaigns run in-process now; a spec that sets it
/// is refused rather than analyzed as its empty `source`.
const MEMBER_KEY: &str = "oracle";

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field {key}"))
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

/// Encodes a job spec for a `run` request.
pub fn spec_to_json(s: &JobSpec) -> Json {
    Json::obj([
        ("name", Json::str(&s.name)),
        ("source", Json::str(&s.source)),
        ("overrides", s.overrides.clone()),
    ])
}

/// Decodes a job spec from a `run` request. Its `overrides` (absent or
/// `null`: none) must patch a configuration: an unknown key or a value of
/// the wrong type is an error naming the key, never an ignored override.
pub fn spec_from_json(j: &Json) -> Result<JobSpec, String> {
    if !matches!(j.get(MEMBER_KEY), None | Some(Json::Null)) {
        return Err(format!("`{MEMBER_KEY}`: campaign members are not served; run `astree fuzz`"));
    }
    let overrides = match j.get("overrides") {
        None | Some(Json::Null) => Json::Obj(Vec::new()),
        Some(o) => {
            AnalysisConfig::default().patch(o).map_err(|e| format!("overrides: {e}"))?;
            o.clone()
        }
    };
    Ok(JobSpec { name: get_str(j, "name")?, source: get_str(j, "source")?, overrides })
}

// ---------------------------------------------------------------------------
// JobOutcome
// ---------------------------------------------------------------------------

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
        };
        let text = spec_to_json(&spec).to_compact();
        let back = spec_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.source, spec.source);
        assert_eq!(back.overrides.to_compact(), spec.overrides.to_compact());

        let mut out = JobOutcome::empty("m1", JobStatus::Done);
        out.alarms = Some(2);
        out.alarm_lines = vec!["line 3: possible division by zero in `x / d`".into()];
        out.main_invariant = Some("x in [0, 4]\n".into());
        out.cache_full_hit = true;
        out.wall = Duration::from_nanos(1234);
        let text = outcome_to_json(&out).to_compact();
        let back = outcome_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.status, JobStatus::Done);
        assert_eq!(back.alarms, Some(2));
        assert_eq!(back.alarm_lines, out.alarm_lines);
        assert_eq!(back.main_invariant, out.main_invariant);
        assert!(back.cache_full_hit);
        assert_eq!(back.wall, out.wall);
    }

    #[test]
    fn a_campaign_member_spec_is_an_error_naming_its_key() {
        let member = Json::obj([("channels", Json::UInt(1)), ("gen_seed", Json::UInt(1))]);
        let named = [("name", Json::str("m")), ("source", Json::str(""))];
        let stale = Json::obj(named.clone().into_iter().chain([(MEMBER_KEY, member)]));
        let err = spec_from_json(&stale).unwrap_err();
        assert!(err.contains(&format!("`{MEMBER_KEY}`")), "{err}");
        // A null member key is what a current spec would carry: no member.
        let null = Json::obj(named.into_iter().chain([(MEMBER_KEY, Json::Null)]));
        assert_eq!(spec_from_json(&null).unwrap().name, "m");
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
