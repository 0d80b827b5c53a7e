//! JSON codecs for the `astree-fleet/2` worker protocol.
//!
//! Determinism across processes is the point of the fleet, so the codecs
//! are exact: every `f64` travels as its IEEE-754 bit pattern (a `u64`),
//! never as a decimal rendering, and unordered collections are sorted
//! before encoding. A worker decoding a config must reconstruct the
//! coordinator's configuration bit-for-bit.

use crate::job::{ConfigOverrides, JobOutcome, JobSpec, JobStatus, OracleJob};
use crate::proto::SYNC_BYTES_CAP;
use astree_core::{AlarmKind, AnalysisConfig, InvariantStore};
use astree_domains::Thresholds;
use astree_gen::{BugKind, StructKnobs};
use astree_ir::LoopId;
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

fn f64_bits(v: f64) -> Json {
    Json::UInt(v.to_bits())
}

fn get_f64_bits(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .map(f64::from_bits)
        .ok_or_else(|| format!("missing f64 field {key}"))
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field {key}"))
}

fn get_i64(obj: &Json, key: &str) -> Result<i64, String> {
    match obj.get(key) {
        Some(Json::Int(v)) => Ok(*v),
        Some(Json::UInt(v)) => Ok(*v as i64),
        _ => Err(format!("missing integer field {key}")),
    }
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

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(Json::str).collect())
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
// AnalysisConfig
// ---------------------------------------------------------------------------

/// Encodes the full analysis configuration for the `init` frame. The
/// destructuring is exhaustive, so a new field does not compile until it is
/// encoded or ignored here.
pub fn config_to_json(c: &AnalysisConfig) -> Json {
    let AnalysisConfig {
        thresholds,
        widening_delay,
        stabilization_grace,
        max_iterations,
        narrowing_iterations,
        loop_unroll,
        per_loop_unroll,
        max_clock,
        float_perturbation,
        shrink_threshold,
        enable_octagons,
        enable_ellipsoids,
        enable_dtrees,
        enable_clocked,
        enable_linearization,
        partitioned_functions,
        max_partitions,
        octagon_pack_cap,
        dtree_pack_bool_cap,
        octagon_pack_filter,
        octagon_packs_extra,
        jobs,
        debug_no_ptr_shortcuts,
        collect_stmt_invariants,
        // Fault injection targets one local run; it never crosses the wire.
        debug_panic_slice: _,
    } = c;
    let thresholds = Json::Arr(thresholds.ramp().iter().map(|&v| f64_bits(v)).collect());
    let mut per_loop: Vec<(LoopId, u32)> = per_loop_unroll.iter().map(|(k, v)| (*k, *v)).collect();
    per_loop.sort();
    let mut partitioned: Vec<&String> = partitioned_functions.iter().collect();
    partitioned.sort();
    Json::obj([
        ("thresholds", thresholds),
        ("widening_delay", Json::UInt(*widening_delay as u64)),
        ("stabilization_grace", Json::UInt(*stabilization_grace as u64)),
        ("max_iterations", Json::UInt(*max_iterations as u64)),
        ("narrowing_iterations", Json::UInt(*narrowing_iterations as u64)),
        ("loop_unroll", Json::UInt(*loop_unroll as u64)),
        (
            "per_loop_unroll",
            Json::Arr(
                per_loop
                    .iter()
                    .map(|(id, n)| Json::Arr(vec![Json::UInt(id.0 as u64), Json::UInt(*n as u64)]))
                    .collect(),
            ),
        ),
        ("max_clock", Json::Int(*max_clock)),
        ("float_perturbation", f64_bits(*float_perturbation)),
        ("shrink_threshold", Json::UInt(*shrink_threshold as u64)),
        ("enable_octagons", Json::Bool(*enable_octagons)),
        ("enable_ellipsoids", Json::Bool(*enable_ellipsoids)),
        ("enable_dtrees", Json::Bool(*enable_dtrees)),
        ("enable_clocked", Json::Bool(*enable_clocked)),
        ("enable_linearization", Json::Bool(*enable_linearization)),
        ("partitioned_functions", Json::Arr(partitioned.iter().map(|s| Json::str(*s)).collect())),
        ("max_partitions", Json::UInt(*max_partitions as u64)),
        ("octagon_pack_cap", Json::UInt(*octagon_pack_cap as u64)),
        ("dtree_pack_bool_cap", Json::UInt(*dtree_pack_bool_cap as u64)),
        (
            "octagon_pack_filter",
            match octagon_pack_filter {
                Some(idxs) => Json::Arr(idxs.iter().map(|&i| Json::UInt(i as u64)).collect()),
                None => Json::Null,
            },
        ),
        (
            "octagon_packs_extra",
            Json::Arr(octagon_packs_extra.iter().map(|pack| str_arr(pack)).collect()),
        ),
        ("jobs", Json::UInt(*jobs as u64)),
        ("debug_no_ptr_shortcuts", Json::Bool(*debug_no_ptr_shortcuts)),
        ("collect_stmt_invariants", Json::Bool(*collect_stmt_invariants)),
    ])
}

/// Decodes an `init` frame configuration; the exact inverse of
/// [`config_to_json`] (the `debug_*` fault knobs that never cross the wire
/// decode to their defaults).
pub fn config_from_json(j: &Json) -> Result<AnalysisConfig, String> {
    let mut c = AnalysisConfig::default();
    let ramp = match j.get("thresholds") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| v.as_u64().map(f64::from_bits).ok_or("thresholds: not a bit pattern"))
            .collect::<Result<Vec<f64>, _>>()?,
        _ => return Err("missing thresholds".into()),
    };
    c.thresholds = Thresholds::from_values(ramp);
    c.widening_delay = get_u64(j, "widening_delay")? as u32;
    c.stabilization_grace = get_u64(j, "stabilization_grace")? as u32;
    c.max_iterations = get_u64(j, "max_iterations")? as u32;
    c.narrowing_iterations = get_u64(j, "narrowing_iterations")? as u32;
    c.loop_unroll = get_u64(j, "loop_unroll")? as u32;
    c.per_loop_unroll.clear();
    if let Some(Json::Arr(pairs)) = j.get("per_loop_unroll") {
        for p in pairs {
            let Json::Arr(kv) = p else { return Err("per_loop_unroll: not a pair".into()) };
            let (Some(id), Some(n)) =
                (kv.first().and_then(Json::as_u64), kv.get(1).and_then(Json::as_u64))
            else {
                return Err("per_loop_unroll: bad pair".into());
            };
            c.per_loop_unroll.insert(LoopId(id as u32), n as u32);
        }
    }
    c.max_clock = get_i64(j, "max_clock")?;
    c.float_perturbation = get_f64_bits(j, "float_perturbation")?;
    c.shrink_threshold = get_u64(j, "shrink_threshold")? as usize;
    c.enable_octagons = get_bool(j, "enable_octagons")?;
    c.enable_ellipsoids = get_bool(j, "enable_ellipsoids")?;
    c.enable_dtrees = get_bool(j, "enable_dtrees")?;
    c.enable_clocked = get_bool(j, "enable_clocked")?;
    c.enable_linearization = get_bool(j, "enable_linearization")?;
    c.partitioned_functions = get_str_arr(j, "partitioned_functions")?.into_iter().collect();
    c.max_partitions = get_u64(j, "max_partitions")? as usize;
    c.octagon_pack_cap = get_u64(j, "octagon_pack_cap")? as usize;
    c.dtree_pack_bool_cap = get_u64(j, "dtree_pack_bool_cap")? as usize;
    c.octagon_pack_filter = match j.get("octagon_pack_filter") {
        Some(Json::Arr(items)) => Some(
            items
                .iter()
                .map(|v| v.as_u64().map(|i| i as usize).ok_or("octagon_pack_filter: not an index"))
                .collect::<Result<Vec<usize>, _>>()?,
        ),
        _ => None,
    };
    c.octagon_packs_extra = match j.get("octagon_packs_extra") {
        Some(Json::Arr(packs)) => packs
            .iter()
            .map(|p| match p {
                Json::Arr(names) => names
                    .iter()
                    .map(|n| n.as_str().map(str::to_string).ok_or("pack name: not a string"))
                    .collect::<Result<Vec<String>, _>>(),
                _ => Err("octagon_packs_extra: not an array"),
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => Vec::new(),
    };
    c.jobs = (get_u64(j, "jobs")? as usize).max(1);
    c.debug_no_ptr_shortcuts = get_bool(j, "debug_no_ptr_shortcuts")?;
    c.collect_stmt_invariants = get_bool(j, "collect_stmt_invariants")?;
    Ok(c)
}

// ---------------------------------------------------------------------------
// JobSpec
// ---------------------------------------------------------------------------

fn overrides_to_json(o: &ConfigOverrides) -> Json {
    fn opt_bool(v: Option<bool>) -> Json {
        v.map_or(Json::Null, Json::Bool)
    }
    Json::obj([
        ("max_clock", o.max_clock.map_or(Json::Null, Json::Int)),
        ("loop_unroll", o.loop_unroll.map_or(Json::Null, |v| Json::UInt(v as u64))),
        ("jobs", o.jobs.map_or(Json::Null, |v| Json::UInt(v as u64))),
        ("octagons", opt_bool(o.octagons)),
        ("dtrees", opt_bool(o.dtrees)),
        ("ellipsoids", opt_bool(o.ellipsoids)),
        ("clocked", opt_bool(o.clocked)),
        ("linearize", opt_bool(o.linearize)),
        ("partition", str_arr(&o.partition)),
    ])
}

/// Decodes a spec's `overrides` (absent or `null`: none). Strict, because a
/// daemon client writes it by hand: an unknown key or a value of the wrong
/// type is an error naming the key, never a silently ignored override.
fn overrides_from_json(j: &Json) -> Result<ConfigOverrides, String> {
    match j {
        Json::Null => return Ok(ConfigOverrides::default()),
        Json::Obj(fields) => {
            let known = overrides_to_json(&ConfigOverrides::default());
            if let Some((key, _)) = fields.iter().find(|(key, _)| known.get(key).is_none()) {
                return Err(format!("unknown override `{key}`"));
            }
        }
        _ => return Err("overrides: not an object".into()),
    }
    /// The value at `key` when `get` accepts it; `None` when absent or null.
    fn field<T>(
        j: &Json,
        key: &str,
        ty: &str,
        get: impl Fn(&Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match j.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => get(v).map(Some).ok_or_else(|| format!("override `{key}` must be {ty}")),
        }
    }
    let flag = |key: &str| field(j, key, "a boolean", Json::as_bool);
    let int = |v: &Json| match v {
        Json::Int(n) => Some(*n),
        v => v.as_u64().and_then(|n| i64::try_from(n).ok()),
    };
    let names = |v: &Json| match v {
        Json::Arr(items) => items.iter().map(|n| n.as_str().map(str::to_string)).collect(),
        _ => None,
    };
    Ok(ConfigOverrides {
        max_clock: field(j, "max_clock", "an integer", int)?,
        loop_unroll: field(j, "loop_unroll", "a u32", |v| v.as_u64()?.try_into().ok())?,
        jobs: field(j, "jobs", "a count", |v| v.as_u64().map(|n| n as usize))?,
        octagons: flag("octagons")?,
        dtrees: flag("dtrees")?,
        ellipsoids: flag("ellipsoids")?,
        clocked: flag("clocked")?,
        linearize: flag("linearize")?,
        partition: field(j, "partition", "an array of names", names)?.unwrap_or_default(),
    })
}

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

/// Encodes a job spec for the `job` frame.
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
        ("overrides", overrides_to_json(&s.overrides)),
        ("oracle", oracle),
    ])
}

/// Decodes a job spec from a `job` frame.
pub fn spec_from_json(j: &Json) -> Result<JobSpec, String> {
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
    Ok(JobSpec {
        name: get_str(j, "name")?,
        source: get_str(j, "source")?,
        overrides: overrides_from_json(j.get("overrides").unwrap_or(&Json::Null))?,
        oracle,
    })
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

/// Encodes a job outcome for the `done` frame.
pub fn outcome_to_json(o: &JobOutcome) -> Json {
    Json::obj([
        ("name", Json::str(&o.name)),
        ("status", Json::str(o.status.slug())),
        ("alarms", o.alarms.map_or(Json::Null, |n| Json::UInt(n as u64))),
        ("alarm_lines", str_arr(&o.alarm_lines)),
        ("main_invariant", o.main_invariant.as_deref().map_or(Json::Null, Json::str)),
        ("main_census", o.main_census.as_deref().map_or(Json::Null, Json::str)),
        ("cache_full_hit", Json::Bool(o.cache_full_hit)),
        ("wall_nanos", Json::UInt(o.wall.as_nanos() as u64)),
        ("detail", o.detail.as_deref().map_or(Json::Null, Json::str)),
        ("oracle", o.oracle.as_ref().map_or(Json::Null, member_outcome_to_json)),
    ])
}

/// Decodes a job outcome from a `done` frame. The scheduling fields the
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

/// The `[name, text]` store files a `job` or `done` frame carries.
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
    fn config_round_trips_bit_exactly() {
        let mut c = AnalysisConfig::default();
        c.thresholds = Thresholds::from_values(vec![1.5, 1e20, 0.1]);
        c.per_loop_unroll.insert(LoopId(3), 4);
        c.per_loop_unroll.insert(LoopId(1), 2);
        c.max_clock = -7;
        c.float_perturbation = 1e-9;
        c.partitioned_functions.insert("main".into());
        c.partitioned_functions.insert("aux".into());
        c.octagon_pack_filter = Some(vec![0, 3]);
        c.octagon_packs_extra = vec![vec!["a".into(), "b".into()]];
        c.collect_stmt_invariants = true;
        let j = config_to_json(&c);
        let text = j.to_compact();
        let back = config_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.thresholds.ramp(), c.thresholds.ramp());
        assert_eq!(back.per_loop_unroll, c.per_loop_unroll);
        assert_eq!(back.max_clock, c.max_clock);
        assert_eq!(back.float_perturbation.to_bits(), c.float_perturbation.to_bits());
        assert_eq!(back.partitioned_functions, c.partitioned_functions);
        assert_eq!(back.octagon_pack_filter, c.octagon_pack_filter);
        assert_eq!(back.octagon_packs_extra, c.octagon_packs_extra);
        assert!(back.collect_stmt_invariants);
    }

    #[test]
    fn spec_and_outcome_round_trip() {
        let spec = JobSpec {
            name: "m1".into(),
            source: "int x;\n".into(),
            overrides: ConfigOverrides {
                max_clock: Some(50),
                octagons: Some(false),
                partition: vec!["main".into()],
                ..ConfigOverrides::default()
            },
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
        assert_eq!(back.overrides, spec.overrides);
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
        let err = spec(Json::obj([("unroll", Json::UInt(2))])).unwrap_err();
        assert!(err.contains("`unroll`"), "{err}");
        let err = spec(Json::obj([("octagons", Json::UInt(1))])).unwrap_err();
        assert!(err.contains("`octagons`"), "{err}");
        let ok = spec(Json::obj([("loop_unroll", Json::UInt(2)), ("jobs", Json::Null)])).unwrap();
        assert_eq!(ok.overrides, ConfigOverrides { loop_unroll: Some(2), ..Default::default() });
        assert_eq!(spec(Json::Null).unwrap().overrides, ConfigOverrides::default());
    }
}
