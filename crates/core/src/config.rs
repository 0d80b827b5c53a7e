//! The analysis parametrization surface (paper Sect. 3.2 and 7).
//!
//! End-users adapt the analyzer to a program of the family by choosing these
//! parameters; the packing parameters can also be produced automatically
//! (Sect. 7.2) or replayed from a previous run (Sect. 7.2.2).
//!
//! This file is the one description of the configuration. Its JSON form
//! ([`AnalysisConfig::to_json`]) is the fleet's `init` frame, and any subset
//! of it is a job's `overrides` ([`AnalysisConfig::patch`]). The same form,
//! minus [`UNKEYED`], is the store key's configuration fingerprint
//! ([`AnalysisConfig::fingerprint`]). `astree analyze`'s analysis flags
//! ([`ANALYSIS`]) set its keys.

use astree_domains::Thresholds;
use astree_ir::{Fnv, LoopId};
use astree_obs::Json;
use std::collections::{HashMap, HashSet};

/// All analysis parameters, with the defaults used throughout the
/// experiments.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Widening thresholds (Sect. 7.1.2), default the geometric ramp
    /// `±α·λᵏ`.
    pub thresholds: Thresholds,
    /// Number of plain-union iterations before widening starts
    /// (delayed widening, Sect. 7.1.3).
    pub widening_delay: u32,
    /// Extra union iterations granted each time an unstable variable
    /// becomes stable (the fairness-capped part of Sect. 7.1.3).
    pub stabilization_grace: u32,
    /// Hard cap on widening iterations per loop; past it a loop widens
    /// without thresholds, and `analyze` names it on a `budget:` line.
    pub max_iterations: u32,
    /// Narrowing (decreasing) iterations after stabilization: at most N
    /// passes, each run only while a bound can narrow — the invariant holds
    /// an infinite bound and the previous pass refined one.
    pub narrowing_iterations: u32,
    /// Default semantic loop-unrolling factor (Sect. 7.1.1).
    pub loop_unroll: u32,
    /// Per-loop unrolling overrides.
    pub per_loop_unroll: HashMap<LoopId, u32>,
    /// Maximal number of clock ticks (the physical operating-time bound of
    /// Sect. 4; bounds the clocked domain's reductions).
    pub max_clock: i64,
    /// Relative perturbation applied to float bounds during loop iteration
    /// (floating iteration perturbation, Sect. 7.1.4).
    pub float_perturbation: f64,
    /// Arrays larger than this shrink to a single cell (Sect. 6.1.1).
    pub shrink_threshold: usize,
    /// Enables the octagon packs (Sect. 6.2.2).
    pub enable_octagons: bool,
    /// Enables the ellipsoid filter domain (Sect. 6.2.3).
    pub enable_ellipsoids: bool,
    /// Enables the boolean decision trees (Sect. 6.2.4).
    pub enable_dtrees: bool,
    /// Enables the clocked domain (Sect. 6.2.1).
    pub enable_clocked: bool,
    /// Enables expression linearization (Sect. 6.3).
    pub enable_linearization: bool,
    /// Functions analyzed with trace partitioning (Sect. 7.1.5); branches
    /// inside them are merged only at the return point.
    pub partitioned_functions: HashSet<String>,
    /// Cap on simultaneously live partitions per function.
    pub max_partitions: usize,
    /// Maximum variables per octagon pack (Sect. 7.2.1 keeps packs small).
    pub octagon_pack_cap: usize,
    /// Maximum boolean variables per decision-tree pack (Sect. 7.2.3: "three
    /// yields an efficient and precise analysis").
    pub dtree_pack_bool_cap: usize,
    /// When set, only the octagon packs with these indices (from a previous
    /// run's usefulness report) are used — the packing optimization of
    /// Sect. 7.2.2.
    pub octagon_pack_filter: Option<Vec<usize>>,
    /// User-supplied octagon packs by variable name, *added* to the
    /// syntactically discovered ones (the end-user parametrization of
    /// Sect. 3.2: "have the user supply for each program point groups of
    /// variables on which the relational analysis should be independently
    /// applied"). Unknown or non-scalar names are ignored.
    pub octagon_packs_extra: Vec<Vec<String>>,
    /// Worker threads for intra-analysis parallelism (Monniaux's
    /// partition-and-join scheme). `1` (the default) runs the purely
    /// sequential interpreter; `N > 1` slices runs of independent statements
    /// of the synchronous loop's dispatch across `N` workers and merges the
    /// slice deltas in a fixed order, so alarms and invariants are identical
    /// for every value.
    pub jobs: usize,
    /// Fault injection for tests: the parallel worker running this slice
    /// index panics, exercising the panic-isolation fallback (the stage is
    /// replayed sequentially and the reason lands in the metrics output).
    #[doc(hidden)]
    pub debug_panic_slice: Option<usize>,
    /// Records the joined abstract state observed at *every* statement during
    /// the Check pass (not just loop heads) into
    /// [`AnalysisResult::stmt_invariants`]. Used by the differential
    /// soundness oracle to compare concrete interpreter states against the
    /// claimed invariants at each program point. Collection forces the Check
    /// pass to run sequentially (parallel slices would drop their captures);
    /// a store hit collects them too, since it runs the checking pass.
    /// Alarms and invariants are unaffected, so the flag is excluded from
    /// the cache fingerprint.
    pub collect_stmt_invariants: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            thresholds: Thresholds::geometric_default(),
            widening_delay: 2,
            stabilization_grace: 8,
            max_iterations: 200,
            narrowing_iterations: 2,
            loop_unroll: 1,
            per_loop_unroll: HashMap::new(),
            max_clock: 3_600_000, // 1 h of 1 ms cycles
            float_perturbation: 0.0,
            shrink_threshold: 256,
            enable_octagons: true,
            enable_ellipsoids: true,
            enable_dtrees: true,
            enable_clocked: true,
            enable_linearization: true,
            partitioned_functions: HashSet::new(),
            max_partitions: 16,
            octagon_pack_cap: 8,
            dtree_pack_bool_cap: 3,
            octagon_pack_filter: None,
            octagon_packs_extra: Vec::new(),
            jobs: 1,
            debug_panic_slice: None,
            collect_stmt_invariants: false,
        }
    }
}

impl AnalysisConfig {
    /// The configuration of the baseline analyzer the paper started from
    /// (\[5\]): intervals and the clocked domain only, no relational domains,
    /// no linearization, no unrolling.
    pub fn baseline() -> AnalysisConfig {
        AnalysisConfig {
            enable_octagons: false,
            enable_ellipsoids: false,
            enable_dtrees: false,
            enable_linearization: false,
            loop_unroll: 0,
            ..AnalysisConfig::default()
        }
    }

    /// The unrolling factor for a given loop.
    pub fn unroll_for(&self, id: LoopId) -> u32 {
        self.per_loop_unroll.get(&id).copied().unwrap_or(self.loop_unroll)
    }

    /// The whole configuration as one JSON object, one key per field, in
    /// field order. Floats travel as IEEE-754 bit patterns and sets sorted,
    /// so [`AnalysisConfig::patch`] rebuilds it bit for bit. The
    /// destructuring is exhaustive: a new field does not compile until it
    /// has a key here and in `patch`.
    pub fn to_json(&self) -> Json {
        Json::obj(self.fields())
    }

    fn fields(&self) -> [(&'static str, Json); 24] {
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
            debug_panic_slice,
            collect_stmt_invariants,
        } = self;
        let uint = |n: usize| Json::UInt(n as u64);
        let bits = |v: &f64| Json::UInt(v.to_bits());
        let indices = |ix: &Vec<usize>| Json::Arr(ix.iter().map(|&i| uint(i)).collect());
        let names = |names: &[String]| Json::Arr(names.iter().map(Json::str).collect());
        let mut unrolls: Vec<(u32, u32)> = per_loop_unroll.iter().map(|(l, n)| (l.0, *n)).collect();
        unrolls.sort_unstable();
        let unrolls = unrolls
            .iter()
            .map(|&(l, n)| Json::Arr(vec![Json::UInt(l.into()), Json::UInt(n.into())]));
        let mut partitioned: Vec<String> = partitioned_functions.iter().cloned().collect();
        partitioned.sort_unstable();
        [
            ("thresholds", Json::Arr(thresholds.ramp().iter().map(bits).collect())),
            ("widening_delay", Json::UInt((*widening_delay).into())),
            ("stabilization_grace", Json::UInt((*stabilization_grace).into())),
            ("max_iterations", Json::UInt((*max_iterations).into())),
            ("narrowing_iterations", Json::UInt((*narrowing_iterations).into())),
            ("loop_unroll", Json::UInt((*loop_unroll).into())),
            ("per_loop_unroll", Json::Arr(unrolls.collect())),
            ("max_clock", Json::Int(*max_clock)),
            ("float_perturbation", bits(float_perturbation)),
            ("shrink_threshold", uint(*shrink_threshold)),
            ("enable_octagons", Json::Bool(*enable_octagons)),
            ("enable_ellipsoids", Json::Bool(*enable_ellipsoids)),
            ("enable_dtrees", Json::Bool(*enable_dtrees)),
            ("enable_clocked", Json::Bool(*enable_clocked)),
            ("enable_linearization", Json::Bool(*enable_linearization)),
            ("partitioned_functions", names(&partitioned)),
            ("max_partitions", uint(*max_partitions)),
            ("octagon_pack_cap", uint(*octagon_pack_cap)),
            ("dtree_pack_bool_cap", uint(*dtree_pack_bool_cap)),
            ("octagon_pack_filter", octagon_pack_filter.as_ref().map_or(Json::Null, indices)),
            (
                "octagon_packs_extra",
                Json::Arr(octagon_packs_extra.iter().map(|p| names(p)).collect()),
            ),
            ("jobs", uint(*jobs)),
            ("debug_panic_slice", debug_panic_slice.map_or(Json::Null, uint)),
            ("collect_stmt_invariants", Json::Bool(*collect_stmt_invariants)),
        ]
    }

    /// Sets the keys of `patch`, any subset of [`AnalysisConfig::to_json`]'s,
    /// leaving the other fields alone. Strict, because a daemon client
    /// writes overrides by hand: an unknown key or a value of the wrong type
    /// is an error that names the key, and `self` is then unchanged.
    pub fn patch(&mut self, patch: &Json) -> Result<(), String> {
        let Json::Obj(fields) = patch else {
            return Err(format!("a configuration must be an object, not {}", patch.to_compact()));
        };
        let bits = |v: &Json| v.as_u64().map(f64::from_bits);
        let names = |v: &Json| arr(v, |s| s.as_str().map(str::to_string));
        let unroll = |p: &Json| match p {
            Json::Arr(kv) if kv.len() == 2 => Some((LoopId(int(&kv[0])?), int(&kv[1])?)),
            _ => None,
        };
        let mut c = self.clone();
        for (key, v) in fields {
            let k = key.as_str();
            let flag = || want(k, v, "a boolean", Json::as_bool);
            match k {
                "thresholds" => {
                    c.thresholds =
                        Thresholds::from_values(want(k, v, "f64 bits", |v| arr(v, bits))?)
                }
                "widening_delay" => c.widening_delay = want(k, v, "a u32", int)?,
                "stabilization_grace" => c.stabilization_grace = want(k, v, "a u32", int)?,
                "max_iterations" => c.max_iterations = want(k, v, "a u32", int)?,
                "narrowing_iterations" => c.narrowing_iterations = want(k, v, "a u32", int)?,
                "loop_unroll" => c.loop_unroll = want(k, v, "a u32", int)?,
                "per_loop_unroll" => {
                    let pairs = want(k, v, "[loop, u32] pairs", |v| arr(v, unroll))?;
                    c.per_loop_unroll = pairs.into_iter().collect()
                }
                "max_clock" => c.max_clock = want(k, v, "an i64", int)?,
                "float_perturbation" => c.float_perturbation = want(k, v, "f64 bits", bits)?,
                "shrink_threshold" => c.shrink_threshold = want(k, v, "a usize", int)?,
                "enable_octagons" => c.enable_octagons = flag()?,
                "enable_ellipsoids" => c.enable_ellipsoids = flag()?,
                "enable_dtrees" => c.enable_dtrees = flag()?,
                "enable_clocked" => c.enable_clocked = flag()?,
                "enable_linearization" => c.enable_linearization = flag()?,
                "partitioned_functions" => {
                    c.partitioned_functions = want(k, v, "names", names)?.into_iter().collect()
                }
                "max_partitions" => c.max_partitions = want(k, v, "a usize", int)?,
                "octagon_pack_cap" => c.octagon_pack_cap = want(k, v, "a usize", int)?,
                "dtree_pack_bool_cap" => c.dtree_pack_bool_cap = want(k, v, "a usize", int)?,
                "octagon_pack_filter" => {
                    c.octagon_pack_filter =
                        want(k, v, "null or indices", |v| nullable(v, |v| arr(v, int)))?
                }
                "octagon_packs_extra" => {
                    c.octagon_packs_extra = want(k, v, "name lists", |v| arr(v, names))?
                }
                "jobs" => {
                    c.jobs = want(k, v, "a count of at least 1", |v| int(v).filter(|&n| n > 0))?
                }
                "debug_panic_slice" => {
                    c.debug_panic_slice = want(k, v, "null or an index", |v| nullable(v, int))?
                }
                "collect_stmt_invariants" => c.collect_stmt_invariants = flag()?,
                _ => return Err(format!("unknown config key `{k}`")),
            }
        }
        *self = c;
        Ok(())
    }

    /// The store key's configuration fingerprint: the FNV-1a hash of
    /// [`AnalysisConfig::to_json`] without the [`UNKEYED`] keys. It covers
    /// every parameter that can move a fixpoint.
    pub fn fingerprint(&self) -> u64 {
        let keyed = self.fields().into_iter().filter(|(k, _)| UNKEYED.iter().all(|(u, _)| u != k));
        let mut h = Fnv::new();
        h.str(&Json::obj(keyed).to_compact());
        h.finish()
    }

    /// Sets `key` from a command-line value through [`AnalysisConfig::patch`]:
    /// `3`, `-5` or `false` read as JSON, anything else as a string.
    fn set(&mut self, key: &str, text: &str) -> Result<(), String> {
        let value = Json::parse(text).unwrap_or_else(|_| Json::str(text));
        self.patch(&Json::obj([(key, value)]))
    }
}

/// `astree analyze`'s analysis flags. Each sets keys of
/// [`AnalysisConfig::to_json`]; a number goes through
/// [`AnalysisConfig::patch`], so `--unroll x` fails as the override
/// `{"loop_unroll": "x"}` does.
pub const ANALYSIS: &[Flag<AnalysisConfig>] = &[
    Flag::preset("--baseline", "starts from the 2002 baseline [5] (applied first)", |c, _| {
        *c = AnalysisConfig::baseline();
        Ok(())
    }),
    Flag::value("--max-clock", "N", "bounds the clock to N ticks", |c, v| c.set("max_clock", v)),
    Flag::value("--unroll", "N", "unrolls every loop N times", |c, v| c.set("loop_unroll", v)),
    Flag::switch("--no-octagons", "disables octagons", |c, _| c.set("enable_octagons", "false")),
    Flag::switch("--no-dtrees", "disables decision trees", |c, _| c.set("enable_dtrees", "false")),
    Flag::switch("--no-ellipsoids", "disables filters", |c, _| c.set("enable_ellipsoids", "false")),
    Flag::switch("--no-clock", "disables clocked domain", |c, _| c.set("enable_clocked", "false")),
    Flag::switch("--no-linearize", "disables linearization", |c, _| {
        c.set("enable_linearization", "false")
    }),
    Flag::value("--partition", "FN", "partitions the traces of FN (repeatable)", |c, v| {
        c.partitioned_functions.insert(v.to_string());
        Ok(())
    }),
    Flag::value(
        "--thresholds",
        "ALPHA,LAMBDA,N",
        "widens via ±ALPHA·LAMBDA^k, k ≤ N ≤ 1000",
        thresholds,
    ),
    Flag::value("--pack", "V1,V2,...", "adds an octagon pack (repeatable)", |c, v| {
        c.octagon_packs_extra.push(v.split(',').map(|s| s.trim().to_string()).collect());
        Ok(())
    }),
];

/// The keys the store fingerprint leaves out, each with the reason it
/// cannot change a stored result.
pub const UNKEYED: [(&str, &str); 3] = [
    ("jobs", "slicing at any worker count is bit-identical to the sequential analysis"),
    ("debug_panic_slice", "a stage replayed after a slice panic is bit-identical too"),
    ("collect_stmt_invariants", "it only adds per-statement captures beside the result"),
];

/// The largest `N` `--thresholds` accepts: a ramp of at most 1001 values.
const MAX_THRESHOLD_STEPS: u32 = 1000;

/// `--thresholds ALPHA,LAMBDA,N`: the geometric ramp of Sect. 7.1.2, checked
/// so that [`Thresholds::geometric`]'s preconditions hold and the ramp stays
/// small.
fn thresholds(c: &mut AnalysisConfig, v: &str) -> Result<(), String> {
    let parts: Vec<&str> = v.split(',').map(str::trim).collect();
    let parse = || {
        let [alpha, lambda, n] = parts[..] else { return None };
        let (alpha, lambda, n) =
            (alpha.parse::<f64>().ok()?, lambda.parse::<f64>().ok()?, n.parse().ok()?);
        let valid = alpha.is_finite() && alpha > 0.0 && lambda.is_finite() && lambda > 1.0;
        (valid && n <= MAX_THRESHOLD_STEPS).then_some((alpha, lambda, n))
    };
    let bad =
        || format!("{v:?}: needs ALPHA > 0, LAMBDA > 1, both finite, N ≤ {MAX_THRESHOLD_STEPS}");
    let (alpha, lambda, n) = parse().ok_or_else(bad)?;
    c.thresholds = Thresholds::geometric(alpha, lambda, n);
    Ok(())
}

/// `get(v)`, or an error naming key `k` and the type `ty` it must have.
fn want<T>(k: &str, v: &Json, ty: &str, get: impl FnOnce(&Json) -> Option<T>) -> Result<T, String> {
    get(v).ok_or_else(|| format!("config key `{k}` must be {ty}, not {}", v.to_compact()))
}

/// An integer that fits `T`.
fn int<T: TryFrom<u64> + TryFrom<i64>>(v: &Json) -> Option<T> {
    match *v {
        Json::UInt(n) => T::try_from(n).ok(),
        Json::Int(n) => T::try_from(n).ok(),
        _ => None,
    }
}

/// An array whose every item `item` accepts.
fn arr<T>(v: &Json, item: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
    match v {
        Json::Arr(items) => items.iter().map(item).collect(),
        _ => None,
    }
}

/// `None` for `null`, else what `some` accepts.
fn nullable<T>(v: &Json, some: impl FnOnce(&Json) -> Option<T>) -> Option<Option<T>> {
    match v {
        Json::Null => Some(None),
        v => some(v).map(Some),
    }
}

/// One command-line flag: its spelling, what it takes, its `--help` line
/// and the setter that applies it to a `T` (the value, or `""` for a flag
/// that takes none). The `astree` binary parses every command from tables of
/// these; the type lives here because [`ANALYSIS`] sets this file's keys.
pub struct Flag<T: 'static> {
    pub flag: &'static str,
    pub takes: Takes,
    pub help: &'static str,
    pub set: Setter<T>,
}

/// What a [`Flag`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: a switch.
    Nothing,
    /// One value, named in `--help` by this metavar.
    Value(&'static str),
    /// Nothing, and it replaces the whole target: a preset, applied before
    /// every other flag whatever its position.
    Preset,
}

type Setter<T> = fn(&mut T, &str) -> Result<(), String>;

impl<T: 'static> Flag<T> {
    pub const fn switch(flag: &'static str, help: &'static str, set: Setter<T>) -> Flag<T> {
        Flag { flag, takes: Takes::Nothing, help, set }
    }

    pub const fn value(
        flag: &'static str,
        var: &'static str,
        help: &'static str,
        set: Setter<T>,
    ) -> Flag<T> {
        Flag { flag, takes: Takes::Value(var), help, set }
    }

    pub const fn preset(flag: &'static str, help: &'static str, set: Setter<T>) -> Flag<T> {
        Flag { flag, takes: Takes::Preset, help, set }
    }
}
