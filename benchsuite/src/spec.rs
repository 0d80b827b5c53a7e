//! The benchmark's fixed vocabulary: workloads, sizes, metric names, units
//! and regression bounds. `BENCHMARK.json` at the repo root is rendered
//! from these tables ([`benchmark_json`]); a test keeps the two equal.

use astree::obs::Json;

/// Schema tag of the result document.
pub const SCHEMA: &str = "astree-bench/1";

/// Wall-clock limit of one child process; an overrun is killed with its
/// process group and counted as failed.
pub const CHILD_DEADLINE_S: u64 = 300;

/// `run_seconds` of `BENCHMARK.json`: about what the longest workload body
/// (`paper_cold`) takes. A run measures a fixed body of work, not a time box.
pub const RUN_SECONDS: u64 = 25;

/// `R`: how often `suite --seed S` repeats each workload body.
pub const REPS: usize = 3;

/// How often one run of the driver protocol repeats the body. The driver
/// makes 92 runs in 57 minutes and one repetition of the four bodies takes
/// ~80 s, so `R` is lowered here, as the issue prescribes, and no size is.
pub const DRIVER_REPS: usize = 1;

/// The four workloads, in the order the suite runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One member at the paper's scale.
    PaperCold,
    /// Many small members, some with planted bugs.
    SmallMix,
    /// The analyse–inspect–refine loop on one cache.
    EditCycle,
    /// `--jobs N` and `--workers N`.
    Parallel,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] =
        [Workload::PaperCold, Workload::SmallMix, Workload::EditCycle, Workload::Parallel];

    /// Name on the command line and in every document.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::SmallMix => "small_mix",
            Workload::EditCycle => "edit_cycle",
            Workload::Parallel => "parallel",
        }
    }

    /// One line on which layers it stresses and which it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperCold => "one 75.9 kLOC member, --jobs 1, no cache: the paper's scale; core iterate+check, domains, memory, pmap do the work; sched, fleet, serve, cache are bypassed",
            Workload::SmallMix => "many 4-46 channel members, every fifth with a planted bug, one process each: per-process fixed costs, small states and the alarm path; bypasses sched, fleet, cache",
            Workload::EditCycle => "one --cache dir: cold write, three full-hit replays, a one-constant edit, a larger member of the same seed: core::cache write, read, seed and transfer paths side by side",
            Workload::Parallel => "analyze --jobs N on one member, then batch --workers N over a mixed corpus, no cache: sched and fleet on real cores; every other workload bypasses both",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in documents.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of A by which B may be worse before `suite --compare` calls it
    /// a regression: the issue's bounds, for two documents of the same seed
    /// and `R` (end-to-end metrics only; 0 for layer metrics).
    pub bound: f64,
    /// The bound `BENCHMARK.json` gives the benchmark driver, which compares
    /// single repetitions across ten seeds; `None` for a metric the driver
    /// cannot gate because it may legitimately read 0.
    pub gate: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    gate: Option<f64>,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound, gate }
}

/// Name of the one metric that is judged by "may not rise", not by a bound.
pub const FAILED_SHARE: &str = "failed_share";

/// The seven end-to-end metrics. The driver's bounds are three times the
/// ten-seed spread this host shows (README, "Noise"), as its contract asks,
/// capped at the 25% it allows. `disk_mb` (0 without a `--cache`) and `failed_share` (0 when all is
/// well) are not gated: wrong verdicts reach the driver through `correct` and
/// `failed`, the store's size through `core.cache.store_mb`.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("wall_s", "s", Better::Lower, 0.10, Some(0.25)),
    e2e("cpu_s", "s", Better::Lower, 0.10, Some(0.25)),
    e2e("kloc_per_s", "kLOC/s", Better::Higher, 0.10, Some(0.25)),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, Some(0.10)),
    e2e("disk_mb", "MB", Better::Lower, 0.05, None),
    e2e(FAILED_SHARE, "share", Better::Lower, 0.0, None),
    e2e("setup_s", "s", Better::Lower, 0.25, Some(0.25)),
];

/// The end-to-end metrics the driver gates: those of its result line.
pub fn gated() -> impl Iterator<Item = &'static MetricSpec> {
    END_TO_END.iter().filter(|m| m.gate.is_some())
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower, bound: 0.0, gate: None }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher, bound: 0.0, gate: None }
}

/// The per-layer metrics of the traced run; layer = crate. A workload that
/// bypasses a layer reports that layer's metrics as 0.
pub const PER_LAYER: [MetricSpec; 91] = [
    lo("gen.generate_s", "s"),
    lo("frontend.preprocess_s", "s"),
    lo("frontend.parse_s", "s"),
    lo("frontend.lower_s", "s"),
    lo("frontend.simplify_s", "s"),
    hi("frontend.kloc_per_s", "kLOC/s"),
    lo("frontend.tokens", "count"),
    lo("frontend.stmts", "count"),
    lo("ir.fingerprint_s", "s"),
    lo("memory.layout_s", "s"),
    lo("memory.cells", "count"),
    lo("core.packs_discover_s", "s"),
    lo("core.packs.octagon", "count"),
    lo("core.packs.ellipsoid", "count"),
    lo("core.packs.dtree", "count"),
    lo("core.iterate_s", "s"),
    lo("core.check_s", "s"),
    lo("core.loop_iterations", "count"),
    lo("core.loops_rechecked", "count"),
    lo("core.unattributed_s", "s"),
    lo("core.residual_s", "s"),
    lo("core.session_s", "s"),
    lo("domains.octagon.closure_s", "s"),
    lo("domains.octagon.closure_count", "count"),
    hi("domains.octagon.closure_saved_share", "share"),
    lo("domains.octagon.assign_s", "s"),
    lo("domains.octagon.guard_s", "s"),
    lo("domains.ellipsoid_s", "s"),
    lo("domains.dtree_s", "s"),
    lo("domains.state.join_s", "s"),
    lo("domains.state.widen_s", "s"),
    lo("domains.state.narrow_s", "s"),
    lo("domains.octagon.close_n2_ns", "ns"),
    lo("domains.octagon.close_n3_ns", "ns"),
    lo("domains.octagon.close_n4_ns", "ns"),
    lo("domains.octagon.close_n5_ns", "ns"),
    lo("domains.octagon.close_n8_ns", "ns"),
    lo("domains.octagon.join_n3_ns", "ns"),
    lo("domains.octagon.widen_n3_ns", "ns"),
    lo("pmap.nodes_allocated", "count"),
    lo("pmap.merge_calls", "count"),
    hi("pmap.identity_preserved_share", "ratio"),
    hi("pmap.recycled_share", "share"),
    lo("pmap.slab_bytes_allocated", "B"),
    lo("pmap.bytes_live", "B"),
    lo("pmap.union_shared_ns", "ns"),
    lo("pmap.union_disjoint_ns", "ns"),
    lo("pmap.insert_ns", "ns"),
    lo("pmap.diff2_shared_ns", "ns"),
    lo("core.cache.cold_write_s", "s"),
    lo("core.cache.full_hit_s", "s"),
    lo("core.cache.edit_s", "s"),
    lo("core.cache.transfer_s", "s"),
    lo("core.cache.edit_vs_nocache", "ratio"),
    lo("core.cache.transfer_vs_nocache", "ratio"),
    lo("core.cache.bytes_written", "B"),
    lo("core.cache.bytes_read", "B"),
    lo("core.cache.store_mb", "MB"),
    hi("core.cache.seed_accept_share", "share"),
    lo("core.cache.loops_solved", "count"),
    hi("core.cache.export_mb_s", "MB/s"),
    hi("core.cache.import_mb_s", "MB/s"),
    lo("sched.jobs_wall_s", "s"),
    lo("sched.jobs1_wall_s", "s"),
    hi("sched.jobs_speedup", "ratio"),
    lo("sched.jobs_cpu_s", "s"),
    lo("sched.slices", "count"),
    lo("sched.stages", "count"),
    lo("sched.fallbacks", "count"),
    lo("sched.steals", "count"),
    lo("sched.merge_s", "s"),
    hi("sched.worker_busy_share", "share"),
    lo("fleet.batch_wall_s", "s"),
    lo("fleet.seq_wall_s", "s"),
    hi("fleet.speedup_vs_seq", "ratio"),
    hi("fleet.worker_busy_share", "share"),
    lo("fleet.steals", "count"),
    lo("fleet.resent", "count"),
    hi("fleet.frame_encode_mb_s", "MB/s"),
    hi("fleet.frame_decode_mb_s", "MB/s"),
    lo("fleet.store_sync_s", "s"),
    lo("fleet.store_sync_bytes", "B"),
    hi("fleet.store_sync_files", "count"),
    lo("serve.status_p50_ms", "ms"),
    lo("serve.status_p90_ms", "ms"),
    lo("serve.warm_analyze_p50_ms", "ms"),
    lo("serve.warm_analyze_p90_ms", "ms"),
    lo("serve.rejected", "count"),
    lo("obs.untraced_wall_s", "s"),
    lo("obs.traced_wall_s", "s"),
    lo("obs.tracing_overhead_share", "share"),
];

/// Which sizes a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The issue's table: what `suite --seed S` and the driver protocol run.
    Paper,
    /// 4-16 channel members through the same code paths, for CI (`--toy`).
    Toy,
}

impl Scale {
    /// The spelling used in documents.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Toy => "toy",
        }
    }
}

/// Member counts and channel counts of the four workloads at one scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Channels of `paper_cold`'s one member.
    pub paper_cold_channels: usize,
    /// Members of `small_mix`.
    pub small_mix_members: usize,
    /// Channel counts `small_mix` cycles through.
    pub small_mix_cycle: [usize; 4],
    /// Channels of `edit_cycle`'s first member.
    pub edit_channels: usize,
    /// Channels of `edit_cycle`'s larger member of the same seed.
    pub transfer_channels: usize,
    /// Channels of the member `parallel` analyzes with `--jobs N`.
    pub jobs_channels: usize,
    /// Members of `parallel`'s batch.
    pub batch_members: usize,
    /// Channel counts the batch cycles through.
    pub batch_cycle: [usize; 3],
}

/// Every fifth `small_mix` member carries a planted bug.
pub const BUG_EVERY: usize = 5;

/// Full-hit replays in `edit_cycle`.
pub const EDIT_CYCLE_HITS: usize = 3;

impl Scale {
    /// The sizes at this scale.
    pub fn sizes(self) -> Sizes {
        match self {
            Scale::Paper => Sizes {
                paper_cold_channels: 1150,
                small_mix_members: 64,
                small_mix_cycle: [4, 12, 24, 46],
                edit_channels: 96,
                transfer_channels: 128,
                jobs_channels: 256,
                batch_members: 24,
                batch_cycle: [24, 46, 64],
            },
            Scale::Toy => Sizes {
                paper_cold_channels: 16,
                small_mix_members: 12,
                small_mix_cycle: [4, 6, 8, 12],
                edit_channels: 6,
                transfer_channels: 8,
                jobs_channels: 16,
                batch_members: 4,
                batch_cycle: [4, 8, 12],
            },
        }
    }
}

/// `N`: the worker count of the `parallel` workload.
pub fn parallel_n() -> usize {
    host_cpus().min(4)
}

/// CPUs the host grants this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metric_json(m: &MetricSpec) -> Json {
    let mut pairs = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.as_str())),
    ];
    if let Some(gate) = m.gate {
        pairs.push(("bound", Json::Float(gate)));
    }
    Json::obj(pairs)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchsuite/Cargo.toml",
        "--bin",
        "suite",
        "--",
    ];
    let doc = Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchsuite")])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(gated().map(metric_json).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(metric_json).collect())),
    ]);
    let mut text = doc.to_string();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        let want = benchmark_json();
        assert!(on_disk == want, "BENCHMARK.json is stale; it should read:\n{want}");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.gate.unwrap_or(0.0) <= 0.25);
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{w}: {}", w.why().len());
        }
        assert!(PER_LAYER.len() <= 128 && gated().any(|m| m.name == "setup_s"));
    }
}
