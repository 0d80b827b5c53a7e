//! End-to-end runs: what a user of the `astree` CLI pays. Every operation
//! is one child process of the release binary built from this commit, with
//! all telemetry off; children run one after another (closed loop, one
//! client).
//!
//! A workload body is a fixed list of operations, repeated a fixed number of
//! times. Every metric is the median over the repetitions (`failed_share`:
//! failed ÷ attempted over all of them), and the repetitions are kept as
//! samples, so the spread is that of the very numbers the median is taken of.

use crate::child::{self, ChildRun, Exit};
use crate::inputs::{dir_bytes, set_up, Inputs, Member};
use crate::spec::{parallel_n, Scale, Workload, CHILD_DEADLINE_S, EDIT_CYCLE_HITS};
use crate::stats::median;
use crate::verdict::{alarms_of_report, alarms_of_stdout, check, Expect};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Where the binary under test and the work directories live.
#[derive(Debug, Clone)]
pub struct Env {
    /// This executable, re-executed as the measuring helper of every child.
    pub helper: PathBuf,
    /// The release `astree` CLI built from this checkout.
    pub astree_bin: PathBuf,
    /// `benchsuite/target/astree-bench-work`.
    pub work_root: PathBuf,
}

impl Env {
    /// Builds the release `astree` CLI of the checkout this crate sits in —
    /// into the target directory this very executable was built into, so
    /// `CARGO_TARGET_DIR` is honoured — and locates the work root.
    pub fn discover() -> io::Result<Env> {
        let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let repo = bench_dir.parent().expect("benchsuite/ sits inside the repo");
        let exe = std::env::current_exe()?;
        let profile_dir = exe.parent().expect("an executable has a directory");
        let target_dir = profile_dir.parent().expect("cargo builds into <target>/<profile>/");
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet", "--bin", "astree"])
            .arg("--manifest-path")
            .arg(repo.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target_dir)
            .stdout(std::process::Stdio::null())
            .status()?;
        let astree_bin = target_dir.join("release").join("astree");
        if !status.success() || !astree_bin.is_file() {
            return Err(io::Error::other(format!(
                "cannot build the astree CLI from {} ({status})",
                repo.display()
            )));
        }
        let work_root = bench_dir.join("target").join("astree-bench-work");
        std::fs::create_dir_all(&work_root)?;
        Ok(Env { helper: exe, astree_bin, work_root })
    }
}

/// What one operation analyzes.
#[derive(Debug, Clone)]
enum OpKind {
    /// `astree analyze` of one member.
    Analyze(usize),
    /// `astree batch` over these members, verdicts read from `--report`.
    Batch(std::ops::Range<usize>),
}

/// One child process of the workload body.
#[derive(Debug, Clone)]
struct Op {
    label: String,
    args: Vec<String>,
    kind: OpKind,
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn analyze_op(label: &str, inputs: &Inputs, dir: &Path, member: usize, extra: &[String]) -> Op {
    let mut args = vec!["analyze".to_string(), path_arg(&inputs.members[member].path(dir))];
    args.extend_from_slice(extra);
    Op { label: label.to_string(), args, kind: OpKind::Analyze(member) }
}

fn cache_dir(dir: &Path) -> PathBuf {
    dir.join("cache")
}

fn report_path(dir: &Path) -> PathBuf {
    dir.join("batch.report")
}

/// The operations of one pass over `inputs`, in order.
fn plan(inputs: &Inputs, dir: &Path) -> Vec<Op> {
    let jobs = |n: usize| vec!["--jobs".to_string(), n.to_string()];
    match inputs.workload {
        Workload::PaperCold => vec![analyze_op("analyze", inputs, dir, 0, &jobs(1))],
        Workload::SmallMix => (0..inputs.members.len())
            .map(|i| analyze_op(&inputs.members[i].id, inputs, dir, i, &jobs(1)))
            .collect(),
        Workload::EditCycle => {
            let cache = vec!["--cache".to_string(), path_arg(&cache_dir(dir))];
            let mut ops = vec![analyze_op("cold_write", inputs, dir, 0, &cache)];
            ops.extend(
                (0..EDIT_CYCLE_HITS).map(|_| analyze_op("full_hit", inputs, dir, 0, &cache)),
            );
            ops.push(analyze_op("edit", inputs, dir, 1, &cache));
            ops.push(analyze_op("transfer", inputs, dir, 2, &cache));
            ops
        }
        Workload::Parallel => {
            let n = parallel_n();
            let mut batch = vec!["batch".to_string()];
            batch.extend(inputs.members[1..].iter().map(|m| path_arg(&m.path(dir))));
            batch.extend(["--workers".to_string(), n.to_string()]);
            batch.extend(jobs(1));
            batch.extend(["--report".to_string(), path_arg(&report_path(dir))]);
            vec![
                analyze_op("analyze_jobs_n", inputs, dir, 0, &jobs(n)),
                Op {
                    label: "batch_workers_n".to_string(),
                    args: batch,
                    kind: OpKind::Batch(1..inputs.members.len()),
                },
            ]
        }
    }
}

/// What one operation cost and said in one pass.
#[derive(Debug, Clone)]
struct OpSample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// Alarm lines per member analysed, for the across-passes comparison.
    alarms: Vec<Vec<String>>,
    /// Members analysed.
    attempted: usize,
    /// One line per failed member.
    failures: Vec<String>,
}

/// Verdicts of one finished `analyze` child.
fn judge_analyze(run: &ChildRun, expect: &Expect) -> (Vec<String>, Result<(), String>) {
    let want_code = if *expect == Expect::Clean { 0 } else { 1 };
    match run.exit {
        Exit::Deadline => {
            return (vec![], Err(format!("killed at the {CHILD_DEADLINE_S} s deadline")))
        }
        Exit::Signal(s) => return (vec![], Err(format!("killed by signal {s}"))),
        Exit::Code(c) if c != want_code => {
            return (vec![], Err(format!("exit code {c}, want {want_code}")))
        }
        Exit::Code(_) => {}
    }
    match alarms_of_stdout(&run.stdout) {
        Ok(alarms) => {
            let verdict = check(expect, &alarms);
            (alarms, verdict)
        }
        Err(e) => (vec![], Err(e)),
    }
}

fn run_op(env: &Env, inputs: &Inputs, dir: &Path, op: &Op) -> io::Result<OpSample> {
    let deadline = Duration::from_secs(CHILD_DEADLINE_S);
    let stdout = dir.join("op.stdout");
    let run =
        child::run_via_helper(&env.helper, &env.astree_bin, &op.args, dir, &stdout, deadline)?;
    let mut alarms = Vec::new();
    let mut failures = Vec::new();
    let mut judged = |m: &Member, verdict: Result<(), String>| {
        if let Err(e) = verdict {
            failures.push(format!("{} {} ({}): {e}", inputs.workload, op.label, m.id));
        }
    };
    let attempted = match &op.kind {
        OpKind::Analyze(i) => {
            let m = &inputs.members[*i];
            let (got, verdict) = judge_analyze(&run, &m.expect);
            alarms.push(got);
            judged(m, verdict);
            1
        }
        OpKind::Batch(range) => {
            let report = std::fs::read_to_string(report_path(dir)).unwrap_or_default();
            let jobs = alarms_of_report(&report);
            for i in range.clone() {
                let m = &inputs.members[i];
                let name = path_arg(&m.path(dir));
                let verdict = match (run.exit, jobs.iter().find(|j| j.0 == name)) {
                    (Exit::Code(0), Some((_, status, got))) => {
                        alarms.push(got.clone());
                        if status == "done" {
                            check(&m.expect, got)
                        } else {
                            Err(format!("job status `{status}`"))
                        }
                    }
                    (Exit::Code(0), None) => Err("job missing from the batch report".to_string()),
                    (exit, _) => Err(format!("batch ended with {exit:?}")),
                };
                judged(m, verdict);
            }
            range.len()
        }
    };
    Ok(OpSample {
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        peak_rss_mb: run.peak_rss_mb,
        alarms,
        attempted,
        failures,
    })
}

/// A metric's reported value and the samples behind it.
#[derive(Debug, Clone)]
pub struct Sampled {
    /// The reported value.
    pub value: f64,
    /// One sample per repetition.
    pub samples: Vec<f64>,
}

impl Sampled {
    fn median(samples: Vec<f64>) -> Sampled {
        Sampled { value: median(&samples), samples }
    }
}

/// The end-to-end result of one workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// The inputs the repetitions ran on.
    pub inputs: Inputs,
    /// `(metric name, value and samples)`: the seven of the issue.
    pub metrics: Vec<(&'static str, Sampled)>,
    /// Members analysed, over all repetitions.
    pub attempted: usize,
    /// Members that failed, over all repetitions.
    pub failed: usize,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl EndToEnd {
    /// The reported value of a metric.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| s.value)
    }
}

/// The workload's work directory under the work root.
pub fn work_dir(env: &Env, workload: Workload) -> PathBuf {
    env.work_root.join(workload.name())
}

/// Set-ups per repetition: at least this many, and for at least this long.
const SETUP_MIN_REPS: usize = 15;
const SETUP_MIN_SECONDS: f64 = 0.5;

/// Sets the workload up repeatedly; returns the inputs and the repetition's
/// `setup_s` sample, the median set-up (a set-up takes 1-8 ms).
fn timed_set_up(
    workload: Workload,
    scale: Scale,
    seed: u64,
    dir: &Path,
) -> io::Result<(Inputs, f64)> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let inputs = set_up(workload, scale, seed, dir)?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS {
            return Ok((inputs, median(&times)));
        }
    }
}

/// Runs the workload `reps` times — set-up, then the body on a fresh work
/// directory — checks every verdict and removes the work directory.
pub fn run_workload(
    env: &Env,
    workload: Workload,
    scale: Scale,
    seed: u64,
    reps: usize,
) -> io::Result<EndToEnd> {
    let dir = work_dir(env, workload);
    let mut setup = Vec::new();
    let mut pass_ops: Vec<Vec<OpSample>> = Vec::new();
    let mut disk = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        // Every set-up recreates the work directory, so the cache starts empty.
        let (inputs, setup_s) = timed_set_up(workload, scale, seed, &dir)?;
        let ops = plan(&inputs, &dir);
        let samples =
            ops.iter().map(|op| run_op(env, &inputs, &dir, op)).collect::<io::Result<_>>()?;
        setup.push(setup_s);
        pass_ops.push(samples);
        disk.push(dir_bytes(&cache_dir(&dir)) as f64 / 1e6);
        last = Some((inputs, ops));
    }
    let (inputs, ops) = last.expect("at least one repetition");
    std::fs::remove_dir_all(&dir)?;

    let kloc: f64 = ops
        .iter()
        .map(|op| match &op.kind {
            OpKind::Analyze(i) => inputs.members[*i].kloc,
            OpKind::Batch(r) => inputs.members[r.clone()].iter().map(|m| m.kloc).sum(),
        })
        .sum();
    let per_pass = |f: &dyn Fn(&[OpSample]) -> f64| -> Sampled {
        Sampled::median(pass_ops.iter().map(|p| f(p)).collect())
    };
    let wall = per_pass(&|p| p.iter().map(|o| o.wall_s).sum());
    let cpu = per_pass(&|p| p.iter().map(|o| o.cpu_s).sum());
    let throughput = Sampled::median(wall.samples.iter().map(|w| kloc / w).collect());
    let rss = per_pass(&|p| p.iter().map(|o| o.peak_rss_mb).fold(0.0, f64::max));
    let failed_by_pass = per_pass(&|p| {
        let failed: usize = p.iter().map(|o| o.failures.len()).sum();
        let attempted: usize = p.iter().map(|o| o.attempted).sum();
        failed as f64 / attempted as f64
    });

    let mut failures: Vec<String> =
        pass_ops.iter().flatten().flat_map(|o| o.failures.iter().cloned()).collect();
    // Alarms must be identical across repetitions.
    for (pass, samples) in pass_ops.iter().enumerate().skip(1) {
        for (i, op) in samples.iter().enumerate() {
            if op.alarms != pass_ops[0][i].alarms && op.failures.is_empty() {
                failures.push(format!(
                    "{workload} {}: alarms of pass {pass} differ from pass 0",
                    ops[i].label
                ));
            }
        }
    }
    let attempted: usize = pass_ops.iter().flatten().map(|o| o.attempted).sum();
    let failed = failures.len().min(attempted);
    let failed_share =
        Sampled { value: failed as f64 / attempted as f64, samples: failed_by_pass.samples };

    Ok(EndToEnd {
        inputs,
        metrics: vec![
            ("wall_s", wall),
            ("cpu_s", cpu),
            ("kloc_per_s", throughput),
            ("peak_rss_mb", rss),
            ("disk_mb", Sampled::median(disk)),
            ("failed_share", failed_share),
            ("setup_s", Sampled::median(setup)),
        ],
        attempted,
        failed,
        failures,
    })
}
