//! `suite` — the one command of the `astree-bench/1` benchmark.
//!
//! ```text
//! suite [--seed S] [--workload NAME] [--toy] [--traced] [--out FILE]
//!     generate the inputs, run the workloads (end to end on the release
//!     `astree` CLI, R = 3 repetitions, then traced in-process; `--traced`
//!     skips the former), check every verdict, print and write one
//!     astree-bench/1 document
//! suite --workload NAME --seed S --seconds T --trace 0|1
//!     the benchmark driver's protocol: the same end-to-end (one repetition)
//!     or traced run of one workload; the last line of standard output is
//!     the result object
//! suite --compare A.json B.json
//!     one row per end-to-end metric and workload; exit 1 on a REGRESSION
//! ```
//!
//! Exit status: 0 = every verdict right, 1 = a wrong verdict, a failed check
//! or a regression, 2 = usage or environment error.

use astree::obs::Json;
use astree_benchsuite::child;
use astree_benchsuite::doc::{self, RunInfo, WorkloadResult};
use astree_benchsuite::e2e::{run_workload, Env};
use astree_benchsuite::layers::run_traced;
use astree_benchsuite::spec::{Scale, Workload, DRIVER_REPS, REPS};
use astree_benchsuite::trace::{self, Tracer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Default)]
struct Args {
    seed: u64,
    workload: Option<String>,
    toy: bool,
    traced_only: bool,
    out: Option<PathBuf>,
    seconds: Option<u64>,
    trace: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { seed: 1, ..Args::default() };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let number = |s: String| s.parse::<u64>().map_err(|e| format!("{flag} {s}: {e}"));
        match flag.as_str() {
            "--seed" => args.seed = number(value()?)?,
            "--workload" => args.workload = Some(value()?),
            "--toy" => args.toy = true,
            "--traced" => args.traced_only = true,
            "--out" => args.out = Some(value()?.into()),
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => args.trace = number(value()?)? != 0,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(args)
}

fn selected(args: &Args) -> Result<Vec<Workload>, String> {
    match &args.workload {
        None => Ok(Workload::ALL.to_vec()),
        Some(name) => Workload::from_name(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload {name}")),
    }
}

fn read_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let rows = doc::compare(&read_doc(a)?, &read_doc(b)?)?;
    print!("{}", doc::render_rows(&rows));
    let regressions = rows.iter().filter(|r| r.verdict == "REGRESSION").count();
    let unresolved = rows.iter().filter(|r| r.verdict == "unresolved").count();
    println!(
        "{} rows, {regressions} REGRESSION, {unresolved} unresolved (A = {a}, B = {b})",
        rows.len()
    );
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn git_commit() -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn write_trace(env: &Env, tr: &Tracer) -> Result<(), String> {
    let path = env.work_root.join("trace.json");
    std::fs::write(&path, trace::to_json(tr.spans()).to_compact())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver protocol: one workload, one run, one result line. The body is
/// a fixed amount of work, so `--seconds` selects the protocol and no more.
fn driver_run(args: &Args) -> Result<ExitCode, String> {
    let [workload] = selected(args)?[..] else {
        return Err("--seconds needs --workload NAME".into());
    };
    let scale = if args.toy { Scale::Toy } else { Scale::Paper };
    let env = Env::discover().map_err(|e| e.to_string())?;
    let (line, failures) = if args.trace {
        let mut tr = Tracer::recording();
        let traced = run_traced(&mut tr, &env, workload, scale, args.seed)
            .map_err(|e| format!("{workload}: {e}"))?;
        write_trace(&env, &tr)?;
        (doc::traced_line(&traced), traced.failures)
    } else {
        let e2e = run_workload(&env, workload, scale, args.seed, DRIVER_REPS)
            .map_err(|e| format!("{workload}: {e}"))?;
        (doc::e2e_line(&e2e), e2e.failures)
    };
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    println!("{line}");
    Ok(if failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// The whole suite: every selected workload, one document.
fn suite_run(args: &Args) -> Result<ExitCode, String> {
    let scale = if args.toy { Scale::Toy } else { Scale::Paper };
    let env = Env::discover().map_err(|e| e.to_string())?;
    let mut tr = Tracer::recording();
    let mut results = Vec::new();
    for name in selected(args)? {
        let e2e = if args.traced_only {
            None
        } else {
            eprintln!("{name}: end to end, {REPS} repetitions");
            Some(
                run_workload(&env, name, scale, args.seed, REPS)
                    .map_err(|e| format!("{name}: {e}"))?,
            )
        };
        eprintln!("{name}: traced");
        let traced = run_traced(&mut tr, &env, name, scale, args.seed)
            .map_err(|e| format!("{name}: {e}"))?;
        results.push(WorkloadResult { workload: name, e2e, traced: Some(traced) });
    }
    write_trace(&env, &tr)?;

    let info = RunInfo { seed: args.seed, reps: REPS, scale, commit: git_commit() };
    let rendered = doc::document(&info, &results).to_string();
    let out = args.out.clone().unwrap_or_else(|| env.work_root.join("result.json"));
    std::fs::write(&out, &rendered).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{rendered}");
    eprintln!("self time by span name (s), from {}:", env.work_root.join("trace.json").display());
    for (name, s) in trace::self_time_by_name(tr.spans()) {
        eprintln!("  {name:<24} {s:>10.4}");
    }

    let failures: Vec<String> = results.iter().flat_map(WorkloadResult::failures).collect();
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    eprintln!("wrote {} ({} failure(s))", out.display(), failures.len());
    Ok(if failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(child::HELPER_FLAG) {
        return match child::helper_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("suite: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = parse_args(&argv).and_then(|args| match (&args.compare, args.seconds) {
        (Some((a, b)), _) => compare(a, b),
        (None, Some(_)) => driver_run(&args),
        (None, None) => suite_run(&args),
    });
    outcome.unwrap_or_else(|msg| {
        eprintln!("suite: {msg}");
        ExitCode::from(2)
    })
}
