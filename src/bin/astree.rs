//! `astree` — the command-line driver.
//!
//! ```text
//! astree analyze <file.c>... [options]   statically prove absence of RTEs
//! astree batch [files...] [options]      analyze a fleet of programs
//! astree serve [options]                 resident process: daemon and fleet worker
//! astree client [files...] [options]     send requests to a serving daemon
//! astree run <file.c> [options]          execute with the reference interpreter
//! astree slice <file.c> [options]        backward slices from alarm points
//! astree generate [options]              emit a synthetic family member
//! astree fuzz [options]                  differential soundness campaign
//! ```
//!
//! Run `astree <command> --help` for the options of each command; what
//! each accepts is declared in `astree::options`.

use astree::core::{AnalysisConfig, AnalysisSession};
use astree::fleet::{self, FleetOptions, FleetReport, FleetSession, JobSpec};
use astree::frontend::Frontend;
use astree::gen::generate;
use astree::ir::{Interp, InterpConfig, SeededInputs};
use astree::obs::Json;
use astree::options::{self, parse_args, RunOptions};
use astree::oracle::{campaign_to_json, run_campaign, DivergenceKind};
use astree::serve::client::AnalyzeRequest;
use astree::serve::{self, Client, Endpoint, Server};
use astree::slicer::Slicer;
use std::fmt::Display;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: astree <analyze|batch|serve|client|run|slice|generate|fuzz> [options]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "analyze" => cmd_analyze(rest),
        "batch" => cmd_batch(rest),
        // `worker` is the old name `benchsuite/` still spawns.
        "serve" | "worker" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "run" => cmd_run(rest),
        "slice" => cmd_slice(rest),
        "generate" => cmd_generate(rest),
        "fuzz" => cmd_fuzz(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}\nrun `astree <command> --help` for the options of each command");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("astree: {msg}");
            ExitCode::from(2)
        }
    }
}

fn compile(files: &[String]) -> Result<astree::ir::Program, String> {
    if files.is_empty() {
        return Err("no input files".into());
    }
    let read = |f: &String| std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"));
    let sources = files.iter().map(read).collect::<Result<Vec<_>, _>>()?;
    let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
    Frontend::new().compile_units(&refs).map_err(|e| e.to_string())
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let Some((((census, invariant), mut config, run), files)) = parse_args(options::analyze, args)?
    else {
        return Ok(ExitCode::SUCCESS);
    };
    let program = compile(&files)?;
    let errs = program.validate();
    if !errs.is_empty() {
        return Err(format!("invalid program: {}", errs.join("; ")));
    }
    config.jobs = run.jobs.unwrap_or(config.jobs);
    let (jobs, max_iterations) = (config.jobs, config.max_iterations);
    let store = run.open_store()?;
    let telemetry = run.telemetry()?;
    let mut builder = AnalysisSession::builder(&program).config(config);
    if let Some(t) = &telemetry {
        builder = builder.recorder(t.recorder.as_ref());
    }
    if let Some(s) = &store {
        builder = builder.cache(Arc::clone(s));
    }
    let result = builder.build().run();
    if let Some(t) = telemetry {
        t.finish()?;
    }
    println!(
        "analyzed {} ({} cells, {} octagon packs, {} filters, {} decision-tree packs)",
        program.metrics(),
        result.stats.cells,
        result.stats.octagon_packs,
        result.stats.ellipse_packs,
        result.stats.dtree_packs,
    );
    if result.cache.full_hit {
        println!(
            "time: {:.2?} re-proved from cache (cold run: {:.2?} invariant generation + {:.2?} checking)",
            result.stats.time_replay, result.stats.time_iterate, result.stats.time_check
        );
    } else {
        println!(
            "time: {:.2?} invariant generation + {:.2?} checking",
            result.stats.time_iterate, result.stats.time_check
        );
    }
    if result.cache.enabled && result.cache.full_hit {
        println!("cache: full hit, re-proved the stored invariant");
    } else if result.cache.enabled {
        println!("cache: miss, solved and stored");
    }
    if result.stats.parallel_stages > 0 {
        println!(
            "parallel: {} sliced stages, {} slices across {} workers",
            result.stats.parallel_stages, result.stats.parallel_slices, jobs,
        );
    }
    if let Some(line) = result.stats.budget_line(max_iterations) {
        println!("{line}");
    }
    for (func, id) in &result.stats.premise_loops {
        println!("premise: {func} loop {id} is not inductive in its context");
    }
    let census = result.main_census.filter(|_| census);
    let invariant = result.main_invariant.filter(|_| invariant);
    let premise_held = result.stats.premise.failed == 0;
    let unproven = print_verdict(census, invariant, &result.alarms, premise_held);
    Ok(if unproven { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

/// Prints the census and invariant (when given) and the alarms — the
/// verdict part of a report, shared by `analyze` and `client` so the two
/// match byte for byte. Without alarms, the program is proven only when
/// every invariant passed its premise test (`premise_held`). Returns
/// whether the program is not proven.
fn print_verdict(
    census: Option<impl Display>,
    invariant: Option<impl Display>,
    alarms: &[impl Display],
    premise_held: bool,
) -> bool {
    if let Some(c) = census {
        println!("\nmain loop invariant census:\n{c}");
    }
    if let Some(inv) = invariant {
        println!("\nmain loop invariant:\n{inv}");
    }
    if alarms.is_empty() && premise_held {
        println!("\nno alarms: the program is proven free of run-time errors");
    } else if alarms.is_empty() {
        println!("\nno alarms, but an invariant is not inductive: nothing is proven");
    } else {
        println!("\n{} alarm(s):", alarms.len());
        for a in alarms {
            println!("  {a}");
        }
    }
    !alarms.is_empty() || !premise_held
}

/// Runs `jobs` as one fleet session under the fleet and run flags of
/// `batch`, on `threads` in-process workers unless `--workers` or
/// `--connect` say otherwise.
fn run_fleet(
    jobs: Vec<JobSpec>,
    config: AnalysisConfig,
    threads: usize,
    fleet: FleetOptions,
    run: &RunOptions,
) -> Result<FleetReport, String> {
    let store = run.open_store()?;
    let telemetry = run.telemetry()?;
    let mut builder =
        FleetSession::builder().jobs(jobs).config(config).threads(threads).fleet(fleet);
    if let Some(store) = store {
        builder = builder.cache(store);
    }
    if let Some(t) = &telemetry {
        builder = builder.recorder(Arc::clone(&t.recorder));
    }
    let report = builder.run();
    if let Some(t) = telemetry {
        t.finish()?;
    }
    Ok(report)
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let Some(((batch, fleet, run), files)) = parse_args(options::batch, args)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let mut jobs: Vec<JobSpec> = Vec::new();
    for f in &files {
        let source = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        jobs.push(JobSpec::new(f.clone(), source));
    }
    let seeds = batch.seeds.unwrap_or_else(|| (1..=batch.gen as u64).collect());
    jobs.extend(fleet::generated_jobs(&batch.channels.unwrap_or(vec![4]), &seeds));
    if jobs.is_empty() {
        return Err("no jobs: give input files, --gen N, or --seeds".into());
    }
    let n = jobs.len();
    let config =
        AnalysisConfig { jobs: batch.analysis_jobs.unwrap_or(1), ..AnalysisConfig::default() };
    let report = run_fleet(jobs, config, run.jobs.unwrap_or(2), fleet, &run)?;
    if run.cache.is_some() {
        // From the outcomes, not the store's counters: a worker process's
        // lookups never reach this process's store.
        let hits = report.outcomes.iter().filter(|o| o.cache_full_hit).count();
        println!("cache: {hits} full hit(s), {} miss(es)", report.completed() - hits);
    }
    if let Some(path) = &batch.report {
        std::fs::write(path, report.stable_report()).map_err(|e| format!("{path}: {e}"))?;
    }
    if batch.json {
        println!("{}", batch_json(&report));
    } else {
        let kind = if report.counters.processes { "worker process(es)" } else { "worker(s)" };
        println!("batch: {n} jobs on {} {kind}", report.workers);
        for o in &report.outcomes {
            match o.alarms {
                Some(a) => {
                    println!("  {:<24} {:>9} {:>4} alarm(s)  {:.2?}", o.name, o.status, a, o.wall)
                }
                None => println!(
                    "  {:<24} {:>9}  {}",
                    o.name,
                    o.status,
                    o.detail.as_deref().unwrap_or("-")
                ),
            }
        }
        println!(
            "wall {:.2?}, sequential cost {:.2?}, speedup {:.2}x",
            report.wall,
            report.total_job_time,
            report.speedup()
        );
        let c = &report.counters;
        if c.processes {
            println!(
                "fleet: {} resent, {} crash(es), {} timeout(s), {} respawn(s), {} store hit(s)",
                c.resent, c.crashes, c.timeouts, c.respawns, c.store_full_hits
            );
            if c.store_gets + c.store_puts > 0 {
                println!(
                    "  wire sync: {} file(s) shipped to workers, {} imported back",
                    c.store_gets, c.store_puts
                );
            }
        }
        for (w, pw) in c.per_worker.iter().enumerate() {
            println!(
                "  worker {w}: {} job(s), busy {:.2?}",
                pw.jobs,
                Duration::from_nanos(pw.busy_nanos)
            );
        }
    }
    let clean = report.completed() == n && report.total_alarms() == 0;
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// The `batch --json` document.
fn batch_json(report: &fleet::FleetReport) -> Json {
    let secs = |d: Duration| Json::Float(d.as_secs_f64());
    let jobs = report.outcomes.iter().map(|o| {
        Json::obj([
            ("name", Json::str(&o.name)),
            ("status", Json::str(o.status.slug())),
            ("alarms", o.alarms.map_or(Json::Null, |a| Json::UInt(a as u64))),
            ("wall_s", secs(o.wall)),
            ("worker", Json::UInt(o.worker as u64)),
            ("resent", Json::UInt(o.resent as u64)),
        ])
    });
    let c = &report.counters;
    let per_worker = c.per_worker.iter().map(|w| {
        Json::obj([
            ("jobs", Json::UInt(w.jobs)),
            ("busy_s", secs(Duration::from_nanos(w.busy_nanos))),
        ])
    });
    Json::obj([
        ("jobs", Json::Arr(jobs.collect())),
        ("workers", Json::UInt(report.workers as u64)),
        ("wall_s", secs(report.wall)),
        ("sequential_cost_s", secs(report.total_job_time)),
        ("speedup", Json::Float(report.speedup())),
        ("fleet", c.to_json()),
        ("per_worker", Json::Arr(per_worker.collect())),
    ])
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let Some((((daemon, stdio), endpoint), _)) = parse_args(options::serve, args)? else {
        return Ok(ExitCode::SUCCESS);
    };
    if stdio {
        // Frames only: stdout is the connection.
        serve::serve_stdio(&daemon).map_err(|e| format!("serve: {e}"))?;
        return Ok(ExitCode::SUCCESS);
    }
    let (jobs, max_inflight) = (daemon.jobs, daemon.max_inflight);
    let endpoint = endpoint.unwrap_or_else(Endpoint::default_socket);
    let server = Server::bind(endpoint, daemon).map_err(|e| format!("bind: {e}"))?;
    println!(
        "astree serve: listening on {} ({jobs} analysis worker(s), max {max_inflight} in flight)",
        server.endpoint()
    );
    server.serve().map_err(|e| format!("serve: {e}"))?;
    println!("astree serve: shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let Some(((requests, (census, invariant), endpoint), files)) =
        parse_args(options::client, args)?
    else {
        return Ok(ExitCode::SUCCESS);
    };
    let endpoint = endpoint.unwrap_or_else(Endpoint::default_socket);
    if files.is_empty() && !requests.status && !requests.shutdown {
        return Err("nothing to do: give input files, --status or --shutdown".into());
    }
    let mut client =
        Client::connect(&endpoint).map_err(|e| format!("connect to {endpoint}: {e}"))?;
    let mut alarmed = false;
    for f in &files {
        let source = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let req = AnalyzeRequest {
            source,
            events: requests.events.or(Some(if requests.show_events { "coarse" } else { "none" })),
            ..AnalyzeRequest::default()
        };
        let outcome = client.analyze(&req).map_err(|e| format!("{f}: {e}"))?;
        if requests.show_events {
            for ev in &outcome.events {
                eprintln!("{}", ev.to_compact());
            }
        }
        let census = outcome.main_census.filter(|_| census);
        let invariant = outcome.main_invariant.filter(|_| invariant);
        alarmed |= print_verdict(census, invariant, &outcome.alarms, true);
    }
    if requests.status {
        let frame = client.status().map_err(|e| format!("status: {e}"))?;
        println!("{frame}");
    }
    if requests.shutdown {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        println!("daemon shut down");
    }
    Ok(if alarmed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let Some(((seed, ticks), files)) = parse_args(options::run, args)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let (seed, ticks) = (seed.unwrap_or(1), ticks.unwrap_or(1000));
    let program = compile(&files)?;
    let mut inputs = SeededInputs::new(seed);
    let mut interp =
        Interp::new(&program, InterpConfig { max_steps: u64::MAX, max_ticks: ticks }, &mut inputs);
    match interp.run() {
        Ok(()) => {
            println!("completed {} clock ticks", interp.ticks());
            if interp.events().is_empty() {
                println!("no run-time events");
                Ok(ExitCode::SUCCESS)
            } else {
                println!("{} recoverable events:", interp.events().len());
                for (stmt, e) in interp.events() {
                    println!("  stmt {}: {e:?}", stmt.0);
                }
                Ok(ExitCode::from(1))
            }
        }
        Err(e) => {
            println!("run-time error after {} ticks: {e}", interp.ticks());
            Ok(ExitCode::from(1))
        }
    }
}

fn cmd_slice(args: &[String]) -> Result<ExitCode, String> {
    let Some((abstract_slice, files)) = parse_args(options::slice, args)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let program = compile(&files)?;
    let result = AnalysisSession::builder(&program).build().run();
    if result.alarms.is_empty() {
        println!("no alarms to slice");
        return Ok(ExitCode::SUCCESS);
    }
    let interesting = if abstract_slice {
        result.main_invariant.as_ref().map(|inv| {
            let layout =
                astree::memory::CellLayout::new(&program, &astree::memory::LayoutConfig::default());
            astree::core::under_constrained_vars(inv, &layout, 1e6)
        })
    } else {
        None
    };
    let slicer = Slicer::new(&program);
    for alarm in &result.alarms {
        let slice = match &interesting {
            Some(vars) => slicer.slice_restricted(alarm.stmt, vars),
            None => slicer.slice(alarm.stmt),
        };
        println!(
            "{alarm}\n  slice: {} of {} statements ({:.0}%)",
            slice.len(),
            slice.total_stmts,
            100.0 * slice.coverage()
        );
    }
    Ok(ExitCode::from(1))
}

fn cmd_generate(args: &[String]) -> Result<ExitCode, String> {
    let Some(((member, out), _)) = parse_args(options::generate, args)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let src = generate(&member);
    match out {
        Some(path) => std::fs::write(&path, &src).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{src}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    let Some(((corpus, (quiet, report, baseline), run), _)) = parse_args(options::fuzz, args)?
    else {
        return Ok(ExitCode::SUCCESS);
    };
    let base_json = match &baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let campaign = run_campaign(&corpus, run.jobs.unwrap_or(1));
    if !quiet {
        for (spec, result) in &campaign.runs {
            match result {
                Ok(outcome) => {
                    let verdict = if outcome.divergences.is_empty() { "ok" } else { "DIVERGED" };
                    println!(
                        "{:24} {} executions, {} states checked, {} alarms: {verdict}",
                        spec.label(),
                        outcome.executions,
                        outcome.states_checked,
                        outcome.alarms.values().sum::<u64>(),
                    );
                }
                Err(e) => println!("{:24} {e}", spec.label()),
            }
        }
    }
    for d in &campaign.divergences {
        let what = match &d.kind {
            DivergenceKind::Escape { cell, value, abs } => {
                format!("cell {cell} = {value} escapes {abs}")
            }
            DivergenceKind::Unreachable => "reached a claimed-unreachable statement".to_string(),
            DivergenceKind::MissedError { kind } => format!("uncovered {kind} error"),
        };
        eprintln!(
            "divergence: {} seed {} stmt {} tick {}: {what}",
            d.member.label(),
            d.exec_seed,
            d.stmt,
            d.tick
        );
    }
    println!(
        "campaign: {} members, {} executions, {} states checked, {} divergences",
        campaign.members,
        campaign.executions,
        campaign.states_checked,
        campaign.divergences.len()
    );
    let json = campaign_to_json(&campaign, base_json.as_ref());
    if let Some(path) = report {
        let mut text = json.to_compact();
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if campaign.divergences.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}
