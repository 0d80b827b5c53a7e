//! End-to-end tests of the distributed fleet: the `astree batch` CLI
//! driving real `astree serve` processes, local children on stdin/stdout
//! or daemons on a socket, over the `astree-serve/2` wire protocol.
//!
//! These are the acceptance tests of the fleet determinism contract:
//! outcomes are reported in submission order and are byte-identical for
//! every worker count, crashes are isolated and re-queued, and the
//! shared invariant store warms all workers.

use astree::fleet::{FleetSession, JobSpec, JobStatus};
use astree::obs::Json;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

fn astree() -> Command {
    Command::new(env!("CARGO_BIN_EXE_astree"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astree-fleet-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `astree batch` with the given extra args, and `TMPDIR` set to
/// `tmpdir` if given; returns (stdout, exit code). A run that outlives a
/// generous deadline is killed and fails the test.
fn batch(extra: &[&str], tmpdir: Option<&Path>) -> (String, i32) {
    let mut cmd = astree();
    cmd.arg("batch").args(extra).stdout(Stdio::piped()).stderr(Stdio::piped());
    if let Some(dir) = tmpdir {
        cmd.env("TMPDIR", dir);
    }
    let child = cmd.spawn().expect("spawn astree batch");
    let pid = child.id().to_string();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(child.wait_with_output()));
    let Ok(out) = rx.recv_timeout(Duration::from_secs(300)) else {
        let _ = Command::new("kill").args(["-9", &pid]).status();
        panic!("batch {extra:?} hung");
    };
    let out = out.expect("wait for astree batch");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let Some(code) = out.status.code() else {
        panic!("batch was killed by a signal\nstdout:\n{stdout}\nstderr:\n{stderr}")
    };
    (stdout, code)
}

/// Runs `astree batch` with the given extra args; returns (stdout, success).
fn run_batch(extra: &[&str]) -> (String, bool) {
    let (stdout, code) = batch(extra, None);
    (stdout, code == 0)
}

/// The JSON document of a `batch --json` run (after any `cache:` line).
fn json_of(stdout: &str) -> Json {
    let start = stdout.find('{').expect("json in output");
    Json::parse(&stdout[start..]).expect("batch --json output parses")
}

/// The text report's line for job `name`.
fn job_line<'a>(stdout: &'a str, name: &str) -> &'a str {
    let prefix = format!("  {name} ");
    stdout.lines().find(|l| l.starts_with(&prefix)).unwrap_or_else(|| panic!("{name}: {stdout}"))
}

#[test]
fn fleet_outcomes_are_identical_for_every_worker_count() {
    let dir = temp_dir("determinism");
    let mut reports = Vec::new();
    for workers in [0usize, 1, 2, 4] {
        let report = dir.join(format!("report-w{workers}.txt"));
        let (stdout, ok) = run_batch(&[
            "--gen",
            "6",
            "--channels",
            "1,2,3",
            "--workers",
            &workers.to_string(),
            "--report",
            report.to_str().unwrap(),
            "--json",
        ]);
        assert!(ok, "clean fleet run with {workers} worker(s)\n{stdout}");
        reports.push(std::fs::read_to_string(&report).expect("report written"));
        // Every job ran once, on some lane; one lane runs them all.
        let Some(Json::Arr(lanes)) = json_of(&stdout).get("per_worker").cloned() else {
            panic!("per_worker missing\n{stdout}")
        };
        let jobs: Vec<u64> =
            lanes.iter().map(|l| l.get("jobs").unwrap().as_u64().unwrap()).collect();
        if workers > 0 {
            assert_eq!(jobs.iter().sum::<u64>(), 6, "workers={workers}\n{stdout}");
        }
        if workers == 1 {
            assert_eq!(jobs, [6], "{stdout}");
        }
    }
    let base = &reports[0];
    assert!(base.starts_with("fleet-report/1\n"), "report header: {base}");
    assert!(base.contains("gen-c1-s1"), "report lists jobs: {base}");
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(
            base,
            r,
            "stable report for workers={} differs from the in-process run",
            [0usize, 1, 2, 4][i]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_workers_jobs_are_rescattered() {
    // `--crash-on` makes the worker that receives the named job first
    // abort; the coordinator must respawn and re-queue so the job still
    // completes, counted in `fleet.resent`.
    let (stdout, ok) = run_batch(&[
        "--gen",
        "4",
        "--channels",
        "1,2",
        "--workers",
        "2",
        "--crash-on",
        "gen-c1-s1",
        "--json",
    ]);
    assert!(ok, "fleet absorbs the crash\n{stdout}");
    let j = Json::parse(&stdout).expect("batch --json output parses");
    let jobs = match j.get("jobs") {
        Some(Json::Arr(jobs)) => jobs,
        other => panic!("jobs array missing: {other:?}"),
    };
    assert_eq!(jobs.len(), 4);
    for job in jobs {
        assert_eq!(
            job.get("status").and_then(Json::as_str),
            Some("done"),
            "every job completes despite the crash: {stdout}"
        );
    }
    let fleet = j.get("fleet").expect("fleet counters in --json output");
    let count = |key: &str| fleet.get(key).and_then(Json::as_u64).unwrap_or(0);
    assert!(count("crashes") >= 1, "crash observed: {stdout}");
    assert!(count("resent") >= 1, "crashed job re-scattered: {stdout}");
    assert!(count("respawns") >= 1, "dead worker respawned: {stdout}");
}

#[test]
fn a_crash_past_the_retry_budget_fails_that_job_alone() {
    let (stdout, code) = batch(
        &[
            "--gen",
            "4",
            "--channels",
            "1,2",
            "--workers",
            "2",
            "--crash-on",
            "gen-c1-s1",
            "--retry-budget",
            "0",
        ],
        None,
    );
    assert_eq!(code, 1, "a crashed job fails the batch\n{stdout}");
    let crashed = job_line(&stdout, "gen-c1-s1");
    assert!(crashed.contains(" crashed "), "{stdout}");
    assert!(crashed.ends_with("retry budget of 0 exhausted"), "{stdout}");
    for name in ["gen-c2-s2", "gen-c1-s3", "gen-c2-s4"] {
        assert!(job_line(&stdout, name).contains(" done "), "{name}: {stdout}");
    }
}

#[test]
fn a_fleet_with_no_live_workers_reports_every_job_crashed() {
    let (stdout, code) = batch(
        &["--gen", "4", "--channels", "1,2", "--workers", "2", "--worker-cmd", "/nonexistent"],
        None,
    );
    assert_eq!(code, 1, "{stdout}");
    for name in ["gen-c1-s1", "gen-c2-s2", "gen-c1-s3", "gen-c2-s4"] {
        let line = job_line(&stdout, name);
        assert!(line.contains(" crashed ") && line.contains("no live workers left"), "{stdout}");
    }
}

#[test]
fn shared_store_warms_across_worker_processes() {
    // Pass 1 fills the shared invariant store from two worker processes;
    // pass 2 must replay every member from the store, including members
    // analyzed by the *other* worker in pass 1.
    let dir = temp_dir("warm-store");
    let cache = dir.join("store");
    let cache_arg = cache.to_str().unwrap();
    let args =
        ["--gen", "4", "--channels", "1,2", "--workers", "2", "--cache", cache_arg, "--json"];
    let (stdout1, ok1) = run_batch(&args);
    assert!(ok1, "cold pass succeeds\n{stdout1}");
    let (stdout2, ok2) = run_batch(&args);
    assert!(ok2, "warm pass succeeds\n{stdout2}");

    let hits = |stdout: &str| -> u64 {
        // The `cache:` summary line precedes the JSON document.
        let json_start = stdout.find('{').expect("json in output");
        let j = Json::parse(&stdout[json_start..]).expect("batch --json output parses");
        j.get("fleet").and_then(|f| f.get("store_full_hits")).and_then(Json::as_u64).unwrap_or(0)
    };
    assert_eq!(hits(&stdout1), 0, "cold pass has no store hits\n{stdout1}");
    assert_eq!(hits(&stdout2), 4, "warm pass replays every job from the store\n{stdout2}");
    // The summary counts the workers' lookups, as at `--jobs N`.
    assert!(stdout1.starts_with("cache: 0 full hit(s), 4 miss(es)\n"), "{stdout1}");
    assert!(stdout2.starts_with("cache: 4 full hit(s), 0 miss(es)\n"), "{stdout2}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_synced_store_warms_workers_without_a_shared_filesystem() {
    // `--cache-wire` keeps the invariant store private to the coordinator:
    // its store files ride each `run` request out to the workers, and the
    // results a job stored ride its `result` back. Pass 2
    // must replay every member from the wire-synced store even though no
    // worker ever sees the cache directory.
    let dir = temp_dir("wire-store");
    let cache = dir.join("store");
    let cache_arg = cache.to_str().unwrap();
    let report1 = dir.join("report-cold.txt");
    let report2 = dir.join("report-warm.txt");
    let args = |report: &str| {
        vec![
            "--gen".to_string(),
            "4".into(),
            "--channels".into(),
            "1,2".into(),
            "--workers".into(),
            "2".into(),
            "--cache".into(),
            cache_arg.to_string(),
            "--cache-wire".into(),
            "--json".into(),
            "--report".into(),
            report.to_string(),
        ]
    };
    let cold_args = args(report1.to_str().unwrap());
    let (stdout1, ok1) = run_batch(&cold_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(ok1, "cold wire-synced pass succeeds\n{stdout1}");
    let warm_args = args(report2.to_str().unwrap());
    let (stdout2, ok2) = run_batch(&warm_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(ok2, "warm wire-synced pass succeeds\n{stdout2}");

    let fleet_count = |stdout: &str, key: &str| -> u64 {
        let json_start = stdout.find('{').expect("json in output");
        let j = Json::parse(&stdout[json_start..]).expect("batch --json output parses");
        j.get("fleet").and_then(|f| f.get(key)).and_then(Json::as_u64).unwrap_or(0)
    };
    // Cold pass: nothing to replay, but workers ship their converged
    // entries back to the coordinator's store.
    assert_eq!(fleet_count(&stdout1, "store_full_hits"), 0, "cold pass\n{stdout1}");
    assert!(fleet_count(&stdout1, "store_puts") > 0, "workers push entries back\n{stdout1}");
    // Warm pass: every member replays from entries pulled over the wire.
    assert_eq!(fleet_count(&stdout2, "store_full_hits"), 4, "warm pass replays all\n{stdout2}");
    assert!(fleet_count(&stdout2, "store_gets") > 0, "coordinator ships files out\n{stdout2}");
    // The determinism contract holds across cold and warm.
    let cold = std::fs::read_to_string(&report1).expect("cold report");
    let warm = std::fs::read_to_string(&report2).expect("warm report");
    assert_eq!(cold, warm, "warm wire-synced report matches cold");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wire-synced worker keeps its store in a temp directory; at the end of
/// its input it exits on its own and removes it. One that crashes cannot: the
/// coordinator removes the store of the local worker it reaped.
#[test]
fn wire_synced_workers_leave_no_temp_store() {
    let dir = temp_dir("wire-tmpdir");
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create TMPDIR");
    let cache = dir.join("store");
    let cache = cache.to_str().unwrap();
    let args =
        ["--gen", "6", "--channels", "2,3,4", "--workers", "2", "--cache", cache, "--cache-wire"];
    let crash: Vec<&str> = args.iter().copied().chain(["--crash-on", "gen-c2-s1"]).collect();
    for (pass, args, line) in [
        ("cold", &args[..], "cache: 0 full hit(s), 6 miss(es)\n"),
        ("warm", &args[..], "cache: 6 full hit(s), 0 miss(es)\n"),
        ("crash", &crash[..], "cache: 6 full hit(s), 0 miss(es)\n"),
    ] {
        let (stdout, code) = batch(args, Some(&tmp));
        assert_eq!(code, 0, "{pass} pass\n{stdout}");
        assert!(stdout.starts_with(line), "{pass} pass\n{stdout}");
    }
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .expect("read TMPDIR")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("astree-fleet-sync-"))
        .collect();
    assert!(left.is_empty(), "workers left temp stores behind: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four members of one family on one fresh store: which member finds whose
/// results there depends on the schedule, the report does not — it is the
/// report of the run without a store, byte for byte.
#[test]
fn a_shared_store_never_changes_the_report() {
    let dir = temp_dir("shared-store-report");
    let files: Vec<String> = [4usize, 8, 12, 16]
        .iter()
        .map(|&channels| {
            let path = dir.join(format!("fam{channels}.c"));
            let source =
                astree::gen::generate(&astree::gen::GenConfig { channels, seed: 12345, bug: None });
            std::fs::write(&path, source).expect("member written");
            path.to_str().unwrap().to_string()
        })
        .collect();
    let report_of = |tag: &str, extra: &[&str]| {
        let report = dir.join(format!("report-{tag}.txt"));
        let mut args: Vec<&str> = files.iter().map(String::as_str).collect();
        args.extend(extra);
        args.extend(["--report", report.to_str().unwrap()]);
        let (stdout, ok) = run_batch(&args);
        assert!(ok, "clean run ({tag})\n{stdout}");
        std::fs::read_to_string(&report).expect("report written")
    };
    let plain = report_of("plain", &[]);
    assert!(plain.starts_with("fleet-report/1\n") && plain.contains("fam16"), "{plain}");
    for (tag, how) in
        [("jobs1", ["--jobs", "1"]), ("jobs4", ["--jobs", "4"]), ("w2", ["--workers", "2"])]
    {
        let cache = dir.join(format!("store-{tag}"));
        let cached = report_of(tag, &[how[0], how[1], "--cache", cache.to_str().unwrap()]);
        assert_eq!(plain, cached, "report with a fresh shared store at {how:?}");
        assert_eq!(std::fs::read_dir(&cache).expect("store written").count(), 4);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts `astree serve --socket` in `dir`, killed on drop, once its socket
/// is bound.
struct Daemon {
    child: std::process::Child,
    sock: PathBuf,
}

impl Daemon {
    fn start(dir: &Path) -> Daemon {
        let sock = dir.join("serve.sock");
        let child = astree()
            .args(["serve", "--socket"])
            .arg(&sock)
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn astree serve");
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(sock.exists(), "the daemon bound its socket");
        Daemon { child, sock }
    }

    fn connect_arg(&self) -> String {
        format!("unix:{}", self.sock.display())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One `astree serve --socket` process serves a coordinator and a client:
/// the `--connect` fleet's stable report is the in-process one, and the
/// client's verdict is `astree analyze`'s.
#[test]
fn remote_workers_over_a_unix_socket_agree_with_in_process() {
    let dir = temp_dir("socket");
    let daemon = Daemon::start(&dir);

    let local = dir.join("report-local.txt");
    let remote = dir.join("report-remote.txt");
    let (stdout, ok) =
        run_batch(&["--gen", "3", "--channels", "1,2", "--report", local.to_str().unwrap()]);
    assert!(ok, "in-process run\n{stdout}");
    let (stdout, ok) = run_batch(&[
        "--gen",
        "3",
        "--channels",
        "1,2",
        "--connect",
        &daemon.connect_arg(),
        "--report",
        remote.to_str().unwrap(),
    ]);
    assert!(ok, "remote run over the socket\n{stdout}");
    let local = std::fs::read_to_string(&local).expect("local report");
    let remote = std::fs::read_to_string(&remote).expect("remote report");
    assert_eq!(local, remote, "socket fleet matches the in-process fleet");

    let member = dir.join("member.c");
    let generate = ["generate", "--channels", "2", "--seed", "5", "-o"];
    assert!(astree().args(generate).arg(&member).status().unwrap().success());
    let report = ["--census", "--dump-invariant"];
    let analyze = astree().arg("analyze").arg(&member).args(report).output().unwrap();
    let oneshot: String = String::from_utf8(analyze.stdout)
        .unwrap()
        .lines()
        .filter(|l| !["analyzed", "time:", "cache:", "parallel:"].iter().any(|p| l.starts_with(p)))
        .map(|l| format!("{l}\n"))
        .collect();
    let client = astree()
        .args(["client", "--socket"])
        .arg(&daemon.sock)
        .arg(&member)
        .args(report)
        .output()
        .unwrap();
    assert_eq!(client.status.code(), analyze.status.code());
    assert_eq!(String::from_utf8(client.stdout).unwrap(), oneshot, "client matches analyze");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second `astree serve --socket` on a live daemon's socket exits with
/// an error instead of taking the socket over; the first keeps serving.
#[test]
fn a_second_worker_refuses_a_live_socket() {
    let dir = temp_dir("live-socket");
    let first = Daemon::start(&dir);
    let mut second = astree()
        .args(["serve", "--socket"])
        .arg(&first.sock)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn a second daemon");
    let mut waited = 0;
    let status = loop {
        if let Some(status) = second.try_wait().expect("poll the second daemon") {
            break status;
        }
        if waited == 400 {
            second.kill().ok();
            panic!("the second daemon took the live socket over");
        }
        std::thread::sleep(Duration::from_millis(25));
        waited += 1;
    };
    let mut stderr = String::new();
    second.stderr.take().expect("piped").read_to_string(&mut stderr).expect("read stderr");
    assert!(!status.success(), "second daemon must fail: {stderr}");
    assert!(stderr.contains("already listening"), "{stderr}");

    let (stdout, ok) =
        run_batch(&["--gen", "2", "--channels", "1", "--connect", &first.connect_arg()]);
    assert!(ok, "the first daemon still serves\n{stdout}");
    drop(first);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job whose overrides do not patch ends the same on a worker process as
/// in-process: `failed`, naming the key — not a worker that exits and a job
/// retried until it is `crashed`.
#[test]
fn a_bad_override_fails_alike_at_every_worker_count() {
    let mut bad = JobSpec::new("bad", "int x; void main(void) { x = 1; }");
    bad.overrides = Json::obj([("enable_octagons", Json::UInt(1))]);
    let ok = JobSpec::new("ok", "int x; void main(void) { x = 2; }");
    let run = |workers| {
        FleetSession::builder()
            .jobs(vec![bad.clone(), ok.clone()])
            .workers(workers)
            .worker_cmd(vec![env!("CARGO_BIN_EXE_astree").into(), "serve".into(), "--stdio".into()])
            .run()
    };
    let (inline, forked) = (run(0), run(1));
    let failed = &inline.outcomes[0];
    assert_eq!(failed.status, JobStatus::Failed);
    assert!(
        failed.detail.as_deref().is_some_and(|d| d.contains("`enable_octagons`")),
        "{failed:?}"
    );
    assert_eq!(inline.stable_report(), forked.stable_report());
    assert_eq!(forked.counters.crashes, 0, "no worker died");
}
