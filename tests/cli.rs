//! The command line: every row of every flag table is in its command's
//! `--help` and parses; bad input is a one-line error with exit status 2.

use astree::core::{AnalysisConfig, Takes};
use astree::obs::Json;
use astree::options::{self, parse_args, Command};
use std::path::PathBuf;
use std::process::{Command as Process, Output, Stdio};
use std::time::{Duration, Instant};

type Row = (&'static str, Takes, &'static str);
type Parse = fn(&[String]) -> Result<(), String>;

fn rows<A: Default>(command: fn(&mut A) -> Command<'_>) -> Vec<Row> {
    command(&mut A::default()).rows().collect()
}

/// Every command: its name, its rows, and its parser.
fn commands() -> Vec<(&'static str, Vec<Row>, Parse)> {
    vec![
        ("analyze", rows(options::analyze), |a| parse_args(options::analyze, a).map(drop)),
        ("batch", rows(options::batch), |a| parse_args(options::batch, a).map(drop)),
        ("fuzz", rows(options::fuzz), |a| parse_args(options::fuzz, a).map(drop)),
        ("serve", rows(options::serve), |a| parse_args(options::serve, a).map(drop)),
        ("client", rows(options::client), |a| parse_args(options::client, a).map(drop)),
        ("run", rows(options::run), |a| parse_args(options::run, a).map(drop)),
        ("slice", rows(options::slice), |a| parse_args(options::slice, a).map(drop)),
        ("generate", rows(options::generate), |a| parse_args(options::generate, a).map(drop)),
    ]
}

/// A valid value for each metavar the tables use.
fn sample(metavar: &str) -> &'static str {
    match metavar {
        "N" => "2",
        "FILE" | "DIR" | "PATH" => "/tmp/astree-cli-sample",
        "ALPHA,LAMBDA,N" => "1,10,12",
        "FN" | "NAME" => "main",
        "V1,V2,..." => "a,b",
        "N1,N2,..." | "S1,S2,..." => "1,2",
        "CMD" => "astree serve --stdio",
        "ADDR" => "unix:/tmp/w.sock",
        "HOST:PORT" => "127.0.0.1:7878",
        "SECS" => "2.5",
        "none|coarse|all" => "coarse",
        "div0|oob|overflow" => "oob",
        other => panic!("no sample value for metavar {other}"),
    }
}

fn astree(args: &[&str]) -> Output {
    Process::new(env!("CARGO_BIN_EXE_astree")).args(args).output().expect("spawn astree")
}

/// Exit status 2 and one line on stderr, which contains `needle`.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = astree(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    assert!(err.starts_with("astree: ") && err.contains(needle), "{args:?}: {err}");
}

/// A generated one-channel member in the temp directory, removed on drop.
struct Program(String);

impl Drop for Program {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn program(tag: &str) -> Program {
    let path = std::env::temp_dir().join(format!("astree-cli-{}-{tag}.c", std::process::id()));
    let path = path.to_str().unwrap().to_string();
    assert!(astree(&["generate", "--channels", "1", "--seed", "1", "-o", &path]).status.success());
    Program(path)
}

#[test]
fn every_row_is_in_its_help_and_parses() {
    for (name, rows, parse) in commands() {
        let out = astree(&[name, "--help"]);
        assert!(out.status.success(), "{name} --help");
        let help = String::from_utf8(out.stdout).unwrap();
        for (flag, takes, text) in rows {
            let line = help.lines().find(|l| l.split_whitespace().next() == Some(flag));
            assert!(line.is_some_and(|l| l.contains(text)), "{name} --help lacks {flag}:\n{help}");
            let mut args = vec![flag.to_string()];
            if let Takes::Value(metavar) = takes {
                args.push(sample(metavar).to_string());
            }
            assert_eq!(parse(&args), Ok(()), "{name} {args:?}");
        }
    }
}

#[test]
fn unknown_flags_and_missing_values_are_one_line_errors() {
    for (name, rows, _) in commands() {
        assert_usage_error(&[name, "--no-such-flag"], "unknown option --no-such-flag");
        if let Some((flag, ..)) = rows.iter().find(|r| matches!(r.1, Takes::Value(_))) {
            assert_usage_error(&[name, flag], &format!("{flag} needs a value"));
        }
    }
    let Program(file) = &program("trace");
    assert_usage_error(&["analyze", file, "--trace"], "unknown option --trace");
    // A campaign runs in-process: it takes no worker and opens no store.
    for (flag, value) in [("--workers", "2"), ("--connect", "unix:/tmp/w.sock"), ("--cache", "d")] {
        assert_usage_error(
            &["fuzz", flag, value, "--members", "1"],
            &format!("unknown option {flag}"),
        );
    }
}

#[test]
fn bad_thresholds_are_usage_errors() {
    let Program(file) = &program("thresholds");
    for bad in ["0,10,5", "1,0.5,5", "nan,10,3", "inf,10,3", "1,10,1001", "1,10", "1,10,x"] {
        assert_usage_error(&["analyze", file, "--thresholds", bad], "--thresholds");
    }
    let out = astree(&["analyze", file, "--thresholds", "1,10,1000"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn a_bad_number_fails_as_the_same_daemon_override_does() {
    let Program(file) = &program("unroll");
    let mut config = AnalysisConfig::default();
    let message = config.patch(&Json::obj([("loop_unroll", Json::str("x"))])).unwrap_err();
    assert_usage_error(&["analyze", file, "--unroll", "x"], &format!("--unroll: {message}"));
}

#[test]
fn baseline_applies_before_every_other_flag() {
    let Program(file) = &program("baseline");
    let report = |args: &[&str]| {
        let out = astree(&[&["analyze", file, "--dump-invariant"], args].concat());
        let text = String::from_utf8(out.stdout).unwrap();
        text.lines().filter(|l| !l.starts_with("time:")).collect::<Vec<_>>().join("\n")
    };
    let after = report(&["--unroll", "3", "--baseline"]);
    assert_eq!(after, report(&["--baseline", "--unroll", "3"]));
    assert_ne!(after, report(&["--baseline"]), "--unroll 3 was dropped");
}

#[test]
fn a_zero_count_is_rejected_by_every_command() {
    let Program(file) = &program("zero");
    assert_usage_error(&["analyze", file, "--jobs", "0"], "--jobs");
    assert_usage_error(&["batch", "--gen", "1", "--jobs", "0"], "--jobs");
    assert_usage_error(&["batch", "--gen", "1", "--analysis-jobs", "0"], "--analysis-jobs");
    assert_usage_error(&["batch", "--gen", "1", "--channels", "1,0"], "--channels");
    let tiny = ["--members", "1", "--seeds", "1", "--ticks", "1"];
    assert_usage_error(&[&["fuzz", "--jobs", "0"], &tiny[..]].concat(), "--jobs");
    let socket: PathBuf =
        std::env::temp_dir().join(format!("astree-cli-{}.sock", std::process::id()));
    for flag in ["--jobs", "--max-inflight"] {
        // A daemon that accepted the 0 would serve forever: give it a
        // deadline rather than wait on it.
        let mut child = Process::new(env!("CARGO_BIN_EXE_astree"))
            .args(["serve", "--socket", socket.to_str().unwrap(), flag, "0"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn astree serve");
        let t0 = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break Some(status);
            }
            if t0.elapsed() > Duration::from_secs(10) {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let _ = std::fs::remove_file(&socket);
        assert_eq!(status.and_then(|s| s.code()), Some(2), "serve {flag} 0 must not start");
    }
}
