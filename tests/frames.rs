//! Frames end to end, on the `astree` CLI: a call that runs on its frame
//! changes no byte of any stable report.
//!
//! - The files under `tests/golden/` were written by the commit *before*
//!   frames (`6cc7c11`): `analyze --census --dump-invariant` for an 8- and a
//!   46-channel member at three unrolling factors, the three planted bug
//!   kinds, and a `batch --report`. The test regenerates each and compares
//!   byte for byte, so "identical to the parent" is checked on every run
//!   from now on. A change that moves an invariant on purpose regenerates
//!   them (the commands are in `golden_reports_are_reproduced`) and says so.
//! - `--jobs 1/4` and `--debug-no-ptr-shortcuts` give identical reports with
//!   frames on.
//!
//! The differential against the same callee run on the caller's state sits
//! inside `astree-core` (`frames::tests`), where frames can be forced and
//! switched off.

use astree::obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn astree() -> Command {
    Command::new(env!("CARGO_BIN_EXE_astree"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astree-frames-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `astree generate` into `dir`; returns the file.
fn generate(dir: &Path, channels: usize, seed: u64, bug: Option<&str>) -> PathBuf {
    let file = dir.join(format!("m{channels}-s{seed}-{}.c", bug.unwrap_or("clean")));
    let mut cmd = astree();
    cmd.args(["generate", "--channels", &channels.to_string(), "--seed", &seed.to_string()]);
    if let Some(kind) = bug {
        cmd.args(["--bug", kind]);
    }
    let out = cmd.arg("-o").arg(&file).output().expect("spawn astree generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    file
}

/// `astree analyze FILE --census --dump-invariant EXTRA…` minus the lines
/// that depend on the run (wall times, cache and slicing summaries).
fn stable_report(file: &Path, extra: &[&str]) -> String {
    let out = astree()
        .arg("analyze")
        .arg(file)
        .args(["--census", "--dump-invariant"])
        .args(extra)
        .output()
        .expect("spawn astree analyze");
    assert!(out.status.code().is_some_and(|c| c <= 1), "analyze failed: {:?}", out.status);
    String::from_utf8(out.stdout)
        .expect("utf-8 report")
        .lines()
        .filter(|l| !["time:", "cache:", "parallel:"].iter().any(|p| l.starts_with(p)))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn assert_golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    let want = std::fs::read_to_string(&path).expect("golden file");
    if got != want {
        let first = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "{name} differs from the golden report (first differing line: {first:?}, {} vs {} lines)",
            got.lines().count(),
            want.lines().count()
        );
    }
}

#[test]
fn golden_reports_are_reproduced() {
    let dir = temp_dir("golden");
    // astree generate --channels C --seed S [--bug K] -o F
    // astree analyze F --census --dump-invariant [--unroll U] | grep -v '^time:\|^cache:\|^parallel:'
    let m8 = generate(&dir, 8, 42, None);
    let m46 = generate(&dir, 46, 1, None);
    for unroll in ["0", "1", "3"] {
        let got = stable_report(&m8, &["--unroll", unroll]);
        assert_golden(&format!("analyze-8ch-s42-u{unroll}.txt"), &got);
        let got = stable_report(&m46, &["--unroll", unroll]);
        assert_golden(&format!("analyze-46ch-s1-u{unroll}.txt"), &got);
    }
    for kind in ["div0", "oob", "overflow"] {
        let file = generate(&dir, 3, 11, Some(kind));
        assert_golden(&format!("analyze-bug-{kind}.txt"), &stable_report(&file, &[]));
    }
    // astree batch --gen 6 --channels 1,2,3 --report F
    let report = dir.join("batch-report.txt");
    let out = astree()
        .args(["batch", "--gen", "6", "--channels", "1,2,3", "--report"])
        .arg(&report)
        .output()
        .expect("spawn astree batch");
    assert!(out.status.success(), "batch failed: {}", String::from_utf8_lossy(&out.stdout));
    assert_golden("batch-report.txt", &std::fs::read_to_string(&report).expect("report written"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reports_are_identical_across_jobs_and_sharing_modes() {
    let dir = temp_dir("modes");
    let file = generate(&dir, 12, 5, None);
    let metrics = dir.join("metrics.json");
    let base = stable_report(&file, &["--jobs", "1", "--metrics", metrics.to_str().unwrap()]);
    // Frames are really on: every stepK call ran on one, none on the whole
    // state, and the projection and write-back are attributed.
    let doc = Json::parse(&std::fs::read_to_string(&metrics).expect("metrics written"))
        .expect("metrics parse");
    let frames = doc.get("core").and_then(|c| c.get("frames")).expect("core.frames");
    assert_eq!(frames.get("frames"), Some(&Json::UInt(12)));
    assert!(matches!(frames.get("calls_framed"), Some(Json::UInt(n)) if *n > 0));
    let whole = frames.get("calls_whole").expect("calls_whole");
    for why in ["wait", "depth_cap"] {
        assert_eq!(whole.get(why), Some(&Json::UInt(0)), "{why}");
    }
    let state_ops = doc.get("domains").and_then(|d| d.get("state")).expect("domains.state");
    assert!(state_ops.get("project").is_some() && state_ops.get("absorb").is_some());

    assert_eq!(base, stable_report(&file, &["--jobs", "4"]), "--jobs 4");
    assert_eq!(base, stable_report(&file, &["--debug-no-ptr-shortcuts"]), "no ptr shortcuts");
    assert_eq!(
        base,
        stable_report(&file, &["--jobs", "4", "--debug-no-ptr-shortcuts"]),
        "--jobs 4 without ptr shortcuts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
