//! Running one child the way a user pays for it: wall clock around
//! spawn→exit, CPU and peak RSS of the whole process tree from `wait4`,
//! in its own process group so a deadline overrun takes every descendant
//! (no orphan `astree worker`) with it.
//!
//! Linux folds the spawning process's own peak RSS into its child's
//! `ru_maxrss` at `exec`, so a child spawned by a 1 GB harness reports at
//! least 1 GB. The harness therefore never spawns the program itself: it
//! re-executes its own binary as a measuring helper ([`run_via_helper`]),
//! a fresh ~2 MB process that spawns the program, measures it
//! ([`run_here`]) and prints one line ([`ChildRun::to_line`]).

use std::fs::File;
use std::io;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s,
/// of which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, wstatus: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const SIGKILL: i32 = 9;
const RUSAGE_SELF: i32 = 0;

impl Rusage {
    fn cpu_s(&self) -> f64 {
        let t = |tv: Timeval| tv.sec as f64 + tv.usec as f64 / 1e6;
        t(self.utime) + t(self.stime)
    }
}

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Exited with this code.
    Code(i32),
    /// Killed by this signal (not by the deadline).
    Signal(i32),
    /// Overran the deadline; killed with its process group.
    Deadline,
}

/// One finished child.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Wall clock from just before spawn to just after reaping.
    pub wall_s: f64,
    /// User + system CPU of the child and every descendant it waited for.
    pub cpu_s: f64,
    /// Largest `ru_maxrss` of any process in that tree, in MB (10^6 bytes).
    pub peak_rss_mb: f64,
    /// How it ended.
    pub exit: Exit,
    /// Its standard output.
    pub stdout: String,
}

/// User + system CPU this process has used so far.
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` of the layout the
    // kernel fills in for RUSAGE_SELF; the call reads nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
    ru.cpu_s()
}

/// Sends SIGKILL to every process of group `pgid`.
fn kill_group(pgid: i32) {
    // SAFETY: plain syscall on integers; a negative pid addresses the
    // process group, and a vanished group only yields ESRCH.
    unsafe { kill(-pgid, SIGKILL) };
}

impl ChildRun {
    /// The measurements on one line, as the helper prints them (standard
    /// output is not included; it is in the file the child wrote).
    pub fn to_line(&self) -> String {
        let (kind, n) = match self.exit {
            Exit::Code(c) => ("code", c),
            Exit::Signal(s) => ("signal", s),
            Exit::Deadline => ("deadline", 0),
        };
        format!("{} {} {} {kind} {n}", self.wall_s, self.cpu_s, self.peak_rss_mb)
    }

    /// Reads a line written by [`ChildRun::to_line`].
    fn from_line(line: &str) -> Option<ChildRun> {
        let mut it = line.split_whitespace();
        let mut number = || it.next()?.parse::<f64>().ok();
        let (wall_s, cpu_s, peak_rss_mb) = (number()?, number()?, number()?);
        let (kind, n) = (it.next()?, it.next()?.parse::<i32>().ok()?);
        let exit = match kind {
            "code" => Exit::Code(n),
            "signal" => Exit::Signal(n),
            "deadline" => Exit::Deadline,
            _ => return None,
        };
        Some(ChildRun { wall_s, cpu_s, peak_rss_mb, exit, stdout: String::new() })
    }
}

/// The flag that turns this executable into the measuring helper:
/// `<helper> --measure-child <stdout file> <deadline s> <program> [args...]`.
pub const HELPER_FLAG: &str = "--measure-child";

/// Measures `program args...`, run in `cwd`, through a fresh helper process
/// (`helper` is this executable) so that the harness's own memory does not
/// show up in the child's peak RSS.
pub fn run_via_helper(
    helper: &Path,
    program: &Path,
    args: &[String],
    cwd: &Path,
    stdout_path: &Path,
    deadline: Duration,
) -> io::Result<ChildRun> {
    let out = Command::new(helper)
        .arg(HELPER_FLAG)
        .arg(stdout_path)
        .arg(deadline.as_secs().to_string())
        .arg(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let line = String::from_utf8_lossy(&out.stdout);
    let mut run = ChildRun::from_line(&line).ok_or_else(|| {
        io::Error::other(format!("measuring helper ended with {} and said `{line}`", out.status))
    })?;
    run.stdout = String::from_utf8_lossy(&std::fs::read(stdout_path)?).into_owned();
    Ok(run)
}

/// The helper's side: `argv` is what follows [`HELPER_FLAG`]. Runs the
/// program and prints its measurements.
pub fn helper_main(argv: &[String]) -> io::Result<()> {
    let [stdout_path, deadline, program, args @ ..] = argv else {
        return Err(io::Error::other(format!("{HELPER_FLAG}: need <stdout> <deadline> <program>")));
    };
    let deadline = deadline.parse().map_err(io::Error::other)?;
    let mut cmd = Command::new(program);
    cmd.args(args);
    let run = run_here(&mut cmd, Path::new(stdout_path), Duration::from_secs(deadline))?;
    println!("{}", run.to_line());
    Ok(())
}

/// Runs `cmd` to completion under `deadline`, with standard output
/// redirected to `stdout_path` (a file, so no pipe can fill and stall the
/// child) and standard error discarded. The child's `peak_rss_mb` is at
/// least this process's own, see the module documentation.
pub fn run_here(cmd: &mut Command, stdout_path: &Path, deadline: Duration) -> io::Result<ChildRun> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::from(File::create(stdout_path)?))
        .stderr(Stdio::null())
        .process_group(0);
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id() as i32;

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (status, ru, wall_s, timed_out) = std::thread::scope(|scope| {
        // The watchdog sleeps on the channel: a message (or the sender
        // dropping) means the child was reaped in time.
        let watchdog = scope.spawn(move || {
            let overran = done_rx.recv_timeout(deadline) == Err(mpsc::RecvTimeoutError::Timeout);
            if overran {
                kill_group(pid);
            }
            overran
        });
        let mut status = 0i32;
        let mut ru = Rusage::default();
        let reaped = loop {
            // SAFETY: `pid` is our own unreaped child (std's `Child` is never
            // waited on), and both out-pointers are valid for writes.
            let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
            if rc == pid {
                break Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                break Err(err);
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        drop(done_tx);
        let timed_out = watchdog.join().expect("watchdog thread does not panic");
        (reaped.map(|()| status), ru, wall_s, timed_out)
    });
    // Whatever the leader left behind in its group goes with it.
    kill_group(pid);
    let status = status?;

    let exit = if timed_out {
        Exit::Deadline
    } else if status & 0x7f == 0 {
        Exit::Code((status >> 8) & 0xff)
    } else {
        Exit::Signal(status & 0x7f)
    };
    let stdout = String::from_utf8_lossy(&std::fs::read(stdout_path)?).into_owned();
    let peak_rss_mb = ru.maxrss as f64 * 1024.0 / 1e6;
    Ok(ChildRun { wall_s, cpu_s: ru.cpu_s(), peak_rss_mb, exit, stdout })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("target/astree-bench-work/child-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn exit_code_stdout_and_rusage_are_captured() {
        let out = scratch("ok.out");
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo hello; exit 3"]);
        let r = run_here(&mut cmd, &out, Duration::from_secs(30)).unwrap();
        assert_eq!(r.exit, Exit::Code(3));
        assert_eq!(r.stdout, "hello\n");
        assert!(r.wall_s > 0.0 && r.peak_rss_mb > 0.0);
    }

    #[test]
    fn deadline_overrun_kills_the_whole_group() {
        let out = scratch("slow.out");
        let mut cmd = Command::new("sh");
        // The grandchild prints its pid; it must be gone after the deadline.
        cmd.args(["-c", "sh -c 'echo $$; sleep 60' & wait"]);
        let r = run_here(&mut cmd, &out, Duration::from_millis(300)).unwrap();
        assert_eq!(r.exit, Exit::Deadline);
        assert!(r.wall_s < 30.0);
        let grandchild: i32 = r.stdout.trim().parse().expect("grandchild pid");
        std::thread::sleep(Duration::from_millis(100));
        // SAFETY: signal 0 only probes for existence.
        let alive = unsafe { kill(grandchild, 0) } == 0;
        assert!(!alive || is_zombie(grandchild), "grandchild {grandchild} survived the group kill");
    }

    #[test]
    fn measurements_survive_the_helper_line() {
        for exit in [Exit::Code(1), Exit::Signal(11), Exit::Deadline] {
            let run = ChildRun {
                wall_s: 1.2034,
                cpu_s: 0.75,
                peak_rss_mb: 125.6776,
                exit,
                stdout: String::new(),
            };
            let back = ChildRun::from_line(&run.to_line()).expect("own line parses");
            assert_eq!((back.wall_s, back.cpu_s, back.peak_rss_mb), (1.2034, 0.75, 125.6776));
            assert_eq!(back.exit, exit);
        }
        assert!(ChildRun::from_line("").is_none());
        assert!(ChildRun::from_line("1 2 3 exploded 0").is_none());
    }

    fn is_zombie(pid: i32) -> bool {
        std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map(|s| s.rsplit(')').next().is_some_and(|rest| rest.trim_start().starts_with('Z')))
            .unwrap_or(false)
    }
}
