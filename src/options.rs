//! What the `astree` command line accepts: one flag table per group, one
//! parse loop and one `--help` renderer over them.
//!
//! A [`Flag`] row is a flag, what it takes, its help line and a setter. A
//! [`Command`] is a usage line, what the command does, and the tables it
//! accepts, each bound to the value its setters write. The groups several
//! commands share are [`RUN`] (`analyze`, `batch`; `fuzz` takes its
//! `--jobs`), [`ENDPOINT`] (`serve`, `client`) and the
//! configuration's own [`ANALYSIS`] (`analyze`); every other table belongs
//! to one command. A command's arguments are a tuple of the values its
//! tables set (`AnalyzeArgs`, …), and a function of the same name binds them.

use astree_core::config::ANALYSIS;
use astree_core::{AnalysisConfig, Flag, InvariantStore, Takes};
use astree_fleet::serve::ServeOptions;
use astree_fleet::{Endpoint, FleetOptions};
use astree_gen::{BugKind, GenConfig};
use astree_obs::{Collector, Fanout, Recorder, StreamSink};
use astree_oracle::OracleConfig;
use std::fmt::{Display, Write as _};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// One command: its usage, what it does, and its flag tables.
pub struct Command<'a> {
    usage: &'static str,
    about: &'static str,
    tables: Vec<Table<'a>>,
}

/// A flag table bound to the value its setters write.
struct Table<'a> {
    title: &'static str,
    rows: Vec<(&'static str, Takes, &'static str)>,
    set: Box<dyn FnMut(usize, &str) -> Result<(), String> + 'a>,
}

impl<'a> Command<'a> {
    /// A command without flags yet. `usage` follows `astree` on the usage
    /// line and names the positional arguments, if the command takes any
    /// (`analyze <file.c>...`).
    pub fn new(usage: &'static str, about: &'static str) -> Command<'a> {
        Command { usage, about, tables: Vec::new() }
    }

    /// Adds the table `flags`, whose setters write `target`.
    pub fn table<T>(
        mut self,
        title: &'static str,
        flags: &'static [Flag<T>],
        target: &'a mut T,
    ) -> Self {
        let rows = flags.iter().map(|f| (f.flag, f.takes, f.help)).collect();
        let set = Box::new(move |row: usize, value: &str| (flags[row].set)(target, value));
        self.tables.push(Table { title, rows, set });
        self
    }

    /// Every row of every table: flag, what it takes, help line.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, Takes, &'static str)> + '_ {
        self.tables.iter().flat_map(|t| t.rows.iter().copied())
    }

    /// The `--help` text, derived from the tables.
    pub fn help(&self) -> String {
        let spell = |flag: &str, takes: Takes| match takes {
            Takes::Value(metavar) => format!("{flag} {metavar}"),
            _ => flag.to_string(),
        };
        let width = self.rows().map(|(f, t, _)| spell(f, t).len()).max().unwrap_or(0).max(10);
        let mut out = format!("usage: astree {} [options]\n{}\n", self.usage, self.about);
        for t in &self.tables {
            let _ = writeln!(out, "\n{}:", t.title);
            for &(flag, takes, help) in &t.rows {
                let _ = writeln!(out, "  {:width$}  {help}", spell(flag, takes));
            }
        }
        let _ = writeln!(out, "\n  {:width$}  prints this help", "-h, --help");
        out
    }

    /// Parses `args`: every flag of the tables in any order, presets first.
    /// Returns the positional arguments, or `None` once `--help` printed
    /// the help (after the other flags parsed). An unknown flag, a missing
    /// value or a value its setter rejects is an error naming the flag.
    pub fn parse(mut self, args: &[String]) -> Result<Option<Vec<String>>, String> {
        let (mut positional, mut help, mut sets) = (Vec::new(), false, Vec::new());
        let mut args = args.iter();
        while let Some(a) = args.next() {
            if a == "-h" || a == "--help" {
                help = true;
            } else if !a.starts_with('-') && self.usage.contains('<') {
                positional.push(a.clone());
            } else {
                let (t, r, takes) = self.find(a).ok_or_else(|| format!("unknown option {a}"))?;
                let value = match takes {
                    Takes::Value(_) => args.next().ok_or_else(|| format!("{a} needs a value"))?,
                    Takes::Nothing | Takes::Preset => "",
                };
                sets.push((takes != Takes::Preset, t, r, value));
            }
        }
        // Stable: presets first, every other flag in command-line order.
        sets.sort_by_key(|s| s.0);
        for (_, t, r, value) in sets {
            let table = &mut self.tables[t];
            (table.set)(r, value).map_err(|e| format!("{}: {e}", table.rows[r].0))?;
        }
        if help {
            print!("{}", self.help());
            return Ok(None);
        }
        Ok(Some(positional))
    }

    /// The table and row of `flag`, and what it takes.
    fn find(&self, flag: &str) -> Option<(usize, usize, Takes)> {
        self.tables.iter().enumerate().find_map(|(t, table)| {
            let r = table.rows.iter().position(|row| row.0 == flag)?;
            Some((t, r, table.rows[r].1))
        })
    }
}

/// Parses `args` for the command `command` binds: its arguments and
/// positionals, or `None` once `--help` printed the help.
pub fn parse_args<A: Default>(
    command: fn(&mut A) -> Command<'_>,
    args: &[String],
) -> Result<Option<(A, Vec<String>)>, String> {
    let mut a = A::default();
    Ok(command(&mut a).parse(args)?.map(|rest| (a, rest)))
}

/// Stores `value`: the body of most setters.
fn put<V>(slot: &mut V, value: V) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// `v` parsed as a `T`.
fn parse<T: FromStr<Err: Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e| format!("{v:?}: {e}"))
}

/// Parses `v` into `slot`.
fn num<T: FromStr<Err: Display>>(slot: &mut T, v: &str) -> Result<(), String> {
    put(slot, parse(v)?)
}

/// Parses `v` into `slot` as `Some`.
fn some<T: FromStr<Err: Display>>(slot: &mut Option<T>, v: &str) -> Result<(), String> {
    put(slot, Some(parse(v)?))
}

/// A count of at least 1: every worker, job, request, channel and size count.
fn count(v: &str) -> Result<usize, String> {
    match parse(v)? {
        0 => Err(format!("{v:?}: must be at least 1")),
        n => Ok(n),
    }
}

/// A comma-separated list.
fn list<T>(v: &str, item: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(|s| item(s.trim())).collect()
}

/// The run group, set by [`RUN`]: workers, telemetry and the invariant
/// store. `analyze` runs `jobs` workers inside the analysis, `batch` that
/// many jobs at once and `fuzz` that many corpus members.
#[derive(Debug, Default, Clone)]
pub struct RunOptions {
    pub jobs: Option<usize>,
    pub metrics: Option<String>,
    pub stream: Option<String>,
    pub cache: Option<String>,
    pub cache_max_mb: Option<u64>,
}

pub const RUN: &[Flag<RunOptions>] = &[
    Flag::value("--jobs", "N", "runs on N workers", |o, v| put(&mut o.jobs, Some(count(v)?))),
    Flag::value("--metrics", "FILE", "writes the metrics document", |o, v| some(&mut o.metrics, v)),
    Flag::value("--metrics-stream", "FILE", "appends events live", |o, v| some(&mut o.stream, v)),
    Flag::value("--cache", "DIR", "replays or stores results in DIR", |o, v| some(&mut o.cache, v)),
    Flag::value("--cache-max-mb", "N", "bounds the store to N MiB", |o, v| {
        put(&mut o.cache_max_mb, Some(count(v)? as u64))
    }),
];

/// What a run records into: the collector behind `--metrics`, teed into the
/// `--metrics-stream` sink when one is open.
pub struct Telemetry {
    pub recorder: Arc<dyn Recorder>,
    collector: Arc<Collector>,
    stream: Option<Arc<StreamSink>>,
    metrics: Option<String>,
}

impl RunOptions {
    /// Whether a telemetry collector is needed at all.
    pub fn record(&self) -> bool {
        self.metrics.is_some() || self.stream.is_some()
    }

    /// Opens the `--metrics-stream` sink, if one was asked for.
    pub fn open_streams(&self) -> Result<Option<Arc<StreamSink>>, String> {
        let Some(path) = &self.stream else { return Ok(None) };
        let sink = StreamSink::create(path).map_err(|e| format!("--metrics-stream {path}: {e}"))?;
        Ok(Some(Arc::new(sink)))
    }

    /// The run's telemetry; `None` when no flag asks for any.
    pub fn telemetry(&self) -> Result<Option<Telemetry>, String> {
        if !self.record() {
            return Ok(None);
        }
        let collector = Arc::new(Collector::new());
        let stream = self.open_streams()?;
        let recorder: Arc<dyn Recorder> = match &stream {
            None => Arc::clone(&collector) as _,
            Some(s) => Arc::new(Fanout::new(vec![Arc::clone(&collector) as _, Arc::clone(s) as _])),
        };
        Ok(Some(Telemetry { recorder, collector, stream, metrics: self.metrics.clone() }))
    }

    /// Opens the invariant store when `--cache` was given, bounded when
    /// `--cache-max-mb` was too.
    pub fn open_store(&self) -> Result<Option<Arc<InvariantStore>>, String> {
        let Some(dir) = &self.cache else {
            if self.cache_max_mb.is_some() {
                return Err("--cache-max-mb needs --cache DIR".into());
            }
            return Ok(None);
        };
        let store = match self.cache_max_mb {
            Some(mb) => InvariantStore::open_bounded(dir, mb.saturating_mul(1 << 20)),
            None => InvariantStore::open(dir),
        };
        Ok(Some(Arc::new(store.map_err(|e| format!("--cache {dir}: {e}"))?)))
    }
}

impl Telemetry {
    /// Flushes the event stream and writes the metrics document.
    pub fn finish(self) -> Result<(), String> {
        if let Some(s) = &self.stream {
            s.flush();
        }
        let Some(path) = &self.metrics else { return Ok(()) };
        std::fs::write(path, self.collector.to_json().to_string())
            .map_err(|e| format!("{path}: {e}"))
    }
}

/// The fleet group: where the jobs of `batch` run.
pub const FLEET: &[Flag<FleetOptions>] = &[
    Flag::value("--workers", "N", "worker processes (default 0)", |o, v| num(&mut o.workers, v)),
    Flag::value("--worker-cmd", "CMD", "spawns them with CMD", |o, v| {
        let argv: Vec<String> = v.split_whitespace().map(str::to_string).collect();
        if argv.is_empty() {
            return Err("empty command".into());
        }
        put(&mut o.worker_cmd, Some(argv))
    }),
    Flag::value("--connect", "ADDR", "adds a worker at unix:PATH or tcp:HOST:PORT", |o, v| {
        o.connect.push(Endpoint::parse(v));
        Ok(())
    }),
    Flag::switch("--cache-wire", "ships the store by wire", |o, _| put(&mut o.cache_wire, true)),
    Flag::value("--retry-budget", "N", "re-queues a crashed job N times (default 2)", |o, v| {
        some(&mut o.retry_budget, v)
    }),
    Flag::value("--timeout", "SECS", "fails a job that runs longer", |o, v| {
        let limit = Duration::try_from_secs_f64(parse(v)?).map_err(|e| format!("{v:?}: {e}"))?;
        put(&mut o.timeout, Some(limit))
    }),
    Flag::value("--crash-on", "NAME", "debug: aborts on job NAME", |o, v| some(&mut o.crash_on, v)),
];

/// The endpoint group: where `astree serve` listens and is reached.
/// `--listen` and `--connect` are one TCP flag, named for the side using it.
pub const ENDPOINT: &[Flag<Option<Endpoint>>] = &[
    Flag::value("--socket", "PATH", "a Unix socket", |e, v| put(e, Some(Endpoint::Unix(v.into())))),
    Flag::value("--listen", "HOST:PORT", "a TCP address to serve on", tcp),
    Flag::value("--connect", "HOST:PORT", "a TCP address to connect to", tcp),
];

fn tcp(endpoint: &mut Option<Endpoint>, addr: &str) -> Result<(), String> {
    put(endpoint, Some(Endpoint::Tcp(addr.into())))
}

/// What a verdict prints beside the alarms (`analyze`, `client`): the
/// main-loop census and invariant.
pub const REPORT: &[Flag<(bool, bool)>] = &[
    Flag::switch("--census", "prints the main-loop census", |r, _| put(&mut r.0, true)),
    Flag::switch("--dump-invariant", "prints the main-loop invariant", |r, _| put(&mut r.1, true)),
];

/// `astree analyze`'s arguments.
pub type AnalyzeArgs = ((bool, bool), AnalysisConfig, RunOptions);

pub fn analyze((report, config, run): &mut AnalyzeArgs) -> Command<'_> {
    Command::new("analyze <file.c>...", "proves the absence of run-time errors; exit 1: alarms")
        .table("report", REPORT, report)
        .table("analysis", ANALYSIS, config)
        .table("run", RUN, run)
}

/// `astree batch`'s own flags.
#[derive(Debug, Default, Clone)]
pub struct Batch {
    pub gen: usize,
    pub channels: Option<Vec<usize>>,
    pub seeds: Option<Vec<u64>>,
    pub analysis_jobs: Option<usize>,
    pub report: Option<String>,
    pub json: bool,
}

pub const BATCH: &[Flag<Batch>] = &[
    Flag::value("--gen", "N", "adds N generated members, seeds 1..N", |b, v| num(&mut b.gen, v)),
    Flag::value("--channels", "N1,N2,...", "their channels, cycled (default 4)", |b, v| {
        put(&mut b.channels, Some(list(v, count)?))
    }),
    Flag::value("--seeds", "S1,S2,...", "generates these seeds instead", |b, v| {
        put(&mut b.seeds, Some(list(v, parse)?))
    }),
    Flag::value("--analysis-jobs", "N", "slices each analysis over N threads", |b, v| {
        put(&mut b.analysis_jobs, Some(count(v)?))
    }),
    Flag::value("--report", "FILE", "writes the stable report", |b, v| some(&mut b.report, v)),
    Flag::switch("--json", "prints the outcomes as JSON", |b, _| put(&mut b.json, true)),
];

/// `astree batch`'s arguments.
pub type BatchArgs = (Batch, FleetOptions, RunOptions);

pub fn batch((own, fleet, run): &mut BatchArgs) -> Command<'_> {
    Command::new("batch [<file.c>...]", "analyzes each file and member as a job (default --jobs 2)")
        .table("batch", BATCH, own)
        .table("fleet", FLEET, fleet)
        .table("run", RUN, run)
}

pub const CORPUS: &[Flag<OracleConfig>] = &[
    Flag::value("--members", "N", "corpus size (default 24)", |o, v| num(&mut o.members, v)),
    Flag::value("--seeds", "N", "executions per member (default 3)", |o, v| num(&mut o.seeds, v)),
    Flag::value("--ticks", "N", "ticks per execution (default 40)", |o, v| num(&mut o.ticks, v)),
    Flag::value("--channels-max", "N", "channels cycle 1..=N (default 4)", |o, v| {
        num(&mut o.channels_max, v)
    }),
    Flag::switch("--no-bugs", "leaves out fault variants", |o, _| put(&mut o.include_bugs, false)),
    Flag::switch("--no-shrink", "keeps counterexamples unshrunk", |o, _| put(&mut o.shrink, false)),
];

/// `astree fuzz`'s output flags: quiet, report and baseline.
pub const FUZZ: &[Flag<(bool, Option<String>, Option<String>)>] = &[
    Flag::switch("--quiet", "prints no per-member line", |f, _| put(&mut f.0, true)),
    Flag::value("--report", "FILE", "writes the campaign report", |f, v| some(&mut f.1, v)),
    Flag::value("--baseline", "FILE", "adds the census delta to FILE", |f, v| some(&mut f.2, v)),
];

/// `astree fuzz`'s arguments.
pub type FuzzArgs = (OracleConfig, (bool, Option<String>, Option<String>), RunOptions);

/// `fuzz` runs its members in-process: of the run group it takes `--jobs`.
pub fn fuzz((corpus, output, run): &mut FuzzArgs) -> Command<'_> {
    Command::new("fuzz", "checks invariants and alarms against concrete runs; exit 1: divergences")
        .table("corpus", CORPUS, corpus)
        .table("output", FUZZ, output)
        .table("run", &RUN[..1], run)
}

/// `astree serve`'s own flags, and whether it serves stdin/stdout.
pub const SERVE: &[Flag<(ServeOptions, bool)>] = &[
    Flag::value("--jobs", "N", "threads per analysis (default 1)", |o, v| {
        put(&mut o.0.jobs, count(v)?)
    }),
    Flag::value("--max-inflight", "N", "rejects requests past N (default 8)", |o, v| {
        put(&mut o.0.max_inflight, count(v)?)
    }),
    Flag::value("--cache", "DIR", "the store all requests share", |o, v| {
        some(&mut o.0.cache_dir, v)
    }),
    Flag::switch("--stdio", "serves one peer on stdin/stdout", |o, _| put(&mut o.1, true)),
];

/// `astree serve`'s arguments.
pub type ServeArgs = ((ServeOptions, bool), Option<Endpoint>);

pub fn serve((daemon, endpoint): &mut ServeArgs) -> Command<'_> {
    Command::new(
        "serve",
        "runs the resident process (default: a Unix socket in the temp directory)",
    )
    .table("daemon", SERVE, daemon)
    .table("endpoint", ENDPOINT, endpoint)
}

/// `astree client`'s own flags.
#[derive(Debug, Default, Clone)]
pub struct Requests {
    pub status: bool,
    pub shutdown: bool,
    pub show_events: bool,
    pub events: Option<&'static str>,
}

pub const CLIENT: &[Flag<Requests>] = &[
    Flag::switch("--status", "prints the daemon's status", |r, _| put(&mut r.status, true)),
    Flag::switch("--shutdown", "shuts the daemon down", |r, _| put(&mut r.shutdown, true)),
    Flag::switch("--show-events", "mirrors events to stderr", |r, _| put(&mut r.show_events, true)),
    Flag::value("--events", "none|coarse|all", "which events stream back", |r, v| {
        let mode = ["none", "coarse", "all"].into_iter().find(|m| *m == v);
        put(&mut r.events, Some(mode.ok_or_else(|| format!("unknown mode {v:?}"))?))
    }),
];

/// `astree client`'s arguments.
pub type ClientArgs = (Requests, (bool, bool), Option<Endpoint>);

pub fn client((requests, report, endpoint): &mut ClientArgs) -> Command<'_> {
    Command::new("client [<file.c>...]", "analyzes each file on `astree serve`; exit 1: alarms")
        .table("requests", CLIENT, requests)
        .table("report", REPORT, report)
        .table("endpoint", ENDPOINT, endpoint)
}

/// `astree run`'s flags: seed and ticks.
pub const INTERPRET: &[Flag<(Option<u64>, Option<u64>)>] = &[
    Flag::value("--seed", "N", "seeds the inputs (default 1)", |o, v| some(&mut o.0, v)),
    Flag::value("--ticks", "N", "runs N clock ticks (default 1000)", |o, v| some(&mut o.1, v)),
];

pub fn run(seed_ticks: &mut (Option<u64>, Option<u64>)) -> Command<'_> {
    Command::new("run <file.c>...", "executes the program with the reference interpreter")
        .table("run", INTERPRET, seed_ticks)
}

pub const SLICE: &[Flag<bool>] =
    &[Flag::switch("--abstract", "keeps under-constrained variables", |a, _| put(a, true))];

pub fn slice(abstract_slice: &mut bool) -> Command<'_> {
    Command::new("slice <file.c>...", "prints each alarm's backward slice (Sect. 3.3)").table(
        "slice",
        SLICE,
        abstract_slice,
    )
}

pub const GENERATE: &[Flag<(GenConfig, Option<String>)>] = &[
    Flag::value("--channels", "N", "channels of the member", |o, v| num(&mut o.0.channels, v)),
    Flag::value("--seed", "N", "generator seed", |o, v| num(&mut o.0.seed, v)),
    Flag::value("--bug", "div0|oob|overflow", "plants one run-time error", |o, v| {
        let bugs = [
            ("div0", BugKind::DivByZero),
            ("oob", BugKind::OutOfBounds),
            ("overflow", BugKind::IntOverflow),
        ];
        let bug =
            bugs.into_iter().find(|b| b.0 == v).ok_or_else(|| format!("unknown bug kind {v:?}"))?;
        put(&mut o.0.bug, Some(bug.1))
    }),
    Flag::value("-o", "FILE", "writes to FILE, not stdout", |o, v| some(&mut o.1, v)),
    Flag::value("--output", "FILE", "the same as -o", |o, v| some(&mut o.1, v)),
];

pub fn generate(member_out: &mut (GenConfig, Option<String>)) -> Command<'_> {
    Command::new("generate", "emits a member of the synthetic program family")
        .table("generate", GENERATE, member_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(AnalyzeArgs, Vec<String>), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Ok(parse_args(analyze, &args)?.expect("no --help"))
    }

    #[test]
    fn shared_flags_parse_and_leave_the_rest() {
        let args = ["a.c", "--jobs", "4", "--cache", "/c", "--cache-max-mb", "64", "--census"];
        let (((census, _), _, run), rest) = parse(&args).unwrap();
        assert_eq!(
            (run.jobs, run.cache_max_mb, run.cache.as_deref()),
            (Some(4), Some(64), Some("/c"))
        );
        assert!(census && !run.record());
        assert_eq!(rest, vec!["a.c"]);
    }

    #[test]
    fn jobs_zero_and_missing_values_are_rejected() {
        assert_eq!(parse(&["--jobs", "0"]).err().unwrap(), "--jobs: \"0\": must be at least 1");
        assert_eq!(parse(&["--metrics"]).err().unwrap(), "--metrics needs a value");
        assert!(parse(&["--metrics-stream"]).is_err() && parse(&["--cache"]).is_err());
        assert!(parse(&["--cache-max-mb", "0"]).is_err());
        assert_eq!(parse(&["--trace"]).err().unwrap(), "unknown option --trace");
    }

    #[test]
    fn cache_max_mb_without_cache_dir_is_rejected_at_open() {
        let ((_, _, run), _) = parse(&["--cache-max-mb", "8"]).unwrap();
        assert_eq!(run.open_store().err().unwrap(), "--cache-max-mb needs --cache DIR");
    }

    #[test]
    fn metrics_stream_alone_enables_recording() {
        let ((_, _, run), rest) = parse(&["--metrics-stream", "/dev/null"]).unwrap();
        assert!(run.record() && rest.is_empty() && run.telemetry().unwrap().is_some());
    }
}
