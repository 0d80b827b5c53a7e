//! Shared run-option plumbing for the CLI.
//!
//! `astree analyze` and `astree batch` accept the same cross-cutting flags
//! (`--jobs`, `--metrics`, `--trace`, `--cache`); [`RunOptions`] parses them
//! once and owns the derived machinery — the telemetry [`Collector`] and
//! event streams and the on-disk [`InvariantStore`] — so both commands stay
//! in sync.

use astree_core::InvariantStore;
use astree_obs::{Collector, Fanout, Recorder, StreamSink};
use std::sync::Arc;

/// Help text for the flags [`RunOptions`] parses, for `--help` output.
pub const RUN_OPTIONS_HELP: &str =
    "--jobs N runs N workers (see the command's help for which pool)\n\
     --metrics FILE writes the astree-metrics/1 JSON document\n\
     --metrics-stream FILE appends astree-events/1 JSONL records as they happen\n\
     --trace streams the same astree-events/1 records to stderr\n\
     --cache DIR reuses invariants across runs from the given directory\n\
     --cache-max-mb N bounds the cache directory, evicting oldest entries";

/// The cross-cutting options shared by `analyze` and `batch`.
#[derive(Debug, Default, Clone)]
pub struct RunOptions {
    /// `--jobs N`: worker count. `analyze` maps it to intra-analysis
    /// workers, `batch` to the job pool.
    pub jobs: Option<usize>,
    /// `--metrics FILE`: write the astree-metrics/1 JSON document there.
    pub metrics_path: Option<String>,
    /// `--metrics-stream FILE`: append astree-events/1 JSONL records there
    /// as the analysis runs (line-buffered, crash-readable).
    pub metrics_stream: Option<String>,
    /// `--trace`: stream the astree-events/1 records to stderr as they
    /// happen.
    pub trace: bool,
    /// `--cache DIR`: persist and reuse invariants across runs.
    pub cache_dir: Option<String>,
    /// `--cache-max-mb N`: bound the cache directory to N mebibytes,
    /// evicting the oldest entries (by mtime) past the limit.
    pub cache_max_mb: Option<u64>,
}

impl RunOptions {
    /// Tries to consume the shared option at `args[*i]`. Returns `Ok(true)`
    /// and advances `*i` past any flag value when the option was one of
    /// ours; the caller still advances past the flag itself.
    pub fn try_parse(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        let a = args[*i].as_str();
        let mut value = || -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{a} needs a value"))
        };
        match a {
            "--jobs" => {
                let n: usize = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                self.jobs = Some(n);
            }
            "--metrics" => self.metrics_path = Some(value()?),
            "--metrics-stream" => self.metrics_stream = Some(value()?),
            "--trace" => self.trace = true,
            "--cache" => self.cache_dir = Some(value()?),
            "--cache-max-mb" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--cache-max-mb: {e}"))?;
                if n == 0 {
                    return Err("--cache-max-mb must be at least 1".into());
                }
                self.cache_max_mb = Some(n);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether a telemetry collector is needed at all.
    pub fn record(&self) -> bool {
        self.metrics_path.is_some() || self.metrics_stream.is_some() || self.trace
    }

    /// Opens the event streams the options ask for: the `--metrics-stream`
    /// file and, for `--trace`, stderr.
    pub fn open_streams(&self) -> Result<Vec<Arc<StreamSink>>, String> {
        let mut streams = Vec::new();
        if let Some(path) = &self.metrics_stream {
            let sink =
                StreamSink::create(path).map_err(|e| format!("--metrics-stream {path}: {e}"))?;
            streams.push(Arc::new(sink));
        }
        if self.trace {
            let sink = StreamSink::new(std::io::stderr()).map_err(|e| format!("--trace: {e}"))?;
            streams.push(Arc::new(sink));
        }
        Ok(streams)
    }

    /// Assembles the recorder stack for a run: the collector alone, or a
    /// [`Fanout`] teeing into the event streams when any is open.
    pub fn recorder(
        &self,
        collector: &Arc<Collector>,
        streams: &[Arc<StreamSink>],
    ) -> Arc<dyn Recorder> {
        if streams.is_empty() {
            return Arc::clone(collector) as _;
        }
        let mut sinks: Vec<Arc<dyn Recorder>> = vec![Arc::clone(collector) as _];
        sinks.extend(streams.iter().map(|s| Arc::clone(s) as _));
        Arc::new(Fanout::new(sinks))
    }

    /// Opens the invariant store when `--cache` was given, bounded when
    /// `--cache-max-mb` was too.
    pub fn open_store(&self) -> Result<Option<Arc<InvariantStore>>, String> {
        match &self.cache_dir {
            Some(dir) => {
                let store = match self.cache_max_mb {
                    Some(mb) => InvariantStore::open_bounded(dir, mb * (1 << 20)),
                    None => InvariantStore::open(dir),
                }
                .map_err(|e| format!("--cache {dir}: {e}"))?;
                Ok(Some(Arc::new(store)))
            }
            None => {
                if self.cache_max_mb.is_some() {
                    return Err("--cache-max-mb needs --cache DIR".into());
                }
                Ok(None)
            }
        }
    }

    /// Flushes the event streams and writes the metrics document (if
    /// requested).
    pub fn finish(&self, collector: &Collector, streams: &[Arc<StreamSink>]) -> Result<(), String> {
        for s in streams {
            s.flush();
        }
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, collector.to_json().to_string())
                .map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(args: &[&str]) -> Result<(RunOptions, Vec<String>), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut run = RunOptions::default();
        let mut rest = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if !run.try_parse(&args, &mut i)? {
                rest.push(args[i].clone());
            }
            i += 1;
        }
        Ok((run, rest))
    }

    #[test]
    fn shared_flags_parse_and_leave_the_rest() {
        let (run, rest) = parse_all(&[
            "a.c",
            "--jobs",
            "4",
            "--trace",
            "--cache",
            "/tmp/c",
            "--cache-max-mb",
            "64",
            "--census",
        ])
        .unwrap();
        assert_eq!(run.jobs, Some(4));
        assert!(run.trace);
        assert_eq!(run.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(run.cache_max_mb, Some(64));
        assert_eq!(run.metrics_path, None);
        assert_eq!(rest, vec!["a.c", "--census"]);
        assert!(run.record());
    }

    #[test]
    fn jobs_zero_and_missing_values_are_rejected() {
        assert!(parse_all(&["--jobs", "0"]).is_err());
        assert!(parse_all(&["--metrics"]).is_err());
        assert!(parse_all(&["--metrics-stream"]).is_err());
        assert!(parse_all(&["--cache"]).is_err());
        assert!(parse_all(&["--cache-max-mb", "0"]).is_err());
    }

    #[test]
    fn cache_max_mb_without_cache_dir_is_rejected_at_open() {
        let (run, _) = parse_all(&["--cache-max-mb", "8"]).unwrap();
        assert!(run.open_store().is_err());
    }

    #[test]
    fn metrics_stream_alone_enables_recording() {
        let (run, rest) = parse_all(&["--metrics-stream", "/tmp/ev.jsonl"]).unwrap();
        assert_eq!(run.metrics_stream.as_deref(), Some("/tmp/ev.jsonl"));
        assert!(run.record());
        assert!(rest.is_empty());
    }
}
