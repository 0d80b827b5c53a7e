//! The one job shape every fan-out surface shares.
//!
//! `astree batch` and the serve daemon's `run` requests submit
//! [`JobSpec`]s and get [`JobOutcome`]s back, so the wire protocol, the
//! reports and the CLI cannot drift on spelling or shape. Every job is an
//! analysis.

use astree_core::AnalysisConfig;
use astree_obs::{FleetCounters, Json};
use std::time::Duration;

/// One fleet job: a named source plus per-job configuration overrides.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name (file name or generated-program identifier).
    pub name: String,
    /// C source text.
    pub source: String,
    /// Per-job overrides of the fleet's base configuration: a partial
    /// [`AnalysisConfig::to_json`] object, in the configuration's own keys,
    /// applied with [`AnalysisConfig::patch`]. `{}` keeps the base.
    pub overrides: Json,
}

impl JobSpec {
    /// A plain analysis job with no overrides.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> JobSpec {
        JobSpec { name: name.into(), source: source.into(), overrides: Json::Obj(Vec::new()) }
    }

    /// The configuration this job runs under: `base` with the overrides
    /// patched on.
    pub fn config(&self, base: &AnalysisConfig) -> Result<AnalysisConfig, String> {
        let mut config = base.clone();
        config.patch(&self.overrides)?;
        Ok(config)
    }
}

/// How a fleet job ended. Serialized exclusively through [`JobStatus::slug`]
/// / [`JobStatus::from_slug`], so the serve wire protocol, the reports and
/// the CLI all spell outcomes identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobStatus {
    /// The job ran to completion.
    Done,
    /// The job's source failed to compile or validate.
    Failed,
    /// The job panicked (isolated; the worker kept serving).
    Panicked,
    /// The job exceeded the per-job timeout and was killed.
    TimedOut,
    /// The worker process died mid-job and the retry budget ran out.
    Crashed,
}

impl JobStatus {
    /// Every status, in slug order.
    pub const ALL: [JobStatus; 5] = [
        JobStatus::Done,
        JobStatus::Failed,
        JobStatus::Panicked,
        JobStatus::TimedOut,
        JobStatus::Crashed,
    ];

    /// The stable wire/report spelling.
    pub fn slug(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Panicked => "panicked",
            JobStatus::TimedOut => "timed-out",
            JobStatus::Crashed => "crashed",
        }
    }

    /// Parses a slug back; the inverse of [`JobStatus::slug`].
    pub fn from_slug(s: &str) -> Option<JobStatus> {
        JobStatus::ALL.into_iter().find(|k| k.slug() == s)
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// Outcome of one fleet job, reported in submission order.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name as submitted.
    pub name: String,
    /// How the job ended.
    pub status: JobStatus,
    /// Number of alarms, when the job completed.
    pub alarms: Option<usize>,
    /// Rendered alarm lines, when the job completed (same `Display` as
    /// `astree analyze`, so reports diff byte-for-byte).
    pub alarm_lines: Vec<String>,
    /// The loops, as (function, loop id), whose invariant failed the
    /// checking pass's premise test: an analyzer bug that fails the job's
    /// verdict whatever its alarms.
    pub premise_failed: Vec<(String, u32)>,
    /// Rendered main-loop invariant, when one was computed.
    pub main_invariant: Option<String>,
    /// Rendered main-loop census, when one was computed.
    pub main_census: Option<String>,
    /// The shared invariant store answered this job (a re-proved hit).
    pub cache_full_hit: bool,
    /// Wall-clock time the job occupied a worker.
    pub wall: Duration,
    /// Worker lane that ran the job (informational).
    pub worker: usize,
    /// Times the job was re-scattered after its worker died.
    pub resent: u32,
    /// Error detail for failed jobs (panic message or compile error).
    pub detail: Option<String>,
}

impl JobOutcome {
    /// A skeleton outcome for a job that produced no analysis result.
    pub fn empty(name: impl Into<String>, status: JobStatus) -> JobOutcome {
        JobOutcome {
            name: name.into(),
            status,
            alarms: None,
            alarm_lines: Vec::new(),
            premise_failed: Vec::new(),
            main_invariant: None,
            main_census: None,
            cache_full_hit: false,
            wall: Duration::ZERO,
            worker: 0,
            resent: 0,
            detail: None,
        }
    }
}

/// Aggregated outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Wall-clock time of the whole fleet run.
    pub wall: Duration,
    /// Worker lanes used (in-process threads or worker processes).
    pub workers: usize,
    /// Sum of per-job wall times (the sequential cost).
    pub total_job_time: Duration,
    /// Coordinator counters (re-sends, crashes, store hits, per worker
    /// busy time).
    pub counters: FleetCounters,
}

impl FleetReport {
    /// Number of jobs that completed.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == JobStatus::Done).count()
    }

    /// Total alarms across completed jobs.
    pub fn total_alarms(&self) -> usize {
        self.outcomes.iter().filter_map(|o| o.alarms).sum()
    }

    /// Whether every job completed with no alarm and every invariant passed
    /// its premise test: `batch`'s exit status.
    pub fn clean(&self) -> bool {
        self.outcomes.iter().all(|o| {
            o.status == JobStatus::Done && o.alarms == Some(0) && o.premise_failed.is_empty()
        })
    }

    /// Observed speedup (sequential cost over fleet wall time).
    pub fn speedup(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.total_job_time.as_secs_f64() / self.wall.as_secs_f64()
    }

    /// A deterministic rendering of the run's *results* — names, statuses,
    /// alarms, invariants and censuses in submission order
    /// — excluding everything scheduling-dependent (wall times, worker
    /// indices, re-send counts, cache hits). Two runs of the same fleet at
    /// any worker count must produce byte-identical stable reports; the
    /// determinism tests and the `fleet-smoke` CI job diff exactly this.
    pub fn stable_report(&self) -> String {
        let mut out = String::from("fleet-report/1\n");
        for o in &self.outcomes {
            out.push_str(&format!("job {}\n", o.name));
            out.push_str(&format!("status {}\n", o.status.slug()));
            match o.alarms {
                Some(n) => out.push_str(&format!("alarms {n}\n")),
                None => out.push_str("alarms -\n"),
            }
            for line in &o.alarm_lines {
                out.push_str(&format!("alarm {line}\n"));
            }
            for (func, id) in &o.premise_failed {
                out.push_str(&format!("premise {func} {id}\n"));
            }
            if let Some(inv) = &o.main_invariant {
                for line in inv.lines() {
                    out.push_str(&format!("invariant {line}\n"));
                }
            }
            if let Some(c) = &o.main_census {
                for line in c.lines() {
                    out.push_str(&format!("census {line}\n"));
                }
            }
            if let Some(d) = &o.detail {
                out.push_str(&format!("detail {}\n", d.replace('\n', " ")));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_slugs_round_trip() {
        for s in JobStatus::ALL {
            assert_eq!(JobStatus::from_slug(s.slug()), Some(s));
        }
        assert_eq!(JobStatus::from_slug("nope"), None);
        assert_eq!(JobStatus::TimedOut.to_string(), "timed-out");
    }

    #[test]
    fn stable_report_excludes_scheduling_noise() {
        let mut a = JobOutcome::empty("j", JobStatus::Done);
        a.alarms = Some(0);
        let mut b = a.clone();
        b.wall = Duration::from_secs(5);
        b.worker = 3;
        b.resent = 2;
        b.cache_full_hit = true;
        let ra = FleetReport {
            outcomes: vec![a],
            wall: Duration::from_secs(1),
            workers: 1,
            total_job_time: Duration::from_secs(1),
            counters: FleetCounters::default(),
        };
        let rb = FleetReport {
            outcomes: vec![b],
            wall: Duration::from_secs(9),
            workers: 4,
            total_job_time: Duration::from_secs(2),
            counters: FleetCounters::default(),
        };
        assert_eq!(ra.stable_report(), rb.stable_report());
    }

    #[test]
    fn a_failed_premise_fails_the_report_and_only_its_bytes_move() {
        let mut proven = JobOutcome::empty("j", JobStatus::Done);
        proven.alarms = Some(0);
        let report = |o: &JobOutcome| FleetReport {
            outcomes: vec![o.clone()],
            wall: Duration::from_secs(1),
            workers: 1,
            total_job_time: Duration::from_secs(1),
            counters: FleetCounters::default(),
        };
        let passing = report(&proven);
        assert!(passing.clean());
        assert_eq!(passing.stable_report(), "fleet-report/1\njob j\nstatus done\nalarms 0\n");
        let mut unsound = proven.clone();
        unsound.premise_failed = vec![("step3".into(), 2), ("main".into(), 0)];
        let failing = report(&unsound);
        assert!(!failing.clean(), "a failed premise with no alarm is not proven");
        assert_eq!(
            failing.stable_report(),
            "fleet-report/1\njob j\nstatus done\nalarms 0\npremise step3 2\npremise main 0\n"
        );
    }
}
