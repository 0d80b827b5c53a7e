//! Single-job execution: the one place a [`JobSpec`] is turned into a
//! [`JobOutcome`].
//!
//! Both sides of the process boundary share this path — the in-process
//! runner and a serving process answering a `run` request both call
//! [`execute_contained`] — which is what makes the fleet's determinism contract
//! cheap to keep: a job's outcome depends only on its spec and the base
//! configuration, never on which process ran it.

use crate::job::{JobOutcome, JobSpec, JobStatus};
use astree_core::{panic_message, AnalysisConfig, AnalysisSession, InvariantStore};
use astree_frontend::Frontend;
use astree_obs::Recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Everything a job needs from its host besides the spec itself.
pub struct ExecContext<'a> {
    /// Base analysis configuration; the spec's overrides apply on top.
    pub config: &'a AnalysisConfig,
    /// Shared invariant store (the fleet's warm substrate), if any.
    pub cache: Option<Arc<InvariantStore>>,
    /// Telemetry recorder for the analysis itself, if any.
    pub recorder: Option<&'a dyn Recorder>,
}

/// Runs one job to completion. Returns [`JobStatus::Done`] or
/// [`JobStatus::Failed`]; panics propagate (see [`execute_contained`]).
pub fn execute(spec: &JobSpec, ctx: &ExecContext<'_>) -> JobOutcome {
    let t0 = Instant::now();
    let mut out = match spec.config(ctx.config) {
        Err(e) => failed(format!("overrides: {e}")),
        Ok(config) => analysis_job(spec, config, ctx),
    };
    out.name = spec.name.clone();
    out.wall = t0.elapsed();
    out
}

/// [`execute`] with panic containment: a panicking analysis fails its job
/// only, as [`JobStatus::Panicked`] with the panic message.
pub fn execute_contained(spec: &JobSpec, ctx: &ExecContext<'_>) -> JobOutcome {
    catch_unwind(AssertUnwindSafe(|| execute(spec, ctx))).unwrap_or_else(|payload| {
        let mut out = JobOutcome::empty(spec.name.clone(), JobStatus::Panicked);
        out.detail = Some(panic_message(payload.as_ref()));
        out
    })
}

fn failed(detail: String) -> JobOutcome {
    let mut out = JobOutcome::empty("", JobStatus::Failed);
    out.detail = Some(detail);
    out
}

fn analysis_job(spec: &JobSpec, config: AnalysisConfig, ctx: &ExecContext<'_>) -> JobOutcome {
    let program = match Frontend::new().compile_str(&spec.source) {
        Ok(p) => p,
        Err(e) => return failed(format!("compile error: {e}")),
    };
    let errs = program.validate();
    if !errs.is_empty() {
        return failed(format!("invalid program: {}", errs.join("; ")));
    }
    let mut builder = AnalysisSession::builder(&program).config(config);
    if let Some(rec) = ctx.recorder {
        builder = builder.recorder(rec);
    }
    if let Some(store) = &ctx.cache {
        builder = builder.cache(Arc::clone(store));
    }
    let result = builder.build().run();

    let mut out = JobOutcome::empty("", JobStatus::Done);
    out.alarms = Some(result.alarms.len());
    out.alarm_lines = result.alarms.iter().map(|a| a.to_string()).collect();
    out.premise_failed = result.stats.premise_loops.to_vec();
    out.main_invariant = result.main_invariant.as_ref().map(|s| s.to_string());
    out.main_census = result.main_census.as_ref().map(|c| c.to_string());
    out.cache_full_hit = result.cache.full_hit;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_ctx(config: &AnalysisConfig) -> ExecContext<'_> {
        ExecContext { config, cache: None, recorder: None }
    }

    #[test]
    fn analysis_job_reports_alarms_and_invariant() {
        let spec =
            JobSpec::new("div", "int main() { volatile int d = 0; int x = 1 / d; return x; }\n");
        let config = AnalysisConfig::default();
        let out = execute(&spec, &base_ctx(&config));
        assert_eq!(out.status, JobStatus::Done);
        assert!(out.alarms.unwrap() >= 1, "division by a zero volatile must alarm");
        assert_eq!(out.alarm_lines.len(), out.alarms.unwrap());
        assert_eq!(out.name, "div");
    }

    #[test]
    fn compile_errors_become_failed_outcomes() {
        let spec = JobSpec::new("bad", "int main( {\n");
        let config = AnalysisConfig::default();
        let out = execute(&spec, &base_ctx(&config));
        assert_eq!(out.status, JobStatus::Failed);
        assert!(out.detail.unwrap().contains("compile error"));
    }
}
