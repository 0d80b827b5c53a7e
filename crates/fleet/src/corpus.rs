//! Fleet construction helpers shared by `astree batch` and `astree fuzz`.
//!
//! Both commands used to grow their own job lists (batch its generated
//! family members, fuzz its oracle corpus); this module is the one place a
//! corpus becomes a `Vec<JobSpec>`, and the one place distributed oracle
//! outcomes fold back into a [`Campaign`].

use crate::job::{JobOutcome, JobSpec, JobStatus, OracleJob};
use astree_gen::{generate, GenConfig};
use astree_oracle::{build_corpus, Campaign, OracleConfig};

/// Builds analysis jobs for generated family members: one per seed, with
/// the channel counts cycled. Names are `gen-c<channels>-s<seed>`.
pub fn generated_jobs(channels: &[usize], seeds: &[u64]) -> Vec<JobSpec> {
    assert!(!channels.is_empty(), "channel list must not be empty");
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let channels = channels[i % channels.len()];
            let cfg = GenConfig { channels, seed, bug: None };
            JobSpec::new(format!("gen-c{channels}-s{seed}"), generate(&cfg))
        })
        .collect()
}

/// Builds one oracle job per corpus member of `cfg` (the `astree fuzz`
/// fleet). The member spec rides inside the job; workers regenerate the
/// member's source from it, so the job itself stays small.
pub fn campaign_jobs(cfg: &OracleConfig) -> Vec<JobSpec> {
    build_corpus(cfg)
        .into_iter()
        .map(|spec| {
            let mut job = JobSpec::new(spec.label(), String::new());
            job.oracle = Some(OracleJob {
                spec,
                seeds: cfg.seeds,
                ticks: cfg.ticks,
                max_steps: cfg.max_steps,
                shrink: cfg.shrink,
                debug_tighten_cell: cfg.debug_tighten_cell.clone(),
            });
            job
        })
        .collect()
}

/// Folds distributed oracle outcomes back into a ranked [`Campaign`] —
/// the exact aggregation `run_campaign` performs in-process, so a fleet
/// fuzz run and a local one produce the same report. `jobs` and
/// `outcomes` are parallel, in submission order.
pub fn campaign_from_outcomes(jobs: &[JobSpec], outcomes: &[JobOutcome]) -> Campaign {
    assert_eq!(jobs.len(), outcomes.len(), "jobs and outcomes must be parallel");
    let mut campaign = Campaign::default();
    for (job, out) in jobs.iter().zip(outcomes) {
        let Some(oracle) = &job.oracle else { continue };
        match (&out.status, &out.oracle) {
            (JobStatus::Done, Some(member)) => campaign.absorb(member),
            _ => {
                let error =
                    out.detail.clone().unwrap_or_else(|| format!("job {}", out.status.slug()));
                campaign.absorb_failure(&oracle.spec, error);
            }
        }
    }
    campaign.finish();
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::FleetSession;
    use astree_core::AnalysisConfig;
    use astree_oracle::run_campaign;

    #[test]
    fn channel_lists_cycle() {
        let jobs = generated_jobs(&[1, 4], &[1, 2, 3]);
        assert_eq!(jobs[0].name, "gen-c1-s1");
        assert_eq!(jobs[1].name, "gen-c4-s2");
        assert_eq!(jobs[2].name, "gen-c1-s3");
        assert!(jobs.iter().all(|j| !j.source.is_empty()));
    }

    #[test]
    fn fleet_campaign_matches_run_campaign() {
        let cfg = OracleConfig {
            members: 4,
            seeds: 1,
            ticks: 4,
            max_steps: 200_000,
            shrink: false,
            analysis: AnalysisConfig::default(),
            ..OracleConfig::default()
        };
        let local = run_campaign(&cfg, |_| {});

        let jobs = campaign_jobs(&cfg);
        assert_eq!(jobs.len(), 4);
        let report = FleetSession::builder().jobs(jobs.clone()).config(cfg.analysis.clone()).run();
        let fleet = campaign_from_outcomes(&jobs, &report.outcomes);

        assert_eq!(fleet.members, local.members);
        assert_eq!(fleet.executions, local.executions);
        assert_eq!(fleet.states_checked, local.states_checked);
        assert_eq!(fleet.alarm_census, local.alarm_census);
        assert_eq!(fleet.divergences.len(), local.divergences.len());
    }
}
