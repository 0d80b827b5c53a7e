//! Fleet construction for `astree batch`: generated family members become
//! a `Vec<JobSpec>`.

use crate::job::JobSpec;
use astree_gen::{generate, GenConfig};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_lists_cycle() {
        let jobs = generated_jobs(&[1, 4], &[1, 2, 3]);
        assert_eq!(jobs[0].name, "gen-c1-s1");
        assert_eq!(jobs[1].name, "gen-c4-s2");
        assert_eq!(jobs[2].name, "gen-c1-s3");
        assert!(jobs.iter().all(|j| !j.source.is_empty()));
    }
}
