//! Input generation: every workload's members come from `--seed` through
//! the family generator, and the program under test only ever sees the
//! `.c` files written here.

use crate::spec::{Scale, Workload, BUG_EVERY};
use crate::verdict::Expect;
use astree::gen::{generate, line_count, BugKind, GenConfig};
use std::io;
use std::path::{Path, PathBuf};

/// One generated family member with its verdict by construction.
#[derive(Debug, Clone)]
pub struct Member {
    /// File stem, unique within the workload.
    pub id: String,
    /// Channel count.
    pub channels: usize,
    /// Generator seed (derived from `--seed`).
    pub gen_seed: u64,
    /// The generated (or edited) source text.
    pub source: String,
    /// Physical source lines / 1000.
    pub kloc: f64,
    /// What the analyzer must say about it.
    pub expect: Expect,
}

impl Member {
    /// The member's `.c` file inside `dir`.
    pub fn path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.c", self.id))
    }
}

/// The members of one workload, in operation order.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// All members. `edit_cycle`: `[first, edited, larger]`; `parallel`:
    /// `[jobs member, batch members...]`.
    pub members: Vec<Member>,
}

/// SplitMix64: one well-mixed generator seed per (suite seed, stream).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const BUGS: [BugKind; 3] = [BugKind::DivByZero, BugKind::OutOfBounds, BugKind::IntOverflow];

/// The CLI spelling of a bug kind, used in member ids and documents.
pub fn bug_slug(bug: BugKind) -> &'static str {
    match bug {
        BugKind::DivByZero => "div0",
        BugKind::OutOfBounds => "oob",
        BugKind::IntOverflow => "overflow",
    }
}

fn member(id: String, channels: usize, gen_seed: u64, bug: Option<BugKind>) -> Member {
    let source = generate(&GenConfig { channels, seed: gen_seed, bug });
    from_source(id, channels, gen_seed, bug, source)
}

fn from_source(
    id: String,
    channels: usize,
    gen_seed: u64,
    bug: Option<BugKind>,
    source: String,
) -> Member {
    let expect = Expect::from_construction(&source, bug);
    let kloc = line_count(&source) as f64 / 1000.0;
    Member { id, channels, gen_seed, source, kloc, expect }
}

/// Changes one constant in one `stepK`: the clamp range of channel `k`'s
/// rate limiter shrinks, which keeps the member alarm-free.
fn edit_one_constant(source: &str, k: usize) -> String {
    let old = format!("rate{k} = clampf(rate{k}, -100.0, 100.0);");
    let new = format!("rate{k} = clampf(rate{k}, -90.0, 90.0);");
    assert!(source.contains(&old), "generator no longer emits `{old}`");
    source.replacen(&old, &new, 1)
}

/// Generates the members of `workload` at `scale` from the suite seed.
pub fn generate_inputs(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let sz = scale.sizes();
    let members = match workload {
        Workload::PaperCold => {
            let ch = sz.paper_cold_channels;
            vec![member(format!("paper-c{ch}"), ch, mix(seed, 1), None)]
        }
        Workload::SmallMix => (0..sz.small_mix_members)
            .map(|i| {
                let ch = sz.small_mix_cycle[i % sz.small_mix_cycle.len()];
                let bug = (i % BUG_EVERY == 0).then(|| BUGS[(i / BUG_EVERY) % BUGS.len()]);
                let tag = bug.map_or("clean", bug_slug);
                member(format!("mix{i:02}-c{ch}-{tag}"), ch, mix(seed, 100 + i as u64), bug)
            })
            .collect(),
        Workload::EditCycle => {
            let gen_seed = mix(seed, 2);
            let first =
                member(format!("edit-c{}", sz.edit_channels), sz.edit_channels, gen_seed, None);
            let k = (mix(seed, 3) % sz.edit_channels as u64) as usize;
            let edited = from_source(
                format!("edit-c{}-step{k}", sz.edit_channels),
                sz.edit_channels,
                gen_seed,
                None,
                edit_one_constant(&first.source, k),
            );
            let larger = member(
                format!("edit-c{}", sz.transfer_channels),
                sz.transfer_channels,
                gen_seed,
                None,
            );
            vec![first, edited, larger]
        }
        Workload::Parallel => {
            let ch = sz.jobs_channels;
            let mut all = vec![member(format!("jobs-c{ch}"), ch, mix(seed, 4), None)];
            all.extend((0..sz.batch_members).map(|i| {
                let ch = sz.batch_cycle[i % sz.batch_cycle.len()];
                member(format!("batch{i:02}-c{ch}"), ch, mix(seed, 200 + i as u64), None)
            }));
            all
        }
    };
    Inputs { workload, members }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Set-up, as `setup_s` times it: generate the members, create the work
/// directory afresh and write every member's `.c` file into it.
pub fn set_up(workload: Workload, scale: Scale, seed: u64, work_dir: &Path) -> io::Result<Inputs> {
    let inputs = generate_inputs(workload, scale, seed);
    if work_dir.exists() {
        std::fs::remove_dir_all(work_dir)?;
    }
    std::fs::create_dir_all(work_dir)?;
    for m in &inputs.members {
        std::fs::write(m.path(work_dir), &m.source)?;
    }
    Ok(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = generate_inputs(Workload::SmallMix, Scale::Toy, 7);
        let b = generate_inputs(Workload::SmallMix, Scale::Toy, 7);
        let c = generate_inputs(Workload::SmallMix, Scale::Toy, 8);
        let text = |x: &Inputs| x.members.iter().map(|m| m.source.clone()).collect::<Vec<_>>();
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
    }

    #[test]
    fn small_mix_plants_each_bug_kind_on_every_fifth_member() {
        let inputs = generate_inputs(Workload::SmallMix, Scale::Toy, 1);
        let bugs: Vec<(usize, &str)> = inputs
            .members
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.expect.bug().map(|b| (i, bug_slug(b))))
            .collect();
        assert_eq!(bugs, vec![(0, "div0"), (5, "oob"), (10, "overflow")]);
    }

    #[test]
    fn edit_changes_one_line_and_transfer_extends_the_same_seed() {
        let inputs = generate_inputs(Workload::EditCycle, Scale::Toy, 3);
        let [first, edited, larger] = &inputs.members[..] else { panic!("three members") };
        let differing =
            first.source.lines().zip(edited.source.lines()).filter(|(a, b)| a != b).count();
        assert_eq!(differing, 1);
        assert_eq!(first.source.lines().count(), edited.source.lines().count());
        assert_eq!(first.gen_seed, larger.gen_seed);
        assert!(larger.channels > first.channels);
    }
}
