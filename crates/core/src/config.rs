//! The analysis parametrization surface (paper Sect. 3.2 and 7).
//!
//! End-users adapt the analyzer to a program of the family by choosing these
//! parameters; the packing parameters can also be produced automatically
//! (Sect. 7.2) or replayed from a previous run (Sect. 7.2.2).

use astree_domains::Thresholds;
use astree_ir::LoopId;
use std::collections::{HashMap, HashSet};

/// All analysis parameters, with the defaults used throughout the
/// experiments.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Widening thresholds (Sect. 7.1.2), default the geometric ramp
    /// `±α·λᵏ`.
    pub thresholds: Thresholds,
    /// Number of plain-union iterations before widening starts
    /// (delayed widening, Sect. 7.1.3).
    pub widening_delay: u32,
    /// Extra union iterations granted each time an unstable variable
    /// becomes stable (the fairness-capped part of Sect. 7.1.3).
    pub stabilization_grace: u32,
    /// Hard cap on widening iterations per loop.
    pub max_iterations: u32,
    /// Number of narrowing (decreasing) iterations after stabilization.
    pub narrowing_iterations: u32,
    /// Default semantic loop-unrolling factor (Sect. 7.1.1).
    pub loop_unroll: u32,
    /// Per-loop unrolling overrides.
    pub per_loop_unroll: HashMap<LoopId, u32>,
    /// Maximal number of clock ticks (the physical operating-time bound of
    /// Sect. 4; bounds the clocked domain's reductions).
    pub max_clock: i64,
    /// Relative perturbation applied to float bounds during loop iteration
    /// (floating iteration perturbation, Sect. 7.1.4).
    pub float_perturbation: f64,
    /// Arrays larger than this shrink to a single cell (Sect. 6.1.1).
    pub shrink_threshold: usize,
    /// Enables the octagon packs (Sect. 6.2.2).
    pub enable_octagons: bool,
    /// Enables the ellipsoid filter domain (Sect. 6.2.3).
    pub enable_ellipsoids: bool,
    /// Enables the boolean decision trees (Sect. 6.2.4).
    pub enable_dtrees: bool,
    /// Enables the clocked domain (Sect. 6.2.1).
    pub enable_clocked: bool,
    /// Enables expression linearization (Sect. 6.3).
    pub enable_linearization: bool,
    /// Functions analyzed with trace partitioning (Sect. 7.1.5); branches
    /// inside them are merged only at the return point.
    pub partitioned_functions: HashSet<String>,
    /// Cap on simultaneously live partitions per function.
    pub max_partitions: usize,
    /// Maximum variables per octagon pack (Sect. 7.2.1 keeps packs small).
    pub octagon_pack_cap: usize,
    /// Maximum boolean variables per decision-tree pack (Sect. 7.2.3: "three
    /// yields an efficient and precise analysis").
    pub dtree_pack_bool_cap: usize,
    /// When set, only the octagon packs with these indices (from a previous
    /// run's usefulness report) are used — the packing optimization of
    /// Sect. 7.2.2.
    pub octagon_pack_filter: Option<Vec<usize>>,
    /// User-supplied octagon packs by variable name, *added* to the
    /// syntactically discovered ones (the end-user parametrization of
    /// Sect. 3.2: "have the user supply for each program point groups of
    /// variables on which the relational analysis should be independently
    /// applied"). Unknown or non-scalar names are ignored.
    pub octagon_packs_extra: Vec<Vec<String>>,
    /// Worker threads for intra-analysis parallelism (Monniaux's
    /// partition-and-join scheme). `1` (the default) runs the purely
    /// sequential interpreter; `N > 1` slices runs of independent statements
    /// of the synchronous loop's dispatch across `N` workers and merges the
    /// slice deltas in a fixed order, so alarms and invariants are identical
    /// for every value.
    pub jobs: usize,
    /// Fault injection for tests: the parallel worker running this slice
    /// index panics, exercising the panic-isolation fallback (the stage is
    /// replayed sequentially and the reason lands in the metrics output).
    #[doc(hidden)]
    pub debug_panic_slice: Option<usize>,
    /// Disables every pointer-equality shortcut in the persistent-map layer
    /// (root/interior merge shortcuts, identity-preserving no-op inserts,
    /// `diff2`/`all2` shared-subtree skips and the iterator's `ptr_eq` fast
    /// paths). The analysis recomputes everything the shortcuts would have
    /// skipped; alarms, census and invariants must stay bit-identical to the
    /// default run — CI diffs both modes. Purely a validation knob: it is
    /// excluded from the cache fingerprint.
    #[doc(hidden)]
    pub debug_no_ptr_shortcuts: bool,
    /// Records the joined abstract state observed at *every* statement during
    /// the Check pass (not just loop heads) into
    /// [`AnalysisResult::stmt_invariants`]. Used by the differential
    /// soundness oracle to compare concrete interpreter states against the
    /// claimed invariants at each program point. Collection forces the Check
    /// pass to run sequentially (parallel slices would drop their captures)
    /// and bypasses verbatim cache replay (a replayed result carries no
    /// per-statement states); alarms and invariants are unaffected, so the
    /// flag is excluded from the cache fingerprint.
    pub collect_stmt_invariants: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            thresholds: Thresholds::geometric_default(),
            widening_delay: 2,
            stabilization_grace: 8,
            max_iterations: 200,
            narrowing_iterations: 2,
            loop_unroll: 1,
            per_loop_unroll: HashMap::new(),
            max_clock: 3_600_000, // 1 h of 1 ms cycles
            float_perturbation: 0.0,
            shrink_threshold: 256,
            enable_octagons: true,
            enable_ellipsoids: true,
            enable_dtrees: true,
            enable_clocked: true,
            enable_linearization: true,
            partitioned_functions: HashSet::new(),
            max_partitions: 16,
            octagon_pack_cap: 8,
            dtree_pack_bool_cap: 3,
            octagon_pack_filter: None,
            octagon_packs_extra: Vec::new(),
            jobs: 1,
            debug_panic_slice: None,
            debug_no_ptr_shortcuts: false,
            collect_stmt_invariants: false,
        }
    }
}

impl AnalysisConfig {
    /// The configuration of the baseline analyzer the paper started from
    /// (\[5\]): intervals and the clocked domain only, no relational domains,
    /// no linearization, no unrolling.
    pub fn baseline() -> AnalysisConfig {
        AnalysisConfig {
            enable_octagons: false,
            enable_ellipsoids: false,
            enable_dtrees: false,
            enable_linearization: false,
            loop_unroll: 0,
            ..AnalysisConfig::default()
        }
    }

    /// The unrolling factor for a given loop.
    pub fn unroll_for(&self, id: LoopId) -> u32 {
        self.per_loop_unroll.get(&id).copied().unwrap_or(self.loop_unroll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let c = AnalysisConfig::default();
        assert!(c.enable_octagons && c.enable_ellipsoids && c.enable_dtrees);
        assert!(c.enable_clocked && c.enable_linearization);
        assert_eq!(c.dtree_pack_bool_cap, 3);
    }

    #[test]
    fn baseline_disables_refinements() {
        let c = AnalysisConfig::baseline();
        assert!(!c.enable_octagons && !c.enable_ellipsoids && !c.enable_dtrees);
        assert!(c.enable_clocked, "the baseline [5] already had the clocked domain");
    }

    #[test]
    fn per_loop_unroll_overrides() {
        let mut c = AnalysisConfig::default();
        c.loop_unroll = 1;
        c.per_loop_unroll.insert(LoopId(3), 4);
        assert_eq!(c.unroll_for(LoopId(3)), 4);
        assert_eq!(c.unroll_for(LoopId(0)), 1);
    }
}
