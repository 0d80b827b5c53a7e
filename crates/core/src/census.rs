//! Invariant census: classifying the assertions of a loop invariant
//! (paper Sect. 9.4.1 dumps the main loop invariant and counts 6,900 boolean
//! interval assertions, 9,600 interval assertions, 25,400 clock assertions,
//! 19,100 additive and 19,200 subtractive octagonal assertions, 100 decision
//! trees and 1,900 ellipsoidal assertions).

use crate::packs::Packs;
use crate::state::AbsState;
use astree_domains::IntItv;
use astree_ir::{IntType, ScalarType};
use astree_memory::{CellLayout, CellVal};
use std::fmt;

/// Counts of assertion kinds in one invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    /// Boolean cells constrained to a sub-range of {0, 1}.
    pub boolean_intervals: usize,
    /// Non-boolean cells with at least one finite bound.
    pub intervals: usize,
    /// Clocked assertions: finite bounds on `x − clock` or `x + clock`.
    pub clock_assertions: usize,
    /// Octagonal `x + y ≤ c` (and `−x − y ≤ c`) constraints.
    pub octagon_additive: usize,
    /// Octagonal `x − y ≤ c` constraints.
    pub octagon_subtractive: usize,
    /// Decision trees holding more than one context.
    pub decision_trees: usize,
    /// Finite ellipsoidal constraints.
    pub ellipsoids: usize,
}

/// One labelled census row (for reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusEntry {
    /// Assertion-kind label.
    pub kind: &'static str,
    /// Count.
    pub count: usize,
}

impl Census {
    /// Classifies the assertions of an abstract state.
    pub fn of_state(state: &AbsState, layout: &CellLayout, packs: &Packs) -> Census {
        let mut c = Census::default();
        if state.is_bottom() {
            return c;
        }
        for (id, val) in state.env.iter() {
            let info = layout.info(*id);
            match val {
                CellVal::Int(ck) => {
                    let is_bool = matches!(info.ty, ScalarType::Int(it) if it == IntType::BOOL);
                    if is_bool {
                        if !ck.val.is_bottom() && ck.val.leq(IntItv::new(0, 1)) {
                            c.boolean_intervals += 1;
                        }
                    } else if has_finite_bound_int(ck.val) {
                        c.intervals += 1;
                    }
                    if has_finite_bound_int(ck.minus) || has_finite_bound_int(ck.plus) {
                        c.clock_assertions += 1;
                    }
                }
                CellVal::Float(f) => {
                    if !f.is_bottom() && (f.lo.is_finite() || f.hi.is_finite()) {
                        c.intervals += 1;
                    }
                }
            }
        }
        for (pi, o) in state.octs_iter() {
            let n = packs.octagons[pi].cells.len();
            let mut o = o.clone();
            o.close();
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    if o.diff_bound(i, j).is_finite() {
                        c.octagon_subtractive += 1;
                    }
                    if i < j && o.sum_bound(i, j).is_finite() {
                        c.octagon_additive += 1;
                    }
                }
            }
        }
        for (_, t) in state.dtrees_iter() {
            if t.num_leaves() > 1 {
                c.decision_trees += 1;
            }
        }
        for (_, k) in state.ellipses_iter() {
            if k.is_finite() {
                c.ellipsoids += 1;
            }
        }
        c
    }

    /// Rows for tabular reports, in the paper's order.
    pub fn entries(&self) -> Vec<CensusEntry> {
        vec![
            CensusEntry { kind: "boolean interval assertions", count: self.boolean_intervals },
            CensusEntry { kind: "interval assertions", count: self.intervals },
            CensusEntry { kind: "clock assertions", count: self.clock_assertions },
            CensusEntry { kind: "additive octagonal assertions", count: self.octagon_additive },
            CensusEntry {
                kind: "subtractive octagonal assertions",
                count: self.octagon_subtractive,
            },
            CensusEntry { kind: "decision trees", count: self.decision_trees },
            CensusEntry { kind: "ellipsoidal assertions", count: self.ellipsoids },
        ]
    }

    /// Total number of assertions.
    pub fn total(&self) -> usize {
        self.entries().iter().map(|e| e.count).sum()
    }
}

fn has_finite_bound_int(i: IntItv) -> bool {
    !i.is_bottom() && (i.lo != i64::MIN || i.hi != i64::MAX)
}

/// The variables an invariant knows too little about (paper Sect. 3.3:
/// "integer or floating point variables that may contain large values or
/// boolean variables that may take any value") — the seed set for
/// *abstract slices*.
pub fn under_constrained_vars(
    state: &AbsState,
    layout: &CellLayout,
    large: f64,
) -> std::collections::HashSet<astree_ir::VarId> {
    let mut out = std::collections::HashSet::new();
    if state.is_bottom() {
        return out;
    }
    for (id, val) in state.env.iter() {
        let info = layout.info(*id);
        let weak = match val {
            CellVal::Int(c) => {
                let is_bool = matches!(info.ty, ScalarType::Int(it) if it == IntType::BOOL);
                if is_bool {
                    // A boolean that may take any value.
                    c.val.contains(0) && c.val.contains(1)
                } else {
                    c.val.is_bottom()
                        || c.val.lo == i64::MIN
                        || c.val.hi == i64::MAX
                        || (c.val.hi - c.val.lo) as f64 > large
                }
            }
            CellVal::Float(f) => {
                f.is_bottom() || !f.lo.is_finite() || !f.hi.is_finite() || (f.hi - f.lo) > large
            }
        };
        if weak {
            out.insert(info.var);
        }
    }
    out
}

impl fmt::Display for Census {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in self.entries() {
            writeln!(f, "{:>8}  {}", e.count, e.kind)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use astree_frontend::Frontend;
    use astree_memory::LayoutConfig;

    #[test]
    fn census_counts_initial_state() {
        let p = Frontend::new()
            .compile_str("_Bool b; int x; double f; void main(void) { b = 1; x = 2; f = 3.0; }")
            .unwrap();
        let layout = CellLayout::new(&p, &LayoutConfig::default());
        let packs = Packs::discover(&p, &layout, &AnalysisConfig::default());
        let s = AbsState::initial(&layout, &packs);
        let c = Census::of_state(&s, &layout, &packs);
        // All cells start as singletons: 1 boolean + the rest interval.
        assert_eq!(c.boolean_intervals, 1);
        assert!(c.intervals >= 2);
        assert!(c.total() >= 3);
        // The zeroed cells have clock-relative bounds too.
        assert!(c.clock_assertions >= 1);
    }

    #[test]
    fn bottom_state_has_empty_census() {
        let p = Frontend::new().compile_str("int x; void main(void) { x = 1; }").unwrap();
        let layout = CellLayout::new(&p, &LayoutConfig::default());
        let packs = Packs::discover(&p, &layout, &AnalysisConfig::default());
        let s = AbsState::bottom();
        assert_eq!(Census::of_state(&s, &layout, &packs).total(), 0);
    }

    #[test]
    fn under_constrained_detection() {
        let p = Frontend::new()
            .compile_str(
                "volatile int wide; volatile int narrow; _Bool b; int x;
                 void main(void) {
                     __astree_input_int(narrow, 0, 5);
                     x = narrow;
                     b = (_Bool)(wide > 0);
                     x = x + (b ? 1 : 0);
                 }",
            )
            .unwrap();
        let layout = CellLayout::new(&p, &LayoutConfig::default());
        let packs = Packs::discover(&p, &layout, &AnalysisConfig::default());
        let mut s = AbsState::initial(&layout, &packs);
        // narrow: tight; wide: full int range; b: {0,1}.
        let narrow = p.var_by_name("narrow").unwrap();
        let wide = p.var_by_name("wide").unwrap();
        let b = p.var_by_name("b").unwrap();
        use astree_domains::{Clocked, IntItv};
        let int = |itv| CellVal::Int(Clocked::of_val(itv, IntItv::singleton(0)));
        s.env.set(layout.scalar_cell(narrow), int(IntItv::new(0, 5)));
        s.env.set(layout.scalar_cell(wide), int(IntItv::of_type(IntType::INT)));
        s.env.set(layout.scalar_cell(b), int(IntItv::new(0, 1)));
        let weak = under_constrained_vars(&s, &layout, 1e6);
        assert!(weak.contains(&wide), "{weak:?}");
        assert!(weak.contains(&b), "booleans that may take any value are weak");
        assert!(!weak.contains(&narrow), "{weak:?}");
    }

    #[test]
    fn entries_are_labelled() {
        let c = Census { ellipsoids: 2, ..Census::default() };
        let rows = c.entries();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[6].count, 2);
        assert!(c.to_string().contains("ellipsoidal"));
    }
}
