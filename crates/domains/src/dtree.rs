//! The boolean decision-tree abstract domain (paper Sect. 6.2.4).
//!
//! A decision tree branches on boolean variables (ordered, as in BDDs \[6\])
//! and stores an arithmetic abstract element at each leaf, relating boolean
//! values to numeric variables — e.g. proving `B := (X == 0); if (!B)
//! Y := 1/X` free of division by zero. Subtrees equal on both branches are
//! merged opportunistically. Pack sizes are capped by the analyzer
//! (Sect. 7.2.3), keeping the exponential worst case at bay.

use crate::widening::Widening;
use std::fmt;

/// The lattice interface decision-tree leaves must implement.
pub trait Lattice: Clone + PartialEq {
    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;
    /// Widening (with thresholds, and the clock's bound: see
    /// [`crate::widening`]).
    fn widen(&self, other: &Self, w: &Widening) -> Self;
    /// Inclusion.
    fn leq(&self, other: &Self) -> bool;
    /// The unreachable element.
    fn bottom() -> Self;
    /// `true` for the unreachable element.
    fn is_bottom(&self) -> bool;
}

impl Lattice for crate::int_interval::IntItv {
    fn join(&self, other: &Self) -> Self {
        crate::int_interval::IntItv::join(*self, *other)
    }
    fn widen(&self, other: &Self, w: &Widening) -> Self {
        crate::int_interval::IntItv::widen(*self, *other, w.thresholds())
    }
    fn leq(&self, other: &Self) -> bool {
        crate::int_interval::IntItv::leq(*self, *other)
    }
    fn bottom() -> Self {
        crate::int_interval::IntItv::BOTTOM
    }
    fn is_bottom(&self) -> bool {
        crate::int_interval::IntItv::is_bottom(*self)
    }
}

/// A decision tree over boolean variables of type `K` with leaves `L`.
///
/// Variables appear in strictly increasing order along every path.
///
/// # Examples
///
/// ```
/// use astree_domains::{DecisionTree, IntItv};
/// // b=false → x ∈ [0,0];  b=true → x ∈ [5,5]
/// let t = DecisionTree::node(0u32, DecisionTree::leaf(IntItv::singleton(0)),
///                                  DecisionTree::leaf(IntItv::singleton(5)));
/// let under_true = t.guard(0, true);
/// assert_eq!(under_true.collapse(), IntItv::singleton(5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionTree<K: Ord + Copy, L: Lattice> {
    /// All boolean contexts share this leaf.
    Leaf(L),
    /// Branch on `var`.
    Node {
        /// The boolean variable tested.
        var: K,
        /// Subtree for `var = false`.
        f: Box<DecisionTree<K, L>>,
        /// Subtree for `var = true`.
        t: Box<DecisionTree<K, L>>,
    },
}

impl<K: Ord + Copy, L: Lattice> DecisionTree<K, L> {
    /// A single leaf.
    pub fn leaf(l: L) -> Self {
        DecisionTree::Leaf(l)
    }

    /// A branch, merging equal children (the opportunistic sharing of the
    /// paper).
    pub fn node(var: K, f: Self, t: Self) -> Self {
        if f == t {
            f
        } else {
            DecisionTree::Node { var, f: Box::new(f), t: Box::new(t) }
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        match self {
            DecisionTree::Leaf(_) => 1,
            DecisionTree::Node { f, t, .. } => f.num_leaves() + t.num_leaves(),
        }
    }

    /// `true` when every leaf is ⊥.
    pub fn is_bottom(&self) -> bool {
        match self {
            DecisionTree::Leaf(l) => l.is_bottom(),
            DecisionTree::Node { f, t, .. } => f.is_bottom() && t.is_bottom(),
        }
    }

    /// Applies `g` to every leaf.
    #[must_use]
    pub fn map(&self, g: &impl Fn(&L) -> L) -> Self {
        match self {
            DecisionTree::Leaf(l) => DecisionTree::Leaf(g(l)),
            DecisionTree::Node { var, f, t } => Self::node(*var, f.map(g), t.map(g)),
        }
    }

    /// Applies `g` to every leaf along with the boolean path context.
    pub fn for_each_leaf(&self, g: &mut impl FnMut(&[(K, bool)], &L)) {
        fn go<K: Ord + Copy, L: Lattice>(
            tr: &DecisionTree<K, L>,
            path: &mut Vec<(K, bool)>,
            g: &mut impl FnMut(&[(K, bool)], &L),
        ) {
            match tr {
                DecisionTree::Leaf(l) => g(path, l),
                DecisionTree::Node { var, f, t } => {
                    path.push((*var, false));
                    go(f, path, g);
                    path.pop();
                    path.push((*var, true));
                    go(t, path, g);
                    path.pop();
                }
            }
        }
        go(self, &mut Vec::new(), g)
    }

    /// Pointwise binary combination, aligning the ordered variables.
    #[must_use]
    pub fn merge(&self, other: &Self, op: &impl Fn(&L, &L) -> L) -> Self {
        match (self, other) {
            (DecisionTree::Leaf(a), DecisionTree::Leaf(b)) => DecisionTree::Leaf(op(a, b)),
            (DecisionTree::Leaf(_), DecisionTree::Node { var, f, t }) => {
                Self::node(*var, self.merge(f, op), self.merge(t, op))
            }
            (DecisionTree::Node { var, f, t }, DecisionTree::Leaf(_)) => {
                Self::node(*var, f.merge(other, op), t.merge(other, op))
            }
            (
                DecisionTree::Node { var: va, f: fa, t: ta },
                DecisionTree::Node { var: vb, f: fb, t: tb },
            ) => {
                if va == vb {
                    Self::node(*va, fa.merge(fb, op), ta.merge(tb, op))
                } else if va < vb {
                    Self::node(*va, fa.merge(other, op), ta.merge(other, op))
                } else {
                    Self::node(*vb, self.merge(fb, op), self.merge(tb, op))
                }
            }
        }
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(&self, other: &Self) -> Self {
        self.merge(other, &|a, b| a.join(b))
    }

    /// Widening (pointwise on aligned leaves).
    #[must_use]
    pub fn widen(&self, other: &Self, w: &Widening) -> Self {
        self.merge(other, &|a, b| a.widen(b, w))
    }

    /// Inclusion test.
    pub fn leq(&self, other: &Self) -> bool {
        // Pointwise: self ⊑ other iff the check holds on all aligned leaves.
        // Reuse merge to align, collecting the verdict in a cell.
        let ok = std::cell::Cell::new(true);
        let _ = self.merge(other, &|a, b| {
            if !a.leq(b) {
                ok.set(false);
            }
            a.clone()
        });
        ok.get()
    }

    /// Keeps only the contexts where `var = value`; other contexts become ⊥.
    #[must_use]
    pub fn guard(&self, var: K, value: bool) -> Self {
        match self {
            DecisionTree::Leaf(_) => {
                let bot = DecisionTree::Leaf(L::bottom());
                if value {
                    Self::node(var, bot, self.clone())
                } else {
                    Self::node(var, self.clone(), bot)
                }
            }
            DecisionTree::Node { var: v, f, t } => {
                if *v == var {
                    let bot = leaf_bottom_like(f);
                    if value {
                        Self::node(*v, bot, (**t).clone())
                    } else {
                        Self::node(*v, (**f).clone(), bot)
                    }
                } else if *v < var {
                    Self::node(*v, f.guard(var, value), t.guard(var, value))
                } else {
                    // var sorts before this node: insert it above.
                    let bot = DecisionTree::Leaf(L::bottom());
                    if value {
                        Self::node(var, bot, self.clone())
                    } else {
                        Self::node(var, self.clone(), bot)
                    }
                }
            }
        }
    }

    /// Removes `var` from the tree, joining its branches (the variable's
    /// value becomes unknown — used before it is overwritten).
    #[must_use]
    pub fn forget(&self, var: K) -> Self {
        match self {
            DecisionTree::Leaf(_) => self.clone(),
            DecisionTree::Node { var: v, f, t } => {
                if *v == var {
                    f.join(t)
                } else if *v < var {
                    Self::node(*v, f.forget(var), t.forget(var))
                } else {
                    self.clone()
                }
            }
        }
    }

    /// Assignment `var := e`, where the truth of `e` in each numeric context
    /// is decided by `restrict_false` / `restrict_true` (each returns the
    /// leaf restricted to the contexts where `e` is false/true, ⊥ when
    /// impossible).
    #[must_use]
    pub fn assign_bool(
        &self,
        var: K,
        restrict_false: &impl Fn(&L) -> L,
        restrict_true: &impl Fn(&L) -> L,
    ) -> Self {
        let dropped = self.forget(var);
        dropped.split_on(var, restrict_false, restrict_true)
    }

    fn split_on(
        &self,
        var: K,
        restrict_false: &impl Fn(&L) -> L,
        restrict_true: &impl Fn(&L) -> L,
    ) -> Self {
        match self {
            DecisionTree::Leaf(l) => Self::node(
                var,
                DecisionTree::Leaf(restrict_false(l)),
                DecisionTree::Leaf(restrict_true(l)),
            ),
            DecisionTree::Node { var: v, f, t } => {
                debug_assert!(*v != var, "assign_bool forgot the variable first");
                if *v < var {
                    Self::node(
                        *v,
                        f.split_on(var, restrict_false, restrict_true),
                        t.split_on(var, restrict_false, restrict_true),
                    )
                } else {
                    Self::node(var, self.map(restrict_false), self.map(restrict_true))
                }
            }
        }
    }

    /// Joins all leaves into one element (projection to the plain numeric
    /// domain).
    pub fn collapse(&self) -> L {
        match self {
            DecisionTree::Leaf(l) => l.clone(),
            DecisionTree::Node { f, t, .. } => f.collapse().join(&t.collapse()),
        }
    }
}

fn leaf_bottom_like<K: Ord + Copy, L: Lattice>(t: &DecisionTree<K, L>) -> DecisionTree<K, L> {
    t.map(&|_| L::bottom())
}

impl<K: Ord + Copy + fmt::Display, L: Lattice + fmt::Display> fmt::Display for DecisionTree<K, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut lines = Vec::new();
        self.for_each_leaf(&mut |path, leaf| {
            let ctx: Vec<String> = path
                .iter()
                .map(|(k, v)| if *v { format!("{k}") } else { format!("¬{k}") })
                .collect();
            lines.push(format!("  [{}] → {leaf}", ctx.join(" ∧ ")));
        });
        writeln!(f, "dtree:")?;
        for l in lines {
            writeln!(f, "{l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int_interval::IntItv;
    use crate::thresholds::Thresholds;

    type T = DecisionTree<u32, IntItv>;

    #[test]
    fn node_merges_equal_children() {
        let t = T::node(0, T::leaf(IntItv::new(0, 1)), T::leaf(IntItv::new(0, 1)));
        assert!(matches!(t, DecisionTree::Leaf(_)));
        assert_eq!(t.num_leaves(), 1);
    }

    #[test]
    fn guard_prunes() {
        let t = T::node(0, T::leaf(IntItv::singleton(0)), T::leaf(IntItv::singleton(5)));
        let g = t.guard(0, true);
        assert_eq!(g.collapse(), IntItv::singleton(5));
        let g = t.guard(0, false);
        assert_eq!(g.collapse(), IntItv::singleton(0));
    }

    #[test]
    fn guard_on_absent_var_inserts_node() {
        let t = T::leaf(IntItv::new(0, 9));
        let g = t.guard(3, true);
        assert_eq!(g.num_leaves(), 2);
        assert_eq!(g.collapse(), IntItv::new(0, 9));
        assert_eq!(g.guard(3, false).collapse(), IntItv::BOTTOM);
    }

    #[test]
    fn join_aligns_different_vars() {
        let a = T::node(0, T::leaf(IntItv::singleton(1)), T::leaf(IntItv::singleton(2)));
        let b = T::node(1, T::leaf(IntItv::singleton(10)), T::leaf(IntItv::singleton(20)));
        let j = a.join(&b);
        // Contexts multiply: leaves for each (b0, b1) combination.
        assert!(j.num_leaves() <= 4);
        assert_eq!(j.collapse(), IntItv::new(1, 20));
        assert!(a.leq(&j) && b.leq(&j));
    }

    #[test]
    fn forget_joins_branches() {
        let t = T::node(0, T::leaf(IntItv::singleton(0)), T::leaf(IntItv::singleton(5)));
        let f = t.forget(0);
        assert!(matches!(f, DecisionTree::Leaf(_)));
        assert_eq!(f.collapse(), IntItv::new(0, 5));
    }

    #[test]
    fn assign_bool_correlates() {
        // Numeric context x ∈ [0, 10]; b := (x > 4).
        // restrict_true keeps [5,10], restrict_false keeps [0,4].
        let t = T::leaf(IntItv::new(0, 10));
        let assigned = t.assign_bool(0, &|l| l.meet(IntItv::new(i64::MIN, 4)), &|l| {
            l.meet(IntItv::new(5, i64::MAX))
        });
        assert_eq!(assigned.guard(0, true).collapse(), IntItv::new(5, 10));
        assert_eq!(assigned.guard(0, false).collapse(), IntItv::new(0, 4));
    }

    #[test]
    fn the_paper_division_example() {
        // B := (X == 0); if (!B) Y := 1/X.
        // X ∈ [-5, 5]; after the assignment the ¬B context excludes… well,
        // intervals cannot carve out {0} from the middle, but with
        // X ∈ [0, 5] they can.
        let t = T::leaf(IntItv::new(0, 5));
        let after_b = t.assign_bool(
            0,
            &|l| l.meet(IntItv::new(1, i64::MAX)), // B false → X ≠ 0 → X ≥ 1
            &|l| l.meet(IntItv::singleton(0)),     // B true → X = 0
        );
        // In the ¬B branch the divisor is at least 1: no division by zero.
        let not_b = after_b.guard(0, false);
        let x_range = not_b.collapse();
        assert!(!x_range.contains(0), "{x_range}");
    }

    #[test]
    fn widen_terminates_pointwise() {
        let th = Thresholds::none();
        let a = T::node(0, T::leaf(IntItv::new(0, 1)), T::leaf(IntItv::new(0, 2)));
        let b = T::node(0, T::leaf(IntItv::new(0, 5)), T::leaf(IntItv::new(0, 2)));
        let w = a.widen(&b, &Widening::from(&th));
        assert_eq!(w.guard(0, false).collapse().hi, i64::MAX);
        assert_eq!(w.guard(0, true).collapse(), IntItv::new(0, 2));
    }

    #[test]
    fn leq_detects_non_inclusion() {
        let a = T::leaf(IntItv::new(0, 5));
        let b = T::leaf(IntItv::new(0, 3));
        assert!(b.leq(&a));
        assert!(!a.leq(&b));
    }

    #[test]
    fn ordering_invariant_along_paths() {
        let a = T::node(1, T::leaf(IntItv::singleton(1)), T::leaf(IntItv::singleton(2)));
        let g = a.guard(0, true); // inserts 0 above 1
        fn check_order(t: &DecisionTree<u32, IntItv>, min: Option<u32>) {
            if let DecisionTree::Node { var, f, t: tt } = t {
                if let Some(m) = min {
                    assert!(*var > m, "unordered: {var} after {m}");
                }
                check_order(f, Some(*var));
                check_order(tt, Some(*var));
            }
        }
        check_order(&g, None);
    }
}
