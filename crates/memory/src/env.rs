//! Abstract environments: persistent maps from cells to abstract values.

use crate::layout::{CellId, CellLayout};
use astree_domains::{Clocked, FloatItv, IntItv, Widening};
use astree_ir::ScalarType;
use astree_pmap::{MergeOutcome, PMap};
use std::fmt;

/// The abstract value of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellVal {
    /// Integer cell: interval plus clocked bounds (paper Sect. 6.2.1).
    Int(Clocked),
    /// Float cell: interval with outward rounding.
    Float(FloatItv),
}

impl CellVal {
    /// ⊤ for a scalar type.
    pub fn top_of(ty: ScalarType) -> CellVal {
        match ty {
            ScalarType::Int(_) => CellVal::Int(Clocked::TOP),
            ScalarType::Float(k) => CellVal::Float(FloatItv::top_of(k)),
        }
    }

    /// The zero value of a scalar type (C static initialization), given the
    /// current clock interval.
    pub fn zero_of(ty: ScalarType, clock: IntItv) -> CellVal {
        match ty {
            ScalarType::Int(_) => CellVal::Int(Clocked::of_val(IntItv::singleton(0), clock)),
            ScalarType::Float(_) => CellVal::Float(FloatItv::singleton(0.0)),
        }
    }

    /// `true` when the value denotes no concrete value.
    pub fn is_bottom(&self) -> bool {
        match self {
            CellVal::Int(c) => c.is_bottom(),
            CellVal::Float(f) => f.is_bottom(),
        }
    }

    /// Pointwise join.
    #[must_use]
    pub fn join(&self, other: &CellVal) -> CellVal {
        match (self, other) {
            (CellVal::Int(a), CellVal::Int(b)) => CellVal::Int(a.join(*b)),
            (CellVal::Float(a), CellVal::Float(b)) => CellVal::Float(a.join(*b)),
            _ => panic!("cell kind mismatch in join"),
        }
    }

    /// Pointwise meet.
    #[must_use]
    pub fn meet(&self, other: &CellVal) -> CellVal {
        match (self, other) {
            (CellVal::Int(a), CellVal::Int(b)) => CellVal::Int(a.meet(*b)),
            (CellVal::Float(a), CellVal::Float(b)) => CellVal::Float(a.meet(*b)),
            _ => panic!("cell kind mismatch in meet"),
        }
    }

    /// Pointwise widening: an integer cell's bounds that the clock bounds
    /// jump to that bound ([`Clocked::widen`]), a float cell's climb the ramp.
    #[must_use]
    pub fn widen(&self, other: &CellVal, w: &Widening) -> CellVal {
        match (self, other) {
            (CellVal::Int(a), CellVal::Int(b)) => CellVal::Int(a.widen(*b, w)),
            (CellVal::Float(a), CellVal::Float(b)) => CellVal::Float(a.widen(*b, w.thresholds())),
            _ => panic!("cell kind mismatch in widen"),
        }
    }

    /// Pointwise narrowing.
    #[must_use]
    pub fn narrow(&self, other: &CellVal) -> CellVal {
        match (self, other) {
            (CellVal::Int(a), CellVal::Int(b)) => CellVal::Int(a.narrow(*b)),
            (CellVal::Float(a), CellVal::Float(b)) => CellVal::Float(a.narrow(*b)),
            _ => panic!("cell kind mismatch in narrow"),
        }
    }

    /// Pointwise inclusion.
    pub fn leq(&self, other: &CellVal) -> bool {
        match (self, other) {
            (CellVal::Int(a), CellVal::Int(b)) => a.leq(*b),
            (CellVal::Float(a), CellVal::Float(b)) => a.leq(*b),
            _ => panic!("cell kind mismatch in leq"),
        }
    }

    /// Bitwise identity — the `same` check the sharing-preserving map
    /// operations use to decide "this merge changed nothing, keep the
    /// original subtree".
    ///
    /// Deliberately *bitwise*, not `PartialEq`: float bounds are compared
    /// via [`f64::to_bits`], which distinguishes `-0.0` from `0.0` and is
    /// reflexive on NaN, so substituting the old value for the "equal" new
    /// one can never alter a downstream bit pattern (`PartialEq` would let
    /// `-0.0` masquerade as `0.0` and corrupt bit-identical replay).
    /// Integer bounds are exact, so plain equality is already bitwise.
    pub fn same(&self, other: &CellVal) -> bool {
        match (self, other) {
            (CellVal::Int(a), CellVal::Int(b)) => a == b,
            (CellVal::Float(a), CellVal::Float(b)) => {
                a.lo.to_bits() == b.lo.to_bits() && a.hi.to_bits() == b.hi.to_bits()
            }
            _ => false,
        }
    }

    /// Classifies a combined value against its two operands for the
    /// identity-preserving merge: keep left if bitwise-unchanged, else keep
    /// right, else bind the fresh value.
    fn outcome(self, a: &CellVal, b: &CellVal) -> MergeOutcome<CellVal> {
        if self.same(a) {
            MergeOutcome::Left
        } else if self.same(b) {
            MergeOutcome::Right
        } else {
            MergeOutcome::New(self)
        }
    }

    /// Wraps a binary lattice operation into an identity-classifying
    /// combiner. Bitwise-equal operands short-circuit to `Left` *before*
    /// `op` runs — this is what keeps the sharing and no-sharing modes
    /// bit-identical (a physically shared subtree skips the combiner
    /// entirely, so the non-shared path must produce the left operand for
    /// bitwise-equal inputs no matter what `op` would compute).
    fn merged(
        a: &CellVal,
        b: &CellVal,
        op: impl FnOnce(&CellVal, &CellVal) -> CellVal,
    ) -> MergeOutcome<CellVal> {
        if a.same(b) {
            MergeOutcome::Left
        } else {
            op(a, b).outcome(a, b)
        }
    }
}

/// An abstract environment: cell values plus the hidden clock interval.
///
/// The environment is persistent: `clone` is O(1) and binary operations
/// exploit structural sharing, so analyzing a test costs time proportional
/// to the cells the branches modified (paper Sect. 6.1.2).
#[derive(Debug, Clone)]
pub struct AbsEnv {
    cells: PMap<CellId, CellVal>,
    /// Bounds on the hidden clock variable.
    pub clock: IntItv,
    bottom: bool,
}

impl AbsEnv {
    /// The unreachable environment ⊥.
    pub fn bottom() -> AbsEnv {
        AbsEnv { cells: PMap::new(), clock: IntItv::BOTTOM, bottom: true }
    }

    /// The initial environment: every cell zero-initialized (C statics;
    /// locals are zeroed by the frontend model), clock at 0.
    pub fn initial(layout: &CellLayout) -> AbsEnv {
        let clock = IntItv::singleton(0);
        let cells =
            layout.iter().map(|(id, info)| (id, CellVal::zero_of(info.ty, clock))).collect();
        AbsEnv { cells, clock, bottom: false }
    }

    /// A reachable environment tracking exactly the given cells (the cache
    /// decoder's constructor; values must not be ⊥).
    pub fn from_cells(clock: IntItv, cells: impl IntoIterator<Item = (CellId, CellVal)>) -> AbsEnv {
        AbsEnv { cells: cells.into_iter().collect(), clock, bottom: false }
    }

    /// An environment with every cell ⊤ (used for entry points with unknown
    /// initial state).
    pub fn top(layout: &CellLayout) -> AbsEnv {
        let cells = layout.iter().map(|(id, info)| (id, CellVal::top_of(info.ty))).collect();
        AbsEnv { cells, clock: IntItv::new(0, i64::MAX), bottom: false }
    }

    /// `true` for the unreachable environment.
    pub fn is_bottom(&self) -> bool {
        self.bottom
    }

    /// Marks the environment unreachable.
    pub fn set_bottom(&mut self) {
        self.bottom = true;
    }

    /// Reads a cell (⊤ of the right kind when untracked). Total on purpose:
    /// consumers that render a state they did not compute (the soundness
    /// oracle's per-statement tables) rely on the ⊤ default. The analyzer's
    /// own transfer functions go through [`AbsEnv::read`].
    pub fn get(&self, id: CellId, layout: &CellLayout) -> CellVal {
        self.cells.get(&id).copied().unwrap_or_else(|| CellVal::top_of(layout.info(id).ty))
    }

    /// [`AbsEnv::get`] for the analyzer's own read paths: a reachable
    /// environment is only ever read at cells it tracks — a frame (see
    /// `DESIGN.md`, "Frames") holds every cell its callee can touch — so an
    /// untracked read is a frame that under-approximates. Debug builds stop
    /// there; release builds read ⊤, which is imprecise but never unsound.
    pub fn read(&self, id: CellId, layout: &CellLayout) -> CellVal {
        debug_assert!(
            self.bottom || self.cells.contains_key(&id),
            "read of untracked cell {} ({})",
            id.0,
            layout.info(id).name
        );
        self.get(id, layout)
    }

    /// `true` when the environment tracks `id`.
    pub fn tracks(&self, id: CellId) -> bool {
        self.cells.contains_key(&id)
    }

    /// `true` when both environments track exactly the same cells.
    pub fn same_cells(&self, other: &AbsEnv) -> bool {
        self.cells.same_keys(&other.cells)
    }

    /// The environment restricted to `cells` (ascending): same clock, and of
    /// `cells` those this environment tracks. ⊥ stays ⊥.
    #[must_use]
    pub fn project(&self, cells: &[CellId]) -> AbsEnv {
        if self.bottom {
            return AbsEnv::bottom();
        }
        AbsEnv { cells: self.cells.pick(cells), clock: self.clock, bottom: false }
    }

    /// The environment restricted to the cells `other` tracks too.
    #[must_use]
    pub fn restrict_to(&self, other: &AbsEnv) -> AbsEnv {
        AbsEnv {
            cells: self.cells.filter_map(|c, v| other.tracks(*c).then_some(*v)),
            clock: self.clock,
            bottom: self.bottom,
        }
    }

    /// Strong update, in place: only the tree nodes another environment
    /// shares with this one are copied ([`PMap::set`]), so a uniquely owned
    /// environment is written without allocating. Writing a value
    /// bitwise-identical to the current one leaves the cell tree untouched,
    /// so a statement that rewrites a cell to its old value keeps the
    /// environment `ptr_eq` to its clones.
    pub fn set(&mut self, id: CellId, val: CellVal) {
        if self.bottom {
            return;
        }
        if val.is_bottom() {
            *self = AbsEnv::bottom();
            return;
        }
        self.cells.set(id, val, CellVal::same);
    }

    /// Weak update: the cell may or may not have been written.
    pub fn set_weak(&mut self, id: CellId, val: CellVal, layout: &CellLayout) {
        if self.bottom {
            return;
        }
        let old = self.read(id, layout);
        self.set(id, old.join(&val));
    }

    /// Rewrites, in one in-place pass over the cell tree, every cell for
    /// which `f` returns a value (bitwise-identical values are skipped like
    /// in [`AbsEnv::set`]; a ⊥ value makes the environment unreachable).
    pub fn set_each(&mut self, mut f: impl FnMut(&CellVal) -> Option<CellVal>) {
        if self.bottom {
            return;
        }
        let mut dead = false;
        self.cells.set_each(|_, old| {
            if dead {
                return None;
            }
            let new = f(old)?;
            if new.is_bottom() {
                dead = true;
                return None;
            }
            (!new.same(old)).then_some(new)
        });
        if dead {
            *self = AbsEnv::bottom();
        }
    }

    /// Number of tracked cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cell is tracked.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over tracked cells.
    pub fn iter(&self) -> impl Iterator<Item = (&CellId, &CellVal)> {
        self.cells.iter()
    }

    /// `true` when the two environments are the same physical cell tree
    /// (and agree on clock/reachability) — constant time, `true` implies
    /// semantic equality.
    pub fn ptr_eq(&self, other: &AbsEnv) -> bool {
        self.bottom == other.bottom && self.clock == other.clock && self.cells.ptr_eq(&other.cells)
    }

    /// Abstract union `⊔` (cell-wise, sharing-aware).
    ///
    /// Identity-preserving: joining in an environment that adds no
    /// information returns a result whose cell tree is `ptr_eq` to `self`'s
    /// (the merge classifies each combined value bitwise via
    /// [`CellVal::same`] and keeps original subtrees), so a stabilized loop
    /// iterate stays physically equal to its predecessor.
    #[must_use]
    pub fn join(&self, other: &AbsEnv) -> AbsEnv {
        if self.bottom {
            return other.clone();
        }
        if other.bottom {
            return self.clone();
        }
        AbsEnv {
            cells: self
                .cells
                .union_outcome(&other.cells, |_, a, b| CellVal::merged(a, b, |a, b| a.join(b))),
            clock: self.clock.join(other.clock),
            bottom: false,
        }
    }

    /// Widening (cell-wise with thresholds, identity-preserving like
    /// [`AbsEnv::join`]): the clock first ([`Widening::clock`]), then every
    /// cell at the widened clock.
    #[must_use]
    pub fn widen(&self, other: &AbsEnv, w: &Widening) -> AbsEnv {
        if self.bottom {
            return other.clone();
        }
        if other.bottom {
            return self.clone();
        }
        let clock = w.clock(self.clock, other.clock);
        let w = w.at_clock(clock);
        AbsEnv {
            cells: self.cells.union_outcome(&other.cells, |_, a, b| {
                CellVal::merged(a, b, |a, b| a.widen(b, &w))
            }),
            clock,
            bottom: false,
        }
    }

    /// Narrowing (cell-wise, identity-preserving like [`AbsEnv::join`]).
    #[must_use]
    pub fn narrow(&self, other: &AbsEnv) -> AbsEnv {
        if self.bottom || other.bottom {
            return AbsEnv::bottom();
        }
        AbsEnv {
            cells: self
                .cells
                .union_outcome(&other.cells, |_, a, b| CellVal::merged(a, b, |a, b| a.narrow(b))),
            clock: self.clock.narrow(other.clock),
            bottom: false,
        }
    }

    /// Bitwise equality: same reachability, clock and cell values
    /// ([`CellVal::same`]); physically shared subtrees are equal unwalked.
    pub fn same(&self, other: &AbsEnv) -> bool {
        self.bottom == other.bottom
            && self.clock == other.clock
            && self.cells.all2(&other.cells, |_, _| false, |_, _| false, |_, a, b| a.same(b))
    }

    /// `true` when [`AbsEnv::narrow`] could refine this environment: it holds
    /// an infinite bound — of a cell's interval, of a clocked cell's
    /// `x ± clock` parts, or of the clock. Narrowing rewrites nothing else.
    pub fn narrowable(&self) -> bool {
        let int = |i: IntItv| i.lo == i64::MIN || i.hi == i64::MAX;
        !self.bottom
            && (int(self.clock)
                || self.cells.values().any(|v| match v {
                    CellVal::Int(c) => int(c.val) || int(c.minus) || int(c.plus),
                    CellVal::Float(f) => f.lo == f64::NEG_INFINITY || f.hi == f64::INFINITY,
                }))
    }

    /// Inclusion test `⊑` (with the physical-equality shortcut at every
    /// level of the cell-tree walk).
    ///
    /// Both sides must track the same cells: a cell tracked on one side only
    /// answers `false`. An untracked cell reads as ⊤, so a left-only cell
    /// would be included semantically — but environments of different shape
    /// belong to different frames, and a state of another frame must be
    /// rejected, not compared on the cells the two happen to share.
    pub fn leq(&self, other: &AbsEnv) -> bool {
        if self.bottom {
            return true;
        }
        if other.bottom {
            return false;
        }
        self.clock.leq(other.clock)
            && self.cells.all2(&other.cells, |_, _| false, |_, _| false, |_, a, b| a.leq(b))
    }

    /// Three-way overlay: applies onto `self` every cell whose value in
    /// `post` differs from its value in `pre`, the environment `post` was
    /// computed from, and takes `post`'s clock.
    ///
    /// Used by the parallel executor's deterministic merge (each slice runs
    /// from the same `pre` state and its changes are overlaid in slice
    /// order) and by a framed call's write-back (`pre` is the projection the
    /// callee ran on). Cells with bitwise-equal values are skipped even
    /// when the underlying tree nodes differ (path copies from neighbouring
    /// writes), so an untouched cell never clobbers an earlier slice's
    /// write; cells a slice *must* write but may have rewritten to their
    /// pre value are forced separately via [`AbsEnv::set`]. A cell `post`
    /// no longer tracks reads as ⊤ there and is written as ⊤.
    pub fn overlay_changed(&mut self, pre: &AbsEnv, post: &AbsEnv, layout: &CellLayout) {
        debug_assert!(!self.bottom && !pre.bottom && !post.bottom);
        // Bitwise comparison, not `PartialEq`: a slice that flips only a
        // zero sign (+0.0 → -0.0) still shadows earlier slices, exactly as
        // the sequential execution would.
        self.cells.overlay(&pre.cells, &post.cells, CellVal::same, |c| {
            CellVal::top_of(layout.info(*c).ty)
        });
        self.clock = post.clock;
    }

    /// Counts the cells whose value is not below `other`'s (or that one
    /// side alone tracks), walking only the subtrees the two do not share.
    pub fn count_not_leq(&self, other: &AbsEnv) -> usize {
        self.cells.fold2(&other.cells, 0, |n, _, a, b| match (a, b) {
            (Some(a), Some(b)) => n + usize::from(!a.leq(b)),
            _ => n + 1,
        })
    }

    /// Counts cells whose value differs from `other` (diagnostics, packing
    /// usefulness reports).
    pub fn count_diff(&self, other: &AbsEnv) -> usize {
        self.cells.fold2(&other.cells, 0, |n, _, a, b| n + usize::from(a != b))
    }

    /// Collects the cells whose value differs from `other`, skipping shared
    /// subtrees wholesale — the changed-cell set the iterator feeds into
    /// localized pack reduction. Cost is proportional to the diff, not the
    /// environment size.
    pub fn changed_cells(&self, other: &AbsEnv, out: &mut Vec<CellId>) {
        self.cells.diff2(&other.cells, |k, a, b| {
            // Bitwise: a zero-sign flip is a change (its bounds feed the
            // total-order pack reductions, which distinguish -0.0 from 0.0).
            let differ = match (a, b) {
                (Some(a), Some(b)) => !a.same(b),
                (None, None) => false,
                _ => true,
            };
            if differ {
                out.push(*k);
            }
        });
    }
}

impl fmt::Display for AbsEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bottom {
            return write!(f, "⊥");
        }
        writeln!(f, "clock = {}", self.clock)?;
        for (id, v) in self.cells.iter() {
            match v {
                CellVal::Int(c) => writeln!(f, "  cell{} = {}", id.0, c.val)?,
                CellVal::Float(x) => writeln!(f, "  cell{} = {}", id.0, x)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutConfig;
    use astree_ir::{Function, IntType, Program, Type, VarInfo, VarKind};

    /// `env` with one cell strongly updated; `env` itself keeps its value.
    fn with(env: &AbsEnv, id: CellId, val: CellVal) -> AbsEnv {
        let mut out = env.clone();
        out.set(id, val);
        out
    }

    fn small_layout() -> (Program, CellLayout) {
        let mut p = Program::new();
        p.add_var(VarInfo::scalar("x", ScalarType::Int(IntType::INT), VarKind::Global));
        p.add_var(VarInfo::scalar(
            "f",
            ScalarType::Float(astree_ir::FloatKind::F64),
            VarKind::Global,
        ));
        p.add_var(VarInfo {
            name: "a".into(),
            ty: Type::Array(Box::new(Type::int(IntType::INT)), 3),
            kind: VarKind::Global,
            volatile_input: None,
        });
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![],
        });
        let l = CellLayout::new(&p, &LayoutConfig::default());
        (p, l)
    }

    #[test]
    fn initial_env_is_zero() {
        let (_, l) = small_layout();
        let env = AbsEnv::initial(&l);
        assert_eq!(env.len(), 5);
        match env.get(CellId(0), &l) {
            CellVal::Int(c) => assert_eq!(c.val, IntItv::singleton(0)),
            other => panic!("{other:?}"),
        }
        match env.get(CellId(1), &l) {
            CellVal::Float(f) => assert_eq!(f, FloatItv::singleton(0.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn strong_and_weak_updates() {
        let (_, l) = small_layout();
        let env = AbsEnv::initial(&l);
        let v = CellVal::Int(Clocked::of_val(IntItv::new(5, 7), env.clock));
        let strong = with(&env, CellId(0), v);
        match strong.get(CellId(0), &l) {
            CellVal::Int(c) => assert_eq!(c.val, IntItv::new(5, 7)),
            other => panic!("{other:?}"),
        }
        let mut weak = env.clone();
        weak.set_weak(CellId(0), v, &l);
        match weak.get(CellId(0), &l) {
            CellVal::Int(c) => assert_eq!(c.val, IntItv::new(0, 7)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_and_leq() {
        let (_, l) = small_layout();
        let base = AbsEnv::initial(&l);
        let a =
            with(&base, CellId(0), CellVal::Int(Clocked::of_val(IntItv::singleton(1), base.clock)));
        let b =
            with(&base, CellId(0), CellVal::Int(Clocked::of_val(IntItv::singleton(3), base.clock)));
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        match j.get(CellId(0), &l) {
            CellVal::Int(c) => assert_eq!(c.val, IntItv::new(1, 3)),
            other => panic!("{other:?}"),
        }
        assert!(!j.leq(&a));
    }

    #[test]
    fn bottom_absorbs() {
        let (_, l) = small_layout();
        let env = AbsEnv::initial(&l);
        let bot = AbsEnv::bottom();
        assert!(bot.is_bottom());
        assert!(bot.leq(&env));
        assert!(!env.leq(&bot));
        let j = bot.join(&env);
        assert!(!j.is_bottom());
        assert_eq!(j.len(), env.len());
    }

    #[test]
    fn setting_bottom_value_bottoms_env() {
        let (_, l) = small_layout();
        let env = AbsEnv::initial(&l);
        let out = with(&env, CellId(0), CellVal::Int(Clocked::BOTTOM));
        assert!(out.is_bottom());
        let _ = l;
    }

    #[test]
    fn overlay_applies_only_changed_cells() {
        let (_, l) = small_layout();
        let pre = AbsEnv::initial(&l);
        let iv = |n: i64, clock| CellVal::Int(Clocked::of_val(IntItv::singleton(n), clock));
        // Slice A changed cell 0; slice B changed cell 3 (and its tree path
        // copies may make cell 0 "visible" in the diff with an equal value).
        let post_a = with(&pre, CellId(0), iv(7, pre.clock));
        let post_b = with(&pre, CellId(3), iv(9, pre.clock));
        let mut merged = pre.clone();
        merged.overlay_changed(&pre, &post_a, &l);
        merged.overlay_changed(&pre, &post_b, &l);
        match merged.get(CellId(0), &l) {
            CellVal::Int(c) => assert_eq!(c.val, IntItv::singleton(7)),
            other => panic!("{other:?}"),
        }
        match merged.get(CellId(3), &l) {
            CellVal::Int(c) => assert_eq!(c.val, IntItv::singleton(9)),
            other => panic!("{other:?}"),
        }
        // A later slice that did not touch cell 0 must not revert it.
        assert_eq!(merged.count_diff(&pre), 2);
    }

    #[test]
    fn leq_is_false_across_shapes() {
        // Environments tracking different cells belong to different frames:
        // neither is below the other, whatever the common cells hold.
        let (_, l) = small_layout();
        let a = AbsEnv::initial(&l);
        let b = a.project(&[CellId(1), CellId(2), CellId(3), CellId(4)]);
        assert_eq!(b.len() + 1, a.len(), "b must track strictly fewer cells");
        assert!(!a.same_cells(&b));
        assert!(!a.leq(&b), "left-only cell");
        assert!(!b.leq(&a), "right-only cell");
        assert!(b.leq(&a.restrict_to(&b)) && a.restrict_to(&b).same_cells(&b));
        // And a genuine value violation on a common cell still fails.
        let wide = with(&a, CellId(0), CellVal::Int(Clocked::of_val(IntItv::new(0, 100), a.clock)));
        assert!(!wide.leq(&a));
    }

    #[test]
    fn overlay_writes_top_for_a_cell_the_post_state_dropped() {
        let (_, l) = small_layout();
        let full = AbsEnv::initial(&l);
        let pre = full.project(&[CellId(0), CellId(1)]);
        let post = with(
            &pre.project(&[CellId(0)]),
            CellId(0),
            CellVal::Int(Clocked::of_val(IntItv::singleton(4), pre.clock)),
        );
        let mut merged = full.clone();
        merged.overlay_changed(&pre, &post, &l);
        assert_eq!(merged.get(CellId(0), &l), post.get(CellId(0), &l));
        assert!(merged.get(CellId(1), &l).same(&CellVal::top_of(l.info(CellId(1)).ty)));
        assert_eq!(merged.count_diff(&full), 2, "cells outside the projection are untouched");
    }

    #[test]
    fn merge_identity_is_preserved() {
        let (_, l) = small_layout();
        let base = AbsEnv::initial(&l);
        let grown =
            with(&base, CellId(0), CellVal::Int(Clocked::of_val(IntItv::new(0, 9), base.clock)));
        // A `reference` build takes no sharing shortcut: it keeps no identity.
        let shortcuts = !cfg!(feature = "reference");
        // Joining in an env that adds no information returns self's tree.
        let j = grown.join(&base);
        assert_eq!(j.ptr_eq(&grown), shortcuts, "no-op join must preserve identity");
        // Rewriting a cell to its current value is physically a no-op.
        let rewrite = with(&grown, CellId(0), grown.get(CellId(0), &l));
        assert_eq!(rewrite.ptr_eq(&grown), shortcuts, "no-op set must preserve identity");
        // A narrow that changes nothing also preserves identity.
        let n = grown.narrow(&grown.clone());
        assert_eq!(n.ptr_eq(&grown), shortcuts);
    }

    #[test]
    fn same_is_bitwise_on_floats() {
        let pos = CellVal::Float(FloatItv::new(0.0, 1.0));
        let neg = CellVal::Float(FloatItv::new(-0.0, 1.0));
        assert!(pos.same(&pos));
        assert!(!pos.same(&neg), "-0.0 and 0.0 must not be identified");
        assert_eq!(pos, neg, "PartialEq is coarser — that is the point");
    }

    #[test]
    fn changed_cells_matches_count_diff() {
        let (_, l) = small_layout();
        let env = AbsEnv::initial(&l);
        let changed =
            with(&env, CellId(2), CellVal::Int(Clocked::of_val(IntItv::singleton(4), env.clock)));
        let mut cells = Vec::new();
        env.changed_cells(&changed, &mut cells);
        assert_eq!(cells, vec![CellId(2)]);
        assert_eq!(env.count_diff(&changed), 1);
        let _ = l;
    }

    #[test]
    fn count_diff_is_sparse() {
        let (_, l) = small_layout();
        let env = AbsEnv::initial(&l);
        let changed =
            with(&env, CellId(0), CellVal::Int(Clocked::of_val(IntItv::singleton(9), env.clock)));
        assert_eq!(env.count_diff(&changed), 1);
        assert_eq!(env.count_diff(&env), 0);
    }
}
