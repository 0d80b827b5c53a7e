//! The full abstract state: the interval/clocked environment in reduced
//! product with the relational pack domains (paper Sect. 6.1: "an abstract
//! value is … the reduction of the abstract values provided by each
//! different basic abstract domain").
//!
//! All relational components live in persistent maps keyed by pack index,
//! so cloning a state is O(1) and binary operations skip physically shared
//! packs — the paper's "sub-linear time costs via sharing of unmodified
//! octagons" (Sect. 7.2.1).

use crate::frames::Frame;
use crate::packs::{CellIndex, Packs};
use astree_domains::dtree::Lattice;
use astree_domains::{Clocked, DecisionTree, Ellipsoid, FloatItv, IntItv, Octagon, Widening};
use astree_memory::{AbsEnv, CellId, CellLayout, CellVal};
use astree_obs::Grown;
use astree_pmap::{MergeOutcome, PMap};
use std::borrow::Cow;
use std::fmt;

/// The numeric sub-environment stored at decision-tree leaves: the values of
/// the pack's numeric cells in one boolean context.
#[derive(Debug, Clone, PartialEq)]
pub struct PackEnv {
    /// `(cell, value)` pairs, ordered by cell; all leaves of one tree carry
    /// the same cells.
    pub cells: Vec<(CellId, CellVal)>,
    /// `true` when this boolean context is unreachable.
    pub unreachable: bool,
}

impl PackEnv {
    /// Builds a leaf from the current environment for the given cells.
    pub fn from_env(env: &AbsEnv, layout: &CellLayout, cells: &[CellId]) -> PackEnv {
        PackEnv {
            cells: cells.iter().map(|c| (*c, env.read(*c, layout))).collect(),
            unreachable: env.is_bottom(),
        }
    }

    /// The value of a cell in this context (None if not a member).
    pub fn get(&self, cell: CellId) -> Option<CellVal> {
        self.cells.iter().find(|(c, _)| *c == cell).map(|(_, v)| *v)
    }

    /// Replaces the value of a member cell.
    #[must_use]
    pub fn set(&self, cell: CellId, val: CellVal) -> PackEnv {
        let mut out = self.clone();
        for (c, v) in &mut out.cells {
            if *c == cell {
                *v = val;
            }
        }
        if val.is_bottom() {
            out.unreachable = true;
        }
        out
    }
}

impl Lattice for PackEnv {
    fn join(&self, other: &Self) -> Self {
        if self.unreachable {
            return other.clone();
        }
        if other.unreachable {
            return self.clone();
        }
        PackEnv {
            cells: self
                .cells
                .iter()
                .zip(&other.cells)
                .map(|((c, a), (_, b))| (*c, a.join(b)))
                .collect(),
            unreachable: false,
        }
    }

    fn widen(&self, other: &Self, w: &Widening) -> Self {
        if self.unreachable {
            return other.clone();
        }
        if other.unreachable {
            return self.clone();
        }
        PackEnv {
            cells: self
                .cells
                .iter()
                .zip(&other.cells)
                .map(|((c, a), (_, b))| (*c, a.widen(b, w)))
                .collect(),
            unreachable: false,
        }
    }

    fn leq(&self, other: &Self) -> bool {
        if self.unreachable {
            return true;
        }
        if other.unreachable {
            return false;
        }
        self.cells.iter().zip(&other.cells).all(|((_, a), (_, b))| a.leq(b))
    }

    fn bottom() -> Self {
        PackEnv { cells: Vec::new(), unreachable: true }
    }

    fn is_bottom(&self) -> bool {
        self.unreachable || self.cells.iter().any(|(_, v)| v.is_bottom())
    }
}

impl PackEnv {
    /// Bitwise identity (cell values compared via [`CellVal::same`], so
    /// `-0.0`/`0.0` stay distinct) — see [`dtree_same`].
    fn same(&self, other: &PackEnv) -> bool {
        self.unreachable == other.unreachable
            && self.cells.len() == other.cells.len()
            && self
                .cells
                .iter()
                .zip(&other.cells)
                .all(|((ca, va), (cb, vb))| ca == cb && va.same(vb))
    }
}

/// One decision tree, as stored per pack.
pub type DTree = DecisionTree<CellId, PackEnv>;

/// Bitwise identity of two decision trees: identical branching structure
/// and bitwise-identical leaves. The derived `PartialEq` is too coarse for
/// identity decisions (it identifies `-0.0` with `0.0` in leaf values).
fn dtree_same(a: &DTree, b: &DTree) -> bool {
    match (a, b) {
        (DecisionTree::Leaf(x), DecisionTree::Leaf(y)) => x.same(y),
        (
            DecisionTree::Node { var: va, f: fa, t: ta },
            DecisionTree::Node { var: vb, f: fb, t: tb },
        ) => va == vb && dtree_same(fa, fb) && dtree_same(ta, tb),
        _ => false,
    }
}

/// Wraps a binary pack operation into an identity-classifying combiner for
/// [`PMap::union_outcome`]. Bitwise-equal operands short-circuit to `Left`
/// *before* `op` runs, which is what keeps the sharing and no-sharing modes
/// bit-identical: a physically shared pack skips the combiner entirely, so
/// the non-shared path must yield the left operand for bitwise-equal inputs
/// even when `op` itself is not bitwise-idempotent (e.g. `join_ref` closing
/// a dirty octagon).
fn merged<V: Clone>(
    a: &V,
    b: &V,
    same: impl Fn(&V, &V) -> bool,
    op: impl FnOnce(&V, &V) -> V,
) -> MergeOutcome<V> {
    if same(a, b) {
        return MergeOutcome::Left;
    }
    let v = op(a, b);
    if same(&v, a) {
        MergeOutcome::Left
    } else if same(&v, b) {
        MergeOutcome::Right
    } else {
        MergeOutcome::New(v)
    }
}

/// Bitwise identity for the `f64` pack maps (ellipsoid bounds, pending δ).
fn f64_same(a: &f64, b: &f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// The complete abstract state.
#[derive(Debug, Clone)]
pub struct AbsState {
    /// The non-relational environment (intervals + clocked).
    pub env: AbsEnv,
    /// Octagons by pack index (persistent, shared).
    octs: PMap<u32, Octagon>,
    /// Decision trees by pack index.
    dtrees: PMap<u32, DTree>,
    /// Ellipsoid constraint bounds `k` by pack index (∞ = ⊤).
    ellipses: PMap<u32, f64>,
    /// Pending `δ(k)` values, computed at a filter group's first statement
    /// and committed at its last.
    pending: PMap<u32, f64>,
}

/// A non-NaN float ordered wrapper is unnecessary — `f64` values stored in
/// the maps are never NaN (δ and reductions keep them in `[0, +∞]`).
impl AbsState {
    /// The initial state: zeroed environment, unconstrained packs.
    pub fn initial(layout: &CellLayout, packs: &Packs) -> AbsState {
        let env = AbsEnv::initial(layout);
        AbsState {
            octs: packs
                .octagons
                .iter()
                .enumerate()
                .map(|(i, _)| (i as u32, top_oct(packs, i)))
                .collect(),
            dtrees: packs
                .dtrees
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    (i as u32, DecisionTree::leaf(PackEnv::from_env(&env, layout, &p.nums)))
                })
                .collect(),
            ellipses: (0..packs.ellipses.len()).map(|i| (i as u32, f64::INFINITY)).collect(),
            pending: (0..packs.ellipses.len()).map(|i| (i as u32, f64::INFINITY)).collect(),
            env,
        }
    }

    /// A reachable state holding exactly the given cells and packs (the
    /// cache decoder's constructor; filters come as `(pack, k, pending δ)`).
    pub(crate) fn from_parts(
        clock: IntItv,
        cells: Vec<(CellId, CellVal)>,
        octs: Vec<(usize, Octagon)>,
        dtrees: Vec<(usize, DTree)>,
        ells: Vec<(usize, f64, f64)>,
    ) -> AbsState {
        AbsState {
            env: AbsEnv::from_cells(clock, cells),
            octs: octs.into_iter().map(|(pi, o)| (pi as u32, o)).collect(),
            dtrees: dtrees.into_iter().map(|(pi, t)| (pi as u32, t)).collect(),
            ellipses: ells.iter().map(|(pi, k, _)| (*pi as u32, *k)).collect(),
            pending: ells.iter().map(|(pi, _, d)| (*pi as u32, *d)).collect(),
        }
    }

    /// The unreachable state. It holds no pack, so keeping one (a function's
    /// accumulated return state, a loop's exits) never makes a live state's
    /// pack trees shared.
    pub fn bottom() -> AbsState {
        AbsState {
            env: AbsEnv::bottom(),
            octs: PMap::new(),
            dtrees: PMap::new(),
            ellipses: PMap::new(),
            pending: PMap::new(),
        }
    }

    /// `true` when no execution reaches this point.
    pub fn is_bottom(&self) -> bool {
        self.env.is_bottom()
    }

    /// Cells and packs held, by map: equal sizes are what the binary
    /// operations can afford to check of "same shape" on every call.
    fn sizes(&self) -> [usize; 4] {
        [self.env.len(), self.octs.len(), self.dtrees.len(), self.ellipses.len()]
    }

    /// `true` when both states track the same cells and hold the same packs
    /// — the states of one frame, or two whole-program states. States of
    /// different shape are never compared, joined or widened with each
    /// other (⊥, which holds nothing, excepted).
    pub fn same_shape(&self, other: &AbsState) -> bool {
        self.env.same_cells(&other.env)
            && self.octs.same_keys(&other.octs)
            && self.dtrees.same_keys(&other.dtrees)
            && self.ellipses.same_keys(&other.ellipses)
    }

    /// The state restricted to a frame: the frame's cells and packs with
    /// the values they have here, and the clock.
    #[must_use]
    pub(crate) fn project(&self, frame: &Frame) -> AbsState {
        if self.is_bottom() {
            return AbsState::bottom();
        }
        AbsState {
            env: self.env.project(&frame.cells),
            octs: self.octs.pick(&frame.octs),
            dtrees: self.dtrees.pick(&frame.dtrees),
            ellipses: self.ellipses.pick(&frame.ells),
            pending: self.pending.pick(&frame.ells),
        }
    }

    /// Writes a framed call's result back: `pre` is the projection of this
    /// state the callee ran on, `post` what it returned. Cells and packs
    /// whose value is not bitwise the one in `pre` are written in place,
    /// everything else — the whole state outside the frame included — is
    /// left as it is; the clock is `post`'s; ⊥ propagates. A key of `pre`
    /// that `post` no longer holds reads as ⊤ there and is written as ⊤, and
    /// a key only `post` holds is written too, so the write-back is sound
    /// even for a frame that missed something the callee touched.
    pub(crate) fn absorb(
        &mut self,
        pre: &AbsState,
        post: &AbsState,
        layout: &CellLayout,
        packs: &Packs,
    ) {
        if post.is_bottom() {
            *self = AbsState::bottom();
            return;
        }
        self.env.overlay_changed(&pre.env, &post.env, layout);
        self.octs.overlay(&pre.octs, &post.octs, Octagon::same, |pi| top_oct(packs, *pi as usize));
        self.dtrees.overlay(&pre.dtrees, &post.dtrees, dtree_same, |pi| {
            top_dtree(layout, packs, *pi as usize)
        });
        self.ellipses.overlay(&pre.ellipses, &post.ellipses, f64_same, |_| f64::INFINITY);
        self.pending.overlay(&pre.pending, &post.pending, f64_same, |_| f64::INFINITY);
    }

    /// Join of two arrivals at one program point that may belong to
    /// different frames (a helper's statement is reached from every call
    /// site): an absent key reads as ⊤, so a value only one side tracks
    /// claims nothing and only the keys both sides hold survive.
    #[must_use]
    pub(crate) fn join_arrivals(
        &self,
        other: &AbsState,
        layout: &CellLayout,
        packs: &Packs,
    ) -> AbsState {
        if self.is_bottom() || other.is_bottom() || self.same_shape(other) {
            return self.join(other, layout, packs);
        }
        self.restrict_to(other).join(&other.restrict_to(self), layout, packs)
    }

    /// The state restricted to the keys `other` holds too.
    pub(crate) fn restrict_to(&self, other: &AbsState) -> AbsState {
        fn common<V: Clone>(map: &PMap<u32, V>, other: &PMap<u32, V>) -> PMap<u32, V> {
            map.filter_map(|k, v| other.contains_key(k).then(|| v.clone()))
        }
        AbsState {
            env: self.env.restrict_to(&other.env),
            octs: common(&self.octs, &other.octs),
            dtrees: common(&self.dtrees, &other.dtrees),
            ellipses: common(&self.ellipses, &other.ellipses),
            pending: common(&self.pending, &other.ellipses),
        }
    }

    /// The octagon of pack `pi`. Like [`AbsEnv::read`], reading a pack a
    /// reachable state does not hold is a frame that under-approximates:
    /// debug builds stop, release builds read ⊤.
    pub fn oct(&self, pi: usize, packs: &Packs) -> Cow<'_, Octagon> {
        match self.octs.get(&(pi as u32)) {
            Some(o) => Cow::Borrowed(o),
            None => {
                debug_assert!(self.is_bottom(), "read of absent octagon pack {pi}");
                Cow::Owned(top_oct(packs, pi))
            }
        }
    }

    /// Replaces the octagon of pack `pi`, in place where this state is the
    /// pack tree's only holder ([`PMap::set`]). Writing back a
    /// bitwise-identical octagon (the common case after a reduction that
    /// improved nothing) keeps the pack tree physically unchanged.
    pub fn set_oct(&mut self, pi: usize, o: Octagon) {
        self.octs.set(pi as u32, o, Octagon::same);
    }

    /// The decision tree of pack `pi` (⊤ when absent, see [`AbsState::oct`]).
    pub fn dtree(&self, pi: usize, layout: &CellLayout, packs: &Packs) -> Cow<'_, DTree> {
        match self.dtrees.get(&(pi as u32)) {
            Some(t) => Cow::Borrowed(t),
            None => {
                debug_assert!(self.is_bottom(), "read of absent decision-tree pack {pi}");
                Cow::Owned(top_dtree(layout, packs, pi))
            }
        }
    }

    /// Replaces the decision tree of pack `pi` (no-op writes preserved).
    pub fn set_dtree(&mut self, pi: usize, t: DTree) {
        self.dtrees.set(pi as u32, t, dtree_same);
    }

    /// The ellipsoid bound of pack `pi` (`+∞` when absent, see
    /// [`AbsState::oct`]).
    pub fn ell(&self, pi: usize) -> f64 {
        let k = self.ellipses.get(&(pi as u32));
        debug_assert!(k.is_some() || self.is_bottom(), "read of absent filter pack {pi}");
        k.copied().unwrap_or(f64::INFINITY)
    }

    /// Replaces the ellipsoid bound of pack `pi` (no-op writes preserved).
    pub fn set_ell(&mut self, pi: usize, k: f64) {
        self.ellipses.set(pi as u32, k, f64_same);
    }

    /// The pending `δ(k)` of pack `pi` (`+∞` when absent, see
    /// [`AbsState::oct`]).
    pub fn pending(&self, pi: usize) -> f64 {
        let k = self.pending.get(&(pi as u32));
        debug_assert!(k.is_some() || self.is_bottom(), "read of absent filter pack {pi}");
        k.copied().unwrap_or(f64::INFINITY)
    }

    /// Replaces the pending `δ(k)` of pack `pi` (no-op writes preserved).
    pub fn set_pending(&mut self, pi: usize, k: f64) {
        self.pending.set(pi as u32, k, f64_same);
    }

    /// Iterates over octagons.
    pub fn octs_iter(&self) -> impl Iterator<Item = (usize, &Octagon)> {
        self.octs.iter().map(|(k, v)| (*k as usize, v))
    }

    /// Iterates over decision trees.
    pub fn dtrees_iter(&self) -> impl Iterator<Item = (usize, &DTree)> {
        self.dtrees.iter().map(|(k, v)| (*k as usize, v))
    }

    /// Iterates over ellipse bounds.
    pub fn ellipses_iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.ellipses.iter().map(|(k, v)| (*k as usize, *v))
    }

    /// The join of `states`, left to right (⊥ for none).
    pub fn join_all(states: Vec<AbsState>, layout: &CellLayout, packs: &Packs) -> AbsState {
        states.into_iter().fold(AbsState::bottom(), |j, s| j.join(&s, layout, packs))
    }

    /// Abstract union `⊔`, with the pre-join ellipsoid reduction of
    /// Sect. 6.2.3 ("before computing the union … we reduce each constraint
    /// rᵢ = +∞ such that r₃₋ᵢ ≠ +∞"). Physically shared packs are skipped.
    #[must_use]
    pub fn join(&self, other: &AbsState, layout: &CellLayout, packs: &Packs) -> AbsState {
        if self.is_bottom() {
            return other.clone();
        }
        if other.is_bottom() {
            return self.clone();
        }
        debug_assert_eq!(self.sizes(), other.sizes(), "join across shapes");
        let ellipses = self.ellipses.union_outcome(&other.ellipses, |k, a, b| {
            merged(a, b, f64_same, |a, b| {
                let pi = *k as usize;
                let a = reduce_if_infinite(*a, *b, pi, &self.env, layout, packs);
                let b = reduce_if_infinite(*b, a, pi, &other.env, layout, packs);
                astree_float::max_total(a, b)
            })
        });
        AbsState {
            env: self.env.join(&other.env),
            octs: self.octs.union_outcome(&other.octs, |_, a, b| {
                merged(a, b, Octagon::same, Octagon::join_ref)
            }),
            dtrees: self
                .dtrees
                .union_outcome(&other.dtrees, |_, a, b| merged(a, b, dtree_same, DTree::join)),
            ellipses,
            pending: self.pending.union_outcome(&other.pending, |_, a, b| {
                merged(a, b, f64_same, |a, b| astree_float::max_total(*a, *b))
            }),
        }
    }

    /// Widening `∇` (with the same pre-widening ellipsoid reduction). The
    /// environment widens first; the decision-tree leaves then widen at its
    /// widened clock, and each octagon over the widened intervals of its
    /// integer cells, so that every bound the clock bounds jumps to it
    /// ([`astree_domains::widening`]).
    #[must_use]
    pub fn widen(
        &self,
        other: &AbsState,
        layout: &CellLayout,
        packs: &Packs,
        w: &Widening,
    ) -> AbsState {
        if self.is_bottom() {
            return other.clone();
        }
        if other.is_bottom() {
            return self.clone();
        }
        debug_assert_eq!(self.sizes(), other.sizes(), "widening across shapes");
        let t = w.thresholds();
        let ellipses = self.ellipses.union_outcome(&other.ellipses, |k, a, b| {
            merged(a, b, f64_same, |a, b| {
                let pi = *k as usize;
                let b = reduce_if_infinite(*b, *a, pi, &other.env, layout, packs);
                let p = &packs.ellipses[pi];
                Ellipsoid { a: p.a, b: p.b, k: *a }.widen(Ellipsoid { a: p.a, b: p.b, k: b }, t).k
            })
        });
        let env = self.env.widen(&other.env, w);
        let w = w.at_clock(env.clock);
        let octs = self.octs.union_outcome(&other.octs, |k, a, b| {
            merged(a, b, Octagon::same, |a, b| {
                let vars: Vec<IntItv> = packs.octagons[*k as usize]
                    .cells
                    .iter()
                    .map(|c| match env.get(*c, layout) {
                        CellVal::Int(v) => v.val,
                        CellVal::Float(_) => IntItv::TOP,
                    })
                    .collect();
                a.widen_ref(b, w.over(&vars))
            })
        });
        AbsState {
            octs,
            dtrees: self.dtrees.union_outcome(&other.dtrees, |_, a, b| {
                merged(a, b, dtree_same, |a, b| a.widen(b, &w))
            }),
            env,
            ellipses,
            pending: self.pending.union_outcome(&other.pending, |_, a, b| {
                merged(a, b, f64_same, |a, b| astree_float::max_total(*a, *b))
            }),
        }
    }

    /// Narrowing `Δ` (refines unbounded components; relational packs keep
    /// their stabilized values).
    #[must_use]
    pub fn narrow(&self, other: &AbsState) -> AbsState {
        if self.is_bottom() || other.is_bottom() {
            return AbsState::bottom();
        }
        AbsState {
            env: self.env.narrow(&other.env),
            octs: self.octs.clone(),
            dtrees: self.dtrees.clone(),
            ellipses: self.ellipses.union_outcome(&other.ellipses, |_, a, b| {
                merged(a, b, f64_same, |a, b| if a.is_infinite() { *b } else { *a })
            }),
            pending: self.pending.clone(),
        }
    }

    /// Bitwise equality of every component ([`AbsEnv::same`], and the packs'
    /// own `same`); physically shared subtrees are equal unwalked, so the
    /// answer never depends on sharing.
    pub fn same(&self, other: &AbsState) -> bool {
        fn same_map<V>(a: &PMap<u32, V>, b: &PMap<u32, V>, same: fn(&V, &V) -> bool) -> bool {
            a.all2(b, |_, _| false, |_, _| false, |_, x, y| same(x, y))
        }
        self.env.same(&other.env)
            && same_map(&self.octs, &other.octs, Octagon::same)
            && same_map(&self.dtrees, &other.dtrees, dtree_same)
            && same_map(&self.ellipses, &other.ellipses, f64_same)
            && same_map(&self.pending, &other.pending, f64_same)
    }

    /// `true` when [`AbsState::narrow`] could move this state: it is ⊥
    /// (narrowing answers the canonical ⊥), its environment holds an
    /// infinite bound ([`AbsEnv::narrowable`]), or an ellipse coefficient is
    /// infinite. Narrowing keeps every other component, so once this is
    /// `false` a narrowing pass reproduces the state bit for bit.
    pub fn narrowable(&self) -> bool {
        self.is_bottom() || self.env.narrowable() || self.ellipses.values().any(|k| k.is_infinite())
    }

    /// `true` when every component of the two states is the same physical
    /// tree — constant time, `true` implies semantic equality. Tests use it
    /// to tell a state handed on from a copy; [`AbsState::leq`] already
    /// takes the same shortcut on each map's root.
    pub fn ptr_eq(&self, other: &AbsState) -> bool {
        self.env.ptr_eq(&other.env)
            && self.octs.ptr_eq(&other.octs)
            && self.dtrees.ptr_eq(&other.dtrees)
            && self.ellipses.ptr_eq(&other.ellipses)
            && self.pending.ptr_eq(&other.pending)
    }

    /// Inclusion `⊑`, between states of the same shape only: a cell or pack
    /// one side alone holds answers `false` (see [`AbsEnv::leq`]), so a
    /// post-fixpoint test that ever met a state of another frame would fail
    /// and the loop would be solved in context.
    pub fn leq(&self, other: &AbsState) -> bool {
        if self.is_bottom() {
            return true;
        }
        if other.is_bottom() {
            return false;
        }
        self.env.leq(&other.env)
            && self.octs.all2(&other.octs, |_, _| false, |_, _| false, |_, a, b| a.leq_ref(b))
            && self.dtrees.all2(&other.dtrees, |_, _| false, |_, _| false, |_, a, b| a.leq(b))
            && self.ellipses.all2(&other.ellipses, |_, _| false, |_, _| false, |_, a, b| a <= b)
    }

    /// The components of this state not below `inv`'s, by domain: what
    /// keeps `self ⊑ inv` from holding (`self` an iterate `F(inv)`).
    pub fn grown(&self, inv: &AbsState) -> Grown {
        fn count<V>(a: &PMap<u32, V>, b: &PMap<u32, V>, leq: impl Fn(&V, &V) -> bool) -> u64 {
            a.fold2(b, 0, |n, _, x, y| match (x, y) {
                (Some(x), Some(y)) => n + u64::from(!leq(x, y)),
                _ => n + 1,
            })
        }
        Grown {
            cells: self.env.count_not_leq(&inv.env) as u64,
            octagons: count(&self.octs, &inv.octs, Octagon::leq_ref),
            dtrees: count(&self.dtrees, &inv.dtrees, DTree::leq),
            filters: count(&self.ellipses, &inv.ellipses, |a, b| a <= b),
        }
    }

    /// Bidirectional reduction between the environment and every relational
    /// pack (used at loop heads). Returns the cells improved.
    pub fn reduce(&mut self, layout: &CellLayout, packs: &Packs) -> usize {
        self.reduce_counting(layout, packs, None)
    }

    /// Full reduction with per-octagon usefulness credit (Sect. 7.2.2).
    pub fn reduce_counting(
        &mut self,
        layout: &CellLayout,
        packs: &Packs,
        oct_counts: Option<&mut [usize]>,
    ) -> usize {
        let octs: Vec<usize> = (0..packs.octagons.len()).collect();
        let dts: Vec<usize> = (0..packs.dtrees.len()).collect();
        let ells: Vec<usize> = (0..packs.ellipses.len()).collect();
        self.reduce_packs(layout, packs, &octs, &dts, &ells, oct_counts)
    }

    /// Localized reduction: only the packs containing one of `cells`
    /// (used after guards/assignments so cost stays proportional to the
    /// statement's footprint).
    pub fn reduce_local(
        &mut self,
        layout: &CellLayout,
        packs: &Packs,
        cells: &[CellId],
        oct_counts: Option<&mut [usize]>,
    ) -> usize {
        // The packs indexed by `cells`, ascending and without repeats.
        let ids = |index: &CellIndex| {
            let mut ids: Vec<usize> = cells.iter().flat_map(|c| index.get(*c)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let (octs, dts, ells) =
            (ids(&packs.oct_index), ids(&packs.dtree_index), ids(&packs.ellipse_index));
        self.reduce_packs(layout, packs, &octs, &dts, &ells, oct_counts)
    }

    fn reduce_packs(
        &mut self,
        layout: &CellLayout,
        packs: &Packs,
        oct_ids: &[usize],
        dtree_ids: &[usize],
        ell_ids: &[usize],
        mut oct_counts: Option<&mut [usize]>,
    ) -> usize {
        if self.is_bottom() {
            return 0;
        }
        let mut improved = 0;
        // env → octagons, then octagons → env.
        for &pi in oct_ids {
            let pack = &packs.octagons[pi];
            let mut oct = self.oct(pi, packs).into_owned();
            for (slot, cell) in pack.cells.iter().enumerate() {
                let itv = float_view(self.env.read(*cell, layout));
                if !itv.is_bottom() {
                    oct.refine_with_interval(slot, itv);
                }
            }
            oct.close();
            if oct.is_bottom() {
                self.env.set_bottom();
                return improved;
            }
            for (slot, cell) in pack.cells.iter().enumerate() {
                let bounds = oct.bounds(slot);
                if meet_cell_with_float(&mut self.env, layout, *cell, bounds) {
                    improved += 1;
                    if let Some(counts) = oct_counts.as_deref_mut() {
                        counts[pi] += 1;
                    }
                }
                if self.env.is_bottom() {
                    return improved;
                }
            }
            self.set_oct(pi, oct);
        }
        // dtrees → env (collapse) and env → dtrees (context meet).
        for &pi in dtree_ids {
            let tree = self.dtree(pi, layout, packs).into_owned();
            if tree.is_bottom() {
                self.env.set_bottom();
                return improved;
            }
            let collapsed = tree.collapse();
            for (cell, val) in &collapsed.cells {
                let old = self.env.read(*cell, layout);
                let m = old.meet(val);
                if m.is_bottom() {
                    self.env.set_bottom();
                    return improved;
                }
                if m != old {
                    improved += 1;
                    self.env.set(*cell, m);
                }
            }
            let env = &self.env;
            let refined = tree.map(&|leaf: &PackEnv| {
                let mut out = leaf.clone();
                for (c, v) in &mut out.cells {
                    let ev = env.read(*c, layout);
                    let m = v.meet(&ev);
                    if m.is_bottom() {
                        out.unreachable = true;
                    }
                    *v = m;
                }
                out
            });
            self.set_dtree(pi, refined);
        }
        // ellipses ↔ env.
        for &pi in ell_ids {
            let pack = &packs.ellipses[pi];
            let k = self.ell(pi);
            let ell = Ellipsoid { a: pack.a, b: pack.b, k };
            let x = float_view(self.env.read(pack.x, layout));
            let y = float_view(self.env.read(pack.y, layout));
            let reduced = ell.reduce_from_box(x, y);
            self.set_ell(pi, reduced.k);
            let xb = reduced.x_bound();
            let yb = reduced.y_bound();
            if xb.is_finite()
                && meet_cell_with_float(&mut self.env, layout, pack.x, FloatItv::new(-xb, xb))
            {
                improved += 1;
            }
            if yb.is_finite()
                && meet_cell_with_float(&mut self.env, layout, pack.y, FloatItv::new(-yb, yb))
            {
                improved += 1;
            }
            if self.env.is_bottom() {
                return improved;
            }
        }
        improved
    }

    /// Deterministic overlay of one parallel slice's effects (Monniaux's
    /// ordered merge): applies onto `self` everything `post` changed
    /// relative to the shared `pre` state the slice ran from.
    ///
    /// - environment cells are overlaid when their value differs from `pre`,
    ///   plus every cell in `eff.must_writes` (a slice may rewrite a cell to
    ///   a value equal to its pre value; the write must still shadow earlier
    ///   slices, exactly as the later statement would sequentially);
    /// - relational packs are copied wholesale for every pack in
    ///   `eff.packs_write` (the planner guarantees that two slices write the
    ///   same pack only when the later one rewrites it from scratch).
    pub(crate) fn overlay_from(
        &mut self,
        pre: &AbsState,
        post: &AbsState,
        eff: &crate::parallel::SliceEffects,
        layout: &CellLayout,
        packs: &Packs,
    ) {
        self.env.overlay_changed(&pre.env, &post.env, layout);
        for &c in &eff.must_writes {
            self.env.set(c, post.env.read(c, layout));
        }
        for &key in &eff.packs_write {
            match key {
                crate::parallel::PackKey::Oct(pi) => {
                    self.set_oct(pi, post.oct(pi, packs).into_owned())
                }
                crate::parallel::PackKey::Dtree(pi) => {
                    self.set_dtree(pi, post.dtree(pi, layout, packs).into_owned())
                }
                crate::parallel::PackKey::Ell(pi) => {
                    self.set_ell(pi, post.ell(pi));
                    self.set_pending(pi, post.pending(pi));
                }
            }
        }
    }

    /// Clock-tick transfer for the relational components: decision-tree
    /// leaves store clocked integer values whose `x − clock` / `x + clock`
    /// bounds must shift with the hidden clock exactly like the
    /// environment's (otherwise later reductions would meet stale bounds —
    /// unsound).
    pub fn tick_relational(&mut self) {
        // The environment has ticked: its clock is the new one.
        let clock = self.env.clock;
        self.dtrees.set_each(|_, tree| {
            let ticked = tree.map(&|leaf: &PackEnv| {
                let mut out = leaf.clone();
                for (_, v) in &mut out.cells {
                    if let CellVal::Int(c) = v {
                        let ticked = c.tick(clock);
                        out.unreachable |= ticked.is_bottom();
                        *v = CellVal::Int(ticked);
                    }
                }
                out
            });
            (!dtree_same(&ticked, tree)).then_some(ticked)
        });
    }

    /// Drops relational information about a cell (after a weak or imprecise
    /// update).
    pub fn forget_cell(&mut self, cell: CellId, layout: &CellLayout, packs: &Packs) {
        for pi in packs.oct_index.get(cell) {
            if let Some(slot) = packs.oct_slot(pi, cell) {
                let mut o = self.oct(pi, packs).into_owned();
                o.forget(slot);
                self.set_oct(pi, o);
            }
        }
        self.forget_cell_trees_and_filters(cell, layout, packs);
    }

    /// [`AbsState::forget_cell`] for everything but the octagons: the
    /// decision trees and filters that hold `cell`.
    pub(crate) fn forget_cell_trees_and_filters(
        &mut self,
        cell: CellId,
        layout: &CellLayout,
        packs: &Packs,
    ) {
        for pi in packs.dtree_index.get(cell) {
            let pack = &packs.dtrees[pi];
            let tree = self.dtree(pi, layout, packs);
            let new = if pack.bools.contains(&cell) {
                tree.forget(cell)
            } else {
                tree.map(&|leaf: &PackEnv| match leaf.get(cell) {
                    Some(CellVal::Int(_)) => leaf.set(cell, CellVal::Int(Clocked::TOP)),
                    Some(CellVal::Float(_)) => leaf
                        .set(cell, CellVal::Float(FloatItv::new(f64::NEG_INFINITY, f64::INFINITY))),
                    None => leaf.clone(),
                })
            };
            self.set_dtree(pi, new);
        }
        for pi in packs.ellipse_index.get(cell) {
            self.set_ell(pi, f64::INFINITY);
        }
    }
}

/// The unconstrained octagon of pack `pi`.
fn top_oct(packs: &Packs, pi: usize) -> Octagon {
    Octagon::top(packs.octagons[pi].cells.len())
}

/// The unconstrained decision tree of pack `pi`: one reachable context in
/// which every numeric member is ⊤.
fn top_dtree(layout: &CellLayout, packs: &Packs, pi: usize) -> DTree {
    let cells =
        packs.dtrees[pi].nums.iter().map(|c| (*c, CellVal::top_of(layout.info(*c).ty))).collect();
    DecisionTree::leaf(PackEnv { cells, unreachable: false })
}

/// Pre-join/widen reduction: replace an `∞` constraint by the box bound when
/// the other side is finite, so a reinitialization branch does not wipe the
/// filter invariant.
fn reduce_if_infinite(
    k: f64,
    other_k: f64,
    pi: usize,
    env: &AbsEnv,
    layout: &CellLayout,
    packs: &Packs,
) -> f64 {
    if !k.is_infinite() || !other_k.is_finite() || env.is_bottom() {
        return k;
    }
    let pack = &packs.ellipses[pi];
    let x = float_view(env.read(pack.x, layout));
    let y = float_view(env.read(pack.y, layout));
    Ellipsoid { a: pack.a, b: pack.b, k: f64::INFINITY }.reduce_from_box(x, y).k
}

/// A cell value viewed as a float interval (for octagons/ellipses, which
/// work in the real field).
pub fn float_view(v: CellVal) -> FloatItv {
    match v {
        CellVal::Float(f) => f,
        CellVal::Int(c) => {
            if c.val.is_bottom() {
                FloatItv::BOTTOM
            } else {
                let lo = if c.val.lo == i64::MIN { f64::NEG_INFINITY } else { c.val.lo as f64 };
                let hi = if c.val.hi == i64::MAX { f64::INFINITY } else { c.val.hi as f64 };
                FloatItv::new(lo, hi)
            }
        }
    }
}

/// Meets a cell with a float interval (converting for int cells); returns
/// `true` when the environment actually improved.
pub fn meet_cell_with_float(
    env: &mut AbsEnv,
    layout: &CellLayout,
    cell: CellId,
    itv: FloatItv,
) -> bool {
    if itv.is_bottom() {
        env.set_bottom();
        return true;
    }
    let old = env.read(cell, layout);
    let new = match old {
        CellVal::Float(f) => CellVal::Float(f.meet(itv)),
        CellVal::Int(mut c) => {
            let lo = if itv.lo == f64::NEG_INFINITY { i64::MIN } else { itv.lo.ceil() as i64 };
            let hi = if itv.hi == f64::INFINITY { i64::MAX } else { itv.hi.floor() as i64 };
            c.val = c.val.meet(IntItv::new(lo, hi));
            CellVal::Int(c)
        }
    };
    if new.is_bottom() {
        env.set_bottom();
        return true;
    }
    if new != old {
        env.set(cell, new);
        true
    } else {
        false
    }
}

impl fmt::Display for AbsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            return write!(f, "⊥");
        }
        write!(f, "{}", self.env)?;
        writeln!(
            f,
            "  + {} octagons, {} dtrees, {} ellipses",
            self.octs.len(),
            self.dtrees.len(),
            self.ellipses.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use astree_frontend::Frontend;
    use astree_memory::LayoutConfig;

    fn setup(src: &str) -> (astree_ir::Program, CellLayout, Packs) {
        let p = Frontend::new().compile_str(src).expect("compiles");
        let l = CellLayout::new(&p, &LayoutConfig::default());
        let packs = Packs::discover(&p, &l, &AnalysisConfig::default());
        (p, l, packs)
    }

    #[test]
    fn initial_state_shape() {
        let (_, l, packs) =
            setup("int x; int y; void main(void) { x = y + 1; if (x < y) { x = 0; } }");
        let s = AbsState::initial(&l, &packs);
        assert!(!s.is_bottom());
        assert_eq!(s.octs.len(), packs.octagons.len());
    }

    #[test]
    fn join_with_bottom() {
        let (_, l, packs) = setup("int x; int y; void main(void) { x = y + 1; }");
        let s = AbsState::initial(&l, &packs);
        let b = AbsState::bottom();
        assert!(!b.join(&s, &l, &packs).is_bottom());
        assert!(!s.join(&b, &l, &packs).is_bottom());
    }

    #[test]
    fn clone_is_cheap_and_shared() {
        let (_, l, packs) =
            setup("int x; int y; void main(void) { x = y + 1; if (x < y) { x = 0; } }");
        let s = AbsState::initial(&l, &packs);
        let t = s.clone();
        // Physically shared: a join must shortcut.
        assert!(s.octs.ptr_eq(&t.octs));
    }

    #[test]
    fn reduce_octagon_refines_env() {
        let (_, l, packs) =
            setup("int x; int y; void main(void) { x = y + 1; if (x < y) { x = 0; } }");
        let mut s = AbsState::initial(&l, &packs);
        let xc = l.scalar_cell(astree_ir::VarId(0));
        let slot_x = packs.oct_slot(0, xc).expect("x in pack");
        let pack = &packs.octagons[0];
        let slot_y = (0..pack.cells.len()).find(|i| *i != slot_x).expect("y slot");
        let mut oct = s.oct(0, &packs).into_owned();
        oct.add_diff_le(slot_x, slot_y, -3.0);
        oct.add_upper(slot_y, 10.0);
        s.set_oct(0, oct);
        s.env = AbsEnv::top(&l);
        let improved = s.reduce(&l, &packs);
        assert!(improved > 0);
        let x_after = float_view(s.env.read(xc, &l));
        assert!(x_after.hi <= 7.0 + 1e-9, "x ≤ y − 3 ≤ 7 expected, got {x_after}");
    }

    #[test]
    fn local_reduce_touches_only_relevant_packs() {
        let (_, l, packs) = setup(
            "int a; int b; int c; int d;
             void main(void) {
                 a = b + 1;
                 if (a < b) { c = d + 2; if (c < d) { a = 0; } }
             }",
        );
        assert!(packs.octagons.len() >= 2);
        let mut s = AbsState::initial(&l, &packs);
        s.env = AbsEnv::top(&l);
        let ac = l.scalar_cell(astree_ir::VarId(0));
        // Constrain both packs' octagons, then reduce only around `a`.
        for pi in 0..packs.octagons.len() {
            let mut o = s.oct(pi, &packs).into_owned();
            o.add_upper(0, 5.0);
            s.set_oct(pi, o);
        }
        let improved = s.reduce_local(&l, &packs, &[ac], None);
        assert!(improved >= 1);
        // The pack not containing `a` was untouched: its cells stay ⊤.
        let dc = l.scalar_cell(astree_ir::VarId(3));
        let d_itv = float_view(s.env.read(dc, &l));
        assert_eq!(d_itv.hi, f64::INFINITY);
    }

    #[test]
    fn absorb_writes_back_the_difference_and_top_for_dropped_keys() {
        let (_, l, packs) = setup(
            "int a; int b; int c; int d;
             void main(void) {
                 a = b + 1;
                 if (a < b) { c = d + 2; if (c < d) { a = 0; } }
             }",
        );
        assert!(packs.octagons.len() >= 2);
        let cell = |v| l.scalar_cell(astree_ir::VarId(v));
        let frame = Frame {
            cells: packs.octagons[0].cells.clone(),
            octs: vec![0],
            dtrees: vec![],
            ells: vec![],
        };
        let whole = AbsState::initial(&l, &packs);
        let pre = whole.project(&frame);
        assert_eq!((pre.env.len(), pre.octs.len()), (frame.cells.len(), 1));
        assert!(!pre.same_shape(&whole) && !pre.leq(&whole) && !whole.leq(&pre));

        // The callee moved one cell and one octagon: only those are written.
        let mut post = pre.clone();
        let five = CellVal::Int(Clocked::of_val(IntItv::singleton(5), post.env.clock));
        post.env.set(frame.cells[0], five);
        let mut oct = post.oct(0, &packs).into_owned();
        oct.add_upper(0, 5.0);
        post.set_oct(0, oct);
        let mut caller = whole.clone();
        caller.absorb(&pre, &post, &l, &packs);
        assert!(caller.same_shape(&whole));
        assert!(caller.env.read(frame.cells[0], &l).same(&five));
        assert_eq!(caller.env.count_diff(&whole.env), 1);
        assert!(caller.oct(0, &packs).same(&post.oct(0, &packs)));
        assert!(caller.oct(1, &packs).same(&whole.oct(1, &packs)));

        // A post-state that no longer holds a frame key reads ⊤ there.
        let dropped = post.project(&Frame { cells: frame.cells[1..].to_vec(), ..Frame::default() });
        let mut caller = whole.clone();
        caller.absorb(&pre, &dropped, &l, &packs);
        let top = CellVal::top_of(l.info(frame.cells[0]).ty);
        assert!(caller.env.read(frame.cells[0], &l).same(&top));
        assert!(caller.oct(0, &packs).same(&Octagon::top(packs.octagons[0].cells.len())));
        assert!(caller.env.read(cell(3), &l).same(&whole.env.read(cell(3), &l)));

        // ⊥ propagates.
        let mut caller = whole.clone();
        caller.absorb(&pre, &AbsState::bottom(), &l, &packs);
        assert!(caller.is_bottom());
    }

    #[test]
    fn arrivals_from_different_frames_join_on_their_common_keys() {
        let (_, l, packs) = setup("int a; int b; int c; void main(void) { a = b + 1; c = a; }");
        let whole = AbsState::initial(&l, &packs);
        let cells: Vec<CellId> = l.iter().map(|(id, _)| id).collect();
        let left = whole.project(&Frame { cells: cells[..2].to_vec(), ..Frame::default() });
        let right = whole.project(&Frame { cells: cells[1..].to_vec(), ..Frame::default() });
        let joined = left.join_arrivals(&right, &l, &packs);
        assert_eq!(joined.env.iter().map(|(c, _)| *c).collect::<Vec<_>>(), vec![cells[1]]);
        assert!(whole.join_arrivals(&whole, &l, &packs).same_shape(&whole));
        assert!(AbsState::bottom().join_arrivals(&left, &l, &packs).same_shape(&left));
    }

    #[test]
    fn pack_env_lattice_laws() {
        let (_, l, _packs) = setup("int x; void main(void) { x = 1; }");
        let env = AbsEnv::initial(&l);
        let cells = vec![l.scalar_cell(astree_ir::VarId(0))];
        let a = PackEnv::from_env(&env, &l, &cells);
        let bot = PackEnv::bottom();
        assert!(bot.leq(&a));
        assert!(a.leq(&a.join(&bot)));
        assert!(!a.is_bottom());
        assert!(bot.is_bottom());
    }

    #[test]
    fn forget_cell_clears_relations() {
        let (_, l, packs) =
            setup("int x; int y; void main(void) { x = y + 1; if (x < y) { x = 0; } }");
        let mut s = AbsState::initial(&l, &packs);
        let xc = l.scalar_cell(astree_ir::VarId(0));
        let slot = packs.oct_slot(0, xc).expect("in pack");
        let mut o = s.oct(0, &packs).into_owned();
        o.add_upper(slot, 5.0);
        s.set_oct(0, o);
        s.forget_cell(xc, &l, &packs);
        let mut o = s.oct(0, &packs).into_owned();
        o.close();
        assert_eq!(o.bounds(slot).hi, f64::INFINITY);
    }
}
