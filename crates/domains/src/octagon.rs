//! The octagon abstract domain (paper Sect. 6.2.2).
//!
//! Represents conjunctions of constraints `±x ± y ≤ c` over a small pack of
//! variables, using the difference-bound-matrix encoding of Miné \[29\]: each
//! variable `xₖ` contributes two nodes `V₂ₖ = xₖ` and `V₂ₖ₊₁ = −xₖ`, and the
//! matrix entry `m[i][j]` bounds `Vⱼ − Vᵢ`. Strong closure (a Floyd–Warshall
//! sweep plus the octagon strengthening step) is cubic in the number of
//! variables — affordable because packs stay small (Sect. 7.2.1).
//!
//! # Half-matrix storage
//!
//! Every DBM this module produces is *coherent*: `m[i][j] = m[ȷ̄][ī]` with
//! `k̄ = k^1` (swapping a constraint's two node views yields the same
//! constraint). Rather than storing both copies in a `(2n)×(2n)` matrix, only
//! the coherent lower triangle is kept — the canonical slots `(i, j)` with
//! `j ≤ (i|1)`, laid out row-contiguously at `j + (i+1)²/2`, which is
//! `2n(n+1)` entries instead of `4n²`. Packs of ≤ 3 variables (the common
//! case from pack discovery) fit the 24-slot inline buffer and never touch
//! the heap. The closure loops iterate canonical rows contiguously and read
//! mirrors through the coherence map, so the inner loops stay branch-light
//! and vectorizable.
//!
//! Soundness with floats: the abstract element denotes a subset of `ℝⁿ`
//! (invariants are interpreted in the real field, per the paper's two-step
//! design), and every bound addition rounds *up*, so closure and transfer
//! functions only ever relax true constraints. Floating-point expressions
//! must be linearized first (Sect. 6.3) before reaching the octagon.

use crate::float_interval::FloatItv;
use crate::thresholds::{f64_at_least, f64_at_most};
use crate::widening::Widening;
use astree_float::round;
use std::fmt;

const INF: f64 = f64::INFINITY;

// ---------------------------------------------------------------------------
// Half-matrix layout
// ---------------------------------------------------------------------------

/// Number of canonical (stored) slots for an `n`-variable octagon.
#[inline(always)]
const fn hm_len(n: usize) -> usize {
    2 * n * (n + 1)
}

/// Flat index of the canonical slot `(i, j)`; requires `j ≤ (i|1)`.
/// Row `i`'s slots are contiguous starting at `(i+1)²/2`.
#[inline(always)]
fn hm_idx(i: usize, j: usize) -> usize {
    debug_assert!(j <= (i | 1));
    j + ((i + 1) * (i + 1)) / 2
}

/// Flat index of the slot holding the full-matrix entry `(i, j)`: the
/// canonical slot itself, or its coherent mirror `(ȷ̄, ī)`.
#[inline(always)]
fn hm_slot(i: usize, j: usize) -> usize {
    if j <= (i | 1) {
        hm_idx(i, j)
    } else {
        hm_idx(j ^ 1, i ^ 1)
    }
}

/// Reads the full-matrix entry `(i, j)` from the half matrix.
#[inline(always)]
fn g(m: &[f64], i: usize, j: usize) -> f64 {
    m[hm_slot(i, j)]
}

/// Largest pack (2·3 nodes → 24 slots) stored inline without heap
/// allocation. Pack discovery shows 2–3 variables is the dominant case.
const INLINE_SLOTS: usize = 24;

/// The bound storage: a fixed inline buffer for small packs, a boxed slice
/// above. Only the first [`hm_len`]`(n)` slots are meaningful; inline tail
/// slots are never read or compared.
#[derive(Debug, Clone)]
enum Buf {
    Inline([f64; INLINE_SLOTS]),
    Heap(Box<[f64]>),
}

impl Buf {
    /// An uninitialized-content buffer of the right class for `n` variables
    /// (callers overwrite every live slot).
    fn raw(n: usize) -> Buf {
        let len = hm_len(n);
        if len <= INLINE_SLOTS {
            Buf::Inline([INF; INLINE_SLOTS])
        } else {
            Buf::Heap(vec![INF; len].into_boxed_slice())
        }
    }
}

/// Runs `f` on a zeroed scratch row of `dim` entries — stack-allocated for
/// every realistic pack, heap fallback above (packs are capped well below
/// 32 variables in practice, but nothing here should depend on that).
#[inline(always)]
fn with_scratch<R>(dim: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    if dim <= 64 {
        let mut stack = [0.0f64; 64];
        f(&mut stack[..dim])
    } else {
        let mut heap = vec![0.0f64; dim];
        f(&mut heap)
    }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// The canonical slots a relaxation pass visits.
#[derive(Clone, Copy)]
enum Slots {
    /// Every slot.
    All,
    /// The slots with an endpoint on a variable of the mask.
    Touching(u32),
}

/// Relaxes the canonical slots `slots` through the node pair `{2t, 2t+1}`
/// whose rows are snapshotted in `rowk`/`rowk1` (snapshots taken before the
/// pass, i.e. the post-previous-pair state — the textbook read-old-values
/// formulation, which keeps the inner loop on contiguous scratch rows).
/// Rows are visited in order, and a row's columns only for the slots of
/// `slots`, so no skipped slot costs a test.
///
/// On the half matrix a canonical slot stands for a full entry *and* its
/// coherent mirror, and the mirror's path through node `k` is the slot's
/// path through `k̄ = k^1` — so single-node Floyd–Warshall steps would
/// relax mirrors through `2t+1` one step early. Processing the pair as one
/// combined step (Miné's strong-closure formulation: reach `k` either
/// directly or via `k̄`, then leave through either row) covers all four
/// path shapes at once and restores the Floyd–Warshall invariant at pair
/// granularity for both the entry and its mirror.
#[inline(always)]
fn relax_through_pair(
    m: &mut [f64],
    dim: usize,
    k: usize,
    rowk: &[f64],
    rowk1: &[f64],
    slots: Slots,
) {
    let k1 = k + 1;
    let mkk1 = rowk[k1]; // m[2t][2t+1]
    let mk1k = rowk1[k]; // m[2t+1][2t]
    for i in 0..dim {
        // `None`: the whole row; `Some(vars)`: the column pairs of `vars`.
        let cols = match slots {
            Slots::All => None,
            Slots::Touching(mask) => {
                let v = i / 2;
                if v < 32 && mask & (1 << v) != 0 {
                    None
                } else {
                    // Row `i` holds the columns of variables `0..=v`, and
                    // `v` itself is untouched.
                    let below = if v < 32 { mask & ((1 << v) - 1) } else { mask };
                    if below == 0 {
                        continue;
                    }
                    Some(below)
                }
            }
        };
        let ik = g(m, i, k);
        let ik1 = g(m, i, k1);
        // Best way to reach node k (directly, or via k+1) and node k+1.
        let bk = min_up(ik, ik1, mk1k);
        let bk1 = min_up(ik1, ik, mkk1);
        if bk == INF && bk1 == INF {
            continue;
        }
        let base = ((i + 1) * (i + 1)) / 2;
        match cols {
            None => {
                let end = (i | 1) + 1;
                relax_cols(&mut m[base..base + end], bk, bk1, &rowk[..end], &rowk1[..end]);
            }
            Some(mut vars) => {
                while vars != 0 {
                    let j = 2 * vars.trailing_zeros() as usize;
                    vars &= vars - 1;
                    let row = &mut m[base + j..base + j + 2];
                    relax_cols(row, bk, bk1, &rowk[j..j + 2], &rowk1[j..j + 2]);
                }
            }
        }
    }
}

/// `bound` relaxed by the upward-rounded `a + b`: `add_up(a, b)` when it
/// is `<` `bound`, else `bound`.
///
/// The exact rounding is paid only when the round-to-nearest sum is below
/// `bound`. `add_up(a, b)` is the smallest double `≥ a + b`, so it is never
/// below the nearest sum, and a sum the filter rejects could not have been
/// written; NaN and `+∞` compare false either way, and a nearest `−∞` (whose
/// exact rounding may be `−f64::MAX`) takes the exact path.
#[inline(always)]
fn min_up(bound: f64, a: f64, b: f64) -> f64 {
    if a + b < bound {
        let v = round::add_up(a, b);
        if v < bound {
            return v;
        }
    }
    bound
}

/// `row[j] ← min(row[j], bk + rowk[j], bk1 + rowk1[j])`, in that order of
/// comparison, each slot written once. An operand that is `+∞` is skipped:
/// `add_up` would yield `+∞` or NaN, and neither is `<` the stored bound.
#[inline(always)]
fn relax_cols(row: &mut [f64], bk: f64, bk1: f64, rowk: &[f64], rowk1: &[f64]) {
    match (bk != INF, bk1 != INF) {
        (true, true) => {
            for ((s, a), b) in row.iter_mut().zip(rowk).zip(rowk1) {
                *s = min_up(min_up(*s, bk, *a), bk1, *b);
            }
        }
        (true, false) => relax_one(row, bk, rowk),
        (false, true) => relax_one(row, bk1, rowk1),
        (false, false) => {}
    }
}

#[inline(always)]
fn relax_one(row: &mut [f64], b: f64, through: &[f64]) {
    for (s, t) in row.iter_mut().zip(through) {
        *s = min_up(*s, b, *t);
    }
}

/// Floyd–Warshall over the half matrix (pair-combined steps, see
/// [`relax_through_pair`]) plus one strengthening pass.
#[inline(always)]
fn close_full_body(m: &mut [f64], dim: usize) {
    with_scratch(2 * dim, |rows| {
        let (rowk, rowk1) = rows.split_at_mut(dim);
        for t in 0..dim / 2 {
            let k = 2 * t;
            for j in 0..dim {
                rowk[j] = g(m, k, j);
                rowk1[j] = g(m, k + 1, j);
            }
            relax_through_pair(m, dim, k, rowk, rowk1, Slots::All);
        }
    });
    strengthen_body(m, dim);
}

/// Strong closure of `m`, an `n`-variable half matrix: incremental on the
/// variables of `mask`, or full for `None`. The one selection point of the
/// closure kernel: a `reference` build runs [`close_reference`] instead,
/// which is bitwise the same (`closure_kernel_is_bitwise_the_reference`).
#[inline(always)]
fn close_kernel(m: &mut [f64], n: usize, mask: Option<u32>) {
    if cfg!(feature = "reference") {
        #[cfg(any(test, feature = "reference"))]
        return close_reference(m, n, mask);
    }
    match mask {
        None => close_full_body(m, 2 * n),
        Some(mask) => close_incremental_body(m, n, mask),
    }
}

/// Incremental strong closure for a matrix that was strongly closed
/// before entries touching the variables of `mask` were modified.
///
/// Correctness follows the standard Floyd–Warshall invariant with the
/// node order "interior nodes first, then modified nodes": pairs of
/// untouched nodes are already shortest paths through interior
/// intermediates (the old closure; loosened V̂ entries only lengthen
/// paths, so they stay valid), phase 1 brings every pair touching V̂
/// up to date through all intermediates, and phase 2 routes every pair
/// through the modified nodes. One strengthening pass then restores
/// strong closure exactly as in the full algorithm. On the half matrix
/// a canonical slot stands for a full entry *and* its mirror; the
/// touched-node set is closed under the bar map, so "slot touches V̂"
/// is exactly the full-matrix "row or column touches V̂".
fn close_incremental_body(m: &mut [f64], n: usize, mask: u32) {
    let dim = 2 * n;
    with_scratch(2 * dim, |rows| {
        let (rowk, rowk1) = rows.split_at_mut(dim);
        // Phase 1: relax every canonical slot with a touched endpoint
        // through every intermediate pair.
        for t in 0..n {
            let k = 2 * t;
            for j in 0..dim {
                rowk[j] = g(m, k, j);
                rowk1[j] = g(m, k + 1, j);
            }
            relax_through_pair(m, dim, k, rowk, rowk1, Slots::Touching(mask));
        }
        // Phase 2: route every canonical slot through the touched pairs.
        for t in 0..n.min(32) {
            if mask & (1 << t) == 0 {
                continue;
            }
            let k = 2 * t;
            for j in 0..dim {
                rowk[j] = g(m, k, j);
                rowk1[j] = g(m, k + 1, j);
            }
            relax_through_pair(m, dim, k, rowk, rowk1, Slots::All);
        }
    });
    strengthen_body(m, dim);
}

/// Octagon strengthening: combine the two unary chains
/// (`m[i][j] ← min(m[i][j], (m[i][ī] + m[ȷ̄][j])/2)`).
///
/// The unary slots read here are only ever self-relaxed by the writes this
/// pass performs (`(x + x)/2 = x` exactly), so snapshotting them first is
/// bitwise equal to the in-place formulation.
#[inline(always)]
fn strengthen_body(m: &mut [f64], dim: usize) {
    with_scratch(dim, |udiag| {
        for (j, u) in udiag.iter_mut().enumerate() {
            *u = m[hm_idx(j ^ 1, j)];
        }
        for i in 0..dim {
            let ui = m[hm_idx(i, i ^ 1)];
            if ui == INF {
                continue;
            }
            let base = ((i + 1) * (i + 1)) / 2;
            for j in 0..=(i | 1) {
                // Halving is monotone, so the nearest-sum filter of
                // [`min_up`] holds for the halved bound too.
                let s = &mut m[base + j];
                if (ui + udiag[j]) / 2.0 < *s {
                    let v = round::add_up(ui, udiag[j]) / 2.0;
                    if v < *s {
                        *s = v;
                    }
                }
            }
        }
    });
}

/// The relaxation loop the kernel replaced, kept as its reference: every
/// slot of every row is offered to `keep`, and a kept slot is relaxed
/// through `bk` and then through `bk1`, each write in place.
#[cfg(any(test, feature = "reference"))]
fn relax_through_pair_reference(
    m: &mut [f64],
    dim: usize,
    k: usize,
    rowk: &[f64],
    rowk1: &[f64],
    keep: impl Fn(usize, usize) -> bool,
) {
    let k1 = k + 1;
    let mkk1 = rowk[k1];
    let mk1k = rowk1[k];
    for i in 0..dim {
        let ik = g(m, i, k);
        let ik1 = g(m, i, k1);
        let mut bk = ik;
        let via = round::add_up(ik1, mk1k);
        if via < bk {
            bk = via;
        }
        let mut bk1 = ik1;
        let via = round::add_up(ik, mkk1);
        if via < bk1 {
            bk1 = via;
        }
        if bk == INF && bk1 == INF {
            continue;
        }
        let base = ((i + 1) * (i + 1)) / 2;
        for j in 0..=(i | 1) {
            if !keep(i, j) {
                continue;
            }
            let v = round::add_up(bk, rowk[j]);
            if v < m[base + j] {
                m[base + j] = v;
            }
            let v = round::add_up(bk1, rowk1[j]);
            if v < m[base + j] {
                m[base + j] = v;
            }
        }
    }
}

/// The reference closure: phase 1 sweeps every slot through a
/// touched-endpoint predicate (`mask = None` is the full closure, whose
/// only phase keeps every slot), then phase 2 and the unfiltered
/// strengthening.
#[cfg(any(test, feature = "reference"))]
fn close_reference(m: &mut [f64], n: usize, mask: Option<u32>) {
    let dim = 2 * n;
    let snapshot = |m: &[f64], k: usize| -> (Vec<f64>, Vec<f64>) {
        ((0..dim).map(|j| g(m, k, j)).collect(), (0..dim).map(|j| g(m, k + 1, j)).collect())
    };
    let touched = |node: usize| mask.is_some_and(|mask| mask & (1 << (node / 2)) != 0);
    for t in 0..n {
        let (rowk, rowk1) = snapshot(m, 2 * t);
        relax_through_pair_reference(m, dim, 2 * t, &rowk, &rowk1, |i, j| {
            mask.is_none() || touched(i) || touched(j)
        });
    }
    for t in (0..n).filter(|t| touched(2 * t)) {
        let (rowk, rowk1) = snapshot(m, 2 * t);
        relax_through_pair_reference(m, dim, 2 * t, &rowk, &rowk1, |_, _| true);
    }
    strengthen_reference(m, dim);
}

/// The strengthening pass the filtered one replaced, kept as its reference:
/// every candidate is rounded up exactly.
#[cfg(any(test, feature = "reference"))]
fn strengthen_reference(m: &mut [f64], dim: usize) {
    let udiag: Vec<f64> = (0..dim).map(|j| m[hm_idx(j ^ 1, j)]).collect();
    for i in 0..dim {
        let ui = m[hm_idx(i, i ^ 1)];
        for j in 0..=(i | 1) {
            let v = round::add_up(ui, udiag[j]) / 2.0;
            if v < m[hm_idx(i, j)] {
                m[hm_idx(i, j)] = v;
            }
        }
    }
}

/// Entrywise combine over the live half slices.
#[inline(always)]
fn zip_body(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64 + Copy) {
    for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = f(*x, *y);
    }
}

/// Entrywise `≤` over the live half slices.
#[inline(always)]
fn leq_body(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

// ---------------------------------------------------------------------------
// Closure bookkeeping
// ---------------------------------------------------------------------------

/// Closure bookkeeping: which part of the matrix may violate strong
/// closure. `DirtyVars` is the incremental-closure fast path — the matrix
/// was strongly closed and only entries in the rows/columns of the masked
/// variables changed since, so re-closing is `O(|V̂|·n²)` instead of the
/// full `O(n³)` Floyd–Warshall (Miné's incremental strong closure).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Closure {
    /// Strongly closed.
    Closed,
    /// Strongly closed except for constraints touching the masked
    /// variables (bit `v` = variable `v`; packs are capped well under 32).
    DirtyVars(u32),
    /// No closure information (whole-matrix edits: meet, widen, decode).
    Dirty,
}

/// An octagon over `n` variables.
///
/// # Examples
///
/// ```
/// use astree_domains::Octagon;
/// // x0 - x1 <= 3  and  x1 <= 2  imply  x0 <= 5.
/// let mut o = Octagon::top(2);
/// o.add_diff_le(0, 1, 3.0);
/// o.add_upper(1, 2.0);
/// o.close();
/// assert!(o.bounds(0).hi <= 5.0 + 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Octagon {
    n: usize,
    /// Canonical lower triangle of the coherent `(2n)×(2n)` bound matrix
    /// (see the module docs for the layout).
    buf: Buf,
    closure: Closure,
}

/// Equality compares the bound matrix *numerically* and whether strong
/// closure holds — the same observable distinction the former boolean
/// `closed` flag made (the two dirty flavors are interchangeable: both just
/// mean "must re-close").
///
/// Numeric equality is deliberate and correct **only because nothing
/// identity-sensitive uses it**: `PartialEq` serves tests and assertions,
/// where `-0.0 == 0.0` is the right notion of "same constraints". Every
/// sharing/identity decision in the analyzer (pmap `set`,
/// aligned-roots merges) goes through the bitwise [`Octagon::same`]
/// instead — substituting a `PartialEq`-equal octagon with different
/// `-0.0` bit patterns (or treating two NaN-shaped bounds as unequal)
/// would silently change downstream bit patterns. The
/// `partial_eq_is_numeric_same_is_bitwise` regression test pins both
/// behaviors.
impl PartialEq for Octagon {
    fn eq(&self, other: &Octagon) -> bool {
        self.n == other.n
            && self.hm() == other.hm()
            && (self.closure == Closure::Closed) == (other.closure == Closure::Closed)
    }
}

impl Octagon {
    /// The unconstrained octagon over `n` variables.
    pub fn top(n: usize) -> Octagon {
        let mut buf = Buf::raw(n);
        let m = match &mut buf {
            Buf::Inline(a) => &mut a[..],
            Buf::Heap(b) => b,
        };
        for i in 0..2 * n {
            m[hm_idx(i, i)] = 0.0;
        }
        Octagon { n, buf, closure: Closure::Closed }
    }

    /// The live canonical slots.
    #[inline(always)]
    fn hm(&self) -> &[f64] {
        match &self.buf {
            Buf::Inline(a) => &a[..hm_len(self.n)],
            Buf::Heap(b) => b,
        }
    }

    /// The live canonical slots, mutably.
    #[inline(always)]
    fn hm_mut(&mut self) -> &mut [f64] {
        match &mut self.buf {
            Buf::Inline(a) => &mut a[..hm_len(self.n)],
            Buf::Heap(b) => b,
        }
    }

    /// Whether the bounds live in the no-heap inline buffer (small packs).
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.buf, Buf::Inline(_))
    }

    /// The raw representation `(n, bound matrix, closed)`, for serialization.
    ///
    /// The matrix is the row-major `(2n)×(2n)` difference-bound matrix
    /// (expanded from the stored half matrix through coherence — the
    /// on-disk `astree-cache` octagon codec predates the half-matrix storage and
    /// stays format-compatible); the `closed` flag records whether strong
    /// closure has been applied. Feeding these three values back through
    /// [`Octagon::from_raw`] reconstructs a physically identical element.
    pub fn to_raw(&self) -> (usize, Vec<f64>, bool) {
        let dim = 2 * self.n;
        let m = self.hm();
        let mut full = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                full[i * dim + j] = g(m, i, j);
            }
        }
        (self.n, full, self.closure == Closure::Closed)
    }

    /// Rebuilds an octagon from its raw representation (see
    /// [`Octagon::to_raw`]). Returns `None` if the matrix length is not
    /// `(2n)²`.
    ///
    /// Only the canonical lower triangle of `m` is read: every matrix the
    /// analyzer (of any version) ever serialized is coherent, so this loses
    /// nothing — old warm stores replay byte-for-byte.
    pub fn from_raw(n: usize, m: Vec<f64>, closed: bool) -> Option<Octagon> {
        if m.len() != 4 * n * n {
            return None;
        }
        let dim = 2 * n;
        let mut buf = Buf::raw(n);
        let half = match &mut buf {
            Buf::Inline(a) => &mut a[..],
            Buf::Heap(b) => b,
        };
        for i in 0..dim {
            let base = ((i + 1) * (i + 1)) / 2;
            for j in 0..=(i | 1) {
                half[base + j] = m[i * dim + j];
            }
        }
        Some(Octagon { n, buf, closure: if closed { Closure::Closed } else { Closure::Dirty } })
    }

    /// Marks variable `v`'s rows/columns as modified since the last strong
    /// closure. Falls back to whole-matrix dirtiness for oversized packs.
    #[inline]
    fn taint_var(&mut self, v: usize) {
        if v >= 32 {
            self.closure = Closure::Dirty;
            return;
        }
        self.closure = match self.closure {
            Closure::Closed => Closure::DirtyVars(1 << v),
            Closure::DirtyVars(mask) => Closure::DirtyVars(mask | (1 << v)),
            Closure::Dirty => Closure::Dirty,
        };
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.hm()[hm_slot(i, j)]
    }

    #[inline]
    fn tighten(&mut self, i: usize, j: usize, v: f64) {
        let s = hm_slot(i, j);
        if v < self.hm()[s] {
            self.hm_mut()[s] = v;
            self.taint_var(i / 2);
            self.taint_var(j / 2);
        }
    }

    /// Adds `x_i ≤ c`.
    pub fn add_upper(&mut self, i: usize, c: f64) {
        self.tighten(2 * i + 1, 2 * i, 2.0 * c);
    }

    /// Adds `x_i ≥ c`.
    pub fn add_lower(&mut self, i: usize, c: f64) {
        self.tighten(2 * i, 2 * i + 1, -2.0 * c);
    }

    /// Adds `x_i − x_j ≤ c` (requires `i ≠ j`).
    ///
    /// # Panics
    ///
    /// Panics if `i == j`.
    pub fn add_diff_le(&mut self, i: usize, j: usize, c: f64) {
        assert_ne!(i, j, "difference constraint needs two distinct variables");
        // x_i − x_j ≤ c  ⇔  V_{2i} − V_{2j} ≤ c (and its coherent mirror,
        // which is the same stored slot).
        self.tighten(2 * j, 2 * i, c);
        self.tighten(2 * i + 1, 2 * j + 1, c);
    }

    /// Adds `x_i + x_j ≤ c` (requires `i ≠ j`).
    ///
    /// # Panics
    ///
    /// Panics if `i == j` (use [`Octagon::add_upper`] with `c/2`).
    pub fn add_sum_le(&mut self, i: usize, j: usize, c: f64) {
        assert_ne!(i, j, "sum constraint needs two distinct variables");
        // x_i + x_j ≤ c ⇔ V_{2i} − V_{2j+1} ≤ c.
        self.tighten(2 * j + 1, 2 * i, c);
        self.tighten(2 * i + 1, 2 * j, c);
    }

    /// Adds `−x_i − x_j ≤ c` (i.e. `x_i + x_j ≥ −c`; requires `i ≠ j`).
    ///
    /// # Panics
    ///
    /// Panics if `i == j`.
    pub fn add_neg_sum_le(&mut self, i: usize, j: usize, c: f64) {
        assert_ne!(i, j, "sum constraint needs two distinct variables");
        // −x_i − x_j ≤ c ⇔ V_{2i+1} − V_{2j} ≤ c.
        self.tighten(2 * j, 2 * i + 1, c);
        self.tighten(2 * i, 2 * j + 1, c);
    }

    /// The interval derivable for `x_i` (after closure).
    pub fn bounds(&self, i: usize) -> FloatItv {
        let hi = self.at(2 * i + 1, 2 * i) / 2.0;
        let lo = -self.at(2 * i, 2 * i + 1) / 2.0;
        FloatItv { lo, hi }
    }

    /// The best derivable upper bound on `x_i − x_j`.
    pub fn diff_bound(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.at(2 * j, 2 * i)
    }

    /// The best derivable upper bound on `x_i + x_j`.
    pub fn sum_bound(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return self.at(2 * i + 1, 2 * i);
        }
        self.at(2 * j + 1, 2 * i)
    }

    /// Strong closure: propagates all constraints. Idempotent.
    ///
    /// Dispatches on the closure bookkeeping: a matrix that was strongly
    /// closed and has since been modified only on a few variables' rows
    /// and columns pays Miné's `O(|V̂|·n²)` incremental closure instead of
    /// the full cubic Floyd–Warshall.
    pub fn close(&mut self) {
        match self.closure {
            Closure::Closed => {}
            Closure::DirtyVars(mask) if (mask.count_ones() as usize) < self.n => {
                self.close_incremental(mask);
            }
            _ => self.close_full(),
        }
    }

    /// Full strong closure (cubic Floyd–Warshall + strengthening).
    fn close_full(&mut self) {
        let n = self.n;
        close_kernel(self.hm_mut(), n, None);
        self.closure = Closure::Closed;
    }

    /// Incremental strong closure for a matrix that was strongly closed
    /// before entries touching the variables of `mask` were modified (see
    /// [`close_incremental_body`]).
    fn close_incremental(&mut self, mask: u32) {
        let n = self.n;
        close_kernel(self.hm_mut(), n, Some(mask));
        self.closure = Closure::Closed;
    }

    /// Test-only bypass of the incremental dispatch: always runs the full
    /// cubic closure, the reference the equivalence regression compares
    /// the incremental algorithm against.
    #[cfg(test)]
    fn force_full_close(&mut self) {
        if self.closure != Closure::Closed {
            self.close_full();
        }
    }

    /// `true` when the constraints are unsatisfiable.
    pub fn is_bottom(&mut self) -> bool {
        self.close();
        let dim = 2 * self.n;
        let m = self.hm();
        (0..dim).any(|i| m[hm_idx(i, i)] < 0.0)
    }

    /// Drops every constraint involving `x_i` (other constraints are
    /// preserved through prior closure). Each canonical slot on `x_i`'s
    /// rows/columns is visited exactly once: rows `2i`/`2i+1` hold the
    /// slots with `x_i` as the first endpoint, later rows' `2i`/`2i+1`
    /// columns the rest (earlier rows' entries are mirrors of the former).
    pub fn forget(&mut self, i: usize) {
        self.close();
        let dim = 2 * self.n;
        let (p, q) = (2 * i, 2 * i + 1);
        let m = self.hm_mut();
        for r in [p, q] {
            let base = ((r + 1) * (r + 1)) / 2;
            for j in 0..=(r | 1) {
                m[base + j] = INF;
            }
        }
        for r in (q + 1)..dim {
            let base = ((r + 1) * (r + 1)) / 2;
            m[base + p] = INF;
            m[base + q] = INF;
        }
        m[hm_idx(p, p)] = 0.0;
        m[hm_idx(q, q)] = 0.0;
    }

    /// `x_i := [lo, hi]` (non-relational assignment).
    pub fn assign_interval(&mut self, i: usize, itv: FloatItv) {
        self.forget(i);
        if itv.hi.is_finite() {
            self.add_upper(i, itv.hi);
        }
        if itv.lo.is_finite() {
            self.add_lower(i, itv.lo);
        }
    }

    /// `x_i := x_j + [clo, chi]` — the exact relational assignment the
    /// paper's transfer function uses to synthesize `c ≤ L − Z ≤ d`.
    pub fn assign_var_plus_const(&mut self, i: usize, j: usize, clo: f64, chi: f64) {
        if i == j {
            self.shift(i, clo, chi);
            return;
        }
        self.forget(i);
        self.add_diff_le(i, j, chi);
        self.add_diff_le(j, i, -clo);
    }

    /// `x_i := −x_j + [clo, chi]`.
    pub fn assign_neg_var_plus_const(&mut self, i: usize, j: usize, clo: f64, chi: f64) {
        if i == j {
            self.negate_var(i);
            self.shift(i, clo, chi);
            return;
        }
        self.forget(i);
        self.add_sum_le(i, j, chi);
        self.add_neg_sum_le(i, j, -clo);
    }

    /// In-place `x_i := x_i + [clo, chi]`.
    ///
    /// Under coherence a slot with exactly one endpoint on `x_i` stands
    /// for a row entry *and* the mirror column entry, which the full-matrix
    /// formulation adjusted by the same amount — so each canonical slot is
    /// adjusted exactly once: row `2i` slots and later rows' `2i+1` column
    /// (bounds mentioning `−x_i`) loosen by `−clo`; row `2i+1` slots and
    /// later rows' `2i` column (bounds mentioning `+x_i`) loosen by `+chi`.
    fn shift(&mut self, i: usize, clo: f64, chi: f64) {
        let dim = 2 * self.n;
        let (p, q) = (2 * i, 2 * i + 1);
        let m = self.hm_mut();
        let bp = ((p + 1) * (p + 1)) / 2;
        let bq = ((q + 1) * (q + 1)) / 2;
        for j in 0..p {
            let v = m[bp + j]; // V_j − x_i ≤ v
            if v != INF {
                m[bp + j] = round::add_up(v, -clo);
            }
            let v = m[bq + j]; // V_j + x_i ≤ v
            if v != INF {
                m[bq + j] = round::add_up(v, chi);
            }
        }
        for r in (q + 1)..dim {
            let base = ((r + 1) * (r + 1)) / 2;
            let v = m[base + p]; // x_i − V_r ≤ v
            if v != INF {
                m[base + p] = round::add_up(v, chi);
            }
            let v = m[base + q]; // −x_i − V_r ≤ v
            if v != INF {
                m[base + q] = round::add_up(v, -clo);
            }
        }
        // The two unary entries move by twice the shift.
        let v = m[bp + q]; // −2x_i ≤ v
        if v != INF {
            m[bp + q] = round::add_up(v, -2.0 * clo);
        }
        let v = m[bq + p]; // 2x_i ≤ v
        if v != INF {
            m[bq + p] = round::add_up(v, 2.0 * chi);
        }
        self.taint_var(i);
    }

    /// In-place `x_i := −x_i`: swaps the positive and negative nodes.
    /// Swapping rows `2i`/`2i+1` slot-for-slot also realizes the mirror
    /// column swaps for earlier columns; later rows swap their two `x_i`
    /// columns explicitly.
    fn negate_var(&mut self, i: usize) {
        let dim = 2 * self.n;
        let (p, q) = (2 * i, 2 * i + 1);
        let m = self.hm_mut();
        let bp = ((p + 1) * (p + 1)) / 2;
        let bq = ((q + 1) * (q + 1)) / 2;
        for j in 0..p {
            m.swap(bp + j, bq + j);
        }
        // The unary pair swaps; the diagonal entries stay put (matching
        // the historical full-matrix formulation, which left them alone).
        m.swap(bp + q, bq + p);
        for r in (q + 1)..dim {
            let base = ((r + 1) * (r + 1)) / 2;
            m.swap(base + p, base + q);
        }
        self.taint_var(i);
    }

    /// Bitwise identity: same pack size, same closure bookkeeping, and
    /// every stored entry bit-identical (`to_bits`, which distinguishes
    /// `-0.0` from `0.0` and is reflexive on infinities and NaNs). The
    /// sharing-preserving state merges use this to decide "keep the
    /// original octagon" — it must be bitwise, because substituting a
    /// `PartialEq`-equal octagon with a different `-0.0`/closure state
    /// could change downstream bit patterns.
    pub fn same(&self, other: &Octagon) -> bool {
        self.n == other.n
            && self.closure == other.closure
            && self.hm().iter().zip(other.hm()).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Builds a result octagon by combining the operands' live slots.
    fn zip_with(
        &self,
        other: &Octagon,
        closure: Closure,
        f: impl Fn(f64, f64) -> f64 + Copy,
    ) -> Octagon {
        let mut buf = Buf::raw(self.n);
        let out = match &mut buf {
            Buf::Inline(a) => &mut a[..hm_len(self.n)],
            Buf::Heap(b) => &mut b[..],
        };
        zip_body(out, self.hm(), other.hm(), f);
        Octagon { n: self.n, buf, closure }
    }

    /// Least upper bound of immutable operands (clones both, then
    /// [`Octagon::join`]).
    #[must_use]
    pub fn join_ref(&self, other: &Octagon) -> Octagon {
        self.clone().join(&mut other.clone())
    }

    /// Widening of immutable operands (see [`Octagon::widen`] for the
    /// termination contract); a bare `&Thresholds` is the plain ramp.
    #[must_use]
    pub fn widen_ref<'w>(&self, other: &Octagon, w: impl Into<Widening<'w>>) -> Octagon {
        self.widen(&mut other.clone(), &w.into())
    }

    /// Inclusion test of immutable operands.
    pub fn leq_ref(&self, other: &Octagon) -> bool {
        self.clone().leq(other)
    }

    /// Least upper bound (entrywise max of closed forms).
    #[must_use]
    pub fn join(&mut self, other: &mut Octagon) -> Octagon {
        assert_eq!(self.n, other.n, "pack size mismatch");
        self.close();
        other.close();
        if self.is_bottom() {
            return other.clone();
        }
        if other.is_bottom() {
            return self.clone();
        }
        self.zip_with(other, Closure::Closed, astree_float::max_total)
    }

    /// Greatest lower bound (entrywise min).
    #[must_use]
    pub fn meet(&self, other: &Octagon) -> Octagon {
        assert_eq!(self.n, other.n, "pack size mismatch");
        self.zip_with(other, Closure::Dirty, astree_float::min_total)
    }

    /// Widening: entries that grew jump to the next threshold (then +∞).
    /// When `w` carries the variables' widened intervals, an entry that grew
    /// over integer variables jumps instead to the bound those intervals
    /// imply, when that bound covers the new entry (see
    /// [`crate::widening`]); an entry over a float variable keeps the ramp.
    ///
    /// The left operand must be the previous loop-head element *as returned
    /// by the previous widening* (not re-closed), the standard requirement
    /// for termination of DBM widenings.
    #[must_use]
    pub fn widen(&self, other: &mut Octagon, w: &Widening) -> Octagon {
        assert_eq!(self.n, other.n, "pack size mismatch");
        other.close();
        let t = w.thresholds();
        let mut out =
            self.zip_with(other, Closure::Dirty, |a, b| if b > a { t.above(b) } else { a });
        let Some(vars) = w.vars() else { return out };
        debug_assert_eq!(vars.len(), self.n, "one interval per variable");
        with_scratch(2 * self.n, |ub| {
            // Upper bounds of the nodes `V₂ₖ = xₖ` and `V₂ₖ₊₁ = −xₖ`.
            for (k, v) in vars.iter().enumerate() {
                let int = !v.is_bottom() && v.lo > i64::MIN && v.hi < i64::MAX;
                ub[2 * k] = if int { f64_at_least(v.hi) } else { INF };
                ub[2 * k + 1] = if int { -f64_at_most(v.lo) } else { INF };
            }
            let (a, b) = (self.hm(), other.hm());
            let m = out.hm_mut();
            for i in 0..2 * self.n {
                for j in 0..=(i | 1) {
                    let slot = hm_idx(i, j);
                    if b[slot] <= a[slot] {
                        continue;
                    }
                    // `m[i][j]` bounds `Vⱼ − Vᵢ ≤ ub(Vⱼ) + ub(Vᵢ̄)`.
                    let implied = round::add_up(ub[j], ub[i ^ 1]);
                    if implied < INF && implied >= b[slot] {
                        m[slot] = implied;
                        w.note_jump();
                    }
                }
            }
        });
        out
    }

    /// Inclusion test `γ(self) ⊆ γ(other)`.
    pub fn leq(&mut self, other: &Octagon) -> bool {
        assert_eq!(self.n, other.n, "pack size mismatch");
        self.close();
        leq_body(self.hm(), other.hm())
    }

    /// Intersects interval information into the octagon (reduction from the
    /// interval component of the reduced product).
    pub fn refine_with_interval(&mut self, i: usize, itv: FloatItv) {
        if itv.hi.is_finite() {
            self.tighten(2 * i + 1, 2 * i, 2.0 * itv.hi);
        }
        if itv.lo.is_finite() {
            self.tighten(2 * i, 2 * i + 1, -2.0 * itv.lo);
        }
    }
}

impl fmt::Display for Octagon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "octagon over {} vars:", self.n)?;
        for i in 0..self.n {
            let b = self.bounds(i);
            writeln!(f, "  x{i} ∈ [{}, {}]", b.lo, b.hi)?;
        }
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    let d = self.diff_bound(i, j);
                    if d != INF {
                        writeln!(f, "  x{i} - x{j} ≤ {d}")?;
                    }
                    let s = self.sum_bound(i, j);
                    if i < j && s != INF {
                        writeln!(f, "  x{i} + x{j} ≤ {s}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int_interval::IntItv;
    use crate::thresholds::Thresholds;
    use proptest::prelude::*;

    #[test]
    fn transitive_difference() {
        let mut o = Octagon::top(3);
        o.add_diff_le(0, 1, 2.0); // x0 - x1 <= 2
        o.add_diff_le(1, 2, 3.0); // x1 - x2 <= 3
        o.close();
        assert!(o.diff_bound(0, 2) <= 5.0 + 1e-9); // x0 - x2 <= 5
    }

    #[test]
    fn unary_propagation() {
        let mut o = Octagon::top(2);
        o.add_diff_le(0, 1, 3.0);
        o.add_upper(1, 2.0);
        o.add_lower(1, -1.0);
        o.close();
        let b0 = o.bounds(0);
        assert!(b0.hi <= 5.0 + 1e-9);
        // Lower bound of x0 is unconstrained.
        assert_eq!(b0.lo, f64::NEG_INFINITY);
    }

    #[test]
    fn sum_constraints() {
        let mut o = Octagon::top(2);
        o.add_sum_le(0, 1, 10.0); // x0 + x1 <= 10
        o.add_lower(1, 4.0); // x1 >= 4
        o.close();
        assert!(o.bounds(0).hi <= 6.0 + 1e-9);
    }

    #[test]
    fn bottom_detection() {
        let mut o = Octagon::top(1);
        o.add_upper(0, 1.0);
        o.add_lower(0, 2.0);
        assert!(o.is_bottom());
        let mut ok = Octagon::top(1);
        ok.add_upper(0, 2.0);
        ok.add_lower(0, 1.0);
        assert!(!ok.is_bottom());
    }

    #[test]
    fn forget_keeps_unrelated() {
        let mut o = Octagon::top(3);
        o.add_diff_le(0, 1, 2.0);
        o.add_diff_le(1, 2, 3.0);
        o.forget(1);
        o.close();
        // x0 - x2 <= 5 was implied and must survive the forget.
        assert!(o.diff_bound(0, 2) <= 5.0 + 1e-9);
        // But x0 - x1 is gone.
        assert_eq!(o.diff_bound(0, 1), INF);
    }

    #[test]
    fn paper_fragment_l_le_x() {
        // R := X − Z; L := X; if (R > V) L := Z + V  ⇒  L ≤ X.
        // Variables: 0=X, 1=Z, 2=V, 3=R, 4=L.
        let mut o = Octagon::top(5);
        // Initial ranges: X,Z,V ∈ [-100, 100].
        for v in 0..3 {
            o.assign_interval(v, FloatItv::new(-100.0, 100.0));
        }
        // R := X − Z is not an octagon shape; approximate by its interval
        // [-200, 200] (the paper's analyzer would use the linear form too).
        o.assign_interval(3, FloatItv::new(-200.0, 200.0));
        // Branch: R > V. Then L := Z + V: the smart assignment extracts
        // V ∈ [c, d] and synthesizes c ≤ L − Z ≤ d.
        let mut then_branch = o.clone();
        let v_bounds = then_branch.bounds(2);
        then_branch.assign_var_plus_const(4, 1, v_bounds.lo, v_bounds.hi);
        then_branch.close();
        // L − Z ≤ 100 must hold.
        assert!(then_branch.diff_bound(4, 1) <= 100.0 + 1e-9);
        // And L is bounded: L ≤ Z + 100 ≤ 200.
        assert!(then_branch.bounds(4).hi <= 200.0 + 1e-9);
    }

    #[test]
    fn assign_shift_in_place() {
        let mut o = Octagon::top(2);
        o.assign_interval(0, FloatItv::new(0.0, 1.0));
        o.assign_interval(1, FloatItv::new(5.0, 6.0));
        o.add_diff_le(0, 1, -4.0); // x0 - x1 <= -4
        o.close();
        // x0 := x0 + [10, 10]
        o.assign_var_plus_const(0, 0, 10.0, 10.0);
        o.close();
        let b = o.bounds(0);
        assert!(b.lo >= 10.0 - 1e-9 && b.hi <= 11.0 + 1e-9, "{b}");
        assert!(o.diff_bound(0, 1) <= 6.0 + 1e-9);
    }

    #[test]
    fn assign_negation() {
        let mut o = Octagon::top(2);
        o.assign_interval(1, FloatItv::new(2.0, 3.0));
        // x0 := -x1 + [0, 0]
        o.assign_neg_var_plus_const(0, 1, 0.0, 0.0);
        o.close();
        let b = o.bounds(0);
        assert!(b.lo >= -3.0 - 1e-9 && b.hi <= -2.0 + 1e-9, "{b}");
        // In-place negation: x1 := -x1.
        o.assign_neg_var_plus_const(1, 1, 0.0, 0.0);
        o.close();
        let b1 = o.bounds(1);
        assert!(b1.lo >= -3.0 - 1e-9 && b1.hi <= -2.0 + 1e-9, "{b1}");
    }

    #[test]
    fn join_is_upper_bound() {
        let mut a = Octagon::top(2);
        a.assign_interval(0, FloatItv::new(0.0, 1.0));
        let mut b = Octagon::top(2);
        b.assign_interval(0, FloatItv::new(3.0, 4.0));
        let j = a.join(&mut b);
        assert!(a.leq(&j) && b.leq(&j));
        let bounds = j.bounds(0);
        assert!(bounds.lo <= 0.0 && bounds.hi >= 4.0);
    }

    #[test]
    fn join_with_bottom_is_identity() {
        let mut a = Octagon::top(1);
        a.assign_interval(0, FloatItv::new(1.0, 2.0));
        let mut bot = Octagon::top(1);
        bot.add_upper(0, 0.0);
        bot.add_lower(0, 1.0);
        let j = a.join(&mut bot);
        let b = j.bounds(0);
        assert!(b.lo >= 1.0 - 1e-9 && b.hi <= 2.0 + 1e-9);
    }

    #[test]
    fn widen_stabilizes() {
        let t = Thresholds::geometric(1.0, 10.0, 2);
        let mut a = Octagon::top(1);
        a.assign_interval(0, FloatItv::new(0.0, 1.0));
        a.close();
        let mut b = Octagon::top(1);
        b.assign_interval(0, FloatItv::new(0.0, 2.0));
        let w = a.widen(&mut b, &Widening::from(&t));
        // Upper bound escaped: 2·hi jumps to a threshold ≥ 4 on the 2c scale.
        let mut wc = w.clone();
        wc.close();
        assert!(wc.bounds(0).hi >= 2.0);
        // Widening again with included element is stable.
        let mut same = wc.clone();
        let w2 = w.widen(&mut same, &Widening::from(&t));
        assert!(w.same(&w2), "widening an included element must be a fixpoint");
    }

    #[test]
    fn widening_jumps_to_the_bounds_of_integer_variables_only() {
        let t = Thresholds::geometric_default();
        let point = |x: f64, y: f64| {
            let mut o = Octagon::top(2);
            o.assign_interval(0, FloatItv::new(0.0, x));
            o.assign_interval(1, FloatItv::new(0.0, y));
            o.close();
            o
        };
        let (a, b) = (point(1.0, 1.0), point(2.0, 2.0));
        // `x` is an integer variable in [0, 1000], `y` a float one.
        let vars = [IntItv::new(0, 1000), IntItv::TOP];
        let w = Widening::clocked(&t, 1000).over(&vars);
        let r = a.widen(&mut b.clone(), &w.at_clock(IntItv::new(0, 5)));
        assert_eq!(r.bounds(0).hi, 1000.0, "2x jumps to 2·1000");
        assert_eq!(r.bounds(1).hi, 5.0, "2y climbs to the rung 10");
        assert_eq!(r.sum_bound(0, 1), 10.0, "x + y is over a float: it climbs");
        // A singleton clock, or the plain ramp, makes no jump.
        for w in [w.at_clock(IntItv::singleton(5)), Widening::from(&t)] {
            assert_eq!(a.widen(&mut b.clone(), &w).bounds(0).hi, 5.0);
        }
    }

    #[test]
    fn meet_refines() {
        let mut a = Octagon::top(1);
        a.assign_interval(0, FloatItv::new(0.0, 10.0));
        let mut b = Octagon::top(1);
        b.assign_interval(0, FloatItv::new(5.0, 20.0));
        let mut m = a.meet(&b);
        m.close();
        let r = m.bounds(0);
        assert!(r.lo >= 5.0 - 1e-9 && r.hi <= 10.0 + 1e-9);
    }

    #[test]
    fn rounding_is_upward() {
        let mut o = Octagon::top(2);
        o.add_diff_le(0, 1, 0.1);
        o.add_diff_le(1, 0, 0.2);
        o.close();
        // Closure adds 0.1 + 0.2 on the cycle; the diagonal must not go
        // negative through rounding (0.1+0.2 > 0.3 exactly in f64 rounding).
        assert!(!o.is_bottom());
    }

    #[test]
    fn small_packs_are_heap_free_and_roundtrip() {
        // n ≤ 3 fits the inline buffer; n = 4 spills to the heap.
        assert!(Octagon::top(1).is_inline());
        assert!(Octagon::top(2).is_inline());
        assert!(Octagon::top(3).is_inline());
        assert!(!Octagon::top(4).is_inline());
        // Join/meet/widen results inherit the storage class.
        let a = Octagon::top(3);
        let b = Octagon::top(3);
        assert!(a.join_ref(&b).is_inline());
        assert!(a.meet(&b).is_inline());
        // to_raw expands to the full coherent matrix; from_raw compresses
        // back to a physically identical element.
        for n in [1usize, 2, 3, 4, 6] {
            let mut o = Octagon::top(n);
            o.assign_interval(0, FloatItv::new(-1.5, 2.5));
            if n > 1 {
                o.add_diff_le(0, 1, 3.25);
            }
            o.close();
            let (rn, full, closed) = o.to_raw();
            assert_eq!(full.len(), 4 * n * n);
            // The expansion is coherent: m[i][j] == m[j^1][i^1] bitwise.
            let dim = 2 * n;
            for i in 0..dim {
                for j in 0..dim {
                    assert_eq!(
                        full[i * dim + j].to_bits(),
                        full[(j ^ 1) * dim + (i ^ 1)].to_bits(),
                        "expansion must be coherent at ({i},{j})"
                    );
                }
            }
            let back = Octagon::from_raw(rn, full, closed).unwrap();
            assert!(o.same(&back), "to_raw/from_raw must roundtrip bitwise (n={n})");
        }
    }

    /// `PartialEq` is numeric (observational: `-0.0 == 0.0`, NaN-shaped
    /// bounds never equal), `same` is bitwise (identity: `-0.0 ≠ 0.0`,
    /// reflexive on NaNs). Sharing decisions must use `same`; this pins
    /// both behaviors so identity-preservation can never silently start
    /// depending on `PartialEq`.
    #[test]
    fn partial_eq_is_numeric_same_is_bitwise() {
        let mut plus = Octagon::top(1);
        plus.add_upper(0, 0.0);
        let mut minus = Octagon::top(1);
        minus.add_upper(0, -0.0); // 2·-0.0 = -0.0: same constraint, different bits
        assert_eq!(plus, minus, "-0.0 and 0.0 bounds are numerically equal");
        assert!(!plus.same(&minus), "same() must distinguish -0.0 from 0.0");

        // NaN-shaped bounds (never produced by the analyzer, but the
        // discipline must hold even for them): PartialEq is irreflexive,
        // same() still recognizes the identical element.
        let nan = Octagon::from_raw(1, vec![f64::NAN; 4], false).unwrap();
        let nan2 = nan.clone();
        assert_ne!(nan, nan2, "NaN bounds are numerically unequal even to themselves");
        assert!(nan.same(&nan2), "same() must be reflexive on NaN bounds");

        // Closure bookkeeping: PartialEq only observes closed-vs-dirty;
        // same() distinguishes the exact bookkeeping.
        let mut a = Octagon::top(2);
        a.add_upper(0, 1.0);
        let dirty_vars = a.clone(); // DirtyVars(0b01)
        let mut dirty = a.clone();
        dirty.closure = Closure::Dirty;
        assert_eq!(dirty_vars, dirty, "both are observably 'must re-close'");
        assert!(!dirty_vars.same(&dirty), "same() distinguishes the dirty flavors");
    }

    /// Deterministic 64-bit LCG (no external randomness in tests).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// One seeded random mutation, drawn once and applicable to any number
    /// of octagons (see [`apply_mutation`]). `int_consts` keeps every
    /// constant an exact small integer, so closure algorithms that are
    /// order-sensitive only through rounding must agree *bitwise*.
    #[derive(Clone, Copy)]
    struct Mutation {
        op: u64,
        i: usize,
        j: usize,
        c: f64,
    }

    fn draw_mutation(rng: &mut Lcg, n: usize, int_consts: bool) -> Mutation {
        let op = rng.below(11);
        let i = rng.below(n as u64) as usize;
        let mut j = rng.below(n as u64) as usize;
        if j == i {
            j = (i + 1) % n;
        }
        let c = if int_consts {
            rng.below(41) as f64 - 20.0
        } else {
            (rng.below(4001) as f64 - 2000.0) / 64.0 + 0.1
        };
        Mutation { op, i, j, c }
    }

    fn apply_mutation(o: &mut Octagon, m: Mutation) {
        let Mutation { op, i, j, c } = m;
        match op {
            0 => o.add_upper(i, c),
            1 => o.add_lower(i, c),
            2 => o.add_diff_le(i, j, c),
            3 => o.add_sum_le(i, j, c),
            4 => o.add_neg_sum_le(i, j, c),
            5 => o.assign_interval(i, FloatItv::new(c - 4.0, c + 4.0)),
            6 => o.assign_var_plus_const(i, j, c - 1.0, c + 1.0),
            7 => o.assign_neg_var_plus_const(i, j, c - 1.0, c + 1.0),
            // In-place shift: x_i := x_i + [c-1, c+1].
            8 => o.assign_var_plus_const(i, i, c - 1.0, c + 1.0),
            // In-place negation + shift: x_i := −x_i + [c-1, c+1].
            9 => o.assign_neg_var_plus_const(i, i, c - 1.0, c + 1.0),
            _ => o.refine_with_interval(i, FloatItv::new(c - 8.0, c + 8.0)),
        }
    }

    /// Applies one seeded random mutation to both octagons identically.
    fn random_mutation(
        rng: &mut Lcg,
        a: &mut Octagon,
        b: &mut Octagon,
        n: usize,
        int_consts: bool,
    ) {
        let m = draw_mutation(rng, n, int_consts);
        apply_mutation(a, m);
        apply_mutation(b, m);
    }

    /// Bottom test on raw entries (no mutation): a closed inconsistent
    /// matrix has a negative diagonal entry.
    fn raw_bottom(o: &Octagon) -> bool {
        let (n, m, _) = o.to_raw();
        let dim = 2 * n;
        (0..dim).any(|i| m[i * dim + i] < 0.0)
    }

    #[test]
    fn incremental_closure_is_bitwise_equal_to_full_on_integer_constraints() {
        for seed in 0..64u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 7);
            let n = 2 + (seed as usize % 5); // packs of 2..=6 variables
            let mut inc = Octagon::top(n);
            let mut full = Octagon::top(n);
            for step in 0..48 {
                random_mutation(&mut rng, &mut inc, &mut full, n, true);
                if rng.below(3) == 0 {
                    inc.close();
                    full.force_full_close();
                    // The canonical (strong) closure is only unique for
                    // satisfiable systems; with a negative cycle the FW
                    // values depend on relaxation order, so the contract
                    // on bottom matrices is bottom-agreement only.
                    assert_eq!(
                        raw_bottom(&inc),
                        raw_bottom(&full),
                        "seed {seed} step {step}: bottom status diverged"
                    );
                    if raw_bottom(&full) {
                        break;
                    }
                    let (_, mi, ci) = inc.to_raw();
                    let (_, mf, cf) = full.to_raw();
                    assert_eq!(ci, cf);
                    assert_eq!(
                        mi.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        mf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "seed {seed} step {step}: incremental diverged from full closure"
                    );
                }
            }
            inc.close();
            full.force_full_close();
            assert_eq!(inc.is_bottom(), full.is_bottom(), "seed {seed}: bottom status diverged");
        }
    }

    #[test]
    fn incremental_closure_detects_contradictions_like_full() {
        // Force contradictions: x0 ≤ c then x0 ≥ c + 1, with relational
        // noise on other variables in between.
        for seed in 0..16u64 {
            let mut rng = Lcg(seed + 1000);
            let mut inc = Octagon::top(4);
            let mut full = Octagon::top(4);
            for _ in 0..8 {
                random_mutation(&mut rng, &mut inc, &mut full, 4, true);
            }
            inc.close();
            full.force_full_close();
            let c = rng.below(10) as f64;
            inc.add_upper(0, c);
            inc.add_lower(0, c + 1.0);
            full.add_upper(0, c);
            full.add_lower(0, c + 1.0);
            assert!(inc.is_bottom(), "seed {seed}");
            assert!(full.is_bottom(), "seed {seed}");
        }
    }

    #[test]
    fn incremental_closure_stays_near_full_on_float_constraints() {
        // With non-integer constants the two relaxation orders may round
        // differently by ulps; the results must still agree to a tight
        // relative tolerance and closure must stay idempotent.
        for seed in 0..32u64 {
            let mut rng = Lcg(seed.wrapping_mul(31) + 3);
            let n = 3 + (seed as usize % 3);
            let mut inc = Octagon::top(n);
            let mut full = Octagon::top(n);
            for _ in 0..32 {
                random_mutation(&mut rng, &mut inc, &mut full, n, false);
                if rng.below(4) == 0 {
                    inc.close();
                    full.force_full_close();
                    assert_eq!(
                        raw_bottom(&inc),
                        raw_bottom(&full),
                        "seed {seed}: bottom status diverged"
                    );
                    if raw_bottom(&full) {
                        break;
                    }
                    let (_, mi, _) = inc.to_raw();
                    let (_, mf, _) = full.to_raw();
                    for (a, b) in mi.iter().zip(&mf) {
                        if a.is_finite() || b.is_finite() {
                            let scale = 1.0 + a.abs().max(b.abs());
                            assert!(
                                (a - b).abs() <= 1e-9 * scale,
                                "seed {seed}: {a} vs {b} diverged beyond rounding noise"
                            );
                        }
                    }
                }
            }
            // Idempotence: closing a closed matrix changes nothing.
            inc.close();
            let before = inc.to_raw().1;
            inc.close();
            assert_eq!(before, inc.to_raw().1);
        }
    }

    /// Bounds that exercise every branch of the kernel: `+∞` often and `−∞`
    /// (so `+∞ + −∞` pairs produce NaN), both zeros often (so a relaxation
    /// can tie a stored bound of the other sign), both overflow edges (near
    /// `−f64::MAX` a nearest sum is `−∞` while the exact upward sum is
    /// finite, the one case the round-to-nearest filter sends to the exact
    /// path), and mostly non-negative integers and fractions, so that many
    /// matrices have no negative cycle and keep their ties to the end of
    /// the closure.
    fn bound() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(INF),
            Just(INF),
            Just(f64::NEG_INFINITY),
            Just(0.0),
            Just(-0.0),
            Just(0.0),
            Just(-0.0),
            Just(f64::MAX),
            Just(f64::MIN),
            Just(round::next_up(f64::MIN)),
            (0i64..8).prop_map(|v| v as f64),
            0.0..4.0f64,
            (-3i64..0).prop_map(|v| v as f64),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The closure kernel is bitwise the reference loops, for every
        /// mask and pack size 2–8 (a prefix of one draw per size),
        /// incremental and full.
        #[test]
        fn closure_kernel_is_bitwise_the_reference(
            bounds in prop::collection::vec(bound(), hm_len(8)),
        ) {
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for n in 2..=8 {
                let drawn = &bounds[..hm_len(n)];
                for mask in (1..1u32 << n).map(Some).chain([None]) {
                    let mut kernel = drawn.to_vec();
                    match mask {
                        Some(mask) => close_incremental_body(&mut kernel, n, mask),
                        None => close_full_body(&mut kernel, 2 * n),
                    }
                    let mut reference = drawn.to_vec();
                    close_reference(&mut reference, n, mask);
                    prop_assert_eq!(bits(&kernel), bits(&reference), "n {} mask {:?}", n, mask);
                }
            }
        }

        /// Strengthening with the round-to-nearest filter is bitwise the
        /// unfiltered pass, which rounds every candidate up exactly.
        #[test]
        fn strengthen_filter_is_bitwise_exact(
            bounds in prop::collection::vec(bound(), hm_len(8)),
        ) {
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for n in 1..=8 {
                let dim = 2 * n;
                let mut kernel = bounds[..hm_len(n)].to_vec();
                let mut reference = kernel.clone();
                strengthen_body(&mut kernel, dim);
                strengthen_reference(&mut reference, dim);
                prop_assert_eq!(bits(&kernel), bits(&reference), "n {}", n);
            }
        }
    }

    #[test]
    fn closure_state_transitions() {
        let mut o = Octagon::top(3);
        assert_eq!(o.closure, Closure::Closed);
        o.add_upper(0, 5.0);
        assert_eq!(o.closure, Closure::DirtyVars(0b001));
        o.add_diff_le(1, 2, 3.0);
        assert_eq!(o.closure, Closure::DirtyVars(0b111));
        o.close();
        assert_eq!(o.closure, Closure::Closed);
        o.forget(1);
        assert_eq!(o.closure, Closure::Closed, "forget preserves strong closure");
        o.assign_var_plus_const(0, 1, -1.0, 1.0);
        assert!(matches!(o.closure, Closure::DirtyVars(_)));
        let m = o.meet(&Octagon::top(3));
        assert_eq!(m.closure, Closure::Dirty);
    }
}
