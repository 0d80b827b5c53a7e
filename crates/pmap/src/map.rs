//! The persistent AVL map.

use crate::arc::PArc;
use crate::stats;
use std::cmp::Ordering;
use std::fmt;

/// A shared AVL node. Balancing follows the classic OCaml `Map` invariant:
/// sibling heights differ by at most 2.
struct Node<K, V> {
    key: K,
    value: V,
    height: u8,
    size: usize,
    left: Link<K, V>,
    right: Link<K, V>,
}

type Link<K, V> = Option<PArc<Node<K, V>>>;

fn height<K, V>(t: &Link<K, V>) -> u8 {
    t.as_ref().map_or(0, |n| n.height)
}

fn size<K, V>(t: &Link<K, V>) -> usize {
    t.as_ref().map_or(0, |n| n.size)
}

/// Builds a node assuming `left` and `right` are already balanced relative to
/// each other (height difference at most 2). The single allocation site for
/// tree nodes, so [`stats::take_stats`] counts every path copy.
fn node<K, V>(key: K, value: V, left: Link<K, V>, right: Link<K, V>) -> PArc<Node<K, V>> {
    stats::note_node_alloc();
    let height = height(&left).max(height(&right)) + 1;
    let size = size(&left) + size(&right) + 1;
    PArc::new(Node { key, value, height, size, left, right })
}

/// [`node`] as a link.
fn create<K, V>(key: K, value: V, left: Link<K, V>, right: Link<K, V>) -> Link<K, V> {
    Some(node(key, value, left, right))
}

/// Rebalances after one insertion/removal: `left` and `right` may differ in
/// height by at most 3.
fn balance<K: Clone, V: Clone>(
    key: K,
    value: V,
    left: Link<K, V>,
    right: Link<K, V>,
) -> Link<K, V> {
    let hl = height(&left);
    let hr = height(&right);
    if hl > hr + 2 {
        let l = left.as_ref().expect("left higher than right + 2 implies non-empty");
        if height(&l.left) >= height(&l.right) {
            create(
                l.key.clone(),
                l.value.clone(),
                l.left.clone(),
                create(key, value, l.right.clone(), right),
            )
        } else {
            let lr = l.right.as_ref().expect("inner child must exist");
            create(
                lr.key.clone(),
                lr.value.clone(),
                create(l.key.clone(), l.value.clone(), l.left.clone(), lr.left.clone()),
                create(key, value, lr.right.clone(), right),
            )
        }
    } else if hr > hl + 2 {
        let r = right.as_ref().expect("right higher than left + 2 implies non-empty");
        if height(&r.right) >= height(&r.left) {
            create(
                r.key.clone(),
                r.value.clone(),
                create(key, value, left, r.left.clone()),
                r.right.clone(),
            )
        } else {
            let rl = r.left.as_ref().expect("inner child must exist");
            create(
                rl.key.clone(),
                rl.value.clone(),
                create(key, value, left, rl.left.clone()),
                create(r.key.clone(), r.value.clone(), rl.right.clone(), r.right.clone()),
            )
        }
    } else {
        create(key, value, left, right)
    }
}

/// Joins two trees of arbitrary relative height around a middle binding.
/// All keys in `left` must be smaller than `key`, all keys in `right` larger.
fn join<K: Clone, V: Clone>(key: K, value: V, left: Link<K, V>, right: Link<K, V>) -> Link<K, V> {
    let hl = height(&left);
    let hr = height(&right);
    if hl > hr + 2 {
        let l = left.as_ref().expect("non-empty");
        balance(
            l.key.clone(),
            l.value.clone(),
            l.left.clone(),
            join(key, value, l.right.clone(), right),
        )
    } else if hr > hl + 2 {
        let r = right.as_ref().expect("non-empty");
        balance(
            r.key.clone(),
            r.value.clone(),
            join(key, value, left, r.left.clone()),
            r.right.clone(),
        )
    } else {
        create(key, value, left, right)
    }
}

fn min_binding<K, V>(t: &PArc<Node<K, V>>) -> (&K, &V) {
    match &t.left {
        None => (&t.key, &t.value),
        Some(l) => min_binding(l),
    }
}

fn remove_min<K: Clone, V: Clone>(t: &PArc<Node<K, V>>) -> Link<K, V> {
    match &t.left {
        None => t.right.clone(),
        Some(l) => balance(t.key.clone(), t.value.clone(), remove_min(l), t.right.clone()),
    }
}

/// Concatenates two trees of arbitrary relative height with no middle binding.
fn concat<K: Clone + Ord, V: Clone>(left: Link<K, V>, right: Link<K, V>) -> Link<K, V> {
    match (&left, &right) {
        (None, _) => right,
        (_, None) => left,
        (Some(_), Some(r)) => {
            let (k, v) = min_binding(r);
            let (k, v) = (k.clone(), v.clone());
            join(k, v, left, remove_min(r))
        }
    }
}

// Path-copy audit: `insert_at` copies exactly the root-to-key path (one
// `create`/`balance` per level) and reuses both child `Arc`s at the found
// node, so a value replacement preserves the tree *shape*. That shape
// stability is what keeps environments over a fixed cell layout permanently
// root-aligned, which the merge operations below exploit. Replacing a value
// with an identical one still copies the path — a caller that owns its map
// and replaces values at existing keys should use [`PMap::set`], which
// leaves the tree untouched then and otherwise copies only the nodes another
// handle can see.
fn insert_at<K: Clone + Ord, V: Clone>(t: &Link<K, V>, key: K, value: V) -> Link<K, V> {
    match t {
        None => create(key, value, None, None),
        Some(n) => match key.cmp(&n.key) {
            Ordering::Equal => create(key, value, n.left.clone(), n.right.clone()),
            Ordering::Less => balance(
                n.key.clone(),
                n.value.clone(),
                insert_at(&n.left, key, value),
                n.right.clone(),
            ),
            Ordering::Greater => balance(
                n.key.clone(),
                n.value.clone(),
                n.left.clone(),
                insert_at(&n.right, key, value),
            ),
        },
    }
}

// Path-copy audit: removing an absent key allocates nothing — the `removed`
// flag propagates up and every level returns the original `Arc` unchanged.
fn remove_at<K: Clone + Ord, V: Clone>(t: &Link<K, V>, key: &K) -> (Link<K, V>, bool) {
    match t {
        None => (None, false),
        Some(n) => match key.cmp(&n.key) {
            Ordering::Equal => (concat(n.left.clone(), n.right.clone()), true),
            Ordering::Less => {
                let (l, removed) = remove_at(&n.left, key);
                if removed {
                    (balance(n.key.clone(), n.value.clone(), l, n.right.clone()), true)
                } else {
                    (Some(n.clone()), false)
                }
            }
            Ordering::Greater => {
                let (r, removed) = remove_at(&n.right, key);
                if removed {
                    (balance(n.key.clone(), n.value.clone(), n.left.clone(), r), true)
                } else {
                    (Some(n.clone()), false)
                }
            }
        },
    }
}

/// The node behind `arc`, writable: in place when this handle is the only one
/// (count 1), else a copy holding clones of the two child handles — which
/// makes the children shared, so a descent through the result copies them in
/// turn. Only sound top-down: the caller must have reached `arc` through
/// nodes this function already returned (or the map's own root), or another
/// handle could still see the node through a shared ancestor.
fn unique<K: Clone, V: Clone>(arc: &mut PArc<Node<K, V>>) -> &mut Node<K, V> {
    if arc.get_mut().is_none() {
        *arc = node(arc.key.clone(), arc.value.clone(), arc.left.clone(), arc.right.clone());
    }
    arc.get_mut().expect("count is 1 (just checked or just allocated) and `&mut` bars new clones")
}

/// In-place [`PMap::set_each`] below a link reached through unique nodes.
fn set_each_at<K: Clone, V: Clone>(t: &mut Link<K, V>, f: &mut impl FnMut(&K, &V) -> Option<V>) {
    let Some(arc) = t else { return };
    match arc.get_mut() {
        Some(n) => {
            set_each_at(&mut n.left, f);
            if let Some(v) = f(&n.key, &n.value) {
                n.value = v;
            }
            set_each_at(&mut n.right, f);
        }
        None => {
            if let Some(copy) = set_each_shared(arc, f) {
                *arc = copy;
            }
        }
    }
}

/// [`PMap::set_each`] below a node some other handle can see (its own count,
/// or an ancestor's, is above 1): nothing is written; a subtree in which `f`
/// replaces a value is rebuilt with the same shape, one in which it replaces
/// none is left as it is (`None`).
fn set_each_shared<K: Clone, V: Clone>(
    n: &Node<K, V>,
    f: &mut impl FnMut(&K, &V) -> Option<V>,
) -> Option<PArc<Node<K, V>>> {
    let left = n.left.as_ref().and_then(|c| set_each_shared(c, f));
    let value = f(&n.key, &n.value);
    let right = n.right.as_ref().and_then(|c| set_each_shared(c, f));
    if left.is_none() && value.is_none() && right.is_none() {
        return None;
    }
    Some(node(
        n.key.clone(),
        value.unwrap_or_else(|| n.value.clone()),
        left.map_or_else(|| n.left.clone(), Some),
        right.map_or_else(|| n.right.clone(), Some),
    ))
}

/// Splits `t` into bindings below `key`, the binding at `key` (if any), and
/// bindings above `key`.
#[allow(clippy::type_complexity)]
fn split<K: Clone + Ord, V: Clone>(t: &Link<K, V>, key: &K) -> (Link<K, V>, Option<V>, Link<K, V>) {
    match t {
        None => (None, None, None),
        Some(n) => match key.cmp(&n.key) {
            Ordering::Equal => (n.left.clone(), Some(n.value.clone()), n.right.clone()),
            Ordering::Less => {
                let (ll, m, lr) = split(&n.left, key);
                (ll, m, join(n.key.clone(), n.value.clone(), lr, n.right.clone()))
            }
            Ordering::Greater => {
                let (rl, m, rr) = split(&n.right, key);
                (join(n.key.clone(), n.value.clone(), n.left.clone(), rl), m, rr)
            }
        },
    }
}

fn links_eq<K, V>(a: &Link<K, V>, b: &Link<K, V>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => PArc::ptr_eq(x, y),
        _ => false,
    }
}

/// `links_eq` gated by the thread's shortcut switch, counting interior hits.
/// Every *semantic-shortcut* use of physical equality inside the bulk
/// operations goes through here, so `debug_no_ptr_shortcuts` turns all of
/// them off at once.
fn shared<K, V>(a: &Link<K, V>, b: &Link<K, V>) -> bool {
    if stats::ptr_shortcuts_enabled() && links_eq(a, b) {
        stats::note_interior_shortcut();
        true
    } else {
        false
    }
}

/// How a combiner wants a binding present on both sides resolved.
///
/// `Left`/`Right` keep the existing value *and its identity*: when every
/// child of a subtree also kept its identity, the merge returns the original
/// `Arc` instead of allocating, which is what lets a stabilized fixpoint
/// iterate stay physically equal to its predecessor. `New` supplies a
/// combined value and always rebuilds the spine node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome<V> {
    /// Keep the left value (and, transitively, the left subtree).
    Left,
    /// Keep the right value (and, transitively, the right subtree).
    Right,
    /// Bind this fresh value.
    New(V),
}

fn union_outcome<K: Clone + Ord, V: Clone>(
    a: &Link<K, V>,
    b: &Link<K, V>,
    f: &mut impl FnMut(&K, &V, &V) -> MergeOutcome<V>,
) -> Link<K, V> {
    if shared(a, b) {
        return a.clone();
    }
    match (a, b) {
        (None, _) => b.clone(),
        (_, None) => a.clone(),
        (Some(an), Some(bn)) => {
            if an.key == bn.key {
                // Aligned roots: both trees partition the key space at the
                // same pivot, so children merge pairwise with no `split`
                // allocations — and identity can be preserved from *either*
                // side. Environments over a fixed cell layout are aligned
                // all the way down (value replacement preserves shape), so
                // this is the analyzer's hot path.
                let left = union_outcome(&an.left, &bn.left, f);
                let right = union_outcome(&an.right, &bn.right, f);
                match f(&an.key, &an.value, &bn.value) {
                    MergeOutcome::Left => {
                        if stats::ptr_shortcuts_enabled()
                            && links_eq(&left, &an.left)
                            && links_eq(&right, &an.right)
                        {
                            return Some(an.clone());
                        }
                        join(an.key.clone(), an.value.clone(), left, right)
                    }
                    MergeOutcome::Right => {
                        if stats::ptr_shortcuts_enabled()
                            && links_eq(&left, &bn.left)
                            && links_eq(&right, &bn.right)
                        {
                            return Some(bn.clone());
                        }
                        join(bn.key.clone(), bn.value.clone(), left, right)
                    }
                    MergeOutcome::New(v) => join(an.key.clone(), v, left, right),
                }
            } else {
                // Misaligned roots: split the right tree around the left
                // pivot. Only left identity is recoverable here (the right
                // tree was taken apart), which is fine — misalignment only
                // arises for maps with differing key sets.
                let (bl, bm, br) = split(b, &an.key);
                let left = union_outcome(&an.left, &bl, f);
                let right = union_outcome(&an.right, &br, f);
                if let Some(bv) = &bm {
                    match f(&an.key, &an.value, bv) {
                        MergeOutcome::Left => {}
                        MergeOutcome::Right => {
                            return join(an.key.clone(), bv.clone(), left, right);
                        }
                        MergeOutcome::New(v) => {
                            return join(an.key.clone(), v, left, right);
                        }
                    }
                }
                // The left value survives (key absent on the right, or the
                // combiner kept it).
                if stats::ptr_shortcuts_enabled()
                    && links_eq(&left, &an.left)
                    && links_eq(&right, &an.right)
                {
                    return Some(an.clone());
                }
                join(an.key.clone(), an.value.clone(), left, right)
            }
        }
    }
}

fn all2_lockstep<K: Ord, V>(
    a: &Link<K, V>,
    b: &Link<K, V>,
    only_a: &mut impl FnMut(&K, &V) -> bool,
    only_b: &mut impl FnMut(&K, &V) -> bool,
    both: &mut impl FnMut(&K, &V, &V) -> bool,
) -> bool {
    // Iterate in lockstep over both trees' in-order sequences.
    let mut ia = Iter::from_link(a);
    let mut ib = Iter::from_link(b);
    let mut na = ia.next();
    let mut nb = ib.next();
    loop {
        match (na, nb) {
            (None, None) => return true,
            (Some((k, v)), None) => {
                if !only_a(k, v) {
                    return false;
                }
                na = ia.next();
                nb = None;
            }
            (None, Some((k, v))) => {
                if !only_b(k, v) {
                    return false;
                }
                na = None;
                nb = ib.next();
            }
            (Some((ka, va)), Some((kb, vb))) => match ka.cmp(kb) {
                Ordering::Less => {
                    if !only_a(ka, va) {
                        return false;
                    }
                    na = ia.next();
                    nb = Some((kb, vb));
                }
                Ordering::Greater => {
                    if !only_b(kb, vb) {
                        return false;
                    }
                    na = Some((ka, va));
                    nb = ib.next();
                }
                Ordering::Equal => {
                    if !both(ka, va, vb) {
                        return false;
                    }
                    na = ia.next();
                    nb = ib.next();
                }
            },
        }
    }
}

fn all2<K: Ord, V>(
    a: &Link<K, V>,
    b: &Link<K, V>,
    only_a: &mut impl FnMut(&K, &V) -> bool,
    only_b: &mut impl FnMut(&K, &V) -> bool,
    both: &mut impl FnMut(&K, &V, &V) -> bool,
) -> bool {
    if shared(a, b) {
        return true;
    }
    match (a, b) {
        (None, None) => true,
        (Some(_), None) => Iter::from_link(a).all(|(k, v)| only_a(k, v)),
        (None, Some(_)) => Iter::from_link(b).all(|(k, v)| only_b(k, v)),
        (Some(an), Some(bn)) => {
            if an.key == bn.key {
                // Aligned roots: recurse so shared subtrees are skipped at
                // *every* level, preserving ascending-key callback order.
                all2(&an.left, &bn.left, only_a, only_b, both)
                    && both(&an.key, &an.value, &bn.value)
                    && all2(&an.right, &bn.right, only_a, only_b, both)
            } else {
                all2_lockstep(a, b, only_a, only_b, both)
            }
        }
    }
}

fn diff2_lockstep<'a, K: Ord, V>(
    a: &'a Link<K, V>,
    b: &'a Link<K, V>,
    f: &mut impl FnMut(&'a K, Option<&'a V>, Option<&'a V>),
) {
    let mut ia = Iter::from_link(a);
    let mut ib = Iter::from_link(b);
    let mut na = ia.next();
    let mut nb = ib.next();
    loop {
        match (na, nb) {
            (None, None) => return,
            (Some((k, v)), None) => {
                f(k, Some(v), None);
                na = ia.next();
                nb = None;
            }
            (None, Some((k, v))) => {
                f(k, None, Some(v));
                na = None;
                nb = ib.next();
            }
            (Some((ka, va)), Some((kb, vb))) => match ka.cmp(kb) {
                Ordering::Less => {
                    f(ka, Some(va), None);
                    na = ia.next();
                    nb = Some((kb, vb));
                }
                Ordering::Greater => {
                    f(kb, None, Some(vb));
                    na = Some((ka, va));
                    nb = ib.next();
                }
                Ordering::Equal => {
                    f(ka, Some(va), Some(vb));
                    na = ia.next();
                    nb = ib.next();
                }
            },
        }
    }
}

fn diff2<'a, K: Ord, V>(
    a: &'a Link<K, V>,
    b: &'a Link<K, V>,
    f: &mut impl FnMut(&'a K, Option<&'a V>, Option<&'a V>),
) {
    if shared(a, b) {
        return;
    }
    match (a, b) {
        (None, None) => {}
        (Some(_), None) => {
            for (k, v) in Iter::from_link(a) {
                f(k, Some(v), None);
            }
        }
        (None, Some(_)) => {
            for (k, v) in Iter::from_link(b) {
                f(k, None, Some(v));
            }
        }
        (Some(an), Some(bn)) => {
            if an.key == bn.key {
                diff2(&an.left, &bn.left, f);
                f(&an.key, Some(&an.value), Some(&bn.value));
                diff2(&an.right, &bn.right, f);
            } else {
                diff2_lockstep(a, b, f);
            }
        }
    }
}

/// A persistent, reference-counted AVL map.
///
/// Cloning is O(1); the `&self` operations return a new map sharing
/// unmodified subtrees with the original. Bulk binary operations take a
/// physical-equality shortcut on shared subtrees, which is what makes abstract
/// environment joins cheap in the analyzer (paper Sect. 6.1.2). The two
/// `&mut self` writes ([`PMap::set`], [`PMap::set_each`]) replace values at
/// existing keys and write in place every node no other handle can see, so
/// a map nobody else holds is updated without allocating, and no clone ever
/// observes a write made after it was taken.
///
/// # Examples
///
/// ```
/// use astree_pmap::PMap;
/// let m = PMap::new().insert("x", 1).insert("y", 2);
/// assert_eq!(m.get(&"x"), Some(&1));
/// assert_eq!(m.remove(&"x").len(), 1);
/// assert_eq!(m.len(), 2); // the original is untouched
/// ```
pub struct PMap<K, V> {
    root: Link<K, V>,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap { root: self.root.clone() }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None }
    }
}

impl<K, V> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the number of bindings.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Returns `true` if the map holds no binding.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Returns `true` if `self` and `other` are the same physical tree.
    ///
    /// This is a constant-time conservative equality: `true` implies the maps
    /// are equal, `false` implies nothing. Unlike the internal shortcuts this
    /// primitive is *not* disabled by `debug_no_ptr_shortcuts` — callers that
    /// use it as a semantic fast path must gate themselves.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        links_eq(&self.root, &other.root)
    }

    /// Iterates over bindings in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::from_link(&self.root)
    }

    /// Iterates over keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// Returns the value bound to `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut cur = &self.root;
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                Ordering::Equal => return Some(&n.value),
                Ordering::Less => cur = &n.left,
                Ordering::Greater => cur = &n.right,
            }
        }
        None
    }

    /// Returns `true` if `key` is bound.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Walks the whole tree and panics unless every structural invariant
    /// holds: AVL balance (sibling heights differ by at most 2), correct
    /// cached heights and sizes, and strict key ordering within bounds.
    ///
    /// O(n) test support — the property suite runs it after every mutation.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        fn go<K: Ord, V>(t: &Link<K, V>, lo: Option<&K>, hi: Option<&K>) -> u8 {
            match t {
                None => 0,
                Some(n) => {
                    if let Some(lo) = lo {
                        assert!(*lo < n.key, "key below subtree lower bound");
                    }
                    if let Some(hi) = hi {
                        assert!(n.key < *hi, "key above subtree upper bound");
                    }
                    let hl = go(&n.left, lo, Some(&n.key));
                    let hr = go(&n.right, Some(&n.key), hi);
                    assert!(hl.abs_diff(hr) <= 2, "unbalanced node");
                    assert_eq!(n.height, hl.max(hr) + 1, "wrong cached height");
                    assert_eq!(n.size, size(&n.left) + size(&n.right) + 1, "wrong cached size");
                    n.height
                }
            }
        }
        go(&self.root, None, None);
    }
}

impl<K: Clone + Ord, V: Clone> PMap<K, V> {
    /// Returns a map with `key` bound to `value` (replacing any previous
    /// binding).
    #[must_use]
    pub fn insert(&self, key: K, value: V) -> Self {
        PMap { root: insert_at(&self.root, key, value) }
    }

    /// Binds `key` to `value` in this map, writing in place what only this
    /// map can see.
    ///
    /// When `key` is already bound to a value for which `same(old, &value)`
    /// holds the tree is left untouched (one lookup, zero allocations, and
    /// the map stays `ptr_eq` to its clones). Otherwise the root-to-key path
    /// is made unique top-down — a node whose count is 1, reached through
    /// nodes already unique, is kept; a shared one is copied — and the value
    /// is replaced at the end of it. A map cloned just before therefore pays
    /// the same path copy as [`PMap::insert`]; a map nobody else holds pays
    /// nothing. The tree's shape does not change. An absent `key` falls back
    /// to the persistent, rebalancing `insert`.
    ///
    /// `same` may be any conservative identity check (`true` implies the
    /// values are interchangeable); bitwise comparisons are ideal. Under
    /// `debug_no_ptr_shortcuts` it is not consulted and the write always
    /// happens — the resulting bindings are the same either way.
    pub fn set(&mut self, key: K, value: V, same: impl FnOnce(&V, &V) -> bool) {
        let Some(old) = self.get(&key) else {
            *self = self.insert(key, value);
            return;
        };
        if stats::ptr_shortcuts_enabled() && same(old, &value) {
            stats::note_identity_preserved();
            return;
        }
        let mut link = &mut self.root;
        loop {
            let arc = link.as_mut().expect("key is bound: the lookup above found it");
            let side = key.cmp(&arc.key);
            if side == Ordering::Equal {
                match arc.get_mut() {
                    Some(n) => n.value = value,
                    // Shared target: copy it with the new value already in.
                    None => *arc = node(key, value, arc.left.clone(), arc.right.clone()),
                }
                return;
            }
            let n = unique(arc);
            link = if side == Ordering::Less { &mut n.left } else { &mut n.right };
        }
    }

    /// Visits every binding in ascending key order and replaces the value
    /// wherever `f` returns `Some`, in one pass with the ownership rule of
    /// [`PMap::set`]: nodes only this map can see are written in place,
    /// shared subtrees are copied where (and only where) a value under them
    /// is replaced, and a subtree `f` leaves alone keeps its identity.
    pub fn set_each(&mut self, mut f: impl FnMut(&K, &V) -> Option<V>) {
        set_each_at(&mut self.root, &mut f)
    }

    /// Returns a map without `key`. Returns a clone of `self` if absent.
    #[must_use]
    pub fn remove(&self, key: &K) -> Self {
        PMap { root: remove_at(&self.root, key).0 }
    }

    /// Returns a map where the binding of `key` has been replaced by
    /// `f(current)`; inserts `f(None)` if absent and it returns `Some`.
    #[must_use]
    pub fn update(&self, key: K, f: impl FnOnce(Option<&V>) -> Option<V>) -> Self {
        match f(self.get(&key)) {
            Some(v) => self.insert(key, v),
            None => self.remove(&key),
        }
    }

    /// Merges two maps. For keys present on both sides the values are combined
    /// with `f`; keys present on a single side keep their value.
    ///
    /// Physically shared subtrees are returned unchanged without calling `f`,
    /// so `f` must satisfy `f(k, v, v) == v` for the result to be a correct
    /// pointwise merge — which holds for every lattice join/meet/widening the
    /// analyzer uses (they are idempotent). Because `f` returns a bare value,
    /// this merge cannot tell "combined to the same thing" from "changed" and
    /// always rebuilds spine nodes outside shared regions; combiners that can
    /// classify cheaply should use [`PMap::union_outcome`], which preserves
    /// input identity.
    #[must_use]
    pub fn union_with(&self, other: &Self, mut f: impl FnMut(&K, &V, &V) -> V) -> Self {
        self.union_outcome(other, |k, a, b| MergeOutcome::New(f(k, a, b)))
    }

    /// Merges two maps with an identity-aware combiner.
    ///
    /// Like [`PMap::union_with`], but `f` returns a [`MergeOutcome`] so it
    /// can say "keep the left/right value" without a value-equality bound.
    /// Whenever a subtree's merged children are physically equal to one
    /// input's children and the combiner kept that input's value, the
    /// original `Arc` subtree is returned — so a merge that changes nothing
    /// returns a map `ptr_eq` to its input, restoring sharing that later
    /// joins, inclusion tests, and diffs exploit.
    ///
    /// The same idempotence contract as `union_with` applies: on physically
    /// shared subtrees `f` is never called, so `f(k, v, v)` must keep `v`
    /// (either side) for the two modes of `debug_no_ptr_shortcuts` to agree.
    #[must_use]
    pub fn union_outcome(
        &self,
        other: &Self,
        mut f: impl FnMut(&K, &V, &V) -> MergeOutcome<V>,
    ) -> Self {
        stats::note_merge_call();
        if stats::ptr_shortcuts_enabled() && links_eq(&self.root, &other.root) {
            stats::note_root_shortcut();
            return self.clone();
        }
        let root = union_outcome(&self.root, &other.root, &mut f);
        if stats::ptr_shortcuts_enabled()
            && (links_eq(&root, &self.root) || links_eq(&root, &other.root))
        {
            stats::note_identity_preserved();
        }
        PMap { root }
    }

    /// Returns a map retaining only bindings for which `f` returns `Some`,
    /// with the returned value.
    #[must_use]
    pub fn filter_map(&self, mut f: impl FnMut(&K, &V) -> Option<V>) -> Self {
        self.iter().filter_map(|(k, v)| Some((k.clone(), f(k, v)?))).collect()
    }

    /// The bindings this map holds for `keys` (strictly ascending), as a map
    /// of its own: one descent shared by all the keys — a node is visited
    /// only if a key lies under it — instead of one lookup from the root per
    /// key, and the result is built directly like any ascending input.
    #[must_use]
    pub fn pick(&self, keys: &[K]) -> Self {
        fn go<K: Clone + Ord, V: Clone>(t: &Link<K, V>, keys: &[K], out: &mut Vec<(K, V)>) {
            let (Some(n), false) = (t, keys.is_empty()) else { return };
            let (below, above) = match keys.binary_search(&n.key) {
                Ok(i) => (&keys[..i], &keys[i + 1..]),
                Err(i) => (&keys[..i], &keys[i..]),
            };
            go(&n.left, below, out);
            if below.len() + above.len() < keys.len() {
                out.push((n.key.clone(), n.value.clone()));
            }
            go(&n.right, above, out);
        }
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be strictly ascending");
        let mut picked = Vec::with_capacity(keys.len());
        go(&self.root, keys, &mut picked);
        let n = picked.len();
        PMap { root: build_ascending(&mut picked.into_iter(), n) }
    }

    /// Three-way overlay: writes into `self` (with [`PMap::set`]) what
    /// `post` changed relative to `pre`, the map it was derived from. A key
    /// bound in both to values for which `same` holds is skipped; a key whose
    /// value differs, or that only `post` binds, takes `post`'s value; a key
    /// `post` dropped takes `absent(key)`. Subtrees `post` still shares with
    /// `pre` are skipped wholesale ([`PMap::diff2`]), so the cost is that of
    /// the difference, not of the maps.
    pub fn overlay(
        &mut self,
        pre: &Self,
        post: &Self,
        same: impl Fn(&V, &V) -> bool,
        absent: impl Fn(&K) -> V,
    ) {
        post.diff2(pre, |k, post_v, pre_v| match (post_v, pre_v) {
            (Some(v), Some(p)) if same(v, p) => {}
            (Some(v), _) => self.set(k.clone(), v.clone(), &same),
            (None, _) => self.set(k.clone(), absent(k), &same),
        });
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// Checks a pointwise predicate across two maps, in ascending key order.
    ///
    /// `only_a` / `only_b` are applied to bindings present on a single side,
    /// `both` to bindings present on both. Physically shared subtrees are
    /// assumed to satisfy the predicate and skipped at every level of the
    /// walk (not just the root), so `both(k, v, v)` must be `true` — which
    /// holds for the reflexive orderings (`⊑`) the analyzer checks.
    pub fn all2(
        &self,
        other: &Self,
        mut only_a: impl FnMut(&K, &V) -> bool,
        mut only_b: impl FnMut(&K, &V) -> bool,
        mut both: impl FnMut(&K, &V, &V) -> bool,
    ) -> bool {
        if stats::ptr_shortcuts_enabled() && links_eq(&self.root, &other.root) {
            stats::note_root_shortcut();
            return true;
        }
        all2(&self.root, &other.root, &mut only_a, &mut only_b, &mut both)
    }

    /// `true` when the two maps bind exactly the same keys (shared subtrees
    /// are skipped like in [`PMap::all2`]).
    pub fn same_keys(&self, other: &Self) -> bool {
        self.len() == other.len() && self.all2(other, |_, _| false, |_, _| false, |_, _, _| true)
    }

    /// Visits, in ascending key order, the bindings of the two maps that lie
    /// in non-shared subtrees — bindings differing or present on one side
    /// only, plus any equal-valued bindings whose surrounding spine was path
    /// copied (callers filter by value when they care). Physically shared
    /// regions are skipped wholesale at every level, so the cost is
    /// proportional to the *diff* between the maps, not their size.
    pub fn diff2(&self, other: &Self, mut f: impl FnMut(&K, Option<&V>, Option<&V>)) {
        if stats::ptr_shortcuts_enabled() && links_eq(&self.root, &other.root) {
            stats::note_root_shortcut();
            return;
        }
        diff2(&self.root, &other.root, &mut f)
    }

    /// Folds an accumulator over the [`PMap::diff2`] traversal.
    pub fn fold2<A>(
        &self,
        other: &Self,
        init: A,
        mut f: impl FnMut(A, &K, Option<&V>, Option<&V>) -> A,
    ) -> A {
        let mut acc = Some(init);
        self.diff2(other, |k, va, vb| {
            let a = acc.take().expect("fold2 accumulator always present");
            acc = Some(f(a, k, va, vb));
        });
        acc.expect("fold2 accumulator always present")
    }
}

/// Builds the balanced tree of the next `n` bindings of `it`, which arrive in
/// strictly ascending key order: the middle binding becomes the root, so
/// sibling sizes differ by at most one and every node is allocated once.
fn build_ascending<K, V>(it: &mut impl Iterator<Item = (K, V)>, n: usize) -> Link<K, V> {
    if n == 0 {
        return None;
    }
    let left = build_ascending(it, n / 2);
    let (key, value) = it.next().expect("the caller counted n bindings");
    let right = build_ascending(it, n - n / 2 - 1);
    create(key, value, left, right)
}

/// Strictly ascending input (what the analyzer feeds: cell ids and pack
/// indices in layout order) is built in O(n) with one allocation per binding;
/// anything else goes through `n` rebalancing inserts, the last binding of a
/// key winning. The tree's shape depends only on the number of bindings, so
/// two maps built from the same ascending keys are root-aligned all the way
/// down.
impl<K: Clone + Ord, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let items: Vec<(K, V)> = iter.into_iter().collect();
        if items.windows(2).all(|w| w[0].0 < w[1].0) {
            let n = items.len();
            return PMap { root: build_ascending(&mut items.into_iter(), n) };
        }
        let mut m = PMap::new();
        for (k, v) in items {
            m = m.insert(k, v);
        }
        m
    }
}

impl<K: Clone + Ord, V: Clone> Extend<(K, V)> for PMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            *self = self.insert(k, v);
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.all2(other, |_, _| false, |_, _| false, |_, a, b| a == b)
    }
}

impl<K: Ord, V: Eq> Eq for PMap<K, V> {}

impl<'a, K, V> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// In-order iterator over a [`PMap`], produced by [`PMap::iter`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn from_link(link: &'a Link<K, V>) -> Self {
        let mut it = Iter { stack: Vec::new() };
        it.push_left(link);
        it
    }

    fn push_left(&mut self, mut link: &'a Link<K, V>) {
        while let Some(n) = link {
            self.stack.push(n);
            link = &n.left;
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        self.push_left(&n.right);
        Some((&n.key, &n.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_avl<K: Ord, V>(t: &Link<K, V>) -> u8 {
        match t {
            None => 0,
            Some(n) => {
                let hl = check_avl(&n.left);
                let hr = check_avl(&n.right);
                assert!(hl.abs_diff(hr) <= 2, "unbalanced node");
                assert_eq!(n.height, hl.max(hr) + 1, "wrong cached height");
                assert_eq!(n.size, size(&n.left) + size(&n.right) + 1, "wrong cached size");
                if let Some(l) = &n.left {
                    assert!(l.key < n.key, "left key out of order");
                }
                if let Some(r) = &n.right {
                    assert!(r.key > n.key, "right key out of order");
                }
                n.height
            }
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut m = PMap::new();
        for i in 0..100 {
            m = m.insert(i * 7 % 101, i);
        }
        check_avl(&m.root);
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&7), Some(&1), "key of i = 1 is 1 * 7 % 101");
        let m2 = m.remove(&7);
        check_avl(&m2.root);
        assert_eq!(m2.len(), 99);
        assert!(m.contains_key(&7), "original unchanged");
    }

    #[test]
    fn insert_replaces() {
        let m = PMap::new().insert(1, "a").insert(1, "b");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&1), Some(&"b"));
    }

    #[test]
    fn remove_absent_is_noop() {
        let m = PMap::new().insert(1, 1);
        let m2 = m.remove(&42);
        assert_eq!(m, m2);
        assert!(m.ptr_eq(&m2), "absent-key removal must not copy the path");
    }

    #[test]
    fn set_same_value_preserves_identity() {
        let m: PMap<u32, u32> = (0..100).map(|i| (i, i)).collect();
        let mut same = m.clone();
        same.set(7, 7, |a, b| a == b);
        assert!(m.ptr_eq(&same), "no-op set must leave the tree untouched");
        let mut changed = m.clone();
        changed.set(7, 99, |a, b| a == b);
        assert!(!m.ptr_eq(&changed));
        assert_eq!((m.get(&7), changed.get(&7)), (Some(&7), Some(&99)), "the clone is unaffected");
        let mut fresh = m.clone();
        fresh.set(1000, 1, |a, b| a == b);
        assert_eq!(fresh.len(), 101);
        check_avl(&fresh.root);
    }

    #[test]
    fn set_writes_in_place_when_unique_and_copies_what_is_shared() {
        let mut m: PMap<u32, u32> = (0..1000).map(|i| (i, i)).collect();
        let _ = stats::take_stats();
        for k in 0..1000 {
            m.set(k, k + 1, |a, b| a == b);
        }
        assert_eq!(stats::take_stats().nodes_allocated, 0, "sole owner: every write is in place");
        let old = m.clone();
        m.set(3, 0, |a, b| a == b);
        let first = stats::take_stats().nodes_allocated;
        assert!((1..=12).contains(&first), "a clone shares the root: one path copy, got {first}");
        m.set(3, 1, |a, b| a == b);
        assert_eq!(stats::take_stats().nodes_allocated, 0, "that path is now this map's own");
        assert_eq!((old.get(&3), m.get(&3)), (Some(&4), Some(&1)));
        check_avl(&m.root);
    }

    #[test]
    fn set_each_copies_only_changed_shared_subtrees() {
        let base: PMap<u32, u32> = (0..1024).map(|i| (i, i)).collect();
        let mut m = base.clone();
        let _ = stats::take_stats();
        m.set_each(|_, _| None);
        assert!(m.ptr_eq(&base), "nothing replaced: identity kept");
        m.set_each(|k, v| (*k == 700).then_some(v + 1));
        let copied = stats::take_stats().nodes_allocated;
        assert!((1..=12).contains(&copied), "one changed key under a shared root: {copied}");
        assert_eq!((base.get(&700), m.get(&700)), (Some(&700), Some(&701)));
        drop(base);
        m.set_each(|_, v| Some(v * 2));
        assert_eq!(
            stats::take_stats().nodes_allocated,
            0,
            "sole owner: the whole pass is in place"
        );
        assert_eq!(m.get(&700), Some(&1402));
        assert_eq!(m.iter().map(|(k, _)| *k).collect::<Vec<_>>(), (0..1024).collect::<Vec<_>>());
        check_avl(&m.root);
    }

    #[test]
    fn union_prefers_combined() {
        let a: PMap<u32, u32> = (0..50).map(|i| (i, i)).collect();
        let b: PMap<u32, u32> = (25..75).map(|i| (i, 100 + i)).collect();
        let u = a.union_with(&b, |_, x, y| x + y);
        assert_eq!(u.len(), 75);
        assert_eq!(u.get(&10), Some(&10));
        assert_eq!(u.get(&30), Some(&(30 + 130)));
        assert_eq!(u.get(&70), Some(&170));
        check_avl(&u.root);
    }

    #[test]
    fn union_shares_identical_subtrees() {
        use std::cell::Cell;
        let base: PMap<u32, u32> = (0..1000).map(|i| (i, 0)).collect();
        let a = base.insert(10, 1);
        let b = base.insert(990, 2);
        let calls = Cell::new(0u32);
        let u = a.union_with(&b, |_, x, y| {
            calls.set(calls.get() + 1);
            *x.max(y)
        });
        assert_eq!(u.len(), 1000);
        // The combine function must only run on the few bindings whose paths
        // were copied, not on all 1000.
        assert!(calls.get() < 64, "combine ran {} times", calls.get());
    }

    #[test]
    fn union_outcome_preserves_left_identity() {
        let a: PMap<u32, u32> = (0..500).map(|i| (i, i)).collect();
        let b = a.insert(250, 0);
        // A combiner that always keeps the left value: merging any map into
        // `a` this way is a no-op, so the result must be `a` itself.
        let u = a.union_outcome(&b, |_, _, _| MergeOutcome::Left);
        assert!(u.ptr_eq(&a), "identity-preserving merge must return the left input");
        // Symmetrically for the right side.
        let u = b.union_outcome(&a, |_, _, _| MergeOutcome::Right);
        assert!(u.ptr_eq(&a), "identity-preserving merge must return the right input");
    }

    #[test]
    fn union_outcome_rebuilds_only_changed_paths() {
        let a: PMap<u32, u32> = (0..1000).map(|i| (i, i)).collect();
        let b = a.insert(123, 9999);
        let _ = stats::take_stats();
        let u = a.union_outcome(
            &b,
            |_, x, y| {
                if x >= y {
                    MergeOutcome::Left
                } else {
                    MergeOutcome::Right
                }
            },
        );
        let after = stats::take_stats();
        assert_eq!(u.get(&123), Some(&9999));
        assert_eq!(u.len(), 1000);
        check_avl(&u.root);
        // Only the path to key 123 may be rebuilt: O(log n), not O(n).
        assert!(after.nodes_allocated < 32, "allocated {}", after.nodes_allocated);
        assert!(after.interior_shortcut_hits > 0);
    }

    #[test]
    fn union_outcome_misaligned_roots() {
        // Different key sets force the split fallback; results must still be
        // correct and balanced, and a no-op merge keeps left identity.
        let a: PMap<u32, u32> = (0..100).map(|i| (2 * i, i)).collect();
        let b: PMap<u32, u32> = (0..100).map(|i| (2 * i + 1, 1000 + i)).collect();
        let u = a.union_outcome(&b, |_, _, _| MergeOutcome::Left);
        assert_eq!(u.len(), 200);
        assert_eq!(u.get(&4), Some(&2));
        assert_eq!(u.get(&5), Some(&1002));
        check_avl(&u.root);
        let empty = PMap::new();
        let v = a.union_outcome(&empty, |_, _, _| MergeOutcome::Left);
        assert!(v.ptr_eq(&a));
    }

    #[test]
    fn disabled_shortcuts_same_logical_result() {
        let a: PMap<u32, u32> = (0..200).map(|i| (i, i)).collect();
        let b = a.insert(50, 500).insert(150, 1);
        let max = |_: &u32, x: &u32, y: &u32| {
            if x >= y {
                MergeOutcome::Left
            } else {
                MergeOutcome::Right
            }
        };
        let fast = a.union_outcome(&b, max);
        let was = stats::set_ptr_shortcuts(false);
        let slow = a.union_outcome(&b, max);
        let mut slow_ins = a.clone();
        slow_ins.set(7, 7, |x, y| x == y);
        stats::set_ptr_shortcuts(was);
        assert_eq!(fast, slow, "shortcut and no-shortcut merges must agree");
        assert!(!slow.ptr_eq(&a) && !slow.ptr_eq(&b), "no identity without shortcuts");
        assert_eq!(slow_ins, a);
        assert!(!slow_ins.ptr_eq(&a), "no-op set fast path must be off");
        check_avl(&slow.root);
    }

    #[test]
    fn all2_lockstep() {
        let a: PMap<u32, u32> = (0..10).map(|i| (i, i)).collect();
        let b = a.insert(5, 99);
        assert!(!a.all2(&b, |_, _| true, |_, _| true, |_, x, y| x == y));
        assert!(a.all2(&b, |_, _| true, |_, _| true, |k, x, y| *k == 5 || x == y));
        let c = a.remove(&9);
        assert!(!a.all2(&c, |_, _| false, |_, _| true, |_, _, _| true));
    }

    #[test]
    fn all2_skips_shared_interior() {
        use std::cell::Cell;
        let base: PMap<u32, u32> = (0..1000).map(|i| (i, i)).collect();
        let b = base.insert(700, 0);
        let visited = Cell::new(0u32);
        assert!(base.all2(
            &b,
            |_, _| false,
            |_, _| false,
            |_, x, y| {
                visited.set(visited.get() + 1);
                x >= y
            }
        ));
        assert!(visited.get() < 32, "visited {} bindings", visited.get());
    }

    #[test]
    fn diff2_reports_changes_only() {
        let base: PMap<u32, u32> = (0..100).map(|i| (i, 0)).collect();
        let a = base.insert(3, 1);
        let b = base.insert(3, 2).remove(&50);
        let mut diffs = Vec::new();
        a.diff2(&b, |k, va, vb| {
            if va != vb {
                diffs.push((*k, va.copied(), vb.copied()));
            }
        });
        assert!(diffs.contains(&(3, Some(1), Some(2))));
        assert!(diffs.contains(&(50, Some(0), None)));
        assert_eq!(diffs.len(), 2);
    }

    #[test]
    fn diff2_visits_diff_not_size() {
        use std::cell::Cell;
        let base: PMap<u32, u32> = (0..2000).map(|i| (i, 0)).collect();
        let b = base.insert(1234, 7);
        let visited = Cell::new(0u32);
        base.diff2(&b, |_, _, _| visited.set(visited.get() + 1));
        assert!(visited.get() < 48, "visited {} bindings", visited.get());
        // Identical maps: nothing visited at all.
        visited.set(0);
        base.diff2(&base.clone(), |_, _, _| visited.set(visited.get() + 1));
        assert_eq!(visited.get(), 0);
    }

    #[test]
    fn fold2_accumulates() {
        let base: PMap<u32, u32> = (0..100).map(|i| (i, 0)).collect();
        let b = base.insert(10, 1).insert(90, 2);
        let changed = base.fold2(&b, 0u32, |acc, _, va, vb| acc + u32::from(va != vb));
        assert_eq!(changed, 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let m: PMap<i32, i32> = [(5, 0), (1, 0), (9, 0), (3, 0)].into_iter().collect();
        let keys: Vec<i32> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn update_inserts_and_removes() {
        let m: PMap<u32, u32> = PMap::new();
        let m = m.update(1, |v| {
            assert!(v.is_none());
            Some(10)
        });
        assert_eq!(m.get(&1), Some(&10));
        let m = m.update(1, |v| {
            assert_eq!(v, Some(&10));
            None
        });
        assert!(m.is_empty());
    }

    #[test]
    fn stats_count_allocations_and_shortcuts() {
        let _ = stats::take_stats();
        let m: PMap<u32, u32> = (0..10).map(|i| (i, i)).collect();
        let s = stats::take_stats();
        assert!(s.nodes_allocated >= 10, "10 inserts allocate at least 10 nodes");
        let u = m.union_outcome(&m.clone(), |_, _, _| MergeOutcome::Left);
        assert!(u.ptr_eq(&m));
        let s = stats::take_stats();
        assert_eq!(s.merge_calls, 1);
        assert_eq!(s.root_shortcut_hits, 1);
        assert_eq!(s.nodes_allocated, 0);
    }

    #[test]
    fn debug_nonempty() {
        let m: PMap<u32, u32> = PMap::new();
        assert_eq!(format!("{m:?}"), "{}");
        let m = m.insert(1, 2);
        assert_eq!(format!("{m:?}"), "{1: 2}");
    }
}
