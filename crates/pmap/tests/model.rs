//! Property tests checking `PMap` against a `BTreeMap` model.
//!
//! Two kinds of inputs: independently built maps (no physical sharing, so
//! every combiner call is observable) and *derived* maps (`ops_b` applied on
//! top of a common ancestor, so subtrees really are shared and the
//! identity/shortcut machinery is exercised). The structural invariant
//! checker runs after every single mutation. The ownership tests at the end
//! interleave the in-place writes with clones, persistent inserts, merges
//! and drops over several handles, each against a model of its own.

use astree_pmap::{MergeOutcome, PMap};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, i32),
    Remove(u16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u16>(), any::<i32>()).prop_map(|(k, v)| Op::Insert(k % 256, v)),
            any::<u16>().prop_map(|k| Op::Remove(k % 256)),
        ],
        0..200,
    )
}

/// Applies `ops` to an existing map/model pair, checking the AVL balance,
/// cached-size, and ordering invariants after every mutation.
fn apply(
    mut p: PMap<u16, i32>,
    mut m: BTreeMap<u16, i32>,
    ops: &[Op],
) -> (PMap<u16, i32>, BTreeMap<u16, i32>) {
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                p = p.insert(*k, *v);
                m.insert(*k, *v);
            }
            Op::Remove(k) => {
                p = p.remove(k);
                m.remove(k);
            }
        }
        p.assert_invariants();
    }
    (p, m)
}

fn run(ops: &[Op]) -> (PMap<u16, i32>, BTreeMap<u16, i32>) {
    apply(PMap::new(), BTreeMap::new(), ops)
}

proptest! {
    #[test]
    fn matches_btreemap(ops in ops()) {
        let (p, m) = run(&ops);
        prop_assert_eq!(p.len(), m.len());
        let got: Vec<(u16, i32)> = p.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, i32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        for k in 0u16..256 {
            prop_assert_eq!(p.get(&k), m.get(&k));
        }
    }

    #[test]
    fn union_matches_model(ops_a in ops(), ops_b in ops()) {
        let (pa, ma) = run(&ops_a);
        let (pb, mb) = run(&ops_b);
        let pu = pa.union_with(&pb, |_, a, b| a.wrapping_add(*b));
        pu.assert_invariants();
        let mut mu = ma.clone();
        for (k, v) in &mb {
            mu.entry(*k).and_modify(|x| *x = x.wrapping_add(*v)).or_insert(*v);
        }
        let got: Vec<(u16, i32)> = pu.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, i32)> = mu.iter().map(|(k, v)| (*k, *v)).collect();
        // union_with may skip f on physically shared subtrees; that only
        // happens when both sides are identical, in which case idempotent f
        // would diverge from wrapping_add. Restrict the check accordingly.
        if !pa.ptr_eq(&pb) {
            prop_assert_eq!(got, want);
        }
    }

    /// Keep-the-max merge over maps derived from a common ancestor: the
    /// combiner is idempotent, so the result must match the model *despite*
    /// shared subtrees being skipped, and the result must stay balanced.
    #[test]
    fn union_outcome_matches_model_on_derived_maps(ops_a in ops(), ops_b in ops()) {
        let (pa, ma) = run(&ops_a);
        let (pb, mb) = apply(pa.clone(), ma.clone(), &ops_b);
        let pu = pa.union_outcome(&pb, |_, a, b| {
            if a >= b { MergeOutcome::Left } else { MergeOutcome::Right }
        });
        pu.assert_invariants();
        let mut mu = ma.clone();
        for (k, v) in &mb {
            mu.entry(*k).and_modify(|x| *x = (*x).max(*v)).or_insert(*v);
        }
        let got: Vec<(u16, i32)> = pu.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, i32)> = mu.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// Identity preservation: merging a map with itself, keeping either
    /// side, or re-inserting a value already bound must return the input
    /// physically unchanged.
    #[test]
    fn identity_preserving_operations(ops_a in ops()) {
        let (pa, ma) = run(&ops_a);
        prop_assert!(pa.union_with(&pa.clone(), |_, a, _| *a).ptr_eq(&pa));
        prop_assert!(pa.union_outcome(&pa.clone(), |_, _, _| MergeOutcome::Left).ptr_eq(&pa));
        for (k, v) in ma.iter().take(16) {
            let mut p2 = pa.clone();
            p2.set(*k, *v, |a, b| a == b);
            prop_assert!(p2.ptr_eq(&pa), "no-op set of ({}, {}) copied the path", k, v);
        }
        // Key 999 is outside the generated 0..256 range, so this set is
        // never a no-op: it takes the rebalancing fallback.
        let mut p3 = pa.clone();
        p3.set(999, 1, |a, b| a == b);
        p3.assert_invariants();
        prop_assert_eq!(p3.len(), ma.len() + 1);
    }

    #[test]
    fn all2_agrees_with_pointwise(ops_a in ops(), ops_b in ops()) {
        let (pa, ma) = run(&ops_a);
        let (pb, mb) = run(&ops_b);
        let got = pa.all2(&pb, |_, _| false, |_, _| false, |_, x, y| x == y);
        let want = ma == mb;
        prop_assert_eq!(got, want);
    }

    /// `all2` as a pointwise `≤` over derived maps — the shape the
    /// analyzer's inclusion tests take, where interior sharing is real.
    #[test]
    fn all2_leq_on_derived_maps(ops_a in ops(), ops_b in ops()) {
        let (pa, ma) = run(&ops_a);
        let (pb, mb) = apply(pa.clone(), ma.clone(), &ops_b);
        let got = pa.all2(&pb, |_, _| false, |_, _| true, |_, x, y| x <= y);
        let want = ma.iter().all(|(k, v)| mb.get(k).is_some_and(|w| v <= w));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn diff_visits_exactly_differences(ops_a in ops(), ops_b in ops()) {
        let (pa, ma) = run(&ops_a);
        let (pb, mb) = run(&ops_b);
        let mut seen = BTreeSet::new();
        pa.diff2(&pb, |k, va, vb| {
            if va != vb {
                seen.insert(*k);
            }
        });
        let keys: BTreeSet<u16> = ma.keys().chain(mb.keys()).copied().collect();
        let want: BTreeSet<u16> =
            keys.into_iter().filter(|k| ma.get(k) != mb.get(k)).collect();
        prop_assert_eq!(seen, want);
    }

    /// `diff2`/`fold2` over derived maps: shared regions are skipped, yet
    /// every differing binding must still be reported exactly once.
    #[test]
    fn diff2_exact_on_derived_maps(ops_a in ops(), ops_b in ops()) {
        let (pa, ma) = run(&ops_a);
        let (pb, mb) = apply(pa.clone(), ma.clone(), &ops_b);
        let mut seen = BTreeSet::new();
        pa.diff2(&pb, |k, va, vb| {
            if va != vb {
                let fresh = seen.insert(*k);
                assert!(fresh, "binding {k} reported twice");
            }
        });
        let keys: BTreeSet<u16> = ma.keys().chain(mb.keys()).copied().collect();
        let want: BTreeSet<u16> =
            keys.into_iter().filter(|k| ma.get(k) != mb.get(k)).collect();
        prop_assert_eq!(&seen, &want);
        let n = pa.fold2(&pb, 0usize, |acc, _, va, vb| acc + usize::from(va != vb));
        prop_assert_eq!(n, want.len());
    }

    /// `collect()` builds ascending input directly and anything else by
    /// inserts: either way the result is a valid AVL tree holding what the
    /// insert-built map holds (the last binding of a duplicated key).
    #[test]
    fn from_iter_matches_insert_built_map(
        pairs in prop::collection::vec((0u16..512, any::<i32>()), 0..300),
    ) {
        let by_inserts = |input: &[(u16, i32)]| {
            input.iter().fold(PMap::new(), |m, (k, v)| m.insert(*k, *v))
        };
        let model: BTreeMap<u16, i32> = pairs.iter().copied().collect();
        let sorted: Vec<(u16, i32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        let reversed: Vec<(u16, i32)> = sorted.iter().rev().copied().collect();
        let duplicated: Vec<(u16, i32)> =
            sorted.iter().flat_map(|(k, v)| [(*k, v.wrapping_add(1)), (*k, *v)]).collect();
        for input in [&sorted, &reversed, &duplicated, &pairs] {
            let built: PMap<u16, i32> = input.iter().copied().collect();
            built.assert_invariants();
            prop_assert_eq!(&built, &by_inserts(input));
            prop_assert_eq!(built.len(), model.len());
        }
        let built: PMap<u16, i32> = sorted.iter().copied().collect();
        // `pick` is the lookup of each key, in one descent.
        let wanted: Vec<u16> = (0u16..512).filter(|k| k % 3 != 1).collect();
        let picked = by_inserts(&pairs).pick(&wanted);
        picked.assert_invariants();
        let looked_up: PMap<u16, i32> =
            wanted.iter().filter_map(|k| Some((*k, *model.get(k)?))).collect();
        prop_assert_eq!(&picked, &looked_up);
        let again: PMap<u16, i32> = sorted.iter().map(|(k, v)| (*k, v.wrapping_mul(3))).collect();
        prop_assert!(built.same_keys(&again));
        prop_assert_eq!(built.same_keys(&again.remove(&sorted.first().map_or(0, |p| p.0))),
                        sorted.is_empty());
    }

    /// `overlay` writes into a third map exactly what `post` changed against
    /// `pre`: changed and added keys take `post`'s value, dropped keys the
    /// `absent` value, everything else keeps what the target held.
    #[test]
    fn overlay_applies_the_difference(ops_a in ops(), ops_b in ops(), ops_c in ops()) {
        let (pre, m_pre) = run(&ops_a);
        let (post, m_post) = apply(pre.clone(), m_pre.clone(), &ops_b);
        let (mut into, mut m_into) = apply(pre.clone(), m_pre.clone(), &ops_c);
        into.overlay(&pre, &post, |a, b| a == b, |_| -1);
        into.assert_invariants();
        let keys: BTreeSet<u16> = m_pre.keys().chain(m_post.keys()).copied().collect();
        for k in keys {
            match (m_post.get(&k), m_pre.get(&k)) {
                (Some(v), p) if p != Some(v) => { m_into.insert(k, *v); }
                (None, Some(_)) => { m_into.insert(k, -1); }
                _ => {}
            }
        }
        let got: Vec<(u16, i32)> = into.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, i32)> = m_into.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// The ownership rule: whatever the interleaving of clones, in-place
    /// writes, persistent inserts, merges and drops, every handle holds
    /// exactly what its own model says — so no handle ever observes a write
    /// made through another — stays a valid AVL tree, and physical equality
    /// still implies equal contents.
    #[test]
    fn handles_never_observe_each_others_writes(steps in handle_ops()) {
        let mut handles = vec![Handle::default()];
        for step in &steps {
            let n = handles.len();
            let at = |i: u8| i as usize % n;
            match *step {
                HandleOp::Clone(i) if handles.len() < 8 => {
                    let h = handles[at(i)].clone();
                    handles.push(h);
                }
                HandleOp::Clone(_) => {}
                HandleOp::Set(i, k, v) => {
                    let h = &mut handles[at(i)];
                    h.map.set(k, v, |a, b| a == b);
                    h.model.insert(k, v);
                }
                HandleOp::SetEach(i, d) => {
                    let h = &mut handles[at(i)];
                    h.map.set_each(|k, v| (k % 3 == 0).then(|| v.wrapping_add(d)));
                    for (k, v) in h.model.iter_mut() {
                        if k % 3 == 0 {
                            *v = v.wrapping_add(d);
                        }
                    }
                }
                HandleOp::Insert(i, k, v) => {
                    let h = &mut handles[at(i)];
                    h.map = h.map.insert(k, v);
                    h.model.insert(k, v);
                }
                HandleOp::Union(i, j) => {
                    let other = handles[at(j)].clone();
                    let h = &mut handles[at(i)];
                    h.map = h.map.union_outcome(&other.map, |_, a, b| {
                        if a >= b { MergeOutcome::Left } else { MergeOutcome::Right }
                    });
                    for (k, v) in &other.model {
                        h.model.entry(*k).and_modify(|x| *x = (*x).max(*v)).or_insert(*v);
                    }
                }
                HandleOp::Drop(i) if handles.len() > 1 => {
                    let i = at(i);
                    handles.swap_remove(i);
                }
                HandleOp::Drop(_) => {}
            }
            for (i, h) in handles.iter().enumerate() {
                h.map.assert_invariants();
                let got: Vec<(u16, i32)> = h.map.iter().map(|(k, v)| (*k, *v)).collect();
                let want: Vec<(u16, i32)> = h.model.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(got, want, "handle {} after {:?}", i, step);
                for g in &handles[..i] {
                    if g.map.ptr_eq(&h.map) {
                        prop_assert_eq!(&g.model, &h.model, "ptr_eq handles differ after {:?}", step);
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Handle {
    map: PMap<u16, i32>,
    model: BTreeMap<u16, i32>,
}

#[derive(Debug, Clone, Copy)]
enum HandleOp {
    Clone(u8),
    Set(u8, u16, i32),
    SetEach(u8, i32),
    Insert(u8, u16, i32),
    Union(u8, u8),
    Drop(u8),
}

fn handle_ops() -> impl Strategy<Value = Vec<HandleOp>> {
    let key = || any::<u16>().prop_map(|k| k % 48);
    prop::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(HandleOp::Clone),
            (any::<u8>(), key(), any::<i32>()).prop_map(|(i, k, v)| HandleOp::Set(i, k, v)),
            (any::<u8>(), key(), any::<i32>()).prop_map(|(i, k, v)| HandleOp::Set(i, k, v)),
            (any::<u8>(), any::<i32>()).prop_map(|(i, d)| HandleOp::SetEach(i, d % 2)),
            (any::<u8>(), key(), any::<i32>()).prop_map(|(i, k, v)| HandleOp::Insert(i, k, v)),
            (any::<u8>(), any::<u8>()).prop_map(|(i, j)| HandleOp::Union(i, j)),
            any::<u8>().prop_map(HandleOp::Drop),
        ],
        0..120,
    )
}

/// A clone handed to another thread keeps its contents while the original is
/// written, and once that thread has dropped it the original writes in place
/// again. The channel and the join force both orders; no sleeps.
#[test]
fn clone_on_another_thread_is_isolated_from_writes() {
    use std::sync::mpsc::channel;
    let mut map: PMap<u32, u64> = (0..512).map(|k| (k, 0)).collect();
    let snapshot = map.clone();
    let (holding_tx, holding_rx) = channel();
    let (written_tx, written_rx) = channel::<()>();
    let reader = std::thread::spawn(move || {
        holding_tx.send(()).unwrap();
        // Read while the writer is busy, then once more after it is done.
        let busy: u64 = snapshot.values().sum();
        written_rx.recv().unwrap();
        let after: u64 = snapshot.values().sum();
        (busy, after)
    });
    holding_rx.recv().unwrap();
    for k in 0..512 {
        map.set(k, 1, |a, b| a == b);
    }
    written_tx.send(()).unwrap();
    assert_eq!(reader.join().unwrap(), (0, 0), "the clone saw a write made after it was taken");
    assert_eq!(map.values().sum::<u64>(), 512);
    // The reader's handle is gone and the paths above were copied once:
    // everything is this map's own now.
    let _ = astree_pmap::take_stats();
    for k in 0..512 {
        map.set(k, 2, |a, b| a == b);
    }
    assert_eq!(astree_pmap::take_stats().nodes_allocated, 0);
    map.assert_invariants();
}
