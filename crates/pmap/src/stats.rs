//! Thread-local sharing telemetry.
//!
//! Every counter is a plain thread-local `Cell` so the persistent-map hot
//! path (node allocation, merge recursion) counts without synchronization;
//! parallel slice workers each accumulate privately and the iterator drains
//! them per slice with [`take_stats`], exactly like the octagon crate's
//! saved-closure counter. The aggregate surfaces as the `pmap` section of
//! the `astree-metrics/1` document.
//!
//! The pointer shortcuts these counters count (root and interior subtree
//! skips, identity-preserving merge returns, the no-op write that leaves the
//! tree alone) are compiled out by the crate's `reference` feature, the one
//! switch of every fast path and its plain reference: a reference build
//! counts no shortcut hit and no preserved identity, and its results are
//! bit-identical — the combiners the analyzer passes are idempotent
//! (`f(k, v, v) == v`) and the predicates reflexive.

use astree_obs::PmapCounters;
use std::cell::Cell;

thread_local! {
    static NODES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static MERGE_CALLS: Cell<u64> = const { Cell::new(0) };
    static ROOT_SHORTCUT_HITS: Cell<u64> = const { Cell::new(0) };
    static INTERIOR_SHORTCUT_HITS: Cell<u64> = const { Cell::new(0) };
    static IDENTITY_PRESERVED: Cell<u64> = const { Cell::new(0) };
    static NODES_RECYCLED: Cell<u64> = const { Cell::new(0) };
    static SLAB_BYTES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static SLAB_BYTES_FREED: Cell<u64> = const { Cell::new(0) };
}

/// Drains this thread's counters, resetting them to zero.
pub fn take_stats() -> PmapCounters {
    PmapCounters {
        nodes_allocated: NODES_ALLOCATED.with(|c| c.replace(0)),
        merge_calls: MERGE_CALLS.with(|c| c.replace(0)),
        root_shortcut_hits: ROOT_SHORTCUT_HITS.with(|c| c.replace(0)),
        interior_shortcut_hits: INTERIOR_SHORTCUT_HITS.with(|c| c.replace(0)),
        identity_preserved: IDENTITY_PRESERVED.with(|c| c.replace(0)),
        nodes_recycled: NODES_RECYCLED.with(|c| c.replace(0)),
        slab_bytes_allocated: SLAB_BYTES_ALLOCATED.with(|c| c.replace(0)),
        slab_bytes_freed: SLAB_BYTES_FREED.with(|c| c.replace(0)),
    }
}

pub(crate) fn note_node_alloc() {
    NODES_ALLOCATED.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_merge_call() {
    MERGE_CALLS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_root_shortcut() {
    ROOT_SHORTCUT_HITS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_interior_shortcut() {
    INTERIOR_SHORTCUT_HITS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_identity_preserved() {
    IDENTITY_PRESERVED.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_node_recycled() {
    NODES_RECYCLED.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_slab_alloc(bytes: u64) {
    SLAB_BYTES_ALLOCATED.with(|c| c.set(c.get() + bytes));
}

pub(crate) fn note_slab_free(bytes: u64) {
    SLAB_BYTES_FREED.with(|c| c.set(c.get() + bytes));
}
