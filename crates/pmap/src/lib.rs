//! Persistent balanced maps with structural sharing.
//!
//! The PLDI 2003 analyzer (Sect. 6.1.2) stores abstract environments in
//! functional maps implemented as sharable balanced binary trees, with
//! short-cut evaluation when joining physically identical subtrees. This crate
//! provides that substrate: a persistent AVL map ([`PMap`]) whose nodes are
//! reference-counted and whose bulk operations ([`PMap::union_with`],
//! [`PMap::all2`], …) skip shared subtrees in constant time, so the cost of a
//! join between two environments derived from a common ancestor is
//! proportional to the number of *differing* bindings rather than to the total
//! environment size. A point write by a map's only holder ([`PMap::set`])
//! touches no allocator at all: nodes nobody else can see are written in
//! place. Nodes live in a size-classed slab arena ([`mod@slab`])
//! behind a minimal refcounted pointer, with dropped nodes recycled through
//! free lists — the `nodes_recycled` and `slab_bytes_*` counters of
//! [`take_stats`] quantify the allocator traffic this removes from the hot
//! path.
//!
//! # Examples
//!
//! ```
//! use astree_pmap::PMap;
//!
//! let base: PMap<u32, i64> = (0..1000).map(|k| (k, 0)).collect();
//! let left = base.insert(3, 1);
//! let right = base.insert(997, 2);
//! // The union visits only the two modified paths, not all 1000 bindings.
//! let joined = left.union_with(&right, |_, a, b| *a.max(b));
//! assert_eq!(joined.get(&3), Some(&1));
//! assert_eq!(joined.get(&997), Some(&2));
//! assert_eq!(joined.len(), 1000);
//! ```

// The workspace's only `unsafe`: the refcount and the slab it allocates
// from. Every site states why it is sound.
#[allow(unsafe_code)]
mod arc;
mod map;
#[allow(unsafe_code)]
mod slab;
mod stats;

pub use map::{Iter, MergeOutcome, PMap};
pub use stats::{ptr_shortcuts_enabled, set_ptr_shortcuts, take_stats};
