//! A size-classed slab allocator for persistent-map nodes.
//!
//! Every tree node used to be an individual global-allocator round trip;
//! at scale (Monniaux's parallel-ASTRÉE observation) the allocator traffic
//! and the resulting heap scatter dominate the abstract-state hot path.
//! This slab hands out fixed-size slots carved by bumping through 64 KiB
//! chunks, and recycles dropped slots through per-thread free lists:
//!
//! - **Thread-local fast path.** Each thread owns a [`LocalSlab`] (free
//!   list per size class + one active bump chunk), so allocation and
//!   deallocation are a few pointer moves with no synchronization — the
//!   same discipline as the sharing counters in [`crate::stats`].
//! - **Process-wide recycling, no frees.** Chunk memory is *never*
//!   returned to the global allocator. When a thread exits, its free lists
//!   and the unused tail of its bump chunk are absorbed into a global
//!   [`Mutex`]-protected pool that later threads drain. This is what makes
//!   cross-thread sharing sound: a node allocated on one thread may be
//!   dropped on another (persistent maps flow freely between the worker
//!   pool, the serve daemon, and the coordinator), so a slot's backing
//!   chunk must stay valid for the life of the process. Slots freed during
//!   thread teardown (after the local slab is gone) are simply leaked —
//!   still inside a live chunk, so still sound.
//! - **Size classes.** Slot sizes are multiples of [`GRANULE`] bytes up to
//!   [`MAX_CLASS_BYTES`]; anything larger (or over-aligned) falls back to
//!   the global allocator in [`crate::arc`]. A recycled slot only ever
//!   serves its own class, so a bump-carved slot can never be handed out
//!   twice.
//!
//! Telemetry: every classed allocation/free updates the thread-local
//! `slab_bytes_allocated`/`slab_bytes_freed` counters, and allocations
//! served from a free list count as `nodes_recycled` — surfaced through
//! [`crate::take_stats`] so the recycling win is measurable next to
//! `nodes_allocated`.

use crate::stats;
use std::alloc::{alloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::ptr::{self, NonNull};
use std::sync::Mutex;

/// Size-class granularity in bytes (also a multiple of [`SLAB_ALIGN`], so
/// bump offsets stay aligned).
const GRANULE: usize = 32;
/// Largest slot the slab serves; bigger nodes use the global allocator.
const MAX_CLASS_BYTES: usize = 1024;
/// Number of size classes.
const NUM_CLASSES: usize = MAX_CLASS_BYTES / GRANULE;
/// Alignment guaranteed for every slot.
pub(crate) const SLAB_ALIGN: usize = 16;
/// Bump-chunk size.
const CHUNK_BYTES: usize = 64 * 1024;

/// The size class serving `layout`, or `None` when the layout must fall
/// back to the global allocator (oversized, over-aligned, or zero-sized).
pub(crate) fn class_of(layout: Layout) -> Option<usize> {
    if layout.align() > SLAB_ALIGN || layout.size() > MAX_CLASS_BYTES || layout.size() == 0 {
        return None;
    }
    Some(layout.size().div_ceil(GRANULE) - 1)
}

/// Slot size of a class in bytes.
pub(crate) fn class_bytes(class: usize) -> usize {
    (class + 1) * GRANULE
}

/// A freed slot doubles as its own free-list link.
struct FreeSlot {
    next: *mut FreeSlot,
}

/// Intrusive LIFO of freed slots with O(1) concatenation (`tail` is the
/// oldest slot; valid whenever `head` is non-null). A listed slot belongs to
/// the list alone: its owner gave it up in [`free_class`], and it leaves the
/// list only through `pop` (or with the whole list, through `absorb`).
struct FreeList {
    head: *mut FreeSlot,
    tail: *mut FreeSlot,
    len: usize,
}

impl FreeList {
    const EMPTY: FreeList = FreeList { head: ptr::null_mut(), tail: ptr::null_mut(), len: 0 };

    #[inline]
    fn push(&mut self, slot: NonNull<u8>) {
        let slot = slot.cast::<FreeSlot>().as_ptr();
        // SAFETY: `slot` is a slot its owner gave up (`free_class`): at least
        // `GRANULE` bytes, `SLAB_ALIGN`-aligned, inside memory that is never
        // deallocated, and used by no one else — so it can hold the link.
        unsafe { (*slot).next = self.head };
        if self.head.is_null() {
            self.tail = slot;
        }
        self.head = slot;
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<NonNull<u8>> {
        NonNull::new(self.head).map(|slot| {
            // SAFETY: a non-null `head` is a listed slot, whose link `push`
            // (or `absorb`) wrote and which no one else uses while listed.
            self.head = unsafe { (*slot.as_ptr()).next };
            if self.head.is_null() {
                self.tail = ptr::null_mut();
            }
            self.len -= 1;
            slot.cast()
        })
    }

    /// Prepends `other`'s slots (O(1)); `other` is left empty.
    fn absorb(&mut self, other: &mut FreeList) {
        if other.head.is_null() {
            return;
        }
        // SAFETY: `other` is not empty, so its `tail` is a listed slot (the
        // list's invariant), owned by that list alone and still allocated.
        unsafe { (*other.tail).next = self.head };
        if self.head.is_null() {
            self.tail = other.tail;
        }
        self.head = other.head;
        self.len += other.len;
        *other = FreeList::EMPTY;
    }
}

/// A bump chunk: `off` bytes of the backing memory are carved (live in
/// slots or free lists), the tail is available. The backing allocation is
/// intentionally never deallocated; dropping a `Chunk` handle with a full
/// tail just forgets it (its memory lives on in free-listed slots).
struct Chunk {
    base: NonNull<u8>,
    off: usize,
}

impl Chunk {
    fn new() -> Chunk {
        let layout = Layout::from_size_align(CHUNK_BYTES, SLAB_ALIGN).expect("static layout");
        // SAFETY: the layout's size, `CHUNK_BYTES`, is not zero; a null
        // return is handled on the next line.
        let p = unsafe { alloc(layout) };
        let base = NonNull::new(p).unwrap_or_else(|| handle_alloc_error(layout));
        Chunk { base, off: 0 }
    }

    #[inline]
    fn carve(&mut self, bytes: usize) -> Option<NonNull<u8>> {
        if self.off + bytes > CHUNK_BYTES {
            return None;
        }
        // SAFETY: `off + bytes <= CHUNK_BYTES` was just checked, so the
        // offset stays inside the chunk's allocation, and a pointer into an
        // allocation at a non-null base is not null.
        let p = unsafe { NonNull::new_unchecked(self.base.as_ptr().add(self.off)) };
        self.off += bytes;
        Some(p)
    }
}

/// Free lists and bump-chunk tails surrendered by exited threads, drained
/// by live ones. Holds raw pointers into never-deallocated chunks, so
/// moving them across threads is sound; the mutex provides the
/// happens-before edge between the releasing and the reusing thread.
struct GlobalPool {
    free: [FreeList; NUM_CLASSES],
    chunks: Vec<Chunk>,
}

// SAFETY: `free` holds the lists of exited threads and `chunks` the bump
// chunks they left; every pointer in either addresses memory that is never
// deallocated and that no thread uses while it sits here, and the mutex
// around `GLOBAL` orders each hand-over between the releasing and the
// reusing thread.
unsafe impl Send for GlobalPool {}

static GLOBAL: Mutex<GlobalPool> =
    Mutex::new(GlobalPool { free: [FreeList::EMPTY; NUM_CLASSES], chunks: Vec::new() });

/// Per-thread slab state. On drop (thread exit) everything reusable is
/// absorbed into [`GLOBAL`].
struct LocalSlab {
    free: [FreeList; NUM_CLASSES],
    chunk: Option<Chunk>,
}

impl LocalSlab {
    const fn new() -> LocalSlab {
        LocalSlab { free: [FreeList::EMPTY; NUM_CLASSES], chunk: None }
    }

    fn alloc(&mut self, class: usize) -> NonNull<u8> {
        // 1. Local free list: the common steady-state path.
        if let Some(slot) = self.free[class].pop() {
            stats::note_node_recycled();
            return slot;
        }
        // 2. Steal an exited thread's entire free list for this class.
        {
            let mut pool = GLOBAL.lock().unwrap();
            if !pool.free[class].head.is_null() {
                self.free[class].absorb(&mut pool.free[class]);
                drop(pool);
                let slot = self.free[class].pop().expect("absorbed list is non-empty");
                stats::note_node_recycled();
                return slot;
            }
        }
        // 3. Bump from the active chunk, replacing it when exhausted.
        let bytes = class_bytes(class);
        if let Some(slot) = self.chunk.as_mut().and_then(|c| c.carve(bytes)) {
            return slot;
        }
        let old = self.chunk.take();
        let mut pool = GLOBAL.lock().unwrap();
        if let Some(old) = old {
            // Another class may still fit the tail; otherwise the handle is
            // forgotten (its memory is fully accounted for in slots).
            if old.off + GRANULE <= CHUNK_BYTES {
                pool.chunks.push(old);
            }
        }
        let reused = pool.chunks.iter().position(|c| c.off + bytes <= CHUNK_BYTES);
        let mut chunk = match reused {
            Some(i) => pool.chunks.swap_remove(i),
            None => {
                drop(pool);
                Chunk::new()
            }
        };
        let slot = chunk.carve(bytes).expect("fresh or selected chunk fits one slot");
        self.chunk = Some(chunk);
        slot
    }
}

impl Drop for LocalSlab {
    fn drop(&mut self) {
        // Thread exit: surrender recyclable state. A poisoned lock means
        // leaking, which is always sound here.
        let Ok(mut pool) = GLOBAL.lock() else { return };
        for (class, fl) in self.free.iter_mut().enumerate() {
            pool.free[class].absorb(fl);
        }
        if let Some(chunk) = self.chunk.take() {
            if chunk.off + GRANULE <= CHUNK_BYTES {
                pool.chunks.push(chunk);
            }
        }
    }
}

thread_local! {
    static SLAB: RefCell<LocalSlab> = const { RefCell::new(LocalSlab::new()) };
}

/// Allocates one slot of `class`. Usable at any point in the thread's
/// lifetime: during thread teardown (local slab already destroyed) it
/// falls back to a fresh global allocation, which later frees treat like
/// any other slot.
pub(crate) fn alloc_class(class: usize) -> NonNull<u8> {
    stats::note_slab_alloc(class_bytes(class) as u64);
    SLAB.try_with(|s| s.borrow_mut().alloc(class)).unwrap_or_else(|_| {
        let layout =
            Layout::from_size_align(class_bytes(class), SLAB_ALIGN).expect("static layout");
        // SAFETY: `class_bytes` is at least `GRANULE`, so the layout's size
        // is not zero; a null return is handled on the next line.
        let p = unsafe { alloc(layout) };
        NonNull::new(p).unwrap_or_else(|| handle_alloc_error(layout))
    })
}

/// Returns a slot to its class's free list. `slot` must come from
/// [`alloc_class`] with the same `class`, and its owner must not use it
/// again: the free list writes its link into it. During thread teardown the
/// slot is leaked instead — it stays inside a never-deallocated chunk (or
/// a teardown fallback allocation), so this is sound, merely unthrifty in
/// a path that runs O(1) times per thread.
pub(crate) fn free_class(slot: NonNull<u8>, class: usize) {
    stats::note_slab_free(class_bytes(class) as u64);
    let _ = SLAB.try_with(|s| s.borrow_mut().free[class].push(slot));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_granules_and_reject_oversize() {
        let l = |s, a| Layout::from_size_align(s, a).unwrap();
        assert_eq!(class_of(l(1, 1)), Some(0));
        assert_eq!(class_of(l(32, 8)), Some(0));
        assert_eq!(class_of(l(33, 8)), Some(1));
        assert_eq!(class_of(l(1024, 16)), Some(NUM_CLASSES - 1));
        assert_eq!(class_of(l(1025, 8)), None, "oversized");
        assert_eq!(class_of(l(64, 32)), None, "over-aligned");
        for c in 0..NUM_CLASSES {
            assert!(class_bytes(c) <= MAX_CLASS_BYTES);
            assert_eq!(class_bytes(c) % GRANULE, 0);
        }
    }

    #[test]
    fn alloc_free_recycles_within_class() {
        let _ = crate::take_stats();
        // A size class no other test (or map node) touches, so the global
        // pool cannot interleave foreign slots.
        let class = class_of(Layout::from_size_align(950, 8).unwrap()).unwrap();
        let a = alloc_class(class);
        let b = alloc_class(class);
        assert_ne!(a, b, "live slots are distinct");
        free_class(a, class);
        let c = alloc_class(class);
        assert_eq!(a, c, "freed slot is recycled LIFO");
        let st = crate::take_stats();
        // Other tests' exited threads may donate slots to the global pool,
        // making even the first allocations count as recycled — so lower
        // bound only.
        assert!(st.nodes_recycled >= 1, "recycle of `a` counted");
        assert_eq!(st.slab_bytes_allocated, 3 * class_bytes(class) as u64);
        assert_eq!(st.slab_bytes_freed, class_bytes(class) as u64);
        free_class(b, class);
        free_class(c, class);
        let _ = crate::take_stats();
    }

    #[test]
    fn cross_thread_free_and_exit_absorption() {
        // Likewise a class private to this test, so the recycled slot is
        // deterministically ours.
        let class = class_of(Layout::from_size_align(1000, 8).unwrap()).unwrap();
        let slot = alloc_class(class);
        let addr = slot.as_ptr() as usize;
        // Free on another thread; its exit pushes the slot to the global
        // pool, and a third thread can recycle it.
        std::thread::spawn(move || {
            free_class(NonNull::new(addr as *mut u8).unwrap(), class);
        })
        .join()
        .unwrap();
        let recycled = std::thread::spawn(move || {
            let got = alloc_class(class);
            let hit = got.as_ptr() as usize == addr;
            free_class(got, class);
            hit
        })
        .join()
        .unwrap();
        assert!(recycled, "slot freed on an exited thread is drawn by a later thread");
    }

    #[test]
    fn churned_threads_build_on_their_predecessors_slots() {
        // A thread per round, as every parallel stage starts and joins its
        // own: each exit hands the slots to `GLOBAL`, and the next thread
        // must draw them instead of carving fresh chunks. 800-byte values
        // put the nodes in a size class no other test touches.
        for round in 0..4 {
            let st = std::thread::spawn(|| {
                let map: crate::PMap<u32, [u8; 800]> = (0..64).map(|k| (k, [0; 800])).collect();
                drop(map);
                crate::take_stats()
            })
            .join()
            .unwrap();
            assert_eq!(st.nodes_allocated, 64, "round {round}");
            if round > 0 {
                assert_eq!(st.nodes_recycled, 64, "round {round}: every node on a recycled slot");
            }
        }
    }
}
