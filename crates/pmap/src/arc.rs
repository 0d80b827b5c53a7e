//! [`PArc`]: an atomically reference-counted pointer whose allocations come
//! from the [`crate::slab`] arena instead of the global allocator.
//!
//! `astree-pmap` only ever uses four capabilities of `std::sync::Arc` —
//! `new`, `clone`, `ptr_eq` and `get_mut` (no weak references anywhere in
//! the tree code) — so a minimal hand-rolled refcount over slab slots is a
//! drop-in replacement. The memory-ordering protocol is the standard `Arc`
//! one: `clone` bumps the count with `Relaxed` (creating a new reference
//! requires already holding one), `drop` decrements with `Release` and the
//! last owner issues an `Acquire` fence before dropping the value, so every
//! thread's writes to the pointee happen-before its destruction;
//! `get_mut` loads the count with `Acquire`, pairing with those `Release`
//! decrements, so every former owner's reads happen-before the writes of
//! the one that is left.
//!
//! Oversized or over-aligned pointees (beyond what [`crate::slab`] serves)
//! transparently fall back to the global allocator; the choice is made from
//! `Layout::new::<Inner<T>>()` on both the alloc and dealloc side, so the
//! two can never disagree.

use crate::slab;
use std::alloc::Layout;
use std::fmt;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

struct Inner<T> {
    refcount: AtomicUsize,
    value: T,
}

/// Slab-backed shared pointer; see the module docs.
pub(crate) struct PArc<T> {
    ptr: NonNull<Inner<T>>,
}

// SAFETY: `ptr` is the one field. A handle sent to another thread hands it
// `&T` (so `T: Sync`) and may drop the value there as the last owner (so
// `T: Send`); the count it shares is atomic. The bounds are `std::sync::Arc`'s.
unsafe impl<T: Send + Sync> Send for PArc<T> {}
// SAFETY: a shared `&PArc<T>` gives other threads `&T` (so `T: Sync`) and
// lets them clone a handle they may drop as the last owner (so `T: Send`);
// `clone` touches only the atomic count.
unsafe impl<T: Send + Sync> Sync for PArc<T> {}

impl<T> PArc<T> {
    pub(crate) fn new(value: T) -> PArc<T> {
        let layout = Layout::new::<Inner<T>>();
        let raw: NonNull<Inner<T>> = match slab::class_of(layout) {
            Some(class) => slab::alloc_class(class).cast(),
            None => {
                // SAFETY: `Inner<T>` holds an `AtomicUsize`, so the layout's
                // size is not zero; a null return is handled on the next line.
                let p = unsafe { std::alloc::alloc(layout) };
                NonNull::new(p.cast()).unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
            }
        };
        // SAFETY: `raw` is fresh memory for `Inner<T>`: a global allocation
        // of its layout, or a slot of the class `class_of` picked for it —
        // at least that size and aligned to `SLAB_ALIGN`, which `class_of`
        // only picks when the layout asks for no more.
        unsafe {
            raw.as_ptr().write(Inner { refcount: AtomicUsize::new(1), value });
        }
        PArc { ptr: raw }
    }

    /// Pointer identity — the backbone of every sharing shortcut.
    #[inline]
    pub(crate) fn ptr_eq(a: &PArc<T>, b: &PArc<T>) -> bool {
        a.ptr == b.ptr
    }

    /// The pointee, mutably, when this is the only handle to it.
    ///
    /// A count of 1 under `&mut self` means no other handle exists and none
    /// can appear (a new one is only ever cloned from an existing one), so
    /// the write cannot be observed. This says nothing about pointees
    /// *inside* `T`: a tree node is only unobservable when every node above
    /// it is unique too, which callers establish by descending through the
    /// references this returns.
    #[inline]
    pub(crate) fn get_mut(&mut self) -> Option<&mut T> {
        if self.inner().refcount.load(Ordering::Acquire) != 1 {
            return None;
        }
        // SAFETY: the count is 1 and we hold the handle exclusively, so this
        // is the only path to the pointee for as long as the borrow of
        // `self` lasts; the `Acquire` load above synchronizes with the
        // `Release` decrement of every handle dropped before it, so their
        // reads of the pointee happen-before any write through the result.
        Some(unsafe { &mut self.ptr.as_mut().value })
    }

    #[inline]
    fn inner(&self) -> &Inner<T> {
        // SAFETY: `new` initialized the pointee, and it lives while this
        // handle does: the handle holds one count, and only the drop that
        // takes the count to 0 destroys it.
        unsafe { self.ptr.as_ref() }
    }
}

impl<T> Deref for PArc<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner().value
    }
}

impl<T> Clone for PArc<T> {
    #[inline]
    fn clone(&self) -> PArc<T> {
        let old = self.inner().refcount.fetch_add(1, Ordering::Relaxed);
        // Tree heights bound reference counts far below this in practice;
        // abort rather than risk an overflow-induced use-after-free.
        if old > isize::MAX as usize {
            std::process::abort();
        }
        PArc { ptr: self.ptr }
    }
}

impl<T> Drop for PArc<T> {
    fn drop(&mut self) {
        if self.inner().refcount.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        fence(Ordering::Acquire);
        // SAFETY: the count went from 1 to 0, so this was the last handle,
        // and the fence orders every other handle's use of the pointee
        // before this point. The value is dropped once, and the memory goes
        // back where `new` took it from: both sides decide from
        // `Layout::new::<Inner<T>>()`.
        unsafe {
            std::ptr::drop_in_place(self.ptr.as_ptr());
            let layout = Layout::new::<Inner<T>>();
            match slab::class_of(layout) {
                Some(class) => slab::free_class(self.ptr.cast(), class),
                None => std::alloc::dealloc(self.ptr.as_ptr().cast(), layout),
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for PArc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        T::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn clone_shares_and_last_drop_frees() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Probe(u64);
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let a = PArc::new(Probe(7));
        let b = a.clone();
        assert!(PArc::ptr_eq(&a, &b));
        assert_eq!(b.0, 7);
        drop(a);
        assert_eq!(DROPS.load(Ordering::SeqCst), 0, "value alive through clone");
        drop(b);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1, "last owner drops the value");
    }

    #[test]
    fn get_mut_only_when_unique() {
        let mut a = PArc::new(vec![1u64]);
        a.get_mut().expect("sole handle").push(2);
        let mut b = a.clone();
        assert!(a.get_mut().is_none() && b.get_mut().is_none(), "two handles: neither may write");
        assert_eq!(*b, [1, 2], "the clone sees the write made before it existed");
        drop(a);
        b.get_mut().expect("unique again once the other handle is gone").push(3);
        assert_eq!(*b, [1, 2, 3]);
        // A clone dropped on another thread hands uniqueness back too.
        let c = b.clone();
        std::thread::spawn(move || assert_eq!(c.len(), 3)).join().unwrap();
        assert!(b.get_mut().is_some());
    }

    #[test]
    fn cross_thread_drop_is_sound() {
        let a = PArc::new(vec![1u64, 2, 3]);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = a.clone();
                std::thread::spawn(move || c.iter().sum::<u64>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 6);
        }
        drop(a);
    }

    #[test]
    fn oversized_pointee_falls_back_to_global_alloc() {
        // 2 KiB pointee exceeds the slab's largest class; exercises the
        // std::alloc path on both sides.
        let big = PArc::new([0u8; 2048]);
        let c = big.clone();
        assert!(PArc::ptr_eq(&big, &c));
        drop(big);
        assert_eq!(c[2047], 0);
    }
}
