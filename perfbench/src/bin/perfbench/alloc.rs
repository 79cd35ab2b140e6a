//! A counting global allocator: live heap bytes and allocation events, process-wide.
//!
//! Every allocator call is forwarded unchanged to [`System`]; two relaxed atomics
//! record the bytes currently live and the number of allocation events (`alloc`,
//! `alloc_zeroed` and `realloc` each count as one). The counters publish no other
//! data, so relaxed ordering suffices. Reads taken around a single-threaded call give
//! exact per-call counts; the benchmark only brackets calls that way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The benchmark binary's global allocator.
pub struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocation events since the process started.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// A reading of both counters, for taking differences around a call.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    live: usize,
    events: u64,
}

impl Reading {
    /// Read both counters now.
    pub fn now() -> Self {
        Self {
            live: live_bytes(),
            events: alloc_events(),
        }
    }

    /// Live bytes gained since this reading (negative when memory was released).
    pub fn retained_since(&self) -> i64 {
        live_bytes() as i64 - self.live as i64
    }

    /// Allocation events since this reading.
    pub fn events_since(&self) -> u64 {
        alloc_events() - self.events
    }
}

// SAFETY: each method forwards the caller's layout and pointer unchanged to `System`,
// so `System`'s contract is met exactly when the caller meets `GlobalAlloc`'s. The
// bookkeeping touches only two atomics and never allocates, so it cannot recurse into
// the allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller guarantees a non-zero-size layout.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller guarantees a non-zero-size layout.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`,
        // and every pointer this allocator hands out came from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller guarantees `new_size` is valid for
        // `layout.align()`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_vector_allocation_and_its_release() {
        let before = Reading::now();
        let v: Vec<u64> = Vec::with_capacity(1000);
        // Other test threads may allocate concurrently, so only lower bounds hold.
        assert!(before.events_since() >= 1);
        drop(std::hint::black_box(v));
        assert!(alloc_events() > 0);
    }
}
