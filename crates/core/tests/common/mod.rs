//! The tracking global allocator shared by the allocation and memory pins
//! of this directory. Each test file is its own binary, so each gets its
//! own allocator and counters by declaring `mod common;`.
//!
//! It counts heap requests (what the zero-allocation pins read) and keeps
//! the live byte total with a resettable high-water mark (what the sweep
//! memory pin reads).

#![deny(unsafe_op_in_unsafe_fn)]
// Every binary reads only the counters it pins.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct TrackingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every operation defers to `System` with the caller's layout
// contract forwarded unchanged; the counter updates are side-effect-free.
unsafe impl GlobalAlloc for TrackingAllocator {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was produced by this allocator (which defers to
        // `System`) with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: forwarded contract, as in `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// Heap requests (`alloc` + `realloc`) so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current live total.
pub fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

/// Most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}
