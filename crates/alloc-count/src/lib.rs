//! A counting global allocator for the budget tests.
//!
//! A test binary that holds an allocation or memory budget installs
//! [`Counting`] with one line,
//!
//! ```ignore
//! #[global_allocator]
//! static COUNTING: rsj_alloc_count::Counting = rsj_alloc_count::Counting;
//! ```
//!
//! and reads the process-wide counters around the code it measures:
//! [`allocations`], [`bytes`], [`live`] and [`peak`], the high-water mark
//! of live bytes since the last [`reset_peak`]. Each budget binary holds
//! one test, so nothing else allocates while it counts.
//!
//! `GlobalAlloc` is an unsafe trait, so this crate opts back into
//! `unsafe` (the product crates' only user is the task stack switch);
//! the allocator only counts and forwards to `System`. No product crate
//! depends on it.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::iter_over_hash_type,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        unused_must_use
    )
)]
#![expect(unsafe_code, reason = "GlobalAlloc is an unsafe trait")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Heap allocations and reallocations since the process started.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap bytes requested since the process started: every allocation's
/// size plus every reallocation's new size.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Heap bytes allocated and not yet freed.
pub fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// The most [`live`] bytes at any moment since the last [`reset_peak`]
/// (or since the process started).
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// Count one allocation of `size` bytes.
fn grow(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// The counting allocator: install it as the test binary's
/// `#[global_allocator]`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted before the move: the old and the new block may both be
        // live while `System` copies.
        grow(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
