//! Allocation counting for the traced run.
//!
//! The `brbench` binary installs [`CountingAlloc`] as its global
//! allocator. It counts nothing until [`start_counting`] is called, which
//! only the traced run does: the untraced run pays one relaxed load per
//! allocation and no atomic write, so its timings stay those of the plain
//! system allocator. One binary serves both modes because the benchmark
//! is launched by a single fixed command.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Both are plain statistics that publish no other data, so `Relaxed`
// suffices for every access.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter that is off until
/// [`start_counting`].
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as in `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turns the counter on for the rest of the process.
pub fn start_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocations (including reallocations) counted so far; 0 when the
/// counter is off or the allocator is not installed.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
