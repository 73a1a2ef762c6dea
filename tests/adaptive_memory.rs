//! The adaptive driver's live heap. `run_pipeline_adaptive` reads the
//! caller's segments in place and its segment runs check their output
//! against the reference run's as they write it, so above the built
//! inputs it holds one output tape (the reference's), not three: no copy
//! of the input and no second output tape.
//!
//! The measurement is a counting global allocator, so this file holds a
//! single test: the harness runs nothing else beside it.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use brepl::pipeline::{run_pipeline_adaptive, AdaptiveConfig};
use brepl_ir::Value;

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's, unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size.saturating_sub(layout.size()));
            shrink(layout.size().saturating_sub(new_size));
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A `gate-cycle`-shaped scenario, 12 segments of 20,000 symbols: the
/// program writes one output value per input symbol, so its output tape
/// is as long as its input. Above the built inputs the adaptive run must
/// peak below two output tapes.
#[test]
fn the_adaptive_driver_holds_one_output_tape_above_its_inputs() {
    let (_, module, segments) = common::bench_drift_scenarios(12, 20_000)
        .into_iter()
        .find(|(name, ..)| *name == "gate-cycle")
        .expect("brbench's scenarios include gate-cycle");
    let symbols: usize = segments.iter().map(Vec::len).sum();
    let tape_bytes = symbols * std::mem::size_of::<Value>();

    let inputs = LIVE.load(Ordering::Relaxed);
    PEAK.store(inputs, Ordering::Relaxed);
    let result = run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default())
        .expect("the gate-cycle scenario ships");
    let above = PEAK.load(Ordering::Relaxed) - inputs;
    drop(result);

    let tapes = above as f64 / tape_bytes as f64;
    eprintln!("live heap above the inputs: {above} bytes, {tapes:.2} tapes of {tape_bytes} bytes");
    assert!(
        above < 2 * tape_bytes,
        "the adaptive run peaked {above} bytes above its inputs, {tapes:.2} output tapes"
    );
}
