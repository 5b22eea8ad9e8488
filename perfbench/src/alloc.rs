//! Counting global allocator with a per-thread layer tag.
//!
//! Every heap allocation in the process is counted under the tag of the
//! thread that made it. The tag defaults to [`Layer::Serve`]; the stage
//! wrapper in [`crate::trace`] switches it around each call into the stage
//! protocol, so per-layer allocation counts come out without touching the
//! library. Live and peak heap bytes are tracked process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The layer a thread is currently executing, as seen from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Anything outside a stage call: scheduler, fleet barrier, ingest,
    /// recorder, report assembly.
    Serve = 0,
    /// `begin_frame`.
    Begin = 1,
    /// `complete_proposal`.
    Proposal = 2,
    /// `complete_refinement`.
    Refinement = 3,
    /// `coast_frame`.
    Coast = 4,
    /// `step`.
    Step = 5,
    /// The tracer's own bookkeeping (span buffers).
    Trace = 6,
}

/// Number of [`Layer`] tags.
pub const LAYERS: usize = 7;

static ALLOCS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TAG: Cell<u8> = const { Cell::new(Layer::Serve as u8) };
}

/// The allocator installed for the benchmark binary and its tests.
pub struct Counting;

fn note_alloc(size: usize) {
    // `try_with`: allocations during thread teardown land on `Serve`.
    let tag = TAG.try_with(Cell::get).unwrap_or(0) as usize;
    ALLOCS[tag].fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters, so `System`'s guarantees hold.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Sets this thread's layer tag and returns the previous one.
pub fn set_layer(layer: Layer) -> Layer {
    TAG.with(|t| {
        let prev = t.replace(layer as u8);
        LAYER_OF[prev as usize]
    })
}

const LAYER_OF: [Layer; LAYERS] = [
    Layer::Serve,
    Layer::Begin,
    Layer::Proposal,
    Layer::Refinement,
    Layer::Coast,
    Layer::Step,
    Layer::Trace,
];

/// Allocation counts per layer since process start.
pub fn allocs() -> [u64; LAYERS] {
    std::array::from_fn(|i| ALLOCS[i].load(Relaxed))
}

/// Restarts peak tracking at the current live heap and returns it.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live heap since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}
