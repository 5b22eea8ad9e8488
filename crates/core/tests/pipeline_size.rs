//! A pipeline holds only what lives between its frames.
//!
//! A staged pipeline keeps its detectors' track tables, its tracker's
//! tracks, the in-flight frame copy and its region set. The buffers of a
//! single stage call — detections, NMS, coverage rasters, the region
//! sweep's grids and the tracker's association — belong to the calling
//! thread, which reuses one set for every pipeline it drives. A fleet of
//! a thousand cameras keeps a thousand pipelines, so a buffer kept per
//! pipeline costs a thousand times its size.
//!
//! A counting global allocator tallies live heap bytes per thread, so the
//! count covers exactly the work under test whatever other tests run
//! alongside.

use catdet_core::{CaTDetSystem, DetectionSystem};
use catdet_data::kitti_like;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn note(delta: isize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adjusts a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

#[test]
fn a_grown_catdet_pipeline_holds_its_state_and_no_call_buffers() {
    let ds = kitti_like().sequences(1).frames_per_sequence(16).build();
    let frames = ds.sequences()[0].frames();
    // A first pipeline grows this thread's call buffers to what the
    // sequence needs, so the count below sees only what the measured
    // pipeline keeps.
    let mut warm = CaTDetSystem::catdet_a();
    for f in frames {
        warm.process_frame(f);
    }
    drop(warm);
    let before = live_bytes();
    let mut system = CaTDetSystem::catdet_a();
    let mut outputs = 0;
    for f in frames {
        outputs += system.process_frame(f).detections.len();
    }
    let held = live_bytes() - before;
    assert!(outputs > 0, "the sequence produced no detections");
    let bound = 14_000;
    assert!(
        held <= bound,
        "a CaTDet-A pipeline holds {held} heap bytes after 16 frames (bound {bound})"
    );
    drop(system);
}

#[test]
fn a_catdet_pipeline_is_small_inline() {
    let size = std::mem::size_of::<CaTDetSystem>();
    let bound = 1_100;
    assert!(
        size <= bound,
        "a CaTDet system takes {size} bytes inline (bound {bound})"
    );
}
