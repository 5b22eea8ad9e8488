//! Net ingest keeps one copy of each delivered frame: client tasks see
//! only capture times, and `run_ingest` clones each admitted frame once,
//! from the sources it borrows. Nor does the wire allocate per frame:
//! each connection reuses its encode, schedule and decode buffers.
//!
//! A counting global allocator tracks allocations and live and peak heap
//! bytes per thread, so the figures cover exactly the ingest call under
//! test whatever other tests run alongside.

use catdet_data::{kitti_like, StreamFrame, StreamSource};
use catdet_net::{run_ingest, NetParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Counts one allocation (a `realloc` is one too: it may move the block).
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn note(delta: isize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates thread-local counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the peak live bytes reached above
/// the live bytes at its start.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - base)
}

/// `clients` 10 fps cameras of `frames` KITTI-like frames each.
fn workload(clients: usize, frames: usize) -> Vec<StreamSource> {
    let ds = kitti_like()
        .sequences(1)
        .frames_per_sequence(frames)
        .seed(9)
        .build();
    let pool = ds.sequences()[0].frames();
    (0..clients)
        .map(|i| {
            let stream_frames = pool
                .iter()
                .enumerate()
                .map(|(j, frame)| StreamFrame {
                    arrival_s: j as f64 / 10.0 + i as f64 * 0.01,
                    frame: frame.clone(),
                })
                .collect();
            StreamSource::from_frames(i, 10.0, 1242.0, 375.0, stream_frames)
        })
        .collect()
}

#[test]
fn ingest_holds_one_copy_of_each_delivered_frame() {
    let sources = workload(16, 200);
    let (copy, one_clone) = peak_during(|| sources.clone());
    drop(copy);
    let (outcome, peak) = peak_during(|| run_ingest(&sources, &NetParams::new(5)));
    // A clean link and a door faster than the cameras deliver everything,
    // so the outcome itself is one clone's worth of frames.
    assert_eq!(outcome.report.delivered(), 16 * 200);
    let ratio = peak as f64 / one_clone as f64;
    assert!(
        ratio <= 1.25,
        "run_ingest peaked at {peak} bytes, {ratio:.2}x one clone of its sources \
         ({one_clone} bytes)"
    );
}

#[test]
fn ingest_allocates_at_most_two_times_per_offered_frame() {
    let sources = workload(16, 200);
    // A faulty link and a door that bites, so every wire path runs:
    // partial writes, jitter, reordered spans, disconnect and resume,
    // throttling and door rejects.
    let mut params = NetParams::new(5);
    params.link.jitter_s = 0.004;
    params.link.chunk_bytes = 64;
    params.link.reorder_rate = 0.01;
    params.link.disconnect_rate = 0.02;
    params.recv_window = 4;
    params.door_rate_fps = 8.0;
    params.door_burst = 4.0;
    let (outcome, allocs) = allocs_during(|| run_ingest(&sources, &params));
    let report = &outcome.report;
    assert!(report.disconnects() > 0 && report.rejected_at_door() > 0 && report.lost() > 0);
    // What is left is the clone of each delivered frame and the buffers'
    // amortised growth.
    let offered = report.offered();
    let per_frame = allocs as f64 / offered as f64;
    assert!(
        per_frame <= 2.0,
        "run_ingest made {allocs} allocations for {offered} offered frames, \
         {per_frame:.2} per frame"
    );
}
