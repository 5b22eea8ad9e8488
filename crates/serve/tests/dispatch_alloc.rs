//! Refinement dispatch and the refinement handoff allocate nothing per
//! frame beyond what the report keeps: a fused dispatch lifts its frames
//! into reused scratch buffers, and a handed-off refinement travels
//! through its stream's slot in the pool, sized once per run.
//!
//! A counting global allocator tallies every allocation on every thread,
//! the pool's helpers included, so this file holds a single test: nothing
//! else may allocate while it counts.

mod common;

use catdet_serve::{serve_fleet, FleetReport, ServeConfig, ShardConfig, StreamSpec};
use common::chain_spec_steady;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const STREAMS: usize = 8;

/// Eight staged chain streams (no allocation inside the pipeline) of
/// `frames` frames each at 5 fps, from staggered starts.
fn streams(frames: usize) -> Vec<StreamSpec> {
    (0..STREAMS)
        .map(|id| chain_spec_steady(id, 5.0, frames, id as f64 * 0.013))
        .collect()
}

/// One serving call's allocations, less those its report keeps: each
/// batch record's stream list and each fused record's two lists.
fn unkept_allocs(cfg: &ServeConfig, frames: usize) -> (usize, FleetReport) {
    let specs = streams(frames);
    let before = ALLOCS.load(Relaxed);
    let report = serve_fleet(specs, cfg);
    let made = ALLOCS.load(Relaxed) - before;
    let kept = report
        .shards
        .iter()
        .map(|s| s.batch_log.len())
        .sum::<usize>()
        + 2 * report.fused_refinements.len();
    (made - kept, report)
}

#[test]
fn dispatch_and_handoff_allocate_nothing_per_frame() {
    let base = ServeConfig::new()
        .with_workers(2)
        .with_max_batch(4)
        .with_queue_capacity(100_000);
    let fused = base
        .with_fuse_refinement(true)
        .with_refine_batch_window_s(0.004);
    let sharded = |threads| ShardConfig::sharded(2).with_threads(threads);
    let cases = [
        // The engine's own fused dispatch, no pool.
        ("one-shard fused", fused.with_shard(ShardConfig::single())),
        // The fleet's cross-shard dispatch, with and without a pool.
        ("fused --threads 1", fused.with_shard(sharded(1))),
        ("fused --threads 2", fused.with_shard(sharded(2))),
        // Per-frame refinements handed to the pool.
        ("unfused --threads 2", base.with_shard(sharded(2))),
    ];
    for (name, cfg) in cases {
        // Doubling the run adds hundreds of frames and dispatches. What
        // it may add besides is one more doubling of each growing buffer
        // (per stream: latencies, outputs, queue; per engine and fleet:
        // logs and scratch).
        let (short, short_report) = unkept_allocs(&cfg, 40);
        let (long, long_report) = unkept_allocs(&cfg, 80);
        let frames = long_report.frames_processed() - short_report.frames_processed();
        assert_eq!(frames, STREAMS * 40, "{name}: frames were dropped");
        let refine_batches =
            long_report.merged_batch().refine_batches - short_report.merged_batch().refine_batches;
        assert!(
            refine_batches >= 80,
            "{name}: only {refine_batches} more dispatches"
        );
        let slack = 4 * STREAMS + 16;
        assert!(
            long.saturating_sub(short) <= slack,
            "{name}: {} allocations for {frames} more frames and {refine_batches} more \
             refinement dispatches (at most {slack} allowed)",
            long as isize - short as isize
        );
    }
}
