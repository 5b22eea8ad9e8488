//! `occlusion_fractions` allocates its result and nothing else, however
//! many nearer boxes each object has: the lattice keeps its ordinates and
//! row masks on the stack instead of collecting each object's occluders.
//!
//! A counting global allocator tallies every allocation in the process,
//! so this file holds a single test: nothing else may allocate while it
//! counts.

use catdet_geom::Box2;
use catdet_sim::occlusion_fractions;
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

/// `n` overlapping boxes in a row, each a metre farther than the last, so
/// object `i` has `i` nearer boxes and most of them cover it in part.
fn crowd(n: usize) -> Vec<(Box2, f32)> {
    (0..n)
        .map(|i| {
            let x = (i % 16) as f32 * 9.0;
            let y = (i / 16) as f32 * 14.0;
            (Box2::from_xywh(x, y, 40.0, 60.0), 5.0 + i as f32)
        })
        .collect()
}

#[test]
fn one_call_allocates_only_its_result() {
    for n in [1, 2, 12, 64, 256] {
        let items = crowd(n);
        let before = ALLOCS.load(Relaxed);
        let occ = occlusion_fractions(&items);
        let made = ALLOCS.load(Relaxed) - before;
        assert_eq!(occ.len(), n);
        assert_eq!(made, 1, "{n} objects: {made} allocations");
        // The scene must give most objects nearer boxes that cover them.
        let occluded = occ.iter().filter(|&&f| f > 0.0).count();
        assert!(
            occluded + 1 >= n * 3 / 4,
            "{n} objects: {occluded} occluded"
        );
    }
}
