//! The rate forecaster allocates nothing: it reads the arrival history's
//! ring in place. Every stream is forecast at every control tick, so a
//! per-call allocation would be paid streams × ticks times per run.
//!
//! A counting global allocator tallies allocations per thread, so the
//! count covers exactly the forecast calls under test whatever other
//! tests run alongside.

use catdet_serve::{ArrivalHistory, BurstPhase, ForecastConfig, RateForecaster};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn note_alloc() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

#[test]
fn forecasting_allocates_nothing() {
    // A 1 fps camera jittered by up to ±25% of its period, in 0.25 s
    // buckets: most buckets hold 0 or 1 arrival, so the complete-bucket
    // rates split into an on/off series and every estimator branch runs.
    let cfg = ForecastConfig::new().with_bucket_s(0.25);
    let forecaster = RateForecaster::new(cfg);
    let mut history = ArrivalHistory::new(&cfg);
    let mut seen = [false; 3];
    let mut calls = 0usize;
    let mut counted = 0usize;
    for i in 0..120u32 {
        // A fixed pseudo-random jitter in [-0.25, 0.25) s.
        let jitter = f64::from((i.wrapping_mul(2_654_435_761) >> 16) & 0xff) / 512.0 - 0.25;
        history.record(f64::from(i) + 0.5 + jitter);
        for k in 0..8 {
            let now = f64::from(i) + 0.5 + f64::from(k) * 0.125;
            let before = allocs();
            let f = forecaster.forecast(&history, now);
            counted += allocs() - before;
            calls += 1;
            seen[f.phase.code() as usize] = true;
        }
    }
    assert_eq!(counted, 0, "{counted} allocations over {calls} forecasts");
    for phase in [BurstPhase::Steady, BurstPhase::Quiet, BurstPhase::Burst] {
        assert!(
            seen[phase.code() as usize],
            "the history never reached the {} branch",
            phase.label()
        );
    }
}
