//! A detector's memory follows the tracks it is drawing, and an exported
//! state costs stream positions, not generators.
//!
//! A detector keeps a full record (two generators, 256 bytes) only for
//! the tracks its latest call drew from, and parks every other track its
//! sequence has shown as a 48-byte position. An exported state holds that
//! position for every track, live or parked: at most 64 heap bytes per
//! track. Replay snapshots hold two of these per stream, and a dense
//! camera shows thousands of tracks, so a per-track generator copy in
//! either would make them most of a fleet's heap.
//!
//! A counting global allocator tallies live heap bytes per thread, so the
//! count covers exactly the work under test whatever other tests run
//! alongside.

use catdet_detector::{zoo, DetectorModel, SimulatedDetector};
use catdet_geom::Box2;
use catdet_sim::{ActorClass, GroundTruthObject};
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

fn object(track: u64, frame: usize) -> GroundTruthObject {
    let x = (30.0 + 53.0 * (track % 19) as f32 + 4.0 * frame as f32) % 1150.0;
    let bbox = Box2::from_xywh(x, 150.0, 48.0, 30.0);
    GroundTruthObject {
        track_id: track,
        class: ActorClass::Car,
        bbox,
        full_bbox: bbox,
        occlusion: 0.0,
        truncation: 0.0,
        depth: 20.0,
    }
}

#[test]
fn an_exported_state_holds_at_most_64_heap_bytes_per_cached_track() {
    let mut detector = SimulatedDetector::new(zoo::resnet50(2), 1242.0, 375.0);
    // Five tracks that stay and three new ones a frame: the cache ends up
    // holding every one of them, as a sequence's cache does.
    let mut tracks = std::collections::BTreeSet::new();
    for frame in 0..40 {
        let gts: Vec<GroundTruthObject> = (0..5)
            .chain((0..3).map(|j| 100 + 3 * frame as u64 + j))
            .map(|track| object(track, frame))
            .collect();
        tracks.extend(gts.iter().map(|g| g.track_id));
        // Both call kinds, so all three of a track's streams are drawn.
        detector.detect_full_frame(0, frame, &gts);
        let regions: Vec<Box2> = gts.iter().map(|g| g.bbox).collect();
        detector.detect_regions(0, frame, &gts, &regions, 30.0);
    }
    assert_eq!(tracks.len(), 125);
    let before = live_bytes();
    let state = detector.export_state();
    let held = live_bytes() - before;
    let bound = 64 * tracks.len() as isize;
    assert!(
        held <= bound,
        "an exported state of {} tracks holds {held} heap bytes (bound {bound})",
        tracks.len()
    );
    // And it is a whole state: it resumes a fresh detector.
    let mut resumed = SimulatedDetector::new(zoo::resnet50(2), 1242.0, 375.0);
    resumed.import_state(state);
    let gts: Vec<GroundTruthObject> = (0..5).map(|track| object(track, 40)).collect();
    assert_eq!(
        resumed.detect_full_frame(0, 40, &gts),
        detector.detect_full_frame(0, 40, &gts)
    );
}

#[test]
fn a_detector_holds_full_records_for_live_tracks_only() {
    // 40 objects present at a time; each leaves for good after 10 frames,
    // 4 of them a frame, and a new one takes its place.
    const FRAMES: usize = 300;
    const PRESENT: u64 = 40;
    const STAY: u64 = 10;
    let before = live_bytes();
    let mut detector = SimulatedDetector::new(zoo::resnet50(2), 1242.0, 375.0);
    let mut first_seen = 0;
    for frame in 0..FRAMES {
        let f = frame as u64;
        let first = f * PRESENT / STAY;
        let gts: Vec<GroundTruthObject> = (first..first + PRESENT)
            .map(|track| object(track, frame))
            .collect();
        first_seen = first;
        // Both call kinds, so all three of a track's streams are drawn.
        detector.detect_full_frame(0, frame, &gts);
        let regions: Vec<Box2> = gts.iter().map(|g| g.bbox).collect();
        detector.detect_regions(0, frame, &gts, &regions, 30.0);
    }
    let held = live_bytes() - before;
    let (departed, live) = (first_seen as isize, PRESENT as isize);
    let bound = 160 * departed + 2048 * live;
    assert!(
        held <= bound,
        "a detector that drew {departed} departed and {live} live tracks holds {held} heap \
         bytes (bound {bound})"
    );
    // Parking loses nothing: the state resumes a fresh detector.
    let mut resumed = SimulatedDetector::new(zoo::resnet50(2), 1242.0, 375.0);
    resumed.import_state(detector.export_state());
    let gts: Vec<GroundTruthObject> = (first_seen..first_seen + PRESENT)
        .map(|track| object(track, FRAMES))
        .collect();
    assert_eq!(
        resumed.detect_full_frame(0, FRAMES, &gts),
        detector.detect_full_frame(0, FRAMES, &gts)
    );
}

/// Heap bytes a detector over `model` holds after drawing the same
/// `live` objects on each of 20 frames at one site, so that every track
/// stays live and none is parked.
fn held_by_live_tracks(model: DetectorModel, live: u64, regions: bool) -> isize {
    let before = live_bytes();
    let mut detector = SimulatedDetector::new(model, 1242.0, 375.0);
    for frame in 0..20 {
        let gts: Vec<GroundTruthObject> = (0..live).map(|track| object(track, frame)).collect();
        if regions {
            let boxes: Vec<Box2> = gts.iter().map(|g| g.bbox).collect();
            detector.detect_regions(0, frame, &gts, &boxes, 30.0);
        } else {
            detector.detect_full_frame(0, frame, &gts);
        }
    }
    live_bytes() - before
}

#[test]
fn a_live_record_takes_at_most_480_heap_bytes_with_its_table_slack() {
    // 40 records fill 64 buckets: the 264 bytes of a record and its key,
    // times the table's slack of 1.6, make about 424 bytes a record.
    const LIVE: u64 = 40;
    for regions in [false, true] {
        // A first pass grows this thread's region buffers, so the count
        // sees only the measured detector's table.
        held_by_live_tracks(zoo::resnet50(2), LIVE, regions);
        let model = zoo::resnet50(2);
        let held = held_by_live_tracks(model, LIVE, regions);
        let bound = 480 * LIVE as isize;
        assert!(
            held <= bound,
            "{LIVE} live tracks drawn at one site (regions: {regions}) hold {held} heap bytes \
             (bound {bound})"
        );
    }
}
