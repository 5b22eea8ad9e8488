//! Pins the simulated detector's draws across commits: an FNV-1a
//! fingerprint of every detection a full-frame and a region detector emit
//! over one seeded 300-frame scene must equal a constant. The detector's
//! other tests compare two modes or two instances within one build, so a
//! change to how a track's random streams are stored, re-derived or
//! resumed that shifted every draw alike would pass all of them; this one
//! fails unless every emitted box, score and class is bit-identical to
//! the pinned run.
//!
//! The scene keeps about 40 objects present. Each stays 5 to 30 frames,
//! and a third of them come back 1 to 60 frames after leaving, so tracks
//! are drawn, left alone and drawn again. The region set omits some
//! present objects and adds false regions. Both detectors are swapped for
//! fresh ones through `export_state` / `import_state` three times, and the
//! sequence changes once. The test checks that each of these happens. A
//! change that is meant to move the draws must say so and update `PINNED`
//! with the fingerprint it prints.

use catdet_detector::{zoo, SimulatedDetector};
use catdet_geom::Box2;
use catdet_metrics::Detection;
use catdet_sim::{ActorClass, GroundTruthObject};

/// The fingerprint of [`run`].
const PINNED: u64 = 0xb27f_6b73_1074_dd7d;

const FRAMES: usize = 300;
/// Objects the scene keeps present.
const PRESENT: usize = 40;
/// Frames at which both detectors are replaced by fresh ones that import
/// the old ones' exported state.
const SWAPS: [usize; 3] = [50, 150, 250];
/// The frame at which the sequence id changes.
const SEQUENCE_CHANGE: usize = 200;
const WIDTH: f32 = 1242.0;
const HEIGHT: f32 = 375.0;
const MARGIN: f32 = 30.0;

/// SplitMix64: the scene draws from this and not from a library RNG, so
/// the pinned inputs cannot move with a dependency.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn real(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (self.next() >> 40) as f32 / (1u32 << 24) as f32 * (hi - lo)
    }
}

/// One visit of an object: where it is and how it drifts until it
/// leaves.
struct Visit {
    track: u64,
    leaves_at: usize,
    class: ActorClass,
    x: f32,
    y: f32,
    w: f32,
    h: f32,
    vx: f32,
    occlusion: f32,
}

impl Visit {
    fn new(d: &mut Draw, track: u64, frame: usize) -> Self {
        let class = if d.int(0, 10) < 6 {
            ActorClass::Car
        } else {
            ActorClass::Pedestrian
        };
        let h = d.real(18.0, 110.0);
        let w = match class {
            ActorClass::Car => h * d.real(1.2, 2.0),
            ActorClass::Pedestrian => h * d.real(0.35, 0.6),
        };
        Visit {
            track,
            leaves_at: frame + d.int(5, 31),
            class,
            x: d.real(0.0, WIDTH - w),
            y: d.real(60.0, HEIGHT - h),
            w,
            h,
            vx: d.real(-3.0, 3.0),
            occlusion: if d.int(0, 4) == 0 {
                d.real(0.0, 0.6)
            } else {
                0.0
            },
        }
    }

    fn object(&self, frame: usize) -> GroundTruthObject {
        let full_bbox = Box2::from_xywh(self.x + self.vx * frame as f32, self.y, self.w, self.h);
        GroundTruthObject {
            track_id: self.track,
            class: self.class,
            bbox: full_bbox.clip(WIDTH, HEIGHT),
            full_bbox,
            occlusion: self.occlusion,
            truncation: 0.0,
            depth: 1000.0 / self.h,
        }
    }
}

/// FNV-1a over 64-bit words, fed little-endian.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn detections(&mut self, dets: &[Detection]) {
        self.word(dets.len() as u64);
        for d in dets {
            for v in [d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2, d.score] {
                self.word(v.to_bits() as u64);
            }
            self.word(d.class as u64);
        }
    }
}

/// What the scene exercised, so a weakened scene shows.
#[derive(Debug, Default)]
struct Tally {
    returns: usize,
    unproposed: usize,
    false_regions: usize,
    full_frame: usize,
    regions: usize,
    swaps: usize,
}

/// A fresh detector carrying `old`'s exported state.
fn swapped(old: &SimulatedDetector) -> SimulatedDetector {
    let mut fresh = SimulatedDetector::new(old.model().clone(), WIDTH, HEIGHT);
    fresh.import_state(old.export_state());
    fresh
}

fn run() -> (u64, Tally) {
    let mut d = Draw(0x00D2_A3C0_1DE5);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut tally = Tally::default();
    let mut proposal = SimulatedDetector::new(zoo::resnet10a(2), WIDTH, HEIGHT);
    let mut refinement = SimulatedDetector::new(zoo::resnet50(2), WIDTH, HEIGHT);
    let mut present: Vec<Visit> = Vec::new();
    // Departed tracks that will come back: (track, frame of return).
    let mut away: Vec<(u64, usize)> = Vec::new();
    let mut next_track = 1u64;
    for frame in 0..FRAMES {
        if SWAPS.contains(&frame) {
            proposal = swapped(&proposal);
            refinement = swapped(&refinement);
            tally.swaps += 1;
        }
        for v in present.iter().filter(|v| v.leaves_at == frame) {
            if d.int(0, 3) == 0 {
                away.push((v.track, frame + d.int(1, 61)));
            }
        }
        present.retain(|v| v.leaves_at > frame);
        let (back, still_away): (Vec<_>, Vec<_>) = away.iter().partition(|&&(_, at)| at == frame);
        away = still_away;
        for (track, _) in back {
            present.push(Visit::new(&mut d, track, frame));
            tally.returns += 1;
        }
        while present.len() < PRESENT {
            present.push(Visit::new(&mut d, next_track, frame));
            next_track += 1;
        }
        let gts: Vec<GroundTruthObject> = present.iter().map(|v| v.object(frame)).collect();
        let mut regions = Vec::with_capacity(gts.len() + 6);
        for g in &gts {
            if d.int(0, 4) == 0 {
                tally.unproposed += 1;
            } else {
                let jitter = d.real(-4.0, 8.0);
                regions.push(g.bbox.dilate(jitter));
            }
        }
        for _ in 0..d.int(2, 7) {
            let (w, h) = (d.real(20.0, 160.0), d.real(20.0, 120.0));
            regions.push(Box2::from_xywh(
                d.real(0.0, WIDTH - w),
                d.real(0.0, HEIGHT - h),
                w,
                h,
            ));
            tally.false_regions += 1;
        }
        let seq = usize::from(frame >= SEQUENCE_CHANGE);
        let full = proposal.detect_full_frame(seq, frame, &gts);
        let refined = refinement.detect_regions(seq, frame, &gts, &regions, MARGIN);
        tally.full_frame += full.len();
        tally.regions += refined.len();
        h.detections(&full);
        h.detections(&refined);
    }
    (h.0, tally)
}

#[test]
fn the_detector_draws_match_the_pinned_fingerprint() {
    let (fingerprint, tally) = run();
    assert!(
        tally.returns > 50 && tally.unproposed > 500 && tally.false_regions > 500,
        "the scene is too tame ({tally:?})"
    );
    assert!(
        tally.full_frame > 1000 && tally.regions > 1000 && tally.swaps == SWAPS.len(),
        "the detectors barely ran ({tally:?})"
    );
    assert_eq!(
        fingerprint, PINNED,
        "the detector's draws moved: fingerprint {fingerprint:#018x} ({tally:?})"
    );
}
