//! Pins the world simulator's output across commits: an FNV-1a
//! fingerprint of every frame and every ground-truth object the dataset
//! builders generate must equal a constant per dataset. The builders'
//! unit tests compare two builds of one commit, so a change that moved
//! every dataset alike (say, an occlusion estimate that rounds a sample
//! point the other way) would pass them; this test fails unless every
//! track id, class, box, occlusion, truncation and depth is bit-identical
//! to the pinned build.
//!
//! Three KITTI-like datasets (two seeds, one at the 64-camera × 300-frame
//! shape the fleet benchmark generates) and one crowded CityPersons-like
//! dataset are covered. The test checks that the datasets exercise
//! partial and heavy occlusion and truncation. A change that is meant to
//! move the simulator must say so and update the constants with the
//! fingerprints it prints.

use catdet_data::{citypersons_like, kitti_like, DatasetBuilder, VideoDataset};

/// FNV-1a over 64-bit words, fed little-endian.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What a dataset exercised, so a tamer dataset shows.
#[derive(Debug, Default)]
struct Tally {
    frames: usize,
    objects: usize,
    /// Objects with some, but not all, of their samples covered.
    partly_occluded: usize,
    /// Objects with more than half of their samples covered.
    heavily_occluded: usize,
    truncated: usize,
}

fn fingerprint(ds: &VideoDataset) -> (u64, Tally) {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut tally = Tally::default();
    h.word(ds.sequences().len() as u64);
    for seq in ds.sequences() {
        h.word(seq.frames().len() as u64);
        for f in seq.frames() {
            h.word(f.index as u64);
            h.word(f.sequence_id as u64);
            h.word(f.labeled as u64);
            h.word(f.ground_truth.len() as u64);
            tally.frames += 1;
            for o in &f.ground_truth {
                h.word(o.track_id);
                h.word(o.class as u64);
                for b in [o.bbox, o.full_bbox] {
                    for v in [b.x1, b.y1, b.x2, b.y2] {
                        h.word(v.to_bits() as u64);
                    }
                }
                for v in [o.occlusion, o.truncation, o.depth] {
                    h.word(v.to_bits() as u64);
                }
                tally.objects += 1;
                tally.partly_occluded += usize::from(o.occlusion > 0.0 && o.occlusion < 1.0);
                tally.heavily_occluded += usize::from(o.occlusion > 0.5);
                tally.truncated += usize::from(o.truncation > 0.0);
            }
        }
    }
    (h.0, tally)
}

fn check(name: &str, builder: DatasetBuilder, pinned: u64) {
    let (fp, tally) = fingerprint(&builder.build());
    assert!(
        tally.partly_occluded * 20 > tally.objects
            && tally.heavily_occluded > 20
            && tally.truncated > 20,
        "{name}: the dataset is too tame ({tally:?})"
    );
    assert_eq!(
        fp, pinned,
        "{name}: the simulator's output moved: fingerprint {fp:#018x} ({tally:?})"
    );
}

#[test]
fn kitti_like_seed_2019_matches_the_pinned_fingerprint() {
    check(
        "kitti_like 4x200 seed 2019",
        kitti_like().sequences(4).frames_per_sequence(200),
        0x83bf_f210_f23b_93c7,
    );
}

#[test]
fn kitti_like_fleet_shape_matches_the_pinned_fingerprint() {
    check(
        "kitti_like 64x300 seed 401",
        kitti_like()
            .sequences(64)
            .frames_per_sequence(300)
            .seed(401),
        0x9b4f_0c2e_4eb3_cd37,
    );
}

#[test]
fn kitti_like_seed_7_matches_the_pinned_fingerprint() {
    check(
        "kitti_like 16x100 seed 7",
        kitti_like().sequences(16).frames_per_sequence(100).seed(7),
        0xd1d8_1f9d_8829_709d,
    );
}

#[test]
fn crowded_citypersons_like_matches_the_pinned_fingerprint() {
    check(
        "citypersons_like 40x30",
        citypersons_like().sequences(40),
        0xb1c0_e5e1_d765_1216,
    );
}
