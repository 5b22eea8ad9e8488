//! A detector's exported state resumes it exactly: a fresh detector with
//! the same model, seed and frame size that imports a state exported at
//! any frame boundary goes on with the outputs the exporter produces,
//! whatever mix of full-frame and region calls came before, however
//! tracks persist, vanish and come back, or churn, and in either stream
//! cache mode on either side.

use catdet::detector::{zoo, SimulatedDetector};
use catdet::geom::Box2;
use catdet::sim::{ActorClass, GroundTruthObject};
use proptest::prelude::*;

const FRAME_W: f32 = 1242.0;
const FRAME_H: f32 = 375.0;

/// Track `track` at frame `frame`: a box drifting right with time.
fn object(track: u64, frame: usize) -> GroundTruthObject {
    let h = 24.0 + (track % 7) as f32 * 9.0;
    let x = (40.0 + 97.0 * (track % 11) as f32 + 6.0 * frame as f32) % 1100.0;
    let bbox = Box2::from_xywh(x, 120.0 + (track % 5) as f32 * 30.0, h * 1.5, h);
    GroundTruthObject {
        track_id: track,
        class: if track.is_multiple_of(3) {
            ActorClass::Pedestrian
        } else {
            ActorClass::Car
        },
        bbox,
        full_bbox: bbox,
        occlusion: (track % 4) as f32 * 0.2,
        truncation: 0.0,
        depth: 20.0,
    }
}

/// Frame `frame`'s objects: tracks 1 and 2 always, tracks 10..14 where
/// `present` has their bit set (so they vanish and come back), and
/// `churn` tracks seen in no other frame.
fn scene(frame: usize, present: u8, churn: usize) -> Vec<GroundTruthObject> {
    let mut gts = vec![object(1, frame), object(2, frame)];
    gts.extend(
        (0..4)
            .filter(|i| present & (1 << i) != 0)
            .map(|i| object(10 + i, frame)),
    );
    gts.extend((0..churn).map(|j| object(1000 + 4 * frame as u64 + j as u64, frame)));
    gts
}

/// Refinement regions for `gts`: every other object's box, slightly
/// dilated, plus one region over no object (a false proposal).
fn regions(gts: &[GroundTruthObject], frame: usize) -> Vec<Box2> {
    gts.iter()
        .enumerate()
        .filter(|(i, _)| (i + frame).is_multiple_of(2))
        .map(|(_, g)| g.bbox.dilate(5.0))
        .chain(std::iter::once(Box2::from_xywh(600.0, 20.0, 80.0, 50.0)))
        .collect()
}

proptest! {
    #[test]
    fn an_imported_state_continues_the_exporters_outputs(
        // (full-frame call?, vanishing tracks present, churning tracks,
        //  0 starts a new sequence)
        calls in proptest::collection::vec((ANY_BOOL, 0u8..16, 0usize..3, 0u8..12), 1..40),
        split in 0usize..40,
        seed in 0u64..1 << 40,
        strong in ANY_BOOL,
        exporter_cached in ANY_BOOL,
        importer_cached in ANY_BOOL,
    ) {
        let model = if strong { zoo::resnet50(2) } else { zoo::resnet10c(2) };
        let build = |cached| {
            SimulatedDetector::with_seed(model.clone(), FRAME_W, FRAME_H, seed)
                .with_stream_cache(cached)
        };
        let mut live = build(exporter_cached);
        let mut resumed: Option<SimulatedDetector> = None;
        let mut seq = 0usize;
        for (frame, &(full, present, churn, new_seq)) in calls.iter().enumerate() {
            if frame == split {
                let mut fresh = build(importer_cached);
                fresh.import_state(live.export_state());
                resumed = Some(fresh);
            }
            if new_seq == 0 {
                seq += 1;
            }
            let gts = scene(frame, present, churn);
            let proposals = regions(&gts, frame);
            let run = |d: &mut SimulatedDetector| {
                if full {
                    d.detect_full_frame(seq, frame, &gts)
                } else {
                    d.detect_regions(seq, frame, &gts, &proposals, 30.0)
                }
            };
            let want = run(&mut live);
            if let Some(d) = resumed.as_mut() {
                prop_assert_eq!(run(d), want, "frame {} after an import at {}", frame, split);
            }
        }
    }
}
