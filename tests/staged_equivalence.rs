//! Golden equivalence suite for the staged-detector redesign.
//!
//! The three systems were reimplemented from monolithic `process_frame`
//! bodies onto the resumable stage protocol. These tests pin the redesign
//! to the pre-redesign behaviour: reference implementations below are
//! line-for-line ports of the *old* monolithic pipelines (built from the
//! same public pieces — simulated detectors, tracker, NMS, pricing), and
//! the staged systems must produce bit-identical [`FrameOutput`]s —
//! detections, ops attribution, region counts and coverage — across
//! simulated KITTI and CityPersons sequences, whether driven stage by
//! stage or through the `process_frame` blanket impl.
//!
//! A property test additionally interleaves `step()` calls across two
//! live staged instances in arbitrary orders: suspension is per-instance
//! state, so no schedule may ever change either instance's outputs.

use catdet::core::system::refinement_macs;
use catdet::core::{
    drive_frame, nms_per_class, CaTDetSystem, CascadedSystem, DetectionSystem, FrameOutput,
    OpsBreakdown, PolicedPipeline, PolicyConfig, PolicyDecision, SingleModelSystem, StageStep,
    StagedDetector, SystemConfig,
};
use catdet::data::{citypersons_like, kitti_like, Frame, Sequence, VideoDataset};
use catdet::detector::{zoo, DetectorModel, SimulatedDetector};
use catdet::geom::coverage::masked_fraction;
use catdet::geom::{nms_indices_naive, Box2};
use catdet::metrics::Detection;
use catdet::sim::{ActorClass, GroundTruthObject};
use catdet::track::{TrackDetection, Tracker, TrackerConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference implementations: the pre-redesign monolithic pipelines.
// ---------------------------------------------------------------------

/// The old `CaTDetSystem::process_frame`, verbatim.
struct MonoCatdet {
    proposal: SimulatedDetector,
    refinement: SimulatedDetector,
    tracker: Tracker<ActorClass>,
    cfg: SystemConfig,
    width: f32,
    height: f32,
    /// Whether NMS and region gating run the kept naive references.
    naive: bool,
}

impl MonoCatdet {
    fn new(proposal: DetectorModel, refinement: DetectorModel, width: f32, height: f32) -> Self {
        let cfg = SystemConfig::paper();
        Self {
            proposal: SimulatedDetector::new(proposal, width, height),
            refinement: SimulatedDetector::new(refinement, width, height),
            tracker: Tracker::new(TrackerConfig::paper().with_input_threshold(cfg.t_thresh)),
            cfg,
            width,
            height,
            naive: false,
        }
    }

    /// The same monolith over the library's kept naive references: the
    /// quadratic NMS sweep, dense tracker association and quadratic
    /// region gating.
    fn naive(proposal: DetectorModel, refinement: DetectorModel, width: f32, height: f32) -> Self {
        let mut mono = Self::new(proposal, refinement, width, height);
        mono.tracker = Tracker::new(
            TrackerConfig::paper()
                .with_input_threshold(mono.cfg.t_thresh)
                .with_naive_association(),
        );
        mono.naive = true;
        mono
    }

    fn nms(&self, detections: &[Detection]) -> Vec<Detection> {
        if !self.naive {
            return nms_per_class(detections, self.cfg.nms_iou);
        }
        let mut kept = Vec::with_capacity(detections.len());
        for class in ActorClass::ALL {
            let of_class: Vec<usize> = (0..detections.len())
                .filter(|&i| detections[i].class == class)
                .collect();
            let scored: Vec<(Box2, f32)> = of_class
                .iter()
                .map(|&i| (detections[i].bbox, detections[i].score))
                .collect();
            for idx in nms_indices_naive(&scored, self.cfg.nms_iou) {
                kept.push(detections[of_class[idx]]);
            }
        }
        kept.sort_by(|a, b| b.score.total_cmp(&a.score));
        kept
    }

    fn process_frame(&mut self, frame: &Frame) -> FrameOutput {
        let predictions = self.tracker.predictions(self.width, self.height);
        let tracker_regions: Vec<Box2> = predictions.iter().map(|p| p.bbox).collect();

        let raw_props =
            self.proposal
                .detect_full_frame(frame.sequence_id, frame.index, &frame.ground_truth);
        let props: Vec<Detection> = raw_props
            .into_iter()
            .filter(|d| d.score >= self.cfg.c_thresh)
            .collect();
        let props = self.nms(&props);
        let proposal_regions: Vec<Box2> = props.iter().map(|d| d.bbox).collect();

        let mut regions = tracker_regions.clone();
        regions.extend_from_slice(&proposal_regions);
        let refined = if self.naive {
            self.refinement.detect_regions_reference(
                frame.sequence_id,
                frame.index,
                &frame.ground_truth,
                &regions,
                self.cfg.margin,
            )
        } else {
            self.refinement.detect_regions(
                frame.sequence_id,
                frame.index,
                &frame.ground_truth,
                &regions,
                self.cfg.margin,
            )
        };
        let detections = self.nms(&refined);

        let track_inputs: Vec<TrackDetection<ActorClass>> = detections
            .iter()
            .filter(|d| d.score >= self.cfg.t_thresh)
            .map(|d| TrackDetection {
                bbox: d.bbox,
                score: d.score,
                class: d.class,
            })
            .collect();
        self.tracker.update(&track_inputs);

        let proposal_macs = self
            .proposal
            .model()
            .ops
            .full_frame_macs(self.width as usize, self.height as usize);
        let spec = &self.refinement.model().ops;
        let refine_macs = refinement_macs(spec, self.width, self.height, &regions, self.cfg.margin);
        let from_tracker = refinement_macs(
            spec,
            self.width,
            self.height,
            &tracker_regions,
            self.cfg.margin,
        );
        let from_proposal = refinement_macs(
            spec,
            self.width,
            self.height,
            &proposal_regions,
            self.cfg.margin,
        );
        let coverage = masked_fraction(&regions, self.width, self.height, 16, self.cfg.margin);
        FrameOutput {
            detections,
            ops: OpsBreakdown {
                proposal: proposal_macs,
                refinement: refine_macs,
                refinement_from_tracker: from_tracker,
                refinement_from_proposal: from_proposal,
            },
            num_refinement_regions: regions.len(),
            refinement_coverage: coverage,
        }
    }
}

/// The old `CascadedSystem::process_frame`, verbatim.
struct MonoCascade {
    proposal: SimulatedDetector,
    refinement: SimulatedDetector,
    cfg: SystemConfig,
    width: f32,
    height: f32,
}

impl MonoCascade {
    fn new(proposal: DetectorModel, refinement: DetectorModel, width: f32, height: f32) -> Self {
        Self {
            proposal: SimulatedDetector::new(proposal, width, height),
            refinement: SimulatedDetector::new(refinement, width, height),
            cfg: SystemConfig::paper(),
            width,
            height,
        }
    }

    fn process_frame(&mut self, frame: &Frame) -> FrameOutput {
        let raw_props =
            self.proposal
                .detect_full_frame(frame.sequence_id, frame.index, &frame.ground_truth);
        let props: Vec<_> = raw_props
            .into_iter()
            .filter(|d| d.score >= self.cfg.c_thresh)
            .collect();
        let props = nms_per_class(&props, self.cfg.nms_iou);
        let regions: Vec<Box2> = props.iter().map(|d| d.bbox).collect();

        let refined = self.refinement.detect_regions(
            frame.sequence_id,
            frame.index,
            &frame.ground_truth,
            &regions,
            self.cfg.margin,
        );
        let detections = nms_per_class(&refined, self.cfg.nms_iou);

        let proposal_macs = self
            .proposal
            .model()
            .ops
            .full_frame_macs(self.width as usize, self.height as usize);
        let refine_macs = refinement_macs(
            &self.refinement.model().ops,
            self.width,
            self.height,
            &regions,
            self.cfg.margin,
        );
        let coverage = masked_fraction(&regions, self.width, self.height, 16, self.cfg.margin);
        FrameOutput {
            detections,
            ops: OpsBreakdown {
                proposal: proposal_macs,
                refinement: refine_macs,
                refinement_from_tracker: 0.0,
                refinement_from_proposal: refine_macs,
            },
            num_refinement_regions: regions.len(),
            refinement_coverage: coverage,
        }
    }
}

/// The old `SingleModelSystem::process_frame`, verbatim.
struct MonoSingle {
    detector: SimulatedDetector,
    width: f32,
    height: f32,
    nms_iou: f32,
}

impl MonoSingle {
    fn new(model: DetectorModel, width: f32, height: f32) -> Self {
        Self {
            detector: SimulatedDetector::new(model, width, height),
            width,
            height,
            nms_iou: SystemConfig::paper().nms_iou,
        }
    }

    fn process_frame(&mut self, frame: &Frame) -> FrameOutput {
        let raw =
            self.detector
                .detect_full_frame(frame.sequence_id, frame.index, &frame.ground_truth);
        let detections = nms_per_class(&raw, self.nms_iou);
        let macs = self
            .detector
            .model()
            .ops
            .full_frame_macs(self.width as usize, self.height as usize);
        FrameOutput {
            detections,
            ops: OpsBreakdown {
                proposal: 0.0,
                refinement: macs,
                refinement_from_tracker: 0.0,
                refinement_from_proposal: 0.0,
            },
            num_refinement_regions: 0,
            refinement_coverage: 1.0,
        }
    }
}

// ---------------------------------------------------------------------
// Golden equivalence: staged == pre-redesign monolith, bit for bit.
// ---------------------------------------------------------------------

fn datasets() -> Vec<(VideoDataset, f32, f32)> {
    vec![
        (
            kitti_like()
                .sequences(2)
                .frames_per_sequence(25)
                .seed(42)
                .build(),
            1242.0,
            375.0,
        ),
        (
            citypersons_like()
                .sequences(2)
                .frames_per_sequence(25)
                .seed(43)
                .build(),
            2048.0,
            1024.0,
        ),
    ]
}

/// Drives one staged frame manually (assert the exact boundary order) and
/// checks the priced work items against the final output.
fn step_through(
    system: &mut impl StagedDetector,
    frame: &Frame,
    has_proposal: bool,
) -> FrameOutput {
    system.begin_frame(frame);
    if has_proposal {
        let StageStep::NeedsProposal(prop) = system.step() else {
            panic!("expected the proposal boundary first");
        };
        let executed = system.complete_proposal(prop);
        assert_eq!(executed.macs, prop.macs, "native pricing is exact");
    }
    let StageStep::NeedsRefinement(refine) = system.step() else {
        panic!("expected the refinement boundary");
    };
    system.complete_refinement(refine);
    let StageStep::Done(out) = system.step() else {
        panic!("expected Done after refinement");
    };
    assert_eq!(out.ops.refinement, refine.macs);
    assert_eq!(out.num_refinement_regions, refine.num_regions);
    assert_eq!(out.refinement_coverage, refine.coverage);
    out
}

#[test]
fn staged_catdet_matches_monolithic_reference() {
    for (ds, w, h) in datasets() {
        for seq in ds.sequences() {
            let mut staged = CaTDetSystem::new(
                zoo::resnet10a(2),
                zoo::resnet50(2),
                w,
                h,
                SystemConfig::paper(),
            );
            let mut driven = CaTDetSystem::new(
                zoo::resnet10a(2),
                zoo::resnet50(2),
                w,
                h,
                SystemConfig::paper(),
            );
            let mut reference = MonoCatdet::new(zoo::resnet10a(2), zoo::resnet50(2), w, h);
            for frame in seq.frames() {
                let expect = reference.process_frame(frame);
                assert_eq!(
                    step_through(&mut staged, frame, true),
                    expect,
                    "stage-driven CaTDet diverged on {} seq {} frame {}",
                    ds.name,
                    seq.id,
                    frame.index
                );
                assert_eq!(
                    drive_frame(&mut driven, frame),
                    expect,
                    "process_frame CaTDet diverged on {} seq {} frame {}",
                    ds.name,
                    seq.id,
                    frame.index
                );
            }
        }
    }
}

#[test]
fn staged_cascade_matches_monolithic_reference() {
    for (ds, w, h) in datasets() {
        for seq in ds.sequences() {
            let mut staged = CascadedSystem::new(
                zoo::resnet10b(2),
                zoo::resnet50(2),
                w,
                h,
                SystemConfig::paper(),
            );
            let mut reference = MonoCascade::new(zoo::resnet10b(2), zoo::resnet50(2), w, h);
            for frame in seq.frames() {
                let expect = reference.process_frame(frame);
                assert_eq!(
                    step_through(&mut staged, frame, true),
                    expect,
                    "stage-driven cascade diverged on {} seq {} frame {}",
                    ds.name,
                    seq.id,
                    frame.index
                );
            }
        }
    }
}

#[test]
fn staged_single_model_matches_monolithic_reference() {
    for (ds, w, h) in datasets() {
        for seq in ds.sequences() {
            let mut staged = SingleModelSystem::new(zoo::resnet50(2), w, h);
            let mut reference = MonoSingle::new(zoo::resnet50(2), w, h);
            for frame in seq.frames() {
                let expect = reference.process_frame(frame);
                assert_eq!(
                    step_through(&mut staged, frame, false),
                    expect,
                    "stage-driven single model diverged on {} seq {} frame {}",
                    ds.name,
                    seq.id,
                    frame.index
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fast paths == naive references: grid-indexed NMS, gated association
// and gated region lookup against the kept quadratic sweeps, including a
// crowd dense enough that every sweep bites.
// ---------------------------------------------------------------------

/// Deterministic hash → `[0, 1)` (splitmix64 finalizer).
fn unit_hash(mut x: u64) -> f32 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 40) as f32 / (1u64 << 24) as f32
}

/// One sequence of `objects` small, drifting, unoccluded boxes on a
/// 2048×1024 frame: far denser than the street simulator gets.
fn dense_crowd(frames: usize, objects: usize) -> VideoDataset {
    let (width, height) = (2048.0f32, 1024.0f32);
    let cols = (objects as f32).sqrt().ceil() as usize;
    let rows = objects.div_ceil(cols) as f32;
    let frames = (0..frames)
        .map(|index| {
            let t = index as f32;
            let ground_truth = (0..objects)
                .map(|i| {
                    let key = i as u64;
                    let h = 28.0 + 44.0 * unit_hash(key ^ 0x51);
                    let (class, aspect) = if unit_hash(key ^ 0xC1) < 0.3 {
                        (ActorClass::Car, 1.3 + 0.6 * unit_hash(key ^ 0x77))
                    } else {
                        (ActorClass::Pedestrian, 0.35 + 0.2 * unit_hash(key ^ 0x77))
                    };
                    let phase = unit_hash(key ^ 0x1F) * std::f32::consts::TAU;
                    let speed = 0.05 + 0.15 * unit_hash(key ^ 0x2F);
                    let (col, row) = ((i % cols) as f32, (i / cols) as f32);
                    let cx = (col + 0.5) / cols as f32 * (width - 120.0)
                        + 40.0 * (speed * t + phase).sin()
                        + 20.0;
                    let cy = (row + 0.5) / rows * (height - 120.0)
                        + 25.0 * (speed * t + 1.7 * phase).cos()
                        + 20.0;
                    let bbox = Box2::from_cxcywh(cx, cy, h * aspect, h).clip(width, height);
                    GroundTruthObject {
                        track_id: key,
                        class,
                        bbox,
                        full_bbox: bbox,
                        occlusion: 0.0,
                        truncation: 0.0,
                        depth: 2262.5 * 1.75 / h,
                    }
                })
                .collect();
            Frame {
                sequence_id: 0,
                index,
                ground_truth,
                labeled: true,
            }
        })
        .collect();
    VideoDataset::new(
        "dense-crowd",
        width,
        height,
        vec![ActorClass::Car, ActorClass::Pedestrian],
        vec![Sequence::new(0, 30.0, frames)],
    )
}

#[test]
fn fast_paths_match_naive_reference_monolith() {
    let datasets = [
        kitti_like().sequences(1).frames_per_sequence(40).build(),
        citypersons_like()
            .sequences(2)
            .frames_per_sequence(15)
            .build(),
        dense_crowd(15, 140),
    ];
    for ds in &datasets {
        let (w, h) = (ds.width, ds.height);
        for seq in ds.sequences() {
            let mut optimized = CaTDetSystem::new(
                zoo::resnet10a(2),
                zoo::resnet50(2),
                w,
                h,
                SystemConfig::paper(),
            );
            let mut reference = MonoCatdet::naive(zoo::resnet10a(2), zoo::resnet50(2), w, h);
            for frame in seq.frames() {
                assert_eq!(
                    drive_frame(&mut optimized, frame),
                    reference.process_frame(frame),
                    "fast paths diverged from the naive references on {} seq {} frame {}",
                    ds.name,
                    seq.id,
                    frame.index
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Frame-policy golden suite: an always-detect PolicedPipeline is the
// identity wrapper, bit for bit, on KITTI-like and CityPersons-like
// sequences; the other policies follow their decision contracts exactly.
// ---------------------------------------------------------------------

#[test]
fn policed_always_detect_matches_bare_pipeline() {
    for (ds, w, h) in datasets() {
        for seq in ds.sequences() {
            let mut bare = CaTDetSystem::new(
                zoo::resnet10a(2),
                zoo::resnet50(2),
                w,
                h,
                SystemConfig::paper(),
            );
            let mut policed = PolicedPipeline::new(
                Box::new(CaTDetSystem::new(
                    zoo::resnet10a(2),
                    zoo::resnet50(2),
                    w,
                    h,
                    SystemConfig::paper(),
                )),
                PolicyConfig::always_detect(),
            );
            assert_eq!(
                StagedDetector::name(&policed),
                StagedDetector::name(&bare),
                "the wrapper must be invisible"
            );
            for frame in seq.frames() {
                let expect = drive_frame(&mut bare, frame);
                assert_eq!(
                    drive_frame(&mut policed, frame),
                    expect,
                    "always-detect policy diverged on {} seq {} frame {}",
                    ds.name,
                    seq.id,
                    frame.index
                );
                assert_eq!(policed.policy_decision(), Some(PolicyDecision::Detect));
            }
        }
    }
}

#[test]
fn fixed_stride_detects_on_schedule_and_skips_between() {
    let ds = kitti_like()
        .sequences(1)
        .frames_per_sequence(20)
        .seed(9)
        .build();
    let stride = 4;
    let mut policed = PolicedPipeline::new(
        Box::new(CaTDetSystem::catdet_a()),
        PolicyConfig::fixed_stride(stride),
    );
    for (i, frame) in ds.sequences()[0].frames().iter().enumerate() {
        let out = drive_frame(&mut policed, frame);
        let decision = policed.policy_decision().expect("policied pipeline");
        if i % stride == 0 {
            assert_eq!(decision, PolicyDecision::Detect, "frame {i}");
            assert!(out.ops.total() > 0.0, "detect frames are priced");
        } else {
            assert_eq!(decision, PolicyDecision::Skip, "frame {i}");
            assert!(out.detections.is_empty(), "skipped frames output nothing");
            assert_eq!(out.ops.total(), 0.0, "skipped frames cost nothing");
        }
    }
}

proptest! {
    /// The confidence trigger's coast bound: no run of consecutive coasts
    /// ever exceeds `max_coast`, and the frame after a full coast run is
    /// always a detection — across random seeds, thresholds and bounds.
    #[test]
    fn confidence_trigger_bounds_every_coast_run(
        seed in 0u64..12,
        confidence in 0.0f64..2.5,
        max_coast in 1usize..6,
    ) {
        let ds = kitti_like()
            .sequences(1)
            .frames_per_sequence(30)
            .seed(seed)
            .build();
        let cfg = PolicyConfig::confidence_trigger(confidence).with_max_coast(max_coast);
        let mut policed =
            PolicedPipeline::new(Box::new(CaTDetSystem::catdet_a()), cfg);
        let mut streak = 0usize;
        let mut full_run = false;
        for frame in ds.sequences()[0].frames() {
            drive_frame(&mut policed, frame);
            let decision = policed.policy_decision().expect("policied pipeline");
            if full_run {
                prop_assert_eq!(
                    decision,
                    PolicyDecision::Detect,
                    "a full coast run must trigger a detection"
                );
            }
            match decision {
                PolicyDecision::Coast => streak += 1,
                _ => streak = 0,
            }
            prop_assert!(streak <= max_coast, "coast run exceeded max_coast");
            full_run = streak == max_coast;
        }
    }

    /// Migration invariance: exporting the policied state mid-sequence and
    /// importing it into a fresh pipeline (what a live migration does at a
    /// stage-boundary suspend point) changes neither the decisions nor the
    /// outputs of the remaining frames.
    #[test]
    fn confidence_trigger_decisions_survive_migration(
        seed in 0u64..8,
        split in 1usize..24,
    ) {
        let ds = kitti_like()
            .sequences(1)
            .frames_per_sequence(25)
            .seed(seed)
            .build();
        let frames = ds.sequences()[0].frames();
        let cfg = PolicyConfig::confidence_trigger(1.0);

        let mut reference =
            PolicedPipeline::new(Box::new(CaTDetSystem::catdet_a()), cfg);
        let expect: Vec<(FrameOutput, PolicyDecision)> = frames
            .iter()
            .map(|f| {
                let out = drive_frame(&mut reference, f);
                (out, reference.policy_decision().expect("policied"))
            })
            .collect();

        let mut before =
            PolicedPipeline::new(Box::new(CaTDetSystem::catdet_a()), cfg);
        let mut got = Vec::with_capacity(frames.len());
        for f in &frames[..split] {
            let out = drive_frame(&mut before, f);
            got.push((out, before.policy_decision().expect("policied")));
        }
        let state = before.export_state().expect("catdet state exports");
        let mut after =
            PolicedPipeline::new(Box::new(CaTDetSystem::catdet_a()), cfg);
        after.import_state(state);
        for f in &frames[split..] {
            let out = drive_frame(&mut after, f);
            got.push((out, after.policy_decision().expect("policied")));
        }
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// Interleaving property: suspension is per-instance state.
// ---------------------------------------------------------------------

/// One staged instance mid-drive: advances by exactly one protocol call
/// per `advance`.
struct Interleaved {
    system: CaTDetSystem,
    frames: Vec<Frame>,
    next: usize,
    in_flight: bool,
    outputs: Vec<FrameOutput>,
}

impl Interleaved {
    fn new(system: CaTDetSystem, frames: Vec<Frame>) -> Self {
        Self {
            system,
            frames,
            next: 0,
            in_flight: false,
            outputs: Vec::new(),
        }
    }

    fn finished(&self) -> bool {
        !self.in_flight && self.next >= self.frames.len()
    }

    fn advance(&mut self) {
        if !self.in_flight {
            self.system.begin_frame(&self.frames[self.next]);
            self.next += 1;
            self.in_flight = true;
            return;
        }
        match self.system.step() {
            StageStep::NeedsProposal(w) => {
                self.system.complete_proposal(w);
            }
            StageStep::NeedsRefinement(w) => {
                self.system.complete_refinement(w);
            }
            StageStep::Done(out) => {
                self.outputs.push(out);
                self.in_flight = false;
            }
        }
    }
}

proptest! {
    #[test]
    fn interleaving_steps_across_instances_changes_nothing(
        schedule in proptest::collection::vec(proptest::bool::ANY, 0..64),
        seed in 0u64..8,
    ) {
        let ds_a = kitti_like().sequences(1).frames_per_sequence(5).seed(seed).build();
        let ds_b = citypersons_like().sequences(1).frames_per_sequence(5).seed(seed + 1).build();
        let frames_a = ds_a.sequences()[0].frames().to_vec();
        let frames_b = ds_b.sequences()[0].frames().to_vec();

        // Reference: each instance driven alone, frame by frame.
        let mut ref_a = CaTDetSystem::catdet_a();
        let expect_a: Vec<FrameOutput> =
            frames_a.iter().map(|f| ref_a.process_frame(f)).collect();
        let mut ref_b = CaTDetSystem::new(
            zoo::resnet10a(2),
            zoo::resnet50(2),
            2048.0,
            1024.0,
            SystemConfig::paper(),
        );
        let expect_b: Vec<FrameOutput> =
            frames_b.iter().map(|f| ref_b.process_frame(f)).collect();

        // Interleave the two instances per the random schedule, then
        // drain whatever remains.
        let mut a = Interleaved::new(CaTDetSystem::catdet_a(), frames_a);
        let mut b = Interleaved::new(
            CaTDetSystem::new(
                zoo::resnet10a(2),
                zoo::resnet50(2),
                2048.0,
                1024.0,
                SystemConfig::paper(),
            ),
            frames_b,
        );
        for &pick_a in &schedule {
            let target = if pick_a { &mut a } else { &mut b };
            if !target.finished() {
                target.advance();
            }
        }
        while !a.finished() {
            a.advance();
        }
        while !b.finished() {
            b.advance();
        }

        prop_assert_eq!(a.outputs, expect_a);
        prop_assert_eq!(b.outputs, expect_b);
    }
}
