//! CaTDet: the cascade with tracker feedback (paper Fig. 1c, Fig. 2).

use crate::ops::OpsBreakdown;
use crate::scratch::{FrameScratch, StageScratch};
use crate::stage::{PipelineState, ProposalWork, RefinementWork, StageStep, StagedDetector};
use crate::system::{nms_per_class_with, refinement_macs_from_coverage, FrameOutput, SystemConfig};
use catdet_data::Frame;
use catdet_detector::{zoo, DetectorModel, SimulatedDetector};
use catdet_metrics::Detection;
use catdet_sim::ActorClass;
use catdet_track::{TrackDetection, Tracker, TrackerConfig};

/// CaTDet's frame state machine (see [`StagedDetector`]).
///
/// The in-flight frame and its region set live in the system's
/// [`FrameScratch`], not in the stage payloads — advancing a frame moves
/// no buffers and clones nothing. A call's own buffers are its thread's
/// [`StageScratch`].
#[derive(Debug, Clone)]
enum Stage {
    /// No frame in flight.
    Idle,
    /// Suspended at the proposal boundary (frame loaded in scratch).
    AwaitProposal,
    /// Suspended at the refinement boundary: the proposal stage fixed the
    /// region set (in scratch) and priced the pending dispatch with its
    /// Table 3 source attribution.
    AwaitRefinement {
        ops: OpsBreakdown,
        work: RefinementWork,
    },
    /// Frame finished; output not yet collected by `step`.
    Finished { output: FrameOutput },
}

/// The full CaTDet system.
///
/// Per frame (Fig. 2): the tracker predicts where last frame's confirmed
/// objects will be; the proposal network scans the frame for new objects;
/// the union of both region sets goes to the refinement network; the
/// refined detections are the system output *and* the tracker's next
/// input. The tracker's coasting-through-misses behaviour is what lets the
/// system re-acquire objects the proposal network persistently misses —
/// the accuracy gap between this system and [`crate::CascadedSystem`] is
/// the paper's central ablation (Fig. 6, Table 6).
///
/// The frame advances through the [`StagedDetector`] protocol — proposal
/// and refinement are separate resume points a scheduler can suspend at —
/// while `process_frame` (the [`crate::DetectionSystem`] blanket impl)
/// drives both stages back-to-back.
#[derive(Debug, Clone)]
pub struct CaTDetSystem {
    proposal: SimulatedDetector,
    refinement: SimulatedDetector,
    tracker: Tracker<ActorClass>,
    cfg: SystemConfig,
    width: f32,
    height: f32,
    stage: Stage,
    scratch: FrameScratch,
}

impl CaTDetSystem {
    /// Builds a CaTDet system from two detector models with the paper's
    /// tracker settings.
    pub fn new(
        proposal: DetectorModel,
        refinement: DetectorModel,
        width: f32,
        height: f32,
        cfg: SystemConfig,
    ) -> Self {
        let tracker_cfg = TrackerConfig::paper().with_input_threshold(cfg.t_thresh);
        Self::with_tracker(proposal, refinement, width, height, cfg, tracker_cfg)
    }

    /// Builds a CaTDet system with a custom tracker configuration (used by
    /// the motion-model and lifetime ablations).
    pub fn with_tracker(
        proposal: DetectorModel,
        refinement: DetectorModel,
        width: f32,
        height: f32,
        cfg: SystemConfig,
        tracker_cfg: TrackerConfig,
    ) -> Self {
        Self {
            proposal: SimulatedDetector::new(proposal, width, height),
            refinement: SimulatedDetector::new(refinement, width, height),
            tracker: Tracker::new(tracker_cfg),
            cfg,
            width,
            height,
            stage: Stage::Idle,
            scratch: FrameScratch::new(),
        }
    }

    /// CaTDet-A: ResNet-10a proposal + ResNet-50 refinement (Table 2).
    pub fn catdet_a() -> Self {
        Self::new(
            zoo::resnet10a(2),
            zoo::resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper(),
        )
    }

    /// CaTDet-B: ResNet-10b proposal + ResNet-50 refinement (Table 2).
    pub fn catdet_b() -> Self {
        Self::new(
            zoo::resnet10b(2),
            zoo::resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper(),
        )
    }

    /// RetinaNet-refined CaTDet (Appendix II, Table 8).
    pub fn catdet_retinanet() -> Self {
        Self::new(
            zoo::resnet10a(2),
            zoo::retinanet_resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper(),
        )
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Live tracker state (for inspection/examples).
    pub fn tracker(&self) -> &Tracker<ActorClass> {
        &self.tracker
    }
}

impl StagedDetector for CaTDetSystem {
    fn name(&self) -> String {
        format!(
            "{}+{} CaTDet",
            self.proposal.model().name,
            self.refinement.model().name
        )
    }

    fn reset(&mut self) {
        self.proposal.reset();
        self.refinement.reset();
        self.tracker.reset();
        self.stage = Stage::Idle;
    }

    fn begin_frame(&mut self, frame: &Frame) {
        assert!(
            matches!(self.stage, Stage::Idle),
            "begin_frame while a frame is in flight"
        );
        self.scratch.load_frame(frame);
        self.stage = Stage::AwaitProposal;
    }

    fn step(&mut self) -> StageStep {
        match &self.stage {
            Stage::Idle => panic!("step without begin_frame"),
            Stage::AwaitProposal => StageStep::NeedsProposal(ProposalWork {
                macs: self
                    .proposal
                    .model()
                    .ops
                    .full_frame_macs(self.width as usize, self.height as usize),
            }),
            Stage::AwaitRefinement { work, .. } => StageStep::NeedsRefinement(*work),
            Stage::Finished { .. } => {
                let Stage::Finished { output } = std::mem::replace(&mut self.stage, Stage::Idle)
                else {
                    unreachable!()
                };
                StageStep::Done(output)
            }
        }
    }

    fn complete_proposal(&mut self, _work: ProposalWork) -> ProposalWork {
        assert!(
            matches!(self.stage, Stage::AwaitProposal),
            "complete_proposal outside the proposal boundary"
        );
        self.stage = Stage::Idle;
        let mut s = StageScratch::take();

        // (b) Tracker predicts current-frame locations of known objects,
        // written straight into the region buffer.
        self.scratch.regions.clear();
        self.tracker
            .predicted_regions_into(self.width, self.height, &mut self.scratch.regions);
        let tracker_regions = self.scratch.regions.len();

        // (c) Proposal network adds candidate locations for new objects.
        let frame = &self.scratch.frame;
        self.proposal.detect_full_frame_into(
            frame.sequence_id,
            frame.index,
            &frame.ground_truth,
            &mut s.dets,
        );
        s.dets.retain(|d| d.score >= self.cfg.c_thresh);
        nms_per_class_with(&mut s.nms, &s.dets, self.cfg.nms_iou, &mut s.kept);
        self.scratch.regions.extend(s.kept.iter().map(|d| d.bbox));

        // The union of both sources is the refinement network's input; its
        // pending dispatch is priced here, with the Table 3 source
        // attribution, so a scheduler can fuse it before it runs. Each
        // source is rasterised once at stride 16, and the union's coverage
        // is the OR of the two rasters: it prices the dispatch, is
        // reported, and scales the refinement network's clutter term.
        let proposal_macs = self
            .proposal
            .model()
            .ops
            .full_frame_macs(self.width as usize, self.height as usize);
        let (width, height, margin) = (self.width, self.height, self.cfg.margin);
        let spec = &self.refinement.model().ops;
        let regions = &self.scratch.regions;
        let (tracked, proposed) = regions.split_at(tracker_regions);
        let raster = |grid, regions| {
            catdet_geom::coverage::masked_fraction_with(grid, regions, width, height, 16, margin)
        };
        let tracked_coverage = raster(&mut s.tracker_coverage, tracked);
        let proposed_coverage = raster(&mut s.coverage, proposed);
        let coverage = s.coverage.union_covered_cells(&s.tracker_coverage) as f64
            / s.coverage.total_cells() as f64;
        s.put();
        let price = |coverage, regions| {
            refinement_macs_from_coverage(spec, width, height, coverage, regions, margin)
        };
        let refine_macs = price(coverage, regions);
        let from_tracker = price(tracked_coverage, tracked);
        let from_proposal = price(proposed_coverage, proposed);
        let work = RefinementWork {
            macs: refine_macs,
            num_regions: regions.len(),
            coverage,
        };
        self.stage = Stage::AwaitRefinement {
            ops: OpsBreakdown {
                proposal: proposal_macs,
                refinement: refine_macs,
                refinement_from_tracker: from_tracker,
                refinement_from_proposal: from_proposal,
            },
            work,
        };
        ProposalWork {
            macs: proposal_macs,
        }
    }

    fn complete_refinement(&mut self, _work: RefinementWork) -> RefinementWork {
        let Stage::AwaitRefinement { ops, work, .. } =
            std::mem::replace(&mut self.stage, Stage::Idle)
        else {
            panic!("complete_refinement outside the refinement boundary");
        };

        // (d) Refinement network calibrates the union of both sources;
        // NMS removes duplicates.
        let mut s = StageScratch::take();
        let frame = &self.scratch.frame;
        self.refinement.detect_regions_with_coverage(
            frame.sequence_id,
            frame.index,
            &frame.ground_truth,
            &self.scratch.regions,
            self.cfg.margin,
            work.coverage,
            &mut s.dets,
        );
        nms_per_class_with(&mut s.nms, &s.dets, self.cfg.nms_iou, &mut s.kept);
        let detections = s.kept.clone();

        // (a→) Tracker consumes the calibrated detections for next frame.
        s.track_inputs.clear();
        s.track_inputs.extend(
            detections
                .iter()
                .filter(|d| d.score >= self.cfg.t_thresh)
                .map(|d| TrackDetection {
                    bbox: d.bbox,
                    score: d.score,
                    class: d.class,
                }),
        );
        self.tracker.update(&s.track_inputs);
        s.put();

        self.stage = Stage::Finished {
            output: FrameOutput {
                detections,
                ops,
                num_refinement_regions: work.num_regions,
                refinement_coverage: work.coverage,
            },
        };
        work
    }

    fn export_state(&self) -> Option<PipelineState> {
        assert!(
            matches!(self.stage, Stage::Idle),
            "export_state with a frame in flight: snapshots are only valid at frame boundaries"
        );
        Some(PipelineState::CaTDet {
            tracker: self.tracker.export_state(),
            proposal: self.proposal.export_state(),
            refinement: self.refinement.export_state(),
        })
    }

    fn import_state(&mut self, state: PipelineState) {
        let PipelineState::CaTDet {
            tracker,
            proposal,
            refinement,
        } = state
        else {
            panic!("CaTDet expects CaTDet pipeline state, got another system's snapshot");
        };
        assert!(
            matches!(self.stage, Stage::Idle),
            "import_state with a frame in flight: snapshots are only valid at frame boundaries"
        );
        self.tracker.import_state(tracker);
        self.proposal.import_state(proposal);
        self.refinement.import_state(refinement);
    }

    fn live_tracks(&self) -> usize {
        self.tracker.tracks().len()
    }

    /// Track-only frame: the tracker's Kalman predictions become the
    /// output directly — no proposal scan, no refinement dispatch — and
    /// the only priced compute is a cheap validate pass of the *proposal*
    /// (validate-model) network masked over the predicted regions. The
    /// tracker then ages one frame (confidence decay, motion advance), so
    /// a later full detection resumes from honest temporal state.
    fn coast_frame(&mut self, frame: &Frame) -> Option<FrameOutput> {
        assert!(
            matches!(self.stage, Stage::Idle),
            "coast_frame while a frame is in flight"
        );
        let _ = frame; // pixels are never touched on a coasted frame
        let mut s = StageScratch::take();
        s.predictions.clear();
        self.tracker
            .predictions_into(self.width, self.height, &mut s.predictions);
        self.scratch.regions.clear();
        self.scratch
            .regions
            .extend(s.predictions.iter().map(|p| p.bbox));
        let coverage = catdet_geom::coverage::masked_fraction_with(
            &mut s.coverage,
            &self.scratch.regions,
            self.width,
            self.height,
            16,
            self.cfg.margin,
        );
        let spec = &self.proposal.model().ops;
        let validate_macs = refinement_macs_from_coverage(
            spec,
            self.width,
            self.height,
            coverage,
            &self.scratch.regions,
            self.cfg.margin,
        );
        // Scores map the tracker's adaptive confidence counter onto [0,1].
        let max_conf = self.tracker.config().max_confidence.max(1) as f32;
        s.dets.clear();
        s.dets.extend(s.predictions.iter().map(|p| Detection {
            bbox: p.bbox,
            score: (p.confidence as f32 / max_conf).clamp(0.0, 1.0),
            class: p.class,
        }));
        // Highest score first, ties in prediction order: a stable sort's
        // order, without the merge buffer a stable sort allocates.
        let dets = &s.dets;
        s.order.clear();
        s.order.extend(0..dets.len() as u32);
        s.order.sort_unstable_by(|&a, &b| {
            dets[b as usize]
                .score
                .total_cmp(&dets[a as usize].score)
                .then(a.cmp(&b))
        });
        let detections: Vec<Detection> = s.order.iter().map(|&i| dets[i as usize]).collect();
        s.put();
        self.tracker.update(&[]);
        Some(FrameOutput {
            detections,
            ops: OpsBreakdown {
                proposal: 0.0,
                refinement: validate_macs,
                refinement_from_tracker: validate_macs,
                refinement_from_proposal: 0.0,
            },
            num_refinement_regions: self.scratch.regions.len(),
            refinement_coverage: coverage,
        })
    }

    fn mean_track_confidence(&self) -> Option<f64> {
        let tracks = self.tracker.tracks();
        if tracks.is_empty() {
            return None;
        }
        Some(tracks.iter().map(|t| t.confidence as f64).sum::<f64>() / tracks.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DetectionSystem;
    use catdet_data::kitti_like;

    #[test]
    fn tracker_regions_appear_after_first_detections() {
        let ds = kitti_like().sequences(1).frames_per_sequence(30).build();
        let mut sys = CaTDetSystem::catdet_a();
        let frames = ds.sequences()[0].frames();
        let first = sys.process_frame(&frames[0]);
        assert_eq!(first.ops.refinement_from_tracker, 0.0);
        let mut saw_tracker_work = false;
        for f in &frames[1..] {
            if sys.process_frame(f).ops.refinement_from_tracker > 0.0 {
                saw_tracker_work = true;
            }
        }
        assert!(saw_tracker_work, "tracker never contributed regions");
    }

    #[test]
    fn attribution_sources_exceed_actual_refinement() {
        // Overlapping sources: from_tracker + from_proposal >= refinement.
        let ds = kitti_like().sequences(1).frames_per_sequence(40).build();
        let mut sys = CaTDetSystem::catdet_a();
        let mut checked = 0;
        for f in ds.sequences()[0].frames() {
            let o = sys.process_frame(f);
            if o.ops.refinement_from_tracker > 0.0 && o.ops.refinement_from_proposal > 0.0 {
                assert!(
                    o.ops.refinement_from_tracker + o.ops.refinement_from_proposal
                        >= o.ops.refinement * 0.999,
                    "sum of sources below actual"
                );
                checked += 1;
            }
        }
        assert!(checked > 5);
    }

    #[test]
    fn catdet_is_cheaper_than_single_model() {
        let ds = kitti_like().sequences(2).frames_per_sequence(50).build();
        let mut sys = CaTDetSystem::catdet_a();
        let mut total = 0.0;
        let mut n = 0;
        for s in ds.sequences() {
            DetectionSystem::reset(&mut sys);
            for f in s.frames() {
                total += sys.process_frame(f).ops.total();
                n += 1;
            }
        }
        let mean_g = total / n as f64 / 1e9;
        assert!(mean_g < 150.0, "mean {mean_g} G");
    }

    #[test]
    fn catdet_recall_beats_cascade_on_same_frames() {
        // The system-level claim in miniature: with identical components,
        // adding the tracker cannot lose objects and typically recovers
        // proposal misses.
        use crate::cascade::CascadedSystem;
        let ds = kitti_like().sequences(3).frames_per_sequence(80).build();
        let mut catdet = CaTDetSystem::catdet_b();
        let mut cascade = CascadedSystem::cascade_b();
        let (mut cat_hits, mut cas_hits, mut total) = (0usize, 0usize, 0usize);
        for s in ds.sequences() {
            DetectionSystem::reset(&mut catdet);
            DetectionSystem::reset(&mut cascade);
            for f in s.frames() {
                let a = catdet.process_frame(f);
                let b = cascade.process_frame(f);
                for gt in f.ground_truth.iter().filter(|g| g.height_px() >= 25.0) {
                    total += 1;
                    if a.detections
                        .iter()
                        .any(|d| d.class == gt.class && d.bbox.iou(&gt.bbox) > 0.5 && d.score > 0.3)
                    {
                        cat_hits += 1;
                    }
                    if b.detections
                        .iter()
                        .any(|d| d.class == gt.class && d.bbox.iou(&gt.bbox) > 0.5 && d.score > 0.3)
                    {
                        cas_hits += 1;
                    }
                }
            }
        }
        assert!(total > 500);
        assert!(
            cat_hits > cas_hits,
            "CaTDet {cat_hits} vs cascade {cas_hits} of {total}"
        );
    }

    #[test]
    fn reset_clears_tracker_state() {
        let ds = kitti_like().sequences(1).frames_per_sequence(20).build();
        let mut sys = CaTDetSystem::catdet_a();
        for f in ds.sequences()[0].frames() {
            sys.process_frame(f);
        }
        assert!(!sys.tracker().tracks().is_empty());
        DetectionSystem::reset(&mut sys);
        assert!(sys.tracker().tracks().is_empty());
    }

    #[test]
    fn warmed_scratch_matches_fresh_system() {
        // The per-stream scratch replaced the per-frame `frame.clone()` /
        // `tracker_regions.clone()`: a system whose buffers were grown and
        // dirtied by a whole other sequence must still produce bit-equal
        // outputs to a fresh instance.
        let ds = kitti_like().sequences(2).frames_per_sequence(25).build();
        let mut warmed = CaTDetSystem::catdet_a();
        for f in ds.sequences()[1].frames() {
            warmed.process_frame(f);
        }
        DetectionSystem::reset(&mut warmed);
        let mut fresh = CaTDetSystem::catdet_a();
        for f in ds.sequences()[0].frames() {
            assert_eq!(warmed.process_frame(f), fresh.process_frame(f));
        }
    }

    #[test]
    fn coasted_detections_come_in_stable_score_order() {
        // Tracks share a handful of confidence levels, so many coasted
        // detections tie: they must keep the tracker's prediction order,
        // as the stable sort that used to order them kept it.
        let ds = kitti_like().sequences(1).frames_per_sequence(21).build();
        let frames = ds.sequences()[0].frames();
        let mut sys = CaTDetSystem::catdet_a();
        for f in &frames[..20] {
            sys.process_frame(f);
        }
        let max_conf = sys.tracker().config().max_confidence.max(1) as f32;
        let mut expected: Vec<Detection> = sys
            .tracker()
            .predictions(1242.0, 375.0)
            .iter()
            .map(|p| Detection {
                bbox: p.bbox,
                score: (p.confidence as f32 / max_conf).clamp(0.0, 1.0),
                class: p.class,
            })
            .collect();
        expected.sort_by(|a, b| b.score.total_cmp(&a.score));
        assert!(
            expected.windows(2).any(|w| w[0].score == w[1].score),
            "no equal scores to order"
        );
        let coasted = sys.coast_frame(&frames[20]).expect("CaTDet coasts");
        assert_eq!(coasted.detections, expected);
    }

    #[test]
    fn deterministic_end_to_end() {
        let ds = kitti_like().sequences(1).frames_per_sequence(25).build();
        let mut a = CaTDetSystem::catdet_a();
        let mut b = CaTDetSystem::catdet_a();
        for f in ds.sequences()[0].frames() {
            let oa = a.process_frame(f);
            let ob = b.process_frame(f);
            assert_eq!(oa.detections, ob.detections);
            assert_eq!(oa.ops, ob.ops);
        }
    }
}
