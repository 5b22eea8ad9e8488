//! The cascaded detector without a tracker (paper Fig. 1b).

use crate::ops::OpsBreakdown;
use crate::scratch::FrameScratch;
use crate::stage::{PipelineState, ProposalWork, RefinementWork, StageStep, StagedDetector};
use crate::system::{nms_per_class_with, refinement_macs_from_coverage, FrameOutput, SystemConfig};
use catdet_data::Frame;
use catdet_detector::{zoo, DetectorModel, SimulatedDetector};

/// The cascade's frame state machine (see [`StagedDetector`]); the frame
/// and region set live in the system's [`FrameScratch`].
#[derive(Debug, Clone)]
enum Stage {
    Idle,
    AwaitProposal,
    AwaitRefinement {
        ops: OpsBreakdown,
        work: RefinementWork,
    },
    Finished {
        output: FrameOutput,
    },
}

/// Proposal network → refinement network, no temporal feedback.
///
/// The proposal network scans every frame and its above-threshold outputs
/// become the only regions the refinement network sees. The paper's
/// ablation shows this system cannot match single-model accuracy with a
/// weak proposal network *no matter how many proposals it forwards* —
/// persistent proposal misses have no second chance.
///
/// Frames advance through the [`StagedDetector`] protocol: the proposal
/// scan and the refinement pass are separate resume points.
#[derive(Debug, Clone)]
pub struct CascadedSystem {
    proposal: SimulatedDetector,
    refinement: SimulatedDetector,
    cfg: SystemConfig,
    width: f32,
    height: f32,
    stage: Stage,
    scratch: FrameScratch,
}

impl CascadedSystem {
    /// Builds a cascade from two detector models.
    pub fn new(
        proposal: DetectorModel,
        refinement: DetectorModel,
        width: f32,
        height: f32,
        cfg: SystemConfig,
    ) -> Self {
        Self {
            proposal: SimulatedDetector::new(proposal, width, height),
            refinement: SimulatedDetector::new(refinement, width, height),
            cfg,
            width,
            height,
            stage: Stage::Idle,
            scratch: FrameScratch::new(width, height),
        }
    }

    /// The paper's "Res10a, Res50, Cascaded" row (Table 2).
    pub fn cascade_a() -> Self {
        Self::new(
            zoo::resnet10a(2),
            zoo::resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper(),
        )
    }

    /// The paper's "Res10b, Res50, Cascaded" row (Table 2).
    pub fn cascade_b() -> Self {
        Self::new(
            zoo::resnet10b(2),
            zoo::resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper(),
        )
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Proposal-model name.
    pub fn proposal_name(&self) -> &str {
        &self.proposal.model().name
    }
}

impl StagedDetector for CascadedSystem {
    fn name(&self) -> String {
        format!(
            "{}+{} Cascaded",
            self.proposal.model().name,
            self.refinement.model().name
        )
    }

    fn reset(&mut self) {
        self.proposal.reset();
        self.refinement.reset();
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

        // 1. Proposal network scans the whole frame; C-thresh + NMS.
        let raw_props = self.proposal.detect_full_frame(
            self.scratch.frame.sequence_id,
            self.scratch.frame.index,
            &self.scratch.frame.ground_truth,
        );
        self.scratch.dets.clear();
        self.scratch.dets.extend(
            raw_props
                .into_iter()
                .filter(|d| d.score >= self.cfg.c_thresh),
        );
        nms_per_class_with(
            &mut self.scratch.nms,
            &self.scratch.dets,
            self.cfg.nms_iou,
            &mut self.scratch.props,
        );
        self.scratch.regions.clear();
        self.scratch
            .regions
            .extend(self.scratch.props.iter().map(|d| d.bbox));

        // Price the pending refinement dispatch over the proposed regions;
        // one stride-16 raster serves both the reported coverage and (for
        // Faster R-CNN masking) the dispatch price.
        let proposal_macs = self
            .proposal
            .model()
            .ops
            .full_frame_macs(self.width as usize, self.height as usize);
        let spec = &self.refinement.model().ops;
        let regions = &self.scratch.regions;
        let coverage = catdet_geom::coverage::masked_fraction_with(
            &mut self.scratch.coverage,
            regions,
            self.width,
            self.height,
            16,
            self.cfg.margin,
        );
        let refine_macs = refinement_macs_from_coverage(
            spec,
            self.width,
            self.height,
            coverage,
            regions,
            self.cfg.margin,
        );
        let work = RefinementWork {
            macs: refine_macs,
            num_regions: regions.len(),
            coverage,
        };
        self.stage = Stage::AwaitRefinement {
            ops: OpsBreakdown {
                proposal: proposal_macs,
                refinement: refine_macs,
                refinement_from_tracker: 0.0,
                refinement_from_proposal: refine_macs,
            },
            work,
        };
        ProposalWork {
            macs: proposal_macs,
        }
    }

    fn complete_refinement(&mut self, _work: RefinementWork) -> RefinementWork {
        let Stage::AwaitRefinement { ops, work } = std::mem::replace(&mut self.stage, Stage::Idle)
        else {
            panic!("complete_refinement outside the refinement boundary");
        };

        // 2. Refinement network calibrates the proposed regions.
        let refined = self.refinement.detect_regions_with_coverage(
            self.scratch.frame.sequence_id,
            self.scratch.frame.index,
            &self.scratch.frame.ground_truth,
            &self.scratch.regions,
            self.cfg.margin,
            work.coverage,
        );
        let mut detections = Vec::with_capacity(refined.len());
        nms_per_class_with(
            &mut self.scratch.nms,
            &refined,
            self.cfg.nms_iou,
            &mut detections,
        );

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
        Some(PipelineState::Cascade {
            proposal: self.proposal.export_state(),
            refinement: self.refinement.export_state(),
        })
    }

    fn import_state(&mut self, state: PipelineState) {
        let PipelineState::Cascade {
            proposal,
            refinement,
        } = state
        else {
            panic!("cascade expects cascade pipeline state, got another system's snapshot");
        };
        assert!(
            matches!(self.stage, Stage::Idle),
            "import_state with a frame in flight: snapshots are only valid at frame boundaries"
        );
        self.proposal.import_state(proposal);
        self.refinement.import_state(refinement);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DetectionSystem;
    use catdet_data::kitti_like;

    #[test]
    fn cascade_is_much_cheaper_than_single_resnet50() {
        let ds = kitti_like().sequences(1).frames_per_sequence(50).build();
        let mut sys = CascadedSystem::cascade_a();
        let mut total = 0.0;
        let mut n = 0;
        for f in ds.sequences()[0].frames() {
            total += sys.process_frame(f).ops.total();
            n += 1;
        }
        let mean_g = total / n as f64 / 1e9;
        // Paper: 43.2 G vs 254.3 G for the single model.
        assert!(mean_g < 120.0, "mean {mean_g} G");
        assert!(mean_g > 21.0, "mean {mean_g} G — suspiciously free");
    }

    #[test]
    fn raising_c_thresh_reduces_work() {
        let ds = kitti_like().sequences(1).frames_per_sequence(40).build();
        let mut loose = CascadedSystem::new(
            zoo::resnet10a(2),
            zoo::resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper().with_c_thresh(0.02),
        );
        let mut tight = CascadedSystem::new(
            zoo::resnet10a(2),
            zoo::resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper().with_c_thresh(0.6),
        );
        let (mut a, mut b) = (0.0, 0.0);
        for f in ds.sequences()[0].frames() {
            a += loose.process_frame(f).ops.refinement;
            b += tight.process_frame(f).ops.refinement;
        }
        assert!(b < a, "tight {b} loose {a}");
    }

    #[test]
    fn missed_proposals_mean_missed_detections() {
        // With an absurd C-thresh nothing reaches refinement.
        let ds = kitti_like().sequences(1).frames_per_sequence(20).build();
        let mut sys = CascadedSystem::new(
            zoo::resnet10a(2),
            zoo::resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper().with_c_thresh(0.999),
        );
        let mut count = 0;
        for f in ds.sequences()[0].frames() {
            count += sys.process_frame(f).detections.len();
        }
        assert_eq!(count, 0);
    }

    #[test]
    fn ops_attribution_is_all_proposal_fed() {
        let ds = kitti_like().sequences(1).frames_per_sequence(10).build();
        let mut sys = CascadedSystem::cascade_b();
        for f in ds.sequences()[0].frames() {
            let out = sys.process_frame(f);
            assert_eq!(out.ops.refinement_from_tracker, 0.0);
            assert_eq!(out.ops.refinement, out.ops.refinement_from_proposal);
        }
    }
}
