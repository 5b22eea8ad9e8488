//! The single-model baseline (paper Fig. 1a).

use crate::ops::OpsBreakdown;
use crate::scratch::{FrameScratch, StageScratch};
use crate::stage::{PipelineState, ProposalWork, RefinementWork, StageStep, StagedDetector};
use crate::system::{nms_per_class_with, FrameOutput, SystemConfig};
use catdet_data::Frame;
use catdet_detector::{zoo, DetectorModel, SimulatedDetector};

/// The single-model frame state machine: no proposal stage, one
/// full-frame dispatch at the refinement boundary. The in-flight frame
/// lives in the system's [`FrameScratch`].
#[derive(Debug, Clone)]
enum Stage {
    Idle,
    AwaitRefinement,
    Finished { output: FrameOutput },
}

/// One detector scanning every full frame — the paper's baseline system
/// and the accuracy reference every cascade is compared against.
///
/// Under the [`StagedDetector`] protocol a single-model frame suspends
/// straight at the refinement boundary: its one full-frame dispatch is
/// reported as [`RefinementWork`] (zero regions, full coverage), matching
/// how its cost has always been accounted under
/// [`OpsBreakdown::refinement`]. A scheduler can therefore fuse
/// full-frame launches from many single-model streams exactly like
/// per-region refinement launches.
#[derive(Debug, Clone)]
pub struct SingleModelSystem {
    detector: SimulatedDetector,
    width: f32,
    height: f32,
    nms_iou: f32,
    stage: Stage,
    scratch: FrameScratch,
}

impl SingleModelSystem {
    /// Builds a single-model system for frames of the given size.
    pub fn new(model: DetectorModel, width: f32, height: f32) -> Self {
        Self {
            detector: SimulatedDetector::new(model, width, height),
            width,
            height,
            nms_iou: SystemConfig::paper().nms_iou,
            stage: Stage::Idle,
            scratch: FrameScratch::new(),
        }
    }

    /// The paper's reference detector: ResNet-50 Faster R-CNN on KITTI
    /// frames (254.3 Gops, Table 2).
    pub fn resnet50_kitti() -> Self {
        Self::new(zoo::resnet50(2), 1242.0, 375.0)
    }

    /// Single-model RetinaNet (Table 8 baseline).
    pub fn retinanet_kitti() -> Self {
        Self::new(zoo::retinanet_resnet50(2), 1242.0, 375.0)
    }

    /// The wrapped detector model.
    pub fn model(&self) -> &DetectorModel {
        self.detector.model()
    }

    fn full_frame_macs(&self) -> f64 {
        self.detector
            .model()
            .ops
            .full_frame_macs(self.width as usize, self.height as usize)
    }
}

impl StagedDetector for SingleModelSystem {
    fn name(&self) -> String {
        format!("{} Faster R-CNN (single)", self.detector.model().name)
    }

    fn reset(&mut self) {
        self.detector.reset();
        self.stage = Stage::Idle;
    }

    fn begin_frame(&mut self, frame: &Frame) {
        assert!(
            matches!(self.stage, Stage::Idle),
            "begin_frame while a frame is in flight"
        );
        self.scratch.load_frame(frame);
        self.stage = Stage::AwaitRefinement;
    }

    fn step(&mut self) -> StageStep {
        match &self.stage {
            Stage::Idle => panic!("step without begin_frame"),
            Stage::AwaitRefinement => StageStep::NeedsRefinement(RefinementWork {
                macs: self.full_frame_macs(),
                num_regions: 0,
                coverage: 1.0,
            }),
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
        panic!("single-model systems have no proposal stage");
    }

    fn complete_refinement(&mut self, _work: RefinementWork) -> RefinementWork {
        assert!(
            matches!(self.stage, Stage::AwaitRefinement),
            "complete_refinement outside the refinement boundary"
        );
        self.stage = Stage::Idle;
        let mut s = StageScratch::take();
        let frame = &self.scratch.frame;
        self.detector.detect_full_frame_into(
            frame.sequence_id,
            frame.index,
            &frame.ground_truth,
            &mut s.dets,
        );
        nms_per_class_with(&mut s.nms, &s.dets, self.nms_iou, &mut s.kept);
        let detections = s.kept.clone();
        s.put();
        let macs = self.full_frame_macs();
        self.stage = Stage::Finished {
            output: FrameOutput {
                detections,
                ops: OpsBreakdown {
                    proposal: 0.0,
                    refinement: macs,
                    refinement_from_tracker: 0.0,
                    refinement_from_proposal: 0.0,
                },
                num_refinement_regions: 0,
                refinement_coverage: 1.0,
            },
        };
        RefinementWork {
            macs,
            num_regions: 0,
            coverage: 1.0,
        }
    }

    fn export_state(&self) -> Option<PipelineState> {
        assert!(
            matches!(self.stage, Stage::Idle),
            "export_state with a frame in flight: snapshots are only valid at frame boundaries"
        );
        Some(PipelineState::Single {
            detector: self.detector.export_state(),
        })
    }

    fn import_state(&mut self, state: PipelineState) {
        let PipelineState::Single { detector } = state else {
            panic!(
                "single-model system expects single pipeline state, got another system's snapshot"
            );
        };
        assert!(
            matches!(self.stage, Stage::Idle),
            "import_state with a frame in flight: snapshots are only valid at frame boundaries"
        );
        self.detector.import_state(detector);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DetectionSystem;
    use catdet_data::kitti_like;

    #[test]
    fn constant_ops_per_frame() {
        let ds = kitti_like().sequences(1).frames_per_sequence(10).build();
        let mut sys = SingleModelSystem::resnet50_kitti();
        let mut last = None;
        for f in ds.sequences()[0].frames() {
            let out = sys.process_frame(f);
            if let Some(prev) = last {
                assert_eq!(out.ops.total(), prev);
            }
            last = Some(out.ops.total());
        }
        // ~254 GMACs within our op-model tolerance.
        let g = last.unwrap() / 1e9;
        assert!((230.0..300.0).contains(&g), "got {g}");
    }

    #[test]
    fn detects_most_large_objects() {
        let ds = kitti_like().sequences(1).frames_per_sequence(60).build();
        let mut sys = SingleModelSystem::resnet50_kitti();
        let mut found = 0usize;
        let mut total = 0usize;
        for f in ds.sequences()[0].frames() {
            let out = sys.process_frame(f);
            // Large, unoccluded, untruncated objects: the easy ones.
            for gt in f
                .ground_truth
                .iter()
                .filter(|g| g.height_px() > 50.0 && g.occlusion < 0.2 && g.truncation < 0.1)
            {
                total += 1;
                if out
                    .detections
                    .iter()
                    .any(|d| d.class == gt.class && d.bbox.iou(&gt.bbox) > 0.5)
                {
                    found += 1;
                }
            }
        }
        assert!(total > 20);
        assert!(
            found as f64 / total as f64 > 0.85,
            "recall {}",
            found as f64 / total as f64
        );
    }

    #[test]
    fn output_is_deterministic() {
        let ds = kitti_like().sequences(1).frames_per_sequence(10).build();
        let mut a = SingleModelSystem::resnet50_kitti();
        let mut b = SingleModelSystem::resnet50_kitti();
        for f in ds.sequences()[0].frames() {
            assert_eq!(a.process_frame(f).detections, b.process_frame(f).detections);
        }
    }
}
