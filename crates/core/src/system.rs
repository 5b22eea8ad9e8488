//! The common detection-system interface and shared plumbing.

use crate::ops::OpsBreakdown;
use catdet_data::Frame;
use catdet_detector::OpsSpec;
use catdet_geom::{nms_indices_with, Box2, NmsScratch};
use catdet_metrics::Detection;
use catdet_sim::ActorClass;

/// Hyper-parameters shared by the cascaded systems (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Proposal-network output threshold ("C-thresh"); proposals scoring
    /// below it never reach the refinement network.
    pub c_thresh: f32,
    /// Tracker input threshold ("T-thresh"): refined detections must score
    /// at least this to update the tracker.
    pub t_thresh: f32,
    /// Margin appended around each proposal before feature extraction
    /// (paper: 30 px).
    pub margin: f32,
    /// NMS IoU threshold applied to each network's output per class.
    pub nms_iou: f32,
}

impl SystemConfig {
    /// The paper's settings: 30 px margin, standard 0.5 NMS, C-thresh 0.1,
    /// T-thresh 0.6.
    pub fn paper() -> Self {
        Self {
            c_thresh: 0.1,
            t_thresh: 0.6,
            margin: 30.0,
            nms_iou: 0.5,
        }
    }

    /// Returns a copy with a different proposal output threshold (the
    /// Figure 6 sweep variable).
    pub fn with_c_thresh(mut self, c: f32) -> Self {
        self.c_thresh = c;
        self
    }

    /// Returns a copy with a different tracker input threshold.
    pub fn with_t_thresh(mut self, t: f32) -> Self {
        self.t_thresh = t;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Everything a system produces for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutput {
    /// Final calibrated detections (after NMS).
    pub detections: Vec<Detection>,
    /// Arithmetic cost of the frame.
    pub ops: OpsBreakdown,
    /// Number of regions handed to the refinement network (0 for
    /// single-model systems).
    pub num_refinement_regions: usize,
    /// Fraction of the stride-16 feature grid covered by those regions.
    pub refinement_coverage: f64,
}

/// A video detection system: single-model, cascaded, or CaTDet.
///
/// Systems are `Send` so a serving layer can move per-stream pipelines
/// across threads; all temporal state must be owned, not shared.
///
/// This is the *monolithic* view of a system: one call per frame. The
/// paper's systems are implemented against the resumable
/// [`StagedDetector`](crate::stage::StagedDetector) protocol instead, and
/// receive this trait through a blanket impl whose `process_frame`
/// [drives the stages to completion](crate::stage::drive_frame). Callers
/// that don't care about stage boundaries (the runner, the evaluators)
/// keep using this trait unchanged; schedulers that want to suspend a
/// frame mid-flight use the staged protocol directly.
pub trait DetectionSystem: Send {
    /// Human-readable system name (used in experiment tables).
    fn name(&self) -> String;

    /// Clears temporal state at a sequence boundary.
    fn reset(&mut self);

    /// Processes the next frame of the current sequence.
    fn process_frame(&mut self, frame: &Frame) -> FrameOutput;
}

/// Reusable buffers for [`nms_per_class_with`]: one per pipeline, reused
/// every frame so steady-state suppression allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PerClassNms {
    scored: Vec<(Box2, f32)>,
    src_idx: Vec<usize>,
    kept_idx: Vec<usize>,
    nms: NmsScratch,
}

/// Applies greedy NMS independently within each class.
pub fn nms_per_class(detections: &[Detection], iou: f32) -> Vec<Detection> {
    let mut scratch = PerClassNms::default();
    let mut kept = Vec::with_capacity(detections.len());
    nms_per_class_with(&mut scratch, detections, iou, &mut kept);
    kept
}

/// Allocation-free [`nms_per_class`]: writes the surviving detections into
/// `out`, reusing `scratch` across calls.
pub fn nms_per_class_with(
    scratch: &mut PerClassNms,
    detections: &[Detection],
    iou: f32,
    out: &mut Vec<Detection>,
) {
    out.clear();
    for class in ActorClass::ALL {
        scratch.scored.clear();
        scratch.src_idx.clear();
        for (i, d) in detections.iter().enumerate() {
            if d.class == class {
                scratch.scored.push((d.bbox, d.score));
                scratch.src_idx.push(i);
            }
        }
        nms_indices_with(
            &mut scratch.nms,
            &scratch.scored,
            iou,
            &mut scratch.kept_idx,
        );
        for &idx in &scratch.kept_idx {
            out.push(detections[scratch.src_idx[idx]]);
        }
    }
    // `total_cmp` gives NaN scores a well-defined position in the ordering
    // instead of the stable-but-arbitrary placement that
    // `partial_cmp(..).unwrap_or(Equal)` used to produce.
    out.sort_by(|a, b| b.score.total_cmp(&a.score));
}

/// Refinement-network cost over a set of regions, dispatching on the
/// detector's ops model (Faster R-CNN masked trunk + per-RoI head, or
/// RetinaNet per-level masking).
pub fn refinement_macs(
    spec: &OpsSpec,
    width: f32,
    height: f32,
    regions: &[Box2],
    margin: f32,
) -> f64 {
    let coverage = catdet_geom::coverage::masked_fraction(regions, width, height, 16, margin);
    refinement_macs_from_coverage(spec, width, height, coverage, regions, margin)
}

/// [`refinement_macs`] when the stride-16 coverage of `regions` (dilated
/// by `margin`) has already been rasterised this frame: a staged pipeline
/// prices its dispatch and reports the coverage from one raster. Faster
/// R-CNN masks its trunk by `coverage`; RetinaNet prices each pyramid
/// level from the regions themselves.
pub fn refinement_macs_from_coverage(
    spec: &OpsSpec,
    width: f32,
    height: f32,
    coverage: f64,
    regions: &[Box2],
    margin: f32,
) -> f64 {
    if regions.is_empty() {
        return 0.0;
    }
    match spec {
        OpsSpec::FasterRcnn(s) => s
            .masked_macs(width as usize, height as usize, coverage, regions.len())
            .total(),
        OpsSpec::RetinaNet(r) => r.masked_macs(width as usize, height as usize, regions, margin),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(x: f32, score: f32, class: ActorClass) -> Detection {
        Detection {
            bbox: Box2::from_xywh(x, 100.0, 40.0, 30.0),
            score,
            class,
        }
    }

    #[test]
    fn nms_respects_class_boundaries() {
        // Identical boxes of different classes both survive.
        let dets = [
            det(100.0, 0.9, ActorClass::Car),
            det(100.0, 0.8, ActorClass::Pedestrian),
        ];
        assert_eq!(nms_per_class(&dets, 0.5).len(), 2);
    }

    #[test]
    fn nms_suppresses_within_class() {
        let dets = [
            det(100.0, 0.9, ActorClass::Car),
            det(102.0, 0.7, ActorClass::Car),
            det(400.0, 0.8, ActorClass::Car),
        ];
        let kept = nms_per_class(&dets, 0.5);
        assert_eq!(kept.len(), 2);
        assert!(kept[0].score >= kept[1].score);
    }

    #[test]
    fn paper_config_values() {
        let c = SystemConfig::paper();
        assert_eq!(c.margin, 30.0);
        assert_eq!(c.nms_iou, 0.5);
        let c2 = c.with_c_thresh(0.4).with_t_thresh(0.8);
        assert_eq!(c2.c_thresh, 0.4);
        assert_eq!(c2.t_thresh, 0.8);
    }

    #[test]
    fn refinement_macs_empty_regions_is_free() {
        let spec = OpsSpec::FasterRcnn(catdet_nn::presets::frcnn_resnet50(2));
        assert_eq!(refinement_macs(&spec, 1242.0, 375.0, &[], 30.0), 0.0);
    }

    #[test]
    fn refinement_macs_grow_with_regions() {
        let spec = OpsSpec::FasterRcnn(catdet_nn::presets::frcnn_resnet50(2));
        let one = [Box2::from_xywh(100.0, 100.0, 80.0, 60.0)];
        let two = [
            Box2::from_xywh(100.0, 100.0, 80.0, 60.0),
            Box2::from_xywh(600.0, 100.0, 80.0, 60.0),
        ];
        let a = refinement_macs(&spec, 1242.0, 375.0, &one, 30.0);
        let b = refinement_macs(&spec, 1242.0, 375.0, &two, 30.0);
        assert!(b > a && a > 0.0);
    }
}
