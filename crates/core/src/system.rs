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

/// Reusable buffers for [`nms_per_class_with`]: reused every call, so
/// steady-state suppression allocates nothing. A pipeline borrows its
/// thread's (see [`crate::scratch`]).
#[derive(Debug, Clone, Default)]
pub struct PerClassNms {
    scored: Vec<(Box2, f32)>,
    src_idx: Vec<usize>,
    kept_idx: Vec<usize>,
    /// One class's survivors, merged into the output.
    run: Vec<Detection>,
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
///
/// The output is in descending score order ([`f32::total_cmp`]); equal
/// scores keep class order, then each class's NMS order — exactly what a
/// stable sort of the classes' survivors, concatenated, gives. Each
/// class's survivors already come in descending score order, so they are
/// merged into `out` instead of sorted: a stable sort allocates a merge
/// buffer above about 170 detections.
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
        scratch.run.clear();
        scratch.run.extend(
            scratch
                .kept_idx
                .iter()
                .map(|&idx| detections[scratch.src_idx[idx]]),
        );
        merge_by_descending_score(out, &scratch.run);
    }
}

/// Merges `run` into `out`, both in descending score order
/// ([`f32::total_cmp`], which gives NaN scores a well-defined position),
/// placing `out`'s detections ahead of equal-scoring ones from `run`.
/// It fills `out` from the back, so it needs no buffer.
fn merge_by_descending_score(out: &mut Vec<Detection>, run: &[Detection]) {
    let (mut i, mut j) = (out.len(), run.len());
    out.extend_from_slice(run);
    while j > 0 {
        // The last of the remaining detections in merged order.
        if i > 0 && out[i - 1].score.total_cmp(&run[j - 1].score).is_lt() {
            out[i + j - 1] = out[i - 1];
            i -= 1;
        } else {
            out[i + j - 1] = run[j - 1];
            j -= 1;
        }
    }
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
    use proptest::prelude::*;

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

    /// What `nms_per_class_with` did before it merged: each class's
    /// survivors concatenated in class order, then a stable descending
    /// sort.
    fn nms_per_class_sorted(detections: &[Detection], iou: f32) -> Vec<Detection> {
        let mut out = Vec::new();
        for class in ActorClass::ALL {
            let of_class: Vec<usize> = (0..detections.len())
                .filter(|&i| detections[i].class == class)
                .collect();
            let scored: Vec<(Box2, f32)> = of_class
                .iter()
                .map(|&i| (detections[i].bbox, detections[i].score))
                .collect();
            let kept = catdet_geom::nms_indices(&scored, iou);
            out.extend(kept.into_iter().map(|k| detections[of_class[k]]));
        }
        out.sort_by(|a, b| b.score.total_cmp(&a.score));
        out
    }

    /// Bit patterns of every field, so NaN scores compare.
    fn bits(detections: &[Detection]) -> Vec<Vec<u32>> {
        detections
            .iter()
            .map(|d| {
                let b = d.bbox;
                [b.x1, b.y1, b.x2, b.y2, d.score]
                    .map(f32::to_bits)
                    .into_iter()
                    .chain([d.class as u32])
                    .collect()
            })
            .collect()
    }

    /// A small pool, so equal scores are common: both zeros, NaNs of both
    /// signs and two payloads, and the ends of the range.
    const SCORES: [f32; 9] = [0.9, 0.5, 0.1, 0.0, -0.0, 1.0, f32::NAN, -f32::NAN, 0.5];

    proptest! {
        /// Merging each class's survivors gives the order the stable sort
        /// gave, ties, NaNs and signed zeros included, on sparse frames
        /// (hundreds of survivors, past the sort's stack buffer) and dense
        /// ones alike, through one reused scratch.
        #[test]
        fn prop_merged_nms_order_equals_a_stable_sort(
            dets in proptest::collection::vec(
                (0.0f32..1.0, 0.0f32..1.0, 5.0f32..60.0, 5.0f32..60.0, 0usize..10, 0usize..2),
                0..400,
            ),
            spread in (0usize..2).prop_map(|k| [300.0f32, 2000.0][k]),
            iou in 0.1f32..0.9,
        ) {
            let detections: Vec<Detection> = dets
                .iter()
                .map(|&(x, y, w, h, s, c)| Detection {
                    bbox: Box2::from_xywh(x * spread, y * spread / 2.0, w, h),
                    score: if s < SCORES.len() {
                        SCORES[s]
                    } else {
                        f32::from_bits(0x7fc0_0001)
                    },
                    class: ActorClass::ALL[c],
                })
                .collect();
            let mut scratch = PerClassNms::default();
            let mut out = Vec::new();
            for _ in 0..2 {
                nms_per_class_with(&mut scratch, &detections, iou, &mut out);
                prop_assert_eq!(bits(&out), bits(&nms_per_class_sorted(&detections, iou)));
            }
        }
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
