//! The end-to-end evaluator: mAP, mD@β and operating curves.

use crate::ap::{ap_11_point, ap_40_point, ap_continuous, PrCurve};
use crate::delay::DelayAccumulator;
use crate::matching::{match_frame, DetectionOutcome};
use crate::Detection;
use catdet_data::{Difficulty, GroundTruthObject};
use catdet_sim::ActorClass;
use std::collections::BTreeMap;

/// Delay measured at a precision operating point (Eq. 4–5 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct DelayReport {
    /// The target mean precision β.
    pub beta: f64,
    /// The confidence threshold t_β realising it.
    pub threshold: f32,
    /// Achieved mean precision (≥ β, as close as the score set allows).
    pub achieved_precision: f64,
    /// Mean delay per class, in frames.
    pub per_class: BTreeMap<String, f64>,
    /// Mean of the per-class delays — the paper's mD@β.
    pub mean: f64,
}

/// One point of a recall/delay-vs-precision sweep (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Score threshold.
    pub threshold: f32,
    /// Precision at the threshold.
    pub precision: f64,
    /// Recall at the threshold.
    pub recall: f64,
    /// Mean delay at the threshold (frames).
    pub delay: f64,
}

/// Complete evaluation summary of one system on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSummary {
    /// Difficulty the evaluation ran at.
    pub difficulty: String,
    /// AP per class (11-point).
    pub ap_per_class: BTreeMap<String, f64>,
    /// Mean AP over classes.
    pub map: f64,
    /// Delay reports for each requested β.
    pub delay: Vec<DelayReport>,
}

/// Which Average-Precision interpolation to report.
///
/// KITTI's original devkit (and therefore the paper's KITTI numbers) uses
/// 11-point interpolation; the paper's CityPersons evaluation follows the
/// Pascal VOC protocol, whose modern form is the exact area under the
/// interpolated precision–recall curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApMethod {
    /// 11-point interpolation (VOC 2007 / original KITTI devkit).
    #[default]
    ElevenPoint,
    /// 41-point interpolation (revised KITTI protocol).
    FortyPoint,
    /// Exact area under the interpolated curve (VOC 2010+).
    Continuous,
}

/// Accumulates per-frame results and produces the paper's metrics.
#[derive(Debug, Clone)]
pub struct Evaluator {
    classes: Vec<ActorClass>,
    difficulty: Difficulty,
    ap_method: ApMethod,
    records: BTreeMap<ActorClass, Vec<(f32, bool)>>,
    gt_counts: BTreeMap<ActorClass, usize>,
    delay: DelayAccumulator,
}

impl Evaluator {
    /// Creates an evaluator for the given classes and difficulty, using the
    /// KITTI-style 11-point AP.
    pub fn new(classes: Vec<ActorClass>, difficulty: Difficulty) -> Self {
        Self::with_ap_method(classes, difficulty, ApMethod::ElevenPoint)
    }

    /// Creates an evaluator with an explicit AP interpolation method.
    pub fn with_ap_method(
        classes: Vec<ActorClass>,
        difficulty: Difficulty,
        ap_method: ApMethod,
    ) -> Self {
        let records = classes.iter().map(|&c| (c, Vec::new())).collect();
        let gt_counts = classes.iter().map(|&c| (c, 0)).collect();
        Self {
            classes,
            difficulty,
            ap_method,
            records,
            gt_counts,
            delay: DelayAccumulator::new(),
        }
    }

    /// The evaluation difficulty.
    pub fn difficulty(&self) -> Difficulty {
        self.difficulty
    }

    /// Ingests one frame.
    ///
    /// `labeled` frames contribute to AP; every frame contributes to the
    /// delay statistics (delay needs the full video timeline — on sparsely
    /// annotated datasets like CityPersons delay is simply not reported,
    /// matching the paper).
    pub fn add_frame(
        &mut self,
        sequence_id: usize,
        frame_index: usize,
        gts: &[GroundTruthObject],
        dets: &[Detection],
        labeled: bool,
    ) {
        if labeled {
            let m = match_frame(gts, dets, self.difficulty);
            for (det, outcome) in dets.iter().zip(&m.outcomes) {
                if !self.classes.contains(&det.class) {
                    continue;
                }
                match outcome {
                    DetectionOutcome::TruePositive(_) => {
                        self.records
                            .get_mut(&det.class)
                            .unwrap()
                            .push((det.score, true));
                    }
                    DetectionOutcome::FalsePositive => {
                        self.records
                            .get_mut(&det.class)
                            .unwrap()
                            .push((det.score, false));
                    }
                    DetectionOutcome::Ignored => {}
                }
            }
            for gt in gts {
                if self.classes.contains(&gt.class) && self.difficulty.admits(gt) {
                    *self.gt_counts.get_mut(&gt.class).unwrap() += 1;
                }
            }
        }
        self.delay
            .add_frame(sequence_id, frame_index, gts, dets, self.difficulty);
    }

    /// Precision–recall curve for a class.
    pub fn pr_curve(&self, class: ActorClass) -> PrCurve {
        PrCurve::from_records(&self.records[&class], self.gt_counts[&class])
    }

    /// AP for a class under the evaluator's interpolation method.
    pub fn ap(&self, class: ActorClass) -> f64 {
        let curve = self.pr_curve(class);
        match self.ap_method {
            ApMethod::ElevenPoint => ap_11_point(&curve),
            ApMethod::FortyPoint => ap_40_point(&curve),
            ApMethod::Continuous => ap_continuous(&curve),
        }
    }

    /// Mean AP over the evaluated classes.
    pub fn map(&self) -> f64 {
        if self.classes.is_empty() {
            return 0.0;
        }
        self.classes.iter().map(|&c| self.ap(c)).sum::<f64>() / self.classes.len() as f64
    }

    /// Mean precision over classes at a score threshold (Eq. 5's left side).
    pub fn mean_precision_at(&self, t: f32) -> f64 {
        let curves: Vec<PrCurve> = self.classes.iter().map(|&c| self.pr_curve(c)).collect();
        mean_precision(&curves, t)
    }

    /// Finds the smallest threshold whose mean precision reaches `beta`.
    ///
    /// Returns `None` if even the most confident detections cannot reach
    /// the target precision.
    pub fn threshold_for_precision(&self, beta: f64) -> Option<f32> {
        let curves: Vec<PrCurve> = self.classes.iter().map(|&c| self.pr_curve(c)).collect();
        let mut scores: Vec<f32> = curves
            .iter()
            .flat_map(|c| c.points.iter().map(|p| p.score))
            .collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        scores.dedup();
        if scores.is_empty() {
            return None;
        }
        // Mean precision is non-decreasing in t to good approximation;
        // scan from the lowest threshold for the first admissible one to
        // stay exact even where it is locally non-monotone.
        scores
            .into_iter()
            .find(|&t| mean_precision(&curves, t) >= beta)
    }

    /// The paper's mD@β (Eq. 4): mean per-class delay at the threshold
    /// where mean precision equals β.
    pub fn mean_delay_at_precision(&self, beta: f64) -> Option<DelayReport> {
        let threshold = self.threshold_for_precision(beta)?;
        let mut per_class = BTreeMap::new();
        let mut total = 0.0;
        let mut n = 0usize;
        for &class in &self.classes {
            if let Some(d) = self.delay.mean_delay_at(class, threshold) {
                per_class.insert(class.name().to_string(), d);
                total += d;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        Some(DelayReport {
            beta,
            threshold,
            achieved_precision: self.mean_precision_at(threshold),
            per_class,
            mean: total / n as f64,
        })
    }

    /// Recall and delay as functions of precision for one class
    /// (Figure 7). Produces up to `max_points` operating points spanning
    /// the class's score range, ordered by increasing precision.
    pub fn operating_curve(&self, class: ActorClass, max_points: usize) -> Vec<OperatingPoint> {
        let curve = self.pr_curve(class);
        let mut scores: Vec<f32> = curve.points.iter().map(|p| p.score).collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        scores.dedup();
        let stride = (scores.len() / max_points.max(1)).max(1);
        let mut points: Vec<OperatingPoint> = scores
            .iter()
            .step_by(stride)
            .map(|&t| {
                let (precision, recall) = curve.at_threshold(t);
                let delay = self.delay.mean_delay_at(class, t).unwrap_or(f64::NAN);
                OperatingPoint {
                    threshold: t,
                    precision,
                    recall,
                    delay,
                }
            })
            .collect();
        points.sort_by(|a, b| a.precision.partial_cmp(&b.precision).unwrap());
        points
    }

    /// Access to the raw delay statistics.
    pub fn delay_stats(&self) -> &DelayAccumulator {
        &self.delay
    }

    /// Builds the full summary, with delay reports at the given βs.
    pub fn summary(&self, betas: &[f64]) -> EvalSummary {
        EvalSummary {
            difficulty: self.difficulty.to_string(),
            ap_per_class: self
                .classes
                .iter()
                .map(|&c| (c.name().to_string(), self.ap(c)))
                .collect(),
            map: self.map(),
            delay: betas
                .iter()
                .filter_map(|&b| self.mean_delay_at_precision(b))
                .collect(),
        }
    }
}

fn mean_precision(curves: &[PrCurve], t: f32) -> f64 {
    if curves.is_empty() {
        return 1.0;
    }
    curves.iter().map(|c| c.at_threshold(t).0).sum::<f64>() / curves.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdet_geom::Box2;

    const CAR: ActorClass = ActorClass::Car;
    const PED: ActorClass = ActorClass::Pedestrian;

    fn gt(track: u64, x: f32, class: ActorClass) -> GroundTruthObject {
        let b = Box2::from_xywh(x, 100.0, 80.0, 50.0);
        GroundTruthObject {
            track_id: track,
            class,
            bbox: b,
            full_bbox: b,
            occlusion: 0.0,
            truncation: 0.0,
            depth: 20.0,
        }
    }

    fn det_for(g: &GroundTruthObject, score: f32) -> Detection {
        Detection {
            bbox: g.bbox,
            score,
            class: g.class,
        }
    }

    fn fp(x: f32, score: f32, class: ActorClass) -> Detection {
        Detection {
            bbox: Box2::from_xywh(x, 300.0, 80.0, 50.0),
            score,
            class,
        }
    }

    #[test]
    fn perfect_detector_maps_to_one() {
        let mut ev = Evaluator::new(vec![CAR, PED], Difficulty::Hard);
        for f in 0..10 {
            let gts = [gt(1, 100.0, CAR), gt(2, 400.0, PED)];
            let dets = [det_for(&gts[0], 0.9), det_for(&gts[1], 0.85)];
            ev.add_frame(0, f, &gts, &dets, true);
        }
        assert!((ev.map() - 1.0).abs() < 1e-9);
        assert!((ev.ap(CAR) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn false_positives_lower_precision_and_map() {
        let mut clean = Evaluator::new(vec![CAR], Difficulty::Hard);
        let mut noisy = Evaluator::new(vec![CAR], Difficulty::Hard);
        for f in 0..10 {
            let gts = [gt(1, 100.0, CAR)];
            clean.add_frame(0, f, &gts, &[det_for(&gts[0], 0.9)], true);
            noisy.add_frame(
                0,
                f,
                &gts,
                &[det_for(&gts[0], 0.9), fp(600.0, 0.95, CAR)],
                true,
            );
        }
        assert!(noisy.map() < clean.map());
        assert!(noisy.mean_precision_at(0.5) < 0.6);
    }

    #[test]
    fn threshold_search_reaches_target_precision() {
        let mut ev = Evaluator::new(vec![CAR], Difficulty::Hard);
        // High-scored TPs, low-scored FPs: raising t cleans precision.
        for f in 0..20 {
            let gts = [gt(1, 100.0, CAR)];
            let dets = [det_for(&gts[0], 0.9), fp(600.0, 0.4, CAR)];
            ev.add_frame(0, f, &gts, &dets, true);
        }
        let t = ev.threshold_for_precision(0.8).unwrap();
        assert!(t > 0.4 && t <= 0.9);
        assert!(ev.mean_precision_at(t) >= 0.8);
    }

    #[test]
    fn unreachable_precision_returns_none() {
        let mut ev = Evaluator::new(vec![CAR], Difficulty::Hard);
        // Only false positives: precision can never reach 0.8.
        for f in 0..5 {
            ev.add_frame(0, f, &[gt(1, 100.0, CAR)], &[fp(600.0, 0.9, CAR)], true);
        }
        assert!(ev.threshold_for_precision(0.8).is_none());
    }

    #[test]
    fn delay_report_combines_classes() {
        let mut ev = Evaluator::new(vec![CAR, PED], Difficulty::Hard);
        for f in 0..10 {
            let gts = [gt(1, 100.0, CAR), gt(2, 400.0, PED)];
            // Car found immediately, pedestrian from frame 2.
            let mut dets = vec![det_for(&gts[0], 0.9)];
            if f >= 2 {
                dets.push(det_for(&gts[1], 0.85));
            }
            ev.add_frame(0, f, &gts, &dets, true);
        }
        let r = ev.mean_delay_at_precision(0.8).unwrap();
        assert_eq!(r.per_class.len(), 2);
        assert!((r.per_class["Car"] - 0.0).abs() < 1e-9);
        assert!((r.per_class["Pedestrian"] - 2.0).abs() < 1e-9);
        assert!((r.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unlabeled_frames_feed_delay_but_not_ap() {
        let mut ev = Evaluator::new(vec![CAR], Difficulty::Hard);
        let gts = [gt(1, 100.0, CAR)];
        ev.add_frame(0, 0, &gts, &[det_for(&gts[0], 0.9)], false);
        // AP sees nothing...
        assert_eq!(ev.pr_curve(CAR).points.len(), 0);
        assert_eq!(ev.pr_curve(CAR).num_gt, 0);
        // ...but the delay accumulator saw the frame.
        assert_eq!(ev.delay_stats().num_instances(CAR), 1);
    }

    #[test]
    fn operating_curve_is_sorted_and_bounded() {
        let mut ev = Evaluator::new(vec![CAR], Difficulty::Hard);
        for f in 0..30 {
            let gts = [gt(1, 100.0, CAR)];
            let dets = [
                det_for(&gts[0], 0.5 + (f as f32) * 0.01),
                fp(600.0, 0.3 + (f as f32) * 0.01, CAR),
            ];
            ev.add_frame(0, f, &gts, &dets, true);
        }
        let curve = ev.operating_curve(CAR, 10);
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(w[1].precision >= w[0].precision - 1e-12);
        }
        for p in &curve {
            assert!((0.0..=1.0).contains(&p.precision));
            assert!((0.0..=1.0).contains(&p.recall));
        }
    }

    #[test]
    fn summary_serialises() {
        let mut ev = Evaluator::new(vec![CAR], Difficulty::Moderate);
        let gts = [gt(1, 100.0, CAR)];
        ev.add_frame(0, 0, &gts, &[det_for(&gts[0], 0.9)], true);
        let s = ev.summary(&[0.8]);
        assert_eq!(s.difficulty, "Moderate");
        assert!((s.map - 1.0).abs() < 1e-9);
        assert_eq!(s.delay.len(), 1);
    }
}
