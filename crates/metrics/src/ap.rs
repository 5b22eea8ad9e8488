//! Precision–recall curves and Average Precision.
//!
//! Three AP conventions are provided: the 11-point Pascal-VOC
//! interpolation the paper uses for CityPersons and that the 2012-era
//! KITTI devkit uses, the 40-point variant the later KITTI protocol
//! adopted, and the exact area under the interpolated curve.

/// One point of a precision–recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Score threshold that produces this point.
    pub score: f32,
    /// Recall at this threshold.
    pub recall: f64,
    /// Precision at this threshold.
    pub precision: f64,
}

/// A full precision–recall curve for one class.
///
/// Built from the score-ranked list of (score, is-true-positive) records
/// plus the number of ground-truth objects. Points are ordered by
/// descending score (i.e. increasing recall).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrCurve {
    /// Curve points, one per distinct score threshold.
    pub points: Vec<PrPoint>,
    /// Number of ground-truth objects (recall denominator).
    pub num_gt: usize,
}

impl PrCurve {
    /// Builds the curve from scored records.
    ///
    /// `records` is a list of `(score, is_tp)` pairs in any order;
    /// `num_gt` is the total valid ground truth. Records are ranked by
    /// descending score; one curve point is emitted per record (KITTI's
    /// devkit subsamples this for speed; exactness is cheap here).
    pub fn from_records(records: &[(f32, bool)], num_gt: usize) -> Self {
        let mut sorted: Vec<(f32, bool)> = records.to_vec();
        sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut points = Vec::with_capacity(sorted.len());
        for (score, is_tp) in sorted {
            if is_tp {
                tp += 1;
            } else {
                fp += 1;
            }
            let recall = if num_gt > 0 {
                tp as f64 / num_gt as f64
            } else {
                0.0
            };
            let precision = tp as f64 / (tp + fp) as f64;
            points.push(PrPoint {
                score,
                recall,
                precision,
            });
        }
        Self { points, num_gt }
    }

    /// The interpolated precision at a recall level: the maximum precision
    /// among points whose recall is at least `r` (the Pascal-VOC rule).
    pub fn interpolated_precision(&self, r: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.recall >= r - 1e-12)
            .map(|p| p.precision)
            .fold(0.0, f64::max)
    }

    /// Maximum recall reached by the detector.
    pub fn max_recall(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.recall)
    }

    /// Precision and recall at a score threshold `t` (all detections with
    /// `score >= t`). Returns `(precision, recall)`; precision is 1.0 when
    /// nothing clears the threshold (vacuously no false positives).
    pub fn at_threshold(&self, t: f32) -> (f64, f64) {
        // Points are sorted by descending score; the last point with
        // score >= t summarises the cumulative counts at t.
        let mut result = (1.0, 0.0);
        for p in &self.points {
            if p.score >= t {
                result = (p.precision, p.recall);
            } else {
                break;
            }
        }
        result
    }
}

fn n_point_ap(curve: &PrCurve, n: usize) -> f64 {
    if curve.num_gt == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        let r = i as f64 / (n - 1) as f64;
        total += curve.interpolated_precision(r);
    }
    total / n as f64
}

/// 11-point interpolated AP (Pascal VOC 2007 / original KITTI devkit):
/// mean interpolated precision at recalls {0, 0.1, …, 1.0}.
pub fn ap_11_point(curve: &PrCurve) -> f64 {
    n_point_ap(curve, 11)
}

/// 40-point interpolated AP (the revised KITTI protocol).
pub fn ap_40_point(curve: &PrCurve) -> f64 {
    n_point_ap(curve, 41)
}

/// Exact area under the interpolated precision–recall curve.
pub fn ap_continuous(curve: &PrCurve) -> f64 {
    if curve.num_gt == 0 || curve.points.is_empty() {
        return 0.0;
    }
    // Envelope: precision made monotone non-increasing from the right.
    let mut recalls = vec![0.0f64];
    let mut precisions = vec![0.0f64]; // placeholder, fixed below
    for p in &curve.points {
        recalls.push(p.recall);
        precisions.push(p.precision);
    }
    for i in (0..precisions.len() - 1).rev() {
        precisions[i] = precisions[i].max(precisions[i + 1]);
    }
    let mut area = 0.0;
    for i in 1..recalls.len() {
        area += (recalls[i] - recalls[i - 1]) * precisions[i];
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_detector_scores_one() {
        let records: Vec<(f32, bool)> = (0..10).map(|i| (0.9 - i as f32 * 0.01, true)).collect();
        let c = PrCurve::from_records(&records, 10);
        assert!((ap_11_point(&c) - 1.0).abs() < 1e-9);
        assert!((ap_40_point(&c) - 1.0).abs() < 1e-9);
        assert!((ap_continuous(&c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_detections_scores_zero() {
        let c = PrCurve::from_records(&[], 5);
        assert_eq!(ap_11_point(&c), 0.0);
        assert_eq!(c.max_recall(), 0.0);
    }

    #[test]
    fn no_ground_truth_scores_zero() {
        let c = PrCurve::from_records(&[(0.9, false)], 0);
        assert_eq!(ap_11_point(&c), 0.0);
        assert_eq!(ap_continuous(&c), 0.0);
    }

    #[test]
    fn all_false_positives_scores_zero() {
        let records = vec![(0.9, false), (0.8, false)];
        let c = PrCurve::from_records(&records, 3);
        assert_eq!(ap_11_point(&c), 0.0);
    }

    #[test]
    fn half_recall_perfect_precision() {
        // 5 TPs out of 10 GT, no FPs: precision 1 up to recall 0.5.
        let records: Vec<(f32, bool)> = (0..5).map(|i| (0.9 - i as f32 * 0.01, true)).collect();
        let c = PrCurve::from_records(&records, 10);
        // 11-point: recalls 0..0.5 have precision 1 (6 points), rest 0.
        assert!((ap_11_point(&c) - 6.0 / 11.0).abs() < 1e-9);
        assert!((ap_continuous(&c) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn interleaved_fp_reduces_ap() {
        let clean: Vec<(f32, bool)> = vec![(0.9, true), (0.8, true), (0.7, true)];
        let noisy: Vec<(f32, bool)> = vec![(0.95, false), (0.9, true), (0.8, true), (0.7, true)];
        let c1 = PrCurve::from_records(&clean, 3);
        let c2 = PrCurve::from_records(&noisy, 3);
        assert!(ap_11_point(&c2) < ap_11_point(&c1));
    }

    #[test]
    fn low_scored_fps_after_full_recall_are_harmless_under_interpolation() {
        let records = vec![(0.9, true), (0.8, true), (0.1, false)];
        let c = PrCurve::from_records(&records, 2);
        assert!((ap_11_point(&c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn at_threshold_tracks_cumulative_counts() {
        let records = vec![(0.9, true), (0.7, false), (0.5, true)];
        let c = PrCurve::from_records(&records, 4);
        let (p, r) = c.at_threshold(0.8);
        assert!((p - 1.0).abs() < 1e-9);
        assert!((r - 0.25).abs() < 1e-9);
        let (p, r) = c.at_threshold(0.6);
        assert!((p - 0.5).abs() < 1e-9);
        assert!((r - 0.25).abs() < 1e-9);
        let (p, r) = c.at_threshold(0.0);
        assert!((p - 2.0 / 3.0).abs() < 1e-9);
        assert!((r - 0.5).abs() < 1e-9);
    }

    #[test]
    fn at_threshold_above_everything_is_vacuous() {
        let c = PrCurve::from_records(&[(0.5, true)], 2);
        assert_eq!(c.at_threshold(0.9), (1.0, 0.0));
    }

    proptest! {
        #[test]
        fn prop_ap_in_unit_interval(
            records in proptest::collection::vec((0.0f32..1.0, proptest::bool::ANY), 0..60),
            num_gt in 0usize..40,
        ) {
            let tp_count = records.iter().filter(|r| r.1).count();
            // is_tp count can't exceed GT; clamp the generated data.
            let mut fixed = records.clone();
            if tp_count > num_gt {
                let mut excess = tp_count - num_gt;
                for r in fixed.iter_mut() {
                    if r.1 && excess > 0 {
                        r.1 = false;
                        excess -= 1;
                    }
                }
            }
            let c = PrCurve::from_records(&fixed, num_gt);
            for ap in [ap_11_point(&c), ap_40_point(&c), ap_continuous(&c)] {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&ap));
            }
        }

        #[test]
        fn prop_recall_monotone_along_curve(
            records in proptest::collection::vec((0.0f32..1.0, proptest::bool::ANY), 1..60),
        ) {
            let gt = records.iter().filter(|r| r.1).count().max(1);
            let c = PrCurve::from_records(&records, gt);
            for w in c.points.windows(2) {
                prop_assert!(w[1].recall >= w[0].recall - 1e-12);
            }
        }

        #[test]
        fn prop_continuous_ap_upper_bounds_recall_times_min_precision(
            n_tp in 1usize..20,
        ) {
            // Sanity: perfect ranking gives AP == recall fraction when all
            // available GT are found with no FPs.
            let records: Vec<(f32, bool)> =
                (0..n_tp).map(|i| (1.0 - i as f32 * 0.01, true)).collect();
            let c = PrCurve::from_records(&records, n_tp * 2);
            prop_assert!((ap_continuous(&c) - 0.5).abs() < 1e-9);
        }
    }
}
