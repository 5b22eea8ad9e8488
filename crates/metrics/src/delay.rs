//! Per-instance detection delay (paper §5).
//!
//! Delay is the number of frames from the first frame a ground-truth
//! instance is *evaluable* (admitted by the difficulty filter) to the first
//! frame a detection matches it. An instance that is never detected
//! contributes its full observed lifetime — a miss cannot be cheaper than
//! any late detection.
//!
//! Matching here is per ground truth: a detection of the same class with
//! IoU at or above the class threshold. (Unlike AP matching, exclusivity
//! between ground truths is not enforced; an object next to another does
//! not hide it from the delay metric. This matches the metric's intent —
//! "has this object been found yet" — and keeps delay computable at every
//! score threshold from one pass.)

use crate::Detection;
use catdet_data::{iou_threshold_for, Difficulty, GroundTruthObject};
use catdet_sim::ActorClass;
use std::collections::HashMap;

/// The delay-relevant history of one ground-truth instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceDelay {
    /// Object class.
    pub class: ActorClass,
    /// First frame the instance was admitted at the evaluation difficulty.
    pub entry_frame: usize,
    /// Last frame the instance appeared (admitted or not), ≥ `entry_frame`.
    pub last_frame: usize,
    /// Frames (≥ entry) where a detection matched, with the best matching
    /// score; ascending frame order.
    pub matches: Vec<(usize, f32)>,
}

impl InstanceDelay {
    /// Delay in frames at confidence threshold `t`.
    ///
    /// Returns the distance from entry to the first match with score ≥ t,
    /// or the full observed lifetime if never matched at that threshold.
    pub fn delay_at(&self, t: f32) -> usize {
        for &(frame, score) in &self.matches {
            if score >= t {
                return frame.saturating_sub(self.entry_frame);
            }
        }
        self.last_frame - self.entry_frame + 1
    }

    /// Whether the instance is ever detected at threshold `t`.
    pub fn detected_at(&self, t: f32) -> bool {
        self.matches.iter().any(|&(_, s)| s >= t)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct InstanceState {
    class: ActorClass,
    entry_frame: Option<usize>,
    last_frame: usize,
    matches: Vec<(usize, f32)>,
}

/// Accumulates instance histories across sequences.
#[derive(Debug, Clone, Default)]
pub struct DelayAccumulator {
    instances: HashMap<(usize, u64), InstanceState>,
}

impl DelayAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one frame of one sequence.
    ///
    /// Frames must be added in increasing frame order per sequence.
    pub fn add_frame(
        &mut self,
        sequence_id: usize,
        frame_index: usize,
        gts: &[GroundTruthObject],
        dets: &[Detection],
        difficulty: Difficulty,
    ) {
        for gt in gts {
            let key = (sequence_id, gt.track_id);
            let admitted = difficulty.admits(gt);
            let state = self.instances.entry(key).or_insert_with(|| InstanceState {
                class: gt.class,
                entry_frame: None,
                last_frame: frame_index,
                matches: Vec::new(),
            });
            if state.entry_frame.is_none() && admitted {
                state.entry_frame = Some(frame_index);
            }
            if state.entry_frame.is_none() {
                // Not yet evaluable; don't extend lifetime or match.
                state.last_frame = frame_index;
                continue;
            }
            state.last_frame = frame_index;
            let thr = iou_threshold_for(gt.class);
            let best = dets
                .iter()
                .filter(|d| d.class == gt.class && d.bbox.iou(&gt.bbox) >= thr)
                .map(|d| d.score)
                .fold(f32::NEG_INFINITY, f32::max);
            if best.is_finite() {
                state.matches.push((frame_index, best));
            }
        }
    }

    /// Finalised instances of a class (those that became evaluable).
    pub fn instances_of(&self, class: ActorClass) -> Vec<InstanceDelay> {
        let mut out: Vec<InstanceDelay> = self
            .instances
            .values()
            .filter(|s| s.class == class)
            .filter_map(|s| {
                s.entry_frame.map(|entry| InstanceDelay {
                    class: s.class,
                    entry_frame: entry,
                    last_frame: s.last_frame,
                    matches: s.matches.clone(),
                })
            })
            .collect();
        out.sort_by_key(|i| (i.entry_frame, i.last_frame));
        out
    }

    /// Mean delay of a class at threshold `t`; `None` when the class has no
    /// evaluable instances.
    pub fn mean_delay_at(&self, class: ActorClass, t: f32) -> Option<f64> {
        let inst = self.instances_of(class);
        if inst.is_empty() {
            return None;
        }
        let total: usize = inst.iter().map(|i| i.delay_at(t)).sum();
        Some(total as f64 / inst.len() as f64)
    }

    /// Number of evaluable instances of a class.
    pub fn num_instances(&self, class: ActorClass) -> usize {
        self.instances_of(class).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdet_geom::Box2;

    const CAR: ActorClass = ActorClass::Car;

    fn gt(track: u64, frame_box: Box2) -> GroundTruthObject {
        GroundTruthObject {
            track_id: track,
            class: CAR,
            bbox: frame_box,
            full_bbox: frame_box,
            occlusion: 0.0,
            truncation: 0.0,
            depth: 20.0,
        }
    }

    fn det(b: Box2, score: f32) -> Detection {
        Detection {
            bbox: b,
            score,
            class: CAR,
        }
    }

    fn big() -> Box2 {
        Box2::from_xywh(100.0, 100.0, 80.0, 50.0)
    }

    #[test]
    fn immediate_detection_has_zero_delay() {
        let mut acc = DelayAccumulator::new();
        acc.add_frame(0, 0, &[gt(1, big())], &[det(big(), 0.9)], Difficulty::Hard);
        let inst = acc.instances_of(CAR);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst[0].delay_at(0.5), 0);
    }

    #[test]
    fn late_detection_counts_frames() {
        let mut acc = DelayAccumulator::new();
        for f in 0..5 {
            let dets = if f >= 3 {
                vec![det(big(), 0.9)]
            } else {
                vec![]
            };
            acc.add_frame(0, f, &[gt(1, big())], &dets, Difficulty::Hard);
        }
        assert_eq!(acc.instances_of(CAR)[0].delay_at(0.5), 3);
    }

    #[test]
    fn never_detected_costs_full_lifetime() {
        let mut acc = DelayAccumulator::new();
        for f in 0..5 {
            acc.add_frame(0, f, &[gt(1, big())], &[], Difficulty::Hard);
        }
        assert_eq!(acc.instances_of(CAR)[0].delay_at(0.5), 5);
    }

    #[test]
    fn threshold_gates_matches() {
        let mut acc = DelayAccumulator::new();
        acc.add_frame(0, 0, &[gt(1, big())], &[det(big(), 0.3)], Difficulty::Hard);
        acc.add_frame(0, 1, &[gt(1, big())], &[det(big(), 0.8)], Difficulty::Hard);
        let inst = &acc.instances_of(CAR)[0];
        assert_eq!(inst.delay_at(0.2), 0);
        assert_eq!(inst.delay_at(0.5), 1);
        assert_eq!(inst.delay_at(0.9), 2); // never above 0.9 → lifetime
        assert!(!inst.detected_at(0.9));
    }

    #[test]
    fn entry_starts_at_first_admitted_frame() {
        let mut acc = DelayAccumulator::new();
        // Tiny box (ignored at Hard) for 2 frames, then grows.
        let small = Box2::from_xywh(100.0, 100.0, 20.0, 12.0);
        acc.add_frame(0, 0, &[gt(1, small)], &[], Difficulty::Hard);
        acc.add_frame(0, 1, &[gt(1, small)], &[], Difficulty::Hard);
        acc.add_frame(0, 2, &[gt(1, big())], &[det(big(), 0.9)], Difficulty::Hard);
        let inst = &acc.instances_of(CAR)[0];
        assert_eq!(inst.entry_frame, 2);
        assert_eq!(inst.delay_at(0.5), 0);
    }

    #[test]
    fn never_admitted_instances_are_excluded() {
        let mut acc = DelayAccumulator::new();
        let small = Box2::from_xywh(100.0, 100.0, 20.0, 12.0);
        acc.add_frame(0, 0, &[gt(1, small)], &[], Difficulty::Hard);
        assert!(acc.instances_of(CAR).is_empty());
        assert_eq!(acc.num_instances(CAR), 0);
    }

    #[test]
    fn instances_are_per_sequence() {
        let mut acc = DelayAccumulator::new();
        acc.add_frame(0, 0, &[gt(1, big())], &[det(big(), 0.9)], Difficulty::Hard);
        acc.add_frame(1, 0, &[gt(1, big())], &[], Difficulty::Hard);
        // Same track id in different sequences = two instances.
        assert_eq!(acc.num_instances(CAR), 2);
    }

    #[test]
    fn mean_delay_averages_instances() {
        let mut acc = DelayAccumulator::new();
        let other = Box2::from_xywh(400.0, 100.0, 80.0, 50.0);
        for f in 0..4 {
            let mut dets = vec![det(big(), 0.9)]; // track 1 found immediately
            if f >= 2 {
                dets.push(det(other, 0.9)); // track 2 found at frame 2
            }
            acc.add_frame(0, f, &[gt(1, big()), gt(2, other)], &dets, Difficulty::Hard);
        }
        let mean = acc.mean_delay_at(CAR, 0.5).unwrap();
        assert!((mean - 1.0).abs() < 1e-9); // (0 + 2) / 2
    }

    #[test]
    fn empty_class_returns_none() {
        let acc = DelayAccumulator::new();
        assert!(acc.mean_delay_at(CAR, 0.5).is_none());
    }

    #[test]
    fn mismatched_class_detection_does_not_count() {
        let mut acc = DelayAccumulator::new();
        let ped_det = Detection {
            bbox: big(),
            score: 0.9,
            class: ActorClass::Pedestrian,
        };
        acc.add_frame(0, 0, &[gt(1, big())], &[ped_det], Difficulty::Hard);
        assert_eq!(acc.instances_of(CAR)[0].delay_at(0.5), 1);
    }

    #[test]
    fn low_iou_detection_does_not_count() {
        let mut acc = DelayAccumulator::new();
        let offset = Box2::from_xywh(140.0, 100.0, 80.0, 50.0); // IoU ~0.33 < 0.7
        acc.add_frame(0, 0, &[gt(1, big())], &[det(offset, 0.9)], Difficulty::Hard);
        assert_eq!(acc.instances_of(CAR)[0].delay_at(0.5), 1);
    }
}
