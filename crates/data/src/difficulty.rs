//! KITTI difficulty protocol and class IoU thresholds.
//!
//! The official KITTI evaluation defines three difficulty levels; each sets
//! minimum bounding-box height and maximum occlusion/truncation for a
//! ground-truth object to *count*. Objects outside the current level are
//! **ignored**: they are neither false negatives, nor do detections
//! matching them become false positives (see `catdet_metrics::matching`).
//!
//! The paper evaluates Moderate and Hard ("the Easy mode does not
//! distinguish different methods", §6.1).

use catdet_sim::{ActorClass, GroundTruthObject};

/// KITTI difficulty level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Difficulty {
    /// ≥40 px, fully visible, truncation ≤ 15%.
    Easy,
    /// ≥25 px, partly occluded, truncation ≤ 30%.
    Moderate,
    /// ≥25 px, heavily occluded, truncation ≤ 50%.
    Hard,
}

impl Difficulty {
    /// Minimum bounding-box pixel height.
    pub fn min_height(&self) -> f32 {
        match self {
            Difficulty::Easy => 40.0,
            Difficulty::Moderate | Difficulty::Hard => 25.0,
        }
    }

    /// Maximum occlusion fraction.
    ///
    /// KITTI uses discrete occlusion levels {0: fully visible, 1: partly,
    /// 2: largely occluded}; our simulator provides continuous fractions,
    /// mapped as level 0 ≤ 0.2 < level 1 ≤ 0.6 < level 2.
    pub fn max_occlusion(&self) -> f32 {
        match self {
            Difficulty::Easy => 0.2,
            Difficulty::Moderate => 0.6,
            Difficulty::Hard => 0.9,
        }
    }

    /// Maximum truncation fraction.
    pub fn max_truncation(&self) -> f32 {
        match self {
            Difficulty::Easy => 0.15,
            Difficulty::Moderate => 0.3,
            Difficulty::Hard => 0.5,
        }
    }

    /// Whether a ground-truth object counts at this difficulty.
    pub fn admits(&self, o: &GroundTruthObject) -> bool {
        o.height_px() >= self.min_height()
            && o.occlusion <= self.max_occlusion()
            && o.truncation <= self.max_truncation()
    }

    /// All levels, easiest first.
    pub const ALL: [Difficulty; 3] = [Difficulty::Easy, Difficulty::Moderate, Difficulty::Hard];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Difficulty::Easy => "Easy",
            Difficulty::Moderate => "Moderate",
            Difficulty::Hard => "Hard",
        }
    }
}

impl std::fmt::Display for Difficulty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The IoU a detection must reach to match a ground truth of this class
/// (KITTI convention: 70% for Car, 50% for Pedestrian; CityPersons'
/// Pascal-VOC protocol also uses 50% for Person).
pub fn iou_threshold_for(class: ActorClass) -> f32 {
    match class {
        ActorClass::Car => 0.7,
        ActorClass::Pedestrian => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdet_geom::Box2;

    fn gt(height: f32, occ: f32, trunc: f32) -> GroundTruthObject {
        GroundTruthObject {
            track_id: 0,
            class: ActorClass::Car,
            bbox: Box2::from_xywh(0.0, 0.0, height * 1.5, height),
            full_bbox: Box2::from_xywh(0.0, 0.0, height * 1.5, height),
            occlusion: occ,
            truncation: trunc,
            depth: 20.0,
        }
    }

    #[test]
    fn easy_requires_large_visible_objects() {
        assert!(Difficulty::Easy.admits(&gt(45.0, 0.0, 0.0)));
        assert!(!Difficulty::Easy.admits(&gt(30.0, 0.0, 0.0))); // too small
        assert!(!Difficulty::Easy.admits(&gt(45.0, 0.4, 0.0))); // occluded
        assert!(!Difficulty::Easy.admits(&gt(45.0, 0.0, 0.2))); // truncated
    }

    #[test]
    fn moderate_admits_partly_occluded() {
        assert!(Difficulty::Moderate.admits(&gt(30.0, 0.5, 0.2)));
        assert!(!Difficulty::Moderate.admits(&gt(30.0, 0.7, 0.0)));
        assert!(!Difficulty::Moderate.admits(&gt(20.0, 0.0, 0.0)));
    }

    #[test]
    fn hard_is_the_most_permissive() {
        let tough = gt(26.0, 0.85, 0.45);
        assert!(Difficulty::Hard.admits(&tough));
        assert!(!Difficulty::Moderate.admits(&tough));
        assert!(!Difficulty::Easy.admits(&tough));
    }

    #[test]
    fn difficulty_levels_are_nested() {
        // Anything Easy admits, Moderate admits; anything Moderate admits,
        // Hard admits.
        for h in [20.0, 26.0, 45.0, 80.0] {
            for occ in [0.0, 0.1, 0.3, 0.7, 0.95] {
                for tr in [0.0, 0.1, 0.25, 0.45, 0.6] {
                    let o = gt(h, occ, tr);
                    if Difficulty::Easy.admits(&o) {
                        assert!(Difficulty::Moderate.admits(&o));
                    }
                    if Difficulty::Moderate.admits(&o) {
                        assert!(Difficulty::Hard.admits(&o));
                    }
                }
            }
        }
    }

    #[test]
    fn iou_thresholds_match_kitti() {
        assert_eq!(iou_threshold_for(ActorClass::Car), 0.7);
        assert_eq!(iou_threshold_for(ActorClass::Pedestrian), 0.5);
    }

    #[test]
    fn names_display() {
        assert_eq!(Difficulty::Moderate.to_string(), "Moderate");
        assert_eq!(Difficulty::ALL.len(), 3);
    }
}
