//! The model zoo: every detector of the paper with a calibrated profile.
//!
//! Calibration targets are the *single-model* Faster R-CNN numbers the
//! paper reports on KITTI (Tables 2, 4, 5; Hard difficulty unless noted):
//!
//! | model | paper mAP | paper mD@0.8 | paper ops (G) |
//! |---|---|---|---|
//! | ResNet-50 | 0.740 (0.812 Moderate) | 3.3 | 254.3 |
//! | VGG-16 | 0.742 | 4.2 | 179 |
//! | ResNet-18 | 0.687 | 5.9 | 138 |
//! | ResNet-10a | 0.606 | 10.9 | 20.7 |
//! | ResNet-10b | 0.564 | 13.4 | 7.5 |
//! | ResNet-10c | 0.542 | 15.4 | 4.5 |
//! | RetinaNet-50 | 0.773 Moderate | 6.53 Moderate | 96.7 |
//!
//! The measured values for this reproduction are recorded in
//! EXPERIMENTS.md; constants below were tuned against the KITTI-like
//! dataset (`catdet_data::kitti_like`, default seed).

use crate::accuracy::AccuracyProfile;
use catdet_nn::{presets, FasterRcnnSpec, RetinaNetSpec};

/// Operation-count specification of a detector.
#[derive(Debug, Clone, PartialEq)]
pub enum OpsSpec {
    /// Two-stage Faster R-CNN (proposal or refinement network).
    FasterRcnn(FasterRcnnSpec),
    /// One-shot RetinaNet (Appendix II).
    RetinaNet(RetinaNetSpec),
}

impl OpsSpec {
    /// Full-frame inference MACs with the standard 300 proposals.
    pub fn full_frame_macs(&self, width: usize, height: usize) -> f64 {
        match self {
            OpsSpec::FasterRcnn(s) => s.full_frame_macs(width, height, 300).total(),
            OpsSpec::RetinaNet(s) => s.full_frame_macs(width, height),
        }
    }
}

/// A named detector: accuracy profile + operation model.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorModel {
    /// Model name (matches the paper's).
    pub name: String,
    /// Stochastic accuracy behaviour.
    pub profile: AccuracyProfile,
    /// Arithmetic cost model.
    pub ops: OpsSpec,
}

fn base_profile() -> AccuracyProfile {
    AccuracyProfile {
        offset: 0.0,
        discrimination: 2.7,
        shared_heterogeneity: 1.0,
        own_heterogeneity: 0.6,
        temporal_corr: 0.85,
        temporal_sigma: 1.1,
        score_gain: 0.5,
        score_offset: 0.2,
        score_noise: 0.5,
        fp_rate: 1.0,
        fp_score_mean: -0.9,
        fp_score_sigma: 0.9,
        loc_sigma: 0.03,
        validation_boost: 0.3,
        occlusion_sensitivity: 0.0,
        fp_confirm_rate: 0.45,
    }
}

/// ResNet-50 Faster R-CNN — the paper's reference refinement network.
pub fn resnet50(num_classes: usize) -> DetectorModel {
    let mut profile = base_profile();
    profile.offset = 2.85;
    profile.fp_rate = 0.6;
    profile.loc_sigma = 0.022;
    DetectorModel {
        name: "ResNet-50".into(),
        profile,
        ops: OpsSpec::FasterRcnn(presets::frcnn_resnet50(num_classes)),
    }
}

/// VGG-16 Faster R-CNN (refinement alternative, Table 5).
pub fn vgg16(num_classes: usize) -> DetectorModel {
    let mut profile = base_profile();
    profile.offset = 2.8;
    profile.fp_rate = 0.75;
    profile.fp_score_sigma = 1.0;
    profile.loc_sigma = 0.022;
    DetectorModel {
        name: "VGG-16".into(),
        profile,
        ops: OpsSpec::FasterRcnn(presets::frcnn_vgg16(num_classes)),
    }
}

/// ResNet-18 Faster R-CNN.
pub fn resnet18(num_classes: usize) -> DetectorModel {
    let mut profile = base_profile();
    profile.offset = 2.6;
    profile.fp_rate = 1.8;
    profile.fp_score_mean = -0.75;
    profile.fp_score_sigma = 1.0;
    profile.own_heterogeneity = 1.15;
    profile.temporal_corr = 0.92;
    profile.loc_sigma = 0.045;
    profile.occlusion_sensitivity = 0.4;
    DetectorModel {
        name: "ResNet-18".into(),
        profile,
        ops: OpsSpec::FasterRcnn(presets::frcnn_resnet18(num_classes)),
    }
}

/// ResNet-10a Faster R-CNN (compact proposal network).
pub fn resnet10a(num_classes: usize) -> DetectorModel {
    let mut profile = base_profile();
    profile.offset = 2.95;
    profile.fp_rate = 3.6;
    profile.fp_score_mean = -0.65;
    profile.fp_score_sigma = 1.1;
    profile.own_heterogeneity = 0.85;
    profile.temporal_corr = 0.95;
    profile.loc_sigma = 0.09;
    profile.occlusion_sensitivity = 0.9;
    DetectorModel {
        name: "ResNet-10a".into(),
        profile,
        ops: OpsSpec::FasterRcnn(presets::frcnn_resnet10a(num_classes)),
    }
}

/// ResNet-10b Faster R-CNN.
pub fn resnet10b(num_classes: usize) -> DetectorModel {
    let mut profile = base_profile();
    profile.offset = 2.7;
    profile.fp_rate = 4.2;
    profile.fp_score_mean = -0.6;
    profile.fp_score_sigma = 1.15;
    profile.own_heterogeneity = 0.95;
    profile.temporal_corr = 0.955;
    profile.loc_sigma = 0.1;
    profile.occlusion_sensitivity = 1.1;
    DetectorModel {
        name: "ResNet-10b".into(),
        profile,
        ops: OpsSpec::FasterRcnn(presets::frcnn_resnet10b(num_classes)),
    }
}

/// ResNet-10c Faster R-CNN.
pub fn resnet10c(num_classes: usize) -> DetectorModel {
    let mut profile = base_profile();
    profile.offset = 2.55;
    profile.fp_rate = 4.6;
    profile.fp_score_mean = -0.55;
    profile.fp_score_sigma = 1.2;
    profile.own_heterogeneity = 1.0;
    profile.temporal_corr = 0.96;
    profile.loc_sigma = 0.105;
    profile.occlusion_sensitivity = 1.3;
    DetectorModel {
        name: "ResNet-10c".into(),
        profile,
        ops: OpsSpec::FasterRcnn(presets::frcnn_resnet10c(num_classes)),
    }
}

/// ResNet-50 RetinaNet (Appendix II). One-shot detectors trade precision
/// structure for speed: slightly lower mAP than the two-stage ResNet-50
/// and noticeably worse delay at matched precision, as in Table 8.
pub fn retinanet_resnet50(num_classes: usize) -> DetectorModel {
    let mut profile = base_profile();
    profile.offset = 2.45;
    profile.fp_rate = 2.2;
    profile.fp_score_mean = -0.6;
    profile.fp_score_sigma = 1.1;
    profile.loc_sigma = 0.03;
    profile.score_noise = 0.6;
    profile.occlusion_sensitivity = 0.5;
    DetectorModel {
        name: "RetinaNet-ResNet-50".into(),
        profile,
        ops: OpsSpec::RetinaNet(RetinaNetSpec::resnet50(num_classes)),
    }
}

/// Every Faster R-CNN model, strongest first (useful for sweeps).
pub fn all_frcnn(num_classes: usize) -> Vec<DetectorModel> {
    vec![
        resnet50(num_classes),
        vgg16(num_classes),
        resnet18(num_classes),
        resnet10a(num_classes),
        resnet10b(num_classes),
        resnet10c(num_classes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_names_are_unique() {
        let names: Vec<String> = all_frcnn(2).into_iter().map(|m| m.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn strength_ordering_matches_paper() {
        // Weak models express their weakness through clutter, sloppy
        // localisation and occlusion fragility (their raw recall at low
        // thresholds is high, which is what lets them serve as proposal
        // networks — see DESIGN.md). All three axes must be ordered.
        let models = all_frcnn(2);
        let fps: Vec<f32> = models.iter().map(|m| m.profile.fp_rate).collect();
        for w in fps.windows(2).skip(1) {
            assert!(w[0] <= w[1], "fp rates not ordered: {fps:?}");
        }
        let locs: Vec<f32> = models.iter().map(|m| m.profile.loc_sigma).collect();
        for w in locs.windows(2) {
            assert!(w[0] <= w[1], "localisation not ordered: {locs:?}");
        }
        let occs: Vec<f32> = models
            .iter()
            .map(|m| m.profile.occlusion_sensitivity)
            .collect();
        for w in occs.windows(2) {
            assert!(w[0] <= w[1], "occlusion sensitivity not ordered: {occs:?}");
        }
    }

    #[test]
    fn ops_match_table_one_ordering() {
        let models = all_frcnn(2);
        let g: Vec<f64> = models
            .iter()
            .map(|m| m.ops.full_frame_macs(1242, 375) / 1e9)
            .collect();
        // ResNet-50 (254G) > VGG (179G) > Res18 (138G) > 10a > 10b > 10c.
        for w in g.windows(2) {
            assert!(w[0] > w[1], "ops not ordered: {g:?}");
        }
    }

    #[test]
    fn retinanet_is_cheaper_than_frcnn_resnet50() {
        let retina = retinanet_resnet50(2);
        let frcnn = resnet50(2);
        assert!(retina.ops.full_frame_macs(1242, 375) < frcnn.ops.full_frame_macs(1242, 375) * 0.5);
    }
}
