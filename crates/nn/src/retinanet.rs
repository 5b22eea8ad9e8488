//! RetinaNet operation model (paper Appendix II).
//!
//! The appendix swaps the refinement network for a RetinaNet: a full
//! ResNet trunk, a feature pyramid (P3–P7) and two shared convolutional
//! subnets (classification and box regression) run at every level. In
//! CaTDet mode, "RetinaNet only operates at the regions of interest …
//! thereby reduces the number of operations for both Feature Pyramid
//! Network and Classifier Subnets": the trunk pays for the union of all
//! regions while each pyramid level pays only for the regions whose scale
//! maps to it.

use crate::layers::conv2d_macs;
use crate::resnet::ResNetConfig;
use catdet_geom::{Box2, CoverageGrid};

/// Number of pyramid levels (P3..P7).
pub const NUM_LEVELS: usize = 5;

/// Feature strides of P3..P7.
pub const LEVEL_STRIDES: [u32; NUM_LEVELS] = [8, 16, 32, 64, 128];

/// A RetinaNet detector for op counting.
#[derive(Debug, Clone, PartialEq)]
pub struct RetinaNetSpec {
    /// Display name.
    pub name: String,
    /// Backbone trunk (full, stride 32).
    pub backbone: ResNetConfig,
    /// FPN channel width (256 in the paper's reference implementation).
    pub fpn_channels: usize,
    /// Anchors per cell (3 scales × 3 aspect ratios).
    pub num_anchors: usize,
    /// Convolutions per subnet before the output layer.
    pub subnet_depth: usize,
    /// Foreground classes.
    pub num_classes: usize,
}

impl RetinaNetSpec {
    /// RetinaNet with a ResNet-50 trunk, the configuration of Table 8.
    pub fn resnet50(num_classes: usize) -> Self {
        Self {
            name: "ResNet-50 RetinaNet".into(),
            backbone: ResNetConfig::resnet50(),
            fpn_channels: 256,
            num_anchors: 9,
            subnet_depth: 4,
            num_classes,
        }
    }

    /// Spatial dims of each pyramid level for a `width × height` image.
    pub fn level_dims(&self, width: usize, height: usize) -> [(usize, usize); NUM_LEVELS] {
        let stage = self.backbone.stage_dims(width, height);
        let (c5h, c5w) = stage[3];
        let p6 = (c5h.div_ceil(2), c5w.div_ceil(2));
        let p7 = (p6.0.div_ceil(2), p6.1.div_ceil(2));
        [stage[1], stage[2], stage[3], p6, p7]
    }

    /// MACs of the FPN at each level: lateral 1×1 + output 3×3 for P3-P5,
    /// the stride-2 3×3 convolutions for P6/P7.
    pub fn fpn_macs_per_level(&self, width: usize, height: usize) -> [f64; NUM_LEVELS] {
        let dims = self.level_dims(width, height);
        let f = self.fpn_channels;
        let c = [
            self.backbone.stage_channels[1],
            self.backbone.stage_channels[2],
            self.backbone.stage_channels[3],
        ];
        let mut out = [0.0; NUM_LEVELS];
        for lvl in 0..3 {
            let (h, w) = dims[lvl];
            // Lateral 1x1 from the backbone stage + 3x3 output conv.
            out[lvl] = conv2d_macs(c[lvl], f, 1, h, w) + conv2d_macs(f, f, 3, h, w);
        }
        // P6: 3x3 stride-2 conv from C5; P7: 3x3 stride-2 conv from P6.
        out[3] = conv2d_macs(c[2], f, 3, dims[3].0, dims[3].1);
        out[4] = conv2d_macs(f, f, 3, dims[4].0, dims[4].1);
        out
    }

    /// MACs of both subnets (classification + box) at each level.
    pub fn subnet_macs_per_level(&self, width: usize, height: usize) -> [f64; NUM_LEVELS] {
        let dims = self.level_dims(width, height);
        let f = self.fpn_channels;
        let cls_out = self.num_anchors * self.num_classes;
        let box_out = self.num_anchors * 4;
        let mut out = [0.0; NUM_LEVELS];
        for (lvl, &(h, w)) in dims.iter().enumerate() {
            let tower = conv2d_macs(f, f, 3, h, w) * self.subnet_depth as f64;
            let heads = conv2d_macs(f, cls_out, 3, h, w) + conv2d_macs(f, box_out, 3, h, w);
            // Two towers (classification and regression) share the shape.
            out[lvl] = 2.0 * tower + heads;
        }
        out
    }

    /// Full-frame MACs: trunk + FPN + subnets over all levels.
    pub fn full_frame_macs(&self, width: usize, height: usize) -> f64 {
        let trunk = self.backbone.full_backbone_macs(width, height);
        let fpn: f64 = self.fpn_macs_per_level(width, height).iter().sum();
        let subnets: f64 = self.subnet_macs_per_level(width, height).iter().sum();
        trunk + fpn + subnets
    }

    /// The pyramid level a region of the given pixel area is assigned to,
    /// following the canonical FPN rule `⌊k0 + log2(√area / 224)⌋` with
    /// `k0 = 4` mapped onto P3..P7 indices.
    pub fn level_for_area(area: f32) -> usize {
        if area <= 0.0 {
            return 0;
        }
        let k = 4.0 + (area.sqrt() / 224.0).log2();
        (k.floor() as i32).clamp(3, 7) as usize - 3
    }

    /// Region-masked MACs (CaTDet refinement mode, Appendix II).
    ///
    /// The trunk computes bottom-up features under the union of *all*
    /// dilated regions (deeper features depend on everything beneath
    /// them), while the FPN and subnets at each level pay only for the
    /// regions assigned to that level by scale.
    pub fn masked_macs(&self, width: usize, height: usize, regions: &[Box2], margin: f32) -> f64 {
        // Trunk: union coverage at the trunk's dominant stride (16).
        let mut trunk_grid = CoverageGrid::new(width as f32, height as f32, 16);
        for r in regions {
            trunk_grid.add_box(&r.dilate(margin));
        }
        let trunk =
            self.backbone.full_backbone_macs(width, height) * trunk_grid.coverage_fraction();

        // Per-level coverage from the regions assigned to each level.
        let mut grids: Vec<CoverageGrid> = LEVEL_STRIDES
            .iter()
            .map(|&s| CoverageGrid::new(width as f32, height as f32, s))
            .collect();
        for r in regions {
            let lvl = Self::level_for_area(r.area());
            grids[lvl].add_box(&r.dilate(margin));
        }
        let fpn = self.fpn_macs_per_level(width, height);
        let sub = self.subnet_macs_per_level(width, height);
        let mut masked = trunk;
        for lvl in 0..NUM_LEVELS {
            let f = grids[lvl].coverage_fraction();
            masked += (fpn[lvl] + sub[lvl]) * f;
        }
        masked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: usize = 1242;
    const H: usize = 375;

    #[test]
    fn table8_full_frame_ops() {
        // Paper Table 8: single-model ResNet-50 RetinaNet at 96.7 Gops.
        let spec = RetinaNetSpec::resnet50(2);
        let g = spec.full_frame_macs(W, H) / 1e9;
        let rel = (g - 96.7).abs() / 96.7;
        assert!(rel < 0.20, "got {g:.1} G vs paper 96.7 G");
    }

    #[test]
    fn level_dims_halve() {
        let spec = RetinaNetSpec::resnet50(2);
        let dims = spec.level_dims(W, H);
        assert_eq!(dims[0], (47, 156)); // P3, stride 8
        assert_eq!(dims[1], (24, 78)); // P4
        assert_eq!(dims[2], (12, 39)); // P5
        assert_eq!(dims[3], (6, 20)); // P6
        assert_eq!(dims[4], (3, 10)); // P7
    }

    #[test]
    fn p3_dominates_subnet_cost() {
        let spec = RetinaNetSpec::resnet50(2);
        let sub = spec.subnet_macs_per_level(W, H);
        let total: f64 = sub.iter().sum();
        assert!(sub[0] / total > 0.7, "P3 share {}", sub[0] / total);
    }

    #[test]
    fn level_assignment_by_scale() {
        // Canonical FPN rule with k0=4: 224^2 regions map to P4; small
        // (~32px) regions clamp to P3; huge regions clamp upward.
        assert_eq!(RetinaNetSpec::level_for_area(32.0 * 32.0), 0);
        assert_eq!(RetinaNetSpec::level_for_area(224.0 * 224.0), 1);
        assert_eq!(RetinaNetSpec::level_for_area(900.0 * 900.0), 3);
        assert_eq!(RetinaNetSpec::level_for_area(4000.0 * 4000.0), 4);
        assert_eq!(RetinaNetSpec::level_for_area(0.0), 0);
    }

    #[test]
    fn masked_empty_regions_cost_nothing() {
        let spec = RetinaNetSpec::resnet50(2);
        assert_eq!(spec.masked_macs(W, H, &[], 30.0), 0.0);
    }

    #[test]
    fn masked_less_than_full_for_small_regions() {
        let spec = RetinaNetSpec::resnet50(2);
        let regions = vec![
            Box2::new(100.0, 100.0, 180.0, 160.0),
            Box2::new(400.0, 150.0, 470.0, 200.0),
        ];
        let masked = spec.masked_macs(W, H, &regions, 30.0);
        let full = spec.full_frame_macs(W, H);
        assert!(masked < full * 0.35, "masked {} full {}", masked, full);
    }

    #[test]
    fn masked_grows_with_margin() {
        let spec = RetinaNetSpec::resnet50(2);
        let regions = vec![Box2::new(100.0, 100.0, 180.0, 160.0)];
        let small = spec.masked_macs(W, H, &regions, 0.0);
        let big = spec.masked_macs(W, H, &regions, 60.0);
        assert!(big > small);
    }

    #[test]
    fn full_frame_scales_with_resolution() {
        let spec = RetinaNetSpec::resnet50(1);
        let kitti = spec.full_frame_macs(1242, 375);
        let cp = spec.full_frame_macs(2048, 1024);
        assert!(cp > kitti * 3.0);
    }
}
