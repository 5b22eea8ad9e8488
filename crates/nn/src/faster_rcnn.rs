//! Faster R-CNN operation model (proposal and refinement networks).
//!
//! Both CaTDet networks are Faster R-CNN detectors (paper §4.2): a trunk
//! computes stride-16 features, an RPN proposes candidate regions, and a
//! per-RoI head classifies/refines each candidate. The **refinement
//! network** variant (paper Fig. 4b) skips the RPN — its proposals come
//! from the proposal network and the tracker — and computes trunk features
//! only inside the selected regions.

use crate::layers::conv2d_macs;
use crate::resnet::ResNetConfig;
use crate::vgg::{vgg16_head_macs_per_roi, vgg16_trunk_macs, VGG16_TRUNK_CHANNELS};

/// A detection backbone: either a parameterised ResNet or VGG-16.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backbone {
    /// Residual backbone (see [`ResNetConfig`]).
    ResNet(ResNetConfig),
    /// VGG-16 with the classic fc6/fc7 head.
    Vgg16,
}

impl Backbone {
    /// Backbone name.
    pub fn name(&self) -> &str {
        match self {
            Backbone::ResNet(cfg) => &cfg.name,
            Backbone::Vgg16 => "VGG-16",
        }
    }

    /// Trunk MACs and output feature dims for a `width × height` image.
    pub fn trunk_macs(&self, width: usize, height: usize) -> (f64, usize, usize) {
        match self {
            Backbone::ResNet(cfg) => cfg.trunk_macs(width, height),
            Backbone::Vgg16 => vgg16_trunk_macs(width, height),
        }
    }

    /// Channels of the trunk output feature map.
    pub fn trunk_out_channels(&self) -> usize {
        match self {
            Backbone::ResNet(cfg) => cfg.trunk_out_channels(),
            Backbone::Vgg16 => VGG16_TRUNK_CHANNELS,
        }
    }

    /// Per-RoI head MACs. For ResNets this runs stage 4 on a `pool × pool`
    /// patch; VGG-16 always pools to 7×7 (its fc6 input size is fixed), so
    /// `pool` is ignored there.
    pub fn head_macs_per_roi(&self, pool: usize, num_classes: usize) -> f64 {
        match self {
            Backbone::ResNet(cfg) => cfg.head_macs_per_roi(pool, num_classes),
            Backbone::Vgg16 => vgg16_head_macs_per_roi(num_classes),
        }
    }
}

/// Operation breakdown of one Faster R-CNN forward pass, in MACs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FasterRcnnOps {
    /// Feature-extractor (trunk) MACs.
    pub trunk: f64,
    /// Region-proposal-network MACs (zero in refinement mode).
    pub rpn: f64,
    /// Per-RoI head MACs, summed over all RoIs.
    pub head: f64,
}

impl FasterRcnnOps {
    /// Total MACs.
    pub fn total(&self) -> f64 {
        self.trunk + self.rpn + self.head
    }
}

/// A fully-specified Faster R-CNN detector for op counting.
#[derive(Debug, Clone, PartialEq)]
pub struct FasterRcnnSpec {
    /// Display name, e.g. `"ResNet-10a Faster R-CNN"`.
    pub name: String,
    /// Feature backbone.
    pub backbone: Backbone,
    /// RoI-pool output size fed to the head (14 for the standard models,
    /// 7 for the compact proposal backbones).
    pub roi_pool: usize,
    /// Hidden width of the RPN's 3×3 convolution.
    pub rpn_hidden: usize,
    /// Anchors per feature cell ("3 types of anchors with 4 different
    /// scales", §4.2 → 12).
    pub num_anchors: usize,
    /// Foreground classes.
    pub num_classes: usize,
}

impl FasterRcnnSpec {
    /// Trunk MACs on a full `width × height` frame.
    pub fn trunk_macs(&self, width: usize, height: usize) -> f64 {
        self.backbone.trunk_macs(width, height).0
    }

    /// RPN MACs on the full-frame feature map.
    pub fn rpn_macs(&self, width: usize, height: usize) -> f64 {
        let (_, fh, fw) = self.backbone.trunk_macs(width, height);
        let c = self.backbone.trunk_out_channels();
        conv2d_macs(c, self.rpn_hidden, 3, fh, fw)
            + conv2d_macs(self.rpn_hidden, 2 * self.num_anchors, 1, fh, fw)
            + conv2d_macs(self.rpn_hidden, 4 * self.num_anchors, 1, fh, fw)
    }

    /// MACs of the per-RoI head (stage-4 / fc6-fc7 + box classifier).
    pub fn head_macs_per_roi(&self) -> f64 {
        self.backbone
            .head_macs_per_roi(self.roi_pool, self.num_classes)
    }

    /// Standard full-frame inference: trunk + RPN + `proposals` RoIs.
    ///
    /// Table 1 of the paper measures exactly this with `proposals = 300` at
    /// KITTI resolution (1242×375).
    pub fn full_frame_macs(&self, width: usize, height: usize, proposals: usize) -> FasterRcnnOps {
        FasterRcnnOps {
            trunk: self.trunk_macs(width, height),
            rpn: self.rpn_macs(width, height),
            head: self.head_macs_per_roi() * proposals as f64,
        }
    }

    /// Refinement-mode inference (paper Fig. 4b): the trunk only computes
    /// features on the `coverage` fraction of the frame selected by the
    /// proposal network and tracker, there is no RPN, and the head runs on
    /// the actual `proposals` regions.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    pub fn masked_macs(
        &self,
        width: usize,
        height: usize,
        coverage: f64,
        proposals: usize,
    ) -> FasterRcnnOps {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage fraction must lie in [0,1], got {coverage}"
        );
        FasterRcnnOps {
            trunk: self.trunk_macs(width, height) * coverage,
            rpn: 0.0,
            head: self.head_macs_per_roi() * proposals as f64,
        }
    }
}

/// Ready-made specs for every detector in the paper.
pub mod presets {
    use super::*;

    fn resnet_spec(cfg: ResNetConfig, roi_pool: usize, num_classes: usize) -> FasterRcnnSpec {
        FasterRcnnSpec {
            name: format!("{} Faster R-CNN", cfg.name),
            backbone: Backbone::ResNet(cfg),
            roi_pool,
            rpn_hidden: 512,
            num_anchors: 12,
            num_classes,
        }
    }

    /// ResNet-50 Faster R-CNN (the paper's reference refinement network).
    pub fn frcnn_resnet50(num_classes: usize) -> FasterRcnnSpec {
        resnet_spec(ResNetConfig::resnet50(), 14, num_classes)
    }

    /// ResNet-18 Faster R-CNN.
    pub fn frcnn_resnet18(num_classes: usize) -> FasterRcnnSpec {
        resnet_spec(ResNetConfig::resnet18(), 14, num_classes)
    }

    /// ResNet-10a Faster R-CNN (compact proposal network; 7×7 RoI pool).
    pub fn frcnn_resnet10a(num_classes: usize) -> FasterRcnnSpec {
        resnet_spec(ResNetConfig::resnet10a(), 7, num_classes)
    }

    /// ResNet-10b Faster R-CNN.
    pub fn frcnn_resnet10b(num_classes: usize) -> FasterRcnnSpec {
        resnet_spec(ResNetConfig::resnet10b(), 7, num_classes)
    }

    /// ResNet-10c Faster R-CNN.
    pub fn frcnn_resnet10c(num_classes: usize) -> FasterRcnnSpec {
        resnet_spec(ResNetConfig::resnet10c(), 7, num_classes)
    }

    /// VGG-16 Faster R-CNN (refinement-network alternative in Table 5).
    pub fn frcnn_vgg16(num_classes: usize) -> FasterRcnnSpec {
        FasterRcnnSpec {
            name: "VGG-16 Faster R-CNN".into(),
            backbone: Backbone::Vgg16,
            roi_pool: 7,
            rpn_hidden: 512,
            num_anchors: 12,
            num_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::presets::*;
    use super::*;

    const W: usize = 1242;
    const H: usize = 375;
    const KITTI_CLASSES: usize = 2;

    fn gops(spec: &FasterRcnnSpec) -> f64 {
        spec.full_frame_macs(W, H, 300).total() / 1e9
    }

    fn assert_close(measured: f64, paper: f64, tol: f64, what: &str) {
        let rel = (measured - paper).abs() / paper;
        assert!(
            rel < tol,
            "{what}: measured {measured:.1} G vs paper {paper:.1} G (rel err {:.1}%)",
            rel * 100.0
        );
    }

    #[test]
    fn table1_resnet18_ops() {
        assert_close(
            gops(&frcnn_resnet18(KITTI_CLASSES)),
            138.3,
            0.10,
            "ResNet-18",
        );
    }

    #[test]
    fn table1_resnet10a_ops() {
        assert_close(
            gops(&frcnn_resnet10a(KITTI_CLASSES)),
            20.7,
            0.10,
            "ResNet-10a",
        );
    }

    #[test]
    fn table1_resnet10b_ops() {
        assert_close(
            gops(&frcnn_resnet10b(KITTI_CLASSES)),
            7.5,
            0.10,
            "ResNet-10b",
        );
    }

    #[test]
    fn table1_resnet10c_ops() {
        assert_close(
            gops(&frcnn_resnet10c(KITTI_CLASSES)),
            4.5,
            0.10,
            "ResNet-10c",
        );
    }

    #[test]
    fn table2_resnet50_ops() {
        assert_close(
            gops(&frcnn_resnet50(KITTI_CLASSES)),
            254.3,
            0.15,
            "ResNet-50",
        );
    }

    #[test]
    fn table5_vgg16_ops() {
        assert_close(gops(&frcnn_vgg16(KITTI_CLASSES)), 179.0, 0.10, "VGG-16");
    }

    #[test]
    fn table6_resnet50_citypersons_ops() {
        // CityPersons resolution 2048x1024, 1 class: paper reports 597 G.
        // Our convention (which matches Table 1 within a few percent at
        // KITTI resolution) lands ~30% below here because the per-RoI head
        // does not scale with image area; the paper's exact input scaling
        // for CityPersons is not stated. See EXPERIMENTS.md.
        let spec = frcnn_resnet50(1);
        let total = spec.full_frame_macs(2048, 1024, 300).total() / 1e9;
        assert_close(total, 597.0, 0.35, "ResNet-50 @ CityPersons");
        // The part that drives every CityPersons ratio in Table 6 — the
        // full-frame trunk — must scale with pixel count (4.5x vs KITTI).
        let ratio = spec.trunk_macs(2048, 1024) / spec.trunk_macs(1242, 375);
        assert!((4.0..5.0).contains(&ratio), "trunk ratio {ratio}");
    }

    #[test]
    fn masked_mode_skips_rpn_and_scales_trunk() {
        let spec = frcnn_resnet50(KITTI_CLASSES);
        let full = spec.full_frame_macs(W, H, 300);
        let masked = spec.masked_macs(W, H, 0.5, 20);
        assert_eq!(masked.rpn, 0.0);
        assert!((masked.trunk - full.trunk * 0.5).abs() < 1.0);
        assert!((masked.head - spec.head_macs_per_roi() * 20.0).abs() < 1.0);
    }

    #[test]
    fn masked_full_coverage_300_proposals_costs_less_than_full() {
        // Equal trunk+head but no RPN.
        let spec = frcnn_resnet50(KITTI_CLASSES);
        let full = spec.full_frame_macs(W, H, 300).total();
        let masked = spec.masked_macs(W, H, 1.0, 300).total();
        assert!(masked < full);
        assert!((full - masked - spec.rpn_macs(W, H)).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "coverage fraction")]
    fn masked_rejects_bad_coverage() {
        let spec = frcnn_resnet10a(KITTI_CLASSES);
        let _ = spec.masked_macs(W, H, 1.5, 10);
    }

    #[test]
    fn ops_breakdown_total_is_sum() {
        let spec = frcnn_resnet18(KITTI_CLASSES);
        let ops = spec.full_frame_macs(W, H, 300);
        assert_eq!(ops.total(), ops.trunk + ops.rpn + ops.head);
    }

    #[test]
    fn proposal_count_only_affects_head() {
        let spec = frcnn_resnet10b(KITTI_CLASSES);
        let a = spec.full_frame_macs(W, H, 300);
        let b = spec.full_frame_macs(W, H, 100);
        assert_eq!(a.trunk, b.trunk);
        assert_eq!(a.rpn, b.rpn);
        assert!((a.head / b.head - 3.0).abs() < 1e-9);
    }

    #[test]
    fn backbone_names() {
        assert_eq!(frcnn_vgg16(1).backbone.name(), "VGG-16");
        assert_eq!(frcnn_resnet10a(1).backbone.name(), "ResNet-10a");
    }
}
