//! Residual backbone configurations (Table 1 of the paper).
//!
//! The paper uses five ResNet variants: the standard ResNet-18 and
//! ResNet-50, and three compact "ResNet-10" models whose per-stage widths
//! are listed in Table 1 (one residual block per stage instead of two, and
//! narrower channels). For detection, the backbone splits into
//!
//! * a **trunk** — `conv1` + stages 1–3, final stride 16, which runs over
//!   the (masked) image, and
//! * a **per-RoI head** — stage 4 applied to RoI-pooled features, followed
//!   by a tiny classifier (the `pytorch-faster-rcnn` reference layout the
//!   paper builds on).

use crate::layers::{conv2d_macs, conv_out_dim, linear_macs};

/// The two residual block designs used by the paper's backbones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Two 3×3 convolutions (ResNet-18 and the compact ResNet-10 models).
    Basic,
    /// 1×1 → 3×3 → 1×1 bottleneck with 4× expansion (ResNet-50).
    Bottleneck,
}

/// A parameterised residual backbone.
///
/// `stage_channels` are the *output* channels of each stage (for
/// bottlenecks, the expanded width; the bottleneck mid-width is a quarter of
/// it, as in torchvision).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Human-readable name, e.g. `"ResNet-10a"`.
    pub name: String,
    /// Channels of the stem convolution (7×7, stride 2).
    pub conv1_channels: usize,
    /// Output channels of stages 1–4.
    pub stage_channels: [usize; 4],
    /// Residual blocks per stage.
    pub blocks: [usize; 4],
    /// Block design.
    pub kind: BlockKind,
}

impl ResNetConfig {
    /// Standard ResNet-18 (Table 1, "all blocks repeated 2 times").
    pub fn resnet18() -> Self {
        Self {
            name: "ResNet-18".into(),
            conv1_channels: 64,
            stage_channels: [64, 128, 256, 512],
            blocks: [2, 2, 2, 2],
            kind: BlockKind::Basic,
        }
    }

    /// Standard ResNet-50.
    pub fn resnet50() -> Self {
        Self {
            name: "ResNet-50".into(),
            conv1_channels: 64,
            stage_channels: [256, 512, 1024, 2048],
            blocks: [3, 4, 6, 3],
            kind: BlockKind::Bottleneck,
        }
    }

    /// Compact proposal backbone "ResNet-10a" (Table 1).
    pub fn resnet10a() -> Self {
        Self {
            name: "ResNet-10a".into(),
            conv1_channels: 48,
            stage_channels: [48, 96, 168, 512],
            blocks: [1, 1, 1, 1],
            kind: BlockKind::Basic,
        }
    }

    /// Compact proposal backbone "ResNet-10b" (Table 1).
    pub fn resnet10b() -> Self {
        Self {
            name: "ResNet-10b".into(),
            conv1_channels: 32,
            stage_channels: [32, 64, 128, 256],
            blocks: [1, 1, 1, 1],
            kind: BlockKind::Basic,
        }
    }

    /// Compact proposal backbone "ResNet-10c" (Table 1).
    pub fn resnet10c() -> Self {
        Self {
            name: "ResNet-10c".into(),
            conv1_channels: 24,
            stage_channels: [24, 48, 96, 192],
            blocks: [1, 1, 1, 1],
            kind: BlockKind::Basic,
        }
    }

    /// Output channels of the stride-16 trunk (stage 3).
    pub fn trunk_out_channels(&self) -> usize {
        self.stage_channels[2]
    }

    /// Output channels of stage 4 (the RoI head features).
    pub fn head_out_channels(&self) -> usize {
        self.stage_channels[3]
    }

    /// MACs of one residual block.
    ///
    /// Returns the MAC count and the output spatial dims. Follows the
    /// torchvision layout: for basic blocks the stride sits on the first
    /// 3×3; for bottlenecks the 1×1 reduction runs at input resolution and
    /// the stride sits on the 3×3. A projection shortcut (1×1) is charged
    /// whenever the shape changes.
    fn block_macs(
        &self,
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        in_h: usize,
        in_w: usize,
    ) -> (f64, usize, usize) {
        let out_h = conv_out_dim(in_h, stride);
        let out_w = conv_out_dim(in_w, stride);
        let mut macs = 0.0;
        match self.kind {
            BlockKind::Basic => {
                macs += conv2d_macs(in_ch, out_ch, 3, out_h, out_w);
                macs += conv2d_macs(out_ch, out_ch, 3, out_h, out_w);
            }
            BlockKind::Bottleneck => {
                let mid = out_ch / 4;
                macs += conv2d_macs(in_ch, mid, 1, in_h, in_w);
                macs += conv2d_macs(mid, mid, 3, out_h, out_w);
                macs += conv2d_macs(mid, out_ch, 1, out_h, out_w);
            }
        }
        if stride != 1 || in_ch != out_ch {
            macs += conv2d_macs(in_ch, out_ch, 1, out_h, out_w);
        }
        (macs, out_h, out_w)
    }

    /// MACs of a full stage (`n` blocks, stride on the first block).
    fn stage_macs(
        &self,
        stage: usize,
        in_ch: usize,
        stride: usize,
        in_h: usize,
        in_w: usize,
    ) -> (f64, usize, usize) {
        let out_ch = self.stage_channels[stage];
        let (mut macs, mut h, mut w) = self.block_macs(in_ch, out_ch, stride, in_h, in_w);
        for _ in 1..self.blocks[stage] {
            let (m, nh, nw) = self.block_macs(out_ch, out_ch, 1, h, w);
            macs += m;
            h = nh;
            w = nw;
        }
        (macs, h, w)
    }

    /// MACs of the stem: 7×7 stride-2 convolution (the following 3×3
    /// stride-2 max-pool is free).
    fn stem_macs(&self, in_h: usize, in_w: usize) -> (f64, usize, usize) {
        let h = conv_out_dim(in_h, 2);
        let w = conv_out_dim(in_w, 2);
        let macs = conv2d_macs(3, self.conv1_channels, 7, h, w);
        // max-pool, stride 2
        (macs, conv_out_dim(h, 2), conv_out_dim(w, 2))
    }

    /// MACs of the stride-16 detection trunk (stem + stages 1–3) on a
    /// `width × height` image. Returns `(macs, feat_h, feat_w)`.
    ///
    /// # Example
    ///
    /// ```
    /// use catdet_nn::ResNetConfig;
    /// let (macs, h, w) = ResNetConfig::resnet50().trunk_macs(1242, 375);
    /// assert_eq!((h, w), (24, 78));
    /// assert!(macs > 1e9);
    /// ```
    pub fn trunk_macs(&self, width: usize, height: usize) -> (f64, usize, usize) {
        let (mut macs, mut h, mut w) = self.stem_macs(height, width);
        let mut in_ch = self.conv1_channels;
        for (stage, &stride) in [1usize, 2, 2].iter().enumerate() {
            let (m, nh, nw) = self.stage_macs(stage, in_ch, stride, h, w);
            macs += m;
            h = nh;
            w = nw;
            in_ch = self.stage_channels[stage];
        }
        (macs, h, w)
    }

    /// MACs of stage 4 applied to a `pool × pool` RoI-pooled feature patch
    /// plus the final classification/regression FCs — the per-RoI head of
    /// the detector.
    ///
    /// `num_classes` excludes background; the classifier FC has
    /// `num_classes + 1` outputs and the regressor `4 × num_classes`.
    pub fn head_macs_per_roi(&self, pool: usize, num_classes: usize) -> f64 {
        let in_ch = self.trunk_out_channels();
        let (mut macs, _, _) = self.stage_macs(3, in_ch, 2, pool, pool);
        let feat = self.head_out_channels();
        macs += linear_macs(feat, num_classes + 1);
        macs += linear_macs(feat, 4 * num_classes);
        macs
    }

    /// MACs of the full backbone at stride 32 (stem + all four stages), as
    /// used for whole-image classification or as the RetinaNet trunk.
    pub fn full_backbone_macs(&self, width: usize, height: usize) -> f64 {
        let (mut macs, mut h, mut w) = self.stem_macs(height, width);
        let mut in_ch = self.conv1_channels;
        for (stage, &stride) in [1usize, 2, 2, 2].iter().enumerate() {
            let (m, nh, nw) = self.stage_macs(stage, in_ch, stride, h, w);
            macs += m;
            h = nh;
            w = nw;
            in_ch = self.stage_channels[stage];
        }
        macs
    }

    /// Spatial dims `(h, w)` of each stage output `C2..C5` for an input
    /// image, used by the FPN model.
    pub fn stage_dims(&self, width: usize, height: usize) -> [(usize, usize); 4] {
        let mut h = conv_out_dim(conv_out_dim(height, 2), 2);
        let mut w = conv_out_dim(conv_out_dim(width, 2), 2);
        let mut dims = [(0, 0); 4];
        for (stage, &stride) in [1usize, 2, 2, 2].iter().enumerate() {
            h = conv_out_dim(h, stride);
            w = conv_out_dim(w, stride);
            dims[stage] = (h, w);
        }
        dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: usize = 1242;
    const H: usize = 375;

    #[test]
    fn trunk_feature_dims_are_stride_16() {
        for cfg in [
            ResNetConfig::resnet18(),
            ResNetConfig::resnet50(),
            ResNetConfig::resnet10a(),
        ] {
            let (_, h, w) = cfg.trunk_macs(W, H);
            assert_eq!((h, w), (24, 78), "{}", cfg.name);
        }
    }

    #[test]
    fn stage_dims_follow_strides() {
        let dims = ResNetConfig::resnet50().stage_dims(W, H);
        assert_eq!(dims, [(94, 311), (47, 156), (24, 78), (12, 39)]);
    }

    #[test]
    fn resnet18_trunk_macs_in_expected_range() {
        // Hand computation: stem ~1.1 G, stages ~4.3/4.0/4.3 G => ~13.7 G.
        let (macs, _, _) = ResNetConfig::resnet18().trunk_macs(W, H);
        let g = macs / 1e9;
        assert!((12.0..16.0).contains(&g), "got {g}");
    }

    #[test]
    fn resnet50_trunk_heavier_than_resnet18() {
        let (m50, _, _) = ResNetConfig::resnet50().trunk_macs(W, H);
        let (m18, _, _) = ResNetConfig::resnet18().trunk_macs(W, H);
        assert!(m50 > m18 * 1.5);
    }

    #[test]
    fn compact_models_are_ordered() {
        let (a, _, _) = ResNetConfig::resnet10a().trunk_macs(W, H);
        let (b, _, _) = ResNetConfig::resnet10b().trunk_macs(W, H);
        let (c, _, _) = ResNetConfig::resnet10c().trunk_macs(W, H);
        assert!(a > b && b > c);
    }

    #[test]
    fn head_scales_with_pool_size() {
        let cfg = ResNetConfig::resnet50();
        let h7 = cfg.head_macs_per_roi(7, 2);
        let h14 = cfg.head_macs_per_roi(14, 2);
        assert!(h14 > 2.0 * h7);
    }

    #[test]
    fn resnet50_head_matches_hand_count() {
        // Stage 4 on a 14x14 patch: ~0.81 GMACs (see DESIGN.md derivation).
        let h = ResNetConfig::resnet50().head_macs_per_roi(14, 2) / 1e9;
        assert!((0.6..1.0).contains(&h), "got {h}");
    }

    #[test]
    fn full_backbone_exceeds_trunk() {
        let cfg = ResNetConfig::resnet50();
        let (trunk, _, _) = cfg.trunk_macs(W, H);
        assert!(cfg.full_backbone_macs(W, H) > trunk);
    }

    #[test]
    fn basic_block_counts_projection_shortcut() {
        let cfg = ResNetConfig::resnet18();
        // Same channels, stride 1: no projection.
        let (plain, _, _) = cfg.block_macs(64, 64, 1, 10, 10);
        assert_eq!(plain, 2.0 * conv2d_macs(64, 64, 3, 10, 10));
        // Channel change: projection added.
        let (proj, _, _) = cfg.block_macs(64, 128, 1, 10, 10);
        assert_eq!(
            proj,
            conv2d_macs(64, 128, 3, 10, 10)
                + conv2d_macs(128, 128, 3, 10, 10)
                + conv2d_macs(64, 128, 1, 10, 10)
        );
    }

    #[test]
    fn bottleneck_block_structure() {
        let cfg = ResNetConfig::resnet50();
        // 256 -> 512 (mid 128), stride 2, from 20x20.
        let (macs, h, w) = cfg.block_macs(256, 512, 2, 20, 20);
        assert_eq!((h, w), (10, 10));
        let expect = conv2d_macs(256, 128, 1, 20, 20)
            + conv2d_macs(128, 128, 3, 10, 10)
            + conv2d_macs(128, 512, 1, 10, 10)
            + conv2d_macs(256, 512, 1, 10, 10);
        assert_eq!(macs, expect);
    }

    #[test]
    fn trunk_macs_scale_roughly_with_area() {
        let cfg = ResNetConfig::resnet18();
        let (small, _, _) = cfg.trunk_macs(621, 188);
        let (large, _, _) = cfg.trunk_macs(1242, 375);
        let ratio = large / small;
        assert!((3.2..4.8).contains(&ratio), "ratio {ratio}");
    }
}
