//! GPU execution-time model and region merging (paper Appendix I).
//!
//! GPUs process many small workloads poorly, so the appendix models the
//! execution time of a CNN workload `W` as `T = αW + b` (with `b` roughly
//! the cost of a 400×400 image) and merges regions greedily whenever the
//! merged rectangle's estimated time is below the sum of its parts. We
//! implement the same model and merging algorithm, with constants
//! calibrated to the appendix's Maxwell Titan X measurements (Table 7).

use catdet_geom::{greedy_merge, Box2};
use catdet_nn::FasterRcnnSpec;

/// Per-frame timing estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameTiming {
    /// GPU kernel time (the appendix's "GPU-only" column).
    pub gpu_s: f64,
    /// End-to-end frame time including CPU overheads ("Total").
    pub total_s: f64,
}

/// The linear GPU timing model plus system-level CPU overheads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuTimingModel {
    /// Seconds per MAC (α).
    pub alpha_s_per_mac: f64,
    /// Per-launch overhead `b` in seconds.
    pub launch_overhead_s: f64,
    /// Per-frame CPU overhead (data loading, wrapping).
    pub frame_overhead_s: f64,
    /// Per-CNN-stage CPU overhead (framework dispatch).
    pub stage_overhead_s: f64,
    /// Tracker CPU time per frame.
    pub tracker_overhead_s: f64,
}

impl GpuTimingModel {
    /// Constants calibrated to the appendix's Maxwell Titan X numbers
    /// (Table 7: ResNet-50 single model at 0.159 s GPU / 0.193 s total).
    pub fn titan_x_maxwell() -> Self {
        Self {
            alpha_s_per_mac: 5.56e-13,
            launch_overhead_s: 2.0e-3,
            frame_overhead_s: 19.0e-3,
            stage_overhead_s: 15.0e-3,
            tracker_overhead_s: 2.0e-3,
        }
    }

    /// Estimated time of one CNN launch over a workload of `macs`.
    pub fn launch_time(&self, macs: f64) -> f64 {
        self.alpha_s_per_mac * macs + self.launch_overhead_s
    }

    /// Greedily merges refinement regions under this timing model.
    ///
    /// `trunk_macs_per_px` is the trunk cost density of the refinement
    /// network; regions are dilated by `margin` and clipped to the frame
    /// before merging. Returns the merged regions, the resulting trunk
    /// workload in MACs (≥ the unmerged union — merging trades workload
    /// for fewer launches), and the summed launch time.
    pub fn merge_regions(
        &self,
        trunk_macs_per_px: f64,
        width: f32,
        height: f32,
        regions: &[Box2],
        margin: f32,
    ) -> (Vec<Box2>, f64, f64) {
        let prepared: Vec<Box2> = regions
            .iter()
            .map(|r| r.dilate(margin).clip(width, height))
            .filter(|r| r.is_valid())
            .collect();
        let cost = |b: &Box2| self.launch_time(trunk_macs_per_px * b.area() as f64);
        let (merged, gpu_time) = greedy_merge(&prepared, &cost);
        let workload: f64 = merged
            .iter()
            .map(|b| trunk_macs_per_px * b.area() as f64)
            .sum();
        (merged, workload, gpu_time)
    }

    /// Frame timing of a single-model detector with the given full-frame
    /// cost.
    pub fn single_model_frame(&self, full_frame_macs: f64) -> FrameTiming {
        let gpu = self.launch_time(full_frame_macs);
        FrameTiming {
            gpu_s: gpu,
            total_s: gpu + self.frame_overhead_s + self.stage_overhead_s,
        }
    }

    /// Frame timing of a CaTDet system: proposal launch + merged
    /// refinement launches + one batched RoI-head launch, plus the CPU
    /// overheads of two CNN stages and the tracker.
    pub fn catdet_frame(
        &self,
        proposal_macs: f64,
        refinement: &FasterRcnnSpec,
        width: f32,
        height: f32,
        regions: &[Box2],
        margin: f32,
    ) -> FrameTiming {
        let mut gpu = self.launch_time(proposal_macs);
        if !regions.is_empty() {
            let trunk = refinement.trunk_macs(width as usize, height as usize);
            let per_px = trunk / (width as f64 * height as f64);
            let (_, _, merge_time) = self.merge_regions(per_px, width, height, regions, margin);
            gpu += merge_time;
            gpu += self.launch_time(refinement.head_macs_per_roi() * regions.len() as f64);
        }
        FrameTiming {
            gpu_s: gpu,
            total_s: gpu
                + self.frame_overhead_s
                + 2.0 * self.stage_overhead_s
                + self.tracker_overhead_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdet_nn::presets;

    #[test]
    fn single_model_matches_table7() {
        let model = GpuTimingModel::titan_x_maxwell();
        let macs = presets::frcnn_resnet50(2)
            .full_frame_macs(1242, 375, 300)
            .total();
        let t = model.single_model_frame(macs);
        // Paper: 0.159 s GPU-only, 0.193 s total.
        assert!((t.gpu_s - 0.159).abs() < 0.02, "gpu {}", t.gpu_s);
        assert!((t.total_s - 0.193).abs() < 0.025, "total {}", t.total_s);
    }

    #[test]
    fn catdet_frame_is_much_faster() {
        let model = GpuTimingModel::titan_x_maxwell();
        let prop = presets::frcnn_resnet10a(2)
            .full_frame_macs(1242, 375, 300)
            .total();
        let refine = presets::frcnn_resnet50(2);
        // A typical CaTDet frame: ~20 modest regions.
        let regions: Vec<Box2> = (0..20)
            .map(|i| Box2::from_xywh(60.0 * i as f32, 150.0, 70.0, 60.0))
            .collect();
        let t = model.catdet_frame(prop, &refine, 1242.0, 375.0, &regions, 30.0);
        let single = model.single_model_frame(
            presets::frcnn_resnet50(2)
                .full_frame_macs(1242, 375, 300)
                .total(),
        );
        // Paper: 4x GPU reduction, 2x total reduction.
        assert!(t.gpu_s < single.gpu_s / 2.5, "gpu {}", t.gpu_s);
        assert!(t.total_s < single.total_s / 1.5, "total {}", t.total_s);
    }

    #[test]
    fn merging_reduces_launches_but_not_below_union_workload() {
        let model = GpuTimingModel::titan_x_maxwell();
        let per_px = 1e5; // arbitrary density
        let regions: Vec<Box2> = (0..10)
            .map(|i| Box2::from_xywh(80.0 * i as f32, 100.0, 70.0, 50.0))
            .collect();
        let (merged, workload, time) = model.merge_regions(per_px, 1242.0, 375.0, &regions, 30.0);
        assert!(merged.len() < regions.len());
        // Unmerged baseline: each dilated region its own launch.
        let unmerged_time: f64 = regions
            .iter()
            .map(|r| model.launch_time(per_px * r.dilate(30.0).clip(1242.0, 375.0).area() as f64))
            .sum();
        assert!(time <= unmerged_time + 1e-12);
        assert!(workload > 0.0);
    }

    #[test]
    fn empty_regions_cost_only_proposal() {
        let model = GpuTimingModel::titan_x_maxwell();
        let refine = presets::frcnn_resnet50(2);
        let prop = 20.7e9;
        let t = model.catdet_frame(prop, &refine, 1242.0, 375.0, &[], 30.0);
        assert!((t.gpu_s - model.launch_time(prop)).abs() < 1e-12);
    }

    #[test]
    fn launch_time_is_affine() {
        let model = GpuTimingModel::titan_x_maxwell();
        let a = model.launch_time(0.0);
        assert_eq!(a, model.launch_overhead_s);
        let b = model.launch_time(1e9);
        assert!((b - a - model.alpha_s_per_mac * 1e9).abs() < 1e-15);
    }
}
