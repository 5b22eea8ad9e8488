//! One function per table/figure of the paper.
//!
//! Each function runs the relevant systems at the given [`Scale`] and
//! returns structured rows carrying both the measured value and the
//! paper's reported value, so binaries (and integration tests) can print
//! or assert on them.

use crate::json_object;
use crate::scale::Scale;
use catdet_core::{
    evaluate_collected, evaluate_collected_with, run_collect, CaTDetSystem, CascadedSystem,
    CollectedRun, DetectionSystem, GpuTimingModel, SingleModelSystem, SystemConfig,
};
use catdet_data::{Difficulty, VideoDataset};
use catdet_detector::{zoo, DetectorModel};
use catdet_metrics::ApMethod;
use catdet_metrics::OperatingPoint;
use catdet_nn::{gops, presets};
use catdet_sim::ActorClass;

/// KITTI frame dimensions.
const KITTI_W: f32 = 1242.0;
const KITTI_H: f32 = 375.0;
/// CityPersons frame dimensions.
const CP_W: f32 = 2048.0;
const CP_H: f32 = 1024.0;

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One proposal-network spec row (Table 1).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Model name.
    pub model: String,
    /// Measured Faster R-CNN Gops at 1242×375 with 300 proposals.
    pub gops: f64,
    /// The paper's value.
    pub paper_gops: f64,
}

json_object! { Table1Row { model, gops, paper_gops } }

/// Regenerates Table 1: operation counts of the proposal backbones
/// (plus the ResNet-50/VGG-16 reference rows from Tables 2/5).
pub fn table1() -> Vec<Table1Row> {
    [
        (presets::frcnn_resnet18(2), 138.3),
        (presets::frcnn_resnet10a(2), 20.7),
        (presets::frcnn_resnet10b(2), 7.5),
        (presets::frcnn_resnet10c(2), 4.5),
        (presets::frcnn_resnet50(2), 254.3),
        (presets::frcnn_vgg16(2), 179.0),
    ]
    .into_iter()
    .map(|(spec, paper)| Table1Row {
        model: spec.name.clone(),
        gops: gops(spec.full_frame_macs(1242, 375, 300).total()),
        paper_gops: paper,
    })
    .collect()
}

// ---------------------------------------------------------------------
// Shared runners
// ---------------------------------------------------------------------

/// Which system shape to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Single-model detector (Fig. 1a).
    Single,
    /// Cascade without tracker (Fig. 1b).
    Cascaded,
    /// Full CaTDet (Fig. 1c).
    CaTDet,
}

/// Builds a system over arbitrary models/dims.
pub fn build_system(
    kind: SystemKind,
    proposal: Option<DetectorModel>,
    refinement: DetectorModel,
    width: f32,
    height: f32,
    cfg: SystemConfig,
) -> Box<dyn DetectionSystem> {
    match kind {
        SystemKind::Single => Box::new(SingleModelSystem::new(refinement, width, height)),
        SystemKind::Cascaded => Box::new(CascadedSystem::new(
            proposal.expect("cascade needs a proposal model"),
            refinement,
            width,
            height,
            cfg,
        )),
        SystemKind::CaTDet => Box::new(CaTDetSystem::new(
            proposal.expect("CaTDet needs a proposal model"),
            refinement,
            width,
            height,
            cfg,
        )),
    }
}

fn run(system: &mut dyn DetectionSystem, ds: &VideoDataset) -> CollectedRun {
    run_collect(system, ds)
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// One KITTI main-results row (Table 2).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// System description.
    pub system: String,
    /// Mean Gops per frame.
    pub gops: f64,
    /// mAP at Moderate difficulty.
    pub map_moderate: f64,
    /// mAP at Hard difficulty.
    pub map_hard: f64,
    /// mD@0.8 at Moderate difficulty (frames).
    pub md08_moderate: Option<f64>,
    /// mD@0.8 at Hard difficulty (frames).
    pub md08_hard: Option<f64>,
    /// Paper values `(ops, mAP mod, mAP hard, mD mod, mD hard)`.
    pub paper: (f64, f64, f64, f64, f64),
}

json_object! { Table2Row { system, gops, map_moderate, map_hard, md08_moderate, md08_hard, paper } }

fn table2_row(
    system: &mut dyn DetectionSystem,
    ds: &VideoDataset,
    paper: (f64, f64, f64, f64, f64),
) -> Table2Row {
    let run = run(system, ds);
    let moderate = evaluate_collected(&run, ds, Difficulty::Moderate);
    let hard = evaluate_collected(&run, ds, Difficulty::Hard);
    Table2Row {
        system: run.system_name.clone(),
        gops: run.mean_ops.total() / 1e9,
        map_moderate: moderate.map(),
        map_hard: hard.map(),
        md08_moderate: moderate.mean_delay_at_precision(0.8).map(|d| d.mean),
        md08_hard: hard.mean_delay_at_precision(0.8).map(|d| d.mean),
        paper,
    }
}

/// Regenerates Table 2: the KITTI main results.
pub fn table2(scale: Scale) -> Vec<Table2Row> {
    let ds = scale.kitti();
    vec![
        table2_row(
            &mut SingleModelSystem::resnet50_kitti(),
            &ds,
            (254.3, 0.812, 0.740, 2.6, 3.3),
        ),
        table2_row(
            &mut CascadedSystem::cascade_a(),
            &ds,
            (43.2, 0.807, 0.733, 3.2, 3.8),
        ),
        table2_row(
            &mut CaTDetSystem::catdet_a(),
            &ds,
            (49.3, 0.814, 0.740, 2.9, 3.7),
        ),
        table2_row(
            &mut CascadedSystem::cascade_b(),
            &ds,
            (23.5, 0.787, 0.730, 4.7, 5.7),
        ),
        table2_row(
            &mut CaTDetSystem::catdet_b(),
            &ds,
            (29.3, 0.815, 0.741, 3.3, 4.1),
        ),
    ]
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

/// Operation break-down row (Table 3), in Gops.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// System description.
    pub system: String,
    /// Mean total Gops.
    pub total: f64,
    /// Proposal-network share.
    pub proposal: f64,
    /// Refinement-network share.
    pub refinement: f64,
    /// Refinement cost attributable to tracker regions alone.
    pub from_tracker: Option<f64>,
    /// Refinement cost attributable to proposal regions alone.
    pub from_proposal: Option<f64>,
    /// Paper values `(total, proposal, refinement, from_tracker, from_proposal)`.
    pub paper: (f64, f64, f64, Option<f64>, Option<f64>),
}

json_object! { Table3Row { system, total, proposal, refinement, from_tracker, from_proposal, paper } }

/// Paper reference values of one Table 3 row:
/// `(total, proposal, refinement, from_tracker, from_proposal)`.
type Table3Paper = (f64, f64, f64, Option<f64>, Option<f64>);

/// Regenerates Table 3: where the operations go.
pub fn table3(scale: Scale) -> Vec<Table3Row> {
    let ds = scale.kitti();
    let mut rows = Vec::new();
    let cases: Vec<(Box<dyn DetectionSystem>, Table3Paper)> = vec![
        (
            Box::new(CascadedSystem::cascade_a()),
            (43.2, 20.7, 22.5, None, None),
        ),
        (
            Box::new(CaTDetSystem::catdet_a()),
            (49.3, 20.7, 28.6, Some(11.9), Some(22.5)),
        ),
        (
            Box::new(CascadedSystem::cascade_b()),
            (23.5, 7.5, 16.0, None, None),
        ),
        (
            Box::new(CaTDetSystem::catdet_b()),
            (29.1, 7.5, 21.8, Some(11.4), Some(16.0)),
        ),
    ];
    for (mut system, paper) in cases {
        let r = run(system.as_mut(), &ds);
        let is_catdet = paper.3.is_some();
        rows.push(Table3Row {
            system: r.system_name.clone(),
            total: r.mean_ops.total() / 1e9,
            proposal: r.mean_ops.proposal / 1e9,
            refinement: r.mean_ops.refinement / 1e9,
            from_tracker: is_catdet.then_some(r.mean_ops.refinement_from_tracker / 1e9),
            from_proposal: is_catdet.then_some(r.mean_ops.refinement_from_proposal / 1e9),
            paper,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Tables 4 & 5
// ---------------------------------------------------------------------

/// A single-model-vs-CaTDet comparison row (Tables 4 and 5).
#[derive(Debug, Clone)]
pub struct RoleRow {
    /// Varied model.
    pub model: String,
    /// `"FR-CNN"` (single) or `"CaTDet(P)"` / `"CaTDet(R)"`.
    pub setting: String,
    /// mAP at Hard difficulty.
    pub map_hard: f64,
    /// mD@0.8 at Hard difficulty.
    pub md08_hard: Option<f64>,
    /// Mean Gops.
    pub gops: f64,
    /// Paper values `(mAP, mD, ops)`.
    pub paper: (f64, f64, f64),
}

json_object! { RoleRow { model, setting, map_hard, md08_hard, gops, paper } }

fn role_row(
    model_name: &str,
    setting: &str,
    system: &mut dyn DetectionSystem,
    ds: &VideoDataset,
    paper: (f64, f64, f64),
) -> RoleRow {
    let run = run(system, ds);
    let hard = evaluate_collected(&run, ds, Difficulty::Hard);
    RoleRow {
        model: model_name.to_string(),
        setting: setting.to_string(),
        map_hard: hard.map(),
        md08_hard: hard.mean_delay_at_precision(0.8).map(|d| d.mean),
        gops: run.mean_ops.total() / 1e9,
        paper,
    }
}

/// Regenerates Table 4: the proposal network's role. Each candidate is
/// measured as (a) a single-model detector, (b) the proposal net of a
/// One Table 4/5 case: the swept model plus the paper's
/// `(mAP, delay, Gops)` for it alone and inside CaTDet.
type RoleCase = (DetectorModel, (f64, f64, f64), (f64, f64, f64));

/// CaTDet with ResNet-50 refinement.
pub fn table4(scale: Scale) -> Vec<RoleRow> {
    let ds = scale.kitti();
    let cases: Vec<RoleCase> = vec![
        (zoo::resnet18(2), (0.687, 5.9, 138.0), (0.742, 3.5, 163.0)),
        (zoo::resnet10a(2), (0.606, 10.9, 20.7), (0.740, 3.7, 49.3)),
        (zoo::resnet10b(2), (0.564, 13.4, 7.5), (0.741, 4.0, 29.3)),
        (zoo::resnet10c(2), (0.542, 15.4, 4.5), (0.741, 4.1, 27.3)),
    ];
    let mut rows = Vec::new();
    for (model, paper_single, paper_catdet) in cases {
        let name = model.name.clone();
        let mut single = SingleModelSystem::new(model.clone(), KITTI_W, KITTI_H);
        rows.push(role_row(&name, "FR-CNN", &mut single, &ds, paper_single));
        let mut catdet = CaTDetSystem::new(
            model,
            zoo::resnet50(2),
            KITTI_W,
            KITTI_H,
            SystemConfig::paper(),
        );
        rows.push(role_row(&name, "CaTDet(P)", &mut catdet, &ds, paper_catdet));
    }
    rows
}

/// Regenerates Table 5: the refinement network's role. Each candidate is
/// measured as (a) a single-model detector, (b) the refinement net of a
/// CaTDet with ResNet-10b proposals.
pub fn table5(scale: Scale) -> Vec<RoleRow> {
    let ds = scale.kitti();
    let cases: Vec<RoleCase> = vec![
        (zoo::resnet18(2), (0.687, 5.9, 138.0), (0.696, 6.0, 24.4)),
        (zoo::resnet50(2), (0.740, 3.3, 254.0), (0.741, 4.0, 39.8)),
        (zoo::vgg16(2), (0.742, 4.2, 179.0), (0.743, 4.4, 63.9)),
    ];
    let mut rows = Vec::new();
    for (model, paper_single, paper_catdet) in cases {
        let name = model.name.clone();
        let mut single = SingleModelSystem::new(model.clone(), KITTI_W, KITTI_H);
        rows.push(role_row(&name, "FR-CNN", &mut single, &ds, paper_single));
        let mut catdet = CaTDetSystem::new(
            zoo::resnet10b(2),
            model,
            KITTI_W,
            KITTI_H,
            SystemConfig::paper(),
        );
        rows.push(role_row(&name, "CaTDet(R)", &mut catdet, &ds, paper_catdet));
    }
    rows
}

// ---------------------------------------------------------------------
// Table 6
// ---------------------------------------------------------------------

/// CityPersons row (Table 6).
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// System description.
    pub system: String,
    /// mAP (Person class, Pascal-VOC protocol).
    pub map: f64,
    /// Mean Gops per frame.
    pub gops: f64,
    /// Paper values `(mAP, ops)`.
    pub paper: (f64, f64),
}

json_object! { Table6Row { system, map, gops, paper } }

/// Regenerates Table 6: CityPersons, same hyper-parameters as KITTI.
pub fn table6(scale: Scale) -> Vec<Table6Row> {
    let ds = scale.citypersons();
    let cfg = SystemConfig::paper();
    let cases: Vec<(Box<dyn DetectionSystem>, (f64, f64))> = vec![
        (
            Box::new(SingleModelSystem::new(zoo::resnet50(1), CP_W, CP_H)),
            (0.674, 597.0),
        ),
        (
            Box::new(CascadedSystem::new(
                zoo::resnet10a(1),
                zoo::resnet50(1),
                CP_W,
                CP_H,
                cfg,
            )),
            (0.611, 79.5),
        ),
        (
            Box::new(CaTDetSystem::new(
                zoo::resnet10a(1),
                zoo::resnet50(1),
                CP_W,
                CP_H,
                cfg,
            )),
            (0.662, 87.4),
        ),
        (
            Box::new(CascadedSystem::new(
                zoo::resnet10b(1),
                zoo::resnet50(1),
                CP_W,
                CP_H,
                cfg,
            )),
            (0.607, 39.0),
        ),
        (
            Box::new(CaTDetSystem::new(
                zoo::resnet10b(1),
                zoo::resnet50(1),
                CP_W,
                CP_H,
                cfg,
            )),
            (0.666, 46.0),
        ),
    ];
    let mut rows = Vec::new();
    for (mut system, paper) in cases {
        let r = run(system.as_mut(), &ds);
        // Paper §7.1: Pascal-VOC protocol for the Person class.
        let ev = evaluate_collected_with(&r, &ds, Difficulty::Hard, ApMethod::Continuous);
        rows.push(Table6Row {
            system: r.system_name.clone(),
            map: ev.map(),
            gops: r.mean_ops.total() / 1e9,
            paper,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Table 7
// ---------------------------------------------------------------------

/// GPU timing row (Appendix I, Table 7).
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// System description.
    pub system: String,
    /// Mean end-to-end frame time (s).
    pub total_s: f64,
    /// Mean GPU kernel time (s).
    pub gpu_s: f64,
    /// Paper values `(total, gpu)`.
    pub paper: (f64, f64),
}

json_object! { Table7Row { system, total_s, gpu_s, paper } }

/// Regenerates Table 7: estimated execution time on the Titan X model,
/// with greedy region merging for the CaTDet refinement pass.
pub fn table7(scale: Scale) -> Vec<Table7Row> {
    let ds = scale.kitti();
    let model = GpuTimingModel::titan_x_maxwell();

    // Single-model ResNet-50.
    let single_macs = presets::frcnn_resnet50(2)
        .full_frame_macs(1242, 375, 300)
        .total();
    let single = model.single_model_frame(single_macs);

    // CaTDet-A: timing depends on the per-frame regions; replay the run.
    let refine_spec = presets::frcnn_resnet50(2);
    let prop_macs = presets::frcnn_resnet10a(2)
        .full_frame_macs(1242, 375, 300)
        .total();
    let mut system = CaTDetSystem::catdet_a();
    let mut gpu_sum = 0.0;
    let mut total_sum = 0.0;
    let mut frames = 0usize;
    for seq in ds.sequences() {
        system.reset();
        for frame in seq.frames() {
            let out = system.process_frame(frame);
            let regions: Vec<catdet_geom::Box2> = out.detections.iter().map(|d| d.bbox).collect();
            // Regions for timing = what refinement actually processed;
            // approximate with the frame's refinement inputs by re-deriving
            // from coverage is lossy, so use the union count recorded.
            let _ = regions;
            let t = model.catdet_frame(
                prop_macs,
                &refine_spec,
                KITTI_W,
                KITTI_H,
                &region_proxy(&out),
                system.config().margin,
            );
            gpu_sum += t.gpu_s;
            total_sum += t.total_s;
            frames += 1;
        }
    }
    vec![
        Table7Row {
            system: "Res50 Faster R-CNN".into(),
            total_s: single.total_s,
            gpu_s: single.gpu_s,
            paper: (0.193, 0.159),
        },
        Table7Row {
            system: "Res10a-Res50 CaTDet".into(),
            total_s: total_sum / frames.max(1) as f64,
            gpu_s: gpu_sum / frames.max(1) as f64,
            paper: (0.094, 0.042),
        },
    ]
}

/// Reconstructs a plausible region set for timing from a frame output:
/// the final detections plus padding boxes to reach the recorded region
/// count (undetected proposals still cost GPU time).
fn region_proxy(out: &catdet_core::FrameOutput) -> Vec<catdet_geom::Box2> {
    let mut regions: Vec<catdet_geom::Box2> = out.detections.iter().map(|d| d.bbox).collect();
    let missing = out.num_refinement_regions.saturating_sub(regions.len());
    // Missing regions (proposals that refined to nothing) are modelled as
    // median-sized boxes tiled along the road band of the frame.
    for i in 0..missing {
        let x = 40.0 + (i as f32 * 97.0) % 1100.0;
        regions.push(catdet_geom::Box2::from_xywh(x, 160.0, 80.0, 60.0));
    }
    regions
}

// ---------------------------------------------------------------------
// Table 8
// ---------------------------------------------------------------------

/// RetinaNet comparison row (Appendix II, Table 8).
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// System description.
    pub system: String,
    /// Mean Gops per frame.
    pub gops: f64,
    /// mAP at Moderate difficulty.
    pub map_moderate: f64,
    /// mD@0.8 at Moderate difficulty.
    pub md08_moderate: Option<f64>,
    /// Paper values `(ops, mAP, mD)`.
    pub paper: (f64, f64, f64),
}

json_object! { Table8Row { system, gops, map_moderate, md08_moderate, paper } }

/// One Table 8 case: a system plus the paper's `(ops, mAP, mD)`.
type Table8Case = (Box<dyn DetectionSystem>, (f64, f64, f64));

/// Regenerates Table 8: RetinaNet as the refinement network.
pub fn table8(scale: Scale) -> Vec<Table8Row> {
    let ds = scale.kitti();
    let cases: Vec<Table8Case> = vec![
        (
            Box::new(SingleModelSystem::retinanet_kitti()),
            (96.7, 0.773, 6.53),
        ),
        (
            Box::new(CaTDetSystem::catdet_retinanet()),
            (30.8, 0.775, 6.33),
        ),
    ];
    let mut rows = Vec::new();
    for (mut system, paper) in cases {
        let r = run(system.as_mut(), &ds);
        let ev = evaluate_collected(&r, &ds, Difficulty::Moderate);
        rows.push(Table8Row {
            system: r.system_name.clone(),
            gops: r.mean_ops.total() / 1e9,
            map_moderate: ev.map(),
            md08_moderate: ev.mean_delay_at_precision(0.8).map(|d| d.mean),
            paper,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figures 6 & 7
// ---------------------------------------------------------------------

/// One point of the Figure 6 sweep.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Proposal model name.
    pub model: String,
    /// Whether the tracker is present (CaTDet vs. plain cascade).
    pub tracker: bool,
    /// Proposal output threshold.
    pub c_thresh: f32,
    /// mAP at Hard difficulty.
    pub map_hard: f64,
    /// mD@0.8 at Hard difficulty.
    pub md08_hard: Option<f64>,
    /// Mean Gops per frame.
    pub gops: f64,
}

json_object! { Fig6Point { model, tracker, c_thresh, map_hard, md08_hard, gops } }

/// The paper's C-thresh sweep values.
pub const C_THRESH_SWEEP: [f32; 7] = [0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6];

/// Regenerates Figure 6: mAP and mD@0.8 (Hard) as functions of the
/// proposal network's output threshold, with and without the tracker.
pub fn fig6(scale: Scale) -> Vec<Fig6Point> {
    let ds = scale.kitti();
    let mut points = Vec::new();
    let models: Vec<fn(usize) -> DetectorModel> =
        vec![zoo::resnet10a, zoo::resnet10c, zoo::resnet18];
    for make_model in models {
        for &tracker in &[true, false] {
            for &c in C_THRESH_SWEEP.iter() {
                let cfg = SystemConfig::paper().with_c_thresh(c);
                let model = make_model(2);
                let name = model.name.clone();
                let mut system: Box<dyn DetectionSystem> = if tracker {
                    Box::new(CaTDetSystem::new(
                        model,
                        zoo::resnet50(2),
                        KITTI_W,
                        KITTI_H,
                        cfg,
                    ))
                } else {
                    Box::new(CascadedSystem::new(
                        model,
                        zoo::resnet50(2),
                        KITTI_W,
                        KITTI_H,
                        cfg,
                    ))
                };
                let r = run(system.as_mut(), &ds);
                let ev = evaluate_collected(&r, &ds, Difficulty::Hard);
                points.push(Fig6Point {
                    model: name,
                    tracker,
                    c_thresh: c,
                    map_hard: ev.map(),
                    md08_hard: ev.mean_delay_at_precision(0.8).map(|d| d.mean),
                    gops: r.mean_ops.total() / 1e9,
                });
            }
        }
    }
    points
}

/// Figure 7 output: per-class recall/delay-vs-precision curves.
#[derive(Debug, Clone)]
pub struct Fig7Curves {
    /// Curve for the Car class.
    pub car: Vec<OperatingPoint>,
    /// Curve for the Pedestrian class.
    pub pedestrian: Vec<OperatingPoint>,
}

json_object! { Fig7Curves { car, pedestrian } }

/// Regenerates Figure 7: how recall and delay correlate with precision,
/// for CaTDet-A on KITTI (Hard difficulty).
pub fn fig7(scale: Scale) -> Fig7Curves {
    let ds = scale.kitti();
    let mut system = CaTDetSystem::catdet_a();
    let r = run(&mut system, &ds);
    let ev = evaluate_collected(&r, &ds, Difficulty::Hard);
    Fig7Curves {
        car: ev.operating_curve(ActorClass::Car, 60),
        pedestrian: ev.operating_curve(ActorClass::Pedestrian, 60),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_within_tolerance() {
        for row in table1() {
            let rel = (row.gops - row.paper_gops).abs() / row.paper_gops;
            assert!(
                rel < 0.15,
                "{}: {} vs {}",
                row.model,
                row.gops,
                row.paper_gops
            );
        }
    }

    #[test]
    fn build_system_covers_all_kinds() {
        let cfg = SystemConfig::paper();
        let s = build_system(
            SystemKind::Single,
            None,
            zoo::resnet50(2),
            KITTI_W,
            KITTI_H,
            cfg,
        );
        assert!(s.name().contains("single"));
        let c = build_system(
            SystemKind::Cascaded,
            Some(zoo::resnet10a(2)),
            zoo::resnet50(2),
            KITTI_W,
            KITTI_H,
            cfg,
        );
        assert!(c.name().contains("Cascaded"));
        let t = build_system(
            SystemKind::CaTDet,
            Some(zoo::resnet10a(2)),
            zoo::resnet50(2),
            KITTI_W,
            KITTI_H,
            cfg,
        );
        assert!(t.name().contains("CaTDet"));
    }
}
