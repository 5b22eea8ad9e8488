//! Design-choice ablations beyond the paper's tables:
//!
//! * motion model — the paper's exponential decay vs. SORT's Kalman
//!   filter vs. no motion at all (§4.1's design decision),
//! * refinement margin — the 30 px context margin vs. a sweep (§4.3),
//! * track lifetime — adaptive confidence vs. a fixed single-miss budget,
//! * region merging — Appendix I's greedy merging vs. per-region launches.

use catdet_bench::{tables, Scale};
use catdet_core::{
    evaluate_collected, run_collect, CaTDetSystem, DetectionSystem, GpuTimingModel, SystemConfig,
};
use catdet_data::Difficulty;
use catdet_detector::zoo;
use catdet_geom::Box2;
use catdet_nn::presets;
use catdet_track::{MotionModelKind, TrackerConfig};

#[derive(Debug)]
struct AblationRow {
    variant: String,
    gops: f64,
    map_hard: f64,
    md08_hard: Option<f64>,
}

catdet_bench::json_object! { AblationRow { variant, gops, map_hard, md08_hard } }

fn measure(system: &mut dyn DetectionSystem, ds: &catdet_data::VideoDataset) -> AblationRow {
    let run = run_collect(system, ds);
    let hard = evaluate_collected(&run, ds, Difficulty::Hard);
    AblationRow {
        variant: run.system_name.clone(),
        gops: run.mean_ops.total() / 1e9,
        map_hard: hard.map(),
        md08_hard: hard.mean_delay_at_precision(0.8).map(|d| d.mean),
    }
}

fn print_rows(label: &str, rows: &[(String, AblationRow)]) {
    println!("--- {label} ---");
    println!(
        "{:34} {:>9} {:>9} {:>10}",
        "variant", "ops (G)", "mAP(H)", "mD@0.8(H)"
    );
    for (name, r) in rows {
        println!(
            "{:34} {:>9.1} {:>9.3} {:>10.2}",
            name,
            r.gops,
            r.map_hard,
            r.md08_hard.unwrap_or(f64::NAN)
        );
    }
    println!();
}

fn main() {
    let scale = Scale::from_env();
    let ds = scale.kitti();
    tables::heading("Ablations", "design choices called out in DESIGN.md");
    let mut all: Vec<(String, AblationRow)> = Vec::new();

    // 1. Motion model.
    let mut rows = Vec::new();
    for (name, motion) in [
        ("decay eta=0.7 (paper)", MotionModelKind::Decay { eta: 0.7 }),
        ("decay eta=0.3", MotionModelKind::Decay { eta: 0.3 }),
        (
            "Kalman (SORT)",
            MotionModelKind::Kalman {
                process_noise: 0.05,
                measurement_noise: 1.0,
            },
        ),
        ("static (no motion)", MotionModelKind::Static),
    ] {
        let tracker_cfg = TrackerConfig::paper().with_motion(motion);
        let mut system = CaTDetSystem::with_tracker(
            zoo::resnet10a(2),
            zoo::resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper(),
            tracker_cfg,
        );
        rows.push((name.to_string(), measure(&mut system, &ds)));
    }
    print_rows("tracker motion model (CaTDet-A)", &rows);
    all.extend(rows);

    // 2. Refinement margin.
    let mut rows = Vec::new();
    for margin in [0.0f32, 10.0, 30.0, 60.0] {
        let mut cfg = SystemConfig::paper();
        cfg.margin = margin;
        let mut system = CaTDetSystem::new(zoo::resnet10a(2), zoo::resnet50(2), 1242.0, 375.0, cfg);
        rows.push((format!("margin {margin} px"), measure(&mut system, &ds)));
    }
    print_rows("refinement context margin (paper: 30 px)", &rows);
    all.extend(rows);

    // 3. Track lifetime: adaptive confidence (paper) vs. one-strike.
    let mut rows = Vec::new();
    for (name, max_conf, initial) in [
        ("adaptive, cap 4 (paper)", 4, 1),
        ("one-strike", 0, 0),
        ("long memory, cap 12", 12, 1),
    ] {
        let mut tracker_cfg = TrackerConfig::paper();
        tracker_cfg.max_confidence = max_conf;
        tracker_cfg.initial_confidence = initial;
        let mut system = CaTDetSystem::with_tracker(
            zoo::resnet10a(2),
            zoo::resnet50(2),
            1242.0,
            375.0,
            SystemConfig::paper(),
            tracker_cfg,
        );
        rows.push((name.to_string(), measure(&mut system, &ds)));
    }
    print_rows("track lifetime policy", &rows);
    all.extend(rows);

    // 4. Region merging (timing model): merged vs. per-region launches.
    let model = GpuTimingModel::titan_x_maxwell();
    let refine = presets::frcnn_resnet50(2);
    let trunk = refine.trunk_macs(1242, 375);
    let per_px = trunk / (1242.0 * 375.0);
    let regions: Vec<Box2> = (0..18)
        .map(|i| Box2::from_xywh(40.0 + (i * 63) as f32, 150.0, 75.0, 55.0))
        .collect();
    let (merged, workload, merged_time) =
        model.merge_regions(per_px, 1242.0, 375.0, &regions, 30.0);
    let unmerged_time: f64 = regions
        .iter()
        .map(|r| model.launch_time(per_px * r.dilate(30.0).clip(1242.0, 375.0).area() as f64))
        .sum();
    println!("--- greedy region merging (Appendix I) ---");
    println!(
        "{} regions -> {} launches; workload {:.1} G; time {:.1} ms merged vs {:.1} ms unmerged",
        regions.len(),
        merged.len(),
        workload / 1e9,
        merged_time * 1e3,
        unmerged_time * 1e3
    );

    tables::save_json("ablations", &all.iter().map(|(_, r)| r).collect::<Vec<_>>());
}
