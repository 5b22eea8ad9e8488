//! Cross-crate integration tests: the paper's system-level invariants on
//! small (fast) datasets.

use catdet::core::{
    drive_frame, evaluate_collected, run_collect, CaTDetSystem, CascadedSystem, CollectedRun,
    DetectionSystem, PolicedPipeline, PolicyConfig, SingleModelSystem, SystemConfig,
};
use catdet::data::{kitti_like, Difficulty, VideoDataset};
use catdet::detector::zoo;
use catdet::metrics::DelayAccumulator;
use catdet::sim::ActorClass;

fn small_kitti() -> VideoDataset {
    kitti_like().sequences(4).frames_per_sequence(120).build()
}

fn run(system: &mut dyn DetectionSystem, ds: &VideoDataset) -> CollectedRun {
    run_collect(system, ds)
}

#[test]
fn catdet_saves_most_of_the_single_model_ops() {
    let ds = small_kitti();
    let single = run(&mut SingleModelSystem::resnet50_kitti(), &ds);
    let catdet = run(&mut CaTDetSystem::catdet_a(), &ds);
    let ratio = single.mean_ops.total() / catdet.mean_ops.total();
    // Paper: 5.15x for CaTDet-A; leave slack for dataset variation.
    assert!(ratio > 4.0, "ops reduction only {ratio:.1}x");
}

#[test]
fn catdet_b_saves_even_more() {
    let ds = small_kitti();
    let a = run(&mut CaTDetSystem::catdet_a(), &ds);
    let b = run(&mut CaTDetSystem::catdet_b(), &ds);
    assert!(b.mean_ops.total() < a.mean_ops.total());
}

#[test]
fn cascade_is_cheaper_but_less_accurate_than_catdet() {
    let ds = small_kitti();
    let cascade = run(&mut CascadedSystem::cascade_b(), &ds);
    let catdet = run(&mut CaTDetSystem::catdet_b(), &ds);
    // The tracker costs extra refinement work...
    assert!(cascade.mean_ops.total() < catdet.mean_ops.total());
    // ...and buys accuracy.
    let map_cascade = evaluate_collected(&cascade, &ds, Difficulty::Moderate).map();
    let map_catdet = evaluate_collected(&catdet, &ds, Difficulty::Moderate).map();
    assert!(
        map_catdet > map_cascade,
        "CaTDet {map_catdet:.3} should beat cascade {map_cascade:.3}"
    );
}

#[test]
fn catdet_roughly_matches_single_model_accuracy() {
    let ds = small_kitti();
    let single = run(&mut SingleModelSystem::resnet50_kitti(), &ds);
    let catdet = run(&mut CaTDetSystem::catdet_a(), &ds);
    let map_single = evaluate_collected(&single, &ds, Difficulty::Moderate).map();
    let map_catdet = evaluate_collected(&catdet, &ds, Difficulty::Moderate).map();
    // On the full benchmark the gap is < 0.005 (see EXPERIMENTS.md); this
    // small 4-sequence dataset gives the tracker fewer frames to latch,
    // so allow a wider band while still excluding cascade-level drops.
    assert!(
        (map_single - map_catdet).abs() < 0.06,
        "single {map_single:.3} vs CaTDet {map_catdet:.3}"
    );
}

#[test]
fn table3_attribution_sums_exceed_actual() {
    // "Because of overlaps between these two sources, the two components
    // sum to more than the total number of operations."
    let ds = small_kitti();
    let catdet = run(&mut CaTDetSystem::catdet_a(), &ds);
    let ops = &catdet.mean_ops;
    assert!(ops.refinement_from_tracker > 0.0);
    assert!(ops.refinement_from_proposal > 0.0);
    assert!(
        ops.refinement_from_tracker + ops.refinement_from_proposal >= ops.refinement,
        "attribution sum below actual refinement cost"
    );
    assert!(ops.refinement_from_tracker < ops.refinement);
}

#[test]
fn raising_c_thresh_trades_ops_for_delay() {
    // Figure 6's mechanism: fewer proposals -> less refinement work but
    // slower first detections.
    let ds = small_kitti();
    let mut loose = CaTDetSystem::new(
        zoo::resnet10a(2),
        zoo::resnet50(2),
        ds.width,
        ds.height,
        SystemConfig::paper().with_c_thresh(0.02),
    );
    let mut tight = CaTDetSystem::new(
        zoo::resnet10a(2),
        zoo::resnet50(2),
        ds.width,
        ds.height,
        SystemConfig::paper().with_c_thresh(0.6),
    );
    let run_loose = run(&mut loose, &ds);
    let run_tight = run(&mut tight, &ds);
    assert!(run_tight.mean_ops.refinement < run_loose.mean_ops.refinement);
    let d_loose = evaluate_collected(&run_loose, &ds, Difficulty::Hard)
        .mean_delay_at_precision(0.8)
        .map(|d| d.mean);
    let d_tight = evaluate_collected(&run_tight, &ds, Difficulty::Hard)
        .mean_delay_at_precision(0.8)
        .map(|d| d.mean);
    if let (Some(dl), Some(dt)) = (d_loose, d_tight) {
        assert!(dt >= dl - 0.3, "tight {dt:.2} vs loose {dl:.2}");
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let ds = kitti_like().sequences(2).frames_per_sequence(60).build();
    let a = run(&mut CaTDetSystem::catdet_a(), &ds);
    let b = run(&mut CaTDetSystem::catdet_a(), &ds);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.mean_ops, b.mean_ops);
}

#[test]
fn moderate_is_never_harder_than_it_looks() {
    // Evaluating the same run at Moderate vs Hard: Hard admits a superset
    // of ground truth, so Hard mAP <= Moderate mAP for a fixed system.
    let ds = small_kitti();
    let single = run(&mut SingleModelSystem::resnet50_kitti(), &ds);
    let m = evaluate_collected(&single, &ds, Difficulty::Moderate).map();
    let h = evaluate_collected(&single, &ds, Difficulty::Hard).map();
    assert!(
        h <= m + 0.01,
        "Hard {h:.3} should not exceed Moderate {m:.3}"
    );
}

#[test]
fn confidence_trigger_saves_compute_at_bounded_delay() {
    // Detect-or-track: coasting on confident tracks must save at least 30%
    // of always-detect's modelled MACs per frame, at no more than 3 frames
    // of extra mean delay (Car, Hard, score >= 0.5).
    let ds = kitti_like()
        .sequences(4)
        .frames_per_sequence(80)
        .seed(2019)
        .build();
    let measure = |policy: PolicyConfig| {
        let (mut macs, mut frames) = (0.0, 0usize);
        let mut delay = DelayAccumulator::new();
        for seq in ds.sequences() {
            let mut system = PolicedPipeline::new(Box::new(CaTDetSystem::catdet_a()), policy);
            for frame in seq.frames() {
                let out = drive_frame(&mut system, frame);
                macs += out.ops.total();
                frames += 1;
                delay.add_frame(
                    seq.id,
                    frame.index,
                    &frame.ground_truth,
                    &out.detections,
                    Difficulty::Hard,
                );
            }
        }
        let mean_delay = delay
            .mean_delay_at(ActorClass::Car, 0.5)
            .expect("KITTI-like video has evaluable cars");
        (macs / frames as f64, mean_delay)
    };
    let (always_macs, always_delay) = measure(PolicyConfig::always_detect());
    let (trigger_macs, trigger_delay) = measure(PolicyConfig::confidence_trigger(1.0));
    let saving = 1.0 - trigger_macs / always_macs;
    assert!(
        saving >= 0.30,
        "confidence trigger saves only {:.1}% of MACs/frame",
        100.0 * saving
    );
    assert!(
        trigger_delay - always_delay <= 3.0,
        "mean delay grew {always_delay:.2} -> {trigger_delay:.2} frames"
    );
}
