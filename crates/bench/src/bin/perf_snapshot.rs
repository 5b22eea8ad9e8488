//! Perf snapshot: frames/s, ns/frame by stage, and allocs/frame for the
//! per-frame hot path, written to `BENCH_PR4.json` at the repo root.
//!
//! ```text
//! cargo run --release -p catdet-bench --bin perf_snapshot            # measure + write
//! cargo run --release -p catdet-bench --bin perf_snapshot -- \
//!     --check BENCH_PR4.json                                         # measure + regression-gate
//! CATDET_BENCH_QUICK=1 ... perf_snapshot                             # CI smoke sizes
//! ```
//!
//! Each pipeline scenario runs the **baseline** (the seed's monolithic
//! loop over the library's kept reference implementations: naive NMS,
//! dense tracker association, quadratic region gating, per-call pricing
//! allocations) and the **optimized** hot path (grid-indexed candidates,
//! flat Hungarian buffers, per-stream `FrameScratch`), asserts their
//! outputs are bit-identical frame by frame, and reports both. A
//! counting global allocator measures steady-state allocations per frame.
//!
//! `--check <baseline.json>`: after measuring, compare against a previous
//! snapshot — fail (exit 1) if dense-scene frames/s regressed more than
//! 20%, or if the dense speedup collapsed below 80% of the recorded one.
//! Absolute frames/s and the recorded ratio are only compared when the
//! two snapshots ran in the same mode (quick vs full); across modes only
//! a conservative machine-normalized collapse floor (1.4× dense speedup)
//! is gated, since quick mode's thinner crowd measures a structurally
//! lower ratio.

use catdet_bench::perf::{
    assert_pipelines_identical, citypersons_dataset, dense_crowd, kitti_dataset,
    mean_objects_per_frame, measure_baseline, measure_staged, AllocProbe, BaselineCatdet,
    PipelineScenario, ServeScenario, Snapshot, SnapshotScale,
};
use catdet_core::{CaTDetSystem, PresetFactory, SystemConfig, SystemKind};
use catdet_data::{StreamSource, VideoDataset};
use catdet_detector::zoo;
use catdet_serve::{serve, ServeConfig, StreamSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counting allocator: every `alloc`/`realloc` bumps the counters. The
/// numbers are process-wide (every thread included), which is exactly
/// what "allocs per frame" should mean for a serving system.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn probe() -> AllocProbe {
    fn sample() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
    AllocProbe { sample }
}

fn catdet_for(ds: &VideoDataset) -> CaTDetSystem {
    CaTDetSystem::new(
        zoo::resnet10a(2),
        zoo::resnet50(2),
        ds.width,
        ds.height,
        SystemConfig::paper(),
    )
}

fn pipeline_scenario(name: &str, ds: &VideoDataset) -> PipelineScenario {
    println!("[{name}] verifying baseline == optimized ...");
    assert_pipelines_identical(ds, ds.width, ds.height);
    println!("[{name}] measuring baseline ...");
    let mut baseline_sys =
        BaselineCatdet::new(zoo::resnet10a(2), zoo::resnet50(2), ds.width, ds.height);
    let baseline = measure_baseline(ds, &mut baseline_sys, probe());
    println!("[{name}] measuring optimized ...");
    let mut optimized_sys = catdet_for(ds);
    let optimized = measure_staged(ds, &mut optimized_sys, probe());
    let scenario = PipelineScenario {
        mean_objects_per_frame: mean_objects_per_frame(ds),
        baseline,
        optimized,
        speedup: optimized.frames_per_s / baseline.frames_per_s.max(1e-12),
        alloc_reduction: baseline.allocs_per_frame / optimized.allocs_per_frame.max(1e-12),
    };
    println!(
        "[{name}] {:.1} obj/frame | baseline {:.1} fps, {:.0} allocs/frame | optimized {:.1} fps, {:.0} allocs/frame | speedup {:.2}x, allocs {:.1}x down",
        scenario.mean_objects_per_frame,
        baseline.frames_per_s,
        baseline.allocs_per_frame,
        optimized.frames_per_s,
        optimized.allocs_per_frame,
        scenario.speedup,
        scenario.alloc_reduction,
    );
    scenario
}

fn serve_scenario(scale: SnapshotScale) -> ServeScenario {
    let (n_streams, frames) = scale.serve;
    println!("[serve_fleet] {n_streams} streams x {frames} frames ...");
    let ds = catdet_data::kitti_like()
        .sequences(n_streams)
        .frames_per_sequence(frames)
        .build();
    let factory = Arc::new(PresetFactory::new(SystemKind::CatdetA, ds.width, ds.height));
    let streams: Vec<StreamSpec> = StreamSource::from_dataset(&ds, 0.013)
        .into_iter()
        .map(|source| StreamSpec::new(source, factory.clone()))
        .collect();
    let cfg = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let (a0, _) = (probe().sample)();
    let t0 = Instant::now();
    let report = serve(streams, &cfg);
    let wall = t0.elapsed();
    let (a1, _) = (probe().sample)();
    let processed = report.frames_processed;
    ServeScenario {
        streams: n_streams,
        frames_processed: processed,
        wall_frames_per_s: processed as f64 / wall.as_secs_f64().max(1e-12),
        virtual_throughput_fps: report.throughput_fps,
        gpu_dispatch_s: report.gpu_dispatch_s,
        allocs_per_frame: (a1 - a0) as f64 / processed.max(1) as f64,
    }
}

/// Pulls `"field": <number>` out of our own snapshot JSON (the vendored
/// serde stack has no deserializer; the format is ours and stable).
fn extract_number(json: &str, section: &str, field: &str) -> Option<f64> {
    let sec = json.find(&format!("\"{section}\""))?;
    let tail = &json[sec..];
    let f = tail.find(&format!("\"{field}\""))?;
    let tail = &tail[f..];
    let colon = tail.find(':')?;
    let rest = tail[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn extract_bool(json: &str, field: &str) -> Option<bool> {
    let f = json.find(&format!("\"{field}\""))?;
    let tail = &json[f..];
    let colon = tail.find(':')?;
    Some(tail[colon + 1..].trim_start().starts_with("true"))
}

fn check_against(baseline_path: &str, current: &Snapshot) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let prev_quick = extract_bool(&text, "quick").unwrap_or(false);
    let prev_speedup = extract_number(&text, "dense_pipeline", "speedup")
        .ok_or("baseline JSON lacks dense_pipeline.speedup")?;
    let cur = &current.dense_pipeline;
    // Across modes the scenario sizes differ (quick mode runs a thinner
    // crowd, where the measured speedup is structurally lower and shared
    // CI runners add noise), so only a conservative collapse floor is
    // gated: losing the grid/decomposition paths drops the ratio to ~1x,
    // well below 1.4. Same-mode runs gate against the recorded ratio.
    let speedup_floor = if prev_quick == current.quick {
        0.8 * prev_speedup
    } else {
        1.4
    };
    if cur.speedup < speedup_floor {
        return Err(format!(
            "dense speedup regressed: {:.2}x now vs floor {:.2}x (baseline recorded {:.2}x)",
            cur.speedup, speedup_floor, prev_speedup
        ));
    }
    if prev_quick == current.quick {
        // `dense_pipeline` is serialized first, so the file's first
        // "optimized" object is the dense scenario's.
        let prev_opt_fps = extract_number(&text, "optimized", "frames_per_s");
        if let Some(prev_opt_fps) = prev_opt_fps {
            if cur.optimized.frames_per_s < 0.8 * prev_opt_fps {
                return Err(format!(
                    "dense optimized frames/s regressed: {:.1} now vs {:.1} in baseline (>20% drop)",
                    cur.optimized.frames_per_s, prev_opt_fps
                ));
            }
        }
    } else {
        println!(
            "[check] baseline mode (quick={prev_quick}) differs from current (quick={}); \
             gating on speedup ratio only",
            current.quick
        );
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR4.json".to_string());

    let scale = SnapshotScale::from_env();
    let quick = std::env::var_os("CATDET_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty());
    println!(
        "perf_snapshot ({} mode)",
        if quick { "quick" } else { "full" }
    );

    let dense = dense_crowd(scale.dense.0, scale.dense.1, scale.dense.2);
    let kitti = kitti_dataset(scale);
    let citypersons = citypersons_dataset(scale);

    let snapshot = Snapshot {
        schema: "catdet-perf-snapshot/v1".to_string(),
        quick,
        dense_pipeline: pipeline_scenario("dense_pipeline", &dense),
        kitti_pipeline: pipeline_scenario("kitti_pipeline", &kitti),
        citypersons_pipeline: pipeline_scenario("citypersons_pipeline", &citypersons),
        serve_fleet: serve_scenario(scale),
    };

    match serde_json::to_string_pretty(&snapshot) {
        Ok(json) => {
            std::fs::write(&out_path, json + "\n").expect("write snapshot");
            println!("[saved {out_path}]");
        }
        Err(e) => {
            eprintln!("error: cannot serialize snapshot: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = check_path {
        match check_against(&path, &snapshot) {
            Ok(()) => println!("[check] OK — no regression vs {path}"),
            Err(msg) => {
                eprintln!("[check] FAIL — {msg}");
                std::process::exit(1);
            }
        }
    }
}
