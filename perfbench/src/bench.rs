//! One benchmark run: set up a workload from its seed, measure it for a
//! fixed wall budget, check its outputs, and compute its metrics.

use crate::alloc::Layer;
use crate::measure::{
    check_and_score, delivered_specs, median, plain_specs, recorder_pair, serve_once, timed_ingest,
    traced_once, track_replay, TracedSample, Virtual,
};
use crate::trace::now_ns;
use crate::workload::{Kind, Shape, Workload};
use catdet_recorder::StoreStats;
use catdet_serve::{FleetReport, IngestKind};

/// Workload generations per run: at least `SETUP_MIN_REPS`, and more,
/// up to `SETUP_MAX_REPS`, until `SETUP_BUDGET_S` is spent; `setup_s` is
/// their median.
const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
const SETUP_MAX_REPS: usize = 15;
/// See [`SETUP_MIN_REPS`].
const SETUP_BUDGET_S: f64 = 1.0;
/// Fewest measured serving calls (or traced/untraced pairs) per run,
/// whatever the wall budget.
const MIN_REPS: usize = 3;
/// Wall budget for the recorder pairs of a per-layer run (the ingest
/// repetitions get a quarter of it); short workloads repeat more.
const DIRECT_BUDGET_NS: u64 = 2_000_000_000;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Which workload.
    pub kind: Kind,
    /// Its size.
    pub shape: Shape,
    /// The workload seed.
    pub seed: u64,
    /// Wall budget for the measured calls.
    pub seconds: f64,
    /// Per-layer (traced) metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fewest latency samples the workload must yield.
    pub min_latency_samples: usize,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Serving calls made.
    pub attempted: u64,
    /// Serving calls whose report differed from the reference call's.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Context lines for the human-readable printout.
    pub notes: Vec<String>,
    /// The traced wall split by layer (per-layer runs only).
    pub table: Option<LayerTable>,
}

/// A traced call's wall time split by layer, in nanoseconds per output
/// frame. The parts add up to the traced wall by construction: serve self
/// time is what the stage spans, the ingest pre-pass and the recorder do
/// not cover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTable {
    /// Wall time covered by at least one stage span (union across
    /// threads).
    pub stage: f64,
    /// Scheduler, fleet barrier and engine handoffs: everything else.
    pub serve_self: f64,
    /// The front-door pre-pass, timed directly.
    pub ingest: f64,
    /// Recording, as recorded minus unrecorded serving.
    pub recorder: f64,
    /// Median traced wall.
    pub traced_wall: f64,
    /// Median untraced wall of the interleaved pairs.
    pub untraced_wall: f64,
}

impl LayerTable {
    fn new(traced_wall: f64, untraced_wall: f64, stage: f64, ingest: f64, recorder: f64) -> Self {
        Self {
            stage,
            serve_self: traced_wall - stage - ingest - recorder,
            ingest,
            recorder,
            traced_wall,
            untraced_wall,
        }
    }

    /// Sum of the layer parts.
    pub fn sum(&self) -> f64 {
        self.stage + self.serve_self + self.ingest + self.recorder
    }
}

impl Outcome {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Per-layer timings measured by calling layer functions directly.
#[derive(Debug, Clone, Copy, Default)]
struct Direct {
    track: Option<(f64, f64)>,
    ingest_ns: f64,
    recorder_ns: f64,
}

/// Runs the benchmark as `spec` asks.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut generated = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(generated.take());
        let start = now_ns();
        generated = Some(Workload::generate(spec.kind, spec.shape, spec.seed));
        setup_s.push((now_ns() - start) as f64 * 1e-9);
    }
    let w = generated.expect("at least one setup");

    // The first call warms caches and lazy set-up; it is the reference
    // every later call must reproduce, and is not timed into any metric.
    let first = serve_once(&w, plain_specs(&w.specs));
    let reference = first.report;
    let virt = check_and_score(&w, &reference)?;
    if virt.latency_samples < spec.min_latency_samples {
        return Err(format!(
            "{} latency samples, fewer than the {} the p99 needs",
            virt.latency_samples, spec.min_latency_samples
        ));
    }
    if let Some(ingest) = &reference.ingest {
        if ingest.lost() != virt.wire_lost {
            eprintln!(
                "note: the ingest report counts {} frames lost in flight; {} were not delivered",
                ingest.lost(),
                virt.wire_lost
            );
        }
    }
    let mut notes = vec![
        format!(
            "workload {} seed {} | {} cameras x {} frames at {} fps | host_cpus {}",
            spec.kind.name(),
            spec.seed,
            spec.shape.cameras,
            spec.shape.frames,
            spec.shape.fps,
            host_cpus()
        ),
        format!(
            "frames: {} offered, {} output, {} lost | {} latency samples | makespan {:.3} virtual s",
            virt.offered, virt.output, virt.lost, virt.latency_samples, virt.makespan_s
        ),
    ];
    let deadline = now_ns() + (spec.seconds * 1e9) as u64;
    let mut outcome = if spec.trace {
        let store = first.store.unwrap_or_default();
        per_layer(&w, &reference, &virt, store, deadline)?
    } else {
        end_to_end(&w, &reference, &virt, median(&setup_s), deadline)
    };
    notes.append(&mut outcome.notes);
    outcome.notes = notes;
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }
    Ok(outcome)
}

/// `std::thread::available_parallelism`, for the record.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn end_to_end(
    w: &Workload,
    reference: &FleetReport,
    virt: &Virtual,
    setup_s: f64,
    deadline: u64,
) -> Outcome {
    let (mut walls, mut allocs, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (1, 0);
    while walls.len() < MIN_REPS || now_ns() < deadline {
        let run = serve_once(w, plain_specs(&w.specs));
        attempted += 1;
        if &run.report != reference {
            failed += 1;
        }
        walls.push(run.wall_ns() as f64 * 1e-9);
        allocs.push(run.allocs.iter().sum::<u64>() as f64);
        peaks.push(run.peak_bytes as f64);
    }
    let wall_s = median(&walls);
    let frames = virt.output as f64;
    Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("wall_fps", "frames/s", frames / wall_s),
            metric("realtime_factor", "x", virt.makespan_s / wall_s),
            metric("setup_s", "s", setup_s),
            metric("allocs_per_frame", "count", median(&allocs) / frames),
            metric("peak_heap_mb", "MiB", median(&peaks) / (1u64 << 20) as f64),
            metric("latency_p50_ms", "ms", virt.p50_s * 1e3),
            metric("latency_p99_ms", "ms", virt.p99_s * 1e3),
            metric(
                "frame_delivery_rate",
                "ratio",
                virt.output as f64 / virt.offered as f64,
            ),
            metric("gmacs_per_frame", "GMAC", virt.total_macs / frames / 1e9),
            metric("worker_seconds", "s", virt.worker_seconds),
            metric(
                "gpu_dispatch_ms_per_frame",
                "ms",
                virt.gpu_dispatch_s * 1e3 / frames,
            ),
            metric("map", "ratio", virt.map),
            metric("mean_delay_frames", "frames", virt.mean_delay_frames),
        ],
        notes: Vec::new(),
        table: None,
    }
}

/// Direct layer timings that need no wrapper: tracker replay, ingest
/// pre-pass, recorder A/B.
fn direct_layers(w: &Workload, reference: &FleetReport) -> Result<Direct, String> {
    let mut direct = Direct::default();
    let tracks: Vec<(f64, f64)> = (0..MIN_REPS)
        .filter_map(|_| track_replay(w, reference))
        .collect();
    if !tracks.is_empty() {
        let ns: Vec<f64> = tracks.iter().map(|t| t.0).collect();
        direct.track = Some((median(&ns), tracks[0].1));
    }
    if w.cfg.ingest.kind == IngestKind::Net {
        let mut ingest_ns = Vec::new();
        let mut outcome = None;
        let start = now_ns();
        while ingest_ns.len() < MIN_REPS + 2 || now_ns() - start < DIRECT_BUDGET_NS / 4 {
            let (o, ns) = timed_ingest(w);
            if Some(&o.report) != reference.ingest.as_ref() {
                return Err("replayed ingest report differs from the fleet's".into());
            }
            ingest_ns.push(ns);
            outcome = Some(o);
        }
        direct.ingest_ns = median(&ingest_ns);
        if w.cfg.recorder.enabled {
            let delivered = delivered_specs(w, &outcome.expect("ingest ran"));
            let mut diffs = Vec::new();
            let start = now_ns();
            while diffs.len() < MIN_REPS + 1 || now_ns() - start < DIRECT_BUDGET_NS {
                let recorded_first = diffs.len() % 2 == 0;
                diffs.push(recorder_pair(w, &delivered, reference, recorded_first)?);
            }
            direct.recorder_ns = median(&diffs);
        }
    }
    Ok(direct)
}

fn per_layer(
    w: &Workload,
    reference: &FleetReport,
    virt: &Virtual,
    store: StoreStats,
    deadline: u64,
) -> Result<Outcome, String> {
    let direct = direct_layers(w, reference)?;

    // Interleaved untraced/traced pairs: the traced calls give the layer
    // split, the ratio of the two medians gives the tracing overhead.
    let mut samples: Vec<TracedSample> = Vec::new();
    let mut untraced_ns = Vec::new();
    let (mut attempted, mut failed) = (1, 0);
    while samples.len() < MIN_REPS || now_ns() < deadline {
        let traced_first = samples.len() % 2 == 1;
        let mut pair = (0.0, None);
        for traced in [traced_first, !traced_first] {
            attempted += 1;
            if traced {
                pair.1 = Some(traced_once(w, reference)?);
            } else {
                let run = serve_once(w, plain_specs(&w.specs));
                if &run.report != reference {
                    failed += 1;
                }
                pair.0 = run.wall_ns() as f64;
            }
        }
        let s = pair.1.expect("traced half ran");
        untraced_ns.push(pair.0);
        samples.push(s);
    }
    let med = |f: &dyn Fn(&TracedSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let per_call = |layer: Layer, of: &dyn Fn(&TracedSample) -> f64| {
        med(&|s| {
            let calls = s.calls[layer as usize];
            if calls > 0.0 {
                of(s) / calls
            } else {
                0.0
            }
        })
    };
    let frames = virt.output as f64;
    let (p, r, c) = (Layer::Proposal, Layer::Refinement, Layer::Coast);
    let stage_busy = |s: &TracedSample| s.busy_ns.iter().sum::<f64>();
    let table = LayerTable::new(
        med(&|s| s.wall_ns) / frames,
        median(&untraced_ns) / frames,
        med(&|s| s.union_ns) / frames,
        direct.ingest_ns / frames,
        direct.recorder_ns / frames,
    );
    let batch = reference.merged_batch();
    let ingest = reference.ingest.as_ref();
    let ingest_count =
        |f: &dyn Fn(&catdet_serve::IngestReport) -> usize| ingest.map_or(0.0, |i| f(i) as f64);
    let events = (store.events + store.events_evicted) as f64;
    let (track_ns, live_tracks) = direct.track.unwrap_or((0.0, 0.0));

    let metrics = vec![
        metric(
            "core.proposal_ns_per_call",
            "ns",
            per_call(p, &|s| s.busy_ns[p as usize]),
        ),
        metric(
            "core.proposal_allocs_per_call",
            "count",
            per_call(p, &|s| s.allocs[p as usize]),
        ),
        metric(
            "core.proposal_calls",
            "count",
            med(&|s| s.calls[p as usize]),
        ),
        metric(
            "core.refinement_ns_per_call",
            "ns",
            per_call(r, &|s| s.busy_ns[r as usize]),
        ),
        metric(
            "core.refinement_allocs_per_call",
            "count",
            per_call(r, &|s| s.allocs[r as usize]),
        ),
        metric(
            "core.refinement_calls",
            "count",
            med(&|s| s.calls[r as usize]),
        ),
        metric(
            "core.refinement_regions_per_call",
            "count",
            per_call(r, &|s| s.refinement_regions),
        ),
        metric(
            "core.refinement_coverage",
            "ratio",
            per_call(r, &|s| s.refinement_coverage),
        ),
        metric(
            "core.coast_ns_per_call",
            "ns",
            per_call(c, &|s| s.busy_ns[c as usize]),
        ),
        metric("core.coast_calls", "count", med(&|s| s.calls[c as usize])),
        metric(
            "core.policy_detect_ratio",
            "ratio",
            reference.frames_detected() as f64 / frames,
        ),
        metric(
            "core.policy_coast_ratio",
            "ratio",
            reference.frames_coasted() as f64 / frames,
        ),
        metric("track.update_ns_per_frame", "ns", track_ns),
        metric("track.live_tracks_mean", "count", live_tracks),
        metric(
            "serve.stage_busy_ns_per_frame",
            "ns",
            med(&|s| stage_busy(s)) / frames,
        ),
        metric("serve.stage_union_ns_per_frame", "ns", table.stage),
        metric("serve.self_ns_per_frame", "ns", table.serve_self),
        metric(
            "serve.stage_parallelism",
            "ratio",
            med(&|s| stage_busy(s) / s.wall_ns),
        ),
        metric(
            "serve.allocs_per_frame_outside_stages",
            "count",
            med(&|s| s.allocs[Layer::Serve as usize]) / frames,
        ),
        metric("serve.mean_batch", "count", batch.mean_batch()),
        metric(
            "serve.mean_refine_batch",
            "count",
            batch.mean_refine_batch(),
        ),
        metric(
            "serve.refinement_launches_saved",
            "count",
            batch.refinement_launches_saved as f64,
        ),
        metric(
            "serve.fused_dispatches",
            "count",
            reference.fused_refinements.len() as f64,
        ),
        metric(
            "serve.migrations",
            "count",
            reference.migrations.len() as f64,
        ),
        metric(
            "serve.scale_events",
            "count",
            reference.scale_timeline().len() as f64,
        ),
        metric(
            "serve.mean_workers",
            "count",
            virt.worker_seconds / virt.makespan_s,
        ),
        metric(
            "net.ingest_ns_per_frame",
            "ns",
            direct.ingest_ns / virt.offered as f64,
        ),
        metric(
            "net.delivered_ratio",
            "ratio",
            ingest.map_or(0.0, |i| i.delivered() as f64 / i.offered() as f64),
        ),
        metric("net.lost", "count", virt.wire_lost as f64),
        metric(
            "net.door_rejected",
            "count",
            ingest_count(&|i| i.rejected_at_door()),
        ),
        metric(
            "net.disconnects",
            "count",
            ingest_count(&|i| i.disconnects()),
        ),
        metric("net.throttles", "count", ingest_count(&|i| i.throttles())),
        metric("recorder.ns_per_frame", "ns", direct.recorder_ns / frames),
        metric("recorder.events_per_frame", "count", events / frames),
        metric(
            "recorder.bytes_per_event",
            "bytes",
            if store.events > 0 {
                store.encoded_bytes as f64 / store.events as f64
            } else {
                0.0
            },
        ),
        metric(
            "recorder.chunks_sealed",
            "count",
            (store.sealed_chunks + store.chunks_evicted) as f64,
        ),
        metric(
            "recorder.chunks_evicted",
            "count",
            store.chunks_evicted as f64,
        ),
        metric(
            "trace.overhead_pct",
            "%",
            (table.traced_wall / table.untraced_wall - 1.0) * 100.0,
        ),
    ];
    let note = format!(
        "layer table, ns/frame: stage wall {:.0} + serve self {:.0} + ingest {:.0} + recorder {:.0} \
         = traced wall {:.0} (untraced {:.0}; {} traced/untraced pairs)",
        table.stage,
        table.serve_self,
        table.ingest,
        table.recorder,
        table.traced_wall,
        table.untraced_wall,
        samples.len(),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes: vec![note],
        table: Some(table),
    })
}
