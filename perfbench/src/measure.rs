//! Measurement: timed serving calls, correctness checks, and the
//! end-to-end and per-layer metrics computed from them.

use crate::alloc::{self, Layer, LAYERS};
use crate::trace::{now_ns, union_ns, Collected, SpanSink, TracingFactory};
use crate::workload::Workload;
use catdet_core::{PolicyKind, SystemConfig, SystemFactory};
use catdet_data::Difficulty;
use catdet_metrics::Evaluator;
use catdet_net::{run_ingest, IngestOutcome};
use catdet_recorder::StoreStats;
use catdet_serve::{
    serve_fleet, serve_fleet_with_recorder, serve_net_fleet_with_recorder, FleetReport, IngestKind,
    RecorderConfig, StreamSpec,
};
use catdet_track::{TrackDetection, Tracker, TrackerConfig};
use std::sync::Arc;

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Copies `specs` (inputs are consumed by every serving call), giving
/// each stream the factory `factory_for` picks.
pub fn copy_specs(
    specs: &[StreamSpec],
    factory_for: impl Fn(&StreamSpec) -> Arc<dyn SystemFactory>,
) -> Vec<StreamSpec> {
    specs
        .iter()
        .map(|s| StreamSpec {
            source: s.source.clone(),
            factory: factory_for(s),
            priority: s.priority,
            policy: s.policy,
        })
        .collect()
}

/// The specs unchanged.
pub fn plain_specs(specs: &[StreamSpec]) -> Vec<StreamSpec> {
    copy_specs(specs, |s| Arc::clone(&s.factory))
}

/// The specs with every pipeline wrapped in a stage tracer feeding `sink`.
pub fn traced_specs(specs: &[StreamSpec], sink: &Arc<SpanSink>) -> Vec<StreamSpec> {
    copy_specs(specs, |s| {
        Arc::new(TracingFactory::new(
            Arc::clone(&s.factory),
            s.source.stream_id,
            Arc::clone(sink),
        ))
    })
}

/// One timed serving call.
pub struct ServeRun {
    /// What the serving layer reported.
    pub report: FleetReport,
    /// Call start and end on the [`now_ns`] clock.
    pub start_ns: u64,
    /// See [`start_ns`](ServeRun::start_ns).
    pub end_ns: u64,
    /// Allocations made during the call, per layer tag.
    pub allocs: [u64; LAYERS],
    /// Peak live heap during the call, above the live heap at its start.
    pub peak_bytes: usize,
    /// The flight recorder's store after the call, when recording.
    pub store: Option<StoreStats>,
}

impl ServeRun {
    /// Wall nanoseconds of the call.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Runs the workload's serving entry point once on `specs` and times it.
/// Only the call is timed: the recorder store is built before it.
pub fn serve_once(w: &Workload, specs: Vec<StreamSpec>) -> ServeRun {
    let recorder = w.cfg.recorder.enabled.then(|| w.cfg.recorder.build());
    let before = alloc::allocs();
    let base = alloc::reset_peak();
    let start_ns = now_ns();
    let report = match (w.cfg.ingest.kind, &recorder) {
        (IngestKind::Net, Some(rec)) => serve_net_fleet_with_recorder(specs, &w.cfg, w.seed, rec),
        (IngestKind::Net, None) => catdet_serve::serve_net_fleet(specs, &w.cfg, w.seed),
        (IngestKind::Direct, Some(rec)) => serve_fleet_with_recorder(specs, &w.cfg, rec),
        (IngestKind::Direct, None) => serve_fleet(specs, &w.cfg),
    };
    let end_ns = now_ns();
    let peak_bytes = alloc::peak().saturating_sub(base);
    let after = alloc::allocs();
    ServeRun {
        report,
        start_ns,
        end_ns,
        allocs: std::array::from_fn(|i| after[i] - before[i]),
        peak_bytes,
        store: recorder.map(|r| r.stats()),
    }
}

/// Virtual-time and modelled figures of one report: a pure function of
/// the workload seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    /// Frames the cameras offered.
    pub offered: usize,
    /// Frames output (detected + coasted + skipped).
    pub output: usize,
    /// Frames lost on the way: backpressure, admission, door, wire.
    pub lost: usize,
    /// Of those, frames lost on the wire (offered − delivered − door).
    pub wire_lost: usize,
    /// Latency samples behind the percentiles.
    pub latency_samples: usize,
    /// Merged p50 latency, seconds.
    pub p50_s: f64,
    /// Merged p99 latency, seconds.
    pub p99_s: f64,
    /// Fleet virtual makespan, seconds.
    pub makespan_s: f64,
    /// Modelled MACs over every output frame.
    pub total_macs: f64,
    /// Provisioned worker-seconds.
    pub worker_seconds: f64,
    /// Modelled GPU dispatch seconds, shard plus cross-shard fused.
    pub gpu_dispatch_s: f64,
    /// Mean AP (Hard) over every offered frame.
    pub map: f64,
    /// Paper mD@0.8 in frames over the same frames.
    pub mean_delay_frames: f64,
}

/// Checks frame conservation and the ingest accounting of `report`, then
/// scores its outputs against ground truth over every offered frame (a
/// lost frame scores as empty output).
pub fn check_and_score(w: &Workload, report: &FleetReport) -> Result<Virtual, String> {
    let offered = w.frames_offered();
    let output = report.frames_processed();
    let dropped = report.frames_dropped();
    if report.frames_arrived() != output + dropped {
        return Err(format!(
            "serving conservation: {} arrived != {output} output + {dropped} dropped",
            report.frames_arrived()
        ));
    }
    for s in report.streams() {
        if s.arrived != s.processed + s.dropped || s.outputs.len() != s.processed {
            return Err(format!("stream {} does not conserve frames", s.stream_id));
        }
    }
    // Frames lost at the front door and on the wire are measured from
    // outside: offered minus delivered minus door rejections. The ingest
    // report's own `lost` counter is not used, because it also counts a
    // corrupted-looking record that the decoder later recovers and
    // delivers (see "Known library issues" in the benchmark README).
    let (door, wire) = match (&report.ingest, w.cfg.ingest.kind) {
        (Some(ingest), IngestKind::Net) => {
            let delivered = ingest.delivered();
            let door = ingest.rejected_at_door();
            if ingest.offered() != offered
                || delivered != report.frames_arrived()
                || delivered + door > offered
            {
                return Err(format!(
                    "ingest accounting: offered {} (cameras {offered}), delivered {delivered} \
                     (arrived {}), {door} rejected at the door",
                    ingest.offered(),
                    report.frames_arrived()
                ));
            }
            (door, offered - delivered - door)
        }
        (None, IngestKind::Direct) => (0, 0),
        _ => return Err("ingest report does not match the ingest kind".into()),
    };
    let lost = dropped + door + wire;
    if offered != output + lost {
        return Err(format!(
            "frame conservation: {offered} offered != {output} output + {lost} lost"
        ));
    }
    let latency = report
        .merged_latency()
        .ok_or("no frame completed, so there is no latency")?;
    let latency_samples: usize = report
        .streams()
        .iter()
        .map(|s| s.latency_samples.len())
        .sum();

    let mut eval = Evaluator::new(w.classes.clone(), Difficulty::Hard);
    let streams = report.streams();
    for spec in &w.specs {
        let id = spec.source.stream_id;
        let stream = streams
            .iter()
            .find(|s| s.stream_id == id)
            .ok_or_else(|| format!("stream {id} missing from the report"))?;
        let mut by_index = vec![None; spec.source.len()];
        for (index, dets) in &stream.outputs {
            let slot = by_index
                .get_mut(*index)
                .ok_or_else(|| format!("stream {id} output for unknown frame {index}"))?;
            *slot = Some(dets.as_slice());
        }
        for sf in spec.source.frames() {
            let f = &sf.frame;
            let dets = by_index.get(f.index).copied().flatten().unwrap_or(&[]);
            eval.add_frame(f.sequence_id, f.index, &f.ground_truth, dets, f.labeled);
        }
    }
    let delay = eval
        .mean_delay_at_precision(0.8)
        .ok_or("mean precision never reaches 0.8, so mD@0.8 is undefined")?;
    let total_macs = report
        .shards
        .iter()
        .map(|s| s.total_ops.total())
        .sum::<f64>();
    Ok(Virtual {
        offered,
        output,
        lost,
        wire_lost: wire,
        latency_samples,
        p50_s: latency.p50_s,
        p99_s: latency.p99_s,
        makespan_s: report.makespan_s(),
        total_macs,
        worker_seconds: report.worker_seconds(),
        gpu_dispatch_s: report.gpu_dispatch_s(),
        map: eval.map(),
        mean_delay_frames: delay.mean,
    })
}

/// Per-layer figures from one traced serving call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TracedSample {
    /// Wall nanoseconds of the traced call.
    pub wall_ns: f64,
    /// Calls and summed span nanoseconds per layer tag.
    pub calls: [f64; LAYERS],
    /// See [`calls`](TracedSample::calls).
    pub busy_ns: [f64; LAYERS],
    /// Allocations per layer tag during the call.
    pub allocs: [f64; LAYERS],
    /// Wall time covered by at least one stage span.
    pub union_ns: f64,
    /// Regions handed to refinement, summed.
    pub refinement_regions: f64,
    /// Refinement coverage, summed.
    pub refinement_coverage: f64,
}

/// Runs one traced serving call and checks it reported exactly what the
/// untraced reference reported.
pub fn traced_once(w: &Workload, reference: &FleetReport) -> Result<TracedSample, String> {
    let sink = Arc::new(SpanSink::default());
    let run = serve_once(w, traced_specs(&w.specs, &sink));
    if &run.report != reference {
        return Err("the traced run's report differs from the untraced one".into());
    }
    let Collected {
        spans,
        refinement_regions,
        refinement_coverage,
    } = sink.take();
    let mut s = TracedSample {
        wall_ns: run.wall_ns() as f64,
        allocs: run.allocs.map(|a| a as f64),
        union_ns: union_ns(&spans, run.start_ns, run.end_ns) as f64,
        refinement_regions: refinement_regions as f64,
        refinement_coverage,
        ..TracedSample::default()
    };
    for span in &spans {
        s.calls[span.layer as usize] += 1.0;
        s.busy_ns[span.layer as usize] += (span.end_ns - span.start_ns) as f64;
    }
    // The wrapper sees one `begin_frame` per detected frame and one
    // `coast_frame` per coasted one; anything else means it is not
    // transparent.
    let detected = reference.frames_detected() as f64;
    let coasted = reference.frames_coasted() as f64;
    if s.calls[Layer::Begin as usize] != detected || s.calls[Layer::Coast as usize] != coasted {
        return Err(format!(
            "wrapper saw {} detects / {} coasts, report says {detected} / {coasted}",
            s.calls[Layer::Begin as usize],
            s.calls[Layer::Coast as usize]
        ));
    }
    Ok(s)
}

/// Replays the workload's emitted detections (score ≥ `t_thresh`) into a
/// fresh tracker per stream, configured as `CaTDetSystem` configures it,
/// and times `update`. Returns `(ns per frame, mean live tracks)`, or
/// `None` when a frame policy makes emitted detections partly tracker
/// output (the replay would not be the tracker's own input).
pub fn track_replay(w: &Workload, report: &FleetReport) -> Option<(f64, f64)> {
    if w.cfg.policy.kind != PolicyKind::AlwaysDetect {
        return None;
    }
    let t_thresh = SystemConfig::paper().t_thresh;
    let inputs: Vec<Vec<Vec<TrackDetection<_>>>> = report
        .streams()
        .iter()
        .map(|s| {
            s.outputs
                .iter()
                .map(|(_, dets)| {
                    dets.iter()
                        .filter(|d| d.score >= t_thresh)
                        .map(|d| TrackDetection {
                            bbox: d.bbox,
                            score: d.score,
                            class: d.class,
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let frames: usize = inputs.iter().map(Vec::len).sum();
    if frames == 0 {
        return None;
    }
    let mut live = 0usize;
    let start = now_ns();
    for stream in &inputs {
        let mut tracker = Tracker::new(TrackerConfig::paper().with_input_threshold(t_thresh));
        for dets in stream {
            tracker.update(dets);
            live += tracker.tracks().len();
        }
        std::hint::black_box(&tracker);
    }
    let ns = (now_ns() - start) as f64;
    Some((ns / frames as f64, live as f64 / frames as f64))
}

/// Times the front-door pre-pass directly on the workload's sources with
/// the parameters the serving call uses. Returns the outcome and its wall
/// nanoseconds.
pub fn timed_ingest(w: &Workload) -> (IngestOutcome, f64) {
    let sources: Vec<_> = w.specs.iter().map(|s| s.source.clone()).collect();
    let params = w.cfg.ingest.net_params(w.seed, w.cfg.queue_capacity);
    let start = now_ns();
    let outcome = run_ingest(&sources, &params);
    (outcome, (now_ns() - start) as f64)
}

/// One recorded and one unrecorded serving call on the delivered specs,
/// in the given order. Returns recorded minus unrecorded wall
/// nanoseconds, after checking both reports equal `reference` with its
/// ingest block removed.
pub fn recorder_pair(
    w: &Workload,
    delivered: &[StreamSpec],
    reference: &FleetReport,
    recorded_first: bool,
) -> Result<f64, String> {
    let off = w.cfg.with_recorder(RecorderConfig::off());
    let mut expect = reference.clone();
    expect.ingest = None;
    let (mut rec_ns, mut null_ns) = (0.0, 0.0);
    for recorded in [recorded_first, !recorded_first] {
        let specs = plain_specs(delivered);
        let store = recorded.then(|| w.cfg.recorder.build());
        let start = now_ns();
        let report = match &store {
            Some(store) => serve_fleet_with_recorder(specs, &w.cfg, store),
            None => serve_fleet(specs, &off),
        };
        let ns = (now_ns() - start) as f64;
        if recorded {
            rec_ns = ns;
        } else {
            null_ns = ns;
        }
        if report != expect {
            return Err("serving the delivered streams diverged from the net run".into());
        }
    }
    Ok(rec_ns - null_ns)
}

/// The delivered streams of an ingest outcome, with their original
/// factories, priorities and policies.
pub fn delivered_specs(w: &Workload, outcome: &IngestOutcome) -> Vec<StreamSpec> {
    w.specs
        .iter()
        .zip(&outcome.delivered)
        .map(|(s, d)| StreamSpec {
            source: d.clone(),
            factory: Arc::clone(&s.factory),
            priority: s.priority,
            policy: s.policy,
        })
        .collect()
}
