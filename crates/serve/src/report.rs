//! Serving reports: per-stream latency percentiles, aggregate throughput,
//! and the control-plane timelines (scale and admission events).

use crate::admission::{AdmissionEvent, DowngradeEvent};
use crate::autoscale::ScaleEvent;
use catdet_core::OpsBreakdown;
use catdet_metrics::Detection;
use std::fmt::Write as _;

/// Latency distribution of one stream, in modelled (virtual) seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Mean latency.
    pub mean_s: f64,
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Worst observed.
    pub max_s: f64,
}

impl LatencyStats {
    /// Nearest-rank percentiles pooled over several sample sets — the
    /// only correct way to aggregate latency distributions across streams
    /// or shards. Percentiles are **not** mergeable from percentiles:
    /// averaging two p99s can sit arbitrarily far from the pooled p99
    /// (consider one idle stream at 1 ms and one overloaded at 1 s), which
    /// is why [`StreamReport`] exposes its raw
    /// [`latency_samples`](StreamReport::latency_samples) and the fleet
    /// report merges through this function; a property test pins it to the
    /// naive concatenate-then-rank reference.
    ///
    /// Returns `None` when the pooled set is empty (e.g. every shard
    /// served zero frames) — like the per-stream stats, an absent
    /// distribution is not a 0-valued one.
    pub fn merged<'a>(sample_sets: impl IntoIterator<Item = &'a [f64]>) -> Option<Self> {
        let pooled: Vec<f64> = sample_sets
            .into_iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        Self::from_samples(&pooled)
    }

    /// Nearest-rank percentiles over a sample set, or `None` when it is
    /// empty. The rank math (`ceil(p·n)` clamped to `1..=n`) assumes a
    /// non-empty set; folding emptiness into all-zero stats used to let
    /// a zero-throughput stream masquerade as a zero-latency one.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pick = |p: f64| {
            let rank = (p * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Some(Self {
            mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_s: pick(0.50),
            p95_s: pick(0.95),
            p99_s: pick(0.99),
            max_s: *sorted.last().expect("non-empty"),
        })
    }
}

/// Micro-batching statistics of one run, split by pipeline stage:
/// proposal batches are formed by workers from queued frames, refinement
/// dispatches are the per-region (or full-frame) launches that resume
/// frames suspended at the refinement boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Dispatched proposal batches.
    pub batches: usize,
    /// Frames carried by those batches.
    pub batched_frames: usize,
    /// Largest proposal batch observed.
    pub max_batch_seen: usize,
    /// Proposal-network launches avoided by fusion: `Σ (batch_size − 1)`.
    pub proposal_launches_saved: usize,
    /// Priced refinement dispatches (singletons when
    /// [`fuse_refinement`](crate::ServeConfig::fuse_refinement) is off;
    /// shared cross-stream launches when it is on). Frames with no
    /// refinement work dispatch nothing and are not counted.
    pub refine_batches: usize,
    /// Frames whose refinement launch rode those dispatches.
    pub refined_frames: usize,
    /// Largest refinement dispatch observed.
    pub max_refine_batch_seen: usize,
    /// Refinement launches avoided by fusion: `Σ (dispatch_size − 1)`.
    pub refinement_launches_saved: usize,
}

impl BatchStats {
    /// Mean frames per proposal batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_frames as f64 / self.batches as f64
        }
    }

    /// Mean frames per refinement dispatch.
    pub fn mean_refine_batch(&self) -> f64 {
        if self.refine_batches == 0 {
            0.0
        } else {
            self.refined_frames as f64 / self.refine_batches as f64
        }
    }
}

/// Which pipeline stage a dispatched batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStage {
    /// A worker-formed micro-batch whose proposal launches were fused.
    Proposal,
    /// A priced refinement dispatch resuming frames suspended at the
    /// refinement boundary (cross-worker when refinement fusion is on).
    Refinement,
}

/// One dispatched batch: which streams shared a launch, when, at which
/// stage, on which worker. The full log makes batching invariants (one
/// frame per stream per batch, proposal sizes within `max_batch`)
/// directly assertable.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Virtual dispatch time.
    pub t_s: f64,
    /// Worker slot that ran the batch. A fused refinement dispatch can
    /// span batches held open by several workers; its record names the
    /// slot whose frame opened the dispatch.
    pub worker: usize,
    /// Pipeline stage the dispatch belongs to.
    pub stage: BatchStage,
    /// Contributing streams (fleet-wide ids, matching
    /// [`StreamReport::stream_id`]), in schedule order.
    pub streams: Vec<usize>,
}

/// Everything measured for one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Stream identity.
    pub stream_id: usize,
    /// Name of the detection system serving the stream.
    pub system_name: String,
    /// Frames that arrived from the camera.
    pub arrived: usize,
    /// Frames processed to completion.
    pub processed: usize,
    /// Frames shed before completion — queue backpressure plus admission
    /// rejections (`arrived == processed + dropped` always holds).
    pub dropped: usize,
    /// Of the dropped frames, how many were refused by admission control
    /// (always `<= dropped`).
    pub rejected: usize,
    /// Of the processed frames, how many the frame policy served by
    /// coasting the tracker instead of detecting (always `<= processed`).
    pub coasted: usize,
    /// Of the processed frames, how many the frame policy skipped by
    /// stride, completing with an empty output (always `<= processed`).
    pub skipped: usize,
    /// Mean per-frame ops actually spent. All-zero when `processed == 0`
    /// (a stream can legitimately complete nothing under overload) — gate
    /// on `processed` before reading this as a measurement.
    pub mean_ops: OpsBreakdown,
    /// Latency distribution (completion − arrival, virtual seconds), or
    /// `None` when the stream completed no frame (overload can
    /// legitimately shed everything; an absent distribution must not read
    /// as a measured zero latency).
    pub latency: Option<LatencyStats>,
    /// The raw latency samples behind [`latency`](StreamReport::latency),
    /// in completion order. Kept so higher-level aggregations (the sharded
    /// fleet's merged report) can compute pooled nearest-rank percentiles
    /// instead of incorrectly averaging precomputed ones — see
    /// [`LatencyStats::merged`].
    pub latency_samples: Vec<f64>,
    /// Per-frame detections `(frame_index, detections)` in processing
    /// order — the stream's system output, used for evaluation and for
    /// state-isolation checks.
    pub outputs: Vec<(usize, Vec<Detection>)>,
}

/// Aggregate result of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Virtual time from start until the last frame completed.
    pub makespan_s: f64,
    /// Total frames that arrived across streams.
    pub frames_arrived: usize,
    /// Total frames processed.
    pub frames_processed: usize,
    /// Total frames shed (backpressure + admission).
    pub frames_dropped: usize,
    /// Of the dropped frames, total refused by admission control.
    pub frames_rejected: usize,
    /// Of the processed frames, total served by coasting the tracker
    /// (track-only frames under a non-default frame policy).
    pub frames_coasted: usize,
    /// Of the processed frames, total skipped by policy stride.
    pub frames_skipped: usize,
    /// Aggregate modelled throughput: processed frames / makespan.
    pub throughput_fps: f64,
    /// Integral of the provisioned worker count over virtual time (the
    /// active set plus deactivated slots still draining a batch), in
    /// worker-seconds. Lets autoscaled and fixed runs be compared at
    /// equal spend — drain time after a scale-down is still paid for.
    pub worker_seconds: f64,
    /// Summed virtual time of every priced GPU dispatch (launch time
    /// `αW + b` plus the per-stage framework overhead), proposal and
    /// refinement alike. Fusing launches shrinks exactly this figure: a
    /// dispatch of `k` launches pays `b` + stage overhead once instead of
    /// `k` times.
    pub gpu_dispatch_s: f64,
    /// Summed ops across all processed frames.
    pub total_ops: OpsBreakdown,
    /// Micro-batching statistics.
    pub batch: BatchStats,
    /// Every dispatched micro-batch, in dispatch order.
    pub batch_log: Vec<BatchRecord>,
    /// Worker-count changes decided by the autoscaler, in time order
    /// (empty when autoscaling is off).
    pub scale_events: Vec<ScaleEvent>,
    /// Admission rejections, in time order (empty under admit-all).
    pub admission_events: Vec<AdmissionEvent>,
    /// Downgrade-before-drop transitions, in time order (empty unless
    /// [`AdmissionConfig::downgrade`](crate::AdmissionConfig::downgrade)
    /// is on).
    pub downgrade_events: Vec<DowngradeEvent>,
    /// Per-stream breakdowns, ordered by stream id.
    pub streams: Vec<StreamReport>,
}

impl ServeReport {
    /// Drop rate over arrived frames.
    pub fn drop_rate(&self) -> f64 {
        if self.frames_arrived == 0 {
            0.0
        } else {
            self.frames_dropped as f64 / self.frames_arrived as f64
        }
    }

    /// Worst per-stream p99 latency, or `None` when no stream completed a
    /// single frame. (Streams without completions carry no
    /// [`StreamReport::latency`] at all, so a negative-clock bug can no
    /// longer hide behind a `0.0` fold seed.)
    pub fn worst_p99_s(&self) -> Option<f64> {
        self.streams
            .iter()
            .filter_map(|s| s.latency.map(|l| l.p99_s))
            .reduce(f64::max)
    }

    /// Mean provisioned workers over the run (worker-seconds / makespan).
    pub fn mean_workers(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.worker_seconds / self.makespan_s
        } else {
            0.0
        }
    }

    /// Total frames the policy served with a full detection pass.
    pub fn frames_detected(&self) -> usize {
        self.frames_processed - self.frames_coasted - self.frames_skipped
    }

    /// Human-readable downgrade timeline, one line per transition (empty
    /// string when downgrade-before-drop never engaged).
    pub fn downgrade_timeline(&self) -> String {
        let mut out = String::new();
        for e in &self.downgrade_events {
            let _ = writeln!(
                out,
                "  t={:>8.3}s  stream {:>3} {}",
                e.t_s,
                e.stream,
                if e.on { "downgraded" } else { "restored" },
            );
        }
        out
    }

    /// Human-readable scale-event timeline, one line per event (empty
    /// string when autoscaling never acted).
    pub fn scale_timeline(&self) -> String {
        let mut out = String::new();
        for e in &self.scale_events {
            let _ = writeln!(
                out,
                "  t={:>8.3}s  {:>2} -> {:<2} ({})",
                e.t_s,
                e.from_workers,
                e.to_workers,
                e.reason.label()
            );
        }
        out
    }

    /// Human-readable multi-line summary (what the `catdet-serve` binary
    /// prints).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve: {} streams | {:.1} virtual s | {} processed / {} arrived ({} dropped, {:.1}%)",
            self.streams.len(),
            self.makespan_s,
            self.frames_processed,
            self.frames_arrived,
            self.frames_dropped,
            100.0 * self.drop_rate(),
        );
        let _ = writeln!(
            out,
            "throughput: {:.2} frames/s | mean ops/frame: {:.1} G | batches: {} (mean {:.2}, max {}, {} launches saved)",
            self.throughput_fps,
            self.total_ops.total() / self.frames_processed.max(1) as f64 / 1e9,
            self.batch.batches,
            self.batch.mean_batch(),
            self.batch.max_batch_seen,
            self.batch.proposal_launches_saved,
        );
        let _ = writeln!(
            out,
            "refinement: {} dispatches (mean {:.2}, max {}, {} launches saved) | gpu dispatch time: {:.3} s",
            self.batch.refine_batches,
            self.batch.mean_refine_batch(),
            self.batch.max_refine_batch_seen,
            self.batch.refinement_launches_saved,
            self.gpu_dispatch_s,
        );
        if !self.scale_events.is_empty() {
            let _ = writeln!(
                out,
                "autoscale: {} scale events | mean {:.2} workers | {:.1} worker-seconds",
                self.scale_events.len(),
                self.mean_workers(),
                self.worker_seconds,
            );
        }
        if self.frames_coasted + self.frames_skipped > 0 {
            let _ = writeln!(
                out,
                "policy: {} detected | {} coasted | {} stride-skipped",
                self.frames_detected(),
                self.frames_coasted,
                self.frames_skipped,
            );
        }
        if self.frames_rejected > 0 {
            let _ = writeln!(
                out,
                "admission: {} frames rejected ({} events recorded)",
                self.frames_rejected,
                self.admission_events.len(),
            );
        }
        if !self.downgrade_events.is_empty() {
            let _ = writeln!(
                out,
                "downgrade: {} transitions (downgrade-before-drop)",
                self.downgrade_events.len(),
            );
        }
        let _ = writeln!(
            out,
            "{:>6} {:>28} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "stream", "system", "proc", "drop", "p50 ms", "p95 ms", "p99 ms", "ops G"
        );
        for s in &self.streams {
            // Streams that completed nothing print 0.0 columns; the
            // structured report keeps them distinguishable (`latency` is
            // `None`, not zero-valued stats).
            let (p50, p95, p99) = s
                .latency
                .map_or((0.0, 0.0, 0.0), |l| (l.p50_s, l.p95_s, l.p99_s));
            let _ = writeln!(
                out,
                "{:>6} {:>28} {:>8} {:>8} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                s.stream_id,
                truncate(&s.system_name, 28),
                s.processed,
                s.dropped,
                p50 * 1e3,
                p95 * 1e3,
                p99 * 1e3,
                s.mean_ops.total() / 1e9,
            );
        }
        out
    }
}

/// Anything stamped with a virtual-time instant: the shared shape of the
/// control-plane and dispatch histories ([`ScaleEvent`], [`AdmissionEvent`],
/// [`BatchRecord`], [`MigrationEvent`](crate::MigrationEvent)). One generic
/// k-way merge ([`merge_timelines`]) interleaves per-shard timelines of any
/// such type, replacing a hand-rolled merge loop per event kind.
pub trait TimestampedEvent {
    /// The event's virtual-time stamp.
    fn t_s(&self) -> f64;
}

impl TimestampedEvent for ScaleEvent {
    fn t_s(&self) -> f64 {
        self.t_s
    }
}

impl TimestampedEvent for AdmissionEvent {
    fn t_s(&self) -> f64 {
        self.t_s
    }
}

impl TimestampedEvent for DowngradeEvent {
    fn t_s(&self) -> f64 {
        self.t_s
    }
}

impl TimestampedEvent for BatchRecord {
    fn t_s(&self) -> f64 {
        self.t_s
    }
}

impl TimestampedEvent for crate::shard::MigrationEvent {
    fn t_s(&self) -> f64 {
        self.t_s
    }
}

/// K-way merges per-shard event timelines — each lane already in time
/// order — into one `(shard, event)` timeline ordered by time, with ties
/// keeping shard order (and within a shard, lane order). This is the
/// single merge behind every [`FleetReport`](crate::FleetReport) timeline
/// accessor.
pub fn merge_timelines<E: TimestampedEvent + Clone>(lanes: &[&[E]]) -> Vec<(usize, E)> {
    let mut cursors = vec![0usize; lanes.len()];
    let total = lanes.iter().map(|l| l.len()).sum();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut best: Option<(f64, usize)> = None;
        for (k, lane) in lanes.iter().enumerate() {
            let Some(e) = lane.get(cursors[k]) else {
                continue;
            };
            let t = e.t_s();
            // Strict less keeps the lowest shard on time ties.
            if best.is_none_or(|(bt, _)| t.total_cmp(&bt).is_lt()) {
                best = Some((t, k));
            }
        }
        let (_, k) = best.expect("events remain");
        out.push((k, lanes[k][cursors[k]].clone()));
        cursors[k] += 1;
    }
    out
}

fn truncate(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_string()
    } else {
        let tail: String = s
            .chars()
            .rev()
            .take(width.saturating_sub(1))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        format!("…{tail}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let l = LatencyStats::from_samples(&samples).expect("non-empty");
        assert_eq!(l.p50_s, 50.0);
        assert_eq!(l.p95_s, 95.0);
        assert_eq!(l.p99_s, 99.0);
        assert_eq!(l.max_s, 100.0);
        assert!((l.mean_s - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let l = LatencyStats::from_samples(&[0.25]).expect("non-empty");
        assert_eq!(l.p50_s, 0.25);
        assert_eq!(l.p99_s, 0.25);
        assert_eq!(l.max_s, 0.25);
    }

    #[test]
    fn empty_samples_are_absent_not_zero() {
        assert_eq!(LatencyStats::from_samples(&[]), None);
        assert_eq!(LatencyStats::merged([]), None);
        assert_eq!(LatencyStats::merged([[].as_slice(), &[]]), None);
        // One empty lane must not perturb the pooled distribution.
        let merged = LatencyStats::merged([[].as_slice(), &[0.5]]).expect("one sample");
        assert_eq!(merged.p99_s, 0.5);
    }

    #[test]
    fn batch_stats_mean() {
        let b = BatchStats {
            batches: 4,
            batched_frames: 10,
            max_batch_seen: 4,
            proposal_launches_saved: 6,
            ..Default::default()
        };
        assert!((b.mean_batch() - 2.5).abs() < 1e-12);
        assert_eq!(BatchStats::default().mean_batch(), 0.0);
    }

    #[test]
    fn refine_batch_stats_mean() {
        let b = BatchStats {
            refine_batches: 3,
            refined_frames: 9,
            max_refine_batch_seen: 5,
            refinement_launches_saved: 6,
            ..Default::default()
        };
        assert!((b.mean_refine_batch() - 3.0).abs() < 1e-12);
        assert_eq!(BatchStats::default().mean_refine_batch(), 0.0);
    }

    #[test]
    fn summary_mentions_key_figures() {
        let report = ServeReport {
            makespan_s: 2.0,
            frames_arrived: 10,
            frames_processed: 8,
            frames_dropped: 2,
            frames_rejected: 1,
            frames_coasted: 3,
            frames_skipped: 1,
            throughput_fps: 4.0,
            worker_seconds: 8.0,
            gpu_dispatch_s: 1.25,
            total_ops: OpsBreakdown::default(),
            batch: BatchStats {
                refine_batches: 2,
                refined_frames: 6,
                max_refine_batch_seen: 4,
                refinement_launches_saved: 4,
                ..Default::default()
            },
            batch_log: vec![BatchRecord {
                t_s: 0.25,
                worker: 1,
                stage: BatchStage::Refinement,
                streams: vec![0, 2],
            }],
            scale_events: vec![ScaleEvent {
                t_s: 0.5,
                from_workers: 4,
                to_workers: 6,
                reason: crate::autoscale::ScaleReason::DropRate,
            }],
            admission_events: vec![],
            downgrade_events: vec![DowngradeEvent {
                t_s: 0.75,
                stream: 0,
                on: true,
            }],
            streams: vec![StreamReport {
                stream_id: 0,
                system_name: "test-system".into(),
                arrived: 10,
                processed: 8,
                dropped: 2,
                rejected: 1,
                coasted: 3,
                skipped: 1,
                mean_ops: OpsBreakdown::default(),
                latency: LatencyStats::from_samples(&[0.1, 0.2]),
                latency_samples: vec![0.1, 0.2],
                outputs: vec![],
            }],
        };
        let s = report.summary();
        assert!(s.contains("8 processed / 10 arrived"));
        assert!(s.contains("test-system"));
        assert!(s.contains("autoscale: 1 scale events"));
        assert!(s.contains("admission: 1 frames rejected"));
        assert!(s.contains("policy: 4 detected | 3 coasted | 1 stride-skipped"));
        assert!(s.contains("downgrade: 1 transitions"));
        assert_eq!(report.frames_detected(), 4);
        let dg = report.downgrade_timeline();
        assert!(dg.contains("stream   0 downgraded"));
        assert!(s.contains("refinement: 2 dispatches (mean 3.00, max 4, 4 launches saved)"));
        assert!(s.contains("gpu dispatch time: 1.250 s"));
        assert!((report.batch.mean_refine_batch() - 3.0).abs() < 1e-12);
        assert!((report.drop_rate() - 0.2).abs() < 1e-12);
        assert!((report.mean_workers() - 4.0).abs() < 1e-12);
        let timeline = report.scale_timeline();
        assert!(timeline.contains("4 -> 6"));
        assert!(timeline.contains("(drop-rate)"));
    }

    #[test]
    fn merge_timelines_interleaves_sorted_lanes() {
        use crate::admission::AdmissionReason;
        let ev = |t| AdmissionEvent {
            t_s: t,
            stream: 0,
            reason: AdmissionReason::Shed,
        };
        let a = [ev(0.1), ev(0.3), ev(0.3)];
        let b = [ev(0.2), ev(0.3)];
        let merged = merge_timelines(&[a.as_slice(), b.as_slice()]);
        let shards: Vec<usize> = merged.iter().map(|(k, _)| *k).collect();
        // Ties at t=0.3 keep shard order (both of shard 0's before shard 1's).
        assert_eq!(shards, vec![0, 1, 0, 0, 1]);
        let times: Vec<f64> = merged.iter().map(|(_, e)| e.t_s).collect();
        assert_eq!(times, vec![0.1, 0.2, 0.3, 0.3, 0.3]);
        assert!(merge_timelines::<AdmissionEvent>(&[]).is_empty());
    }

    #[test]
    fn worst_p99_skips_streams_without_completions() {
        let stream = |processed: usize, samples: &[f64]| StreamReport {
            stream_id: 0,
            system_name: "s".into(),
            arrived: processed,
            processed,
            dropped: 0,
            rejected: 0,
            coasted: 0,
            skipped: 0,
            mean_ops: OpsBreakdown::default(),
            latency: LatencyStats::from_samples(samples),
            latency_samples: samples.to_vec(),
            outputs: vec![],
        };
        let mut report = ServeReport {
            makespan_s: 0.0,
            frames_arrived: 0,
            frames_processed: 0,
            frames_dropped: 0,
            frames_rejected: 0,
            frames_coasted: 0,
            frames_skipped: 0,
            throughput_fps: 0.0,
            worker_seconds: 0.0,
            gpu_dispatch_s: 0.0,
            total_ops: OpsBreakdown::default(),
            batch: BatchStats::default(),
            batch_log: vec![],
            scale_events: vec![],
            admission_events: vec![],
            downgrade_events: vec![],
            streams: vec![],
        };
        // No streams at all: no p99 to report.
        assert_eq!(report.worst_p99_s(), None);
        // Only an empty stream: still no p99 (the all-zero placeholder
        // stats must not masquerade as a measured latency).
        report.streams = vec![stream(0, &[])];
        assert_eq!(report.worst_p99_s(), None);
        report.streams = vec![stream(0, &[]), stream(2, &[0.3, 0.4])];
        assert_eq!(report.worst_p99_s(), Some(0.4));
    }
}
