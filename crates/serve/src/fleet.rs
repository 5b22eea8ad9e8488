//! The sharded serving fleet: N independent scheduler shards, a live
//! rebalancer, cross-shard refinement fusion, and merged reporting.
//!
//! # Execution model
//!
//! [`serve_fleet`] partitions the streams across
//! [`ShardConfig::shards`](crate::ShardConfig::shards) embedded scheduler
//! engines (each with its own virtual worker slots, bounded queues,
//! admission gate and autoscaler — every [`ServeConfig`] knob applies
//! **per shard**), then advances them on one shared fleet clock:
//!
//! * **Independent phases** — between coordination points, every shard
//!   runs its own virtual-time event loop; shards share no state, so the
//!   fleet is exactly as deterministic as one scheduler.
//! * **Live rebalancing** — at every
//!   [`rebalance_interval_s`](crate::ShardConfig::rebalance_interval_s)
//!   tick the fleet compares shard loads — queued backlog, or (with the
//!   [`RebalanceSignal::Predicted`](crate::RebalanceSignal) signal)
//!   backlog plus each stream's forecast arrivals over the forecast
//!   horizon; when the hottest shard leads the coolest by more than
//!   [`migration_cost_frames`](crate::ShardConfig::migration_cost_frames),
//!   the best-balancing *migratable* stream moves (streams that just
//!   moved sit out a per-stream cooldown). Migration happens at a
//!   stage-boundary suspend point: the stream's suspended pipeline (tracker
//!   state, frame scratch), queued backlog, undelivered frames and every
//!   counter relocate wholesale, so **no frame is ever lost or duplicated**
//!   (a property test pins exact conservation under random fleets).
//! * **Cross-shard refinement fusion** — with
//!   [`fuse_refinement`](ServeConfig::fuse_refinement) on and
//!   [`fuse_across_shards`](crate::ShardConfig::fuse_across_shards) set,
//!   the fleet advances shards in lock-step at event granularity and
//!   drains their refinement fuse pools into **one** shared GPU dispatch
//!   per deadline — the cross-stream amortisation from the staged-detector
//!   protocol survives sharding.
//!
//! A 1-shard fleet takes none of the coordination paths; [`serve`] is
//! exactly that fleet.
//!
//! # Threads
//!
//! [`ShardConfig::threads`](crate::ShardConfig::threads) is the only
//! source of OS threads in a serving run, and it counts the calling
//! thread: `N` threads are the caller plus `N − 1` pool helpers. Each
//! pass advances every engine to the next coordination point. The caller
//! keeps the first engine with an event due by then and queues the later
//! ones that have one; it advances the rest, whose clocks only move,
//! itself. Once its own engine is done, the caller takes queued engines
//! too, so a helper gets one only while two can run, and a pass with at
//! most one runnable engine queues nothing and wakes no helper. Whichever
//! thread holds an engine runs its stage work inline, and its recorder
//! handle encodes the engine's rows there too; a barrier only publishes
//! the chunks they filled. The same threads run the network front door's
//! pre-pass before any engine exists: its clients split into one
//! contiguous run per thread, merged in slot order. An idle pool thread,
//! the caller waiting for its helpers included, spins for up to 200 µs
//! before it parks, unless there are more threads than the host's
//! available parallelism. With one thread (or one shard) there is no
//! pool.
//!
//! # Reporting
//!
//! Each shard produces its own [`ServeReport`]; [`FleetReport`] merges
//! them *correctly*: latency percentiles are recomputed from pooled raw
//! samples (never averaged from per-shard percentiles), counts and
//! integrals add, timelines interleave in time order, and the migration /
//! fused-dispatch histories are fleet-level records.

use crate::config::ServeConfig;
use crate::ingest::front_door;
use crate::report::{
    merge_timelines, BatchRecord, BatchStats, LatencyStats, ServeReport, StreamReport,
};
use crate::scheduler::{Engine, StreamSpec, EPS};
use crate::shard::{build_partition, MigrationEvent, RebalanceSignal};
use crate::ShardConfig;
use catdet_data::StreamSource;
use catdet_net::{run_ingest, IngestOutcome, NetParams};
use catdet_recorder::{Event, FlightRecorder, NullRecorder, SharedRecorder};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One cross-shard fused refinement dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRefineRecord {
    /// Virtual dispatch time.
    pub t_s: f64,
    /// Fleet-wide stream ids whose refinement launches rode the dispatch.
    pub streams: Vec<usize>,
    /// Contributing shards (one entry per stream, aligned with
    /// [`streams`](FleetRefineRecord::streams)).
    pub shards: Vec<usize>,
}

/// Aggregate result of a sharded serving run: per-shard reports plus the
/// fleet-level histories, with merge accessors that aggregate correctly.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-shard reports, indexed by shard id. Stream ids inside are
    /// fleet-wide; a migrated stream appears once, on its final shard.
    pub shards: Vec<ServeReport>,
    /// Live migrations, in time order.
    pub migrations: Vec<MigrationEvent>,
    /// Cross-shard fused refinement dispatches, in time order (empty
    /// unless fleet-wide fusion ran).
    pub fused_refinements: Vec<FleetRefineRecord>,
    /// Summed virtual GPU time of the cross-shard dispatches (accounted
    /// here once, not in any shard's `gpu_dispatch_s`).
    pub fused_gpu_dispatch_s: f64,
    /// Front-door accounting when the run ingested over the network
    /// (`None` for direct ingest). Frames this report counts as rejected
    /// at the door never reached the shards — they are separate from,
    /// and in addition to, the admission-shed frames below.
    pub ingest: Option<catdet_net::IngestReport>,
}

impl FleetReport {
    /// Total frames that arrived across the fleet.
    pub fn frames_arrived(&self) -> usize {
        self.shards.iter().map(|s| s.frames_arrived).sum()
    }

    /// Total frames processed across the fleet.
    pub fn frames_processed(&self) -> usize {
        self.shards.iter().map(|s| s.frames_processed).sum()
    }

    /// Total frames shed across the fleet (backpressure + admission).
    pub fn frames_dropped(&self) -> usize {
        self.shards.iter().map(|s| s.frames_dropped).sum()
    }

    /// Of the dropped frames, total refused by admission control.
    pub fn frames_rejected(&self) -> usize {
        self.shards.iter().map(|s| s.frames_rejected).sum()
    }

    /// Of the processed frames, total served by coasting the tracker
    /// (track-only frames under a non-default frame policy).
    pub fn frames_coasted(&self) -> usize {
        self.shards.iter().map(|s| s.frames_coasted).sum()
    }

    /// Of the processed frames, total skipped by policy stride.
    pub fn frames_skipped(&self) -> usize {
        self.shards.iter().map(|s| s.frames_skipped).sum()
    }

    /// Total frames served with a full detection pass.
    pub fn frames_detected(&self) -> usize {
        self.frames_processed() - self.frames_coasted() - self.frames_skipped()
    }

    /// Fleet drop rate over arrived frames.
    pub fn drop_rate(&self) -> f64 {
        let arrived = self.frames_arrived();
        if arrived == 0 {
            0.0
        } else {
            self.frames_dropped() as f64 / arrived as f64
        }
    }

    /// Fleet makespan: the slowest shard bounds the run.
    pub fn makespan_s(&self) -> f64 {
        self.shards.iter().map(|s| s.makespan_s).fold(0.0, f64::max)
    }

    /// Fleet throughput: processed frames over the fleet makespan.
    pub fn throughput_fps(&self) -> f64 {
        let makespan = self.makespan_s();
        if makespan > 0.0 {
            self.frames_processed() as f64 / makespan
        } else {
            0.0
        }
    }

    /// Summed provisioned worker-seconds across shards.
    pub fn worker_seconds(&self) -> f64 {
        self.shards.iter().map(|s| s.worker_seconds).sum()
    }

    /// Summed priced GPU dispatch time: every shard's own dispatches plus
    /// the cross-shard fused ones (accounted once, fleet-level).
    pub fn gpu_dispatch_s(&self) -> f64 {
        self.shards.iter().map(|s| s.gpu_dispatch_s).sum::<f64>() + self.fused_gpu_dispatch_s
    }

    /// Fleet latency distribution, merged **from raw samples**: the pooled
    /// nearest-rank percentiles over every stream's `latency_samples`.
    /// Averaging per-shard percentiles would be wrong (see
    /// [`LatencyStats::merged`]); this is the correct aggregation, and a
    /// property test pins it to the naive pooled reference. `None` when no
    /// stream in the fleet completed a frame — shards that served zero
    /// frames contribute nothing rather than 0-valued stats.
    pub fn merged_latency(&self) -> Option<LatencyStats> {
        LatencyStats::merged(
            self.shards
                .iter()
                .flat_map(|s| s.streams.iter())
                .map(|s| s.latency_samples.as_slice()),
        )
    }

    /// Merged batching statistics: shard counters add (maxima take the
    /// max), and the cross-shard fused dispatches are folded in as
    /// refinement batches.
    pub fn merged_batch(&self) -> BatchStats {
        let mut out = BatchStats::default();
        for s in &self.shards {
            out.batches += s.batch.batches;
            out.batched_frames += s.batch.batched_frames;
            out.max_batch_seen = out.max_batch_seen.max(s.batch.max_batch_seen);
            out.proposal_launches_saved += s.batch.proposal_launches_saved;
            out.refine_batches += s.batch.refine_batches;
            out.refined_frames += s.batch.refined_frames;
            out.max_refine_batch_seen =
                out.max_refine_batch_seen.max(s.batch.max_refine_batch_seen);
            out.refinement_launches_saved += s.batch.refinement_launches_saved;
        }
        for r in &self.fused_refinements {
            out.refine_batches += 1;
            out.refined_frames += r.streams.len();
            out.max_refine_batch_seen = out.max_refine_batch_seen.max(r.streams.len());
            out.refinement_launches_saved += r.streams.len() - 1;
        }
        out
    }

    /// Every stream report across the fleet, ordered by fleet-wide stream
    /// id (each stream appears exactly once, on the shard that finished
    /// it).
    pub fn streams(&self) -> Vec<&StreamReport> {
        let mut out: Vec<&StreamReport> =
            self.shards.iter().flat_map(|s| s.streams.iter()).collect();
        out.sort_by_key(|s| s.stream_id);
        out
    }

    /// Worst per-stream p99 across the fleet (`None` when nothing
    /// completed), mirroring [`ServeReport::worst_p99_s`].
    pub fn worst_p99_s(&self) -> Option<f64> {
        self.shards
            .iter()
            .filter_map(|s| s.worst_p99_s())
            .reduce(f64::max)
    }

    /// All scale events across shards as `(shard, event)`, merged in time
    /// order (ties keep shard order).
    pub fn scale_timeline(&self) -> Vec<(usize, crate::ScaleEvent)> {
        let lanes: Vec<&[crate::ScaleEvent]> = self
            .shards
            .iter()
            .map(|s| s.scale_events.as_slice())
            .collect();
        merge_timelines(&lanes)
    }

    /// All admission rejections across shards as `(shard, event)`, merged
    /// in time order (ties keep shard order).
    pub fn admission_timeline(&self) -> Vec<(usize, crate::AdmissionEvent)> {
        let lanes: Vec<&[crate::AdmissionEvent]> = self
            .shards
            .iter()
            .map(|s| s.admission_events.as_slice())
            .collect();
        merge_timelines(&lanes)
    }

    /// All downgrade-before-drop transitions across shards as
    /// `(shard, event)`, merged in time order (ties keep shard order).
    pub fn downgrade_timeline(&self) -> Vec<(usize, crate::admission::DowngradeEvent)> {
        let lanes: Vec<&[crate::admission::DowngradeEvent]> = self
            .shards
            .iter()
            .map(|s| s.downgrade_events.as_slice())
            .collect();
        merge_timelines(&lanes)
    }

    /// All dispatched batches across shards as `(shard, record)`, merged
    /// in time order (ties keep shard order). Per-shard logs are in
    /// dispatch order, which can run slightly ahead of time order (a
    /// per-frame refinement is priced at its future completion cursor), so
    /// each lane is time-sorted (stably) before the merge.
    pub fn batch_timeline(&self) -> Vec<(usize, BatchRecord)> {
        let mut lanes: Vec<Vec<BatchRecord>> =
            self.shards.iter().map(|s| s.batch_log.clone()).collect();
        for lane in &mut lanes {
            lane.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        }
        let refs: Vec<&[BatchRecord]> = lanes.iter().map(|l| l.as_slice()).collect();
        merge_timelines(&refs)
    }

    /// Human-readable migration timeline, one line per event.
    pub fn migration_timeline(&self) -> String {
        let mut out = String::new();
        for m in &self.migrations {
            let _ = writeln!(
                out,
                "  t={:>8.3}s  stream {:>3}: shard {} -> {} ({} queued frames moved)",
                m.t_s, m.stream, m.from_shard, m.to_shard, m.backlog_moved
            );
        }
        out
    }

    /// Human-readable multi-line fleet summary (what the `catdet-serve`
    /// binary prints for sharded runs).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let (p50, p95, p99) = self
            .merged_latency()
            .map_or((0.0, 0.0, 0.0), |l| (l.p50_s, l.p95_s, l.p99_s));
        let batch = self.merged_batch();
        let _ = writeln!(
            out,
            "fleet: {} shards | {} streams | {:.1} virtual s | {} processed / {} arrived \
             ({} dropped: {} backpressure + {} admission-shed, {:.1}%)",
            self.shards.len(),
            self.streams().len(),
            self.makespan_s(),
            self.frames_processed(),
            self.frames_arrived(),
            self.frames_dropped(),
            self.frames_dropped() - self.frames_rejected(),
            self.frames_rejected(),
            100.0 * self.drop_rate(),
        );
        if let Some(ingest) = &self.ingest {
            let _ = writeln!(out, "{}", ingest.summary());
        }
        let _ = writeln!(
            out,
            "throughput: {:.2} frames/s | merged latency p50/p95/p99: {:.1}/{:.1}/{:.1} ms | gpu dispatch time: {:.3} s",
            self.throughput_fps(),
            p50 * 1e3,
            p95 * 1e3,
            p99 * 1e3,
            self.gpu_dispatch_s(),
        );
        let _ = writeln!(
            out,
            "refinement: {} dispatches (mean {:.2}, max {}, {} launches saved; {} cross-shard)",
            batch.refine_batches,
            batch.mean_refine_batch(),
            batch.max_refine_batch_seen,
            batch.refinement_launches_saved,
            self.fused_refinements.len(),
        );
        if self.frames_coasted() + self.frames_skipped() > 0 {
            let _ = writeln!(
                out,
                "policy: {} detected | {} coasted | {} stride-skipped",
                self.frames_detected(),
                self.frames_coasted(),
                self.frames_skipped(),
            );
        }
        let downgrades = self.downgrade_timeline();
        if !downgrades.is_empty() {
            let _ = writeln!(
                out,
                "downgrade: {} transitions (downgrade-before-drop)",
                downgrades.len(),
            );
        }
        if !self.migrations.is_empty() {
            let _ = writeln!(
                out,
                "rebalancer: {} migrations ({} queued frames moved)",
                self.migrations.len(),
                self.migrations
                    .iter()
                    .map(|m| m.backlog_moved)
                    .sum::<usize>(),
            );
        }
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>8} {:>8} {:>9} {:>9} {:>9}",
            "shard", "procd", "dropped", "batches", "p99 ms", "wrk-s", "gpu s"
        );
        for (k, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>6} {:>6} {:>8} {:>8} {:>9.1} {:>9.1} {:>9.3}",
                k,
                s.frames_processed,
                s.frames_dropped,
                s.batch.batches,
                s.worst_p99_s().unwrap_or(0.0) * 1e3,
                s.worker_seconds,
                s.gpu_dispatch_s,
            );
        }
        out
    }
}

/// Runs the serving loop to completion and reports: a one-shard
/// [`serve_fleet`] (whatever [`ShardConfig::shards`] says), returning its
/// single shard's report.
///
/// Every stream gets a freshly built system (no state is ever shared), all
/// frames are processed in per-stream arrival order, and backpressure drops
/// are counted exactly: for each stream,
/// `arrived == processed + dropped + still-queued(0 at exit)`.
///
/// # Panics
///
/// Panics on an invalid configuration (see [`ServeConfig::validate`]), or
/// with the original message if a detection system panics.
pub fn serve(streams: Vec<StreamSpec>, cfg: &ServeConfig) -> ServeReport {
    serve_fleet(streams, &one_shard(cfg)).shards.remove(0)
}

/// [`serve`] with every event booked into `recorder` (as shard 0),
/// leaving the caller holding the store for telemetry queries, saving,
/// and time-travel replay.
///
/// The recorder rides outside the scheduling loop: a recorded run books
/// the **same** virtual-time decisions and produces a bit-identical
/// [`ServeReport`] to an unrecorded one.
pub fn serve_with_recorder(
    streams: Vec<StreamSpec>,
    cfg: &ServeConfig,
    recorder: &SharedRecorder,
) -> ServeReport {
    serve_fleet_with_recorder(streams, &one_shard(cfg), recorder)
        .shards
        .remove(0)
}

/// `cfg` with its shard count forced to one.
fn one_shard(cfg: &ServeConfig) -> ServeConfig {
    cfg.with_shard(ShardConfig {
        shards: 1,
        ..cfg.shard
    })
}

/// Runs a sharded serving fleet to completion and reports.
///
/// Streams are partitioned across [`ShardConfig::shards`] embedded engines
/// by the configured [`PartitionPolicy`](crate::shard::PartitionPolicy);
/// each engine gets its own [`ServeConfig::workers`] virtual worker slots
/// (**per shard**), queues, admission gate and autoscaler. See the module
/// docs for the coordination model.
///
/// # Panics
///
/// Panics on an invalid configuration, or with the original message if a
/// detection system panics.
pub fn serve_fleet(streams: Vec<StreamSpec>, cfg: &ServeConfig) -> FleetReport {
    expect_valid(cfg);
    // Config-enabled recording without a caller-held handle (see
    // [`serve`](crate::serve)); pass a recorder via
    // [`serve_fleet_with_recorder`] to keep the store.
    let recorder = cfg.recorder.enabled.then(|| cfg.recorder.build());
    serve_fleet_impl(streams, cfg, recorder.as_ref(), None)
}

/// Runs a sharded fleet with every event booked into `recorder`: each
/// shard's engine stamps its shard id, and migrations are recorded
/// fleet-level. Scheduling decisions (and the returned [`FleetReport`])
/// are bit-identical to an unrecorded run.
///
/// # Panics
///
/// As [`serve_fleet`].
pub fn serve_fleet_with_recorder(
    streams: Vec<StreamSpec>,
    cfg: &ServeConfig,
    recorder: &SharedRecorder,
) -> FleetReport {
    expect_valid(cfg);
    serve_fleet_impl(streams, cfg, Some(recorder), None)
}

/// The entry points' check, made before any work: panics with the broken
/// rule (see [`ServeConfig::validate`]) unless `cfg` is valid.
pub(crate) fn expect_valid(cfg: &ServeConfig) {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
}

/// One queued unit of engine work: advance shard `idx`'s engine to `limit`.
type ShardJob = (usize, Engine, f64);
/// A finished engine job: the shard index, its engine, and what
/// [`advance`] returned for it.
type ShardDone = (usize, Engine, Result<bool, String>);
/// One run of a split ingest pass: its index among the runs, its
/// contiguous run of clients, and the front door's parameters.
pub(crate) type IngestRun = (usize, Vec<StreamSource>, NetParams);
/// An ingested run: its index and its outcome, or the text of the panic
/// it raised.
pub(crate) type IngestDone = (usize, Result<IngestOutcome, String>);

/// How long an idle pool thread spins before it parks on its condvar:
/// long enough that a helper usually finds the next pass's engine, and
/// the caller its helper's result, without a sleep and a wake-up on
/// either side.
const SPIN: Duration = Duration::from_micros(200);

/// The pool helpers: `threads − 1` persistent OS threads that take jobs
/// off the calling thread's queue — runnable engines during a pass (see
/// [`run_all`]), and runs of clients during the front door's pre-pass
/// (see [`crate::ingest`]).
///
/// Jobs move **by value** through the queue: whichever thread holds an
/// engine owns it outright while stepping it — its pipelines, scratch
/// buffers and recorder writing end, which encodes its rows right there —
/// so there is no shared mutable state on the simulation path. The queue
/// is a `Mutex<VecDeque>` with two condvars rather than a channel because
/// the caller takes jobs from it too, while a helper may be blocked
/// waiting on it. The fleet's coordination points (fuse deadlines,
/// rebalance ticks, recorder publishes) all happen on the calling thread
/// after every engine is back at its shard index, which is the whole
/// determinism argument: threads change *when* wall-clock work happens,
/// never *what* the simulation computes.
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    helpers: Vec<JoinHandle<()>>,
}

/// What the caller and the helpers share.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Wakes helpers: a job was queued, or the pool is closing.
    job_queued: Condvar,
    /// Wakes the caller: a job finished.
    job_done: Condvar,
    /// Bumped under the lock at every change to the queue, so a spinning
    /// thread sees one without taking the lock.
    changes: AtomicU64,
    /// Whether an idle thread spins for [`SPIN`] before it parks: only
    /// when every pool thread can have a CPU to itself.
    spin: bool,
}

/// The pool's work and results, under one lock.
#[derive(Default)]
struct PoolQueue {
    /// Engines waiting for a thread.
    jobs: VecDeque<ShardJob>,
    /// Engines advanced this pass, in finishing order.
    done: Vec<ShardDone>,
    /// Runs of a split ingest pass waiting for a thread.
    runs: VecDeque<IngestRun>,
    /// Runs ingested so far, in finishing order.
    ingested: Vec<IngestDone>,
    /// Threads parked on either condvar, so a change wakes no one in vain.
    parked: usize,
    /// Set when the fleet drops the pool: helpers exit.
    closed: bool,
}

impl ShardPool {
    fn new(helpers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::default(),
            job_queued: Condvar::new(),
            job_done: Condvar::new(),
            changes: AtomicU64::new(0),
            spin: helpers < host_cpus(),
        });
        let helpers = (0..helpers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    drop(shared.work(&shared.job_queued, |q| q.closed));
                })
            })
            .collect();
        ShardPool { shared, helpers }
    }

    /// The threads that take jobs: the caller and the helpers.
    pub(crate) fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Queues `job` for whichever thread is free first.
    fn queue(&self, job: ShardJob) {
        let shared = &*self.shared;
        let mut q = shared.lock();
        q.jobs.push_back(job);
        shared.changed(&q, &shared.job_queued);
    }

    /// Queues an ingest run for whichever thread is free first.
    pub(crate) fn queue_run(&self, run: IngestRun) {
        let shared = &*self.shared;
        let mut q = shared.lock();
        q.runs.push_back(run);
        shared.changed(&q, &shared.job_queued);
    }

    /// The caller's half of a pass, after its own engine: takes queued
    /// jobs until none is left, waits until all `queued` engines are
    /// done, and puts each back at its shard index.
    fn collect(&self, queued: usize, engines: &mut Vec<Engine>, pass: &mut Pass) {
        let shared = &*self.shared;
        let mut q = shared.work(&shared.job_done, |q| q.done.len() == queued);
        // Ascending inserts land every engine at its own index.
        q.done.sort_unstable_by_key(|d| d.0);
        for (idx, engine, out) in q.done.drain(..) {
            engines.insert(idx, engine);
            pass.record(idx, out);
        }
    }

    /// [`collect`](ShardPool::collect) for an ingest pass: waits until all
    /// `queued` runs are ingested and hands each to `each`, in run order.
    pub(crate) fn collect_runs(&self, queued: usize, mut each: impl FnMut(IngestDone)) {
        let shared = &*self.shared;
        let mut q = shared.work(&shared.job_done, |q| q.ingested.len() == queued);
        q.ingested.sort_unstable_by_key(|d| d.0);
        q.ingested.drain(..).for_each(&mut each);
    }
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolQueue> {
        // Only queue operations run under the lock, and none of them panics.
        self.queue.lock().expect("shard pool queue poisoned")
    }

    /// Notes a change to `q`, made under its lock: spinners see the bump,
    /// and a parked thread, if there is one, gets `wake`'s notice. The
    /// bump's `Release` pairs with the spinner's `Acquire` load; the queue
    /// itself is only ever read under the lock.
    fn changed(&self, q: &PoolQueue, wake: &Condvar) {
        self.changes.fetch_add(1, Ordering::Release);
        if q.parked > 0 {
            wake.notify_one();
        }
    }

    /// Runs queued jobs on this thread, idling on `wake` while the queue
    /// is empty, until `stop` holds with nothing left to take.
    fn work(&self, wake: &Condvar, stop: impl Fn(&PoolQueue) -> bool) -> MutexGuard<'_, PoolQueue> {
        let mut q = self.lock();
        let mut spin_until = None;
        loop {
            if let Some((idx, mut engine, limit)) = q.jobs.pop_front() {
                drop(q);
                let out = advance(&mut engine, limit);
                q = self.lock();
                q.done.push((idx, engine, out));
            } else if let Some((idx, sources, params)) = q.runs.pop_front() {
                drop(q);
                let out = caught(|| run_ingest(&sources, &params));
                drop(sources);
                q = self.lock();
                q.ingested.push((idx, out));
            } else if stop(&q) {
                return q;
            } else {
                q = self.idle(q, wake, &mut spin_until);
                continue;
            }
            self.changed(&q, &self.job_done);
            spin_until = None;
        }
    }

    /// One idle step of [`work`](PoolShared::work): spins off the lock
    /// until the queue changes or the idle spell has spun for [`SPIN`],
    /// then parks on `wake`. There is no spinning when it is off.
    fn idle<'a>(
        &'a self,
        mut q: MutexGuard<'a, PoolQueue>,
        wake: &Condvar,
        spin_until: &mut Option<Instant>,
    ) -> MutexGuard<'a, PoolQueue> {
        if self.spin {
            let until = *spin_until.get_or_insert_with(|| Instant::now() + SPIN);
            if Instant::now() < until {
                let seen = self.changes.load(Ordering::Acquire);
                drop(q);
                while self.changes.load(Ordering::Acquire) == seen && Instant::now() < until {
                    std::hint::spin_loop();
                }
                return self.lock();
            }
        }
        q.parked += 1;
        q = wake.wait(q).expect("shard pool queue poisoned");
        q.parked -= 1;
        *spin_until = None;
        q
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Setting the flag leaves even a poisoned queue valid.
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.shared.changes.fetch_add(1, Ordering::Release);
        self.shared.job_queued.notify_all();
        for handle in self.helpers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Advances one engine to `limit` on the current thread. This is the one
/// place an engine panic is caught, on the caller and the helpers alike;
/// [`Pass::finish`] re-raises it once every engine is back.
fn advance(engine: &mut Engine, limit: f64) -> Result<bool, String> {
    caught(|| engine.run_until(limit))
}

/// Runs `f`, catching a panic as its payload's text.
fn caught<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| panic_message(&*e))
}

/// The text of a caught panic payload.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// What one pass learned from its engines: whether any still has work,
/// and the panic of the lowest shard index that hit one.
#[derive(Default)]
struct Pass {
    work_left: bool,
    panic: Option<(usize, String)>,
}

impl Pass {
    fn record(&mut self, idx: usize, out: Result<bool, String>) {
        match out {
            Ok(more) => self.work_left |= more,
            Err(msg) => {
                if self.panic.as_ref().is_none_or(|&(k, _)| idx < k) {
                    self.panic = Some((idx, msg));
                }
            }
        }
    }

    /// Re-raises the lowest shard's panic, if any shard hit one; returns
    /// whether any shard still has work otherwise.
    fn finish(self) -> bool {
        if let Some((idx, msg)) = self.panic {
            panic!("shard {idx} engine panicked: {msg}");
        }
        self.work_left
    }
}

/// Resolves [`ShardConfig::threads`](crate::ShardConfig::threads) against
/// the shard count: `0` means the host's available parallelism, and no
/// run ever uses more threads than it has shards.
fn resolve_threads(threads: usize, shards: usize) -> usize {
    let t = if threads == 0 { host_cpus() } else { threads };
    t.clamp(1, shards.max(1))
}

/// The host's available parallelism, asked once per process: the query
/// reads the cgroup's CPU quota from files, which costs allocations.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Advances every engine to `limit` and reports whether any shard still
/// has work.
///
/// An engine is *runnable* when its next event is at or before `limit`,
/// the test [`Engine::run_until`] itself applies. The calling thread
/// keeps the first runnable engine and, with a pool, queues every later
/// runnable one. It advances each engine it did not queue where it
/// stands, its own last, then takes queued jobs until none is left and
/// collects what the helpers took. So with at most one runnable engine
/// nothing moves and no helper wakes. Every engine still gets its
/// `run_until(limit)`: skipping one whose clock only moves would split
/// its worker-seconds accrual differently. Every engine is back at its
/// shard index before this returns, so downstream code never observes
/// which thread ran what.
///
/// # Panics
///
/// Re-raises a pipeline panic as `shard {k} engine panicked: {payload}`,
/// for the lowest panicking shard `k`, once every engine is back. The
/// message is the same at every thread count.
fn run_all(pool: Option<&ShardPool>, engines: &mut Vec<Engine>, limit: f64) -> bool {
    let runnable = |e: &Engine| e.next_event_time().is_some_and(|t| t <= limit);
    let own = engines.iter().position(runnable);
    let mut pass = Pass::default();
    let mut queued = 0;
    // Back to front, so every index still to visit holds its own shard.
    for idx in (0..engines.len()).rev() {
        if Some(idx) == own {
            continue; // runs once every other runnable engine is queued
        }
        match pool {
            Some(pool) if runnable(&engines[idx]) => {
                pool.queue((idx, engines.remove(idx), limit));
                queued += 1;
            }
            _ => pass.record(idx, advance(&mut engines[idx], limit)),
        }
    }
    if let Some(idx) = own {
        pass.record(idx, advance(&mut engines[idx], limit));
    }
    if let Some(pool) = pool {
        pool.collect(queued, engines, &mut pass);
    }
    pass.finish()
}

/// Runs a validated fleet, sealing `recorder`'s open chunks at the end.
/// With a `net_seed`, the streams first come through the network front
/// door (see [`crate::ingest`]), keyed by that seed.
pub(crate) fn serve_fleet_impl(
    streams: Vec<StreamSpec>,
    cfg: &ServeConfig,
    recorder: Option<&SharedRecorder>,
    net_seed: Option<u64>,
) -> FleetReport {
    let sc = cfg.shard;
    let shards = sc.shards;

    // The caller plus `threads − 1` helpers run the front door's clients,
    // then advance the engines; one thread (the default) has no pool at
    // all.
    let threads = resolve_threads(sc.threads, shards);
    let pool = (threads > 1).then(|| ShardPool::new(threads - 1));
    let (streams, ingest) = match net_seed {
        Some(seed) => {
            let (streams, report) = front_door(streams, cfg, seed, pool.as_ref(), recorder);
            (streams, Some(report))
        }
        None => (streams, None),
    };

    // Placement.
    let mut policy = build_partition(sc.partition);
    let mut groups: Vec<Vec<StreamSpec>> = (0..shards).map(|_| Vec::new()).collect();
    for spec in streams {
        let k = policy.place(spec.source.stream_id, spec.source.len(), shards);
        groups[k].push(spec);
    }

    // A 1-shard fleet takes no coordination path at all: the engine fuses
    // its own refinement pool and runs to completion in one call.
    let fleet_fuse = cfg.fuse_refinement && sc.fuse_across_shards && shards > 1;
    let rebalance_on = sc.rebalance_interval_s > 0.0 && shards > 1;

    let mut engines: Vec<Engine> = groups
        .into_iter()
        .enumerate()
        .map(|(k, g)| {
            // Fleets hand engines the *barrier* writing end: rows encode
            // into its own chunks on the engine's thread and reach the
            // shared store only at the in-shard-order publishes below, so
            // the store's ingest order is identical at every thread count.
            // A lone shard's handle is the store's only writer from here
            // on, so it publishes as its chunks fill: the same store at
            // any cadence, with snapshots evicted as the run goes.
            let sink: Box<dyn FlightRecorder> = match recorder {
                Some(r) if shards == 1 => Box::new(r.sole_handle(k)),
                Some(r) => Box::new(r.barrier_handle(k)),
                None => Box::new(NullRecorder),
            };
            Engine::new(g, cfg, 0.0, fleet_fuse, sink)
        })
        .collect();

    let mut migrations: Vec<MigrationEvent> = Vec::new();
    let mut fused_refinements: Vec<FleetRefineRecord> = Vec::new();
    let mut fused_gpu = 0.0_f64;
    let mut rebalance_state = RebalanceState::default();
    let mut next_rebalance = if rebalance_on {
        sc.rebalance_interval_s
    } else {
        f64::INFINITY
    };

    // Each pass advances every engine to the next coordination point: the
    // next rebalance tick or, with fleet fusion, the next fleet-wide event,
    // whichever comes first. Fusion's lock-step at event granularity is
    // what lets a frame suspended on shard 0 share a dispatch with one on
    // shard 3; without it, shards are fully independent between ticks and
    // each runs a whole tick (or to completion) per pass.
    loop {
        let mut limit = next_rebalance;
        if fleet_fuse {
            // Fire only deadlines at or before the pending rebalance tick:
            // a dispatch semantically at t > tick must not execute first
            // (it returns systems to their slots, and the earlier-in-time
            // rebalancer would then observe post-dispatch state).
            fire_fleet_refinements(
                cfg,
                &mut engines,
                next_rebalance,
                &mut fused_refinements,
                &mut fused_gpu,
            );
            limit = engines
                .iter()
                .filter_map(Engine::next_event_time)
                .fold(limit, f64::min);
        }
        if !run_all(pool.as_ref(), &mut engines, limit) {
            break;
        }
        if rebalance_on && next_rebalance <= limit + EPS {
            // Every engine's recorder publishes in shard-id order, so the
            // store's ingest order is thread-count-independent.
            if recorder.is_some() {
                engines.iter_mut().for_each(Engine::publish_recorder);
            }
            rebalance(
                &sc,
                &mut engines,
                next_rebalance,
                &mut migrations,
                recorder,
                &mut rebalance_state,
            );
            next_rebalance += sc.rebalance_interval_s;
        }
    }
    if fleet_fuse {
        // Late stragglers: deadlines due exactly at the final instant.
        fire_fleet_refinements(
            cfg,
            &mut engines,
            f64::INFINITY,
            &mut fused_refinements,
            &mut fused_gpu,
        );
    }
    // No pass is left: join the helpers and free the queue, which holds
    // room for every shard's engine, before the reports are built.
    drop(pool);

    // The final drains, in shard-id order like every barrier's publishes:
    // the open chunks reach the store before it seals them.
    if recorder.is_some() {
        engines.iter_mut().for_each(Engine::flush_recorder);
    }
    let shards = engines.iter_mut().map(Engine::finish_report).collect();
    if let Some(r) = recorder {
        r.seal_open_chunks();
    }
    FleetReport {
        shards,
        migrations,
        fused_refinements,
        fused_gpu_dispatch_s: fused_gpu,
        ingest,
    }
}

/// Fires every cross-shard fused refinement dispatch whose deadline is
/// due (and at or before `limit`, the next fleet coordination point): all
/// frames ready by the deadline — on any shard — ride one priced launch;
/// each shard then executes and books its own frames.
fn fire_fleet_refinements(
    cfg: &ServeConfig,
    engines: &mut [Engine],
    limit: f64,
    log: &mut Vec<FleetRefineRecord>,
    fused_gpu: &mut f64,
) {
    loop {
        let due = engines
            .iter()
            .map(|e| e.refine_deadline())
            .fold(f64::INFINITY, f64::min);
        if !due.is_finite() || due > limit + EPS {
            return;
        }
        // Only fire deadlines every engine has reached (in the lock-step
        // loop all clocks are equal, so this is simply "due now").
        if engines
            .iter()
            .any(|e| e.next_event_time().is_some_and(|t| t + EPS < due))
        {
            return;
        }
        let per_shard: Vec<_> = engines
            .iter_mut()
            .map(|e| e.take_ready_refinements(due))
            .collect();
        let mut streams = Vec::new();
        let mut shard_ids = Vec::new();
        let mut fused_macs = 0.0;
        for (k, items) in per_shard.iter().enumerate() {
            for p in items {
                streams.push(engines[k].global_stream_id(p.stream()));
                shard_ids.push(k);
                fused_macs += p.macs();
            }
        }
        debug_assert!(!streams.is_empty(), "deadline fired with nothing ready");
        let gpu = cfg.timing.launch_time(fused_macs) + cfg.timing.stage_overhead_s;
        *fused_gpu += gpu;
        log.push(FleetRefineRecord {
            t_s: due,
            streams,
            shards: shard_ids,
        });
        for (k, items) in per_shard.into_iter().enumerate() {
            if !items.is_empty() {
                engines[k].resume_refinements(due, gpu, items);
            }
        }
    }
}

/// Cross-tick rebalancer memory: the tick counter and, per fleet-wide
/// stream id, the tick of the stream's last migration. The per-stream
/// cooldown is what breaks the two-shard ping-pong: without it, a stream
/// whose queue sits near half the imbalance can be the best candidate in
/// *both* directions on alternating ticks under symmetric load, bouncing
/// forever while paying the migration cost twice per cycle.
#[derive(Debug, Default)]
struct RebalanceState {
    /// Rebalance ticks fired so far (the cooldown clock).
    tick: u64,
    /// Fleet-wide stream id → tick of its last migration.
    last_move: std::collections::BTreeMap<usize, u64>,
}

impl RebalanceState {
    /// Whether a stream may migrate at the current tick: more than
    /// `cooldown` ticks must have passed since it last moved.
    fn eligible(&self, global_id: usize, cooldown: u64) -> bool {
        match self.last_move.get(&global_id) {
            Some(&moved) => self.tick - moved > cooldown,
            None => true,
        }
    }
}

/// Picks the (hot, cool) shard pair for one rebalance tick, or `None`
/// when no pair is worth a migration.
///
/// The selection is explicitly deterministic: hot is the *lowest shard
/// id* among the maximum loads, cool the *lowest shard id* among the
/// minimum loads. An earlier version leaned on iterator scan order
/// and a `usize::MAX - k` key inversion to break ties, which was easy to
/// regress when the scan changed; the tie rule is now spelled out in one
/// place and pinned by unit tests. The pair is rejected unless the
/// load gap strictly exceeds `migration_cost` — a migration must buy
/// more balance than it costs. Loads are `f64` so the predicted signal
/// (fractional forecast frames) and the exact integer backlog signal
/// share one selection rule; integer inputs order exactly as they did
/// when this took `usize`.
fn pick_rebalance_pair_by(loads: &[f64], migration_cost: f64) -> Option<(usize, usize)> {
    let (mut hot, mut cool) = (0, 0);
    for k in 1..loads.len() {
        // Strict comparisons keep the earliest (lowest-id) extremum.
        if loads[k] > loads[hot] {
            hot = k;
        }
        if loads[k] < loads[cool] {
            cool = k;
        }
    }
    if loads.is_empty() || hot == cool || loads[hot] - loads[cool] <= migration_cost {
        return None;
    }
    Some((hot, cool))
}

/// The integer-backlog entry point to [`pick_rebalance_pair_by`]: the
/// pinned legacy tests drive it to prove the `f64` generalisation keeps
/// the reactive signal's exact historical semantics.
#[cfg(test)]
fn pick_rebalance_pair(loads: &[usize], migration_cost_frames: usize) -> Option<(usize, usize)> {
    let loads: Vec<f64> = loads.iter().map(|&q| q as f64).collect();
    pick_rebalance_pair_by(&loads, migration_cost_frames as f64)
}

/// One rebalance tick: if the hottest shard's load leads the coolest by
/// more than the migration cost, move the migratable stream whose load
/// best evens the pair out. One migration per tick keeps the control
/// loop gentle and every decision attributable.
///
/// The load is the configured [`RebalanceSignal`]: queued backlog
/// (reactive), or queued backlog plus forecast arrivals over the
/// forecast horizon (predictive) — with the predicted signal,
/// `migration_cost_frames` is priced against the *predicted* gain, and a
/// shard about to burst sheds a stream before its queues show damage.
/// Forecasts read through each stream's per-tick memo, so the candidate
/// scan re-estimates nothing the load sum already did; and when the tick
/// lands on the engines' own control tick, the shard threads have already
/// made every forecast this serial step reads.
///
/// Three guards make the controller thrash-free:
/// * only streams whose load is **strictly smaller than the imbalance**
///   are candidates — moving a larger one would just flip the imbalance
///   (and a stream that *is* the entire backlog gains nothing from a
///   move: its frames face one shard's workers either way);
/// * among candidates, the load closest to half the imbalance wins (ties
///   to the lowest stream id), so the post-move imbalance is minimal and
///   the same stream can never satisfy the candidate rule again at the
///   next tick unless real load shifted;
/// * a stream that just moved is ineligible for
///   [`migration_cooldown_ticks`](crate::ShardConfig::migration_cooldown_ticks)
///   further ticks, so symmetric load can never bounce one stream
///   between two shards on alternating ticks.
fn rebalance(
    sc: &crate::ShardConfig,
    engines: &mut [Engine],
    t: f64,
    migrations: &mut Vec<MigrationEvent>,
    recorder: Option<&SharedRecorder>,
    state: &mut RebalanceState,
) {
    state.tick += 1;
    let predicted = sc.rebalance_signal == RebalanceSignal::Predicted;
    let loads: Vec<f64> = engines
        .iter()
        .map(|e| {
            if predicted {
                e.predicted_backlog(t)
            } else {
                e.backlog() as f64
            }
        })
        .collect();
    let Some((hot, cool)) = pick_rebalance_pair_by(&loads, sc.migration_cost_frames as f64) else {
        return;
    };
    let imbalance = loads[hot] - loads[cool];
    let cooldown = sc.migration_cooldown_ticks as u64;
    // Best-balancing migratable stream: load in (0, imbalance), residual
    // |imbalance − 2·load| minimal, ties to the lowest global id.
    let candidate = engines[hot]
        .migratable_streams()
        .map(|local| {
            let q = if predicted {
                engines[hot].predicted_stream_backlog(local, t)
            } else {
                engines[hot].stream_backlog(local) as f64
            };
            (q, local)
        })
        .filter(|&(q, local)| {
            q > 0.0
                && q < imbalance
                && state.eligible(engines[hot].global_stream_id(local), cooldown)
        })
        .min_by(|&(qa, la), &(qb, lb)| {
            (imbalance - 2.0 * qa)
                .abs()
                .total_cmp(&(imbalance - 2.0 * qb).abs())
                .then_with(|| {
                    engines[hot]
                        .global_stream_id(la)
                        .cmp(&engines[hot].global_stream_id(lb))
                })
        });
    let Some((_, local)) = candidate else {
        return; // nothing movable improves balance right now; next tick
    };
    let Some(m) = engines[hot].extract_stream(local) else {
        return;
    };
    state.last_move.insert(m.global_id(), state.tick);
    migrations.push(MigrationEvent {
        t_s: t,
        stream: m.global_id(),
        from_shard: hot,
        to_shard: cool,
        backlog_moved: m.queued(),
    });
    if let Some(r) = recorder {
        // Migrations are fleet-level decisions; they book under the shard
        // the stream left.
        r.record(
            t,
            hot,
            Event::Migration {
                stream: m.global_id(),
                from_shard: hot,
                to_shard: cool,
                backlog_moved: m.queued(),
            },
        );
    }
    engines[cool].admit_stream(m, t);
}

#[cfg(test)]
mod tests {
    use super::{pick_rebalance_pair, pick_rebalance_pair_by, RebalanceState};

    #[test]
    fn rebalance_pair_ties_break_to_lowest_shard_id() {
        // Tied hot shards: 1 and 2 share the maximum — 1 wins. Tied cool
        // shards: 0 and 3 share the minimum — 0 wins.
        assert_eq!(pick_rebalance_pair(&[0, 9, 9, 0], 0), Some((1, 0)));
        // The same loads permuted must move the *ids*, not the positions.
        assert_eq!(pick_rebalance_pair(&[9, 0, 0, 9], 0), Some((0, 1)));
        assert_eq!(pick_rebalance_pair(&[9, 9, 0, 0], 0), Some((0, 2)));
        // All-tied fleets never pick a pair, whatever the cost.
        assert_eq!(pick_rebalance_pair(&[5, 5, 5], 0), None);
    }

    #[test]
    fn rebalance_pair_respects_migration_cost() {
        // The gap must *strictly* exceed the cost to justify a move.
        assert_eq!(pick_rebalance_pair(&[8, 2], 6), None);
        assert_eq!(pick_rebalance_pair(&[8, 2], 5), Some((0, 1)));
    }

    #[test]
    fn rebalance_pair_handles_degenerate_fleets() {
        assert_eq!(pick_rebalance_pair(&[], 0), None);
        assert_eq!(pick_rebalance_pair(&[7], 0), None);
    }

    #[test]
    fn rebalance_pair_by_prices_fractional_predicted_loads() {
        // The predicted signal produces fractional loads: the gap must
        // still strictly exceed the cost.
        assert_eq!(pick_rebalance_pair_by(&[8.5, 2.0], 6.5), None);
        assert_eq!(pick_rebalance_pair_by(&[8.5, 2.0], 6.4), Some((0, 1)));
        // Tie rules match the integer path.
        assert_eq!(
            pick_rebalance_pair_by(&[0.5, 9.5, 9.5, 0.5], 0.0),
            Some((1, 0))
        );
    }

    #[test]
    fn cooldown_blocks_a_fresh_mover_until_the_ticks_pass() {
        let mut state = RebalanceState {
            tick: 5,
            ..Default::default()
        };
        state.last_move.insert(7, 5);
        // Cooldown 2: ineligible at ticks 6 and 7, eligible again at 8.
        for (tick, want) in [(6, false), (7, false), (8, true)] {
            state.tick = tick;
            assert_eq!(state.eligible(7, 2), want, "tick {tick}");
        }
        // A stream that never moved is always eligible.
        assert!(state.eligible(9, 2));
        // Cooldown 0 is the legacy rule: eligible on the very next tick.
        state.tick = 6;
        assert!(state.eligible(7, 0));
    }
}
