//! The frame scheduler: virtual-time discrete events over virtual worker
//! slots.
//!
//! # Execution model
//!
//! Serving is simulated in **virtual time** (the [`GpuTimingModel`] from
//! `catdet-core` prices every launch), while the detector *compute* — the
//! actual per-frame simulation, NMS and tracker updates — runs for real.
//! Proposals run on whichever thread owns the engine (a fleet's
//! shard-pool thread, or the caller's). Workers are scheduling state only:
//! a worker slot is a virtual GPU timeline, not an OS thread. Pipelines
//! advance through the resumable [`StagedDetector`] protocol, so the
//! scheduler sees (and can suspend at) each frame's stage boundaries
//! instead of one opaque call. The event loop:
//!
//! 1. ingests camera arrivals up to the current virtual time `t`, applying
//!    the bounded-queue drop policy;
//! 2. lets every worker free at `t` form a micro-batch: up to
//!    `max_batch` frames from *distinct* streams chosen by the schedule
//!    policy (a worker may instead wait up to `batch_window_s` for more
//!    streams to contribute);
//! 3. executes the **proposal stage** of every formed batch, then prices
//!    each batch's proposal launches as one fused GPU dispatch
//!    (`αΣW + b` instead of `Σ(αW + b)`), leaving every frame suspended at
//!    its refinement boundary;
//! 4. resumes the refinement stage:
//!    * with [`fuse_refinement`](ServeConfig::fuse_refinement) **off**,
//!      each frame's refinement launch is priced per-frame on its worker's
//!      timeline, exactly as before the staged redesign;
//!    * with it **on**, the suspended frames' [`RefinementWork`] items
//!      enter a fleet-wide fuse pool; after at most
//!      [`refine_batch_window_s`](ServeConfig::refine_batch_window_s) the
//!      pool is flushed as **one** fused refinement dispatch shared by all
//!      contributing streams — across batches and across workers;
//! 5. advances `t` to the next arrival, batch completion, refinement fuse
//!    deadline, window deadline, or control tick.
//!
//! # Refinement handoff
//!
//! A frame's completion time is priced from its [`RefinementWork`], which
//! is fixed at the proposal boundary, so the schedule never waits for the
//! refinement stage to *run*. Resuming a frame books everything the
//! schedule reads at once (latency, the stream's `busy_until`, worker
//! release, counters) and hands the suspended pipeline off as a
//! refinement job: to the fleet's shard pool when it has one, or run on
//! the spot otherwise, its output (or its caught panic) waiting in the
//! stream's slot either way. The job is *joined* — its ops and detections
//! booked, its pipeline parked — only at the stream's next batch claim,
//! when the stream migrates, or in the fleet's final join; every
//! scheduling predicate treats a refining stream as parked. The join
//! points are virtual-time events, so a panicking refinement surfaces at
//! the same point, with the same text, at every thread count.
//!
//! A recorded run books the frame's `Detection` and `Track` rows at the
//! join too, stamped with its completion time. Chunks are keyed per
//! (kind, shard, stream), and a stream's next row of either kind can only
//! come from its next completion, which follows the join, so a deferred
//! row lands at the same place in the same chunk. Only a row that fills
//! its chunk, or a snapshot, has a place in the store's order across
//! partitions (seal sequence, LRU eviction, snapshot survival); a
//! completion that books either is joined at once, through the same pool
//! slot. A handed-off frame is a detect frame, so it owes no `Policy`
//! row: that partition also takes the downgrade rows booked at arrivals,
//! which could land between a completion and its join.
//!
//! A **control plane** rides on the same virtual clock: arriving frames
//! pass an [`AdmissionPolicy`] before
//! entering their queue, and at every control interval a
//! [`ScalePolicy`] may grow or shrink the
//! *active* worker set (deactivated workers drain their current batch,
//! then stop taking work). Both decisions read only virtual-time counters
//! and are stamped into `ScaleEvent`/`AdmissionEvent` timelines.
//!
//! Scheduling decisions depend only on virtual quantities, never on
//! wall-clock timing, so a run is **bit-deterministic** for a given
//! configuration regardless of thread count or machine load — which is what
//! makes the cross-stream state-isolation tests (and the golden
//! scale-timeline tests) possible.
//!
//! [`GpuTimingModel`]: catdet_core::GpuTimingModel
//! [`StagedDetector`]: catdet_core::StagedDetector

use crate::admission::{
    build_admission, AdmissionContext, AdmissionEvent, AdmissionPolicy, AdmissionReason,
    DowngradeEvent,
};
use crate::autoscale::{
    window_p99, ControlSample, FixedScale, HysteresisScale, PredictiveScale, ProportionalScale,
    ScaleEvent, ScalePolicy,
};
use crate::config::{DropPolicy, ScalePolicyKind, SchedulePolicy, ServeConfig};
use crate::fleet::{caught, Refiner};
use crate::forecast::{ArrivalHistory, Forecast, RateForecaster};
use crate::replay::StreamSnapshot;
use crate::report::{BatchRecord, BatchStage, BatchStats, LatencyStats, ServeReport, StreamReport};
use crate::shard::RebalanceSignal;
use catdet_core::{
    output_hash, FrameOutput, OpsBreakdown, PolicedPipeline, PolicyConfig, PolicyDecision,
    PolicyKind, RefinementWork, StageStep, StagedDetector, SystemFactory,
};
use catdet_data::{Frame, StreamSource};
use catdet_recorder::{Event, EventKind, FlightRecorder, STAGE_PROPOSAL, STAGE_REFINEMENT};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

/// One camera stream plus the recipe for its private detection pipeline.
pub struct StreamSpec {
    /// The frame feed.
    pub source: StreamSource,
    /// Factory building this stream's own staged pipeline instance.
    pub factory: Arc<dyn SystemFactory>,
    /// Admission priority class (0 is highest; only consulted by the
    /// priority admission policy).
    pub priority: u8,
    /// Per-stream quality class: this stream's own detect-or-track frame
    /// policy, overriding [`ServeConfig::policy`](crate::ServeConfig::policy).
    /// `None` (the default) follows the run-wide setting.
    pub policy: Option<PolicyConfig>,
}

impl StreamSpec {
    /// Pairs a stream with its pipeline factory (top priority class).
    pub fn new(source: StreamSource, factory: Arc<dyn SystemFactory>) -> Self {
        Self {
            source,
            factory,
            priority: 0,
            policy: None,
        }
    }

    /// Returns a copy with a different admission priority class.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Returns a copy pinned to its own frame-policy quality class.
    pub fn with_policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = Some(policy);
        self
    }
}

/// Where a frame's proposal pass left its system.
enum StageOutcome {
    /// Suspended at the refinement boundary; carries the *executed*
    /// proposal cost and the priced pending refinement work.
    AtRefinement {
        proposal_macs: f64,
        refine: RefinementWork,
    },
    /// The frame ran to completion.
    Done(FrameOutput),
}

/// Begins `frame` and executes its proposal stage (if it has one),
/// suspending at the refinement boundary.
fn run_proposal(system: &mut dyn StagedDetector, frame: &Frame) -> StageOutcome {
    system.begin_frame(frame);
    let mut proposal_macs = 0.0;
    loop {
        match system.step() {
            StageStep::NeedsProposal(work) => {
                // Accumulate: the protocol permits multi-pass proposal
                // stages, each priced separately.
                proposal_macs += system.complete_proposal(work).macs;
            }
            StageStep::NeedsRefinement(refine) => {
                return StageOutcome::AtRefinement {
                    proposal_macs,
                    refine,
                };
            }
            StageStep::Done(out) => return StageOutcome::Done(out),
        }
    }
}

/// Resumes a system suspended at its refinement boundary and finishes
/// the frame.
fn run_refinement(system: &mut dyn StagedDetector, work: RefinementWork) -> FrameOutput {
    system.complete_refinement(work);
    match system.step() {
        StageStep::Done(out) => out,
        _ => panic!("refinement stage did not finish the frame"),
    }
}

/// A handed-off refinement's result: the pipeline, and its frame's output
/// or the text of the panic the refinement raised.
pub(crate) type Refinement = (Box<dyn StagedDetector>, Result<FrameOutput, String>);

/// Runs a handed-off refinement job, catching a panic as its text (the
/// job's join re-raises it).
pub(crate) fn refine_job(mut system: Box<dyn StagedDetector>, work: RefinementWork) -> Refinement {
    let out = caught(|| run_refinement(&mut *system, work));
    (system, out)
}

/// A frame priced per-frame on its worker's timeline and resumed,
/// waiting for its completion to be booked in stream order.
struct Refined {
    stream: usize,
    frame_idx: usize,
    arrival_s: f64,
    completion_s: f64,
    job: Handoff,
}

/// Where a stream's pipeline is.
enum Pipeline {
    /// At a frame boundary, free to begin the next frame.
    Parked(Box<dyn StagedDetector>),
    /// A frame in flight: claimed by a batch being priced, or suspended in
    /// a refinement fuse pool.
    InFlight,
    /// Frame `frame_idx` is complete on the schedule at `completion_s` and
    /// its refinement handed off; the stream's next join books its output
    /// (and a recorded run's rows) and parks the pipeline. Scheduling
    /// treats the stream as parked.
    Refining {
        frame_idx: usize,
        completion_s: f64,
        job: Handoff,
    },
}

impl Pipeline {
    fn in_flight(&self) -> bool {
        matches!(self, Pipeline::InFlight)
    }
}

/// A resumed frame's refinement job.
enum Handoff {
    /// Run at once, because the engine has no pool to take it; the result
    /// waits here.
    Ran(Refinement),
    /// Queued on the fleet's shard pool under the stream's slot.
    Pooled,
}

enum WorkerState {
    Idle,
    /// Holding an under-full batch open until `deadline`.
    Waiting {
        deadline: f64,
    },
    Busy {
        until: f64,
    },
}

pub(crate) struct StreamRt {
    /// The stream's fleet-wide identity ([`StreamSource::stream_id`]): the
    /// engine makes no assumption that it equals the local slot index, so
    /// a shard serving an arbitrary subset of a fleet reports correctly.
    global_id: usize,
    /// Admission priority class (travels with the stream on migration).
    priority: u8,
    /// The stream's slot in the fleet's refinement handoff table (its
    /// position in the run's stream list; it travels on migration).
    slot: usize,
    frames: Vec<(f64, Frame)>,
    /// Next frame (index into `frames`) that has not yet arrived.
    next_arrival: usize,
    /// Arrived, not yet scheduled frames (indices into `frames`).
    queue: VecDeque<usize>,
    /// The stream's pipeline.
    pipeline: Pipeline,
    /// Virtual time until which the stream's pipeline is occupied.
    busy_until: f64,
    system_name: String,
    arrived: usize,
    processed: usize,
    dropped: usize,
    rejected: usize,
    /// Frames completed from tracker state alone (policy decided Coast).
    coasted: usize,
    /// Frames skipped outright by a stride policy.
    skipped: usize,
    /// Admission's downgrade-before-drop rung is currently holding this
    /// stream's policy one class down. The authoritative flag travels
    /// inside the policied pipeline (so it migrates and snapshots); this
    /// mirror is what admission reads without touching the system box.
    degraded: bool,
    /// Bucketed arrival counts feeding the rate forecaster. Owned by the
    /// stream (not the engine) so it migrates with it and a forecast is
    /// identical before and after an `extract_stream`/`admit_stream` hop.
    history: ArrivalHistory,
    /// The stream's last forecast and the tick time it was made for, so
    /// each stream is estimated at most once per tick however many
    /// readers ask. Cleared by every arrival the history records; it
    /// travels with the stream like the history.
    forecast_memo: Cell<Option<(f64, Forecast)>>,
    latencies: Vec<f64>,
    ops: OpsBreakdown,
    outputs: Vec<(usize, Vec<catdet_metrics::Detection>)>,
}

/// A stream lifted out of one shard's engine for live migration: the
/// complete per-stream runtime — suspended pipeline (tracker and
/// `FrameScratch` state travel inside the boxed system), undelivered
/// frames, queued backlog, and every accounting counter — so the target
/// shard continues it with exact frame conservation.
///
/// Extraction is only possible at a **stage-boundary suspend point**: the
/// pipeline must not have a frame in flight (none waiting in a refinement
/// fuse pool), and a handed-off refinement is joined first, so all
/// cross-frame state is consolidated in the parked system box.
pub(crate) struct MigratedStream {
    rt: StreamRt,
}

impl MigratedStream {
    /// The stream's fleet-wide id.
    pub(crate) fn global_id(&self) -> usize {
        self.rt.global_id
    }

    /// Frames currently queued (the backlog the migration relocates).
    pub(crate) fn queued(&self) -> usize {
        self.rt.queue.len()
    }
}

/// What planning a step's batches reads of the streams: those that could
/// join a batch now ([`eligible`](Engine::eligible_stream_count)), those
/// that still could some time ([`live`](Engine::live_stream_count)), and
/// whether any stream has frames yet to arrive.
struct StreamCounts {
    eligible: usize,
    live: usize,
    more_frames_coming: bool,
}

struct PlannedBatch {
    worker: usize,
    start: f64,
    /// `(stream, frame_idx, arrival_s)` in schedule order.
    items: Vec<(usize, usize, f64)>,
}

/// A frame suspended at its refinement boundary, waiting in a fuse pool
/// for a shared dispatch (the engine's own pool, or — in a sharded fleet
/// with cross-shard fusion — the fleet-level pool spanning engines).
struct PendingRefine {
    stream: usize,
    /// Worker slot whose batch this frame came from (held open until the
    /// dispatch completes).
    worker: usize,
    frame_idx: usize,
    arrival_s: f64,
    /// Virtual time the frame reached the boundary (proposal priced).
    ready_s: f64,
    /// Latest dispatch time: `ready_s + refine_batch_window_s`.
    deadline_s: f64,
    work: RefinementWork,
    system: Box<dyn StagedDetector>,
}

/// The embeddable per-shard scheduler: one virtual-time event loop over
/// a set of virtual worker slots, executing proposals on the thread that
/// owns it and handing refinements off (see the module docs).
/// [`serve_fleet`](crate::serve_fleet) runs one per
/// shard ([`serve`](crate::serve) is the 1-shard case), advancing them
/// in lock-step epochs via [`run_until`](Engine::run_until) and moving
/// streams between them with [`extract_stream`](Engine::extract_stream) /
/// [`admit_stream`](Engine::admit_stream).
pub(crate) struct Engine {
    cfg: ServeConfig,
    /// The engine's own virtual clock (injected at construction, advanced
    /// only by [`run_until`] / [`advance_clock_to`](Engine::advance_clock_to)).
    clock: f64,
    /// When set, the engine never fires its refinement fuse pool itself:
    /// a fleet coordinator drains it across shards (cross-shard fusion).
    external_refine: bool,
    streams: Vec<StreamRt>,
    /// Worker slots, sized for the autoscale ceiling; only the first
    /// `active_workers` are eligible for new batches, but slots beyond
    /// that still finish whatever they were running when a scale-down
    /// struck.
    workers: Vec<WorkerState>,
    active_workers: usize,
    rr_cursor: usize,
    batch_stats: BatchStats,
    last_completion: f64,
    // Control plane: everything below is driven purely by virtual time.
    scale_policy: Box<dyn ScalePolicy>,
    admission: Box<dyn AdmissionPolicy>,
    /// Shared per-stream arrival-rate forecaster (a pure function of each
    /// stream's [`ArrivalHistory`]), consulted by the predictive scale
    /// policy and the fleet's predicted-load rebalance signal.
    forecaster: RateForecaster,
    /// Control ticks aggregate forecasts into the [`ControlSample`] (and
    /// book `Forecast` events) only when autoscaling is on and either the
    /// predictive scale policy or the predicted rebalance signal reads
    /// them, so every other configuration's recorded byte stream is
    /// untouched.
    forecast_active: bool,
    /// Next control tick, `INFINITY` when autoscaling is off.
    next_control_s: f64,
    /// Frames queued across all streams (kept in lock-step with the
    /// per-stream queues so admission can read it in O(1)).
    total_queued: usize,
    /// Integral of provisioned workers over virtual time: the active set
    /// plus any deactivated slots still draining a batch, so a scale-down
    /// keeps paying for in-flight compute.
    worker_seconds: f64,
    /// Summed virtual time of all priced GPU dispatches (launch time plus
    /// the per-stage framework overhead) — the figure refinement fusion
    /// exists to shrink.
    gpu_dispatch_s: f64,
    /// Frames suspended at the refinement boundary (only populated when
    /// `fuse_refinement` is on).
    refine_pending: Vec<PendingRefine>,
    /// The frames of the fused dispatch being fired, lifted out of
    /// `refine_pending` in pool order; empty between dispatches.
    refine_ready: Vec<PendingRefine>,
    /// The fleet's shard pool, which takes handed-off refinement jobs;
    /// `None` when the run has no pool (jobs then run at once).
    refiner: Option<Refiner>,
    /// Per worker slot: the end of any per-frame work a held-open batch
    /// priced on its timeline before suspending the rest in the fuse
    /// pool; a lower bound on the slot's release time. Zero when the slot
    /// holds nothing.
    hold_floor: Vec<f64>,
    // Per-control-window counters, reset at every tick. Latencies carry
    // their completion time so a tick only consumes samples that actually
    // completed inside its window (batches priced before a tick can
    // finish after it). Only populated while autoscaling is on.
    win_arrived: usize,
    win_shed: usize,
    win_latencies: Vec<(f64, f64)>,
    /// One tick's window latencies, reused across ticks.
    window_buf: Vec<f64>,
    scale_events: Vec<ScaleEvent>,
    admission_events: Vec<AdmissionEvent>,
    downgrade_events: Vec<DowngradeEvent>,
    batch_log: Vec<BatchRecord>,
    // Dispatch scratch, reused across events so the steady-state loop
    // stops allocating per dispatch. `slot_items` is per worker *slot*
    // (provisioned up to the autoscale ceiling), so the buffers survive
    // active-set resizes.
    /// Per-slot batch item buffers lent to `PlannedBatch`.
    slot_items: Vec<Vec<(usize, usize, f64)>>,
    /// One batch's systems and proposal outcomes, in batch order.
    staged_buf: Vec<(Box<dyn StagedDetector>, StageOutcome)>,
    /// Per-frame refinements awaiting their completion booking.
    refined_buf: Vec<Refined>,
    /// Stream selection buffer for `pick_batch_into`.
    chosen_buf: Vec<usize>,
    /// The batches one `step_workers` call plans.
    planned_buf: Vec<PlannedBatch>,
    /// Flight-recorder sink ([`NullRecorder`] when recording is off —
    /// every site is guarded by `enabled()` so the disabled path builds
    /// no events).
    recorder: Box<dyn FlightRecorder>,
}

pub(crate) const EPS: f64 = 1e-9;

impl Engine {
    /// An engine over `specs`, each paired with its slot in the fleet's
    /// refinement handoff table.
    pub(crate) fn new(
        specs: Vec<(usize, StreamSpec)>,
        cfg: &ServeConfig,
        start_clock: f64,
        external_refine: bool,
        recorder: Box<dyn FlightRecorder>,
        refiner: Option<Refiner>,
    ) -> Self {
        let priorities: Vec<u8> = specs.iter().map(|(_, spec)| spec.priority).collect();
        let streams: Vec<StreamRt> = specs
            .into_iter()
            .map(|(slot, spec)| {
                // Streams get a policy layer only when one can matter: a
                // non-default policy (run-wide or per-stream), or the
                // downgrade rung (which demotes even always-detect
                // streams). The default path builds the bare pipeline —
                // bit-identical to pre-policy behaviour by construction.
                let policy = spec.policy.unwrap_or(cfg.policy);
                let system = if policy.kind != PolicyKind::AlwaysDetect || cfg.admission.downgrade {
                    Box::new(PolicedPipeline::new(spec.factory.build_staged(), policy))
                        as Box<dyn StagedDetector>
                } else {
                    spec.factory.build_staged()
                };
                StreamRt {
                    global_id: spec.source.stream_id,
                    priority: spec.priority,
                    slot,
                    system_name: system.name(),
                    frames: spec
                        .source
                        .into_iter()
                        .map(|sf| (sf.arrival_s, sf.frame))
                        .collect(),
                    next_arrival: 0,
                    queue: VecDeque::new(),
                    pipeline: Pipeline::Parked(system),
                    busy_until: 0.0,
                    arrived: 0,
                    processed: 0,
                    dropped: 0,
                    rejected: 0,
                    coasted: 0,
                    skipped: 0,
                    degraded: false,
                    history: ArrivalHistory::new(&cfg.forecast),
                    forecast_memo: Cell::new(None),
                    latencies: Vec::new(),
                    ops: OpsBreakdown::default(),
                    outputs: Vec::new(),
                }
            })
            .collect();

        let autoscaling = cfg.autoscale.enabled();
        let scale_policy: Box<dyn ScalePolicy> = match cfg.autoscale.policy {
            ScalePolicyKind::Fixed => Box::new(FixedScale),
            ScalePolicyKind::Hysteresis => Box::new(HysteresisScale::from_config(&cfg.autoscale)),
            ScalePolicyKind::Proportional => {
                Box::new(ProportionalScale::from_config(&cfg.autoscale))
            }
            ScalePolicyKind::Predictive => {
                Box::new(PredictiveScale::from_config(&cfg.autoscale, &cfg.forecast))
            }
        };
        let admission = build_admission(&cfg.admission, &priorities);
        // With autoscaling on, slots are provisioned up to the ceiling;
        // the initial configured count seeds the active set within the
        // controller's bounds.
        let (slots, active_workers) = if autoscaling {
            (
                cfg.workers.max(cfg.autoscale.max_workers),
                cfg.workers
                    .clamp(cfg.autoscale.min_workers, cfg.autoscale.max_workers),
            )
        } else {
            (cfg.workers, cfg.workers)
        };

        Self {
            streams,
            clock: start_clock,
            external_refine,
            workers: (0..slots).map(|_| WorkerState::Idle).collect(),
            active_workers,
            rr_cursor: 0,
            batch_stats: BatchStats::default(),
            last_completion: 0.0,
            cfg: *cfg,
            scale_policy,
            admission,
            forecaster: RateForecaster::new(cfg.forecast),
            forecast_active: autoscaling
                && (cfg.autoscale.policy == ScalePolicyKind::Predictive
                    || cfg.shard.rebalance_signal == RebalanceSignal::Predicted),
            next_control_s: if autoscaling {
                start_clock + cfg.autoscale.control_interval_s
            } else {
                f64::INFINITY
            },
            total_queued: 0,
            worker_seconds: 0.0,
            gpu_dispatch_s: 0.0,
            refine_pending: Vec::new(),
            refine_ready: Vec::new(),
            refiner,
            hold_floor: vec![0.0; slots],
            win_arrived: 0,
            win_shed: 0,
            win_latencies: Vec::new(),
            window_buf: Vec::new(),
            scale_events: Vec::new(),
            admission_events: Vec::new(),
            downgrade_events: Vec::new(),
            batch_log: Vec::new(),
            slot_items: (0..slots).map(|_| Vec::new()).collect(),
            staged_buf: Vec::new(),
            refined_buf: Vec::new(),
            chosen_buf: Vec::new(),
            planned_buf: Vec::new(),
            recorder,
        }
    }

    /// Integrates provisioned-worker time over `[from, to]`. Draining
    /// slots stop exactly at their batch's `until`, which is itself an
    /// event, so the count is constant over the span and the integral is
    /// exact.
    fn accrue_workers(&mut self, from: f64, to: f64) {
        let draining = self.workers[self.active_workers..]
            .iter()
            .filter(|w| matches!(w, WorkerState::Busy { .. }))
            .count();
        self.worker_seconds += (self.active_workers + draining) as f64 * (to - from);
    }

    /// Advances the event loop through every event at or before `limit`,
    /// leaving the clock at `min(limit, time the work ran out)`. Returns
    /// whether work remains beyond the limit.
    ///
    /// Passing `f64::INFINITY` runs to completion (the [`serve`] path —
    /// one call, bit-identical to the historical monolithic loop). A fleet
    /// passes its next coordination point (rebalance tick or cross-shard
    /// refinement deadline): between events nothing changes state, so
    /// stopping at a non-event instant and re-entering later is exact.
    pub(crate) fn run_until(&mut self, limit: f64) -> bool {
        loop {
            let now = self.clock;
            self.ingest_arrivals(now);
            self.control_ticks(now);
            self.step_workers(now);
            if !self.external_refine {
                self.fire_refinements(now);
            }
            match self.next_event(now) {
                Some(t) if t <= limit => {
                    self.accrue_workers(now, t);
                    self.clock = t;
                }
                Some(_) => {
                    if limit.is_finite() && limit > now {
                        self.accrue_workers(now, limit);
                        self.clock = limit;
                    }
                    return true;
                }
                None => return false,
            }
        }
    }

    /// Jumps a drained engine's clock forward to the fleet's current time
    /// (no worker-seconds accrue: the engine had no work, matching the
    /// monolithic loop's untimed tail). Used before re-admitting a
    /// migrated stream so its frames are never processed "in the past".
    pub(crate) fn advance_clock_to(&mut self, t: f64) {
        self.clock = self.clock.max(t);
    }

    /// The engine's next event time (`None` when fully drained), from the
    /// perspective of a fleet choosing its next coordination point.
    pub(crate) fn next_event_time(&self) -> Option<f64> {
        self.next_event(self.clock)
    }

    /// Earliest refinement fuse-pool deadline (`INFINITY` when empty).
    pub(crate) fn refine_deadline(&self) -> f64 {
        self.refine_pending
            .iter()
            .map(|p| p.deadline_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Lifts every fuse-pool frame ready by `due` into the dispatch buffer,
    /// keeping pool order on both sides: the extraction half of
    /// [`fire_refinements`], which a fleet-level fused dispatch spanning
    /// shards reads through [`ready_refinements`](Self::ready_refinements)
    /// before [`resume_refinements`](Self::resume_refinements).
    pub(crate) fn take_ready_refinements(&mut self, due: f64) {
        debug_assert!(self.refine_ready.is_empty(), "a dispatch was not resumed");
        self.refine_ready.extend(
            self.refine_pending
                .extract_if(.., |p| p.ready_s <= due + EPS),
        );
    }

    /// The lifted frames as `(fleet-wide stream id, priced MACs)`, in
    /// dispatch order.
    pub(crate) fn ready_refinements(&self) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        self.refine_ready
            .iter()
            .map(|p| (self.streams[p.stream].global_id, p.work.macs))
    }

    /// The fleet-wide id of a local stream slot.
    pub(crate) fn global_stream_id(&self, local: usize) -> usize {
        self.streams[local].global_id
    }

    /// Queued frames across this engine's live streams (the rebalancer's
    /// load signal).
    pub(crate) fn backlog(&self) -> usize {
        self.total_queued
    }

    /// Local slots of streams that can migrate right now: live, with no
    /// frame in flight (a stage-boundary suspend point — no frame in a
    /// fuse pool; a handed-off refinement is joined on extraction).
    pub(crate) fn migratable_streams(&self) -> impl Iterator<Item = usize> + '_ {
        self.streams
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.pipeline.in_flight())
            .filter(|(_, s)| {
                // Still worth moving: the stream must have any future at all.
                !s.queue.is_empty() || s.next_arrival < s.frames.len()
            })
            .map(|(i, _)| i)
    }

    /// Queue length of a local stream slot.
    pub(crate) fn stream_backlog(&self, local: usize) -> usize {
        self.streams[local].queue.len()
    }

    /// One stream's forecast at tick `t`, through its memo: a forecast is
    /// a pure function of (config, history, `t`), so a memo hit is
    /// bit-identical to estimating again.
    fn stream_forecast(&self, s: &StreamRt, t: f64) -> Forecast {
        if let Some((at, f)) = s.forecast_memo.get() {
            if at.to_bits() == t.to_bits() {
                return f;
            }
        }
        let f = self.forecaster.forecast(&s.history, t);
        s.forecast_memo.set(Some((t, f)));
        f
    }

    /// One stream's forecast arrivals (frames) over the forecast horizon.
    fn forecast_frames(&self, s: &StreamRt, t: f64) -> f64 {
        self.stream_forecast(s, t).rate_fps * self.forecaster.config().horizon_s
    }

    /// Queued backlog plus forecast arrivals over the forecast horizon,
    /// summed across live streams — the fleet rebalancer's *predicted*
    /// load signal. A pure function of (config, histories, `t`), so it is
    /// identical at every `--threads` when read at a fleet barrier.
    pub(crate) fn predicted_backlog(&self, t: f64) -> f64 {
        self.streams
            .iter()
            .map(|s| s.queue.len() as f64 + self.forecast_frames(s, t))
            .sum()
    }

    /// One local slot's predicted load (same units as
    /// [`predicted_backlog`](Self::predicted_backlog)).
    pub(crate) fn predicted_stream_backlog(&self, local: usize, t: f64) -> f64 {
        let s = &self.streams[local];
        s.queue.len() as f64 + self.forecast_frames(s, t)
    }

    /// Runs the forecaster over every live stream at control tick `t`:
    /// returns (summed rate, mean confidence) for the [`ControlSample`]
    /// and books one `Forecast` event per stream when recording.
    fn forecast_tick(&mut self, t: f64) -> (f64, f64) {
        let mut rate = 0.0;
        let mut conf = 0.0;
        for s in &self.streams {
            let f = self.stream_forecast(s, t);
            rate += f.rate_fps;
            conf += f.confidence;
            if self.recorder.enabled() {
                self.recorder.record(
                    t,
                    Event::Forecast {
                        stream: s.global_id,
                        rate_fps: f.rate_fps,
                        confidence: f.confidence,
                        phase: f.phase.code(),
                    },
                );
            }
        }
        if self.streams.is_empty() {
            (0.0, 0.0)
        } else {
            (rate, conf / self.streams.len() as f64)
        }
    }

    /// Lifts a stream out of this engine for migration and removes its
    /// slot. Returns `None` if the stream is not at a suspend point (frame
    /// in a fuse pool) — the rebalancer simply tries again at the next
    /// tick. A handed-off refinement is joined first, so the stream leaves
    /// parked.
    ///
    /// Every later slot moves down one, so the engine remaps each local
    /// index it keeps: the fuse-pool frames, the round-robin cursor and
    /// the admission policy's per-stream state. The remaining streams keep
    /// their visiting order.
    ///
    /// # Panics
    ///
    /// Re-raises the payload text of a panic that refinement raised.
    pub(crate) fn extract_stream(&mut self, local: usize) -> Option<MigratedStream> {
        if self.streams[local].pipeline.in_flight() {
            return None;
        }
        self.join(local);
        let rt = self.streams.remove(local);
        self.admission.on_stream_removed(local);
        for p in self.refine_pending.iter_mut().chain(&mut self.refine_ready) {
            debug_assert_ne!(p.stream, local, "a fuse-pool frame is in flight");
            if p.stream > local {
                p.stream -= 1;
            }
        }
        if self.rr_cursor > local {
            self.rr_cursor -= 1;
        }
        self.total_queued -= rt.queue.len();
        Some(MigratedStream { rt })
    }

    /// Re-admits a migrated stream into this engine at fleet time `now`:
    /// the stream keeps its global id, suspended pipeline, queued backlog
    /// and all accounting; per-stream admission state (token-bucket fill)
    /// restarts on the target shard. Exactly the frames that were queued
    /// or not yet arrived on the source shard remain to be served here,
    /// so fleet conservation is preserved by construction.
    pub(crate) fn admit_stream(&mut self, m: MigratedStream, now: f64) {
        self.advance_clock_to(now);
        let rt = m.rt;
        self.total_queued += rt.queue.len();
        self.admission.on_stream_added(rt.priority);
        self.streams.push(rt);
    }

    /// Fires every control tick due by `now`: samples the window, asks the
    /// scale policy, and applies (clamped) worker-count changes.
    fn control_ticks(&mut self, now: f64) {
        while self.next_control_s <= now + EPS {
            let t = self.next_control_s;
            self.next_control_s += self.cfg.autoscale.control_interval_s;
            // Consume exactly the latencies whose frames completed by this
            // tick; later completions stay queued for the next window.
            let window = &mut self.window_buf;
            window.clear();
            self.win_latencies.retain(|&(completed_s, latency_s)| {
                if completed_s <= t + EPS {
                    window.push(latency_s);
                    false
                } else {
                    true
                }
            });
            let window_p99_s = window_p99(window);
            let (forecast_rate_fps, forecast_confidence) = if self.forecast_active {
                self.forecast_tick(t)
            } else {
                (0.0, 0.0)
            };
            let sample = ControlSample {
                now_s: t,
                active_workers: self.active_workers,
                busy_workers: self.workers[..self.active_workers]
                    .iter()
                    .filter(|w| matches!(w, WorkerState::Busy { .. }))
                    .count(),
                backlog: self.total_queued,
                window_arrived: self.win_arrived,
                window_shed: self.win_shed,
                window_p99_s,
                forecast_rate_fps,
                forecast_confidence,
            };
            self.win_arrived = 0;
            self.win_shed = 0;
            if let Some((target, reason)) = self.scale_policy.desired_workers(&sample) {
                let target = target.clamp(
                    self.cfg.autoscale.min_workers,
                    self.cfg.autoscale.max_workers,
                );
                if target != self.active_workers {
                    // Deactivated slots holding a batch window open must
                    // not dispatch later; busy ones finish their batch.
                    for w in &mut self.workers[target..self.active_workers.max(target)] {
                        if matches!(w, WorkerState::Waiting { .. }) {
                            *w = WorkerState::Idle;
                        }
                    }
                    self.scale_events.push(ScaleEvent {
                        t_s: t,
                        from_workers: self.active_workers,
                        to_workers: target,
                        reason,
                    });
                    if self.recorder.enabled() {
                        self.recorder.record(
                            t,
                            Event::Scale {
                                from_workers: self.active_workers,
                                to_workers: target,
                                reason: reason.code(),
                            },
                        );
                    }
                    self.active_workers = target;
                }
            }
        }
    }

    /// Pushes every frame with `arrival ≤ now` into its stream queue,
    /// consulting the admission policy at the door and applying the drop
    /// policy at capacity.
    fn ingest_arrivals(&mut self, now: f64) {
        for i in 0..self.streams.len() {
            loop {
                let s = &self.streams[i];
                if s.next_arrival >= s.frames.len() || s.frames[s.next_arrival].0 > now + EPS {
                    break;
                }
                let idx = s.next_arrival;
                let arrival_s = s.frames[idx].0;
                {
                    let s = &mut self.streams[i];
                    s.next_arrival += 1;
                    s.arrived += 1;
                    // Offered load, counted before admission/drops: the
                    // forecaster tracks what the camera sends, not what
                    // the door lets through.
                    s.history.record(arrival_s);
                    s.forecast_memo.set(None);
                }
                self.win_arrived += 1;
                let ctx = AdmissionContext {
                    now_s: arrival_s,
                    stream: i,
                    priority: self.streams[i].priority,
                    total_backlog: self.total_queued,
                };
                match self.admission.admit(&ctx) {
                    Err(AdmissionReason::Shed)
                        if self.cfg.admission.downgrade
                            && self.admission.supports_downgrade()
                            && !self.streams[i].degraded =>
                    {
                        // Downgrade-before-drop: instead of shedding the
                        // frame, admit it and demote the stream's frame
                        // policy one class. The pipeline picks the flag up
                        // at its next dispatch (a frame boundary), so the
                        // decision ladder shifts without ever touching a
                        // frame mid-flight.
                        self.record_downgrade(i, arrival_s, true);
                    }
                    Err(reason) => {
                        let s = &mut self.streams[i];
                        s.dropped += 1;
                        s.rejected += 1;
                        self.win_shed += 1;
                        // Events are report surface: they carry the
                        // fleet-wide id, like every other per-stream
                        // figure.
                        let global = self.streams[i].global_id;
                        self.admission_events.push(AdmissionEvent {
                            t_s: arrival_s,
                            stream: global,
                            reason,
                        });
                        if self.recorder.enabled() {
                            self.recorder.record(
                                arrival_s,
                                Event::Admission {
                                    stream: global,
                                    reason: reason.code(),
                                },
                            );
                        }
                        continue;
                    }
                    Ok(()) => {
                        // Overload has cleared for this stream: restore its
                        // policy class on the first clean admission.
                        if self.streams[i].degraded {
                            self.record_downgrade(i, arrival_s, false);
                        }
                    }
                }
                let s = &mut self.streams[i];
                if s.queue.len() >= self.cfg.queue_capacity {
                    match self.cfg.drop_policy {
                        DropPolicy::Newest => {
                            s.dropped += 1;
                            self.win_shed += 1;
                            continue;
                        }
                        DropPolicy::Oldest => {
                            s.queue.pop_front();
                            s.dropped += 1;
                            self.win_shed += 1;
                            self.total_queued -= 1;
                        }
                    }
                }
                s.queue.push_back(idx);
                self.total_queued += 1;
            }
        }
    }

    /// Books one flip of a stream's downgrade rung (`on` demotes, `off`
    /// restores) into the stream mirror, the report timeline, and the
    /// flight recorder.
    fn record_downgrade(&mut self, stream: usize, t_s: f64, on: bool) {
        self.streams[stream].degraded = on;
        let global = self.streams[stream].global_id;
        self.downgrade_events.push(DowngradeEvent {
            t_s,
            stream: global,
            on,
        });
        if self.recorder.enabled() {
            self.recorder.record(
                t_s,
                Event::Policy {
                    stream: global,
                    frame_index: 0,
                    decision: if on {
                        catdet_recorder::POLICY_DEGRADED_ON
                    } else {
                        catdet_recorder::POLICY_DEGRADED_OFF
                    },
                    streak: 0,
                },
            );
        }
    }

    /// Books a finished frame back into its stream at `completion_s`: its
    /// schedule, then its output.
    fn complete_frame(
        &mut self,
        stream: usize,
        frame_idx: usize,
        arrival_s: f64,
        completion_s: f64,
        system: Box<dyn StagedDetector>,
        out: FrameOutput,
    ) {
        self.book_schedule(stream, arrival_s, completion_s);
        self.book_output(stream, frame_idx, completion_s, system, out);
    }

    /// Books the half of a frame's completion that scheduling reads: its
    /// latency, the stream's `busy_until` and the frame counts.
    fn book_schedule(&mut self, stream: usize, arrival_s: f64, completion_s: f64) {
        if self.next_control_s.is_finite() {
            self.win_latencies
                .push((completion_s, completion_s - arrival_s));
        }
        let s = &mut self.streams[stream];
        s.busy_until = completion_s;
        s.processed += 1;
        s.latencies.push(completion_s - arrival_s);
        self.last_completion = self.last_completion.max(completion_s);
    }

    /// Books the output of a frame completed at `completion_s` into its
    /// stream: its recorder rows when recording, then its ops, policy
    /// counts and detections. Parks its pipeline.
    fn book_output(
        &mut self,
        stream: usize,
        frame_idx: usize,
        completion_s: f64,
        system: Box<dyn StagedDetector>,
        out: FrameOutput,
    ) {
        if self.recorder.enabled() {
            self.record_completion(stream, frame_idx, completion_s, &*system, &out);
        }
        let s = &mut self.streams[stream];
        s.ops.accumulate(&out.ops);
        // Per-policy frame accounting; detect frames (and unpoliced
        // pipelines, which report no decision) count only as processed.
        match system.policy_decision() {
            Some(PolicyDecision::Coast) => s.coasted += 1,
            Some(PolicyDecision::Skip) => s.skipped += 1,
            _ => {}
        }
        let frame_index = s.frames[frame_idx].1.index;
        s.pipeline = Pipeline::Parked(system);
        s.outputs.push((frame_index, out.detections));
    }

    /// Books a completed frame's `Detection`, `Track` and policy rows, and
    /// its snapshot when one is due.
    fn record_completion(
        &mut self,
        stream: usize,
        frame_idx: usize,
        completion_s: f64,
        system: &dyn StagedDetector,
        out: &FrameOutput,
    ) {
        let snapshot_every = self.recorder.snapshot_interval();
        let s = &self.streams[stream];
        let decision = system.policy_decision();
        let arrival_s = s.frames[frame_idx].0;
        let frame_index = s.frames[frame_idx].1.index;
        let global = s.global_id;
        let seq = s.processed;
        // A frame completes with its pipeline parked at a stage boundary —
        // exactly the suspend points migration relies on — so a snapshot
        // here captures the complete cross-frame state.
        let snapshot = if snapshot_every > 0 && seq.is_multiple_of(snapshot_every) {
            system.export_state().map(|state| StreamSnapshot {
                state,
                arrived: s.arrived,
                processed: s.processed,
                dropped: s.dropped,
                queue_depth: s.queue.len(),
            })
        } else {
            None
        };
        self.recorder.record(
            completion_s,
            Event::Detection {
                stream: global,
                seq,
                frame_index,
                detections: out.detections.len(),
                latency_s: completion_s - arrival_s,
                output_hash: output_hash(&out.detections),
            },
        );
        self.recorder.record(
            completion_s,
            Event::Track {
                stream: global,
                frame_index,
                live_tracks: system.live_tracks(),
            },
        );
        // Only coasted and skipped frames book a policy row — detect frames
        // leave the recorded byte stream exactly as an unpoliced run would
        // write it (the golden-identity contract).
        if let Some(d @ (PolicyDecision::Coast | PolicyDecision::Skip)) = decision {
            self.recorder.record(
                completion_s,
                Event::Policy {
                    stream: global,
                    frame_index,
                    decision: d.code(),
                    streak: system.policy_coast_streak(),
                },
            );
        }
        if let Some(snap) = snapshot {
            self.recorder
                .snapshot(completion_s, global, seq, Arc::new(snap));
        }
    }

    /// Resumes `system`, suspended at `stream`'s refinement boundary: the
    /// one refine step of the per-frame and the fused paths. The job goes
    /// to the fleet's shard pool when the engine has one, and runs here
    /// otherwise (see the module docs).
    fn resume(
        &self,
        stream: usize,
        system: Box<dyn StagedDetector>,
        work: RefinementWork,
    ) -> Handoff {
        match &self.refiner {
            Some(pool) => {
                pool.submit(self.streams[stream].slot, system, work);
                Handoff::Pooled
            }
            None => Handoff::Ran(refine_job(system, work)),
        }
    }

    /// Books a resumed frame's completion at `completion_s`: the schedule
    /// half now, the output at the stream's next join. A recorded
    /// completion whose rows have a place in the store's order across
    /// partitions is joined at once (see the module docs).
    ///
    /// # Panics
    ///
    /// As [`join`](Self::join), when the completion is joined at once.
    fn complete_resumed(
        &mut self,
        stream: usize,
        frame_idx: usize,
        arrival_s: f64,
        completion_s: f64,
        job: Handoff,
    ) {
        self.book_schedule(stream, arrival_s, completion_s);
        self.streams[stream].pipeline = Pipeline::Refining {
            frame_idx,
            completion_s,
            job,
        };
        if self.recorder.enabled() && self.books_in_store_order(stream) {
            self.join(stream);
        }
    }

    /// Whether `stream`'s completion just booked on the schedule would, once
    /// recorded, fill a `Detection` or `Track` chunk or capture a snapshot.
    fn books_in_store_order(&self, stream: usize) -> bool {
        let s = &self.streams[stream];
        let every = self.recorder.snapshot_interval();
        (every > 0 && s.processed.is_multiple_of(every))
            || [EventKind::Detection, EventKind::Track]
                .into_iter()
                .any(|kind| self.recorder.next_row_fills(kind, s.global_id))
    }

    /// Joins a stream's handed-off refinement, if it has one: books the
    /// frame's output (and a recorded run's rows, at the frame's
    /// completion time) and parks the pipeline. Takes the job back from
    /// the pool when no thread has started it, and waits for it otherwise.
    ///
    /// # Panics
    ///
    /// Re-raises the payload text of a panic the refinement raised, for
    /// the engine's capture point to report.
    fn join(&mut self, stream: usize) {
        let s = &mut self.streams[stream];
        if !matches!(s.pipeline, Pipeline::Refining { .. }) {
            return;
        }
        let Pipeline::Refining {
            frame_idx,
            completion_s,
            job,
        } = std::mem::replace(&mut s.pipeline, Pipeline::InFlight)
        else {
            unreachable!()
        };
        let (system, out) = match job {
            Handoff::Ran(done) => done,
            Handoff::Pooled => self
                .refiner
                .as_ref()
                .expect("a pooled refinement needs the pool")
                .join(s.slot),
        };
        let out = out.unwrap_or_else(|msg| std::panic::resume_unwind(Box::new(msg)));
        debug_assert!(
            !matches!(
                system.policy_decision(),
                Some(PolicyDecision::Coast | PolicyDecision::Skip)
            ),
            "a handed-off frame owes a policy row"
        );
        self.book_output(stream, frame_idx, completion_s, system, out);
    }

    /// Joins every handed-off refinement, in stream order: the fleet's
    /// final join, before it drops its pool and builds the reports.
    ///
    /// # Panics
    ///
    /// As [`join`](Self::join), for the first refining stream whose
    /// refinement panicked.
    pub(crate) fn join_refinements(&mut self) {
        for stream in 0..self.streams.len() {
            self.join(stream);
        }
    }

    /// Releases finished workers, closes batch windows, dispatches work.
    fn step_workers(&mut self, now: f64) {
        for w in 0..self.workers.len() {
            if let WorkerState::Busy { until } = self.workers[w] {
                if until <= now + EPS {
                    self.workers[w] = WorkerState::Idle;
                }
            }
        }

        // Plan batches for every *active* worker able to dispatch at
        // `now`; mutate queue state eagerly so later workers see earlier
        // claims. Deactivated slots drain: they finish their batch above
        // but are never handed a new one. The stream counts are walked
        // once per call, at the first worker that is not busy, and kept up
        // to date from each claim after that.
        let mut planned = std::mem::take(&mut self.planned_buf);
        let mut counts = None;
        for w in 0..self.active_workers {
            let waiting = match self.workers[w] {
                WorkerState::Busy { .. } => continue,
                WorkerState::Idle => None,
                WorkerState::Waiting { deadline } => Some(deadline),
            };
            let c = counts.get_or_insert_with(|| self.stream_counts(now));
            debug_assert_eq!(
                (c.eligible, c.live),
                (self.eligible_stream_count(now), self.live_stream_count()),
                "running stream counts drifted from the walks"
            );
            // A batch takes at most one frame per live stream, so waiting
            // for more than that is futile (e.g. 4 streams, max_batch 8).
            let batch_target = self.cfg.max_batch.min(c.live);
            match waiting {
                None => {
                    if c.eligible == 0 {
                        continue;
                    }
                    // Open a window if it could grow an under-full batch.
                    if self.cfg.batch_window_s > 0.0
                        && c.eligible < batch_target
                        && c.more_frames_coming
                    {
                        self.workers[w] = WorkerState::Waiting {
                            deadline: now + self.cfg.batch_window_s,
                        };
                        continue;
                    }
                }
                Some(deadline) => {
                    if c.eligible == 0 {
                        self.workers[w] = WorkerState::Idle;
                        continue;
                    }
                    if deadline > now + EPS && c.eligible < batch_target {
                        continue; // keep waiting
                    }
                }
            }
            // The slot's item buffer is lent to the batch and returned
            // when the batch is priced (surviving active-set resizes).
            let mut items = std::mem::take(&mut self.slot_items[w]);
            self.pick_batch_into(now, &mut items);
            if items.is_empty() {
                self.slot_items[w] = items;
                self.workers[w] = WorkerState::Idle;
                continue;
            }
            // A claimed stream was eligible and no longer is; it stays live
            // while it has frames queued or still to arrive (its pipeline
            // goes in flight only once the planned batches run).
            c.eligible -= items.len();
            c.live -= items
                .iter()
                .filter(|&&(stream, _, _)| {
                    let s = &self.streams[stream];
                    s.queue.is_empty() && s.next_arrival == s.frames.len()
                })
                .count();
            planned.push(PlannedBatch {
                worker: w,
                start: now,
                items,
            });
        }

        if planned.is_empty() {
            self.planned_buf = planned;
            return;
        }

        let downgrade = self.cfg.admission.downgrade;
        let mut staged = std::mem::take(&mut self.staged_buf);
        let mut refined = std::mem::take(&mut self.refined_buf);
        for batch in planned.drain(..) {
            // Proposal stage: run every frame's proposal pass; each stops
            // suspended at its refinement boundary with executed costs.
            staged.clear();
            for &(stream, frame_idx, _) in &batch.items {
                // The claim is the stream's join point: its last frame's
                // handed-off refinement is booked before the next begins.
                self.join(stream);
                let s = &mut self.streams[stream];
                let Pipeline::Parked(mut system) =
                    std::mem::replace(&mut s.pipeline, Pipeline::InFlight)
                else {
                    panic!("stream system in flight");
                };
                // A dispatch is a frame boundary: sync the pipeline's
                // policy class with admission's downgrade rung before the
                // frame begins (idempotent; a no-op on the default path).
                if downgrade {
                    system.set_degraded(s.degraded);
                }
                let outcome = run_proposal(&mut *system, &s.frames[frame_idx].1);
                staged.push((system, outcome));
            }
            let mut shared_prop_macs = 0.0;
            for (_, outcome) in &staged {
                shared_prop_macs += match outcome {
                    StageOutcome::AtRefinement { proposal_macs, .. } => *proposal_macs,
                    StageOutcome::Done(out) => out.ops.proposal,
                };
            }
            // One fused proposal launch + one stage dispatch for the batch.
            let shared = if shared_prop_macs > 0.0 {
                self.cfg.timing.launch_time(shared_prop_macs) + self.cfg.timing.stage_overhead_s
            } else {
                0.0
            };
            self.gpu_dispatch_s += shared;
            let ready = batch.start + shared;

            // Resume the refinement stage per the fusion mode.
            let mut cursor = ready;
            let mut held_open = false;
            for (&(stream, frame_idx, arrival), (system, outcome)) in
                batch.items.iter().zip(staged.drain(..))
            {
                let t = self.cfg.timing;
                match outcome {
                    StageOutcome::AtRefinement { refine, .. }
                        if self.cfg.fuse_refinement && refine.macs > 0.0 =>
                    {
                        // Suspend at the boundary: the work item waits in
                        // the fleet-wide fuse pool for a shared dispatch.
                        // Frames with no refinement workload have nothing
                        // to fuse and fall through to immediate per-frame
                        // completion — waiting out the window would cost
                        // them latency (and pin the worker) for nothing.
                        self.refine_pending.push(PendingRefine {
                            stream,
                            worker: batch.worker,
                            frame_idx,
                            arrival_s: arrival,
                            ready_s: ready,
                            deadline_s: ready + self.cfg.refine_batch_window_s,
                            work: refine,
                            system,
                        });
                        held_open = true;
                    }
                    StageOutcome::AtRefinement { refine, .. } => {
                        // Per-frame refinement on this worker's timeline:
                        // merged launch + stage dispatch, fixed frame
                        // handling, and tracker CPU.
                        let mut frame_time = t.frame_overhead_s + t.tracker_overhead_s;
                        if refine.macs > 0.0 {
                            let launch = t.launch_time(refine.macs) + t.stage_overhead_s;
                            frame_time += launch;
                            self.gpu_dispatch_s += launch;
                            self.record_refinement_dispatch(
                                cursor,
                                batch.worker,
                                std::iter::once(stream),
                                0,
                            );
                        }
                        cursor += frame_time;
                        let job = self.resume(stream, system, refine);
                        refined.push(Refined {
                            stream,
                            frame_idx,
                            arrival_s: arrival,
                            completion_s: cursor,
                            job,
                        });
                    }
                    StageOutcome::Done(out) => {
                        // No refinement boundary to suspend at (possible
                        // for exotic staged impls): price it per-frame.
                        let mut frame_time = t.frame_overhead_s + t.tracker_overhead_s;
                        if out.ops.refinement > 0.0 {
                            let launch = t.launch_time(out.ops.refinement) + t.stage_overhead_s;
                            frame_time += launch;
                            self.gpu_dispatch_s += launch;
                            self.record_refinement_dispatch(
                                cursor,
                                batch.worker,
                                std::iter::once(stream),
                                0,
                            );
                        }
                        cursor += frame_time;
                        self.complete_frame(stream, frame_idx, arrival, cursor, system, out);
                    }
                }
            }
            self.batch_log.push(BatchRecord {
                t_s: batch.start,
                worker: batch.worker,
                stage: BatchStage::Proposal,
                streams: batch
                    .items
                    .iter()
                    .map(|&(stream, _, _)| self.streams[stream].global_id)
                    .collect(),
            });
            if self.recorder.enabled() {
                // One row per contributing stream so per-stream scans see
                // their own rides without decoding the whole batch.
                let size = batch.items.len();
                for &(stream, _, _) in &batch.items {
                    let global = self.streams[stream].global_id;
                    self.recorder.record(
                        batch.start,
                        Event::Batch {
                            stream: global,
                            worker: batch.worker,
                            stage: STAGE_PROPOSAL,
                            size,
                        },
                    );
                }
            }
            let size = batch.items.len();
            self.batch_stats.batches += 1;
            self.batch_stats.batched_frames += size;
            self.batch_stats.max_batch_seen = self.batch_stats.max_batch_seen.max(size);
            // Only count launches actually fused away: proposal-free
            // systems (e.g. single-model) get no amortisation from a batch.
            if shared_prop_macs > 0.0 {
                self.batch_stats.proposal_launches_saved += size - 1;
            }
            // A worker whose frames entered the fuse pool stays occupied
            // until the shared dispatch returns them; any per-frame work
            // it priced alongside (zero-refinement frames of the same
            // batch, ending at `cursor`) still bounds its release time.
            self.workers[batch.worker] = WorkerState::Busy {
                until: if held_open { f64::INFINITY } else { cursor },
            };
            if held_open {
                self.hold_floor[batch.worker] = cursor;
            }
            // Return the lent item buffer to the batch's slot.
            self.slot_items[batch.worker] = batch.items;
        }
        self.staged_buf = staged;
        self.planned_buf = planned;

        // Book the per-frame refinements at the completion times priced
        // above, in stream order (a stream has at most one frame in flight).
        refined.sort_unstable_by_key(|r| r.stream);
        for r in refined.drain(..) {
            self.complete_resumed(r.stream, r.frame_idx, r.arrival_s, r.completion_s, r.job);
        }
        self.refined_buf = refined;
    }

    /// Flushes the refinement fuse pool: every deadline due by `now` fires
    /// one shared dispatch carrying all work items ready by then — across
    /// batches and across workers.
    fn fire_refinements(&mut self, now: f64) {
        loop {
            let due = self.refine_deadline();
            if due > now + EPS {
                return;
            }
            let td = due;
            self.take_ready_refinements(td);
            let ready = std::mem::take(&mut self.refine_ready);
            debug_assert!(!ready.is_empty(), "deadline fired with nothing ready");

            // One fused launch over the summed workload (only frames with
            // real refinement work enter the pool, so every item rides the
            // launch).
            let fused_macs: f64 = ready.iter().map(|p| p.work.macs).sum();
            let gpu = self.cfg.timing.launch_time(fused_macs) + self.cfg.timing.stage_overhead_s;
            self.gpu_dispatch_s += gpu;
            let opened_by = ready[0].worker;
            let launched = ready.iter().map(|p| p.stream);
            self.record_refinement_dispatch(td, opened_by, launched, ready.len() - 1);
            self.refine_ready = ready;
            self.resume_refinements(td, gpu);
        }
    }

    /// Resumes the frames lifted by
    /// [`take_ready_refinements`](Self::take_ready_refinements) as one
    /// fused refinement dispatch (priced at `td` with a shared launch of
    /// `gpu` virtual seconds), books completions, and releases the workers
    /// whose held batches fully dispatched.
    ///
    /// Shared by the engine's own [`fire_refinements`](Self::fire_refinements)
    /// and the fleet's cross-shard dispatches: a shard resumes and books
    /// its own frames, while the fleet accounts the shared launch's GPU
    /// time and batch statistics once.
    pub(crate) fn resume_refinements(&mut self, td: f64, gpu: f64) {
        // The dispatch returns at `td + gpu`, after which each stream's
        // own post-processing (frame handling + tracker CPU) runs in
        // parallel across streams.
        let t = self.cfg.timing;
        let completion = td + gpu + t.frame_overhead_s + t.tracker_overhead_s;
        let mut ready = std::mem::take(&mut self.refine_ready);
        for p in ready.drain(..) {
            let PendingRefine {
                stream,
                worker,
                frame_idx,
                arrival_s,
                work,
                system,
                ..
            } = p;
            let job = self.resume(stream, system, work);
            self.complete_resumed(stream, frame_idx, arrival_s, completion, job);
            // Release the worker once its held batch fully dispatched: it
            // stays busy until the last of its frames completes, whether
            // that frame rode this dispatch or was priced per-frame on
            // the worker's own timeline (the hold floor). Each of the
            // batch's frames releases it again, with the floor cleared.
            if self.refine_pending.iter().any(|p| p.worker == worker) {
                continue; // still holding frames for a later dispatch
            }
            let until = self.hold_floor[worker].max(completion);
            self.hold_floor[worker] = 0.0;
            self.workers[worker] = WorkerState::Busy { until };
        }
        self.refine_ready = ready;
    }

    /// Records one refinement dispatch; `streams` are local slots, logged
    /// under their fleet-wide ids.
    fn record_refinement_dispatch(
        &mut self,
        t_s: f64,
        worker: usize,
        streams: impl ExactSizeIterator<Item = usize> + Clone,
        launches_saved: usize,
    ) {
        let size = streams.len();
        self.batch_stats.refine_batches += 1;
        self.batch_stats.refined_frames += size;
        self.batch_stats.max_refine_batch_seen = self.batch_stats.max_refine_batch_seen.max(size);
        self.batch_stats.refinement_launches_saved += launches_saved;
        self.batch_log.push(BatchRecord {
            t_s,
            worker,
            stage: BatchStage::Refinement,
            streams: streams.clone().map(|s| self.streams[s].global_id).collect(),
        });
        if self.recorder.enabled() {
            for s in streams {
                let global = self.streams[s].global_id;
                self.recorder.record(
                    t_s,
                    Event::Batch {
                        stream: global,
                        worker,
                        stage: STAGE_REFINEMENT,
                        size,
                    },
                );
            }
        }
    }

    /// The stream counts that plan a step's batches, walked afresh.
    fn stream_counts(&self, now: f64) -> StreamCounts {
        StreamCounts {
            eligible: self.eligible_stream_count(now),
            live: self.live_stream_count(),
            more_frames_coming: self.streams.iter().any(|s| s.next_arrival < s.frames.len()),
        }
    }

    /// Streams that could contribute a frame to a batch right now.
    fn eligible_stream_count(&self, now: f64) -> usize {
        self.streams
            .iter()
            .filter(|s| !s.queue.is_empty() && !s.pipeline.in_flight() && s.busy_until <= now + EPS)
            .count()
    }

    /// Streams that could still contribute a frame to some batch: frames
    /// queued, frames yet to arrive, or a frame in flight (a refining
    /// stream's frame is complete).
    fn live_stream_count(&self) -> usize {
        self.streams
            .iter()
            .filter(|s| {
                !s.queue.is_empty() || s.next_arrival < s.frames.len() || s.pipeline.in_flight()
            })
            .count()
    }

    /// Selects up to `max_batch` streams by policy and claims one queued
    /// frame from each, writing `(stream, frame_idx, arrival_s)` triples
    /// into `out` (cleared first; no allocation in steady state).
    fn pick_batch_into(&mut self, now: f64, out: &mut Vec<(usize, usize, f64)>) {
        out.clear();
        let eligible = |s: &StreamRt| {
            !s.queue.is_empty() && !s.pipeline.in_flight() && s.busy_until <= now + EPS
        };
        let mut chosen = std::mem::take(&mut self.chosen_buf);
        chosen.clear();
        match self.cfg.schedule {
            SchedulePolicy::RoundRobin => {
                let n = self.streams.len();
                for off in 0..n {
                    let i = (self.rr_cursor + off) % n;
                    if eligible(&self.streams[i]) {
                        chosen.push(i);
                        if chosen.len() == self.cfg.max_batch {
                            break;
                        }
                    }
                }
                if let Some(&last) = chosen.last() {
                    self.rr_cursor = (last + 1) % n;
                }
            }
            SchedulePolicy::LeastBacklog => {
                chosen.extend((0..self.streams.len()).filter(|&i| eligible(&self.streams[i])));
                chosen.sort_by_key(|&i| (self.streams[i].queue.len(), i));
                chosen.truncate(self.cfg.max_batch);
            }
        }
        self.total_queued -= chosen.len();
        out.extend(chosen.iter().map(|&i| {
            let s = &mut self.streams[i];
            let frame_idx = s.queue.pop_front().expect("eligible stream has frames");
            // Claim the pipeline until the batch is priced.
            s.busy_until = f64::INFINITY;
            (i, frame_idx, s.frames[frame_idx].0)
        }));
        self.chosen_buf = chosen;
    }

    /// The next virtual time anything can happen, or `None` when drained.
    fn next_event(&self, now: f64) -> Option<f64> {
        let mut next = f64::INFINITY;
        for s in &self.streams {
            if s.next_arrival < s.frames.len() {
                next = next.min(s.frames[s.next_arrival].0);
            }
            // A stream's pipeline can free up mid-batch (its frame finished
            // but the worker is still pricing later frames of the batch);
            // idle workers may serve it then.
            if !s.queue.is_empty() && !s.pipeline.in_flight() && s.busy_until > now + EPS {
                next = next.min(s.busy_until);
            }
        }
        for w in &self.workers {
            match w {
                WorkerState::Busy { until } => next = next.min(*until),
                WorkerState::Waiting { deadline } => next = next.min(*deadline),
                WorkerState::Idle => {}
            }
        }
        // Refinement fuse deadlines are events: a worker holding a batch
        // open at the boundary is `Busy` until infinity, and the deadline
        // is what wakes the loop to fire the shared dispatch.
        for p in &self.refine_pending {
            next = next.min(p.deadline_s);
        }
        // Control ticks keep firing while work remains (`INFINITY` when
        // autoscaling is off, so they never steer the fixed-policy loop).
        next = next.min(self.next_control_s);
        let work_left = self.streams.iter().any(|s| {
            s.next_arrival < s.frames.len() || !s.queue.is_empty() || s.pipeline.in_flight()
        }) || self
            .workers
            .iter()
            .any(|w| matches!(w, WorkerState::Busy { .. }));
        if !work_left {
            return None;
        }
        // A fleet can change this engine's state *between* `run_until`
        // calls — a rebalance tick lands a migrated stream with backlog on
        // a drained engine, or an external fused dispatch returns a
        // pipeline — leaving an idle worker beside an eligible stream with
        // no future event booked. That is an immediate dispatch
        // opportunity, not a stall: the next `run_until` pass will batch
        // it at the current clock. (Inside `run_until` this arm is dead:
        // `step_workers` has already drained every such pairing.)
        if self.eligible_stream_count(now) > 0
            && self.workers[..self.active_workers]
                .iter()
                .any(|w| matches!(w, WorkerState::Idle))
        {
            next = next.min(now + EPS);
        }
        assert!(
            next.is_finite(),
            "scheduler stalled: frames queued but no future event"
        );
        // Guarantee forward progress even with coincident event times.
        Some(next.max(now + EPS))
    }

    pub(crate) fn finish_report(&mut self) -> ServeReport {
        let mut total_ops = OpsBreakdown::default();
        let mut arrived = 0;
        let mut processed = 0;
        let mut dropped = 0;
        let mut rejected = 0;
        let mut coasted = 0;
        let mut skipped = 0;
        let streams: Vec<StreamReport> = self
            .streams
            .iter_mut()
            .map(|s| {
                assert!(
                    s.queue.is_empty(),
                    "stream {} exited with queued frames",
                    s.global_id
                );
                assert!(
                    !matches!(s.pipeline, Pipeline::Refining { .. }),
                    "stream {} exited with an unjoined refinement",
                    s.global_id
                );
                total_ops.accumulate(&s.ops);
                arrived += s.arrived;
                processed += s.processed;
                dropped += s.dropped;
                rejected += s.rejected;
                coasted += s.coasted;
                skipped += s.skipped;
                StreamReport {
                    stream_id: s.global_id,
                    system_name: s.system_name.clone(),
                    arrived: s.arrived,
                    processed: s.processed,
                    dropped: s.dropped,
                    rejected: s.rejected,
                    coasted: s.coasted,
                    skipped: s.skipped,
                    mean_ops: s.ops.scaled(s.processed.max(1) as f64),
                    latency: LatencyStats::from_samples(&s.latencies),
                    latency_samples: std::mem::take(&mut s.latencies),
                    outputs: std::mem::take(&mut s.outputs),
                }
            })
            .collect();
        let makespan_s = self.last_completion;
        ServeReport {
            makespan_s,
            frames_arrived: arrived,
            frames_processed: processed,
            frames_dropped: dropped,
            frames_rejected: rejected,
            frames_coasted: coasted,
            frames_skipped: skipped,
            throughput_fps: if makespan_s > 0.0 {
                processed as f64 / makespan_s
            } else {
                0.0
            },
            worker_seconds: self.worker_seconds,
            gpu_dispatch_s: self.gpu_dispatch_s,
            total_ops,
            batch: self.batch_stats,
            batch_log: std::mem::take(&mut self.batch_log),
            scale_events: std::mem::take(&mut self.scale_events),
            admission_events: std::mem::take(&mut self.admission_events),
            downgrade_events: std::mem::take(&mut self.downgrade_events),
            streams,
        }
    }

    /// Publishes what the engine's recorder has completed to the backing
    /// store. The fleet calls this at its lock-step barriers, **in
    /// shard-id order**, so a
    /// [`BarrierRecorder`](catdet_recorder::SharedRecorder::barrier_handle)
    /// books into the shared store deterministically at any thread count.
    pub(crate) fn publish_recorder(&mut self) {
        self.recorder.publish();
    }

    /// Drains everything the engine's recorder still holds into the
    /// backing store: the fleet's last barrier, again in shard-id order.
    pub(crate) fn flush_recorder(&mut self) {
        self.recorder.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdmissionConfig;
    use catdet_core::DetectionSystem;
    use catdet_data::{kitti_like, StreamFrame};
    use catdet_recorder::NullRecorder;

    /// A detection system that does no work: frames cost only the timing
    /// model's fixed overheads.
    struct Idle;

    impl DetectionSystem for Idle {
        fn name(&self) -> String {
            "idle".into()
        }

        fn reset(&mut self) {}

        fn process_frame(&mut self, _frame: &Frame) -> FrameOutput {
            FrameOutput {
                detections: Vec::new(),
                ops: OpsBreakdown::default(),
                num_refinement_regions: 0,
                refinement_coverage: 0.0,
            }
        }
    }

    /// Stream `id` of idle frames arriving at `fps` from `start_s` for
    /// `seconds`.
    fn spec(id: usize, fps: f64, start_s: f64, seconds: f64) -> StreamSpec {
        let pool = kitti_like()
            .sequences(1)
            .frames_per_sequence(4)
            .seed(3)
            .build();
        let pool = pool.sequences()[0].frames();
        let frames = (0..(fps * seconds) as usize)
            .map(|i| StreamFrame {
                arrival_s: start_s + i as f64 / fps,
                frame: pool[i % pool.len()].clone(),
            })
            .collect();
        let factory: Arc<dyn SystemFactory> =
            Arc::new(|| Box::new(Idle) as Box<dyn DetectionSystem>);
        StreamSpec::new(
            StreamSource::from_frames(id, 10.0, 1242.0, 375.0, frames),
            factory,
        )
    }

    fn engine(specs: Vec<StreamSpec>, cfg: &ServeConfig) -> Engine {
        let specs = specs.into_iter().enumerate().collect();
        Engine::new(specs, cfg, 0.0, false, Box::new(NullRecorder), None)
    }

    fn finish(mut e: Engine) -> ServeReport {
        e.run_until(f64::INFINITY);
        e.join_refinements();
        e.finish_report()
    }

    fn by_id(r: &ServeReport, id: usize) -> &StreamReport {
        r.streams.iter().find(|s| s.stream_id == id).unwrap()
    }

    /// Fast and slow cameras alternate, so a bucket read by the wrong
    /// stream admits or refuses frames it should not.
    const FPS: [f64; 6] = [40.0, 2.0, 40.0, 2.0, 40.0, 2.0];

    fn cameras() -> Vec<StreamSpec> {
        FPS.iter()
            .enumerate()
            .map(|(k, &fps)| spec(10 + k, fps, 0.01 * k as f64, 2.0))
            .collect()
    }

    #[test]
    fn migrations_leave_one_slot_per_live_stream_and_buckets_with_their_streams() {
        let cfg = ServeConfig::new()
            .with_workers(1)
            .with_max_batch(4)
            .with_queue_capacity(10_000)
            .with_admission(AdmissionConfig::token_bucket(5.0, 2.0));
        let reference = finish(engine(cameras(), &cfg));

        let mut hot = engine(cameras(), &cfg);
        let mut cool = engine(Vec::new(), &cfg);
        hot.run_until(0.5);
        // A slow stream from the middle, a fast one behind it, then the
        // last slot.
        for local in [1, 3] {
            let m = hot.extract_stream(local).expect("parked between epochs");
            cool.admit_stream(m, 0.5);
        }
        hot.run_until(1.0);
        cool.run_until(1.0);
        let last = hot.streams.len() - 1;
        let m = hot.extract_stream(last).expect("parked between epochs");
        cool.admit_stream(m, 1.0);

        let ids = |e: &Engine| e.streams.iter().map(|s| s.global_id).collect::<Vec<_>>();
        assert_eq!(ids(&hot), [10, 12, 13]);
        assert_eq!(ids(&cool), [11, 14, 15]);

        let (hot, cool) = (finish(hot), finish(cool));
        assert_eq!(hot.streams.len(), 3);
        assert_eq!(cool.streams.len(), 3);
        // The streams that stayed kept their buckets: every admission
        // verdict matches the run without migrations.
        for id in [10, 12, 13] {
            let (got, want) = (by_id(&hot, id), by_id(&reference, id));
            assert_eq!(
                (got.arrived, got.rejected, got.processed),
                (want.arrived, want.rejected, want.processed),
                "stream {id}"
            );
        }
        assert!(
            by_id(&hot, 10).rejected > 0,
            "the fast cameras must be limited"
        );
        // The moved slow streams start full buckets on the new shard and
        // are never limited; a fast one keeps being limited.
        assert_eq!(by_id(&cool, 11).rejected, 0);
        assert_eq!(by_id(&cool, 15).rejected, 0);
        assert!(by_id(&cool, 14).rejected > 0);
        for s in hot.streams.iter().chain(&cool.streams) {
            assert_eq!(s.arrived, s.processed + s.dropped, "stream {}", s.stream_id);
        }
    }

    /// The global ids of `k` one-frame round-robin picks at time zero;
    /// each picked stream is released at once, so it stays eligible.
    fn picks(e: &mut Engine, k: usize) -> Vec<usize> {
        let mut out = Vec::new();
        (0..k)
            .map(|_| {
                e.pick_batch_into(0.0, &mut out);
                let (local, _, _) = out[0];
                e.streams[local].busy_until = 0.0;
                e.streams[local].global_id
            })
            .collect()
    }

    /// Four streams with ten frames each queued.
    fn queued_four() -> Engine {
        let cfg = ServeConfig::new()
            .with_workers(1)
            .with_max_batch(1)
            .with_queue_capacity(100);
        let mut e = engine((0..4).map(|id| spec(id, 10.0, 0.0, 1.0)).collect(), &cfg);
        e.ingest_arrivals(1.0);
        e
    }

    #[test]
    fn round_robin_keeps_its_visiting_order_across_removals() {
        // Removing the slot the cursor points at: its successor is next.
        let mut e = queued_four();
        assert_eq!(picks(&mut e, 2), [0, 1]);
        let m = e.extract_stream(2).unwrap();
        assert_eq!(picks(&mut e, 3), [3, 0, 1]);
        // Re-admitted, the stream joins the end of the order.
        e.admit_stream(m, 0.0);
        assert_eq!(picks(&mut e, 4), [3, 2, 0, 1]);

        // Removing a slot before the cursor.
        let mut e = queued_four();
        assert_eq!(picks(&mut e, 3), [0, 1, 2]);
        e.extract_stream(0).unwrap();
        assert_eq!(picks(&mut e, 3), [3, 1, 2]);

        // A batch ending at the last slot wraps the cursor, so a stream
        // admitted afterwards waits its turn.
        let mut e = queued_four();
        assert_eq!(picks(&mut e, 4), [0, 1, 2, 3]);
        let m = e.extract_stream(1).unwrap();
        e.admit_stream(m, 0.0);
        assert_eq!(picks(&mut e, 4), [0, 2, 3, 1]);

        // Removing the last slot while the cursor points at it: the order
        // wraps to the first stream.
        let mut e = queued_four();
        assert_eq!(picks(&mut e, 3), [0, 1, 2]);
        e.extract_stream(3).unwrap();
        assert_eq!(picks(&mut e, 4), [0, 1, 2, 0]);
    }
}
