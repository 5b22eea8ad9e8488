//! # catdet-serve — multi-stream serving for CaTDet pipelines
//!
//! The paper's systems (see `catdet-core`) process one video, one frame at
//! a time. This crate is the serving layer above them: it runs **N
//! independent camera streams concurrently**, each with its own
//! [`DetectionSystem`](catdet_core::DetectionSystem) instance stamped out
//! by a [`SystemFactory`], fed by a frame
//! scheduler over virtual worker slots.
//!
//! Key mechanisms:
//!
//! * **Scheduling** — [`SchedulePolicy::RoundRobin`] shares workers evenly
//!   across cameras; [`SchedulePolicy::LeastBacklog`] serves the freshest
//!   cameras first and concentrates overload where it originates.
//! * **Cross-stream micro-batching** — proposal-network invocations from
//!   different streams are fused into one modelled GPU dispatch within a
//!   configurable [`batch window`](ServeConfig::batch_window_s),
//!   amortising the per-launch overhead of the `core::timing` model.
//! * **Staged execution & refinement fusion** — pipelines advance through
//!   the resumable [`StagedDetector`](catdet_core::StagedDetector)
//!   protocol, so the scheduler can suspend a frame at its refinement
//!   boundary; with [`fuse_refinement`](ServeConfig::fuse_refinement) on,
//!   suspended frames' priced
//!   [`RefinementWork`](catdet_core::RefinementWork) items are flushed
//!   (after at most
//!   [`refine_batch_window_s`](ServeConfig::refine_batch_window_s)) as
//!   one shared GPU dispatch spanning batches and workers.
//! * **Backpressure** — every stream has a bounded queue with an explicit
//!   [`DropPolicy`]; shed frames are counted exactly, never silently lost.
//! * **Admission control** — arrivals pass an [`AdmissionPolicy`] before
//!   entering their queue: per-stream token-bucket rate limiting, or
//!   priority classes shed lowest-first under fleet-wide overload.
//! * **Autoscaling** — a [`ScalePolicy`] control loop (hysteresis on
//!   drop-rate + window p99, or step-load-aware proportional tracking)
//!   grows and shrinks the active worker set at a configurable control
//!   interval, on the virtual clock.
//! * **Predictive control plane** — every stream carries an
//!   [`ArrivalHistory`] ring that a shared [`RateForecaster`] (EWMA
//!   level + trend with a burst-phase detector) turns into per-stream
//!   arrival forecasts; [`PredictiveScale`] scales up *ahead* of a
//!   forecast breach, and the fleet rebalancer can weigh shards by
//!   predicted (not merely current) load.
//! * **Reporting** — [`ServeReport`] carries aggregate throughput
//!   (frames/s of virtual time), per-stream latency percentiles
//!   (p50/p95/p99) with their raw samples, ops totals, drop/reject
//!   counts, worker-seconds, and the exact
//!   [`ScaleEvent`]/[`AdmissionEvent`] timelines.
//! * **Sharding** — [`serve_fleet`] partitions streams across N
//!   independent scheduler shards (a [`PartitionPolicy`]: static hash,
//!   least-loaded, consistent-hash ring), live-rebalances them between
//!   shards at stage-boundary suspend points with exact frame
//!   conservation, pools refinement work fleet-wide, and merges shard
//!   reports into a [`FleetReport`] whose percentiles are recomputed
//!   from pooled raw samples. A 1-shard fleet is bit-identical to
//!   [`serve`].
//! * **Flight recorder** — [`serve_with_recorder`] /
//!   [`serve_fleet_with_recorder`] book every detection, track, batch,
//!   scale, admission and migration event into a chunked columnar store
//!   ([`SharedRecorder`]) with bounded retention. Recording never perturbs
//!   scheduling (a recorded run's report is bit-identical to an unrecorded
//!   one's), recorded latencies answer telemetry [`Query`]s with exactly
//!   the report's percentiles, and periodic [`StreamSnapshot`]s let
//!   [`replay_stream`] re-drive any stream bit-exactly from mid-run.
//! * **Network front door** — [`serve_net_fleet`] ingests every camera
//!   over a simulated CamLink connection (`catdet-net`): each connection,
//!   a plain loop on its own virtual clock, drives length-prefixed,
//!   checksummed frame records through per-connection jitter, partial
//!   writes, reordering and disconnect/resume, onto a bounded receive
//!   window (backpressure pushes back to the socket) and a per-client
//!   token-bucket door.
//!   Connection events land in the flight recorder as
//!   [`Event::Conn`], and the whole ingest
//!   timeline is a pure function of the workload seed.
//!
//! Scheduling runs in deterministic virtual time while detector compute
//! runs for real — proposals on the thread that owns each scheduler,
//! refinements of unrecorded runs on whichever pool thread takes them,
//! booked at fixed join points — so results are reproducible bit-for-bit
//! at any worker or thread count — see the `scheduler` module docs for
//! the execution model, and the integration tests for the
//! state-isolation guarantee.
//!
//! # Example
//!
//! ```
//! use catdet_serve::{mixed_workload, serve, ServeConfig, SystemKind};
//!
//! // 4 cameras (KITTI-like and CityPersons-like interleaved), CaTDet-A
//! // pipelines, 2 workers, micro-batches of up to 4.
//! let streams = mixed_workload(4, 10, 42, SystemKind::CatdetA);
//! let report = serve(streams, &ServeConfig::new().with_workers(2));
//! assert_eq!(report.frames_processed, 40);
//! assert!(report.throughput_fps > 0.0);
//! println!("{}", report.summary());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod autoscale;
pub mod config;
pub mod fleet;
pub mod forecast;
pub mod ingest;
pub mod replay;
pub mod report;
pub mod scheduler;
pub mod shard;
pub mod workload;

pub use admission::{
    AdmissionContext, AdmissionEvent, AdmissionPolicy, AdmissionReason, AdmitAll, DowngradeEvent,
    PriorityShed, TokenBucket,
};
pub use autoscale::{
    ControlSample, FixedScale, HysteresisScale, PredictiveScale, ProportionalScale, ScaleEvent,
    ScalePolicy, ScaleReason,
};
pub use config::{
    AdmissionConfig, AdmissionKind, AutoscaleConfig, ConfigError, DropPolicy, IngestConfig,
    IngestKind, PartitionKind, RecorderConfig, ScalePolicyKind, SchedulePolicy, ServeConfig,
    ShardConfig,
};
pub use fleet::{
    serve, serve_fleet, serve_fleet_with_recorder, serve_with_recorder, FleetRefineRecord,
    FleetReport,
};
pub use forecast::{ArrivalHistory, BurstPhase, Forecast, ForecastConfig, RateForecaster};
pub use ingest::{serve_net_fleet, serve_net_fleet_with_recorder};
pub use replay::{replay_stream, ReplayError, ReplayReport, ReplayedFrame, StreamSnapshot};
pub use report::{
    merge_timelines, BatchRecord, BatchStage, BatchStats, LatencyStats, ServeReport, StreamReport,
    TimestampedEvent,
};
pub use scheduler::StreamSpec;
pub use shard::{
    build_partition, ConsistentHashRing, LeastLoaded, MigrationEvent, PartitionPolicy,
    RebalanceSignal, StaticHash,
};
pub use workload::{
    bursty_workload, kitti_workload, mixed_workload, ramp_workload, sine_workload, step_workload,
    BurstProfile,
};

// Re-export the pieces callers almost always need alongside.
pub use catdet_core::{
    PolicedPipeline, PolicyConfig, PolicyDecision, PolicyKind, PresetFactory, SystemFactory,
    SystemKind,
};
pub use catdet_data::{StreamFrame, StreamSource};
pub use catdet_net::{ClientReport, ConnEvent, ConnEventKind, IngestReport, NetParams};
pub use catdet_recorder::{
    Event, EventKind, FlightRecorder, LatencySummary, NullRecorder, Query, RecordedEvent,
    SharedRecorder, StoreStats,
};
