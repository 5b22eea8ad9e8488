//! Serving configuration: scheduling policy, batching, backpressure.

use crate::forecast::ForecastConfig;
use crate::shard::RebalanceSignal;
use catdet_core::{GpuTimingModel, PolicyConfig};
use catdet_net::{LinkParams, NetParams};
use catdet_recorder::SharedRecorder;
use std::fmt;

/// Upper bound on every setting that sizes per-unit state before a run
/// starts: worker slots ([`ServeConfig::workers`],
/// [`AutoscaleConfig::max_workers`]), shard engines
/// ([`ShardConfig::shards`]) and each stream's forecast history
/// ([`ForecastConfig::history_buckets`]). Past it, that up-front
/// allocation alone can abort the process.
pub const SIZING_LIMIT: usize = 1 << 16;

/// Shortest tick spacing, in virtual seconds, of the autoscale control
/// loop ([`AutoscaleConfig::control_interval_s`]) and of live rebalancing
/// ([`ShardConfig::rebalance_interval_s`], when on): at most 1,000 ticks
/// per virtual second. Tick loops step by the interval until they pass
/// the clock, so a far shorter one stalls a run.
pub const MIN_TICK_S: f64 = 1e-3;

/// A rule a configuration broke, from [`ServeConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Path of the offending field in [`ServeConfig`], e.g.
    /// `autoscale.max_workers` or `ingest.disconnect_rate`.
    pub field: String,
    /// The rule its value broke.
    pub rule: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.rule)
    }
}

impl std::error::Error for ConfigError {}

/// Returns a [`ConfigError`] naming `$field` from the enclosing function
/// unless `$ok` holds. The rule is formatted only on failure, so checking
/// a valid configuration allocates nothing.
macro_rules! ensure {
    ($ok:expr, $field:expr, $($rule:tt)+) => {
        let ok: bool = $ok;
        if !ok {
            return Err($crate::config::ConfigError {
                field: $field.into(),
                rule: format!($($rule)+),
            });
        }
    };
}
pub(crate) use ensure;

/// Which stream a free worker serves next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Streams are served in ring order from a rotating cursor: every
    /// camera gets an equal share of worker time regardless of backlog.
    RoundRobin,
    /// Streams with the smallest backlog are served first: well-behaved
    /// cameras stay snappy, and sustained overload is concentrated (and
    /// shed via the drop policy) on the cameras causing it.
    LeastBacklog,
}

impl SchedulePolicy {
    /// Every policy, in CLI listing order.
    pub const ALL: [Self; 2] = [SchedulePolicy::RoundRobin, SchedulePolicy::LeastBacklog];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::RoundRobin => "round-robin",
            SchedulePolicy::LeastBacklog => "least-backlog",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What happens when a frame arrives at a full per-stream queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// The arriving frame is skipped (the queue keeps its older frames).
    Newest,
    /// The oldest queued frame is dropped to admit the arriving one —
    /// freshest-data-wins, the usual choice for live monitoring.
    Oldest,
}

impl DropPolicy {
    /// Every policy, in CLI listing order.
    pub const ALL: [Self; 2] = [DropPolicy::Newest, DropPolicy::Oldest];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            DropPolicy::Newest => "newest",
            DropPolicy::Oldest => "oldest",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Which [`ScalePolicy`](crate::autoscale::ScalePolicy) the control loop
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePolicyKind {
    /// No autoscaling: the worker count never changes and no control
    /// ticks are scheduled (bit-identical to pre-autoscale behaviour).
    Fixed,
    /// Hysteresis on window shed-rate and p99 with a cooldown.
    Hysteresis,
    /// Step-load-aware proportional tracking of the arrival rate.
    Proportional,
    /// Forecast-driven proactive scaling: targets the forecast arrival
    /// rate ahead of a load step, falling back to hysteresis semantics
    /// while the forecaster's confidence is low.
    Predictive,
}

impl ScalePolicyKind {
    /// Every controller, in CLI listing order.
    pub const ALL: [Self; 4] = [
        ScalePolicyKind::Fixed,
        ScalePolicyKind::Hysteresis,
        ScalePolicyKind::Proportional,
        ScalePolicyKind::Predictive,
    ];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            ScalePolicyKind::Fixed => "fixed",
            ScalePolicyKind::Hysteresis => "hysteresis",
            ScalePolicyKind::Proportional => "proportional",
            ScalePolicyKind::Predictive => "predictive",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Autoscaling control-loop configuration.
///
/// With [`ScalePolicyKind::Fixed`] the remaining knobs are inert. All
/// times are virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// The controller to run.
    pub policy: ScalePolicyKind,
    /// Spacing of control ticks on the virtual clock.
    pub control_interval_s: f64,
    /// Lower bound on active workers.
    pub min_workers: usize,
    /// Upper bound on active workers (also sizes the worker slots).
    pub max_workers: usize,
    /// Hysteresis: scale up when the window shed rate exceeds this.
    pub up_shed_rate: f64,
    /// Hysteresis: scale up when the window p99 exceeds this.
    pub up_p99_s: f64,
    /// Hysteresis: scaling down requires the window p99 below this.
    pub down_p99_s: f64,
    /// Hysteresis: control ticks to hold after any change.
    pub cooldown_ticks: usize,
    /// Hysteresis: workers added/removed per decision.
    pub scale_step: usize,
    /// Proportional: assumed service time per frame.
    pub service_s_per_frame: f64,
}

impl AutoscaleConfig {
    /// Autoscaling off (the default): fixed worker count, no ticks.
    pub fn fixed() -> Self {
        Self {
            policy: ScalePolicyKind::Fixed,
            control_interval_s: 0.25,
            min_workers: 1,
            max_workers: 8,
            up_shed_rate: 0.02,
            up_p99_s: 0.5,
            down_p99_s: 0.15,
            cooldown_ticks: 1,
            scale_step: 1,
            service_s_per_frame: 0.05,
        }
    }

    /// Hysteresis controller bounded to `[min_workers, max_workers]`.
    pub fn hysteresis(min_workers: usize, max_workers: usize) -> Self {
        Self {
            policy: ScalePolicyKind::Hysteresis,
            min_workers,
            max_workers,
            ..Self::fixed()
        }
    }

    /// Proportional controller with a per-frame service-time estimate.
    pub fn proportional(min_workers: usize, max_workers: usize, service_s_per_frame: f64) -> Self {
        Self {
            policy: ScalePolicyKind::Proportional,
            min_workers,
            max_workers,
            service_s_per_frame,
            ..Self::fixed()
        }
    }

    /// Predictive controller bounded to `[min_workers, max_workers]`,
    /// driven by the fleet's arrival-rate forecaster
    /// ([`ServeConfig::forecast`]).
    pub fn predictive(min_workers: usize, max_workers: usize) -> Self {
        Self {
            policy: ScalePolicyKind::Predictive,
            min_workers,
            max_workers,
            ..Self::fixed()
        }
    }

    /// Returns a copy with a different control interval.
    pub fn with_control_interval_s(mut self, control_interval_s: f64) -> Self {
        self.control_interval_s = control_interval_s;
        self
    }

    /// Returns a copy with a different cooldown.
    pub fn with_cooldown_ticks(mut self, cooldown_ticks: usize) -> Self {
        self.cooldown_ticks = cooldown_ticks;
        self
    }

    /// Returns a copy with a different scale step.
    pub fn with_scale_step(mut self, scale_step: usize) -> Self {
        self.scale_step = scale_step;
        self
    }

    /// Returns a copy with different scale-up thresholds.
    pub fn with_up_thresholds(mut self, up_shed_rate: f64, up_p99_s: f64) -> Self {
        self.up_shed_rate = up_shed_rate;
        self.up_p99_s = up_p99_s;
        self
    }

    /// Whether the control loop actually runs.
    pub fn enabled(&self) -> bool {
        self.policy != ScalePolicyKind::Fixed
    }

    fn validate(&self) -> Result<(), ConfigError> {
        ensure!(
            self.min_workers >= 1,
            "autoscale.min_workers",
            "autoscale floor must be at least 1"
        );
        ensure!(
            self.max_workers >= self.min_workers,
            "autoscale.max_workers",
            "autoscale ceiling must be at least the floor"
        );
        ensure!(
            self.max_workers <= SIZING_LIMIT,
            "autoscale.max_workers",
            "autoscale ceiling must be at most {SIZING_LIMIT}"
        );
        ensure!(
            self.control_interval_s > 0.0 && self.control_interval_s.is_finite(),
            "autoscale.control_interval_s",
            "control interval must be finite and positive"
        );
        ensure!(
            self.control_interval_s >= MIN_TICK_S,
            "autoscale.control_interval_s",
            "control interval must be at least {MIN_TICK_S} s"
        );
        ensure!(
            self.scale_step >= 1,
            "autoscale.scale_step",
            "scale step must be at least 1"
        );
        ensure!(
            self.service_s_per_frame > 0.0 && self.service_s_per_frame.is_finite(),
            "autoscale.service_s_per_frame",
            "service time estimate must be finite and positive"
        );
        for (field, threshold) in [
            ("autoscale.up_shed_rate", self.up_shed_rate),
            ("autoscale.up_p99_s", self.up_p99_s),
            ("autoscale.down_p99_s", self.down_p99_s),
        ] {
            ensure!(threshold >= 0.0, field, "thresholds must be non-negative");
        }
        Ok(())
    }
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self::fixed()
    }
}

/// Which [`AdmissionPolicy`](crate::admission::AdmissionPolicy) gates
/// arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Every frame is admitted (the default).
    AdmitAll,
    /// Per-stream token-bucket rate limiting.
    TokenBucket,
    /// Priority classes shed lowest-first under overload.
    Priority,
}

impl AdmissionKind {
    /// Every policy, in CLI listing order.
    pub const ALL: [Self; 3] = [
        AdmissionKind::AdmitAll,
        AdmissionKind::TokenBucket,
        AdmissionKind::Priority,
    ];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionKind::AdmitAll => "admit-all",
            AdmissionKind::TokenBucket => "token-bucket",
            AdmissionKind::Priority => "priority",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Admission-control configuration; knobs not used by the selected kind
/// are inert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// The policy gating arrivals.
    pub kind: AdmissionKind,
    /// Token bucket: sustained admitted rate per stream (frames/s).
    pub rate_fps: f64,
    /// Token bucket: burst capacity per stream (frames).
    pub burst: f64,
    /// Priority: backlog (queued frames fleet-wide) per overload level.
    pub backlog_watermark: usize,
    /// Priority: downgrade-before-drop. When the shed rung would reject a
    /// stream's frame, the frame is admitted anyway and the stream's
    /// frame policy is demoted one class instead (see
    /// [`PolicedPipeline`](catdet_core::PolicedPipeline)); the class is
    /// restored the first time the stream clears admission again.
    pub downgrade: bool,
}

impl AdmissionConfig {
    /// No admission control (the default).
    pub fn admit_all() -> Self {
        Self {
            kind: AdmissionKind::AdmitAll,
            rate_fps: 30.0,
            burst: 10.0,
            backlog_watermark: 32,
            downgrade: false,
        }
    }

    /// Token-bucket rate limiting per stream.
    pub fn token_bucket(rate_fps: f64, burst: f64) -> Self {
        Self {
            kind: AdmissionKind::TokenBucket,
            rate_fps,
            burst,
            ..Self::admit_all()
        }
    }

    /// Priority shedding with the given backlog watermark.
    pub fn priority(backlog_watermark: usize) -> Self {
        Self {
            kind: AdmissionKind::Priority,
            backlog_watermark,
            ..Self::admit_all()
        }
    }

    /// Returns a copy with downgrade-before-drop on or off.
    pub fn with_downgrade(mut self, downgrade: bool) -> Self {
        self.downgrade = downgrade;
        self
    }

    fn validate(&self) -> Result<(), ConfigError> {
        ensure!(
            !self.downgrade || self.kind == AdmissionKind::Priority,
            "admission.downgrade",
            "downgrade-before-drop needs the priority admission policy"
        );
        ensure!(
            self.rate_fps > 0.0 && self.rate_fps.is_finite(),
            "admission.rate_fps",
            "admission rate must be finite and positive"
        );
        ensure!(
            self.burst >= 1.0 && self.burst.is_finite(),
            "admission.burst",
            "admission burst must be at least one frame"
        );
        ensure!(
            self.backlog_watermark >= 1,
            "admission.backlog_watermark",
            "backlog watermark must be at least 1"
        );
        Ok(())
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::admit_all()
    }
}

/// Which [`PartitionPolicy`](crate::shard::PartitionPolicy) assigns
/// streams to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// Stateless hash of the stream id modulo the shard count — uniform
    /// in expectation, zero coordination, the default.
    StaticHash,
    /// Greedy least-loaded placement by total frames per shard: each
    /// stream lands on the shard with the fewest frames assigned so far.
    LeastLoaded,
    /// Consistent-hash ring with virtual nodes: stream placement is
    /// stable under shard-count changes (only ~1/N of streams move when a
    /// shard is added), the property a growing fleet wants.
    ConsistentHash,
}

impl PartitionKind {
    /// Every policy, in CLI listing order.
    pub const ALL: [Self; 3] = [
        PartitionKind::StaticHash,
        PartitionKind::LeastLoaded,
        PartitionKind::ConsistentHash,
    ];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionKind::StaticHash => "static-hash",
            PartitionKind::LeastLoaded => "least-loaded",
            PartitionKind::ConsistentHash => "consistent-hash",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Sharded-fleet configuration: how many independent scheduler shards the
/// fleet runs, how streams are partitioned across them, and whether (and
/// how eagerly) the live rebalancer migrates streams between shards.
///
/// With `shards == 1` the remaining knobs are inert; that fleet is what
/// [`serve`](crate::serve) runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Number of independent scheduler shards, each with its own worker
    /// slots, queues, admission gate and autoscaler ([`ServeConfig`]'s
    /// worker/autoscale settings apply **per shard**).
    pub shards: usize,
    /// Stream → shard placement policy.
    pub partition: PartitionKind,
    /// Spacing of live-rebalance ticks on the fleet's virtual clock;
    /// `0.0` disables rebalancing (streams stay where placed).
    pub rebalance_interval_s: f64,
    /// Minimum load imbalance (in frames, hottest minus coolest shard)
    /// before a migration pays for itself; below it the rebalancer holds
    /// still. This is the migration-cost hysteresis knob, priced against
    /// the current backlog gap or the predicted one depending on
    /// [`rebalance_signal`](ShardConfig::rebalance_signal).
    pub migration_cost_frames: usize,
    /// Load signal the rebalancer compares across shards: current queued
    /// backlog (the reactive default) or backlog plus forecast arrivals
    /// over the forecast horizon.
    pub rebalance_signal: RebalanceSignal,
    /// Rebalance ticks a stream must sit out after migrating before it
    /// may move again. Prevents one stream ping-ponging between two
    /// shards on alternating ticks under near-symmetric load; `0`
    /// disables the cooldown.
    pub migration_cooldown_ticks: usize,
    /// Pool [`RefinementWork`](catdet_core::RefinementWork) across shards:
    /// with [`fuse_refinement`](ServeConfig::fuse_refinement) on, frames
    /// suspended at their refinement boundary on *different shards* share
    /// one fused GPU dispatch, preserving cross-stream amortisation after
    /// sharding. Off, each shard fuses only its own streams.
    pub fuse_across_shards: bool,
    /// OS threads that advance shard engines between coordination
    /// barriers, counting the calling thread: `N` threads are the caller
    /// plus `N − 1` pool helpers, the only threads a serving run starts.
    /// A helper gets an engine only while the caller is busy with another
    /// one in the same pass; the same threads split the net front door's
    /// clients before the engines start. `1` (the default) keeps the
    /// sequential loop with no pool; `0` means auto (the host's available
    /// parallelism). Either way the count is capped at the shard count.
    /// Results are **bit-identical at every setting** — threads change
    /// wall-clock time only, never the simulation (the cli-determinism CI
    /// job pins this).
    pub threads: usize,
}

impl ShardConfig {
    /// One shard, no rebalancing: the monolithic-scheduler default.
    pub fn single() -> Self {
        Self {
            shards: 1,
            partition: PartitionKind::StaticHash,
            rebalance_interval_s: 0.0,
            migration_cost_frames: 8,
            rebalance_signal: RebalanceSignal::Backlog,
            migration_cooldown_ticks: 2,
            fuse_across_shards: true,
            threads: 1,
        }
    }

    /// A fleet of `shards` shards with the default partition policy.
    pub fn sharded(shards: usize) -> Self {
        Self {
            shards,
            ..Self::single()
        }
    }

    /// Returns a copy with a different partition policy.
    pub fn with_partition(mut self, partition: PartitionKind) -> Self {
        self.partition = partition;
        self
    }

    /// Returns a copy with live rebalancing every `interval_s` virtual
    /// seconds (`0.0` disables).
    pub fn with_rebalance_interval_s(mut self, interval_s: f64) -> Self {
        self.rebalance_interval_s = interval_s;
        self
    }

    /// Returns a copy with a different migration-cost hysteresis.
    pub fn with_migration_cost_frames(mut self, frames: usize) -> Self {
        self.migration_cost_frames = frames;
        self
    }

    /// Returns a copy with a different rebalance load signal.
    pub fn with_rebalance_signal(mut self, signal: RebalanceSignal) -> Self {
        self.rebalance_signal = signal;
        self
    }

    /// Returns a copy with a different per-stream migration cooldown
    /// (`0` disables).
    pub fn with_migration_cooldown_ticks(mut self, ticks: usize) -> Self {
        self.migration_cooldown_ticks = ticks;
        self
    }

    /// Returns a copy with cross-shard refinement fusion on or off.
    pub fn with_fuse_across_shards(mut self, on: bool) -> Self {
        self.fuse_across_shards = on;
        self
    }

    /// Returns a copy running shard engines on `threads` OS threads
    /// between barriers, the caller and `threads − 1` helpers (`0` =
    /// auto, `1` = sequential). Purely a wall-clock knob: reports,
    /// timelines and recordings are bit-identical at every setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn validate(&self) -> Result<(), ConfigError> {
        ensure!(self.shards >= 1, "shard.shards", "need at least one shard");
        ensure!(
            self.shards <= SIZING_LIMIT,
            "shard.shards",
            "at most {SIZING_LIMIT} shards"
        );
        ensure!(
            self.rebalance_interval_s >= 0.0 && self.rebalance_interval_s.is_finite(),
            "shard.rebalance_interval_s",
            "rebalance interval must be finite and non-negative"
        );
        ensure!(
            self.rebalance_interval_s == 0.0 || self.rebalance_interval_s >= MIN_TICK_S,
            "shard.rebalance_interval_s",
            "rebalance interval must be 0 (off) or at least {MIN_TICK_S} s"
        );
        Ok(())
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// Flight-recorder configuration: whether a run books its telemetry into
/// a [`catdet_recorder`] chunk store, and the store's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Record events at all. Off (the default), the engines run with the
    /// no-op recorder and pay only a cold `enabled()` check per hook.
    pub enabled: bool,
    /// Chunk capacity in events: chunks seal (and enter the time index)
    /// at this many rows.
    pub chunk_events: usize,
    /// Sealed-chunk retention budget; the least-recently-used sealed
    /// chunk is evicted beyond it. `usize::MAX` (the default) retains
    /// everything. The budget bounds snapshots too: a snapshot is dropped
    /// once eviction removes a later completion of its stream, because it
    /// can no longer replay.
    pub retention_chunks: usize,
    /// Capture a replay snapshot of each stream every this many completed
    /// frames. `0` (the default) disables snapshots — and with them
    /// time-travel replay. Snapshots are kept only while every later
    /// completion of their stream survives eviction (see
    /// `retention_chunks`). A snapshot holds the stream's tracker state
    /// and, per detector, 48 bytes for each track its sequence has shown
    /// (stream positions, not generators). A one-shard fleet publishes as
    /// its chunks fill, so its snapshots die with their evicted window
    /// during the run; a K-shard fleet publishes at its rebalance
    /// barriers, and without rebalancing only at the end.
    pub snapshot_every_frames: usize,
}

impl RecorderConfig {
    /// Recording off — the zero-cost default.
    pub fn off() -> Self {
        Self {
            enabled: false,
            chunk_events: 512,
            retention_chunks: usize::MAX,
            snapshot_every_frames: 0,
        }
    }

    /// Recording on with default chunking, unbounded retention and no
    /// snapshots.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// Returns a copy with a different chunk capacity.
    pub fn with_chunk_events(mut self, chunk_events: usize) -> Self {
        self.chunk_events = chunk_events;
        self
    }

    /// Returns a copy with a different sealed-chunk retention budget.
    pub fn with_retention_chunks(mut self, retention_chunks: usize) -> Self {
        self.retention_chunks = retention_chunks;
        self
    }

    /// Returns a copy with a different snapshot cadence (`0` disables).
    pub fn with_snapshot_every_frames(mut self, frames: usize) -> Self {
        self.snapshot_every_frames = frames;
        self
    }

    /// Builds the shared store this configuration describes.
    pub fn build(&self) -> SharedRecorder {
        SharedRecorder::new(
            self.chunk_events,
            self.retention_chunks,
            self.snapshot_every_frames,
        )
    }

    fn validate(&self) -> Result<(), ConfigError> {
        ensure!(
            self.chunk_events >= 1,
            "recorder.chunk_events",
            "recorder chunks must hold at least one event"
        );
        ensure!(
            self.snapshot_every_frames == 0 || self.retention_chunks >= 1,
            "recorder.retention_chunks",
            "zero retention cannot feed replay: snapshots need their recorded events kept; \
             raise the retention budget or disable snapshots"
        );
        Ok(())
    }
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// How frames enter the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestKind {
    /// Streams are handed to the scheduler as in-memory frame timelines
    /// — the pre-network behaviour, and the default.
    Direct,
    /// Streams arrive through the simulated network front door: each
    /// camera is a CamLink connection whose frames cross a faulty wire,
    /// a bounded receive window and a per-client door rate limiter
    /// before reaching the partition layer.
    Net,
}

impl IngestKind {
    /// Every kind, in CLI listing order.
    pub const ALL: [Self; 2] = [IngestKind::Direct, IngestKind::Net];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            IngestKind::Direct => "direct",
            IngestKind::Net => "net",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Network front-door configuration; inert unless
/// [`kind`](IngestConfig::kind) is [`IngestKind::Net`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// How frames enter the serving layer.
    pub kind: IngestKind,
    /// Fixed camera → door propagation delay (virtual seconds).
    pub conn_latency_s: f64,
    /// Maximum extra per-chunk delivery jitter (virtual seconds).
    pub conn_jitter_s: f64,
    /// Link throughput in bytes per virtual second.
    pub link_bytes_per_s: f64,
    /// Maximum bytes per partial write on the wire.
    pub chunk_bytes: usize,
    /// Probability two adjacent chunks of a record swap in flight
    /// (corrupting the record; the camera never retransmits corruption).
    pub reorder_rate: f64,
    /// Per-record probability the connection drops mid-send (the camera
    /// reconnects and resumes from its cursor).
    pub disconnect_rate: f64,
    /// Downtime after a disconnect before the camera resumes.
    pub reconnect_delay_s: f64,
    /// Bounded per-connection receive window, in frames; `0` (the
    /// default) follows [`ServeConfig::queue_capacity`].
    pub recv_window: usize,
    /// Rate at which the window drains past the door (models the shard
    /// pulling from the connection).
    pub drain_fps: f64,
    /// Sustained per-client frame rate admitted past the door.
    pub door_rate_fps: f64,
    /// Door token-bucket burst, in frames.
    pub door_burst: f64,
}

impl IngestConfig {
    /// Direct ingest — the pre-network default. The network knobs hold
    /// clean-link values so switching the kind alone is meaningful.
    pub fn direct() -> Self {
        Self {
            kind: IngestKind::Direct,
            conn_latency_s: 0.002,
            conn_jitter_s: 0.0,
            link_bytes_per_s: 1_000_000.0,
            chunk_bytes: 512,
            reorder_rate: 0.0,
            disconnect_rate: 0.0,
            reconnect_delay_s: 0.05,
            recv_window: 0,
            drain_fps: 120.0,
            door_rate_fps: 120.0,
            door_burst: 16.0,
        }
    }

    /// Network ingest over a clean link.
    pub fn net() -> Self {
        Self {
            kind: IngestKind::Net,
            ..Self::direct()
        }
    }

    /// Returns a copy with a different per-chunk jitter bound.
    pub fn with_conn_jitter_s(mut self, conn_jitter_s: f64) -> Self {
        self.conn_jitter_s = conn_jitter_s;
        self
    }

    /// Returns a copy with a different in-flight reorder probability.
    pub fn with_reorder_rate(mut self, reorder_rate: f64) -> Self {
        self.reorder_rate = reorder_rate;
        self
    }

    /// Returns a copy with a different mid-send disconnect probability.
    pub fn with_disconnect_rate(mut self, disconnect_rate: f64) -> Self {
        self.disconnect_rate = disconnect_rate;
        self
    }

    /// Returns a copy with a different receive window (`0` follows the
    /// queue capacity).
    pub fn with_recv_window(mut self, recv_window: usize) -> Self {
        self.recv_window = recv_window;
        self
    }

    /// Returns a copy with a different window drain rate.
    pub fn with_drain_fps(mut self, drain_fps: f64) -> Self {
        self.drain_fps = drain_fps;
        self
    }

    /// Returns a copy with a different door rate limit.
    pub fn with_door_rate_fps(mut self, door_rate_fps: f64) -> Self {
        self.door_rate_fps = door_rate_fps;
        self
    }

    /// Returns a copy with a different door burst.
    pub fn with_door_burst(mut self, door_burst: f64) -> Self {
        self.door_burst = door_burst;
        self
    }

    /// The wire behaviour these knobs describe.
    pub fn link_params(&self) -> LinkParams {
        LinkParams {
            base_latency_s: self.conn_latency_s,
            jitter_s: self.conn_jitter_s,
            bytes_per_s: self.link_bytes_per_s,
            chunk_bytes: self.chunk_bytes,
            reorder_rate: self.reorder_rate,
            disconnect_rate: self.disconnect_rate,
            reconnect_delay_s: self.reconnect_delay_s,
        }
    }

    /// The full front-door parameters for a run: `seed` keys every
    /// connection's randomness, `queue_capacity` backs the receive
    /// window when [`recv_window`](IngestConfig::recv_window) is `0` —
    /// connection backpressure maps onto the same bound as the
    /// scheduler's per-stream queues.
    pub fn net_params(&self, seed: u64, queue_capacity: usize) -> NetParams {
        NetParams {
            seed,
            link: self.link_params(),
            recv_window: if self.recv_window == 0 {
                queue_capacity
            } else {
                self.recv_window
            },
            drain_fps: self.drain_fps,
            door_rate_fps: self.door_rate_fps,
            door_burst: self.door_burst,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        // Seed and window backing do not affect validity; placeholders.
        self.net_params(0, 1).validate().map_err(|(field, rule)| {
            // Three link fields are named after the knob, not the wire.
            let field = match field {
                "base_latency_s" => "conn_latency_s",
                "jitter_s" => "conn_jitter_s",
                "bytes_per_s" => "link_bytes_per_s",
                same => same,
            };
            ConfigError {
                field: format!("ingest.{field}"),
                rule: rule.into(),
            }
        })
    }
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self::direct()
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker count: the modelled executor count in virtual time (per
    /// shard). Workers are scheduling state, not OS threads; see
    /// [`ShardConfig::threads`] for those.
    pub workers: usize,
    /// Maximum frames (one per stream) fused into a proposal micro-batch.
    pub max_batch: usize,
    /// How long a worker may wait (virtual seconds) for more streams to
    /// contribute frames before closing an under-full batch. `0.0`
    /// dispatches immediately.
    pub batch_window_s: f64,
    /// Bounded per-stream queue length; arrivals beyond it invoke the
    /// [`DropPolicy`].
    pub queue_capacity: usize,
    /// Fuse refinement launches across streams: frames suspend at their
    /// refinement boundary (the staged-detector protocol) and their
    /// pending [`RefinementWork`](catdet_core::RefinementWork) items are
    /// flushed as one shared GPU dispatch — across batches and workers.
    /// Off (the default) prices one refinement launch per frame, the
    /// pre-staged behaviour.
    pub fuse_refinement: bool,
    /// How long (virtual seconds) a frame may wait at its refinement
    /// boundary for other streams to reach theirs before the shared
    /// dispatch fires. `0.0` flushes immediately (still fusing frames
    /// that reach the boundary at the same instant, e.g. one proposal
    /// batch's worth). Inert unless [`fuse_refinement`] is on.
    ///
    /// [`fuse_refinement`]: ServeConfig::fuse_refinement
    pub refine_batch_window_s: f64,
    /// Stream selection policy.
    pub schedule: SchedulePolicy,
    /// Per-frame detect-or-track policy applied to every stream that does
    /// not carry its own class on its
    /// [`StreamSpec`](crate::StreamSpec). The default
    /// ([`PolicyConfig::always_detect`]) detects every frame and is
    /// bit-identical to the unpoliced pipeline.
    pub policy: PolicyConfig,
    /// Backpressure behaviour on a full queue.
    pub drop_policy: DropPolicy,
    /// GPU/CPU execution-time model used for all virtual-time accounting.
    pub timing: GpuTimingModel,
    /// Worker-count control loop; [`AutoscaleConfig::fixed`] disables it.
    pub autoscale: AutoscaleConfig,
    /// Arrival-rate forecaster shape, read by the predictive autoscaler
    /// ([`ScalePolicyKind::Predictive`]) and the predicted-load
    /// rebalancer ([`RebalanceSignal::Predicted`]); inert when neither
    /// consumer is selected.
    pub forecast: ForecastConfig,
    /// Arrival gating; [`AdmissionConfig::admit_all`] disables it.
    pub admission: AdmissionConfig,
    /// Fleet sharding; [`ShardConfig::single`] (the default) is the
    /// monolithic scheduler. Only consulted by
    /// [`serve_fleet`](crate::serve_fleet).
    pub shard: ShardConfig,
    /// Flight recording; [`RecorderConfig::off`] (the default) disables
    /// it.
    pub recorder: RecorderConfig,
    /// How frames enter the serving layer;
    /// [`IngestConfig::direct`] (the default) bypasses the network
    /// front door. Only consulted by
    /// [`serve_net_fleet`](crate::serve_net_fleet).
    pub ingest: IngestConfig,
}

impl ServeConfig {
    /// Sensible single-GPU defaults: 4 workers, batches of up to 4 with no
    /// added wait, 64-frame queues, round-robin, drop-newest.
    pub fn new() -> Self {
        Self {
            workers: 4,
            max_batch: 4,
            batch_window_s: 0.0,
            queue_capacity: 64,
            fuse_refinement: false,
            refine_batch_window_s: 0.0,
            schedule: SchedulePolicy::RoundRobin,
            policy: PolicyConfig::always_detect(),
            drop_policy: DropPolicy::Newest,
            timing: GpuTimingModel::titan_x_maxwell(),
            autoscale: AutoscaleConfig::fixed(),
            forecast: ForecastConfig::new(),
            admission: AdmissionConfig::admit_all(),
            shard: ShardConfig::single(),
            recorder: RecorderConfig::off(),
            ingest: IngestConfig::direct(),
        }
    }

    /// Returns a copy with a different worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns a copy with a different micro-batch limit.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Returns a copy with a different batch window.
    pub fn with_batch_window_s(mut self, batch_window_s: f64) -> Self {
        self.batch_window_s = batch_window_s;
        self
    }

    /// Returns a copy with a different queue capacity.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Returns a copy with cross-stream refinement fusion on or off.
    pub fn with_fuse_refinement(mut self, fuse_refinement: bool) -> Self {
        self.fuse_refinement = fuse_refinement;
        self
    }

    /// Returns a copy with a different refinement fuse window.
    pub fn with_refine_batch_window_s(mut self, refine_batch_window_s: f64) -> Self {
        self.refine_batch_window_s = refine_batch_window_s;
        self
    }

    /// Returns a copy with a different scheduling policy.
    pub fn with_schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Returns a copy with a different per-frame detect-or-track policy.
    pub fn with_policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different drop policy.
    pub fn with_drop_policy(mut self, drop_policy: DropPolicy) -> Self {
        self.drop_policy = drop_policy;
        self
    }

    /// Returns a copy with a different autoscaling configuration.
    pub fn with_autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = autoscale;
        self
    }

    /// Returns a copy with a different forecaster configuration.
    pub fn with_forecast(mut self, forecast: ForecastConfig) -> Self {
        self.forecast = forecast;
        self
    }

    /// Returns a copy with a different admission configuration.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Returns a copy with a different fleet sharding configuration.
    pub fn with_shard(mut self, shard: ShardConfig) -> Self {
        self.shard = shard;
        self
    }

    /// Returns a copy with a different flight-recorder configuration.
    pub fn with_recorder(mut self, recorder: RecorderConfig) -> Self {
        self.recorder = recorder;
        self
    }

    /// Returns a copy with a different ingest configuration.
    pub fn with_ingest(mut self, ingest: IngestConfig) -> Self {
        self.ingest = ingest;
        self
    }

    /// Checks every rule the configuration must satisfy: this is the one
    /// place they are written.
    ///
    /// # Errors
    ///
    /// The first broken rule, naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure!(self.workers >= 1, "workers", "need at least one worker");
        ensure!(
            self.workers <= SIZING_LIMIT,
            "workers",
            "at most {SIZING_LIMIT} workers"
        );
        ensure!(
            self.max_batch >= 1,
            "max_batch",
            "need a batch size of at least one"
        );
        ensure!(
            self.queue_capacity >= 1,
            "queue_capacity",
            "need queue capacity of at least one"
        );
        ensure!(
            self.batch_window_s >= 0.0 && self.batch_window_s.is_finite(),
            "batch_window_s",
            "batch window must be finite and non-negative"
        );
        ensure!(
            self.refine_batch_window_s >= 0.0 && self.refine_batch_window_s.is_finite(),
            "refine_batch_window_s",
            "refinement batch window must be finite and non-negative"
        );
        self.policy
            .validate()
            .map_err(|(field, rule)| ConfigError {
                field: format!("policy.{field}"),
                rule: rule.into(),
            })?;
        self.autoscale.validate()?;
        self.forecast.validate()?;
        self.admission.validate()?;
        self.shard.validate()?;
        self.recorder.validate()?;
        self.ingest.validate()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_applies_every_knob() {
        let cfg = ServeConfig::new()
            .with_workers(8)
            .with_max_batch(16)
            .with_batch_window_s(0.01)
            .with_queue_capacity(2)
            .with_fuse_refinement(true)
            .with_refine_batch_window_s(0.004)
            .with_schedule(SchedulePolicy::LeastBacklog)
            .with_policy(PolicyConfig::confidence_trigger(1.5))
            .with_drop_policy(DropPolicy::Oldest);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.max_batch, 16);
        assert_eq!(cfg.queue_capacity, 2);
        assert!(cfg.fuse_refinement);
        assert_eq!(cfg.refine_batch_window_s, 0.004);
        assert_eq!(cfg.schedule, SchedulePolicy::LeastBacklog);
        assert_eq!(cfg.policy, PolicyConfig::confidence_trigger(1.5));
        assert_eq!(cfg.drop_policy, DropPolicy::Oldest);
        assert!(!ServeConfig::new().fuse_refinement, "fusion is opt-in");
        assert_eq!(
            ServeConfig::new().policy,
            PolicyConfig::always_detect(),
            "the frame policy defaults to the golden baseline"
        );
    }

    #[test]
    #[should_panic(expected = "downgrade-before-drop needs the priority admission policy")]
    fn downgrade_without_priority_is_rejected() {
        ServeConfig::new()
            .with_admission(AdmissionConfig::admit_all().with_downgrade(true))
            .validate()
            .unwrap();
    }

    #[test]
    fn downgrade_rides_the_priority_policy() {
        let cfg =
            ServeConfig::new().with_admission(AdmissionConfig::priority(16).with_downgrade(true));
        assert_eq!(cfg.validate(), Ok(()));
        assert!(cfg.admission.downgrade);
        assert!(
            !ServeConfig::new().admission.downgrade,
            "downgrade is opt-in"
        );
    }

    #[test]
    #[should_panic(expected = "refinement batch window")]
    fn negative_refine_window_is_rejected() {
        ServeConfig::new()
            .with_refine_batch_window_s(-0.001)
            .validate()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        ServeConfig::new().with_workers(0).validate().unwrap();
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [SchedulePolicy::RoundRobin, SchedulePolicy::LeastBacklog] {
            assert_eq!(SchedulePolicy::from_name(p.name()), Some(p));
        }
        for d in [DropPolicy::Newest, DropPolicy::Oldest] {
            assert_eq!(DropPolicy::from_name(d.name()), Some(d));
        }
        assert_eq!(SchedulePolicy::from_name("x"), None);
        for k in [
            ScalePolicyKind::Fixed,
            ScalePolicyKind::Hysteresis,
            ScalePolicyKind::Proportional,
            ScalePolicyKind::Predictive,
        ] {
            assert_eq!(ScalePolicyKind::from_name(k.name()), Some(k));
        }
        for k in [
            AdmissionKind::AdmitAll,
            AdmissionKind::TokenBucket,
            AdmissionKind::Priority,
        ] {
            assert_eq!(AdmissionKind::from_name(k.name()), Some(k));
        }
    }

    #[test]
    fn autoscale_and_admission_ride_the_builder() {
        let cfg = ServeConfig::new()
            .with_autoscale(AutoscaleConfig::hysteresis(2, 6))
            .with_admission(AdmissionConfig::token_bucket(15.0, 4.0));
        assert_eq!(cfg.validate(), Ok(()));
        assert!(cfg.autoscale.enabled());
        assert_eq!(cfg.autoscale.min_workers, 2);
        assert_eq!(cfg.autoscale.max_workers, 6);
        assert_eq!(cfg.admission.kind, AdmissionKind::TokenBucket);
        assert!(!AutoscaleConfig::fixed().enabled());
    }

    #[test]
    fn predictive_autoscale_and_forecast_ride_the_builder() {
        let cfg = ServeConfig::new()
            .with_autoscale(AutoscaleConfig::predictive(2, 12))
            .with_forecast(ForecastConfig::new().with_horizon_s(0.75))
            .with_shard(
                ShardConfig::sharded(4)
                    .with_rebalance_signal(RebalanceSignal::Predicted)
                    .with_migration_cooldown_ticks(3),
            );
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.autoscale.policy, ScalePolicyKind::Predictive);
        assert!(cfg.autoscale.enabled());
        assert_eq!(cfg.forecast.horizon_s, 0.75);
        assert_eq!(cfg.shard.rebalance_signal, RebalanceSignal::Predicted);
        assert_eq!(cfg.shard.migration_cooldown_ticks, 3);
        assert_eq!(
            ServeConfig::new().shard.rebalance_signal,
            RebalanceSignal::Backlog,
            "the predicted signal is opt-in"
        );
    }

    #[test]
    #[should_panic(expected = "forecast horizon")]
    fn negative_forecast_horizon_is_rejected() {
        ServeConfig::new()
            .with_forecast(ForecastConfig::new().with_horizon_s(-1.0))
            .validate()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn inverted_autoscale_bounds_are_rejected() {
        ServeConfig::new()
            .with_autoscale(AutoscaleConfig::hysteresis(4, 2))
            .validate()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "control interval")]
    fn zero_control_interval_is_rejected() {
        ServeConfig::new()
            .with_autoscale(AutoscaleConfig::hysteresis(1, 4).with_control_interval_s(0.0))
            .validate()
            .unwrap();
    }

    #[test]
    fn recorder_rides_the_builder() {
        let cfg = ServeConfig::new().with_recorder(
            RecorderConfig::on()
                .with_chunk_events(128)
                .with_retention_chunks(64)
                .with_snapshot_every_frames(25),
        );
        assert_eq!(cfg.validate(), Ok(()));
        assert!(cfg.recorder.enabled);
        assert_eq!(cfg.recorder.chunk_events, 128);
        assert_eq!(cfg.recorder.retention_chunks, 64);
        assert_eq!(cfg.recorder.snapshot_every_frames, 25);
        assert!(!ServeConfig::new().recorder.enabled, "recording is opt-in");
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_event_recorder_chunks_are_rejected() {
        ServeConfig::new()
            .with_recorder(RecorderConfig::on().with_chunk_events(0))
            .validate()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "zero retention cannot feed replay")]
    fn zero_retention_with_snapshots_is_rejected() {
        ServeConfig::new()
            .with_recorder(
                RecorderConfig::on()
                    .with_retention_chunks(0)
                    .with_snapshot_every_frames(10),
            )
            .validate()
            .unwrap();
    }

    #[test]
    fn sub_millisecond_ticks_are_rejected() {
        let autoscale = |interval_s| {
            ServeConfig::new().with_autoscale(
                AutoscaleConfig::hysteresis(1, 4).with_control_interval_s(interval_s),
            )
        };
        let err = autoscale(1e-300).validate().unwrap_err();
        assert_eq!(err.field, "autoscale.control_interval_s");
        assert_eq!(autoscale(MIN_TICK_S).validate(), Ok(()));
        let rebalance = |interval_s| {
            ServeConfig::new()
                .with_shard(ShardConfig::sharded(2).with_rebalance_interval_s(interval_s))
        };
        let err = rebalance(1e-300).validate().unwrap_err();
        assert_eq!(err.field, "shard.rebalance_interval_s");
        assert_eq!(rebalance(MIN_TICK_S).validate(), Ok(()));
        assert_eq!(rebalance(0.0).validate(), Ok(()), "0 turns rebalancing off");
    }

    #[test]
    fn errors_name_the_field_path() {
        let err = ServeConfig::new()
            .with_policy(PolicyConfig::fixed_stride(0))
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "policy.stride");
        assert_eq!(
            err.to_string(),
            "policy.stride: policy stride must be at least 1"
        );
        let err = ServeConfig::new()
            .with_ingest(IngestConfig::net().with_conn_jitter_s(-1.0))
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "ingest.conn_jitter_s");
        let err = ServeConfig::new()
            .with_ingest(IngestConfig::net().with_door_burst(0.5))
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "ingest.door_burst");
    }
}
