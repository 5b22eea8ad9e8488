//! `catdet-serve`: run a multi-camera workload through the serving
//! subsystem and print the throughput/latency report, optionally with
//! feedback-driven autoscaling and admission control.
//!
//! ```text
//! catdet-serve --streams 32 --workers 8 --frames 60 --batch 8 \
//!              --window-ms 5 --queue 64 --schedule round-robin --drop newest \
//!              --system catdet-a --workload bursty \
//!              --policy confidence-trigger --policy-confidence 1.5 \
//!              --autoscale hysteresis --min-workers 1 --max-workers 8 \
//!              --admission priority --watermark 32 --admit-downgrade
//! ```

use catdet_recorder::{read_file, Event, EventKind, Query};
use catdet_serve::config::SIZING_LIMIT;
use catdet_serve::{
    bursty_workload, mixed_workload, ramp_workload, serve, serve_fleet, serve_fleet_with_recorder,
    serve_net_fleet, serve_net_fleet_with_recorder, serve_with_recorder, sine_workload,
    AdmissionConfig, AdmissionKind, AdmissionReason, AutoscaleConfig, BurstPhase, BurstProfile,
    ConnEventKind, DropPolicy, ForecastConfig, IngestConfig, IngestKind, PartitionKind,
    PolicyConfig, PolicyDecision, PolicyKind, RebalanceSignal, RecorderConfig, ScalePolicyKind,
    ScaleReason, SchedulePolicy, ServeConfig, ShardConfig, StreamSpec, SystemKind,
};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadKind {
    Mixed,
    Bursty,
    Ramp,
    Sine,
}

impl WorkloadKind {
    fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Mixed => "mixed",
            WorkloadKind::Bursty => "bursty",
            WorkloadKind::Ramp => "ramp",
            WorkloadKind::Sine => "sine",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "mixed" => Some(WorkloadKind::Mixed),
            "bursty" => Some(WorkloadKind::Bursty),
            "ramp" => Some(WorkloadKind::Ramp),
            "sine" => Some(WorkloadKind::Sine),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    streams: usize,
    workers: usize,
    frames: usize,
    max_batch: usize,
    window_ms: f64,
    fuse_refinement: bool,
    refine_window_ms: f64,
    queue: usize,
    schedule: SchedulePolicy,
    drop: DropPolicy,
    policy: PolicyKind,
    policy_stride: usize,
    policy_confidence: f64,
    admit_downgrade: bool,
    system: SystemKind,
    seed: u64,
    workload: WorkloadKind,
    autoscale: ScalePolicyKind,
    min_workers: usize,
    max_workers: usize,
    interval_ms: f64,
    admission: AdmissionKind,
    admit_rate: f64,
    admit_burst: f64,
    watermark: usize,
    shards: usize,
    partition: PartitionKind,
    rebalance_ms: f64,
    migration_cost: usize,
    rebalance_signal: RebalanceSignal,
    migration_cooldown: usize,
    no_fuse_across_shards: bool,
    threads: usize,
    record: Option<String>,
    record_chunk_events: usize,
    record_retention_chunks: usize,
    record_snapshot_every: usize,
    ingest: IngestKind,
    clients: usize,
    conn_jitter_ms: f64,
    disconnect_rate: f64,
    reorder_rate: f64,
    door_rate: f64,
    door_burst: f64,
    forecast_bucket_ms: f64,
    forecast_buckets: usize,
    forecast_horizon_ms: f64,
    forecast_confidence: f64,
    // Which flags the user actually passed — the net-only knobs conflict
    // with direct ingest (and vice versa), and that is only decidable if
    // defaults and explicit values are distinguishable.
    streams_set: bool,
    workload_set: bool,
    policy_set: bool,
    policy_stride_set: bool,
    policy_confidence_set: bool,
    clients_set: bool,
    conn_jitter_set: bool,
    disconnect_rate_set: bool,
    reorder_rate_set: bool,
    door_rate_set: bool,
    door_burst_set: bool,
    forecast_bucket_set: bool,
    forecast_buckets_set: bool,
    forecast_horizon_set: bool,
    forecast_confidence_set: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            streams: 8,
            workers: 4,
            frames: 60,
            max_batch: 4,
            window_ms: 0.0,
            fuse_refinement: false,
            refine_window_ms: 0.0,
            queue: 64,
            schedule: SchedulePolicy::RoundRobin,
            drop: DropPolicy::Newest,
            policy: PolicyKind::AlwaysDetect,
            policy_stride: 3,
            policy_confidence: 1.0,
            admit_downgrade: false,
            system: SystemKind::CatdetA,
            seed: 2019,
            workload: WorkloadKind::Mixed,
            autoscale: ScalePolicyKind::Fixed,
            min_workers: 1,
            max_workers: 8,
            interval_ms: 250.0,
            admission: AdmissionKind::AdmitAll,
            admit_rate: 30.0,
            admit_burst: 10.0,
            watermark: 32,
            shards: 1,
            partition: PartitionKind::StaticHash,
            rebalance_ms: 0.0,
            migration_cost: 8,
            rebalance_signal: RebalanceSignal::Backlog,
            migration_cooldown: 2,
            no_fuse_across_shards: false,
            threads: 1,
            record: None,
            record_chunk_events: 512,
            record_retention_chunks: usize::MAX,
            record_snapshot_every: 0,
            ingest: IngestKind::Direct,
            clients: 8,
            conn_jitter_ms: 0.0,
            disconnect_rate: 0.0,
            reorder_rate: 0.0,
            door_rate: 120.0,
            door_burst: 16.0,
            forecast_bucket_ms: 250.0,
            forecast_buckets: 32,
            forecast_horizon_ms: 500.0,
            forecast_confidence: 0.35,
            streams_set: false,
            workload_set: false,
            policy_set: false,
            policy_stride_set: false,
            policy_confidence_set: false,
            clients_set: false,
            conn_jitter_set: false,
            disconnect_rate_set: false,
            reorder_rate_set: false,
            door_rate_set: false,
            door_burst_set: false,
            forecast_bucket_set: false,
            forecast_buckets_set: false,
            forecast_horizon_set: false,
            forecast_confidence_set: false,
        }
    }
}

const USAGE: &str = "catdet-serve — concurrent multi-camera CaTDet serving

USAGE:
    catdet-serve [OPTIONS]

  workload (what the fleet serves):
    --streams <N>       camera count [8]
    --frames <N>        frames per camera [60]
    --system <S>        catdet-a | catdet-b | cascade-a | cascade-b |
                        single-resnet50 [catdet-a]
    --seed <N>          workload seed [2019]
    --workload <W>      mixed (KITTI/CityPersons fleet) | bursty
                        (quiet/stampede arrival cycles) | ramp (rate climbs
                        2 -> 20 fps over 3 s) | sine (rate swings 10 +/- 6
                        fps on a 2 s period) [mixed]

  scheduler (batching, queues, backpressure — per shard):
    --workers <N>       initial virtual workers (modelled executors) [4]
    --batch <N>         max frames fused per proposal micro-batch [4]
    --window-ms <MS>    batch window in milliseconds [0]
    --fuse-refinement   fuse refinement launches across streams into one
                        GPU dispatch (staged-detector suspend points) [off]
    --refine-batch-window-ms <MS>
                        how long a frame may wait at its refinement
                        boundary for co-dispatching streams [0]
    --queue <N>         bounded per-stream queue capacity [64]
    --schedule <P>      round-robin | least-backlog [round-robin]
    --drop <P>          newest | oldest (backpressure policy) [newest]

  frame policy (detect-or-track scheduling, per frame, per stream):
    --policy <P>        always-detect | fixed-stride | confidence-trigger
                        [always-detect]
    --policy-stride <K> fixed-stride: detect every Kth frame, skip the
                        rest (requires --policy fixed-stride) [3]
    --policy-confidence <C>
                        confidence-trigger: coast on tracker predictions
                        while mean track confidence stays >= C (requires
                        --policy confidence-trigger) [1]

  autoscale (feedback control on drop-rate + window p99 — per shard):
    --autoscale <P>     fixed | hysteresis | proportional | predictive
                        (scale ahead of the forecast arrival rate, falling
                        back to hysteresis at low confidence) [fixed]
    --min-workers <N>   autoscale floor [1]
    --max-workers <N>   autoscale ceiling [8]
    --interval-ms <MS>  control-loop interval, virtual time [250]

  forecast (per-stream arrival-rate forecaster feeding the predictive
  control plane; requires --autoscale predictive or --rebalance predicted):
    --forecast-bucket-ms <MS>
                        arrival-history bucket width, virtual time [250]
    --forecast-buckets <N>
                        complete buckets of history kept per stream [32]
    --forecast-horizon-ms <MS>
                        how far ahead the forecast looks [500]
    --forecast-confidence <C>
                        confidence floor in [0, 1]; below it the
                        predictive policy falls back to hysteresis [0.35]

  admission (gates arrivals before queueing — per shard):
    --admission <P>     admit-all | token-bucket | priority [admit-all]
    --admit-rate <FPS>  token-bucket sustained rate per stream [30]
    --admit-burst <N>   token-bucket burst capacity per stream [10]
    --watermark <N>     priority: fleet backlog per shed level [32]
    --admit-downgrade   downgrade a shed stream's frame policy one rung
                        instead of dropping its frame, restoring it when
                        admission clears (requires --admission priority)
                        [off]

  shard (fleet partitioning and live rebalancing):
    --shards <N>        independent scheduler shards, each with its own
                        workers / queues / control plane [1]
    --partition <P>     static-hash | least-loaded | consistent-hash
                        [static-hash]
    --rebalance-interval-ms <MS>
                        live-rebalance tick spacing, virtual time
                        (0 disables migration) [0]
    --migration-cost-frames <N>
                        min backlog imbalance before a migration pays [8]
    --rebalance <S>     backlog (queued frames now) | predicted (queued
                        frames plus forecast arrivals over the forecast
                        horizon) [backlog]
    --migration-cooldown-ticks <N>
                        rebalance ticks a freshly moved stream sits out
                        before it may migrate again (0 restores the
                        cooldown-free rule) [2]
    --no-fuse-across-shards
                        keep refinement fusion within each shard instead
                        of pooling work items fleet-wide [fleet-wide]
    --threads <N>       OS threads advancing shard engines between
                        barriers (0 = auto, one per host core; capped at
                        the shard count). Bit-identical results at every
                        setting -- threads only change wall-clock time [1]

  ingest (how frames reach the partition layer):
    --ingest <K>        direct (in-memory timelines) | net (simulated
                        CamLink camera connections: checksummed frame
                        records over a jittery, faulty wire into a bounded
                        receive window and a per-client rate-limited door)
                        [direct]
    --clients <N>       camera connections with --ingest net; replaces
                        --streams there [8]
    --conn-jitter-ms <MS>
                        max extra per-chunk delivery jitter [0]
    --disconnect-rate <P>
                        per-record mid-send disconnect probability; the
                        camera reconnects and resumes from its cursor [0]
    --reorder-rate <P>  probability adjacent wire chunks swap in flight
                        (corrupts the record; the frame is lost) [0]
    --door-rate <FPS>   sustained per-client frame rate admitted past the
                        door [120]
    --door-burst <N>    door token-bucket burst, in frames [16]

  flight recorder (chunked columnar telemetry + time-travel replay):
    --record <FILE>     record every detection/track/batch/scale/admission/
                        migration event and save the chunk store to FILE
    --record-chunk-events <N>
                        events per chunk before sealing [512]
    --record-retention-chunks <N>
                        sealed-chunk budget; least-recently-touched chunks
                        are evicted beyond it [unbounded]
    --record-snapshot-every <N>
                        capture a replay snapshot every N completed frames
                        per stream (0 disables snapshots) [0]

    -h, --help          print this help

SUBCOMMANDS:
    query <FILE> [--kind detection|track|batch|scale|admission|migration|conn|policy|forecast]
                 [--stream <N>] [--shard <N>] [--from <S>] [--to <S>]
                 [--limit <N>]
        scan a saved recording: print matching events in time order and,
        for detection events, the recorded latency percentiles over the
        matched window (identical to the live report's figures)
";

fn parse_args() -> Result<Args, String> {
    parse_args_from(std::env::args().skip(1))
}

fn parse_args_from(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = it;
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        if flag == "--fuse-refinement" {
            args.fuse_refinement = true;
            continue;
        }
        if flag == "--no-fuse-across-shards" {
            args.no_fuse_across_shards = true;
            continue;
        }
        if flag == "--admit-downgrade" {
            args.admit_downgrade = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--streams" => {
                args.streams = parse_num(&flag, &value)?;
                args.streams_set = true;
            }
            "--clients" => {
                args.clients = parse_num(&flag, &value)?;
                args.clients_set = true;
            }
            "--conn-jitter-ms" => {
                args.conn_jitter_ms = parse_num(&flag, &value)?;
                args.conn_jitter_set = true;
            }
            "--disconnect-rate" => {
                args.disconnect_rate = parse_num(&flag, &value)?;
                args.disconnect_rate_set = true;
            }
            "--reorder-rate" => {
                args.reorder_rate = parse_num(&flag, &value)?;
                args.reorder_rate_set = true;
            }
            "--door-rate" => {
                args.door_rate = parse_num(&flag, &value)?;
                args.door_rate_set = true;
            }
            "--door-burst" => {
                args.door_burst = parse_num(&flag, &value)?;
                args.door_burst_set = true;
            }
            "--ingest" => {
                args.ingest = IngestKind::from_name(&value)
                    .ok_or_else(|| format!("--ingest: unknown kind {value} (direct | net)"))?
            }
            "--workers" => args.workers = parse_num(&flag, &value)?,
            "--frames" => args.frames = parse_num(&flag, &value)?,
            "--batch" => args.max_batch = parse_num(&flag, &value)?,
            "--queue" => args.queue = parse_num(&flag, &value)?,
            "--seed" => args.seed = parse_num(&flag, &value)?,
            "--window-ms" => args.window_ms = parse_num(&flag, &value)?,
            "--refine-batch-window-ms" => args.refine_window_ms = parse_num(&flag, &value)?,
            "--min-workers" => args.min_workers = parse_num(&flag, &value)?,
            "--max-workers" => args.max_workers = parse_num(&flag, &value)?,
            "--interval-ms" => args.interval_ms = parse_num(&flag, &value)?,
            "--admit-rate" => args.admit_rate = parse_num(&flag, &value)?,
            "--admit-burst" => args.admit_burst = parse_num(&flag, &value)?,
            "--watermark" => args.watermark = parse_num(&flag, &value)?,
            "--shards" => args.shards = parse_num(&flag, &value)?,
            "--rebalance-interval-ms" => args.rebalance_ms = parse_num(&flag, &value)?,
            "--migration-cost-frames" => args.migration_cost = parse_num(&flag, &value)?,
            "--migration-cooldown-ticks" => args.migration_cooldown = parse_num(&flag, &value)?,
            "--rebalance" => {
                args.rebalance_signal = RebalanceSignal::from_name(&value).ok_or_else(|| {
                    format!("--rebalance: unknown signal {value} (backlog | predicted)")
                })?
            }
            "--forecast-bucket-ms" => {
                args.forecast_bucket_ms = parse_num(&flag, &value)?;
                args.forecast_bucket_set = true;
            }
            "--forecast-buckets" => {
                args.forecast_buckets = parse_num(&flag, &value)?;
                args.forecast_buckets_set = true;
            }
            "--forecast-horizon-ms" => {
                args.forecast_horizon_ms = parse_num(&flag, &value)?;
                args.forecast_horizon_set = true;
            }
            "--forecast-confidence" => {
                args.forecast_confidence = parse_num(&flag, &value)?;
                args.forecast_confidence_set = true;
            }
            "--threads" => args.threads = parse_num(&flag, &value)?,
            "--record" => args.record = Some(value),
            "--record-chunk-events" => args.record_chunk_events = parse_num(&flag, &value)?,
            "--record-retention-chunks" => args.record_retention_chunks = parse_num(&flag, &value)?,
            "--record-snapshot-every" => args.record_snapshot_every = parse_num(&flag, &value)?,
            "--partition" => {
                args.partition = PartitionKind::from_name(&value)
                    .ok_or_else(|| format!("--partition: unknown policy {value}"))?
            }
            "--schedule" => {
                args.schedule = SchedulePolicy::from_name(&value)
                    .ok_or_else(|| format!("--schedule: unknown policy {value}"))?
            }
            "--policy" => {
                args.policy = PolicyKind::from_name(&value).ok_or_else(|| {
                    format!(
                        "--policy: unknown frame policy {value} (expected one of: {})",
                        PolicyKind::ALL
                            .iter()
                            .map(|k| k.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
                args.policy_set = true;
            }
            "--policy-stride" => {
                args.policy_stride = parse_num(&flag, &value)?;
                args.policy_stride_set = true;
            }
            "--policy-confidence" => {
                args.policy_confidence = parse_num(&flag, &value)?;
                args.policy_confidence_set = true;
            }
            "--drop" => {
                args.drop = DropPolicy::from_name(&value)
                    .ok_or_else(|| format!("--drop: unknown policy {value}"))?
            }
            "--workload" => {
                args.workload = WorkloadKind::from_name(&value)
                    .ok_or_else(|| format!("--workload: unknown workload {value}"))?;
                args.workload_set = true;
            }
            "--autoscale" => {
                args.autoscale = ScalePolicyKind::from_name(&value)
                    .ok_or_else(|| format!("--autoscale: unknown policy {value}"))?
            }
            "--admission" => {
                args.admission = AdmissionKind::from_name(&value)
                    .ok_or_else(|| format!("--admission: unknown policy {value}"))?
            }
            "--system" => {
                args.system = SystemKind::from_name(&value).ok_or_else(|| {
                    format!(
                        "--system: unknown system {value} (expected one of: {})",
                        SystemKind::ALL
                            .iter()
                            .map(|k| k.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if args.max_batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    if args.queue == 0 {
        return Err("--queue must be at least 1".into());
    }
    // Each of these sizes per-unit state before the run starts.
    for (flag, value) in [
        ("--workers", args.workers),
        ("--max-workers", args.max_workers),
        ("--shards", args.shards),
        ("--forecast-buckets", args.forecast_buckets),
    ] {
        if value > SIZING_LIMIT {
            return Err(format!(
                "{flag} must be at most {SIZING_LIMIT} (got {value})"
            ));
        }
    }
    if !args.window_ms.is_finite() || args.window_ms < 0.0 {
        return Err(format!(
            "--window-ms must be a finite, non-negative number (got {})",
            args.window_ms
        ));
    }
    if !args.refine_window_ms.is_finite() || args.refine_window_ms < 0.0 {
        return Err(format!(
            "--refine-batch-window-ms must be a finite, non-negative number (got {})",
            args.refine_window_ms
        ));
    }
    if args.min_workers == 0 || args.max_workers < args.min_workers {
        return Err("--min-workers must be >= 1 and <= --max-workers".into());
    }
    if !args.interval_ms.is_finite() || args.interval_ms <= 0.0 {
        return Err("--interval-ms must be a finite, positive number".into());
    }
    if !args.admit_rate.is_finite() || args.admit_rate <= 0.0 {
        return Err("--admit-rate must be a finite, positive number".into());
    }
    if !args.admit_burst.is_finite() || args.admit_burst < 1.0 {
        return Err("--admit-burst must be at least 1".into());
    }
    if args.watermark == 0 {
        return Err("--watermark must be at least 1".into());
    }
    if args.policy_stride_set && args.policy != PolicyKind::FixedStride {
        return Err(
            "--policy-stride only applies to the fixed-stride frame policy; add \
             --policy fixed-stride"
                .into(),
        );
    }
    if args.policy_confidence_set && args.policy != PolicyKind::ConfidenceTrigger {
        return Err(
            "--policy-confidence only applies to the confidence-trigger frame policy; \
             add --policy confidence-trigger"
                .into(),
        );
    }
    if args.policy_stride == 0 {
        return Err("--policy-stride must be at least 1".into());
    }
    if !args.policy_confidence.is_finite() || args.policy_confidence < 0.0 {
        return Err(format!(
            "--policy-confidence must be a finite, non-negative number (got {})",
            args.policy_confidence
        ));
    }
    if args.admit_downgrade && args.admission != AdmissionKind::Priority {
        return Err(
            "--admit-downgrade needs a shedding admission gate; add --admission priority".into(),
        );
    }
    if args.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if !args.rebalance_ms.is_finite() || args.rebalance_ms < 0.0 {
        return Err(format!(
            "--rebalance-interval-ms must be a finite, non-negative number (got {})",
            args.rebalance_ms
        ));
    }
    // The forecast knobs steer the predictive control plane; with neither
    // predictive consumer enabled they would silently do nothing.
    let forecasting = args.autoscale == ScalePolicyKind::Predictive
        || args.rebalance_signal == RebalanceSignal::Predicted;
    if !forecasting {
        let forecast_only: [(&str, bool); 4] = [
            ("--forecast-bucket-ms", args.forecast_bucket_set),
            ("--forecast-buckets", args.forecast_buckets_set),
            ("--forecast-horizon-ms", args.forecast_horizon_set),
            ("--forecast-confidence", args.forecast_confidence_set),
        ];
        if let Some((flag, _)) = forecast_only.iter().find(|(_, set)| *set) {
            return Err(format!(
                "{flag} only applies to the predictive control plane; add \
                 --autoscale predictive or --rebalance predicted"
            ));
        }
    }
    if !args.forecast_bucket_ms.is_finite() || args.forecast_bucket_ms <= 0.0 {
        return Err(format!(
            "--forecast-bucket-ms must be a finite, positive number (got {})",
            args.forecast_bucket_ms
        ));
    }
    if args.forecast_buckets < 2 {
        return Err("--forecast-buckets must be at least 2".into());
    }
    if !args.forecast_horizon_ms.is_finite() || args.forecast_horizon_ms < 0.0 {
        return Err(format!(
            "--forecast-horizon-ms must be a finite, non-negative number (got {})",
            args.forecast_horizon_ms
        ));
    }
    if !args.forecast_confidence.is_finite() || !(0.0..=1.0).contains(&args.forecast_confidence) {
        return Err(format!(
            "--forecast-confidence must be in [0, 1] (got {})",
            args.forecast_confidence
        ));
    }
    if args.record_chunk_events == 0 {
        return Err("--record-chunk-events must be at least 1".into());
    }
    if args.record_snapshot_every > 0 && args.record_retention_chunks == 0 {
        return Err(
            "--record-retention-chunks 0 cannot feed replay: snapshots need their \
             recorded events kept; raise the retention budget or drop \
             --record-snapshot-every"
                .into(),
        );
    }
    // Flag-combination conflicts: every net-only knob requires
    // `--ingest net`, and the net path names its cameras with --clients.
    // Reject the combination with an actionable error instead of letting
    // a config assert panic later.
    if args.ingest == IngestKind::Net {
        if args.workload_set {
            return Err(
                "--workload cannot be combined with --ingest net: the front door \
                 generates its own capture schedule from the mixed workload; drop \
                 --workload"
                    .into(),
            );
        }
        if args.streams_set {
            return Err(
                "--streams cannot be combined with --ingest net: cameras are \
                 connections there; use --clients instead"
                    .into(),
            );
        }
    } else {
        let net_only: [(&str, bool); 6] = [
            ("--clients", args.clients_set),
            ("--conn-jitter-ms", args.conn_jitter_set),
            ("--disconnect-rate", args.disconnect_rate_set),
            ("--reorder-rate", args.reorder_rate_set),
            ("--door-rate", args.door_rate_set),
            ("--door-burst", args.door_burst_set),
        ];
        if let Some((flag, _)) = net_only.iter().find(|(_, set)| *set) {
            return Err(format!(
                "{flag} only applies to the network front door; add --ingest net"
            ));
        }
    }
    if args.clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    if !args.conn_jitter_ms.is_finite() || args.conn_jitter_ms < 0.0 {
        return Err(format!(
            "--conn-jitter-ms must be a finite, non-negative number (got {})",
            args.conn_jitter_ms
        ));
    }
    if !args.disconnect_rate.is_finite() || !(0.0..1.0).contains(&args.disconnect_rate) {
        return Err(format!(
            "--disconnect-rate must be a probability below 1 (got {})",
            args.disconnect_rate
        ));
    }
    if !args.reorder_rate.is_finite() || !(0.0..=1.0).contains(&args.reorder_rate) {
        return Err(format!(
            "--reorder-rate must be a probability (got {})",
            args.reorder_rate
        ));
    }
    if !args.door_rate.is_finite() || args.door_rate <= 0.0 {
        return Err("--door-rate must be a finite, positive number".into());
    }
    if !args.door_burst.is_finite() || args.door_burst < 1.0 {
        return Err("--door-burst must be at least 1".into());
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: not a number: {value}"))
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("query") {
        if let Err(e) = run_query(std::env::args().skip(2)) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let mut autoscale = match args.autoscale {
        ScalePolicyKind::Fixed => AutoscaleConfig::fixed(),
        ScalePolicyKind::Hysteresis => {
            AutoscaleConfig::hysteresis(args.min_workers, args.max_workers)
        }
        ScalePolicyKind::Proportional => {
            AutoscaleConfig::proportional(args.min_workers, args.max_workers, 0.05)
        }
        ScalePolicyKind::Predictive => {
            AutoscaleConfig::predictive(args.min_workers, args.max_workers)
        }
    };
    autoscale = autoscale.with_control_interval_s(args.interval_ms / 1e3);
    let admission = match args.admission {
        AdmissionKind::AdmitAll => AdmissionConfig::admit_all(),
        AdmissionKind::TokenBucket => {
            AdmissionConfig::token_bucket(args.admit_rate, args.admit_burst)
        }
        AdmissionKind::Priority => {
            AdmissionConfig::priority(args.watermark).with_downgrade(args.admit_downgrade)
        }
    };
    let policy = match args.policy {
        PolicyKind::AlwaysDetect => PolicyConfig::always_detect(),
        PolicyKind::FixedStride => PolicyConfig::fixed_stride(args.policy_stride),
        PolicyKind::ConfidenceTrigger => PolicyConfig::confidence_trigger(args.policy_confidence),
    };
    let cfg = ServeConfig::new()
        .with_workers(args.workers)
        .with_max_batch(args.max_batch)
        .with_batch_window_s(args.window_ms / 1e3)
        .with_queue_capacity(args.queue)
        .with_fuse_refinement(args.fuse_refinement)
        .with_refine_batch_window_s(args.refine_window_ms / 1e3)
        .with_schedule(args.schedule)
        .with_policy(policy)
        .with_drop_policy(args.drop)
        .with_autoscale(autoscale)
        .with_admission(admission)
        .with_forecast(
            ForecastConfig::new()
                .with_bucket_s(args.forecast_bucket_ms / 1e3)
                .with_history_buckets(args.forecast_buckets)
                .with_horizon_s(args.forecast_horizon_ms / 1e3)
                .with_min_confidence(args.forecast_confidence),
        )
        .with_shard(
            ShardConfig::sharded(args.shards)
                .with_partition(args.partition)
                .with_rebalance_interval_s(args.rebalance_ms / 1e3)
                .with_migration_cost_frames(args.migration_cost)
                .with_rebalance_signal(args.rebalance_signal)
                .with_migration_cooldown_ticks(args.migration_cooldown)
                .with_fuse_across_shards(!args.no_fuse_across_shards)
                .with_threads(args.threads),
        )
        .with_recorder(if args.record.is_some() {
            RecorderConfig::on()
                .with_chunk_events(args.record_chunk_events)
                .with_retention_chunks(args.record_retention_chunks)
                .with_snapshot_every_frames(args.record_snapshot_every)
        } else {
            RecorderConfig::off()
        })
        .with_ingest(if args.ingest == IngestKind::Net {
            IngestConfig::net()
                .with_conn_jitter_s(args.conn_jitter_ms / 1e3)
                .with_disconnect_rate(args.disconnect_rate)
                .with_reorder_rate(args.reorder_rate)
                .with_door_rate_fps(args.door_rate)
                .with_door_burst(args.door_burst)
        } else {
            IngestConfig::direct()
        });

    let net = args.ingest == IngestKind::Net;
    println!(
        "spinning up {} {} ({} frames each, {} workload), {} shards x {} workers \
         ({} partition), {} scheduling, {} frame policy, autoscale {}, admission {}, \
         refinement fusion {}, system {}",
        if net { args.clients } else { args.streams },
        if net { "camera connections" } else { "streams" },
        args.frames,
        if net { "mixed" } else { args.workload.name() },
        args.shards,
        args.workers,
        args.partition.name(),
        args.schedule.name(),
        args.policy.name(),
        args.autoscale.name(),
        args.admission.name(),
        if args.fuse_refinement { "on" } else { "off" },
        args.system.name(),
    );
    if net {
        println!(
            "front door: jitter {} ms, disconnect rate {}, reorder rate {}, \
             door {} fps (burst {})",
            args.conn_jitter_ms,
            args.disconnect_rate,
            args.reorder_rate,
            args.door_rate,
            args.door_burst,
        );
    }
    let streams: Vec<StreamSpec> = if net {
        mixed_workload(args.clients, args.frames, args.seed, args.system)
    } else {
        match args.workload {
            WorkloadKind::Mixed => {
                mixed_workload(args.streams, args.frames, args.seed, args.system)
            }
            WorkloadKind::Bursty => bursty_workload(
                args.streams,
                args.frames,
                args.seed,
                args.system,
                BurstProfile::demo(),
            ),
            WorkloadKind::Ramp => ramp_workload(
                args.streams,
                args.frames,
                args.seed,
                args.system,
                2.0,
                20.0,
                3.0,
            ),
            WorkloadKind::Sine => sine_workload(
                args.streams,
                args.frames,
                args.seed,
                args.system,
                10.0,
                6.0,
                2.0,
            ),
        }
    };
    let recorder = args.record.as_ref().map(|_| cfg.recorder.build());
    if net || args.shards > 1 {
        let report = match (&recorder, net) {
            (Some(r), true) => serve_net_fleet_with_recorder(streams, &cfg, args.seed, r),
            (None, true) => serve_net_fleet(streams, &cfg, args.seed),
            (Some(r), false) => serve_fleet_with_recorder(streams, &cfg, r),
            (None, false) => serve_fleet(streams, &cfg),
        };
        print!("{}", report.summary());
        if !report.migrations.is_empty() {
            println!("migration timeline:");
            print!("{}", report.migration_timeline());
        }
        let scale = report.scale_timeline();
        if !scale.is_empty() {
            println!("scale-event timeline (shard, t, change):");
            for (shard, e) in scale {
                println!(
                    "  shard {shard}  t={:>8.3}s  {:>2} -> {:<2} ({})",
                    e.t_s,
                    e.from_workers,
                    e.to_workers,
                    e.reason.label()
                );
            }
        }
    } else {
        let report = match &recorder {
            Some(r) => serve_with_recorder(streams, &cfg, r),
            None => serve(streams, &cfg),
        };
        print!("{}", report.summary());
        if !report.scale_events.is_empty() {
            println!("scale-event timeline:");
            print!("{}", report.scale_timeline());
        }
    }
    if let (Some(recorder), Some(path)) = (&recorder, &args.record) {
        let stats = recorder.stats();
        println!(
            "recorder: {} events in {} chunks ({} evicted, {} events lost to eviction), \
             {} snapshots, {} encoded bytes",
            stats.events,
            stats.open_chunks + stats.sealed_chunks,
            stats.chunks_evicted,
            stats.events_evicted,
            stats.snapshots,
            stats.encoded_bytes,
        );
        match recorder.save(Path::new(path)) {
            Ok(()) => {
                println!("telemetry saved to {path} (inspect with: catdet-serve query {path})")
            }
            Err(e) => {
                eprintln!("error: could not save recording to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The `query` subcommand: scan a saved recording and print matching
/// events, plus recorded latency percentiles for detection scans.
fn run_query(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let file = it
        .next()
        .ok_or("query needs a recording file (catdet-serve query <FILE> ...)")?;
    let mut query = Query::all();
    let mut limit = 40usize;
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--kind" => {
                let kind = EventKind::from_name(&value).ok_or_else(|| {
                    format!(
                        "--kind: unknown kind {value} (expected one of: {})",
                        EventKind::ALL
                            .iter()
                            .map(|k| k.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
                query = query.kind(kind);
            }
            "--stream" => query = query.stream(parse_num(&flag, &value)?),
            "--shard" => query = query.shard(parse_num(&flag, &value)?),
            "--from" => {
                let t: f64 = parse_num(&flag, &value)?;
                query.t0 = t;
            }
            "--to" => {
                let t: f64 = parse_num(&flag, &value)?;
                query.t1 = t;
            }
            "--limit" => limit = parse_num(&flag, &value)?,
            other => return Err(format!("unknown query flag {other} (try --help)")),
        }
    }
    let mut store =
        read_file(Path::new(&file)).map_err(|e| format!("could not read {file}: {e}"))?;
    let stats = store.stats();
    println!(
        "{file}: {} events in {} chunks, {} encoded bytes",
        stats.events,
        stats.open_chunks + stats.sealed_chunks,
        stats.encoded_bytes,
    );
    let events = store.scan(&query);
    println!("{} events match", events.len());
    for r in events.iter().take(limit) {
        println!(
            "  t={:>9.4}s  shard {}  {}",
            r.t_s,
            r.shard,
            describe(&r.event)
        );
    }
    if events.len() > limit {
        println!(
            "  ... {} more (raise --limit to see them)",
            events.len() - limit
        );
    }
    if query.kind.is_none_or(|k| k == EventKind::Detection) {
        let l = store.latency_stats(&query);
        if l.samples > 0 {
            println!(
                "recorded latency over {} samples: mean {:.1} ms | p50 {:.1} ms | \
                 p95 {:.1} ms | p99 {:.1} ms | max {:.1} ms",
                l.samples,
                l.mean_s * 1e3,
                l.p50_s * 1e3,
                l.p95_s * 1e3,
                l.p99_s * 1e3,
                l.max_s * 1e3,
            );
        }
    }
    Ok(())
}

/// One-line human rendering of a recorded event, decoding the producer's
/// reason codes back to their labels.
fn describe(event: &Event) -> String {
    match *event {
        Event::Detection {
            stream,
            seq,
            frame_index,
            detections,
            latency_s,
            output_hash,
        } => format!(
            "detection: stream {stream} #{seq} frame {frame_index} -> {detections} boxes, \
             {:.1} ms, hash {output_hash:016x}",
            latency_s * 1e3
        ),
        Event::Track {
            stream,
            frame_index,
            live_tracks,
        } => format!("track: stream {stream} frame {frame_index} -> {live_tracks} live tracks"),
        Event::Batch {
            stream,
            worker,
            stage,
            size,
        } => format!(
            "batch: stream {stream} rode a {}-stream {} dispatch on worker {worker}",
            size,
            if stage == catdet_recorder::STAGE_PROPOSAL {
                "proposal"
            } else {
                "refinement"
            },
        ),
        Event::Scale {
            from_workers,
            to_workers,
            reason,
        } => format!(
            "scale: {from_workers} -> {to_workers} workers ({})",
            ScaleReason::from_code(reason).map_or("unknown", |r| r.label())
        ),
        Event::Admission { stream, reason } => format!(
            "admission: stream {stream} refused ({})",
            AdmissionReason::from_code(reason).map_or("unknown", |r| r.label())
        ),
        Event::Migration {
            stream,
            from_shard,
            to_shard,
            backlog_moved,
        } => format!(
            "migration: stream {stream} shard {from_shard} -> {to_shard} \
             ({backlog_moved} queued frames moved)"
        ),
        Event::Conn {
            stream,
            code,
            frame,
            detail,
        } => match ConnEventKind::from_code(code) {
            Some(ConnEventKind::Connect) => {
                format!("conn: client {stream} connected ({detail} frames offered)")
            }
            Some(ConnEventKind::Disconnect) => {
                format!("conn: client {stream} dropped mid-send at frame {frame}")
            }
            Some(ConnEventKind::Throttle) => format!(
                "conn: client {stream} throttled (window full at {detail}, head frame {frame})"
            ),
            Some(ConnEventKind::Resume) => {
                format!("conn: client {stream} resumed from frame {frame}")
            }
            Some(ConnEventKind::DoorReject) => {
                format!("conn: client {stream} frame {frame} rejected at the door")
            }
            None => format!("conn: client {stream} unknown lifecycle code {code}"),
        },
        Event::Policy {
            stream,
            frame_index,
            decision,
            streak,
        } => match decision {
            catdet_recorder::POLICY_DEGRADED_ON => {
                format!("policy: stream {stream} downgraded one rung (admission shedding)")
            }
            catdet_recorder::POLICY_DEGRADED_OFF => {
                format!("policy: stream {stream} restored to its configured policy")
            }
            _ => match PolicyDecision::from_code(decision) {
                Some(d) => format!(
                    "policy: stream {stream} frame {frame_index} {} (coast streak {streak})",
                    d.label()
                ),
                None => format!("policy: stream {stream} unknown decision code {decision}"),
            },
        },
        Event::Forecast {
            stream,
            rate_fps,
            confidence,
            phase,
        } => format!(
            "forecast: stream {stream} -> {rate_fps:.2} fps over the horizon \
             ({} phase, confidence {confidence:.2})",
            BurstPhase::from_code(phase).map_or("unknown", |p| p.label())
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args_from(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn net_ingest_conflicts_with_workload() {
        let err = parse(&["--ingest", "net", "--workload", "bursty"]).unwrap_err();
        assert!(err.contains("--workload"), "{err}");
        assert!(err.contains("--ingest net"), "{err}");
    }

    #[test]
    fn net_ingest_conflicts_with_streams() {
        let err = parse(&["--ingest", "net", "--streams", "4"]).unwrap_err();
        assert!(err.contains("--streams"), "{err}");
        assert!(err.contains("--clients"), "{err}");
    }

    #[test]
    fn clients_requires_net_ingest() {
        let err = parse(&["--clients", "4"]).unwrap_err();
        assert!(err.contains("--clients"), "{err}");
        assert!(err.contains("--ingest net"), "{err}");
    }

    #[test]
    fn conn_jitter_requires_net_ingest() {
        let err = parse(&["--conn-jitter-ms", "5"]).unwrap_err();
        assert!(err.contains("--conn-jitter-ms"), "{err}");
        assert!(err.contains("--ingest net"), "{err}");
    }

    #[test]
    fn disconnect_rate_requires_net_ingest() {
        let err = parse(&["--disconnect-rate", "0.1"]).unwrap_err();
        assert!(err.contains("--disconnect-rate"), "{err}");
        assert!(err.contains("--ingest net"), "{err}");
    }

    #[test]
    fn reorder_rate_requires_net_ingest() {
        let err = parse(&["--reorder-rate", "0.1"]).unwrap_err();
        assert!(err.contains("--reorder-rate"), "{err}");
        assert!(err.contains("--ingest net"), "{err}");
    }

    #[test]
    fn door_flags_require_net_ingest() {
        let err = parse(&["--door-rate", "30"]).unwrap_err();
        assert!(err.contains("--door-rate"), "{err}");
        assert!(err.contains("--ingest net"), "{err}");
        let err = parse(&["--door-burst", "4"]).unwrap_err();
        assert!(err.contains("--door-burst"), "{err}");
        assert!(err.contains("--ingest net"), "{err}");
    }

    #[test]
    fn net_flag_ranges_are_checked() {
        let err = parse(&["--ingest", "net", "--disconnect-rate", "1.0"]).unwrap_err();
        assert!(err.contains("--disconnect-rate"), "{err}");
        let err = parse(&["--ingest", "net", "--reorder-rate", "1.5"]).unwrap_err();
        assert!(err.contains("--reorder-rate"), "{err}");
        let err = parse(&["--ingest", "net", "--conn-jitter-ms", "-1"]).unwrap_err();
        assert!(err.contains("--conn-jitter-ms"), "{err}");
        let err = parse(&["--ingest", "net", "--door-rate", "0"]).unwrap_err();
        assert!(err.contains("--door-rate"), "{err}");
        let err = parse(&["--ingest", "net", "--clients", "0"]).unwrap_err();
        assert!(err.contains("--clients"), "{err}");
    }

    #[test]
    fn policy_stride_requires_fixed_stride_policy() {
        let err = parse(&["--policy-stride", "4"]).unwrap_err();
        assert!(err.contains("--policy-stride"), "{err}");
        assert!(err.contains("--policy fixed-stride"), "{err}");
        // Wrong policy kind is as invalid as no policy at all.
        let err = parse(&["--policy", "confidence-trigger", "--policy-stride", "4"]).unwrap_err();
        assert!(err.contains("--policy fixed-stride"), "{err}");
    }

    #[test]
    fn policy_confidence_requires_confidence_trigger_policy() {
        let err = parse(&["--policy-confidence", "1.5"]).unwrap_err();
        assert!(err.contains("--policy-confidence"), "{err}");
        assert!(err.contains("--policy confidence-trigger"), "{err}");
        let err = parse(&["--policy", "fixed-stride", "--policy-confidence", "1.5"]).unwrap_err();
        assert!(err.contains("--policy confidence-trigger"), "{err}");
    }

    #[test]
    fn policy_flag_ranges_are_checked() {
        let err = parse(&["--policy", "fixed-stride", "--policy-stride", "0"]).unwrap_err();
        assert!(err.contains("--policy-stride"), "{err}");
        let err = parse(&[
            "--policy",
            "confidence-trigger",
            "--policy-confidence",
            "-1",
        ])
        .unwrap_err();
        assert!(err.contains("--policy-confidence"), "{err}");
        let err = parse(&["--policy", "nope"]).unwrap_err();
        assert!(err.contains("unknown frame policy"), "{err}");
    }

    #[test]
    fn admit_downgrade_requires_priority_admission() {
        let err = parse(&["--admit-downgrade"]).unwrap_err();
        assert!(err.contains("--admit-downgrade"), "{err}");
        assert!(err.contains("--admission priority"), "{err}");
        let args = parse(&["--admission", "priority", "--admit-downgrade"]).unwrap();
        assert!(args.admit_downgrade);
        assert_eq!(args.admission, AdmissionKind::Priority);
    }

    #[test]
    fn valid_policy_invocations_parse() {
        let args = parse(&["--policy", "fixed-stride", "--policy-stride", "5"]).unwrap();
        assert_eq!(args.policy, PolicyKind::FixedStride);
        assert_eq!(args.policy_stride, 5);
        let args = parse(&[
            "--policy",
            "confidence-trigger",
            "--policy-confidence",
            "1.5",
            "--schedule",
            "least-backlog",
        ])
        .unwrap();
        assert_eq!(args.policy, PolicyKind::ConfidenceTrigger);
        assert_eq!(args.policy_confidence, 1.5);
        assert_eq!(args.schedule, SchedulePolicy::LeastBacklog);
        // Defaults: always-detect, no downgrade.
        let args = parse(&[]).unwrap();
        assert_eq!(args.policy, PolicyKind::AlwaysDetect);
        assert!(!args.admit_downgrade);
    }

    #[test]
    fn valid_net_invocations_parse() {
        let args = parse(&[
            "--ingest",
            "net",
            "--clients",
            "10",
            "--conn-jitter-ms",
            "8",
            "--disconnect-rate",
            "0.05",
            "--reorder-rate",
            "0.02",
            "--door-rate",
            "60",
            "--door-burst",
            "8",
        ])
        .unwrap();
        assert_eq!(args.ingest, IngestKind::Net);
        assert_eq!(args.clients, 10);
        assert_eq!(args.conn_jitter_ms, 8.0);
        assert_eq!(args.disconnect_rate, 0.05);
        assert_eq!(args.reorder_rate, 0.02);
        assert_eq!(args.door_rate, 60.0);
        assert_eq!(args.door_burst, 8.0);
        // Direct invocations are untouched by the new flags.
        let args = parse(&["--streams", "4", "--workload", "bursty"]).unwrap();
        assert_eq!(args.ingest, IngestKind::Direct);
        assert_eq!(args.streams, 4);
    }

    #[test]
    fn forecast_flags_require_a_predictive_consumer() {
        for flag in [
            ["--forecast-bucket-ms", "100"],
            ["--forecast-buckets", "16"],
            ["--forecast-horizon-ms", "400"],
            ["--forecast-confidence", "0.5"],
        ] {
            let err = parse(&flag).unwrap_err();
            assert!(err.contains(flag[0]), "{err}");
            assert!(err.contains("--autoscale predictive"), "{err}");
        }
        // Either predictive consumer unlocks them.
        let args = parse(&["--autoscale", "predictive", "--forecast-horizon-ms", "400"]).unwrap();
        assert_eq!(args.autoscale, ScalePolicyKind::Predictive);
        assert_eq!(args.forecast_horizon_ms, 400.0);
        let args = parse(&["--rebalance", "predicted", "--forecast-buckets", "16"]).unwrap();
        assert_eq!(args.rebalance_signal, RebalanceSignal::Predicted);
        assert_eq!(args.forecast_buckets, 16);
    }

    #[test]
    fn sizing_flags_are_bounded() {
        for flag in [
            "--workers",
            "--max-workers",
            "--shards",
            "--forecast-buckets",
        ] {
            let parse_at = |n: usize| parse(&["--autoscale", "predictive", flag, &n.to_string()]);
            let err = parse_at(SIZING_LIMIT + 1).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(parse_at(SIZING_LIMIT).is_ok(), "{flag} {SIZING_LIMIT}");
        }
    }

    #[test]
    fn forecast_flag_ranges_are_checked() {
        let err = parse(&["--autoscale", "predictive", "--forecast-bucket-ms", "0"]).unwrap_err();
        assert!(err.contains("--forecast-bucket-ms"), "{err}");
        let err = parse(&["--autoscale", "predictive", "--forecast-buckets", "1"]).unwrap_err();
        assert!(err.contains("--forecast-buckets"), "{err}");
        let err = parse(&["--autoscale", "predictive", "--forecast-horizon-ms", "-1"]).unwrap_err();
        assert!(err.contains("--forecast-horizon-ms"), "{err}");
        let err =
            parse(&["--autoscale", "predictive", "--forecast-confidence", "1.5"]).unwrap_err();
        assert!(err.contains("--forecast-confidence"), "{err}");
    }

    #[test]
    fn rebalance_signal_and_cooldown_parse() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.rebalance_signal, RebalanceSignal::Backlog);
        assert_eq!(args.migration_cooldown, 2);
        let args = parse(&[
            "--rebalance",
            "predicted",
            "--migration-cooldown-ticks",
            "0",
        ])
        .unwrap();
        assert_eq!(args.rebalance_signal, RebalanceSignal::Predicted);
        assert_eq!(args.migration_cooldown, 0);
        let err = parse(&["--rebalance", "nope"]).unwrap_err();
        assert!(err.contains("unknown signal"), "{err}");
    }

    #[test]
    fn ramp_and_sine_workloads_parse() {
        let args = parse(&["--workload", "ramp"]).unwrap();
        assert_eq!(args.workload, WorkloadKind::Ramp);
        let args = parse(&["--workload", "sine"]).unwrap();
        assert_eq!(args.workload, WorkloadKind::Sine);
        for k in [
            WorkloadKind::Mixed,
            WorkloadKind::Bursty,
            WorkloadKind::Ramp,
            WorkloadKind::Sine,
        ] {
            assert_eq!(WorkloadKind::from_name(k.name()), Some(k));
        }
    }
}
