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
//!
//! Every flag writes straight into a [`ServeConfig`] (or the workload
//! around it) through one table, [`FLAGS`]; [`ServeConfig::validate`]
//! then checks every range rule, and its error is mapped back to the flag
//! that set the offending field.

use catdet_recorder::{read_file, Event, EventKind, Query};
use catdet_serve::config::SIZING_LIMIT;
use catdet_serve::{
    bursty_workload, mixed_workload, ramp_workload, serve, serve_fleet, serve_fleet_with_recorder,
    serve_net_fleet, serve_net_fleet_with_recorder, serve_with_recorder, sine_workload,
    AdmissionKind, AdmissionReason, BurstPhase, BurstProfile, ConnEventKind, DropPolicy,
    IngestKind, PartitionKind, PolicyDecision, PolicyKind, RebalanceSignal, ScalePolicyKind,
    ScaleReason, SchedulePolicy, ServeConfig, StreamSpec, SystemKind,
};
use std::path::Path;
use std::str::FromStr;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadKind {
    Mixed,
    Bursty,
    Ramp,
    Sine,
}

impl WorkloadKind {
    const ALL: [Self; 4] = [
        WorkloadKind::Mixed,
        WorkloadKind::Bursty,
        WorkloadKind::Ramp,
        WorkloadKind::Sine,
    ];

    fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Mixed => "mixed",
            WorkloadKind::Bursty => "bursty",
            WorkloadKind::Ramp => "ramp",
            WorkloadKind::Sine => "sine",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One serving invocation: the serving config, the workload it serves,
/// and where to save the recording.
#[derive(Debug)]
struct Cli {
    cfg: ServeConfig,
    streams: usize,
    frames: usize,
    system: SystemKind,
    seed: u64,
    workload: WorkloadKind,
    clients: usize,
    record: Option<String>,
    /// `--conn-jitter-ms` as given, for the front-door banner (a
    /// millisecond value does not always survive the trip through
    /// seconds bit for bit).
    jitter_ms: f64,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            cfg: ServeConfig::new(),
            streams: 8,
            frames: 60,
            system: SystemKind::CatdetA,
            seed: 2019,
            workload: WorkloadKind::Mixed,
            clients: 8,
            record: None,
            jitter_ms: 0.0,
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
                        barriers, counting the caller: N - 1 helpers
                        (0 = auto, one per host core; capped at the shard
                        count). Bit-identical results at every setting --
                        threads only change wall-clock time [1]

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
                        migration event and save the chunk store to FILE;
                        the three knobs below need it
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

/// Parses an enum flag's value `$v` with `$kind::from_name`; the error
/// lists every name in `$kind::ALL`.
macro_rules! pick {
    ($v:expr, $what:literal, $kind:ident) => {
        $kind::from_name($v).ok_or_else(|| {
            let names: Vec<_> = $kind::ALL.iter().map(|k| k.name()).collect();
            let names = names.join(", ");
            format!("unknown {} {} (expected one of: {names})", $what, $v)
        })
    };
}

/// Writes one flag's value into a [`Cli`].
type Setter = fn(&mut Cli, &str) -> Result<(), String>;

/// Every flag that takes a value: its name, the path of the
/// [`ServeConfig`] field it sets (as a
/// [`ConfigError`](catdet_serve::ConfigError) names it; empty for a flag
/// outside the config), and its setter.
const FLAGS: &[(&str, &str, Setter)] = &[
    ("--streams", "", |c, v| set(&mut c.streams, size(v, 0))),
    ("--frames", "", |c, v| set(&mut c.frames, size(v, 0))),
    ("--system", "", |c, v| {
        set(&mut c.system, pick!(v, "system", SystemKind))
    }),
    ("--seed", "", |c, v| set(&mut c.seed, num(v))),
    ("--workload", "", |c, v| {
        set(&mut c.workload, pick!(v, "workload", WorkloadKind))
    }),
    ("--workers", "workers", |c, v| {
        set(&mut c.cfg.workers, num(v))
    }),
    ("--batch", "max_batch", |c, v| {
        set(&mut c.cfg.max_batch, num(v))
    }),
    ("--window-ms", "batch_window_s", |c, v| {
        set(&mut c.cfg.batch_window_s, ms(v))
    }),
    (
        "--refine-batch-window-ms",
        "refine_batch_window_s",
        |c, v| set(&mut c.cfg.refine_batch_window_s, ms(v)),
    ),
    ("--queue", "queue_capacity", |c, v| {
        set(&mut c.cfg.queue_capacity, num(v))
    }),
    ("--schedule", "schedule", |c, v| {
        set(&mut c.cfg.schedule, pick!(v, "policy", SchedulePolicy))
    }),
    ("--drop", "drop_policy", |c, v| {
        set(&mut c.cfg.drop_policy, pick!(v, "policy", DropPolicy))
    }),
    ("--policy", "policy.kind", |c, v| {
        set(&mut c.cfg.policy.kind, pick!(v, "frame policy", PolicyKind))
    }),
    ("--policy-stride", "policy.stride", |c, v| {
        set(&mut c.cfg.policy.stride, num(v))
    }),
    ("--policy-confidence", "policy.confidence", |c, v| {
        set(&mut c.cfg.policy.confidence, num(v))
    }),
    ("--autoscale", "autoscale.policy", |c, v| {
        set(
            &mut c.cfg.autoscale.policy,
            pick!(v, "policy", ScalePolicyKind),
        )
    }),
    ("--min-workers", "autoscale.min_workers", |c, v| {
        set(&mut c.cfg.autoscale.min_workers, num(v))
    }),
    ("--max-workers", "autoscale.max_workers", |c, v| {
        set(&mut c.cfg.autoscale.max_workers, num(v))
    }),
    ("--interval-ms", "autoscale.control_interval_s", |c, v| {
        set(&mut c.cfg.autoscale.control_interval_s, ms(v))
    }),
    ("--forecast-bucket-ms", "forecast.bucket_s", |c, v| {
        set(&mut c.cfg.forecast.bucket_s, ms(v))
    }),
    ("--forecast-buckets", "forecast.history_buckets", |c, v| {
        set(&mut c.cfg.forecast.history_buckets, num(v))
    }),
    ("--forecast-horizon-ms", "forecast.horizon_s", |c, v| {
        set(&mut c.cfg.forecast.horizon_s, ms(v))
    }),
    (
        "--forecast-confidence",
        "forecast.min_confidence",
        |c, v| set(&mut c.cfg.forecast.min_confidence, num(v)),
    ),
    ("--admission", "admission.kind", |c, v| {
        set(&mut c.cfg.admission.kind, pick!(v, "policy", AdmissionKind))
    }),
    ("--admit-rate", "admission.rate_fps", |c, v| {
        set(&mut c.cfg.admission.rate_fps, num(v))
    }),
    ("--admit-burst", "admission.burst", |c, v| {
        set(&mut c.cfg.admission.burst, num(v))
    }),
    ("--watermark", "admission.backlog_watermark", |c, v| {
        set(&mut c.cfg.admission.backlog_watermark, num(v))
    }),
    ("--shards", "shard.shards", |c, v| {
        set(&mut c.cfg.shard.shards, num(v))
    }),
    ("--partition", "shard.partition", |c, v| {
        set(
            &mut c.cfg.shard.partition,
            pick!(v, "policy", PartitionKind),
        )
    }),
    (
        "--rebalance-interval-ms",
        "shard.rebalance_interval_s",
        |c, v| set(&mut c.cfg.shard.rebalance_interval_s, ms(v)),
    ),
    (
        "--migration-cost-frames",
        "shard.migration_cost_frames",
        |c, v| set(&mut c.cfg.shard.migration_cost_frames, num(v)),
    ),
    ("--rebalance", "shard.rebalance_signal", |c, v| {
        set(
            &mut c.cfg.shard.rebalance_signal,
            pick!(v, "signal", RebalanceSignal),
        )
    }),
    (
        "--migration-cooldown-ticks",
        "shard.migration_cooldown_ticks",
        |c, v| set(&mut c.cfg.shard.migration_cooldown_ticks, num(v)),
    ),
    ("--threads", "shard.threads", |c, v| {
        set(&mut c.cfg.shard.threads, num(v))
    }),
    ("--ingest", "ingest.kind", |c, v| {
        set(&mut c.cfg.ingest.kind, pick!(v, "kind", IngestKind))
    }),
    ("--clients", "", |c, v| set(&mut c.clients, size(v, 1))),
    ("--conn-jitter-ms", "ingest.conn_jitter_s", |c, v| {
        c.jitter_ms = num(v)?;
        c.cfg.ingest.conn_jitter_s = c.jitter_ms / 1e3;
        Ok(())
    }),
    ("--disconnect-rate", "ingest.disconnect_rate", |c, v| {
        set(&mut c.cfg.ingest.disconnect_rate, num(v))
    }),
    ("--reorder-rate", "ingest.reorder_rate", |c, v| {
        set(&mut c.cfg.ingest.reorder_rate, num(v))
    }),
    ("--door-rate", "ingest.door_rate_fps", |c, v| {
        set(&mut c.cfg.ingest.door_rate_fps, num(v))
    }),
    ("--door-burst", "ingest.door_burst", |c, v| {
        set(&mut c.cfg.ingest.door_burst, num(v))
    }),
    ("--record", "", |c, v| {
        c.record = Some(v.to_string());
        c.cfg.recorder.enabled = true;
        Ok(())
    }),
    ("--record-chunk-events", "recorder.chunk_events", |c, v| {
        set(&mut c.cfg.recorder.chunk_events, num(v))
    }),
    (
        "--record-retention-chunks",
        "recorder.retention_chunks",
        |c, v| set(&mut c.cfg.recorder.retention_chunks, num(v)),
    ),
    (
        "--record-snapshot-every",
        "recorder.snapshot_every_frames",
        |c, v| set(&mut c.cfg.recorder.snapshot_every_frames, num(v)),
    ),
];

/// Turns one switch on in a [`Cli`].
type Switch = fn(&mut Cli);

/// The value-less switches, in the shape of [`FLAGS`].
const SWITCHES: &[(&str, &str, Switch)] = &[
    ("--fuse-refinement", "fuse_refinement", |c| {
        c.cfg.fuse_refinement = true
    }),
    ("--no-fuse-across-shards", "shard.fuse_across_shards", |c| {
        c.cfg.shard.fuse_across_shards = false
    }),
    ("--admit-downgrade", "admission.downgrade", |c| {
        c.cfg.admission.downgrade = true
    }),
];

const FORECAST_ONLY: &str = "only applies to the predictive control plane; add \
                             --autoscale predictive or --rebalance predicted";
const NET_ONLY: &str = "only applies to the network front door; add --ingest net";
const RECORD_ONLY: &str = "only applies to a recorded run; add --record <FILE>";

/// Whether a [`Cli`] meets a flag's condition.
type Condition = fn(&Cli) -> bool;

/// The flag rules [`ServeConfig::validate`] cannot see, because they
/// depend on whether a flag was passed at all: each flag, when passed,
/// needs its condition to hold, or the invocation fails with the message.
/// A knob the run would silently ignore is an error, not a no-op.
const NEEDS: &[(&str, Condition, &str)] = &[
    (
        "--policy-stride",
        |c| c.cfg.policy.kind == PolicyKind::FixedStride,
        "only applies to the fixed-stride frame policy; add --policy fixed-stride",
    ),
    (
        "--policy-confidence",
        |c| c.cfg.policy.kind == PolicyKind::ConfidenceTrigger,
        "only applies to the confidence-trigger frame policy; add --policy confidence-trigger",
    ),
    (
        "--admit-downgrade",
        |c| c.cfg.admission.kind == AdmissionKind::Priority,
        "needs a shedding admission gate; add --admission priority",
    ),
    ("--forecast-bucket-ms", forecasting, FORECAST_ONLY),
    ("--forecast-buckets", forecasting, FORECAST_ONLY),
    ("--forecast-horizon-ms", forecasting, FORECAST_ONLY),
    ("--forecast-confidence", forecasting, FORECAST_ONLY),
    (
        "--workload",
        |c| !net(c),
        "cannot be combined with --ingest net: the front door generates its own capture \
         schedule from the mixed workload; drop --workload",
    ),
    (
        "--streams",
        |c| !net(c),
        "cannot be combined with --ingest net: cameras are connections there; use --clients \
         instead",
    ),
    ("--clients", net, NET_ONLY),
    ("--conn-jitter-ms", net, NET_ONLY),
    ("--disconnect-rate", net, NET_ONLY),
    ("--reorder-rate", net, NET_ONLY),
    ("--door-rate", net, NET_ONLY),
    ("--door-burst", net, NET_ONLY),
    ("--record-chunk-events", recording, RECORD_ONLY),
    ("--record-retention-chunks", recording, RECORD_ONLY),
    ("--record-snapshot-every", recording, RECORD_ONLY),
];

/// Every row's flag and field, switches included.
fn rows() -> impl Iterator<Item = (&'static str, &'static str)> {
    let flags = FLAGS.iter().map(|r| (r.0, r.1));
    flags.chain(SWITCHES.iter().map(|r| (r.0, r.1)))
}

fn net(c: &Cli) -> bool {
    c.cfg.ingest.kind == IngestKind::Net
}

fn recording(c: &Cli) -> bool {
    c.record.is_some()
}

fn forecasting(c: &Cli) -> bool {
    c.cfg.autoscale.policy == ScalePolicyKind::Predictive
        || c.cfg.shard.rebalance_signal == RebalanceSignal::Predicted
}

/// Parses `catdet-serve [OPTIONS]` into a validated [`Cli`]; `Ok(None)`
/// asks for the usage text. An error names the flag at fault.
fn parse_args_from(args: impl IntoIterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut cli = Cli::default();
    // Every flag passed, with its value ("on" for a switch); the last wins.
    let mut passed: Vec<(&str, String)> = Vec::new();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "-h" || flag == "--help" {
            return Ok(None);
        }
        if let Some(&(name, _, switch)) = SWITCHES.iter().find(|row| row.0 == flag) {
            switch(&mut cli);
            passed.push((name, "on".into()));
            continue;
        }
        let Some(&(name, _, setter)) = FLAGS.iter().find(|row| row.0 == flag) else {
            return Err(format!("unknown flag {flag} (try --help)"));
        };
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        setter(&mut cli, &value).map_err(|e| format!("{flag}: {e}"))?;
        passed.push((name, value));
    }
    let given = |flag: &str| {
        passed
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v)
    };
    for &(flag, holds, message) in NEEDS {
        if given(flag).is_some() && !holds(&cli) {
            return Err(format!("{flag} {message}"));
        }
    }
    cli.cfg
        .validate()
        .map_err(|e| match rows().find(|r| r.1 == e.field) {
            Some((flag, _)) => {
                let value = given(flag).map_or("(default)", String::as_str);
                format!("{flag} {value}: {}", e.rule)
            }
            None => e.to_string(),
        })?;
    Ok(Some(cli))
}

fn set<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("not a number: {v}"))
}

fn parse_num<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    num(v).map_err(|e| format!("{flag}: {e}"))
}

/// Milliseconds, as the seconds the config holds.
fn ms(v: &str) -> Result<f64, String> {
    num(v).map(|ms: f64| ms / 1e3)
}

/// A workload size in `min..=SIZING_LIMIT`: the generators allocate every
/// camera's frames up front, so a larger one aborts the process.
fn size(v: &str, min: usize) -> Result<usize, String> {
    match num(v)? {
        n if n < min => Err(format!("must be at least {min} (got {n})")),
        n if n > SIZING_LIMIT => Err(format!("must be at most {SIZING_LIMIT} (got {n})")),
        n => Ok(n),
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("query") {
        if let Err(e) = run_query(std::env::args().skip(2)) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let cli = match parse_args_from(std::env::args().skip(1)) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cfg = cli.cfg;

    let net = net(&cli);
    println!(
        "spinning up {} {} ({} frames each, {} workload), {} shards x {} workers \
         ({} partition), {} scheduling, {} frame policy, autoscale {}, admission {}, \
         refinement fusion {}, system {}",
        if net { cli.clients } else { cli.streams },
        if net { "camera connections" } else { "streams" },
        cli.frames,
        if net { "mixed" } else { cli.workload.name() },
        cfg.shard.shards,
        cfg.workers,
        cfg.shard.partition.name(),
        cfg.schedule.name(),
        cfg.policy.kind.name(),
        cfg.autoscale.policy.name(),
        cfg.admission.kind.name(),
        if cfg.fuse_refinement { "on" } else { "off" },
        cli.system.name(),
    );
    if net {
        println!(
            "front door: jitter {} ms, disconnect rate {}, reorder rate {}, \
             door {} fps (burst {})",
            cli.jitter_ms,
            cfg.ingest.disconnect_rate,
            cfg.ingest.reorder_rate,
            cfg.ingest.door_rate_fps,
            cfg.ingest.door_burst,
        );
    }
    let (frames, seed, system) = (cli.frames, cli.seed, cli.system);
    let streams: Vec<StreamSpec> = if net {
        mixed_workload(cli.clients, frames, seed, system)
    } else {
        match cli.workload {
            WorkloadKind::Mixed => mixed_workload(cli.streams, frames, seed, system),
            WorkloadKind::Bursty => {
                bursty_workload(cli.streams, frames, seed, system, BurstProfile::demo())
            }
            WorkloadKind::Ramp => ramp_workload(cli.streams, frames, seed, system, 2.0, 20.0, 3.0),
            WorkloadKind::Sine => sine_workload(cli.streams, frames, seed, system, 10.0, 6.0, 2.0),
        }
    };
    let recorder = cli.record.as_ref().map(|_| cfg.recorder.build());
    if net || cfg.shard.shards > 1 {
        let report = match (&recorder, net) {
            (Some(r), true) => serve_net_fleet_with_recorder(streams, &cfg, seed, r),
            (None, true) => serve_net_fleet(streams, &cfg, seed),
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
    if let (Some(recorder), Some(path)) = (&recorder, &cli.record) {
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
    use proptest::prelude::*;

    fn parse(argv: &[&str]) -> Result<Cli, String> {
        let cli = parse_args_from(argv.iter().map(|s| s.to_string()))?;
        Ok(cli.expect("not --help"))
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
    fn recorder_flags_require_a_recording() {
        for flag in [
            ["--record-chunk-events", "64"],
            ["--record-retention-chunks", "4"],
            ["--record-snapshot-every", "8"],
        ] {
            let err = parse(&flag).unwrap_err();
            assert!(err.contains(flag[0]), "{err}");
            assert!(err.contains("--record <FILE>"), "{err}");
        }
        let args = parse(&[
            "--record",
            "run.cdr",
            "--record-retention-chunks",
            "4",
            "--record-snapshot-every",
            "8",
        ])
        .unwrap();
        assert!(args.cfg.recorder.enabled);
        assert_eq!(args.cfg.recorder.retention_chunks, 4);
        assert_eq!(args.cfg.recorder.snapshot_every_frames, 8);
        // With a recording, the range rules still name the flag.
        let err = parse(&["--record", "run.cdr", "--record-chunk-events", "0"]).unwrap_err();
        assert!(err.contains("--record-chunk-events 0"), "{err}");
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
        assert!(args.cfg.admission.downgrade);
        assert_eq!(args.cfg.admission.kind, AdmissionKind::Priority);
    }

    #[test]
    fn valid_policy_invocations_parse() {
        let args = parse(&["--policy", "fixed-stride", "--policy-stride", "5"]).unwrap();
        assert_eq!(args.cfg.policy.kind, PolicyKind::FixedStride);
        assert_eq!(args.cfg.policy.stride, 5);
        let args = parse(&[
            "--policy",
            "confidence-trigger",
            "--policy-confidence",
            "1.5",
            "--schedule",
            "least-backlog",
        ])
        .unwrap();
        assert_eq!(args.cfg.policy.kind, PolicyKind::ConfidenceTrigger);
        assert_eq!(args.cfg.policy.confidence, 1.5);
        assert_eq!(args.cfg.schedule, SchedulePolicy::LeastBacklog);
        // Defaults: always-detect, no downgrade.
        let args = parse(&[]).unwrap();
        assert_eq!(args.cfg.policy.kind, PolicyKind::AlwaysDetect);
        assert!(!args.cfg.admission.downgrade);
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
        assert_eq!(args.cfg.ingest.kind, IngestKind::Net);
        assert_eq!(args.clients, 10);
        assert_eq!(args.cfg.ingest.conn_jitter_s, 8.0 / 1e3);
        assert_eq!(args.cfg.ingest.disconnect_rate, 0.05);
        assert_eq!(args.cfg.ingest.reorder_rate, 0.02);
        assert_eq!(args.cfg.ingest.door_rate_fps, 60.0);
        assert_eq!(args.cfg.ingest.door_burst, 8.0);
        // Direct invocations are untouched by the new flags.
        let args = parse(&["--streams", "4", "--workload", "bursty"]).unwrap();
        assert_eq!(args.cfg.ingest.kind, IngestKind::Direct);
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
        assert_eq!(args.cfg.autoscale.policy, ScalePolicyKind::Predictive);
        assert_eq!(args.cfg.forecast.horizon_s, 400.0 / 1e3);
        let args = parse(&["--rebalance", "predicted", "--forecast-buckets", "16"]).unwrap();
        assert_eq!(args.cfg.shard.rebalance_signal, RebalanceSignal::Predicted);
        assert_eq!(args.cfg.forecast.history_buckets, 16);
    }

    #[test]
    fn sizing_flags_are_bounded() {
        for flag in [
            "--workers",
            "--max-workers",
            "--shards",
            "--forecast-buckets",
            "--streams",
            "--frames",
            "--clients",
        ] {
            let ingest = if flag == "--clients" { "net" } else { "direct" };
            let parse_at = |n: usize| {
                let n = n.to_string();
                parse(&["--autoscale", "predictive", "--ingest", ingest, flag, &n])
            };
            let err = parse_at(SIZING_LIMIT + 1).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(parse_at(SIZING_LIMIT).is_ok(), "{flag} {SIZING_LIMIT}");
        }
        let err = parse(&["--streams", "100000000000", "--frames", "2"]).unwrap_err();
        assert!(err.contains("--streams"), "{err}");
        assert!(parse(&["--streams", "0", "--frames", "0"]).is_ok());
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
        assert_eq!(args.cfg.shard.rebalance_signal, RebalanceSignal::Backlog);
        assert_eq!(args.cfg.shard.migration_cooldown_ticks, 2);
        let args = parse(&[
            "--rebalance",
            "predicted",
            "--migration-cooldown-ticks",
            "0",
        ])
        .unwrap();
        assert_eq!(args.cfg.shard.rebalance_signal, RebalanceSignal::Predicted);
        assert_eq!(args.cfg.shard.migration_cooldown_ticks, 0);
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

    #[test]
    fn help_returns_instead_of_exiting() {
        let help = |argv: &[&str]| parse_args_from(argv.iter().map(|s| s.to_string()));
        assert!(matches!(help(&["--help"]), Ok(None)));
        assert!(matches!(help(&["--workers", "2", "-h"]), Ok(None)));
    }

    #[test]
    fn usage_lists_exactly_the_table_flags() {
        let options = USAGE.split("SUBCOMMANDS:").next().unwrap();
        let listed: Vec<&str> = options
            .split_whitespace()
            .filter(|w| w.starts_with("--"))
            .map(|w| w.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()))
            // Prose dashes ("--") are not flags.
            .filter(|w| w.len() > 2)
            .collect();
        let table: Vec<&str> = rows().map(|r| r.0).collect();
        for flag in &table {
            assert!(listed.contains(flag), "{flag} is missing from USAGE");
        }
        for flag in &listed {
            assert!(
                table.contains(flag) || *flag == "--help",
                "USAGE lists {flag}, which no table row parses"
            );
        }
    }

    /// Values drawn for every flag: edge numbers, junk, and one valid name
    /// per enum flag.
    const VALUES: [&str; 19] = [
        "0",
        "1",
        "-1",
        "nan",
        "inf",
        "1e-300",
        "65537",
        "100000000000",
        "x",
        "cascade-b",
        "sine",
        "least-backlog",
        "oldest",
        "fixed-stride",
        "predictive",
        "priority",
        "least-loaded",
        "predicted",
        "net",
    ];

    proptest! {
        #[test]
        fn arbitrary_argv_validates_or_names_a_flag(
            draws in proptest::collection::vec(
                (0..FLAGS.len() + SWITCHES.len(), 0..VALUES.len()),
                0..8,
            ),
        ) {
            let mut argv = Vec::new();
            for (row, value) in draws {
                match FLAGS.get(row) {
                    Some(&(flag, _, _)) => argv.extend([flag, VALUES[value]]),
                    None => argv.push(SWITCHES[row - FLAGS.len()].0),
                }
            }
            match parse_args_from(argv.iter().map(|a| a.to_string())) {
                Ok(cli) => {
                    let cli = cli.expect("no --help drawn");
                    prop_assert_eq!(cli.cfg.validate(), Ok(()), "{:?}", argv);
                }
                Err(e) => {
                    prop_assert!(rows().any(|r| e.contains(r.0)), "{argv:?}: {e}");
                }
            }
        }
    }
}
