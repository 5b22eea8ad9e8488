//! Property tests for the arrival-rate forecaster: the invariants the
//! predictive control plane leans on.
//!
//! * **Boundedness** — the Holt level and the horizon forecast never
//!   leave the observed per-bucket rate range: the forecaster may
//!   anticipate, but never invents a rate the stream has not shown.
//! * **Migration invariance** — the history is a plain value owned by
//!   the stream runtime; `extract_stream`/`admit_stream` move it across
//!   shards by value. Splitting a recording at any point and moving the
//!   history mid-stream must leave every subsequent forecast
//!   bit-identical to an unmigrated recording.
//! * **Re-chunk invariance** — arrivals reach the history in whatever
//!   chunks the event loop dequeues between control ticks. However the
//!   same arrival sequence is chunked, and however many forecast reads
//!   interleave with the chunks, the complete-bucket rates and the
//!   forecast are a pure function of (arrivals so far, now).
//!
//! A closing integration test drives the predicted rebalance signal
//! through a real two-shard fleet: forecast-driven migrations happen,
//! frames are conserved, and the run is bit-reproducible.

mod common;

use catdet_serve::{
    bursty_workload, serve_fleet, serve_fleet_with_recorder, step_workload, ArrivalHistory,
    AutoscaleConfig, BurstProfile, FleetReport, ForecastConfig, PartitionKind, RateForecaster,
    RebalanceSignal, ServeConfig, ShardConfig, SharedRecorder, StreamSpec, SystemKind,
};
use proptest::prelude::*;

/// Strategy: a forecaster configuration over the ranges the CLI accepts.
fn config_strategy() -> impl Strategy<Value = ForecastConfig> {
    (
        0.05f64..1.0, // bucket_s
        2usize..24,   // history_buckets
        0.05f64..1.0, // alpha
        0.05f64..1.0, // beta
        0.0f64..2.0,  // horizon_s
    )
        .prop_map(|(bucket_s, buckets, alpha, beta, horizon_s)| {
            ForecastConfig::new()
                .with_bucket_s(bucket_s)
                .with_history_buckets(buckets)
                .with_smoothing(alpha, beta)
                .with_horizon_s(horizon_s)
        })
}

/// Strategy: a sorted arrival-time sequence built from positive gaps, so
/// rates vary but time always moves forward (the scheduler's guarantee).
fn arrivals_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.005f64..0.4, 1..120).prop_map(|gaps| {
        let mut t = 0.0;
        gaps.iter()
            .map(|g| {
                t += g;
                t
            })
            .collect()
    })
}

fn record_all(history: &mut ArrivalHistory, arrivals: &[f64]) {
    for &t in arrivals {
        history.record(t);
    }
}

/// Bit-exact forecast comparison: `PartialEq` on f64 would already fail
/// on NaN, and the determinism contract is about bytes, not tolerance.
fn forecast_bits(f: &catdet_serve::Forecast) -> (u64, u64, u64, u64, u64) {
    (
        f.rate_fps.to_bits(),
        f.level_fps.to_bits(),
        f.trend_fps_per_s.to_bits(),
        f.confidence.to_bits(),
        f.phase.code(),
    )
}

proptest! {
    /// The EWMA level, the horizon forecast, and the confidence all stay
    /// inside their documented ranges for arbitrary configurations and
    /// arrival patterns: rate and level within the observed per-bucket
    /// rate band, confidence within [0, 1].
    #[test]
    fn forecast_stays_within_observed_rate_band(
        cfg in config_strategy(),
        arrivals in arrivals_strategy(),
        settle in 0.0f64..2.0,
    ) {
        let mut h = ArrivalHistory::new(&cfg);
        record_all(&mut h, &arrivals);
        let now = arrivals.last().copied().unwrap_or(0.0) + settle;
        let mut rates = Vec::new();
        h.complete_rates(now, &mut rates);
        let f = RateForecaster::new(cfg).forecast(&h, now);
        prop_assert!((0.0..=1.0).contains(&f.confidence), "confidence {}", f.confidence);
        if rates.is_empty() {
            prop_assert_eq!(forecast_bits(&f), forecast_bits(&catdet_serve::Forecast::none()));
        } else {
            let min_r = rates.iter().copied().fold(f64::INFINITY, f64::min);
            let max_r = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(
                f.level_fps >= min_r && f.level_fps <= max_r,
                "level {} outside observed [{min_r}, {max_r}]", f.level_fps
            );
            prop_assert!(
                f.rate_fps >= min_r && f.rate_fps <= max_r,
                "rate {} outside observed [{min_r}, {max_r}]", f.rate_fps
            );
        }
    }

    /// Migration invariance: split the arrival sequence anywhere, move
    /// the history by value at the split (exactly what
    /// `extract_stream`/`admit_stream` do to the owning stream runtime),
    /// and finish recording on the moved value. Every forecast after the
    /// move is bit-identical to one from an unbroken recording.
    #[test]
    fn forecast_is_identical_across_a_mid_stream_migration(
        cfg in config_strategy(),
        arrivals in arrivals_strategy(),
        split_frac in 0.0f64..=1.0,
        settle in 0.0f64..2.0,
    ) {
        let split = ((arrivals.len() as f64) * split_frac) as usize;
        let mut resident = ArrivalHistory::new(&cfg);
        record_all(&mut resident, &arrivals);

        let mut before = ArrivalHistory::new(&cfg);
        record_all(&mut before, &arrivals[..split]);
        let mut migrated = before; // the by-value hop between shards
        record_all(&mut migrated, &arrivals[split..]);

        prop_assert_eq!(&resident, &migrated);
        let fc = RateForecaster::new(cfg);
        let now = arrivals.last().copied().unwrap_or(0.0) + settle;
        prop_assert_eq!(
            forecast_bits(&fc.forecast(&resident, now)),
            forecast_bits(&fc.forecast(&migrated, now))
        );
    }

    /// Re-chunk invariance: deliver the same arrivals in arbitrary chunk
    /// sizes with a forecast read after every chunk (a control tick
    /// interleaving with ingest). Each interim read matches a fresh
    /// history fed the same prefix in one shot, and the final state is
    /// identical to the unchunked recording — reads never perturb the
    /// history, chunk boundaries never show in the rates.
    #[test]
    fn history_is_invariant_under_rechunked_interleavings(
        cfg in config_strategy(),
        arrivals in arrivals_strategy(),
        chunk_sizes in proptest::collection::vec(1usize..12, 1..40),
    ) {
        let fc = RateForecaster::new(cfg);
        let mut chunked = ArrivalHistory::new(&cfg);
        let mut fed = 0;
        for &size in &chunk_sizes {
            if fed >= arrivals.len() {
                break;
            }
            let end = (fed + size).min(arrivals.len());
            record_all(&mut chunked, &arrivals[fed..end]);
            fed = end;
            // Interleaved control tick: read at the newest time seen.
            let now = arrivals[end - 1];
            let mut reference = ArrivalHistory::new(&cfg);
            record_all(&mut reference, &arrivals[..end]);
            prop_assert_eq!(&chunked, &reference);
            prop_assert_eq!(
                forecast_bits(&fc.forecast(&chunked, now)),
                forecast_bits(&fc.forecast(&reference, now))
            );
        }
        let mut unchunked = ArrivalHistory::new(&cfg);
        record_all(&mut unchunked, &arrivals[..fed]);
        prop_assert_eq!(&chunked, &unchunked);
    }
}

/// End-to-end: the predicted rebalance signal drives real
/// `extract_stream`/`admit_stream` migrations in a two-shard fleet —
/// with histories riding along — and the run conserves frames and is
/// bit-reproducible.
#[test]
fn predicted_rebalancing_migrates_and_stays_deterministic() {
    let streams = || -> Vec<catdet_serve::StreamSpec> {
        // Two heavy anti-phase bursts pinned one per shard plus two
        // movers: predicted load diverges between shards, so the
        // forecaster has something to act on.
        let burst = |offset: f64| -> Vec<f64> {
            let mut out = Vec::new();
            for c in 0..3 {
                let start = offset + c as f64 * 0.8;
                for i in 0..40 {
                    out.push(start + i as f64 / 100.0);
                }
            }
            out
        };
        vec![
            common::null_spec_with_arrivals(0, burst(0.0)),
            common::null_spec_with_arrivals(1, burst(0.4)),
            common::null_spec_with_arrivals(2, (0..48).map(|i| i as f64 / 20.0).collect()),
            common::null_spec_with_arrivals(3, (0..4).map(|i| i as f64 / 2.0).collect()),
        ]
    };
    let total: usize = streams().iter().map(|s| s.source.len()).sum();
    let cfg = ServeConfig::new()
        .with_queue_capacity(100_000)
        .with_workers(1)
        .with_max_batch(1)
        .with_shard(
            ShardConfig::sharded(2)
                .with_partition(PartitionKind::LeastLoaded)
                .with_rebalance_interval_s(0.05)
                .with_migration_cost_frames(0)
                .with_rebalance_signal(catdet_serve::RebalanceSignal::Predicted),
        );
    let report = serve_fleet(streams(), &cfg);
    assert_eq!(
        report.frames_processed() + report.frames_dropped(),
        total,
        "conservation under predicted-signal migrations"
    );
    assert!(
        !report.migrations.is_empty(),
        "predicted signal should trigger at least one migration:\n{}",
        report.migration_timeline()
    );
    assert_eq!(report, serve_fleet(streams(), &cfg));
}

/// The duel's arrival regime: a quiet trickle and 10 fps stampedes, sized
/// so the in-burst load sits just under the fleet's max-worker capacity,
/// where *when* capacity arrives decides the tail and the drops.
fn duel_profile() -> BurstProfile {
    BurstProfile {
        quiet_fps: 2.0,
        burst_fps: 10.0,
        quiet_s: 2.0,
        burst_s: 2.0,
    }
}

/// Two shards with bounded queues and live rebalancing. Only the control
/// plane differs between the arms: hysteresis autoscaling with backlog
/// rebalancing, or predictive autoscaling with predicted-load rebalancing.
fn duel_config(predictive: bool, threads: usize) -> ServeConfig {
    let (mut autoscale, signal) = if predictive {
        (
            AutoscaleConfig::predictive(1, 6),
            RebalanceSignal::Predicted,
        )
    } else {
        (AutoscaleConfig::hysteresis(1, 6), RebalanceSignal::Backlog)
    };
    // The CatdetA preset's per-frame virtual service time on this fleet
    // shape, batching included: the predictive controller's capacity model.
    autoscale.service_s_per_frame = 0.065;
    // A scale-down threshold both arms can reach. The stock 0.15 s sits
    // below this preset's batched service latency and would pin the
    // hysteresis arm at its breach-time overshoot.
    autoscale.down_p99_s = 0.35;
    ServeConfig::new()
        .with_workers(1)
        .with_max_batch(4)
        .with_queue_capacity(12)
        .with_autoscale(autoscale)
        .with_shard(
            ShardConfig::sharded(2)
                .with_rebalance_interval_s(0.25)
                .with_migration_cost_frames(4)
                .with_rebalance_signal(signal)
                .with_threads(threads),
        )
}

fn duel_bursty() -> Vec<StreamSpec> {
    bursty_workload(16, 70, 2019, SystemKind::CatdetA, duel_profile())
}

/// Predictive vs reactive control on the same workload and fleet: the
/// predictive arm must win merged p99 and drop rate while spending the
/// same worker-seconds (±5%), so the win comes from timing, not from
/// extra capacity.
#[test]
fn predictive_control_plane_beats_reactive_at_equal_spend() {
    // The step lands at 4 s, once the forecaster has history to read.
    let step = || step_workload(16, 70, 2019, SystemKind::CatdetA, duel_profile(), 4.0);
    for (name, build) in [
        ("step", &step as &dyn Fn() -> Vec<StreamSpec>),
        ("bursty", &duel_bursty),
    ] {
        let reactive = serve_fleet(build(), &duel_config(false, 1));
        let predictive = serve_fleet(build(), &duel_config(true, 1));
        let p99 = |r: &FleetReport| r.merged_latency().expect("frames were served").p99_s;
        assert!(
            p99(&predictive) < p99(&reactive),
            "{name}: predictive p99 {:.3} s did not beat reactive {:.3} s",
            p99(&predictive),
            p99(&reactive)
        );
        let (ours, theirs) = (predictive.drop_rate(), reactive.drop_rate());
        assert!(
            ours < theirs || (ours == 0.0 && theirs == 0.0),
            "{name}: predictive drop rate {ours:.4} did not beat reactive {theirs:.4}"
        );
        let ratio = predictive.worker_seconds() / reactive.worker_seconds();
        assert!(
            (ratio - 1.0).abs() <= 0.05,
            "{name}: worker-seconds ratio {ratio:.3} is outside 1 +/- 0.05"
        );
    }
}

/// Forecasts, forecast-driven migrations and their recording do not
/// depend on how many OS threads step the shards.
#[test]
fn predictive_duel_is_identical_at_1_and_4_threads() {
    let run = |threads: usize| {
        let recorder = SharedRecorder::new(512, usize::MAX, 8);
        let report =
            serve_fleet_with_recorder(duel_bursty(), &duel_config(true, threads), &recorder);
        (report, recorder.with_store(|s| catdet_recorder::encode(s)))
    };
    let (report_1, bytes_1) = run(1);
    let (report_4, bytes_4) = run(4);
    assert!(report_1 == report_4, "reports diverged at 1 vs 4 threads");
    assert!(
        bytes_1 == bytes_4,
        "recorder stores diverged at 1 vs 4 threads"
    );
}
