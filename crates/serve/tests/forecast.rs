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
//! * **Reference equality** — the estimator reads the history ring in
//!   place and allocates nothing; it equals the earlier vector-based
//!   estimator (kept here as a test-only reference) bit for bit, on
//!   recorded histories and on synthetic on/off series.
//!
//! A closing integration test drives the predicted rebalance signal
//! through a real two-shard fleet: forecast-driven migrations happen,
//! frames are conserved, and the run is bit-reproducible. The predictive
//! duel's recorded bytes are pinned, which catches a stale forecast memo.

mod common;

use catdet_serve::{
    bursty_workload, serve_fleet, serve_fleet_with_recorder, step_workload, ArrivalHistory,
    AutoscaleConfig, BurstPhase, BurstProfile, EventKind, FleetReport, Forecast, ForecastConfig,
    PartitionKind, Query, RateForecaster, RebalanceSignal, ServeConfig, ShardConfig,
    SharedRecorder, StreamSpec, SystemKind,
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

/// The estimator as it stood before it read the history ring in place: a
/// test-only reference, its body unchanged, that collects the run list
/// and each phase's rates into vectors. The production estimator must
/// equal it bit for bit.
struct ReferenceForecaster {
    cfg: ForecastConfig,
}

impl ReferenceForecaster {
    fn forecast_rates(&self, rates: &[f64], now_s: f64) -> Forecast {
        if rates.is_empty() {
            return Forecast::none();
        }
        let min_r = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max_r = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        // Holt's linear smoothing over the bucket rates.
        let mut level = rates[0];
        let mut trend = 0.0;
        let mut abs_err = 0.0;
        for &r in &rates[1..] {
            let pred = level + trend;
            abs_err += (r - pred).abs();
            let prev = level;
            level = self.cfg.alpha * r + (1.0 - self.cfg.alpha) * pred;
            trend = self.cfg.beta * (level - prev) + (1.0 - self.cfg.beta) * trend;
        }
        level = level.clamp(min_r, max_r);
        let coverage = rates.len() as f64 / self.cfg.history_buckets as f64;
        let mean_abs_err = if rates.len() > 1 {
            abs_err / (rates.len() - 1) as f64
        } else {
            0.0
        };

        // Burst-phase detection: when the rates split into two clusters,
        // measure completed run lengths and predict the next phase edge.
        if let Some(f) = self.forecast_phases(rates, now_s, min_r, max_r, level, trend, coverage) {
            return f;
        }

        // Unimodal: trend-extrapolate, clamped to the observed range.
        let rate = (level + trend * self.cfg.horizon_s).clamp(min_r, max_r);
        let fit = if max_r > 0.0 {
            (1.0 - mean_abs_err / max_r).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Forecast {
            rate_fps: rate,
            level_fps: level,
            trend_fps_per_s: trend,
            confidence: (coverage * fit).clamp(0.0, 1.0),
            phase: BurstPhase::Steady,
        }
    }

    /// The bimodal estimator: `None` when the rates do not show a usable
    /// two-phase structure.
    #[allow(clippy::too_many_arguments)]
    fn forecast_phases(
        &self,
        rates: &[f64],
        now_s: f64,
        min_r: f64,
        max_r: f64,
        level: f64,
        trend: f64,
        coverage: f64,
    ) -> Option<Forecast> {
        let spread = max_r - min_r;
        if rates.len() < 4 || max_r <= 0.0 || spread <= 0.5 * max_r {
            return None;
        }
        let mid = 0.5 * (min_r + max_r);
        // Split the series into runs of the same phase (high >= mid).
        let mut runs: Vec<(bool, usize)> = Vec::new();
        for &r in rates {
            let high = r >= mid;
            match runs.last_mut() {
                Some((phase, len)) if *phase == high => *len += 1,
                _ => runs.push((high, 1)),
            }
        }
        if runs.len() < 3 {
            // Fewer than two completed runs: a step, not a cycle — let
            // the trend estimator handle it.
            return None;
        }
        let (cur_phase, cur_len) = *runs.last().expect("non-empty runs");
        let completed = &runs[..runs.len() - 1];
        let mean_run = |phase: bool| {
            let (sum, n) = completed
                .iter()
                .filter(|(p, _)| *p == phase)
                .fold((0usize, 0usize), |(s, n), (_, l)| (s + l, n + 1));
            (n > 0).then(|| sum as f64 / n as f64)
        };
        let expected_run = mean_run(cur_phase)?;
        // Phase means, the forecast values for either side of the edge.
        let phase_mean = |phase: bool| {
            let picked: Vec<f64> = rates
                .iter()
                .copied()
                .filter(|&r| (r >= mid) == phase)
                .collect();
            picked.iter().sum::<f64>() / picked.len() as f64
        };
        // Time left in the current run: buckets the run is expected to
        // span minus the time already spent in it (completed buckets of
        // the run plus the fraction elapsed in the current bucket).
        let bucket_s = self.cfg.bucket_s;
        let run_start_s = (now_s / bucket_s).floor() * bucket_s - cur_len as f64 * bucket_s;
        let elapsed_s = now_s - run_start_s;
        let remaining_s = expected_run * bucket_s - elapsed_s;
        let edge_within_horizon = remaining_s <= self.cfg.horizon_s;
        let forecast_high = if edge_within_horizon {
            !cur_phase
        } else {
            cur_phase
        };
        let rate = phase_mean(forecast_high).clamp(min_r, max_r);
        Some(Forecast {
            rate_fps: rate,
            level_fps: level,
            trend_fps_per_s: trend,
            confidence: coverage.clamp(0.0, 1.0),
            phase: if forecast_high {
                BurstPhase::Burst
            } else {
                BurstPhase::Quiet
            },
        })
    }
}

/// Strategy: forecaster configurations whose history is long enough for
/// the ring to wrap many times under [`arrivals_strategy`].
fn ring_config_strategy() -> impl Strategy<Value = ForecastConfig> {
    (config_strategy(), 2usize..64).prop_map(|(cfg, buckets)| cfg.with_history_buckets(buckets))
}

/// Strategy: an on/off rate series, two levels alternating in runs of
/// random length, so the burst-phase branch runs on most cases.
fn on_off_series_strategy() -> impl Strategy<Value = Vec<f64>> {
    (
        0.0f64..5.0,
        5.0f64..60.0,
        ANY_BOOL,
        proptest::collection::vec(1usize..7, 1..12),
    )
        .prop_map(|(low, high, start_high, runs)| {
            let mut series = Vec::new();
            for (i, &len) in runs.iter().enumerate() {
                let level = if (i % 2 == 0) == start_high {
                    high
                } else {
                    low
                };
                series.extend(std::iter::repeat_n(level, len));
            }
            series
        })
}

proptest! {
    /// The in-place estimator equals the reference run over
    /// `complete_rates`, for any configuration, arrivals and read time.
    #[test]
    fn forecast_matches_the_reference_estimator(
        cfg in ring_config_strategy(),
        arrivals in arrivals_strategy(),
        settle in -1.0f64..3.0,
    ) {
        let mut h = ArrivalHistory::new(&cfg);
        record_all(&mut h, &arrivals);
        let now = arrivals.last().copied().unwrap_or(0.0) + settle;
        let mut rates = Vec::new();
        h.complete_rates(now, &mut rates);
        let reference = ReferenceForecaster { cfg }.forecast_rates(&rates, now);
        prop_assert_eq!(
            forecast_bits(&RateForecaster::new(cfg).forecast(&h, now)),
            forecast_bits(&reference)
        );
    }

    /// On synthetic on/off series the explicit-series entry point equals
    /// the reference, burst-phase branch included.
    #[test]
    fn on_off_series_match_the_reference_estimator(
        cfg in ring_config_strategy(),
        series in on_off_series_strategy(),
        into_bucket in 0.0f64..1.0,
    ) {
        let now = (series.len() as f64 + into_bucket) * cfg.bucket_s;
        let reference = ReferenceForecaster { cfg }.forecast_rates(&series, now);
        prop_assert_eq!(
            forecast_bits(&RateForecaster::new(cfg).forecast_rates(&series, now)),
            forecast_bits(&reference)
        );
    }
}

/// FNV-1a, 64-bit: a stable fingerprint of recorder bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The predictive duel's recorded bytes, pinned. Forecast rows,
/// forecast-driven migrations and scale events all land in the store, so
/// a forecast that differs from a fresh estimate at any tick — a stale
/// memo — changes the length or the hash.
#[test]
fn predictive_duel_recording_is_pinned() {
    assert_eq!(
        fnv1a64(b"a"),
        0xaf63_dc4c_8601_ec8c,
        "FNV-1a 64 test vector"
    );
    // (workload, bytes, FNV-1a 64, forecast rows, migrations, scale events)
    for (name, len, hash, rows, migrations, scale_events) in [
        ("bursty", 82_910, 0x30e1_7018_38f0_d2c2, 784, 14, 19),
        ("step", 83_650, 0xb010_5c84_b7db_d2a7, 704, 6, 8),
    ] {
        let streams = match name {
            "step" => step_workload(16, 70, 2019, SystemKind::CatdetA, duel_profile(), 4.0),
            _ => duel_bursty(),
        };
        let recorder = SharedRecorder::new(512, usize::MAX, 8);
        let report = serve_fleet_with_recorder(streams, &duel_config(true, 1), &recorder);
        let bytes = recorder.with_store(|s| catdet_recorder::encode(s));
        assert_eq!(bytes.len(), len, "{name}: recorded bytes");
        assert_eq!(fnv1a64(&bytes), hash, "{name}: recorded bytes hash");
        let forecast_rows = recorder.scan(&Query::all().kind(EventKind::Forecast)).len();
        assert_eq!(forecast_rows, rows, "{name}: forecast rows");
        assert_eq!(report.migrations.len(), migrations, "{name}: migrations");
        assert_eq!(
            report.scale_timeline().len(),
            scale_events,
            "{name}: scale events"
        );
    }
}
