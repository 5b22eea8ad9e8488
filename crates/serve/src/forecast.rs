//! Arrival-rate forecasting: the predictive half of the control plane.
//!
//! CaTDet's core move is predict-then-refine — use cheap temporal history
//! (the tracker) to decide where expensive compute will pay off. This
//! module applies the same idea to the *workload*: each stream keeps a
//! cheap [`ArrivalHistory`] (O(1) per frame, a bucketed ring of arrival
//! counts on the virtual clock), and a [`RateForecaster`] turns that
//! history into a rate forecast that both control-plane consumers read —
//! the [`PredictiveScale`](crate::autoscale::PredictiveScale) autoscaler
//! (scale up *before* the queue shows damage) and the predicted-load
//! rebalancer (move streams on where load is going, not where it was).
//!
//! Two estimators run over the same history:
//!
//! * **Holt's linear smoothing** — an EWMA level plus an EWMA trend over
//!   per-bucket arrival rates, extrapolated over the configured horizon.
//!   This tracks ramps and steps within one bucket of lag.
//! * **A burst-phase detector** — the bursty/step generators produce an
//!   on/off regime; when the observed rates split into two clusters, the
//!   detector measures completed run lengths per phase and predicts the
//!   next phase *edge*. If the edge lands inside the horizon, the
//!   forecast is the other phase's rate — capacity arrives before the
//!   burst does.
//!
//! Every output is a pure function of (config, history, now): no
//! wall-clock, no ambient state. Histories live on the stream runtime and
//! migrate with it, so a forecast is bit-identical before and after an
//! `extract_stream`/`admit_stream` move and at every `--threads` setting
//! (property-tested). Only *complete* buckets feed the forecast — a
//! bucket still accumulating arrivals is never read — which makes the
//! forecast invariant under how arrivals interleave with control ticks
//! inside the current bucket.

use crate::config::{ensure, ConfigError, SIZING_LIMIT};

/// Forecaster configuration: history shape, smoothing factors, horizon.
///
/// All times are virtual seconds. The defaults pair one bucket with the
/// default autoscale control interval (0.25 s) and keep an 8-second
/// history window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastConfig {
    /// Width of one arrival-count bucket on the virtual clock.
    pub bucket_s: f64,
    /// Ring capacity: how many completed buckets of history each stream
    /// retains (and the forecaster may read).
    pub history_buckets: usize,
    /// EWMA smoothing factor for the rate level, in `(0, 1]`.
    pub alpha: f64,
    /// EWMA smoothing factor for the rate trend, in `(0, 1]`.
    pub beta: f64,
    /// How far ahead the forecast looks: the trend is extrapolated (and
    /// phase edges are considered imminent) over this many seconds.
    pub horizon_s: f64,
    /// Confidence floor in `[0, 1]`: consumers treat forecasts below it
    /// as unreliable (the predictive autoscaler falls back to hysteresis
    /// semantics).
    pub min_confidence: f64,
}

impl ForecastConfig {
    /// Defaults matched to the autoscaler: 0.25 s buckets, 32-bucket
    /// (8 s) history, a half-second horizon.
    pub fn new() -> Self {
        Self {
            bucket_s: 0.25,
            history_buckets: 32,
            alpha: 0.4,
            beta: 0.2,
            horizon_s: 0.5,
            min_confidence: 0.35,
        }
    }

    /// Returns a copy with a different bucket width.
    pub fn with_bucket_s(mut self, bucket_s: f64) -> Self {
        self.bucket_s = bucket_s;
        self
    }

    /// Returns a copy with a different history capacity.
    pub fn with_history_buckets(mut self, history_buckets: usize) -> Self {
        self.history_buckets = history_buckets;
        self
    }

    /// Returns a copy with different smoothing factors.
    pub fn with_smoothing(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Returns a copy with a different forecast horizon.
    pub fn with_horizon_s(mut self, horizon_s: f64) -> Self {
        self.horizon_s = horizon_s;
        self
    }

    /// Returns a copy with a different confidence floor.
    pub fn with_min_confidence(mut self, min_confidence: f64) -> Self {
        self.min_confidence = min_confidence;
        self
    }

    /// Checks the forecaster's rules for [`ServeConfig::validate`](crate::ServeConfig::validate).
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        ensure!(
            self.bucket_s > 0.0 && self.bucket_s.is_finite(),
            "forecast.bucket_s",
            "forecast bucket must be finite and positive"
        );
        ensure!(
            self.history_buckets >= 2,
            "forecast.history_buckets",
            "forecast history needs at least two buckets"
        );
        ensure!(
            self.history_buckets <= SIZING_LIMIT,
            "forecast.history_buckets",
            "forecast history holds at most {SIZING_LIMIT} buckets"
        );
        for (field, factor) in [("forecast.alpha", self.alpha), ("forecast.beta", self.beta)] {
            ensure!(
                factor > 0.0 && factor <= 1.0,
                field,
                "forecast smoothing factors must be in (0, 1]"
            );
        }
        ensure!(
            self.horizon_s >= 0.0 && self.horizon_s.is_finite(),
            "forecast.horizon_s",
            "forecast horizon must be finite and non-negative"
        );
        ensure!(
            (0.0..=1.0).contains(&self.min_confidence),
            "forecast.min_confidence",
            "forecast confidence floor must be in [0, 1]"
        );
        Ok(())
    }
}

impl Default for ForecastConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-stream arrival history: a ring of bucketed arrival counts on the
/// virtual clock.
///
/// Recording is O(1) per frame (bucket index arithmetic plus at most a
/// ring advance). The history is owned by the stream runtime and moves
/// with the stream on migration, so the forecaster sees one unbroken
/// history wherever the stream is served.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalHistory {
    bucket_s: f64,
    counts: Vec<u32>,
    /// Ring position of the newest stored bucket.
    head: usize,
    /// Absolute bucket index of the newest stored bucket.
    newest: i64,
    /// Stored buckets, `<= counts.len()`; `0` means nothing recorded yet.
    filled: usize,
}

impl ArrivalHistory {
    /// An empty history shaped by `cfg`.
    pub fn new(cfg: &ForecastConfig) -> Self {
        Self {
            bucket_s: cfg.bucket_s,
            counts: vec![0; cfg.history_buckets],
            head: 0,
            newest: 0,
            filled: 0,
        }
    }

    /// The bucket width this history was built with.
    pub fn bucket_s(&self) -> f64 {
        self.bucket_s
    }

    /// Whether any arrival has been recorded.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    fn bucket_index(&self, t_s: f64) -> i64 {
        (t_s / self.bucket_s).floor() as i64
    }

    /// Records one arrival at virtual time `t_s`. Arrivals are expected
    /// in non-decreasing time order (the scheduler guarantees it);
    /// an out-of-order arrival still lands in its own bucket if that
    /// bucket is retained, and is dropped from history otherwise.
    pub fn record(&mut self, t_s: f64) {
        let b = self.bucket_index(t_s);
        if self.filled == 0 {
            self.head = 0;
            self.counts[0] = 1;
            self.newest = b;
            self.filled = 1;
            return;
        }
        let len = self.counts.len();
        if b > self.newest {
            let advance = (b - self.newest) as usize;
            if advance >= len {
                self.counts.iter_mut().for_each(|c| *c = 0);
                self.head = 0;
                self.filled = len;
            } else {
                for _ in 0..advance {
                    self.head = (self.head + 1) % len;
                    self.counts[self.head] = 0;
                    self.filled = (self.filled + 1).min(len);
                }
            }
            self.newest = b;
            self.counts[self.head] += 1;
        } else {
            let offset = (self.newest - b) as usize;
            if offset < self.filled {
                let idx = (self.head + len - offset % len) % len;
                self.counts[idx] += 1;
            }
        }
    }

    /// Appends the per-bucket arrival rates (frames/s) of every
    /// *complete* bucket — strictly before the bucket containing
    /// `now_s` — oldest first, into `out`. Buckets newer than the last
    /// recorded arrival count as zero-rate (nothing arrived); buckets
    /// older than the retained window are unavailable and skipped. The
    /// result is a pure function of the recorded arrival times and
    /// `now_s`, independent of how arrivals were interleaved with reads.
    pub fn complete_rates(&self, now_s: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.rates(now_s));
    }

    /// The rates [`complete_rates`](Self::complete_rates) collects, read
    /// from the ring in place.
    fn rates(&self, now_s: f64) -> CompleteRates<'_> {
        let mut rates = CompleteRates {
            counts: &self.counts,
            bucket_s: self.bucket_s,
            idx: 0,
            stored: 0,
            zeros: 0,
        };
        if self.filled == 0 {
            return rates;
        }
        let len = self.counts.len();
        let cur = self.bucket_index(now_s);
        let oldest = self.newest - (self.filled as i64 - 1);
        let lo = oldest.max(cur - len as i64);
        let hi = cur - 1;
        // Buckets `lo..=hi` split into a stored prefix (up to the newest
        // recorded bucket) and a known-zero suffix after it.
        if lo <= self.newest {
            let offset = (self.newest - lo) as usize;
            rates.idx = (self.head + len - offset) % len;
            rates.stored = (hi.min(self.newest) - lo + 1).max(0) as usize;
        }
        rates.zeros = (hi - lo.max(self.newest + 1) + 1).max(0) as usize;
        rates
    }
}

/// Iterator over a history's complete-bucket rates, oldest first: walks
/// the stored buckets around the ring, then yields the zero-rate buckets
/// after the newest arrival. Allocates nothing.
#[derive(Clone)]
struct CompleteRates<'a> {
    counts: &'a [u32],
    bucket_s: f64,
    /// Ring position of the next stored bucket.
    idx: usize,
    /// Stored buckets left to yield.
    stored: usize,
    /// Zero-rate buckets left to yield after the stored ones.
    zeros: usize,
}

impl Iterator for CompleteRates<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let count = if self.stored > 0 {
            self.stored -= 1;
            let count = self.counts[self.idx];
            self.idx = if self.idx + 1 == self.counts.len() {
                0
            } else {
                self.idx + 1
            };
            count
        } else if self.zeros > 0 {
            self.zeros -= 1;
            0
        } else {
            return None;
        };
        Some(f64::from(count) / self.bucket_s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.stored + self.zeros;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CompleteRates<'_> {}

/// Which arrival regime the forecaster believes the stream is in (and
/// will be in over the horizon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstPhase {
    /// No bimodal structure detected: rates look unimodal (steady, ramp,
    /// or not enough history to tell).
    Steady,
    /// Bimodal regime, low-rate phase expected over the horizon.
    Quiet,
    /// Bimodal regime, high-rate phase expected over the horizon.
    Burst,
}

impl BurstPhase {
    /// Short label used in timeline printouts.
    pub fn label(&self) -> &'static str {
        match self {
            BurstPhase::Steady => "steady",
            BurstPhase::Quiet => "quiet",
            BurstPhase::Burst => "burst",
        }
    }

    /// Stable integer code used in flight-recorder forecast events.
    pub fn code(&self) -> u64 {
        match self {
            BurstPhase::Steady => 0,
            BurstPhase::Quiet => 1,
            BurstPhase::Burst => 2,
        }
    }

    /// Parses a flight-recorder phase code.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(BurstPhase::Steady),
            1 => Some(BurstPhase::Quiet),
            2 => Some(BurstPhase::Burst),
            _ => None,
        }
    }
}

/// One forecast: the expected arrival rate over the horizon, with the
/// estimator internals exposed for telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forecast {
    /// Expected arrival rate (frames/s) over the horizon. Always within
    /// the observed per-bucket rate range (never an extrapolation beyond
    /// what the stream has actually done).
    pub rate_fps: f64,
    /// Smoothed rate level (frames/s), clamped to the observed range.
    pub level_fps: f64,
    /// Smoothed rate trend (frames/s per second).
    pub trend_fps_per_s: f64,
    /// Forecaster confidence in `[0, 1]`: history coverage scaled by how
    /// well recent rates fit the model. Low during warmup.
    pub confidence: f64,
    /// The regime the forecast assumes over the horizon.
    pub phase: BurstPhase,
}

impl Forecast {
    /// The no-information forecast: zero rate, zero confidence.
    pub fn none() -> Self {
        Self {
            rate_fps: 0.0,
            level_fps: 0.0,
            trend_fps_per_s: 0.0,
            confidence: 0.0,
            phase: BurstPhase::Steady,
        }
    }
}

/// Turns an [`ArrivalHistory`] into a [`Forecast`] — a pure function of
/// (config, history, now).
#[derive(Debug, Clone, Copy)]
pub struct RateForecaster {
    cfg: ForecastConfig,
}

impl RateForecaster {
    /// Builds a forecaster from its configuration.
    pub fn new(cfg: ForecastConfig) -> Self {
        Self { cfg }
    }

    /// The configuration this forecaster runs.
    pub fn config(&self) -> &ForecastConfig {
        &self.cfg
    }

    /// Forecasts the arrival rate over the configured horizon from the
    /// complete buckets of `history` at virtual time `now_s`. Reads the
    /// ring in place and allocates nothing.
    pub fn forecast(&self, history: &ArrivalHistory, now_s: f64) -> Forecast {
        self.estimate(history.rates(now_s), now_s)
    }

    /// The estimator over an explicit complete-bucket rate series (oldest
    /// first), so tests can drive synthetic series.
    pub fn forecast_rates(&self, rates: &[f64], now_s: f64) -> Forecast {
        self.estimate(rates.iter().copied(), now_s)
    }

    /// The estimator body: at most two passes over `rates`, each
    /// accumulation in series order.
    fn estimate<I>(&self, rates: I, now_s: f64) -> Forecast
    where
        I: ExactSizeIterator<Item = f64> + Clone,
    {
        let n = rates.len();
        let mut rest = rates.clone();
        let Some(first) = rest.next() else {
            return Forecast::none();
        };
        // The min/max folds start from ±∞, as `Iterator::fold` would.
        let mut min_r = f64::INFINITY.min(first);
        let mut max_r = f64::NEG_INFINITY.max(first);

        // Holt's linear smoothing over the bucket rates.
        let mut level = first;
        let mut trend = 0.0;
        let mut abs_err = 0.0;
        for r in rest {
            min_r = min_r.min(r);
            max_r = max_r.max(r);
            let pred = level + trend;
            abs_err += (r - pred).abs();
            let prev = level;
            level = self.cfg.alpha * r + (1.0 - self.cfg.alpha) * pred;
            trend = self.cfg.beta * (level - prev) + (1.0 - self.cfg.beta) * trend;
        }
        level = level.clamp(min_r, max_r);
        let coverage = n as f64 / self.cfg.history_buckets as f64;
        let mean_abs_err = if n > 1 { abs_err / (n - 1) as f64 } else { 0.0 };

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
        rates: impl ExactSizeIterator<Item = f64>,
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
        // Split the series into runs of the same phase (high >= mid),
        // tallying completed runs and each phase's rates; the arrays are
        // indexed by phase, low 0 and high 1. Sums start from `Sum`'s
        // neutral `-0.0` and add in series order, as `sum()` over the
        // phase's rates would.
        let mut runs = 0usize;
        let (mut cur_phase, mut cur_len) = (false, 0usize);
        let mut completed_len = [0usize; 2];
        let mut completed_runs = [0usize; 2];
        let mut phase_sum = [-0.0f64; 2];
        let mut phase_count = [0usize; 2];
        for r in rates {
            let high = r >= mid;
            if runs > 0 && high == cur_phase {
                cur_len += 1;
            } else {
                if runs > 0 {
                    completed_len[usize::from(cur_phase)] += cur_len;
                    completed_runs[usize::from(cur_phase)] += 1;
                }
                runs += 1;
                (cur_phase, cur_len) = (high, 1);
            }
            phase_sum[usize::from(high)] += r;
            phase_count[usize::from(high)] += 1;
        }
        if runs < 3 {
            // Fewer than two completed runs: a step, not a cycle — let
            // the trend estimator handle it.
            return None;
        }
        let (sum, n) = (
            completed_len[usize::from(cur_phase)],
            completed_runs[usize::from(cur_phase)],
        );
        let expected_run = (n > 0).then(|| sum as f64 / n as f64)?;
        // Phase means, the forecast values for either side of the edge.
        let phase_mean =
            |phase: bool| phase_sum[usize::from(phase)] / phase_count[usize::from(phase)] as f64;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ForecastConfig {
        ForecastConfig::new()
    }

    fn record_all(history: &mut ArrivalHistory, arrivals: &[f64]) {
        for &t in arrivals {
            history.record(t);
        }
    }

    #[test]
    fn empty_history_forecasts_nothing() {
        let history = ArrivalHistory::new(&cfg());
        let f = RateForecaster::new(cfg()).forecast(&history, 10.0);
        assert_eq!(f, Forecast::none());
        assert!(history.is_empty());
    }

    #[test]
    fn bucket_counts_follow_arrival_times() {
        let c = cfg().with_bucket_s(1.0).with_history_buckets(4);
        let mut h = ArrivalHistory::new(&c);
        record_all(&mut h, &[0.1, 0.2, 1.5, 3.9]);
        let mut rates = Vec::new();
        // At t=4.0 buckets 0..=3 are complete: counts 2, 1, 0, 1.
        h.complete_rates(4.0, &mut rates);
        assert_eq!(rates, vec![2.0, 1.0, 0.0, 1.0]);
        // The current bucket is never read: at t=3.5 bucket 3 is still
        // accumulating.
        h.complete_rates(3.5, &mut rates);
        assert_eq!(rates, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn ring_evicts_beyond_capacity() {
        let c = cfg().with_bucket_s(1.0).with_history_buckets(3);
        let mut h = ArrivalHistory::new(&c);
        record_all(&mut h, &[0.5, 1.5, 2.5, 3.5, 4.5]);
        let mut rates = Vec::new();
        h.complete_rates(5.0, &mut rates);
        // Only the last three buckets (2, 3, 4) are retained.
        assert_eq!(rates, vec![1.0, 1.0, 1.0]);
        // A jump far past the window clears it: the idle gap is known
        // zero-rate, and only the new bucket has arrivals.
        h.record(100.25);
        h.complete_rates(101.0, &mut rates);
        assert_eq!(rates, vec![0.0, 0.0, 1.0]);
    }

    /// The per-bucket ring lookup the in-place reader replaced.
    fn indexed_rates(h: &ArrivalHistory, now_s: f64) -> Vec<f64> {
        if h.filled == 0 {
            return Vec::new();
        }
        let len = h.counts.len();
        let cur = h.bucket_index(now_s);
        let oldest = h.newest - (h.filled as i64 - 1);
        (oldest.max(cur - len as i64)..cur)
            .map(|b| {
                let count = if b <= h.newest {
                    h.counts[(h.head + len - (h.newest - b) as usize) % len]
                } else {
                    0
                };
                f64::from(count) / h.bucket_s
            })
            .collect()
    }

    #[test]
    fn in_place_reader_matches_indexed_ring_lookup() {
        // Ring sizes around the wrap, gappy arrivals, and reads before,
        // inside and long after the recorded window.
        for buckets in [2, 3, 5, 8, 13] {
            let c = cfg().with_bucket_s(0.5).with_history_buckets(buckets);
            let mut h = ArrivalHistory::new(&c);
            let mut rates = Vec::new();
            let mut t = 0.3;
            for i in 0..60u32 {
                t += [0.1, 0.45, 0.05, 1.7, 0.2, 3.9][(i % 6) as usize];
                h.record(t);
                for now in [t - 2.0, t, t + 0.5, t + 1.3, t + 4.0, t + 40.0] {
                    h.complete_rates(now, &mut rates);
                    assert_eq!(
                        rates,
                        indexed_rates(&h, now),
                        "{buckets} buckets, now {now}"
                    );
                    assert_eq!(h.rates(now).len(), rates.len());
                }
            }
        }
    }

    #[test]
    fn idle_gap_reads_as_zero_rate() {
        let c = cfg().with_bucket_s(1.0).with_history_buckets(8);
        let mut h = ArrivalHistory::new(&c);
        record_all(&mut h, &[0.5, 0.7]);
        let mut rates = Vec::new();
        // Nothing arrived in buckets 1..=3; they are known-zero.
        h.complete_rates(4.0, &mut rates);
        assert_eq!(rates, vec![2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn steady_rate_converges_to_level() {
        let c = cfg().with_bucket_s(0.25).with_history_buckets(32);
        let mut h = ArrivalHistory::new(&c);
        let arrivals: Vec<f64> = (0..160).map(|i| i as f64 * 0.05).collect(); // 20 fps
        record_all(&mut h, &arrivals);
        let f = RateForecaster::new(c).forecast(&h, 8.0);
        assert!((f.rate_fps - 20.0).abs() < 1e-9, "rate {}", f.rate_fps);
        assert_eq!(f.phase, BurstPhase::Steady);
        assert!(f.confidence > 0.9, "confidence {}", f.confidence);
    }

    #[test]
    fn warmup_confidence_is_low() {
        let c = cfg().with_bucket_s(0.25).with_history_buckets(32);
        let mut h = ArrivalHistory::new(&c);
        record_all(&mut h, &[0.0, 0.05, 0.1, 0.15, 0.2]);
        let f = RateForecaster::new(c).forecast(&h, 0.3);
        assert!(f.confidence < 0.1, "confidence {}", f.confidence);
    }

    #[test]
    fn trend_tracks_a_ramp_within_observed_bounds() {
        let c = cfg().with_bucket_s(1.0).with_history_buckets(32);
        let fc = RateForecaster::new(c);
        // Rates ramping 1, 2, ..., 12: the trend is positive and the
        // forecast leans above the level but never past the observed max.
        let rates: Vec<f64> = (1..=12).map(f64::from).collect();
        let f = fc.forecast_rates(&rates, 12.0);
        assert!(f.trend_fps_per_s > 0.5, "trend {}", f.trend_fps_per_s);
        assert!(f.rate_fps >= f.level_fps);
        assert!(f.rate_fps <= 12.0);
    }

    #[test]
    fn burst_detector_predicts_the_next_edge() {
        let c = cfg().with_bucket_s(1.0).with_history_buckets(32);
        let fc = RateForecaster::new(c);
        // 3-quiet / 2-burst cycle, currently 3 buckets into a quiet run:
        // the edge is due within the next bucket.
        let rates = vec![
            1.0, 1.0, 1.0, 30.0, 30.0, //
            1.0, 1.0, 1.0, 30.0, 30.0, //
            1.0, 1.0, 1.0,
        ];
        let f = fc.forecast_rates(&rates, 13.0);
        assert_eq!(f.phase, BurstPhase::Burst, "edge imminent: {f:?}");
        assert!((f.rate_fps - 30.0).abs() < 1e-9, "rate {}", f.rate_fps);
        // One bucket into the quiet run the edge is far: forecast quiet.
        let early = vec![
            1.0, 1.0, 1.0, 30.0, 30.0, //
            1.0, 1.0, 1.0, 30.0, 30.0, //
            1.0,
        ];
        let f = fc.forecast_rates(&early, 11.0);
        assert_eq!(f.phase, BurstPhase::Quiet, "mid-run: {f:?}");
        assert!((f.rate_fps - 1.0).abs() < 1e-9, "rate {}", f.rate_fps);
    }

    #[test]
    fn forecast_is_a_pure_function_of_history() {
        let c = cfg();
        let mut a = ArrivalHistory::new(&c);
        let mut b = ArrivalHistory::new(&c);
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 * 0.033).collect();
        record_all(&mut a, &arrivals);
        record_all(&mut b, &arrivals);
        assert_eq!(a, b);
        let fc = RateForecaster::new(c);
        assert_eq!(fc.forecast(&a, 3.3), fc.forecast(&b, 3.3));
    }

    #[test]
    fn phase_codes_round_trip() {
        for p in [BurstPhase::Steady, BurstPhase::Quiet, BurstPhase::Burst] {
            assert_eq!(BurstPhase::from_code(p.code()), Some(p));
        }
        assert_eq!(BurstPhase::from_code(9), None);
    }

    #[test]
    #[should_panic(expected = "forecast bucket must be finite and positive")]
    fn zero_bucket_is_rejected() {
        ForecastConfig::new().with_bucket_s(0.0).validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least two buckets")]
    fn one_bucket_history_is_rejected() {
        ForecastConfig::new()
            .with_history_buckets(1)
            .validate()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "confidence floor")]
    fn out_of_range_confidence_is_rejected() {
        ForecastConfig::new()
            .with_min_confidence(1.5)
            .validate()
            .unwrap();
    }
}
