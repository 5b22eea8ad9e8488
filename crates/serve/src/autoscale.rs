//! Feedback-driven autoscaling: worker-count control from serving signals.
//!
//! CaTDet spends detector compute only where the tracker says it pays off;
//! this module applies the same idea at fleet level — workers are added
//! only where drop-rate and tail latency say they are needed, and returned
//! when the fleet is idle. The scheduler samples a [`ControlSample`] every
//! [`control interval`](crate::config::AutoscaleConfig::control_interval_s)
//! of *virtual* time and asks a [`ScalePolicy`] for the desired worker
//! count. Every input to the policy is derived from virtual-time counters,
//! so a controller run is bit-reproducible at any host parallelism — the
//! exact [`ScaleEvent`] timeline can be locked in by a golden test.

use crate::config::AutoscaleConfig;
use crate::forecast::ForecastConfig;

/// What the scheduler measured over one control window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSample {
    /// Virtual time of the control tick.
    pub now_s: f64,
    /// Workers currently eligible for scheduling.
    pub active_workers: usize,
    /// Of those, workers busy with a batch right now.
    pub busy_workers: usize,
    /// Frames queued across all streams right now.
    pub backlog: usize,
    /// Frames that arrived during the window.
    pub window_arrived: usize,
    /// Frames shed during the window (queue drops + admission rejects).
    pub window_shed: usize,
    /// Nearest-rank p99 of latencies completed during the window, if any
    /// frame completed.
    pub window_p99_s: Option<f64>,
    /// Summed per-stream forecast arrival rate (frames/s) over the
    /// forecast horizon; `0.0` when forecasting is off.
    pub forecast_rate_fps: f64,
    /// Aggregate forecaster confidence in `[0, 1]` (mean over live
    /// streams); `0.0` when forecasting is off or nothing has history.
    pub forecast_confidence: f64,
}

impl ControlSample {
    /// Fraction of window arrivals that were shed.
    pub fn window_shed_rate(&self) -> f64 {
        if self.window_arrived == 0 {
            0.0
        } else {
            self.window_shed as f64 / self.window_arrived as f64
        }
    }
}

/// Why a scale decision was taken (recorded on every [`ScaleEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleReason {
    /// The window shed rate exceeded the scale-up threshold.
    DropRate,
    /// The window p99 latency exceeded the scale-up threshold.
    TailLatency,
    /// The fleet was calm and under-utilised; a worker was returned.
    Idle,
    /// A load-tracking policy re-targeted the fleet to the arrival rate.
    LoadTracking,
    /// The forecaster predicted a load change and the fleet was re-sized
    /// ahead of it.
    Predictive,
}

impl ScaleReason {
    /// Short label used in timeline printouts.
    pub fn label(&self) -> &'static str {
        match self {
            ScaleReason::DropRate => "drop-rate",
            ScaleReason::TailLatency => "tail-latency",
            ScaleReason::Idle => "idle",
            ScaleReason::LoadTracking => "load-tracking",
            ScaleReason::Predictive => "predictive",
        }
    }

    /// Stable integer code used in flight-recorder scale events.
    pub fn code(&self) -> u64 {
        match self {
            ScaleReason::DropRate => 0,
            ScaleReason::TailLatency => 1,
            ScaleReason::Idle => 2,
            ScaleReason::LoadTracking => 3,
            ScaleReason::Predictive => 4,
        }
    }

    /// Parses a flight-recorder reason code.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(ScaleReason::DropRate),
            1 => Some(ScaleReason::TailLatency),
            2 => Some(ScaleReason::Idle),
            3 => Some(ScaleReason::LoadTracking),
            4 => Some(ScaleReason::Predictive),
            _ => None,
        }
    }
}

/// One worker-count change, stamped in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Virtual time of the control tick that decided the change.
    pub t_s: f64,
    /// Active workers before.
    pub from_workers: usize,
    /// Active workers after.
    pub to_workers: usize,
    /// What triggered it.
    pub reason: ScaleReason,
}

/// A worker-count controller consulted at every control tick.
///
/// Implementations must be deterministic functions of the sample history:
/// no wall-clock, no ambient randomness. Returning `None` keeps the
/// current worker count.
pub trait ScalePolicy: Send {
    /// Stable policy name (reports, CLI).
    fn name(&self) -> &'static str;

    /// Desired worker count and the reason, or `None` to hold steady. The
    /// scheduler clamps the result to the configured `[min, max]` range.
    fn desired_workers(&mut self, sample: &ControlSample) -> Option<(usize, ScaleReason)>;
}

/// Never changes the worker count (the no-autoscaling baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedScale;

impl ScalePolicy for FixedScale {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn desired_workers(&mut self, _sample: &ControlSample) -> Option<(usize, ScaleReason)> {
        None
    }
}

/// Hysteresis controller on window shed-rate and window p99.
///
/// Scales up by `step` when the shed rate or the window p99 cross their
/// *up* thresholds; scales down by `step` only when the window is
/// completely calm (nothing shed, no backlog, p99 below the *down*
/// threshold, at least one worker idle). The gap between the up and down
/// thresholds plus a cooldown of `cooldown_ticks` control ticks after any
/// change is what prevents oscillation on a steady workload.
#[derive(Debug, Clone, Copy)]
pub struct HysteresisScale {
    min: usize,
    max: usize,
    step: usize,
    up_shed_rate: f64,
    up_p99_s: f64,
    down_p99_s: f64,
    cooldown_ticks: usize,
    ticks_since_change: usize,
}

impl HysteresisScale {
    /// Builds the controller from its configuration.
    pub fn from_config(cfg: &AutoscaleConfig) -> Self {
        Self {
            min: cfg.min_workers,
            max: cfg.max_workers,
            step: cfg.scale_step,
            up_shed_rate: cfg.up_shed_rate,
            up_p99_s: cfg.up_p99_s,
            down_p99_s: cfg.down_p99_s,
            cooldown_ticks: cfg.cooldown_ticks,
            // The first tick is allowed to act immediately.
            ticks_since_change: cfg.cooldown_ticks,
        }
    }
}

impl ScalePolicy for HysteresisScale {
    fn name(&self) -> &'static str {
        "hysteresis"
    }

    fn desired_workers(&mut self, s: &ControlSample) -> Option<(usize, ScaleReason)> {
        if self.ticks_since_change < self.cooldown_ticks {
            self.ticks_since_change += 1;
            return None;
        }
        let shedding = s.window_shed_rate() > self.up_shed_rate;
        let slow = s.window_p99_s.is_some_and(|p| p > self.up_p99_s);
        if (shedding || slow) && s.active_workers < self.max {
            self.ticks_since_change = 0;
            let reason = if shedding {
                ScaleReason::DropRate
            } else {
                ScaleReason::TailLatency
            };
            return Some(((s.active_workers + self.step).min(self.max), reason));
        }
        let calm = s.window_shed == 0
            && s.backlog == 0
            && s.window_p99_s.is_none_or(|p| p < self.down_p99_s)
            && s.busy_workers < s.active_workers;
        if calm && s.active_workers > self.min {
            self.ticks_since_change = 0;
            let target = s.active_workers.saturating_sub(self.step).max(self.min);
            return Some((target, ScaleReason::Idle));
        }
        self.ticks_since_change += 1;
        None
    }
}

/// Step-load-aware proportional controller.
///
/// Estimates the required fleet directly from the window arrival rate and
/// a configured per-frame service-time estimate:
/// `workers = ceil(arrival_rate × service_s_per_frame)`. Reacts to a load
/// step within one control interval instead of climbing one hysteresis
/// step at a time, at the cost of trusting the service-time estimate.
#[derive(Debug, Clone, Copy)]
pub struct ProportionalScale {
    min: usize,
    max: usize,
    control_interval_s: f64,
    service_s_per_frame: f64,
}

impl ProportionalScale {
    /// Builds the controller from its configuration.
    pub fn from_config(cfg: &AutoscaleConfig) -> Self {
        Self {
            min: cfg.min_workers,
            max: cfg.max_workers,
            control_interval_s: cfg.control_interval_s,
            service_s_per_frame: cfg.service_s_per_frame,
        }
    }
}

impl ScalePolicy for ProportionalScale {
    fn name(&self) -> &'static str {
        "proportional"
    }

    fn desired_workers(&mut self, s: &ControlSample) -> Option<(usize, ScaleReason)> {
        let rate = s.window_arrived as f64 / self.control_interval_s;
        let target = ((rate * self.service_s_per_frame).ceil() as usize).clamp(self.min, self.max);
        if target != s.active_workers {
            Some((target, ScaleReason::LoadTracking))
        } else {
            None
        }
    }
}

/// Forecast-driven proactive controller.
///
/// When the forecaster is confident, the fleet is re-targeted straight
/// to `ceil(forecast_rate × service_s_per_frame)` — one control tick of
/// lead instead of hysteresis's damage-triggered one-step-per-cooldown
/// climb. Scale-*down* to the forecast target additionally requires a
/// completely calm window (nothing shed, no backlog, an idle worker), so
/// a mistaken low forecast cannot shed load. Reactive shed/p99 breaches
/// still scale up even when the forecast disagrees — the forecast adds
/// lead time, it never suppresses the damage signal. Below the
/// confidence floor the controller degrades to exact hysteresis
/// semantics (warmup behaves like the reactive baseline).
#[derive(Debug, Clone, Copy)]
pub struct PredictiveScale {
    min: usize,
    max: usize,
    step: usize,
    up_shed_rate: f64,
    up_p99_s: f64,
    down_p99_s: f64,
    cooldown_ticks: usize,
    ticks_since_change: usize,
    service_s_per_frame: f64,
    min_confidence: f64,
}

impl PredictiveScale {
    /// Builds the controller from the autoscale and forecaster
    /// configurations.
    pub fn from_config(cfg: &AutoscaleConfig, forecast: &ForecastConfig) -> Self {
        Self {
            min: cfg.min_workers,
            max: cfg.max_workers,
            step: cfg.scale_step,
            up_shed_rate: cfg.up_shed_rate,
            up_p99_s: cfg.up_p99_s,
            down_p99_s: cfg.down_p99_s,
            cooldown_ticks: cfg.cooldown_ticks,
            // The first tick is allowed to act immediately.
            ticks_since_change: cfg.cooldown_ticks,
            service_s_per_frame: cfg.service_s_per_frame,
            min_confidence: forecast.min_confidence,
        }
    }

    /// The hysteresis decision body, shared by the low-confidence
    /// fallback path.
    fn reactive(&mut self, s: &ControlSample) -> Option<(usize, ScaleReason)> {
        let shedding = s.window_shed_rate() > self.up_shed_rate;
        let slow = s.window_p99_s.is_some_and(|p| p > self.up_p99_s);
        if (shedding || slow) && s.active_workers < self.max {
            self.ticks_since_change = 0;
            let reason = if shedding {
                ScaleReason::DropRate
            } else {
                ScaleReason::TailLatency
            };
            return Some(((s.active_workers + self.step).min(self.max), reason));
        }
        let calm = s.window_shed == 0
            && s.backlog == 0
            && s.window_p99_s.is_none_or(|p| p < self.down_p99_s)
            && s.busy_workers < s.active_workers;
        if calm && s.active_workers > self.min {
            self.ticks_since_change = 0;
            let target = s.active_workers.saturating_sub(self.step).max(self.min);
            return Some((target, ScaleReason::Idle));
        }
        self.ticks_since_change += 1;
        None
    }
}

impl ScalePolicy for PredictiveScale {
    fn name(&self) -> &'static str {
        "predictive"
    }

    fn desired_workers(&mut self, s: &ControlSample) -> Option<(usize, ScaleReason)> {
        if self.ticks_since_change < self.cooldown_ticks {
            self.ticks_since_change += 1;
            return None;
        }
        if s.forecast_confidence < self.min_confidence {
            return self.reactive(s);
        }
        let needed = ((s.forecast_rate_fps * self.service_s_per_frame).ceil() as usize)
            .clamp(self.min, self.max);
        if needed > s.active_workers {
            self.ticks_since_change = 0;
            return Some((needed, ScaleReason::Predictive));
        }
        let calm = s.window_shed == 0 && s.backlog == 0 && s.busy_workers < s.active_workers;
        if needed < s.active_workers && calm {
            self.ticks_since_change = 0;
            return Some((needed, ScaleReason::Predictive));
        }
        // At (or pinned above) the forecast target: hold, but reactive
        // shed/p99 breaches still scale up — a wrong forecast must not
        // mask damage. The hysteresis idle rule is deliberately *not*
        // consulted here, so a calm instant cannot drag the fleet below
        // what the forecast says is about to arrive.
        let shedding = s.window_shed_rate() > self.up_shed_rate;
        let slow = s.window_p99_s.is_some_and(|p| p > self.up_p99_s);
        if (shedding || slow) && s.active_workers < self.max {
            self.ticks_since_change = 0;
            let reason = if shedding {
                ScaleReason::DropRate
            } else {
                ScaleReason::TailLatency
            };
            return Some(((s.active_workers + self.step).min(self.max), reason));
        }
        self.ticks_since_change += 1;
        None
    }
}

/// Nearest-rank p99 over one control window's completed latencies
/// (`None` for an empty window): the rank
/// [`LatencyStats::from_samples`](crate::LatencyStats::from_samples)
/// reads, selected in place. Reorders `latencies`.
pub(crate) fn window_p99(latencies: &mut [f64]) -> Option<f64> {
    if latencies.is_empty() {
        return None;
    }
    let rank = (0.99 * latencies.len() as f64).ceil() as usize;
    let (_, p99, _) =
        latencies.select_nth_unstable_by(rank.clamp(1, latencies.len()) - 1, f64::total_cmp);
    Some(*p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm_sample(active: usize) -> ControlSample {
        ControlSample {
            now_s: 1.0,
            active_workers: active,
            busy_workers: 0,
            backlog: 0,
            window_arrived: 10,
            window_shed: 0,
            window_p99_s: Some(0.01),
            forecast_rate_fps: 0.0,
            forecast_confidence: 0.0,
        }
    }

    #[test]
    fn fixed_never_moves() {
        let mut p = FixedScale;
        let mut s = calm_sample(4);
        s.window_shed = 10;
        assert_eq!(p.desired_workers(&s), None);
    }

    #[test]
    fn hysteresis_scales_up_on_shedding_and_down_when_calm() {
        let cfg = AutoscaleConfig::hysteresis(1, 8).with_cooldown_ticks(0);
        let mut p = HysteresisScale::from_config(&cfg);
        let mut overload = calm_sample(2);
        overload.window_shed = 5;
        assert_eq!(
            p.desired_workers(&overload),
            Some((3, ScaleReason::DropRate))
        );
        assert_eq!(
            p.desired_workers(&calm_sample(3)),
            Some((2, ScaleReason::Idle))
        );
    }

    #[test]
    fn hysteresis_holds_inside_the_band() {
        let cfg = AutoscaleConfig::hysteresis(1, 8).with_cooldown_ticks(0);
        let mut p = HysteresisScale::from_config(&cfg);
        // Busy but neither shedding nor calm (a worker is occupied).
        let mut s = calm_sample(2);
        s.busy_workers = 2;
        assert_eq!(p.desired_workers(&s), None);
    }

    #[test]
    fn hysteresis_cooldown_delays_consecutive_changes() {
        let cfg = AutoscaleConfig::hysteresis(1, 8).with_cooldown_ticks(2);
        let mut p = HysteresisScale::from_config(&cfg);
        let mut overload = calm_sample(1);
        overload.window_shed = 10;
        assert!(p.desired_workers(&overload).is_some());
        let mut next = overload;
        next.active_workers = 2;
        assert_eq!(p.desired_workers(&next), None, "cooldown tick 1");
        assert_eq!(p.desired_workers(&next), None, "cooldown tick 2");
        assert!(p.desired_workers(&next).is_some(), "cooldown expired");
    }

    #[test]
    fn proportional_tracks_arrival_rate() {
        let cfg = AutoscaleConfig::proportional(1, 16, 0.1);
        let mut p = ProportionalScale::from_config(&cfg);
        let mut s = calm_sample(1);
        // 40 arrivals per 0.25 s window = 160 fps; at 0.1 s/frame that
        // needs 16 workers.
        s.window_arrived = 40;
        assert_eq!(p.desired_workers(&s), Some((16, ScaleReason::LoadTracking)));
        // Quiet window falls back to the floor…
        s.active_workers = 16;
        s.window_arrived = 0;
        assert_eq!(p.desired_workers(&s), Some((1, ScaleReason::LoadTracking)));
        // …and holds there without re-deciding.
        s.active_workers = 1;
        assert_eq!(p.desired_workers(&s), None);
    }

    fn predictive(min: usize, max: usize) -> PredictiveScale {
        let cfg = AutoscaleConfig::predictive(min, max).with_cooldown_ticks(0);
        // service_s_per_frame defaults to 0.05: 20 fps per worker.
        PredictiveScale::from_config(&cfg, &ForecastConfig::new())
    }

    #[test]
    fn predictive_jumps_to_the_forecast_target_in_one_tick() {
        let mut p = predictive(1, 16);
        let mut s = calm_sample(2);
        s.busy_workers = 2; // not calm: only the forecast can move us
        s.forecast_rate_fps = 200.0; // needs ceil(200 × 0.05) = 10
        s.forecast_confidence = 0.9;
        assert_eq!(
            p.desired_workers(&s),
            Some((10, ScaleReason::Predictive)),
            "confident forecast re-targets directly, no step climb"
        );
    }

    #[test]
    fn predictive_scales_down_only_when_calm() {
        let mut p = predictive(1, 16);
        let mut s = calm_sample(8);
        s.forecast_rate_fps = 40.0; // needs 2
        s.forecast_confidence = 0.9;
        assert_eq!(p.desired_workers(&s), Some((2, ScaleReason::Predictive)));
        // Same forecast with backlog still queued: hold.
        let mut busy = s;
        busy.backlog = 5;
        let mut p = predictive(1, 16);
        assert_eq!(p.desired_workers(&busy), None);
    }

    #[test]
    fn predictive_falls_back_to_hysteresis_at_low_confidence() {
        let mut p = predictive(1, 8);
        let mut s = calm_sample(2);
        s.window_shed = 5;
        s.forecast_rate_fps = 40.0; // would need 2 — but not trusted
        s.forecast_confidence = 0.1;
        assert_eq!(
            p.desired_workers(&s),
            Some((3, ScaleReason::DropRate)),
            "low confidence degrades to the reactive step climb"
        );
    }

    #[test]
    fn predictive_never_lets_a_wrong_forecast_mask_damage() {
        let mut p = predictive(1, 8);
        let mut s = calm_sample(2);
        s.busy_workers = 2;
        s.window_shed = 5; // shedding now…
        s.forecast_rate_fps = 20.0; // …while the forecast claims 1 worker
        s.forecast_confidence = 0.9;
        assert_eq!(p.desired_workers(&s), Some((3, ScaleReason::DropRate)));
    }

    #[test]
    fn predictive_honours_the_cooldown() {
        let cfg = AutoscaleConfig::predictive(1, 16).with_cooldown_ticks(2);
        let mut p = PredictiveScale::from_config(&cfg, &ForecastConfig::new());
        let mut s = calm_sample(1);
        s.busy_workers = 1;
        s.forecast_rate_fps = 100.0;
        s.forecast_confidence = 0.9;
        assert!(p.desired_workers(&s).is_some());
        s.active_workers = 5;
        s.forecast_rate_fps = 200.0;
        assert_eq!(p.desired_workers(&s), None, "cooldown tick 1");
        assert_eq!(p.desired_workers(&s), None, "cooldown tick 2");
        assert!(p.desired_workers(&s).is_some(), "cooldown expired");
    }

    #[test]
    fn scale_reason_codes_round_trip() {
        for r in [
            ScaleReason::DropRate,
            ScaleReason::TailLatency,
            ScaleReason::Idle,
            ScaleReason::LoadTracking,
            ScaleReason::Predictive,
        ] {
            assert_eq!(ScaleReason::from_code(r.code()), Some(r));
        }
        assert_eq!(ScaleReason::from_code(99), None);
    }

    #[test]
    fn window_p99_matches_latency_stats() {
        assert_eq!(window_p99(&mut []), None);
        let mut samples: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        assert_eq!(window_p99(&mut samples), Some(198.0));
        // Unsorted windows with ties, at sizes around the rank's rounding.
        for n in 1..=150usize {
            let mut window: Vec<f64> = (0..n).map(|i| ((i * 37) % 23) as f64 * 0.5).collect();
            let want = crate::LatencyStats::from_samples(&window).map(|l| l.p99_s);
            assert_eq!(window_p99(&mut window), want, "window of {n}");
        }
    }
}
