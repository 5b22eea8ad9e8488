//! Tracker configuration.

/// Which motion model drives next-frame prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MotionModelKind {
    /// The paper's exponential decay model (Eq. 1–3) with coefficient η.
    Decay {
        /// Decay coefficient η ∈ [0, 1]; the paper uses 0.7.
        eta: f32,
    },
    /// SORT's constant-velocity Kalman filter (ablation alternative).
    Kalman {
        /// Process-noise scale.
        process_noise: f32,
        /// Measurement-noise scale.
        measurement_noise: f32,
    },
    /// No motion: predict the last observed box (ablation baseline).
    Static,
}

/// How per-class association builds its cost matrix.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AssocBackend {
    /// Grid-gated: candidate (track, detection) pairs come from a spatial
    /// bin index, and dense scenes solve the assignment per connected
    /// component of the positive-IoU graph instead of on one full matrix
    /// (cross-component pairs cost exactly zero and zero-cost pairs never
    /// survive a non-negative gate). Surviving associations — the only
    /// thing that touches track state — are identical to
    /// [`AssocBackend::Naive`] whenever the optimal gated matching is
    /// unique; exact floating-point ties between alternative optima are
    /// the sole divergence point (a property test over random scenes pins
    /// the two backends together). Near-linear instead of cubic in crowd
    /// size. Default.
    #[default]
    GridGated,
    /// The historical dense sweep: a nested-`Vec` cost matrix with every
    /// pairwise IoU evaluated. Kept as the reference semantics and the
    /// perf-snapshot baseline.
    Naive,
}

/// Full tracker configuration.
///
/// [`TrackerConfig::paper`] reproduces the settings of §4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// IoU gate β: association pairs with IoU ≤ β are severed. Paper: 0.
    pub iou_gate: f32,
    /// Motion model; paper: decay with η = 0.7.
    pub motion: MotionModelKind,
    /// Minimum detection score admitted into the tracker (the "T-thresh"
    /// system hyper-parameter of §4.3).
    pub input_score_threshold: f32,
    /// Predictions narrower than this many pixels are suppressed; paper: 10.
    pub min_width: f32,
    /// Predictions with less than this fraction of their area inside the
    /// frame ("largely chopped by the boundary") are suppressed.
    pub min_visible_fraction: f32,
    /// Confidence cap ("every match adds to confidence with an upper
    /// limit").
    pub max_confidence: i32,
    /// Confidence granted to a newly created track.
    pub initial_confidence: i32,
    /// Association cost-matrix backend. Outputs are identical whenever
    /// the optimal gated matching is unique; see
    /// [`AssocBackend::GridGated`] for the exact-tie caveat.
    pub assoc: AssocBackend,
}

impl TrackerConfig {
    /// The paper's configuration: β = 0, η = 0.7, 10 px minimum width,
    /// adaptive confidence.
    pub fn paper() -> Self {
        Self {
            iou_gate: 0.0,
            motion: MotionModelKind::Decay { eta: 0.7 },
            input_score_threshold: 0.5,
            min_width: 10.0,
            min_visible_fraction: 0.4,
            max_confidence: 4,
            initial_confidence: 1,
            assoc: AssocBackend::GridGated,
        }
    }

    /// Paper configuration with a different tracker input threshold.
    pub fn with_input_threshold(mut self, t: f32) -> Self {
        self.input_score_threshold = t;
        self
    }

    /// Paper configuration with a different motion model (for ablations).
    pub fn with_motion(mut self, motion: MotionModelKind) -> Self {
        self.motion = motion;
        self
    }

    /// Switches association to the historical dense sweep (reference
    /// semantics / perf baseline; identical output up to exact
    /// floating-point ties between alternative optimal matchings).
    pub fn with_naive_association(mut self) -> Self {
        self.assoc = AssocBackend::Naive;
        self
    }
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_settings() {
        let c = TrackerConfig::paper();
        assert_eq!(c.iou_gate, 0.0);
        assert_eq!(c.min_width, 10.0);
        match c.motion {
            MotionModelKind::Decay { eta } => assert!((eta - 0.7).abs() < 1e-6),
            _ => panic!("paper config must use the decay model"),
        }
    }

    #[test]
    fn builder_helpers() {
        let c = TrackerConfig::paper()
            .with_input_threshold(0.8)
            .with_motion(MotionModelKind::Static);
        assert_eq!(c.input_score_threshold, 0.8);
        assert_eq!(c.motion, MotionModelKind::Static);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(TrackerConfig::default(), TrackerConfig::paper());
    }
}
