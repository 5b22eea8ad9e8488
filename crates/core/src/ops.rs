//! Arithmetic-operation accounting (paper Tables 2, 3, 6).

/// Operation breakdown of one frame (or the mean over many), in MACs.
///
/// `refinement_from_tracker` / `refinement_from_proposal` answer the
/// attribution question of Table 3: what the refinement pass *would* cost
/// given only the tracker's (resp. the proposal network's) regions.
/// Because the two sources overlap spatially, their sum exceeds the actual
/// `refinement` cost, exactly as the paper notes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpsBreakdown {
    /// Proposal-network cost (full frame; zero for single-model systems —
    /// their whole detector is reported under `refinement`).
    pub proposal: f64,
    /// Refinement-network cost over the union of proposed regions.
    pub refinement: f64,
    /// Hypothetical refinement cost for tracker regions alone.
    pub refinement_from_tracker: f64,
    /// Hypothetical refinement cost for proposal-net regions alone.
    pub refinement_from_proposal: f64,
}

impl OpsBreakdown {
    /// Total cost actually spent.
    pub fn total(&self) -> f64 {
        self.proposal + self.refinement
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &OpsBreakdown) {
        self.proposal += other.proposal;
        self.refinement += other.refinement;
        self.refinement_from_tracker += other.refinement_from_tracker;
        self.refinement_from_proposal += other.refinement_from_proposal;
    }

    /// Element-wise division by a count (for per-frame means).
    pub fn scaled(&self, divisor: f64) -> OpsBreakdown {
        OpsBreakdown {
            proposal: self.proposal / divisor,
            refinement: self.refinement / divisor,
            refinement_from_tracker: self.refinement_from_tracker / divisor,
            refinement_from_proposal: self.refinement_from_proposal / divisor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_proposal_plus_refinement() {
        let o = OpsBreakdown {
            proposal: 10.0,
            refinement: 20.0,
            refinement_from_tracker: 12.0,
            refinement_from_proposal: 15.0,
        };
        assert_eq!(o.total(), 30.0);
    }

    #[test]
    fn accumulate_and_scale_roundtrip() {
        let mut acc = OpsBreakdown::default();
        let o = OpsBreakdown {
            proposal: 4.0,
            refinement: 8.0,
            refinement_from_tracker: 2.0,
            refinement_from_proposal: 6.0,
        };
        for _ in 0..5 {
            acc.accumulate(&o);
        }
        let mean = acc.scaled(5.0);
        assert_eq!(mean, o);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(OpsBreakdown::default().total(), 0.0);
    }
}
