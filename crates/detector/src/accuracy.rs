//! Accuracy profiles: how good a simulated detector is and in what way.

use catdet_sim::GroundTruthObject;

/// Logistic function.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Visibility quality of a ground-truth object, in logits.
///
/// Zero for a fully visible 40-px object; grows with log₂ of pixel height
/// and is penalised by occlusion and truncation. The coefficients describe
/// the *scene physics* (how fast objects get harder), which is shared by
/// all detectors; per-model strength enters through
/// [`AccuracyProfile::offset`] and [`AccuracyProfile::discrimination`].
pub fn object_quality(o: &GroundTruthObject) -> f32 {
    let h = o.height_px().max(2.0);
    // The size bonus saturates smoothly: beyond ~100 px extra pixels stop
    // helping (what limits detection of large objects is occlusion and
    // pose, not resolution). Without saturation, high-resolution datasets
    // like CityPersons would be trivially easy.
    1.9 * ((h / 40.0).log2() / 1.9).tanh() - 2.3 * o.occlusion - 2.6 * o.truncation
}

/// The statistical behaviour of one simulated detector.
///
/// The detection margin of object `o` at frame `t` is
///
/// ```text
/// m = offset + discrimination · quality(o) + h_obj + ε_t
/// ```
///
/// with `h_obj` a persistent per-object latent (shared + model-specific
/// parts) and `ε_t` an AR(1) temporal noise. The object is detected with
/// probability `σ(m)` (plus `validation_boost` in refinement mode), and a
/// detected object's confidence is `σ(score_offset + score_gain·m + noise)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyProfile {
    /// Base detection logit at quality zero. The main strength knob.
    pub offset: f32,
    /// Slope on object quality.
    pub discrimination: f32,
    /// Std of the per-object latent component **shared across models**.
    pub shared_heterogeneity: f32,
    /// Std of the per-object latent component specific to this model.
    pub own_heterogeneity: f32,
    /// AR(1) coefficient of the temporal noise.
    pub temporal_corr: f32,
    /// Marginal std of the temporal noise.
    pub temporal_sigma: f32,
    /// Score-logit slope on the margin.
    pub score_gain: f32,
    /// Score-logit offset.
    pub score_offset: f32,
    /// Std of the score-logit noise.
    pub score_noise: f32,
    /// Expected false positives per full frame.
    pub fp_rate: f32,
    /// Mean of the false-positive score logit.
    pub fp_score_mean: f32,
    /// Std of the false-positive score logit.
    pub fp_score_sigma: f32,
    /// Box-corner jitter as a fraction of box dimensions.
    pub loc_sigma: f32,
    /// Margin bonus when validating a proposed region (refinement mode):
    /// "validation and calibration are easier than re-detection" (§3).
    pub validation_boost: f32,
    /// Extra per-unit-occlusion margin penalty of this model on top of the
    /// shared scene physics. Limited-capacity models degrade faster under
    /// partial occlusion; this is what makes a weak proposal network fail
    /// on CityPersons' crowds while still proposing clean objects.
    pub occlusion_sensitivity: f32,
    /// Probability that a proposed region containing no object is
    /// "confirmed" as a false positive by this model in refinement mode.
    /// This couples a cascade's precision to its proposal network's false
    /// positives, the effect that makes the cascaded systems' delay worse
    /// than the single model's at matched precision.
    pub fp_confirm_rate: f32,
}

impl AccuracyProfile {
    /// Detection probability for a margin (full-frame mode).
    pub fn detection_probability(&self, margin: f32) -> f32 {
        sigmoid(margin)
    }

    /// Detection probability in refinement mode.
    pub fn validation_probability(&self, margin: f32) -> f32 {
        sigmoid(margin + self.validation_boost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdet_geom::Box2;
    use catdet_sim::ActorClass;

    fn gt(h: f32, occ: f32, trunc: f32) -> GroundTruthObject {
        GroundTruthObject {
            track_id: 0,
            class: ActorClass::Car,
            bbox: Box2::from_xywh(0.0, 0.0, h * 1.5, h),
            full_bbox: Box2::from_xywh(0.0, 0.0, h * 1.5, h),
            occlusion: occ,
            truncation: trunc,
            depth: 20.0,
        }
    }

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }

    #[test]
    fn quality_zero_at_reference_object() {
        assert!(object_quality(&gt(40.0, 0.0, 0.0)).abs() < 1e-6);
    }

    #[test]
    fn quality_grows_with_size() {
        assert!(object_quality(&gt(80.0, 0.0, 0.0)) > object_quality(&gt(40.0, 0.0, 0.0)));
        // Soft saturation: the 80px bonus sits a little below log2 = 1.0...
        let q80 = object_quality(&gt(80.0, 0.0, 0.0));
        assert!((0.8..1.0).contains(&q80), "q80 = {q80}");
        // ...and very large objects approach the asymptote.
        assert!(object_quality(&gt(2000.0, 0.0, 0.0)) < 1.95);
    }

    #[test]
    fn occlusion_and_truncation_hurt() {
        let base = object_quality(&gt(40.0, 0.0, 0.0));
        assert!(object_quality(&gt(40.0, 0.5, 0.0)) < base - 1.0);
        assert!(object_quality(&gt(40.0, 0.0, 0.4)) < base - 0.7);
    }

    #[test]
    fn tiny_boxes_are_guarded() {
        // Degenerate heights must not produce -inf.
        let q = object_quality(&gt(0.5, 0.0, 0.0));
        assert!(q.is_finite());
    }

    #[test]
    fn validation_is_easier_than_detection() {
        let p = AccuracyProfile {
            offset: 0.0,
            discrimination: 1.0,
            shared_heterogeneity: 0.5,
            own_heterogeneity: 0.5,
            temporal_corr: 0.7,
            temporal_sigma: 1.0,
            score_gain: 1.0,
            score_offset: 0.0,
            score_noise: 0.3,
            fp_rate: 1.0,
            fp_score_mean: -2.0,
            fp_score_sigma: 1.0,
            loc_sigma: 0.05,
            validation_boost: 1.5,
            occlusion_sensitivity: 0.0,
            fp_confirm_rate: 0.2,
        };
        let m = -0.5;
        assert!(p.validation_probability(m) > p.detection_probability(m));
    }
}
