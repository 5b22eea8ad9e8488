//! Per-track motion state (paper Eq. 1–3).
//!
//! A track's state is the vector `x = [cx, cy, s]` (box centre and width),
//! its motion `ẋ`, and the aspect ratio `r` (height / width). The decay
//! model updates `ẋ ← η·ẋ + (1−η)·(x_new − x_old)` on every match, keeps
//! motion constant while coasting through misses, and predicts
//! `x′ = x + ẋ` with `r′ = r`.

use crate::config::MotionModelKind;
use crate::kalman::Kalman1d;
use catdet_geom::Box2;

/// Motion state of one track.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionState {
    inner: Inner,
    aspect: f32,
}

#[derive(Debug, Clone, PartialEq)]
enum Inner {
    Decay {
        eta: f32,
        pos: [f32; 3],
        vel: [f32; 3],
    },
    Kalman {
        filters: [Kalman1d; 3],
    },
    Static {
        pos: [f32; 3],
    },
}

fn state_of(bbox: &Box2) -> [f32; 3] {
    let (cx, cy) = bbox.center();
    [cx, cy, bbox.width()]
}

fn box_of(pos: &[f32; 3], aspect: f32) -> Box2 {
    let w = pos[2].max(1e-3);
    Box2::from_cxcywh(pos[0], pos[1], w, w * aspect)
}

impl MotionState {
    /// Initialises the state from a first detection ("for emerging objects
    /// the motion vector is initialized as 0", §4.1).
    pub fn new(kind: MotionModelKind, bbox: &Box2) -> Self {
        let pos = state_of(bbox);
        let inner = match kind {
            MotionModelKind::Decay { eta } => Inner::Decay {
                eta,
                pos,
                vel: [0.0; 3],
            },
            MotionModelKind::Kalman {
                process_noise,
                measurement_noise,
            } => Inner::Kalman {
                filters: pos.map(|p| Kalman1d::new(p, process_noise, measurement_noise)),
            },
            MotionModelKind::Static => Inner::Static { pos },
        };
        Self {
            inner,
            aspect: bbox.aspect(),
        }
    }

    /// Incorporates a matched detection.
    pub fn observe(&mut self, bbox: &Box2) {
        let new = state_of(bbox);
        match &mut self.inner {
            Inner::Decay { eta, pos, vel } => {
                for i in 0..3 {
                    vel[i] = *eta * vel[i] + (1.0 - *eta) * (new[i] - pos[i]);
                    pos[i] = new[i];
                }
            }
            Inner::Kalman { filters } => {
                for (f, z) in filters.iter_mut().zip(new) {
                    f.predict();
                    f.update(z);
                }
            }
            Inner::Static { pos } => *pos = new,
        }
        self.aspect = bbox.aspect();
    }

    /// Advances one frame without a detection ("the motion is kept
    /// constant", §4.1).
    pub fn coast(&mut self) {
        match &mut self.inner {
            Inner::Decay { pos, vel, .. } => {
                for i in 0..3 {
                    pos[i] += vel[i];
                }
            }
            Inner::Kalman { filters } => {
                for f in filters.iter_mut() {
                    f.predict();
                }
            }
            Inner::Static { .. } => {}
        }
    }

    /// Current box estimate.
    pub fn current_box(&self) -> Box2 {
        match &self.inner {
            Inner::Decay { pos, .. } | Inner::Static { pos } => box_of(pos, self.aspect),
            Inner::Kalman { filters } => box_of(
                &[filters[0].pos, filters[1].pos, filters[2].pos],
                self.aspect,
            ),
        }
    }

    /// Next-frame prediction `x′ = x + ẋ`, `r′ = r` (Eq. 2–3).
    pub fn predicted_box(&self) -> Box2 {
        match &self.inner {
            Inner::Decay { pos, vel, .. } => box_of(
                &[pos[0] + vel[0], pos[1] + vel[1], pos[2] + vel[2]],
                self.aspect,
            ),
            Inner::Kalman { filters } => box_of(
                &[
                    filters[0].peek_next(),
                    filters[1].peek_next(),
                    filters[2].peek_next(),
                ],
                self.aspect,
            ),
            Inner::Static { pos } => box_of(pos, self.aspect),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decay() -> MotionModelKind {
        MotionModelKind::Decay { eta: 0.7 }
    }

    #[test]
    fn new_track_has_zero_motion() {
        let b = Box2::from_cxcywh(100.0, 50.0, 20.0, 40.0);
        let m = MotionState::new(decay(), &b);
        assert_eq!(m.predicted_box(), b);
        assert_eq!(m.current_box(), b);
    }

    #[test]
    fn decay_learns_translation() {
        let mut m = MotionState::new(decay(), &Box2::from_cxcywh(0.0, 0.0, 20.0, 20.0));
        for i in 1..=20 {
            m.observe(&Box2::from_cxcywh(5.0 * i as f32, 0.0, 20.0, 20.0));
        }
        // After many steps of constant velocity, v converges to 5/frame.
        let pred = m.predicted_box();
        assert!((pred.center().0 - 105.0).abs() < 0.5, "{:?}", pred.center());
    }

    #[test]
    fn decay_rule_matches_equation_one() {
        // One observe step: v1 = 0.7*0 + 0.3*(dx).
        let mut m = MotionState::new(decay(), &Box2::from_cxcywh(0.0, 0.0, 20.0, 20.0));
        m.observe(&Box2::from_cxcywh(10.0, 0.0, 20.0, 20.0));
        let pred = m.predicted_box();
        assert!((pred.center().0 - 13.0).abs() < 1e-4); // 10 + 0.3*10
    }

    #[test]
    fn coasting_extrapolates_constantly() {
        let mut m = MotionState::new(decay(), &Box2::from_cxcywh(0.0, 0.0, 20.0, 20.0));
        for i in 1..=10 {
            m.observe(&Box2::from_cxcywh(4.0 * i as f32, 0.0, 20.0, 20.0));
        }
        let v = m.predicted_box().center().0 - m.current_box().center().0;
        let before = m.current_box().center().0;
        m.coast();
        m.coast();
        let after = m.current_box().center().0;
        assert!((after - before - 2.0 * v).abs() < 1e-3);
    }

    #[test]
    fn aspect_ratio_carried_over() {
        let mut m = MotionState::new(decay(), &Box2::from_cxcywh(0.0, 0.0, 20.0, 40.0));
        m.observe(&Box2::from_cxcywh(5.0, 0.0, 20.0, 30.0));
        let pred = m.predicted_box();
        assert!((pred.aspect() - 1.5).abs() < 1e-4); // r of the last observation
    }

    #[test]
    fn scale_changes_are_tracked() {
        // A growing box (approaching object) should predict further growth.
        let mut m = MotionState::new(decay(), &Box2::from_cxcywh(0.0, 0.0, 20.0, 20.0));
        for w in [22.0, 24.0, 26.0, 28.0, 30.0f32] {
            m.observe(&Box2::from_cxcywh(0.0, 0.0, w, w));
        }
        assert!(m.predicted_box().width() > 30.5);
    }

    #[test]
    fn static_model_never_moves() {
        let mut m = MotionState::new(
            MotionModelKind::Static,
            &Box2::from_cxcywh(0.0, 0.0, 20.0, 20.0),
        );
        m.observe(&Box2::from_cxcywh(10.0, 0.0, 20.0, 20.0));
        m.coast();
        assert_eq!(m.predicted_box().center(), (10.0, 0.0));
    }

    #[test]
    fn kalman_model_learns_velocity_too() {
        let mut m = MotionState::new(
            MotionModelKind::Kalman {
                process_noise: 0.05,
                measurement_noise: 1.0,
            },
            &Box2::from_cxcywh(0.0, 0.0, 20.0, 20.0),
        );
        for i in 1..=30 {
            m.observe(&Box2::from_cxcywh(3.0 * i as f32, 0.0, 20.0, 20.0));
        }
        let pred = m.predicted_box().center().0;
        assert!((pred - 93.0).abs() < 1.5, "pred {pred}");
    }

    #[test]
    fn degenerate_width_is_guarded() {
        let mut m = MotionState::new(decay(), &Box2::from_cxcywh(0.0, 0.0, 2.0, 2.0));
        // Shrinking observations drive width negative under extrapolation.
        for w in [1.5, 1.0, 0.5, 0.2f32] {
            m.observe(&Box2::from_cxcywh(0.0, 0.0, w, w));
        }
        for _ in 0..20 {
            m.coast();
        }
        assert!(m.predicted_box().width() > 0.0);
    }
}
