//! A scalar constant-velocity Kalman filter.
//!
//! Used by the ablation motion model ([`crate::MotionModelKind::Kalman`])
//! to stand in for SORT's filter. One filter tracks one coordinate
//! (position + velocity); the motion state runs three of them (centre x,
//! centre y, width).

/// Constant-velocity Kalman filter over a single coordinate.
///
/// State is `[position, velocity]` with transition `p' = p + v`,
/// `v' = v`; only position is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kalman1d {
    /// Estimated position.
    pub pos: f32,
    /// Estimated velocity (per frame).
    pub vel: f32,
    /// Covariance matrix, row-major `[[p00, p01], [p10, p11]]`.
    cov: [[f32; 2]; 2],
    q: f32,
    r: f32,
}

impl Kalman1d {
    /// Creates a filter at `pos` with zero velocity and wide uncertainty.
    pub fn new(pos: f32, process_noise: f32, measurement_noise: f32) -> Self {
        Self {
            pos,
            vel: 0.0,
            cov: [[10.0, 0.0], [0.0, 100.0]],
            q: process_noise,
            r: measurement_noise,
        }
    }

    /// Time update: advances the state one frame.
    pub fn predict(&mut self) {
        self.pos += self.vel;
        // P = F P Fᵀ + Q with F = [[1,1],[0,1]].
        let [[p00, p01], [p10, p11]] = self.cov;
        let n00 = p00 + p01 + p10 + p11 + self.q * 0.25;
        let n01 = p01 + p11 + self.q * 0.5;
        let n10 = p10 + p11 + self.q * 0.5;
        let n11 = p11 + self.q;
        self.cov = [[n00, n01], [n10, n11]];
    }

    /// Measurement update with an observed position.
    pub fn update(&mut self, z: f32) {
        let [[p00, p01], [p10, p11]] = self.cov;
        let s = p00 + self.r;
        let k0 = p00 / s;
        let k1 = p10 / s;
        let innovation = z - self.pos;
        self.pos += k0 * innovation;
        self.vel += k1 * innovation;
        self.cov = [
            [(1.0 - k0) * p00, (1.0 - k0) * p01],
            [p10 - k1 * p00, p11 - k1 * p01],
        ];
    }

    /// Position one frame ahead without mutating the filter.
    pub fn peek_next(&self) -> f32 {
        self.pos + self.vel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(filter: &mut Kalman1d, measurements: &[f32]) {
        for &z in measurements {
            filter.predict();
            filter.update(z);
        }
    }

    #[test]
    fn converges_to_constant_position() {
        let mut f = Kalman1d::new(0.0, 0.01, 1.0);
        run(&mut f, &[5.0; 30]);
        assert!((f.pos - 5.0).abs() < 0.1, "pos {}", f.pos);
        assert!(f.vel.abs() < 0.1, "vel {}", f.vel);
    }

    #[test]
    fn learns_constant_velocity() {
        let mut f = Kalman1d::new(0.0, 0.01, 1.0);
        let zs: Vec<f32> = (1..=40).map(|i| i as f32 * 2.0).collect();
        run(&mut f, &zs);
        assert!((f.vel - 2.0).abs() < 0.2, "vel {}", f.vel);
        assert!((f.peek_next() - 82.0).abs() < 1.0);
    }

    #[test]
    fn prediction_without_update_extrapolates() {
        let mut f = Kalman1d::new(0.0, 0.01, 1.0);
        let zs: Vec<f32> = (1..=20).map(|i| i as f32).collect();
        run(&mut f, &zs);
        let before = f.pos;
        f.predict();
        f.predict();
        assert!(f.pos > before + 1.5);
    }

    #[test]
    fn covariance_grows_while_coasting() {
        let mut f = Kalman1d::new(0.0, 0.5, 1.0);
        run(&mut f, &[1.0, 2.0, 3.0]);
        let p_before = f.cov[0][0];
        for _ in 0..5 {
            f.predict();
        }
        assert!(f.cov[0][0] > p_before);
    }

    #[test]
    fn high_measurement_noise_trusts_model() {
        let mut smooth = Kalman1d::new(0.0, 0.01, 100.0);
        let mut jumpy = Kalman1d::new(0.0, 0.01, 0.01);
        run(&mut smooth, &[0.0, 0.0, 0.0, 0.0, 10.0]);
        run(&mut jumpy, &[0.0, 0.0, 0.0, 0.0, 10.0]);
        // The low-noise filter chases the outlier much harder.
        assert!(
            jumpy.pos > smooth.pos + 2.0,
            "jumpy {} smooth {}",
            jumpy.pos,
            smooth.pos
        );
        assert!(jumpy.pos > 3.0);
    }
}
