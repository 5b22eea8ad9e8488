//! Actors: cars and pedestrians with simple kinematics.

use rand::Rng;

/// Object classes the simulator produces (the two classes KITTI's tracking
/// benchmark evaluates; CityPersons' "Person" maps onto [`Pedestrian`]).
///
/// [`Pedestrian`]: ActorClass::Pedestrian
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActorClass {
    /// Passenger car.
    Car,
    /// Pedestrian / person.
    Pedestrian,
}

impl ActorClass {
    /// KITTI-style class name.
    pub fn name(&self) -> &'static str {
        match self {
            ActorClass::Car => "Car",
            ActorClass::Pedestrian => "Pedestrian",
        }
    }

    /// All classes, in a stable order.
    pub const ALL: [ActorClass; 2] = [ActorClass::Car, ActorClass::Pedestrian];
}

impl std::fmt::Display for ActorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How an actor moves; controls both kinematics and the noise applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Motion {
    /// Driving along the road at roughly constant speed (cars).
    Cruise,
    /// Stationary at the roadside (parked cars).
    Parked,
    /// Walking; pedestrians wander slightly in direction.
    Walk,
}

/// A single object in the world.
///
/// Positions are in world coordinates: `x` lateral (right of the road
/// centreline), `z` longitudinal (direction of travel), metres. The ego
/// camera moves along `z`; the projection step subtracts the ego pose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Actor {
    /// Stable track identity.
    pub id: u64,
    /// Object class.
    pub class: ActorClass,
    /// Lateral position (m).
    pub x: f32,
    /// Longitudinal position (m).
    pub z: f32,
    /// Lateral velocity (m/s).
    pub vx: f32,
    /// Longitudinal velocity (m/s).
    pub vz: f32,
    /// Heading (radians, 0 = facing +z).
    pub yaw: f32,
    /// Metric size (width, height, length).
    pub dims: (f32, f32, f32),
    /// Motion regime.
    pub motion: Motion,
}

impl Actor {
    /// Advances the actor by `dt` seconds, applying motion noise from `rng`.
    ///
    /// Cars receive small longitudinal acceleration noise; pedestrians
    /// wander in direction. Parked actors never move. Heading follows the
    /// velocity vector for moving actors.
    pub fn step<R: Rng>(&mut self, dt: f32, rng: &mut R) {
        match self.motion {
            Motion::Parked => return,
            Motion::Cruise => {
                // Gentle speed changes, no lane changes.
                self.vz += rng.gen_range(-0.4..0.4) * dt;
                self.vx *= 0.9; // damp any residual lateral motion
            }
            Motion::Walk => {
                // Direction wander with speed roughly preserved.
                let speed = (self.vx * self.vx + self.vz * self.vz).sqrt();
                if speed > 1e-3 {
                    let angle = self.vz.atan2(self.vx) + rng.gen_range(-0.25..0.25) * dt * 10.0;
                    let new_speed = (speed + rng.gen_range(-0.3..0.3) * dt).clamp(0.3, 2.2);
                    self.vx = new_speed * angle.cos();
                    self.vz = new_speed * angle.sin();
                }
            }
        }
        self.x += self.vx * dt;
        self.z += self.vz * dt;
        if self.vx.abs() + self.vz.abs() > 0.05 {
            self.yaw = self.vx.atan2(self.vz);
        }
    }

    /// Ground speed in m/s.
    pub fn speed(&self) -> f32 {
        (self.vx * self.vx + self.vz * self.vz).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn car() -> Actor {
        Actor {
            id: 1,
            class: ActorClass::Car,
            x: 0.0,
            z: 30.0,
            vx: 0.0,
            vz: 8.0,
            yaw: 0.0,
            dims: (1.8, 1.5, 4.2),
            motion: Motion::Cruise,
        }
    }

    #[test]
    fn parked_actor_never_moves() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut a = car();
        a.motion = Motion::Parked;
        a.vz = 0.0;
        let before = (a.x, a.z, a.yaw);
        for _ in 0..100 {
            a.step(0.1, &mut rng);
        }
        assert_eq!((a.x, a.z, a.yaw), before);
    }

    #[test]
    fn cruising_car_advances() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut a = car();
        for _ in 0..10 {
            a.step(0.1, &mut rng);
        }
        assert!((a.z - 38.0).abs() < 1.0, "z = {}", a.z);
        assert!(a.x.abs() < 0.1);
    }

    #[test]
    fn walker_speed_stays_bounded() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut a = Actor {
            id: 2,
            class: ActorClass::Pedestrian,
            x: 5.0,
            z: 20.0,
            vx: -1.2,
            vz: 0.2,
            yaw: 0.0,
            dims: (0.6, 1.75, 0.5),
            motion: Motion::Walk,
        };
        for _ in 0..300 {
            a.step(0.1, &mut rng);
            assert!(a.speed() <= 2.2 + 1e-4);
            assert!(a.speed() >= 0.3 - 1e-4);
        }
    }

    #[test]
    fn heading_follows_velocity() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut a = car();
        a.vx = 0.0;
        a.vz = 10.0;
        a.step(0.1, &mut rng);
        assert!(a.yaw.abs() < 0.05);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = car();
        let mut b = car();
        let mut r1 = ChaCha8Rng::seed_from_u64(9);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..50 {
            a.step(0.1, &mut r1);
            b.step(0.1, &mut r2);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn class_names() {
        assert_eq!(ActorClass::Car.name(), "Car");
        assert_eq!(ActorClass::Pedestrian.to_string(), "Pedestrian");
        assert_eq!(ActorClass::ALL.len(), 2);
    }
}
