//! The world: ego camera, traffic, spawning and ground-truth extraction.

use crate::actor::{Actor, ActorClass, Motion};
use crate::camera::CameraModel;
use crate::occlusion::occlusion_fractions;
use catdet_geom::Box2;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of a simulated scene.
///
/// Two presets reproduce the paper's datasets:
/// [`SceneConfig::kitti_street`] (driving, 1242×375 @ 10 fps) and
/// [`SceneConfig::city_street`] (pedestrian street, 2048×1024 @ 30 fps).
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Camera intrinsics and mounting.
    pub camera: CameraModel,
    /// Frames per second.
    pub fps: f32,
    /// Ego speed range (m/s); one value is drawn per sequence.
    pub ego_speed: (f32, f32),
    /// Cars placed in the scene before the first frame.
    pub initial_cars: usize,
    /// Pedestrians placed in the scene before the first frame.
    pub initial_peds: usize,
    /// Expected newly spawned cars per frame.
    pub car_spawn_rate: f32,
    /// Expected newly spawned pedestrians per frame.
    pub ped_spawn_rate: f32,
    /// Fraction of cars that are parked at the roadside.
    pub parked_fraction: f32,
    /// Fraction of cars in the oncoming lane.
    pub oncoming_fraction: f32,
    /// Fraction of pedestrians crossing the road (vs. walking along it).
    pub crossing_fraction: f32,
    /// Depth range (m ahead of ego) where new actors appear.
    pub spawn_depth: (f32, f32),
    /// Overriding depth band for pedestrians (both initial placement and
    /// later spawns); `None` derives it from `spawn_depth`. CityPersons-like
    /// scenes use a distant band so persons appear at realistic pixel sizes.
    pub ped_depth: Option<(f32, f32)>,
    /// Actors farther than this are despawned.
    pub max_depth: f32,
    /// Ground-truth boxes shorter than this many pixels are not annotated.
    pub min_box_height: f32,
    /// Objects occluded beyond this fraction are not annotated
    /// (fully hidden objects produce no ground truth while hidden).
    pub max_visible_occlusion: f32,
}

impl SceneConfig {
    /// KITTI-like driving scene: 1242×375 @ 10 fps, mixed traffic.
    pub fn kitti_street() -> Self {
        Self {
            camera: CameraModel::kitti(),
            fps: 10.0,
            ego_speed: (7.0, 14.0),
            initial_cars: 7,
            initial_peds: 3,
            car_spawn_rate: 0.12,
            ped_spawn_rate: 0.06,
            parked_fraction: 0.35,
            oncoming_fraction: 0.30,
            crossing_fraction: 0.40,
            spawn_depth: (35.0, 95.0),
            ped_depth: None,
            max_depth: 130.0,
            min_box_height: 8.0,
            max_visible_occlusion: 0.97,
        }
    }

    /// CityPersons-like street scene: 2048×1024 @ 30 fps, pedestrian-heavy
    /// and crowded (CityPersons' difficulty is crowd occlusion, not pixel
    /// size), slow ego, parked cars as additional occluders.
    pub fn city_street() -> Self {
        Self {
            camera: CameraModel::cityscapes(),
            fps: 30.0,
            ego_speed: (1.0, 4.0),
            initial_cars: 7,
            initial_peds: 18,
            car_spawn_rate: 0.02,
            ped_spawn_rate: 0.15,
            parked_fraction: 0.85,
            oncoming_fraction: 0.05,
            crossing_fraction: 0.35,
            spawn_depth: (25.0, 120.0),
            ped_depth: Some((40.0, 150.0)),
            max_depth: 170.0,
            min_box_height: 10.0,
            max_visible_occlusion: 0.97,
        }
    }
}

/// One annotated object in one frame — the simulator's equivalent of a
/// KITTI label line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruthObject {
    /// Stable identity across frames.
    pub track_id: u64,
    /// Object class.
    pub class: ActorClass,
    /// Bounding box clipped to the image.
    pub bbox: Box2,
    /// Bounding box before clipping (may extend past the frame).
    pub full_bbox: Box2,
    /// Fraction of the visible box covered by nearer objects, `[0, 1]`.
    pub occlusion: f32,
    /// Fraction of the full box outside the frame, `[0, 1]`.
    pub truncation: f32,
    /// Distance from the camera (m).
    pub depth: f32,
}

impl GroundTruthObject {
    /// Pixel height of the visible box.
    pub fn height_px(&self) -> f32 {
        self.bbox.height()
    }
}

/// All annotations of one simulated frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFrame {
    /// Frame index within the sequence.
    pub index: usize,
    /// Annotated objects.
    pub objects: Vec<GroundTruthObject>,
}

/// The running world simulation.
///
/// Use [`WorldSim::step`] to obtain successive frames, or the
/// [`simulate_sequence`] convenience function.
#[derive(Debug, Clone)]
pub struct WorldSim {
    cfg: SceneConfig,
    rng: ChaCha8Rng,
    actors: Vec<Actor>,
    ego_z: f32,
    ego_x: f32,
    ego_speed: f32,
    sway_phase: f32,
    next_id: u64,
    frame_index: usize,
}

impl WorldSim {
    /// Creates a world with its initial population, fully determined by
    /// `seed`.
    pub fn new(cfg: SceneConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ego_speed = rng.gen_range(cfg.ego_speed.0..=cfg.ego_speed.1);
        let mut sim = Self {
            cfg,
            rng,
            actors: Vec::new(),
            ego_z: 0.0,
            ego_x: 0.0,
            ego_speed,
            sway_phase: 0.0,
            next_id: 0,
            frame_index: 0,
        };
        for _ in 0..sim.cfg.initial_cars {
            sim.spawn_car(true);
        }
        for _ in 0..sim.cfg.initial_peds {
            sim.spawn_ped(true);
        }
        sim
    }

    /// Scene configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.cfg
    }

    /// Produces the current frame's annotations, then advances the world
    /// by one frame interval.
    pub fn step(&mut self) -> SimFrame {
        let frame = self.observe();
        self.advance();
        frame
    }

    fn advance(&mut self) {
        let dt = 1.0 / self.cfg.fps;
        self.ego_z += self.ego_speed * dt;
        self.sway_phase += dt * 0.6;
        self.ego_x = 0.18 * self.sway_phase.sin();
        for a in &mut self.actors {
            a.step(dt, &mut self.rng);
        }
        // Poisson spawning approximated by two Bernoulli draws per frame
        // (rates are well below 1).
        for _ in 0..2 {
            if self.rng.gen::<f32>() < self.cfg.car_spawn_rate / 2.0 {
                self.spawn_car(false);
            }
            if self.rng.gen::<f32>() < self.cfg.ped_spawn_rate / 2.0 {
                self.spawn_ped(false);
            }
        }
        let (ego_z, ego_x, max_depth) = (self.ego_z, self.ego_x, self.cfg.max_depth);
        self.actors.retain(|a| {
            let rel_z = a.z - ego_z;
            rel_z > 1.5 && rel_z < max_depth && (a.x - ego_x).abs() < 30.0
        });
        self.frame_index += 1;
    }

    fn observe(&self) -> SimFrame {
        let cam = &self.cfg.camera;
        let mut candidates: Vec<(&Actor, Box2, Box2, f32)> = Vec::new();
        for a in &self.actors {
            let rel_x = a.x - self.ego_x;
            let rel_z = a.z - self.ego_z;
            if let Some(full) =
                cam.project_cuboid(rel_x, rel_z, a.yaw, a.dims.0, a.dims.1, a.dims.2)
            {
                let clipped = full.clip(cam.width, cam.height);
                if clipped.is_valid() && clipped.height() >= self.cfg.min_box_height {
                    candidates.push((a, full, clipped, rel_z));
                }
            }
        }
        let occ_input: Vec<(Box2, f32)> = candidates.iter().map(|c| (c.2, c.3)).collect();
        let occ = occlusion_fractions(&occ_input);
        let objects = candidates
            .into_iter()
            .zip(occ)
            .filter(|(_, o)| *o <= self.cfg.max_visible_occlusion)
            .map(|((a, full, clipped, rel_z), occlusion)| GroundTruthObject {
                track_id: a.id,
                class: a.class,
                bbox: clipped,
                full_bbox: full,
                occlusion,
                truncation: full.truncation(cam.width, cam.height),
                depth: rel_z,
            })
            .collect();
        SimFrame {
            index: self.frame_index,
            objects,
        }
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn spawn_car(&mut self, initial: bool) {
        let id = self.alloc_id();
        let r: f32 = self.rng.gen();
        let z = if initial {
            self.ego_z + self.rng.gen_range(8.0..self.cfg.spawn_depth.1)
        } else {
            self.ego_z
                + self
                    .rng
                    .gen_range(self.cfg.spawn_depth.0..self.cfg.spawn_depth.1)
        };
        let dims = (
            self.rng.gen_range(1.6..1.95),
            self.rng.gen_range(1.35..1.7),
            self.rng.gen_range(3.6..4.8),
        );
        let actor = if r < self.cfg.parked_fraction {
            let side: f32 = if self.rng.gen() { 1.0 } else { -1.0 };
            Actor {
                id,
                class: ActorClass::Car,
                x: side * self.rng.gen_range(5.5..8.5),
                z,
                vx: 0.0,
                vz: 0.0,
                yaw: 0.0,
                dims,
                motion: Motion::Parked,
            }
        } else if r < self.cfg.parked_fraction + self.cfg.oncoming_fraction {
            Actor {
                id,
                class: ActorClass::Car,
                x: -self.rng.gen_range(3.1..3.9),
                z,
                vx: 0.0,
                vz: -self.rng.gen_range(6.0..13.0),
                yaw: std::f32::consts::PI,
                dims,
                motion: Motion::Cruise,
            }
        } else {
            let lane = if self.rng.gen::<f32>() < 0.6 {
                0.0
            } else {
                3.5
            };
            Actor {
                id,
                class: ActorClass::Car,
                x: lane + self.rng.gen_range(-0.3..0.3),
                z,
                vx: 0.0,
                vz: self.ego_speed * self.rng.gen_range(0.40..0.95),
                yaw: 0.0,
                dims,
                motion: Motion::Cruise,
            }
        };
        if self.placement_clear(&actor) {
            self.actors.push(actor);
        }
    }

    fn spawn_ped(&mut self, initial: bool) {
        let side: f32 = if self.rng.gen() { 1.0 } else { -1.0 };
        let x = side * self.rng.gen_range(3.0..8.5);
        let (lo, hi) = match self.cfg.ped_depth {
            Some(band) => band,
            None if initial => (8.0, self.cfg.spawn_depth.1 * 0.8),
            None => (self.cfg.spawn_depth.0 * 0.5, self.cfg.spawn_depth.1 * 0.8),
        };
        let z = self.ego_z + self.rng.gen_range(lo..hi);
        let (vx, vz) = if self.rng.gen::<f32>() < self.cfg.crossing_fraction {
            (
                -side * self.rng.gen_range(0.8..1.6),
                self.rng.gen_range(-0.2..0.2),
            )
        } else {
            let dir: f32 = if self.rng.gen() { 1.0 } else { -1.0 };
            (0.0, dir * self.rng.gen_range(0.8..1.6))
        };
        // Pedestrians often walk in small groups, which is what produces
        // CityPersons' characteristic crowd occlusion.
        let group = 1 + if self.rng.gen::<f32>() < 0.45 {
            self.rng.gen_range(1..3)
        } else {
            0
        };
        for k in 0..group {
            let id = self.alloc_id();
            let dims = (
                self.rng.gen_range(0.45..0.7),
                self.rng.gen_range(1.5..1.9),
                self.rng.gen_range(0.35..0.6),
            );
            let (dx, dz) = if k == 0 {
                (0.0, 0.0)
            } else {
                (self.rng.gen_range(-1.0..1.0), self.rng.gen_range(-1.4..1.4))
            };
            let actor = Actor {
                id,
                class: ActorClass::Pedestrian,
                x: x + dx,
                z: z + dz,
                vx: vx * self.rng.gen_range(0.9..1.1),
                vz: vz * self.rng.gen_range(0.9..1.1),
                yaw: vx.atan2(vz),
                dims,
                motion: Motion::Walk,
            };
            self.actors.push(actor);
        }
    }

    /// Rejects car placements that would intersect an existing car.
    fn placement_clear(&self, candidate: &Actor) -> bool {
        self.actors.iter().all(|a| {
            a.class != ActorClass::Car
                || (a.x - candidate.x).abs() > 2.2
                || (a.z - candidate.z).abs() > 7.0
        })
    }
}

/// Runs a fresh world for `frames` frames.
///
/// Deterministic: the same `(config, seed)` pair always produces identical
/// output.
pub fn simulate_sequence(cfg: &SceneConfig, seed: u64, frames: usize) -> Vec<SimFrame> {
    let mut sim = WorldSim::new(cfg.clone(), seed);
    (0..frames).map(|_| sim.step()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn kitti_frames(seed: u64, n: usize) -> Vec<SimFrame> {
        simulate_sequence(&SceneConfig::kitti_street(), seed, n)
    }

    #[test]
    fn deterministic_given_seed() {
        let a = kitti_frames(11, 50);
        let b = kitti_frames(11, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = kitti_frames(1, 30);
        let b = kitti_frames(2, 30);
        assert_ne!(a, b);
    }

    #[test]
    fn frames_are_indexed_sequentially() {
        let frames = kitti_frames(3, 20);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i);
        }
    }

    #[test]
    fn scene_density_is_plausible() {
        let frames = kitti_frames(5, 200);
        let mean = frames.iter().map(|f| f.objects.len()).sum::<usize>() as f64 / 200.0;
        assert!(
            (2.0..15.0).contains(&mean),
            "mean objects per frame = {mean}"
        );
    }

    #[test]
    fn all_annotations_within_frame_and_valid() {
        let cfg = SceneConfig::kitti_street();
        for f in kitti_frames(7, 150) {
            for o in &f.objects {
                assert!(o.bbox.is_valid());
                assert!(o.bbox.x1 >= 0.0 && o.bbox.x2 <= cfg.camera.width);
                assert!(o.bbox.y1 >= 0.0 && o.bbox.y2 <= cfg.camera.height);
                assert!((0.0..=1.0).contains(&o.occlusion));
                assert!((0.0..=1.0).contains(&o.truncation));
                assert!(o.depth > 0.0);
                assert!(o.height_px() >= cfg.min_box_height);
            }
        }
    }

    #[test]
    fn track_ids_are_unique_within_frame() {
        for f in kitti_frames(9, 100) {
            let ids: HashSet<u64> = f.objects.iter().map(|o| o.track_id).collect();
            assert_eq!(ids.len(), f.objects.len());
        }
    }

    #[test]
    fn tracks_move_smoothly() {
        // Median IoU of the same track between consecutive frames should be
        // high; this is the temporal locality CaTDet exploits.
        let frames = kitti_frames(13, 150);
        let mut ious = Vec::new();
        for pair in frames.windows(2) {
            let prev: HashMap<u64, Box2> = pair[0]
                .objects
                .iter()
                .map(|o| (o.track_id, o.bbox))
                .collect();
            for o in &pair[1].objects {
                if let Some(pb) = prev.get(&o.track_id) {
                    ious.push(pb.iou(&o.bbox));
                }
            }
        }
        assert!(ious.len() > 100);
        ious.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ious[ious.len() / 2];
        assert!(median > 0.6, "median consecutive-frame IoU = {median}");
    }

    #[test]
    fn new_tracks_keep_appearing() {
        // Entry events are the raw material of the delay metric.
        let frames = kitti_frames(17, 300);
        let first: HashSet<u64> = frames[0].objects.iter().map(|o| o.track_id).collect();
        let mut later = HashSet::new();
        for f in &frames[1..] {
            for o in &f.objects {
                if !first.contains(&o.track_id) {
                    later.insert(o.track_id);
                }
            }
        }
        assert!(later.len() >= 5, "only {} new tracks appeared", later.len());
    }

    #[test]
    fn both_classes_appear() {
        let frames = kitti_frames(19, 200);
        let mut has = HashSet::new();
        for f in &frames {
            for o in &f.objects {
                has.insert(o.class);
            }
        }
        assert!(has.contains(&ActorClass::Car));
        assert!(has.contains(&ActorClass::Pedestrian));
    }

    #[test]
    fn some_objects_get_occluded() {
        let frames = kitti_frames(23, 300);
        let occluded = frames
            .iter()
            .flat_map(|f| &f.objects)
            .filter(|o| o.occlusion > 0.3)
            .count();
        assert!(occluded > 10, "only {occluded} occluded annotations");
    }

    #[test]
    fn some_objects_are_truncated() {
        let frames = kitti_frames(29, 300);
        let truncated = frames
            .iter()
            .flat_map(|f| &f.objects)
            .filter(|o| o.truncation > 0.2)
            .count();
        assert!(truncated > 10, "only {truncated} truncated annotations");
    }

    #[test]
    fn city_scene_is_pedestrian_heavy() {
        let frames = simulate_sequence(&SceneConfig::city_street(), 31, 60);
        let peds = frames
            .iter()
            .flat_map(|f| &f.objects)
            .filter(|o| o.class == ActorClass::Pedestrian)
            .count();
        let cars = frames
            .iter()
            .flat_map(|f| &f.objects)
            .filter(|o| o.class == ActorClass::Car)
            .count();
        assert!(peds > cars, "peds {peds} vs cars {cars}");
    }

    #[test]
    fn size_distribution_spans_difficulties() {
        // We need small (hard) and large (easy) boxes for the difficulty
        // filters to be meaningful.
        let frames = kitti_frames(37, 400);
        let heights: Vec<f32> = frames
            .iter()
            .flat_map(|f| &f.objects)
            .map(|o| o.height_px())
            .collect();
        let small = heights.iter().filter(|&&h| h < 25.0).count();
        let large = heights.iter().filter(|&&h| h >= 40.0).count();
        assert!(small > 20, "small: {small}");
        assert!(large > 20, "large: {large}");
    }
}
