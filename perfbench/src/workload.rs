//! The three benchmark workloads, generated from a seed.
//!
//! Every workload is an open loop in virtual time: each camera's arrivals
//! follow a fixed schedule drawn from the workload seed, and the serving
//! layer times latency from each frame's scheduled arrival. Per-camera
//! rates sit below per-stream service capacity, so the backlog does not
//! grow with run length.

use catdet_core::{PolicyConfig, PresetFactory, SystemFactory, SystemKind};
use catdet_data::{kitti_like, Frame, StreamFrame, StreamSource};
use catdet_geom::Box2;
use catdet_serve::{
    AutoscaleConfig, IngestConfig, RebalanceSignal, RecorderConfig, ServeConfig, ShardConfig,
    StreamSpec,
};
use catdet_sim::{ActorClass, GroundTruthObject};
use std::sync::Arc;

/// OS threads advancing shard engines between fleet barriers.
pub const POOL_THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense-crowd cameras: stage compute dominates.
    Crowd,
    /// A city of cheap KITTI-like cameras on many shards: serving
    /// bookkeeping dominates.
    City,
    /// Networked cameras with a detect-or-track policy, recording and a
    /// predictive control plane.
    Edge,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Crowd, Kind::City, Kind::Edge];

    /// Stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Crowd => "crowd",
            Kind::City => "city",
            Kind::Edge => "edge",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Full-size shape, as the benchmark runs it.
    pub fn full(self) -> Shape {
        match self {
            Kind::Crowd => Shape {
                cameras: 8,
                frames: 150,
                fps: 0.35,
            },
            Kind::City => Shape {
                cameras: 1000,
                frames: 16,
                fps: 1.0,
            },
            Kind::Edge => Shape {
                cameras: 64,
                frames: 300,
                fps: 1.0,
            },
        }
    }

    /// A tiny instance of the same shape, for tests.
    pub fn tiny(self) -> Shape {
        match self {
            Kind::Crowd => Shape {
                cameras: 2,
                frames: 8,
                fps: 0.35,
            },
            Kind::City => Shape {
                cameras: 1000,
                frames: 4,
                fps: 1.0,
            },
            Kind::Edge => Shape {
                cameras: 16,
                frames: 40,
                fps: 2.0,
            },
        }
    }
}

/// Size of one workload instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Cameras (streams).
    pub cameras: usize,
    /// Frames each camera offers.
    pub frames: usize,
    /// Mean per-camera arrival rate, frames per virtual second.
    pub fps: f64,
}

/// Objects per dense-crowd frame (the `dense_crowd` density of the
/// repository's perf snapshot).
pub const CROWD_OBJECTS: usize = 260;

/// One generated workload: the inputs handed to the serving call.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed (also keys the network simulation).
    pub seed: u64,
    /// Camera streams, as offered (before any network loss).
    pub specs: Vec<StreamSpec>,
    /// Serving configuration.
    pub cfg: ServeConfig,
    /// Classes `map` and `mean_delay_frames` are computed over.
    pub classes: Vec<ActorClass>,
}

impl Workload {
    /// Generates `kind` at `shape` from `seed`.
    pub fn generate(kind: Kind, shape: Shape, seed: u64) -> Workload {
        let (specs, cfg, classes) = match kind {
            Kind::Crowd => (
                crowd_specs(shape, seed),
                crowd_config(),
                vec![ActorClass::Car, ActorClass::Pedestrian],
            ),
            Kind::City => (
                city_specs(shape, seed),
                city_config(),
                vec![ActorClass::Car],
            ),
            Kind::Edge => (
                edge_specs(shape, seed),
                edge_config(),
                vec![ActorClass::Car],
            ),
        };
        Workload {
            kind,
            seed,
            specs,
            cfg,
            classes,
        }
    }

    /// Frames offered by every camera.
    pub fn frames_offered(&self) -> usize {
        self.specs.iter().map(|s| s.source.len()).sum()
    }
}

fn crowd_config() -> ServeConfig {
    ServeConfig::new()
        .with_workers(1)
        .with_max_batch(4)
        .with_queue_capacity(4)
        .with_fuse_refinement(true)
        .with_refine_batch_window_s(0.002)
        .with_shard(ShardConfig::sharded(2).with_threads(POOL_THREADS))
}

fn city_config() -> ServeConfig {
    ServeConfig::new()
        .with_workers(1)
        .with_max_batch(4)
        .with_queue_capacity(8)
        .with_shard(
            ShardConfig::sharded(64)
                .with_rebalance_interval_s(0.5)
                .with_migration_cost_frames(4)
                .with_threads(POOL_THREADS),
        )
}

fn edge_config() -> ServeConfig {
    ServeConfig::new()
        .with_workers(1)
        .with_max_batch(4)
        .with_queue_capacity(8)
        .with_policy(PolicyConfig::confidence_trigger(1.0))
        .with_autoscale(AutoscaleConfig::predictive(1, 3))
        .with_shard(
            ShardConfig::sharded(2)
                .with_rebalance_interval_s(0.25)
                .with_rebalance_signal(RebalanceSignal::Predicted)
                .with_threads(POOL_THREADS),
        )
        .with_ingest(
            IngestConfig::net()
                .with_conn_jitter_s(0.004)
                .with_disconnect_rate(0.01)
                .with_reorder_rate(0.0025)
                .with_door_rate_fps(10.0)
                .with_door_burst(4.0),
        )
        .with_recorder(
            RecorderConfig::on()
                .with_chunk_events(256)
                .with_retention_chunks(96)
                .with_snapshot_every_frames(30),
        )
}

/// SplitMix64 of `x`: a seeded hash with no RNG dependency.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic `[0, 1)` draw keyed by `(seed, a, b)`.
fn unit(seed: u64, a: u64, b: u64) -> f64 {
    (mix(mix(mix(seed) ^ a) ^ b) >> 11) as f64 / (1u64 << 53) as f64
}

/// Burst phase groups of the city workload.
const STAGGER: usize = 16;

/// An open-loop arrival schedule: frame `i` is due at the camera's
/// `phase` (a fraction of a period) plus `i` periods, jittered by up to
/// ±25% of a period (drawn from the seed) and kept in order. `rate_at(t)`
/// is the camera's rate at schedule time `t`.
fn schedule(
    seed: u64,
    camera: usize,
    phase: f64,
    frames: Vec<Frame>,
    width: f32,
    height: f32,
    mut rate_at: impl FnMut(f64) -> f64,
) -> StreamSource {
    let cam = camera as u64;
    let mut base = phase / rate_at(0.0);
    let mut last = 0.0f64;
    let frames = frames
        .into_iter()
        .enumerate()
        .map(|(i, frame)| {
            let period = 1.0 / rate_at(base);
            let jitter = (unit(seed, cam, i as u64) - 0.5) * 0.5 * period;
            last = last.max(base + jitter);
            base += period;
            StreamFrame {
                arrival_s: last,
                frame,
            }
        })
        .collect();
    StreamSource::from_frames(camera, rate_at(0.0) as f32, width, height, frames)
}

/// Shortest and longest stay of one crowd member, in frames.
const CROWD_STAY: (f64, f64) = (10.0, 30.0);

/// One dense-crowd camera: `objects` small, independently drifting boxes
/// over a 2048×1024 frame, laid out and moving as keyed by the seed. Each
/// grid slot holds one member at a time; when a member leaves after its
/// stay, a new one takes the slot. The crowd keeps its density while
/// people keep arriving, and every arrival is a fresh instance for the
/// delay metric.
fn crowd_frames(seed: u64, camera: usize, frames: usize, objects: usize) -> Vec<Frame> {
    let (width, height) = (2048.0f32, 1024.0f32);
    let cols = (objects as f32).sqrt().ceil().max(1.0) as usize;
    let rows = objects.div_ceil(cols) as f32;
    let key =
        |slot: usize, member: usize| (camera as u64) << 32 | (slot as u64) << 12 | member as u64;
    let draw = |slot: usize, member: usize, salt: u64| unit(seed, key(slot, member), salt);
    // Frame at which each member of each slot arrives; the first member
    // is already part-way through its stay.
    let (short, long) = CROWD_STAY;
    let arrivals: Vec<Vec<usize>> = (0..objects)
        .map(|slot| {
            let mut starts = vec![0];
            let mut end = 1 + (long * draw(slot, 0, 6)) as usize;
            while end < frames {
                starts.push(end);
                end += (short + (long - short) * draw(slot, starts.len() - 1, 6)) as usize;
            }
            starts
        })
        .collect();
    (0..frames)
        .map(|index| {
            let t = index as f32;
            let ground_truth = arrivals
                .iter()
                .enumerate()
                .map(|(i, starts)| {
                    let k = starts.partition_point(|&s| s <= index) - 1;
                    let draw = |salt| draw(i, k, salt) as f32;
                    let h = 28.0 + 44.0 * draw(1);
                    let class = if draw(2) < 0.3 {
                        ActorClass::Car
                    } else {
                        ActorClass::Pedestrian
                    };
                    let w = match class {
                        ActorClass::Car => h * (1.3 + 0.6 * draw(3)),
                        ActorClass::Pedestrian => h * (0.35 + 0.2 * draw(3)),
                    };
                    let phase = draw(4) * std::f32::consts::TAU;
                    let speed = 0.05 + 0.15 * draw(5);
                    let (col, row) = ((i % cols) as f32, (i / cols) as f32);
                    let cx = (col + 0.5) / cols as f32 * (width - 120.0)
                        + 40.0 * (speed * t + phase).sin()
                        + 20.0;
                    let cy = (row + 0.5) / rows * (height - 120.0)
                        + 25.0 * (speed * t + 1.7 * phase).cos()
                        + 20.0;
                    let bbox = Box2::from_cxcywh(cx, cy, w, h).clip(width, height);
                    GroundTruthObject {
                        track_id: mix(seed ^ key(i, k)),
                        class,
                        bbox,
                        full_bbox: bbox,
                        occlusion: 0.0,
                        truncation: 0.0,
                        depth: 2262.5 * 1.75 / h.max(1.0),
                    }
                })
                .collect();
            Frame {
                sequence_id: camera,
                index,
                ground_truth,
                labeled: true,
            }
        })
        .collect()
}

fn crowd_specs(shape: Shape, seed: u64) -> Vec<StreamSpec> {
    let factory: Arc<dyn SystemFactory> = Arc::new(PresetFactory::citypersons(SystemKind::CatdetA));
    (0..shape.cameras)
        .map(|cam| {
            let frames = crowd_frames(seed, cam, shape.frames, CROWD_OBJECTS);
            let phase = cam as f64 / shape.cameras as f64;
            let source = schedule(seed, cam, phase, frames, 2048.0, 1024.0, |_| shape.fps);
            StreamSpec::new(source, Arc::clone(&factory))
        })
        .collect()
}

/// KITTI-like cameras, one simulated sequence each, starting at
/// `phase_of(camera)` and scheduled by `rate_at(camera, t)`.
fn kitti_specs(
    shape: Shape,
    seed: u64,
    phase_of: impl Fn(usize) -> f64,
    rate_at: impl Fn(usize, f64) -> f64,
) -> Vec<StreamSpec> {
    let ds = kitti_like()
        .sequences(shape.cameras)
        .frames_per_sequence(shape.frames)
        .seed(seed)
        .build();
    let factory: Arc<dyn SystemFactory> = Arc::new(PresetFactory::kitti(SystemKind::CatdetA));
    ds.sequences()
        .iter()
        .enumerate()
        .map(|(cam, seq)| {
            let frames = seq.frames().to_vec();
            let source = schedule(seed, cam, phase_of(cam), frames, ds.width, ds.height, |t| {
                rate_at(cam, t)
            });
            StreamSpec::new(source, Arc::clone(&factory))
        })
        .collect()
}

/// Bursty cameras: one virtual second in four at five times the quiet
/// rate (mean `shape.fps`). Frame and burst phases are fixed per camera,
/// bursts staggered in sixteen groups, so every seed offers the fleet the
/// same burst structure.
fn city_specs(shape: Shape, seed: u64) -> Vec<StreamSpec> {
    let (quiet, burst) = (shape.fps * 0.5, shape.fps * 2.5);
    kitti_specs(
        shape,
        seed,
        |cam| cam as f64 / shape.cameras as f64,
        |cam, t| {
            let phase = (cam % STAGGER) as f64 * 4.0 / STAGGER as f64;
            if (t + phase).rem_euclid(4.0) < 3.0 {
                quiet
            } else {
                burst
            }
        },
    )
}

/// Steady cameras at seeded phases. Measured over seeds, seeded phases
/// give the predictive control plane steadier latency than a fixed
/// stagger does.
fn edge_specs(shape: Shape, seed: u64) -> Vec<StreamSpec> {
    kitti_specs(
        shape,
        seed,
        |cam| unit(seed, cam as u64, u64::MAX),
        |_, _| shape.fps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, kind.tiny(), 7);
            let b = Workload::generate(kind, kind.tiny(), 7);
            let c = Workload::generate(kind, kind.tiny(), 8);
            let sources =
                |w: &Workload| w.specs.iter().map(|s| s.source.clone()).collect::<Vec<_>>();
            assert_eq!(sources(&a), sources(&b), "{}", kind.name());
            assert_ne!(sources(&a), sources(&c), "{}", kind.name());
        }
    }

    #[test]
    fn schedules_are_complete_and_ordered() {
        for kind in Kind::ALL {
            let shape = kind.tiny();
            let w = Workload::generate(kind, shape, 3);
            assert_eq!(w.specs.len(), shape.cameras);
            for spec in &w.specs {
                let times: Vec<f64> = spec.source.frames().iter().map(|f| f.arrival_s).collect();
                assert_eq!(times.len(), shape.frames);
                assert!(times.windows(2).all(|p| p[0] <= p[1]));
                assert!(times[0] >= 0.0);
            }
        }
    }
}
