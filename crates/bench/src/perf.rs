//! Perf-snapshot harness: scenarios, the frozen baseline pipeline, and
//! the `BENCH_PR4.json` report types.
//!
//! The `perf_snapshot` binary measures the *current* per-frame hot path
//! against a frozen **baseline pipeline** — the seed's monolithic CaTDet
//! loop rebuilt from the reference implementations the library keeps for
//! exactly this purpose ([`nms_indices_naive`], the tracker's
//! [`AssocBackend::Naive`](catdet_track::AssocBackend) dense sweep,
//! [`SimulatedDetector::detect_regions_reference`], and the per-call
//! allocating pricing helpers). Both pipelines are bit-for-bit
//! output-identical — the harness asserts it on every measured frame — so
//! every ratio in the snapshot is a pure cost comparison, never an
//! accuracy trade.
//!
//! [`nms_indices_naive`]: catdet_geom::nms_indices_naive
//! [`SimulatedDetector::detect_regions_reference`]: catdet_detector::SimulatedDetector::detect_regions_reference

use catdet_core::system::{refinement_macs, SystemConfig};
use catdet_core::{
    CaTDetSystem, DetectionSystem, FrameOutput, OpsBreakdown, StageStep, StagedDetector,
};
use catdet_data::{citypersons_like, kitti_like, DatasetBuilder, Frame, VideoDataset};
use catdet_detector::{zoo, DetectorModel, SimulatedDetector};
use catdet_geom::coverage::masked_fraction;
use catdet_geom::{nms_indices_naive, Box2};
use catdet_metrics::Detection;
use catdet_sim::{ActorClass, SceneConfig};
use catdet_track::{TrackDetection, Tracker, TrackerConfig};
use serde::Serialize;
use std::time::Instant;

/// Per-scenario sizes: `(sequences, frames_per_sequence)`; the dense
/// crowd adds an objects-per-frame count.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotScale {
    /// KITTI-like preset size.
    pub kitti: (usize, usize),
    /// CityPersons-like preset size.
    pub citypersons: (usize, usize),
    /// Dense-crowd size: `(sequences, frames, objects_per_frame)`.
    pub dense: (usize, usize, usize),
    /// Serve fleet: `(streams, frames_per_stream)`.
    pub serve: (usize, usize),
}

impl SnapshotScale {
    /// Full snapshot (the committed `BENCH_PR4.json` numbers).
    pub fn full() -> Self {
        Self {
            kitti: (2, 150),
            citypersons: (4, 30),
            dense: (1, 50, 260),
            serve: (8, 60),
        }
    }

    /// CI smoke mode (`CATDET_BENCH_QUICK=1`).
    pub fn quick() -> Self {
        Self {
            kitti: (1, 40),
            citypersons: (2, 15),
            dense: (1, 15, 140),
            serve: (4, 20),
        }
    }

    /// Full unless `CATDET_BENCH_QUICK` is set (same switch as the
    /// criterion smoke mode).
    pub fn from_env() -> Self {
        if std::env::var_os("CATDET_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty()) {
            Self::quick()
        } else {
            Self::full()
        }
    }
}

/// A crowded street: the scenario where quadratic NMS / association /
/// region gating actually hurt. Roughly 10× the object density of the
/// CityPersons preset (the street-sim world itself self-occludes beyond
/// ~45 visible objects, so this is the preset ceiling).
pub fn dense_street_scene() -> SceneConfig {
    let mut scene = SceneConfig::city_street();
    scene.initial_cars = 35;
    scene.initial_peds = 110;
    scene.car_spawn_rate = 0.4;
    scene.ped_spawn_rate = 1.2;
    scene.max_depth = 220.0;
    scene
}

/// The dense-street dataset builder (CityPersons geometry, crowd density
/// turned up to the sim's visibility ceiling).
pub fn dense_street(sequences: usize, frames: usize) -> DatasetBuilder {
    citypersons_like()
        .scene(dense_street_scene())
        .sequences(sequences)
        .frames_per_sequence(frames)
        .seed(77)
}

/// Deterministic hash → `[0, 1)` float (splitmix64 finalizer); keeps the
/// dense-crowd builder free of any RNG dependency.
fn unit_hash(mut x: u64) -> f32 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 40) as f32 / (1u64 << 24) as f32
}

/// A synthetic dense crowd: `objects` small, independently drifting boxes
/// spread across a 2048×1024 frame (the stadium/intersection-camera
/// shape the street-sim geometry cannot reach). This is the scene where
/// every quadratic sweep in the seed hot path — NMS, association, region
/// gating — actually bites; occlusion is zero so *all* objects stay
/// annotated.
pub fn dense_crowd(sequences: usize, frames: usize, objects: usize) -> VideoDataset {
    use catdet_data::Sequence;
    use catdet_sim::GroundTruthObject;
    let (width, height) = (2048.0f32, 1024.0f32);
    let cols = (objects as f32).sqrt().ceil().max(1.0) as usize;
    let seqs = (0..sequences)
        .map(|seq| {
            let frames = (0..frames)
                .map(|index| {
                    let t = index as f32;
                    let ground_truth = (0..objects)
                        .map(|i| {
                            let key = (seq as u64) << 32 | i as u64;
                            let col = (i % cols) as f32;
                            let row = (i / cols) as f32;
                            let rows = objects.div_ceil(cols) as f32;
                            let h = 28.0 + 44.0 * unit_hash(key ^ 0x51);
                            let class = if unit_hash(key ^ 0xC1) < 0.3 {
                                ActorClass::Car
                            } else {
                                ActorClass::Pedestrian
                            };
                            let w = match class {
                                ActorClass::Car => h * (1.3 + 0.6 * unit_hash(key ^ 0x77)),
                                ActorClass::Pedestrian => h * (0.35 + 0.2 * unit_hash(key ^ 0x77)),
                            };
                            // Grid anchor + per-object drift keeps the crowd
                            // spread out and in motion without leaving frame.
                            let phase = unit_hash(key ^ 0x1F) * std::f32::consts::TAU;
                            let speed = 0.05 + 0.15 * unit_hash(key ^ 0x2F);
                            let cx = (col + 0.5) / cols as f32 * (width - 120.0)
                                + 40.0 * (speed * t + phase).sin()
                                + 20.0;
                            let cy = (row + 0.5) / rows * (height - 120.0)
                                + 25.0 * (speed * t + 1.7 * phase).cos()
                                + 20.0;
                            let bbox = Box2::from_cxcywh(cx, cy, w, h).clip(width, height);
                            GroundTruthObject {
                                track_id: key,
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
                        sequence_id: seq,
                        index,
                        ground_truth,
                        labeled: true,
                    }
                })
                .collect();
            Sequence::new(seq, 30.0, frames)
        })
        .collect();
    VideoDataset::new(
        "dense-crowd",
        width,
        height,
        vec![ActorClass::Car, ActorClass::Pedestrian],
        seqs,
    )
}

/// Builds the KITTI-preset dataset at snapshot scale.
pub fn kitti_dataset(scale: SnapshotScale) -> VideoDataset {
    kitti_like()
        .sequences(scale.kitti.0)
        .frames_per_sequence(scale.kitti.1)
        .build()
}

/// Builds the CityPersons-preset dataset at snapshot scale.
pub fn citypersons_dataset(scale: SnapshotScale) -> VideoDataset {
    citypersons_like()
        .sequences(scale.citypersons.0)
        .frames_per_sequence(scale.citypersons.1)
        .build()
}

// ---------------------------------------------------------------------
// Baseline pipeline: the seed's monolithic, allocation-heavy frame loop.
// ---------------------------------------------------------------------

/// The seed CaTDet frame loop, rebuilt from the library's reference
/// implementations (naive NMS, dense tracker association, quadratic
/// region gating, per-call pricing allocations).
pub struct BaselineCatdet {
    proposal: SimulatedDetector,
    refinement: SimulatedDetector,
    tracker: Tracker<ActorClass>,
    cfg: SystemConfig,
    width: f32,
    height: f32,
}

/// Greedy per-class NMS over the naive quadratic sweep (the seed's
/// `nms_per_class` shape: fresh buffers every call).
fn nms_per_class_naive(detections: &[Detection], iou: f32) -> Vec<Detection> {
    let mut kept = Vec::with_capacity(detections.len());
    for class in ActorClass::ALL {
        let of_class: Vec<(Box2, f32, usize)> = detections
            .iter()
            .enumerate()
            .filter(|(_, d)| d.class == class)
            .map(|(i, d)| (d.bbox, d.score, i))
            .collect();
        let scored: Vec<(Box2, f32)> = of_class.iter().map(|&(b, s, _)| (b, s)).collect();
        for idx in nms_indices_naive(&scored, iou) {
            kept.push(detections[of_class[idx].2]);
        }
    }
    kept.sort_by(|a, b| b.score.total_cmp(&a.score));
    kept
}

impl BaselineCatdet {
    /// Baseline counterpart of
    /// [`CaTDetSystem::new`](catdet_core::CaTDetSystem::new) with the
    /// paper configuration.
    pub fn new(
        proposal: DetectorModel,
        refinement: DetectorModel,
        width: f32,
        height: f32,
    ) -> Self {
        let cfg = SystemConfig::paper();
        Self {
            proposal: SimulatedDetector::new(proposal, width, height),
            refinement: SimulatedDetector::new(refinement, width, height),
            tracker: Tracker::new(
                TrackerConfig::paper()
                    .with_input_threshold(cfg.t_thresh)
                    .with_naive_association(),
            ),
            cfg,
            width,
            height,
        }
    }

    /// Clears temporal state at a sequence boundary.
    pub fn reset(&mut self) {
        self.proposal.reset();
        self.refinement.reset();
        self.tracker.reset();
    }

    /// One monolithic frame: the seed's `process_frame`, verbatim.
    pub fn process_frame(&mut self, frame: &Frame) -> FrameOutput {
        let predictions = self.tracker.predictions(self.width, self.height);
        let tracker_regions: Vec<Box2> = predictions.iter().map(|p| p.bbox).collect();

        let raw_props =
            self.proposal
                .detect_full_frame(frame.sequence_id, frame.index, &frame.ground_truth);
        let props: Vec<Detection> = raw_props
            .into_iter()
            .filter(|d| d.score >= self.cfg.c_thresh)
            .collect();
        let props = nms_per_class_naive(&props, self.cfg.nms_iou);
        let proposal_regions: Vec<Box2> = props.iter().map(|d| d.bbox).collect();

        let mut regions = tracker_regions.clone();
        regions.extend_from_slice(&proposal_regions);
        let refined = self.refinement.detect_regions_reference(
            frame.sequence_id,
            frame.index,
            &frame.ground_truth,
            &regions,
            self.cfg.margin,
        );
        let detections = nms_per_class_naive(&refined, self.cfg.nms_iou);

        let track_inputs: Vec<TrackDetection<ActorClass>> = detections
            .iter()
            .filter(|d| d.score >= self.cfg.t_thresh)
            .map(|d| TrackDetection {
                bbox: d.bbox,
                score: d.score,
                class: d.class,
            })
            .collect();
        self.tracker.update(&track_inputs);

        let proposal_macs = self
            .proposal
            .model()
            .ops
            .full_frame_macs(self.width as usize, self.height as usize);
        let spec = &self.refinement.model().ops;
        let refine_macs = refinement_macs(spec, self.width, self.height, &regions, self.cfg.margin);
        let from_tracker = refinement_macs(
            spec,
            self.width,
            self.height,
            &tracker_regions,
            self.cfg.margin,
        );
        let from_proposal = refinement_macs(
            spec,
            self.width,
            self.height,
            &proposal_regions,
            self.cfg.margin,
        );
        let coverage = masked_fraction(&regions, self.width, self.height, 16, self.cfg.margin);
        FrameOutput {
            detections,
            ops: OpsBreakdown {
                proposal: proposal_macs,
                refinement: refine_macs,
                refinement_from_tracker: from_tracker,
                refinement_from_proposal: from_proposal,
            },
            num_refinement_regions: regions.len(),
            refinement_coverage: coverage,
        }
    }
}

// ---------------------------------------------------------------------
// Measurement plumbing.
// ---------------------------------------------------------------------

/// Allocation counters sampled around a measured section; wired to the
/// binary's counting global allocator via a function pointer so the
/// library stays allocator-agnostic.
#[derive(Clone, Copy)]
pub struct AllocProbe {
    /// Returns `(allocation_count, allocated_bytes)` so far.
    pub sample: fn() -> (u64, u64),
}

impl AllocProbe {
    /// A probe that always reads zero (library tests / no counting
    /// allocator installed).
    pub fn disabled() -> Self {
        fn zero() -> (u64, u64) {
            (0, 0)
        }
        Self { sample: zero }
    }
}

/// One measured pipeline pass.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PassStats {
    /// Frames measured (steady state; warm-up pass excluded).
    pub frames: usize,
    /// Steady-state throughput.
    pub frames_per_s: f64,
    /// Mean nanoseconds per frame.
    pub ns_per_frame: f64,
    /// Mean proposal-stage nanoseconds per frame (0 when not staged).
    pub proposal_ns_per_frame: f64,
    /// Mean refinement-stage nanoseconds per frame (includes NMS and the
    /// tracker update; 0 when not staged).
    pub refinement_ns_per_frame: f64,
    /// Mean heap allocations per frame in steady state.
    pub allocs_per_frame: f64,
    /// Mean heap bytes allocated per frame in steady state.
    pub alloc_bytes_per_frame: f64,
}

/// Runs the optimized staged system over a dataset: one warm-up pass
/// (grows every scratch buffer), one measured pass.
pub fn measure_staged(ds: &VideoDataset, sys: &mut CaTDetSystem, probe: AllocProbe) -> PassStats {
    // Warm-up: grow scratch to steady state.
    for seq in ds.sequences() {
        DetectionSystem::reset(sys);
        for frame in seq.frames() {
            std::hint::black_box(sys.process_frame(frame));
        }
    }
    let mut frames = 0usize;
    let mut prop_ns = 0u128;
    let mut refine_ns = 0u128;
    let (a0, b0) = (probe.sample)();
    let t0 = Instant::now();
    for seq in ds.sequences() {
        DetectionSystem::reset(sys);
        for frame in seq.frames() {
            frames += 1;
            sys.begin_frame(frame);
            loop {
                match sys.step() {
                    StageStep::NeedsProposal(w) => {
                        let t = Instant::now();
                        sys.complete_proposal(w);
                        prop_ns += t.elapsed().as_nanos();
                    }
                    StageStep::NeedsRefinement(w) => {
                        let t = Instant::now();
                        sys.complete_refinement(w);
                        refine_ns += t.elapsed().as_nanos();
                    }
                    StageStep::Done(out) => {
                        std::hint::black_box(out);
                        break;
                    }
                }
            }
        }
    }
    let elapsed = t0.elapsed();
    let (a1, b1) = (probe.sample)();
    pass_stats(
        frames,
        elapsed.as_nanos(),
        prop_ns,
        refine_ns,
        a1 - a0,
        b1 - b0,
    )
}

/// Runs the baseline monolith over a dataset: one warm-up pass, one
/// measured pass (stage split not observable — monolithic by design).
pub fn measure_baseline(
    ds: &VideoDataset,
    sys: &mut BaselineCatdet,
    probe: AllocProbe,
) -> PassStats {
    for seq in ds.sequences() {
        sys.reset();
        for frame in seq.frames() {
            std::hint::black_box(sys.process_frame(frame));
        }
    }
    let mut frames = 0usize;
    let (a0, b0) = (probe.sample)();
    let t0 = Instant::now();
    for seq in ds.sequences() {
        sys.reset();
        for frame in seq.frames() {
            frames += 1;
            std::hint::black_box(sys.process_frame(frame));
        }
    }
    let elapsed = t0.elapsed();
    let (a1, b1) = (probe.sample)();
    pass_stats(frames, elapsed.as_nanos(), 0, 0, a1 - a0, b1 - b0)
}

/// Asserts baseline == optimized on every frame of a dataset (the
/// harness-level referee backing every ratio in the snapshot).
pub fn assert_pipelines_identical(ds: &VideoDataset, width: f32, height: f32) {
    let mut optimized = CaTDetSystem::new(
        zoo::resnet10a(2),
        zoo::resnet50(2),
        width,
        height,
        SystemConfig::paper(),
    );
    let mut baseline = BaselineCatdet::new(zoo::resnet10a(2), zoo::resnet50(2), width, height);
    for seq in ds.sequences() {
        DetectionSystem::reset(&mut optimized);
        baseline.reset();
        for frame in seq.frames() {
            let a = optimized.process_frame(frame);
            let b = baseline.process_frame(frame);
            assert_eq!(
                a, b,
                "optimized and baseline pipelines diverged on {} seq {} frame {}",
                ds.name, seq.id, frame.index
            );
        }
    }
}

fn pass_stats(
    frames: usize,
    total_ns: u128,
    prop_ns: u128,
    refine_ns: u128,
    allocs: u64,
    bytes: u64,
) -> PassStats {
    let n = frames.max(1) as f64;
    PassStats {
        frames,
        frames_per_s: if total_ns > 0 {
            n / (total_ns as f64 / 1e9)
        } else {
            0.0
        },
        ns_per_frame: total_ns as f64 / n,
        proposal_ns_per_frame: prop_ns as f64 / n,
        refinement_ns_per_frame: refine_ns as f64 / n,
        allocs_per_frame: allocs as f64 / n,
        alloc_bytes_per_frame: bytes as f64 / n,
    }
}

// ---------------------------------------------------------------------
// Report types (serialized to BENCH_PR4.json).
// ---------------------------------------------------------------------

/// Baseline/optimized pair for one pipeline scenario.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PipelineScenario {
    /// Mean annotated objects per frame (scene density).
    pub mean_objects_per_frame: f64,
    /// The seed hot path (naive NMS, dense association, quadratic
    /// gating, per-call allocations).
    pub baseline: PassStats,
    /// The grid-indexed, scratch-reusing hot path.
    pub optimized: PassStats,
    /// `optimized.frames_per_s / baseline.frames_per_s`.
    pub speedup: f64,
    /// `baseline.allocs_per_frame / optimized.allocs_per_frame`.
    pub alloc_reduction: f64,
}

/// The serve fleet scenario summary.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServeScenario {
    /// Streams in the fleet.
    pub streams: usize,
    /// Frames processed across the fleet.
    pub frames_processed: usize,
    /// Real wall-clock frames per second over the run.
    pub wall_frames_per_s: f64,
    /// Virtual-time throughput reported by the scheduler.
    pub virtual_throughput_fps: f64,
    /// Summed virtual GPU dispatch seconds.
    pub gpu_dispatch_s: f64,
    /// Mean heap allocations per processed frame (whole process,
    /// every thread included).
    pub allocs_per_frame: f64,
}

/// The whole snapshot, written to `BENCH_PR4.json` at the repo root.
#[derive(Debug, Clone, Serialize)]
pub struct Snapshot {
    /// Report schema tag.
    pub schema: String,
    /// Whether this snapshot ran in `CATDET_BENCH_QUICK` smoke mode.
    pub quick: bool,
    /// Dense-scene pipeline (the headline before/after).
    pub dense_pipeline: PipelineScenario,
    /// KITTI-preset pipeline.
    pub kitti_pipeline: PipelineScenario,
    /// CityPersons-preset pipeline.
    pub citypersons_pipeline: PipelineScenario,
    /// Multi-stream serve fleet.
    pub serve_fleet: ServeScenario,
}

/// Mean annotated objects per frame of a dataset.
pub fn mean_objects_per_frame(ds: &VideoDataset) -> f64 {
    let mut objects = 0usize;
    let mut frames = 0usize;
    for seq in ds.sequences() {
        for f in seq.frames() {
            objects += f.ground_truth.len();
            frames += 1;
        }
    }
    objects as f64 / frames.max(1) as f64
}
