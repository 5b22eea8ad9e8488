//! The resumable stage protocol: detection frames as explicit
//! proposal → refinement state machines.
//!
//! CaTDet's two networks are separate compute units with separate costs,
//! but [`DetectionSystem::process_frame`] fuses them into one opaque call —
//! a serving layer scheduling many streams can then only batch whole
//! frames. [`StagedDetector`] exposes the stage boundary instead: a frame
//! is begun with [`begin_frame`](StagedDetector::begin_frame) and advanced
//! by [`step`](StagedDetector::step), which reports where the frame is
//! suspended:
//!
//! ```text
//! begin_frame ──▶ NeedsProposal(ProposalWork) ──▶ NeedsRefinement(RefinementWork) ──▶ Done(FrameOutput)
//!                  │ complete_proposal()           │ complete_refinement()
//!                  ▼                               ▼
//!             proposal net runs               refinement net runs
//!             (full-frame scan,               (per-region heads, NMS,
//!              C-thresh, NMS)                  tracker update)
//! ```
//!
//! The [`ProposalWork`]/[`RefinementWork`] items carry the *priced*
//! quantities of the pending dispatch (MACs, region count, coverage), so a
//! scheduler can suspend a stream at a boundary, collect work items from
//! other streams, and fuse them into one GPU dispatch (`T = αΣW + b`
//! instead of `Σ(αW + b)` — the Appendix I timing model) before resuming
//! each stream with the matching `complete_*` call.
//!
//! [`DetectionSystem`] is kept as a thin blanket impl over this trait:
//! `process_frame` simply [drives the stages to completion](drive_frame),
//! so `run_collect`, the metrics pipeline and every pre-existing caller
//! work unchanged.

use crate::policy::PolicyDecision;
use crate::system::{DetectionSystem, FrameOutput};
use catdet_data::Frame;
use catdet_detector::DetectorState;
use catdet_metrics::Detection;
use catdet_recorder::{Event, FlightRecorder, STAGE_PROPOSAL, STAGE_REFINEMENT};
use catdet_sim::ActorClass;
use catdet_track::TrackerState;

/// Portable cross-frame state of a staged pipeline, captured by
/// [`StagedDetector::export_state`] and restored by
/// [`StagedDetector::import_state`].
///
/// This is the replay seam: a flight-recorder snapshot stores one of
/// these per stream, and time-travel replay rebuilds the pipeline from a
/// factory, imports the captured state, and re-drives recorded frames —
/// bit-identically, because the state is *everything* the pipeline
/// carries between frames. That is more than the tracker: the simulated
/// detectors draw from persistent per-track random streams
/// ([`DetectorState`]), so each variant carries the stream state of every
/// detector the system owns alongside any tracker state.
#[derive(Debug, Clone)]
pub enum PipelineState {
    /// A single-model system's detector stream state.
    Single {
        /// The full-frame detector.
        detector: DetectorState,
    },
    /// A plain cascade's two detector stream states.
    Cascade {
        /// The proposal network.
        proposal: DetectorState,
        /// The refinement network.
        refinement: DetectorState,
    },
    /// CaTDet: the tracker (live tracks + id allocator) plus both
    /// detector stream states.
    CaTDet {
        /// The tracker's cross-frame state.
        tracker: TrackerState<ActorClass>,
        /// The proposal network.
        proposal: DetectorState,
        /// The refinement network.
        refinement: DetectorState,
    },
    /// A frame-policy wrapper around another pipeline: the policy's
    /// cross-frame counters ride next to the inner pipeline's state, so a
    /// migrated or replayed stream makes exactly the same detect/coast
    /// decisions it would have made in place.
    Policied {
        /// Frames begun so far (the stride clock).
        frame_count: u64,
        /// Consecutive track-only frames since the last full detection.
        coast_streak: usize,
        /// Live-track count right after the last full detection — the
        /// coverage-gap reference.
        tracks_at_last_detect: usize,
        /// Whether admission has degraded this stream's policy class.
        degraded: bool,
        /// The wrapped pipeline's own state.
        inner: Box<PipelineState>,
    },
}

/// The priced work of a pending proposal-network dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposalWork {
    /// Full-frame proposal-network cost in MACs. Systems that only learn
    /// their cost by executing (see [`MonolithicStages`]) may announce
    /// `0.0` here; the figure returned by
    /// [`complete_proposal`](StagedDetector::complete_proposal) is always
    /// the executed cost.
    pub macs: f64,
}

/// The priced work of a pending refinement-network dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementWork {
    /// Refinement cost over the union of proposed regions, in MACs.
    pub macs: f64,
    /// Number of regions handed to the refinement network.
    pub num_regions: usize,
    /// Fraction of the stride-16 feature grid covered by those regions.
    pub coverage: f64,
}

/// Where a begun frame is suspended.
#[derive(Debug, Clone, PartialEq)]
pub enum StageStep {
    /// The frame is waiting for its proposal-network dispatch; resume with
    /// [`StagedDetector::complete_proposal`].
    NeedsProposal(ProposalWork),
    /// The frame is waiting for its refinement-network dispatch; resume
    /// with [`StagedDetector::complete_refinement`].
    NeedsRefinement(RefinementWork),
    /// The frame is finished; this is its output. Returning it clears the
    /// in-flight frame, so the next call must be
    /// [`begin_frame`](StagedDetector::begin_frame).
    Done(FrameOutput),
}

/// A detection system whose frames advance through explicit, resumable
/// proposal/refinement stages.
///
/// At most one frame is in flight per instance. The protocol per frame is
/// strict: `begin_frame`, then alternate `step` (to observe the suspend
/// point) with the matching `complete_*` call until `step` returns
/// [`StageStep::Done`]. Implementations panic on out-of-order calls — a
/// protocol violation is a scheduler bug, never data-dependent.
///
/// Like [`DetectionSystem`], implementations are `Send` and own all
/// temporal state, so a serving layer can suspend a stream at a stage
/// boundary and migrate it between workers.
pub trait StagedDetector: Send {
    /// Human-readable system name (used in experiment tables).
    fn name(&self) -> String;

    /// Clears temporal state at a sequence boundary, including any frame
    /// in flight.
    fn reset(&mut self);

    /// Starts processing a frame.
    ///
    /// # Panics
    ///
    /// Panics if a previous frame is still in flight.
    fn begin_frame(&mut self, frame: &Frame);

    /// Reports where the in-flight frame is suspended.
    ///
    /// # Panics
    ///
    /// Panics if no frame is in flight.
    fn step(&mut self) -> StageStep;

    /// Executes the proposal stage and returns the work as executed
    /// (echoing `work` for systems that priced it exactly up front).
    ///
    /// # Panics
    ///
    /// Panics if the frame is not suspended at the proposal boundary.
    fn complete_proposal(&mut self, work: ProposalWork) -> ProposalWork;

    /// Executes the refinement stage and returns the work as executed.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not suspended at the refinement boundary.
    fn complete_refinement(&mut self, work: RefinementWork) -> RefinementWork;

    /// Captures the pipeline's cross-frame state for a replay snapshot,
    /// or `None` if the system cannot be snapshotted (e.g. an adapted
    /// opaque system). Must only be called at a frame boundary (no frame
    /// in flight) — mid-frame state is not portable.
    fn export_state(&self) -> Option<PipelineState> {
        None
    }

    /// Restores state captured by [`export_state`](Self::export_state)
    /// into a pipeline built from the same factory/configuration.
    ///
    /// # Panics
    ///
    /// Panics if the system does not support snapshots, or if the state
    /// variant does not match the system's shape.
    fn import_state(&mut self, _state: PipelineState) {
        panic!(
            "{} does not support state import; time-travel replay needs a \
             snapshot-capable system (build it from a preset factory)",
            StagedDetector::name(self)
        );
    }

    /// Live tracks carried between frames (0 for untracked systems) —
    /// the flight recorder's track-population telemetry.
    fn live_tracks(&self) -> usize {
        0
    }

    /// Completes a frame from tracker state alone — the Kalman coast of
    /// the detect-or-track policy layer. Predicted boxes become the
    /// frame's detections, a cheap validate pass is priced over their
    /// regions, and the tracker ages one frame. Returns `None` for
    /// systems that carry no tracker (the policy then falls back to a
    /// full detection). Must be called at a frame boundary; the frame
    /// completes immediately (no suspend points).
    fn coast_frame(&mut self, _frame: &Frame) -> Option<FrameOutput> {
        None
    }

    /// Mean adaptive confidence over live tracks, or `None` when no
    /// tracks are live (or the system is untracked) — the
    /// confidence-trigger policy's decay signal.
    fn mean_track_confidence(&self) -> Option<f64> {
        None
    }

    /// The policy decision made for the most recently begun frame, or
    /// `None` for unpoliced pipelines — the scheduler's per-frame
    /// coasted/skipped accounting hook.
    fn policy_decision(&self) -> Option<PolicyDecision> {
        None
    }

    /// Consecutive coasted frames ending at the current frame boundary
    /// (0 for unpoliced pipelines) — recorded in policy events.
    fn policy_coast_streak(&self) -> usize {
        0
    }

    /// Degrades (or restores) the pipeline's policy class — admission's
    /// downgrade-before-drop rung. Returns `false` if the pipeline has no
    /// policy layer and cannot degrade.
    fn set_degraded(&mut self, _on: bool) -> bool {
        false
    }
}

/// Drives a begun-or-new frame through every stage to completion — the
/// monolithic `process_frame` semantics expressed over the protocol.
pub fn drive_frame<T: StagedDetector + ?Sized>(system: &mut T, frame: &Frame) -> FrameOutput {
    system.begin_frame(frame);
    loop {
        match system.step() {
            StageStep::NeedsProposal(work) => {
                system.complete_proposal(work);
            }
            StageStep::NeedsRefinement(work) => {
                system.complete_refinement(work);
            }
            StageStep::Done(output) => return output,
        }
    }
}

/// Order-sensitive 64-bit fingerprint of a detection list, hashing the
/// exact bit patterns of every box coordinate, score and class.
///
/// Two outputs hash equal iff they are bit-identical (up to the
/// astronomically unlikely collision), which is what the flight recorder
/// stores per completed frame and what time-travel replay verifies
/// against — comparing hashes instead of shipping full detection lists
/// keeps the recorded column at eight bytes per frame.
pub fn output_hash(detections: &[Detection]) -> u64 {
    // SplitMix64 finalizer over an FNV-style running state: cheap, and
    // every input bit diffuses into the final value.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }
    let mut h = 0xcbf29ce484222325u64 ^ mix(detections.len() as u64);
    for d in detections {
        for bits in [
            d.bbox.x1.to_bits(),
            d.bbox.y1.to_bits(),
            d.bbox.x2.to_bits(),
            d.bbox.y2.to_bits(),
            d.score.to_bits(),
            d.class as u32,
        ] {
            h = mix(h ^ bits as u64);
        }
    }
    h
}

/// [`drive_frame`], with every stage booked into a [`FlightRecorder`]:
/// one batch row per stage dispatch (singleton batches — the standalone
/// drive loop has no cross-stream fusion), then the frame's detection
/// summary and track population.
///
/// `stream` and `seq` are the caller's recording coordinates (stream id
/// and 1-based completion sequence); `t_s` is the virtual time the frame
/// is booked at. Latency is recorded as `0.0` — serving latency is a
/// scheduler concept, and the standalone drive loop completes frames the
/// instant they arrive. When the recorder is disabled this is exactly
/// [`drive_frame`].
pub fn drive_frame_recorded<T: StagedDetector + ?Sized>(
    system: &mut T,
    frame: &Frame,
    stream: usize,
    seq: usize,
    t_s: f64,
    recorder: &mut dyn FlightRecorder,
) -> FrameOutput {
    if !recorder.enabled() {
        return drive_frame(system, frame);
    }
    system.begin_frame(frame);
    let output = loop {
        match system.step() {
            StageStep::NeedsProposal(work) => {
                system.complete_proposal(work);
                recorder.record(
                    t_s,
                    Event::Batch {
                        stream,
                        worker: 0,
                        stage: STAGE_PROPOSAL,
                        size: 1,
                    },
                );
            }
            StageStep::NeedsRefinement(work) => {
                system.complete_refinement(work);
                recorder.record(
                    t_s,
                    Event::Batch {
                        stream,
                        worker: 0,
                        stage: STAGE_REFINEMENT,
                        size: 1,
                    },
                );
            }
            StageStep::Done(output) => break output,
        }
    };
    recorder.record(
        t_s,
        Event::Detection {
            stream,
            seq,
            frame_index: frame.index,
            detections: output.detections.len(),
            latency_s: 0.0,
            output_hash: output_hash(&output.detections),
        },
    );
    recorder.record(
        t_s,
        Event::Track {
            stream,
            frame_index: frame.index,
            live_tracks: system.live_tracks(),
        },
    );
    output
}

/// Every staged detector is a [`DetectionSystem`]: `process_frame` drives
/// the stages to [`StageStep::Done`]. This is the compatibility bridge
/// that keeps `run_collect`, the evaluators and all pre-redesign callers
/// working unchanged.
impl<T: StagedDetector> DetectionSystem for T {
    fn name(&self) -> String {
        StagedDetector::name(self)
    }

    fn reset(&mut self) {
        StagedDetector::reset(self)
    }

    fn process_frame(&mut self, frame: &Frame) -> FrameOutput {
        drive_frame(self, frame)
    }
}

impl StagedDetector for Box<dyn StagedDetector> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn reset(&mut self) {
        self.as_mut().reset()
    }

    fn begin_frame(&mut self, frame: &Frame) {
        self.as_mut().begin_frame(frame)
    }

    fn step(&mut self) -> StageStep {
        self.as_mut().step()
    }

    fn complete_proposal(&mut self, work: ProposalWork) -> ProposalWork {
        self.as_mut().complete_proposal(work)
    }

    fn complete_refinement(&mut self, work: RefinementWork) -> RefinementWork {
        self.as_mut().complete_refinement(work)
    }

    fn export_state(&self) -> Option<PipelineState> {
        self.as_ref().export_state()
    }

    fn import_state(&mut self, state: PipelineState) {
        self.as_mut().import_state(state)
    }

    fn live_tracks(&self) -> usize {
        self.as_ref().live_tracks()
    }

    fn coast_frame(&mut self, frame: &Frame) -> Option<FrameOutput> {
        self.as_mut().coast_frame(frame)
    }

    fn mean_track_confidence(&self) -> Option<f64> {
        self.as_ref().mean_track_confidence()
    }

    fn policy_decision(&self) -> Option<PolicyDecision> {
        self.as_ref().policy_decision()
    }

    fn policy_coast_streak(&self) -> usize {
        self.as_ref().policy_coast_streak()
    }

    fn set_degraded(&mut self, on: bool) -> bool {
        self.as_mut().set_degraded(on)
    }
}

enum MonoStage {
    Idle,
    AwaitProposal { frame: Frame },
    AwaitRefinement { output: FrameOutput },
    Finished { output: FrameOutput },
}

/// Adapts an opaque [`DetectionSystem`] to the stage protocol.
///
/// The wrapped system's costs are only known by running it, so the whole
/// `process_frame` executes inside
/// [`complete_proposal`](StagedDetector::complete_proposal) — the
/// announced [`ProposalWork`] is `0.0` MACs, and the *executed* figures
/// (the returned work and the subsequent [`StageStep::NeedsRefinement`])
/// report the frame's true `ops` split. A scheduler pricing dispatches
/// from executed work therefore accounts adapted systems exactly; it just
/// cannot plan around their costs in advance the way it can for native
/// staged systems.
pub struct MonolithicStages {
    inner: Box<dyn DetectionSystem>,
    stage: MonoStage,
}

impl MonolithicStages {
    /// Wraps a monolithic system.
    pub fn new(inner: Box<dyn DetectionSystem>) -> Self {
        Self {
            inner,
            stage: MonoStage::Idle,
        }
    }
}

impl StagedDetector for MonolithicStages {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.stage = MonoStage::Idle;
        self.inner.reset();
    }

    fn begin_frame(&mut self, frame: &Frame) {
        assert!(
            matches!(self.stage, MonoStage::Idle),
            "begin_frame while a frame is in flight"
        );
        self.stage = MonoStage::AwaitProposal {
            frame: frame.clone(),
        };
    }

    fn step(&mut self) -> StageStep {
        match &self.stage {
            MonoStage::Idle => panic!("step without begin_frame"),
            MonoStage::AwaitProposal { .. } => StageStep::NeedsProposal(ProposalWork { macs: 0.0 }),
            MonoStage::AwaitRefinement { output } => StageStep::NeedsRefinement(RefinementWork {
                macs: output.ops.refinement,
                num_regions: output.num_refinement_regions,
                coverage: output.refinement_coverage,
            }),
            MonoStage::Finished { .. } => {
                let MonoStage::Finished { output } =
                    std::mem::replace(&mut self.stage, MonoStage::Idle)
                else {
                    unreachable!()
                };
                StageStep::Done(output)
            }
        }
    }

    fn complete_proposal(&mut self, _work: ProposalWork) -> ProposalWork {
        let MonoStage::AwaitProposal { frame } =
            std::mem::replace(&mut self.stage, MonoStage::Idle)
        else {
            panic!("complete_proposal outside the proposal boundary");
        };
        let output = self.inner.process_frame(&frame);
        let executed = ProposalWork {
            macs: output.ops.proposal,
        };
        self.stage = MonoStage::AwaitRefinement { output };
        executed
    }

    fn complete_refinement(&mut self, _work: RefinementWork) -> RefinementWork {
        let MonoStage::AwaitRefinement { output } =
            std::mem::replace(&mut self.stage, MonoStage::Idle)
        else {
            panic!("complete_refinement outside the refinement boundary");
        };
        // Executed figures come from the wrapped system's output, never
        // from the caller-supplied token.
        let executed = RefinementWork {
            macs: output.ops.refinement,
            num_regions: output.num_refinement_regions,
            coverage: output.refinement_coverage,
        };
        self.stage = MonoStage::Finished { output };
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catdet::CaTDetSystem;
    use crate::single::SingleModelSystem;
    use catdet_data::kitti_like;

    #[test]
    fn catdet_walks_proposal_then_refinement_then_done() {
        let ds = kitti_like().sequences(1).frames_per_sequence(5).build();
        let mut sys = CaTDetSystem::catdet_a();
        for frame in ds.sequences()[0].frames() {
            sys.begin_frame(frame);
            let StageStep::NeedsProposal(prop) = sys.step() else {
                panic!("expected proposal boundary first");
            };
            assert!(prop.macs > 0.0, "native proposal work is priced up front");
            let executed = sys.complete_proposal(prop);
            assert_eq!(executed.macs, prop.macs);
            let StageStep::NeedsRefinement(refine) = sys.step() else {
                panic!("expected refinement boundary after proposal");
            };
            sys.complete_refinement(refine);
            let StageStep::Done(out) = sys.step() else {
                panic!("expected Done after refinement");
            };
            assert_eq!(out.ops.proposal, prop.macs);
            assert_eq!(out.ops.refinement, refine.macs);
            assert_eq!(out.num_refinement_regions, refine.num_regions);
            assert_eq!(out.refinement_coverage, refine.coverage);
        }
    }

    #[test]
    fn single_model_skips_the_proposal_boundary() {
        let ds = kitti_like().sequences(1).frames_per_sequence(2).build();
        let mut sys = SingleModelSystem::resnet50_kitti();
        sys.begin_frame(&ds.sequences()[0].frames()[0]);
        let StageStep::NeedsRefinement(work) = sys.step() else {
            panic!("single model suspends straight at refinement");
        };
        assert!(work.macs > 0.0);
        assert_eq!(work.num_regions, 0);
        sys.complete_refinement(work);
        let StageStep::Done(out) = sys.step() else {
            panic!("expected Done");
        };
        assert_eq!(out.ops.refinement, work.macs);
        assert_eq!(out.ops.proposal, 0.0);
    }

    #[test]
    fn drive_frame_equals_process_frame() {
        let ds = kitti_like().sequences(1).frames_per_sequence(10).build();
        let mut a = CaTDetSystem::catdet_a();
        let mut b = CaTDetSystem::catdet_a();
        for frame in ds.sequences()[0].frames() {
            assert_eq!(drive_frame(&mut a, frame), b.process_frame(frame));
        }
    }

    #[test]
    fn monolithic_adapter_reports_executed_costs() {
        let ds = kitti_like().sequences(1).frames_per_sequence(4).build();
        let mut reference = CaTDetSystem::catdet_a();
        let mut adapted = MonolithicStages::new(Box::new(CaTDetSystem::catdet_a()));
        for frame in ds.sequences()[0].frames() {
            let expect = reference.process_frame(frame);
            adapted.begin_frame(frame);
            let StageStep::NeedsProposal(announced) = adapted.step() else {
                panic!("adapter starts at the proposal boundary");
            };
            assert_eq!(announced.macs, 0.0, "opaque cost is unknown up front");
            let executed = adapted.complete_proposal(announced);
            assert_eq!(executed.macs, expect.ops.proposal);
            let StageStep::NeedsRefinement(work) = adapted.step() else {
                panic!("adapter suspends at the refinement boundary");
            };
            assert_eq!(work.macs, expect.ops.refinement);
            adapted.complete_refinement(work);
            let StageStep::Done(out) = adapted.step() else {
                panic!("expected Done");
            };
            assert_eq!(out, expect);
        }
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn begin_frame_twice_is_a_protocol_violation() {
        let ds = kitti_like().sequences(1).frames_per_sequence(2).build();
        let mut sys = CaTDetSystem::catdet_a();
        sys.begin_frame(&ds.sequences()[0].frames()[0]);
        sys.begin_frame(&ds.sequences()[0].frames()[1]);
    }

    #[test]
    #[should_panic(expected = "refinement boundary")]
    fn completing_the_wrong_stage_panics() {
        let ds = kitti_like().sequences(1).frames_per_sequence(1).build();
        let mut sys = CaTDetSystem::catdet_a();
        sys.begin_frame(&ds.sequences()[0].frames()[0]);
        sys.complete_refinement(RefinementWork {
            macs: 0.0,
            num_regions: 0,
            coverage: 0.0,
        });
    }

    #[test]
    fn exported_state_resumes_bit_identically() {
        let ds = kitti_like().sequences(1).frames_per_sequence(12).build();
        let frames = ds.sequences()[0].frames();
        let mut live = CaTDetSystem::catdet_a();
        for frame in &frames[..6] {
            drive_frame(&mut live, frame);
        }
        let state = live.export_state().expect("catdet exports state");
        let mut resumed = CaTDetSystem::catdet_a();
        resumed.import_state(state);
        for frame in &frames[6..] {
            assert_eq!(
                drive_frame(&mut resumed, frame),
                drive_frame(&mut live, frame)
            );
            assert_eq!(resumed.live_tracks(), live.live_tracks());
        }
    }

    #[test]
    fn boxed_detector_forwards_state_methods() {
        let ds = kitti_like().sequences(1).frames_per_sequence(4).build();
        let mut boxed: Box<dyn StagedDetector> = Box::new(CaTDetSystem::catdet_a());
        for frame in ds.sequences()[0].frames() {
            drive_frame(&mut boxed, frame);
        }
        let state = boxed.export_state().expect("forwarded export");
        assert!(matches!(state, PipelineState::CaTDet { .. }));
        boxed.import_state(state);
        assert_eq!(
            boxed.live_tracks(),
            match boxed.export_state() {
                Some(PipelineState::CaTDet { tracker, .. }) => tracker.tracks.len(),
                _ => unreachable!(),
            }
        );
        // Policy-layer hooks forward through the box too: a bare CaTDet
        // coasts (it has a tracker) and reports confidence, but carries
        // no policy layer of its own.
        assert_eq!(
            boxed.mean_track_confidence().is_some(),
            boxed.live_tracks() > 0
        );
        assert_eq!(boxed.policy_decision(), None);
        assert_eq!(boxed.policy_coast_streak(), 0);
        assert!(!boxed.set_degraded(true));
        let coasted = boxed
            .coast_frame(&ds.sequences()[0].frames()[0])
            .expect("tracked pipelines coast");
        assert_eq!(coasted.ops.proposal, 0.0);
    }

    #[test]
    fn monolithic_adapter_cannot_snapshot() {
        let adapted = MonolithicStages::new(Box::new(CaTDetSystem::catdet_a()));
        assert!(adapted.export_state().is_none());
    }

    #[test]
    fn output_hash_separates_any_bit_flip() {
        use catdet_geom::Box2;
        use catdet_sim::ActorClass;
        let base = vec![Detection {
            bbox: Box2 {
                x1: 1.0,
                y1: 2.0,
                x2: 3.0,
                y2: 4.0,
            },
            score: 0.5,
            class: ActorClass::Car,
        }];
        let h = output_hash(&base);
        assert_eq!(h, output_hash(&base.clone()));
        let mut nudged = base.clone();
        nudged[0].score = f32::from_bits(nudged[0].score.to_bits() ^ 1);
        assert_ne!(h, output_hash(&nudged));
        let mut reclassed = base.clone();
        reclassed[0].class = ActorClass::Pedestrian;
        assert_ne!(h, output_hash(&reclassed));
        assert_ne!(h, output_hash(&[]));
        assert_ne!(output_hash(&[]), 0);
    }

    #[test]
    fn recorded_drive_matches_plain_drive_and_books_events() {
        use catdet_recorder::{EventKind, NullRecorder, Query, SharedRecorder};
        let ds = kitti_like().sequences(1).frames_per_sequence(5).build();
        let frames = ds.sequences()[0].frames();
        let mut plain = CaTDetSystem::catdet_a();
        let mut nulled = CaTDetSystem::catdet_a();
        let mut recorded = CaTDetSystem::catdet_a();
        let shared = SharedRecorder::new(4, usize::MAX, 0);
        let mut handle = shared.barrier_handle(0);
        for (i, frame) in frames.iter().enumerate() {
            let expect = drive_frame(&mut plain, frame);
            let with_null =
                drive_frame_recorded(&mut nulled, frame, 3, i + 1, i as f64, &mut NullRecorder);
            let with_rec =
                drive_frame_recorded(&mut recorded, frame, 3, i + 1, i as f64, &mut handle);
            assert_eq!(with_null, expect);
            assert_eq!(with_rec, expect);
        }
        handle.flush();
        shared.seal_open_chunks();
        let dets = shared.scan(&Query::all().kind(EventKind::Detection));
        assert_eq!(dets.len(), frames.len());
        let Event::Detection {
            seq,
            output_hash: h,
            ..
        } = dets.last().unwrap().event
        else {
            panic!("expected detection event");
        };
        assert_eq!(seq, frames.len());
        assert_ne!(h, 0);
        // One proposal + one refinement batch row per frame, plus track rows.
        assert_eq!(
            shared.scan(&Query::all().kind(EventKind::Batch)).len(),
            2 * frames.len()
        );
        assert_eq!(
            shared.scan(&Query::all().kind(EventKind::Track)).len(),
            frames.len()
        );
    }

    #[test]
    fn reset_clears_an_in_flight_frame() {
        let ds = kitti_like().sequences(1).frames_per_sequence(2).build();
        let mut sys = CaTDetSystem::catdet_a();
        sys.begin_frame(&ds.sequences()[0].frames()[0]);
        StagedDetector::reset(&mut sys);
        // A fresh frame can be begun after reset.
        sys.begin_frame(&ds.sequences()[0].frames()[1]);
        assert!(matches!(sys.step(), StageStep::NeedsProposal(_)));
    }
}
