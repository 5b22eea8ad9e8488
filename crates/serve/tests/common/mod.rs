//! Shared helpers for serve integration tests: a zero-cost detection
//! system, a stateful staged pipeline, and stream builders with fully
//! controlled arrival patterns.
//!
//! Compiled into every test target; not all targets use every helper.
#![allow(dead_code)]

use catdet_core::{
    DetectionSystem, FrameOutput, OpsBreakdown, ProposalWork, RefinementWork, StageStep,
    StagedDetector, SystemFactory,
};
use catdet_data::{kitti_like, Frame, StreamFrame, StreamSource};
use catdet_serve::StreamSpec;
use std::sync::{Arc, OnceLock};

/// A detection system that does no work, so tests exercise scheduling and
/// control logic rather than detector compute. Virtual frame cost is the
/// timing model's fixed frame + tracker overhead (proposal ops are zero,
/// so no launch time is added).
pub struct NullSystem;

impl DetectionSystem for NullSystem {
    fn name(&self) -> String {
        "null".into()
    }

    fn reset(&mut self) {}

    fn process_frame(&mut self, _frame: &Frame) -> FrameOutput {
        FrameOutput {
            detections: Vec::new(),
            ops: OpsBreakdown::default(),
            num_refinement_regions: 0,
            refinement_coverage: 0.0,
        }
    }
}

/// Factory stamping out [`NullSystem`]s.
pub fn null_factory() -> Arc<dyn SystemFactory> {
    Arc::new(|| Box::new(NullSystem) as Box<dyn DetectionSystem>)
}

/// A pool of real frames to attach arrivals to (built once; frame
/// contents are irrelevant to the scheduler, only identity matters).
pub fn frame_pool() -> &'static Vec<Frame> {
    static POOL: OnceLock<Vec<Frame>> = OnceLock::new();
    POOL.get_or_init(|| {
        kitti_like()
            .sequences(1)
            .frames_per_sequence(16)
            .seed(99)
            .build()
            .sequences()[0]
            .frames()
            .to_vec()
    })
}

/// A null-system stream delivering frames at the given arrival times
/// (sorted internally).
pub fn null_spec_with_arrivals(stream_id: usize, mut arrivals: Vec<f64>) -> StreamSpec {
    arrivals.sort_by(f64::total_cmp);
    let pool = frame_pool();
    let frames: Vec<StreamFrame> = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival_s)| StreamFrame {
            arrival_s,
            frame: pool[i % pool.len()].clone(),
        })
        .collect();
    StreamSpec::new(
        StreamSource::from_frames(stream_id, 10.0, 1242.0, 375.0, frames),
        null_factory(),
    )
}

/// A null-system stream ticking at a steady `fps` from `start_s`.
pub fn null_spec_steady(stream_id: usize, fps: f64, frames: usize, start_s: f64) -> StreamSpec {
    let arrivals = (0..frames).map(|i| start_s + i as f64 / fps).collect();
    null_spec_with_arrivals(stream_id, arrivals)
}

/// Where a [`ChainStages`] frame stands.
#[derive(Clone, Copy)]
enum ChainStage {
    Idle,
    Proposal,
    Refinement,
    Done,
}

/// A stateful staged pipeline with priced stages that allocates nothing
/// per frame. Each stage folds the frame into a running state, which
/// prices the next stages and stamps every output, so a refinement that
/// is lost, run twice, run out of order or booked on the wrong frame
/// changes the report. One frame in three has no refinement work.
pub struct ChainStages {
    state: u64,
    frame: usize,
    stage: ChainStage,
    seen: usize,
    /// The frame (1-based) whose `complete_refinement` panics, if any.
    panic_at: Option<usize>,
}

/// The payload [`ChainStages`] panics with, followed by the frame count.
pub const REFINE_BOOM: &str = "refine boom at frame";

fn chain_mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ChainStages {
    fn proposal_macs(&self) -> f64 {
        1e10 * (1 + self.state % 4) as f64
    }

    fn refinement_macs(&self) -> f64 {
        1e10 * (self.state % 3) as f64
    }
}

impl StagedDetector for ChainStages {
    fn name(&self) -> String {
        "chain".into()
    }

    fn reset(&mut self) {
        self.stage = ChainStage::Idle;
    }

    fn begin_frame(&mut self, frame: &Frame) {
        assert!(matches!(self.stage, ChainStage::Idle), "frame in flight");
        self.frame = frame.index;
        self.seen += 1;
        self.stage = ChainStage::Proposal;
    }

    fn step(&mut self) -> StageStep {
        match self.stage {
            ChainStage::Idle => panic!("step without a frame"),
            ChainStage::Proposal => StageStep::NeedsProposal(ProposalWork {
                macs: self.proposal_macs(),
            }),
            ChainStage::Refinement => StageStep::NeedsRefinement(RefinementWork {
                macs: self.refinement_macs(),
                num_regions: (self.state % 5) as usize,
                coverage: 0.25,
            }),
            ChainStage::Done => {
                self.stage = ChainStage::Idle;
                StageStep::Done(FrameOutput {
                    detections: Vec::new(),
                    ops: OpsBreakdown {
                        proposal: 1e10,
                        refinement: self.refinement_macs(),
                        // The state's top 52 bits, exact in an `f64`.
                        refinement_from_tracker: (self.state >> 12) as f64,
                        refinement_from_proposal: self.frame as f64,
                    },
                    num_refinement_regions: (self.state % 5) as usize,
                    refinement_coverage: 0.25,
                })
            }
        }
    }

    fn complete_proposal(&mut self, work: ProposalWork) -> ProposalWork {
        assert!(
            matches!(self.stage, ChainStage::Proposal),
            "not at proposal"
        );
        self.state = chain_mix(self.state ^ self.frame as u64);
        self.stage = ChainStage::Refinement;
        work
    }

    fn complete_refinement(&mut self, work: RefinementWork) -> RefinementWork {
        assert!(
            matches!(self.stage, ChainStage::Refinement),
            "not at refinement"
        );
        if self.panic_at == Some(self.seen) {
            panic!("{REFINE_BOOM} {}", self.seen);
        }
        self.state = chain_mix(self.state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        self.stage = ChainStage::Done;
        work
    }
}

/// Factory stamping out [`ChainStages`] seeded with `seed`, whose
/// `panic_at`-th frame panics in refinement, if that is `Some`.
pub struct ChainFactory {
    pub seed: u64,
    pub panic_at: Option<usize>,
}

impl ChainFactory {
    fn stages(&self) -> ChainStages {
        ChainStages {
            state: chain_mix(self.seed),
            frame: 0,
            stage: ChainStage::Idle,
            seen: 0,
            panic_at: self.panic_at,
        }
    }
}

impl SystemFactory for ChainFactory {
    fn build(&self) -> Box<dyn DetectionSystem> {
        Box::new(self.stages())
    }

    fn build_staged(&self) -> Box<dyn StagedDetector> {
        Box::new(self.stages())
    }
}

/// A [`ChainStages`] stream (seeded with its id) at the given arrival
/// times, whose `panic_at`-th frame panics in refinement, if that is
/// `Some`.
pub fn chain_spec_with_arrivals(
    stream_id: usize,
    arrivals: Vec<f64>,
    panic_at: Option<usize>,
) -> StreamSpec {
    let mut spec = null_spec_with_arrivals(stream_id, arrivals);
    spec.factory = Arc::new(ChainFactory {
        seed: stream_id as u64,
        panic_at,
    });
    spec
}

/// A [`ChainStages`] stream ticking at a steady `fps` from `start_s`.
pub fn chain_spec_steady(stream_id: usize, fps: f64, frames: usize, start_s: f64) -> StreamSpec {
    let arrivals = (0..frames).map(|i| start_s + i as f64 / fps).collect();
    chain_spec_with_arrivals(stream_id, arrivals, None)
}
