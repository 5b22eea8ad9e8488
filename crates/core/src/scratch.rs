//! Frame scratch: what a staged pipeline keeps between its calls, and the
//! buffers its calls borrow from their thread.
//!
//! Ownership rule: **a pipeline owns what lives between frames; its
//! thread owns what lives within a call.**
//!
//! Every system state machine ([`CaTDetSystem`](crate::CaTDetSystem),
//! [`CascadedSystem`](crate::CascadedSystem),
//! [`SingleModelSystem`](crate::SingleModelSystem)) owns one
//! [`FrameScratch`]: the in-flight frame copy, which `begin_frame` writes
//! and both stages read, and the refinement regions, which the proposal
//! stage writes and the refinement stage reads. Both outlive a call — in
//! `catdet-serve` a frame's refinement may even run on another thread
//! than its proposal — so they travel with the system. `begin_frame`
//! reuses the ground-truth capacity, so neither allocates in steady
//! state.
//!
//! Everything else a stage call uses lives only within that call: the
//! raw and post-NMS detections, the tracker inputs, a coasted frame's
//! predictions, the NMS buffers and the coverage rasters. That is a
//! `StageScratch`, and each thread keeps one: a call takes it and puts it
//! back, so a thread driving a thousand pipelines grows one set of
//! buffers, not a thousand, and no result reads what an earlier call left
//! in them. The simulated detector and the tracker keep their own
//! per-call buffers the same way.
//!
//! Frame-scratch contents are only meaningful while a frame is in flight
//! (between `begin_frame` and the `Done` step); `reset` does not clear
//! them — the next `begin_frame` overwrites everything it reads.

use crate::system::PerClassNms;
use catdet_data::Frame;
use catdet_geom::{Box2, CoverageGrid};
use catdet_metrics::Detection;
use catdet_sim::ActorClass;
use catdet_track::{TrackDetection, TrackPrediction};
use std::cell::Cell;

/// The per-stream buffers that live between a pipeline's calls.
#[derive(Debug, Clone)]
pub struct FrameScratch {
    /// Owned copy of the in-flight frame; the ground-truth `Vec` keeps its
    /// capacity across frames.
    pub(crate) frame: Frame,
    /// Refinement regions: tracker predictions first, then proposal boxes
    /// (the split index travels in the stage state).
    pub(crate) regions: Vec<Box2>,
}

impl FrameScratch {
    /// Creates an empty scratch.
    pub(crate) fn new() -> Self {
        Self {
            frame: Frame {
                sequence_id: 0,
                index: 0,
                ground_truth: Vec::new(),
                labeled: false,
            },
            regions: Vec::new(),
        }
    }

    /// Copies `frame` into the owned slot, reusing the ground-truth
    /// buffer's capacity (objects are `Copy`, so this is a memcpy).
    pub(crate) fn load_frame(&mut self, frame: &Frame) {
        self.frame.sequence_id = frame.sequence_id;
        self.frame.index = frame.index;
        self.frame.labeled = frame.labeled;
        self.frame.ground_truth.clear();
        self.frame
            .ground_truth
            .extend_from_slice(&frame.ground_truth);
    }
}

/// The buffers of one stage call, owned by the calling thread (see the
/// module docs). Every user clears or re-targets a buffer before it reads
/// it.
#[derive(Debug, Default)]
pub(crate) struct StageScratch {
    /// Raw detections of the call's detector.
    pub(crate) dets: Vec<Detection>,
    /// Post-NMS detections.
    pub(crate) kept: Vec<Detection>,
    /// Tracker inputs (refined detections passing T-thresh).
    pub(crate) track_inputs: Vec<TrackDetection<ActorClass>>,
    /// Per-class NMS buffers.
    pub(crate) nms: PerClassNms,
    /// Stride-16 coverage raster: of all regions, or of the proposal
    /// regions when the tracker's are rasterised apart.
    pub(crate) coverage: CoverageGrid,
    /// Stride-16 coverage raster of the tracker regions (CaTDet).
    pub(crate) tracker_coverage: CoverageGrid,
    /// Tracker predictions of a coasted frame.
    pub(crate) predictions: Vec<TrackPrediction<ActorClass>>,
    /// A coasted frame's predictions in output order.
    pub(crate) order: Vec<u32>,
}

thread_local! {
    static STAGE_SCRATCH: Cell<StageScratch> = Cell::new(StageScratch::default());
}

impl StageScratch {
    /// Takes the calling thread's scratch; [`put`](Self::put) returns it.
    /// A call nested inside another would get a fresh, empty one.
    pub(crate) fn take() -> Self {
        STAGE_SCRATCH.take()
    }

    /// Returns the scratch to the calling thread for its next call.
    pub(crate) fn put(self) {
        STAGE_SCRATCH.set(self);
    }
}
