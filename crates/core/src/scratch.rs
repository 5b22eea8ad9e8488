//! Per-stream frame scratch: the reusable buffers a staged pipeline owns.
//!
//! Every system state machine ([`CaTDetSystem`](crate::CaTDetSystem),
//! [`CascadedSystem`](crate::CascadedSystem),
//! [`SingleModelSystem`](crate::SingleModelSystem)) owns one
//! [`FrameScratch`] and drives each frame through it: `begin_frame` copies
//! the frame into the scratch's owned slot (reusing the ground-truth
//! capacity — no allocation in steady state), the proposal stage fills the
//! region/detection buffers in place, and the refinement stage consumes
//! them. The scratch travels with the system across threads in
//! `catdet-serve`, so a stream keeps its warmed buffers wherever it is
//! scheduled.
//!
//! Ownership rule: scratch contents are only meaningful while a frame is
//! in flight (between `begin_frame` and the `Done` step); `reset` does not
//! clear them — the next `begin_frame` overwrites everything it reads.

use crate::system::PerClassNms;
use catdet_data::Frame;
use catdet_geom::{Box2, CoverageGrid};
use catdet_metrics::Detection;
use catdet_sim::ActorClass;
use catdet_track::{TrackDetection, TrackPrediction};

/// Reusable per-stream buffers for one in-flight frame.
#[derive(Debug, Clone)]
pub struct FrameScratch {
    /// Owned copy of the in-flight frame; the ground-truth `Vec` keeps its
    /// capacity across frames.
    pub(crate) frame: Frame,
    /// Refinement regions: tracker predictions first, then proposal boxes
    /// (the split index travels in the stage state).
    pub(crate) regions: Vec<Box2>,
    /// Raw proposal detections passing C-thresh, pre-NMS.
    pub(crate) dets: Vec<Detection>,
    /// Post-NMS proposal detections.
    pub(crate) props: Vec<Detection>,
    /// Tracker inputs (refined detections passing T-thresh).
    pub(crate) track_inputs: Vec<TrackDetection<ActorClass>>,
    /// Per-class NMS buffers.
    pub(crate) nms: PerClassNms,
    /// Stride-16 coverage raster reused by dispatch pricing: of all
    /// regions, or of the proposal regions when the tracker's are
    /// rasterised apart.
    pub(crate) coverage: CoverageGrid,
    /// Stride-16 coverage raster of the tracker regions (CaTDet).
    pub(crate) tracker_coverage: CoverageGrid,
    /// Tracker predictions of a coasted frame.
    pub(crate) predictions: Vec<TrackPrediction<ActorClass>>,
}

impl FrameScratch {
    /// Creates a scratch for frames of the given size.
    pub(crate) fn new(width: f32, height: f32) -> Self {
        Self {
            frame: Frame {
                sequence_id: 0,
                index: 0,
                ground_truth: Vec::new(),
                labeled: false,
            },
            regions: Vec::new(),
            dets: Vec::new(),
            props: Vec::new(),
            track_inputs: Vec::new(),
            nms: PerClassNms::default(),
            coverage: CoverageGrid::new(width.max(1.0), height.max(1.0), 16),
            tracker_coverage: CoverageGrid::new(width.max(1.0), height.max(1.0), 16),
            predictions: Vec::new(),
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
