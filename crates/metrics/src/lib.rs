//! Video-detection metrics: mAP and the paper's mean-Delay (mD@β).
//!
//! Two metrics evaluate every system in the paper (§5):
//!
//! * **mean Average Precision** — the standard single-image metric,
//!   computed per class from a score-ranked matching against ground truth
//!   (KITTI protocol: 70% IoU for Car, 50% for Pedestrian, with
//!   difficulty-filtered ground truth treated as *ignored* rather than
//!   false negatives).
//! * **mean Delay** — the paper's contribution: the number of frames from
//!   an object instance's first (admitted) appearance to its first
//!   detection. Because delay only penalises false negatives, it is
//!   measured **at a fixed precision operating point**: `mD@β` picks the
//!   confidence threshold `t_β` at which the mean precision over classes
//!   equals β (Eq. 4–5), then averages delay over instances and classes.
//!
//! The [`Evaluator`] consumes per-frame ground truth + detections and
//! produces both metrics plus the recall/delay-vs-precision curves of
//! Figure 7.
//!
//! # Example
//!
//! ```
//! use catdet_data::{kitti_like, Difficulty};
//! use catdet_metrics::{Detection, Evaluator};
//!
//! let ds = kitti_like().sequences(1).frames_per_sequence(30).build();
//! let mut ev = Evaluator::new(ds.classes.clone(), Difficulty::Hard);
//! for seq in ds.sequences() {
//!     for frame in seq.frames() {
//!         // A perfect detector: echo the ground truth.
//!         let dets: Vec<Detection> = frame
//!             .ground_truth
//!             .iter()
//!             .map(|o| Detection { bbox: o.bbox, score: 0.99, class: o.class })
//!             .collect();
//!         ev.add_frame(seq.id, frame.index, &frame.ground_truth, &dets, frame.labeled);
//!     }
//! }
//! assert!(ev.map() > 0.95);
//! ```

#![warn(missing_docs)]

pub mod ap;
pub mod delay;
pub mod evaluate;
pub mod matching;

pub use ap::{ap_11_point, ap_40_point, ap_continuous, PrCurve, PrPoint};
pub use delay::{DelayAccumulator, InstanceDelay};
pub use evaluate::{ApMethod, DelayReport, EvalSummary, Evaluator, OperatingPoint};
pub use matching::{match_frame, DetectionOutcome, FrameMatch};

use catdet_geom::Box2;
use catdet_sim::ActorClass;

/// A detection emitted by a detection system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Bounding box in image coordinates.
    pub bbox: Box2,
    /// Confidence score in `[0, 1]`.
    pub score: f32,
    /// Predicted class.
    pub class: ActorClass,
}
