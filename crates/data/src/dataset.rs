//! Dataset containers: frames, sequences, datasets.

use catdet_sim::{ActorClass, GroundTruthObject};

/// One video frame with its annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Which sequence this frame belongs to.
    pub sequence_id: usize,
    /// Index within the sequence.
    pub index: usize,
    /// Ground-truth objects visible in this frame.
    pub ground_truth: Vec<GroundTruthObject>,
    /// Whether this frame carries evaluation labels. Sparsely annotated
    /// datasets (CityPersons) run the detector on every frame but score
    /// only the labelled ones.
    pub labeled: bool,
}

/// A contiguous video sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    /// Sequence identity within the dataset.
    pub id: usize,
    /// Frame rate (informational; the delay metric is in frames).
    pub fps: f32,
    frames: Vec<Frame>,
}

impl Sequence {
    /// Creates a sequence from its frames.
    ///
    /// # Panics
    ///
    /// Panics if any frame's `sequence_id` disagrees with `id` or frames
    /// are not consecutively indexed from zero.
    pub fn new(id: usize, fps: f32, frames: Vec<Frame>) -> Self {
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.sequence_id, id, "frame belongs to another sequence");
            assert_eq!(f.index, i, "frames must be consecutively indexed");
        }
        Self { id, fps, frames }
    }

    /// The frames, in order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the sequence has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// A complete video-detection dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoDataset {
    /// Dataset name (e.g. `"kitti-like"`).
    pub name: String,
    /// Frame width in pixels.
    pub width: f32,
    /// Frame height in pixels.
    pub height: f32,
    /// Classes evaluated on this dataset.
    pub classes: Vec<ActorClass>,
    sequences: Vec<Sequence>,
}

impl VideoDataset {
    /// Assembles a dataset.
    pub fn new(
        name: impl Into<String>,
        width: f32,
        height: f32,
        classes: Vec<ActorClass>,
        sequences: Vec<Sequence>,
    ) -> Self {
        Self {
            name: name.into(),
            width,
            height,
            classes,
            sequences,
        }
    }

    /// The sequences.
    pub fn sequences(&self) -> &[Sequence] {
        &self.sequences
    }

    /// Total frame count across sequences.
    pub fn total_frames(&self) -> usize {
        self.sequences.iter().map(|s| s.len()).sum()
    }

    /// Number of labelled frames.
    pub fn labeled_frames(&self) -> usize {
        self.sequences
            .iter()
            .flat_map(|s| s.frames())
            .filter(|f| f.labeled)
            .count()
    }

    /// Total number of ground-truth annotations on labelled frames.
    pub fn labeled_annotations(&self) -> usize {
        self.sequences
            .iter()
            .flat_map(|s| s.frames())
            .filter(|f| f.labeled)
            .map(|f| f.ground_truth.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: usize, idx: usize) -> Frame {
        Frame {
            sequence_id: seq,
            index: idx,
            ground_truth: vec![],
            labeled: true,
        }
    }

    #[test]
    fn sequence_accepts_consistent_frames() {
        let s = Sequence::new(3, 10.0, vec![frame(3, 0), frame(3, 1)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "another sequence")]
    fn sequence_rejects_foreign_frames() {
        let _ = Sequence::new(3, 10.0, vec![frame(4, 0)]);
    }

    #[test]
    #[should_panic(expected = "consecutively")]
    fn sequence_rejects_gaps() {
        let _ = Sequence::new(3, 10.0, vec![frame(3, 0), frame(3, 2)]);
    }

    #[test]
    fn dataset_counts() {
        let s0 = Sequence::new(0, 10.0, vec![frame(0, 0), frame(0, 1)]);
        let mut f = frame(1, 0);
        f.labeled = false;
        let s1 = Sequence::new(1, 10.0, vec![f]);
        let ds = VideoDataset::new("t", 100.0, 50.0, vec![ActorClass::Car], vec![s0, s1]);
        assert_eq!(ds.total_frames(), 3);
        assert_eq!(ds.labeled_frames(), 2);
        assert_eq!(ds.labeled_annotations(), 0);
    }
}
