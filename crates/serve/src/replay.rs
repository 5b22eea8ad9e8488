//! Time-travel replay: re-drive a recorded stream bit-exactly from the
//! nearest snapshot.
//!
//! A recorded run books a [`StreamSnapshot`] every
//! [`snapshot_every_frames`](crate::RecorderConfig::snapshot_every_frames)
//! completions, at a **stage-boundary suspend point** — exactly the
//! instants live migration relies on, when the pipeline's complete
//! cross-frame state (tracker tracks *and* the detectors' sequential
//! random-stream caches) is consolidated in the system box. Replay builds
//! a fresh pipeline from the stream's factory, imports the snapshot's
//! [`PipelineState`], and re-drives exactly the frames the live run
//! processed after it (dropped frames were never seen by the pipeline, so
//! they are skipped here too). Because every scheduling decision lived in
//! virtual time, the replayed outputs are **bit-identical** to the live
//! run — verified per frame against the recorded
//! [`output_hash`](catdet_core::output_hash()).
//!
//! Streams served under a frame policy replay from the **recorded policy
//! rows**, not by re-running the decision logic: a
//! [`Policy`](catdet_recorder::EventKind::Policy) event marks each coasted
//! or stride-skipped frame, so replay coasts, skips or detects exactly as
//! the live run did — even when downgrade-before-drop toggled the
//! stream's policy class mid-run (those toggles depend on fleet-wide
//! admission state replay cannot reconstruct). A
//! [`Policied`](catdet_core::PipelineState::Policied) snapshot is
//! unwrapped to its inner pipeline state first; the wrapper's counters
//! are not needed once the decisions come from the recording. Like
//! detections, policy rows must survive chunk eviction over the replay
//! window.

use crate::scheduler::StreamSpec;
use catdet_core::{drive_frame, output_hash, PipelineState, PolicyDecision, StagedDetector};
use catdet_metrics::Detection;
use catdet_recorder::{Event, EventKind, Query, SharedRecorder};
use std::collections::HashMap;

/// Per-stream state captured at a snapshot point: the complete pipeline
/// state plus the serving counters at capture. Stored opaquely in the
/// recorder ([`catdet_recorder::Snapshot::payload`]) and downcast back
/// during replay.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// Complete cross-frame pipeline state (tracker population and the
    /// detectors' sequential stream caches).
    pub state: PipelineState,
    /// Frames arrived at capture.
    pub arrived: usize,
    /// Frames completed at capture (equals the snapshot's sequence
    /// number).
    pub processed: usize,
    /// Frames dropped at capture (backpressure + admission).
    pub dropped: usize,
    /// Frames queued at capture.
    pub queue_depth: usize,
}

/// One frame re-driven during replay, with its live-run fingerprint.
#[derive(Debug, Clone)]
pub struct ReplayedFrame {
    /// 1-based per-stream completion sequence number.
    pub seq: usize,
    /// The frame's index within its source sequence.
    pub frame_index: usize,
    /// The replayed detections.
    pub detections: Vec<Detection>,
    /// The live run's recorded output hash for this frame.
    pub recorded_hash: u64,
    /// The replayed output's hash (equals `recorded_hash` on a bit-exact
    /// replay).
    pub replayed_hash: u64,
}

/// Result of replaying one stream from the nearest snapshot.
#[derive(Debug)]
pub struct ReplayReport {
    /// Fleet-wide id of the replayed stream.
    pub stream: usize,
    /// Sequence number replay resumed after (`0` when no snapshot was
    /// usable and the stream was re-driven from the beginning).
    pub resumed_after_seq: usize,
    /// Virtual time of the snapshot replay resumed from, if any.
    pub snapshot_t_s: Option<f64>,
    /// The re-driven frames, in live completion order.
    pub frames: Vec<ReplayedFrame>,
}

impl ReplayReport {
    /// Whether every replayed frame reproduced its recorded output hash.
    pub fn verified(&self) -> bool {
        self.frames
            .iter()
            .all(|f| f.replayed_hash == f.recorded_hash)
    }

    /// Sequence numbers of frames whose replayed output diverged from the
    /// recording (empty on a bit-exact replay).
    pub fn mismatched_seqs(&self) -> Vec<usize> {
        self.frames
            .iter()
            .filter(|f| f.replayed_hash != f.recorded_hash)
            .map(|f| f.seq)
            .collect()
    }
}

/// Why a replay could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// No detection events of the stream survive at or after the resume
    /// point.
    NothingRecorded {
        /// The requested stream.
        stream: usize,
    },
    /// Chunk eviction left a hole between the resume point and the
    /// surviving events.
    EvictedGap {
        /// The requested stream.
        stream: usize,
        /// First sequence number replay needed.
        expected_seq: usize,
        /// First sequence number that survives.
        found_seq: usize,
    },
    /// Chunk eviction dropped the stream's newest completions: the
    /// surviving ones end before the recording did.
    EvictedTail {
        /// The requested stream.
        stream: usize,
        /// Last sequence number that survives.
        last_seq: usize,
        /// A later sequence number that eviction dropped.
        evicted_seq: usize,
    },
    /// The nearest snapshot's payload is not a [`StreamSnapshot`].
    ForeignSnapshot {
        /// The requested stream.
        stream: usize,
    },
    /// A recorded frame index has no frame in the provided source.
    MissingFrame {
        /// The requested stream.
        stream: usize,
        /// The recorded frame index with no source frame.
        frame_index: usize,
    },
    /// The recording coasted a frame, but the provided factory's pipeline
    /// cannot coast.
    CannotCoast {
        /// The requested stream.
        stream: usize,
        /// The recorded coast's frame index.
        frame_index: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::NothingRecorded { stream } => write!(
                f,
                "stream {stream}: no recorded completions at or after the resume point; \
                 record with a snapshot cadence and enough retention to keep the window"
            ),
            ReplayError::EvictedGap {
                stream,
                expected_seq,
                found_seq,
            } => write!(
                f,
                "stream {stream}: replay needs completion #{expected_seq} but the earliest \
                 surviving one is #{found_seq} — chunk eviction dropped the gap; raise the \
                 retention budget (--record-retention-chunks) or snapshot more often"
            ),
            ReplayError::EvictedTail {
                stream,
                last_seq,
                evicted_seq,
            } => write!(
                f,
                "stream {stream}: the surviving completions end at #{last_seq} but chunk \
                 eviction dropped #{evicted_seq}, so replay would stop short; raise the \
                 retention budget (--record-retention-chunks)"
            ),
            ReplayError::ForeignSnapshot { stream } => write!(
                f,
                "stream {stream}: the nearest snapshot was not captured by the serving \
                 engine (payload is not a StreamSnapshot)"
            ),
            ReplayError::MissingFrame {
                stream,
                frame_index,
            } => write!(
                f,
                "stream {stream}: recorded completion references frame index {frame_index} \
                 absent from the provided source — replay needs the same StreamSource the \
                 live run served"
            ),
            ReplayError::CannotCoast {
                stream,
                frame_index,
            } => write!(
                f,
                "stream {stream}: the recording coasts frame index {frame_index} but the \
                 provided factory's pipeline cannot coast — replay needs the same factory \
                 the live run served"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays `spec`'s stream from the nearest snapshot at or before
/// `from_t_s`, re-driving every recorded completion after it and verifying
/// each frame's output hash against the recording.
///
/// `spec` must describe the stream exactly as the live run served it (same
/// [`StreamSource`](catdet_data::StreamSource), same factory) — the frame
/// feed and pipeline recipe are deterministic, so this is what makes the
/// replay self-contained. When no snapshot exists at or before `from_t_s`
/// (cadence `0`, the time predates the first capture, or eviction has
/// dropped the earlier snapshots), the stream is re-driven from the
/// beginning, which needs every completion since sequence 1 to survive
/// eviction.
///
/// # Errors
///
/// See [`ReplayError`]; every variant names the retention or input fix.
pub fn replay_stream(
    recorder: &SharedRecorder,
    spec: &StreamSpec,
    from_t_s: f64,
) -> Result<ReplayReport, ReplayError> {
    let stream = spec.source.stream_id;
    let snapshot = recorder.nearest_snapshot(stream, from_t_s);
    let (resumed_after_seq, snapshot_t_s, state) = match &snapshot {
        Some(snap) => {
            let Some(payload) = snap.payload.downcast_ref::<StreamSnapshot>() else {
                return Err(ReplayError::ForeignSnapshot { stream });
            };
            (snap.seq, Some(snap.t_s), Some(payload.state.clone()))
        }
        None => (0, None, None),
    };

    // The live run's completions after the resume point, in seq order
    // (scan returns time order, which per stream is completion order).
    let recorded = recorder.scan(
        &Query::all()
            .kind(EventKind::Detection)
            .stream(stream)
            .between(snapshot_t_s.unwrap_or(f64::NEG_INFINITY), f64::INFINITY),
    );
    let mut todo: Vec<(usize, usize, u64)> = recorded
        .iter()
        .filter_map(|r| match r.event {
            Event::Detection {
                seq,
                frame_index,
                output_hash,
                ..
            } if seq > resumed_after_seq => Some((seq, frame_index, output_hash)),
            _ => None,
        })
        .collect();
    todo.sort_by_key(|&(seq, _, _)| seq);
    let Some(&(first_seq, _, _)) = todo.first() else {
        return Err(ReplayError::NothingRecorded { stream });
    };
    if first_seq != resumed_after_seq + 1 {
        return Err(ReplayError::EvictedGap {
            stream,
            expected_seq: resumed_after_seq + 1,
            found_seq: first_seq,
        });
    }
    for pair in todo.windows(2) {
        if pair[1].0 != pair[0].0 + 1 {
            return Err(ReplayError::EvictedGap {
                stream,
                expected_seq: pair[0].0 + 1,
                found_seq: pair[1].0,
            });
        }
    }
    // No gap check sees the newest completions go: compare the last
    // survivor with the highest seq eviction dropped.
    let last_seq = todo[todo.len() - 1].0;
    if let Some(evicted_seq) = recorder
        .with_store(|s| s.evicted_seq(stream))
        .filter(|&evicted| evicted > last_seq)
    {
        return Err(ReplayError::EvictedTail {
            stream,
            last_seq,
            evicted_seq,
        });
    }

    // Frame-policy decisions the live run recorded over the window: only
    // coasted/skipped frames have rows (detect frames record nothing, and
    // the degrade-transition markers carry codes outside the decision
    // range, so they fall out of `from_code` here).
    let mut decisions: HashMap<usize, PolicyDecision> = HashMap::new();
    for r in recorder.scan(
        &Query::all()
            .kind(EventKind::Policy)
            .stream(stream)
            .between(snapshot_t_s.unwrap_or(f64::NEG_INFINITY), f64::INFINITY),
    ) {
        if let Event::Policy {
            frame_index,
            decision,
            ..
        } = r.event
        {
            if let Some(d @ (PolicyDecision::Coast | PolicyDecision::Skip)) =
                PolicyDecision::from_code(decision)
            {
                decisions.insert(frame_index, d);
            }
        }
    }

    let mut system: Box<dyn StagedDetector> = spec.factory.build_staged();
    if let Some(state) = state {
        // A policied stream's wrapper state is superfluous here — the
        // recorded rows already say what each frame did — so replay drives
        // the bare pipeline from the inner state.
        system.import_state(match state {
            PipelineState::Policied { inner, .. } => *inner,
            other => other,
        });
    }
    let frames = spec.source.frames();
    let mut replayed = Vec::with_capacity(todo.len());
    for (seq, frame_index, recorded_hash) in todo {
        let Some(sf) = frames.iter().find(|sf| sf.frame.index == frame_index) else {
            return Err(ReplayError::MissingFrame {
                stream,
                frame_index,
            });
        };
        let detections = match decisions.get(&frame_index) {
            Some(PolicyDecision::Coast) => match system.coast_frame(&sf.frame) {
                Some(out) => out.detections,
                None => {
                    return Err(ReplayError::CannotCoast {
                        stream,
                        frame_index,
                    })
                }
            },
            // A stride-skipped frame never touched the live pipeline.
            Some(PolicyDecision::Skip) => Vec::new(),
            _ => drive_frame(system.as_mut(), &sf.frame).detections,
        };
        let replayed_hash = output_hash(&detections);
        replayed.push(ReplayedFrame {
            seq,
            frame_index,
            detections,
            recorded_hash,
            replayed_hash,
        });
    }
    Ok(ReplayReport {
        stream,
        resumed_after_seq,
        snapshot_t_s,
        frames: replayed,
    })
}
