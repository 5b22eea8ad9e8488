//! The recorder's event vocabulary: nine kinds of telemetry, each
//! reduced to plain integers/floats so the store can lay them out
//! column-wise.
//!
//! Enum-valued fields of the producing crates (scale reasons, admission
//! reasons, batch stages) travel as small integer codes — the recorder
//! sits below every catdet crate and cannot name their types. Producers
//! own the code mapping; [`Event::columns`] documents the column order
//! each kind is stored under.

/// Batch-stage code for [`Event::Batch::stage`]: a proposal micro-batch.
pub const STAGE_PROPOSAL: u64 = 0;
/// Batch-stage code for [`Event::Batch::stage`]: a refinement dispatch.
pub const STAGE_REFINEMENT: u64 = 1;

/// Decision code for [`Event::Policy::decision`]: admission downgraded the
/// stream's frame policy one rung (downgrade-before-drop engaged).
///
/// Codes 0–2 are the per-frame policy decisions owned by the core crate
/// (detect / coast / stride-skip); the two degrade-transition codes live
/// above that range.
pub const POLICY_DEGRADED_ON: u64 = 3;
/// Decision code for [`Event::Policy::decision`]: the stream's frame
/// policy was restored to its configured rung.
pub const POLICY_DEGRADED_OFF: u64 = 4;

/// The kind of a recorded event — one per telemetry source in the serving
/// fleet. Doubles as the chunk-partitioning key (chunks are homogeneous in
/// kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// One completed frame: its output summary and serving latency.
    Detection,
    /// Tracker population after a completed frame.
    Track,
    /// One stream's ride on a dispatched GPU batch.
    Batch,
    /// An autoscaler worker-count change.
    Scale,
    /// An admission-control rejection.
    Admission,
    /// A live stream migration between shards.
    Migration,
    /// A connection-lifecycle event at the network front door.
    Conn,
    /// A frame-policy decision (coast / stride-skip) or degrade transition.
    Policy,
    /// One stream's arrival-rate forecast at a control tick.
    Forecast,
}

impl EventKind {
    /// Every kind, in stable code order.
    pub const ALL: [EventKind; 9] = [
        EventKind::Detection,
        EventKind::Track,
        EventKind::Batch,
        EventKind::Scale,
        EventKind::Admission,
        EventKind::Migration,
        EventKind::Conn,
        EventKind::Policy,
        EventKind::Forecast,
    ];

    /// Stable wire/CLI code of the kind.
    pub fn code(&self) -> u8 {
        match self {
            EventKind::Detection => 0,
            EventKind::Track => 1,
            EventKind::Batch => 2,
            EventKind::Scale => 3,
            EventKind::Admission => 4,
            EventKind::Migration => 5,
            EventKind::Conn => 6,
            EventKind::Policy => 7,
            EventKind::Forecast => 8,
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        EventKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Detection => "detection",
            EventKind::Track => "track",
            EventKind::Batch => "batch",
            EventKind::Scale => "scale",
            EventKind::Admission => "admission",
            EventKind::Migration => "migration",
            EventKind::Conn => "conn",
            EventKind::Policy => "policy",
            EventKind::Forecast => "forecast",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the kind's events belong to a stream, which their chunk key
    /// carries: every kind but the fleet-level [`EventKind::Scale`].
    pub(crate) fn per_stream(&self) -> bool {
        !matches!(self, EventKind::Scale)
    }

    /// Column names of the kind's struct-of-arrays layout, in storage
    /// order (the time column is implicit and comes first in every chunk).
    pub fn columns(&self) -> &'static [&'static str] {
        match self {
            EventKind::Detection => &["seq", "frame", "detections", "latency_bits", "output_hash"],
            EventKind::Track => &["frame", "live_tracks"],
            EventKind::Batch => &["worker", "stage", "size"],
            EventKind::Scale => &["from_workers", "to_workers", "reason"],
            EventKind::Admission => &["reason"],
            EventKind::Migration => &["from_shard", "to_shard", "backlog_moved"],
            EventKind::Conn => &["code", "frame", "detail"],
            EventKind::Policy => &["frame", "decision", "streak"],
            EventKind::Forecast => &["rate_bits", "confidence_bits", "phase"],
        }
    }
}

/// One telemetry event, ready to append to the store.
///
/// Per-stream kinds carry their stream id here; it becomes part of the
/// chunk key (never a column), so per-stream scans touch only that
/// stream's chunks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A frame completed serving.
    Detection {
        /// Fleet-wide stream id.
        stream: usize,
        /// 1-based per-stream completion sequence number (the stream's
        /// `processed` counter after this frame). Replay uses it to detect
        /// gaps left by chunk eviction.
        seq: usize,
        /// The frame's index within its source sequence.
        frame_index: usize,
        /// Number of detections in the frame's output.
        detections: usize,
        /// Serving latency (completion − arrival, virtual seconds).
        latency_s: f64,
        /// Order-sensitive hash of the full detection list — the
        /// bit-exactness fingerprint replay verifies against.
        output_hash: u64,
    },
    /// Tracker state after a completed frame.
    Track {
        /// Fleet-wide stream id.
        stream: usize,
        /// The frame's index within its source sequence.
        frame_index: usize,
        /// Live tracks (including coasting ones) after the update.
        live_tracks: usize,
    },
    /// One stream's participation in a dispatched GPU batch (a batch of
    /// `size` streams is recorded as `size` rows, one per stream, so
    /// per-stream scans see their own rides without decoding others).
    Batch {
        /// Contributing fleet-wide stream id.
        stream: usize,
        /// Worker slot that ran (or opened) the dispatch.
        worker: usize,
        /// [`STAGE_PROPOSAL`] or [`STAGE_REFINEMENT`].
        stage: u64,
        /// Total streams that shared the dispatch.
        size: usize,
    },
    /// The autoscaler changed the active worker count.
    Scale {
        /// Active workers before.
        from_workers: usize,
        /// Active workers after.
        to_workers: usize,
        /// Producer-defined reason code (see the serving crate's mapping).
        reason: u64,
    },
    /// Admission control refused a frame.
    Admission {
        /// Fleet-wide stream id of the refused frame.
        stream: usize,
        /// Producer-defined reason code.
        reason: u64,
    },
    /// A stream migrated between shards.
    Migration {
        /// Fleet-wide stream id.
        stream: usize,
        /// Shard the stream left.
        from_shard: usize,
        /// Shard the stream joined.
        to_shard: usize,
        /// Queued frames relocated with it.
        backlog_moved: usize,
    },
    /// A connection-lifecycle event at the network front door
    /// (connect / disconnect / throttle / resume / door-reject).
    Conn {
        /// Fleet-wide stream id (the client's connection).
        stream: usize,
        /// Producer-defined lifecycle code (see the net crate's mapping).
        code: u64,
        /// Frame index involved (resume cursor, rejected frame, …).
        frame: usize,
        /// Producer-defined extra (window occupancy, frames offered, …).
        detail: u64,
    },
    /// A frame-policy decision on a stream. Detect frames are *not*
    /// recorded (keeping the always-detect byte stream untouched); rows
    /// appear only for coasted/stride-skipped frames and for
    /// degrade-transition markers ([`POLICY_DEGRADED_ON`] /
    /// [`POLICY_DEGRADED_OFF`], which carry `frame_index = 0`).
    Policy {
        /// Fleet-wide stream id.
        stream: usize,
        /// The frame's index within its source sequence.
        frame_index: usize,
        /// Producer-defined decision code (see the core crate's
        /// `PolicyDecision` mapping and the degrade codes above).
        decision: u64,
        /// Consecutive coasted frames after this decision.
        streak: usize,
    },
    /// One stream's arrival-rate forecast, booked at a control tick when
    /// a predictive control-plane consumer is active.
    Forecast {
        /// Fleet-wide stream id.
        stream: usize,
        /// Forecast arrival rate over the horizon (frames/s).
        rate_fps: f64,
        /// Forecaster confidence in `[0, 1]`.
        confidence: f64,
        /// Producer-defined burst-phase code (see the serving crate's
        /// `BurstPhase` mapping).
        phase: u64,
    },
}

impl Event {
    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Detection { .. } => EventKind::Detection,
            Event::Track { .. } => EventKind::Track,
            Event::Batch { .. } => EventKind::Batch,
            Event::Scale { .. } => EventKind::Scale,
            Event::Admission { .. } => EventKind::Admission,
            Event::Migration { .. } => EventKind::Migration,
            Event::Conn { .. } => EventKind::Conn,
            Event::Policy { .. } => EventKind::Policy,
            Event::Forecast { .. } => EventKind::Forecast,
        }
    }

    /// The stream the event belongs to, if any ([`Event::Scale`] is
    /// fleet-level).
    pub fn stream(&self) -> Option<usize> {
        match self {
            Event::Detection { stream, .. }
            | Event::Track { stream, .. }
            | Event::Batch { stream, .. }
            | Event::Admission { stream, .. }
            | Event::Migration { stream, .. }
            | Event::Conn { stream, .. }
            | Event::Policy { stream, .. }
            | Event::Forecast { stream, .. } => Some(*stream),
            Event::Scale { .. } => None,
        }
    }

    /// Flattens the event into its kind's column values (storage order,
    /// matching [`EventKind::columns`]).
    pub(crate) fn column_values(&self, out: &mut Vec<u64>) {
        out.clear();
        match *self {
            Event::Detection {
                seq,
                frame_index,
                detections,
                latency_s,
                output_hash,
                ..
            } => out.extend([
                seq as u64,
                frame_index as u64,
                detections as u64,
                latency_s.to_bits(),
                output_hash,
            ]),
            Event::Track {
                frame_index,
                live_tracks,
                ..
            } => out.extend([frame_index as u64, live_tracks as u64]),
            Event::Batch {
                worker,
                stage,
                size,
                ..
            } => out.extend([worker as u64, stage, size as u64]),
            Event::Scale {
                from_workers,
                to_workers,
                reason,
            } => out.extend([from_workers as u64, to_workers as u64, reason]),
            Event::Admission { reason, .. } => out.extend([reason]),
            Event::Migration {
                from_shard,
                to_shard,
                backlog_moved,
                ..
            } => out.extend([from_shard as u64, to_shard as u64, backlog_moved as u64]),
            Event::Conn {
                code,
                frame,
                detail,
                ..
            } => out.extend([code, frame as u64, detail]),
            Event::Policy {
                frame_index,
                decision,
                streak,
                ..
            } => out.extend([frame_index as u64, decision, streak as u64]),
            Event::Forecast {
                rate_fps,
                confidence,
                phase,
                ..
            } => out.extend([rate_fps.to_bits(), confidence.to_bits(), phase]),
        }
    }

    /// Rebuilds an event from its chunk key and column values (the decode
    /// half of [`column_values`](Self::column_values)).
    pub(crate) fn from_column_values(
        kind: EventKind,
        stream: Option<usize>,
        vals: &[u64],
    ) -> Option<Event> {
        Some(match kind {
            EventKind::Detection => Event::Detection {
                stream: stream?,
                seq: *vals.first()? as usize,
                frame_index: *vals.get(1)? as usize,
                detections: *vals.get(2)? as usize,
                latency_s: f64::from_bits(*vals.get(3)?),
                output_hash: *vals.get(4)?,
            },
            EventKind::Track => Event::Track {
                stream: stream?,
                frame_index: *vals.first()? as usize,
                live_tracks: *vals.get(1)? as usize,
            },
            EventKind::Batch => Event::Batch {
                stream: stream?,
                worker: *vals.first()? as usize,
                stage: *vals.get(1)?,
                size: *vals.get(2)? as usize,
            },
            EventKind::Scale => Event::Scale {
                from_workers: *vals.first()? as usize,
                to_workers: *vals.get(1)? as usize,
                reason: *vals.get(2)?,
            },
            EventKind::Admission => Event::Admission {
                stream: stream?,
                reason: *vals.first()?,
            },
            EventKind::Migration => Event::Migration {
                stream: stream?,
                from_shard: *vals.first()? as usize,
                to_shard: *vals.get(1)? as usize,
                backlog_moved: *vals.get(2)? as usize,
            },
            EventKind::Conn => Event::Conn {
                stream: stream?,
                code: *vals.first()?,
                frame: *vals.get(1)? as usize,
                detail: *vals.get(2)?,
            },
            EventKind::Policy => Event::Policy {
                stream: stream?,
                frame_index: *vals.first()? as usize,
                decision: *vals.get(1)?,
                streak: *vals.get(2)? as usize,
            },
            EventKind::Forecast => Event::Forecast {
                stream: stream?,
                rate_fps: f64::from_bits(*vals.first()?),
                confidence: f64::from_bits(*vals.get(1)?),
                phase: *vals.get(2)?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_and_names_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_code(k.code()), Some(k));
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_code(99), None);
        assert_eq!(EventKind::from_name("nope"), None);
    }

    #[test]
    fn column_values_round_trip_every_kind() {
        let events = [
            Event::Detection {
                stream: 3,
                seq: 7,
                frame_index: 41,
                detections: 5,
                latency_s: 0.01625,
                output_hash: 0xDEAD_BEEF_CAFE_F00D,
            },
            Event::Track {
                stream: 3,
                frame_index: 41,
                live_tracks: 4,
            },
            Event::Batch {
                stream: 2,
                worker: 1,
                stage: STAGE_REFINEMENT,
                size: 6,
            },
            Event::Scale {
                from_workers: 2,
                to_workers: 5,
                reason: 1,
            },
            Event::Admission {
                stream: 9,
                reason: 0,
            },
            Event::Migration {
                stream: 17,
                from_shard: 0,
                to_shard: 3,
                backlog_moved: 11,
            },
            Event::Conn {
                stream: 4,
                code: 2,
                frame: 23,
                detail: 8,
            },
            Event::Policy {
                stream: 6,
                frame_index: 12,
                decision: 1,
                streak: 3,
            },
            Event::Forecast {
                stream: 8,
                rate_fps: 27.5,
                confidence: 0.8125,
                phase: 2,
            },
        ];
        let mut vals = Vec::new();
        for e in events {
            e.column_values(&mut vals);
            assert_eq!(vals.len(), e.kind().columns().len());
            let back = Event::from_column_values(e.kind(), e.stream(), &vals).unwrap();
            assert_eq!(back, e);
        }
    }
}
