//! The CamLink connection state machine: the server-side view of one
//! camera connection, yielding decoded frames as they finish arriving on
//! the simulated wire.
//!
//! A connection runs on its caller's clock, passed to every call: waiting
//! for a delivery moves the clock forward to it, and a caller that does
//! not ask for the next frame is backpressure (a throttled door stops
//! reading the socket, and the connection's remaining traffic is
//! scheduled later). Clients share no state, so each one's clock is all
//! its timeline depends on.

use crate::codec::{encode_synth_record, Decoder, RecordHeader};
use crate::sim::{SendOutcome, SimLink};

/// One frame as delivered by a connection: which capture it was and when
/// its last byte arrived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SourcedFrame {
    /// Index into the camera's capture sequence.
    pub frame_index: usize,
    /// When the camera captured it (wire timestamp).
    pub capture_s: f64,
    /// When its record finished arriving at the door.
    pub delivered_s: f64,
}

/// Connection-lifecycle notifications a [`CamLinkSource`] emits while it
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkNotice {
    /// The camera connected (stream start or reconnect is separate).
    Connect,
    /// The connection dropped mid-record; in-flight bytes were lost.
    Disconnect,
    /// The camera reconnected and resumed sending from its cursor
    /// (the first unacknowledged frame index).
    Resume,
}

/// The server-side state of one CamLink camera connection.
///
/// Drives the whole client lifecycle as the caller asks for frames: waits
/// for the capture time, encodes the record, schedules its chunks on the
/// [`SimLink`], waits for each delivery, feeds the decoder, and handles
/// disconnect/reconnect with a resume cursor (frames are acknowledged
/// only when fully decoded-or-corrupted, so a drop mid-record
/// retransmits that frame after the reconnect delay).
///
/// Every record is encoded into one buffer the connection keeps, the link
/// schedules chunks as spans of it, and the decoder reads headers in
/// place, so once the buffers have grown a frame costs no allocation.
pub(crate) struct CamLinkSource {
    client: usize,
    /// Capture schedule: `(capture_s)` per frame index.
    captures: Vec<f64>,
    link: SimLink,
    decoder: Decoder,
    /// The record on the wire, re-encoded for every send.
    wire: Vec<u8>,
    /// Next frame index the camera will send (the resume cursor).
    cursor: usize,
    /// Lifecycle notices with timestamps and the cursor at the time, in
    /// order of occurrence. Drained by the ingest layer.
    pub notices: Vec<(f64, LinkNotice, usize)>,
}

impl CamLinkSource {
    /// A connection for `client` whose camera captures frames at the
    /// given times. Emits the initial `Connect` notice at time zero.
    pub fn new(client: usize, captures: Vec<f64>, link: SimLink) -> Self {
        let mut source = Self {
            client,
            captures,
            link,
            decoder: Decoder::new(),
            wire: Vec::new(),
            cursor: 0,
            notices: Vec::new(),
        };
        source
            .notices
            .push((0.0, LinkNotice::Connect, source.captures.len()));
        source
    }

    /// Connection drops observed so far.
    pub fn disconnects(&self) -> usize {
        self.link.disconnects
    }

    /// Runs the connection until the next record decodes, or the stream
    /// ends, moving `now_s` to each delivery it waits for.
    fn next_record(&mut self, now_s: &mut f64) -> Option<RecordHeader> {
        loop {
            // A record may already be decodable from previously received
            // bytes (it never is, in practice, because sends are
            // per-record — but the decoder owns that invariant, not us).
            if let Some(r) = self.decoder.next_header() {
                return Some(r);
            }
            if self.cursor >= self.captures.len() {
                self.decoder.finish();
                return self.decoder.next_header();
            }
            let idx = self.cursor;
            let capture_s = self.captures[idx];
            // The camera writes at capture time; the door reads no
            // earlier than *its* now — if the caller held off asking
            // (backpressure), `now` has advanced and the record's
            // delivery schedule starts late: push-back reaches the
            // socket instead of buffering without bound.
            *now_s = now_s.max(capture_s);
            let send_s = *now_s;
            self.wire.clear();
            encode_synth_record(
                self.client as u32,
                idx as u32,
                capture_s.to_bits(),
                &mut self.wire,
            );
            let outcome = self.link.send_record(send_s, self.wire.len());
            // Whatever arrives reaches the decoder in arrival order.
            for c in self.link.deliveries() {
                self.decoder.push(&self.wire[c.bytes.clone()]);
            }
            match outcome {
                SendOutcome::Sent => {
                    let last = self.link.deliveries().last().map_or(send_s, |c| c.at_s);
                    *now_s = now_s.max(last);
                    // The frame is acknowledged whether or not it decoded:
                    // corruption is not detectable by the camera, so there
                    // is no retransmit. A record that does not decode now
                    // may still decode after a later send (a decoder
                    // latched onto a false preamble resyncs), so loss is
                    // only known once the stream ends.
                    self.cursor = idx + 1;
                    if let Some(r) = self.decoder.next_header() {
                        return Some(r);
                    }
                }
                SendOutcome::Dropped {
                    dropped_at_s,
                    reconnect_at_s,
                } => {
                    // Partial bytes of this record die with the socket.
                    self.decoder.reset();
                    self.notices
                        .push((dropped_at_s, LinkNotice::Disconnect, idx));
                    // The link is down until the reconnect, which comes
                    // after the drop. Resume cursor: the first
                    // unacknowledged frame — this one — is retransmitted
                    // in full.
                    *now_s = now_s.max(reconnect_at_s);
                    self.notices.push((reconnect_at_s, LinkNotice::Resume, idx));
                }
            }
        }
    }

    /// The next delivered frame, or `None` at end of stream. Moves `now_s`
    /// to each delivery the connection waits for, so on return it is the
    /// frame's delivery time.
    pub fn next_frame(&mut self, now_s: &mut f64) -> Option<SourcedFrame> {
        let record = self.next_record(now_s)?;
        Some(SourcedFrame {
            frame_index: record.frame_index as usize,
            capture_s: record.capture_s(),
            delivered_s: *now_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{mix_seed, LinkParams};

    fn drive(params: LinkParams, captures: Vec<f64>, seed: u64) -> Vec<SourcedFrame> {
        let link = SimLink::new(params, mix_seed(seed, 0));
        let mut src = CamLinkSource::new(0, captures, link);
        let mut now_s = 0.0;
        std::iter::from_fn(|| src.next_frame(&mut now_s)).collect()
    }

    #[test]
    fn clean_connection_delivers_every_frame_in_order() {
        let captures: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        let frames = drive(LinkParams::clean(), captures.clone(), 11);
        assert_eq!(frames.len(), 10);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.frame_index, i);
            assert_eq!(f.capture_s, captures[i]);
            assert!(f.delivered_s > f.capture_s, "the wire takes time");
        }
        assert!(frames
            .windows(2)
            .all(|w| w[0].delivered_s <= w[1].delivered_s));
    }

    #[test]
    fn disconnects_retransmit_from_the_resume_cursor() {
        let params = LinkParams {
            disconnect_rate: 0.3,
            ..LinkParams::clean()
        };
        let captures: Vec<f64> = (0..30).map(|i| i as f64 * 0.05).collect();
        let frames = drive(params, captures, 5);
        // Resume-on-disconnect retransmits, so with no reordering every
        // frame still arrives, exactly once, in order.
        assert_eq!(frames.len(), 30);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.frame_index, i);
        }
    }

    #[test]
    fn delivery_timeline_is_seed_deterministic() {
        let params = LinkParams {
            jitter_s: 0.003,
            disconnect_rate: 0.1,
            reorder_rate: 0.05,
            chunk_bytes: 48,
            ..LinkParams::clean()
        };
        let captures: Vec<f64> = (0..25).map(|i| i as f64 * 0.04).collect();
        let a = drive(params, captures.clone(), 77);
        let b = drive(params, captures, 77);
        assert_eq!(a, b);
    }
}
