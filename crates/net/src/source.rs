//! The async [`FrameSource`] abstraction and its CamLink implementation:
//! the server-side view of one camera connection, yielding decoded frames
//! as they finish arriving on the simulated wire.

use crate::codec::{encode_synth_record, Decoder, RecordHeader};
use crate::rt::Handle;
use crate::sim::{SendOutcome, SimLink};
use std::future::Future;

/// One frame as delivered by a source: which capture it was and when its
/// last byte arrived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourcedFrame {
    /// Index into the camera's capture sequence.
    pub frame_index: usize,
    /// When the camera captured it (wire timestamp).
    pub capture_s: f64,
    /// When its record finished arriving at the door.
    pub delivered_s: f64,
}

/// An asynchronous frame feed. `next_frame` resolves to the next
/// delivered frame — at the virtual time its last byte arrives — or
/// `None` once the stream ends.
///
/// The returned future borrows the source, so a caller drives one frame
/// at a time; *not* polling is backpressure (a throttled door simply
/// stops reading the socket, and the connection's remaining traffic is
/// scheduled later). The future is the implementation's own type, so a
/// caller's task holds it inline, with no allocation per frame.
pub trait FrameSource {
    /// Resolves to the next delivered frame, or `None` at end of stream.
    fn next_frame(&mut self) -> impl Future<Output = Option<SourcedFrame>> + '_;
}

/// Connection-lifecycle notifications a [`CamLinkSource`] emits while it
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkNotice {
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
/// Drives the whole client lifecycle when polled: waits for the capture
/// time, encodes the record, schedules its chunks on the [`SimLink`],
/// sleeps to each delivery, feeds the decoder, and handles
/// disconnect/reconnect with a resume cursor (frames are acknowledged
/// only when fully decoded-or-corrupted, so a drop mid-record
/// retransmits that frame after the reconnect delay).
///
/// Every record is encoded into one buffer the connection keeps, the link
/// schedules chunks as spans of it, and the decoder reads headers in
/// place, so once the buffers have grown a frame costs no allocation.
pub struct CamLinkSource {
    client: usize,
    /// Capture schedule: `(capture_s)` per frame index.
    captures: Vec<f64>,
    link: SimLink,
    decoder: Decoder,
    /// The record on the wire, re-encoded for every send.
    wire: Vec<u8>,
    handle: Handle,
    /// Next frame index the camera will send (the resume cursor).
    cursor: usize,
    /// Lifecycle notices with timestamps and the cursor at the time, in
    /// order of occurrence. Drained by the ingest layer.
    pub notices: Vec<(f64, LinkNotice, usize)>,
}

impl CamLinkSource {
    /// A connection for `client` whose camera captures frames at the
    /// given times. Emits the initial `Connect` notice at time zero.
    pub fn new(client: usize, captures: Vec<f64>, link: SimLink, handle: Handle) -> Self {
        let mut source = Self {
            client,
            captures,
            link,
            decoder: Decoder::new(),
            wire: Vec::new(),
            handle,
            cursor: 0,
            notices: Vec::new(),
        };
        source
            .notices
            .push((0.0, LinkNotice::Connect, source.captures.len()));
        source
    }

    /// Total frames the camera will offer.
    pub fn frames_offered(&self) -> usize {
        self.captures.len()
    }

    /// Connection drops observed so far.
    pub fn disconnects(&self) -> usize {
        self.link.disconnects
    }

    /// Runs the connection until the next record decodes, or the stream
    /// ends.
    async fn next_record(&mut self) -> Option<RecordHeader> {
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
            // earlier than *its* now — if the caller withheld polling
            // (backpressure), `now` has advanced and the record's
            // delivery schedule starts late: push-back reaches the
            // socket instead of buffering without bound.
            if self.handle.now_s() < capture_s {
                self.handle.sleep_until(capture_s).await;
            }
            let send_s = self.handle.now_s();
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
                    self.handle.sleep_until(last).await;
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
                    self.handle.sleep_until(dropped_at_s).await;
                    self.decoder.reset();
                    self.notices
                        .push((dropped_at_s, LinkNotice::Disconnect, idx));
                    self.handle.sleep_until(reconnect_at_s).await;
                    // Resume cursor: the first unacknowledged frame — this
                    // one — is retransmitted in full.
                    self.notices.push((reconnect_at_s, LinkNotice::Resume, idx));
                    continue;
                }
            }
        }
    }
}

impl FrameSource for CamLinkSource {
    async fn next_frame(&mut self) -> Option<SourcedFrame> {
        let record = self.next_record().await?;
        Some(SourcedFrame {
            frame_index: record.frame_index as usize,
            capture_s: record.capture_s(),
            // A record decodes only after its last chunk's sleep, so the
            // clock *is* its delivery time.
            delivered_s: self.handle.now_s(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::Executor;
    use crate::sim::{mix_seed, LinkParams};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn drive(params: LinkParams, captures: Vec<f64>, seed: u64) -> Vec<SourcedFrame> {
        let mut ex = Executor::new();
        let h = ex.handle();
        let out = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&out);
        ex.spawn(async move {
            let link = SimLink::new(params, mix_seed(seed, 0));
            let mut src = CamLinkSource::new(0, captures, link, h);
            while let Some(f) = src.next_frame().await {
                sink.borrow_mut().push(f);
            }
        });
        ex.run();
        Rc::try_unwrap(out).unwrap().into_inner()
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
