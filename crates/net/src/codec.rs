//! The CamLink wire format: length-prefixed frame records with a magic
//! preamble and a checksum, plus a streaming decoder that survives
//! partial writes, truncated tails, garbage prefixes and in-flight byte
//! reordering.
//!
//! ```text
//! +-------+----------+------------------------------------------+-------+
//! | magic | body_len |                 body                     |  crc  |
//! | 2 B   | u32 LE   | stream u32 | frame u32 | capture u64 |   | u32   |
//! |       |          |            payload (body_len - 16 B)     | LE    |
//! +-------+----------+------------------------------------------+-------+
//! ```
//!
//! The checksum is FNV-1a over the body. The decoder trusts nothing: a
//! header is only believed once the whole record is buffered *and* the
//! checksum matches; otherwise it skips past the magic and rescans, so a
//! corrupted or garbage-led stream loses at most the damaged records and
//! resynchronises on the next genuine preamble.

/// Record preamble. Two bytes is enough for resync in a simulator (real
/// deployments would use a longer one plus connection-level framing).
pub const MAGIC: [u8; 2] = [0xCA, 0x7D];

/// Fixed body bytes ahead of the payload: stream id, frame index,
/// capture-time bits.
pub const BODY_HEADER_BYTES: usize = 16;

/// Sanity cap on `body_len`: anything larger is treated as garbage
/// rather than waited for, bounding decoder memory against corrupt
/// headers.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// One camera frame as it travels the wire. The payload stands in for
/// compressed pixel data; the serving side maps `frame_index` back to the
/// actual frame, so the bytes only have to exist (and checksum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRecord {
    /// Fleet-wide camera/stream id.
    pub stream_id: u32,
    /// Index of the frame within its camera's capture sequence.
    pub frame_index: u32,
    /// Capture timestamp, seconds, as raw bits (floats never travel as
    /// text).
    pub capture_bits: u64,
    /// Simulated compressed frame bytes.
    pub payload: Vec<u8>,
}

impl FrameRecord {
    /// Capture timestamp in seconds.
    pub fn capture_s(&self) -> f64 {
        f64::from_bits(self.capture_bits)
    }

    /// Total encoded size of this record on the wire.
    pub fn encoded_len(&self) -> usize {
        MAGIC.len() + 4 + BODY_HEADER_BYTES + self.payload.len() + 4
    }
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Appends the record's wire encoding to `out`.
pub fn encode_record(r: &FrameRecord, out: &mut Vec<u8>) {
    encode_with(r.stream_id, r.frame_index, r.capture_bits, out, |out| {
        out.extend_from_slice(&r.payload)
    });
}

/// Appends the wire encoding of `(stream_id, frame_index)`'s
/// [`synth_payload`] record to `out`, building the payload in place: the
/// bytes equal [`encode_record`] of that record, with no payload `Vec`.
pub(crate) fn encode_synth_record(
    stream_id: u32,
    frame_index: u32,
    capture_bits: u64,
    out: &mut Vec<u8>,
) {
    encode_with(stream_id, frame_index, capture_bits, out, |out| {
        synth_payload_into(stream_id, frame_index, out)
    });
}

/// Appends one record to `out`: the header, the payload `payload`
/// appends, then the body length and checksum patched in around it.
fn encode_with(
    stream_id: u32,
    frame_index: u32,
    capture_bits: u64,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&[0; 4]); // body length, patched below
    let body_start = out.len();
    out.extend_from_slice(&stream_id.to_le_bytes());
    out.extend_from_slice(&frame_index.to_le_bytes());
    out.extend_from_slice(&capture_bits.to_le_bytes());
    payload(out);
    let body_len = (out.len() - body_start) as u32;
    out[start + MAGIC.len()..body_start].copy_from_slice(&body_len.to_le_bytes());
    let crc = fnv1a(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The fixed fields of a verified record, read in place from the
/// decoder's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordHeader {
    /// Fleet-wide camera/stream id.
    pub stream_id: u32,
    /// Index of the frame within its camera's capture sequence.
    pub frame_index: u32,
    /// Capture timestamp bits (see [`FrameRecord::capture_bits`]).
    pub capture_bits: u64,
}

impl RecordHeader {
    /// Capture timestamp in seconds.
    pub fn capture_s(&self) -> f64 {
        f64::from_bits(self.capture_bits)
    }

    fn read(body: &[u8]) -> Self {
        let word =
            |at: usize| u32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
        RecordHeader {
            stream_id: word(0),
            frame_index: word(4),
            capture_bits: word(8) as u64 | (word(12) as u64) << 32,
        }
    }
}

/// Streaming CamLink decoder: push byte chunks in arrival order, pop
/// whole verified records.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Start of undecoded data within `buf` (compacted periodically).
    head: usize,
    /// Whether the byte stream has ended: stalled partial headers are
    /// then garbage by definition and get skipped instead of waited on.
    eof: bool,
    /// Records decoded and verified.
    pub records_decoded: usize,
    /// Records whose checksum failed (reordered/corrupted bytes).
    pub records_corrupted: usize,
    /// Bytes discarded while hunting for a preamble.
    pub bytes_skipped: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a received chunk.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Marks end-of-stream: a header still waiting for bytes that will
    /// never come is treated as garbage on the next [`next_record`] call.
    ///
    /// [`next_record`]: Decoder::next_record
    pub fn finish(&mut self) {
        self.eof = true;
    }

    /// Bytes buffered but not yet decoded (a truncated in-flight record).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Drops all buffered bytes (a connection reset: in-flight partial
    /// records are gone; the resume protocol retransmits whole frames).
    pub fn reset(&mut self) {
        self.bytes_skipped += self.pending_bytes();
        self.buf.clear();
        self.head = 0;
        self.eof = false;
    }

    fn compact(&mut self) {
        if self.head > 4096 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Skips `n` bytes of garbage.
    fn skip(&mut self, n: usize) {
        self.head += n;
        self.bytes_skipped += n;
    }

    /// Decodes the next verified record, or `None` if the buffer holds no
    /// complete one yet.
    pub fn next_record(&mut self) -> Option<FrameRecord> {
        let body = self.next_body()?;
        let bytes = &self.buf[body];
        let header = RecordHeader::read(bytes);
        let record = FrameRecord {
            stream_id: header.stream_id,
            frame_index: header.frame_index,
            capture_bits: header.capture_bits,
            payload: bytes[BODY_HEADER_BYTES..].to_vec(),
        };
        self.compact();
        Some(record)
    }

    /// [`next_record`](Decoder::next_record) without the payload: the
    /// same verification, the same counters and the same resync, but the
    /// header is read in place and nothing is copied out.
    pub(crate) fn next_header(&mut self) -> Option<RecordHeader> {
        let body = self.next_body()?;
        let header = RecordHeader::read(&self.buf[body]);
        self.compact();
        Some(header)
    }

    /// Finds the next verified record and steps past it, returning its
    /// body's span in `buf`. The caller compacts once it has read the span.
    fn next_body(&mut self) -> Option<std::ops::Range<usize>> {
        loop {
            let avail = &self.buf[self.head..];
            // Hunt for the preamble.
            if avail.len() < MAGIC.len() {
                if self.eof && !avail.is_empty() {
                    let n = avail.len();
                    self.skip(n);
                }
                self.compact();
                return None;
            }
            if avail[..2] != MAGIC {
                // Resync byte by byte: the next genuine record's magic may
                // start anywhere.
                self.skip(1);
                continue;
            }
            if avail.len() < MAGIC.len() + 4 {
                if self.eof {
                    self.skip(1);
                    continue;
                }
                return None; // header truncated: wait for more bytes
            }
            let body_len = u32::from_le_bytes([avail[2], avail[3], avail[4], avail[5]]) as usize;
            if !(BODY_HEADER_BYTES..=MAX_BODY_BYTES).contains(&body_len) {
                // Implausible length: this "magic" was data. Skip past it.
                self.skip(MAGIC.len());
                self.records_corrupted += 1;
                continue;
            }
            let total = MAGIC.len() + 4 + body_len + 4;
            if avail.len() < total {
                if self.eof {
                    // The bytes will never arrive; the header was garbage
                    // (or the tail is truncated). Resync past the magic.
                    self.skip(MAGIC.len());
                    self.records_corrupted += 1;
                    continue;
                }
                return None; // truncated tail: wait for more bytes
            }
            let body = &avail[MAGIC.len() + 4..MAGIC.len() + 4 + body_len];
            let crc = u32::from_le_bytes([
                avail[total - 4],
                avail[total - 3],
                avail[total - 2],
                avail[total - 1],
            ]);
            if fnv1a(body) != crc {
                // Reordered/corrupted in flight. Skip the preamble and
                // rescan — a genuine record may start inside this span.
                self.skip(MAGIC.len());
                self.records_corrupted += 1;
                continue;
            }
            let body_start = self.head + MAGIC.len() + 4;
            self.head += total;
            self.records_decoded += 1;
            return Some(body_start..body_start + body_len);
        }
    }
}

/// Deterministic stand-in payload for a frame: size and bytes derived
/// from `(stream, frame)` alone, so every run sends identical traffic.
pub fn synth_payload(stream_id: u32, frame_index: u32) -> Vec<u8> {
    let mut out = Vec::new();
    synth_payload_into(stream_id, frame_index, &mut out);
    out
}

/// Appends [`synth_payload`]'s bytes to `out`.
fn synth_payload_into(stream_id: u32, frame_index: u32, out: &mut Vec<u8>) {
    let mut h = (stream_id as u64) << 32 | frame_index as u64;
    // SplitMix64 to decorrelate sizes and bytes.
    let mut next = move || {
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let len = 96 + (next() % 160) as usize;
    let end = out.len() + len;
    out.reserve(len + 8);
    while out.len() < end {
        out.extend_from_slice(&next().to_le_bytes());
    }
    out.truncate(end);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(stream: u32, frame: u32) -> FrameRecord {
        FrameRecord {
            stream_id: stream,
            frame_index: frame,
            capture_bits: (frame as f64 * 0.033).to_bits(),
            payload: synth_payload(stream, frame),
        }
    }

    #[test]
    fn whole_records_round_trip() {
        let mut wire = Vec::new();
        let records: Vec<_> = (0..5).map(|i| record(3, i)).collect();
        for r in &records {
            encode_record(r, &mut wire);
        }
        let mut dec = Decoder::new();
        dec.push(&wire);
        for r in &records {
            assert_eq!(dec.next_record().as_ref(), Some(r));
        }
        assert_eq!(dec.next_record(), None);
        assert_eq!(dec.records_decoded, 5);
        assert_eq!(dec.bytes_skipped, 0);
    }

    #[test]
    fn a_synth_record_encodes_as_its_payload_would() {
        for (stream, frame) in [(0, 0), (3, 7), (63, 299)] {
            let r = record(stream, frame);
            let mut direct = Vec::new();
            encode_record(&r, &mut direct);
            // Behind bytes already in the buffer, as on a reused one.
            let mut synth = vec![0xAA];
            encode_synth_record(stream, frame, r.capture_bits, &mut synth);
            assert_eq!(synth[1..], direct[..]);
        }
    }

    #[test]
    fn byte_at_a_time_delivery_decodes() {
        let mut wire = Vec::new();
        encode_record(&record(1, 7), &mut wire);
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b));
            while let Some(r) = dec.next_record() {
                out.push(r);
            }
        }
        assert_eq!(out, vec![record(1, 7)]);
    }

    #[test]
    fn truncated_tail_waits_then_yields_on_completion() {
        let mut wire = Vec::new();
        encode_record(&record(2, 0), &mut wire);
        let split = wire.len() - 3;
        let mut dec = Decoder::new();
        dec.push(&wire[..split]);
        assert_eq!(dec.next_record(), None, "incomplete record must wait");
        assert!(dec.pending_bytes() > 0);
        dec.push(&wire[split..]);
        assert_eq!(dec.next_record(), Some(record(2, 0)));
    }

    #[test]
    fn garbage_prefix_resyncs_on_the_next_magic() {
        let mut wire = vec![0xFF, 0x00, 0xCA, 0x13, 0x7D]; // junk incl. a stray magic byte
        encode_record(&record(4, 9), &mut wire);
        let mut dec = Decoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_record(), Some(record(4, 9)));
        assert!(dec.bytes_skipped >= 5);
    }

    #[test]
    fn corrupted_record_is_skipped_and_the_stream_recovers() {
        let mut wire = Vec::new();
        encode_record(&record(0, 0), &mut wire);
        let boundary = wire.len();
        encode_record(&record(0, 1), &mut wire);
        wire[boundary + 10] ^= 0xA5; // flip a byte inside record 1's body
        encode_record(&record(0, 2), &mut wire);
        let mut dec = Decoder::new();
        dec.push(&wire);
        let mut out = Vec::new();
        while let Some(r) = dec.next_record() {
            out.push(r);
        }
        assert_eq!(out, vec![record(0, 0), record(0, 2)]);
        assert_eq!(dec.records_corrupted, 1);
    }

    #[test]
    fn eof_flushes_a_stalled_garbage_header() {
        // Garbage that happens to look like a huge (but in-cap) record:
        // without EOF the decoder waits; with EOF it resyncs to the real
        // record buffered right behind it.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&(500u32).to_le_bytes()); // claims 500 B that never come
        encode_record(&record(6, 1), &mut wire);
        let mut dec = Decoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_record(), None, "stalled on the bogus header");
        dec.finish();
        assert_eq!(dec.next_record(), Some(record(6, 1)));
    }

    #[test]
    fn reset_drops_partial_bytes() {
        let mut wire = Vec::new();
        encode_record(&record(5, 0), &mut wire);
        let mut dec = Decoder::new();
        dec.push(&wire[..wire.len() / 2]);
        dec.reset();
        assert_eq!(dec.pending_bytes(), 0);
        // A fresh record decodes cleanly after the reset.
        let mut wire2 = Vec::new();
        encode_record(&record(5, 1), &mut wire2);
        dec.push(&wire2);
        assert_eq!(dec.next_record(), Some(record(5, 1)));
    }
}
