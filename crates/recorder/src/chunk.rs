//! Columnar chunks: fixed-capacity, struct-of-arrays event storage with
//! delta/varint-compressed columns.
//!
//! A [`Chunk`] holds up to `capacity` events of a single [`EventKind`],
//! all belonging to one (shard, stream) partition. The virtual-time
//! column stores `f64::to_bits` values; every column (time included) is
//! compressed the same way: consecutive values are wrapping-subtracted,
//! zigzag-mapped to keep small magnitudes small in either direction, and
//! varint-encoded. Monotone virtual time therefore costs one or two bytes
//! per row, and near-constant integer columns (worker ids, reasons) cost
//! one byte per row.

use crate::event::{Event, EventKind};

/// Identifies the partition a chunk belongs to: event kind, shard, and —
/// for per-stream kinds — the stream. Fleet-level kinds ([`EventKind::Scale`])
/// use `stream: None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkKey {
    /// The kind every row in the chunk shares.
    pub kind: EventKind,
    /// Shard the events were recorded on.
    pub shard: usize,
    /// Stream the events belong to (`None` for fleet-level kinds).
    pub stream: Option<usize>,
}

/// A delta/zigzag/varint-compressed column of `u64` values.
///
/// Appends are O(1); decoding walks the byte stream front to back. The
/// encoding is lossless for arbitrary `u64`s (wrapping arithmetic), so
/// `f64` bit patterns and hashes survive untouched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarintCol {
    bytes: Vec<u8>,
    last: u64,
    len: usize,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads one varint off the front of `bytes`, returning it and the rest;
/// `None` if the bytes end mid-varint or it runs past the ten bytes a
/// `u64` can take.
fn read_varint(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let mut z = 0u64;
    for (i, &byte) in bytes.iter().enumerate().take(10) {
        z |= ((byte & 0x7f) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((z, &bytes[i + 1..]));
        }
    }
    None
}

impl VarintCol {
    /// An empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Appends a value (delta vs. the previous value, zigzag, varint).
    pub fn push(&mut self, v: u64) {
        let delta = v.wrapping_sub(self.last) as i64;
        let mut z = zigzag(delta);
        loop {
            let byte = (z & 0x7f) as u8;
            z >>= 7;
            if z == 0 {
                self.bytes.push(byte);
                break;
            }
            self.bytes.push(byte | 0x80);
        }
        self.last = v;
        self.len += 1;
    }

    /// Decodes the full column back into values.
    pub fn decode(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut prev = 0u64;
        let mut rest = &self.bytes[..];
        while out.len() < self.len {
            let (z, tail) = read_varint(rest).expect("a column holds `len` varints");
            prev = prev.wrapping_add(unzigzag(z) as u64);
            out.push(prev);
            rest = tail;
        }
        out
    }

    /// Raw encoded bytes (for the file codec).
    pub(crate) fn raw(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs a column from its encoded bytes and length (the file
    /// codec's decode half), or `None` unless the bytes are exactly `len`
    /// varints. `last` is recomputed by decoding, so further appends stay
    /// consistent.
    pub(crate) fn from_raw(bytes: Vec<u8>, len: usize) -> Option<Self> {
        let mut last = 0u64;
        let mut rest = &bytes[..];
        for _ in 0..len {
            let (z, tail) = read_varint(rest)?;
            last = last.wrapping_add(unzigzag(z) as u64);
            rest = tail;
        }
        rest.is_empty().then_some(VarintCol { bytes, last, len })
    }
}

/// A fixed-capacity, struct-of-arrays block of events of one kind.
///
/// Column 0 is always virtual time (`f64::to_bits`); the remaining
/// columns follow [`EventKind::columns`]. The chunk tracks its covered
/// time range (`t_min`/`t_max`) for the store's time index.
#[derive(Debug, Clone)]
pub struct Chunk {
    key: ChunkKey,
    capacity: usize,
    time: VarintCol,
    cols: Vec<VarintCol>,
    t_min: f64,
    t_max: f64,
}

impl Chunk {
    /// An empty chunk for `key`, sealing after `capacity` events.
    pub fn new(key: ChunkKey, capacity: usize) -> Self {
        Chunk {
            key,
            capacity,
            time: VarintCol::new(),
            cols: vec![VarintCol::new(); key.kind.columns().len()],
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
        }
    }

    /// The chunk's partition key.
    pub fn key(&self) -> ChunkKey {
        self.key
    }

    /// Rows stored so far.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Whether the chunk has reached capacity and must be sealed.
    pub fn is_full(&self) -> bool {
        self.time.len() >= self.capacity
    }

    /// Earliest virtual time covered (`+inf` when empty).
    pub fn t_min(&self) -> f64 {
        self.t_min
    }

    /// Latest virtual time covered (`-inf` when empty).
    pub fn t_max(&self) -> f64 {
        self.t_max
    }

    /// Total encoded payload size in bytes (all columns).
    pub fn encoded_bytes(&self) -> usize {
        self.time.encoded_bytes() + self.cols.iter().map(|c| c.encoded_bytes()).sum::<usize>()
    }

    /// Appends one event. Panics if the event's kind does not match the
    /// chunk key or the chunk is full — the store upholds both.
    pub fn push(&mut self, t_s: f64, event: &Event, scratch: &mut Vec<u64>) {
        assert_eq!(
            event.kind(),
            self.key.kind,
            "event kind must match chunk key"
        );
        assert!(!self.is_full(), "push into a full chunk");
        self.time.push(t_s.to_bits());
        event.column_values(scratch);
        for (col, &v) in self.cols.iter_mut().zip(scratch.iter()) {
            col.push(v);
        }
        self.cover(t_s);
    }

    /// Widens the covered time range to take in `t_s`.
    fn cover(&mut self, t_s: f64) {
        self.t_min = self.t_min.min(t_s);
        self.t_max = self.t_max.max(t_s);
    }

    /// Decodes every row back into `(t_s, Event)` pairs, in append order.
    pub fn rows(&self) -> Vec<(f64, Event)> {
        let times = self.time.decode();
        let cols: Vec<Vec<u64>> = self.cols.iter().map(|c| c.decode()).collect();
        let mut vals = vec![0u64; cols.len()];
        times
            .iter()
            .enumerate()
            .map(|(i, &bits)| {
                for (slot, col) in vals.iter_mut().zip(cols.iter()) {
                    *slot = col[i];
                }
                let ev = Event::from_column_values(self.key.kind, self.key.stream, &vals)
                    .expect("chunk columns decode to a valid event");
                (f64::from_bits(bits), ev)
            })
            .collect()
    }

    /// The last row's value in column `col` (an index into
    /// [`EventKind::columns`]), read without decoding; `None` when empty.
    pub(crate) fn last_value(&self, col: usize) -> Option<u64> {
        let col = &self.cols[col];
        (col.len > 0).then_some(col.last)
    }

    /// Internal accessors for the file codec.
    pub(crate) fn parts(&self) -> (&VarintCol, &[VarintCol], usize) {
        (&self.time, &self.cols, self.capacity)
    }

    /// Rebuilds a chunk from codec parts. Its time range is computed from
    /// the time column, the way [`push`](Chunk::push) grew it.
    pub(crate) fn from_parts(
        key: ChunkKey,
        capacity: usize,
        time: VarintCol,
        cols: Vec<VarintCol>,
    ) -> Self {
        let mut chunk = Chunk {
            time,
            cols,
            ..Chunk::new(key, capacity)
        };
        for bits in chunk.time.decode() {
            chunk.cover(f64::from_bits(bits));
        }
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_adversarial_values() {
        let vals = [
            0u64,
            1,
            u64::MAX,
            0,
            (1.25f64).to_bits(),
            (0.01625f64).to_bits(),
            (-3.5f64).to_bits(),
            42,
            41,
            43,
            u64::MAX / 2,
        ];
        let mut col = VarintCol::new();
        for &v in &vals {
            col.push(v);
        }
        assert_eq!(col.decode(), vals);
        let rebuilt = VarintCol::from_raw(col.raw().to_vec(), col.len());
        assert_eq!(rebuilt, Some(col.clone()));
        // A column must hold exactly its length: not more, not fewer.
        assert_eq!(VarintCol::from_raw(col.raw().to_vec(), col.len() - 1), None);
        assert_eq!(VarintCol::from_raw(col.raw().to_vec(), col.len() + 1), None);
        // Eleven continuation bytes are no `u64`.
        assert_eq!(VarintCol::from_raw(vec![0x80; 11], 1), None);
    }

    #[test]
    fn monotone_times_compress_to_bytes_per_row() {
        let mut col = VarintCol::new();
        for i in 0..1000u64 {
            col.push(100_000 + i * 33);
        }
        // Constant stride after the first delta → 1 byte per row.
        assert!(col.encoded_bytes() < 1010, "got {}", col.encoded_bytes());
    }

    #[test]
    fn chunk_round_trips_rows_and_tracks_time_range() {
        let key = ChunkKey {
            kind: EventKind::Detection,
            shard: 1,
            stream: Some(7),
        };
        let mut chunk = Chunk::new(key, 4);
        let mut scratch = Vec::new();
        let events: Vec<(f64, Event)> = (0..4)
            .map(|i| {
                (
                    0.5 + i as f64 * 0.033,
                    Event::Detection {
                        stream: 7,
                        seq: i + 1,
                        frame_index: i,
                        detections: 3 + i,
                        latency_s: 0.011 + i as f64 * 1e-4,
                        output_hash: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1),
                    },
                )
            })
            .collect();
        for (t, e) in &events {
            chunk.push(*t, e, &mut scratch);
        }
        assert!(chunk.is_full());
        assert_eq!(chunk.rows(), events);
        assert_eq!(chunk.t_min(), 0.5);
        assert_eq!(chunk.t_max(), 0.5 + 3.0 * 0.033);
    }

    #[test]
    #[should_panic(expected = "push into a full chunk")]
    fn chunk_rejects_overflow() {
        let key = ChunkKey {
            kind: EventKind::Scale,
            shard: 0,
            stream: None,
        };
        let mut chunk = Chunk::new(key, 1);
        let mut scratch = Vec::new();
        let e = Event::Scale {
            from_workers: 1,
            to_workers: 2,
            reason: 0,
        };
        chunk.push(0.0, &e, &mut scratch);
        chunk.push(0.1, &e, &mut scratch);
    }
}
