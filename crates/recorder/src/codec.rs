//! Binary file codec for recorded runs.
//!
//! The format keeps columns in their in-memory compressed form, so a
//! save is mostly a copy:
//!
//! ```text
//! magic "CTFR" · version u8 (=1)
//! chunk_events varint · chunk_count varint
//! per chunk:
//!   kind u8 · shard varint · stream+1 varint (0 = fleet-level)
//!   capacity varint · row_count varint
//!   t_min f64-LE-bits · t_max f64-LE-bits
//!   time column:  byte_len varint · bytes
//!   data columns (count fixed by kind): byte_len varint · bytes
//! ```
//!
//! Snapshots are **not** persisted: they hold live replay state (boxed
//! detector pipelines) behind `Arc<dyn Any>`, which has no stable wire
//! form. A loaded store therefore answers every telemetry query but
//! cannot seed time-travel replay — replay runs against the in-process
//! store of the run being recorded.

use crate::chunk::{Chunk, ChunkKey, VarintCol};
use crate::event::EventKind;
use crate::store::ChunkStore;

const MAGIC: &[u8; 4] = b"CTFR";
const VERSION: u8 = 1;

/// Why a recorded file failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The file does not start with the `CTFR` magic.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion(u8),
    /// The file ended mid-structure.
    Truncated,
    /// An event-kind code is unknown.
    BadKind(u8),
    /// A chunk's parts disagree: named is the rule they broke.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a flight-recorder file (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported recorder format version {v}"),
            DecodeError::Truncated => write!(f, "recorder file truncated"),
            DecodeError::BadKind(c) => write!(f, "unknown event kind code {c}"),
            DecodeError::Corrupt(rule) => write!(f, "recorder file corrupt: {rule}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.byte()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(DecodeError::Truncated);
            }
        }
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        let end = self.pos + 8;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("8-byte slice"),
        )))
    }

    fn blob(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.varint()? as usize;
        let end = self.pos.checked_add(len).ok_or(DecodeError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(bytes.to_vec())
    }
}

fn put_col(out: &mut Vec<u8>, col: &VarintCol) {
    put_varint(out, col.raw().len() as u64);
    out.extend_from_slice(col.raw());
}

fn put_chunk(out: &mut Vec<u8>, chunk: &Chunk) {
    let key = chunk.key();
    let (time, cols, capacity) = chunk.parts();
    out.push(key.kind.code());
    put_varint(out, key.shard as u64);
    put_varint(out, key.stream.map_or(0, |s| s as u64 + 1));
    put_varint(out, capacity as u64);
    put_varint(out, chunk.len() as u64);
    out.extend_from_slice(&chunk.t_min().to_bits().to_le_bytes());
    out.extend_from_slice(&chunk.t_max().to_bits().to_le_bytes());
    put_col(out, time);
    for col in cols {
        put_col(out, col);
    }
}

/// Serializes every retained chunk (sealed and open) of `store`.
/// Snapshots are intentionally not written (see module docs).
pub fn encode(store: &ChunkStore) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_varint(&mut out, store.chunk_events() as u64);
    let sealed: Vec<&Chunk> = store.sealed.iter().map(|s| &s.chunk).collect();
    let open: Vec<&Chunk> = store.open.values().filter(|c| !c.is_empty()).collect();
    put_varint(&mut out, (sealed.len() + open.len()) as u64);
    for chunk in sealed.into_iter().chain(open) {
        put_chunk(&mut out, chunk);
    }
    out
}

/// Deserializes a recorded file back into a queryable store. Every chunk
/// arrives sealed; retention is set unbounded (the file is already the
/// retained set).
pub fn decode(bytes: &[u8]) -> Result<ChunkStore, DecodeError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.byte().map_err(|_| DecodeError::BadMagic)?;
    }
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.byte()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let chunk_events = r.varint()? as usize;
    let count = r.varint()? as usize;
    let mut chunks = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let kind = EventKind::from_code(r.byte()?)
            .ok_or_else(|| DecodeError::BadKind(bytes[r.pos - 1]))?;
        let shard = r.varint()? as usize;
        let stream = match r.varint()? {
            0 => None,
            s => Some(s as usize - 1),
        };
        if stream.is_some() != kind.per_stream() {
            return Err(DecodeError::Corrupt("chunk's stream does not fit its kind"));
        }
        let capacity = r.varint()? as usize;
        let rows = r.varint()? as usize;
        let t_min = r.f64()?;
        let t_max = r.f64()?;
        // Nothing is sized from `rows`: a column is checked to hold
        // exactly that many varints, each of at least one byte.
        let mut column = || {
            VarintCol::from_raw(r.blob()?, rows).ok_or(DecodeError::Corrupt(
                "column does not hold its chunk's row count",
            ))
        };
        let time = column()?;
        let cols = kind
            .columns()
            .iter()
            .map(|_| column())
            .collect::<Result<Vec<_>, _>>()?;
        let key = ChunkKey {
            kind,
            shard,
            stream,
        };
        let chunk = Chunk::from_parts(key, capacity, time, cols);
        // Scans prune chunks on their time range, so a wrong one hides rows.
        if [chunk.t_min(), chunk.t_max()].map(f64::to_bits) != [t_min, t_max].map(f64::to_bits) {
            return Err(DecodeError::Corrupt(
                "chunk's time range does not match its rows",
            ));
        }
        chunks.push(chunk);
    }
    Ok(ChunkStore::from_sealed(
        chunk_events.max(1),
        usize::MAX,
        chunks,
    ))
}

/// Writes a recorded store to `path` (see [`encode`]).
pub fn write_file(store: &ChunkStore, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode(store))
}

/// Loads a recorded store from `path` (see [`decode`]).
pub fn read_file(path: &std::path::Path) -> std::io::Result<ChunkStore> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::query::Query;
    use proptest::prelude::*;
    use std::ops::Range;

    fn busy_store() -> ChunkStore {
        let mut store = ChunkStore::new(3, usize::MAX);
        for i in 0..17usize {
            let shard = i % 3;
            store.record(
                i as f64 * 0.02,
                shard,
                Event::Detection {
                    stream: 20 + shard,
                    seq: i / 3 + 1,
                    frame_index: i / 3,
                    detections: i % 5,
                    latency_s: 0.004 + 1e-4 * i as f64,
                    output_hash: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                },
            );
            if i % 4 == 0 {
                store.record(
                    i as f64 * 0.02 + 0.001,
                    shard,
                    Event::Admission {
                        stream: 20 + shard,
                        reason: (i % 2) as u64,
                    },
                );
            }
        }
        store.record(
            0.15,
            0,
            Event::Scale {
                from_workers: 2,
                to_workers: 4,
                reason: 3,
            },
        );
        store
    }

    #[test]
    fn encode_decode_preserves_every_event() {
        let mut store = busy_store();
        let expected = store.scan(&Query::all());
        let bytes = encode(&store);
        let mut loaded = decode(&bytes).expect("decode");
        assert_eq!(loaded.scan(&Query::all()), expected);
        assert_eq!(loaded.stats().events, store.stats().events);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(b"nope").unwrap_err(), DecodeError::BadMagic);
        assert_eq!(decode(b"CTFR\x09").unwrap_err(), DecodeError::BadVersion(9));
        let mut truncated = encode(&busy_store());
        truncated.truncate(truncated.len() - 3);
        assert_eq!(decode(&truncated).unwrap_err(), DecodeError::Truncated);
    }

    /// A store whose first encoded chunk is a sealed `Forecast` chunk of
    /// 37 rows, followed by per-stream and fleet-level chunks of other
    /// kinds, sealed and open.
    fn forecast_store() -> ChunkStore {
        let mut store = ChunkStore::new(37, usize::MAX);
        for i in 0..40usize {
            store.record(
                i as f64 * 0.25,
                0,
                Event::Forecast {
                    stream: 4,
                    rate_fps: 10.0 + i as f64,
                    confidence: 0.5,
                    phase: (i % 3) as u64,
                },
            );
        }
        let mut more = busy_store();
        for r in more.scan(&Query::all()) {
            store.record(r.t_s, r.shard, r.event);
        }
        store
    }

    /// The spans of every varint field of an encoded file, in file order:
    /// the header's two, then per chunk its shard, stream+1, capacity, row
    /// count and each column's byte length. The second item marks, per
    /// chunk, the spans of its shard, stream+1, capacity and row count.
    fn varint_fields(bytes: &[u8]) -> (Vec<Range<usize>>, Vec<[Range<usize>; 4]>) {
        let mut r = Reader {
            buf: bytes,
            pos: MAGIC.len() + 1,
        };
        let mut fields = Vec::new();
        fn varint(r: &mut Reader, fields: &mut Vec<Range<usize>>) -> u64 {
            let at = r.pos;
            let v = r.varint().expect("a valid encoding");
            fields.push(at..r.pos);
            v
        }
        varint(&mut r, &mut fields);
        let count = varint(&mut r, &mut fields);
        let mut headers = Vec::new();
        for _ in 0..count {
            let kind = EventKind::from_code(r.byte().expect("kind")).expect("known kind");
            let header = std::array::from_fn(|_| {
                varint(&mut r, &mut fields);
                fields.last().expect("just pushed").clone()
            });
            headers.push(header);
            r.pos += 16; // t_min, t_max
            for _ in 0..=kind.columns().len() {
                r.pos += varint(&mut r, &mut fields) as usize;
            }
        }
        (fields, headers)
    }

    /// `bytes` with the varint at `span` replaced by `v`.
    fn rewrite(bytes: &[u8], span: Range<usize>, v: u64) -> Vec<u8> {
        let mut out = bytes[..span.start].to_vec();
        put_varint(&mut out, v);
        out.extend_from_slice(&bytes[span.end..]);
        out
    }

    /// Field index of the row count within a chunk's header spans.
    const ROWS: usize = 3;
    /// Field index of stream+1 within a chunk's header spans.
    const STREAM: usize = 1;

    #[test]
    fn a_row_count_beyond_the_columns_is_corrupt() {
        let bytes = encode(&forecast_store());
        let (_, headers) = varint_fields(&bytes);
        let rows = headers[0][ROWS].clone();
        assert_eq!(
            Reader {
                buf: &bytes,
                pos: rows.start
            }
            .varint(),
            Ok(37)
        );
        for wrong in [127, 36, 38, 0] {
            assert!(
                matches!(
                    decode(&rewrite(&bytes, rows.clone(), wrong)),
                    Err(DecodeError::Corrupt(_))
                ),
                "{wrong} rows"
            );
        }
    }

    #[test]
    fn a_huge_row_count_allocates_nothing() {
        let bytes = encode(&forecast_store());
        let (_, headers) = varint_fields(&bytes);
        let patched = rewrite(&bytes, headers[0][ROWS].clone(), 1 << 62);
        assert!(matches!(decode(&patched), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn a_per_stream_chunk_without_a_stream_is_corrupt() {
        let bytes = encode(&forecast_store());
        let (_, headers) = varint_fields(&bytes);
        let patched = rewrite(&bytes, headers[0][STREAM].clone(), 0);
        assert!(matches!(decode(&patched), Err(DecodeError::Corrupt(_))));
        // And the fleet-level kind must not carry one. A chunk's kind is
        // the byte before its first header field.
        let scale = headers
            .iter()
            .find(|h| bytes[h[0].start - 1] == EventKind::Scale.code())
            .expect("a scale chunk");
        let patched = rewrite(&bytes, scale[STREAM].clone(), 5);
        assert!(matches!(decode(&patched), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn a_blob_length_past_the_end_is_truncation() {
        let bytes = encode(&forecast_store());
        let (fields, _) = varint_fields(&bytes);
        let last = fields.last().expect("fields").clone();
        let patched = rewrite(&bytes, last, u64::MAX);
        assert_eq!(decode(&patched).unwrap_err(), DecodeError::Truncated);
    }

    proptest! {
        /// A mangled file either fails to decode, or decodes into a store
        /// whose time-windowed scans find every row a full scan does. Each
        /// case mangles two copies of the file: one by rewritten varints,
        /// flipped bytes and a cut, one by a chunk's stored t_min or t_max
        /// (the 16 bytes after its row count) set to some other time.
        #[test]
        fn mangled_files_fail_to_decode_or_scan_cleanly(
            field in 0usize..1 << 16,
            raw in 0u64..=u64::MAX,
            width in 0u32..64,
            flips in proptest::collection::vec((0usize..1 << 16, 1u8..=255), 0..4),
            cut in 0usize..1 << 16,
            mangle in 0u8..8,
            bound in (0usize..1 << 16, 0usize..2, -1.0f64..11.0),
            windows in proptest::collection::vec((-1.0f64..11.0, -1.0f64..11.0), 1..4),
        ) {
            let mut bytes = encode(&forecast_store());
            let (fields, headers) = varint_fields(&bytes);
            let mut moved = bytes.clone();
            let (chunk, end, t) = bound;
            let at = headers[chunk % headers.len()][ROWS].end + 8 * end;
            moved[at..at + 8].copy_from_slice(&t.to_bits().to_le_bytes());
            if mangle & 1 != 0 {
                let span = fields[field % fields.len()].clone();
                bytes = rewrite(&bytes, span, raw >> width);
            }
            if mangle & 2 != 0 {
                for &(at, mask) in &flips {
                    let at = at % bytes.len();
                    bytes[at] ^= mask;
                }
            }
            if mangle & 4 != 0 {
                bytes.truncate(cut % (bytes.len() + 1));
            }
            for bytes in [bytes, moved] {
                let Ok(mut store) = decode(&bytes) else { continue };
                let all = store.scan(&Query::all());
                store.latency_stats(&Query::all());
                store.stats();
                for &(t0, t1) in &windows {
                    let window = store.scan(&Query::all().between(t0, t1));
                    let want: Vec<_> = all.iter().filter(|r| r.t_s >= t0 && r.t_s <= t1).collect();
                    // As text, so a NaN that mangling made equals itself.
                    prop_assert_eq!(format!("{window:?}"), format!("{want:?}"), "[{t0}, {t1}]");
                }
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let mut store = busy_store();
        let expected = store.latency_stats(&Query::all());
        let path = std::env::temp_dir().join("catdet_recorder_codec_test.ctfr");
        write_file(&store, &path).expect("write");
        let mut loaded = read_file(&path).expect("read");
        assert_eq!(loaded.latency_stats(&Query::all()), expected);
        let _ = std::fs::remove_file(&path);
    }
}
