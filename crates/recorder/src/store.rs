//! The chunk store: append-only event intake, a time index over sealed
//! chunks, LRU retention, and snapshot storage for time-travel replay.

use std::any::Any;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::chunk::{Chunk, ChunkKey};
use crate::event::{Event, EventKind};

/// Column of [`Event::Detection`]'s `seq` in [`EventKind::columns`].
const DETECTION_SEQ_COL: usize = 0;

/// Appends one row recorded on `shard` to its partition's chunk in
/// `open`, opening one of `capacity` rows if there is none, and returns
/// the chunk if the row filled it. The intake step shared by
/// [`ChunkStore::record`] and a barrier writer's own open chunks.
pub(crate) fn append_row(
    open: &mut BTreeMap<ChunkKey, Chunk>,
    capacity: usize,
    scratch: &mut Vec<u64>,
    t_s: f64,
    shard: usize,
    event: &Event,
) -> Option<Chunk> {
    let key = ChunkKey {
        kind: event.kind(),
        shard,
        stream: event.stream(),
    };
    let chunk = open.entry(key).or_insert_with(|| Chunk::new(key, capacity));
    chunk.push(t_s, event, scratch);
    if chunk.is_full() {
        open.remove(&key)
    } else {
        None
    }
}

/// A point-in-time capture of one stream's replayable state.
///
/// The payload is opaque to the recorder: the serving layer stores its
/// own snapshot struct (tracker state, queue/counter state) behind
/// `Arc<dyn Any>` and downcasts it back at replay time. Snapshots are
/// in-memory only — they hold live trait objects and are deliberately
/// excluded from the file codec.
#[derive(Clone)]
pub struct Snapshot {
    /// Virtual time the snapshot was taken at.
    pub t_s: f64,
    /// Shard the stream lived on at capture time.
    pub shard: usize,
    /// Fleet-wide stream id.
    pub stream: usize,
    /// The stream's completion sequence number at capture time (matches
    /// [`Event::Detection::seq`] of the last completed frame).
    pub seq: usize,
    /// Producer-defined replay state.
    pub payload: Arc<dyn Any + Send + Sync>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("t_s", &self.t_s)
            .field("shard", &self.shard)
            .field("stream", &self.stream)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

/// A sealed chunk plus its retention bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct SealedChunk {
    pub(crate) chunk: Chunk,
    /// Seal order — ties in the time index break on it for determinism.
    pub(crate) seq: u64,
    /// Last-touched stamp for LRU eviction (sealing and query hits bump it).
    pub(crate) stamp: u64,
}

/// Aggregate store statistics, for reporting and eviction-aware tooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Events currently held (open + sealed chunks).
    pub events: usize,
    /// Open (still-filling) chunks.
    pub open_chunks: usize,
    /// Sealed chunks currently retained.
    pub sealed_chunks: usize,
    /// Chunks dropped by LRU retention so far.
    pub chunks_evicted: usize,
    /// Events dropped with those chunks.
    pub events_evicted: usize,
    /// Snapshots held: only those whose stream still has every later
    /// [`Event::Detection`] completion (see [`ChunkStore::snapshot`]).
    pub snapshots: usize,
    /// Encoded payload bytes across all held chunks.
    pub encoded_bytes: usize,
}

/// Append-only chunked columnar event store.
///
/// Events are routed to an open chunk per [`ChunkKey`]; a chunk seals
/// once it reaches `chunk_events` rows and enters the time index (sorted
/// scans use its `t_min`/`t_max`). When sealed chunks exceed
/// `retention_chunks`, the least-recently-used sealed chunk is evicted.
/// Open chunks are never evicted. Snapshots live outside the chunks but
/// die with their replay window: one is dropped as soon as eviction
/// removes a later [`Event::Detection`] completion of its stream.
pub struct ChunkStore {
    chunk_events: usize,
    retention_chunks: usize,
    pub(crate) open: BTreeMap<ChunkKey, Chunk>,
    pub(crate) sealed: Vec<SealedChunk>,
    snapshots: Vec<Snapshot>,
    /// Per stream, the highest `Detection` seq eviction has dropped.
    evicted_seqs: BTreeMap<usize, usize>,
    clock: u64,
    seal_seq: u64,
    chunks_evicted: usize,
    events_evicted: usize,
    scratch: Vec<u64>,
}

impl std::fmt::Debug for ChunkStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkStore")
            .field("chunk_events", &self.chunk_events)
            .field("retention_chunks", &self.retention_chunks)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ChunkStore {
    /// A store sealing chunks at `chunk_events` rows and retaining at most
    /// `retention_chunks` sealed chunks (`usize::MAX` for unbounded).
    ///
    /// Panics if `chunk_events` is zero — a chunk must hold at least one
    /// event.
    pub fn new(chunk_events: usize, retention_chunks: usize) -> Self {
        assert!(
            chunk_events >= 1,
            "recorder chunks must hold at least one event"
        );
        ChunkStore {
            chunk_events,
            retention_chunks,
            open: BTreeMap::new(),
            sealed: Vec::new(),
            snapshots: Vec::new(),
            evicted_seqs: BTreeMap::new(),
            clock: 0,
            seal_seq: 0,
            chunks_evicted: 0,
            events_evicted: 0,
            scratch: Vec::new(),
        }
    }

    /// Chunk capacity in events.
    pub fn chunk_events(&self) -> usize {
        self.chunk_events
    }

    /// Sealed-chunk retention budget.
    pub fn retention_chunks(&self) -> usize {
        self.retention_chunks
    }

    /// Appends one event recorded on `shard` at virtual time `t_s`.
    pub fn record(&mut self, t_s: f64, shard: usize, event: Event) {
        let cap = self.chunk_events;
        if let Some(full) = append_row(&mut self.open, cap, &mut self.scratch, t_s, shard, &event) {
            self.seal(full);
        }
    }

    /// Takes over a chunk another writer filled to the end of its run,
    /// as an open chunk, exactly as if its rows had been recorded here.
    /// Should this store already hold an open chunk of the same partition,
    /// the rows are recorded behind that chunk's instead, so none is lost.
    pub(crate) fn adopt_open(&mut self, chunk: Chunk) {
        match self.open.entry(chunk.key()) {
            Entry::Vacant(slot) => {
                slot.insert(chunk);
            }
            Entry::Occupied(_) => {
                let shard = chunk.key().shard;
                for (t_s, event) in chunk.rows() {
                    self.record(t_s, shard, event);
                }
            }
        }
    }

    /// Stores a replay snapshot of `stream` at completion `seq`.
    ///
    /// Snapshots live outside the chunk/LRU machinery, and only while they
    /// can replay. Replay from a snapshot needs every later
    /// [`Event::Detection`] completion of its stream, so the snapshot is
    /// dropped as soon as eviction removes one of them, and refused here if
    /// one is already gone. Evicting completions up to `seq` itself keeps
    /// it. [`Event::Policy`] rows are not part of the rule: losing one
    /// leaves a replay unverified, never wrong without notice.
    pub fn snapshot(
        &mut self,
        t_s: f64,
        shard: usize,
        stream: usize,
        seq: usize,
        payload: Arc<dyn Any + Send + Sync>,
    ) {
        if self
            .evicted_seq(stream)
            .is_some_and(|evicted| seq < evicted)
        {
            return;
        }
        self.snapshots.push(Snapshot {
            t_s,
            shard,
            stream,
            seq,
            payload,
        });
    }

    /// The latest snapshot of `stream` taken at or before `t_s`, if any.
    pub fn nearest_snapshot(&self, stream: usize, t_s: f64) -> Option<&Snapshot> {
        self.snapshots
            .iter()
            .filter(|s| s.stream == stream && s.t_s <= t_s)
            .max_by(|a, b| a.t_s.total_cmp(&b.t_s).then(a.seq.cmp(&b.seq)))
    }

    /// All snapshots held, in capture order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The highest [`Event::Detection`] `seq` of `stream` that eviction
    /// has dropped, if any: no replay of the stream can run past it.
    pub fn evicted_seq(&self, stream: usize) -> Option<usize> {
        self.evicted_seqs.get(&stream).copied()
    }

    /// Seals every open chunk into the time index. Call at end of run so
    /// queries and the file codec see a consistent, fully-indexed store.
    pub fn seal_open_chunks(&mut self) {
        let open = std::mem::take(&mut self.open);
        for (_, chunk) in open {
            if !chunk.is_empty() {
                self.seal(chunk);
            }
        }
    }

    /// Evicts least-recently-used sealed chunks until at most `keep`
    /// remain. Returns how many chunks were dropped.
    pub fn evict_to(&mut self, keep: usize) -> usize {
        let mut dropped = 0;
        while self.sealed.len() > keep {
            self.evict_lru();
            dropped += 1;
        }
        dropped
    }

    /// Current store statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            events: self.open.values().map(|c| c.len()).sum::<usize>()
                + self.sealed.iter().map(|s| s.chunk.len()).sum::<usize>(),
            open_chunks: self.open.len(),
            sealed_chunks: self.sealed.len(),
            chunks_evicted: self.chunks_evicted,
            events_evicted: self.events_evicted,
            snapshots: self.snapshots.len(),
            encoded_bytes: self.open.values().map(|c| c.encoded_bytes()).sum::<usize>()
                + self
                    .sealed
                    .iter()
                    .map(|s| s.chunk.encoded_bytes())
                    .sum::<usize>(),
        }
    }

    /// Marks a sealed chunk as recently used (query hits call this so hot
    /// ranges survive retention pressure).
    pub(crate) fn touch(&mut self, idx: usize) {
        self.clock += 1;
        self.sealed[idx].stamp = self.clock;
    }

    /// Seals a full chunk into the time index, evicting to the retention
    /// budget: [`record`](ChunkStore::record)'s step once a row fills a
    /// chunk, and a barrier writer's when it publishes a chunk it filled.
    pub(crate) fn seal(&mut self, chunk: Chunk) {
        self.clock += 1;
        self.seal_seq += 1;
        let sealed = SealedChunk {
            chunk,
            seq: self.seal_seq,
            stamp: self.clock,
        };
        // Keep the time index sorted by (t_min, seal order); chunks are
        // few relative to events, so insertion into the sorted Vec is cheap.
        let pos = self.sealed.partition_point(|s| {
            s.chunk
                .t_min()
                .total_cmp(&sealed.chunk.t_min())
                .then(s.seq.cmp(&sealed.seq))
                .is_lt()
        });
        self.sealed.insert(pos, sealed);
        while self.sealed.len() > self.retention_chunks {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        if let Some((idx, _)) = self.sealed.iter().enumerate().min_by_key(|(_, s)| s.stamp) {
            let gone = self.sealed.remove(idx);
            self.chunks_evicted += 1;
            self.events_evicted += gone.chunk.len();
            let key = gone.chunk.key();
            if let (EventKind::Detection, Some(stream)) = (key.kind, key.stream) {
                // Rows are in completion order, so the last holds the
                // chunk's highest seq.
                if let Some(seq) = gone.chunk.last_value(DETECTION_SEQ_COL) {
                    self.raise_evicted_seq(stream, seq as usize);
                }
            }
        }
    }

    /// Records that `stream`'s completion `seq` is gone and drops every
    /// snapshot of the stream that needed it.
    fn raise_evicted_seq(&mut self, stream: usize, seq: usize) {
        if self
            .evicted_seq(stream)
            .is_some_and(|evicted| evicted >= seq)
        {
            return;
        }
        self.evicted_seqs.insert(stream, seq);
        self.snapshots
            .retain(|s| s.stream != stream || s.seq >= seq);
    }

    /// Rebuilds a store from codec parts (file load).
    pub(crate) fn from_sealed(
        chunk_events: usize,
        retention_chunks: usize,
        chunks: Vec<Chunk>,
    ) -> Self {
        let mut store = ChunkStore::new(chunk_events, retention_chunks);
        for c in chunks {
            store.seal(c);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn det(stream: usize, seq: usize) -> Event {
        Event::Detection {
            stream,
            seq,
            frame_index: seq - 1,
            detections: 2,
            latency_s: 0.01,
            output_hash: seq as u64 * 1234567,
        }
    }

    #[test]
    fn seals_at_capacity_and_indexes_by_time() {
        let mut store = ChunkStore::new(2, usize::MAX);
        for i in 1..=5 {
            store.record(i as f64 * 0.1, 0, det(7, i));
        }
        let stats = store.stats();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.sealed_chunks, 2);
        assert_eq!(stats.open_chunks, 1);
        store.seal_open_chunks();
        let stats = store.stats();
        assert_eq!(stats.sealed_chunks, 3);
        assert_eq!(stats.open_chunks, 0);
        // Time index sorted by t_min.
        let mins: Vec<f64> = store.sealed.iter().map(|s| s.chunk.t_min()).collect();
        let mut sorted = mins.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(mins, sorted);
    }

    #[test]
    fn retention_evicts_least_recently_used() {
        let mut store = ChunkStore::new(1, 2);
        store.record(0.1, 0, det(1, 1));
        store.record(0.2, 0, det(1, 2));
        // Touch the older chunk so the newer-but-untouched one is the LRU
        // victim once a third chunk arrives.
        store.touch(0);
        store.record(0.3, 0, det(1, 3));
        let stats = store.stats();
        assert_eq!(stats.sealed_chunks, 2);
        assert_eq!(stats.chunks_evicted, 1);
        assert_eq!(stats.events_evicted, 1);
        let kept: Vec<f64> = store.sealed.iter().map(|s| s.chunk.t_min()).collect();
        assert!(kept.contains(&0.1) && kept.contains(&0.3), "kept {kept:?}");
    }

    #[test]
    fn evict_to_shrinks_to_budget() {
        let mut store = ChunkStore::new(1, usize::MAX);
        for i in 1..=6 {
            store.record(i as f64, 0, det(1, i));
        }
        assert_eq!(store.stats().sealed_chunks, 6);
        assert_eq!(store.evict_to(2), 4);
        assert_eq!(store.stats().sealed_chunks, 2);
        assert_eq!(store.stats().chunks_evicted, 4);
    }

    #[test]
    fn nearest_snapshot_picks_latest_at_or_before() {
        let mut store = ChunkStore::new(8, usize::MAX);
        store.snapshot(1.0, 0, 5, 10, Arc::new(10usize));
        store.snapshot(2.0, 0, 5, 20, Arc::new(20usize));
        store.snapshot(1.5, 0, 6, 15, Arc::new(15usize));
        assert_eq!(store.nearest_snapshot(5, 2.5).unwrap().seq, 20);
        assert_eq!(store.nearest_snapshot(5, 1.9).unwrap().seq, 10);
        assert!(store.nearest_snapshot(5, 0.5).is_none());
        assert_eq!(store.nearest_snapshot(6, 9.0).unwrap().seq, 15);
    }

    #[test]
    fn a_snapshot_dies_once_a_later_completion_is_evicted() {
        assert_eq!(EventKind::Detection.columns()[DETECTION_SEQ_COL], "seq");
        // Stream 1's completions seal in pairs: [1, 2], [3, 4], [5, 6].
        let mut store = ChunkStore::new(2, usize::MAX);
        for i in 1..=6 {
            store.record(i as f64, 0, det(1, i));
        }
        store.snapshot(2.0, 0, 1, 2, Arc::new(2usize));
        store.snapshot(4.0, 0, 1, 4, Arc::new(4usize));
        store.snapshot(1.0, 0, 2, 1, Arc::new(1usize));
        let held = |store: &ChunkStore| -> Vec<(usize, usize)> {
            store
                .snapshots()
                .iter()
                .map(|s| (s.stream, s.seq))
                .collect()
        };
        // Losing completions up to a snapshot's own seq keeps it.
        store.evict_to(2);
        assert_eq!(store.evicted_seq(1), Some(2));
        assert_eq!(held(&store), [(1, 2), (1, 4), (2, 1)]);
        store.evict_to(1);
        assert_eq!(store.evicted_seq(1), Some(4));
        assert_eq!(held(&store), [(1, 4), (2, 1)]);
        assert_eq!(store.stats().snapshots, 2);
        // A snapshot dead on arrival is refused; other streams are untouched.
        store.snapshot(3.0, 0, 1, 3, Arc::new(3usize));
        store.snapshot(4.0, 0, 1, 4, Arc::new(4usize));
        assert_eq!(store.evicted_seq(2), None);
        assert_eq!(held(&store), [(1, 4), (2, 1), (1, 4)]);
    }

    #[test]
    fn evicting_other_kinds_keeps_snapshots() {
        let mut store = ChunkStore::new(1, usize::MAX);
        store.record(
            1.0,
            0,
            Event::Track {
                stream: 1,
                frame_index: 0,
                live_tracks: 3,
            },
        );
        store.record(
            2.0,
            0,
            Event::Policy {
                stream: 1,
                frame_index: 1,
                decision: 1,
                streak: 1,
            },
        );
        store.record(3.0, 0, det(1, 2));
        store.snapshot(0.5, 0, 1, 1, Arc::new(1usize));
        store.evict_to(1);
        assert_eq!(store.stats().chunks_evicted, 2);
        assert_eq!(store.evicted_seq(1), None);
        assert_eq!(store.stats().snapshots, 1);
    }

    #[test]
    fn fleet_level_events_key_without_stream() {
        let mut store = ChunkStore::new(4, usize::MAX);
        store.record(
            0.5,
            1,
            Event::Scale {
                from_workers: 1,
                to_workers: 2,
                reason: 3,
            },
        );
        let key = *store.open.keys().next().unwrap();
        assert_eq!(key.kind, EventKind::Scale);
        assert_eq!(key.shard, 1);
        assert_eq!(key.stream, None);
    }

    #[test]
    #[should_panic(expected = "recorder chunks must hold at least one event")]
    fn zero_capacity_rejected() {
        ChunkStore::new(0, usize::MAX);
    }
}
