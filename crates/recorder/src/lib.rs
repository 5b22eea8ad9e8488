//! Flight recorder: an append-only, chunked, columnar event store with a
//! time index, bounded retention, telemetry queries, and the snapshot
//! hooks that power bit-exact time-travel replay.
//!
//! ```text
//!            record(t, shard, event)
//!                     │
//!        ┌────────────▼─────────────┐   seal at chunk_events rows
//!        │ open chunks              │ ───────────────────────────┐
//!        │ BTreeMap<ChunkKey,Chunk> │                            │
//!        └──────────────────────────┘                            ▼
//!   ChunkKey = (kind, shard, stream)              ┌──────────────────────┐
//!   Chunk    = struct-of-arrays columns,          │ time index           │
//!              delta/zigzag/varint encoded        │ sealed chunks sorted │
//!              (column 0 = virtual time)          │ by (t_min, seal seq) │
//!                                                 └──────────┬───────────┘
//!                                 LRU eviction when over     │  scan(Query)
//!                                 retention_chunks ◄─────────┘  latency_stats
//! ```
//!
//! The [`FlightRecorder`] trait is the producer-side seam: the serving
//! engine and the staged-detector drive loop talk to `&mut dyn
//! FlightRecorder`, and the default implementation ([`NullRecorder`])
//! makes every hook a no-op so the hot path pays one virtual `enabled()`
//! check when recording is off. [`SharedRecorder`] is the live
//! implementation: a cheaply-clonable handle over one [`ChunkStore`]
//! that per-shard engines write into and queries read out of. Each
//! engine writes through a [`BarrierRecorder`], which encodes its rows
//! into open chunks of its own on the engine's thread, so the store only
//! takes in whole chunks, in a fixed order, at the fleet's barriers — or,
//! from a one-shard fleet's sole writer, as each chunk fills.

#![warn(missing_docs)]

mod chunk;
mod codec;
mod event;
mod query;
mod store;

pub use chunk::{Chunk, ChunkKey, VarintCol};
pub use codec::{decode, encode, read_file, write_file, DecodeError};
pub use event::{
    Event, EventKind, POLICY_DEGRADED_OFF, POLICY_DEGRADED_ON, STAGE_PROPOSAL, STAGE_REFINEMENT,
};
pub use query::{LatencySummary, Query, RecordedEvent, RollingWindow};
pub use store::{ChunkStore, Snapshot, StoreStats};

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use store::append_row;

/// Producer-side recording hooks, threaded through the serving engine and
/// the staged drive loop.
///
/// Every method has a no-op default so `NullRecorder` (and any partial
/// implementation) costs nothing beyond the virtual call; producers guard
/// their event-assembly work behind [`enabled`](FlightRecorder::enabled)
/// so the disabled path does not even build events.
///
/// Recorders are `Send`: a shard engine owns its writing end, and the
/// fleet may move whole engines onto pool threads between barriers.
pub trait FlightRecorder: Send {
    /// Whether events are being kept. Producers skip event assembly
    /// entirely when this is false.
    fn enabled(&self) -> bool {
        false
    }

    /// Books one event at virtual time `t_s`.
    fn record(&mut self, _t_s: f64, _event: Event) {}

    /// Books a replay snapshot of `stream` at completion sequence `seq`.
    /// The payload is the producer's own state capture (the recorder
    /// stores it opaquely).
    fn snapshot(
        &mut self,
        _t_s: f64,
        _stream: usize,
        _seq: usize,
        _payload: Arc<dyn Any + Send + Sync>,
    ) {
    }

    /// How often (in completed frames per stream) the producer should
    /// capture a snapshot; `0` disables snapshots.
    fn snapshot_interval(&self) -> usize {
        0
    }

    /// Publishes what the implementation has completed to the backing
    /// store, and may keep the rest for [`flush`](FlightRecorder::flush).
    /// Barrier-synchronised producers call this at each barrier. Defaults
    /// to `flush`.
    fn publish(&mut self) {
        self.flush();
    }

    /// Drains everything the implementation has buffered into the backing
    /// store: for a [`BarrierRecorder`], what `publish` would plus the
    /// chunks still filling. Producers call this once their run finishes,
    /// before the store is sealed or queried.
    fn flush(&mut self) {}
}

/// The always-off recorder: every hook is a no-op and
/// [`enabled`](FlightRecorder::enabled) is false, so producers skip all
/// recording work.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl FlightRecorder for NullRecorder {}

/// A cheaply-clonable handle over one shared [`ChunkStore`].
///
/// A fleet run creates one `SharedRecorder`, hands each shard engine a
/// [`barrier_handle`](SharedRecorder::barrier_handle) (which stamps that
/// shard id on everything it books), and keeps the original for
/// fleet-level events, queries, and replay after the run.
#[derive(Clone)]
pub struct SharedRecorder {
    store: Arc<Mutex<ChunkStore>>,
    snapshot_every: usize,
}

impl std::fmt::Debug for SharedRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRecorder")
            .field("snapshot_every", &self.snapshot_every)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedRecorder {
    /// A recorder over a fresh store. `chunk_events` is the chunk seal
    /// size (must be ≥ 1), `retention_chunks` the sealed-chunk budget
    /// (`usize::MAX` for unbounded), `snapshot_every` the per-stream
    /// snapshot cadence in completed frames (`0` disables snapshots and
    /// with them time-travel replay).
    pub fn new(chunk_events: usize, retention_chunks: usize, snapshot_every: usize) -> Self {
        SharedRecorder {
            store: Arc::new(Mutex::new(ChunkStore::new(chunk_events, retention_chunks))),
            snapshot_every,
        }
    }

    /// A per-shard [`FlightRecorder`] that stamps `shard` on everything
    /// it books and keeps **everything** — rows, encoded into chunks of
    /// its own, and snapshots — locally, touching the shared store only
    /// on [`publish`](FlightRecorder::publish) and
    /// [`flush`](FlightRecorder::flush).
    ///
    /// This is the writing end the fleet hands its shard engines. Writing
    /// mid-run from engines on real threads would ingest events in
    /// whatever order the OS scheduled the threads — chunk boundaries,
    /// seal sequence, LRU stamps and snapshot order would all vary run to
    /// run. The barrier handle defers every store write to the points the
    /// fleet invokes in **shard-id order at its lock-step barriers**,
    /// making the store's ingest order a pure function of virtual time at
    /// any thread count, while the encoding runs on the engine's thread.
    ///
    /// The handle owns its shard's partitions. Rows booked through
    /// [`record`](SharedRecorder::record) should use kinds the handle
    /// never writes (the fleet's migrations and connection events do): a
    /// partition written both ways gets the handle's rows behind the
    /// direct ones at the end of the run, not in barrier order.
    ///
    /// A fleet with one shard and no barriers uses
    /// [`sole_handle`](SharedRecorder::sole_handle) instead.
    pub fn barrier_handle(&self, shard: usize) -> BarrierRecorder {
        self.handle(shard, false)
    }

    /// A [`barrier_handle`](SharedRecorder::barrier_handle) that also
    /// publishes whenever one of its chunks fills, for a writer that is
    /// the store's **only** one while it runs (a one-shard fleet).
    ///
    /// With no other writer, the store sees the same seals, in the same
    /// order, whenever they are published, so it makes the same
    /// evictions, and a snapshot's survival depends only on the highest
    /// completion its stream lost: any publish cadence leaves the store
    /// exactly as one flush at the end would. Publishing as chunks fill
    /// lets retention evict — and drop the snapshots that die with the
    /// evicted window — during the run, so a run's memory is bounded by
    /// retention, not by its length.
    pub fn sole_handle(&self, shard: usize) -> BarrierRecorder {
        self.handle(shard, true)
    }

    fn handle(&self, shard: usize, publish_on_fill: bool) -> BarrierRecorder {
        BarrierRecorder {
            store: Arc::clone(&self.store),
            shard,
            snapshot_every: self.snapshot_every,
            chunk_events: self.with_store(|s| s.chunk_events()),
            publish_on_fill,
            open: BTreeMap::new(),
            full: Vec::new(),
            snaps: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Books one event directly (fleet-level producers that already know
    /// the shard, e.g. migration bookkeeping).
    pub fn record(&self, t_s: f64, shard: usize, event: Event) {
        self.store
            .lock()
            .expect("recorder lock")
            .record(t_s, shard, event);
    }

    /// Runs `f` with exclusive access to the underlying store — the door
    /// to [`ChunkStore::scan`], [`ChunkStore::latency_stats`], eviction,
    /// and the file codec.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut ChunkStore) -> R) -> R {
        f(&mut self.store.lock().expect("recorder lock"))
    }

    /// Seals every open chunk (call once a run finishes, before queries
    /// or saving).
    pub fn seal_open_chunks(&self) {
        self.with_store(|s| s.seal_open_chunks());
    }

    /// Current store statistics.
    pub fn stats(&self) -> StoreStats {
        self.with_store(|s| s.stats())
    }

    /// Scans matching events (see [`ChunkStore::scan`]).
    pub fn scan(&self, query: &Query) -> Vec<RecordedEvent> {
        self.with_store(|s| s.scan(query))
    }

    /// Nearest-rank percentiles over matching recorded latencies (see
    /// [`ChunkStore::latency_stats`]).
    pub fn latency_stats(&self, query: &Query) -> LatencySummary {
        self.with_store(|s| s.latency_stats(query))
    }

    /// The latest snapshot of `stream` at or before `t_s`, if one was
    /// captured and survives.
    pub fn nearest_snapshot(&self, stream: usize, t_s: f64) -> Option<Snapshot> {
        self.with_store(|s| s.nearest_snapshot(stream, t_s).cloned())
    }

    /// Saves the recorded events to `path` (snapshots are in-memory only;
    /// see [`codec`](crate::write_file) docs).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.with_store(|s| {
            s.seal_open_chunks();
            codec::write_file(s, path)
        })
    }
}

/// Writing end of a [`SharedRecorder`] for barrier-synchronised
/// producers (see [`barrier_handle`](SharedRecorder::barrier_handle)), or
/// for a sole writer that publishes as its chunks fill (see
/// [`sole_handle`](SharedRecorder::sole_handle)).
///
/// Each row is encoded into the handle's own open chunk for its
/// partition on whichever thread runs the producer; snapshots queue in
/// record order. Nothing reaches the store until
/// [`publish`](FlightRecorder::publish), at a barrier: under one lock it
/// seals the chunks that filled since the last publish, in the order they
/// filled, then books the snapshots, so no snapshot ever precedes the rows
/// that led to it. A row changes the store's shared state (seal order,
/// LRU stamps, eviction, and with it which snapshots survive) only when
/// it fills a chunk, so this is the very sequence that booking every row
/// into the store at the barrier makes; only the encoding has left the
/// barrier. Open chunks reach the store at [`flush`](FlightRecorder::flush),
/// once the run is over and before the store seals them. A sole handle
/// also publishes each time a row fills a chunk, so its snapshots reach
/// the store — and die there with their evicted window — as the run goes.
///
/// Dropping the handle flushes, so a forgotten flush loses nothing — it
/// only books later than the barrier discipline intended. A drop that
/// finds the store's lock poisoned drops the handle's rows instead of
/// panicking: it may run while a shard's panic unwinds, and a second
/// panic there would abort the process.
pub struct BarrierRecorder {
    store: Arc<Mutex<ChunkStore>>,
    shard: usize,
    snapshot_every: usize,
    chunk_events: usize,
    /// Whether a row that fills a chunk publishes (a sole handle).
    publish_on_fill: bool,
    /// Chunks still filling, keyed as the store keys its own.
    open: BTreeMap<ChunkKey, Chunk>,
    /// Chunks filled since the last publish, in the order they filled.
    full: Vec<Chunk>,
    snaps: Vec<(f64, usize, usize, Arc<dyn Any + Send + Sync>)>,
    scratch: Vec<u64>,
}

impl BarrierRecorder {
    /// Seals the chunks filled since the last publish, then books the
    /// snapshots.
    fn publish_into(&mut self, store: &mut ChunkStore) {
        for chunk in self.full.drain(..) {
            store.seal(chunk);
        }
        for (t_s, stream, seq, payload) in self.snaps.drain(..) {
            store.snapshot(t_s, self.shard, stream, seq, payload);
        }
    }

    /// Publishes, then hands the open chunks over.
    fn drain_into(&mut self, store: &mut ChunkStore) {
        self.publish_into(store);
        for (_, chunk) in std::mem::take(&mut self.open) {
            store.adopt_open(chunk);
        }
    }
}

impl Drop for BarrierRecorder {
    fn drop(&mut self) {
        // Poisoned: a panic elsewhere held the store. The rows go with the
        // handle rather than raise a second panic.
        let store = Arc::clone(&self.store);
        if let Ok(mut store) = store.lock() {
            self.drain_into(&mut store);
        };
    }
}

impl std::fmt::Debug for BarrierRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BarrierRecorder")
            .field("shard", &self.shard)
            .field("snapshot_every", &self.snapshot_every)
            .field("publish_on_fill", &self.publish_on_fill)
            .field("open_chunks", &self.open.len())
            .field("full_chunks", &self.full.len())
            .field("buffered_snapshots", &self.snaps.len())
            .finish()
    }
}

impl FlightRecorder for BarrierRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, t_s: f64, event: Event) {
        let (cap, shard) = (self.chunk_events, self.shard);
        if let Some(full) = append_row(&mut self.open, cap, &mut self.scratch, t_s, shard, &event) {
            self.full.push(full);
            if self.publish_on_fill {
                self.publish();
            }
        }
    }

    fn snapshot(
        &mut self,
        t_s: f64,
        stream: usize,
        seq: usize,
        payload: Arc<dyn Any + Send + Sync>,
    ) {
        self.snaps.push((t_s, stream, seq, payload));
    }

    fn snapshot_interval(&self) -> usize {
        self.snapshot_every
    }

    fn publish(&mut self) {
        if self.full.is_empty() && self.snaps.is_empty() {
            return;
        }
        let store = Arc::clone(&self.store);
        self.publish_into(&mut store.lock().expect("recorder lock"));
    }

    fn flush(&mut self) {
        if self.full.is_empty() && self.snaps.is_empty() && self.open.is_empty() {
            return;
        }
        let store = Arc::clone(&self.store);
        self.drain_into(&mut store.lock().expect("recorder lock"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let mut null = NullRecorder;
        assert!(!null.enabled());
        assert_eq!(null.snapshot_interval(), 0);
        null.record(
            0.0,
            Event::Admission {
                stream: 0,
                reason: 0,
            },
        );
        null.snapshot(0.0, 0, 0, Arc::new(()));
    }

    #[test]
    fn shard_handles_stamp_their_shard() {
        let shared = SharedRecorder::new(4, usize::MAX, 8);
        let mut h0 = shared.barrier_handle(0);
        let mut h2 = shared.barrier_handle(2);
        assert!(h0.enabled());
        assert_eq!(h0.snapshot_interval(), 8);
        h0.record(
            0.1,
            Event::Admission {
                stream: 1,
                reason: 0,
            },
        );
        h2.record(
            0.2,
            Event::Admission {
                stream: 9,
                reason: 1,
            },
        );
        shared.record(
            0.3,
            5,
            Event::Scale {
                from_workers: 1,
                to_workers: 2,
                reason: 0,
            },
        );
        // Handles buffer; the store sees their events once they flush.
        assert_eq!(shared.scan(&Query::all()).len(), 1);
        h0.flush();
        h2.flush();
        let events = shared.scan(&Query::all());
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].shard, 0);
        assert_eq!(events[1].shard, 2);
        assert_eq!(events[2].shard, 5);
    }

    /// Rows booked per handle by the buffering tests.
    const ROWS: usize = 256;

    #[test]
    fn barrier_handle_defers_everything_until_flush() {
        let shared = SharedRecorder::new(4, usize::MAX, 2);
        let mut h = shared.barrier_handle(3);
        assert!(h.enabled());
        assert_eq!(h.snapshot_interval(), 2);
        for i in 0..2 * ROWS {
            h.record(
                i as f64 * 0.001,
                Event::Admission {
                    stream: 0,
                    reason: 0,
                },
            );
        }
        h.snapshot(0.1, 0, 2, Arc::new(7usize));
        // Nothing lands before the barrier, however much is buffered.
        assert_eq!(shared.scan(&Query::all()).len(), 0);
        assert!(shared.nearest_snapshot(0, 1.0).is_none());
        h.flush();
        assert_eq!(shared.scan(&Query::all()).len(), 2 * ROWS);
        assert_eq!(shared.nearest_snapshot(0, 1.0).expect("snapshot").shard, 3);
    }

    #[test]
    fn sole_handle_publishes_as_its_chunks_fill() {
        let shared = SharedRecorder::new(4, usize::MAX, 2);
        let mut h = shared.sole_handle(3);
        let admission = Event::Admission {
            stream: 0,
            reason: 0,
        };
        for i in 0..3 {
            h.record(i as f64 * 0.001, admission);
        }
        h.snapshot(0.002, 0, 2, Arc::new(7usize));
        // Nothing has filled yet: the rows and the snapshot wait.
        assert_eq!(shared.stats().sealed_chunks, 0);
        assert!(shared.nearest_snapshot(0, 1.0).is_none());
        // The fourth row fills the chunk, which publishes both.
        h.record(0.003, admission);
        assert_eq!(shared.stats().sealed_chunks, 1);
        assert_eq!(shared.nearest_snapshot(0, 1.0).expect("snapshot").shard, 3);
        h.record(0.004, admission);
        assert_eq!(shared.stats().events, 4);
        h.flush();
        assert_eq!(shared.stats().events, 5);
    }

    #[test]
    fn barrier_handle_flushes_on_drop() {
        let shared = SharedRecorder::new(4, usize::MAX, 0);
        {
            let mut h = shared.barrier_handle(1);
            h.record(
                0.5,
                Event::Admission {
                    stream: 2,
                    reason: 1,
                },
            );
        }
        assert_eq!(shared.scan(&Query::all()).len(), 1);
    }

    #[test]
    fn dropping_a_handle_over_a_poisoned_store_loses_its_rows_quietly() {
        let shared = SharedRecorder::new(4, usize::MAX, 2);
        let mut h = shared.barrier_handle(0);
        for i in 0..6 {
            h.record(
                i as f64 * 0.1,
                Event::Admission {
                    stream: 0,
                    reason: 0,
                },
            );
        }
        h.snapshot(0.5, 0, 2, Arc::new(2usize));
        // A panic while the store is held poisons its lock.
        let poisoner = shared.clone();
        let held = std::thread::spawn(move || poisoner.with_store(|_| panic!("store poisoned")));
        assert!(held.join().is_err());
        assert!(shared.store.is_poisoned());
        // The drop must not panic: during a shard panic's unwinding that
        // would abort the process.
        let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(h)));
        assert!(dropped.is_ok(), "dropping the handle panicked");
    }

    #[test]
    fn snapshots_round_trip_through_shared_handle() {
        let shared = SharedRecorder::new(4, usize::MAX, 2);
        let mut h = shared.barrier_handle(1);
        h.snapshot(0.5, 7, 2, Arc::new(String::from("state")));
        h.flush();
        let snap = shared.nearest_snapshot(7, 1.0).expect("snapshot");
        assert_eq!(snap.shard, 1);
        assert_eq!(snap.seq, 2);
        let payload = snap.payload.downcast_ref::<String>().expect("downcast");
        assert_eq!(payload, "state");
    }
}
