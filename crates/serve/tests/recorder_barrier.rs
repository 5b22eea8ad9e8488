//! Encoding on the engine threads changes nothing: barrier handles that
//! encode rows into chunks of their own, publish the chunks that filled
//! at each barrier and hand their open chunks over at the end leave the
//! store exactly as booking every row straight into one `ChunkStore`, in
//! barrier order, would — saved bytes, scans, statistics and the
//! snapshots that survive retention.
//!
//! And for the store's only writer, the publish cadence changes nothing:
//! a sole handle that publishes whenever a chunk fills leaves the store
//! exactly as one flush at the end does, while retention evicts as the
//! run goes.

use catdet_recorder::{encode, ChunkStore, Event, FlightRecorder, Query, SharedRecorder};
use proptest::prelude::*;
use std::sync::Arc;

/// What a handle keeps until a barrier, in the reference: rows, then
/// snapshots `(t_s, stream, seq, payload id)`.
#[derive(Default)]
struct Pending {
    rows: Vec<(f64, Event)>,
    snaps: Vec<(f64, usize, usize, usize)>,
}

/// The reference: one store that every row is booked straight into, in
/// barrier order — each handle's rows, then its snapshots, in shard order.
struct Reference {
    store: ChunkStore,
    pending: Vec<Pending>,
}

impl Reference {
    fn barrier(&mut self) {
        for (shard, p) in self.pending.iter_mut().enumerate() {
            for (t_s, event) in p.rows.drain(..) {
                self.store.record(t_s, shard, event);
            }
            for (t_s, stream, seq, id) in p.snaps.drain(..) {
                self.store.snapshot(t_s, shard, stream, seq, Arc::new(id));
            }
        }
    }
}

/// A handle's row of kind `kind` (the kinds an engine books) for `stream`.
fn engine_row(kind: usize, stream: usize, seq: usize, n: u64) -> Event {
    match kind {
        0 => Event::Detection {
            stream,
            seq,
            frame_index: seq.saturating_sub(1),
            detections: (n % 7) as usize,
            latency_s: (n % 50) as f64 * 1e-3,
            output_hash: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        },
        1 => Event::Track {
            stream,
            frame_index: n as usize,
            live_tracks: (n % 9) as usize,
        },
        2 => Event::Batch {
            stream,
            worker: (n % 3) as usize,
            stage: n % 2,
            size: 1 + (n % 4) as usize,
        },
        3 => Event::Admission {
            stream,
            reason: n % 3,
        },
        4 => Event::Policy {
            stream,
            frame_index: n as usize,
            decision: n % 2,
            streak: (n % 5) as usize,
        },
        _ => Event::Scale {
            from_workers: 1 + (n % 3) as usize,
            to_workers: 1 + (n % 4) as usize,
            reason: n % 4,
        },
    }
}

/// A row the fleet books itself, straight into the store.
fn fleet_row(n: u64, stream: usize, shards: usize) -> (usize, Event) {
    if n.is_multiple_of(2) {
        let from = (n as usize / 2) % shards;
        let event = Event::Migration {
            stream,
            from_shard: from,
            to_shard: (from + 1) % shards,
            backlog_moved: (n % 6) as usize,
        };
        (from, event)
    } else {
        let event = Event::Conn {
            stream,
            code: n % 5,
            frame: n as usize,
            detail: n % 11,
        };
        (0, event)
    }
}

/// Every snapshot held, as `(t_s bits, shard, stream, seq, payload id)`.
fn snapshot_set(store: &ChunkStore) -> Vec<(u64, usize, usize, usize, usize)> {
    store
        .snapshots()
        .iter()
        .map(|s| {
            let id = *s.payload.downcast_ref::<usize>().expect("usize payload");
            (s.t_s.to_bits(), s.shard, s.stream, s.seq, id)
        })
        .collect()
}

proptest! {
    #[test]
    fn barrier_handles_book_what_direct_booking_in_barrier_order_books(
        shards in 1usize..5,
        chunk_events in 1usize..9,
        retention in (0usize..14).prop_map(|r| if r == 0 { usize::MAX } else { r }),
        snapshot_every in 0usize..4,
        // (step selector, shard, stream, time step in µs)
        script in proptest::collection::vec((0usize..10, 0usize..5, 0usize..4, 0u64..4000), 0..400),
    ) {
        let shared = SharedRecorder::new(chunk_events, retention, snapshot_every);
        let mut handles: Vec<_> = (0..shards).map(|k| shared.barrier_handle(k)).collect();
        let mut reference = Reference {
            store: ChunkStore::new(chunk_events, retention),
            pending: (0..shards).map(|_| Pending::default()).collect(),
        };
        let mut seqs = [0usize; 4];
        let mut t_us = 0u64;
        let mut snaps = 0usize;
        for (n, &(step, shard, stream, dt_us)) in script.iter().enumerate() {
            t_us += dt_us;
            let t_s = t_us as f64 * 1e-6;
            let n = n as u64;
            let shard = shard % shards;
            match step {
                0..=5 => {
                    if step == 0 {
                        seqs[stream] += 1;
                    }
                    let seq = seqs[stream];
                    let event = engine_row(step, stream, seq, n);
                    handles[shard].record(t_s, event);
                    reference.pending[shard].rows.push((t_s, event));
                    // The engine's cadence: a snapshot every
                    // `snapshot_every` completions of a stream.
                    if step == 0 && snapshot_every > 0 && seq.is_multiple_of(snapshot_every) {
                        snaps += 1;
                        handles[shard].snapshot(t_s, stream, seq, Arc::new(snaps));
                        reference.pending[shard].snaps.push((t_s, stream, seq, snaps));
                    }
                }
                6 | 7 => {
                    let (on, event) = fleet_row(n, stream, shards);
                    shared.record(t_s, on, event);
                    reference.store.record(t_s, on, event);
                }
                _ => {
                    for h in &mut handles {
                        h.publish();
                    }
                    reference.barrier();
                    // Between barriers the handles hold their open chunks,
                    // but everything sealed is already the same.
                    let (live, want) = (shared.stats(), reference.store.stats());
                    prop_assert_eq!(live.sealed_chunks, want.sealed_chunks);
                    prop_assert_eq!(live.chunks_evicted, want.chunks_evicted);
                    prop_assert_eq!(live.events_evicted, want.events_evicted);
                    prop_assert_eq!(live.snapshots, want.snapshots);
                }
            }
        }
        // The end of the run: the final drains in shard order, then seal.
        for h in &mut handles {
            h.flush();
        }
        reference.barrier();
        shared.seal_open_chunks();
        reference.store.seal_open_chunks();
        let mut want = reference.store;
        shared.with_store(|live| {
            prop_assert_eq!(encode(live), encode(&want));
            prop_assert_eq!(live.stats(), want.stats());
            prop_assert_eq!(snapshot_set(live), snapshot_set(&want));
            prop_assert_eq!(live.scan(&Query::all()), want.scan(&Query::all()));
        });
        // Dropping drained handles books nothing more.
        drop(handles);
        prop_assert_eq!(shared.with_store(|live| encode(live)), encode(&want));
    }
}

proptest! {
    #[test]
    fn a_sole_handle_publishing_at_every_fill_books_what_one_final_flush_books(
        chunk_events in 1usize..9,
        retention in (0usize..14).prop_map(|r| if r == 0 { usize::MAX } else { r }),
        snapshot_every in 0usize..4,
        // Rows booked straight into the store before the handle's, as a
        // one-shard fleet's front door books its connection events.
        prelude in 0u64..6,
        // (step selector, stream, time step in µs)
        script in proptest::collection::vec((0usize..8, 0usize..4, 0u64..4000), 0..400),
    ) {
        let sole_store = SharedRecorder::new(chunk_events, retention, snapshot_every);
        let once_store = SharedRecorder::new(chunk_events, retention, snapshot_every);
        let mut direct = ChunkStore::new(chunk_events, retention);
        for n in 0..prelude {
            let (_, event) = fleet_row(2 * n + 1, n as usize % 4, 1);
            let t_s = n as f64 * 1e-4;
            sole_store.record(t_s, 0, event);
            once_store.record(t_s, 0, event);
            direct.record(t_s, 0, event);
        }
        let mut sole = sole_store.sole_handle(0);
        let mut once = once_store.barrier_handle(0);
        let mut seqs = [0usize; 4];
        let mut t_us = 1_000u64;
        let mut snaps = 0usize;
        for (n, &(step, stream, dt_us)) in script.iter().enumerate() {
            t_us += dt_us;
            let t_s = t_us as f64 * 1e-6;
            let n = n as u64;
            if step <= 5 {
                if step == 0 {
                    seqs[stream] += 1;
                }
                let seq = seqs[stream];
                let event = engine_row(step, stream, seq, n);
                sole.record(t_s, event);
                once.record(t_s, event);
                direct.record(t_s, 0, event);
                if step == 0 && snapshot_every > 0 && seq.is_multiple_of(snapshot_every) {
                    snaps += 1;
                    sole.snapshot(t_s, stream, seq, Arc::new(snaps));
                    once.snapshot(t_s, stream, seq, Arc::new(snaps));
                }
            } else {
                // Extra publishes, at any point, change nothing either.
                sole.publish();
            }
            // The sole handle's seals and evictions happen as its chunks
            // fill, as if every row were booked straight into the store.
            let (live, want) = (sole_store.stats(), direct.stats());
            prop_assert_eq!(live.sealed_chunks, want.sealed_chunks);
            prop_assert_eq!(live.chunks_evicted, want.chunks_evicted);
            prop_assert_eq!(live.events_evicted, want.events_evicted);
        }
        sole.flush();
        once.flush();
        sole_store.seal_open_chunks();
        once_store.seal_open_chunks();
        let want = once_store.with_store(|s| {
            (encode(s), s.stats(), snapshot_set(s), s.scan(&Query::all()))
        });
        sole_store.with_store(|live| {
            prop_assert_eq!(encode(live), want.0);
            prop_assert_eq!(live.stats(), want.1);
            prop_assert_eq!(snapshot_set(live), want.2);
            prop_assert_eq!(live.scan(&Query::all()), want.3);
        });
    }
}
