//! Pins recorded runs across commits: an FNV-1a fingerprint of six seeded
//! recorded fleets must equal a constant. For each fleet it feeds the
//! saved bytes of the store (`encode`), the store's statistics, the
//! snapshots it holds with the counters each took, and every stream's
//! replay verdict from three points of the run. Every other
//! recorder test compares runs within one build, so a change that moved
//! where a row lands in its chunk, which chunk seals first, which one
//! retention evicts or which snapshot survives would pass all of them as
//! long as it moved them the same way at every thread count; this one
//! fails unless every byte and verdict is the pinned one.
//!
//! The fleets run at `--threads 2`, so the shard pool takes engines and
//! refinements. They cover fused lock-step dispatch, rebalancing with
//! migrations, the confidence-trigger policy, predictive autoscale, 4-row
//! chunks with retention eviction and snapshots, and a single shard (whose
//! writer publishes as its chunks fill); two more fleets of stateful chain
//! pipelines fill 3-row chunks, where which chunk seals first shows in
//! the bytes. The test checks that each fleet exercised what it is there
//! for. A change that is meant to move the
//! recordings must say so and update `PINNED` with the fingerprint it
//! prints.

mod common;

use catdet_recorder::encode;
use catdet_serve::{
    bursty_workload, kitti_workload, mixed_workload, replay_stream, serve_fleet_with_recorder,
    sine_workload, AutoscaleConfig, BurstProfile, FleetReport, PartitionKind, PolicyConfig,
    RebalanceSignal, ServeConfig, ShardConfig, SharedRecorder, StreamSnapshot, StreamSpec,
    SystemKind,
};
use common::chain_spec_steady;

/// The fingerprint of [`fingerprint_all`].
const PINNED: u64 = 0xce27_65e3_76bd_eace;

/// FNV-1a over 64-bit words, fed little-endian.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        bytes.iter().for_each(|&b| self.byte(b));
    }
}

/// One pinned fleet: its streams, its configuration, and the recorder's
/// chunk size, retention and snapshot cadence.
struct Fleet {
    name: &'static str,
    streams: fn() -> Vec<StreamSpec>,
    cfg: ServeConfig,
    recorder: (usize, usize, usize),
}

fn fleets() -> Vec<Fleet> {
    let two = ShardConfig::sharded(2)
        .with_partition(PartitionKind::LeastLoaded)
        .with_threads(2);
    let base = ServeConfig::new().with_workers(1).with_max_batch(4);
    let chain = ServeConfig::new()
        .with_workers(2)
        .with_max_batch(3)
        .with_queue_capacity(6);
    vec![
        Fleet {
            name: "fused lock-step",
            streams: || mixed_workload(4, 14, 21, SystemKind::CatdetA),
            cfg: base
                .with_fuse_refinement(true)
                .with_refine_batch_window_s(0.004)
                .with_queue_capacity(1000)
                .with_shard(two),
            recorder: (3, usize::MAX, 5),
        },
        Fleet {
            name: "rebalancing",
            streams: || {
                let burst = BurstProfile {
                    quiet_fps: 4.0,
                    burst_fps: 40.0,
                    quiet_s: 0.3,
                    burst_s: 0.2,
                };
                bursty_workload(6, 16, 22, SystemKind::CatdetA, burst)
            },
            cfg: base.with_queue_capacity(6).with_shard(
                two.with_rebalance_interval_s(0.05)
                    .with_migration_cost_frames(0)
                    .with_migration_cooldown_ticks(0),
            ),
            recorder: (4, 24, 4),
        },
        Fleet {
            name: "confidence trigger",
            streams: || kitti_workload(4, 18, 23, SystemKind::CatdetA),
            cfg: base
                .with_policy(PolicyConfig::confidence_trigger(1.0))
                .with_queue_capacity(1000)
                .with_shard(two.with_rebalance_interval_s(0.25)),
            recorder: (5, 16, 6),
        },
        Fleet {
            name: "predictive autoscale",
            streams: || sine_workload(4, 20, 24, SystemKind::CatdetA, 12.0, 8.0, 1.0),
            cfg: base
                .with_queue_capacity(8)
                .with_autoscale(AutoscaleConfig::predictive(1, 3))
                .with_shard(
                    two.with_rebalance_interval_s(0.25)
                        .with_rebalance_signal(RebalanceSignal::Predicted),
                ),
            recorder: (3, 20, 7),
        },
        Fleet {
            name: "4-row chunks",
            streams: || kitti_workload(4, 16, 25, SystemKind::CatdetA),
            cfg: base.with_queue_capacity(1000).with_shard(two),
            recorder: (4, 8, 3),
        },
        Fleet {
            name: "single shard",
            streams: || kitti_workload(3, 16, 26, SystemKind::CatdetA),
            cfg: base
                .with_workers(2)
                .with_queue_capacity(1000)
                .with_shard(ShardConfig::single().with_threads(2)),
            recorder: (3, 40, 4),
        },
        Fleet {
            name: "3-row chunks, one shard, fused",
            streams: || chain_streams(2, 15),
            cfg: chain
                .with_fuse_refinement(true)
                .with_refine_batch_window_s(0.004)
                .with_shard(ShardConfig::single().with_threads(2)),
            recorder: (3, 7, 2),
        },
        Fleet {
            name: "3-row chunks, two shards",
            streams: || chain_streams(5, 13),
            cfg: chain.with_shard(two),
            recorder: (3, usize::MAX, 0),
        },
    ]
}

/// `streams` stateful chain pipelines of `frames` frames each, at rates
/// and offsets that differ per stream.
fn chain_streams(streams: usize, frames: usize) -> Vec<StreamSpec> {
    (0..streams)
        .map(|id| {
            let fps = 10.0 + (id as f64 * 7.0) % 23.0;
            chain_spec_steady(id, fps, frames, id as f64 * 0.013)
        })
        .collect()
}

/// What a fleet exercised, so a weakened workload shows, and the
/// fingerprint of its run alone, so a failure names the fleet that moved.
#[derive(Debug, Default)]
struct Tally {
    fingerprint: u64,
    fused: usize,
    migrations: usize,
    coasted: usize,
    scale_events: usize,
    evicted: usize,
    snapshots: usize,
    resumed: usize,
    refused: usize,
}

/// Runs one fleet and feeds its recording: the encoded store, its
/// statistics, and each stream's replay verdict from the start, the
/// middle and the end of the run.
fn feed(h: &mut Fnv, tally: &mut Tally, fleet: &Fleet) -> FleetReport {
    let (chunk, retention, every) = fleet.recorder;
    let recorder = SharedRecorder::new(chunk, retention, every);
    let report = serve_fleet_with_recorder((fleet.streams)(), &fleet.cfg, &recorder);
    h.bytes(fleet.name.as_bytes());
    h.bytes(&recorder.with_store(|s| encode(s)));
    let stats = recorder.stats();
    for v in [
        stats.events,
        stats.open_chunks,
        stats.sealed_chunks,
        stats.chunks_evicted,
        stats.events_evicted,
        stats.snapshots,
        stats.encoded_bytes,
    ] {
        h.word(v as u64);
    }
    // The snapshots held, in capture order, with the counters each took.
    recorder.with_store(|s| {
        for snap in s.snapshots() {
            h.word(snap.t_s.to_bits());
            for v in [snap.shard, snap.stream, snap.seq] {
                h.word(v as u64);
            }
            let taken = snap
                .payload
                .downcast_ref::<StreamSnapshot>()
                .expect("a serving snapshot");
            for v in [
                taken.arrived,
                taken.processed,
                taken.dropped,
                taken.queue_depth,
            ] {
                h.word(v as u64);
            }
        }
    });
    let end = report.makespan_s();
    for spec in (fleet.streams)() {
        for t in [0.0, 0.5 * end, end] {
            match replay_stream(&recorder, &spec, t) {
                Ok(replay) => {
                    h.word(replay.stream as u64);
                    h.word(replay.resumed_after_seq as u64);
                    h.word(replay.snapshot_t_s.map_or(u64::MAX, f64::to_bits));
                    h.word(replay.frames.len() as u64);
                    for f in &replay.frames {
                        h.word(f.seq as u64);
                        h.word(f.frame_index as u64);
                        h.word(f.recorded_hash);
                        h.word(f.replayed_hash);
                    }
                    tally.resumed += usize::from(replay.resumed_after_seq > 0);
                }
                Err(e) => {
                    h.bytes(format!("{e:?}").as_bytes());
                    tally.refused += 1;
                }
            }
        }
    }
    tally.fused += report.fused_refinements.len();
    tally.migrations += report.migrations.len();
    tally.coasted += report.frames_coasted();
    tally.scale_events += report.scale_timeline().len();
    tally.evicted += stats.chunks_evicted;
    tally.snapshots += stats.snapshots;
    report
}

/// FNV-1a's offset basis.
const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The fingerprint of every fleet's fingerprint, in order.
fn fingerprint_all() -> (u64, Vec<Tally>) {
    let mut h = Fnv(BASIS);
    let tallies = fleets()
        .iter()
        .map(|fleet| {
            let mut tally = Tally::default();
            let mut own = Fnv(BASIS);
            let report = feed(&mut own, &mut tally, fleet);
            tally.fingerprint = own.0;
            h.word(own.0);
            assert!(
                report.frames_processed() > 0,
                "{}: nothing processed",
                fleet.name
            );
            tally
        })
        .collect();
    (h.0, tallies)
}

#[test]
fn recorded_runs_match_the_pinned_fingerprint() {
    let (fingerprint, tallies) = fingerprint_all();
    let [fused, rebalancing, policy, autoscale, chunks, single, ..] = &tallies[..] else {
        panic!("eight fleets expected");
    };
    assert!(fused.fused > 0, "no cross-shard dispatch fired: {fused:?}");
    assert!(
        rebalancing.migrations > 0,
        "no stream migrated: {rebalancing:?}"
    );
    assert!(policy.coasted > 0, "no frame coasted: {policy:?}");
    assert!(
        autoscale.scale_events > 0,
        "the autoscaler never moved: {autoscale:?}"
    );
    assert!(
        chunks.evicted > 0 && chunks.snapshots > 0 && chunks.refused > 0,
        "retention evicted nothing a replay needed: {chunks:?}"
    );
    assert!(
        single.evicted > 0 && single.resumed > 0,
        "the single shard neither evicted nor resumed from a snapshot: {single:?}"
    );
    assert!(
        tallies[..6].iter().all(|t| t.resumed > 0 || t.refused > 0),
        "a fleet replayed nothing: {tallies:?}"
    );
    assert_eq!(
        fingerprint, PINNED,
        "the recordings moved: fingerprint {fingerprint:#018x} ({tallies:?})"
    );
}
