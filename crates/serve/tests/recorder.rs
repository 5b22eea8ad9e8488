//! Flight-recorder integration tests: recording never perturbs the run,
//! golden time-travel replay is bit-identical to the live run, recorded
//! latencies answer queries with exactly the report's percentiles (under
//! random chunk boundaries), chunk eviction surfaces as an actionable
//! replay error instead of silent divergence or truncation, and a replay
//! snapshot lives exactly as long as it can replay.

mod common;

use catdet_serve::{
    bursty_workload, mixed_workload, replay_stream, serve, serve_fleet_with_recorder,
    serve_with_recorder, BurstProfile, Event, EventKind, LatencyStats, PolicyConfig, Query,
    ReplayError, ServeConfig, ShardConfig, SharedRecorder, StreamSpec, SystemKind,
};
use common::null_spec_steady;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn no_drop_config() -> ServeConfig {
    ServeConfig::new()
        .with_workers(2)
        .with_max_batch(4)
        .with_queue_capacity(100_000)
}

/// The recorded sequence numbers of `stream`'s surviving completions, in
/// scan order.
fn surviving_seqs(recorder: &SharedRecorder, stream: usize) -> Vec<usize> {
    recorder
        .scan(&Query::all().kind(EventKind::Detection).stream(stream))
        .iter()
        .filter_map(|r| match r.event {
            Event::Detection { seq, .. } => Some(seq),
            _ => None,
        })
        .collect()
}

#[test]
fn recording_never_perturbs_the_run() {
    // The recorder hooks sit inside the scheduler hot path; the guarantee
    // is that they observe, never steer. A recorded run's report must be
    // bit-identical to the unrecorded run's — outputs, latencies, batch
    // log, timelines, everything ServeReport's PartialEq covers.
    let streams = || mixed_workload(4, 16, 11, SystemKind::CatdetA);
    let plain = serve(streams(), &no_drop_config());
    let recorder = SharedRecorder::new(64, usize::MAX, 4);
    let recorded = serve_with_recorder(streams(), &no_drop_config(), &recorder);
    assert_eq!(
        plain, recorded,
        "recording perturbed the run — the report diverged from the unrecorded one"
    );
    // And the recorder really was live: one Detection and one Track event
    // per processed frame, plus periodic snapshots.
    let detections = recorder.scan(&Query::all().kind(EventKind::Detection));
    assert_eq!(detections.len(), plain.frames_processed);
    assert_eq!(
        recorder.scan(&Query::all().kind(EventKind::Track)).len(),
        plain.frames_processed
    );
    assert!(
        recorder.stats().snapshots > 0,
        "snapshot cadence 4 never fired"
    );
}

#[test]
fn golden_replay_is_bit_identical_to_live_run() {
    // Mixed KITTI-like + CityPersons-like streams over CaTDet pipelines,
    // recorded with a mid-run snapshot cadence. Every stream must replay
    // bit-exactly from the nearest snapshot before the run's midpoint:
    // hashes verified against the recording AND detections compared
    // field-for-field against the live report's outputs.
    let streams = || mixed_workload(4, 24, 7, SystemKind::CatdetA);
    let recorder = SharedRecorder::new(128, usize::MAX, 6);
    let report = serve_with_recorder(streams(), &no_drop_config(), &recorder);
    let mid = report.makespan_s * 0.5;
    let mut resumed_mid_run = false;
    for spec in streams() {
        let id = spec.source.stream_id;
        let live = report
            .streams
            .iter()
            .find(|s| s.stream_id == id)
            .expect("stream reported");
        let replay = replay_stream(&recorder, &spec, mid).expect("replay must run");
        assert!(
            replay.verified(),
            "stream {id} replay diverged at seqs {:?}",
            replay.mismatched_seqs()
        );
        resumed_mid_run |= replay.resumed_after_seq > 0;
        // Hash equality is necessary; detection equality is the claim.
        for f in &replay.frames {
            let (frame_index, detections) = &live.outputs[f.seq - 1];
            assert_eq!(*frame_index, f.frame_index);
            assert_eq!(
                detections, &f.detections,
                "stream {id} seq {}: replayed detections differ from live outputs",
                f.seq
            );
        }
        // Replay covers everything after the resume point, through the end.
        assert_eq!(
            replay.frames.len(),
            live.processed - replay.resumed_after_seq
        );
        assert_eq!(
            replay.frames.last().expect("frames replayed").seq,
            live.processed
        );
    }
    assert!(
        resumed_mid_run,
        "no stream resumed from a snapshot — cadence or midpoint is wrong"
    );

    // From before the first snapshot, replay re-drives from scratch and
    // still verifies (covers the no-snapshot import path).
    let spec = streams().remove(0);
    let live_processed = report.streams[0].processed;
    let from_zero = replay_stream(&recorder, &spec, 0.0).expect("cold replay must run");
    assert_eq!(from_zero.resumed_after_seq, 0);
    assert_eq!(from_zero.snapshot_t_s, None);
    assert!(from_zero.verified());
    assert_eq!(from_zero.frames.len(), live_processed);
}

#[test]
fn eviction_gap_is_an_actionable_error() {
    // A tight retention budget evicts the run's early chunks. Replaying
    // from the beginning must fail loudly with the exact gap — never
    // silently replay a truncated prefix.
    let streams = || mixed_workload(1, 60, 3, SystemKind::CatdetA);
    let recorder = SharedRecorder::new(8, 6, 0);
    let report = serve_with_recorder(streams(), &no_drop_config(), &recorder);
    let stats = recorder.stats();
    assert!(
        stats.chunks_evicted > 0,
        "retention 6 never forced an eviction"
    );
    assert!(stats.events_evicted > 0);
    let surviving = surviving_seqs(&recorder, 0);
    let earliest = *surviving
        .iter()
        .min()
        .expect("the freshest detection chunks must survive the final seal");
    assert!(
        earliest > 1,
        "eviction left seq 1 intact — budget too loose to test"
    );
    assert!(surviving.len() < report.streams[0].processed);
    let err = replay_stream(&recorder, &streams()[0], 0.0)
        .expect_err("replay across an evicted gap must fail");
    assert_eq!(
        err,
        ReplayError::EvictedGap {
            stream: 0,
            expected_seq: 1,
            found_seq: earliest,
        }
    );
}

#[test]
fn evicting_the_newest_completions_is_an_actionable_error() {
    // Evicting a stream's *last* detection chunk leaves no gap for the
    // checks above to see, yet a replay through the survivors would stop
    // short of the live run. It must fail, naming what was lost.
    let streams = || mixed_workload(1, 60, 3, SystemKind::CatdetA);
    let recorder = SharedRecorder::new(8, usize::MAX, 6);
    let report = serve_with_recorder(streams(), &no_drop_config(), &recorder);
    assert_eq!(report.streams[0].processed, 60);
    // Touch every chunk, then again every chunk that starts before
    // completion #57: the detection chunk holding #57..=#60 is now the
    // LRU victim.
    let t57 = recorder
        .scan(&Query::all())
        .iter()
        .find_map(|r| match r.event {
            Event::Detection { seq: 57, .. } => Some(r.t_s),
            _ => None,
        })
        .expect("completion #57 recorded");
    recorder.scan(&Query::all().between(0.0, t57.next_down()));
    recorder.with_store(|s| s.evict_to(s.stats().sealed_chunks - 1));
    assert_eq!(surviving_seqs(&recorder, 0).last(), Some(&56));
    let err = replay_stream(&recorder, &streams()[0], report.makespan_s * 0.5)
        .expect_err("a replay that stops at #56 of 60 must fail");
    assert_eq!(
        err,
        ReplayError::EvictedTail {
            stream: 0,
            last_seq: 56,
            evicted_seq: 60,
        }
    );
}

#[test]
fn replaying_coasts_on_a_pipeline_that_cannot_coast_is_an_error() {
    // The recording coasts frames of a tracked CaTDet pipeline. A spec
    // whose factory builds an untracked cascade cannot re-drive those
    // coasts: replay must say so with a typed error, not panic.
    let streams = |system| mixed_workload(2, 40, 7, system);
    let cfg = no_drop_config().with_policy(PolicyConfig::confidence_trigger(1.0));
    let recorder = SharedRecorder::new(128, usize::MAX, 0);
    serve_with_recorder(streams(SystemKind::CatdetA), &cfg, &recorder);
    let policy_rows = recorder.scan(&Query::all().kind(EventKind::Policy).stream(0));
    assert!(!policy_rows.is_empty(), "stream 0 never coasted");
    let cascade = streams(SystemKind::CascadeA).remove(0);
    match replay_stream(&recorder, &cascade, 0.0) {
        Err(ReplayError::CannotCoast { stream: 0, .. }) => {}
        other => panic!("expected CannotCoast, got {other:?}"),
    }
}

#[test]
fn fleet_recording_partitions_by_shard_and_matches_merged_report() {
    // A recorded 2-shard fleet: per-shard queries must partition the
    // fleet's completions exactly, and the full-window latency summary
    // must reproduce the merged report's pooled percentiles bit-for-bit.
    let streams = || mixed_workload(6, 12, 21, SystemKind::CatdetA);
    let recorder = SharedRecorder::new(64, usize::MAX, 0);
    let cfg = no_drop_config().with_shard(ShardConfig::sharded(2));
    let fleet = serve_fleet_with_recorder(streams(), &cfg, &recorder);
    let per_shard: Vec<usize> = (0..2)
        .map(|k| {
            recorder
                .scan(&Query::all().kind(EventKind::Detection).shard(k))
                .len()
        })
        .collect();
    assert_eq!(per_shard.iter().sum::<usize>(), fleet.frames_processed());
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "a shard recorded nothing: {per_shard:?}"
    );
    let summary = recorder.latency_stats(&Query::all());
    let fleet_streams = fleet.streams();
    let reference =
        LatencyStats::merged(fleet_streams.iter().map(|s| s.latency_samples.as_slice()))
            .expect("fleet served frames");
    assert_eq!(summary.samples, fleet.frames_processed());
    assert_eq!(summary.mean_s, reference.mean_s);
    assert_eq!(summary.p50_s, reference.p50_s);
    assert_eq!(summary.p95_s, reference.p95_s);
    assert_eq!(summary.p99_s, reference.p99_s);
    assert_eq!(summary.max_s, reference.max_s);
}

/// The column codec's density on a fully recorded sharded run: every
/// event kind, periodic snapshots, unbounded retention. The budget is
/// 1.5× the 14.12 bytes/event this run encoded when it was set.
#[test]
fn codec_stays_within_bytes_per_event_budget() {
    let cfg = ServeConfig::new()
        .with_workers(1)
        .with_max_batch(4)
        .with_queue_capacity(10_000)
        .with_shard(
            ShardConfig::sharded(4)
                .with_rebalance_interval_s(0.1)
                .with_migration_cost_frames(4),
        );
    let streams = bursty_workload(16, 120, 2019, SystemKind::CatdetA, BurstProfile::demo());
    let recorder = SharedRecorder::new(512, usize::MAX, 8);
    serve_fleet_with_recorder(streams, &cfg, &recorder);
    let stats = recorder.stats();
    let per_event = stats.encoded_bytes as f64 / stats.events as f64;
    assert!(
        per_event <= 21.2,
        "{} bytes over {} events is {per_event:.2} bytes/event (budget 21.2)",
        stats.encoded_bytes,
        stats.events
    );
}

proptest! {
    /// Random workloads recorded under random chunk boundaries: however
    /// events land in chunks, the recorder's full-window latency summary
    /// must equal the report's pooled `LatencyStats` bit-for-bit — fleet-
    /// wide and per stream. This is the telemetry-fidelity contract: the
    /// store's delta/varint codec and nearest-rank query are lossless.
    #[test]
    fn prop_recorded_percentiles_equal_report_under_random_chunking(
        chunk_events in 1usize..96,
        specs in proptest::collection::vec((5.0f64..200.0, 3usize..24, 0.0f64..0.05), 1..6),
    ) {
        let build = || -> Vec<StreamSpec> {
            specs
                .iter()
                .enumerate()
                .map(|(id, &(fps, frames, start))| null_spec_steady(id, fps, frames, start))
                .collect()
        };
        let recorder = SharedRecorder::new(chunk_events, usize::MAX, 0);
        let report = serve_with_recorder(build(), &no_drop_config(), &recorder);
        let full = Query::all().between(f64::NEG_INFINITY, f64::INFINITY);
        let summary = recorder.latency_stats(&full);
        let reference =
            LatencyStats::merged(report.streams.iter().map(|s| s.latency_samples.as_slice()))
                .expect("run served frames");
        prop_assert_eq!(summary.samples, report.frames_processed);
        prop_assert_eq!(summary.mean_s, reference.mean_s);
        prop_assert_eq!(summary.p50_s, reference.p50_s);
        prop_assert_eq!(summary.p95_s, reference.p95_s);
        prop_assert_eq!(summary.p99_s, reference.p99_s);
        prop_assert_eq!(summary.max_s, reference.max_s);
        for s in &report.streams {
            let per = recorder.latency_stats(&Query::all().stream(s.stream_id));
            let r = LatencyStats::from_samples(&s.latency_samples).expect("stream served frames");
            prop_assert_eq!(per.samples, s.processed);
            prop_assert_eq!(per.p50_s, r.p50_s);
            prop_assert_eq!(per.p99_s, r.p99_s);
            prop_assert_eq!(per.max_s, r.max_s);
        }
    }

    /// Snapshot lifetime under random retention: a bursty fleet run
    /// (streams migrating between up to three shards) is recorded twice,
    /// into a bounded store and an unbounded reference. The bounded store
    /// keeps a reference snapshot exactly when every later completion of
    /// its stream survives, and every replay either runs verified through
    /// the live run's end or fails with an eviction error.
    #[test]
    fn prop_a_snapshot_lives_exactly_as_long_as_its_replay_window(
        seed in 0u64..1000,
        shards in 1usize..=3,
        chunk_events in 1usize..12,
        retention in 1usize..64,
        every in 1usize..8,
    ) {
        let streams = || bursty_workload(4, 24, seed, SystemKind::CatdetA, BurstProfile::demo());
        let cfg = no_drop_config().with_workers(1).with_shard(
            ShardConfig::sharded(shards)
                .with_rebalance_interval_s(0.05)
                .with_migration_cost_frames(1),
        );
        let bounded = SharedRecorder::new(chunk_events, retention, every);
        let reference = SharedRecorder::new(chunk_events, usize::MAX, every);
        let report = serve_fleet_with_recorder(streams(), &cfg, &bounded);
        prop_assert_eq!(&report, &serve_fleet_with_recorder(streams(), &cfg, &reference));
        let fleet_streams = report.streams();
        for spec in streams() {
            let id = spec.source.stream_id;
            let live = fleet_streams
                .iter()
                .find(|s| s.stream_id == id)
                .expect("stream reported");
            let surviving: BTreeSet<usize> = surviving_seqs(&bounded, id).into_iter().collect();
            let kept: BTreeSet<usize> = bounded.with_store(|s| {
                s.snapshots().iter().filter(|s| s.stream == id).map(|s| s.seq).collect()
            });
            let snapshots: Vec<(usize, f64)> = reference.with_store(|s| {
                s.snapshots()
                    .iter()
                    .filter(|s| s.stream == id)
                    .map(|s| (s.seq, s.t_s))
                    .collect()
            });
            let mut times = vec![0.0, f64::INFINITY];
            for &(seq, t_s) in &snapshots {
                let replayable = (seq + 1..=live.processed).all(|q| surviving.contains(&q));
                prop_assert_eq!(
                    kept.contains(&seq),
                    replayable,
                    "stream {} snapshot #{} (retention {}, chunks of {})",
                    id,
                    seq,
                    retention,
                    chunk_events
                );
                times.push(t_s);
            }
            for t in times {
                match replay_stream(&bounded, &spec, t) {
                    Ok(replay) => {
                        prop_assert!(replay.verified(), "stream {} from t={}", id, t);
                        prop_assert_eq!(
                            replay.frames.len(),
                            live.processed - replay.resumed_after_seq
                        );
                        for f in &replay.frames {
                            let (frame_index, detections) = &live.outputs[f.seq - 1];
                            prop_assert_eq!(*frame_index, f.frame_index);
                            prop_assert_eq!(detections, &f.detections);
                        }
                    }
                    Err(
                        ReplayError::NothingRecorded { .. }
                        | ReplayError::EvictedGap { .. }
                        | ReplayError::EvictedTail { .. },
                    ) => {}
                    Err(other) => panic!("stream {id} from t={t}: unexpected {other:?}"),
                }
            }
        }
    }
}
