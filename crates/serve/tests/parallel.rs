//! Real-thread fleet determinism: a fleet advanced by a pool of OS
//! threads must be **bit-identical** to the sequential loop — merged
//! reports, migration / scale / admission timelines, batch logs, and the
//! flight-recorder store contents — at every thread count, including
//! `0` (auto). Threads are a wall-clock knob, never a semantics knob.

mod common;

use catdet_serve::{
    mixed_workload, serve_fleet, serve_fleet_with_recorder, AdmissionConfig, AutoscaleConfig,
    EventKind, FleetReport, PartitionKind, PolicyConfig, Query, ServeConfig, ShardConfig,
    SharedRecorder, StreamSpec, SystemKind,
};
use common::null_spec_steady;
use proptest::prelude::*;

fn base_config(shards: usize) -> ServeConfig {
    ServeConfig::new()
        .with_workers(2)
        .with_max_batch(4)
        .with_queue_capacity(100_000)
        .with_shard(
            ShardConfig::sharded(shards)
                .with_partition(PartitionKind::StaticHash)
                .with_rebalance_interval_s(0.05),
        )
}

/// Runs the same workload at several thread counts and asserts every
/// report equals the sequential (`--threads 1`) reference bit for bit.
/// `FleetReport`'s `PartialEq` covers outputs, latency samples, batch
/// logs, timelines, migrations and fused-dispatch records.
fn assert_thread_count_invariant(cfg: &ServeConfig, streams: impl Fn() -> Vec<StreamSpec>) {
    let sequential = serve_fleet(streams(), &cfg.with_shard(cfg.shard.with_threads(1)));
    assert!(
        sequential.frames_processed() > 0,
        "workload too small to prove anything"
    );
    for threads in [2, 4, 0] {
        let threaded = serve_fleet(streams(), &cfg.with_shard(cfg.shard.with_threads(threads)));
        assert_eq!(
            sequential, threaded,
            "threads={threads} diverged from the sequential fleet"
        );
    }
}

#[test]
fn threaded_fleet_matches_sequential_independent_phase() {
    // The embarrassingly parallel path: independent shards between
    // rebalance ticks, live migrations at every barrier.
    let cfg = base_config(4);
    assert_thread_count_invariant(&cfg, || mixed_workload(8, 24, 11, SystemKind::CatdetA));
}

#[test]
fn threaded_fleet_matches_sequential_fused_lockstep() {
    // The lock-step path: cross-shard refinement fusion forces a barrier
    // at event granularity, so the pool is exercised thousands of times
    // per run with tiny advances.
    let cfg = base_config(3)
        .with_fuse_refinement(true)
        .with_refine_batch_window_s(0.004);
    assert_thread_count_invariant(&cfg, || mixed_workload(6, 16, 7, SystemKind::CatdetA));
}

#[test]
fn threaded_fleet_matches_sequential_control_plane() {
    // Autoscalers and admission gates run *inside* each engine; their
    // event timelines must survive threading untouched.
    let cfg = base_config(3)
        .with_autoscale(AutoscaleConfig::hysteresis(1, 6).with_control_interval_s(0.05))
        .with_admission(AdmissionConfig::token_bucket(60.0, 8.0));
    assert_thread_count_invariant(&cfg, || mixed_workload(9, 20, 3, SystemKind::CatdetB));
}

#[test]
fn threaded_fleet_matches_sequential_under_frame_policy() {
    // The adaptive policy layer makes per-frame detect/coast decisions
    // from tracker state that migrates between shards; the decisions (and
    // hence every output and priced op) must survive threading untouched.
    let cfg = base_config(3).with_policy(PolicyConfig::confidence_trigger(1.5));
    assert_thread_count_invariant(&cfg, || mixed_workload(8, 24, 11, SystemKind::CatdetA));

    // Per-stream overrides ride along: one camera on a fixed stride, the
    // rest on the fleet-wide trigger.
    let cfg = base_config(2).with_policy(PolicyConfig::confidence_trigger(1.0));
    assert_thread_count_invariant(&cfg, || {
        let mut streams = mixed_workload(6, 20, 13, SystemKind::CatdetA);
        streams[1].policy = Some(PolicyConfig::fixed_stride(3));
        streams
    });
}

#[test]
fn always_detect_policy_is_golden() {
    // The golden guarantee: the policy layer at its default is invisible.
    // An explicit always-detect config and a run whose pipelines are
    // actually wrapped (downgrade arms the wrapper even at always-detect)
    // both reproduce the unpoliced fleet report bit for bit.
    let streams = || mixed_workload(6, 16, 7, SystemKind::CatdetA);
    let bare = serve_fleet(streams(), &base_config(2));
    let explicit = serve_fleet(
        streams(),
        &base_config(2).with_policy(PolicyConfig::always_detect()),
    );
    assert_eq!(bare, explicit, "explicit always-detect diverged");

    // A priority gate with an unreachable watermark never sheds, so the
    // only difference from `bare` is that every pipeline runs inside the
    // (never-degraded) policy wrapper.
    let wrapped = serve_fleet(
        streams(),
        &base_config(2).with_admission(AdmissionConfig::priority(1_000_000).with_downgrade(true)),
    );
    assert_eq!(bare, wrapped, "wrapped always-detect diverged");
    assert_eq!(bare.frames_coasted(), 0);
    assert_eq!(bare.frames_skipped(), 0);
    assert_eq!(bare.frames_detected(), bare.frames_processed());
}

#[test]
fn policy_recorder_store_is_bit_identical_across_threads() {
    // Policy rows (one per coasted/skipped frame) land in the store in
    // deterministic order too — and replay depends on that.
    let streams = || mixed_workload(8, 18, 5, SystemKind::CatdetA);
    let run = |threads: usize| -> (FleetReport, SharedRecorder) {
        let recorder = SharedRecorder::new(64, usize::MAX, 4);
        let cfg = base_config(3)
            .with_policy(PolicyConfig::confidence_trigger(1.2))
            .with_shard(base_config(3).shard.with_threads(threads));
        let report = serve_fleet_with_recorder(streams(), &cfg, &recorder);
        (report, recorder)
    };
    let (seq_report, seq_rec) = run(1);
    let policy_rows = seq_rec.scan(&Query::all().kind(EventKind::Policy));
    assert!(
        !policy_rows.is_empty(),
        "confidence trigger never coasted — workload too easy to prove anything"
    );
    assert_eq!(
        policy_rows.len(),
        seq_report.frames_coasted() + seq_report.frames_skipped(),
        "every coasted/skipped frame books exactly one policy row"
    );
    for threads in [2, 4] {
        let (thr_report, thr_rec) = run(threads);
        assert_eq!(seq_report, thr_report, "threads={threads} report diverged");
        assert_eq!(
            seq_rec.scan(&Query::all()),
            thr_rec.scan(&Query::all()),
            "threads={threads} recorded event streams diverged"
        );
    }
}

#[test]
fn threaded_fleet_recorder_store_is_bit_identical() {
    // The strongest claim: not just the report, the *recorder store* —
    // every scanned event, the latency summary, snapshot count and chunk
    // statistics — must match the sequential run. This is what the
    // barrier writing end exists for: store ingest order is shard-id
    // order at every barrier, at every thread count.
    let streams = || mixed_workload(8, 18, 5, SystemKind::CatdetA);
    let run = |threads: usize| -> (FleetReport, SharedRecorder) {
        let recorder = SharedRecorder::new(64, usize::MAX, 4);
        let cfg = base_config(4).with_shard(base_config(4).shard.with_threads(threads));
        let report = serve_fleet_with_recorder(streams(), &cfg, &recorder);
        (report, recorder)
    };
    let (seq_report, seq_rec) = run(1);
    assert!(seq_rec.stats().events > 0, "recorder never engaged");
    assert!(
        seq_rec.stats().snapshots > 0,
        "snapshot cadence never fired"
    );
    for threads in [2, 4] {
        let (thr_report, thr_rec) = run(threads);
        assert_eq!(seq_report, thr_report, "threads={threads} report diverged");
        assert_eq!(
            seq_rec.stats(),
            thr_rec.stats(),
            "threads={threads} store statistics diverged"
        );
        assert_eq!(
            seq_rec.scan(&Query::all()),
            thr_rec.scan(&Query::all()),
            "threads={threads} recorded event streams diverged"
        );
        assert_eq!(
            seq_rec.latency_stats(&Query::all()),
            thr_rec.latency_stats(&Query::all()),
            "threads={threads} recorded latency summary diverged"
        );
    }
}

#[test]
fn oversubscribed_threads_cap_at_shard_count() {
    // More threads than shards must neither deadlock nor diverge.
    let cfg = base_config(2).with_shard(base_config(2).shard.with_threads(16));
    let streams = || {
        vec![
            null_spec_steady(0, 60.0, 30, 0.0),
            null_spec_steady(1, 60.0, 30, 0.0),
            null_spec_steady(2, 60.0, 30, 0.0),
        ]
    };
    let threaded = serve_fleet(streams(), &cfg);
    let sequential = serve_fleet(streams(), &base_config(2));
    assert_eq!(sequential, threaded);
}

proptest! {
    /// Random fleets — shard counts, thread counts, fusion, rebalance
    /// cadence and workload shape all vary — and the threaded run must
    /// stay bit-identical to the sequential one every time. Rebalancing is
    /// off in about half the cases: fused with no ticks is `crowd`'s
    /// shape, where most passes have a single runnable engine.
    #[test]
    fn prop_threaded_fleet_is_bit_identical(
        shards in 2usize..5,
        threads in 2usize..6,
        fuse in proptest::bool::ANY,
        rebalance_ms in (proptest::bool::ANY, 20.0f64..120.0)
            .prop_map(|(on, ms)| if on { ms } else { 0.0 }),
        specs in proptest::collection::vec((10.0f64..120.0, 4usize..20, 0.0f64..0.05), 2..8),
    ) {
        let build = || -> Vec<StreamSpec> {
            specs
                .iter()
                .enumerate()
                .map(|(id, &(fps, frames, start))| null_spec_steady(id, fps, frames, start))
                .collect()
        };
        let shard_cfg = ShardConfig::sharded(shards)
            .with_partition(PartitionKind::StaticHash)
            .with_rebalance_interval_s(rebalance_ms / 1e3);
        let mut cfg = ServeConfig::new()
            .with_workers(1)
            .with_queue_capacity(100_000)
            .with_shard(shard_cfg);
        if fuse {
            cfg = cfg.with_fuse_refinement(true).with_refine_batch_window_s(0.004);
        }
        let sequential = serve_fleet(build(), &cfg.with_shard(shard_cfg.with_threads(1)));
        let threaded = serve_fleet(build(), &cfg.with_shard(shard_cfg.with_threads(threads)));
        prop_assert_eq!(sequential, threaded);
    }
}
