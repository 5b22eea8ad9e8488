//! The refinement handoff: a run hands each frame's refinement to the
//! shard pool and joins it at the stream's next batch claim, on migration,
//! or in the fleet's final join; a recorded run books the frame's rows
//! there too, unless they fill a chunk or a snapshot is due, which joins
//! it at once. In `crowd`'s shape that puts refinements on the pool's
//! helper while proposals stay on the calling thread, recorded or not; and
//! whichever thread runs a refinement, and whenever, the report is
//! bit-identical to the sequential and the recorded runs, and the
//! recording to the sequential recording, migrations of refining streams
//! included.

mod common;

use catdet_core::{
    PipelineState, PresetFactory, ProposalWork, RefinementWork, StageStep, StagedDetector,
    SystemFactory, SystemKind,
};
use catdet_data::{kitti_like, Frame, StreamFrame, StreamSource};
use catdet_recorder::encode;
use catdet_serve::{
    serve_fleet, serve_fleet_with_recorder, FleetReport, PartitionKind, ServeConfig, ShardConfig,
    SharedRecorder, StreamSpec,
};
use common::{chain_spec_steady, chain_spec_with_arrivals};
use proptest::prelude::*;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// The threads that ran each proposal and each refinement, and whether
/// a refinement ran off the calling thread.
struct StageLog {
    caller: ThreadId,
    proposals: Mutex<Vec<ThreadId>>,
    refinements: Mutex<Vec<ThreadId>>,
    refined_elsewhere: Mutex<bool>,
    wake: Condvar,
}

/// Appends the current thread to `log` and returns the new length.
fn note(log: &Mutex<Vec<ThreadId>>) -> usize {
    let mut log = log.lock().expect("stage log lock");
    log.push(std::thread::current().id());
    log.len()
}

/// A staged pipeline that logs the thread of each of its stage calls.
/// The fleet's second proposal waits, for at most 30 s, until some
/// refinement has run off the calling thread: by then the first stream's
/// first refinement is handed off, and only a pool helper can take it.
struct Logged {
    inner: Box<dyn StagedDetector>,
    log: Arc<StageLog>,
}

impl StagedDetector for Logged {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn begin_frame(&mut self, frame: &Frame) {
        self.inner.begin_frame(frame);
    }

    fn step(&mut self) -> StageStep {
        self.inner.step()
    }

    fn complete_proposal(&mut self, work: ProposalWork) -> ProposalWork {
        if note(&self.log.proposals) == 2 {
            let elsewhere = self.log.refined_elsewhere.lock().expect("stage log lock");
            // Bounded, so a fleet that refines on the calling thread fails
            // the thread check instead of hanging.
            let _ = self
                .log
                .wake
                .wait_timeout_while(elsewhere, Duration::from_secs(30), |done| !*done)
                .expect("stage log lock");
        }
        self.inner.complete_proposal(work)
    }

    fn complete_refinement(&mut self, work: RefinementWork) -> RefinementWork {
        note(&self.log.refinements);
        if std::thread::current().id() != self.log.caller {
            *self.log.refined_elsewhere.lock().expect("stage log lock") = true;
            self.log.wake.notify_all();
        }
        self.inner.complete_refinement(work)
    }

    fn export_state(&self) -> Option<PipelineState> {
        self.inner.export_state()
    }

    fn live_tracks(&self) -> usize {
        self.inner.live_tracks()
    }
}

struct LoggedFactory {
    inner: PresetFactory,
    log: Arc<StageLog>,
}

impl SystemFactory for LoggedFactory {
    fn build(&self) -> Box<dyn catdet_core::DetectionSystem> {
        self.inner.build()
    }

    fn build_staged(&self) -> Box<dyn StagedDetector> {
        Box::new(Logged {
            inner: self.inner.build_staged(),
            log: Arc::clone(&self.log),
        })
    }
}

#[test]
fn refinements_leave_the_calling_thread_while_proposals_stay() {
    // `crowd`'s shape: staged CaTDet-A pipelines on a fused lock-step
    // 2-shard fleet at `--threads 2`, one stream per shard, their frames
    // 100 ms apart so no fused dispatch spans both shards. Every pass then
    // has one runnable engine, which the calling thread runs, while the
    // refinements its dispatches hand off can go to the pool's helper. A
    // recorded run (8-row chunks, a snapshot every 4 frames) joins some
    // completions at once, and hands the others off the same way.
    for recorded in [false, true] {
        assert_refinements_leave_the_caller(recorded);
    }
}

/// Runs the lock-step fleet of
/// [`refinements_leave_the_calling_thread_while_proposals_stay`],
/// recorded or not, and checks that every proposal ran on the caller and
/// some refinement did not.
fn assert_refinements_leave_the_caller(recorded: bool) {
    let log = Arc::new(StageLog {
        caller: std::thread::current().id(),
        proposals: Mutex::default(),
        refinements: Mutex::default(),
        refined_elsewhere: Mutex::default(),
        wake: Condvar::new(),
    });
    let dataset = kitti_like()
        .sequences(2)
        .frames_per_sequence(16)
        .seed(7)
        .build();
    let streams: Vec<StreamSpec> = dataset
        .sequences()
        .iter()
        .enumerate()
        .map(|(id, seq)| {
            let frames = seq
                .frames()
                .iter()
                .enumerate()
                .map(|(i, frame)| StreamFrame {
                    arrival_s: id as f64 * 0.1 + i as f64 * 0.2,
                    frame: frame.clone(),
                })
                .collect();
            StreamSpec::new(
                StreamSource::from_frames(id, 5.0, dataset.width, dataset.height, frames),
                Arc::new(LoggedFactory {
                    inner: PresetFactory::kitti(SystemKind::CatdetA),
                    log: Arc::clone(&log),
                }),
            )
        })
        .collect();
    let cfg = ServeConfig::new()
        .with_max_batch(4)
        .with_fuse_refinement(true)
        .with_refine_batch_window_s(0.002)
        .with_shard(
            ShardConfig::sharded(2)
                .with_partition(PartitionKind::LeastLoaded)
                .with_threads(2),
        );
    let report = if recorded {
        let recorder = SharedRecorder::new(8, usize::MAX, 4);
        let report = serve_fleet_with_recorder(streams, &cfg, &recorder);
        assert!(recorder.stats().snapshots > 0, "no snapshot was due");
        report
    } else {
        serve_fleet(streams, &cfg)
    };
    assert!(
        report.shards.iter().all(|s| s.frames_processed > 0),
        "a shard served nothing: the fleet proves nothing"
    );
    assert!(
        !report.fused_refinements.is_empty(),
        "no cross-shard dispatch fired"
    );

    let caller = log.caller;
    let proposals = log.proposals.lock().expect("stage log lock").clone();
    let refinements = log.refinements.lock().expect("stage log lock").clone();
    assert_eq!(proposals.len(), report.frames_processed());
    assert_eq!(refinements.len(), report.frames_processed());
    assert!(
        proposals.iter().all(|&t| t == caller),
        "recorded {recorded}: a proposal ran off the calling thread although no two engines \
         could run"
    );
    let off_caller = refinements.iter().filter(|&&t| t != caller).count();
    assert!(
        off_caller > 0,
        "recorded {recorded}: all {} refinements ran on the calling thread",
        refinements.len()
    );
}

/// Runs `streams()` at `--threads` 1, 2 and 4 and recorded at 2, and
/// asserts every report equals the first, which it returns.
fn assert_handoff_invariant(
    cfg: &ServeConfig,
    streams: impl Fn() -> Vec<StreamSpec>,
) -> FleetReport {
    let at = |threads| cfg.with_shard(cfg.shard.with_threads(threads));
    let sequential = serve_fleet(streams(), &at(1));
    assert!(sequential.frames_processed() > 0, "workload too small");
    for threads in [2, 4] {
        let threaded = serve_fleet(streams(), &at(threads));
        assert_eq!(sequential, threaded, "--threads {threads} diverged");
    }
    // A recorded run hands refinements off too: it must move nothing.
    let recorder = SharedRecorder::new(64, usize::MAX, 0);
    let recorded = serve_fleet_with_recorder(streams(), &at(2), &recorder);
    assert_eq!(sequential, recorded, "the recorded run diverged");
    sequential
}

#[test]
fn a_stream_migrates_while_its_refinement_is_out() {
    // Streams 0, 2 and 3 land on shard 0 with ten frames each at t = 0;
    // stream 1 alone on shard 1 starts at 1 s. The 0.1 s rebalance ticks
    // move shard 0's streams after they completed frames, so each leaves
    // with its last refinement out (joined on extraction) unless its next
    // claim came first.
    let streams = || -> Vec<StreamSpec> {
        [(0, 10), (1, 40), (2, 10), (3, 10)]
            .into_iter()
            .map(|(id, frames)| {
                let arrival = |i| if id == 1 { 1.0 + i as f64 / 10.0 } else { 0.0 };
                chain_spec_with_arrivals(id, (0..frames).map(arrival).collect(), None)
            })
            .collect()
    };
    let shard = ShardConfig::sharded(2)
        .with_partition(PartitionKind::LeastLoaded)
        .with_rebalance_interval_s(0.1)
        .with_migration_cost_frames(0);
    let unfused = ServeConfig::new()
        .with_workers(1)
        .with_max_batch(4)
        .with_queue_capacity(1000)
        .with_shard(shard);
    let fused = unfused
        .with_fuse_refinement(true)
        .with_refine_batch_window_s(0.004);
    for (name, cfg) in [("unfused", unfused), ("fused", fused)] {
        let report = assert_handoff_invariant(&cfg, streams);
        // A stream that completed a frame by the tick and could still be
        // extracted had that frame's refinement out: nothing but its next
        // claim joins it.
        let refining_moves = report
            .migrations
            .iter()
            // Shard 0's streams offer every frame at t = 0, so a frame's
            // latency is its completion time.
            .filter(|m| m.stream != 1)
            .filter(|m| {
                let s = report
                    .streams()
                    .into_iter()
                    .find(|s| s.stream_id == m.stream)
                    .expect("migrated stream reports");
                s.latency_samples.first().is_some_and(|&l| l <= m.t_s)
            })
            .count();
        assert!(
            refining_moves > 0,
            "{name}: no stream migrated with a refinement out: {:?}",
            report.migrations
        );
    }
}

proptest! {
    /// Random fleets of stateful staged pipelines — fused or not,
    /// rebalancing or not, with drops, several workers and uneven streams
    /// — give the same report at every thread count and recorded, and
    /// recordings of 1–8-row chunks, with or without retention and
    /// snapshots, save the same bytes and statistics at every thread count.
    #[test]
    fn prop_handoff_is_bit_identical_across_threads(
        shards in 2usize..5,
        workers in 1usize..3,
        fuse in proptest::bool::ANY,
        rebalance_ms in (proptest::bool::ANY, 1.0f64..80.0)
            .prop_map(|(on, ms)| if on { ms } else { 0.0 }),
        specs in proptest::collection::vec((2.0f64..40.0, 3usize..24, 0.0f64..0.2), 2..9),
        chunk_rows in 1usize..9,
        retention in (proptest::bool::ANY, 2usize..12)
            .prop_map(|(bounded, chunks)| if bounded { chunks } else { usize::MAX }),
        snapshot_every in 0usize..6,
    ) {
        let build = || -> Vec<StreamSpec> {
            specs
                .iter()
                .enumerate()
                .map(|(id, &(fps, frames, start))| chain_spec_steady(id, fps, frames, start))
                .collect()
        };
        let shard_cfg = ShardConfig::sharded(shards)
            .with_partition(PartitionKind::StaticHash)
            .with_rebalance_interval_s(rebalance_ms / 1e3)
            .with_migration_cost_frames(1)
            .with_migration_cooldown_ticks(0);
        let mut cfg = ServeConfig::new()
            .with_workers(workers)
            .with_max_batch(3)
            .with_queue_capacity(6)
            .with_shard(shard_cfg);
        if fuse {
            cfg = cfg.with_fuse_refinement(true).with_refine_batch_window_s(0.004);
        }
        let at = |threads| cfg.with_shard(shard_cfg.with_threads(threads));
        let sequential = serve_fleet(build(), &at(1));
        prop_assert!(sequential.frames_processed() > 0);
        for threads in [2, 3] {
            let threaded = serve_fleet(build(), &at(threads));
            prop_assert_eq!(&sequential, &threaded);
        }
        let record = |threads| {
            let recorder = SharedRecorder::new(chunk_rows, retention, snapshot_every);
            let report = serve_fleet_with_recorder(build(), &at(threads), &recorder);
            (report, recorder.with_store(|s| encode(s)), recorder.stats())
        };
        let (recorded, bytes, stats) = record(1);
        prop_assert_eq!(&sequential, &recorded);
        for threads in [2, 3] {
            let (report, threaded_bytes, threaded_stats) = record(threads);
            prop_assert_eq!(&sequential, &report);
            prop_assert!(
                threaded_bytes == bytes,
                "--threads {} saved other bytes than --threads 1",
                threads
            );
            prop_assert_eq!(threaded_stats, stats);
        }
    }
}
