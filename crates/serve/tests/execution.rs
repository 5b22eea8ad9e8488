//! One execution path: `serve` is a 1-shard fleet down to the recorded
//! bytes; a pipeline panic surfaces with its original payload, in the
//! same text at every thread count and wherever a refinement is joined,
//! instead of hanging the run; and the
//! calling thread runs shard engines itself, handing one to a pool
//! helper only while two can run.

mod common;

use catdet_core::{DetectionSystem, FrameOutput, OpsBreakdown};
use catdet_data::Frame;
use catdet_serve::{
    mixed_workload, serve, serve_fleet, serve_fleet_with_recorder, serve_with_recorder, EventKind,
    PartitionKind, Query, ServeConfig, ServeReport, ShardConfig, SharedRecorder, StreamSpec,
    SystemKind,
};
use common::{chain_spec_with_arrivals, null_spec_steady, REFINE_BOOM};
use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("catdet-exec-test-{}-{name}", std::process::id()));
    p
}

/// Everything a recording answers: events of every kind, per-kind scans,
/// latency summaries fleet-wide and per stream, and the snapshot index.
fn recording_view(recorder: &SharedRecorder, streams: &[usize]) -> String {
    let mut out = format!("{:?}\n", recorder.stats());
    out += &format!("{:?}\n", recorder.scan(&Query::all()));
    for kind in [EventKind::Detection, EventKind::Track, EventKind::Batch] {
        out += &format!("{:?}\n", recorder.scan(&Query::all().kind(kind)));
    }
    out += &format!("{:?}\n", recorder.latency_stats(&Query::all()));
    for &s in streams {
        out += &format!("{:?}\n", recorder.latency_stats(&Query::all().stream(s)));
        out += &format!("{:?}\n", recorder.nearest_snapshot(s, f64::INFINITY));
    }
    out += &format!("{:?}\n", recorder.with_store(|s| s.snapshots().to_vec()));
    out
}

#[test]
fn serve_recording_is_byte_identical_to_a_one_shard_fleet() {
    // Fused refinement, small chunks under a tight retention budget (so
    // chunks are evicted) and a snapshot every 4 completions per stream:
    // every write path of the recorder is on.
    let cfg = ServeConfig::new()
        .with_workers(2)
        .with_max_batch(4)
        .with_queue_capacity(100_000)
        .with_fuse_refinement(true)
        .with_refine_batch_window_s(0.004);
    let streams = || mixed_workload(4, 24, 5, SystemKind::CatdetA);
    let ids: Vec<usize> = streams().iter().map(|s| s.source.stream_id).collect();
    let record = |fleet: bool, path: &PathBuf| -> (ServeReport, SharedRecorder) {
        let recorder = SharedRecorder::new(16, 12, 4);
        let report = if fleet {
            let cfg = cfg.with_shard(ShardConfig::single());
            let mut fleet = serve_fleet_with_recorder(streams(), &cfg, &recorder);
            assert_eq!(fleet.shards.len(), 1);
            fleet.shards.remove(0)
        } else {
            serve_with_recorder(streams(), &cfg, &recorder)
        };
        recorder.save(path).expect("save recording");
        (report, recorder)
    };
    let (p_serve, p_fleet) = (tmp("serve.cdr"), tmp("fleet.cdr"));
    let (mono, mono_rec) = record(false, &p_serve);
    let (fleet, fleet_rec) = record(true, &p_fleet);
    assert_eq!(mono, fleet, "1-shard fleet report diverged from serve()");

    let stats = mono_rec.stats();
    assert!(
        stats.chunks_evicted > 0,
        "retention never evicted: {stats:?}"
    );
    assert!(
        stats.snapshots > 0,
        "snapshot cadence never fired: {stats:?}"
    );
    let bytes = std::fs::read(&p_serve).expect("read serve recording");
    assert!(!bytes.is_empty());
    assert_eq!(
        bytes,
        std::fs::read(&p_fleet).expect("read fleet recording"),
        "saved .cdr bytes differ between serve and a 1-shard fleet"
    );
    assert_eq!(
        recording_view(&mono_rec, &ids),
        recording_view(&fleet_rec, &ids),
        "queries over the two recordings disagree"
    );
    for p in [p_serve, p_fleet] {
        let _ = std::fs::remove_file(p);
    }
}

const PAYLOAD: &str = "injected pipeline failure at frame";

/// A pipeline that does no work until its `panic_at`-th frame, where it
/// panics with a recognisable payload.
struct PanicAt {
    seen: usize,
    panic_at: usize,
}

impl DetectionSystem for PanicAt {
    fn name(&self) -> String {
        "panic-at".into()
    }

    fn reset(&mut self) {
        self.seen = 0;
    }

    fn process_frame(&mut self, _frame: &Frame) -> FrameOutput {
        self.seen += 1;
        if self.seen == self.panic_at {
            panic!("{PAYLOAD} {}", self.panic_at);
        }
        FrameOutput {
            detections: Vec::new(),
            ops: OpsBreakdown::default(),
            num_refinement_regions: 0,
            refinement_coverage: 0.0,
        }
    }
}

/// Four cheap streams; stream `id`'s pipeline panics on its
/// `panic_at(id)`-th frame, if that is `Some`.
fn streams_with_panics(panic_at: fn(usize) -> Option<usize>) -> Vec<StreamSpec> {
    (0..4)
        .map(|id| {
            let mut spec = null_spec_steady(id, 20.0, 12, id as f64 * 0.003);
            if let Some(panic_at) = panic_at(id) {
                spec.factory = Arc::new(move || {
                    Box::new(PanicAt { seen: 0, panic_at }) as Box<dyn DetectionSystem>
                });
            }
            spec
        })
        .collect()
}

/// Runs `call` on its own thread and returns its panic message. Fails the
/// test if the call returns normally, or if it neither returns nor panics
/// within a generous deadline (a hang or deadlock).
fn panic_message_of(call: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = std::panic::catch_unwind(AssertUnwindSafe(call));
        let _ = tx.send(out.err().map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }));
    });
    let msg = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("serving call hung after a pipeline panic");
    handle.join().expect("the caught panic must not escape");
    msg.expect("serving call returned although a pipeline panicked")
}

#[test]
fn pipeline_panics_surface_with_their_payload_and_never_hang() {
    let want = format!("{PAYLOAD} 5");
    let stream_2_panics = |id| (id == 2).then_some(5);
    let msg = panic_message_of(move || {
        serve(
            streams_with_panics(stream_2_panics),
            &ServeConfig::new().with_workers(2),
        );
    });
    assert!(msg.contains(&want), "serve lost the payload: {msg:?}");

    // One capture point: the same text at every thread count, for an
    // independent-phase fleet and for a fused lock-step one.
    let unfused = ServeConfig::new()
        .with_workers(2)
        .with_shard(ShardConfig::sharded(2));
    let fused = ServeConfig::new()
        .with_workers(2)
        .with_fuse_refinement(true)
        .with_refine_batch_window_s(0.004)
        .with_shard(ShardConfig::sharded(4));
    for (name, cfg) in [("unfused", unfused), ("fused", fused)] {
        let msgs = [1, 2, 4].map(|threads| {
            let cfg = cfg.with_shard(cfg.shard.with_threads(threads));
            panic_message_of(move || {
                serve_fleet(streams_with_panics(stream_2_panics), &cfg);
            })
        });
        assert!(
            msgs[0].contains(&want),
            "{name} fleet lost the payload: {msgs:?}"
        );
        assert!(
            msgs.iter().all(|m| *m == msgs[0]),
            "{name} fleet's panic text depends on --threads 1/2/4: {msgs:?}"
        );
    }

    // Every stream panics, stream `id` on frame 5 + id. Equal lengths put
    // streams 0 and 2 on shard 0, 1 and 3 on shard 1, and with no
    // rebalance ticks the whole run is one pass: both shards panic in it,
    // and the lower one is re-raised whichever finished last.
    for threads in [1, 2, 4] {
        let cfg = ServeConfig::new().with_workers(2).with_shard(
            ShardConfig::sharded(2)
                .with_partition(PartitionKind::LeastLoaded)
                .with_threads(threads),
        );
        let msg = panic_message_of(move || {
            serve_fleet(streams_with_panics(|id| Some(5 + id)), &cfg);
        });
        assert_eq!(
            msg,
            format!("shard 0 engine panicked: {PAYLOAD} 5"),
            "--threads {threads} did not re-raise the lower shard"
        );
    }
}

/// Four chain streams of `frames` frames at 20 fps from staggered
/// starts. Equal lengths put streams 0 and 2 on shard 0, 1 and 3 on
/// shard 1 under least-loaded placement; stream 1 panics in refinement
/// on its `panic_at`-th frame.
fn streams_with_refine_panic(frames: usize, panic_at: usize) -> Vec<StreamSpec> {
    (0..4)
        .map(|id| {
            let arrivals = (0..frames)
                .map(|i| id as f64 * 0.003 + i as f64 / 20.0)
                .collect();
            chain_spec_with_arrivals(id, arrivals, (id == 1).then_some(panic_at))
        })
        .collect()
}

/// A refinement panic of shard `shard` as the fleet re-raises it.
fn refine_panic(shard: usize, frame: usize) -> String {
    format!("shard {shard} engine panicked: {REFINE_BOOM} {frame}")
}

/// Runs `streams()` on a fleet under `cfg` at `--threads` 1, 2 and 4,
/// unrecorded (`None`) or recorded into 64-row chunks with a snapshot
/// every `Some(n)` frames, and returns each run's panic text.
fn refine_panics_at_each_thread_count(
    cfg: ServeConfig,
    recorded: Option<usize>,
    streams: fn() -> Vec<StreamSpec>,
) -> [String; 3] {
    [1, 2, 4].map(|threads| {
        let cfg = cfg.with_shard(cfg.shard.with_threads(threads));
        panic_message_of(move || match recorded {
            Some(snapshot_every) => {
                let recorder = SharedRecorder::new(64, usize::MAX, snapshot_every);
                serve_fleet_with_recorder(streams(), &cfg, &recorder);
            }
            None => {
                serve_fleet(streams(), &cfg);
            }
        })
    })
}

#[test]
fn refinement_panics_name_their_shard_at_every_join_point() {
    let two_shards = ShardConfig::sharded(2).with_partition(PartitionKind::LeastLoaded);
    let unfused = ServeConfig::new()
        .with_workers(2)
        .with_queue_capacity(1000)
        .with_shard(two_shards);
    let fused = unfused
        .with_fuse_refinement(true)
        .with_refine_batch_window_s(0.004);
    // Frame 5 of 12 is joined at the stream's next batch claim, inside the
    // engine's run; frame 12, its last, only in the final join. A recorded
    // run joins them there too, unless the completion owes a snapshot:
    // with one every 5 frames, frame 5 is joined at once, in the engine's
    // run when unfused, in the fleet's cross-shard dispatch when fused.
    let mid: fn() -> Vec<StreamSpec> = || streams_with_refine_panic(12, 5);
    let last: fn() -> Vec<StreamSpec> = || streams_with_refine_panic(12, 12);
    for (name, cfg) in [("unfused", unfused), ("fused", fused)] {
        for (join, recorded, streams, frame) in [
            ("next claim", None, mid, 5),
            ("final join", None, last, 12),
            ("next claim, recorded", Some(0), mid, 5),
            ("final join, recorded", Some(0), last, 12),
            ("owed snapshot, recorded", Some(5), mid, 5),
        ] {
            let msgs = refine_panics_at_each_thread_count(cfg, recorded, streams);
            for (threads, msg) in [1, 2, 4].iter().zip(&msgs) {
                assert_eq!(
                    *msg,
                    refine_panic(1, frame),
                    "{name} fleet, {join}, --threads {threads}"
                );
            }
        }
    }

    // A rebalance tick extracts a stream whose refinement is out. Streams
    // 0, 2 and 3 (shard 0) queue five frames each at t = 0, and stream 1
    // (shard 1) starts at t = 1 s. Shard 0's one worker claims a frame of
    // each at t = 0 and stays busy past the first tick at 2 ms, which moves
    // stream 0 (tied backlogs break to the lowest id): its panicking first
    // refinement is joined on extraction.
    let burst: fn() -> Vec<StreamSpec> = || {
        [(0, 5), (1, 100), (2, 5), (3, 5)]
            .map(|(id, frames)| {
                let arrival = |i| if id == 1 { 1.0 + i as f64 / 10.0 } else { 0.0 };
                let arrivals = (0..frames).map(arrival).collect();
                chain_spec_with_arrivals(id, arrivals, (id == 0).then_some(1))
            })
            .into()
    };
    let rebalancing = ServeConfig::new()
        .with_workers(1)
        .with_max_batch(4)
        .with_queue_capacity(1000)
        .with_shard(
            two_shards
                .with_rebalance_interval_s(0.002)
                .with_migration_cost_frames(0),
        );
    for recorded in [None, Some(0)] {
        let msgs = refine_panics_at_each_thread_count(rebalancing, recorded, burst);
        for (threads, msg) in [1, 2, 4].iter().zip(&msgs) {
            assert_eq!(
                *msg,
                refine_panic(0, 1),
                "extraction, recorded {recorded:?}, --threads {threads}"
            );
        }
    }
}

/// Holds each arrival until two have arrived, for at most 30 s. Two
/// pipelines that both pass through it ran on two threads at once.
#[derive(Default)]
struct Meet {
    arrived: Mutex<usize>,
    all_in: Condvar,
}

impl Meet {
    fn arrive(&self) {
        let mut arrived = self.arrived.lock().expect("meet lock");
        *arrived += 1;
        self.all_in.notify_all();
        // Bounded, so a fleet that runs both pipelines on one thread
        // fails the thread check instead of hanging.
        let _ = self
            .all_in
            .wait_timeout_while(arrived, Duration::from_secs(30), |a| *a < 2)
            .expect("meet lock");
    }
}

/// A pipeline that notes the OS thread running each of its frames and,
/// given a meeting point, holds its first frame there.
struct ThreadLog {
    log: Arc<Mutex<Vec<ThreadId>>>,
    meet: Option<Arc<Meet>>,
}

impl DetectionSystem for ThreadLog {
    fn name(&self) -> String {
        "thread-log".into()
    }

    fn reset(&mut self) {}

    fn process_frame(&mut self, _frame: &Frame) -> FrameOutput {
        self.log
            .lock()
            .expect("thread log lock")
            .push(std::thread::current().id());
        if let Some(meet) = self.meet.take() {
            meet.arrive();
        }
        FrameOutput {
            detections: Vec::new(),
            ops: OpsBreakdown::default(),
            num_refinement_regions: 0,
            refinement_coverage: 0.0,
        }
    }
}

/// Runs two logged streams starting at `starts` on a 2-shard fleet at
/// `--threads 2`, one stream per shard (equal lengths under least-loaded
/// placement), and returns the thread of every frame.
fn run_logged(
    cfg: ServeConfig,
    shard: ShardConfig,
    starts: [f64; 2],
    meet: Option<Arc<Meet>>,
) -> Vec<ThreadId> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let streams = starts
        .iter()
        .enumerate()
        .map(|(id, &start)| {
            let mut spec = null_spec_steady(id, 20.0, 12, start);
            let (log, meet) = (Arc::clone(&log), meet.clone());
            spec.factory = Arc::new(move || {
                Box::new(ThreadLog {
                    log: Arc::clone(&log),
                    meet: meet.clone(),
                }) as Box<dyn DetectionSystem>
            });
            spec
        })
        .collect();
    let shard = shard
        .with_partition(PartitionKind::LeastLoaded)
        .with_threads(2);
    let report = serve_fleet(streams, &cfg.with_shard(shard));
    assert!(
        report.shards.iter().all(|s| s.frames_processed > 0),
        "a shard served nothing: the fleet proves nothing"
    );
    let threads = log.lock().expect("thread log lock").clone();
    assert_eq!(threads.len(), report.frames_processed());
    threads
}

#[test]
fn a_lone_runnable_engine_never_leaves_the_calling_thread() {
    // `crowd`'s shape: a fused lock-step fleet whose shards never have
    // events at the same instant, so every pass has one runnable engine.
    let threads = run_logged(
        ServeConfig::new().with_fuse_refinement(true),
        ShardConfig::sharded(2),
        [0.0, 0.0123],
        None,
    );
    let caller = std::thread::current().id();
    assert!(
        threads.iter().all(|&t| t == caller),
        "a frame ran off the calling thread although no two engines could run"
    );
}

#[test]
fn two_runnable_engines_run_on_the_caller_and_a_helper() {
    // Independent shards between rebalance ticks. Each stream's first
    // frame waits for the other's, so the pass that starts them must run
    // both engines at once: the caller its own, a helper the queued one.
    let threads = run_logged(
        ServeConfig::new(),
        ShardConfig::sharded(2).with_rebalance_interval_s(0.05),
        [0.0, 0.0],
        Some(Arc::default()),
    );
    let caller = std::thread::current().id();
    let distinct: HashSet<ThreadId> = threads.into_iter().collect();
    assert_eq!(distinct.len(), 2, "frames ran on {distinct:?}");
    assert!(
        distinct.contains(&caller),
        "the calling thread ran no frame: {distinct:?}"
    );
}
