//! One execution path: `serve` is a 1-shard fleet down to the recorded
//! bytes, and a pipeline panic surfaces with its original payload at
//! every thread count instead of hanging the run.

mod common;

use catdet_core::{DetectionSystem, FrameOutput, OpsBreakdown};
use catdet_data::Frame;
use catdet_serve::{
    mixed_workload, serve, serve_fleet, serve_fleet_with_recorder, serve_with_recorder, EventKind,
    Query, ServeConfig, ServeReport, ShardConfig, SharedRecorder, StreamSpec, SystemKind,
};
use common::null_spec_steady;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
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

/// Four cheap streams; stream 2's pipeline panics on its 5th frame.
fn streams_with_a_panic() -> Vec<StreamSpec> {
    (0..4)
        .map(|id| {
            let mut spec = null_spec_steady(id, 20.0, 12, id as f64 * 0.003);
            if id == 2 {
                spec.factory = Arc::new(|| {
                    Box::new(PanicAt {
                        seen: 0,
                        panic_at: 5,
                    }) as Box<dyn DetectionSystem>
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
    let msg = panic_message_of(|| {
        serve(streams_with_a_panic(), &ServeConfig::new().with_workers(2));
    });
    assert!(msg.contains(&want), "serve lost the payload: {msg:?}");
    for threads in [1, 2] {
        let msg = panic_message_of(move || {
            let cfg = ServeConfig::new()
                .with_workers(2)
                .with_shard(ShardConfig::sharded(2).with_threads(threads));
            serve_fleet(streams_with_a_panic(), &cfg);
        });
        assert!(
            msg.contains(&want),
            "serve_fleet at --threads {threads} lost the payload: {msg:?}"
        );
    }
}
