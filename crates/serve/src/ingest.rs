//! Network-ingest glue: runs the front-door simulation as a
//! deterministic pre-pass, books its connection events into the flight
//! recorder, then serves the *delivered* streams.
//!
//! The pre-pass runs on the control thread on its own virtual-time
//! reactor, entirely before any shard engine starts. That ordering is
//! the determinism argument: the delivered timelines, the connection
//! events and their position in the recorder store cannot depend on
//! `--threads`, because no engine thread exists yet when they are
//! produced.

use crate::config::{IngestKind, ServeConfig};
use crate::fleet::{expect_valid, serve_fleet_impl, FleetReport};
use crate::scheduler::StreamSpec;
use catdet_net::{run_ingest, ConnEvent, IngestOutcome, IngestReport};
use catdet_recorder::{Event, SharedRecorder};

/// Runs the front door over every spec's source and rebuilds the specs
/// around the delivered timelines (arrival = door drain time, frames =
/// the survivors). The original sources are dropped once the door has
/// run, so the delivered streams are the only frame copy left.
fn ingest_pass(
    specs: Vec<StreamSpec>,
    cfg: &ServeConfig,
    seed: u64,
) -> (Vec<StreamSpec>, Vec<ConnEvent>, IngestReport) {
    assert!(
        cfg.ingest.kind == IngestKind::Net,
        "serve_net_fleet needs IngestKind::Net (cfg.ingest is direct)"
    );
    let (sources, rest): (Vec<_>, Vec<_>) = specs
        .into_iter()
        .map(|s| (s.source, (s.factory, s.priority, s.policy)))
        .unzip();
    let params = cfg.ingest.net_params(seed, cfg.queue_capacity);
    let IngestOutcome {
        delivered,
        events,
        report,
    } = run_ingest(&sources, &params);
    drop(sources);
    let specs = rest
        .into_iter()
        .zip(delivered)
        .map(|((factory, priority, policy), source)| StreamSpec {
            source,
            factory,
            priority,
            policy,
        })
        .collect();
    (specs, events, report)
}

/// Books the connection-event log into the store, stamped on shard 0
/// (the front door is fleet infrastructure, not shard state).
fn record_conn_events(events: &[ConnEvent], recorder: &SharedRecorder) {
    for e in events {
        recorder.record(
            e.t_s,
            0,
            Event::Conn {
                stream: e.client,
                code: e.kind.code(),
                frame: e.frame,
                detail: e.detail,
            },
        );
    }
}

/// Runs a sharded fleet whose streams arrive through the network front
/// door: every camera connection is simulated to completion first
/// (CamLink wire, bounded receive window, per-client door rate limit),
/// then the delivered streams are served exactly as
/// [`serve_fleet`](crate::serve_fleet) would. The report carries the
/// per-client [`IngestReport`].
///
/// `seed` keys all connection randomness; the entire run — ingest
/// timeline, events, serving output — is a pure function of
/// `(specs, cfg, seed)` at every thread count.
///
/// # Panics
///
/// Panics on an invalid configuration, or if `cfg.ingest.kind` is not
/// [`IngestKind::Net`].
pub fn serve_net_fleet(specs: Vec<StreamSpec>, cfg: &ServeConfig, seed: u64) -> FleetReport {
    expect_valid(cfg);
    let recorder = cfg.recorder.enabled.then(|| cfg.recorder.build());
    net_fleet(specs, cfg, seed, recorder.as_ref())
}

/// [`serve_net_fleet`] with every event — connection lifecycle included
/// — booked into `recorder`. Connection events are recorded before any
/// engine runs, so the store layout is bit-identical at every thread
/// count.
///
/// # Panics
///
/// As [`serve_net_fleet`].
pub fn serve_net_fleet_with_recorder(
    specs: Vec<StreamSpec>,
    cfg: &ServeConfig,
    seed: u64,
    recorder: &SharedRecorder,
) -> FleetReport {
    expect_valid(cfg);
    net_fleet(specs, cfg, seed, Some(recorder))
}

/// The ingest pre-pass, then the fleet, for a validated `cfg`.
fn net_fleet(
    specs: Vec<StreamSpec>,
    cfg: &ServeConfig,
    seed: u64,
    recorder: Option<&SharedRecorder>,
) -> FleetReport {
    let (specs, events, ingest) = ingest_pass(specs, cfg, seed);
    if let Some(r) = recorder {
        record_conn_events(&events, r);
    }
    let mut report = serve_fleet_impl(specs, cfg, recorder);
    report.ingest = Some(ingest);
    report
}
