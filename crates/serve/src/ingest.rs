//! Network-ingest glue: runs the front-door simulation as a
//! deterministic pre-pass, books its connection events into the flight
//! recorder, then serves the *delivered* streams.
//!
//! The pre-pass runs entirely before any shard engine starts, on the
//! fleet's own threads: the clients split into contiguous runs, one per
//! thread, each run simulating its clients one after another, and the
//! runs merge in slot order. Clients share no state, so the merge is
//! exactly one pass over them all. That is the determinism argument: the
//! delivered timelines, the connection events and their position in the
//! recorder store cannot depend on `--threads`, because the merged
//! outcome does not, and it is booked on the calling thread before any
//! engine runs.

use crate::config::{IngestKind, ServeConfig};
use crate::fleet::{expect_valid, serve_fleet_impl, FleetReport, ShardPool};
use crate::scheduler::StreamSpec;
use catdet_data::StreamSource;
use catdet_net::{run_ingest, ConnEvent, IngestOutcome, IngestReport, NetParams};
use catdet_recorder::{Event, SharedRecorder};

/// Runs the front door over every spec's source, books the connection
/// events into `recorder`, and rebuilds the specs around the delivered
/// timelines (arrival = door drain time, frames = the survivors). The
/// original sources are dropped once the door has run, so the delivered
/// streams are the only frame copy left.
pub(crate) fn front_door(
    specs: Vec<StreamSpec>,
    cfg: &ServeConfig,
    seed: u64,
    pool: Option<&ShardPool>,
    recorder: Option<&SharedRecorder>,
) -> (Vec<StreamSpec>, IngestReport) {
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
    } = split_ingest(sources, &params, pool);
    if let Some(r) = recorder {
        record_conn_events(&events, r);
    }
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
    (specs, report)
}

/// [`run_ingest`] over `sources`, split into one contiguous run of
/// clients per pool thread: the caller ingests the first run while the
/// helpers take the others, and the runs merge in slot order. Clients
/// share no state, so the outcome is the one a single pass returns.
fn split_ingest(
    mut sources: Vec<StreamSource>,
    params: &NetParams,
    pool: Option<&ShardPool>,
) -> IngestOutcome {
    let Some(pool) = pool else {
        return run_ingest(&sources, params);
    };
    let clients = sources.len();
    let runs = pool.threads().min(clients).max(1);
    // Split off the back, so the first run is what stays here.
    for run in (1..runs).rev() {
        let later = sources.split_off(run * clients / runs);
        pool.queue_run((run, later, *params));
    }
    let mut outcome = run_ingest(&sources, params);
    drop(sources);
    let mut panic = None;
    pool.collect_runs(runs - 1, |(_, later)| match later {
        Ok(later) => outcome.append(later),
        Err(msg) => {
            panic.get_or_insert(msg);
        }
    });
    if let Some(msg) = panic {
        panic!("{msg}");
    }
    outcome
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
/// Panics on an invalid configuration or when two streams share a
/// [`stream_id`](StreamSource::stream_id), naming the broken rule or the
/// id, or if `cfg.ingest.kind` is not [`IngestKind::Net`].
pub fn serve_net_fleet(specs: Vec<StreamSpec>, cfg: &ServeConfig, seed: u64) -> FleetReport {
    expect_valid(&specs, cfg);
    let recorder = cfg.recorder.enabled.then(|| cfg.recorder.build());
    serve_fleet_impl(specs, cfg, recorder.as_ref(), Some(seed))
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
    expect_valid(&specs, cfg);
    serve_fleet_impl(specs, cfg, Some(recorder), Some(seed))
}
