//! The front-door ingest pass: every client connection simulated to
//! completion, one after another, each as a plain loop on its own virtual
//! clock, producing the delivered per-stream frame timelines, a
//! connection-event log and a per-client report.
//!
//! Determinism contract: the entire output of [`run_ingest`] — frame
//! arrival times, event log, report — is a pure function of
//! `(sources, params)`. Per-client randomness is keyed by
//! `mix_seed(params.seed, stream_id)`, and clients share no state, so the
//! outcome for one client is bit-identical whatever other clients exist.
//! That is also why a pass may be split: [`run_ingest`] over contiguous
//! runs of the clients, merged in slot order with
//! [`IngestOutcome::append`], equals one pass over them all.
//!
//! Once a connection's buffers have grown, a frame costs the pass no
//! allocation but the clone of the delivered frame itself.

use crate::door::DoorPolicy;
use crate::sim::{mix_seed, LinkParams, SimLink};
use crate::source::{CamLinkSource, LinkNotice};
use catdet_data::{StreamFrame, StreamSource};
use std::collections::VecDeque;

/// Front-door configuration: link behaviour, the bounded per-connection
/// receive window, its drain rate, and the per-client door rate limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Workload seed; each client derives its own stream from it.
    pub seed: u64,
    /// Wire behaviour shared by every connection.
    pub link: LinkParams,
    /// Bounded receive buffer per connection, in frames. When full the
    /// door stops reading the socket — backpressure reaches the camera.
    pub recv_window: usize,
    /// Rate at which buffered frames drain past the door (models the
    /// shard pulling from the connection).
    pub drain_fps: f64,
    /// Sustained per-client frame rate admitted past the door.
    pub door_rate_fps: f64,
    /// Door token-bucket burst capacity, in frames.
    pub door_burst: f64,
}

impl NetParams {
    /// Sensible defaults for `seed`: a clean link, a 32-frame window
    /// draining at 120 fps, and a 120 fps / 16-frame door.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            link: LinkParams::clean(),
            recv_window: 32,
            drain_fps: 120.0,
            door_rate_fps: 120.0,
            door_burst: 16.0,
        }
    }

    /// Checks every parameter's range, the link's included.
    ///
    /// # Errors
    ///
    /// The first unusable parameter, as `(field, rule)`: the rule its
    /// value broke, and the field's name in `self` or, for a link
    /// parameter, in [`LinkParams`].
    pub fn validate(&self) -> Result<(), (&'static str, &'static str)> {
        self.link.validate()?;
        if self.recv_window < 1 {
            return Err(("recv_window", "receive window must hold at least one frame"));
        }
        if !(self.drain_fps > 0.0 && self.drain_fps.is_finite()) {
            return Err(("drain_fps", "drain rate must be finite and positive"));
        }
        if !(self.door_rate_fps > 0.0 && self.door_rate_fps.is_finite()) {
            return Err(("door_rate_fps", "door rate must be finite and positive"));
        }
        if !(self.door_burst >= 1.0 && self.door_burst.is_finite()) {
            return Err((
                "door_burst",
                "door burst must be finite and at least one frame",
            ));
        }
        Ok(())
    }
}

/// What happened on a connection, for the event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEventKind {
    /// Client connected (once per connection, at time zero).
    Connect,
    /// Connection dropped mid-record; in-flight bytes were lost.
    Disconnect,
    /// Receive window filled: the door stopped reading the socket.
    Throttle,
    /// Camera reconnected and resumed from its cursor.
    Resume,
    /// A frame was rejected by the per-client door rate limiter.
    DoorReject,
}

impl ConnEventKind {
    /// Every kind, in code order.
    pub const ALL: [ConnEventKind; 5] = [
        ConnEventKind::Connect,
        ConnEventKind::Disconnect,
        ConnEventKind::Throttle,
        ConnEventKind::Resume,
        ConnEventKind::DoorReject,
    ];

    /// Stable wire code for recording.
    pub fn code(self) -> u64 {
        match self {
            ConnEventKind::Connect => 0,
            ConnEventKind::Disconnect => 1,
            ConnEventKind::Throttle => 2,
            ConnEventKind::Resume => 3,
            ConnEventKind::DoorReject => 4,
        }
    }

    /// Inverse of [`code`](ConnEventKind::code).
    pub fn from_code(code: u64) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            ConnEventKind::Connect => "connect",
            ConnEventKind::Disconnect => "disconnect",
            ConnEventKind::Throttle => "throttle",
            ConnEventKind::Resume => "resume",
            ConnEventKind::DoorReject => "door-reject",
        }
    }
}

/// One entry in the connection-event log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnEvent {
    /// Virtual time of the event.
    pub t_s: f64,
    /// Client (stream) id.
    pub client: usize,
    /// What happened.
    pub kind: ConnEventKind,
    /// The frame index involved: the resume cursor for
    /// disconnect/resume, the head-of-window frame for throttle, the
    /// rejected frame for door-reject, `0` for connect.
    pub frame: usize,
    /// Kind-specific extra: frames offered for connect, window occupancy
    /// for throttle, `0` otherwise.
    pub detail: u64,
}

/// Per-connection accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientReport {
    /// Client (stream) id.
    pub client: usize,
    /// Frames the camera offered.
    pub offered: usize,
    /// Frames delivered past the door.
    pub delivered: usize,
    /// Frames rejected by the door rate limiter.
    pub rejected_at_door: usize,
    /// Frames lost to in-flight corruption (never retransmitted): the
    /// offered frames the connection never yielded, so
    /// `offered == delivered + rejected_at_door + lost`.
    pub lost: usize,
    /// Connection drops (each followed by a resume).
    pub disconnects: usize,
    /// Throttle episodes (window-full stretches, not per-frame).
    pub throttles: usize,
    /// High-water receive-window occupancy; never exceeds the window.
    pub max_buffered: usize,
}

/// Fleet-wide ingest accounting: one [`ClientReport`] per connection.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Per-connection reports, in stream-id order.
    pub clients: Vec<ClientReport>,
    /// The configured receive window (shared by every connection).
    pub recv_window: usize,
}

impl IngestReport {
    /// Total frames offered by all cameras.
    pub fn offered(&self) -> usize {
        self.clients.iter().map(|c| c.offered).sum()
    }

    /// Total frames delivered past the door.
    pub fn delivered(&self) -> usize {
        self.clients.iter().map(|c| c.delivered).sum()
    }

    /// Total frames rejected by the door rate limiter.
    pub fn rejected_at_door(&self) -> usize {
        self.clients.iter().map(|c| c.rejected_at_door).sum()
    }

    /// Total frames lost to in-flight corruption.
    pub fn lost(&self) -> usize {
        self.clients.iter().map(|c| c.lost).sum()
    }

    /// Total connection drops.
    pub fn disconnects(&self) -> usize {
        self.clients.iter().map(|c| c.disconnects).sum()
    }

    /// Total throttle episodes.
    pub fn throttles(&self) -> usize {
        self.clients.iter().map(|c| c.throttles).sum()
    }

    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "door: {} clients | {} offered -> {} delivered \
             ({} rejected at door, {} lost in flight, {} disconnects, {} throttle events)",
            self.clients.len(),
            self.offered(),
            self.delivered(),
            self.rejected_at_door(),
            self.lost(),
            self.disconnects(),
            self.throttles(),
        )
    }
}

/// Everything the ingest pass produces.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOutcome {
    /// The streams as delivered past the door: arrival times are door
    /// drain times, frames are the survivors. Feed these to the serving
    /// layer in place of the originals.
    pub delivered: Vec<StreamSource>,
    /// Connection events, sorted by `(t_s, client)`.
    pub events: Vec<ConnEvent>,
    /// Per-client accounting.
    pub report: IngestReport,
}

impl IngestOutcome {
    /// Appends `later`, the outcome of clients that follow this outcome's
    /// in slot order, so that the result is exactly what one
    /// [`run_ingest`] over all of them returns. Clients share no state,
    /// so the slots simply concatenate; both event logs are sorted by
    /// `(t_s, client)` with ties in slot order, and a stable sort of their
    /// concatenation keeps that order.
    ///
    /// This is what lets a caller split one pass's clients into
    /// contiguous runs, ingest the runs on different threads, and merge.
    pub fn append(&mut self, later: IngestOutcome) {
        debug_assert_eq!(self.report.recv_window, later.report.recv_window);
        self.delivered.extend(later.delivered);
        self.report.clients.extend(later.report.clients);
        self.events.extend(later.events);
        self.events.sort_by(by_time_then_client);
    }
}

/// The order of the merged connection-event log.
fn by_time_then_client(a: &ConnEvent, b: &ConnEvent) -> std::cmp::Ordering {
    a.t_s.total_cmp(&b.t_s).then(a.client.cmp(&b.client))
}

struct ClientOutcome {
    /// Frames admitted past the door, as `(frame index, drain time)`.
    admitted: Vec<(usize, f64)>,
    events: Vec<ConnEvent>,
    report: ClientReport,
}

/// Simulates every connection to completion and returns the delivered
/// streams, the event log and the report. Pure in `(sources, params)`.
///
/// # Panics
///
/// Panics with the broken rule if `params` is unusable (see
/// [`NetParams::validate`]).
pub fn run_ingest(sources: &[StreamSource], params: &NetParams) -> IngestOutcome {
    if let Err((_, rule)) = params.validate() {
        panic!("{rule}");
    }
    let mut delivered = Vec::with_capacity(sources.len());
    let mut events = Vec::new();
    let mut clients = Vec::with_capacity(sources.len());
    for source in sources {
        // A connection needs only the capture times: frames stay in the
        // borrowed source until the door's verdicts are in.
        let captures = source.frames().iter().map(|f| f.arrival_s).collect();
        let o = run_client(source.stream_id, captures, params);
        // The one copy ingest makes: each admitted frame, stamped with its
        // drain time.
        let frames = o
            .admitted
            .iter()
            .map(|&(idx, drain_s)| StreamFrame {
                arrival_s: drain_s,
                frame: source.frames()[idx].frame.clone(),
            })
            .collect();
        delivered.push(StreamSource::from_frames(
            source.stream_id,
            source.fps,
            source.width,
            source.height,
            frames,
        ));
        events.extend(o.events);
        clients.push(o.report);
    }
    // Stable merge across clients: per-client order is preserved, ties
    // at one instant order by client id.
    events.sort_by(by_time_then_client);
    IngestOutcome {
        delivered,
        events,
        report: IngestReport {
            clients,
            recv_window: params.recv_window,
        },
    }
}

/// Drains one frame past the door at its drain time: admitted frames
/// join the delivered list, rejected ones leave a `DoorReject` event.
fn pass_door(
    idx: usize,
    drain_s: f64,
    client: usize,
    door: &mut DoorPolicy,
    admitted: &mut Vec<(usize, f64)>,
    events: &mut Vec<ConnEvent>,
) {
    if door.admit(drain_s) {
        admitted.push((idx, drain_s));
    } else {
        events.push(ConnEvent {
            t_s: drain_s,
            client,
            kind: ConnEventKind::DoorReject,
            frame: idx,
            detail: 0,
        });
    }
}

/// Simulates one connection to completion on its own clock, which starts
/// at zero and moves forward only to the instants the connection waits
/// for.
fn run_client(client: usize, captures: Vec<f64>, params: &NetParams) -> ClientOutcome {
    let offered = captures.len();
    let link = SimLink::new(params.link, mix_seed(params.seed, client));
    let mut src = CamLinkSource::new(client, captures, link);
    let mut now_s = 0.0;
    let mut door = DoorPolicy::new(params.door_rate_fps, params.door_burst);
    let mut events: Vec<ConnEvent> = Vec::new();
    let mut admitted: Vec<(usize, f64)> = Vec::new();
    // The bounded receive window: `(frame index, drain time)` entries.
    let mut window: VecDeque<(usize, f64)> = VecDeque::new();
    let mut last_drain_s = f64::NEG_INFINITY;
    let mut max_buffered = 0usize;
    // Frames the connection yielded; every other offered frame was lost.
    let mut yielded = 0usize;
    let mut throttles = 0usize;
    let mut throttling = false;
    let drain_period_s = 1.0 / params.drain_fps;
    loop {
        // Drain every buffered frame whose turn has come.
        while let Some(&(idx, drain_s)) = window.front() {
            if drain_s > now_s {
                break;
            }
            window.pop_front();
            throttling = false;
            pass_door(idx, drain_s, client, &mut door, &mut admitted, &mut events);
        }
        // Window full: stop reading the socket until the head drains.
        // Not reading the source is the backpressure — the camera's next
        // record is scheduled from a later `now`, pushing the wire back.
        if window.len() >= params.recv_window {
            let &(idx, drain_s) = window.front().expect("window is non-empty");
            if !throttling {
                throttling = true;
                throttles += 1;
                events.push(ConnEvent {
                    t_s: now_s,
                    client,
                    kind: ConnEventKind::Throttle,
                    frame: idx,
                    detail: window.len() as u64,
                });
            }
            now_s = now_s.max(drain_s);
            continue;
        }
        match src.next_frame(&mut now_s) {
            Some(f) => {
                yielded += 1;
                let drain_s = (last_drain_s + drain_period_s).max(f.delivered_s);
                last_drain_s = drain_s;
                window.push_back((f.frame_index, drain_s));
                max_buffered = max_buffered.max(window.len());
            }
            None => break,
        }
    }
    // Stream over: drain what is still buffered.
    while let Some((idx, drain_s)) = window.pop_front() {
        pass_door(idx, drain_s, client, &mut door, &mut admitted, &mut events);
    }
    for &(t_s, notice, cursor) in &src.notices {
        events.push(match notice {
            LinkNotice::Connect => ConnEvent {
                t_s,
                client,
                kind: ConnEventKind::Connect,
                frame: 0,
                detail: cursor as u64, // frames offered
            },
            LinkNotice::Disconnect => ConnEvent {
                t_s,
                client,
                kind: ConnEventKind::Disconnect,
                frame: cursor,
                detail: 0,
            },
            LinkNotice::Resume => ConnEvent {
                t_s,
                client,
                kind: ConnEventKind::Resume,
                frame: cursor,
                detail: 0,
            },
        });
    }
    events.sort_by(|a, b| {
        a.t_s
            .total_cmp(&b.t_s)
            .then(a.kind.code().cmp(&b.kind.code()))
    });
    let report = ClientReport {
        client,
        offered,
        delivered: admitted.len(),
        rejected_at_door: door.rejected,
        lost: offered - yielded,
        disconnects: src.disconnects(),
        throttles,
        max_buffered,
    };
    ClientOutcome {
        admitted,
        events,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdet_data::kitti_like;

    /// `clients` streams of `frames` frames each; client `i` captures at
    /// `arrival_scale * j / 10 + i * 0.01`.
    fn workload(clients: usize, frames: usize, arrival_scale: f64) -> Vec<StreamSource> {
        let ds = kitti_like()
            .sequences(1)
            .frames_per_sequence(frames)
            .seed(9)
            .build();
        let pool = ds.sequences()[0].frames();
        (0..clients)
            .map(|i| {
                let stream_frames = (0..frames)
                    .map(|j| StreamFrame {
                        arrival_s: arrival_scale * j as f64 / 10.0 + i as f64 * 0.01,
                        frame: pool[j].clone(),
                    })
                    .collect();
                StreamSource::from_frames(i, 10.0, 1242.0, 375.0, stream_frames)
            })
            .collect()
    }

    #[test]
    fn clean_links_deliver_every_frame() {
        let sources = workload(3, 12, 1.0);
        let out = run_ingest(&sources, &NetParams::new(7));
        assert_eq!(out.report.offered(), 36);
        assert_eq!(out.report.delivered(), 36);
        assert_eq!(out.report.rejected_at_door(), 0);
        assert_eq!(out.report.lost(), 0);
        // One connect per client, nothing else.
        assert_eq!(out.events.len(), 3);
        assert!(out.events.iter().all(|e| e.kind == ConnEventKind::Connect));
        for (s, d) in sources.iter().zip(&out.delivered) {
            assert_eq!(s.len(), d.len());
            assert_eq!(s.stream_id, d.stream_id);
        }
    }

    #[test]
    fn the_whole_outcome_is_seed_deterministic() {
        let sources = workload(4, 20, 1.0);
        let mut params = NetParams::new(42);
        params.link.jitter_s = 0.004;
        params.link.disconnect_rate = 0.08;
        params.link.reorder_rate = 0.03;
        params.link.chunk_bytes = 64;
        let a = run_ingest(&sources, &params);
        let b = run_ingest(&sources, &params);
        assert_eq!(a, b);
        let mut other = params;
        other.seed = 43;
        assert_ne!(run_ingest(&sources, &other), a);
    }

    #[test]
    fn a_full_window_throttles_and_never_overflows() {
        let sources = workload(1, 40, 0.1); // 100 fps offered
        let mut params = NetParams::new(3);
        params.recv_window = 4;
        params.drain_fps = 20.0; // drains slower than frames arrive
        params.door_rate_fps = 1000.0;
        params.door_burst = 1000.0;
        let out = run_ingest(&sources, &params);
        let r = out.report.clients[0];
        assert!(r.max_buffered <= 4, "bounded window exceeded");
        assert!(r.throttles > 0, "expected throttle episodes");
        assert!(out.events.iter().any(|e| e.kind == ConnEventKind::Throttle));
        assert_eq!(r.delivered, 40, "throttling delays, never drops");
    }

    #[test]
    fn the_door_rejects_an_over_rate_client() {
        let sources = workload(1, 60, 0.05); // 200 fps offered
        let mut params = NetParams::new(3);
        params.door_rate_fps = 20.0;
        params.door_burst = 4.0;
        let out = run_ingest(&sources, &params);
        let r = out.report.clients[0];
        assert!(r.rejected_at_door > 20, "door barely engaged: {r:?}");
        assert_eq!(r.delivered + r.rejected_at_door, 60);
        assert!(out
            .events
            .iter()
            .any(|e| e.kind == ConnEventKind::DoorReject));
    }

    #[test]
    fn every_offered_frame_is_delivered_rejected_or_lost() {
        // Reordered chunks can latch the decoder onto a false preamble, so
        // a record may decode one send late. Such a frame is delivered,
        // never lost: the three outcomes must partition what was offered.
        let sources = workload(6, 60, 0.3);
        let mut lost = 0;
        for seed in 0..12 {
            let mut params = NetParams::new(seed);
            params.link.jitter_s = 0.004;
            params.link.disconnect_rate = 0.02;
            params.link.reorder_rate = 0.05;
            params.link.chunk_bytes = 48;
            params.door_rate_fps = 25.0;
            params.door_burst = 4.0;
            let out = run_ingest(&sources, &params);
            for c in &out.report.clients {
                assert_eq!(
                    c.offered,
                    c.delivered + c.rejected_at_door + c.lost,
                    "seed {seed}: {c:?}"
                );
            }
            lost += out.report.lost();
        }
        assert!(lost > 0, "reorder never lost a frame: the test is too weak");
    }

    #[test]
    fn a_clients_outcome_ignores_other_clients() {
        let mut params = NetParams::new(11);
        params.link.jitter_s = 0.002;
        params.link.disconnect_rate = 0.05;
        let two = workload(2, 15, 1.0);
        let three = workload(3, 15, 1.0);
        let a = run_ingest(&two, &params);
        let b = run_ingest(&three, &params);
        for i in 0..2 {
            assert_eq!(a.delivered[i], b.delivered[i]);
            assert_eq!(a.report.clients[i], b.report.clients[i]);
        }
    }
}
