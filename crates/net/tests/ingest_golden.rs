//! Pins the ingest timeline across commits: an FNV-1a fingerprint of
//! `run_ingest` over 60 seeded faulty-link workloads must equal a
//! constant. Every other ingest test compares runs within one build, so a
//! change that shifted every delivery time would pass all of them; this
//! one fails unless every delivered arrival time, frame index, connection
//! event and client report is bit-identical to the pinned timeline.
//!
//! The workloads are drawn so that jitter, partial writes, in-flight
//! reordering, disconnects, throttling and door rejects all fire, and the
//! test checks that they do. A change that is meant to move the timeline
//! must say so and update `PINNED` with the fingerprint it prints.

use catdet_data::{Frame, StreamFrame, StreamSource};
use catdet_net::{run_ingest, ConnEventKind, IngestOutcome, LinkParams, NetParams};

/// The fingerprint of [`fingerprint_all`].
const PINNED: u64 = 0xeb9c_4cd7_c433_2349;

/// Seeded workloads in the pinned set.
const WORKLOADS: u64 = 60;

/// SplitMix64: the workloads draw from this and not from a library RNG, so
/// the pinned inputs cannot move with a dependency.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Uniform in `[lo, hi)`.
    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// Workload `w`: a handful of cameras and a link and door that misbehave
/// in proportions drawn from `w`. Frames carry no objects; each one's
/// `index` is its capture index, so the fingerprint can name it.
fn workload(w: u64) -> (Vec<StreamSource>, NetParams) {
    let mut d = Draw(w);
    let clients = d.int(2, 7) as usize;
    let frames = d.int(20, 70) as usize;
    let fps = [10.0f32, 30.0, 60.0, 120.0][d.int(0, 4) as usize];
    let stagger = d.real(0.0, 0.02);
    let sources = (0..clients)
        .map(|slot| {
            let stream_frames = (0..frames)
                .map(|j| StreamFrame {
                    arrival_s: j as f64 / fps as f64 + slot as f64 * stagger,
                    frame: Frame {
                        sequence_id: slot,
                        index: j,
                        ground_truth: Vec::new(),
                        labeled: false,
                    },
                })
                .collect();
            // Stream ids differ from slots, so a slot/id mix-up shows.
            StreamSource::from_frames(3 * slot + 1, fps, 1242.0, 375.0, stream_frames)
        })
        .collect();
    let params = NetParams {
        seed: d.next(),
        link: LinkParams {
            base_latency_s: d.real(0.0005, 0.004),
            jitter_s: d.real(0.0, 0.006),
            bytes_per_s: d.real(2e5, 2e6),
            // Records are 122 to 281 bytes, so every record is split.
            chunk_bytes: d.int(8, 120) as usize,
            reorder_rate: d.real(0.0, 0.015),
            disconnect_rate: d.real(0.0, 0.08),
            reconnect_delay_s: d.real(0.01, 0.1),
        },
        recv_window: d.int(1, 8) as usize,
        drain_fps: d.real(20.0, 150.0),
        door_rate_fps: d.real(8.0, 120.0),
        door_burst: d.real(1.0, 8.0),
    };
    (sources, params)
}

/// FNV-1a over 64-bit words, fed little-endian.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Feeds every field of the outcome: each delivered stream's id and
/// frames (arrival-time bits and frame index), each event's fields, and
/// each client report's fields.
fn feed(h: &mut Fnv, out: &IngestOutcome) {
    h.word(out.delivered.len() as u64);
    for stream in &out.delivered {
        h.word(stream.stream_id as u64);
        h.word(stream.len() as u64);
        for f in stream.frames() {
            h.word(f.arrival_s.to_bits());
            h.word(f.frame.index as u64);
        }
    }
    h.word(out.events.len() as u64);
    for e in &out.events {
        h.word(e.t_s.to_bits());
        h.word(e.client as u64);
        h.word(e.kind.code());
        h.word(e.frame as u64);
        h.word(e.detail);
    }
    h.word(out.report.recv_window as u64);
    h.word(out.report.clients.len() as u64);
    for c in &out.report.clients {
        for v in [
            c.client,
            c.offered,
            c.delivered,
            c.rejected_at_door,
            c.lost,
            c.disconnects,
            c.throttles,
            c.max_buffered,
        ] {
            h.word(v as u64);
        }
    }
}

/// What the pinned set exercised, so a weakened workload shows.
#[derive(Debug, Default)]
struct Tally {
    events: usize,
    delivered: usize,
    jittered: usize,
    lost: usize,
    kinds: [usize; ConnEventKind::ALL.len()],
}

fn fingerprint_all() -> (u64, Tally) {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut tally = Tally::default();
    for w in 0..WORKLOADS {
        let (sources, params) = workload(w);
        let out = run_ingest(&sources, &params);
        feed(&mut h, &out);
        tally.events += out.events.len();
        tally.delivered += out.report.delivered();
        tally.jittered += usize::from(params.link.jitter_s > 0.0);
        tally.lost += out.report.lost();
        for e in &out.events {
            tally.kinds[e.kind.code() as usize] += 1;
        }
    }
    (h.0, tally)
}

#[test]
fn the_ingest_timeline_matches_the_pinned_fingerprint() {
    let (fingerprint, tally) = fingerprint_all();
    for kind in ConnEventKind::ALL {
        assert!(
            tally.kinds[kind.code() as usize] > 0,
            "no {} event fired: the workloads are too tame ({tally:?})",
            kind.label()
        );
    }
    assert!(
        tally.lost > 0 && tally.jittered > 0,
        "reordering or jitter never fired ({tally:?})"
    );
    assert_eq!(
        fingerprint, PINNED,
        "the ingest timeline moved: fingerprint {fingerprint:#018x} ({tally:?})"
    );
}
