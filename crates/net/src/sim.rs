//! The simulated camera uplink: one `SimLink` per connection turns record
//! sends into a deterministic schedule of byte-chunk deliveries with
//! configurable latency, jitter, partial writes, in-flight reordering and
//! mid-record disconnects.
//!
//! The link is a *schedule generator*, not an I/O object: given a send
//! time and the record's length, it schedules the chunks the receiver
//! will see, as spans of the sender's buffer, and when — the connection
//! then moves its clock to those times, which is what makes the whole
//! network timeline a pure function of the seed. The schedule lives in
//! one buffer per link, so sending allocates nothing once it has grown.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Connection-level behaviour knobs. All times are virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Fixed propagation delay camera → door.
    pub base_latency_s: f64,
    /// Maximum extra per-chunk jitter (uniform in `[0, jitter_s]`).
    pub jitter_s: f64,
    /// Link throughput in bytes per virtual second.
    pub bytes_per_s: f64,
    /// Maximum bytes per write: records are split into partial writes of
    /// 1..=`chunk_bytes` random bytes each.
    pub chunk_bytes: usize,
    /// Probability that two adjacent chunks of a record swap in flight
    /// (delivering bytes out of order; the decoder sees a corrupted span
    /// and resynchronises).
    pub reorder_rate: f64,
    /// Per-record probability the connection drops mid-send.
    pub disconnect_rate: f64,
    /// How long a dropped connection stays down before the camera
    /// reconnects and resumes from its cursor.
    pub reconnect_delay_s: f64,
}

impl LinkParams {
    /// A well-behaved wired camera: 2 ms latency, no jitter, no faults.
    pub fn clean() -> Self {
        Self {
            base_latency_s: 0.002,
            jitter_s: 0.0,
            bytes_per_s: 1_000_000.0,
            chunk_bytes: 512,
            reorder_rate: 0.0,
            disconnect_rate: 0.0,
            reconnect_delay_s: 0.05,
        }
    }

    /// Checks every parameter's range.
    ///
    /// # Errors
    ///
    /// The first unusable parameter, as `(field, rule)`: the field's name
    /// and the rule its value broke.
    pub fn validate(&self) -> Result<(), (&'static str, &'static str)> {
        if !(self.base_latency_s >= 0.0 && self.base_latency_s.is_finite()) {
            return Err((
                "base_latency_s",
                "link latency must be finite and non-negative",
            ));
        }
        if !(self.jitter_s >= 0.0 && self.jitter_s.is_finite()) {
            return Err(("jitter_s", "link jitter must be finite and non-negative"));
        }
        if !(self.bytes_per_s > 0.0 && self.bytes_per_s.is_finite()) {
            return Err(("bytes_per_s", "link throughput must be finite and positive"));
        }
        if self.chunk_bytes < 1 {
            return Err(("chunk_bytes", "chunks must hold at least one byte"));
        }
        if !(0.0..=1.0).contains(&self.reorder_rate) {
            return Err(("reorder_rate", "reorder rate must be a probability"));
        }
        if !(0.0..1.0).contains(&self.disconnect_rate) {
            return Err((
                "disconnect_rate",
                "disconnect rate must be a probability below 1",
            ));
        }
        if !(self.reconnect_delay_s > 0.0 && self.reconnect_delay_s.is_finite()) {
            return Err((
                "reconnect_delay_s",
                "reconnect delay must be finite and positive",
            ));
        }
        Ok(())
    }
}

/// One byte chunk as the receiver sees it: when it arrives, and which
/// span of the sent record's bytes it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkDelivery {
    /// Arrival time at the door.
    pub at_s: f64,
    /// Offsets of the chunk's bytes within the record (possibly out of
    /// original order relative to neighbours).
    pub bytes: Range<usize>,
}

/// Outcome of sending one record; its chunks are in
/// [`SimLink::deliveries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendOutcome {
    /// Every chunk arrives; deliveries are in arrival-time order.
    Sent,
    /// The connection dropped mid-record: only the deliveries arrived,
    /// the rest was lost in flight, and the camera may reconnect at
    /// `reconnect_at_s`.
    Dropped {
        /// When the drop is observed at the door.
        dropped_at_s: f64,
        /// When the camera is back up and resumes from its cursor.
        reconnect_at_s: f64,
    },
}

/// Deterministic per-connection link state. Each connection owns one,
/// seeded from `(workload seed, client id)` so client schedules are
/// independent of each other and of the order clients run in.
#[derive(Debug, Clone)]
pub struct SimLink {
    params: LinkParams,
    rng: ChaCha8Rng,
    /// Time the channel frees up: in-order byte delivery cursor.
    channel_free_s: f64,
    /// The last send's chunk deliveries, reused from send to send.
    schedule: Vec<ChunkDelivery>,
    /// Total connection drops so far.
    pub disconnects: usize,
    /// Total bytes scheduled for delivery.
    pub bytes_sent: u64,
}

impl SimLink {
    /// A fresh link; `seed` should mix the workload seed with the client
    /// id (see [`mix_seed`]).
    ///
    /// # Panics
    ///
    /// Panics with the broken rule if `params` is unusable (see
    /// [`LinkParams::validate`]).
    pub fn new(params: LinkParams, seed: u64) -> Self {
        if let Err((_, rule)) = params.validate() {
            panic!("{rule}");
        }
        Self {
            params,
            rng: ChaCha8Rng::seed_from_u64(seed),
            channel_free_s: 0.0,
            schedule: Vec::new(),
            disconnects: 0,
            bytes_sent: 0,
        }
    }

    /// Schedules one `len`-byte record onto the wire starting no earlier
    /// than `now_s`: the chunk deliveries land in
    /// [`deliveries`](SimLink::deliveries) as spans of the record, and the
    /// outcome says whether the connection dropped mid-record.
    pub fn send_record(&mut self, now_s: f64, len: usize) -> SendOutcome {
        let p = self.params;
        let schedule = &mut self.schedule;
        schedule.clear();
        // Partial writes: split into random chunks of 1..=chunk_bytes.
        let mut at = 0;
        while at < len {
            let take = self.rng.gen_range(1..=p.chunk_bytes.min(len - at));
            schedule.push(ChunkDelivery {
                at_s: 0.0,
                bytes: at..at + take,
            });
            at += take;
        }
        // In-flight reordering: adjacent chunk *contents* swap while the
        // arrival instants stay ordered — i.e. the bytes arrive out of
        // order. A swapped span fails the record checksum downstream.
        let mut k = 0;
        while k + 1 < schedule.len() {
            if self.rng.gen_bool(p.reorder_rate) {
                schedule.swap(k, k + 1);
                k += 2; // a chunk swaps at most once
            } else {
                k += 1;
            }
        }
        // Delivery schedule: serialised on the channel, each chunk paying
        // transmission time plus jitter.
        self.channel_free_s = self.channel_free_s.max(now_s + p.base_latency_s);
        for chunk in schedule.iter_mut() {
            let jitter = if p.jitter_s > 0.0 {
                self.rng.gen::<f64>() * p.jitter_s
            } else {
                0.0
            };
            let n = chunk.bytes.len();
            chunk.at_s = self.channel_free_s + n as f64 / p.bytes_per_s + jitter;
            self.channel_free_s = chunk.at_s;
            self.bytes_sent += n as u64;
        }
        // Mid-record disconnect: the tail chunks vanish in flight.
        if self.rng.gen_bool(p.disconnect_rate) {
            let keep = self.rng.gen_range(0..schedule.len().max(1));
            let dropped_at_s = keep
                .checked_sub(1)
                .and_then(|i| schedule.get(i))
                .map_or(now_s + p.base_latency_s, |c| c.at_s);
            schedule.truncate(keep);
            self.disconnects += 1;
            let reconnect_at_s = dropped_at_s + p.reconnect_delay_s;
            // A reconnect re-opens the channel from scratch.
            self.channel_free_s = reconnect_at_s;
            return SendOutcome::Dropped {
                dropped_at_s,
                reconnect_at_s,
            };
        }
        SendOutcome::Sent
    }

    /// The chunks of the last [`send_record`](SimLink::send_record) that
    /// arrive, in arrival-time order (after a drop, only those that made
    /// it out before it).
    pub fn deliveries(&self) -> &[ChunkDelivery] {
        &self.schedule
    }
}

/// Mixes the workload seed with a client id so every connection draws an
/// independent deterministic stream (SplitMix64 finaliser).
pub fn mix_seed(seed: u64, client: usize) -> u64 {
    let mut z = seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_record, synth_payload, Decoder, FrameRecord};

    fn wire(stream: u32, frame: u32) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(
            &FrameRecord {
                stream_id: stream,
                frame_index: frame,
                capture_bits: 0,
                payload: synth_payload(stream, frame),
            },
            &mut out,
        );
        out
    }

    #[test]
    fn clean_link_delivers_in_order_and_decodes() {
        let mut link = SimLink::new(LinkParams::clean(), mix_seed(7, 0));
        let bytes = wire(0, 0);
        let SendOutcome::Sent = link.send_record(0.0, bytes.len()) else {
            panic!("clean link never drops");
        };
        let chunks = link.deliveries();
        assert!(chunks.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        let mut dec = Decoder::new();
        for c in chunks {
            dec.push(&bytes[c.bytes.clone()]);
        }
        assert!(dec.next_record().is_some());
        assert_eq!(dec.records_corrupted, 0);
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let run = |seed| {
            let mut link = SimLink::new(
                LinkParams {
                    jitter_s: 0.004,
                    reorder_rate: 0.2,
                    disconnect_rate: 0.1,
                    chunk_bytes: 32,
                    ..LinkParams::clean()
                },
                seed,
            );
            (0..20)
                .map(|i| {
                    let outcome = link.send_record(i as f64 * 0.03, wire(1, i).len());
                    (outcome, link.deliveries().to_vec())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn reordering_corrupts_some_records_deterministically() {
        let mut link = SimLink::new(
            LinkParams {
                reorder_rate: 0.2,
                chunk_bytes: 48,
                ..LinkParams::clean()
            },
            mix_seed(2019, 3),
        );
        let mut dec = Decoder::new();
        let n = 50;
        for i in 0..n {
            let bytes = wire(3, i);
            if let SendOutcome::Sent = link.send_record(i as f64 * 0.02, bytes.len()) {
                for c in link.deliveries() {
                    dec.push(&bytes[c.bytes.clone()]);
                }
            }
        }
        dec.finish();
        let mut decoded = 0;
        while dec.next_record().is_some() {
            decoded += 1;
        }
        assert!(decoded < n as usize, "heavy reordering must corrupt some");
        assert!(decoded > 0, "resync must recover the clean ones");
        assert!(dec.records_corrupted > 0);
    }

    #[test]
    fn disconnects_truncate_and_set_a_reconnect_time() {
        let mut link = SimLink::new(
            LinkParams {
                disconnect_rate: 0.999,
                ..LinkParams::clean()
            },
            1,
        );
        let bytes = wire(0, 0);
        match link.send_record(1.0, bytes.len()) {
            SendOutcome::Dropped {
                dropped_at_s,
                reconnect_at_s,
            } => {
                let total: usize = link.deliveries().iter().map(|c| c.bytes.len()).sum();
                assert!(total < bytes.len(), "the tail must be lost");
                assert!(reconnect_at_s > dropped_at_s);
                assert_eq!(link.disconnects, 1);
            }
            SendOutcome::Sent => panic!("p=0.999 drop did not fire"),
        }
    }
}
