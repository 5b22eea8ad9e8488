//! Network front door for the CaTDet serving stack.
//!
//! Upstream of the partition layer, cameras are not in-memory frame
//! vectors — they are connections. This crate models that boundary
//! without any real sockets, and without giving up the repo's
//! determinism contract:
//!
//! * [`codec`] — the CamLink wire format: magic-prefixed,
//!   length-delimited, checksummed frame records, plus an incremental
//!   [`Decoder`] that survives partial writes, garbage
//!   prefixes and corrupted spans by resynchronising on the next magic.
//! * [`sim`] — the simulated uplink: per-connection byte-chunk delivery
//!   schedules with latency, jitter, partial writes, in-flight
//!   reordering and mid-record disconnects, all drawn from a
//!   per-connection seeded RNG.
//! * [`door`] — per-client token-bucket admission at the door, so one
//!   abusive camera cannot crowd out the rest.
//! * [`ingest`] — the whole pass: each connection (connect, stream,
//!   disconnect, resume from cursor) simulated to completion as a plain
//!   loop on its own virtual clock, yielding delivered per-stream
//!   timelines, a connection event log and per-client accounting for the
//!   serving layer.
//!
//! The ingest pass runs *before* the serving engines as a deterministic
//! pre-pass, so its output — and therefore everything downstream — is
//! bit-identical at every `--threads` count. Clients share no state, so
//! a caller may split the pass into contiguous runs of clients on
//! different threads and merge them with [`IngestOutcome::append`]; and
//! a connection reuses its encode, schedule and decode buffers, so a
//! frame costs no allocation on the wire.

#![warn(missing_docs)]

pub mod codec;
pub mod door;
pub mod ingest;
pub mod sim;
mod source;

pub use codec::{encode_record, synth_payload, Decoder, FrameRecord, MAGIC};
pub use door::DoorPolicy;
pub use ingest::{
    run_ingest, ClientReport, ConnEvent, ConnEventKind, IngestOutcome, IngestReport, NetParams,
};
pub use sim::{mix_seed, ChunkDelivery, LinkParams, SendOutcome, SimLink};
