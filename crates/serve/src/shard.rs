//! The partition layer of the sharded fleet: stream → shard placement
//! policies and the live-migration event record.
//!
//! CaTDet's heavy per-stream state (tracker, detector noise, frame
//! scratch) is fully owned by each stream's pipeline, so a **stream is the
//! unit of sharding**: any stream can live on any shard, and moving one
//! between shards at a stage-boundary suspend point moves all of its
//! state. A [`PartitionPolicy`] decides initial placement;
//! [`serve_fleet`](crate::serve_fleet)'s rebalancer may later override it
//! with live migrations, each stamped as a [`MigrationEvent`].

use crate::config::PartitionKind;

/// Assigns streams to shards at fleet construction.
///
/// Policies are deterministic functions of the stream identity/size and
/// their own accumulated state (never of wall-clock or randomness), so a
/// fleet layout is reproducible run to run.
pub trait PartitionPolicy: Send {
    /// Stable policy name (reports, CLI).
    fn name(&self) -> &'static str;

    /// Chooses the shard (in `0..shards`) for a stream, given its
    /// fleet-wide id and total frame count.
    fn place(&mut self, stream_id: usize, frames: usize, shards: usize) -> usize;
}

/// SplitMix64 finalizer: the well-mixed stateless hash behind the hash
/// partitions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Stateless `hash(stream_id) mod shards` placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticHash;

impl PartitionPolicy for StaticHash {
    fn name(&self) -> &'static str {
        "static-hash"
    }

    fn place(&mut self, stream_id: usize, _frames: usize, shards: usize) -> usize {
        (mix(stream_id as u64) % shards as u64) as usize
    }
}

/// Greedy least-loaded placement: each stream lands on the shard with the
/// fewest total frames assigned so far (ties break to the lowest shard
/// id). Balances heterogeneous stream lengths that a hash would spread
/// unevenly.
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded {
    frames_per_shard: Vec<u64>,
}

impl PartitionPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn place(&mut self, _stream_id: usize, frames: usize, shards: usize) -> usize {
        self.frames_per_shard
            .resize(shards.max(self.frames_per_shard.len()), 0);
        let shard = (0..shards)
            .min_by_key(|&k| (self.frames_per_shard[k], k))
            .expect("at least one shard");
        self.frames_per_shard[shard] += frames as u64;
        shard
    }
}

/// Points per shard on the consistent-hash ring. More virtual nodes give
/// a smoother split at the cost of a larger ring.
const VIRTUAL_NODES: usize = 64;

/// Consistent-hash ring with `VIRTUAL_NODES` points per shard: a stream
/// maps to the first ring point clockwise of its hash. Adding or removing
/// a shard relocates only ~1/N of the streams — the property that makes
/// this the policy of choice for a fleet whose shard count changes while
/// stream identities persist.
#[derive(Debug, Clone, Default)]
pub struct ConsistentHashRing {
    /// `(point, shard)` sorted by point; rebuilt when `shards` changes.
    ring: Vec<(u64, usize)>,
    shards: usize,
}

impl ConsistentHashRing {
    fn rebuild(&mut self, shards: usize) {
        self.shards = shards;
        self.ring.clear();
        for shard in 0..shards {
            for vnode in 0..VIRTUAL_NODES {
                self.ring
                    .push((mix((shard as u64) << 32 | vnode as u64), shard));
            }
        }
        self.ring.sort_unstable();
    }
}

impl PartitionPolicy for ConsistentHashRing {
    fn name(&self) -> &'static str {
        "consistent-hash"
    }

    fn place(&mut self, stream_id: usize, _frames: usize, shards: usize) -> usize {
        if self.shards != shards || self.ring.is_empty() {
            self.rebuild(shards);
        }
        // Salted differently from the vnode hashes so a stream id never
        // collides with a ring point by construction.
        let h = mix(mix(stream_id as u64) ^ 0xC0A5_1575_u64);
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[i % self.ring.len()].1
    }
}

/// Instantiates the configured partition policy.
pub fn build_partition(kind: PartitionKind) -> Box<dyn PartitionPolicy> {
    match kind {
        PartitionKind::StaticHash => Box::new(StaticHash),
        PartitionKind::LeastLoaded => Box::new(LeastLoaded::default()),
        PartitionKind::ConsistentHash => Box::new(ConsistentHashRing::default()),
    }
}

/// Which load signal the live rebalancer compares across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceSignal {
    /// Queued backlog right now — the reactive signal (the default): a
    /// shard must already be behind before any stream moves.
    Backlog,
    /// Queued backlog plus each stream's forecast arrivals over the
    /// forecast horizon — the predictive signal: a shard whose streams
    /// are *about* to burst reads hot before its queues show it, and the
    /// migration cost is priced against the predicted (not merely
    /// current) gain.
    Predicted,
}

impl RebalanceSignal {
    /// Every signal, in CLI listing order.
    pub const ALL: [Self; 2] = [RebalanceSignal::Backlog, RebalanceSignal::Predicted];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            RebalanceSignal::Backlog => "backlog",
            RebalanceSignal::Predicted => "predicted",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One live stream migration, stamped in fleet virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationEvent {
    /// Rebalance tick at which the stream moved.
    pub t_s: f64,
    /// Fleet-wide stream id.
    pub stream: usize,
    /// Shard the stream left.
    pub from_shard: usize,
    /// Shard the stream joined.
    pub to_shard: usize,
    /// Queued frames relocated with the stream.
    pub backlog_moved: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_hash_is_deterministic_and_in_range() {
        let mut p = StaticHash;
        for id in 0..100 {
            let a = p.place(id, 10, 7);
            assert!(a < 7);
            assert_eq!(a, StaticHash.place(id, 99, 7), "frames must not matter");
        }
        // Spread: 100 ids over 7 shards must touch every shard.
        let mut seen = [false; 7];
        for id in 0..100 {
            seen[p.place(id, 1, 7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn least_loaded_balances_heterogeneous_streams() {
        let mut p = LeastLoaded::default();
        // One long stream then many short ones: the long one must not
        // attract more work.
        let mut load = [0u64; 3];
        load[p.place(0, 1000, 3)] += 1000;
        for id in 1..13 {
            load[p.place(id, 100, 3)] += 100;
        }
        let (min, max) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        assert!(
            max - min <= 500,
            "least-loaded left the fleet skewed: {load:?}"
        );
    }

    #[test]
    fn consistent_hash_moves_few_streams_when_a_shard_is_added() {
        let mut before = ConsistentHashRing::default();
        let mut after = ConsistentHashRing::default();
        let ids: Vec<usize> = (0..400).collect();
        let moved = ids
            .iter()
            .filter(|&&id| before.place(id, 1, 8) != after.place(id, 1, 9))
            .count();
        // Ideal is 1/9 ≈ 44; allow generous slack but far below the ~355
        // a modulo hash would relocate.
        assert!(
            moved < 150,
            "consistent hashing relocated {moved}/400 streams"
        );
        // And placements are deterministic.
        let mut again = ConsistentHashRing::default();
        for &id in &ids {
            assert_eq!(before.place(id, 1, 8), again.place(id, 1, 8));
        }
    }

    #[test]
    fn build_partition_selects_the_kind() {
        assert_eq!(
            build_partition(PartitionKind::StaticHash).name(),
            "static-hash"
        );
        assert_eq!(
            build_partition(PartitionKind::LeastLoaded).name(),
            "least-loaded"
        );
        assert_eq!(
            build_partition(PartitionKind::ConsistentHash).name(),
            "consistent-hash"
        );
    }

    #[test]
    fn partition_names_round_trip() {
        for k in [
            PartitionKind::StaticHash,
            PartitionKind::LeastLoaded,
            PartitionKind::ConsistentHash,
        ] {
            assert_eq!(PartitionKind::from_name(k.name()), Some(k));
        }
        assert_eq!(PartitionKind::from_name("nope"), None);
    }

    #[test]
    fn rebalance_signal_names_round_trip() {
        for s in [RebalanceSignal::Backlog, RebalanceSignal::Predicted] {
            assert_eq!(RebalanceSignal::from_name(s.name()), Some(s));
        }
        assert_eq!(RebalanceSignal::from_name("nope"), None);
    }
}
