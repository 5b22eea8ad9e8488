//! Sharded serving fleet: partition a camera fleet across independent
//! scheduler shards, rebalance live under skewed load, and keep
//! cross-stream refinement fusion working across shard boundaries.
//!
//! ```text
//! cargo run --release --example sharded_fleet
//! ```

use catdet::serve::{
    bursty_workload, mixed_workload, serve_fleet, BurstProfile, PartitionKind, ServeConfig,
    ShardConfig, SystemKind,
};

fn main() {
    // A fleet of 16 cameras, each with its own CaTDet-A pipeline. Streams
    // are the unit of sharding: all heavy state (tracker, detector noise,
    // frame scratch) is per-stream, so any stream can live on any shard.
    let streams = 16;
    let frames = 30;

    // 1. Scaling out: the same workload on 1, 2 and 4 shards. Each shard
    //    brings its own workers, so the fleet's service capacity
    //    scales with the shard count.
    println!("== scale-out: 2 workers per shard, 1 -> 4 shards ==\n");
    for shards in [1, 2, 4] {
        let cfg = ServeConfig::new()
            .with_workers(2)
            .with_max_batch(4)
            .with_queue_capacity(10_000)
            .with_shard(ShardConfig::sharded(shards));
        let report = serve_fleet(
            mixed_workload(streams, frames, 42, SystemKind::CatdetA),
            &cfg,
        );
        let latency = report.merged_latency().expect("frames served");
        println!(
            "{shards} shard(s): {:6.2} frames/s | merged p99 {:6.1} ms | makespan {:5.2} s",
            report.throughput_fps(),
            latency.p99_s * 1e3,
            report.makespan_s(),
        );
    }

    // 2. Live rebalancing: a bursty fleet partitioned by static hash ends
    //    up with hot and cool shards. The rebalancer migrates a stream at
    //    a stage-boundary suspend point whenever the backlog imbalance
    //    exceeds the migration cost — tracker state travels with it, and
    //    no frame is ever lost or duplicated.
    println!("\n== live rebalancing: bursty fleet, 4 shards, 1 worker each ==\n");
    let burst = || {
        bursty_workload(
            streams,
            frames,
            42,
            SystemKind::CatdetA,
            BurstProfile::demo(),
        )
    };
    let base = ServeConfig::new()
        .with_workers(1)
        .with_max_batch(4)
        .with_queue_capacity(10_000);
    let frozen = serve_fleet(burst(), &base.with_shard(ShardConfig::sharded(4)));
    let rebalanced = serve_fleet(
        burst(),
        &base.with_shard(
            ShardConfig::sharded(4)
                .with_rebalance_interval_s(0.1)
                .with_migration_cost_frames(4),
        ),
    );
    println!(
        "frozen:     merged p99 {:7.1} ms | makespan {:5.2} s",
        frozen.merged_latency().expect("frames served").p99_s * 1e3,
        frozen.makespan_s(),
    );
    println!(
        "rebalanced: merged p99 {:7.1} ms | makespan {:5.2} s | {} migrations",
        rebalanced.merged_latency().expect("frames served").p99_s * 1e3,
        rebalanced.makespan_s(),
        rebalanced.migrations.len(),
    );
    print!("{}", rebalanced.migration_timeline());

    // 3. Cross-shard refinement fusion: with --fuse-refinement, frames
    //    suspended at their refinement boundary pool their priced work
    //    items. Fleet-wide pooling lets streams on different shards share
    //    one GPU dispatch, preserving the amortisation sharding would
    //    otherwise fracture.
    println!("\n== refinement fusion across 4 shards ==\n");
    let fused_base = ServeConfig::new()
        .with_workers(2)
        .with_max_batch(8)
        .with_queue_capacity(10_000)
        .with_fuse_refinement(true)
        .with_refine_batch_window_s(0.004);
    let unfused = serve_fleet(
        mixed_workload(streams, frames, 42, SystemKind::CatdetA),
        &fused_base
            .with_fuse_refinement(false)
            .with_shard(ShardConfig::sharded(4)),
    );
    let per_shard = serve_fleet(
        mixed_workload(streams, frames, 42, SystemKind::CatdetA),
        &fused_base.with_shard(ShardConfig::sharded(4).with_fuse_across_shards(false)),
    );
    let fleet_wide = serve_fleet(
        mixed_workload(streams, frames, 42, SystemKind::CatdetA),
        &fused_base.with_shard(ShardConfig::sharded(4).with_fuse_across_shards(true)),
    );
    println!(
        "no fusion:         mean refine batch {:4.2} | gpu dispatch {:6.3} s",
        unfused.merged_batch().mean_refine_batch(),
        unfused.gpu_dispatch_s(),
    );
    println!(
        "per-shard fusion:  mean refine batch {:4.2} | gpu dispatch {:6.3} s",
        per_shard.merged_batch().mean_refine_batch(),
        per_shard.gpu_dispatch_s(),
    );
    println!(
        "fleet-wide fusion: mean refine batch {:4.2} | gpu dispatch {:6.3} s | {} cross-shard dispatches",
        fleet_wide.merged_batch().mean_refine_batch(),
        fleet_wide.gpu_dispatch_s(),
        fleet_wide.fused_refinements.len(),
    );

    // 4. Partition policies at a glance.
    println!("\n== partition policies, 4 shards ==\n");
    for partition in [
        PartitionKind::StaticHash,
        PartitionKind::LeastLoaded,
        PartitionKind::ConsistentHash,
    ] {
        let report = serve_fleet(
            mixed_workload(streams, frames, 42, SystemKind::CatdetA),
            &ServeConfig::new()
                .with_workers(2)
                .with_queue_capacity(10_000)
                .with_shard(ShardConfig::sharded(4).with_partition(partition)),
        );
        let per_shard: Vec<usize> = report.shards.iter().map(|s| s.frames_processed).collect();
        println!(
            "{:>15}: frames per shard {:?} | makespan {:5.2} s",
            partition.name(),
            per_shard,
            report.makespan_s(),
        );
    }
}
