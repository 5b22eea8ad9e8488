//! The traced layer table adds up: stage wall + serve self + ingest +
//! recorder equals the traced wall, and lies within the reported tracing
//! overhead of the untraced wall.
//!
//! Wall-clock test: it runs alone in its own test binary.

use catdet_perfbench::bench::{run, RunSpec};
use catdet_perfbench::workload::Kind;

/// How far below zero serve self time may read: ingest and recorder are
/// timed in separate calls, so on millisecond-scale tiny workloads their
/// medians carry some noise.
const SLACK: f64 = 0.1;

#[test]
fn traced_layer_table_adds_up_to_the_untraced_wall() {
    for kind in Kind::ALL {
        let spec = RunSpec {
            kind,
            shape: kind.tiny(),
            seed: 5,
            seconds: 0.5,
            trace: true,
            min_latency_samples: 1,
        };
        let outcome = run(&spec).expect("tiny traced run");
        let t = outcome.table.expect("traced runs report a layer table");
        assert!((t.sum() - t.traced_wall).abs() <= 1e-9 * t.traced_wall);
        assert!(t.stage > 0.0 && t.stage <= t.traced_wall, "{t:?}");
        assert!(t.serve_self >= -SLACK * t.traced_wall, "{t:?}");
        let overhead = outcome.get("trace.overhead_pct").expect("overhead").abs() / 100.0;
        let gap = (t.sum() - t.untraced_wall).abs() / t.untraced_wall;
        assert!(
            gap <= overhead + 1e-9,
            "{}: table {:.0} ns/frame vs untraced {:.0} (overhead {:.1}%)",
            kind.name(),
            t.sum(),
            t.untraced_wall,
            overhead * 100.0
        );
    }
}
