//! The benchmark's own checks on tiny instances of each workload shape:
//! the tracer is transparent, and every metric is named as
//! `BENCHMARK.json` names it.

use catdet_perfbench::bench::{run, RunSpec};
use catdet_perfbench::measure::{plain_specs, serve_once, traced_once};
use catdet_perfbench::workload::{Kind, Workload};

fn tiny_spec(kind: Kind, trace: bool) -> RunSpec {
    RunSpec {
        kind,
        shape: kind.tiny(),
        seed: 11,
        seconds: 0.01,
        trace,
        min_latency_samples: 1,
    }
}

#[test]
fn wrapped_and_unwrapped_reports_are_identical() {
    for kind in Kind::ALL {
        let w = Workload::generate(kind, kind.tiny(), 11);
        let reference = serve_once(&w, plain_specs(&w.specs)).report;
        traced_once(&w, &reference).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        match kind {
            Kind::Crowd => assert!(!reference.fused_refinements.is_empty()),
            Kind::City => assert!(!reference.migrations.is_empty()),
            Kind::Edge => {
                assert!(reference.frames_coasted() > 0);
                assert!(!reference.migrations.is_empty());
                assert!(reference
                    .ingest
                    .as_ref()
                    .is_some_and(|i| i.disconnects() > 0));
            }
        }
    }
}

#[test]
fn recorded_runs_keep_their_store() {
    let w = Workload::generate(Kind::Edge, Kind::Edge.tiny(), 11);
    let run = serve_once(&w, plain_specs(&w.specs));
    let store = run.store.expect("edge records");
    assert!(store.events > 0 && store.snapshots > 0);
}

fn well_formed(s: &str, extra: &[char]) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(&c))
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let mut total = 0;
    for trace in [false, true] {
        let outcome = run(&tiny_spec(Kind::Edge, trace)).expect("tiny edge run");
        assert_eq!(outcome.failed, 0);
        for (i, m) in outcome.metrics.iter().enumerate() {
            assert!(well_formed(m.name, &['_', '.', '-']), "{}", m.name);
            assert!(
                well_formed(m.unit, &['_', '/', '%', '.', '-']),
                "{}",
                m.unit
            );
            assert!(m.value.is_finite(), "{}", m.name);
            assert!(outcome.metrics[..i].iter().all(|o| o.name != m.name));
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        total += outcome.metrics.len();
    }
    assert_eq!(json.matches("\"unit\":").count(), total);
}
