//! The `catdet-serve` binary's exit codes: `--help` exits 0 with the
//! usage text, and an invalid invocation exits 2 with an error naming
//! the flag at fault, instead of aborting on a huge allocation or
//! spinning on a tiny tick interval.

use std::process::{Command, Output, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Runs the binary with `args` to completion, failing the test if it is
/// still running after 10 s.
fn run(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_catdet-serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("catdet-serve starts");
    let start = Instant::now();
    while child
        .try_wait()
        .expect("catdet-serve can be polled")
        .is_none()
    {
        if start.elapsed() > Duration::from_secs(10) {
            child.kill().expect("a running catdet-serve can be killed");
            child.wait().expect("a killed catdet-serve can be reaped");
            panic!("catdet-serve {args:?} still running after 10 s");
        }
        sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("catdet-serve output")
}

/// Asserts that `args` exits 2 with `flag` named on stderr.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(flag),
        "{args:?} does not name {flag}: {stderr}"
    );
}

#[test]
fn help_exits_zero_with_the_usage_text() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("catdet-serve — concurrent multi-camera CaTDet serving"));
    assert!(stdout.contains("SUBCOMMANDS:"), "{stdout}");
}

#[test]
fn one_bad_value_per_group_exits_2_naming_its_flag() {
    for (args, flag) in [
        (&["--system", "bogus"][..], "--system"),
        (&["--queue", "0"], "--queue"),
        (&["--window-ms", "nan"], "--window-ms"),
        (
            &[
                "--policy",
                "confidence-trigger",
                "--policy-confidence",
                "-1",
            ],
            "--policy-confidence",
        ),
        (
            &["--autoscale", "hysteresis", "--max-workers", "0"],
            "--max-workers",
        ),
        (
            &["--autoscale", "predictive", "--forecast-buckets", "1"],
            "--forecast-buckets",
        ),
        (
            &["--admission", "token-bucket", "--admit-burst", "0.5"],
            "--admit-burst",
        ),
        (&["--shards", "0"], "--shards"),
        (
            &["--ingest", "net", "--reorder-rate", "1.5"],
            "--reorder-rate",
        ),
        (
            &["--record", "run.cdr", "--record-chunk-events", "0"],
            "--record-chunk-events",
        ),
        (&["--door-rate", "30"], "--door-rate"),
    ] {
        assert_rejected(args, flag);
    }
}

#[test]
fn recorder_knobs_without_a_recording_exit_2() {
    // The recorder stays off without --record, so its knobs would do
    // nothing: an error, not a run that silently measures something else.
    assert_rejected(&["--record-snapshot-every", "8"], "--record-snapshot-every");
}

#[test]
fn huge_workload_sizes_exit_2_instead_of_aborting() {
    assert_rejected(&["--streams", "100000000000", "--frames", "2"], "--streams");
    assert_rejected(&["--streams", "2", "--frames", "100000000000"], "--frames");
    assert_rejected(
        &[
            "--ingest",
            "net",
            "--clients",
            "100000000000",
            "--frames",
            "2",
        ],
        "--clients",
    );
}

#[test]
fn tiny_tick_intervals_exit_2_instead_of_hanging() {
    let run_with = |extra: &[&'static str]| {
        let mut args = vec!["--streams", "2", "--frames", "4"];
        args.extend(extra);
        args
    };
    assert_rejected(
        &run_with(&["--autoscale", "hysteresis", "--interval-ms", "1e-300"]),
        "--interval-ms",
    );
    assert_rejected(
        &run_with(&["--shards", "2", "--rebalance-interval-ms", "1e-300"]),
        "--rebalance-interval-ms",
    );
}
