//! The `catdet-serve` binary's exit codes: `--help` exits 0 with the
//! usage text, an invalid invocation exits 2 with an error naming
//! the flag at fault, instead of aborting on a huge allocation or
//! spinning on a tiny tick interval, `query` on a corrupted
//! recording exits 2 naming the file, instead of panicking, and a
//! reader that closes stdout early ends the printing, not the run.

use std::io::Read;
use std::process::{Child, Command, Output, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Starts the binary with `args`, its stdout and stderr piped.
fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_catdet-serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("catdet-serve starts")
}

/// Runs the binary with `args` to completion, failing the test if it is
/// still running after 10 s.
fn run(args: &[&str]) -> Output {
    wait(spawn(args), args)
}

/// Waits for `child`, started with `args`, failing the test if it is
/// still running after 10 s.
fn wait(mut child: Child, args: &[&str]) -> Output {
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
        (&["query", "run.cdr", "--from", "nan"], "--from"),
        (&["query", "run.cdr", "--to", "NaN"], "--to"),
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

/// The end of the varint that starts at `at`.
fn varint_end(bytes: &[u8], mut at: usize) -> usize {
    while bytes[at] & 0x80 != 0 {
        at += 1;
    }
    at + 1
}

/// `bytes` with the varint at `span` replaced by `v`.
fn rewrite_varint(bytes: &[u8], span: std::ops::Range<usize>, mut v: u64) -> Vec<u8> {
    let mut out = bytes[..span.start].to_vec();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out.extend_from_slice(&bytes[span.end..]);
    out
}

#[test]
fn query_on_a_corrupted_recording_exits_2_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("catdet-cli-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temporary directory");
    let saved = dir.join("run.cdr");
    let out = run(&[
        "--streams",
        "2",
        "--frames",
        "12",
        "--record",
        saved.to_str().expect("a UTF-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let bytes = std::fs::read(&saved).expect("the recording");
    // The first chunk's header: magic and version, two file-level
    // varints, the kind byte, then shard, stream+1, capacity and rows.
    let mut at = varint_end(&bytes, varint_end(&bytes, 5));
    let kind = bytes[at];
    at += 1;
    let shard_end = varint_end(&bytes, at);
    let stream = shard_end..varint_end(&bytes, shard_end);
    let rows_start = varint_end(&bytes, stream.end);
    let rows = rows_start..varint_end(&bytes, rows_start);
    assert_ne!(kind, 3, "the first chunk is a per-stream one, not `scale`");
    let row_count = bytes[rows.clone()]
        .iter()
        .rev()
        .fold(0u64, |v, b| v << 7 | (b & 0x7f) as u64);
    let saved = saved.to_str().expect("a UTF-8 path");
    assert_eq!(run(&["query", saved]).status.code(), Some(0));
    for (name, patched) in [
        (
            "more-rows",
            rewrite_varint(&bytes, rows.clone(), row_count + 90),
        ),
        ("huge-rows", rewrite_varint(&bytes, rows.clone(), 1 << 62)),
        ("no-stream", rewrite_varint(&bytes, stream.clone(), 0)),
    ] {
        let corrupt = dir.join(format!("{name}.cdr"));
        std::fs::write(&corrupt, patched).expect("the corrupted copy");
        let corrupt = corrupt.to_str().expect("a UTF-8 path");
        let out = run(&["query", corrupt]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("could not read {corrupt}")),
            "{name} does not name the file: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the binary with `args`, reads the first line it prints and then
/// closes its stdout, as `| head -1` does.
fn run_reading_one_line(args: &[&str]) -> Output {
    let mut child = spawn(args);
    let mut stdout = child.stdout.take().expect("a piped stdout");
    // A byte at a time, so the binary's later lines stay in the pipe.
    let mut byte = [0u8];
    while byte != *b"\n" {
        stdout.read_exact(&mut byte).expect("a first line");
    }
    // Closed: the binary's next write to it fails.
    drop(stdout);
    wait(child, args)
}

#[test]
fn a_closed_stdout_ends_the_printing_not_the_run() {
    let dir = std::env::temp_dir().join(format!("catdet-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temporary directory");
    let saved = dir.join("bp.cdr");
    let saved = saved.to_str().expect("a UTF-8 path");
    // After its first line each prints more than a pipe holds (64 KiB),
    // so a write fails once the pipe is closed: the run about 95 KB, a
    // line per stream, and the query about 350 KB, a line per event.
    for args in [
        &["--streams", "1000", "--frames", "1", "--record", saved][..],
        &["query", saved, "--limit", "100000"],
    ] {
        let out = run_reading_one_line(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // The run saved its recording, a detection per frame, although
    // nobody read its report.
    let out = run(&["query", saved, "--kind", "detection"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\n1000 events match\n"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
