//! End-to-end smoke of the harness binary: all four workloads and a
//! traced run at one hundredth of the record counts, one rep each.
//! Checks the contract's output shape and the correctness gate, not the
//! numbers — nothing measured below `--scale 1` is comparable.

use std::process::Command;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = [
    "engine-dense",
    "stack-tweets",
    "serve-ingest",
    "serve-query",
];

fn perf(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sssj-perf"))
        .args(args)
        .output()
        .expect("spawn sssj-perf");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn assert_result_line(stdout: &str, must_name: &[&str]) {
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with('{') && last.ends_with('}'), "{stdout}");
    for key in [
        "\"correct\":true",
        "\"failed\":0",
        "\"attempted\":",
        "\"metrics\":{",
    ] {
        assert!(last.contains(key), "missing {key} in {last}");
    }
    for name in must_name {
        assert!(
            last.contains(&format!("\"{name}\":{{")),
            "missing {name} in {last}"
        );
    }
}

#[test]
fn every_workload_and_a_trace_run_small_and_pass_the_gate() {
    let started = Instant::now();
    for w in WORKLOADS {
        let (ok, stdout) = perf(&[
            "--workload",
            w,
            "--seed",
            "7",
            "--scale",
            "0.01",
            "--reps",
            "1",
            "--trace",
            "0",
        ]);
        assert!(ok, "{w} failed:\n{stdout}");
        // Percentiles need a thousand samples and may be absent at this
        // scale; everything else is always reported.
        assert_result_line(
            &stdout,
            &[
                "setup_s",
                "ingest_rps",
                "query_qps",
                "recover_s",
                "disk_bytes_per_record",
                "peak_rss_mb",
            ],
        );
        assert!(stdout.contains("fail_pct"), "{stdout}");
    }
    let (ok, stdout) = perf(&[
        "trace",
        "--workload",
        "stack-tweets",
        "--scale",
        "0.01",
        "--reps",
        "1",
    ]);
    assert!(ok, "trace failed:\n{stdout}");
    assert_result_line(
        &stdout,
        &[
            "core.us_per_record",
            "segments.us_per_record",
            "net.wire_us_per_record",
            "kernels.dot_merge_ns",
        ],
    );
    let trace_file = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("chrome trace: "))
        .expect("trace file line");
    let trace = std::fs::read_to_string(trace_file).unwrap();
    assert!(trace.starts_with("{\"traceEvents\":[") && trace.contains("\"name\":\"net.wire\""));
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "smoke took {:?}",
        started.elapsed()
    );
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no-such"][..],
        &["--seed", "1"],
        &["frobnicate"],
    ] {
        let (ok, stdout) = perf(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(!stdout.contains("\"correct\""), "{stdout}");
    }
}
