//! `olympctl`'s argument handling, driven through the binary: bad flag
//! values are reported as errors, never as panics.

use std::process::{Command, Output};

fn olympctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_olympctl"))
        .args(args)
        .output()
        .expect("spawn olympctl")
}

/// Asserts a clean `error: …` exit: code 1, the message on stderr, and no
/// panic.
fn assert_rejected(args: &[&str], message: &str) {
    let out = olympctl(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("error: {message}")),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn run_rejects_zero_valued_flags() {
    for flag in ["--gpus", "--quantum-us", "--batches"] {
        let run = "run --model alexnet --batch 10 --clients 2 --policy fair";
        let args: Vec<&str> = run.split(' ').chain([flag, "0"]).collect();
        assert_rejected(&args, &format!("{flag}: must be positive"));
    }
}

#[test]
fn curve_rejects_a_tolerance_that_is_not_non_negative() {
    for value in ["-1", "nan"] {
        assert_rejected(
            &["curve", "--model", "alexnet", "--batch", "10", "--tolerance", value],
            "--tolerance: must be a non-negative number",
        );
    }
}

#[test]
fn control_rejects_an_unknown_policy() {
    assert_rejected(
        &["control", "drifted", "--policy", "fifo"],
        "--policy: expected edf|laxity, got \"fifo\"",
    );
}

#[test]
fn bench_is_not_a_command() {
    let out = olympctl(&["bench"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
}
