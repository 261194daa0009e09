//! `olympctl` driven through the binary: bad flags, flag values and names
//! are reported as errors, never as panics or silently ignored, and the
//! files the catalog runs write are pinned by digest.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn olympctl(args: &[&str]) -> Output {
    olympctl_in(Path::new("."), args)
}

fn olympctl_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_olympctl"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn olympctl")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh directory for one test's output files.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
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

/// `run` finishes both clients under every policy, on one device and on
/// two (one token scheduler per device), names the policy it ran and prints
/// its token switches. The fair single-device cell also prints its first
/// five events, one `[time] track name key=value…` line each.
#[test]
fn run_finishes_under_every_policy_on_one_and_two_gpus() {
    let run = "run --model alexnet --batch 10 --clients 2 --batches 1 --policy";
    for (policy, name) in [
        ("fair", "fair"),
        ("weighted", "weighted-fair"),
        ("priority", "priority"),
        ("lottery", "lottery"),
        ("baseline", "tf-serving"),
    ] {
        for gpus in ["1", "2"] {
            let traced = policy == "fair" && gpus == "1";
            let mut args: Vec<&str> = run.split(' ').chain([policy, "--gpus", gpus]).collect();
            if traced {
                args.extend(["--trace", "5"]);
            }
            let out = olympctl(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
            let scheduler = stdout.lines().next().unwrap_or_default();
            assert!(scheduler.ends_with(name), "{args:?}: {stdout}");
            let multi = gpus == "2" && policy != "baseline";
            assert_eq!(scheduler.contains("-multi-"), multi, "{args:?}: {stdout}");
            assert_eq!(stdout.matches(": finished").count(), 2, "{args:?}: {stdout}");
            assert!(stdout.contains("\ntoken switches : "), "{args:?}: {stdout}");
            let events: Vec<&str> = stdout.lines().filter(|l| l.starts_with('[')).collect();
            assert_eq!(events.len(), if traced { 5 } else { 0 }, "{args:?}: {stdout}");
            for line in events {
                let words: Vec<&str> = line.split(' ').collect();
                let track = words.get(1).copied().unwrap_or_default();
                let tracks = ["client", "gpu", "scheduler"];
                assert!(tracks.iter().any(|t| track.starts_with(t)), "{line}");
                assert!(words.len() > 2 && words[3..].iter().all(|w| w.contains('=')), "{line}");
            }
        }
    }
    let args: Vec<&str> = run.split(' ').chain(["drr"]).collect();
    assert_rejected(&args, "unknown policy \"drr\"");
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
    for cmd in ["bench", "export-model"] {
        let out = olympctl(&[cmd]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{cmd}: {stderr}");
    }
}

/// A file that cannot be written is an error that names it.
#[test]
fn write_errors_name_the_file() {
    let dir = scratch_dir("olympctl-write-errors");
    let path = dir.join("missing").join("g.dot");
    let path = path.to_str().expect("UTF-8 path");
    let inspect = "inspect --model alexnet --batch 10 --dot";
    let args: Vec<&str> = inspect.split(' ').chain([path]).collect();
    assert_rejected(&args, &format!("cannot write {path}: "));
}

/// `metrics --store` checks the catalog before it simulates: with a
/// truncated index the command fails and writes neither output file.
#[test]
fn metrics_rejects_a_malformed_catalog_before_writing() {
    let dir = scratch_dir("olympctl-metrics-bad-catalog");
    std::fs::create_dir_all(dir.join("runs")).expect("create catalog dir");
    std::fs::write(dir.join("runs/catalog.json"), "{\"schema\": \"tsdb-cat").expect("write index");
    let args = "metrics drifted --store runs --out drifted.jsonl --prom drifted.prom";
    let out = olympctl_in(&dir, &args.split(' ').collect::<Vec<_>>());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: runs/catalog.json: "), "{stderr}");
    for file in ["drifted.jsonl", "drifted.prom"] {
        assert!(!dir.join(file).exists(), "{file} was written");
    }
}

#[test]
fn catalog_runs_write_the_pinned_files() {
    let dir = scratch_dir("olympctl-catalog-digests");
    for args in [
        "trace smoke --mode full --out trace_smoke.json",
        "metrics drifted --out drifted.jsonl --prom drifted.prom",
        "blame drifted --vs smoke --out blame.json --trace phases.json",
    ] {
        let out = olympctl_in(&dir, &args.split(' ').collect::<Vec<_>>());
        assert!(out.status.success(), "{args}: {}", String::from_utf8_lossy(&out.stderr));
    }
    for (file, digest) in [
        ("trace_smoke.json", 0x4321_2090_6f53_39ef_u64),
        ("drifted.jsonl", 0x5837_b01d_2064_4096),
        ("drifted.prom", 0x84b0_d195_c389_c7f0),
        ("blame.json", 0x821f_86e0_6d12_eb57),
        ("phases.json", 0x1260_a0f9_79f6_ca55),
    ] {
        let bytes = std::fs::read(dir.join(file)).expect("written");
        assert_eq!(fnv1a(&bytes), digest, "{file} moved: {:016x}", fnv1a(&bytes));
    }
}

#[test]
fn unknown_runs_and_scenarios_list_the_known_names() {
    let runs = "smoke, drifted, timeline, fig11";
    for cmd in ["trace", "metrics", "blame", "top"] {
        assert_rejected(&[cmd, "ghost"], &format!("unknown run \"ghost\"; available: {runs}"));
    }
    assert_rejected(
        &["blame", "smoke", "--vs", "ghost"],
        &format!("unknown run \"ghost\"; available: {runs}"),
    );
    assert_rejected(
        &["chaos", "ghost"],
        "unknown chaos scenario \"ghost\"; available: kernel-faults, slowdown, stall, mixed, drift",
    );
    assert_rejected(
        &["lifecycle", "ghost"],
        "unknown lifecycle scenario \"ghost\"; available: churn, canary",
    );
}

#[test]
fn unread_and_repeated_flags_are_rejected() {
    assert_rejected(
        &[
            "run", "--model", "alexnet", "--batch", "10", "--clients", "2", "--batches", "1",
            "--policy", "fair", "--quantum_us", "50",
        ],
        "run does not take --quantum_us; it accepts --model, --batch, --clients, --batches, \
         --policy, --quantum-us, --gpus, --seed, --deadline-ms, --trace, --jobs",
    );
    assert_rejected(
        &[
            "profile", "--model", "alexnet", "--batch", "10", "--out", "p.json",
        ],
        "profile does not take --out; it accepts --model, --batch, --jobs",
    );
    assert_rejected(
        &["chaos", "mixed", "--schedular", "fifo"],
        "chaos does not take --schedular; it accepts --jobs",
    );
    assert_rejected(
        &["trace", "smoke", "--interval-us", "100"],
        "trace does not take --interval-us; it accepts --out, --mode, --jobs",
    );
    assert_rejected(&["trace", "smoke", "--out", "a.json", "--out", "b.json"], "--out given twice");
}
