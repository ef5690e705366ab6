//! Configurations the model cannot run are usage errors at the surface:
//! every simulation command preflights what it is about to run, and
//! `trace gen|info` hold traces to the simulator's socket-count rule. Each
//! case must exit non-zero with a message on stderr and never panic.

use std::fs;
use std::process::{Command, Output};

fn starnuma(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn assert_rejected(args: &[&str], needle: &str) {
    let out = starnuma(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must fail");
    assert_ne!(out.status.code(), Some(101), "{args:?} panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: no '{needle}' in {stderr}"
    );
}

#[test]
fn zero_length_runs_are_sn106_usage_errors() {
    let quick = ["--workload", "poa", "--scale", "quick"];
    for tail in [
        &["run", "--phases", "0"][..],
        &["run", "--instructions", "0"],
        &["run", "--phases", "0", "--replication", "0.1"],
        &["compare", "--phases", "0"],
    ] {
        let args: Vec<&str> = tail[..1]
            .iter()
            .chain(&quick)
            .chain(&tail[1..])
            .copied()
            .collect();
        assert_rejected(&args, "SN106");
    }
    assert_rejected(
        &[
            "sweep",
            "--workloads",
            "poa",
            "--scale",
            "quick",
            "--phases",
            "0",
        ],
        "SN106",
    );
}

#[test]
fn trace_gen_holds_sockets_to_the_system_rule() {
    let dir = std::env::temp_dir().join("starnuma-preflight-cli-sockets");
    fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("t.sntr");
    for sockets in ["0", "40"] {
        assert_rejected(
            &[
                "trace",
                "gen",
                "--workload",
                "bfs",
                "--instructions",
                "200",
                "--sockets",
                sockets,
                "--out",
                out.to_str().expect("utf-8"),
            ],
            "socket count",
        );
    }
    assert!(!out.exists(), "a rejected trace gen must write nothing");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_info_rejects_more_cores_than_32_sockets_hold() {
    let dir = std::env::temp_dir().join("starnuma-preflight-cli-info");
    fs::create_dir_all(&dir).expect("temp dir");
    // A valid, empty 129-core trace: magic, version 1, 129 cores of 0 records.
    let mut bytes = b"SNTR".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&129u32.to_le_bytes());
    for _ in 0..129 {
        bytes.extend_from_slice(&0u64.to_le_bytes());
    }
    let path = dir.join("wide.sntr");
    fs::write(&path, bytes).expect("write trace");
    assert_rejected(
        &["trace", "info", "--in", path.to_str().expect("utf-8")],
        "129 cores",
    );
    fs::remove_dir_all(&dir).ok();
}
