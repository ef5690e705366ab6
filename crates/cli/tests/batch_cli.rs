//! Every multi-run command forms its runs as one de-duplicated batch, so
//! a command runs exactly the candidates its experiments list: `run`
//! keeps the §IV-C candidate pair under `--replication`, and `sweep` of
//! the baseline runs each baseline pair once, not once as the system and
//! again as its own reference.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use starnuma_prof::{ProfReport, Site};
use starnuma_types::json::Value;

fn starnuma(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn ipc(args: &[&str]) -> f64 {
    let doc = Value::parse(&starnuma(args)).expect("run --json prints one JSON object");
    doc.get("ipc")
        .and_then(Value::as_num)
        .expect("an ipc field")
}

/// `timing` scope entries in the `profile.json` of `starnuma profile ARGS`:
/// one per simulated phase of every run, so a deterministic run count.
fn timing_calls(name: &str, args: &[&str]) -> u64 {
    let path: PathBuf = std::env::temp_dir().join(format!("starnuma-batch-cli-{name}.json"));
    let path_s = path.to_str().expect("utf-8 path");
    let mut full = vec!["profile"];
    full.extend_from_slice(args);
    full.extend_from_slice(&["--profile-out", path_s]);
    starnuma(&full);
    let text = fs::read_to_string(&path).expect("profile.json written");
    let _ = fs::remove_file(&path);
    let saved = ProfReport::from_json(&text).expect("profile.json parses");
    saved
        .report
        .merged_edges()
        .iter()
        .filter(|e| e.site == Site::Timing)
        .map(|e| e.calls)
        .sum()
}

#[test]
fn replication_keeps_the_baseline_candidate_pair() {
    let base = [
        "run",
        "--workload",
        "bfs",
        "--system",
        "baseline",
        "--scale",
        "quick",
        "--json",
    ];
    let plain = ipc(&base);
    let mut inert = base.to_vec();
    inert.extend_from_slice(&["--replication", "0"]);
    // A zero replication budget never replicates, so the reported run is
    // the same §IV-C winner, bit for bit.
    assert_eq!(ipc(&inert), plain);
}

#[test]
fn sweep_of_the_baseline_runs_each_pair_once() {
    let quick = ["--system", "baseline", "--scale", "quick"];
    let mut run = vec!["run", "--workload", "bfs"];
    run.extend_from_slice(&quick);
    let mut sweep = vec!["sweep", "--workloads", "bfs"];
    sweep.extend_from_slice(&quick);
    let run_calls = timing_calls("run", &run);
    assert!(run_calls > 0, "the profiled run recorded no timing scopes");
    assert_eq!(timing_calls("sweep", &sweep), run_calls);
}
