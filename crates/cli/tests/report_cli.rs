//! The run ledger, the online monitors, and `starnuma report`,
//! exercised through the real binary so the exit-code and output
//! contracts are tested end to end. Fixture invocations run with the
//! fixture directory as the working directory and pass `--ledger .`,
//! so the paths the report prints are stable for byte-exact goldens.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn starnuma() -> Command {
    Command::new(env!("CARGO_BIN_EXE_starnuma"))
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/report")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `report --json` over the checked-in ledger is byte-identical across
/// invocations and matches the committed golden, and a clean ledger
/// exits zero.
#[test]
fn report_json_matches_golden_and_is_stable() {
    let run = || {
        starnuma()
            .current_dir(fixtures())
            .args(["report", "--ledger", ".", "--json"])
            .output()
            .expect("binary runs")
    };
    let first = run();
    let second = run();
    assert!(first.status.success(), "clean ledger must exit zero");
    assert_eq!(
        first.stdout, second.stdout,
        "report output must be byte-identical across invocations"
    );
    let golden = fs::read(fixtures().join("report.json.golden")).expect("golden present");
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&golden),
        "report --json drifted from the committed golden"
    );
}

/// Two records with the same (config digest, seed) but different result
/// digests are determinism drift: flagged in the output, non-zero exit.
#[test]
fn report_flags_determinism_drift() {
    let out = starnuma()
        .current_dir(fixtures().join("drift"))
        .args(["report", "--ledger", "."])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "drift must fail the report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("determinism drift: 1 flag(s)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("0xdeadbeefdeadbeef"), "stdout: {stdout}");
}

/// A real run appends a parseable record per run; `report --json` over
/// the fresh ledger succeeds and counts them.
#[test]
fn run_appends_ledger_records_report_reads_back() {
    let dir = temp_dir("starnuma-report-cli-ledger");
    let dir_s = dir.to_str().expect("utf-8");
    for jobs in ["1", "2"] {
        let out = starnuma()
            .args([
                "run",
                "--workload",
                "poa",
                "--scale",
                "quick",
                "--phases",
                "1",
                "--instructions",
                "3000",
                "--jobs",
                jobs,
                "--ledger",
                dir_s,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "run with --ledger must succeed");
    }
    let ledger = fs::read_to_string(dir.join("runs.jsonl")).expect("ledger written");
    assert_eq!(ledger.lines().count(), 2, "one record per run");
    let out = starnuma()
        .args(["report", "--ledger", dir_s, "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "identical reruns must not be flagged as drift: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"records\":2"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

/// An injected monitor fault fires deterministically; `--strict-monitors`
/// turns it into a non-zero exit, and without the switch the run still
/// reports it on stderr but succeeds.
#[test]
fn strict_monitors_fails_on_injected_fault() {
    let base = [
        "run",
        "--workload",
        "bfs",
        "--scale",
        "quick",
        "--phases",
        "1",
        "--instructions",
        "3000",
        "--jobs",
        "1",
        "--inject-monitor-fault",
        "pool_occupancy",
    ];
    let strict = starnuma()
        .args(base)
        .arg("--strict-monitors")
        .output()
        .expect("binary runs");
    assert!(
        !strict.status.success(),
        "strict mode must fail on a violation"
    );
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(
        stderr.contains("monitor violation: pool_occupancy"),
        "stderr: {stderr}"
    );
    let lax = starnuma().args(base).output().expect("binary runs");
    assert!(
        lax.status.success(),
        "without --strict-monitors the run passes"
    );
    assert!(
        String::from_utf8_lossy(&lax.stderr).contains("monitor violation: pool_occupancy"),
        "the violation must still be reported on stderr"
    );
    let bogus = starnuma()
        .args([
            "run",
            "--workload",
            "bfs",
            "--inject-monitor-fault",
            "bogus",
        ])
        .output()
        .expect("binary runs");
    assert!(
        !bogus.status.success(),
        "unknown monitor names are rejected"
    );
}

/// `inspect` on a zero-event trace says so instead of rendering an empty
/// timeline, and phases no event mentions produce no placeholder rows.
#[test]
fn inspect_handles_sparse_and_empty_traces() {
    let empty = starnuma()
        .current_dir(fixtures())
        .args(["inspect", "empty_trace.jsonl"])
        .output()
        .expect("binary runs");
    assert!(empty.status.success());
    let stdout = String::from_utf8_lossy(&empty.stdout);
    assert!(stdout.contains("(no events recorded)"), "stdout: {stdout}");
    assert!(!stdout.contains("phase 0:"), "stdout: {stdout}");

    let late = starnuma()
        .current_dir(fixtures())
        .args(["inspect", "late_phase_trace.jsonl"])
        .output()
        .expect("binary runs");
    assert!(late.status.success());
    let stdout = String::from_utf8_lossy(&late.stdout);
    assert!(stdout.contains("phase 2:"), "stdout: {stdout}");
    assert!(
        !stdout.contains("phase 0:") && !stdout.contains("phase 1:"),
        "eventless phases must not render placeholder rows: {stdout}"
    );
}

/// `inspect --chrome` over a checked-in trace matches the committed
/// golden byte for byte, and pairs the phase's `phase_checkpoint`
/// begin/end edges into one duration span while other events stay
/// instants.
#[test]
fn inspect_chrome_matches_golden_and_pairs_checkpoint_edges() {
    let dir = temp_dir("starnuma-report-cli-chrome");
    let out_path = dir.join("chrome.json");
    let out = starnuma()
        .current_dir(fixtures())
        .args(["inspect", "chrome_trace.jsonl", "--chrome"])
        .arg(&out_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = fs::read_to_string(&out_path).expect("chrome output written");
    let golden =
        fs::read_to_string(fixtures().join("chrome_trace.json.golden")).expect("golden present");
    assert_eq!(text, golden, "inspect --chrome drifted from the golden");

    // The begin/end pair collapses into one duration span: ts 4 -> 7.
    assert_eq!(text.matches("\"ph\":\"X\"").count(), 1, "{text}");
    assert!(text.contains("\"ts\":4,\"dur\":3"), "{text}");
    assert!(text.contains("\"planned_moves\":3"), "{text}");
    assert_eq!(text.matches("phase_checkpoint").count(), 1, "{text}");
    // The pairing marker does not leak into the span's args.
    assert!(!text.contains("\"edge\""), "{text}");
    // The event between the edges stays an instant.
    assert!(
        text.contains("{\"name\":\"region_migrated\",\"cat\":\"migration\",\"ph\":\"i\""),
        "{text}"
    );
    let _ = fs::remove_dir_all(&dir);
}
