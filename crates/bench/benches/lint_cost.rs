//! Lint cost: best-of-N full workspace scans.
//!
//! Every lint is a full scan (the analyzer keeps no state between runs),
//! so one number describes it: `lint_cold_ms`, recorded in
//! `BENCH_history.jsonl` so `starnuma bench-diff` can flag regressions —
//! the `_ms` suffix marks lower-is-better. `ci/bench_baseline.json` holds
//! its ceiling.
//!
//! Wall clock is allowed here (bench crate; SN002 exempts it).

use std::path::Path;
use std::time::Instant;

use starnuma_audit::{lint_workspace, LintOutcome};

fn main() {
    starnuma_bench::banner("lint_cost", "analyzer infrastructure (no paper figure)");
    let smoke = std::env::var("STARNUMA_BENCH_SMOKE").is_ok();
    let reps: usize = if smoke { 3 } else { 10 };

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");

    // Best-of-N so a stray page-cache miss doesn't pollute the history.
    let mut cold_ms = f64::INFINITY;
    let mut reference: Option<LintOutcome> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let outcome = lint_workspace(&root).expect("workspace lints");
        cold_ms = cold_ms.min(start.elapsed().as_secs_f64() * 1e3);
        match &reference {
            Some(r) => assert_eq!(
                r.findings, outcome.findings,
                "every scan must return the same findings"
            ),
            None => reference = Some(outcome),
        }
    }
    let files = reference.map_or(0, |r| r.files_scanned);

    println!("files scanned            {files:>10}");
    println!("lint cold                {cold_ms:>10.1} ms");

    starnuma_bench::append_history(
        "lint",
        smoke,
        &[
            ("lint_cold_ms".to_string(), cold_ms),
            ("lint_files".to_string(), files as f64),
        ],
    );
}
