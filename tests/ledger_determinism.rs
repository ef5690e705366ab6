//! Tier-1 gate for the run ledger and the online invariant monitors
//! (PR 9): observation must never perturb the simulation.
//!
//! Three properties, each across all eight workloads:
//!
//! 1. **Ledger records are scheduling-invariant.** A [`RunRecord`] built
//!    from a `--jobs 1` run renders byte-identically to one built from a
//!    `--jobs 4` run once the host-time fields (`wall_ns`, profiler
//!    sites) are pinned — everything a record carries is simulation
//!    output, and simulation output is bit-identical at any worker count.
//! 2. **Records survive the JSON round trip.** `to_json_line` →
//!    `from_json_line` → `to_json_line` is the identity on bytes, so a
//!    ledger re-read months later still digests to the same report.
//! 3. **Monitors observe without touching.** Healthy runs pass every
//!    phase-barrier check with zero violations, and an injected
//!    `pool_occupancy` fault fires exactly one deterministic violation
//!    while leaving the `RunResult` bit-identical to the unfaulted run.
//!
//! One `#[test]` owns everything: the worker-count override is
//! process-global and concurrent tests must not flip it under each other.

use starnuma::obs::{ObsReport, RunExtras, RunMeta, RunRecord};
use starnuma::{set_global_jobs, Experiment, RunResult, ScaleConfig, SystemKind, Workload};
use starnuma_types::fnv1a_digest;

fn tiny() -> ScaleConfig {
    ScaleConfig {
        phases: 2,
        instructions_per_phase: 6_000,
        warmup_instructions: 0,
        ..ScaleConfig::quick()
    }
}

fn meta(workload: Workload, jobs: u64) -> RunMeta {
    RunMeta {
        workload: workload.name().to_string(),
        system: SystemKind::StarNuma.label().to_string(),
        preset: "SC1".to_string(),
        jobs,
        seed: 42,
        version: "gate".to_string(),
    }
}

/// One workload's ledger line with host-time fields pinned: `wall_ns` 0,
/// no profiler sites, and `jobs` fixed at 0 so the two schedules render
/// the same identity fields.
fn ledger_line(workload: Workload) -> (String, RunResult, ObsReport) {
    let e = Experiment::new(workload, SystemKind::StarNuma, tiny());
    let (result, report) = e.run_observed();
    let extras = RunExtras {
        config_digest: fnv1a_digest(format!("{:?}", e.run_config()).as_bytes()),
        result_digest: fnv1a_digest(format!("{result:?}").as_bytes()),
        wall_ns: 0,
        ipc: result.ipc,
        amat_ns: result.amat_ns,
        pages_migrated: result.pages_migrated,
        pages_to_pool: result.pages_to_pool,
        top_sites: Vec::new(),
    };
    let record = RunRecord::from_observed(&meta(workload, 0), &report, &report.monitor, &extras);
    (record.to_json_line(), result, report)
}

#[test]
fn ledger_records_and_monitor_verdicts_are_deterministic() {
    set_global_jobs(1);
    let sequential: Vec<(Workload, String, RunResult, ObsReport)> = Workload::ALL
        .iter()
        .map(|&w| {
            let (line, result, report) = ledger_line(w);
            (w, line, result, report)
        })
        .collect();

    set_global_jobs(4);
    for (w, seq_line, _, seq_report) in &sequential {
        let (par_line, _, par_report) = ledger_line(*w);

        // 1. Scheduling invariance: byte-identical ledger lines.
        assert_eq!(
            seq_line,
            &par_line,
            "{}: ledger record diverges between --jobs 1 and --jobs 4",
            w.name()
        );

        // 3a. Healthy runs are monitor-clean, and every phase was checked.
        for report in [seq_report, &par_report] {
            assert!(
                report.monitor.is_clean(),
                "{}: unexpected monitor violations {:?}",
                w.name(),
                report.monitor.violations
            );
            assert_eq!(
                report.monitor.checks,
                tiny().phases as u64,
                "{}: monitors must run once per phase barrier",
                w.name()
            );
        }

        // 2. JSON round trip is the identity on bytes.
        let reparsed = RunRecord::from_json_line(seq_line)
            .unwrap_or_else(|| panic!("{}: ledger line failed to re-parse", w.name()));
        assert_eq!(
            seq_line,
            &reparsed.to_json_line(),
            "{}: to_json_line/from_json_line round trip is lossy",
            w.name()
        );
    }

    // 3b. An injected fault fires exactly once, deterministically, and
    // the observed simulation result is untouched by the firing monitor.
    set_global_jobs(1);
    for &w in &Workload::ALL {
        let e = Experiment::new(w, SystemKind::StarNuma, tiny());
        let (clean_result, _) = e.run_observed();
        let mut armed = e.run_config().obs_sink();
        armed.arm_monitor_fault("pool_occupancy");
        let (faulted_result, faulted_report) = e.run_into(&armed);
        assert_eq!(
            faulted_report.monitor.violations.len(),
            1,
            "{}: injected fault must fire exactly once",
            w.name()
        );
        assert_eq!(
            faulted_report.monitor.violations[0].monitor,
            "pool_occupancy",
            "{}: wrong monitor fired",
            w.name()
        );
        assert_eq!(
            format!("{clean_result:?}"),
            format!("{faulted_result:?}"),
            "{}: a firing monitor perturbed the simulation result",
            w.name()
        );
    }
}
