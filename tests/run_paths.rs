//! Tier-1 guard for the single run path: `Experiment::run` is
//! `Experiment::run_into` with a disabled sink and `run_observed` the same
//! method with an enabled one, so for every system kind the two results
//! must be bit-identical. A monitor fault armed on the caller's sink must
//! reach the reported run of the limit-tuned baseline, whose two §IV-C
//! candidates each record into a clone of that sink.

use starnuma::{Experiment, ScaleConfig, SystemKind, Workload};

fn tiny() -> ScaleConfig {
    ScaleConfig {
        phases: 2,
        instructions_per_phase: 6_000,
        warmup_instructions: 1_000,
        ..ScaleConfig::quick()
    }
}

#[test]
fn plain_and_observed_runs_are_bit_identical_for_every_system() {
    for kind in SystemKind::ALL {
        let e = Experiment::new(Workload::Bfs, kind, tiny());
        let plain = e.run();
        let (observed, report) = e.run_observed();
        assert_eq!(
            format!("{plain:?}"),
            format!("{observed:?}"),
            "{kind}: observing the run changed its result"
        );
        assert!(
            !report.metrics.frames().is_empty(),
            "{kind}: the observed run recorded no phase frames"
        );
    }
}

#[test]
fn a_fault_armed_on_the_sink_fires_once_in_the_reported_baseline_run() {
    let e = Experiment::new(Workload::Bfs, SystemKind::Baseline, tiny());
    let mut armed = e.run_config().obs_sink();
    armed.arm_monitor_fault("pool_occupancy");
    let (result, report) = e.run_into(&armed);
    assert_eq!(report.monitor.violations.len(), 1, "{:?}", report.monitor);
    assert_eq!(report.monitor.violations[0].monitor, "pool_occupancy");
    assert_eq!(
        format!("{result:?}"),
        format!("{:?}", e.run()),
        "a firing monitor perturbed the simulation result"
    );
}
