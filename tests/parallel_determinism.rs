//! Tier-1 gate: the parallel execution engine must be invisible in the
//! results. Every experiment is a pure function of its `(profile,
//! RunConfig)` — simulated time is virtual and each run owns its RNG — so
//! fanning independent runs across worker threads may only change
//! wall-clock time, never a single bit of any `RunResult`. This test runs
//! the same sweep, compare and batch workloads with 1 and 4 workers and asserts
//! exact (`==`, i.e. bit-level for every float) equality.
//!
//! All checks live in one `#[test]` because the worker-count override is
//! process-global: concurrent tests must not flip it under each other.

use starnuma::obs::ObsSink;
use starnuma::sweep::{sweep_cxl_latency, sweep_pool_capacity, SweepPoint};
use starnuma::{
    run_best, set_global_jobs, Experiment, RunResult, ScaleConfig, SystemKind, Workload,
};

fn tiny() -> ScaleConfig {
    ScaleConfig {
        phases: 1,
        instructions_per_phase: 6_000,
        warmup_instructions: 0,
        ..ScaleConfig::quick()
    }
}

/// The `compare`-style harness load: a few systems on one workload,
/// including the baseline whose limit-tuning pair also runs on the pool.
fn compare_results() -> Vec<RunResult> {
    [
        SystemKind::Baseline,
        SystemKind::StarNuma,
        SystemKind::StarNumaT0,
    ]
    .into_iter()
    .map(|kind| Experiment::new(Workload::Tc, kind, tiny()).run())
    .collect()
}

/// The same systems as one [`run_best`] batch, with the baseline
/// requested twice: the batch runs it once and both requests get it.
fn batch_results() -> Vec<RunResult> {
    let requests = [
        SystemKind::Baseline,
        SystemKind::StarNuma,
        SystemKind::StarNumaT0,
        SystemKind::Baseline,
    ]
    .into_iter()
    .map(|kind| {
        let candidates = Experiment::new(Workload::Tc, kind, tiny()).candidates();
        (Workload::Tc, candidates)
    })
    .collect();
    run_best(requests, &ObsSink::disabled())
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

fn capacity_sweep() -> Vec<SweepPoint> {
    sweep_pool_capacity(Workload::Bfs, &tiny(), &[0.05, 0.1, 0.2, 0.4])
}

fn latency_sweep() -> Vec<SweepPoint> {
    sweep_cxl_latency(Workload::Bfs, &tiny(), &[50.0, 95.0, 140.0])
}

#[test]
fn parallel_runs_are_bit_identical_to_sequential() {
    set_global_jobs(1);
    let seq_compare = compare_results();
    let seq_capacity = capacity_sweep();
    let seq_latency = latency_sweep();
    let seq_batch = batch_results();

    set_global_jobs(4);
    let par_compare = compare_results();
    let par_capacity = capacity_sweep();
    let par_latency = latency_sweep();
    let par_batch = batch_results();

    assert_eq!(
        seq_compare, par_compare,
        "compare runs diverge across worker counts"
    );
    assert_eq!(
        seq_capacity, par_capacity,
        "capacity sweep diverges across worker counts"
    );
    assert_eq!(
        seq_latency, par_latency,
        "latency sweep diverges across worker counts"
    );

    // One batch equals the per-experiment runs at either worker count,
    // and the duplicated request gets the identical result.
    for batch in [&seq_batch, &par_batch] {
        assert_eq!(
            batch[..3],
            seq_compare[..],
            "batch diverges from Experiment::run"
        );
        assert_eq!(batch[3], batch[0], "the duplicated request diverges");
    }

    // The runs did something: IPC is positive everywhere.
    assert!(seq_compare.iter().all(|r| r.ipc > 0.0));
    assert!(seq_capacity.iter().all(|p| p.speedup > 0.0));
}
