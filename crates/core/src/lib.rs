//! # StarNUMA: Mitigating NUMA Challenges with Memory Pooling
//!
//! A from-scratch reproduction of the MICRO 2024 paper *StarNUMA:
//! Mitigating NUMA Challenges with Memory Pooling* (Cho & Daglis): a
//! 16-socket hierarchical NUMA system augmented with a CXL-attached,
//! coherently shared memory pool that hosts *vagabond pages* — pages
//! actively shared by many sockets with no good home — converting slow
//! 2-hop inter-chassis accesses (360 ns, bandwidth-starved) into fast pool
//! accesses (180 ns, over dedicated CXL links).
//!
//! This crate is the public facade: it maps the paper's experimental
//! configurations onto the substrate crates —
//!
//! * [`starnuma_topology`]: the 4-chassis interconnect, link database,
//!   latency model;
//! * [`starnuma_mem`]: DRAM channels and bandwidth servers;
//! * [`starnuma_cache`]: LLCs and the TLB counter annex;
//! * [`starnuma_coherence`]: the distributed MESI directory;
//! * [`starnuma_trace`]: synthetic workload generation (step A);
//! * [`starnuma_migration`]: region trackers, Algorithm 1, oracles;
//! * [`starnuma_sim`]: the discrete-event timing simulator (steps B+C);
//! * [`starnuma_obs`] (re-exported as [`obs`]): the zero-dependency
//!   observability layer — per-socket latency histograms, substrate
//!   counters, and the structured event journal with JSONL trace and
//!   metrics JSON exporters.
//!
//! # Quick start
//!
//! ```
//! use starnuma::{Experiment, ScaleConfig, SystemKind, Workload};
//!
//! let scale = ScaleConfig::quick();
//! let base = Experiment::new(Workload::Bfs, SystemKind::Baseline, scale.clone()).run();
//! let star = Experiment::new(Workload::Bfs, SystemKind::StarNuma, scale).run();
//! let speedup = star.ipc / base.ipc;
//! assert!(speedup > 1.0, "the pool accelerates BFS (paper: 1.7x)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chart;
mod experiment;
pub mod pool;
pub mod report;
mod scale;
pub mod sweep;

pub use experiment::{speedup_vs_baseline, speedup_vs_baseline_observed, Experiment, SystemKind};
pub use pool::{set_global_jobs, set_progress, JobPool};
pub use scale::ScaleConfig;

pub use starnuma_obs as obs;
pub use starnuma_prof as prof;

pub use starnuma_sim::{MigrationMode, Modality, PhaseStats, RunConfig, RunResult, Runner};
pub use starnuma_topology::{
    AccessClass, BandwidthVariant, CxlLatencyBreakdown, LatencyModel, Network, ScalePreset,
    SystemParams,
};
pub use starnuma_trace::{
    PhaseTrace, SharingBin, SharingHistogram, TraceGenerator, Workload, WorkloadProfile,
};

/// Geometric mean of a non-empty slice (used for speedup summaries).
///
/// # Examples
///
/// ```
/// assert!((starnuma::geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty slice");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geomean requires positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 8.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_rejects_empty() {
        let _ = geomean(&[]);
    }
}
