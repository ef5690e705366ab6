//! The paper's experimental configurations as a single enum, and the
//! experiment runner.

use std::collections::BTreeMap;

use starnuma_obs::{ObsReport, ObsSink};
use starnuma_sim::{MigrationMode, Modality, RunConfig, RunResult, Runner};
use starnuma_topology::{BandwidthVariant, SystemParams};
use starnuma_trace::{Workload, WorkloadProfile};

use crate::pool::JobPool;
use crate::scale::ScaleConfig;

/// Every system configuration evaluated in the paper, by section:
///
/// | Variant | Paper experiment |
/// |---|---|
/// | `Baseline` | §V-A baseline: perfect-knowledge dynamic migration |
/// | `BaselineFirstTouch` | first-touch only (reference point) |
/// | `BaselineIsoBw` / `Baseline2xBw` | §V-D bandwidth provisioning |
/// | `BaselineStaticOracle` | §V-B static oracular placement, no pool |
/// | `StarNuma` | §V-A StarNUMA with the `T_16` tracker |
/// | `StarNumaT0` | §V-A with the `T_0` tracker |
/// | `StarNumaHalfBw` | §V-D x4 CXL links |
/// | `StarNumaCxlSwitch` | §V-C 190 ns pool penalty (CXL switch) |
/// | `StarNumaSmallPool` | §V-E pool capacity 1/17 of footprint |
/// | `StarNumaStaticOracle` | §V-B static oracular placement with pool |
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SystemKind {
    /// Baseline 16-socket system with perfect-knowledge dynamic migration,
    /// tuned per workload as in §IV-C: the better of the oracle policy and
    /// the zero-migration limit is reported.
    Baseline,
    /// Baseline with first-touch placement only.
    BaselineFirstTouch,
    /// Baseline with coherent links raised by StarNUMA's aggregate CXL
    /// bandwidth (UPI 26.4, NUMALink 17 GB/s full-scale).
    BaselineIsoBw,
    /// Baseline with every coherent link doubled.
    Baseline2xBw,
    /// Baseline with §V-B oracular static placement.
    BaselineStaticOracle,
    /// StarNUMA with the `T_16` hardware tracker (the default system).
    StarNuma,
    /// StarNUMA with the `T_0` (touched-bits-only) tracker.
    StarNumaT0,
    /// StarNUMA with halved CXL link bandwidth (x4 links).
    StarNumaHalfBw,
    /// StarNUMA with an intermediate CXL switch (270 ns pool access).
    StarNumaCxlSwitch,
    /// StarNUMA with a single-socket-sized pool (1/17 of the footprint).
    StarNumaSmallPool,
    /// StarNUMA with §V-B oracular static placement.
    StarNumaStaticOracle,
}

impl SystemKind {
    /// All variants, in a stable presentation order.
    pub const ALL: [SystemKind; 11] = [
        SystemKind::Baseline,
        SystemKind::BaselineFirstTouch,
        SystemKind::BaselineIsoBw,
        SystemKind::Baseline2xBw,
        SystemKind::BaselineStaticOracle,
        SystemKind::StarNuma,
        SystemKind::StarNumaT0,
        SystemKind::StarNumaHalfBw,
        SystemKind::StarNumaCxlSwitch,
        SystemKind::StarNumaSmallPool,
        SystemKind::StarNumaStaticOracle,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Baseline => "Baseline",
            SystemKind::BaselineFirstTouch => "Baseline (first-touch)",
            SystemKind::BaselineIsoBw => "Baseline ISO-BW",
            SystemKind::Baseline2xBw => "Baseline 2xBW",
            SystemKind::BaselineStaticOracle => "Baseline static-oracle",
            SystemKind::StarNuma => "StarNUMA (T16)",
            SystemKind::StarNumaT0 => "StarNUMA (T0)",
            SystemKind::StarNumaHalfBw => "StarNUMA Half-BW",
            SystemKind::StarNumaCxlSwitch => "StarNUMA +CXL switch",
            SystemKind::StarNumaSmallPool => "StarNUMA small pool (1/17)",
            SystemKind::StarNumaStaticOracle => "StarNUMA static-oracle",
        }
    }

    /// Whether this is a pool-bearing (StarNUMA) configuration.
    pub fn has_pool(self) -> bool {
        matches!(
            self,
            SystemKind::StarNuma
                | SystemKind::StarNumaT0
                | SystemKind::StarNumaHalfBw
                | SystemKind::StarNumaCxlSwitch
                | SystemKind::StarNumaSmallPool
                | SystemKind::StarNumaStaticOracle
        )
    }

    fn system_params(self) -> SystemParams {
        match self {
            SystemKind::Baseline
            | SystemKind::BaselineFirstTouch
            | SystemKind::BaselineStaticOracle => SystemParams::scaled_baseline(),
            SystemKind::BaselineIsoBw => SystemParams::scaled_baseline()
                .with_bandwidth_variant(BandwidthVariant::BaselineIsoBw),
            SystemKind::Baseline2xBw => SystemParams::scaled_baseline()
                .with_bandwidth_variant(BandwidthVariant::Baseline2xBw),
            SystemKind::StarNuma
            | SystemKind::StarNumaT0
            | SystemKind::StarNumaSmallPool
            | SystemKind::StarNumaStaticOracle => SystemParams::scaled_starnuma(),
            SystemKind::StarNumaHalfBw => SystemParams::scaled_starnuma()
                .with_bandwidth_variant(BandwidthVariant::StarNumaHalfBw),
            SystemKind::StarNumaCxlSwitch => SystemParams::scaled_starnuma().with_cxl_switch(),
        }
    }

    fn migration_mode(self) -> MigrationMode {
        match self {
            SystemKind::Baseline | SystemKind::BaselineIsoBw | SystemKind::Baseline2xBw => {
                MigrationMode::OracleDynamic
            }
            SystemKind::BaselineFirstTouch => MigrationMode::FirstTouchOnly,
            SystemKind::BaselineStaticOracle | SystemKind::StarNumaStaticOracle => {
                MigrationMode::StaticOracle
            }
            SystemKind::StarNumaT0 => MigrationMode::Threshold { t0: true },
            _ => MigrationMode::Threshold { t0: false },
        }
    }

    fn pool_capacity_frac(self) -> f64 {
        match self {
            SystemKind::StarNumaSmallPool => 1.0 / 17.0,
            _ => 0.20,
        }
    }
}

impl core::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One (workload, system, scale) experiment.
///
/// # Examples
///
/// ```
/// use starnuma::{Experiment, ScaleConfig, SystemKind, Workload};
///
/// let r = Experiment::new(Workload::Poa, SystemKind::StarNuma, ScaleConfig::quick()).run();
/// assert_eq!(r.pages_to_pool, 0); // POA's pages are all private
/// ```
#[derive(Clone, Debug)]
pub struct Experiment {
    workload: Workload,
    system: SystemKind,
    scale: ScaleConfig,
}

impl Experiment {
    /// Creates the experiment.
    pub fn new(workload: Workload, system: SystemKind, scale: ScaleConfig) -> Self {
        Experiment {
            workload,
            system,
            scale,
        }
    }

    /// The underlying simulator configuration this experiment resolves to.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            params: self
                .system
                .system_params()
                .with_scale_preset(self.scale.preset),
            phases: self.scale.phases,
            instructions_per_phase: self.scale.instructions_per_phase,
            warmup_instructions: self.scale.warmup_instructions,
            migration: self.system.migration_mode(),
            pool_capacity_frac: self.system.pool_capacity_frac(),
            migration_limit_pages: 8_192,
            modeled_migration_fraction: 1.0,
            modality: Modality::AllDetailed,
            seed: self.scale.seed,
            replication: None,
        }
    }

    /// Runs the experiment to completion.
    pub fn run(&self) -> RunResult {
        self.run_into(&ObsSink::disabled()).0
    }

    /// Like [`Experiment::run`], but with the observability layer enabled:
    /// also returns the run's [`ObsReport`] (per-socket latency histograms,
    /// substrate counters, and the structured event journal).
    pub fn run_observed(&self) -> (RunResult, ObsReport) {
        self.run_into(&self.run_config().obs_sink())
    }

    /// The configurations this experiment runs, its reported result being
    /// the highest-IPC one. For the baseline systems this is the paper's
    /// §IV-C protocol of *choosing the best-performing migration limit per
    /// workload-system combination, from 0 upward*: the perfect-knowledge
    /// dynamic policy ([`Experiment::run_config`]) and the no-migration
    /// (limit 0, first-touch) variant. Every other system has one.
    pub fn candidates(&self) -> Vec<RunConfig> {
        let cfg = self.run_config();
        let tunes_limit = matches!(
            self.system,
            SystemKind::Baseline | SystemKind::BaselineIsoBw | SystemKind::Baseline2xBw
        );
        if !tunes_limit {
            return vec![cfg];
        }
        let mut zero = cfg.clone();
        zero.migration = MigrationMode::FirstTouchOnly;
        vec![cfg, zero]
    }

    /// Runs the experiment, recording each run into a clone of `obs`, and
    /// returns the reported result with its report: [`run_best`] over
    /// [`Experiment::candidates`]. With a disabled sink this is
    /// [`Experiment::run`]; a monitor fault armed on `obs` is armed on
    /// every run.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`Runner::preflight`]; callers
    /// taking configurations from users check it first.
    pub fn run_into(&self, obs: &ObsSink) -> (RunResult, ObsReport) {
        let mut best = run_best(vec![(self.workload, self.candidates())], obs);
        best.swap_remove(0)
    }
}

/// Runs a batch of requests, each a workload with its candidate
/// configurations, and returns, in input order, each request's
/// highest-IPC candidate (the first on a tie) with that run's report.
///
/// Every distinct `(workload, config)` of the batch — distinct by its
/// `Debug` rendering, the identity the run ledger's config digest uses —
/// runs once, into its own clone of `obs`, in one fan-out on the global
/// [`JobPool`]. Each run is a pure function of its configuration, so the
/// results are bit-identical to running every candidate on its own, in
/// any order and at any worker count. A batch of one run stays on the
/// caller's thread.
///
/// # Panics
///
/// Panics if a request has no candidates, or if a configuration fails
/// [`Runner::preflight`].
pub fn run_best(
    requests: Vec<(Workload, Vec<RunConfig>)>,
    obs: &ObsSink,
) -> Vec<(RunResult, ObsReport)> {
    let mut index: BTreeMap<(Workload, String), usize> = BTreeMap::new();
    let mut jobs: Vec<(WorkloadProfile, RunConfig)> = Vec::new();
    let mut picks: Vec<Vec<usize>> = Vec::new();
    for (workload, configs) in requests {
        let mut request = Vec::new();
        for cfg in configs {
            let key = (workload, format!("{cfg:?}"));
            request.push(*index.entry(key).or_insert_with(|| {
                jobs.push((workload.profile(), cfg));
                jobs.len() - 1
            }));
        }
        picks.push(request);
    }
    let runs = JobPool::global().run(jobs, |_, (profile, cfg)| {
        let mut sink = obs.clone();
        let result = Runner::new(profile, cfg).run_observed(&mut sink);
        (result, sink.finish())
    });
    let ipc = |i: usize| runs[i].0.ipc;
    let best: Vec<usize> = picks
        .iter()
        .map(|c| {
            c.iter()
                .fold(c[0], |b, &i| if ipc(i) > ipc(b) { i } else { b })
        })
        .collect();
    // A run picked by several requests is copied for all but its last.
    let mut runs: Vec<_> = runs.into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(best.len());
    for (k, &i) in best.iter().enumerate() {
        out.extend(if best[k + 1..].contains(&i) {
            runs[i].clone()
        } else {
            runs[i].take()
        });
    }
    out
}

/// The speedup of `system` over `baseline`: the ratio of their per-core
/// IPCs, 0 when the baseline's IPC is 0.
pub fn speedup(system: &RunResult, baseline: &RunResult) -> f64 {
    if baseline.ipc > 0.0 {
        system.ipc / baseline.ipc
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_consistent_configs() {
        for kind in SystemKind::ALL {
            let e = Experiment::new(Workload::Bfs, kind, ScaleConfig::quick());
            let cfg = e.run_config();
            assert_eq!(cfg.params.has_pool, kind.has_pool(), "{kind}");
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn iso_bw_raises_links() {
        let iso = Experiment::new(
            Workload::Bfs,
            SystemKind::BaselineIsoBw,
            ScaleConfig::quick(),
        )
        .run_config();
        let base =
            Experiment::new(Workload::Bfs, SystemKind::Baseline, ScaleConfig::quick()).run_config();
        assert!(iso.params.upi_bw.raw() > base.params.upi_bw.raw());
        assert!(iso.params.numalink_bw.raw() > base.params.numalink_bw.raw());
    }

    #[test]
    fn small_pool_uses_one_seventeenth() {
        let e = Experiment::new(
            Workload::Bfs,
            SystemKind::StarNumaSmallPool,
            ScaleConfig::quick(),
        );
        let cfg = e.run_config();
        assert!((cfg.pool_capacity_frac - 1.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn cxl_switch_raises_pool_latency() {
        let cfg = Experiment::new(
            Workload::Tc,
            SystemKind::StarNumaCxlSwitch,
            ScaleConfig::quick(),
        )
        .run_config();
        assert_eq!(cfg.params.cxl_one_way.raw(), 95.0);
    }
}
