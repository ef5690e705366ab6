//! The benchmark's workloads, seeds, golden digests, and the map from each
//! per-layer metric to the end-to-end metric and workload it should move.
//!
//! Every workload runs at the `default` scale (5 phases of 100 k
//! instructions per core, warm-up on, so the modelled caches start warm)
//! from one process. Host time is what is measured; simulated results are
//! not metrics here, they are checked to stay bit-identical.
//!
//! # Seeds
//!
//! * [`TUNING_SEED`] (42) is the seed the benchmark was sized and tuned on;
//!   its `RunResult` digests are pinned in [`Workload::golden_digest`].
//! * [`HELD_OUT_SEED`] (1729) was not used while tuning. A later claim of a
//!   gain must also hold on it.
//!
//! # Metric → layer → workload map
//!
//! | Per-layer metrics | Should move | On |
//! |---|---|---|
//! | `trace.generate_s`, `trace.generate_calls`, `trace.accesses_per_s` | `setup_s`, `run_s` (and `peak_rss_mb` for a one-pass first touch) | all four; RSS most on `sssp-baseline` |
//! | `cache.tlb_replay_s`, `cache.tlb_flushes`, `migration.tracker_updates`, `migration.decide_s`, `migration.pages_*` | `run_s` | `bfs-starnuma`, `poa-starnuma`; TLB metrics stay 0 on `sssp-baseline` |
//! | `migration.placement_s` | `setup_s` | all four |
//! | `sim.run_phase_s`, `sim.ns_per_access`, `sim.warmup_s`, `sim.checkpoint_s`, `sim.event_loop_self_s` | `run_s`, `sim_accesses_per_s` | all four |
//! | `cache.llc_accesses`, `cache.llc_hit_ratio`, `cache.llc_access_ns` | `run_s` | most on `poa-starnuma` |
//! | `coherence.*` | `run_s` | `sssp-baseline`, `masstree-profiled`; little on `poa-starnuma` |
//! | `topology.leg_ns`, `topology.leg_calls`, `topology.network_new_s`, `mem.enqueue_ns`, `mem.link_*` | `run_s` | `sssp-baseline`, `bfs-starnuma`; no change on `poa-starnuma` |
//! | `mem.dram_transfers.*`, `mem.dram_access_ns` | `run_s` (≈3–4 % share) | all four |
//! | `prof.scopes`, `prof.overhead_ratio`, `obs.export_s`, `obs.events` | `run_s` | `masstree-profiled` only (0 elsewhere) |
//! | `core.pool_efficiency` | `run_s` | `sssp-baseline` only |
//! | `bench.trace_overhead`, `bench.unaccounted_s` | — (the benchmark's own cost) | all four |

use starnuma::{SystemKind, Workload as Kernel};

/// The seed the benchmark was tuned on.
pub const TUNING_SEED: u64 = 42;
/// The seed kept out of tuning; claims must hold on it too.
pub const HELD_OUT_SEED: u64 = 1729;

/// One benchmark workload: a kernel on a system configuration, run from
/// one process with a fixed number of JobPool workers.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one sentence).
    pub why: &'static str,
    /// The simulated kernel.
    pub kernel: Kernel,
    /// The simulated system.
    pub system: SystemKind,
    /// JobPool workers the process runs with.
    pub jobs: usize,
    /// Whether the run goes through the profiler and the obs exports, the
    /// way `starnuma profile run --metrics-out --trace-out` runs it.
    pub profiled: bool,
    /// FNV-1a digest of the reported `RunResult`'s `Debug` rendering at
    /// [`TUNING_SEED`].
    pub golden_digest: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "bfs-starnuma",
        why: "the paper's vagabond-page exemplar (Fig. 2): exercises every layer, \
              TLB annex replay, threshold policy, in-flight migrations, CXL links, \
              pool DRAM and 4-hop pool transfers",
        kernel: Kernel::Bfs,
        system: SystemKind::StarNuma,
        jobs: 1,
        profiled: false,
        golden_digest: 0x5089_1394_64da_c1d4,
    },
    Workload {
        name: "sssp-baseline",
        why: "highest MPKI with heavy 2-hop NUMALink contention and no pool; the only \
              workload that runs the oracle policy and the JobPool candidate pair, \
              and the largest peak RSS",
        kernel: Kernel::Sssp,
        system: SystemKind::Baseline,
        jobs: 2,
        profiled: false,
        golden_digest: 0x4c32_3d81_6618_be04,
    },
    Workload {
        name: "poa-starnuma",
        why: "NUMA-partitioned with >99% local accesses and no pool pages: the control \
              that interconnect, coherence and migration work should not move, \
              while LLC, event-loop and trace-gen work should",
        kernel: Kernel::Poa,
        system: SystemKind::StarNuma,
        jobs: 1,
        profiled: false,
        golden_digest: 0xb407_eaae_49db_dea0,
    },
    Workload {
        name: "masstree-profiled",
        why: "50/50 read/write Masstree under the profiler with obs exports rendered: \
              the only workload using the prof and obs layers, and writes drive \
              invalidation and dirty-writeback paths",
        kernel: Kernel::Masstree,
        system: SystemKind::StarNuma,
        jobs: 1,
        profiled: true,
        golden_digest: 0x99bb_ff2e_c108_c9c4,
    },
];

/// Looks a workload up by its `--workload` name.
pub fn find(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}
