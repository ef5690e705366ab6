//! A replica of `starnuma_sim::Runner::run_observed` (`pipeline.rs`) built
//! from public calls only, with a span around each call into a layer.
//!
//! `Runner` calls its layers internally, so the only way to time them from
//! outside is to drive them the same way. The replica must reproduce
//! `Runner`'s `RunResult` bit for bit (checked by the caller on every
//! traced run), or its per-layer numbers describe a different program.
//! It supports the migration modes the benchmark's workloads use:
//! threshold tracking, the dynamic oracle and first touch.

use starnuma_cache::{Tlb, TlbConfig};
use starnuma_migration::{
    MetadataRegion, MigrationCosts, OracleDynamicPolicy, PageAccessCounts, PageMap, PolicyConfig,
    ThresholdPolicy,
};
use starnuma_obs::{EventCategory, EventLevel, FieldValue, ObsSink, PhaseCheck};
use starnuma_sim::{MigrationMode, Modality, PhaseStats, RunConfig, RunResult, TimingSim};
use starnuma_topology::Network;
use starnuma_trace::{PhaseTrace, TraceGenerator, WorkloadProfile};
use starnuma_types::{CoreId, SimRng, REGION_PAGES};

use crate::spans::Spans;

/// Exact work counts of one run. Every field repeats exactly for a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub generate_calls: u64,
    pub generated_accesses: u64,
    pub tlb_flushes: u64,
    pub tracker_updates: u64,
    pub pages_planned: u64,
    pub pages_modeled: u64,
    pub pages_to_pool: u64,
    /// The counts below cover the measured phases only (not warm-up).
    pub llc_accesses: u64,
    pub llc_hits: u64,
    pub llc_writebacks: u64,
    pub dir_transactions: u64,
    pub invalidations: u64,
    pub bt_socket: u64,
    pub bt_pool: u64,
    /// UPI, NUMALink, CXL.
    pub link_transfers: [u64; 3],
    pub link_wait_cycles: [u64; 3],
    pub dram_socket: u64,
    pub dram_pool: u64,
}

impl Counts {
    /// `Network::leg` calls in the measured phases, derived exactly from
    /// `TimingSim::one_access`: two legs per memory-sourced miss, three per
    /// 3-hop and four per 4-hop (pool) cache-to-cache transfer, one per
    /// dirty writeback, per invalidation and per modeled migration.
    pub fn leg_calls(&self) -> u64 {
        let from_memory = self.dir_transactions - self.bt_socket - self.bt_pool;
        2 * from_memory
            + 3 * self.bt_socket
            + 4 * self.bt_pool
            + self.llc_writebacks
            + self.invalidations
            + self.pages_modeled
    }

    pub fn add(&mut self, o: &Counts) {
        let Counts {
            generate_calls,
            generated_accesses,
            tlb_flushes,
            tracker_updates,
            pages_planned,
            pages_modeled,
            pages_to_pool,
            llc_accesses,
            llc_hits,
            llc_writebacks,
            dir_transactions,
            invalidations,
            bt_socket,
            bt_pool,
            link_transfers,
            link_wait_cycles,
            dram_socket,
            dram_pool,
        } = *o;
        self.generate_calls += generate_calls;
        self.generated_accesses += generated_accesses;
        self.tlb_flushes += tlb_flushes;
        self.tracker_updates += tracker_updates;
        self.pages_planned += pages_planned;
        self.pages_modeled += pages_modeled;
        self.pages_to_pool += pages_to_pool;
        self.llc_accesses += llc_accesses;
        self.llc_hits += llc_hits;
        self.llc_writebacks += llc_writebacks;
        self.dir_transactions += dir_transactions;
        self.invalidations += invalidations;
        self.bt_socket += bt_socket;
        self.bt_pool += bt_pool;
        for k in 0..3 {
            self.link_transfers[k] += link_transfers[k];
            self.link_wait_cycles[k] += link_wait_cycles[k];
        }
        self.dram_socket += dram_socket;
        self.dram_pool += dram_pool;
    }
}

/// What a finished replica run hands back.
pub struct Outcome {
    pub result: RunResult,
    pub counts: Counts,
    /// The placement after the last phase, used to give the substrate
    /// replays realistic home locations.
    pub final_map: PageMap,
}

/// Generates one phase under a `trace.generate` span.
fn generate(
    gen: &mut TraceGenerator,
    instructions: u64,
    spans: &mut Spans,
    counts: &mut Counts,
) -> PhaseTrace {
    spans.enter("trace.generate");
    let t = gen.generate_phase(instructions);
    spans.exit();
    counts.generate_calls += 1;
    counts.generated_accesses += t.total_accesses() as u64;
    t
}

/// Everything the pipeline builds before its first measured phase. Its
/// construction is the benchmark's set-up boundary.
pub struct Setup {
    profile: WorkloadProfile,
    config: RunConfig,
    gen: TraceGenerator,
    map: PageMap,
    sim: TimingSim,
    tracking: bool,
    policy: ThresholdPolicy,
    oracle: OracleDynamicPolicy,
    tlbs: Vec<Tlb>,
    meta: MetadataRegion,
    rng: SimRng,
    counts: Counts,
}

impl Setup {
    /// Runs the pipeline up to its first measured phase: generator,
    /// warm-up trace, first-touch scouting and placement, hardware models,
    /// tracker and policy state, and the warm-up replay.
    pub fn new(profile: &WorkloadProfile, config: &RunConfig, spans: &mut Spans) -> Setup {
        let params = &config.params;
        let n_sockets = params.num_sockets;
        let cps = params.cores_per_socket;
        let fp = profile.footprint_pages;
        let pool_cap = config.pool_capacity_pages(fp);
        let num_regions = (fp as usize).div_ceil(REGION_PAGES);
        let mut counts = Counts::default();

        spans.enter("trace.generate");
        let mut gen = TraceGenerator::new(profile, n_sockets, cps, config.seed);
        spans.exit();
        let warmup_trace = (config.warmup_instructions > 0)
            .then(|| generate(&mut gen, config.warmup_instructions, spans, &mut counts));

        spans.enter("migration.placement");
        let mut map = match config.migration {
            MigrationMode::Threshold { .. }
            | MigrationMode::OracleDynamic
            | MigrationMode::FirstTouchOnly => {
                // First touch over the whole run: scout every phase with a
                // cloned generator and concatenate with icount offsets.
                let mut scout = gen.clone();
                let mut combined = warmup_trace.clone().unwrap_or_default();
                for _ in 0..config.phases {
                    let t = generate(
                        &mut scout,
                        config.instructions_per_phase,
                        spans,
                        &mut counts,
                    );
                    if combined.per_core.is_empty() {
                        combined = t;
                    } else {
                        for (dst, src) in combined.per_core.iter_mut().zip(t.per_core) {
                            let base = dst.last().map_or(0, |a| a.icount + 1);
                            dst.extend(src.into_iter().map(|mut a| {
                                a.icount += base;
                                a
                            }));
                        }
                    }
                }
                PageMap::first_touch(fp, pool_cap, &combined, cps, n_sockets)
            }
            other => panic!("the replica does not model migration mode {other:?}"),
        };
        spans.exit();

        spans.enter("topology.network_new");
        let net = Network::new(params);
        spans.exit();
        spans.enter("sim.timing_new");
        let mut sim = TimingSim::new(net, MigrationCosts::paper());
        sim.set_light_cpi(profile.base_cpi());
        spans.exit();

        spans.enter("migration.tracker_alloc");
        let (t0, tracking) = match config.migration {
            MigrationMode::Threshold { t0 } => (t0, true),
            _ => (false, false),
        };
        let mean_region_accesses = (config.instructions_per_phase as f64 * profile.mpki / 1000.0
            * (n_sockets * cps) as f64
            / num_regions as f64) as u64;
        let mut policy_cfg = if t0 {
            PolicyConfig::t0(u32::try_from(n_sockets).unwrap_or(u32::MAX))
        } else {
            PolicyConfig::t16_scaled(mean_region_accesses.max(2))
        };
        policy_cfg.migration_limit_pages = config.migration_limit_pages;
        let policy = ThresholdPolicy::new(policy_cfg, num_regions, params.has_pool);
        let oracle = OracleDynamicPolicy::new(
            ((config.instructions_per_phase as f64 * profile.mpki / 1000.0
                * (n_sockets * cps) as f64)
                / fp as f64)
                .max(2.0) as u32,
            config.migration_limit_pages,
        );
        let tlb_cfg = TlbConfig {
            entries: 64,
            counter_bits: if t0 { 0 } else { 16 },
        };
        let tlbs: Vec<Tlb> = (0..n_sockets * cps).map(|_| Tlb::new(tlb_cfg)).collect();
        let meta = MetadataRegion::new(num_regions, n_sockets, tlb_cfg.counter_bits);
        let rng = SimRng::seed_from_u64(config.seed ^ 0x6d69_6772);
        spans.exit();

        spans.enter("sim.warmup");
        if let Some(w) = &warmup_trace {
            sim.run_phase(
                w,
                &mut map,
                &[],
                profile.base_cpi(),
                profile.mlp,
                config.warmup_instructions,
                config.modality,
                false,
            );
            sim.reset_servers();
        }
        spans.exit();

        Setup {
            profile: profile.clone(),
            config: config.clone(),
            gen,
            map,
            sim,
            tracking,
            policy,
            oracle,
            tlbs,
            meta,
            rng,
            counts,
        }
    }

    /// Runs the measured phases and aggregates the result, recording into
    /// `obs` exactly as `Runner::run_observed` does.
    pub fn run(self, spans: &mut Spans, obs: &mut ObsSink) -> Outcome {
        let Setup {
            profile,
            config,
            mut gen,
            mut map,
            mut sim,
            tracking,
            mut policy,
            mut oracle,
            mut tlbs,
            mut meta,
            mut rng,
            mut counts,
        } = self;
        let n_sockets = config.params.num_sockets;
        let cps = config.params.cores_per_socket;
        let fp = profile.footprint_pages;

        let llc_start = sim.llc_stats();
        let dir_start = sim.directory_stats();
        let mut prev_llc = llc_start;
        let mut prev_dir = dir_start;
        let mut phase_stats: Vec<PhaseStats> = Vec::with_capacity(config.phases);
        for phase in 0..config.phases {
            let phase_no = u32::try_from(phase).unwrap_or(u32::MAX);
            obs.begin_phase(phase_no);
            starnuma_prof::set_phase(phase_no);
            let trace = generate(&mut gen, config.instructions_per_phase, spans, &mut counts);

            spans.enter("sim.checkpoint");
            let snapshot = map.clone();
            spans.exit();

            let plan = match config.migration {
                MigrationMode::Threshold { .. } if tracking => {
                    spans.enter("cache.tlb_replay");
                    for tlb in &mut tlbs {
                        tlb.set_markers();
                    }
                    for (core_idx, stream) in trace.per_core.iter().enumerate() {
                        let core = u32::try_from(core_idx).unwrap_or(u32::MAX);
                        let socket = CoreId::new(core).socket(cps);
                        let tlb = &mut tlbs[core_idx];
                        for a in stream {
                            for f in tlb.record_llc_miss(a.addr.page()) {
                                counts.tlb_flushes += 1;
                                if f.page.pfn() < fp {
                                    counts.tracker_updates += 1;
                                    meta.record(f.page.region(), socket, f.count);
                                }
                            }
                        }
                    }
                    spans.exit();
                    spans.enter("migration.decide");
                    let plan = policy.decide_observed(&meta, &mut map, &mut rng, obs);
                    meta.reset();
                    spans.exit();
                    plan
                }
                MigrationMode::OracleDynamic => {
                    spans.enter("migration.decide");
                    let counts = PageAccessCounts::from_trace(&trace, fp, n_sockets, cps);
                    let plan = oracle.decide(&counts, &mut map);
                    spans.exit();
                    plan
                }
                _ => Default::default(),
            };
            counts.pages_planned += plan.moves.len() as u64;

            let mut timing_map = snapshot;
            let phase_cycles = config.instructions_per_phase as f64 * profile.base_cpi();
            let budget_pages = (phase_cycles * 0.1 / 3_000.0).floor() as usize;
            let modeled_count = ((plan.moves.len() as f64 * config.modeled_migration_fraction)
                .round() as usize)
                .min(plan.moves.len())
                .min(budget_pages);
            obs.event(
                EventLevel::Info,
                EventCategory::Checkpoint,
                "phase_checkpoint",
                || {
                    vec![
                        ("edge", FieldValue::Str("begin".to_string())),
                        ("planned_moves", FieldValue::U64(plan.moves.len() as u64)),
                        ("modeled_moves", FieldValue::U64(modeled_count as u64)),
                        ("budget_pages", FieldValue::U64(budget_pages as u64)),
                    ]
                },
            );
            spans.enter("sim.run_phase");
            let stats = sim.run_phase_observed(
                &trace,
                &mut timing_map,
                &plan.moves[..modeled_count],
                profile.base_cpi(),
                profile.mlp,
                config.instructions_per_phase,
                config.modality,
                true,
                None,
                obs,
            );
            spans.exit();
            counts.pages_modeled += stats.migrations_modeled;

            spans.enter("sim.barrier");
            if let Modality::Mixed { .. } = config.modality {
                let ipc = stats.ipc();
                if ipc > 0.0 {
                    sim.set_light_cpi(1.0 / ipc);
                }
            }
            let links = sim.link_stats();
            for (k, st) in links.iter().enumerate() {
                counts.link_transfers[k] += st.transfers;
                counts.link_wait_cycles[k] += st.wait_cycles.raw();
            }
            let (socket_mem, pool_mem) = sim.memory_stats();
            counts.dram_socket += socket_mem.transfers;
            counts.dram_pool += pool_mem.map_or(0, |p| p.transfers);
            if obs.is_enabled() {
                let llc_now = sim.llc_stats();
                let dir_now = sim.directory_stats();
                let substrate_counters_monotone = llc_now.hits >= prev_llc.hits
                    && llc_now.misses >= prev_llc.misses
                    && llc_now.writebacks >= prev_llc.writebacks
                    && dir_now.transactions >= prev_dir.transactions
                    && dir_now.pool_transactions >= prev_dir.pool_transactions
                    && dir_now.bt_socket >= prev_dir.bt_socket
                    && dir_now.bt_pool >= prev_dir.bt_pool
                    && dir_now.invalidations >= prev_dir.invalidations
                    && dir_now.writebacks >= prev_dir.writebacks;
                obs.observe(
                    "llc",
                    &starnuma_cache::CacheStats {
                        hits: llc_now.hits.saturating_sub(prev_llc.hits),
                        misses: llc_now.misses.saturating_sub(prev_llc.misses),
                        writebacks: llc_now.writebacks.saturating_sub(prev_llc.writebacks),
                    },
                );
                prev_llc = llc_now;
                obs.observe(
                    "dir",
                    &starnuma_coherence::DirectoryStats {
                        transactions: dir_now.transactions.saturating_sub(prev_dir.transactions),
                        pool_transactions: dir_now
                            .pool_transactions
                            .saturating_sub(prev_dir.pool_transactions),
                        bt_socket: dir_now.bt_socket.saturating_sub(prev_dir.bt_socket),
                        bt_pool: dir_now.bt_pool.saturating_sub(prev_dir.bt_pool),
                        invalidations: dir_now.invalidations.saturating_sub(prev_dir.invalidations),
                        writebacks: dir_now.writebacks.saturating_sub(prev_dir.writebacks),
                    },
                );
                prev_dir = dir_now;
                let [upi, numalink, cxl] = links;
                obs.observe("link.upi", &upi);
                obs.observe("link.numalink", &numalink);
                obs.observe("link.cxl", &cxl);
                obs.observe("mem.socket", &socket_mem);
                if let Some(pool) = pool_mem {
                    obs.observe("mem.pool", &pool);
                }
                obs.check_monitors(&PhaseCheck {
                    phase: phase_no,
                    pool_pages: map.pool_pages(),
                    pool_capacity_pages: map.pool_capacity_pages(),
                    planned_moves: plan.total(),
                    migration_limit_pages: config.migration_limit_pages,
                    memory_accesses: stats.memory_accesses(),
                    substrate_counters_monotone,
                });
            }
            sim.reset_servers();
            phase_stats.push(stats);
            obs.event(
                EventLevel::Info,
                EventCategory::Checkpoint,
                "phase_checkpoint",
                || vec![("edge", FieldValue::Str("end".to_string()))],
            );
            obs.end_phase();
            spans.exit();
        }
        starnuma_prof::clear_phase();

        let (migrated, to_pool) = match config.migration {
            MigrationMode::Threshold { .. } => (policy.pages_migrated, policy.pages_to_pool),
            MigrationMode::OracleDynamic => (oracle.pages_migrated, 0),
            _ => (0, 0),
        };
        counts.pages_to_pool = to_pool;
        let llc_end = sim.llc_stats();
        let dir_end = sim.directory_stats();
        counts.llc_hits = llc_end.hits - llc_start.hits;
        counts.llc_accesses = counts.llc_hits + llc_end.misses - llc_start.misses;
        counts.llc_writebacks = llc_end.writebacks - llc_start.writebacks;
        counts.dir_transactions = dir_end.transactions - dir_start.transactions;
        counts.invalidations = dir_end.invalidations - dir_start.invalidations;
        counts.bt_socket = dir_end.bt_socket - dir_start.bt_socket;
        counts.bt_pool = dir_end.bt_pool - dir_start.bt_pool;
        let result = RunResult::from_phases(phase_stats, migrated, to_pool, dir_end)
            .expect("a benchmark run has at least one measured phase");
        Outcome {
            result,
            counts,
            final_map: map,
        }
    }
}
