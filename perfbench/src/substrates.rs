//! Standalone replays of the substrates `TimingSim::run_phase` calls
//! internally, which no span can reach from outside: LLC lookup, directory
//! transaction, `Network::leg`, link `enqueue` and DRAM access.
//!
//! Each replay feeds the run's own first measured phase (regenerated from
//! the seed, after the same warm-up) through a fresh instance of one
//! substrate and reports host ns per call. Multiplied by the exact call
//! counts from `TimingSim`'s public stats, these give each substrate's
//! share of `sim.run_phase_s`; the rest is the event loop's self time.

use std::hint::black_box;
use std::time::Instant;

use starnuma_cache::{CacheConfig, CacheOutcome, SetAssocCache};
use starnuma_coherence::Directory;
use starnuma_mem::{DramTimings, FifoServer, MemoryModule};
use starnuma_migration::PageMap;
use starnuma_sim::RunConfig;
use starnuma_topology::Network;
use starnuma_trace::{PhaseTrace, TraceGenerator, WorkloadProfile};
use starnuma_types::{BlockAddr, Cycles, GbPerSec, Location, MemAccess, SocketId};

/// Host nanoseconds per call of each substrate.
#[derive(Clone, Copy, Debug, Default)]
pub struct NsPerOp {
    /// `SetAssocCache::access`.
    pub llc: f64,
    /// `Directory::access` plus the eviction notice that precedes it.
    pub dir: f64,
    /// `Network::leg`.
    pub leg: f64,
    /// `FifoServer::enqueue`.
    pub enqueue: f64,
    /// `MemoryModule::access`.
    pub dram: f64,
}

/// Bytes of a request and of a data message, as `TimingSim` charges them.
const REQ_BYTES: u64 = 16;
const DATA_BYTES: u64 = 72;
/// `TimingSim` runs its DRAM data buses at the raw DDR5-4800 rate.
const RAW_OVER_EFFECTIVE: f64 = 38.4 / 25.0;

struct Miss {
    block: BlockAddr,
    socket: SocketId,
    write: bool,
    evicted: Option<(BlockAddr, bool)>,
    home: Location,
    now: Cycles,
}

/// A trace's accesses in (icount, core) order, an approximation of the
/// event loop's issue order.
fn issue_order(trace: &PhaseTrace) -> Vec<MemAccess> {
    let mut all: Vec<(u64, usize, MemAccess)> = trace
        .per_core
        .iter()
        .enumerate()
        .flat_map(|(c, s)| s.iter().map(move |a| (a.icount, c, *a)))
        .collect();
    all.sort_by_key(|&(icount, core, _)| (icount, core));
    all.into_iter().map(|(_, _, a)| a).collect()
}

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Replays the first measured phase of `config` through each substrate.
pub fn replay(profile: &WorkloadProfile, config: &RunConfig, map: &PageMap) -> NsPerOp {
    let params = &config.params;
    let cps = params.cores_per_socket;
    let mut gen = TraceGenerator::new(profile, params.num_sockets, cps, config.seed);
    let warm = issue_order(&gen.generate_phase(config.warmup_instructions));
    let phase = issue_order(&gen.generate_phase(config.instructions_per_phase));

    // LLC: warm, snapshot, record the miss stream, then time a clean pass
    // from the snapshot.
    let mut llcs: Vec<SetAssocCache> = (0..params.num_sockets)
        .map(|_| SetAssocCache::new(CacheConfig::scaled_llc()))
        .collect();
    let mut warm_misses = Vec::new();
    let mut misses = Vec::new();
    let record = |llcs: &mut [SetAssocCache], a: &MemAccess, out: &mut Vec<Miss>| {
        let socket = a.core.socket(cps);
        let block = a.addr.block();
        let write = a.kind.is_write();
        if let CacheOutcome::Miss { evicted } = llcs[socket.index() as usize].access(block, write) {
            out.push(Miss {
                block,
                socket,
                write,
                evicted,
                home: map.location(a.addr.page()),
                now: Cycles::new((a.icount as f64 * profile.base_cpi()) as u64),
            });
        }
    };
    for a in &warm {
        record(&mut llcs, a, &mut warm_misses);
    }
    let warmed = llcs.clone();
    for a in &phase {
        record(&mut llcs, a, &mut misses);
    }
    let mut llcs = warmed;
    let start = Instant::now();
    for a in &phase {
        let socket = a.core.socket(cps).index() as usize;
        black_box(llcs[socket].access(a.addr.block(), a.kind.is_write()));
    }
    let llc = ns_per(start, phase.len());

    let mut directory = Directory::new(params.num_sockets);
    let transaction = |d: &mut Directory, m: &Miss| {
        if let Some((victim, dirty)) = m.evicted {
            d.evict(victim, m.socket, dirty);
        }
        d.access(m.block, m.socket, m.write, m.home)
    };
    for m in &warm_misses {
        transaction(&mut directory, m);
    }
    let start = Instant::now();
    for m in &misses {
        black_box(transaction(&mut directory, m));
    }
    let dir = ns_per(start, misses.len());

    let net = Network::new(params);
    let start = Instant::now();
    for m in &misses {
        let requester = Location::Socket(m.socket);
        black_box(net.leg(requester, m.home));
        black_box(net.leg(m.home, requester));
    }
    let leg = ns_per(start, 2 * misses.len());

    let mut enqueues = Vec::new();
    for m in &misses {
        let requester = Location::Socket(m.socket);
        for link in net.leg(requester, m.home) {
            enqueues.push((link.index(), m.now, REQ_BYTES));
        }
        for link in net.leg(m.home, requester) {
            enqueues.push((link.index(), m.now, DATA_BYTES));
        }
    }
    let mut links: Vec<FifoServer> = net
        .link_ids()
        .map(|id| FifoServer::new(GbPerSec::new(net.link_bandwidth_gbps(id))))
        .collect();
    let start = Instant::now();
    for &(link, now, bytes) in &enqueues {
        black_box(links[link].enqueue(now, bytes));
    }
    let enqueue = ns_per(start, enqueues.len());

    let timings = DramTimings::ddr5_4800();
    let mut sockets: Vec<MemoryModule> = (0..params.num_sockets)
        .map(|_| MemoryModule::new(1, params.socket_mem_bw.scale(RAW_OVER_EFFECTIVE), timings))
        .collect();
    let mut pool = MemoryModule::new(2, params.pool_mem_bw.scale(RAW_OVER_EFFECTIVE), timings);
    let start = Instant::now();
    for m in &misses {
        let module = match m.home {
            Location::Socket(s) => &mut sockets[s.index() as usize],
            Location::Pool => &mut pool,
        };
        black_box(module.access(m.now, m.block));
    }
    let dram = ns_per(start, misses.len());

    NsPerOp {
        llc,
        dir,
        leg,
        enqueue,
        dram,
    }
}
