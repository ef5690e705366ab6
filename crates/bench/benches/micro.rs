//! Micro-benchmarks of the simulator's hot paths: the components every
//! simulated memory access flows through. Timed with a plain wall-clock
//! harness (the bench crate is the one place wall time is allowed —
//! simulation crates are lint-clean of it per SN002).

use std::hint::black_box;
use std::time::Instant;

use starnuma_cache::{CacheConfig, SetAssocCache, Tlb, TlbConfig};
use starnuma_coherence::Directory;
use starnuma_mem::{DramTimings, FifoServer, MemoryModule};
use starnuma_topology::{Network, SystemParams};
use starnuma_trace::{TraceGenerator, Workload};
use starnuma_types::{BlockAddr, Cycles, GbPerSec, Location, PageId, SimRng, SocketId};

/// Runs `f` for `iters` iterations and prints mean ns/op.
fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    // Short warm-up so cold caches don't dominate small iteration counts.
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ns_per_op = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<36} {iters:>10} iters {ns_per_op:>12.1} ns/op");
}

fn bench_llc(iters: u64) {
    let mut cache = SetAssocCache::new(CacheConfig::scaled_llc());
    let mut rng = SimRng::seed_from_u64(1);
    bench("llc_access", iters, || {
        let block = BlockAddr::new(rng.gen_range(0u64..2_000_000));
        black_box(cache.access(block, rng.gen_bool(0.3)));
    });
}

fn bench_tlb(iters: u64) {
    let mut tlb = Tlb::new(TlbConfig {
        entries: 64,
        counter_bits: 16,
    });
    let mut rng = SimRng::seed_from_u64(2);
    bench("tlb_record_llc_miss", iters, || {
        let page = PageId::new(rng.gen_range(0u64..32_768));
        black_box(tlb.record_llc_miss(page));
    });
}

fn bench_directory(iters: u64) {
    let mut dir = Directory::new(16);
    let mut rng = SimRng::seed_from_u64(3);
    bench("directory_access", iters, || {
        let block = BlockAddr::new(rng.gen_range(0u64..1_000_000));
        let socket = SocketId::new(rng.gen_range(0u16..16));
        black_box(dir.access(block, socket, rng.gen_bool(0.3), Location::Pool));
    });
}

fn bench_fifo_server(iters: u64) {
    let mut server = FifoServer::new(GbPerSec::new(3.0));
    let mut t = 0u64;
    bench("fifo_server_enqueue", iters, || {
        t += 40;
        black_box(server.enqueue(Cycles::new(t), 72));
    });
}

fn bench_dram(iters: u64) {
    let mut mem = MemoryModule::new(2, GbPerSec::new(50.0), DramTimings::ddr5_4800());
    let mut rng = SimRng::seed_from_u64(4);
    let mut t = 0u64;
    bench("dram_module_access", iters, || {
        t += 20;
        black_box(mem.access(
            Cycles::new(t),
            BlockAddr::new(rng.gen_range(0u64..2_000_000)),
        ));
    });
}

fn bench_routing(iters: u64) {
    let net = Network::new(&SystemParams::scaled_starnuma());
    let mut rng = SimRng::seed_from_u64(5);
    bench("network_route", iters, || {
        let s = SocketId::new(rng.gen_range(0u16..16));
        let target = if rng.gen_bool(0.3) {
            Location::Pool
        } else {
            Location::Socket(SocketId::new(rng.gen_range(0u16..16)))
        };
        let src = Location::Socket(s);
        black_box((
            net.leg(src, target),
            net.leg(target, src),
            net.latency().demand_access(s, target),
            net.classify(s, target),
        ));
    });
}

fn bench_trace_generation(iters: u64) {
    let profile = Workload::Bfs.profile();
    let mut gen = TraceGenerator::new(&profile, 16, 4, 6);
    bench("trace_generate_1k_instr_per_core", iters, || {
        black_box(gen.generate_phase(1_000));
    });
}

fn main() {
    println!("micro-benchmarks (mean over fixed iteration counts)\n");
    bench_llc(200_000);
    bench_tlb(200_000);
    bench_directory(200_000);
    bench_fifo_server(200_000);
    bench_dram(200_000);
    bench_routing(200_000);
    bench_trace_generation(50);
}
