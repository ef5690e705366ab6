//! Tier-1 gate for the hot-path index structures: replacing the
//! `BTreeMap`s with [`starnuma_types::DetMap`] (TLB annex index, in-flight
//! migration timing, replica masks) and, later, the directory's map with a
//! dense block-indexed array must be invisible in every result. None of
//! these indexes is iterated on the hot path, so `RunResult`s and rendered
//! obs exports must stay **bit-identical** to the BTreeMap baseline — the
//! golden digests below were recorded against that baseline and every
//! workload profile must still hash to them, at `--jobs 1` and `--jobs 4`.
//!
//! Regenerating goldens (only when an *intentional* model change lands):
//! `STARNUMA_BLESS=1 cargo test --test index_equivalence -- --nocapture`
//! prints the new table.
//!
//! One `#[test]` owns everything: the worker-count override is
//! process-global and concurrent tests must not flip it under each other.

use starnuma::obs::{metrics_json, trace_jsonl, RunMeta};
use starnuma::{set_global_jobs, Experiment, ScaleConfig, SystemKind, Workload};

/// Golden FNV-1a digests of `(RunResult debug, trace JSONL, metrics JSON)`
/// per workload. Order follows `Workload::ALL`. Last blessed when the
/// `phase_checkpoint` journal event gained paired begin/end `edge`
/// markers (an intentional trace-format change; results were unchanged —
/// `prof_determinism` guards that separately).
const GOLDEN: [(&str, u64); 8] = [
    ("SSSP", 0x5e9e055a702c2421),
    ("BFS", 0x827893079d93b9f1),
    ("CC", 0x376fb4797964dabe),
    ("TC", 0x631c9e5758b24d70),
    ("Masstree", 0xa15f49dc35cd8da3),
    ("TPCC", 0xb6016fe329e84dad),
    ("FMI", 0xd70cb127a163a8f9),
    ("POA", 0xd09527d41dee0dfe),
];

fn tiny() -> ScaleConfig {
    ScaleConfig {
        phases: 2,
        instructions_per_phase: 6_000,
        warmup_instructions: 0,
        ..ScaleConfig::quick()
    }
}

fn meta(workload: Workload) -> RunMeta {
    RunMeta {
        workload: workload.name().to_string(),
        system: SystemKind::StarNuma.label().to_string(),
        preset: "SC1".to_string(),
        jobs: 0,
        seed: 42,
        version: "gate".to_string(),
    }
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One workload's digest: RunResult (every float, bit-exact via Debug's
/// shortest-roundtrip rendering) + both rendered obs exports.
fn digest(workload: Workload) -> u64 {
    let (result, report) = Experiment::new(workload, SystemKind::StarNuma, tiny()).run_observed();
    let m = meta(workload);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv1a(format!("{result:?}").as_bytes(), h);
    h = fnv1a(trace_jsonl(&m, &report).as_bytes(), h);
    h = fnv1a(metrics_json(&m, &report.metrics).as_bytes(), h);
    h
}

#[test]
fn index_swap_is_bit_identical_across_workloads_and_jobs() {
    set_global_jobs(1);
    let sequential: Vec<(Workload, u64)> = Workload::ALL.iter().map(|&w| (w, digest(w))).collect();

    set_global_jobs(4);
    let parallel: Vec<(Workload, u64)> = Workload::ALL.iter().map(|&w| (w, digest(w))).collect();

    for ((w, seq), (_, par)) in sequential.iter().zip(&parallel) {
        assert_eq!(
            seq,
            par,
            "{}: digest diverges between --jobs 1 and --jobs 4",
            w.name()
        );
    }

    if std::env::var("STARNUMA_BLESS").is_ok() {
        println!("const GOLDEN: [(&str, u64); 8] = [");
        for (w, d) in &sequential {
            println!("    (\"{}\", {d:#018x}),", w.name());
        }
        println!("];");
        return;
    }

    for ((w, d), (gw, gd)) in sequential.iter().zip(GOLDEN.iter()) {
        assert_eq!(w.name(), *gw, "golden table order drifted");
        assert_eq!(
            *d,
            *gd,
            "{}: result/export digest {d:#018x} != golden {gd:#018x} — the index \
             swap (or a model change) altered observable output; if intentional, \
             regenerate with STARNUMA_BLESS=1",
            w.name()
        );
    }
}
