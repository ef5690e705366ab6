//! Host-time benchmark of the StarNUMA simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bfs-starnuma --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload's whole run for `--seconds` and
//! reports the end-to-end metrics (medians) with the benchmark's own
//! tracing off. `--trace 1` alternates untraced runs with a traced replica
//! of the pipeline and reports the per-layer metrics. Every run's
//! `RunResult` is hashed and checked; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The process
//! exits non-zero when any output or replica check fails.

mod replica;
mod spans;
mod stats;
mod substrates;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use starnuma::{Experiment, JobPool, RunConfig, RunResult, Runner, ScaleConfig, SystemKind};
use starnuma_obs::{metrics_json, trace_jsonl, ObsSink, RunMeta};
use starnuma_sim::MigrationMode;
use starnuma_types::{digest_hex, fnv1a_digest};

use replica::{Counts, Outcome, Setup};
use spans::Spans;
use stats::{median, tail_percentile};
use workloads::{Workload, HELD_OUT_SEED, TUNING_SEED};

/// Share of a traced candidate's wall time its top-level spans must cover.
const ACCOUNTING_MARGIN: f64 = 0.05;
/// Share of `--seconds` spent timing set-up before the whole runs.
const SETUP_SHARE: f64 = 0.25;
/// Fewest samples a timed loop takes, whatever `--seconds` says.
const MIN_SAMPLES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: make one whole run and print its digest and peak RSS.
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let name = get("workload").ok_or("--workload is required")?;
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    let workload = workloads::find(name)
        .ok_or_else(|| format!("unknown workload '{name}' (expected one of {names:?})"))?;
    let seed = get("seed")
        .unwrap_or("42")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let rss_probe = get("rss-probe") == Some("1");
    if let Some(unknown) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "rss-probe"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1) as f64,
        trace,
        rss_probe,
    })
}

fn digest(result: &RunResult) -> u64 {
    fnv1a_digest(format!("{result:?}").as_bytes())
}

/// Simulated LLC accesses and instructions of a result's measured phases.
fn sim_work(result: &RunResult) -> (u64, u64) {
    result.phases.iter().fold((0, 0), |(acc, ins), p| {
        (acc + p.llc_hits + p.memory_accesses(), ins + p.instructions)
    })
}

/// The configs a workload's run simulates: the §IV-C candidate pair for
/// the limit-tuned baseline (as `Experiment::run` builds it), else one.
fn candidates(w: &Workload, exp: &Experiment) -> Vec<RunConfig> {
    if w.system == SystemKind::Baseline {
        let mut dynamic = exp.run_config();
        dynamic.migration = MigrationMode::OracleDynamic;
        let mut zero = exp.run_config();
        zero.migration = MigrationMode::FirstTouchOnly;
        vec![dynamic, zero]
    } else {
        vec![exp.run_config()]
    }
}

/// `Experiment::run`'s choice between candidate results.
fn pick(mut results: Vec<RunResult>) -> RunResult {
    if results.len() == 2 && results[1].ipc > results[0].ipc {
        results.swap_remove(1)
    } else {
        results.swap_remove(0)
    }
}

fn run_meta(w: &Workload, seed: u64) -> RunMeta {
    RunMeta {
        workload: w.kernel.name().to_string(),
        system: w.system.label().to_string(),
        preset: "SC1".to_string(),
        jobs: JobPool::global().workers() as u64,
        seed,
        version: env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// One whole untraced run, the way a user runs the workload.
struct WholeRun {
    secs: f64,
    result: RunResult,
    /// Profiled workload only: digest of the trace + metrics exports,
    /// profiler scopes entered, and journal events recorded.
    exports_digest: u64,
    prof_scopes: u64,
    obs_events: u64,
}

fn whole_run(w: &Workload, exp: &Experiment, seed: u64) -> WholeRun {
    if !w.profiled {
        let start = Instant::now();
        let result = exp.run();
        return WholeRun {
            secs: start.elapsed().as_secs_f64(),
            result,
            exports_digest: 0,
            prof_scopes: 0,
            obs_events: 0,
        };
    }
    let meta = run_meta(w, seed);
    starnuma_prof::reset();
    starnuma_prof::set_enabled(true);
    let start = Instant::now();
    let (result, report) = exp.run_observed();
    let ran = Instant::now();
    starnuma_prof::set_enabled(false);
    let profile = starnuma_prof::take_report();
    let (exports_digest, prof_scopes) = render_exports(&meta, &report, &profile, ran - start);
    WholeRun {
        secs: start.elapsed().as_secs_f64(),
        result,
        exports_digest,
        prof_scopes,
        obs_events: report.events.len() as u64 + report.dropped_events,
    }
}

/// Renders what `starnuma profile run --metrics-out --trace-out` writes.
/// Returns the digest of the deterministic exports and the number of
/// profiler scopes entered.
fn render_exports(
    meta: &RunMeta,
    report: &starnuma_obs::ObsReport,
    profile: &starnuma_prof::ProfReport,
    wall: std::time::Duration,
) -> (u64, u64) {
    let trace = trace_jsonl(meta, report);
    let metrics = metrics_json(meta, &report.metrics);
    let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    std::hint::black_box(profile.to_json("profile run", wall_ns));
    let scopes = profile
        .phases
        .iter()
        .flat_map(|p| p.edges.iter())
        .map(|e| e.calls)
        .sum();
    let exports = fnv1a_digest(format!("{trace}{metrics}").as_bytes());
    (exports, scopes)
}

/// Failure bookkeeping shared by both modes.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn fail(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.errors.push(msg);
    }

    /// Runs `f` as one attempted run; a panic or a failed check counts it
    /// as failed.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce(&mut Checks) -> T) -> Option<T> {
        self.attempted += 1;
        let before = self.errors.len();
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(v) if self.errors.len() == before => Some(v),
            Ok(_) => {
                self.failed += 1;
                None
            }
            Err(_) => {
                self.failed += 1;
                self.fail(format!("{what} panicked"));
                None
            }
        }
    }

    /// The expected digest of the reported result: the golden one at the
    /// tuning seed, else the first one seen in this process.
    fn result_digest(&mut self, expected: &mut Option<u64>, got: u64, what: &str) {
        match *expected {
            Some(want) if want != got => self.fail(format!(
                "{what}: result digest {} != expected {}",
                digest_hex(got),
                digest_hex(want)
            )),
            Some(_) => {}
            None => *expected = Some(got),
        }
    }
}

/// Runs this program again with `--rss-probe 1`: one whole run in a fresh
/// process, which prints its result digest and peak RSS. Waits for it.
fn probe_peak_rss(args: &Args) -> Result<(u64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name, "--seed"])
        .arg(args.seed.to_string())
        .args(["--rss-probe", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the peak-RSS probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text.split_whitespace().collect::<Vec<_>>();
    match (out.status.success(), parsed.as_slice()) {
        (true, [d, mb]) => Ok((
            starnuma_types::parse_digest_hex(d).ok_or("probe printed a bad digest")?,
            mb.parse()
                .map_err(|e| format!("probe printed a bad RSS: {e}"))?,
        )),
        _ => Err(format!("peak-RSS probe failed: {}", out.status)),
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(args: &Args, exp: &Experiment, checks: &mut Checks) -> Metrics {
    let w = &args.workload;
    let profile = w.kernel.profile();
    let configs = candidates(w, exp);
    let start = Instant::now();
    let mut expected = (args.seed == TUNING_SEED).then_some(w.golden_digest);

    // Peak RSS of one whole run in a fresh process, so neither the other
    // samples of this run nor allocator state they leave behind count.
    let peak = checks.attempt("peak-RSS probe", |c| match probe_peak_rss(args) {
        Ok((d, mb)) => {
            c.result_digest(&mut expected, d, "probe run");
            mb
        }
        Err(e) => {
            c.fail(e);
            0.0
        }
    });

    // The profiled result must hash like a plain run of the same seed.
    if w.profiled {
        checks.attempt("plain run", |c| {
            let d = digest(&exp.run());
            c.result_digest(&mut expected, d, "plain run");
        });
    }

    // Whole runs interleaved with set-ups (the pipeline up to its first
    // measured phase, summed over the candidates), so both sample the same
    // stretch of machine noise. Set-ups take about SETUP_SHARE of the time.
    let mut runs: Vec<WholeRun> = Vec::new();
    let mut setups = Vec::new();
    let mut exports = None;
    let mut iterations = 0;
    while checks.errors.is_empty() {
        let run = checks.attempt("run", |c| {
            let run = whole_run(w, exp, args.seed);
            c.result_digest(&mut expected, digest(&run.result), "run");
            if w.profiled {
                c.result_digest(&mut exports, run.exports_digest, "exports");
            }
            run
        });
        let Some(run) = run else { break };
        let target = run.secs * SETUP_SHARE / (1.0 - SETUP_SHARE);
        runs.push(run);
        let mut spent = 0.0;
        while spent < target && checks.errors.is_empty() {
            let secs = checks.attempt("set-up", |_| {
                let mut total = 0.0;
                for cfg in &configs {
                    starnuma_prof::set_enabled(w.profiled);
                    let t = Instant::now();
                    let setup = Setup::new(&profile, cfg, &mut Spans::new(false, t));
                    total += t.elapsed().as_secs_f64();
                    starnuma_prof::set_enabled(false);
                    drop(setup);
                }
                total
            });
            spent += secs.unwrap_or(f64::INFINITY);
            setups.extend(secs);
        }
        starnuma_prof::reset();
        iterations += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if runs.len() >= MIN_SAMPLES && elapsed + elapsed / iterations as f64 > args.seconds {
            break;
        }
    }
    let Some(peak) = peak else {
        return Vec::new();
    };
    if runs.is_empty() || setups.is_empty() {
        return Vec::new();
    }

    let secs: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    let (accesses, instructions) = sim_work(&runs[0].result);
    let per_s = |work: f64| median(&secs.iter().map(|s| work / s).collect::<Vec<_>>());
    println!(
        "{}: {} runs, {} set-ups, seed {} (tuning seed {TUNING_SEED}, held-out seed {HELD_OUT_SEED})",
        w.name,
        runs.len(),
        setups.len(),
        args.seed
    );
    println!("why: {}", w.why);
    println!("result digest {}", digest_hex(digest(&runs[0].result)));
    match tail_percentile(&secs) {
        Some((p, v)) => println!("run_s p{p} = {v} s ({} samples)", secs.len()),
        None => println!(
            "run_s: no percentile above the median has 10 samples beyond it ({} samples)",
            secs.len()
        ),
    }
    vec![
        ("run_s", median(&secs), "s"),
        ("sim_accesses_per_s", per_s(accesses as f64), "1/s"),
        (
            "sim_minstr_per_s",
            per_s(instructions as f64 / 1e6),
            "Minstr/s",
        ),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", peak, "MB"),
    ]
}

/// One traced candidate: the replica under spans, plus (profiled workload)
/// the exports rendered under an `obs.export` span.
struct Traced {
    outcome: Outcome,
    spans: Spans,
    exports_digest: u64,
}

fn traced_candidate(w: &Workload, cfg: &RunConfig, seed: u64, origin: Instant) -> Traced {
    let profile = w.kernel.profile();
    let mut spans = Spans::new(true, origin);
    spans.enter("candidate");
    let mut obs = if w.profiled {
        starnuma_prof::reset();
        starnuma_prof::set_enabled(true);
        ObsSink::enabled(
            cfg.params.num_sockets,
            starnuma_sim::access_class_labels(),
            starnuma_obs::DEFAULT_JOURNAL_CAPACITY,
        )
    } else {
        ObsSink::disabled()
    };
    let run_start = Instant::now();
    let setup = Setup::new(&profile, cfg, &mut spans);
    let outcome = setup.run(&mut spans, &mut obs);
    let mut exports_digest = 0;
    if w.profiled {
        let wall = run_start.elapsed();
        spans.enter("obs.export");
        starnuma_prof::set_enabled(false);
        let prof_report = starnuma_prof::take_report();
        let report = obs.finish();
        exports_digest = render_exports(&run_meta(w, seed), &report, &prof_report, wall).0;
        spans.exit();
    }
    spans.exit();
    Traced {
        outcome,
        spans,
        exports_digest,
    }
}

/// One untraced reference run in trace mode: wall time, the summed time
/// of the candidate jobs, each candidate's digest, and (profiled workload)
/// the profiler scope and journal event counts.
struct Reference {
    wall_s: f64,
    busy_s: f64,
    digests: Vec<u64>,
    prof_scopes: u64,
    obs_events: u64,
}

/// Substrate call counts in `NsPerOp` order: LLC accesses, directory
/// transactions, legs, link enqueues, DRAM accesses.
fn substrate_calls(c: &Counts) -> [u64; 5] {
    [
        c.llc_accesses,
        c.dir_transactions,
        c.leg_calls(),
        c.link_transfers.iter().sum(),
        c.dram_socket + c.dram_pool,
    ]
}

fn per_layer(args: &Args, exp: &Experiment, checks: &mut Checks) -> Metrics {
    let w = &args.workload;
    let profile = w.kernel.profile();
    let configs = candidates(w, exp);
    let pool = JobPool::global();
    let origin = Instant::now();
    let mut expected = (args.seed == TUNING_SEED).then_some(w.golden_digest);
    let mut exports = None;
    let mut counts_seen: Option<Counts> = None;
    let mut reps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut span_log = String::new();
    // Σ calls × ns/op per substrate, and the seconds they add up to.
    let mut weighted = [0.0f64; 5];
    let mut substrate_s = 0.0;
    let mut prof_counts = (0, 0);

    while checks.errors.is_empty() {
        let rep_start = Instant::now();
        // Untraced reference: the candidates as `Experiment::run` fans them
        // out, each timed inside its job (or the profiled whole run).
        let reference = checks.attempt("untraced run", |c| {
            let wall = Instant::now();
            let (timed, prof_scopes, obs_events): (Vec<(f64, RunResult)>, u64, u64) = if w.profiled
            {
                let run = whole_run(w, exp, args.seed);
                c.result_digest(&mut exports, run.exports_digest, "exports");
                (
                    vec![(run.secs, run.result)],
                    run.prof_scopes,
                    run.obs_events,
                )
            } else {
                let timed = pool.run(configs.clone(), |_, cfg| {
                    let t = Instant::now();
                    let r = Runner::new(profile.clone(), cfg).run();
                    (t.elapsed().as_secs_f64(), r)
                });
                (timed, 0, 0)
            };
            let wall_s = wall.elapsed().as_secs_f64();
            let digests = timed.iter().map(|(_, r)| digest(r)).collect();
            let busy_s = timed.iter().map(|(s, _)| s).sum();
            let reported = pick(timed.into_iter().map(|(_, r)| r).collect());
            c.result_digest(&mut expected, digest(&reported), "untraced run");
            Reference {
                wall_s,
                busy_s,
                digests,
                prof_scopes,
                obs_events,
            }
        });
        // The profiler's cost: the profiled whole run over a plain run.
        let plain_s = if w.profiled {
            checks.attempt("plain run", |c| {
                let t = Instant::now();
                let d = digest(&exp.run());
                c.result_digest(&mut expected, d, "plain run");
                t.elapsed().as_secs_f64()
            })
        } else {
            None
        };
        let traced = checks.attempt("traced run", |c| {
            let wall = Instant::now();
            let traced = pool.run(configs.clone(), |_, cfg| {
                traced_candidate(w, &cfg, args.seed, origin)
            });
            if w.profiled {
                c.result_digest(&mut exports, traced[0].exports_digest, "replica exports");
            }
            (wall.elapsed().as_secs_f64(), traced)
        });
        let (Some(reference), Some((traced_s, traced))) = (reference, traced) else {
            break;
        };

        // Replica check: every candidate reproduces `Runner` bit for bit.
        let mut counts = Counts::default();
        for (i, (t, want)) in traced.iter().zip(&reference.digests).enumerate() {
            let got = digest(&t.outcome.result);
            if got != *want {
                checks.fail(format!(
                    "replica of candidate {i} diverges from Runner: {} != {}",
                    digest_hex(got),
                    digest_hex(*want)
                ));
            }
            counts.add(&t.outcome.counts);
        }
        // Exact work counts repeat across runs.
        match counts_seen {
            Some(seen) if seen != counts => checks.fail(format!(
                "work counts differ between runs: {seen:?} vs {counts:?}"
            )),
            _ => counts_seen = Some(counts),
        }
        // Accounting: top-level spans cover each candidate's wall time.
        let (wall, unaccounted) = traced.iter().fold((0.0, 0.0), |(w0, u0), t| {
            let (w1, u1) = t.spans.accounting();
            (w0 + w1, u0 + u1)
        });
        if unaccounted > ACCOUNTING_MARGIN * wall {
            checks.fail(format!(
                "spans cover {:.1}% of traced wall, below the {:.0}% margin",
                100.0 * (1.0 - unaccounted / wall),
                100.0 * (1.0 - ACCOUNTING_MARGIN)
            ));
        }
        if !checks.errors.is_empty() {
            break;
        }

        let total = |name: &str| traced.iter().map(|t| t.spans.total_s(name)).sum::<f64>();
        let mut m = BTreeMap::new();
        for name in [
            "trace.generate",
            "cache.tlb_replay",
            "migration.decide",
            "sim.run_phase",
            "sim.warmup",
            "sim.checkpoint",
            "topology.network_new",
            "obs.export",
        ] {
            m.insert(name, total(name));
        }
        m.insert(
            "migration.placement_self",
            traced
                .iter()
                .map(|t| t.spans.self_s("migration.placement"))
                .sum(),
        );
        m.insert(
            "setup",
            traced
                .iter()
                .map(|t| t.spans.offset_of_end("sim.warmup").unwrap_or(0.0))
                .sum(),
        );
        m.insert("unaccounted", unaccounted);
        m.insert("trace_overhead", traced_s / reference.wall_s);
        m.insert(
            "pool_efficiency",
            reference.busy_s / (pool.workers() as f64 * reference.wall_s),
        );
        m.insert(
            "prof_overhead",
            plain_s.map_or(0.0, |plain| reference.wall_s / plain),
        );
        reps.push(m);
        prof_counts = (reference.prof_scopes, reference.obs_events);
        for (i, t) in traced.iter().enumerate() {
            for s in t.spans.spans() {
                span_log.push_str(&format!(
                    "{{\"rep\":{},\"candidate\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
                    reps.len() - 1,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                ));
            }
        }

        // Substrate ns/op from standalone replays (once), weighted by each
        // candidate's exact call counts.
        if reps.len() == 1 {
            for (t, cfg) in traced.iter().zip(&configs) {
                let ns = substrates::replay(&profile, cfg, &t.outcome.final_map);
                let per = [ns.llc, ns.dir, ns.leg, ns.enqueue, ns.dram];
                for (k, calls) in substrate_calls(&t.outcome.counts).into_iter().enumerate() {
                    weighted[k] += calls as f64 * per[k];
                    substrate_s += calls as f64 * per[k] / 1e9;
                }
            }
        }
        let per_rep = rep_start.elapsed().as_secs_f64();
        if origin.elapsed().as_secs_f64() + per_rep > args.seconds {
            break;
        }
    }
    let Some(c) = counts_seen.filter(|_| !reps.is_empty() && checks.errors.is_empty()) else {
        return Vec::new();
    };
    write_spans(w, args.seed, &span_log);

    let calls = substrate_calls(&c);
    let ns_per = |k: usize| weighted[k] / calls[k].max(1) as f64;
    let med = |key: &str| median(&reps.iter().map(|m| m[key]).collect::<Vec<_>>());
    let run_phase_s = med("sim.run_phase");
    let generate_s = med("trace.generate");
    let n = |v: u64| v as f64;
    println!(
        "{}: {} traced runs, seed {}; set-up boundary at {} s (median)",
        w.name,
        reps.len(),
        args.seed,
        med("setup")
    );
    vec![
        ("trace.generate_s", generate_s, "s"),
        ("trace.generate_calls", n(c.generate_calls), "count"),
        (
            "trace.accesses_per_s",
            n(c.generated_accesses) / generate_s,
            "1/s",
        ),
        ("cache.tlb_replay_s", med("cache.tlb_replay"), "s"),
        ("cache.tlb_flushes", n(c.tlb_flushes), "count"),
        ("migration.tracker_updates", n(c.tracker_updates), "count"),
        ("migration.decide_s", med("migration.decide"), "s"),
        (
            "migration.placement_s",
            med("migration.placement_self"),
            "s",
        ),
        ("migration.pages_planned", n(c.pages_planned), "count"),
        ("migration.pages_modeled", n(c.pages_modeled), "count"),
        ("migration.pages_to_pool", n(c.pages_to_pool), "count"),
        ("sim.run_phase_s", run_phase_s, "s"),
        (
            "sim.ns_per_access",
            run_phase_s * 1e9 / n(c.llc_accesses).max(1.0),
            "ns",
        ),
        ("sim.warmup_s", med("sim.warmup"), "s"),
        ("sim.checkpoint_s", med("sim.checkpoint"), "s"),
        ("sim.event_loop_self_s", run_phase_s - substrate_s, "s"),
        ("cache.llc_accesses", n(c.llc_accesses), "count"),
        (
            "cache.llc_hit_ratio",
            n(c.llc_hits) / n(c.llc_accesses).max(1.0),
            "ratio",
        ),
        ("cache.llc_access_ns", ns_per(0), "ns"),
        ("coherence.dir_transactions", n(c.dir_transactions), "count"),
        ("coherence.invalidations", n(c.invalidations), "count"),
        ("coherence.bt_socket", n(c.bt_socket), "count"),
        ("coherence.bt_pool", n(c.bt_pool), "count"),
        ("coherence.dir_access_ns", ns_per(1), "ns"),
        ("topology.leg_ns", ns_per(2), "ns"),
        ("topology.leg_calls", n(c.leg_calls()), "count"),
        ("topology.network_new_s", med("topology.network_new"), "s"),
        ("mem.enqueue_ns", ns_per(3), "ns"),
        ("mem.link_transfers.upi", n(c.link_transfers[0]), "count"),
        (
            "mem.link_transfers.numalink",
            n(c.link_transfers[1]),
            "count",
        ),
        ("mem.link_transfers.cxl", n(c.link_transfers[2]), "count"),
        (
            "mem.link_wait_cycles.upi",
            n(c.link_wait_cycles[0]),
            "cycles",
        ),
        (
            "mem.link_wait_cycles.numalink",
            n(c.link_wait_cycles[1]),
            "cycles",
        ),
        (
            "mem.link_wait_cycles.cxl",
            n(c.link_wait_cycles[2]),
            "cycles",
        ),
        ("mem.dram_transfers.socket", n(c.dram_socket), "count"),
        ("mem.dram_transfers.pool", n(c.dram_pool), "count"),
        ("mem.dram_access_ns", ns_per(4), "ns"),
        ("prof.scopes", n(prof_counts.0), "count"),
        ("prof.overhead_ratio", med("prof_overhead"), "ratio"),
        ("obs.export_s", med("obs.export"), "s"),
        ("obs.events", n(prof_counts.1), "count"),
        ("core.pool_efficiency", med("pool_efficiency"), "ratio"),
        ("bench.trace_overhead", med("trace_overhead"), "ratio"),
        ("bench.unaccounted_s", med("unaccounted"), "s"),
    ]
}

/// Writes the traced runs' spans as JSON lines under the build directory.
fn write_spans(w: &Workload, seed: u64, log: &str) {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&target).join("perfbench-spans");
    let path = dir.join(format!("{}-seed{seed}.jsonl", w.name));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, log)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    starnuma::set_global_jobs(w.jobs);
    let scale = ScaleConfig {
        seed: args.seed,
        ..ScaleConfig::default_scale()
    };
    let exp = Experiment::new(w.kernel, w.system, scale);
    if args.rss_probe {
        let run = whole_run(&w, &exp, args.seed);
        println!("{} {}", digest_hex(digest(&run.result)), peak_rss_mb());
        return ExitCode::SUCCESS;
    }
    let mut checks = Checks::default();
    let metrics = if args.trace {
        per_layer(&args, &exp, &mut checks)
    } else {
        end_to_end(&args, &exp, &mut checks)
    };
    let correct = checks.errors.is_empty() && !metrics.is_empty();

    for (name, value, unit) in &metrics {
        println!("{name:<30} {:>24} {unit}", value + 0.0);
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
