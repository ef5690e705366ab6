//! Implementation of the CLI commands.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use std::collections::BTreeMap;

use starnuma::obs::{
    metrics_json, trace_jsonl, try_percentile_from_counts, ObsReport, RunExtras, RunMeta,
    RunRecord, SiteSummary, LEDGER_FILE, MONITOR_NAMES,
};
use starnuma::prof;
use starnuma::report::run_result_json;
use starnuma::{
    geomean, AccessClass, CxlLatencyBreakdown, Experiment, JobPool, LatencyModel, RunResult,
    ScaleConfig, ScalePreset, SystemKind, TraceGenerator, Workload,
};
use starnuma_migration::ReplicationConfig;
use starnuma_topology::SystemParams;
use starnuma_trace::{read_phase, write_phase, SharingHistogram};
use starnuma_types::json::{obj, Value};
use starnuma_types::{digest_hex, fnv1a_digest, Location, SocketId};

use crate::args::{ArgError, Args};

/// Resolves a workload name (`bfs`, `BFS`, ...).
pub fn parse_workload(name: &str) -> Result<Workload, ArgError> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            ArgError(format!(
                "unknown workload '{name}' (expected one of: {})",
                Workload::ALL.map(|w| w.name().to_lowercase()).join(", ")
            ))
        })
}

/// Resolves a system-kind name.
pub fn parse_system(name: &str) -> Result<SystemKind, ArgError> {
    let key = name.to_ascii_lowercase().replace(['-', '_'], "");
    let kind = match key.as_str() {
        "baseline" => SystemKind::Baseline,
        "baselinefirsttouch" | "firsttouch" => SystemKind::BaselineFirstTouch,
        "baselineisobw" | "isobw" => SystemKind::BaselineIsoBw,
        "baseline2xbw" | "2xbw" => SystemKind::Baseline2xBw,
        "baselinestatic" | "baselinestaticoracle" => SystemKind::BaselineStaticOracle,
        "starnuma" | "t16" => SystemKind::StarNuma,
        "starnumat0" | "t0" => SystemKind::StarNumaT0,
        "starnumahalfbw" | "halfbw" => SystemKind::StarNumaHalfBw,
        "starnumacxlswitch" | "cxlswitch" => SystemKind::StarNumaCxlSwitch,
        "starnumasmallpool" | "smallpool" => SystemKind::StarNumaSmallPool,
        "starnumastatic" | "starnumastaticoracle" => SystemKind::StarNumaStaticOracle,
        _ => {
            return Err(ArgError(format!(
                "unknown system '{name}' (try: baseline, starnuma, t0, isobw, \
                 2xbw, halfbw, cxlswitch, smallpool, baseline-static, \
                 starnuma-static, first-touch)"
            )))
        }
    };
    Ok(kind)
}

/// Resolves the worker count for multi-run commands and installs it as the
/// process-global [`JobPool`] setting: `--jobs N` wins, else `STARNUMA_JOBS`
/// (validated here, at harness entry — a typo is an error, not a silent
/// fallback), else the host's available parallelism.
pub fn configure_jobs(args: &Args) -> Result<(), ArgError> {
    let workers = match args.get("jobs") {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| ArgError(format!("--jobs expects a positive integer, got '{v}'")))?,
        None => JobPool::from_env()
            .map_err(|e| ArgError(e.to_string()))?
            .workers(),
    };
    starnuma::set_global_jobs(workers);
    Ok(())
}

/// The §V-G preset label stamped into observability exports.
fn preset_name(preset: ScalePreset) -> &'static str {
    match preset {
        ScalePreset::Sc1 => "SC1",
        ScalePreset::Sc2 => "SC2",
        ScalePreset::Sc3 => "SC3",
    }
}

/// Whether this invocation asked for observability output, and therefore
/// whether the simulation should run with the [`starnuma::obs`] sink on.
/// The ledger and the monitor flags all need the sink's report.
fn wants_obs(args: &Args) -> bool {
    args.get("trace-out").is_some()
        || args.get("metrics-out").is_some()
        || args.switch("strict-monitors")
        || args.get("inject-monitor-fault").is_some()
        || ledger_dir(args).is_some()
}

/// Resolved ledger directory: `--ledger DIR` wins, else the
/// `STARNUMA_LEDGER` environment variable; `None` when neither is set.
fn ledger_dir(args: &Args) -> Option<String> {
    args.get("ledger").map(str::to_string).or_else(|| {
        std::env::var("STARNUMA_LEDGER")
            .ok()
            .filter(|v| !v.is_empty())
    })
}

/// Per-command ledger state, created *before* the runs start so the wall
/// timer covers them and the profiler can attribute their time.
struct LedgerSession {
    dir: std::path::PathBuf,
    timer: prof::SessionTimer,
    /// Whether this session turned the profiler on (and must drain it).
    /// False under `starnuma profile`, which owns the report.
    owns_prof: bool,
}

/// Starts a ledger session when this invocation asked for one. Enables
/// the profiler for top-site attribution unless an enclosing `profile`
/// wrapper already owns it.
fn ledger_session(args: &Args) -> Option<LedgerSession> {
    let dir = ledger_dir(args)?;
    let owns_prof = !prof::is_enabled();
    if owns_prof {
        prof::reset();
        prof::set_enabled(true);
    }
    Some(LedgerSession {
        dir: dir.into(),
        timer: prof::SessionTimer::start(),
        owns_prof,
    })
}

impl LedgerSession {
    /// Appends one [`RunRecord`] per completed run to `dir/runs.jsonl`.
    /// Wall time and profiler top sites are per *command*, shared by every
    /// record of a batch (compare/sweep fan their runs out in parallel, so
    /// per-run wall time does not exist).
    fn append(self, entries: &[(RunMeta, u64, &RunResult, &ObsReport)]) -> Result<(), ArgError> {
        let wall_ns = self.timer.elapsed_ns();
        let top_sites: Vec<SiteSummary> = if self.owns_prof {
            prof::set_enabled(false);
            prof::take_report()
                .top_sites(5)
                .into_iter()
                .map(|(label, ns, calls)| SiteSummary { label, ns, calls })
                .collect()
        } else {
            Vec::new()
        };
        for (meta, config_digest, result, report) in entries {
            let extras = RunExtras {
                config_digest: *config_digest,
                result_digest: fnv1a_digest(format!("{result:?}").as_bytes()),
                wall_ns,
                ipc: result.ipc,
                amat_ns: result.amat_ns,
                pages_migrated: result.pages_migrated,
                pages_to_pool: result.pages_to_pool,
                top_sites: top_sites.clone(),
            };
            RunRecord::from_observed(meta, report, &report.monitor, &extras)
                .append_to(&self.dir)
                .map_err(|e| {
                    ArgError(format!("cannot write ledger {}: {e}", self.dir.display()))
                })?;
        }
        Ok(())
    }
}

/// Prints every monitor violation to stderr; under `--strict-monitors` a
/// non-empty set fails the command.
fn enforce_monitors(args: &Args, sections: &[(RunMeta, &ObsReport)]) -> ExitCode {
    let mut violations = 0u64;
    for (meta, report) in sections {
        for v in &report.monitor.violations {
            violations += 1;
            eprintln!(
                "monitor violation: {} (phase {}, observed {}, limit {}) in {} on {}",
                v.monitor, v.phase, v.observed, v.limit, meta.workload, meta.system
            );
        }
    }
    if violations > 0 && args.switch("strict-monitors") {
        eprintln!("strict-monitors: failing on {violations} violation(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Validates `--inject-monitor-fault NAME` against the monitor catalogue.
fn parse_fault(args: &Args) -> Result<Option<&str>, ArgError> {
    match args.get("inject-monitor-fault") {
        None => Ok(None),
        Some(name) if MONITOR_NAMES.contains(&name) => Ok(Some(name)),
        Some(name) => Err(ArgError(format!(
            "unknown monitor '{name}' (expected one of: {})",
            MONITOR_NAMES.join(", ")
        ))),
    }
}

/// The run-identity header stamped into every `--trace-out`/`--metrics-out`
/// export. The version is the package version only — no git-describe, so
/// identical source always produces identical files.
fn run_meta(workload: &str, system: SystemKind, scale: &ScaleConfig) -> RunMeta {
    RunMeta {
        workload: workload.to_string(),
        system: system.label().to_string(),
        preset: preset_name(scale.preset).to_string(),
        jobs: JobPool::global().workers() as u64,
        seed: scale.seed,
        version: env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// Writes an export file, mapping I/O failures onto [`ArgError`].
fn write_out(path: &str, contents: &str) -> Result<(), ArgError> {
    std::fs::write(path, contents).map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

/// Honors `--trace-out`/`--metrics-out` for a batch of observed runs: the
/// trace file is the concatenation of each run's self-describing JSONL
/// section (one `meta` line each), the metrics file a JSON array with one
/// object per run (a bare object for a single run).
fn write_obs_outputs(args: &Args, sections: &[(RunMeta, &ObsReport)]) -> Result<(), ArgError> {
    if let Some(path) = args.get("trace-out") {
        let mut out = String::new();
        for (meta, report) in sections {
            out.push_str(&trace_jsonl(meta, report));
        }
        write_out(path, &out)?;
    }
    if let Some(path) = args.get("metrics-out") {
        let rendered: Vec<String> = sections
            .iter()
            .map(|(meta, report)| metrics_json(meta, &report.metrics))
            .collect();
        let payload = match rendered.as_slice() {
            [one] => one.clone(),
            many => format!("[{}]", many.join(",")),
        };
        write_out(path, &payload)?;
    }
    Ok(())
}

/// Builds a [`ScaleConfig`] from `--scale/--phases/--instructions/--seed`.
pub fn parse_scale(args: &Args) -> Result<ScaleConfig, ArgError> {
    let mut scale = match args.get_or("scale", "default") {
        "quick" => ScaleConfig::quick(),
        "default" => ScaleConfig::default_scale(),
        "full" => ScaleConfig::full(),
        other => {
            return Err(ArgError(format!(
                "unknown scale '{other}' (quick|default|full)"
            )))
        }
    };
    scale.phases = args.get_u64("phases", scale.phases as u64)? as usize;
    scale.instructions_per_phase = args.get_u64("instructions", scale.instructions_per_phase)?;
    scale.seed = args.get_u64("seed", scale.seed)?;
    Ok(scale)
}

/// `starnuma run --workload W --system S [--replication FRAC] [--json]
/// [--trace-out PATH] [--metrics-out PATH] [--ledger DIR]
/// [--strict-monitors] [--inject-monitor-fault NAME] [--progress]`
pub fn cmd_run(args: &Args) -> Result<ExitCode, ArgError> {
    args.expect_only(&[
        "workload",
        "system",
        "scale",
        "phases",
        "instructions",
        "seed",
        "jobs",
        "json",
        "replication",
        "trace-out",
        "metrics-out",
        "ledger",
        "strict-monitors",
        "inject-monitor-fault",
        "progress",
    ])?;
    configure_jobs(args)?;
    starnuma::set_progress(args.switch("progress"));
    let workload = parse_workload(args.require("workload")?)?;
    let system = parse_system(args.get_or("system", "starnuma"))?;
    let scale = parse_scale(args)?;
    let observed = wants_obs(args);
    let fault = parse_fault(args)?;
    let ledger = ledger_session(args);
    let (result, report, config_digest) = match args.get("replication") {
        None => {
            let e = Experiment::new(workload, system, scale.clone());
            let digest = fnv1a_digest(format!("{:?}", e.run_config()).as_bytes());
            if observed {
                let (r, rep) = e.run_observed_faulted(fault);
                (r, Some(rep), digest)
            } else {
                (e.run(), None, digest)
            }
        }
        Some(frac) => {
            let frac: f64 = frac
                .parse()
                .map_err(|_| ArgError(format!("--replication expects a fraction, got '{frac}'")))?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(ArgError("--replication must be in [0, 1]".into()));
            }
            let mut cfg = Experiment::new(workload, system, scale.clone()).run_config();
            cfg.replication = Some(ReplicationConfig::with_budget_frac(
                workload.profile().footprint_pages,
                frac,
            ));
            let digest = fnv1a_digest(format!("{cfg:?}").as_bytes());
            let runner = starnuma::Runner::new(workload.profile(), cfg);
            if observed {
                let (r, rep) = runner.run_with_obs_faulted(fault);
                (r, Some(rep), digest)
            } else {
                (runner.run(), None, digest)
            }
        }
    };
    let mut exit = ExitCode::SUCCESS;
    if let Some(rep) = &report {
        let meta = run_meta(workload.name(), system, &scale);
        write_obs_outputs(args, &[(meta.clone(), rep)])?;
        if let Some(session) = ledger {
            session.append(&[(meta.clone(), config_digest, &result, rep)])?;
        }
        exit = enforce_monitors(args, &[(meta, rep)]);
    }
    if args.switch("json") {
        println!("{}", run_result_json(workload, system, &result).render());
        return Ok(exit);
    }
    println!("{workload} on {system}");
    println!("  per-core IPC      {:.3}", result.ipc);
    println!(
        "  AMAT              {:.0} ns ({:.0} unloaded + {:.0} contention)",
        result.amat_ns, result.unloaded_amat_ns, result.contention_ns
    );
    println!("  observed MPKI     {:.1}", result.mpki);
    println!(
        "  migrations        {} pages ({:.0}% to pool)",
        result.pages_migrated,
        result.pool_migration_frac() * 100.0
    );
    println!("  access breakdown:");
    for (i, class) in AccessClass::ALL.iter().enumerate() {
        if result.class_fracs[i] > 0.0005 {
            println!(
                "    {:<10} {:>5.1}%  (mean {:.0} ns)",
                class.label(),
                result.class_fracs[i] * 100.0,
                result.class_mean_ns[i]
            );
        }
    }
    if let Some(reps) = result.replication {
        println!(
            "  replication       {} regions, peak {} pages, {} collapses",
            reps.regions_replicated, reps.peak_replica_pages, reps.collapses
        );
    }
    Ok(exit)
}

/// `starnuma compare --workload W [--systems a,b,...] [--json]
/// [--trace-out PATH] [--metrics-out PATH] [--ledger DIR]
/// [--strict-monitors] [--progress]`
pub fn cmd_compare(args: &Args) -> Result<ExitCode, ArgError> {
    args.expect_only(&[
        "workload",
        "systems",
        "scale",
        "phases",
        "instructions",
        "seed",
        "jobs",
        "json",
        "trace-out",
        "metrics-out",
        "ledger",
        "strict-monitors",
        "progress",
    ])?;
    configure_jobs(args)?;
    starnuma::set_progress(args.switch("progress"));
    let workload = parse_workload(args.require("workload")?)?;
    let systems: Vec<SystemKind> = args
        .get_or("systems", "baseline,starnuma,t0")
        .split(',')
        .map(parse_system)
        .collect::<Result<_, _>>()?;
    let scale = parse_scale(args)?;
    let observed = wants_obs(args);
    let ledger = ledger_session(args);
    // Fan every distinct system (plus the baseline, which anchors the
    // speedup column) out on the job pool; results are keyed for the
    // requested row order below.
    let mut distinct = vec![SystemKind::Baseline];
    for s in &systems {
        if !distinct.contains(s) {
            distinct.push(*s);
        }
    }
    let computed: BTreeMap<SystemKind, (RunResult, Option<ObsReport>)> = JobPool::global()
        .run(distinct.clone(), |_, system| {
            let e = Experiment::new(workload, system, scale.clone());
            if observed {
                let (r, rep) = e.run_observed();
                (system, (r, Some(rep)))
            } else {
                (system, (e.run(), None))
            }
        })
        .into_iter()
        .collect();
    let mut exit = ExitCode::SUCCESS;
    if observed {
        // One export section per distinct system, baseline first — the
        // same deterministic order the fan-out used.
        let sections: Vec<(RunMeta, &ObsReport)> = distinct
            .iter()
            .filter_map(|s| {
                computed[s]
                    .1
                    .as_ref()
                    .map(|rep| (run_meta(workload.name(), *s, &scale), rep))
            })
            .collect();
        write_obs_outputs(args, &sections)?;
        if let Some(session) = ledger {
            let entries: Vec<(RunMeta, u64, &RunResult, &ObsReport)> = distinct
                .iter()
                .filter_map(|s| {
                    let (result, rep) = &computed[s];
                    let cfg = Experiment::new(workload, *s, scale.clone()).run_config();
                    rep.as_ref().map(|rep| {
                        (
                            run_meta(workload.name(), *s, &scale),
                            fnv1a_digest(format!("{cfg:?}").as_bytes()),
                            result,
                            rep,
                        )
                    })
                })
                .collect();
            session.append(&entries)?;
        }
        exit = enforce_monitors(args, &sections);
    }
    let computed: BTreeMap<SystemKind, RunResult> =
        computed.into_iter().map(|(s, (r, _))| (s, r)).collect();
    let baseline = computed[&SystemKind::Baseline].clone();
    let rows: Vec<(SystemKind, RunResult)> = systems
        .into_iter()
        .map(|s| (s, computed[&s].clone()))
        .collect();
    if args.switch("json") {
        let arr = Value::Arr(
            rows.iter()
                .map(|(s, r)| run_result_json(workload, *s, r))
                .collect(),
        );
        println!("{}", arr.render());
        return Ok(exit);
    }
    println!("{workload}: comparison against {}", SystemKind::Baseline);
    println!(
        "{:<30} {:>8} {:>9} {:>9} {:>8}",
        "system", "IPC", "AMAT(ns)", "cont.(ns)", "speedup"
    );
    for (system, r) in &rows {
        println!(
            "{:<30} {:>8.3} {:>9.0} {:>9.0} {:>7.2}x",
            system.label(),
            r.ipc,
            r.amat_ns,
            r.contention_ns,
            r.ipc / baseline.ipc
        );
    }
    Ok(exit)
}

/// `starnuma sweep --system S [--workloads a,b,...] [--json]
/// [--trace-out PATH] [--metrics-out PATH] [--ledger DIR]
/// [--strict-monitors] [--progress]`
pub fn cmd_sweep(args: &Args) -> Result<ExitCode, ArgError> {
    args.expect_only(&[
        "system",
        "workloads",
        "scale",
        "phases",
        "instructions",
        "seed",
        "jobs",
        "json",
        "trace-out",
        "metrics-out",
        "ledger",
        "strict-monitors",
        "progress",
    ])?;
    configure_jobs(args)?;
    starnuma::set_progress(args.switch("progress"));
    let system = parse_system(args.get_or("system", "starnuma"))?;
    let workloads: Vec<Workload> = match args.get("workloads") {
        None => Workload::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(parse_workload)
            .collect::<Result<_, _>>()?,
    };
    let scale = parse_scale(args)?;
    let observed = wants_obs(args);
    let ledger = ledger_session(args);
    // One job per workload; each job runs the system and its baseline.
    // When observability output was requested, each job also carries back
    // the *system* run's result and report (the baseline anchors speedups
    // only — the ledger records the system run).
    type SweepRow = (Workload, f64, Option<(RunResult, ObsReport)>);
    let rows: Vec<SweepRow> = JobPool::global().run(workloads, |_, w| {
        if observed {
            let (speedup, sys, _, sys_report, _) =
                starnuma::speedup_vs_baseline_observed(w, system, &scale);
            (w, speedup, Some((sys, sys_report)))
        } else {
            let (speedup, _, _) = starnuma::speedup_vs_baseline(w, system, &scale);
            (w, speedup, None)
        }
    });
    let mut exit = ExitCode::SUCCESS;
    if observed {
        let sections: Vec<(RunMeta, &ObsReport)> = rows
            .iter()
            .filter_map(|(w, _, obs)| {
                obs.as_ref()
                    .map(|(_, r)| (run_meta(w.name(), system, &scale), r))
            })
            .collect();
        write_obs_outputs(args, &sections)?;
        if let Some(session) = ledger {
            let entries: Vec<(RunMeta, u64, &RunResult, &ObsReport)> = rows
                .iter()
                .filter_map(|(w, _, obs)| {
                    let cfg = Experiment::new(*w, system, scale.clone()).run_config();
                    obs.as_ref().map(|(result, rep)| {
                        (
                            run_meta(w.name(), system, &scale),
                            fnv1a_digest(format!("{cfg:?}").as_bytes()),
                            result,
                            rep,
                        )
                    })
                })
                .collect();
            session.append(&entries)?;
        }
        exit = enforce_monitors(args, &sections);
    }
    let rows: Vec<(&str, f64)> = rows.iter().map(|(w, s, _)| (w.name(), *s)).collect();
    if args.switch("json") {
        // Self-describing output: a `meta` header (scale preset, worker
        // count, seed, version) plus the per-workload results — so a sweep
        // artifact alone records how it was produced.
        let meta = obj([
            ("system", system.label().into()),
            ("preset", preset_name(scale.preset).into()),
            ("jobs", (JobPool::global().workers() as f64).into()),
            ("seed", (scale.seed as f64).into()),
            ("version", env!("CARGO_PKG_VERSION").into()),
        ]);
        let results = Value::Arr(
            rows.iter()
                .map(|(name, s)| {
                    obj([
                        ("workload", (*name).into()),
                        ("system", system.label().into()),
                        ("speedup", (*s).into()),
                    ])
                })
                .collect(),
        );
        let doc = obj([("meta", meta), ("results", results)]);
        println!("{}", doc.render());
        return Ok(exit);
    }
    println!(
        "speedup of {system} over {} per workload:\n",
        SystemKind::Baseline
    );
    print!("{}", starnuma::chart::speedup_chart(&rows, 40));
    let speedups: Vec<f64> = rows.iter().map(|(_, s)| *s).collect();
    println!("{:<10} geomean {:.2}x", "", geomean(&speedups));
    Ok(exit)
}

/// `starnuma topology [--sockets N] [--full-scale] [--dot PATH]`
pub fn cmd_topology(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["sockets", "full-scale", "dot"])?;
    let sockets = args.get_u64("sockets", 16)? as usize;
    let base = if args.switch("full-scale") {
        SystemParams::full_scale_starnuma()
    } else {
        SystemParams::scaled_starnuma()
    };
    let params = base
        .with_num_sockets(sockets)
        .map_err(|e| ArgError(e.to_string()))?;
    if let Some(path) = args.get("dot") {
        std::fs::write(path, starnuma_topology::to_dot(&params))
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("wrote GraphViz topology to {path}");
        return Ok(());
    }
    let m = LatencyModel::new(params.clone());
    println!(
        "{} sockets in {} chassis, {} cores, pool: yes",
        params.num_sockets,
        params.num_chassis(),
        params.total_cores()
    );
    let s0 = SocketId::new(0);
    println!("unloaded latencies from socket 0:");
    println!("  local   {}", m.demand_access(s0, Location::Socket(s0)));
    println!(
        "  1-hop   {}",
        m.demand_access(s0, Location::Socket(SocketId::new(1)))
    );
    println!(
        "  2-hop   {}",
        m.demand_access(s0, Location::Socket(SocketId::new(4)))
    );
    println!("  pool    {}", m.demand_access(s0, Location::Pool));
    println!(
        "block transfers: 3-hop avg {}, 4-hop via pool {}",
        m.average_three_hop_transfer(),
        m.four_hop_pool_transfer()
    );
    let b = CxlLatencyBreakdown::paper();
    println!(
        "CXL breakdown: {} + {} + {} + {} + {} = {} penalty",
        b.cpu_port,
        b.mhd_port,
        b.retimer,
        b.flight,
        b.mhd_internal,
        b.total()
    );
    Ok(())
}

/// `starnuma workloads`
pub fn cmd_workloads(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[])?;
    println!(
        "{:<10} {:>7} {:>8} {:>5} {:>12} {:>8}",
        "workload", "MPKI", "IPC(1s)", "MLP", "footprint", "classes"
    );
    for w in Workload::ALL {
        let p = w.profile();
        println!(
            "{:<10} {:>7.1} {:>8.2} {:>5} {:>9} pg {:>8}",
            w.name(),
            p.mpki,
            p.ipc_single_socket,
            p.mlp,
            p.footprint_pages,
            p.classes.len()
        );
    }
    Ok(())
}

/// `starnuma trace gen|info ...`
pub fn cmd_trace(args: &Args) -> Result<(), ArgError> {
    match args.subcommand() {
        Some("gen") => {
            args.expect_only(&["workload", "out", "instructions", "seed", "sockets"])?;
            let workload = parse_workload(args.require("workload")?)?;
            let out = args.require("out")?;
            let instructions = args.get_u64("instructions", 100_000)?;
            let seed = args.get_u64("seed", 42)?;
            let sockets = args.get_u64("sockets", 16)? as usize;
            let mut gen = TraceGenerator::new(&workload.profile(), sockets, 4, seed);
            let phase = gen.generate_phase(instructions);
            let file =
                File::create(out).map_err(|e| ArgError(format!("cannot create {out}: {e}")))?;
            write_phase(BufWriter::new(file), &phase)
                .map_err(|e| ArgError(format!("write failed: {e}")))?;
            println!(
                "wrote {} accesses from {} cores to {out}",
                phase.total_accesses(),
                phase.per_core.len()
            );
            Ok(())
        }
        Some("info") => {
            args.expect_only(&["in"])?;
            let path = args.require("in")?;
            let file =
                File::open(path).map_err(|e| ArgError(format!("cannot open {path}: {e}")))?;
            let phase = read_phase(BufReader::new(file))
                .map_err(|e| ArgError(format!("read failed: {e}")))?;
            let h = SharingHistogram::from_trace(&phase, 4);
            println!(
                "{path}: {} cores, {} accesses, {} pages touched",
                phase.per_core.len(),
                phase.total_accesses(),
                h.touched_pages
            );
            println!("observed sharing bins (pages / accesses):");
            for (i, bin) in h.bins().iter().enumerate() {
                println!(
                    "  {:>5}: {:>5.1}% / {:>5.1}%",
                    SharingHistogram::LABELS[i],
                    bin.page_frac * 100.0,
                    bin.access_frac * 100.0
                );
            }
            Ok(())
        }
        other => Err(ArgError(format!(
            "trace needs a subcommand gen|info, got {other:?}"
        ))),
    }
}

/// `starnuma lint [--root <path>] [--format human|json|sarif] [--json]
/// [--sarif <path>] [--baseline] [--baseline-file <path>]
/// [--update-baseline] [--fix] [--fix-allow] [--no-cache]`: runs the full
/// SN001–SN012 analyzer over a workspace tree and exits non-zero when
/// anything is found beyond the accepted baseline. Findings are not an
/// `ArgError`: the invocation was fine, so no usage dump — just the
/// report and the code.
pub fn cmd_lint(args: &Args) -> Result<ExitCode, ArgError> {
    args.expect_only(&[
        "root",
        "format",
        "json",
        "sarif",
        "baseline",
        "baseline-file",
        "update-baseline",
        "fix",
        "fix-allow",
        "no-cache",
    ])?;
    let root = std::path::PathBuf::from(args.get_or("root", "."));
    let format = match (args.switch("json"), args.get_or("format", "human")) {
        (true, _) | (false, "json") => "json",
        (false, "human") => "human",
        (false, "sarif") => "sarif",
        (false, other) => {
            return Err(ArgError(format!(
                "unknown format '{other}' (human|json|sarif)"
            )))
        }
    };
    let opts = starnuma_audit::LintOptions {
        cache_path: if args.switch("no-cache") {
            None
        } else {
            Some(starnuma_audit::LintOptions::default_cache_path(&root))
        },
    };
    let scan = |opts: &starnuma_audit::LintOptions| {
        starnuma_audit::lint_workspace_with(&root, opts)
            .map_err(|e| ArgError(format!("cannot scan {}: {e}", root.display())))
    };
    let mut outcome = scan(&opts)?;

    // Fix flow: apply the safe rewrites, re-lint, then (with --fix-allow)
    // insert suppression markers for whatever is left and re-lint again,
    // so the report below always describes the tree as it now stands.
    if args.switch("fix") || args.switch("fix-allow") {
        let report = starnuma_audit::apply_fixes(&root, &outcome.findings, false)
            .map_err(|e| ArgError(format!("cannot fix under {}: {e}", root.display())))?;
        if report.rewrites > 0 {
            eprintln!(
                "lint --fix: {} rewrite(s) in {} file(s)",
                report.rewrites,
                report.files_changed.len()
            );
            outcome = scan(&opts)?;
        }
        if args.switch("fix-allow") && !outcome.findings.is_empty() {
            let report = starnuma_audit::apply_fixes(&root, &outcome.findings, true)
                .map_err(|e| ArgError(format!("cannot fix under {}: {e}", root.display())))?;
            eprintln!(
                "lint --fix-allow: {} audit:allow marker(s) inserted",
                report.allows_inserted
            );
            outcome = scan(&opts)?;
        }
    }

    let baseline_path = args
        .get("baseline-file")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| root.join("ci").join("lint_baseline.json"));
    if args.switch("update-baseline") {
        let baseline = starnuma_audit::Baseline::from_findings(&outcome.findings);
        baseline
            .save(&baseline_path)
            .map_err(|e| ArgError(format!("cannot write {}: {e}", baseline_path.display())))?;
        println!(
            "lint: baseline updated ({} entr{}) at {}",
            baseline.len(),
            if baseline.len() == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let (findings, suppressed) = if args.switch("baseline") || args.get("baseline-file").is_some() {
        let baseline = starnuma_audit::Baseline::load(&baseline_path).ok_or_else(|| {
            ArgError(format!(
                "cannot read baseline {}; regenerate with `starnuma lint --update-baseline`",
                baseline_path.display()
            ))
        })?;
        baseline.apply(outcome.findings)
    } else {
        (outcome.findings, Vec::new())
    };

    match format {
        "json" => println!(
            "{}",
            starnuma_audit::render_json_report(&findings, suppressed.len(), outcome.files_scanned)
        ),
        "sarif" => println!(
            "{}",
            starnuma_audit::render_sarif(&findings, env!("CARGO_PKG_VERSION"))
        ),
        _ => {
            println!("{}", starnuma_audit::render_human(&findings));
            if !suppressed.is_empty() {
                println!(
                    "audit: {} finding(s) suppressed by baseline",
                    suppressed.len()
                );
            }
        }
    }
    if let Some(path) = args.get("sarif") {
        std::fs::write(
            path,
            starnuma_audit::render_sarif(&findings, env!("CARGO_PKG_VERSION")),
        )
        .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    }
    if findings.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

/// `starnuma profile <run|compare|sweep> <wrapped flags>
/// [--profile-out PATH] [--folded-out PATH]`: runs the wrapped command
/// under the deterministic self-profiler, renders the top-down wall-time
/// attribution tree, and writes the schema-versioned `profile.json`
/// (plus optional folded stacks for flamegraph tooling). Profiling never
/// feeds back into the simulation, so the wrapped command's outputs are
/// bit-identical to an unprofiled invocation.
pub fn cmd_profile(args: &Args) -> Result<ExitCode, ArgError> {
    let sub = args
        .subcommand()
        .filter(|s| matches!(*s, "run" | "compare" | "sweep"))
        .ok_or_else(|| {
            ArgError(
                "profile wraps a simulation command: \
                 starnuma profile <run|compare|sweep> ..."
                    .into(),
            )
        })?;
    let profile_out = args.get_or("profile-out", "profile.json").to_string();
    let folded_out = args.get("folded-out").map(str::to_string);
    let inner = args.rewrap(sub, &["profile-out", "folded-out"]);
    prof::reset();
    prof::set_enabled(true);
    let timer = prof::SessionTimer::start();
    let dispatched = match sub {
        "run" => cmd_run(&inner),
        "compare" => cmd_compare(&inner),
        _ => cmd_sweep(&inner),
    };
    let wall_ns = timer.elapsed_ns();
    prof::set_enabled(false);
    let report = prof::take_report();
    let exit = dispatched?;
    println!();
    print!("{}", report.render_tree(wall_ns));
    write_out(
        &profile_out,
        &report.to_json(&format!("profile {sub}"), wall_ns),
    )?;
    println!("wrote {profile_out}");
    if let Some(path) = &folded_out {
        write_out(path, &report.folded())?;
        println!("wrote folded stacks to {path}");
    }
    Ok(exit)
}

/// Parses line `i` of `path` as a JSON object, its fields keyed by name
/// (the last occurrence of a repeated key wins).
fn object_line(path: &str, i: usize, line: &str) -> Result<BTreeMap<String, Value>, ArgError> {
    match Value::parse(line) {
        Some(Value::Obj(fields)) => Ok(fields.into_iter().collect()),
        _ => Err(ArgError(format!(
            "{path}:{}: not a JSON object line",
            i + 1
        ))),
    }
}

/// Reads a bench-metric file — one flat JSON object, or a
/// `BENCH_history.jsonl` file of them — as one metric map per non-empty
/// line. Only numeric fields are metrics; the identity fields (`bench`,
/// `schema_version`, `smoke`, `version`) are dropped.
fn bench_metric_lines(path: &str) -> Result<Vec<BTreeMap<String, f64>>, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let mut lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let metrics = object_line(path, i, line)?
            .into_iter()
            .filter(|(key, _)| {
                !matches!(
                    key.as_str(),
                    "bench" | "schema_version" | "smoke" | "version"
                )
            })
            .filter_map(|(key, value)| Some((key, value.as_num()?)))
            .collect();
        lines.push(metrics);
    }
    Ok(lines)
}

/// Loads bench metrics with later lines superseding earlier ones per
/// key, so a history file compares at its most recent state.
fn load_bench_metrics(path: &str) -> Result<BTreeMap<String, f64>, ArgError> {
    let lines = bench_metric_lines(path)?;
    if lines.is_empty() {
        return Err(ArgError(format!("{path}: no metric lines")));
    }
    Ok(lines.into_iter().flatten().collect())
}

/// The known-good direction of a bench metric, inferred from its key.
/// Throughput-style metrics regress when they fall, latency/overhead
/// metrics when they rise; anything else is reported without judgement.
fn higher_is_better(key: &str) -> Option<bool> {
    if key.contains("per_sec") || key.contains("speedup") || key.contains("minstr") {
        Some(true)
    } else if key.contains("_ns") || key.contains("ns_per") || key.ends_with("_ms") {
        Some(false)
    } else {
        None
    }
}

/// Renders the metric-by-metric comparison and counts regressions: shared
/// keys whose value moved beyond the tolerance band in the bad direction.
fn bench_diff_report(
    old: &BTreeMap<String, f64>,
    new: &BTreeMap<String, f64>,
    tolerance: f64,
) -> (String, usize) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut regressions = 0usize;
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>12} {:>8}  verdict",
        "metric", "old", "new", "delta"
    );
    for (key, &old_v) in old {
        let Some(&new_v) = new.get(key) else {
            let _ = writeln!(out, "{key:<44} {old_v:>12.3} {:>12}  (metric removed)", "-");
            continue;
        };
        let delta = if old_v == 0.0 {
            if new_v == 0.0 {
                0.0
            } else {
                f64::INFINITY * new_v.signum()
            }
        } else {
            (new_v - old_v) / old_v.abs()
        };
        let verdict = match higher_is_better(key) {
            Some(true) if delta < -tolerance => {
                regressions += 1;
                "REGRESSION"
            }
            Some(false) if delta > tolerance => {
                regressions += 1;
                "REGRESSION"
            }
            Some(_) => "ok",
            None => "info",
        };
        let _ = writeln!(
            out,
            "{key:<44} {old_v:>12.3} {new_v:>12.3} {:>+7.1}%  {verdict}",
            delta * 100.0
        );
    }
    for (key, &new_v) in new {
        if !old.contains_key(key) {
            let _ = writeln!(out, "{key:<44} {:>12} {new_v:>12.3}  (new metric)", "-");
        }
    }
    (out, regressions)
}

/// `starnuma bench-diff <old> <new> [--tolerance FRAC]`: compares two
/// bench-metric files (flat JSON objects or `BENCH_history.jsonl`) and
/// exits non-zero when any shared metric regressed beyond the tolerance
/// band in its known-good direction — the CI perf-regression smoke gate.
/// Takes raw tokens because the `Args` grammar has no second positional.
pub fn cmd_bench_diff(raw: &[String]) -> Result<ExitCode, ArgError> {
    let mut positionals: Vec<&str> = Vec::new();
    let mut tolerance = 0.2_f64;
    let mut iter = raw.iter();
    while let Some(token) = iter.next() {
        if token == "--tolerance" {
            let v = iter
                .next()
                .ok_or_else(|| ArgError("flag --tolerance requires a value".into()))?;
            tolerance = v
                .parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| {
                    ArgError(format!(
                        "--tolerance expects a non-negative fraction, got '{v}'"
                    ))
                })?;
        } else if let Some(name) = token.strip_prefix("--") {
            return Err(ArgError(format!(
                "unknown flag --{name} for command 'bench-diff'"
            )));
        } else {
            positionals.push(token);
        }
    }
    let [old_path, new_path] = positionals[..] else {
        return Err(ArgError(
            "bench-diff needs two files: starnuma bench-diff <old> <new> [--tolerance FRAC]".into(),
        ));
    };
    let old = load_bench_metrics(old_path)?;
    let new = load_bench_metrics(new_path)?;
    let (table, regressions) = bench_diff_report(&old, &new, tolerance);
    println!(
        "bench-diff: {old_path} -> {new_path} (tolerance {:.0}%)",
        tolerance * 100.0
    );
    print!("{table}");
    if regressions == 0 {
        println!("no regressions beyond the tolerance band");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{regressions} metric(s) regressed beyond the tolerance band");
        Ok(ExitCode::FAILURE)
    }
}

/// Like [`load_bench_metrics`], but keeps the *first* value seen per key
/// — the history file's oldest state, which `starnuma report` diffs
/// against the newest to show how the benches moved over the whole file.
fn load_bench_first_state(path: &str) -> Result<BTreeMap<String, f64>, ArgError> {
    let mut metrics = BTreeMap::new();
    for (key, value) in bench_metric_lines(path)?.into_iter().flatten() {
        metrics.entry(key).or_insert(value);
    }
    Ok(metrics)
}

/// One (workload, system) trend group for `starnuma report`, in ledger
/// file order (oldest first).
struct TrendGroup<'a> {
    workload: &'a str,
    system: &'a str,
    records: Vec<&'a RunRecord>,
}

/// One determinism-drift flag: the same (workload, system, preset,
/// config digest, seed) produced more than one result digest.
struct DriftFlag<'a> {
    workload: &'a str,
    system: &'a str,
    preset: &'a str,
    seed: u64,
    config_digest: u64,
    result_digests: Vec<u64>,
    versions: Vec<&'a str>,
}

/// `starnuma report [--ledger DIR] [--bench-history PATH]
/// [--tolerance FRAC] [--json|--markdown]`: cross-run trends from the
/// run ledger — per-experiment IPC/p95 series with sparklines, monitor
/// totals, determinism-drift flags (same config digest + seed, different
/// result digest), and a first-vs-latest bench-history diff. Exits
/// non-zero on any monitor violation or drift flag, so CI can gate on it.
pub fn cmd_report(args: &Args) -> Result<ExitCode, ArgError> {
    args.expect_only(&[
        "ledger",
        "bench-history",
        "tolerance",
        "json",
        "markdown",
        "jobs",
    ])?;
    let dir = ledger_dir(args).ok_or_else(|| {
        ArgError("report needs a ledger: pass --ledger DIR or set STARNUMA_LEDGER".into())
    })?;
    let ledger_path = std::path::Path::new(&dir).join(LEDGER_FILE);
    let shown_path = ledger_path.display().to_string();
    let text = std::fs::read_to_string(&ledger_path)
        .map_err(|e| ArgError(format!("cannot read {shown_path}: {e}")))?;
    let mut records: Vec<RunRecord> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(RunRecord::from_json_line(line).ok_or_else(|| {
            ArgError(format!(
                "{shown_path}:{}: not a valid ledger record (schema {})",
                i + 1,
                starnuma::obs::LEDGER_SCHEMA_VERSION
            ))
        })?);
    }
    let tolerance = {
        let v = args.get_or("tolerance", "0.2");
        v.parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| {
                ArgError(format!(
                    "--tolerance expects a non-negative fraction, got '{v}'"
                ))
            })?
    };

    // Group into per-experiment trends, preserving file order inside each
    // group (the ledger is append-only, so file order is time order).
    let mut groups: BTreeMap<(&str, &str), Vec<&RunRecord>> = BTreeMap::new();
    for r in &records {
        groups
            .entry((r.workload.as_str(), r.system.as_str()))
            .or_default()
            .push(r);
    }
    let groups: Vec<TrendGroup> = groups
        .into_iter()
        .map(|((workload, system), records)| TrendGroup {
            workload,
            system,
            records,
        })
        .collect();

    // Determinism drift: identical (workload, system, preset, config
    // digest, seed) must always reproduce the same result digest.
    // (workload, system, preset, config digest, seed) → the distinct
    // result digests and crate versions that identity produced.
    type DriftKey<'a> = (&'a str, &'a str, &'a str, u64, u64);
    let mut by_identity: BTreeMap<DriftKey, (Vec<u64>, Vec<&str>)> = BTreeMap::new();
    for r in &records {
        let key = (
            r.workload.as_str(),
            r.system.as_str(),
            r.preset.as_str(),
            r.config_digest,
            r.seed,
        );
        let (digests, versions) = by_identity.entry(key).or_default();
        if !digests.contains(&r.result_digest) {
            digests.push(r.result_digest);
        }
        if !versions.contains(&r.version.as_str()) {
            versions.push(r.version.as_str());
        }
    }
    let drift: Vec<DriftFlag> = by_identity
        .into_iter()
        .filter(|(_, (digests, _))| digests.len() > 1)
        .map(
            |((workload, system, preset, config_digest, seed), (result_digests, versions))| {
                DriftFlag {
                    workload,
                    system,
                    preset,
                    seed,
                    config_digest,
                    result_digests,
                    versions,
                }
            },
        )
        .collect();

    let checks: u64 = records.iter().map(|r| r.monitor_checks).sum();
    let violations: u64 = records.iter().map(|r| r.monitor_violations).sum();

    // Bench history: explicit flag wins, then the env override, then the
    // default file name if it exists in the working directory.
    let bench_path = args
        .get("bench-history")
        .map(str::to_string)
        .or_else(|| {
            std::env::var("STARNUMA_BENCH_HISTORY")
                .ok()
                .filter(|v| !v.is_empty())
        })
        .or_else(|| {
            let default = "BENCH_history.jsonl";
            std::path::Path::new(default)
                .exists()
                .then(|| default.to_string())
        });
    let bench = match &bench_path {
        Some(path) => {
            let first = load_bench_first_state(path)?;
            let latest = load_bench_metrics(path)?;
            let (table, regressions) = bench_diff_report(&first, &latest, tolerance);
            Some((path.clone(), table, regressions))
        }
        None => None,
    };

    let trend_row = |g: &TrendGroup| -> (f64, f64, f64, String) {
        let ipc_series: Vec<f64> = g.records.iter().map(|r| r.ipc).collect();
        let last = *ipc_series.last().unwrap_or(&0.0);
        let delta = if ipc_series.len() >= 2 {
            last - ipc_series[ipc_series.len() - 2]
        } else {
            0.0
        };
        let p95 = g.records.last().map_or(0.0, |r| r.overall.p95_ns);
        (last, delta, p95, sparkline(&ipc_series))
    };

    if args.switch("json") {
        let experiments = Value::Arr(
            groups
                .iter()
                .map(|g| {
                    let (last, delta, p95, _) = trend_row(g);
                    obj([
                        ("workload", g.workload.into()),
                        ("system", g.system.into()),
                        ("runs", (g.records.len() as f64).into()),
                        ("ipc_last", last.into()),
                        ("ipc_delta", delta.into()),
                        ("p95_ns_last", p95.into()),
                        (
                            "ipc_series",
                            Value::Arr(g.records.iter().map(|r| r.ipc.into()).collect()),
                        ),
                    ])
                })
                .collect(),
        );
        let drift_json = Value::Arr(
            drift
                .iter()
                .map(|d| {
                    obj([
                        ("workload", d.workload.into()),
                        ("system", d.system.into()),
                        ("preset", d.preset.into()),
                        ("seed", (d.seed as f64).into()),
                        ("config_digest", digest_hex(d.config_digest).into()),
                        (
                            "result_digests",
                            Value::Arr(
                                d.result_digests
                                    .iter()
                                    .map(|x| digest_hex(*x).into())
                                    .collect(),
                            ),
                        ),
                        (
                            "versions",
                            Value::Arr(d.versions.iter().map(|v| (*v).into()).collect()),
                        ),
                    ])
                })
                .collect(),
        );
        let mut doc = vec![
            ("ledger", shown_path.clone().into()),
            ("records", (records.len() as f64).into()),
            ("experiments", experiments),
            (
                "monitors",
                obj([
                    ("checks", (checks as f64).into()),
                    ("violations", (violations as f64).into()),
                ]),
            ),
            ("drift", drift_json),
        ];
        if let Some((path, _, regressions)) = &bench {
            doc.push((
                "bench",
                obj([
                    ("history", path.clone().into()),
                    ("regressions", (*regressions as f64).into()),
                ]),
            ));
        }
        println!("{}", obj(doc).render());
    } else if args.switch("markdown") {
        println!("# starnuma report");
        println!();
        println!("ledger `{shown_path}`: {} record(s)", records.len());
        println!();
        println!("| workload | system | runs | IPC (last) | ΔIPC | p95 ns (last) | IPC trend |");
        println!("|---|---|---:|---:|---:|---:|---|");
        for g in &groups {
            let (last, delta, p95, spark) = trend_row(g);
            println!(
                "| {} | {} | {} | {last:.3} | {delta:+.3} | {p95:.0} | `{spark}` |",
                g.workload,
                g.system,
                g.records.len(),
            );
        }
        println!();
        println!("monitors: {checks} check(s), {violations} violation(s)");
        println!();
        if drift.is_empty() {
            println!("determinism drift: none");
        } else {
            println!("## determinism drift");
            println!();
            for d in &drift {
                println!(
                    "- **{} on {}** [{} seed {} config `{}`]: {} result digests ({}) across versions {}",
                    d.workload,
                    d.system,
                    d.preset,
                    d.seed,
                    digest_hex(d.config_digest),
                    d.result_digests.len(),
                    d.result_digests
                        .iter()
                        .map(|x| digest_hex(*x))
                        .collect::<Vec<_>>()
                        .join(", "),
                    d.versions.join(", "),
                );
            }
        }
        if let Some((path, table, regressions)) = &bench {
            println!();
            println!("## bench history `{path}` (first vs latest)");
            println!();
            println!("```");
            print!("{table}");
            println!("```");
            println!();
            println!("{regressions} regression(s) beyond the tolerance band");
        }
    } else {
        println!("run ledger {shown_path}: {} record(s)", records.len());
        if !groups.is_empty() {
            println!("experiment trends (oldest -> newest):");
            println!(
                "{:<10} {:<30} {:>5} {:>10} {:>8} {:>10}  trend",
                "workload", "system", "runs", "IPC last", "dIPC", "p95(ns)"
            );
            for g in &groups {
                let (last, delta, p95, spark) = trend_row(g);
                println!(
                    "{:<10} {:<30} {:>5} {last:>10.3} {delta:>+8.3} {p95:>10.0}  |{spark}|",
                    g.workload,
                    g.system,
                    g.records.len(),
                );
            }
        }
        println!("monitors: {checks} check(s), {violations} violation(s)");
        if drift.is_empty() {
            println!("determinism drift: none");
        } else {
            println!("determinism drift: {} flag(s)", drift.len());
            for d in &drift {
                println!(
                    "  {} on {} [{} seed {} config {}]: {} result digests across versions {}",
                    d.workload,
                    d.system,
                    d.preset,
                    d.seed,
                    digest_hex(d.config_digest),
                    d.result_digests.len(),
                    d.versions.join(", "),
                );
                for x in &d.result_digests {
                    println!("    {}", digest_hex(*x));
                }
            }
        }
        if let Some((path, table, regressions)) = &bench {
            println!(
                "bench history {path} (first vs latest, tolerance {:.0}%):",
                tolerance * 100.0
            );
            print!("{table}");
            println!("{regressions} regression(s) beyond the tolerance band");
        }
    }
    if violations > 0 || !drift.is_empty() {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// One run's worth of parsed trace lines: the `meta` header plus its
/// `event`/`hist`/`counters` lines. A multi-run file (from `compare` or
/// `sweep --trace-out`) concatenates sections.
#[derive(Default)]
struct TraceSection {
    meta: BTreeMap<String, Value>,
    events: Vec<BTreeMap<String, Value>>,
    hists: Vec<BTreeMap<String, Value>>,
    counters: BTreeMap<String, Value>,
}

fn num_of(obj: &BTreeMap<String, Value>, key: &str) -> f64 {
    obj.get(key).and_then(Value::as_num).unwrap_or(0.0)
}

fn str_of<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> &'a str {
    obj.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// Parses a `--trace-out` JSONL file into sections, one per `meta` line.
fn parse_trace_file(path: &str) -> Result<Vec<TraceSection>, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let mut sections: Vec<TraceSection> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = object_line(path, i, line)?;
        match obj.get("type").and_then(Value::as_str) {
            Some("meta") => sections.push(TraceSection {
                meta: obj,
                ..TraceSection::default()
            }),
            Some(kind) => {
                let section = sections.last_mut().ok_or_else(|| {
                    ArgError(format!(
                        "{path}:{}: '{kind}' line before any meta line",
                        i + 1
                    ))
                })?;
                match kind {
                    "event" => section.events.push(obj),
                    "hist" => section.hists.push(obj),
                    "counters" => section.counters = obj,
                    other => {
                        return Err(ArgError(format!(
                            "{path}:{}: unknown line type '{other}'",
                            i + 1
                        )))
                    }
                }
            }
            None => {
                return Err(ArgError(format!(
                    "{path}:{}: line has no type field",
                    i + 1
                )));
            }
        }
    }
    if sections.is_empty() {
        return Err(ArgError(format!(
            "{path}: no meta line — not a starnuma trace"
        )));
    }
    Ok(sections)
}

/// A 32-column sparkline over histogram buckets (log2-ns, bucket i covers
/// `[2^(i-1), 2^i)` ns).
fn sparkline(buckets: &[f64]) -> String {
    const LEVELS: [char; 5] = [' ', '.', ':', '*', '#'];
    let max = buckets.iter().cloned().fold(0.0_f64, f64::max);
    buckets
        .iter()
        .map(|&b| {
            if b <= 0.0 || max <= 0.0 {
                LEVELS[0]
            } else {
                // Non-empty buckets always render at least a '.'.
                let idx = 1 + ((b / max) * (LEVELS.len() - 2) as f64).round() as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

fn render_section(section: &TraceSection, top: usize) {
    let m = &section.meta;
    println!(
        "== {} on {} [{} seed {} jobs {} v{}] — {} events ({} dropped)",
        str_of(m, "workload"),
        str_of(m, "system"),
        str_of(m, "preset"),
        num_of(m, "seed"),
        num_of(m, "jobs"),
        str_of(m, "version"),
        num_of(m, "events"),
        num_of(m, "dropped_events"),
    );

    // Migration-decision timeline: per phase, the checkpoint summary plus
    // aggregated policy events.
    let max_phase = section
        .events
        .iter()
        .map(|e| num_of(e, "phase") as u64)
        .max();
    if section.events.is_empty() {
        // Zero-event traces are legal (a run can complete without a single
        // journal event); say so instead of printing an empty timeline.
        println!("  (no events recorded)");
    }
    if let Some(max_phase) = max_phase {
        println!("migration timeline:");
        for phase in 0..=max_phase {
            let in_phase: Vec<_> = section
                .events
                .iter()
                .filter(|e| num_of(e, "phase") as u64 == phase)
                .collect();
            if in_phase.is_empty() {
                // A phase no event mentions has nothing to report; a
                // placeholder "0 regions -> 0 pages" row would just be
                // noise.
                continue;
            }
            let mut line = format!("  phase {phase}:");
            if let Some(cp) = in_phase
                .iter()
                .find(|e| str_of(e, "name") == "phase_checkpoint")
            {
                line += &format!(
                    " planned {} modeled {} (budget {})",
                    num_of(cp, "planned_moves"),
                    num_of(cp, "modeled_moves"),
                    num_of(cp, "budget_pages"),
                );
            }
            let migrated: Vec<_> = in_phase
                .iter()
                .filter(|e| str_of(e, "name") == "region_migrated")
                .collect();
            let pages: u64 = migrated.iter().map(|e| num_of(e, "pages") as u64).sum();
            line += &format!(" | {} regions -> {pages} pages", migrated.len());
            let evictions = in_phase
                .iter()
                .filter(|e| str_of(e, "name") == "pool_victim_evicted")
                .count();
            if evictions > 0 {
                line += &format!(" | {evictions} evictions");
            }
            let pressure = in_phase
                .iter()
                .filter(|e| str_of(e, "cat") == "pool_pressure" && str_of(e, "level") == "warn")
                .count();
            if pressure > 0 {
                line += &format!(" | {pressure} pool-pressure warnings");
            }
            if let Some(adapt) = in_phase
                .iter()
                .rfind(|e| str_of(e, "name") == "hi_threshold_adapted")
            {
                line += &format!(
                    " | hi {} -> {}",
                    num_of(adapt, "old_hi"),
                    num_of(adapt, "new_hi")
                );
            }
            if in_phase
                .iter()
                .any(|e| str_of(e, "name") == "migration_limit_reached")
            {
                line += " | LIMIT HIT";
            }
            println!("{line}");
        }
    }

    // Top-N migrated regions by pages moved.
    let mut per_region: BTreeMap<u64, (f64, usize, String)> = BTreeMap::new();
    for e in &section.events {
        if str_of(e, "name") != "region_migrated" {
            continue;
        }
        let entry = per_region
            .entry(num_of(e, "region") as u64)
            .or_insert((0.0, 0, String::new()));
        entry.0 += num_of(e, "pages");
        entry.1 += 1;
        entry.2 = str_of(e, "dest").to_string();
    }
    if !per_region.is_empty() {
        let mut ranked: Vec<_> = per_region.into_iter().collect();
        ranked.sort_by(|a, b| {
            b.1 .0
                .partial_cmp(&a.1 .0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        println!("top {} migrated regions (by pages):", top.min(ranked.len()));
        for (region, (pages, moves, dest)) in ranked.into_iter().take(top) {
            println!("  region {region:<8} {pages:>8} pages  last dest {dest:<10} ({moves} moves)");
        }
    }

    // Per-socket latency histograms (log2-ns buckets, 1 ns .. 2^31 ns).
    if !section.hists.is_empty() {
        println!("per-socket access-latency histograms (32 log2-ns buckets):");
        for h in &section.hists {
            let buckets: Vec<f64> = h
                .get("buckets")
                .and_then(Value::as_arr)
                .map_or(Vec::new(), |b| b.iter().filter_map(Value::as_num).collect());
            // An empty histogram has no p95; render `-` rather than a
            // `0 ns` that is indistinguishable from a real measurement.
            let p95 = match try_percentile_from_counts(&buckets, 0.95) {
                Some(p) => format!("{p:>7.0}"),
                None => format!("{:>7}", "-"),
            };
            println!(
                "  socket {:>3} {:<10} count {:>10} mean {:>7.0} ns p95 {p95} ns |{}|",
                num_of(h, "socket"),
                str_of(h, "class"),
                num_of(h, "count"),
                num_of(h, "mean_ns"),
                sparkline(&buckets),
            );
        }
    }

    if section.counters.len() > 1 {
        println!(
            "substrate counters: {} keys (see --trace-out JSONL)",
            section.counters.len() - 1
        );
    }
    println!();
}

/// The `args` payload for a Chrome event: every journal field except the
/// envelope (`type`/`seq`/`phase`/`cat`/`name`) and the `edge` pairing
/// marker, with `level` always first.
fn chrome_args(e: &BTreeMap<String, Value>) -> Value {
    let mut event_args = vec![("level".to_string(), str_of(e, "level").into())];
    event_args.extend(
        e.iter()
            .filter(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "type" | "seq" | "phase" | "level" | "cat" | "name" | "edge"
                )
            })
            .map(|(k, v)| (k.clone(), v.clone())),
    );
    Value::Obj(event_args)
}

/// Converts parsed event lines into Chrome `trace_event` JSON (openable
/// in `about://tracing` / Perfetto). Events become instants whose
/// timestamp is the sequence number and whose `tid` is the phase; each
/// phase's `phase_checkpoint` begin/end edge markers pair into one
/// duration (`"ph":"X"`) span. Unpaired or edge-less events stay
/// instants.
fn chrome_from_sections(sections: &[TraceSection]) -> String {
    let mut trace_events = Vec::new();
    for section in sections {
        let mut spans: BTreeMap<u64, (Option<usize>, Option<usize>)> = BTreeMap::new();
        for (i, e) in section.events.iter().enumerate() {
            if str_of(e, "name") != "phase_checkpoint" {
                continue;
            }
            let Some(edge) = e.get("edge").and_then(Value::as_str) else {
                continue;
            };
            let entry = spans
                .entry(num_of(e, "phase") as u64)
                .or_insert((None, None));
            match edge {
                "begin" if entry.0.is_none() => entry.0 = Some(i),
                "end" if entry.1.is_none() => entry.1 = Some(i),
                _ => {}
            }
        }
        let mut paired: Vec<(u64, usize, usize)> = Vec::new();
        let mut consumed = vec![false; section.events.len()];
        for (phase, (begin, end)) in spans {
            if let (Some(bi), Some(ei)) = (begin, end) {
                consumed[bi] = true;
                consumed[ei] = true;
                paired.push((phase, bi, ei));
            }
        }
        for (i, e) in section.events.iter().enumerate() {
            if consumed[i] {
                continue;
            }
            trace_events.push(obj([
                ("name", str_of(e, "name").into()),
                ("cat", str_of(e, "cat").into()),
                ("ph", "i".into()),
                ("ts", num_of(e, "seq").into()),
                ("pid", 0.0.into()),
                ("tid", num_of(e, "phase").into()),
                ("s", "t".into()),
                ("args", chrome_args(e)),
            ]));
        }
        for (phase, bi, ei) in paired {
            let begin = &section.events[bi];
            let end = &section.events[ei];
            let dur = (num_of(end, "seq") - num_of(begin, "seq")).max(0.0);
            trace_events.push(obj([
                ("name", str_of(begin, "name").into()),
                ("cat", str_of(begin, "cat").into()),
                ("ph", "X".into()),
                ("ts", num_of(begin, "seq").into()),
                ("dur", dur.into()),
                ("pid", 0.0.into()),
                ("tid", (phase as f64).into()),
                ("args", chrome_args(begin)),
            ]));
        }
    }
    obj([
        ("traceEvents", Value::Arr(trace_events)),
        ("displayTimeUnit", "ms".into()),
    ])
    .render()
}

/// `starnuma inspect [<trace.jsonl>] [--top N] [--chrome PATH]
/// [--profile PATH]`: renders a human summary of a `--trace-out` file —
/// run identity, the per-phase migration-decision timeline, the
/// most-migrated regions, and per-socket access-latency histograms — and
/// can re-emit the journal as Chrome `trace_event` JSON for
/// `about://tracing` / Perfetto. `--profile` renders a saved
/// `profile.json` attribution tree (alone, or alongside a trace).
pub fn cmd_inspect(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["top", "chrome", "profile"])?;
    if let Some(profile_path) = args.get("profile") {
        let text = std::fs::read_to_string(profile_path)
            .map_err(|e| ArgError(format!("cannot read {profile_path}: {e}")))?;
        let saved = prof::ProfReport::from_json(&text)
            .ok_or_else(|| ArgError(format!("{profile_path}: not a starnuma profile.json")))?;
        println!("{profile_path}: `starnuma {}`", saved.command);
        print!("{}", saved.report.render_tree(saved.wall_ns));
        println!();
    }
    let path = match args.subcommand() {
        Some(path) => path,
        None if args.get("profile").is_some() => return Ok(()),
        None => {
            return Err(ArgError(
                "inspect needs a trace file: starnuma inspect <trace.jsonl>".into(),
            ))
        }
    };
    let top = args.get_u64("top", 10)? as usize;
    let sections = parse_trace_file(path)?;
    for section in &sections {
        render_section(section, top);
    }
    if let Some(out) = args.get("chrome") {
        write_out(out, &chrome_from_sections(&sections))?;
        println!("wrote Chrome trace_event JSON to {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn bench_diff_is_direction_aware() {
        let old = metrics(&[
            ("hot.minstr_per_sec", 100.0),
            ("prof.disabled_ns_per_scope", 2.0),
            ("misc.count", 10.0),
        ]);
        // Throughput down 30% and overhead up 50%: both regress at 20%.
        let new = metrics(&[
            ("hot.minstr_per_sec", 70.0),
            ("prof.disabled_ns_per_scope", 3.0),
            ("misc.count", 99.0),
        ]);
        let (table, regressions) = bench_diff_report(&old, &new, 0.2);
        assert_eq!(regressions, 2);
        assert!(table.contains("REGRESSION"));
        // The direction-less key is informational however far it moves.
        assert!(table.contains("misc.count"));
        assert!(table.contains("info"));
        // Generous tolerance clears both.
        let (_, regressions) = bench_diff_report(&old, &new, 0.6);
        assert_eq!(regressions, 0);
    }

    #[test]
    fn bench_diff_improvements_are_not_regressions() {
        let old = metrics(&[
            ("hot.minstr_per_sec", 100.0),
            ("prof.disabled_ns_per_scope", 2.0),
        ]);
        let new = metrics(&[
            ("hot.minstr_per_sec", 300.0),
            ("prof.disabled_ns_per_scope", 0.5),
        ]);
        let (_, regressions) = bench_diff_report(&old, &new, 0.05);
        assert_eq!(regressions, 0);
    }

    #[test]
    fn bench_diff_reports_added_and_removed_metrics() {
        let old = metrics(&[("gone.speedup", 2.0)]);
        let new = metrics(&[("fresh.speedup", 3.0)]);
        let (table, regressions) = bench_diff_report(&old, &new, 0.2);
        assert_eq!(regressions, 0);
        assert!(table.contains("(metric removed)"));
        assert!(table.contains("(new metric)"));
    }

    #[test]
    fn bench_metrics_load_merges_history_lines() {
        let dir = std::env::temp_dir().join("starnuma-cli-bench-load-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("history.jsonl");
        let path_s = path.to_str().expect("utf-8 path");
        std::fs::write(
            &path,
            "{\"bench\": \"hot\", \"schema_version\": 1, \"a.x_ns\": 5}\n\
             {\"bench\": \"hot\", \"schema_version\": 1, \"a.x_ns\": 7, \"b.per_sec\": 2}\n",
        )
        .expect("write history");
        let m = load_bench_metrics(path_s).expect("loads");
        // Later lines supersede earlier ones; identity keys are dropped.
        assert_eq!(m.get("a.x_ns"), Some(&7.0));
        assert_eq!(m.get("b.per_sec"), Some(&2.0));
        assert!(!m.contains_key("bench"));
        assert!(!m.contains_key("schema_version"));
        assert!(load_bench_metrics("/nonexistent/x").is_err());
        let _ = std::fs::remove_file(path);
    }
}
