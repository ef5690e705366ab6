//! The run ledger: one append-only JSONL record per completed run.
//!
//! `starnuma run/compare/sweep --ledger DIR` append a [`RunRecord`] per
//! run to `DIR/runs.jsonl`; `starnuma report` reads the file back and
//! renders cross-run trends and determinism-drift flags. Records are
//! *flat* JSON objects (dotted keys, like the bench history file), and
//! every field is deterministic except `wall_ns`, which callers obtain
//! from the sanctioned `SessionTimer` path and pass in explicitly —
//! determinism tests pass a fixed value and byte-compare whole lines.
//!
//! 64-bit digests travel as `"0x..."` hex strings: JSON numbers are
//! `f64` and silently lose integer precision above 2^53.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use starnuma_types::json::{write_num, write_str, Value};
use starnuma_types::{digest_hex, parse_digest_hex};

use crate::export::RunMeta;
use crate::metrics::LatencyHistogram;
use crate::monitor::MonitorReport;
use crate::sink::ObsReport;

/// Version stamped into (and required of) every ledger line.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// File name appended to the ledger directory.
pub const LEDGER_FILE: &str = "runs.jsonl";

/// Latency summary for one access class (or the all-class merge).
/// Percentiles are 0 when `count` is 0 — the JSON rendering omits them
/// in that case, so an empty class cannot masquerade as a 0 ns one.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ClassSummary {
    /// Access-class label (`local`, `pool`, …) or `overall`.
    pub label: String,
    /// Samples recorded.
    pub count: u64,
    /// Median latency in ns.
    pub p50_ns: f64,
    /// 95th-percentile latency in ns.
    pub p95_ns: f64,
    /// 99th-percentile latency in ns.
    pub p99_ns: f64,
}

impl ClassSummary {
    fn from_hist(label: &str, hist: &LatencyHistogram) -> Self {
        ClassSummary {
            label: label.to_string(),
            count: hist.count(),
            p50_ns: hist.try_percentile_ns(0.50).unwrap_or(0.0),
            p95_ns: hist.try_percentile_ns(0.95).unwrap_or(0.0),
            p99_ns: hist.try_percentile_ns(0.99).unwrap_or(0.0),
        }
    }
}

/// One profiler site's attributed time, as stored in a record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SiteSummary {
    /// Site label (`timing`, `trace_gen`, …).
    pub label: String,
    /// Attributed nanoseconds.
    pub ns: u64,
    /// Enter count.
    pub calls: u64,
}

/// Per-run scalars the CLI supplies alongside the [`ObsReport`]: the
/// digests, result headline numbers, wall time, and profiler sites the
/// observability layer cannot compute itself.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RunExtras {
    /// FNV-1a digest of the run configuration's Debug rendering.
    pub config_digest: u64,
    /// FNV-1a digest of the `RunResult` Debug rendering.
    pub result_digest: u64,
    /// Host wall time for the run, from `SessionTimer` (the one
    /// sanctioned wall-clock path). Not deterministic; pass 0 in
    /// determinism tests.
    pub wall_ns: u64,
    /// End-to-end instructions per cycle.
    pub ipc: f64,
    /// Average memory access time in ns.
    pub amat_ns: f64,
    /// Pages migrated over the whole run.
    pub pages_migrated: u64,
    /// Pages migrated into the CXL pool.
    pub pages_to_pool: u64,
    /// Top profiler sites by attributed time (empty when profiling was
    /// off).
    pub top_sites: Vec<SiteSummary>,
}

/// One completed run, as persisted in the ledger.
#[derive(Clone, PartialEq, Debug)]
pub struct RunRecord {
    /// Ledger schema version ([`LEDGER_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Workload label.
    pub workload: String,
    /// System label.
    pub system: String,
    /// Scale preset label.
    pub preset: String,
    /// Worker count the harness ran with.
    pub jobs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Package version string.
    pub version: String,
    /// FNV-1a digest of the run configuration.
    pub config_digest: u64,
    /// FNV-1a digest of the `RunResult`.
    pub result_digest: u64,
    /// Host wall time in ns (0 in determinism fixtures).
    pub wall_ns: u64,
    /// End-to-end IPC.
    pub ipc: f64,
    /// Average memory access time in ns.
    pub amat_ns: f64,
    /// Pages migrated over the whole run.
    pub pages_migrated: u64,
    /// Pages migrated into the CXL pool.
    pub pages_to_pool: u64,
    /// Phase barriers the monitors evaluated.
    pub monitor_checks: u64,
    /// Monitor violations over the run.
    pub monitor_violations: u64,
    /// All-class, all-socket latency summary.
    pub overall: ClassSummary,
    /// Per-class summaries, sorted by label.
    pub classes: Vec<ClassSummary>,
    /// Merged substrate counters.
    pub counters: BTreeMap<String, u64>,
    /// Top profiler sites, sorted by label.
    pub top_sites: Vec<SiteSummary>,
}

impl RunRecord {
    /// Builds a record from a run's identity, its observability report,
    /// and the CLI-supplied extras.
    pub fn from_observed(
        meta: &RunMeta,
        report: &ObsReport,
        monitor: &MonitorReport,
        extras: &RunExtras,
    ) -> Self {
        let merged = report.metrics.merged();
        let labels = report.metrics.class_labels();
        let mut overall_hist = LatencyHistogram::default();
        let mut class_hists = [LatencyHistogram::default(); crate::NUM_CLASSES];
        for socket in &merged.sockets {
            for (i, hist) in socket.class_hist.iter().enumerate() {
                class_hists[i].merge(hist);
                overall_hist.merge(hist);
            }
        }
        let mut classes: Vec<ClassSummary> = labels
            .iter()
            .zip(class_hists.iter())
            .map(|(label, hist)| ClassSummary::from_hist(label, hist))
            .collect();
        classes.sort_by(|a, b| a.label.cmp(&b.label));
        let mut top_sites = extras.top_sites.clone();
        top_sites.sort_by(|a, b| a.label.cmp(&b.label));
        RunRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            workload: meta.workload.clone(),
            system: meta.system.clone(),
            preset: meta.preset.clone(),
            jobs: meta.jobs,
            seed: meta.seed,
            version: meta.version.clone(),
            config_digest: extras.config_digest,
            result_digest: extras.result_digest,
            wall_ns: extras.wall_ns,
            ipc: extras.ipc,
            amat_ns: extras.amat_ns,
            pages_migrated: extras.pages_migrated,
            pages_to_pool: extras.pages_to_pool,
            monitor_checks: monitor.checks,
            monitor_violations: monitor.violations.len() as u64,
            overall: ClassSummary::from_hist("overall", &overall_hist),
            classes,
            counters: merged.counters,
            top_sites,
        }
    }

    /// Renders the record as one flat JSON line (no trailing newline).
    /// Field order is fixed, so identical records render byte-identically.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_num(&mut out, "schema_version", self.schema_version as f64);
        push_str(&mut out, "workload", &self.workload);
        push_str(&mut out, "system", &self.system);
        push_str(&mut out, "preset", &self.preset);
        push_num(&mut out, "jobs", self.jobs as f64);
        push_num(&mut out, "seed", self.seed as f64);
        push_str(&mut out, "version", &self.version);
        push_str(&mut out, "config_digest", &digest_hex(self.config_digest));
        push_str(&mut out, "result_digest", &digest_hex(self.result_digest));
        push_num(&mut out, "wall_ns", self.wall_ns as f64);
        push_num(&mut out, "ipc", self.ipc);
        push_num(&mut out, "amat_ns", self.amat_ns);
        push_num(&mut out, "pages_migrated", self.pages_migrated as f64);
        push_num(&mut out, "pages_to_pool", self.pages_to_pool as f64);
        push_num(&mut out, "monitor.checks", self.monitor_checks as f64);
        push_num(
            &mut out,
            "monitor.violations",
            self.monitor_violations as f64,
        );
        push_summary(&mut out, "overall", &self.overall);
        for class in &self.classes {
            push_summary(&mut out, &format!("class.{}", class.label), class);
        }
        for (key, value) in &self.counters {
            push_num(&mut out, &format!("counter.{key}"), *value as f64);
        }
        for site in &self.top_sites {
            push_num(&mut out, &format!("site.{}.ns", site.label), site.ns as f64);
            push_num(
                &mut out,
                &format!("site.{}.calls", site.label),
                site.calls as f64,
            );
        }
        out.push('}');
        out
    }

    /// Parses a line written by [`RunRecord::to_json_line`]. `None` on
    /// syntax errors, missing identity fields, or a schema version this
    /// build does not understand.
    pub fn from_json_line(line: &str) -> Option<Self> {
        let doc = Value::parse(line)?;
        let num = |key: &str| -> Option<f64> { doc.get(key)?.as_num() };
        let int = |key: &str| -> Option<u64> { num(key).map(to_u64) };
        let text = |key: &str| -> Option<String> { Some(doc.get(key)?.as_str()?.to_string()) };
        if int("schema_version")? != LEDGER_SCHEMA_VERSION {
            return None;
        }
        let mut classes: BTreeMap<String, ClassSummary> = BTreeMap::new();
        let mut counters = BTreeMap::new();
        let mut sites: BTreeMap<String, SiteSummary> = BTreeMap::new();
        for (key, value) in doc.as_obj()? {
            if let Some(rest) = key.strip_prefix("class.") {
                let (label, field) = rest.rsplit_once('.')?;
                let entry = classes
                    .entry(label.to_string())
                    .or_insert_with(|| ClassSummary {
                        label: label.to_string(),
                        ..ClassSummary::default()
                    });
                apply_summary_field(entry, field, value.as_num()?)?;
            } else if let Some(rest) = key.strip_prefix("counter.") {
                counters.insert(rest.to_string(), to_u64(value.as_num()?));
            } else if let Some(rest) = key.strip_prefix("site.") {
                let (label, field) = rest.rsplit_once('.')?;
                let entry = sites.entry(label.to_string()).or_insert(SiteSummary {
                    label: label.to_string(),
                    ns: 0,
                    calls: 0,
                });
                match field {
                    "ns" => entry.ns = to_u64(value.as_num()?),
                    "calls" => entry.calls = to_u64(value.as_num()?),
                    _ => return None,
                }
            }
        }
        let mut overall = ClassSummary {
            label: "overall".to_string(),
            count: int("overall.count")?,
            ..ClassSummary::default()
        };
        overall.p50_ns = num("overall.p50_ns").unwrap_or(0.0);
        overall.p95_ns = num("overall.p95_ns").unwrap_or(0.0);
        overall.p99_ns = num("overall.p99_ns").unwrap_or(0.0);
        Some(RunRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            workload: text("workload")?,
            system: text("system")?,
            preset: text("preset")?,
            jobs: int("jobs")?,
            seed: int("seed")?,
            version: text("version")?,
            config_digest: parse_digest_hex(doc.get("config_digest")?.as_str()?)?,
            result_digest: parse_digest_hex(doc.get("result_digest")?.as_str()?)?,
            wall_ns: int("wall_ns")?,
            ipc: num("ipc")?,
            amat_ns: num("amat_ns")?,
            pages_migrated: int("pages_migrated")?,
            pages_to_pool: int("pages_to_pool")?,
            monitor_checks: int("monitor.checks")?,
            monitor_violations: int("monitor.violations")?,
            overall,
            classes: classes.into_values().collect(),
            counters,
            top_sites: sites.into_values().collect(),
        })
    }

    /// Appends the record to `dir/runs.jsonl`, creating the directory if
    /// needed. Returns the ledger file path.
    pub fn append_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LEDGER_FILE);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(file, "{}", self.to_json_line())?;
        Ok(path)
    }
}

/// `f64` → `u64` for JSON counts: clamps negatives and non-finite
/// values to 0 (ledger counts are always small non-negative integers).
fn to_u64(v: f64) -> u64 {
    if v.is_finite() && v >= 0.0 {
        v as u64
    } else {
        0
    }
}

fn apply_summary_field(c: &mut ClassSummary, field: &str, value: f64) -> Option<()> {
    match field {
        "count" => c.count = to_u64(value),
        "p50_ns" => c.p50_ns = value,
        "p95_ns" => c.p95_ns = value,
        "p99_ns" => c.p99_ns = value,
        _ => return None,
    }
    Some(())
}

fn push_key(out: &mut String, key: &str) {
    if out.len() > 1 {
        out.push(',');
    }
    write_str(out, key);
    out.push(':');
}

fn push_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    write_str(out, value);
}

/// Ledger numbers are always numbers: a non-finite value writes `0`.
fn push_num(out: &mut String, key: &str, value: f64) {
    push_key(out, key);
    write_num(out, if value.is_finite() { value } else { 0.0 });
}

fn push_summary(out: &mut String, prefix: &str, c: &ClassSummary) {
    push_num(out, &format!("{prefix}.count"), c.count as f64);
    if c.count > 0 {
        push_num(out, &format!("{prefix}.p50_ns"), c.p50_ns);
        push_num(out, &format!("{prefix}.p95_ns"), c.p95_ns);
        push_num(out, &format!("{prefix}.p99_ns"), c.p99_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            workload: "BFS".to_string(),
            system: "StarNUMA (T16)".to_string(),
            preset: "SC1".to_string(),
            jobs: 4,
            seed: 42,
            version: "0.1.0".to_string(),
            config_digest: 0xdead_beef_0123_4567,
            result_digest: u64::MAX,
            wall_ns: 1_234_567,
            ipc: 1.25,
            amat_ns: 97.5,
            pages_migrated: 100,
            pages_to_pool: 60,
            monitor_checks: 2,
            monitor_violations: 0,
            overall: ClassSummary {
                label: "overall".to_string(),
                count: 3,
                p50_ns: 90.0,
                p95_ns: 180.5,
                p99_ns: 360.0,
            },
            classes: vec![
                ClassSummary {
                    label: "local".to_string(),
                    count: 3,
                    p50_ns: 90.0,
                    p95_ns: 180.5,
                    p99_ns: 360.0,
                },
                ClassSummary {
                    label: "pool".to_string(),
                    count: 0,
                    ..ClassSummary::default()
                },
            ],
            counters: [("dir.transactions".to_string(), 7u64)].into(),
            top_sites: vec![SiteSummary {
                label: "timing".to_string(),
                ns: 555,
                calls: 2,
            }],
        }
    }

    #[test]
    fn json_line_round_trips_byte_identically() {
        let rec = sample();
        let line = rec.to_json_line();
        let parsed = RunRecord::from_json_line(&line).expect("line parses");
        assert_eq!(parsed, rec);
        assert_eq!(parsed.to_json_line(), line);
    }

    #[test]
    fn digests_survive_above_f64_precision() {
        let rec = sample();
        let parsed = RunRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(parsed.result_digest, u64::MAX);
        assert_eq!(parsed.config_digest, 0xdead_beef_0123_4567);
    }

    #[test]
    fn empty_class_omits_percentile_keys() {
        let line = sample().to_json_line();
        assert!(line.contains("\"class.pool.count\":0"));
        assert!(!line.contains("class.pool.p50_ns"));
        assert!(line.contains("\"class.local.p99_ns\":360"));
    }

    #[test]
    fn negative_zero_and_non_finite_numbers_write_zero() {
        let mut rec = sample();
        rec.ipc = -0.0;
        rec.amat_ns = f64::NAN;
        let line = rec.to_json_line();
        assert!(line.contains("\"ipc\":0,\"amat_ns\":0,"), "{line}");
        let parsed = RunRecord::from_json_line(&line).expect("line parses");
        assert_eq!(parsed.amat_ns, 0.0);
        assert_eq!(parsed.to_json_line(), line);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let line =
            sample()
                .to_json_line()
                .replacen("\"schema_version\":1", "\"schema_version\":99", 1);
        assert!(RunRecord::from_json_line(&line).is_none());
    }

    #[test]
    fn append_creates_directory_and_accumulates_lines() {
        let dir = std::env::temp_dir().join(format!("starnuma-ledger-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = sample();
        let path = rec.append_to(&dir).expect("append");
        rec.append_to(&dir).expect("append again");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert_eq!(RunRecord::from_json_line(line).as_ref(), Some(&rec));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
