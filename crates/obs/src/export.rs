//! Exporters: the JSONL trace journal and the metrics JSON document.
//!
//! Rendering streams into a `String` through the shared JSON writers
//! ([`starnuma_types::json`]) and is deterministic: counters come from
//! `BTreeMap`s, floats use the shortest round-trip text, and nothing
//! consults the host clock. `starnuma inspect` reads traces back with
//! [`Value::parse`](starnuma_types::json::Value::parse).

use std::fmt::Write as _;

use starnuma_types::json::{write_num, write_str};

use crate::journal::{Event, FieldValue};
use crate::metrics::{LatencyHistogram, MetricsFrame, MetricsRegistry};
use crate::sink::ObsReport;

/// Self-describing run identity stamped into every export.
#[derive(Clone, PartialEq, Debug)]
pub struct RunMeta {
    /// Workload label (e.g. `bc-web`).
    pub workload: String,
    /// System label (e.g. `starnuma-dyn`).
    pub system: String,
    /// Scale preset label (`SC1`/`SC2`/`SC3`).
    pub preset: String,
    /// Worker count the harness ran with.
    pub jobs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Package version string (no git-describe, so builds stay
    /// reproducible).
    pub version: String,
}

/// Exports promise a number: a non-finite value (a model bug) writes 0.
fn finite(v: f64) -> f64 {
    debug_assert!(v.is_finite(), "non-finite value in obs export");
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn field(key: &str, value: &FieldValue, out: &mut String) {
    write_str(out, key);
    out.push(':');
    match value {
        FieldValue::U64(u) => {
            let _ = write!(out, "{u}");
        }
        FieldValue::F64(f) => write_num(out, finite(*f)),
        FieldValue::Str(s) => write_str(out, s),
    }
}

fn meta_fields(meta: &RunMeta, out: &mut String) {
    out.push_str("\"workload\":");
    write_str(out, &meta.workload);
    out.push_str(",\"system\":");
    write_str(out, &meta.system);
    out.push_str(",\"preset\":");
    write_str(out, &meta.preset);
    let _ = write!(out, ",\"jobs\":{},\"seed\":{}", meta.jobs, meta.seed);
    out.push_str(",\"version\":");
    write_str(out, &meta.version);
}

fn event_line(e: &Event, out: &mut String) {
    let _ = write!(
        out,
        "{{\"type\":\"event\",\"seq\":{},\"phase\":{},\"level\":\"{}\",\"cat\":\"{}\",\"name\":",
        e.seq,
        e.phase,
        e.level.label(),
        e.category.label()
    );
    write_str(out, e.name);
    for (k, v) in &e.fields {
        out.push(',');
        field(k, v, out);
    }
    out.push_str("}\n");
}

/// `"count":N,"mean_ns":X,"buckets":[...]` of one histogram.
fn hist_fields(h: &LatencyHistogram, out: &mut String) {
    let _ = write!(out, "\"count\":{},\"mean_ns\":", h.count());
    write_num(out, finite(h.mean_ns()));
    out.push_str(",\"buckets\":[");
    for (i, b) in h.buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push(']');
}

fn hist_line(socket: usize, label: &str, h: &LatencyHistogram, out: &mut String) {
    let _ = write!(out, "{{\"type\":\"hist\",\"socket\":{socket},\"class\":");
    write_str(out, label);
    out.push(',');
    hist_fields(h, out);
    out.push_str("}\n");
}

/// Renders a run's journal and merged metrics as self-describing JSONL:
/// one `meta` line, one `event` line per retained event, one `hist` line
/// per non-empty (socket, class) histogram of the merged run, and one
/// `counters` line. This is the format `starnuma inspect` consumes.
pub fn trace_jsonl(meta: &RunMeta, report: &ObsReport) -> String {
    let mut out = String::new();
    out.push_str("{\"type\":\"meta\",");
    meta_fields(meta, &mut out);
    let _ = writeln!(
        out,
        ",\"events\":{},\"dropped_events\":{}}}",
        report.events.len(),
        report.dropped_events
    );
    for e in &report.events {
        event_line(e, &mut out);
    }
    let merged = report.metrics.merged();
    let labels = report.metrics.class_labels();
    for (socket, sm) in merged.sockets.iter().enumerate() {
        for (class, h) in sm.class_hist.iter().enumerate() {
            if h.count() > 0 {
                hist_line(socket, labels[class], h, &mut out);
            }
        }
    }
    out.push_str("{\"type\":\"counters\"");
    for (k, v) in &merged.counters {
        out.push(',');
        write_str(&mut out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("}\n");
    out
}

fn frame_json(
    frame: &MetricsFrame,
    labels: [&'static str; crate::metrics::NUM_CLASSES],
    out: &mut String,
) {
    let _ = write!(out, "{{\"phase\":{},\"sockets\":[", frame.phase);
    for (si, sm) in frame.sockets.iter().enumerate() {
        if si > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        for (ci, h) in sm.class_hist.iter().enumerate() {
            if h.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            write_str(out, labels[ci]);
            out.push_str(":{");
            hist_fields(h, out);
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("],\"counters\":{");
    for (i, (k, v)) in frame.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("}}");
}

/// Renders the full metrics registry (per-phase frames plus the merged
/// whole-run frame) as one JSON object.
pub fn metrics_json(meta: &RunMeta, registry: &MetricsRegistry) -> String {
    let labels = registry.class_labels();
    let mut out = String::new();
    out.push_str("{\"meta\":{");
    meta_fields(meta, &mut out);
    out.push_str("},\"phases\":[");
    for (i, frame) in registry.frames().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        frame_json(frame, labels, &mut out);
    }
    out.push_str("],\"merged\":");
    frame_json(&registry.merged(), labels, &mut out);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{EventCategory, EventLevel};
    use crate::metrics::NUM_CLASSES;
    use crate::sink::ObsSink;
    use starnuma_types::json::Value;

    const LABELS: [&str; NUM_CLASSES] = ["local", "1hop", "2hop", "pool", "bts", "btp"];

    fn meta() -> RunMeta {
        RunMeta {
            workload: "bc-web".to_string(),
            system: "starnuma-dyn".to_string(),
            preset: "SC1".to_string(),
            jobs: 4,
            seed: 42,
            version: "0.1.0".to_string(),
        }
    }

    fn sample_report() -> ObsReport {
        let mut sink = ObsSink::enabled(2, LABELS, 64);
        sink.begin_phase(0);
        sink.record_access(0, 1, 180.0);
        sink.record_access(1, 3, 400.0);
        sink.counter("dir.transactions", 12);
        sink.event(
            EventLevel::Info,
            EventCategory::Migration,
            "region_migrated",
            || {
                vec![
                    ("region", FieldValue::U64(7)),
                    ("dest", FieldValue::Str("pool".to_string())),
                    ("frac", FieldValue::F64(0.25)),
                ]
            },
        );
        sink.end_phase();
        sink.finish()
    }

    fn parse(line: &str) -> Value {
        Value::parse(line).unwrap_or_else(|| panic!("not JSON: {line}"))
    }

    fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
        v.get(key).and_then(Value::as_str)
    }

    fn num(v: &Value, key: &str) -> Option<f64> {
        v.get(key).and_then(Value::as_num)
    }

    #[test]
    fn trace_jsonl_round_trips_through_the_parser() {
        let text_out = trace_jsonl(&meta(), &sample_report());
        let lines: Vec<&str> = text_out.lines().collect();
        // meta + 1 event + 2 hists + counters
        assert_eq!(lines.len(), 5);
        for line in &lines {
            let obj = parse(line);
            assert!(obj.get("type").is_some());
            assert_eq!(obj.render(), *line, "parse -> render reproduces the line");
        }
        let meta_obj = parse(lines[0]);
        assert_eq!(text(&meta_obj, "type"), Some("meta"));
        assert_eq!(text(&meta_obj, "preset"), Some("SC1"));
        assert_eq!(num(&meta_obj, "jobs"), Some(4.0));
        let ev = parse(lines[1]);
        assert_eq!(text(&ev, "name"), Some("region_migrated"));
        assert_eq!(text(&ev, "dest"), Some("pool"));
        assert_eq!(num(&ev, "frac"), Some(0.25));
        let hist = parse(lines[2]);
        assert_eq!(text(&hist, "class"), Some("1hop"));
        let buckets = hist
            .get("buckets")
            .and_then(Value::as_arr)
            .expect("buckets");
        assert_eq!(buckets.len(), crate::metrics::HIST_BUCKETS);
        assert_eq!(buckets.iter().filter_map(Value::as_num).sum::<f64>(), 1.0);
        let counters = parse(lines[4]);
        assert_eq!(num(&counters, "dir.transactions"), Some(12.0));
    }

    #[test]
    fn metrics_json_contains_phases_and_merged() {
        let text = metrics_json(&meta(), &sample_report().metrics);
        assert!(text.starts_with("{\"meta\":{"));
        assert!(text.contains("\"phases\":["));
        assert!(text.contains("\"merged\":"));
        assert!(text.contains("\"1hop\":{\"count\":1"));
        assert!(text.contains("\"dir.transactions\":12"));
        assert_eq!(parse(&text).render(), text);
    }

    /// Regression: control characters in meta strings must leave as
    /// escapes (raw bytes would be invalid JSON and break `starnuma
    /// inspect` and Perfetto import) and read back.
    #[test]
    fn control_chars_in_meta_strings_round_trip() {
        let mut m = meta();
        m.workload = "bc\u{8}web".to_string();
        let text_out = trace_jsonl(&m, &sample_report());
        let meta_line = text_out.lines().next().expect("meta line");
        assert!(meta_line.contains("\"bc\\u0008web\""), "{meta_line}");
        assert_eq!(text(&parse(meta_line), "workload"), Some("bc\u{8}web"));
    }
}
