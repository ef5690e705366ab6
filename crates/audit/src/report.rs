//! Rendering findings for humans and machines.

use starnuma_types::json::{obj, Value};
use starnuma_types::Diagnostic;

/// Renders findings as compiler-style text, one block per finding, plus a
/// one-line summary. Empty input renders a clean bill of health.
pub fn render_human(findings: &[Diagnostic]) -> String {
    if findings.is_empty() {
        return "audit: no findings".to_string();
    }
    let mut out = String::new();
    for d in findings {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = findings.iter().filter(|d| d.is_error()).count();
    let warnings = findings.len() - errors;
    out.push_str(&format!(
        "audit: {} finding(s) ({errors} error(s), {warnings} warning(s))",
        findings.len()
    ));
    out
}

/// Renders findings as a JSON array (stable field order).
pub fn render_json(findings: &[Diagnostic]) -> String {
    findings_value(findings).render()
}

fn findings_value(findings: &[Diagnostic]) -> Value {
    Value::Arr(findings.iter().map(Diagnostic::to_value).collect())
}

/// Schema version of the `lint --json` report object.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Renders the versioned `lint --json` report object: the findings array
/// plus counts the caller supplies (suppressed-by-baseline, files
/// scanned). Callers pass findings already in stable (path, line, code)
/// order and deduplicated.
pub fn render_json_report(
    findings: &[Diagnostic],
    suppressed: usize,
    files_scanned: usize,
) -> String {
    obj([
        ("schema_version", f64::from(REPORT_SCHEMA_VERSION).into()),
        ("files_scanned", (files_scanned as f64).into()),
        ("suppressed", (suppressed as f64).into()),
        ("findings", findings_value(findings)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_types::Severity;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error("SN001", "a.rs:3", "unwrap", "use Result"),
            Diagnostic::warning(
                "SN105",
                "RunConfig.phases",
                "zero phases",
                "set phases >= 1",
            ),
        ]
    }

    #[test]
    fn human_output_summarizes() {
        let s = render_human(&sample());
        assert!(s.contains("error[SN001]"));
        assert!(s.contains("warning[SN105]"));
        assert!(s.contains("2 finding(s) (1 error(s), 1 warning(s))"));
        assert_eq!(render_human(&[]), "audit: no findings");
    }

    #[test]
    fn json_report_is_versioned() {
        let s = render_json_report(&sample(), 3, 42);
        assert!(s.starts_with("{\"schema_version\":1,"));
        assert!(s.contains("\"files_scanned\":42"));
        assert!(s.contains("\"suppressed\":3"));
        assert!(s.contains("\"findings\":[{"));
        assert_eq!(
            render_json_report(&[], 0, 1),
            "{\"schema_version\":1,\"files_scanned\":1,\"suppressed\":0,\"findings\":[]}"
        );
    }

    #[test]
    fn json_output_is_an_array() {
        let s = render_json(&sample());
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("\"code\":\"SN001\""));
        assert!(s.contains("\"severity\":\"warning\""));
        assert_eq!(render_json(&[]), "[]");
        assert_eq!(sample()[1].severity, Severity::Warning);
    }
}
