//! SARIF 2.1.0 emission for CI annotation surfaces.
//!
//! One run, one driver (`starnuma-audit`), one rule per distinct code that
//! fired, one result per finding. Locations split the workspace-relative
//! `path:line` diagnostics back into `artifactLocation` + `region`. The
//! shape follows the SARIF 2.1.0 schema subset that GitHub code scanning
//! consumes.

use starnuma_types::json::{obj, Value};
use starnuma_types::Diagnostic;

/// Renders findings as a SARIF 2.1.0 document.
pub fn render_sarif(findings: &[Diagnostic], tool_version: &str) -> String {
    let mut codes: Vec<&str> = findings.iter().map(|d| d.code).collect();
    codes.sort_unstable();
    codes.dedup();
    let rules: Vec<Value> = codes
        .iter()
        .map(|c| {
            obj([
                ("id", (*c).into()),
                ("shortDescription", obj([("text", rule_summary(c).into())])),
            ])
        })
        .collect();
    let results: Vec<Value> = findings
        .iter()
        .map(|d| {
            let (path, line) = split_location(&d.location);
            obj([
                ("ruleId", d.code.into()),
                (
                    "level",
                    if d.is_error() { "error" } else { "warning" }.into(),
                ),
                (
                    "message",
                    obj([("text", Value::Str(format!("{} — {}", d.message, d.hint)))]),
                ),
                (
                    "locations",
                    Value::Arr(vec![obj([(
                        "physicalLocation",
                        obj([
                            ("artifactLocation", obj([("uri", Value::Str(path))])),
                            ("region", obj([("startLine", Value::Num(line as f64))])),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    obj([
        (
            "$schema",
            Value::Str(
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
                    .to_string(),
            ),
        ),
        ("version", "2.1.0".into()),
        (
            "runs",
            Value::Arr(vec![obj([
                (
                    "tool",
                    obj([(
                        "driver",
                        obj([
                            ("name", "starnuma-audit".into()),
                            ("version", tool_version.into()),
                            ("rules", Value::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", Value::Arr(results)),
            ])]),
        ),
    ])
    .render()
}

/// Splits a `path:line` location; non-numeric suffixes (model-validation
/// diagnostics like `RunConfig.phases`) keep the whole string as the path
/// with line 1.
fn split_location(loc: &str) -> (String, usize) {
    match loc.rsplit_once(':') {
        Some((path, line)) => match line.parse::<usize>() {
            Ok(n) => (path.to_string(), n.max(1)),
            Err(_) => (loc.to_string(), 1),
        },
        None => (loc.to_string(), 1),
    }
}

fn rule_summary(code: &str) -> &'static str {
    match code {
        "SN001" => "No unwrap()/expect()/panic! in library code",
        "SN002" => "No wall-clock types in simulation crates",
        "SN003" => "No std hash collections (unstable iteration order)",
        "SN004" => "Crate roots carry forbid(unsafe_code) and warn(missing_docs)",
        "SN005" => "No direct println!/eprintln! in library crates",
        "SN006" => "No unordered DetMap iteration at merge/export boundaries",
        "SN007" => "Float reduction loops state a canonical order",
        "SN008" => "No thread-topology reads in simulation crates",
        "SN009" => "No narrowing `as` casts in sim/types crates",
        "SN010" => "Public sim APIs return order-stable Vecs",
        "SN011" => "No keyed sort_unstable (ties reorder freely)",
        "SN012" => "Cargo.toml drift (non-workspace dep, missing forbid)",
        _ => "StarNUMA audit finding",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error("SN001", "crates/sim/src/x.rs:5", "unwrap", "use Result"),
            Diagnostic::warning("SN105", "RunConfig.phases", "zero phases", "set phases"),
        ]
    }

    #[test]
    fn sarif_shape_matches_2_1_0() {
        let doc = Value::parse(&render_sarif(&sample(), "0.1.0")).expect("valid json");
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        assert!(doc
            .get("$schema")
            .and_then(Value::as_str)
            .is_some_and(|s| s.contains("sarif-schema-2.1.0")));
        let runs = doc.get("runs").and_then(Value::as_arr).expect("runs");
        assert_eq!(runs.len(), 1);
        let driver = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .expect("driver");
        assert_eq!(
            driver.get("name").and_then(Value::as_str),
            Some("starnuma-audit")
        );
        let rules = driver.get("rules").and_then(Value::as_arr).expect("rules");
        assert_eq!(rules.len(), 2);
        let results = runs[0]
            .get("results")
            .and_then(Value::as_arr)
            .expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").and_then(Value::as_str),
            Some("SN001")
        );
        assert_eq!(
            results[0].get("level").and_then(Value::as_str),
            Some("error")
        );
        let loc = results[0]
            .get("locations")
            .and_then(Value::as_arr)
            .expect("locs")[0]
            .get("physicalLocation")
            .expect("phys");
        assert_eq!(
            loc.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Value::as_str),
            Some("crates/sim/src/x.rs")
        );
        assert_eq!(
            loc.get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Value::as_num),
            Some(5.0)
        );
    }

    #[test]
    fn model_validation_locations_survive() {
        let doc = Value::parse(&render_sarif(&sample(), "0.1.0")).expect("valid json");
        let results = doc.get("runs").and_then(Value::as_arr).expect("runs")[0]
            .get("results")
            .and_then(Value::as_arr)
            .expect("results");
        let loc = results[1]
            .get("locations")
            .and_then(Value::as_arr)
            .expect("locs")[0]
            .get("physicalLocation")
            .expect("phys");
        assert_eq!(
            loc.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Value::as_str),
            Some("RunConfig.phases")
        );
        assert_eq!(
            results[1].get("level").and_then(Value::as_str),
            Some("warning")
        );
    }
}
