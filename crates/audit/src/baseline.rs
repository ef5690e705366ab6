//! Suppression baselines (`ci/lint_baseline.json`).
//!
//! A baseline is the checked-in list of findings the team has looked at
//! and accepted as standing debt: each entry is a `(code, location)` pair.
//! `lint --baseline` subtracts baselined findings from the exit-code
//! calculation (they are still counted and reported as suppressed);
//! `lint --update-baseline` rewrites the file from the current findings,
//! and CI asserts that rewrite is a no-op so the baseline can never go
//! stale silently.

use std::fs;
use std::path::Path;

use starnuma_types::json::{obj, Value};
use starnuma_types::{Diagnostic, StarNumaError};

/// Baseline file schema version.
pub const BASELINE_SCHEMA_VERSION: f64 = 1.0;

/// A loaded suppression baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baseline {
    /// Accepted `(code, location)` pairs, kept sorted.
    pub entries: Vec<(String, String)>,
}

impl Baseline {
    /// Loads a baseline file. `None` when the file is missing or corrupt —
    /// the caller decides whether that is an error (`--baseline` with no
    /// file should fail loudly, not silently suppress nothing).
    pub fn load(path: &Path) -> Option<Baseline> {
        let text = fs::read_to_string(path).ok()?;
        let doc = Value::parse(&text)?;
        if doc.get("schema_version").and_then(Value::as_num) != Some(BASELINE_SCHEMA_VERSION) {
            return None;
        }
        let mut entries = Vec::new();
        for e in doc.get("entries")?.as_arr()? {
            entries.push((
                e.get("code")?.as_str()?.to_string(),
                e.get("location")?.as_str()?.to_string(),
            ));
        }
        entries.sort();
        Some(Baseline { entries })
    }

    /// Builds a baseline that accepts exactly `findings`.
    pub fn from_findings(findings: &[Diagnostic]) -> Baseline {
        let mut entries: Vec<(String, String)> = findings
            .iter()
            .map(|d| (d.code.to_string(), d.location.clone()))
            .collect();
        entries.sort();
        entries.dedup();
        Baseline { entries }
    }

    /// Splits findings into (remaining, suppressed) against this baseline.
    pub fn apply(&self, findings: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
        findings.into_iter().partition(|d| {
            !self
                .entries
                .iter()
                .any(|(c, l)| c == d.code && *l == d.location)
        })
    }

    /// How many findings this baseline accepts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline accepts nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Writes the baseline to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns [`StarNumaError::Io`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), StarNumaError> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| StarNumaError::Io(format!("{}: {e}", parent.display())))?;
        }
        fs::write(path, self.render())
            .map_err(|e| StarNumaError::Io(format!("{}: {e}", path.display())))
    }

    /// Renders the baseline as its on-disk JSON: one entry per line so
    /// diffs review like code.
    pub fn render(&self) -> String {
        let mut entries = self.entries.clone();
        entries.sort();
        entries.dedup();
        let items: Vec<String> = entries
            .iter()
            .map(|(c, l)| {
                format!(
                    "    {}",
                    obj([("code", c.as_str().into()), ("location", l.as_str().into())]).render()
                )
            })
            .collect();
        format!(
            "{{\n  \"schema_version\": 1,\n  \"note\": \"accepted lint debt; regenerate with `starnuma lint --update-baseline`\",\n  \"entries\": [\n{}\n  ]\n}}\n",
            items.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error("SN009", "crates/types/src/rng.rs:72", "m", "h"),
            Diagnostic::error("SN001", "crates/sim/src/x.rs:5", "m", "h"),
        ]
    }

    #[test]
    fn from_findings_apply_round_trip() {
        let b = Baseline::from_findings(&sample());
        let (remaining, suppressed) = b.apply(sample());
        assert!(remaining.is_empty());
        assert_eq!(suppressed.len(), 2);
    }

    #[test]
    fn apply_keeps_unlisted_findings() {
        let b = Baseline::from_findings(&sample()[..1]);
        let (remaining, suppressed) = b.apply(sample());
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].code, "SN001");
        assert_eq!(suppressed.len(), 1);
    }

    #[test]
    fn render_load_round_trip() {
        let b = Baseline::from_findings(&sample());
        let dir = std::env::temp_dir().join("starnuma-audit-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(&path, b.render()).unwrap();
        assert_eq!(Baseline::load(&path), Some(b));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_corrupt_baseline_is_none() {
        assert_eq!(
            Baseline::load(Path::new("/nonexistent/baseline.json")),
            None
        );
        let dir = std::env::temp_dir().join("starnuma-audit-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{]").unwrap();
        assert_eq!(Baseline::load(&path), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_baseline_renders_and_loads() {
        let b = Baseline::default();
        let dir = std::env::temp_dir().join("starnuma-audit-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.json");
        std::fs::write(&path, b.render()).unwrap();
        assert_eq!(Baseline::load(&path), Some(b));
        std::fs::remove_file(&path).ok();
    }

    /// Regression: a baseline of 200 000 `[` once overflowed the stack in
    /// an unbounded recursive parser; it must read as `None`.
    #[test]
    fn deeply_nested_baseline_is_none() {
        let dir = std::env::temp_dir().join("starnuma-audit-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deep.json");
        std::fs::write(&path, "[".repeat(200_000)).unwrap();
        assert_eq!(Baseline::load(&path), None);
        std::fs::remove_file(&path).ok();
    }
}
