//! Incremental lint cache keyed by file digest.
//!
//! Stored at `<root>/target/audit-cache.json` by default. Each entry holds
//! a file's FNV-1a 64 content digest, its (already crate-scoped)
//! source-pass findings, and its extracted [`FileFacts`]. A warm lint
//! re-lexes nothing that has not changed: cached facts feed the dataflow
//! passes, cached findings stand in for the source pass. Dataflow and
//! manifest passes always re-run — they are whole-workspace and cheap.
//!
//! Any corruption (bad JSON, wrong schema version, shape drift) reads as
//! an empty cache: correctness never depends on the cache being present.

use std::fs;
use std::path::Path;

use starnuma_types::json::{obj, Value};
use starnuma_types::Diagnostic;

use crate::items::FileFacts;

/// Cache schema version; bump on any layout or lint-semantics change so
/// stale caches self-invalidate.
pub const CACHE_SCHEMA_VERSION: f64 = 1.0;

/// FNV-1a 64 digest of a text, rendered as 16 hex digits.
pub fn digest64(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// One cached file: digest, scoped source-pass findings, extracted facts.
pub struct CacheEntry {
    /// FNV-1a 64 digest of the file's text.
    pub digest: String,
    /// The file's source-pass findings (post crate-scoping).
    pub findings: Vec<Diagnostic>,
    /// The file's extracted facts, for the dataflow passes.
    pub facts: FileFacts,
}

/// The whole cache: path-keyed entries, kept sorted for a deterministic
/// on-disk rendering.
#[derive(Default)]
pub struct Cache {
    entries: Vec<(String, CacheEntry)>,
}

impl Cache {
    /// Loads a cache file; any problem (missing, unreadable, corrupt,
    /// version mismatch) yields an empty cache.
    pub fn load(path: &Path) -> Cache {
        let Ok(text) = fs::read_to_string(path) else {
            return Cache::default();
        };
        let Some(doc) = Value::parse(&text) else {
            return Cache::default();
        };
        if doc.get("schema_version").and_then(Value::as_num) != Some(CACHE_SCHEMA_VERSION) {
            return Cache::default();
        }
        let Some(Value::Obj(files)) = doc.get("files") else {
            return Cache::default();
        };
        let mut cache = Cache::default();
        for (file, entry) in files {
            let Some(digest) = entry.get("digest").and_then(Value::as_str) else {
                continue;
            };
            let Some(facts) = entry.get("facts").and_then(FileFacts::from_json) else {
                continue;
            };
            let findings = entry
                .get("findings")
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(diag_from_json).collect())
                .unwrap_or_default();
            cache.entries.push((
                file.clone(),
                CacheEntry {
                    digest: digest.to_string(),
                    findings,
                    facts,
                },
            ));
        }
        cache
    }

    /// The entry for `file` when its digest still matches.
    pub fn get(&self, file: &str, digest: &str) -> Option<&CacheEntry> {
        self.entries
            .iter()
            .find(|(f, e)| f == file && e.digest == digest)
            .map(|(_, e)| e)
    }

    /// Inserts or replaces the entry for `file`.
    pub fn insert(&mut self, file: String, entry: CacheEntry) {
        self.entries.retain(|(f, _)| *f != file);
        self.entries.push((file, entry));
    }

    /// Renders the cache as its on-disk JSON (entries sorted by path).
    pub fn render(&mut self) -> String {
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
        let files: Vec<(String, Value)> = self
            .entries
            .iter()
            .map(|(f, e)| {
                (
                    f.clone(),
                    obj([
                        ("digest", e.digest.clone().into()),
                        (
                            "findings",
                            Value::Arr(e.findings.iter().map(Diagnostic::to_value).collect()),
                        ),
                        ("facts", e.facts.to_json()),
                    ]),
                )
            })
            .collect();
        obj([
            ("schema_version", Value::Num(CACHE_SCHEMA_VERSION)),
            ("files", Value::Obj(files)),
        ])
        .render()
    }

    /// Writes the cache to `path`, creating parent directories. Failures
    /// are returned but callers may ignore them — a read-only target tree
    /// must not fail the lint.
    pub fn save(&mut self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.render())
    }
}

/// Maps a cached code string back to the `'static` table the
/// [`Diagnostic`] type requires. Unknown codes read as absent.
pub fn static_code(code: &str) -> Option<&'static str> {
    const CODES: &[&str] = &[
        "SN001", "SN002", "SN003", "SN004", "SN005", "SN006", "SN007", "SN008", "SN009", "SN010",
        "SN011", "SN012",
    ];
    CODES.iter().find(|c| **c == code).copied()
}

fn diag_from_json(v: &Value) -> Option<Diagnostic> {
    let code = static_code(v.get("code")?.as_str()?)?;
    let location = v.get("location")?.as_str()?.to_string();
    let message = v.get("message")?.as_str()?.to_string();
    let hint = v.get("hint")?.as_str()?.to_string();
    let severity = v.get("severity")?.as_str()?;
    Some(match severity {
        "warning" => Diagnostic::warning(code, location, message, hint),
        _ => Diagnostic::error(code, location, message, hint),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        assert_eq!(digest64("abc"), digest64("abc"));
        assert_ne!(digest64("abc"), digest64("abd"));
        assert_eq!(digest64("").len(), 16);
    }

    #[test]
    fn cache_round_trips_through_render_and_load() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let facts = extract("a.rs", "sim", false, &lex(src));
        let findings = crate::lints::source::lint_source("a.rs", src, false);
        let mut cache = Cache::default();
        cache.insert(
            "a.rs".to_string(),
            CacheEntry {
                digest: digest64(src),
                findings: findings.clone(),
                facts: facts.clone(),
            },
        );
        let rendered = cache.render();
        let dir = std::env::temp_dir().join("starnuma-audit-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, &rendered).unwrap();
        let loaded = Cache::load(&path);
        let entry = loaded.get("a.rs", &digest64(src)).expect("hit");
        assert_eq!(entry.facts, facts);
        assert_eq!(entry.findings.len(), findings.len());
        assert_eq!(entry.findings[0].code, "SN001");
        assert!(loaded.get("a.rs", "0000000000000000").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_or_versionless_cache_reads_as_empty() {
        let dir = std::env::temp_dir().join("starnuma-audit-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(Cache::load(&path).get("x", "y").is_none());
        std::fs::write(&path, "{\"schema_version\":99,\"files\":{}}").unwrap();
        assert!(Cache::load(&path).get("x", "y").is_none());
        assert!(Cache::load(Path::new("/nonexistent/cache.json"))
            .get("x", "y")
            .is_none());
        std::fs::remove_file(&path).ok();
    }

    /// Regression: a cache of 200 000 `[` once overflowed the stack in
    /// an unbounded recursive parser; it must read as empty.
    #[test]
    fn deeply_nested_cache_reads_as_empty() {
        let dir = std::env::temp_dir().join("starnuma-audit-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deep.json");
        std::fs::write(&path, "[".repeat(200_000)).unwrap();
        assert!(Cache::load(&path).entries.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
