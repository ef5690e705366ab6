//! Lexer round-trip gate: concatenating the lexed tokens of every `.rs`
//! file in the workspace (fixtures included) must reproduce the source
//! byte-for-byte, and the reconstructed code-line view must keep the line
//! structure. Any divergence means the lints are matching against text
//! the compiler would read differently.
//!
//! The same files seed a fuzz pass: seeded mutants (truncated, with
//! unbalanced quotes, comments and brackets spliced in) must still
//! round-trip through the lexer, and neither lint pass nor the fact
//! extractor may panic on them.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use starnuma_audit::items::extract;
use starnuma_audit::lexer::{code_lines, lex};
use starnuma_audit::lint_source;
use starnuma_audit::lints::dataflow::lint_dataflow;
use starnuma_types::SimRng;

/// Mutants built per workspace file by the fuzz pass.
const MUTANTS_PER_FILE: usize = 20;

/// Fragments spliced into mutants: openers and closers of every
/// multi-token construct the lexer and the item walk track, plus a
/// multibyte char and the keywords the fact extractor keys on.
const FRAGMENTS: &[&str] = &[
    "'",
    "\"",
    "/*",
    "*/",
    "//",
    "r#\"",
    "\"#",
    "b'",
    "\\",
    "é",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "<",
    ">",
    "::",
    ";",
    "fn ",
    "for ",
    " in ",
    "DetMap",
    "#[cfg(test)]",
    "mod t {",
    "\n",
    "as u8",
    "->",
];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under the workspace root, sorted.
fn workspace_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    collect_rs(&root, &mut files);
    files.sort();
    assert!(
        files.len() >= 40,
        "expected a whole workspace, found {} files",
        files.len()
    );
    files
}

#[test]
fn every_workspace_source_file_round_trips() {
    for file in workspace_files() {
        let source = fs::read_to_string(&file).expect("readable source");
        let tokens = lex(&source);
        let rebuilt: String = tokens.iter().map(|t| t.text).collect();
        assert_eq!(
            rebuilt,
            source,
            "token concatenation must round-trip {}",
            file.display()
        );
        let code = code_lines(&source, &tokens);
        assert_eq!(
            code.len(),
            source.lines().count(),
            "code-line view must keep the line structure of {}",
            file.display()
        );
    }
}

/// A uniform char boundary of `text` (0 and `text.len()` included).
fn char_boundary(text: &str, rng: &mut SimRng) -> usize {
    let mut at = rng.gen_range(0..text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One mutant of `source`: its prefix, its suffix or the whole file,
/// with up to 8 [`FRAGMENTS`] spliced in at random char boundaries.
fn mutant(source: &str, rng: &mut SimRng) -> String {
    let cut = char_boundary(source, rng);
    let mut text = match rng.gen_range(0..3usize) {
        0 => source[..cut].to_string(),
        1 => source[cut..].to_string(),
        _ => source.to_string(),
    };
    for _ in 0..rng.gen_range(0..9usize) {
        let at = char_boundary(&text, rng);
        text.insert_str(at, FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
    }
    text
}

#[test]
fn mutated_sources_round_trip_and_never_panic() {
    let mut rng = SimRng::seed_from_u64(0x5eed_1e8e);
    for file in workspace_files() {
        let source = fs::read_to_string(&file).expect("readable source");
        for n in 0..MUTANTS_PER_FILE {
            let text = mutant(&source, &mut rng);
            let passes = catch_unwind(AssertUnwindSafe(|| {
                let tokens = lex(&text);
                let rebuilt: String = tokens.iter().map(|t| t.text).collect();
                assert_eq!(rebuilt, text, "token concatenation must round-trip");
                lint_source("mutant.rs", &text, true);
                let facts = extract("mutant.rs", "sim", true, &tokens);
                lint_dataflow(&[facts]);
            }));
            assert!(
                passes.is_ok(),
                "mutant {n} of {} broke the analyzer; its text:\n{text}",
                file.display()
            );
        }
    }
}
