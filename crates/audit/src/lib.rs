//! Zero-dependency static analysis for the StarNUMA workspace.
//!
//! The analyzer runs in layers:
//!
//! * **Lexer** ([`lexer`]): a real Rust token lexer — nested block
//!   comments, raw strings, char literals, lifetimes — whose token
//!   concatenation round-trips the source exactly. Lints match over
//!   reconstructed *code lines*, so a token hiding in a multi-line
//!   comment or a raw string can never fire (or be hidden from) a rule.
//! * **Item facts** ([`items`]) and the **workspace graph** ([`graph`]):
//!   per-file `use` edges, fn items with call/iteration sites,
//!   `DetMap`-typed bindings, and the cross-file call closure that marks
//!   merge/export boundary fns.
//! * **Lint passes** ([`lints`]):
//!   - **SN001** — no `unwrap()` / `expect()` / `panic!` in non-test
//!     library code;
//!   - **SN002** — no wall-clock types (bare `Instant` / `SystemTime`) in
//!     simulation crates;
//!   - **SN003** — no `HashMap` / `HashSet` in non-test code;
//!   - **SN004** — crate roots carry `#![forbid(unsafe_code)]` and
//!     `#![warn(missing_docs)]`;
//!   - **SN005** — no direct `println!` / `eprintln!` in library crates;
//!   - **SN006** — no insertion-order `DetMap` iteration escaping through
//!     a merge/export boundary without canonicalization;
//!   - **SN007** — float reduction loops state a canonical order;
//!   - **SN008** — no thread-id / `available_parallelism` reads in
//!     simulation crates;
//!   - **SN009** — no narrowing `as` casts in the sim/types crates;
//!   - **SN010** — public sim APIs return order-stable `Vec`s;
//!   - **SN011** — no keyed `sort_unstable` (ties reorder freely);
//!   - **SN012** — `Cargo.toml` drift: non-workspace dependencies,
//!     bin roots without `forbid(unsafe_code)`.
//! * **Workflow** ([`workspace`], [`baseline`], [`cache`], [`sarif`],
//!   [`fixes`]): an incremental digest-keyed cache, a checked-in
//!   suppression baseline, SARIF 2.1.0 emission for CI, and safe
//!   auto-fixes.
//!
//! Model validation (**SN1xx**) lives with the config types themselves:
//! their `diagnostics()` methods report through the same
//! [`starnuma_types::Diagnostic`] type.
//!
//! False positives are suppressed with a `// audit:allow(SNxxx)` marker on
//! the offending line or the line above it (`#` comments in manifests).
//!
//! # Examples
//!
//! ```
//! use starnuma_audit::lint_source;
//!
//! let findings = lint_source("demo.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }", false);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].code, "SN001");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod fixes;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod lints;
mod report;
pub mod sarif;
pub mod workspace;

pub use baseline::Baseline;
pub use fixes::{apply_fixes, FixReport};
pub use lints::source::lint_source;
pub use lints::{println_exempt, wallclock_exempt};
pub use report::{render_human, render_json, render_json_report, REPORT_SCHEMA_VERSION};
pub use sarif::render_sarif;
pub use workspace::{lint_workspace, lint_workspace_with, LintOptions, LintOutcome};
