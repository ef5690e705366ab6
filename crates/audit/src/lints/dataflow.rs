//! Whole-workspace dataflow lints over the item graph (SN006, SN007,
//! SN010).
//!
//! These need cross-file context a per-line pass cannot have: whether a
//! fn sits on a merge/export boundary (call edges), whether an iterated
//! identifier holds a `DetMap` (field/local/param facts), whether a pub
//! fn's return order is ever canonicalized. The facts are already
//! extracted, so the pass is a cheap walk.

use starnuma_types::Diagnostic;

use crate::graph::ItemGraph;
use crate::items::FileFacts;
use crate::lints::order_stable_api_scope;

/// How many lines above a float accumulation a `canonical`-order comment
/// still counts as covering it.
const CANONICAL_COMMENT_REACH: usize = 3;

/// Runs SN006/SN007/SN010 over the whole workspace's facts.
pub fn lint_dataflow(files: &[FileFacts]) -> Vec<Diagnostic> {
    let graph = ItemGraph::build(files);
    let mut findings = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (ji, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            // SN006: insertion-order iteration of a DetMap escaping
            // through a merge/export boundary without canonicalization.
            if graph.is_boundary(fi, ji) && !f.has_sorted_drain() && !f.has_sort() {
                for it in &f.iterations {
                    if it.method == "sorted_drain" || !file.is_det_ident(f, &it.recv) {
                        continue;
                    }
                    if file.allowed("SN006", it.line) {
                        continue;
                    }
                    findings.push(Diagnostic::error(
                        "SN006",
                        format!("{}:{}", file.path, it.line),
                        format!(
                            "DetMap `{}` iterated in insertion order inside \
                             boundary fn `{}`",
                            it.recv, f.name
                        ),
                        "merge/export boundaries must canonicalize: use \
                         `sorted_drain()`, sort the collected Vec, or mark \
                         `// audit:allow(SN006)` with an order argument",
                    ));
                }
            }
            // SN007: float accumulation in a loop without a stated
            // canonical order.
            for acc in &f.accums {
                let covered = file
                    .canonical_lines
                    .iter()
                    .any(|l| *l <= acc.line && acc.line - l <= CANONICAL_COMMENT_REACH);
                if covered || file.allowed("SN007", acc.line) {
                    continue;
                }
                findings.push(Diagnostic::error(
                    "SN007",
                    format!("{}:{}", file.path, acc.line),
                    format!(
                        "float accumulator `{}` summed in a loop without a \
                         canonical-order note",
                        acc.name
                    ),
                    "float addition is order-sensitive: state the iteration \
                     order in a `// canonical order: …` comment within 3 \
                     lines, or mark `// audit:allow(SN007)`",
                ));
            }
            // SN010: public API returning a Vec whose order comes from a
            // DetMap iteration that is never canonicalized.
            if f.is_pub
                && order_stable_api_scope().contains(&file.crate_name.as_str())
                && f.ret.starts_with("Vec")
                && !f.has_sorted_drain()
                && !f.has_sort()
            {
                let det_iter = f
                    .iterations
                    .iter()
                    .find(|it| file.is_det_ident(f, &it.recv));
                if let Some(it) = det_iter {
                    if !file.allowed("SN010", f.line) && !file.allowed("SN010", it.line) {
                        findings.push(Diagnostic::error(
                            "SN010",
                            format!("{}:{}", file.path, f.line),
                            format!(
                                "pub fn `{}` returns a Vec built from DetMap \
                                 `{}` in iteration order",
                                f.name, it.recv
                            ),
                            "public APIs in simulation crates must return \
                             order-stable Vecs: sort before returning, use \
                             `sorted_drain()`, or mark \
                             `// audit:allow(SN010)` documenting the order \
                             contract",
                        ));
                    }
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;

    fn facts(path: &str, crate_name: &str, src: &str) -> FileFacts {
        extract(path, crate_name, false, &lex(src))
    }

    #[test]
    fn sn006_fires_at_boundaries_and_sorted_drain_clears_it() {
        let dirty = facts(
            "sim/m.rs",
            "sim",
            "pub fn export_counts(m: &DetMap<u64, u64>) -> u64 {\n    let mut n = 0u64;\n    for (_k, v) in m.iter() {\n        n += v;\n    }\n    n\n}\n",
        );
        let files = vec![dirty];
        let f = lint_dataflow(&files);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "SN006");
        assert!(f[0].location.ends_with(":3"));

        let clean = facts(
            "sim/m.rs",
            "sim",
            "pub fn export_counts(m: &mut DetMap<u64, u64>) -> Vec<(u64, u64)> {\n    m.sorted_drain()\n}\n",
        );
        assert!(lint_dataflow(&[clean]).is_empty());
    }

    #[test]
    fn sn006_does_not_fire_off_boundary_or_when_allowed() {
        let interior = facts(
            "sim/m.rs",
            "sim",
            "fn tally(m: &DetMap<u64, u64>) -> u64 {\n    let mut n = 0u64;\n    for (_k, v) in m.iter() {\n        n += v;\n    }\n    n\n}\n",
        );
        assert!(lint_dataflow(&[interior]).is_empty());

        let allowed = facts(
            "sim/m.rs",
            "sim",
            "pub fn export_counts(m: &DetMap<u64, u64>) -> u64 {\n    let mut n = 0u64;\n    // audit:allow(SN006) summation is order-independent over u64\n    for (_k, v) in m.iter() {\n        n += v;\n    }\n    n\n}\n",
        );
        assert!(lint_dataflow(&[allowed]).is_empty());
    }

    #[test]
    fn sn006_reaches_callees_of_boundary_fns() {
        let file = facts(
            "sim/m.rs",
            "sim",
            "pub fn export_all(m: &DetMap<u64, u64>) -> u64 { tally(m) }\nfn tally(m: &DetMap<u64, u64>) -> u64 {\n    let mut n = 0u64;\n    for (_k, v) in m.iter() {\n        n += v;\n    }\n    n\n}\n",
        );
        let f = lint_dataflow(&[file]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`tally`"));
    }

    #[test]
    fn sn007_requires_canonical_note_within_reach() {
        let dirty = facts(
            "sim/m.rs",
            "sim",
            "fn mean(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    for x in xs {\n        total += x;\n    }\n    total\n}\n",
        );
        let f = lint_dataflow(&[dirty]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "SN007");

        let noted = facts(
            "sim/m.rs",
            "sim",
            "fn mean(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    // canonical order: xs is slice-ordered by caller\n    for x in xs {\n        total += x;\n    }\n    total\n}\n",
        );
        assert!(lint_dataflow(&[noted]).is_empty());
    }

    #[test]
    fn sn010_fires_on_pub_vec_from_detmap_iteration() {
        let dirty = facts(
            "sim/m.rs",
            "sim",
            "pub fn snapshot(m: &DetMap<u64, u64>) -> Vec<u64> {\n    m.values().copied().collect()\n}\n",
        );
        let f = lint_dataflow(&[dirty]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "SN010");

        let sorted = facts(
            "sim/m.rs",
            "sim",
            "pub fn snapshot(m: &DetMap<u64, u64>) -> Vec<u64> {\n    let mut v: Vec<u64> = m.values().copied().collect();\n    v.sort();\n    v\n}\n",
        );
        assert!(lint_dataflow(&[sorted]).is_empty());
    }

    #[test]
    fn sn010_is_scoped_to_simulation_crates() {
        let front_end = facts(
            "cli/m.rs",
            "cli",
            "pub fn snapshot(m: &DetMap<u64, u64>) -> Vec<u64> {\n    m.values().copied().collect()\n}\n",
        );
        assert!(lint_dataflow(&[front_end]).is_empty());
    }
}
