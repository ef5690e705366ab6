//! Item-level fact extraction from a token stream.
//!
//! The lexer gives an exact token sequence; this module walks it once and
//! records the facts the dataflow lints need: `use` edges, fn items with
//! their call sites and iteration sites, `DetMap`-typed bindings, float
//! accumulators in loops, and the suppression markers. The workspace
//! driver lexes each file once and hands the same tokens to this walk and
//! to the per-line source pass; the facts then feed the whole-workspace
//! graph passes.
//!
//! This is deliberately not a full parser. It tracks brace depth, gulps
//! attributes / `use` statements / fn headers wholesale so their internal
//! punctuation cannot confuse the depth tracker, and pattern-matches the
//! handful of shapes the lints care about. Unknown constructs fall through
//! harmlessly.

use crate::lexer::{allow_lines, comment_lines_containing, Token, TokenKind};

/// Iteration methods that expose a collection's internal order.
pub const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "entries",
];

/// A `use` declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseFact {
    /// 1-based line of the `use` keyword.
    pub line: usize,
    /// Flattened path text, e.g. `std::collections::HashMap` or
    /// `starnuma_types::{DetMap,SimRng}`.
    pub path: String,
}

/// One iteration site inside a fn: a `for … in recv` loop or an explicit
/// `.iter()` / `.drain()`-style call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IterFact {
    /// 1-based line of the site.
    pub line: usize,
    /// The receiver identifier being iterated (best effort).
    pub recv: String,
    /// The iteration method name, or empty for a bare `for x in recv`.
    pub method: String,
}

/// A `name += …` float accumulation inside a loop body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccumFact {
    /// The accumulator's identifier.
    pub name: String,
    /// 1-based line of the `+=`.
    pub line: usize,
}

/// Facts about one `fn` item.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FnFact {
    /// The fn's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the fn is plain `pub` (restricted `pub(crate)` is not
    /// public API and does not count).
    pub is_pub: bool,
    /// The return type's token text (space-joined), empty when none.
    pub ret: String,
    /// Every identifier invoked with `(` in the body (functions, methods,
    /// macros) — the raw material for call edges.
    pub calls: Vec<String>,
    /// Iteration sites in the body.
    pub iterations: Vec<IterFact>,
    /// Float accumulations inside loop bodies.
    pub accums: Vec<AccumFact>,
    /// Identifiers bound to `DetMap` values in this fn (locals + params).
    pub det_locals: Vec<String>,
    /// Whether the fn is inside a `#[cfg(test)]` module or carries a
    /// `#[test]` / `#[cfg(test)]` attribute itself.
    pub in_test: bool,
}

impl FnFact {
    /// Whether the body calls `sorted_drain` (the canonical-order drain).
    pub fn has_sorted_drain(&self) -> bool {
        self.calls.iter().any(|c| c == "sorted_drain")
    }

    /// Whether the body sorts anything (`sort`, `sort_by_key`, …).
    pub fn has_sort(&self) -> bool {
        self.calls.iter().any(|c| c.starts_with("sort"))
    }
}

/// Everything the lint passes need to know about one source file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Workspace-relative path label (as used in diagnostics).
    pub path: String,
    /// The owning crate's directory name (empty for the root package).
    pub crate_name: String,
    /// Whether this is a crate root (`lib.rs` / `main.rs` under `src/`).
    pub is_crate_root: bool,
    /// All `use` declarations.
    pub uses: Vec<UseFact>,
    /// File-level identifiers bound to `DetMap` values (struct fields,
    /// statics).
    pub det_idents: Vec<String>,
    /// All fn items, in source order.
    pub fns: Vec<FnFact>,
    /// `audit:allow(SNxxx)` markers: (line, code).
    pub allows: Vec<(usize, String)>,
    /// Lines whose comments contain "canonical" (SN007's escape hatch).
    pub canonical_lines: Vec<usize>,
}

impl FileFacts {
    /// Whether an `audit:allow(code)` marker covers `line` (same line or
    /// the line above).
    pub fn allowed(&self, code: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|(l, c)| c == code && (*l == line || l + 1 == line))
    }

    /// Whether `ident` is known to hold a `DetMap` anywhere in this file
    /// or specifically in `f`'s scope.
    pub fn is_det_ident(&self, f: &FnFact, ident: &str) -> bool {
        self.det_idents.iter().any(|d| d == ident) || f.det_locals.iter().any(|d| d == ident)
    }
}

/// Extracts [`FileFacts`] from a lexed file.
pub fn extract(path: &str, crate_name: &str, is_crate_root: bool, tokens: &[Token]) -> FileFacts {
    let sig: Vec<Token> = tokens
        .iter()
        .copied()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let mut facts = FileFacts {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        is_crate_root,
        allows: allow_lines(tokens),
        canonical_lines: comment_lines_containing(tokens, "canonical"),
        ..FileFacts::default()
    };

    let mut depth: i64 = 0;
    let mut bracket: i64 = 0;
    let mut test_depth: Option<i64> = None;
    let mut pending_test_attr = false;
    let mut awaiting_test_brace = false;
    let mut awaiting_loop_brace = false;
    let mut impl_header = false;
    // (index into facts.fns, depth of the fn body's braces).
    let mut fn_stack: Vec<(usize, i64)> = Vec::new();
    let mut loop_depths: Vec<i64> = Vec::new();
    // (fn index, name) of float-zero-initialized `let mut` locals.
    let mut float_locals: Vec<(usize, String)> = Vec::new();

    let mut i = 0usize;
    while i < sig.len() {
        let t = sig[i];
        let text = t.text;
        match t.kind {
            TokenKind::Punct => match text {
                "{" => {
                    if awaiting_test_brace {
                        test_depth = test_depth.or(Some(depth));
                        awaiting_test_brace = false;
                    }
                    if awaiting_loop_brace {
                        loop_depths.push(depth + 1);
                        awaiting_loop_brace = false;
                    }
                    impl_header = false;
                    depth += 1;
                    i += 1;
                }
                "}" => {
                    depth -= 1;
                    if test_depth.is_some_and(|td| depth <= td) {
                        test_depth = None;
                    }
                    while fn_stack.last().is_some_and(|&(_, d)| depth < d) {
                        fn_stack.pop();
                    }
                    while loop_depths.last().is_some_and(|&d| depth < d) {
                        loop_depths.pop();
                    }
                    i += 1;
                }
                "[" => {
                    bracket += 1;
                    i += 1;
                }
                "]" => {
                    bracket -= 1;
                    i += 1;
                }
                ";" => {
                    if bracket == 0 {
                        awaiting_test_brace = false;
                        awaiting_loop_brace = false;
                        impl_header = false;
                    }
                    i += 1;
                }
                "#" => {
                    i = gulp_attribute(&sig, i, &mut pending_test_attr);
                }
                _ => i += 1,
            },
            TokenKind::Ident => match text {
                "use" => {
                    let line = t.line;
                    let mut j = i + 1;
                    let mut buf = String::new();
                    while j < sig.len() && sig[j].text != ";" {
                        buf.push_str(sig[j].text);
                        j += 1;
                    }
                    facts.uses.push(UseFact { line, path: buf });
                    pending_test_attr = false;
                    i = j + 1;
                }
                "impl" | "trait" => {
                    impl_header = true;
                    pending_test_attr = false;
                    i += 1;
                }
                "mod" => {
                    if pending_test_attr {
                        awaiting_test_brace = true;
                        pending_test_attr = false;
                    }
                    i += 1;
                }
                "loop" => {
                    awaiting_loop_brace = true;
                    i += 1;
                }
                "while" if !impl_header => {
                    i = gulp_loop_header(&sig, i + 1, None, &mut facts, &fn_stack);
                    awaiting_loop_brace = true;
                }
                "for" if !impl_header && sig.get(i + 1).is_none_or(|n| n.text != "<") => {
                    i = gulp_loop_header(&sig, i + 1, Some(t.line), &mut facts, &fn_stack);
                    awaiting_loop_brace = true;
                }
                "fn" => {
                    i = parse_fn_header(
                        &sig,
                        i,
                        &mut facts,
                        &mut fn_stack,
                        &mut depth,
                        test_depth.is_some() || pending_test_attr,
                    );
                    pending_test_attr = false;
                }
                "let" => {
                    record_float_local(&sig, i, &fn_stack, &mut float_locals);
                    i += 1;
                }
                "struct" | "enum" | "const" | "static" | "type" => {
                    pending_test_attr = false;
                    i += 1;
                }
                "DetMap" => {
                    record_det_binding(&sig, i, &fn_stack, &mut facts);
                    i += 1;
                }
                _ => {
                    scan_body_ident(&sig, i, &fn_stack, &loop_depths, &float_locals, &mut facts);
                    i += 1;
                }
            },
            _ => i += 1,
        }
    }
    facts
}

/// Gulps a `#[…]` / `#![…]` attribute starting at the `#`; sets
/// `pending_test_attr` for `#[test]` and `#[cfg(test)]`. Returns the index
/// past the closing `]`.
fn gulp_attribute(sig: &[Token], start: usize, pending_test_attr: &mut bool) -> usize {
    let mut j = start + 1;
    if sig.get(j).is_some_and(|t| t.text == "!") {
        j += 1;
    }
    if sig.get(j).is_none_or(|t| t.text != "[") {
        return start + 1;
    }
    let body_start = j + 1;
    let mut depth = 0i64;
    while let Some(t) = sig.get(j) {
        match t.text {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let body = &sig[body_start..j.min(sig.len())];
    let is_test_attr = body.first().is_some_and(|t| t.text == "test")
        || body
            .windows(3)
            .any(|w| w[0].text == "cfg" && w[1].text == "(" && w[2].text == "test");
    if is_test_attr {
        *pending_test_attr = true;
    }
    (j + 1).min(sig.len())
}

/// Scans a `for`/`while` header from just past the keyword to the body
/// `{`, recording calls and (for `for` loops) the iteration site. Returns
/// the index of the body `{` so the caller's `awaiting_loop_brace` fires.
fn gulp_loop_header(
    sig: &[Token],
    start: usize,
    for_line: Option<usize>,
    facts: &mut FileFacts,
    fn_stack: &[(usize, i64)],
) -> usize {
    let mut j = start;
    let mut paren = 0i64;
    let mut in_at: Option<usize> = None;
    while let Some(t) = sig.get(j) {
        match t.text {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" if paren == 0 => break,
            ";" if paren == 0 => break,
            "in" if paren == 0 && in_at.is_none() => in_at = Some(j),
            _ => {}
        }
        j += 1;
    }
    let cur_fn = fn_stack.last().map(|&(f, _)| f);
    // Calls inside the header expression.
    let mut k = start;
    while k + 1 < j {
        if sig[k].kind == TokenKind::Ident && sig[k + 1].text == "(" {
            if let Some(f) = cur_fn {
                facts.fns[f].calls.push(sig[k].text.to_string());
            }
        }
        k += 1;
    }
    // The iteration site itself (for loops only).
    if let (Some(line), Some(in_idx)) = (for_line, in_at) {
        let expr = &sig[in_idx + 1..j.min(sig.len())];
        let mut method = String::new();
        let mut recv = String::new();
        for (k, t) in expr.iter().enumerate() {
            if t.kind == TokenKind::Ident
                && ITER_METHODS.contains(&t.text)
                && expr.get(k + 1).is_some_and(|n| n.text == "(")
                && k >= 1
                && expr[k - 1].text == "."
            {
                method = t.text.to_string();
                if k >= 2 && expr[k - 2].kind == TokenKind::Ident {
                    recv = expr[k - 2].text.to_string();
                }
                break;
            }
        }
        if recv.is_empty() {
            // Bare `for x in recv` / `for x in &self.recv`: the last
            // identifier of the path not itself being called.
            for (k, t) in expr.iter().enumerate() {
                if t.kind == TokenKind::Ident && expr.get(k + 1).is_none_or(|n| n.text != "(") {
                    recv = t.text.to_string();
                }
            }
        }
        if let Some(f) = cur_fn {
            facts.fns[f]
                .iterations
                .push(IterFact { line, recv, method });
        }
    }
    j
}

/// Parses a `fn` header starting at the `fn` keyword: name, visibility,
/// generics, params (mining them for `DetMap` bindings), return type, and
/// where clause. Pushes the new fn and, when a body opens, enters it.
/// Returns the index past the body `{` or the `;`.
fn parse_fn_header(
    sig: &[Token],
    fn_idx_tok: usize,
    facts: &mut FileFacts,
    fn_stack: &mut Vec<(usize, i64)>,
    depth: &mut i64,
    in_test: bool,
) -> usize {
    let line = sig[fn_idx_tok].line;
    let mut j = fn_idx_tok + 1;
    let name = sig
        .get(j)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.to_string())
        .unwrap_or_default();
    j += 1;
    let is_pub = {
        let mut k = fn_idx_tok;
        // Skip qualifiers between the visibility and `fn`.
        while k >= 1
            && (matches!(sig[k - 1].text, "const" | "async" | "extern")
                || sig[k - 1].kind == TokenKind::Str)
        {
            k -= 1;
        }
        k >= 1 && sig[k - 1].text == "pub"
    };
    // Generics.
    if sig.get(j).is_some_and(|t| t.text == "<") {
        let mut angle = 0i64;
        while let Some(t) = sig.get(j) {
            match t.text {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Params.
    let params_start = j;
    if sig.get(j).is_some_and(|t| t.text == "(") {
        let mut paren = 0i64;
        while let Some(t) = sig.get(j) {
            match t.text {
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    if paren == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    let mut det_locals = Vec::new();
    // A file may end inside the header (`pub fn` at EOF): clamp both ends.
    let params = &sig[params_start.min(sig.len())..j.min(sig.len())];
    for (k, t) in params.iter().enumerate() {
        if t.text == "DetMap" {
            if let Some(n) = det_name_before(params, k) {
                det_locals.push(n);
            }
        }
    }
    // Return type.
    let mut ret = String::new();
    if sig.get(j).is_some_and(|t| t.text == "->") {
        j += 1;
        let (mut a, mut p) = (0i64, 0i64);
        while let Some(t) = sig.get(j) {
            match t.text {
                "{" | ";" | "where" if a == 0 && p == 0 => break,
                "<" => a += 1,
                ">" => a -= 1,
                "(" => p += 1,
                ")" => p -= 1,
                _ => {}
            }
            if !ret.is_empty() && t.kind == TokenKind::Ident {
                ret.push(' ');
            }
            ret.push_str(t.text);
            j += 1;
        }
    }
    // Where clause.
    while sig.get(j).is_some_and(|t| t.text != "{" && t.text != ";") {
        j += 1;
    }
    let fn_idx = facts.fns.len();
    facts.fns.push(FnFact {
        name,
        line,
        is_pub,
        ret,
        det_locals,
        in_test,
        ..FnFact::default()
    });
    match sig.get(j).map(|t| t.text) {
        Some("{") => {
            fn_stack.push((fn_idx, *depth + 1));
            *depth += 1;
            j + 1
        }
        Some(";") => j + 1,
        _ => j,
    }
}

/// Walks back from a `DetMap` token over its path (`a::b::DetMap`) and
/// `&`/`mut`, expecting `name :` or `name =`; returns the bound name.
fn det_name_before(sig: &[Token], det_at: usize) -> Option<String> {
    let mut j = det_at.checked_sub(1)?;
    while sig[j].text == "::" {
        j = j.checked_sub(2)?;
    }
    while matches!(sig[j].text, "&" | "mut") {
        j = j.checked_sub(1)?;
    }
    if !matches!(sig[j].text, ":" | "=") {
        return None;
    }
    let name_tok = sig.get(j.checked_sub(1)?)?;
    if name_tok.kind == TokenKind::Ident {
        Some(name_tok.text.to_string())
    } else {
        None
    }
}

/// Records a `DetMap`-typed binding at file level or fn level.
fn record_det_binding(
    sig: &[Token],
    det_at: usize,
    fn_stack: &[(usize, i64)],
    facts: &mut FileFacts,
) {
    let Some(name) = det_name_before(sig, det_at) else {
        return;
    };
    if let Some(&(f, _)) = fn_stack.last() {
        if !facts.fns[f].det_locals.contains(&name) {
            facts.fns[f].det_locals.push(name);
        }
    } else if !facts.det_idents.contains(&name) {
        facts.det_idents.push(name);
    }
}

/// Records `let mut name = <float zero>` / `let mut name: f64` locals.
fn record_float_local(
    sig: &[Token],
    let_at: usize,
    fn_stack: &[(usize, i64)],
    float_locals: &mut Vec<(usize, String)>,
) {
    let Some(&(f, _)) = fn_stack.last() else {
        return;
    };
    if sig.get(let_at + 1).is_none_or(|t| t.text != "mut") {
        return;
    }
    let Some(name) = sig
        .get(let_at + 2)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.to_string())
    else {
        return;
    };
    let mut k = let_at + 3;
    let mut is_float = false;
    // Optional `: type` annotation.
    if sig.get(k).is_some_and(|t| t.text == ":") {
        while let Some(t) = sig.get(k) {
            if t.text == "=" || t.text == ";" {
                break;
            }
            if matches!(t.text, "f64" | "f32") {
                is_float = true;
            }
            k += 1;
        }
    }
    if sig.get(k).is_some_and(|t| t.text == "=") {
        if let Some(v) = sig.get(k + 1) {
            if v.kind == TokenKind::Number
                && (v.text.contains('.') || v.text.contains("f64") || v.text.contains("f32"))
            {
                is_float = true;
            }
        }
    }
    if is_float {
        float_locals.push((f, name));
    }
}

/// Handles a generic identifier in a body: call sites, explicit iteration
/// calls, and float `+=` accumulations inside loops.
fn scan_body_ident(
    sig: &[Token],
    i: usize,
    fn_stack: &[(usize, i64)],
    loop_depths: &[i64],
    float_locals: &[(usize, String)],
    facts: &mut FileFacts,
) {
    let Some(&(f, _)) = fn_stack.last() else {
        return;
    };
    let t = sig[i];
    let next = sig.get(i + 1).map(|n| n.text);
    let called =
        next == Some("(") || (next == Some("!") && sig.get(i + 2).is_some_and(|n| n.text == "("));
    if called {
        facts.fns[f].calls.push(t.text.to_string());
        if ITER_METHODS.contains(&t.text) && i >= 1 && sig[i - 1].text == "." {
            let recv = sig
                .get(i.wrapping_sub(2))
                .filter(|r| r.kind == TokenKind::Ident)
                .map(|r| r.text.to_string())
                .unwrap_or_default();
            facts.fns[f].iterations.push(IterFact {
                line: t.line,
                recv,
                method: t.text.to_string(),
            });
        }
        return;
    }
    if next == Some("+=")
        && !loop_depths.is_empty()
        && float_locals.iter().any(|(ff, n)| *ff == f && *n == t.text)
    {
        facts.fns[f].accums.push(AccumFact {
            name: t.text.to_string(),
            line: t.line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn facts_of(src: &str) -> FileFacts {
        extract("t.rs", "sim", false, &lex(src))
    }

    #[test]
    fn extracts_uses_and_fn_shapes() {
        let src = "use std::collections::BTreeMap;\nuse starnuma_types::{DetMap, SimRng};\n\npub fn merge_results(xs: &[u32]) -> Vec<u32> {\n    let mut out = Vec::new();\n    out.extend(xs.iter().copied());\n    out\n}\n\nfn helper() {}\n";
        let f = facts_of(src);
        assert_eq!(f.uses.len(), 2);
        assert_eq!(f.uses[0].path, "std::collections::BTreeMap");
        assert_eq!(f.uses[1].path, "starnuma_types::{DetMap,SimRng}");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "merge_results");
        assert!(f.fns[0].is_pub);
        assert_eq!(f.fns[0].ret, "Vec< u32>");
        assert!(f.fns[0].calls.iter().any(|c| c == "extend"));
        assert!(!f.fns[1].is_pub);
    }

    #[test]
    fn detmap_fields_locals_and_params_are_recorded() {
        let src = "pub struct Dir {\n    entries: DetMap<u64, u32>,\n}\n\nfn f(masks: &DetMap<u64, u64>) {\n    let mut local = DetMap::new();\n    local.insert(1u64, 2u64);\n    let _ = masks.len();\n}\n";
        let f = facts_of(src);
        assert_eq!(f.det_idents, vec!["entries".to_string()]);
        assert_eq!(
            f.fns[0].det_locals,
            vec!["masks".to_string(), "local".to_string()]
        );
    }

    #[test]
    fn iteration_sites_capture_receiver_and_method() {
        let src = "fn g(m: &DetMap<u64, u64>) -> u64 {\n    let mut acc = 0u64;\n    for (k, v) in m.iter() {\n        acc += k + v;\n    }\n    let n: u64 = m.values().sum();\n    acc + n\n}\n";
        let f = facts_of(src);
        let iters = &f.fns[0].iterations;
        assert!(iters
            .iter()
            .any(|it| it.recv == "m" && it.method == "iter" && it.line == 3));
        assert!(iters
            .iter()
            .any(|it| it.recv == "m" && it.method == "values"));
    }

    #[test]
    fn float_accumulators_in_loops_are_found() {
        let src = "fn h(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    let mut count = 0u64;\n    for x in xs {\n        total += x;\n        count += 1;\n    }\n    let _ = count;\n    total\n}\n";
        let f = facts_of(src);
        assert_eq!(f.fns[0].accums.len(), 1);
        assert_eq!(f.fns[0].accums[0].name, "total");
        assert_eq!(f.fns[0].accums[0].line, 5);
    }

    #[test]
    fn float_accumulation_outside_a_loop_is_not_an_accum() {
        let src =
            "fn h(x: f64) -> f64 {\n    let mut total = 0.0;\n    total += x;\n    total\n}\n";
        let f = facts_of(src);
        assert!(f.fns[0].accums.is_empty());
    }

    #[test]
    fn test_modules_and_test_attrs_mark_fns() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        lib();\n    }\n}\n";
        let f = facts_of(src);
        assert_eq!(f.fns.len(), 2);
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test);
    }

    #[test]
    fn impl_for_is_not_a_loop_and_sorted_drain_is_seen() {
        let src = "struct S;\nimpl Iterator for S {\n    type Item = u32;\n    fn next(&mut self) -> Option<u32> { None }\n}\n\nfn export(m: &mut DetMap<u64, u64>) -> Vec<(u64, u64)> {\n    m.sorted_drain()\n}\n";
        let f = facts_of(src);
        let export = f.fns.iter().find(|x| x.name == "export").unwrap();
        assert!(export.has_sorted_drain());
        assert!(f.fns.iter().all(|x| x.accums.is_empty()));
    }

    #[test]
    fn allows_and_canonical_lines_are_extracted() {
        let src = "// audit:allow(SN007)\nfn f(xs: &[f64]) -> f64 {\n    // canonical order: sorted by id\n    let mut t = 0.0;\n    for x in xs {\n        t += x;\n    }\n    t\n}\n";
        let f = facts_of(src);
        assert_eq!(f.allows, vec![(1, "SN007".to_string())]);
        assert_eq!(f.canonical_lines, vec![3]);
    }

    /// Regression: a file ending in `fn` or `pub fn` once sliced the
    /// token list past its end and panicked.
    #[test]
    fn fn_header_at_end_of_file_does_not_panic() {
        for (src, name) in [("fn", ""), ("pub fn", ""), ("fn f", "f")] {
            let f = facts_of(src);
            assert_eq!(f.fns.len(), 1, "one fn fact for {src:?}");
            assert_eq!(f.fns[0].name, name, "name for {src:?}");
        }
    }

    #[test]
    fn pub_crate_does_not_count_as_public_api() {
        let src = "pub(crate) fn internal() -> Vec<u32> { Vec::new() }\npub fn external() -> Vec<u32> { Vec::new() }\n";
        let f = facts_of(src);
        assert!(!f.fns[0].is_pub);
        assert!(f.fns[1].is_pub);
    }

    #[test]
    fn while_loops_count_as_loops_for_accums() {
        let src = "fn w(xs: &[f64]) -> f64 {\n    let mut t = 0.0;\n    let mut i = 0usize;\n    while i < xs.len() {\n        t += xs[i];\n        i += 1;\n    }\n    t\n}\n";
        let f = facts_of(src);
        assert_eq!(f.fns[0].accums.len(), 1);
        assert_eq!(f.fns[0].accums[0].name, "t");
    }
}
