//! A real Rust token lexer for the audit passes.
//!
//! The PR-1 scanner stripped comments and strings line by line, which left
//! it blind to anything that spans lines: a `/* … */` block comment hiding
//! a forbidden token, a raw string `r#"HashMap"#` leaking one, a multi-line
//! string literal containing `println!(`. This lexer tokenizes whole files
//! instead: nested block comments, raw strings with any `#` arity, byte
//! and char literals, lifetimes, raw identifiers, and a small set of
//! compound operators the item parser cares about (`::`, `->`, `+=`, …).
//!
//! Two properties are load-bearing and tested:
//!
//! * **Round trip** — the concatenation of every token's text is exactly
//!   the input. Nothing is dropped or normalized, so the lint layer can
//!   reconstruct per-line *code* text (comments removed, string contents
//!   blanked) without ever disagreeing with the file on line numbers.
//! * **No panics** — malformed input (unterminated strings or comments)
//!   lexes to a trailing token rather than an error; the audit must never
//!   crash on a file it merely scans.

/// What kind of source text a token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// …` to end of line (including `///` and `//!` doc comments).
    LineComment,
    /// `/* … */`, nesting tracked, may span lines.
    BlockComment,
    /// `"…"` or `b"…"` with escapes, may span lines.
    Str,
    /// `r"…"`, `r#"…"#`, `br##"…"##` — any `#` arity.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `'a` in `fn f<'a>(…)`.
    Lifetime,
    /// An identifier or keyword (including raw identifiers `r#type`).
    Ident,
    /// A numeric literal (integers, floats, suffixed forms).
    Number,
    /// Everything else: one operator or delimiter, with `::`, `->`, `=>`,
    /// `..`, `+=`, `-=`, `*=`, `/=` lexed as single tokens.
    Punct,
}

/// One lexed token: kind, exact source text (borrowed from the lexed
/// source), and the 1-based line its first character sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token's classification.
    pub kind: TokenKind,
    /// The exact source text (round-trips by concatenation).
    pub text: &'a str,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Token<'_> {
    /// How many newlines the token spans (0 for single-line tokens).
    pub fn newlines(&self) -> usize {
        self.text.bytes().filter(|&b| b == b'\n').count()
    }
}

/// Tokenizes `source` completely. Infallible: malformed trailing
/// constructs become a final token of the kind that opened them.
pub fn lex(source: &str) -> Vec<Token<'_>> {
    Lexer {
        src: source,
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    out: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token<'a>> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            let text = &self.src[start..self.pos];
            self.line += text.bytes().filter(|&b| b == b'\n').count();
            self.out.push(Token { kind, text, line });
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Consumes one token's worth of bytes and returns its kind.
    fn next_kind(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                while matches!(self.peek(0), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                    self.pos += 1;
                }
                TokenKind::Whitespace
            }
            b'/' if self.peek(1) == Some(b'/') => {
                while self.peek(0).is_some_and(|c| c != b'\n') {
                    self.pos += 1;
                }
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => {
                self.pos += 2;
                let mut depth = 1usize;
                while depth > 0 {
                    match (self.peek(0), self.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            self.pos += 2;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            self.pos += 2;
                        }
                        (Some(_), _) => self.pos += 1,
                        (None, _) => break, // unterminated: swallow to EOF
                    }
                }
                TokenKind::BlockComment
            }
            b'r' | b'b' if self.at_raw_string() => self.lex_raw_string(),
            b'b' if self.peek(1) == Some(b'"') => {
                self.pos += 1;
                self.lex_string()
            }
            b'b' if self.peek(1) == Some(b'\'') => {
                self.pos += 1;
                self.lex_char()
            }
            b'"' => self.lex_string(),
            b'\'' => self.lex_quote(),
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                // Raw identifiers (`r#type`) reach here only when
                // `at_raw_string` said no; consume the `r#` prefix.
                if b == b'r'
                    && self.peek(1) == Some(b'#')
                    && self.peek(2).is_some_and(is_ident_byte)
                {
                    self.pos += 2;
                }
                while self.peek(0).is_some_and(is_ident_byte) {
                    self.pos += 1;
                }
                TokenKind::Ident
            }
            b'0'..=b'9' => {
                self.pos += 1;
                loop {
                    match self.peek(0) {
                        Some(c) if is_ident_byte(c) => self.pos += 1,
                        // A decimal point belongs to the number only when a
                        // digit follows — `1..10` keeps its range operator.
                        Some(b'.') if self.peek(1).is_some_and(|c| c.is_ascii_digit()) => {
                            self.pos += 1
                        }
                        // Exponent sign: `1e-9`.
                        Some(b'+' | b'-')
                            if matches!(self.bytes.get(self.pos - 1), Some(b'e' | b'E'))
                                && self.peek(1).is_some_and(|c| c.is_ascii_digit()) =>
                        {
                            self.pos += 1
                        }
                        _ => break,
                    }
                }
                TokenKind::Number
            }
            _ => {
                // Compound operators the item parser treats atomically.
                const COMPOUND: &[&[u8]] = &[
                    b"::", b"->", b"=>", b"..", b"+=", b"-=", b"*=", b"/=", b"|=", b"&=",
                ];
                for op in COMPOUND {
                    if self.bytes[self.pos..].starts_with(op) {
                        self.pos += op.len();
                        return TokenKind::Punct;
                    }
                }
                // One UTF-8 scalar, not one byte: keep multibyte chars whole.
                let c_len = self.src[self.pos..]
                    .chars()
                    .next()
                    .map_or(1, char::len_utf8);
                self.pos += c_len;
                TokenKind::Punct
            }
        }
    }

    /// Whether the cursor sits on `r"`, `r#…#"`, `br"`, or `br#…#"`.
    fn at_raw_string(&self) -> bool {
        let mut i = self.pos;
        if self.bytes.get(i) == Some(&b'b') {
            i += 1;
        }
        if self.bytes.get(i) != Some(&b'r') {
            return false;
        }
        i += 1;
        while self.bytes.get(i) == Some(&b'#') {
            i += 1;
        }
        self.bytes.get(i) == Some(&b'"')
    }

    fn lex_raw_string(&mut self) -> TokenKind {
        if self.peek(0) == Some(b'b') {
            self.pos += 1;
        }
        self.pos += 1; // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening '"'
        loop {
            match self.peek(0) {
                None => break, // unterminated: swallow to EOF
                Some(b'"') => {
                    self.pos += 1;
                    let mut close = 0usize;
                    while close < hashes && self.peek(0) == Some(b'#') {
                        close += 1;
                        self.pos += 1;
                    }
                    if close == hashes {
                        break;
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
        TokenKind::RawStr
    }

    fn lex_string(&mut self) -> TokenKind {
        self.pos += 1; // opening '"'
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => self.pos += 2.min(self.bytes.len() - self.pos),
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => self.pos += 1,
            }
        }
        TokenKind::Str
    }

    /// After a `'`: a char literal or a lifetime. `'a'` is a char, `'a` a
    /// lifetime; `'\n'` always a char.
    fn lex_quote(&mut self) -> TokenKind {
        if self.peek(1).is_some_and(is_ident_byte) && self.peek(1) != Some(b'\\') {
            // Identifier-ish after the quote: lifetime unless a closing
            // quote follows exactly one scalar later.
            let c_len = self.src[self.pos + 1..]
                .chars()
                .next()
                .map_or(1, char::len_utf8);
            if self.bytes.get(self.pos + 1 + c_len) == Some(&b'\'') {
                self.pos += 2 + c_len;
                return TokenKind::Char;
            }
            self.pos += 1;
            while self.peek(0).is_some_and(is_ident_byte) {
                self.pos += 1;
            }
            return TokenKind::Lifetime;
        }
        self.lex_char()
    }

    fn lex_char(&mut self) -> TokenKind {
        self.pos += 1; // opening '\''
        match self.peek(0) {
            Some(b'\\') => {
                self.pos += 2.min(self.bytes.len() - self.pos);
                // `\u{…}` payloads run to their brace.
                while self.peek(0).is_some_and(|c| c != b'\'') {
                    self.pos += 1;
                }
            }
            Some(_) => {
                let c_len = self.src[self.pos..]
                    .chars()
                    .next()
                    .map_or(1, char::len_utf8);
                self.pos += c_len;
            }
            None => return TokenKind::Char,
        }
        if self.peek(0) == Some(b'\'') {
            self.pos += 1;
        }
        TokenKind::Char
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Reconstructs per-line **code** text from a token stream: comments are
/// removed, string/char contents collapse to empty literals (`""` / `''`)
/// on their start line, everything else keeps its exact text and spacing.
/// Token matching over these lines can therefore never fire inside a
/// comment or a literal — including multi-line and raw forms the old
/// per-line stripper could not see.
pub fn code_lines(source: &str, tokens: &[Token]) -> Vec<String> {
    let nlines = source.lines().count().max(1);
    let mut lines = vec![String::new(); nlines];
    let mut line = 0usize; // 0-based cursor
    for t in tokens {
        match t.kind {
            TokenKind::Whitespace => {
                // Distribute intra-line spacing; newlines advance the cursor.
                for (i, seg) in t.text.split('\n').enumerate() {
                    if i > 0 {
                        line += 1;
                    }
                    if let Some(l) = lines.get_mut(line) {
                        l.push_str(seg.trim_end_matches('\r'));
                    }
                }
                continue;
            }
            TokenKind::LineComment | TokenKind::BlockComment => {}
            TokenKind::Str | TokenKind::RawStr => {
                if let Some(l) = lines.get_mut(line) {
                    l.push_str("\"\"");
                }
            }
            TokenKind::Char => {
                if let Some(l) = lines.get_mut(line) {
                    l.push_str("''");
                }
            }
            _ => {
                if let Some(l) = lines.get_mut(line) {
                    l.push_str(t.text);
                }
            }
        }
        line += t.newlines();
    }
    lines
}

/// Extracts `audit:allow(SNxxx)` markers from comment tokens, keyed by the
/// 1-based line the comment starts on. Block comments contribute to their
/// start line only — a marker suppresses the same line and the next, like
/// the line-comment form always has.
pub fn allow_lines(tokens: &[Token]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let mut rest = t.text;
        while let Some(pos) = rest.find("audit:allow(") {
            rest = &rest[pos + "audit:allow(".len()..];
            if let Some(end) = rest.find(')') {
                out.push((t.line, rest[..end].trim().to_string()));
                rest = &rest[end..];
            } else {
                break;
            }
        }
    }
    out
}

/// The 1-based lines whose comments contain `needle` (case-insensitive).
/// Used by SN007's canonical-order-comment escape.
pub fn comment_lines_containing(tokens: &[Token], needle: &str) -> Vec<usize> {
    let needle = needle.to_ascii_lowercase();
    tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .filter(|t| t.text.to_ascii_lowercase().contains(&needle))
        .map(|t| t.line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concat(tokens: &[Token]) -> String {
        tokens.iter().map(|t| t.text).collect()
    }

    #[test]
    fn round_trips_representative_source() {
        let src = "//! doc\nfn f<'a>(x: &'a str) -> u32 {\n    /* multi\n       line */\n    let s = r#\"raw \"quoted\" text\"#;\n    let c = 'x'; let nl = '\\n';\n    let b = b\"bytes\"; let bc = b'q';\n    x.len() as u32 + 0.5_f64 as u32\n}\n";
        let tokens = lex(src);
        assert_eq!(concat(&tokens), src);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "a /* outer /* inner */ still comment */ b";
        let tokens = lex(src);
        assert_eq!(concat(&tokens), src);
        let idents: Vec<&str> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, ["a", "b"]);
    }

    #[test]
    fn raw_strings_with_hash_arity() {
        for src in [
            "let x = r\"plain\";",
            "let x = r#\"one \" inside\"#;",
            "let x = r##\"two \"# inside\"##;",
            "let x = br#\"bytes\"#;",
        ] {
            let tokens = lex(src);
            assert_eq!(concat(&tokens), src, "round trip for {src}");
            assert_eq!(
                tokens
                    .iter()
                    .filter(|t| t.kind == TokenKind::RawStr)
                    .count(),
                1,
                "one raw string in {src}"
            );
        }
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let src = "let r#type = 3; let r = r#type;";
        let tokens = lex(src);
        assert_eq!(concat(&tokens), src);
        assert!(tokens.iter().all(|t| t.kind != TokenKind::RawStr));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "r#type"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a u8) { let c = 'a'; let d = '\\''; }";
        let tokens = lex(src);
        assert_eq!(concat(&tokens), src);
        assert_eq!(
            tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            tokens.iter().filter(|t| t.kind == TokenKind::Char).count(),
            2
        );
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "fn a() {}\n/* two\nline */\nfn b() {}\n";
        let tokens = lex(src);
        let b_line = tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident && t.text == "b")
            .map(|t| t.line);
        assert_eq!(b_line, Some(4));
    }

    #[test]
    fn numbers_do_not_eat_range_operators() {
        let src = "for i in 0..10 { let f = 1.5e-3; let h = 0xff_u32; }";
        let tokens = lex(src);
        assert_eq!(concat(&tokens), src);
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Punct && t.text == ".."));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Number && t.text == "1.5e-3"));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Number && t.text == "0xff_u32"));
    }

    #[test]
    fn unterminated_constructs_swallow_to_eof_without_panicking() {
        for src in ["/* never closed", "let x = \"open", "let y = r#\"open", "'"] {
            let tokens = lex(src);
            assert_eq!(concat(&tokens), src, "round trip for {src}");
        }
    }

    #[test]
    fn code_lines_blank_comments_and_string_contents() {
        let src = "let a = \"has .unwrap() inside\"; // and HashMap here\n/* Instant */ let b = r#\"HashMap\"#;\nlet c = 1;\n";
        let tokens = lex(src);
        let lines = code_lines(src, &tokens);
        assert_eq!(lines.len(), 3);
        assert!(!lines[0].contains("unwrap"));
        assert!(!lines[0].contains("HashMap"));
        assert!(lines[0].contains("let a = \"\";"));
        assert!(!lines[1].contains("Instant"));
        assert!(!lines[1].contains("HashMap"));
        assert!(lines[1].contains("let b = \"\";"));
        assert_eq!(lines[2], "let c = 1;");
    }

    #[test]
    fn code_lines_handle_multiline_strings_and_comments() {
        let src =
            "let s = \"first\nsecond panic!( line\";\nok();\n/* a\nb HashMap\nc */\ndone();\n";
        let tokens = lex(src);
        let lines = code_lines(src, &tokens);
        assert!(lines[0].contains("let s = \"\""));
        assert!(!lines.iter().any(|l| l.contains("panic")));
        assert!(!lines.iter().any(|l| l.contains("HashMap")));
        assert_eq!(lines[2], "ok();");
        assert_eq!(lines[6], "done();");
    }

    #[test]
    fn allow_markers_found_in_line_and_block_comments() {
        let src = "x(); // audit:allow(SN001)\n/* audit:allow(SN003) audit:allow(SN009) */\ny();\n";
        let allows = allow_lines(&lex(src));
        assert_eq!(
            allows,
            vec![
                (1, "SN001".to_string()),
                (2, "SN003".to_string()),
                (2, "SN009".to_string())
            ]
        );
    }

    #[test]
    fn comment_needle_search_is_case_insensitive() {
        let src = "// Canonical order: socket ids ascending\nlet x = 1;\n";
        assert_eq!(comment_lines_containing(&lex(src), "canonical"), vec![1]);
        assert!(comment_lines_containing(&lex(src), "zebra").is_empty());
    }
}
