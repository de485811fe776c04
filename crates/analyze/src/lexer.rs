//! A minimal Rust lexer for lint purposes: strips comments and collapses
//! string literals, emitting line/column-tagged tokens.
//!
//! This is **not** a compiler front end. It understands exactly enough of
//! Rust's lexical grammar to make token-pattern lints sound:
//!
//! * line comments (`//`), nested block comments (`/* /* */ */`);
//! * string, raw-string (`r#"…"#`), byte-string and char literals — their
//!   *contents* survive as [`TokenKind::Str`] tokens but never produce
//!   identifier tokens, so a lint needle inside a string can never fire;
//! * lifetimes (`'a`) vs. char literals (`'a'`);
//! * identifiers, number literals and single-character punctuation.
//!
//! The lexer also extracts the analyzer's escape hatch while scanning line
//! comments: `// mspt-analyze: allow(<lint>) <reason>` becomes an
//! [`AllowComment`] carrying its line, the lint it silences and the
//! mandatory human-readable reason.

/// What a token is, at the granularity the lints need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `seed_from_u64`, `Mutex`, …).
    Ident,
    /// A number literal, kept as its source text (`0xcafe_f00d`, `1e300`).
    Number,
    /// The *contents* of a string / byte-string literal (quotes stripped).
    Str,
    /// The contents of a char literal (quotes stripped).
    Char,
    /// A lifetime (`'a`), without the leading quote.
    Lifetime,
    /// One punctuation character (`{`, `.`, `#`, …).
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Source text (see [`TokenKind`] for what is kept per class).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

impl Token {
    /// Whether this token is the identifier `name`.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation character `ch`.
    #[must_use]
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(ch)
    }
}

/// The marker a line comment must start with (after `//` and whitespace) to
/// be an analyzer escape comment.
pub const ALLOW_MARKER: &str = "mspt-analyze:";

/// A parsed `// mspt-analyze: allow(<lint>) <reason>` escape comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowComment {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// The lint name inside `allow(…)`.
    pub lint: String,
    /// Free-form justification after the closing parenthesis. The driver
    /// rejects empty reasons: an unexplained suppression is itself a
    /// finding.
    pub reason: String,
    /// Whether the comment parsed as a well-formed `allow(<lint>)` clause.
    /// Malformed markers (e.g. `mspt-analyze: allowed(x)`) are reported
    /// instead of silently ignored.
    pub well_formed: bool,
}

/// The output of [`lex`]: tokens plus the escape comments found on the way.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// All tokens, in source order.
    pub tokens: Vec<Token>,
    /// All `mspt-analyze:` escape comments, in source order.
    pub allows: Vec<AllowComment>,
}

/// Lexes a Rust source text. Never fails: unterminated literals simply end
/// at end-of-file (the real compiler rejects such files long before the
/// analyzer matters).
#[must_use]
pub fn lex(source: &str) -> LexOutput {
    Lexer {
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        out: LexOutput::default(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: LexOutput,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, maintaining the line/column counters. Multi-byte
    /// UTF-8 continuation bytes do not advance the column, so columns count
    /// characters, not bytes.
    fn bump(&mut self) -> Option<u8> {
        let byte = self.bytes.get(self.pos).copied()?;
        self.pos += 1;
        if byte == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if byte & 0xc0 != 0x80 {
            self.col += 1;
        }
        Some(byte)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> LexOutput {
        while let Some(byte) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match byte {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    self.bump();
                    let text = self.string_body(0);
                    self.push(TokenKind::Str, text, line, col);
                }
                b'r' | b'b' if self.raw_or_byte_string(line, col) => {}
                b'\'' => self.char_or_lifetime(line, col),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                    let text = self.ident_body();
                    self.push(TokenKind::Ident, text, line, col);
                }
                b'0'..=b'9' => {
                    let text = self.number_body();
                    self.push(TokenKind::Number, text, line, col);
                }
                _ => {
                    self.bump();
                    // Multi-byte characters outside literals only occur in
                    // doc text the comment paths already consumed; emit the
                    // lead byte as opaque punctuation either way.
                    self.push(TokenKind::Punct, (byte as char).to_string(), line, col);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let start = self.pos;
        while let Some(byte) = self.peek(0) {
            if byte == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.parse_allow(&text, line);
    }

    fn parse_allow(&mut self, comment: &str, line: u32) {
        // Tolerate doc-comment slashes and `!` before the marker.
        let body = comment.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = body.strip_prefix(ALLOW_MARKER) else {
            return;
        };
        let rest = rest.trim_start();
        // Only `allow…` clauses are escape-comment candidates; prose that
        // merely mentions the tool name (docs, READMEs quoted in comments)
        // is not a malformed marker.
        if !rest.starts_with("allow") {
            return;
        }
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|clause| clause.split_once(')'))
            .map(|(lint, reason)| (lint.trim().to_string(), reason.trim().to_string()));
        match parsed {
            Some((lint, reason)) if !lint.is_empty() => self.out.allows.push(AllowComment {
                line,
                lint,
                reason,
                well_formed: true,
            }),
            _ => self.out.allows.push(AllowComment {
                line,
                lint: String::new(),
                reason: rest.to_string(),
                well_formed: false,
            }),
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// Consumes a plain string body (opening quote already consumed),
    /// honoring `\` escapes, and returns its raw contents.
    fn string_body(&mut self, _hashes: usize) -> String {
        let start = self.pos;
        while let Some(byte) = self.peek(0) {
            match byte {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'"' => break,
                _ => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.bump(); // closing quote
        text
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` and friends. Returns
    /// `false` when the `r`/`b` is just the start of an identifier, leaving
    /// the position untouched.
    fn raw_or_byte_string(&mut self, line: u32, col: u32) -> bool {
        let mut ahead = 1;
        if self.peek(0) == Some(b'b') && self.peek(1) == Some(b'r') {
            ahead = 2;
        }
        let is_raw = self.bytes[self.pos] == b'r' || ahead == 2;
        // Count `#`s after the prefix (raw strings only).
        let mut hashes = 0;
        if is_raw {
            while self.peek(ahead + hashes) == Some(b'#') {
                hashes += 1;
            }
        }
        if self.peek(ahead + hashes) != Some(b'"') {
            return false;
        }
        for _ in 0..(ahead + hashes + 1) {
            self.bump();
        }
        if !is_raw {
            let text = self.string_body(0);
            self.push(TokenKind::Str, text, line, col);
            return true;
        }
        // Raw body: ends at `"` followed by `hashes` hash characters.
        let start = self.pos;
        let closing: Vec<u8> = std::iter::once(b'"')
            .chain((0..hashes).map(|_| b'#'))
            .collect();
        loop {
            if self.pos >= self.bytes.len() {
                break;
            }
            if self.bytes[self.pos..].starts_with(&closing) {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        for _ in 0..closing.len() {
            self.bump();
        }
        self.push(TokenKind::Str, text, line, col);
        true
    }

    /// Disambiguates `'a'` (char literal) from `'a` (lifetime).
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        self.bump(); // the quote
        let first = self.peek(0);
        let second = self.peek(1);
        let is_lifetime =
            matches!(first, Some(b'_' | b'a'..=b'z' | b'A'..=b'Z')) && second != Some(b'\'');
        if is_lifetime {
            let text = self.ident_body();
            self.push(TokenKind::Lifetime, text, line, col);
            return;
        }
        let start = self.pos;
        while let Some(byte) = self.peek(0) {
            match byte {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'\'' => break,
                _ => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.bump(); // closing quote
        self.push(TokenKind::Char, text, line, col);
    }

    fn ident_body(&mut self) -> String {
        let start = self.pos;
        while let Some(byte) = self.peek(0) {
            if byte.is_ascii_alphanumeric() || byte == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    /// Number literals: digits, `_` separators, hex/typed suffixes, and a
    /// decimal point only when a digit follows (so `1.max(2)` and tuple
    /// indexing stay punctuation).
    fn number_body(&mut self) -> String {
        let start = self.pos;
        while let Some(byte) = self.peek(0) {
            if byte.is_ascii_alphanumeric()
                || byte == b'_'
                || (byte == b'.' && matches!(self.peek(1), Some(b'0'..=b'9')))
            {
                self.bump();
            } else if matches!(byte, b'+' | b'-')
                && matches!(self.bytes.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
            {
                // Exponent sign (`1e-3`), only directly after `e`/`E`.
                self.bump();
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(source: &str) -> Vec<String> {
        lex(source)
            .tokens
            .into_iter()
            .filter(|token| token.kind == TokenKind::Ident)
            .map(|token| token.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_never_produce_identifier_tokens() {
        let source = r##"
            // seed_from_u64 in a line comment
            /* seed_from_u64 in /* a nested */ block comment */
            let a = "seed_from_u64 in a string";
            let b = r#"seed_from_u64 in a raw string"#;
            let c = b"seed_from_u64 bytes";
        "##;
        let names = idents(source);
        assert!(!names.contains(&"seed_from_u64".to_string()), "{names:?}");
        assert!(names.contains(&"let".to_string()));
    }

    #[test]
    fn string_contents_survive_as_str_tokens() {
        let tokens = lex(r#"get("kind")"#).tokens;
        assert_eq!(tokens[0].text, "get");
        assert!(tokens[1].is_punct('('));
        assert_eq!(tokens[2].kind, TokenKind::Str);
        assert_eq!(tokens[2].text, "kind");
        assert!(tokens[3].is_punct(')'));
    }

    #[test]
    fn lifetimes_do_not_swallow_the_rest_of_the_file() {
        let names = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(names, ["fn", "f", "x", "str", "str", "x"]);
        let tokens = lex("let c = 'x'; let nl = '\\n';").tokens;
        let chars: Vec<_> = tokens
            .iter()
            .filter(|token| token.kind == TokenKind::Char)
            .collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        let tokens = lex("ab\n  cd").tokens;
        assert_eq!((tokens[0].line, tokens[0].col), (1, 1));
        assert_eq!((tokens[1].line, tokens[1].col), (2, 3));
    }

    #[test]
    fn numbers_keep_hex_and_separators_but_not_method_calls() {
        let tokens = lex("0xcac4_e4e7 1e300 1.max(2) 2.5").tokens;
        assert_eq!(tokens[0].text, "0xcac4_e4e7");
        assert_eq!(tokens[1].text, "1e300");
        assert_eq!(tokens[2].text, "1");
        assert!(tokens[3].is_punct('.'));
        assert_eq!(tokens[4].text, "max");
        assert_eq!(tokens.last().unwrap().text, "2.5");
    }

    #[test]
    fn allow_comments_are_extracted_with_lint_and_reason() {
        let out = lex(
            "let x = 1; // mspt-analyze: allow(raw-seed) caller derives the seed\n\
             // mspt-analyze: allow(lock-discipline)\n\
             // mspt-analyze: allow lock-discipline missing parens\n\
             //! mspt-analyze: the lint pass (prose, not a marker)\n",
        );
        assert_eq!(out.allows.len(), 3);
        assert_eq!(out.allows[0].line, 1);
        assert_eq!(out.allows[0].lint, "raw-seed");
        assert_eq!(out.allows[0].reason, "caller derives the seed");
        assert!(out.allows[0].well_formed);
        // Reasonless allow still parses (the driver rejects it later).
        assert_eq!(out.allows[1].lint, "lock-discipline");
        assert_eq!(out.allows[1].reason, "");
        // Malformed marker is flagged, not dropped.
        assert!(!out.allows[2].well_formed);
    }
}
