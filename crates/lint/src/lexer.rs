//! A small hand-rolled Rust lexer, just deep enough for linting.
//!
//! The classic failure mode of grep-style linters is reporting "violations"
//! inside string literals, raw strings, and comments. This lexer strips all
//! of those correctly — nested block comments, `r#"…"#` raw strings with an
//! arbitrary number of hashes, byte/char literals, and the `'a`-lifetime
//! versus `'a'`-char ambiguity — and hands the rule engine a stream of
//! *code* tokens with exact line/column positions. Comments are not
//! discarded entirely: `// otae-lint: allow(<rule>)` directives are parsed
//! out of them as the per-site escape hatch.

/// What a token is. The rule engine matches almost entirely on `Ident` and
/// `Punct`; literal kinds exist so rules can *skip* them deliberately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, `r#type`).
    Ident,
    /// Lifetime such as `'a` (disambiguated from char literals).
    Lifetime,
    /// Numeric literal.
    Number,
    /// String (`"…"`), raw string (`r#"…"#`), byte string, or C string.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation byte (`:`, `#`, `(`, `[`, `{`, `.`, …).
    Punct,
}

/// One lexed token: kind, byte span into the source, and 1-based position.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
    pub col: u32,
    /// Filled in by the scope pass: true inside `#[cfg(test)]` / `#[test]`.
    pub in_test: bool,
}

/// An `// otae-lint: allow(rule-a, rule-b)` directive found in a comment.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Rule names listed inside `allow(…)`.
    pub rules: Vec<String>,
    /// Line the comment sits on.
    pub line: u32,
    /// True when the comment is the only thing on its line, in which case
    /// it covers the *next* line instead of its own.
    pub standalone: bool,
}

/// A `// lint: merge-exhaustive` tag found in a comment. Tags opt the next
/// struct declaration into the `merge-exhaustive` rule.
#[derive(Debug, Clone)]
pub struct TagDirective {
    /// Line the comment sits on.
    pub line: u32,
    /// True for `merge-exhaustive(fingerprint)`: the struct must also flow
    /// into `RunFingerprint`.
    pub fingerprint: bool,
}

/// Lexer output: the code-token stream plus the comment directives.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowDirective>,
    pub tags: Vec<TagDirective>,
}

impl Lexed {
    /// The token stream as a cursor over `src`, the text it was lexed from.
    pub fn view<'a>(&'a self, src: &'a str) -> Toks<'a> {
        Toks { src, toks: &self.tokens }
    }

    /// Is a site on `line` suppressed by an `allow(<rule>)` directive on
    /// the same line, or standalone on the line above?
    pub(crate) fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.rules.iter().any(|r| r == rule)
                && (a.line == line || (a.standalone && a.line + 1 == line))
        })
    }
}

/// A token stream paired with its source text: the token predicates and
/// bracket matchers every analysis pass shares. Out-of-range indices never
/// match, so patterns can probe ahead without bounds checks.
#[derive(Clone, Copy)]
pub struct Toks<'a> {
    pub src: &'a str,
    pub toks: &'a [Token],
}

impl<'a> Toks<'a> {
    pub fn text(&self, t: &Token) -> &'a str {
        &self.src[t.start..t.end]
    }

    /// The identifier at `i`, if token `i` is one.
    pub fn ident(&self, i: usize) -> Option<&'a str> {
        self.toks.get(i).filter(|t| t.kind == TokenKind::Ident).map(|t| self.text(t))
    }

    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.ident(i) == Some(name)
    }

    pub fn is_punct(&self, i: usize, c: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct && self.text(t) == c)
    }

    /// Index of the `open` matching the `close` at `close_idx`.
    pub fn match_back(&self, close_idx: usize, open: &str, close: &str) -> Option<usize> {
        let mut depth = 0usize;
        let mut j = close_idx;
        loop {
            if self.is_punct(j, close) {
                depth += 1;
            } else if self.is_punct(j, open) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
    }

    /// Index of the `close` matching the `open` at `open_idx`.
    pub fn match_forward(&self, open_idx: usize, open: &str, close: &str) -> Option<usize> {
        let mut depth = 0usize;
        for j in open_idx..self.toks.len() {
            if self.is_punct(j, open) {
                depth += 1;
            } else if self.is_punct(j, close) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }
}

/// Lex `src` completely. Never panics: unterminated literals and comments
/// simply run to end-of-file, which is the forgiving behaviour a linter
/// wants on code that may not even compile yet.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        out: Lexed::default(),
        line_had_code: false,
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
    /// Whether the current line has produced a code token yet (drives the
    /// `standalone` flag on allow directives).
    line_had_code: bool,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advance one byte, maintaining the line/column counters.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.col = 1;
            self.line_had_code = false;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32, col: u32) {
        self.line_had_code = true;
        self.out.tokens.push(Token { kind, start, end: self.pos, line, col, in_test: false });
    }

    fn run(mut self) -> Lexed {
        while self.pos < self.src.len() {
            let (start, line, col) = (self.pos, self.line, self.col);
            let c = self.peek(0);
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => {
                    self.string();
                    self.push(TokenKind::Str, start, line, col);
                }
                b'\'' => self.char_or_lifetime(start, line, col),
                b'r' | b'b' | b'c' if self.literal_prefix() => {
                    // br#"…"#, rb is not legal Rust but lexing it as a raw
                    // string is harmless; c"…" is a C string literal.
                    self.raw_or_prefixed(start, line, col);
                }
                b'r' if self.peek(1) == b'#'
                    && (self.peek(2) == b'_' || self.peek(2).is_ascii_alphabetic()) =>
                {
                    // Raw identifier `r#type` — one token, hash included.
                    self.bump_n(2);
                    while self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric() {
                        self.bump();
                    }
                    self.push(TokenKind::Ident, start, line, col);
                }
                _ if c == b'_' || c.is_ascii_alphabetic() => {
                    while self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric() {
                        self.bump();
                    }
                    self.push(TokenKind::Ident, start, line, col);
                }
                _ if c.is_ascii_digit() => {
                    self.number();
                    self.push(TokenKind::Number, start, line, col);
                }
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, start, line, col);
                }
            }
        }
        self.out
    }

    /// Does the cursor sit on a prefixed literal (`r"`, `r#"`, `b"`, `b'`,
    /// `br"`, `c"`, …) rather than a plain identifier starting with r/b/c?
    fn literal_prefix(&self) -> bool {
        let mut i = 1;
        // Allow one more prefix letter (br, rb-style combinations).
        if matches!(self.peek(1), b'r' | b'b') {
            i = 2;
        }
        // Raw forms: hashes then a quote. `r#ident` (raw identifier) has a
        // hash followed by an identifier character, not a quote.
        let mut j = i;
        while self.peek(j) == b'#' {
            j += 1;
        }
        if j > i {
            return self.peek(j) == b'"';
        }
        matches!(self.peek(i), b'"' | b'\'')
    }

    fn raw_or_prefixed(&mut self, start: usize, line: u32, col: u32) {
        // Consume the prefix letters (`r`, `b`, `c`, `br`, `cr`, `rb`),
        // remembering whether an `r` makes the literal *raw*: raw strings
        // have no escapes even with zero hashes, so `r"a\"` ends at the
        // quote — routing it through escaped-string scanning would swallow
        // the terminator and corrupt every following token span.
        let mut raw = false;
        while matches!(self.peek(0), b'r' | b'b' | b'c') {
            raw |= self.peek(0) == b'r';
            self.bump();
            if matches!(self.peek(0), b'"' | b'\'' | b'#') {
                break;
            }
        }
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        match self.peek(0) {
            b'"' if hashes > 0 || raw => {
                // Raw string: ends at `"` followed by `hashes` hashes, with
                // no escape processing at all.
                self.bump();
                loop {
                    if self.pos >= self.src.len() {
                        break;
                    }
                    if self.peek(0) == b'"' {
                        let mut k = 1;
                        while k <= hashes && self.peek(k) == b'#' {
                            k += 1;
                        }
                        if k == hashes + 1 {
                            self.bump_n(hashes + 1);
                            break;
                        }
                    }
                    self.bump();
                }
                self.push(TokenKind::Str, start, line, col);
            }
            b'"' => {
                self.string();
                self.push(TokenKind::Str, start, line, col);
            }
            b'\'' => {
                self.char_literal();
                self.push(TokenKind::Char, start, line, col);
            }
            _ => {
                // `r#ident` raw identifier: hashes already consumed.
                while self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric() {
                    self.bump();
                }
                self.push(TokenKind::Ident, start, line, col);
            }
        }
    }

    /// Plain (escaped) string body, cursor on the opening quote.
    fn string(&mut self) {
        self.bump();
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
    }

    /// Char literal body, cursor on the opening quote.
    fn char_literal(&mut self) {
        self.bump();
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'\'' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
    }

    /// `'` starts either a lifetime (`'a`, `'static`) or a char (`'x'`).
    /// Rule: identifier characters followed by another `'` form a char;
    /// otherwise it was a lifetime.
    fn char_or_lifetime(&mut self, start: usize, line: u32, col: u32) {
        let next = self.peek(1);
        if next == b'\\' || next == b'\'' {
            self.char_literal();
            self.push(TokenKind::Char, start, line, col);
            return;
        }
        if next == b'_' || next.is_ascii_alphabetic() {
            // Scan the identifier run; a closing quote right after it means
            // this was a single-char literal like 'a'.
            let mut k = 2;
            while self.peek(k) == b'_' || self.peek(k).is_ascii_alphanumeric() {
                k += 1;
            }
            if self.peek(k) == b'\'' && k == 2 {
                self.char_literal();
                self.push(TokenKind::Char, start, line, col);
            } else {
                self.bump(); // the quote
                while self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric() {
                    self.bump();
                }
                self.push(TokenKind::Lifetime, start, line, col);
            }
            return;
        }
        // Something like '\u{…}' handled above via backslash; anything else
        // (e.g. '(' char literal) — treat as char.
        self.char_literal();
        self.push(TokenKind::Char, start, line, col);
    }

    fn number(&mut self) {
        self.bump();
        loop {
            let c = self.peek(0);
            if c == b'_' || c.is_ascii_alphanumeric() {
                self.bump();
            } else if c == b'.' && self.peek(1).is_ascii_digit() {
                // `1.5` continues the number; `1..3` does not.
                self.bump();
            } else {
                break;
            }
        }
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let (line, standalone) = (self.line, !self.line_had_code);
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        self.parse_allow(text, line, standalone);
        self.parse_tag(text, line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let (line, standalone) = (self.line, !self.line_had_code);
        self.bump_n(2);
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump_n(2);
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump_n(2);
            } else {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        self.parse_allow(text, line, standalone);
        self.parse_tag(text, line);
    }

    /// Extract `otae-lint: allow(a, b)` from a comment's text.
    fn parse_allow(&mut self, text: &str, line: u32, standalone: bool) {
        let Some(at) = text.find("otae-lint:") else { return };
        let rest = text[at + "otae-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else { return };
        let Some(close) = rest.find(')') else { return };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if !rules.is_empty() {
            self.out.allows.push(AllowDirective { rules, line, standalone });
        }
    }

    /// Extract `lint: merge-exhaustive` / `lint: merge-exhaustive(fingerprint)`
    /// from a comment's text. The tag binds to the next `struct` declaration.
    fn parse_tag(&mut self, text: &str, line: u32) {
        let Some(at) = text.find("lint:") else { return };
        let rest = text[at + "lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("merge-exhaustive") else { return };
        let fingerprint = rest.trim_start().starts_with("(fingerprint)");
        self.out.tags.push(TagDirective { line, fingerprint });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.iter().map(|t| src[t.start..t.end].to_string()).collect()
    }

    #[test]
    fn idents_and_paths_tokenize() {
        assert_eq!(
            texts("std::time::Instant::now()"),
            ["std", ":", ":", "time", ":", ":", "Instant", ":", ":", "now", "(", ")"]
        );
    }

    #[test]
    fn strings_are_single_tokens() {
        let src = r#"let x = "Instant::now() inside a string"; call(x)"#;
        let t = texts(src);
        assert!(t.contains(&"\"Instant::now() inside a string\"".to_string()));
        assert!(!t.contains(&"Instant".to_string()));
    }

    #[test]
    fn raw_strings_with_hashes_swallow_quotes() {
        let src = r###"let x = r#"a "quoted" HashMap::new()"#; done()"###;
        let t = texts(src);
        assert!(!t.contains(&"HashMap".to_string()));
        assert!(t.contains(&"done".to_string()));
    }

    #[test]
    fn nested_block_comments_are_stripped() {
        let src = "/* outer /* inner thread_rng() */ still comment */ fn main() {}";
        let t = texts(src);
        assert_eq!(t[0], "fn");
        assert!(!t.contains(&"thread_rng".to_string()));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str, c: char) { let y = 'b'; let z = '\\n'; }";
        let lexed = lex(src);
        let lifetimes: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| &src[t.start..t.end])
            .collect();
        let chars: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        assert_eq!(chars, ["'b'", "'\\n'"]);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let t = texts("let r#type = 1; let r2 = r#fn;");
        assert!(t.contains(&"r#type".to_string()));
        assert!(t.contains(&"r#fn".to_string()));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"HashMap::new()\"; let c = b'x'; tail()";
        let t = texts(src);
        assert!(!t.contains(&"HashMap".to_string()));
        assert!(t.contains(&"tail".to_string()));
    }

    #[test]
    fn allow_directives_are_parsed_with_standalone_flag() {
        let src = "\
// otae-lint: allow(no-wall-clock)
let x = 1; // otae-lint: allow(no-siphash, no-unseeded-rng)
";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 2);
        assert!(lexed.allows[0].standalone);
        assert_eq!(lexed.allows[0].rules, ["no-wall-clock"]);
        assert_eq!(lexed.allows[0].line, 1);
        assert!(!lexed.allows[1].standalone);
        assert_eq!(lexed.allows[1].rules, ["no-siphash", "no-unseeded-rng"]);
    }

    #[test]
    fn hashless_raw_strings_do_not_process_escapes() {
        // `r"a\"` is a complete raw string: the backslash is a literal
        // byte, not an escape of the closing quote. Escape-processing it
        // would swallow the terminator and corrupt every later span.
        let src = "let re = r\"a\\\"; done()";
        let t = texts(src);
        assert!(t.contains(&"r\"a\\\"".to_string()));
        assert!(t.contains(&"done".to_string()));
    }

    #[test]
    fn prefixed_hashless_raw_strings_terminate() {
        let t = texts("let a = br\"x\\\"; let b = cr\"y\\\"; tail()");
        assert!(t.contains(&"br\"x\\\"".to_string()));
        assert!(t.contains(&"cr\"y\\\"".to_string()));
        assert!(t.contains(&"tail".to_string()));
    }

    #[test]
    fn merge_exhaustive_tags_are_parsed() {
        let src = "\
// lint: merge-exhaustive
struct A;
// lint: merge-exhaustive(fingerprint)
struct B;
// otae-lint: allow(no-siphash)
struct C;
";
        let lexed = lex(src);
        assert_eq!(lexed.tags.len(), 2);
        assert_eq!(lexed.tags[0].line, 1);
        assert!(!lexed.tags[0].fingerprint);
        assert_eq!(lexed.tags[1].line, 3);
        assert!(lexed.tags[1].fingerprint);
    }

    #[test]
    fn positions_are_one_based_and_accurate() {
        let src = "fn main() {\n    panic!(\"x\");\n}";
        let lexed = lex(src);
        let panic_tok =
            lexed.tokens.iter().find(|t| &src[t.start..t.end] == "panic").expect("panic token");
        assert_eq!(panic_tok.line, 2);
        assert_eq!(panic_tok.col, 5);
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        lex("let x = \"unterminated");
        lex("let y = r#\"unterminated");
        lex("/* unterminated");
        lex("let c = 'x");
    }

    #[test]
    fn numbers_do_not_eat_range_operators() {
        assert_eq!(texts("for i in 0..10 {}"), ["for", "i", "in", "0", ".", ".", "10", "{", "}"]);
        assert!(texts("let x = 1.5f32;").contains(&"1.5f32".to_string()));
    }
}
