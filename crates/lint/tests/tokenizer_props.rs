//! Property tests: the lexer is total, and banned patterns embedded in
//! string literals, raw strings, or comments never produce diagnostics.
//!
//! The vendored proptest stand-in has no regex string strategies, so
//! strings are built from sampled charset indices instead.

use otae_lint::{lex, lint_source};
use proptest::collection::vec;
use proptest::prelude::*;

/// Token patterns that would fire some rule if they appeared in code
/// position at these paths.
const BANNED: &[&str] = &[
    "Instant::now()",
    "SystemTime::now()",
    "std::thread::sleep(d)",
    "thread_rng()",
    "from_entropy()",
    "OsRng",
    "std::collections::HashMap::new()",
    "HashMap::with_capacity(8)",
    ".unwrap()",
    ".expect(\"x\")",
    "panic!(\"x\")",
];

/// Paths covering every rule's scope.
const PATHS: &[&str] =
    &["crates/serve/src/fixture.rs", "crates/harness/src/fixture.rs", "crates/ml/src/fixture.rs"];

fn lowercase_filler(indices: &[usize]) -> String {
    indices.iter().map(|&i| (b'a' + (i % 26) as u8) as char).collect()
}

fn assert_silent(src: &str, context: &str) {
    for path in PATHS {
        let diags = lint_source(path, src);
        assert!(
            diags.is_empty(),
            "{context} leaked a diagnostic at {path}:\n{src}\n{:?}",
            diags.iter().map(|d| d.render()).collect::<Vec<_>>()
        );
    }
}

/// Escape for embedding inside a plain (escaped) string literal.
fn escaped(banned: &str) -> String {
    banned.replace('"', "\\\"")
}

proptest! {
    #[test]
    fn banned_patterns_in_plain_strings_are_silent(
        idx in 0..BANNED.len(),
        pre in vec(0..26usize, 0..12),
        post in vec(0..26usize, 0..12),
    ) {
        let banned = escaped(BANNED[idx]);
        let (pre, post) = (lowercase_filler(&pre), lowercase_filler(&post));
        let src = format!("fn f() -> usize {{ let s = \"{pre}{banned}{post}\"; s.len() }}\n");
        assert_silent(&src, "plain string");
    }

    #[test]
    fn banned_patterns_in_raw_strings_are_silent(
        idx in 0..BANNED.len(),
        hashes in 0usize..4,
        filler in vec(0..26usize, 0..12),
    ) {
        let banned = BANNED[idx];
        let h = "#".repeat(hashes);
        let filler = lowercase_filler(&filler);
        let src = format!("fn f() -> usize {{ let s = r{h}\"{filler} {banned}\"{h}; s.len() }}\n");
        assert_silent(&src, "raw string");
    }

    #[test]
    fn banned_patterns_in_comments_are_silent(
        idx in 0..BANNED.len(),
        filler in vec(0..26usize, 0..12),
        block in any::<bool>(),
    ) {
        let banned = BANNED[idx];
        let filler = lowercase_filler(&filler);
        let src = if block {
            format!("/* {filler} {banned} /* nested {banned} */ tail */\nfn f() -> u8 {{ 0 }}\n")
        } else {
            format!("// {filler} {banned}\nfn f() -> u8 {{ 0 }}\n")
        };
        assert_silent(&src, "comment");
    }

    #[test]
    fn lexer_is_total_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..256)) {
        // Arbitrary (possibly invalid) UTF-8, lossily decoded: the lexer
        // must neither panic nor loop.
        let src = String::from_utf8_lossy(&bytes);
        let _ = lex(&src);
    }

    #[test]
    fn linter_is_total_on_rust_shaped_soup(indices in vec(0..38usize, 0..160)) {
        // Characters weighted toward Rust's tricky lexical space: quotes,
        // hashes, braces, `r`/`b` prefixes, comment starters.
        const SOUP: [char; 38] = [
            '{', '}', '(', ')', '[', ']', '\'', '"', '#', '/', '*', 'r', 'b',
            '!', '.', ':', ';', ',', '<', '>', '=', '+', '_', ' ', '\n',
            '0', '9', 'a', 'e', 'k', 'n', 'p', 's', 't', 'u', 'w', 'x', 'z',
        ];
        let src: String = indices.iter().map(|&i| SOUP[i % SOUP.len()]).collect();
        for path in PATHS {
            let _ = lint_source(path, &src);
        }
    }
}

/// Deterministic regressions for the lexer's trickiest edges: hashless raw
/// strings (once mis-lexed as an ident `r` plus a plain string, so a banned
/// pattern inside leaked into code position) and deeply nested block
/// comments.
#[test]
fn raw_string_and_comment_regressions() {
    let cases = [
        // Hashless raw string: no hash to delimit, closes at the first `"`.
        "fn f() -> usize { let s = r\"Instant::now()\"; s.len() }\n",
        // Hashless raw string immediately followed by real code.
        "fn f() -> usize { let s = r\"panic!(oops)\"; s.len() }\n",
        // Byte raw string, hashless.
        "fn f() -> usize { let s = br\"HashMap::new()\"; s.len() }\n",
        // One hash, embedded quote.
        "fn f() -> usize { let s = r#\"say \"unwrap()\" aloud\"#; s.len() }\n",
        // Three-deep nested block comment.
        "/* a /* b /* Instant::now() */ c */ d */\nfn f() -> u8 { 0 }\n",
        // Nested block comment that closes exactly at EOF.
        "fn f() -> u8 { 0 }\n/* outer /* inner */ tail */",
    ];
    for src in cases {
        assert_silent(src, "regression case");
    }
}
