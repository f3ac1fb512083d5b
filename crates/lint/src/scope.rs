//! Marks which tokens live inside test-only code.
//!
//! Rules that guard *production* invariants (panic-freedom, wall-clock
//! isolation, SipHash avoidance) must not fire on `#[cfg(test)]` modules or
//! `#[test]` functions — tests legitimately unwrap, sleep, and build
//! reference `HashMap`s. This pass walks the token stream once, tracking
//! brace depth, and flags every token whose enclosing item carried a
//! test-marking attribute (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`,
//! `#[cfg_attr(test, …)]`, and inner `#![cfg(test)]` forms).

use crate::lexer::{Token, TokenKind, Toks};

/// Fill in [`Token::in_test`] across the stream.
pub fn mark_test_scopes(tokens: &mut [Token], src: &str) {
    let flags = test_flags(Toks { src, toks: tokens });
    for (t, in_test) in tokens.iter_mut().zip(flags) {
        t.in_test = in_test;
    }
}

/// Per token: does it sit inside test-only code?
fn test_flags(t: Toks) -> Vec<bool> {
    let mut flags = vec![false; t.toks.len()];
    // Stack of (depth-after-open, is_test) for every open brace scope.
    let mut scopes: Vec<(u32, bool)> = Vec::new();
    let mut depth: u32 = 0;
    // An attribute containing `test` was seen and its item body has not
    // opened yet.
    let mut pending_test = false;

    let mut i = 0;
    while i < t.toks.len() {
        if t.is_punct(i, "#") {
            // Outer `#[…]` or inner `#![…]` attribute: scan its bracketed
            // token run for the `test` identifier.
            let inner = t.is_punct(i + 1, "!");
            let open = if inner { i + 2 } else { i + 1 };
            if t.is_punct(open, "[") {
                let mut j = open + 1;
                let mut bracket_depth = 1u32;
                let mut has_test = false;
                while j < t.toks.len() && bracket_depth > 0 {
                    let tok = &t.toks[j];
                    match (tok.kind, t.text(tok)) {
                        (TokenKind::Punct, "[") => bracket_depth += 1,
                        (TokenKind::Punct, "]") => bracket_depth -= 1,
                        (TokenKind::Ident, "test") => has_test = true,
                        _ => {}
                    }
                    j += 1;
                }
                // The attribute tokens themselves inherit the current scope.
                let in_test = pending_test || scopes.iter().any(|s| s.1);
                flags[i..j].fill(in_test);
                if has_test {
                    if inner {
                        // `#![cfg(test)]` marks the *enclosing* scope.
                        scopes.push((depth, true));
                    } else {
                        pending_test = true;
                    }
                }
                i = j;
                continue;
            }
        }

        let tok = &t.toks[i];
        match (tok.kind, t.text(tok)) {
            (TokenKind::Punct, "{") => {
                depth += 1;
                if pending_test {
                    scopes.push((depth, true));
                    pending_test = false;
                }
            }
            (TokenKind::Punct, "}") => {
                if scopes.last().is_some_and(|&(d, _)| d == depth) {
                    scopes.pop();
                }
                depth = depth.saturating_sub(1);
            }
            (TokenKind::Punct, ";") => {
                // `#[cfg(test)] use foo;` — a body-less item consumed the
                // attribute without opening a scope.
                pending_test = false;
            }
            _ => {}
        }
        flags[i] = pending_test || scopes.iter().any(|s| s.1);
        i += 1;
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn test_flags(src: &str, ident: &str) -> Vec<bool> {
        let mut lexed = lex(src);
        mark_test_scopes(&mut lexed.tokens, src);
        lexed.tokens.iter().filter(|t| &src[t.start..t.end] == ident).map(|t| t.in_test).collect()
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "
fn prod() { hit(); }
#[cfg(test)]
mod tests {
    fn helper() { hit(); }
}
fn prod2() { hit(); }
";
        assert_eq!(test_flags(src, "hit"), [false, true, false]);
    }

    #[test]
    fn test_fn_attribute_marks_only_its_body() {
        let src = "
fn a() { hit(); }
#[test]
fn b() { hit(); }
fn c() { hit(); }
";
        assert_eq!(test_flags(src, "hit"), [false, true, false]);
    }

    #[test]
    fn cfg_any_test_and_cfg_attr_count() {
        let src = "
#[cfg(any(test, feature = \"x\"))]
mod m { hit(); }
#[cfg_attr(test, allow(dead_code))]
fn f() { hit(); }
";
        assert_eq!(test_flags(src, "hit"), [true, true]);
    }

    #[test]
    fn bodyless_items_consume_the_attribute() {
        let src = "
#[cfg(test)]
use std::collections::HashMap;
fn prod() { hit(); }
";
        assert_eq!(test_flags(src, "hit"), [false]);
    }

    #[test]
    fn nested_braces_inside_test_stay_test() {
        let src = "
#[cfg(test)]
mod tests {
    fn f() { if x { hit(); } }
}
";
        assert_eq!(test_flags(src, "hit"), [true]);
    }

    #[test]
    fn inner_cfg_test_marks_enclosing_scope() {
        let src = "
mod generated {
    #![cfg(test)]
    fn f() { hit(); }
}
fn prod() { hit(); }
";
        assert_eq!(test_flags(src, "hit"), [true, false]);
    }

    #[test]
    fn non_test_attributes_do_not_mark() {
        let src = "
#[derive(Debug)]
struct S { x: u8 }
fn f() { hit(); }
";
        assert_eq!(test_flags(src, "hit"), [false]);
    }
}
