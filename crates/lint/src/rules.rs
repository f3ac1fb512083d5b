//! The rule engine: token-pattern checks over the lexed, scope-marked
//! stream.
//!
//! Every check works on *code* tokens only (the lexer already stripped
//! comments and literals), honours `#[cfg(test)]` scoping per rule, and
//! consults the file's `// otae-lint: allow(…)` directives before
//! reporting. Matching is resolution-free by design — a lexer cannot know
//! what `HashMap` resolves to — so each pattern is chosen to be
//! unambiguous at the token level (e.g. `HashMap::new` exists only for the
//! SipHash `RandomState` hasher; `FxHashMap` is a different identifier).

use crate::config::{path_is_test, Rule, ENFORCED};
use crate::diag::Diagnostic;
use crate::lexer::{Lexed, TokenKind, Toks};

/// One source file handed to the workspace analyzer, under its
/// workspace-relative path.
pub struct SourceFile {
    pub path: String,
    pub src: String,
}

/// Result of a workspace pass: diagnostics plus the rendered lock
/// acquisition graph.
pub struct WorkspaceReport {
    pub diags: Vec<Diagnostic>,
    pub lock_graph: String,
}

/// Lint a whole file set at once. Token-pattern rules run per file; the
/// structural rules (lock-order, no-blocking-under-lock, merge-exhaustive,
/// guard-across-spawn) see the cross-file symbol tables and call graph.
pub fn lint_workspace(files: &[SourceFile]) -> WorkspaceReport {
    let mut out = Vec::new();
    let mut prepped = Vec::with_capacity(files.len());
    for f in files {
        let mut lexed = crate::lexer::lex(&f.src);
        crate::scope::mark_test_scopes(&mut lexed.tokens, &f.src);
        let ctx = Ctx {
            path: &f.path,
            t: lexed.view(&f.src),
            lexed: &lexed,
            path_test: path_is_test(&f.path),
        };
        for rule in ENFORCED {
            check_rule(&ctx, rule, &mut out);
        }
        let model = crate::parse::build(&f.src, &lexed);
        prepped.push(crate::callgraph::PreppedFile {
            path: f.path.clone(),
            src: f.src.clone(),
            lexed,
            model,
        });
    }
    let analysis = crate::callgraph::analyze(&prepped);
    out.extend(analysis.diags);
    crate::diag::sort(&mut out);
    // Structs sharing a name across files would otherwise double-report.
    out.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line && a.col == b.col);
    WorkspaceReport { diags: out, lock_graph: analysis.lock_graph }
}

/// Lint one file's source under its workspace-relative path (a one-file
/// workspace: structural rules degrade soundly without cross-file context).
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let files = [SourceFile { path: path.to_string(), src: src.to_string() }];
    lint_workspace(&files).diags
}

struct Ctx<'a> {
    path: &'a str,
    t: Toks<'a>,
    lexed: &'a Lexed,
    path_test: bool,
}

impl Ctx<'_> {
    /// Tokens starting at `i` spell the `::`-separated path `segs`.
    fn is_path(&self, i: usize, segs: &[&str]) -> bool {
        let mut j = i;
        for (k, seg) in segs.iter().enumerate() {
            if k > 0 {
                if !(self.t.is_punct(j, ":") && self.t.is_punct(j + 1, ":")) {
                    return false;
                }
                j += 2;
            }
            if !self.t.is_ident(j, seg) {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Number of tokens a matched `segs` path occupies.
    fn path_len(segs: &[&str]) -> usize {
        segs.len() + 2 * (segs.len() - 1)
    }

    /// Report `rule` at token `i` unless test scoping or an allow directive
    /// exempts the site.
    fn report(&self, out: &mut Vec<Diagnostic>, rule: Rule, i: usize, message: String) {
        let t = &self.t.toks[i];
        let test_exempt = !rule.checks_tests() && (self.path_test || t.in_test);
        if test_exempt || self.lexed.allowed(rule.name(), t.line) {
            return;
        }
        let path = self.path.to_string();
        out.push(Diagnostic { rule, path, line: t.line, col: t.col, message });
    }
}

fn check_rule(ctx: &Ctx, rule: Rule, out: &mut Vec<Diagnostic>) {
    if !rule.in_scope(ctx.path) {
        return;
    }
    match rule {
        Rule::NoSiphash => no_siphash(ctx, out),
        Rule::NoWallClock => no_wall_clock(ctx, out),
        Rule::NoUnseededRng => no_unseeded_rng(ctx, out),
        Rule::NoPanicInServe => no_panic(ctx, out),
        Rule::NoFloatNondeterminism => no_float_nondeterminism(ctx, out),
        // Structural rules run in the workspace pass (callgraph::analyze),
        // not per file.
        Rule::LockOrder
        | Rule::NoBlockingUnderLock
        | Rule::MergeExhaustive
        | Rule::GuardAcrossSpawn => {}
    }
}

/// Rule 1 — std HashMap/HashSet (SipHash) construction.
///
/// Fires on (a) `use std::collections::…HashMap/HashSet` imports, including
/// brace groups, (b) fully-qualified `std::collections::HashMap` paths, and
/// (c) `HashMap::new` / `with_capacity` / `from` constructions — those
/// constructors exist only on the `RandomState` (SipHash) instantiation, so
/// the match needs no type resolution. `with_hasher` forms never fire.
fn no_siphash(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let t = ctx.t;
    let mut i = 0;
    while i < t.toks.len() {
        // `use std::collections::…` — scan the statement for map names.
        if t.is_ident(i, "use") && ctx.is_path(i + 1, &["std", "collections"]) {
            let mut j = i + 1 + Ctx::path_len(&["std", "collections"]);
            while j < t.toks.len() && !t.is_punct(j, ";") {
                if let Some(name @ ("HashMap" | "HashSet")) = t.ident(j) {
                    let msg = format!("`std::collections::{name}` import (SipHash)");
                    ctx.report(out, Rule::NoSiphash, j, msg);
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // Fully-qualified path outside a use statement.
        if ctx.is_path(i, &["std", "collections", "HashMap"])
            || ctx.is_path(i, &["std", "collections", "HashSet"])
        {
            let name_idx = i + Ctx::path_len(&["std", "collections", "HashMap"]) - 1;
            let name = t.text(&t.toks[name_idx]);
            let msg = format!("fully-qualified `std::collections::{name}` (SipHash)");
            ctx.report(out, Rule::NoSiphash, i, msg);
            i = name_idx + 1;
            continue;
        }
        // Bare construction: `HashMap::new(…)` etc. A preceding `::` would
        // mean a longer path (e.g. `collections::HashMap`) already handled.
        if let Some(name @ ("HashMap" | "HashSet")) = t.ident(i) {
            if !(i >= 1 && t.is_punct(i - 1, ":"))
                && t.is_punct(i + 1, ":")
                && t.is_punct(i + 2, ":")
            {
                let ctor =
                    ["new", "with_capacity", "from"].into_iter().find(|c| t.is_ident(i + 3, c));
                if let Some(ctor) = ctor {
                    let msg = format!("`{name}::{ctor}` constructs a SipHash table");
                    ctx.report(out, Rule::NoSiphash, i, msg);
                }
            }
        }
        i += 1;
    }
}

/// Rule 2 — wall-clock reads and raw sleeps outside `serve::clock`.
fn no_wall_clock(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.t.toks.len() {
        for (pat, what) in [
            (["Instant", "now"], "`Instant::now` call"),
            (["SystemTime", "now"], "`SystemTime::now` call"),
            (["thread", "sleep"], "raw `thread::sleep`"),
        ] {
            if ctx.is_path(i, &pat) {
                ctx.report(out, Rule::NoWallClock, i, what.to_string());
            }
        }
    }
}

/// Rule 3 — entropy-seeded RNG anywhere (tests included).
fn no_unseeded_rng(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.t.toks.len() {
        let what = match ctx.t.ident(i) {
            Some("thread_rng") => "`thread_rng()` draws from the OS entropy pool",
            Some("from_entropy") => "`from_entropy()` seeds from the OS entropy pool",
            Some("OsRng") => "`OsRng` is unseedable by construction",
            _ => continue,
        };
        ctx.report(out, Rule::NoUnseededRng, i, what.to_string());
    }
}

/// Rule 4 — panic paths in serve/harness run code.
fn no_panic(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let t = ctx.t;
    for i in 0..t.toks.len() {
        // `.unwrap(` / `.expect(` method calls.
        if t.is_punct(i, ".") {
            for m in ["unwrap", "expect"] {
                if t.is_ident(i + 1, m) && t.is_punct(i + 2, "(") {
                    let msg = format!("`.{m}()` on a run path");
                    ctx.report(out, Rule::NoPanicInServe, i + 1, msg);
                }
            }
            // Indexing through a just-acquired lock guard: `.lock()[…]`,
            // `.read()[…]`, `.write()[…]` — an out-of-range index unwinds
            // while the lock is held.
            for m in ["lock", "read", "write"] {
                if t.is_ident(i + 1, m)
                    && t.is_punct(i + 2, "(")
                    && t.is_punct(i + 3, ")")
                    && t.is_punct(i + 4, "[")
                {
                    let msg = format!("indexing `[…]` directly through `.{m}()`");
                    ctx.report(out, Rule::NoPanicInServe, i + 4, msg);
                }
            }
        }
        // Panic-family macros.
        if let Some(name @ ("panic" | "unreachable" | "todo" | "unimplemented")) = t.ident(i) {
            if t.is_punct(i + 1, "!") && !(i >= 1 && t.is_punct(i - 1, "#")) {
                let msg = format!("`{name}!` macro on a run path");
                ctx.report(out, Rule::NoPanicInServe, i, msg);
            }
        }
    }
}

/// Rule 5 — hash-map iteration feeding float accumulation in scoring paths.
///
/// Heuristic, documented in DESIGN.md §10: an identifier is *map-ish* when
/// the file declares it with a hash-map/set type (`x: FxHashMap<…>`,
/// `let x = HashMap::new()`, struct fields included). A map-ish iteration
/// (`x.values()`, `.iter()`, `.keys()`, `.drain()`, …) fires when the same
/// statement also contains a float-accumulation marker (`sum::<f32>`,
/// `fold(0.0, …)`, `fold(0f32, …)`, `product::<f64>`), or when it is the
/// iterator of a `for` loop whose body accumulates with `+=`. BTree/Vec
/// iteration never fires — that is the fix.
fn no_float_nondeterminism(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let t = ctx.t;
    const MAP_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
    let is_map_type = |j: usize| t.ident(j).is_some_and(|name| MAP_TYPES.contains(&name));
    // Pass 1: collect map-ish identifiers.
    let mut mapish: Vec<&str> = Vec::new();
    for i in 0..t.toks.len() {
        let Some(name) = t.ident(i) else { continue };
        // `name : [& [mut]] MapType <` — binding, param, or field.
        if t.is_punct(i + 1, ":") && !t.is_punct(i + 2, ":") {
            let mut j = i + 2;
            while t.is_punct(j, "&") || t.is_ident(j, "mut") {
                j += 1;
            }
            if is_map_type(j) && t.is_punct(j + 1, "<") {
                mapish.push(name);
            }
        }
        // `let [mut] name = MapType::…`.
        if name == "let" {
            let j = if t.is_ident(i + 1, "mut") { i + 2 } else { i + 1 };
            if let Some(bound) = t.ident(j) {
                if t.is_punct(j + 1, "=") && is_map_type(j + 2) {
                    mapish.push(bound);
                }
            }
        }
    }
    if mapish.is_empty() {
        return;
    }
    const ITERS: [&str; 7] =
        ["iter", "iter_mut", "values", "values_mut", "keys", "into_iter", "drain"];
    // Pass 2: find map-ish iterations and scan their statement context.
    for i in 0..t.toks.len() {
        let Some(map) = t.ident(i).filter(|name| mapish.contains(name)) else { continue };
        let Some(iter) = t.ident(i + 2).filter(|m| ITERS.contains(m)) else { continue };
        if !t.is_punct(i + 1, ".") {
            continue;
        }
        let in_for = statement_start_has_for(t, i);
        if float_accum_ahead(t, i + 3) || (in_for && for_body_accumulates(t, i)) {
            let msg = format!("hash-map iteration `{map}.{iter}()` feeds float accumulation");
            ctx.report(out, Rule::NoFloatNondeterminism, i, msg);
        }
    }
}

/// Does the statement containing token `i` open with a `for … in`?
fn statement_start_has_for(t: Toks, i: usize) -> bool {
    (0..i)
        .rev()
        .take_while(|&j| !(t.is_punct(j, ";") || t.is_punct(j, "{") || t.is_punct(j, "}")))
        .any(|j| t.is_ident(j, "for"))
}

/// Scan forward from `from` to the end of the statement (`;` at depth 0, or
/// an opening `{`) for a float-accumulation marker.
fn float_accum_ahead(t: Toks, from: usize) -> bool {
    let mut depth = 0i32;
    for (j, tok) in t.toks.iter().enumerate().skip(from) {
        if tok.kind == TokenKind::Punct {
            match t.text(tok) {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => return false,
                "{" | "}" => return false,
                _ => {}
            }
        }
        if is_float_marker(t, j) {
            return true;
        }
    }
    false
}

/// `sum::<fNN>` / `product::<fNN>` / `fold(<float literal>`.
fn is_float_marker(t: Toks, j: usize) -> bool {
    let float_type = |k: usize| matches!(t.ident(k), Some("f32" | "f64"));
    let turbofish = t.is_punct(j + 1, ":") && t.is_punct(j + 2, ":") && t.is_punct(j + 3, "<");
    if (t.is_ident(j, "sum") || t.is_ident(j, "product")) && turbofish && float_type(j + 4) {
        return true;
    }
    t.is_ident(j, "fold")
        && t.is_punct(j + 1, "(")
        && t.toks
            .get(j + 2)
            .is_some_and(|n| n.kind == TokenKind::Number && is_float_literal(t.text(n)))
}

/// `1.5`, `0.0f32` and `0f32` are floats; `0`, `7u64` and `0x1f32` are not.
fn is_float_literal(lit: &str) -> bool {
    let hex = lit.starts_with("0x") || lit.starts_with("0X");
    lit.contains('.') || (!hex && (lit.ends_with("f32") || lit.ends_with("f64")))
}

/// For `for … in map.iter() { body }`: does the body contain `+=`?
fn for_body_accumulates(t: Toks, i: usize) -> bool {
    // The loop body's opening brace follows the iteration expression.
    let Some(open) = (i..t.toks.len()).find(|&j| t.is_punct(j, "{")) else { return false };
    let close = t.match_forward(open, "{", "}").unwrap_or(t.toks.len());
    (open..close).any(|j| t.is_punct(j, "+") && t.is_punct(j + 1, "="))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        lint_source(path, src).into_iter().map(|d| (d.rule.name(), d.line)).collect()
    }

    #[test]
    fn siphash_import_and_ctor_fire() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); m.len(); }\n";
        let found = rules_at("crates/cache/src/x.rs", src);
        assert!(found.contains(&("no-siphash", 1)), "{found:?}");
        assert!(found.contains(&("no-siphash", 2)), "{found:?}");
    }

    #[test]
    fn fxhash_never_fires() {
        let src = "use otae_fxhash::FxHashMap;\nfn f() { let m: FxHashMap<u32, u32> = FxHashMap::default(); m.len(); }\n";
        assert!(rules_at("crates/cache/src/x.rs", src).is_empty());
    }

    #[test]
    fn with_hasher_forms_are_legal() {
        let src = "fn f() { let m = HashMap::with_capacity_and_hasher(8, h()); m.len(); }\n";
        assert!(rules_at("crates/cache/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_fires_outside_clock_rs_only() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_at("crates/serve/src/service.rs", src), [("no-wall-clock", 1)]);
        assert!(rules_at("crates/serve/src/clock.rs", src).is_empty());
        assert!(rules_at("crates/bench/src/experiments/train.rs", src).is_empty());
    }

    #[test]
    fn unseeded_rng_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let r = thread_rng(); }\n}\n";
        assert_eq!(rules_at("crates/ml/src/x.rs", src), [("no-unseeded-rng", 3)]);
    }

    #[test]
    fn panic_rule_scoped_to_serve_and_harness() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_at("crates/serve/src/shard.rs", src), [("no-panic-in-serve", 1)]);
        assert!(rules_at("crates/ml/src/tree.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_and_lock_indexing_fire() {
        let src = "fn f() { panic!(\"x\"); }\nfn g(v: &L) -> u32 { v.lock()[3] }\n";
        let found = rules_at("crates/serve/src/shard.rs", src);
        assert!(found.contains(&("no-panic-in-serve", 1)), "{found:?}");
        assert!(found.contains(&("no-panic-in-serve", 2)), "{found:?}");
    }

    #[test]
    fn attribute_macros_are_not_panics() {
        // `#[panic_handler]`-style attribute tokens must not match `panic!`.
        let src = "#[test]\nfn t() {}\nfn ok() -> u32 { 1 }\n";
        assert!(rules_at("crates/serve/src/shard.rs", src).is_empty());
    }

    #[test]
    fn float_nondeterminism_needs_both_halves() {
        let iter_only = "fn f(m: &FxHashMap<u32, f32>) -> usize { m.values().count() }\n";
        assert!(rules_at("crates/ml/src/score.rs", iter_only).is_empty());
        let sum = "fn f(m: &FxHashMap<u32, f32>) -> f32 { m.values().sum::<f32>() }\n";
        assert_eq!(rules_at("crates/ml/src/score.rs", sum), [("no-float-nondeterminism", 1)]);
        let for_loop = "fn f(m: &FxHashMap<u32, f32>) -> f32 {\n    let mut t = 0.0;\n    for v in m.values() { t += v; }\n    t\n}\n";
        assert_eq!(rules_at("crates/ml/src/score.rs", for_loop), [("no-float-nondeterminism", 3)]);
        // A fold seeded with a float literal, suffixed integer form included;
        // an integer seed (hex digits ending in `f32` too) is not a float.
        let fold = "fn f(m: &FxHashMap<u32, f32>) -> f32 { m.values().fold(0f32, |a, b| a + b) }\n";
        assert_eq!(rules_at("crates/ml/src/score.rs", fold), [("no-float-nondeterminism", 1)]);
        let int_fold =
            "fn f(m: &FxHashMap<u32, u32>) -> u32 { m.values().fold(0x1f32, |a, b| a + b) }\n";
        assert!(rules_at("crates/ml/src/score.rs", int_fold).is_empty());
        // Sorted iteration is the sanctioned fix.
        let btree = "fn f(m: &BTreeMap<u32, f32>) -> f32 { m.values().sum::<f32>() }\n";
        assert!(rules_at("crates/ml/src/score.rs", btree).is_empty());
    }

    #[test]
    fn store_sources_are_in_scope_for_the_panic_rule() {
        let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_at("crates/store/src/store.rs", unwrap), [("no-panic-in-serve", 1)]);
        // Out-of-scope crates stay exempt.
        assert!(rules_at("crates/trace/src/codec.rs", unwrap).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let same = "fn f() { let t = Instant::now(); } // otae-lint: allow(no-wall-clock)\n";
        assert!(rules_at("crates/serve/src/service.rs", same).is_empty());
        let above = "// otae-lint: allow(no-wall-clock)\nfn f() { let t = Instant::now(); }\n";
        assert!(rules_at("crates/serve/src/service.rs", above).is_empty());
        let wrong_rule = "// otae-lint: allow(no-siphash)\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_at("crates/serve/src/service.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn cfg_test_scope_exempts_panic_rule() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(rules_at("crates/serve/src/shard.rs", src).is_empty());
    }
}
