//! No public item without a production reader. Every `pub` fn, method,
//! struct, enum, trait, const, type and static of the library crates must
//! have its name read by production code: some `src/` (binaries included)
//! or `examples/` file, outside test code. A read is an identifier token;
//! comments, doc comments, strings, `pub use` re-exports, `#[cfg(test)]`
//! scopes, `tests/`, `benches/` and the frozen `benchmark/src` do not
//! count, and neither does an item's own definition: its name where it is
//! declared, a fn named in its own body, a type named in the header or
//! body of its own `impl` blocks.
//!
//! The check is by name, not by resolved path: a method called `len` is
//! read wherever any `len` is. So it misses dead items that share a name
//! with a live one, never the other way round.
//!
//! What it reports must equal [`ALLOWED`], and each entry there says why
//! the item stays. An entry goes stale the moment its item gains a
//! production reader (the sets differ), and a benchmark entry the moment
//! the benchmark stops naming it.

use otae_lint::{lex, mark_test_scopes, walk, TokenKind};
use std::collections::BTreeSet;

/// The crates whose public items are checked.
const CHECKED_CRATES: [&str; 8] =
    ["trace", "cache", "ml", "device", "core", "serve", "store", "harness"];

/// Why a public item without a production reader stays.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Why {
    /// A reference implementation tests compare the production one against.
    Reference,
    /// Input for the codec fuzz tests.
    FuzzInput,
    /// The frozen benchmark (`benchmark/src`) names it.
    Benchmark,
}

/// Items with no production reader that stay, keyed
/// `crate::module::[Type::]name`.
const ALLOWED: &[(&str, Why)] = &[
    // The exact splitter the histogram fit is held to, split for split.
    ("otae_ml::tree::DecisionTree::fit_exact", Why::Reference),
    // Damaged trace buffers for `codec::from_bytes`.
    ("otae_trace::corrupt::corruption_suite", Why::FuzzInput),
    // The benchmark's per-layer probes (`layers.rs`, `store_mixed.rs`).
    ("otae_device::latency::LatencyModel::request_latency_us", Why::Benchmark),
    ("otae_serve::decision_cache::DecisionCache", Why::Benchmark),
    ("otae_serve::decision_cache::DecisionCache::lookup", Why::Benchmark),
    ("otae_serve::decision_cache::feature_bits", Why::Benchmark),
    ("otae_serve::gate::AdmissionGate::current_with_epoch", Why::Benchmark),
    ("otae_serve::gate::AdmissionGate::install_trained", Why::Benchmark),
    ("otae_serve::gate::GateModel::score_rows_fixed", Why::Benchmark),
    ("otae_store::backend::MemBackend::total_bytes", Why::Benchmark),
    ("otae_store::store::SegmentStore::compact", Why::Benchmark),
];

/// One file's contribution: the `pub` items it defines outside test code,
/// as (self type of the enclosing `impl`, name), and the names its code
/// reads.
#[derive(Default)]
struct FileScan {
    items: Vec<(Option<String>, String)>,
    reads: BTreeSet<String>,
}

/// Keywords whose next identifier is the name being defined.
const DEFINERS: [&str; 8] = ["fn", "struct", "enum", "trait", "type", "static", "union", "mod"];

fn scan(src: &str) -> FileScan {
    let mut lexed = lex(src);
    mark_test_scopes(&mut lexed.tokens, src);
    let toks = &lexed.tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| &src[t.start..t.end]);
    let ident = |i: usize| toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident);
    let mut out = FileScan::default();
    // Token indices that define a name rather than read it.
    let mut defs = BTreeSet::new();
    // (brace depth of the body, name, is an `impl`) of each open fn body
    // and `impl` block — the self type names an `impl` — and the same for
    // one whose body has not opened yet.
    let mut owners: Vec<(usize, String, bool)> = Vec::new();
    let mut pending = None;
    let mut depth = 0usize;
    let mut i = 0;
    while i < toks.len() {
        match (toks[i].kind, text(i)) {
            (TokenKind::Punct, "{") => {
                depth += 1;
                if let Some((name, is_impl)) = pending.take() {
                    owners.push((depth, name, is_impl));
                }
            }
            (TokenKind::Punct, "}") => {
                if owners.last().is_some_and(|o| o.0 == depth) {
                    owners.pop();
                }
                depth = depth.saturating_sub(1);
            }
            // A fn declared without a body.
            (TokenKind::Punct, ";") => pending = None,
            _ => {}
        }
        if toks[i].in_test || !ident(i) {
            i += 1;
            continue;
        }
        let word = text(i);
        let prev = if i == 0 { "" } else { text(i - 1) };
        if word == "impl" && matches!(prev, "" | "}" | ";" | "{" | "]" | "unsafe") {
            if let Some((at, owner)) = self_type(&text, i) {
                defs.insert(at);
                pending = Some((owner, true));
            }
        } else if word == "pub" {
            let mut j = i + 1;
            let restricted = text(j) == "(";
            if restricted {
                while j < toks.len() && text(j) != ")" {
                    j += 1;
                }
                j += 1;
            }
            if text(j) == "use" {
                // A re-export reads nothing: skip the statement.
                while j < toks.len() && text(j) != ";" {
                    j += 1;
                }
                i = j;
                continue;
            }
            if !restricted {
                if let Some(at) = item_name(&text, j) {
                    if ident(at) {
                        let owner = owners.last().filter(|o| o.0 == depth && o.2);
                        out.items.push((owner.map(|o| o.1.clone()), text(at).to_string()));
                    }
                }
            }
        } else if DEFINERS.contains(&prev)
            || (prev == "const" && text(i + 1) == ":")
            || (prev == "mut" && i >= 2 && text(i - 2) == "static")
        {
            defs.insert(i);
            if prev == "fn" {
                pending = Some((word.to_string(), false));
            }
        }
        // A field (`.name` not called, `name: …`) or a binding is no item.
        let field = (prev == "." && !matches!(text(i + 1), "(" | ":"))
            || (text(i + 1) == ":" && text(i + 2) != ":");
        if !field && !defs.contains(&i) && !owners.iter().any(|o| o.1 == word) {
            out.reads.insert(word.to_string());
        }
        i += 1;
    }
    out
}

/// Index of the name a `pub` item declares, its keyword at `j` possibly
/// preceded by `const`, `unsafe`, `async` or `extern "abi"` modifiers.
fn item_name<'a>(text: &impl Fn(usize) -> &'a str, mut j: usize) -> Option<usize> {
    if text(j) == "const" && text(j + 2) == ":" {
        return Some(j + 1);
    }
    while matches!(text(j), "const" | "unsafe" | "async" | "extern") {
        j += if text(j) == "extern" && text(j + 1).starts_with('"') { 2 } else { 1 };
    }
    match text(j) {
        "static" if text(j + 1) == "mut" => Some(j + 2),
        "fn" | "struct" | "enum" | "trait" | "type" | "static" => Some(j + 1),
        _ => None,
    }
}

/// The self type of the `impl` at `i`: the token index of its last path
/// segment, and its text. `impl<T> Trait<T> for a::Type<T> where … {`
/// yields `Type`.
fn self_type<'a>(text: &impl Fn(usize) -> &'a str, i: usize) -> Option<(usize, String)> {
    let mut j = i + 1;
    let mut angle = 0usize;
    let mut start = None;
    let mut path_start = None;
    // Walk the header to its body, noting where the self type starts: after
    // the impl's own generics, or after a top-level `for`.
    loop {
        match text(j) {
            "" | "{" | ";" => break,
            "<" => angle += 1,
            ">" if text(j - 1) != "-" => angle = angle.saturating_sub(1),
            "for" if angle == 0 && text(j + 1) != "<" => path_start = Some(j + 1),
            "where" if angle == 0 => break,
            _ if angle == 0 && start.is_none() => start = Some(j),
            _ => {}
        }
        j += 1;
    }
    let mut k = path_start.or(start)?;
    while matches!(text(k), "&" | "mut" | "dyn") || text(k).starts_with('\'') {
        k += 1;
    }
    let mut last = None;
    while k < j && text(k) != "<" {
        if text(k) != ":" {
            last = Some(k);
        }
        k += 1;
    }
    last.map(|k| (k, text(k).to_string()))
}

/// How a file counts for this check.
#[derive(Debug, PartialEq, Eq)]
enum Role {
    /// Defines checked items and reads as production code.
    Checked(String),
    /// Reads as production code.
    Production,
    /// The frozen benchmark: reads nothing, but its names are recorded.
    Benchmark,
    /// Tests, benches and anything else: ignored.
    Ignored,
}

fn role(path: &str) -> Role {
    if path.starts_with("benchmark/src/") {
        return Role::Benchmark;
    }
    if path.starts_with("src/") || path.starts_with("examples/") {
        return Role::Production;
    }
    let Some(rest) = path.strip_prefix("crates/") else { return Role::Ignored };
    let Some((krate, rest)) = rest.split_once('/') else { return Role::Ignored };
    if let Some(module) = rest.strip_prefix("src/") {
        if CHECKED_CRATES.contains(&krate) {
            let module = module.trim_end_matches(".rs").replace('/', "::");
            let module = module.trim_end_matches("::mod");
            let key = match module {
                "lib" => format!("otae_{krate}"),
                m => format!("otae_{krate}::{m}"),
            };
            return Role::Checked(key);
        }
        return Role::Production;
    }
    if rest.starts_with("examples/") {
        return Role::Production;
    }
    Role::Ignored
}

/// Over `(workspace-relative path, source)` pairs: the keys of the checked
/// items no production code reads, the number of checked items, and every
/// name the benchmark reads.
fn dead_items(files: &[(String, String)]) -> (BTreeSet<String>, usize, BTreeSet<String>) {
    let (mut items, mut reads, mut benchmark) = (Vec::new(), BTreeSet::new(), BTreeSet::new());
    for (path, src) in files {
        let role = role(path);
        if role == Role::Ignored {
            continue;
        }
        let scanned = scan(src);
        match role {
            Role::Checked(module) => {
                for (owner, name) in scanned.items {
                    let owner = owner.map_or(String::new(), |o| format!("{o}::"));
                    items.push((format!("{module}::{owner}{name}"), name));
                }
                reads.extend(scanned.reads);
            }
            Role::Production => reads.extend(scanned.reads),
            Role::Benchmark => benchmark.extend(scanned.reads),
            Role::Ignored => {}
        }
    }
    let dead = items.iter().filter(|(_, name)| !reads.contains(name)).map(|(k, _)| k.clone());
    (dead.collect(), items.len(), benchmark)
}

/// What is wrong with `allowed` against the scan: dead items it lacks,
/// entries whose item now has a production reader, and benchmark entries
/// the benchmark no longer names. Empty when the allowlist is exact.
fn allowlist_problems(
    dead: &BTreeSet<String>,
    benchmark: &BTreeSet<String>,
    allowed: &[(&str, Why)],
) -> Vec<String> {
    let keys: BTreeSet<String> = allowed.iter().map(|(k, _)| k.to_string()).collect();
    let mut problems: Vec<String> = dead
        .difference(&keys)
        .map(|k| format!("{k}: no production reader (delete it, or allowlist it with a reason)"))
        .collect();
    problems.extend(keys.difference(dead).map(|k| format!("{k}: allowlisted, but now read")));
    for (key, why) in allowed {
        let name = key.rsplit("::").next().unwrap_or(key);
        if *why == Why::Benchmark && !benchmark.contains(name) {
            problems
                .push(format!("{key}: allowlisted for the benchmark, which no longer names it"));
        }
    }
    if keys.len() != allowed.len() {
        problems.push("duplicate allowlist entries".to_string());
    }
    problems
}

#[test]
fn every_public_item_has_a_production_reader_or_an_allowlisted_reason() {
    let root = walk::workspace_root(None);
    let files: Vec<(String, String)> = walk::collect(&root)
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(root.join(p)).expect("source readable");
            (walk::rule_path(p), src)
        })
        .collect();
    let (dead, checked, benchmark) = dead_items(&files);
    assert!(checked > 400, "collected only {checked} pub items: is the scanner blind?");
    let problems = allowlist_problems(&dead, &benchmark, ALLOWED);
    assert!(problems.is_empty(), "public surface and allowlist disagree:\n{problems:#?}");
}

/// The scanner itself: which reads count, which items are collected.
#[test]
fn the_scanner_sees_production_reads_but_not_tests_docs_strings_or_reexports() {
    let a = r#"
        pub fn read_in_prod() {}
        pub fn read_in_test_mod() {}
        pub fn read_in_tests_dir() {}
        pub fn read_in_benchmark() {}
        pub fn read_in_doc() {}
        pub fn read_by_reexport() {}
        pub fn read_in_example() {}
        pub const fn read_in_self(n: u32) -> u32 { if n > 0 { read_in_self(n - 1) } else { n } }
        pub const LIMIT: u32 = 1;
        pub(crate) fn crate_only() {}
        fn private() {}
        pub struct Only;
        impl<T> Default for Only { fn default() -> Self { Only } }
        impl Only {
            /// [`read_in_doc`]
            pub fn method() {}
        }
        fn production() {
            // read_in_doc
            read_in_prod();
            let _ = "read_in_doc";
        }
        #[cfg(test)]
        mod tests {
            fn t() { super::read_in_test_mod(); super::Only::method(); LIMIT; }
        }
    "#;
    let files: Vec<(String, String)> = [
        ("crates/core/src/a.rs", a),
        ("crates/core/src/lib.rs", "pub mod a;\npub use a::{read_by_reexport, LIMIT};\n"),
        ("crates/core/tests/t.rs", "fn t() { read_in_tests_dir(); }"),
        ("crates/core/benches/b.rs", "fn b() { read_in_tests_dir(); }"),
        ("benchmark/src/main.rs", "fn m() { read_in_benchmark(); }"),
        ("examples/e.rs", "fn main() { read_in_example(); }"),
    ]
    .into_iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    let (dead, checked, benchmark) = dead_items(&files);
    let set = |v: &[&str]| v.iter().map(|s| format!("otae_core::a::{s}")).collect::<BTreeSet<_>>();
    assert_eq!(
        dead,
        set(&[
            "LIMIT",
            "Only",
            "Only::method",
            "read_by_reexport",
            "read_in_benchmark",
            "read_in_doc",
            "read_in_self",
            "read_in_test_mod",
            "read_in_tests_dir",
        ])
    );
    // Nine pub fns and consts, the struct and its method; nothing
    // restricted or private.
    assert_eq!(checked, 11);
    assert!(benchmark.contains("read_in_benchmark"));
    // The allowlist must name exactly the dead set, and a benchmark entry
    // only what the benchmark still names.
    let exact: Vec<(&str, Why)> = dead.iter().map(|k| (k.as_str(), Why::Benchmark)).collect();
    let problems = allowlist_problems(&dead, &benchmark, &exact);
    assert_eq!(problems.len(), dead.len() - 1, "all but read_in_benchmark unnamed: {problems:?}");
    let problems = allowlist_problems(
        &dead,
        &benchmark,
        &[
            ("otae_core::a::read_in_benchmark", Why::Benchmark),
            ("otae_core::a::read_in_doc", Why::Reference),
            ("otae_core::a::read_in_prod", Why::FuzzInput),
        ],
    );
    let unlisted = problems.iter().filter(|p| p.contains("no production reader")).count();
    assert_eq!(unlisted, dead.len() - 2);
    assert!(problems.iter().any(|p| p == "otae_core::a::read_in_prod: allowlisted, but now read"));
    assert!(allowlist_problems(&dead, &benchmark, &[("otae_core::a::LIMIT", Why::Reference); 2])
        .contains(&"duplicate allowlist entries".to_string()));
    assert_eq!(role("crates/lint/src/rules.rs"), Role::Production);
    assert_eq!(role("crates/bench/src/main.rs"), Role::Production);
    assert_eq!(role("crates/ml/tests/fit_pinned.rs"), Role::Ignored);
}
