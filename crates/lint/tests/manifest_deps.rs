//! Every first-party manifest names only what its crate uses. A dependency
//! counts as used when the crate's code names it as a path root
//! (`name::…`) or in a `use` — comments and string literals do not count. A
//! `[dependencies]` entry must be named by the library or binary itself,
//! outside test code; a `[dev-dependencies]` entry by any of `src/`,
//! `tests/`, `benches/` or `examples/`. A `[workspace.dependencies]` entry
//! must be inherited by some member.

use otae_lint::{lex, mark_test_scopes, walk, TokenKind};
use std::collections::BTreeSet;
use std::path::Path;

/// The code directories cargo builds a package's targets from.
const CODE_DIRS: [&str; 4] = ["src", "tests", "benches", "examples"];

/// The dependency tables a manifest may hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Table {
    Normal,
    Dev,
    Workspace,
}

/// One manifest entry: its table, the name as the manifest spells it and
/// as code spells it (`otae-trace` → `otae_trace`), and whether it
/// inherits the workspace's declaration.
struct Dep {
    table: Table,
    name: String,
    ident: String,
    inherited: bool,
}

/// The dependency entries of `manifest`. Any dependency table but the
/// three above fails the test, so a new form of declaration is taught to
/// this parser instead of slipping past it.
fn deps(manifest: &str, path: &Path) -> Vec<Dep> {
    let mut table = None;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = match line {
                "[dependencies]" => Some(Table::Normal),
                "[dev-dependencies]" => Some(Table::Dev),
                "[workspace.dependencies]" => Some(Table::Workspace),
                other => {
                    assert!(
                        !other.contains("dependencies"),
                        "{}: unrecognised table {other}",
                        path.display()
                    );
                    None
                }
            };
        } else if let (Some(table), Some((key, _))) = (table, line.split_once('=')) {
            if !line.starts_with('#') {
                let key = key.trim();
                let name = key.trim_end_matches(".workspace");
                let (ident, inherited) = (name.replace('-', "_"), name != key);
                out.push(Dep { table, name: name.to_string(), ident, inherited });
            }
        }
    }
    out
}

/// The crate names `src` uses as a path root or in a `use`, split into
/// (outside test code, anywhere).
fn named_crates(src: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut lexed = lex(src);
    mark_test_scopes(&mut lexed.tokens, src);
    let toks = &lexed.tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| &src[t.start..t.end]);
    let (mut production, mut all) = (BTreeSet::new(), BTreeSet::new());
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let path_root = text(i + 1) == ":" && text(i + 2) == ":" && (i == 0 || text(i - 1) != ":");
        let used = i > 0 && text(i - 1) == "use";
        if path_root || used {
            all.insert(text(i).to_string());
            if !t.in_test {
                production.insert(text(i).to_string());
            }
        }
    }
    (production, all)
}

#[test]
fn every_manifest_entry_is_named_by_its_crate() {
    let root = walk::workspace_root(None);
    let files: Vec<String> = walk::collect(&root).iter().map(|p| walk::rule_path(p)).collect();
    let mut crates = vec![String::new()];
    let listing = std::fs::read_dir(root.join("crates")).expect("crates/ readable");
    crates.extend(
        listing
            .flatten()
            .filter(|e| e.path().join("Cargo.toml").is_file())
            .map(|e| format!("crates/{}/", e.file_name().to_string_lossy())),
    );
    let mut unused = Vec::new();
    let mut checked = 0;
    let (mut offered, mut inherited) = (BTreeSet::new(), BTreeSet::new());
    for dir in &crates {
        let path = root.join(dir).join("Cargo.toml");
        let manifest = std::fs::read_to_string(&path).expect("manifest readable");
        let (mut production, mut all) = (BTreeSet::new(), BTreeSet::new());
        for file in &files {
            let Some(rest) = file.strip_prefix(dir.as_str()) else { continue };
            let Some(code_dir) = CODE_DIRS.iter().find(|d| rest.starts_with(&format!("{d}/")))
            else {
                continue;
            };
            let src = std::fs::read_to_string(root.join(file)).expect("source readable");
            let (p, a) = named_crates(&src);
            if *code_dir == "src" {
                production.extend(p);
            }
            all.extend(a);
        }
        for dep in deps(&manifest, &path) {
            checked += 1;
            let (table, named) = match dep.table {
                Table::Workspace => {
                    offered.insert(dep.name);
                    continue;
                }
                Table::Normal => ("dependencies", &production),
                Table::Dev => ("dev-dependencies", &all),
            };
            if dep.inherited {
                inherited.insert(dep.name.clone());
            }
            if !named.contains(&dep.ident) {
                unused.push(format!("{dir}Cargo.toml [{table}] {}", dep.name));
            }
        }
    }
    assert!(checked > 30, "parsed only {checked} entries: is the manifest parser blind?");
    unused.extend(
        offered.difference(&inherited).map(|n| format!("Cargo.toml [workspace.dependencies] {n}")),
    );
    assert!(unused.is_empty(), "declared but never named by the crate's code:\n{unused:#?}");
}

/// The scanner itself: path roots and `use` count, and only outside
/// comments, strings and — for production — test code; a segment inside
/// a path (`a::rand::x`) is not a root.
#[test]
fn the_scanner_sees_paths_and_uses_but_not_comments_or_strings() {
    let src = r#"
        use alpha::x;
        use beta;
        fn f() { gamma::g(); delta.h(); let _ = "eta::s"; outer::zeta::z(); }
        // theta::t
        #[cfg(test)]
        mod tests { use iota::i; }
    "#;
    let (production, all) = named_crates(src);
    let set = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>();
    assert_eq!(production, set(&["alpha", "beta", "gamma", "outer"]));
    assert_eq!(all, set(&["alpha", "beta", "gamma", "iota", "outer"]));
    let manifest = "[workspace.dependencies]\nrand = { path = \"r\" }\n[package]\nname = \"x\"\n\
                    [dependencies]\notae-trace.workspace = true\nrand = { path = \"r\" }\n\
                    # gone = 1\n[dev-dependencies]\nproptest.workspace = true\n";
    let got: Vec<(Table, String, bool)> = deps(manifest, Path::new("x"))
        .into_iter()
        .map(|d| (d.table, d.ident, d.inherited))
        .collect();
    assert_eq!(
        got,
        [
            (Table::Workspace, "rand".into(), false),
            (Table::Normal, "otae_trace".into(), true),
            (Table::Normal, "rand".into(), false),
            (Table::Dev, "proptest".into(), true),
        ]
    );
}
