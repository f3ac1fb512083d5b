//! The real workspace, linted: facts about this repository's own lock graph
//! and request path that no fixture can pin.

use otae_lint::{lint_workspace, walk, SourceFile, WorkspaceReport};

fn workspace_report() -> WorkspaceReport {
    let root = walk::workspace_root(None);
    let files: Vec<SourceFile> = walk::collect(&root)
        .iter()
        .map(|rel| SourceFile {
            path: walk::rule_path(rel),
            src: std::fs::read_to_string(root.join(rel)).expect("workspace file readable"),
        })
        .collect();
    lint_workspace(&files)
}

/// The bounded intake's mutex (`QueueState`, crates/store/src/intake.rs) is
/// a leaf of the acquisition graph — a known lock class with no ordered
/// edge in or out — and it is the only lock on the request path: shards are
/// owned by their workers and each owns its filter, so there is no
/// `ShardState` or `MissFilter` lock class for it to nest with. The store's
/// writer drains the same type, so its old command intake (`IntakeState`)
/// is no class either. The one ordered edge left in the workspace sits
/// inside the store.
#[test]
fn request_queue_mutex_is_a_leaf_of_the_lock_graph() {
    let report = workspace_report();
    let graph = &report.lock_graph;
    let isolated = graph
        .lines()
        .find_map(|l| l.trim().strip_prefix("isolated (never nested):"))
        .unwrap_or_else(|| panic!("no isolated classes in:\n{graph}"));
    assert!(isolated.split(',').any(|c| c.trim() == "QueueState"), "not a leaf:\n{graph}");
    let edges: Vec<&str> = graph.lines().filter(|l| l.contains("->")).collect();
    assert!(edges.iter().all(|l| !l.contains("QueueState")), "queue mutex nests:\n{graph}");
    // Pinned deliberately: a new class or edge is a decision, not a side
    // effect.
    assert!(graph.contains("6 classes, 1 ordered edges"), "{graph}");
    assert!(edges.len() == 1 && edges[0].contains("Shared.io -> StoreIndex"), "{graph}");
    for gone in ["ShardState", "MissFilter", "IntakeState"] {
        assert!(!graph.contains(gone), "{gone} is a lock class again:\n{graph}");
    }
}

/// A shard is plain data behind the `&mut` of the worker that owns it: its
/// file names no lock type, and — the store hand-off no longer sitting
/// under any lock — carries no lint allowance.
#[test]
fn the_shard_names_no_lock_and_needs_no_allowance() {
    let root = walk::workspace_root(None);
    let src = std::fs::read_to_string(root.join("crates/serve/src/shard.rs")).expect("shard.rs");
    let lexed = otae_lint::lex(&src);
    let locks: Vec<String> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == otae_lint::TokenKind::Ident)
        .filter(|t| matches!(&src[t.start..t.end], "Mutex" | "RwLock" | "Condvar"))
        .map(|t| format!("{}:{}", &src[t.start..t.end], t.line))
        .collect();
    assert!(locks.is_empty(), "lock types named in shard.rs: {locks:?}");
    assert!(!src.contains("otae-lint: allow"), "shard.rs carries a lint allowance");
}

/// Requests cross the client ⇒ worker queue by reference and samples the
/// retrainer channel by position: outside test code, the load generator,
/// the queue itself and the retrainer that reads the samples back make no
/// `.clone()` call.
#[test]
fn request_handoff_clones_nothing() {
    const FILES: [&str; 3] = [
        "crates/serve/src/loadgen.rs",
        "crates/store/src/intake.rs",
        "crates/serve/src/retrainer.rs",
    ];
    let root = walk::workspace_root(None);
    for path in FILES {
        let src = std::fs::read_to_string(root.join(path)).expect("workspace file readable");
        let mut lexed = otae_lint::lex(&src);
        otae_lint::mark_test_scopes(&mut lexed.tokens, &src);
        let t = lexed.view(&src);
        let clones: Vec<u32> = (1..t.toks.len())
            .filter(|&i| t.is_punct(i - 1, ".") && t.is_ident(i, "clone") && t.is_punct(i + 1, "("))
            .filter(|&i| !t.toks[i].in_test)
            .map(|i| t.toks[i].line)
            .collect();
        assert!(clones.is_empty(), "{path}: `.clone()` on lines {clones:?}");
    }
}

/// The workspace has exactly one use of the `unsafe` keyword — the
/// run-time-checked call into the CRC kernel in `otae-store` — and the
/// compiler holds that line everywhere else: every workspace crate's
/// `lib.rs` forbids `unsafe_code`, except `otae-store`'s, which denies it
/// (so the one site can carry its `allow`). Counted on lexed tokens over
/// every first-party file (`crates/`, `src/`, `benchmark/src`, tests,
/// benches, examples), so strings and comments do not count.
#[test]
fn one_unsafe_block_in_the_workspace_and_every_crate_forbids_more() {
    let root = walk::workspace_root(None);
    let mut unsafe_sites = Vec::new();
    let mut libs = 0;
    for rel in walk::collect(&root) {
        let path = walk::rule_path(&rel);
        let src = std::fs::read_to_string(root.join(&rel)).expect("workspace file readable");
        let lexed = otae_lint::lex(&src);
        let idents = || {
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == otae_lint::TokenKind::Ident)
                .map(|t| (&src[t.start..t.end], t.line))
        };
        unsafe_sites.extend(
            idents()
                .filter(|(word, _)| *word == "unsafe")
                .map(|(_, line)| format!("{path}:{line}")),
        );
        let is_crate_lib =
            path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"));
        if is_crate_lib {
            libs += 1;
            let level = if path == "crates/store/src/lib.rs" { "deny" } else { "forbid" };
            let words: Vec<&str> = idents().map(|(word, _)| word).collect();
            assert!(
                words.windows(2).any(|w| w == [level, "unsafe_code"]),
                "{path} must carry #![{level}(unsafe_code)]"
            );
        }
    }
    assert_eq!(libs, 11, "ten crates under crates/ plus the root crate");
    assert_eq!(unsafe_sites.len(), 1, "unsafe sites: {unsafe_sites:?}");
    assert!(unsafe_sites[0].starts_with("crates/store/src/record.rs:"), "{unsafe_sites:?}");
}
