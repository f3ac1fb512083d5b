//! Workspace-wide structural analysis: symbol tables, the function-level
//! call graph, transitive lock/blocking effects, and the four structural
//! rules built on top (lock-order, no-blocking-under-lock,
//! merge-exhaustive, guard-across-spawn).
//!
//! The analysis is sound-by-silence: anything the lightweight parser or
//! receiver resolution cannot prove is dropped, so a diagnostic here is
//! always anchored to a concrete witness (an acquisition site, a blocking
//! call, a struct literal). Test scopes and `tests/`/`benches/` trees are
//! excluded from fact extraction entirely — a deadlock that only a test
//! can produce is a test bug, not a serve-path invariant.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{path_is_test, Rule};
use crate::diag::Diagnostic;
use crate::lexer::{Lexed, TokenKind, Toks};
use crate::locks::{self, Event, EventKind};
use crate::parse::FileModel;

/// One file prepared for workspace analysis.
pub struct PreppedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub src: String,
    pub lexed: Lexed,
    pub model: FileModel,
}

impl PreppedFile {
    fn toks(&self) -> Toks<'_> {
        self.lexed.view(&self.src)
    }
}

/// What is known about a struct field's (or fn param's) type.
#[derive(Debug, Clone, Default)]
pub struct FieldInfo {
    /// The significant type name after stripping wrappers (`Option`,
    /// `Vec`, `Box`, `Arc`, references, `dyn`, …).
    pub type_name: Option<String>,
    /// Set when the type contains a `Mutex`/`RwLock`: the lock's class.
    pub lock_class: Option<String>,
}

/// Workspace symbol tables shared by the body scanner and the rules.
#[derive(Default)]
pub struct Tables {
    /// struct name -> field name -> resolved field info.
    pub structs: BTreeMap<String, BTreeMap<String, FieldInfo>>,
    /// All first-party type names (structs, enums, unions, traits).
    pub types: BTreeSet<String>,
    /// Trait names — calls through trait-typed receivers are not crossed.
    pub traits: BTreeSet<String>,
    /// (owner or "", fn name) -> workspace fn id. Only bodied, non-test fns.
    pub keys: BTreeMap<(String, String), usize>,
    /// Method name -> every owned workspace fn id carrying it, for the
    /// unique-candidate fallback on unresolvable receivers. Free functions
    /// are excluded (method syntax cannot reach them), as are names that
    /// collide with ubiquitous std methods — see `FALLBACK_STOPLIST`.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

/// Method names never resolved through the unique-candidate fallback: they
/// are overwhelmingly std methods (`iterator.collect()`, `file.flush()`),
/// so a single same-named workspace method must not capture every
/// unresolved call site. Typed receivers still resolve them via `keys`.
const FALLBACK_STOPLIST: &[&str] = &[
    "all",
    "any",
    "clear",
    "collect",
    "contains",
    "contains_key",
    "count",
    "drain",
    "entry",
    "extend",
    "filter",
    "find",
    "first",
    "flush",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "map",
    "max",
    "merge",
    "min",
    "new",
    "next",
    "parse",
    "pop",
    "push",
    "remove",
    "replace",
    "retain",
    "sort",
    "sort_by",
    "split",
    "sum",
    "take",
    "write",
];

/// Type wrappers that never carry lock identity themselves.
const WRAPPERS: &[&str] =
    &["Option", "Vec", "VecDeque", "Box", "Arc", "Rc", "Cell", "RefCell", "dyn", "mut", "ref"];

/// First identifier in `ty[from..]` that is not a wrapper.
fn significant(ty: &[String], from: usize) -> Option<&str> {
    ty.get(from..)?.iter().map(String::as_str).find(|t| {
        t.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && !WRAPPERS.contains(t)
    })
}

/// Resolve a field (or parameter) type into a `FieldInfo`. `owner` names
/// the enclosing struct (or fn scope) for the `Owner.field` fallback lock
/// class used when the lock wraps a non-workspace type (`RwLock<()>`).
pub fn field_info(owner: &str, field: &str, ty: &[String], types: &BTreeSet<String>) -> FieldInfo {
    if let Some(pos) = ty.iter().position(|t| t == "Mutex" || t == "RwLock") {
        let inner = significant(ty, pos + 1);
        let lock_class = match inner {
            Some(name) if types.contains(name) => name.to_string(),
            _ => format!("{owner}.{field}"),
        };
        return FieldInfo { type_name: inner.map(str::to_string), lock_class: Some(lock_class) };
    }
    FieldInfo { type_name: significant(ty, 0).map(str::to_string), lock_class: None }
}

/// Transitive effects of one function: which lock classes running it may
/// acquire, and whether it may block.
#[derive(Debug, Default, Clone)]
struct Effects {
    /// class -> human witness of where the acquisition happens.
    locks: BTreeMap<String, String>,
    /// First blocking operation reachable from this fn, if any.
    blocking: Option<String>,
}

/// One ordered-acquisition edge in the lock graph.
struct LockEdge {
    from: String,
    to: String,
    witness: String,
    file: usize,
    line: u32,
    col: u32,
}

/// The full structural analysis over a prepared file set.
pub struct Analysis {
    pub diags: Vec<Diagnostic>,
    /// Rendered acquisition graph, printed after the diagnostics.
    pub lock_graph: String,
}

pub fn analyze(files: &[PreppedFile]) -> Analysis {
    let ws = Workspace::build(files);
    let mut diags = Vec::new();
    let graph = ws.check_lock_order(&mut diags);
    ws.check_blocking_and_spawn(&mut diags);
    ws.check_merge_exhaustive(&mut diags);
    Analysis { diags, lock_graph: graph }
}

struct Workspace<'a> {
    files: &'a [PreppedFile],
    tables: Tables,
    /// Workspace fn id -> (file idx, fn idx within that file's model).
    fns: Vec<(usize, usize)>,
    facts: Vec<Vec<Event>>,
    effects: Vec<Effects>,
}

impl<'a> Workspace<'a> {
    fn build(files: &'a [PreppedFile]) -> Self {
        let mut tables = Tables::default();
        for f in files {
            for t in &f.model.type_names {
                tables.types.insert(t.clone());
            }
            for t in &f.model.trait_names {
                tables.traits.insert(t.clone());
            }
        }
        for f in files {
            for s in &f.model.structs {
                let fields = tables.structs.entry(s.name.clone()).or_default();
                for fd in &s.fields {
                    fields
                        .entry(fd.name.clone())
                        .or_insert_with(|| field_info(&s.name, &fd.name, &fd.ty, &tables.types));
                }
            }
        }
        // Register bodied functions outside test scope; facts are only
        // extracted for production code.
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            if path_is_test(&f.path) {
                continue;
            }
            for (di, d) in f.model.fns.iter().enumerate() {
                if d.body.is_none() || d.in_test {
                    continue;
                }
                let id = fns.len();
                fns.push((fi, di));
                let owned = d.owner.is_some();
                let owner = d.owner.clone().unwrap_or_default();
                tables.keys.entry((owner, d.name.clone())).or_insert(id);
                if owned && !FALLBACK_STOPLIST.contains(&d.name.as_str()) {
                    tables.by_name.entry(d.name.clone()).or_default().push(id);
                }
            }
        }
        let facts: Vec<Vec<Event>> = fns
            .iter()
            .map(|&(fi, di)| {
                let f = &files[fi];
                locks::scan_fn(f.toks(), &f.model.fns[di], &tables)
            })
            .collect();
        let effects = compute_effects(files, &fns, &facts);
        Workspace { files, tables, fns, facts, effects }
    }

    fn fn_name(&self, id: usize) -> String {
        let (fi, di) = self.fns[id];
        let d = &self.files[fi].model.fns[di];
        match &d.owner {
            Some(o) => format!("{o}::{}", d.name),
            None => d.name.clone(),
        }
    }

    fn site(&self, id: usize, line: u32) -> String {
        let (fi, _) = self.fns[id];
        format!("{}:{line}", self.files[fi].path)
    }

    fn report(
        &self,
        out: &mut Vec<Diagnostic>,
        rule: Rule,
        file: usize,
        line: u32,
        col: u32,
        message: String,
    ) {
        let f = &self.files[file];
        if !rule.in_scope(&f.path) || f.lexed.allowed(rule.name(), line) {
            return;
        }
        out.push(Diagnostic { rule, path: f.path.clone(), line, col, message });
    }

    // ---- lock-order ----------------------------------------------------

    fn lock_edges(&self) -> Vec<LockEdge> {
        let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
        for (id, evs) in self.facts.iter().enumerate() {
            let (fi, _) = self.fns[id];
            for ev in evs {
                if ev.held.is_empty() {
                    continue;
                }
                let acquired: Vec<(String, String)> = match &ev.kind {
                    EventKind::Acquire { class } => vec![(
                        class.clone(),
                        format!(
                            "{} acquires `{class}` at {}",
                            self.fn_name(id),
                            self.site(id, ev.line)
                        ),
                    )],
                    EventKind::Call { target } => self.effects[*target]
                        .locks
                        .iter()
                        .map(|(c, w)| {
                            (
                                c.clone(),
                                format!(
                                    "{} calls `{}` at {} ({w})",
                                    self.fn_name(id),
                                    self.fn_name(*target),
                                    self.site(id, ev.line)
                                ),
                            )
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                for (class, witness) in acquired {
                    for h in &ev.held {
                        // Same-class sequential acquisitions (e.g. locking
                        // each shard of a Vec<Mutex<_>> in turn) are not
                        // ordering edges between *different* classes.
                        if *h == class {
                            continue;
                        }
                        edges.entry((h.clone(), class.clone())).or_insert_with(|| LockEdge {
                            from: h.clone(),
                            to: class.clone(),
                            witness: witness.clone(),
                            file: fi,
                            line: ev.line,
                            col: ev.col,
                        });
                    }
                }
            }
        }
        edges.into_values().collect()
    }

    /// Returns the rendered acquisition graph; pushes a diagnostic per
    /// detected cycle (the first found — fixing it re-exposes any next).
    fn check_lock_order(&self, out: &mut Vec<Diagnostic>) -> String {
        let edges = self.lock_edges();
        let graph = self.render_graph(&edges);
        if let Some(cycle) = find_cycle(&edges) {
            // Anchor the diagnostic at the witness of the cycle's first edge.
            let first = edges
                .iter()
                .find(|e| e.from == cycle[0] && e.to == cycle[1])
                .expect("cycle edge must exist");
            let path = cycle.join(" -> ");
            let witnesses: Vec<String> = cycle
                .windows(2)
                .filter_map(|w| {
                    edges.iter().find(|e| e.from == w[0] && e.to == w[1]).map(|e| e.witness.clone())
                })
                .collect();
            self.report(
                out,
                Rule::LockOrder,
                first.file,
                first.line,
                first.col,
                format!("lock acquisition cycle {path}; {}", witnesses.join("; ")),
            );
        }
        graph
    }

    fn render_graph(&self, edges: &[LockEdge]) -> String {
        let mut classes: BTreeSet<String> = BTreeSet::new();
        for fields in self.tables.structs.values() {
            for fi in fields.values() {
                if let Some(c) = &fi.lock_class {
                    classes.insert(c.clone());
                }
            }
        }
        for e in edges {
            classes.insert(e.from.clone());
            classes.insert(e.to.clone());
        }
        let ordered: BTreeSet<&String> = edges.iter().flat_map(|e| [&e.from, &e.to]).collect();
        let mut s = format!(
            "lock acquisition graph: {} classes, {} ordered edges\n",
            classes.len(),
            edges.len()
        );
        for e in edges {
            s.push_str(&format!("  {} -> {}  [{}]\n", e.from, e.to, e.witness));
        }
        let isolated: Vec<&str> =
            classes.iter().filter(|c| !ordered.contains(*c)).map(String::as_str).collect();
        if !isolated.is_empty() {
            s.push_str(&format!("  isolated (never nested): {}\n", isolated.join(", ")));
        }
        s
    }

    // ---- no-blocking-under-lock & guard-across-spawn -------------------

    fn check_blocking_and_spawn(&self, out: &mut Vec<Diagnostic>) {
        for (id, evs) in self.facts.iter().enumerate() {
            let (fi, _) = self.fns[id];
            for ev in evs {
                match &ev.kind {
                    EventKind::SpawnCapture { guard, class } => {
                        self.report(
                            out,
                            Rule::GuardAcrossSpawn,
                            fi,
                            ev.line,
                            ev.col,
                            format!(
                                "guard `{guard}` (lock class `{class}`) is captured by a \
                                 spawned closure"
                            ),
                        );
                    }
                    EventKind::Blocking { what } if !ev.held.is_empty() => {
                        self.report(
                            out,
                            Rule::NoBlockingUnderLock,
                            fi,
                            ev.line,
                            ev.col,
                            format!(
                                "blocking `{what}` while holding lock `{}`",
                                ev.held.join("`, `")
                            ),
                        );
                    }
                    EventKind::Call { target } if !ev.held.is_empty() => {
                        if let Some(w) = &self.effects[*target].blocking {
                            self.report(
                                out,
                                Rule::NoBlockingUnderLock,
                                fi,
                                ev.line,
                                ev.col,
                                format!(
                                    "call to `{}` may block ({w}) while holding lock `{}`",
                                    self.fn_name(*target),
                                    ev.held.join("`, `")
                                ),
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // ---- merge-exhaustive ----------------------------------------------

    fn check_merge_exhaustive(&self, out: &mut Vec<Diagnostic>) {
        // Fingerprint flow context: the RunFingerprint field types plus
        // every identifier inside any `fn fingerprint` body. When the
        // analyzed set has neither (single-file mode), the flow check is
        // skipped — it would be unsound to fail it.
        let fp_types: BTreeSet<String> = self
            .files
            .iter()
            .flat_map(|f| &f.model.structs)
            .filter(|s| s.name == "RunFingerprint")
            .flat_map(|s| &s.fields)
            .flat_map(|fd| fd.ty.iter().cloned())
            .collect();
        let mut fp_idents: BTreeSet<String> = BTreeSet::new();
        for f in self.files {
            for d in &f.model.fns {
                if d.name != "fingerprint" {
                    continue;
                }
                let Some((open, close)) = d.body else { continue };
                let t = f.toks();
                fp_idents.extend((open..close).filter_map(|i| t.ident(i)).map(str::to_string));
            }
        }
        let have_fp_context = !fp_types.is_empty() || !fp_idents.is_empty();

        for (fi, f) in self.files.iter().enumerate() {
            if path_is_test(&f.path) {
                continue;
            }
            for s in &f.model.structs {
                let Some(tag) = s.tag else { continue };
                if s.in_test {
                    continue;
                }
                let field_names: Vec<&str> = s.fields.iter().map(|fd| fd.name.as_str()).collect();
                self.check_merges(out, &s.name, &field_names);
                self.check_functional_updates(out, &s.name);
                if tag.fingerprint && have_fp_context {
                    let methods: BTreeSet<&str> = self
                        .files
                        .iter()
                        .flat_map(|f| &f.model.fns)
                        .filter(|d| d.owner.as_deref() == Some(s.name.as_str()))
                        .map(|d| d.name.as_str())
                        .collect();
                    let flows = fp_types.contains(&s.name)
                        || fp_idents.contains(&s.name)
                        || methods.iter().any(|m| fp_idents.contains(*m));
                    if !flows {
                        self.report(
                            out,
                            Rule::MergeExhaustive,
                            fi,
                            s.line,
                            s.col,
                            format!(
                                "`{}` is tagged merge-exhaustive(fingerprint) but does not \
                                 flow into RunFingerprint",
                                s.name
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Every `fn merge` owned by the tagged struct must contain a struct
    /// expression/pattern naming every field with no `..`.
    fn check_merges(&self, out: &mut Vec<Diagnostic>, name: &str, fields: &[&str]) {
        for (fi, f) in self.files.iter().enumerate() {
            if path_is_test(&f.path) {
                continue;
            }
            for d in &f.model.fns {
                if d.name != "merge" || d.owner.as_deref() != Some(name) || d.in_test {
                    continue;
                }
                let Some((open, close)) = d.body else { continue };
                if self.body_has_full_destructure(f, open, close, name, fields) {
                    continue;
                }
                let t = f.toks();
                let body_idents: BTreeSet<&str> =
                    (open..close).filter_map(|i| t.ident(i)).collect();
                let missing: Vec<&str> =
                    fields.iter().filter(|fd| !body_idents.contains(**fd)).copied().collect();
                let detail = if missing.is_empty() {
                    "no full `Self { .. }` destructure found".to_string()
                } else {
                    format!("fields never mentioned: {}", missing.join(", "))
                };
                self.report(
                    out,
                    Rule::MergeExhaustive,
                    fi,
                    d.line,
                    d.col,
                    format!("`{name}::merge` must destructure every field ({detail})"),
                );
            }
        }
    }

    fn body_has_full_destructure(
        &self,
        f: &PreppedFile,
        open: usize,
        close: usize,
        name: &str,
        fields: &[&str],
    ) -> bool {
        let t = f.toks();
        let mut i = open;
        while i + 1 < close {
            let head_ok = t.ident(i).is_some_and(|h| h == "Self" || h == name);
            if head_ok && t.is_punct(i + 1, "{") {
                if let Some(end) = t.match_forward(i + 1, "{", "}") {
                    let mut depth = 0i32;
                    let mut seen: BTreeSet<&str> = BTreeSet::new();
                    let mut has_rest = false;
                    for j in i + 2..end {
                        let tok = &t.toks[j];
                        if tok.kind == TokenKind::Punct {
                            match t.text(tok) {
                                "{" | "(" | "[" => depth += 1,
                                "}" | ")" | "]" => depth -= 1,
                                "." if depth == 0
                                    && t.is_punct(j + 1, ".")
                                    && t.toks[j + 1].start == tok.end =>
                                {
                                    has_rest = true;
                                }
                                _ => {}
                            }
                        } else if tok.kind == TokenKind::Ident && depth == 0 {
                            seen.insert(t.text(tok));
                        }
                    }
                    if !has_rest && fields.iter().all(|fd| seen.contains(fd)) {
                        return true;
                    }
                    i = end;
                    continue;
                }
            }
            i += 1;
        }
        false
    }

    /// Ban `..base` functional updates in literals of the tagged struct —
    /// they silently forward fields the merge audit never sees.
    fn check_functional_updates(&self, out: &mut Vec<Diagnostic>, name: &str) {
        for (fi, f) in self.files.iter().enumerate() {
            if path_is_test(&f.path) {
                continue;
            }
            let t = f.toks();
            // Literal heads: `Name {` anywhere, and `Self {` inside fns the
            // struct owns.
            let mut heads: Vec<usize> = Vec::new();
            for (i, tok) in t.toks.iter().enumerate().take(t.toks.len().saturating_sub(1)) {
                if tok.in_test {
                    continue;
                }
                if t.is_ident(i, name) && t.is_punct(i + 1, "{") {
                    let prev = i.checked_sub(1).and_then(|p| t.ident(p));
                    if !matches!(
                        prev,
                        Some("struct" | "mod" | "trait" | "enum" | "union" | "impl" | "fn" | "for")
                    ) {
                        heads.push(i);
                    }
                }
            }
            for d in &f.model.fns {
                if d.owner.as_deref() != Some(name) || d.in_test {
                    continue;
                }
                let Some((open, close)) = d.body else { continue };
                for i in open..close.saturating_sub(1) {
                    if t.is_ident(i, "Self") && t.is_punct(i + 1, "{") {
                        heads.push(i);
                    }
                }
            }
            heads.sort_unstable();
            heads.dedup();
            for head in heads {
                let Some(end) = t.match_forward(head + 1, "{", "}") else { continue };
                let mut depth = 0i32;
                for j in head + 2..end {
                    let tok = &t.toks[j];
                    if tok.kind != TokenKind::Punct {
                        continue;
                    }
                    match t.text(tok) {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => depth -= 1,
                        // `..ident` / `..Self::default()` is a functional
                        // update; `..}` is a (pattern) rest and is fine.
                        "." if depth == 0
                            && t.is_punct(j + 1, ".")
                            && t.toks[j + 1].start == tok.end
                            && t.ident(j + 2).is_some() =>
                        {
                            self.report(
                                out,
                                Rule::MergeExhaustive,
                                fi,
                                tok.line,
                                tok.col,
                                format!(
                                    "functional-update `..` on merge-exhaustive struct \
                                     `{name}` hides fields from the audit"
                                ),
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

/// Per-function transitive effects, computed to a fixpoint over the call
/// graph. Cycles in the call graph converge because the effect domain only
/// grows and is bounded.
fn compute_effects(
    files: &[PreppedFile],
    fns: &[(usize, usize)],
    facts: &[Vec<Event>],
) -> Vec<Effects> {
    let mut effects = vec![Effects::default(); fns.len()];
    for (id, evs) in facts.iter().enumerate() {
        let (fi, _) = fns[id];
        let path = &files[fi].path;
        for ev in evs {
            match &ev.kind {
                EventKind::Acquire { class } => {
                    effects[id]
                        .locks
                        .entry(class.clone())
                        .or_insert_with(|| format!("{path}:{}", ev.line));
                }
                EventKind::Blocking { what } if effects[id].blocking.is_none() => {
                    effects[id].blocking = Some(format!("`{what}` at {path}:{}", ev.line));
                }
                _ => {}
            }
        }
    }
    loop {
        let mut changed = false;
        for id in 0..fns.len() {
            for ev in &facts[id] {
                let EventKind::Call { target } = &ev.kind else { continue };
                let callee = effects[*target].clone();
                for (c, w) in callee.locks {
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        effects[id].locks.entry(c)
                    {
                        let (tfi, tdi) = fns[*target];
                        let name = &files[tfi].model.fns[tdi].name;
                        e.insert(format!("via `{name}`: {w}"));
                        changed = true;
                    }
                }
                if effects[id].blocking.is_none() {
                    if let Some(w) = callee.blocking {
                        let (tfi, tdi) = fns[*target];
                        let name = &files[tfi].model.fns[tdi].name;
                        effects[id].blocking = Some(format!("via `{name}`: {w}"));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return effects;
        }
    }
}

/// Find a cycle in the edge set; returns the node sequence
/// `[n0, n1, …, n0]` when one exists.
fn find_cycle(edges: &[LockEdge]) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
        adj.entry(&e.to).or_default();
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut color: BTreeMap<&str, Color> = nodes.iter().map(|&n| (n, Color::White)).collect();

    fn dfs<'g>(
        node: &'g str,
        adj: &BTreeMap<&'g str, Vec<&'g str>>,
        color: &mut BTreeMap<&'g str, Color>,
        stack: &mut Vec<&'g str>,
    ) -> Option<Vec<String>> {
        color.insert(node, Color::Gray);
        stack.push(node);
        for &next in adj.get(node).map(Vec::as_slice).unwrap_or(&[]) {
            match color.get(next).copied().unwrap_or(Color::White) {
                Color::Gray => {
                    let start = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[start..].iter().map(|s| s.to_string()).collect();
                    cycle.push(next.to_string());
                    return Some(cycle);
                }
                Color::White => {
                    if let Some(c) = dfs(next, adj, color, stack) {
                        return Some(c);
                    }
                }
                Color::Black => {}
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
        None
    }

    for n in nodes {
        if color[&n] == Color::White {
            let mut stack = Vec::new();
            if let Some(c) = dfs(n, &adj, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}
