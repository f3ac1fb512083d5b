//! Per-function lock and effect extraction.
//!
//! Walks one function body and records, in order, every lock acquisition
//! (`.lock()` / `.read()` / `.write()` on a field whose type contains a
//! `Mutex`/`RwLock`), every potentially-blocking operation (channel
//! send/recv, file I/O, `join`, paced sleeps), every resolvable call to
//! another workspace function, and every spawned closure that captures a
//! live guard — each annotated with the set of lock classes *held* at that
//! point. The call graph layer combines these per-function facts into
//! transitive effects and the cross-crate acquisition graph.
//!
//! Guard liveness model (deliberately simple, documented in DESIGN.md §10):
//! an acquisition that is the entire right-hand side of a `let` becomes a
//! *named guard* live until its block closes or it is `drop`ped; any other
//! acquisition is a *temporary guard* live until the end of the enclosing
//! statement (`;`, `,`, or `}` at its nesting depth). Receivers are
//! resolved structurally — `self.field`, locals bound by `let`/`for`/
//! `if let Some(..)`/match arms, index and `as_ref`-style adapters are
//! transparent — and anything unresolvable degrades to "no fact", never to
//! a false positive.

use crate::callgraph::{field_info, FieldInfo, Tables};
use crate::lexer::{TokenKind, Toks};
use crate::parse::FnDef;

/// One observed fact inside a function body.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: EventKind,
    /// Lock classes held when the event happens.
    pub held: Vec<String>,
    pub line: u32,
    pub col: u32,
}

#[derive(Debug, Clone)]
pub enum EventKind {
    /// A lock of `class` is acquired here.
    Acquire { class: String },
    /// A call to workspace fn `target` (index into the workspace fn list).
    Call { target: usize },
    /// A directly blocking operation (`what` names it, e.g. "recv").
    Blocking { what: String },
    /// A spawned closure captures the named live guard.
    SpawnCapture { guard: String, class: String },
}

/// Methods that pass the receiver through unchanged for resolution.
const TRANSPARENT: &[&str] =
    &["as_ref", "as_mut", "as_deref", "as_deref_mut", "clone", "borrow", "borrow_mut"];

/// Blocking method names that take arguments.
const BLOCKING_ANY_ARGS: &[&str] = &[
    "send",
    "send_timeout",
    "recv_timeout",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "sync_all",
    "sync_data",
    "read_at",
    "write_at",
    "sleep",
    "sleep_until",
    "park_timeout",
    "wait",
    "wait_timeout",
];

/// Blocking method names that must be called with empty parentheses
/// (`JoinHandle::join` blocks; `Vec::join(sep)` does not).
const BLOCKING_EMPTY_ARGS: &[&str] = &["recv", "join"];

/// Blocking `Type::fn` path calls.
const BLOCKING_PATHS: &[(&str, &[&str])] = &[
    ("thread", &["sleep", "park"]),
    ("File", &["open", "create", "options"]),
    (
        "fs",
        &[
            "read",
            "write",
            "read_to_string",
            "remove_file",
            "remove_dir_all",
            "create_dir_all",
            "rename",
            "copy",
            "read_dir",
            "metadata",
        ],
    ),
    ("OpenOptions", &["new"]),
];

/// Scan one function body for events; `def`'s body span indexes `t`.
pub fn scan_fn(t: Toks, def: &FnDef, tables: &Tables) -> Vec<Event> {
    let Some((open, close)) = def.body else { return Vec::new() };
    let mut s = Scanner {
        t,
        tables,
        owner: def.owner.as_deref(),
        bindings: Vec::new(),
        named_guards: Vec::new(),
        temp_guards: Vec::new(),
        match_frames: Vec::new(),
        pending_match: None,
        events: Vec::new(),
    };
    let scope = def.owner.as_deref().unwrap_or(&def.name);
    for p in &def.params {
        let info = field_info(scope, &p.name, &p.ty, &tables.types);
        s.bindings.push(Binding { name: p.name.clone(), depth: 0, info });
    }
    s.walk(open + 1, close);
    s.events
}

#[derive(Debug, Clone)]
struct Binding {
    name: String,
    depth: u32,
    info: FieldInfo,
}

#[derive(Debug)]
struct NamedGuard {
    name: String,
    class: String,
    depth: u32,
}

#[derive(Debug)]
struct TempGuard {
    class: String,
    paren: u32,
}

struct Scanner<'a> {
    t: Toks<'a>,
    tables: &'a Tables,
    owner: Option<&'a str>,
    bindings: Vec<Binding>,
    named_guards: Vec<NamedGuard>,
    temp_guards: Vec<TempGuard>,
    /// (brace depth of the match body, scrutinee resolution).
    match_frames: Vec<(u32, FieldInfo)>,
    pending_match: Option<FieldInfo>,
    events: Vec<Event>,
}

impl Scanner<'_> {
    fn held(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .named_guards
            .iter()
            .map(|g| g.class.clone())
            .chain(self.temp_guards.iter().map(|g| g.class.clone()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    fn push_event(&mut self, kind: EventKind, at: usize) {
        let tok = &self.t.toks[at];
        self.events.push(Event { kind, held: self.held(), line: tok.line, col: tok.col });
    }

    fn walk(&mut self, start: usize, end: usize) {
        let mut depth: u32 = 1;
        let mut paren: u32 = 0;
        let mut i = start;
        while i < end {
            let tok = &self.t.toks[i];
            if tok.kind == TokenKind::Punct {
                match self.t.text(tok) {
                    "{" => {
                        depth += 1;
                        if let Some(info) = self.pending_match.take() {
                            self.match_frames.push((depth, info));
                        }
                    }
                    "}" => {
                        self.bindings.retain(|b| b.depth < depth);
                        self.named_guards.retain(|g| g.depth < depth);
                        if self.match_frames.last().is_some_and(|&(d, _)| d == depth) {
                            self.match_frames.pop();
                        }
                        // Statement-less tail expressions end here too.
                        self.release_temps(paren);
                        depth = depth.saturating_sub(1);
                    }
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren = paren.saturating_sub(1),
                    ";" | "," => self.release_temps(paren),
                    "." => {
                        if let Some(next) = self.handle_dot(i, depth, paren) {
                            i = next;
                            continue;
                        }
                    }
                    _ => {}
                }
                i += 1;
                continue;
            }
            match self.t.text(tok) {
                "let" => self.handle_let(i, depth, end),
                "for" => self.handle_for(i, depth, end),
                "match" => self.handle_match(i, end),
                "drop" if self.t.is_punct(i + 1, "(") && self.t.is_punct(i + 3, ")") => {
                    if let Some(name) = self.t.ident(i + 2).map(str::to_string) {
                        self.named_guards.retain(|g| g.name != name);
                    }
                }
                "spawn" if self.t.is_punct(i + 1, "(") => self.handle_spawn(i + 1, end),
                "Some" | "Ok" => self.try_bind_arm(i, depth),
                _ => {
                    self.check_path_blocking(i);
                    self.check_path_call(i);
                }
            }
            i += 1;
        }
    }

    /// Drop temporary guards whose statement ends at this nesting depth.
    fn release_temps(&mut self, paren: u32) {
        self.temp_guards.retain(|g| g.paren < paren);
    }

    /// `.method(` sites: acquisitions, blocking methods, resolvable calls.
    /// Returns the index to resume from when the site was consumed.
    fn handle_dot(&mut self, i: usize, depth: u32, paren: u32) -> Option<usize> {
        let m = self.t.ident(i + 1)?;
        if !self.t.is_punct(i + 2, "(") {
            return None;
        }
        let empty = self.t.is_punct(i + 3, ")");
        // Lock acquisition: `.lock()` / `.read()` / `.write()` (no args).
        if empty && matches!(m, "lock" | "read" | "write") {
            let recv = self.resolve_receiver(i.checked_sub(1)?);
            if let Some(class) = recv.lock_class {
                self.push_event(EventKind::Acquire { class: class.clone() }, i + 1);
                if self.t.is_punct(i + 4, ";") {
                    if let Some(name) = self.let_binding_name(i) {
                        self.bindings.push(Binding {
                            name: name.clone(),
                            depth,
                            info: FieldInfo { type_name: recv.type_name, lock_class: None },
                        });
                        self.named_guards.push(NamedGuard { name, class, depth });
                        return Some(i + 4);
                    }
                }
                self.temp_guards.push(TempGuard { class, paren });
                return Some(i + 4);
            }
            return None;
        }
        // Directly blocking methods.
        let blocking =
            BLOCKING_ANY_ARGS.contains(&m) || (empty && BLOCKING_EMPTY_ARGS.contains(&m));
        if blocking {
            self.push_event(EventKind::Blocking { what: m.to_string() }, i + 1);
            return None;
        }
        if TRANSPARENT.contains(&m) {
            return None;
        }
        // Method call resolution.
        let m = m.to_string();
        let recv = self.resolve_receiver(i.checked_sub(1)?);
        let target = match recv.type_name {
            Some(ty) if self.tables.traits.contains(&ty) => None, // dyn seam
            Some(ty) => self.tables.keys.get(&(ty, m)).copied(),
            None => match self.tables.by_name.get(&m) {
                Some(ids) if ids.len() == 1 => Some(ids[0]),
                _ => None,
            },
        };
        if let Some(target) = target {
            self.push_event(EventKind::Call { target }, i + 1);
        }
        None
    }

    /// `thread::sleep(..)`, `File::open(..)`, `fs::write(..)` path forms.
    fn check_path_blocking(&mut self, i: usize) {
        let Some(head) = self.t.ident(i) else { return };
        if !(self.t.is_punct(i + 1, ":") && self.t.is_punct(i + 2, ":")) {
            return;
        }
        let Some(m) = self.t.ident(i + 3) else { return };
        if !self.t.is_punct(i + 4, "(") {
            return;
        }
        for (ty, fns) in BLOCKING_PATHS {
            if head == *ty && fns.contains(&m) {
                let what = format!("{head}::{m}");
                self.push_event(EventKind::Blocking { what }, i);
                return;
            }
        }
    }

    /// `Type::assoc(..)`, `Self::assoc(..)`, and free `helper(..)` calls.
    fn check_path_call(&mut self, i: usize) {
        let Some(head) = self.t.ident(i) else { return };
        if self.t.is_punct(i + 1, ":") && self.t.is_punct(i + 2, ":") {
            let Some(m) = self.t.ident(i + 3) else { return };
            if !self.t.is_punct(i + 4, "(") {
                return;
            }
            let owner = if head == "Self" {
                match self.owner {
                    Some(o) => o.to_string(),
                    None => return,
                }
            } else if self.tables.types.contains(head) {
                head.to_string()
            } else {
                return;
            };
            if let Some(&target) = self.tables.keys.get(&(owner, m.to_string())) {
                self.push_event(EventKind::Call { target }, i);
            }
            return;
        }
        // Free function call: bare ident followed by `(`, not a method or
        // path segment (those were handled above).
        if self.t.is_punct(i + 1, "(")
            && !(i >= 1 && (self.t.is_punct(i - 1, ".") || self.t.is_punct(i - 1, ":")))
        {
            if let Some(&target) = self.tables.keys.get(&(String::new(), head.to_string())) {
                self.push_event(EventKind::Call { target }, i);
            }
        }
    }

    /// If the statement containing the acquisition at `dot` is
    /// `let [mut] name = <acquisition>;`, return the bound name.
    fn let_binding_name(&self, dot: usize) -> Option<String> {
        let mut s = dot;
        while s > 0 {
            let tok = &self.t.toks[s - 1];
            if tok.kind == TokenKind::Punct && matches!(self.t.text(tok), ";" | "{" | "}") {
                break;
            }
            s -= 1;
        }
        if self.t.ident(s) != Some("let") {
            return None;
        }
        let mut j = s + 1;
        if self.t.ident(j) == Some("mut") {
            j += 1;
        }
        let name = self.t.ident(j)?;
        if self.t.is_punct(j + 1, "=") {
            Some(name.to_string())
        } else {
            None
        }
    }

    /// `let` bindings: simple aliases and `let Some(x) = …` destructures.
    fn handle_let(&mut self, i: usize, depth: u32, end: usize) {
        let mut j = i + 1;
        if self.t.ident(j) == Some("mut") {
            j += 1;
        }
        // `let Some(x) = rhs` / `let Ok(x) = rhs` (also reached via
        // `if let` / `while let`).
        if matches!(self.t.ident(j), Some("Some" | "Ok")) && self.t.is_punct(j + 1, "(") {
            let mut k = j + 2;
            if self.t.ident(k) == Some("mut") {
                k += 1;
            }
            if let Some(name) = self.t.ident(k) {
                if self.t.is_punct(k + 1, ")") && self.t.is_punct(k + 2, "=") {
                    let info = self.resolve_rhs(k + 3, end);
                    self.bindings.push(Binding { name: name.to_string(), depth, info });
                }
            }
            return;
        }
        // `let [mut] name = rhs;`
        let Some(name) = self.t.ident(j) else { return };
        if !self.t.is_punct(j + 1, "=") || self.t.is_punct(j + 2, "=") {
            return;
        }
        let info = self.resolve_rhs(j + 2, end);
        self.bindings.push(Binding { name: name.to_string(), depth, info });
    }

    /// `for name in <iterable> {` — the element of a collection of locks is
    /// the lock itself (`for shard in &self.shards`), so the binding simply
    /// inherits the iterable's resolution.
    fn handle_for(&mut self, i: usize, depth: u32, end: usize) {
        let Some(name) = self.t.ident(i + 1) else { return };
        if self.t.ident(i + 2) != Some("in") {
            return;
        }
        let info = self.resolve_rhs(i + 3, end);
        self.bindings.push(Binding { name: name.to_string(), depth, info });
    }

    /// `match <scrutinee> {` — remember the scrutinee's resolution so
    /// `Some(x) =>` arms can inherit it.
    fn handle_match(&mut self, i: usize, end: usize) {
        // Find the `{` opening the match body at this nesting level.
        let mut j = i + 1;
        let mut d = 0i32;
        while j < end {
            let tok = &self.t.toks[j];
            if tok.kind == TokenKind::Punct {
                match self.t.text(tok) {
                    "(" | "[" => d += 1,
                    ")" | "]" => d -= 1,
                    "{" if d == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if j >= end || j == i + 1 {
            return;
        }
        self.pending_match = Some(self.resolve_receiver(j - 1));
    }

    /// `Some(x) =>` / `Ok(x) =>` inside a match body: bind `x` to the
    /// scrutinee's resolution.
    fn try_bind_arm(&mut self, i: usize, depth: u32) {
        let Some((_, info)) = self.match_frames.last() else { return };
        if !self.t.is_punct(i + 1, "(") {
            return;
        }
        let mut k = i + 2;
        if self.t.ident(k) == Some("mut") {
            k += 1;
        }
        let Some(name) = self.t.ident(k) else { return };
        if self.t.is_punct(k + 1, ")") && self.t.is_punct(k + 2, "=") && self.t.is_punct(k + 3, ">")
        {
            let info = info.clone();
            self.bindings.push(Binding { name: name.to_string(), depth, info });
        }
    }

    /// `spawn(…)`: any live named guard referenced inside the argument list
    /// is a guard moved into another thread's closure.
    fn handle_spawn(&mut self, open: usize, end: usize) {
        let mut d = 0u32;
        let mut j = open;
        let mut captured: Vec<(String, String)> = Vec::new();
        while j < end {
            if self.t.is_punct(j, "(") {
                d += 1;
            } else if self.t.is_punct(j, ")") {
                d -= 1;
                if d == 0 {
                    break;
                }
            } else if let Some(name) = self.t.ident(j) {
                if let Some(g) = self.named_guards.iter().find(|g| g.name == name) {
                    let pair = (g.name.clone(), g.class.clone());
                    if !captured.contains(&pair) {
                        captured.push(pair);
                    }
                }
            }
            j += 1;
        }
        for (guard, class) in captured {
            self.push_event(EventKind::SpawnCapture { guard, class }, open);
        }
    }

    /// Resolve the value a right-hand side evaluates to, by resolving the
    /// trailing path expression before the statement's end.
    fn resolve_rhs(&self, start: usize, end: usize) -> FieldInfo {
        // Find the statement end: `;` or `{` at this nesting level.
        let mut d = 0i32;
        let mut j = start;
        while j < end {
            let tok = &self.t.toks[j];
            if tok.kind == TokenKind::Punct {
                match self.t.text(tok) {
                    "(" | "[" => d += 1,
                    ")" | "]" => d -= 1,
                    ";" | "{" if d <= 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if j == start {
            return FieldInfo::default();
        }
        self.resolve_receiver(j - 1)
    }

    /// Resolve the receiver chain ending (inclusive) at token `end`:
    /// `self.a.b`, `local.field`, `self.shards[i]`, through `as_ref()`-style
    /// adapters and interior `.lock()` derefs.
    fn resolve_receiver(&self, end: usize) -> FieldInfo {
        let mut steps: Vec<Step> = Vec::new();
        let mut j = end as isize;
        loop {
            if j < 0 {
                return FieldInfo::default();
            }
            let ju = j as usize;
            let tok = &self.t.toks[ju];
            match tok.kind {
                TokenKind::Ident => {
                    steps.push(Step::Name(self.t.text(tok).to_string()));
                    if ju >= 2 && self.t.is_punct(ju - 1, ":") && self.t.is_punct(ju - 2, ":") {
                        j = ju as isize - 3;
                        continue;
                    }
                    if ju >= 1 && self.t.is_punct(ju - 1, ".") {
                        j = ju as isize - 2;
                        continue;
                    }
                    break;
                }
                TokenKind::Punct if self.t.text(tok) == ")" => {
                    let Some(open) = self.t.match_back(ju, "(", ")") else {
                        return FieldInfo::default();
                    };
                    if open == 0 {
                        return FieldInfo::default();
                    }
                    let Some(m) = self.t.ident(open - 1) else { return FieldInfo::default() };
                    let lockish = matches!(m, "lock" | "read" | "write") && open + 1 == ju;
                    if !(TRANSPARENT.contains(&m) || lockish) {
                        return FieldInfo::default();
                    }
                    if lockish {
                        steps.push(Step::LockDeref);
                    }
                    if open >= 2 && self.t.is_punct(open - 2, ".") {
                        j = open as isize - 3;
                        continue;
                    }
                    return FieldInfo::default();
                }
                TokenKind::Punct if self.t.text(tok) == "]" => {
                    // Indexing is transparent: the element of a collection
                    // of locks resolves to the lock.
                    let Some(open) = self.t.match_back(ju, "[", "]") else {
                        return FieldInfo::default();
                    };
                    if open == 0 {
                        return FieldInfo::default();
                    }
                    j = open as isize - 1;
                }
                _ => return FieldInfo::default(),
            }
        }
        steps.reverse();
        self.resolve_steps(&steps)
    }

    fn resolve_steps(&self, steps: &[Step]) -> FieldInfo {
        let mut cur = FieldInfo::default();
        let mut first = true;
        for step in steps {
            match step {
                Step::Name(n) => {
                    if first {
                        first = false;
                        if n == "self" || n == "Self" {
                            cur.type_name = self.owner.map(str::to_string);
                        } else if let Some(b) = self.bindings.iter().rev().find(|b| &b.name == n) {
                            cur = b.info.clone();
                        } else if self.tables.types.contains(n.as_str()) {
                            cur.type_name = Some(n.clone());
                        } else {
                            return FieldInfo::default();
                        }
                    } else {
                        let Some(ty) = cur.type_name.take() else { return FieldInfo::default() };
                        let Some(fi) =
                            self.tables.structs.get(&ty).and_then(|fields| fields.get(n))
                        else {
                            return FieldInfo::default();
                        };
                        cur = fi.clone();
                    }
                }
                Step::LockDeref => {
                    // Deref through a guard: the inner type is already the
                    // field's significant type; the lock itself is gone.
                    cur.lock_class = None;
                }
            }
        }
        cur
    }
}

/// One segment of a resolved receiver chain.
#[derive(Debug)]
enum Step {
    Name(String),
    LockDeref,
}
