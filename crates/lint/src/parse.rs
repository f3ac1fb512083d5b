//! Lightweight item/block parser over the lexer: per-file symbol tables.
//!
//! The structural rules (lock-order, no-blocking-under-lock,
//! merge-exhaustive, guard-across-spawn) need more than a token stream:
//! they need to know which structs exist, what their fields' types are,
//! which functions belong to which `impl` block, and where each function
//! body begins and ends. This pass recovers exactly that — nothing more —
//! from the lexed stream. It is deliberately not a Rust parser: item
//! headers are recognised at *item position* (after `;`, `}`, `{`, `]`, or
//! a visibility/qualifier run), generics are skipped with bracket
//! counting, and everything it does not understand is ignored. A wrong
//! guess degrades a structural rule to silence, never to a panic or a
//! false diagnostic storm.

use crate::lexer::{Lexed, TokenKind, Toks};

/// A `// lint: merge-exhaustive` tag bound to a struct declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// `merge-exhaustive(fingerprint)`: the struct must also flow into
    /// `RunFingerprint`.
    pub fingerprint: bool,
}

/// A named struct field (or `0`, `1`, … for tuple structs) and the raw
/// token texts of its type.
#[derive(Debug, Clone)]
pub struct FieldDef {
    pub name: String,
    pub ty: Vec<String>,
}

/// One `struct` declaration.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    pub col: u32,
    pub in_test: bool,
    pub fields: Vec<FieldDef>,
    pub tag: Option<Tag>,
}

/// One `fn` declaration (with or without a body).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl`/`trait` type name, `None` for free functions.
    pub owner: Option<String>,
    pub line: u32,
    pub col: u32,
    pub in_test: bool,
    /// Named value parameters (`self` receivers excluded).
    pub params: Vec<FieldDef>,
    /// Token indices of the body's `{` and matching `}`.
    pub body: Option<(usize, usize)>,
}

/// Everything the structural rules need from one file.
#[derive(Debug, Default)]
pub struct FileModel {
    pub structs: Vec<StructDef>,
    pub fns: Vec<FnDef>,
    /// All type-introducing item names: structs, enums, unions, traits.
    pub type_names: Vec<String>,
    /// Trait names — the call graph refuses to cross `dyn` dispatch.
    pub trait_names: Vec<String>,
}

/// Build the file model from an already-lexed (and scope-marked) stream.
pub fn build(src: &str, lexed: &Lexed) -> FileModel {
    let p = Parser { t: lexed.view(src) };
    let mut model = FileModel::default();
    let mut depth: u32 = 0;
    // (owner name, depth at which its body opened)
    let mut owners: Vec<(String, u32)> = Vec::new();
    let mut pending_owner: Option<String> = None;
    let mut i = 0;
    while i < p.t.toks.len() {
        if p.t.is_punct(i, "{") {
            depth += 1;
            if let Some(o) = pending_owner.take() {
                owners.push((o, depth));
            }
            i += 1;
            continue;
        }
        if p.t.is_punct(i, "}") {
            if owners.last().is_some_and(|&(_, d)| d == depth) {
                owners.pop();
            }
            depth = depth.saturating_sub(1);
            i += 1;
            continue;
        }
        match p.t.ident(i) {
            Some("impl") if p.item_position(i) => {
                pending_owner = p.impl_owner(i + 1);
                i += 1;
            }
            Some("trait") if p.item_position(i) => {
                if let Some(name) = p.t.ident(i + 1) {
                    model.type_names.push(name.to_string());
                    model.trait_names.push(name.to_string());
                    pending_owner = Some(name.to_string());
                }
                i += 2;
            }
            Some("enum" | "union") if p.item_position(i) => {
                if let Some(name) = p.t.ident(i + 1) {
                    model.type_names.push(name.to_string());
                }
                i += 2;
            }
            Some("struct") if p.item_position(i) => {
                if let Some(def) = p.parse_struct(i) {
                    model.type_names.push(def.name.clone());
                    model.structs.push(def);
                }
                i += 2;
            }
            Some("fn") if p.t.ident(i + 1).is_some() => {
                if let Some(def) = p.parse_fn(i, owners.last().map(|(o, _)| o.as_str())) {
                    model.fns.push(def);
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
    // Bind each `// lint: merge-exhaustive` tag to the next struct below it
    // (derive attributes may sit between the comment and the declaration).
    for tag in &lexed.tags {
        let bound = model
            .structs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.line >= tag.line)
            .min_by_key(|(_, s)| s.line)
            .map(|(idx, _)| idx);
        if let Some(idx) = bound {
            let prev = model.structs[idx].tag.map(|t| t.fingerprint).unwrap_or(false);
            model.structs[idx].tag = Some(Tag { fingerprint: prev || tag.fingerprint });
        }
    }
    model
}

struct Parser<'a> {
    t: Toks<'a>,
}

impl Parser<'_> {
    /// Is the keyword at `i` in item position (start of a declaration)
    /// rather than inside an expression or type (`-> impl Trait`)?
    fn item_position(&self, i: usize) -> bool {
        let mut j = i;
        loop {
            if j == 0 {
                return true;
            }
            j -= 1;
            let tok = &self.t.toks[j];
            match (tok.kind, self.t.text(tok)) {
                (TokenKind::Ident, "pub" | "unsafe" | "const" | "async" | "extern" | "default") => {
                }
                // `extern "C" fn` — the ABI string.
                (TokenKind::Str, _) => {}
                (TokenKind::Punct, ")") => {
                    // Only a `pub(crate)`-style visibility group qualifies.
                    let Some(open) = self.t.match_back(j, "(", ")") else { return false };
                    if open == 0 || self.t.ident(open - 1) != Some("pub") {
                        return false;
                    }
                    j = open;
                }
                (TokenKind::Punct, ";" | "}" | "{" | "]") => return true,
                _ => return false,
            }
        }
    }

    /// Skip a `<…>` generic parameter list starting at `j`, if present.
    fn skip_generics(&self, j: usize) -> usize {
        if !self.t.is_punct(j, "<") {
            return j;
        }
        let mut depth = 0i32;
        let mut k = j;
        while k < self.t.toks.len() {
            if self.t.toks[k].kind == TokenKind::Punct {
                match self.t.text(&self.t.toks[k]) {
                    "<" | "(" | "[" => depth += 1,
                    ">" if !self.t.is_punct(k.wrapping_sub(1), "-") => {
                        depth -= 1;
                        if depth == 0 {
                            return k + 1;
                        }
                    }
                    ")" | "]" => depth -= 1,
                    _ => {}
                }
            }
            k += 1;
        }
        k
    }

    /// The self-type name of an `impl` header starting after the keyword:
    /// `impl Foo`, `impl<T> Trait for Foo<T>`, `impl Default for Bar`.
    fn impl_owner(&self, start: usize) -> Option<String> {
        let mut j = self.skip_generics(start);
        let mut candidate: Option<String> = None;
        let mut depth = 0i32;
        while j < self.t.toks.len() {
            let tok = &self.t.toks[j];
            match (tok.kind, self.t.text(tok)) {
                (TokenKind::Punct, "<" | "(" | "[") => depth += 1,
                (TokenKind::Punct, ">") if !self.t.is_punct(j.wrapping_sub(1), "-") => depth -= 1,
                (TokenKind::Punct, ")" | "]") => depth -= 1,
                (TokenKind::Punct, "{") if depth <= 0 => break,
                (TokenKind::Ident, "where") if depth <= 0 => break,
                // `impl Trait for Type` — the owner is the type after `for`.
                (TokenKind::Ident, "for") if depth <= 0 => candidate = None,
                (TokenKind::Ident, "dyn" | "mut" | "as") => {}
                (TokenKind::Ident, name) if candidate.is_none() => {
                    candidate = Some(name.to_string());
                }
                _ => {}
            }
            j += 1;
        }
        candidate
    }

    /// Collect raw type token texts until a top-level `,` or `limit`.
    /// Returns the texts and the index of the stopping token.
    fn collect_type(&self, start: usize, limit: usize) -> (Vec<String>, usize) {
        let mut depth = 0i32;
        let mut out = Vec::new();
        let mut j = start;
        while j < limit {
            let tok = &self.t.toks[j];
            if tok.kind == TokenKind::Punct {
                match self.t.text(tok) {
                    "<" | "(" | "[" | "{" => depth += 1,
                    ">" if !self.t.is_punct(j.wrapping_sub(1), "-") => depth -= 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth <= 0 => break,
                    _ => {}
                }
            }
            out.push(self.t.text(tok).to_string());
            j += 1;
        }
        (out, j)
    }

    fn parse_struct(&self, i: usize) -> Option<StructDef> {
        let name = self.t.ident(i + 1)?.to_string();
        let (line, col, in_test) =
            (self.t.toks[i].line, self.t.toks[i].col, self.t.toks[i].in_test);
        let mut j = self.skip_generics(i + 2);
        // Walk over any `where` clause to the body (or `;` for unit structs).
        while j < self.t.toks.len()
            && !self.t.is_punct(j, "{")
            && !self.t.is_punct(j, "(")
            && !self.t.is_punct(j, ";")
        {
            j += 1;
        }
        let mut fields = Vec::new();
        if self.t.is_punct(j, "(") {
            let close = self.t.match_forward(j, "(", ")")?;
            let mut k = j + 1;
            let mut idx = 0usize;
            while k < close {
                let (ty, next) = self.collect_type(k, close);
                if !ty.is_empty() {
                    // Tuple fields are addressed by position.
                    fields.push(FieldDef { name: idx.to_string(), ty });
                    idx += 1;
                }
                k = next + 1;
            }
        } else if self.t.is_punct(j, "{") {
            let close = self.t.match_forward(j, "{", "}")?;
            let mut k = j + 1;
            while k < close {
                while self.t.is_punct(k, "#") && self.t.is_punct(k + 1, "[") {
                    k = self.t.match_forward(k + 1, "[", "]")? + 1;
                }
                if self.t.ident(k) == Some("pub") {
                    k += 1;
                    if self.t.is_punct(k, "(") {
                        k = self.t.match_forward(k, "(", ")")? + 1;
                    }
                }
                let Some(fname) = self.t.ident(k) else { break };
                if !self.t.is_punct(k + 1, ":") {
                    break;
                }
                let (ty, next) = self.collect_type(k + 2, close);
                fields.push(FieldDef { name: fname.to_string(), ty });
                k = next + 1;
            }
        }
        Some(StructDef { name, line, col, in_test, fields, tag: None })
    }

    fn parse_fn(&self, i: usize, owner: Option<&str>) -> Option<FnDef> {
        let name = self.t.ident(i + 1)?.to_string();
        let (line, col, in_test) =
            (self.t.toks[i].line, self.t.toks[i].col, self.t.toks[i].in_test);
        let j = self.skip_generics(i + 2);
        if !self.t.is_punct(j, "(") {
            return None;
        }
        let close = self.t.match_forward(j, "(", ")")?;
        let mut params = Vec::new();
        let mut k = j + 1;
        while k < close {
            while self.t.is_punct(k, "#") && self.t.is_punct(k + 1, "[") {
                k = self.t.match_forward(k + 1, "[", "]")? + 1;
            }
            // Receiver forms: `self`, `&self`, `&mut self`, `&'a self`.
            let mut p = k;
            while self.t.is_punct(p, "&")
                || self.t.ident(p) == Some("mut")
                || self.t.toks.get(p).is_some_and(|t| t.kind == TokenKind::Lifetime)
            {
                p += 1;
            }
            if self.t.ident(p) == Some("self") {
                let (_, next) = self.collect_type(p, close);
                k = next + 1;
                continue;
            }
            // `name: Type` (after an optional `mut`); anything fancier
            // (tuple patterns, `_`) is skipped to the next comma.
            let mut q = k;
            if self.t.ident(q) == Some("mut") {
                q += 1;
            }
            if let Some(pname) = self.t.ident(q) {
                if self.t.is_punct(q + 1, ":") && !self.t.is_punct(q + 2, ":") {
                    let (ty, next) = self.collect_type(q + 2, close);
                    params.push(FieldDef { name: pname.to_string(), ty });
                    k = next + 1;
                    continue;
                }
            }
            let (_, next) = self.collect_type(k, close);
            k = next + 1;
        }
        // Find the body `{`, or `;` for a bodyless trait signature.
        let mut b = close + 1;
        let mut depth = 0i32;
        let mut body = None;
        while b < self.t.toks.len() {
            let tok = &self.t.toks[b];
            if tok.kind == TokenKind::Punct {
                match self.t.text(tok) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ";" if depth == 0 => break,
                    "{" if depth == 0 => {
                        body = Some((b, self.t.match_forward(b, "{", "}")?));
                        break;
                    }
                    _ => {}
                }
            }
            b += 1;
        }
        Some(FnDef { name, owner: owner.map(str::to_string), line, col, in_test, params, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        let mut lexed = lex(src);
        crate::scope::mark_test_scopes(&mut lexed.tokens, src);
        build(src, &lexed)
    }

    #[test]
    fn structs_fields_and_types_are_recovered() {
        let src = "
pub struct Shared {
    pub index: Mutex<StoreIndex>,
    io: RwLock<()>,
    #[allow(dead_code)]
    pub(crate) buf: Vec<u8>,
}
struct Pair(u32, FxHashMap<u64, u64>);
";
        let m = model(src);
        assert_eq!(m.structs.len(), 2);
        let s = &m.structs[0];
        assert_eq!(s.name, "Shared");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["index", "io", "buf"]);
        assert_eq!(s.fields[0].ty, ["Mutex", "<", "StoreIndex", ">"]);
        let p = &m.structs[1];
        assert_eq!(p.fields.len(), 2);
        assert_eq!(p.fields[1].name, "1");
        assert_eq!(p.fields[1].ty[0], "FxHashMap");
    }

    #[test]
    fn fns_get_owners_params_and_bodies() {
        let src = "
fn free(a: u32, mut b: Vec<u8>) -> u32 { a }
impl Store {
    pub fn get(&self, key: u64) -> Option<u64> { self.lookup(key) }
}
impl Gate for Store {
    fn decide(&mut self, req: &Request) -> bool { true }
}
trait Gate {
    fn decide(&mut self, req: &Request) -> bool;
}
";
        let m = model(src);
        let free = m.fns.iter().find(|f| f.name == "free").expect("free fn");
        assert_eq!(free.owner, None);
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[1].name, "b");
        assert!(free.body.is_some());
        let get = m.fns.iter().find(|f| f.name == "get").expect("method");
        assert_eq!(get.owner.as_deref(), Some("Store"));
        assert_eq!(get.params.len(), 1, "self receiver excluded");
        // Trait impl methods belong to the implementing type; the bodyless
        // trait signature belongs to the trait and has no body.
        let impls: Vec<_> = m.fns.iter().filter(|f| f.name == "decide").collect();
        assert_eq!(impls.len(), 2);
        assert_eq!(impls[0].owner.as_deref(), Some("Store"));
        assert!(impls[0].body.is_some());
        assert_eq!(impls[1].owner.as_deref(), Some("Gate"));
        assert!(impls[1].body.is_none());
        assert!(m.trait_names.contains(&"Gate".to_string()));
    }

    #[test]
    fn return_position_impl_is_not_an_item() {
        let src = "fn make() -> impl Iterator<Item = u32> { (0..3).into_iter() }\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 1);
        assert!(m.type_names.is_empty(), "`-> impl Trait` must not parse as an impl block");
    }

    #[test]
    fn tags_bind_to_the_next_struct() {
        let src = "
struct Untagged { a: u32 }
// lint: merge-exhaustive(fingerprint)
#[derive(Debug, Default)]
pub struct Stats { hits: u64, misses: u64 }
// lint: merge-exhaustive
struct Faults { drops: u64 }
";
        let m = model(src);
        assert_eq!(m.structs[0].tag, None);
        assert_eq!(m.structs[1].tag, Some(Tag { fingerprint: true }));
        assert_eq!(m.structs[2].tag, Some(Tag { fingerprint: false }));
    }

    #[test]
    fn test_scope_marks_carry_into_the_model() {
        let src = "
fn prod() {}
#[cfg(test)]
mod tests {
    struct Fixture { x: u64 }
    fn helper() {}
}
";
        let m = model(src);
        assert!(!m.fns.iter().find(|f| f.name == "prod").expect("prod").in_test);
        assert!(m.fns.iter().find(|f| f.name == "helper").expect("helper").in_test);
        assert!(m.structs[0].in_test);
    }

    #[test]
    fn generic_headers_do_not_derail_parsing() {
        let src = "
impl<K: Ord, V> Table<K, V> where K: Clone {
    fn insert<Q: Into<K>>(&mut self, key: Q, value: V) -> Option<V> { None }
}
struct Table<K, V> where K: Ord { entries: Vec<(K, V)> }
";
        let m = model(src);
        let f = m.fns.iter().find(|f| f.name == "insert").expect("insert");
        assert_eq!(f.owner.as_deref(), Some("Table"));
        assert_eq!(f.params.len(), 2);
        assert_eq!(m.structs[0].fields[0].name, "entries");
    }
}
