//! Workspace symbol table and approximate call graph.
//!
//! The per-file rules in [`crate::rules`] see one file at a time,
//! which is why the old `hot-path-panic` rule needed a hardcoded list
//! of hot *files*: it could not know that a function in another crate
//! is reachable from the replay kernel. This module closes that gap
//! without a type checker: it parses the scrubbed token stream (see
//! [`crate::lexer`]) of every workspace file into a symbol table of
//! function definitions (free functions, `impl`/`trait` associated
//! functions, with body line ranges) and the call sites inside each
//! body, then links call sites to definitions *by name* to form an
//! approximate cross-crate call graph.
//!
//! ## Approximation contract
//!
//! Resolution is name-directed, not type-directed, and deliberately
//! over-approximates:
//!
//! * a method call `recv.name(..)` links to **every** workspace
//!   function named `name` defined in an `impl` or `trait` block —
//!   receiver types are unknown, so all candidate receivers are
//!   assumed reachable;
//! * a type-qualified call `Type::name(..)` links only to functions
//!   named `name` owned by `Type` (a generic qualifier such as `P::`
//!   or `Self::` falls back to the method rule);
//! * a module-qualified call `module::name(..)` prefers free
//!   functions named `name` defined in a file or crate matching
//!   `module`, falling back to every free `name`;
//! * an unqualified call `name(..)` prefers same-file, then
//!   same-crate, then any free function named `name`.
//!
//! Calls into `std` and the vendored stubs resolve to nothing (their
//! sources are never scanned), closures attribute their calls to the
//! enclosing named function, and macro bodies are opaque — macro
//! *tokens* (`panic!`, `format!`) are matched textually by the rules
//! instead. False edges are possible when an std method name collides
//! with a workspace method name; that direction of error makes the
//! graph rules stricter, never blind, and a call-path evidence array
//! accompanies every finding so a false edge is visible on sight.
//! Test functions (`#[cfg(test)]`/`#[test]` regions, test/bench/
//! example files) are excluded from the table entirely.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::rules::is_ident_byte;

/// How a call site spells its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Qual {
    /// `name(..)` — unqualified.
    Free,
    /// `recv.name(..)` — method syntax, with whatever the receiver
    /// text reveals.
    Method(Receiver),
    /// `Type::name(..)` — qualified by a concrete type name.
    Type(String),
    /// `module::name(..)` — qualified by a lowercase path segment.
    Module(String),
}

/// What a method call's receiver text reveals about its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.name(..)` — the receiver is the caller's own type.
    SelfDirect,
    /// `self.oracle.name(..)` / `sink.name(..)` — the last receiver
    /// segment, a naming hint matched against candidate owner names.
    Hint(String),
    /// A chained or opaque receiver (`f().name(..)`, one-letter
    /// bindings) revealing nothing.
    Unknown,
}

/// Method names the std preludes and core containers define. A method
/// call spelling one of these almost always targets `std`, so linking
/// it to a same-named workspace method would wire unrelated subsystems
/// together (`.expect(..)` is not a call into a parser's `expect`).
/// Method-syntax and generic-qualifier calls to these names resolve to
/// nothing; an explicit `Type::name(..)` still resolves precisely.
const AMBIENT_METHODS: [&str; 45] = [
    "as_mut",
    "as_ref",
    "clone",
    "cmp",
    "contains",
    "default",
    "drop",
    "entry",
    "eq",
    "expect",
    "extend",
    "fill",
    "filter",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "last",
    "len",
    "map",
    "max",
    "min",
    "new",
    "next",
    "partial_cmp",
    "pop",
    "push",
    "read",
    "remove",
    "rev",
    "take",
    "to_owned",
    "to_string",
    "unwrap",
    "write",
    "zip",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (the identifier before the `(`).
    pub name: String,
    /// How the callee is spelled.
    pub qual: Qual,
    /// 1-based line of the call.
    pub line: usize,
}

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Owning `impl`/`trait` type, or `None` for a free function.
    pub owner: Option<String>,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line range of the body (opening to closing brace,
    /// inclusive). Equal lines for a one-line body.
    pub body: (usize, usize),
    /// Call sites inside the body, in source order.
    pub calls: Vec<Call>,
}

impl FnDef {
    /// `"name (file:line)"` — the evidence spelling used in call-path
    /// arrays.
    #[must_use]
    pub fn evidence(&self, files: &[String]) -> String {
        let file = files.get(self.file).map_or("?", |f| f.as_str());
        format!("{} ({}:{})", self.name, file, self.line)
    }
}

/// The workspace symbol table: every non-test function definition in
/// every scanned file, indexed by name.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Workspace-relative file paths, in scan order.
    pub files: Vec<String>,
    /// Every function definition, ordered by (file, line).
    pub fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Workspace {
    /// Creates an empty table; feed it files with [`Self::add_file`].
    #[must_use]
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Parses one scrubbed file into the table. `mask` marks
    /// test-context lines (a definition on a masked line is skipped).
    pub fn add_file(&mut self, path: &str, lines: &[String], mask: &[bool]) {
        let file = self.files.len();
        self.files.push(path.to_owned());
        let before = self.fns.len();
        parse_file(file, lines, mask, &mut self.fns);
        for idx in before..self.fns.len() {
            self.by_name
                .entry(self.fns[idx].name.clone())
                .or_default()
                .push(idx);
        }
    }

    /// Indices of definitions named `name`.
    #[must_use]
    pub fn defs_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The crate key of a file path (`crates/<dir>/…` → `<dir>`,
    /// anything else → `""`).
    fn crate_key(&self, file: usize) -> &str {
        let path = &self.files[file];
        path.strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("")
    }

    /// Resolves every call site to candidate definitions, producing
    /// the adjacency list of the approximate call graph.
    #[must_use]
    pub fn call_graph(&self) -> Vec<Vec<usize>> {
        let mut adj = Vec::with_capacity(self.fns.len());
        for f in &self.fns {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in &f.calls {
                self.resolve(f, call, &mut out);
            }
            adj.push(out.into_iter().collect());
        }
        adj
    }

    fn resolve(&self, caller: &FnDef, call: &Call, out: &mut BTreeSet<usize>) {
        let candidates = self.defs_named(&call.name);
        if candidates.is_empty() {
            return;
        }
        let owned: Vec<usize> = candidates
            .iter()
            .filter(|&&i| self.fns[i].owner.is_some())
            .copied()
            .collect();
        let ambient = AMBIENT_METHODS.contains(&call.name.as_str());
        // `self.f(..)` / `Self::f(..)`: the receiver is the caller's
        // own type — precise when the caller has one.
        let self_direct = matches!(&call.qual, Qual::Method(Receiver::SelfDirect))
            || matches!(&call.qual, Qual::Type(t) if t == "Self");
        if self_direct {
            match &caller.owner {
                Some(owner) => out.extend(
                    owned
                        .iter()
                        .filter(|&&i| self.fns[i].owner.as_deref() == Some(owner))
                        .copied(),
                ),
                None => {
                    if !ambient {
                        out.extend(owned);
                    }
                }
            }
            return;
        }
        match &call.qual {
            Qual::Method(recv) => {
                if ambient {
                    return;
                }
                match recv {
                    Receiver::Hint(hint) => {
                        // Match the hint against owner names
                        // (`oracle` → `ShadowOracle`); an unmatched
                        // hint falls back to the caller's own crate —
                        // locality beats wiring unrelated subsystems.
                        let normalized = hint.replace('_', "");
                        let matching: Vec<usize> = owned
                            .iter()
                            .filter(|&&i| {
                                self.fns[i]
                                    .owner
                                    .as_deref()
                                    .is_some_and(|o| o.to_lowercase().contains(&normalized))
                            })
                            .copied()
                            .collect();
                        if matching.is_empty() {
                            let caller_crate = self.crate_key(caller.file);
                            out.extend(
                                owned
                                    .iter()
                                    .filter(|&&i| self.crate_key(self.fns[i].file) == caller_crate)
                                    .copied(),
                            );
                        } else {
                            out.extend(matching);
                        }
                    }
                    Receiver::SelfDirect | Receiver::Unknown => out.extend(owned),
                }
            }
            Qual::Type(t) if is_generic_param(t) => {
                // `P::f(..)`: a generic parameter dispatches to any
                // implementor, like an opaque method receiver.
                if !ambient {
                    out.extend(owned);
                }
            }
            Qual::Type(t) => {
                out.extend(
                    candidates
                        .iter()
                        .filter(|&&i| self.fns[i].owner.as_deref() == Some(t))
                        .copied(),
                );
            }
            Qual::Module(m) => {
                let free: Vec<usize> = candidates
                    .iter()
                    .filter(|&&i| self.fns[i].owner.is_none())
                    .copied()
                    .collect();
                let matching: Vec<usize> = free
                    .iter()
                    .filter(|&&i| {
                        let path = &self.files[self.fns[i].file];
                        path.ends_with(&format!("/{m}.rs"))
                            || path.contains(&format!("/{m}/"))
                            || self.crate_key(self.fns[i].file) == m.replace('_', "-")
                            || self.crate_key(self.fns[i].file) == *m
                    })
                    .copied()
                    .collect();
                out.extend(if matching.is_empty() { free } else { matching });
            }
            Qual::Free => {
                let free: Vec<usize> = candidates
                    .iter()
                    .filter(|&&i| self.fns[i].owner.is_none())
                    .copied()
                    .collect();
                let same_file: Vec<usize> = free
                    .iter()
                    .filter(|&&i| self.fns[i].file == caller.file)
                    .copied()
                    .collect();
                if !same_file.is_empty() {
                    out.extend(same_file);
                    return;
                }
                let caller_crate = self.crate_key(caller.file);
                let same_crate: Vec<usize> = free
                    .iter()
                    .filter(|&&i| self.crate_key(self.fns[i].file) == caller_crate)
                    .copied()
                    .collect();
                out.extend(if same_crate.is_empty() {
                    free
                } else {
                    same_crate
                });
            }
        }
    }

    /// Multi-source BFS over the call graph from every definition
    /// `roots` accepts, never entering a definition `skip` accepts
    /// (cold escapes — guarded slow paths whose cost is by design).
    /// Returns, for each function, `Some(parent)` when reached
    /// (`parent == self` marks a root), `None` when not. BFS order is
    /// definition order, so parents — and therefore the evidence
    /// paths built from them — are deterministic.
    #[must_use]
    pub fn reach(
        &self,
        adj: &[Vec<usize>],
        roots: impl Fn(&FnDef) -> bool,
        skip: impl Fn(&FnDef) -> bool,
    ) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue = VecDeque::new();
        for (i, f) in self.fns.iter().enumerate() {
            if roots(f) && !skip(f) {
                parent[i] = Some(i);
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &adj[i] {
                if parent[j].is_none() && !skip(&self.fns[j]) {
                    parent[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        parent
    }

    /// The call chain from a root entry point down to `target`, as
    /// evidence strings (`"name (file:line)"`), root first. Empty when
    /// `target` was not reached.
    #[must_use]
    pub fn chain(&self, parent: &[Option<usize>], target: usize) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = target;
        loop {
            let Some(p) = parent.get(cur).copied().flatten() else {
                return Vec::new();
            };
            rev.push(cur);
            if p == cur {
                break;
            }
            cur = p;
        }
        rev.reverse();
        rev.into_iter()
            .map(|i| self.fns[i].evidence(&self.files))
            .collect()
    }
}

/// A generic type parameter spelling (`T`, `P`, `S1`): short and
/// fully uppercase/numeric.
fn is_generic_param(name: &str) -> bool {
    name.len() <= 2
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
}

/// Reserved words that look like calls when followed by `(`.
const KEYWORDS: [&str; 27] = [
    "as", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "while", "where",
];

#[derive(Debug)]
enum CtxKind {
    /// An `impl`/`trait` block; the owning type name.
    Owner(String),
    /// A function body; index into the output `fns`.
    Body(usize),
}

#[derive(Debug)]
struct Ctx {
    /// Brace depth *at which the block opened* (popping happens when
    /// depth returns here).
    depth: i64,
    kind: CtxKind,
}

/// A `fn` item seen but whose body `{` (or `;`) has not arrived yet.
#[derive(Debug)]
struct PendingFn {
    name: String,
    line: usize,
    /// Paren/bracket nesting inside the signature: a `;` at depth 0
    /// ends a bodiless (trait) declaration.
    paren: i64,
    bracket: i64,
}

/// What the scanner is collecting between items.
#[derive(Debug)]
enum Mode {
    Code,
    /// After `impl`: collecting header text until the block `{`.
    ImplHeader(String),
    /// After `trait`: the next identifier names the owner.
    TraitName,
    /// After a trait's name: skipping bounds until the block `{`.
    TraitHeader(String),
    /// After `fn`: the next identifier names the function.
    FnName,
}

fn parse_file(file: usize, lines: &[String], mask: &[bool], fns: &mut Vec<FnDef>) {
    let mut depth: i64 = 0;
    let mut ctxs: Vec<Ctx> = Vec::new();
    let mut mode = Mode::Code;
    let mut pending: Option<PendingFn> = None;

    for (li, line) in lines.iter().enumerate() {
        let in_test = mask.get(li).copied().unwrap_or(false);
        let bytes = line.as_bytes();
        let trimmed = line.trim_start();
        // Attribute lines (`#[derive(..)]`, `#[cfg(..)]`) are not
        // calls; their parens also never open bodies.
        if trimmed.starts_with('#') {
            continue;
        }
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            if c.is_ascii_alphabetic() || c == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let ident = &line[start..i];
                match &mut mode {
                    Mode::ImplHeader(text) | Mode::TraitHeader(text) => {
                        text.push_str(ident);
                        text.push(' ');
                        continue;
                    }
                    Mode::TraitName => {
                        mode = Mode::TraitHeader(format!("{ident} "));
                        continue;
                    }
                    Mode::FnName => {
                        pending = Some(PendingFn {
                            name: ident.to_owned(),
                            line: li + 1,
                            paren: 0,
                            bracket: 0,
                        });
                        mode = Mode::Code;
                        continue;
                    }
                    Mode::Code => {}
                }
                match ident {
                    "impl" => {
                        mode = Mode::ImplHeader(String::new());
                        continue;
                    }
                    "trait" => {
                        mode = Mode::TraitName;
                        continue;
                    }
                    "fn" => {
                        // `fn` as a *type* (`fn() -> u64`) is followed
                        // by `(`; only an identifier starts a def.
                        let next = bytes[i..]
                            .iter()
                            .position(|&b| b != b' ')
                            .map(|p| bytes[i + p]);
                        if next.is_some_and(|b| b.is_ascii_alphabetic() || b == b'_') {
                            mode = Mode::FnName;
                        }
                        continue;
                    }
                    _ => {}
                }
                // Call detection: lowercase identifier directly
                // followed by `(` (or a `::<turbofish>(`), inside a
                // non-test function body.
                if in_test || pending.is_some() {
                    continue;
                }
                let Some(body_idx) = innermost_body(&ctxs) else {
                    continue;
                };
                if !bytes[start].is_ascii_lowercase() && bytes[start] != b'_' {
                    continue;
                }
                if KEYWORDS.contains(&ident) {
                    continue;
                }
                let mut j = i;
                // Optional turbofish between name and argument list.
                if line[j..].starts_with("::<") {
                    let mut angle = 0i64;
                    let rest = &bytes[j + 2..];
                    let mut k = 0usize;
                    while k < rest.len() {
                        match rest[k] {
                            b'<' => angle += 1,
                            b'>' => {
                                angle -= 1;
                                if angle == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    j += 2 + k;
                }
                if bytes.get(j) != Some(&b'(') {
                    continue;
                }
                // A macro invocation (`name!(`) is not a call edge.
                if bytes.get(i) == Some(&b'!') {
                    continue;
                }
                let qual = classify_qual(line, start);
                fns[body_idx].calls.push(Call {
                    name: ident.to_owned(),
                    qual,
                    line: li + 1,
                });
                continue;
            }
            match c {
                b'{' => {
                    match std::mem::replace(&mut mode, Mode::Code) {
                        Mode::ImplHeader(text) | Mode::TraitHeader(text) => {
                            ctxs.push(Ctx {
                                depth,
                                kind: CtxKind::Owner(owner_from_header(&text)),
                            });
                        }
                        other => {
                            mode = other;
                            if let Some(p) = pending.take() {
                                if in_test || mask.get(p.line - 1).copied().unwrap_or(false) {
                                    // Test fn: body braces still need
                                    // tracking, but no definition.
                                    depth += 1;
                                    i += 1;
                                    continue;
                                }
                                let owner = ctxs.iter().rev().find_map(|c| match &c.kind {
                                    CtxKind::Owner(name) => Some(name.clone()),
                                    CtxKind::Body(_) => None,
                                });
                                fns.push(FnDef {
                                    name: p.name,
                                    owner,
                                    file,
                                    line: p.line,
                                    body: (li + 1, li + 1),
                                    calls: Vec::new(),
                                });
                                ctxs.push(Ctx {
                                    depth,
                                    kind: CtxKind::Body(fns.len() - 1),
                                });
                            }
                        }
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    while ctxs.last().is_some_and(|c| c.depth == depth) {
                        if let Some(Ctx {
                            kind: CtxKind::Body(idx),
                            ..
                        }) = ctxs.pop()
                        {
                            fns[idx].body.1 = li + 1;
                        }
                    }
                }
                b'(' => {
                    if let Some(p) = pending.as_mut() {
                        p.paren += 1;
                    }
                }
                b')' => {
                    if let Some(p) = pending.as_mut() {
                        p.paren -= 1;
                    }
                }
                b'[' => {
                    if let Some(p) = pending.as_mut() {
                        p.bracket += 1;
                    }
                }
                b']' => {
                    if let Some(p) = pending.as_mut() {
                        p.bracket -= 1;
                    }
                }
                b';' => {
                    if pending
                        .as_ref()
                        .is_some_and(|p| p.paren <= 0 && p.bracket <= 0)
                    {
                        pending = None; // bodiless trait declaration
                    }
                }
                _ => {
                    if let Mode::ImplHeader(text) | Mode::TraitHeader(text) = &mut mode {
                        if !c.is_ascii_whitespace() {
                            text.push(c as char);
                        } else if !text.ends_with(' ') {
                            text.push(' ');
                        }
                    }
                }
            }
            i += 1;
        }
        // Header text spanning lines keeps a separator.
        if let Mode::ImplHeader(text) | Mode::TraitHeader(text) = &mut mode {
            if !text.ends_with(' ') {
                text.push(' ');
            }
        }
    }
}

/// Index into `fns` of the innermost enclosing function body.
fn innermost_body(ctxs: &[Ctx]) -> Option<usize> {
    ctxs.iter().rev().find_map(|c| match c.kind {
        CtxKind::Body(idx) => Some(idx),
        CtxKind::Owner(_) => None,
    })
}

/// Extracts the owning type name from an `impl`/`trait` header's
/// collected text: generics are skipped, `impl Trait for Type` takes
/// the type after `for`, a path takes its last segment, and trailing
/// generic arguments are cut.
fn owner_from_header(text: &str) -> String {
    let text = text.trim();
    // Strip leading generic parameter list (`<M : Default>`).
    let text = if let Some(rest) = text.strip_prefix('<') {
        let mut angle = 1i64;
        let mut cut = rest.len();
        for (k, ch) in rest.char_indices() {
            match ch {
                '<' => angle += 1,
                '>' => {
                    angle -= 1;
                    if angle == 0 {
                        cut = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest[cut..].trim()
    } else {
        text
    };
    // `impl Trait for Type` — the implementing type is the owner.
    let text = text
        .split(" for ")
        .nth(1)
        .map_or(text, str::trim)
        .trim_start_matches('&')
        .trim_start_matches("mut ");
    // Cut at whitespace (a `where` clause) or generics.
    let head = text
        .split(|c: char| c.is_whitespace() || c == '<')
        .next()
        .unwrap_or("");
    // Last path segment.
    head.rsplit("::").next().unwrap_or(head).to_owned()
}

/// Classifies how a call at byte `start` of `line` is qualified, by
/// looking at what precedes the identifier.
fn classify_qual(line: &str, start: usize) -> Qual {
    let bytes = line.as_bytes();
    if start == 0 {
        return Qual::Free;
    }
    if bytes[start - 1] == b'.' {
        // Read the receiver segment before the dot: an identifier is
        // a hint, `self` directly is the caller's own type, anything
        // else (a call chain, an index) reveals nothing.
        let mut s = start - 1;
        while s > 0 && is_ident_byte(bytes[s - 1]) {
            s -= 1;
        }
        let seg = &line[s..start - 1];
        let recv = if seg == "self" && (s == 0 || bytes[s - 1] != b'.') {
            Receiver::SelfDirect
        } else if seg.len() >= 3 && seg.as_bytes()[0].is_ascii_lowercase() {
            Receiver::Hint(seg.to_owned())
        } else {
            Receiver::Unknown
        };
        return Qual::Method(recv);
    }
    if start >= 2 && &line[start - 2..start] == "::" {
        // Walk the qualifying segment backwards.
        let mut k = start - 2;
        // A closing `>` right before `::` is a generic argument list
        // (`Vec<u8>::new`); skip it to reach the type name.
        if k > 0 && bytes[k - 1] == b'>' {
            let mut angle = 0i64;
            while k > 0 {
                k -= 1;
                match bytes[k] {
                    b'>' => angle += 1,
                    b'<' => {
                        angle -= 1;
                        if angle == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let end = k;
        let mut s = end;
        while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        let seg = &line[s..end];
        if seg.is_empty() {
            return Qual::Free;
        }
        if seg.as_bytes()[0].is_ascii_uppercase() {
            return Qual::Type(seg.to_owned());
        }
        return Qual::Module(seg.to_owned());
    }
    Qual::Free
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let mut w = Workspace::new();
        for (path, source) in files {
            let scrubbed = crate::lexer::scrub(source);
            let mask = crate::test_line_mask(&scrubbed.lines, crate::test_context_path(path));
            w.add_file(path, &scrubbed.lines, &mask);
        }
        w
    }

    #[test]
    fn free_fns_and_bodies_are_indexed() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "pub fn outer(n: u64) -> u64 {\n    inner(n) + 1\n}\n\nfn inner(n: u64) -> u64 {\n    n\n}\n",
        )]);
        assert_eq!(w.fns.len(), 2);
        assert_eq!(w.fns[0].name, "outer");
        assert_eq!(w.fns[0].body, (1, 3));
        assert_eq!(w.fns[0].calls.len(), 1);
        assert_eq!(w.fns[0].calls[0].name, "inner");
        assert_eq!(w.fns[0].calls[0].qual, Qual::Free);
        assert_eq!(w.fns[1].body, (5, 7));
    }

    #[test]
    fn impl_and_trait_owners_are_attached() {
        let src = "struct Kernel;\n\
                   impl Kernel {\n    pub fn fill_at(&mut self) { self.evict() }\n    fn evict(&mut self) {}\n}\n\
                   trait Policy {\n    fn victim(&self) -> usize {\n        0\n    }\n}\n\
                   impl<T: Clone> Policy for Vec<T> {\n    fn victim(&self) -> usize { 1 }\n}\n";
        let w = ws(&[("crates/x/src/lib.rs", src)]);
        let names: Vec<(&str, Option<&str>)> = w
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            [
                ("fill_at", Some("Kernel")),
                ("evict", Some("Kernel")),
                ("victim", Some("Policy")),
                ("victim", Some("Vec")),
            ]
        );
        // Bodiless trait declarations are not definitions.
        let decl = "trait T {\n    fn no_body(&self) -> [u8; 4];\n    fn with_body(&self) {}\n}\n";
        let w = ws(&[("crates/x/src/lib.rs", decl)]);
        assert_eq!(w.fns.len(), 1);
        assert_eq!(w.fns[0].name, "with_body");
    }

    #[test]
    fn call_qualifiers_classify() {
        let src = "fn driver(v: &[u64]) {\n\
                   \x20   helper();\n\
                   \x20   v.scan_row(3);\n\
                   \x20   Kernel::fill_at(1);\n\
                   \x20   span::enter(2);\n\
                   \x20   P::victim(v);\n\
                   }\nfn helper() {}\n";
        let w = ws(&[("crates/x/src/lib.rs", src)]);
        let quals: Vec<(&str, &Qual)> = w.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), &c.qual))
            .collect();
        assert_eq!(quals.len(), 5);
        assert_eq!(quals[0], ("helper", &Qual::Free));
        assert_eq!(quals[1], ("scan_row", &Qual::Method(Receiver::Unknown)));
        assert_eq!(quals[2], ("fill_at", &Qual::Type("Kernel".to_owned())));
        assert_eq!(quals[3], ("enter", &Qual::Module("span".to_owned())));
        assert_eq!(quals[4], ("victim", &Qual::Type("P".to_owned())));
    }

    #[test]
    fn receiver_text_classifies() {
        let src = "impl K {\n    fn run(&mut self) {\n        self.own_step();\n        self.oracle.observe(1);\n        sink.miss(2);\n        make().chained(3);\n    }\n}\n";
        let w = ws(&[("crates/x/src/lib.rs", src)]);
        let qual_of = |name: &str| {
            &w.fns[0]
                .calls
                .iter()
                .find(|c| c.name == name)
                .expect(name)
                .qual
        };
        assert_eq!(qual_of("own_step"), &Qual::Method(Receiver::SelfDirect));
        assert_eq!(
            qual_of("observe"),
            &Qual::Method(Receiver::Hint("oracle".to_owned()))
        );
        assert_eq!(
            qual_of("miss"),
            &Qual::Method(Receiver::Hint("sink".to_owned()))
        );
        assert_eq!(qual_of("make"), &Qual::Free);
        assert_eq!(qual_of("chained"), &Qual::Method(Receiver::Unknown));
    }

    #[test]
    fn receiver_hints_narrow_method_resolution() {
        let src = "\
pub struct ShadowOracle;\n\
impl ShadowOracle {\n    pub fn observe(&mut self) {}\n}\n\
pub struct Harness;\n\
impl Harness {\n    pub fn access_block(&mut self) {\n        self.oracle.observe();\n    }\n}\n";
        let other = "pub struct System;\nimpl System {\n    pub fn observe(&mut self) {}\n}\n";
        let w = ws(&[
            ("crates/core/src/shadow.rs", src),
            ("crates/assist/src/lib.rs", other),
        ]);
        let adj = w.call_graph();
        let entry = w.fns.iter().position(|f| f.name == "access_block").unwrap();
        assert_eq!(adj[entry].len(), 1, "{adj:?}");
        assert_eq!(
            w.fns[adj[entry][0]].owner.as_deref(),
            Some("ShadowOracle"),
            "hint `oracle` must exclude the unrelated System::observe"
        );
    }

    #[test]
    fn ambient_method_names_do_not_edge() {
        // `.expect(..)` is std's Option::expect, not the parser's.
        let a = "pub fn fill_at(x: Option<u8>) {\n    x.expect(\"resident\");\n}\n";
        let b = "pub struct Parser;\nimpl Parser {\n    pub fn expect(&mut self, t: u8) {}\n}\n";
        let w = ws(&[("crates/x/src/lib.rs", a), ("crates/y/src/lib.rs", b)]);
        let adj = w.call_graph();
        assert!(adj[0].is_empty(), "{adj:?}");
        // But an explicit type qualification still resolves.
        let c = "pub fn fill_at(p: &mut Parser) {\n    Parser::expect(p, 1);\n}\n";
        let w = ws(&[("crates/x/src/lib.rs", c), ("crates/y/src/lib.rs", b)]);
        let adj = w.call_graph();
        assert_eq!(adj[0].len(), 1);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src =
            "fn f(n: usize) {\n    if n > 0 {\n        panic!(\"boom\");\n    }\n    while check(n) {}\n}\nfn check(_n: usize) -> bool { false }\n";
        let w = ws(&[("crates/x/src/lib.rs", src)]);
        let names: Vec<&str> = w.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["check"]);
    }

    #[test]
    fn test_regions_are_excluded() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn fake() { real() }\n}\n";
        let w = ws(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(w.fns.len(), 1);
        assert_eq!(w.fns[0].name, "real");
        let w = ws(&[("crates/x/tests/t.rs", "fn helper() {}\n")]);
        assert!(w.fns.is_empty());
    }

    #[test]
    fn cross_crate_method_edges_resolve() {
        let kernel = "pub struct Cache;\nimpl Cache {\n    pub fn probe_at(&mut self) -> bool {\n        self.scan()\n    }\n    fn scan(&self) -> bool { true }\n}\n";
        let driver = "pub fn access_parts(c: &mut Cache) {\n    c.probe_at();\n}\n";
        let w = ws(&[
            ("crates/cache/src/cache.rs", kernel),
            ("crates/core/src/classified.rs", driver),
        ]);
        let adj = w.call_graph();
        let access = w.fns.iter().position(|f| f.name == "access_parts").unwrap();
        let probe = w.fns.iter().position(|f| f.name == "probe_at").unwrap();
        let scan = w.fns.iter().position(|f| f.name == "scan").unwrap();
        assert!(adj[access].contains(&probe));
        assert!(adj[probe].contains(&scan));

        let parent = w.reach(&adj, |f| f.name == "access_parts", |_| false);
        assert!(parent[scan].is_some());
        let chain = w.chain(&parent, scan);
        assert_eq!(
            chain,
            [
                "access_parts (crates/core/src/classified.rs:1)",
                "probe_at (crates/cache/src/cache.rs:3)",
                "scan (crates/cache/src/cache.rs:6)",
            ]
        );
    }

    #[test]
    fn free_call_prefers_same_file_then_same_crate() {
        let a = "pub fn entry() { shared() }\nfn shared() {}\n";
        let b = "pub fn shared() {}\n";
        let w = ws(&[("crates/x/src/a.rs", a), ("crates/y/src/b.rs", b)]);
        let adj = w.call_graph();
        let entry = w.fns.iter().position(|f| f.name == "entry").unwrap();
        assert_eq!(adj[entry].len(), 1);
        assert_eq!(w.fns[adj[entry][0]].file, 0, "same-file def wins");
    }

    #[test]
    fn module_qualified_calls_prefer_matching_file() {
        let caller = "pub fn entry() { span::take(1); }\n";
        let span = "pub fn take(_n: usize) {}\n";
        let other = "pub fn take(_n: usize) {}\n";
        let w = ws(&[
            ("crates/x/src/lib.rs", caller),
            ("crates/sim-core/src/span.rs", span),
            ("crates/y/src/misc.rs", other),
        ]);
        let adj = w.call_graph();
        assert_eq!(adj[0].len(), 1);
        assert_eq!(
            w.files[w.fns[adj[0][0]].file],
            "crates/sim-core/src/span.rs"
        );
    }
}
