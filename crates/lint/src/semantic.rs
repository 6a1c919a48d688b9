//! Semantic, cross-file rules over the item model.
//!
//! Where [`crate::rules`] pattern-matches single blanked lines, the
//! rules here reason about *items across files* ([`crate::model`]):
//! the `Ev` enum vs. its profiler/journal coverage, RNG draw sites vs.
//! the named-stream discipline, and `Mutex` acquisition order vs. a
//! declared hierarchy. Each is a static shadow of a dynamic contract
//! the CI gates already enforce at runtime (counted-draw twin replay,
//! attribution tiling, deadlock-freedom) — the point is to catch the
//! drift at lint time, before a long run discovers it. (Snapshot
//! coverage needs no lint: `dcmaint_ckpt::persist!` destructures every
//! state type exhaustively, so the compiler enforces it.)
//!
//! All three are deliberate over-approximations on token streams, not
//! proofs; the escape hatch is the same `// lint:allow(rule): reason`
//! the syntactic rules use, so every exception is justified in place.

use crate::model::{arms_of_first_match, FileModel};
use crate::rules::{EVENT_COVERAGE, LOCK_ORDER, RNG_STREAM};
use crate::tokens::Tok;
use crate::{FileKind, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Where the `Ev` enum and its dispatch live.
pub const ENGINE_FILE: &str = "crates/scenarios/src/engine.rs";
/// The path prefix whose fns form the event-coverage call universe:
/// the engine delegates emission to component crates (robotics,
/// tickets, telemetry…) that hold cloned journal handles, so the
/// whole workspace is callable.
const EVENT_UNIVERSE: &str = "crates/";
/// Engine code where every RNG draw must go through a named stream.
const RNG_SCOPES: &[&str] = &["crates/scenarios/src/", "crates/twin/src/"];

/// Stream draw methods (from `des::rng::Stream`); a call to one of
/// these consumes the counted draw tape.
const DRAW_METHODS: &[&str] = &[
    "next_u64",
    "uniform",
    "uniform_range",
    "below",
    "index",
    "chance",
    "choose",
    "weighted_index",
    "shuffle",
];

/// Sanctioned stream-derivation calls: a value produced by one of
/// these is itself a named stream.
const DERIVE_METHODS: &[&str] = &["root", "stream", "child"];

/// Idents that mark a fn as an observability sink for event-coverage.
const SINK_IDENTS: &[&str] = &["journal", "traces"];

/// One analyzed file, as the semantic pass sees it.
pub struct SemFile<'a> {
    pub rel: &'a str,
    pub kind: FileKind,
    /// `#[cfg(test)]` line mask from [`crate::lexer::test_line_mask`].
    pub mask: &'a [bool],
    pub model: &'a FileModel,
}

impl SemFile<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.mask.get(line as usize).copied().unwrap_or(false)
    }
}

/// Run every semantic rule. `files` is the whole workspace in any
/// order; findings come back unsorted (the caller canonicalizes).
pub fn check(files: &[SemFile<'_>], locks: Option<&LockHierarchy>) -> Vec<Finding> {
    let mut out = Vec::new();
    event_coverage(files, &mut out);
    rng_stream_discipline(files, &mut out);
    if let Some(h) = locks {
        lock_order(files, h, &mut out);
    }
    out
}

fn file<'a, 'b>(files: &'a [SemFile<'b>], rel: &str) -> Option<&'a SemFile<'b>> {
    files.iter().find(|f| f.rel == rel)
}

// ---------------------------------------------------------------- //
// event-coverage
// ---------------------------------------------------------------- //

/// Every `Ev` variant must (a) be named in a `prof_attribution` arm —
/// a wildcard does not count, it is precisely the blind spot — and
/// (b) reach an observability sink (`journal`/`traces`) from its
/// `handle` dispatch arm through the scenario crate's call graph.
fn event_coverage(files: &[SemFile<'_>], out: &mut Vec<Finding>) {
    let Some(eng) = file(files, ENGINE_FILE) else {
        return;
    };
    let Some(ev) = eng.model.enum_named("Ev") else {
        return;
    };
    // (a) prof_attribution arm per variant.
    if let Some(prof) = eng.model.fn_named("prof_attribution") {
        if let Some(body) = prof.body.clone() {
            let arms = arms_of_first_match(&eng.model.tokens, body);
            let mut named: BTreeSet<&str> = BTreeSet::new();
            for arm in &arms {
                named.extend(eng.model.idents_in(arm.head.clone()));
            }
            for v in &ev.variants {
                if !named.contains(v.name.as_str()) {
                    out.push(Finding::new(
                        eng.rel,
                        v.line,
                        EVENT_COVERAGE,
                        format!(
                            "`Ev::{}` has no explicit prof_attribution arm; \
                             the profiler would tile this event into the wrong subsystem",
                            v.name,
                        ),
                    ));
                }
            }
        }
    }
    // (b) journal reachability from the handle arm. The callable
    // universe is every fn in the scenarios crate, searched by name.
    let mut universe: BTreeMap<&str, Vec<(&FileModel, std::ops::Range<usize>)>> = BTreeMap::new();
    for f in files {
        if !f.rel.starts_with(EVENT_UNIVERSE) || matches!(f.kind, FileKind::Test | FileKind::Bench)
        {
            continue;
        }
        for fun in &f.model.fns {
            if let Some(b) = fun.body.clone() {
                universe
                    .entry(fun.name.as_str())
                    .or_default()
                    .push((f.model, b));
            }
        }
    }
    let Some(handle) = eng.model.fn_named("handle") else {
        return;
    };
    let Some(hbody) = handle.body.clone() else {
        return;
    };
    let arms = arms_of_first_match(&eng.model.tokens, hbody);
    for v in &ev.variants {
        let Some(arm) = arms
            .iter()
            .find(|a| eng.model.idents_in(a.head.clone()).any(|i| i == v.name))
        else {
            out.push(Finding::new(
                eng.rel,
                v.line,
                EVENT_COVERAGE,
                format!(
                    "`Ev::{}` has no explicit handle arm; its journal coverage cannot be established",
                    v.name,
                ),
            ));
            continue;
        };
        // BFS from the arm value through called fns to a sink ident.
        let mut queue: Vec<(&FileModel, std::ops::Range<usize>)> =
            vec![(eng.model, arm.value.clone())];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        let mut reached = false;
        while let Some((m, range)) = queue.pop() {
            let toks = &m.tokens[range.start.min(m.tokens.len())..range.end.min(m.tokens.len())];
            for (i, t) in toks.iter().enumerate() {
                let Some(id) = t.ident() else { continue };
                if SINK_IDENTS.contains(&id) {
                    reached = true;
                    break;
                }
                let called = toks.get(i + 1).map(|n| n.is_punct(b'(')) == Some(true)
                    && !(i > 0 && toks[i - 1].is_ident("fn"));
                if called && visited.insert(id) {
                    if let Some(defs) = universe.get(id) {
                        for (dm, db) in defs {
                            queue.push((dm, db.clone()));
                        }
                    }
                }
            }
            if reached {
                break;
            }
        }
        if !reached {
            out.push(Finding::new(
                eng.rel,
                v.line,
                EVENT_COVERAGE,
                format!(
                    "`Ev::{}`: no journal/trace emission is reachable from its handle arm; \
                     the event would be invisible to the observability plane",
                    v.name,
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- //
// rng-stream-discipline
// ---------------------------------------------------------------- //

/// What a draw call's receiver resolves to, walking tokens backwards
/// from the `.method(` site.
enum Recv {
    /// `….name.method(…)` — a field access.
    Field(String),
    /// `name.method(…)` — a bare local/param.
    Local(String),
    /// `…fn_name(…).method(…)` — the result of a call.
    Call(String),
    Opaque,
}

fn resolve_recv(model: &FileModel, dot: usize) -> Recv {
    // `dot` indexes the `.` before the method name.
    let toks = &model.tokens;
    let Some(j) = dot.checked_sub(1) else {
        return Recv::Opaque;
    };
    match &toks[j].tok {
        Tok::Ident(name) => {
            if j >= 1 && toks[j - 1].is_punct(b'.') {
                Recv::Field(name.clone())
            } else {
                Recv::Local(name.clone())
            }
        }
        Tok::Punct(b']') => {
            // Indexed: `…deques[i].method(…)` — find the `[`'s owner.
            let mut depth = 1i32;
            let mut k = j;
            while k > 0 && depth > 0 {
                k -= 1;
                match toks[k].tok {
                    Tok::Punct(b']') => depth += 1,
                    Tok::Punct(b'[') => depth -= 1,
                    _ => {}
                }
            }
            match k.checked_sub(1).map(|p| &toks[p].tok) {
                Some(Tok::Ident(name)) => {
                    if k >= 2 && toks[k - 2].is_punct(b'.') {
                        Recv::Field(name.clone())
                    } else {
                        Recv::Local(name.clone())
                    }
                }
                _ => Recv::Opaque,
            }
        }
        Tok::Punct(b')') => {
            // Call result: `….derive(…).method(…)` — name the callee.
            let mut depth = 1i32;
            let mut k = j;
            while k > 0 && depth > 0 {
                k -= 1;
                match toks[k].tok {
                    Tok::Punct(b')') => depth += 1,
                    Tok::Punct(b'(') => depth -= 1,
                    _ => {}
                }
            }
            match k.checked_sub(1).map(|p| &toks[p].tok) {
                Some(Tok::Ident(name)) => Recv::Call(name.clone()),
                _ => Recv::Opaque,
            }
        }
        _ => Recv::Opaque,
    }
}

/// Field names (workspace-wide) whose declared type mentions `Stream`
/// or `SimRng` — the named streams the discipline sanctions.
fn stream_field_names(files: &[SemFile<'_>]) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for f in files {
        for s in &f.model.structs {
            for fld in &s.fields {
                if fld.ty.iter().any(|t| t == "Stream" || t == "SimRng") {
                    set.insert(fld.name.clone());
                }
            }
        }
    }
    set
}

/// Locals of one fn sanctioned as streams: params typed
/// `Stream`/`SimRng`, plus `let` bindings whose initializer derives a
/// stream (`root(…)`, `.stream(…)`, `.child(…)`, or a `Stream` path).
fn sanctioned_locals(model: &FileModel, f: &crate::model::FnItem) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    // Params: parse the signature's paren group like a braced body.
    let toks = &model.tokens;
    let sig_end = f.sig.end.min(toks.len());
    if let Some(open) = (f.sig.start..sig_end).find(|&i| toks[i].is_punct(b'(')) {
        let (params, _) = crate::model::parse_paren_entries(toks, open);
        for p in params {
            if p.ty.iter().any(|t| t == "Stream" || t == "SimRng") {
                set.insert(p.name);
            }
        }
    }
    // `let [mut] v = <expr containing a derivation>;`
    let Some(body) = f.body.clone() else {
        return set;
    };
    let end = body.end.min(toks.len());
    let mut i = body.start.min(end);
    while i < end {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < end && toks[j].is_ident("mut") {
            j += 1;
        }
        let Some(var) = toks.get(j).and_then(|t| t.ident()) else {
            i = j;
            continue;
        };
        // Scan the initializer to the statement's `;` at depth 0.
        let mut depth = 0i32;
        let mut derives = false;
        let mut k = j + 1;
        while k < end {
            match &toks[k].tok {
                Tok::Punct(b'{') | Tok::Punct(b'(') | Tok::Punct(b'[') => depth += 1,
                Tok::Punct(b'}') | Tok::Punct(b')') | Tok::Punct(b']') => depth -= 1,
                Tok::Punct(b';') if depth <= 0 => break,
                Tok::Ident(id) => {
                    let call = toks.get(k + 1).map(|t| t.is_punct(b'(')) == Some(true);
                    if (call && DERIVE_METHODS.contains(&id.as_str())) || id == "Stream" {
                        derives = true;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if derives {
            set.insert(var.to_string());
        }
        i = j + 1;
    }
    set
}

/// Every RNG draw inside engine code must go through a named stream:
/// a `Stream`/`SimRng`-typed field or param, a binding derived via
/// `root`/`stream`/`child`, or a direct derivation-call chain. Ad-hoc
/// draws shift every later draw on the tape and break the twin's
/// counted-draw replay.
fn rng_stream_discipline(files: &[SemFile<'_>], out: &mut Vec<Finding>) {
    let stream_fields = stream_field_names(files);
    for f in files {
        if !RNG_SCOPES.iter().any(|p| f.rel.starts_with(p)) {
            continue;
        }
        if matches!(f.kind, FileKind::Test | FileKind::Bench) {
            continue;
        }
        let toks = &f.model.tokens;
        for fun in &f.model.fns {
            let Some(body) = fun.body.clone() else {
                continue;
            };
            if f.in_test(fun.line) {
                continue;
            }
            let locals = sanctioned_locals(f.model, fun);
            let end = body.end.min(toks.len());
            for i in body.start.min(end)..end {
                let Some(m) = toks[i].ident() else { continue };
                if !DRAW_METHODS.contains(&m) {
                    continue;
                }
                if i == 0 || !toks[i - 1].is_punct(b'.') {
                    continue;
                }
                if toks.get(i + 1).map(|t| t.is_punct(b'(')) != Some(true) {
                    continue;
                }
                // `LinkId::index()` and friends: a *draw* `.index(len)`
                // always takes an argument.
                if m == "index" && toks.get(i + 2).map(|t| t.is_punct(b')')) == Some(true) {
                    continue;
                }
                if f.in_test(toks[i].line) {
                    continue;
                }
                let sanctioned = match resolve_recv(f.model, i - 1) {
                    Recv::Field(name) => stream_fields.contains(&name),
                    Recv::Local(name) => locals.contains(&name) || stream_fields.contains(&name),
                    Recv::Call(name) => DERIVE_METHODS.contains(&name.as_str()),
                    Recv::Opaque => false,
                };
                if !sanctioned {
                    out.push(Finding::new(
                        f.rel,
                        toks[i].line,
                        RNG_STREAM,
                        format!(
                            "RNG draw `.{m}(…)` on an unnamed stream; route it through a \
                             Stream field or a root()/stream()/child() derivation so the \
                             twin's counted-draw replay stays exact",
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------- //
// lock-order
// ---------------------------------------------------------------- //

/// A declared lock hierarchy: per path-prefix scope, the lock field
/// names in the order they must be acquired (outermost first).
#[derive(Debug, Default)]
pub struct LockHierarchy {
    pub scopes: Vec<(String, Vec<String>)>,
}

impl LockHierarchy {
    /// Parse the `lint-locks.txt` format: `[path/prefix]` section
    /// headers, one lock name per line, `#` comments.
    pub fn parse(text: &str) -> Result<LockHierarchy, String> {
        let mut scopes: Vec<(String, Vec<String>)> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(prefix) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                if prefix.is_empty() {
                    return Err(format!("lint-locks.txt:{}: empty scope", ln + 1));
                }
                scopes.push((prefix.to_string(), Vec::new()));
            } else if !line.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
                return Err(format!(
                    "lint-locks.txt:{}: lock name {line:?} is not an identifier",
                    ln + 1
                ));
            } else {
                let Some(scope) = scopes.last_mut() else {
                    return Err(format!(
                        "lint-locks.txt:{}: lock name before any [scope] header",
                        ln + 1
                    ));
                };
                if scope.1.iter().any(|l| l == line) {
                    return Err(format!(
                        "lint-locks.txt:{}: duplicate lock {line:?} in scope [{}]",
                        ln + 1,
                        scope.0
                    ));
                }
                scope.1.push(line.to_string());
            }
        }
        Ok(LockHierarchy { scopes })
    }

    /// The scope binding `rel`, longest prefix wins.
    fn scope_for(&self, rel: &str) -> Option<usize> {
        self.scopes
            .iter()
            .enumerate()
            .filter(|(_, (p, _))| rel.starts_with(p.as_str()))
            .max_by_key(|(_, (p, _))| p.len())
            .map(|(i, _)| i)
    }
}

/// A lock currently held during the token walk.
struct Held {
    lock: usize, // index into the scope's order
    var: Option<String>,
    depth: i32,
}

/// Token-flow scan of `serve`/`sweep` (whatever scopes the hierarchy
/// declares) for nested `.lock()` acquisitions that violate the
/// declared order, re-acquire a held lock, or call (transitively)
/// into a fn that would. Guard lifetimes are tracked heuristically:
/// `let`-bound guards live to end of scope or `drop(guard)`, bare
/// guards to end of statement (including an `if let` body).
fn lock_order(files: &[SemFile<'_>], hier: &LockHierarchy, out: &mut Vec<Finding>) {
    for (scope_idx, (_prefix, order)) in hier.scopes.iter().enumerate() {
        let in_scope: Vec<&SemFile<'_>> = files
            .iter()
            .filter(|f| {
                hier.scope_for(f.rel) == Some(scope_idx)
                    && !matches!(f.kind, FileKind::Test | FileKind::Bench)
            })
            .collect();
        if in_scope.is_empty() {
            continue;
        }
        let rank = |name: &str| order.iter().position(|l| l == name);
        // Fixpoint may-acquire summaries over the scope's call graph.
        let mut summary: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
        let mut calls: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for f in &in_scope {
            for fun in &f.model.fns {
                let Some(body) = fun.body.clone() else {
                    continue;
                };
                let entry = summary.entry(fun.name.as_str()).or_default();
                let toks = &f.model.tokens;
                let end = body.end.min(toks.len());
                for i in body.start.min(end)..end {
                    let Some(id) = toks[i].ident() else { continue };
                    let called = toks.get(i + 1).map(|t| t.is_punct(b'(')) == Some(true)
                        && !(i > 0 && toks[i - 1].is_ident("fn"));
                    if !called {
                        continue;
                    }
                    if id == "lock" && i > 0 && toks[i - 1].is_punct(b'.') {
                        if let Some(name) = recv_name(f.model, i - 1) {
                            if let Some(r) = rank(&name) {
                                entry.insert(r);
                            }
                        }
                    } else {
                        calls.entry(fun.name.as_str()).or_default().insert(id);
                    }
                }
            }
        }
        loop {
            let mut changed = false;
            for (f, callees) in &calls {
                let mut add: BTreeSet<usize> = BTreeSet::new();
                for c in callees {
                    if let Some(s) = summary.get(c) {
                        add.extend(s.iter().copied());
                    }
                }
                let entry = summary.entry(f).or_default();
                for r in add {
                    changed |= entry.insert(r);
                }
            }
            if !changed {
                break;
            }
        }
        // Intraprocedural walk with the held-set.
        for f in &in_scope {
            for fun in &f.model.fns {
                let Some(body) = fun.body.clone() else {
                    continue;
                };
                if f.in_test(fun.line) {
                    continue;
                }
                walk_fn(f, fun, &body, order, &rank, &summary, out);
            }
        }
    }
}

/// The receiver field name of a `.lock(` / method call at `dot`.
fn recv_name(model: &FileModel, dot: usize) -> Option<String> {
    match resolve_recv(model, dot) {
        Recv::Field(n) | Recv::Local(n) => Some(n),
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_fn(
    f: &SemFile<'_>,
    fun: &crate::model::FnItem,
    body: &std::ops::Range<usize>,
    order: &[String],
    rank: &dyn Fn(&str) -> Option<usize>,
    summary: &BTreeMap<&str, BTreeSet<usize>>,
    out: &mut Vec<Finding>,
) {
    let toks = &f.model.tokens;
    let end = body.end.min(toks.len());
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_let: Option<String> = None;
    let mut i = body.start.min(end);
    while i < end {
        let t = &toks[i];
        match &t.tok {
            Tok::Punct(b'{') | Tok::Punct(b'(') | Tok::Punct(b'[') => depth += 1,
            Tok::Punct(b'}') | Tok::Punct(b')') | Tok::Punct(b']') => {
                depth -= 1;
                // Scope end releases let-bound guards bound deeper;
                // returning to a transient guard's depth ends the
                // statement that acquired it (`if let … = m.lock()`).
                held.retain(|h| {
                    if h.var.is_some() {
                        h.depth <= depth
                    } else {
                        h.depth < depth
                    }
                });
            }
            Tok::Punct(b';') => {
                held.retain(|h| h.var.is_some() || h.depth != depth);
                stmt_let = None;
            }
            Tok::Ident(id) if id == "let" => {
                // `if let` / `while let` bind the guard to a pattern
                // whose temporary dies with the `if` statement — model
                // those as transient (released when the body closes).
                let conditional =
                    i > body.start && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
                if !conditional {
                    let mut j = i + 1;
                    if toks.get(j).map(|t| t.is_ident("mut")) == Some(true) {
                        j += 1;
                    }
                    stmt_let = toks.get(j).and_then(|t| t.ident()).map(str::to_string);
                }
            }
            Tok::Ident(id) => {
                let called = toks.get(i + 1).map(|t| t.is_punct(b'(')) == Some(true)
                    && !(i > 0 && toks[i - 1].is_ident("fn"));
                if !called {
                    i += 1;
                    continue;
                }
                let line = t.line;
                if id == "drop" {
                    if let Some(Tok::Ident(v)) = toks.get(i + 2).map(|t| &t.tok) {
                        if toks.get(i + 3).map(|t| t.is_punct(b')')) == Some(true) {
                            held.retain(|h| h.var.as_deref() != Some(v.as_str()));
                        }
                    }
                } else if id == "lock" && i > 0 && toks[i - 1].is_punct(b'.') {
                    // `let g = m.lock().unwrap();` binds the guard to
                    // `g` — but if the chain keeps going past
                    // unwrap/expect (`….lock().unwrap().pop_front()`)
                    // the guard is a temporary that dies with the
                    // statement, and the `let` binds the chain result.
                    let binds_guard = {
                        let mut k = i + 1; // at `(`
                        k = crate::model::close_delim(toks, k) + 1;
                        while toks.get(k).map(|t| t.is_punct(b'.')) == Some(true)
                            && toks
                                .get(k + 1)
                                .and_then(|t| t.ident())
                                .is_some_and(|m| m == "unwrap" || m == "expect")
                        {
                            k = crate::model::close_delim(toks, k + 2) + 1;
                        }
                        toks.get(k).map(|t| t.is_punct(b'.')) != Some(true)
                    };
                    if let Some(r) = recv_name(f.model, i - 1).and_then(|n| rank(&n)) {
                        if !f.in_test(line) {
                            for h in &held {
                                if h.lock == r {
                                    out.push(Finding::new(
                                        f.rel,
                                        line,
                                        LOCK_ORDER,
                                        format!(
                                            "`{}` acquired while `{}` is already held in `{}` — self-deadlock",
                                            order[r], order[h.lock], fun.name,
                                        ),
                                    ));
                                } else if r < h.lock {
                                    out.push(Finding::new(
                                        f.rel,
                                        line,
                                        LOCK_ORDER,
                                        format!(
                                            "`{}` acquired while holding `{}` in `{}` — violates the declared \
                                             order ({} before {})",
                                            order[r], order[h.lock], fun.name, order[r], order[h.lock],
                                        ),
                                    ));
                                }
                            }
                        }
                        held.push(Held {
                            lock: r,
                            var: if binds_guard { stmt_let.clone() } else { None },
                            depth,
                        });
                    }
                } else if !held.is_empty() && !f.in_test(line) {
                    if let Some(acq) = summary.get(id.as_str()) {
                        for &r in acq {
                            for h in &held {
                                if h.lock == r {
                                    out.push(Finding::new(
                                        f.rel,
                                        line,
                                        LOCK_ORDER,
                                        format!(
                                            "call to `{id}()` may re-acquire `{}` already held in `{}`",
                                            order[r], fun.name,
                                        ),
                                    ));
                                } else if r < h.lock {
                                    out.push(Finding::new(
                                        f.rel,
                                        line,
                                        LOCK_ORDER,
                                        format!(
                                            "call to `{id}()` may acquire `{}` while `{}` is held in `{}` — \
                                             violates the declared order",
                                            order[r], order[h.lock], fun.name,
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}
