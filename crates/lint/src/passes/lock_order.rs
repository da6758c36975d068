//! Static lock-order analysis over the ranked serve locks.
//!
//! The serve tier's deadlock-freedom argument is a total order on its
//! locks (`registry 10 < recovery 15 < engine 20 < flight 30`, see
//! `crates/serve/src/lockrank.rs`); the runtime witness panics in debug
//! builds when a thread acquires a rank at or below one it already
//! holds. This pass proves the same property *statically, on every
//! path*: because the ranks are totally ordered, a wait-for cycle
//! between two threads requires at least one thread to acquire
//! rank-descending (or rank-equal), so flagging every non-ascending
//! acquisition — direct or through any call chain while a guard is
//! live — is exactly the cycle check on the lock-order graph.
//!
//! Guard liveness is tracked lexically per function: a guard bound by
//! `let` lives to the end of its block (or an explicit `drop(…)` /
//! move into a call like `Condvar::wait_timeout`); an unbound
//! (temporary) guard dies at the statement's `;`; an `if let`/`while
//! let` guard lives only inside the conditional's body. Functions whose
//! return type mentions a `*Guard*` type and which acquire a ranked
//! lock locally (e.g. `EngineHost::flight_lock`) hand that rank to
//! their caller's binding. Acquisitions made by drop glue
//! (`impl Drop`) are analyzed as their own functions but not attached
//! to scope exits.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::callgraph::Graph;
use crate::lexer::TokenKind;
use crate::parser::{Callee, ChainSeg, FnItem};
use crate::rules::{Rule, Violation};

use super::{own_segments, push_reached_site};

/// Per-function lock summary.
#[derive(Default, Clone)]
struct Summary {
    /// Ranks this fn (transitively) acquires, each with the call chain
    /// `(fn, line)`… ending at the acquiring fn's acquisition line.
    trans: BTreeMap<u32, Vec<(usize, u32)>>,
    /// The max rank of a *locally* acquired guard handed back to the
    /// caller through the return type (e.g. `flight_lock` → 30).
    ret_guard: Option<u32>,
}

/// Runs the pass: summaries by memoized DFS, then a guard-liveness walk
/// over every non-test fn.
pub fn run(g: &Graph<'_>, out: &mut Vec<Violation>) {
    if g.field_ranks.is_empty() {
        return; // tree has no ranked locks (fixture trees)
    }
    let mut summaries: Vec<Option<Summary>> = vec![None; g.fns.len()];
    for id in 0..g.fns.len() {
        let mut visiting = HashSet::new();
        summarize(g, id, &mut summaries, &mut visiting);
    }
    for id in 0..g.fns.len() {
        if g.is_test(id) {
            continue;
        }
        walk_fn(g, id, &summaries, out);
    }
}

/// A direct ranked acquisition at this call site, if any: `.lock()` /
/// `.read()` / `.write()` / `.try_read()` with no arguments on a ranked
/// field.
fn direct_acquisition(g: &Graph<'_>, callee: &Callee, empty_args: bool) -> Option<u32> {
    if !empty_args {
        return None;
    }
    let Callee::Method { name, recv } = callee else {
        return None;
    };
    if !matches!(name.as_str(), "lock" | "read" | "write" | "try_read") {
        return None;
    }
    match recv.last() {
        Some(ChainSeg::Ident(field)) => g.field_ranks.get(field).copied(),
        _ => None,
    }
}

fn summarize(
    g: &Graph<'_>,
    id: usize,
    summaries: &mut Vec<Option<Summary>>,
    visiting: &mut HashSet<usize>,
) -> Summary {
    if let Some(s) = &summaries[id] {
        return s.clone();
    }
    if !visiting.insert(id) {
        return Summary::default(); // recursion: the cycle edge adds nothing
    }
    let item = g.item(id);
    let mut s = Summary::default();
    let mut local_max = None;
    for call in &item.calls {
        if let Some(rank) = direct_acquisition(g, &call.callee, call.empty_args) {
            s.trans.entry(rank).or_insert_with(|| vec![(id, call.line)]);
            local_max = Some(local_max.map_or(rank, |m: u32| m.max(rank)));
            continue;
        }
        for callee_id in g.resolve(id, &call.callee) {
            if g.is_test(callee_id) {
                continue;
            }
            let callee_summary = summarize(g, callee_id, summaries, visiting);
            for (rank, chain) in &callee_summary.trans {
                s.trans.entry(*rank).or_insert_with(|| {
                    let mut c = vec![(id, call.line)];
                    c.extend(chain.iter().copied());
                    c
                });
            }
        }
    }
    if item.ret_mentions_guard {
        s.ret_guard = local_max;
    }
    visiting.remove(&id);
    summaries[id] = Some(s.clone());
    s
}

/// A live guard.
struct Guard {
    order: u32,
    acq_line: u32,
    /// Names bound to it (`let g = …`); empty for temporaries.
    names: Vec<String>,
    /// Block depth it dies at the close of.
    depth: i32,
}

/// A pending `let` awaiting its initializer's value.
struct LetCtx {
    names: Vec<String>,
    depth: i32,
    /// `if let` / `while let`: the binding lives only in the body.
    cond: bool,
}

const PATTERN_SKIP: [&str; 8] = ["mut", "ref", "box", "Ok", "Some", "Err", "None", "_"];

fn walk_fn(g: &Graph<'_>, id: usize, summaries: &[Option<Summary>], out: &mut Vec<Violation>) {
    let item: &FnItem = g.item(id);
    if item.body.is_none() {
        return;
    }
    let file_i = g.fns[id].file;
    let view = &g.views[file_i];
    let tokens = &view.lexed.tokens;
    let sites: HashMap<usize, &crate::parser::CallSite> =
        item.calls.iter().map(|c| (c.tok, c)).collect();
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    let mut lets: Vec<LetCtx> = Vec::new();
    let mut reported: HashSet<u32> = HashSet::new();
    for (seg_start, seg_end) in own_segments(view.index, item) {
        let mut i = seg_start;
        while i < seg_end {
            let tok = &tokens[i];
            if tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct('}') {
                guards.retain(|gd| gd.depth < depth);
                lets.retain(|l| l.depth < depth);
                depth -= 1;
            } else if tok.is_punct(';') {
                lets.retain(|l| l.depth < depth);
                guards.retain(|gd| !(gd.names.is_empty() && gd.depth == depth));
            } else if tok.kind == TokenKind::Ident {
                match tok.text.as_str() {
                    "let" => {
                        let cond = i > 0
                            && (tokens[i - 1].is_ident("if") || tokens[i - 1].is_ident("while"));
                        let mut names = Vec::new();
                        let limit = seg_end.min(i + 32);
                        for t in &tokens[i + 1..limit] {
                            if t.is_punct('=') || t.is_punct(';') || t.is_punct('{') {
                                break;
                            }
                            if t.kind == TokenKind::Ident
                                && !PATTERN_SKIP.contains(&t.text.as_str())
                            {
                                names.push(t.text.clone());
                            }
                        }
                        lets.push(LetCtx { names, depth, cond });
                    }
                    "drop"
                        if tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')')) =>
                    {
                        if let Some(name) = tokens.get(i + 2) {
                            guards.retain(|gd| !gd.names.contains(&name.text));
                        }
                    }
                    _ => {
                        if let Some(call) = sites.get(&i) {
                            handle_call(
                                g,
                                id,
                                call,
                                summaries,
                                &mut guards,
                                &lets,
                                depth,
                                &mut reported,
                                out,
                            );
                        } else if i > 0
                            && (tokens[i - 1].is_punct('(') || tokens[i - 1].is_punct(','))
                            && tokens
                                .get(i + 1)
                                .is_some_and(|t| t.is_punct(')') || t.is_punct(','))
                        {
                            // A live guard passed by value into a call
                            // (`wait_timeout(flight, …)`, `Ok(guard)`)
                            // leaves this scope.
                            guards.retain(|gd| !gd.names.contains(&tok.text));
                        }
                    }
                }
            }
            i += 1;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_call(
    g: &Graph<'_>,
    id: usize,
    call: &crate::parser::CallSite,
    summaries: &[Option<Summary>],
    guards: &mut Vec<Guard>,
    lets: &[LetCtx],
    depth: i32,
    reported: &mut HashSet<u32>,
    out: &mut Vec<Violation>,
) {
    let held: Option<(u32, u32)> = guards
        .iter()
        .max_by_key(|gd| gd.order)
        .map(|gd| (gd.order, gd.acq_line));
    if let Some(rank) = direct_acquisition(g, &call.callee, call.empty_args) {
        if let Some((h_order, h_line)) = held {
            // Same-rank reacquisition is also illegal (self-deadlock on
            // a non-reentrant lock; mirrors the runtime witness's
            // `top.order >= rank.order`).
            if h_order >= rank && reported.insert(call.line) {
                push_reached_site(
                    g,
                    Rule::LockOrder,
                    format!(
                        "acquires rank {rank} while already holding rank {h_order} (acquired \
                         at line {h_line}); ranked locks must be taken in strictly ascending \
                         order (registry < recovery < engine < flight)"
                    ),
                    id,
                    call.line,
                    &[],
                    out,
                );
            }
        }
        bind_guard(guards, lets, depth, rank, call.line);
        return;
    }
    let mut bound = false;
    for callee_id in g.resolve(id, &call.callee) {
        let Some(summary) = &summaries[callee_id] else {
            continue;
        };
        if let Some((h_order, h_line)) = held {
            for (&rank, chain) in &summary.trans {
                if rank <= h_order && reported.insert(call.line) {
                    let mut path: Vec<(usize, u32)> = vec![(id, call.line)];
                    path.extend(chain.iter().take(chain.len().saturating_sub(1)));
                    let (site_fn, site_line) = *chain.last().unwrap_or(&(callee_id, call.line));
                    push_reached_site(
                        g,
                        Rule::LockOrder,
                        format!(
                            "call chain acquires rank {rank} while the caller holds rank \
                             {h_order} (acquired at line {h_line}); ranked locks must be \
                             taken in strictly ascending order"
                        ),
                        site_fn,
                        site_line,
                        &path,
                        out,
                    );
                }
            }
        }
        if !bound {
            if let (true, Some(rank)) = (g.item(callee_id).ret_mentions_guard, summary.ret_guard) {
                bind_guard(guards, lets, depth, rank, call.line);
                bound = true;
            }
        }
    }
}

/// Binds a fresh guard: to the innermost pending `let` if one is open
/// (at the conditional's body depth for `if let`/`while let`),
/// otherwise as an unnamed temporary that dies at the statement end.
fn bind_guard(guards: &mut Vec<Guard>, lets: &[LetCtx], depth: i32, order: u32, acq_line: u32) {
    match lets.last() {
        Some(l) => guards.push(Guard {
            order,
            acq_line,
            names: l.names.clone(),
            depth: l.depth + i32::from(l.cond),
        }),
        None => guards.push(Guard {
            order,
            acq_line,
            names: Vec::new(),
            depth,
        }),
    }
}
