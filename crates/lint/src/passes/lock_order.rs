//! Static lock-order analysis over the serve locks.
//!
//! The serve tier's deadlock-freedom argument is a total order on its
//! locks, declared once next to the lock fields by a
//! `lint: lock-order(hosts < recovery < engine < flight)` line comment
//! (see `crates/serve/src/host.rs`); a lock's rank is its position.
//! Because the order is total, a wait-for cycle between two threads
//! requires at least one thread to acquire downward (or re-acquire a
//! lock it holds), so flagging every non-ascending acquisition — direct
//! or through any call chain while a guard is live — is exactly the
//! cycle check on the lock-order graph, on every static path, including
//! branches no test runs.
//!
//! Liveness is tracked lexically per function:
//!
//! * a guard bound by `let` lives to the end of its block, an unbound
//!   (temporary) guard dies at the statement's `;`, and an `if let` /
//!   `while let` guard lives only inside the conditional's body. A `let`
//!   binds a guard only when the initializer's value is the guard (see
//!   [`is_let_value`]); a guard inside a call argument, behind `&*` or
//!   under a further method call is a temporary;
//! * `drop(x)`, or passing `x` by value into a call, ends the innermost
//!   binding named `x`. Inside a nested block (a branch that returns,
//!   say) it ends it only until that block closes: after the block the
//!   binding counts as live again;
//! * `cv.wait(x)` / `cv.wait_timeout(x, …)` releases `x` and hands it
//!   back re-acquired, bound to the `let` pattern receiving the result;
//! * a local whose type has an `impl Drop` (`let reset =
//!   FlightReset(self)`) runs that `drop` fn at `drop(reset)` and at its
//!   scope's close, checked like a call against the guards held there.
//!   Early exits (`return`, `?`) are not drop points here, and a
//!   function's summary does not include the drop glue of its locals.
//!
//! Functions whose return type mentions a `*Guard*` type and which
//! acquire a lock locally (e.g. `EngineHost::flight_lock`) hand that
//! rank to their caller's binding.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::callgraph::Graph;
use crate::lexer::{Token, TokenKind};
use crate::parser::{CallSite, Callee, ChainSeg, FnItem};
use crate::rules::{Rule, Violation};

use super::{own_segments, push_reached_site};

/// Per-function lock summary.
#[derive(Default, Clone)]
struct Summary {
    /// Ranks this fn (transitively) acquires, each with the call chain
    /// `(fn, line)`… ending at the acquiring fn's acquisition line.
    trans: BTreeMap<u32, Vec<(usize, u32)>>,
    /// The max rank of a *locally* acquired guard handed back to the
    /// caller through the return type (e.g. `flight_lock` → `flight`).
    ret_guard: Option<u32>,
}

/// Runs the pass: summaries by memoized DFS, then a liveness walk over
/// every non-test fn.
pub fn run(g: &Graph<'_>, out: &mut Vec<Violation>) {
    if g.lock_order.is_empty() {
        return; // the tree declares no lock order
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
        let walk = Walk {
            g,
            id,
            summaries: &summaries,
            out: &mut *out,
            depth: 0,
            locals: Vec::new(),
            lets: Vec::new(),
            reported: HashSet::new(),
        };
        walk.run();
    }
}

/// A direct acquisition at this call site, if any: `.lock()` /
/// `.read()` / `.write()` / `.try_read()` with no arguments on a field
/// the declared order names.
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
        Some(ChainSeg::Ident(field)) => g.lock_rank(field),
        _ => None,
    }
}

/// The `Drop::drop` fn a `let` at token `i` binds a value of: the first
/// identifier of its pattern, type annotation or initializer head
/// (`let reset = FlightReset(self)`, `let r: Reset = …`) naming a type
/// with drop glue.
fn let_glue(g: &Graph<'_>, tokens: &[Token], i: usize, end: usize) -> Option<usize> {
    let limit = end.min(i + 32);
    let eq = (i + 1..limit).find(|&k| tokens[k].is_punct('=') || tokens[k].is_punct(';'))?;
    if !tokens[eq].is_punct('=') {
        return None;
    }
    tokens[i + 1..=(eq + 1).min(limit - 1)]
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .find_map(|t| g.drop_glue(&t.text))
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

/// What a tracked local holds.
#[derive(Clone, Copy)]
enum Holds {
    /// A lock guard of `rank`, acquired at `line`.
    Guard { rank: u32, line: u32 },
    /// A value whose drop glue is this `Drop::drop` fn.
    Glue(usize),
}

/// A tracked local.
struct Local {
    holds: Holds,
    /// Names bound to it (`let g = …`); empty for temporaries.
    names: Vec<String>,
    /// Block depth it dies at the close of.
    depth: i32,
    /// `Some(d)` while it is moved out inside the nested block at depth
    /// `d`: the close of that block revives it.
    moved_at: Option<i32>,
}

impl Local {
    fn live_guard(&self) -> Option<(u32, u32)> {
        match (self.holds, self.moved_at) {
            (Holds::Guard { rank, line }, None) => Some((rank, line)),
            _ => None,
        }
    }
}

/// A pending `let` awaiting its initializer's value.
struct LetCtx {
    names: Vec<String>,
    depth: i32,
    /// `if let` / `while let`: the binding lives only in the body.
    cond: bool,
    /// Token index of the initializer's first token (`None` for a
    /// `let x;` declaration).
    init: Option<usize>,
}

impl LetCtx {
    /// The depth a value bound by this `let` dies at the close of.
    fn scope(&self) -> i32 {
        self.depth + i32::from(self.cond)
    }
}

const PATTERN_SKIP: [&str; 8] = ["mut", "ref", "box", "Ok", "Some", "Err", "None", "_"];

/// The liveness walk over one fn body.
struct Walk<'g, 'a> {
    g: &'g Graph<'a>,
    id: usize,
    summaries: &'g [Option<Summary>],
    out: &'g mut Vec<Violation>,
    depth: i32,
    locals: Vec<Local>,
    lets: Vec<LetCtx>,
    reported: HashSet<u32>,
}

impl<'g, 'a> Walk<'g, 'a> {
    fn run(mut self) {
        let g = self.g;
        let item: &FnItem = g.item(self.id);
        let view = &g.views[g.fns[self.id].file];
        let tokens = &view.lexed.tokens;
        let sites: HashMap<usize, &CallSite> = item.calls.iter().map(|c| (c.tok, c)).collect();
        for (seg_start, seg_end) in own_segments(view.index, item) {
            let mut i = seg_start;
            while i < seg_end {
                let tok = &tokens[i];
                if tok.is_punct('{') {
                    self.depth += 1;
                } else if tok.is_punct('}') {
                    self.close_block(tok.line);
                } else if tok.is_punct(';') {
                    let depth = self.depth;
                    self.lets.retain(|l| l.depth < depth);
                    self.locals
                        .retain(|l| !(l.names.is_empty() && l.depth == depth));
                } else if tok.is_ident("let") {
                    // The pattern binds names; none of them is a move.
                    i = self.open_let(tokens, i, seg_end);
                } else if tok.is_ident("drop")
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
                {
                    if let Some(name) = tokens.get(i + 2) {
                        self.end_binding(&name.text, Some(tok.line));
                    }
                } else if let Some(call) = sites.get(&i) {
                    if self.condvar_wait(call, tokens.get(i + 2), tokens.get(i + 3)) {
                        i += 2; // the guard argument is handled
                    } else {
                        self.call(call);
                    }
                } else if tok.kind == TokenKind::Ident
                    && i > 0
                    && (tokens[i - 1].is_punct('(') || tokens[i - 1].is_punct(','))
                    && tokens
                        .get(i + 1)
                        .is_some_and(|t| t.is_punct(')') || t.is_punct(','))
                {
                    // A local passed by value into a call (`Ok(guard)`,
                    // `consume(guard)`) leaves this scope.
                    self.end_binding(&tok.text, None);
                }
                i += 1;
            }
        }
    }

    /// The index of the innermost live local bound to `name`.
    fn binding(&self, name: &str) -> Option<usize> {
        self.locals
            .iter()
            .rposition(|l| l.moved_at.is_none() && l.names.iter().any(|n| n == name))
    }

    /// The highest-ranked live guard, as `(rank, acquisition line)`.
    fn held(&self) -> Option<(u32, u32)> {
        self.locals.iter().filter_map(Local::live_guard).max()
    }

    /// Opens a pending `let` at token `i`; returns the index of its
    /// pattern's last token.
    fn open_let(&mut self, tokens: &[Token], i: usize, end: usize) -> usize {
        let cond = i > 0 && (tokens[i - 1].is_ident("if") || tokens[i - 1].is_ident("while"));
        let pattern: Vec<&Token> = tokens[i + 1..end.min(i + 32)]
            .iter()
            .take_while(|t| !(t.is_punct('=') || t.is_punct(';') || t.is_punct('{')))
            .collect();
        let names: Vec<String> = pattern
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && !PATTERN_SKIP.contains(&t.text.as_str()))
            .map(|t| t.text.clone())
            .collect();
        let after = i + 1 + pattern.len();
        let ctx = LetCtx {
            names,
            depth: self.depth,
            cond,
            init: tokens
                .get(after)
                .filter(|t| t.is_punct('='))
                .map(|_| after + 1),
        };
        if let Some(drop_fn) = let_glue(self.g, tokens, i, end) {
            self.locals.push(Local {
                holds: Holds::Glue(drop_fn),
                names: ctx.names.clone(),
                depth: ctx.scope(),
                moved_at: None,
            });
        }
        self.lets.push(ctx);
        i + pattern.len()
    }

    /// Ends the innermost live binding named `name`: for good at its
    /// own depth, until the current block closes inside a nested one.
    /// `drop_line` is set for an explicit `drop(name)`, which runs the
    /// local's drop glue there.
    fn end_binding(&mut self, name: &str, drop_line: Option<u32>) {
        let Some(pos) = self.binding(name) else {
            return;
        };
        if let (Holds::Glue(drop_fn), Some(line)) = (self.locals[pos].holds, drop_line) {
            self.check_reached(drop_fn, line, self.held(), "drop glue ");
        }
        if self.locals[pos].depth == self.depth {
            self.locals.remove(pos);
        } else {
            self.locals[pos].moved_at = Some(self.depth);
        }
    }

    /// The close of the block at the current depth: its locals drop in
    /// reverse declaration order (drop glue runs against whatever is
    /// still held), and bindings moved out inside it revive.
    fn close_block(&mut self, line: u32) {
        let depth = self.depth;
        while let Some(pos) = self.locals.iter().rposition(|l| l.depth >= depth) {
            let local = self.locals.remove(pos);
            if let (Holds::Glue(drop_fn), None) = (local.holds, local.moved_at) {
                self.check_reached(drop_fn, line, self.held(), "drop glue ");
            }
        }
        for local in &mut self.locals {
            if local.moved_at == Some(depth) {
                local.moved_at = None;
            }
        }
        self.lets.retain(|l| l.depth < depth);
        self.depth -= 1;
    }

    /// `cv.wait(guard)` / `cv.wait_timeout(guard, …)` on a live guard:
    /// the wait releases and re-acquires it (checked against anything
    /// else still held), and the `let` receiving the result re-binds it.
    /// Without a `let` at this depth (`guard = cv.wait(guard)?`) the
    /// guard stays bound where it was. Returns `false` when `call` is
    /// not such a wait.
    fn condvar_wait(
        &mut self,
        call: &CallSite,
        arg: Option<&Token>,
        after: Option<&Token>,
    ) -> bool {
        let Callee::Method { name, .. } = &call.callee else {
            return false;
        };
        let (Some(arg), Some(after)) = (arg, after) else {
            return false;
        };
        if !matches!(name.as_str(), "wait" | "wait_timeout")
            || !(after.is_punct(',') || after.is_punct(')'))
        {
            return false;
        }
        let Some(pos) = self.binding(&arg.text) else {
            return false;
        };
        let Holds::Guard { rank, .. } = self.locals[pos].holds else {
            return false;
        };
        let Some(ctx) = self.lets.last().filter(|l| l.depth == self.depth) else {
            return true;
        };
        let (names, scope) = (ctx.names.clone(), ctx.scope());
        self.end_binding(&arg.text, None);
        self.acquire(rank, call.line);
        self.locals.push(Local {
            holds: Holds::Guard {
                rank,
                line: call.line,
            },
            names,
            depth: scope,
            moved_at: None,
        });
        true
    }

    /// Checks a direct acquisition of `rank` at `line` against the
    /// guards held there. Re-acquiring the held lock is illegal too:
    /// self-deadlock on a non-reentrant lock.
    fn acquire(&mut self, rank: u32, line: u32) {
        if let Some(held) = self.held().filter(|&(h_rank, _)| h_rank >= rank) {
            if self.reported.insert(line) {
                self.report("", rank, held, (self.id, line), &[]);
            }
        }
    }

    fn call(&mut self, call: &CallSite) {
        if let Some(rank) = direct_acquisition(self.g, &call.callee, call.empty_args) {
            self.acquire(rank, call.line);
            self.bind_guard(rank, call);
            return;
        }
        let held = self.held();
        let mut bound = false;
        for callee_id in self.g.resolve(self.id, &call.callee) {
            let Some(summary) = &self.summaries[callee_id] else {
                continue;
            };
            self.check_reached(callee_id, call.line, held, "call chain ");
            if !bound {
                if let (true, Some(rank)) =
                    (self.g.item(callee_id).ret_mentions_guard, summary.ret_guard)
                {
                    self.bind_guard(rank, call);
                    bound = true;
                }
            }
        }
    }

    /// Reports the lowest rank `callee_id` (transitively) acquires at or
    /// below `held`, reached from `line` — a call, or drop glue run
    /// there.
    fn check_reached(&mut self, callee_id: usize, line: u32, held: Option<(u32, u32)>, what: &str) {
        let Some(held) = held else {
            return;
        };
        let Some(summary) = &self.summaries[callee_id] else {
            return;
        };
        let Some((&rank, chain)) = summary.trans.range(..=held.0).next() else {
            return;
        };
        if !self.reported.insert(line) {
            return;
        }
        let mut path: Vec<(usize, u32)> = vec![(self.id, line)];
        path.extend(chain.iter().take(chain.len().saturating_sub(1)));
        let site = *chain.last().unwrap_or(&(callee_id, line));
        self.report(what, rank, held, site, &path);
    }

    /// Reports acquiring `rank` at `site` while `held` (rank, line) is
    /// live, reached through `path`.
    fn report(
        &mut self,
        what: &str,
        rank: u32,
        held: (u32, u32),
        site: (usize, u32),
        path: &[(usize, u32)],
    ) {
        let order = &self.g.lock_order;
        let name = |r: u32| order.get(r as usize).map_or("?", String::as_str);
        let message = format!(
            "{what}acquires `{}` while holding `{}` (acquired at line {}); locks must be \
             taken in the declared order ({})",
            name(rank),
            name(held.0),
            held.1,
            order.join(" < ")
        );
        push_reached_site(
            self.g,
            Rule::LockOrder,
            message,
            site.0,
            site.1,
            path,
            self.out,
        );
    }

    /// Binds the guard `call` acquires: to the innermost pending `let`
    /// when the guard is its initializer's value (at the conditional's
    /// body depth for `if let`/`while let`), otherwise as an unnamed
    /// temporary that dies at the statement end.
    fn bind_guard(&mut self, rank: u32, call: &CallSite) {
        let g = self.g;
        let tokens = &g.views[g.fns[self.id].file].lexed.tokens;
        let value_of = |l: &&LetCtx| l.init.is_some_and(|i| is_let_value(tokens, i, call.tok));
        let (names, depth) = match self.lets.last().filter(value_of) {
            Some(l) => (l.names.clone(), l.scope()),
            None => (Vec::new(), self.depth),
        };
        self.locals.push(Local {
            holds: Holds::Guard {
                rank,
                line: call.line,
            },
            names,
            depth,
            moved_at: None,
        });
    }
}

/// Whether the call named at token `tok` yields the value of the `let`
/// initializer starting at token `init`, so the `let` binds its guard.
///
/// The call must end a plain receiver path — after an optional `&` (a
/// borrow extends the temporary's life to the binding's) or `match` —
/// and only `?`, `.unwrap()`, `.expect(…)` and `.map_err(…)` may follow
/// it, up to the statement's end (`;`, an `if let` body's `{`, or a
/// `let … else`). Under `match`, the arms must be the poison recovery
/// `{ Ok(g) => g, Err(p) => p.into_inner() }`. Any other guard in the
/// initializer is a temporary: inside a call argument, behind `&*`, or
/// under a further method call.
fn is_let_value(tokens: &[Token], init: usize, tok: usize) -> bool {
    let Some(first) = tokens.get(init) else {
        return false;
    };
    let scrutinee = first.is_ident("match");
    let mut head = init;
    if scrutinee {
        head += 1;
    } else if first.is_punct('&') && !tokens.get(init + 1).is_some_and(|t| t.is_punct('*')) {
        head += 1 + usize::from(tokens.get(init + 1).is_some_and(|t| t.is_ident("mut")));
    }
    let mut nesting = 0i32;
    for t in tokens.get(head..tok).unwrap_or_default() {
        if t.is_punct('(') || t.is_punct('[') {
            nesting += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nesting -= 1;
        } else if nesting == 0
            && !(t.kind == TokenKind::Ident || t.is_punct('.') || t.is_punct(':'))
        {
            return false;
        }
    }
    if nesting != 0 {
        return false; // the call sits inside an argument list or group
    }
    let Some(mut k) = past_parens(tokens, tok + 1) else {
        return false;
    };
    loop {
        if tokens.get(k).is_some_and(|t| t.is_punct('?')) {
            k += 1;
            continue;
        }
        let wrapper = tokens.get(k).is_some_and(|t| t.is_punct('.'))
            && tokens
                .get(k + 1)
                .is_some_and(|t| matches!(t.text.as_str(), "unwrap" | "expect" | "map_err"));
        match past_parens(tokens, k + 2) {
            Some(next) if wrapper => k = next,
            _ => break,
        }
    }
    let Some(end) = tokens.get(k) else {
        return false;
    };
    if scrutinee {
        return end.is_punct('{') && poison_arms(tokens.get(k + 1..).unwrap_or_default());
    }
    end.is_punct(';') || end.is_punct('{') || end.is_ident("else")
}

/// The index just past the parenthesized group opening at `open`, or
/// `None` when no `(` opens there or it never closes.
fn past_parens(tokens: &[Token], open: usize) -> Option<usize> {
    if !tokens.get(open)?.is_punct('(') {
        return None;
    }
    let mut nesting = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            nesting += 1;
        } else if t.is_punct(')') {
            nesting -= 1;
            if nesting == 0 {
                return Some(k + 1);
            }
        }
    }
    None
}

/// Whether `arms` open with `Ok(g) => g, Err(p) => p.into_inner()`: a
/// match that hands back the guard, poisoned or not.
fn poison_arms(arms: &[Token]) -> bool {
    let text: Vec<&str> = arms.iter().take(19).map(|t| t.text.as_str()).collect();
    text.len() == 19
        && text[..2] == ["Ok", "("]
        && text[3..6] == [")", "=", ">"]
        && text[6] == text[2]
        && text[7..10] == [",", "Err", "("]
        && text[11..14] == [")", "=", ">"]
        && text[14] == text[10]
        && text[15..] == [".", "into_inner", "(", ")"]
}

#[cfg(test)]
mod tests {
    use super::is_let_value;
    use crate::lexer::lex;

    /// Whether `let x = {init}` binds the guard of its `read()` call.
    fn binds(init: &str) -> bool {
        let tokens = lex(&format!("let x = {init}")).tokens;
        let call = tokens.iter().position(|t| t.is_ident("read")).unwrap();
        is_let_value(&tokens, 3, call)
    }

    #[test]
    fn a_let_binds_only_the_guard_its_initializer_yields() {
        for init in [
            "self.engine.read();",
            "self.read()?;",
            "self.engine.read().unwrap();",
            "self.engine.read().expect(\"engine lock\");",
            "self.engine.read().map_err(HostError::from)?;",
            "match self.engine.read() { Ok(g) => g, Err(p) => p.into_inner(), };",
            "self.engine.read() else { return; };",
            "self.engine.read() { drop(x); }",
            "&self.engine.read().unwrap();",
        ] {
            assert!(binds(init), "{init}");
        }
        for init in [
            "measure(&*self.engine.read()?);",
            "&*self.engine.read().unwrap();",
            "self.engine.read()?.len();",
            "match self.engine.read() { Ok(g) => g.len(), Err(_) => 0, };",
            "(self.engine.read(), 1);",
        ] {
            assert!(!binds(init), "{init}");
        }
    }
}
