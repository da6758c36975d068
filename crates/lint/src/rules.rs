//! The project-invariant rule passes.
//!
//! Each rule walks the token stream of one file (see [`crate::lexer`])
//! with the file's workspace-relative path deciding which rules apply.
//! Test code — files under `tests/` or `benches/`, and `#[cfg(test)]` /
//! `#[test]` items inside `src` files — is exempt from the behavioural
//! rules (determinism, panic-freedom, concurrency) but **not** from the
//! unsafe audit: a SAFETY justification is owed everywhere.

use std::fmt;

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};

/// The rule a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Search-state modules must hash deterministically and never read
    /// ambient time or randomness.
    Determinism,
    /// Request-path code in `crates/serve` must not panic without an
    /// annotated justification.
    PanicFreedom,
    /// Every `unsafe` needs an adjacent `// SAFETY:` comment.
    UnsafeAudit,
    /// Threads are spawned only by `par::WorkerPool` and the serve
    /// accept loop.
    Concurrency,
    /// Snapshot-path writes must go through the durable-write helper
    /// (no bare `fs::write` / `File::create`), so every published file
    /// is fsynced and keeps its `.bak` sibling.
    Persistence,
    /// Metric increment-path code stays lock- and allocation-free
    /// (request threads bump counters on every request), and every
    /// counter/histogram registration names a snake_case metric with a
    /// unit suffix.
    Obs,
    /// Interprocedural: ranked serve locks are only ever acquired in
    /// ascending rank order, on every static call path (the compile-time
    /// twin of the runtime lock-rank witness).
    LockOrder,
    /// Interprocedural: no panic site (`unwrap`/`expect`/`panic!`/…) is
    /// reachable from the serve request path through any call chain,
    /// including helpers in other crates.
    PanicPath,
    /// Interprocedural: nothing reachable from the metric increment
    /// path locks, allocates, or does I/O.
    ObsPurity,
    /// Interprocedural: no ambient time/randomness source is reachable
    /// from the deterministic search-state modules through any call
    /// chain.
    DeterminismTaint,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 10] = [
    Rule::Determinism,
    Rule::PanicFreedom,
    Rule::UnsafeAudit,
    Rule::Concurrency,
    Rule::Persistence,
    Rule::Obs,
    Rule::LockOrder,
    Rule::PanicPath,
    Rule::ObsPurity,
    Rule::DeterminismTaint,
];

impl Rule {
    /// The short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicFreedom => "panic",
            Rule::UnsafeAudit => "unsafe",
            Rule::Concurrency => "threads",
            Rule::Persistence => "persistence",
            Rule::Obs => "obs",
            Rule::LockOrder => "lock_order",
            Rule::PanicPath => "panic_path",
            Rule::ObsPurity => "obs_purity",
            Rule::DeterminismTaint => "determinism_taint",
        }
    }

    /// The key accepted by `// lint: allow(<key>) <reason>`.
    /// [`Rule::UnsafeAudit`] has no allow-key: the escape hatch *is* the
    /// `// SAFETY:` comment the rule demands.
    ///
    /// The interprocedural passes share their per-file counterpart's key
    /// (`panic_path` honours `allow(panic)`, and so on): a site vetted
    /// for direct use is vetted however it is reached.
    pub(crate) fn allow_key(self) -> Option<&'static str> {
        match self {
            Rule::Determinism | Rule::DeterminismTaint => Some("determinism"),
            Rule::PanicFreedom | Rule::PanicPath => Some("panic"),
            Rule::Concurrency => Some("threads"),
            Rule::Persistence => Some("persistence"),
            Rule::Obs | Rule::ObsPurity => Some("obs"),
            Rule::LockOrder => Some("lock_order"),
            Rule::UnsafeAudit => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One step of an interprocedural call chain, outermost first: the
/// function the step executes in and the line of the call (or, for the
/// last frame, the offending site itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line of the call / site inside `function`.
    pub line: u32,
    /// The enclosing function's name.
    pub function: String,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// What went wrong, with the fix spelled out.
    pub message: String,
    /// For interprocedural findings: the call chain from the analysis
    /// root to the site, outermost first. Empty for per-file findings.
    pub frames: Vec<Frame>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        for frame in &self.frames {
            write!(
                f,
                "\n    via {}:{} in `{}`",
                frame.file, frame.line, frame.function
            )?;
        }
        Ok(())
    }
}

/// The interprocedural passes need the same module lists.
pub(crate) const fn determinism_modules() -> [&'static str; 6] {
    DETERMINISM_MODULES
}

/// See [`determinism_modules`].
pub(crate) const fn obs_increment_modules() -> [&'static str; 2] {
    OBS_INCREMENT_MODULES
}

/// Scans the balanced `<…>` starting at `open` (which holds `<`) and
/// reports whether any identifier inside names an FNV hasher. Shared
/// between the per-file determinism rule and the interprocedural taint
/// pass.
pub(crate) fn generic_args_name_fnv(tokens: &[Token], open: usize) -> bool {
    let mut depth = 0i32;
    let mut saw_fnv = false;
    // Bounded scan: a `<` that is really a comparison never closes,
    // and we must not walk the rest of the file.
    for j in open..tokens.len().min(open + 256) {
        let t = &tokens[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            // `->` in fn-pointer types does not close a bracket.
            if j > 0 && tokens[j - 1].is_punct('-') {
                continue;
            }
            depth -= 1;
            if depth == 0 {
                return saw_fnv;
            }
        } else if t.kind == TokenKind::Ident && t.text.starts_with("Fnv") {
            saw_fnv = true;
        }
    }
    // Unclosed: treat as "not a generic application" (comparison
    // expression) rather than a violation.
    true
}

/// The `mvq_core` modules that hold reproducible search state: the
/// engine's level tables, both meet-in-the-middle frontiers, the
/// sharded parallel expansion, the `seen` maps, the census, and the
/// snapshot codec.
/// Bit-identical state at every thread count is the repo's headline
/// claim, so these modules may not hash nondeterministically nor read
/// ambient time/randomness.
const DETERMINISM_MODULES: [&str; 6] = [
    "crates/core/src/engine.rs",
    "crates/core/src/mitm.rs",
    "crates/core/src/par.rs",
    "crates/core/src/seen.rs",
    "crates/core/src/census.rs",
    "crates/core/src/snapshot.rs",
];

/// Files allowed to call `thread::spawn` / `thread::scope`: the worker
/// pool that everything else must route through, and the serve accept
/// loop (connection handlers are not expansion work).
const THREAD_ALLOWLIST: [&str; 2] = ["crates/core/src/par.rs", "crates/serve/src/server.rs"];

/// Modules that publish files other processes load back (the snapshot
/// codec). Every write there must go through the durable-write helper —
/// a bare `fs::write` / `File::create` can publish a torn file and has
/// no `.bak` rotation.
const PERSISTENCE_MODULES: [&str; 1] = ["crates/core/src/snapshot.rs"];

/// The `mvq_obs` modules holding the metric increment path (counter
/// bumps, histogram records, probe callbacks). Request threads hit
/// these on every request, so they must stay lock-free and
/// allocation-free: atomics only.
const OBS_INCREMENT_MODULES: [&str; 2] = ["crates/obs/src/metrics.rs", "crates/obs/src/probe.rs"];

/// Registration methods whose first argument is a metric name, paired
/// with whether the naming contract demands a unit suffix (gauges are
/// instantaneous readings, so they carry none).
const REGISTRATION_METHODS: [(&str, bool); 4] = [
    ("counter", true),
    ("counter_fn", true),
    ("histogram", true),
    ("gauge", false),
];

/// The unit suffixes the metric naming contract accepts.
const UNIT_SUFFIXES: [&str; 3] = ["_us", "_bytes", "_total"];

/// How far above an `unsafe` token a `// SAFETY:` comment may end and
/// still count as adjacent (attributes and a multi-line justification
/// fit; a stale comment three screens up does not).
const SAFETY_WINDOW: u32 = 8;

/// Which rules apply to a file, derived from its workspace-relative
/// path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FileClass {
    /// Whole file is test/bench code.
    pub(crate) test_class: bool,
    determinism: bool,
    panic_free: bool,
    thread_allowed: bool,
    persistence: bool,
    obs_increment: bool,
}

impl FileClass {
    pub(crate) fn of(rel: &str) -> Self {
        let test_class = rel
            .split('/')
            .any(|part| part == "tests" || part == "benches");
        Self {
            test_class,
            determinism: DETERMINISM_MODULES.contains(&rel),
            panic_free: rel.starts_with("crates/serve/src/"),
            thread_allowed: test_class || THREAD_ALLOWLIST.contains(&rel),
            persistence: PERSISTENCE_MODULES.contains(&rel),
            obs_increment: OBS_INCREMENT_MODULES.contains(&rel),
        }
    }
}

/// Lints one source file. `rel` is the workspace-relative path with
/// forward slashes (it selects the applicable rules).
pub fn check_source(rel: &str, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    check_lexed(rel, source, &lexed)
}

/// The per-file rule passes over an already-lexed file (the parse cache
/// lexes once and shares the result with the interprocedural passes).
pub(crate) fn check_lexed(rel: &str, source: &str, lexed: &Lexed) -> Vec<Violation> {
    let class = FileClass::of(rel);
    let allows = Allows::parse(&lexed.comments);
    let file = FileCheck {
        rel,
        class,
        test_spans: find_test_spans(&lexed.tokens),
        allows: &allows,
        lexed,
        violations: Vec::new(),
    };
    let mut violations = file.run();
    if !class.test_class {
        scan_metric_names(rel, source, &allows, &mut violations);
    }
    violations
}

/// Parsed `// lint: allow(<key>) <reason>` annotations, by line.
pub(crate) struct Allows {
    /// `(line the comment ends on, key, reason_present)`.
    entries: Vec<(u32, String, bool)>,
}

impl Allows {
    pub(crate) fn parse(comments: &[Comment]) -> Self {
        let entries = comments
            .iter()
            .filter_map(|c| {
                let rest = c.text.strip_prefix("lint:")?.trim_start();
                let rest = rest.strip_prefix("allow(")?;
                let (key, reason) = rest.split_once(')')?;
                Some((
                    c.end_line,
                    key.trim().to_string(),
                    !reason.trim().is_empty(),
                ))
            })
            .collect();
        Self { entries }
    }

    /// Whether `line` (or the line above it) carries `allow(key)`.
    /// Returns `Some(reason_present)` so the caller can reject a
    /// reason-less annotation.
    pub(crate) fn lookup(&self, line: u32, key: &str) -> Option<bool> {
        self.entries
            .iter()
            .find(|(l, k, _)| (*l == line || *l + 1 == line) && k == key)
            .map(|(_, _, has_reason)| *has_reason)
    }
}

struct FileCheck<'a> {
    rel: &'a str,
    class: FileClass,
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_spans: Vec<(usize, usize)>,
    allows: &'a Allows,
    lexed: &'a Lexed,
    violations: Vec<Violation>,
}

impl FileCheck<'_> {
    fn run(mut self) -> Vec<Violation> {
        // Indexing (not iterating) because every rule pass borrows
        // `self` mutably while peeking neighbouring tokens by index.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.lexed.tokens.len() {
            if self.lexed.tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let in_test = self.class.test_class || self.in_test_span(i);
            if self.class.determinism && !in_test {
                self.determinism(i);
            }
            if self.class.panic_free && !in_test {
                self.panic_freedom(i);
            }
            self.unsafe_audit(i);
            if !self.class.thread_allowed && !in_test {
                self.concurrency(i);
            }
            if self.class.persistence && !in_test {
                self.persistence(i);
            }
            if self.class.obs_increment && !in_test {
                self.obs_increment(i);
            }
        }
        self.violations
    }

    fn in_test_span(&self, idx: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(start, end)| (start..=end).contains(&idx))
    }

    /// Records `idx`'s token as a violation of `rule` unless an
    /// annotation with a reason covers its line.
    fn report(&mut self, idx: usize, rule: Rule, message: String) {
        let line = self.lexed.tokens[idx].line;
        report_with_allow(
            self.allows,
            self.rel,
            line,
            rule,
            message,
            &mut self.violations,
        );
    }

    fn tok(&self, idx: usize) -> Option<&Token> {
        self.lexed.tokens.get(idx)
    }

    fn is_path_sep(&self, idx: usize) -> bool {
        self.tok(idx).is_some_and(|t| t.is_punct(':'))
            && self.tok(idx + 1).is_some_and(|t| t.is_punct(':'))
    }

    // ── Rule 1: determinism ────────────────────────────────────────

    fn determinism(&mut self, i: usize) {
        let tokens = &self.lexed.tokens;
        let text = tokens[i].text.as_str();
        match text {
            "HashMap" | "HashSet" => {
                // `HashMap<…>` / `HashMap::<…>`: the generic args must
                // name a deterministic hasher.
                let open = if self.tok(i + 1).is_some_and(|t| t.is_punct('<')) {
                    Some(i + 1)
                } else if self.is_path_sep(i + 1)
                    && self.tok(i + 3).is_some_and(|t| t.is_punct('<'))
                {
                    Some(i + 3)
                } else {
                    None
                };
                if let Some(open) = open {
                    if !self.generic_args_name_fnv(open) {
                        self.report(
                            i,
                            Rule::Determinism,
                            format!(
                                "`{text}` in a search-state module must name a deterministic \
                                 hasher (e.g. `{text}<…, FnvBuildHasher>`) — the std default \
                                 `RandomState` makes iteration order differ between runs"
                            ),
                        );
                    }
                } else if self.is_path_sep(i + 1)
                    && self
                        .tok(i + 3)
                        .is_some_and(|t| t.text == "new" || t.text == "with_capacity")
                {
                    // `HashMap::new()` / `with_capacity()` only exist for
                    // the RandomState default.
                    self.report(
                        i,
                        Rule::Determinism,
                        format!(
                            "`{text}::{}` pins the nondeterministic `RandomState` hasher; \
                             use `{text}::default()` on an `FnvBuildHasher`-typed binding \
                             (or `with_capacity_and_hasher`)",
                            self.tok(i + 3).map_or("new", |t| t.text.as_str()),
                        ),
                    );
                }
            }
            "Instant" | "SystemTime" => {
                self.report(
                    i,
                    Rule::Determinism,
                    format!(
                        "`{text}` is an ambient time source; search-state modules must be \
                         reproducible — measure wall-clock at the caller (CLI/bench/serve) instead"
                    ),
                );
            }
            "thread_rng" | "random" => {
                self.report(
                    i,
                    Rule::Determinism,
                    format!("`{text}` injects ambient randomness into reproducible search state"),
                );
            }
            "rand" if self.is_path_sep(i + 1) => {
                self.report(
                    i,
                    Rule::Determinism,
                    "the `rand` crate must not be used from search-state modules".to_string(),
                );
            }
            _ => {}
        }
    }

    /// Scans the balanced `<…>` starting at `open` (which holds `<`) and
    /// reports whether any identifier inside names an FNV hasher.
    fn generic_args_name_fnv(&self, open: usize) -> bool {
        generic_args_name_fnv(&self.lexed.tokens, open)
    }

    // ── Rule 2: panic-freedom in serve ─────────────────────────────

    fn panic_freedom(&mut self, i: usize) {
        let tokens = &self.lexed.tokens;
        let text = tokens[i].text.as_str();
        let followed_by_bang = self.tok(i + 1).is_some_and(|t| t.is_punct('!'));
        let method_call = i > 0
            && tokens[i - 1].is_punct('.')
            && self.tok(i + 1).is_some_and(|t| t.is_punct('('));
        match text {
            "unwrap" | "expect" if method_call => {
                self.report(
                    i,
                    Rule::PanicFreedom,
                    format!(
                        "`.{text}()` on the serve request path can take the whole worker down; \
                         return a typed `HostError` / map to a 4xx instead, or justify with \
                         `// lint: allow(panic) <reason>`"
                    ),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if followed_by_bang => {
                self.report(
                    i,
                    Rule::PanicFreedom,
                    format!(
                        "`{text}!` in serve request-path code; return a typed error, or justify \
                         with `// lint: allow(panic) <reason>`"
                    ),
                );
            }
            _ => {}
        }
    }

    // ── Rule 3: unsafe audit ───────────────────────────────────────

    fn unsafe_audit(&mut self, i: usize) {
        let token = &self.lexed.tokens[i];
        if token.text != "unsafe" {
            return;
        }
        let line = token.line;
        let justified = self.lexed.comments.iter().any(|c| {
            c.text.contains("SAFETY:") && c.end_line <= line && c.end_line + SAFETY_WINDOW >= line
        });
        if !justified {
            self.violations.push(Violation {
                file: self.rel.to_string(),
                line,
                rule: Rule::UnsafeAudit,
                message: format!(
                    "`unsafe` without an adjacent `// SAFETY:` comment (within {SAFETY_WINDOW} \
                     lines above) stating why the invariants hold"
                ),
                frames: Vec::new(),
            });
        }
    }

    // ── Rule 4: concurrency discipline ─────────────────────────────

    fn concurrency(&mut self, i: usize) {
        let token = &self.lexed.tokens[i];
        if token.text != "thread" || !self.is_path_sep(i + 1) {
            return;
        }
        let Some(callee) = self.tok(i + 3) else {
            return;
        };
        if callee.text == "spawn" || callee.text == "scope" {
            self.report(
                i,
                Rule::Concurrency,
                format!(
                    "`thread::{}` outside `par.rs` / the serve accept loop; route parallel \
                     work through `par::WorkerPool` so thread counts stay centrally resolved",
                    callee.text
                ),
            );
        }
    }

    // ── Rule 5: durable persistence ────────────────────────────────

    fn persistence(&mut self, i: usize) {
        let tokens = &self.lexed.tokens;
        let text = tokens[i].text.as_str();
        if i < 3 || !self.is_path_sep(i - 2) {
            return;
        }
        let owner = tokens[i - 3].text.as_str();
        let flagged = match text {
            "write" => owner == "fs",
            "create" | "create_new" => owner == "File",
            _ => return,
        };
        if flagged {
            self.report(
                i,
                Rule::Persistence,
                format!(
                    "`{owner}::{text}` in a persistence module publishes a file without fsync \
                     or `.bak` rotation; route it through the durable-write helper, or justify \
                     with `// lint: allow(persistence) <reason>`"
                ),
            );
        }
    }

    // ── Rule 6: lock/alloc-free metric increments ──────────────────

    fn obs_increment(&mut self, i: usize) {
        let tokens = &self.lexed.tokens;
        let text = tokens[i].text.as_str();
        let followed_by_bang = self.tok(i + 1).is_some_and(|t| t.is_punct('!'));
        let method_call = i > 0
            && tokens[i - 1].is_punct('.')
            && self.tok(i + 1).is_some_and(|t| t.is_punct('('));
        let flagged = match text {
            "Mutex" | "RwLock" | "Condvar" | "String" | "Vec" | "Box" => true,
            "lock" | "to_string" | "to_owned" | "to_vec" => method_call,
            "format" | "vec" => followed_by_bang,
            _ => false,
        };
        if flagged {
            self.report(
                i,
                Rule::Obs,
                format!(
                    "`{text}` in a metric increment-path module; counter bumps and histogram \
                     records run on every request and must stay lock- and allocation-free \
                     (atomics only), or justify with `// lint: allow(obs) <reason>`"
                ),
            );
        }
    }
}

/// Pushes a violation of `rule` at `rel:line` unless a
/// `// lint: allow(<key>) <reason>` annotation covers the line (shared
/// by the token passes and the raw-source metric-name scan).
pub(crate) fn report_with_allow(
    allows: &Allows,
    rel: &str,
    line: u32,
    rule: Rule,
    message: String,
    out: &mut Vec<Violation>,
) {
    match rule.allow_key().and_then(|key| allows.lookup(line, key)) {
        Some(true) => {}
        Some(false) => out.push(Violation {
            file: rel.to_string(),
            line,
            rule,
            message: format!(
                "`// lint: allow({})` needs a reason after the closing paren",
                rule.allow_key().unwrap_or_default()
            ),
            frames: Vec::new(),
        }),
        None => out.push(Violation {
            file: rel.to_string(),
            line,
            rule,
            message,
            frames: Vec::new(),
        }),
    }
}

/// Raw-source scan for metric registrations: the lexer does not
/// tokenize string-literal contents, so the token passes cannot see
/// metric names. Applies everywhere outside test code — registrations
/// live in obs and serve today, but a registration breaking the naming
/// contract is wrong wherever it appears. Source after the first
/// `#[cfg(test)]` is skipped (test modules sit at the bottom of files
/// in this workspace).
fn scan_metric_names(rel: &str, source: &str, allows: &Allows, out: &mut Vec<Violation>) {
    let cut = source.find("#[cfg(test)]").unwrap_or(source.len());
    let scanned = &source[..cut];
    for (method, needs_suffix) in REGISTRATION_METHODS {
        // Built at runtime so this file's own source never contains the
        // needle (the workspace lints itself).
        let needle = format!(".{method}(");
        let mut from = 0;
        while let Some(pos) = scanned[from..].find(&needle) {
            let after = from + pos + needle.len();
            from = after;
            // The name may sit on the next line (rustfmt wraps long
            // registrations), so skip whitespace before the quote.
            let rest = &scanned[after..];
            let trimmed = rest.trim_start();
            let Some(name_rest) = trimmed.strip_prefix('"') else {
                continue; // first argument is not a string literal
            };
            let Some(end) = name_rest.find('"') else {
                continue;
            };
            let name = &name_rest[..end];
            let offset = after + (rest.len() - trimmed.len());
            if let Some(problem) = metric_name_problem(name, needs_suffix) {
                report_with_allow(
                    allows,
                    rel,
                    line_of(scanned, offset),
                    Rule::Obs,
                    problem,
                    out,
                );
            }
        }
    }
}

/// Why `name` breaks the metric naming contract, if it does.
fn metric_name_problem(name: &str, needs_suffix: bool) -> Option<String> {
    let snake = name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    if !snake {
        return Some(format!(
            "metric name `{name}` must be snake_case: lowercase letters, digits and `_`, \
             starting with a letter"
        ));
    }
    if needs_suffix && !UNIT_SUFFIXES.iter().any(|s| name.ends_with(s)) {
        return Some(format!(
            "metric name `{name}` needs a unit suffix (`_us`, `_bytes` or `_total`) so the \
             unit reads off the name"
        ));
    }
    None
}

/// 1-based line number of byte `offset` in `source`.
fn line_of(source: &str, offset: usize) -> u32 {
    let newlines = source[..offset].bytes().filter(|&b| b == b'\n').count();
    u32::try_from(newlines + 1).unwrap_or(u32::MAX)
}

/// Finds token-index ranges belonging to `#[cfg(test)]` / `#[test]` /
/// `#[cfg(all(test, …))]` items: the attribute, then (skipping any
/// further attributes) the next item through its closing brace or
/// semicolon.
pub(crate) fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') || !tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let (attr_end, mentions_test) = scan_attribute(tokens, i + 1);
        if !mentions_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = attr_end + 1;
        while j < tokens.len()
            && tokens[j].is_punct('#')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = scan_attribute(tokens, j + 1).0 + 1;
        }
        // The item body: through the matching `}` of its first brace, or
        // a top-level `;` (e.g. `#[cfg(test)] use …;`).
        let mut depth = 0i32;
        let mut end = j;
        while end < tokens.len() {
            let t = &tokens[end];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                break;
            }
            end += 1;
        }
        spans.push((i, end));
        i = end + 1;
    }
    spans
}

/// Scans a `[…]` attribute starting at `open` (the `[`); returns the
/// index of the closing `]` and whether the ident `test` appears inside.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut mentions_test = false;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (j, mentions_test);
            }
        } else if t.is_ident("test") {
            mentions_test = true;
        }
    }
    (tokens.len().saturating_sub(1), mentions_test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, source: &str) -> Vec<Violation> {
        check_source(rel, source)
    }

    const CORE: &str = "crates/core/src/engine.rs";
    const SERVE: &str = "crates/serve/src/host.rs";

    #[test]
    fn hashmap_without_fnv_is_flagged() {
        let v = check(CORE, "struct S { m: HashMap<u64, u32> }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Determinism);
        assert!(check(CORE, "struct S { m: HashMap<u64, u32, FnvBuildHasher> }").is_empty());
        assert!(check(CORE, "type T = Vec<HashMap<K, V, FnvBuildHasher>>;").is_empty());
    }

    #[test]
    fn hashmap_new_is_flagged_but_default_is_not() {
        assert_eq!(check(CORE, "fn f() { let m = HashMap::new(); }").len(), 1);
        assert_eq!(
            check(CORE, "fn f() { let m = HashMap::with_capacity(8); }").len(),
            1
        );
        assert!(check(CORE, "fn f() { let m: Seen = HashMap::default(); }").is_empty());
        assert!(check(
            CORE,
            "fn f() { let m: Seen = HashMap::with_capacity_and_hasher(8, Default::default()); }"
        )
        .is_empty());
    }

    #[test]
    fn comparisons_are_not_generic_args() {
        // `a < b` must not start a runaway bracket scan that eats `>`.
        assert!(check(CORE, "fn f(a: usize) { if a < 3 { g(); } }").is_empty());
    }

    #[test]
    fn ambient_time_is_flagged_outside_tests() {
        let v = check(CORE, "fn f() { let t = Instant::now(); }");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("ambient time"));
        assert!(check(
            CORE,
            "#[cfg(test)]\nmod tests { #[test] fn t() { let t = Instant::now(); } }"
        )
        .is_empty());
        // Other files may time freely.
        assert!(check("crates/cli/src/commands.rs", "fn f() { Instant::now(); }").is_empty());
    }

    #[test]
    fn serve_unwrap_needs_annotation() {
        assert_eq!(check(SERVE, "fn f() { x.unwrap(); }").len(), 1);
        assert!(check(
            SERVE,
            "fn f() {\n    // lint: allow(panic) poisoned only by a panicked writer\n    x.unwrap();\n}"
        )
        .is_empty());
        // Same-line annotation also counts.
        assert!(check(
            SERVE,
            "fn f() { x.unwrap(); } // lint: allow(panic) infallible by construction"
        )
        .is_empty());
        // A reason is mandatory.
        let v = check(SERVE, "// lint: allow(panic)\nfn f() { x.unwrap(); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("reason"));
    }

    #[test]
    fn serve_panic_macros_are_flagged_and_unwrap_or_is_not() {
        assert_eq!(check(SERVE, "fn f() { panic!(\"boom\"); }").len(), 1);
        assert_eq!(check(SERVE, "fn f() { unreachable!() }").len(), 1);
        assert!(check(SERVE, "fn f() { x.unwrap_or(0); y.unwrap_or_else(g); }").is_empty());
        // unwrap inside #[cfg(test)] is test code.
        assert!(check(
            SERVE,
            "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); panic!(); } }"
        )
        .is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment_even_in_tests() {
        let v = check(CORE, "fn f() { unsafe { g() } }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnsafeAudit);
        assert!(check(
            CORE,
            "fn f() {\n    // SAFETY: g has no invariants here\n    unsafe { g() }\n}"
        )
        .is_empty());
        let v = check(
            CORE,
            "#[cfg(test)]\nmod tests { fn t() { unsafe { g() } } }",
        );
        assert_eq!(v.len(), 1, "unsafe audit applies to test code too");
    }

    #[test]
    fn safety_comment_too_far_away_does_not_count() {
        let far = format!("// SAFETY: stale\n{}unsafe {{ g() }}", "\n".repeat(12));
        assert_eq!(check(CORE, &far).len(), 1);
    }

    #[test]
    fn forbid_unsafe_code_attribute_is_not_an_unsafe_token() {
        assert!(check(CORE, "#![forbid(unsafe_code)]").is_empty());
    }

    #[test]
    fn thread_spawn_is_flagged_outside_the_allowlist() {
        let v = check(
            "crates/sim/src/state.rs",
            "fn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Concurrency);
        assert!(check(
            "crates/core/src/par.rs",
            "fn f() { std::thread::spawn(|| {}); }"
        )
        .iter()
        .all(|v| v.rule != Rule::Concurrency));
        assert!(check(
            "crates/serve/src/server.rs",
            "fn f() { std::thread::scope(|s| {}); }"
        )
        .is_empty());
        assert!(check(
            "crates/bench/benches/synthesis.rs",
            "fn f() { std::thread::scope(|s| {}); }"
        )
        .is_empty());
        // Test files and #[cfg(test)] regions may spawn.
        assert!(check("tests/tests/x.rs", "fn f() { std::thread::spawn(|| {}); }").is_empty());
        assert!(check(
            "crates/sim/src/state.rs",
            "#[cfg(test)]\nmod tests { fn t() { std::thread::scope(|s| {}); } }"
        )
        .is_empty());
    }

    #[test]
    fn bare_snapshot_writes_are_flagged() {
        const SNAP: &str = "crates/core/src/snapshot.rs";
        let v = check(SNAP, "fn f() { std::fs::write(path, bytes)?; }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Persistence);
        let v = check(SNAP, "fn f() { let file = File::create(path)?; }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Persistence);
        // The sanctioned escape hatch (the durable-write helper itself).
        assert!(check(
            SNAP,
            "fn f() {\n    // lint: allow(persistence) fsynced and renamed below\n    let file = File::create(path)?;\n}"
        )
        .is_empty());
        // A reason is mandatory.
        let v = check(
            SNAP,
            "// lint: allow(persistence)\nfn f() { std::fs::write(path, bytes)?; }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("reason"));
    }

    #[test]
    fn persistence_rule_is_scoped_and_ignores_writer_methods() {
        const SNAP: &str = "crates/core/src/snapshot.rs";
        // Other modules may write files however they like.
        assert!(check(
            "crates/cli/src/commands.rs",
            "fn f() { std::fs::write(path, bytes)?; }"
        )
        .is_empty());
        // `Write::write` method calls and reads are not publications.
        assert!(check(SNAP, "fn f() { file.write_all(bytes)?; }").is_empty());
        assert!(check(SNAP, "fn f() { let b = std::fs::read(path)?; }").is_empty());
        // Test code in the module is exempt.
        assert!(check(
            SNAP,
            "#[cfg(test)]\nmod tests { fn t() { std::fs::write(p, b).unwrap(); } }"
        )
        .is_empty());
    }

    #[test]
    fn obs_increment_path_must_be_lock_and_alloc_free() {
        const OBS: &str = "crates/obs/src/metrics.rs";
        let v = check(OBS, "struct C { v: std::sync::Mutex<u64> }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Obs);
        assert_eq!(check(OBS, "fn f(m: &M) { m.inner.lock(); }").len(), 1);
        assert_eq!(
            check(OBS, "fn f(x: u64) { let s = x.to_string(); }").len(),
            1
        );
        // `String` return + `format!` body: two allocation sites.
        assert_eq!(
            check(OBS, "fn f() -> String { format!(\"{}\", 1) }").len(),
            2
        );
        // The real increment path: atomics are fine.
        assert!(check(
            OBS,
            "fn inc(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }"
        )
        .is_empty());
        // The escape hatch (scrape-time code may allocate)…
        assert!(check(
            OBS,
            "fn f() {\n    // lint: allow(obs) scrape path, not the increment path\n    let v = Vec::new();\n}"
        )
        .is_empty());
        // …and modules off the increment path are out of scope.
        assert!(check(
            "crates/obs/src/registry.rs",
            "fn f() { let v = Vec::new(); }"
        )
        .is_empty());
    }

    #[test]
    fn metric_registration_names_are_checked() {
        const REG: &str = "crates/serve/src/obs.rs";
        let v = check(REG, "fn f(r: &Registry) { r.counter(\"BadName\", \"h\"); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Obs);
        assert!(v[0].message.contains("snake_case"), "{v:?}");
        let v = check(
            REG,
            "fn f(r: &Registry) { r.histogram(\"latency\", \"h\"); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("unit suffix"), "{v:?}");
        // A rustfmt-wrapped registration: the name sits on its own line.
        let v = check(
            REG,
            "fn f(r: &Registry) {\n    r.counter_fn(\n        \"wrapped\",\n        \"h\",\n        || 1,\n    );\n}",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        // Contract-following names pass; gauges need no suffix.
        assert!(check(
            REG,
            "fn f(r: &Registry) { r.counter(\"requests_total\", \"h\"); \
             r.histogram(\"wait_us\", \"h\"); r.gauge(\"depth\", \"h\"); }"
        )
        .is_empty());
        // Test code is exempt, both by path and by `#[cfg(test)]`.
        assert!(check(
            "tests/tests/x.rs",
            "fn f(r: &Registry) { r.counter(\"Bad\", \"h\"); }"
        )
        .is_empty());
        assert!(check(
            REG,
            "#[cfg(test)]\nmod tests { fn t(r: &Registry) { r.counter(\"Bad\", \"h\"); } }"
        )
        .is_empty());
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        assert!(check(
            SERVE,
            r#"fn f() { let s = "x.unwrap() panic!"; } // .unwrap()"#
        )
        .is_empty());
        assert!(check(CORE, r#"fn f() { let s = "Instant::now"; }"#).is_empty());
    }

    #[test]
    fn violations_render_with_path_and_line() {
        let v = check(CORE, "\n\nfn f() { let t = SystemTime::now(); }");
        assert_eq!(v[0].line, 3);
        let text = v[0].to_string();
        assert!(
            text.starts_with("crates/core/src/engine.rs:3: [determinism]"),
            "{text}"
        );
    }
}
