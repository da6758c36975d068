//! The rule set, the finding type, and the per-file rules.
//!
//! Three rules are token scans of one file, keyed by its
//! workspace-relative path: `unsafe`, `threads` and `persistence`, plus
//! the metric-name half of `obs`. The hazards that can also arrive
//! through a call — `determinism`, `panic` and the increment-path half
//! of `obs` — are defined once each in `crate::passes`, and
//! `lock_order` lives there too.
//!
//! Test code — files under `tests/`, and `#[cfg(test)]` / `#[test]`
//! items inside `src` files — is exempt from the behavioural rules but
//! **not** from the unsafe audit: a SAFETY justification is owed
//! everywhere.

use std::fmt;

use crate::lexer::{is_path_sep, Comment, Lexed, TokenKind};
use crate::parser::FileIndex;

/// The rule a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Search-state modules must hash deterministically and never read
    /// ambient time or randomness, directly or through any call chain.
    Determinism,
    /// The serve request path must not panic without an annotated
    /// justification, in `crates/serve` or in any helper it reaches.
    PanicFreedom,
    /// Every `unsafe` needs an adjacent `// SAFETY:` comment.
    UnsafeAudit,
    /// Threads are spawned only by the serve accept loop: the search
    /// core is serial.
    Concurrency,
    /// Snapshot-path writes must go through the durable-write helper
    /// (no bare `fs::write` / `File::create`), so every published file
    /// is fsynced and keeps its `.bak` sibling.
    Persistence,
    /// The metric increment path stays lock-, allocation- and I/O-free
    /// (request threads bump counters on every request), down every call
    /// chain, and every counter/histogram registration names a
    /// snake_case metric with a unit suffix.
    Obs,
    /// Interprocedural: the serve locks are only ever acquired in the
    /// order a `// lint: lock-order(…)` annotation declares, on every
    /// static call path.
    LockOrder,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 7] = [
    Rule::Determinism,
    Rule::PanicFreedom,
    Rule::UnsafeAudit,
    Rule::Concurrency,
    Rule::Persistence,
    Rule::Obs,
    Rule::LockOrder,
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
        }
    }

    /// The key accepted by `// lint: allow(<key>) <reason>`: the rule's
    /// name. [`Rule::UnsafeAudit`] has no allow-key: the escape hatch
    /// *is* the `// SAFETY:` comment the rule demands.
    pub(crate) fn allow_key(self) -> Option<&'static str> {
        (self != Rule::UnsafeAudit).then(|| self.name())
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
    /// For a site reached through calls: the call chain from the
    /// analysis root to the site, outermost first. Empty for a site
    /// written directly in a scoped file.
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

/// Files allowed to call `thread::spawn` / `thread::scope`: only the
/// serve accept loop, whose connection handlers are not search work.
/// The search core is serial.
const THREAD_ALLOWLIST: [&str; 1] = ["crates/serve/src/server.rs"];

/// Modules that publish files other processes load back (the snapshot
/// codec). Every write there must go through the durable-write helper —
/// a bare `fs::write` / `File::create` can publish a torn file and has
/// no `.bak` rotation.
const PERSISTENCE_MODULES: [&str; 1] = ["crates/core/src/snapshot.rs"];

/// Registration methods whose first argument is a metric name, paired
/// with whether the naming contract demands a unit suffix (gauges are
/// instantaneous readings, so they carry none).
const REGISTRATION_METHODS: [(&str, bool); 5] = [
    ("counter", true),
    ("labelled_counter", true),
    ("histogram", true),
    ("gauge", false),
    ("labelled_gauge", false),
];

/// The unit suffixes the metric naming contract accepts.
const UNIT_SUFFIXES: [&str; 3] = ["_us", "_bytes", "_total"];

/// How far above an `unsafe` token a `// SAFETY:` comment may end and
/// still count as adjacent (attributes and a multi-line justification
/// fit; a stale comment three screens up does not).
const SAFETY_WINDOW: u32 = 8;

/// Whether the whole file at `rel` is test code.
pub(crate) fn is_test_file(rel: &str) -> bool {
    rel.split('/').any(|part| part == "tests")
}

/// The per-file rule passes over an already-lexed and parsed file (the
/// parse cache runs them once per file content).
pub(crate) fn check_lexed(
    rel: &str,
    source: &str,
    lexed: &Lexed,
    index: &FileIndex,
    allows: &Allows,
) -> Vec<Violation> {
    let test_file = is_test_file(rel);
    let mut file = FileCheck {
        rel,
        test_file,
        thread_allowed: test_file || THREAD_ALLOWLIST.contains(&rel),
        persistence: PERSISTENCE_MODULES.contains(&rel),
        index,
        allows,
        lexed,
        violations: Vec::new(),
    };
    file.run();
    let mut violations = file.violations;
    if !test_file {
        scan_metric_names(rel, source, lexed, index, allows, &mut violations);
    }
    violations
}

/// A file's `// lint: …` annotations: the per-line
/// `allow(<key>) <reason>` escapes, and the lock order a
/// `lock-order(a < b < …)` line declares.
pub(crate) struct Allows {
    /// `(line the comment ends on, key, reason_present)`.
    entries: Vec<(u32, String, bool)>,
    /// Lock field names, lowest first, from the file's first
    /// `// lint: lock-order(…)` annotation (empty without one).
    pub(crate) lock_order: Vec<String>,
}

impl Allows {
    pub(crate) fn parse(comments: &[Comment]) -> Self {
        let mut entries = Vec::new();
        let mut lock_order = Vec::new();
        for c in comments {
            let Some(rest) = c.text.strip_prefix("lint:") else {
                continue;
            };
            let rest = rest.trim_start();
            if let Some((key, reason)) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')'))
            {
                entries.push((
                    c.end_line,
                    key.trim().to_string(),
                    !reason.trim().is_empty(),
                ));
            } else if let Some((order, _)) = rest
                .strip_prefix("lock-order(")
                .and_then(|r| r.split_once(')'))
            {
                if lock_order.is_empty() {
                    lock_order = order.split('<').map(|n| n.trim().to_string()).collect();
                }
            }
        }
        Self {
            entries,
            lock_order,
        }
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
    test_file: bool,
    thread_allowed: bool,
    persistence: bool,
    index: &'a FileIndex,
    allows: &'a Allows,
    lexed: &'a Lexed,
    violations: Vec<Violation>,
}

impl FileCheck<'_> {
    fn run(&mut self) {
        for i in 0..self.lexed.tokens.len() {
            if self.lexed.tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let in_test = self.test_file || self.index.in_test_span(i);
            self.unsafe_audit(i);
            if !self.thread_allowed && !in_test {
                self.concurrency(i);
            }
            if self.persistence && !in_test {
                self.persistence(i);
            }
        }
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

    // ── unsafe audit ───────────────────────────────────────────────

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

    // ── concurrency discipline ─────────────────────────────────────

    fn concurrency(&mut self, i: usize) {
        let tokens = &self.lexed.tokens;
        if tokens[i].text != "thread" || !is_path_sep(tokens, i + 1) {
            return;
        }
        let Some(callee) = tokens.get(i + 3) else {
            return;
        };
        if callee.text == "spawn" || callee.text == "scope" {
            let message = format!(
                "`thread::{}` outside the serve accept loop; the search core is serial, \
                 and only the server spawns its connection handlers",
                callee.text
            );
            self.report(i, Rule::Concurrency, message);
        }
    }

    // ── durable persistence ────────────────────────────────────────

    fn persistence(&mut self, i: usize) {
        let tokens = &self.lexed.tokens;
        let text = tokens[i].text.as_str();
        if i < 3 || !is_path_sep(tokens, i - 2) {
            return;
        }
        let owner = tokens[i - 3].text.as_str();
        let flagged = match text {
            "write" => owner == "fs",
            "create" | "create_new" => owner == "File",
            _ => return,
        };
        if flagged {
            let message = format!(
                "`{owner}::{text}` in a persistence module publishes a file without fsync \
                 or `.bak` rotation; route it through the durable-write helper, or justify \
                 with `// lint: allow(persistence) <reason>`"
            );
            self.report(i, Rule::Persistence, message);
        }
    }
}

/// Pushes a zero-frame violation of `rule` at `rel:line` unless a
/// `// lint: allow(<key>) <reason>` annotation covers the line; a
/// reason-less annotation is itself the finding.
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
/// contract is wrong wherever it appears. Names on lines inside the
/// file's test spans are skipped.
fn scan_metric_names(
    rel: &str,
    source: &str,
    lexed: &Lexed,
    index: &FileIndex,
    allows: &Allows,
    out: &mut Vec<Violation>,
) {
    let tokens = &lexed.tokens;
    let in_test = |line: u32| {
        index
            .test_spans
            .iter()
            .any(|&(s, e)| (tokens[s].line..=tokens[e].line).contains(&line))
    };
    for (method, needs_suffix) in REGISTRATION_METHODS {
        // Built at runtime so this file's own source never contains the
        // needle (the workspace lints itself).
        let needle = format!(".{method}(");
        let mut from = 0;
        while let Some(pos) = source[from..].find(&needle) {
            let after = from + pos + needle.len();
            from = after;
            // The name may sit on the next line (rustfmt wraps long
            // registrations), so skip whitespace before the quote.
            let rest = &source[after..];
            let trimmed = rest.trim_start();
            let Some(name_rest) = trimmed.strip_prefix('"') else {
                continue; // first argument is not a string literal
            };
            let Some(end) = name_rest.find('"') else {
                continue;
            };
            let name = &name_rest[..end];
            let line = line_of(source, after + (rest.len() - trimmed.len()));
            if in_test(line) {
                continue;
            }
            if let Some(problem) = metric_name_problem(name, needs_suffix) {
                report_with_allow(allows, rel, line, Rule::Obs, problem, out);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, source: &str) -> Vec<Violation> {
        crate::check_source(rel, source)
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
    fn test_only_fields_do_not_hide_the_next_fn() {
        let src = "struct F {\n    k: usize,\n    #[cfg(test)]\n    generated: u64,\n}\n\
                   impl F {\n    fn new() -> Self {\n        let t = Instant::now();\n        \
                   Self {\n            k: 0,\n            #[cfg(test)]\n            \
                   generated: 0,\n        }\n    }\n}\n";
        let v = check(CORE, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (Rule::Determinism, 8), "{v:?}");
    }

    #[test]
    fn root_file_sites_outside_fn_bodies_have_no_frames() {
        let v = check(CORE, "pub fn f(s: HashSet<u8>) -> usize { s.len() }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Determinism);
        assert!(v[0].frames.is_empty(), "{v:?}");
        let v = check(
            "crates/obs/src/metrics.rs",
            "pub struct C {\n    v: std::sync::Mutex<u64>,\n}",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (Rule::Obs, 2), "{v:?}");
        assert!(v[0].frames.is_empty(), "{v:?}");
    }

    #[test]
    fn root_file_sites_reached_by_another_root_are_reported_once() {
        let v = check(
            CORE,
            "pub fn a() { b(); }\nfn b() -> u64 { let t = Instant::now(); 0 }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].frames.is_empty(), "{v:?}");
        let v = check(SERVE, "pub fn a() { b(); }\nfn b() { x.unwrap(); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].frames.is_empty(), "{v:?}");
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
        // The search core is serial: its expansion module may not spawn.
        let v = check(
            "crates/core/src/expand.rs",
            "fn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Concurrency);
        assert!(check(
            "crates/serve/src/server.rs",
            "fn f() { std::thread::scope(|s| {}); }"
        )
        .is_empty());
        // A `benches/` directory is not test code.
        let v = check(
            "crates/sim/benches/load.rs",
            "fn f() { std::thread::scope(|s| {}); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Concurrency);
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
        // Printing and filesystem I/O written directly in the module.
        let v = check(OBS, "fn f() { println!(\"bump\"); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("println!"), "{v:?}");
        let v = check(OBS, "fn f() { let _ = std::fs::read(p); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("fs::"), "{v:?}");
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
            "fn f(r: &Registry) {\n    r.labelled_counter(\n        \"wrapped\",\n        \"h\",\n        &labels,\n    );\n}",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        let v = check(
            REG,
            "fn f(r: &Registry) { r.labelled_gauge(\"Depth\", \"h\", &l); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
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
        // A test-only field exempts itself, not the rest of the file.
        let v = check(
            REG,
            "struct S {\n    #[cfg(test)]\n    seen: u64,\n}\n\
             fn f(r: &Registry) {\n    r.counter(\"BadName\", \"h\");\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t(r: &Registry) { r.counter(\"Bad\", \"h\"); }\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6, "{v:?}");
    }

    #[test]
    fn lock_order_annotation_is_parsed() {
        let lexed = crate::lexer::lex(
            "// lint: allow(panic) vetted\n\
             // lint: lock-order(hosts < recovery <engine< flight)\n\
             // lint: lock-order(ignored < second)\n",
        );
        let allows = Allows::parse(&lexed.comments);
        assert_eq!(allows.lock_order, ["hosts", "recovery", "engine", "flight"]);
        assert_eq!(allows.lookup(2, "panic"), Some(true));
        assert!(Allows::parse(&[]).lock_order.is_empty());
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
