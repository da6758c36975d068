//! `mvq_lint` — the workspace invariant checker.
//!
//! Clippy's `-D warnings` gate cannot express this repo's
//! project-specific correctness rules, and the offline container rules
//! out syn/miri/loom, so the pass is hand-rolled: a small comment- and
//! string-aware lexer ([`lexer`]) feeds the per-file rules ([`rules`]),
//! and an item-level parser ([`parser`]) feeds a workspace call graph
//! ([`callgraph`]) for the call-graph passes (`passes`). Seven rules,
//! one per hazard:
//!
//! | rule | kind | scope | invariant |
//! |------|------|-------|-----------|
//! | `determinism` | reach | `mvq_core` search-state modules, and every fn they reach | `HashMap`/`HashSet` name `FnvBuildHasher`; no `Instant`/`SystemTime`/randomness |
//! | `panic` | reach | `crates/serve/src` request path, and every fn it reaches | no `unwrap`/`expect`/`panic!`/`unreachable!` without `// lint: allow(panic) <reason>` |
//! | `unsafe` | file | workspace-wide (tests included) | every `unsafe` carries an adjacent `// SAFETY:` comment |
//! | `threads` | file | workspace-wide | `thread::spawn`/`scope` only in the serve accept loop (the search core is serial) |
//! | `persistence` | file | snapshot codec | file publication goes through the durable-write helper, never bare `fs::write`/`File::create` |
//! | `obs` | reach + file | `mvq_obs` increment path and every fn it reaches; registrations workspace-wide | no locks, allocations or I/O where counters bump; registered metric names are snake_case with a unit suffix (`_us`/`_bytes`/`_total`) |
//! | `lock_order` | graph | the serve locks ordered by a `// lint: lock-order(a < b < …)` annotation, every fn | every static path acquires them strictly in the declared order while a guard is live, counting guards condvar waits hand back and locks `Drop` glue takes |
//!
//! A *reach* rule reports a site in its root files with no frames, and
//! a site in any other fn a root reaches with the call chain.
//!
//! The binary (`cargo run -p mvq_lint --release -- --workspace`) exits
//! non-zero on any violation and is wired into CI as a hard gate; the
//! fixture corpus under `fixtures/` locks each rule from both sides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;

mod passes;

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Frame, Rule, Violation, ALL_RULES};

use callgraph::FileView;
use lexer::{lex, Lexed};
use parser::{parse, FileIndex};
use rules::{check_lexed, Allows};

/// Directory names never descended into: build output, the lint
/// fixture corpus (deliberately seeded with violations), and the
/// vendored third-party dependency shims (stand-ins for crates-io code,
/// not project code).
const SKIP_DIRS: [&str; 3] = ["target", "fixtures", "shims"];

/// The outcome of linting a tree.
#[derive(Debug)]
pub struct Report {
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line).
    pub violations: Vec<Violation>,
}

impl Report {
    /// `true` iff the tree is clean.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts per rule (zero-count rules included, so the
    /// summary always shows the full gate).
    pub fn rule_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> =
            ALL_RULES.iter().map(|r| (r.name(), 0)).collect();
        for violation in &self.violations {
            *counts.entry(violation.rule.name()).or_default() += 1;
        }
        counts
    }

    /// The machine-readable report: `{files_scanned, counts, findings}`
    /// with each finding carrying its call-chain frames. Hand-rolled
    /// (the container has no serde); ordering matches the text output,
    /// so the JSON is byte-stable for a given tree.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = write!(
            s,
            "  \"files_scanned\": {},\n  \"counts\": {{",
            self.files_scanned
        );
        let counts: Vec<String> = self
            .rule_counts()
            .iter()
            .map(|(rule, n)| format!("\"{rule}\": {n}"))
            .collect();
        let _ = write!(s, "{}}},\n  \"findings\": [", counts.join(", "));
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"frames\": [",
                json_str(&v.file),
                v.line,
                json_str(v.rule.name()),
                json_str(&v.message)
            );
            for (j, fr) in v.frames.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(
                    s,
                    "{{\"file\": {}, \"line\": {}, \"function\": {}}}",
                    json_str(&fr.file),
                    fr.line,
                    json_str(&fr.function)
                );
            }
            s.push_str("]}");
        }
        if self.violations.is_empty() {
            s.push_str("]\n}\n");
        } else {
            s.push_str("\n  ]\n}\n");
        }
        s
    }
}

/// Escapes `text` as a JSON string literal.
fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for Report {
    /// The CI-facing summary: every finding, then a per-rule count line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for violation in &self.violations {
            writeln!(f, "{violation}")?;
        }
        let counts: Vec<String> = self
            .rule_counts()
            .iter()
            .map(|(rule, n)| format!("{rule}: {n}"))
            .collect();
        write!(
            f,
            "mvq_lint: {} file(s) scanned, {} rule(s), {} violation(s) [{}]",
            self.files_scanned,
            ALL_RULES.len(),
            self.violations.len(),
            counts.join(", ")
        )
    }
}

/// Lints the workspace rooted at `root`: every `.rs` file under
/// `crates/`, `tests/`, and `examples/` (skipping build output, the
/// fixture corpus and the vendored shims) gets the per-file rules,
/// then the call-graph passes run over the whole workspace. Parsing is
/// spread over worker threads.
///
/// # Errors
///
/// Propagates filesystem errors; a missing top-level directory is not
/// an error (fixture trees carry only `crates/`).
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|path| Ok((workspace_relative(root, path), fs::read_to_string(path)?)))
        .collect::<io::Result<_>>()?;
    Ok(Report {
        files_scanned: files.len(),
        violations: check_sources(&sources),
    })
}

/// Lints one source file as a one-file workspace, through the same
/// pipeline as [`check_workspace`]. `rel` is the workspace-relative path
/// with forward slashes (it selects the applicable rules).
pub fn check_source(rel: &str, source: &str) -> Vec<Violation> {
    check_sources(&[(rel.to_string(), source.to_string())])
}

/// Every finding over `(rel, source)` pairs, sorted by (file, line,
/// rule).
fn check_sources(sources: &[(String, String)]) -> Vec<Violation> {
    let analyses = analyze_all(sources);
    let mut violations: Vec<Violation> = analyses
        .iter()
        .flat_map(|a| a.violations.iter().cloned())
        .collect();
    let views: Vec<FileView<'_>> = analyses
        .iter()
        .map(|a| FileView {
            rel: &a.rel,
            lexed: &a.lexed,
            index: &a.index,
            allows: &a.allows,
        })
        .collect();
    violations.extend(passes::run(&views));
    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name()).cmp(&(b.file.as_str(), b.line, b.rule.name()))
    });
    violations
}

/// Everything the workspace passes need from one file.
struct FileAnalysis {
    rel: String,
    lexed: Lexed,
    index: FileIndex,
    allows: Allows,
    /// Per-file rule findings (`unsafe`, `threads`, `persistence` and
    /// the metric-name half of `obs`).
    violations: Vec<Violation>,
}

/// Lexes, parses and runs the per-file rules over one file.
fn analyze(rel: &str, source: &str) -> FileAnalysis {
    let lexed = lex(source);
    let index = parse(&lexed);
    let allows = Allows::parse(&lexed.comments);
    let violations = check_lexed(rel, source, &lexed, &index, &allows);
    FileAnalysis {
        rel: rel.to_string(),
        lexed,
        index,
        allows,
        violations,
    }
}

/// Analyzes every file, fanning out across worker threads. Results come
/// back in input order.
fn analyze_all(sources: &[(String, String)]) -> Vec<FileAnalysis> {
    let workers = std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(8)
        .min(sources.len().max(1));
    if workers <= 1 {
        return sources.iter().map(|(rel, src)| analyze(rel, src)).collect();
    }
    let chunk = sources.len().div_ceil(workers);
    let mut out: Vec<Option<FileAnalysis>> = std::iter::repeat_with(|| None)
        .take(sources.len())
        .collect();
    // lint: allow(threads) lint's own file walker: bounded fan-out over workspace files, not expansion work
    std::thread::scope(|scope| {
        for (batch, slot) in sources.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for ((rel, src), s) in batch.iter().zip(slot.iter_mut()) {
                    *s = Some(analyze(rel, src));
                }
            });
        }
    });
    out.into_iter()
        .map(|a| a.expect("worker filled every slot"))
        .collect()
}

fn workspace_relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_summary_lists_every_rule() {
        let report = Report {
            files_scanned: 3,
            violations: vec![],
        };
        let text = report.to_string();
        assert!(text.contains("3 file(s) scanned"), "{text}");
        assert!(text.contains("7 rule(s)"), "{text}");
        for rule in ALL_RULES {
            assert!(text.contains(&format!("{}: 0", rule.name())), "{text}");
        }
    }

    #[test]
    fn workspace_relative_uses_forward_slashes() {
        let root = Path::new("/repo");
        let path = Path::new("/repo/crates/core/src/engine.rs");
        assert_eq!(workspace_relative(root, path), "crates/core/src/engine.rs");
    }

    #[test]
    fn json_report_is_valid_shape_and_escapes() {
        let report = Report {
            files_scanned: 1,
            violations: vec![Violation {
                file: "crates/x/src/a.rs".to_string(),
                line: 3,
                rule: Rule::PanicFreedom,
                message: "a \"quoted\"\nmessage".to_string(),
                frames: vec![Frame {
                    file: "crates/serve/src/host.rs".to_string(),
                    line: 7,
                    function: "handle".to_string(),
                }],
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"files_scanned\": 1"), "{json}");
        assert!(json.contains("\"rule\": \"panic\""), "{json}");
        assert!(json.contains("\\\"quoted\\\"\\nmessage"), "{json}");
        assert!(
            json.contains(
                "{\"file\": \"crates/serve/src/host.rs\", \"line\": 7, \"function\": \"handle\"}"
            ),
            "{json}"
        );
        // No raw newline may survive inside any string literal.
        for line in json.lines() {
            assert!(!line.contains("quoted\"\nmessage"), "{json}");
        }
    }
}
