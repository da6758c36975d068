//! Per-file analysis cache keyed by content hash.
//!
//! Lexing + parsing + per-file rules are pure functions of `(relative
//! path, source text)`, so repeated `check_workspace` calls in one
//! process (tests, a watch loop) reuse the previous run's
//! `FileAnalysis` for every unchanged file and only re-analyze edits.
//! The key hashes the path *and* the content: two identical files at
//! different paths classify differently (test span rules, module
//! lists), so they must not share an entry.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::lexer::{lex, Lexed};
use crate::parser::{parse, FileIndex};
use crate::rules::{check_lexed, Allows, Violation};

/// Everything the workspace passes need from one file, computed once
/// per `(path, content)` pair.
pub(crate) struct FileAnalysis {
    pub rel: String,
    pub lexed: Lexed,
    pub index: FileIndex,
    pub allows: Allows,
    /// Per-file rule findings (`unsafe`, `threads`, `persistence` and
    /// the metric-name half of `obs`).
    pub violations: Vec<Violation>,
}

static CACHE: OnceLock<Mutex<HashMap<u64, Arc<FileAnalysis>>>> = OnceLock::new();

/// FNV-1a over `rel + '\0' + source`. Content-addressed: a re-read of
/// an unchanged file is a hit, an edit is a distinct key (stale entries
/// are left behind; the table is bounded by edit churn within one
/// process, which is tiny next to the parse work it saves).
fn key(rel: &str, source: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [rel.as_bytes(), &[0u8], source.as_bytes()] {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Returns the (possibly cached) analysis of one file.
pub(crate) fn analyze(rel: &str, source: &str) -> Arc<FileAnalysis> {
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let k = key(rel, source);
    if let Some(hit) = cache.lock().expect("lint cache poisoned").get(&k) {
        return Arc::clone(hit);
    }
    let lexed = lex(source);
    let index = parse(&lexed);
    let allows = Allows::parse(&lexed.comments);
    let violations = check_lexed(rel, source, &lexed, &index, &allows);
    let analysis = Arc::new(FileAnalysis {
        rel: rel.to_string(),
        lexed,
        index,
        allows,
        violations,
    });
    cache
        .lock()
        .expect("lint cache poisoned")
        .insert(k, Arc::clone(&analysis));
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_input_is_a_pointer_hit() {
        let src = "fn f() { g(); }\n";
        let a = analyze("crates/x/src/cache_probe.rs", src);
        let b = analyze("crates/x/src/cache_probe.rs", src);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn path_is_part_of_the_key() {
        let src = "fn f() { g(); }\n";
        let a = analyze("crates/x/src/cache_probe.rs", src);
        let b = analyze("crates/y/src/cache_probe.rs", src);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.rel, "crates/y/src/cache_probe.rs");
    }

    #[test]
    fn edited_content_misses() {
        let a = analyze("crates/x/src/cache_probe2.rs", "fn f() {}\n");
        let b = analyze("crates/x/src/cache_probe2.rs", "fn f() { h(); }\n");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.index.fns[0].calls.len(), 1);
    }
}
