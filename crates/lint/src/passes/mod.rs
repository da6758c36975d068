//! The passes over the workspace call graph.
//!
//! [`hazards`] defines `determinism`, `panic` and `obs` once each: a
//! site in a root file is a zero-frame finding, and a site a root
//! reaches elsewhere is reported with the full call chain from a
//! nearest root. [`lock_order`] checks ranked lock acquisitions along
//! every chain. An edge whose call line carries a reasoned
//! `// lint: allow(<rule>)` cuts the whole subtree, and a site whose
//! line carries one is skipped — the same annotation silences a finding
//! at any frame.

pub mod hazards;
pub mod lock_order;

use crate::callgraph::{FileView, Graph};
use crate::parser::{FileIndex, FnItem};
use crate::rules::{Frame, Rule, Violation};

/// Runs every call-graph pass over the parsed workspace.
pub fn run(views: &[FileView<'_>]) -> Vec<Violation> {
    let graph = Graph::build(views);
    let mut out = Vec::new();
    lock_order::run(&graph, &mut out);
    hazards::run(&graph, &mut out);
    out
}

/// The token-index segments belonging to `item` itself: its body minus
/// the bodies of nested fn items (those are separate graph nodes).
pub(crate) fn own_segments(index: &FileIndex, item: &FnItem) -> Vec<(usize, usize)> {
    let Some((start, end)) = item.body else {
        return Vec::new();
    };
    let mut segments = Vec::new();
    let mut cursor = start + 1;
    for &child in &item.children {
        if let Some((c_start, c_end)) = index.fns[child].body {
            if c_start > cursor {
                segments.push((cursor, c_start));
            }
            cursor = c_end + 1;
        }
    }
    if cursor < end {
        segments.push((cursor, end));
    }
    segments
}

/// Reports a site reached through `path` unless its line carries a
/// reasoned allow for the rule's key.
pub(crate) fn push_reached_site(
    g: &Graph<'_>,
    rule: Rule,
    message: String,
    site_fn: usize,
    line: u32,
    path: &[(usize, u32)],
    out: &mut Vec<Violation>,
) {
    if let Some(key) = rule.allow_key() {
        if g.allow(site_fn, line, key) == Some(true) {
            return;
        }
        // Reach-based passes cut allowed edges during the BFS; the
        // lock-order pass builds chains from summaries, so honor an
        // allow at any intermediate frame here too.
        if path.iter().any(|&(f, l)| g.allow(f, l, key) == Some(true)) {
            return;
        }
    }
    let mut frames: Vec<Frame> = path.iter().map(|&(f, l)| g.frame(f, l)).collect();
    frames.push(g.frame(site_fn, line));
    out.push(Violation {
        file: g.rel(site_fn).to_string(),
        line,
        rule,
        message,
        frames,
    });
}
