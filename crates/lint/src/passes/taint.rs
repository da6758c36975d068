//! Determinism taint: nondeterminism flowing *into* the search-state
//! modules through calls.
//!
//! The per-file `determinism` rule bans ambient time, randomness and
//! default-hashed collections inside the six `mvq_core` search-state
//! modules, but a helper elsewhere that those modules call can smuggle
//! the same nondeterminism back in. This pass roots at every non-test
//! fn in the search-state modules and flags taint sources in any fn
//! they reach outside them.
//!
//! Suppress with `// lint: allow(determinism) <reason>` (shared key
//! with the per-file rule).

use crate::callgraph::Graph;
use crate::lexer::TokenKind;
use crate::rules::{determinism_modules, generic_args_name_fnv, Rule, Violation};

use super::{for_own_tokens, push_reached_site, sorted_reach};

fn in_search_module(rel: &str) -> bool {
    determinism_modules().iter().any(|m| rel.ends_with(m))
}

pub fn run(g: &Graph<'_>, out: &mut Vec<Violation>) {
    let roots: Vec<usize> = (0..g.fns.len())
        .filter(|&id| in_search_module(g.rel(id)) && !g.item(id).is_test)
        .collect();
    if roots.is_empty() {
        return;
    }
    for (id, path) in sorted_reach(g, &roots, "determinism") {
        if in_search_module(g.rel(id)) || g.item(id).is_test {
            continue;
        }
        let file_i = g.fns[id].file;
        let view = &g.views[file_i];
        let tokens = &view.lexed.tokens;
        let mut sites: Vec<(u32, String)> = Vec::new();
        for_own_tokens(tokens, view.index, g.item(id), |i, tok| {
            if tok.kind != TokenKind::Ident {
                return;
            }
            let path_sep = tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'));
            match tok.text.as_str() {
                "Instant" | "SystemTime" => {
                    sites.push((tok.line, format!("ambient time source `{}`", tok.text)));
                }
                "thread_rng" | "random" => {
                    sites.push((tok.line, format!("ambient randomness `{}`", tok.text)));
                }
                "rand" if path_sep => {
                    sites.push((tok.line, "the `rand` crate".to_string()));
                }
                t @ ("HashMap" | "HashSet") => {
                    let open = if tokens.get(i + 1).is_some_and(|tk| tk.is_punct('<')) {
                        Some(i + 1)
                    } else if path_sep && tokens.get(i + 3).is_some_and(|tk| tk.is_punct('<')) {
                        Some(i + 3)
                    } else {
                        None
                    };
                    if let Some(open) = open {
                        if !generic_args_name_fnv(tokens, open) {
                            sites.push((tok.line, format!("`{t}` without a deterministic hasher")));
                        }
                    } else if path_sep
                        && tokens
                            .get(i + 3)
                            .is_some_and(|tk| tk.text == "new" || tk.text == "with_capacity")
                    {
                        sites.push((
                            tok.line,
                            format!(
                                "`{t}::{}` (pins the nondeterministic `RandomState` hasher)",
                                tokens[i + 3].text
                            ),
                        ));
                    }
                }
                _ => {}
            }
        });
        for (line, what) in sites {
            push_reached_site(
                g,
                Rule::DeterminismTaint,
                format!(
                    "{what} in `{}` is reachable from the search-state modules; their \
                     behavior must be reproducible run-to-run",
                    g.item(id).name
                ),
                id,
                line,
                &path,
                out,
            );
        }
    }
}
