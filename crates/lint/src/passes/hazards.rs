//! The three reach hazards: `determinism`, `panic` and `obs`.
//!
//! Each hazard is a set of root files plus one site matcher. A site
//! anywhere in a root file's non-test code — fn bodies, struct fields,
//! signatures, statics — is a zero-frame finding. A site in any other
//! fn is a finding when a non-test root fn reaches it through the call
//! graph, reported with the chain from the nearest root. Root-file fns
//! are never scanned as reached fns, so no site is reported twice.
//!
//! Suppress with `// lint: allow(<rule>) <reason>` on the site, or on
//! any call edge along the chain to cut that whole subtree.

use crate::callgraph::{FileView, Graph};
use crate::lexer::{is_macro_call, is_method_call, is_path_sep, Token, TokenKind};
use crate::parser::FnItem;
use crate::rules::{is_test_file, report_with_allow, Rule, Violation};

use super::{own_segments, push_reached_site};

/// The `mvq_core` modules that hold reproducible search state: the
/// engine's level tables, both meet-in-the-middle frontiers, the
/// sharded parallel expansion, the `seen` maps, the census, and the
/// snapshot codec. Bit-identical state at every thread count is the
/// repo's headline claim, so these modules may not hash
/// nondeterministically nor read ambient time/randomness.
const DETERMINISM_MODULES: [&str; 6] = [
    "crates/core/src/engine.rs",
    "crates/core/src/mitm.rs",
    "crates/core/src/par.rs",
    "crates/core/src/seen.rs",
    "crates/core/src/census.rs",
    "crates/core/src/snapshot.rs",
];

/// The serve request path: every file of `mvq_serve`.
const SERVE_PREFIX: &str = "crates/serve/src/";

/// The `mvq_obs` modules holding the metric increment path (counter
/// bumps, histogram records, probe callbacks). Request threads hit
/// these on every request, so they must stay lock-free and
/// allocation-free: atomics only.
const OBS_INCREMENT_MODULES: [&str; 2] = ["crates/obs/src/metrics.rs", "crates/obs/src/probe.rs"];

/// One hazard, defined once.
struct Hazard {
    rule: Rule,
    /// Whether the (non-test) file at a path is a root file.
    root_file: fn(&str) -> bool,
    /// Which non-test fns of a root file seed the reach.
    seed: fn(&FnItem) -> bool,
    /// Describes the site at `tokens[i]` (an identifier), if it is one.
    site: fn(&[Token], usize) -> Option<String>,
    /// Where a root-file site sits, for the message.
    home: &'static str,
    /// What a reached site is reachable from, for the message.
    roots: &'static str,
    /// The fix, closing every message.
    fix: &'static str,
}

const HAZARDS: [Hazard; 3] = [
    Hazard {
        rule: Rule::Determinism,
        root_file: |rel| DETERMINISM_MODULES.contains(&rel),
        seed: |_| true,
        site: determinism_site,
        home: "a search-state module",
        roots: "the search-state modules",
        fix: "search state must be reproducible run-to-run: name `FnvBuildHasher` \
              (`HashMap::default()` on an FNV-typed binding), and measure wall-clock at the \
              caller (CLI/bench/serve), or justify with `// lint: allow(determinism) <reason>`",
    },
    Hazard {
        rule: Rule::PanicFreedom,
        root_file: |rel| rel.starts_with(SERVE_PREFIX),
        seed: |_| true,
        site: panic_site,
        home: "serve request-path code",
        roots: "the serve request path",
        fix: "one panic takes the whole worker down: return a typed `HostError` / map to a \
              4xx instead, or justify with `// lint: allow(panic) <reason>`",
    },
    Hazard {
        rule: Rule::Obs,
        root_file: |rel| OBS_INCREMENT_MODULES.contains(&rel),
        // Constructors run once at registration, not per increment.
        seed: |item| item.name != "new",
        site: obs_site,
        home: "a metric increment-path module",
        roots: "the metric increment path",
        fix: "counter bumps and histogram records run on every request and must stay \
              lock-, allocation- and I/O-free (atomics only), or justify with \
              `// lint: allow(obs) <reason>`",
    },
];

/// Runs every hazard over the workspace graph.
pub fn run(g: &Graph<'_>, out: &mut Vec<Violation>) {
    for hazard in &HAZARDS {
        hazard.run(g, out);
    }
}

impl Hazard {
    fn is_root_file(&self, rel: &str) -> bool {
        (self.root_file)(rel) && !is_test_file(rel)
    }

    /// Calls `f(line, what)` for every site among the non-test tokens
    /// of `view` in `start..end`.
    fn for_sites(
        &self,
        view: &FileView<'_>,
        start: usize,
        end: usize,
        mut f: impl FnMut(u32, String),
    ) {
        let tokens = &view.lexed.tokens;
        for (i, tok) in tokens.iter().enumerate().take(end).skip(start) {
            if tok.kind == TokenKind::Ident && !view.index.in_test_span(i) {
                if let Some(what) = (self.site)(tokens, i) {
                    f(tok.line, what);
                }
            }
        }
    }

    fn run(&self, g: &Graph<'_>, out: &mut Vec<Violation>) {
        for view in g.views.iter().filter(|v| self.is_root_file(v.rel)) {
            self.for_sites(view, 0, view.lexed.tokens.len(), |line, what| {
                let message = format!("{what} in {}; {}", self.home, self.fix);
                report_with_allow(view.allows, view.rel, line, self.rule, message, out);
            });
        }
        let roots: Vec<usize> = (0..g.fns.len())
            .filter(|&id| self.is_root_file(g.rel(id)) && !g.is_test(id) && (self.seed)(g.item(id)))
            .collect();
        if roots.is_empty() {
            return;
        }
        let mut reached: Vec<(usize, Vec<(usize, u32)>)> =
            g.reach(&roots, self.rule.name()).into_iter().collect();
        reached.sort_by_key(|(id, _)| *id);
        for (id, path) in reached {
            let item = g.item(id);
            if self.is_root_file(g.rel(id)) || g.is_test(id) {
                continue;
            }
            let view = &g.views[g.fns[id].file];
            for (start, end) in own_segments(view.index, item) {
                self.for_sites(view, start, end, |line, what| {
                    let message = format!(
                        "{what} in `{}` is reachable from {}; {}",
                        item.name, self.roots, self.fix
                    );
                    push_reached_site(g, self.rule, message, id, line, &path, out);
                });
            }
        }
    }
}

/// Ambient time, ambient randomness, and default-hashed collections.
fn determinism_site(tokens: &[Token], i: usize) -> Option<String> {
    let text = tokens[i].text.as_str();
    match text {
        "Instant" | "SystemTime" => Some(format!("ambient time source `{text}`")),
        "thread_rng" | "random" => Some(format!("ambient randomness `{text}`")),
        "rand" if is_path_sep(tokens, i + 1) => Some("the `rand` crate".to_string()),
        "HashMap" | "HashSet" => {
            // `HashMap<…>` / `HashMap::<…>`: the generic args must name a
            // deterministic hasher.
            let open = if tokens.get(i + 1).is_some_and(|t| t.is_punct('<')) {
                Some(i + 1)
            } else if is_path_sep(tokens, i + 1)
                && tokens.get(i + 3).is_some_and(|t| t.is_punct('<'))
            {
                Some(i + 3)
            } else {
                None
            };
            if let Some(open) = open {
                return (!generic_args_name_fnv(tokens, open))
                    .then(|| format!("`{text}` without a deterministic hasher"));
            }
            // `HashMap::new()` / `with_capacity()` only exist for the
            // RandomState default.
            let ctor = tokens.get(i + 3).filter(|t| {
                is_path_sep(tokens, i + 1) && (t.text == "new" || t.text == "with_capacity")
            })?;
            Some(format!(
                "`{text}::{}` (pins the nondeterministic `RandomState` hasher)",
                ctor.text
            ))
        }
        _ => None,
    }
}

/// Scans the balanced `<…>` starting at `open` (which holds `<`) and
/// reports whether any identifier inside names an FNV hasher.
fn generic_args_name_fnv(tokens: &[Token], open: usize) -> bool {
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

/// `.unwrap()` / `.expect()` calls and the panicking macros.
fn panic_site(tokens: &[Token], i: usize) -> Option<String> {
    let name = tokens[i].text.as_str();
    match name {
        "unwrap" | "expect" if is_method_call(tokens, i) => Some(format!("`.{name}()`")),
        "panic" | "unreachable" | "todo" | "unimplemented" if is_macro_call(tokens, i) => {
            Some(format!("`{name}!`"))
        }
        _ => None,
    }
}

/// Lock and allocating types, allocating or blocking methods,
/// allocating and printing macros, and filesystem I/O.
fn obs_site(tokens: &[Token], i: usize) -> Option<String> {
    let name = tokens[i].text.as_str();
    match name {
        "Mutex" | "RwLock" | "Condvar" | "String" | "Vec" | "Box" | "File" | "OpenOptions"
        | "TcpStream" | "TcpListener" => Some(format!("`{name}`")),
        "lock" | "to_string" | "to_owned" | "to_vec" if is_method_call(tokens, i) => {
            Some(format!("`.{name}()`"))
        }
        "format" | "vec" | "println" | "eprintln" | "print" | "eprint"
            if is_macro_call(tokens, i) =>
        {
            Some(format!("`{name}!`"))
        }
        "fs" if tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) => Some("`fs::`".to_string()),
        _ => None,
    }
}
