//! Metric registration and rendering: the *scrape path*.
//!
//! A [`Registry`] owns the name → metric table and renders it in
//! Prometheus text exposition format. Registration and rendering take a
//! mutex and allocate — that is fine, they run at startup and on
//! `GET /metrics` scrapes. The handles they return ([`Counter`],
//! [`Gauge`], [`Histogram`] behind `Arc`) are the lock-free increment
//! path from [`crate::metrics`].
//!
//! Counters can also be *callback-backed* ([`Registry::counter_fn`]):
//! the registry stores a closure that reads an existing atomic owned by
//! someone else (e.g. the serve host's per-host counters). This is how
//! `GET /metrics` and the `/stats` JSON are kept identical by
//! construction — both read the same atomics at scrape time instead of
//! maintaining parallel counts that could drift.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
use crate::probe::ProbeMetrics;

type CounterCallback = Box<dyn Fn() -> u64 + Send + Sync>;

enum Source {
    Counter(Arc<Counter>),
    CounterFn(CounterCallback),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    source: Source,
}

/// Checks a metric name against the conventions the `mvq_lint` `obs`
/// rule enforces statically: `snake_case` (lowercase ASCII, digits,
/// underscores, starting with a letter) and — for counters and
/// histograms — a unit suffix of `_us`, `_bytes`, or `_total`.
pub fn valid_metric_name(name: &str, needs_unit_suffix: bool) -> bool {
    let snake = !name.is_empty()
        && name.starts_with(|c: char| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    let suffixed = !needs_unit_suffix
        || ["_us", "_bytes", "_total"]
            .iter()
            .any(|s| name.ends_with(s));
    snake && suffixed
}

/// A named collection of metrics, rendered on demand.
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
        }
    }

    fn insert(&self, name: &'static str, help: &'static str, source: Source) {
        let needs_suffix = !matches!(source, Source::Gauge(_));
        assert!(
            valid_metric_name(name, needs_suffix),
            "metric name `{name}` violates naming rules (snake_case; counters and \
             histograms need a `_us`/`_bytes`/`_total` suffix)"
        );
        // lint: allow(panic) registration happens at startup, before any panicking writer can exist
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        assert!(
            entries.iter().all(|e| e.name != name),
            "metric name `{name}` registered twice"
        );
        entries.push(Entry { name, help, source });
    }

    /// Registers and returns a new [`Counter`].
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let counter = Arc::new(Counter::new());
        self.insert(name, help, Source::Counter(Arc::clone(&counter)));
        counter
    }

    /// Registers a callback-backed counter whose value is read from `f`
    /// at scrape time (for counters whose atomic lives elsewhere).
    pub fn counter_fn(
        &self,
        name: &'static str,
        help: &'static str,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.insert(name, help, Source::CounterFn(Box::new(f)));
    }

    /// Registers and returns a new [`Gauge`].
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let gauge = Arc::new(Gauge::new());
        self.insert(name, help, Source::Gauge(Arc::clone(&gauge)));
        gauge
    }

    /// Registers and returns a new [`Histogram`].
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::new());
        self.insert(name, help, Source::Histogram(Arc::clone(&histogram)));
        histogram
    }

    /// Current value of every counter (direct and callback-backed),
    /// in registration order.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        // lint: allow(panic) entry lock holders never panic: reads and atomic loads only
        let entries = self.entries.lock().expect("metrics registry poisoned");
        entries
            .iter()
            .filter_map(|e| match &e.source {
                Source::Counter(c) => Some((e.name, c.get())),
                Source::CounterFn(f) => Some((e.name, f())),
                _ => None,
            })
            .collect()
    }

    /// Current value of every gauge, in registration order.
    pub fn gauge_values(&self) -> Vec<(&'static str, i64)> {
        // lint: allow(panic) entry lock holders never panic: reads and atomic loads only
        let entries = self.entries.lock().expect("metrics registry poisoned");
        entries
            .iter()
            .filter_map(|e| match &e.source {
                Source::Gauge(g) => Some((e.name, g.get())),
                _ => None,
            })
            .collect()
    }

    /// Snapshot of every histogram, in registration order.
    pub fn histogram_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        // lint: allow(panic) entry lock holders never panic: reads and atomic loads only
        let entries = self.entries.lock().expect("metrics registry poisoned");
        entries
            .iter()
            .filter_map(|e| match &e.source {
                Source::Histogram(h) => Some((e.name, h.snapshot())),
                _ => None,
            })
            .collect()
    }

    /// Registers the search-probe metric family and returns the handle
    /// bundle a [`crate::probe::RegistryProbe`] records into.
    pub fn probe_metrics(&self) -> ProbeMetrics {
        ProbeMetrics {
            level_expand_us: self.histogram(
                "level_expand_us",
                "Wall time per search level step: a settle plus the expansions it runs (microseconds)",
            ),
            level_nodes_total: self.counter(
                "level_nodes_total",
                "Canonical words produced by level expansions",
            ),
            levels_expanded_total: self.counter(
                "levels_expanded_total",
                "Search level steps: settles, plus expansions of a settled level on their own",
            ),
            frontier_words: self.gauge(
                "frontier_words",
                "Pending frontier size after the last level step",
            ),
            bidi_splits_total: self.counter("bidi_splits_total", "Bidirectional split decisions"),
            bidi_forward_cb: self.gauge(
                "bidi_forward_cb",
                "Forward cost bound chosen by the last bidi split",
            ),
            bidi_backward_cb: self.gauge(
                "bidi_backward_cb",
                "Backward cost bound chosen by the last bidi split",
            ),
            snapshot_section_us: self.histogram(
                "snapshot_section_us",
                "Wall time per snapshot section, save or load (microseconds)",
            ),
            snapshot_section_bytes: self.histogram(
                "snapshot_section_bytes",
                "Bytes carried per snapshot section",
            ),
        }
    }

    /// Renders every metric in Prometheus text exposition format
    /// (version 0.0.4). Histogram buckets use cumulative counts with
    /// inclusive `le` upper bounds, ending in `+Inf`.
    pub fn render_prometheus(&self) -> String {
        // lint: allow(panic) entry lock holders never panic: reads and atomic loads only
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for e in entries.iter() {
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            match &e.source {
                Source::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {} counter", e.name);
                    let _ = writeln!(out, "{} {}", e.name, c.get());
                }
                Source::CounterFn(f) => {
                    let _ = writeln!(out, "# TYPE {} counter", e.name);
                    let _ = writeln!(out, "{} {}", e.name, f());
                }
                Source::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {} gauge", e.name);
                    let _ = writeln!(out, "{} {}", e.name, g.get());
                }
                Source::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(out, "# TYPE {} histogram", e.name);
                    let mut cumulative = 0u64;
                    for (i, &n) in snap.buckets.iter().enumerate() {
                        cumulative += n;
                        // Skip interior empty buckets to keep the scrape
                        // small; always emit the first populated run and
                        // the +Inf terminator below.
                        if n == 0 && cumulative == 0 {
                            continue;
                        }
                        if i + 1 < BUCKETS {
                            let _ = writeln!(
                                out,
                                "{}_bucket{{le=\"{}\"}} {}",
                                e.name,
                                Histogram::bucket_upper_bound(i),
                                cumulative
                            );
                        }
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, snap.count);
                    let _ = writeln!(out, "{}_sum {}", e.name, snap.sum);
                    let _ = writeln!(out, "{}_count {}", e.name, snap.count);
                }
            }
        }
        out
    }
}
