//! Metric registration and rendering: the *scrape path*.
//!
//! A [`Registry`] owns the name → metric table and renders it in
//! Prometheus text exposition format ([`Registry::render_prometheus`],
//! behind `GET /metrics`) and as one JSON object
//! ([`Registry::render_json`], the `"metrics"` of `GET /stats`), so the
//! two views read the same atomics and cannot drift. Registration and
//! rendering take a mutex and allocate — that is fine, they run when a
//! metric's owner is built and on scrapes. The handles they return
//! ([`Counter`], [`Gauge`], [`Histogram`] behind `Arc`) are the
//! lock-free increment path from [`crate::metrics`].
//!
//! A counter or gauge name may carry several *series*, one per label
//! set ([`Registry::labelled_counter`], [`Registry::labelled_gauge`]):
//! the serve host registers each of its counters once per
//! `(wires, model)`. Registering a `(name, labels)` pair again returns
//! the existing handle, so an owner rebuilt under the same labels
//! continues its series and counters stay monotone.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::metrics::{Counter, Gauge, Histogram, BUCKETS};
use crate::probe::ProbeMetrics;

#[derive(Debug)]
enum Source {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One series. Entries of one name sit next to each other, in
/// registration order.
#[derive(Debug)]
struct Entry {
    name: &'static str,
    help: &'static str,
    /// The label block as rendered (`{wires="3"}`), empty for an
    /// unlabelled series. Histograms are unlabelled.
    labels: String,
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

/// The Prometheus label block for `labels`: empty when there are none,
/// else `{name="value",…}`. Debug quoting escapes `\`, `"` and newlines
/// the way the exposition format does.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels
        .iter()
        .map(|(name, value)| format!("{name}={value:?}"))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// A named collection of metrics, rendered on demand.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entries(&self) -> MutexGuard<'_, Vec<Entry>> {
        // lint: allow(panic) the one panic under this lock is a kind clash; kinds are fixed per name in the source, so a clash fails the tests
        self.entries.lock().expect("metrics registry poisoned")
    }

    /// The handle for the series `(name, labels)`: the registered one,
    /// or a new one `wrap` stores; `unwrap` reads a source of this kind.
    ///
    /// # Panics
    ///
    /// On a name that breaks the naming rules, or one already
    /// registered as another kind.
    fn register<M: Default>(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        wrap: fn(Arc<M>) -> Source,
        unwrap: fn(&Source) -> Option<&Arc<M>>,
    ) -> Arc<M> {
        let metric = Arc::new(M::default());
        let source = wrap(Arc::clone(&metric));
        let needs_suffix = !matches!(source, Source::Gauge(_));
        assert!(
            valid_metric_name(name, needs_suffix),
            "metric name `{name}` violates naming rules (snake_case; counters and \
             histograms need a `_us`/`_bytes`/`_total` suffix)"
        );
        let labels = label_block(labels);
        let mut entries = self.entries();
        for entry in entries.iter().filter(|e| e.name == name) {
            let existing = unwrap(&entry.source);
            assert!(
                existing.is_some(),
                "metric name `{name}` registered twice, as different kinds"
            );
            if let Some(existing) = existing.filter(|_| entry.labels == labels) {
                return Arc::clone(existing);
            }
        }
        let at = entries
            .iter()
            .rposition(|e| e.name == name)
            .map_or(entries.len(), |i| i + 1);
        let entry = Entry {
            name,
            help,
            labels,
            source,
        };
        entries.insert(at, entry);
        metric
    }

    /// Registers (or finds) the unlabelled [`Counter`] `name`.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.labelled_counter(name, help, &[])
    }

    /// Registers (or finds) the [`Counter`] series `name{labels}`.
    pub fn labelled_counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        self.register(name, help, labels, Source::Counter, |s| match s {
            Source::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// Registers (or finds) the unlabelled [`Gauge`] `name`.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        self.labelled_gauge(name, help, &[])
    }

    /// Registers (or finds) the [`Gauge`] series `name{labels}`.
    pub fn labelled_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        self.register(name, help, labels, Source::Gauge, |s| match s {
            Source::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// Registers (or finds) the [`Histogram`] `name`.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        self.register(name, help, &[], Source::Histogram, |s| match s {
            Source::Histogram(h) => Some(h),
            _ => None,
        })
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
    /// (version 0.0.4): one `HELP`/`TYPE` pair per name, then each of its
    /// series. Histogram buckets use cumulative counts with inclusive
    /// `le` upper bounds, ending in `+Inf`.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries();
        let mut out = String::new();
        for (i, e) in entries.iter().enumerate() {
            if i == 0 || entries[i - 1].name != e.name {
                let kind = match e.source {
                    Source::Counter(_) => "counter",
                    Source::Gauge(_) => "gauge",
                    Source::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
                let _ = writeln!(out, "# TYPE {} {kind}", e.name);
            }
            match &e.source {
                Source::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", e.name, e.labels, c.get());
                }
                Source::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", e.name, e.labels, g.get());
                }
                Source::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, &n) in snap.buckets.iter().enumerate() {
                        cumulative += n;
                        // Skip empty buckets to keep the scrape small: a
                        // skipped bucket's cumulative count is its
                        // predecessor's, and the +Inf terminator below
                        // always carries the total.
                        if n == 0 {
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

    /// Renders the registry as one JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum,p50,p90,p99}}}`.
    /// A counter reports the total over its series. A labelled gauge
    /// has no meaningful total, so only unlabelled gauges are listed.
    /// Metric names are static `snake_case`, so no JSON escaping is
    /// needed.
    pub fn render_json(&self) -> String {
        let entries = self.entries();
        let mut counters: Vec<(&str, u64)> = Vec::new();
        let (mut gauges, mut histograms) = (Vec::new(), Vec::new());
        for e in entries.iter() {
            match &e.source {
                Source::Counter(c) => match counters.last_mut() {
                    Some((name, total)) if *name == e.name => *total += c.get(),
                    _ => counters.push((e.name, c.get())),
                },
                Source::Gauge(g) if e.labels.is_empty() => {
                    gauges.push(format!(r#""{}":{}"#, e.name, g.get()));
                }
                Source::Gauge(_) => {}
                Source::Histogram(h) => {
                    let snap = h.snapshot();
                    histograms.push(format!(
                        r#""{}":{{"count":{},"sum":{},"p50":{},"p90":{},"p99":{}}}"#,
                        e.name,
                        snap.count,
                        snap.sum,
                        snap.quantile(0.5),
                        snap.quantile(0.9),
                        snap.quantile(0.99),
                    ));
                }
            }
        }
        let counters: Vec<String> = counters
            .iter()
            .map(|(name, total)| format!(r#""{name}":{total}"#))
            .collect();
        format!(
            r#"{{"counters":{{{}}},"gauges":{{{}}},"histograms":{{{}}}}}"#,
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}
