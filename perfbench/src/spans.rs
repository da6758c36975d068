//! In-memory spans for the traced pass, and the benchmark's engine
//! probe.
//!
//! A span records one timed call into a layer: its name, start and end
//! (nanoseconds since the pass began), the span that caused it, and the
//! request it served. Spans stay in memory and are written out as one
//! JSON document when the pass ends.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mvq_obs::Probe;

use crate::json::quote;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    request: Option<u64>,
    name: String,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn open(&self, name: impl Into<String>, parent: Option<u64>, request: Option<u64>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name: name.into(),
            start: Instant::now(),
        }
    }

    pub fn close(&self, open: Open) -> Duration {
        let end = Instant::now();
        let ns = |t: Instant| (t - self.origin).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: ns(open.start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span list").push(span);
        end - open.start
    }

    /// Runs `f` inside a span; `f` receives the span's id (for children).
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let open = self.open(name, parent, request);
        let value = f(open.id);
        (value, self.close(open))
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list").len()
    }

    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list");
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let lines: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"id":{},"parent":{},"request":{},"name":{},"start_ns":{},"end_ns":{}}}"#,
                    s.id,
                    opt(s.parent),
                    opt(s.request),
                    quote(&s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

/// Events the engine announced through [`BenchProbe`].
#[derive(Debug, Default, Clone)]
pub struct ProbeLog {
    /// `(cost, nodes, frontier)` per finished level.
    pub levels: Vec<(u32, u64, u64)>,
    /// Largest `max_staged / mean − 1` over sharded buckets, in percent.
    pub imbalance_pct: f64,
    pub sharded_buckets: u64,
    /// `(forward_cb, backward_cb, cb)` per bidirectional split.
    pub splits: Vec<(u32, u32, u32)>,
    /// `(section, duration, bytes)` per snapshot section.
    pub sections: Vec<(&'static str, Duration, u64)>,
}

impl ProbeLog {
    pub fn frontier_peak(&self) -> u64 {
        self.levels.iter().map(|l| l.2).max().unwrap_or(0)
    }

    pub fn nodes(&self) -> u64 {
        self.levels.iter().map(|l| l.1).sum()
    }

    pub fn section(&self, name: &str) -> Option<Duration> {
        self.sections.iter().find(|s| s.0 == name).map(|s| s.1)
    }
}

/// The benchmark's [`Probe`]: records every event into a [`ProbeLog`]
/// and times paired events itself (the engine never reads the clock).
#[derive(Debug, Default)]
pub struct BenchProbe {
    log: Mutex<ProbeLog>,
    section_start: Mutex<Option<Instant>>,
}

impl BenchProbe {
    /// The events so far; the log starts empty again.
    pub fn take(&self) -> ProbeLog {
        std::mem::take(&mut *self.log.lock().expect("probe log"))
    }

    fn with(&self, f: impl FnOnce(&mut ProbeLog)) {
        f(&mut self.log.lock().expect("probe log"));
    }
}

impl Probe for BenchProbe {
    fn level_finished(&self, cost: u32, nodes: u64, frontier: u64) {
        self.with(|log| log.levels.push((cost, nodes, frontier)));
    }

    fn bucket_sharded(&self, _min_staged: u64, max_staged: u64, total: u64, shards: u64) {
        self.with(|log| {
            log.sharded_buckets += 1;
            if total > 0 && shards > 0 {
                let mean = total as f64 / shards as f64;
                log.imbalance_pct = log
                    .imbalance_pct
                    .max((max_staged as f64 / mean - 1.0) * 100.0);
            }
        });
    }

    fn bidi_split(&self, forward_cb: u32, backward_cb: u32, cb: u32) {
        self.with(|log| log.splits.push((forward_cb, backward_cb, cb)));
    }

    fn snapshot_section_started(&self, _section: &'static str) {
        *self.section_start.lock().expect("section start") = Some(Instant::now());
    }

    fn snapshot_section_finished(&self, section: &'static str, bytes: u64) {
        let started = self.section_start.lock().expect("section start").take();
        let took = started.map_or(Duration::ZERO, |t| t.elapsed());
        self.with(|log| log.sections.push((section, took, bytes)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let tracer = Tracer::default();
        let ((), _) = tracer.time("outer", None, Some(7), |outer| {
            let inner = tracer.open("inner", Some(outer), Some(7));
            tracer.close(inner);
        });
        assert_eq!(tracer.len(), 2);
        let doc = crate::json::parse(&tracer.to_json()).unwrap();
        let spans = doc.as_seq().unwrap();
        let inner = &spans[0];
        assert_eq!(crate::json::str_field(inner, "name"), Some("inner"));
        assert_eq!(
            crate::json::u64_field(inner, "parent"),
            crate::json::u64_field(&spans[1], "id")
        );
        assert_eq!(crate::json::u64_field(inner, "request"), Some(7));
    }

    #[test]
    fn probe_records_engine_events() {
        use mvq_core::{ProbeHandle, SynthesisEngine};
        let probe = std::sync::Arc::new(BenchProbe::default());
        let mut engine = SynthesisEngine::unit_cost_with_threads(1);
        engine.set_probe(ProbeHandle::new(probe.clone()));
        engine.expand_to_cost(3);
        let log = probe.take();
        assert_eq!(log.levels.len(), 4);
        assert_eq!(
            log.levels.iter().map(|l| l.0).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert!(log.frontier_peak() > 0);
        assert!(probe.take().levels.is_empty());
    }
}
