//! Server-side observability: the metrics registry, structured request
//! tracing, and the search-probe wiring.
//!
//! One [`ServeObs`] lives behind each [`crate::Server`]. It owns the
//! lock-free metrics (`mvq_obs`), the levelled trace log (one JSON line
//! per request at `info`), the slowest-requests ring served at
//! `GET /debug/slow`, and the [`RegistryProbe`] every hosted engine
//! reports into. The host counters exposed at `GET /metrics` are
//! callback-backed reads of the same atomics the `/stats` JSON renders,
//! so the two endpoints can never drift apart.

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use mvq_obs::{
    Counter, Histogram, LogLevel, ProbeHandle, Registry, RegistryProbe, SlowRing, TraceId, TraceLog,
};
use serde::{Content, Serialize};

use crate::host::{Counters, HostRegistry};
use crate::json::render;

/// How many of the slowest requests `GET /debug/slow` retains.
const SLOW_RING_CAP: usize = 32;

/// One host counter registration: metric name, help text, and the
/// per-host atomic summed across hosts at scrape time.
type HostCounterSpec = (&'static str, &'static str, fn(&Counters) -> &AtomicU64);

/// The server's observability state (see the module docs).
pub struct ServeObs {
    registry: Registry,
    trace: TraceLog,
    slow: SlowRing,
    probe: ProbeHandle,
    pub(crate) request_us: Arc<Histogram>,
    pub(crate) synthesize_us: Arc<Histogram>,
    pub(crate) census_us: Arc<Histogram>,
    pub(crate) queue_wait_us: Arc<Histogram>,
    pub(crate) engine_us: Arc<Histogram>,
    pub(crate) http_requests_total: Arc<Counter>,
    pub(crate) sheds_total: Arc<Counter>,
}

impl fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeObs").finish_non_exhaustive()
    }
}

impl ServeObs {
    /// A fresh observability bundle with the serve metric family and
    /// the search-probe metric family registered.
    pub(crate) fn new() -> Arc<Self> {
        let registry = Registry::new();
        let probe = ProbeHandle::new(Arc::new(RegistryProbe::new(registry.probe_metrics())));
        let request_us = registry.histogram(
            "request_us",
            "End-to-end request latency, read to response written (microseconds)",
        );
        let synthesize_us =
            registry.histogram("synthesize_us", "POST /synthesize latency (microseconds)");
        let census_us = registry.histogram("census_us", "POST /census latency (microseconds)");
        let queue_wait_us = registry.histogram(
            "queue_wait_us",
            "Accept-to-worker queue wait per connection (microseconds)",
        );
        let engine_us = registry.histogram(
            "engine_us",
            "Time spent inside the engine host per request (microseconds)",
        );
        let http_requests_total = registry.counter(
            "http_requests_total",
            "HTTP responses written, including error replies and overload sheds",
        );
        let sheds_total = registry.counter(
            "sheds_total",
            "Connections shed at the accept loop because the worker queue was full",
        );
        Arc::new(Self {
            registry,
            trace: TraceLog::new(),
            slow: SlowRing::new(SLOW_RING_CAP),
            probe,
            request_us,
            synthesize_us,
            census_us,
            queue_wait_us,
            engine_us,
            http_requests_total,
            sheds_total,
        })
    }

    /// The metrics registry (rendered at `GET /metrics`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The structured trace log (level and sink are runtime-settable).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The slowest-requests ring served at `GET /debug/slow`.
    pub fn slow(&self) -> &SlowRing {
        &self.slow
    }

    /// The probe handle hosted engines report into.
    pub fn probe(&self) -> ProbeHandle {
        self.probe.clone()
    }

    /// Registers callback-backed counters over `hosts`' per-host
    /// atomics, summed across hosts at scrape time. Reading the live
    /// atomics (rather than mirroring them) is what keeps `/metrics`
    /// and `/stats` identical by construction; reading them without
    /// engine locks is what keeps a scrape from waiting on a level.
    pub(crate) fn register_host_counters(&self, hosts: &Arc<HostRegistry>) {
        let fields: [HostCounterSpec; 9] = [
            (
                "synthesize_requests_total",
                "POST /synthesize requests admitted, all hosts",
                |c| &c.synthesize_requests,
            ),
            (
                "census_requests_total",
                "POST /census requests admitted, all hosts",
                |c| &c.census_requests,
            ),
            (
                "cache_hits_total",
                "Queries answered purely from the cached levels, all hosts",
                |c| &c.cache_hits,
            ),
            (
                "cache_misses_total",
                "Queries not answered from the cached levels (expanded, waited on another \
                 request's expansion, or served bidirectionally), all hosts",
                |c| &c.cache_misses,
            ),
            (
                "expansions_total",
                "Write-side level expansions performed, all hosts",
                |c| &c.expansions,
            ),
            (
                "single_flight_waits_total",
                "Requests that waited on another request's expansion, all hosts",
                |c| &c.single_flight_waits,
            ),
            (
                "rejected_requests_total",
                "Requests rejected by cost-bound admission, all hosts",
                |c| &c.rejected,
            ),
            (
                "rebuilds_total",
                "Poisoned engines quarantined and rebuilt, all hosts",
                |c| &c.rebuilds,
            ),
            (
                "deadline_timeouts_total",
                "Requests shed because their deadline passed mid-wait, all hosts",
                |c| &c.deadline_timeouts,
            ),
        ];
        for (name, help, field) in fields {
            let hosts = Arc::clone(hosts);
            self.registry
                .counter_fn(name, help, move || hosts.counter_total(field));
        }
    }

    /// The registry as a JSON object for the `/stats` merge:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum,p50,p90,p99}}}`.
    /// Metric names are static `snake_case`, so no JSON escaping is
    /// needed.
    pub(crate) fn render_stats_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(r#"{"counters":{"#);
        for (i, (name, value)) in self.registry.counter_values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#""{name}":{value}"#);
        }
        out.push_str(r#"},"gauges":{"#);
        for (i, (name, value)) in self.registry.gauge_values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#""{name}":{value}"#);
        }
        out.push_str(r#"},"histograms":{"#);
        for (i, (name, snap)) in self.registry.histogram_snapshots().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#""{name}":{{"count":{},"sum":{},"p50":{},"p90":{},"p99":{}}}"#,
                snap.count,
                snap.sum,
                snap.quantile(0.5),
                snap.quantile(0.9),
                snap.quantile(0.99),
            );
        }
        out.push_str("}}");
        out
    }

    /// The single per-request completion point: counts the response,
    /// records the latency histograms, offers the line to the slow
    /// ring, and emits it at `info`. Called exactly once per request —
    /// including parse failures, overload sheds, and panicked handlers.
    pub(crate) fn finish_request(&self, fields: &TraceFields<'_>) {
        self.http_requests_total.inc();
        self.request_us.record(fields.total_us);
        match fields.path {
            "/synthesize" => self.synthesize_us.record(fields.total_us),
            "/census" => self.census_us.record(fields.total_us),
            _ => {}
        }
        if let Some(us) = fields.queue_us {
            self.queue_wait_us.record(us);
        }
        if let Some(us) = fields.engine_us {
            self.engine_us.record(us);
        }
        let line = render(fields);
        self.slow.record(fields.total_us, &line);
        self.trace.emit(LogLevel::Info, &line);
    }
}

/// Everything one request's trace line carries. Fields that do not
/// apply to an endpoint render as JSON `null`, so every line has the
/// same schema (documented in the README's Observability section).
pub(crate) struct TraceFields<'a> {
    /// Deterministic request id (`w3-c12-r1`).
    pub id: TraceId,
    /// Request method (`-` when the request never parsed).
    pub method: &'a str,
    /// Request path (`-` when the request never parsed).
    pub path: &'a str,
    /// Response status code.
    pub status: u16,
    /// `ok` / `invalid` / `timeout` / `error` / `shed`.
    pub outcome: &'static str,
    /// The synthesize target, verbatim from the request.
    pub target: Option<&'a str>,
    /// Register width the request ran on.
    pub wires: Option<usize>,
    /// The serving strategy actually used (`auto` resolves).
    pub strategy: Option<&'static str>,
    /// Whether the cached levels answered without expansion.
    pub cache: Option<bool>,
    /// Expansions this request performed itself.
    pub expansions: Option<u64>,
    /// Accept-queue wait; only a connection's first request carries it.
    pub queue_us: Option<u64>,
    /// Time inside the engine host.
    pub engine_us: Option<u64>,
    /// End-to-end request latency.
    pub total_us: u64,
}

impl Serialize for TraceFields<'_> {
    fn serialize(&self) -> Content {
        fn text(v: &str) -> Content {
            Content::Str(v.to_string())
        }
        fn num(v: Option<u64>) -> Content {
            v.map_or(Content::Null, Content::U64)
        }
        Content::Map(vec![
            ("trace".to_string(), text(&self.id.to_string())),
            ("method".to_string(), text(self.method)),
            ("path".to_string(), text(self.path)),
            ("status".to_string(), Content::U64(self.status.into())),
            ("outcome".to_string(), text(self.outcome)),
            (
                "target".to_string(),
                self.target.map_or(Content::Null, text),
            ),
            ("wires".to_string(), num(self.wires.map(|w| w as u64))),
            (
                "strategy".to_string(),
                self.strategy.map_or(Content::Null, text),
            ),
            (
                "cache".to_string(),
                self.cache
                    .map_or(Content::Null, |hit| text(if hit { "hit" } else { "miss" })),
            ),
            ("expansions".to_string(), num(self.expansions)),
            ("queue_us".to_string(), num(self.queue_us)),
            ("engine_us".to_string(), num(self.engine_us)),
            ("total_us".to_string(), Content::U64(self.total_us)),
        ])
    }
}
