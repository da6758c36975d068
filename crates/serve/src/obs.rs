//! Server-side observability: the metrics registry, structured request
//! tracing, and the search-probe wiring.
//!
//! One [`ServeObs`] lives behind each [`crate::Server`]. It registers the
//! transport's metrics in the [`crate::HostRegistry`]'s `mvq_obs`
//! registry, where every host already keeps its counters and engine
//! gauges as series labelled by `(wires, model)`; `GET /metrics` and the
//! `"metrics"` object of `GET /stats` are two renderings of that one
//! table, so the endpoints cannot drift apart, and neither takes a host
//! or engine lock. It also owns the levelled trace log (one JSON line
//! per request at `info`), the slowest-requests ring served at
//! `GET /debug/slow`, and the [`RegistryProbe`] every hosted engine
//! reports into.

use std::fmt;
use std::sync::Arc;

use mvq_obs::{
    Counter, Histogram, LogLevel, ProbeHandle, Registry, RegistryProbe, SlowRing, TraceId, TraceLog,
};
use serde::{Content, Serialize};

use crate::json::render;

/// How many of the slowest requests `GET /debug/slow` retains.
const SLOW_RING_CAP: usize = 32;

/// The server's observability state (see the module docs).
pub struct ServeObs {
    registry: Arc<Registry>,
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
    /// An observability bundle with the serve metric family and the
    /// search-probe metric family registered in `registry`.
    pub(crate) fn new(registry: Arc<Registry>) -> Arc<Self> {
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

    /// The single per-request completion point: counts the response,
    /// records the latency histograms, offers the line to the slow
    /// ring, and emits it at `info`. Called exactly once per request —
    /// including parse failures, overload sheds, and panicked handlers.
    pub(crate) fn finish_request(&self, fields: &TraceFields<'_>) {
        self.http_requests_total.inc();
        self.request_us.record(fields.total_us);
        match fields.path {
            Some("/synthesize") => self.synthesize_us.record(fields.total_us),
            Some("/census") => self.census_us.record(fields.total_us),
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

/// Everything one request's trace line carries. The handlers fill in
/// what applies to their endpoint; the rest renders as JSON `null`, so
/// every line has the same schema (documented in the README's
/// Observability section).
#[derive(Default)]
pub(crate) struct TraceFields<'a> {
    /// Deterministic request id (`w3-c12-r1`).
    pub id: TraceId,
    /// Request method (`None`, rendered `-`, when the request never
    /// parsed).
    pub method: Option<&'a str>,
    /// Request path (`None`, rendered `-`, when the request never
    /// parsed).
    pub path: Option<&'a str>,
    /// Response status code.
    pub status: u16,
    /// `ok` / `invalid` / `timeout` / `error` / `shed`; `None` takes
    /// the class the status implies (a 503 can be a deadline `timeout`
    /// or a panic `error`, so handlers may say which).
    pub outcome: Option<&'static str>,
    /// The synthesize target, verbatim from the request.
    pub target: Option<String>,
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

/// The outcome class a status code implies when no handler said
/// otherwise.
fn outcome_for(status: u16) -> &'static str {
    match status {
        200..=299 => "ok",
        500 => "error",
        503 => "shed",
        _ => "invalid",
    }
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
            ("method".to_string(), text(self.method.unwrap_or("-"))),
            ("path".to_string(), text(self.path.unwrap_or("-"))),
            ("status".to_string(), Content::U64(self.status.into())),
            (
                "outcome".to_string(),
                text(self.outcome.unwrap_or_else(|| outcome_for(self.status))),
            ),
            (
                "target".to_string(),
                self.target.as_deref().map_or(Content::Null, text),
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
