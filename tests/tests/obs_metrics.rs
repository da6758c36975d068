//! Observability contract suite: the log2 histogram's quantile bounds
//! against an exact sorted-vector reference, and the `/metrics` ↔
//! `/stats` ↔ trace-line agreement of a live server under concurrent
//! clients — every request must show up once in each view, with the
//! same counts.

use mvq_obs::{parse_scrape, Histogram, LogLevel};
use mvq_serve::{HostConfig, HostRegistry};
use mvq_tests::{request, RunningServer, SharedSink};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Histogram quantile bounds vs. an exact reference.
// ---------------------------------------------------------------------

/// Nearest-rank quantile on the raw samples: the ground truth the
/// bucketed histogram must bracket.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn histogram_brackets_the_exact_quantiles(
        values in prop::collection::vec(0u64..50_000_000, 1..300),
        q_percent in 1u32..100,
    ) {
        let q = f64::from(q_percent) / 100.0;
        let histogram = Histogram::new();
        for &v in &values {
            histogram.record(v);
        }
        let snap = histogram.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());

        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [q, 0.5, 0.9, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let (lower, upper) = snap.quantile_bounds(q);
            prop_assert!(
                lower <= exact && exact <= upper,
                "q={q}: exact {exact} outside bucket [{lower}, {upper}]"
            );
            // The reported (conservative) quantile is the bucket's upper
            // bound, so it never understates the exact value.
            prop_assert!(snap.quantile(q) >= exact);
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values(value in 0u64..u64::MAX) {
        let index = Histogram::bucket_index(value);
        prop_assert!(Histogram::bucket_lower_bound(index) <= value);
        prop_assert!(value <= Histogram::bucket_upper_bound(index));
    }
}

// ---------------------------------------------------------------------
// Live-server agreement: /metrics == /stats == trace lines.
// ---------------------------------------------------------------------

/// A running server whose trace lines land in `sink`.
fn traced_server(registry: HostRegistry, workers: usize, sink: &SharedSink) -> RunningServer {
    let server = RunningServer::start(registry, workers);
    server.obs().trace().set_sink(Box::new(sink.clone()));
    server.obs().trace().set_level(LogLevel::Info);
    server
}

/// The scripted per-client workload: six requests that succeed — one on
/// a second, weighted cost model — and one malformed body that must
/// still be traced.
const CLIENT_SCRIPT: [(&str, &str, &str, u16); 7] = [
    ("POST", "/synthesize", r#"{"target":"(7,8)","cb":6}"#, 200),
    ("POST", "/synthesize", r#"{"target":"(7,8)","cb":6}"#, 200),
    (
        "POST",
        "/synthesize",
        r#"{"target":"(5,7,6,8)","cb":5}"#,
        200,
    ),
    ("POST", "/census", r#"{"cb":3}"#, 200),
    (
        "POST",
        "/synthesize",
        r#"{"target":"(5,7)(6,8)","cb":3,"model":{"v":1,"v_dagger":1,"feynman":3}}"#,
        200,
    ),
    ("GET", "/healthz", "", 200),
    ("POST", "/synthesize", "definitely not json", 400),
];

#[test]
fn metrics_stats_and_trace_lines_agree_under_concurrent_clients() {
    const CLIENTS: usize = 8;
    let sink = SharedSink::default();
    let server = traced_server(HostRegistry::new(HostConfig::default()), 4, &sink);

    let addr = server.addr();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(move || {
                for (method, path, body, want) in CLIENT_SCRIPT {
                    let (status, _, body_out) = request(addr, method, path, body);
                    assert_eq!(status, want, "{method} {path}: {body_out}");
                }
            });
        }
    });
    let traffic = CLIENTS * CLIENT_SCRIPT.len();

    // Scrape after the clients quiesce, so the counter identity is
    // exact. The /metrics body is rendered before its own request is
    // counted, so it sees precisely the client traffic.
    let (status, _, metrics_body) = server.request("GET", "/metrics", "");
    assert_eq!(status, 200, "{metrics_body}");
    let scrape = parse_scrape(&metrics_body);
    // A miss is any query the cached levels did not answer — including
    // deep bidirectional answers that expand nothing.
    assert!(
        metrics_body.contains(
            "# HELP cache_misses_total Queries not answered from the cached levels \
             (expanded, waited on another request's expansion, or served bidirectionally)"
        ),
        "{metrics_body}"
    );
    // Each counter's total over its series: the host counters carry one
    // series per (wires, model).
    let counter = |name: &str| {
        scrape
            .counter_sum(name)
            .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{metrics_body}"))
    };
    assert_eq!(counter("http_requests_total"), traffic as u64);
    assert_eq!(counter("synthesize_requests_total"), (CLIENTS * 4) as u64);
    let series = |model: &str| {
        let name = format!(r#"synthesize_requests_total{{wires="3",model="{model}"}}"#);
        scrape.counters.get(&name).copied()
    };
    assert_eq!(
        series("1,1,1"),
        Some((CLIENTS * 3) as u64),
        "{metrics_body}"
    );
    assert_eq!(series("1,1,3"), Some(CLIENTS as u64), "{metrics_body}");
    assert_eq!(counter("census_requests_total"), CLIENTS as u64);
    assert_eq!(counter("sheds_total"), 0);
    assert!(counter("expansions_total") > 0, "cold engine must expand");
    // Every host-level synthesis either hit or missed the result cache.
    assert_eq!(
        counter("cache_hits_total") + counter("cache_misses_total"),
        counter("synthesize_requests_total") + counter("census_requests_total"),
    );
    let request_hist = &scrape.histograms["request_us"];
    assert_eq!(request_hist.count, traffic as u64);

    // /stats must embed the very same registry: every counter's total
    // over its series appears verbatim in its "metrics" object (the
    // request counters have moved by the /metrics request itself, so
    // compare only the host-derived ones, which are quiescent).
    let (status, _, stats_body) = server.request("GET", "/stats", "");
    assert_eq!(status, 200, "{stats_body}");
    for name in [
        "synthesize_requests_total",
        "census_requests_total",
        "cache_hits_total",
        "cache_misses_total",
        "expansions_total",
        "single_flight_waits_total",
        "rejected_requests_total",
        "rebuilds_total",
        "deadline_timeouts_total",
        "sheds_total",
    ] {
        let needle = format!("\"{name}\":{}", counter(name));
        assert!(
            stats_body.contains(&needle),
            "/stats disagrees with /metrics on {needle}:\n{stats_body}"
        );
    }

    // /debug/slow serves retained trace lines.
    let (status, _, slow_body) = server.request("GET", "/debug/slow", "");
    assert_eq!(status, 200, "{slow_body}");
    assert!(slow_body.starts_with(r#"{"slowest":["#), "{slow_body}");

    server.shutdown();

    // Exactly one trace line per request — the client traffic plus the
    // three inspection requests above — each with a unique id.
    let lines = sink.lines();
    assert_eq!(lines.len(), traffic + 3, "{lines:#?}");
    let ids: std::collections::BTreeSet<&str> = lines
        .iter()
        .map(|l| {
            l.split_once(r#""trace":""#)
                .and_then(|(_, rest)| rest.split_once('"'))
                .map(|(id, _)| id)
                .unwrap_or_else(|| panic!("no trace id in {l}"))
        })
        .collect();
    assert_eq!(ids.len(), lines.len(), "trace ids must be unique");
    let count_with = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
    assert_eq!(count_with(r#""outcome":"ok""#), CLIENTS * 6 + 3);
    assert_eq!(count_with(r#""outcome":"invalid""#), CLIENTS);
    // The malformed-body lines keep the full schema, nulls included.
    assert_eq!(count_with(r#""target":null"#), CLIENTS * 2 + 3 + CLIENTS);
}

#[test]
fn trace_level_off_emits_nothing() {
    let sink = SharedSink::default();
    let server = traced_server(HostRegistry::new(HostConfig::default()), 1, &sink);
    server.obs().trace().set_level(LogLevel::Off);
    let (status, _, _) = server.request("GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
    assert!(sink.lines().is_empty(), "{:#?}", sink.lines());
}
