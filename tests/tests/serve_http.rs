//! HTTP smoke suite: boots the real `mvq_serve` server on a loopback
//! port and speaks raw HTTP/1.1 to it over `TcpStream` — the in-repo
//! version of the CI serve-smoke job (known Toffoli answer, health
//! probe, clean shutdown), plus the server-side `request_us` p99 SLO on
//! a snapshot-warm 8-client mix. Every found `/synthesize` answer, on
//! either width and through any strategy, is parsed back from its
//! rendered circuit and re-verified against the requested permutation
//! through `mvq_sim`'s exact unitary.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mvq_core::SynthesisEngine;
use mvq_serve::{HostConfig, HostRegistry};
use mvq_tests::RunningServer;

#[test]
fn endpoints_answer_known_results() {
    let server = RunningServer::start(HostRegistry::new(HostConfig::default()), 2);

    let (status, _, body) = server.request("GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // The known Toffoli answer: cost 5, 4 minimal implementations.
    let (status, _, body) = server.request("POST", "/synthesize", r#"{"target":"(7,8)","cb":6}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"found\":true"), "{body}");
    assert!(body.contains("\"cost\":5"), "{body}");
    assert!(body.contains("\"implementation_count\":4"), "{body}");

    // Verified Table 2 prefix through the service.
    let (status, _, body) = server.request("POST", "/census", r#"{"cb":3}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"g_counts\":[1,6,24,51]"), "{body}");

    // An unreachable bound is a definitive not-found, not an error.
    let (status, _, body) = server.request("POST", "/synthesize", r#"{"target":"(7,8)","cb":4}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"found\":false"), "{body}");

    // Weighted-model routing spins up a second host.
    let (status, _, body) = server.request(
        "POST",
        "/synthesize",
        r#"{"target":"(5,7,6,8)","cb":8,"model":{"v":2,"v_dagger":2,"feynman":1}}"#,
    );
    assert_eq!(status, 400, "{body}"); // cb 8 over the admission limit
    let (status, _, body) = server.request(
        "POST",
        "/synthesize",
        r#"{"target":"(5,7,6,8)","cb":7,"model":{"v":2,"v_dagger":2,"feynman":1}}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cost\":7"), "{body}");

    let (status, _, body) = server.request("GET", "/stats", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"models\":2"), "{body}");
    assert!(body.contains("\"cache_hits\""), "{body}");

    server.shutdown();
}

#[test]
fn four_wire_requests_route_to_the_wide_host() {
    let server = RunningServer::start(
        HostRegistry::new(HostConfig {
            max_cost_bound: 3,
            ..HostConfig::default()
        }),
        2,
    );

    // The 4-wire CNOT D ^= A: cost 1 through the wide host.
    let (status, _, body) = server.request(
        "POST",
        "/synthesize",
        r#"{"target":"(9,10)(11,12)(13,14)(15,16)","wires":4,"cb":2}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"found\":true"), "{body}");
    assert!(body.contains("\"cost\":1"), "{body}");

    // A defaulted (no-cb) wide request clamps its implicit bound to
    // the host's admission limit (3 here) instead of being rejected.
    let (status, _, body) = server.request(
        "POST",
        "/synthesize",
        r#"{"target":"(9,10)(11,12)(13,14)(15,16)","wires":4}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cb\":3"), "{body}");
    assert!(body.contains("\"cost\":1"), "{body}");

    // The 4-wire census prefix.
    let (status, _, body) = server.request("POST", "/census", r#"{"wires":4,"cb":2}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"g_counts\":[1,12,96]"), "{body}");

    // A 4-wire target given without wires: rejected as a 3-wire parse.
    let (status, _, body) = server.request(
        "POST",
        "/synthesize",
        r#"{"target":"(9,10)(11,12)(13,14)(15,16)","cb":2}"#,
    );
    assert_eq!(status, 400, "{body}");

    // Unsupported wire counts are a clean 400.
    let (status, _, body) = server.request("POST", "/census", r#"{"wires":5,"cb":2}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unsupported wires"), "{body}");

    // Malformed requests never created a host: only the wide one is
    // live so far (a bad target must not cost a model-cap slot).
    let (status, _, body) = server.request("GET", "/stats", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"models\":1"), "{body}");
    assert!(!body.contains("\"wires\":3"), "{body}");

    // A valid 3-wire request spins up the narrow host alongside.
    let (status, _, body) = server.request("POST", "/synthesize", r#"{"target":"(7,8)","cb":2}"#);
    assert_eq!(status, 200, "{body}");

    // Stats label each host with its wire count.
    let (status, _, body) = server.request("GET", "/stats", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"wires\":3"), "{body}");
    assert!(body.contains("\"wires\":4"), "{body}");

    server.shutdown();
}

#[test]
fn oversized_content_length_gets_413_before_any_body_read() {
    let server = RunningServer::start(HostRegistry::new(HostConfig::default()), 2);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    // Declare a 100 MiB body (over the 1 MiB cap) but send none: the
    // strict validator must answer 413 immediately instead of waiting
    // on (or allocating for) the declared body.
    stream
        .write_all(b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: 104857600\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");

    // A signed Content-Length is malformed: 400.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"POST /census HTTP/1.1\r\nHost: t\r\nContent-Length: +2\r\n\r\n{}")
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");

    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_disconnects() {
    // A tight admission limit keeps the default-census check cheap.
    let server = RunningServer::start(
        HostRegistry::new(HostConfig {
            max_cost_bound: 3,
            ..HostConfig::default()
        }),
        2,
    );
    let (status, _, body) = server.request("POST", "/synthesize", "this is not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("error"), "{body}");
    let (status, _, _) = server.request("POST", "/synthesize", r#"{"cb":3}"#);
    assert_eq!(status, 400);
    let (status, _, _) = server.request("POST", "/synthesize", r#"{"target":"(1,9)"}"#);
    assert_eq!(status, 400);
    let (status, _, _) = server.request(
        "POST",
        "/synthesize",
        r#"{"target":"(7,8)","model":{"v":0,"v_dagger":1,"feynman":1}}"#,
    );
    assert_eq!(status, 400);
    let (status, _, _) = server.request("GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = server.request("DELETE", "/healthz", "");
    assert_eq!(status, 405);
    // Explicit census bounds go through admission like /synthesize.
    let (status, _, body) = server.request("POST", "/census", r#"{"cb":9}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("admission limit"), "{body}");
    // …while the bodyless default is capped by the limit, not rejected.
    let (status, _, body) = server.request("POST", "/census", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cb\":3"), "{body}");
    server.shutdown();
}

/// The snapshot-warm request mix: warm lookups over a spread of targets,
/// two cost-7 targets served past the warm frontier (one forced
/// bidirectional, one through the `auto` planner), a census read and a
/// health probe.
const WARM_MIX: [(&str, &str, &str); 8] = [
    ("POST", "/synthesize", r#"{"target":"(7,8)","cb":6}"#),
    ("POST", "/synthesize", r#"{"target":"(5,7,6,8)","cb":5}"#),
    ("POST", "/synthesize", r#"{"target":"(5,7)(6,8)","cb":3}"#),
    ("POST", "/synthesize", r#"{"target":"(2,3)(5,8)","cb":5}"#),
    (
        "POST",
        "/synthesize",
        r#"{"target":"(6,7)","cb":7,"strategy":"bidi"}"#,
    ),
    (
        "POST",
        "/synthesize",
        r#"{"target":"(3,5)(4,6,8)","cb":7,"strategy":"auto"}"#,
    ),
    ("POST", "/census", r#"{"cb":5}"#),
    ("GET", "/healthz", ""),
];

/// Server-side SLO: `request_us` p99 over the 8-client warm mix, as the
/// server's own `/metrics` scrape reports it.
const REQUEST_P99_SLO_US: u64 = 250_000;

#[test]
fn snapshot_backed_server_answers_without_expansion() {
    // Pre-build a warm snapshot, boot the service from it, and check the
    // Toffoli answer is served with zero expansions.
    let mut warm = SynthesisEngine::unit_cost();
    warm.expand_to_cost(5);
    let path = std::env::temp_dir().join(format!("mvq_serve_http_{}.snap", std::process::id()));
    warm.save_snapshot(&path).expect("write snapshot");

    let registry = HostRegistry::new(HostConfig::default());
    let engine = SynthesisEngine::load_snapshot(&path).expect("load snapshot");
    registry.install(engine).expect("install");
    let server = RunningServer::start(registry, 4);

    let (status, _, body) = server.request("POST", "/synthesize", r#"{"target":"(7,8)","cb":6}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cost\":5"), "{body}");
    let (status, _, body) = server.request("GET", "/stats", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"expansions\":0"), "{body}");
    assert!(body.contains("\"completed\":5"), "{body}");

    // Eight clients on four workers, each walking the whole mix from its
    // own offset: every reply is 200, the snapshot answers everything
    // without expanding, and the server's own p99 stays inside the SLO.
    std::thread::scope(|scope| {
        for client in 0..8 {
            let server = &server;
            scope.spawn(move || {
                for i in 0..WARM_MIX.len() {
                    let (method, path, body) = WARM_MIX[(client + i) % WARM_MIX.len()];
                    let (status, _, reply) = server.request(method, path, body);
                    assert_eq!(status, 200, "{method} {path} {body}: {reply}");
                }
            });
        }
    });
    let (status, _, body) = server.request("GET", "/metrics", "");
    assert_eq!(status, 200);
    let scrape = mvq_obs::parse_scrape(&body);
    assert_eq!(scrape.counter_sum("expansions_total"), Some(0), "{body}");
    let p99 = scrape.histograms["request_us"].quantile(0.99);
    assert!(
        p99 <= REQUEST_P99_SLO_US,
        "server-side request_us p99 {p99} µs over the {REQUEST_P99_SLO_US} µs SLO"
    );

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let server = RunningServer::start(HostRegistry::new(HostConfig::default()), 2);
    let addr = server.addr();
    let (status, _, body) = server.request("POST", "/shutdown", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("shutting down"), "{body}");
    // The run loop exits; joining must not hang.
    server.join();
    // New connections are no longer served.
    std::thread::sleep(Duration::from_millis(50));
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err();
    assert!(refused, "listener still accepting after shutdown");
}
