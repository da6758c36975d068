//! The transport layer: a threaded TCP accept loop routing the JSON
//! endpoints onto a [`HostRegistry`].
//!
//! ```text
//! /synthesize ── POST ─┐
//! /census ────── POST ─┤                  ┌─ EngineHost (unit costs)
//! /healthz ───── GET ──┼─► HostRegistry ──┼─ EngineHost (weighted …)
//! /stats ─────── GET ──┤                  └─ …
//! /metrics ───── GET ──┤
//! /debug/slow ── GET ──┤
//! /shutdown ──── POST ─┘
//! ```
//!
//! Connections are handed to a fixed worker pool over a channel;
//! each worker speaks sequential keep-alive HTTP/1.1. Shutdown (via
//! [`ServerHandle::shutdown`] or `POST /shutdown`) flips a flag and
//! nudges the blocking accept loop awake with a loopback connection, so
//! in-flight responses complete and the listener closes cleanly.
//!
//! Every request — including parse failures, panicked handlers, and
//! connections shed at the accept loop — finishes through
//! [`ServeObs::finish_request`], so it lands in the latency histograms
//! and emits exactly one structured trace line. Request ids are
//! deterministic ([`TraceId`]: worker index, connection serial, request
//! serial), never random, so replayed loads produce identical ids.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mvq_core::{CostModel, Narrow, SearchWidth, Strategy, Wide};
use mvq_obs::TraceId;

use crate::host::{EngineHost, HostError, HostRegistry};
use crate::http::{read_request, write_response, write_response_typed, Request};
use crate::json::{error_body, render, CensusRequest, SynthesizeReply, SynthesizeRequest};
use crate::obs::{ServeObs, TraceFields};

/// Per-connection read timeout: a stalled client cannot pin a worker.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Accept-queue depth per worker: connections beyond
/// `workers × QUEUE_DEPTH_PER_WORKER` are shed with an immediate 503 +
/// `Retry-After` instead of queueing unboundedly behind a slow flight.
const QUEUE_DEPTH_PER_WORKER: usize = 64;

/// Default cost bound for 4-wire requests that omit `cb` (both
/// endpoints): the wide frontier grows ~11× per unit-cost level, so the
/// 3-wire-calibrated admission limit is not a safe implicit default.
const WIDE_DEFAULT_CB: u32 = 4;

/// The `Content-Type` Prometheus scrapers expect from `/metrics`.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Recovers the guard of the worker-queue mutex. That mutex only guards
/// `Receiver::recv` and no code path can panic while holding it, so
/// poisoning is unreachable; centralising the recovery keeps the panic
/// to a single annotated site instead of scattering `expect` calls.
fn lock_intact<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // lint: allow(panic) queue mutex cannot be poisoned: recv() does not panic
    lock.lock().expect("worker queue intact")
}

/// Saturating microseconds (a request cannot plausibly span `u64::MAX`
/// µs, but the conversion from `u128` must not panic in serve code).
fn us(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// A bound, not-yet-running service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    registry: Arc<HostRegistry>,
    shutdown: Arc<AtomicBool>,
    started: Instant,
    obs: Arc<ServeObs>,
}

/// A remote control for a running [`Server`] (cloneable across
/// threads).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown: the accept loop stops taking
    /// connections, in-flight requests finish, workers drain and join.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Nudge the blocking accept awake.
        let _ = TcpStream::connect(wake_addr(self.addr));
    }
}

/// An address a local client can actually connect to in order to wake
/// the accept loop: wildcard binds (`0.0.0.0` / `::`) are not routable
/// as destinations everywhere, so substitute the matching loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`; port 0 picks a free port)
    /// over `registry`. This also installs the server's search probe on
    /// the registry, so engines created before *and* after the bind
    /// report their per-level timings into the server's metrics.
    ///
    /// # Errors
    ///
    /// Any socket-level bind failure.
    pub fn bind(addr: impl ToSocketAddrs, registry: Arc<HostRegistry>) -> io::Result<Self> {
        let obs = ServeObs::new(Arc::clone(registry.metrics()));
        registry.set_probe(obs.probe());
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            registry,
            shutdown: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            obs,
        })
    }

    /// The server's observability state: the metrics registry behind
    /// `GET /metrics`, the trace log, and the slow-request ring. Clone
    /// the `Arc` before [`Server::run`] to read metrics or install a
    /// trace sink from outside.
    pub fn obs(&self) -> Arc<ServeObs> {
        Arc::clone(&self.obs)
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Any socket-level failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle for this server.
    ///
    /// # Errors
    ///
    /// Any socket-level failure resolving the local address.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.listener.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
        })
    }

    /// Serves until shutdown, dispatching connections to `workers`
    /// handler threads. Blocks the calling thread.
    ///
    /// # Errors
    ///
    /// Only fatal listener errors; per-connection failures are dropped.
    pub fn run(self, workers: usize) -> io::Result<()> {
        let workers = workers.max(1);
        let ctx = Arc::new(Ctx {
            registry: self.registry,
            obs: self.obs,
            shutdown: Arc::clone(&self.shutdown),
            started: self.started,
            addr: self.listener.local_addr()?,
        });
        let (sender, receiver) = mpsc::sync_channel::<Conn>(workers * QUEUE_DEPTH_PER_WORKER);
        let receiver = Arc::new(Mutex::new(receiver));
        std::thread::scope(|scope| {
            // Worker ids start at 1; id 0 is the acceptor (its trace
            // lines are the overload sheds).
            for worker in 1..=workers {
                let worker = u32::try_from(worker).unwrap_or(u32::MAX);
                let receiver = Arc::clone(&receiver);
                let ctx = Arc::clone(&ctx);
                scope.spawn(move || loop {
                    let Ok(conn) = lock_intact(&receiver).recv() else {
                        return; // sender dropped: shutdown
                    };
                    // A handler that panics through the transport layer
                    // must not take the worker thread (and its queue
                    // slot) down with it; the poisoned host heals on the
                    // next request it sees.
                    let _ =
                        catch_unwind(AssertUnwindSafe(|| handle_connection(conn, worker, &ctx)));
                });
            }
            let mut next_conn = 0u64;
            for stream in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        next_conn += 1;
                        let conn = Conn {
                            stream,
                            id: next_conn,
                            enqueued: Instant::now(),
                        };
                        match sender.try_send(conn) {
                            Ok(()) => {}
                            Err(mpsc::TrySendError::Full(conn)) => shed_overload(conn, &ctx),
                            Err(mpsc::TrySendError::Disconnected(_)) => break,
                        }
                    }
                    Err(err) if err.kind() == io::ErrorKind::ConnectionAborted => {}
                    Err(_) => {}
                }
            }
            drop(sender); // workers drain the queue and exit
        });
        Ok(())
    }
}

/// An accepted connection in flight to a worker, stamped for queue-wait
/// attribution and trace-id assignment.
struct Conn {
    stream: TcpStream,
    /// Connection serial from the accept loop (the `c` in `w3-c12-r1`).
    id: u64,
    /// When the acceptor queued it (queue wait = dequeue − enqueue).
    enqueued: Instant,
}

struct Ctx {
    registry: Arc<HostRegistry>,
    obs: Arc<ServeObs>,
    shutdown: Arc<AtomicBool>,
    started: Instant,
    addr: SocketAddr,
}

/// Sheds a connection the worker queue has no room for: an immediate
/// best-effort 503 + `Retry-After` on the accept thread, without ever
/// reading the request (a slow client must not stall accepts).
fn shed_overload(conn: Conn, ctx: &Ctx) {
    ctx.obs.sheds_total.inc();
    let mut stream = conn.stream;
    let _ = stream.set_nodelay(true);
    let _ = write_response_typed(
        &mut stream,
        503,
        "application/json",
        &error_body("server overloaded: accept queue full; retry shortly"),
        false,
        &[("Retry-After", "1")],
    );
    let elapsed = us(conn.enqueued.elapsed());
    ctx.obs.finish_request(&TraceFields {
        id: TraceId {
            worker: 0,
            conn: conn.id,
            req: 0,
        },
        status: 503,
        queue_us: Some(elapsed),
        total_us: elapsed,
        ..TraceFields::default()
    });
}

fn handle_connection(conn: Conn, worker: u32, ctx: &Ctx) -> io::Result<()> {
    let Conn {
        stream,
        id: conn_id,
        enqueued,
    } = conn;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    // Responses are single-write and request/response strictly alternate;
    // Nagle + delayed ACK would add ~40 ms per round-trip for nothing.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Only the connection's first request carries the accept-queue wait;
    // later keep-alive requests never sat in that queue.
    let mut queue_us = Some(us(enqueued.elapsed()));
    let mut serial = 0u64;
    loop {
        serial += 1;
        let id = TraceId {
            worker,
            conn: conn_id,
            req: serial,
        };
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()), // client closed cleanly
            Err(err) => {
                // Bad framing or an oversized body: answer, and trace the
                // request with no method or path.
                let status = match err.kind() {
                    io::ErrorKind::InvalidData => 400,
                    io::ErrorKind::FileTooLarge => 413,
                    _ => return Err(err),
                };
                let result =
                    write_response(&mut writer, status, &error_body(&err.to_string()), false);
                ctx.obs.finish_request(&TraceFields {
                    id,
                    status,
                    queue_us: queue_us.take(),
                    ..TraceFields::default()
                });
                result?;
                return Ok(());
            }
        };
        let started = Instant::now();
        let keep_alive = request.keep_alive() && !ctx.shutdown.load(Ordering::SeqCst);
        let mut trace = TraceFields {
            id,
            method: Some(&request.method),
            path: Some(&request.path),
            queue_us: queue_us.take(),
            ..TraceFields::default()
        };
        // Contain handler panics (e.g. an engine panicking mid-expansion)
        // to this request: the client still gets a response, the
        // connection and worker survive, and the poisoned host rebuilds
        // itself when the next request touches it.
        let routed = catch_unwind(AssertUnwindSafe(|| route(&request, ctx, &mut trace)));
        let (status, body, shutdown_after) = routed.unwrap_or_else(|_| {
            trace.outcome = Some("error");
            (
                503,
                error_body("request handler panicked; the host is rebuilding, retry shortly"),
                false,
            )
        });
        let retry: &[(&str, &str)] = if status == 503 {
            &[("Retry-After", "1")]
        } else {
            &[]
        };
        let content_type = if status == 200 && request.path == "/metrics" {
            PROMETHEUS_CONTENT_TYPE
        } else {
            "application/json"
        };
        let write_result = write_response_typed(
            &mut writer,
            status,
            content_type,
            &body,
            keep_alive && !shutdown_after,
            retry,
        );
        trace.status = status;
        trace.total_us = us(started.elapsed());
        ctx.obs.finish_request(&trace);
        write_result?;
        if shutdown_after {
            ctx.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(wake_addr(ctx.addr)); // wake the accept loop
            return Ok(());
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Dispatches one request. Returns `(status, body, shutdown_after)`.
fn route(request: &Request, ctx: &Ctx, trace: &mut TraceFields<'_>) -> (u16, String, bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (
            200,
            format!(
                r#"{{"status":"ok","uptime_ms":{}}}"#,
                ctx.started.elapsed().as_millis()
            ),
            false,
        ),
        ("GET", "/metrics") => (200, ctx.obs.registry().render_prometheus(), false),
        ("GET", "/debug/slow") => {
            let lines: Vec<String> = ctx
                .obs
                .slow()
                .snapshot()
                .into_iter()
                .map(|entry| entry.line)
                .collect();
            (
                200,
                format!(r#"{{"slowest":[{}]}}"#, lines.join(",")),
                false,
            )
        }
        ("GET", "/stats") => match ctx.registry.stats() {
            Ok(all) => {
                let hosts: Vec<String> = all.iter().map(render).collect();
                (
                    200,
                    format!(
                        r#"{{"uptime_ms":{},"models":{},"sheds":{},"hosts":[{}],"metrics":{}}}"#,
                        ctx.started.elapsed().as_millis(),
                        hosts.len(),
                        ctx.obs.sheds_total.get(),
                        hosts.join(","),
                        ctx.obs.registry().render_json(),
                    ),
                    false,
                )
            }
            Err(err) => host_error(&err, trace),
        },
        ("POST", "/synthesize") => synthesize(request, ctx, trace),
        ("POST", "/census") => census(request, ctx, trace),
        ("POST", "/shutdown") => (200, r#"{"status":"shutting down"}"#.to_string(), true),
        ("GET" | "POST", _) => (404, error_body("no such endpoint"), false),
        _ => (405, error_body("method not allowed"), false),
    }
}

fn host_error(err: &HostError, trace: &mut TraceFields<'_>) -> (u16, String, bool) {
    let (status, outcome) = match err {
        HostError::CostBoundExceeded { .. } => (400, "invalid"),
        HostError::TooManyModels { .. } => (429, "invalid"),
        HostError::Poisoned | HostError::Engine(_) => (500, "error"),
        // A deadline shed is load, not failure: 503 so clients retry.
        HostError::DeadlineExceeded { .. } => (503, "timeout"),
    };
    trace.outcome = Some(outcome);
    (status, error_body(&err.to_string()), false)
}

fn resolve_model(spec: Option<crate::json::ModelSpec>) -> Result<CostModel, String> {
    spec.map_or(Ok(CostModel::unit()), crate::json::ModelSpec::to_model)
}

/// Validates the request's wire count; `Err` is the ready 400 reply.
fn validate_wires(wires: Option<usize>) -> Result<usize, (u16, String, bool)> {
    let wires = wires.unwrap_or(3);
    if (3..=4).contains(&wires) {
        Ok(wires)
    } else {
        Err((
            400,
            error_body(&format!(
                "unsupported wires {wires} (the service hosts 3 or 4)"
            )),
            false,
        ))
    }
}

/// Runs the synthesize body against a host of either width (the
/// target is parsed by the caller, before any host is created). A
/// request without an explicit `cb` gets `default_cb` capped to the
/// host's admission limit — an implicit bound must never be rejected
/// by admission.
fn synthesize_on<W: SearchWidth>(
    host: Result<Arc<EngineHost<W>>, HostError>,
    target: &mvq_perm::Perm,
    cb: Option<u32>,
    default_cb: u32,
    strategy: Strategy,
    deadline_ms: Option<u64>,
    trace: &mut TraceFields<'_>,
) -> (u16, String, bool) {
    let host = match host {
        Ok(host) => host,
        Err(err) => return host_error(&err, trace),
    };
    let cb = cb.unwrap_or_else(|| default_cb.min(host.cost_bound_limit()));
    let engine_started = Instant::now();
    let result = host.synthesize_traced(target, cb, strategy, deadline_ms);
    trace.engine_us = Some(us(engine_started.elapsed()));
    match result {
        Ok((synthesis, served)) => {
            trace.strategy = Some(served.resolved.as_str());
            trace.cache = Some(served.cache_hit);
            trace.expansions = Some(served.expansions);
            (200, render(&SynthesizeReply { cb, synthesis }), false)
        }
        Err(err) => host_error(&err, trace),
    }
}

fn synthesize(request: &Request, ctx: &Ctx, trace: &mut TraceFields<'_>) -> (u16, String, bool) {
    let body = String::from_utf8_lossy(&request.body);
    let parsed: SynthesizeRequest = match serde_json::from_str(&body) {
        Ok(parsed) => parsed,
        Err(err) => return (400, error_body(&err.to_string()), false),
    };
    trace.target = Some(parsed.target.clone());
    let model = match resolve_model(parsed.model) {
        Ok(model) => model,
        Err(detail) => return (400, error_body(&detail), false),
    };
    let wires = match validate_wires(parsed.wires) {
        Ok(wires) => wires,
        Err(reply) => return reply,
    };
    trace.wires = Some(wires);
    let strategy = match parsed.strategy.as_deref().map(str::parse) {
        None => Strategy::Auto,
        Some(Ok(strategy)) => strategy,
        Some(Err(detail)) => return (400, error_body(&detail), false),
    };
    // The requested strategy; `synthesize_on` overwrites this with the
    // resolved one (`auto` → `uni`/`bidi`) once the host reports it.
    trace.strategy = Some(strategy.as_str());
    // Validate the target before resolving a host: a malformed request
    // must not cost a model-cap slot on a cold registry.
    let target = match mvq_core::known::parse_target_on(&parsed.target, 1 << wires) {
        Ok(target) => target,
        Err(detail) => return (400, error_body(&detail), false),
    };
    if wires == 4 {
        // The admission limit is calibrated to 3-wire growth (the
        // paper's bound of 7); the 4-wire frontier grows ~11× per
        // level, so an *implicit* bound stays shallow — clients must
        // ask for deep wide expansions explicitly.
        synthesize_on(
            ctx.registry.host_for::<Wide>(model),
            &target,
            parsed.cb,
            WIDE_DEFAULT_CB,
            strategy,
            parsed.deadline_ms,
            trace,
        )
    } else {
        synthesize_on(
            ctx.registry.host_for::<Narrow>(model),
            &target,
            parsed.cb,
            u32::MAX,
            strategy,
            parsed.deadline_ms,
            trace,
        )
    }
}

/// Runs the census body against a host of either width.
fn census_on<W: SearchWidth>(
    host: Result<Arc<EngineHost<W>>, HostError>,
    parsed: &CensusRequest,
    default_cb: u32,
    trace: &mut TraceFields<'_>,
) -> (u16, String, bool) {
    let host = match host {
        Ok(host) => host,
        Err(err) => return host_error(&err, trace),
    };
    // An explicit bound goes through admission like /synthesize (over
    // the limit → 400); only the default is capped by the limit.
    let cb = parsed
        .cb
        .unwrap_or_else(|| default_cb.min(host.cost_bound_limit()));
    let engine_started = Instant::now();
    let result = host.census_traced(cb);
    trace.engine_us = Some(us(engine_started.elapsed()));
    match result {
        Ok((reply, served)) => {
            trace.strategy = Some(served.resolved.as_str());
            trace.cache = Some(served.cache_hit);
            trace.expansions = Some(served.expansions);
            (200, render(&reply), false)
        }
        Err(err) => host_error(&err, trace),
    }
}

fn census(request: &Request, ctx: &Ctx, trace: &mut TraceFields<'_>) -> (u16, String, bool) {
    let body = String::from_utf8_lossy(&request.body);
    let body = if body.trim().is_empty() {
        "{}".into()
    } else {
        body
    };
    let parsed: CensusRequest = match serde_json::from_str(&body) {
        Ok(parsed) => parsed,
        Err(err) => return (400, error_body(&err.to_string()), false),
    };
    let model = match resolve_model(parsed.model) {
        Ok(model) => model,
        Err(detail) => return (400, error_body(&detail), false),
    };
    match validate_wires(parsed.wires) {
        Ok(wires) => {
            trace.wires = Some(wires);
            if wires == 4 {
                census_on(
                    ctx.registry.host_for::<Wide>(model),
                    &parsed,
                    WIDE_DEFAULT_CB,
                    trace,
                )
            } else {
                census_on(ctx.registry.host_for::<Narrow>(model), &parsed, 6, trace)
            }
        }
        Err(reply) => reply,
    }
}
