//! The serving workloads: an in-process `mvq_serve::Server` on a
//! loopback port, driven by closed-loop keep-alive clients from this
//! process (each client sends its next request only after the reply to
//! the previous one). The server runs one worker per client, so no
//! connection ever queues behind another client's session; its engines
//! use the thread count the caller passes ([`serve_threads`]).

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mvq_core::SynthesisEngine;
use mvq_serve::{HostConfig, HostRegistry, HostStats, Server, ServerHandle};

use crate::check::Replies;
use crate::client::Client;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::oracle::{warm_snapshot, Oracle, WARM_COST};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::traffic::{Catalogue, ColdTraffic, Kind, WarmTraffic};

/// Fresh-server segments per warm run; `setup_s` is their median.
const WARM_SEGMENTS: usize = 6;
/// Cold cycles a run always completes, however short `--seconds` is.
const MIN_COLD_CYCLES: usize = 3;

/// A server running on its own thread.
pub struct Running {
    pub registry: Arc<HostRegistry>,
    pub handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl Running {
    pub fn start(registry: Arc<HostRegistry>, workers: usize) -> io::Result<Self> {
        let server = Server::bind("127.0.0.1:0", Arc::clone(&registry))?;
        let handle = server.handle()?;
        let thread = std::thread::spawn(move || server.run(workers));
        Ok(Self {
            registry,
            handle,
            thread,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Shuts the server down and waits for its workers to exit.
    pub fn stop(self) -> io::Result<Vec<HostStats>> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))??;
        self.registry
            .stats()
            .map_err(|err| io::Error::other(err.to_string()))
    }
}

/// Engine threads of the in-process servers: one fewer than the cores,
/// which the clients and the server's workers also need. On a 2-vCPU
/// VM, five interleaved pairs of `serve_warm` runs gave p99 231–252 µs
/// with 1-thread engines against 434–498 µs with 2-thread ones; and the
/// cold cycles' peak memory, which depends on how the two hosts'
/// parallel expansions overlap, spread by 18 % across five seeds with
/// 2-thread engines against 1.4 % with 1-thread ones.
pub fn serve_threads(cores: usize) -> usize {
    cores.saturating_sub(1).max(1)
}

pub fn host_config(threads: usize) -> HostConfig {
    HostConfig {
        threads,
        ..HostConfig::default()
    }
}

/// Snapshot load, host install and bind: a warm server ready to serve.
pub fn start_warm(snapshot: &Path, threads: usize, workers: usize) -> io::Result<Running> {
    let engine = SynthesisEngine::load_snapshot_with_threads(snapshot, threads)
        .map_err(|err| io::Error::other(err.to_string()))?;
    let registry = Arc::new(HostRegistry::new(host_config(threads)));
    registry
        .install(engine)
        .map_err(|err| io::Error::other(err.to_string()))?;
    Running::start(registry, workers)
}

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    pub latency_us: BTreeMap<Kind, Samples>,
    pub ok: u64,
    pub failed: u64,
    pub replies: Replies,
    pub sent: Vec<usize>,
    pub finished: Option<Instant>,
    pub last_climb: Option<Instant>,
}

/// Room reserved per latency sample list: the lists never reallocate,
/// so the process's peak memory follows the request count smoothly
/// instead of jumping wherever a doubling lands.
const LATENCY_CAPACITY: usize = 1 << 22;
/// Shapes kept per log for the report.
const SENT_KEPT: usize = 12;

impl ClientLog {
    fn latencies(&mut self, kind: Kind) -> &mut Samples {
        self.latency_us
            .entry(kind)
            .or_insert_with(|| Samples::with_capacity(LATENCY_CAPACITY))
    }

    pub fn all_latencies(&self) -> Samples {
        let total = self.latency_us.values().map(Samples::len).sum();
        let mut all = Samples::with_capacity(total);
        for samples in self.latency_us.values() {
            all.extend(samples);
        }
        all
    }

    pub fn merge(&mut self, other: ClientLog) {
        for (kind, samples) in other.latency_us {
            self.latencies(kind).extend(&samples);
        }
        self.ok += other.ok;
        self.failed += other.failed;
        self.replies.merge(other.replies);
        let room = SENT_KEPT.saturating_sub(self.sent.len());
        self.sent.extend(other.sent.into_iter().take(room));
        self.finished = self.finished.max(other.finished);
        self.last_climb = self.last_climb.max(other.last_climb);
    }
}

/// Sends shapes from `next` over one connection until it returns `None`.
/// With a tracer, each request gets a span whose request id is
/// `client << 32 | serial`.
fn drive(
    client: &mut Client,
    catalogue: &Catalogue,
    mut next: impl FnMut() -> Option<usize>,
    trace: Option<(&Tracer, u64)>,
) -> io::Result<ClientLog> {
    let mut log = ClientLog::default();
    let mut serial = 0u64;
    while let Some(shape) = next() {
        let kind = catalogue.shapes[shape].kind;
        serial += 1;
        let span = trace.map(|(tracer, client)| {
            tracer.open(
                format!("http.{}", kind.name()),
                None,
                Some(client << 32 | serial),
            )
        });
        let reply = client.exchange(&catalogue.shapes[shape].request);
        if let (Some((tracer, _)), Some(span)) = (trace, span) {
            tracer.close(span);
        }
        let reply = reply?;
        log.latencies(kind).push(reply.latency.as_secs_f64() * 1e6);
        if log.sent.len() < SENT_KEPT {
            log.sent.push(shape);
        }
        if reply.status == 200 {
            log.ok += 1;
            log.replies.record(shape, &reply.body);
        } else {
            log.failed += 1;
        }
        if kind == Kind::Climb {
            log.last_climb = Some(Instant::now());
        }
    }
    log.finished = Some(Instant::now());
    Ok(log)
}

/// Runs one client per entry of `orders` concurrently against `addr`;
/// all connect first, then start together. Returns the merged log and
/// the common start instant.
fn run_clients<F>(
    addr: SocketAddr,
    catalogue: &Catalogue,
    orders: Vec<F>,
    tracer: Option<&Tracer>,
) -> io::Result<(ClientLog, Instant)>
where
    F: FnMut() -> Option<usize> + Send,
{
    let barrier = Barrier::new(orders.len() + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = orders
            .into_iter()
            .enumerate()
            .map(|(c, order)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let client = Client::connect(addr);
                    barrier.wait();
                    let trace = tracer.map(|t| (t, c as u64 + 1));
                    drive(&mut client?, catalogue, order, trace)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut merged = ClientLog::default();
        for worker in workers {
            let log = worker
                .join()
                .map_err(|_| io::Error::other("client thread panicked"))??;
            merged.merge(log);
        }
        Ok((merged, start))
    })
}

/// The warm mix for `seconds` against a running warm server.
pub fn warm_mix(
    running: &Running,
    traffic: &WarmTraffic,
    seed: u64,
    clients: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> io::Result<(ClientLog, Duration)> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let orders: Vec<_> = (0..clients)
        .map(|c| {
            let mut rng = Rng::fork(seed, 100 + c as u64);
            move || (Instant::now() < deadline).then(|| traffic.next(&mut rng))
        })
        .collect();
    let (log, start) = run_clients(running.addr(), &traffic.catalogue, orders, tracer)?;
    let elapsed = log.finished.map_or(Duration::ZERO, |end| end - start);
    Ok((log, elapsed))
}

/// One request of each kind, so lazily built state (the bidirectional
/// join indexes) exists before anything is timed.
pub fn warm_up(running: &Running, traffic: &WarmTraffic) -> io::Result<()> {
    let mut client = Client::connect(running.addr())?;
    for kind in [Kind::Hit, Kind::Deep, Kind::Census, Kind::Health] {
        let shape = traffic.shapes_of(kind)[0];
        let reply = client.exchange(&traffic.catalogue.shapes[shape].request)?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "warm-up {} got {}",
                kind.name(),
                reply.status
            )));
        }
    }
    Ok(())
}

/// The `serve_warm` workload: [`WARM_SEGMENTS`] segments, each on a
/// freshly started server with fresh client threads and connections,
/// so one run samples several thread placements; the segments' requests
/// are pooled.
pub fn warm(
    seed: u64,
    seconds: f64,
    threads: usize,
    clients: usize,
    dir: &Path,
) -> io::Result<Outcome> {
    let oracle = Oracle::prepare(dir)?;
    let traffic = WarmTraffic::generate(&oracle, seed);
    let snapshot = warm_snapshot(dir);
    let mut setup = Samples::new();
    let mut log = ClientLog::default();
    let mut elapsed = Duration::ZERO;
    let mut expansions = 0;
    for segment in 0..WARM_SEGMENTS {
        let started = Instant::now();
        let running = start_warm(&snapshot, threads, clients)?;
        warm_up(&running, &traffic)?;
        setup.push(started.elapsed().as_secs_f64());
        let stream = seed.wrapping_add(segment as u64 * 7919);
        let (part, took) = warm_mix(
            &running,
            &traffic,
            stream,
            clients,
            seconds / WARM_SEGMENTS as f64,
            None,
        )?;
        expansions += running.stop()?.iter().map(|s| s.expansions).sum::<u64>();
        log.merge(part);
        elapsed += took;
    }
    let mut out = Outcome::default();
    finish(&mut out, &log, &traffic.catalogue);
    if expansions != 0 {
        out.failed += 1;
        out.note(format!("FAILED the warm host expanded {expansions} levels"));
    }
    let mut all = log.all_latencies();
    out.set("setup_s", setup.median());
    out.set("latency_p50_us", all.median());
    out.set("latency_p99_us", all.percentile(0.99));
    out.set("ops_per_s", log.ok as f64 / elapsed.as_secs_f64());
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(format!(
        "clients={clients} workers={clients} threads={threads} loop=closed snapshot=cost{WARM_COST} segments={WARM_SEGMENTS} host.expansions={expansions}"
    ));
    out.note(format!(
        "throughput_rps {:.1} 1/s (n={} in {:.3} s)",
        log.ok as f64 / elapsed.as_secs_f64(),
        log.ok,
        elapsed.as_secs_f64()
    ));
    report_latencies(&mut out, &log);
    report_traffic(&mut out, &traffic.catalogue, &log, seed);
    Ok(out)
}

/// What the cold cycles of a run measured.
pub struct ColdRun {
    pub log: ClientLog,
    pub setup: Samples,
    pub fill: Samples,
    pub cycle_time: Duration,
    pub cycles: usize,
    pub stats: Vec<HostStats>,
}

/// Fresh registry and server per cycle; `clients` scripted clients climb
/// it to cost 6 while reading, scraping, and naming a second model.
pub fn cold_cycles(
    traffic: &ColdTraffic,
    seed: u64,
    clients: usize,
    threads: usize,
    seconds: f64,
    min_cycles: usize,
    tracer: Option<&Tracer>,
) -> io::Result<ColdRun> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut run = ColdRun {
        log: ClientLog::default(),
        setup: Samples::new(),
        fill: Samples::new(),
        cycle_time: Duration::ZERO,
        cycles: 0,
        stats: Vec::new(),
    };
    while run.cycles < min_cycles || Instant::now() < deadline {
        let started = Instant::now();
        let registry = Arc::new(HostRegistry::new(host_config(threads)));
        let running = Running::start(registry, clients)?;
        run.setup.push(started.elapsed().as_secs_f64());
        let orders: Vec<_> = (0..clients)
            .map(|c| {
                let stream = (run.cycles * clients + c) as u64;
                traffic
                    .script(&mut Rng::fork(seed, 1000 + stream))
                    .into_iter()
            })
            .map(|mut script| move || script.next())
            .collect();
        let (log, start) = run_clients(running.addr(), &traffic.catalogue, orders, tracer)?;
        if let Some(last) = log.last_climb {
            run.fill.push((last - start).as_secs_f64());
        }
        run.cycle_time += log.finished.map_or(Duration::ZERO, |end| end - start);
        run.log.merge(log);
        run.stats.extend(running.stop()?);
        run.cycles += 1;
    }
    Ok(run)
}

/// The `serve_cold` workload.
pub fn cold(
    seed: u64,
    seconds: f64,
    threads: usize,
    clients: usize,
    dir: &Path,
) -> io::Result<Outcome> {
    let oracle = Oracle::prepare(dir)?;
    let traffic = ColdTraffic::generate(&oracle, seed);
    let mut run = cold_cycles(
        &traffic,
        seed,
        clients,
        threads,
        seconds,
        MIN_COLD_CYCLES,
        None,
    )?;
    let mut out = Outcome::default();
    finish(&mut out, &run.log, &traffic.catalogue);
    let mut all = run.log.all_latencies();
    out.set("setup_s", run.setup.median());
    out.set("latency_p50_us", all.median());
    out.set("latency_p99_us", all.percentile(0.99));
    out.set(
        "ops_per_s",
        run.log.ok as f64 / run.cycle_time.as_secs_f64(),
    );
    out.set("peak_rss_mb", peak_rss_mb());
    let sum = |f: fn(&HostStats) -> u64| run.stats.iter().map(f).sum::<u64>();
    out.note(format!(
        "clients={clients} workers={clients} threads={threads} loop=closed cycles={} hosts={} expansions={} single_flight_waits={}",
        run.cycles,
        run.stats.len(),
        sum(|s| s.expansions),
        sum(|s| s.single_flight_waits)
    ));
    out.note(format!(
        "fill_s {:.4} s (n={})",
        run.fill.median(),
        run.fill.len()
    ));
    report_latencies(&mut out, &run.log);
    report_traffic(&mut out, &traffic.catalogue, &run.log, seed);
    Ok(out)
}

/// Counts requests and checks every distinct reply.
fn finish(out: &mut Outcome, log: &ClientLog, catalogue: &Catalogue) {
    let (wrong, notes) = log.replies.verify(catalogue);
    out.attempted += log.ok + log.failed;
    out.failed += log.failed + wrong;
    for note in notes {
        out.note(format!("FAILED {note}"));
    }
    out.note(format!(
        "failed_frac {} ({} non-200, {} wrong of {} requests)",
        (log.failed + wrong) as f64 / (log.ok + log.failed).max(1) as f64,
        log.failed,
        wrong,
        log.ok + log.failed
    ));
}

fn report_latencies(out: &mut Outcome, log: &ClientLog) {
    for (kind, samples) in &log.latency_us {
        let mut s = samples.clone();
        out.note(format!(
            "{}_p50_us {:.1} us  {}_p99_us {:.1} us (n={})",
            kind.name(),
            s.median(),
            kind.name(),
            s.percentile(0.99),
            s.len()
        ));
    }
}

fn report_traffic(out: &mut Outcome, catalogue: &Catalogue, log: &ClientLog, seed: u64) {
    out.note(format!(
        "seed {seed}: {} targets, {} shapes; the first shapes sent:",
        catalogue.targets.len(),
        catalogue.shapes.len(),
    ));
    for shape in &log.sent {
        out.note(format!("  sent {}", catalogue.shapes[*shape].label));
    }
}
