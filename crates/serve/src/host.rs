//! The engine host: one warm [`SearchEngine`] shared by many
//! concurrent queries.
//!
//! Reads scale, writes funnel. Queries answered by the cached levels
//! (the overwhelming majority on a warm engine) take the `RwLock` read
//! side and run concurrently through
//! [`SearchEngine::answer`]. Cache misses — targets whose
//! class lives in a level not yet settled — go through a **single
//! flight**: of all the requests needing deeper levels, exactly one
//! acquires the write lock and settles **one level** (generating the
//! previous level's successors first), while the rest
//! wait on a condvar; everyone re-runs their read when the level lands,
//! so a shallow target never pays for depth only its bound (not its
//! cost) asked for, and repeated misses cost one climb, not one per
//! request.
//!
//! Deep targets can skip the climb altogether: the bidirectional
//! serving strategy ([`Strategy::Bidi`], picked automatically by
//! [`Strategy::Auto`] for targets past the warm frontier) pins the
//! forward depth to the warm cache and meets a per-query backward
//! frontier on the read side (a cold engine climbs to level 0 first).
//! Every query, whatever its strategy, and the census run through one
//! wait-and-climb loop (`EngineHost::climb`).
//!
//! Admission control keeps the flight short: every query carries a cost
//! bound, and bounds above the host's limit are rejected up front, so a
//! single deep query cannot park the writer (and with it every other
//! miss) on a multi-second expansion.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError,
};
use std::time::{Duration, Instant};

use mvq_core::{
    Answer, CostModel, EngineError, Narrow, ProbeHandle, SearchEngine, SearchWidth, SnapshotImage,
    Strategy, Synthesis, Wide,
};
use mvq_obs::{Counter, Gauge, Registry};
use mvq_perm::Perm;

/// Per-request serving facts, reported by the `*_traced` methods for
/// the transport layer's structured trace line.
#[derive(Debug, Clone, Copy)]
pub struct ServeTrace {
    /// Whether the cached levels answered without any expansion round.
    pub cache_hit: bool,
    /// Level expansions this request performed *itself* (waiting on
    /// another request's in-flight expansion does not count).
    pub expansions: u64,
    /// The strategy the request was actually served with
    /// ([`Strategy::Auto`] resolves to `Uni` on a warm cache hit and
    /// `Bidi` past the warm frontier).
    pub resolved: Strategy,
}

/// Tuning knobs for an [`EngineHost`] / [`HostRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Admission limit: queries with a cost bound above this are
    /// rejected instead of expanding the shared engine arbitrarily deep.
    pub max_cost_bound: u32,
    /// Ignored: expansion is serial. Kept only because the benchmark
    /// harness still sets it.
    pub threads: usize,
    /// Most cost models a registry will host concurrently.
    pub max_models: usize,
    /// The server-side cap on a request's `deadline_ms`: the longest a
    /// request may block behind the single-flight expansion before it
    /// sheds with a 503. Requests without a deadline get this default.
    pub max_deadline_ms: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self {
            // The paper's bound: every 3-wire reversible function is
            // expressible within quantum cost 7.
            max_cost_bound: 7,
            threads: 0,
            max_models: 8,
            max_deadline_ms: 30_000,
        }
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The query's cost bound exceeds the admission limit.
    CostBoundExceeded {
        /// The bound the query asked for.
        requested: u32,
        /// The host's admission limit.
        limit: u32,
    },
    /// The registry already hosts its maximum number of cost models.
    TooManyModels {
        /// The configured model limit.
        limit: usize,
    },
    /// A previous request panicked while holding the engine lock.
    Poisoned,
    /// A cold engine could not be built for the requested configuration
    /// (e.g. a library over the width's packed limits) — surfaced as a
    /// JSON error instead of a worker panic.
    Engine(String),
    /// The request's (capped) deadline passed while it waited behind
    /// the single-flight expansion — shed with 503 + `Retry-After`
    /// rather than pinning a worker behind a deep miss.
    DeadlineExceeded {
        /// The effective budget the request ran under, in milliseconds.
        deadline_ms: u64,
    },
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CostBoundExceeded { requested, limit } => write!(
                f,
                "cost bound {requested} exceeds the admission limit {limit}"
            ),
            Self::TooManyModels { limit } => {
                write!(f, "already hosting the maximum of {limit} cost models")
            }
            Self::Poisoned => write!(f, "engine lock poisoned by an earlier panic"),
            Self::Engine(detail) => write!(f, "engine construction failed: {detail}"),
            Self::DeadlineExceeded { deadline_ms } => write!(
                f,
                "deadline of {deadline_ms} ms passed while waiting for the shared expansion; \
                 retry shortly"
            ),
        }
    }
}

impl std::error::Error for HostError {}

impl<T> From<std::sync::PoisonError<T>> for HostError {
    fn from(_: std::sync::PoisonError<T>) -> Self {
        Self::Poisoned
    }
}

impl From<EngineError> for HostError {
    fn from(err: EngineError) -> Self {
        Self::Engine(err.to_string())
    }
}

/// Shared bookkeeping for the single-flight expansion path.
#[derive(Debug)]
struct Flight {
    /// A writer is currently expanding.
    expanding: bool,
}

/// A point-in-time view of one host's counters and engine state.
#[derive(Debug, Clone)]
pub struct HostStats {
    /// The host's cost model weights `(V, V⁺, Feynman)`.
    pub model: (u32, u32, u32),
    /// The wire count of the host's library (3 or 4).
    pub wires: usize,
    /// `/synthesize` requests admitted.
    pub synthesize_requests: u64,
    /// `/census` requests admitted.
    pub census_requests: u64,
    /// Queries answered purely from the cached levels.
    pub cache_hits: u64,
    /// Queries not answered from the cached levels: they expanded,
    /// waited on another request's expansion, or were served
    /// bidirectionally (possibly with zero expansions).
    pub cache_misses: u64,
    /// Write-side level steps actually performed (one per settled
    /// level).
    pub expansions: u64,
    /// Times a request waited on another request's in-flight expansion
    /// instead of expanding itself.
    pub single_flight_waits: u64,
    /// Requests rejected by cost-bound admission.
    pub rejected: u64,
    /// Times a poisoned engine was quarantined and rebuilt from its
    /// last-good state instead of failing every later request.
    pub rebuilds: u64,
    /// Requests shed (503) because their deadline passed while waiting
    /// behind the single-flight expansion.
    pub deadline_timeouts: u64,
    /// Highest settled level (its successors may not be generated yet).
    pub completed: Option<u32>,
    /// Distinct reversible classes discovered.
    pub classes_found: usize,
    /// Distinct circuit-permutations discovered (`|A|`): the settled
    /// levels plus the successors of the expanded ones, so it excludes
    /// the unexpanded top level's successors.
    pub a_size: usize,
}

/// The census counts a service query returns (a read-only slice of the
/// warm engine's tables).
#[derive(Debug, Clone)]
pub struct CensusReply {
    /// The bound the query asked for.
    pub cb: u32,
    /// `|G[k]|` for `k = 0..=cb` (shorter if the space exhausted early).
    pub g_counts: Vec<usize>,
    /// `|B[k]|`, parallel to `g_counts`.
    pub b_counts: Vec<usize>,
    /// Total classes discovered by the shared engine so far.
    pub classes_found: usize,
    /// Total circuit-permutations discovered so far (see
    /// [`HostStats::a_size`]).
    pub a_size: usize,
}

/// One warm engine behind a readers-writer cache manager with
/// single-flight expansion (see the module docs), generic over the
/// engine's [`SearchWidth`] (narrow hosts serve 2–3 wires, wide hosts
/// 4).
#[derive(Debug)]
pub struct EngineHost<W: SearchWidth = Narrow> {
    // The serve locks are only ever acquired upward in one total order,
    // so no two threads can wait on each other: the registry's `hosts`
    // tables first, then `recovery` (below `engine`, so a heal may run
    // from a probe install under `hosts` and from request paths, then
    // take the engine lock upward), then `engine`, then `flight` with its
    // condvar `landed`. `mvq_lint`'s `lock_order` pass checks every
    // static path against the next line.
    // lint: lock-order(hosts < recovery < engine < flight)
    engine: RwLock<SearchEngine<W>>,
    flight: Mutex<Flight>,
    landed: Condvar,
    recovery: Mutex<Recovery>,
    limit: u32,
    max_deadline_ms: u64,
    /// The cost model weights and wire count, fixed at construction.
    model: (u32, u32, u32),
    wires: usize,
    metrics: HostMetrics,
}

/// One host's series in a metrics [`Registry`], labelled by its
/// `(wires, model)`: nine monotone counters, and the engine facts
/// [`HostStats`] reports as gauges. The gauges are published by every
/// change to those facts — construction, each landed level, a heal — so
/// a stats read or a scrape takes no engine lock and never waits on a
/// level. Each value is read on its own: one stats snapshot may mix two
/// adjacent levels.
#[derive(Debug)]
struct HostMetrics {
    synthesize_requests: Arc<Counter>,
    census_requests: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    expansions: Arc<Counter>,
    single_flight_waits: Arc<Counter>,
    rejected: Arc<Counter>,
    rebuilds: Arc<Counter>,
    deadline_timeouts: Arc<Counter>,
    /// The highest settled level, or −1 on a cold engine.
    completed: Arc<Gauge>,
    classes_found: Arc<Gauge>,
    a_size: Arc<Gauge>,
}

impl HostMetrics {
    /// Registers (or finds, for a host replacing one with the same
    /// labels) the series of a host over `wires` wires and `model`.
    fn register(registry: &Registry, wires: usize, model: (u32, u32, u32)) -> Self {
        let wires = wires.to_string();
        let model = format!("{},{},{}", model.0, model.1, model.2);
        let labels = [("wires", wires.as_str()), ("model", model.as_str())];
        Self {
            synthesize_requests: registry.labelled_counter(
                "synthesize_requests_total",
                "POST /synthesize requests admitted",
                &labels,
            ),
            census_requests: registry.labelled_counter(
                "census_requests_total",
                "POST /census requests admitted",
                &labels,
            ),
            cache_hits: registry.labelled_counter(
                "cache_hits_total",
                "Queries answered purely from the cached levels",
                &labels,
            ),
            cache_misses: registry.labelled_counter(
                "cache_misses_total",
                "Queries not answered from the cached levels (expanded, waited on another \
                 request's expansion, or served bidirectionally)",
                &labels,
            ),
            expansions: registry.labelled_counter(
                "expansions_total",
                "Write-side level expansions performed",
                &labels,
            ),
            single_flight_waits: registry.labelled_counter(
                "single_flight_waits_total",
                "Requests that waited on another request's expansion",
                &labels,
            ),
            rejected: registry.labelled_counter(
                "rejected_requests_total",
                "Requests rejected by cost-bound admission",
                &labels,
            ),
            rebuilds: registry.labelled_counter(
                "rebuilds_total",
                "Poisoned engines quarantined and rebuilt",
                &labels,
            ),
            deadline_timeouts: registry.labelled_counter(
                "deadline_timeouts_total",
                "Requests shed because their deadline passed mid-wait",
                &labels,
            ),
            completed: registry.labelled_gauge(
                "completed",
                "Highest settled level (-1 while the engine is cold)",
                &labels,
            ),
            classes_found: registry.labelled_gauge(
                "classes_found",
                "Distinct reversible classes discovered",
                &labels,
            ),
            a_size: registry.labelled_gauge(
                "a_size",
                "Distinct circuit-permutations discovered",
                &labels,
            ),
        }
    }

    /// Publishes `engine`'s facts into the gauges.
    fn publish<W: SearchWidth>(&self, engine: &SearchEngine<W>) {
        let completed = engine.completed_cost().map_or(-1, i64::from);
        self.completed.set(completed);
        self.classes_found.set(engine.classes_found() as i64);
        self.a_size.set(engine.a_size() as i64);
    }
}

/// Everything a poisoned host needs to rebuild itself: the last-good
/// engine state captured at construction (snapshot bytes) plus the
/// cold-rebuild parameters. Guarded by its own `recovery` mutex so
/// concurrent victims of one poisoning serialize on a single rebuild.
#[derive(Debug)]
struct Recovery {
    /// Construction-time engine state as snapshot bytes: for a host
    /// built from a snapshot, the loaded file's own buffer, shared with
    /// the engine (no second copy); for a host that started cold, the
    /// bytes of a cold engine, so the rebuild *is* a cold start. `None`
    /// when the engine's library cannot be snapshotted (non-standard),
    /// in which case the host cannot self-heal and stays failed.
    last_good: Option<SnapshotImage>,
    /// Observability probe installed on rebuilt engines as they load.
    probe: ProbeHandle,
}

/// Clears the `expanding` flag even if the expansion panicked, so
/// waiters are never stranded on the condvar.
struct FlightReset<'a, W: SearchWidth>(&'a EngineHost<W>);

impl<W: SearchWidth> Drop for FlightReset<'_, W> {
    fn drop(&mut self) {
        if let Ok(mut flight) = self.0.flight.lock() {
            flight.expanding = false;
        }
        self.0.landed.notify_all();
    }
}

impl<W: SearchWidth> EngineHost<W> {
    /// Hosts `engine`, rejecting queries whose cost bound exceeds
    /// `max_cost_bound`. Requests run under the default 30-second
    /// deadline cap; see [`Self::with_limits`].
    ///
    /// A snapshot-loaded engine's deferred frontier stays deferred: the
    /// cached levels answer without it, and the first climb merges it
    /// under the write lock that climb holds anyway.
    pub fn new(engine: SearchEngine<W>, max_cost_bound: u32) -> Self {
        Self::with_limits(
            engine,
            max_cost_bound,
            HostConfig::default().max_deadline_ms,
        )
    }

    /// [`Self::new`] with an explicit deadline cap: no request waits
    /// longer than `max_deadline_ms` behind the single-flight expansion
    /// (a request's own `deadline_ms` can only shorten it).
    ///
    /// Construction also captures the engine's state as the host's
    /// last-good rebuild source: if a later request panics while holding
    /// the engine lock, the next request quarantines the poisoned engine
    /// and rebuilds from these bytes instead of failing forever. A
    /// snapshot-loaded engine hands over the buffer it was loaded from,
    /// so construction neither serializes nor copies it.
    ///
    /// The host's counters and gauges live in a private registry; a
    /// [`HostRegistry`]'s hosts share the registry its server renders.
    pub fn with_limits(engine: SearchEngine<W>, max_cost_bound: u32, max_deadline_ms: u64) -> Self {
        Self::registered(engine, max_cost_bound, max_deadline_ms, &Registry::new())
    }

    /// [`Self::with_limits`] with the host's series in `registry`.
    fn registered(
        mut engine: SearchEngine<W>,
        max_cost_bound: u32,
        max_deadline_ms: u64,
        registry: &Registry,
    ) -> Self {
        let recovery = Recovery {
            last_good: engine.snapshot_to_bytes().ok(),
            probe: engine.probe().clone(),
        };
        let model = engine.cost_model().weights();
        let wires = engine.library().domain().wires();
        let metrics = HostMetrics::register(registry, wires, model);
        metrics.publish(&engine);
        Self {
            model,
            wires,
            metrics,
            engine: RwLock::new(engine),
            flight: Mutex::new(Flight { expanding: false }),
            landed: Condvar::new(),
            recovery: Mutex::new(recovery),
            limit: max_cost_bound,
            max_deadline_ms,
        }
    }

    /// The admission limit.
    pub fn cost_bound_limit(&self) -> u32 {
        self.limit
    }

    /// Installs `probe` on the hosted engine, and remembers it so any
    /// engine the host rebuilds after a poisoning carries it too.
    ///
    /// # Errors
    ///
    /// The usual poison-path errors when the engine cannot be locked
    /// and cannot heal; the probe is still remembered for the rebuild.
    pub fn set_probe(&self, probe: ProbeHandle) -> Result<(), HostError> {
        {
            let mut recovery = match self.recovery.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            recovery.probe = probe.clone();
        }
        let mut engine = self.engine_write()?;
        engine.set_probe(probe);
        Ok(())
    }

    /// Acquires the engine read lock, healing a poisoned engine first
    /// (see [`Self::heal`]) instead of failing the request.
    fn engine_read(&self) -> Result<RwLockReadGuard<'_, SearchEngine<W>>, HostError> {
        if let Ok(guard) = self.engine.read() {
            return Ok(guard);
        }
        self.heal()?;
        self.engine.read().map_err(HostError::from)
    }

    /// [`Self::engine_read`] for a request with a deadline: while a
    /// level expansion holds the write lock, the request waits on
    /// `landed` (never spinning) with its remaining budget instead of
    /// queueing on the lock, and sheds with
    /// [`HostError::DeadlineExceeded`] if the budget runs out first.
    /// Any other writer (a heal, a probe install) is short, so the
    /// request blocks on the lock as usual.
    fn engine_read_by(
        &self,
        deadline: Instant,
        budget_ms: u64,
    ) -> Result<RwLockReadGuard<'_, SearchEngine<W>>, HostError> {
        loop {
            match self.engine.try_read() {
                Ok(guard) => return Ok(guard),
                Err(TryLockError::WouldBlock) => {}
                // Heal below, once the poisoned guard has dropped.
                Err(TryLockError::Poisoned(_)) => break,
            };
            let flight = self.flight_lock()?;
            if !flight.expanding {
                break;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                drop(flight);
                return Err(self.shed(budget_ms));
            }
            let (flight, timeout) = self.landed.wait_timeout(flight, remaining)?;
            if timeout.timed_out() && flight.expanding {
                drop(flight);
                return Err(self.shed(budget_ms));
            }
            // A level landed (or the expander bailed): try the lock again.
        }
        self.engine_read()
    }

    /// Counts a request shed at its deadline and builds its error.
    fn shed(&self, budget_ms: u64) -> HostError {
        self.metrics.deadline_timeouts.inc();
        HostError::DeadlineExceeded {
            deadline_ms: budget_ms,
        }
    }

    /// Write-side counterpart of [`Self::engine_read`].
    fn engine_write(&self) -> Result<RwLockWriteGuard<'_, SearchEngine<W>>, HostError> {
        if let Ok(guard) = self.engine.write() {
            return Ok(guard);
        }
        self.heal()?;
        self.engine.write().map_err(HostError::from)
    }

    /// Acquires the single-flight mutex, healing on poison like
    /// [`Self::engine_read`].
    fn flight_lock(&self) -> Result<MutexGuard<'_, Flight>, HostError> {
        if let Ok(guard) = self.flight.lock() {
            return Ok(guard);
        }
        self.heal()?;
        self.flight.lock().map_err(HostError::from)
    }

    /// Quarantines a poisoned host and rebuilds it: the engine is
    /// replaced by one reloaded from the last-good snapshot bytes
    /// captured at construction (cold-built if the host started cold),
    /// reading the shared buffer in place and leaving its frontier
    /// deferred for the next climb; the flight state is reset, poison is
    /// cleared, and waiters are woken. Concurrent victims serialize on
    /// the recovery lock — the first rebuilds, the rest see an
    /// already-healed engine and return.
    ///
    /// # Errors
    ///
    /// [`HostError::Engine`] when no rebuild source exists (the engine's
    /// library could not be snapshotted) or the rebuild itself fails; the
    /// host stays quarantined and the next request retries.
    fn heal(&self) -> Result<(), HostError> {
        let recovery = match self.recovery.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if !self.engine.is_poisoned() && !self.flight.is_poisoned() {
            // Another victim healed while we waited on the recovery lock.
            return Ok(());
        }
        let engine = match &recovery.last_good {
            Some(bytes) => {
                SearchEngine::<W>::load_snapshot_image(bytes.clone(), recovery.probe.clone())
                    .map_err(|err| {
                        HostError::Engine(format!(
                            "host rebuild from last-good state failed: {err}"
                        ))
                    })?
            }
            None => {
                return Err(HostError::Engine(
                    "poisoned host has no last-good state to rebuild from \
                     (non-standard library)"
                        .to_string(),
                ))
            }
        };
        {
            // Swap through the poisoned guard, then clear: readers keep
            // seeing the poison (and queue up behind the recovery lock)
            // until the replacement engine is fully in place.
            let mut slot = match self.engine.write() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            *slot = engine;
            self.metrics.publish(&slot);
        }
        self.engine.clear_poison();
        {
            let mut flight = match self.flight.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            flight.expanding = false;
        }
        self.flight.clear_poison();
        self.landed.notify_all();
        self.metrics.rebuilds.inc();
        drop(recovery);
        Ok(())
    }

    /// The effective time budget for a request: its own `deadline_ms`
    /// capped by the host's `max_deadline_ms` (absent means the cap).
    fn budget_ms(&self, deadline_ms: Option<u64>) -> u64 {
        deadline_ms.map_or(self.max_deadline_ms, |d| d.min(self.max_deadline_ms))
    }

    /// Minimal-cost synthesis of `target` within `cb`, served from the
    /// shared cache when possible.
    ///
    /// The result is bit-identical to a serial
    /// [`SearchEngine::synthesize`] call on a private engine — costs,
    /// witness counts, and circuits — for any number of concurrent
    /// callers.
    ///
    /// # Errors
    ///
    /// [`HostError::CostBoundExceeded`] when `cb` exceeds the admission
    /// limit; [`HostError::Poisoned`] after a panicked writer.
    pub fn synthesize(&self, target: &Perm, cb: u32) -> Result<Option<Synthesis>, HostError> {
        self.synthesize_traced(target, cb, Strategy::Uni, None)
            .map(|(synthesis, _)| synthesis)
    }

    /// [`Self::synthesize`] with an explicit serving strategy and a
    /// per-request deadline, also reporting per-request serving facts
    /// ([`ServeTrace`]) for the transport's trace line.
    ///
    /// Costs and witness counts are identical across strategies (see
    /// [`Strategy`]) — only where the search work lands differs.
    /// Once `deadline_ms` (capped by the host's `max_deadline_ms`;
    /// `None` means the cap) passes while the request waits behind the
    /// single-flight expansion, it sheds with
    /// [`HostError::DeadlineExceeded`] instead of pinning a worker.
    ///
    /// # Errors
    ///
    /// Same as [`Self::synthesize`], plus
    /// [`HostError::DeadlineExceeded`].
    pub fn synthesize_traced(
        &self,
        target: &Perm,
        cb: u32,
        strategy: Strategy,
        deadline_ms: Option<u64>,
    ) -> Result<(Option<Synthesis>, ServeTrace), HostError> {
        self.admit(cb)?;
        mvq_fault::point!("serve.read");
        self.metrics.synthesize_requests.inc();
        let budget_ms = self.budget_ms(deadline_ms);
        let mut query = None;
        self.climb(cb, budget_ms, |engine| {
            engine.answer(query.get_or_insert_with(|| engine.query(target, cb, strategy)))
        })
    }

    /// The census counts up to `cb`, expanding (single-flight) only if
    /// the cached levels do not reach that far yet.
    ///
    /// # Errors
    ///
    /// Same as [`Self::synthesize`].
    pub fn census(&self, cb: u32) -> Result<CensusReply, HostError> {
        self.census_traced(cb).map(|(reply, _)| reply)
    }

    /// [`Self::census`] that also reports per-request serving facts
    /// ([`ServeTrace`]) for the transport's trace line.
    ///
    /// # Errors
    ///
    /// Same as [`Self::census`].
    pub fn census_traced(&self, cb: u32) -> Result<(CensusReply, ServeTrace), HostError> {
        self.admit(cb)?;
        self.metrics.census_requests.inc();
        self.climb(cb, self.max_deadline_ms, |engine| {
            if !engine.exhausted() && engine.completed_cost().is_none_or(|c| c < cb) {
                return Answer::NeedsLevel;
            }
            let levels = engine.g_counts().len().min(cb as usize + 1);
            let reply = CensusReply {
                cb,
                g_counts: engine.g_counts()[..levels].to_vec(),
                b_counts: engine.b_counts()[..levels].to_vec(),
                classes_found: engine.classes_found(),
                a_size: engine.a_size(),
            };
            Answer::Resolved(reply, Strategy::Uni)
        })
    }

    /// The one wait-and-climb loop behind every query: reads the engine
    /// (waiting out an in-flight level within the request's budget) and
    /// asks `read` for an answer; on [`Answer::NeedsLevel`], settles one
    /// level through the single flight ([`Self::expand_shared`]) and
    /// reads again.
    ///
    /// The request counts as a cache hit only when the first read
    /// answered it from the cached levels (resolved as
    /// [`Strategy::Uni`]): a per-query backward search, or any climb, is
    /// a miss.
    fn climb<T>(
        &self,
        cb: u32,
        budget_ms: u64,
        mut read: impl FnMut(&SearchEngine<W>) -> Answer<T>,
    ) -> Result<(T, ServeTrace), HostError> {
        let deadline = Instant::now() + Duration::from_millis(budget_ms);
        let mut missed = false;
        let mut expansions = 0u64;
        loop {
            let answer = read(&*self.engine_read_by(deadline, budget_ms)?);
            if let Answer::Resolved(answer, resolved) = answer {
                let cache_hit = !missed && resolved == Strategy::Uni;
                let outcome = if cache_hit {
                    &self.metrics.cache_hits
                } else {
                    &self.metrics.cache_misses
                };
                outcome.inc();
                let trace = ServeTrace {
                    cache_hit,
                    expansions,
                    resolved,
                };
                return Ok((answer, trace));
            }
            missed = true;
            expansions += self.expand_shared(cb, deadline, budget_ms)?;
        }
    }

    /// A point-in-time stats snapshot, read from the host's metric
    /// handles alone: it takes no engine lock, so it never waits on a
    /// level and never heals a poisoned engine (the next request does).
    pub fn stats(&self) -> Result<HostStats, Infallible> {
        let m = &self.metrics;
        Ok(HostStats {
            model: self.model,
            wires: self.wires,
            synthesize_requests: m.synthesize_requests.get(),
            census_requests: m.census_requests.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            expansions: m.expansions.get(),
            single_flight_waits: m.single_flight_waits.get(),
            rejected: m.rejected.get(),
            rebuilds: m.rebuilds.get(),
            deadline_timeouts: m.deadline_timeouts.get(),
            completed: u32::try_from(m.completed.get()).ok(),
            classes_found: m.classes_found.get() as usize,
            a_size: m.a_size.get() as usize,
        })
    }

    fn admit(&self, cb: u32) -> Result<(), HostError> {
        if cb > self.limit {
            self.metrics.rejected.inc();
            return Err(HostError::CostBoundExceeded {
                requested: cb,
                limit: self.limit,
            });
        }
        Ok(())
    }

    /// The single-flight expansion path: settle **one level per call**
    /// toward `cb` (or until the space is exhausted), with at most one
    /// expander across all concurrent callers.
    ///
    /// Climbing level-by-level — instead of one monolithic
    /// `expand_to_cost(cb)` — matters three times over: the caller's read
    /// loop re-checks its query between levels, so a cost-2 target asked
    /// with a deep bound stops climbing the moment level 2 lands instead
    /// of riding the bound to level `cb`; the write lock is released
    /// between levels, so concurrent reads interleave with a long climb;
    /// and [`SearchEngine::settle_one_level`] generates a level's
    /// successors only when the next level is asked for, so the climb's
    /// deepest level never pays for its (largest) successor set.
    ///
    /// Returns the number of expansions this call performed itself (1
    /// when it won the flight, 0 when it waited or nothing was needed),
    /// so callers can attribute work to requests in their trace lines.
    fn expand_shared(&self, cb: u32, deadline: Instant, budget_ms: u64) -> Result<u64, HostError> {
        let mut flight = self.flight_lock()?;
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(self.shed(budget_ms));
        }
        if flight.expanding {
            self.metrics.single_flight_waits.inc();
            let (flight, timeout) = self.landed.wait_timeout(flight, remaining)?;
            if timeout.timed_out() && flight.expanding {
                // Still behind the same (or a newer) expansion with no
                // budget left: shed instead of pinning the worker.
                drop(flight);
                return Err(self.shed(budget_ms));
            }
            // A level landed (or the expander bailed); let the caller
            // re-run its read before asking for more depth.
            return Ok(0);
        }
        flight.expanding = true;
        drop(flight);
        let reset = FlightReset(self);
        let settled = {
            let mut engine = self.engine_write()?;
            // Another request may have climbed past `cb` (or run the
            // space dry) since this one read: then there is nothing to do.
            let needed = !engine.exhausted() && engine.completed_cost().is_none_or(|c| c < cb);
            if needed {
                mvq_fault::point!("serve.write");
                engine.settle_one_level();
                self.metrics.publish(&engine);
            }
            needed
        };
        drop(reset); // clears `expanding`, wakes waiters
        if !settled {
            return Ok(0);
        }
        self.metrics.expansions.inc();
        Ok(1)
    }
}

/// The two per-width host tables behind one lock (one lock order, no
/// cross-width deadlock; the model cap spans both). Public only so
/// [`HostWidth`] can name it; the crate does not export it.
#[derive(Debug, Default)]
pub struct HostTables {
    narrow: HashMap<CostModel, Arc<EngineHost<Narrow>>>,
    wide: HashMap<CostModel, Arc<EngineHost<Wide>>>,
}

impl HostTables {
    fn total(&self) -> usize {
        self.narrow.len() + self.wide.len()
    }
}

/// A search width the [`HostRegistry`] keeps a host table for:
/// [`Narrow`] engines serve `wires = 3` traffic, [`Wide`] engines
/// `wires = 4`. Sealed: an implementation has to name the unexported
/// `HostTables`, so these two are the only ones.
pub trait HostWidth: SearchWidth {
    /// The wire count this width's table serves.
    const WIRES: usize;

    /// This width's table among the registry's tables.
    #[doc(hidden)]
    fn table_for(tables: &mut HostTables) -> &mut HashMap<CostModel, Arc<EngineHost<Self>>>;
}

impl HostWidth for Narrow {
    const WIRES: usize = 3;

    fn table_for(tables: &mut HostTables) -> &mut HashMap<CostModel, Arc<EngineHost<Self>>> {
        &mut tables.narrow
    }
}

impl HostWidth for Wide {
    const WIRES: usize = 4;

    fn table_for(tables: &mut HostTables) -> &mut HashMap<CostModel, Arc<EngineHost<Self>>> {
        &mut tables.wide
    }
}

/// One [`EngineHost`] per `(width, cost model)`, created on demand
/// (bounded by [`HostConfig::max_models`] across both widths).
#[derive(Debug)]
pub struct HostRegistry {
    config: HostConfig,
    hosts: Mutex<HostTables>,
    /// The metrics every host registers its series into, and the server
    /// bound over this registry renders.
    metrics: Arc<Registry>,
    /// The observability probe every hosted engine reports into, set
    /// once by the transport layer at bind time; hosts created later
    /// inherit it at construction.
    probe: OnceLock<ProbeHandle>,
}

impl HostRegistry {
    /// An empty registry; hosts are created lazily by
    /// [`Self::host_for`].
    pub fn new(config: HostConfig) -> Self {
        Self {
            config,
            hosts: Mutex::new(HostTables::default()),
            metrics: Arc::new(Registry::new()),
            probe: OnceLock::new(),
        }
    }

    /// The metrics registry the hosts' series live in.
    pub(crate) fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// The registry's configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// The probe newly created hosts should carry (none until
    /// [`Self::set_probe`]).
    fn probe(&self) -> ProbeHandle {
        self.probe.get().cloned().unwrap_or_default()
    }

    /// Installs `probe` on every current host's engine and on every
    /// host created afterwards. The first probe installed wins — one
    /// server owns a registry's metrics — and installation on existing
    /// hosts is best-effort: a host that cannot be locked right now
    /// simply stays unprobed until its next heal.
    pub fn set_probe(&self, probe: ProbeHandle) {
        let _ = self.probe.set(probe);
        let probe = self.probe();
        if !probe.is_set() {
            return;
        }
        let Ok(hosts) = self.hosts.lock() else {
            return;
        };
        for host in hosts.narrow.values() {
            let _ = host.set_probe(probe.clone());
        }
        for host in hosts.wide.values() {
            let _ = host.set_probe(probe.clone());
        }
    }

    /// Installs a pre-warmed engine (e.g. loaded from a snapshot) as
    /// the host for its own cost model in its width's table, replacing
    /// any existing host. The new host continues the replaced one's
    /// counter series.
    ///
    /// # Errors
    ///
    /// [`HostError::Engine`] if the engine's wire count is not the one
    /// its width's table serves (a smaller register would panic target
    /// reduction mid-request); [`HostError::Poisoned`] if the registry
    /// lock is poisoned.
    pub fn install<W: HostWidth>(
        &self,
        engine: SearchEngine<W>,
    ) -> Result<Arc<EngineHost<W>>, HostError> {
        let wires = engine.library().domain().wires();
        if wires != W::WIRES {
            return Err(HostError::Engine(format!(
                "the service hosts {}-wire engines at this width, got {wires} wires",
                W::WIRES
            )));
        }
        // Read the model before the engine moves into the host: taking
        // `host.engine.read()` before `hosts.lock()` here would invert
        // the declared lock order.
        let model = *engine.cost_model();
        let host = self.new_host(engine);
        W::table_for(&mut *self.hosts.lock()?).insert(model, Arc::clone(&host));
        Ok(host)
    }

    /// A host for `engine` under the registry's limits, with the
    /// registry's probe installed best-effort.
    fn new_host<W: SearchWidth>(&self, engine: SearchEngine<W>) -> Arc<EngineHost<W>> {
        let host = Arc::new(EngineHost::registered(
            engine,
            self.config.max_cost_bound,
            self.config.max_deadline_ms,
            &self.metrics,
        ));
        let probe = self.probe();
        if probe.is_set() {
            let _ = host.set_probe(probe);
        }
        host
    }

    /// The host for `model` in width `W`'s table, creating a cold
    /// engine if this is the model's first request at that width.
    ///
    /// # Errors
    ///
    /// [`HostError::TooManyModels`] past the configured limit (which
    /// spans both widths); [`HostError::Engine`] if the cold engine
    /// cannot be built; [`HostError::Poisoned`] if the registry lock is
    /// poisoned.
    pub fn host_for<W: HostWidth>(
        &self,
        model: CostModel,
    ) -> Result<Arc<EngineHost<W>>, HostError> {
        let mut hosts = self.hosts.lock()?;
        if let Some(host) = W::table_for(&mut hosts).get(&model) {
            return Ok(Arc::clone(host));
        }
        if hosts.total() >= self.config.max_models {
            return Err(HostError::TooManyModels {
                limit: self.config.max_models,
            });
        }
        let engine = SearchEngine::<W>::try_new(mvq_logic::GateLibrary::standard(W::WIRES), model)?;
        let host = self.new_host(engine);
        W::table_for(&mut hosts).insert(model, Arc::clone(&host));
        Ok(host)
    }

    /// Stats snapshots for every live host, in (wires, model) order.
    /// Like [`EngineHost::stats`], it takes no engine lock.
    ///
    /// # Errors
    ///
    /// [`HostError::Poisoned`] if the registry lock is poisoned.
    pub fn stats(&self) -> Result<Vec<HostStats>, HostError> {
        let hosts = self.hosts.lock()?;
        let narrow = hosts.narrow.values().map(|h| h.stats());
        let wide = hosts.wide.values().map(|h| h.stats());
        let mut all: Vec<HostStats> = narrow.chain(wide).map(|Ok(s)| s).collect();
        all.sort_by_key(|s| (s.wires, s.model));
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvq_core::{known, SynthesisEngine, WideSynthesisEngine};

    fn unit_host(limit: u32) -> EngineHost {
        EngineHost::new(SynthesisEngine::unit_cost(), limit)
    }

    /// Counter `name` summed over every host's series, as a `/metrics`
    /// scrape of `registry` reports it.
    fn scraped_total(registry: &HostRegistry, name: &str) -> Option<u64> {
        mvq_obs::parse_scrape(&registry.metrics().render_prometheus()).counter_sum(name)
    }

    #[test]
    fn serves_toffoli_like_a_private_engine() {
        let host = unit_host(7);
        let served = host.synthesize(&known::toffoli_perm(), 6).unwrap().unwrap();
        let mut private = SynthesisEngine::unit_cost();
        let want = private.synthesize(&known::toffoli_perm(), 6).unwrap();
        assert_eq!(served.cost, want.cost);
        assert_eq!(served.implementation_count, want.implementation_count);
        assert_eq!(served.circuit.to_string(), want.circuit.to_string());
    }

    #[test]
    fn admission_rejects_deep_bounds() {
        let host = unit_host(5);
        let err = host.synthesize(&known::fredkin_perm(), 7).unwrap_err();
        assert_eq!(
            err,
            HostError::CostBoundExceeded {
                requested: 7,
                limit: 5
            }
        );
        // Within the limit the query is admitted (and unreachable at 5).
        assert!(host
            .synthesize(&known::fredkin_perm(), 5)
            .unwrap()
            .is_none());
        assert_eq!(host.stats().unwrap().rejected, 1);
    }

    #[test]
    fn warm_bound_semantics_match_the_engine() {
        let host = unit_host(7);
        host.census(5).unwrap(); // warm to cost 5
        assert!(host
            .synthesize(&known::toffoli_perm(), 4)
            .unwrap()
            .is_none());
        let again = host.synthesize(&known::toffoli_perm(), 5).unwrap().unwrap();
        assert_eq!(again.cost, 5);
    }

    #[test]
    fn census_reports_verified_counts() {
        let host = unit_host(7);
        let reply = host.census(3).unwrap();
        assert_eq!(reply.g_counts, vec![1, 6, 24, 51]);
        assert_eq!(reply.cb, 3);
        // A deeper engine truncates to the requested bound.
        host.census(4).unwrap();
        let shallow = host.census(2).unwrap();
        assert_eq!(shallow.g_counts, vec![1, 6, 24]);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let host = unit_host(7);
        host.synthesize(&known::peres_perm(), 5).unwrap(); // miss: climbs to 4
        host.synthesize(&known::peres_perm(), 5).unwrap(); // hit
        host.synthesize(&known::toffoli_perm(), 5).unwrap(); // miss: climbs to 5
        let stats = host.stats().unwrap();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
        // Levels 0–4 for Peres (which resolves at its cost, not its
        // bound), then level 5 for Toffoli: one expansion per level.
        assert_eq!(stats.expansions, 6);
        assert_eq!(stats.synthesize_requests, 3);
    }

    #[test]
    fn shallow_miss_with_deep_bound_stops_at_the_target_cost() {
        // Regression: the expander used to run one monolithic
        // `expand_to_cost(cb)` under the write lock, so a cost-4 target
        // asked with the full cb = 7 bound paid for levels 5–7 nobody
        // needed. Level-by-level expansion re-checks resolution between
        // levels and stops the climb at the target's cost.
        let host = unit_host(7);
        let syn = host.synthesize(&known::peres_perm(), 7).unwrap().unwrap();
        assert_eq!(syn.cost, 4);
        let stats = host.stats().unwrap();
        assert_eq!(stats.completed, Some(4));
        assert_eq!(stats.expansions, 5); // levels 0–4, nothing deeper
    }

    #[test]
    fn bidi_strategy_serves_deep_targets_without_deep_levels() {
        let host = unit_host(7);
        let syn = host
            .synthesize_traced(&known::fredkin_perm(), 7, Strategy::Bidi, None)
            .map(|(s, _)| s)
            .unwrap()
            .unwrap();
        assert_eq!(syn.cost, 7);
        assert_eq!(syn.implementation_count, 16);
        assert!(syn
            .circuit
            .verify_against_binary_perm(&known::fredkin_perm()));
        let stats = host.stats().unwrap();
        // The climb settled forward level 0 only; the depth lived in the
        // per-query backward frontier.
        assert_eq!(stats.completed, Some(0));
        assert_eq!(stats.expansions, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn explicit_bidi_answers_count_as_misses() {
        // A bidirectional answer runs a per-query backward search, so it
        // is never "answered purely from the cached levels" — not even
        // once level 0 is settled and nothing expands.
        let host = unit_host(7);
        for _ in 0..2 {
            let (syn, trace) = host
                .synthesize_traced(&known::toffoli_perm(), 7, Strategy::Bidi, None)
                .unwrap();
            assert_eq!(syn.unwrap().cost, 5);
            assert!(!trace.cache_hit);
        }
        let stats = host.stats().unwrap();
        assert_eq!(stats.expansions, 1); // forward level 0, first request only
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn auto_strategy_hits_warm_cache_and_goes_bidi_past_it() {
        let host = unit_host(7);
        host.census(4).unwrap(); // warm to cost 4
        let peres = host
            .synthesize_traced(&known::peres_perm(), 7, Strategy::Auto, None)
            .map(|(s, _)| s)
            .unwrap()
            .unwrap();
        assert_eq!(peres.cost, 4);
        let warm_stats = host.stats().unwrap();
        assert_eq!(warm_stats.cache_hits, 1); // peres (census climbed, a miss)
                                              // Fredkin (cost 7) lies past the warm frontier: auto switches to
                                              // the bidirectional path instead of expanding levels 5–7.
        let deep = host
            .synthesize_traced(&known::fredkin_perm(), 7, Strategy::Auto, None)
            .map(|(s, _)| s)
            .unwrap()
            .unwrap();
        assert_eq!(deep.cost, 7);
        assert_eq!(deep.implementation_count, 16);
        let stats = host.stats().unwrap();
        assert_eq!(stats.completed, Some(4));
        assert_eq!(stats.cache_misses, 2); // the census climb + fredkin
                                           // Uni answers for targets within the warm frontier agree with
                                           // auto answers (cost and witness count).
        let uni = host
            .synthesize_traced(&known::peres_perm(), 7, Strategy::Uni, None)
            .map(|(s, _)| s)
            .unwrap()
            .unwrap();
        assert_eq!(uni.cost, peres.cost);
        assert_eq!(uni.implementation_count, peres.implementation_count);
    }

    #[test]
    fn concurrent_misses_share_one_expansion() {
        let host = Arc::new(unit_host(7));
        let results: Vec<(u32, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let host = Arc::clone(&host);
                    scope.spawn(move || {
                        let syn = host.synthesize(&known::toffoli_perm(), 5).unwrap().unwrap();
                        (syn.cost, syn.implementation_count)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&r| r == (5, 4)));
        let stats = host.stats().unwrap();
        // All eight raced for the same level-5 settle: the engine only
        // ever settled levels 0–5 once (at most a few no-op write grabs).
        assert_eq!(stats.completed, Some(5));
        assert_eq!(stats.a_size, {
            let mut e = SynthesisEngine::unit_cost();
            while e.completed_cost() != Some(5) {
                e.settle_one_level();
            }
            e.a_size()
        });
    }

    /// Records `(cost, generated)` for every level whose successors were
    /// generated.
    #[derive(Default)]
    struct LevelWork(std::sync::Mutex<Vec<(u32, u64)>>);

    impl mvq_obs::Probe for LevelWork {
        fn level_work(&self, cost: u32, generated: u64, _stale_dropped: u64) {
            self.0.lock().unwrap().push((cost, generated));
        }
    }

    #[test]
    fn cold_climb_leaves_the_answering_level_unexpanded() {
        // Deterministic work gate: a cost-6 target at cb 6 settles levels
        // 0–6 but generates successors from levels 0–5 only; expanding
        // level 6 as well generated 941,504 more that nothing at cb 6
        // reads.
        let target: Perm = "(5,6,8,7)".parse::<Perm>().unwrap().extended(8);
        let host = EngineHost::new(SynthesisEngine::unit_cost(), 7);
        let work = Arc::new(LevelWork::default());
        host.set_probe(ProbeHandle::new(work.clone())).unwrap();
        let syn = host
            .synthesize_traced(&target, 6, Strategy::Uni, None)
            .map(|(s, _)| s)
            .unwrap()
            .unwrap();
        assert_eq!((syn.cost, syn.implementation_count), (6, 4));
        assert!(syn.circuit.verify_against_binary_perm(&target));
        assert_eq!(
            *work.0.lock().unwrap(),
            [
                (0, 18),
                (1, 210),
                (2, 1482),
                (3, 8409),
                (4, 42660),
                (5, 203721)
            ]
        );
        assert_eq!(host.stats().unwrap().completed, Some(6));
    }

    #[test]
    fn level_probe_pairs_close_within_each_climb_step() {
        // Each level step (a settle, plus the previous level's deferred
        // expansion) opens and closes its own probe bracket, so no timed
        // level spans two requests.
        let host = unit_host(7);
        let registry = mvq_obs::Registry::new();
        let metrics = registry.probe_metrics();
        let (levels, level_us) = (
            metrics.levels_expanded_total.clone(),
            metrics.level_expand_us.clone(),
        );
        let probe = mvq_obs::RegistryProbe::new(metrics);
        host.set_probe(ProbeHandle::new(Arc::new(probe))).unwrap();
        let start = Instant::now();
        host.census(3).unwrap();
        let wall_us = start.elapsed().as_micros() as u64;
        assert_eq!(levels.get(), 4);
        let timed = level_us.snapshot();
        assert_eq!(timed.count, 4);
        assert!(
            timed.sum <= wall_us,
            "{} µs of levels in {wall_us} µs",
            timed.sum
        );
    }

    #[test]
    fn registry_creates_and_caps_models() {
        let registry = HostRegistry::new(HostConfig {
            max_cost_bound: 7,
            max_models: 2,
            ..HostConfig::default()
        });
        let unit = registry.host_for::<Narrow>(CostModel::unit()).unwrap();
        let again = registry.host_for::<Narrow>(CostModel::unit()).unwrap();
        assert!(Arc::ptr_eq(&unit, &again));
        registry
            .host_for::<Narrow>(CostModel::weighted(1, 2, 3))
            .unwrap();
        let err = registry
            .host_for::<Narrow>(CostModel::weighted(2, 2, 1))
            .unwrap_err();
        assert_eq!(err, HostError::TooManyModels { limit: 2 });
        assert_eq!(registry.stats().unwrap().len(), 2);
    }

    #[test]
    fn wide_host_serves_4_wire_targets() {
        let registry = HostRegistry::new(HostConfig {
            max_cost_bound: 3,
            max_models: 4,
            ..HostConfig::default()
        });
        let host = registry.host_for::<Wide>(CostModel::unit()).unwrap();
        // The 4-wire CNOT D ^= A costs 1.
        let target = mvq_core::known::parse_target_on("(9,10)(11,12)(13,14)(15,16)", 16).unwrap();
        let syn = host.synthesize(&target, 2).unwrap().unwrap();
        assert_eq!(syn.cost, 1);
        let stats = host.stats().unwrap();
        assert_eq!(stats.wires, 4);
        // Narrow and wide hosts for the same model coexist and count
        // toward one cap.
        registry.host_for::<Narrow>(CostModel::unit()).unwrap();
        assert_eq!(registry.stats().unwrap().len(), 2);
        // Each is its own labelled series; the cold one's depth reads −1.
        let scrape = mvq_obs::parse_scrape(&registry.metrics().render_prometheus());
        assert_eq!(scrape.gauges[r#"completed{wires="4",model="1,1,1"}"#], 1);
        assert_eq!(scrape.gauges[r#"completed{wires="3",model="1,1,1"}"#], -1);
    }

    #[test]
    fn model_cap_spans_both_widths() {
        let registry = HostRegistry::new(HostConfig {
            max_cost_bound: 3,
            max_models: 2,
            ..HostConfig::default()
        });
        registry.host_for::<Narrow>(CostModel::unit()).unwrap();
        registry.host_for::<Wide>(CostModel::unit()).unwrap();
        let err = registry
            .host_for::<Narrow>(CostModel::weighted(1, 2, 3))
            .unwrap_err();
        assert_eq!(err, HostError::TooManyModels { limit: 2 });
        let err = registry
            .host_for::<Wide>(CostModel::weighted(1, 2, 3))
            .unwrap_err();
        assert_eq!(err, HostError::TooManyModels { limit: 2 });
    }

    #[test]
    fn install_rejects_mismatched_wire_counts() {
        // Regression: installing a 2-wire snapshot used to park it in
        // the table that serves wires = 3 traffic, where the first
        // request's target reduction would panic the worker.
        let registry = HostRegistry::new(HostConfig::default());
        let two_wire = SynthesisEngine::new(mvq_logic::GateLibrary::standard(2), CostModel::unit());
        let err = registry.install(two_wire).unwrap_err();
        assert!(matches!(err, HostError::Engine(_)), "{err}");
        let three_wire_wide =
            WideSynthesisEngine::new(mvq_logic::GateLibrary::standard(3), CostModel::unit());
        let err = registry.install(three_wire_wide).unwrap_err();
        assert!(matches!(err, HostError::Engine(_)), "{err}");
        assert!(registry.stats().unwrap().is_empty());
    }

    #[test]
    fn registry_reads_never_wait_on_a_held_engine() {
        // `stats()` reads each host's published gauges, so neither it nor
        // a `/metrics` scrape nor a request to another host waits on a
        // level that holds one host's engine write lock.
        let registry = HostRegistry::new(HostConfig::default());
        let busy = registry.host_for::<Narrow>(CostModel::unit()).unwrap();
        let model = CostModel::weighted(1, 2, 3);
        let other = registry.host_for::<Narrow>(model).unwrap();
        busy.census(3).unwrap();
        other.census(3).unwrap();
        let cnot: Perm = "(5,7)(6,8)".parse::<Perm>().unwrap().extended(8);
        let bound = Duration::from_secs(1);
        std::thread::scope(|scope| {
            let writer = hold_write_lock(scope, &busy, Duration::from_millis(1500));
            let start = Instant::now();
            let stats = registry.stats().unwrap();
            assert!(start.elapsed() < bound, "stats waited on the level");
            let depths: Vec<Option<u32>> = stats.iter().map(|s| s.completed).collect();
            assert_eq!(depths, [Some(3), Some(3)]);
            let start = Instant::now();
            assert_eq!(scraped_total(&registry, "census_requests_total"), Some(2));
            assert!(start.elapsed() < bound, "the scrape waited");
            let start = Instant::now();
            let (syn, trace) = registry
                .host_for::<Narrow>(model)
                .unwrap()
                .synthesize_traced(&cnot, 3, Strategy::Uni, None)
                .unwrap();
            assert!(start.elapsed() < bound, "the other host's hit waited");
            // Two controlled-V gates (cost 1 each) make the CNOT.
            assert_eq!(syn.unwrap().cost, 2);
            assert!(trace.cache_hit);
            writer.join().unwrap();
        });
    }

    #[test]
    fn install_replaces_the_model_host() {
        let registry = HostRegistry::new(HostConfig::default());
        let mut warm = SynthesisEngine::unit_cost();
        warm.expand_to_cost(4);
        registry.install(warm).unwrap();
        let host = registry.host_for::<Narrow>(CostModel::unit()).unwrap();
        assert_eq!(host.stats().unwrap().completed, Some(4));
    }

    /// Regression for the self-healing path: a panic while holding the
    /// engine write lock used to condemn the host forever (every later
    /// request got `Poisoned`); now the first request to trip over the
    /// poison rebuilds the engine from the last-good snapshot bytes and
    /// is answered normally.
    #[test]
    fn poisoned_engine_heals_on_next_request() {
        let host = Arc::new(unit_host(7));
        host.synthesize(&known::peres_perm(), 5).unwrap(); // warm to 4
        let panicked = std::thread::spawn({
            let host = Arc::clone(&host);
            move || {
                let _guard = host.engine.write().unwrap();
                panic!("injected writer panic");
            }
        })
        .join();
        assert!(panicked.is_err());
        // The last-good bytes predate the warming census, so the healed
        // engine is cold again — but it answers, and it answers the
        // same: the rebuild replays the expansion it needs.
        let syn = host.synthesize(&known::peres_perm(), 5).unwrap().unwrap();
        assert_eq!(syn.cost, 4);
        let stats = host.stats().unwrap();
        assert_eq!(stats.rebuilds, 1);
        // Healing is idempotent: later requests see a healthy host.
        assert!(host
            .synthesize(&known::toffoli_perm(), 5)
            .unwrap()
            .is_some());
        assert_eq!(host.stats().unwrap().rebuilds, 1);
    }

    /// Records the snapshot sections an engine reports, by name.
    #[derive(Default)]
    struct Sections(std::sync::Mutex<Vec<&'static str>>);

    impl mvq_obs::Probe for Sections {
        fn snapshot_section_finished(&self, section: &'static str, _bytes: u64) {
            self.0.lock().unwrap().push(section);
        }
    }

    impl Sections {
        fn count(&self, section: &str) -> usize {
            self.0
                .lock()
                .unwrap()
                .iter()
                .filter(|&&s| s == section)
                .count()
        }
    }

    #[test]
    fn snapshot_host_merges_its_frontier_on_the_first_climb_only() {
        let mut warm = SynthesisEngine::unit_cost();
        warm.expand_to_cost(3);
        let image = warm.snapshot_to_bytes().unwrap();
        let sections = Arc::new(Sections::default());
        let engine =
            SynthesisEngine::load_snapshot_image(image.clone(), ProbeHandle::new(sections.clone()))
                .unwrap();
        let a_size = engine.a_size();
        let host = Arc::new(EngineHost::new(engine, 7));
        let last_good = || host.recovery.lock().unwrap().last_good.clone().unwrap();

        // Building the host neither merges the frontier nor serializes:
        // its last-good state is the loaded buffer itself.
        assert_eq!(sections.count("frontier_merge"), 0);
        assert_eq!(sections.count("core_save"), 0);
        assert!(SnapshotImage::ptr_eq(&last_good(), &image));
        assert_eq!(host.census(3).unwrap().a_size, a_size);

        // Healing reloads that buffer and leaves the frontier deferred.
        let panicked = std::thread::spawn({
            let host = Arc::clone(&host);
            move || {
                let _guard = host.engine.write().unwrap();
                panic!("injected writer panic");
            }
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(host.census(3).unwrap().a_size, a_size);
        assert_eq!(host.stats().unwrap().rebuilds, 1);
        assert_eq!(sections.count("core_load"), 2, "the heal reloaded");
        assert_eq!(sections.count("frontier_merge"), 0);
        assert_eq!(sections.count("core_save"), 0);
        assert!(SnapshotImage::ptr_eq(&last_good(), &image));

        // The first climb merges it, once, and answers like a private
        // engine.
        let mut private = SynthesisEngine::unit_cost();
        for target in [known::peres_perm(), known::toffoli_perm()] {
            let served = host.synthesize(&target, 6).unwrap().unwrap();
            let want = private.synthesize(&target, 6).unwrap();
            assert_eq!(served.circuit.to_string(), want.circuit.to_string());
            assert_eq!(served.implementation_count, want.implementation_count);
            assert_eq!(sections.count("frontier_merge"), 1);
        }
        assert_eq!(host.stats().unwrap().completed, Some(5));
    }

    #[test]
    fn deadline_sheds_waiters_but_not_cache_hits() {
        let host = EngineHost::with_limits(SynthesisEngine::unit_cost(), 7, 200);
        host.census(4).unwrap(); // warm to cost 4
                                 // A zero budget is fine for a cache hit: no waiting happens.
        let hit = host
            .synthesize_traced(&known::peres_perm(), 4, Strategy::Uni, Some(0))
            .map(|(s, _)| s)
            .unwrap();
        assert!(hit.is_some());
        // A miss with a zero budget sheds before expanding.
        let err = host
            .synthesize_traced(&known::toffoli_perm(), 5, Strategy::Uni, Some(0))
            .map(|(s, _)| s)
            .unwrap_err();
        assert_eq!(err, HostError::DeadlineExceeded { deadline_ms: 0 });
        assert_eq!(host.stats().unwrap().deadline_timeouts, 1);
        // Budgets are capped by the host's configured maximum: asking
        // for more than the cap runs under the cap.
        let capped = EngineHost::with_limits(SynthesisEngine::unit_cost(), 7, 0);
        let err = capped
            .synthesize_traced(&known::toffoli_perm(), 5, Strategy::Uni, Some(10_000))
            .map(|(s, _)| s)
            .unwrap_err();
        assert_eq!(err, HostError::DeadlineExceeded { deadline_ms: 0 });
        // And the same miss succeeds once a real budget lets it expand.
        assert!(host
            .synthesize_traced(&known::toffoli_perm(), 5, Strategy::Uni, None)
            .map(|(s, _)| s)
            .unwrap()
            .is_some());
    }

    /// Stands in for an expander in the middle of a level: marks the
    /// flight expanding, holds the engine write lock for `hold`, then
    /// lands the way `expand_shared` does (lock released, flag cleared,
    /// waiters woken). Returns once the write lock is held.
    fn hold_write_lock<'s>(
        scope: &'s std::thread::Scope<'s, '_>,
        host: &'s EngineHost,
        hold: Duration,
    ) -> std::thread::ScopedJoinHandle<'s, ()> {
        let (locked, is_locked) = std::sync::mpsc::channel();
        let writer = scope.spawn(move || {
            host.flight.lock().unwrap().expanding = true;
            let engine = host.engine.write().unwrap();
            locked.send(()).unwrap();
            std::thread::sleep(hold);
            drop(engine);
            host.flight.lock().unwrap().expanding = false;
            host.landed.notify_all();
        });
        is_locked.recv().unwrap();
        writer
    }

    #[test]
    fn deadline_sheds_while_a_level_holds_the_write_lock() {
        let host = EngineHost::with_limits(SynthesisEngine::unit_cost(), 7, 30_000);
        host.census(4).unwrap();
        let strategies = [Strategy::Uni, Strategy::Auto, Strategy::Bidi];
        std::thread::scope(|scope| {
            let writer = hold_write_lock(scope, &host, Duration::from_millis(600));
            // A miss and a hit the cached levels already resolve (the
            // level being expanded is deeper than its bound): under
            // every strategy, both wait out their budget, not the level.
            for strategy in strategies {
                for target in [known::toffoli_perm(), known::peres_perm()] {
                    let start = Instant::now();
                    let err = host
                        .synthesize_traced(&target, 5, strategy, Some(20))
                        .map(|(s, _)| s)
                        .unwrap_err();
                    assert_eq!(err, HostError::DeadlineExceeded { deadline_ms: 20 });
                    assert!(
                        start.elapsed() < Duration::from_millis(400),
                        "{strategy} waited out the level"
                    );
                }
            }
            writer.join().unwrap();
        });
        assert_eq!(host.stats().unwrap().deadline_timeouts, 6);
    }

    #[test]
    fn warm_bidi_reads_build_join_indexes_without_a_writer() {
        // The cached levels' join indexes are built by the reader that
        // first needs them: a deep bidirectional query on a warm host
        // never asks for the write lock, so it is served while another
        // reader holds the engine.
        let host = Arc::new(unit_host(7));
        host.census(4).unwrap();
        let reader = host.engine.read().unwrap();
        let (sent, served) = std::sync::mpsc::channel();
        std::thread::spawn({
            let host = Arc::clone(&host);
            move || {
                let reply = host.synthesize_traced(&known::fredkin_perm(), 7, Strategy::Bidi, None);
                let _ = sent.send(reply.map(|(syn, _)| syn.map(|s| s.cost)));
            }
        });
        let cost = served.recv_timeout(Duration::from_secs(5));
        drop(reader);
        assert_eq!(cost, Ok(Ok(Some(7))));
        assert_eq!(host.stats().unwrap().completed, Some(4));
    }

    #[test]
    fn cold_auto_settles_level_0_through_the_flight() {
        // On a cold host neither read answers; the climb settles level 0
        // through the single flight, and the second read resolves a
        // cost-0 target from the cached levels (still a miss).
        let host = unit_host(7);
        let (syn, trace) = host
            .synthesize_traced(&Perm::identity(8), 7, Strategy::Auto, None)
            .unwrap();
        assert_eq!(syn.unwrap().cost, 0);
        assert!(!trace.cache_hit);
        assert_eq!(trace.expansions, 1);
        assert_eq!(trace.resolved, Strategy::Uni);
        let stats = host.stats().unwrap();
        assert_eq!((stats.completed, stats.expansions), (Some(0), 1));
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
    }

    #[test]
    fn metrics_host_counters_never_wait_on_an_engine_lock() {
        let registry = HostRegistry::new(HostConfig::default());
        let host = registry.install(SynthesisEngine::unit_cost()).unwrap();
        host.census(2).unwrap();
        let census_total = || scraped_total(&registry, "census_requests_total");
        // A scrape mid-level reads the counters, not the engine.
        std::thread::scope(|scope| {
            let writer = hold_write_lock(scope, &host, Duration::from_millis(600));
            let start = Instant::now();
            assert_eq!(census_total(), Some(1));
            assert!(
                start.elapsed() < Duration::from_millis(200),
                "the scrape waited on the level"
            );
            writer.join().unwrap();
        });
        // A poisoned engine does not reset the counters to 0.
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = host.engine.write().unwrap();
                    panic!("injected writer panic");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert_eq!(census_total(), Some(1));
    }

    #[test]
    fn metrics_render_while_the_hosts_mutex_is_held() {
        // A scrape reads the metrics registry alone: a cold host being
        // built under `hosts` (or anything else holding it) cannot stall
        // it.
        let registry = HostRegistry::new(HostConfig::default());
        registry
            .host_for::<Narrow>(CostModel::unit())
            .unwrap()
            .census(1)
            .unwrap();
        let hosts = registry.hosts.lock().unwrap();
        let (sent, rendered) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| sent.send(scraped_total(&registry, "census_requests_total")));
            let total = rendered.recv_timeout(Duration::from_secs(1));
            drop(hosts);
            assert_eq!(total, Ok(Some(1)), "the scrape waited on `hosts`");
        });
    }

    #[test]
    fn host_counters_stay_monotone_across_heal_and_install() {
        let registry = HostRegistry::new(HostConfig::default());
        let host = registry.host_for::<Narrow>(CostModel::unit()).unwrap();
        host.census(2).unwrap();
        host.synthesize(&known::peres_perm(), 5).unwrap();
        let totals = |registry: &HostRegistry| {
            [
                "census_requests_total",
                "synthesize_requests_total",
                "expansions_total",
            ]
            .map(|name| scraped_total(registry, name).unwrap())
        };
        let before = totals(&registry);
        assert_eq!(before, [1, 1, 5]);
        // A heal rebuilds the engine; the counters carry on from where
        // they were, and the gauges follow the rebuilt engine.
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = host.engine.write().unwrap();
                    panic!("injected writer panic");
                })
                .join()
        });
        assert!(panicked.is_err());
        host.census(1).unwrap();
        assert_eq!(totals(&registry), [2, 1, 7]);
        assert_eq!(host.stats().unwrap().rebuilds, 1);
        assert_eq!(host.stats().unwrap().completed, Some(1));
        // A host installed in place of one with the same labels continues
        // its series, and its gauges report the installed engine.
        let mut warm = SynthesisEngine::unit_cost();
        warm.expand_to_cost(3);
        let replaced = registry.install(warm).unwrap();
        replaced.census(3).unwrap();
        assert_eq!(totals(&registry), [3, 1, 7]);
        let stats = replaced.stats().unwrap();
        assert_eq!((stats.census_requests, stats.rebuilds), (3, 1));
        assert_eq!(stats.completed, Some(3));
        let scrape = mvq_obs::parse_scrape(&registry.metrics().render_prometheus());
        assert_eq!(
            scrape.gauges[r#"completed{wires="3",model="1,1,1"}"#], 3,
            "{scrape:?}"
        );
    }

    #[test]
    fn deadline_waiter_is_served_when_the_level_lands() {
        let host = EngineHost::with_limits(SynthesisEngine::unit_cost(), 7, 30_000);
        host.census(4).unwrap();
        std::thread::scope(|scope| {
            let writer = hold_write_lock(scope, &host, Duration::from_millis(100));
            let served = host
                .synthesize_traced(&known::peres_perm(), 4, Strategy::Uni, Some(10_000))
                .map(|(s, _)| s)
                .unwrap()
                .unwrap();
            assert_eq!(served.cost, 4);
            writer.join().unwrap();
        });
        assert_eq!(host.stats().unwrap().deadline_timeouts, 0);
    }
}
