//! Search-core profiling hooks.
//!
//! The search engine cannot read the clock — `mvq_lint`'s determinism
//! rule bans `Instant` from the core modules so replays stay
//! byte-identical. Instead the engine announces *events* through the
//! [`Probe`] trait (level started/finished, level work, bidi split
//! chosen, snapshot section written) and the probe implementation on the
//! other side of the trait boundary does the timing. [`RegistryProbe`]
//! is that implementation: it timestamps paired events with thread-local
//! start cells and feeds the registry's lock-free metrics.
//!
//! This file is *increment-path* code like [`crate::metrics`]: the
//! `obs` lint rule bars locks and heap allocation here, because probe
//! callbacks run inside the engine's hottest loops. Wiring that needs to
//! allocate (building a [`RegistryProbe`] from a registry) takes the
//! pre-registered handles as arguments instead of creating them.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{Counter, Gauge, Histogram};

/// Engine-side observability events. Every method has a no-op default,
/// so an engine without a probe installed pays only an `Option` check.
pub trait Probe: Send + Sync {
    /// A level step is starting. A step settles the next cost level
    /// (pops its bucket, drops stale copies, registers its classes),
    /// first generating the successors of a settled level left
    /// unexpanded, and, on a builder's full expansion, generates the new
    /// level's successors too. A step that only expands a settled level
    /// is bracketed the same way. `cost` is the first level the step
    /// works on. Every start is closed by one
    /// [`level_finished`](Probe::level_finished) within the same engine
    /// call, on the same thread.
    fn level_started(&self, _cost: u32) {}
    /// A level step finished: it settled level `cost` (or expanded it,
    /// when the step only expanded), `nodes` successors entered the
    /// pending frontier during the step, and the frontier now holds
    /// `frontier` words.
    fn level_finished(&self, _cost: u32, _nodes: u64, _frontier: u64) {}
    /// The deterministic work of an expanded level, reported under that
    /// level's cost by whichever step expanded it: `generated`
    /// successors were offered to the `seen` map, and `stale_dropped`
    /// bucket entries were dropped as superseded decrease-key copies
    /// when the level was settled. Both are deterministic.
    fn level_work(&self, _cost: u32, _generated: u64, _stale_dropped: u64) {}
    /// Retired: the engine expands serially and nothing calls this. The
    /// no-op default stays only because the benchmark harness still
    /// overrides it.
    fn bucket_sharded(&self, _min_staged: u64, _max_staged: u64, _total: u64, _shards: u64) {}
    /// The bidirectional planner split a cost bound `cb` into forward
    /// and backward halves.
    fn bidi_split(&self, _forward_cb: u32, _backward_cb: u32, _cb: u32) {}
    /// A snapshot section is starting: a save or load side section, or
    /// `frontier_merge`, the deferred frontier of a loaded engine merged
    /// by its first level step.
    fn snapshot_section_started(&self, _section: &'static str) {}
    /// A snapshot section finished, having carried `bytes` bytes.
    fn snapshot_section_finished(&self, _section: &'static str, _bytes: u64) {}
}

/// Cloneable optional probe slot stored on the engine. `Debug` is
/// implemented by hand (trait objects have none) so the engine can keep
/// deriving `Debug`.
#[derive(Clone, Default)]
pub struct ProbeHandle(Option<Arc<dyn Probe>>);

impl fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "ProbeHandle(set)"
        } else {
            "ProbeHandle(none)"
        })
    }
}

impl ProbeHandle {
    /// The empty (no-op) slot.
    pub fn none() -> Self {
        Self(None)
    }

    /// A slot carrying `probe`.
    pub fn new(probe: Arc<dyn Probe>) -> Self {
        Self(Some(probe))
    }

    /// Whether a probe is installed.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` against the probe if one is installed. Inlined to a
    /// single branch when the slot is empty.
    #[inline]
    pub fn on(&self, f: impl FnOnce(&dyn Probe)) {
        if let Some(probe) = &self.0 {
            f(probe.as_ref());
        }
    }
}

thread_local! {
    static LEVEL_START: Cell<Option<Instant>> = const { Cell::new(None) };
    static SECTION_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The metric handles a [`RegistryProbe`] records into. Built by
/// [`Registry::probe_metrics`](crate::Registry::probe_metrics)
/// (scrape-path code in `registry.rs`) and handed in whole so this
/// file never touches the registry lock.
pub struct ProbeMetrics {
    /// Wall time per level step (µs).
    pub level_expand_us: Arc<Histogram>,
    /// Total canonical words produced by expansions.
    pub level_nodes_total: Arc<Counter>,
    /// Number of level steps.
    pub levels_expanded_total: Arc<Counter>,
    /// Pending frontier size after the last level step.
    pub frontier_words: Arc<Gauge>,
    /// Bidirectional split decisions taken.
    pub bidi_splits_total: Arc<Counter>,
    /// Forward cost bound of the last bidi split.
    pub bidi_forward_cb: Arc<Gauge>,
    /// Backward cost bound of the last bidi split.
    pub bidi_backward_cb: Arc<Gauge>,
    /// Wall time per snapshot section, save or load side (µs).
    pub snapshot_section_us: Arc<Histogram>,
    /// Bytes carried per snapshot section.
    pub snapshot_section_bytes: Arc<Histogram>,
}

/// [`Probe`] implementation that times paired events and records into
/// lock-free registry metrics.
pub struct RegistryProbe {
    metrics: ProbeMetrics,
}

impl RegistryProbe {
    /// Wraps pre-registered metric handles.
    pub fn new(metrics: ProbeMetrics) -> Self {
        Self { metrics }
    }
}

fn elapsed_us(start: Option<Instant>) -> u64 {
    match start {
        Some(t) => {
            let us = t.elapsed().as_micros();
            if us > u64::MAX as u128 {
                u64::MAX
            } else {
                us as u64
            }
        }
        None => 0,
    }
}

impl Probe for RegistryProbe {
    fn level_started(&self, _cost: u32) {
        // lint: allow(determinism) outbound-only timing: feeds latency metrics, never search state
        LEVEL_START.with(|c| c.set(Some(Instant::now())));
    }

    fn level_finished(&self, _cost: u32, nodes: u64, frontier: u64) {
        let us = elapsed_us(LEVEL_START.with(|c| c.take()));
        self.metrics.level_expand_us.record(us);
        self.metrics.level_nodes_total.add(nodes);
        self.metrics.levels_expanded_total.inc();
        self.metrics
            .frontier_words
            .set(frontier.min(i64::MAX as u64) as i64);
    }

    fn bidi_split(&self, forward_cb: u32, backward_cb: u32, _cb: u32) {
        self.metrics.bidi_splits_total.inc();
        self.metrics.bidi_forward_cb.set(i64::from(forward_cb));
        self.metrics.bidi_backward_cb.set(i64::from(backward_cb));
    }

    fn snapshot_section_started(&self, _section: &'static str) {
        // lint: allow(determinism) outbound-only timing: feeds latency metrics, never search state
        SECTION_START.with(|c| c.set(Some(Instant::now())));
    }

    fn snapshot_section_finished(&self, _section: &'static str, bytes: u64) {
        let us = elapsed_us(SECTION_START.with(|c| c.take()));
        self.metrics.snapshot_section_us.record(us);
        self.metrics.snapshot_section_bytes.record(bytes);
    }
}
