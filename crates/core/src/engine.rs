use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use mvq_logic::{Gate, GateLibrary};
use mvq_obs::ProbeHandle;
use mvq_perm::Perm;

use crate::expand::{self, Emit};
use crate::mitm::BackwardFrontier;
use crate::seen::{Handle, Meta, SeenTable};
use crate::snapshot::{DeferredFrontier, SnapshotImage};
use crate::width::{MaskRepr, Narrow, SearchWidth, TraceRepr, WordRepr};
use crate::word::{gate_table, FnvBuildHasher, GateTable};
use crate::{Circuit, CostModel};

/// A per-level S-trace join index (the meet-in-the-middle probe
/// structure): the level's word indices grouped by trace, ascending
/// within each group, in one array. `groups` numbers each distinct trace
/// by first appearance, and `spans` holds each group's `(start, len)` in
/// `positions`.
#[derive(Debug)]
pub(crate) struct TraceIndex<T> {
    groups: HashMap<T, u32, FnvBuildHasher>,
    spans: Vec<(u32, u32)>,
    positions: Vec<u32>,
}

impl<T: TraceRepr> TraceIndex<T> {
    /// Indexes `traces` in two passes: count each group, then place
    /// each word index at its group's next free slot.
    fn build(traces: &[T]) -> Self {
        let mut groups: HashMap<T, u32, FnvBuildHasher> = HashMap::default();
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let group_of: Vec<u32> = traces
            .iter()
            .map(|&trace| {
                let next = spans.len() as u32;
                let group = *groups.entry(trace).or_insert(next);
                if group == next {
                    spans.push((0, 0));
                }
                spans[group as usize].1 += 1;
                group
            })
            .collect();
        // Each span's start, then its length again as the fill cursor.
        let mut start = 0;
        for span in &mut spans {
            let len = span.1;
            *span = (start, 0);
            start += len;
        }
        let mut positions = vec![0; traces.len()];
        for (i, &group) in group_of.iter().enumerate() {
            let span = &mut spans[group as usize];
            positions[(span.0 + span.1) as usize] = i as u32;
            span.1 += 1;
        }
        Self {
            groups,
            spans,
            positions,
        }
    }

    /// The indices of the level's words with `trace`, ascending.
    pub(crate) fn get(&self, trace: &T) -> Option<&[u32]> {
        let (start, len) = self.spans[*self.groups.get(trace)? as usize];
        Some(&self.positions[start as usize..][..len as usize])
    }
}

/// A settled level left unexpanded, with the work count its expansion
/// reports.
#[derive(Debug, Clone, Copy)]
struct SettledLevel {
    cost: u32,
    /// Superseded decrease-key copies dropped while settling it.
    stale_dropped: u64,
}

/// A reversible-circuit equivalence class discovered by FMCF: the
/// restriction to binary patterns, its minimal cost, and every witness
/// (full domain permutation) found *at that minimal cost*.
#[derive(Debug, Clone)]
pub(crate) struct GClass<W: SearchWidth> {
    pub(crate) cost: u32,
    pub(crate) witnesses: Vec<W::Word>,
}

/// A library that does not fit the engine's packed representations at
/// the chosen [`SearchWidth`].
///
/// Each variant documents the seam it guards; the fix for the first is a
/// wider path-metadata type, for the others a wider [`SearchWidth`]
/// (e.g. [`crate::WideSynthesisEngine`] for 4-wire libraries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// More gates than path reconstruction can index.
    TooManyGates {
        /// Gates in the library.
        gates: usize,
    },
    /// More domain patterns than the width's words and banned masks hold.
    DomainTooLarge {
        /// Patterns in the domain.
        patterns: usize,
        /// The width's word/mask capacity.
        capacity: usize,
    },
    /// More binary patterns than the width's S-traces pack.
    BinarySetTooLarge {
        /// Binary patterns in the library.
        patterns: usize,
        /// The width's trace slots.
        slots: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooManyGates { gates } => write!(
                f,
                "library has {gates} gates, but path reconstruction stores gate \
                 indices in a u8 (at most 255 gates; index 255 is the identity sentinel)"
            ),
            Self::DomainTooLarge { patterns, capacity } => write!(
                f,
                "domain has {patterns} patterns, but this width's banned masks and \
                 packed words support at most {capacity} (use a wider engine width)"
            ),
            Self::BinarySetTooLarge { patterns, slots } => write!(
                f,
                "binary set has {patterns} patterns, but this width's S-traces pack \
                 at most {slots} (one byte per binary pattern; use a wider engine width)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of a successful MCE synthesis.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The synthesized circuit: optional NOT layer followed by the
    /// minimal 2-qubit-gate cascade, in execution order.
    pub circuit: Circuit,
    /// The minimal quantum cost `t` (2-qubit gates only).
    pub cost: u32,
    /// The NOT gates of the Theorem 2 coset layer (`d[0]`; empty when the
    /// target fixes the all-zeros pattern).
    pub not_layer: Vec<Gate>,
    /// The number of distinct minimal-cost implementations the search
    /// level contains for this target (distinct domain permutations
    /// restricting to it — the paper reports 2 for Peres, 4 for Toffoli).
    pub implementation_count: usize,
}

/// One read-only MCE attempt at a [`Query`] ([`SearchEngine::answer`]).
#[derive(Debug, Clone)]
pub enum Answer<T = Option<Synthesis>> {
    /// The levels decide the query — a minimal circuit within the bound,
    /// or a definitive `None`, with the cost and witness count the
    /// mutable [`SearchEngine::synthesize_with`] returns — tagged with the
    /// strategy that resolved it ([`Strategy::Auto`] resolves as `Uni` or `Bidi`).
    Resolved(T, Strategy),
    /// Only a deeper forward level can decide: settle one
    /// ([`SearchEngine::settle_one_level`]), then answer the same query
    /// again.
    NeedsLevel,
}

/// Which MCE front-end answers a query.
///
/// [`Uni`](Strategy::Uni) is the paper's formulation: settle FMCF levels
/// from the identity until the target's class appears.
/// [`Bidi`](Strategy::Bidi) meets in the middle: a backward frontier
/// grows from the target side and joins the forward levels, so a
/// cost-`2t` target is reached with two cost-`t` level sets instead of
/// one cost-`2t` set. [`Auto`](Strategy::Auto) answers from the cached
/// levels when they decide the query and meets in the middle otherwise.
/// Costs and witness counts are identical across strategies; only where
/// the search work lands differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Single frontier from the identity (the paper's MCE).
    Uni,
    /// Meet-in-the-middle: forward levels joined against a backward
    /// frontier grown from the target.
    Bidi,
    /// `Uni` when the cached levels decide the query, `Bidi` otherwise.
    Auto,
}

impl Strategy {
    /// The canonical lowercase name (`uni` / `bidi` / `auto`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Uni => "uni",
            Self::Bidi => "bidi",
            Self::Auto => "auto",
        }
    }
}

impl FromStr for Strategy {
    type Err = String;

    /// Accepts `uni`/`unidirectional`, `bidi`/`bidirectional`, and
    /// `auto` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "unidirectional" | "uni" => Ok(Self::Uni),
            "bidirectional" | "bidi" => Ok(Self::Bidi),
            "auto" => Ok(Self::Auto),
            other => Err(format!(
                "unknown strategy `{other}` (expected `uni`, `bidi`, or `auto`)"
            )),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A target reduced once for MCE ([`SearchEngine::query`]) — its
/// Theorem 2 NOT layer, class key and S-trace — plus what its
/// [`SearchEngine::answer`] calls carry from one to the next: the
/// backward frontier and the total cost its joins have ruled out, so a
/// level settled between two answers does not restart either.
pub struct Query<W: SearchWidth> {
    strategy: Strategy,
    pub(crate) cb: u32,
    key: W::Word,
    pub(crate) not_layer: Vec<Gate>,
    pub(crate) target_trace: W::Trace,
    /// Whether a `Bidi` answer on a warm engine may ask for a forward
    /// level (the adaptive split). Only the mutable loop
    /// ([`SearchEngine::synthesize_with`]) sets it: a reader's query
    /// pins the forward depth to the cache.
    pub(crate) split: bool,
    /// The backward frontier, built by the first `Bidi` answer on a warm
    /// engine.
    pub(crate) back: Option<BackwardFrontier<W>>,
    /// The lowest total cost the `Bidi` join has not ruled out yet.
    pub(crate) cost: u32,
}

/// The paper's FMCF + MCE engines over one gate library and cost model,
/// generic over the packed [`SearchWidth`] (use the
/// [`crate::SynthesisEngine`] alias for 2–3 wires and
/// [`crate::WideSynthesisEngine`] for 4 wires).
///
/// [`SearchEngine::expand_to_cost`] materializes the sets `A[k]`,
/// `B[k]`, `G[k]` level by level (Section 3's
/// Finding_Minimum_Cost_Circuits); the level data is cached **and
/// indexed by cost**, so repeated syntheses reuse it and per-level scans
/// touch one level instead of the whole search history.
/// [`SearchEngine::synthesize`] runs Minimum_Cost_Expressing on top;
/// [`SearchEngine::synthesize_bidirectional`] is the meet-in-the-middle
/// variant.
///
/// A level is *settled* when its bucket is popped, its stale copies are
/// dropped and its classes are registered: `G[k]` is final from then on.
/// It is *expanded* when its successors are generated, which only
/// settling level `k + 1` needs. Builders ([`Self::expand_to_cost`],
/// [`Self::expand_one_level`]) do both; queries and hosts
/// ([`Self::synthesize`], [`Self::settle_one_level`]) only settle, and
/// leave the deepest level's (largest) successor set ungenerated until a
/// deeper level is asked for.
///
/// # Examples
///
/// ```
/// use mvq_core::SynthesisEngine;
///
/// let mut engine = SynthesisEngine::unit_cost();
/// engine.expand_to_cost(3);
/// // Table 2, first four columns (verified counts; the paper's printed
/// // row has arithmetic slips at k = 2, 3 — see `EXPECTED_TABLE_2`).
/// assert_eq!(engine.g_counts(), &[1, 6, 24, 51]);
/// ```
#[derive(Debug)]
pub struct SearchEngine<W: SearchWidth> {
    pub(crate) library: GateLibrary,
    pub(crate) model: CostModel,
    /// Per-library-gate 0-based image tables, padded to 256 entries (the
    /// gate itself is the `[..domain]` prefix).
    pub(crate) gate_images: Vec<GateTable>,
    /// Per-library-gate inverse image tables (for path reconstruction and
    /// the backward frontier), padded likewise.
    pub(crate) gate_inverse_images: Vec<GateTable>,
    /// Per-library-gate index of the gate's inverse in the library
    /// (`u8::MAX` when it has none), so expansion can skip the edge back
    /// to a word's parent.
    pub(crate) inverse_gate: Vec<u8>,
    /// Per-library-gate banned masks.
    pub(crate) gate_banned: Vec<W::Mask>,
    /// Per-library-gate costs.
    pub(crate) gate_costs: Vec<u32>,
    /// 0-based domain indices of the binary set `S`, in order.
    pub(crate) binary0: Vec<u8>,
    /// Domain index (0-based) → rank in the binary set, `u8::MAX` if the
    /// pattern is not binary.
    binary_rank: Vec<u8>,
    /// Whether the binary set is the domain's first patterns, in order
    /// (every standard library): a word's S-trace is then its leading
    /// image bytes.
    binary_prefix: bool,
    /// Every discovered element of `A[∞]` with its metadata.
    pub(crate) seen: SeenTable<W::Word>,
    /// Pending frontier elements keyed by their (exact) cost, as handles
    /// into `seen` (which stores each word once).
    pub(crate) pending: BTreeMap<u32, Vec<Handle>>,
    /// Frontier section of a loaded snapshot, parsed and merged into
    /// `seen`/`pending` by the first level step (queries answered from
    /// the cached levels never pay for it). `None` on natively-built
    /// engines and after [`Self::ensure_frontier`].
    pub(crate) deferred_frontier: Option<DeferredFrontier>,
    /// The snapshot file this engine was loaded from, while its levels,
    /// classes and pending buckets still equal it:
    /// [`Self::snapshot_to_bytes`] returns it instead of serializing.
    /// The first level step drops it (level steps are the only code
    /// that changes that state).
    pub(crate) image: Option<SnapshotImage>,
    /// Highest cost whose level has been settled.
    pub(crate) completed: Option<u32>,
    /// The settled level whose successors are not generated yet (always
    /// the deepest settled level when present).
    unexpanded: Option<SettledLevel>,
    /// `B[k]` for each settled level: the words first reached at exact
    /// cost `k`, as handles into `seen` (which stores each word once;
    /// gap levels hold empty vectors, so indices equal costs).
    pub(crate) levels: Vec<Vec<Handle>>,
    /// Per-level S-traces, parallel to `levels` (see [`Self::trace_of`]).
    pub(crate) level_traces: Vec<Vec<W::Trace>>,
    /// Per-level join index: S-trace → indices into the level's handle
    /// vector, built by the first query that joins against the level
    /// (see [`Self::trace_index`]).
    pub(crate) trace_index: Vec<OnceLock<TraceIndex<W::Trace>>>,
    /// Reversible classes: binary restriction → minimal cost + witnesses.
    pub(crate) classes: HashMap<W::Word, GClass<W>, FnvBuildHasher>,
    /// Per-level index of class keys: the restrictions first realized at
    /// exact cost `k` (gap-filled like `levels`).
    pub(crate) class_levels: Vec<Vec<W::Word>>,
    /// `|G[k]|` for each completed cost level `k`.
    pub(crate) g_counts: Vec<usize>,
    /// `|B[k]|` for each completed cost level `k`.
    pub(crate) b_counts: Vec<usize>,
    /// Optional observability probe (no-op when unset). The engine only
    /// announces events through it — timing happens on the other side
    /// of the trait boundary, so this module never reads the clock and
    /// the determinism lint holds.
    pub(crate) probe: ProbeHandle,
}

impl SearchEngine<Narrow> {
    /// Engine for the paper's setting: 3 wires, 18-gate library, unit
    /// costs.
    pub fn unit_cost() -> Self {
        Self::new(GateLibrary::standard(3), CostModel::unit())
    }

    /// [`Self::unit_cost`]; the thread count is ignored (expansion is
    /// serial). Kept only for the benchmark harness, which still passes
    /// one.
    pub fn unit_cost_with_threads(_threads: usize) -> Self {
        Self::unit_cost()
    }
}

impl<W: SearchWidth> SearchEngine<W> {
    /// Engine over an explicit library and cost model.
    ///
    /// # Panics
    ///
    /// Panics if the library exceeds the width's packed representations
    /// (see [`Self::try_new`] for the limits and a non-panicking
    /// constructor).
    pub fn new(library: GateLibrary, model: CostModel) -> Self {
        Self::try_new(library, model).unwrap_or_else(|err| panic!("{err}"))
    }

    /// [`Self::new`]; the thread count is ignored (expansion is serial).
    /// Kept only for the benchmark harness, which still passes one.
    ///
    /// # Panics
    ///
    /// Panics under the same library limits as [`Self::new`].
    pub fn with_threads(library: GateLibrary, model: CostModel, _threads: usize) -> Self {
        Self::new(library, model)
    }

    /// Fallible [`Self::new`] — the form long-lived services should use,
    /// so an over-capacity library surfaces as a typed [`EngineError`]
    /// instead of a worker panic.
    ///
    /// # Errors
    ///
    /// [`EngineError::TooManyGates`] over 255 gates (path metadata stores
    /// gate indices in a `u8`), [`EngineError::DomainTooLarge`] over the
    /// width's word/mask capacity, or [`EngineError::BinarySetTooLarge`]
    /// over the width's S-trace slots.
    pub fn try_new(library: GateLibrary, model: CostModel) -> Result<Self, EngineError> {
        if library.gates().len() > usize::from(u8::MAX) {
            return Err(EngineError::TooManyGates {
                gates: library.gates().len(),
            });
        }
        if library.domain().len() > W::Word::CAPACITY {
            return Err(EngineError::DomainTooLarge {
                patterns: library.domain().len(),
                capacity: W::Word::CAPACITY,
            });
        }
        if library.binary_set().len() > W::Trace::SLOTS {
            return Err(EngineError::BinarySetTooLarge {
                patterns: library.binary_set().len(),
                slots: W::Trace::SLOTS,
            });
        }
        let domain = library.domain().len();
        let gate_images: Vec<GateTable> = library
            .gates()
            .iter()
            .map(|g| gate_table(g.perm().as_images()))
            .collect();
        let gate_inverse_images: Vec<GateTable> = library
            .gates()
            .iter()
            .map(|g| gate_table(g.perm().inverse().as_images()))
            .collect();
        let inverse_gate: Vec<u8> = gate_inverse_images
            .iter()
            .map(|inverse| {
                gate_images
                    .iter()
                    .position(|images| images[..domain] == inverse[..domain])
                    .map_or(u8::MAX, |j| j as u8)
            })
            .collect();
        let gate_banned: Vec<W::Mask> = library
            .gates()
            .iter()
            .map(|g| {
                let mut mask = W::Mask::default();
                for &idx in g.banned_indices() {
                    mask.set_bit(idx - 1);
                }
                mask
            })
            .collect();
        let gate_costs: Vec<u32> = library
            .gates()
            .iter()
            .map(|g| model.cost(g.gate()))
            .collect();
        let binary0: Vec<u8> = library
            .binary_set()
            .iter()
            .map(|&p| (p - 1) as u8)
            .collect();
        let binary_prefix = binary0
            .iter()
            .enumerate()
            .all(|(i, &idx)| usize::from(idx) == i);
        let mut binary_rank = vec![u8::MAX; library.domain().len()];
        for (rank, &idx) in binary0.iter().enumerate() {
            binary_rank[idx as usize] = rank as u8;
        }
        let identity = W::Word::identity(library.domain().len());
        let mut seen: SeenTable<W::Word> = SeenTable::new();
        let root = seen.intern(identity, Meta::ROOT);
        let mut pending = BTreeMap::new();
        pending.insert(0u32, vec![root]);
        Ok(Self {
            library,
            model,
            gate_images,
            gate_inverse_images,
            inverse_gate,
            gate_banned,
            gate_costs,
            binary0,
            binary_rank,
            binary_prefix,
            seen,
            pending,
            deferred_frontier: None,
            image: None,
            completed: None,
            unexpanded: None,
            levels: Vec::new(),
            level_traces: Vec::new(),
            trace_index: Vec::new(),
            classes: HashMap::default(),
            class_levels: Vec::new(),
            g_counts: Vec::new(),
            b_counts: Vec::new(),
            probe: ProbeHandle::none(),
        })
    }

    /// Installs (or clears) the observability probe. The engine calls it
    /// around level steps, bidirectional split decisions, and snapshot
    /// sections; with the default empty handle every hook is a single
    /// branch.
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// The currently installed probe handle.
    pub fn probe(&self) -> &ProbeHandle {
        &self.probe
    }

    /// The gate library in use.
    pub fn library(&self) -> &GateLibrary {
        &self.library
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// The highest cost whose level has been settled, if any: every
    /// class of cost ≤ this is known, though the deepest level's
    /// successors may not be generated yet.
    pub fn completed_cost(&self) -> Option<u32> {
        self.completed
    }

    /// `|G[k]|` for every settled level `k = 0, 1, …`.
    pub fn g_counts(&self) -> &[usize] {
        &self.g_counts
    }

    /// `|B[k]|` (new quantum circuits at exact cost `k`) for every
    /// settled level.
    pub fn b_counts(&self) -> &[usize] {
        &self.b_counts
    }

    /// Total number of distinct quantum circuits discovered so far: the
    /// settled levels plus the successors generated from the expanded
    /// ones (a settled level left unexpanded contributes none), including
    /// frontier words a loaded snapshot has not yet merged into the live
    /// maps.
    pub fn a_size(&self) -> usize {
        self.seen.len()
            + self
                .deferred_frontier
                .as_ref()
                .map_or(0, DeferredFrontier::unique_words)
    }

    /// The words of level `B[cost]`, in discovery order, if that level
    /// has been settled — the raw material for determinism audits (gap
    /// levels under non-unit cost models are empty).
    pub fn level_words(&self, cost: u32) -> Option<Vec<W::Word>> {
        let handles = self.levels.get(cost as usize)?;
        Some(handles.iter().map(|&h| self.seen.key(h)).collect())
    }

    /// The number of distinct reversible classes discovered so far —
    /// the cumulative `Σ |G[k]|`. When this reaches `(2^n − 1)!` (5040
    /// for three wires) every NOT-free reversible function has a known
    /// minimal cost.
    pub fn classes_found(&self) -> usize {
        self.classes.len()
    }

    /// The S-trace of a word: the 0-based domain indices the binary set
    /// maps to, packed one byte per binary pattern into the width's
    /// trace integer.
    ///
    /// Two words agree on every binary pattern iff their traces are
    /// equal, which turns the Section 4 level scan and the
    /// meet-in-the-middle join into single integer comparisons.
    pub(crate) fn trace_of(&self, word: &W::Word) -> W::Trace {
        if self.binary_prefix {
            return W::Trace::from_le_prefix(&word.as_slice()[..self.binary0.len()]);
        }
        let mut trace = W::Trace::ZERO;
        for (i, &idx) in self.binary0.iter().enumerate() {
            trace = trace.or_byte(i, word.at(idx as usize));
        }
        trace
    }

    /// The largest single-gate cost in the library (used to bound the
    /// forward side of a meet-in-the-middle split).
    pub(crate) fn max_gate_cost(&self) -> u32 {
        self.gate_costs.iter().copied().max().unwrap_or(1)
    }

    /// `true` once the reachable search space is fully enumerated.
    pub fn exhausted(&self) -> bool {
        self.pending.is_empty() && self.deferred_frontier.is_none() && self.unexpanded.is_none()
    }

    /// Merges the deferred frontier of a snapshot-loaded engine into the
    /// live `seen`/`pending` maps, reported to the probe as the
    /// `frontier_merge` snapshot section. A no-op on natively-built
    /// engines and once merged.
    ///
    /// Every level step calls this first, so a host merges the frontier
    /// on its first climb, under the write lock the climb holds anyway,
    /// and a host that only serves the cached levels never merges it.
    pub fn ensure_frontier(&mut self) {
        if let Some(frontier) = self.deferred_frontier.take() {
            self.probe
                .on(|p| p.snapshot_section_started("frontier_merge"));
            let bytes = frontier.merge_into::<W>(
                &mut self.seen,
                &mut self.pending,
                &self.gate_images,
                &self.gate_costs,
            );
            self.probe
                .on(|p| p.snapshot_section_finished("frontier_merge", bytes));
        }
    }

    /// Expands FMCF levels until every level of cost ≤ `cb` is settled
    /// and expanded.
    ///
    /// Levels already expanded are reused; the search is cumulative.
    pub fn expand_to_cost(&mut self, cb: u32) {
        self.climb_to(cb, true);
        if self.unexpanded.is_some_and(|level| level.cost <= cb) {
            self.expand_settled_level();
        }
    }

    /// Settles and expands exactly one FMCF cost level (the public
    /// single-step counterpart of [`Self::expand_to_cost`], for builders
    /// that time or count each level). Returns `false` when the
    /// reachable space is exhausted and no level was settled.
    pub fn expand_one_level(&mut self) -> bool {
        self.level_step(true)
    }

    /// Settles exactly one FMCF cost level, first generating the
    /// successors of the level left unexpanded, if any. Returns `false`
    /// when the reachable space is exhausted and no level was settled.
    ///
    /// Long-lived hosts use this to climb level by level, releasing
    /// their engine lock and re-checking target resolution between
    /// steps, so a shallow query never pays for a deep bound — and a
    /// query answered at the deepest level never pays for that level's
    /// successors.
    pub fn settle_one_level(&mut self) -> bool {
        self.level_step(false)
    }

    /// Takes level steps until cost `cb` is settled (or the space is
    /// exhausted); without `expand`, each level is expanded only to
    /// settle the next.
    pub(crate) fn climb_to(&mut self, cb: u32, expand: bool) {
        while self.completed.is_none_or(|c| c < cb) {
            if !self.level_step(expand) {
                break; // search space exhausted
            }
        }
    }

    /// One level step, bracketed by one `level_started`/`level_finished`
    /// probe pair: expands the level left unexpanded (if any), settles
    /// the cheapest pending bucket, and, with `expand`, expands it too.
    /// Returns `false` when no level was left to settle.
    fn level_step(&mut self, expand: bool) -> bool {
        self.image = None;
        mvq_fault::point!("expand.level");
        self.ensure_frontier();
        let next_bucket = || self.pending.keys().next().copied();
        let Some(first) = self.unexpanded.map(|level| level.cost).or_else(next_bucket) else {
            return false;
        };
        self.probe.on(|p| p.level_started(first));
        let mut nodes = self.expand_settled();
        let settled = self.settle_next_level();
        if expand {
            nodes += self.expand_settled();
        }
        self.level_finished(settled.unwrap_or(first), nodes);
        settled.is_some()
    }

    /// Expands the level left unexpanded, if any, as a level step of its
    /// own (a builder or a snapshot needs the full frontier).
    pub(crate) fn expand_settled_level(&mut self) {
        self.image = None;
        if let Some(level) = self.unexpanded {
            self.probe.on(|p| p.level_started(level.cost));
            let nodes = self.expand_settled();
            self.level_finished(level.cost, nodes);
        }
    }

    /// Closes a level step's probe bracket.
    fn level_finished(&self, cost: u32, nodes: u64) {
        if self.probe.is_set() {
            // O(buckets), not O(words): Vec::len per pending bucket.
            let frontier: u64 = self.pending.values().map(|b| b.len() as u64).sum();
            self.probe.on(|p| p.level_finished(cost, nodes, frontier));
        }
    }

    /// Settles the cheapest pending bucket: drops its stale copies,
    /// registers its classes and records it as the next level. Returns
    /// its cost, or `None` when nothing is pending.
    fn settle_next_level(&mut self) -> Option<u32> {
        debug_assert!(self.unexpanded.is_none(), "settled levels expand in order");
        let (&cost, _) = self.pending.first_key_value()?;
        // lint: allow(panic) first_key_value just proved the bucket key exists
        let mut handles = self.pending.remove(&cost).expect("bucket exists");
        // Lazy decrease-key: with non-uniform gate costs a word can be
        // re-admitted to a cheaper bucket after its first discovery; the
        // superseded copy stays behind in its original bucket and is
        // dropped here. Buckets are processed cost-ascending and all gate
        // costs are positive, so a word whose recorded cost still equals
        // this bucket's cost is final (Dijkstra). The check reads the
        // entry through its handle: no hash, probe or key compare.
        let raw_len = handles.len();
        handles.retain(|&h| self.seen.meta(h).cost == cost);
        let stale_dropped = (raw_len - handles.len()) as u64;
        // Defensive: levels complete in ascending order.
        debug_assert!(self.completed.map_or(cost == 0, |c| cost > c));

        // Collect the per-word S-traces for the level index, then
        // register reversible classes (pre_G[cost] − earlier G's: the
        // subtraction is implicit in first-seen-wins) from them.
        // Registration stays serial so the class-discovery and witness
        // order match the bucket order.
        let traces: Vec<W::Trace> = handles
            .iter()
            .map(|&h| self.trace_of(&self.seen.key(h)))
            .collect();
        let mut g_new: Vec<W::Word> = Vec::new();
        for (&handle, &trace) in handles.iter().zip(&traces) {
            if let Some(restriction) = self.restrict(trace) {
                let word = self.seen.key(handle);
                self.register_class(cost, word, restriction, &mut g_new);
            }
        }

        // Record the level and its statistics. With non-unit costs some
        // levels are empty; fill the gap so indices equal costs.
        while self.levels.len() < cost as usize {
            self.levels.push(Vec::new());
            self.level_traces.push(Vec::new());
            self.trace_index.push(OnceLock::new());
            self.class_levels.push(Vec::new());
            self.b_counts.push(0);
            self.g_counts.push(0);
        }
        self.b_counts.push(handles.len());
        self.g_counts.push(g_new.len());
        self.levels.push(handles);
        self.level_traces.push(traces);
        self.trace_index.push(OnceLock::new());
        self.class_levels.push(g_new);
        self.completed = Some(cost);
        self.unexpanded = Some(SettledLevel {
            cost,
            stale_dropped,
        });
        Some(cost)
    }

    /// Generates the successors of the level left unexpanded, if any,
    /// into later buckets, and reports its work. Returns how many
    /// handles entered the pending buckets.
    fn expand_settled(&mut self) -> u64 {
        let Some(SettledLevel {
            cost,
            stale_dropped,
        }) = self.unexpanded.take()
        else {
            return 0;
        };
        let level = cost as usize;
        // The level's words, gathered for this expansion only (`seen`
        // keeps the one copy), and per word the gate leading back to its
        // parent: `w = p·g`, so the successor through `g⁻¹` is `p`,
        // already in `seen` at cost `cost − cost(g)`, which `admit`
        // would always reject.
        let handles = &self.levels[level];
        let bucket: Vec<W::Word> = handles.iter().map(|&h| self.seen.key(h)).collect();
        let back_gates: Vec<u8> = handles
            .iter()
            .map(|&h| {
                let last = usize::from(self.seen.meta(h).gate);
                self.inverse_gate.get(last).copied().unwrap_or(u8::MAX)
            })
            .collect();

        // Expand reasonable products into later buckets. The `seen`
        // reservation is sized from the frontier's measured growth
        // factor so deep levels don't rehash their way up.
        let previous = level.checked_sub(1).map_or(0, |p| self.b_counts[p]);
        let expected_new = expand::growth_hint(bucket.len(), previous, self.gate_images.len());
        let traces = &self.level_traces[level];
        let gate_images = &self.gate_images;
        let gate_banned = &self.gate_banned;
        let gate_costs = &self.gate_costs;
        let binary_len = self.binary0.len();
        let generate = |idx: usize, word: &W::Word, emit: &mut Emit<W::Word>| {
            let image_mask = trace_mask::<W>(traces[idx], binary_len);
            let back_gate = usize::from(back_gates[idx]);
            for (gate_idx, table) in gate_images.iter().enumerate() {
                if gate_idx == back_gate || image_mask.intersects(&gate_banned[gate_idx]) {
                    continue; // the parent, or not a reasonable product
                }
                let (next, hash) = word.map_hash(table);
                emit.push_hashed(next, hash, cost + gate_costs[gate_idx], gate_idx as u8);
            }
        };
        let expansion = expand::expand_bucket(&bucket, &mut self.seen, expected_new, generate);
        self.probe
            .on(|p| p.level_work(cost, expansion.generated, stale_dropped));
        expand::append_pushes(&mut self.pending, expansion.pushes)
    }

    /// Folds one reversible word of the current level into the class
    /// table: first realization founds the class (and joins `g_new`),
    /// same-cost realizations extend its witness list.
    fn register_class(
        &mut self,
        cost: u32,
        word: W::Word,
        restriction: W::Word,
        g_new: &mut Vec<W::Word>,
    ) {
        match self.classes.get_mut(&restriction) {
            None => {
                self.classes.insert(
                    restriction,
                    GClass {
                        cost,
                        witnesses: vec![word],
                    },
                );
                g_new.push(restriction);
            }
            Some(class) if class.cost == cost => {
                class.witnesses.push(word);
            }
            Some(_) => {} // already realizable at lower cost
        }
    }

    /// The S-trace join index for level `f`, built on first use. The
    /// build runs through a shared reference, so concurrent readers of a
    /// warm engine build each level's index once, without a writer.
    pub(crate) fn trace_index(&self, f: u32) -> &TraceIndex<W::Trace> {
        let traces = &self.level_traces[f as usize];
        self.trace_index[f as usize].get_or_init(|| TraceIndex::build(traces))
    }

    /// The paper's MCE (Minimum_Cost_Expressing) algorithm: synthesizes a
    /// minimal-cost implementation of the reversible function `target`
    /// (a permutation of `{1, …, 2^n}`), searching up to cost `cb`
    /// ([`Self::synthesize_with`] under [`Strategy::Uni`]).
    ///
    /// Returns `None` if the target's minimal cost exceeds `cb`
    /// (the paper's `flag = 0` case) — including on a *warm* engine whose
    /// cached levels already extend past `cb`.
    ///
    /// # Panics
    ///
    /// Panics if `target.degree() != 2^n` for the library's wire count.
    pub fn synthesize(&mut self, target: &Perm, cb: u32) -> Option<Synthesis> {
        self.synthesize_with(Strategy::Uni, target, cb)
    }

    /// Runs MCE under `strategy`: the one mutable loop, answering the
    /// target's [`Query`] and settling a forward level whenever the
    /// answer asks for one. Under [`Strategy::Bidi`] the split is
    /// adaptive (see [`Self::synthesize_bidirectional`]).
    ///
    /// # Panics
    ///
    /// Panics if `target.degree() != 2^n` for the library's wire count.
    pub fn synthesize_with(
        &mut self,
        strategy: Strategy,
        target: &Perm,
        cb: u32,
    ) -> Option<Synthesis> {
        let mut query = self.query(target, cb, strategy);
        query.split = true;
        self.settle_until_resolved(&mut query)
    }

    /// Answers `query`, settling one forward level per
    /// [`Answer::NeedsLevel`]. Every strategy asks only while the engine
    /// is not exhausted, and a settle that finds no level leaves it
    /// exhausted, so the loop ends.
    pub(crate) fn settle_until_resolved(&mut self, query: &mut Query<W>) -> Option<Synthesis> {
        loop {
            match self.answer(query) {
                Answer::Resolved(result, _) => return result,
                Answer::NeedsLevel => {
                    self.settle_one_level();
                }
            }
        }
    }

    /// Reduces `target` once for MCE under `strategy` within cost `cb`:
    /// the Theorem 2 NOT layer, the class key and the S-trace a
    /// [`Self::answer`] call reads.
    ///
    /// # Panics
    ///
    /// Panics if `target.degree() != 2^n` for the library's wire count.
    pub fn query(&self, target: &Perm, cb: u32, strategy: Strategy) -> Query<W> {
        let (key, not_layer) = self.reduce_target(target);
        Query {
            strategy,
            cb,
            key,
            not_layer,
            target_trace: self.target_trace(&key),
            split: false,
            back: None,
            cost: 0,
        }
    }

    /// Read-only MCE: answers `query` from the settled forward levels,
    /// never settling one.
    ///
    /// - [`Strategy::Uni`] looks the target's class up. It resolves when
    ///   the class is known, the levels cover the bound, or the space is
    ///   exhausted.
    /// - [`Strategy::Bidi`] joins the levels against the query's backward
    ///   frontier. A reader's query asks for a level only on a cold
    ///   engine; the forward depth stays pinned to the cache.
    /// - [`Strategy::Auto`] is `Uni`'s answer when that resolves, and
    ///   `Bidi`'s otherwise.
    ///
    /// A resolved answer is bit-identical to what [`Self::synthesize_with`]
    /// returns under `Uni` (and cost- and count-identical under every
    /// strategy), which lets concurrent readers share one warm engine and
    /// funnel only [`Answer::NeedsLevel`] to a writer.
    pub fn answer(&self, query: &mut Query<W>) -> Answer {
        match query.strategy {
            Strategy::Uni => self.answer_uni(query),
            Strategy::Bidi => self.answer_bidi(query),
            Strategy::Auto => match self.answer_uni(query) {
                Answer::NeedsLevel => self.answer_bidi(query),
                resolved => resolved,
            },
        }
    }

    /// The class-table half of MCE: a hit within the bound, a class
    /// whose minimal cost exceeds the bound (no level can help), or a
    /// definitive `None` once the levels cover the bound or the space is
    /// exhausted; otherwise a deeper level may hold the class.
    fn answer_uni(&self, query: &Query<W>) -> Answer {
        let Some(class) = self.classes.get(&query.key) else {
            if self.completed.map_or(0, |c| c + 1) > query.cb || self.exhausted() {
                return Answer::Resolved(None, Strategy::Uni);
            }
            return Answer::NeedsLevel;
        };
        debug_assert!(self.completed.is_some_and(|c| c >= class.cost));
        // The class cost is minimal by construction; on a warm engine it
        // may exceed the caller's bound, in which case no further
        // expansion can ever help.
        if class.cost > query.cb {
            return Answer::Resolved(None, Strategy::Uni);
        }
        let n = self.library.domain().wires();
        let mut gates = query.not_layer.clone();
        gates.extend(self.reconstruct(&class.witnesses[0]));
        let synthesis = Synthesis {
            circuit: Circuit::new(n, gates),
            cost: class.cost,
            not_layer: query.not_layer.clone(),
            implementation_count: class.witnesses.len(),
        };
        Answer::Resolved(Some(synthesis), Strategy::Uni)
    }

    /// Strips the Theorem 2 NOT layer from `target` and returns the
    /// remaining stabilizer part as a class key, plus the layer's gates.
    ///
    /// # Panics
    ///
    /// Panics if `target.degree() != 2^n` for the library's wire count.
    pub(crate) fn reduce_target(&self, target: &Perm) -> (W::Word, Vec<Gate>) {
        let n = self.library.domain().wires();
        let patterns = 1usize << n;
        assert_eq!(
            target.degree(),
            patterns,
            "target must permute the {patterns} binary patterns"
        );

        // Theorem 2: strip a NOT layer d[0] so that the remainder fixes
        // pattern 1 (all zeros). d[0] maps pattern 1 to target⁻¹(1)… i.e.
        // its bits are those of the pattern that target sends to 1.
        let bits = target.preimage(1) - 1;
        let not_layer: Vec<Gate> = (0..n)
            .filter(|w| bits & (1 << (n - 1 - w)) != 0)
            .map(Gate::not)
            .collect();
        let d0 = not_layer_perm(bits, n);
        let reduced = d0.left_div(target);
        debug_assert_eq!(reduced.image(1), 1);
        (W::Word::from_slice(reduced.as_images()), not_layer)
    }

    /// Returns every distinct minimal-cost implementation of `target`
    /// found by the level search (one circuit per distinct domain
    /// permutation), up to cost `cb`.
    ///
    /// The paper reports 2 such implementations for Peres and 4 for
    /// Toffoli.
    pub fn synthesize_all(&mut self, target: &Perm, cb: u32) -> Vec<Synthesis> {
        let mut query = self.query(target, cb, Strategy::Uni);
        let Some(first) = self.settle_until_resolved(&mut query) else {
            return Vec::new();
        };
        let n = self.library.domain().wires();
        // A `Uni` answer within the bound is a class hit.
        let witnesses = &self.classes[&query.key].witnesses;
        witnesses
            .iter()
            .map(|w| {
                let mut gates = first.not_layer.clone();
                gates.extend(self.reconstruct(w));
                Synthesis {
                    circuit: Circuit::new(n, gates),
                    cost: first.cost,
                    not_layer: first.not_layer.clone(),
                    implementation_count: witnesses.len(),
                }
            })
            .collect()
    }

    /// Reconstructs the gate cascade that produced `word`, walking the
    /// `gate` chain back to the identity.
    pub(crate) fn reconstruct(&self, word: &W::Word) -> Vec<Gate> {
        let mut gates = Vec::new();
        let mut current = *word;
        loop {
            // lint: allow(panic) reconstruction walks predecessor links that were stored on insert
            let meta = self.seen.get(&current).expect("witness is in A");
            if meta.gate == u8::MAX {
                break;
            }
            let gate_idx = meta.gate as usize;
            gates.push(self.library.gates()[gate_idx].gate());
            // parent = current * gate⁻¹.
            current = current.map_through(&self.gate_inverse_images[gate_idx]);
        }
        gates.reverse();
        gates
    }

    /// The minimal quantum cost of `target`, if within `cb`.
    ///
    /// Like [`Self::synthesize`], a warm engine returns `None` whenever
    /// the minimal cost exceeds `cb`, regardless of prior expansion.
    pub fn minimal_cost(&mut self, target: &Perm, cb: u32) -> Option<u32> {
        self.synthesize(target, cb).map(|s| s.cost)
    }

    /// All reversible circuits of minimal cost exactly `k` — the paper's
    /// set `G[k]` — as `(binary permutation, witness circuit)` pairs.
    ///
    /// Expands levels up to `k` if necessary, then reads the per-level
    /// class index (no scan over other levels). Pairs are sorted by the
    /// binary permutation for determinism.
    pub fn reversible_circuits_at_cost(&mut self, k: u32) -> Vec<(Perm, Circuit)> {
        self.expand_to_cost(k);
        let n = self.library.domain().wires();
        let keys = match self.class_levels.get(k as usize) {
            Some(keys) => keys.clone(),
            None => return Vec::new(), // search space exhausted below k
        };
        let mut out: Vec<(Perm, Circuit)> = keys
            .iter()
            .map(|key| {
                let class = &self.classes[key];
                debug_assert_eq!(class.cost, k);
                let images: Vec<usize> = key.as_slice().iter().map(|&b| b as usize + 1).collect();
                let perm = Perm::from_images(&images).expect("valid restriction");
                let circuit = Circuit::new(n, self.reconstruct(&class.witnesses[0]));
                (perm, circuit)
            })
            .collect();
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Synthesizes a circuit realizing an arbitrary (possibly
    /// *probabilistic*) specification: `images[i]` is the 1-based domain
    /// index that binary input pattern `i + 1` must map to. Mixed-valued
    /// targets are allowed — this is the Section 4 front-end used for
    /// quantum random generators and probabilistic machines.
    ///
    /// Returns the first (minimal-cost) matching cascade within cost `cb`,
    /// or `None`. [`Synthesis::implementation_count`] reports how many
    /// distinct cascades the minimal level contains for the images
    /// (mirroring the paper's Peres = 2 / Toffoli = 4 counts).
    ///
    /// Each level is scanned through its packed trace index — one integer
    /// comparison per member — instead of rescanning the whole `A` set.
    ///
    /// # Panics
    ///
    /// Panics if `images` does not have one entry per binary pattern or
    /// mentions an index outside the domain.
    pub fn synthesize_quaternary(&mut self, images: &[usize], cb: u32) -> Option<Synthesis> {
        let n = self.library.domain().wires();
        assert_eq!(
            images.len(),
            self.binary0.len(),
            "one target per binary pattern"
        );
        for &img in images {
            assert!(
                img >= 1 && img <= self.library.domain().len(),
                "target index {img} outside the domain"
            );
        }
        let target_trace = images
            .iter()
            .enumerate()
            .fold(W::Trace::ZERO, |acc, (i, &img)| {
                acc.or_byte(i, (img - 1) as u8)
            });
        for level in 0..=cb {
            self.climb_to(level, false);
            if self.levels.len() <= level as usize {
                return None; // search space exhausted below `level`
            }
            let hits: Vec<u32> = self.level_traces[level as usize]
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == target_trace)
                .map(|(i, _)| i as u32)
                .collect();
            if let Some(&first) = hits.first() {
                let word = self.seen.key(self.levels[level as usize][first as usize]);
                let gates = self.reconstruct(&word);
                return Some(Synthesis {
                    circuit: Circuit::new(n, gates),
                    cost: level,
                    not_layer: Vec::new(),
                    implementation_count: hits.len(),
                });
            }
        }
        None
    }

    /// Restriction of a word to the binary index set, if closed, read off
    /// the word's S-trace (`trace.byte(i)` is where the word sends the
    /// `i`-th binary pattern).
    pub(crate) fn restrict(&self, trace: W::Trace) -> Option<W::Word> {
        // The stack buffer must cover every width's binary set; a wider
        // future width would silently truncate restrictions otherwise.
        const {
            assert!(
                W::Trace::SLOTS <= 16,
                "restrict buffer narrower than the trace width"
            );
        }
        let mut out = [0u8; 16];
        let k = self.binary0.len();
        for (i, slot) in out[..k].iter_mut().enumerate() {
            let rank = self.binary_rank[trace.byte(i) as usize];
            if rank == u8::MAX {
                return None;
            }
            *slot = rank;
        }
        Some(W::Word::from_slice(&out[..k]))
    }
}

/// Bitmask of the domain indices packed in an S-trace of `k` entries.
pub(crate) fn trace_mask<W: SearchWidth>(trace: W::Trace, k: usize) -> W::Mask {
    let mut mask = W::Mask::default();
    for i in 0..k {
        mask.set_bit(trace.byte(i) as usize);
    }
    mask
}

/// The permutation of `{1, …, 2^n}` realized by NOT gates on the wires
/// whose bit is set in `bits` (wire A = most significant).
pub(crate) fn not_layer_perm(bits: usize, n: usize) -> Perm {
    let images: Vec<usize> = (0..1usize << n).map(|p| (p ^ bits) + 1).collect();
    // lint: allow(panic) xor with a mask permutes truth-table rows, always a bijection
    Perm::from_images(&images).expect("xor is a bijection")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{known, SynthesisEngine, WideSynthesisEngine};

    #[test]
    fn level_0_is_identity_only() {
        let mut e = SynthesisEngine::unit_cost();
        e.expand_to_cost(0);
        assert_eq!(e.g_counts(), &[1]);
        assert_eq!(e.b_counts(), &[1]);
        assert_eq!(e.a_size(), 19); // identity + 18 gates discovered
    }

    #[test]
    fn table_2_prefix() {
        // |G[k]| for k = 0..3: the verified counts (see
        // `census::EXPECTED_TABLE_2` for why k = 2, 3 differ from the
        // paper's printed 30 and 52).
        let mut e = SynthesisEngine::unit_cost();
        e.expand_to_cost(3);
        assert_eq!(e.g_counts(), &[1, 6, 24, 51]);
    }

    #[test]
    fn g1_is_feynman_gates_only() {
        // "G[1] consists of the binary-input binary-output circuits which
        // are the combinations of 1 Feynman gate" — six of them.
        let mut e = SynthesisEngine::unit_cost();
        e.expand_to_cost(1);
        assert_eq!(e.g_counts()[1], 6);
    }

    #[test]
    fn level_index_matches_counts() {
        let mut e = SynthesisEngine::unit_cost();
        e.expand_to_cost(3);
        for k in 0..=3usize {
            assert_eq!(e.levels[k].len(), e.b_counts()[k], "level {k}");
            assert_eq!(e.level_traces[k].len(), e.b_counts()[k], "traces {k}");
            assert_eq!(e.class_levels[k].len(), e.g_counts()[k], "classes {k}");
        }
    }

    #[test]
    fn peres_synthesis_cost_4() {
        let mut e = SynthesisEngine::unit_cost();
        let syn = e.synthesize(&known::peres_perm(), 5).expect("reachable");
        assert_eq!(syn.cost, 4);
        assert!(syn.not_layer.is_empty());
        assert!(syn.circuit.verify_against_binary_perm(&known::peres_perm()));
    }

    #[test]
    fn toffoli_synthesis_cost_5() {
        let mut e = SynthesisEngine::unit_cost();
        let syn = e.synthesize(&known::toffoli_perm(), 6).expect("reachable");
        assert_eq!(syn.cost, 5);
        assert!(syn
            .circuit
            .verify_against_binary_perm(&known::toffoli_perm()));
    }

    #[test]
    fn feynman_costs_1() {
        let mut e = SynthesisEngine::unit_cost();
        let target: Perm = "(5,7)(6,8)".parse::<Perm>().unwrap().extended(8);
        let syn = e.synthesize(&target, 3).expect("one Feynman gate");
        assert_eq!(syn.cost, 1);
        assert_eq!(syn.circuit.gates().len(), 1);
    }

    #[test]
    fn identity_costs_0() {
        let mut e = SynthesisEngine::unit_cost();
        let syn = e.synthesize(&Perm::identity(8), 2).expect("trivial");
        assert_eq!(syn.cost, 0);
        assert!(syn.circuit.gates().is_empty());
    }

    #[test]
    fn pure_not_target_costs_0() {
        // NOT(C): (1,2)(3,4)(5,6)(7,8) — coset layer only.
        let target: Perm = "(1,2)(3,4)(5,6)(7,8)".parse().unwrap();
        let mut e = SynthesisEngine::unit_cost();
        let syn = e.synthesize(&target, 2).expect("not layer");
        assert_eq!(syn.cost, 0);
        assert_eq!(syn.not_layer, vec![Gate::not(2)]);
        assert!(syn.circuit.verify_against_binary_perm(&target));
    }

    #[test]
    fn cost_exceeding_bound_returns_none() {
        let mut e = SynthesisEngine::unit_cost();
        // Toffoli needs 5.
        assert!(e.synthesize(&known::toffoli_perm(), 4).is_none());
    }

    #[test]
    fn warm_engine_honors_cost_bound() {
        // Regression: once the levels were expanded past `cb`, the class
        // lookup used to return a circuit above the caller's bound.
        let mut e = SynthesisEngine::unit_cost();
        e.expand_to_cost(5);
        assert!(e.synthesize(&known::toffoli_perm(), 4).is_none());
        assert!(e.synthesize_all(&known::toffoli_perm(), 4).is_empty());
        assert_eq!(e.minimal_cost(&known::toffoli_perm(), 4), None);
        assert_eq!(e.minimal_cost(&known::toffoli_perm(), 0), None);
        // The bound admits the class once it covers the minimal cost.
        assert_eq!(e.minimal_cost(&known::toffoli_perm(), 5), Some(5));
    }

    #[test]
    fn warm_engine_agrees_with_cold_engine() {
        let mut warm = SynthesisEngine::unit_cost();
        warm.expand_to_cost(5);
        for cb in 0..=5u32 {
            let mut cold = SynthesisEngine::unit_cost();
            assert_eq!(
                warm.minimal_cost(&known::peres_perm(), cb),
                cold.minimal_cost(&known::peres_perm(), cb),
                "cb = {cb}"
            );
        }
    }

    #[test]
    fn quaternary_counts_minimal_implementations() {
        // The paper reports 2 implementations for Peres at cost 4.
        let mut e = SynthesisEngine::unit_cost();
        let images: Vec<usize> = (1..=8).map(|p| known::peres_perm().image(p)).collect();
        let syn = e.synthesize_quaternary(&images, 5).expect("reachable");
        assert_eq!(syn.cost, 4);
        assert_eq!(syn.implementation_count, 2);
    }

    #[test]
    fn quaternary_counts_toffoli_implementations() {
        // …and 4 for Toffoli at cost 5.
        let mut e = SynthesisEngine::unit_cost();
        let images: Vec<usize> = (1..=8).map(|p| known::toffoli_perm().image(p)).collect();
        let syn = e.synthesize_quaternary(&images, 6).expect("reachable");
        assert_eq!(syn.cost, 5);
        assert_eq!(syn.implementation_count, 4);
    }

    #[test]
    fn synthesize_all_returns_distinct_verified_circuits() {
        let mut e = SynthesisEngine::unit_cost();
        let all = e.synthesize_all(&known::peres_perm(), 5);
        assert!(!all.is_empty());
        for syn in &all {
            assert_eq!(syn.cost, 4);
            assert!(syn.circuit.verify_against_binary_perm(&known::peres_perm()));
        }
        // Distinct circuits.
        let mut circuits: Vec<String> = all.iter().map(|s| s.circuit.to_string()).collect();
        circuits.sort();
        circuits.dedup();
        assert_eq!(circuits.len(), all.len());
    }

    #[test]
    fn weighted_costs_change_levels() {
        // With Feynman cost 1 and V costs 2, Peres should cost
        // 1 (Feynman) + 3 × 2 (V gates) = 7.
        let lib = GateLibrary::standard(3);
        let mut e = SynthesisEngine::new(lib, CostModel::weighted(2, 2, 1));
        let syn = e.synthesize(&known::peres_perm(), 8).expect("reachable");
        assert_eq!(syn.cost, 7);
        assert!(syn.circuit.verify_against_binary_perm(&known::peres_perm()));
    }

    #[test]
    fn two_wire_engine_works() {
        // On 2 wires the only reversible circuits are Feynman products.
        let lib = GateLibrary::standard(2);
        let mut e = SynthesisEngine::new(lib, CostModel::unit());
        // CNOT (B ^= A): patterns (1,0)↔? pattern idx: 1=(00),2=(01),
        // 3=(10),4=(11); B^=A swaps 3,4.
        let target: Perm = "(3,4)".parse::<Perm>().unwrap().extended(4);
        let syn = e.synthesize(&target, 3).expect("single CNOT");
        assert_eq!(syn.cost, 1);
    }

    #[test]
    fn wide_width_reproduces_narrow_3_wire_levels() {
        // The widening refactor must not change any 3-wire result: the
        // wide engine (256-byte words, u128 traces, bitset masks) over
        // the standard 3-wire library is compared level by level.
        let mut narrow = SynthesisEngine::unit_cost();
        let mut wide = WideSynthesisEngine::new(GateLibrary::standard(3), CostModel::unit());
        narrow.expand_to_cost(4);
        wide.expand_to_cost(4);
        assert_eq!(narrow.g_counts(), wide.g_counts());
        assert_eq!(narrow.b_counts(), wide.b_counts());
        assert_eq!(narrow.a_size(), wide.a_size());
        for k in 0..=4u32 {
            let (narrow_words, wide_words) =
                (narrow.level_words(k).unwrap(), wide.level_words(k).unwrap());
            let nw: Vec<&[u8]> = narrow_words.iter().map(|w| w.as_slice()).collect();
            let ww: Vec<&[u8]> = wide_words.iter().map(|w| w.as_slice()).collect();
            assert_eq!(nw, ww, "level {k}");
        }
        let a = narrow.synthesize(&known::toffoli_perm(), 5).unwrap();
        let b = wide.synthesize(&known::toffoli_perm(), 5).unwrap();
        assert_eq!(a.circuit.to_string(), b.circuit.to_string());
        assert_eq!(a.implementation_count, b.implementation_count);
    }

    #[test]
    fn four_wire_library_needs_the_wide_width() {
        let lib = GateLibrary::standard(4);
        let err = SynthesisEngine::try_new(lib.clone(), CostModel::unit()).unwrap_err();
        assert_eq!(
            err,
            EngineError::DomainTooLarge {
                patterns: 176,
                capacity: 64
            }
        );
        assert!(err.to_string().contains("176"), "{err}");
        // The wide width accepts it.
        let e = WideSynthesisEngine::try_new(lib, CostModel::unit()).unwrap();
        assert_eq!(e.library().gates().len(), 36);
    }

    #[test]
    fn strategy_parses_and_displays() {
        for (names, strategy) in [
            (["uni", "unidirectional", "UNI"], Strategy::Uni),
            (["bidi", "bidirectional", "Bidirectional"], Strategy::Bidi),
            (["auto", "AUTO", "Auto"], Strategy::Auto),
        ] {
            for name in names {
                assert_eq!(name.parse::<Strategy>().unwrap(), strategy, "{name}");
            }
            assert_eq!(strategy.to_string(), names[0]);
            assert_eq!(strategy.as_str().parse::<Strategy>().unwrap(), strategy);
        }
        assert!("sideways".parse::<Strategy>().is_err());
    }

    /// Records each level's deterministic work counts, in level order.
    #[derive(Default)]
    struct WorkCounter {
        /// `(cost, generated, stale_dropped)` per `level_work` call.
        work: std::sync::Mutex<Vec<(u32, u64, u64)>>,
        /// `nodes` per `level_finished` call.
        nodes: std::sync::Mutex<Vec<u64>>,
    }

    impl mvq_obs::Probe for WorkCounter {
        fn level_finished(&self, _cost: u32, nodes: u64, _frontier: u64) {
            self.nodes.lock().unwrap().push(nodes);
        }

        fn level_work(&self, cost: u32, generated: u64, stale_dropped: u64) {
            self.work
                .lock()
                .unwrap()
                .push((cost, generated, stale_dropped));
        }
    }

    /// Expands a 3-wire engine under `model` to cost `cb`, with `counter`
    /// installed as its probe if given, and returns the census
    /// `(g_counts, b_counts, |A|)`.
    fn climb(
        model: CostModel,
        cb: u32,
        counter: Option<&std::sync::Arc<WorkCounter>>,
    ) -> (Vec<usize>, Vec<usize>, usize) {
        let mut e = SynthesisEngine::new(GateLibrary::standard(3), model);
        if let Some(counter) = counter {
            e.set_probe(ProbeHandle::new(counter.clone()));
        }
        e.expand_to_cost(cb);
        (e.g_counts().to_vec(), e.b_counts().to_vec(), e.a_size())
    }

    /// Expands a 3-wire engine under `model` to cost `cb` with a
    /// [`WorkCounter`] installed.
    fn counted_climb(model: CostModel, cb: u32) -> std::sync::Arc<WorkCounter> {
        let counter = std::sync::Arc::default();
        climb(model, cb, Some(&counter));
        counter
    }

    #[test]
    fn unit_climb_work_counts_are_pinned() {
        let counter = counted_climb(CostModel::unit(), 6);
        let work = counter.work.lock().unwrap().clone();
        let costs: Vec<u32> = work.iter().map(|w| w.0).collect();
        assert_eq!(costs, [0, 1, 2, 3, 4, 5, 6]);
        // Every successor but the one back to the word's parent.
        let generated: Vec<u64> = work.iter().map(|w| w.1).collect();
        assert_eq!(generated, [18, 210, 1482, 8409, 42660, 203721, 941504]);
        // The unit model never re-admits a word, so no copy goes stale.
        assert!(work.iter().all(|w| w.2 == 0), "{work:?}");
        assert_eq!(
            *counter.nodes.lock().unwrap(),
            [18, 162, 1017, 5364, 25761, 118888, 538191]
        );
        // A probe must not change the search: a probed and an unprobed
        // census to cost 5 agree, and the probed one generates the same
        // 256,500 successors.
        let counter = std::sync::Arc::default();
        let probed = climb(CostModel::unit(), 5, Some(&counter));
        let unprobed = climb(CostModel::unit(), 5, None);
        assert_eq!(probed, unprobed);
        let generated: Vec<u64> = counter.work.lock().unwrap().iter().map(|w| w.1).collect();
        assert_eq!(generated, [18, 210, 1482, 8409, 42660, 203721]);
        assert_eq!(generated.iter().sum::<u64>(), 256_500);
    }

    #[test]
    fn weighted_climb_drops_stale_copies() {
        let counter = counted_climb(CostModel::weighted(1, 1, 3), 7);
        let work = counter.work.lock().unwrap().clone();
        assert!(work.iter().any(|w| w.2 > 0), "{work:?}");
        assert_eq!(
            work,
            [
                (0, 18, 0),
                (1, 108, 0),
                (2, 318, 0),
                (3, 894, 0),
                (4, 2604, 0),
                (5, 7422, 0),
                (6, 21342, 0),
                (7, 58548, 12)
            ]
        );
        assert_eq!(
            *counter.nodes.lock().unwrap(),
            [18, 78, 180, 540, 1551, 4248, 12420, 32619]
        );
    }

    /// `inverse_gate` of the standard library at `wires` wires, checked
    /// against the gates' domain images.
    fn assert_inverse_table<W: SearchWidth>(wires: usize) {
        let e = SearchEngine::<W>::new(GateLibrary::standard(wires), CostModel::unit());
        let domain = e.library.domain().len();
        assert_eq!(e.inverse_gate.len(), e.gate_images.len());
        for (i, &inv) in e.inverse_gate.iter().enumerate() {
            assert_ne!(inv, u8::MAX, "{wires} wires: gate {i} has an inverse");
            let inv = usize::from(inv);
            assert_eq!(usize::from(e.inverse_gate[inv]), i, "involution at {i}");
            for x in 0..domain {
                let there = e.gate_images[i][x];
                assert_eq!(e.gate_images[inv][usize::from(there)], x as u8);
            }
        }
    }

    #[test]
    fn every_standard_gate_has_an_inverse() {
        assert_inverse_table::<Narrow>(2);
        assert_inverse_table::<Narrow>(3);
        assert_inverse_table::<crate::width::Wide>(4);
    }

    #[test]
    fn trace_mask_collects_packed_indices() {
        // Trace bytes 1, 3, 5 → mask bits 1, 3, 5.
        let trace: u64 = 1 | (3 << 8) | (5 << 16);
        assert_eq!(trace_mask::<Narrow>(trace, 3), 0b101010);
    }

    #[test]
    fn wide_trace_mask_reaches_high_indices() {
        use crate::width::{Mask256, Wide};
        // A trace byte of 170 (a 4-wire mixed-pattern index) must set a
        // bit past the u64 range.
        let trace: u128 = 170 | (3 << 8);
        let mask = trace_mask::<Wide>(trace, 2);
        assert_eq!(mask, Mask256::from_bits([170, 3]));
    }
}
