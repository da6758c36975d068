//! Bidirectional (meet-in-the-middle) Minimum_Cost_Expressing.
//!
//! The unidirectional MCE must expand FMCF levels all the way to the
//! target's cost `t` — and the level sets grow geometrically (roughly
//! 4.5× per level for the paper's 18-gate library), so the last level
//! dominates the whole search. The bidirectional variant expands a
//! *second* frontier backward from the target and joins the two partway:
//! the split is adaptive, growing whichever frontier currently holds
//! fewer elements (see [`SynthesisEngine::synthesize_bidirectional`]),
//! so the dominant forward word levels stay as shallow as the coverage
//! invariant allows.
//!
//! The backward frontier does not need full domain words. A cascade
//! suffix is *reasonable after* a prefix exactly when, at each of its
//! gates, the current image of the binary set `S` avoids the gate's
//! banned set — and that image is fully described by the prefix's
//! S-trace (the 8 domain indices `S` maps to, packed into a `u64`).
//! The backward search therefore runs Dijkstra over `u64` traces,
//! starting from the target's trace and applying inverse gate images,
//! admitting an edge for gate `g` from trace `T` to `g⁻¹(T)` iff
//! `g⁻¹(T)` avoids `banned(g)` — the forward reasonability condition at
//! the point where `g` would fire. Joining a forward word `u` (cost `f`)
//! with a backward trace `T = trace(u)` (cost `b`) therefore yields, by
//! construction, a *reasonable* cascade of cost `f + b` realizing the
//! target: no post-hoc validation is needed.
//!
//! Backward levels are *settled* before they are *expanded*. Settling
//! level `b` pops its pending bucket and drops stale copies, so every
//! trace of cost ≤ `b` is known at its final cost; expanding it
//! generates its predecessors, which only settling a deeper level needs.
//! The frontier therefore stops at the level the join reaches and never
//! generates that level's successors — for a cost-7 target on a cost-5
//! warm engine, 246 generated traces instead of 1,662. Costs, witness
//! counts and circuits do not change: the coverage invariant needs only
//! the traces of cost ≤ `back_done` to be known, and the minimal-suffix
//! walks read only strictly cheaper levels, which are expanded and final.

use std::collections::{BTreeMap, HashSet};

use mvq_logic::Gate;
use mvq_perm::Perm;

use crate::engine::{trace_mask, Answer, Query, SearchEngine, Strategy, TraceIndex};
use crate::par;
use crate::seen::{Handle, Meta, ShardedSeen};
use crate::width::{MaskRepr, SearchWidth, TraceRepr, WordRepr};
use crate::word::{FnvBuildHasher, GateTable};
use crate::{Circuit, Synthesis};

/// Dijkstra frontier over S-traces, grown backward from a target trace.
///
/// A level is *settled* when its cheapest pending bucket is popped and
/// its stale copies dropped: with positive gate costs, once every
/// cheaper level has generated its predecessors nothing can still reach
/// a trace at that cost more cheaply, so `levels[b]` is final and
/// `settled = b` means every trace of cost ≤ `b` is known. A level is
/// *expanded* when its predecessors are generated into `pending`, which
/// only the next settle needs. So the deepest settled level stays
/// unexpanded until a deeper one is asked for, and a query that joins
/// at that level never pays for its (largest) successor set.
pub(crate) struct BackwardFrontier<W: SearchWidth> {
    /// Binary-set size: how many bytes of each trace are populated.
    k: usize,
    seen: ShardedSeen<W::Trace>,
    /// Pending traces by cost, as handles into `seen`.
    pending: BTreeMap<u32, Vec<Handle>>,
    /// The deepest settled level.
    settled: u32,
    /// The settled level whose predecessors are not generated yet.
    unexpanded: Option<u32>,
    /// Traces first reached at exact cost `b` (gap levels are empty).
    levels: Vec<Vec<W::Trace>>,
    /// Successors generated so far: the deterministic work count.
    #[cfg(test)]
    generated: u64,
}

impl<W: SearchWidth> BackwardFrontier<W> {
    /// A frontier with level 0 (the target trace alone) settled.
    fn new(target_trace: W::Trace, k: usize, threads: usize) -> Self {
        let mut seen: ShardedSeen<W::Trace> = ShardedSeen::for_threads(threads);
        seen.intern(target_trace, Meta::ROOT);
        Self {
            k,
            seen,
            pending: BTreeMap::new(),
            settled: 0,
            unexpanded: Some(0),
            levels: vec![vec![target_trace]],
            #[cfg(test)]
            generated: 0,
        }
    }

    fn exhausted(&self) -> bool {
        self.pending.is_empty() && self.unexpanded.is_none()
    }

    /// Settles the next backward cost level, expanding the current
    /// deepest one first. Returns `false` on exhaustion.
    fn settle_next_level(&mut self, engine: &SearchEngine<W>) -> bool {
        self.expand_settled(engine);
        let Some((&cost, _)) = self.pending.first_key_value() else {
            return false;
        };
        // lint: allow(panic) first_key_value just proved the bucket key exists
        let raw_bucket = self.pending.remove(&cost).expect("bucket exists");
        // Lazy decrease-key, mirroring the forward engine: drop copies
        // superseded by a cheaper rediscovery, then gather the level's
        // traces.
        let seen = &self.seen;
        let handles = par::par_filter(&engine.pool, raw_bucket, |&h| seen.meta(h).cost == cost);
        let bucket = par::par_map(&engine.pool, &handles, |_, &h| seen.key(h));
        self.levels.resize_with(cost as usize, Vec::new);
        self.levels.push(bucket);
        self.settled = cost;
        self.unexpanded = Some(cost);
        true
    }

    /// Generates the predecessors of the settled-but-unexpanded level,
    /// if any, into `pending`.
    ///
    /// Makes the same calls into [`crate::par`] as the forward engine:
    /// small trace buckets expand inline, large ones across the engine's
    /// pool, with bit-identical results either way. Every edge is
    /// generated: traces are 8–16-byte keys and backward levels are
    /// small, so the forward engine's parent-edge skip would not pay here.
    fn expand_settled(&mut self, engine: &SearchEngine<W>) {
        let Some(cost) = self.unexpanded.take() else {
            return;
        };
        let (earlier, rest) = self.levels.split_at(cost as usize);
        let bucket = &rest[0];
        let k = self.k;
        let expected_new = par::growth_hint(
            bucket.len(),
            earlier.last().map_or(0, Vec::len),
            engine.gate_images.len(),
        );
        let generate = |_: usize, &trace: &W::Trace, emit: &mut par::Emit<W::Trace>| {
            for gate_idx in 0..engine.gate_images.len() {
                let prev = apply_to_trace::<W>(trace, &engine.gate_inverse_images[gate_idx], k);
                // Forward reasonability of `gate_idx` at the moment it
                // would fire: the pre-image of S must avoid the banned set.
                if trace_mask::<W>(prev, k).intersects(&engine.gate_banned[gate_idx]) {
                    continue;
                }
                emit.push(prev, cost + engine.gate_costs[gate_idx], gate_idx as u8);
            }
        };
        let expansion = par::expand_bucket(
            &engine.pool,
            bucket,
            &mut self.seen,
            expected_new,
            &engine.probe,
            generate,
        );
        par::append_pushes(&mut self.pending, expansion.pushes);
        #[cfg(test)]
        {
            self.generated += expansion.generated;
        }
    }

    /// The forward gate cascade leading from `start` to the target trace.
    fn suffix_gates(&self, start: W::Trace, engine: &SearchEngine<W>) -> Vec<Gate> {
        self.suffix_gate_indices(start, engine)
            .into_iter()
            .map(|gate_idx| engine.library.gates()[gate_idx].gate())
            .collect()
    }

    /// The gate-index chain leading from `start` to the target trace.
    fn suffix_gate_indices(&self, start: W::Trace, engine: &SearchEngine<W>) -> Vec<usize> {
        let mut indices = Vec::new();
        let mut current = start;
        loop {
            // lint: allow(panic) backward walk follows links stored when the trace was discovered
            let meta = self.seen.get(&current).expect("trace was discovered");
            if meta.gate == u8::MAX {
                break;
            }
            indices.push(meta.gate as usize);
            current = apply_to_trace::<W>(current, &engine.gate_images[meta.gate as usize], self.k);
        }
        indices
    }

    /// Streams *every* minimal gate chain leading from `start` to the
    /// target trace through the visitor `f`, found by walking the
    /// dist-consistent edges of the Dijkstra DAG (a trace may admit
    /// several minimal suffixes; distinct cascades that share the trace
    /// path can still differ on non-binary domain points, so witness
    /// counting needs them all). Visiting instead of materializing a
    /// `Vec<Vec<u8>>` keeps the join loop's allocation flat at
    /// witness-heavy depths.
    fn for_each_minimal_chain(
        &self,
        start: W::Trace,
        engine: &SearchEngine<W>,
        mut f: impl FnMut(&[u8]),
    ) {
        let mut stack = Vec::new();
        self.visit_minimal_chains(start, engine, &mut stack, &mut f);
    }

    fn visit_minimal_chains(
        &self,
        trace: W::Trace,
        engine: &SearchEngine<W>,
        stack: &mut Vec<u8>,
        f: &mut impl FnMut(&[u8]),
    ) {
        // lint: allow(panic) visit starts from a discovered trace and follows stored links
        let dist = self.seen.get(&trace).expect("trace was discovered").cost;
        if dist == 0 {
            // Only the target trace has cost 0 (gate costs are positive).
            f(stack);
            return;
        }
        let mask = trace_mask::<W>(trace, self.k);
        for gate_idx in 0..engine.gate_images.len() {
            if mask.intersects(&engine.gate_banned[gate_idx]) {
                continue; // gate not reasonable at this point
            }
            let gate_cost = engine.gate_costs[gate_idx];
            if gate_cost > dist {
                continue;
            }
            let next = apply_to_trace::<W>(trace, &engine.gate_images[gate_idx], self.k);
            // Edge is on a minimal suffix iff it is dist-consistent.
            if self
                .seen
                .get(&next)
                .is_some_and(|meta| meta.cost == dist - gate_cost)
            {
                stack.push(gate_idx as u8);
                self.visit_minimal_chains(next, engine, stack, f);
                stack.pop();
            }
        }
    }
}

/// Applies a gate image table to each packed byte of a trace.
fn apply_to_trace<W: SearchWidth>(trace: W::Trace, table: &GateTable, k: usize) -> W::Trace {
    let mut out = W::Trace::ZERO;
    for i in 0..k {
        let point = trace.byte(i);
        out = out.or_byte(i, table[usize::from(point)]);
    }
    out
}

impl<W: SearchWidth> SearchEngine<W> {
    /// Meet-in-the-middle MCE: [`Self::synthesize_with`] under
    /// [`Strategy::Bidi`], joining the cached forward levels against a
    /// backward frontier expanded from the target side.
    ///
    /// Produces cost-identical results to [`Self::synthesize`] (including
    /// [`Synthesis::implementation_count`]), but only ever expands
    /// forward levels partway to the target cost, which is decisively
    /// cheaper for deep targets (the level sets grow geometrically). The
    /// forward levels remain shared with the unidirectional path, so
    /// mixed workloads reuse one cache.
    ///
    /// The split is *adaptive*: instead of always meeting at `⌈c/2⌉`,
    /// each step grows whichever frontier currently holds fewer elements
    /// (forward words vs backward traces), until the two depths jointly
    /// cover cost `c` (see [`Self::answer`]). The choice of split
    /// never changes costs or witness counts, only how the work divides
    /// between the frontiers.
    ///
    /// Returns `None` if the target's minimal cost exceeds `cb`.
    ///
    /// # Panics
    ///
    /// Panics if `target.degree() != 2^n` for the library's wire count.
    pub fn synthesize_bidirectional(&mut self, target: &Perm, cb: u32) -> Option<Synthesis> {
        self.synthesize_with(Strategy::Bidi, target, cb)
    }

    /// Read-only meet-in-the-middle MCE against the engine's cached
    /// forward levels: [`Self::answer`] on a reader's [`Strategy::Bidi`]
    /// query, whose backward frontier is per-query (never shared), so
    /// concurrent readers can serve deep targets without taking a write
    /// lock.
    ///
    /// Resolution is cost- and count-identical to
    /// [`Self::synthesize_bidirectional`]. Returns
    /// [`CachedBidirectional::NeedsPreparation`] only on a cold engine
    /// (no forward level settled yet): settle one under a write lock,
    /// then retry.
    pub fn synthesize_bidirectional_cached(&self, target: &Perm, cb: u32) -> CachedBidirectional {
        match self.answer(&mut self.query(target, cb, Strategy::Bidi)) {
            Answer::Resolved(result, _) => CachedBidirectional::Resolved(result),
            Answer::NeedsLevel => CachedBidirectional::NeedsPreparation,
        }
    }

    /// The [`Strategy::Bidi`] half of [`Self::answer`]: the one
    /// coverage-and-join loop, over the query's own backward frontier.
    ///
    /// For each total cost `c` up to the bound, the backward frontier
    /// grows until the two depths cover `c`. Coverage invariant: every
    /// cost-`c` cascade splits at its longest suffix of cost ≤
    /// `back_done`, leaving a prefix of cost at most
    /// `c − back_done + max_gate − 1`, so `fwd_done + back_done ≥
    /// c + max_gate − 1` (or either side alone reaching `c`) guarantees
    /// every minimal witness is joined. Definitive `None` is sound even
    /// when the backward frontier exhausts first: joining the identity
    /// word (forward level 0) against a full suffix chain bounds any
    /// reachable target's minimal cost by the deepest backward level.
    ///
    /// The forward depth is the settled one, capped at the bound. A
    /// cold engine needs a level. So does a mutable loop's query
    /// whenever the adaptive split prefers the forward side: its deepest
    /// level is no larger than the backward one, or the backward side is
    /// exhausted, and the forward side is not.
    pub(crate) fn answer_bidi(&self, query: &mut Query<W>) -> Answer {
        let Some(completed) = self.completed else {
            return Answer::NeedsLevel;
        };
        let fwd_done = completed.min(query.cb);
        let max_gate = self.max_gate_cost();
        let (k, threads) = (self.binary0.len(), self.threads());
        let back = query
            .back
            .get_or_insert_with(|| BackwardFrontier::new(query.target_trace, k, threads));
        while query.cost <= query.cb {
            let c = query.cost;
            while fwd_done + back.settled < c + (max_gate - 1) && fwd_done < c && back.settled < c {
                if query.split && !self.exhausted() {
                    let fwd_size = self.levels.get(completed as usize).map_or(0, Vec::len);
                    let back_size = back.levels.get(back.settled as usize).map_or(0, Vec::len);
                    if back.exhausted() || fwd_size <= back_size {
                        return Answer::NeedsLevel;
                    }
                }
                if !back.settle_next_level(self) {
                    break; // backward space exhausted: every trace known
                }
            }
            if let Some(syn) = self.resolve_at_cost(back, c, fwd_done, &query.not_layer) {
                return Answer::Resolved(Some(syn), Strategy::Bidi);
            }
            // Both frontiers exhausted and out of joinable range: the
            // target is unreachable, stop early.
            if self.exhausted() && back.exhausted() && c >= fwd_done + back.settled {
                break;
            }
            query.cost += 1;
        }
        Answer::Resolved(None, Strategy::Bidi)
    }

    /// Eager warm-up for [`Self::synthesize_bidirectional_cached`]:
    /// settles forward level 0 on a cold engine, then builds the S-trace
    /// join index of every cached level up to `cb` (which queries would
    /// otherwise build on first use). Idempotent; returns the number of
    /// forward level steps taken (0 or 1).
    pub fn prepare_bidirectional(&mut self, cb: u32) -> usize {
        let mut expanded = 0;
        if self.completed.is_none() && self.settle_one_level() {
            expanded = 1;
        }
        if let Some(done) = self.completed {
            for f in 0..=done.min(cb) {
                self.trace_index(f);
            }
        }
        expanded
    }

    /// The S-trace pinned by a reduced target word: the 0-based domain
    /// index each binary pattern must map to.
    pub(crate) fn target_trace(&self, key: &W::Word) -> W::Trace {
        let binary = self.library.binary_set();
        key.as_slice()
            .iter()
            .enumerate()
            .fold(W::Trace::ZERO, |acc, (i, &rank)| {
                acc.or_byte(i, (binary[rank as usize] - 1) as u8)
            })
    }

    /// The minimal synthesis at total cost `c`, if the cached forward
    /// levels (through `fwd_done`) join the backward frontier there: the
    /// first witness's cascade behind `not_layer`, with the witness count.
    fn resolve_at_cost(
        &self,
        back: &BackwardFrontier<W>,
        c: u32,
        fwd_done: u32,
        not_layer: &[Gate],
    ) -> Option<Synthesis> {
        let (u, trace, count) = self.join_at_cost(back, c, fwd_done)?;
        self.probe.on(|p| p.bidi_split(fwd_done, back.settled, c));
        let mut gates = not_layer.to_vec();
        gates.extend(self.reconstruct(&u));
        gates.extend(back.suffix_gates(trace, self));
        debug_assert_eq!(self.cost_model().cascade_cost(&gates), c);
        Some(Synthesis {
            circuit: Circuit::new(self.library.domain().wires(), gates),
            cost: c,
            not_layer: not_layer.to_vec(),
            implementation_count: count,
        })
    }

    /// Joins the cached forward levels against the backward frontier at
    /// total cost `c`: returns the first witness (word, backward trace)
    /// in deterministic scan order plus the count of distinct minimal
    /// cascades, or `None` when nothing joins at this cost.
    ///
    /// The scan runs on a shared reference (each joined level's S-trace
    /// index is built on first use), so each backward bucket goes through
    /// [`par::par_chunks`]: every chunk (the whole bucket, when it is too
    /// small to shard) folds a private distinct set and first-witness
    /// candidate, merged in chunk order for bit-identical results at any
    /// thread count.
    fn join_at_cost(
        &self,
        back: &BackwardFrontier<W>,
        c: u32,
        fwd_done: u32,
    ) -> Option<(W::Word, W::Trace, usize)> {
        let mut first: Option<(Handle, W::Trace)> = None;
        let mut distinct: HashSet<W::Word, FnvBuildHasher> = HashSet::default();
        for b in 0..=back.settled.min(c) {
            let f = c - b;
            if f > fwd_done {
                continue;
            }
            let bucket = &back.levels[b as usize];
            if bucket.is_empty() {
                continue;
            }
            let index = self.trace_index(f);
            let level = &self.levels[f as usize];
            let partials = par::par_chunks(&self.pool, bucket.len(), |start, end| {
                let mut local = HashSet::default();
                let mut local_first = None;
                for &trace in &bucket[start..end] {
                    self.join_trace(back, trace, index, level, &mut local, &mut local_first);
                }
                (local, local_first)
            });
            // Deterministic merge in chunk order: the distinct set is
            // order-insensitive, and the first chunk holding a witness
            // holds the serial scan's first witness.
            for (local, local_first) in partials {
                if distinct.is_empty() {
                    distinct = local;
                } else {
                    distinct.extend(local);
                }
                if first.is_none() {
                    first = local_first;
                }
            }
        }
        first.map(|(u, trace)| (self.seen.key(u), trace, distinct.len()))
    }

    /// Folds one backward trace into the join accumulators: every
    /// forward word matching the trace, pushed through every minimal
    /// suffix chain (cascades sharing a trace path can differ on
    /// non-binary points, and each yields its own witness).
    fn join_trace(
        &self,
        back: &BackwardFrontier<W>,
        trace: W::Trace,
        index: &TraceIndex<W::Trace>,
        level: &[Handle],
        distinct: &mut HashSet<W::Word, FnvBuildHasher>,
        first: &mut Option<(Handle, W::Trace)>,
    ) {
        let Some(matches) = index.get(&trace) else {
            return;
        };
        back.for_each_minimal_chain(trace, self, |chain| {
            for &word_idx in matches {
                let u = self.seen.key(level[word_idx as usize]);
                let joined = chain
                    .iter()
                    .fold(u, |w, &g| w.map_through(&self.gate_images[g as usize]));
                distinct.insert(joined);
            }
        });
        if first.is_none() {
            if let Some(&word_idx) = matches.first() {
                *first = Some((level[word_idx as usize], trace));
            }
        }
    }
}

/// The outcome of a read-only
/// [`SearchEngine::synthesize_bidirectional_cached`] query.
#[derive(Debug, Clone)]
pub enum CachedBidirectional {
    /// The cached forward levels (plus a per-query backward frontier)
    /// decide the query: a minimal circuit within the bound, or a
    /// definitive `None` — cost- and count-identical to a mutable
    /// [`SearchEngine::synthesize_bidirectional`] call.
    Resolved(Option<Synthesis>),
    /// No forward level is settled yet (a cold engine). Settle one under
    /// a write lock ([`SearchEngine::settle_one_level`] or
    /// [`SearchEngine::prepare_bidirectional`]), then retry.
    NeedsPreparation,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{known, CostModel, SynthesisEngine};
    use mvq_logic::GateLibrary;

    #[test]
    fn peres_bidirectional_matches_unidirectional() {
        let mut e = SynthesisEngine::unit_cost();
        let bidi = e
            .synthesize_bidirectional(&known::peres_perm(), 5)
            .expect("reachable");
        assert_eq!(bidi.cost, 4);
        assert_eq!(bidi.implementation_count, 2);
        assert!(bidi
            .circuit
            .verify_against_binary_perm(&known::peres_perm()));
        // Forward levels stopped at half cost.
        assert!(e.completed.is_some_and(|c| c <= 2));
    }

    #[test]
    fn toffoli_bidirectional_cost_5_four_implementations() {
        let mut e = SynthesisEngine::unit_cost();
        let syn = e
            .synthesize_bidirectional(&known::toffoli_perm(), 6)
            .expect("reachable");
        assert_eq!(syn.cost, 5);
        assert_eq!(syn.implementation_count, 4);
        assert!(syn
            .circuit
            .verify_against_binary_perm(&known::toffoli_perm()));
    }

    #[test]
    fn fredkin_costs_7_bidirectionally() {
        // The unidirectional search needs the full cost-7 level set
        // (millions of words) for this; meeting in the middle keeps both
        // frontiers at cost ≤ 4.
        let mut e = SynthesisEngine::unit_cost();
        assert!(e
            .synthesize_bidirectional(&known::fredkin_perm(), 6)
            .is_none());
        let syn = e
            .synthesize_bidirectional(&known::fredkin_perm(), 7)
            .expect("cost 7");
        assert_eq!(syn.cost, 7);
        // Ground truth from the unidirectional engine: 16 witnesses.
        assert_eq!(syn.implementation_count, 16);
        assert!(syn
            .circuit
            .verify_against_binary_perm(&known::fredkin_perm()));
        assert!(e.completed.is_some_and(|c| c <= 4));
    }

    #[test]
    fn cost_7_witness_count_needs_all_minimal_suffixes() {
        // Regression: reconstructing only the canonical suffix per
        // backward trace undercounted this cost-7 class as 14; the
        // unidirectional ground truth is 16 (distinct minimal cascades
        // can share a trace path yet differ on non-binary points).
        let target: Perm = "(3,5)(4,6,8)".parse::<Perm>().unwrap().extended(8);
        let mut e = SynthesisEngine::unit_cost();
        let syn = e.synthesize_bidirectional(&target, 7).expect("cost 7");
        assert_eq!(syn.cost, 7);
        assert_eq!(syn.implementation_count, 16);
        assert!(syn.circuit.verify_against_binary_perm(&target));
    }

    #[test]
    fn identity_and_not_layer_targets() {
        let mut e = SynthesisEngine::unit_cost();
        let id = e
            .synthesize_bidirectional(&Perm::identity(8), 2)
            .expect("trivial");
        assert_eq!(id.cost, 0);
        assert!(id.circuit.gates().is_empty());
        // NOT(C) target: coset layer only.
        let target: Perm = "(1,2)(3,4)(5,6)(7,8)".parse().unwrap();
        let syn = e.synthesize_bidirectional(&target, 2).expect("not layer");
        assert_eq!(syn.cost, 0);
        assert!(!syn.not_layer.is_empty());
        assert!(syn.circuit.verify_against_binary_perm(&target));
    }

    #[test]
    fn bidirectional_honors_cost_bound_warm_and_cold() {
        let mut e = SynthesisEngine::unit_cost();
        assert!(e
            .synthesize_bidirectional(&known::toffoli_perm(), 4)
            .is_none());
        // Warm in both frontier caches.
        e.expand_to_cost(5);
        assert!(e
            .synthesize_bidirectional(&known::toffoli_perm(), 4)
            .is_none());
    }

    #[test]
    fn low_cost_levels_agree_between_strategies() {
        // Every class of cost ≤ 3 must synthesize to the same cost and
        // implementation count under both strategies (warm engines:
        // level caches are shared across the queries).
        let mut e = SynthesisEngine::unit_cost();
        let mut uni = SynthesisEngine::unit_cost();
        let mut bidi = SynthesisEngine::unit_cost();
        for kk in 0..=3u32 {
            for (perm, _) in e.reversible_circuits_at_cost(kk) {
                let a = uni.synthesize(&perm, 4).expect("reachable");
                let b = bidi.synthesize_bidirectional(&perm, 4).expect("reachable");
                assert_eq!(a.cost, b.cost, "class {perm}");
                assert_eq!(
                    a.implementation_count, b.implementation_count,
                    "class {perm}"
                );
                assert!(b.circuit.verify_against_binary_perm(&perm));
            }
        }
    }

    #[test]
    fn weighted_model_splits_correctly() {
        // Max gate cost 2 exercises the `max_gate − 1` slack in the
        // adaptive coverage invariant (a cost-c witness may leave a
        // prefix up to `c − back_done + max_gate − 1`).
        let lib = GateLibrary::standard(3);
        let mut e = SynthesisEngine::new(lib, CostModel::weighted(2, 2, 1));
        let syn = e
            .synthesize_bidirectional(&known::peres_perm(), 8)
            .expect("reachable");
        assert_eq!(syn.cost, 7);
        assert!(syn.circuit.verify_against_binary_perm(&known::peres_perm()));
    }

    #[test]
    fn weighted_model_is_dijkstra_exact_across_strategies() {
        // Regression: first-seen-wins frontier insertion pinned words at
        // the cost of their first (possibly expensive) discovery, so
        // under asymmetric gate costs `synthesize` reported cost 7 for
        // this class while a reasonable all-V cost-6 cascade exists.
        let target: Perm = "(3,5)(4,6)".parse::<Perm>().unwrap().extended(8);
        let model = CostModel::weighted(1, 2, 3);
        let mut uni = SynthesisEngine::new(GateLibrary::standard(3), model);
        let mut bidi = SynthesisEngine::new(GateLibrary::standard(3), model);
        let a = uni.synthesize(&target, 8).expect("reachable");
        let b = bidi
            .synthesize_bidirectional(&target, 8)
            .expect("reachable");
        assert_eq!(a.cost, 6, "all-V witness: VCB*VCB*VBA*VBA*VCB*VCB");
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.implementation_count, b.implementation_count);
        assert_eq!(model.cascade_cost(a.circuit.gates()), a.cost);
        assert!(a.circuit.verify_against_binary_perm(&target));
        assert!(b.circuit.verify_against_binary_perm(&target));
    }

    #[test]
    fn weighted_classes_agree_across_strategies() {
        // Every class within weighted cost 5 must report the same cost
        // under both strategies, and its witness cascade must price out
        // at exactly the class cost.
        let model = CostModel::weighted(1, 2, 3);
        let mut enumerator = SynthesisEngine::new(GateLibrary::standard(3), model);
        let mut uni = SynthesisEngine::new(GateLibrary::standard(3), model);
        let mut bidi = SynthesisEngine::new(GateLibrary::standard(3), model);
        for k in 0..=5u32 {
            for (perm, circuit) in enumerator.reversible_circuits_at_cost(k) {
                assert_eq!(model.cascade_cost(circuit.gates()), k, "witness of {perm}");
                let a = uni.synthesize(&perm, 5).expect("reachable");
                let b = bidi.synthesize_bidirectional(&perm, 5).expect("reachable");
                assert_eq!(a.cost, k, "unidirectional {perm}");
                assert_eq!(b.cost, k, "bidirectional {perm}");
                assert_eq!(a.implementation_count, b.implementation_count, "{perm}");
            }
        }
    }

    #[test]
    fn two_wire_bidirectional() {
        let lib = GateLibrary::standard(2);
        let mut e = SynthesisEngine::new(lib, CostModel::unit());
        let target: Perm = "(3,4)".parse::<Perm>().unwrap().extended(4);
        let syn = e.synthesize_bidirectional(&target, 3).expect("single CNOT");
        assert_eq!(syn.cost, 1);
    }

    #[test]
    fn two_wire_swap_agrees_across_strategies() {
        // The wire swap needs three Feynman gates; a deliberately huge
        // bound must still terminate promptly on the tiny 2-wire space.
        let target: Perm = "(2,3)".parse::<Perm>().unwrap().extended(4);
        let mut bidi = SynthesisEngine::new(GateLibrary::standard(2), CostModel::unit());
        let mut uni = SynthesisEngine::new(GateLibrary::standard(2), CostModel::unit());
        let b = bidi.synthesize_bidirectional(&target, 30).expect("swap");
        let u = uni.synthesize(&target, 30).expect("swap");
        assert_eq!(b.cost, u.cost);
        assert_eq!(b.implementation_count, u.implementation_count);
        assert!(b.circuit.verify_against_binary_perm(&target));
    }

    #[test]
    fn cached_bidirectional_matches_mutable_path() {
        let mut e = SynthesisEngine::unit_cost();
        // Cold engine: the read path must refuse rather than mutate.
        assert!(matches!(
            e.synthesize_bidirectional_cached(&known::fredkin_perm(), 7),
            CachedBidirectional::NeedsPreparation
        ));
        assert!(e.settle_one_level());
        // Forward level 0 alone now decides any query read-only (its
        // join index is built on first use); the backward frontier
        // carries the full depth per query.
        for target in [
            Perm::identity(8),
            known::peres_perm(),
            known::toffoli_perm(),
            known::fredkin_perm(),
        ] {
            for cb in [0, 4, 7] {
                assert!(
                    matches!(
                        e.synthesize_bidirectional_cached(&target, cb),
                        CachedBidirectional::Resolved(_)
                    ),
                    "{target} at cb {cb}"
                );
            }
        }
        let CachedBidirectional::Resolved(Some(syn)) =
            e.synthesize_bidirectional_cached(&known::fredkin_perm(), 7)
        else {
            panic!("a settled level 0 must resolve");
        };
        assert_eq!(syn.cost, 7);
        assert_eq!(syn.implementation_count, 16);
        assert!(syn
            .circuit
            .verify_against_binary_perm(&known::fredkin_perm()));
        // Under-bound queries resolve to a definitive None.
        let CachedBidirectional::Resolved(missed) =
            e.synthesize_bidirectional_cached(&known::fredkin_perm(), 6)
        else {
            panic!("a settled level 0 must resolve");
        };
        assert!(missed.is_none());
        // Deepening the forward cache needs no preparation either: the
        // new levels' indexes are built by the first join, and the
        // warmer levels shorten the backward legs.
        e.expand_to_cost(3);
        let CachedBidirectional::Resolved(Some(again)) =
            e.synthesize_bidirectional_cached(&known::toffoli_perm(), 7)
        else {
            panic!("a warm engine must resolve");
        };
        assert_eq!(again.cost, 5);
        assert_eq!(again.implementation_count, 4);
        assert!(again
            .circuit
            .verify_against_binary_perm(&known::toffoli_perm()));
    }

    #[test]
    fn deep_cached_queries_leave_the_joined_level_unexpanded() {
        // Deterministic work gate: on a cost-5 warm engine at cb 7, a
        // cost-7 target settles backward levels 0–2 but generates
        // predecessors from levels 0–1 only (eager expansion of the
        // joined level generated 1,662), and a cost-5 target joins at
        // backward level 0 without generating anything (eagerly: 18).
        for threads in [1, 4] {
            let mut e =
                SynthesisEngine::with_threads(GateLibrary::standard(3), CostModel::unit(), threads);
            e.expand_to_cost(5);
            e.prepare_bidirectional(7);
            for (target, cost, count, generated) in [
                (known::fredkin_perm(), 7, 16, 246),
                (known::toffoli_perm(), 5, 4, 0),
            ] {
                let mut query = e.query(&target, 7, Strategy::Bidi);
                let Answer::Resolved(syn, _) = e.answer(&mut query) else {
                    panic!("prepared");
                };
                let syn = syn.expect("reachable");
                let back = query.back.expect("a warm engine builds the frontier");
                assert_eq!(syn.cost, cost, "{threads} threads");
                assert_eq!(syn.implementation_count, count, "{threads} threads");
                assert!(syn.circuit.verify_against_binary_perm(&target));
                assert_eq!(back.generated, generated, "{target}, {threads} threads");
            }
        }
    }

    #[test]
    fn strategy_dispatch_reaches_bidirectional() {
        let mut e = SynthesisEngine::unit_cost();
        let syn = e
            .synthesize_with(Strategy::Bidi, &known::peres_perm(), 5)
            .expect("reachable");
        assert_eq!(syn.cost, 4);
        // Forward levels stopped at half cost, as under
        // `synthesize_bidirectional`; `auto` agrees on cost and count.
        assert_eq!(e.completed, Some(2));
        let auto = SynthesisEngine::unit_cost()
            .synthesize_with(Strategy::Auto, &known::peres_perm(), 5)
            .expect("reachable");
        assert_eq!(
            (auto.cost, auto.implementation_count),
            (syn.cost, syn.implementation_count)
        );
    }

    #[test]
    fn cold_adaptive_split_is_pinned() {
        // Where the adaptive split lands on a cold 1-thread engine at
        // cb 9: cost, witnesses, forward levels settled to, |A|, and the
        // backward successors generated. The mutable loop keeps one
        // backward frontier across the forward settles between its
        // answers; a frontier rebuilt after each settle would generate
        // more.
        let weighted = CostModel::weighted(1, 1, 3);
        for (target, model, cost, count, forward, a_size, generated) in [
            (known::peres_perm(), CostModel::unit(), 4, 2, 2, 181, 246),
            (known::toffoli_perm(), CostModel::unit(), 5, 4, 2, 181, 1662),
            (
                known::fredkin_perm(),
                CostModel::unit(),
                7,
                16,
                3,
                1198,
                6960,
            ),
            (known::toffoli_perm(), weighted, 7, 4, 4, 817, 3582),
        ] {
            let new = || SynthesisEngine::with_threads(GateLibrary::standard(3), model, 1);
            let mut e = new();
            let syn = e.synthesize_bidirectional(&target, 9).expect("reachable");
            assert_eq!(
                (syn.cost, syn.implementation_count),
                (cost, count),
                "{target}"
            );
            assert!(syn.circuit.verify_against_binary_perm(&target));
            assert_eq!(
                (e.completed, e.a_size()),
                (Some(forward), a_size),
                "{target}"
            );
            // The same loop, with its query kept to read the frontier.
            let mut e = new();
            let mut query = e.query(&target, 9, Strategy::Bidi);
            query.split = true;
            let again = e.settle_until_resolved(&mut query).expect("reachable");
            assert_eq!(again.circuit.to_string(), syn.circuit.to_string());
            let back = query.back.expect("warm after the first settle");
            assert_eq!(back.generated, generated, "{target}");
        }
    }
}
