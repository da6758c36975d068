//! The Dijkstra level store of the FMCF searches, and its expansion.
//!
//! The paper's FMCF builds the cost levels by a cost-ordered closure over
//! reasonable products. Both searches run that closure: the forward word
//! search of [`crate::SynthesisEngine`] from the identity, and the
//! backward S-trace search of the meet-in-the-middle join
//! ([`crate::mitm`]) from a target's trace. Each owns one [`Frontier`]:
//! its `seen` table ([`crate::seen`]), its pending cost buckets, its
//! settled levels and the marker of the one level left unexpanded.
//!
//! A level step has two halves. *Settling* pops the cheapest bucket,
//! drops the stale decrease-key copies it holds (entries whose `seen`
//! cost has since dropped below the bucket's) and records the rest as
//! the next level. *Expanding* a settled level generates every
//! successor of its elements through the gate library and admits each
//! into `seen` under the Dijkstra insert-or-decrease-key rule, pushing
//! the admitted ones onto the pending buckets. Only settling the next
//! level needs the expansion, so the deepest settled level stays
//! unexpanded until a deeper one is asked for. The store does both
//! halves' bookkeeping; the search supplies what differs: which elements
//! of a popped bucket it keeps and what it registers for them, how to
//! fetch an element and which successors it has.
//!
//! `seen` is built for that insert-heavy probe pattern: each key is
//! hashed once ([`ShardKey::table_hash`]), and expansion generates
//! successors a batch at a time so their home slots can be prefetched
//! before they are admitted in order ([`expand_bucket`]).
//!
//! A level is never copied whole. Levels are `seen` handles, and
//! expansion fetches each element from `seen` just before generating it:
//! the forward search fetches a word and the gate back to its parent,
//! the backward search a trace. Admission only adds entries and lowers
//! costs above the level's own, so a record fetched after earlier blocks
//! were admitted reads as it did when the level was settled.
//!
//! A search hands its successors to this module through an [`Emit`]
//! sink: its `generate` callback pushes `(key, cost, gate)` records, with
//! the key's table hash attached or computed on push, into a reused
//! buffer. **Emit order is admission order**: the buffer is admitted
//! front to back, so a `generate` that changes the order it pushes in
//! changes the pending buckets, even though the set of successors is the
//! same. The forward search fills the sink from
//! [`Packed::map_hash`](crate::Packed::map_hash), which maps a word
//! through a gate and hashes it in the same 8-byte lanes. It writes the
//! same bytes as [`Packed::map_through`](crate::Packed::map_through)
//! and folds them exactly as [`ShardKey::table_hash`] does, so the hash
//! it attaches is the one `push` would have computed; debug builds
//! assert this on every push.

use std::collections::{btree_map, BTreeMap};

use crate::seen::{Handle, Meta, SeenTable};
use crate::width::ShardKey;

/// The Dijkstra level store of one search direction (see the module docs).
#[derive(Debug)]
pub(crate) struct Frontier<K> {
    /// Every element discovered, with its best-known cost and the gate
    /// that produced it.
    pub(crate) seen: SeenTable<K>,
    /// Pending elements by cost, as handles into `seen`, stale
    /// decrease-key copies included.
    pub(crate) pending: BTreeMap<u32, Vec<Handle>>,
    /// The settled levels: the elements first reached at exact cost `k`,
    /// as handles into `seen` (gap levels are empty, so indices equal
    /// costs).
    pub(crate) levels: Vec<Vec<Handle>>,
    /// The settled level whose successors are not generated yet (always
    /// the deepest), with the stale copies dropped while settling it.
    unexpanded: Option<(u32, u64)>,
    /// Successors generated by every expansion so far: a deterministic
    /// work count.
    pub(crate) generated: u64,
    /// Stale copies dropped by every settle so far.
    pub(crate) stale_dropped: u64,
}

impl<K: ShardKey> Frontier<K> {
    /// A store whose only element is `root`, pending at cost 0.
    pub(crate) fn new(root: K) -> Self {
        let mut seen = SeenTable::new();
        let root = seen.intern(root, Meta::ROOT);
        Self {
            seen,
            pending: BTreeMap::from([(0, vec![root])]),
            levels: Vec::new(),
            unexpanded: None,
            generated: 0,
            stale_dropped: 0,
        }
    }

    /// The deepest settled level, if any level is settled.
    pub(crate) fn depth(&self) -> Option<u32> {
        self.levels.len().checked_sub(1).map(|depth| depth as u32)
    }

    /// The settled level left unexpanded, if any.
    pub(crate) fn unexpanded(&self) -> Option<u32> {
        self.unexpanded.map(|(cost, _)| cost)
    }

    /// `true` once nothing is left to settle or expand.
    pub(crate) fn exhausted(&self) -> bool {
        self.pending.is_empty() && self.unexpanded.is_none()
    }

    /// Pops the cheapest pending bucket, with its cost, for the search to
    /// drop its stale copies and [`Self::record`] the rest.
    pub(crate) fn pop(&mut self) -> Option<(u32, Vec<Handle>)> {
        debug_assert!(self.unexpanded.is_none(), "settled levels expand in order");
        self.pending.pop_first()
    }

    /// Records `level`, the entries kept from the `popped`-long bucket
    /// of `cost`, as the next settled level, left unexpanded. Skipped
    /// costs become empty gap levels.
    pub(crate) fn record(&mut self, cost: u32, level: Vec<Handle>, popped: usize) {
        debug_assert!(
            cost as usize >= self.levels.len(),
            "levels settle in cost order"
        );
        let stale = (popped - level.len()) as u64;
        self.stale_dropped += stale;
        self.levels.resize_with(cost as usize, Vec::new);
        self.levels.push(level);
        self.unexpanded = Some((cost, stale));
    }

    /// Expands the level left unexpanded, if any: fetches its `i`-th
    /// element as `fetch(seen, handle)`, generates its successors with
    /// `generate(cost, i, element, emit)`, admits them into `seen` and
    /// appends the admitted ones to the pending buckets
    /// ([`expand_bucket`]). The `seen` reservation is sized from the
    /// measured growth of the previous level, at most `max_factor` times
    /// the level. Returns the level's cost, the successors generated, the
    /// stale copies dropped while settling the level, and the handles
    /// pushed.
    pub(crate) fn expand<E>(
        &mut self,
        max_factor: usize,
        fetch: impl Fn(&SeenTable<K>, Handle) -> E,
        generate: impl Fn(u32, usize, &E, &mut Emit<K>),
    ) -> Option<(u32, u64, u64, u64)> {
        let (cost, stale_dropped) = self.unexpanded.take()?;
        let level = &self.levels[cost as usize];
        let previous = (cost as usize)
            .checked_sub(1)
            .map_or(0, |p| self.levels[p].len());
        let expected_new = growth_hint(level.len(), previous, max_factor);
        let (pushes, generated) = expand_bucket(
            level.len(),
            &mut self.seen,
            expected_new,
            |seen, i| fetch(seen, level[i]),
            |i, element, emit| generate(cost, i, element, emit),
        );
        self.generated += generated;
        // Append each cost's pushes after whatever its bucket holds.
        let mut pushed = 0u64;
        for (cost, handles) in pushes {
            pushed += handles.len() as u64;
            match self.pending.entry(cost) {
                btree_map::Entry::Vacant(bucket) => _ = bucket.insert(handles),
                btree_map::Entry::Occupied(mut bucket) => bucket.get_mut().extend(handles),
            }
        }
        Some((cost, generated, stale_dropped, pushed))
    }
}

/// Estimated fresh `seen` insertions a level will make, extrapolated
/// from the frontier's measured growth factor (`bucket² / previous`).
/// Reserving this up front kills the rehash churn of growing a
/// multi-million-entry map through ~20 doublings.
fn growth_hint(bucket_len: usize, prev_len: usize, max_factor: usize) -> usize {
    let estimate = bucket_len
        .saturating_mul(bucket_len)
        .checked_div(prev_len)
        .unwrap_or_else(|| bucket_len.saturating_mul(4));
    estimate.clamp(bucket_len, bucket_len.saturating_mul(max_factor.max(1)))
}

/// One generated successor with its table hash, computed once and used
/// for the prefetch and admission.
#[derive(Clone, Copy)]
struct Successor<K> {
    key: K,
    hash: u64,
    cost: u32,
    gate: u8,
}

/// The sink a frontier's `generate` callback pushes successors into: a
/// reused buffer of `(key, hash, cost, gate)` records, admitted in the
/// order they were pushed.
pub(crate) struct Emit<K> {
    successors: Vec<Successor<K>>,
}

impl<K: ShardKey> Emit<K> {
    fn new() -> Self {
        Self {
            successors: Vec::new(),
        }
    }

    /// Emits a successor, hashing its key.
    #[inline]
    pub(crate) fn push(&mut self, key: K, cost: u32, gate: u8) {
        self.push_hashed(key, key.table_hash(), cost, gate);
    }

    /// Emits a successor whose [`ShardKey::table_hash`] the caller already
    /// computed (the forward engine's fused map-and-hash kernel).
    #[inline]
    pub(crate) fn push_hashed(&mut self, key: K, hash: u64, cost: u32, gate: u8) {
        debug_assert_eq!(
            hash,
            key.table_hash(),
            "emitted hash is the key's table hash"
        );
        self.successors.push(Successor {
            key,
            hash,
            cost,
            gate,
        });
    }
}

/// Appends `handle` to the push list for `cost`, opening the list on the
/// cost's first push. A bucket reaches one cost per distinct gate cost,
/// so the linear scan is over a handful of lists; the `BTreeMap` is
/// built once per bucket from them.
#[inline]
fn push_by_cost(lists: &mut Vec<(u32, Vec<Handle>)>, cost: u32, handle: Handle) {
    match lists.iter_mut().find(|(c, _)| *c == cost) {
        Some((_, list)) => list.push(handle),
        None => lists.push((cost, vec![handle])),
    }
}

/// Bucket elements whose successors the admit loop generates, and whose
/// home slots it prefetches, before admitting any of them.
const ADMIT_BATCH: usize = 16;

/// Expands one frontier bucket of `len` elements: fetches element `i` as
/// `fetch(seen, i)`, calls `generate(i, element, emit)` for it, admits
/// every emitted successor into `seen` under [`SeenTable::admit`], and
/// returns the accepted pushes per cost (each list in admission order),
/// with the number of successors generated (a deterministic work count).
///
/// Elements are taken [`ADMIT_BATCH`] at a time: each is fetched just
/// before it is generated, the block's successors are emitted into one
/// reused [`Emit`] buffer, each element's successors have their home
/// slots prefetched right after it is generated, and then the buffer is
/// admitted in emit order — so the outcome is exactly that of admitting
/// each successor as it is generated, with the slot cache misses
/// overlapped. `fetch` must read what admission leaves alone (see the
/// module docs).
fn expand_bucket<K, E, F, G>(
    len: usize,
    seen: &mut SeenTable<K>,
    expected_new: usize,
    fetch: F,
    generate: G,
) -> (Vec<(u32, Vec<Handle>)>, u64)
where
    K: ShardKey,
    F: Fn(&SeenTable<K>, usize) -> E,
    G: Fn(usize, &E, &mut Emit<K>),
{
    seen.reserve(expected_new);
    let mut lists: Vec<(u32, Vec<Handle>)> = Vec::new();
    let mut generated = 0u64;
    let mut emit = Emit::new();
    for first in (0..len).step_by(ADMIT_BATCH) {
        emit.successors.clear();
        for i in first..len.min(first + ADMIT_BATCH) {
            let start = emit.successors.len();
            generate(i, &fetch(seen, i), &mut emit);
            for s in &emit.successors[start..] {
                seen.prefetch(s.hash);
            }
        }
        generated += emit.successors.len() as u64;
        for s in &emit.successors {
            if let Some(handle) = seen.admit(s.key, s.hash, s.cost, s.gate) {
                push_by_cost(&mut lists, s.cost, handle);
            }
        }
    }
    (lists, generated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    use crate::seen::Meta;

    /// Bucket lengths on both sides of the [`ADMIT_BATCH`] boundary,
    /// plus a large one.
    const BATCH_LENS: [usize; 6] = [0, 1, 15, 16, 17, 4000];

    #[test]
    fn growth_hint_extrapolates_and_clamps() {
        // 100 → 400: factor 4, next level estimated 1600.
        assert_eq!(growth_hint(400, 100, 18), 1600);
        // No history: 4× fallback.
        assert_eq!(growth_hint(10, 0, 18), 40);
        // Clamped to bucket × max factor.
        assert_eq!(growth_hint(1000, 1, 18), 18_000);
        // Never below the bucket itself.
        assert_eq!(growth_hint(100, 1000, 18), 100);
    }

    /// Toy successor graph with heavy collisions (many words share a
    /// successor) and word-dependent costs, so both the first-seen dedup
    /// rule and the within-level decrease-key rule are exercised. Odd
    /// gates emit through [`Emit::push_hashed`], even ones through
    /// [`Emit::push`], so both sink entries are on the tested path.
    fn toy_successor(word: u64, gate: u8, emit: &mut Emit<u64>) {
        let next = (word / 3 + u64::from(gate) * 37) % 1024;
        let cost = 10 + ((word >> 3) % 3) as u32 + u32::from(gate % 2);
        if gate % 2 == 1 {
            emit.push_hashed(next, next.table_hash(), cost, gate);
        } else {
            emit.push(next, cost, gate);
        }
    }

    /// Reference for `expand_bucket`: every successor emitted for the
    /// bucket, admitted into a `HashMap` in emit order.
    fn serial_reference(bucket: &[u64], seen: &mut HashMap<u64, Meta>) -> BTreeMap<u32, Vec<u64>> {
        let mut pending: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut emit = Emit::new();
        for &word in bucket {
            for gate in 0..6u8 {
                toy_successor(word, gate, &mut emit);
            }
        }
        for Successor {
            key, cost, gate, ..
        } in emit.successors
        {
            match seen.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(Meta { cost, gate });
                    pending.entry(cost).or_default().push(key);
                }
                Entry::Occupied(mut slot) if slot.get().cost > cost => {
                    slot.insert(Meta { cost, gate });
                    pending.entry(cost).or_default().push(key);
                }
                Entry::Occupied(_) => {}
            }
        }
        pending
    }

    #[test]
    fn expand_bucket_matches_serial_reference() {
        let generate = |_: usize, &word: &u64, emit: &mut Emit<u64>| {
            for gate in 0..6u8 {
                toy_successor(word, gate, emit);
            }
        };
        for len in BATCH_LENS {
            let bucket: Vec<u64> = (0..len as u64).map(|i| i * 7919).collect();
            let mut reference_seen = HashMap::new();
            let reference = serial_reference(&bucket, &mut reference_seen);
            assert_eq!(reference.is_empty(), len == 0);
            let mut seen: SeenTable<u64> = SeenTable::new();
            let fetched = std::cell::RefCell::new(Vec::new());
            let fetch = |_: &SeenTable<u64>, i: usize| {
                fetched.borrow_mut().push(i);
                bucket[i]
            };
            let (lists, generated) = expand_bucket(len, &mut seen, 1000, fetch, generate);
            let lists: BTreeMap<u32, Vec<Handle>> = lists.into_iter().collect();
            let case = format!("len {len}");
            assert!(
                fetched.into_inner().into_iter().eq(0..len),
                "{case}: one fetch per element, in order"
            );
            let pushes: BTreeMap<u32, Vec<u64>> = lists
                .iter()
                .map(|(&cost, handles)| (cost, handles.iter().map(|&h| seen.key(h)).collect()))
                .collect();
            assert_eq!(pushes, reference, "{case}");
            assert_eq!(generated, 6 * len as u64, "{case}");
            for handles in lists.values() {
                for &h in handles {
                    let entry = seen.get(&seen.key(h)).expect("pushed key is seen");
                    assert_eq!(entry, seen.meta(h), "{case}");
                }
            }
            assert_eq!(seen.len(), reference_seen.len(), "{case}");
            for (key, meta) in &reference_seen {
                assert_eq!(seen.get(key).map(|m| m.cost), Some(meta.cost), "{case}");
            }
        }
    }
}
