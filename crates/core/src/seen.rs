//! The `seen` maps of the FMCF frontiers: every element a frontier has
//! discovered, with its best-known cost and the gate that produced it.
//!
//! `seen` is built for the insert-heavy probe pattern of a level
//! expansion ([`SeenTable`]): entries sit in a discovery-order arena of
//! `u64` records, and an open-addressing table of 8-byte slots (a 32-bit
//! hash tag plus an arena index) finds them. Each key is hashed once
//! ([`ShardKey::table_hash`]); [`SeenTable::prefetch`] lets expansion
//! pull a successor's home slot into cache before admitting it.
//!
//! # Records
//!
//! An entry is one record of whole `u64` lanes: a meta lane
//! (`cost | gate << 32`, see [`Meta`]) followed by the key's active
//! lanes ([`ShardKey::write_lanes`]). A table stores the key *shape* (a
//! word's degree) once, so records are sized to the domain rather than
//! to the key type's capacity:
//!
//! | key | lanes | record |
//! |---|---|---|
//! | 3-wire word (38 images of `Packed<64>`) | 1 + 5 | 48 B |
//! | 4-wire word (176 images of `Packed<256>`) | 1 + 22 | 184 B |
//! | `u64` trace | 1 + 1 | 16 B |
//! | `u128` trace | 1 + 2 | 24 B |
//!
//! A probe compares the stored lanes in place
//! ([`ShardKey::eq_lanes`]) and reads the meta lane from the same
//! record, so a duplicate costs one record read. A rehash folds the
//! stored lanes straight into the table hash
//! ([`ShardKey::hash_lanes`]); no key is rebuilt.
//!
//! # Chunks
//!
//! The arena is a list of chunks that never move: chunk `c` holds
//! `16 << c` records, so growth allocates a new chunk instead of
//! copying the old ones, and arena index `i` decodes with a
//! leading-zero count and two shifts ([`chunk_of`]). Sizes start small,
//! so a backward frontier of a few hundred traces allocates and zeroes
//! about what it uses, and double, so a multi-million-word level takes a
//! couple of dozen allocations.
//!
//! Slot tables and chunks of 2 MiB or more are owned huge-page mappings
//! ([`crate::mapping`]), which come zeroed from the kernel and fault in
//! 2 MiB at a time; the module docs there say why the hint goes on an
//! owned mapping and never on malloc'd memory.
//!
//! # Handles
//!
//! The arena is also the only place a frontier element is stored:
//! [`SeenTable::admit`] and [`SeenTable::intern`] return the 4-byte
//! [`Handle`] (the arena index) of the entry they created, lowered or
//! found, and the pending cost buckets of both frontiers hold handles.
//! Reading an element's key or metadata through its handle is one
//! indexed load, with no hash, probe or key compare.

use std::marker::PhantomData;

use crate::mapping::LaneBuf;
use crate::width::ShardKey;

/// Per-entry search metadata, common to both search directions: the
/// element's best-known cost (final once its level is processed —
/// Dijkstra with positive gate costs) and the library gate on its
/// cheapest path so far, `u8::MAX` for a frontier's root.
///
/// Forward, `gate` is the last gate of the cascade that produced the
/// word; backward, it is the gate whose forward application moves the
/// trace one step toward the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Meta {
    pub(crate) cost: u32,
    pub(crate) gate: u8,
}

impl Meta {
    /// A frontier's root: cost 0, reached by no gate.
    pub(crate) const ROOT: Self = Self {
        cost: 0,
        gate: u8::MAX,
    };

    /// The record's meta lane: `cost | gate << 32`.
    #[inline]
    fn lane(self) -> u64 {
        u64::from(self.cost) | (u64::from(self.gate) << 32)
    }

    /// Decodes a meta lane.
    #[inline]
    fn from_lane(lane: u64) -> Self {
        Self {
            cost: lane as u32,
            gate: (lane >> 32) as u8,
        }
    }
}

/// log2 of the first chunk's record count.
const FIRST_CHUNK_BITS: u32 = 4;

/// Records in the first chunk; chunk `c` holds `FIRST_CHUNK << c`.
const FIRST_CHUNK: usize = 1 << FIRST_CHUNK_BITS;

/// The chunk holding arena index `index`, and the record's position in
/// it. Chunk `c` covers indices `FIRST_CHUNK·(2^c − 1) ..
/// FIRST_CHUNK·(2^(c+1) − 1)`, so biasing the index by `FIRST_CHUNK`
/// puts its chunk in the position of the top set bit.
#[inline]
fn chunk_of(index: usize) -> (usize, usize) {
    let biased = index + FIRST_CHUNK;
    let top = usize::BITS - 1 - biased.leading_zeros();
    ((top - FIRST_CHUNK_BITS) as usize, biased ^ (1 << top))
}

/// An arena entry's index and where its record lives: chunk, and the
/// record's first lane in it.
#[derive(Clone, Copy)]
struct Found {
    index: usize,
    chunk: usize,
    start: usize,
}

/// A frontier's `seen` map: an open-addressing slot table over a
/// chunked record arena (see the module docs).
///
/// Each slot is one `u64`: the high 32 bits of the key's
/// [`ShardKey::table_hash`] as a tag, above `index + 1` into the arena
/// (0 marks an empty slot). A key's home slot is the low bits of its
/// hash, collisions probe linearly, and the table doubles before it
/// passes half full. A probe reads 8-byte slots and compares a key only
/// on a tag match, so most probes for a new key never touch the arena,
/// and [`Self::prefetch`] can pull a home slot into cache before the
/// probe needs it.
#[derive(Debug)]
pub(crate) struct SeenTable<K> {
    slots: LaneBuf,
    chunks: Vec<LaneBuf>,
    len: usize,
    /// The shape every key shares, fixed by the first insert.
    shape: u16,
    keys: PhantomData<K>,
}

/// Slot count of an empty table (a power of two).
const MIN_SLOTS: usize = 16;

/// The tag half of a slot (and of a table hash).
const TAG_MASK: u64 = !0xffff_ffff;

impl<K: ShardKey> SeenTable<K> {
    pub(crate) fn new() -> Self {
        Self {
            slots: LaneBuf::zeroed(MIN_SLOTS),
            chunks: Vec::new(),
            len: 0,
            shape: 0,
            keys: PhantomData,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Lanes per record: the meta lane plus the key's lanes. Derived
    /// from the key type rather than stored, so it is a constant for
    /// trace keys and the probe loop keeps fewer values live.
    #[inline(always)]
    fn stride(&self) -> usize {
        1 + K::lane_count(self.shape)
    }

    /// Where arena entry `index`'s record lives.
    #[inline]
    fn locate(&self, index: usize) -> Found {
        let (chunk, offset) = chunk_of(index);
        Found {
            index,
            chunk,
            start: offset * self.stride(),
        }
    }

    #[inline]
    fn record_at(&self, at: Found) -> &[u64] {
        &self.chunks[at.chunk][at.start..at.start + self.stride()]
    }

    #[inline]
    fn record_at_mut(&mut self, at: Found) -> &mut [u64] {
        let end = at.start + self.stride();
        &mut self.chunks[at.chunk][at.start..end]
    }

    /// The records in discovery order.
    fn records(&self) -> impl Iterator<Item = &[u64]> + '_ {
        let mut left = self.len;
        let stride = self.stride();
        self.chunks.iter().enumerate().flat_map(move |(c, chunk)| {
            let filled = (FIRST_CHUNK << c).min(left);
            left -= filled;
            chunk[..filled * stride].chunks_exact(stride)
        })
    }

    /// Probes for `key`: `Ok` with its entry's arena index and record
    /// position when present, `Err(position)` of the empty slot ending
    /// its probe run otherwise.
    #[inline]
    fn find(&self, key: &K, hash: u64) -> Result<Found, usize> {
        debug_assert!(
            self.len == 0 || key.shape() == self.shape,
            "one key length per seen table: {} against {}",
            key.shape(),
            self.shape
        );
        let mask = self.slots.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let slot = self.slots[pos];
            if slot == 0 {
                return Err(pos);
            }
            if (slot ^ hash) & TAG_MASK == 0 {
                let found = self.locate((slot as u32 - 1) as usize);
                if key.eq_lanes(&self.record_at(found)[1..]) {
                    return Ok(found);
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Appends a record for a new key to the arena and claims the empty
    /// slot at `pos` for it, doubling the table once it is over half
    /// full. Returns the new entry's arena index.
    #[inline]
    fn push_at(&mut self, pos: usize, key: &K, hash: u64, meta: Meta) -> usize {
        if self.len == 0 {
            self.shape = key.shape();
        }
        let at = self.locate(self.len);
        if at.chunk == self.chunks.len() {
            self.chunks
                .push(LaneBuf::zeroed((FIRST_CHUNK << at.chunk) * self.stride()));
        }
        self.slots[pos] = (hash & TAG_MASK) | (at.index as u64 + 1);
        self.len += 1;
        let record = self.record_at_mut(at);
        record[0] = meta.lane();
        key.write_lanes(&mut record[1..]);
        debug_assert!(
            K::hash_lanes(&record[1..], key.shape()) == hash
                && K::from_lanes(&record[1..], key.shape()) == *key,
            "stored lanes hash and rebuild to their key"
        );
        if self.len * 2 > self.slots.len() {
            self.rehash(self.slots.len() * 2);
        }
        at.index
    }

    /// Rebuilds the slots at `count` (a power of two), hashing each
    /// record's stored lanes.
    fn rehash(&mut self, count: usize) {
        let mask = count - 1;
        let mut slots = LaneBuf::zeroed(count);
        for (index, record) in self.records().enumerate() {
            let hash = K::hash_lanes(&record[1..], self.shape);
            let mut pos = hash as usize & mask;
            while slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            slots[pos] = (hash & TAG_MASK) | (index as u64 + 1);
        }
        self.slots = slots;
    }

    /// Sizes the slots for `additional` more keys. The arena needs no
    /// reservation: it grows by whole chunks and never moves.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let wanted = (self.len + additional)
            .saturating_mul(2)
            .next_power_of_two()
            .max(MIN_SLOTS);
        if wanted > self.slots.len() {
            self.rehash(wanted);
        }
    }

    /// Hints the CPU to fetch the home slot of `hash`. Admission order is
    /// untouched; the probe that follows just finds its slot in cache.
    #[inline]
    pub(crate) fn prefetch(&self, hash: u64) {
        prefetch_read(&self.slots[hash as usize & (self.slots.len() - 1)]);
    }

    /// The key of the entry `handle` addresses, rebuilt from its lanes.
    #[inline]
    pub(crate) fn key(&self, handle: Handle) -> K {
        K::from_lanes(
            &self.record_at(self.locate(handle as usize))[1..],
            self.shape,
        )
    }

    /// The metadata of the entry `handle` addresses.
    #[inline]
    pub(crate) fn meta(&self, handle: Handle) -> Meta {
        Meta::from_lane(self.record_at(self.locate(handle as usize))[0])
    }

    /// [`Self::key`] and [`Self::meta`] from one record read.
    #[inline]
    pub(crate) fn entry(&self, handle: Handle) -> (K, Meta) {
        let record = self.record_at(self.locate(handle as usize));
        (
            K::from_lanes(&record[1..], self.shape),
            Meta::from_lane(record[0]),
        )
    }

    pub(crate) fn get(&self, key: &K) -> Option<Meta> {
        let found = self.find(key, key.table_hash()).ok()?;
        Some(Meta::from_lane(self.record_at(found)[0]))
    }

    /// The handle of `key`'s entry, if present.
    pub(crate) fn handle_of(&self, key: &K) -> Option<Handle> {
        let found = self.find(key, key.table_hash()).ok()?;
        Some(handle(found.index))
    }

    /// The handle of `key`'s entry, inserting it with `meta` when absent
    /// (an existing entry keeps its metadata).
    pub(crate) fn intern(&mut self, key: K, meta: Meta) -> Handle {
        self.intern_hashed(key, key.table_hash(), meta)
    }

    /// [`Self::intern`] with the key's [`ShardKey::table_hash`] already
    /// computed (a fused [`crate::WordRepr::map_hash`] returns it).
    #[inline]
    pub(crate) fn intern_hashed(&mut self, key: K, hash: u64, meta: Meta) -> Handle {
        match self.find(&key, hash) {
            Ok(found) => handle(found.index),
            Err(pos) => handle(self.push_at(pos, &key, hash, meta)),
        }
    }

    /// The Dijkstra admission rule, shared by every frontier loop: admit
    /// a successor iff its key is new or this discovery is cheaper than
    /// the recorded one (lazy decrease-key). `hash` is the key's
    /// [`ShardKey::table_hash`]. Returns the handle of the entry it
    /// created or lowered — the element the caller must push into its
    /// pending bucket — or `None` when it changed nothing.
    #[inline]
    pub(crate) fn admit(&mut self, key: K, hash: u64, cost: u32, gate: u8) -> Option<Handle> {
        let meta = Meta { cost, gate };
        match self.find(&key, hash) {
            Ok(found) => {
                let lane = &mut self.record_at_mut(found)[0];
                if Meta::from_lane(*lane).cost > cost {
                    *lane = meta.lane();
                    Some(handle(found.index))
                } else {
                    None
                }
            }
            Err(pos) => Some(handle(self.push_at(pos, &key, hash, meta))),
        }
    }

    /// The entries in discovery order.
    #[cfg(test)]
    fn entries(&self) -> impl Iterator<Item = (K, Meta)> + '_ {
        self.records().map(|record| {
            (
                K::from_lanes(&record[1..], self.shape),
                Meta::from_lane(record[0]),
            )
        })
    }
}

/// Prefetches the cache line holding `slot` (a no-op off x86_64).
#[inline(always)]
fn prefetch_read(slot: &u64) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: `_mm_prefetch` needs only SSE, which every x86_64 target
    // has, and it never faults or writes: `slot` is a live reference, and
    // a prefetch of any address is merely a cache hint.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(slot).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = slot;
}

/// A [`SeenTable`] entry's address: its arena index. The arena is
/// append-only and a rehash rebuilds only the slots, so a handle stays
/// valid for the table's lifetime.
pub(crate) type Handle = u32;

/// The handle of arena entry `index`.
#[inline]
fn handle(index: usize) -> Handle {
    // `index + 1` must also fit a slot's low half, hence `<`.
    assert!(
        (index as u64) < u64::from(u32::MAX),
        "seen arena index overflows a handle"
    );
    index as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::Packed;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    fn meta(cost: u32, gate: u8) -> Meta {
        Meta { cost, gate }
    }

    /// A key whose table hash has a constant high half: every slot tag
    /// matches, so every probe falls through to the key comparison.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct TagCollider(u32);

    impl ShardKey for TagCollider {
        fn table_hash(&self) -> u64 {
            Self::hash_lanes(&[u64::from(self.0)], 4)
        }
        fn shape(&self) -> u16 {
            4
        }
        fn lane_count(_: u16) -> usize {
            1
        }
        fn write_lanes(&self, out: &mut [u64]) {
            out[0] = u64::from(self.0);
        }
        fn eq_lanes(&self, stored: &[u64]) -> bool {
            u64::from(self.0) == stored[0]
        }
        fn from_lanes(stored: &[u64], _: u16) -> Self {
            Self(stored[0] as u32)
        }
        fn hash_lanes(stored: &[u64], _: u16) -> u64 {
            (0x5eed_7a95_u64 << 32) | u64::from((stored[0] as u32).wrapping_mul(0x9e37_79b9))
        }
    }

    /// Checks `table` against a `HashMap` holding the same entries, and
    /// that the arena keeps discovery order.
    fn assert_table_matches<K: ShardKey + std::fmt::Debug>(
        table: &SeenTable<K>,
        reference: &HashMap<K, Meta>,
        order: &[K],
    ) {
        assert_eq!(table.len(), reference.len());
        let keys: Vec<K> = table.entries().map(|(key, _)| key).collect();
        assert_eq!(keys, order, "arena order is discovery order");
        assert!(table.len() * 2 <= table.slots.len(), "at most half full");
        assert_eq!(
            table.slots.iter().filter(|&&slot| slot != 0).count(),
            table.len()
        );
        for (key, meta) in reference {
            assert_eq!(table.get(key), Some(*meta), "{key:?}");
        }
    }

    #[test]
    fn seen_table_grows_through_doublings() {
        let mut table: SeenTable<u64> = SeenTable::new();
        let mut reference = HashMap::new();
        let mut order = Vec::new();
        let mut sizes = vec![table.slots.len()];
        for k in 0..1000u64 {
            let key = k.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let handle = table.intern(key, meta(k as u32, 1));
            assert_eq!(handle as usize, k as usize, "inserted, in discovery order");
            reference.insert(key, meta(k as u32, 1));
            order.push(key);
            if sizes.last() != Some(&table.slots.len()) {
                sizes.push(table.slots.len());
            }
        }
        assert!(sizes.len() >= 4, "3+ doublings: {sizes:?}");
        assert!(sizes.windows(2).all(|w| w[1] == 2 * w[0]), "{sizes:?}");
        assert_table_matches(&table, &reference, &order);
        for k in 1000..1100u64 {
            assert_eq!(table.get(&k), None);
        }
    }

    #[test]
    fn seen_table_survives_tag_collisions() {
        let mut table: SeenTable<TagCollider> = SeenTable::new();
        let mut reference = HashMap::new();
        let mut order = Vec::new();
        for k in 0..300u32 {
            let key = TagCollider(k);
            assert_eq!(table.admit(key, key.table_hash(), 50 - k % 7, 0), Some(k));
            reference.insert(key, meta(50 - k % 7, 0));
            order.push(key);
        }
        for k in 0..300u32 {
            let key = TagCollider(k);
            // Equal cost never re-admits; a cheaper one decreases the key.
            assert_eq!(table.admit(key, key.table_hash(), 50 - k % 7, 1), None);
            assert_eq!(table.admit(key, key.table_hash(), 10, 2), Some(k));
            reference.insert(key, meta(10, 2));
        }
        assert_eq!(table.intern(TagCollider(3), meta(0, 9)), 3);
        assert_table_matches(&table, &reference, &order);
        assert_eq!(table.get(&TagCollider(300)), None);
    }

    #[test]
    fn handles_roundtrip_through_key_meta_and_intern() {
        let mut table: SeenTable<u64> = SeenTable::new();
        // 16,000 entries cross the chunk boundaries at 16, 48, 112, …
        // records many times over.
        let key = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let handles: Vec<Handle> = (0..16_000u64)
            .map(|k| table.intern(key(k), meta(k as u32, (k % 5) as u8)))
            .collect();
        assert_eq!(table.len(), 16_000);
        assert!(table.chunks.len() >= 10, "many chunk boundaries crossed");
        assert!(
            handles.iter().enumerate().all(|(k, &h)| h as usize == k),
            "a handle is the arena index, in discovery order"
        );
        for (k, &h) in (0..).zip(&handles) {
            assert_eq!(table.key(h), key(k));
            assert_eq!(table.meta(h), meta(k as u32, (k % 5) as u8));
            assert_eq!(table.get(&key(k)), Some(table.meta(h)));
            // Present: `intern` returns the existing handle, meta untouched.
            assert_eq!(table.intern(key(k), meta(0, 9)), h);
            assert_eq!(table.meta(h).gate, (k % 5) as u8);
        }
        assert_eq!(table.get(&1), None);
    }

    #[test]
    fn handles_roundtrip_across_the_first_mapped_chunk() {
        // 4-wire words: 184-byte records, so the 16384-record chunk 10 is
        // the first one of 2 MiB or more.
        let word = |k: u32| {
            let mut images: Vec<u8> = (0..176u32).map(|i| ((i * 7 + k) % 251) as u8).collect();
            images[..4].copy_from_slice(&k.to_le_bytes());
            Packed::<256>::from_slice(&images)
        };
        let count = 16_368 + 500;
        let mut table: SeenTable<Packed<256>> = SeenTable::new();
        let handles: Vec<Handle> = (0..count)
            .map(|k| table.intern(word(k), meta(k, (k % 18) as u8)))
            .collect();
        assert_eq!(table.stride() * 8, 184);
        assert_eq!(table.chunks.len(), 11);
        assert!(!table.chunks[9].is_mapped(), "1.5 MiB stays on the heap");
        assert!(table.chunks[10].is_mapped() || cfg!(not(target_os = "linux")));
        for (k, &h) in (0..count).zip(&handles) {
            assert_eq!(table.key(h), word(k));
            assert_eq!(table.meta(h), meta(k, (k % 18) as u8));
            assert_eq!(table.intern(word(k), meta(0, 0)), h);
        }
    }

    #[test]
    fn chunk_of_decodes_geometric_chunks() {
        assert_eq!(chunk_of(0), (0, 0));
        assert_eq!(chunk_of(15), (0, 15));
        assert_eq!(chunk_of(16), (1, 0));
        assert_eq!(chunk_of(47), (1, 31));
        assert_eq!(chunk_of(48), (2, 0));
        let mut expected = (0, 0);
        for index in 0..100_000 {
            assert_eq!(chunk_of(index), expected, "{index}");
            expected.1 += 1;
            if expected.1 == FIRST_CHUNK << expected.0 {
                expected = (expected.0 + 1, 0);
            }
        }
    }

    /// Builds a one-key table and returns its record size in bytes.
    fn record_bytes<K: ShardKey>(key: K) -> usize {
        let mut table = SeenTable::new();
        table.intern(key, meta(0, 0));
        table.stride() * 8
    }

    #[test]
    fn record_strides_are_sized_to_the_domain() {
        assert_eq!(record_bytes(Packed::<64>::identity(38)), 48, "3 wires");
        assert_eq!(record_bytes(Packed::<256>::identity(176)), 184, "4 wires");
        assert_eq!(record_bytes(7u64), 16, "u64 traces");
        assert_eq!(record_bytes(7u128), 24, "u128 traces");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "one key length per seen table")]
    fn mixed_key_lengths_trip_a_debug_assertion() {
        let mut table = SeenTable::new();
        let short = Packed::<64>::identity(38);
        let long = Packed::<64>::identity(40);
        table.intern(short, meta(0, 0));
        table.intern(long, meta(0, 0));
    }

    #[test]
    fn meta_lane_roundtrips() {
        for m in [meta(0, u8::MAX), meta(u32::MAX, 0), meta(7, 17)] {
            assert_eq!(Meta::from_lane(m.lane()), m);
        }
        assert_eq!(meta(3, 2).lane(), 3 | (2 << 32));
    }

    #[test]
    #[should_panic(expected = "overflows a handle")]
    fn handle_overflow_is_caught() {
        handle(u32::MAX as usize);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Random admit / insert / get sequences agree with a `HashMap`
        /// running the same rules, including decrease-key, over a key
        /// range that forces several doublings.
        #[test]
        fn seen_table_matches_hashmap(
            ops in proptest::collection::vec((0u8..3, 0u64..400, 1u32..20, 0u8..18), 1..1500),
        ) {
            let mut table: SeenTable<u64> = SeenTable::new();
            let mut reference: HashMap<u64, Meta> = HashMap::new();
            let mut order = Vec::new();
            for (op, key, cost, gate) in ops {
                let hash = key.table_hash();
                let m = meta(cost, gate);
                if !reference.contains_key(&key) && op != 2 {
                    order.push(key);
                }
                match op {
                    0 => {
                        let want = match reference.entry(key) {
                            Entry::Vacant(slot) => {
                                slot.insert(m);
                                true
                            }
                            Entry::Occupied(mut slot) if slot.get().cost > cost => {
                                slot.insert(m);
                                true
                            }
                            Entry::Occupied(_) => false,
                        };
                        let got = table.admit(key, hash, cost, gate);
                        proptest::prop_assert_eq!(got.is_some(), want);
                        if let Some(handle) = got {
                            // The handle addresses the entry just created or lowered.
                            proptest::prop_assert_eq!(table.key(handle), key);
                            proptest::prop_assert_eq!(table.meta(handle), m);
                        }
                    }
                    1 => {
                        let want = !reference.contains_key(&key);
                        reference.entry(key).or_insert(m);
                        let before = table.len();
                        let handle = table.intern(key, m);
                        proptest::prop_assert_eq!(table.len() > before, want);
                        proptest::prop_assert_eq!(table.key(handle), key);
                        proptest::prop_assert_eq!(table.meta(handle), reference[&key]);
                    }
                    _ => {
                        proptest::prop_assert_eq!(table.get(&key), reference.get(&key).copied());
                    }
                }
            }
            assert_table_matches(&table, &reference, &order);
        }
    }
}
