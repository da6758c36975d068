//! Width parameterization of the packed search core.
//!
//! The FMCF/MCE engine packs its three hot representations into fixed-
//! width machine types: circuit-permutations into inline byte arrays
//! ([`PackedWord`](crate::PackedWord)), S-traces into one integer (one
//! byte per binary pattern), and per-gate banned sets into one bitmask
//! word. The 3-wire library fits `[u8; 64]` / `u64` / `u64`; a 4-wire
//! library (176-pattern permutable domain, 16 binary patterns) does not.
//!
//! Rather than widening the narrow representations in place — which
//! would tax every 3-wire hot path with 4× the word bytes and double the
//! trace width — the engine is generic over a [`SearchWidth`]: a bundle
//! of the word, trace, and mask types sized together. Two widths are
//! provided:
//!
//! * [`Narrow`] — `[u8; 64]` words, `u64` traces, `u64` masks: the
//!   historical representation (the word's inline length field widened
//!   from `u8` to `u16` to share one struct with [`Wide`], so hashes
//!   and slot placement differ from pre-widening builds; all search
//!   *results* are unchanged, proptest-checked against the wide
//!   engine).
//! * [`Wide`] — `[u8; 256]` words, `u128` traces (16 packed bytes),
//!   [`Mask256`] banned masks: everything a 4-wire permutable library
//!   needs, with headroom to the `u8` permutation-substrate ceiling.
//!
//! [`SynthesisEngine`](crate::SynthesisEngine) and
//! [`WideSynthesisEngine`](crate::WideSynthesisEngine) are the two
//! instantiations of the generic [`SearchEngine`](crate::SearchEngine).

use std::fmt;
use std::hash::Hash;
use std::ops::BitAnd;

use crate::word::{fold_mul, GateTable, Packed, HASH_MUL, HASH_SEED};

/// Keys of the `seen` tables: hashed once per discovery, and that one
/// hash serves the slot tag and the home slot.
///
/// A table stores each key as its active 8-byte lanes (see
/// [`Self::write_lanes`]) and the key's *shape* once for all its keys,
/// so a key must rebuild from its lanes and its shape alone. Every key
/// of one table has the same shape.
pub trait ShardKey: Copy + Eq + Hash + Send + Sync {
    /// A stable 64-bit hash, read 8 bytes at a time and mixed by folded
    /// multiplication. Its high 32 bits are the slot tag and its low
    /// bits the home slot.
    fn table_hash(&self) -> u64;

    /// What a table stores once for all its keys besides their lanes: a
    /// word's degree, an integer's byte width.
    fn shape(&self) -> u16;

    /// How many 8-byte lanes hold a key of shape `shape`.
    fn lane_count(shape: u16) -> usize;

    /// Writes the key's [`Self::lane_count`] lanes into `out`.
    fn write_lanes(&self, out: &mut [u64]);

    /// `true` iff `stored` holds this key's lanes, tested once over all
    /// of them rather than lane by lane.
    fn eq_lanes(&self, stored: &[u64]) -> bool;

    /// The key of shape `shape` whose lanes are `stored`.
    fn from_lanes(stored: &[u64], shape: u16) -> Self;

    /// [`Self::table_hash`] of the key stored in `stored`, folded from
    /// the lanes directly (bit-identical to rebuilding and hashing it).
    fn hash_lanes(stored: &[u64], shape: u16) -> u64;
}

impl<const CAP: usize> ShardKey for Packed<CAP> {
    #[inline]
    fn table_hash(&self) -> u64 {
        Packed::table_hash(self)
    }

    #[inline]
    fn shape(&self) -> u16 {
        self.len() as u16
    }

    #[inline]
    fn lane_count(shape: u16) -> usize {
        Packed::<CAP>::lane_count(shape)
    }

    #[inline]
    fn write_lanes(&self, out: &mut [u64]) {
        Packed::write_lanes(self, out);
    }

    #[inline]
    fn eq_lanes(&self, stored: &[u64]) -> bool {
        Packed::eq_lanes(self, stored)
    }

    #[inline]
    fn from_lanes(stored: &[u64], shape: u16) -> Self {
        Packed::from_lanes(stored, shape)
    }

    #[inline]
    fn hash_lanes(stored: &[u64], shape: u16) -> u64 {
        Packed::<CAP>::hash_lanes(stored, shape)
    }
}

impl ShardKey for u64 {
    #[inline]
    fn table_hash(&self) -> u64 {
        Self::hash_lanes(&[*self], 8)
    }

    #[inline]
    fn shape(&self) -> u16 {
        8
    }

    #[inline]
    fn lane_count(_: u16) -> usize {
        1
    }

    #[inline]
    fn write_lanes(&self, out: &mut [u64]) {
        out[0] = *self;
    }

    #[inline]
    fn eq_lanes(&self, stored: &[u64]) -> bool {
        *self == stored[0]
    }

    #[inline]
    fn from_lanes(stored: &[u64], _: u16) -> Self {
        stored[0]
    }

    #[inline]
    fn hash_lanes(stored: &[u64], _: u16) -> u64 {
        fold_mul(fold_mul(HASH_SEED ^ stored[0], HASH_MUL), HASH_MUL)
    }
}

impl ShardKey for u128 {
    #[inline]
    fn table_hash(&self) -> u64 {
        Self::hash_lanes(&[*self as u64, (*self >> 64) as u64], 16)
    }

    #[inline]
    fn shape(&self) -> u16 {
        16
    }

    #[inline]
    fn lane_count(_: u16) -> usize {
        2
    }

    #[inline]
    fn write_lanes(&self, out: &mut [u64]) {
        out[0] = *self as u64;
        out[1] = (*self >> 64) as u64;
    }

    #[inline]
    fn eq_lanes(&self, stored: &[u64]) -> bool {
        (*self as u64 ^ stored[0]) | ((*self >> 64) as u64 ^ stored[1]) == 0
    }

    #[inline]
    fn from_lanes(stored: &[u64], _: u16) -> Self {
        u128::from(stored[0]) | (u128::from(stored[1]) << 64)
    }

    #[inline]
    fn hash_lanes(stored: &[u64], _: u16) -> u64 {
        let low = fold_mul(HASH_SEED ^ stored[0], HASH_MUL);
        fold_mul(low ^ stored[1], HASH_MUL)
    }
}

/// The packed circuit-permutation representation of a search width.
///
/// Implemented by [`Packed<CAP>`](crate::PackedWord) for the two
/// capacities the engine instantiates; the trait exists so the engine
/// can be generic without const-generic arithmetic.
pub trait WordRepr: Copy + Eq + Ord + Hash + ShardKey + fmt::Debug + Send + Sync + 'static {
    /// Maximum domain size a word can cover.
    const CAPACITY: usize;

    /// The identity word on `len` indices.
    fn identity(len: usize) -> Self;

    /// Packs a 0-based image table.
    fn from_slice(images: &[u8]) -> Self;

    /// The number of domain indices the word covers.
    fn len(&self) -> usize;

    /// `true` iff the word covers no indices (never the case for words
    /// the engine builds; provided for API completeness).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The active image table.
    fn as_slice(&self) -> &[u8];

    /// Post-composes through `table`: `out[i] = table[self[i]]`. Every
    /// `u8` indexes a [`GateTable`], so this never panics.
    fn map_through(&self, table: &GateTable) -> Self;

    /// [`Self::map_through`] and the result's [`ShardKey::table_hash`],
    /// computed in one pass over the word.
    fn map_hash(&self, table: &GateTable) -> (Self, u64);

    /// The image of 0-based domain index `index`.
    fn at(&self, index: usize) -> u8;
}

impl<const CAP: usize> WordRepr for Packed<CAP> {
    const CAPACITY: usize = CAP;

    fn identity(len: usize) -> Self {
        Packed::identity(len)
    }

    fn from_slice(images: &[u8]) -> Self {
        Packed::from_slice(images)
    }

    fn len(&self) -> usize {
        Packed::len(self)
    }

    fn as_slice(&self) -> &[u8] {
        Packed::as_slice(self)
    }

    fn map_through(&self, table: &GateTable) -> Self {
        Packed::map_through(self, table)
    }

    #[inline]
    fn map_hash(&self, table: &GateTable) -> (Self, u64) {
        Packed::map_hash(self, table)
    }

    #[inline]
    fn at(&self, index: usize) -> u8 {
        self.as_slice()[index]
    }
}

/// The packed S-trace representation of a search width: one byte per
/// binary pattern, least-significant slot first.
pub trait TraceRepr:
    Copy + Eq + Ord + Hash + ShardKey + BitAnd<Output = Self> + fmt::Debug + Send + Sync + 'static
{
    /// Most binary patterns a trace can pack.
    const SLOTS: usize;

    /// The empty trace.
    const ZERO: Self;

    /// The packed byte in `slot`.
    fn byte(self, slot: usize) -> u8;

    /// ORs `value` into `slot` (slots are written at most once).
    #[must_use]
    fn or_byte(self, slot: usize, value: u8) -> Self;

    /// The trace whose first `bytes.len()` slots are `bytes` and whose
    /// other slots are empty.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than [`Self::SLOTS`].
    fn from_le_prefix(bytes: &[u8]) -> Self;

    /// The trace whose first `k` slots are the first `k` bytes of a
    /// word's little-endian lanes ([`ShardKey::write_lanes`]), read
    /// without rebuilding the word. `lanes` must cover `k` bytes.
    fn from_le_lanes(lanes: &[u64], k: usize) -> Self;
}

impl TraceRepr for u64 {
    const SLOTS: usize = 8;
    const ZERO: Self = 0;

    #[inline]
    fn byte(self, slot: usize) -> u8 {
        (self >> (8 * slot)) as u8
    }

    #[inline]
    fn or_byte(self, slot: usize, value: u8) -> Self {
        self | (u64::from(value) << (8 * slot))
    }

    #[inline]
    fn from_le_prefix(bytes: &[u8]) -> Self {
        let mut le = [0u8; 8];
        le[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(le)
    }

    #[inline]
    fn from_le_lanes(lanes: &[u64], k: usize) -> Self {
        lanes[0] & u64::MAX.checked_shr(64 - 8 * k as u32).unwrap_or(0)
    }
}

impl TraceRepr for u128 {
    const SLOTS: usize = 16;
    const ZERO: Self = 0;

    #[inline]
    fn byte(self, slot: usize) -> u8 {
        (self >> (8 * slot)) as u8
    }

    #[inline]
    fn or_byte(self, slot: usize, value: u8) -> Self {
        self | (u128::from(value) << (8 * slot))
    }

    #[inline]
    fn from_le_prefix(bytes: &[u8]) -> Self {
        let mut le = [0u8; 16];
        le[..bytes.len()].copy_from_slice(bytes);
        u128::from_le_bytes(le)
    }

    #[inline]
    fn from_le_lanes(lanes: &[u64], k: usize) -> Self {
        let high = if k > 8 { u128::from(lanes[1]) << 64 } else { 0 };
        (high | u128::from(lanes[0])) & u128::MAX.checked_shr(128 - 8 * k as u32).unwrap_or(0)
    }
}

/// The banned-set bitmask representation of a search width: bit `i − 1`
/// set ⇔ 1-based domain index `i` banned.
pub trait MaskRepr: Copy + Default + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Sets the bit for 0-based domain index `bit`.
    fn set_bit(&mut self, bit: usize);

    /// `true` iff the two masks share a set bit — the reasonable-product
    /// test (`image ∩ banned ≠ ∅` bans the gate).
    fn intersects(&self, other: &Self) -> bool;

    /// Appends the mask's little-endian bytes to `out` (for the snapshot
    /// library fingerprint).
    fn write_le(&self, out: &mut Vec<u8>);
}

impl MaskRepr for u64 {
    #[inline]
    fn set_bit(&mut self, bit: usize) {
        *self |= 1u64 << bit;
    }

    #[inline]
    fn intersects(&self, other: &Self) -> bool {
        self & other != 0
    }

    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

/// A 256-bit bitset over domain indices — the wide counterpart of the
/// `u64` banned masks, sized to [`Wide`]'s 256-index word capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mask256([u64; 4]);

impl Mask256 {
    /// The mask with the bits for every 0-based index in `bits` set.
    pub fn from_bits(bits: impl IntoIterator<Item = usize>) -> Self {
        let mut mask = Self::default();
        for bit in bits {
            mask.set_bit(bit);
        }
        mask
    }
}

impl MaskRepr for Mask256 {
    #[inline]
    fn set_bit(&mut self, bit: usize) {
        self.0[bit / 64] |= 1u64 << (bit % 64);
    }

    #[inline]
    fn intersects(&self, other: &Self) -> bool {
        (self.0[0] & other.0[0])
            | (self.0[1] & other.0[1])
            | (self.0[2] & other.0[2])
            | (self.0[3] & other.0[3])
            != 0
    }

    fn write_le(&self, out: &mut Vec<u8>) {
        for limb in self.0 {
            out.extend_from_slice(&limb.to_le_bytes());
        }
    }
}

/// A bundle of the packed representations the search core is generic
/// over (see the module docs).
pub trait SearchWidth:
    Copy + Clone + Default + PartialEq + Eq + Hash + fmt::Debug + Send + Sync + 'static
{
    /// Short name used in width-mismatch diagnostics.
    const LABEL: &'static str;

    /// The circuit-permutation word type.
    type Word: WordRepr;

    /// The packed S-trace type.
    type Trace: TraceRepr;

    /// The banned-mask type.
    type Mask: MaskRepr;
}

/// The historical 3-wire widths: `[u8; 64]` words, `u64` traces, `u64`
/// masks. Covers every library with ≤ 64 domain patterns and ≤ 8 binary
/// patterns (wire counts 1–3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Narrow;

impl SearchWidth for Narrow {
    const LABEL: &'static str = "narrow (64-pattern words, u64 traces)";
    type Word = Packed<64>;
    type Trace = u64;
    type Mask = u64;
}

/// The 4-wire widths: `[u8; 256]` words, `u128` traces (16 packed
/// bytes), [`Mask256`] banned masks. Covers the 176-pattern permutable
/// 4-wire domain with headroom to the permutation substrate's 255-point
/// ceiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Wide;

impl SearchWidth for Wide {
    const LABEL: &'static str = "wide (256-pattern words, u128 traces)";
    type Word = Packed<256>;
    type Trace = u128;
    type Mask = Mask256;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_bytes_roundtrip() {
        let t64 = 0x0102_0304_0506_0708u64;
        assert_eq!(t64.byte(0), 0x08);
        assert_eq!(t64.byte(7), 0x01);

        let t128 = (u128::from(t64) << 64) | 0x99;
        assert_eq!(t128.byte(0), 0x99);
        assert_eq!(t128.byte(8), 0x08);
        assert_eq!(t128.byte(15), 0x01);
    }

    #[test]
    fn le_prefixes_fill_the_low_slots() {
        assert_eq!(u64::from_le_prefix(&[1, 2, 3]), 0x03_02_01);
        assert_eq!(u64::from_le_prefix(&[]), 0);
        let bytes: Vec<u8> = (1..=16).collect();
        let t = u128::from_le_prefix(&bytes);
        for (slot, &b) in bytes.iter().enumerate() {
            assert_eq!(t.byte(slot), b);
        }
    }

    #[test]
    fn lane_prefixes_match_byte_prefixes() {
        let bytes: Vec<u8> = (1..=24).collect();
        let word = Packed::<64>::from_slice(&bytes);
        let mut lanes = vec![0u64; 3];
        word.write_lanes(&mut lanes);
        for k in 0..=8 {
            assert_eq!(
                u64::from_le_lanes(&lanes, k),
                u64::from_le_prefix(&bytes[..k]),
                "{k}"
            );
        }
        for k in 0..=16 {
            assert_eq!(
                u128::from_le_lanes(&lanes, k),
                u128::from_le_prefix(&bytes[..k]),
                "{k}"
            );
        }
        // A one-lane word still gives a u128 trace of up to 8 slots.
        assert_eq!(u128::from_le_lanes(&lanes[..1], 4), 0x04_03_02_01);
    }

    #[test]
    fn or_byte_packs_slots() {
        let mut t = <u128 as TraceRepr>::ZERO;
        for slot in 0..16 {
            t = t.or_byte(slot, slot as u8 + 1);
        }
        for slot in 0..16 {
            assert_eq!(t.byte(slot), slot as u8 + 1);
        }
    }

    #[test]
    fn mask256_set_and_intersect() {
        let mut a = Mask256::default();
        a.set_bit(0);
        a.set_bit(63);
        a.set_bit(64);
        a.set_bit(255);
        let b = Mask256::from_bits([64]);
        let c = Mask256::from_bits([65, 130]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!Mask256::default().intersects(&a));
    }

    #[test]
    fn mask256_bytes_are_little_endian_limbs() {
        let mask = Mask256::from_bits([0, 64]);
        let mut out = Vec::new();
        mask.write_le(&mut out);
        assert_eq!(out.len(), 32);
        assert_eq!(out[0], 1);
        assert_eq!(out[8], 1);
    }

    #[test]
    fn u64_mask_matches_plain_bit_ops() {
        let mut m = 0u64;
        m.set_bit(5);
        m.set_bit(63);
        assert_eq!(m, (1 << 5) | (1 << 63));
        assert!(m.intersects(&(1u64 << 5)));
        assert!(!m.intersects(&(1u64 << 6)));
    }

    #[test]
    fn shard_hash_u128_differs_from_truncation() {
        // The 128-bit table hash (whose high half is the slot tag) must
        // see the high bytes.
        let low = 42u128;
        let high = low | (1u128 << 100);
        assert_ne!(low.table_hash(), high.table_hash());
        assert_ne!(low.table_hash() >> 32, high.table_hash() >> 32);
    }

    /// Stores `key` as lanes and checks that the lanes hash to its table
    /// hash, compare equal to it (and unequal to `other`), and rebuild it.
    fn check_lanes<K: ShardKey + fmt::Debug>(key: K, other: K) {
        let mut lanes = vec![0u64; K::lane_count(key.shape())];
        key.write_lanes(&mut lanes);
        assert_eq!(
            K::hash_lanes(&lanes, key.shape()),
            key.table_hash(),
            "{key:?}"
        );
        assert_eq!(K::from_lanes(&lanes, key.shape()), key);
        assert!(key.eq_lanes(&lanes), "{key:?}");
        assert!(!other.eq_lanes(&lanes), "{other:?} against {key:?}");
    }

    /// A word of `len` distinct-ish images, and the same word with its
    /// last image changed.
    fn word_pair<const CAP: usize>(len: usize) -> (Packed<CAP>, Packed<CAP>) {
        let images: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        let mut changed = images.clone();
        changed[len - 1] ^= 0x80;
        (Packed::from_slice(&images), Packed::from_slice(&changed))
    }

    #[test]
    fn lanes_hash_compare_and_rebuild_like_the_key() {
        for len in [1, 7, 8, 9, 38, 40, 64] {
            let (word, other) = word_pair::<64>(len);
            assert_eq!(<Packed<64>>::lane_count(word.shape()), len.div_ceil(8));
            check_lanes(word, other);
        }
        for len in [176, 255, 256] {
            let (word, other) = word_pair::<256>(len);
            check_lanes(word, other);
        }
        for key in [0u64, 1, 0x0123_4567_89ab_cdef, u64::MAX] {
            check_lanes(key, key ^ 1);
            check_lanes(u128::from(key), u128::from(key) ^ (1 << 100));
            check_lanes((u128::from(key) << 64) | 5, u128::from(key));
        }
    }

    #[test]
    fn table_hash_spreads_nearby_keys() {
        // Adjacent keys land in distinct home slots of a small table, and
        // their top bits (the tag's) spread too, often enough for linear
        // probing and tag filtering to stay effective.
        let homes: std::collections::HashSet<u64> =
            (0..64u64).map(|k| k.table_hash() & 1023).collect();
        assert!(homes.len() > 56, "{} distinct homes", homes.len());
        let tops: std::collections::HashSet<u64> =
            (0..64u64).map(|k| k.table_hash() >> 61).collect();
        assert_eq!(tops.len(), 8);
    }
}
