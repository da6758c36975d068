//! Packed fixed-width words for the FMCF level search.
//!
//! The search explores millions of circuit-permutations; representing
//! each as a `Box<[u8]>` costs one heap allocation (plus a pointer chase
//! on every hash/compare) per discovered element. [`Packed`] stores the
//! 0-based image table inline in a fixed `[u8; CAP]`, so words are
//! `Copy`, hash without indirection, and pack contiguously in the
//! per-cost level vectors. The capacity is a const parameter so each
//! [search width](crate::SearchWidth) pays only for the bytes its
//! domain can need: [`PackedWord`] (`CAP = 64`) covers every 2- and
//! 3-wire library, [`PackedWord256`] (`CAP = 256`) covers the 176-index
//! 4-wire permutable domain.

use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Index;

/// A compact circuit-permutation: a 0-based image table over at most
/// `CAP` domain indices, stored inline.
///
/// Unused tail bytes are always zero, so derived equality and ordering
/// agree with slice semantics for words of equal length (the engine only
/// ever mixes words over one fixed domain).
///
/// # Examples
///
/// ```
/// use mvq_core::PackedWord;
///
/// let id = PackedWord::identity(38);
/// assert_eq!(id.len(), 38);
/// assert_eq!(id[37], 37);
/// let w = id.map_through(&mvq_core::gate_table(id.as_slice()));
/// assert_eq!(w, id);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Packed<const CAP: usize> {
    data: [u8; CAP],
    len: u16,
}

/// The narrow packed word: 64 domain indices, matching the `u64` banned
/// masks of 2- and 3-wire libraries.
pub type PackedWord = Packed<64>;

/// The wide packed word: 256 domain indices, covering the 4-wire
/// permutable domain (176 indices) with headroom to the permutation
/// substrate's 255-point ceiling.
pub type PackedWord256 = Packed<256>;

/// A gate's 0-based image table padded to 256 entries, one per `u8`
/// image, so [`Packed::map_through`] and [`Packed::map_hash`] index it
/// without a bounds check. Entries past the gate's domain map a point to
/// itself; the engine reads the `[..domain]` prefix wherever it needs
/// the gate itself (snapshot fingerprint, inverse lookup).
pub type GateTable = [u8; 256];

/// Pads a gate's 0-based image table (at most 256 entries) to a
/// [`GateTable`].
///
/// # Panics
///
/// Panics if `images` has more than 256 entries.
pub fn gate_table(images: &[u8]) -> GateTable {
    let mut table: GateTable = std::array::from_fn(|i| i as u8);
    table[..images.len()].copy_from_slice(images);
    table
}

impl<const CAP: usize> Packed<CAP> {
    /// Maximum domain size a word can cover.
    pub const CAPACITY: usize = CAP;

    /// The lane kernels read the inline table as whole 8-byte lanes:
    /// evaluating this fails the build for any capacity that maps or
    /// hashes a word but is not a multiple of 8.
    const WHOLE_LANES: () = assert!(
        CAP.is_multiple_of(8),
        "packed capacity must be a multiple of 8"
    );

    /// The identity word on `len` indices.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the packed capacity `CAP`.
    pub fn identity(len: usize) -> Self {
        assert!(
            len <= CAP,
            "word length {len} exceeds the packed capacity of {CAP}"
        );
        let mut data = [0u8; CAP];
        for (i, slot) in data.iter_mut().take(len).enumerate() {
            *slot = i as u8;
        }
        Self {
            data,
            len: len as u16,
        }
    }

    /// Packs a 0-based image table.
    ///
    /// # Panics
    ///
    /// Panics if `images` is longer than the packed capacity `CAP`.
    pub fn from_slice(images: &[u8]) -> Self {
        assert!(
            images.len() <= CAP,
            "word length {} exceeds the packed capacity of {CAP}",
            images.len(),
        );
        let mut data = [0u8; CAP];
        data[..images.len()].copy_from_slice(images);
        Self {
            data,
            len: images.len() as u16,
        }
    }

    /// The number of domain indices the word covers.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The active image table.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[..self.len as usize]
    }

    /// Post-composes through `table`: `out[i] = table[self[i]]` — the word
    /// for "this cascade, then the gate whose image table is `table`".
    /// Every `u8` indexes a [`GateTable`], so this never panics.
    pub fn map_through(&self, table: &GateTable) -> Self {
        self.map_lanes(table, |_| ())
    }

    /// [`Self::map_through`] fused with the result's `seen`-table hash
    /// ([`ShardKey::table_hash`](crate::ShardKey::table_hash)): each
    /// 8-byte lane is folded into the hash state as soon as it is mapped,
    /// so the successor is read once. The hash is bit-identical to
    /// hashing the returned word.
    ///
    /// # Examples
    ///
    /// ```
    /// use mvq_core::{gate_table, PackedWord, ShardKey};
    ///
    /// let word = PackedWord::from_slice(&[2, 0, 1]);
    /// let table = gate_table(&[1, 2, 0]);
    /// let (next, hash) = word.map_hash(&table);
    /// assert_eq!(next, word.map_through(&table));
    /// assert_eq!(hash, next.table_hash());
    /// ```
    #[inline]
    pub fn map_hash(&self, table: &GateTable) -> (Self, u64) {
        let mut state = self.hash_seed();
        let word = self.map_lanes(table, |lane| state = fold_lane(state, lane));
        (word, fold_mul(state, HASH_MUL))
    }

    /// The shared gather of [`Self::map_through`] and [`Self::map_hash`]:
    /// maps the active lanes through `table`, each in a fixed 8-byte
    /// loop, zeroes the images past `len` in the last lane, stores each
    /// lane and hands it to `lane_done` in order.
    #[inline(always)]
    fn map_lanes(&self, table: &GateTable, mut lane_done: impl FnMut(u64)) -> Self {
        let () = Self::WHOLE_LANES;
        let len = usize::from(self.len);
        let mut data = [0u8; CAP];
        let mut lanes = self.data.chunks_exact(8).zip(data.chunks_exact_mut(8));
        for (src, dst) in lanes.by_ref().take(len / 8) {
            let lane = gather_lane(src, table);
            dst.copy_from_slice(&lane.to_le_bytes());
            lane_done(lane);
        }
        if len % 8 != 0 {
            if let Some((src, dst)) = lanes.next() {
                let lane = gather_lane(src, table) & (u64::MAX >> (64 - 8 * (len % 8)));
                dst.copy_from_slice(&lane.to_le_bytes());
                lane_done(lane);
            }
        }
        Self {
            data,
            len: self.len,
        }
    }

    /// Iterates over the active images.
    pub fn iter(&self) -> std::slice::Iter<'_, u8> {
        self.as_slice().iter()
    }

    /// The word's FNV-1a hash, identical to hashing it through
    /// [`FnvHasher`] without a hasher round-trip.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::hash::{BuildHasher, Hash, Hasher};
    /// use mvq_core::{FnvBuildHasher, PackedWord};
    ///
    /// let word = PackedWord::identity(38);
    /// let mut hasher = FnvBuildHasher::default().build_hasher();
    /// word.hash(&mut hasher);
    /// assert_eq!(word.fnv_hash(), hasher.finish());
    /// ```
    pub fn fnv_hash(&self) -> u64 {
        let mut state = fnv1a(self.as_slice());
        for byte in self.len.to_le_bytes() {
            state ^= u64::from(byte);
            state = state.wrapping_mul(FNV_PRIME);
        }
        state
    }

    /// The word's `seen`-table hash (see
    /// [`ShardKey::table_hash`](crate::ShardKey::table_hash)): the active
    /// images 8 bytes at a time, each folded into the state by a 64×64 →
    /// 128-bit multiply. The zero tail pads the last read, and the length
    /// seeds the state so prefix-equal words of different degrees differ.
    #[inline]
    pub(crate) fn table_hash(&self) -> u64 {
        let () = Self::WHOLE_LANES;
        let lanes = usize::from(self.len).div_ceil(8);
        let state = self
            .data
            .chunks_exact(8)
            .take(lanes)
            .fold(self.hash_seed(), |state, lane| {
                fold_lane(state, read_lane(lane))
            });
        fold_mul(state, HASH_MUL)
    }

    /// The `seen`-table hash state before the first lane.
    #[inline(always)]
    fn hash_seed(&self) -> u64 {
        hash_seed(self.len)
    }

    /// How many 8-byte lanes hold the images of a word of degree `len`.
    #[inline]
    pub(crate) fn lane_count(len: u16) -> usize {
        usize::from(len).div_ceil(8)
    }

    /// Writes the active lanes into `out`, one per element; the zero
    /// image tail pads the last lane.
    #[inline]
    pub(crate) fn write_lanes(&self, out: &mut [u64]) {
        let () = Self::WHOLE_LANES;
        for (slot, lane) in out.iter_mut().zip(self.data.chunks_exact(8)) {
            *slot = read_lane(lane);
        }
    }

    /// `true` iff `stored` holds this word's active lanes. Every lane is
    /// XORed into one difference word before the single test, so a
    /// mismatch in the first lane costs as much as one in the last.
    #[inline]
    pub(crate) fn eq_lanes(&self, stored: &[u64]) -> bool {
        let () = Self::WHOLE_LANES;
        self.data
            .chunks_exact(8)
            .zip(stored)
            .fold(0, |diff, (lane, &s)| diff | (read_lane(lane) ^ s))
            == 0
    }

    /// The word of degree `len` whose active lanes are `stored`.
    #[inline]
    pub(crate) fn from_lanes(stored: &[u64], len: u16) -> Self {
        let () = Self::WHOLE_LANES;
        let mut data = [0u8; CAP];
        for (dst, lane) in data.chunks_exact_mut(8).zip(stored) {
            dst.copy_from_slice(&lane.to_le_bytes());
        }
        Self { data, len }
    }

    /// [`Self::table_hash`] of the degree-`len` word whose active lanes
    /// are `stored`, folded from the lanes without rebuilding the word.
    #[inline]
    pub(crate) fn hash_lanes(stored: &[u64], len: u16) -> u64 {
        let state = stored
            .iter()
            .fold(hash_seed(len), |state, &lane| fold_lane(state, lane));
        fold_mul(state, HASH_MUL)
    }
}

/// The `seen`-table hash state of a degree-`len` word before its first
/// lane: the length seeds it, so prefix-equal words of different degrees
/// hash apart.
#[inline(always)]
fn hash_seed(len: u16) -> u64 {
    HASH_SEED ^ u64::from(len)
}

/// Maps one 8-byte lane of images through `table`, as a little-endian
/// `u64`. A `u8` always indexes a [`GateTable`], so the fixed 8-step
/// loop has no bounds check.
#[inline(always)]
fn gather_lane(src: &[u8], table: &GateTable) -> u64 {
    let mut out = [0u8; 8];
    for (slot, &mid) in out.iter_mut().zip(src) {
        *slot = table[usize::from(mid)];
    }
    u64::from_le_bytes(out)
}

/// An 8-byte lane of a word's inline table as a little-endian `u64`.
#[inline(always)]
fn read_lane(lane: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(lane);
    u64::from_le_bytes(bytes)
}

/// Folds one 8-byte lane into the `seen`-table hash state.
#[inline(always)]
fn fold_lane(state: u64, lane: u64) -> u64 {
    fold_mul(state ^ lane, HASH_MUL)
}

/// Seed of the `seen`-table hash (the fractional digits of π).
pub(crate) const HASH_SEED: u64 = 0x243f_6a88_85a3_08d3;

/// Multiplier of the `seen`-table hash (2^64 / φ, odd).
pub(crate) const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folded multiply: the full 128-bit product of `a` and `b`, its two
/// halves XORed together. Every input bit reaches the middle output
/// bits, and the fold carries the high half down to the low bits.
#[inline]
pub(crate) fn fold_mul(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// FNV-1a over a byte slice (the standalone form of [`FnvHasher`]).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut state = FNV_OFFSET;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

impl<const CAP: usize> Index<usize> for Packed<CAP> {
    type Output = u8;

    fn index(&self, index: usize) -> &u8 {
        &self.as_slice()[index]
    }
}

impl<const CAP: usize> Hash for Packed<CAP> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One write over the active prefix; the length disambiguates
        // prefix-equal words of different degrees.
        state.write(self.as_slice());
        state.write_u16(self.len);
    }
}

impl<const CAP: usize> fmt::Debug for Packed<CAP> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedWord<{CAP}>({:?})", self.as_slice())
    }
}

impl<'a, const CAP: usize> IntoIterator for &'a Packed<CAP> {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// FNV-1a, specialized for the short fixed-width keys of the level search
/// (packed words and `u64`/`u128` traces). The default SipHash is
/// DoS-resistant but measurably slower on the engine's hot maps, whose
/// keys are program-generated and need no such resistance.
#[derive(Debug, Clone)]
pub struct FnvHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for FnvHasher {
    fn default() -> Self {
        Self { state: FNV_OFFSET }
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        for &b in bytes {
            state ^= u64::from(b);
            state = state.wrapping_mul(FNV_PRIME);
        }
        self.state = state;
    }

    fn write_u128(&mut self, value: u128) {
        self.write(&value.to_le_bytes());
    }

    fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    fn write_u16(&mut self, value: u16) {
        self.write(&value.to_le_bytes());
    }

    fn write_u8(&mut self, value: u8) {
        self.write(&[value]);
    }
}

/// `BuildHasher` plumbing for [`FnvHasher`]-keyed maps.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;

    #[test]
    fn identity_is_identity() {
        let w = PackedWord::identity(38);
        assert_eq!(w.len(), 38);
        for i in 0..38 {
            assert_eq!(w[i], i as u8);
        }
    }

    #[test]
    fn from_slice_roundtrips() {
        let images = [3u8, 1, 0, 2];
        let w = PackedWord::from_slice(&images);
        assert_eq!(w.as_slice(), &images);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn map_through_composes() {
        // w = (0 1 2) cycle as table, composed with itself.
        let w = PackedWord::from_slice(&[1, 2, 0]);
        let table = gate_table(w.as_slice());
        let ww = w.map_through(&table);
        assert_eq!(ww.as_slice(), &[2, 0, 1]);
        let www = ww.map_through(&table);
        assert_eq!(www, PackedWord::identity(3));
    }

    #[test]
    fn equality_ignores_capacity_tail() {
        let a = PackedWord::from_slice(&[1, 0]);
        let b = PackedWord::from_slice(&[1, 0]);
        assert_eq!(a, b);
        let c = PackedWord::from_slice(&[1, 0, 2]);
        assert_ne!(a, c);
    }

    #[test]
    fn hash_agrees_with_equality() {
        let hash = |w: &PackedWord| {
            let mut h = DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        let a = PackedWord::from_slice(&[2, 0, 1]);
        let b = PackedWord::from_slice(&[2, 0, 1]);
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn works_as_fnv_map_key() {
        let mut map: HashMap<PackedWord, u32, FnvBuildHasher> = HashMap::default();
        map.insert(PackedWord::identity(8), 7);
        map.insert(PackedWord::from_slice(&[1, 0]), 9);
        assert_eq!(map.get(&PackedWord::identity(8)), Some(&7));
        assert_eq!(map.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds the packed capacity")]
    fn oversized_word_panics() {
        let images = vec![0u8; PackedWord::CAPACITY + 1];
        let _ = PackedWord::from_slice(&images);
    }

    #[test]
    fn wide_word_holds_the_4_wire_domain() {
        // 176 indices — the 4-wire permutable domain — overflow the
        // narrow capacity but fit the wide word.
        let images: Vec<u8> = (0..176).map(|i| (175 - i) as u8).collect();
        let w = PackedWord256::from_slice(&images);
        assert_eq!(w.len(), 176);
        assert_eq!(w.as_slice(), &images[..]);
        assert_eq!(w[0], 175);
        let id = PackedWord256::identity(176);
        assert_eq!(w.map_through(&gate_table(id.as_slice())), w);
    }

    #[test]
    #[should_panic(expected = "exceeds the packed capacity")]
    fn oversized_wide_word_panics() {
        let images = vec![0u8; PackedWord256::CAPACITY + 1];
        let _ = PackedWord256::from_slice(&images);
    }

    #[test]
    fn fnv_hash_matches_hasher_path() {
        use std::hash::BuildHasher;
        for word in [
            PackedWord::identity(38),
            PackedWord::from_slice(&[3, 1, 0, 2]),
            PackedWord::from_slice(&[]),
        ] {
            assert_eq!(
                word.fnv_hash(),
                FnvBuildHasher::default().hash_one(word),
                "{word:?}"
            );
        }
        let wide = PackedWord256::identity(176);
        assert_eq!(
            wide.fnv_hash(),
            FnvBuildHasher::default().hash_one(wide),
            "{wide:?}"
        );
    }

    #[test]
    fn gate_table_pads_with_fixed_points() {
        let table = gate_table(&[2, 0, 1]);
        assert_eq!(&table[..3], &[2, 0, 1]);
        assert!((3..256).all(|i| usize::from(table[i]) == i));
    }

    /// A seeded xorshift64 stream, so the kernel test's cases replay.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random permutation of all 256 byte values (Fisher–Yates).
    fn random_table(rng: &mut u64) -> GateTable {
        let mut table: GateTable = std::array::from_fn(|i| i as u8);
        for i in (1..256).rev() {
            table.swap(i, (xorshift(rng) % (i as u64 + 1)) as usize);
        }
        table
    }

    /// Checks the fused kernel on `CAP`-capacity words of each length in
    /// `lens`: `map_hash` returns `map_through`'s word, `map_through`
    /// matches a byte-at-a-time reference, and the hash is `table_hash`
    /// of that word.
    fn check_map_hash<const CAP: usize>(lens: &[usize], rng: &mut u64) {
        for &len in lens {
            for _ in 0..32 {
                let images: Vec<u8> = (0..len).map(|_| xorshift(rng) as u8).collect();
                let word = Packed::<CAP>::from_slice(&images);
                let table = random_table(rng);
                let (mapped, hash) = word.map_hash(&table);
                let reference: Vec<u8> = images.iter().map(|&i| table[usize::from(i)]).collect();
                assert_eq!(mapped, word.map_through(&table), "CAP {CAP}, len {len}");
                assert_eq!(
                    mapped,
                    Packed::<CAP>::from_slice(&reference),
                    "CAP {CAP}, len {len}"
                );
                assert_eq!(hash, mapped.table_hash(), "CAP {CAP}, len {len}");
            }
        }
    }

    #[test]
    fn map_hash_matches_map_through_and_table_hash() {
        let mut rng = 0x5eed_0fca_11ab_1e00;
        check_map_hash::<64>(&[0, 1, 7, 8, 9, 38, 40, 63, 64], &mut rng);
        check_map_hash::<256>(&[176, 255, 256], &mut rng);
    }

    #[test]
    fn fnv_distinguishes_write_lengths() {
        let mut a = FnvHasher::default();
        a.write(&[0, 0]);
        let mut b = FnvHasher::default();
        b.write(&[0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fnv_integer_writes_are_little_endian_bytes() {
        let mut by_int = FnvHasher::default();
        by_int.write_u128(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10);
        let mut by_bytes = FnvHasher::default();
        by_bytes.write(&0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10u128.to_le_bytes());
        assert_eq!(by_int.finish(), by_bytes.finish());
    }
}
