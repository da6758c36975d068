//! Persistent level-cache snapshots: versioned, checksummed binary
//! serialization of a warm [`SearchEngine`].
//!
//! `expand_to_cost` dominates every cold query, yet the state it builds —
//! the per-cost level tables, the class table with its witnesses, and the
//! Dijkstra frontier — is plain data. A snapshot writes that state once
//! so every later process cold-starts warm: loading the paper's cost-5
//! levels takes milliseconds where recomputing them takes ~100 ms, and
//! the ratio grows geometrically with depth.
//!
//! # File layout (version 3)
//!
//! ```text
//! magic "MVQSNAP\0" · version u32
//! header  (length-prefixed, FNV-1a checksummed)
//!   library identity (wires, domain/binary sizes, gate count,
//!   image-table fingerprint) · cost-model weights · completed level ·
//!   section table (lengths + checksums) · element counts ·
//!   packed widths (word capacity, trace slots)
//! core section     per level: count · parent positions (u32 each) ·
//!                  path gates (u8 each) · classes founded at this
//!                  level: witness count · witness positions (u32 each,
//!                  indices into the level)
//! frontier section per pending bucket, cost ascending: cost · count ·
//!                  parent positions (u32 each) · path gates (u8 each)
//! ```
//!
//! # Words by derivation
//!
//! Every word but the identity is some earlier word times one library
//! gate: the word's recorded path gate `g` (the last gate of its
//! cheapest cascade), behind its *parent* `w·g⁻¹`, which is settled at
//! the word's cost minus `g`'s. So a word is stored as `(parent
//! position, gate)`, 5 bytes, where a raw image table takes the domain's
//! length (38 bytes at 3 wires, 176 at 4). A *position* indexes the
//! settled levels concatenated in cost order; the identity, alone at
//! level 0 and reached by no gate, is stored as `(0, 0xff)`. A class
//! witness is its position in its level, and its class key (the binary
//! restriction) is recomputed from it. S-traces are recomputed from the
//! words.
//!
//! The loader makes one forward pass: every parent sits in an earlier
//! level, so it derives each word as its parent's image table mapped
//! through the gate table, hashing it in the same pass, and interns it
//! with that hash. The `seen` arena then holds the level words in
//! position order, so a position *is* the word's handle.
//!
//! A frontier entry is derived the same way, except for a stale
//! decrease-key copy of a word that is already settled: it is stored as
//! `(position, 0xff)`, the settled word's own position. A stale copy of
//! a frontier word repeats its live entry's `(parent, gate)`, so it
//! re-derives to the same handle. (Before any level is settled, the
//! frontier is the identity root, stored as `(0, 0xff)` too.)
//!
//! A snapshot always holds fully expanded levels. An engine that settled
//! its top level without generating its successors (a query or host
//! climb) expands that level before writing, so the bytes are exactly
//! those of an engine built with `expand_to_cost`, and a loaded engine
//! has no unexpanded level.
//!
//! # Validation
//!
//! Every section is independently FNV-1a-checksummed and fully verified
//! at load, so a damaged, truncated, or wrong-version file fails with a
//! typed [`SnapshotError`], never a silently-empty cache. Behind the
//! checksums the loader checks the structure the engine relies on, so a
//! file that passes them but breaks it fails with
//! [`SnapshotError::Corrupt`]:
//!
//! - a parent position precedes its word's level, and a gate indexes the
//!   library; the parent's cost plus the gate's equals the level's cost;
//! - no level word is derived twice, and the distinct words match the
//!   header's count;
//! - a witness lies in its level, witnesses ascend, every witness
//!   restricts to its class's key, and no class is founded twice;
//! - frontier buckets ascend above the completed level. A derived entry's
//!   path cost lies above the completed level and at or below its
//!   bucket's cost, with equality at the first (lowest) bucket holding
//!   that `(parent, gate)`; the distinct pairs match the header's count
//!   of frontier words.
//!
//! After these checks the deferred frontier merge cannot fail.
//!
//! # Versions and widths
//!
//! A snapshot records the engine's packed widths (word capacity and
//! trace slots), so it can only be loaded by an engine of the same
//! [`SearchWidth`] — a mismatch fails with the typed
//! [`SnapshotError::WidthMismatch`], never a misparse. This build reads
//! and writes version 3 only. Version 1 and 2 files (raw image tables)
//! fail with [`SnapshotError::UnsupportedVersion`], which the CLI and the
//! server treat as an unusable snapshot: they warn and start cold, and
//! the CLI's write-back replaces the file with version 3.
//!
//! # Lazy frontier and the kept image
//!
//! Queries served from the cached levels (census reads, class lookups,
//! circuit reconstruction) never touch the pending frontier, which is
//! ~4× larger than the completed levels. Loading therefore materializes
//! the levels and classes eagerly but leaves the (already checksummed
//! and validated) frontier section where it is, in the loaded file's
//! buffer; the first level step merges it via
//! [`SearchEngine::ensure_frontier`]. Nothing merges it earlier: a
//! warm host that never climbs never pays for it. Resumed expansion is
//! bit-identical to a never-snapshotted engine: bucket order, stale
//! decrease-key copies, and path metadata all round-trip exactly.
//!
//! The loaded file is read into one shared buffer, a [`SnapshotImage`],
//! and a loaded engine keeps it as its *image* until its first level
//! step: while the state still equals the file,
//! [`SearchEngine::snapshot_to_bytes`] hands back that buffer instead
//! of serializing again. An image of 2 MiB or more is an owned mapping
//! of its own (on Linux; see `mapping`), so dropping its last holder
//! returns the pages to the kernel instead of leaving a freed heap block
//! of snapshot size in a process that loads and drops engines.

use std::fmt;
use std::io;
use std::ops::{Deref, Range};
use std::path::Path;
use std::sync::{Arc, OnceLock};

use mvq_logic::GateLibrary;
use mvq_obs::ProbeHandle;

use crate::engine::SearchEngine;
use crate::expand::Frontier;
use crate::mapping::LaneBuf;
use crate::seen::{Handle, Meta, SeenTable};
use crate::width::{MaskRepr, SearchWidth, ShardKey, TraceRepr, WordRepr};
use crate::word::{fnv1a, GateTable};
use crate::CostModel;

/// The snapshot format version this build reads and writes (see the
/// module docs).
pub const SNAPSHOT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"MVQSNAP\0";

/// The identity sentinel in path metadata (no producing gate). In a
/// stored `(position, gate)` pair it marks a word stored by its own
/// position rather than derived (see the module docs).
const NO_GATE: u8 = u8::MAX;

/// An error produced while writing or reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    NotASnapshot,
    /// The file is a snapshot, but of a version this build cannot read.
    UnsupportedVersion(u32),
    /// The file is shorter than its own framing declares.
    Truncated {
        /// Bytes the framing declares.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A section's checksum does not match its contents.
    ChecksumMismatch(&'static str),
    /// The framing is intact but a section's contents are malformed.
    Corrupt(String),
    /// The snapshot was built over a different library or an engine this
    /// build cannot reconstruct.
    LibraryMismatch(String),
    /// The snapshot's packed widths differ from the loading engine's
    /// [`SearchWidth`] — e.g. a 4-wire (wide)
    /// snapshot offered to a narrow engine.
    WidthMismatch {
        /// Word capacity recorded in the snapshot.
        snapshot_word_capacity: usize,
        /// Trace slots recorded in the snapshot.
        snapshot_trace_slots: usize,
        /// The loading engine's word capacity.
        engine_word_capacity: usize,
        /// The loading engine's trace slots.
        engine_trace_slots: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(err) => write!(f, "snapshot I/O error: {err}"),
            Self::NotASnapshot => write!(f, "not a mvq snapshot (bad magic)"),
            Self::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot version {v} (this build reads version {SNAPSHOT_VERSION})"
            ),
            Self::Truncated { expected, actual } => write!(
                f,
                "truncated snapshot: framing declares {expected} bytes, file has {actual}"
            ),
            Self::ChecksumMismatch(section) => {
                write!(f, "snapshot {section} section failed its checksum")
            }
            Self::Corrupt(detail) => write!(f, "corrupt snapshot: {detail}"),
            Self::LibraryMismatch(detail) => write!(f, "snapshot library mismatch: {detail}"),
            Self::WidthMismatch {
                snapshot_word_capacity,
                snapshot_trace_slots,
                engine_word_capacity,
                engine_trace_slots,
            } => write!(
                f,
                "snapshot width mismatch: file packs {snapshot_word_capacity}-pattern words \
                 and {snapshot_trace_slots}-slot traces, engine expects \
                 {engine_word_capacity}/{engine_trace_slots} (load it with the matching \
                 engine width)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

impl SnapshotError {
    /// `true` for damage classes a last-good backup can repair: bad
    /// magic, unreadable version, truncation, checksum or structural
    /// corruption. Environment mismatches (width, library, permissions)
    /// are `false` — the backup was written by the same process and
    /// would fail the same way, so falling back would only mask a
    /// configuration error.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            Self::NotASnapshot
                | Self::UnsupportedVersion(_)
                | Self::Truncated { .. }
                | Self::ChecksumMismatch(_)
                | Self::Corrupt(_)
        )
    }
}

/// Which file a resilient load actually read — see
/// [`SearchEngine::load_snapshot_resilient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotSource {
    /// The primary snapshot file was intact.
    Primary,
    /// The primary was missing or corrupt; the `.bak` sibling loaded.
    Backup {
        /// Why the primary was rejected (for the caller's diagnostic).
        primary_error: String,
    },
}

/// The last-good sibling kept beside every overwritten snapshot:
/// `path` with `.bak` appended (`warm.snap` → `warm.snap.bak`).
pub fn snapshot_backup_path(path: impl AsRef<Path>) -> std::path::PathBuf {
    let mut backup = path.as_ref().as_os_str().to_owned();
    backup.push(".bak");
    std::path::PathBuf::from(backup)
}

fn corrupt(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(detail.into())
}

/// Cheap structural sniff of an existing snapshot file: magic, version,
/// plausible header length, header checksum. Used to decide whether an
/// about-to-be-overwritten primary is worth keeping as the `.bak` — a
/// torn primary, or one of a version this build cannot read, must never
/// clobber a good backup.
fn sniff_snapshot(path: &Path) -> bool {
    let Ok(bytes) = std::fs::read(path) else {
        return false;
    };
    let prefix_len = MAGIC.len() + 8;
    if bytes.len() < prefix_len || &bytes[..MAGIC.len()] != MAGIC {
        return false;
    }
    let version = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return false;
    }
    let header_len =
        u32::from_le_bytes(bytes[MAGIC.len() + 4..prefix_len].try_into().unwrap()) as usize;
    let Some(body_start) = prefix_len
        .checked_add(header_len)
        .and_then(|n| n.checked_add(8))
    else {
        return false;
    };
    if bytes.len() < body_start {
        return false;
    }
    let header_bytes = &bytes[prefix_len..prefix_len + header_len];
    let stored = u64::from_le_bytes(
        bytes[prefix_len + header_len..body_start]
            .try_into()
            .unwrap(),
    );
    checksum64(header_bytes) == stored
}

/// Durably publish `bytes` at `path`: write a per-process-unique temp
/// sibling, fsync it, rotate any intact existing file to `.bak`, rename
/// the temp into place, and fsync the parent directory so the rename
/// itself survives a crash. A failure at any step leaves the previous
/// primary (or its `.bak`) loadable.
fn durable_write(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::io::Write;

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);

    let write_result = (|| -> io::Result<()> {
        mvq_fault::point!(
            "snapshot.write",
            return Err(io::Error::other("injected snapshot.write fault"))
        );
        // lint: allow(persistence) the durable-write helper itself: fsynced and renamed below
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        mvq_fault::point!(
            "snapshot.rename",
            return Err(io::Error::other("injected snapshot.rename fault"))
        );
        // Keep the last-good state reachable across the overwrite — but
        // only rotate a primary that still sniffs as a snapshot, so a
        // torn primary never replaces a good `.bak`.
        if sniff_snapshot(path) {
            std::fs::rename(path, snapshot_backup_path(path))?;
        }
        std::fs::rename(&tmp, path)?;
        // An fsync of the parent directory persists the rename itself;
        // without it a crash can forget the new directory entry.
        #[cfg(unix)]
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    })();
    if write_result.is_err() {
        // Best-effort cleanup; the error we report is the write failure.
        let _ = std::fs::remove_file(&tmp);
    }
    write_result.map_err(SnapshotError::Io)
}

/// Section checksum: FNV-1a over 8-byte little-endian chunks (plus the
/// length-tagged tail), ~8× faster than the byte-wise variant on the
/// multi-megabyte sections — snapshot loading is the hot path the format
/// exists for.
fn checksum64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut state = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // lint: allow(panic) chunks_exact(8) yields exactly 8 bytes
        state ^= u64::from_le_bytes(chunk.try_into().unwrap());
        state = state.wrapping_mul(FNV_PRIME);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    state ^= u64::from_le_bytes(tail);
    state = state.wrapping_mul(FNV_PRIME);
    state ^= bytes.len() as u64;
    state.wrapping_mul(FNV_PRIME)
}

// ---------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt("section ends mid-record"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        // lint: allow(panic) take(2) returned exactly 2 bytes
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        // lint: allow(panic) take(4) returned exactly 4 bytes
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        // lint: allow(panic) take(8) returned exactly 8 bytes
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A block of `count` little-endian `u32`s, as [`u32s`] reads it.
    fn u32_block(&mut self, count: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(
            count
                .checked_mul(4)
                .ok_or_else(|| corrupt("block size overflows"))?,
        )
    }

    /// `count` stored `(position, gate)` pairs: all positions, then all
    /// gates.
    fn paths(&mut self, count: usize) -> Result<(&'a [u8], &'a [u8]), SnapshotError> {
        let positions = self.u32_block(count)?;
        Ok((positions, self.take(count)?))
    }

    fn finish(&self, section: &str) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{section} section has {} trailing bytes",
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// The little-endian `u32`s of a [`Reader::u32_block`].
fn u32s(block: &[u8]) -> impl Iterator<Item = u32> + '_ {
    block
        .chunks_exact(4)
        // lint: allow(panic) chunks_exact(4) yields exactly 4 bytes
        .map(|chunk| u32::from_le_bytes(chunk.try_into().unwrap()))
}

/// A `usize` from a `u64` field, guarding 32-bit hosts.
fn usize_of(v: u64, what: &str) -> Result<usize, SnapshotError> {
    usize::try_from(v).map_err(|_| corrupt(format!("{what} count {v} overflows this host")))
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

struct Header {
    wires: u8,
    domain_len: u8,
    binary_len: u8,
    gate_count: u16,
    fingerprint: u64,
    weights: (u32, u32, u32),
    completed: Option<u32>,
    a_size: u64,
    level_count: u32,
    class_count: u64,
    frontier_buckets: u32,
    frontier_unique: u64,
    core_len: u64,
    core_checksum: u64,
    frontier_len: u64,
    frontier_checksum: u64,
    /// Packed word capacity of the writing engine.
    word_capacity: u16,
    /// Packed trace slots of the writing engine.
    trace_slots: u8,
}

impl Header {
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        out.push(self.wires);
        out.push(self.domain_len);
        out.push(self.binary_len);
        put_u16(&mut out, self.gate_count);
        put_u64(&mut out, self.fingerprint);
        put_u32(&mut out, self.weights.0);
        put_u32(&mut out, self.weights.1);
        put_u32(&mut out, self.weights.2);
        out.push(self.completed.is_some() as u8);
        put_u32(&mut out, self.completed.unwrap_or(0));
        put_u64(&mut out, self.a_size);
        put_u32(&mut out, self.level_count);
        put_u64(&mut out, self.class_count);
        put_u32(&mut out, self.frontier_buckets);
        put_u64(&mut out, self.frontier_unique);
        put_u64(&mut out, self.core_len);
        put_u64(&mut out, self.core_checksum);
        put_u64(&mut out, self.frontier_len);
        put_u64(&mut out, self.frontier_checksum);
        put_u16(&mut out, self.word_capacity);
        out.push(self.trace_slots);
        out
    }

    fn parse(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        let header = Self {
            wires: r.u8()?,
            domain_len: r.u8()?,
            binary_len: r.u8()?,
            gate_count: r.u16()?,
            fingerprint: r.u64()?,
            weights: (r.u32()?, r.u32()?, r.u32()?),
            completed: {
                let present = r.u8()? != 0;
                let value = r.u32()?;
                present.then_some(value)
            },
            a_size: r.u64()?,
            level_count: r.u32()?,
            class_count: r.u64()?,
            frontier_buckets: r.u32()?,
            frontier_unique: r.u64()?,
            core_len: r.u64()?,
            core_checksum: r.u64()?,
            frontier_len: r.u64()?,
            frontier_checksum: r.u64()?,
            word_capacity: r.u16()?,
            trace_slots: r.u8()?,
        };
        r.finish("header")?;
        Ok(header)
    }
}

/// A stable fingerprint of everything the engine derives from a library:
/// image tables, inverse tables, banned masks, and the binary set.
fn library_fingerprint<M: MaskRepr>(engine_like: &LibraryTables<'_, M>) -> u64 {
    let domain = engine_like.domain;
    let mut bytes = Vec::new();
    for images in engine_like.gate_images {
        bytes.extend_from_slice(&images[..domain]);
    }
    for images in engine_like.gate_inverse_images {
        bytes.extend_from_slice(&images[..domain]);
    }
    for banned in engine_like.gate_banned {
        banned.write_le(&mut bytes);
    }
    bytes.extend_from_slice(engine_like.binary0);
    fnv1a(&bytes)
}

/// One frontier bucket: its cost, then its entries as stored
/// `(position, gate)` pairs (see [`Reader::paths`]).
fn bucket_paths<'a>(r: &mut Reader<'a>) -> Result<(u32, &'a [u8], &'a [u8]), SnapshotError> {
    let cost = r.u32()?;
    let entries = r.u32()? as usize;
    let (positions, gates) = r.paths(entries)?;
    Ok((cost, positions, gates))
}

/// What the library fingerprint covers. The image tables are padded
/// [`GateTable`]s; only their `[..domain]` prefixes are the gates.
struct LibraryTables<'a, M: MaskRepr> {
    domain: usize,
    gate_images: &'a [GateTable],
    gate_inverse_images: &'a [GateTable],
    gate_banned: &'a [M],
    binary0: &'a [u8],
}

impl<W: SearchWidth> SearchEngine<W> {
    fn library_tables(&self) -> LibraryTables<'_, W::Mask> {
        LibraryTables {
            domain: self.library.domain().len(),
            gate_images: &self.gate_images,
            gate_inverse_images: &self.gate_inverse_images,
            gate_banned: &self.gate_banned,
            binary0: &self.binary0,
        }
    }
}

// ---------------------------------------------------------------------
// Image
// ---------------------------------------------------------------------

/// Snapshot bytes, shared: a clone hands out the same buffer.
///
/// [`SearchEngine::load_snapshot`] reads the file into one, and
/// [`SearchEngine::snapshot_to_bytes`] returns one; it reads as a
/// `[u8]`. A buffer of 2 MiB or more is an owned mapping (see the
/// module docs).
#[derive(Clone)]
pub struct SnapshotImage(Arc<ImageBuf>);

/// The bytes behind a [`SnapshotImage`]: the first `len` bytes of its
/// lanes.
struct ImageBuf {
    lanes: LaneBuf,
    len: usize,
}

impl ImageBuf {
    fn zeroed(len: usize) -> Self {
        Self {
            lanes: LaneBuf::zeroed(len.div_ceil(8)),
            len,
        }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.lanes.bytes_mut()[..self.len]
    }
}

impl SnapshotImage {
    /// Whether `a` and `b` share one buffer.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// How many handles share `this` buffer (as [`Arc::strong_count`]).
    pub fn handle_count(this: &Self) -> usize {
        Arc::strong_count(&this.0)
    }
}

impl Deref for SnapshotImage {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.lanes.bytes()[..self.0.len]
    }
}

impl From<&[u8]> for SnapshotImage {
    /// Copies `bytes` into a new buffer.
    fn from(bytes: &[u8]) -> Self {
        let mut buf = ImageBuf::zeroed(bytes.len());
        buf.bytes_mut().copy_from_slice(bytes);
        Self(Arc::new(buf))
    }
}

impl PartialEq for SnapshotImage {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for SnapshotImage {}

impl fmt::Debug for SnapshotImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SnapshotImage({} bytes)", self.len())
    }
}

// ---------------------------------------------------------------------
// Deferred frontier
// ---------------------------------------------------------------------

/// The frontier section of a loaded snapshot, checksummed and validated
/// at load but merged into the live maps only when expansion first needs
/// it (queries served from the cached levels skip the cost entirely). It
/// reads the section in place, as a range of the loaded file's shared
/// buffer.
#[derive(Clone)]
pub(crate) struct DeferredFrontier {
    image: SnapshotImage,
    section: Range<usize>,
    buckets: u32,
    unique: usize,
    /// Settled words; 0 while no level is settled and the frontier is
    /// the identity root.
    settled: usize,
    domain_len: usize,
}

impl fmt::Debug for DeferredFrontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeferredFrontier")
            .field("buckets", &self.buckets)
            .field("unique", &self.unique)
            .field("bytes", &self.section.len())
            .finish()
    }
}

impl DeferredFrontier {
    /// Distinct words the frontier will add to `seen` when merged.
    pub(crate) fn unique_words(&self) -> usize {
        self.unique
    }

    /// Walks the section once, checking every invariant the merge relies
    /// on (see the module docs), so the merge itself cannot fail.
    /// `level_ends[k]` is the position one past level `k`'s last word.
    fn validate(
        bytes: &[u8],
        header: &Header,
        level_ends: &[usize],
        gate_costs: &[u32],
    ) -> Result<(), SnapshotError> {
        let settled = level_ends.last().copied().unwrap_or(0);
        let completed = header.completed.map(u64::from);
        let gate_count = gate_costs.len();
        // One bit per possible (parent, gate) pair: set at the pair's
        // first (lowest-bucket) entry.
        let mut first_seen = vec![0u64; (settled * gate_count).div_ceil(64)];
        let mut unique = 0u64;
        let mut r = Reader::new(bytes);
        let mut previous_cost: Option<u32> = None;
        // The last parent's level, as `start..end` positions and its
        // cost: a bucket's parents mostly come in level order, so the
        // search over `level_ends` rarely runs.
        let mut level = (0..0, 0u64);
        for _ in 0..header.frontier_buckets {
            let (cost, positions, gates) = bucket_paths(&mut r)?;
            if previous_cost.is_some_and(|p| p >= cost) {
                return Err(corrupt("frontier buckets out of cost order"));
            }
            if completed.is_some_and(|c| u64::from(cost) <= c) {
                return Err(corrupt(format!(
                    "frontier bucket at cost {cost} inside the completed range"
                )));
            }
            previous_cost = Some(cost);
            for (position, &gate) in u32s(positions).zip(gates) {
                let position = position as usize;
                if gate == NO_GATE {
                    if settled == 0 {
                        // The root of an engine with no settled level.
                        if cost != 0 || position != 0 {
                            return Err(corrupt("frontier root outside bucket 0"));
                        }
                        unique += 1;
                    } else if position >= settled {
                        return Err(corrupt("stale frontier copy of an unsettled word"));
                    }
                    continue;
                }
                if usize::from(gate) >= gate_count {
                    return Err(corrupt(format!("frontier path gate {gate} out of range")));
                }
                if position >= settled {
                    return Err(corrupt("frontier parent is not a settled word"));
                }
                if !level.0.contains(&position) {
                    let k = level_ends.partition_point(|&end| end <= position);
                    let start = k.checked_sub(1).map_or(0, |j| level_ends[j]);
                    level = (start..level_ends[k], k as u64);
                }
                let path = level.1 + u64::from(gate_costs[usize::from(gate)]);
                if completed.is_some_and(|c| path <= c) || path > u64::from(cost) {
                    return Err(corrupt(format!(
                        "frontier word of path cost {path} in bucket {cost}"
                    )));
                }
                let bit = position * gate_count + usize::from(gate);
                if first_seen[bit / 64] & (1 << (bit % 64)) == 0 {
                    first_seen[bit / 64] |= 1 << (bit % 64);
                    unique += 1;
                    if path != u64::from(cost) {
                        return Err(corrupt(format!(
                            "frontier word of path cost {path} first queued at cost {cost}"
                        )));
                    }
                }
            }
        }
        r.finish("frontier")?;
        if unique != header.frontier_unique {
            return Err(corrupt(format!(
                "frontier holds {unique} distinct words, header declares {}",
                header.frontier_unique
            )));
        }
        Ok(())
    }

    /// Replays the buckets (cost-ascending) into the level store, deriving
    /// each word from its settled parent. The first entry of a word is
    /// its cheapest — it founds the entry with the word's path metadata;
    /// later ones are the stale bucket entries the lazy decrease-key rule
    /// leaves behind, kept in the bucket lists (as the existing entry's
    /// handle) so resumed expansion is bit-identical to a
    /// never-snapshotted engine. Returns the section's length in bytes.
    pub(crate) fn merge_into<W: SearchWidth>(
        self,
        frontier: &mut Frontier<W::Word>,
        gate_images: &[GateTable],
        gate_costs: &[u32],
    ) -> u64 {
        let seen = &mut frontier.seen;
        seen.reserve(self.unique);
        let mut r = Reader::new(&self.image[self.section.clone()]);
        for _ in 0..self.buckets {
            // lint: allow(panic) the section was validated at load
            let (cost, positions, gates) = bucket_paths(&mut r).expect("validated at load");
            let mut bucket = Vec::with_capacity(gates.len());
            // A derived word is interned one entry late, so its home slot
            // is fetched while the next entry is derived.
            let mut queued: Option<(W::Word, u64, Meta)> = None;
            for (position, &gate) in u32s(positions).zip(gates) {
                let derived = (gate != NO_GATE).then(|| {
                    let gate = usize::from(gate);
                    let parent = seen.record(position);
                    let (word, hash) = parent.key().map_hash(&gate_images[gate]);
                    seen.prefetch(hash);
                    let meta = Meta {
                        cost: parent.meta().cost + gate_costs[gate],
                        gate: gate as u8,
                    };
                    (word, hash, meta)
                });
                if let Some((word, hash, meta)) = queued.take() {
                    bucket.push(seen.intern_hashed(word, hash, meta));
                }
                match derived {
                    Some(next) => queued = Some(next),
                    None if self.settled == 0 => {
                        bucket.push(seen.intern(W::Word::identity(self.domain_len), Meta::ROOT));
                    }
                    None => bucket.push(position),
                }
            }
            if let Some((word, hash, meta)) = queued {
                bucket.push(seen.intern_hashed(word, hash, meta));
            }
            frontier.pending.insert(cost, bucket);
        }
        self.section.len() as u64
    }
}

// ---------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------

/// Appends stored `(position, gate)` pairs: all positions, then all
/// gates.
fn put_paths(out: &mut Vec<u8>, paths: &[(u32, u8)]) {
    for &(position, _) in paths {
        put_u32(out, position);
    }
    out.extend(paths.iter().map(|&(_, gate)| gate));
}

impl<W: SearchWidth> SearchEngine<W> {
    /// Serializes the engine's warm state to `path` durably: a
    /// per-process-unique temp sibling is written and fsynced, any
    /// intact existing snapshot is rotated to `.bak`, the temp is
    /// renamed into place, and the parent directory is fsynced so the
    /// rename survives a crash. A failure mid-save leaves the previous
    /// state loadable (via the primary or its `.bak`).
    ///
    /// Takes `&mut self` because a settled top level must be expanded
    /// first, and a loaded engine must merge its deferred frontier (see
    /// the module docs).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::LibraryMismatch`] when the engine was built over
    /// a non-standard library (snapshots reconstruct the library from
    /// its wire count), or [`SnapshotError::Io`] on write failure.
    pub fn save_snapshot(&mut self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let bytes = self.snapshot_to_bytes()?;
        durable_write(path, &bytes)
    }

    /// [`Self::save_snapshot`] into an in-memory buffer. An engine loaded
    /// from a snapshot that has taken no level step since returns the
    /// loaded buffer itself, shared, without serializing (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::LibraryMismatch`] when the engine was built over
    /// a non-standard library.
    pub fn snapshot_to_bytes(&mut self) -> Result<SnapshotImage, SnapshotError> {
        if let Some(image) = &self.image {
            return Ok(image.clone());
        }
        self.ensure_frontier();
        self.expand_settled_level();
        let wires = self.library.domain().wires();
        let fingerprint = library_fingerprint(&self.library_tables());
        let standard = GateLibrary::standard(wires);
        let standard_engine = SearchEngine::<W>::try_new(standard, self.model)
            .map_err(|err| SnapshotError::LibraryMismatch(err.to_string()))?;
        if library_fingerprint(&standard_engine.library_tables()) != fingerprint {
            return Err(SnapshotError::LibraryMismatch(format!(
                "engine library differs from GateLibrary::standard({wires}); \
                 only standard libraries can be snapshotted"
            )));
        }
        let domain_len = self.library.domain().len();
        let binary_len = self.binary0.len();

        // Every settled word's position: its index in the levels,
        // concatenated in cost order.
        let seen = &self.frontier.seen;
        let mut position = vec![u32::MAX; seen.len()];
        for (at, &handle) in self.frontier.levels.iter().flatten().enumerate() {
            position[handle as usize] = at as u32;
        }
        // A word's stored pair: its parent's position and its path gate
        // (the identity root's pair is `(0, NO_GATE)`).
        let derivation = |handle: Handle| -> (u32, u8) {
            let gate = seen.meta(handle).gate;
            if gate == NO_GATE {
                return (0, NO_GATE);
            }
            let parent = seen
                .key(handle)
                .map_through(&self.gate_inverse_images[usize::from(gate)]);
            let parent = seen
                .handle_of(&parent)
                // lint: allow(panic) a word's parent was expanded, so it is settled in `seen`
                .expect("a word's parent is settled");
            debug_assert_ne!(position[parent as usize], u32::MAX, "parent is settled");
            (position[parent as usize], gate)
        };

        // Core section: levels as derivations, with their classes nested
        // in the level that founded them (so class cost = level index and
        // the byte stream is deterministic).
        self.probe.on(|p| p.snapshot_section_started("core_save"));
        let mut core = Vec::new();
        let mut class_total = 0u64;
        let mut level_start = 0u32;
        for (k, handles) in self.frontier.levels.iter().enumerate() {
            put_u32(&mut core, handles.len() as u32);
            let paths: Vec<(u32, u8)> = handles.iter().map(|&h| derivation(h)).collect();
            put_paths(&mut core, &paths);
            let class_keys = &self.class_levels[k];
            put_u32(&mut core, class_keys.len() as u32);
            class_total += class_keys.len() as u64;
            for key in class_keys {
                let class = &self.classes[key];
                debug_assert_eq!(class.cost, k as u32);
                put_u32(&mut core, class.witnesses.len() as u32);
                for witness in &class.witnesses {
                    // lint: allow(panic) every witness is a settled level word
                    let handle = seen.handle_of(witness).expect("witness is in A");
                    put_u32(&mut core, position[handle as usize] - level_start);
                }
            }
            level_start += handles.len() as u32;
        }

        self.probe
            .on(|p| p.snapshot_section_finished("core_save", core.len() as u64));

        // Frontier section: the pending Dijkstra buckets, in order. A
        // settled word (a stale copy) is stored by its own position.
        self.probe
            .on(|p| p.snapshot_section_started("frontier_save"));
        let mut frontier = Vec::new();
        for (&cost, bucket) in &self.frontier.pending {
            put_u32(&mut frontier, cost);
            put_u32(&mut frontier, bucket.len() as u32);
            let paths: Vec<(u32, u8)> = bucket
                .iter()
                .map(|&h| match position[h as usize] {
                    u32::MAX => derivation(h),
                    settled => (settled, NO_GATE),
                })
                .collect();
            put_paths(&mut frontier, &paths);
        }

        self.probe
            .on(|p| p.snapshot_section_finished("frontier_save", frontier.len() as u64));

        let completed_words: usize = self.b_counts.iter().sum();
        let weights = self.model.weights();
        let header = Header {
            wires: wires as u8,
            domain_len: domain_len as u8,
            binary_len: binary_len as u8,
            gate_count: self.gate_images.len() as u16,
            fingerprint,
            weights,
            completed: self.completed_cost(),
            a_size: seen.len() as u64,
            level_count: self.frontier.levels.len() as u32,
            class_count: class_total,
            frontier_buckets: self.frontier.pending.len() as u32,
            frontier_unique: (seen.len() - completed_words) as u64,
            core_len: core.len() as u64,
            core_checksum: checksum64(&core),
            frontier_len: frontier.len() as u64,
            frontier_checksum: checksum64(&frontier),
            word_capacity: W::Word::CAPACITY as u16,
            trace_slots: W::Trace::SLOTS as u8,
        };
        let header_bytes = header.to_bytes();

        let mut out = Vec::with_capacity(24 + header_bytes.len() + core.len() + frontier.len());
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, SNAPSHOT_VERSION);
        put_u32(&mut out, header_bytes.len() as u32);
        out.extend_from_slice(&header_bytes);
        put_u64(&mut out, checksum64(&header_bytes));
        out.extend_from_slice(&core);
        out.extend_from_slice(&frontier);
        Ok(SnapshotImage::from(&out[..]))
    }
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

impl<W: SearchWidth> SearchEngine<W> {
    /// Loads a snapshot file.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: I/O failure, bad magic, unsupported
    /// version, truncation, checksum mismatch, structural corruption, a
    /// width mismatch against this engine's [`SearchWidth`], or a
    /// library this build cannot reconstruct.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        mvq_fault::point!(
            "snapshot.load",
            return Err(corrupt("injected snapshot.load fault"))
        );
        let image = read_image(path.as_ref())?;
        Self::load_snapshot_image(image, ProbeHandle::none())
    }

    /// [`Self::load_snapshot`]; the thread count is ignored (expansion
    /// is serial). Kept only for the benchmark harness, which still
    /// passes one.
    ///
    /// # Errors
    ///
    /// See [`Self::load_snapshot`].
    pub fn load_snapshot_with_threads(
        path: impl AsRef<Path>,
        _threads: usize,
    ) -> Result<Self, SnapshotError> {
        Self::load_snapshot(path)
    }

    /// [`Self::load_snapshot`] with last-good fallback:
    /// when the primary at `path` is missing or fails with a
    /// corruption-class error ([`SnapshotError::is_corruption`]), the
    /// `.bak` sibling written by [`Self::save_snapshot`] is tried before
    /// giving up. The returned [`SnapshotSource`] says which file
    /// actually loaded so callers can log the degradation.
    ///
    /// # Errors
    ///
    /// The primary's error when no fallback applies (environment
    /// mismatches are never retried against the backup) or when the
    /// backup also fails to load.
    pub fn load_snapshot_resilient(
        path: impl AsRef<Path>,
    ) -> Result<(Self, SnapshotSource), SnapshotError> {
        let path = path.as_ref();
        let primary_error = match Self::load_snapshot(path) {
            Ok(engine) => return Ok((engine, SnapshotSource::Primary)),
            Err(err) => err,
        };
        let missing =
            matches!(&primary_error, SnapshotError::Io(io) if io.kind() == io::ErrorKind::NotFound);
        if !primary_error.is_corruption() && !missing {
            return Err(primary_error);
        }
        match Self::load_snapshot(snapshot_backup_path(path)) {
            Ok(engine) => Ok((
                engine,
                SnapshotSource::Backup {
                    primary_error: primary_error.to_string(),
                },
            )),
            Err(_) => Err(primary_error),
        }
    }

    /// Rebuilds an engine from in-memory snapshot bytes.
    ///
    /// # Errors
    ///
    /// See [`Self::load_snapshot`].
    pub fn load_snapshot_from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::load_snapshot_image(bytes, ProbeHandle::none())
    }

    /// [`Self::load_snapshot_image`]; the thread count is ignored
    /// (expansion is serial). Kept only for the benchmark harness, which
    /// still passes one.
    ///
    /// # Errors
    ///
    /// See [`Self::load_snapshot`].
    pub fn load_snapshot_from_bytes_with_probe(
        image: impl Into<SnapshotImage>,
        _threads: usize,
        probe: ProbeHandle,
    ) -> Result<Self, SnapshotError> {
        Self::load_snapshot_image(image, probe)
    }

    /// Rebuilds an engine from snapshot bytes with an observability
    /// probe installed up front, so the load itself reports its section
    /// timings (the probe stays installed on the returned engine).
    ///
    /// Pass a [`SnapshotImage`] to share the buffer: the engine reads its
    /// deferred frontier from it and keeps it as its image (see the
    /// module docs). A borrowed slice is copied into a new buffer once.
    ///
    /// # Errors
    ///
    /// See [`Self::load_snapshot`].
    pub fn load_snapshot_image(
        image: impl Into<SnapshotImage>,
        probe: ProbeHandle,
    ) -> Result<Self, SnapshotError> {
        let image: SnapshotImage = image.into();
        let bytes = &image[..];
        // Framing: magic, version, header length.
        if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::NotASnapshot);
        }
        let mut r = Reader::new(&bytes[MAGIC.len()..]);
        // lint: allow(panic) reader holds at least the 8 header-prefix bytes checked above
        let version = r.u32().expect("length checked");
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        // lint: allow(panic) reader holds at least the 8 header-prefix bytes checked above
        let header_len = r.u32().expect("length checked") as usize;
        let header_start = MAGIC.len() + 8;
        let body_start = header_start
            .checked_add(header_len)
            .and_then(|n| n.checked_add(8))
            .ok_or(SnapshotError::NotASnapshot)?;
        if bytes.len() < body_start {
            return Err(SnapshotError::Truncated {
                expected: body_start as u64,
                actual: bytes.len() as u64,
            });
        }
        let header_bytes = &bytes[header_start..header_start + header_len];
        let stored_header_checksum = u64::from_le_bytes(
            bytes[header_start + header_len..body_start]
                .try_into()
                // lint: allow(panic) the slice is exactly the 8 checksum bytes bounds-checked above
                .unwrap(),
        );
        if checksum64(header_bytes) != stored_header_checksum {
            return Err(SnapshotError::ChecksumMismatch("header"));
        }
        let header = Header::parse(header_bytes)?;
        if header.word_capacity as usize != W::Word::CAPACITY
            || header.trace_slots as usize != W::Trace::SLOTS
        {
            return Err(SnapshotError::WidthMismatch {
                snapshot_word_capacity: header.word_capacity as usize,
                snapshot_trace_slots: header.trace_slots as usize,
                engine_word_capacity: W::Word::CAPACITY,
                engine_trace_slots: W::Trace::SLOTS,
            });
        }

        // Section framing and checksums.
        let core_len = usize_of(header.core_len, "core byte")?;
        let frontier_len = usize_of(header.frontier_len, "frontier byte")?;
        let expected_total = (body_start as u64)
            .checked_add(header.core_len)
            .and_then(|n| n.checked_add(header.frontier_len))
            .ok_or_else(|| corrupt("section lengths overflow"))?;
        if (bytes.len() as u64) < expected_total {
            return Err(SnapshotError::Truncated {
                expected: expected_total,
                actual: bytes.len() as u64,
            });
        }
        if bytes.len() as u64 > expected_total {
            return Err(corrupt(format!(
                "{} trailing bytes after the frontier section",
                bytes.len() as u64 - expected_total
            )));
        }
        let core = &bytes[body_start..body_start + core_len];
        let frontier = &bytes[body_start + core_len..][..frontier_len];
        if checksum64(core) != header.core_checksum {
            return Err(SnapshotError::ChecksumMismatch("core"));
        }
        if checksum64(frontier) != header.frontier_checksum {
            return Err(SnapshotError::ChecksumMismatch("frontier"));
        }

        // Library + model reconstruction.
        if !(2..=4).contains(&header.wires) {
            return Err(SnapshotError::LibraryMismatch(format!(
                "snapshot built over {} wires; standard libraries cover 2–4",
                header.wires
            )));
        }
        let (v, vd, f) = header.weights;
        if v == 0 || vd == 0 || f == 0 {
            return Err(corrupt("cost-model weights must be positive"));
        }
        let model = CostModel::weighted(v, vd, f);
        let library = GateLibrary::standard(header.wires as usize);
        let mut engine = SearchEngine::<W>::try_new(library, model)
            .map_err(|err| SnapshotError::LibraryMismatch(err.to_string()))?;
        let tables = engine.library_tables();
        if engine.gate_images.len() != header.gate_count as usize
            || engine.library.domain().len() != header.domain_len as usize
            || engine.binary0.len() != header.binary_len as usize
            || library_fingerprint(&tables) != header.fingerprint
        {
            return Err(SnapshotError::LibraryMismatch(format!(
                "snapshot fingerprint does not match GateLibrary::standard({})",
                header.wires
            )));
        }
        engine.probe = probe;
        let domain_len = header.domain_len as usize;
        let gate_count = engine.gate_images.len();

        // Core section → levels, path metadata, traces, classes.
        let completed_words = usize_of(
            header
                .a_size
                .checked_sub(header.frontier_unique)
                .ok_or_else(|| corrupt("frontier word count exceeds |A|"))?,
            "completed word",
        )?;
        engine.frontier.seen = SeenTable::new();
        engine.frontier.pending.clear();
        engine.frontier.seen.reserve(completed_words);
        engine.frontier.levels = Vec::with_capacity(header.level_count as usize);
        engine.level_traces = Vec::with_capacity(header.level_count as usize);
        engine.trace_index = Vec::with_capacity(header.level_count as usize);
        engine.class_levels = Vec::with_capacity(header.level_count as usize);
        engine.g_counts = Vec::with_capacity(header.level_count as usize);
        engine.b_counts = Vec::with_capacity(header.level_count as usize);
        let mut level_ends = Vec::with_capacity(header.level_count as usize);
        engine.probe.on(|p| p.snapshot_section_started("core_load"));
        let mut r = Reader::new(core);
        let mut class_total = 0u64;
        for k in 0..header.level_count {
            let count = r.u32()? as usize;
            let (positions, gates) = r.paths(count)?;
            // The arena holds the earlier levels, so the next handle is
            // the next position.
            let level_start = engine.frontier.seen.len();
            let mut handles = Vec::with_capacity(count);
            let mut traces = Vec::with_capacity(count);
            // Each word is interned one step late, so its home slot is
            // fetched while the next word is derived.
            let mut queued: Option<(W::Word, u64, Meta)> = None;
            let paths = u32s(positions).zip(gates).map(Some).chain([None]);
            for (i, path) in paths.enumerate() {
                let derived = match path {
                    None => None,
                    Some((parent, &NO_GATE)) => {
                        if k != 0 || parent != 0 || i != 0 {
                            return Err(corrupt(
                                "a level word other than the identity has no path gate",
                            ));
                        }
                        let root = W::Word::identity(domain_len);
                        Some((root, root.table_hash(), Meta::ROOT))
                    }
                    Some((parent, &gate)) => {
                        if usize::from(gate) >= gate_count {
                            return Err(corrupt(format!("level path gate {gate} out of range")));
                        }
                        if parent as usize >= level_start {
                            return Err(corrupt(format!(
                                "level {k} word's parent {parent} is not in an earlier level"
                            )));
                        }
                        let parent = engine.frontier.seen.record(parent);
                        let parent_meta = parent.meta();
                        let gate_cost = engine.gate_costs[usize::from(gate)];
                        if u64::from(parent_meta.cost) + u64::from(gate_cost) != u64::from(k) {
                            return Err(corrupt(format!(
                                "level {k} word derived at path cost {} + {gate_cost}",
                                parent_meta.cost
                            )));
                        }
                        let (word, hash) = parent
                            .key()
                            .map_hash(&engine.gate_images[usize::from(gate)]);
                        engine.frontier.seen.prefetch(hash);
                        Some((word, hash, Meta { cost: k, gate }))
                    }
                };
                if let Some((word, hash, meta)) = std::mem::replace(&mut queued, derived) {
                    let handle = engine.frontier.seen.intern_hashed(word, hash, meta);
                    if handle as usize != level_start + handles.len() {
                        return Err(corrupt(format!("level {k} repeats an earlier word")));
                    }
                    traces.push(engine.trace_of(&word));
                    handles.push(handle);
                }
            }
            let class_count = r.u32()? as usize;
            class_total += class_count as u64;
            let mut class_keys = Vec::with_capacity(class_count);
            for _ in 0..class_count {
                let witness_count = r.u32()? as usize;
                if witness_count == 0 {
                    return Err(corrupt("class without witnesses"));
                }
                let mut key = None;
                let mut previous = None;
                let mut witnesses = Vec::with_capacity(witness_count);
                for at in u32s(r.u32_block(witness_count)?) {
                    let at = at as usize;
                    if at >= count || previous.is_some_and(|p| p >= at) {
                        return Err(corrupt(format!(
                            "level {k} class witness {at} out of order or range"
                        )));
                    }
                    previous = Some(at);
                    let restriction = engine.restrict(traces[at]);
                    if restriction.is_none() || key.is_some_and(|key| Some(key) != restriction) {
                        return Err(corrupt(format!(
                            "level {k} witness {at} does not restrict to its class"
                        )));
                    }
                    key = restriction;
                    witnesses.push(engine.frontier.seen.key(handles[at]));
                }
                // lint: allow(panic) the class has a witness, which set the key
                let key = key.expect("a witness sets the key");
                if engine
                    .classes
                    .insert(key, crate::engine::GClass { cost: k, witnesses })
                    .is_some()
                {
                    return Err(corrupt("class founded twice"));
                }
                class_keys.push(key);
            }
            engine.g_counts.push(class_count);
            engine.b_counts.push(count);
            engine.frontier.levels.push(handles);
            engine.level_traces.push(traces);
            engine.trace_index.push(OnceLock::new());
            engine.class_levels.push(class_keys);
            level_ends.push(engine.frontier.seen.len());
        }
        r.finish("core")?;
        if class_total != header.class_count {
            return Err(corrupt(format!(
                "header declares {} classes, core section holds {class_total}",
                header.class_count
            )));
        }
        if engine.frontier.seen.len() != completed_words {
            return Err(corrupt(format!(
                "level tables hold {} distinct words, header accounts for {completed_words}",
                engine.frontier.seen.len()
            )));
        }
        match (header.completed, header.level_count) {
            (None, 0) => {}
            (Some(c), n) if u64::from(n) == u64::from(c) + 1 => {}
            _ => return Err(corrupt("completed level disagrees with the level count")),
        }
        engine
            .probe
            .on(|p| p.snapshot_section_finished("core_load", core.len() as u64));

        // Frontier section: validate now, merge on the first level step.
        engine
            .probe
            .on(|p| p.snapshot_section_started("frontier_load"));
        DeferredFrontier::validate(frontier, &header, &level_ends, &engine.gate_costs)?;
        let frontier_start = body_start + core_len;
        engine.deferred_frontier = (header.frontier_buckets > 0).then(|| DeferredFrontier {
            image: image.clone(),
            section: frontier_start..frontier_start + frontier_len,
            buckets: header.frontier_buckets,
            unique: usize_of(header.frontier_unique, "frontier word").unwrap_or(0),
            settled: completed_words,
            domain_len,
        });
        engine
            .probe
            .on(|p| p.snapshot_section_finished("frontier_load", frontier.len() as u64));
        engine.image = Some(image);
        Ok(engine)
    }
}

/// Reads a whole snapshot file into one image, sized from the file's
/// metadata so the read is a single allocation. (Snapshots are
/// published by rename, so a file does not change while it is read.)
fn read_image(path: &Path) -> io::Result<SnapshotImage> {
    use std::io::Read;

    let mut file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).map_err(io::Error::other)?;
    let mut buf = ImageBuf::zeroed(len);
    file.read_exact(buf.bytes_mut())?;
    Ok(SnapshotImage(Arc::new(buf)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{known, SynthesisEngine, WideSynthesisEngine};

    fn warm(depth: u32) -> SynthesisEngine {
        let mut e = SynthesisEngine::unit_cost();
        e.expand_to_cost(depth);
        e
    }

    #[test]
    fn roundtrip_preserves_levels_and_classes() {
        let mut original = warm(4);
        let bytes = original.snapshot_to_bytes().unwrap();
        let loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(original.g_counts(), loaded.g_counts());
        assert_eq!(original.b_counts(), loaded.b_counts());
        assert_eq!(original.a_size(), loaded.a_size());
        assert_eq!(original.classes_found(), loaded.classes_found());
        for k in 0..=4 {
            assert_eq!(original.level_words(k), loaded.level_words(k), "level {k}");
        }
    }

    #[test]
    fn loaded_engine_answers_queries_identically() {
        let mut original = warm(5);
        let bytes = original.snapshot_to_bytes().unwrap();
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
        let want = original.synthesize(&known::toffoli_perm(), 6).unwrap();
        let got = loaded.synthesize(&known::toffoli_perm(), 6).unwrap();
        assert_eq!(want.cost, got.cost);
        assert_eq!(want.implementation_count, got.implementation_count);
        assert_eq!(want.circuit.to_string(), got.circuit.to_string());
        // Warm bound semantics survive the round-trip.
        assert!(loaded.synthesize(&known::toffoli_perm(), 4).is_none());
    }

    #[test]
    fn resumed_expansion_is_bit_identical() {
        let mut reference = warm(5);
        let mut snapshotted = warm(3);
        let bytes = snapshotted.snapshot_to_bytes().unwrap();
        let mut resumed = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
        resumed.expand_to_cost(5);
        assert_eq!(reference.g_counts(), resumed.g_counts());
        assert_eq!(reference.b_counts(), resumed.b_counts());
        assert_eq!(reference.a_size(), resumed.a_size());
        for k in 0..=5 {
            assert_eq!(
                reference.level_words(k),
                resumed.level_words(k),
                "level {k}"
            );
        }
        let want = reference.synthesize(&known::toffoli_perm(), 6).unwrap();
        let got = resumed.synthesize(&known::toffoli_perm(), 6).unwrap();
        assert_eq!(want.circuit.to_string(), got.circuit.to_string());
    }

    #[test]
    fn weighted_model_roundtrips() {
        let mut original =
            SynthesisEngine::new(GateLibrary::standard(3), CostModel::weighted(1, 2, 3));
        original.expand_to_cost(5);
        let bytes = original.snapshot_to_bytes().unwrap();
        let loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.cost_model().weights(), (1, 2, 3));
        assert_eq!(original.g_counts(), loaded.g_counts());
        assert_eq!(original.b_counts(), loaded.b_counts());
    }

    #[test]
    fn stale_copies_of_settled_words_roundtrip() {
        // Under weighted(1,1,3) a word first queued through a Feynman
        // gate can settle cheaper through V gates, leaving its stale copy
        // in a later bucket: the frontier names a settled word.
        let model = CostModel::weighted(1, 1, 3);
        let mut original = SynthesisEngine::new(GateLibrary::standard(3), model);
        original.expand_to_cost(6);
        let completed = original.completed_cost().unwrap();
        let stale_settled = original
            .frontier
            .pending
            .values()
            .flatten()
            .filter(|&&h| original.frontier.seen.meta(h).cost <= completed)
            .count();
        assert!(stale_settled > 0, "the case is exercised");
        let bytes = original.snapshot_to_bytes().unwrap();
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
        loaded.ensure_frontier();
        assert_eq!(
            loaded
                .frontier
                .pending
                .values()
                .map(Vec::len)
                .collect::<Vec<_>>(),
            original
                .frontier
                .pending
                .values()
                .map(Vec::len)
                .collect::<Vec<_>>()
        );
        for (got, want) in loaded
            .frontier
            .pending
            .values()
            .zip(original.frontier.pending.values())
        {
            let got: Vec<_> = got
                .iter()
                .map(|&h| (loaded.frontier.seen.key(h), loaded.frontier.seen.meta(h)))
                .collect();
            let want: Vec<_> = want
                .iter()
                .map(|&h| {
                    (
                        original.frontier.seen.key(h),
                        original.frontier.seen.meta(h),
                    )
                })
                .collect();
            assert_eq!(got, want);
        }
        original.expand_to_cost(8);
        loaded.expand_to_cost(8);
        assert_eq!(original.b_counts(), loaded.b_counts());
        assert_eq!(original.a_size(), loaded.a_size());
        for k in 0..=8 {
            assert_eq!(original.level_words(k), loaded.level_words(k), "level {k}");
        }
    }

    #[test]
    fn unexpanded_engine_roundtrips() {
        let mut fresh = SynthesisEngine::unit_cost();
        let bytes = fresh.snapshot_to_bytes().unwrap();
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.a_size(), 1); // the identity, still pending
        assert_eq!(loaded.completed_cost(), None);
        loaded.expand_to_cost(2);
        let mut reference = SynthesisEngine::unit_cost();
        reference.expand_to_cost(2);
        assert_eq!(reference.g_counts(), loaded.g_counts());
        assert_eq!(reference.a_size(), loaded.a_size());
    }

    #[test]
    fn bad_magic_is_not_a_snapshot() {
        let err = SynthesisEngine::load_snapshot_from_bytes(b"definitely not").unwrap_err();
        assert!(matches!(err, SnapshotError::NotASnapshot), "{err}");
        let err = SynthesisEngine::load_snapshot_from_bytes(b"").unwrap_err();
        assert!(matches!(err, SnapshotError::NotASnapshot), "{err}");
    }

    #[test]
    fn wrong_version_is_reported() {
        let mut bytes = warm(1).snapshot_to_bytes().unwrap().to_vec();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
        let err = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion(99)),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_reported() {
        let bytes = warm(2).snapshot_to_bytes().unwrap();
        for cut in [bytes.len() / 2, bytes.len() - 1, 20] {
            let err = SynthesisEngine::load_snapshot_from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_bytes_fail_the_checksum() {
        let bytes = warm(2).snapshot_to_bytes().unwrap();
        // One flip in every region: header, core, frontier (the end).
        for offset in [30, bytes.len() / 2, bytes.len() - 2] {
            let mut corrupted = bytes.to_vec();
            corrupted[offset] ^= 0x40;
            let err = SynthesisEngine::load_snapshot_from_bytes(&corrupted).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::ChecksumMismatch(_) | SnapshotError::Corrupt(_)
                ),
                "offset {offset}: {err}"
            );
        }
    }

    /// Recomputes every checksum of `bytes` after a deliberate edit, so
    /// the edit reaches structural validation.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let mut header = Header::parse(&bytes[16..16 + header_len]).unwrap();
        let body = 16 + header_len + 8;
        let core_len = header.core_len as usize;
        header.core_checksum = checksum64(&bytes[body..body + core_len]);
        header.frontier_checksum = checksum64(&bytes[body + core_len..]);
        let header_bytes = header.to_bytes();
        bytes[16..16 + header_len].copy_from_slice(&header_bytes);
        bytes[16 + header_len..body].copy_from_slice(&checksum64(&header_bytes).to_le_bytes());
        bytes
    }

    #[test]
    fn resealed_edits_fail_structural_validation() {
        let bytes = warm(2).snapshot_to_bytes().unwrap().to_vec();
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let core = 16 + header_len + 8;
        let core_len = Header::parse(&bytes[16..16 + header_len]).unwrap().core_len as usize;
        let frontier = core + core_len;
        // Level 0 is `count · parent · gate · classes · witnesses` (21
        // bytes); level 1 follows with 18 parents, then 18 gates.
        let level_1_parents = core + 21 + 4;
        let level_1_gates = level_1_parents + 18 * 4;
        // The first frontier bucket is `cost · count · positions · gates`.
        assert_eq!(&bytes[frontier..frontier + 4], &3u32.to_le_bytes());
        let entries = u32::from_le_bytes(bytes[frontier + 4..frontier + 8].try_into().unwrap());
        let first_gate = frontier + 8 + entries as usize * 4;
        let edits: [(&str, usize, &[u8]); 6] = [
            ("root given a gate", core + 8, &[0]),
            ("gate out of range", level_1_gates, &[0xfe]),
            ("parent in its own level", level_1_parents, &[1, 0, 0, 0]),
            ("witness outside its level", core + 17, &[1, 0, 0, 0]),
            ("bucket above its paths", frontier, &[9, 0, 0, 0]),
            ("frontier word stored as settled", first_gate, &[NO_GATE]),
        ];
        assert!(SynthesisEngine::load_snapshot_from_bytes(&reseal(bytes.clone())).is_ok());
        for (label, at, patch) in edits {
            let mut edited = bytes.clone();
            edited[at..at + patch.len()].copy_from_slice(patch);
            let err = SynthesisEngine::load_snapshot_from_bytes(&reseal(edited)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{label}: {err}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = warm(1).snapshot_to_bytes().unwrap().to_vec();
        bytes.extend_from_slice(b"junk");
        let err = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn two_wire_snapshot_roundtrips() {
        let mut original = SynthesisEngine::new(GateLibrary::standard(2), CostModel::unit());
        original.expand_to_cost(3);
        let bytes = original.snapshot_to_bytes().unwrap();
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
        let target: mvq_perm::Perm = "(3,4)".parse::<mvq_perm::Perm>().unwrap().extended(4);
        assert_eq!(loaded.minimal_cost(&target, 3), Some(1));
    }

    #[test]
    fn wide_engine_snapshot_roundtrips() {
        let mut original = WideSynthesisEngine::new(GateLibrary::standard(4), CostModel::unit());
        original.expand_to_cost(2);
        let bytes = original.snapshot_to_bytes().unwrap();
        let mut loaded = WideSynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(original.g_counts(), loaded.g_counts());
        assert_eq!(original.b_counts(), loaded.b_counts());
        assert_eq!(original.a_size(), loaded.a_size());
        // Resumed expansion matches a never-snapshotted engine.
        let mut reference = WideSynthesisEngine::new(GateLibrary::standard(4), CostModel::unit());
        reference.expand_to_cost(3);
        loaded.expand_to_cost(3);
        assert_eq!(reference.g_counts(), loaded.g_counts());
        assert_eq!(reference.a_size(), loaded.a_size());
    }

    #[test]
    fn width_mismatch_is_a_typed_error() {
        // A wide snapshot offered to the narrow engine (and vice versa)
        // fails with WidthMismatch, not a misparse.
        let mut wide = WideSynthesisEngine::new(GateLibrary::standard(4), CostModel::unit());
        wide.expand_to_cost(1);
        let wide_bytes = wide.snapshot_to_bytes().unwrap();
        let err = SynthesisEngine::load_snapshot_from_bytes(&wide_bytes).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::WidthMismatch {
                    snapshot_word_capacity: 256,
                    snapshot_trace_slots: 16,
                    engine_word_capacity: 64,
                    engine_trace_slots: 8,
                }
            ),
            "{err}"
        );

        let narrow_bytes = warm(2).snapshot_to_bytes().unwrap();
        let err = WideSynthesisEngine::load_snapshot_from_bytes(&narrow_bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::WidthMismatch { .. }), "{err}");
    }

    #[test]
    fn older_versions_are_refused() {
        // Versions 1 and 2 stored raw image tables; this build refuses
        // them with the typed error the CLI and server degrade on.
        let current = warm(3).snapshot_to_bytes().unwrap();
        for version in [1u32, 2] {
            let mut old = current.to_vec();
            old[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
            let err = SynthesisEngine::load_snapshot_from_bytes(&old).unwrap_err();
            assert!(
                matches!(err, SnapshotError::UnsupportedVersion(v) if v == version),
                "{err}"
            );
            assert!(err.is_corruption(), "an unreadable version degrades");
            let err = WideSynthesisEngine::load_snapshot_from_bytes(&old).unwrap_err();
            assert!(matches!(err, SnapshotError::UnsupportedVersion(_)), "{err}");
        }
    }

    #[test]
    fn large_images_are_mapped_and_hold_exactly_their_bytes() {
        let huge = crate::mapping::HUGE_PAGE;
        for len in [0, 13, huge + 5] {
            let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let image = SnapshotImage::from(&bytes[..]);
            assert_eq!(&image[..], &bytes[..]);
            let mapped = len >= huge
                && cfg!(all(
                    target_os = "linux",
                    any(target_arch = "x86_64", target_arch = "aarch64")
                ));
            assert_eq!(image.0.lanes.is_mapped(), mapped, "{len} bytes");
        }
    }

    #[test]
    fn version_3_is_written() {
        let bytes = warm(1).snapshot_to_bytes().unwrap();
        let version = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
        assert_eq!(version, SNAPSHOT_VERSION);
        assert_eq!(version, 3);
    }

    #[test]
    fn save_and_load_via_path() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mvq_snapshot_test_{}.snap", std::process::id()));
        let mut original = warm(3);
        original.save_snapshot(&path).unwrap();
        let loaded = SynthesisEngine::load_snapshot(&path).unwrap();
        assert_eq!(original.g_counts(), loaded.g_counts());
        std::fs::remove_file(&path).ok();
    }
}
