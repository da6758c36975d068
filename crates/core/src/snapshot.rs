//! Persistent level-cache snapshots: versioned, checksummed binary
//! serialization of a warm [`SynthesisEngine`].
//!
//! `expand_to_cost` dominates every cold query, yet the state it builds —
//! the per-cost level tables (`levels`/`level_traces`), the class table
//! with its witnesses, and the Dijkstra frontier — is plain data. A
//! snapshot writes that state once so every later process cold-starts
//! warm: loading the paper's cost-5 levels takes milliseconds where
//! recomputing them takes ~100 ms, and the ratio grows geometrically
//! with depth.
//!
//! # File layout (version 2)
//!
//! ```text
//! magic "MVQSNAP\0" · version u32
//! header  (length-prefixed, FNV-1a checksummed)
//!   library identity (wires, domain/binary sizes, gate count,
//!   image-table fingerprint) · cost-model weights · completed level ·
//!   section table (lengths + checksums) · element counts ·
//!   packed widths (word capacity, trace slots)
//! core section     levels: words + S-traces + path gates, per cost;
//!                  classes: restriction + witnesses, nested in the
//!                  level that founded them (so class cost = level index
//!                  and the byte stream is deterministic)
//! frontier section pending Dijkstra buckets: (word, path gate) entries
//!                  in bucket order — everything resuming the search
//!                  needs, nothing a query does
//! ```
//!
//! A snapshot always holds fully expanded levels. An engine that settled
//! its top level without generating its successors (a query or host
//! climb) expands that level before writing, so the bytes are exactly
//! those of an engine built with `expand_to_cost`, and a loaded engine
//! has no unexpanded level.
//!
//! All integers are little-endian; words are raw image tables (the
//! domain length is in the header, so no per-word framing) and S-traces
//! are the width's packed integer (8 bytes narrow, 16 wide). Every
//! section is independently FNV-1a-checksummed and fully verified at
//! load — a corrupt, truncated, or wrong-version file fails with a
//! typed [`SnapshotError`], never a silently-empty cache.
//!
//! # Versions and widths
//!
//! Version 2 records the engine's packed widths (word capacity and
//! trace slots) so a snapshot can only be loaded by an engine of the
//! same [`SearchWidth`](crate::SearchWidth) — a mismatch fails with the
//! typed [`SnapshotError::WidthMismatch`], never a misparse. Version 1
//! files (written before the 4-wire widening) carry no width fields and
//! are read as the narrow widths they were built with; this build
//! always writes version 2.
//!
//! # Lazy frontier and the kept image
//!
//! Queries served from the cached levels (census reads, class lookups,
//! circuit reconstruction) never touch the pending frontier, which is
//! ~4× larger than the completed levels. Loading therefore materializes
//! the levels and classes eagerly but leaves the (already checksummed
//! and structurally validated) frontier section where it is, in the
//! loaded file's buffer; the first level step merges it via
//! [`SynthesisEngine::ensure_frontier`]. Nothing merges it earlier: a
//! warm host that never climbs never pays for it. Resumed expansion is
//! bit-identical to a never-snapshotted engine: bucket order, stale
//! decrease-key copies, and path metadata all round-trip exactly.
//!
//! The loaded file is read into one shared buffer, a [`SnapshotImage`],
//! and an engine loaded from a current-version file keeps it as its
//! *image* until its first level step: while the state still equals the
//! file, [`SynthesisEngine::snapshot_to_bytes`] hands back that buffer
//! instead of serializing again (a version 1 file keeps no image, since
//! it re-serializes as version 2). An image of 2 MiB or more is an
//! owned mapping of its own (on Linux; see `mapping`), so dropping its
//! last holder returns the pages to the kernel instead of leaving a
//! freed heap block of snapshot size in a process that loads and drops
//! engines.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::ops::{Deref, Range};
use std::path::Path;
use std::sync::Arc;

use mvq_logic::GateLibrary;
use mvq_obs::ProbeHandle;

use crate::engine::SearchEngine;
use crate::mapping::LaneBuf;
use crate::par;
use crate::seen::{Handle, Meta, ShardedSeen};
use crate::width::{MaskRepr, SearchWidth, TraceRepr, WordRepr};
use crate::word::{fnv1a, GateTable};
use crate::CostModel;

/// The snapshot format version this build writes (it reads versions 1
/// and 2; see the module docs).
pub const SNAPSHOT_VERSION: u32 = 2;

/// The oldest snapshot version this build still reads.
pub const SNAPSHOT_MIN_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"MVQSNAP\0";

/// The identity sentinel in path metadata (no producing gate).
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
    /// [`SearchWidth`](crate::SearchWidth) — e.g. a 4-wire (wide)
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
                "unsupported snapshot version {v} (this build reads versions \
                 {SNAPSHOT_MIN_VERSION}\u{2013}{SNAPSHOT_VERSION})"
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

/// Cheap structural sniff of an existing snapshot file: magic, version
/// range, plausible header length, header checksum. Used to decide
/// whether an about-to-be-overwritten primary is worth keeping as the
/// `.bak` — a torn primary must never clobber a good backup.
fn sniff_snapshot(path: &Path) -> bool {
    let Ok(bytes) = std::fs::read(path) else {
        return false;
    };
    let prefix_len = MAGIC.len() + 8;
    if bytes.len() < prefix_len || &bytes[..MAGIC.len()] != MAGIC {
        return false;
    }
    let version = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
    if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
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

/// `true` iff every byte of `block` is a valid image under `limit`
/// (a contiguous max-scan the optimizer vectorizes, unlike a per-word
/// early-exit loop).
fn all_bytes_below(block: &[u8], limit: usize) -> bool {
    let max = block.iter().fold(0u8, |m, &b| m.max(b));
    (max as usize) < limit || block.is_empty()
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
    /// Packed word capacity of the writing engine (v2; 64 implied in v1).
    word_capacity: u16,
    /// Packed trace slots of the writing engine (v2; 8 implied in v1).
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

    fn parse(bytes: &[u8], version: u32) -> Result<Self, SnapshotError> {
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
            // Version 1 predates the width fields: it was only ever
            // written by the narrow engine.
            word_capacity: if version >= 2 { r.u16()? } else { 64 },
            trace_slots: if version >= 2 { r.u8()? } else { 8 },
        };
        r.finish("header")?;
        Ok(header)
    }
}

/// A stable fingerprint of everything the engine derives from a library:
/// image tables, inverse tables, banned masks, and the binary set.
/// (For the narrow width the bytes — and therefore the fingerprints of
/// existing v1 snapshots — are unchanged.)
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

/// Entry layout of one frontier bucket after its `(cost, count)` prefix:
/// all words contiguous, then all path gates contiguous (so validation
/// and merge scan whole blocks instead of interleaved records).
fn bucket_blocks<'a>(
    r: &mut Reader<'a>,
    domain_len: usize,
) -> Result<(u32, &'a [u8], &'a [u8]), SnapshotError> {
    let cost = r.u32()?;
    let entries = usize_of(r.u64()?, "frontier bucket entry")?;
    let words = r.take(
        entries
            .checked_mul(domain_len)
            .ok_or_else(|| corrupt("frontier bucket size overflows"))?,
    )?;
    let gates = r.take(entries)?;
    Ok((cost, words, gates))
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
/// [`SynthesisEngine::load_snapshot`] reads the file into one, and
/// [`SynthesisEngine::snapshot_to_bytes`] returns one; it reads as a
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

/// The frontier section of a loaded snapshot, checksummed and
/// structurally validated at load but merged into the live maps only
/// when expansion first needs it (queries served from the cached levels
/// skip the cost entirely). It reads the section in place, as a range
/// of the loaded file's shared buffer.
#[derive(Clone)]
pub(crate) struct DeferredFrontier {
    image: SnapshotImage,
    section: Range<usize>,
    buckets: u32,
    unique: usize,
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

    /// Walks the section once, checking every structural invariant the
    /// merge relies on, so the merge itself cannot fail.
    fn validate(bytes: &[u8], header: &Header, gate_count: usize) -> Result<(), SnapshotError> {
        let mut r = Reader::new(bytes);
        let domain_len = header.domain_len as usize;
        let mut previous_cost: Option<u32> = None;
        for _ in 0..header.frontier_buckets {
            let (cost, words, gates) = bucket_blocks(&mut r, domain_len)?;
            if previous_cost.is_some_and(|p| p >= cost) {
                return Err(corrupt("frontier buckets out of cost order"));
            }
            if let Some(completed) = header.completed {
                if cost <= completed {
                    return Err(corrupt(format!(
                        "frontier bucket at cost {cost} inside the completed range"
                    )));
                }
            }
            previous_cost = Some(cost);
            if !all_bytes_below(words, domain_len) {
                return Err(corrupt("frontier word image outside the domain"));
            }
            if !gates
                .iter()
                .all(|&g| g == NO_GATE || (g as usize) < gate_count)
            {
                return Err(corrupt("frontier path gate out of range"));
            }
        }
        r.finish("frontier")
    }

    /// Replays the buckets (cost-ascending) into the live maps. The
    /// first occurrence of a word is its cheapest — that copy carries
    /// the path metadata; later copies are the stale bucket entries the
    /// lazy decrease-key rule leaves behind, kept in the bucket lists (as
    /// the existing entry's handle) so resumed expansion is bit-identical
    /// to a never-snapshotted engine. Returns the section's length in
    /// bytes.
    pub(crate) fn merge_into<W: SearchWidth>(
        self,
        seen: &mut ShardedSeen<W::Word>,
        pending: &mut BTreeMap<u32, Vec<Handle>>,
    ) -> u64 {
        seen.reserve(self.unique);
        let mut r = Reader::new(&self.image[self.section.clone()]);
        for _ in 0..self.buckets {
            let (cost, words, gates) =
                bucket_blocks(&mut r, self.domain_len).expect("validated at load");
            let mut bucket = Vec::with_capacity(gates.len());
            for (word, &gate) in words.chunks_exact(self.domain_len).zip(gates) {
                bucket.push(seen.intern(W::Word::from_slice(word), Meta { cost, gate }));
            }
            pending.insert(cost, bucket);
        }
        self.section.len() as u64
    }
}

// ---------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------

impl<W: SearchWidth> SearchEngine<W> {
    /// Serializes the engine's warm state to `path` durably: a
    /// per-process-unique temp sibling is written and fsynced, any
    /// intact existing snapshot is rotated to `.bak`, the temp is
    /// renamed into place, and the parent directory is fsynced so the
    /// rename survives a crash. A failure mid-save leaves the previous
    /// state loadable (via the primary or its `.bak`).
    ///
    /// Takes `&mut self` because a settled top level must be expanded
    /// first, and an engine loaded from a version 1 file must merge its
    /// deferred frontier (see the module docs).
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
    /// from a current-version snapshot that has taken no level step since
    /// returns the loaded buffer itself, shared, without serializing
    /// (see the module docs).
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
        let standard_engine = SearchEngine::<W>::try_with_threads(standard, self.model, 1)
            .map_err(|err| SnapshotError::LibraryMismatch(err.to_string()))?;
        if library_fingerprint(&standard_engine.library_tables()) != fingerprint {
            return Err(SnapshotError::LibraryMismatch(format!(
                "engine library differs from GateLibrary::standard({wires}); \
                 only standard libraries can be snapshotted"
            )));
        }
        let domain_len = self.library.domain().len();
        let binary_len = self.binary0.len();

        // Core section: levels (words, traces, path gates) with their
        // classes nested in the level that founded them.
        self.probe.on(|p| p.snapshot_section_started("core_save"));
        let mut core = Vec::new();
        let mut class_total = 0u64;
        for k in 0..self.levels.len() {
            let handles = &self.levels[k];
            put_u32(&mut core, handles.len() as u32);
            for &handle in handles {
                core.extend_from_slice(self.seen.key(handle).as_slice());
            }
            for &trace in &self.level_traces[k] {
                trace.write_le(&mut core);
            }
            for &handle in handles {
                core.push(self.seen.meta(handle).gate);
            }
            let class_keys = &self.class_levels[k];
            put_u32(&mut core, class_keys.len() as u32);
            class_total += class_keys.len() as u64;
            for key in class_keys {
                let class = &self.classes[key];
                debug_assert_eq!(class.cost, k as u32);
                core.extend_from_slice(key.as_slice());
                put_u32(&mut core, class.witnesses.len() as u32);
                for witness in &class.witnesses {
                    core.extend_from_slice(witness.as_slice());
                }
            }
        }

        self.probe
            .on(|p| p.snapshot_section_finished("core_save", core.len() as u64));

        // Frontier section: the pending Dijkstra buckets, in order
        // (words then gates per bucket — see `bucket_blocks`).
        self.probe
            .on(|p| p.snapshot_section_started("frontier_save"));
        let mut frontier = Vec::new();
        for (&cost, bucket) in &self.pending {
            put_u32(&mut frontier, cost);
            put_u64(&mut frontier, bucket.len() as u64);
            for &handle in bucket {
                frontier.extend_from_slice(self.seen.key(handle).as_slice());
            }
            for &handle in bucket {
                frontier.push(self.seen.meta(handle).gate);
            }
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
            completed: self.completed,
            a_size: self.seen.len() as u64,
            level_count: self.levels.len() as u32,
            class_count: class_total,
            frontier_buckets: self.pending.len() as u32,
            frontier_unique: (self.seen.len() - completed_words) as u64,
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
    /// Loads a snapshot, resolving the thread count like
    /// [`SearchEngine::new`] (`MVQ_THREADS`, then the available
    /// parallelism).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: I/O failure, bad magic, unsupported
    /// version, truncation, checksum mismatch, structural corruption, a
    /// width mismatch against this engine's [`SearchWidth`], or a
    /// library this build cannot reconstruct.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::load_snapshot_with_threads(path, par::resolve_threads(None))
    }

    /// [`Self::load_snapshot`] with an explicit degree of parallelism.
    ///
    /// # Errors
    ///
    /// See [`Self::load_snapshot`].
    pub fn load_snapshot_with_threads(
        path: impl AsRef<Path>,
        threads: usize,
    ) -> Result<Self, SnapshotError> {
        mvq_fault::point!(
            "snapshot.load",
            return Err(corrupt("injected snapshot.load fault"))
        );
        let image = read_image(path.as_ref())?;
        Self::load_snapshot_from_bytes_with_probe(image, threads, ProbeHandle::none())
    }

    /// [`Self::load_snapshot_with_threads`] with last-good fallback:
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
        threads: usize,
    ) -> Result<(Self, SnapshotSource), SnapshotError> {
        let path = path.as_ref();
        let primary_error = match Self::load_snapshot_with_threads(path, threads) {
            Ok(engine) => return Ok((engine, SnapshotSource::Primary)),
            Err(err) => err,
        };
        let missing =
            matches!(&primary_error, SnapshotError::Io(io) if io.kind() == io::ErrorKind::NotFound);
        if !primary_error.is_corruption() && !missing {
            return Err(primary_error);
        }
        match Self::load_snapshot_with_threads(snapshot_backup_path(path), threads) {
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
    pub fn load_snapshot_from_bytes(bytes: &[u8], threads: usize) -> Result<Self, SnapshotError> {
        Self::load_snapshot_from_bytes_with_probe(bytes, threads, ProbeHandle::none())
    }

    /// [`Self::load_snapshot_from_bytes`] with an observability probe
    /// installed up front, so the load itself reports its section
    /// timings (the probe stays installed on the returned engine).
    ///
    /// Pass a [`SnapshotImage`] to share the buffer: the engine reads its
    /// deferred frontier from it and keeps it as its image (see the
    /// module docs). A borrowed slice is copied into a new buffer once.
    ///
    /// # Errors
    ///
    /// See [`Self::load_snapshot`].
    pub fn load_snapshot_from_bytes_with_probe(
        image: impl Into<SnapshotImage>,
        threads: usize,
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
        if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
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
        let header = Header::parse(header_bytes, version)?;
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
        let threads = threads.max(1);
        let mut engine = SearchEngine::<W>::try_with_threads(library, model, threads)
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
        let binary_len = header.binary_len as usize;
        let gate_count = engine.gate_images.len();

        // Core section → levels, traces, path metadata, classes.
        let completed_words = usize_of(
            header
                .a_size
                .checked_sub(header.frontier_unique)
                .ok_or_else(|| corrupt("frontier word count exceeds |A|"))?,
            "completed word",
        )?;
        engine.seen = ShardedSeen::for_threads(threads);
        engine.seen.reserve(completed_words);
        engine.pending = BTreeMap::new();
        engine.levels = Vec::with_capacity(header.level_count as usize);
        engine.level_traces = Vec::with_capacity(header.level_count as usize);
        engine.trace_index = Vec::with_capacity(header.level_count as usize);
        engine.class_levels = Vec::with_capacity(header.level_count as usize);
        engine.g_counts = Vec::with_capacity(header.level_count as usize);
        engine.b_counts = Vec::with_capacity(header.level_count as usize);
        engine.probe.on(|p| p.snapshot_section_started("core_load"));
        let mut r = Reader::new(core);
        let mut class_total = 0u64;
        let read_word = |r: &mut Reader<'_>, len: usize| -> Result<W::Word, SnapshotError> {
            let bytes = r.take(len)?;
            if bytes.iter().any(|&b| b as usize >= domain_len) {
                return Err(corrupt("word image outside the domain"));
            }
            Ok(W::Word::from_slice(bytes))
        };
        for k in 0..header.level_count {
            let count = r.u32()? as usize;
            let word_block = r.take(
                count
                    .checked_mul(domain_len)
                    .ok_or_else(|| corrupt("level size overflows"))?,
            )?;
            if !all_bytes_below(word_block, domain_len) {
                return Err(corrupt("level word image outside the domain"));
            }
            let mut traces = Vec::with_capacity(count);
            for _ in 0..count {
                traces.push(W::Trace::read_le(r.take(W::Trace::BYTES)?));
            }
            let mut handles = Vec::with_capacity(count);
            for word in word_block.chunks_exact(domain_len) {
                let gate = r.u8()?;
                if gate != NO_GATE && gate as usize >= gate_count {
                    return Err(corrupt(format!("level path gate {gate} out of range")));
                }
                handles.push(
                    engine
                        .seen
                        .intern(W::Word::from_slice(word), Meta { cost: k, gate }),
                );
            }
            let class_count = r.u32()? as usize;
            class_total += class_count as u64;
            let mut class_keys = Vec::with_capacity(class_count);
            for _ in 0..class_count {
                let key = read_word(&mut r, binary_len)?;
                let witness_count = r.u32()? as usize;
                if witness_count == 0 {
                    return Err(corrupt("class without witnesses"));
                }
                let mut witnesses = Vec::with_capacity(witness_count);
                for _ in 0..witness_count {
                    witnesses.push(read_word(&mut r, domain_len)?);
                }
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
            engine.levels.push(handles);
            engine.level_traces.push(traces);
            engine.trace_index.push(None);
            engine.class_levels.push(class_keys);
        }
        r.finish("core")?;
        if class_total != header.class_count {
            return Err(corrupt(format!(
                "header declares {} classes, core section holds {class_total}",
                header.class_count
            )));
        }
        if engine.seen.len() != completed_words {
            return Err(corrupt(format!(
                "level tables hold {} distinct words, header accounts for {completed_words}",
                engine.seen.len()
            )));
        }
        match (header.completed, header.level_count) {
            (None, 0) => {}
            (Some(c), n) if u64::from(n) == u64::from(c) + 1 => {}
            _ => return Err(corrupt("completed level disagrees with the level count")),
        }
        engine.completed = header.completed;
        engine
            .probe
            .on(|p| p.snapshot_section_finished("core_load", core.len() as u64));

        // Frontier section: validate now, merge on the first level step.
        engine
            .probe
            .on(|p| p.snapshot_section_started("frontier_load"));
        DeferredFrontier::validate(frontier, &header, gate_count)?;
        let frontier_start = body_start + core_len;
        engine.deferred_frontier = (header.frontier_buckets > 0).then(|| DeferredFrontier {
            image: image.clone(),
            section: frontier_start..frontier_start + frontier_len,
            buckets: header.frontier_buckets,
            unique: usize_of(header.frontier_unique, "frontier word").unwrap_or(0),
            domain_len,
        });
        engine
            .probe
            .on(|p| p.snapshot_section_finished("frontier_load", frontier.len() as u64));
        // A version 1 file re-serializes as version 2, so only a
        // current-version file is the engine's image.
        engine.image = (version == SNAPSHOT_VERSION).then_some(image);
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
        let mut e = SynthesisEngine::unit_cost_with_threads(1);
        e.expand_to_cost(depth);
        e
    }

    #[test]
    fn roundtrip_preserves_levels_and_classes() {
        let mut original = warm(4);
        let bytes = original.snapshot_to_bytes().unwrap();
        let loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
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
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
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
        let mut resumed = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
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
        let mut original = SynthesisEngine::with_threads(
            GateLibrary::standard(3),
            CostModel::weighted(1, 2, 3),
            1,
        );
        original.expand_to_cost(5);
        let bytes = original.snapshot_to_bytes().unwrap();
        let loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
        assert_eq!(loaded.cost_model().weights(), (1, 2, 3));
        assert_eq!(original.g_counts(), loaded.g_counts());
        assert_eq!(original.b_counts(), loaded.b_counts());
    }

    #[test]
    fn unexpanded_engine_roundtrips() {
        let mut fresh = SynthesisEngine::unit_cost_with_threads(1);
        let bytes = fresh.snapshot_to_bytes().unwrap();
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
        assert_eq!(loaded.a_size(), 1); // the identity, still pending
        assert_eq!(loaded.completed_cost(), None);
        loaded.expand_to_cost(2);
        let mut reference = SynthesisEngine::unit_cost_with_threads(1);
        reference.expand_to_cost(2);
        assert_eq!(reference.g_counts(), loaded.g_counts());
        assert_eq!(reference.a_size(), loaded.a_size());
    }

    #[test]
    fn bad_magic_is_not_a_snapshot() {
        let err = SynthesisEngine::load_snapshot_from_bytes(b"definitely not", 1).unwrap_err();
        assert!(matches!(err, SnapshotError::NotASnapshot), "{err}");
        let err = SynthesisEngine::load_snapshot_from_bytes(b"", 1).unwrap_err();
        assert!(matches!(err, SnapshotError::NotASnapshot), "{err}");
    }

    #[test]
    fn wrong_version_is_reported() {
        let mut bytes = warm(1).snapshot_to_bytes().unwrap().to_vec();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
        let err = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap_err();
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion(99)),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_reported() {
        let bytes = warm(2).snapshot_to_bytes().unwrap();
        for cut in [bytes.len() / 2, bytes.len() - 1, 20] {
            let err = SynthesisEngine::load_snapshot_from_bytes(&bytes[..cut], 1).unwrap_err();
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
            let err = SynthesisEngine::load_snapshot_from_bytes(&corrupted, 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::ChecksumMismatch(_) | SnapshotError::Corrupt(_)
                ),
                "offset {offset}: {err}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = warm(1).snapshot_to_bytes().unwrap().to_vec();
        bytes.extend_from_slice(b"junk");
        let err = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn two_wire_snapshot_roundtrips() {
        let mut original =
            SynthesisEngine::with_threads(GateLibrary::standard(2), CostModel::unit(), 1);
        original.expand_to_cost(3);
        let bytes = original.snapshot_to_bytes().unwrap();
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
        let target: mvq_perm::Perm = "(3,4)".parse::<mvq_perm::Perm>().unwrap().extended(4);
        assert_eq!(loaded.minimal_cost(&target, 3), Some(1));
    }

    #[test]
    fn wide_engine_snapshot_roundtrips() {
        let mut original =
            WideSynthesisEngine::with_threads(GateLibrary::standard(4), CostModel::unit(), 1);
        original.expand_to_cost(2);
        let bytes = original.snapshot_to_bytes().unwrap();
        let mut loaded = WideSynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
        assert_eq!(original.g_counts(), loaded.g_counts());
        assert_eq!(original.b_counts(), loaded.b_counts());
        assert_eq!(original.a_size(), loaded.a_size());
        // Resumed expansion matches a never-snapshotted engine.
        let mut reference =
            WideSynthesisEngine::with_threads(GateLibrary::standard(4), CostModel::unit(), 1);
        reference.expand_to_cost(3);
        loaded.expand_to_cost(3);
        assert_eq!(reference.g_counts(), loaded.g_counts());
        assert_eq!(reference.a_size(), loaded.a_size());
    }

    #[test]
    fn width_mismatch_is_a_typed_error() {
        // A wide snapshot offered to the narrow engine (and vice versa)
        // fails with WidthMismatch, not a misparse.
        let mut wide =
            WideSynthesisEngine::with_threads(GateLibrary::standard(4), CostModel::unit(), 1);
        wide.expand_to_cost(1);
        let wide_bytes = wide.snapshot_to_bytes().unwrap();
        let err = SynthesisEngine::load_snapshot_from_bytes(&wide_bytes, 1).unwrap_err();
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
        let err = WideSynthesisEngine::load_snapshot_from_bytes(&narrow_bytes, 1).unwrap_err();
        assert!(matches!(err, SnapshotError::WidthMismatch { .. }), "{err}");
    }

    /// This build only writes v2, so the documented v1 contract is
    /// locked with a synthesized v1 byte stream: strip the 3 width bytes
    /// from a narrow v2 header and patch version/framing/checksum.
    fn as_version_1(v2: &[u8]) -> Vec<u8> {
        let header_len = u32::from_le_bytes(v2[12..16].try_into().unwrap()) as usize;
        let header_start = 16;
        let v1_header = &v2[header_start..header_start + header_len - 3];
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&((header_len - 3) as u32).to_le_bytes());
        v1.extend_from_slice(v1_header);
        v1.extend_from_slice(&checksum64(v1_header).to_le_bytes());
        v1.extend_from_slice(&v2[header_start + header_len + 8..]);
        v1
    }

    #[test]
    fn version_1_files_still_load_as_narrow() {
        let mut original = warm(3);
        let v1 = as_version_1(&original.snapshot_to_bytes().unwrap());

        let loaded = SynthesisEngine::load_snapshot_from_bytes(&v1, 1).unwrap();
        assert_eq!(original.g_counts(), loaded.g_counts());
        assert_eq!(original.b_counts(), loaded.b_counts());
        assert_eq!(original.a_size(), loaded.a_size());

        // The v1 widths are implicitly narrow: the wide engine refuses.
        let err = WideSynthesisEngine::load_snapshot_from_bytes(&v1, 1).unwrap_err();
        assert!(matches!(err, SnapshotError::WidthMismatch { .. }), "{err}");
    }

    #[test]
    fn version_1_load_keeps_no_image_and_writes_version_2() {
        let v2 = warm(3).snapshot_to_bytes().unwrap();
        let v1 = SnapshotImage::from(&as_version_1(&v2)[..]);
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes_with_probe(
            v1.clone(),
            1,
            ProbeHandle::none(),
        )
        .unwrap();
        assert!(loaded.image.is_none());
        assert!(loaded.deferred_frontier.is_some());
        assert_eq!(loaded.snapshot_to_bytes().unwrap(), v2);
        // The frontier is merged and released; nothing holds the v1 file.
        assert_eq!(SnapshotImage::handle_count(&v1), 1);
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
    fn version_2_is_written() {
        let bytes = warm(1).snapshot_to_bytes().unwrap();
        let version = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
        assert_eq!(version, SNAPSHOT_VERSION);
        assert_eq!(version, 2);
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
