//! Level expansion for the FMCF frontiers, serial or sharded.
//!
//! Each Dijkstra level of the search — the forward word frontier of
//! [`crate::SynthesisEngine`] and the backward S-trace frontier of the
//! meet-in-the-middle join — expands its bucket of frontier elements
//! through the gate library. Successor *generation* is embarrassingly
//! parallel per element; successor *insertion* into the `seen` map is
//! where naive parallelism dies: one shared map means one lock.
//!
//! `seen` itself ([`crate::seen`]) is built for that insert-heavy
//! probe pattern: each key is hashed once ([`ShardKey::table_hash`]),
//! and expansion generates successors a batch at a time so their home
//! slots can be prefetched before they are admitted in order
//! ([`expand_inline`]).
//!
//! A frontier hands its successors to this module through an [`Emit`]
//! sink: its `generate` callback pushes `(key, cost, gate)` records, with
//! the key's table hash attached or computed on push, into a reused
//! buffer. **Emit order is the sequence order phase 2 adjudicates in**
//! (step 3 below): the inline loop admits the buffer front to back, and
//! the sharded pipeline numbers each element's records in emit order. A
//! `generate` that changes the order it pushes in therefore changes the
//! pending buckets, even though the set of successors is the same. The
//! forward engine fills the sink from
//! [`Packed::map_hash`](crate::Packed::map_hash), which maps a word
//! through a gate and hashes it in the same 8-byte lanes. It writes the
//! same bytes as [`Packed::map_through`](crate::Packed::map_through)
//! and folds them exactly as [`ShardKey::table_hash`] does, so the hash
//! it attaches is the one `push` would have computed; debug builds
//! assert this on every push.
//!
//! Admission returns the [`Handle`] of the entry it created or lowered,
//! and the pending cost buckets of both frontiers hold handles.
//!
//! The machinery here keeps the insert phase parallel **and** the
//! results bit-identical to the serial engine:
//!
//! 1. the `seen` map is split into `S` shards by the top bits of the
//!    key's table hash ([`ShardedSeen`]);
//! 2. workers generate successors for disjoint contiguous chunks of the
//!    bucket, tagging each with a global sequence number and routing it
//!    into a per-worker, per-shard local buffer (rendezvous by hash; no
//!    locks, no contention);
//! 3. workers then swap roles — each owns a contiguous shard range and
//!    drains every chunk's buffer for its shards *in sequence order*,
//!    applying exactly the serial insert-or-decrease-key rule;
//! 4. accepted pushes — 16-byte `(sequence, cost, handle)` records — are
//!    merged back across shards by sequence number, so the pending cost
//!    buckets end up holding precisely the handles, in precisely the
//!    order, that the serial loop would have produced.
//!
//! Because a key always hashes to the same shard, every discovery of a
//! word is adjudicated in one shard, in serial order; because the merge
//! restores the global sequence, every downstream structure (levels,
//! traces, class witnesses, Dijkstra's lazy decrease-key buckets) is
//! byte-for-byte identical for any thread count.
//!
//! Whether a step runs serially or sharded is decided here, once, by
//! [`par_chunks`] (and by [`expand_bucket`] with the same rule): any
//! bucket too small to give two workers [`MIN_ITEMS_PER_WORKER`]
//! elements each runs inline on the calling thread, and that includes
//! every bucket of a 1-thread engine. The frontiers therefore make one
//! unconditional call per phase — [`par_filter`] for the stale-copy
//! drop, [`par_map`] for per-element preparation, [`expand_bucket`] for
//! successor expansion, and [`par_chunks`] directly for the
//! meet-in-the-middle join.

use std::cmp::Reverse;
use std::collections::{btree_map, BTreeMap, BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use mvq_obs::ProbeHandle;

use crate::seen::{make_handle, Handle, SeenTable, ShardedSeen};
use crate::width::ShardKey;

/// Smallest number of items worth handing to a worker: a bucket shards
/// only from `2 × MIN_ITEMS_PER_WORKER` elements up, below which thread
/// hand-off latency would dominate.
const MIN_ITEMS_PER_WORKER: usize = 64;

/// Bucket elements processed per rendezvous block. Successor records are
/// materialized one block at a time, keeping peak memory flat even for
/// multi-million-word levels (a block holds at most
/// `BLOCK_ITEMS × |library|` records).
const BLOCK_ITEMS: usize = 1 << 16;

/// Resolves the degree of parallelism for level expansion.
///
/// Priority: an explicit `requested` value, then the `MVQ_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
/// The result is always at least 1.
///
/// # Examples
///
/// ```
/// use mvq_core::resolve_threads;
///
/// assert_eq!(resolve_threads(Some(4)), 4);
/// assert!(resolve_threads(None) >= 1);
/// ```
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(text) = std::env::var("MVQ_THREADS") {
        if let Ok(n) = text.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A batch task after lifetime erasure (see [`WorkerPool::run`]).
type Task = Box<dyn FnOnce() + Send>;

/// One `WorkerPool::run` call's completion state.
struct Batch {
    /// Tasks enqueued but not yet finished executing.
    remaining: Mutex<usize>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
    /// A task panicked; the submitting caller re-panics after the batch
    /// drains (panics never cross thread boundaries silently).
    panicked: AtomicBool,
}

/// The queue shared between submitters and workers.
struct PoolQueue {
    tasks: VecDeque<(Arc<Batch>, Task)>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled when tasks are enqueued or shutdown is requested.
    work_ready: Condvar,
}

/// The lazily-spawned worker threads and their shared queue.
struct PoolInner {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

/// A persistent worker pool for level expansion: `threads − 1` OS
/// threads spawned once (lazily, on the first parallel batch) plus the
/// submitting caller, replacing the per-level `thread::scope` spawns so
/// hot paths — notably the serve loop, which expands and joins levels on
/// every cache miss — never pay thread-creation latency.
///
/// Batches may be submitted concurrently from `&self` (the engine's
/// read-path queries share one pool); the caller helps execute queued
/// tasks, then blocks until its own batch completes. Task panics are
/// caught, recorded, and re-raised on the submitting thread after the
/// batch drains, so a poisoned closure cannot strand other batches.
pub(crate) struct WorkerPool {
    threads: usize,
    inner: OnceLock<PoolInner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("spawned", &self.inner.get().is_some())
            .finish()
    }
}

impl WorkerPool {
    /// A pool targeting `threads` total workers (including the caller).
    /// No OS threads are spawned until the first parallel batch runs.
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            inner: OnceLock::new(),
        }
    }

    /// The pool's degree of parallelism (caller included).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    fn inner(&self) -> &PoolInner {
        self.inner.get_or_init(|| {
            let shared = Arc::new(PoolShared {
                queue: Mutex::new(PoolQueue {
                    tasks: VecDeque::new(),
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
            });
            let workers = (1..self.threads)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(&shared))
                })
                .collect();
            PoolInner { shared, workers }
        })
    }

    /// Runs `tasks` to completion across the pool (the caller executes
    /// tasks too). Returns only after every task has finished and been
    /// dropped; re-panics if any task panicked.
    ///
    /// Tasks may borrow caller-local data: the completion wait is what
    /// makes the internal lifetime erasure sound.
    pub(crate) fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        mvq_fault::point!("pool.task");
        if self.threads <= 1 || tasks.len() <= 1 {
            for task in tasks {
                task();
            }
            return;
        }
        let inner = self.inner();
        let batch = Arc::new(Batch {
            remaining: Mutex::new(tasks.len()),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        #[allow(unsafe_code)]
        let erased: Vec<Task> = tasks
            .into_iter()
            .map(|task| {
                // SAFETY: `run` does not return until `remaining` hits
                // zero, i.e. every erased task has been executed
                // (consuming its `Box`) or dropped on a panic path inside
                // `execute_task`; either way no task — and no borrow it
                // captured — outlives the `run` stack frame. `Box<dyn
                // FnOnce + Send + 'scope>` and the `'static` form are
                // layout-identical fat pointers differing only in the
                // lifetime bound being erased.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) }
            })
            .collect();
        {
            // lint: allow(panic) pool mutexes cannot poison: tasks run under catch_unwind
            let mut queue = inner.shared.queue.lock().expect("pool queue intact");
            for task in erased {
                queue.tasks.push_back((Arc::clone(&batch), task));
            }
        }
        inner.shared.work_ready.notify_all();
        // Help: drain queued tasks (any batch) until the queue is empty.
        loop {
            let entry = {
                // lint: allow(panic) pool mutexes cannot poison: tasks run under catch_unwind
                let mut queue = inner.shared.queue.lock().expect("pool queue intact");
                queue.tasks.pop_front()
            };
            match entry {
                Some((owner, task)) => execute_task(&owner, task),
                None => break,
            }
        }
        // Wait for stragglers still executing this batch's tasks.
        // lint: allow(panic) pool mutexes cannot poison: tasks run under catch_unwind
        let mut remaining = batch.remaining.lock().expect("batch counter intact");
        while *remaining > 0 {
            // lint: allow(panic) condvar wait only fails on poison, excluded by catch_unwind
            remaining = batch.done.wait(remaining).expect("batch counter intact");
        }
        drop(remaining);
        assert!(
            !batch.panicked.load(Ordering::Relaxed),
            "worker pool task panicked"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            {
                let mut queue = inner.shared.queue.lock().expect("pool queue intact");
                queue.shutdown = true;
            }
            inner.shared.work_ready.notify_all();
            for worker in inner.workers {
                let _ = worker.join();
            }
        }
    }
}

fn execute_task(batch: &Batch, task: Task) {
    if catch_unwind(AssertUnwindSafe(task)).is_err() {
        batch.panicked.store(true, Ordering::Relaxed);
    }
    // lint: allow(panic) pool mutexes cannot poison: tasks run under catch_unwind
    let mut remaining = batch.remaining.lock().expect("batch counter intact");
    *remaining -= 1;
    if *remaining == 0 {
        drop(remaining);
        batch.done.notify_all();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let entry = {
            // lint: allow(panic) pool mutexes cannot poison: tasks run under catch_unwind
            let mut queue = shared.queue.lock().expect("pool queue intact");
            loop {
                if let Some(entry) = queue.tasks.pop_front() {
                    break Some(entry);
                }
                if queue.shutdown {
                    break None;
                }
                // lint: allow(panic) condvar wait only fails on poison, excluded by catch_unwind
                queue = shared.work_ready.wait(queue).expect("pool queue intact");
            }
        };
        match entry {
            Some((batch, task)) => execute_task(&batch, task),
            None => return,
        }
    }
}

/// Shard count for a worker count: 1 for serial engines (no shard-hash
/// overhead), otherwise a few shards per worker so the contiguous
/// phase-2 ranges stay balanced, capped at 64.
pub(crate) fn shard_count_for(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        (threads * 4).next_power_of_two().min(64)
    }
}

/// How many workers `items` bucket elements are worth: at most
/// `threads`, and never fewer than [`MIN_ITEMS_PER_WORKER`] items each.
fn workers_for(threads: usize, items: usize) -> usize {
    threads.min(items / MIN_ITEMS_PER_WORKER).max(1)
}

/// Runs `f(start, end)` over a contiguous near-equal partition of
/// `0..len`, one chunk per worker, and returns the results in chunk
/// order.
///
/// This is where every frontier step decides between serial and sharded
/// work: when `len` cannot give two workers [`MIN_ITEMS_PER_WORKER`]
/// items each (which includes every call on a 1-thread pool), it
/// returns `vec![f(0, len)]`, computed on the calling thread.
pub(crate) fn par_chunks<R, F>(pool: &WorkerPool, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let workers = workers_for(pool.threads(), len);
    if workers <= 1 {
        return vec![f(0, len)];
    }
    let f = &f;
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(workers, || None);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
        .iter_mut()
        .enumerate()
        .map(|(w, slot)| {
            let (start, end) = (len * w / workers, len * (w + 1) / workers);
            Box::new(move || *slot = Some(f(start, end))) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run(tasks);
    // `run` returns only once every task has filled its slot.
    results.into_iter().flatten().collect()
}

/// Order-preserving map over [`par_chunks`]: the output is identical to
/// `items.iter().enumerate().map(f)` for any thread count. The chunks'
/// outputs are appended to the first one's, so an inline run returns
/// its vector without a copy.
pub(crate) fn par_map<T, U, F>(pool: &WorkerPool, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let mut parts = par_chunks(pool, items.len(), |start, end| {
        items[start..end]
            .iter()
            .enumerate()
            .map(|(i, t)| f(start + i, t))
            .collect::<Vec<U>>()
    })
    .into_iter();
    let mut out = parts.next().unwrap_or_default();
    for part in parts {
        out.extend(part);
    }
    out
}

/// Order-preserving filter, in place (used for the lazy decrease-key
/// stale-copy drop at the head of every level). Chunks only collect the
/// indices of items to drop, which are rare, so a level with no stale
/// copies neither allocates nor moves an item.
pub(crate) fn par_filter<T, P>(pool: &WorkerPool, mut items: Vec<T>, keep: P) -> Vec<T>
where
    T: Sync,
    P: Fn(&T) -> bool + Sync,
{
    let drops: Vec<Vec<usize>> = par_chunks(pool, items.len(), |start, end| {
        (start..end).filter(|&i| !keep(&items[i])).collect()
    });
    let mut drops = drops.into_iter().flatten().peekable();
    if drops.peek().is_some() {
        let mut index = 0;
        items.retain(|_| {
            let dropped = drops.next_if_eq(&index).is_some();
            index += 1;
            !dropped
        });
    }
    items
}

/// Estimated fresh `seen` insertions a level will make, extrapolated
/// from the frontier's measured growth factor (`bucket² / previous`).
/// Reserving this up front kills the rehash churn of growing a
/// multi-million-entry map through ~20 doublings.
pub(crate) fn growth_hint(bucket_len: usize, prev_len: usize, max_factor: usize) -> usize {
    let estimate = bucket_len
        .saturating_mul(bucket_len)
        .checked_div(prev_len)
        .unwrap_or_else(|| bucket_len.saturating_mul(4));
    estimate.clamp(bucket_len, bucket_len.saturating_mul(max_factor.max(1)))
}

/// One generated successor with its table hash, computed once and used
/// for shard routing, the prefetch, and admission.
#[derive(Clone, Copy)]
struct Successor<K> {
    key: K,
    hash: u64,
    cost: u32,
    gate: u8,
}

/// The sink a frontier's `generate` callback pushes successors into: a
/// reused buffer of `(key, hash, cost, gate)` records.
///
/// Emit order is adjudication order. The inline loop admits the buffer
/// front to back, and the sharded pipeline numbers each element's
/// records in emit order, so the sequence phase 2 adjudicates in — and
/// with it every pending bucket — follows the order `generate` pushed.
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

/// A successor tagged with its global generation sequence number
/// (`bucket index << 16 | emit index`) for deterministic adjudication
/// and merge.
#[derive(Clone, Copy)]
struct Generated<K> {
    seq: u64,
    successor: Successor<K>,
}

/// A successor accepted into a pending bucket (new or decrease-key),
/// by the handle of its `seen` entry.
#[derive(Clone, Copy)]
struct Pushed {
    seq: u64,
    cost: u32,
    handle: Handle,
}

/// One bucket's expansion: the accepted pushes per cost, as `seen`
/// handles in admission order, and how many successors were generated
/// (a deterministic work count: the same for every thread count).
pub(crate) struct Expansion {
    pub(crate) pushes: BTreeMap<u32, Vec<Handle>>,
    pub(crate) generated: u64,
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

/// Bucket elements whose successors the inline loop generates, and
/// whose home slots it prefetches, before admitting any of them.
const INLINE_BATCH: usize = 16;

/// How many records ahead phase-2 adjudication prefetches home slots.
const PREFETCH_DISTANCE: usize = 8;

/// Expands one frontier bucket on the calling thread: calls
/// `generate(index, element, emit)` for every bucket element, admits
/// every emitted successor into `seen` under [`SeenTable::admit`], and
/// returns the accepted pushes per cost in admission order.
///
/// Elements are taken [`INLINE_BATCH`] at a time: their successors are
/// emitted into one reused [`Emit`] buffer, each element's successors
/// have their home slots prefetched right after it is generated, and
/// then the buffer is admitted in emit order — so the outcome is exactly
/// that of admitting each successor as it is generated, with the slot
/// cache misses overlapped.
fn expand_inline<K, G>(
    bucket: &[K],
    seen: &mut ShardedSeen<K>,
    expected_new: usize,
    generate: G,
) -> Expansion
where
    K: ShardKey,
    G: Fn(usize, &K, &mut Emit<K>),
{
    seen.reserve(expected_new);
    let mut lists: Vec<(u32, Vec<Handle>)> = Vec::new();
    let mut generated = 0u64;
    let mut emit = Emit::new();
    for (block_idx, block) in bucket.chunks(INLINE_BATCH).enumerate() {
        emit.successors.clear();
        for (offset, element) in block.iter().enumerate() {
            let start = emit.successors.len();
            generate(block_idx * INLINE_BATCH + offset, element, &mut emit);
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
    Expansion {
        pushes: lists.into_iter().collect(),
        generated,
    }
}

/// Appends one level's pushes to the pending cost buckets, in order
/// after whatever each bucket already holds. Returns how many handles
/// were pushed.
pub(crate) fn append_pushes(
    pending: &mut BTreeMap<u32, Vec<Handle>>,
    pushes: BTreeMap<u32, Vec<Handle>>,
) -> u64 {
    let mut pushed = 0u64;
    for (cost, handles) in pushes {
        pushed += handles.len() as u64;
        match pending.entry(cost) {
            btree_map::Entry::Vacant(bucket) => {
                bucket.insert(handles);
            }
            btree_map::Entry::Occupied(mut bucket) => bucket.get_mut().extend(handles),
        }
    }
    pushed
}

/// Expands one frontier bucket: calls `generate(index, element, emit)`
/// for every bucket element, inserts every successor it pushes into the
/// [`Emit`] sink into `seen` under the serial insert-or-decrease-key rule,
/// and returns the accepted pushes per cost — the same handles, in
/// exactly the order, [`expand_inline`] would have pushed — with the
/// number of successors generated.
///
/// A bucket too small for two workers (see [`par_chunks`]) runs through
/// [`expand_inline`] on the calling thread; any other runs the sharded
/// two-phase pipeline across the pool.
pub(crate) fn expand_bucket<K, G>(
    pool: &WorkerPool,
    bucket: &[K],
    seen: &mut ShardedSeen<K>,
    expected_new: usize,
    probe: &ProbeHandle,
    generate: G,
) -> Expansion
where
    K: ShardKey,
    G: Fn(usize, &K, &mut Emit<K>) + Sync,
{
    let workers = workers_for(pool.threads(), bucket.len());
    if workers <= 1 {
        return expand_inline(bucket, seen, expected_new, generate);
    }
    let shard_count = seen.shard_count();
    let bits = seen.bits();
    seen.reserve(expected_new);
    let mut staged: Vec<Vec<Pushed>> = (0..shard_count).map(|_| Vec::new()).collect();
    let mut generated = 0u64;

    for (block_idx, block) in bucket.chunks(BLOCK_ITEMS).enumerate() {
        let block_base = block_idx * BLOCK_ITEMS;

        // Phase 1 — generate: workers scan disjoint contiguous chunks,
        // emit each element's successors into a reused sink, and route
        // its contents, in emit order, into per-chunk, per-shard buffers.
        let seen_ro = &*seen;
        let buffers: Vec<Vec<Vec<Generated<K>>>> = par_chunks(pool, block.len(), |start, end| {
            let mut bufs: Vec<Vec<Generated<K>>> = (0..shard_count).map(|_| Vec::new()).collect();
            let mut emit = Emit::new();
            for (offset, element) in block[start..end].iter().enumerate() {
                let idx = block_base + start + offset;
                emit.successors.clear();
                generate(idx, element, &mut emit);
                debug_assert!(emit.successors.len() < (1 << 16), "seq tag overflow");
                for (emitted, &successor) in emit.successors.iter().enumerate() {
                    bufs[seen_ro.shard_index(successor.hash)].push(Generated {
                        seq: ((idx as u64) << 16) | emitted as u64,
                        successor,
                    });
                }
            }
            bufs
        });
        generated += buffers
            .iter()
            .flatten()
            .map(|buf| buf.len() as u64)
            .sum::<u64>();

        // Phase 2 — adjudicate: workers own contiguous shard ranges and
        // drain every chunk's buffer for their shards in chunk order.
        // Chunks are contiguous index ranges, so concatenating their
        // buffers visits a shard's records in global sequence order —
        // the serial adjudication order. Home slots are prefetched a
        // fixed distance ahead of the record being admitted.
        {
            let buffers = &buffers;
            let mut shard_slices: &mut [SeenTable<K>] = seen.shards_mut();
            let mut staged_slices: &mut [Vec<Pushed>] = &mut staged;
            let owners = workers.min(shard_count);
            let mut taken = 0usize;
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for owner in 0..owners {
                let end = shard_count * (owner + 1) / owners;
                let count = end - taken;
                let (own_shards, rest) = shard_slices.split_at_mut(count);
                shard_slices = rest;
                let (own_staged, rest) = staged_slices.split_at_mut(count);
                staged_slices = rest;
                let base = taken;
                taken = end;
                if count == 0 {
                    continue;
                }
                tasks.push(Box::new(move || {
                    for (offset, (shard, stage)) in
                        own_shards.iter_mut().zip(own_staged.iter_mut()).enumerate()
                    {
                        let shard_idx = base + offset;
                        for chunk_bufs in buffers {
                            let records = &chunk_bufs[shard_idx];
                            for (i, g) in records.iter().enumerate() {
                                if let Some(ahead) = records.get(i + PREFETCH_DISTANCE) {
                                    shard.prefetch(ahead.successor.hash);
                                }
                                let s = &g.successor;
                                if let Some(index) = shard.admit(s.key, s.hash, s.cost, s.gate) {
                                    stage.push(Pushed {
                                        seq: g.seq,
                                        cost: s.cost,
                                        handle: make_handle(index, shard_idx, bits),
                                    });
                                }
                            }
                        }
                    }
                }));
            }
            pool.run(tasks);
        }
    }

    if probe.is_set() {
        // Per-shard staged lengths expose how evenly the hash routed
        // this bucket's accepted pushes across shards.
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut total = 0u64;
        for stage in &staged {
            let n = stage.len() as u64;
            min = min.min(n);
            max = max.max(n);
            total += n;
        }
        probe.on(|p| p.bucket_sharded(min, max, total, staged.len() as u64));
    }
    Expansion {
        pushes: merge_staged(staged),
        generated,
    }
}

/// K-way merges the per-shard push lists (each already sequence-sorted)
/// back into global sequence order, bucketed by cost — reproducing the
/// serial loop's pending-bucket contents exactly.
fn merge_staged(staged: Vec<Vec<Pushed>>) -> BTreeMap<u32, Vec<Handle>> {
    let mut lists: Vec<(u32, Vec<Handle>)> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = staged
        .iter()
        .enumerate()
        .filter(|(_, pushes)| !pushes.is_empty())
        .map(|(shard, pushes)| Reverse((pushes[0].seq, shard)))
        .collect();
    let mut cursors = vec![0usize; staged.len()];
    while let Some(Reverse((_, shard))) = heap.pop() {
        let push = &staged[shard][cursors[shard]];
        push_by_cost(&mut lists, push.cost, push.handle);
        cursors[shard] += 1;
        if let Some(next) = staged[shard].get(cursors[shard]) {
            heap.push(Reverse((next.seq, shard)));
        }
    }
    lists.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    use crate::seen::Meta;

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn shard_counts() {
        assert_eq!(shard_count_for(1), 1);
        assert_eq!(shard_count_for(2), 8);
        assert_eq!(shard_count_for(4), 16);
        assert_eq!(shard_count_for(8), 32);
        assert_eq!(shard_count_for(64), 64);
    }

    /// Bucket lengths on both sides of the inline/sharded boundary
    /// (`2 × MIN_ITEMS_PER_WORKER` = 128 elements), plus a large one.
    const BOUNDARY_LENS: [usize; 6] = [0, 1, 127, 128, 129, 4000];

    /// Thread counts, including an odd one whose shards split unevenly.
    const TEST_THREADS: [usize; 5] = [1, 2, 3, 4, 8];

    #[test]
    fn par_map_preserves_order() {
        for len in BOUNDARY_LENS {
            let items: Vec<u64> = (0..len as u64).collect();
            for threads in TEST_THREADS {
                let pool = WorkerPool::new(threads);
                let doubled = par_map(&pool, &items, |i, &x| {
                    assert_eq!(i as u64, x);
                    x * 2
                });
                assert_eq!(doubled.len(), len, "len {len}, threads {threads}");
                assert!(doubled.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
            }
        }
    }

    #[test]
    fn par_filter_preserves_order() {
        for len in BOUNDARY_LENS {
            let items: Vec<u64> = (0..len as u64).collect();
            for threads in TEST_THREADS {
                let pool = WorkerPool::new(threads);
                let evens = par_filter(&pool, items.clone(), |&x| x % 2 == 0);
                let want: Vec<u64> = items.iter().copied().filter(|x| x % 2 == 0).collect();
                assert_eq!(evens, want, "len {len}, threads {threads}");
                assert_eq!(par_filter(&pool, items.clone(), |_| true), items);
            }
        }
    }

    #[test]
    fn pool_spawns_lazily_and_is_reusable() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        assert!(pool.inner.get().is_none(), "no batch yet, no threads");
        // Single-task batches run inline without spawning.
        let mut hit = false;
        pool.run(vec![Box::new(|| hit = true)]);
        assert!(hit);
        assert!(pool.inner.get().is_none());
        // A real batch spawns once; repeated batches reuse the workers.
        for round in 0..50u64 {
            let items: Vec<u64> = (0..1000).map(|i| i + round).collect();
            let sum: u64 = par_map(&pool, &items, |_, &x| x * 2).iter().sum();
            assert_eq!(sum, items.iter().sum::<u64>() * 2);
        }
        assert!(pool.inner.get().is_some());
        assert_eq!(pool.inner.get().unwrap().workers.len(), 3);
    }

    #[test]
    fn pool_runs_concurrent_batches_from_shared_ref() {
        // Read-path queries share the engine's pool via `&self`: batches
        // submitted from several threads at once must all complete.
        let pool = WorkerPool::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..20 {
                        let items: Vec<u64> = (0..500).map(|i| i * t + round).collect();
                        let got = par_map(pool, &items, |_, &x| x + 1);
                        assert!(got.iter().zip(&items).all(|(g, i)| *g == i + 1));
                    }
                });
            }
        });
    }

    #[test]
    fn pool_task_panic_propagates_to_submitter() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..4)
                .map(|i| Box::new(move || assert!(i != 2, "boom")) as Box<dyn FnOnce() + Send>)
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err(), "panic must reach the submitter");
        // The pool survives a panicked batch.
        let items: Vec<u64> = (0..1000).collect();
        assert_eq!(par_map(&pool, &items, |_, &x| x).len(), 1000);
    }

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

    /// Reference for `expand_inline` and `expand_bucket`: every successor
    /// emitted for the bucket, admitted into a `HashMap` in emit order.
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
        for len in BOUNDARY_LENS {
            let bucket: Vec<u64> = (0..len as u64).map(|i| i * 7919).collect();
            let mut reference_seen = HashMap::new();
            let reference = serial_reference(&bucket, &mut reference_seen);
            assert_eq!(reference.is_empty(), len == 0);
            for threads in TEST_THREADS {
                let pool = WorkerPool::new(threads);
                let mut seen: ShardedSeen<u64> = ShardedSeen::for_threads(threads);
                let probe = ProbeHandle::none();
                let expansion = expand_bucket(&pool, &bucket, &mut seen, 1000, &probe, generate);
                let case = format!("len {len}, threads {threads}");
                let pushes: BTreeMap<u32, Vec<u64>> = expansion
                    .pushes
                    .iter()
                    .map(|(&cost, handles)| (cost, handles.iter().map(|&h| seen.key(h)).collect()))
                    .collect();
                assert_eq!(pushes, reference, "{case}");
                assert_eq!(expansion.generated, 6 * len as u64, "{case}");
                for handles in expansion.pushes.values() {
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
}
