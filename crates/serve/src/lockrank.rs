//! Debug-build lock-order witnesses for the serve-side locks.
//!
//! Every lock in this crate carries a [`Rank`], and a per-thread stack
//! records the ranks currently held. Under `cfg(debug_assertions)` each
//! acquisition checks that its rank is **strictly greater** than the
//! rank on top of the stack — acquiring downward (or re-acquiring the
//! same rank) panics immediately with both lock names, turning a
//! would-be deadlock interleaving into a deterministic test failure on
//! *any* thread schedule that merely nests the locks wrongly, whether
//! or not a second thread was racing.
//!
//! The rank map (low acquires first):
//!
//! | rank | lock                                     |
//! |------|------------------------------------------|
//! | 10   | `HostRegistry::hosts` (registry tables)  |
//! | 15   | `EngineHost::recovery` (rebuild serializer) |
//! | 20   | `EngineHost::engine` (the `RwLock`)      |
//! | 30   | `EngineHost::flight` (single-flight)     |
//!
//! In release builds the wrappers compile to `#[repr(transparent)]`
//! pass-throughs over the `std::sync` primitives: no thread-local, no
//! stack, no branch — the witnesses cost nothing where the paper's
//! throughput numbers are measured.
//!
//! [`RankedCondvar::wait`] releases its mutex for the duration of the
//! wait, so the witness pops the rank before blocking and re-checks the
//! ordering when the lock is re-acquired.

use std::sync::{Condvar, LockResult, Mutex, MutexGuard, RwLock, TryLockResult};

#[cfg(debug_assertions)]
use std::sync::{PoisonError, TryLockError};

/// A position in the global acquisition order, plus a name for the
/// panic message.
///
/// Release builds discard the rank at lock construction, leaving both
/// fields unread there.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(debug_assertions), allow(dead_code))]
pub(crate) struct Rank {
    /// Acquisition order: a thread may only acquire strictly upward.
    pub order: u32,
    /// The lock's name as printed in inversion panics.
    pub name: &'static str,
}

/// `HostRegistry::hosts` — the registry's model tables.
pub(crate) const REGISTRY_RANK: Rank = Rank {
    order: 10,
    name: "registry.hosts",
};

/// `EngineHost::recovery` — serializes poisoned-engine rebuilds and
/// guards the last-good snapshot bytes. Sits between the registry and
/// the engine so a heal may run both from `stats()` (under the registry
/// lock) and from request paths, then acquire the engine lock upward.
pub(crate) const RECOVERY_RANK: Rank = Rank {
    order: 15,
    name: "host.recovery",
};

/// `EngineHost::engine` — the shared engine's readers-writer lock.
pub(crate) const ENGINE_RANK: Rank = Rank {
    order: 20,
    name: "host.engine",
};

/// `EngineHost::flight` — the single-flight bookkeeping mutex (and its
/// condvar).
pub(crate) const FLIGHT_RANK: Rank = Rank {
    order: 30,
    name: "host.flight",
};

#[cfg(debug_assertions)]
mod stack {
    //! The per-thread held-rank stack (debug builds only).

    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    /// Records an acquisition, panicking on a rank inversion. Called
    /// *before* blocking on the lock so the witness fires even on
    /// schedules where the deadlock would actually bite.
    pub(super) fn push(rank: Rank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(top) = held.last() {
                if top.order >= rank.order {
                    // lint: allow(panic) the witness's whole job is to panic on inversion
                    panic!(
                        "lock-order inversion: acquiring `{}` (rank {}) while holding \
                         `{}` (rank {}); locks must be acquired in ascending rank",
                        rank.name, rank.order, top.name, top.order
                    );
                }
            }
            held.push(rank);
        });
    }

    /// Records a release. Guards usually drop LIFO, but nothing forces
    /// that, so the *last* held entry of this rank is removed.
    pub(super) fn pop(rank: Rank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            match held.iter().rposition(|h| h.order == rank.order) {
                Some(at) => {
                    held.remove(at);
                }
                // lint: allow(panic) witness bookkeeping bug — fail loudly in debug builds
                None => panic!(
                    "lock-rank witness: releasing `{}` which is not held",
                    rank.name
                ),
            }
        });
    }
}

// ---------------------------------------------------------------------
// Debug builds: witnessing wrappers.
// ---------------------------------------------------------------------

/// A [`Mutex`] that participates in the acquisition-order witness.
#[cfg(debug_assertions)]
#[derive(Debug)]
pub(crate) struct RankedMutex<T> {
    rank: Rank,
    inner: Mutex<T>,
}

#[cfg(debug_assertions)]
impl<T> RankedMutex<T> {
    pub(crate) fn new(rank: Rank, value: T) -> Self {
        Self {
            rank,
            inner: Mutex::new(value),
        }
    }

    pub(crate) fn lock(&self) -> LockResult<RankedMutexGuard<'_, T>> {
        stack::push(self.rank);
        wrap(self.inner.lock(), |guard| RankedMutexGuard {
            rank: self.rank,
            guard: Some(guard),
        })
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    pub(crate) fn clear_poison(&self) {
        self.inner.clear_poison();
    }
}

/// The guard of a [`RankedMutex`]; pops the rank when dropped.
#[cfg(debug_assertions)]
#[derive(Debug)]
pub(crate) struct RankedMutexGuard<'a, T> {
    rank: Rank,
    /// `None` only transiently, inside [`RankedCondvar::wait`], after
    /// the std guard has been handed to the condvar.
    guard: Option<MutexGuard<'a, T>>,
}

#[cfg(debug_assertions)]
impl<T> Drop for RankedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.is_some() {
            stack::pop(self.rank);
        }
    }
}

#[cfg(debug_assertions)]
impl<T> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_ref().unwrap_or_else(|| {
            // lint: allow(panic) unreachable: the slot is only empty inside Condvar::wait
            unreachable!("ranked guard used after its inner guard was taken")
        })
    }
}

#[cfg(debug_assertions)]
impl<T> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().unwrap_or_else(|| {
            // lint: allow(panic) unreachable: the slot is only empty inside Condvar::wait
            unreachable!("ranked guard used after its inner guard was taken")
        })
    }
}

/// A [`RwLock`] that participates in the acquisition-order witness.
/// Both the read and the write side push the same rank: a reader
/// nesting another lock obeys the same global order as a writer.
#[cfg(debug_assertions)]
#[derive(Debug)]
pub(crate) struct RankedRwLock<T> {
    rank: Rank,
    inner: RwLock<T>,
}

#[cfg(debug_assertions)]
impl<T> RankedRwLock<T> {
    pub(crate) fn new(rank: Rank, value: T) -> Self {
        Self {
            rank,
            inner: RwLock::new(value),
        }
    }

    pub(crate) fn read(&self) -> LockResult<RankedReadGuard<'_, T>> {
        stack::push(self.rank);
        wrap(self.inner.read(), |guard| RankedReadGuard {
            rank: self.rank,
            guard,
        })
    }

    pub(crate) fn write(&self) -> LockResult<RankedWriteGuard<'_, T>> {
        stack::push(self.rank);
        wrap(self.inner.write(), |guard| RankedWriteGuard {
            rank: self.rank,
            guard,
        })
    }

    /// [`RwLock::try_read`]: the rank is checked like a blocking read,
    /// and popped again when the lock is not taken.
    pub(crate) fn try_read(&self) -> TryLockResult<RankedReadGuard<'_, T>> {
        stack::push(self.rank);
        let make = |guard| RankedReadGuard {
            rank: self.rank,
            guard,
        };
        match self.inner.try_read() {
            Ok(guard) => Ok(make(guard)),
            Err(TryLockError::Poisoned(poisoned)) => Err(TryLockError::Poisoned(PoisonError::new(
                make(poisoned.into_inner()),
            ))),
            Err(TryLockError::WouldBlock) => {
                stack::pop(self.rank);
                Err(TryLockError::WouldBlock)
            }
        }
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    pub(crate) fn clear_poison(&self) {
        self.inner.clear_poison();
    }
}

/// The shared guard of a [`RankedRwLock`].
#[cfg(debug_assertions)]
#[derive(Debug)]
pub(crate) struct RankedReadGuard<'a, T> {
    rank: Rank,
    guard: std::sync::RwLockReadGuard<'a, T>,
}

#[cfg(debug_assertions)]
impl<T> Drop for RankedReadGuard<'_, T> {
    fn drop(&mut self) {
        stack::pop(self.rank);
    }
}

#[cfg(debug_assertions)]
impl<T> std::ops::Deref for RankedReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

/// The exclusive guard of a [`RankedRwLock`].
#[cfg(debug_assertions)]
#[derive(Debug)]
pub(crate) struct RankedWriteGuard<'a, T> {
    rank: Rank,
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

#[cfg(debug_assertions)]
impl<T> Drop for RankedWriteGuard<'_, T> {
    fn drop(&mut self) {
        stack::pop(self.rank);
    }
}

#[cfg(debug_assertions)]
impl<T> std::ops::Deref for RankedWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> std::ops::DerefMut for RankedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`Condvar`] paired with [`RankedMutex`]: the wait releases the
/// mutex, so the rank is popped for the duration of the block and the
/// re-acquisition is re-checked against whatever the thread holds then.
#[cfg(debug_assertions)]
#[derive(Debug)]
pub(crate) struct RankedCondvar {
    inner: Condvar,
}

#[cfg(debug_assertions)]
impl RankedCondvar {
    pub(crate) fn new() -> Self {
        Self {
            inner: Condvar::new(),
        }
    }

    // Host code waits with a deadline these days; the untimed variant
    // stays as the reference implementation the tests pin down.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn wait<'a, T>(
        &self,
        mut guard: RankedMutexGuard<'a, T>,
    ) -> LockResult<RankedMutexGuard<'a, T>> {
        let rank = guard.rank;
        let inner = guard.guard.take().unwrap_or_else(|| {
            // lint: allow(panic) unreachable: every live guard owns its inner guard
            unreachable!("ranked guard lost its inner guard before the wait")
        });
        // The mutex is released while blocked: not held, so not ranked.
        stack::pop(rank);
        drop(guard); // empty slot: the Drop impl skips the pop
        let result = self.inner.wait(inner);
        // Re-acquired — re-run the inversion check before resuming.
        stack::push(rank);
        wrap(result, |guard| RankedMutexGuard {
            rank,
            guard: Some(guard),
        })
    }

    /// [`Condvar::wait_timeout`] with the same rank bookkeeping as
    /// [`Self::wait`]: popped while blocked, re-checked on wake.
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        mut guard: RankedMutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(RankedMutexGuard<'a, T>, std::sync::WaitTimeoutResult)> {
        let rank = guard.rank;
        let inner = guard.guard.take().unwrap_or_else(|| {
            // lint: allow(panic) unreachable: every live guard owns its inner guard
            unreachable!("ranked guard lost its inner guard before the wait")
        });
        // The mutex is released while blocked: not held, so not ranked.
        stack::pop(rank);
        drop(guard); // empty slot: the Drop impl skips the pop
        let result = self.inner.wait_timeout(inner, dur);
        // Re-acquired — re-run the inversion check before resuming.
        stack::push(rank);
        match result {
            Ok((guard, timed_out)) => Ok((
                RankedMutexGuard {
                    rank,
                    guard: Some(guard),
                },
                timed_out,
            )),
            Err(poisoned) => {
                let (guard, timed_out) = poisoned.into_inner();
                Err(PoisonError::new((
                    RankedMutexGuard {
                        rank,
                        guard: Some(guard),
                    },
                    timed_out,
                )))
            }
        }
    }

    pub(crate) fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// The guard types host code names in helper signatures: the ranked
/// wrappers in debug builds, the raw `std::sync` guards in release.
#[cfg(debug_assertions)]
pub(crate) type ReadGuard<'a, T> = RankedReadGuard<'a, T>;
/// See [`ReadGuard`].
#[cfg(debug_assertions)]
pub(crate) type WriteGuard<'a, T> = RankedWriteGuard<'a, T>;
/// See [`ReadGuard`].
#[cfg(debug_assertions)]
pub(crate) type LockGuard<'a, T> = RankedMutexGuard<'a, T>;

/// Maps a `LockResult` through a guard constructor, preserving
/// poisoning.
#[cfg(debug_assertions)]
fn wrap<G, R>(result: LockResult<G>, make: impl FnOnce(G) -> R) -> LockResult<R> {
    match result {
        Ok(guard) => Ok(make(guard)),
        Err(poisoned) => Err(PoisonError::new(make(poisoned.into_inner()))),
    }
}

// ---------------------------------------------------------------------
// Release builds: transparent pass-throughs, zero overhead.
// ---------------------------------------------------------------------

/// Release builds: a plain [`Mutex`]; the rank is discarded at
/// construction and every call forwards directly.
#[cfg(not(debug_assertions))]
#[derive(Debug)]
#[repr(transparent)]
pub(crate) struct RankedMutex<T> {
    inner: Mutex<T>,
}

#[cfg(not(debug_assertions))]
impl<T> RankedMutex<T> {
    #[inline]
    pub(crate) fn new(_rank: Rank, value: T) -> Self {
        Self {
            inner: Mutex::new(value),
        }
    }

    #[inline]
    pub(crate) fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        self.inner.lock()
    }

    #[inline]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    #[inline]
    pub(crate) fn clear_poison(&self) {
        self.inner.clear_poison();
    }
}

/// Release builds: a plain [`RwLock`].
#[cfg(not(debug_assertions))]
#[derive(Debug)]
#[repr(transparent)]
pub(crate) struct RankedRwLock<T> {
    inner: RwLock<T>,
}

#[cfg(not(debug_assertions))]
impl<T> RankedRwLock<T> {
    #[inline]
    pub(crate) fn new(_rank: Rank, value: T) -> Self {
        Self {
            inner: RwLock::new(value),
        }
    }

    #[inline]
    pub(crate) fn read(&self) -> LockResult<std::sync::RwLockReadGuard<'_, T>> {
        self.inner.read()
    }

    #[inline]
    pub(crate) fn write(&self) -> LockResult<std::sync::RwLockWriteGuard<'_, T>> {
        self.inner.write()
    }

    #[inline]
    pub(crate) fn try_read(&self) -> TryLockResult<std::sync::RwLockReadGuard<'_, T>> {
        self.inner.try_read()
    }

    #[inline]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    #[inline]
    pub(crate) fn clear_poison(&self) {
        self.inner.clear_poison();
    }
}

/// Release builds: a plain [`Condvar`].
#[cfg(not(debug_assertions))]
#[derive(Debug)]
#[repr(transparent)]
pub(crate) struct RankedCondvar {
    inner: Condvar,
}

#[cfg(not(debug_assertions))]
impl RankedCondvar {
    #[inline]
    pub(crate) fn new() -> Self {
        Self {
            inner: Condvar::new(),
        }
    }

    // See the debug-side note: kept as the reference the tests pin down.
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        self.inner.wait(guard)
    }

    #[inline]
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, std::sync::WaitTimeoutResult)> {
        self.inner.wait_timeout(guard, dur)
    }

    #[inline]
    pub(crate) fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Release builds: the raw `std::sync` guard types (see the debug-side
/// aliases of the same names).
#[cfg(not(debug_assertions))]
pub(crate) type ReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// See [`ReadGuard`].
#[cfg(not(debug_assertions))]
pub(crate) type WriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;
/// See [`ReadGuard`].
#[cfg(not(debug_assertions))]
pub(crate) type LockGuard<'a, T> = MutexGuard<'a, T>;

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_silent() {
        let low = RankedMutex::new(REGISTRY_RANK, 1);
        let high = RankedMutex::new(FLIGHT_RANK, 2);
        let a = low.lock().unwrap();
        let b = high.lock().unwrap();
        assert_eq!(*a + *b, 3);
        drop(b);
        drop(a);
        // Released cleanly: the same order is reusable.
        let _a = low.lock().unwrap();
        let _b = high.lock().unwrap();
    }

    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn descending_acquisition_panics() {
        let low = RankedMutex::new(REGISTRY_RANK, 1);
        let high = RankedRwLock::new(ENGINE_RANK, 2);
        let _b = high.read().unwrap();
        let _a = low.lock().unwrap(); // 10 after 20: inversion
    }

    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn same_rank_reacquisition_panics() {
        let a = RankedMutex::new(FLIGHT_RANK, 1);
        let b = RankedMutex::new(FLIGHT_RANK, 2);
        let _first = a.lock().unwrap();
        let _second = b.lock().unwrap(); // equal ranks: no defined order
    }

    #[test]
    fn out_of_order_release_is_tolerated() {
        let low = RankedMutex::new(REGISTRY_RANK, 1);
        let high = RankedMutex::new(FLIGHT_RANK, 2);
        let a = low.lock().unwrap();
        let b = high.lock().unwrap();
        drop(a); // released below the top of the stack
        drop(b);
        let _again = low.lock().unwrap();
    }

    #[test]
    fn condvar_wait_timeout_pops_and_repushes_the_rank() {
        use std::time::Duration;

        let lock = RankedMutex::new(FLIGHT_RANK, ());
        let cv = RankedCondvar::new();
        let guard = lock.lock().unwrap();
        let (guard, timed_out) = cv.wait_timeout(guard, Duration::from_millis(5)).unwrap();
        assert!(timed_out.timed_out());
        // The rank survived the timed-out wait: dropping and
        // re-acquiring must still be legal.
        drop(guard);
        let _again = lock.lock().unwrap();
    }

    #[test]
    fn condvar_wait_pops_and_repushes_the_rank() {
        use std::sync::Arc;
        use std::time::Duration;

        let pair = Arc::new((RankedMutex::new(FLIGHT_RANK, false), RankedCondvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = (&pair.0, &pair.1);
                let mut ready = lock.lock().unwrap();
                while !*ready {
                    ready = cv.wait(ready).unwrap();
                }
                // The rank survived the wait cycle: an ascending
                // acquisition after waking must still be legal...
                drop(ready);
                let _again = lock.lock().unwrap();
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        *pair.0.lock().unwrap() = true;
        pair.1.notify_all();
        waiter.join().unwrap();
    }
}
