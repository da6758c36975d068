//! Zero-filled `u64` buffers for the `seen` tables and for loaded
//! snapshot images, with the large ones in owned huge-page mappings.
//!
//! A [`LaneBuf`] of at least [`HUGE_PAGE`] bytes is, on Linux, an
//! anonymous private mapping of its own: `mmap`, then
//! `madvise(MADV_HUGEPAGE)` before any page is touched, then `munmap`
//! when the buffer drops. The kernel hands out the pages already zeroed
//! and, under the hint, 2 MiB at a time: one page fault where 4 KiB
//! pages take 512. Anything smaller, every other platform, and a
//! mapping the kernel refuses fall back to a plain heap slice.
//!
//! The hint goes on owned mappings only, never on malloc'd memory. A
//! hinted heap block outlives its `free`: glibc serves blocks below its
//! adaptive mmap threshold (up to 32 MiB) from the heap and keeps the
//! freed pages, now huge, resident for reuse. A prototype that hinted
//! `seen`'s heap arenas more than doubled the peak RSS of a server that
//! builds and drops engines. A mapping goes back to the kernel whole on
//! drop.
//!
//! Besides the `seen` slot prefetch, this module holds the crate's only
//! `unsafe`; each block carries its `SAFETY` argument.

#![allow(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};

/// Buffers this large or larger are mapped: one x86_64/aarch64 huge
/// page (2 MiB).
pub(crate) const HUGE_PAGE: usize = 2 << 20;

/// A fixed-length, zero-initialized `[u64]` (see the module docs).
///
/// Both backings are kept as one base pointer and length, so reading
/// the lanes is the same two loads either way; only `Drop` tells them
/// apart. `seen` reaches a record through one of these on every probe
/// hit, where a per-access branch on the backing measurably slowed the
/// small per-request tables.
pub(crate) struct LaneBuf {
    base: NonNull<u64>,
    len: usize,
    /// Size of the owned mapping in bytes, or 0 when `base` is a heap
    /// `Box<[u64]>` of `len` lanes.
    mapped_bytes: usize,
}

// SAFETY: a `LaneBuf` is the sole owner of its lanes, exactly like the
// `Box<[u64]>` it may be: no other handle to them exists, `&self` only
// reads, and writes need `&mut self`.
unsafe impl Send for LaneBuf {}
// SAFETY: as for `Send`; `&LaneBuf` hands out only `&[u64]`.
unsafe impl Sync for LaneBuf {}

impl LaneBuf {
    /// `len` zeroed lanes: an owned huge-page mapping from
    /// [`HUGE_PAGE`] bytes up on Linux, a heap slice otherwise.
    pub(crate) fn zeroed(len: usize) -> Self {
        if len.saturating_mul(8) >= HUGE_PAGE {
            if let Some((base, mapped_bytes)) = mapped::map(len) {
                return Self {
                    base,
                    len,
                    mapped_bytes,
                };
            }
        }
        let heap: Box<[u64]> = vec![0; len].into_boxed_slice();
        Self {
            base: NonNull::from(Box::leak(heap)).cast::<u64>(),
            len,
            mapped_bytes: 0,
        }
    }

    /// The lanes as `8 * len` bytes, in memory order.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: the lanes are `8 * len` initialized bytes that `self`
        // owns (see `deref`); `u8` has alignment 1 and no invalid bit
        // patterns, and the borrow of `self` keeps the bytes alive and
        // free of `&mut`.
        unsafe { std::slice::from_raw_parts(self.base.as_ptr().cast::<u8>(), self.len * 8) }
    }

    /// [`Self::bytes`], writable.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `bytes`; every byte pattern is a valid `u64`
        // lane, and `&mut self` makes this the only reference to the
        // lanes for the borrow's lifetime.
        unsafe { std::slice::from_raw_parts_mut(self.base.as_ptr().cast::<u8>(), self.len * 8) }
    }

    /// Whether the lanes live in an owned mapping.
    #[cfg(test)]
    pub(crate) fn is_mapped(&self) -> bool {
        self.mapped_bytes != 0
    }
}

impl Deref for LaneBuf {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        // SAFETY: `base` points at `len` initialized, u64-aligned lanes
        // that `self` owns until `Drop`: a leaked `Box<[u64]>` of exactly
        // `len` lanes, or a page-aligned read-write mapping of at least
        // `8 * len` bytes, which the kernel zero-fills on first touch.
        // The borrow of `self` keeps them alive and free of `&mut`.
        unsafe { std::slice::from_raw_parts(self.base.as_ptr(), self.len) }
    }
}

impl DerefMut for LaneBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: as in `deref`; `&mut self` makes this the only
        // reference to the lanes for the borrow's lifetime.
        unsafe { std::slice::from_raw_parts_mut(self.base.as_ptr(), self.len) }
    }
}

impl Drop for LaneBuf {
    fn drop(&mut self) {
        if self.mapped_bytes == 0 {
            // SAFETY: a heap `LaneBuf` is `Box::leak` of a `Box<[u64]>` of
            // `len` lanes, rebuilt here once; no slice into it outlives
            // `self`.
            drop(unsafe {
                Box::from_raw(ptr::slice_from_raw_parts_mut(self.base.as_ptr(), self.len))
            });
        } else {
            // SAFETY: `base` and `mapped_bytes` are exactly what
            // `mapped::map` returned, unmapped once (here), and no slice
            // into the mapping outlives `self`.
            unsafe { mapped::unmap(self.base, self.mapped_bytes) };
        }
    }
}

impl fmt::Debug for LaneBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.mapped_bytes == 0 {
            "heap"
        } else {
            "mapped"
        };
        write!(f, "LaneBuf({} lanes, {kind})", self.len)
    }
}

/// Elsewhere nothing is mapped: [`LaneBuf`] always takes the heap.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod mapped {
    use std::ptr::NonNull;

    pub(super) fn map(_len: usize) -> Option<(NonNull<u64>, usize)> {
        None
    }

    /// Never called: `map` hands out no mapping to return.
    // SAFETY: (of the contract) there is nothing to uphold; the function
    // is `unsafe` only to match the Linux signature.
    pub(super) unsafe fn unmap(_base: NonNull<u64>, _bytes: usize) {}
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod mapped {
    use std::ffi::{c_int, c_void};
    use std::ptr::{self, NonNull};

    use super::HUGE_PAGE;

    // The values Linux uses on x86_64 and aarch64 (the only targets
    // this module is built for).
    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// Maps room for `len` zeroed lanes, rounded up to whole huge
    /// pages: the base and the mapping's size in bytes, or `None` if
    /// the kernel refuses.
    pub(super) fn map(len: usize) -> Option<(NonNull<u64>, usize)> {
        let bytes = len.checked_mul(8)?.checked_next_multiple_of(HUGE_PAGE)?;
        // SAFETY: a fresh anonymous private mapping with no address hint
        // and no file: the kernel picks an unused range, so no existing
        // memory is touched, and every argument is valid for mmap(2).
        // Failure is reported as MAP_FAILED (-1).
        let addr = unsafe {
            mmap(
                ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if addr as isize == -1 {
            return None;
        }
        // SAFETY: `addr..addr + bytes` is the mapping just created and
        // owned here, and no page of it has been touched yet. madvise
        // only changes how the range is backed; if it fails (huge pages
        // compiled out or disabled) the mapping keeps 4 KiB pages, so
        // its result is ignored.
        unsafe {
            madvise(addr, bytes, MADV_HUGEPAGE);
        }
        Some((NonNull::new(addr.cast::<u64>())?, bytes))
    }

    /// Returns a mapping made by [`map`] to the kernel.
    ///
    /// # Safety
    ///
    /// `base` and `bytes` must be one result of [`map`], not yet
    /// unmapped, with no reference into the mapping still alive.
    // SAFETY: (of the contract) callers uphold the `# Safety` section
    // above; `LaneBuf::drop` is the only one.
    pub(super) unsafe fn unmap(base: NonNull<u64>, bytes: usize) {
        // SAFETY: the caller passes back exactly one live mapping.
        unsafe {
            munmap(base.as_ptr().cast::<c_void>(), bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_buffers_stay_on_the_heap_and_start_zeroed() {
        let mut buf = LaneBuf::zeroed(HUGE_PAGE / 8 - 1);
        assert!(!buf.is_mapped());
        assert!(buf.iter().all(|&lane| lane == 0));
        buf[7] = 42;
        assert_eq!(buf[7], 42);
        assert_eq!(LaneBuf::zeroed(0).len(), 0);
    }

    #[test]
    fn large_buffers_are_zeroed_writable_and_sized_exactly() {
        let len = HUGE_PAGE / 8 + 3;
        let mut buf = LaneBuf::zeroed(len);
        assert_eq!(
            buf.is_mapped(),
            cfg!(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))
        );
        assert_eq!(buf.len(), len);
        assert!(buf.iter().all(|&lane| lane == 0));
        buf[len - 1] = u64::MAX;
        buf[0] = 1;
        assert_eq!((buf[0], buf[len - 1]), (1, u64::MAX));
        buf.bytes_mut()[8] = 7;
        assert_eq!(buf.bytes().len(), 8 * len);
        assert_eq!(buf[1], u64::from_ne_bytes([7, 0, 0, 0, 0, 0, 0, 0]));
        drop(buf);
        // Dropped mappings are returned; mapping again works.
        assert_eq!(LaneBuf::zeroed(len)[len - 1], 0);
    }
}
