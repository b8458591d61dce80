//! A counting global allocator: every allocation the benchmark process
//! makes is tallied (count and bytes) before being handed to the system
//! allocator, so allocation work is an exact, host-independent count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with allocation counters in front of it.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract and
        // `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (including reallocations) made so far.
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Bytes requested by those calls so far.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_bytes() {
        // Other test threads allocate too, so check lower bounds only.
        let (c0, b0) = (count(), bytes());
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let boxed = Box::new([0u64; 64]);
        std::hint::black_box(&boxed);
        assert!(count() - c0 >= 2);
        assert!(bytes() - b0 >= 4096 + 512);
        let (c1, b1) = (count(), bytes());
        let mut grow = Vec::<u8>::with_capacity(16);
        grow.extend_from_slice(&[1u8; 1024]);
        std::hint::black_box(&grow);
        assert!(count() - c1 >= 2, "the realloc is counted");
        assert!(bytes() - b1 >= 16 + 1024);
    }
}
