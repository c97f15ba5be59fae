//! The benchmark binary's allocator: the system allocator, counting the
//! bytes it has handed out and not yet taken back.
//!
//! The memory figure the benchmark gates is the *peak of live heap bytes
//! over the timed window*, not the resident set. Resident memory is the
//! allocator's business as much as the program's: on `ingest_mixed`, two
//! runs of identical inputs ended 15 MB apart (a fifth of the total) both
//! in `VmHWM` and in the median `VmRSS`, depending on whether the C library
//! happened to keep or return a compaction's freed buffers. What the
//! program asked for does not have that freedom.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest value `LIVE` has reached since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], with every successful allocation and release counted.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns `System`'s result
// unchanged; the counters are statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Start a new measurement: the peak becomes whatever is live right now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak of live heap bytes since the last [`reset_peak`], MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation_and_survives_its_release() {
        // Other tests allocate concurrently; a 64 MB block dwarfs them.
        const BLOCK: usize = 64 << 20;
        reset_peak();
        let before = peak_mb();
        let block = vec![1u8; BLOCK];
        assert_eq!(block[BLOCK - 1], 1);
        let during = peak_mb();
        assert!(during >= before + 60.0, "{before} -> {during}");
        drop(block);
        assert!(peak_mb() >= during, "the peak outlives the block");
        assert!(
            (LIVE.load(Ordering::Relaxed) as f64) / (1024.0 * 1024.0) < during - 30.0,
            "live bytes fall back once the block is released"
        );
    }
}
