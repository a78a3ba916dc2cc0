//! A counting global allocator, switched on only around the traced join.
//!
//! While off it costs one relaxed load per allocation, so the timed runs
//! measure the system allocator, not the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocations a thread counts locally before adding them to the shared
/// totals: two threads bumping one cache line on each of a join's
/// ~12 M allocations cost half the join's wall again.
const FLUSH_EVERY: u64 = 1024;

thread_local! {
    // `const` and without a destructor, so touching it from inside the
    // allocator neither allocates nor registers anything.
    static LOCAL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Install with `#[global_allocator]` in the benchmark binary.
pub struct CountingAlloc;

#[inline]
fn record(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: a thread past its TLS teardown just goes uncounted.
    let _ = LOCAL.try_with(|local| {
        let (allocs, bytes) = local.get();
        let (allocs, bytes) = (allocs + 1, bytes + size as u64);
        if allocs >= FLUSH_EVERY {
            ALLOCS.fetch_add(allocs, Ordering::Relaxed);
            BYTES.fetch_add(bytes, Ordering::Relaxed);
            local.set((0, 0));
        } else {
            local.set((allocs, bytes));
        }
    });
}

/// Adds the calling thread's unflushed counts to the totals.
fn flush_local() {
    let _ = LOCAL.try_with(|local| {
        let (allocs, bytes) = local.replace((0, 0));
        ALLOCS.fetch_add(allocs, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` and `layout` describe a live block of this
        // allocator, which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
}

/// Runs `f` with the counter on and returns what it allocated (all
/// threads; a worker thread that ends with fewer than [`FLUSH_EVERY`]
/// unflushed allocations drops them, well under 0.1 % of a join). Counts
/// stay zero in a binary that did not install [`CountingAlloc`].
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCounts) {
    let before = snapshot();
    COUNTING.store(true, Ordering::Relaxed);
    let result = f();
    COUNTING.store(false, Ordering::Relaxed);
    flush_local();
    let after = snapshot();
    (
        result,
        AllocCounts {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    )
}

fn snapshot() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}
