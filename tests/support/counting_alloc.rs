//! A counting allocator for the binaries that assert "this allocates
//! nothing" (or little): `crates/fsmoe/tests/steady_state_alloc.rs`,
//! `crates/collectives/tests/alloc_free.rs`, `crates/models/tests/step.rs`,
//! `crates/models/tests/lowering_alloc.rs` and the compute gate
//! (`crates/bench/benches/harness.rs`) include this file by path and
//! install [`CountingAlloc`] as their `#[global_allocator]`. Library code
//! never sees it.
//!
//! Counts are per thread, so parallel tests in one binary do not see
//! each other and a rank thread reports only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations of at least this many bytes count as large — past the
/// size the system allocator serves without mapping fresh pages.
pub const LARGE: usize = 64 << 10;

thread_local! {
    /// `(allocations, large allocations)` made by this thread so far.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting each thread's requests.
pub struct CountingAlloc;

fn note(size: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = COUNTS.try_with(|c| {
        let (all, large) = c.get();
        c.set((all + 1, large + u64::from(size >= LARGE)));
    });
}

// SAFETY: every request is forwarded unchanged to `System`; the counter
// is a const-initialised `Cell` with no destructor, so touching it from
// inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns its value with the `(allocations, large
/// allocations)` the calling thread made meanwhile.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = COUNTS.with(Cell::get);
    let value = f();
    let after = COUNTS.with(Cell::get);
    (value, after.0 - before.0, after.1 - before.1)
}
