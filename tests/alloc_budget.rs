//! Heap-allocation budgets of the cold path: compiling the 26 kernels,
//! running each on the golden interpreter, and linting their programs.
//! All three run once per kernel before the first simulated cycle of
//! every tool, clp-serve cache miss and benchmark round; compile and
//! lint keep their per-block working state on buffers reused across the
//! blocks of a program, and the golden run's memory image keeps its
//! pages in one buffer. These budgets hold them there.
//!
//! A counting global allocator counts per thread, so tests running in
//! parallel do not mix their counts.

use clp_compiler::{compile, CompileOptions};
use clp_lint::{lint_program, LintConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations (`alloc`, `alloc_zeroed` and `realloc` calls) `f`
/// makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn compiling_and_linting_the_suite_stay_within_their_allocation_budgets() {
    let suite = clp_workloads::suite::all();
    let (programs, compile_allocs) = allocations(|| {
        suite
            .iter()
            .map(|w| compile(&w.program, &CompileOptions::default()).expect("compiles"))
            .collect::<Vec<_>>()
    });
    let cfg = LintConfig::default();
    let (diagnostics, lint_allocs) = allocations(|| {
        programs
            .iter()
            .map(|p| lint_program(p, &cfg).diagnostics.len())
            .sum::<usize>()
    });
    // Before buffers were reused, compiling the suite made 10 067
    // allocations (59 per block) and linting it 5 389; then 2 671 and
    // 1 440; now 2 632 (liveness runs once per function, and the per-op
    // buffer is reserved once per program) and 1 414. Each bound keeps
    // about a tenth of headroom. Most of what is left is output: each
    // block's instruction, read, write and exit lists, and each
    // diagnostic's message and notes.
    assert!(
        compile_allocs <= 2_895,
        "compiling the suite made {compile_allocs} allocations"
    );
    assert!(
        lint_allocs <= 1_580,
        "linting the suite made {lint_allocs} allocations ({diagnostics} diagnostics)"
    );
}

#[test]
fn the_suites_golden_runs_stay_within_their_allocation_budget() {
    let suite = clp_workloads::suite::all();
    let (ops, golden_allocs) = allocations(|| {
        suite
            .iter()
            .map(|w| w.try_golden().expect("runs").stats.ops)
            .sum::<u64>()
    });
    // 264 allocations: each run's image pages, page table and register
    // frames (one per call); the bound keeps about a tenth of headroom.
    assert!(
        golden_allocs <= 290,
        "the golden runs made {golden_allocs} allocations ({ops} ops)"
    );
}
