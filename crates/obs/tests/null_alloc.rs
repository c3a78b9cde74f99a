//! Proves the disabled tracing path never touches the allocator.
//!
//! This file is its own test binary so the counting global allocator
//! sees only this test's activity.

use clp_obs::{TraceEvent, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn emit_burst(tracer: &Tracer, n: u64) {
    for cycle in 0..n {
        tracer.emit(cycle, || TraceEvent::BlockFetched {
            proc: 0,
            core: 3,
            addr: 0x1000 + cycle,
            speculative: true,
        });
        tracer.emit(cycle, || TraceEvent::OperandRouted {
            plane: "operand",
            src: 1,
            dst: 2,
            latency: 4,
        });
        tracer.emit(cycle, || TraceEvent::InstIssued {
            proc: 0,
            core: 3,
            block: 0x1000,
            inst: 7,
            opcode: "add",
        });
    }
}

#[test]
fn the_off_tracer_does_not_allocate() {
    let off = Tracer::off();
    // Warm up any lazy runtime allocation.
    emit_burst(&off, 1);

    // The counting allocator is process-global, so a concurrently
    // running harness thread (e.g. progress I/O) can allocate during
    // the window. The property under test is that the emit path CAN
    // run allocation-free, so accept any clean window out of a few.
    let clean_window = (0..5).any(|_| {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        emit_burst(&off, 10_000);
        ALLOCATIONS.load(Ordering::SeqCst) == before
    });
    assert!(
        clean_window,
        "tracing hooks allocated on the off path in every window"
    );
}
