//! Shared random-program generator for the cross-engine and chaos
//! property suites: structured statement ASTs (constants, ALU ops,
//! masked array loads/stores, if/else diamonds, bounded counted loops)
//! that always terminate by construction while still exercising
//! hyperblock formation, predication, memory disambiguation, and the
//! distributed protocols.

// Each integration-test binary compiles this module independently and
// uses a different subset of it.
#![allow(dead_code)]

use clp::compiler::{FunctionBuilder, ProgramBuilder, VReg};
use clp::isa::Opcode;
use clp::workloads::Workload;

mod stmts;
pub use stmts::*;

/// Base address of the scratch array every generated program reads and
/// writes.
pub const ARRAY_BASE: u64 = 0x9_0000;

/// Builds a self-checking workload from generated statements: the return
/// value folds every live value into one checksum, and the scratch array
/// is a checked memory region.
pub fn build_workload(stmts: &[Stmt], seed_vals: &[i64]) -> Workload {
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(fuzz_function(stmts, seed_vals).finish());
    let init: Vec<u64> = (0..ARRAY_WORDS as u64).map(|k| k * 11 + 5).collect();
    Workload {
        name: "fuzz",
        class: clp::workloads::WorkloadClass::SpecInt,
        ilp: clp::workloads::IlpClass::Low,
        program: pb.finish(id),
        args: vec![ARRAY_BASE],
        init_mem: vec![(ARRAY_BASE, init)],
        check: clp::workloads::CheckSpec {
            check_ret: true,
            regions: vec![(ARRAY_BASE, ARRAY_WORDS)],
        },
    }
}
