//! Dynamic recomposition: run a phase on a small processor, release the
//! cores, and recompose a bigger processor *in the same address space* —
//! the hand-off happens through the cache-coherence protocol, with no
//! flush on the composition change (§4.7).
//!
//! ```sh
//! cargo run --release --example recompose
//! ```

use clp::compiler::{compile, CompileOptions, FunctionBuilder, ProgramBuilder};
use clp::isa::{Opcode, Reg};
use clp::sim::{Machine, SimConfig};

const DATA: u64 = 0x6000;
const N: i64 = 64;

fn produce_program() -> clp::isa::EdgeProgram {
    // data[i] = i * 7
    let mut f = FunctionBuilder::new("produce", 1);
    let base = f.param(0);
    let n = f.c(N);
    let i = f.c(0);
    let (h, b, x) = (f.new_block(), f.new_block(), f.new_block());
    f.jump(h);
    f.switch_to(h);
    let c = f.bin(Opcode::Tlt, i, n);
    f.branch(c, b, x);
    f.switch_to(b);
    let three = f.c(3);
    let off = f.bin(Opcode::Shl, i, three);
    let addr = f.bin(Opcode::Add, base, off);
    let seven = f.c(7);
    let v = f.bin(Opcode::Mul, i, seven);
    f.store(addr, 0, v);
    let one = f.c(1);
    f.bin_into(i, Opcode::Add, i, one);
    f.jump(h);
    f.switch_to(x);
    f.ret(Some(i));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    compile(&pb.finish(id), &CompileOptions::default()).expect("compiles")
}

fn consume_program() -> clp::isa::EdgeProgram {
    // sum(data)
    let mut f = FunctionBuilder::new("consume", 1);
    let base = f.param(0);
    let n = f.c(N);
    let acc = f.c(0);
    let i = f.c(0);
    let (h, b, x) = (f.new_block(), f.new_block(), f.new_block());
    f.jump(h);
    f.switch_to(h);
    let c = f.bin(Opcode::Tlt, i, n);
    f.branch(c, b, x);
    f.switch_to(b);
    let three = f.c(3);
    let off = f.bin(Opcode::Shl, i, three);
    let addr = f.bin(Opcode::Add, base, off);
    let v = f.load(addr, 0);
    f.bin_into(acc, Opcode::Add, acc, v);
    let one = f.c(1);
    f.bin_into(i, Opcode::Add, i, one);
    f.jump(h);
    f.switch_to(x);
    f.ret(Some(acc));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    compile(&pb.finish(id), &CompileOptions::default()).expect("compiles")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut m = Machine::new(SimConfig::tflex());

    // Phase 1: a serial producer runs on one core.
    let p1 = m.compose(1, 0, produce_program(), &[DATA])?;
    m.run()?;
    let phase1 = m.cycle();
    println!("phase 1: produced {N} values on 1 core  ({phase1} cycles)");

    // Release the core; its dirty L1 lines stay where they are.
    let base = m.addr_base(p1);
    m.decompose(p1)?;

    // Phase 2: a 16-core consumer over the SAME region and address space.
    let p2 = m.compose_at(16, 0, consume_program(), &[DATA], base)?;
    m.run()?;
    let sum = m.register(p2, Reg::new(1));
    let want: u64 = (0..N as u64).map(|i| i * 7).sum();
    println!(
        "phase 2: summed on 16 cores -> {sum} (expected {want})  ({} more cycles)",
        m.cycle() - phase1
    );
    assert_eq!(sum, want);

    let s = m.memory().stats();
    println!(
        "coherence during hand-off: {} dirty forwards, {} invalidations — no flush needed",
        s.dirty_forwards, s.invalidations
    );
    Ok(())
}
