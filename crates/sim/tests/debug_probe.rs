//! A tight-budget probe used while bringing the machine up: runs the
//! simplest possible program on one core and prints diagnostic counters.

use clp_compiler::{compile, CompileOptions, FunctionBuilder, ProgramBuilder};
use clp_isa::{Opcode, Reg};
use clp_sim::{Machine, SimConfig};

#[test]
fn minimal_block_halts_quickly() {
    let mut f = FunctionBuilder::new("tiny", 1);
    let x = f.param(0);
    let y = f.bin(Opcode::Add, x, x);
    f.ret(Some(y));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let p = pb.finish(id);
    let edge = compile(&p, &CompileOptions::default()).unwrap();

    let mut cfg = SimConfig::tflex();
    cfg.deadline = 20_000;
    let mut m = Machine::new(cfg);
    let pid = m.compose(1, 0, edge, &[21]).unwrap();
    match m.run() {
        Ok(stats) => {
            assert_eq!(m.register(pid, Reg::new(1)), 42);
            assert!(stats.cycles < 5_000, "took {} cycles", stats.cycles);
        }
        Err(e) => panic!("run failed at cycle {}: {e}", m.cycle()),
    }
}

#[test]
fn minimal_block_halts_on_four_cores() {
    let mut f = FunctionBuilder::new("tiny", 1);
    let x = f.param(0);
    let y = f.bin(Opcode::Add, x, x);
    f.ret(Some(y));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let p = pb.finish(id);
    let edge = compile(&p, &CompileOptions::default()).unwrap();

    let mut cfg = SimConfig::tflex();
    cfg.deadline = 20_000;
    let mut m = Machine::new(cfg);
    let pid = m.compose(4, 0, edge, &[21]).unwrap();
    match m.run() {
        Ok(stats) => {
            assert_eq!(m.register(pid, Reg::new(1)), 42);
            assert!(stats.cycles < 5_000, "took {} cycles", stats.cycles);
        }
        Err(e) => panic!("run failed at cycle {}: {e}", m.cycle()),
    }
}

#[test]
fn loop_probe_two_cores() {
    let mut f = FunctionBuilder::new("sum", 2);
    let base = f.param(0);
    let n = f.param(1);
    let i = f.c(0);
    let acc = f.c(0);
    let (h, body, exit) = (f.new_block(), f.new_block(), f.new_block());
    f.jump(h);
    f.switch_to(h);
    let c = f.bin(Opcode::Tlt, i, n);
    f.branch(c, body, exit);
    f.switch_to(body);
    let eight = f.c(8);
    let off = f.bin(Opcode::Mul, i, eight);
    let addr = f.bin(Opcode::Add, base, off);
    let v = f.load(addr, 0);
    f.bin_into(acc, Opcode::Add, acc, v);
    let one = f.c(1);
    f.bin_into(i, Opcode::Add, i, one);
    f.jump(h);
    f.switch_to(exit);
    f.ret(Some(acc));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let p = pb.finish(id);
    let edge = compile(&p, &CompileOptions::default()).unwrap();

    let mut cfg = SimConfig::tflex();
    cfg.deadline = 100_000;
    let mut m = Machine::new(cfg);
    m.memory_mut().image.load_words(0x1000, &[1, 2, 3, 4]);
    let pid = m.compose(2, 0, edge, &[0x1000, 4]).unwrap();
    match m.run() {
        Ok(stats) => {
            assert_eq!(m.register(pid, Reg::new(1)), 10);
            assert!(stats.cycles < 50_000, "took {}", stats.cycles);
        }
        Err(e) => panic!("hang: {e} at cycle {}", m.cycle()),
    }
}

#[test]
fn loop_probe_one_core_forty() {
    let mut f = FunctionBuilder::new("sum", 2);
    let base = f.param(0);
    let n = f.param(1);
    let i = f.c(0);
    let acc = f.c(0);
    let (h, body, exit) = (f.new_block(), f.new_block(), f.new_block());
    f.jump(h);
    f.switch_to(h);
    let c = f.bin(Opcode::Tlt, i, n);
    f.branch(c, body, exit);
    f.switch_to(body);
    let eight = f.c(8);
    let off = f.bin(Opcode::Mul, i, eight);
    let addr = f.bin(Opcode::Add, base, off);
    let v = f.load(addr, 0);
    f.bin_into(acc, Opcode::Add, acc, v);
    let one = f.c(1);
    f.bin_into(i, Opcode::Add, i, one);
    f.jump(h);
    f.switch_to(exit);
    f.ret(Some(acc));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let p = pb.finish(id);
    let edge = compile(&p, &CompileOptions::default()).unwrap();

    let data: Vec<u64> = (1..=40).collect();
    for n_cores in [1usize, 2, 4, 8, 16, 32] {
        let mut cfg = SimConfig::tflex();
        cfg.deadline = 2_000_000;
        let mut m = Machine::new(cfg);
        m.memory_mut().image.load_words(0x1000, &data);
        let pid = m.compose(n_cores, 0, edge.clone(), &[0x1000, 40]).unwrap();
        let mut stalled = 0u64;
        loop {
            let before = m.cycle();
            m.step();
            if m.is_halted(pid) {
                break;
            }
            stalled += 1;
            if stalled > 400_000 {
                panic!("stall on {n_cores} cores:\n{}", m.debug_snapshot());
            }
            let _ = before;
        }
        assert_eq!(m.register(pid, Reg::new(1)), 820, "on {n_cores} cores");
    }
}

/// Diagnose divergence: run branchy on every composition with tight
/// budget and report the first difference.
#[test]
fn branchy_divergence_probe() {
    use clp_compiler::interpret;
    use clp_mem::MemoryImage;
    let p = {
        // same as end_to_end::branchy_store_program
        let mut f = FunctionBuilder::new("branchy", 2);
        let base = f.param(0);
        let n = f.param(1);
        let i = f.c(0);
        let odds = f.c(0);
        let (h, body, odd_bb, even_bb, next, exit) = (
            f.new_block(),
            f.new_block(),
            f.new_block(),
            f.new_block(),
            f.new_block(),
            f.new_block(),
        );
        f.jump(h);
        f.switch_to(h);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, body, exit);
        f.switch_to(body);
        let eight = f.c(8);
        let off = f.bin(Opcode::Mul, i, eight);
        let addr = f.bin(Opcode::Add, base, off);
        let v = f.load(addr, 0);
        let one = f.c(1);
        let bit = f.bin(Opcode::And, v, one);
        f.branch(bit, odd_bb, even_bb);
        f.switch_to(odd_bb);
        let vp1 = f.bin(Opcode::Add, v, one);
        f.store(addr, 0, vp1);
        f.bin_into(odds, Opcode::Add, odds, one);
        f.jump(next);
        f.switch_to(even_bb);
        let two = f.c(2);
        let v2 = f.bin(Opcode::Mul, v, two);
        f.store(addr, 0, v2);
        f.jump(next);
        f.switch_to(next);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(h);
        f.switch_to(exit);
        f.ret(Some(odds));
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        pb.finish(id)
    };
    let data: Vec<u64> = (0..32).map(|i| (i * 7 + 3) % 23).collect();
    let mut gimage = MemoryImage::new();
    gimage.load_words(0x2000, &data);
    let g = interpret(&p, &[0x2000, data.len() as u64], &mut gimage, 10_000_000).unwrap();

    let edge = compile(&p, &CompileOptions::default()).unwrap();
    for n_cores in [1usize, 2, 4, 8, 32] {
        let mut cfg = SimConfig::tflex();
        cfg.deadline = 5_000;
        let mut m = Machine::new(cfg);
        m.memory_mut().image.load_words(0x2000, &data);
        let pid = m
            .compose(n_cores, 0, edge.clone(), &[0x2000, data.len() as u64])
            .unwrap();
        match m.run() {
            Ok(_) => {
                let r1 = m.register(pid, Reg::new(1));
                assert_eq!(Some(r1), g.ret, "odds differ on {n_cores} cores");
                let got = m.memory().image.read_words(0x2000, data.len());
                let want = gimage.read_words(0x2000, data.len());
                assert_eq!(got, want, "memory differs on {n_cores} cores");
            }
            Err(e) => panic!("{n_cores} cores: {e}\n{}", m.debug_snapshot()),
        }
    }
}
