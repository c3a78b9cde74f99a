//! Integration tests for the paper's protocol-level claims: composition
//! changes without cache flushes (§4.7), handshake-overhead behavior
//! (§6.4), the Figure 9 latency trends, and cross-run determinism.

use clp::core::{compile_workload, run_compiled, ProcessorConfig};
use clp::mem::{dbank_for, LoadResponse, MemorySystem};
use clp::sim::ProtocolTiming;
use clp::workloads::suite;

/// §4.7: after a composition change the new interleaving misses, and the
/// directory forwards/invalidates stale lines — no flush required.
#[test]
fn recomposition_preserves_coherence_without_flush() {
    let mut mem = MemorySystem::new(32);
    // Phase 1: a single-core processor on core 0 writes a line (all
    // addresses hash to bank 0 when n=1).
    let addr = 0x4000u64;
    assert_eq!(dbank_for(addr, 1), 0);
    let r = mem.execute_store(0, 32, addr, 8, 123);
    assert!(matches!(r, clp::mem::StoreResponse::Ok { .. }));
    mem.commit_stores(&[0], 32, 64);

    // Phase 2: recomposed as 4 cores; the same address now hashes to a
    // different participating bank. The load must see the committed value
    // and the access is a (coherence-served) miss, not a stale hit.
    let bank = dbank_for(addr, 4);
    let before = mem.stats();
    let resp = mem.execute_load(bank, 96, addr, 8);
    let LoadResponse::Ok { value, latency, .. } = resp else {
        panic!("load NACKed");
    };
    assert_eq!(value, 123, "directory must deliver the newest data");
    let after = mem.stats();
    if bank != 0 {
        assert_eq!(
            after.l1d_misses,
            before.l1d_misses + 1,
            "new bank misses on first access"
        );
        assert!(latency > 2, "coherence-served access is not an L1 hit");
    }
}

/// §6.4: idealized (instantaneous) handshakes are at least as fast as the
/// modeled protocol, and the gap at large compositions is modest.
#[test]
fn instant_handshakes_bound_the_modeled_protocol() {
    for name in ["conv", "tblook"] {
        let cw = compile_workload(&suite::by_name(name).unwrap()).unwrap();
        for n in [8usize, 32] {
            let modeled = run_compiled(&cw, &ProcessorConfig::tflex(n)).unwrap();
            let mut ideal_cfg = ProcessorConfig::tflex(n);
            ideal_cfg.sim.protocol = ProtocolTiming::Instant;
            let ideal = run_compiled(&cw, &ideal_cfg).unwrap();
            assert!(
                ideal.stats.cycles <= modeled.stats.cycles,
                "{name} x{n}: ideal {} > modeled {}",
                ideal.stats.cycles,
                modeled.stats.cycles
            );
            let overhead = modeled.stats.cycles as f64 / ideal.stats.cycles as f64 - 1.0;
            assert!(
                overhead < 0.6,
                "{name} x{n}: handshake overhead {overhead:.2} is implausible"
            );
        }
    }
}

/// Figure 9 trends: hand-off + fetch-distribution grow with composition
/// size while dispatch time shrinks; commit handshake grows while the
/// architectural update does not grow.
#[test]
fn fetch_and_commit_breakdown_trends() {
    let cw = compile_workload(&suite::by_name("genalg").unwrap()).unwrap();
    let mut prev_ctl = 0.0;
    let mut first_dispatch = 0.0;
    let mut last_dispatch = 0.0;
    let mut prev_handshake = 0.0;
    for (i, &n) in [2usize, 8, 32].iter().enumerate() {
        let r = run_compiled(&cw, &ProcessorConfig::tflex(n)).unwrap();
        let ps = &r.stats.procs[0];
        let f = ps.fetch_latency();
        let c = ps.commit_latency();
        let ctl = f.hand_off + f.fetch_distribution;
        assert!(
            ctl >= prev_ctl,
            "control overhead must grow with cores: {ctl} < {prev_ctl} at x{n}"
        );
        assert!(
            c.handshake >= prev_handshake,
            "commit handshake must grow with cores"
        );
        if i == 0 {
            first_dispatch = f.dispatch;
        }
        last_dispatch = f.dispatch;
        prev_ctl = ctl;
        prev_handshake = c.handshake;
    }
    assert!(
        last_dispatch <= first_dispatch,
        "dispatch time must shrink as fetch bandwidth scales: {first_dispatch} -> {last_dispatch}"
    );
}

/// Operand bandwidth: halving the mesh bandwidth never speeds things up.
#[test]
fn operand_bandwidth_monotonicity() {
    let cw = compile_workload(&suite::by_name("autocor").unwrap()).unwrap();
    let wide = run_compiled(&cw, &ProcessorConfig::tflex(16)).unwrap();
    let mut narrow_cfg = ProcessorConfig::tflex(16);
    narrow_cfg.sim.operand_net.link_bandwidth = 1;
    let narrow = run_compiled(&cw, &narrow_cfg).unwrap();
    assert!(narrow.stats.cycles >= wide.stats.cycles);
}

/// Same configuration, same inputs: identical cycle counts, for every
/// organization (the simulator is deterministic).
#[test]
fn determinism_across_the_suite() {
    for name in ["conv", "gcc", "equake"] {
        let cw = compile_workload(&suite::by_name(name).unwrap()).unwrap();
        for cfg in [ProcessorConfig::tflex(8), ProcessorConfig::trips()] {
            let a = run_compiled(&cw, &cfg).unwrap();
            let b = run_compiled(&cw, &cfg).unwrap();
            assert_eq!(
                a.stats.cycles, b.stats.cycles,
                "{name} must be deterministic"
            );
        }
    }
}

/// The dependence predictor: a block whose load races its own store makes
/// forward progress (conservative re-execution rather than livelock).
#[test]
fn same_block_store_load_race_terminates() {
    use clp::compiler::{FunctionBuilder, ProgramBuilder};

    // if (c) { a[0] = x; } y = a[0];  — merged into one hyperblock, the
    // load can issue before the predicated store.
    let mut f = FunctionBuilder::new("race", 2);
    let base = f.param(0);
    let c = f.param(1);
    let (tb, eb, join) = (f.new_block(), f.new_block(), f.new_block());
    let x = f.c(77);
    f.branch(c, tb, eb);
    f.switch_to(tb);
    f.store(base, 0, x);
    f.jump(join);
    f.switch_to(eb);
    f.jump(join);
    f.switch_to(join);
    let y = f.load(base, 0);
    f.ret(Some(y));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let program = pb.finish(id);

    let edge = clp::compiler::compile(&program, &clp::compiler::CompileOptions::default())
        .expect("compiles");
    for cores in [1usize, 8] {
        let mut cfg = clp::sim::SimConfig::tflex();
        cfg.deadline = 1_000_000;
        let mut m = clp::sim::Machine::new(cfg);
        m.memory_mut().image.write_u64(0x8000, 5);
        let pid = m.compose(cores, 0, edge.clone(), &[0x8000, 1]).unwrap();
        m.run()
            .unwrap_or_else(|e| panic!("livelock on {cores} cores: {e}"));
        assert_eq!(m.register(pid, clp::isa::Reg::new(1)), 77);
    }
}
