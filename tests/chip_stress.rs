//! Chip-wide stress: the Figure 1 configurations — (a) maximum TLP with
//! 32 single-core processors, and (b) a mixed-granularity chip — all
//! running simultaneously with shared L2/DRAM, every program verified.

use clp::core::{compile_workload, ProcessorConfig};
use clp::isa::Reg;
use clp::sim::Machine;
use clp::workloads::suite;

/// Figure 1a: 32 independent single-core processors.
#[test]
fn thirty_two_single_core_threads() {
    let names = ["a2time", "rspeed", "tblook", "parser"];
    let compiled: Vec<_> = names
        .iter()
        .map(|n| compile_workload(&suite::by_name(n).unwrap()).unwrap())
        .collect();

    let mut m = Machine::new(ProcessorConfig::tflex(1).sim);
    let mut pids = Vec::new();
    for idx in 0..32 {
        let cw = &compiled[idx % compiled.len()];
        let pid = m
            .compose(1, idx, cw.edge.clone(), &cw.workload.args)
            .unwrap_or_else(|e| panic!("compose {idx}: {e}"));
        let base = m.addr_base(pid);
        for (addr, words) in &cw.workload.init_mem {
            m.memory_mut().image.load_words(base + addr, words);
        }
        pids.push((pid, idx % compiled.len()));
    }
    let stats = m.run().expect("all 32 run to completion");
    assert_eq!(stats.procs.len(), 32);

    for (pid, wi) in pids {
        let cw = &compiled[wi];
        let ret = m.register(pid, Reg::new(1));
        // Verify ret and regions within this processor's address space.
        cw.workload
            .verify_at(&cw.golden, ret, &m.memory().image, m.addr_base(pid))
            .unwrap_or_else(|e| panic!("proc {pid:?} ({}): {e}", cw.workload.name));
    }
}

/// Figure 1b: an energy-style mixed-granularity configuration
/// (8 processors: 8+8+4+4+2+2+2+2 cores).
#[test]
fn mixed_granularity_chip_of_eight_processors() {
    let plan: [(usize, &str); 8] = [
        (8, "conv"),
        (8, "autocor"),
        (4, "bezier"),
        (4, "genalg"),
        (2, "rspeed"),
        (2, "tblook"),
        (2, "a2time"),
        (2, "parser"),
    ];
    let specs: Vec<clp::core::ProgramSpec> = plan
        .iter()
        .map(|&(cores, name)| clp::core::ProgramSpec {
            workload: suite::by_name(name).unwrap(),
            cores,
        })
        .collect();
    let out = clp::core::run_multiprogram(&specs).expect("chip runs");
    for (i, ok) in out.correct.iter().enumerate() {
        assert!(ok, "program {} ({}) incorrect", i, plan[i].1);
    }
    // Shared-L2 contention exists: some L2 traffic from multiple procs.
    assert!(out.stats.mem.l2_hits + out.stats.mem.l2_misses > 8);
}

/// A chip wider than the L2 directory's sharer vector is refused when
/// the machine is built, not partway into a run: an 8×8 mesh used to
/// overflow a core mask in the scheduler (debug) or index past the end
/// of a 32-entry table at commit (release).
#[test]
#[should_panic(
    expected = "a 64-core chip is too big: the L2 directory's sharer vector \
                and the scheduler's core masks hold 32 cores"
)]
fn a_chip_of_64_cores_is_refused_at_construction() {
    let mut cfg = ProcessorConfig::tflex(64).sim;
    cfg.operand_net.width = 8;
    cfg.operand_net.height = 8;
    let _ = Machine::new(cfg);
}
