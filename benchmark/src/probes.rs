//! Seeded micro-probes of the layers a whole-cell timing cannot
//! separate: the operand mesh, an LSQ bank, the composed predictor and
//! the assembler. Each returns a value that must repeat, so a probe
//! that stops doing its work fails the run.

use clp_core::CompiledWorkload;
use clp_isa::{asm, EdgeProgram, InstId, Operand, Target};
use clp_mem::{LsqBank, LsqInsert, MemoryImage};
use clp_noc::{Mesh, MeshConfig, NodeId};
use clp_predictor::{ComposedPredictor, ExitOutcome, PredictorConfig};
use clp_sim::fault::Prng;

/// Messages one mesh probe delivers.
pub const NOC_MESSAGES: u64 = 4096;
/// Messages injected between two mesh steps.
const NOC_BURST: u64 = 8;
/// Loads and stores one LSQ probe executes.
pub const LSQ_OPS: u64 = 4096;
/// Entries of a TFlex LSQ bank.
const LSQ_CAPACITY: usize = 44;
/// Cores the probed predictor is composed over.
const PREDICTOR_CORES: usize = 8;

/// Uniform random traffic through the 32-node operand mesh, eight
/// injections per cycle; returns the link traversals it took.
pub fn noc(seed: u64) -> Result<u64, String> {
    let mut prng = Prng::new(seed);
    let mut mesh: Mesh<Target> = Mesh::new(MeshConfig::tflex_operand());
    let nodes = mesh.config().nodes() as u64;
    let (mut injected, mut delivered) = (0, 0);
    while injected < NOC_MESSAGES || !mesh.is_idle() {
        for _ in 0..NOC_BURST.min(NOC_MESSAGES - injected) {
            let src = NodeId(prng.next_below(nodes) as usize);
            let dst = NodeId(prng.next_below(nodes) as usize);
            let slot = InstId::new((injected % 128) as usize);
            mesh.inject(src, dst, Target::new(slot, Operand::Left));
            injected += 1;
        }
        mesh.step();
        delivered += mesh.drain_delivered().len() as u64;
    }
    if delivered == injected {
        Ok(mesh.stats().link_traversals)
    } else {
        Err(format!("mesh delivered {delivered} of {injected} messages"))
    }
}

/// A seeded stream of loads and stores over 64 words through one LSQ
/// bank, committed whenever the bank fills; returns a checksum of every
/// loaded value and the final image.
pub fn lsq(seed: u64) -> u64 {
    let mut prng = Prng::new(seed);
    let mut image = MemoryImage::new();
    let mut bank = LsqBank::new(LSQ_CAPACITY);
    let mut sum = 0u64;
    let mut committed = 0;
    for seq in 0..LSQ_OPS {
        let addr = 0x1000 + 8 * prng.next_below(64);
        let outcome = if prng.next_below(2) == 0 {
            bank.execute_store(seq, addr, 8, seq).is_nack()
        } else {
            match bank.execute_load(seq, addr, 8, &image) {
                LsqInsert::Ok(v) => {
                    sum = sum.wrapping_mul(31).wrapping_add(v);
                    false
                }
                LsqInsert::Nack => true,
            }
        };
        assert!(!outcome, "the bank is committed before it fills");
        if bank.len() == LSQ_CAPACITY {
            bank.commit_range(committed, seq + 1, &mut image);
            committed = seq + 1;
        }
    }
    bank.commit_range(committed, LSQ_OPS, &mut image);
    (0..64).fold(sum, |s, w| {
        s.wrapping_mul(31)
            .wrapping_add(image.read_u64(0x1000 + 8 * w))
    })
}

/// Blocks one predictor probe predicts and resolves.
pub fn predictor_blocks(kernels: &[CompiledWorkload]) -> usize {
    kernels.iter().map(|cw| cw.edge.len()).sum()
}

/// `predict` + `resolve` over every block of every kernel, in address
/// order, the seed picking which exit each block takes; returns the
/// mispredictions counted.
pub fn predictor(seed: u64, kernels: &[CompiledWorkload]) -> u64 {
    let mut prng = Prng::new(seed);
    let mut misses = 0;
    for cw in kernels {
        let mut p = ComposedPredictor::new(PredictorConfig::tflex(), PREDICTOR_CORES);
        for (&addr, block) in cw.edge.iter() {
            let exits = block.exits();
            let exit = &exits[prng.next_below(exits.len() as u64) as usize];
            let pred = p.predict(addr);
            let actual = ExitOutcome {
                exit_id: exit.exit_id,
                kind: exit.kind,
                target: exit.target.unwrap_or(addr),
            };
            let miss = pred.target != actual.target;
            p.resolve(addr, &pred, &actual, miss);
        }
        misses += p.stats().mispredictions;
    }
    misses
}

/// Formats a program as assembly and parses it back; returns the
/// length of the text.
pub fn asm_roundtrip(program: &EdgeProgram) -> Result<u64, String> {
    let text = asm::format_program(program);
    let parsed = asm::parse_program(&text).map_err(|e| format!("assembly round trip: {e}"))?;
    if parsed == *program {
        Ok(text.len() as u64)
    } else {
        Err("assembly round trip changed the program".to_string())
    }
}
