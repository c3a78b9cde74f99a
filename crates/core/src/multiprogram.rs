//! Multiprogrammed execution: several workloads simultaneously on
//! disjoint compositions of one chip, sharing the L2 and DRAM.

use crate::run::{compile_workload, ProcessorConfig, RunFailure};
use clp_isa::Reg;
use clp_obs::StatsSnapshot;
use clp_sim::{Machine, ProcId, RunStats};
use clp_workloads::Workload;
use std::fmt;

/// One entry of a multiprogrammed workload: a benchmark and the number
/// of cores its logical processor gets.
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    /// The benchmark.
    pub workload: Workload,
    /// Composition size (power of two).
    pub cores: usize,
}

/// Why a program of a multiprogrammed mix could not be placed on the
/// chip. Region exhaustion is a *schedulable* condition — a service can
/// hold the job until a region frees up, shrink the request, or reject
/// it with a typed error — so it must never crash the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// The specs together ask for more cores than the chip has.
    Oversubscribed {
        /// Total cores requested across all specs.
        requested: usize,
        /// Cores the chip has.
        capacity: usize,
    },
    /// No free aligned region of the requested size exists (either the
    /// size has no tiling on this mesh, or every candidate region
    /// overlaps an earlier placement).
    NoFreeRegion {
        /// The composition size that could not be placed.
        cores: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::Oversubscribed {
                requested,
                capacity,
            } => {
                write!(f, "{requested} cores requested, chip has {capacity}")
            }
            PlacementError::NoFreeRegion { cores } => {
                write!(f, "no free {cores}-core region")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Result of a multiprogrammed run.
#[derive(Clone, Debug)]
pub struct MultiOutcome {
    /// Chip statistics (per-processor counters inside).
    pub stats: RunStats,
    /// The unified stats registry for the run — the `compose/*` node
    /// records every composition made while packing the chip.
    pub snapshot: StatsSnapshot,
    /// Per-program cycle counts (until each halted).
    pub cycles: Vec<u64>,
    /// Per-program verification status.
    pub correct: Vec<bool>,
}

/// Runs several programs simultaneously on one chip. Core regions are
/// packed largest-first so every composition is aligned; the combined
/// sizes must fit the 32-core chip.
///
/// Inter-processor contention for the shared L2 and memory is modeled
/// (the processors share one memory system); each program
/// runs in its own address space. Composition decisions surface in the
/// snapshot's `compose/*` counters.
///
/// # Errors
///
/// Returns [`RunFailure::Placement`] if the specs do not fit (total
/// oversubscription or region exhaustion), or another [`RunFailure`] if
/// a program fails to compile or the simulation fails. An output
/// mismatch is not an error: it reads `false` in
/// [`MultiOutcome::correct`].
pub fn run_multiprogram(specs: &[ProgramSpec]) -> Result<MultiOutcome, RunFailure> {
    let total: usize = specs.iter().map(|s| s.cores).sum();
    if total > 32 {
        return Err(RunFailure::Placement(PlacementError::Oversubscribed {
            requested: total,
            capacity: 32,
        }));
    }

    // Place largest-first (best-fit packing), remembering original order.
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(specs[i].cores));

    let cfg = ProcessorConfig::tflex(32).sim;
    let mut m = Machine::new(cfg);
    let mut compiled = Vec::with_capacity(specs.len());
    for s in specs {
        compiled.push(compile_workload(&s.workload)?);
    }

    let mut pids: Vec<Option<ProcId>> = vec![None; specs.len()];
    let mut used = [false; 32];
    for &i in &order {
        let s = &specs[i];
        // First-fit over the standard tiling: regions are rectangles, so
        // a simple linear offset does not work for mixed sizes.
        let mesh = clp_noc::MeshConfig::tflex_operand();
        let index = (0..32 / s.cores.max(1))
            .find(|&idx| {
                clp_noc::region_for(&mesh, s.cores, idx)
                    .map(|nodes| nodes.iter().all(|n| !used[n.0]))
                    .unwrap_or(false)
            })
            .ok_or(RunFailure::Placement(PlacementError::NoFreeRegion {
                cores: s.cores,
            }))?;
        for n in clp_noc::region_for(&mesh, s.cores, index).expect("checked") {
            used[n.0] = true;
        }
        let pid = m
            .compose(s.cores, index, compiled[i].edge.clone(), &s.workload.args)
            .map_err(RunFailure::Compose)?;
        // Load this program's memory into its own address space.
        let base = m.addr_base(pid);
        for (addr, words) in &s.workload.init_mem {
            m.memory_mut().image.load_words(base + addr, words);
        }
        pids[i] = Some(pid);
    }

    let stats = m.run().map_err(RunFailure::Run)?;
    let snapshot = m.snapshot();

    let mut cycles = Vec::with_capacity(specs.len());
    let mut correct = Vec::with_capacity(specs.len());
    for (i, s) in specs.iter().enumerate() {
        let pid = pids[i].expect("composed");
        let ret = m.register(pid, Reg::new(1));
        // Verify within the program's own address space.
        let (golden, image) = (&compiled[i].golden, &m.memory().image);
        let verified = s.workload.verify_at(golden, ret, image, m.addr_base(pid));
        correct.push(verified.is_ok());
        cycles.push(stats.procs[pid.0].cycles);
    }
    Ok(MultiOutcome {
        stats,
        snapshot,
        cycles,
        correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_workloads::suite;

    #[test]
    fn two_programs_share_the_chip_correctly() {
        let specs = vec![
            ProgramSpec {
                workload: suite::by_name("conv").unwrap(),
                cores: 8,
            },
            ProgramSpec {
                workload: suite::by_name("bezier").unwrap(),
                cores: 4,
            },
        ];
        let out = run_multiprogram(&specs).expect("runs");
        assert!(out.correct.iter().all(|&c| c), "all programs correct");
        assert!(out.cycles.iter().all(|&c| c > 0));
        assert_eq!(out.stats.procs.len(), 2);
    }

    #[test]
    fn compose_decisions_surface_in_the_snapshot() {
        let specs = vec![
            ProgramSpec {
                workload: suite::by_name("conv").unwrap(),
                cores: 8,
            },
            ProgramSpec {
                workload: suite::by_name("bezier").unwrap(),
                cores: 4,
            },
        ];
        let out = run_multiprogram(&specs).expect("runs");
        assert_eq!(out.snapshot.expect("compose/compositions"), 2.0);
        assert_eq!(out.snapshot.expect("compose/cores_allocated"), 12.0);
        assert_eq!(out.snapshot.expect("compose/decompositions"), 0.0);
    }

    #[test]
    fn same_program_twice_is_isolated() {
        // Identical virtual layouts must not interfere.
        let w = suite::by_name("autocor").unwrap();
        let specs = vec![
            ProgramSpec {
                workload: w.clone(),
                cores: 4,
            },
            ProgramSpec {
                workload: w,
                cores: 4,
            },
        ];
        let out = run_multiprogram(&specs).expect("runs");
        assert!(out.correct.iter().all(|&c| c));
    }

    #[test]
    fn asymmetric_mix_runs() {
        let specs = vec![
            ProgramSpec {
                workload: suite::by_name("conv").unwrap(),
                cores: 16,
            },
            ProgramSpec {
                workload: suite::by_name("tblook").unwrap(),
                cores: 2,
            },
            ProgramSpec {
                workload: suite::by_name("rspeed").unwrap(),
                cores: 2,
            },
        ];
        let out = run_multiprogram(&specs).expect("runs");
        assert!(out.correct.iter().all(|&c| c));
    }

    #[test]
    fn oversubscription_rejected_with_typed_error() {
        let w = suite::by_name("conv").unwrap();
        let specs: Vec<ProgramSpec> = (0..3)
            .map(|_| ProgramSpec {
                workload: w.clone(),
                cores: 16,
            })
            .collect();
        match run_multiprogram(&specs) {
            Err(RunFailure::Placement(PlacementError::Oversubscribed {
                requested,
                capacity,
            })) => {
                assert_eq!(requested, 48);
                assert_eq!(capacity, 32);
            }
            other => panic!("expected Oversubscribed, got {other:?}"),
        }
    }

    #[test]
    fn untileable_size_rejected_with_typed_error() {
        // 3 is not a power of two, so no aligned region exists for it:
        // the placement loop must report NoFreeRegion, not panic.
        let specs = vec![ProgramSpec {
            workload: suite::by_name("conv").unwrap(),
            cores: 3,
        }];
        match run_multiprogram(&specs) {
            Err(RunFailure::Placement(PlacementError::NoFreeRegion { cores })) => {
                assert_eq!(cores, 3);
            }
            other => panic!("expected NoFreeRegion, got {other:?}"),
        }
    }

    #[test]
    fn placement_errors_are_transient() {
        use crate::run::FailureClass;
        let e = RunFailure::Placement(PlacementError::NoFreeRegion { cores: 8 });
        assert_eq!(e.class(), FailureClass::Transient);
    }
}
