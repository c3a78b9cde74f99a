//! # clp — Composable Lightweight Processors
//!
//! A full-stack reproduction of *"Composable Lightweight Processors"*
//! (Kim et al., MICRO 2007): the TFlex composable chip multiprocessor,
//! its EDGE instruction set, the distributed microarchitectural protocols
//! that make composition work, and the paper's complete evaluation
//! harness.
//!
//! This facade crate re-exports every layer of the stack:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `clp-isa` | block-atomic EDGE ISA, hyperblocks, assembler |
//! | [`compiler`] | `clp-compiler` | mini-IR, if-conversion, EDGE codegen |
//! | [`lint`] | `clp-lint` | semantic static analysis of blocks and programs |
//! | [`noc`] | `clp-noc` | 2-D mesh operand/control networks |
//! | [`predictor`] | `clp-predictor` | composable next-block predictor |
//! | [`mem`] | `clp-mem` | L1 banks, LSQs, S-NUCA L2, coherence, DRAM |
//! | [`obs`] | `clp-obs` | cycle-level tracing + unified stats registry |
//! | [`sim`] | `clp-sim` | the TFlex/TRIPS cycle-level simulator |
//! | [`power`] | `clp-power` | area and energy models |
//! | [`workloads`] | `clp-workloads` | the 26-kernel benchmark suite |
//! | [`baseline`] | `clp-baseline` | conventional out-of-order reference |
//! | [`alloc`] | `clp-alloc` | weighted-speedup core allocation |
//! | [`core`] | `clp-core` | high-level experiment API |
//! | [`serve`] | `clp-serve` | deterministic fault-tolerant job service |
//!
//! ## Quickstart
//!
//! ```
//! use clp::core::{run_workload, ProcessorConfig};
//! use clp::workloads::suite;
//!
//! let kernel = suite::by_name("conv").expect("kernel exists");
//! let result = run_workload(&kernel, &ProcessorConfig::tflex(4)).expect("runs");
//! assert!(result.stats.cycles > 0);
//! ```

pub use clp_alloc as alloc;
pub use clp_baseline as baseline;
pub use clp_compiler as compiler;
pub use clp_core as core;
pub use clp_isa as isa;
pub use clp_lint as lint;
pub use clp_mem as mem;
pub use clp_noc as noc;
pub use clp_obs as obs;
pub use clp_power as power;
pub use clp_predictor as predictor;
pub use clp_serve as serve;
pub use clp_sim as sim;
pub use clp_workloads as workloads;
