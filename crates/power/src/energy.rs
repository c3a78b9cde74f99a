//! Event energies and the power breakdown computation.

use crate::area::AreaModel;
use clp_sim::RunStats;

// Per-event energies in nanojoules (130 nm, 1.5 V).

/// Integer ALU operation.
const INT_OP: f64 = 0.10;
/// Floating-point operation.
const FP_OP: f64 = 0.45;
/// Register-bank read or write.
const REG_ACCESS: f64 = 0.06;
/// Issue-window wakeup/select per fired instruction.
const WINDOW: f64 = 0.06;
/// I-cache access (per line).
const ICACHE: f64 = 0.16;
/// D-cache access.
const DCACHE: f64 = 0.22;
/// LSQ associative search.
const LSQ: f64 = 0.16;
/// Predictor lookup + update.
const PREDICTOR: f64 = 0.10;
/// One operand-router link traversal.
const ROUTER_HOP: f64 = 0.05;
/// L2 bank access.
const L2: f64 = 0.70;
/// DRAM access (row activation amortized) + I/O.
const DRAM: f64 = 12.0;
/// Clock tree + latches, per active core per cycle.
const CLOCK_PER_CORE_CYCLE: f64 = 0.85;
/// Clock/latch energy per TRIPS tile-cycle. A tile is single-issue and
/// smaller than a TFlex core, but always carries an FPU and the
/// prototype has no clock gating (§6.3).
const TRIPS_TILE_CLOCK: f64 = 0.62;
/// Leakage power density in W/mm² (yields the paper's 8-10% of total).
const LEAKAGE_W_PER_MM2: f64 = 0.0042;
/// Clock frequency in Hz (366 MHz, the TRIPS prototype).
const FREQUENCY: f64 = 366.0e6;

/// The per-event energy model: the constants above.
///
/// The evaluation uses one 130 nm estimate, so the type has no fields.
/// It only keeps `benchmark/` compiling (`EnergyModel::at_130nm().power(..)`)
/// and is removed by the benchmark PR of ROADMAP 1(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnergyModel;

impl EnergyModel {
    /// The 130 nm estimates used throughout the evaluation.
    #[must_use]
    pub fn at_130nm() -> Self {
        EnergyModel
    }
}

/// What was running, for clock/leakage accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerConfig {
    /// Cores participating (clocked) during the run.
    pub active_cores: usize,
    /// TRIPS mode: 16 always-clocked tiles, each with an FPU.
    pub trips: bool,
}

impl PowerConfig {
    /// A TFlex composition of `n` cores.
    #[must_use]
    pub fn tflex(n: usize) -> Self {
        PowerConfig {
            active_cores: n,
            trips: false,
        }
    }

    /// The TRIPS processor.
    #[must_use]
    pub fn trips() -> Self {
        PowerConfig {
            active_cores: 16,
            trips: true,
        }
    }
}

/// Average power by category, in watts (the Table 2 breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Instruction supply: I-cache, predictor, dispatch.
    pub fetch: f64,
    /// Execution: ALUs, register files, issue window.
    pub execution: f64,
    /// L1 data cache + LSQ.
    pub l1d: f64,
    /// Operand/control routers.
    pub routers: f64,
    /// L2 cache.
    pub l2: f64,
    /// DRAM and I/O.
    pub dram_io: f64,
    /// Clock tree and latches.
    pub clock: f64,
    /// Leakage.
    pub leakage: f64,
}

impl PowerBreakdown {
    /// Total power in watts.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.fetch
            + self.execution
            + self.l1d
            + self.routers
            + self.l2
            + self.dram_io
            + self.clock
            + self.leakage
    }

    /// Leakage fraction of total power.
    #[must_use]
    pub fn leakage_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.leakage / self.total()
        }
    }

    /// Renders the Table 2 power rows.
    #[must_use]
    pub fn table_row(&self, label: &str) -> String {
        format!(
            "  {label:<14} fetch {:.2}W  exec {:.2}W  L1D {:.2}W  routers {:.2}W  L2 {:.2}W  DRAM/IO {:.2}W  clock {:.2}W  leak {:.2}W  | total {:.2}W",
            self.fetch,
            self.execution,
            self.l1d,
            self.routers,
            self.l2,
            self.dram_io,
            self.clock,
            self.leakage,
            self.total()
        )
    }
}

impl EnergyModel {
    /// Computes the average power breakdown of a completed run.
    #[must_use]
    pub fn power(&self, stats: &RunStats, cfg: &PowerConfig, area: &AreaModel) -> PowerBreakdown {
        let cycles = stats.cycles.max(1) as f64;
        let seconds = cycles / FREQUENCY;
        let nj = 1.0e-9 / seconds; // W per nJ of total energy

        let mut fetch_e = 0.0;
        let mut exec_e = 0.0;
        let mut pred_events = 0.0;
        let mut dispatched = 0.0;
        for p in &stats.procs {
            pred_events += p.predictor.predictions as f64;
            dispatched += p.insts_dispatched as f64;
            exec_e += p.int_ops as f64 * INT_OP
                + p.fp_ops as f64 * FP_OP
                + (p.reg_reads + p.reg_writes) as f64 * REG_ACCESS
                + p.insts_fired as f64 * WINDOW;
        }
        fetch_e += (stats.mem.l1i_hits + stats.mem.l1i_misses) as f64 * ICACHE
            + pred_events * PREDICTOR
            + dispatched * WINDOW * 0.5;

        let l1d_e = (stats.mem.l1d_hits + stats.mem.l1d_misses) as f64 * DCACHE
            + stats.mem.lsq_searches as f64 * LSQ;
        let router_e = stats.operand_net.link_traversals as f64 * ROUTER_HOP;
        let l2_e = (stats.mem.l2_hits + stats.mem.l2_misses) as f64 * L2;
        let dram_e = stats.mem.dram_accesses as f64 * DRAM;

        let per_core = if cfg.trips {
            TRIPS_TILE_CLOCK
        } else {
            CLOCK_PER_CORE_CYCLE
        };
        let clock_e = cycles * cfg.active_cores as f64 * per_core;

        let area_mm2 = if cfg.trips {
            area.trips_mm2()
        } else {
            area.tflex_mm2(cfg.active_cores)
        };
        let leakage_w = area_mm2 * LEAKAGE_W_PER_MM2;

        PowerBreakdown {
            fetch: fetch_e * nj,
            execution: exec_e * nj,
            l1d: l1d_e * nj,
            routers: router_e * nj,
            l2: l2_e * nj,
            dram_io: dram_e * nj,
            clock: clock_e * nj,
            leakage: leakage_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_sim::ProcStats;

    fn fake_stats(cycles: u64) -> RunStats {
        let mut procs = vec![ProcStats::default()];
        procs[0].int_ops = 1_000_000;
        procs[0].fp_ops = 100_000;
        procs[0].reg_reads = 400_000;
        procs[0].reg_writes = 200_000;
        procs[0].insts_fired = 1_200_000;
        procs[0].insts_dispatched = 1_300_000;
        procs[0].predictor.predictions = 10_000;
        let mut s = RunStats {
            cycles,
            procs,
            ..Default::default()
        };
        s.mem.l1d_hits = 300_000;
        s.mem.l1d_misses = 10_000;
        s.mem.l1i_hits = 90_000;
        s.mem.l1i_misses = 2_000;
        s.mem.lsq_searches = 310_000;
        s.mem.l2_hits = 11_000;
        s.mem.l2_misses = 1_000;
        s.mem.dram_accesses = 1_200;
        s.operand_net.link_traversals = 900_000;
        s
    }

    #[test]
    fn leakage_lands_in_the_8_to_10_percent_band() {
        let e = EnergyModel::at_130nm();
        let p = e.power(
            &fake_stats(1_000_000),
            &PowerConfig::tflex(8),
            &AreaModel::at_130nm(),
        );
        let frac = p.leakage_fraction();
        assert!(
            (0.05..=0.15).contains(&frac),
            "leakage fraction {frac:.3} out of plausible band"
        );
    }

    #[test]
    fn clock_scales_with_active_cores() {
        let e = EnergyModel::at_130nm();
        let a = AreaModel::at_130nm();
        let s = fake_stats(1_000_000);
        let p2 = e.power(&s, &PowerConfig::tflex(2), &a);
        let p16 = e.power(&s, &PowerConfig::tflex(16), &a);
        assert!(p16.clock > 7.0 * p2.clock / 1.01);
    }

    #[test]
    fn trips_clock_exceeds_8_core_tflex() {
        // Same dynamic events: TRIPS pays 16 tiles with FPUs vs 8 cores.
        let e = EnergyModel::at_130nm();
        let a = AreaModel::at_130nm();
        let s = fake_stats(1_000_000);
        let trips = e.power(&s, &PowerConfig::trips(), &a);
        let tflex8 = e.power(&s, &PowerConfig::tflex(8), &a);
        assert!(trips.clock > tflex8.clock * 1.2);
        assert!(trips.total() > tflex8.total());
    }

    #[test]
    fn table_row_mentions_all_categories() {
        let e = EnergyModel::at_130nm();
        let p = e.power(
            &fake_stats(1_000_000),
            &PowerConfig::tflex(4),
            &AreaModel::at_130nm(),
        );
        let row = p.table_row("tflex-4");
        for k in [
            "fetch", "exec", "L1D", "routers", "L2", "DRAM/IO", "clock", "leak", "total",
        ] {
            assert!(row.contains(k), "missing {k}: {row}");
        }
    }
}
