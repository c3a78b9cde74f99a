//! The chip every logical processor shares: clock, memory system,
//! operand mesh, control-message timing, event wheel, tracer, fault
//! injector and hard-fault state.
//!
//! A pipeline stage borrows the [`Fabric`] and one `Proc` side by side
//! (`Machine::step` splits the two), so nothing here knows about
//! processors beyond the ids that messages carry.

use super::prof::ProfAcc;
use super::state::{Ev, OpMsg, WaitingRead};
use crate::config::{ProtocolTiming, SimConfig};
use crate::events::EventWheel;
use crate::fault::{CoreKill, FaultInjector, FaultKind};
use crate::stats::{ComposeStats, RecoveryStats};
use clp_mem::{MemorySystem, MAX_CHIP_CORES};
use clp_noc::{Mesh, NodeId};
use clp_obs::{TraceEvent, Tracer};

pub(super) struct Fabric {
    pub(super) cfg: SimConfig,
    pub(super) now: u64,
    pub(super) mem: MemorySystem,
    pub(super) opnet: Mesh<OpMsg>,
    pub(super) local: EventWheel<Ev>,
    /// Control-message latency between every pair of chip cores, indexed
    /// `a * core_map.len() + b`: one cycle plus (under modeled timing)
    /// the Manhattan hops of [`clp_noc::MeshConfig::hops`].
    ctrl_delays: Vec<u64>,
    /// global core -> (proc, participant index)
    pub(super) core_map: Vec<Option<(usize, usize)>>,
    /// Last cycle any processor made progress (the deadlock window).
    pub(super) last_progress: u64,
    pub(super) tracer: Tracer,
    /// Deterministic fault injector (inert under `FaultPlan::none()`:
    /// zero PRNG draws, zero scheduling changes).
    pub(super) faults: FaultInjector,
    /// Whether the fault plan schedules hard core kills. When false the
    /// watchdog and every dead-core check are skipped entirely, keeping
    /// kill-free runs bit-identical to builds without this machinery.
    pub(super) has_kills: bool,
    /// Scheduled kills not yet applied, sorted by kill cycle.
    pub(super) pending_kills: Vec<CoreKill>,
    /// Per global core: permanently silenced by a hard fault.
    pub(super) dead: Vec<bool>,
    /// Per global core: cycle the kill fired (for detection latency).
    pub(super) killed_at: Vec<Option<u64>>,
    /// Per global core: the watchdog already declared it dead.
    pub(super) declared_dead: Vec<bool>,
    /// Hard-fault detection/recomposition counters.
    pub(super) recovery_stats: RecoveryStats,
    /// `(cycle, insts_dispatched)` when the first recovery completed;
    /// everything after it is the degraded-mode portion of the run.
    pub(super) recovery_mark: Option<(u64, u64)>,
    /// Composition-allocation counters (observation only).
    pub(super) compose_stats: ComposeStats,
    /// clp-prof accumulator; `None` (the default) keeps every hook down
    /// to a single branch and the run bit-identical to unprofiled builds.
    pub(super) prof: Option<Box<ProfAcc>>,
    /// Reusable scratch buffers for the per-cycle stages, so the hot
    /// loop never allocates. Each is empty between uses.
    pub(super) scratch_reads: Vec<WaitingRead>,
    pub(super) scratch_evs: Vec<Ev>,
    pub(super) scratch_delivered: Vec<(NodeId, OpMsg)>,
}

/// The control-message latency table, `a * cores + b`, by coordinates:
/// one cycle plus, under modeled timing, the entry of
/// [`clp_noc::MeshConfig::hops`] for each pair, without its per-call
/// range checks and divisions.
fn ctrl_delay_table(cfg: &SimConfig) -> Vec<u64> {
    let cores = cfg.chip_cores();
    if cfg.protocol == ProtocolTiming::Instant {
        return vec![1; cores * cores];
    }
    let w = cfg.operand_net.width;
    let xy: Vec<(usize, usize)> = (0..cores).map(|c| (c % w, c / w)).collect();
    let mut delays = Vec::with_capacity(cores * cores);
    for &(ax, ay) in &xy {
        for &(bx, by) in &xy {
            delays.push(1 + (ax.abs_diff(bx) + ay.abs_diff(by)) as u64);
        }
    }
    delays
}

impl Fabric {
    pub(super) fn new(cfg: SimConfig) -> Self {
        let cores = cfg.chip_cores();
        assert!(
            cores <= MAX_CHIP_CORES,
            "a {cores}-core chip is too big: the L2 directory's sharer vector \
             and the scheduler's core masks hold {MAX_CHIP_CORES} cores"
        );
        let mut pending_kills: Vec<CoreKill> = cfg.faults.kills().collect();
        pending_kills.sort_by_key(|k| (k.cycle, k.core));
        let ctrl_delays = ctrl_delay_table(&cfg);
        Fabric {
            now: 0,
            mem: MemorySystem::new(cores),
            opnet: Mesh::new(cfg.operand_net),
            local: EventWheel::new(),
            ctrl_delays,
            core_map: vec![None; cores],
            last_progress: 0,
            tracer: Tracer::off(),
            faults: FaultInjector::new(cfg.faults),
            has_kills: !pending_kills.is_empty(),
            pending_kills,
            dead: vec![false; cores],
            killed_at: vec![None; cores],
            declared_dead: vec![false; cores],
            recovery_stats: RecoveryStats::default(),
            recovery_mark: None,
            compose_stats: ComposeStats::default(),
            prof: None,
            scratch_reads: Vec::new(),
            scratch_evs: Vec::new(),
            scratch_delivered: Vec::new(),
            cfg,
        }
    }

    #[inline]
    pub(super) fn ctrl_delay(&self, a: usize, b: usize) -> u64 {
        self.ctrl_delays[a * self.core_map.len() + b]
    }

    /// The slowest control message from `from` to any of `cores`: what
    /// a broadcast (flush, dealloc, heartbeat probe) waits for.
    pub(super) fn max_ctrl_delay(&self, from: usize, cores: &[usize]) -> u64 {
        let delays = cores.iter().map(|&c| self.ctrl_delay(from, c));
        delays.max().unwrap_or(1)
    }

    /// Whether a hard fault silenced global core `core`: a dead core's
    /// stages stop, deliveries to it vanish and nothing it had queued
    /// ever leaves.
    #[inline]
    pub(super) fn is_dead(&self, core: usize) -> bool {
        self.has_kills && self.dead[core]
    }

    /// Records observable protocol progress: resets the deadlock window
    /// and returns `now` for the watchdog's silence timer of the
    /// processor that made it (`p.last_beat = fab.beat()`).
    pub(super) fn beat(&mut self) -> u64 {
        self.last_progress = self.now;
        self.now
    }

    pub(super) fn push_local(&mut self, at: u64, ev: Ev) {
        let at = at.max(self.now + 1);
        self.local.schedule(self.now, at, ev);
    }

    /// One decision point of fault `kind` on behalf of `core`: the
    /// injector draws (and counts what it injects) and a hit is traced
    /// with its extra cycles. Fault-free plans never reach the PRNG.
    pub(super) fn fault(&mut self, kind: FaultKind, core: usize) -> Option<u64> {
        if !self.faults.active() {
            return None;
        }
        let extra_cycles = self.faults.draw(kind)?;
        self.tracer.emit(self.now, || TraceEvent::FaultInjected {
            kind: kind.label(),
            core,
            extra_cycles,
        });
        Some(extra_cycles)
    }

    /// Sends an operand-class message from core `from` to core `to`:
    /// within a core it arrives next cycle through the event wheel,
    /// otherwise it crosses the mesh.
    pub(super) fn deliver(&mut self, from: usize, to: usize, msg: OpMsg) {
        if from == to {
            self.push_local(self.now + 1, Ev::Op(to as u8, msg));
        } else if let Some(extra) = self.fault(FaultKind::NocDelay, from) {
            // Held back first, as by a slow or retried link.
            let (from, to) = (from as u8, to as u8);
            self.push_local(self.now + extra, Ev::Inject { from, to, msg });
        } else {
            self.opnet.inject(NodeId(from), NodeId(to), msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_noc::MeshConfig;

    #[test]
    fn ctrl_delays_are_one_plus_the_mesh_hops() {
        for net in [MeshConfig::tflex_operand(), MeshConfig::trips_operand()] {
            for protocol in [ProtocolTiming::Modeled, ProtocolTiming::Instant] {
                let cfg = SimConfig {
                    operand_net: net,
                    protocol,
                    ..SimConfig::default()
                };
                let fab = Fabric::new(cfg);
                let cores = net.nodes();
                for (a, b) in (0..cores).flat_map(|a| (0..cores).map(move |b| (a, b))) {
                    let hops = match protocol {
                        ProtocolTiming::Instant => 0,
                        ProtocolTiming::Modeled => net.hops(NodeId(a), NodeId(b)) as u64,
                    };
                    assert_eq!(fab.ctrl_delay(a, b), 1 + hops, "{protocol:?} {a} -> {b}");
                }
            }
        }
    }
}
