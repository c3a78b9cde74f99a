//! Deterministic fault injection for the distributed protocols.
//!
//! The paper's central claim is that TFlex's fully distributed protocols
//! — fetch hand-off, next-block prediction, operand routing, LSQ
//! NACK/replay, and atomic commit/flush — stay *correct* at every
//! composition from 1 to 32 cores. The happy path exercises very little
//! of that recovery machinery, so this module perturbs the protocols
//! in-flight: it adds operand-NoC hop delays, throttles the mesh into
//! contention bursts, forces LSQ NACKs, flips next-block predictions,
//! spikes DRAM latency, and delays block hand-offs.
//!
//! Two invariants define the layer:
//!
//! 1. **Faults cost cycles, never correctness.** Every perturbation maps
//!    onto a legal timing the protocols must already tolerate (a slower
//!    link, a fuller LSQ, a colder DRAM, a wrong prediction), so an
//!    injected run still verifies against the interpreter golden and
//!    terminates under the existing watchdog.
//! 2. **Determinism.** All randomness comes from a seeded [`Prng`] (a
//!    SplitMix64-initialized xorshift64*, no wall-clock anywhere), and a
//!    rate of zero never consumes PRNG state — so the same seed + the
//!    same plan always reproduces the same cycle count, and
//!    [`FaultPlan::none`] is bit-identical to a build without the layer.
//!
//! Each [`FaultKind`] is one row of a single table: its label (in
//! `--faults` specs and `fault_injected` trace events), its `faults/*`
//! stat names, and how large one injection is. A plan is one per-mille
//! rate (0–1000) per row, so it stays integer-valued and `Eq`-comparable
//! alongside [`SimConfig`](crate::SimConfig); the injector has one
//! `FaultInjector::draw` for every row.

use std::fmt;

/// A small deterministic PRNG: SplitMix64 seeding + xorshift64* stream.
///
/// No external crate, no wall-clock, no global state — the sequence is a
/// pure function of the seed, which is what the determinism guarantee
/// (same seed + same plan ⇒ same cycle count) rests on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from `seed` (any value, including 0, is fine:
    /// SplitMix64 scrambling guarantees a nonzero internal state).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // SplitMix64 finalizer — decorrelates consecutive seeds.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Prng {
            state: if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z },
        }
    }

    /// Next 64 pseudo-random bits (xorshift64*).
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// A scheduled permanent core failure: at `cycle`, global core `core`'s
/// pipelines and NoC ports go silent forever.
///
/// Unlike the rate-drawn [`FaultKind`]s, a kill is a *hard* fault: it is
/// scheduled at an exact cycle rather than rolled per decision point
/// (the whole point is that survivors must *detect* the silence through
/// the heartbeat watchdog, then recompose without the dead core). Kills
/// therefore live in their own fixed-size slot list on [`FaultPlan`]
/// instead of carrying a per-mille rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoreKill {
    /// Global core index (0..chip cores) to silence.
    pub core: u16,
    /// Machine cycle at which the core dies. Must be `>= 1`: cycle 0 is
    /// before the machine ever steps, which the builder rejects.
    pub cycle: u64,
}

impl CoreKill {
    /// Parses the `--kill-core` CLI form `ID@CYCLE`, e.g. `3@1500`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on a malformed spec; validity of
    /// the core/cycle values themselves is checked by
    /// [`FaultPlan::add_kill`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (core, cycle) = spec
            .split_once('@')
            .ok_or_else(|| format!("expected ID@CYCLE, got `{spec}`"))?;
        let core: u16 = core
            .trim()
            .parse()
            .map_err(|_| format!("bad core id `{core}` in `{spec}`"))?;
        let cycle: u64 = cycle
            .trim()
            .parse()
            .map_err(|_| format!("bad cycle `{cycle}` in `{spec}`"))?;
        Ok(CoreKill { core, cycle })
    }
}

impl fmt::Display for CoreKill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.core, self.cycle)
    }
}

/// Maximum scheduled core kills per plan. Fixed-size so [`FaultPlan`]
/// stays `Copy + Eq` (the determinism goldens compare whole plans).
pub const MAX_KILLS: usize = 4;

/// Typed rejection from the [`FaultPlan`] kill builder: invalid kill
/// schedules error out instead of being silently ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A kill scheduled at cycle 0 — before the machine ever steps.
    KillCycleZero {
        /// The targeted core.
        core: usize,
    },
    /// More kills than the plan's fixed slots can hold.
    TooManyKills {
        /// The capacity that was exceeded.
        max: usize,
    },
    /// Two kills target the same core (the second could never fire — a
    /// dead core cannot die again).
    DuplicateKillTarget {
        /// The doubly-targeted core.
        core: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::KillCycleZero { core } => {
                write!(f, "kill of core {core} scheduled at cycle 0 (must be >= 1)")
            }
            FaultPlanError::TooManyKills { max } => {
                write!(f, "more than {max} scheduled core kills")
            }
            FaultPlanError::DuplicateKillTarget { core } => {
                write!(f, "core {core} is targeted by more than one kill")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The distinct protocol perturbations the layer can inject, in table
/// order (which is also the order of the `faults/*` snapshot node).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Extra hop delay on an operand-network message.
    NocDelay,
    /// A link-contention burst: the operand mesh drops to bandwidth 1.
    NocBurst,
    /// A forced LSQ NACK: the bank refuses a request it could accept.
    ForcedNack,
    /// A flipped next-block prediction (forced mispredict).
    Mispredict,
    /// A DRAM latency spike on a load reply.
    DramSpike,
    /// A delayed block hand-off between fetch owners.
    HandoffDelay,
}

/// All injectable fault kinds, in table order.
pub const ALL_FAULT_KINDS: [FaultKind; 6] = [
    FaultKind::NocDelay,
    FaultKind::NocBurst,
    FaultKind::ForcedNack,
    FaultKind::Mispredict,
    FaultKind::DramSpike,
    FaultKind::HandoffDelay,
];

/// How many cycles one injection of a kind costs.
enum Magnitude {
    /// Uniform in `1..=max`: a second PRNG draw after the roll.
    Upto(u64),
    /// Always this many, with no second draw.
    Fixed(u64),
}

/// One fault kind's row of [`FAULTS`].
struct Fault {
    /// Stable snake_case label (traces, `--faults`).
    label: &'static str,
    /// The `faults/*` stat counting injections.
    count: &'static str,
    /// The `faults/*` stat summing injected cycles, where there is one.
    cycles: Option<&'static str>,
    magnitude: Magnitude,
}

/// The fault table, indexed by `FaultKind as usize`.
const FAULTS: [Fault; 6] = [
    Fault {
        label: "noc_delay",
        count: "noc_delays",
        cycles: Some("noc_delay_cycles"),
        magnitude: Magnitude::Upto(8),
    },
    Fault {
        label: "noc_burst",
        count: "noc_bursts",
        cycles: Some("noc_burst_cycles"),
        magnitude: Magnitude::Fixed(16),
    },
    // The extra cycles are the NACK's retry wait, which the trace reports.
    Fault {
        label: "forced_nack",
        count: "forced_nacks",
        cycles: None,
        magnitude: Magnitude::Fixed(crate::machine::NACK_RETRY),
    },
    Fault {
        label: "mispredict",
        count: "flipped_predictions",
        cycles: None,
        magnitude: Magnitude::Fixed(0),
    },
    // Roughly one extra DRAM round trip at most.
    Fault {
        label: "dram_spike",
        count: "dram_spikes",
        cycles: Some("dram_spike_cycles"),
        magnitude: Magnitude::Upto(150),
    },
    Fault {
        label: "handoff_delay",
        count: "handoff_delays",
        cycles: Some("handoff_delay_cycles"),
        magnitude: Magnitude::Upto(8),
    },
];

impl FaultKind {
    /// Stable snake_case label (used in traces, stats, and `--faults`).
    #[must_use]
    pub fn label(self) -> &'static str {
        FAULTS[self as usize].label
    }

    /// Parses a label produced by [`FaultKind::label`].
    #[must_use]
    fn from_label(s: &str) -> Option<Self> {
        ALL_FAULT_KINDS.iter().copied().find(|k| k.label() == s)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete description of what to inject.
///
/// [`FaultPlan::none`] (the [`Default`]) disables every fault and adds
/// exactly zero overhead to a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed; same seed + same plan ⇒ same cycle count.
    pub seed: u64,
    /// Per-mille chance (0–1000) that each kind fires at one of its
    /// decision points, indexed by `FaultKind as usize`.
    pub rates: [u16; 6],
    /// Scheduled hard core failures, in insertion order (`None` slots
    /// are empty). Populate through [`FaultPlan::add_kill`], which
    /// validates the schedule.
    pub kills: [Option<CoreKill>; MAX_KILLS],
}

/// Default per-mille rate when a `--faults` spec names a kind bare.
const DEFAULT_RATE: u16 = 25;

impl FaultPlan {
    /// The empty plan: no faults, no PRNG consumption, bit-identical
    /// cycle counts to a machine without the fault layer.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            rates: [0; 6],
            kills: [None; MAX_KILLS],
        }
    }

    /// A moderate all-faults plan: every kind enabled at `rate` per-mille.
    /// The standard chaos-suite configuration.
    #[must_use]
    pub fn chaos(seed: u64, rate: u16) -> Self {
        FaultPlan {
            seed,
            rates: [rate; 6],
            ..FaultPlan::none()
        }
    }

    /// A plan with exactly one fault kind enabled at `rate` per-mille —
    /// what the chaos suite sweeps kind-by-kind.
    #[must_use]
    pub fn only(kind: FaultKind, seed: u64, rate: u16) -> Self {
        let mut p = FaultPlan {
            seed,
            ..FaultPlan::none()
        };
        p.rates[kind as usize] = rate;
        p
    }

    /// True if no fault kind can ever fire under this plan, including
    /// scheduled core kills.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.rates == [0; 6] && !self.has_kills()
    }

    /// True if this plan schedules at least one hard core kill.
    #[must_use]
    fn has_kills(&self) -> bool {
        self.kills.iter().any(Option::is_some)
    }

    /// The scheduled kills, in insertion order.
    pub fn kills(&self) -> impl Iterator<Item = CoreKill> + '_ {
        self.kills.iter().filter_map(|k| *k)
    }

    /// Schedules a hard kill of global core `core` at `cycle`.
    ///
    /// # Errors
    ///
    /// - [`FaultPlanError::KillCycleZero`] if `cycle == 0` (the machine
    ///   never runs a cycle-0 step, so the kill could not fire).
    /// - [`FaultPlanError::DuplicateKillTarget`] if `core` already has a
    ///   scheduled kill (a dead core cannot die again).
    /// - [`FaultPlanError::TooManyKills`] if all [`MAX_KILLS`] slots are
    ///   taken.
    ///
    /// Whether `core` is actually part of a composed processor is only
    /// knowable at run start; the `Machine` validates that separately and
    /// rejects kills aimed outside the composition.
    pub fn add_kill(&mut self, core: usize, cycle: u64) -> Result<(), FaultPlanError> {
        if cycle == 0 {
            return Err(FaultPlanError::KillCycleZero { core });
        }
        if self.kills().any(|k| usize::from(k.core) == core) {
            return Err(FaultPlanError::DuplicateKillTarget { core });
        }
        let slot = self
            .kills
            .iter_mut()
            .find(|s| s.is_none())
            .ok_or(FaultPlanError::TooManyKills { max: MAX_KILLS })?;
        *slot = Some(CoreKill {
            core: core as u16,
            cycle,
        });
        Ok(())
    }

    /// Schedules `count` kills drawn deterministically from a PRNG
    /// *forked* off this plan's seed — plan construction never touches
    /// the runtime injection stream, so adding random kills leaves every
    /// rate-drawn fault sequence bit-identical. Targets are distinct
    /// cores drawn from `candidates` (the composition's participating
    /// cores — mesh regions are not identity-numbered); kill cycles are
    /// uniform in `min_cycle..=max_cycle`.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlanError::TooManyKills`] when `count` exceeds
    /// the free slots. `count` is clamped to `candidates.len() - 1` so
    /// at least one survivor always remains.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` has fewer than two cores or `min_cycle`
    /// is 0 or exceeds `max_cycle`.
    pub fn add_random_kills(
        &mut self,
        candidates: &[usize],
        count: usize,
        min_cycle: u64,
        max_cycle: u64,
    ) -> Result<(), FaultPlanError> {
        assert!(candidates.len() >= 2, "random kills need a survivor");
        assert!(min_cycle >= 1 && min_cycle <= max_cycle);
        // Fork: a distinct stream keyed off the plan seed, so the runtime
        // injector (seeded from `seed` directly) is unaffected.
        let mut prng = Prng::new(self.seed ^ 0x6b69_6c6c_7374_7265); // "killstre"
        let already = self.kills().count();
        let free_targets = candidates.len().saturating_sub(1).saturating_sub(already);
        let count = count.min(free_targets);
        let mut chosen = 0usize;
        while chosen < count {
            let core = candidates[prng.next_below(candidates.len() as u64) as usize];
            if self.kills().any(|k| usize::from(k.core) == core) {
                continue;
            }
            let cycle = min_cycle + prng.next_below(max_cycle - min_cycle + 1);
            self.add_kill(core, cycle)?;
            chosen += 1;
        }
        Ok(())
    }

    /// Parses a `--faults` spec: a comma-separated list of
    /// `kind[=rate_permille]` entries, where `kind` is a
    /// [`FaultKind::label`] or `all`. Bare kinds default to rate
    /// 25&nbsp;‰. Examples: `all=20`, `mispredict=50,forced_nack=100`,
    /// `noc_delay`, `none`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on an unknown kind or a rate
    /// outside `0..=1000`.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        plan.seed = seed;
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        for entry in spec.split(',') {
            let entry = entry.trim();
            let (name, rate) = match entry.split_once('=') {
                Some((n, r)) => {
                    let rate: u16 = r
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad rate `{r}` in `{entry}`"))?;
                    if rate > 1000 {
                        return Err(format!("rate {rate} out of range 0..=1000 in `{entry}`"));
                    }
                    (n.trim(), rate)
                }
                None => (entry, DEFAULT_RATE),
            };
            if name == "all" {
                plan.rates = [rate; 6];
            } else {
                let kind = FaultKind::from_label(name).ok_or_else(|| {
                    let labels: Vec<&str> = FAULTS.iter().map(|f| f.label).collect();
                    format!(
                        "unknown fault kind `{name}`; expected one of: all, none, {}",
                        labels.join(", ")
                    )
                })?;
                plan.rates[kind as usize] = rate;
            }
        }
        Ok(plan)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Counts of what the injector actually did during a run, indexed by
/// `FaultKind as usize`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injections of each kind.
    pub counts: [u64; 6],
    /// Extra cycles each kind injected in total (a forced NACK's retry
    /// wait included, though only the kinds with a cycles stat report it).
    pub cycles: [u64; 6],
}

impl FaultStats {
    /// Total faults injected, across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Injection count for one kind.
    #[must_use]
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Renders these counters as a stats-registry node named `"faults"`:
    /// the total, then each kind's count and cycles stats in table order.
    #[must_use]
    pub fn to_node(&self) -> clp_obs::StatsNode {
        let mut node = clp_obs::StatsNode::new("faults").count("total", self.total());
        for (k, fault) in FAULTS.iter().enumerate() {
            node = node.count(fault.count, self.counts[k]);
            if let Some(name) = fault.cycles {
                node = node.count(name, self.cycles[k]);
            }
        }
        node
    }
}

/// The runtime half of the layer: a [`FaultPlan`] plus the PRNG stream
/// and injection counters. Owned by the `Machine`, consulted at each
/// protocol decision point.
///
/// A draw at a zero rate returns without touching the PRNG, so a plan
/// with some kinds disabled draws exactly the same stream for the
/// enabled ones regardless of which others exist — and
/// [`FaultPlan::none`] never draws at all.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// `!plan.is_none()`, computed once: `plan` never changes after
    /// `new`, and `active` is asked every cycle.
    active: bool,
    prng: Prng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector for `plan`, seeding the PRNG from `plan.seed`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            active: !plan.is_none(),
            prng: Prng::new(plan.seed),
            stats: FaultStats::default(),
        }
    }

    /// True if this injector can ever fire (used to skip per-cycle work
    /// entirely on fault-free runs).
    #[must_use]
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.active
    }

    /// What was injected so far.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// One decision point of `kind`: a Bernoulli trial at the kind's
    /// per-mille rate and, on a hit, its extra cycles from the table
    /// (drawn second, for the kinds whose magnitude is drawn). A zero
    /// rate never consumes PRNG state — the bit-identity guarantee for
    /// disabled kinds.
    pub(crate) fn draw(&mut self, kind: FaultKind) -> Option<u64> {
        let k = kind as usize;
        let rate = u64::from(self.plan.rates[k]);
        if rate == 0 || self.prng.next_below(1000) >= rate {
            return None;
        }
        let extra = match FAULTS[k].magnitude {
            Magnitude::Upto(max) => 1 + self.prng.next_below(max),
            Magnitude::Fixed(cycles) => cycles,
        };
        self.stats.counts[k] += 1;
        self.stats.cycles[k] += extra;
        Some(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic_and_seed_sensitive() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        let mut c = Prng::new(43);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn prng_seed_zero_works() {
        let mut p = Prng::new(0);
        let vals: Vec<u64> = (0..16).map(|_| p.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), vals.len(), "no short cycle");
    }

    #[test]
    fn zero_rate_never_consumes_prng() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        let before = inj.prng;
        for _ in 0..1000 {
            for k in ALL_FAULT_KINDS {
                assert_eq!(inj.draw(k), None);
            }
        }
        assert_eq!(inj.prng, before, "disabled faults must not draw");
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn full_rate_always_fires() {
        let mut inj = FaultInjector::new(FaultPlan::chaos(7, 1000));
        for _ in 0..100 {
            assert!(inj.draw(FaultKind::NocDelay).is_some());
            assert_eq!(inj.draw(FaultKind::ForcedNack), Some(4), "the NACK wait");
        }
        assert_eq!(inj.stats().count(FaultKind::NocDelay), 100);
        assert_eq!(inj.stats().count(FaultKind::ForcedNack), 100);
        assert_eq!(inj.stats().total(), 200);
    }

    #[test]
    fn moderate_rate_fires_roughly_proportionally() {
        let mut inj = FaultInjector::new(FaultPlan::chaos(1234, 100)); // 10%
        for _ in 0..10_000 {
            inj.draw(FaultKind::ForcedNack);
        }
        let n = inj.stats().count(FaultKind::ForcedNack);
        assert!((700..=1300).contains(&n), "10% of 10k ≈ 1000, got {n}");
    }

    #[test]
    fn magnitudes_follow_the_table() {
        let mut inj = FaultInjector::new(FaultPlan::chaos(9, 1000));
        for _ in 0..500 {
            assert!((1..=8).contains(&inj.draw(FaultKind::NocDelay).unwrap()));
            assert_eq!(inj.draw(FaultKind::NocBurst), Some(16));
            assert_eq!(inj.draw(FaultKind::Mispredict), Some(0));
            assert!((1..=150).contains(&inj.draw(FaultKind::DramSpike).unwrap()));
            assert!((1..=8).contains(&inj.draw(FaultKind::HandoffDelay).unwrap()));
        }
        assert_eq!(inj.stats().cycles[FaultKind::NocBurst as usize], 500 * 16);
    }

    /// Only the drawn magnitudes take a second PRNG draw.
    #[test]
    fn fixed_magnitudes_draw_once_and_drawn_ones_twice() {
        for kind in ALL_FAULT_KINDS {
            let mut inj = FaultInjector::new(FaultPlan::only(kind, 5, 1000));
            let mut prng = Prng::new(5);
            inj.draw(kind);
            prng.next_u64();
            if matches!(FAULTS[kind as usize].magnitude, Magnitude::Upto(_)) {
                prng.next_u64();
            }
            assert_eq!(inj.prng, prng, "{kind}");
        }
    }

    #[test]
    fn parse_specs() {
        let p = FaultPlan::parse("all=20", 5).unwrap();
        assert_eq!(p.seed, 5);
        assert!(!p.is_none());
        assert_eq!(p.rates, [20; 6]);
        assert_eq!(p, FaultPlan::chaos(5, 20));

        let p = FaultPlan::parse("mispredict=50, forced_nack", 0).unwrap();
        assert_eq!(p.rates[FaultKind::Mispredict as usize], 50);
        assert_eq!(p.rates[FaultKind::ForcedNack as usize], DEFAULT_RATE);
        assert_eq!(p.rates[FaultKind::NocDelay as usize], 0);

        assert!(FaultPlan::parse("none", 0).unwrap().is_none());
        assert!(FaultPlan::parse("", 0).unwrap().is_none());
        assert!(FaultPlan::parse("bogus=1", 0).is_err());
        assert!(FaultPlan::parse("nack=2000", 0).is_err()); // unknown + range
        assert!(FaultPlan::parse("mispredict=2000", 0).is_err());
    }

    #[test]
    fn kill_builder_validates() {
        let mut p = FaultPlan::none();
        assert!(!p.has_kills());
        assert_eq!(
            p.add_kill(3, 0),
            Err(FaultPlanError::KillCycleZero { core: 3 })
        );
        assert!(p.is_none(), "rejected kill must not stick");

        p.add_kill(3, 500).unwrap();
        assert!(p.has_kills());
        assert!(!p.is_none(), "a kill plan is not the empty plan");
        assert_eq!(
            p.add_kill(3, 900),
            Err(FaultPlanError::DuplicateKillTarget { core: 3 })
        );

        p.add_kill(1, 100).unwrap();
        p.add_kill(2, 200).unwrap();
        p.add_kill(0, 300).unwrap();
        assert_eq!(
            p.add_kill(4, 400),
            Err(FaultPlanError::TooManyKills { max: MAX_KILLS })
        );
        let kills: Vec<CoreKill> = p.kills().collect();
        assert_eq!(kills.len(), 4);
        assert_eq!(
            kills[0],
            CoreKill {
                core: 3,
                cycle: 500
            }
        );
    }

    #[test]
    fn kill_spec_parses() {
        assert_eq!(
            CoreKill::parse("3@1500"),
            Ok(CoreKill {
                core: 3,
                cycle: 1500
            })
        );
        assert_eq!(CoreKill::parse(" 7 @ 42 "), CoreKill::parse("7@42"));
        assert!(CoreKill::parse("3").is_err());
        assert!(CoreKill::parse("x@5").is_err());
        assert!(CoreKill::parse("3@y").is_err());
        assert_eq!(CoreKill { core: 3, cycle: 9 }.to_string(), "3@9");
    }

    #[test]
    fn random_kills_are_deterministic_and_leave_rates_alone() {
        // A non-identity candidate set, as a mesh sub-region would be.
        let region = [4usize, 5, 12, 13, 20, 21, 28, 29];
        let mut a = FaultPlan::none();
        a.seed = 77;
        a.add_random_kills(&region, 2, 100, 1000).unwrap();
        let mut b = FaultPlan::none();
        b.seed = 77;
        b.add_random_kills(&region, 2, 100, 1000).unwrap();
        assert_eq!(a, b, "same seed must build the same schedule");
        assert_eq!(a.kills().count(), 2);
        for k in a.kills() {
            assert!(region.contains(&usize::from(k.core)));
            assert!((100..=1000).contains(&k.cycle));
        }
        let mut c = FaultPlan::none();
        c.seed = 78;
        c.add_random_kills(&region, 2, 100, 1000).unwrap();
        assert_ne!(a.kills, c.kills, "different seed should diverge");

        // Always leaves a survivor, even when asked not to.
        let mut d = FaultPlan::none();
        d.add_random_kills(&[0, 1], 4, 1, 10).unwrap();
        assert_eq!(d.kills().count(), 1);
    }

    #[test]
    fn labels_round_trip() {
        for k in ALL_FAULT_KINDS {
            assert_eq!(FaultKind::from_label(k.label()), Some(k));
        }
        assert_eq!(FaultKind::from_label("nope"), None);
    }

    #[test]
    fn same_seed_same_stream_different_seed_diverges() {
        let mut a = FaultInjector::new(FaultPlan::chaos(1, 500));
        let mut b = FaultInjector::new(FaultPlan::chaos(1, 500));
        let mut c = FaultInjector::new(FaultPlan::chaos(2, 500));
        let da: Vec<_> = (0..64).map(|_| a.draw(FaultKind::NocDelay)).collect();
        let db: Vec<_> = (0..64).map(|_| b.draw(FaultKind::NocDelay)).collect();
        let dc: Vec<_> = (0..64).map(|_| c.draw(FaultKind::NocDelay)).collect();
        assert_eq!(da, db);
        assert_ne!(da, dc);
    }

    #[test]
    fn stats_node_exposes_counts() {
        let mut inj = FaultInjector::new(FaultPlan::only(FaultKind::Mispredict, 3, 1000));
        for _ in 0..5 {
            inj.draw(FaultKind::Mispredict);
        }
        let node = inj.stats().to_node();
        let names: Vec<&str> = node.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "total",
                "noc_delays",
                "noc_delay_cycles",
                "noc_bursts",
                "noc_burst_cycles",
                "forced_nacks",
                "flipped_predictions",
                "dram_spikes",
                "dram_spike_cycles",
                "handoff_delays",
                "handoff_delay_cycles",
            ]
        );
        let root = clp_obs::StatsNode::new("run").child(node);
        let snap = clp_obs::StatsSnapshot { cycles: 0, root };
        assert_eq!(snap.expect("faults/flipped_predictions"), 5.0);
        assert_eq!(snap.expect("faults/total"), 5.0);
    }
}
