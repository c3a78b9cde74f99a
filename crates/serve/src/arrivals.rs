//! Seeded open-loop arrival generation: a deterministic job schedule
//! `(arrival_tick, JobSpec)` that is a pure function of the
//! configuration, so a whole service run replays bit-for-bit from
//! `(seed, job count)`.
//!
//! Interarrival gaps are integer-uniform in `1..=2*mean_gap - 1` — same
//! mean as an exponential clock without any platform-dependent floating
//! point (`ln`) in the replayable path.

use crate::job::JobSpec;
use clp_sim::fault::Prng;

/// Composition sizes the generator draws from (32 is left out so a
/// multiprogram-style mix never trivially monopolizes the chip).
const CORE_CHOICES: [usize; 5] = [1, 2, 4, 8, 16];

/// Configuration of the arrival generator.
#[derive(Clone, Debug)]
pub struct ArrivalConfig {
    /// Jobs to generate.
    pub jobs: usize,
    /// PRNG seed; the whole schedule is a pure function of this.
    pub seed: u64,
    /// Mean interarrival gap in virtual ticks (>= 1).
    pub mean_gap: u64,
    /// Default per-attempt cycle budget.
    pub budget: u64,
    /// Every `tight_every`-th job (1-indexed; 0 disables) gets
    /// `tight_budget` instead — tight enough to trigger deadline kills
    /// on slower workloads, exercising the escalate-and-retry path.
    pub tight_every: usize,
    /// The tight budget.
    pub tight_budget: u64,
    /// Job ids whose attempt 0 plants a worker panic.
    pub plant_panic: Vec<u64>,
    /// Job ids whose attempt 0 kills their core at the given cycle.
    /// Kill jobs are pinned to 1-core compositions so the kill always
    /// leaves no survivor — a guaranteed recovery *failure* that the
    /// retry (fault-free by policy) then absorbs.
    pub kill_at: Vec<(u64, u64)>,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            jobs: 32,
            seed: 1,
            mean_gap: 3_000,
            budget: 200_000,
            tight_every: 0,
            tight_budget: 2_500,
            plant_panic: Vec::new(),
            kill_at: Vec::new(),
        }
    }
}

/// Generates the arrival schedule: strictly increasing ticks, job ids
/// `0..jobs` in arrival order.
#[must_use]
pub fn generate(cfg: &ArrivalConfig) -> Vec<(u64, JobSpec)> {
    let kernels = &clp_workloads::suite::KERNELS;
    let mut prng = Prng::new(cfg.seed);
    let mut now = 0u64;
    let mut out = Vec::with_capacity(cfg.jobs);
    for id in 0..cfg.jobs as u64 {
        let gap = if cfg.mean_gap <= 1 {
            1
        } else {
            1 + prng.next_below(2 * cfg.mean_gap - 1)
        };
        now += gap;
        let name = kernels[prng.next_below(kernels.len() as u64) as usize].name;
        let cores = CORE_CHOICES[prng.next_below(CORE_CHOICES.len() as u64) as usize];
        let tight = cfg.tight_every > 0 && (id as usize + 1).is_multiple_of(cfg.tight_every);
        let budget = if tight { cfg.tight_budget } else { cfg.budget };
        let mut spec = JobSpec::new(id, name, cores, budget);
        if cfg.plant_panic.contains(&id) {
            spec.sabotage = true;
        }
        if let Some(&(_, cycle)) = cfg.kill_at.iter().find(|&&(j, _)| j == id) {
            spec.cores = 1;
            spec.faults
                .add_kill(0, cycle)
                .expect("kill schedule within plan capacity");
        }
        out.push((now, spec));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let cfg = ArrivalConfig {
            jobs: 16,
            seed: 42,
            ..ArrivalConfig::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), 16);
        for ((ta, ja), (tb, jb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(ja, jb);
        }
    }

    #[test]
    fn seeds_change_the_schedule() {
        let mut cfg = ArrivalConfig {
            jobs: 16,
            seed: 1,
            ..ArrivalConfig::default()
        };
        let a = generate(&cfg);
        cfg.seed = 2;
        let b = generate(&cfg);
        assert!(
            a.iter().zip(&b).any(|((ta, _), (tb, _))| ta != tb),
            "different seeds should shift arrivals"
        );
    }

    #[test]
    fn arrivals_strictly_increase_and_sizes_are_valid() {
        let cfg = ArrivalConfig {
            jobs: 64,
            seed: 7,
            ..ArrivalConfig::default()
        };
        let sched = generate(&cfg);
        let mut last = 0;
        for (t, spec) in &sched {
            assert!(*t > last, "gaps are at least one tick");
            last = *t;
            assert!(CORE_CHOICES.contains(&spec.cores));
            assert!(spec.budget > 0);
        }
    }

    #[test]
    fn chaos_hooks_land_on_the_requested_jobs() {
        let cfg = ArrivalConfig {
            jobs: 12,
            seed: 3,
            tight_every: 4,
            plant_panic: vec![5],
            kill_at: vec![(7, 500)],
            ..ArrivalConfig::default()
        };
        let sched = generate(&cfg);
        let spec = |id: u64| &sched.iter().find(|(_, s)| s.id == id).unwrap().1;
        assert!(spec(5).sabotage);
        assert_eq!(spec(7).cores, 1, "kill jobs pinned to one core");
        assert!(spec(7).faults.kills.iter().any(|k| k.is_some()));
        assert_eq!(spec(3).budget, cfg.tight_budget, "4th job is tight");
        assert_eq!(spec(4).budget, cfg.budget);
    }
}
