//! Adaptive composition control — the paper's future-work direction
//! (§8): "the OS could even monitor how each thread uses its allocated
//! resources and reallocate them among the threads as necessary", or
//! hardware could adjust the number of cores per thread automatically.
//!
//! This module implements that controller as run-to-run hill climbing:
//! the thread executes an epoch at its current composition, the monitor
//! scores the epoch under an [`AdaptGoal`], and the controller grows or
//! shrinks the composition (by powers of two) while the score improves.
//! Because EDGE binaries are placement-transparent, no recompilation
//! happens between epochs — exactly the property the paper's conclusion
//! leans on.

use crate::run::{compile_workload, run_compiled, CompiledWorkload, ProcessorConfig, RunFailure};
use clp_power::{perf, perf2_per_watt, perf_per_area};
use clp_workloads::Workload;

/// What the controller optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptGoal {
    /// Minimize cycles (Figure 6's BEST point).
    Performance,
    /// Maximize `1/(cycles * mm^2)` (Figure 7's operating point).
    AreaEfficiency,
    /// Maximize `perf^2/W` (Figure 8's operating point — the data-center
    /// / battery mode of §1).
    PowerEfficiency,
}

/// One epoch observed by the controller.
#[derive(Clone, Debug)]
pub struct AdaptStep {
    /// Composition size run this epoch.
    pub cores: usize,
    /// Cycles the epoch took.
    pub cycles: u64,
    /// Score under the goal (higher is better).
    pub score: f64,
}

/// One recomposition decision the controller made while searching —
/// when (which epoch), which allocation change, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptDecision {
    /// Epoch index (into [`AdaptOutcome::history`]) at which the
    /// controller moved.
    pub epoch: usize,
    /// Composition size before the move.
    pub from_cores: usize,
    /// Composition size after the move.
    pub to_cores: usize,
    /// Why the controller moved: `"start"`, `"grow"`, or `"shrink"`.
    pub why: &'static str,
}

/// The controller's final decision.
#[derive(Clone, Debug)]
pub struct AdaptOutcome {
    /// Chosen composition size.
    pub cores: usize,
    /// All epochs observed while searching.
    pub history: Vec<AdaptStep>,
    /// Every recomposition decision, in order — the audit trail an OS
    /// scheduler would log when reallocating cores between threads.
    pub decisions: Vec<AdaptDecision>,
}

fn score(goal: AdaptGoal, cycles: u64, area: f64, watts: f64) -> f64 {
    match goal {
        AdaptGoal::Performance => perf(cycles),
        AdaptGoal::AreaEfficiency => perf_per_area(cycles, area),
        AdaptGoal::PowerEfficiency => perf2_per_watt(cycles, watts),
    }
}

fn run_epoch(
    cw: &CompiledWorkload,
    cores: usize,
    goal: AdaptGoal,
) -> Result<AdaptStep, RunFailure> {
    let r = run_compiled(cw, &ProcessorConfig::tflex(cores))?;
    Ok(AdaptStep {
        cores,
        cycles: r.stats.cycles,
        score: score(goal, r.stats.cycles, r.area_mm2, r.power.total()),
    })
}

/// Hill-climbs the composition size for `workload` under `goal`,
/// starting from `start` cores.
///
/// The controller doubles or halves the allocation while the measured
/// score improves, stopping at the first local optimum — the same
/// decision procedure an OS scheduler could run on epoch counters.
///
/// # Errors
///
/// Propagates the first failed epoch.
pub fn adapt_composition(
    workload: &Workload,
    goal: AdaptGoal,
    start: usize,
) -> Result<AdaptOutcome, RunFailure> {
    assert!(start.is_power_of_two() && start <= 32, "bad start size");
    let cw = compile_workload(workload)?;
    let mut history = Vec::new();
    let mut decisions = Vec::new();
    let mut current = run_epoch(&cw, start, goal)?;
    history.push(current.clone());
    decisions.push(AdaptDecision {
        epoch: 0,
        from_cores: start,
        to_cores: start,
        why: "start",
    });

    // Try growing, then shrinking, until neither helps.
    loop {
        let mut improved = false;
        for candidate in [current.cores * 2, current.cores / 2] {
            if !(1..=32).contains(&candidate) || !candidate.is_power_of_two() {
                continue;
            }
            if history.iter().any(|s| s.cores == candidate) {
                continue; // already measured, known not better (or start)
            }
            let step = run_epoch(&cw, candidate, goal)?;
            history.push(step.clone());
            if step.score > current.score {
                decisions.push(AdaptDecision {
                    epoch: history.len() - 1,
                    from_cores: current.cores,
                    to_cores: step.cores,
                    why: if step.cores > current.cores {
                        "grow"
                    } else {
                        "shrink"
                    },
                });
                current = step;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    Ok(AdaptOutcome {
        cores: current.cores,
        history,
        decisions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_alloc::SIZES;
    use clp_workloads::suite;

    #[test]
    fn performance_goal_finds_a_local_optimum() {
        let w = suite::by_name("autocor").unwrap();
        let out = adapt_composition(&w, AdaptGoal::Performance, 1).expect("adapts");
        assert!(SIZES.contains(&out.cores));
        // The chosen point beats its measured neighbors.
        let chosen = out
            .history
            .iter()
            .find(|s| s.cores == out.cores)
            .expect("in history");
        for s in &out.history {
            assert!(
                s.score <= chosen.score + 1e-15,
                "{} cores scored better than the choice",
                s.cores
            );
        }
        // A high-ILP kernel should not settle at one core.
        assert!(out.cores > 1, "autocor should grow past one core");
    }

    #[test]
    fn decisions_record_every_move_with_a_reason() {
        let w = suite::by_name("autocor").unwrap();
        let out = adapt_composition(&w, AdaptGoal::Performance, 1).expect("adapts");
        assert_eq!(out.decisions[0].why, "start");
        assert_eq!(out.decisions[0].from_cores, 1);
        // The chain of moves ends at the chosen size, each step doubling
        // or halving the allocation.
        let last = out.decisions.last().expect("at least start");
        assert_eq!(last.to_cores, out.cores);
        for w in out.decisions.windows(2) {
            assert_eq!(w[1].from_cores, w[0].to_cores, "moves must chain");
            assert!(
                w[1].to_cores == w[1].from_cores * 2 || w[1].to_cores == w[1].from_cores / 2,
                "moves are powers-of-two steps"
            );
            assert!(w[1].why == "grow" || w[1].why == "shrink");
        }
    }

    #[test]
    fn area_goal_prefers_small_compositions() {
        let w = suite::by_name("tblook").unwrap();
        let out = adapt_composition(&w, AdaptGoal::AreaEfficiency, 8).expect("adapts");
        assert!(
            out.cores <= 4,
            "area efficiency should shrink a serial workload: {}",
            out.cores
        );
    }

    #[test]
    fn power_goal_lands_between_the_extremes() {
        let w = suite::by_name("conv").unwrap();
        let out = adapt_composition(&w, AdaptGoal::PowerEfficiency, 1).expect("adapts");
        assert!((2..=16).contains(&out.cores), "got {}", out.cores);
    }
}
