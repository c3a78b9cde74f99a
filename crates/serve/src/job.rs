//! Job vocabulary: what a client submits, why the admission controller
//! may refuse it, and what the service ultimately reports per job.

use clp_obs::Terminal;
use clp_sim::FaultPlan;
use serde::Serialize;
use std::fmt;

/// A job submitted to the service: run one suite workload at one
/// composition size under a cycle-budget deadline, optionally with an
/// attempt-0 fault plan (injected faults and scheduled core kills) and
/// an optional planted worker panic (the chaos hook the robustness tests
/// lean on).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-assigned identifier, unique within one service run.
    pub id: u64,
    /// Suite workload name (`clp_workloads::suite::by_name`).
    pub workload: String,
    /// Requested TFlex composition size (power of two, 1..=32).
    pub cores: usize,
    /// Cycle-budget deadline for each attempt; a run that crosses it is
    /// reaped as a deadline kill (retryable with an escalated budget).
    pub budget: u64,
    /// Fault plan applied on the *first* attempt only: retries run on
    /// fresh hardware with the transient condition cleared.
    pub faults: FaultPlan,
    /// Plant a panic in the worker thread executing this job (attempt 0
    /// only): exercises panic isolation — the panic ends that thread and
    /// nothing else — without touching simulator internals.
    pub sabotage: bool,
}

impl JobSpec {
    /// A plain job: no faults, no sabotage.
    #[must_use]
    pub fn new(id: u64, workload: &str, cores: usize, budget: u64) -> Self {
        JobSpec {
            id,
            workload: workload.to_string(),
            cores,
            budget,
            faults: FaultPlan::none(),
            sabotage: false,
        }
    }
}

/// Why the admission controller refused a job. Every rejection is typed
/// and deterministic — under pressure the service sheds load by policy,
/// never by panicking or blocking.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum Rejected {
    /// The bounded submission queue is full; the job was shed. `depth`
    /// is the queue depth observed at arrival.
    Overloaded {
        /// Queue depth at the moment of rejection.
        depth: usize,
    },
    /// The requested composition size is not a power of two in 1..=32.
    InvalidCores {
        /// The offending request.
        cores: usize,
    },
    /// A zero cycle budget can never complete any job.
    ZeroBudget,
    /// The workload name is not in the suite.
    UnknownWorkload {
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::Overloaded { depth } => {
                write!(f, "overloaded: queue depth {depth} at arrival")
            }
            Rejected::InvalidCores { cores } => {
                write!(
                    f,
                    "invalid composition size {cores} (want a power of two in 1..=32)"
                )
            }
            Rejected::ZeroBudget => write!(f, "zero cycle budget"),
            Rejected::UnknownWorkload { name } => write!(f, "unknown workload `{name}`"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Terminal disposition of one submitted job.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum JobOutcome {
    /// The job ran to completion and verified against the golden.
    Completed {
        /// Simulated cycles of the successful attempt.
        cycles: u64,
    },
    /// The admission controller refused the job.
    Rejected(Rejected),
    /// The job failed with a permanent (non-retryable) error.
    Failed {
        /// Rendered [`clp_core::RunFailure`].
        error: String,
    },
    /// Every retry was spent without a success.
    Exhausted {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// Rendered error of the last attempt.
        last_error: String,
    },
}

impl JobOutcome {
    /// Whether the job completed successfully.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }

    /// The job's terminal as the span model sees it.
    pub(crate) fn terminal(&self) -> Terminal {
        match self {
            JobOutcome::Completed { cycles } => Terminal::Completed { cycles: *cycles },
            JobOutcome::Rejected(Rejected::Overloaded { .. }) => Terminal::Shed,
            JobOutcome::Rejected(_) => Terminal::Invalid,
            JobOutcome::Failed { .. } => Terminal::Failed,
            JobOutcome::Exhausted { .. } => Terminal::Exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejections_render() {
        assert!(Rejected::Overloaded { depth: 9 }.to_string().contains("9"));
        assert!(Rejected::InvalidCores { cores: 3 }
            .to_string()
            .contains("3"));
        assert!(Rejected::UnknownWorkload { name: "x".into() }
            .to_string()
            .contains("`x`"));
    }

    #[test]
    fn outcome_predicates() {
        assert!(JobOutcome::Completed { cycles: 1 }.is_completed());
        assert!(!JobOutcome::Rejected(Rejected::ZeroBudget).is_completed());
    }
}
