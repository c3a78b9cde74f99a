//! What can go wrong composing a processor or running the machine.

use clp_noc::RegionError;
use std::fmt;

/// Failure to compose a logical processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ComposeError {
    /// The requested region is invalid or does not fit.
    Region(RegionError),
    /// One of the requested cores already belongs to a processor.
    CoreBusy(usize),
    /// The workload passes more arguments than the `r1..=r8` argument
    /// registers can hold (the machine used to silently truncate these).
    TooManyArgs(usize),
    /// The machine already composed 65 536 processors (decomposed ones
    /// count): messages name their processor in 16 bits.
    TooManyProcs,
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::Region(e) => write!(f, "{e}"),
            ComposeError::CoreBusy(c) => write!(f, "core {c} already composed"),
            ComposeError::TooManyArgs(n) => {
                write!(f, "{n} arguments exceed the 8 argument registers (r1..=r8)")
            }
            ComposeError::TooManyProcs => {
                write!(f, "a machine composes at most 65536 processors")
            }
        }
    }
}

impl std::error::Error for ComposeError {}

impl From<RegionError> for ComposeError {
    fn from(e: RegionError) -> Self {
        ComposeError::Region(e)
    }
}

/// Failure during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The cycle budget was exhausted.
    CycleLimit(u64),
    /// The per-run deadline ([`SimConfig::deadline`](crate::SimConfig))
    /// was crossed and the watchdog aborted the run. Distinct from
    /// [`RunError::CycleLimit`] so callers can tell a policy kill (a job
    /// that outlived its budget and may deserve a retry with a larger
    /// one) from the safety net against simulator bugs.
    DeadlineExceeded {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// No forward progress for a long time (a protocol deadlock — this is
    /// a simulator bug if it ever fires).
    Deadlock {
        /// Cycle at which the stall was detected.
        cycle: u64,
    },
    /// The fault plan schedules a kill of a core that is not part of any
    /// composed processor (validated before the first cycle — a kill the
    /// machine could never observe is a configuration error, not a
    /// no-op).
    InvalidKill {
        /// The targeted core.
        core: usize,
    },
    /// The fault plan kills every core of a composed processor, leaving
    /// no survivor to run the recovery protocol.
    NoSurvivors {
        /// The doomed logical processor.
        proc: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::CycleLimit(n) => write!(f, "exceeded cycle budget of {n}"),
            RunError::DeadlineExceeded { budget } => {
                write!(f, "deadline kill: exceeded cycle deadline of {budget}")
            }
            RunError::Deadlock { cycle } => write!(f, "no progress near cycle {cycle}"),
            RunError::InvalidKill { core } => {
                write!(
                    f,
                    "scheduled kill targets core {core}, which is not composed"
                )
            }
            RunError::NoSurvivors { proc } => {
                write!(f, "scheduled kills leave proc{proc} with no surviving core")
            }
        }
    }
}

impl std::error::Error for RunError {}
