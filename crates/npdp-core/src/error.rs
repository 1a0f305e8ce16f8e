//! Typed solve failures.
//!
//! Bad input and worker faults never panic or hang a solve: the
//! context-taking entry points ([`crate::Engine::solve_with`],
//! [`crate::SolveRecurrence::solve_recurrence`] and the `cell-sim`
//! protocol runs) report them as [`SolveError`] instead — a solve either
//! returns a bit-identical table or one of these.

/// Why a seed value is unusable (see [`crate::DpValue::seed_issue`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedIssue {
    /// The value is NaN (floats only).
    NotANumber,
    /// The value is below the semiring zero — a negative length.
    Negative,
}

/// Typed failure of a solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A problem seed failed validation at the engine boundary.
    InvalidSeed {
        /// Row of the offending seed.
        i: usize,
        /// Column of the offending seed.
        j: usize,
        /// What is wrong with it.
        issue: SeedIssue,
    },
    /// The problem as a whole is outside what the chosen engine can solve:
    /// an invalid grammar, or a split-dependent recurrence handed to a
    /// blocked or parallel tier.
    InvalidProblem {
        /// What is wrong with it.
        reason: String,
    },
    /// A scheduler task panicked on every attempt of its retry budget.
    TaskFailed {
        /// Scheduler task index.
        task: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Panic message of the last attempt.
        message: String,
    },
    /// A DMA transfer of block `(bi, bj)` failed checksum verification on
    /// every attempt of its retry budget.
    TransferFailed {
        /// Block row.
        bi: usize,
        /// Block column.
        bj: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A blocked sweep returned with memory blocks that never reached the
    /// final state — a scheduler or dependence-graph bug, reported instead
    /// of handing back a partial table.
    UnfinishedBlocks {
        /// Blocks not final when the sweep returned.
        unfinished: usize,
        /// Blocks in the triangle.
        blocks: usize,
    },
    /// Every SPE died before the protocol could finish.
    NoSurvivingWorkers,
    /// The multi-SPE protocol stopped making progress (watchdog gave up).
    ProtocolStalled {
        /// Rounds executed before the watchdog fired.
        rounds: u64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::InvalidSeed { i, j, issue } => {
                let what = match issue {
                    SeedIssue::NotANumber => "NaN",
                    SeedIssue::Negative => "negative",
                };
                write!(f, "invalid problem seed at ({i},{j}): {what}")
            }
            SolveError::InvalidProblem { reason } => write!(f, "invalid problem: {reason}"),
            SolveError::TaskFailed {
                task,
                attempts,
                message,
            } => write!(
                f,
                "scheduler task {task} failed after {attempts} attempts: {message}"
            ),
            SolveError::TransferFailed { bi, bj, attempts } => write!(
                f,
                "DMA transfer of block ({bi},{bj}) failed checksum after {attempts} attempts"
            ),
            SolveError::UnfinishedBlocks { unfinished, blocks } => write!(
                f,
                "sweep left {unfinished} of {blocks} memory blocks unfinished (scheduler bug)"
            ),
            SolveError::NoSurvivingWorkers => write!(f, "every SPE died before the solve finished"),
            SolveError::ProtocolStalled { rounds } => write!(
                f,
                "multi-SPE protocol made no progress for too long (gave up after {rounds} rounds)"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<task_queue::ExecError> for SolveError {
    fn from(e: task_queue::ExecError) -> Self {
        match e {
            task_queue::ExecError::TaskPanicked {
                task,
                attempts,
                message,
            } => SolveError::TaskFailed {
                task,
                attempts,
                message,
            },
        }
    }
}
