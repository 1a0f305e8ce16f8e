//! # npdp-core — nonserial polyadic dynamic programming, the CellNPDP way
//!
//! Reproduction of *Efficient Nonserial Polyadic Dynamic Programming on the
//! Cell Processor* (Liu, Wang, Jiang, Li, Yang — IPDPS 2011) on host CPUs.
//!
//! NPDP is the dynamic-programming family with nonuniform data dependences:
//!
//! ```text
//! for j in 0..n:
//!   for i in (0..j).rev():
//!     for k in i+1..j:
//!       d[i][j] = min(d[i][j], d[i][k] + d[k][j])
//! ```
//!
//! Applications include optimal matrix parenthesization, optimal binary
//! search trees and the Zuker RNA-folding algorithm (see the `zuker` crate).
//!
//! The paper's contributions, all implemented here:
//!
//! * **New data layout** ([`BlockedMatrix`]): square memory blocks stored
//!   contiguously, maximizing DMA/cache-line transfer efficiency.
//! * **SPE procedure** ([`SimdEngine`]): 4×4 SIMD computing blocks with the
//!   register-blocked 80-instruction kernel, two-stage inner-dependence
//!   resolution.
//! * **Parallel procedure** ([`ParallelEngine`]): a task queue over
//!   scheduling blocks with the simplified 2-predecessor dependence graph.
//!
//! Every engine returns bit-identical results; see [`DpValue`] for why.
//!
//! ## Quickstart
//!
//! ```
//! use npdp_core::{Engine, ParallelEngine, SerialEngine, problem};
//!
//! let seeds = problem::random_seeds_f32(256, 100.0, 42);
//! let fast = ParallelEngine::new(32, 2, 4).solve(&seeds);
//! let reference = SerialEngine.solve(&seeds);
//! assert_eq!(fast.first_difference(&reference), None);
//! ```

pub mod apps;
pub mod engine;
pub mod error;
pub mod layout;
pub mod problem;
pub mod recurrence;
pub mod semiring;
pub mod value;

pub use engine::{
    BandedEngine, BlockedEngine, Engine, ParallelEngine, Scheduler, SerialEngine, SimdEngine,
    TiledEngine, WavefrontEngine,
};
pub use error::{SeedIssue, SolveError};
pub use layout::{BlockedMatrix, TriangularMatrix};
pub use npdp_exec::{ExecContext, Tuning};
pub use recurrence::{Recurrence, SolveRecurrence};
pub use semiring::{MaxPlusRing, MinPlus, Semiring};
pub use task_queue::ExecStats;
pub use value::DpValue;
