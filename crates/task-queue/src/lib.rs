//! Dependence-graph task scheduling — the CellNPDP *parallel procedure*.
//!
//! The paper (Liu et al., IPDPS 2011, §IV-B) schedules the triangular grid of
//! memory blocks with a PPE-managed task queue. Two ideas keep the overhead
//! low:
//!
//! 1. **Simplified dependence graph** — although block `(i,j)` semantically
//!    depends on *every* block `(i,k)` and `(k,j)`, it is enough to record at
//!    most two predecessors: the nearest block on its left, `(i,j-1)`, and the
//!    nearest block below it, `(i+1,j)`. Transitively these cover the full
//!    dependence set (the left chain reaches every `(i,k)`, the below chain
//!    every `(k,j)`). A task becomes ready once it has been *notified* by each
//!    of its existing predecessors (twice in the interior, once on the edges,
//!    zero times on the diagonal).
//!
//! 2. **Scheduling blocks** — tasks are squares of memory blocks, so the
//!    number of scheduler events shrinks quadratically in the square side
//!    while the member blocks inside a task are swept in a dependence-safe
//!    order (bottom row first, left column first).
//!
//! This crate implements the substrate generically: a [`TaskGraph`] of
//! predecessor counts and successor lists, one generic [`run`] driver in
//! which every worker plays the SPE role under the ready-set discipline
//! chosen by [`ExecContext::scheduler`], and [`triangle`] helpers that build
//! the paper's graphs.
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use task_queue::{run, triangle_graph, ExecContext, TriangleGrid};
//!
//! // The paper's simplified graph over a 6×6 triangle of blocks.
//! let graph = triangle_graph(6);
//! let grid = TriangleGrid::new(6);
//! assert_eq!(graph.len(), grid.len());
//!
//! let done = AtomicUsize::new(0);
//! run(&graph, 4, &ExecContext::disabled(), |_block| {
//!     done.fetch_add(1, Ordering::Relaxed);
//! })
//! .unwrap();
//! assert_eq!(done.load(Ordering::Relaxed), 21);
//! ```

pub mod driver;
pub mod graph;
pub mod triangle;

// Behaviour tests of `run`, one module per ready-set discipline.
#[cfg(test)]
mod locality;
#[cfg(test)]
mod pool;
#[cfg(test)]
mod stealing;

pub use driver::{execute_sequential, run, saturating_ns, ExecError, ExecStats};
pub use graph::TaskGraph;
pub use npdp_exec::{ExecContext, Scheduler};
pub use triangle::{
    diagonal_batched_grid, scheduling_grid, triangle_graph, SchedulingGrid, TriangleGrid,
};
