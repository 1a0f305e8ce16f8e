//! NPDP solver engines, from the original flowchart to full CellNPDP.
//!
//! Every engine computes the same min-plus interval closure
//! `d[i][j] = min(d[i][j], d[i][k] + d[k][j])` for all `i < k < j`, and all
//! engines produce **bit-identical** results (see [`crate::value::DpValue`]).
//! They differ in data layout, kernel and parallel tier — the paper's
//! ablation axes:
//!
//! | Engine | Layout | Kernel | Parallel | Paper label |
//! |---|---|---|---|---|
//! | [`SerialEngine`] | triangular | scalar | — | "original algorithm" (Fig. 1) |
//! | [`TiledEngine`] | triangular | scalar | — | tiling of prior work (Fig. 4) |
//! | [`BlockedEngine`] | **NDL** | scalar 4×4 tiles | — | + new data layout |
//! | [`SimdEngine`] | **NDL** | **`MinPlus` (SIMD)** | — | + SPE procedure |
//! | [`ParallelEngine`] | **NDL** | **`MinPlus` (SIMD)** | **task queue** | CellNPDP (Fig. 8) |
//! | [`WavefrontEngine`] | NDL | `MinPlus` (SIMD) | rayon barriers | cross-check |
//!
//! The blocked, SIMD and parallel engines are one engine stack: their
//! `Engine` impls solve [`ClosureRec`] through the [`SolveRecurrence`]
//! tiers, so the kernel axis is a ring choice. "NDL" hands in min-plus with
//! the [`Semiring`] trait's scalar tile defaults, "+SPEP" and CellNPDP hand
//! in [`MinPlus`](crate::semiring::MinPlus) and its host-native kernels,
//! and one sweep ([`crate::recurrence::solve_blocked`]) or one task body
//! ([`crate::recurrence::solve_parallel`]) runs every block.

pub(crate) mod banded;
pub mod block_compute;
mod blocked;
mod instrumented;
mod parallel;
mod scalar_kernels;
mod serial;
pub(crate) mod shared;
mod simd;
mod tiled;
mod wavefront;

pub use banded::BandedEngine;
pub use blocked::BlockedEngine;
pub use instrumented::{analytic_tile_updates, solve_simd_counted, OpCounts};
pub use parallel::{ParallelEngine, Scheduler};
pub use serial::SerialEngine;
pub use simd::SimdEngine;
pub use tiled::TiledEngine;
pub use wavefront::WavefrontEngine;

use npdp_exec::ExecContext;
use npdp_trace::{EventKind, TrackDesc};
use task_queue::ExecStats;

use crate::error::SolveError;
use crate::layout::TriangularMatrix;
use crate::recurrence::{ClosureRec, SolveRecurrence};
use crate::semiring::Semiring;
use crate::value::DpValue;

/// Validate every problem seed (NaN, negative lengths) before a solve.
/// O(n²) compares — negligible next to the O(n³) closure.
///
/// The all-valid case (every solve that doesn't error) is a straight sweep
/// of the flat storage with no per-cell index arithmetic, keeping
/// `solve_with`'s mandatory validation within noise of the raw solve; the
/// coordinate walk runs only to name the offending cell.
pub fn validate_seeds<T: DpValue>(seeds: &TriangularMatrix<T>) -> Result<(), SolveError> {
    if seeds.as_slice().iter().all(|&v| T::seed_issue(v).is_none()) {
        return Ok(());
    }
    for (i, j, v) in seeds.iter() {
        if let Some(issue) = T::seed_issue(v) {
            return Err(SolveError::InvalidSeed { i, j, issue });
        }
    }
    unreachable!("flat-storage scan flagged a seed the cell walk cannot find")
}

/// The NDL engines' raw [`Engine::solve`]: the closure of `seeds` under
/// `ring` through `engine`'s [`SolveRecurrence`] tier, unvalidated and
/// uninstrumented.
pub(crate) fn solve_closure<E, S>(
    engine: &E,
    ring: S,
    seeds: &TriangularMatrix<S::Elem>,
) -> TriangularMatrix<S::Elem>
where
    E: SolveRecurrence,
    S: Semiring,
{
    // Only a real worker panic can make a disabled-context solve fail.
    let rec = ClosureRec::new(ring, seeds);
    let (out, _) = engine
        .solve_recurrence(&rec, &ExecContext::disabled())
        .unwrap_or_else(|e| panic!("{e}"));
    out
}

/// A solver for the NPDP min-plus interval closure.
pub trait Engine<T: DpValue> {
    /// Short name for reports and benchmark tables.
    fn name(&self) -> &'static str;

    /// Solve the closure over the seeded triangle, returning the completed
    /// DP table. Seeds are the initial `d[i][j]` values (`+∞` where absent).
    ///
    /// Seeds are not validated here; [`Engine::solve_with`] does that.
    fn solve(&self, seeds: &TriangularMatrix<T>) -> TriangularMatrix<T>;

    /// The one generic instrumented entry point: solve under the policies of
    /// `ctx` — counters into `ctx.metrics` (a disabled handle costs one
    /// untaken branch and leaves the result bit-identical), a timeline into
    /// `ctx.tracer`, faults from `ctx.faults` retried per `ctx.retry`, the
    /// parallel tier's discipline from `ctx.scheduler`, and a model-chosen
    /// block side when `ctx.tuning` is [`npdp_exec::Tuning::Auto`]. Seeds
    /// are always validated (NaN / negative lengths become a typed
    /// [`SolveError`] instead of garbage).
    ///
    /// The default wraps [`Engine::solve`] in a control-track `Solve` span
    /// and an `engine.wall_ns` timer and attributes `engine.cells_computed`
    /// (the `n(n-1)/2` logical DP cells) in one shot; the NDL engines
    /// override it to validate and then run
    /// [`SolveRecurrence::solve_recurrence`],
    /// which attributes work per memory block (and, on the parallel tier,
    /// runs the task-queue driver, returning real scheduler stats).
    fn solve_with(
        &self,
        seeds: &TriangularMatrix<T>,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<T>, ExecStats), SolveError> {
        timed_solve(self.name(), seeds, ctx, || Ok(self.solve(seeds)))
    }
}

/// [`Engine::solve_with`]'s default body around a fallible `solve`:
/// validate the seeds, then run it inside a control-track `Solve` span and
/// the `engine.wall_ns` timer, attributing `engine.cells_computed` in one
/// shot.
pub(crate) fn timed_solve<T: DpValue>(
    name: &str,
    seeds: &TriangularMatrix<T>,
    ctx: &ExecContext,
    solve: impl FnOnce() -> Result<TriangularMatrix<T>, SolveError>,
) -> Result<(TriangularMatrix<T>, ExecStats), SolveError> {
    validate_seeds(seeds)?;
    let track = ctx
        .tracer
        .register(TrackDesc::control(format!("engine: {name}")));
    let _span = ctx.tracer.span(track, EventKind::Solve);
    let out = {
        let _t = ctx.metrics.timed("engine.wall_ns");
        solve()?
    };
    ctx.metrics.add("engine.cells_computed", seeds.len() as u64);
    Ok((out, ExecStats::serial()))
}
