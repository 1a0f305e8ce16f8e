//! The recurrence abstraction: per-cell candidate generation over a
//! [`Semiring`], threaded through the whole engine stack.
//!
//! A [`Recurrence`] describes one interval-containment DP:
//!
//! ```text
//! cell(i, j) = finalize(i, j, seed(i, j) ⊕ ⨁_{i<k<j} extend_at(i, k, j, cell(i,k), cell(k,j)))
//! ```
//!
//! where ⊕/⊗ come from the recurrence's ring. This subsumes the shapes of
//! `apps::generic` — shared-split (`extend_at` carrying a `k`-dependent cost
//! term), rooted (gap-shifted coordinates, see [`RootedRec`]) — and adds the
//! `finalize` hook that lets per-interval terms (optimal-BST subtree
//! weights, Zuker energy assembly) run *on the engines*, not just serially.
//!
//! Three solver tiers run every DP in the workspace, the min-plus closure
//! included — the `Engine` impls of [`BlockedEngine`],
//! [`SimdEngine`] and [`ParallelEngine`] are adapters that solve
//! [`ClosureRec`] over a min-plus ring:
//!
//! * [`solve_serial`] — the Fig. 1 flowchart; the only tier that honors
//!   `extend_at` overrides ([`Recurrence::split_dependent`]).
//! * [`solve_blocked`] — the NDL sweep, the one single-threaded block
//!   sweep: every block through the three block procedures
//!   (`block_compute::{stage1_ring, stage2_offdiag_ring,
//!   compute_diag_ring}`), so stage 1 and the stage-2 strips go through
//!   [`Semiring::rank_update`] — the host-native kernels for min-plus
//!   `f32`/`f64`/`i32`/`i64`, CYK's rule lanes and Zuker's track planes,
//!   the 4×4 tile sweep otherwise.
//! * [`solve_parallel`] — the CellNPDP task queue over scheduling blocks,
//!   all four [`Scheduler`] disciplines, the `SharedBlocked` state machine,
//!   the same per-block procedure.
//!
//! `finalize` is sound on the blocked tiers because the block procedures
//! take it as a per-cell hook applied right after the cell's last
//! candidate (its scalar edge pass), and every read of a cell — by a later
//! rank-update strip, a left-tile update or another edge pass of the same
//! block, or by a later block — comes after that. Stage-1 operand blocks
//! are fully final. So each logical cell is finalized exactly once, after
//! all its candidates; padding cells past `n` are never finalized.

use std::any::Any;

use npdp_exec::{ExecContext, Scheduler, Tuning};
use npdp_metrics::Metrics;
use npdp_trace::{EventKind, TrackDesc};
use task_queue::{diagonal_batched_grid, run, scheduling_grid, ExecStats};

use crate::engine::block_compute::{compute_diag_ring, stage1_ring, stage2_offdiag_ring};
use crate::engine::shared::SharedBlocked;
use crate::engine::{BlockedEngine, ParallelEngine, SerialEngine, SimdEngine};
use crate::error::SolveError;
use crate::layout::{BlockedMatrix, TriangularMatrix};
use crate::semiring::{MinPlus, Semiring};
use crate::value::DpValue;

/// Element type of a recurrence's ring.
pub type RingElem<R> = <<R as Recurrence>::Ring as Semiring>::Elem;

/// One interval-containment DP: a ring plus per-cell candidate generation.
///
/// `Sync` because the parallel tier shares the recurrence across workers.
pub trait Recurrence: Sync {
    /// The `(⊕, ⊗)` algebra the engines apply.
    type Ring: Semiring;

    /// The ring instance (may carry runtime data: grammars, energy models).
    fn ring(&self) -> &Self::Ring;

    /// Table side length `n`; cells are `(i, j)` with `i < j < n`.
    fn side(&self) -> usize;

    /// Initial value of cell `(i, j)` before any split candidate is
    /// reduced in — `ring().zero()` where the recurrence has no seed.
    fn seed(&self, i: usize, j: usize) -> RingElem<Self>;

    /// Post-reduction hook, applied exactly once per logical cell after all
    /// split candidates: per-interval cost terms (subtree weights, loop
    /// energies) go here. Defaults to the identity.
    #[inline]
    fn finalize(&self, _i: usize, _j: usize, acc: RingElem<Self>) -> RingElem<Self> {
        acc
    }

    /// The candidate composition for split `k`, defaulting to the ring's
    /// `extend`. Overriding this with anything `k`-dependent requires
    /// [`Recurrence::split_dependent`] to return `true`.
    #[inline]
    fn extend_at(
        &self,
        _i: usize,
        _k: usize,
        _j: usize,
        a: RingElem<Self>,
        b: RingElem<Self>,
    ) -> RingElem<Self> {
        self.ring().extend(a, b)
    }

    /// Whether `extend_at` depends on the split point. Split-dependent
    /// recurrences cannot ride the blocked/parallel tiers (the stage-1 tile
    /// kernels compose candidates in bulk) and solve serially only.
    #[inline]
    fn split_dependent(&self) -> bool {
        false
    }
}

/// The Fig. 1 flowchart over an arbitrary recurrence: columns ascending,
/// rows descending, splits ascending. Honors `extend_at` overrides.
pub fn solve_serial<R: Recurrence>(rec: &R) -> TriangularMatrix<RingElem<R>> {
    let n = rec.side();
    let ring = rec.ring();
    let mut d = TriangularMatrix::filled(n, ring.zero());
    for j in 0..n {
        for i in (0..j).rev() {
            let mut acc = rec.seed(i, j);
            for k in i + 1..j {
                acc = ring.combine(acc, rec.extend_at(i, k, j, d.get(i, k), d.get(k, j)));
            }
            d.set(i, j, rec.finalize(i, j, acc));
        }
    }
    d
}

/// `rec.finalize` in the block-local coordinates of the block at global
/// origin `(oi, oj)`; the identity on padding cells (`gi ≥ n` or `gj ≥ n`).
#[inline]
fn finalize_at<R: Recurrence>(
    rec: &R,
    oi: usize,
    oj: usize,
) -> impl Fn(usize, usize, RingElem<R>) -> RingElem<R> + '_ {
    let n = rec.side();
    move |i, j, acc| {
        let (gi, gj) = (oi + i, oj + j);
        if gi < n && gj < n {
            rec.finalize(gi, gj, acc)
        } else {
            acc
        }
    }
}

/// One memory block `(bi, bj)` of the sweep, computed in place in `c`
/// (which arrives holding the block's seeds): a diagonal block from its own
/// seeds, an off-diagonal one through stage 1 against every final pair
/// `(bi, bk) × (bk, bj)` and then stage 2 against its two diagonal blocks,
/// with `rec`'s `finalize` on every logical cell. `block(r, c)` reads a
/// final block. Both tiers, and the wavefront and banded engines, compute
/// every block through here.
pub(crate) fn compute_block<'a, R: Recurrence>(
    rec: &R,
    c: &mut [RingElem<R>],
    bi: usize,
    bj: usize,
    nb: usize,
    block: impl Fn(usize, usize) -> &'a [RingElem<R>],
) {
    let ring = rec.ring();
    if bi == bj {
        compute_diag_ring(ring, c, nb, finalize_at(rec, bi * nb, bi * nb));
        return;
    }
    for bk in bi + 1..bj {
        stage1_ring(ring, c, block(bi, bk), block(bk, bj), nb);
    }
    let finalize = finalize_at(rec, bi * nb, bj * nb);
    stage2_offdiag_ring(ring, c, block(bi, bi), block(bj, bj), nb, finalize);
}

/// The work counters of one computed block `(bi, bj)` holding `cells`
/// logical cells: `engine.kernel_invocations` (one diagonal computation,
/// or `bj - bi - 1` stage-1 products plus one stage 2),
/// `engine.blocks_swept` and `engine.cells_computed` (summing to
/// `n(n-1)/2` over a solve).
#[inline]
fn count_block(metrics: &Metrics, bi: usize, bj: usize, cells: usize) {
    metrics.add("engine.kernel_invocations", (bj - bi).max(1) as u64);
    metrics.add("engine.blocks_swept", 1);
    metrics.add("engine.cells_computed", cells as u64);
}

/// Seed a blocked matrix for `rec`: `zero` everywhere (padding included),
/// `seed(i, j)` on logical cells, filled one block-row run at a time.
fn seeded_blocked<R: Recurrence>(rec: &R, nb: usize) -> BlockedMatrix<RingElem<R>> {
    let mut m = BlockedMatrix::new_filled(rec.side(), nb, rec.ring().zero());
    m.for_each_run_mut(|i, j0, run| {
        for (j, cell) in (j0..).zip(run) {
            *cell = rec.seed(i, j);
        }
    });
    m
}

/// The NDL sweep over an arbitrary recurrence — the one single-threaded
/// block sweep: block columns ascending, block rows descending; off-diagonal
/// blocks staged through a scratch buffer (the SPE local store). Per-block
/// work counters go to `ctx.metrics`.
///
/// # Panics
/// On split-dependent recurrences (see [`Recurrence::split_dependent`]);
/// the [`SolveRecurrence`] engines report those as
/// [`SolveError::InvalidProblem`] instead.
pub fn solve_blocked<R: Recurrence>(
    rec: &R,
    nb: usize,
    ctx: &ExecContext,
) -> TriangularMatrix<RingElem<R>> {
    assert!(!rec.split_dependent(), "{SPLIT_DEPENDENT}");
    let mut m = seeded_blocked(rec, nb);
    let mut scratch = vec![rec.ring().zero(); nb * nb];
    for bj in 0..m.blocks_per_side() {
        for bi in (0..=bj).rev() {
            scratch.copy_from_slice(m.block(bi, bj));
            compute_block(rec, &mut scratch, bi, bj, nb, |r, c| m.block(r, c));
            m.block_mut(bi, bj).copy_from_slice(&scratch);
            count_block(&ctx.metrics, bi, bj, m.logical_cells_in_block(bi, bj));
        }
    }
    // Free the scratch before the export allocates the table: kept alive,
    // it shifts where the allocator places the caller's next large buffer.
    drop(scratch);
    debug_assert_padding_inert(rec.ring(), &m);
    m.to_triangular()
}

/// Debug builds: a solve over a [`MinPlus`] ring must leave every padding
/// cell at or above `DpValue::PAD_FLOOR` (the padding law, checked on the
/// solved matrix rather than sampled). Other rings carry the law as a
/// property test next to their definitions.
fn debug_assert_padding_inert<S: Semiring>(ring: &S, m: &BlockedMatrix<S::Elem>) {
    debug_assert!(
        min_plus_padding_inert::<f32, S>(ring, m)
            .or_else(|| min_plus_padding_inert::<f64, S>(ring, m))
            .or_else(|| min_plus_padding_inert::<i32, S>(ring, m))
            .or_else(|| min_plus_padding_inert::<i64, S>(ring, m))
            != Some(false),
        "a min-plus solve left a padding cell below PAD_FLOOR"
    );
}

/// Whether `m`'s padding is inert, if `ring` is `MinPlus<T>`; `None` for
/// any other ring.
fn min_plus_padding_inert<T: DpValue, S: Semiring>(
    ring: &S,
    m: &BlockedMatrix<S::Elem>,
) -> Option<bool> {
    (ring as &dyn Any).downcast_ref::<MinPlus<T>>()?;
    let m = (m as &dyn Any).downcast_ref::<BlockedMatrix<T>>()?;
    Some(m.padding_is_inert())
}

/// CellNPDP over an arbitrary recurrence: the task-queue parallel tier over
/// scheduling blocks, any of the four [`Scheduler`] disciplines, the
/// `SharedBlocked` state machine — bit-identical results by construction.
/// Counters go to `ctx.metrics`, per-worker `Block` spans to `ctx.tracer`,
/// and faults from `ctx.faults` are retried per `ctx.retry`.
///
/// # Panics
/// On split-dependent recurrences, as [`solve_blocked`].
pub fn solve_parallel<R: Recurrence>(
    rec: &R,
    nb: usize,
    sb: usize,
    workers: usize,
    scheduler: Scheduler,
    ctx: &ExecContext,
) -> Result<(TriangularMatrix<RingElem<R>>, ExecStats), SolveError> {
    let mut m = seeded_blocked(rec, nb);
    let stats = sweep_parallel(rec, &mut m, sb, workers, scheduler, ctx)?;
    Ok((m.to_triangular(), stats))
}

/// [`solve_parallel`]'s sweep over an already-seeded blocked matrix, in
/// place — the one parallel task body. On `Err` the matrix is left
/// partially finalized and must be discarded.
///
/// Injected [`npdp_fault::FaultKind::TaskPanic`] faults fire in the
/// executor *before* the task body claims any block, so a retried task
/// replays cleanly and a recovered run stays bit-identical; a *real* panic
/// mid-task trips the block state machine on requeue, exhausts the retry
/// budget and surfaces as [`SolveError::TaskFailed`].
pub(crate) fn sweep_parallel<R: Recurrence>(
    rec: &R,
    m: &mut BlockedMatrix<RingElem<R>>,
    sb: usize,
    workers: usize,
    scheduler: Scheduler,
    ctx: &ExecContext,
) -> Result<ExecStats, SolveError> {
    assert!(!rec.split_dependent(), "{SPLIT_DEPENDENT}");
    let (metrics, tracer) = (&ctx.metrics, &ctx.tracer);
    let nb = m.block_side();
    let mb = m.blocks_per_side();
    // Per-block logical-cell counts, precomputed so the hot worker loop
    // only increments counters.
    let cell_counts: Vec<Vec<usize>> = if metrics.enabled() {
        (0..mb)
            .map(|bi| {
                (bi..mb)
                    .map(|bj| m.logical_cells_in_block(bi, bj))
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    let shared = SharedBlocked::new(m);
    // The batched variant folds diagonals with fewer tasks than workers
    // into one trailing batch; member order keeps the sweep
    // dependence-safe, so results stay bit-identical.
    let sched = match scheduler {
        Scheduler::LocalityBatched => diagonal_batched_grid(mb, sb, workers),
        _ => scheduling_grid(mb, sb),
    };

    let body = |task: usize| {
        for &(bi, bj) in &sched.members[task] {
            // The executor bound this thread's track, so the block span
            // nests inside its task span.
            let kind = EventKind::Block {
                bi: bi as u32,
                bj: bj as u32,
            };
            tracer.begin_current(kind);
            let c = shared.claim(bi, bj);
            compute_block(rec, c, bi, bj, nb, |r, cc| shared.read_final(r, cc));
            shared.finalize(bi, bj);
            tracer.end_current(kind);
            if metrics.enabled() {
                count_block(metrics, bi, bj, cell_counts[bi][bj - bi]);
            }
        }
    };
    // One generic driver call; the tier's own discipline wins over
    // whatever `ctx.scheduler` was set to.
    let exec_ctx = ctx.clone().with_scheduler(scheduler);
    let stats = run(&sched.graph, workers, &exec_ctx, body).map_err(SolveError::from)?;
    shared.finished()?;
    debug_assert_padding_inert(rec.ring(), m);
    Ok(stats)
}

/// Why the blocked and parallel tiers refuse split-dependent recurrences.
const SPLIT_DEPENDENT: &str =
    "split-dependent recurrences solve serially only (stage-1 tile kernels compose candidates in bulk)";

/// The blocked and parallel engines' check before [`solve_blocked`] /
/// [`solve_parallel`]: a split-dependent recurrence is an invalid problem
/// for them, not a panic.
fn blockable<R: Recurrence>(rec: &R) -> Result<(), SolveError> {
    match rec.split_dependent() {
        true => Err(SolveError::InvalidProblem {
            reason: SPLIT_DEPENDENT.into(),
        }),
        false => Ok(()),
    }
}

/// The single-threaded tiers' envelope around a solve: a control-track
/// `Solve` span named after the engine, and the `engine.wall_ns` timer.
fn single_threaded<T>(name: &str, ctx: &ExecContext, solve: impl FnOnce() -> T) -> T {
    let track = ctx
        .tracer
        .register(TrackDesc::control(format!("engine: {name}")));
    let _span = ctx.tracer.span(track, EventKind::Solve);
    let _t = ctx.metrics.timed("engine.wall_ns");
    solve()
}

/// Engines that can run an arbitrary [`Recurrence`]. The
/// [`crate::engine::Engine`] impls of the blocked, SIMD and parallel engines
/// are adapters over this trait: they solve `ClosureRec` over a min-plus
/// ring.
pub trait SolveRecurrence {
    /// Solve `rec` under the policies of `ctx`: counters into
    /// `ctx.metrics` and a timeline into `ctx.tracer` on every tier; the
    /// parallel tier additionally honors faults/retry and
    /// [`Tuning::Auto`].
    fn solve_recurrence<R: Recurrence>(
        &self,
        rec: &R,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<RingElem<R>>, ExecStats), SolveError>;
}

impl SolveRecurrence for SerialEngine {
    fn solve_recurrence<R: Recurrence>(
        &self,
        rec: &R,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<RingElem<R>>, ExecStats), SolveError> {
        let out = single_threaded(SerialEngine::NAME, ctx, || solve_serial(rec));
        ctx.metrics.add("engine.cells_computed", out.len() as u64);
        Ok((out, ExecStats::serial()))
    }
}

/// The blocked and SIMD engines' one [`SolveRecurrence`] body: the two
/// differ only in the ring their `Engine` adapters hand in.
fn solve_single<R: Recurrence>(
    name: &str,
    nb: usize,
    rec: &R,
    ctx: &ExecContext,
) -> Result<(TriangularMatrix<RingElem<R>>, ExecStats), SolveError> {
    blockable(rec)?;
    let out = single_threaded(name, ctx, || solve_blocked(rec, nb, ctx));
    Ok((out, ExecStats::serial()))
}

impl SolveRecurrence for BlockedEngine {
    fn solve_recurrence<R: Recurrence>(
        &self,
        rec: &R,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<RingElem<R>>, ExecStats), SolveError> {
        solve_single(BlockedEngine::NAME, self.nb, rec, ctx)
    }
}

impl SolveRecurrence for SimdEngine {
    fn solve_recurrence<R: Recurrence>(
        &self,
        rec: &R,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<RingElem<R>>, ExecStats), SolveError> {
        solve_single(SimdEngine::NAME, self.nb, rec, ctx)
    }
}

/// Unlike the single-threaded tiers, the parallel tier emits no
/// control-track `Solve` span: its timeline is the per-worker `Task` /
/// `Block` spans (paper Fig. 10b), and the trace schema pins that track set.
impl SolveRecurrence for ParallelEngine {
    fn solve_recurrence<R: Recurrence>(
        &self,
        rec: &R,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<RingElem<R>>, ExecStats), SolveError> {
        blockable(rec)?;
        let nb = match ctx.tuning {
            Tuning::Auto => Self::autotune_nb_for(
                self.workers,
                rec.side(),
                std::mem::size_of::<RingElem<R>>(),
                self.scheduler,
            ),
            Tuning::Fixed => self.nb,
        };
        let _t = ctx.metrics.timed("engine.wall_ns");
        solve_parallel(rec, nb, self.sb, self.workers, self.scheduler, ctx)
    }
}

/// The pure closure of borrowed seeds under any ring: with a min-plus ring,
/// what the blocked, SIMD and parallel engines' `Engine` impls solve.
#[derive(Clone, Copy)]
pub struct ClosureRec<'a, S: Semiring> {
    ring: S,
    seeds: &'a TriangularMatrix<S::Elem>,
}

impl<'a, S: Semiring> ClosureRec<'a, S> {
    /// The closure of `seeds` under `ring`.
    pub fn new(ring: S, seeds: &'a TriangularMatrix<S::Elem>) -> Self {
        Self { ring, seeds }
    }
}

impl<S: Semiring> Recurrence for ClosureRec<'_, S> {
    type Ring = S;

    fn ring(&self) -> &S {
        &self.ring
    }

    fn side(&self) -> usize {
        self.seeds.n()
    }

    fn seed(&self, i: usize, j: usize) -> S::Elem {
        self.seeds.get(i, j)
    }
}

/// The closure of a blocked matrix that already holds its seeds: a ring and
/// a side, nothing else. [`sweep_parallel`] reads only those (and the
/// identity `finalize`), so `ParallelEngine::solve_blocked_with` sweeps in
/// place without exporting the matrix to build a [`ClosureRec`].
pub(crate) struct InPlaceClosure<S> {
    pub(crate) ring: S,
    pub(crate) n: usize,
}

impl<S: Semiring> Recurrence for InPlaceClosure<S> {
    type Ring = S;

    fn ring(&self) -> &S {
        &self.ring
    }

    fn side(&self) -> usize {
        self.n
    }

    fn seed(&self, _: usize, _: usize) -> S::Elem {
        unreachable!("an in-place sweep reads its seeds from the blocked matrix")
    }
}

/// Shared-split NPDP with a `k`-dependent cost term (matrix chain and kin):
/// the [`Recurrence`] spelling of [`crate::apps::generic::solve_shared_split`],
/// serial-only by construction.
pub struct SharedSplitRec<S: Semiring, B, F> {
    ring: S,
    n: usize,
    base: B,
    combine: F,
}

impl<S, B, F> SharedSplitRec<S, B, F>
where
    S: Semiring,
    B: Fn(usize) -> S::Elem + Sync,
    F: Fn(S::Elem, S::Elem, usize, usize, usize) -> S::Elem + Sync,
{
    /// `d[i][i+1] = base(i)`, `d[i][j] = ⨁_k combine(d[i][k], d[k][j], i, k, j)`.
    pub fn new(ring: S, n: usize, base: B, combine: F) -> Self {
        Self {
            ring,
            n,
            base,
            combine,
        }
    }
}

impl<S, B, F> Recurrence for SharedSplitRec<S, B, F>
where
    S: Semiring,
    B: Fn(usize) -> S::Elem + Sync,
    F: Fn(S::Elem, S::Elem, usize, usize, usize) -> S::Elem + Sync,
{
    type Ring = S;

    fn ring(&self) -> &S {
        &self.ring
    }

    fn side(&self) -> usize {
        self.n
    }

    fn seed(&self, i: usize, j: usize) -> S::Elem {
        if j == i + 1 {
            (self.base)(i)
        } else {
            self.ring.zero()
        }
    }

    fn extend_at(&self, i: usize, k: usize, j: usize, a: S::Elem, b: S::Elem) -> S::Elem {
        (self.combine)(a, b, i, k, j)
    }

    fn split_dependent(&self) -> bool {
        true
    }
}

/// Rooted NPDP (the optimal-BST shape) in *gap coordinates*: cell `(i, j)`
/// of a side-`(n+2)` triangle stands for the item interval `i+1 ..= j-1` of
/// `solve_rooted`'s side-`(n+1)` table — `D(i, j) = d(i, j-1)` — which turns
/// "choose root `r`" into a plain engine split `k = r`: `D(i, k)` is the
/// left subtree `d(i, r-1)` and `D(k, j)` the right subtree `d(r, j-1)`,
/// with the empty interval landing on the base diagonal `D(i, i+1)`.
pub struct RootedRec<S: Semiring, F> {
    ring: S,
    n: usize,
    empty: S::Elem,
    combine: F,
}

impl<S, F> RootedRec<S, F>
where
    S: Semiring,
    F: Fn(S::Elem, S::Elem, usize, usize, usize) -> S::Elem + Sync,
{
    /// Rooted recurrence over `n` items; `combine(left, right, i, r, j)`
    /// receives `solve_rooted` coordinates (`i < r ≤ j ≤ n`).
    pub fn new(ring: S, n: usize, empty: S::Elem, combine: F) -> Self {
        Self {
            ring,
            n,
            empty,
            combine,
        }
    }
}

impl<S, F> Recurrence for RootedRec<S, F>
where
    S: Semiring,
    F: Fn(S::Elem, S::Elem, usize, usize, usize) -> S::Elem + Sync,
{
    type Ring = S;

    fn ring(&self) -> &S {
        &self.ring
    }

    fn side(&self) -> usize {
        self.n + 2
    }

    fn seed(&self, i: usize, j: usize) -> S::Elem {
        if j == i + 1 {
            self.empty
        } else {
            self.ring.zero()
        }
    }

    fn extend_at(&self, i: usize, k: usize, j: usize, a: S::Elem, b: S::Elem) -> S::Elem {
        // Gap shift: engine split k is root r; the rooted interval's right
        // boundary is j - 1.
        (self.combine)(a, b, i, k, j - 1)
    }

    fn split_dependent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::semiring::MinPlus;

    fn random_seeds(n: usize, seed: u64) -> TriangularMatrix<f32> {
        let mut s = seed;
        TriangularMatrix::from_fn(n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32) / (u32::MAX as f32) * 100.0
        })
    }

    /// Debug builds check the padding law after every min-plus solve on
    /// the blocked and parallel tiers: seeds far below zero (outside the
    /// domain the law assumes) drag a padding cell past the last column
    /// below `PAD_FLOOR`, and both tiers report it. Domain seeds pass.
    #[test]
    #[cfg(debug_assertions)]
    fn min_plus_solves_check_padding_in_debug_builds() {
        let ctx = ExecContext::disabled();
        let domain = TriangularMatrix::from_fn(10, |i, j| (i * 7 + j) as i64);
        let rec = ClosureRec::new(MinPlus::<i64>::new(), &domain);
        solve_blocked(&rec, 8, &ctx);
        solve_parallel(&rec, 8, 1, 2, Scheduler::default(), &ctx).unwrap();
        let negative = TriangularMatrix::from_fn(10, |_, _| -(i64::MAX / 4));
        let rec = ClosureRec::new(MinPlus::<i64>::new(), &negative);
        for parallel in [false, true] {
            let solve = std::panic::AssertUnwindSafe(|| match parallel {
                false => drop(solve_blocked(&rec, 8, &ctx)),
                true => drop(solve_parallel(&rec, 8, 1, 2, Scheduler::default(), &ctx)),
            });
            let payload = std::panic::catch_unwind(solve).expect_err("padding check fired");
            let message = payload
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                message.contains("PAD_FLOOR"),
                "parallel {parallel}: {message}"
            );
        }
    }

    /// A composite-element ring for layout tests: every cell carries its
    /// own `(i, j)` label.
    #[derive(Clone)]
    struct Labels;

    impl Semiring for Labels {
        type Elem = (usize, usize);

        fn zero(&self) -> (usize, usize) {
            (usize::MAX, usize::MAX)
        }

        fn combine(&self, a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
            a.min(b)
        }

        fn extend(&self, a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
            (a.0, b.1)
        }
    }

    struct LabelRec(usize);

    impl Recurrence for LabelRec {
        type Ring = Labels;

        fn ring(&self) -> &Labels {
            &Labels
        }

        fn side(&self) -> usize {
            self.0
        }

        fn seed(&self, i: usize, j: usize) -> (usize, usize) {
            (i, j)
        }
    }

    /// `seeded_blocked` and the export equal per-cell `set`/`get` walks, for
    /// `f32` closures and a composite element, on the sides around every
    /// block boundary.
    fn assert_seeding_matches_per_cell<R: Recurrence>(rec: &R, nb: usize) {
        let n = rec.side();
        let runs = seeded_blocked(rec, nb);
        let mut cells = BlockedMatrix::new_filled(n, nb, rec.ring().zero());
        for i in 0..n {
            for j in i + 1..n {
                cells.set(i, j, rec.seed(i, j));
            }
        }
        assert!(runs.as_slice() == cells.as_slice(), "seeding n={n} nb={nb}");
        let out = runs.to_triangular();
        let mut per_cell = TriangularMatrix::filled(n, rec.ring().zero());
        for i in 0..n {
            for j in i + 1..n {
                per_cell.set(i, j, cells.get(i, j));
            }
        }
        assert!(out == per_cell, "export n={n} nb={nb}");
    }

    proptest::proptest! {
        #[test]
        fn prop_seeded_blocked_matches_per_cell_set(
            nb in proptest::prop_oneof![
                proptest::prelude::Just(4usize),
                proptest::prelude::Just(8),
                proptest::prelude::Just(12),
                proptest::prelude::Just(88)
            ],
            which in 0usize..7,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = [0, 1, 2, nb - 1, nb, nb + 1, 3 * nb + 1][which];
            let seeds = random_seeds(n, seed);
            assert_seeding_matches_per_cell(&ClosureRec::new(MinPlus::<f32>::new(), &seeds), nb);
            assert_seeding_matches_per_cell(&LabelRec(n), nb);
        }
    }

    #[test]
    fn closure_rec_serial_matches_engine_bitwise() {
        for n in [0, 1, 2, 9, 33, 64] {
            let seeds = random_seeds(n, n as u64 + 1);
            let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
            let via_rec = solve_serial(&rec);
            let via_engine = SerialEngine.solve(&seeds);
            assert_eq!(via_rec.first_difference(&via_engine), None, "n={n}");
        }
    }

    #[test]
    fn closure_rec_blocked_matches_engine_bitwise() {
        for n in [1, 7, 16, 33, 64, 97] {
            for nb in [4, 8, 16] {
                let seeds = random_seeds(n, (n * 31 + nb) as u64);
                let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
                let via_rec = solve_blocked(&rec, nb, &ExecContext::disabled());
                let via_engine = SerialEngine.solve(&seeds);
                assert_eq!(via_rec.first_difference(&via_engine), None, "n={n} nb={nb}");
            }
        }
    }

    #[test]
    fn closure_rec_parallel_matches_engine_all_schedulers() {
        let seeds = random_seeds(65, 3);
        let expect = SerialEngine.solve(&seeds);
        let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
        for scheduler in [
            Scheduler::CentralQueue,
            Scheduler::WorkStealing,
            Scheduler::LocalityBatched,
            Scheduler::Pipelined { lookahead: 2 },
        ] {
            let (got, _) =
                solve_parallel(&rec, 8, 2, 4, scheduler, &ExecContext::disabled()).unwrap();
            assert_eq!(got.first_difference(&expect), None, "{scheduler:?}");
        }
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn solve_recurrence_trait_covers_all_engines() {
        let seeds = random_seeds(40, 9);
        let expect = SerialEngine.solve(&seeds);
        let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
        let ctx = ExecContext::disabled();
        let engines: Vec<(&str, Box<dyn Fn() -> TriangularMatrix<f32>>)> = vec![
            (
                "serial",
                Box::new(|| SerialEngine.solve_recurrence(&rec, &ctx).unwrap().0),
            ),
            (
                "blocked",
                Box::new(|| {
                    BlockedEngine::new(8)
                        .solve_recurrence(&rec, &ctx)
                        .unwrap()
                        .0
                }),
            ),
            (
                "simd",
                Box::new(|| SimdEngine::new(8).solve_recurrence(&rec, &ctx).unwrap().0),
            ),
            (
                "parallel",
                Box::new(|| {
                    ParallelEngine::new(8, 2, 4)
                        .solve_recurrence(&rec, &ctx)
                        .unwrap()
                        .0
                }),
            ),
        ];
        for (name, solve) in engines {
            assert_eq!(solve().first_difference(&expect), None, "{name}");
        }
    }

    #[test]
    fn integer_closure_through_generic_path() {
        let seeds = TriangularMatrix::from_fn(37, |i, j| ((i * 17 + j * 5) % 41) as i64);
        let rec = ClosureRec::new(MinPlus::<i64>::new(), &seeds);
        let expect = SerialEngine.solve(&seeds);
        assert_eq!(
            solve_blocked(&rec, 8, &ExecContext::disabled()).first_difference(&expect),
            None
        );
    }

    #[test]
    fn shared_split_rec_matches_generic_solver() {
        let n = 14;
        let w: Vec<i64> = (0..n).map(|i| ((i * 7) % 11 + 1) as i64).collect();
        let dims: Vec<i64> = (0..=n).map(|i| ((i * 13) % 9 + 1) as i64).collect();
        let combine =
            |a: i64, b: i64, i: usize, k: usize, j: usize| a + b + dims[i] * dims[k] * dims[j];
        let expect = crate::apps::generic::solve_shared_split(n, |i| w[i], combine);
        let rec = SharedSplitRec::new(MinPlus::<i64>::new(), n, |i: usize| w[i], combine);
        assert!(rec.split_dependent());
        assert_eq!(solve_serial(&rec).first_difference(&expect), None);
    }

    #[test]
    fn rooted_rec_matches_generic_solver() {
        let n = 9;
        let cost: Vec<i64> = (1..=n as i64).map(|r| (r * 31) % 13 + 1).collect();
        let combine = |l: i64, r_val: i64, _i: usize, r: usize, _j: usize| l + r_val + cost[r - 1];
        let expect = crate::apps::generic::solve_rooted(n, 0i64, combine);
        let rec = RootedRec::new(MinPlus::<i64>::new(), n, 0i64, combine);
        let d = solve_serial(&rec);
        // Gap shift back: d(i, j) of the rooted table is D(i, j+1).
        for i in 0..=n {
            for j in i + 1..=n {
                assert_eq!(d.get(i, j + 1), expect.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn blocked_engines_report_split_dependent_as_invalid_problem() {
        let rec = SharedSplitRec::new(
            MinPlus::<i64>::new(),
            8,
            |_| 1i64,
            |a: i64, b: i64, _, k: usize, _| a + b + k as i64,
        );
        let ctx = ExecContext::disabled();
        let errors = [
            BlockedEngine::new(4)
                .solve_recurrence(&rec, &ctx)
                .unwrap_err(),
            SimdEngine::new(4).solve_recurrence(&rec, &ctx).unwrap_err(),
            ParallelEngine::new(4, 2, 2)
                .solve_recurrence(&rec, &ctx)
                .unwrap_err(),
        ];
        for err in errors {
            assert!(
                matches!(&err, SolveError::InvalidProblem { reason } if reason.contains("split-dependent")),
                "{err:?}"
            );
        }
        // The serial tier honors `extend_at` and solves it.
        let (serial, _) = SerialEngine.solve_recurrence(&rec, &ctx).unwrap();
        assert_eq!(serial.first_difference(&solve_serial(&rec)), None);
    }

    #[test]
    #[should_panic(expected = "split-dependent")]
    fn blocked_tier_rejects_split_dependent() {
        let rec = SharedSplitRec::new(
            MinPlus::<i64>::new(),
            8,
            |_| 1i64,
            |a: i64, b: i64, _, k: usize, _| a + b + k as i64,
        );
        let _ = solve_blocked(&rec, 4, &ExecContext::disabled());
    }
}
