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
//! Three solver tiers share every dependence argument with the min-plus
//! engines:
//!
//! * [`solve_serial`] — the Fig. 1 flowchart; the only tier that honors
//!   `extend_at` overrides ([`Recurrence::split_dependent`]).
//! * [`solve_blocked`] — the NDL sweep: the same three block procedures as
//!   the min-plus engines (`block_compute::{stage1_ring,
//!   stage2_offdiag_ring, compute_diag_ring}`), so stage 1 and the stage-2
//!   strips go through [`Semiring::rank_update`] — the host-native kernels
//!   for min-plus `f32`/`f64`/`i64` and for CYK's rule lanes, the 4×4 tile
//!   sweep otherwise.
//! * [`solve_parallel`] — the CellNPDP task queue over scheduling blocks,
//!   all four [`Scheduler`] disciplines, same `SharedBlocked` state machine.
//!
//! `finalize` is sound on the blocked tiers because the block procedures
//! take it as a per-cell hook applied right after the cell's last
//! candidate (its scalar edge pass), and every read of a cell — by a later
//! rank-update strip, a left-tile update or another edge pass of the same
//! block, or by a later block — comes after that. Stage-1 operand blocks
//! are fully final. So each logical cell is finalized exactly once, after
//! all its candidates; padding cells past `n` are never finalized.

use npdp_exec::{ExecContext, Scheduler, Tuning};
use task_queue::{diagonal_batched_grid, run, scheduling_grid, ExecStats};

use crate::engine::block_compute::{compute_diag_ring, stage1_ring, stage2_offdiag_ring};
use crate::engine::shared::SharedBlocked;
use crate::engine::{BlockedEngine, ParallelEngine, SerialEngine, SimdEngine};
use crate::error::SolveError;
use crate::layout::{BlockedMatrix, TriangularMatrix};
use crate::semiring::Semiring;

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

/// Stage 2 of an off-diagonal block `(bi, bj)` with row origin `oi = bi·nb`
/// and column origin `oj = bj·nb`: [`stage2_offdiag_ring`] with `rec`'s
/// `finalize` on every logical cell (padding cells past `n` stay as
/// reduced). `c` arrives holding `seed ⊕ stage-1` accumulations.
fn rec_stage2<R: Recurrence>(
    rec: &R,
    c: &mut [RingElem<R>],
    dlo: &[RingElem<R>],
    dhi: &[RingElem<R>],
    nb: usize,
    oi: usize,
    oj: usize,
) {
    let finalize = finalize_at(rec, oi, oj);
    stage2_offdiag_ring(rec.ring(), c, dlo, dhi, nb, finalize);
}

/// Compute a diagonal block `(b, b)` at global origin `o` from its own
/// seeds: [`compute_diag_ring`] with `rec`'s `finalize` on every logical
/// cell.
fn rec_diag<R: Recurrence>(rec: &R, c: &mut [RingElem<R>], nb: usize, o: usize) {
    compute_diag_ring(rec.ring(), c, nb, finalize_at(rec, o, o));
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

/// Seed a blocked matrix for `rec`: `zero` everywhere (padding included),
/// `seed(i, j)` on logical cells.
fn seeded_blocked<R: Recurrence>(rec: &R, nb: usize) -> BlockedMatrix<RingElem<R>> {
    let n = rec.side();
    let mut m = BlockedMatrix::new_filled(n, nb, rec.ring().zero());
    for i in 0..n {
        for j in i + 1..n {
            m.set(i, j, rec.seed(i, j));
        }
    }
    m
}

/// Export a solved blocked matrix to the triangular layout.
fn extract_triangular<R: Recurrence>(
    rec: &R,
    m: &BlockedMatrix<RingElem<R>>,
) -> TriangularMatrix<RingElem<R>> {
    let n = rec.side();
    let mut out = TriangularMatrix::filled(n, rec.ring().zero());
    for i in 0..n {
        for j in i + 1..n {
            out.set(i, j, m.get(i, j));
        }
    }
    out
}

/// The NDL sweep over an arbitrary recurrence: block columns ascending,
/// block rows descending; off-diagonal blocks staged through a scratch
/// buffer (the SPE local store), stage 1 through the ring's tile kernel.
///
/// # Panics
/// On split-dependent recurrences (see [`Recurrence::split_dependent`]);
/// the [`SolveRecurrence`] engines report those as
/// [`SolveError::InvalidProblem`] instead.
pub fn solve_blocked<R: Recurrence>(rec: &R, nb: usize) -> TriangularMatrix<RingElem<R>> {
    assert!(!rec.split_dependent(), "{SPLIT_DEPENDENT}");
    let ring = rec.ring();
    let mut m = seeded_blocked(rec, nb);
    let mb = m.blocks_per_side();
    let mut scratch = vec![ring.zero(); nb * nb];
    for bj in 0..mb {
        for bi in (0..=bj).rev() {
            if bi == bj {
                rec_diag(rec, m.block_mut(bi, bi), nb, bi * nb);
            } else {
                scratch.copy_from_slice(m.block(bi, bj));
                for bk in bi + 1..bj {
                    stage1_ring(ring, &mut scratch, m.block(bi, bk), m.block(bk, bj), nb);
                }
                rec_stage2(
                    rec,
                    &mut scratch,
                    m.block(bi, bi),
                    m.block(bj, bj),
                    nb,
                    bi * nb,
                    bj * nb,
                );
                m.block_mut(bi, bj).copy_from_slice(&scratch);
            }
        }
    }
    extract_triangular(rec, &m)
}

/// CellNPDP over an arbitrary recurrence: the task-queue parallel tier with
/// the same scheduling grids, dependence graph, block state machine and
/// driver as [`ParallelEngine::solve_blocked_with`] — any of the four
/// [`Scheduler`] disciplines, bit-identical results by construction.
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
    assert!(!rec.split_dependent(), "{SPLIT_DEPENDENT}");
    let ring = rec.ring();
    let metrics = &ctx.metrics;
    let mut m = seeded_blocked(rec, nb);
    let mb = m.blocks_per_side();
    let cell_counts: Vec<Vec<u64>> = if metrics.enabled() {
        (0..mb)
            .map(|bi| {
                (bi..mb)
                    .map(|bj| m.logical_cells_in_block(bi, bj) as u64)
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    let shared = SharedBlocked::new(&mut m);
    let sched = match scheduler {
        Scheduler::LocalityBatched => diagonal_batched_grid(mb, sb, workers),
        _ => scheduling_grid(mb, sb),
    };

    let body = |task: usize| {
        for &(bi, bj) in &sched.members[task] {
            let c = shared.claim(bi, bj);
            if bi == bj {
                rec_diag(rec, c, nb, bi * nb);
                metrics.add("engine.kernel_invocations", 1);
            } else {
                for bk in bi + 1..bj {
                    stage1_ring(
                        ring,
                        c,
                        shared.read_final(bi, bk),
                        shared.read_final(bk, bj),
                        nb,
                    );
                }
                rec_stage2(
                    rec,
                    c,
                    shared.read_final(bi, bi),
                    shared.read_final(bj, bj),
                    nb,
                    bi * nb,
                    bj * nb,
                );
                metrics.add("engine.kernel_invocations", (bj - bi) as u64);
            }
            shared.finalize(bi, bj);
            metrics.add("engine.blocks_swept", 1);
            if metrics.enabled() {
                metrics.add("engine.cells_computed", cell_counts[bi][bj - bi]);
            }
        }
    };
    let exec_ctx = ctx.clone().with_scheduler(scheduler);
    let stats = run(&sched.graph, workers, &exec_ctx, body).map_err(SolveError::from)?;
    assert!(shared.all_final(), "scheduler left unfinished blocks");
    drop(shared);
    Ok((extract_triangular(rec, &m), stats))
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

/// Engines that can run an arbitrary [`Recurrence`]. This is the generic
/// counterpart of [`crate::engine::Engine`]: same tiers, same dependence
/// arguments, element type chosen per call by the recurrence's ring.
pub trait SolveRecurrence {
    /// Solve `rec` under the policies of `ctx` (metrics; the parallel tier
    /// additionally honors faults/retry and [`Tuning::Auto`]).
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
        let out = {
            let _t = ctx.metrics.timed("engine.wall_ns");
            solve_serial(rec)
        };
        ctx.metrics.add("engine.cells_computed", out.len() as u64);
        Ok((out, ExecStats::serial()))
    }
}

impl SolveRecurrence for BlockedEngine {
    fn solve_recurrence<R: Recurrence>(
        &self,
        rec: &R,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<RingElem<R>>, ExecStats), SolveError> {
        blockable(rec)?;
        let out = {
            let _t = ctx.metrics.timed("engine.wall_ns");
            solve_blocked(rec, self.nb)
        };
        ctx.metrics.add("engine.cells_computed", out.len() as u64);
        Ok((out, ExecStats::serial()))
    }
}

impl SolveRecurrence for SimdEngine {
    // Identical math to `BlockedEngine`: on the generic path the kernel
    // choice lives in `Semiring::rank_update` / `Semiring::tile4`, the
    // SIMD fast paths for min-plus floats and the scalar ⊕/⊗ loop
    // otherwise.
    fn solve_recurrence<R: Recurrence>(
        &self,
        rec: &R,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<RingElem<R>>, ExecStats), SolveError> {
        blockable(rec)?;
        let out = {
            let _t = ctx.metrics.timed("engine.wall_ns");
            solve_blocked(rec, self.nb)
        };
        ctx.metrics.add("engine.cells_computed", out.len() as u64);
        Ok((out, ExecStats::serial()))
    }
}

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

/// The pure min-plus closure as a recurrence over borrowed seeds — the
/// bridge that proves the generic path bit-identical to the hardcoded
/// engines (`tests/engines_agree.rs`).
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
    use crate::semiring::{MaxPlusRing, MinPlus};

    fn random_seeds(n: usize, seed: u64) -> TriangularMatrix<f32> {
        let mut s = seed;
        TriangularMatrix::from_fn(n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32) / (u32::MAX as f32) * 100.0
        })
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
                let via_rec = solve_blocked(&rec, nb);
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
        assert_eq!(solve_blocked(&rec, 8).first_difference(&expect), None);
    }

    #[test]
    #[allow(deprecated)]
    fn max_plus_ring_closure_matches_deprecated_newtype() {
        // Satellite: old newtype path (engines over MaxPlus<f32>) vs new
        // plain-scalar ring through the generic path — bit-identical.
        use crate::value::MaxPlus;
        let n = 48;
        let base = random_seeds(n, 7);
        let plain = TriangularMatrix::from_fn(n, |i, j| base.get(i, j) - 50.0);
        let rec = ClosureRec::new(MaxPlusRing::<f32>::new(), &plain);

        let lifted = TriangularMatrix::from_fn(n, |i, j| MaxPlus(plain.get(i, j)));
        let old = SerialEngine.solve(&lifted);

        for (name, new) in [
            ("serial", solve_serial(&rec)),
            ("blocked", solve_blocked(&rec, 8)),
            (
                "parallel",
                solve_parallel(
                    &rec,
                    8,
                    2,
                    4,
                    Scheduler::CentralQueue,
                    &ExecContext::disabled(),
                )
                .unwrap()
                .0,
            ),
        ] {
            for (i, j, v) in new.iter() {
                assert_eq!(v.to_bits(), old.get(i, j).0.to_bits(), "{name} ({i},{j})");
            }
        }
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
        let _ = solve_blocked(&rec, 4);
    }
}
