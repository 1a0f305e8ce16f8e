//! Operation accounting: run the SIMD engine's sweep over a counting
//! min-plus ring and get the exact number of stage-1/stage-2 tile updates.
//!
//! This is the host-side mirror of the Cell machine model's cost formulas —
//! the integration tests assert that the analytic accounting, the host
//! engine, and the functional SPU simulation all count the *same* kernel
//! invocations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use npdp_exec::ExecContext;
use npdp_metrics::Metrics;

use crate::layout::TriangularMatrix;
use crate::recurrence::{solve_blocked, ClosureRec};
use crate::semiring::{MinPlus, Semiring};
use crate::value::DpValue;

/// Exact operation counts of one blocked solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// 4×4 SIMD tile updates performed in stage 1 (dependency pairs).
    pub stage1_tile_updates: u64,
    /// 4×4 SIMD tile updates performed in stage 2 / diagonal middles.
    pub stage2_tile_updates: u64,
    /// `stage1(c, a, b)` invocations (one per dependency block pair).
    pub stage1_calls: u64,
    /// `stage2` invocations (one per off-diagonal block).
    pub stage2_calls: u64,
    /// Diagonal-block computations.
    pub diag_calls: u64,
}

impl OpCounts {
    /// All SIMD tile updates.
    pub fn tile_updates(&self) -> u64 {
        self.stage1_tile_updates + self.stage2_tile_updates
    }
}

/// [`MinPlus`] that adds up the 4×4 tile volume of every `rank_update` and
/// `tile4` call it receives. Stage 1 is the one `nb`-row rank update;
/// every other call belongs to stage 2 or a diagonal block. Rings
/// are `'static`, so the counters sit behind an `Arc`.
#[derive(Clone)]
struct Counting<T> {
    inner: MinPlus<T>,
    nb: usize,
    stage1_tiles: Arc<AtomicU64>,
    stage2_tiles: Arc<AtomicU64>,
}

impl<T: DpValue> Semiring for Counting<T> {
    type Elem = T;

    fn zero(&self) -> T {
        self.inner.zero()
    }

    fn one(&self) -> Option<T> {
        self.inner.one()
    }

    fn combine(&self, a: T, b: T) -> T {
        self.inner.combine(a, b)
    }

    fn extend(&self, a: T, b: T) -> T {
        self.inner.extend(a, b)
    }

    fn tile4(&self, c: &mut [T], cs: usize, a: &[T], as_: usize, b: &[T], bs: usize) {
        self.stage2_tiles.fetch_add(1, Ordering::Relaxed);
        self.inner.tile4(c, cs, a, as_, b, bs);
    }

    fn rank_update(
        &self,
        c: &mut [T],
        cs: usize,
        a: &[T],
        as_: usize,
        b: &[T],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        let tiles = ((rows / 4) * (cols / 4) * (depth / 4)) as u64;
        // Stage 1 is the one call with `nb` rows (its columns are fewer in
        // a ragged last block column); every stage-2 and diagonal call has
        // 4 rows.
        let stage = if rows == self.nb {
            &self.stage1_tiles
        } else {
            &self.stage2_tiles
        };
        stage.fetch_add(tiles, Ordering::Relaxed);
        self.inner
            .rank_update(c, cs, a, as_, b, bs, rows, cols, depth);
    }

    fn edge(
        &self,
        t: &mut [T; 16],
        lo: &[T; 16],
        hi: &[T; 16],
        finalize: impl Fn(usize, usize, T) -> T,
    ) {
        self.inner.edge(t, lo, hi, finalize);
    }
}

/// Solve with the SIMD engine's sweep and return exact operation counts
/// alongside the table: tile updates from the counting ring, calls from the
/// sweep's own per-block counters.
pub fn solve_simd_counted<T: DpValue>(
    seeds: &TriangularMatrix<T>,
    nb: usize,
) -> (TriangularMatrix<T>, OpCounts) {
    assert!(
        nb > 0 && nb.is_multiple_of(4),
        "block side must be a multiple of 4"
    );
    let ring = Counting {
        inner: MinPlus::new(),
        nb,
        stage1_tiles: Arc::default(),
        stage2_tiles: Arc::default(),
    };
    let (metrics, recorder) = Metrics::recording();
    let ctx = ExecContext::disabled().with_metrics(&metrics);
    let out = solve_blocked(&ClosureRec::new(ring.clone(), seeds), nb, &ctx);
    // Each diagonal block is one kernel invocation; each off-diagonal block
    // is its stage-1 products plus one stage 2.
    let blocks = recorder.get("engine.blocks_swept");
    let diag_calls = seeds.n().div_ceil(nb).max(1) as u64;
    let counts = OpCounts {
        stage1_tile_updates: ring.stage1_tiles.load(Ordering::Relaxed),
        stage2_tile_updates: ring.stage2_tiles.load(Ordering::Relaxed),
        stage1_calls: recorder.get("engine.kernel_invocations") - blocks,
        stage2_calls: blocks - diag_calls,
        diag_calls,
    };
    (out, counts)
}

/// Analytic tile-update count for a padded triangle of `mb` blocks with
/// `nt = nb/4` tiles per block side: total = `T³`-independent-of-nb (see
/// DESIGN.md) computed exactly from the per-block formulas.
pub fn analytic_tile_updates(mb: usize, nb: usize) -> u64 {
    let nt = (nb / 4) as u64;
    let mut total = 0u64;
    for bi in 0..mb as u64 {
        for bj in bi..mb as u64 {
            if bi == bj {
                for r in 0..nt {
                    for cc in r + 1..nt {
                        total += cc - r - 1;
                    }
                }
            } else {
                let deps = bj - bi - 1;
                total += deps * nt * nt * nt + nt * nt * (nt - 1);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SerialEngine, SimdEngine};
    use crate::problem;

    #[test]
    fn counted_solve_matches_uncounted() {
        let seeds = problem::random_seeds_f32(50, 100.0, 3);
        let plain = SimdEngine::new(8).solve(&seeds);
        let (counted, _) = solve_simd_counted(&seeds, 8);
        assert_eq!(plain.first_difference(&counted), None);
        let reference = SerialEngine.solve(&seeds);
        assert_eq!(reference.first_difference(&counted), None);
    }

    #[test]
    fn counts_match_analytic_formulas() {
        for (n, nb) in [(32usize, 8usize), (64, 8), (48, 16), (40, 8)] {
            let seeds = problem::random_seeds_f32(n, 100.0, (n + nb) as u64);
            let (_, counts) = solve_simd_counted(&seeds, nb);
            let mb = n.div_ceil(nb);
            assert_eq!(
                counts.tile_updates(),
                analytic_tile_updates(mb, nb),
                "n={n} nb={nb}"
            );
            // Call structure: one stage1 per dependency pair, one stage2
            // per off-diagonal block, one diag per diagonal block.
            let offdiag = (mb * (mb - 1) / 2) as u64;
            let pairs: u64 = (0..mb as u64)
                .flat_map(|bi| (bi + 1..mb as u64).map(move |bj| bj - bi - 1))
                .sum();
            assert_eq!(counts.stage1_calls, pairs);
            assert_eq!(counts.stage2_calls, offdiag);
            assert_eq!(counts.diag_calls, mb as u64);
        }
        // Ragged sides: the last block column computes only its logical
        // width, so the same calls do less than the padded analytic volume.
        for (n, nb) in [(33usize, 8usize), (50, 16), (61, 12)] {
            let seeds = problem::random_seeds_f32(n, 100.0, (n * nb) as u64);
            let (out, counts) = solve_simd_counted(&seeds, nb);
            assert_eq!(SerialEngine.solve(&seeds).first_difference(&out), None);
            let mb = n.div_ceil(nb);
            assert!(counts.tile_updates() < analytic_tile_updates(mb, nb));
            let pairs: u64 = (0..mb as u64)
                .flat_map(|bi| (bi + 1..mb as u64).map(move |bj| bj - bi - 1))
                .sum();
            assert_eq!(counts.stage1_calls, pairs, "n={n} nb={nb}");
            assert_eq!(counts.stage2_calls, (mb * (mb - 1) / 2) as u64);
            assert_eq!(counts.diag_calls, mb as u64);
        }
    }

    #[test]
    fn tile_updates_independent_of_block_side_for_exact_tilings() {
        // DESIGN.md's accounting claim: total tile updates ≈ T³/6 terms and
        // do not depend on nb when n divides evenly.
        let n = 64;
        let seeds = problem::random_seeds_f32(n, 100.0, 7);
        let (_, c8) = solve_simd_counted(&seeds, 8);
        let (_, c16) = solve_simd_counted(&seeds, 16);
        let (_, c32) = solve_simd_counted(&seeds, 32);
        assert_eq!(c8.tile_updates(), c16.tile_updates());
        assert_eq!(c16.tile_updates(), c32.tile_updates());
    }
}
