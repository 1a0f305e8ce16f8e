//! Barrier-synchronized wavefront parallelization (rayon) — the classic
//! alternative to the paper's task queue, kept as an independently-written
//! cross-check engine and as the ablation point for "what does dynamic
//! scheduling buy over barriers".

use npdp_exec::ExecContext;
use rayon::prelude::*;
use task_queue::ExecStats;

use crate::engine::shared::SharedBlocked;
use crate::engine::{timed_solve, Engine};
use crate::error::SolveError;
use crate::layout::{BlockedMatrix, TriangularMatrix};
use crate::recurrence::{compute_block, ClosureRec};
use crate::semiring::MinPlus;
use crate::value::DpValue;

/// NDL + SIMD kernels, parallelized by block anti-diagonals with a barrier
/// between waves. All blocks on wave `d = bj - bi` depend only on waves
/// `< d`, so each wave is embarrassingly parallel — but the barrier idles
/// cores as each wave drains (the paper's task queue does not).
#[derive(Debug, Clone, Copy)]
pub struct WavefrontEngine {
    /// Memory-block side length (multiple of 4).
    pub nb: usize,
    /// Rayon threads; `None` uses the global pool.
    pub threads: Option<usize>,
}

impl WavefrontEngine {
    /// Wavefront engine with memory blocks of side `nb` on the global pool.
    pub fn new(nb: usize) -> Self {
        assert!(
            nb > 0 && nb.is_multiple_of(4),
            "block side must be a multiple of 4"
        );
        Self { nb, threads: None }
    }

    /// Pin the number of rayon threads (builds a local pool per solve).
    pub fn with_threads(nb: usize, threads: usize) -> Self {
        assert!(
            nb > 0 && nb.is_multiple_of(4),
            "block side must be a multiple of 4"
        );
        assert!(threads >= 1);
        Self {
            nb,
            threads: Some(threads),
        }
    }

    fn solve_inner<T: DpValue>(
        &self,
        seeds: &TriangularMatrix<T>,
        m: &mut BlockedMatrix<T>,
    ) -> Result<(), SolveError> {
        let nb = self.nb;
        let mb = m.blocks_per_side();
        let rec = ClosureRec::new(MinPlus::new(), seeds);
        let shared = SharedBlocked::new(m);
        for d in 0..mb {
            (0..mb - d).into_par_iter().for_each(|bi| {
                let bj = bi + d;
                let c = shared.claim(bi, bj);
                compute_block(&rec, c, bi, bj, nb, |r, cc| shared.read_final(r, cc));
                shared.finalize(bi, bj);
            });
        }
        shared.finished()
    }

    /// The sweep on the global pool or a pinned one, its post-solve check
    /// as a typed error.
    fn sweep<T: DpValue>(
        &self,
        seeds: &TriangularMatrix<T>,
    ) -> Result<TriangularMatrix<T>, SolveError> {
        let mut m = BlockedMatrix::from_triangular(seeds, self.nb);
        match self.threads {
            None => self.solve_inner(seeds, &mut m)?,
            Some(t) => {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .expect("failed to build rayon pool");
                pool.install(|| self.solve_inner(seeds, &mut m))?;
            }
        }
        Ok(m.to_triangular())
    }
}

impl<T: DpValue> Engine<T> for WavefrontEngine {
    fn name(&self) -> &'static str {
        "wavefront (NDL + SPE procedure + rayon barriers)"
    }

    fn solve(&self, seeds: &TriangularMatrix<T>) -> TriangularMatrix<T> {
        self.sweep(seeds).unwrap_or_else(|e| panic!("{e}"))
    }

    fn solve_with(
        &self,
        seeds: &TriangularMatrix<T>,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<T>, ExecStats), SolveError> {
        timed_solve(Engine::<T>::name(self), seeds, ctx, || self.sweep(seeds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SerialEngine;

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
    fn wavefront_matches_serial() {
        for n in [1, 10, 33, 72] {
            let seeds = random_seeds(n, n as u64);
            let a = SerialEngine.solve(&seeds);
            let b = WavefrontEngine::new(8).solve(&seeds);
            assert_eq!(a.first_difference(&b), None, "n={n}");
        }
    }

    #[test]
    fn wavefront_with_pinned_threads() {
        let seeds = random_seeds(40, 2);
        let a = SerialEngine.solve(&seeds);
        let b = WavefrontEngine::with_threads(8, 2).solve(&seeds);
        assert_eq!(a.first_difference(&b), None);
    }
}
