//! The single-threaded SPE procedure on the host: NDL + SIMD computing
//! blocks.

use npdp_exec::ExecContext;
use task_queue::ExecStats;

use crate::engine::{solve_closure, validate_seeds, Engine};
use crate::error::SolveError;
use crate::layout::TriangularMatrix;
use crate::recurrence::{ClosureRec, SolveRecurrence};
use crate::semiring::MinPlus;
use crate::value::DpValue;

/// New data layout + 4×4 SIMD computing blocks, single-threaded — what one
/// SPE runs, executed on one host core (paper Fig. 10, "NDL+SPEP"). As an
/// [`Engine`] it solves the min-plus closure through the shared block sweep
/// over [`MinPlus`] and its host-native kernels.
#[derive(Debug, Clone, Copy)]
pub struct SimdEngine {
    /// Memory-block side length (multiple of 4).
    pub nb: usize,
}

impl SimdEngine {
    pub(crate) const NAME: &'static str = "simd (NDL + SPE procedure)";

    /// SIMD engine with memory blocks of side `nb`.
    pub fn new(nb: usize) -> Self {
        assert!(
            nb > 0 && nb.is_multiple_of(4),
            "block side must be a multiple of 4"
        );
        Self { nb }
    }
}

impl<T: DpValue> Engine<T> for SimdEngine {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn solve(&self, seeds: &TriangularMatrix<T>) -> TriangularMatrix<T> {
        solve_closure(self, MinPlus::new(), seeds)
    }

    fn solve_with(
        &self,
        seeds: &TriangularMatrix<T>,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<T>, ExecStats), SolveError> {
        validate_seeds(seeds)?;
        self.solve_recurrence(&ClosureRec::new(MinPlus::new(), seeds), ctx)
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
    fn simd_engine_matches_serial_f32() {
        for n in [0, 1, 3, 9, 16, 31, 48, 70] {
            for nb in [4, 8, 16, 32] {
                let seeds = random_seeds(n, (n * 131 + nb) as u64);
                let a = SerialEngine.solve(&seeds);
                let b = SimdEngine::new(nb).solve(&seeds);
                assert_eq!(a.first_difference(&b), None, "n={n} nb={nb}");
            }
        }
    }

    #[test]
    fn simd_engine_matches_serial_f64() {
        for n in [15, 40] {
            let seeds =
                TriangularMatrix::<f64>::from_fn(n, |i, j| ((i * 7 + j * 13) % 37) as f64 * 0.5);
            let a = SerialEngine.solve(&seeds);
            let b = SimdEngine::new(8).solve(&seeds);
            assert_eq!(a.first_difference(&b), None, "n={n}");
        }
    }

    #[test]
    fn simd_engine_sparse_seeds_with_infinities() {
        // Mostly-∞ seeds exercise padding paths through the kernels.
        let n = 37;
        let seeds = TriangularMatrix::<f32>::from_fn(n, |i, j| {
            if (i + j) % 5 == 0 {
                (i + j) as f32
            } else {
                f32::INFINITY
            }
        });
        let a = SerialEngine.solve(&seeds);
        let b = SimdEngine::new(8).solve(&seeds);
        assert_eq!(a.first_difference(&b), None);
    }
}
