//! The NDL engine: the blocked layout swept in dependence order with scalar
//! 4×4 tile kernels — the new data layout without the SPE procedure's SIMD
//! computing blocks.

use npdp_exec::ExecContext;
use task_queue::ExecStats;

use crate::engine::scalar_kernels::ScalarTiles;
use crate::engine::{solve_closure, validate_seeds, Engine};
use crate::error::SolveError;
use crate::layout::TriangularMatrix;
use crate::recurrence::{ClosureRec, SolveRecurrence};
use crate::value::DpValue;

/// New data layout with scalar inner loops: isolates the layout benefit
/// (paper Fig. 10, "NDL" bar). As an [`Engine`] it solves the min-plus
/// closure through the shared block sweep over a scalar-tile min-plus ring;
/// as a [`SolveRecurrence`] engine it runs the recurrence's own ring.
#[derive(Debug, Clone, Copy)]
pub struct BlockedEngine {
    /// Memory-block side length (multiple of 4).
    pub nb: usize,
}

impl BlockedEngine {
    pub(crate) const NAME: &'static str = "blocked (NDL, scalar kernels)";

    /// NDL engine with memory blocks of side `nb`.
    pub fn new(nb: usize) -> Self {
        assert!(
            nb > 0 && nb.is_multiple_of(4),
            "block side must be a multiple of 4"
        );
        Self { nb }
    }
}

impl<T: DpValue> Engine<T> for BlockedEngine {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn solve(&self, seeds: &TriangularMatrix<T>) -> TriangularMatrix<T> {
        solve_closure(self, ScalarTiles::new(), seeds)
    }

    fn solve_with(
        &self,
        seeds: &TriangularMatrix<T>,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<T>, ExecStats), SolveError> {
        validate_seeds(seeds)?;
        self.solve_recurrence(&ClosureRec::new(ScalarTiles::new(), seeds), ctx)
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
    fn blocked_engine_matches_serial() {
        for n in [0, 1, 2, 7, 16, 23, 40, 65] {
            for nb in [4, 8, 16] {
                let seeds = random_seeds(n, (n * 31 + nb) as u64);
                let a = SerialEngine.solve(&seeds);
                let b = BlockedEngine::new(nb).solve(&seeds);
                assert_eq!(a.first_difference(&b), None, "n={n} nb={nb}");
            }
        }
    }

    #[test]
    fn blocked_engine_f64() {
        let seeds = TriangularMatrix::<f64>::from_fn(33, |i, j| ((i * 7 + j * 13) % 29) as f64);
        let a = SerialEngine.solve(&seeds);
        let b = BlockedEngine::new(8).solve(&seeds);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn blocked_engine_integer_values() {
        let seeds = TriangularMatrix::<i64>::from_fn(25, |i, j| ((i * 17 + j * 5) % 41) as i64);
        let a = SerialEngine.solve(&seeds);
        let b = BlockedEngine::new(4).solve(&seeds);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn rejects_bad_block_side() {
        let _ = BlockedEngine::new(10);
    }
}
