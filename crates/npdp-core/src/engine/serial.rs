//! The original NPDP algorithm (paper Fig. 1): the reference every other
//! engine is checked against.

use crate::engine::Engine;
use crate::layout::TriangularMatrix;
use crate::value::DpValue;

/// The unoptimized triple loop over the row-major triangular layout.
///
/// `for j ascending, i descending, k in (i, j): relax d[i][j]`. The paper's
/// Fig. 1 lets `k` start at `i`; under the customary `d[i][i] = 0` seeding
/// that first iteration is the identity update, so the exclusive range is
/// the same recurrence without representing the diagonal at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialEngine;

impl SerialEngine {
    pub(crate) const NAME: &'static str = "serial (original, Fig. 1)";

    /// Run the closure in place.
    pub fn solve_in_place<T: DpValue>(d: &mut TriangularMatrix<T>) {
        let n = d.n();
        for j in 0..n {
            for i in (0..j).rev() {
                let mut best = d.get(i, j);
                for k in i + 1..j {
                    best = T::min2(best, T::add_sat(d.get(i, k), d.get(k, j)));
                }
                d.set(i, j, best);
            }
        }
    }
}

impl<T: DpValue> Engine<T> for SerialEngine {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn solve(&self, seeds: &TriangularMatrix<T>) -> TriangularMatrix<T> {
        let mut d = seeds.clone();
        Self::solve_in_place(&mut d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_closure_by_hand() {
        // n = 3: only candidate for (0,2) is k=1: d[0][1] + d[1][2].
        let mut d = TriangularMatrix::<f32>::new_infinity(3);
        d.set(0, 1, 2.0);
        d.set(1, 2, 3.0);
        d.set(0, 2, 10.0);
        let out = SerialEngine.solve(&d);
        assert_eq!(out.get(0, 2), 5.0);
        assert_eq!(out.get(0, 1), 2.0);
        assert_eq!(out.get(1, 2), 3.0);
    }

    #[test]
    fn seed_already_minimal_is_kept() {
        let mut d = TriangularMatrix::<f32>::new_infinity(3);
        d.set(0, 1, 2.0);
        d.set(1, 2, 3.0);
        d.set(0, 2, 1.0);
        let out = SerialEngine.solve(&d);
        assert_eq!(out.get(0, 2), 1.0);
    }

    #[test]
    fn closure_is_idempotent() {
        let seeds = TriangularMatrix::<i64>::from_fn(10, |i, j| ((i * 31 + j * 17) % 23) as i64);
        let once = SerialEngine.solve(&seeds);
        let twice = SerialEngine.solve(&once);
        assert_eq!(once.first_difference(&twice), None);
    }

    #[test]
    fn chain_of_length_one_intervals_sums() {
        // Seeds: only adjacent cells (i, i+1) = 1; everything else ∞.
        // Closure: d[i][j] = j - i (the only decomposition is the chain).
        let n = 12;
        let mut d = TriangularMatrix::<i32>::new_infinity(n);
        for i in 0..n - 1 {
            d.set(i, i + 1, 1);
        }
        let out = SerialEngine.solve(&d);
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(out.get(i, j), (j - i) as i32, "({i},{j})");
            }
        }
    }

    #[test]
    fn empty_and_trivial_sizes() {
        for n in 0..3 {
            let d = TriangularMatrix::<f64>::new_infinity(n);
            let out = SerialEngine.solve(&d);
            assert_eq!(out.n(), n);
        }
    }
}
