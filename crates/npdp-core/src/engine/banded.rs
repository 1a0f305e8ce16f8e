//! Banded NPDP: the closure restricted to intervals of span `≤ band`.
//!
//! RNA folding pipelines routinely cap the base-pair distance (local
//! folding); scheduling problems cap horizon length. The restriction is
//! cheap to exploit: an in-band cell's candidates `d[i][k] + d[k][j]` use
//! strictly shorter intervals, which are themselves in band — so in-band
//! results never depend on out-of-band cells. The blocked engine therefore
//! only needs to touch blocks intersecting the band diagonal strip and can
//! compute them at full SIMD width; out-of-band cells inside straddling
//! blocks are scratch and are restored to their seed values afterwards.
//!
//! Work drops from `Θ(n³)` to `Θ(n·band²)`.

use crate::engine::Engine;
use crate::layout::{BlockedMatrix, TriangularMatrix};
use crate::recurrence::{compute_block, ClosureRec};
use crate::semiring::MinPlus;
use crate::value::DpValue;

/// Banded closure with NDL blocks and SIMD computing blocks,
/// single-threaded.
#[derive(Debug, Clone, Copy)]
pub struct BandedEngine {
    /// Memory-block side length (multiple of 4).
    pub nb: usize,
    /// Maximum interval span computed (`j - i ≤ band`).
    pub band: usize,
}

impl BandedEngine {
    /// Banded engine with blocks of side `nb` and the given span cap.
    pub fn new(nb: usize, band: usize) -> Self {
        assert!(
            nb > 0 && nb.is_multiple_of(4),
            "block side must be a multiple of 4"
        );
        assert!(band >= 1, "band must be at least 1");
        Self { nb, band }
    }

    /// The reference semantics: the original loop with the span cap.
    pub fn solve_serial<T: DpValue>(
        seeds: &TriangularMatrix<T>,
        band: usize,
    ) -> TriangularMatrix<T> {
        let mut d = seeds.clone();
        let n = d.n();
        for j in 0..n {
            for i in (j.saturating_sub(band)..j).rev() {
                let mut best = d.get(i, j);
                for k in i + 1..j {
                    best = T::min2(best, T::add_sat(d.get(i, k), d.get(k, j)));
                }
                d.set(i, j, best);
            }
        }
        d
    }
}

impl<T: DpValue> Engine<T> for BandedEngine {
    fn name(&self) -> &'static str {
        "banded (NDL + SIMD, span-capped)"
    }

    fn solve(&self, seeds: &TriangularMatrix<T>) -> TriangularMatrix<T> {
        let nb = self.nb;
        let mut m = BlockedMatrix::from_triangular(seeds, nb);
        let mb = m.blocks_per_side();
        let rec = ClosureRec::new(MinPlus::new(), seeds);
        let mut scratch = vec![T::INFINITY; nb * nb];

        // A block (bi, bj) contains an in-band cell iff its *minimum* span
        // (bj - bi - 1)·nb + 1 ≤ band, i.e. (bj - bi) ≤ (band - 1)/nb + 1.
        let block_band = (self.band - 1) / nb + 1;

        for bj in 0..mb {
            for bi in (bj.saturating_sub(block_band)..=bj).rev() {
                scratch.copy_from_slice(m.block(bi, bj));
                compute_block(&rec, &mut scratch, bi, bj, nb, |r, c| m.block(r, c));
                m.block_mut(bi, bj).copy_from_slice(&scratch);
            }
        }

        // Straddling blocks computed out-of-band scratch values: restore
        // those cells to their seeds.
        let mut out = m.to_triangular();
        let n = out.n();
        for i in 0..n {
            for j in (i + self.band + 1).min(n)..n {
                out.set(i, j, seeds.get(i, j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SerialEngine;
    use crate::problem;

    #[test]
    fn band_covering_everything_equals_full_closure() {
        let seeds = problem::random_seeds_f32(60, 100.0, 1);
        let full = SerialEngine.solve(&seeds);
        let banded = BandedEngine::new(8, 60).solve(&seeds);
        assert_eq!(full.first_difference(&banded), None);
        let serial_banded = BandedEngine::solve_serial(&seeds, 60);
        assert_eq!(full.first_difference(&serial_banded), None);
    }

    #[test]
    fn blocked_banded_matches_serial_banded() {
        for n in [20usize, 47, 80] {
            for band in [3usize, 8, 17, 31] {
                for nb in [4usize, 8, 16] {
                    let seeds = problem::random_seeds_f32(n, 100.0, (n + band + nb) as u64);
                    let a = BandedEngine::solve_serial(&seeds, band);
                    let b = BandedEngine::new(nb, band).solve(&seeds);
                    assert_eq!(a.first_difference(&b), None, "n={n} band={band} nb={nb}");
                }
            }
        }
    }

    #[test]
    fn out_of_band_cells_keep_their_seeds() {
        let n = 30;
        let band = 5;
        let seeds = problem::random_seeds_f32(n, 100.0, 9);
        let out = BandedEngine::new(8, band).solve(&seeds);
        for (i, j, v) in out.iter() {
            if j - i > band {
                assert_eq!(v, seeds.get(i, j), "({i},{j}) beyond band changed");
            }
        }
    }

    #[test]
    fn in_band_values_match_full_closure_restricted() {
        // In-band cells depend only on in-band cells, so they must equal
        // the unrestricted closure's values for spans ≤ band.
        let n = 40;
        let band = 12;
        let seeds = problem::random_seeds_f32(n, 100.0, 4);
        let full = SerialEngine.solve(&seeds);
        let banded = BandedEngine::new(8, band).solve(&seeds);
        for (i, j, v) in banded.iter() {
            if j - i <= band {
                assert_eq!(v, full.get(i, j), "in-band ({i},{j})");
            }
        }
    }

    #[test]
    fn band_one_is_identity() {
        let seeds = problem::random_seeds_f32(25, 100.0, 2);
        let out = BandedEngine::new(8, 1).solve(&seeds);
        assert_eq!(out.first_difference(&seeds), None);
    }
}
