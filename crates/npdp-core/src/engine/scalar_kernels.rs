//! The NDL ablation's kernels: min-plus with nothing but its scalar
//! operations, so every block procedure runs the [`Semiring`] trait's
//! defaults — stage 1 and the stage-2 strips sweep 4×4 tiles with the
//! scalar 64-iteration body instead of the host-native kernels. This is
//! the kernel axis of the paper's Fig. 10(b) "NDL" bar as a ring choice;
//! [`MinPlus`] is the "+SPEP" side.

use crate::semiring::{MinPlus, Semiring};
use crate::value::DpValue;

/// Min-plus forwarding only `zero`/`one`/`combine`/`extend`: the trait's
/// scalar `rank_update` and `edge` defaults do the block work.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarTiles<T>(MinPlus<T>);

impl<T> ScalarTiles<T> {
    /// The scalar-tile min-plus ring (zero-sized).
    pub(crate) const fn new() -> Self {
        ScalarTiles(MinPlus::new())
    }
}

impl<T: DpValue> Semiring for ScalarTiles<T> {
    type Elem = T;

    #[inline(always)]
    fn zero(&self) -> T {
        self.0.zero()
    }

    #[inline(always)]
    fn one(&self) -> Option<T> {
        self.0.one()
    }

    #[inline(always)]
    fn combine(&self, a: T, b: T) -> T {
        self.0.combine(a, b)
    }

    #[inline(always)]
    fn extend(&self, a: T, b: T) -> T {
        self.0.extend(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::block_compute::{compute_diag_ring, stage1_ring, stage2_offdiag_ring};

    fn seeded(nb: usize, seed: u64, diag: bool) -> Vec<f32> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32) / (u32::MAX as f32) * 50.0
        };
        let mut v = vec![f32::INFINITY; nb * nb];
        for i in 0..nb {
            for j in 0..nb {
                if !diag || i < j {
                    v[i * nb + j] = next();
                }
            }
        }
        v
    }

    const SCALAR: ScalarTiles<f32> = ScalarTiles::new();
    const SIMD: MinPlus<f32> = MinPlus::new();

    fn id(_: usize, _: usize, v: f32) -> f32 {
        v
    }

    #[test]
    fn simd_and_scalar_kernels_agree_on_stage1() {
        for nb in [4, 8, 16] {
            let a = seeded(nb, 1, false);
            let b = seeded(nb, 2, false);
            let c0 = seeded(nb, 3, false);
            let (mut cs, mut cv) = (c0.clone(), c0);
            stage1_ring(&SCALAR, &mut cs, &a, &b, nb);
            stage1_ring(&SIMD, &mut cv, &a, &b, nb);
            assert_eq!(cs, cv, "nb={nb}");
        }
    }

    #[test]
    fn simd_and_scalar_kernels_agree_on_stage2() {
        for nb in [4, 8, 16] {
            let mut dlo = seeded(nb, 4, true);
            let mut dhi = seeded(nb, 5, true);
            compute_diag_ring(&SCALAR, &mut dlo, nb, id);
            compute_diag_ring(&SCALAR, &mut dhi, nb, id);
            let c0 = seeded(nb, 6, false);
            let (mut cs, mut cv) = (c0.clone(), c0);
            stage2_offdiag_ring(&SCALAR, &mut cs, &dlo, &dhi, nb, id);
            stage2_offdiag_ring(&SIMD, &mut cv, &dlo, &dhi, nb, id);
            assert_eq!(cs, cv, "nb={nb}");
        }
    }

    #[test]
    fn simd_and_scalar_kernels_agree_on_diag() {
        for nb in [4, 8, 12, 16] {
            let c0 = seeded(nb, 7, true);
            let (mut cs, mut cv) = (c0.clone(), c0);
            compute_diag_ring(&SCALAR, &mut cs, nb, id);
            compute_diag_ring(&SIMD, &mut cv, nb, id);
            assert_eq!(cs, cv, "nb={nb}");
        }
    }
}
