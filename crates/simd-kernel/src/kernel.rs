//! The register-blocked 4×4 computing-block kernels (paper §IV-A, Fig. 6).
//!
//! A *computing block* is a 4×4 tile of the DP table. The kernel performs one
//! min-plus rank-4 update `C = min(C, A ⊗ B)` where `⊗` is the min-plus
//! matrix product: `C[r][c] = min_k (A[r][k] + B[k][c])`.
//!
//! For 32-bit data a row is one 128-bit register, so the whole update is
//! 16 steps of `C[r] = min(C[r], splat(A[r][k]) + B[k])`. Naively each step
//! costs 8 SIMD instructions (3 loads, shuffle, add, compare, select, store =
//! 128 total); keeping A, B and C resident in 12 registers removes 48
//! loads/stores, leaving the paper's **80 instructions**: 12 loads,
//! 16 shuffles, 16 adds, 16 compares, 16 selects, 4 stores (Table I).
//!
//! The functions below are fully unrolled so the compiler sees the same
//! static dataflow the hand-scheduled SPU program has.

use crate::vec::{F32x4, F64x2};

/// A 4×4 single-precision computing block: one 128-bit register per row.
pub type BlockF32 = [F32x4; 4];

/// A 4×4 double-precision computing block: two 128-bit registers per row
/// (each SPU register holds only two 64-bit lanes).
pub type BlockF64 = [[F64x2; 2]; 4];

/// Static instruction counts of one register-blocked SP kernel invocation,
/// exactly the paper's Table I. `cell-sim` asserts its generated SPU program
/// matches these counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelInstructionCounts {
    /// `lqd` — loads of the A, B and C rows (4 + 4 + 4).
    pub loads: usize,
    /// `shufb` — one lane broadcast per (row, k) step.
    pub shuffles: usize,
    /// `fa` — one vector add per step.
    pub adds: usize,
    /// `fcgt` — one vector compare per step (the SPU has no `min`).
    pub compares: usize,
    /// `selb` — one vector select per step.
    pub selects: usize,
    /// `stqd` — stores of the updated C rows.
    pub stores: usize,
}

impl KernelInstructionCounts {
    /// Total SIMD instructions in the kernel.
    pub const fn total(&self) -> usize {
        self.loads + self.shuffles + self.adds + self.compares + self.selects + self.stores
    }
}

/// Table I of the paper: 80 SIMD instructions per computing-block update.
pub const KERNEL_SIMD_INSTRUCTIONS: KernelInstructionCounts = KernelInstructionCounts {
    loads: 12,
    shuffles: 16,
    adds: 16,
    compares: 16,
    selects: 16,
    stores: 4,
};

/// One step of the SP kernel: `c = min(c, splat(a[K]) + b)`, written as the
/// shuffle/add/compare/select sequence from the paper's 8-step listing.
#[inline(always)]
fn step_f32<const K: usize>(c: F32x4, a: F32x4, b: F32x4) -> F32x4 {
    let v4 = a.broadcast::<K>(); // shufb: splat A[r][K]
    let v5 = v4 + b; // fa
    let v6 = c.cmp_gt(v5); // fcgt
    F32x4::select(c, v5, v6) // selb
}

/// Register-blocked single-precision computing-block update:
/// `C = min(C, A ⊗ B)` over 4×4 tiles held in registers.
///
/// This is the paper's 80-instruction kernel with loads/stores at the
/// boundary (the caller usually keeps blocks in arrays, so the 12 loads and
/// 4 stores happen in [`block4x4_minplus_f32_arrays`]).
#[inline(always)]
pub fn block4x4_minplus_f32(c: &mut BlockF32, a: &BlockF32, b: &BlockF32) {
    // 16 fully unrolled steps; each row of C is independent of the others,
    // which is what lets the SPU dual-issue across rows (paper §IV-A: the
    // procedure of computing each row is independent).
    c[0] = step_f32::<0>(c[0], a[0], b[0]);
    c[0] = step_f32::<1>(c[0], a[0], b[1]);
    c[0] = step_f32::<2>(c[0], a[0], b[2]);
    c[0] = step_f32::<3>(c[0], a[0], b[3]);

    c[1] = step_f32::<0>(c[1], a[1], b[0]);
    c[1] = step_f32::<1>(c[1], a[1], b[1]);
    c[1] = step_f32::<2>(c[1], a[1], b[2]);
    c[1] = step_f32::<3>(c[1], a[1], b[3]);

    c[2] = step_f32::<0>(c[2], a[2], b[0]);
    c[2] = step_f32::<1>(c[2], a[2], b[1]);
    c[2] = step_f32::<2>(c[2], a[2], b[2]);
    c[2] = step_f32::<3>(c[2], a[2], b[3]);

    c[3] = step_f32::<0>(c[3], a[3], b[0]);
    c[3] = step_f32::<1>(c[3], a[3], b[1]);
    c[3] = step_f32::<2>(c[3], a[3], b[2]);
    c[3] = step_f32::<3>(c[3], a[3], b[3]);
}

/// Slice-based wrapper around [`block4x4_minplus_f32`]: loads the three 4×4
/// tiles from row-strided storage (the 12 `lqd`s), runs the register kernel,
/// and stores C back (the 4 `stqd`s).
///
/// `c`, `a`, `b` point at the top-left element of each tile; `cs`, `as_`,
/// `bs` are the row strides in elements. Rows must be 4 elements long.
#[inline(always)]
pub fn block4x4_minplus_f32_arrays(
    c: &mut [f32],
    cs: usize,
    a: &[f32],
    as_: usize,
    b: &[f32],
    bs: usize,
) {
    let av = [
        F32x4::load(&a[0..]),
        F32x4::load(&a[as_..]),
        F32x4::load(&a[2 * as_..]),
        F32x4::load(&a[3 * as_..]),
    ];
    let bv = [
        F32x4::load(&b[0..]),
        F32x4::load(&b[bs..]),
        F32x4::load(&b[2 * bs..]),
        F32x4::load(&b[3 * bs..]),
    ];
    let mut cv = [
        F32x4::load(&c[0..]),
        F32x4::load(&c[cs..]),
        F32x4::load(&c[2 * cs..]),
        F32x4::load(&c[3 * cs..]),
    ];
    block4x4_minplus_f32(&mut cv, &av, &bv);
    cv[0].store(&mut c[0..]);
    cv[1].store(&mut c[cs..]);
    cv[2].store(&mut c[2 * cs..]);
    cv[3].store(&mut c[3 * cs..]);
}

/// One step of the DP kernel on one half-row: `c = min(c, splat(a_lane) + b)`.
#[inline(always)]
fn step_f64(c: F64x2, a_bcast: F64x2, b: F64x2) -> F64x2 {
    let v5 = a_bcast + b;
    let v6 = c.cmp_gt(v5);
    F64x2::select(c, v5, v6)
}

/// Register-blocked double-precision computing-block update over 4×4 tiles.
///
/// With 64-bit lanes each 128-bit register holds two values, so a 4×4 tile
/// needs two registers per row and the step count doubles relative to SP —
/// the first of the three reasons the paper gives for DP being much slower
/// on the SPU (§VI-A.5).
#[inline(always)]
pub fn block4x4_minplus_f64(c: &mut BlockF64, a: &BlockF64, b: &BlockF64) {
    // For each row r and each k in 0..4: the broadcast of A[r][k] comes from
    // register a[r][k/2] lane k%2 and combines with both halves of B row k.
    for r in 0..4 {
        for k in 0..4 {
            let a_bcast = if k % 2 == 0 {
                a[r][k / 2].broadcast::<0>()
            } else {
                a[r][k / 2].broadcast::<1>()
            };
            c[r][0] = step_f64(c[r][0], a_bcast, b[k][0]);
            c[r][1] = step_f64(c[r][1], a_bcast, b[k][1]);
        }
    }
}

/// Slice-based wrapper around [`block4x4_minplus_f64`], the double-precision
/// [`block4x4_minplus_f32_arrays`]: two 128-bit loads per tile row (the SPU's
/// DP layout), the register kernel, two stores per C row.
#[inline(always)]
pub fn block4x4_minplus_f64_arrays(
    c: &mut [f64],
    cs: usize,
    a: &[f64],
    as_: usize,
    b: &[f64],
    bs: usize,
) {
    let row = |s: &[f64], off: usize| [F64x2::load(&s[off..]), F64x2::load(&s[off + 2..])];
    let av: BlockF64 = std::array::from_fn(|r| row(a, r * as_));
    let bv: BlockF64 = std::array::from_fn(|r| row(b, r * bs));
    let mut cv: BlockF64 = std::array::from_fn(|r| row(c, r * cs));
    block4x4_minplus_f64(&mut cv, &av, &bv);
    for (r, [lo, hi]) in cv.into_iter().enumerate() {
        lo.store(&mut c[r * cs..]);
        hi.store(&mut c[r * cs + 2..]);
    }
}

/// Scalar reference kernel: the 64-iteration triple loop a 4×4 min-plus
/// update expands to. Used by tests to pin down the SIMD kernels and by the
/// engines as the generic fallback for non-f32/f64 value types.
#[inline]
pub fn block4x4_minplus_scalar<T>(c: &mut [[T; 4]; 4], a: &[[T; 4]; 4], b: &[[T; 4]; 4])
where
    T: Copy + PartialOrd + std::ops::Add<Output = T>,
{
    for r in 0..4 {
        for cc in 0..4 {
            let mut best = c[r][cc];
            for k in 0..4 {
                let cand = a[r][k] + b[k][cc];
                if cand < best {
                    best = cand;
                }
            }
            c[r][cc] = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_rows_f32(m: &[[f32; 4]; 4]) -> BlockF32 {
        [
            F32x4::from(m[0]),
            F32x4::from(m[1]),
            F32x4::from(m[2]),
            F32x4::from(m[3]),
        ]
    }

    fn from_rows_f32(b: &BlockF32) -> [[f32; 4]; 4] {
        [
            b[0].to_array(),
            b[1].to_array(),
            b[2].to_array(),
            b[3].to_array(),
        ]
    }

    fn to_rows_f64(m: &[[f64; 4]; 4]) -> BlockF64 {
        let mut out = [[F64x2::splat(0.0); 2]; 4];
        for r in 0..4 {
            out[r][0] = F64x2::from([m[r][0], m[r][1]]);
            out[r][1] = F64x2::from([m[r][2], m[r][3]]);
        }
        out
    }

    fn from_rows_f64(b: &BlockF64) -> [[f64; 4]; 4] {
        let mut out = [[0.0f64; 4]; 4];
        for r in 0..4 {
            let lo = b[r][0].to_array();
            let hi = b[r][1].to_array();
            out[r] = [lo[0], lo[1], hi[0], hi[1]];
        }
        out
    }

    fn pseudo_mat(seed: u64) -> [[f32; 4]; 4] {
        // Tiny deterministic LCG so tests need no RNG dependency wiring.
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut m = [[0.0f32; 4]; 4];
        for row in m.iter_mut() {
            for v in row.iter_mut() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = ((s >> 33) as f32) / (u32::MAX as f32) * 100.0;
            }
        }
        m
    }

    #[test]
    fn table1_counts_total_80() {
        assert_eq!(KERNEL_SIMD_INSTRUCTIONS.total(), 80);
        assert_eq!(KERNEL_SIMD_INSTRUCTIONS.loads, 12);
        assert_eq!(KERNEL_SIMD_INSTRUCTIONS.stores, 4);
    }

    #[test]
    fn simd_f32_matches_scalar() {
        for seed in 0..32u64 {
            let a = pseudo_mat(seed);
            let b = pseudo_mat(seed + 1000);
            let c0 = pseudo_mat(seed + 2000);

            let mut c_scalar = c0;
            block4x4_minplus_scalar(&mut c_scalar, &a, &b);

            let mut c_simd = to_rows_f32(&c0);
            block4x4_minplus_f32(&mut c_simd, &to_rows_f32(&a), &to_rows_f32(&b));

            assert_eq!(from_rows_f32(&c_simd), c_scalar, "seed {seed}");
        }
    }

    #[test]
    fn simd_f64_matches_scalar() {
        for seed in 0..32u64 {
            let a = pseudo_mat(seed).map(|r| r.map(|v| v as f64));
            let b = pseudo_mat(seed + 7).map(|r| r.map(|v| v as f64));
            let c0 = pseudo_mat(seed + 13).map(|r| r.map(|v| v as f64));

            let mut c_scalar = c0;
            block4x4_minplus_scalar(&mut c_scalar, &a, &b);

            let mut c_simd = to_rows_f64(&c0);
            block4x4_minplus_f64(&mut c_simd, &to_rows_f64(&a), &to_rows_f64(&b));

            assert_eq!(from_rows_f64(&c_simd), c_scalar, "seed {seed}");
        }
    }

    #[test]
    fn arrays_wrapper_matches_register_kernel() {
        let a = pseudo_mat(3);
        let b = pseudo_mat(4);
        let c0 = pseudo_mat(5);

        // Strided storage: embed each 4×4 tile in an 8-wide buffer.
        let stride = 8;
        let mut cbuf = vec![0.0f32; 4 * stride];
        let mut abuf = vec![0.0f32; 4 * stride];
        let mut bbuf = vec![0.0f32; 4 * stride];
        for r in 0..4 {
            cbuf[r * stride..r * stride + 4].copy_from_slice(&c0[r]);
            abuf[r * stride..r * stride + 4].copy_from_slice(&a[r]);
            bbuf[r * stride..r * stride + 4].copy_from_slice(&b[r]);
        }
        block4x4_minplus_f32_arrays(&mut cbuf, stride, &abuf, stride, &bbuf, stride);

        let mut c_ref = c0;
        block4x4_minplus_scalar(&mut c_ref, &a, &b);
        for r in 0..4 {
            assert_eq!(&cbuf[r * stride..r * stride + 4], &c_ref[r]);
        }
        // Elements outside the tile untouched.
        assert_eq!(cbuf[4], 0.0);
    }

    #[test]
    fn padding_with_infinity_is_inert() {
        // If A's row is all +inf, C must be unchanged.
        let inf = [[f32::INFINITY; 4]; 4];
        let b = pseudo_mat(9);
        let c0 = pseudo_mat(10);
        let mut c = to_rows_f32(&c0);
        block4x4_minplus_f32(&mut c, &to_rows_f32(&inf), &to_rows_f32(&b));
        assert_eq!(from_rows_f32(&c), c0);

        // Same for an all-infinite B.
        let a = pseudo_mat(11);
        let mut c = to_rows_f32(&c0);
        block4x4_minplus_f32(&mut c, &to_rows_f32(&a), &to_rows_f32(&inf));
        assert_eq!(from_rows_f32(&c), c0);
    }

    #[test]
    fn kernel_is_idempotent_on_converged_input() {
        // Applying the same (A, B) update twice can never lower C further
        // the second time.
        let a = pseudo_mat(20);
        let b = pseudo_mat(21);
        let mut c = to_rows_f32(&pseudo_mat(22));
        block4x4_minplus_f32(&mut c, &to_rows_f32(&a), &to_rows_f32(&b));
        let once = from_rows_f32(&c);
        block4x4_minplus_f32(&mut c, &to_rows_f32(&a), &to_rows_f32(&b));
        assert_eq!(from_rows_f32(&c), once);
    }

    #[test]
    fn scalar_kernel_integer_values() {
        let a = [[1i64, 2, 3, 4]; 4];
        let b = [[10i64, 20, 30, 40]; 4];
        let mut c = [[100i64; 4]; 4];
        block4x4_minplus_scalar(&mut c, &a, &b);
        // Best k for column 0 is k with min a[r][k] + b[k][0] = 1 + 10 = 11.
        assert_eq!(c[0][0], 11);
        assert_eq!(c[0][3], 41);
    }
}
