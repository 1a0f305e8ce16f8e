//! Host-native min-plus rank update: `C ⊕= A ⊗ B` over row-strided panels.
//!
//! The 4×4 kernel in [`crate::kernel`] copies the SPU's shape: 128-bit rows,
//! and every C tile loaded and stored again after only four k-steps. On an
//! x86_64 host the same update runs as a register-blocked micro-kernel
//! instead: a tile of C stays in vector accumulators for the whole `depth`,
//! and each k-step costs one B row load per accumulator column plus one
//! broadcast of A per row. There are three tiers:
//!
//! | tier | `f32` tile | `f64` tile | `i32` tile | `i64` tile | accumulators |
//! |---|---|---|---|---|---|
//! | AVX-512F | 6 rows × 64 columns (4 `zmm`) | 6 × 32 (4 `zmm`) | — | 6 × 32 (4 `zmm`) | 24 of 32 `zmm` |
//! | AVX2 | 6 × 16 (2 `ymm`) | 6 × 8 (2 `ymm`) | 6 × 16 (2 `ymm`) | 6 × 8 (2 `ymm`) | 12 of 16 `ymm` |
//! | portable | the 4×4 tile sweep | the 4×4 tile sweep | the 4×4 tile sweep | the 4×4 tile sweep | — |
//!
//! Each SIMD tier walks C in column panels, widest tile first. The AVX-512
//! tier takes the remainders at 32 and 16 `f32` columns (16 and 8 `f64` and
//! `i64`) with narrower `zmm` tiles, then hands the last 8 / 4 `f32` columns
//! (4 `f64` / `i64`) to the AVX2 kernels. Inside a panel, rows go in blocks
//! of 6, then one block of 4, then one row at a time.
//!
//! # Bit-identity
//!
//! Each candidate is one IEEE add of an A element and a B element, in that
//! operand order, and the accumulator takes it only when it is strictly
//! smaller: `_mm512_min_ps(cand, acc)`, `_mm256_min_ps(cand, acc)` and
//! `_mm_min_ps(cand, acc)` all return `cand < acc ? cand : acc` (the
//! `MINPS` rule is the same at every width), which is exactly
//! `DpValue::min2(acc, cand)`, ties and NaN included. Every cell walks k in
//! ascending order, as the 4×4 tile sweep does. There is no FMA and no
//! reassociation, so every tier produces the same bits as the portable
//! sweep. The tests below pin the dispatched entry points and, called
//! directly, each tier the CPU has.
//!
//! The integer kernels compute the saturating min-plus update
//! `min(C, A.saturating_add(B))`. [`minplus_rank_update_i32`] is AVX2 only:
//! it adds with `vpaddd` and takes the minimum with `vpminsd` (6 × 16
//! tile). Every `i32` caller runs 32-wide blocks, where a 6 × 64 `zmm` tile
//! never fires, and a 6 × 32 one measured no faster there than the AVX2
//! tile (DESIGN.md §4d). [`minplus_rank_update_i64`] has both SIMD tiers:
//! AVX-512 adds with `vpaddq` and takes the minimum with `vpminsq` (6 × 32
//! tile); AVX2, which has no `vpminsq`, uses `vpcmpgtq` + blend (6 × 8
//! tile). No SIMD tier has a saturating add at these
//! widths, so the SIMD tiles run only on panels whose A and B elements all
//! lie in `[MIN / 2, MAX / 2]` of their type, where no sum can overflow and
//! the wrapping add *is* the saturating one. Min-plus tables
//! always qualify (every cell is at most `MAX / 4`); other panels take the
//! portable saturating sweep. Integer `min` has no ties to break, so the
//! order of candidates cannot show in the result.
//!
//! # Dispatch
//!
//! [`minplus_rank_update_f32`] / [`minplus_rank_update_f64`] /
//! [`minplus_rank_update_i32`] / [`minplus_rank_update_i64`] are the only
//! entry points. They check the operand extents, then run the AVX-512 tier
//! when `is_x86_feature_detected!("avx512f")` holds, AVX2 too (`f32`,
//! `f64` and `i64`; its column remainders run the AVX2 kernels), else the
//! AVX2 tier when `is_x86_feature_detected!("avx2")` holds, and otherwise
//! the 4×4 tile sweep ([`block4x4_minplus_f32_arrays`] per tile), which is
//! also what every non-x86_64 target compiles to. The integer entry points
//! take a SIMD tier only inside the no-overflow guard above.

use crate::kernel::{block4x4_minplus_f32_arrays, block4x4_minplus_f64_arrays};

/// Checks the shape contract shared by both entry points: every dimension a
/// multiple of 4 (whole computing blocks), strides at least as wide as the
/// rows they step over, and each slice long enough for its panel.
#[allow(clippy::too_many_arguments)]
fn check_extents(
    c_len: usize,
    cs: usize,
    a_len: usize,
    as_: usize,
    b_len: usize,
    bs: usize,
    rows: usize,
    cols: usize,
    depth: usize,
) {
    assert!(
        rows.is_multiple_of(4) && cols.is_multiple_of(4) && depth.is_multiple_of(4),
        "rank update shape {rows}×{cols}×{depth} is not made of 4×4 computing blocks"
    );
    assert!(
        cs >= cols && as_ >= depth && bs >= cols,
        "row strides (c {cs}, a {as_}, b {bs}) narrower than the panels"
    );
    // Checked arithmetic: the AVX2 kernel trusts these extents, so a huge
    // stride must fail here rather than wrap into a small extent.
    let fits = |len: usize, h: usize, stride: usize, w: usize| match h {
        0 => true,
        h => (h - 1)
            .checked_mul(stride)
            .and_then(|e| e.checked_add(w))
            .is_some_and(|extent| len >= extent),
    };
    assert!(fits(c_len, rows, cs, cols), "C slice too short");
    assert!(fits(a_len, rows, as_, depth), "A slice too short");
    assert!(fits(b_len, depth, bs, cols), "B slice too short");
}

/// Single-precision min-plus rank update: `C[r][j] = min(C[r][j],
/// min_k (A[r][k] + B[k][j]))` for `r < rows`, `j < cols`, `k < depth`,
/// with row strides `cs`, `as_`, `bs` in elements.
///
/// # Panics
///
/// If a dimension is not a multiple of 4, a stride is narrower than its
/// panel, or a slice is too short for its panel.
#[allow(clippy::too_many_arguments)]
pub fn minplus_rank_update_f32(
    c: &mut [f32],
    cs: usize,
    a: &[f32],
    as_: usize,
    b: &[f32],
    bs: usize,
    rows: usize,
    cols: usize,
    depth: usize,
) {
    check_extents(c.len(), cs, a.len(), as_, b.len(), bs, rows, cols, depth);
    if rows == 0 || cols == 0 || depth == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX-512F and AVX2 (its column remainders run the
            // AVX2 kernels) were detected just above, and `check_extents`
            // proved every panel lies inside its slice.
            unsafe { avx512::rank_update_f32(c, cs, a, as_, b, bs, rows, cols, depth) };
            return;
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected just above, and `check_extents`
            // proved every panel lies inside its slice.
            unsafe { avx2::rank_update_f32(c, cs, a, as_, b, bs, rows, cols, depth) };
            return;
        }
    }
    portable_f32(c, cs, a, as_, b, bs, rows, cols, depth);
}

/// Double-precision [`minplus_rank_update_f32`]: the AVX2 tile is 6 rows ×
/// 8 columns (four lanes per register), the fallback the 4×4 `f64` sweep.
///
/// # Panics
///
/// As [`minplus_rank_update_f32`].
#[allow(clippy::too_many_arguments)]
pub fn minplus_rank_update_f64(
    c: &mut [f64],
    cs: usize,
    a: &[f64],
    as_: usize,
    b: &[f64],
    bs: usize,
    rows: usize,
    cols: usize,
    depth: usize,
) {
    check_extents(c.len(), cs, a.len(), as_, b.len(), bs, rows, cols, depth);
    if rows == 0 || cols == 0 || depth == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX-512F and AVX2 (its column remainders run the
            // AVX2 kernels) were detected just above, and `check_extents`
            // proved every panel lies inside its slice.
            unsafe { avx512::rank_update_f64(c, cs, a, as_, b, bs, rows, cols, depth) };
            return;
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected just above, and `check_extents`
            // proved every panel lies inside its slice.
            unsafe { avx2::rank_update_f64(c, cs, a, as_, b, bs, rows, cols, depth) };
            return;
        }
    }
    portable_f64(c, cs, a, as_, b, bs, rows, cols, depth);
}

/// Saturating-`i32` [`minplus_rank_update_f32`]: `C[r][j] = min(C[r][j],
/// min_k A[r][k].saturating_add(B[k][j]))`. The AVX2 tile is 6 rows × 16
/// columns and takes panels whose A and B elements all lie in
/// `[i32::MIN / 2, i32::MAX / 2]` (module docs); the fallback is the 4×4
/// saturating sweep.
///
/// # Panics
///
/// As [`minplus_rank_update_f32`].
#[allow(clippy::too_many_arguments)]
pub fn minplus_rank_update_i32(
    c: &mut [i32],
    cs: usize,
    a: &[i32],
    as_: usize,
    b: &[i32],
    bs: usize,
    rows: usize,
    cols: usize,
    depth: usize,
) {
    check_extents(c.len(), cs, a.len(), as_, b.len(), bs, rows, cols, depth);
    if rows == 0 || cols == 0 || depth == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && halves(a, as_, rows, depth) && halves(b, bs, depth, cols)
    {
        // SAFETY: AVX2 was detected just above, `check_extents` proved every
        // panel lies inside its slice, and no A + B sum can overflow.
        unsafe { avx2::rank_update_i32(c, cs, a, as_, b, bs, rows, cols, depth) };
        return;
    }
    portable_i32(c, cs, a, as_, b, bs, rows, cols, depth);
}

/// Saturating-`i64` [`minplus_rank_update_f32`]: `C[r][j] = min(C[r][j],
/// min_k A[r][k].saturating_add(B[k][j]))`. The AVX-512 tile is 6 rows × 32
/// columns, the AVX2 one 6 × 8; both take panels whose A and B elements all
/// lie in `[i64::MIN / 2, i64::MAX / 2]` (module docs); the fallback is the
/// 4×4 saturating sweep.
///
/// # Panics
///
/// As [`minplus_rank_update_f32`].
#[allow(clippy::too_many_arguments)]
pub fn minplus_rank_update_i64(
    c: &mut [i64],
    cs: usize,
    a: &[i64],
    as_: usize,
    b: &[i64],
    bs: usize,
    rows: usize,
    cols: usize,
    depth: usize,
) {
    check_extents(c.len(), cs, a.len(), as_, b.len(), bs, rows, cols, depth);
    if rows == 0 || cols == 0 || depth == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && halves(a, as_, rows, depth) && halves(b, bs, depth, cols)
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F and AVX2 (its last 4 columns run the AVX2
            // kernel) were detected, `check_extents` proved every panel lies
            // inside its slice, and no A + B sum can overflow.
            unsafe { avx512::rank_update_i64(c, cs, a, as_, b, bs, rows, cols, depth) };
            return;
        }
        // SAFETY: AVX2 was detected just above, `check_extents` proved every
        // panel lies inside its slice, and no A + B sum can overflow.
        unsafe { avx2::rank_update_i64(c, cs, a, as_, b, bs, rows, cols, depth) };
        return;
    }
    portable_i64(c, cs, a, as_, b, bs, rows, cols, depth);
}

/// An integer element with a no-overflow range: any two values in
/// `[HALF_MIN, HALF_MAX]` add without wrapping.
#[cfg(target_arch = "x86_64")]
trait Halves: Copy + PartialOrd {
    const HALF_MIN: Self;
    const HALF_MAX: Self;
}

#[cfg(target_arch = "x86_64")]
impl Halves for i32 {
    const HALF_MIN: Self = i32::MIN / 2;
    const HALF_MAX: Self = i32::MAX / 2;
}

#[cfg(target_arch = "x86_64")]
impl Halves for i64 {
    const HALF_MIN: Self = i64::MIN / 2;
    const HALF_MAX: Self = i64::MAX / 2;
}

/// Whether every element of the `h × w` panel (row stride `stride`) lies in
/// `[MIN / 2, MAX / 2]`, so that any sum of two of them is exact.
#[cfg(target_arch = "x86_64")]
fn halves<T: Halves>(x: &[T], stride: usize, h: usize, w: usize) -> bool {
    (0..h).all(|r| {
        x[r * stride..r * stride + w]
            .iter()
            .fold(true, |ok, v| ok & (T::HALF_MIN..=T::HALF_MAX).contains(v))
    })
}

/// One saturating-integer 4×4 tile: the scalar loop of `DpValue`'s default
/// `tile4_update` for the integer types.
macro_rules! block4x4_saturating {
    ($name:ident, $elem:ty) => {
        fn $name(c: &mut [$elem], cs: usize, a: &[$elem], as_: usize, b: &[$elem], bs: usize) {
            for r in 0..4 {
                for j in 0..4 {
                    let mut best = c[r * cs + j];
                    for k in 0..4 {
                        let cand = a[r * as_ + k].saturating_add(b[k * bs + j]);
                        if cand < best {
                            best = cand;
                        }
                    }
                    c[r * cs + j] = best;
                }
            }
        }
    };
}

block4x4_saturating!(block4x4_minplus_i32, i32);
block4x4_saturating!(block4x4_minplus_i64, i64);

/// The 4×4 tile sweep every entry point falls back to: tile rows, then tile
/// columns, then k-tiles in ascending order — the loop `stage1` ran before
/// the host kernel existed.
macro_rules! portable_sweep {
    ($name:ident, $elem:ty, $tile:path) => {
        #[allow(clippy::too_many_arguments)]
        fn $name(
            c: &mut [$elem],
            cs: usize,
            a: &[$elem],
            as_: usize,
            b: &[$elem],
            bs: usize,
            rows: usize,
            cols: usize,
            depth: usize,
        ) {
            for r in (0..rows).step_by(4) {
                for j in (0..cols).step_by(4) {
                    for k in (0..depth).step_by(4) {
                        $tile(
                            &mut c[r * cs + j..],
                            cs,
                            &a[r * as_ + k..],
                            as_,
                            &b[k * bs + j..],
                            bs,
                        );
                    }
                }
            }
        }
    };
}

portable_sweep!(portable_f32, f32, block4x4_minplus_f32_arrays);
portable_sweep!(portable_f64, f64, block4x4_minplus_f64_arrays);
portable_sweep!(portable_i32, i32, block4x4_minplus_i32);
portable_sweep!(portable_i64, i64, block4x4_minplus_i64);

/// Rows of C one micro-kernel call keeps in registers, at either width: 6
/// rows × 2 `ymm` = 12 accumulators of the 16 AVX2 registers, 6 rows × 4
/// `zmm` = 24 of the 32 AVX-512 ones, with room for the B row and the A
/// broadcast.
#[cfg(target_arch = "x86_64")]
const MR: usize = 6;

/// Generates one register-blocked micro-kernel for target feature `$feat`:
/// `ROWS` rows of C × `NV` vectors of `$lanes` columns, held in
/// accumulators across the whole `depth`.
#[cfg(target_arch = "x86_64")]
macro_rules! micro_kernel {
    ($feat:literal, $name:ident, $elem:ty, $lanes:expr,
     $load:ident, $store:ident, $splat:ident, $add:ident, $min:ident) => {
        /// # Safety
        ///
        /// The CPU supports the kernel's target feature; `c` holds `ROWS`
        /// rows of stride `cs` and `NV × LANES` columns, `a` `ROWS` rows of
        /// stride `as_` and `depth` columns, `b` `depth` rows of stride `bs`
        /// and `NV × LANES` columns.
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub(super) unsafe fn $name<const ROWS: usize, const NV: usize>(
            c: *mut $elem,
            cs: usize,
            a: *const $elem,
            as_: usize,
            b: *const $elem,
            bs: usize,
            depth: usize,
        ) {
            let mut acc = [[$splat(<$elem>::default()); NV]; ROWS];
            for (r, row) in acc.iter_mut().enumerate() {
                for (v, lane) in row.iter_mut().enumerate() {
                    // SAFETY: row `r < ROWS`, columns `v·LANES..` below
                    // `NV·LANES`, inside C by the caller's contract.
                    *lane = unsafe { $load(c.add(r * cs + v * $lanes)) };
                }
            }
            for k in 0..depth {
                let mut bv = [$splat(<$elem>::default()); NV];
                for (v, lane) in bv.iter_mut().enumerate() {
                    // SAFETY: row `k < depth` of B, columns inside the
                    // `NV·LANES` panel.
                    *lane = unsafe { $load(b.add(k * bs + v * $lanes)) };
                }
                for (r, row) in acc.iter_mut().enumerate() {
                    // SAFETY: element `(r, k)` of the `ROWS × depth` A panel.
                    let av = $splat(unsafe { *a.add(r * as_ + k) });
                    for (lane, &bk) in row.iter_mut().zip(&bv) {
                        // `min(cand, acc)` returns `acc` unless `cand` is
                        // strictly smaller: `DpValue::min2(acc, cand)`.
                        *lane = $min($add(av, bk), *lane);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (v, &lane) in row.iter().enumerate() {
                    // SAFETY: the same in-bounds C elements loaded above.
                    unsafe { $store(c.add(r * cs + v * $lanes), lane) };
                }
            }
        }
    };
}

/// Walks C in column panels (widest register tile first) and, inside each
/// panel, in 6-row blocks, then one 4-row block, then single rows. Every
/// `(width, kernel, nv)` covers `width` columns with `kernel::<_, nv>`.
#[cfg(target_arch = "x86_64")]
macro_rules! panel_sweep {
    ($feat:literal, $name:ident, $elem:ty, $(($width:expr, $kernel:ident, $nv:expr)),+) => {
        /// # Safety
        ///
        /// The CPU supports the sweep's target feature and the panels
        /// satisfy `super::check_extents`.
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub(super) unsafe fn $name(
            c: &mut [$elem],
            cs: usize,
            a: &[$elem],
            as_: usize,
            b: &[$elem],
            bs: usize,
            rows: usize,
            cols: usize,
            depth: usize,
        ) {
            use super::MR;
            let (c, a, b) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
            let mut j = 0;
            $(
                while cols - j >= $width {
                    let mut r = 0;
                    while rows - r >= MR {
                        // SAFETY: rows `r..r + MR` and columns `j..j + width`
                        // lie inside the panels the caller checked, and the
                        // kernel's feature is enabled here.
                        unsafe {
                            $kernel::<MR, $nv>(c.add(r * cs + j), cs, a.add(r * as_), as_,
                                b.add(j), bs, depth)
                        };
                        r += MR;
                    }
                    if rows - r >= 4 {
                        // SAFETY: as above, for four rows.
                        unsafe {
                            $kernel::<4, $nv>(c.add(r * cs + j), cs, a.add(r * as_), as_,
                                b.add(j), bs, depth)
                        };
                        r += 4;
                    }
                    while r < rows {
                        // SAFETY: as above, for one row.
                        unsafe {
                            $kernel::<1, $nv>(c.add(r * cs + j), cs, a.add(r * as_), as_,
                                b.add(j), bs, depth)
                        };
                        r += 1;
                    }
                    j += $width;
                }
            )+
            debug_assert_eq!(j, cols);
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    micro_kernel!(
        "avx2",
        tile_f32,
        f32,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_add_ps,
        _mm256_min_ps
    );
    micro_kernel!(
        "avx2",
        tile4_f32,
        f32,
        4,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_set1_ps,
        _mm_add_ps,
        _mm_min_ps
    );
    micro_kernel!(
        "avx2",
        tile_f64,
        f64,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_add_pd,
        _mm256_min_pd
    );

    /// Typed unaligned load / store of one integer vector, so the integer
    /// kernels take element pointers like the float ones.
    macro_rules! int_load_store {
        ($load:ident, $store:ident, $elem:ty, $vec:ty, $loadu:ident, $storeu:ident) => {
            /// Unaligned load of one integer vector.
            ///
            /// # Safety
            ///
            /// `p` points at one vector's worth of readable elements.
            #[target_feature(enable = "avx2")]
            unsafe fn $load(p: *const $elem) -> $vec {
                // SAFETY: the caller vouches for the readable elements;
                // `loadu` has no alignment requirement.
                unsafe { $loadu(p.cast()) }
            }

            /// Unaligned store of one integer vector.
            ///
            /// # Safety
            ///
            /// `p` points at one vector's worth of writable elements.
            #[target_feature(enable = "avx2")]
            unsafe fn $store(p: *mut $elem, v: $vec) {
                // SAFETY: as the load, for writing.
                unsafe { $storeu(p.cast(), v) }
            }
        };
    }

    int_load_store!(
        load_i64,
        store_i64,
        i64,
        __m256i,
        _mm256_loadu_si256,
        _mm256_storeu_si256
    );
    int_load_store!(
        load_i32,
        store_i32,
        i32,
        __m256i,
        _mm256_loadu_si256,
        _mm256_storeu_si256
    );
    int_load_store!(
        load4_i32,
        store4_i32,
        i32,
        __m128i,
        _mm_loadu_si128,
        _mm_storeu_si128
    );

    /// `acc` unless `cand` is strictly smaller, lane by lane: `min2(acc,
    /// cand)` (AVX2 has no `vpminsq`).
    #[target_feature(enable = "avx2")]
    fn min_i64(cand: __m256i, acc: __m256i) -> __m256i {
        _mm256_blendv_epi8(acc, cand, _mm256_cmpgt_epi64(acc, cand))
    }

    micro_kernel!(
        "avx2",
        tile_i64,
        i64,
        4,
        load_i64,
        store_i64,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        min_i64
    );

    micro_kernel!(
        "avx2",
        tile_i32,
        i32,
        8,
        load_i32,
        store_i32,
        _mm256_set1_epi32,
        _mm256_add_epi32,
        _mm256_min_epi32
    );
    micro_kernel!(
        "avx2",
        tile4_i32,
        i32,
        4,
        load4_i32,
        store4_i32,
        _mm_set1_epi32,
        _mm_add_epi32,
        _mm_min_epi32
    );

    panel_sweep!(
        "avx2",
        rank_update_f32,
        f32,
        (16, tile_f32, 2),
        (8, tile_f32, 1),
        (4, tile4_f32, 1)
    );
    panel_sweep!(
        "avx2",
        rank_update_f64,
        f64,
        (8, tile_f64, 2),
        (4, tile_f64, 1)
    );
    panel_sweep!(
        "avx2",
        rank_update_i32,
        i32,
        (16, tile_i32, 2),
        (8, tile_i32, 1),
        (4, tile4_i32, 1)
    );
    panel_sweep!(
        "avx2",
        rank_update_i64,
        i64,
        (8, tile_i64, 2),
        (4, tile_i64, 1)
    );
}

/// The AVX-512F tier of the `f32`, `f64` and `i64` kernels: a 6 × 4 `zmm`
/// tile (64 `f32` or 32 `f64` / `i64` columns) for the wide panels, narrower
/// `zmm` tiles for the column remainders, and the AVX2 kernels for the last
/// 8 / 4 columns.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::avx2::{tile4_f32, tile_f32, tile_f64, tile_i64};

    micro_kernel!(
        "avx512f",
        zmm_f32,
        f32,
        16,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_add_ps,
        _mm512_min_ps
    );
    micro_kernel!(
        "avx512f",
        zmm_f64,
        f64,
        8,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_set1_pd,
        _mm512_add_pd,
        _mm512_min_pd
    );

    micro_kernel!(
        "avx512f",
        zmm_i64,
        i64,
        8,
        _mm512_loadu_epi64,
        _mm512_storeu_epi64,
        _mm512_set1_epi64,
        _mm512_add_epi64,
        _mm512_min_epi64
    );

    panel_sweep!(
        "avx512f",
        rank_update_f32,
        f32,
        (64, zmm_f32, 4),
        (32, zmm_f32, 2),
        (16, zmm_f32, 1),
        (8, tile_f32, 1),
        (4, tile4_f32, 1)
    );
    panel_sweep!(
        "avx512f",
        rank_update_f64,
        f64,
        (32, zmm_f64, 4),
        (16, zmm_f64, 2),
        (8, zmm_f64, 1),
        (4, tile_f64, 1)
    );
    panel_sweep!(
        "avx512f",
        rank_update_i64,
        i64,
        (32, zmm_i64, 4),
        (16, zmm_i64, 2),
        (8, zmm_i64, 1),
        (4, tile_i64, 1)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values that stress every IEEE corner a min-plus candidate can hit:
    /// `+∞` padding, `MAX + MAX` overflowing to `+∞`, subnormals, `+0`, and
    /// ties (small integers repeat).
    fn hard_f32(s: &mut u64) -> f32 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match (*s >> 59) % 8 {
            0 => f32::INFINITY,
            1 => f32::MAX,
            2 => f32::from_bits(1 + ((*s >> 20) as u32 & 0x7f_ffff)), // subnormal
            3 => 0.0,
            4 => ((*s >> 40) % 4) as f32,
            _ => ((*s >> 40) as f32) / 1024.0,
        }
    }

    fn hard_f64(s: &mut u64) -> f64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match (*s >> 59) % 8 {
            0 => f64::INFINITY,
            1 => f64::MAX,
            2 => f64::from_bits(1 + ((*s >> 8) & 0xf_ffff_ffff_ffff)), // subnormal
            3 => 0.0,
            4 => ((*s >> 40) % 4) as f64,
            _ => ((*s >> 20) as f64) / 1024.0,
        }
    }

    /// `i64` values around the AVX2 kernel's no-overflow range: both of its
    /// ends, `i64::MAX / 4` padding, negatives, `0` and ties. One value in
    /// `outlier` (about one in 64) lies outside it — `i64::MAX`, `i64::MIN`
    /// or one past an end — sending the whole call to the portable sweep.
    fn hard_i64(s: &mut u64, outlier: bool) -> i64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = *s >> 58;
        if outlier && pick == 0 {
            return [i64::MAX, i64::MIN, i64::MAX / 2 + 1, i64::MIN / 2 - 1]
                [(*s >> 20) as usize % 4];
        }
        match pick % 8 {
            0 => i64::MAX / 4,
            1 => i64::MAX / 2,
            2 => i64::MIN / 2,
            3 => 0,
            4 => ((*s >> 40) % 4) as i64,
            5 => -(((*s >> 30) % 1000) as i64),
            _ => (*s >> 3) as i64 % (i64::MAX / 4),
        }
    }

    fn hard_i64_in_range(s: &mut u64) -> i64 {
        hard_i64(s, false)
    }

    fn hard_i64_with_outliers(s: &mut u64) -> i64 {
        hard_i64(s, true)
    }

    /// `i32` values at the SIMD tiers' guard edges: both ends of the
    /// no-overflow range, `INF = i32::MAX / 4` and the sum of two of them
    /// (an once-padded cell), negatives, `0` and ties. One value in
    /// `outlier` (about one in 64) lies just outside the range, or at
    /// `i32::MAX` / `i32::MIN`, sending the whole call to the portable
    /// sweep.
    fn hard_i32(s: &mut u64, outlier: bool) -> i32 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = *s >> 58;
        if outlier && pick == 0 {
            return [i32::MAX, i32::MIN, i32::MAX / 2 + 1, i32::MIN / 2 - 1]
                [(*s >> 20) as usize % 4];
        }
        match pick % 8 {
            0 => i32::MAX / 4,
            1 => i32::MAX / 2,
            2 => i32::MIN / 2,
            3 => 0,
            4 => ((*s >> 40) % 4) as i32,
            5 => -(((*s >> 30) % 1000) as i32),
            6 => i32::MAX / 4 * 2,
            _ => ((*s >> 3) % (i32::MAX / 4) as u64) as i32,
        }
    }

    fn hard_i32_in_range(s: &mut u64) -> i32 {
        hard_i32(s, false)
    }

    fn hard_i32_with_outliers(s: &mut u64) -> i32 {
        hard_i32(s, true)
    }

    /// Exact bit patterns, for comparing whole panels.
    trait Bits {
        fn bits(self) -> u64;
    }

    impl Bits for f32 {
        fn bits(self) -> u64 {
            self.to_bits().into()
        }
    }

    impl Bits for f64 {
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }

    impl Bits for i32 {
        fn bits(self) -> u64 {
            (self as u32).into()
        }
    }

    impl Bits for i64 {
        fn bits(self) -> u64 {
            self as u64
        }
    }

    /// A rank update with the entry points' signature.
    trait Kernel<T>: Fn(&mut [T], usize, &[T], usize, &[T], usize, usize, usize, usize) {}

    impl<T, F: Fn(&mut [T], usize, &[T], usize, &[T], usize, usize, usize, usize)> Kernel<T> for F {}

    /// Runs `fast` (an entry point or one tier of it) and the portable sweep
    /// on the same hard inputs and compares the bits of all of C. Strides
    /// are wider than the panels, so both must also leave the gap columns
    /// alone.
    macro_rules! assert_matches {
        ($name:ident, $elem:ty, $gen:ident, $portable:ident) => {
            fn $name(
                fast: impl Kernel<$elem>,
                rows: usize,
                cols: usize,
                depth: usize,
                pad: usize,
                seed: u64,
            ) {
                let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
                let (cs, as_, bs) = (cols + pad, depth + pad, cols + 2 * pad);
                let mut fill =
                    |len: usize| -> Vec<$elem> { (0..len).map(|_| $gen(&mut s)).collect() };
                let (c, a, b) = (fill(rows * cs), fill(rows * as_), fill(depth * bs));
                let mut c_fast = c.clone();
                let mut portable = c;
                fast(&mut c_fast, cs, &a, as_, &b, bs, rows, cols, depth);
                $portable(&mut portable, cs, &a, as_, &b, bs, rows, cols, depth);
                let bits = |v: &[$elem]| v.iter().map(|x| x.bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&c_fast),
                    bits(&portable),
                    "{} {rows}×{cols}×{depth} pad {pad} seed {seed}",
                    stringify!($elem)
                );
            }
        };
    }

    assert_matches!(assert_f32_matches, f32, hard_f32, portable_f32);
    assert_matches!(assert_f64_matches, f64, hard_f64, portable_f64);
    assert_matches!(assert_i32_matches, i32, hard_i32_in_range, portable_i32);
    assert_matches!(
        assert_i32_outliers_match,
        i32,
        hard_i32_with_outliers,
        portable_i32
    );
    assert_matches!(assert_i64_matches, i64, hard_i64_in_range, portable_i64);
    assert_matches!(
        assert_i64_outliers_match,
        i64,
        hard_i64_with_outliers,
        portable_i64
    );

    /// The tiers the entry points dispatch between, widest first (`i32` has
    /// no `Avx512`).
    #[derive(Clone, Copy, Debug)]
    enum Tier {
        Avx512,
        Avx2,
        Portable,
    }

    impl Tier {
        const ALL: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Portable];

        /// Whether this CPU runs the tier; a tier it lacks prints a skip
        /// line instead of passing silently.
        fn available(self) -> bool {
            let ok = match self {
                #[cfg(target_arch = "x86_64")]
                Tier::Avx512 => {
                    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2")
                }
                #[cfg(target_arch = "x86_64")]
                Tier::Avx2 => is_x86_feature_detected!("avx2"),
                Tier::Portable => true,
                #[cfg(not(target_arch = "x86_64"))]
                _ => false,
            };
            if !ok {
                println!("skip: the {self:?} rank-update tier is not available on this CPU");
            }
            ok
        }
    }

    /// One tier of an entry point, called directly after the entry point's
    /// own extent check. `[Tier => module, ..]` lists the SIMD tiers the
    /// entry point has.
    macro_rules! tier_kernel {
        ($name:ident, $elem:ty, $kernel:ident, $portable:ident,
         [$($tier:ident => $module:ident),+]) => {
            fn $name(tier: Tier) -> impl Kernel<$elem> {
                move |c: &mut [$elem], cs, a: &[$elem], as_, b: &[$elem], bs, rows, cols, depth| {
                    check_extents(c.len(), cs, a.len(), as_, b.len(), bs, rows, cols, depth);
                    match tier {
                        $(
                            // SAFETY: the tests only run tiers whose feature
                            // `Tier::available` detected, and `check_extents`
                            // proved every panel lies inside its slice.
                            #[cfg(target_arch = "x86_64")]
                            Tier::$tier => unsafe {
                                $module::$kernel(c, cs, a, as_, b, bs, rows, cols, depth)
                            },
                        )+
                        Tier::Portable => $portable(c, cs, a, as_, b, bs, rows, cols, depth),
                        #[allow(unreachable_patterns)]
                        _ => unreachable!("{tier:?} is not a tier of this kernel"),
                    }
                }
            }
        };
    }

    tier_kernel!(tier_f32, f32, rank_update_f32, portable_f32, [Avx512 => avx512, Avx2 => avx2]);
    tier_kernel!(tier_f64, f64, rank_update_f64, portable_f64, [Avx512 => avx512, Avx2 => avx2]);
    tier_kernel!(tier_i32, i32, rank_update_i32, portable_i32, [Avx2 => avx2]);
    tier_kernel!(tier_i64, i64, rank_update_i64, portable_i64, [Avx512 => avx512, Avx2 => avx2]);

    /// Every tier the CPU has, called directly, equals the portable sweep
    /// bit for bit on the hard value classes, over shapes that take every
    /// column remainder of the widest tile (64/32/16/8/4 `f32` columns,
    /// 32/16/8/4 `f64` and `i64`, 16/8/4 `i32`) and every row remainder
    /// (6/4/1), with and without stride gaps. The integer operands stay
    /// inside the tiers' no-overflow range, both ends included (the entry
    /// points route anything else to the portable sweep; the
    /// `*_guard_edges_saturate` tests and the outlier runs below pin that).
    /// The dispatched tests above reach
    /// only the widest tier; this one keeps the narrower ones covered on
    /// every host.
    #[test]
    fn every_tier_matches_portable_sweep() {
        let rows = [4, 8, 12, 16, 20];
        let cols = [4, 8, 12, 16, 24, 28, 32, 44, 60, 64, 88, 124];
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            for (i, (&r, &c)) in rows
                .iter()
                .flat_map(|r| cols.iter().map(move |c| (r, c)))
                .enumerate()
            {
                for depth in [4, 12, 40] {
                    for pad in [0, 3] {
                        let seed = (i * 100 + depth + pad) as u64;
                        assert_f32_matches(tier_f32(tier), r, c, depth, pad, seed);
                        assert_f64_matches(tier_f64(tier), r, c, depth, pad, seed);
                        assert_i64_matches(tier_i64(tier), r, c, depth, pad, seed);
                        if !matches!(tier, Tier::Avx512) {
                            assert_i32_matches(tier_i32(tier), r, c, depth, pad, seed);
                        }
                    }
                }
            }
            println!("{tier:?} tier: bit-identical to the portable sweep");
        }
    }

    /// Every square stage-1 shape from nb = 4 to 96: the dispatched kernel
    /// equals the portable sweep bit for bit.
    #[test]
    fn square_blocks_match_portable_sweep() {
        for nb in (4..=96).step_by(4) {
            assert_f32_matches(minplus_rank_update_f32, nb, nb, nb, 0, nb as u64);
            assert_f64_matches(minplus_rank_update_f64, nb, nb, nb, 0, nb as u64);
            assert_i32_matches(minplus_rank_update_i32, nb, nb, nb, 0, nb as u64);
            assert_i32_outliers_match(minplus_rank_update_i32, nb, nb, nb, 0, nb as u64);
            assert_i64_matches(minplus_rank_update_i64, nb, nb, nb, 0, nb as u64);
            assert_i64_outliers_match(minplus_rank_update_i64, nb, nb, nb, 0, nb as u64);
        }
    }

    /// The stage-2 strip shapes: four rows, a full block of columns, and
    /// every depth a tile row can have below it.
    #[test]
    fn stage2_strip_shapes_match_portable_sweep() {
        for nb in [8usize, 16, 40, 88, 96] {
            for depth in (4..nb).step_by(4) {
                assert_f32_matches(
                    minplus_rank_update_f32,
                    4,
                    nb,
                    depth,
                    3,
                    (nb * 1000 + depth) as u64,
                );
                assert_f64_matches(
                    minplus_rank_update_f64,
                    4,
                    nb,
                    depth,
                    3,
                    (nb * 1000 + depth) as u64,
                );
                assert_i32_matches(
                    minplus_rank_update_i32,
                    4,
                    nb,
                    depth,
                    3,
                    (nb * 1000 + depth) as u64,
                );
                assert_i64_matches(
                    minplus_rank_update_i64,
                    4,
                    nb,
                    depth,
                    3,
                    (nb * 1000 + depth) as u64,
                );
            }
        }
    }

    #[test]
    fn empty_shapes_are_no_ops() {
        let mut c = [1.0f32; 16];
        minplus_rank_update_f32(&mut c, 4, &[], 0, &[], 4, 0, 4, 0);
        minplus_rank_update_f32(&mut c, 4, &[], 0, &[], 4, 4, 4, 0);
        assert_eq!(c, [1.0; 16]);
    }

    /// Candidates tie with C (`+0` against `+0`, `∞` against `∞`): C keeps
    /// its own bits, as `min2(acc, cand)` does.
    #[test]
    fn ties_keep_the_accumulator() {
        let mut c = vec![0.0f32; 16];
        minplus_rank_update_f32(&mut c, 4, &[0.0; 16], 4, &[0.0; 16], 4, 4, 4, 4);
        assert!(c.iter().all(|v| v.to_bits() == 0));
        let mut c = vec![f64::INFINITY; 16];
        minplus_rank_update_f64(&mut c, 4, &[f64::MAX; 16], 4, &[f64::MAX; 16], 4, 4, 4, 4);
        assert!(c.iter().all(|v| *v == f64::INFINITY));
    }

    /// The portable sweep saturates where a plain add would wrap, and the
    /// dispatched entry point (sent there by the out-of-range operands)
    /// saturates the same way.
    #[test]
    fn i64_outliers_saturate() {
        let mut c = vec![5i64; 16];
        minplus_rank_update_i64(&mut c, 4, &[i64::MAX; 16], 4, &[i64::MAX; 16], 4, 4, 4, 4);
        assert!(
            c.iter().all(|&v| v == 5),
            "MAX + MAX saturates, never wraps"
        );
        let mut c = vec![5i64; 16];
        minplus_rank_update_i64(&mut c, 4, &[i64::MIN; 16], 4, &[-1; 16], 4, 4, 4, 4);
        assert!(c.iter().all(|&v| v == i64::MIN));
    }

    /// One past either end of the `i32` guard, a wrapping add would turn a
    /// losing sum into a winner (`MAX / 2 + 1` twice wraps to `MIN`) or a
    /// winner into a loser (`MIN / 2 - 1` twice wraps to `MAX`); the entry
    /// point sends such panels to the saturating sweep. At the ends
    /// themselves the SIMD tiers run, and their sums are exact.
    #[test]
    fn i32_guard_edges_saturate() {
        let run = |a: i32, b: i32| {
            let mut c = vec![5i32; 16];
            minplus_rank_update_i32(&mut c, 4, &[a; 16], 4, &[b; 16], 4, 4, 4, 4);
            c[0]
        };
        assert_eq!(
            run(i32::MAX / 2 + 1, i32::MAX / 2 + 1),
            5,
            "saturates, never wraps"
        );
        assert_eq!(run(i32::MIN / 2 - 1, i32::MIN / 2 - 1), i32::MIN);
        assert_eq!(run(i32::MAX, i32::MAX), 5);
        assert_eq!(run(i32::MAX / 2, i32::MAX / 2), 5);
        assert_eq!(run(i32::MIN / 2, i32::MIN / 2), i32::MIN);
        assert_eq!(run(i32::MIN / 2, i32::MAX / 2), -1);
        assert_eq!(run(i32::MAX / 4, i32::MAX / 4), 5, "INF + INF loses");
        assert_eq!(run(i32::MAX / 4, -(i32::MAX / 4)), 0);
    }

    /// The `i64` guard, as `i32_guard_edges_saturate`: one step outside
    /// either end the entry point falls back to the saturating sweep, and at
    /// the ends themselves the SIMD tiers (AVX-512 where the CPU has it) run
    /// with exact sums. `INF = i64::MAX / 4` and a once-padded `INF + INF`
    /// both lie inside the guard.
    #[test]
    fn i64_guard_edges_saturate() {
        const INF: i64 = i64::MAX / 4;
        let run = |a: i64, b: i64| {
            let mut c = vec![5i64; 16];
            minplus_rank_update_i64(&mut c, 4, &[a; 16], 4, &[b; 16], 4, 4, 4, 4);
            c[0]
        };
        assert_eq!(
            run(i64::MAX / 2 + 1, i64::MAX / 2 + 1),
            5,
            "saturates, never wraps"
        );
        assert_eq!(run(i64::MIN / 2 - 1, i64::MIN / 2 - 1), i64::MIN);
        assert_eq!(run(i64::MAX, i64::MAX), 5);
        assert_eq!(run(i64::MAX / 2, i64::MAX / 2), 5);
        assert_eq!(run(i64::MIN / 2, i64::MIN / 2), i64::MIN);
        assert_eq!(run(i64::MIN / 2, i64::MAX / 2), -1);
        assert_eq!(run(INF, INF), 5, "INF + INF loses");
        assert_eq!(run(INF * 2, INF), 5, "a once-padded cell loses too");
        assert_eq!(run(INF, -INF), 0);
    }

    #[test]
    #[should_panic(expected = "not made of 4×4 computing blocks")]
    fn ragged_shape_is_rejected() {
        let mut c = vec![0.0f32; 36];
        minplus_rank_update_f32(&mut c, 6, &[0.0; 36], 6, &[0.0; 36], 6, 6, 6, 6);
    }

    #[test]
    #[should_panic(expected = "B slice too short")]
    fn short_operand_is_rejected() {
        let mut c = vec![0.0f64; 16];
        minplus_rank_update_f64(&mut c, 4, &[0.0; 16], 4, &[0.0; 15], 4, 4, 4, 4);
    }

    #[test]
    #[should_panic(expected = "C slice too short")]
    fn overflowing_stride_is_rejected() {
        // 3 · (usize::MAX / 2) wraps to a small number in release builds.
        let mut c = vec![0.0f32; 16];
        minplus_rank_update_f32(
            &mut c,
            usize::MAX / 2,
            &[0.0; 16],
            4,
            &[0.0; 16],
            4,
            4,
            4,
            4,
        );
    }

    proptest! {
        /// Random rectangular shapes and stride gaps.
        #[test]
        fn prop_rectangles_match_portable_sweep(
            rows in 1usize..25, cols in 1usize..25, depth in 1usize..25,
            pad in 0usize..6, seed in any::<u64>(),
        ) {
            assert_f32_matches(minplus_rank_update_f32, 4 * rows, 4 * cols, 4 * depth, pad, seed);
            assert_f64_matches(minplus_rank_update_f64, 4 * rows, 4 * cols, 4 * depth, pad, seed);
            assert_i32_matches(minplus_rank_update_i32, 4 * rows, 4 * cols, 4 * depth, pad, seed);
            assert_i32_outliers_match(minplus_rank_update_i32, 4 * rows, 4 * cols, 4 * depth, pad, seed);
            assert_i64_matches(minplus_rank_update_i64, 4 * rows, 4 * cols, 4 * depth, pad, seed);
            assert_i64_outliers_match(minplus_rank_update_i64, 4 * rows, 4 * cols, 4 * depth, pad, seed);
        }
    }
}
