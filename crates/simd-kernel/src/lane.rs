//! Lane-wise `i32` min-plus rank update: `C ⊕= A ⊗ B` where every panel
//! element is a vector of eight independent `i32` lanes.
//!
//! This is the hot loop of rule-lane CYK: the caller gathers one lane per
//! grammar rule, so each lane is its own tropical problem and the update
//! never mixes lanes. One element is one 256-bit register, which makes the
//! AVX2 kernel a plain register-blocked "matmul" with `vpaddd` as ⊗ and
//! `vpminsd` as ⊕: a 4-row × 2-column block of C stays in eight
//! accumulators for the whole `depth`.
//!
//! # Semantics
//!
//! `c[r·cols + j][l] = min(c[r·cols + j][l], min_k a[r·depth + k][l] +
//! b[k·cols + j][l])` with **wrapping** `i32` addition, for `r < rows`,
//! `j < cols`, `k < depth`, `l < 8`; all three panels are dense and
//! row-major. Integer `min` is exact and order-free, so the dispatched
//! kernel and the portable loop agree bit for bit on every input (pinned by
//! the tests below). Callers that need saturating sums keep their operands
//! small enough that no sum wraps.
//!
//! # Dispatch
//!
//! [`lanewise_rank_update_i32x8`] is the only entry point: it checks the
//! panel extents, then runs the AVX2 kernel when
//! `is_x86_feature_detected!("avx2")` holds and the portable loop otherwise
//! (every non-x86_64 target compiles only the portable loop).

/// One panel element: eight independent `i32` lanes.
pub type I32Lanes = [i32; 8];

/// Lane-wise min-plus rank update over dense row-major panels: a
/// `rows × depth` A, a `depth × cols` B and a `rows × cols` C (see the
/// module docs for the exact semantics).
///
/// # Panics
///
/// If a slice is shorter than its panel.
pub fn lanewise_rank_update_i32x8(
    c: &mut [I32Lanes],
    a: &[I32Lanes],
    b: &[I32Lanes],
    rows: usize,
    cols: usize,
    depth: usize,
) {
    let area = |h: usize, w: usize| h.checked_mul(w).expect("panel area overflows usize");
    assert!(c.len() >= area(rows, cols), "C slice too short");
    assert!(a.len() >= area(rows, depth), "A slice too short");
    assert!(b.len() >= area(depth, cols), "B slice too short");
    if rows == 0 || cols == 0 || depth == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above, and the asserts proved every
        // panel lies inside its slice.
        unsafe { avx2::rank_update(c, a, b, rows, cols, depth) };
        return;
    }
    portable(c, a, b, rows, cols, depth);
}

/// The reference loop: cell by cell, `k` ascending, lanes innermost.
fn portable(
    c: &mut [I32Lanes],
    a: &[I32Lanes],
    b: &[I32Lanes],
    rows: usize,
    cols: usize,
    depth: usize,
) {
    for r in 0..rows {
        for j in 0..cols {
            let mut acc = c[r * cols + j];
            for k in 0..depth {
                let (x, y) = (&a[r * depth + k], &b[k * cols + j]);
                for l in 0..8 {
                    acc[l] = acc[l].min(x[l].wrapping_add(y[l]));
                }
            }
            c[r * cols + j] = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::I32Lanes;

    /// Rows and columns of C one micro-kernel call keeps in registers:
    /// 4 × 2 accumulators, plus 4 A vectors and 1 B vector, of the 16
    /// `ymm` registers.
    const MR: usize = 4;
    const NR: usize = 2;

    /// One register-blocked micro-kernel: `ROWS × COLS` elements of C held
    /// in accumulators across the whole `depth`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `c` holds `ROWS` rows of stride `cols` and
    /// `COLS` columns, `a` `ROWS` rows of `depth` elements, `b` `depth`
    /// rows of stride `cols` and `COLS` columns.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const ROWS: usize, const COLS: usize>(
        c: *mut I32Lanes,
        a: *const I32Lanes,
        b: *const I32Lanes,
        cols: usize,
        depth: usize,
    ) {
        // Every load and store below is `loadu`/`storeu`: no alignment
        // requirement, one 32-byte element.
        let mut acc = [[_mm256_setzero_si256(); COLS]; ROWS];
        for (r, row) in acc.iter_mut().enumerate() {
            for (j, lane) in row.iter_mut().enumerate() {
                // SAFETY: element `(r, j)` of the C block.
                *lane = unsafe { _mm256_loadu_si256(c.add(r * cols + j).cast()) };
            }
        }
        for k in 0..depth {
            let mut av = [_mm256_setzero_si256(); ROWS];
            for (r, v) in av.iter_mut().enumerate() {
                // SAFETY: element `(r, k)` of the `ROWS × depth` A panel.
                *v = unsafe { _mm256_loadu_si256(a.add(r * depth + k).cast()) };
            }
            for j in 0..COLS {
                // SAFETY: element `(k, j)` of the B panel.
                let bv = unsafe { _mm256_loadu_si256(b.add(k * cols + j).cast()) };
                for (row, &x) in acc.iter_mut().zip(&av) {
                    row[j] = _mm256_min_epi32(row[j], _mm256_add_epi32(x, bv));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (j, &lane) in row.iter().enumerate() {
                // SAFETY: the same in-bounds C elements loaded above.
                unsafe { _mm256_storeu_si256(c.add(r * cols + j).cast(), lane) };
            }
        }
    }

    /// Walks C in `MR`-row blocks (then single rows), each in `NR`-column
    /// blocks (then a single column).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and the panels are as long as
    /// `super::lanewise_rank_update_i32x8` checks.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank_update(
        c: &mut [I32Lanes],
        a: &[I32Lanes],
        b: &[I32Lanes],
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        let (c, a, b) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut r = 0;
        while r < rows {
            let mut j = 0;
            if rows - r >= MR {
                while cols - j >= NR {
                    // SAFETY: rows `r..r + MR`, columns `j..j + NR` lie
                    // inside the checked panels, and AVX2 is enabled here.
                    unsafe {
                        tile::<MR, NR>(c.add(r * cols + j), a.add(r * depth), b.add(j), cols, depth)
                    };
                    j += NR;
                }
                if j < cols {
                    // SAFETY: as above, for the last column.
                    unsafe {
                        tile::<MR, 1>(c.add(r * cols + j), a.add(r * depth), b.add(j), cols, depth)
                    };
                }
                r += MR;
            } else {
                while j < cols {
                    // SAFETY: as above, for one row and one column.
                    unsafe {
                        tile::<1, 1>(c.add(r * cols + j), a.add(r * depth), b.add(j), cols, depth)
                    };
                    j += 1;
                }
                r += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `i32` pseudo-infinity of the tropical rings (`i32::MAX / 4`).
    const INF: i32 = i32::MAX / 4;

    /// Lanes drawn from the values rule-lane CYK stores and sums: `INF`
    /// padding, `INF + 10⁶` (a weighted `INF` B lane), rule weights 0 and
    /// 10⁶, small ties, and anything in `[0, INF]`.
    fn hard(s: &mut u64) -> i32 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match (*s >> 59) % 8 {
            0 => INF,
            1 => INF + 1_000_000,
            2 => 0,
            3 => 1_000_000,
            4 => ((*s >> 40) % 4) as i32,
            _ => ((*s >> 33) % (INF as u64 + 1)) as i32,
        }
    }

    /// Runs the dispatched entry point and the portable loop on the same
    /// inputs and compares all of C.
    fn assert_matches(rows: usize, cols: usize, depth: usize, seed: u64) {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut fill = |len: usize| -> Vec<I32Lanes> {
            (0..len)
                .map(|_| std::array::from_fn(|_| hard(&mut s)))
                .collect()
        };
        let (c, a, b) = (fill(rows * cols), fill(rows * depth), fill(depth * cols));
        let mut fast = c.clone();
        let mut reference = c;
        lanewise_rank_update_i32x8(&mut fast, &a, &b, rows, cols, depth);
        portable(&mut reference, &a, &b, rows, cols, depth);
        assert_eq!(fast, reference, "{rows}×{cols}×{depth} seed {seed}");
    }

    /// The shapes rule-lane CYK feeds the kernel: square stage-1 blocks,
    /// 4 × nb × depth stage-2 strips and 4 × 4 × 4cc left-tile updates,
    /// nb from 4 to 64.
    #[test]
    fn stage_shapes_match_portable_loop() {
        for nb in (4..=64).step_by(4) {
            assert_matches(nb, nb, nb, nb as u64);
            for depth in (4..nb).step_by(4) {
                assert_matches(4, nb, depth, (nb * 1000 + depth) as u64);
                assert_matches(4, 4, depth, (nb * 7000 + depth) as u64);
            }
        }
    }

    #[test]
    fn wrapping_sums_match_portable_loop() {
        // Sums past i32::MAX wrap in both paths alike.
        let mut fast = vec![[0; 8]; 4];
        let a = vec![[i32::MAX; 8]; 4];
        let b = vec![[1, 2, 3, i32::MAX, -1, 0, i32::MIN, 7]; 4];
        let mut reference = fast.clone();
        lanewise_rank_update_i32x8(&mut fast, &a, &b, 2, 2, 2);
        portable(&mut reference, &a, &b, 2, 2, 2);
        assert_eq!(fast, reference);
    }

    #[test]
    fn all_inf_operands_leave_c_alone() {
        let c0: Vec<I32Lanes> = (0..16).map(|i| [i; 8]).collect();
        let mut c = c0.clone();
        lanewise_rank_update_i32x8(&mut c, &[[INF; 8]; 16], &[[INF; 8]; 16], 4, 4, 4);
        assert_eq!(c, c0);
    }

    #[test]
    fn empty_shapes_are_no_ops() {
        let mut c = [[5; 8]; 4];
        lanewise_rank_update_i32x8(&mut c, &[], &[], 2, 2, 0);
        lanewise_rank_update_i32x8(&mut c, &[], &[[0; 8]; 4], 0, 2, 2);
        assert_eq!(c, [[5; 8]; 4]);
    }

    #[test]
    #[should_panic(expected = "B slice too short")]
    fn short_operand_is_rejected() {
        let mut c = [[0; 8]; 4];
        lanewise_rank_update_i32x8(&mut c, &[[0; 8]; 4], &[[0; 8]; 3], 2, 2, 2);
    }

    proptest! {
        /// Random shapes, including ones that are not multiples of the
        /// register block.
        #[test]
        fn prop_shapes_match_portable_loop(
            rows in 1usize..19, cols in 1usize..19, depth in 1usize..19, seed in any::<u64>(),
        ) {
            assert_matches(rows, cols, depth, seed);
        }
    }
}
