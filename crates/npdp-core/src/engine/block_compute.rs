//! The SPE procedure (paper §IV-A): computing one memory block.
//!
//! A memory block `C = (bi, bj)` of side `nb` receives min-plus contributions
//! from every split point `k` with `i < k < j`. Partitioning `k` by the block
//! it falls in gives the paper's two stages:
//!
//! * **Stage 1** — `k` strictly between the block's row and column ranges:
//!   `C ⊗= Block(bi, bk) × Block(bk, bj)` for `bi < bk < bj`. Both operand
//!   blocks are final, so the whole block is one dense min-plus "matmul"
//!   with no ordering constraints — a single [`Semiring::rank_update`]
//!   ([`stage1`]).
//!
//! * **Stage 2** — `k` inside block `bi`'s row range (operands: the diagonal
//!   block `(bi, bi)` and C itself) or block `bj`'s column range (C itself
//!   and the diagonal block `(bj, bj)`). These are the block's *inner
//!   dependences*: 4×4 computing blocks are swept bottom row first, left to
//!   right ([`stage2_offdiag`]). Per tile row:
//!   (a) the already-final rows below arrive as one rank-update strip;
//!   (b) the final tiles to the left arrive per 16-column panel — one
//!   rank update for the tiles left of the panel, then one small update per
//!   tile for the panel's own tiles left of it;
//!   (c) the same-tile remainder runs [`Semiring::edge`] on a local copy of
//!   the tile and of the two diagonal tiles it reads, and writes the tile
//!   back once. The hook's default is the original scalar flowchart; CYK
//!   overrides it with a rule-lane edge in registers and Zuker with a
//!   track-wise one.
//!   A cell sees rows below, then columns left in ascending `k`, then its
//!   own tile — the order of a tile-by-tile sweep.
//!
//! A diagonal memory block `(b, b)` is the whole recurrence in miniature and
//! is handled by [`compute_diag`]: each tile's middle k-tiles arrive in one
//! staged rank update, and its edge pass is the same local-tile step (c),
//! with the block's own diagonal tiles as operands.
//!
//! In a ragged last block column the recurrence tiers pass the column's
//! logical width `w`, rounded up to 4 (the crate-private `_cols` forms):
//! stage 1 and the stage-2 strips update `w` columns, and stage 2 and the
//! diagonal block run over `w / 4` tiles. Padding columns past `w` keep
//! their seeded `zero`.
//!
//! Padding (`+∞`) below the diagonal of diagonal blocks makes the cell-level
//! constraints `k > i` / `k < j` automatic: out-of-range candidates are
//! `∞ + x` and never win the `min`.

use crate::semiring::{MinPlus, Semiring};
use crate::value::DpValue;

/// Copy the 4×4 tile at tile coordinates `(tr, tc)` out of a row-major
/// `nb × nb` block into a dense 4×4 scratch (stride 4). This mirrors the
/// kernel's register loads and sidesteps aliasing when operand tiles live in
/// the same block as the destination.
#[inline(always)]
fn copy_tile<T: Copy>(src: &[T], nb: usize, tr: usize, tc: usize) -> [T; 16] {
    let base = tr * 4 * nb + tc * 4;
    let mut out = [src[base]; 16];
    for r in 0..4 {
        out[4 * r..4 * r + 4].copy_from_slice(&src[base + r * nb..base + r * nb + 4]);
    }
    out
}

/// Stage 1: `C ⊗= A × B` where `A = (bi, bk)` and `B = (bk, bj)` are final
/// memory blocks distinct from `C`. All three are `nb × nb` row-major.
pub fn stage1<T: DpValue>(c: &mut [T], a: &[T], b: &[T], nb: usize) {
    stage1_ring(&MinPlus::<T>::new(), c, a, b, nb);
}

/// [`stage1`] over an arbitrary [`Semiring`]: one `nb × nb × nb`
/// [`Semiring::rank_update`] — the host-native kernels for min-plus
/// `f32`/`f64`/`i32`/`i64`, CYK's rule lanes and Zuker's track planes, the
/// 4×4 tile sweep through [`Semiring::tile4`] for everything else.
pub fn stage1_ring<S: Semiring>(
    ring: &S,
    c: &mut [S::Elem],
    a: &[S::Elem],
    b: &[S::Elem],
    nb: usize,
) {
    stage1_cols(ring, c, a, b, nb, nb);
}

/// [`stage1_ring`] on the block's first `w` columns: a multiple of 4, `nb`
/// except in a ragged last block column, whose columns past the table's
/// side stay untouched.
pub(crate) fn stage1_cols<S: Semiring>(
    ring: &S,
    c: &mut [S::Elem],
    a: &[S::Elem],
    b: &[S::Elem],
    nb: usize,
    w: usize,
) {
    debug_assert!(nb.is_multiple_of(4) && w.is_multiple_of(4) && w <= nb);
    ring.rank_update(c, nb, a, nb, b, nb, nb, w, nb);
}

/// The same-tile edge of computing block `(r, cc)` of `C`: a local copy of
/// the tile through [`Semiring::edge`] — `lo` is the diagonal tile `(r, r)`
/// of the row block, `hi` the diagonal tile `(cc, cc)` of the column block —
/// with `finalize` in block-local coordinates, written back once. Returns
/// the finished tile (stride 4).
#[inline]
#[allow(clippy::too_many_arguments)]
fn edge_tile<S: Semiring>(
    ring: &S,
    c: &mut [S::Elem],
    lo: &[S::Elem; 16],
    hi: &[S::Elem; 16],
    nb: usize,
    r: usize,
    cc: usize,
    finalize: &impl Fn(usize, usize, S::Elem) -> S::Elem,
) -> [S::Elem; 16] {
    let mut t = copy_tile(c, nb, r, cc);
    ring.edge(&mut t, lo, hi, |il, jl, acc| {
        finalize(r * 4 + il, cc * 4 + jl, acc)
    });
    let base = r * 4 * nb + cc * 4;
    for il in 0..4 {
        c[base + il * nb..base + il * nb + 4].copy_from_slice(&t[il * 4..il * 4 + 4]);
    }
    t
}

/// Fully resolve the inner dependences of one 4×4 diagonal tile `(t, t)` of a
/// diagonal memory block: the original Fig. 1 flowchart confined to the
/// tile, finalizing each cell after its last candidate. Below-diagonal and
/// diagonal cells are padding and are never written.
#[inline]
fn diag_tile_closure<S: Semiring>(
    ring: &S,
    c: &mut [S::Elem],
    nb: usize,
    t: usize,
    finalize: &impl Fn(usize, usize, S::Elem) -> S::Elem,
) {
    let base = t * 4;
    for jl in 1..4 {
        for il in (0..jl).rev() {
            let (ii, jj) = (base + il, base + jl);
            let mut best = c[ii * nb + jj];
            for k in il + 1..jl {
                let kk = base + k;
                best = ring.combine(best, ring.extend(c[ii * nb + kk], c[kk * nb + jj]));
            }
            c[ii * nb + jj] = finalize(ii, jj, best);
        }
    }
}

/// The identity `finalize` of the plain closure.
#[inline(always)]
fn no_finalize<T>(_: usize, _: usize, acc: T) -> T {
    acc
}

/// Stage the finished tile `t` (stride 4) at tile column `cc` of the
/// 4-row strip `left` (row stride `nb`).
#[inline(always)]
fn stage_tile<T: Copy>(left: &mut [T], nb: usize, cc: usize, t: &[T; 16]) {
    for il in 0..4 {
        left[il * nb + cc * 4..il * nb + cc * 4 + 4].copy_from_slice(&t[il * 4..il * 4 + 4]);
    }
}

/// Computing blocks per stage-2 column panel: part (b) of a tile row takes
/// the final tiles left of a panel in one 4 × 16 × depth `rank_update`.
const PANEL_TILES: usize = 4;

/// Stage 2 for an off-diagonal memory block `C = (bi, bj)`, `bi < bj`:
/// resolve all contributions with `k` in block `bi`'s or block `bj`'s index
/// range. `dlo = Block(bi, bi)` and `dhi = Block(bj, bj)` are final.
///
/// Computing blocks are processed bottom row first, left to right (paper:
/// "the blocks on the left side and closer to the bottom are computed
/// earlier"). Each tile row first takes every candidate from the final rows
/// below it in one [`Semiring::rank_update`] strip. Then, per 16-column
/// panel, the final tiles left of the panel arrive in one `rank_update`;
/// per tile, the panel's own tiles to its left in one more, and the
/// same-tile remainder through [`Semiring::edge`]. A cell sees its
/// candidates in the same order as a tile-by-tile sweep: rows below,
/// columns left (ascending `k`), own tile.
pub fn stage2_offdiag<T: DpValue>(c: &mut [T], dlo: &[T], dhi: &[T], nb: usize) {
    stage2_offdiag_ring(&MinPlus::<T>::new(), c, dlo, dhi, nb, no_finalize);
}

/// [`stage2_offdiag`] over an arbitrary [`Semiring`], with a per-cell
/// `finalize(i, j, acc)` (block-local coordinates) applied right after the
/// cell's last candidate — before any other cell reads it. Pass the
/// identity for a plain closure.
pub fn stage2_offdiag_ring<S: Semiring>(
    ring: &S,
    c: &mut [S::Elem],
    dlo: &[S::Elem],
    dhi: &[S::Elem],
    nb: usize,
    finalize: impl Fn(usize, usize, S::Elem) -> S::Elem,
) {
    stage2_offdiag_cols(ring, c, dlo, dhi, nb, nb, finalize);
}

/// [`stage2_offdiag_ring`] on the block's first `w` columns (as in
/// [`stage1_cols`]); columns from `w` on are not touched.
pub(crate) fn stage2_offdiag_cols<S: Semiring>(
    ring: &S,
    c: &mut [S::Elem],
    dlo: &[S::Elem],
    dhi: &[S::Elem],
    nb: usize,
    w: usize,
    finalize: impl Fn(usize, usize, S::Elem) -> S::Elem,
) {
    debug_assert!(nb.is_multiple_of(4) && w.is_multiple_of(4) && w <= nb);
    let (nt, wt) = (nb / 4, w / 4);
    let mut left = vec![ring.zero(); 4 * nb];
    for r in (0..nt).rev() {
        // (a) k strictly below tile row r in this block's row range, for the
        //     whole tile row at once: C(r,·) ⊗= DLO(r, below) × C(below, ·).
        //     The C operand rows are already final and lie strictly after
        //     the destination rows, so the flat ranges are disjoint.
        let below = (r + 1) * 4;
        let (head, tail) = c.split_at_mut(below * nb);
        let strip = &mut head[r * 4 * nb..];
        ring.rank_update(
            strip,
            nb,
            &dlo[r * 4 * nb + below..],
            nb,
            tail,
            nb,
            4,
            w,
            nb - below,
        );
        let lo = copy_tile(dlo, nb, r, r);
        for p0 in (0..wt).step_by(PANEL_TILES) {
            let p1 = (p0 + PANEL_TILES).min(wt);
            // (b) k-tiles strictly left of the panel in this block's column
            //     range, for the whole panel at once: C(r, p0..p1) ⊗=
            //     C(r, ..p0) × DHI(..p0, p0..p1). The A operand shares rows
            //     with the destination, so it is read from `left`, where
            //     each final tile of row r is staged as soon as its edge
            //     pass is done. (The first panel and tile have nothing to
            //     their left.)
            if p0 > 0 {
                ring.rank_update(
                    &mut c[r * 4 * nb + p0 * 4..],
                    nb,
                    &left,
                    nb,
                    &dhi[p0 * 4..],
                    nb,
                    4,
                    (p1 - p0) * 4,
                    p0 * 4,
                );
            }
            for cc in p0..p1 {
                // (b′) the panel's own k-tiles left of cc, one 4 × 4 ×
                //      4(cc − p0) update from `left`.
                if cc > p0 {
                    ring.rank_update(
                        &mut c[r * 4 * nb + cc * 4..],
                        nb,
                        &left[p0 * 4..],
                        nb,
                        &dhi[p0 * 4 * nb + cc * 4..],
                        nb,
                        4,
                        4,
                        (cc - p0) * 4,
                    );
                }
                // (c) same-tile remainder and finalize; the finished tile is
                //     staged in `left`.
                let hi = copy_tile(dhi, nb, cc, cc);
                let t = edge_tile(ring, c, &lo, &hi, nb, r, cc, &finalize);
                stage_tile(&mut left, nb, cc, &t);
            }
        }
    }
}

/// Compute a diagonal memory block `(b, b)` entirely from its own seeds: the
/// full NPDP recurrence restricted to the block, using the same
/// tile-then-edge structure as stage 2.
pub fn compute_diag<T: DpValue>(c: &mut [T], nb: usize) {
    compute_diag_ring(&MinPlus::<T>::new(), c, nb, no_finalize);
}

/// [`compute_diag`] over an arbitrary [`Semiring`], with a per-cell
/// `finalize(i, j, acc)` (block-local coordinates) applied right after the
/// cell's last candidate, as in [`stage2_offdiag_ring`].
///
/// Tile rows go bottom first, each left to right from its diagonal tile.
/// Tile `(r, cc)` takes its middle k-tiles `r+1..cc` in one `4 × 4 ×
/// 4(cc−r−1)` [`Semiring::rank_update`]: A is the row's finished tiles,
/// staged in `left` as each edge pass ends, and B the final rows below, read
/// in place. Its edge k-tiles (`r` and `cc`) have same-tile operands; their
/// other operands are this block's final diagonal tiles.
pub fn compute_diag_ring<S: Semiring>(
    ring: &S,
    c: &mut [S::Elem],
    nb: usize,
    finalize: impl Fn(usize, usize, S::Elem) -> S::Elem,
) {
    compute_diag_cols(ring, c, nb, nb, finalize);
}

/// [`compute_diag_ring`] on the block's first `w` rows and columns (as in
/// [`stage1_cols`]); the rest stays untouched.
pub(crate) fn compute_diag_cols<S: Semiring>(
    ring: &S,
    c: &mut [S::Elem],
    nb: usize,
    w: usize,
    finalize: impl Fn(usize, usize, S::Elem) -> S::Elem,
) {
    debug_assert!(nb.is_multiple_of(4) && w.is_multiple_of(4) && w <= nb);
    let wt = w / 4;
    let mut left = vec![ring.zero(); 4 * nb];
    for r in (0..wt).rev() {
        diag_tile_closure(ring, c, nb, r, &finalize);
        let lo = copy_tile(c, nb, r, r);
        for cc in r + 1..wt {
            if cc > r + 1 {
                let (head, tail) = c.split_at_mut((r + 1) * 4 * nb);
                ring.rank_update(
                    &mut head[r * 4 * nb + cc * 4..],
                    nb,
                    &left[(r + 1) * 4..],
                    nb,
                    &tail[cc * 4..],
                    nb,
                    4,
                    4,
                    (cc - r - 1) * 4,
                );
            }
            let hi = copy_tile(c, nb, cc, cc);
            let t = edge_tile(ring, c, &lo, &hi, nb, r, cc, &finalize);
            stage_tile(&mut left, nb, cc, &t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::scalar_kernels::ScalarTiles;

    /// Reference: the original triple loop over an `nb × nb` block stored
    /// dense with +∞ padding, treating the block as a self-contained
    /// triangle.
    fn reference_diag(c: &mut [f32], nb: usize) {
        for j in 0..nb {
            for i in (0..j).rev() {
                let mut best = c[i * nb + j];
                for k in i + 1..j {
                    best = best.min(c[i * nb + k] + c[k * nb + j]);
                }
                c[i * nb + j] = best;
            }
        }
    }

    fn seeded_block(nb: usize, seed: u64, diag: bool) -> Vec<f32> {
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

    #[test]
    fn copy_tile_extracts_correctly() {
        let nb = 8;
        let block: Vec<f32> = (0..nb * nb).map(|x| x as f32).collect();
        let tile = copy_tile(&block, nb, 1, 0);
        assert_eq!(tile[0], 32.0); // cell (4, 0)
        assert_eq!(tile[5], 41.0); // cell (5, 1)
        assert_eq!(tile[15], 59.0); // cell (7, 3)
    }

    #[test]
    fn compute_diag_matches_reference() {
        for nb in [4usize, 8, 12, 16] {
            for seed in 0..6u64 {
                let mut fast = seeded_block(nb, seed, true);
                let mut refr = fast.clone();
                compute_diag(&mut fast, nb);
                reference_diag(&mut refr, nb);
                assert_eq!(fast, refr, "nb={nb} seed={seed}");
            }
        }
    }

    #[test]
    fn stage1_is_dense_minplus_matmul() {
        let nb = 8;
        let a = seeded_block(nb, 11, false);
        let b = seeded_block(nb, 12, false);
        let mut c = seeded_block(nb, 13, false);
        let mut c_ref = c.clone();
        stage1(&mut c, &a, &b, nb);
        for i in 0..nb {
            for j in 0..nb {
                let mut best = c_ref[i * nb + j];
                for k in 0..nb {
                    best = best.min(a[i * nb + k] + b[k * nb + j]);
                }
                c_ref[i * nb + j] = best;
            }
        }
        assert_eq!(c, c_ref);
    }

    #[test]
    fn stage2_offdiag_matches_cellwise_reference() {
        // Model: a 3-block row strip. C = (0, 2); dlo = (0,0), dhi = (2,2)
        // already final; C pre-loaded with stage-1 results (here: seeds).
        // The reference resolves k in block 0's range (k > i) and block 2's
        // range (k < j) with the scalar recurrence in global coordinates.
        // The block sides cover one partial panel (nb = 4, 8, 12), a full
        // panel plus a one-tile panel (20), two plus one (36) and the
        // workload's nb = 88 (five full panels plus two tiles).
        for (nb, seed) in [4usize, 8, 12, 20, 36, 88]
            .into_iter()
            .flat_map(|nb| (0..6u64).map(move |seed| (nb, seed)))
        {
            let mut dlo = seeded_block(nb, seed * 3 + 1, true);
            let mut dhi = seeded_block(nb, seed * 3 + 2, true);
            compute_diag(&mut dlo, nb);
            compute_diag(&mut dhi, nb);
            let c0 = seeded_block(nb, seed * 3 + 3, false);

            let mut fast = c0.clone();
            stage2_offdiag(&mut fast, &dlo, &dhi, nb);

            // Reference: global rows 0..nb (block 0), global cols in block 2.
            // Sweep the same dependence-safe order as the serial algorithm:
            // columns ascending, rows descending.
            let mut refr = c0;
            for j in 0..nb {
                for i in (0..nb).rev() {
                    let mut best = refr[i * nb + j];
                    for k in i + 1..nb {
                        // k in block 0's range: dlo(i, k) + C(k, j).
                        best = best.min(dlo[i * nb + k] + refr[k * nb + j]);
                    }
                    for k in 0..j {
                        // k in block 2's range: C(i, k) + dhi(k, j).
                        best = best.min(refr[i * nb + k] + dhi[k * nb + j]);
                    }
                    refr[i * nb + j] = best;
                }
            }
            assert_eq!(fast, refr, "nb={nb} seed={seed}");
        }
    }

    #[test]
    fn padding_never_leaks_from_diag_blocks() {
        let nb = 8;
        let mut c = seeded_block(nb, 99, true);
        compute_diag(&mut c, nb);
        for i in 0..nb {
            for j in 0..=i {
                assert_eq!(c[i * nb + j], f32::INFINITY, "padding ({i},{j})");
            }
            for j in i + 1..nb {
                assert!(c[i * nb + j].is_finite(), "interior ({i},{j})");
            }
        }
    }

    /// Both stages through `MinPlus` (the host-native kernel for floats)
    /// equal the same stages through the `Semiring` defaults (the scalar
    /// 4×4 tile sweep every non-float ring runs), bit for bit,
    /// on blocks full of `+0` ties and `+∞` padding.
    fn stages_match_tile_sweep<T: DpValue>(
        nb: usize,
        seed: u64,
        of: impl Fn(f32) -> T,
        bits: impl Fn(T) -> u64,
    ) {
        // A fifth of the cells are `+0`, the rest whole numbers (many ties).
        let round = |v: Vec<f32>| -> Vec<T> {
            v.into_iter()
                .map(|x| match x {
                    x if x.is_infinite() => T::INFINITY,
                    x if x < 10.0 => of(0.0),
                    x => of(x.floor()),
                })
                .collect()
        };
        let (fast, slow) = (MinPlus::<T>::new(), ScalarTiles::<T>::new());
        let same = |x: &[T], y: &[T]| x.iter().zip(y).all(|(&p, &q)| bits(p) == bits(q));

        let mut dlo = round(seeded_block(nb, seed, true));
        let mut dhi = round(seeded_block(nb, seed + 1, true));
        compute_diag_ring(&fast, &mut dlo, nb, no_finalize);
        compute_diag_ring(&fast, &mut dhi, nb, no_finalize);
        let a = round(seeded_block(nb, seed + 2, false));
        let c0 = round(seeded_block(nb, seed + 3, false));

        let (mut x, mut y) = (c0.clone(), c0);
        stage1_ring(&fast, &mut x, &a, &dhi, nb);
        stage1_ring(&slow, &mut y, &a, &dhi, nb);
        assert!(same(&x, &y), "stage 1 nb={nb} seed={seed}");
        stage2_offdiag_ring(&fast, &mut x, &dlo, &dhi, nb, no_finalize);
        stage2_offdiag_ring(&slow, &mut y, &dlo, &dhi, nb, no_finalize);
        assert!(same(&x, &y), "stage 2 nb={nb} seed={seed}");
    }

    #[test]
    fn min_plus_stages_equal_tile_sweep_defaults() {
        for nb in [4usize, 8, 12, 24, 40, 88] {
            for seed in 0..3u64 {
                stages_match_tile_sweep::<f32>(nb, seed * 7, |x| x, |v| v.to_bits() as u64);
                stages_match_tile_sweep::<f64>(nb, seed * 7, f64::from, f64::to_bits);
                stages_match_tile_sweep::<i64>(nb, seed * 7, |x| x as i64, |v| v as u64);
            }
        }
    }
}
