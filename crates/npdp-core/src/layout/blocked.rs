//! The paper's **new data layout** (NDL, §III, Fig. 5).
//!
//! The triangle is tiled into square *memory blocks* of side `nb`; every
//! block — including the padded triangular ones on the diagonal — is stored
//! **contiguously** in memory, so a block moves between main memory and an
//! SPE local store (or a cache hierarchy) in one maximal DMA transfer
//! (one streaming pass) instead of `nb` small row transfers.
//!
//! Padding cells (`i ≥ j`, or beyond the logical side `n`) hold
//! `T::INFINITY`: the identity of `min` absorbs addition, so padded lanes can
//! be computed with full SIMD width and never influence an interior result.

use task_queue::TriangleGrid;

use crate::layout::TriangularMatrix;
use crate::value::DpValue;

/// Block-contiguous triangular DP matrix (the NDL).
#[derive(Debug, Clone)]
pub struct BlockedMatrix<T> {
    /// Logical side length (cells `(i, j)` with `i < j < n` are real).
    n: usize,
    /// Memory-block side; must be a positive multiple of 4 (the computing-
    /// block side).
    nb: usize,
    /// Blocks per triangle side, `ceil(n / nb)`.
    m: usize,
    grid: TriangleGrid,
    /// Block-major storage: block `(bi, bj)` occupies
    /// `grid.id(bi, bj) * nb²..+nb²`, row-major within the block.
    data: Vec<T>,
}

impl<T: DpValue> BlockedMatrix<T> {
    /// An all-infinity blocked triangle of logical side `n` with memory
    /// blocks of side `nb`.
    ///
    /// # Panics
    /// If `nb` is zero or not a multiple of 4.
    pub fn new_infinity(n: usize, nb: usize) -> Self {
        Self::new_filled(n, nb, T::INFINITY)
    }

    /// Import a row-major triangular matrix into the NDL: one slice copy per
    /// row and block column.
    pub fn from_triangular(src: &TriangularMatrix<T>, nb: usize) -> Self {
        let mut out = Self::new_infinity(src.n(), nb);
        // The runs come in row-major order, which is the source's flat order.
        let mut rest = src.as_slice();
        out.for_each_run_mut(|_, _, run| {
            let (head, tail) = rest.split_at(run.len());
            run.copy_from_slice(head);
            rest = tail;
        });
        out
    }

    /// Verify every padding cell still holds `INFINITY` — engines must keep
    /// padding inert. (Padding cells *are* written by full-SIMD updates, but
    /// only ever with values `≥ INFINITY`; this check accepts any such value.)
    pub fn padding_is_inert(&self) -> bool {
        for bi in 0..self.m {
            for bj in bi..self.m {
                let blk = self.block(bi, bj);
                for li in 0..self.nb {
                    for lj in 0..self.nb {
                        let (i, j) = (bi * self.nb + li, bj * self.nb + lj);
                        let pad = i >= j || j >= self.n;
                        if pad && blk[li * self.nb + lj] < T::PAD_FLOOR {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

// Storage and block access need only `Copy`: the `Recurrence` path blocks
// composite ring elements that have no `DpValue` ordering.
impl<T: Copy> BlockedMatrix<T> {
    /// A blocked triangle of logical side `n`, memory blocks of side `nb`,
    /// every cell (padding included) set to `fill` — the generic-`Semiring`
    /// spelling of [`BlockedMatrix::new_infinity`] with `fill = ring.zero()`.
    ///
    /// # Panics
    /// If `nb` is zero or not a multiple of 4.
    pub fn new_filled(n: usize, nb: usize, fill: T) -> Self {
        assert!(
            nb > 0 && nb.is_multiple_of(4),
            "block side must be a multiple of 4"
        );
        let m = n.div_ceil(nb).max(1);
        let grid = TriangleGrid::new(m);
        let data = vec![fill; grid.len() * nb * nb];
        Self {
            n,
            nb,
            m,
            grid,
            data,
        }
    }

    /// Logical side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Memory-block side length.
    pub fn block_side(&self) -> usize {
        self.nb
    }

    /// Blocks per triangle side.
    pub fn blocks_per_side(&self) -> usize {
        self.m
    }

    /// Bytes occupied by one memory block.
    pub fn block_bytes(&self) -> usize {
        self.nb * self.nb * std::mem::size_of::<T>()
    }

    /// Flat offset of block `(bi, bj)` in the backing storage.
    #[inline]
    pub fn block_offset(&self, bi: usize, bj: usize) -> usize {
        self.grid.id(bi, bj) * self.nb * self.nb
    }

    /// Shared view of block `(bi, bj)` (`nb × nb`, row-major).
    #[inline]
    pub fn block(&self, bi: usize, bj: usize) -> &[T] {
        let off = self.block_offset(bi, bj);
        &self.data[off..off + self.nb * self.nb]
    }

    /// Mutable view of block `(bi, bj)`.
    #[inline]
    pub fn block_mut(&mut self, bi: usize, bj: usize) -> &mut [T] {
        let off = self.block_offset(bi, bj);
        &mut self.data[off..off + self.nb * self.nb]
    }

    /// Read cell `(i, j)`. Requires `i < j < n`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < j && j < self.n);
        let (bi, bj) = (i / self.nb, j / self.nb);
        self.block(bi, bj)[(i % self.nb) * self.nb + (j % self.nb)]
    }

    /// Write cell `(i, j)`. Requires `i < j < n`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < j && j < self.n);
        let (bi, bj) = (i / self.nb, j / self.nb);
        let nb = self.nb;
        self.block_mut(bi, bj)[(i % nb) * nb + (j % nb)] = v;
    }

    /// Export back to the row-major triangular layout: each row's run per
    /// block column, appended in order.
    pub fn to_triangular(&self) -> TriangularMatrix<T> {
        let mut flat = Vec::with_capacity(self.n * self.n.saturating_sub(1) / 2);
        for i in 0..self.n {
            for (_, run) in row_runs(self.n, self.nb, &self.grid, i) {
                flat.extend_from_slice(&self.data[run]);
            }
        }
        TriangularMatrix::from_flat(self.n, flat)
    }

    /// Calls `f(i, j0, run)` for every logical row `i` and every block
    /// column it crosses, in row-major order: `run` is the contiguous
    /// stretch of one block row that holds cells `(i, j0..j0 + run.len())`.
    /// This is how the layout conversions move whole runs instead of cells.
    pub(crate) fn for_each_run_mut(&mut self, mut f: impl FnMut(usize, usize, &mut [T])) {
        for i in 0..self.n {
            for (j0, run) in row_runs(self.n, self.nb, &self.grid, i) {
                f(i, j0, &mut self.data[run]);
            }
        }
    }

    /// The whole block-major backing store.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing store (used by the parallel engine's shared view).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Number of *logical* DP cells (`i < j < n`) stored in block
    /// `(bi, bj)` — edge blocks are partly padding, diagonal blocks hold a
    /// strict triangle. Summed over all blocks this is `n(n-1)/2`, which is
    /// how the metrics layer attributes `engine.cells_computed` per block.
    pub fn logical_cells_in_block(&self, bi: usize, bj: usize) -> usize {
        debug_assert!(bi <= bj && bj < self.m);
        let rows = self.n.saturating_sub(bi * self.nb).min(self.nb);
        let cols = self.n.saturating_sub(bj * self.nb).min(self.nb);
        if bi == bj {
            // Strict upper triangle of a rows×rows corner (rows == cols).
            rows * rows.saturating_sub(1) / 2
        } else {
            // Every row index in block-row bi is below every column index in
            // block-column bj, so the whole unpadded rectangle is logical.
            rows * cols
        }
    }
}

/// The runs of logical row `i` (cells `(i, i+1..n)`) of a blocked triangle
/// of side `n` and block side `nb`: one `(j0, flat range)` per block column
/// the row crosses, columns ascending.
fn row_runs(
    n: usize,
    nb: usize,
    grid: &TriangleGrid,
    i: usize,
) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
    let (bi, li) = (i / nb, i % nb);
    let first = i + 1;
    let end = if first < n { n.div_ceil(nb) } else { 0 };
    (first / nb..end).map(move |bj| {
        let j0 = first.max(bj * nb);
        let j1 = n.min((bj + 1) * nb);
        let off = grid.id(bi, bj) * nb * nb + li * nb + (j0 - bj * nb);
        (j0, off..off + (j1 - j0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tri(n: usize) -> TriangularMatrix<f32> {
        TriangularMatrix::from_fn(n, |i, j| (i * 1000 + j) as f32)
    }

    /// The per-cell reference import: `new_filled`, then one `set` per
    /// logical cell.
    fn import_per_cell<T: Copy>(
        n: usize,
        nb: usize,
        fill: T,
        cell: impl Fn(usize, usize) -> T,
    ) -> BlockedMatrix<T> {
        let mut m = BlockedMatrix::new_filled(n, nb, fill);
        for i in 0..n {
            for j in i + 1..n {
                m.set(i, j, cell(i, j));
            }
        }
        m
    }

    proptest::proptest! {
        /// The run-wise conversions equal the per-cell `get`/`set` walk, on
        /// the sides around every block boundary: the import bit for bit
        /// (padding included), the export cell for cell. `f32` goes through
        /// `from_triangular`; a composite element (a cell's own label)
        /// through `for_each_run_mut` and `to_triangular`.
        #[test]
        fn prop_run_wise_conversions_match_per_cell_access(
            nb in proptest::prop_oneof![
                proptest::prelude::Just(4usize),
                proptest::prelude::Just(8),
                proptest::prelude::Just(12),
                proptest::prelude::Just(88)
            ],
            which in 0usize..7,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = [0, 1, 2, nb - 1, nb, nb + 1, 3 * nb + 1][which];
            let mut s = seed | 1;
            let t = TriangularMatrix::from_fn(n, |_, _| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Any finite non-negative float, subnormals and zeros included.
                f32::from_bits((s >> 32) as u32 & 0x7f7f_ffff)
            });
            let runs = BlockedMatrix::from_triangular(&t, nb);
            let cells = import_per_cell(n, nb, f32::INFINITY, |i, j| t.get(i, j));
            let bits = |m: &BlockedMatrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&runs), bits(&cells), "import n={n} nb={nb}");
            let back = runs.to_triangular();
            assert_eq!(back.n(), n);
            for (i, j, v) in back.iter() {
                assert_eq!(v.to_bits(), runs.get(i, j).to_bits(), "export ({i},{j}) n={n} nb={nb}");
            }

            let none = (usize::MAX, usize::MAX);
            let mut runs = BlockedMatrix::new_filled(n, nb, none);
            runs.for_each_run_mut(|i, j0, run| {
                for (j, cell) in (j0..).zip(run) {
                    *cell = (i, j);
                }
            });
            let cells = import_per_cell(n, nb, none, |i, j| (i, j));
            assert_eq!(runs.as_slice(), cells.as_slice(), "labels n={n} nb={nb}");
            let back = runs.to_triangular();
            for (i, j, v) in back.iter() {
                assert_eq!(v, (i, j), "label export n={n} nb={nb}");
            }
        }
    }

    #[test]
    fn roundtrip_exact_multiple() {
        let t = sample_tri(16);
        let b = BlockedMatrix::from_triangular(&t, 8);
        assert_eq!(b.blocks_per_side(), 2);
        assert_eq!(b.to_triangular(), t);
    }

    #[test]
    fn roundtrip_with_padding() {
        for n in [1, 3, 5, 9, 13, 17] {
            let t = sample_tri(n);
            let b = BlockedMatrix::from_triangular(&t, 8);
            assert_eq!(b.to_triangular(), t, "n={n}");
            assert!(b.padding_is_inert(), "n={n}");
        }
    }

    #[test]
    fn blocks_are_contiguous_and_disjoint() {
        let b = BlockedMatrix::<f32>::new_infinity(32, 8);
        let nb2 = 64;
        let mut offsets: Vec<_> = (0..4)
            .flat_map(|bi| (bi..4).map(move |bj| (bi, bj)))
            .map(|(bi, bj)| b.block_offset(bi, bj))
            .collect();
        offsets.sort_unstable();
        for w in offsets.windows(2) {
            assert_eq!(w[1] - w[0], nb2, "blocks must tile storage exactly");
        }
        assert_eq!(b.as_slice().len(), 10 * nb2);
    }

    #[test]
    fn get_set_through_blocks() {
        let mut b = BlockedMatrix::<i32>::new_infinity(20, 8);
        b.set(3, 17, 42);
        assert_eq!(b.get(3, 17), 42);
        // The cell lives in block (0, 2) at local (3, 1).
        assert_eq!(b.block(0, 2)[3 * 8 + 1], 42);
    }

    #[test]
    fn diagonal_blocks_padded_below_diagonal() {
        let b = BlockedMatrix::<f32>::new_infinity(8, 8);
        let blk = b.block(0, 0);
        for i in 0..8 {
            for j in 0..=i {
                assert_eq!(blk[i * 8 + j], f32::INFINITY, "({i},{j}) must be padding");
            }
        }
    }

    #[test]
    fn block_bytes_matches_paper_sizing() {
        // 32 KB single-precision memory block (paper §VI-A) = 90×90 ≈ padded
        // to a multiple of 4: 88×88×4 B = 30976 B ≤ 32 KB.
        let b = BlockedMatrix::<f32>::new_infinity(1000, 88);
        assert!(b.block_bytes() <= 32 * 1024);
        assert!(b.block_bytes() > 28 * 1024);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn rejects_unaligned_block_side() {
        let _ = BlockedMatrix::<f32>::new_infinity(16, 6);
    }

    #[test]
    fn logical_cells_sum_to_triangle_size() {
        for n in [1, 2, 3, 5, 8, 9, 13, 16, 17, 40] {
            for nb in [4, 8, 16] {
                let b = BlockedMatrix::<f32>::new_infinity(n, nb);
                let total: usize = (0..b.blocks_per_side())
                    .flat_map(|bi| (bi..b.blocks_per_side()).map(move |bj| (bi, bj)))
                    .map(|(bi, bj)| b.logical_cells_in_block(bi, bj))
                    .sum();
                assert_eq!(total, n * n.saturating_sub(1) / 2, "n={n} nb={nb}");
            }
        }
    }
}
