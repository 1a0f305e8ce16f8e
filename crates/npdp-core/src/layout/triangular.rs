//! The baseline data layout: a row-major strict upper-triangular matrix.
//!
//! This is what "almost all previous works" use (paper §III, Fig. 2): row `i`
//! stores cells `(i, i+1) .. (i, n-1)` back to back, so row sizes are
//! non-uniform and the inner-loop access `d[k][j]` walks memory with
//! *non-uniform address intervals* — the poor spatial locality the paper's
//! new data layout removes.
//!
//! Only the strict upper triangle (`i < j`) is represented: in the exclusive
//! formulation of the recurrence, `d[i][j] = min over i < k < j of
//! d[i][k] + d[k][j]`, diagonal cells are never read nor written (the paper's
//! Fig. 1 includes `k = i`, which under the customary `d[i][i] = 0` seeding
//! is the identity update; we make that exclusion structural).

use crate::value::DpValue;

/// Row-major strict upper-triangular matrix of side `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct TriangularMatrix<T> {
    n: usize,
    /// `row_offsets[i]` = flat index of cell `(i, i+1)`.
    row_offsets: Vec<usize>,
    data: Vec<T>,
}

impl<T: DpValue> TriangularMatrix<T> {
    /// A triangle of side `n` with every cell set to `T::INFINITY`.
    pub fn new_infinity(n: usize) -> Self {
        Self::filled(n, T::INFINITY)
    }

    /// Build from a seeding function over cells `(i, j)`, `i < j`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::new_infinity(n);
        for i in 0..n {
            for j in i + 1..n {
                *m.get_mut(i, j) = f(i, j);
            }
        }
        m
    }

    /// `min`-update cell `(i, j)` with a candidate value.
    #[inline(always)]
    pub fn relax(&mut self, i: usize, j: usize, cand: T) {
        let idx = self.idx(i, j);
        self.data[idx] = T::min2(self.data[idx], cand);
    }
}

// Storage and access need only `Copy` — the `Recurrence` path stores ring
// elements (CYK nonterminal vectors, Zuker track bundles) that are not
// `DpValue`s.
impl<T: Copy> TriangularMatrix<T> {
    /// A triangle of side `n` with every cell set to `fill`.
    pub fn filled(n: usize, fill: T) -> Self {
        let len = n * n.saturating_sub(1) / 2;
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut off = 0;
        for i in 0..=n {
            row_offsets.push(off);
            if i < n {
                off += n - 1 - i;
            }
        }
        Self {
            n,
            row_offsets,
            data: vec![fill; len],
        }
    }

    /// Build from flat row-major storage — the inverse of
    /// [`TriangularMatrix::as_slice`] (row `i` holds columns `i+1..n`, back
    /// to back). Wire-facing layers (the `npdp-serve` protocol) decode seed
    /// and result payloads straight into this without a per-cell walk.
    ///
    /// # Panics
    /// If `data.len()` is not exactly `n(n-1)/2`.
    pub fn from_flat(n: usize, data: Vec<T>) -> Self {
        let expected = n * n.saturating_sub(1) / 2;
        assert_eq!(
            data.len(),
            expected,
            "flat triangle of side {n} needs n(n-1)/2 = {expected} cells"
        );
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut off = 0;
        for i in 0..=n {
            row_offsets.push(off);
            if i < n {
                off += n - 1 - i;
            }
        }
        Self {
            n,
            row_offsets,
            data,
        }
    }

    /// Side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored cells, `n(n-1)/2`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the triangle stores no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline(always)]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n, "({i},{j}) outside strict triangle");
        self.row_offsets[i] + (j - i - 1)
    }

    /// Read cell `(i, j)`. Requires `i < j < n`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[self.idx(i, j)]
    }

    /// Mutable access to cell `(i, j)`. Requires `i < j < n`.
    #[inline(always)]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut T {
        let idx = self.idx(i, j);
        &mut self.data[idx]
    }

    /// Set cell `(i, j)`. Requires `i < j < n`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let idx = self.idx(i, j);
        self.data[idx] = v;
    }

    /// Iterate `(i, j, value)` over all stored cells in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.n).flat_map(move |i| (i + 1..self.n).map(move |j| (i, j, self.get(i, j))))
    }

    /// Flat row-major storage (row `i` holds columns `i+1..n`).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Row `i`'s cells, columns `i+1..n` in order. Requires `i < n`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[self.row_offsets[i]..self.row_offsets[i + 1]]
    }
}

impl<T: Copy + PartialEq> TriangularMatrix<T> {
    /// Exact cell-wise equality against another triangle of the same side.
    ///
    /// Returns the first differing cell, if any. (Engines are required to be
    /// bit-identical, see [`DpValue`].)
    pub fn first_difference(&self, other: &Self) -> Option<(usize, usize, T, T)> {
        assert_eq!(self.n, other.n, "comparing triangles of different sides");
        self.iter()
            .zip(other.iter())
            .find(|((_, _, a), (_, _, b))| !(a == b))
            .map(|((i, j, a), (_, _, b))| (i, j, a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(TriangularMatrix::<f32>::new_infinity(0).len(), 0);
        assert_eq!(TriangularMatrix::<f32>::new_infinity(1).len(), 0);
        assert_eq!(TriangularMatrix::<f32>::new_infinity(2).len(), 1);
        assert_eq!(TriangularMatrix::<f32>::new_infinity(5).len(), 10);
    }

    #[test]
    fn get_set_roundtrip_all_cells() {
        let n = 9;
        let mut m = TriangularMatrix::<i64>::new_infinity(n);
        for i in 0..n {
            for j in i + 1..n {
                m.set(i, j, (i * 100 + j) as i64);
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(m.get(i, j), (i * 100 + j) as i64);
            }
        }
    }

    #[test]
    fn rows_are_the_flat_runs() {
        let m = TriangularMatrix::<i64>::from_fn(6, |i, j| (i * 10 + j) as i64);
        assert_eq!(m.row(0), &[1, 2, 3, 4, 5]);
        assert_eq!(m.row(4), &[45]);
        assert!(m.row(5).is_empty());
        let flat: Vec<i64> = (0..6).flat_map(|i| m.row(i).to_vec()).collect();
        assert_eq!(flat, m.as_slice());
    }

    #[test]
    fn from_fn_and_iter_agree() {
        let m = TriangularMatrix::<f64>::from_fn(6, |i, j| (i * 10 + j) as f64);
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(collected.len(), 15);
        for (i, j, v) in collected {
            assert_eq!(v, (i * 10 + j) as f64);
        }
    }

    #[test]
    fn from_flat_round_trips_as_slice() {
        let m = TriangularMatrix::<f32>::from_fn(7, |i, j| (i * 10 + j) as f32);
        let rebuilt = TriangularMatrix::from_flat(7, m.as_slice().to_vec());
        assert_eq!(rebuilt.first_difference(&m), None);
        // Degenerate sides carry zero cells.
        assert_eq!(TriangularMatrix::<i32>::from_flat(0, Vec::new()).len(), 0);
        assert_eq!(TriangularMatrix::<i32>::from_flat(1, Vec::new()).len(), 0);
    }

    #[test]
    #[should_panic]
    fn from_flat_rejects_wrong_length() {
        let _ = TriangularMatrix::<f32>::from_flat(5, vec![0.0; 9]);
    }

    #[test]
    fn relax_keeps_minimum() {
        let mut m = TriangularMatrix::<f32>::new_infinity(3);
        m.relax(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        m.relax(0, 1, 7.0);
        assert_eq!(m.get(0, 1), 5.0);
        m.relax(0, 1, 2.0);
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn first_difference_finds_cell() {
        let a = TriangularMatrix::<i32>::from_fn(4, |i, j| (i + j) as i32);
        let mut b = a.clone();
        assert_eq!(a.first_difference(&b), None);
        b.set(1, 3, 99);
        assert_eq!(a.first_difference(&b), Some((1, 3, 4, 99)));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn diagonal_access_panics_in_debug() {
        let m = TriangularMatrix::<f32>::new_infinity(4);
        let _ = m.get(2, 2);
    }
}
