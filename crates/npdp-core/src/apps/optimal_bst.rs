//! Optimal binary search trees (Knuth) — the second NPDP application the
//! paper names.
//!
//! Keys `1..=n` with access frequencies `f`; the expected search cost of the
//! subtree over keys `i+1..=j` (gap indices) is
//! `e[i][j] = min over roots i < r ≤ j of e[i][r-1] + e[r][j] + w(i, j)`,
//! where `w(i, j) = Σ f[i+1..=j]` is the subtree weight added once per level.

use npdp_exec::ExecContext;

use crate::apps::generic::solve_rooted;
use crate::error::SolveError;
use crate::layout::TriangularMatrix;
use crate::recurrence::{Recurrence, SolveRecurrence};
use crate::semiring::MinPlus;
use crate::value::DpValue;

/// Result of an optimal-BST construction.
#[derive(Debug, Clone)]
pub struct OptimalBst {
    /// Access frequencies of keys `1..=n` (index 0 = key 1).
    pub freq: Vec<i64>,
    /// Cost table over gap indices (side `n + 1`).
    pub table: TriangularMatrix<i64>,
    /// Prefix sums of `freq` for O(1) interval weights.
    prefix: Vec<i64>,
}

impl OptimalBst {
    /// Total weighted search cost of the optimal tree.
    pub fn optimal_cost(&self) -> i64 {
        let n = self.freq.len();
        if n == 0 {
            return 0;
        }
        self.table.get(0, n)
    }

    /// Interval weight `w(i, j) = Σ f[i+1..=j]` in gap indices.
    pub fn weight(&self, i: usize, j: usize) -> i64 {
        self.prefix[j] - self.prefix[i]
    }

    /// Recover an optimal root assignment: `roots[(i, j)]` = chosen root key
    /// for the subtree over keys `i+1..=j`. Returns the root of the whole
    /// tree, or `None` for an empty key set.
    pub fn root(&self) -> Option<usize> {
        let n = self.freq.len();
        (n > 0).then(|| self.find_root(0, n))
    }

    fn cost(&self, a: usize, b: usize) -> i64 {
        if a == b {
            0
        } else {
            self.table.get(a, b)
        }
    }

    fn find_root(&self, i: usize, j: usize) -> usize {
        for r in i + 1..=j {
            if self.cost(i, r - 1) + self.cost(r, j) + self.weight(i, j) == self.table.get(i, j) {
                return r;
            }
        }
        unreachable!("table cell not explained by any root");
    }
}

/// The optimal-BST recurrence for the engine stack: the rooted recurrence
/// in *gap-shifted* coordinates with the interval weight moved into
/// [`Recurrence::finalize`], which removes the split-dependence — `extend`
/// is the plain min-plus `⊗` — so the blocked, SIMD and parallel tiers all
/// apply.
///
/// Cell `(i, j)` of the side-`(n + 2)` engine table is `e(i, j - 1)` of the
/// classic side-`(n + 1)` gap table: the engine split `k` *is* the root
/// choice `r`, with `D(i, k) = e(i, r - 1)` the left subtree and
/// `D(k, j) = e(r, j - 1)` the right, and the weight `w(i, j - 1)` added
/// exactly once per cell after the root reduction (it does not depend on
/// `r`, which is what makes this shape engine-compatible where the raw
/// [`solve_rooted`] spelling is not).
pub struct BstRec {
    prefix: Vec<i64>,
}

impl BstRec {
    /// Recurrence over keys `1..=n` with the given access frequencies.
    pub fn new(freq: &[i64]) -> Self {
        let mut prefix = Vec::with_capacity(freq.len() + 1);
        prefix.push(0);
        for &f in freq {
            assert!(f >= 0, "frequencies must be non-negative");
            prefix.push(prefix.last().unwrap() + f);
        }
        Self { prefix }
    }
}

const BST_RING: MinPlus<i64> = MinPlus::new();

impl Recurrence for BstRec {
    type Ring = MinPlus<i64>;

    fn ring(&self) -> &MinPlus<i64> {
        &BST_RING
    }

    fn side(&self) -> usize {
        // n keys → gap table side n + 1 → gap-shifted engine table n + 2.
        self.prefix.len() + 1
    }

    fn seed(&self, i: usize, j: usize) -> i64 {
        if j == i + 1 {
            0 // empty key interval
        } else {
            <i64 as DpValue>::INFINITY
        }
    }

    fn finalize(&self, i: usize, j: usize, acc: i64) -> i64 {
        if j == i + 1 {
            acc
        } else {
            // w(i, j - 1) in gap coordinates, once per level.
            i64::add_sat(acc, self.prefix[j - 1] - self.prefix[i])
        }
    }
}

/// Build the optimal BST *on an engine*: same table, same costs as
/// [`optimal_bst`], computed through the generic [`Recurrence`] path on any
/// [`SolveRecurrence`] engine (blocked layout, SIMD tiles, task queue).
pub fn optimal_bst_on<E: SolveRecurrence + ?Sized>(
    engine: &E,
    freq: &[i64],
    ctx: &ExecContext,
) -> Result<OptimalBst, SolveError> {
    let rec = BstRec::new(freq);
    let (d, _) = engine.solve_recurrence(&rec, ctx)?;
    let n = freq.len();
    // Shift back out of gap coordinates: e(i, j) = D(i, j + 1), so row i of
    // the table is row i of D without its first cell, D(i, i + 1).
    let mut flat = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..=n {
        flat.extend_from_slice(&d.row(i)[1..]);
    }
    let table = TriangularMatrix::from_flat(n + 1, flat);
    Ok(OptimalBst {
        freq: freq.to_vec(),
        table,
        prefix: rec.prefix,
    })
}

/// Build the optimal BST over keys with the given access frequencies.
pub fn optimal_bst(freq: &[i64]) -> OptimalBst {
    let n = freq.len();
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0);
    for &f in freq {
        assert!(f >= 0, "frequencies must be non-negative");
        prefix.push(prefix.last().unwrap() + f);
    }
    let prefix_for_solver = prefix.clone();
    let table = solve_rooted(n, 0i64, move |l, r, i, _, j| {
        l + r + (prefix_for_solver[j] - prefix_for_solver[i])
    });
    OptimalBst {
        freq: freq.to_vec(),
        table,
        prefix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force over all roots, recursively.
    fn brute(freq: &[i64], i: usize, j: usize) -> i64 {
        if i == j {
            return 0;
        }
        let w: i64 = freq[i..j].iter().sum();
        (i + 1..=j)
            .map(|r| brute(freq, i, r - 1) + brute(freq, r, j) + w)
            .min()
            .unwrap()
    }

    #[test]
    fn single_key() {
        let bst = optimal_bst(&[7]);
        assert_eq!(bst.optimal_cost(), 7);
        assert_eq!(bst.root(), Some(1));
    }

    #[test]
    fn classic_three_key_example() {
        // Frequencies 34, 8, 50: optimal root is key 3 (or 1) — cost
        // computed by brute force.
        let freq = [34, 8, 50];
        let bst = optimal_bst(&freq);
        assert_eq!(bst.optimal_cost(), brute(&freq, 0, 3));
        assert_eq!(bst.optimal_cost(), 142);
    }

    #[test]
    fn matches_brute_force_random() {
        let mut s = 99u64;
        for trial in 0..15 {
            let n = 1 + (trial % 7);
            let freq: Vec<i64> = (0..n)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 58) + 1) as i64
                })
                .collect();
            let bst = optimal_bst(&freq);
            assert_eq!(bst.optimal_cost(), brute(&freq, 0, n), "freq={freq:?}");
        }
    }

    #[test]
    fn uniform_frequencies_give_balanced_cost() {
        // 7 equal keys: a perfectly balanced tree has cost
        // 1*1 + 2*2 + 4*3 = 17 (with unit frequencies).
        let bst = optimal_bst(&[1; 7]);
        assert_eq!(bst.optimal_cost(), 17);
    }

    #[test]
    fn empty_key_set() {
        let bst = optimal_bst(&[]);
        assert_eq!(bst.optimal_cost(), 0);
        assert_eq!(bst.root(), None);
    }

    #[test]
    fn skewed_frequencies_pull_root() {
        // One huge frequency dominates; it must become the root.
        let bst = optimal_bst(&[1, 1000, 1]);
        assert_eq!(bst.root(), Some(2));
    }

    mod on_engine {
        use super::*;
        use crate::engine::{BlockedEngine, ParallelEngine, SerialEngine, SimdEngine};

        fn random_freqs(n: usize, seed: u64) -> Vec<i64> {
            let mut s = seed;
            (0..n)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 56) % 100) as i64
                })
                .collect()
        }

        /// Cross-check: the engine-path table equals the `solve_rooted`
        /// path exactly, cell for cell, on every engine tier — random
        /// frequencies, sizes straddling block boundaries.
        #[test]
        fn engine_table_equals_rooted_solver_exactly() {
            let ctx = ExecContext::disabled();
            for n in [0usize, 1, 2, 5, 13, 30, 47, 64] {
                let freq = random_freqs(n, 0xB57 + n as u64);
                let reference = optimal_bst(&freq);
                let results = [
                    ("serial", optimal_bst_on(&SerialEngine, &freq, &ctx)),
                    (
                        "blocked",
                        optimal_bst_on(&BlockedEngine::new(8), &freq, &ctx),
                    ),
                    ("simd", optimal_bst_on(&SimdEngine::new(8), &freq, &ctx)),
                    (
                        "parallel",
                        optimal_bst_on(&ParallelEngine::new(8, 2, 4), &freq, &ctx),
                    ),
                ];
                for (name, on) in results {
                    let on = on.unwrap();
                    assert_eq!(
                        on.table.first_difference(&reference.table),
                        None,
                        "{name} table diverged at n={n}"
                    );
                    assert_eq!(on.optimal_cost(), reference.optimal_cost(), "{name} n={n}");
                    assert_eq!(on.root(), reference.root(), "{name} n={n}");
                }
            }
        }

        /// The on-engine path must agree with recursive brute force too, so
        /// a shared bug in both DP spellings cannot hide.
        #[test]
        fn on_engine_matches_brute_force() {
            let ctx = ExecContext::disabled();
            for trial in 0..10u64 {
                let n = 1 + (trial as usize % 6);
                let freq = random_freqs(n, 77 + trial);
                let on = optimal_bst_on(&SimdEngine::new(8), &freq, &ctx).unwrap();
                assert_eq!(on.optimal_cost(), brute(&freq, 0, n), "freq={freq:?}");
            }
        }
    }
}
