//! Max-plus closures — longest chains, most-profitable decompositions —
//! over plain scalar values through
//! [`MaxPlusRing`](crate::semiring::MaxPlusRing) and `ClosureRec`:
//! behaviour tests on every engine tier.

mod tests {
    use npdp_exec::ExecContext;

    use crate::engine::{Engine, ParallelEngine, SerialEngine, SimdEngine};
    use crate::layout::TriangularMatrix;
    use crate::recurrence::{solve_blocked, solve_serial, ClosureRec, SolveRecurrence};
    use crate::semiring::{MaxPlusRing, Semiring};

    fn random_seeds(n: usize, seed: u64) -> TriangularMatrix<f32> {
        let mut s = seed;
        TriangularMatrix::from_fn(n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32) / (u32::MAX as f32) * 100.0
        })
    }

    /// The (max, +) closure by the Fig. 1 loop: the reference for
    /// `MaxPlusRing` through the engine tiers.
    fn reference_max_plus(seeds: &TriangularMatrix<f32>) -> TriangularMatrix<f32> {
        let mut d = seeds.clone();
        for j in 0..d.n() {
            for i in (0..j).rev() {
                let mut best = d.get(i, j);
                for k in i + 1..j {
                    best = best.max(d.get(i, k) + d.get(k, j));
                }
                d.set(i, j, best);
            }
        }
        d
    }

    /// Seeds in `[-5, 5)`: max-plus chains carry losses as well as gains.
    fn signed_seeds(n: usize, seed: u64) -> TriangularMatrix<f32> {
        let base = random_seeds(n, seed);
        TriangularMatrix::from_fn(n, |i, j| base.get(i, j) / 10.0 - 5.0)
    }

    #[test]
    fn serial_engine_computes_max_plus_closure() {
        for n in [3usize, 10, 25] {
            let seeds = signed_seeds(n, n as u64);
            let rec = ClosureRec::new(MaxPlusRing::<f32>::new(), &seeds);
            let (got, _) = SerialEngine
                .solve_recurrence(&rec, &ExecContext::disabled())
                .unwrap();
            let expect = reference_max_plus(&seeds);
            assert_eq!(got.first_difference(&expect), None, "n={n}");
        }
    }

    #[test]
    fn simd_and_parallel_engines_agree_on_max_plus() {
        let seeds = signed_seeds(60, 5);
        let rec = ClosureRec::new(MaxPlusRing::<f32>::new(), &seeds);
        let ctx = ExecContext::disabled();
        let (a, _) = SerialEngine.solve_recurrence(&rec, &ctx).unwrap();
        let (b, _) = SimdEngine::new(8).solve_recurrence(&rec, &ctx).unwrap();
        let (c, _) = ParallelEngine::new(8, 2, 4)
            .solve_recurrence(&rec, &ctx)
            .unwrap();
        assert_eq!(a.first_difference(&b), None);
        assert_eq!(a.first_difference(&c), None);
    }

    #[test]
    fn longest_chain_on_unit_seeds() {
        // Adjacent seeds of 1, everything else -∞: the longest
        // decomposition of (i, j) sums j - i units.
        let n = 12;
        let ring = MaxPlusRing::<f32>::new();
        let seeds = TriangularMatrix::from_fn(n, |i, j| if j == i + 1 { 1.0 } else { ring.zero() });
        let out = solve_blocked(&ClosureRec::new(ring, &seeds), 4, &ExecContext::disabled());
        assert_eq!(out.get(0, n - 1), (n - 1) as f32);
    }

    #[test]
    fn max_and_min_diverge_on_mixed_seeds() {
        let seeds = signed_seeds(16, 9);
        let min_closure = SerialEngine.solve(&seeds);
        let max_closure = solve_serial(&ClosureRec::new(MaxPlusRing::<f32>::new(), &seeds));
        let mut any_diff = false;
        for (i, j, v) in min_closure.iter() {
            assert!(max_closure.get(i, j) >= v, "max ≥ min at ({i},{j})");
            any_diff |= max_closure.get(i, j) > v;
        }
        assert!(any_diff);
    }

    #[test]
    fn integer_max_plus() {
        let seeds = TriangularMatrix::from_fn(20, |i, j| ((i * 7 + j * 3) % 11) as i64);
        let rec = ClosureRec::new(MaxPlusRing::<i64>::new(), &seeds);
        let (b, _) = SimdEngine::new(4)
            .solve_recurrence(&rec, &ExecContext::disabled())
            .unwrap();
        assert_eq!(solve_serial(&rec).first_difference(&b), None);
    }
}
