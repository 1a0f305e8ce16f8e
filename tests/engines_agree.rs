//! Cross-crate invariant #1 (DESIGN.md §5): every engine — serial, tiled,
//! NDL, SIMD, parallel, wavefront, TanNPDP, and the functional Cell
//! simulator — produces bit-identical DP tables.

use npdp::cell::npdp::functional_cellnpdp;
use npdp::core::{problem, SeedIssue};
use npdp::prelude::*;
use proptest::prelude::*;

fn all_f32_engines(workers: usize) -> Vec<(&'static str, Box<dyn Engine<f32>>)> {
    vec![
        ("serial", Box::new(SerialEngine)),
        ("tiled-8", Box::new(TiledEngine::new(8))),
        ("tiled-32", Box::new(TiledEngine::new(32))),
        ("blocked-8", Box::new(BlockedEngine::new(8))),
        ("blocked-16", Box::new(BlockedEngine::new(16))),
        ("simd-8", Box::new(SimdEngine::new(8))),
        ("simd-16", Box::new(SimdEngine::new(16))),
        ("parallel-8-1", Box::new(ParallelEngine::new(8, 1, workers))),
        (
            "parallel-16-2",
            Box::new(ParallelEngine::new(16, 2, workers)),
        ),
        ("wavefront-8", Box::new(WavefrontEngine::new(8))),
        ("tan-16", Box::new(TanEngine::new(16))),
        (
            "pipelined-8-1",
            Box::new(ParallelEngine::new(8, 1, workers).with_scheduler(Scheduler::pipelined())),
        ),
        (
            "pipelined-16-2-L1",
            Box::new(
                ParallelEngine::new(16, 2, workers)
                    .with_scheduler(Scheduler::Pipelined { lookahead: 1 }),
            ),
        ),
    ]
}

/// First cell whose bits differ. `first_difference` compares with `==`,
/// which cannot tell `-0.0` from `+0.0`; bit-identity means the bits.
fn first_bit_difference(
    a: &TriangularMatrix<f32>,
    b: &TriangularMatrix<f32>,
) -> Option<(usize, usize, f32, f32)> {
    a.iter()
        .zip(b.iter())
        .find(|((_, _, x), (_, _, y))| x.to_bits() != y.to_bits())
        .map(|((i, j, x), (_, _, y))| (i, j, x, y))
}

#[test]
fn engines_bit_identical_on_dense_random_f32() {
    for n in [1usize, 13, 47, 96, 150] {
        let seeds = problem::random_seeds_f32(n, 100.0, n as u64);
        let reference = SerialEngine.solve(&seeds);
        for (name, engine) in all_f32_engines(4) {
            let got = engine.solve(&seeds);
            assert_eq!(
                first_bit_difference(&reference, &got),
                None,
                "engine {name} diverged at n={n}"
            );
        }
    }
}

/// Regression: `-0.0` compares equal to `+0.0` and is not `< 0.0`, so it
/// used to pass seed validation, and then candidate order decided whether a
/// cell ended as `+0` or `-0` — engines disagreed in the bits of a few
/// dozen cells at n = 40. Sign-negative seeds are now rejected as negative
/// lengths by every engine, and the same table with `+0.0` in their place
/// solves bit-identically everywhere.
#[test]
fn signed_zero_seeds_are_rejected_and_plus_zero_agrees() {
    let n = 40;
    for seed in 0..4u64 {
        let random = problem::random_seeds_f32(n, 4.0, seed);
        // About a third of the cells are zeros, half of those negative.
        let zero = |v: f32, negative: bool| match (v < 1.4, negative) {
            (true, true) => -0.0,
            (true, false) => 0.0,
            (false, _) => v,
        };
        let mixed = TriangularMatrix::from_fn(n, |i, j| zero(random.get(i, j), (i + j) % 2 == 0));
        let plus = TriangularMatrix::from_fn(n, |i, j| zero(random.get(i, j), false));
        assert!(mixed
            .as_slice()
            .iter()
            .any(|v| v.to_bits() == (-0.0f32).to_bits()));

        let reference = SerialEngine.solve(&plus);
        for (name, engine) in all_f32_engines(2) {
            match engine
                .solve_with(&mixed, &ExecContext::disabled())
                .map(|(table, _)| table)
            {
                Err(SolveError::InvalidSeed { i, j, issue }) => {
                    assert_eq!(issue, SeedIssue::Negative, "engine {name}");
                    assert_eq!(
                        mixed.get(i, j).to_bits(),
                        (-0.0f32).to_bits(),
                        "engine {name}"
                    );
                }
                other => panic!("engine {name} accepted a -0.0 seed: {other:?}"),
            }
            assert_eq!(
                first_bit_difference(&reference, &engine.solve(&plus)),
                None,
                "engine {name} diverged on +0 seeds, seed {seed}"
            );
        }
    }
}

#[test]
fn engines_bit_identical_on_chain_seeds() {
    let seeds = problem::chain_seeds_f32(120, 9);
    let reference = SerialEngine.solve(&seeds);
    for (name, engine) in all_f32_engines(3) {
        assert_eq!(
            first_bit_difference(&reference, &engine.solve(&seeds)),
            None,
            "engine {name} diverged on chain seeds"
        );
    }
    // Chain optimum is analytic: d[i][j] = Σ w over the chain. Checked in
    // integers — float chains are min-of-reassociated-sums, where different
    // split trees legitimately round differently.
    let n = 100usize;
    let int_seeds = TriangularMatrix::from_fn(n, |i, j| {
        if j == i + 1 {
            ((i * 37) % 101 + 1) as i64
        } else {
            <i64 as DpValue>::INFINITY
        }
    });
    let closed = ParallelEngine::new(8, 2, 4).solve(&int_seeds);
    for i in 0..n - 1 {
        let mut acc = 0i64;
        for j in i + 1..n {
            acc += int_seeds.get(j - 1, j);
            assert_eq!(closed.get(i, j), acc, "chain cell ({i},{j})");
        }
    }
}

#[test]
fn simulated_cell_bit_identical_to_host() {
    for (n, nb) in [(24usize, 8usize), (40, 8), (52, 12)] {
        let seeds = problem::random_seeds_f32(n, 50.0, (n + nb) as u64);
        let host = SerialEngine.solve(&seeds);
        let (sim, _) = functional_cellnpdp(&seeds, nb, &ExecContext::disabled()).unwrap();
        assert_eq!(
            first_bit_difference(&host, &sim),
            None,
            "simulated SPU diverged at n={n} nb={nb}"
        );
    }
}

#[test]
fn integer_engines_exact() {
    let seeds = problem::random_seeds_i64(90, 1000, 17);
    let reference = SerialEngine.solve(&seeds);
    let engines: Vec<(&str, Box<dyn Engine<i64>>)> = vec![
        ("blocked", Box::new(BlockedEngine::new(8))),
        ("simd", Box::new(SimdEngine::new(8))),
        ("parallel", Box::new(ParallelEngine::new(8, 2, 4))),
        ("tan", Box::new(TanEngine::new(32))),
    ];
    for (name, engine) in engines {
        assert_eq!(
            reference.first_difference(&engine.solve(&seeds)),
            None,
            "integer engine {name}"
        );
    }
}

/// The `i32` engines under test: the NDL tiers run `MinPlus<i32>`'s
/// rank-update kernel, at block sides that put remainders on either side
/// of its 16- and 64-column register tiles.
fn i32_engines() -> Vec<(&'static str, Box<dyn Engine<i32>>)> {
    vec![
        ("simd-8", Box::new(SimdEngine::new(8))),
        ("simd-32", Box::new(SimdEngine::new(32))),
        ("simd-88", Box::new(SimdEngine::new(88))),
        ("parallel-8-1", Box::new(ParallelEngine::new(8, 1, 2))),
        ("parallel-16-2", Box::new(ParallelEngine::new(16, 2, 4))),
    ]
}

/// `MinPlus<i32>` on the SIMD and parallel tiers equals the serial
/// flowchart bit for bit, on seeded closures: dense seeds, seeds with `INF`
/// holes (sums of two `INF`s reach the kernel's guard range), and ragged
/// sizes around the block sides.
#[test]
fn i32_closures_bit_identical() {
    for (n, seed) in [(1usize, 1u64), (13, 2), (63, 3), (64, 4), (65, 5), (130, 6)] {
        let raw = problem::random_seeds_i64(n, 2000, seed);
        let seeds = TriangularMatrix::from_fn(n, |i, j| match raw.get(i, j) {
            v if v >= 1800 => i32::INFINITY,
            v => v as i32,
        });
        let reference = SerialEngine.solve(&seeds);
        for (name, engine) in i32_engines() {
            let got = engine.solve(&seeds);
            assert_eq!(
                reference.first_difference(&got),
                None,
                "i32 engine {name} diverged at n={n}"
            );
        }
    }
}

/// The Zuker `W` closure of `fold_with_engine` (a `MinPlus<i32>` closure
/// over the stems table) on the SIMD and parallel tiers equals the serial
/// engine's, table and energy, bit for bit.
#[test]
fn zuker_w_closure_i32_bit_identical() {
    let model = npdp::rna::EnergyModel::default();
    for (n, seed) in [(17usize, 1u64), (63, 2), (64, 3), (97, 4), (150, 5)] {
        let seq = npdp::rna::random_sequence(n, seed);
        let serial = npdp::rna::fold_with_engine(&seq, &model, &SerialEngine);
        for (name, engine) in i32_engines() {
            let got = npdp::rna::fold_with_engine(&seq, &model, engine.as_ref());
            assert_eq!(
                serial.w.first_difference(&got.w),
                None,
                "W closure on {name} diverged at n={n}"
            );
            assert_eq!(serial.energy, got.energy, "energy on {name} at n={n}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for arbitrary sizes, block sides, worker counts and sparse
    /// seeds, CellNPDP equals the original algorithm exactly.
    #[test]
    fn prop_parallel_equals_serial(
        n in 1usize..120,
        nb_pow in 0u32..3,
        sb in 1usize..4,
        workers in 1usize..9,
        density in 0.05f64..1.0,
        seed in any::<u64>(),
    ) {
        let nb = 8usize << nb_pow;
        let seeds = problem::sparse_seeds_f32(n, density, seed);
        let reference = SerialEngine.solve(&seeds);
        let got = ParallelEngine::new(nb, sb, workers).solve(&seeds);
        prop_assert_eq!(reference.first_difference(&got), None);
    }

    /// Property: the SIMD engine equals the scalar blocked engine on f64
    /// (exercises the F64x2 kernel path).
    #[test]
    fn prop_simd_f64_equals_blocked(
        n in 1usize..100,
        seed in any::<u64>(),
    ) {
        let seeds = problem::random_seeds_f64(n, 10.0, seed);
        let a = BlockedEngine::new(8).solve(&seeds);
        let b = SimdEngine::new(8).solve(&seeds);
        prop_assert_eq!(a.first_difference(&b), None);
    }

    /// Property: closure is idempotent (a fixed point) for every engine.
    #[test]
    fn prop_closure_idempotent(
        n in 2usize..80,
        seed in any::<u64>(),
    ) {
        let seeds = problem::random_seeds_f32(n, 100.0, seed);
        let engine = SimdEngine::new(8);
        let once = engine.solve(&seeds);
        let twice = engine.solve(&once);
        prop_assert_eq!(once.first_difference(&twice), None);
    }

    /// Property: the closure never increases a seed, and padding stays
    /// inert through the blocked pipeline.
    #[test]
    fn prop_closure_monotone(
        n in 2usize..90,
        seed in any::<u64>(),
    ) {
        let seeds = problem::random_seeds_f32(n, 100.0, seed);
        let out = ParallelEngine::new(8, 2, 4).solve(&seeds);
        for (i, j, v) in out.iter() {
            prop_assert!(v <= seeds.get(i, j), "cell ({},{}) increased", i, j);
        }
    }
}

mod edge_shapes {
    use super::all_f32_engines;
    use npdp::core::problem;
    use npdp::prelude::*;

    /// Regression: the degenerate shapes — empty triangle (n = 1), a single
    /// cell (n = 2), and sizes straddling every block boundary — must agree
    /// bit-for-bit across every engine.
    #[test]
    fn engines_bit_identical_on_boundary_sizes() {
        for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33] {
            let seeds = problem::random_seeds_f32(n, 100.0, 1000 + n as u64);
            let reference = SerialEngine.solve(&seeds);
            for (name, engine) in all_f32_engines(4) {
                assert_eq!(
                    reference.first_difference(&engine.solve(&seeds)),
                    None,
                    "engine {name} diverged at boundary n={n}"
                );
            }
        }
    }

    /// Regression: diagonal padding of a ragged BlockedMatrix must stay +∞
    /// through a full blocked solve, for n not a multiple of the block side.
    #[test]
    fn blocked_padding_stays_infinite_on_ragged_sizes() {
        for n in [1usize, 2, 5, 9, 13, 17, 21, 37] {
            for nb in [4usize, 8, 16] {
                let seeds = problem::random_seeds_f32(n, 100.0, (n * nb) as u64);
                let mut m = BlockedMatrix::from_triangular(&seeds, nb);
                assert!(m.padding_is_inert(), "fresh padding n={n} nb={nb}");
                ParallelEngine::new(nb, 2, 3)
                    .solve_blocked_with(&mut m, &ExecContext::disabled())
                    .expect("valid blocked solve");
                assert!(
                    m.padding_is_inert(),
                    "padding corrupted by solve at n={n} nb={nb}"
                );
                assert_eq!(
                    SerialEngine
                        .solve(&seeds)
                        .first_difference(&m.to_triangular()),
                    None,
                    "ragged blocked solve diverged at n={n} nb={nb}"
                );
            }
        }
    }
}

mod metrics_invariants {
    use npdp::core::problem;
    use npdp::prelude::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A no-op metrics sink must not change DP results: `solve_with`
        /// with disabled metrics and with a live recorder both equal the
        /// plain `solve`, bit for bit.
        #[test]
        fn prop_metrics_sink_leaves_results_unchanged(
            n in 1usize..90,
            workers in 1usize..6,
            seed in any::<u64>(),
        ) {
            let seeds = problem::random_seeds_f32(n, 100.0, seed);
            let engine = ParallelEngine::new(8, 2, workers);
            let plain = engine.solve(&seeds);
            let (noop, _) = engine
                .solve_with(&seeds, &ExecContext::disabled())
                .expect("valid seeds");
            let (recording, _rec) = Metrics::recording();
            let ctx = ExecContext::disabled().with_metrics(&recording);
            let (recorded, _) = engine.solve_with(&seeds, &ctx).expect("valid seeds");
            prop_assert_eq!(plain.first_difference(&noop), None);
            prop_assert_eq!(plain.first_difference(&recorded), None);
        }

        /// Serial and parallel engines must account the same logical work:
        /// `engine.cells_computed` equals n(n-1)/2 for both.
        #[test]
        fn prop_serial_and_parallel_count_same_cells(
            n in 1usize..100,
            nb_pow in 0u32..3,
            workers in 1usize..6,
            seed in any::<u64>(),
        ) {
            let nb = 8usize << nb_pow;
            let seeds = problem::random_seeds_f32(n, 100.0, seed);
            let (m_serial, rec_serial) = Metrics::recording();
            let ctx = ExecContext::disabled().with_metrics(&m_serial);
            SerialEngine.solve_with(&seeds, &ctx).expect("valid seeds");
            let (m_par, rec_par) = Metrics::recording();
            let ctx = ExecContext::disabled().with_metrics(&m_par);
            ParallelEngine::new(nb, 2, workers)
                .solve_with(&seeds, &ctx)
                .expect("valid seeds");
            let expected = (n * (n - 1) / 2) as u64;
            prop_assert_eq!(rec_serial.get("engine.cells_computed"), expected);
            prop_assert_eq!(rec_par.get("engine.cells_computed"), expected);
        }
    }
}

mod generic_recurrence_path {
    use npdp::core::problem;
    use npdp::core::recurrence::ClosureRec;
    use npdp::prelude::*;
    use proptest::prelude::*;

    /// The tentpole acceptance gate: min-plus routed through the generic
    /// `Recurrence`/`Semiring` path is **bit-identical** to the hardcoded
    /// engines on every tier — serial, blocked, SIMD — and the parallel
    /// tier under all four scheduler disciplines.
    #[test]
    fn generic_min_plus_bit_identical_across_engines_and_schedulers() {
        for n in [1usize, 13, 47, 96, 150] {
            let seeds = problem::random_seeds_f32(n, 100.0, n as u64);
            let reference = SerialEngine.solve(&seeds);
            let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
            let ctx = ExecContext::disabled();

            let mut runs: Vec<(String, TriangularMatrix<f32>)> = vec![
                (
                    "serial".into(),
                    SerialEngine.solve_recurrence(&rec, &ctx).unwrap().0,
                ),
                (
                    "blocked-8".into(),
                    BlockedEngine::new(8)
                        .solve_recurrence(&rec, &ctx)
                        .unwrap()
                        .0,
                ),
                (
                    "blocked-16".into(),
                    BlockedEngine::new(16)
                        .solve_recurrence(&rec, &ctx)
                        .unwrap()
                        .0,
                ),
                (
                    "simd-8".into(),
                    SimdEngine::new(8).solve_recurrence(&rec, &ctx).unwrap().0,
                ),
                (
                    "simd-16".into(),
                    SimdEngine::new(16).solve_recurrence(&rec, &ctx).unwrap().0,
                ),
            ];
            for scheduler in [
                Scheduler::CentralQueue,
                Scheduler::WorkStealing,
                Scheduler::LocalityBatched,
                Scheduler::pipelined(),
            ] {
                runs.push((
                    format!("parallel/{scheduler:?}"),
                    ParallelEngine::new(8, 2, 4)
                        .with_scheduler(scheduler)
                        .solve_recurrence(&rec, &ctx)
                        .unwrap()
                        .0,
                ));
            }
            for (name, got) in &runs {
                assert_eq!(
                    reference.first_difference(got),
                    None,
                    "generic path {name} diverged at n={n}"
                );
            }
        }
    }

    /// Autotuned block selection on the generic path agrees with the fixed
    /// spelling (the block side never changes the math).
    #[test]
    fn generic_path_autotuned_matches_fixed() {
        let seeds = problem::random_seeds_f32(128, 100.0, 77);
        let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
        let fixed = ParallelEngine::new(16, 2, 4)
            .solve_recurrence(&rec, &ExecContext::disabled())
            .unwrap()
            .0;
        let tuned = ParallelEngine::new(16, 2, 4)
            .solve_recurrence(&rec, &ExecContext::disabled().autotuned())
            .unwrap()
            .0;
        assert_eq!(fixed.first_difference(&tuned), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Property: for arbitrary sizes, block sides, worker counts and
        /// sparse seeds, the generic parallel tier equals the hardcoded
        /// serial engine exactly — same shape as `prop_parallel_equals_serial`
        /// but routed through `solve_recurrence`.
        #[test]
        fn prop_generic_parallel_equals_serial(
            n in 1usize..120,
            nb_pow in 0u32..3,
            sb in 1usize..4,
            workers in 1usize..9,
            density in 0.05f64..1.0,
            seed in any::<u64>(),
        ) {
            let nb = 8usize << nb_pow;
            let seeds = problem::sparse_seeds_f32(n, density, seed);
            let reference = SerialEngine.solve(&seeds);
            let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
            let (got, _) = ParallelEngine::new(nb, sb, workers)
                .solve_recurrence(&rec, &ExecContext::disabled())
                .unwrap();
            prop_assert_eq!(reference.first_difference(&got), None);
        }

        /// Property: generic f64 path (the f64 rank-update kernel through
        /// `Semiring::rank_update`) equals the hardcoded engines.
        #[test]
        fn prop_generic_f64_matches_engine(
            n in 1usize..100,
            seed in any::<u64>(),
        ) {
            let seeds = problem::random_seeds_f64(n, 10.0, seed);
            let reference = SimdEngine::new(8).solve(&seeds);
            let rec = ClosureRec::new(MinPlus::<f64>::new(), &seeds);
            let (got, _) = SimdEngine::new(8)
                .solve_recurrence(&rec, &ExecContext::disabled())
                .unwrap();
            prop_assert_eq!(reference.first_difference(&got), None);
        }
    }
}

mod more_invariants {
    use npdp::cell::functional_cellnpdp_multi_spe;
    use npdp::core::problem;
    use npdp::core::recurrence::ClosureRec;
    use npdp::prelude::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The multi-SPE functional simulator (mailbox protocol, several
        /// simulated SPUs) equals the host serial engine for arbitrary
        /// shapes.
        #[test]
        fn prop_multi_spe_simulator_matches(
            n in 1usize..64,
            sb in 1usize..4,
            spes in 1usize..6,
            seed in any::<u64>(),
        ) {
            let seeds = problem::random_seeds_f32(n, 100.0, seed);
            let host = SerialEngine.solve(&seeds);
            let (sim, report) = functional_cellnpdp_multi_spe(&seeds, 8, sb, spes);
            prop_assert_eq!(host.first_difference(&sim), None);
            prop_assert_eq!(report.assignments, report.completions);
        }

        /// Max-plus closure through the full engine stack: `MaxPlusRing`
        /// over plain (two-sided) scalars, through `ClosureRec` on all four
        /// `SolveRecurrence` tiers, bit for bit.
        #[test]
        fn prop_max_plus_engines_agree(
            n in 1usize..80,
            seed in any::<u64>(),
        ) {
            let base = problem::random_seeds_f32(n, 10.0, seed);
            let seeds = TriangularMatrix::from_fn(n, |i, j| base.get(i, j) - 5.0);
            let rec = ClosureRec::new(MaxPlusRing::<f32>::new(), &seeds);
            let ctx = ExecContext::disabled();
            let (a, _) = SerialEngine.solve_recurrence(&rec, &ctx).unwrap();
            let tiers = [
                BlockedEngine::new(8).solve_recurrence(&rec, &ctx).unwrap().0,
                SimdEngine::new(8).solve_recurrence(&rec, &ctx).unwrap().0,
                ParallelEngine::new(8, 2, 3).solve_recurrence(&rec, &ctx).unwrap().0,
            ];
            for t in &tiers {
                for ((i, j, x), (_, _, y)) in a.iter().zip(t.iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "cell ({}, {})", i, j);
                }
            }
            // Max closure dominates every seed.
            for (i, j, v) in a.iter() {
                prop_assert!(v >= seeds.get(i, j));
            }
        }

        /// Work-stealing and central-queue schedulers agree bit-for-bit.
        #[test]
        fn prop_schedulers_agree(
            n in 1usize..100,
            workers in 1usize..6,
            seed in any::<u64>(),
        ) {
            let seeds = problem::random_seeds_f32(n, 100.0, seed);
            let central = ParallelEngine::new(8, 2, workers).solve(&seeds);
            let stealing = ParallelEngine::new(8, 2, workers)
                .with_scheduler(Scheduler::WorkStealing)
                .solve(&seeds);
            prop_assert_eq!(central.first_difference(&stealing), None);
        }

        /// The barrier-free pipelined scheduler agrees bit-for-bit with the
        /// central queue for arbitrary shapes and lookahead windows.
        #[test]
        fn prop_pipelined_scheduler_agrees(
            n in 1usize..100,
            workers in 1usize..6,
            lookahead in 1usize..5,
            seed in any::<u64>(),
        ) {
            let seeds = problem::random_seeds_f32(n, 100.0, seed);
            let central = ParallelEngine::new(8, 2, workers).solve(&seeds);
            let piped = ParallelEngine::new(8, 2, workers)
                .with_scheduler(Scheduler::Pipelined { lookahead })
                .solve(&seeds);
            prop_assert_eq!(central.first_difference(&piped), None);
        }
    }
}
