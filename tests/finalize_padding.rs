//! The blocked and parallel recurrence tiers equal the serial flowchart bit
//! for bit when the table side does not fill its last memory block.
//!
//! `solve_blocked` and `solve_parallel` run the same block procedures as the
//! min-plus engines and hand them a `finalize` that skips padding cells
//! (`i ≥ n` or `j ≥ n`). Sides with `n mod nb ∈ {1, nb − 1}` put the edge of
//! the table one cell into, or one cell short of, the last block, for every
//! block side in {4, 8, 32} — so a finalize applied to padding, or skipped
//! on a logical cell, shows up as a differing cell.

use npdp::core::apps::BstRec;
use npdp::core::recurrence::{
    solve_blocked, solve_parallel, solve_serial, ClosureRec, RingElem, RootedRec,
};
use npdp::core::{
    BlockedEngine, MinPlus, ParallelEngine, Recurrence, SimdEngine, SolveError, SolveRecurrence,
    TriangularMatrix,
};
use npdp::exec::{ExecContext, Scheduler};
use npdp::rna::{random_sequence, ZukerRec};
use npdp::serve::solve::zuker_model;

const SCHEDULERS: [Scheduler; 4] = [
    Scheduler::CentralQueue,
    Scheduler::WorkStealing,
    Scheduler::LocalityBatched,
    Scheduler::Pipelined { lookahead: 2 },
];

/// Every `(nb, side)` pair under test: sides one past a block boundary and
/// one short of the next.
fn ragged_shapes() -> Vec<(usize, usize)> {
    [(4, 2), (8, 2), (32, 1)]
        .into_iter()
        .flat_map(|(nb, blocks)| [(nb, nb * blocks + 1), (nb, nb * blocks + nb - 1)])
        .collect()
}

/// `rec` through `solve_blocked` and through `solve_parallel` under every
/// scheduler equals `solve_serial`, cell by cell under `same`.
fn tiers_agree<R: Recurrence>(
    rec: &R,
    nb: usize,
    what: &str,
    same: impl Fn(RingElem<R>, RingElem<R>) -> bool,
) {
    assert_ne!(rec.side() % nb, 0, "{what}: side must be ragged");
    let serial = solve_serial(rec);
    let check = |other: TriangularMatrix<RingElem<R>>, tier: String| {
        assert_eq!(other.n(), serial.n(), "{what} {tier}: side");
        for ((i, j, a), (_, _, b)) in serial.iter().zip(other.iter()) {
            assert!(
                same(a, b),
                "{what} {tier} nb={nb} n={}: cell ({i},{j}) serial {a:?} vs {b:?}",
                rec.side()
            );
        }
    };
    let blocked = solve_blocked(rec, nb, &ExecContext::disabled());
    check(blocked, "solve_blocked".into());
    for scheduler in SCHEDULERS {
        let (table, _) = solve_parallel(rec, nb, 2, 2, scheduler, &ExecContext::disabled())
            .expect("a fault-free parallel solve succeeds");
        check(table, format!("solve_parallel {scheduler:?}"));
    }
}

#[test]
fn bst_finalize_skips_padding() {
    for (nb, side) in ragged_shapes() {
        // BstRec's side is keys + 2.
        let freq: Vec<i64> = (0..side - 2).map(|k| ((k * 37 + nb) % 23) as i64).collect();
        tiers_agree(&BstRec::new(&freq), nb, "BstRec", |a, b| a == b);
    }
}

#[test]
fn zuker_finalize_skips_padding() {
    let model = zuker_model();
    for (nb, side) in ragged_shapes() {
        // ZukerRec's side is bases + 1.
        let seq = random_sequence(side - 1, (side * 31 + nb) as u64);
        tiers_agree(&ZukerRec::new(&seq, &model), nb, "ZukerRec", |a, b| a == b);
    }
}

#[test]
fn closure_without_finalize_agrees_bitwise() {
    for (nb, side) in ragged_shapes() {
        let mut s = (side * 131 + nb) as u64;
        let seeds = TriangularMatrix::from_fn(side, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // A quarter of the seeds are `+0` (ties), the rest whole numbers.
            ((s >> 33) % 4 * ((s >> 40) % 97)) as f32
        });
        let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
        tiers_agree(&rec, nb, "ClosureRec<f32>", |a, b| {
            a.to_bits() == b.to_bits()
        });
    }
}

/// [`RootedRec`] with the plain min-plus ⊗ as its combine, minus the
/// split-dependence flag: the same table, and the only spelling of it the
/// blocked tiers accept.
struct SplitFree<R>(R);

impl<R: Recurrence> Recurrence for SplitFree<R> {
    type Ring = R::Ring;

    fn ring(&self) -> &R::Ring {
        self.0.ring()
    }

    fn side(&self) -> usize {
        self.0.side()
    }

    fn seed(&self, i: usize, j: usize) -> RingElem<R> {
        self.0.seed(i, j)
    }

    fn finalize(&self, i: usize, j: usize, acc: RingElem<R>) -> RingElem<R> {
        self.0.finalize(i, j, acc)
    }
}

#[test]
fn rooted_gap_layout_survives_ragged_blocks() {
    let plus = |l: i64, r: i64, _: usize, _: usize, _: usize| l.saturating_add(r);
    for (nb, side) in ragged_shapes() {
        // RootedRec's side is items + 2; empty intervals cost 1.
        let rooted = RootedRec::new(MinPlus::<i64>::new(), side - 2, 1i64, plus);
        let free = SplitFree(RootedRec::new(MinPlus::<i64>::new(), side - 2, 1i64, plus));
        let via_rooted = solve_serial(&rooted);
        assert_eq!(solve_serial(&free).first_difference(&via_rooted), None);
        tiers_agree(&free, nb, "RootedRec (split-free)", |a, b| a == b);

        // The split-dependent original is a typed error on those tiers.
        let ctx = ExecContext::disabled();
        for err in [
            BlockedEngine::new(nb).solve_recurrence(&rooted, &ctx).err(),
            SimdEngine::new(nb).solve_recurrence(&rooted, &ctx).err(),
            ParallelEngine::new(nb, 2, 2)
                .solve_recurrence(&rooted, &ctx)
                .err(),
        ] {
            assert!(
                matches!(err, Some(SolveError::InvalidProblem { .. })),
                "{err:?}"
            );
        }
    }
}
