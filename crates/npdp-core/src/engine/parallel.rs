//! The full CellNPDP algorithm (paper Fig. 8): NDL + SIMD computing blocks +
//! the task-queue parallel procedure over scheduling blocks.

use npdp_exec::ExecContext;
use task_queue::ExecStats;

use crate::engine::{solve_closure, validate_seeds, Engine};
use crate::error::SolveError;
use crate::layout::{BlockedMatrix, TriangularMatrix};
use crate::recurrence::{sweep_parallel, ClosureRec, InPlaceClosure, SolveRecurrence};
use crate::semiring::MinPlus;
use crate::value::DpValue;

pub use npdp_exec::Scheduler;

/// CellNPDP on the host: every worker thread plays an SPE against the shared
/// ready queue; the dependence graph is the simplified left+below graph over
/// scheduling blocks. As an [`Engine`] it solves the min-plus closure
/// through the shared parallel tier
/// ([`crate::recurrence::solve_parallel`]) over [`MinPlus`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelEngine {
    /// Memory-block side length (multiple of 4).
    pub nb: usize,
    /// Scheduling-block side, in memory blocks (paper §IV-B).
    pub sb: usize,
    /// Worker threads ("SPEs").
    pub workers: usize,
    /// Ready-queue discipline.
    pub scheduler: Scheduler,
}

impl ParallelEngine {
    /// CellNPDP with memory blocks of side `nb`, scheduling blocks of
    /// `sb × sb` memory blocks, and `workers` threads.
    pub fn new(nb: usize, sb: usize, workers: usize) -> Self {
        assert!(
            nb > 0 && nb.is_multiple_of(4),
            "block side must be a multiple of 4"
        );
        assert!(sb >= 1, "scheduling block side must be at least 1");
        assert!(workers >= 1, "need at least one worker");
        Self {
            nb,
            sb,
            workers,
            scheduler: Scheduler::CentralQueue,
        }
    }

    /// Model-chosen memory-block side for an `n`-interval problem on
    /// `workers` host threads: a host-profile [`npdp_tune::Tuner`] scored
    /// over the Fig. 13 ladder. `elem_bytes` is the DP element size
    /// (`size_of::<T>()`); it selects the SP or DP kernel profile and the
    /// working-set bound. The [`Scheduler::CentralQueue`] shape of
    /// [`Self::autotune_nb_for`].
    pub fn autotune_nb(workers: usize, n: usize, elem_bytes: usize) -> usize {
        Self::autotune_nb_for(workers, n, elem_bytes, Scheduler::CentralQueue)
    }

    /// Scheduler-aware [`Self::autotune_nb`]: the pipelined discipline
    /// hides dispatch and amortizes the wavefront ramp/tail, which moves
    /// the model's interior optimum (small blocks stop being punished as
    /// hard), so a solve under [`npdp_exec::Tuning::Auto`] scores the
    /// ladder with the matching [`npdp_tune::Tuner::pipelined`] shape.
    pub fn autotune_nb_for(
        workers: usize,
        n: usize,
        elem_bytes: usize,
        scheduler: Scheduler,
    ) -> usize {
        let workers = workers.max(1);
        let machine = npdp_tune::Machine {
            cores: workers as f64,
            ..npdp_tune::Machine::nehalem_8core()
        };
        let kernel = if elem_bytes <= 4 {
            npdp_tune::Kernel::spu_sp()
        } else {
            npdp_tune::Kernel::spu_dp()
        };
        let tuner = npdp_tune::Tuner::new(
            machine,
            kernel,
            elem_bytes.max(1),
            workers,
            npdp_tune::Calibration::host(),
        );
        let tuner = match scheduler {
            Scheduler::Pipelined { lookahead } => tuner.pipelined(lookahead),
            _ => tuner,
        };
        tuner.predicted_nb(n.max(1))
    }

    /// Switch the ready-queue discipline (ablation).
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sensible defaults: 32 KB-ish blocks and all available cores.
    pub fn with_defaults() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::new(88, 4, workers)
    }

    /// CellNPDP over an already-blocked min-plus matrix in place, under the
    /// policies of `ctx`: the shared parallel tier's sweep
    /// ([`crate::recurrence::solve_parallel`]), with the engine's own
    /// [`ParallelEngine::scheduler`] (`ctx.scheduler` configures the raw
    /// [`task_queue::run`] driver, not an engine that already carries a
    /// discipline). On `Err` the matrix is left partially finalized and
    /// must be discarded.
    pub fn solve_blocked_with<T: DpValue>(
        &self,
        m: &mut BlockedMatrix<T>,
        ctx: &ExecContext,
    ) -> Result<ExecStats, SolveError> {
        assert_eq!(
            m.block_side(),
            self.nb,
            "matrix blocked with a different nb"
        );
        // The matrix holds its own seeds.
        let rec = InPlaceClosure {
            ring: MinPlus::new(),
            n: m.n(),
        };
        sweep_parallel(&rec, m, self.sb, self.workers, self.scheduler, ctx)
    }
}

impl<T: DpValue> Engine<T> for ParallelEngine {
    fn name(&self) -> &'static str {
        "parallel (CellNPDP: NDL + SPE procedure + task queue)"
    }

    fn solve(&self, seeds: &TriangularMatrix<T>) -> TriangularMatrix<T> {
        solve_closure(self, MinPlus::new(), seeds)
    }

    fn solve_with(
        &self,
        seeds: &TriangularMatrix<T>,
        ctx: &ExecContext,
    ) -> Result<(TriangularMatrix<T>, ExecStats), SolveError> {
        validate_seeds(seeds)?;
        self.solve_recurrence(&ClosureRec::new(MinPlus::new(), seeds), ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SerialEngine;
    use npdp_fault::{FaultInjector, RetryPolicy};

    fn random_seeds(n: usize, seed: u64) -> TriangularMatrix<f32> {
        let mut s = seed;
        TriangularMatrix::from_fn(n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32) / (u32::MAX as f32) * 100.0
        })
    }

    #[test]
    fn parallel_matches_serial_across_configs() {
        for n in [1, 9, 33, 64, 97] {
            for (nb, sb, workers) in [(4, 1, 2), (8, 2, 4), (16, 3, 3), (8, 1, 8)] {
                let seeds = random_seeds(n, (n * 7 + nb + sb + workers) as u64);
                let a = SerialEngine.solve(&seeds);
                let b = ParallelEngine::new(nb, sb, workers).solve(&seeds);
                assert_eq!(
                    a.first_difference(&b),
                    None,
                    "n={n} nb={nb} sb={sb} w={workers}"
                );
            }
        }
    }

    #[test]
    fn parallel_single_worker_matches() {
        let seeds = random_seeds(50, 3);
        let a = SerialEngine.solve(&seeds);
        let b = ParallelEngine::new(8, 2, 1).solve(&seeds);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        let seeds = random_seeds(80, 11);
        let engine = ParallelEngine::new(8, 2, 8);
        let first = engine.solve(&seeds);
        for _ in 0..5 {
            let again = engine.solve(&seeds);
            assert_eq!(first.first_difference(&again), None);
        }
    }

    #[test]
    fn stats_account_for_all_tasks() {
        let seeds = random_seeds(64, 5);
        let engine = ParallelEngine::new(8, 2, 4);
        let (_, stats) = engine.solve_with(&seeds, &ExecContext::disabled()).unwrap();
        // 64/8 = 8 blocks per side → coarse 4×4 triangle → 10 tasks.
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 10);
    }

    #[test]
    fn work_stealing_scheduler_matches() {
        let seeds = random_seeds(70, 23);
        let a = SerialEngine.solve(&seeds);
        let b = ParallelEngine::new(8, 2, 4)
            .with_scheduler(Scheduler::WorkStealing)
            .solve(&seeds);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn locality_batched_scheduler_matches() {
        for n in [1, 9, 33, 64, 97] {
            for (nb, sb, workers) in [(4, 1, 2), (8, 2, 4), (8, 1, 8)] {
                let seeds = random_seeds(n, (n * 5 + nb + sb + workers) as u64);
                let a = SerialEngine.solve(&seeds);
                let b = ParallelEngine::new(nb, sb, workers)
                    .with_scheduler(Scheduler::LocalityBatched)
                    .solve(&seeds);
                assert_eq!(
                    a.first_difference(&b),
                    None,
                    "n={n} nb={nb} sb={sb} w={workers}"
                );
            }
        }
    }

    #[test]
    fn locality_batched_shrinks_the_task_count() {
        let seeds = random_seeds(64, 5);
        // 64/8 = 8 blocks per side, sb=1 → 36 plain tasks; with 4 workers
        // diagonals 5..7 (3+2+1 tasks) fold into one batch → 31.
        let ctx = ExecContext::disabled();
        let plain = ParallelEngine::new(8, 1, 4).solve_with(&seeds, &ctx);
        let batched = ParallelEngine::new(8, 1, 4)
            .with_scheduler(Scheduler::LocalityBatched)
            .solve_with(&seeds, &ctx);
        let (plain, batched) = (plain.unwrap().1, batched.unwrap().1);
        assert_eq!(plain.tasks_per_worker.iter().sum::<usize>(), 36);
        assert_eq!(batched.tasks_per_worker.iter().sum::<usize>(), 31);
    }

    #[test]
    fn pipelined_scheduler_matches() {
        for n in [1, 9, 33, 64, 97] {
            for (nb, sb, workers) in [(4, 1, 2), (8, 2, 4), (8, 1, 8)] {
                let seeds = random_seeds(n, (n * 3 + nb + sb + workers) as u64);
                let a = SerialEngine.solve(&seeds);
                for lookahead in [1, 2, 4] {
                    let b = ParallelEngine::new(nb, sb, workers)
                        .with_scheduler(Scheduler::Pipelined { lookahead })
                        .solve(&seeds);
                    assert_eq!(
                        a.first_difference(&b),
                        None,
                        "n={n} nb={nb} sb={sb} w={workers} L={lookahead}"
                    );
                }
            }
        }
    }

    #[test]
    fn pipelined_autotune_is_scheduler_aware_and_legal() {
        for n in [64usize, 1024, 4096] {
            let nb = ParallelEngine::autotune_nb_for(8, n, 4, Scheduler::pipelined());
            assert_eq!(nb % 4, 0, "nb = {nb}");
            assert!(nb >= 4);
        }
        // The legacy entry point is the CentralQueue shape.
        assert_eq!(
            ParallelEngine::autotune_nb(4, 512, 4),
            ParallelEngine::autotune_nb_for(4, 512, 4, Scheduler::CentralQueue)
        );
        // Autotuned pipelined solve stays bit-identical to serial.
        let seeds = random_seeds(130, 29);
        let expect = SerialEngine.solve(&seeds);
        let engine = ParallelEngine::new(8, 1, 4).with_scheduler(Scheduler::pipelined());
        let (got, _) = engine
            .solve_with(&seeds, &ExecContext::disabled().autotuned())
            .expect("autotuned pipelined solve");
        assert_eq!(expect.first_difference(&got), None);
    }

    #[test]
    fn autotuned_solve_is_bit_identical_and_legal() {
        for n in [5usize, 64, 130] {
            let seeds = random_seeds(n, 11);
            let expect = SerialEngine.solve(&seeds);
            let engine = ParallelEngine::new(8, 1, 4);
            let (got, _) = engine
                .solve_with(&seeds, &ExecContext::disabled().autotuned())
                .unwrap();
            assert_eq!(got.as_slice(), expect.as_slice(), "n = {n}");
            let nb = ParallelEngine::autotune_nb(4, n, 4);
            assert_eq!(nb % 4, 0, "nb = {nb} not a computing-block multiple");
            assert!(nb >= 4);
        }
        // The DP profile halves the working-set bound but must still pick a
        // legal side.
        let nb = ParallelEngine::autotune_nb(8, 1024, 8);
        assert_eq!(nb % 4, 0);
    }

    #[test]
    fn injected_task_panics_recover_bit_identical() {
        use npdp_fault::{FaultKind, FaultPlan};
        let seeds = random_seeds(64, 77);
        let expect = SerialEngine.solve(&seeds);
        for scheduler in [
            Scheduler::CentralQueue,
            Scheduler::WorkStealing,
            Scheduler::LocalityBatched,
            Scheduler::pipelined(),
        ] {
            let faults =
                FaultInjector::new(FaultPlan::seeded(123).with_rate(FaultKind::TaskPanic, 0.3));
            let engine = ParallelEngine::new(8, 1, 4).with_scheduler(scheduler);
            let ctx = ExecContext::disabled()
                .with_faults(&faults)
                .with_retry(RetryPolicy {
                    max_attempts: 16,
                    base_backoff: 1,
                });
            let (got, _) = engine
                .solve_with(&seeds, &ctx)
                .expect("recovers under injected panics");
            assert_eq!(expect.first_difference(&got), None, "{scheduler:?}");
            assert!(faults.injected(FaultKind::TaskPanic) > 0, "{scheduler:?}");
        }
    }

    #[test]
    fn real_panic_is_a_typed_error_not_a_hang() {
        // A NaN seed passed straight to the blocked core (bypassing
        // validation) makes nothing panic — so use a poisoned claim instead:
        // run with a task body that panics via an injected rate of 1.0,
        // which can never succeed within the budget.
        use npdp_fault::{FaultKind, FaultPlan};
        let seeds = random_seeds(48, 3);
        let faults = FaultInjector::new(FaultPlan::seeded(5).with_rate(FaultKind::TaskPanic, 1.0));
        let err = ParallelEngine::new(8, 1, 3)
            .solve_with(&seeds, &ExecContext::disabled().with_faults(&faults))
            .unwrap_err();
        assert!(matches!(err, SolveError::TaskFailed { .. }), "{err:?}");
    }

    #[test]
    fn try_solve_rejects_bad_seeds() {
        use crate::error::{SeedIssue, SolveError};
        let ctx = ExecContext::disabled();
        let mut seeds = random_seeds(20, 1);
        seeds.set(3, 7, f32::NAN);
        let err =
            Engine::<f32>::solve_with(&ParallelEngine::new(8, 2, 2), &seeds, &ctx).unwrap_err();
        assert_eq!(
            err,
            SolveError::InvalidSeed {
                i: 3,
                j: 7,
                issue: SeedIssue::NotANumber
            }
        );

        let mut seeds = random_seeds(20, 2);
        seeds.set(0, 5, -2.0);
        let err = Engine::<f32>::solve_with(&SerialEngine, &seeds, &ctx).unwrap_err();
        assert_eq!(
            err,
            SolveError::InvalidSeed {
                i: 0,
                j: 5,
                issue: SeedIssue::Negative
            }
        );

        let seeds = random_seeds(20, 3);
        let (ok, _) =
            Engine::<f32>::solve_with(&ParallelEngine::new(8, 2, 2), &seeds, &ctx).unwrap();
        assert_eq!(ok.first_difference(&SerialEngine.solve(&seeds)), None);
    }

    #[test]
    fn f64_parallel_matches() {
        let seeds =
            TriangularMatrix::<f64>::from_fn(45, |i, j| ((i * 13 + j * 31) % 53) as f64 * 0.5);
        let a = SerialEngine.solve(&seeds);
        let b = ParallelEngine::new(8, 2, 4).solve(&seeds);
        assert_eq!(a.first_difference(&b), None);
    }
}
