//! Autotuner and scheduler-variant properties: the model-predicted block
//! side always respects the §V local-store bound (checked against
//! perf-model directly, not the tuner's own cap), and every scheduler
//! variant — central queue, work stealing, locality-batched — returns the
//! same table bit-for-bit, with and without injected faults, as does the
//! autotuned entry point.

use npdp::core::{problem, Engine, ParallelEngine, Scheduler, SerialEngine};
use npdp::exec::ExecContext;
use npdp::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
use npdp::tune::{Calibration, Kernel, Machine, PerfModel, Tuner, FIG13_SIDES};
use proptest::prelude::*;

const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 16,
    base_backoff: 1,
};

/// Suppress the panic-hook noise of injected task panics (caught and
/// retried by the executors, but the default hook still prints).
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected task panic"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property: over random machines, precisions, calibrations, worker
    /// counts, and problem sizes, the predicted block side never exceeds
    /// the six-buffer local-store bound and is a legal computing-block
    /// multiple.
    #[test]
    fn prop_predicted_nb_respects_local_store(
        ls_kb in 16.0f64..512.0,
        bw_gb in 1.0f64..64.0,
        freq_ghz in 1.0f64..4.0,
        cores in 1usize..33,
        dp in any::<bool>(),
        n in 64usize..8192,
        overlap in 0.0f64..1.0,
        task_overhead_s in 0.0f64..1e-5,
        dma_startup_s in 0.0f64..1e-6,
    ) {
        let machine = Machine {
            local_store_bytes: ls_kb * 1024.0,
            bandwidth_bytes_per_s: bw_gb * 1e9,
            freq_hz: freq_ghz * 1e9,
            cores: cores as f64,
            issue_width: 2.0,
        };
        let (kernel, elem) = if dp {
            (Kernel::spu_dp(), 8)
        } else {
            (Kernel::spu_sp(), 4)
        };
        let calib = Calibration { task_overhead_s, dma_startup_s, overlap };
        let tuner = Tuner::new(machine, kernel, elem, cores, calib);
        let nb = tuner.predicted_nb(n);
        let bound = PerfModel::new(machine, kernel, elem).max_block_side();
        prop_assert!(nb as f64 <= bound, "nb = {} exceeds bound {:.1}", nb, bound);
        prop_assert!(nb >= 4 && nb.is_multiple_of(4), "nb = {} is not a legal side", nb);
        // Every candidate the tuner considered was legal too.
        for c in tuner.candidates(&FIG13_SIDES) {
            prop_assert!(c as f64 <= bound, "candidate {} exceeds bound {:.1}", c, bound);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: all three scheduler variants produce the serial table
    /// bit-for-bit on random triangles.
    #[test]
    fn prop_schedulers_bit_identical(
        n in 8usize..80,
        nb in prop_oneof![Just(4usize), Just(8), Just(16)],
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let seeds = problem::random_seeds_f32(n, 100.0, seed);
        let reference = SerialEngine.solve(&seeds);
        for sched in [
            Scheduler::CentralQueue,
            Scheduler::WorkStealing,
            Scheduler::LocalityBatched,
        ] {
            let got = ParallelEngine::new(nb, 1, workers)
                .with_scheduler(sched)
                .solve(&seeds);
            prop_assert_eq!(
                reference.first_difference(&got), None,
                "{:?} diverged", sched
            );
        }
    }

    /// Property: the locality-batched scheduler stays bit-identical under
    /// seeded fault plans — recovery must not depend on which worker
    /// re-executes a task.
    #[test]
    fn prop_locality_batched_survives_faults(
        n in 8usize..64,
        workers in 1usize..5,
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.4,
    ) {
        quiet_injected_panics();
        let seeds = problem::random_seeds_f32(n, 100.0, n as u64);
        let reference = SerialEngine.solve(&seeds);
        let faults = FaultInjector::new(
            FaultPlan::seeded(fault_seed).with_rate(FaultKind::TaskPanic, rate),
        );
        let engine = ParallelEngine::new(16, 1, workers)
            .with_scheduler(Scheduler::LocalityBatched);
        let ctx = ExecContext::disabled().with_faults(&faults).with_retry(RETRY);
        match engine.solve_with(&seeds, &ctx) {
            Ok((got, _)) => prop_assert_eq!(reference.first_difference(&got), None),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Property: `Tuning::Auto` picks a legal block size and returns
    /// the serial bits, whatever nb the engine was constructed with.
    #[test]
    fn prop_solve_autotuned_bit_identical(
        n in 5usize..120,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let seeds = problem::random_seeds_f32(n, 100.0, seed);
        let reference = SerialEngine.solve(&seeds);
        let (got, _) = ParallelEngine::new(16, 1, workers)
            .solve_with(&seeds, &ExecContext::disabled().autotuned())
            .expect("valid seeds");
        prop_assert_eq!(reference.first_difference(&got), None);
        let nb = ParallelEngine::autotune_nb(workers, n, 4);
        prop_assert!(nb >= 4 && nb.is_multiple_of(4));
    }
}
