//! The locality-aware discipline of [`crate::driver::run`] — the scheduling half of the diagonal-batched
//! discipline (see [`crate::triangle::diagonal_batched_grid`]).
//!
//! Structurally this is the work-stealing executor (per-worker LIFO deques,
//! a global injector, round-robin stealing) with one policy change: when a
//! finishing task readies successors, the *first* stays on the finishing
//! worker's own deque — that worker just wrote the `(i,k)`/`(k,j)` operand
//! blocks the successor reads, so its caches are hot — while any further
//! ready successors are published to the global injector for idle workers to
//! pick up without deque contention. The executor tracks which worker made
//! each task ready and reports the affinity outcome as
//! `queue.affinity_hits` / `queue.affinity_misses` (a miss means the task
//! ran on a worker other than the one that produced its operands — an
//! injector pickup or a steal).
//!
//! Behaviour tests of that discipline.

mod tests {
    use npdp_exec::{ExecContext, Scheduler};
    use npdp_fault::{FaultInjector, FaultKind, RetryPolicy};
    use npdp_metrics::Metrics;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    use crate::driver::{run, ExecError};
    use crate::graph::TaskGraph;
    use crate::triangle::{diagonal_batched_grid, triangle_graph};

    fn locality() -> ExecContext {
        ExecContext::disabled().with_scheduler(Scheduler::LocalityBatched)
    }

    #[test]
    fn executes_every_task_once() {
        let g = triangle_graph(10);
        let hits: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        let stats = run(&g, 4, &locality(), |t| {
            hits[t].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), g.len());
    }

    #[test]
    fn respects_dependences() {
        let mut g = TaskGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let done: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
        run(&g, 4, &locality(), |t| {
            match t {
                1 | 2 => assert!(done[0].load(Ordering::SeqCst)),
                3 => {
                    assert!(done[1].load(Ordering::SeqCst));
                    assert!(done[2].load(Ordering::SeqCst));
                }
                _ => {}
            }
            done[t].store(true, Ordering::SeqCst);
        })
        .unwrap();
    }

    #[test]
    fn single_worker_serial_and_all_hits() {
        let g = triangle_graph(6);
        let (metrics, recorder) = Metrics::recording();
        let stats = run(&g, 1, &locality().with_metrics(&metrics), |_| {}).unwrap();
        assert_eq!(stats.tasks_per_worker, vec![21]);
        // One worker produces every operand itself: every non-root task is
        // an affinity hit.
        let roots = g.roots().count();
        assert_eq!(
            recorder.get("queue.affinity_hits"),
            (g.len() - roots) as u64
        );
        assert_eq!(recorder.get("queue.affinity_misses"), 0);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new(0);
        run(&g, 3, &locality(), |_| panic!("nothing to run")).unwrap();
    }

    #[test]
    fn affinity_counters_partition_non_roots() {
        let g = triangle_graph(12);
        let (metrics, recorder) = Metrics::recording();
        run(&g, 4, &locality().with_metrics(&metrics), |_| {
            std::thread::yield_now()
        })
        .unwrap();
        let roots = g.roots().count() as u64;
        assert_eq!(
            recorder.get("queue.affinity_hits") + recorder.get("queue.affinity_misses"),
            g.len() as u64 - roots
        );
        assert_eq!(recorder.get("queue.tasks_executed"), g.len() as u64);
    }

    #[test]
    fn runs_the_batched_grid() {
        let sg = diagonal_batched_grid(10, 1, 4);
        let hits: Vec<AtomicU32> = (0..sg.graph.len()).map(|_| AtomicU32::new(0)).collect();
        run(&sg.graph, 4, &locality(), |t| {
            hits[t].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn panicking_task_errors_instead_of_hanging() {
        let g = triangle_graph(5);
        let err = run(&g, 4, &locality(), |t| {
            if t == 7 {
                panic!("boom in task 7");
            }
        })
        .unwrap_err();
        let ExecError::TaskPanicked { task, attempts, .. } = err;
        assert_eq!(task, 7);
        assert_eq!(attempts, RetryPolicy::DEFAULT.max_attempts);
    }

    #[test]
    fn injected_panics_recovered_by_retry() {
        let g = triangle_graph(6);
        let faults = FaultInjector::new(
            npdp_fault::FaultPlan::seeded(17).with_rate(FaultKind::TaskPanic, 0.4),
        );
        let hits: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        run(
            &g,
            4,
            &locality().with_faults(&faults).with_retry(RetryPolicy {
                max_attempts: 16,
                base_backoff: 1,
            }),
            |t| {
                hits[t].fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        assert!(faults.injected(FaultKind::TaskPanic) > 0);
    }
}
