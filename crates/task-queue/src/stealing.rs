//! The work-stealing discipline of [`crate::driver::run`]: per-worker LIFO
//! deques plus a global injector, round-robin stealing. Behaviour tests.

mod tests {
    use npdp_exec::{ExecContext, Scheduler};
    use npdp_fault::{FaultInjector, FaultKind, RetryPolicy};
    use npdp_metrics::Metrics;
    use npdp_trace::{EventKind, Tracer};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    use crate::driver::{run, ExecError};
    use crate::graph::TaskGraph;
    use crate::triangle::triangle_graph;

    fn stealing() -> ExecContext {
        ExecContext::disabled().with_scheduler(Scheduler::WorkStealing)
    }

    #[test]
    fn executes_every_task_once() {
        let g = triangle_graph(10);
        let hits: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        let stats = run(&g, 4, &stealing(), |t| {
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
        run(&g, 4, &stealing(), |t| {
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
    fn single_worker_serial() {
        let g = triangle_graph(6);
        let stats = run(&g, 1, &stealing(), |_| {}).unwrap();
        assert_eq!(stats.tasks_per_worker, vec![21]);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new(0);
        run(&g, 3, &stealing(), |_| panic!("nothing to run")).unwrap();
    }

    #[test]
    fn metered_stealing_counts_tasks_and_sources() {
        let g = triangle_graph(10);
        let (metrics, recorder) = Metrics::recording();
        let stats = run(&g, 4, &stealing().with_metrics(&metrics), |_| {
            std::thread::yield_now();
        })
        .unwrap();
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), g.len());
        assert_eq!(recorder.get("queue.tasks_executed"), g.len() as u64);
        // The roots enter through the injector, so at least one injector
        // steal must have happened; deque-to-deque steals are load-dependent.
        assert!(recorder.get("queue.injector_steals") >= 1);
        // Every non-root task is pushed to a local deque exactly once.
        let roots = g.roots().count();
        assert_eq!(recorder.get("queue.ready_pushes"), (g.len() - roots) as u64);
    }

    #[test]
    fn instrumented_stealing_journals_balanced_task_spans() {
        let g = triangle_graph(8);
        let tracer = Tracer::new();
        run(&g, 4, &stealing().with_tracer(&tracer), |_| {
            std::thread::yield_now();
        })
        .unwrap();
        let data = tracer.snapshot();
        assert_eq!(data.tracks.len(), 4);
        let spans = npdp_trace::analysis::pair_spans(&data).expect("spans balance");
        let mut task_ids: Vec<u32> = spans
            .iter()
            .filter_map(|s| match s.kind {
                EventKind::Task { id } => Some(id),
                _ => None,
            })
            .collect();
        task_ids.sort_unstable();
        assert_eq!(task_ids, (0..g.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_errors_instead_of_hanging() {
        let g = triangle_graph(5);
        let err = run(&g, 4, &stealing(), |t| {
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
    fn transient_panic_is_retried_and_succeeds() {
        let g = triangle_graph(4);
        let (metrics, recorder) = Metrics::recording();
        let first_try = AtomicBool::new(true);
        let stats = run(&g, 3, &stealing().with_metrics(&metrics), |t| {
            if t == 5 && first_try.swap(false, Ordering::SeqCst) {
                panic!("transient");
            }
        })
        .unwrap();
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), g.len());
        assert_eq!(recorder.get("queue.task_panics"), 1);
        assert_eq!(recorder.get("queue.task_retries"), 1);
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
            &stealing().with_faults(&faults).with_retry(RetryPolicy {
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

    #[test]
    fn matches_central_queue_results() {
        // Both executors must run the same task set exactly once under
        // contention.
        let g = triangle_graph(14);
        for _ in 0..5 {
            let hits: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
            run(&g, 8, &stealing(), |t| {
                hits[t].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        }
    }
}
