//! The central-queue discipline of [`crate::driver::run`] (the paper's
//! Fig. 8 PPE procedure): every worker plays the SPE role against one
//! shared ready queue; notification counters are atomics, so completion
//! handling is distributed over the workers instead of funnelled through one
//! PPE thread (on the CPU platform the paper likewise lets "all cores
//! cooperatively manage the task queue", §VI-B). Behaviour tests of that
//! discipline, of [`crate::ExecStats`] and of
//! [`crate::execute_sequential`].

mod tests {
    use npdp_exec::ExecContext;
    use npdp_fault::{FaultInjector, FaultKind, RetryPolicy};
    use npdp_metrics::Metrics;
    use npdp_trace::{EventKind, Tracer};
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    use crate::driver::{execute_sequential, run, ExecError};
    use crate::graph::TaskGraph;

    /// The central-queue discipline, the context default.
    fn central() -> ExecContext {
        ExecContext::disabled()
    }

    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn executes_every_task_once() {
        let g = diamond();
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        run(&g, 3, &central(), |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn respects_dependences() {
        let g = diamond();
        let done: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
        run(&g, 4, &central(), |t| {
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
    fn sequential_matches_topological_order() {
        let g = diamond();
        let mut seen = Vec::new();
        execute_sequential(&g, |t| seen.push(t));
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], 0);
        assert_eq!(seen[3], 3);
    }

    #[test]
    fn single_worker_completes_large_chain() {
        let mut g = TaskGraph::new(1000);
        for i in 0..999 {
            g.add_edge(i, i + 1);
        }
        let order = Mutex::new(Vec::new());
        run(&g, 1, &central(), |t| order.lock().unwrap().push(t)).unwrap();
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_all_tasks() {
        let g = diamond();
        let stats = run(&g, 2, &central(), |_| {}).unwrap();
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 4);
        assert!(stats.imbalance() >= 1.0);
    }

    #[test]
    fn edgeless_graph_all_parallel() {
        let g = TaskGraph::new(64);
        let hits = AtomicUsize::new(0);
        run(&g, 8, &central(), |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_graph_returns_immediately() {
        let g = TaskGraph::new(0);
        run(&g, 4, &central(), |_| panic!("no tasks to run")).unwrap();
    }

    #[test]
    fn metered_execution_counts_tasks_and_pushes() {
        let g = diamond();
        let (metrics, recorder) = Metrics::recording();
        let stats = run(&g, 2, &central().with_metrics(&metrics), |_| {}).unwrap();
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 4);
        assert_eq!(recorder.get("queue.tasks_executed"), 4);
        // Every task enters the ready queue exactly once.
        assert_eq!(recorder.get("queue.ready_pushes"), 4);
        let hwm = recorder.get("queue.depth_hwm");
        assert!((1..=4).contains(&hwm), "hwm={hwm}");
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let g = diamond();
        let stats = run(&g, 2, &central(), |_| {}).unwrap();
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 4);
    }

    #[test]
    fn instrumented_execution_journals_balanced_task_spans() {
        let g = diamond();
        let tracer = Tracer::new();
        run(&g, 3, &central().with_tracer(&tracer), |_| {}).unwrap();
        let data = tracer.snapshot();
        assert_eq!(data.tracks.len(), 3);
        let spans = npdp_trace::analysis::pair_spans(&data).expect("spans balance");
        let mut task_ids: Vec<u32> = spans
            .iter()
            .filter_map(|s| match s.kind {
                EventKind::Task { id } => Some(id),
                _ => None,
            })
            .collect();
        task_ids.sort_unstable();
        assert_eq!(task_ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn disabled_tracer_registers_no_tracks() {
        let g = diamond();
        let tracer = Tracer::noop();
        run(&g, 2, &central().with_tracer(&tracer), |_| {}).unwrap();
        assert_eq!(tracer.snapshot().tracks.len(), 0);
    }

    // Regression for the latent hang: before the catch_unwind isolation a
    // panicking task closure unwound its worker while `remaining` stayed
    // positive, leaving the other workers snoozing forever inside the scope
    // join. Now it is a typed error.
    #[test]
    fn panicking_task_errors_instead_of_hanging() {
        let g = diamond();
        let err = run(&g, 3, &central(), |t| {
            if t == 2 {
                panic!("boom in task 2");
            }
        })
        .unwrap_err();
        let ExecError::TaskPanicked {
            task,
            attempts,
            message,
        } = err;
        assert_eq!(task, 2);
        assert_eq!(attempts, RetryPolicy::DEFAULT.max_attempts);
        assert!(message.contains("boom"), "message={message}");
    }

    #[test]
    fn panicking_task_panics_cleanly_under_execute() {
        // The task's panic never escapes `run`: it comes back as an error
        // naming the task.
        let g = diamond();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(&g, 2, &central(), |t| {
                if t == 1 {
                    panic!("task 1 fails");
                }
            })
        }));
        let message = caught
            .expect("no panic escapes run")
            .unwrap_err()
            .to_string();
        assert!(message.contains("task 1 panicked"), "message={message}");
    }

    #[test]
    fn transient_panic_is_retried_and_succeeds() {
        let g = diamond();
        let (metrics, recorder) = Metrics::recording();
        let first_try = AtomicBool::new(true);
        let stats = run(&g, 2, &central().with_metrics(&metrics), |t| {
            if t == 3 && first_try.swap(false, Ordering::SeqCst) {
                panic!("transient");
            }
        })
        .unwrap();
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 4);
        assert_eq!(recorder.get("queue.task_panics"), 1);
        assert_eq!(recorder.get("queue.task_retries"), 1);
    }

    #[test]
    fn injected_panics_all_recovered_at_full_rate_with_budget() {
        // TaskPanic at rate 1.0 fires on every attempt — with a budget of 4
        // and a per-(task, attempt) site the run cannot succeed…
        let g = diamond();
        let always = FaultInjector::new(
            npdp_fault::FaultPlan::seeded(9).with_rate(FaultKind::TaskPanic, 1.0),
        );
        let err = run(&g, 2, &central().with_faults(&always), |_| {});
        assert!(err.is_err());

        // …while a moderate rate completes via retries, bit-identically:
        // every task still runs to completion exactly once.
        let some = FaultInjector::new(
            npdp_fault::FaultPlan::seeded(9).with_rate(FaultKind::TaskPanic, 0.4),
        );
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let stats = run(
            &g,
            3,
            &central().with_faults(&some).with_retry(RetryPolicy {
                max_attempts: 16,
                base_backoff: 1,
            }),
            |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 4);
    }
}
