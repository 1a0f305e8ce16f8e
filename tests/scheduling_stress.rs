//! Cross-crate invariant #3 (DESIGN.md §5): the task-queue scheduler is
//! deadlock-free, runs every task exactly once, and never violates a
//! dependence — stressed with many workers, random triangles and random
//! DAGs.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use npdp::exec::{ExecContext, Scheduler};
use npdp::tasks::{
    execute_sequential, run, scheduling_grid, triangle_graph, TaskGraph, TriangleGrid,
};
use npdp_metrics::Metrics;
use proptest::prelude::*;

#[test]
fn tiny_triangles_never_deadlock() {
    // Regression for the notify-twice ready rule: the 1×1 triangle (one
    // root, no edges) and single-row triangles (a pure chain) are the shapes
    // where a double notification or a missed root would deadlock or
    // double-run. Stress both executors with more workers than tasks.
    for m in [1usize, 2, 3] {
        let graph = triangle_graph(m);
        let expected = m * (m + 1) / 2;
        for workers in [1usize, 4, 16] {
            let count = AtomicUsize::new(0);
            run(&graph, workers, &ExecContext::disabled(), |_| {
                count.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(count.load(Ordering::Relaxed), expected, "pool m={m}");
            let count = AtomicUsize::new(0);
            run(
                &graph,
                workers,
                &ExecContext::disabled().with_scheduler(Scheduler::WorkStealing),
                |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap();
            assert_eq!(count.load(Ordering::Relaxed), expected, "steal m={m}");
        }
    }
}

#[test]
fn metered_executors_count_exactly_once_on_edge_shapes() {
    // The metered paths share the ready-rule logic; their task counter is an
    // independent witness that each task ran exactly once.
    for m in [1usize, 2, 5, 9] {
        let graph = triangle_graph(m);
        let expected = (m * (m + 1) / 2) as u64;
        let (metrics, rec) = Metrics::recording();
        run(
            &graph,
            8,
            &ExecContext::disabled().with_metrics(&metrics),
            |_| {},
        )
        .unwrap();
        assert_eq!(rec.get("queue.tasks_executed"), expected, "pool m={m}");
        assert_eq!(rec.get("queue.ready_pushes"), expected, "pushes m={m}");
        let (metrics, rec) = Metrics::recording();
        run(
            &graph,
            8,
            &ExecContext::disabled()
                .with_scheduler(Scheduler::WorkStealing)
                .with_metrics(&metrics),
            |_| {},
        )
        .unwrap();
        assert_eq!(rec.get("queue.tasks_executed"), expected, "steal m={m}");
    }
}

#[test]
fn triangle_execution_respects_full_dependence_set() {
    // For every completed block (r, c), all (r, k) and (k, c) must have
    // completed first — the *semantic* dependences, not just the two edges.
    for m in [1usize, 2, 5, 9, 14] {
        let grid = TriangleGrid::new(m);
        let graph = triangle_graph(m);
        let done: Vec<AtomicU32> = (0..grid.len()).map(|_| AtomicU32::new(0)).collect();
        run(&graph, 8, &ExecContext::disabled(), |t| {
            let (r, c) = grid.coords(t);
            for k in r..c {
                assert_eq!(
                    done[grid.id(r, k)].load(Ordering::SeqCst),
                    1,
                    "({r},{k}) not done before ({r},{c})"
                );
                assert_eq!(
                    done[grid.id(k + 1, c)].load(Ordering::SeqCst),
                    1,
                    "({},{c}) not done before ({r},{c})",
                    k + 1
                );
            }
            done[t].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(done.iter().all(|d| d.load(Ordering::SeqCst) == 1), "m={m}");
    }
}

#[test]
fn scheduling_blocks_respect_dependences_too() {
    let m = 12;
    let grid = TriangleGrid::new(m);
    for sb in [2usize, 3, 5] {
        let sched = scheduling_grid(m, sb);
        let done: Vec<AtomicU32> = (0..grid.len()).map(|_| AtomicU32::new(0)).collect();
        run(&sched.graph, 6, &ExecContext::disabled(), |task| {
            for &(r, c) in &sched.members[task] {
                for k in r..c {
                    assert_eq!(done[grid.id(r, k)].load(Ordering::SeqCst), 1);
                    assert_eq!(done[grid.id(k + 1, c)].load(Ordering::SeqCst), 1);
                }
                done[grid.id(r, c)].fetch_add(1, Ordering::SeqCst);
            }
        })
        .unwrap();
        assert!(
            done.iter().all(|d| d.load(Ordering::SeqCst) == 1),
            "sb={sb}"
        );
    }
}

#[test]
fn repeated_runs_under_contention() {
    // Many more workers than parallelism: the pool must still terminate and
    // count exactly once per task.
    let graph = triangle_graph(20);
    for _ in 0..10 {
        let count = AtomicUsize::new(0);
        run(&graph, 32, &ExecContext::disabled(), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 210);
    }
}

#[test]
fn load_balance_is_reasonable_on_wide_graphs() {
    // An edgeless graph of uniform tasks must spread across workers.
    let graph = TaskGraph::new(4000);
    let stats = run(&graph, 8, &ExecContext::disabled(), |t| {
        std::hint::black_box(t * 17 % 31);
    })
    .unwrap();
    assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 4000);
}

/// Random DAG: tasks 0..n with edges only forward (i → j, i < j).
fn random_dag(n: usize, edges: &[(usize, usize)]) -> TaskGraph {
    let mut g = TaskGraph::new(n);
    for &(a, b) in edges {
        g.add_edge(a, b);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: arbitrary forward DAGs execute every task once with all
    /// predecessors complete, at any worker count.
    #[test]
    fn prop_random_dags_execute_correctly(
        n in 1usize..60,
        edge_seed in any::<u64>(),
        workers in 1usize..12,
    ) {
        let mut s = edge_seed;
        let mut edges = Vec::new();
        for j in 1..n {
            // Up to 3 random predecessors per node.
            for _ in 0..3 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                if s.is_multiple_of(3) {
                    let i = (s >> 33) as usize % j;
                    edges.push((i, j));
                }
            }
        }
        let g = random_dag(n, &edges);
        let done: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        run(&g, workers, &ExecContext::disabled(), |t| {
            for &(a, b) in &edges {
                if b == t {
                    assert_eq!(done[a].load(Ordering::SeqCst), 1);
                }
            }
            done[t].fetch_add(1, Ordering::SeqCst);
        }).unwrap();
        prop_assert!(done.iter().all(|d| d.load(Ordering::SeqCst) == 1));
    }

    /// Property: the sequential executor visits tasks in a valid
    /// topological order of the same graph.
    #[test]
    fn prop_sequential_is_topological(
        n in 1usize..50,
        edge_seed in any::<u64>(),
    ) {
        let mut s = edge_seed;
        let mut edges = Vec::new();
        for j in 1..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            if s.is_multiple_of(2) {
                edges.push(((s >> 33) as usize % j, j));
            }
        }
        let g = random_dag(n, &edges);
        let mut pos = vec![usize::MAX; n];
        let mut counter = 0usize;
        execute_sequential(&g, |t| {
            pos[t] = counter;
            counter += 1;
        });
        for &(a, b) in &edges {
            prop_assert!(pos[a] < pos[b]);
        }
    }

    /// Property: scheduling grids tile the triangle exactly for arbitrary
    /// (m, sb).
    #[test]
    fn prop_scheduling_grid_partitions(
        m in 1usize..30,
        sb in 1usize..8,
    ) {
        let grid = TriangleGrid::new(m);
        let sched = scheduling_grid(m, sb);
        let mut seen = vec![false; grid.len()];
        for task in &sched.members {
            for &(r, c) in task {
                let id = grid.id(r, c);
                prop_assert!(!seen[id]);
                seen[id] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }
}
