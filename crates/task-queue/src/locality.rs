//! The locality-aware discipline of [`crate::driver::run`] — the
//! scheduling half of the diagonal-batched discipline (see
//! [`crate::triangle::diagonal_batched_grid`]).
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
//! Its behaviour tests, each one of the driver's shared checks
//! (`crate::driver::tests`) on this discipline.

mod tests {
    use crate::driver::tests::*;
    use npdp_exec::Scheduler;

    const S: Scheduler = Scheduler::LocalityBatched;

    #[test]
    fn executes_every_task_once() {
        check_runs_in_order(S);
    }

    #[test]
    fn respects_dependences() {
        check_runs_in_order(S);
    }

    #[test]
    fn single_worker_serial_and_all_hits() {
        check_one_worker(S);
        check_metric_vocabulary(S);
    }

    #[test]
    fn empty_graph() {
        check_empty(S);
    }

    #[test]
    fn affinity_counters_partition_non_roots() {
        check_metric_vocabulary(S);
    }

    #[test]
    fn runs_the_batched_grid() {
        check_runs_in_order(S);
    }

    #[test]
    fn panicking_task_errors_instead_of_hanging() {
        check_panics(S);
    }

    #[test]
    fn injected_panics_recovered_by_retry() {
        check_injected_panics(S);
    }
}
