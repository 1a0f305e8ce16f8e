//! The work-stealing discipline of [`crate::driver::run`]: per-worker LIFO
//! deques plus a global injector, round-robin stealing.
//!
//! Its behaviour tests, each one of the driver's shared checks
//! (`crate::driver::tests`) on this discipline.

mod tests {
    use crate::driver::tests::*;
    use npdp_exec::Scheduler;

    const S: Scheduler = Scheduler::WorkStealing;

    #[test]
    fn executes_every_task_once() {
        check_runs_in_order(S);
    }

    #[test]
    fn respects_dependences() {
        check_runs_in_order(S);
    }

    #[test]
    fn single_worker_serial() {
        check_one_worker(S);
    }

    #[test]
    fn empty_graph() {
        check_empty(S);
    }

    #[test]
    fn metered_stealing_counts_tasks_and_sources() {
        check_metric_vocabulary(S);
    }

    #[test]
    fn instrumented_stealing_journals_balanced_task_spans() {
        check_trace(S);
    }

    #[test]
    fn panicking_task_errors_instead_of_hanging() {
        check_panics(S);
    }

    #[test]
    fn transient_panic_is_retried_and_succeeds() {
        check_panics(S);
    }

    #[test]
    fn injected_panics_recovered_by_retry() {
        check_injected_panics(S);
    }

    #[test]
    fn matches_central_queue_results() {
        check_runs_in_order(S);
    }
}
