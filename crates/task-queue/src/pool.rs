//! The central-queue discipline of [`crate::driver::run`] (the paper's
//! Fig. 8 PPE procedure): every worker plays the SPE role against one
//! shared ready queue; notification counters are atomics, so completion
//! handling is distributed over the workers instead of funnelled through one
//! PPE thread (on the CPU platform the paper likewise lets "all cores
//! cooperatively manage the task queue", §VI-B).
//!
//! Its behaviour tests, each one of the driver's shared checks
//! (`crate::driver::tests`) on this discipline.

mod tests {
    use crate::driver::tests::*;
    use npdp_exec::Scheduler;

    const S: Scheduler = Scheduler::CentralQueue;

    #[test]
    fn executes_every_task_once() {
        check_runs_in_order(S);
    }

    #[test]
    fn respects_dependences() {
        check_runs_in_order(S);
    }

    #[test]
    fn sequential_matches_topological_order() {
        check_sequential();
    }

    #[test]
    fn single_worker_completes_large_chain() {
        check_one_worker(S);
    }

    #[test]
    fn stats_count_all_tasks() {
        check_runs_in_order(S);
    }

    #[test]
    fn edgeless_graph_all_parallel() {
        check_runs_in_order(S);
    }

    #[test]
    fn empty_graph_returns_immediately() {
        check_empty(S);
    }

    #[test]
    fn metered_execution_counts_tasks_and_pushes() {
        check_metric_vocabulary(S);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        check_runs_in_order(S);
    }

    #[test]
    fn instrumented_execution_journals_balanced_task_spans() {
        check_trace(S);
    }

    #[test]
    fn disabled_tracer_registers_no_tracks() {
        check_trace(S);
    }

    #[test]
    fn panicking_task_errors_instead_of_hanging() {
        check_panics(S);
    }

    #[test]
    fn panicking_task_panics_cleanly_under_execute() {
        check_panics(S);
    }

    #[test]
    fn transient_panic_is_retried_and_succeeds() {
        check_panics(S);
    }

    #[test]
    fn injected_panics_all_recovered_at_full_rate_with_budget() {
        check_injected_panics(S);
    }
}
