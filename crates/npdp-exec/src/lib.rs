//! The unified execution context shared by every CellNPDP execution layer.
//!
//! Four PRs of instrumentation (metrics, tracing, fault injection, tuning)
//! each grew a parallel copy of every hot path — `solve` / `solve_metered` /
//! `solve_traced` / …, `execute` / `execute_metered` / … — a combinatorial
//! API surface in which the copies could drift apart. Following the
//! scheduler-composition literature (Dinh & Simhadri's nested-dataflow
//! schedulers, arXiv:1602.04552), instrumentation and scheduling policy are
//! better treated as *parameters of one execution model* than as forked code
//! paths.
//!
//! [`ExecContext`] is that parameter bundle: a cheap, cloneable set of
//! handles — [`Metrics`], [`Tracer`], [`FaultInjector`], [`RetryPolicy`],
//! [`Scheduler`], [`Tuning`] — where every component defaults to its
//! zero-overhead disabled mode (each disabled handle costs one untaken
//! branch per event). The engines (`npdp-core`), the task-queue driver and
//! the Cell simulator (`cell-sim`) each expose exactly one generic entry
//! point taking an `&ExecContext`.
//!
//! ```
//! use npdp_exec::{ExecContext, Scheduler};
//! use npdp_metrics::Metrics;
//!
//! // Fully disabled: every handle is a no-op.
//! let ctx = ExecContext::disabled();
//! assert!(!ctx.metrics.enabled());
//!
//! // Opt into the pieces you need; all handles are cheap clones.
//! let (metrics, recorder) = Metrics::recording();
//! let ctx = ExecContext::disabled()
//!     .with_metrics(&metrics)
//!     .with_scheduler(Scheduler::WorkStealing);
//! assert!(ctx.metrics.enabled());
//! # let _ = recorder;
//! ```

pub use npdp_fault::{FaultInjector, RetryPolicy};
pub use npdp_metrics::Metrics;
pub use npdp_trace::Tracer;

/// Scheduling discipline of the parallel tier.
///
/// Lives here (rather than in `npdp-core`) so the task-queue driver can
/// dispatch on it without a dependency cycle; `npdp_core::Scheduler` remains
/// available as a re-export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// One shared FIFO ready queue — the paper's PPE task-queue model.
    #[default]
    CentralQueue,
    /// Per-worker deques with work stealing — the modern alternative,
    /// kept as an ablation axis.
    WorkStealing,
    /// Locality-aware batched discipline: trailing starved diagonals are
    /// merged into one scheduling batch (`task_queue::diagonal_batched_grid`)
    /// and a finished task's first ready successor stays on the worker that
    /// just produced its operand blocks (`task_queue::driver`).
    LocalityBatched,
    /// Barrier-free pipelined discipline (Matsumae/Miyazaki's GPU pipeline,
    /// arXiv:2008.01938, mapped onto the task queue): a block becomes
    /// claimable the instant its left and below producers complete — no
    /// diagonal barrier, no trailing-batch merge — with rate-matching so a
    /// producer diagonal never runs more than `lookahead` diagonals ahead of
    /// its slowest consumer, bounding the live operand working set.
    Pipelined {
        /// Maximum number of diagonals a producer may run ahead of the
        /// oldest incomplete diagonal. `1` degenerates to a strict diagonal
        /// barrier; must be at least 1 (the driver clamps 0 up to 1).
        lookahead: usize,
    },
}

impl Scheduler {
    /// Default rate-matching window for [`Scheduler::Pipelined`]: deep
    /// enough to overlap a diagonal's ramp with its predecessor's tail,
    /// shallow enough to keep at most three diagonals of operands live
    /// (the double-buffering analogue at wavefront granularity).
    pub const DEFAULT_LOOKAHEAD: usize = 2;

    /// [`Scheduler::Pipelined`] with [`Scheduler::DEFAULT_LOOKAHEAD`].
    pub fn pipelined() -> Self {
        Self::Pipelined {
            lookahead: Self::DEFAULT_LOOKAHEAD,
        }
    }
}

/// Block-size selection mode for engines that support the model-driven
/// autotuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tuning {
    /// Use the engine's configured block side as-is.
    #[default]
    Fixed,
    /// Let the engine pick its memory-block side from the §V performance
    /// model. Engines without a tuner ignore this.
    Auto,
}

/// A cheap, cloneable bundle of every execution-layer parameter: where to
/// record counters, where to journal the timeline, which faults to inject
/// and how to retry them, which ready-queue discipline to run, and whether
/// to autotune the block size.
///
/// [`ExecContext::disabled`] (also [`Default`]) disables every component, so
/// passing it reproduces the legacy uninstrumented paths bit-identically and
/// within measurement noise of their cost.
#[derive(Debug, Clone, Default)]
pub struct ExecContext {
    /// Counter/timer sink; `Metrics::noop()` when disabled.
    pub metrics: Metrics,
    /// Span/instant journal; `Tracer::noop()` when disabled.
    pub tracer: Tracer,
    /// Deterministic fault injector; `FaultInjector::noop()` when disabled.
    /// Clones share the underlying decision plan and counters.
    pub faults: FaultInjector,
    /// Retry budget applied when `faults` (or a real failure) trips a
    /// recoverable path.
    pub retry: RetryPolicy,
    /// Ready-queue discipline for the parallel tier.
    pub scheduler: Scheduler,
    /// Block-size selection mode.
    pub tuning: Tuning,
}

impl ExecContext {
    /// Every component in its zero-overhead disabled mode. Identical to
    /// [`ExecContext::default`]; the name documents intent at call sites.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Record counters and timers into `metrics` (cheap handle clone).
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// Journal spans and instants into `tracer` (cheap handle clone).
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Inject faults per `faults`' plan; the clone shares its counters, so
    /// the caller's handle still observes everything injected under this
    /// context.
    pub fn with_faults(mut self, faults: &FaultInjector) -> Self {
        self.faults = faults.clone();
        self
    }

    /// Override the retry budget.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Select the parallel tier's ready-queue discipline.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Let tuning-capable engines pick their block side from the
    /// performance model.
    pub fn autotuned(mut self) -> Self {
        self.tuning = Tuning::Auto;
        self
    }

    /// Select the block-size tuning mode explicitly — the conditional
    /// spelling of [`ExecContext::autotuned`] for callers that decide per
    /// run (e.g. a serving layer that autotunes only the large-problem
    /// tier).
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// True when any observability component (metrics or tracer) is live —
    /// the hot loops use this to skip instrumentation-only work.
    pub fn observed(&self) -> bool {
        self.metrics.enabled() || self.tracer.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npdp_fault::{FaultKind, FaultPlan};

    #[test]
    fn disabled_context_disables_every_component() {
        let ctx = ExecContext::disabled();
        assert!(!ctx.metrics.enabled());
        assert!(!ctx.tracer.enabled());
        assert!(!ctx.faults.enabled());
        assert_eq!(ctx.retry, RetryPolicy::DEFAULT);
        assert_eq!(ctx.scheduler, Scheduler::CentralQueue);
        assert_eq!(ctx.tuning, Tuning::Fixed);
        assert!(!ctx.observed());
    }

    #[test]
    fn builders_set_each_component() {
        let (metrics, _recorder) = Metrics::recording();
        let tracer = Tracer::new();
        let faults = FaultInjector::new(FaultPlan::seeded(1).with_rate(FaultKind::TaskPanic, 0.5));
        let retry = RetryPolicy {
            max_attempts: 7,
            base_backoff: 3,
        };
        let ctx = ExecContext::disabled()
            .with_metrics(&metrics)
            .with_tracer(&tracer)
            .with_faults(&faults)
            .with_retry(retry)
            .with_scheduler(Scheduler::LocalityBatched)
            .autotuned();
        assert_eq!(
            ExecContext::disabled().with_tuning(Tuning::Auto).tuning,
            Tuning::Auto
        );
        assert_eq!(
            ExecContext::disabled().with_tuning(Tuning::Fixed).tuning,
            Tuning::Fixed
        );
        assert!(ctx.metrics.enabled());
        assert!(ctx.tracer.enabled());
        assert!(ctx.faults.enabled());
        assert_eq!(ctx.retry, retry);
        assert_eq!(ctx.scheduler, Scheduler::LocalityBatched);
        assert_eq!(ctx.tuning, Tuning::Auto);
        assert!(ctx.observed());
    }

    #[test]
    fn pipelined_helper_uses_default_lookahead() {
        assert_eq!(
            Scheduler::pipelined(),
            Scheduler::Pipelined {
                lookahead: Scheduler::DEFAULT_LOOKAHEAD
            }
        );
        const { assert!(Scheduler::DEFAULT_LOOKAHEAD >= 1) };
        assert_eq!(
            ExecContext::disabled()
                .with_scheduler(Scheduler::pipelined())
                .scheduler,
            Scheduler::pipelined()
        );
    }

    #[test]
    fn fault_clone_shares_counters() {
        let faults = FaultInjector::new(FaultPlan::seeded(2).with_rate(FaultKind::TaskPanic, 1.0));
        let ctx = ExecContext::disabled().with_faults(&faults);
        assert!(ctx.faults.should_inject(FaultKind::TaskPanic, 7));
        assert_eq!(faults.injected(FaultKind::TaskPanic), 1);
    }
}
