//! The one generic executor driving every scheduling discipline.
//!
//! Every discipline shares the whole notify/claim/retry/abort protocol and
//! differs only in how tasks enter, leave and revisit the ready set. [`run`]
//! keeps exactly one copy of the worker loop and dispatches the ready-set
//! discipline on [`ExecContext::scheduler`]. Beside it live what a run
//! reports ([`ExecStats`], [`ExecError`]) and the deterministic
//! [`execute_sequential`] reference.
//!
//! Per-discipline semantics are preserved exactly, including the metric
//! vocabulary each one historically emitted:
//!
//! * [`Scheduler::CentralQueue`] — one shared FIFO; every insertion
//!   (roots included) counts `queue.ready_pushes` and updates
//!   `queue.depth_hwm`.
//! * [`Scheduler::WorkStealing`] — per-worker LIFO deques + global
//!   injector; roots enter through the injector uncounted, pickups count
//!   `queue.injector_steals`, deque-to-deque transfers count `queue.steals`
//!   (with a `Steal` trace instant).
//! * [`Scheduler::LocalityBatched`] — the stealing discipline plus operand
//!   affinity: the first successor readied by a completion stays on the
//!   finishing worker's deque, the rest go global, and pickups are scored
//!   as `queue.affinity_hits` / `queue.affinity_misses` against the worker
//!   that produced their operands.
//! * [`Scheduler::Pipelined`] — depth-bucketed dataflow release with a
//!   bounded lookahead window (no diagonal barrier, no trailing-batch
//!   merge); non-root insertions count `queue.ready_pushes`, each fully
//!   retired depth counts `queue.frontier_advances`, and a claim round
//!   that found work only beyond the rate-matching window counts
//!   `queue.lookahead_stalls`.
//!
//! Abort protocol: the first terminal task failure wins the error slot and
//! raises the abort flag; every worker re-checks the flag **after** each
//! claim (a claim can race the abort store) and before each retry requeue,
//! so no task body starts once abort is observed — surrendered claims
//! count `queue.aborted_claims`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use crossbeam::queue::SegQueue;
use crossbeam::utils::Backoff;
use npdp_exec::{ExecContext, Scheduler};
use npdp_fault::{site2, FaultKind};
use npdp_metrics::Metrics;
use npdp_trace::{EventKind, Tracer, Track, TrackDesc};

use crate::graph::TaskGraph;

/// Typed failure of a [`run`]: the retry budget for a panicking task ran
/// out and the workers shut down cleanly (no hang, no escaped panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Task `task` panicked on every one of its `attempts` attempts.
    TaskPanicked {
        /// Graph index of the failing task.
        task: usize,
        /// Attempts made (first run + retries).
        attempts: u32,
        /// Panic payload of the last attempt, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::TaskPanicked {
                task,
                attempts,
                message,
            } => write!(
                f,
                "task {task} panicked on all {attempts} attempts: {message}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Per-execution statistics, used by load-balance tests and the experiment
/// harness.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Tasks executed by each worker.
    pub tasks_per_worker: Vec<usize>,
}

impl ExecStats {
    /// Stats of an execution that never used the task queue (single-threaded
    /// engines): no workers, perfect balance.
    pub fn serial() -> Self {
        Self {
            tasks_per_worker: Vec::new(),
        }
    }

    /// Ratio of the busiest worker to the ideal even share; 1.0 is perfect.
    pub fn imbalance(&self) -> f64 {
        let total: usize = self.tasks_per_worker.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *self.tasks_per_worker.iter().max().unwrap();
        max as f64 * self.tasks_per_worker.len() as f64 / total as f64
    }
}

/// Deterministic single-threaded executor: runs tasks in a fixed topological
/// order (Kahn with a LIFO ready stack). Reference semantics for tests.
pub fn execute_sequential<F>(graph: &TaskGraph, mut task: F)
where
    F: FnMut(usize),
{
    let order = graph.topological_order().expect("task graph has a cycle");
    for t in order {
        task(t);
    }
}

/// No worker recorded yet (roots, or tasks not yet ready).
const NO_WORKER: u32 = u32::MAX;

/// Clamp a `u128` nanosecond total into the `u64` counter domain.
///
/// Idle/wall accounting accumulates in `u128` (`Duration::as_nanos`' native
/// width) and saturates once, at the metrics boundary — a long-lived server
/// process must never see `queue.worker_idle_ns` silently wrap back to a
/// small number after ~584 years of accumulated idle across its workers.
pub fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Ready-set discipline: how tasks enter, leave and revisit the ready set.
/// Exactly one worker-loop body exists (in [`drive`]); the disciplines
/// differ only in these hooks.
trait Discipline: Sync {
    /// Per-worker ready-set state (a deque handle, or nothing).
    type Local: Send;

    /// Claim the next task for worker `w`: local work first, then whatever
    /// sharing protocol the discipline uses. `None` means "idle for now".
    fn next(
        &self,
        w: usize,
        local: &Self::Local,
        metrics: &Metrics,
        tracer: &Tracer,
        track: Track,
    ) -> Option<u32>;

    /// Called once per claimed task before it runs (affinity accounting).
    fn claimed(&self, _w: usize, _t: u32, _metrics: &Metrics) {}

    /// Publish a newly-ready task. `first` is true for the first successor
    /// readied by the current completion.
    fn ready(&self, w: usize, local: &Self::Local, t: u32, first: bool, metrics: &Metrics);

    /// Requeue a failed task for retry on the same worker (uncounted here;
    /// the loop already counted `queue.task_retries`).
    fn retry(&self, w: usize, local: &Self::Local, t: u32);

    /// Called once after a task's body succeeds and its successors have
    /// been notified (completion bookkeeping; the pipelined discipline
    /// advances its rate-matching frontier here).
    fn completed(&self, _t: u32, _metrics: &Metrics) {}
}

/// The paper's PPE model: one shared lock-free FIFO.
struct Central {
    ready: SegQueue<u32>,
}

impl Discipline for Central {
    type Local = ();

    fn next(
        &self,
        _w: usize,
        _local: &(),
        _metrics: &Metrics,
        _tracer: &Tracer,
        _track: Track,
    ) -> Option<u32> {
        self.ready.pop()
    }

    fn ready(&self, _w: usize, _local: &(), t: u32, _first: bool, metrics: &Metrics) {
        self.ready.push(t);
        metrics.add("queue.ready_pushes", 1);
        metrics.record_max("queue.depth_hwm", self.ready.len() as u64);
    }

    fn retry(&self, _w: usize, _local: &(), t: u32) {
        self.ready.push(t);
    }
}

/// Per-worker LIFO deques with a global injector — plain work stealing, or
/// the locality-aware refinement when `locality` is set.
struct Deques {
    injector: Injector<u32>,
    stealers: Vec<Stealer<u32>>,
    /// Worker whose completion made each task ready; empty unless
    /// `locality`.
    ready_by: Vec<AtomicU32>,
    locality: bool,
}

impl Discipline for Deques {
    type Local = Worker<u32>;

    fn next(
        &self,
        w: usize,
        local: &Worker<u32>,
        metrics: &Metrics,
        tracer: &Tracer,
        track: Track,
    ) -> Option<u32> {
        // Local deque first, then the global queue, then steal round-robin;
        // keep searching while any source reports a racing Retry.
        local.pop().or_else(|| 'search: loop {
            let mut contended = false;
            match self.injector.steal_batch_and_pop(local) {
                Steal::Success(t) => {
                    metrics.add("queue.injector_steals", 1);
                    break 'search Some(t);
                }
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
            for (i, stealer) in self.stealers.iter().enumerate() {
                if i == w {
                    continue;
                }
                match stealer.steal() {
                    Steal::Success(t) => {
                        metrics.add("queue.steals", 1);
                        tracer.instant(track, EventKind::Steal { task: t });
                        break 'search Some(t);
                    }
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if !contended {
                break 'search None;
            }
        })
    }

    fn claimed(&self, w: usize, t: u32, metrics: &Metrics) {
        if self.locality {
            let producer = self.ready_by[t as usize].load(Ordering::Relaxed);
            if producer != NO_WORKER {
                if producer == w as u32 {
                    metrics.add("queue.affinity_hits", 1);
                } else {
                    metrics.add("queue.affinity_misses", 1);
                }
            }
        }
    }

    fn ready(&self, w: usize, local: &Worker<u32>, t: u32, first: bool, metrics: &Metrics) {
        if self.locality {
            self.ready_by[t as usize].store(w as u32, Ordering::Relaxed);
            // First ready successor inherits the hot operands; the rest go
            // global for idle workers.
            if first {
                local.push(t);
            } else {
                self.injector.push(t);
            }
        } else {
            local.push(t);
        }
        metrics.add("queue.ready_pushes", 1);
    }

    fn retry(&self, _w: usize, local: &Worker<u32>, t: u32) {
        local.push(t);
    }
}

/// Barrier-free pipelined discipline ([`Scheduler::Pipelined`]): ready
/// tasks are bucketed by their longest-path depth (the diagonal index on
/// the triangular grid) and released the instant their predecessors
/// complete, with rate-matching between producer and consumer diagonals. A
/// task of depth `d` is claimable only while `d < frontier + lookahead`,
/// where `frontier` is the oldest incomplete depth; claims scan buckets
/// oldest-first, so consumer diagonals drain before producers sprint ahead
/// and at most `lookahead + 1` diagonals of operand blocks are ever live.
/// `lookahead == 1` degenerates to a strict diagonal barrier.
struct Pipelined {
    /// Ready tasks bucketed by depth.
    buckets: Vec<SegQueue<u32>>,
    /// Longest-path depth of every task.
    depth: Vec<u32>,
    /// Task count per depth.
    total: Vec<u32>,
    /// Completed-task count per depth.
    done: Vec<AtomicU32>,
    /// Oldest depth not yet fully completed.
    frontier: AtomicUsize,
    /// Rate-matching window (≥ 1).
    lookahead: usize,
}

impl Pipelined {
    fn new(graph: &TaskGraph, lookahead: usize) -> Self {
        let depth = graph.depths().expect("task graph has a cycle");
        let levels = depth.iter().map(|&d| d as usize + 1).max().unwrap_or(0);
        let mut total = vec![0u32; levels];
        for &d in &depth {
            total[d as usize] += 1;
        }
        Self {
            buckets: (0..levels).map(|_| SegQueue::new()).collect(),
            depth,
            total,
            done: (0..levels).map(|_| AtomicU32::new(0)).collect(),
            frontier: AtomicUsize::new(0),
            lookahead: lookahead.max(1),
        }
    }
}

impl Discipline for Pipelined {
    type Local = ();

    fn next(
        &self,
        _w: usize,
        _local: &(),
        metrics: &Metrics,
        _tracer: &Tracer,
        _track: Track,
    ) -> Option<u32> {
        // A stale (low) frontier read only narrows the window — the scan
        // then finds nothing in already-drained buckets and the next round
        // reloads a fresh value. Progress is guaranteed because a task on
        // the frontier depth is always inside the window.
        let f = self.frontier.load(Ordering::Acquire);
        let hi = (f + self.lookahead).min(self.buckets.len());
        for bucket in &self.buckets[f..hi] {
            if let Some(t) = bucket.pop() {
                return Some(t);
            }
        }
        // Work beyond the window means the rate-matcher is holding a
        // producer diagonal back for its slowest consumer.
        if metrics.enabled() && self.buckets[hi..].iter().any(|b| !b.is_empty()) {
            metrics.add("queue.lookahead_stalls", 1);
        }
        None
    }

    fn ready(&self, _w: usize, _local: &(), t: u32, _first: bool, metrics: &Metrics) {
        self.buckets[self.depth[t as usize] as usize].push(t);
        metrics.add("queue.ready_pushes", 1);
    }

    fn retry(&self, _w: usize, _local: &(), t: u32) {
        self.buckets[self.depth[t as usize] as usize].push(t);
    }

    fn completed(&self, t: u32, metrics: &Metrics) {
        let d = self.depth[t as usize] as usize;
        if self.done[d].fetch_add(1, Ordering::AcqRel) + 1 < self.total[d] {
            return;
        }
        // This completion retired depth `d`; roll the frontier forward over
        // every fully-completed depth. The CAS makes each single-step
        // advance happen exactly once globally, so `queue.frontier_advances`
        // totals the number of depths deterministically.
        let mut f = self.frontier.load(Ordering::Acquire);
        while f < self.total.len() && self.done[f].load(Ordering::Acquire) >= self.total[f] {
            match self
                .frontier
                .compare_exchange(f, f + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    metrics.add("queue.frontier_advances", 1);
                    f += 1;
                }
                Err(cur) => f = cur,
            }
        }
    }
}

/// Execute every task of `graph` exactly once, respecting dependences, on
/// `workers` threads — the calling thread runs worker 0 and `workers - 1`
/// scoped threads run the rest, so `workers == 1` starts no thread — under
/// the policies of `ctx`: the ready-set discipline
/// comes from [`ExecContext::scheduler`], counters go to
/// [`ExecContext::metrics`] (`queue.*`), the timeline to
/// [`ExecContext::tracer`] (one `Worker` track per thread, `Task`/`Idle`
/// spans, `Steal`/`Fault` instants), and task panics — injected via
/// [`ExecContext::faults`] with [`FaultKind::TaskPanic`], or real — are
/// caught, counted (`queue.task_panics`), and retried up to
/// [`ExecContext::retry`]`.max_attempts` total attempts
/// (`queue.task_retries`). On budget exhaustion every worker shuts down and
/// the result is [`ExecError::TaskPanicked`] — the driver never hangs and
/// never lets a panic escape. Injected panics fire *before* the task body,
/// so a retried task replays from a clean slate and a recovered run stays
/// bit-identical.
///
/// `task` is invoked with the task index. Every disabled context component
/// costs one untaken branch per event, so
/// `run(g, w, &ExecContext::disabled(), f)` performs like the historical
/// plain `execute`.
pub fn run<F>(
    graph: &TaskGraph,
    workers: usize,
    ctx: &ExecContext,
    task: F,
) -> Result<ExecStats, ExecError>
where
    F: Fn(usize) + Sync,
{
    assert!(workers >= 1, "need at least one worker");
    assert!(
        ctx.retry.max_attempts >= 1,
        "retry budget must allow one attempt"
    );
    let n = graph.len();
    if n == 0 {
        return Ok(ExecStats {
            tasks_per_worker: vec![0; workers],
        });
    }
    debug_assert!(
        graph.topological_order().is_some(),
        "task graph has a cycle"
    );

    match ctx.scheduler {
        Scheduler::CentralQueue => {
            let ready = SegQueue::new();
            for t in graph.roots() {
                ready.push(t as u32);
                ctx.metrics.add("queue.ready_pushes", 1);
            }
            ctx.metrics
                .record_max("queue.depth_hwm", ready.len() as u64);
            let locals = std::iter::repeat_with(|| ()).take(workers).collect();
            drive(graph, workers, ctx, &Central { ready }, locals, task)
        }
        Scheduler::Pipelined { lookahead } => {
            let pipelined = Pipelined::new(graph, lookahead);
            // Roots all sit at depth 0 and enter uncounted, matching the
            // stealing vocabulary (`queue.ready_pushes` excludes roots).
            for t in graph.roots() {
                pipelined.buckets[0].push(t as u32);
            }
            let locals = std::iter::repeat_with(|| ()).take(workers).collect();
            drive(graph, workers, ctx, &pipelined, locals, task)
        }
        sched => {
            let injector = Injector::new();
            for t in graph.roots() {
                injector.push(t as u32);
            }
            let locals: Vec<Worker<u32>> = (0..workers).map(|_| Worker::new_lifo()).collect();
            let stealers = locals.iter().map(Worker::stealer).collect();
            let locality = sched == Scheduler::LocalityBatched;
            let ready_by = if locality {
                (0..n).map(|_| AtomicU32::new(NO_WORKER)).collect()
            } else {
                Vec::new()
            };
            let deques = Deques {
                injector,
                stealers,
                ready_by,
                locality,
            };
            drive(graph, workers, ctx, &deques, locals, task)
        }
    }
}

/// The single worker-loop body shared by every discipline.
fn drive<F, D>(
    graph: &TaskGraph,
    workers: usize,
    ctx: &ExecContext,
    discipline: &D,
    locals: Vec<D::Local>,
    task: F,
) -> Result<ExecStats, ExecError>
where
    F: Fn(usize) + Sync,
    D: Discipline,
{
    let n = graph.len();
    let metrics = &ctx.metrics;
    let tracer = &ctx.tracer;
    let faults = &ctx.faults;
    let retry = ctx.retry;

    // Remaining notify counts per task; a task becomes ready when this hits
    // zero.
    let pending: Vec<AtomicU32> = (0..n)
        .map(|t| AtomicU32::new(graph.pred_count(t)))
        .collect();
    let attempts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let aborted = AtomicBool::new(false);
    let failure: Mutex<Option<ExecError>> = Mutex::new(None);
    let remaining = AtomicUsize::new(n);
    let tracks: Vec<_> = (0..workers)
        .map(|w| tracer.register(TrackDesc::worker(format!("worker {w}"), w as u32)))
        .collect();

    // One worker's loop, returning the number of tasks it executed.
    // Workers `1..` run it on scoped threads; the calling thread runs
    // worker 0 itself, so a one-worker run starts no thread and its caller
    // keeps its warm thread-local state (allocator arena, kernel scratch)
    // across runs.
    let worker = |w: usize, local: D::Local| -> usize {
        let track = tracks[w];
        let _bind = tracer.bind_thread(track);
        let backoff = Backoff::new();
        let observed = metrics.enabled() || tracer.enabled();
        let mut idle_ns: u128 = 0;
        let mut executed = 0;
        // One `Idle` span per idle stretch: from the first missed
        // claim to the next claim or to the worker's exit, however
        // many back-off rounds it spans.
        let mut idle_since: Option<Instant> = None;
        let mut end_idle = |idle_since: &mut Option<Instant>| {
            if let Some(start) = idle_since.take() {
                idle_ns += start.elapsed().as_nanos();
                tracer.end(track, EventKind::Idle);
            }
        };
        loop {
            if aborted.load(Ordering::Acquire) {
                break;
            }
            match discipline.next(w, &local, metrics, tracer, track) {
                Some(t) => {
                    end_idle(&mut idle_since);
                    backoff.reset();
                    // Re-check the abort flag after the claim: the
                    // claim can race another worker's terminal
                    // failure (the flag was clear at the loop top),
                    // and no task body may start once abort is
                    // observed. The claim is surrendered, not
                    // requeued — the run is returning Err and every
                    // ready queue dies with it.
                    if aborted.load(Ordering::Acquire) {
                        metrics.add("queue.aborted_claims", 1);
                        break;
                    }
                    discipline.claimed(w, t, metrics);
                    let attempt = attempts[t as usize].load(Ordering::Relaxed);
                    tracer.begin(track, EventKind::Task { id: t });
                    // Injected panics fire before the body touches
                    // anything, so retrying them is side-effect free.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if faults
                            .should_inject(FaultKind::TaskPanic, site2(t as u64, attempt as u64))
                        {
                            panic!("injected task panic");
                        }
                        task(t as usize)
                    }));
                    tracer.end(track, EventKind::Task { id: t });
                    match outcome {
                        Ok(()) => {
                            executed += 1;
                            metrics.add("queue.tasks_executed", 1);
                            // Notify successors; Release pairs with
                            // the Acquire below so a worker picking
                            // up a newly-ready task sees all writes
                            // made while computing its predecessors.
                            let mut first = true;
                            for &s in graph.successors(t as usize) {
                                if pending[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    discipline.ready(w, &local, s, first, metrics);
                                    first = false;
                                }
                            }
                            discipline.completed(t, metrics);
                            remaining.fetch_sub(1, Ordering::Release);
                        }
                        Err(payload) => {
                            faults.count_task_panic();
                            metrics.add("queue.task_panics", 1);
                            tracer.instant(
                                track,
                                EventKind::Fault {
                                    code: FaultKind::TaskPanic.code(),
                                },
                            );
                            let made = attempts[t as usize].fetch_add(1, Ordering::Relaxed) + 1;
                            if made < retry.max_attempts {
                                // A retry consults the abort flag
                                // before requeueing: handing the
                                // task back to a dying run could
                                // let a worker that has not yet
                                // observed the flag start its body.
                                if aborted.load(Ordering::Acquire) {
                                    metrics.add("queue.aborted_claims", 1);
                                    break;
                                }
                                metrics.add("queue.task_retries", 1);
                                discipline.retry(w, &local, t);
                            } else {
                                // First terminal failure wins the
                                // slot; a concurrent exhaustion on
                                // another worker must not replace
                                // the error the caller sees.
                                let mut slot = failure.lock().unwrap();
                                if slot.is_none() {
                                    *slot = Some(ExecError::TaskPanicked {
                                        task: t as usize,
                                        attempts: made,
                                        message: panic_message(payload),
                                    });
                                }
                                drop(slot);
                                aborted.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                }
                None => {
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    if observed && idle_since.is_none() {
                        tracer.begin(track, EventKind::Idle);
                        idle_since = Some(Instant::now());
                    }
                    backoff.snooze();
                }
            }
        }
        end_idle(&mut idle_since);
        if idle_ns > 0 {
            metrics.add("queue.worker_idle_ns", saturating_ns(idle_ns));
        }
        executed
    };

    let tasks_per_worker = std::thread::scope(|scope| {
        let mut locals = locals.into_iter();
        let first = locals.next().expect("at least one worker");
        let spawned: Vec<_> = locals
            .enumerate()
            .map(|(w, local)| {
                let worker = &worker;
                scope.spawn(move || worker(w + 1, local))
            })
            .collect();
        let mut counts = vec![worker(0, first)];
        // Task panics are caught inside the loop, so a worker thread
        // panicking is a driver bug: re-raise it on the caller.
        counts.extend(
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        counts
    });

    if let Some(err) = failure.into_inner().unwrap() {
        return Err(err);
    }
    Ok(ExecStats { tasks_per_worker })
}

#[cfg(test)]
pub(crate) mod tests {
    //! Behaviour checks of [`run`], each a function of the discipline. The
    //! tests here run every check under every discipline; the
    //! per-discipline test modules (`pool`, `stealing`, `locality`) call
    //! the checks for theirs.

    use super::*;
    use crate::triangle::{diagonal_batched_grid, triangle_graph};
    use npdp_fault::{FaultInjector, FaultPlan, RetryPolicy};

    /// Every discipline.
    fn all() -> [Scheduler; 4] {
        [
            Scheduler::CentralQueue,
            Scheduler::WorkStealing,
            Scheduler::LocalityBatched,
            Scheduler::pipelined(),
        ]
    }

    fn ctx(sched: Scheduler) -> ExecContext {
        ExecContext::disabled().with_scheduler(sched)
    }

    /// 0 → {1, 2} → 3.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new(4);
        for (from, to) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(from, to);
        }
        g
    }

    /// 0 → 1 → … → `len − 1`.
    fn chain(len: usize) -> TaskGraph {
        let mut g = TaskGraph::new(len);
        for t in 1..len {
            g.add_edge(t - 1, t);
        }
        g
    }

    /// Whether `order` holds every task of `g` once, each after all its
    /// predecessors.
    fn is_dependence_order(g: &TaskGraph, order: &[usize]) -> bool {
        let mut seen = vec![false; g.len()];
        for &t in order {
            if seen[t] {
                return false;
            }
            seen[t] = true;
            if g.successors(t).iter().any(|&s| seen[s as usize]) {
                return false;
            }
        }
        order.len() == g.len()
    }

    /// `run` executes every task exactly once, each starting after all its
    /// predecessors finished, and credits every task to a worker: on the
    /// diamond, on triangles (8 workers contending on the larger), on an
    /// edgeless graph and on the diagonal-batched grid.
    pub(crate) fn check_runs_in_order(sched: Scheduler) {
        let inputs = [
            (diamond(), 3),
            (triangle_graph(10), 4),
            (triangle_graph(14), 8),
            (TaskGraph::new(64), 8),
            (diagonal_batched_grid(10, 1, 4).graph, 4),
        ];
        for (g, workers) in inputs {
            let mut preds = vec![Vec::new(); g.len()];
            for t in 0..g.len() {
                for &s in g.successors(t) {
                    preds[s as usize].push(t);
                }
            }
            let done: Vec<AtomicBool> = (0..g.len()).map(|_| AtomicBool::new(false)).collect();
            let runs: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
            let early = AtomicUsize::new(0);
            let stats = run(&g, workers, &ctx(sched), |t| {
                if !preds[t].iter().all(|&p| done[p].load(Ordering::SeqCst)) {
                    early.fetch_add(1, Ordering::SeqCst);
                }
                runs[t].fetch_add(1, Ordering::SeqCst);
                done[t].store(true, Ordering::SeqCst);
            })
            .unwrap();
            assert_eq!(early.into_inner(), 0, "{sched:?}: a task ran early");
            assert!(
                runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                "{sched:?}"
            );
            assert_eq!(
                stats.tasks_per_worker.iter().sum::<usize>(),
                g.len(),
                "{sched:?}"
            );
            assert!(stats.imbalance() >= 1.0, "{sched:?}");
        }
    }

    /// A one-worker run starts no thread: the caller runs worker 0, so
    /// every task body sees the calling thread, in a dependence order (on a
    /// 1000-task chain, exactly the chain's).
    pub(crate) fn check_one_worker(sched: Scheduler) {
        let caller = std::thread::current().id();
        for g in [triangle_graph(6), chain(1000)] {
            let order = Mutex::new(Vec::new());
            let stats = run(&g, 1, &ctx(sched), |t| {
                order.lock().unwrap().push((t, std::thread::current().id()));
            })
            .unwrap();
            assert_eq!(stats.tasks_per_worker, vec![g.len()], "{sched:?}");
            let order = order.into_inner().unwrap();
            assert!(order.iter().all(|&(_, t)| t == caller), "{sched:?}");
            let tasks: Vec<usize> = order.iter().map(|&(t, _)| t).collect();
            assert!(is_dependence_order(&g, &tasks), "{sched:?}");
        }
    }

    pub(crate) fn check_empty(sched: Scheduler) {
        let stats = run(&TaskGraph::new(0), 3, &ctx(sched), |_| {
            panic!("no tasks to run")
        })
        .unwrap();
        assert_eq!(stats.tasks_per_worker, vec![0; 3]);
    }

    /// The metric vocabulary of each discipline (module docs).
    pub(crate) fn check_metric_vocabulary(sched: Scheduler) {
        let g = triangle_graph(8);
        let (len, roots) = (g.len() as u64, g.roots().count() as u64);
        let (metrics, recorder) = Metrics::recording();
        let metered = ctx(sched).with_metrics(&metrics);
        run(&g, 4, &metered, |_| std::thread::yield_now()).unwrap();
        assert_eq!(recorder.get("queue.tasks_executed"), len, "{sched:?}");
        let pushes = recorder.get("queue.ready_pushes");
        match sched {
            // Every task, roots included, is pushed exactly once.
            Scheduler::CentralQueue => {
                assert_eq!(pushes, len);
                assert!((1..=len).contains(&recorder.get("queue.depth_hwm")));
            }
            // Roots enter through the injector uncounted, so at least one
            // injector pickup happens; every other task is pushed once.
            Scheduler::WorkStealing => {
                assert_eq!(pushes, len - roots);
                assert!(recorder.get("queue.injector_steals") >= 1);
            }
            // Every non-root pickup is an affinity hit or a miss; on one
            // worker, which produced every operand itself, all are hits.
            Scheduler::LocalityBatched => {
                let scored = |r: &npdp_metrics::Recorder| {
                    (r.get("queue.affinity_hits"), r.get("queue.affinity_misses"))
                };
                let (hits, misses) = scored(&recorder);
                assert_eq!(hits + misses, len - roots);
                let (metrics, recorder) = Metrics::recording();
                run(&g, 1, &ctx(sched).with_metrics(&metrics), |_| {}).unwrap();
                assert_eq!(scored(&recorder), (len - roots, 0));
            }
            // Each of the 8 diagonals retires exactly once, CAS-deduplicated.
            Scheduler::Pipelined { .. } => {
                assert_eq!(pushes, len - roots);
                assert_eq!(recorder.get("queue.frontier_advances"), 8);
            }
        }
    }

    /// A traced run journals one balanced `Task` span per task on one track
    /// per worker; a no-op tracer registers no track.
    pub(crate) fn check_trace(sched: Scheduler) {
        let g = triangle_graph(8);
        let tracer = Tracer::new();
        run(&g, 4, &ctx(sched).with_tracer(&tracer), |_| {
            std::thread::yield_now()
        })
        .unwrap();
        let data = tracer.snapshot();
        assert_eq!(data.tracks.len(), 4, "{sched:?}");
        let spans = npdp_trace::analysis::pair_spans(&data).expect("spans balance");
        let mut task_ids: Vec<u32> = spans
            .iter()
            .filter_map(|s| match s.kind {
                EventKind::Task { id } => Some(id),
                _ => None,
            })
            .collect();
        task_ids.sort_unstable();
        assert_eq!(
            task_ids,
            (0..g.len() as u32).collect::<Vec<_>>(),
            "{sched:?}"
        );
        let noop = Tracer::noop();
        run(&g, 2, &ctx(sched).with_tracer(&noop), |_| {}).unwrap();
        assert_eq!(noop.snapshot().tracks.len(), 0, "{sched:?}");
    }

    /// A task that panics on every attempt ends the run with a typed error
    /// naming it — no hang, no escaped panic — and a task that panics once
    /// is retried and the run succeeds.
    pub(crate) fn check_panics(sched: Scheduler) {
        let g = triangle_graph(5);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run(&g, 4, &ctx(sched), |t| {
                if t == 7 {
                    panic!("boom in task 7");
                }
            })
        }));
        let err = caught.expect("no panic escapes run").unwrap_err();
        assert!(err.to_string().contains("task 7 panicked"), "{err}");
        let ExecError::TaskPanicked {
            task,
            attempts,
            message,
        } = err;
        assert_eq!((task, attempts), (7, RetryPolicy::DEFAULT.max_attempts));
        assert!(message.contains("boom"), "{sched:?}: {message}");

        let (metrics, recorder) = Metrics::recording();
        let first_try = AtomicBool::new(true);
        let stats = run(&g, 3, &ctx(sched).with_metrics(&metrics), |t| {
            if t == 5 && first_try.swap(false, Ordering::SeqCst) {
                panic!("transient");
            }
        })
        .unwrap();
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), g.len());
        assert_eq!(recorder.get("queue.task_panics"), 1, "{sched:?}");
        assert_eq!(recorder.get("queue.task_retries"), 1, "{sched:?}");
    }

    /// Injected `TaskPanic`s at a moderate rate are recovered by retries,
    /// every body still completing exactly once; at rate 1.0 — every
    /// attempt fires — no budget gets through.
    pub(crate) fn check_injected_panics(sched: Scheduler) {
        let g = triangle_graph(6);
        let faults = FaultInjector::new(FaultPlan::seeded(17).with_rate(FaultKind::TaskPanic, 0.4));
        let retry = RetryPolicy {
            max_attempts: 16,
            base_backoff: 1,
        };
        let hits: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        let faulted = ctx(sched).with_faults(&faults).with_retry(retry);
        run(&g, 4, &faulted, |t| {
            hits[t].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(
            hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
            "{sched:?}"
        );
        assert!(faults.injected(FaultKind::TaskPanic) > 0, "{sched:?}");

        let always = FaultInjector::new(FaultPlan::seeded(9).with_rate(FaultKind::TaskPanic, 1.0));
        let doomed = ctx(sched).with_faults(&always);
        assert!(run(&g, 2, &doomed, |_| {}).is_err(), "{sched:?}");
    }

    /// `execute_sequential`, the reference executor, runs every task once
    /// in a dependence order.
    pub(crate) fn check_sequential() {
        for g in [diamond(), triangle_graph(10), chain(16)] {
            let mut order = Vec::new();
            execute_sequential(&g, |t| order.push(t));
            assert!(is_dependence_order(&g, &order), "{order:?}");
        }
    }

    #[test]
    fn every_scheduler_runs_every_task_once() {
        all().into_iter().for_each(check_runs_in_order);
    }

    #[test]
    fn one_worker_runs_every_task_on_the_calling_thread() {
        all().into_iter().for_each(check_one_worker);
    }

    #[test]
    fn empty_graph_returns_immediately_for_every_scheduler() {
        all().into_iter().for_each(check_empty);
    }

    #[test]
    fn every_scheduler_journals_balanced_task_spans() {
        all().into_iter().for_each(check_trace);
    }

    #[test]
    fn hopeless_budget_is_a_typed_error() {
        all().into_iter().for_each(check_panics);
    }

    #[test]
    fn injected_panics_recover_under_every_scheduler() {
        all().into_iter().for_each(check_injected_panics);
    }

    #[test]
    fn central_metric_vocabulary_counts_roots() {
        check_metric_vocabulary(Scheduler::CentralQueue);
    }

    #[test]
    fn stealing_metric_vocabulary_excludes_roots() {
        check_metric_vocabulary(Scheduler::WorkStealing);
    }

    #[test]
    fn locality_affinity_partitions_non_roots() {
        check_metric_vocabulary(Scheduler::LocalityBatched);
    }

    #[test]
    fn pipelined_metric_vocabulary() {
        check_metric_vocabulary(Scheduler::pipelined());
    }

    #[test]
    fn sequential_runs_every_task_in_a_dependence_order() {
        check_sequential();
    }

    /// The caller's tasks run on worker 0's trace track, and the caller's
    /// own thread-track binding is back in place when `run` returns.
    #[test]
    fn caller_runs_worker_zero_and_keeps_its_trace_binding() {
        let tracer = Tracer::new();
        let outer = tracer.register(TrackDesc::control("caller"));
        let _bind = tracer.bind_thread(outer);
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        // Tasks 0 and 1 meet at a barrier, so each worker runs one of them
        // however the threads are scheduled.
        let meet = std::sync::Barrier::new(2);
        let ctx = ExecContext::disabled().with_tracer(&tracer);
        run(&TaskGraph::new(16), 2, &ctx, |t| {
            if t < 2 {
                meet.wait();
            }
            let on_caller = std::thread::current().id() == caller;
            seen.lock()
                .unwrap()
                .push((on_caller, tracer.thread_track()));
        })
        .unwrap();
        assert_eq!(tracer.thread_track(), Some(outer), "binding restored");
        let seen = seen.into_inner().unwrap();
        let track_of = |on: bool| {
            let tracks: Vec<_> = seen.iter().filter(|s| s.0 == on).map(|s| s.1).collect();
            assert!(
                tracks.windows(2).all(|w| w[0] == w[1]),
                "one track per thread"
            );
            assert!(tracks.iter().all(Option::is_some), "workers are bound");
            (tracks.len(), tracks.first().copied().flatten())
        };
        let (by_caller, caller_track) = track_of(true);
        let (by_spawned, spawned_track) = track_of(false);
        assert!(by_caller > 0 && by_spawned > 0, "both workers ran tasks");
        assert!(caller_track.is_some() && caller_track != Some(outer));
        assert_ne!(caller_track, spawned_track);
        // Worker 0's track holds exactly the caller's task spans.
        let data = tracer.snapshot();
        let worker0 = data.tracks.iter().find(|t| t.name == "worker 0").unwrap();
        let task_spans = worker0
            .events
            .iter()
            .filter(|e| e.phase == npdp_trace::Phase::Begin)
            .filter(|e| matches!(e.kind, EventKind::Task { .. }))
            .count();
        assert_eq!(task_spans, by_caller);
    }

    /// A worker waiting on slow tasks records one `Idle` span per idle
    /// stretch, not one per back-off round, so its track holds O(tasks)
    /// events however long the tasks take.
    #[test]
    fn idle_spans_per_worker_track_are_bounded_by_tasks() {
        for sched in [
            Scheduler::CentralQueue,
            Scheduler::WorkStealing,
            Scheduler::LocalityBatched,
            Scheduler::pipelined(),
        ] {
            // A chain: one runnable task at a time, so two of three workers
            // idle through every 2 ms body.
            let mut g = TaskGraph::new(12);
            for t in 1..g.len() {
                g.add_edge(t - 1, t);
            }
            let tracer = Tracer::new();
            let (metrics, recorder) = Metrics::recording();
            let ctx = ExecContext::disabled()
                .with_scheduler(sched)
                .with_tracer(&tracer)
                .with_metrics(&metrics);
            run(&g, 3, &ctx, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
            .unwrap();
            let trace = tracer.snapshot();
            assert_eq!(trace.dropped(), 0, "{sched:?}");
            for track in &trace.tracks {
                // Per claim: a task begin/end, at most one steal instant and
                // one closed idle span; plus the idle span before exit.
                let bound = 5 * g.len() + 2;
                assert!(
                    track.events.len() <= bound,
                    "{sched:?}: {} holds {} events for {} tasks",
                    track.name,
                    track.events.len(),
                    g.len()
                );
            }
            assert!(recorder.get("queue.worker_idle_ns") > 0, "{sched:?}");
        }
    }

    #[test]
    fn idle_accounting_saturates_instead_of_wrapping() {
        // In-range totals pass through exactly…
        assert_eq!(saturating_ns(0), 0);
        assert_eq!(saturating_ns(u64::MAX as u128), u64::MAX);
        // …and anything wider than u64 — the old `as u64` cast silently
        // wrapped here — pins to the maximum instead.
        assert_eq!(saturating_ns(u64::MAX as u128 + 1), u64::MAX);
        assert_eq!(saturating_ns(u128::MAX), u64::MAX);
        // The accumulator itself is u128, so even a sum of many near-MAX
        // contributions saturates once at the metrics boundary rather than
        // wrapping per-addition.
        let total = (0..4).fold(0u128, |acc, _| acc + u64::MAX as u128);
        assert_eq!(saturating_ns(total), u64::MAX);
    }

    #[test]
    fn pipelined_lookahead_one_is_a_strict_diagonal_barrier() {
        // With `lookahead == 1` a depth-d task is claimable only once every
        // earlier depth fully completed, so each body can assert that all
        // blocks on earlier diagonals finished before it started. (Flags are
        // set at the end of each body, which happens-before the frontier
        // advance that releases the next diagonal.)
        let m = 8;
        let grid = crate::triangle::TriangleGrid::new(m);
        let g = triangle_graph(m);
        let done: Vec<AtomicBool> = (0..g.len()).map(|_| AtomicBool::new(false)).collect();
        let ctx = ExecContext::disabled().with_scheduler(Scheduler::Pipelined { lookahead: 1 });
        run(&g, 4, &ctx, |t| {
            let (r, c) = grid.coords(t);
            for (r2, c2) in grid.iter() {
                if c2 - r2 < c - r {
                    assert!(
                        done[grid.id(r2, c2)].load(Ordering::SeqCst),
                        "({r},{c}) started before ({r2},{c2}) under a lookahead-1 barrier"
                    );
                }
            }
            done[grid.id(r, c)].store(true, Ordering::SeqCst);
        })
        .unwrap();
        assert!(done.iter().all(|d| d.load(Ordering::SeqCst)));
    }

    #[test]
    fn pipelined_rate_matching_bounds_live_diagonals() {
        // Under any lookahead L, a running task's diagonal can exceed the
        // oldest *unfinished* diagonal by at most L-1 — track the minimum
        // unfinished depth and assert the bound from inside the bodies.
        for lookahead in [1usize, 2, 3] {
            let m = 10;
            let grid = crate::triangle::TriangleGrid::new(m);
            let g = triangle_graph(m);
            let done: Vec<AtomicBool> = (0..g.len()).map(|_| AtomicBool::new(false)).collect();
            let ctx = ExecContext::disabled().with_scheduler(Scheduler::Pipelined { lookahead });
            run(&g, 4, &ctx, |t| {
                let (r, c) = grid.coords(t);
                let oldest_unfinished = grid
                    .iter()
                    .filter(|&(r2, c2)| !done[grid.id(r2, c2)].load(Ordering::SeqCst))
                    .map(|(r2, c2)| c2 - r2)
                    .min()
                    .unwrap_or(m);
                assert!(
                    c - r < oldest_unfinished + lookahead,
                    "diagonal {} ran {} ahead of the oldest unfinished diagonal {} \
                     (lookahead {lookahead})",
                    c - r,
                    (c - r) - oldest_unfinished,
                    oldest_unfinished
                );
                done[grid.id(r, c)].store(true, Ordering::SeqCst);
            })
            .unwrap();
        }
    }

    /// Deterministic regression for the claim/abort race: worker 1 is handed
    /// an always-failing task (budget 1 ⇒ terminal), while worker 0's claim
    /// is stalled until that failure has long been recorded. The old driver
    /// checked the abort flag only at the loop top — before the claim — so
    /// the victim body ran anyway; the fixed driver re-checks after the
    /// claim and surrenders it (`queue.aborted_claims`).
    struct AbortRace {
        poison_handed: AtomicBool,
        victim_handed: AtomicBool,
        /// Set by the poison body immediately before it panics.
        poison_fired: AtomicBool,
    }

    impl Discipline for AbortRace {
        type Local = ();

        fn next(
            &self,
            w: usize,
            _local: &(),
            _metrics: &Metrics,
            _tracer: &Tracer,
            _track: Track,
        ) -> Option<u32> {
            if w == 1 {
                if !self.poison_handed.swap(true, Ordering::SeqCst) {
                    return Some(0);
                }
                None
            } else {
                if self.victim_handed.load(Ordering::SeqCst) {
                    return None;
                }
                // Hold the claim open until the poison body has fired, then
                // give the terminal-failure bookkeeping (unwind + error slot
                // + abort store, microseconds of work) a huge margin before
                // handing out the victim: the claim now lands strictly
                // after the abort.
                while !self.poison_fired.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
                self.victim_handed.store(true, Ordering::SeqCst);
                Some(1)
            }
        }

        fn ready(&self, _w: usize, _local: &(), _t: u32, _first: bool, _metrics: &Metrics) {}

        fn retry(&self, _w: usize, _local: &(), _t: u32) {}
    }

    #[test]
    fn claim_landing_after_abort_is_surrendered_not_run() {
        let g = TaskGraph::new(2); // two independent roots
        let (metrics, recorder) = Metrics::recording();
        let ctx = ExecContext::disabled()
            .with_metrics(&metrics)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                base_backoff: 1,
            });
        let race = AbortRace {
            poison_handed: AtomicBool::new(false),
            victim_handed: AtomicBool::new(false),
            poison_fired: AtomicBool::new(false),
        };
        let victim_ran = AtomicBool::new(false);
        let err = drive(&g, 2, &ctx, &race, vec![(), ()], |t| {
            if t == 0 {
                race.poison_fired.store(true, Ordering::SeqCst);
                panic!("poison task");
            }
            victim_ran.store(true, Ordering::SeqCst);
        })
        .unwrap_err();
        let ExecError::TaskPanicked { task, .. } = err;
        assert_eq!(task, 0, "the poison failure must win the error slot");
        assert!(
            !victim_ran.load(Ordering::SeqCst),
            "a task claimed after abort was observed must not run its body"
        );
        assert_eq!(recorder.get("queue.aborted_claims"), 1);
        assert_eq!(recorder.get("queue.tasks_executed"), 0);
    }
}
