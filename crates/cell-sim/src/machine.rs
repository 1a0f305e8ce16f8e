//! The QS20 machine model and the block-granular discrete-event simulation
//! of CellNPDP — the source of the simulated Table II / Fig. 9a / 10a / 11a
//! / 13 numbers.
//!
//! Performance mode is *sampling-based*: the computing-block kernel is
//! scheduled once on the dual-issue SPU model (its cycle count is exact for
//! the instruction sequence), block-level costs are assembled from kernel
//! counts + the DMA model, and the parallel tier is a discrete-event
//! simulation of the paper's task queue over scheduling blocks. Paper-scale
//! sizes (n = 16 K) simulate in milliseconds this way; the *functional*
//! cross-check for small n lives in [`crate::npdp`].

use npdp_exec::ExecContext;
use npdp_trace::{EventKind, TimeDomain, Tracer, Track, TrackDesc};
use task_queue::{diagonal_batched_grid, scheduling_grid};

use crate::dma::{double_buffered_cycles, double_buffered_timeline, DmaModel, DmaStats};
use crate::kernels::{dp_kernel_stream, sp_kernel_stream};
use crate::ppe::{relaxations, Precision};
use crate::swp::software_pipeline;

/// Machine configuration (defaults model the IBM QS20 blade).
#[derive(Debug, Clone, Copy)]
pub struct CellConfig {
    /// SPEs available (QS20: 16 across two Cells).
    pub spes: usize,
    /// SPE clock in Hz.
    pub freq_hz: f64,
    /// Local-store bytes per SPE.
    pub ls_bytes: usize,
    /// Aggregate memory bandwidth in bytes/second (QS20: 2 × 25.6 GB/s).
    pub mem_bandwidth: f64,
    /// DMA engine model.
    pub dma: DmaModel,
    /// Cycles per scalar relaxation in NDL-scalar mode (local-store
    /// latency-bound loop; calibrated, see EXPERIMENTS.md).
    pub scalar_relax_cycles: f64,
    /// Cycles per scalar relaxation inside the SIMD engine's edge passes.
    pub edge_relax_cycles: f64,
    /// Cycles of SPE-side overhead per scheduled task (mailbox round trip
    /// to the PPE, task fetch, DMA-list setup). This is the overhead the
    /// paper's *scheduling blocks* exist to amortize (§IV-B).
    pub task_overhead_cycles: f64,
}

impl CellConfig {
    /// The IBM QS20 dual-Cell blade.
    pub fn qs20() -> Self {
        Self {
            spes: 16,
            freq_hz: 3.2e9,
            ls_bytes: 256 * 1024,
            mem_bandwidth: 2.0 * 25.6e9,
            dma: DmaModel::default(),
            scalar_relax_cycles: 27.0,
            edge_relax_cycles: 10.0,
            task_overhead_cycles: 4000.0,
        }
    }

    /// Amortized cycles per computing-block kernel in steady state — the
    /// `C_C` of the performance model (paper: 54 for SP). Measured by
    /// software-pipelining a stream of back-to-back kernel invocations so
    /// prologue and drain overlap, exactly as in the engine's inner loop.
    pub fn kernel_cycles(&self, prec: Precision) -> f64 {
        const STREAM: usize = 8;
        let stream = match prec {
            Precision::Single => sp_kernel_stream(STREAM),
            Precision::Double => dp_kernel_stream(STREAM),
        };
        software_pipeline(&stream).schedule.cycles as f64 / STREAM as f64
    }

    /// SIMD instructions per kernel invocation.
    pub fn kernel_instructions(&self, prec: Precision) -> f64 {
        match prec {
            Precision::Single => 80.0,
            Precision::Double => 144.0,
        }
    }

    /// Largest memory-block side that fits six buffers in the local store,
    /// rounded down to a multiple of 4 (paper §III).
    pub fn max_block_side(&self, prec: Precision) -> usize {
        let raw = ((self.ls_bytes as f64 / (6.0 * prec.bytes() as f64)).sqrt()) as usize;
        (raw / 4) * 4
    }

    /// Block side for a target block byte size (e.g. the paper's 32 KB).
    pub fn block_side_for_bytes(&self, block_bytes: usize, prec: Precision) -> usize {
        let raw = ((block_bytes / prec.bytes()) as f64).sqrt() as usize;
        ((raw / 4) * 4).max(4)
    }
}

/// Result of one simulated CellNPDP run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Modelled wall-clock seconds.
    pub seconds: f64,
    /// Fraction of the machine's peak scalar-instruction issue rate used
    /// (the paper's "processor utilization", §VI-A.4).
    pub utilization: f64,
    /// Aggregate DMA traffic.
    pub dma: DmaStats,
    /// Total computing-block kernel invocations.
    pub kernel_calls: u64,
    /// Per-SPE busy time in cycles.
    pub spe_busy_cycles: Vec<f64>,
    /// SPEs used.
    pub spes_used: usize,
    /// Modelled DMA retries (faulted runs only; zero otherwise).
    pub dma_retries: u64,
}

impl SimReport {
    /// Emit the simulated run into a metrics sink: `sim.wall_ns` (modelled),
    /// `sim.utilization_ppm`, `sim.kernel_invocations`, `sim.spes_used`,
    /// `sim.spu_busy_cycles` (summed over SPEs) plus the aggregate `dma.*`
    /// counters.
    pub fn record_into(&self, metrics: &npdp_metrics::Metrics) {
        metrics.add("sim.wall_ns", (self.seconds * 1e9).round() as u64);
        metrics.add(
            "sim.utilization_ppm",
            (self.utilization * 1e6).round() as u64,
        );
        metrics.add("sim.kernel_invocations", self.kernel_calls);
        metrics.add("sim.spes_used", self.spes_used as u64);
        metrics.add(
            "sim.spu_busy_cycles",
            self.spe_busy_cycles.iter().sum::<f64>().round() as u64,
        );
        self.dma.record_into(metrics);
        if self.dma_retries > 0 {
            metrics.add("dma.retries", self.dma_retries);
        }
    }

    /// Load imbalance: max busy / mean busy.
    pub fn imbalance(&self) -> f64 {
        let mean: f64 =
            self.spe_busy_cycles.iter().sum::<f64>() / self.spe_busy_cycles.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        self.spe_busy_cycles.iter().cloned().fold(0.0f64, f64::max) / mean
    }
}

/// Per-block cost in cycles plus DMA traffic, with enough of the pipeline
/// shape retained to re-expand the block's DMA/compute timeline for tracing.
#[derive(Debug, Clone)]
struct BlockCost {
    /// Wall cycles of the whole block (DMA pipeline included).
    total_cycles: f64,
    dma: DmaStats,
    kernel_calls: u64,
    /// Un-overlapped fetch of the block itself (also the epilogue put).
    prologue: f64,
    /// Per-step `(dma, compute)` pipeline; empty for diagonal blocks.
    steps: Vec<(f64, f64)>,
    /// Diagonal blocks only: compute between prologue and epilogue.
    inner_compute: f64,
}

#[allow(clippy::too_many_arguments)]
fn block_cost(
    cfg: &CellConfig,
    bi: usize,
    bj: usize,
    nb: usize,
    prec: Precision,
    kernel_cycles: f64,
    simd: bool,
    bw_share_bytes_per_cycle: f64,
) -> BlockCost {
    let nt = (nb / 4) as f64;
    let block_bytes = nb * nb * prec.bytes();
    let mut dma = DmaStats::default();
    // Own block in + result out.
    dma.merge(cfg.dma.contiguous(block_bytes));
    dma.merge(cfg.dma.contiguous(block_bytes));

    let (kernel_calls, scalar_relax) = if bi == bj {
        // Diagonal block: middle k-tiles Σ_{r<c}(c-r-1) kernel calls; the
        // in-tile closures and edge passes run scalar.
        let nti = nb / 4;
        let mut calls = 0u64;
        for r in 0..nti {
            for c in r + 1..nti {
                calls += (c - r - 1) as u64;
            }
        }
        let edge_tiles = (nti * (nti - 1) / 2) as f64;
        let scalar = nti as f64 * relaxations(4) as f64 + edge_tiles * 16.0 * 6.0;
        (calls, scalar)
    } else {
        // Stage 1: (bj-bi-1)·nt³; stage 2: nt²(nt-1) SIMD calls; edge pass
        // ~6 candidates per cell.
        let deps = (bj - bi - 1) as f64;
        let calls = deps * nt * nt * nt + nt * nt * (nt - 1.0);
        let scalar = nt * nt * 16.0 * 6.0;
        ((calls as u64), scalar)
    };

    // Dependency blocks: 2(bj-bi) of them (paper §V), fetched contiguously
    // under the NDL.
    let dep_blocks = 2 * (bj - bi);
    for _ in 0..dep_blocks {
        dma.merge(cfg.dma.contiguous(block_bytes));
    }

    let compute_cycles = if simd {
        kernel_calls as f64 * kernel_cycles + scalar_relax * cfg.edge_relax_cycles
    } else {
        // NDL + scalar kernels: every relaxation is a scalar local-store
        // round trip.
        let nbu = nb as u64;
        let total_relax = if bi == bj {
            relaxations(nbu) as f64
        } else {
            // Off-diagonal block: nb² cells × (deps·nb + 2·nb k-range).
            (nb * nb) as f64 * ((bj - bi - 1) as f64 * nb as f64 + nb as f64)
        };
        total_relax * cfg.scalar_relax_cycles
    };

    // DMA overlaps compute under the six-buffer double-buffering scheme:
    // build the per-step (dma, compute) sequence and run the pipeline
    // timeline. Steps are the dependency pairs (2 blocks + one pair's
    // compute each) plus the stage-2 step (2 diagonal blocks + the rest).
    let pair_dma_cost = |blocks: usize| -> f64 {
        let one = cfg.dma.contiguous(block_bytes);
        blocks as f64 * (one.commands as f64 * cfg.dma.startup_cycles)
            + blocks as f64 * block_bytes as f64 / bw_share_bytes_per_cycle
    };
    let prologue = cfg.dma.contiguous(block_bytes).commands as f64 * cfg.dma.startup_cycles
        + block_bytes as f64 / bw_share_bytes_per_cycle;
    let steps: Vec<(f64, f64)> = if bi == bj {
        Vec::new() // diagonal block: everything is already local
    } else {
        let deps = bj - bi - 1;
        let nt3 = nt * nt * nt;
        let stage1_per_pair = nt3 * kernel_cycles_or_scalar(cfg, nb, simd, kernel_cycles, 1);
        let stage2 = compute_cycles - deps as f64 * stage1_per_pair;
        let mut v = vec![(pair_dma_cost(2), stage1_per_pair); deps];
        v.push((pair_dma_cost(2), stage2.max(0.0)));
        v
    };
    let total = if bi == bj {
        prologue + compute_cycles + prologue
    } else {
        double_buffered_cycles(&steps, prologue, prologue)
    };
    BlockCost {
        total_cycles: total,
        dma,
        kernel_calls,
        prologue,
        steps,
        inner_compute: if bi == bj { compute_cycles } else { 0.0 },
    }
}

/// Compute cycles of one stage-1 pair (per unit of `pairs`): SIMD kernels
/// or the scalar NDL loop.
fn kernel_cycles_or_scalar(
    cfg: &CellConfig,
    nb: usize,
    simd: bool,
    kernel_cycles: f64,
    _pairs: usize,
) -> f64 {
    if simd {
        kernel_cycles
    } else {
        // Scalar: nb relaxations per cell × nb² cells per pair, divided by
        // the nt³ kernel-equivalents the caller multiplies by.
        let nt = (nb / 4) as f64;
        (nb * nb) as f64 * nb as f64 * cfg.scalar_relax_cycles / (nt * nt * nt)
    }
}

/// Ready-queue policy of the simulated PPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// First-ready-first-served — the paper's task queue.
    #[default]
    Fifo,
    /// Prefer the ready task with the longest remaining dependence chain
    /// (downward rank) — motivated by the m/3 critical-path bound.
    CriticalPathFirst,
}

/// What to simulate: the problem, the blocking, the machine slice and the
/// scheduling discipline. The *how to observe / perturb it* — tracing,
/// metrics, fault plan, retry policy — comes separately through an
/// [`ExecContext`], so one [`simulate`] covers every configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Problem size (intervals).
    pub n: usize,
    /// Memory-block side (cells, multiple of 4).
    pub nb: usize,
    /// Scheduling-block side (memory blocks).
    pub sb: usize,
    /// Element precision.
    pub prec: Precision,
    /// SPEs used (≤ the machine's).
    pub spes: usize,
    /// Ready-queue policy of the simulated PPE.
    pub policy: QueuePolicy,
    /// `Some(min_parallel)` folds trailing starved diagonals into one batch
    /// task ([`task_queue::diagonal_batched_grid`]); `None` is the plain
    /// grid.
    pub batch_min_parallel: Option<usize>,
    /// `Some(lookahead)` runs the barrier-free pipelined discipline
    /// (`Scheduler::Pipelined` on the host): a task may not *start* until
    /// every task more than `lookahead` diagonals behind it has completed
    /// (rate-matching bounds the live operand set), and a task whose inputs
    /// are ready strictly before its SPE frees up hides the mailbox/dispatch
    /// overhead behind the previous block's compute (the PPE pushes the
    /// descriptor early); tasks land on the SPE that finishes them first
    /// under that rule. `None` is the plain dispatch protocol.
    pub pipeline_lookahead: Option<usize>,
    /// SIMD computing-block kernels (CellNPDP) vs the scalar NDL loop (the
    /// paper's "NDL" ablation bar).
    pub simd: bool,
}

impl SimSpec {
    /// Full CellNPDP: NDL + SIMD kernels + FIFO task queue.
    pub fn cellnpdp(n: usize, nb: usize, sb: usize, prec: Precision, spes: usize) -> Self {
        Self {
            n,
            nb,
            sb,
            prec,
            spes,
            policy: QueuePolicy::Fifo,
            batch_min_parallel: None,
            pipeline_lookahead: None,
            simd: true,
        }
    }

    /// The NDL + *scalar* ablation configuration.
    pub fn ndl_scalar(n: usize, nb: usize, sb: usize, prec: Precision, spes: usize) -> Self {
        Self {
            simd: false,
            ..Self::cellnpdp(n, nb, sb, prec, spes)
        }
    }

    /// Switch the simulated PPE's ready-queue policy.
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Fold trailing coarse diagonals carrying fewer than `min_parallel`
    /// tasks into one batch task, so the apex tail pays one task overhead
    /// instead of one per starved task. Same blocks, same per-block costs —
    /// only the scheduling granularity changes. The batch runs on a single
    /// SPE, so merging trades residual parallelism for saved dispatch
    /// overhead: small `min_parallel` (merge only the near-serial apex) is
    /// the profitable setting; `min_parallel >= spes` is the aggressive
    /// ablation.
    pub fn batched(mut self, min_parallel: usize) -> Self {
        self.batch_min_parallel = Some(min_parallel);
        self
    }

    /// Run the barrier-free pipelined dispatch protocol with the given
    /// rate-matching window (clamped up to 1, matching the host driver):
    /// see [`SimSpec::pipeline_lookahead`]. Same blocks, same per-block
    /// costs, same traffic — only the dispatch protocol changes.
    pub fn pipelined(mut self, lookahead: usize) -> Self {
        self.pipeline_lookahead = Some(lookahead.max(1));
        self
    }
}

/// Simulate one CellNPDP (or NDL-scalar) run of `spec` on the machine `cfg`
/// under the policies of `ctx` — the simulator's one entry point:
///
/// * `ctx.tracer` — timeline emission: one `Worker` track per SPE carrying
///   `Block` spans over the *compute* intervals of the double-buffering
///   pipeline (DMA stalls are not busy time), one `Dma` track per SPE with
///   the pipeline's get/put transfers, and a PPE control track with a
///   `MailboxSend` instant per task assignment — all in
///   [`TimeDomain::SimCycles`] so simulated cycles never mix with wall
///   clocks. Tracing observes, never steers the discrete-event schedule.
/// * `ctx.faults` / `ctx.retry` — an injected DMA failure re-issues the
///   block's prologue transfer after exponential backoff (per the retry
///   policy), and an injected delay stretches the block by a deterministic
///   payload-derived stall — both lengthen the schedule without changing
///   what is computed. The retry count lands in [`SimReport::dma_retries`].
/// * `ctx.metrics` — when enabled, the finished report is recorded via
///   [`SimReport::record_into`].
///
/// `ctx.scheduler` and `ctx.tuning` are host-engine policies and are
/// ignored here; the simulated PPE's discipline is [`SimSpec::policy`].
pub fn simulate(cfg: &CellConfig, spec: &SimSpec, ctx: &ExecContext) -> SimReport {
    assert!(spec.spes >= 1 && spec.spes <= cfg.spes);
    assert!(spec.nb >= 4 && spec.nb.is_multiple_of(4));
    let report = simulate_blocked(
        cfg,
        spec.n,
        spec.nb,
        spec.sb,
        spec.prec,
        spec.spes,
        spec.simd,
        spec.policy,
        &ctx.tracer,
        &ctx.faults,
        ctx.retry,
        spec.batch_min_parallel,
        spec.pipeline_lookahead,
    );
    if ctx.metrics.enabled() {
        report.record_into(&ctx.metrics);
    }
    report
}

#[allow(clippy::too_many_arguments)]
fn simulate_blocked(
    cfg: &CellConfig,
    n: usize,
    nb: usize,
    sb: usize,
    prec: Precision,
    spes: usize,
    simd: bool,
    policy: QueuePolicy,
    tracer: &Tracer,
    faults: &npdp_fault::FaultInjector,
    retry: npdp_fault::RetryPolicy,
    batch_min_parallel: Option<usize>,
    pipeline: Option<usize>,
) -> SimReport {
    let pipeline = pipeline.map(|l| l.max(1));
    let m = n.div_ceil(nb).max(1);
    let kernel_cycles = cfg.kernel_cycles(prec);
    let bw_per_cycle = cfg.mem_bandwidth / cfg.freq_hz;
    let bw_share = (bw_per_cycle / spes as f64).min(cfg.dma.bytes_per_cycle);

    let sched = match batch_min_parallel {
        Some(mp) => diagonal_batched_grid(m, sb, mp),
        None => scheduling_grid(m, sb),
    };
    let ntasks = sched.graph.len();

    // Per-task duration and traffic. When tracing, keep the per-block costs
    // so the pipeline timeline can be re-expanded at assignment time.
    let traced = tracer.enabled();
    let mut dur = vec![0.0f64; ntasks];
    let mut total_dma = DmaStats::default();
    let mut total_calls = 0u64;
    let mut costs: Vec<Vec<BlockCost>> = Vec::with_capacity(if traced { ntasks } else { 0 });
    let mut dma_retries = 0u64;
    for (t, members) in sched.members.iter().enumerate() {
        dur[t] = cfg.task_overhead_cycles;
        let mut per_block = Vec::with_capacity(if traced { members.len() } else { 0 });
        for &(bi, bj) in members {
            let mut c = block_cost(cfg, bi, bj, nb, prec, kernel_cycles, simd, bw_share);
            if faults.enabled() {
                use npdp_fault::{site2, site3, FaultKind};
                let site = site3(t as u64, bi as u64, bj as u64);
                // Each failed attempt re-issues the block's prologue
                // transfer after backoff; the budget bounds the stretch.
                let mut attempt = 0u32;
                while attempt + 1 < retry.max_attempts
                    && faults.should_inject(FaultKind::DmaFail, site2(site, attempt as u64))
                {
                    c.total_cycles += c.prologue + retry.backoff(attempt) as f64;
                    dma_retries += 1;
                    faults.count_dma_retry();
                    attempt += 1;
                }
                if faults.should_inject(FaultKind::DmaDelay, site) {
                    c.total_cycles += (faults.payload(FaultKind::DmaDelay, site) % 4096) as f64;
                }
            }
            dur[t] += c.total_cycles;
            total_dma.merge(c.dma);
            total_calls += c.kernel_calls;
            if traced {
                per_block.push(c);
            }
        }
        if traced {
            costs.push(per_block);
        }
    }

    let tracks = traced.then(|| SimTracks::register(tracer, cfg, spes));

    // Downward ranks for critical-path-first scheduling.
    let rank: Vec<f64> = {
        let order = sched
            .graph
            .topological_order()
            .expect("scheduling graph is a DAG");
        let mut r = vec![0.0f64; ntasks];
        for &t in order.iter().rev() {
            let succ_max = sched
                .graph
                .successors(t)
                .iter()
                .map(|&s| r[s as usize])
                .fold(0.0f64, f64::max);
            r[t] = dur[t] + succ_max;
        }
        r
    };

    // Discrete-event list scheduling onto the earliest-free SPE (the PPE
    // task-queue protocol), with the configured ready-queue policy.
    let mut pending: Vec<u32> = (0..ntasks).map(|t| sched.graph.pred_count(t)).collect();
    let mut ready: Vec<(f64, usize)> = sched.graph.roots().map(|t| (0.0, t)).collect();
    let mut spe_free = vec![0.0f64; spes];
    let mut spe_busy = vec![0.0f64; spes];
    let mut finish = vec![0.0f64; ntasks];
    let mut done = 0usize;

    // Pipelined dispatch state: longest-path depth per task (the diagonal
    // index on the block triangle), scheduled/total counts per depth for
    // the rate-matching eligibility check, and the max finish per depth for
    // the rate-matching gate time.
    let depth: Vec<u32> = if pipeline.is_some() {
        sched.graph.depths().expect("scheduling graph is a DAG")
    } else {
        Vec::new()
    };
    let ndepths = depth.iter().copied().max().map_or(0, |d| d as usize + 1);
    let mut total_per_depth = vec![0usize; ndepths];
    for &d in &depth {
        total_per_depth[d as usize] += 1;
    }
    let mut sched_per_depth = vec![0usize; ndepths];
    let mut depth_max_finish = vec![0.0f64; ndepths];

    while done < ntasks {
        match policy {
            QueuePolicy::Fifo => {
                // First ready first (stable on ties by task id).
                ready.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            }
            QueuePolicy::CriticalPathFirst => {
                // Among the earliest-startable tasks, longest remaining
                // chain first: order by (ready time, -rank, id).
                let t_free = spe_free.iter().cloned().fold(f64::INFINITY, f64::min);
                ready.sort_by(|a, b| {
                    let a_now = a.0 <= t_free;
                    let b_now = b.0 <= t_free;
                    b_now
                        .cmp(&a_now)
                        .then(
                            rank[b.1]
                                .partial_cmp(&rank[a.1])
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                        .then(a.0.partial_cmp(&b.0).unwrap())
                        .then(a.1.cmp(&b.1))
                });
            }
        }
        // Rate-matching eligibility: a task at depth `d` may only be
        // dispatched once every depth ≤ d − lookahead is fully scheduled
        // (so its gate time below is final). The minimal-depth ready task
        // is always eligible — every strictly shallower task is already
        // scheduled, else *it* would be the minimal ready one — so the scan
        // always finds a task and the pipeline cannot deadlock.
        let pick = match pipeline {
            Some(l) => ready
                .iter()
                .position(|&(_, t)| {
                    let d = depth[t] as usize;
                    d < l || (0..=d - l).all(|k| sched_per_depth[k] == total_per_depth[k])
                })
                .expect("minimal-depth ready task is always eligible"),
            None => 0,
        };
        let (rt, task) = ready.remove(pick);
        // Rate-matching gate: depth `d` may not start until every task more
        // than `lookahead` depths behind has completed.
        let gate = match pipeline {
            Some(l) => {
                let d = depth[task] as usize;
                if d >= l {
                    depth_max_finish[..=d - l]
                        .iter()
                        .copied()
                        .fold(0.0, f64::max)
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        let arrival = rt.max(gate);
        // Pipelined overhead hiding: the PPE may push a task's descriptor
        // to an SPE while that SPE is still computing, but only once the
        // task's inputs are ready — so the mailbox/dispatch roundtrip is
        // hidden exactly when readiness *strictly* precedes the SPE's
        // completion. An SPE already idle at arrival (including the exact
        // producer-to-consumer handoff, where readiness and completion
        // coincide) learns of the task at arrival and pays the roundtrip.
        let placement = |s: usize| -> (f64, f64) {
            if pipeline.is_some() && spe_free[s] > arrival {
                (spe_free[s], 0.0)
            } else {
                (arrival.max(spe_free[s]), cfg.task_overhead_cycles)
            }
        };
        // SPE selection. Plain dispatch takes the earliest-available SPE.
        // Pipelined dispatch minimizes the task's finish under the hiding
        // rule above: a warm SPE freeing within one roundtrip of arrival
        // finishes the task sooner than a cold idle one, which packs the
        // starved tail onto the SPE already streaming the operand chain
        // instead of fanning serial work across idle SPEs — and reverts to
        // fanning out the moment queueing delay exceeds the roundtrip.
        let end_on = |s: usize| -> f64 {
            let (st, oh) = placement(s);
            st + dur[task] - (cfg.task_overhead_cycles - oh)
        };
        let s = if pipeline.is_some() {
            (0..spes)
                .min_by(|&a, &b| {
                    end_on(a)
                        .partial_cmp(&end_on(b))
                        .unwrap()
                        .then(spe_free[b].partial_cmp(&spe_free[a]).unwrap())
                })
                .unwrap()
        } else {
            (0..spes)
                .min_by(|&a, &b| spe_free[a].partial_cmp(&spe_free[b]).unwrap())
                .unwrap()
        };
        let (start, eff_overhead) = placement(s);
        let eff_dur = dur[task] - (cfg.task_overhead_cycles - eff_overhead);
        let end = start + eff_dur;
        if let Some(tracks) = &tracks {
            emit_task_timeline(
                tracer,
                tracks,
                s,
                task,
                start,
                eff_overhead,
                &sched.members[task],
                &costs[task],
                (nb * nb * prec.bytes()) as u64,
            );
        }
        spe_free[s] = end;
        spe_busy[s] += eff_dur;
        finish[task] = end;
        if pipeline.is_some() {
            let d = depth[task] as usize;
            sched_per_depth[d] += 1;
            depth_max_finish[d] = depth_max_finish[d].max(end);
        }
        done += 1;
        for &succ in sched.graph.successors(task) {
            pending[succ as usize] -= 1;
            if pending[succ as usize] == 0 {
                ready.push((end, succ as usize));
            }
        }
    }

    let total_cycles = finish.iter().cloned().fold(0.0f64, f64::max).max(1.0);
    let seconds = total_cycles / cfg.freq_hz;

    // Utilization: executed SIMD instructions × lanes (each counted as a
    // useful 32-bit op, as the paper counts) over peak scalar issue.
    let useful = total_calls as f64 * cfg.kernel_instructions(prec) * prec.lanes() as f64;
    let peak = total_cycles * cfg.spes as f64 * 2.0 * 4.0;
    let utilization = useful / peak;

    SimReport {
        seconds,
        utilization,
        dma: total_dma,
        kernel_calls: total_calls,
        spe_busy_cycles: spe_busy,
        spes_used: spes,
        dma_retries,
    }
}

/// The simulated machine's trace tracks: one worker + one DMA lane per SPE
/// (grouped by SPE index so the analyzer pairs them) and a PPE control track.
struct SimTracks {
    workers: Vec<Track>,
    dma: Vec<Track>,
    ppe: Track,
}

impl SimTracks {
    fn register(tracer: &Tracer, cfg: &CellConfig, spes: usize) -> Self {
        let domain = TimeDomain::SimCycles { hz: cfg.freq_hz };
        Self {
            workers: (0..spes)
                .map(|s| {
                    tracer
                        .register(TrackDesc::worker(format!("spe {s}"), s as u32).in_domain(domain))
                })
                .collect(),
            dma: (0..spes)
                .map(|s| {
                    tracer.register(
                        TrackDesc::dma(format!("spe {s} dma"), s as u32).in_domain(domain),
                    )
                })
                .collect(),
            ppe: tracer.register(TrackDesc::control("ppe task queue").in_domain(domain)),
        }
    }
}

/// Expand one scheduled task into timeline events: the mailbox/task-fetch
/// overhead as a `MailboxWait` span, then per member block the double-buffer
/// pipeline's compute intervals as `Block` spans on the SPE's worker track
/// and its transfers as `DmaGet`/`DmaPut` spans on the SPE's DMA lane.
#[allow(clippy::too_many_arguments)]
fn emit_task_timeline(
    tracer: &Tracer,
    tracks: &SimTracks,
    spe: usize,
    task: usize,
    start: f64,
    overhead: f64,
    members: &[(usize, usize)],
    costs: &[BlockCost],
    block_bytes: u64,
) {
    let ts = |c: f64| c.round() as u64;
    tracer.instant_at(
        tracks.ppe,
        ts(start),
        EventKind::MailboxSend { word: task as u32 },
    );
    let wt = tracks.workers[spe];
    let dt = tracks.dma[spe];
    tracer.begin_at(wt, ts(start), EventKind::MailboxWait);
    tracer.end_at(wt, ts(start + overhead), EventKind::MailboxWait);
    let mut cursor = start + overhead;
    for (&(bi, bj), c) in members.iter().zip(costs) {
        let kind = EventKind::Block {
            bi: bi as u32,
            bj: bj as u32,
        };
        if bi == bj {
            // Diagonal block: fetch, compute locally, write back.
            let get = EventKind::DmaGet { bytes: block_bytes };
            let put = EventKind::DmaPut { bytes: block_bytes };
            tracer.begin_at(dt, ts(cursor), get);
            tracer.end_at(dt, ts(cursor + c.prologue), get);
            let compute_end = cursor + c.prologue + c.inner_compute;
            tracer.begin_at(wt, ts(cursor + c.prologue), kind);
            tracer.end_at(wt, ts(compute_end), kind);
            tracer.begin_at(dt, ts(compute_end), put);
            tracer.end_at(dt, ts(compute_end + c.prologue), put);
        } else {
            // Off-diagonal block: re-expand the double-buffering pipeline.
            // Transfers are: own-block prologue fetch, one dependency-pair
            // fetch per step, then the epilogue write-back.
            let tl = double_buffered_timeline(&c.steps, c.prologue, c.prologue);
            let last = tl.dma.len().saturating_sub(1);
            for (k, &(a, b)) in tl.dma.iter().enumerate() {
                let kd = if k == last {
                    EventKind::DmaPut { bytes: block_bytes }
                } else if k == 0 {
                    EventKind::DmaGet { bytes: block_bytes }
                } else {
                    EventKind::DmaGet {
                        bytes: 2 * block_bytes,
                    }
                };
                tracer.begin_at(dt, ts(cursor + a), kd);
                tracer.end_at(dt, ts(cursor + b), kd);
            }
            for &(a, b) in &tl.compute {
                tracer.begin_at(wt, ts(cursor + a), kind);
                tracer.end_at(wt, ts(cursor + b), kind);
            }
        }
        cursor += c.total_cycles;
    }
}

/// Bytes the *original* algorithm moves between memory and the processor on
/// an SPE (element-granular column fetches; Fig. 9a's tall bar).
pub fn original_bytes_transferred(n: u64, _prec: Precision) -> u64 {
    // One d[k][j] element fetch per relaxation; quadword minimum transfer.
    relaxations(n) * 16
}

/// Bytes CellNPDP's NDL moves (the paper's model: `N₁³·S / (3·N₂)` plus one
/// read+write of the table itself).
pub fn ndl_bytes_transferred(n: u64, nb: u64, prec: Precision) -> u64 {
    let s = prec.bytes() as u64;
    let table = n * n / 2 * s;
    (n * n * n) / (3 * nb) * s + 2 * table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An untraced, fault-free CellNPDP simulation with the default queue.
    fn cellnpdp(
        cfg: &CellConfig,
        n: usize,
        nb: usize,
        sb: usize,
        prec: Precision,
        spes: usize,
    ) -> SimReport {
        let spec = SimSpec::cellnpdp(n, nb, sb, prec, spes);
        simulate(cfg, &spec, &ExecContext::disabled())
    }

    #[test]
    fn kernel_cycles_sp_near_paper() {
        let cfg = CellConfig::qs20();
        let c = cfg.kernel_cycles(Precision::Single);
        assert!((45.0..=64.0).contains(&c), "sp kernel cycles {c}");
        let d = cfg.kernel_cycles(Precision::Double);
        assert!(d >= 3.0 * c, "dp kernel cycles {d}");
    }

    #[test]
    fn max_block_side_sp() {
        let cfg = CellConfig::qs20();
        let side = cfg.max_block_side(Precision::Single);
        assert!((100..=104).contains(&side), "side {side}");
        // 32 KB target → 88 (the paper's working size).
        assert_eq!(cfg.block_side_for_bytes(32 * 1024, Precision::Single), 88);
    }

    #[test]
    fn table2_sp_4096_magnitude() {
        // Paper: 0.22 s for n=4096 SP on 16 SPEs. The simulated machine
        // should land in the same decade.
        let cfg = CellConfig::qs20();
        let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
        let r = cellnpdp(&cfg, 4096, nb, 2, Precision::Single, 16);
        assert!(
            (0.05..1.0).contains(&r.seconds),
            "simulated {} s",
            r.seconds
        );
    }

    #[test]
    fn utilization_above_half_for_sp() {
        // Paper §VI-A.4: 62.5% on 16 SPEs. Block-level parallelism is
        // ~m/3, so the measurement needs m/3 ≫ 16 (n = 8192 → m = 94).
        let cfg = CellConfig::qs20();
        let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
        let r = cellnpdp(&cfg, 8192, nb, 1, Precision::Single, 16);
        assert!(r.utilization > 0.5, "utilization {}", r.utilization);
        assert!(r.utilization <= 1.0);
    }

    #[test]
    fn utilization_roughly_size_independent() {
        // The paper's §V headline: efficiency independent of problem size —
        // once block-level parallelism (~m/3) exceeds the SPE count.
        let cfg = CellConfig::qs20();
        let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
        let u: Vec<f64> = [8192, 16384, 24576]
            .iter()
            .map(|&n| cellnpdp(&cfg, n, nb, 1, Precision::Single, 16).utilization)
            .collect();
        for w in u.windows(2) {
            assert!(
                (w[0] - w[1]).abs() / w[0] < 0.15,
                "utilizations {u:?} vary too much"
            );
        }
    }

    #[test]
    fn scaling_with_spes() {
        // Paper: 15.7× on 16 SPEs at n = 4096 — which is exactly the
        // block-level critical-path bound m/3 = 47/3 ≈ 15.7. Fine-grained
        // tasks (sb = 1) are needed to reach it.
        let cfg = CellConfig::qs20();
        let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
        let t1 = cellnpdp(&cfg, 4096, nb, 1, Precision::Single, 1).seconds;
        let t16 = cellnpdp(&cfg, 4096, nb, 1, Precision::Single, 16).seconds;
        let speedup = t1 / t16;
        assert!((11.0..=16.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn dp_much_slower_than_sp() {
        let cfg = CellConfig::qs20();
        let nb_sp = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
        let nb_dp = cfg.block_side_for_bytes(32 * 1024, Precision::Double);
        let sp = cellnpdp(&cfg, 4096, nb_sp, 2, Precision::Single, 16).seconds;
        let dp = cellnpdp(&cfg, 4096, nb_dp, 2, Precision::Double, 16).seconds;
        // Paper Table II: 0.22 s vs 4.41 s (20×); the structural factors
        // (lanes, latency, stall) must produce at least ~6×.
        assert!(dp > 6.0 * sp, "sp={sp} dp={dp}");
    }

    #[test]
    fn smaller_blocks_are_slower() {
        // Fig. 13: shrinking the memory block degrades performance. On one
        // SPE (the figure's baseline) there is no parallelism confound:
        // compute per cell is block-size independent, so time is flat until
        // DMA startup overhead makes tiny blocks memory-bound.
        // Block sides dividing n exactly, so padding waste (a real effect,
        // ~(⌈n/nb⌉·nb / n)³) does not confound the comparison.
        let cfg = CellConfig::qs20();
        let mut last = 0.0;
        for nb in [64, 32, 16, 8] {
            let t = cellnpdp(&cfg, 2048, nb, 1, Precision::Single, 1).seconds;
            assert!(t >= last * 0.98, "block side {nb}: {t} < {last}");
            last = t;
        }
        // And the smallest block is clearly memory-bound.
        let t64 = cellnpdp(&cfg, 2048, 64, 1, Precision::Single, 1).seconds;
        let t8 = cellnpdp(&cfg, 2048, 8, 1, Precision::Single, 1).seconds;
        assert!(t8 > 1.5 * t64, "t8={t8} t64={t64}");
    }

    #[test]
    fn ndl_scalar_between_original_and_simd() {
        let cfg = CellConfig::qs20();
        let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
        let scalar = simulate(
            &cfg,
            &SimSpec::ndl_scalar(2048, nb, 2, Precision::Single, 1),
            &ExecContext::disabled(),
        )
        .seconds;
        let simd = cellnpdp(&cfg, 2048, nb, 2, Precision::Single, 1).seconds;
        // SPE procedure speedup ~28× in the paper.
        let f = scalar / simd;
        assert!((8.0..60.0).contains(&f), "SPEP factor {f}");
    }

    #[test]
    fn fig9a_traffic_reduction() {
        let orig = original_bytes_transferred(4096, Precision::Single);
        let ndl = ndl_bytes_transferred(4096, 88, Precision::Single);
        assert!(orig > 20 * ndl, "orig {orig} vs ndl {ndl}");
    }

    #[test]
    fn critical_path_first_never_slower_near_the_bound() {
        // At n=4096 (m/3 ≈ 16 SPEs) the tail binds; CPF should match or
        // beat FIFO, and both must stay within the structural bound.
        let cfg = CellConfig::qs20();
        let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
        let fifo = simulate(
            &cfg,
            &SimSpec::cellnpdp(4096, nb, 1, Precision::Single, 16).with_policy(QueuePolicy::Fifo),
            &ExecContext::disabled(),
        );
        let cpf = simulate(
            &cfg,
            &SimSpec::cellnpdp(4096, nb, 1, Precision::Single, 16)
                .with_policy(QueuePolicy::CriticalPathFirst),
            &ExecContext::disabled(),
        );
        assert!(
            cpf.seconds <= fifo.seconds * 1.02,
            "cpf {} fifo {}",
            cpf.seconds,
            fifo.seconds
        );
        let t1 = cellnpdp(&cfg, 4096, nb, 1, Precision::Single, 1).seconds;
        let bound = (4096f64 / nb as f64).ceil() / 3.0;
        assert!(
            t1 / cpf.seconds <= bound * 1.05,
            "speedup beats the m/3 bound?"
        );
    }

    #[test]
    fn diagonal_batching_wins_when_overhead_dominates() {
        // Merging a diagonal trades its residual parallelism for the saved
        // dispatch overheads, so the profitable regime is the small-problem
        // end of Fig. 13 where per-task overhead rivals block compute: merge
        // only the near-serial apex (min_parallel = 3) of a tiny run.
        let cfg = CellConfig::qs20();
        let plain = simulate(
            &cfg,
            &SimSpec::cellnpdp(16, 4, 1, Precision::Single, 4).with_policy(QueuePolicy::Fifo),
            &ExecContext::disabled(),
        );
        let batched = simulate(
            &cfg,
            &SimSpec::cellnpdp(16, 4, 1, Precision::Single, 4)
                .with_policy(QueuePolicy::Fifo)
                .batched(3),
            &ExecContext::disabled(),
        );
        assert!(
            batched.seconds < plain.seconds,
            "batched {} plain {}",
            batched.seconds,
            plain.seconds
        );
        // Same blocks, same kernels, same traffic — only scheduling changed.
        assert_eq!(batched.kernel_calls, plain.kernel_calls);
        assert_eq!(batched.dma.bytes, plain.dma.bytes);
        assert_eq!(batched.dma.commands, plain.dma.commands);
    }

    #[test]
    fn pipelined_simulation_hides_overhead_at_the_starved_corner() {
        // The PR 4 starved-tail corner: per-task dispatch overhead rivals
        // block compute, so hiding it behind the previous block's compute
        // (plus barrier-free release) must beat both the plain protocol and
        // the batched ablation on wall time — without changing the work.
        let cfg = CellConfig::qs20();
        let spec = SimSpec::cellnpdp(16, 4, 1, Precision::Single, 3);
        let ctx = ExecContext::disabled();
        let plain = simulate(&cfg, &spec, &ctx);
        let batched = simulate(&cfg, &spec.batched(3), &ctx);
        let piped = simulate(&cfg, &spec.pipelined(2), &ctx);
        assert!(
            piped.seconds < plain.seconds,
            "pipelined {} plain {}",
            piped.seconds,
            plain.seconds
        );
        assert!(
            piped.seconds < batched.seconds,
            "pipelined {} batched {}",
            piped.seconds,
            batched.seconds
        );
        assert_eq!(piped.kernel_calls, plain.kernel_calls);
        assert_eq!(piped.dma.bytes, plain.dma.bytes);
        assert_eq!(piped.dma.commands, plain.dma.commands);
    }

    #[test]
    fn pipelined_lookahead_one_is_no_faster_than_deeper_windows() {
        // lookahead = 1 is the strict diagonal barrier; widening the window
        // can only remove gate stalls, never add them.
        let cfg = CellConfig::qs20();
        let spec = SimSpec::cellnpdp(512, 16, 1, Precision::Single, 8);
        let ctx = ExecContext::disabled();
        let mut last = f64::INFINITY;
        for l in [1usize, 2, 4] {
            let t = simulate(&cfg, &spec.pipelined(l), &ctx).seconds;
            assert!(t <= last * 1.0001, "lookahead {l}: {t} > {last}");
            last = t;
        }
        // lookahead 0 clamps to 1.
        let t0 = simulate(&cfg, &spec.pipelined(0), &ctx).seconds;
        let t1 = simulate(&cfg, &spec.pipelined(1), &ctx).seconds;
        assert_eq!(t0, t1);
    }

    #[test]
    fn traced_pipelined_simulation_matches_untraced() {
        use npdp_trace::analysis::analyze;
        let cfg = CellConfig::qs20();
        let spec = SimSpec::cellnpdp(512, 64, 1, Precision::Single, 4).pipelined(2);
        let plain = simulate(&cfg, &spec, &ExecContext::disabled());
        let tracer = Tracer::new();
        let traced = simulate(&cfg, &spec, &ExecContext::disabled().with_tracer(&tracer));
        assert_eq!(plain.seconds, traced.seconds);
        assert_eq!(plain.kernel_calls, traced.kernel_calls);
        assert_eq!(plain.spe_busy_cycles, traced.spe_busy_cycles);
        let data = tracer.snapshot();
        assert_eq!(data.dropped(), 0);
        let a = analyze(&data).expect("well-formed pipelined sim trace");
        assert_eq!(a.domains[0].diagonals.len(), 8);
    }

    #[test]
    fn batched_simulation_preserves_block_work_at_scale() {
        // In the compute-bound regime batching is an ablation — serializing
        // the tail costs more than the dispatch it saves — but it must never
        // change what is computed or transferred.
        let cfg = CellConfig::qs20();
        let plain = cellnpdp(&cfg, 1024, 64, 1, Precision::Single, 8);
        let batched = simulate(
            &cfg,
            &SimSpec::cellnpdp(1024, 64, 1, Precision::Single, 8)
                .with_policy(QueuePolicy::Fifo)
                .batched(8),
            &ExecContext::disabled(),
        );
        assert_eq!(batched.kernel_calls, plain.kernel_calls);
        assert_eq!(batched.dma.bytes, plain.dma.bytes);
        assert!(batched.seconds.is_finite() && batched.seconds > 0.0);
    }

    #[test]
    fn traced_simulation_matches_untraced_and_analyzes() {
        use npdp_trace::analysis::analyze;
        let cfg = CellConfig::qs20();
        let plain = cellnpdp(&cfg, 512, 64, 1, Precision::Single, 4);
        let tracer = Tracer::new();
        let traced = simulate(
            &cfg,
            &SimSpec::cellnpdp(512, 64, 1, Precision::Single, 4).with_policy(QueuePolicy::Fifo),
            &ExecContext::disabled().with_tracer(&tracer),
        );
        // Tracing observes, never steers the discrete-event schedule.
        assert_eq!(plain.seconds, traced.seconds);
        assert_eq!(plain.kernel_calls, traced.kernel_calls);
        assert_eq!(plain.spe_busy_cycles, traced.spe_busy_cycles);

        let data = tracer.snapshot();
        assert_eq!(data.dropped(), 0);
        let a = analyze(&data).expect("well-formed sim trace");
        assert_eq!(a.domains.len(), 1);
        let d = &a.domains[0];
        assert_eq!(d.domain, TimeDomain::SimCycles { hz: cfg.freq_hz });
        assert_eq!(d.workers.len(), 4);
        // 512/64 = 8 blocks per side → 8 wavefront diagonals.
        assert_eq!(d.diagonals.len(), 8);
        for w in &d.workers {
            assert!(w.busy > 0, "idle SPE in an 8×8 run: {w:?}");
            assert!(w.wait_recorded > 0, "task overhead not recorded: {w:?}");
        }
        // §V's double-buffering claim: dependency fetches overlap compute.
        let dma = d.dma.as_ref().expect("dma tracks present");
        assert!(dma.dma_busy > 0);
        // Small 8×8 triangle: most blocks sit near the diagonal where only
        // the prologue/epilogue (never overlappable) move data, so the ratio
        // is well below the steady-state value but clearly positive.
        assert!(
            dma.ratio > 0.3 && dma.ratio < 1.0,
            "implausible dma/compute overlap {}",
            dma.ratio
        );
        let cp = d.critical_path.as_ref().expect("critical path");
        assert_eq!(cp.blocks.len(), 8);
        assert!(cp.parallelism >= 1.0);
    }

    #[test]
    fn traced_simulation_covers_every_block_once() {
        use npdp_trace::analysis::pair_spans;
        let cfg = CellConfig::qs20();
        let tracer = Tracer::new();
        simulate(
            &cfg,
            &SimSpec::cellnpdp(768, 64, 2, Precision::Single, 6)
                .with_policy(QueuePolicy::CriticalPathFirst),
            &ExecContext::disabled().with_tracer(&tracer),
        );
        let data = tracer.snapshot();
        let mut blocks: Vec<(u32, u32)> = pair_spans(&data)
            .expect("spans nest and balance")
            .into_iter()
            .filter_map(|s| match s.kind {
                EventKind::Block { bi, bj } => Some((bi, bj)),
                _ => None,
            })
            .collect();
        // A block may carry several compute spans (one per pipeline step);
        // the *set* must be exactly the 12×12 block triangle.
        blocks.sort_unstable();
        blocks.dedup();
        let mb = 768usize / 64;
        let expected: Vec<(u32, u32)> = (0..mb as u32)
            .flat_map(|bi| (bi..mb as u32).map(move |bj| (bi, bj)))
            .collect();
        assert_eq!(blocks, expected);
        // One assignment instant per task on the PPE control track.
        let ppe = data
            .tracks
            .iter()
            .find(|t| t.name == "ppe task queue")
            .expect("ppe track");
        let coarse = mb.div_ceil(2);
        assert_eq!(ppe.events.len(), coarse * (coarse + 1) / 2);
    }

    #[test]
    fn untraced_simulation_registers_no_tracks() {
        let cfg = CellConfig::qs20();
        let tracer = Tracer::noop();
        simulate(
            &cfg,
            &SimSpec::cellnpdp(256, 64, 1, Precision::Single, 2).with_policy(QueuePolicy::Fifo),
            &ExecContext::disabled().with_tracer(&tracer),
        );
        assert_eq!(tracer.snapshot().tracks.len(), 0);
    }

    #[test]
    fn report_imbalance_reasonable() {
        let cfg = CellConfig::qs20();
        let r = cellnpdp(&cfg, 8192, 88, 2, Precision::Single, 16);
        assert!(r.imbalance() < 1.5, "imbalance {}", r.imbalance());
    }
}
