//! One `ExecContext` through every entry point of the engine stack.
//!
//! The blocked, SIMD and parallel engines' `Engine` impls are adapters over
//! their `SolveRecurrence` tier (they solve `ClosureRec` over a min-plus
//! ring), and `ParallelEngine::solve_blocked_with` runs the same parallel
//! sweep in place. Each pair of entry points must return **bit-identical**
//! tables and identical deterministic counters, also under an *enabled*
//! `FaultInjector`; and one context must be shareable by concurrent solves.

use std::collections::BTreeMap;

use npdp::core::problem;
use npdp::core::recurrence::ClosureRec;
use npdp::prelude::*;
use npdp::trace::analysis::pair_spans;
use npdp::trace::EventKind;

/// Counter keys whose value (or very presence) depends on thread timing:
/// queue depths, steal/affinity races, lookahead stalls and idle
/// accounting. Everything else in the vocabulary — `engine.*` work
/// counters, `queue.tasks_executed`, `queue.ready_pushes`,
/// `queue.frontier_advances`, `queue.task_panics`/`task_retries` (fault
/// sites hash `(task, attempt)`, not the worker), `sim.*`, `dma.*`,
/// `spe.*`, `mailbox.*` — is deterministic and must match exactly.
const TIMING_DEPENDENT: &[&str] = &[
    "queue.depth_hwm",
    "queue.steals",
    "queue.injector_steals",
    "queue.affinity_hits",
    "queue.affinity_misses",
    "queue.lookahead_stalls",
];

/// Strip timing-dependent keys, keeping the deterministic remainder for an
/// exact comparison. The `engine.wall_ns` timer goes too: the in-place
/// `solve_blocked_with` leaves the layout conversion, and so the timing of
/// the whole solve, to its caller.
fn deterministic(counters: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters
        .iter()
        .filter(|(k, _)| {
            !k.ends_with("_ns")
                && !k.starts_with("engine.wall_ns")
                && !TIMING_DEPENDENT.contains(&k.as_str())
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn assert_same_counters(what: &str, a: &Recorder, b: &Recorder) {
    assert_eq!(
        deterministic(&a.snapshot()),
        deterministic(&b.snapshot()),
        "{what}: the two entry points disagree on counters"
    );
}

fn assert_same_table(what: &str, a: &TriangularMatrix<f32>, b: &TriangularMatrix<f32>) {
    assert_eq!(
        a.first_difference(b),
        None,
        "{what}: the two entry points disagree on the table"
    );
}

fn engines() -> Vec<(&'static str, Box<dyn Engine<f32>>)> {
    vec![
        ("serial", Box::new(SerialEngine)),
        ("tiled", Box::new(TiledEngine::new(32))),
        ("blocked_ndl", Box::new(BlockedEngine::new(32))),
        ("simd", Box::new(SimdEngine::new(32))),
        ("wavefront", Box::new(WavefrontEngine::new(32))),
        ("tan_baseline", Box::new(TanEngine::new(32))),
        (
            "parallel/central",
            Box::new(ParallelEngine::new(32, 2, 4).with_scheduler(Scheduler::CentralQueue)),
        ),
        (
            "parallel/stealing",
            Box::new(ParallelEngine::new(32, 2, 4).with_scheduler(Scheduler::WorkStealing)),
        ),
        (
            "parallel/locality",
            Box::new(ParallelEngine::new(32, 2, 4).with_scheduler(Scheduler::LocalityBatched)),
        ),
        (
            "parallel/pipelined",
            Box::new(ParallelEngine::new(32, 2, 4).with_scheduler(Scheduler::pipelined())),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Layer 1: the `Engine` trait's spellings, and the NDL engines' adapters.
// ---------------------------------------------------------------------------

/// The three engines whose `Engine` impl solves `ClosureRec` through
/// `SolveRecurrence`, with the min-plus ring each one hands in.
fn closure_through_recurrence(
    name: &str,
    seeds: &TriangularMatrix<f32>,
    ctx: &ExecContext,
) -> Option<TriangularMatrix<f32>> {
    let simd = ClosureRec::new(MinPlus::<f32>::new(), seeds);
    let solved = match name {
        // "NDL" runs min-plus through the ring defaults; the table is the
        // same either way, so the public `MinPlus` stands in for it.
        "blocked_ndl" => BlockedEngine::new(32).solve_recurrence(&simd, ctx),
        "simd" => SimdEngine::new(32).solve_recurrence(&simd, ctx),
        "parallel/central" => ParallelEngine::new(32, 2, 4).solve_recurrence(&simd, ctx),
        _ => return None,
    };
    Some(solved.expect("valid seeds").0)
}

#[test]
fn engine_trait_wrappers_match_solve_with() {
    let n = 192;
    let seeds = problem::random_seeds_f32(n, 100.0, 11);
    for (name, engine) in &engines() {
        let (generic, _) = engine
            .solve_with(&seeds, &ExecContext::disabled())
            .expect("valid seeds");
        assert_same_table(&format!("{name}: solve"), &engine.solve(&seeds), &generic);

        let (tuned, _) = engine
            .solve_with(&seeds, &ExecContext::disabled().autotuned())
            .expect("valid seeds");
        // The autotuner may pick its own block side, which never changes
        // the math.
        assert_same_table(&format!("{name}: autotuned vs plain"), &tuned, &generic);

        let (m1, r1) = Metrics::recording();
        let t1 = Tracer::new();
        let ctx1 = ExecContext::disabled().with_metrics(&m1).with_tracer(&t1);
        let (traced, _) = engine.solve_with(&seeds, &ctx1).expect("valid seeds");
        assert_same_table(&format!("{name}: traced solve_with"), &traced, &generic);
        assert_eq!(
            r1.get("engine.cells_computed"),
            seeds.len() as u64,
            "{name}: cells_computed"
        );

        let (m2, r2) = Metrics::recording();
        let t2 = Tracer::new();
        let ctx2 = ExecContext::disabled().with_metrics(&m2).with_tracer(&t2);
        if let Some(via_rec) = closure_through_recurrence(name, &seeds, &ctx2) {
            assert_same_table(&format!("{name}: solve_recurrence"), &via_rec, &generic);
            assert_same_counters(&format!("{name}: solve_recurrence"), &r1, &r2);
            assert_eq!(
                t1.snapshot().tracks.len(),
                t2.snapshot().tracks.len(),
                "{name}: solve_recurrence registered a different track set"
            );
        }
    }
}

#[test]
fn invalid_seeds_fail_identically_through_wrapper_and_context() {
    let mut seeds = problem::random_seeds_f32(64, 100.0, 3);
    seeds.set(2, 9, f32::NAN);
    for (name, engine) in &engines() {
        let (metrics, recorder) = Metrics::recording();
        let plain = engine.solve_with(&seeds, &ExecContext::disabled());
        let metered = engine.solve_with(&seeds, &ExecContext::disabled().with_metrics(&metrics));
        match (plain, metered) {
            (
                Err(SolveError::InvalidSeed { i: pi, j: pj, .. }),
                Err(SolveError::InvalidSeed { i: mi, j: mj, .. }),
            ) => {
                assert_eq!((pi, pj), (2, 9), "{name}: wrong rejected seed");
                assert_eq!((mi, mj), (2, 9), "{name}: wrong rejected seed");
            }
            other => panic!("{name}: expected InvalidSeed from both contexts, got {other:?}"),
        }
        // Validation runs before any work is attributed.
        assert_eq!(recorder.get("engine.cells_computed"), 0, "{name}");
    }
}

// ---------------------------------------------------------------------------
// Layer 1b: `ParallelEngine`'s three entry points into the one task body.
// ---------------------------------------------------------------------------

#[test]
fn parallel_engine_blocked_wrappers_match_solve_blocked_with() {
    let n = 256;
    let seeds = problem::random_seeds_f32(n, 100.0, 19);
    let eng = ParallelEngine::new(32, 2, 4);

    let (m1, r1) = Metrics::recording();
    let tr1 = Tracer::new();
    let (via_solve, _) = eng
        .solve_with(
            &seeds,
            &ExecContext::disabled().with_metrics(&m1).with_tracer(&tr1),
        )
        .expect("valid seeds");
    let (m2, r2) = Metrics::recording();
    let tr2 = Tracer::new();
    let mut b = BlockedMatrix::from_triangular(&seeds, 32);
    eng.solve_blocked_with(
        &mut b,
        &ExecContext::disabled().with_metrics(&m2).with_tracer(&tr2),
    )
    .expect("valid blocked solve");
    assert_same_table("solve_blocked_with", &b.to_triangular(), &via_solve);
    assert_same_counters("solve_blocked_with", &r1, &r2);
    assert_eq!(
        tr1.snapshot().tracks.len(),
        tr2.snapshot().tracks.len(),
        "solve_blocked_with registered a different track set"
    );
}

#[test]
fn parallel_engine_faulted_wrappers_match_solve_with_under_injection() {
    let n = 256;
    let seeds = problem::random_seeds_f32(n, 100.0, 23);
    let eng = ParallelEngine::new(32, 2, 4);
    let clean = eng.solve(&seeds);
    let retry = RetryPolicy {
        max_attempts: 16,
        base_backoff: 64,
    };
    let plan = || FaultPlan::seeded(42).with_rate(FaultKind::TaskPanic, 0.2);
    let faulted = |faults: &FaultInjector, metrics: &Metrics| {
        ExecContext::disabled()
            .with_metrics(metrics)
            .with_faults(faults)
            .with_retry(retry)
    };

    let f1 = FaultInjector::new(plan());
    let (m1, r1) = Metrics::recording();
    let (t, _) = eng
        .solve_with(&seeds, &faulted(&f1, &m1))
        .expect("retries absorb the injected panics");
    let f2 = FaultInjector::new(plan());
    let (m2, r2) = Metrics::recording();
    let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
    let (via_rec, _) = eng
        .solve_recurrence(&rec, &faulted(&f2, &m2))
        .expect("retries absorb the injected panics");
    assert_same_table("solve_recurrence under faults", &via_rec, &t);
    assert_same_table("faulted vs clean", &t, &clean);
    assert_same_counters("solve_recurrence under faults", &r1, &r2);
    assert_eq!(
        f1.snapshot(),
        f2.snapshot(),
        "same-seeded injectors saw different injection histories"
    );
    assert!(
        f1.snapshot()
            .iter()
            .any(|(k, v)| k == "fault.injected" && *v > 0),
        "the fault plan never fired — the equivalence check proved nothing"
    );

    let f3 = FaultInjector::new(plan());
    let (m3, r3) = Metrics::recording();
    let mut b = BlockedMatrix::from_triangular(&seeds, 32);
    eng.solve_blocked_with(&mut b, &faulted(&f3, &m3))
        .expect("retries absorb the injected panics");
    assert_same_table("solve_blocked_with under faults", &b.to_triangular(), &t);
    assert_same_counters("solve_blocked_with under faults", &r1, &r3);
    assert_eq!(f1.snapshot(), f3.snapshot());
}

/// `Engine::solve_with` and `SolveRecurrence::solve_recurrence` on the
/// parallel tier run the same task body: per scheduler, the same table, the
/// same deterministic counters, and exactly one `Block` span per memory
/// block on the worker tracks of both timelines.
#[test]
fn parallel_solve_with_and_solve_recurrence_run_one_task_body() {
    let (n, nb) = (200, 32);
    let seeds = problem::random_seeds_f32(n, 100.0, 29);
    let mb = n.div_ceil(nb) as u32;
    let every_block: Vec<(u32, u32)> = (0..mb)
        .flat_map(|bi| (bi..mb).map(move |bj| (bi, bj)))
        .collect();
    let block_spans = |tracer: &Tracer| {
        let mut blocks: Vec<(u32, u32)> = pair_spans(&tracer.snapshot())
            .expect("spans nest and balance")
            .into_iter()
            .filter_map(|s| match s.kind {
                EventKind::Block { bi, bj } => Some((bi, bj)),
                _ => None,
            })
            .collect();
        blocks.sort_unstable();
        blocks
    };
    for scheduler in [
        Scheduler::CentralQueue,
        Scheduler::WorkStealing,
        Scheduler::LocalityBatched,
        Scheduler::pipelined(),
    ] {
        let eng = ParallelEngine::new(nb, 2, 3).with_scheduler(scheduler);
        let (m1, r1) = Metrics::recording();
        let t1 = Tracer::new();
        let ctx1 = ExecContext::disabled().with_metrics(&m1).with_tracer(&t1);
        let (via_engine, _) = eng.solve_with(&seeds, &ctx1).expect("valid seeds");

        let (m2, r2) = Metrics::recording();
        let t2 = Tracer::new();
        let ctx2 = ExecContext::disabled().with_metrics(&m2).with_tracer(&t2);
        let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
        let (via_rec, _) = eng.solve_recurrence(&rec, &ctx2).expect("valid seeds");

        let what = format!("{scheduler:?}");
        assert_same_table(&what, &via_engine, &via_rec);
        assert_same_counters(&what, &r1, &r2);
        assert_eq!(block_spans(&t1), every_block, "{what}: solve_with spans");
        assert_eq!(
            block_spans(&t2),
            every_block,
            "{what}: solve_recurrence spans"
        );
    }
}

// ---------------------------------------------------------------------------
// Concurrent sharing: one ExecContext, many simultaneous solve_with calls.
// The serving layer (npdp-serve) leans on exactly this — every connection
// and epoch thread clones one server context, so results must stay
// bit-identical and shared counters must sum exactly under contention.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_solve_with_calls_share_one_context_exactly() {
    let problems: Vec<TriangularMatrix<f32>> = [(96usize, 41u64), (128, 43), (160, 47)]
        .iter()
        .map(|&(n, seed)| problem::random_seeds_f32(n, 100.0, seed))
        .collect();
    let references: Vec<TriangularMatrix<f32>> =
        problems.iter().map(|s| SerialEngine.solve(s)).collect();

    let (metrics, recorder) = Metrics::recording();
    let ctx = ExecContext::disabled().with_metrics(&metrics);
    let threads = 6;
    let rounds = 4;

    std::thread::scope(|s| {
        for t in 0..threads {
            // All threads borrow the SAME context — no per-thread clone, so
            // any internal state it mutated during a solve would race.
            let (ctx, problems, references) = (&ctx, &problems, &references);
            s.spawn(move || {
                let engines: Vec<Box<dyn Engine<f32>>> = vec![
                    Box::new(SerialEngine),
                    Box::new(SimdEngine::new(32)),
                    Box::new(ParallelEngine::new(32, 2, 3)),
                    Box::new(ParallelEngine::new(32, 2, 3).with_scheduler(Scheduler::pipelined())),
                ];
                for r in 0..rounds {
                    let i = (t + r) % problems.len();
                    let engine = &engines[(t + r) % engines.len()];
                    let (table, _) = engine.solve_with(&problems[i], ctx).expect("valid seeds");
                    assert_eq!(
                        table.first_difference(&references[i]),
                        None,
                        "thread {t} round {r}: concurrent solve diverged"
                    );
                }
            });
        }
    });

    // Every solve attributes exactly n(n-1)/2 logical cells; the shared
    // counter must be the exact sum — no lost updates, no double counting.
    let mut expected = 0u64;
    for t in 0..threads {
        for r in 0..rounds {
            expected += problems[(t + r) % problems.len()].len() as u64;
        }
    }
    assert_eq!(
        recorder.get("engine.cells_computed"),
        expected,
        "shared engine.cells_computed drifted under concurrency"
    );
}
