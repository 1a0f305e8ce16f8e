//! Chaos properties: under arbitrary deterministic fault schedules, every
//! fault-tolerant execution path either recovers **bit-identically** to the
//! fault-free reference or fails with a **typed** [`SolveError`] — never a
//! hang, an escaped panic, or a silently wrong answer — and the same fault
//! seed always replays the same fault sequence.

use std::sync::atomic::{AtomicUsize, Ordering};

use npdp::cell::multi_spe::functional_cellnpdp_multi_spe_with;
use npdp::cell::npdp::{functional_cellnpdp, SpeElem};
use npdp::core::{
    problem, Engine, ParallelEngine, Scheduler, SerialEngine, SolveError, TriangularMatrix,
};
use npdp::exec::ExecContext;
use npdp::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy, ALL_FAULT_KINDS};
use npdp::metrics::Metrics;
use npdp::tasks::{ExecError, TaskGraph};
use npdp::trace::Tracer;
use proptest::prelude::*;

/// The generous budget the chaos suite runs with: enough attempts that
/// sub-0.5 per-site rates recover with overwhelming probability, so the
/// properties exercise *recovery*, not budget exhaustion.
const CHAOS_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 16,
    base_backoff: 1,
};

/// Build a plan from a generated (seed, base rate, kind mask) triple — the
/// fault-schedule generator shared by the properties below. Bit `k` of
/// `mask` enables fault kind `k`; crash rates are scaled down so a plan
/// usually leaves a survivor.
fn plan_from(seed: u64, rate: f64, mask: u16) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed);
    for kind in ALL_FAULT_KINDS {
        if mask & (1u16 << (kind as usize)) != 0 {
            let r = if kind == FaultKind::SpeCrash {
                rate * 0.1
            } else {
                rate
            };
            plan = plan.with_rate(kind, r);
        }
    }
    plan
}

/// A [`SolveError`] is an acceptable chaos outcome only if it is also
/// well-formed: displayable and internally consistent.
fn assert_typed(e: &SolveError) {
    let msg = e.to_string();
    assert!(!msg.is_empty());
    if let SolveError::TaskFailed { attempts, .. } = e {
        assert_eq!(*attempts, CHAOS_RETRY.max_attempts);
    }
}

/// Suppress the panic-hook noise of injected task panics (they are caught
/// and retried by the executors, but the default hook still prints).
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected task panic"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: the host parallel engine under arbitrary task-panic
    /// schedules, on both executors, is bit-identical on recovery and typed
    /// on exhaustion — and the run always terminates.
    #[test]
    fn prop_host_chaos_bit_identical_or_typed(
        n in 8usize..96,
        workers in 1usize..5,
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.5,
        sched in prop_oneof![
            Just(Scheduler::CentralQueue),
            Just(Scheduler::WorkStealing),
            Just(Scheduler::LocalityBatched),
            Just(Scheduler::pipelined()),
            Just(Scheduler::Pipelined { lookahead: 1 }),
        ],
    ) {
        quiet_injected_panics();
        let seeds = problem::random_seeds_f32(n, 100.0, n as u64);
        let reference = SerialEngine.solve(&seeds);
        let faults = FaultInjector::new(
            FaultPlan::seeded(fault_seed).with_rate(FaultKind::TaskPanic, rate),
        );
        let engine = ParallelEngine::new(16, 1, workers).with_scheduler(sched);
        let ctx = ExecContext::disabled().with_faults(&faults).with_retry(CHAOS_RETRY);
        match engine.solve_with(&seeds, &ctx) {
            Ok((got, _)) => prop_assert_eq!(reference.first_difference(&got), None),
            Err(e) => assert_typed(&e),
        }
    }
}

/// One single-SPE run of `seeds` under `plan`: bit-identical to
/// `SerialEngine`, or a transfer that ran out of attempts.
fn dma_chaos<T: SpeElem>(seeds: &TriangularMatrix<T>, plan: FaultPlan) {
    let reference = SerialEngine.solve(seeds);
    let faults = FaultInjector::new(plan);
    let ctx = ExecContext::disabled()
        .with_faults(&faults)
        .with_retry(CHAOS_RETRY);
    match functional_cellnpdp(seeds, 8, &ctx) {
        Ok((got, _)) => prop_assert_eq!(reference.first_difference(&got), None),
        Err(e) => {
            let exhausted = matches!(e, SolveError::TransferFailed { attempts, .. }
                if attempts == CHAOS_RETRY.max_attempts);
            prop_assert!(exhausted, "{e:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: the single-SPE functional simulator, in single and double
    /// precision, under arbitrary DMA fault schedules (loss, corruption,
    /// delay) recovers bit-identically through the checksum-retry path or,
    /// once a transfer exhausts its budget, fails with `TransferFailed`.
    #[test]
    fn prop_dma_chaos_bit_identical_or_typed(
        n in 8usize..56,
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.6,
    ) {
        let plan = FaultPlan::seeded(fault_seed)
            .with_rate(FaultKind::DmaFail, rate)
            .with_rate(FaultKind::DmaCorrupt, rate)
            .with_rate(FaultKind::DmaDelay, rate);
        dma_chaos(&problem::random_seeds_f32(n, 100.0, n as u64 + 1), plan);
        dma_chaos(&problem::random_seeds_f64(n, 100.0, n as u64 + 1), plan);
    }

    /// Property: the multi-SPE protocol under *mixed* fault schedules —
    /// DMA faults, mailbox drops/stalls, SPE stalls and crashes — completes
    /// bit-identically (possibly degraded, on fewer SPEs) or fails typed.
    #[test]
    fn prop_multi_spe_chaos_bit_identical_or_typed(
        n in 16usize..48,
        spes in 1usize..5,
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.25,
        mask in 1u16..256,
    ) {
        let seeds = problem::random_seeds_f32(n, 100.0, n as u64 + 2);
        let reference = SerialEngine.solve(&seeds);
        let faults = FaultInjector::new(plan_from(fault_seed, rate, mask));
        let ctx = ExecContext::disabled().with_faults(&faults).with_retry(CHAOS_RETRY);
        match functional_cellnpdp_multi_spe_with(&seeds, 8, 2, spes, &ctx) {
            Ok((got, report)) => {
                prop_assert_eq!(reference.first_difference(&got), None);
                prop_assert!(report.dead_spes < spes);
            }
            Err(e) => assert_typed(&e),
        }
    }

    /// Property: deterministic replay. The same fault seed produces the
    /// same fault sequence — identical injector counters, identical outcome
    /// (same table bit-for-bit, or the same error), identical protocol
    /// report — on the single-threaded multi-SPE simulator.
    #[test]
    fn prop_replay_is_deterministic(
        n in 16usize..40,
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.3,
        mask in 1u16..256,
    ) {
        let seeds = problem::random_seeds_f32(n, 100.0, n as u64 + 3);
        let run = || {
            let faults = FaultInjector::new(plan_from(fault_seed, rate, mask));
            let ctx = ExecContext::disabled().with_faults(&faults).with_retry(CHAOS_RETRY);
            let r = functional_cellnpdp_multi_spe_with(&seeds, 8, 2, 3, &ctx);
            (r, faults.snapshot())
        };
        let (r1, snap1) = run();
        let (r2, snap2) = run();
        prop_assert_eq!(snap1, snap2, "fault sequence must replay identically");
        match (r1, r2) {
            (Ok((t1, rep1)), Ok((t2, rep2))) => {
                prop_assert_eq!(t1.first_difference(&t2), None);
                prop_assert_eq!(rep1.rounds, rep2.rounds);
                prop_assert_eq!(rep1.resends, rep2.resends);
                prop_assert_eq!(rep1.rebalanced_blocks, rep2.rebalanced_blocks);
                prop_assert_eq!(rep1.dead_spes, rep2.dead_spes);
            }
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            (a, b) => prop_assert!(false, "outcomes diverged: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}

/// Replay extends to the event timeline: the same fault seed produces the
/// same trace (same tracks, same per-track event counts, same fault
/// instants) on the single-threaded simulator.
#[test]
fn trace_replays_identically_under_faults() {
    let seeds = problem::random_seeds_f32(40, 100.0, 9);
    let capture = || {
        let faults = FaultInjector::new(FaultPlan::default_rates(31, 0.15));
        let tracer = Tracer::new();
        let r = functional_cellnpdp_multi_spe_with(
            &seeds,
            8,
            2,
            3,
            &ExecContext::disabled()
                .with_faults(&faults)
                .with_retry(CHAOS_RETRY)
                .with_tracer(&tracer),
        );
        assert!(r.is_ok() || r.is_err()); // either way the trace must replay
        let data = tracer.snapshot();
        let shape: Vec<(String, usize)> = data
            .tracks
            .iter()
            .map(|t| (t.name.clone(), t.events.len()))
            .collect();
        let faults_seen = data
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e.kind, npdp::trace::EventKind::Fault { .. }))
            .count();
        (shape, faults_seen, faults.snapshot())
    };
    let (shape1, f1, snap1) = capture();
    let (shape2, f2, snap2) = capture();
    assert_eq!(shape1, shape2);
    assert_eq!(f1, f2);
    assert_eq!(snap1, snap2);
}

/// The host executors replay deterministically too: injection decisions are
/// pure in (seed, site), so thread scheduling cannot change which tasks
/// panic or how often.
#[test]
fn host_fault_counters_replay_across_thread_interleavings() {
    quiet_injected_panics();
    let seeds = problem::random_seeds_f32(64, 100.0, 10);
    let reference = SerialEngine.solve(&seeds);
    let mut snaps = Vec::new();
    for _ in 0..3 {
        let faults =
            FaultInjector::new(FaultPlan::seeded(123).with_rate(FaultKind::TaskPanic, 0.3));
        let engine = ParallelEngine::new(16, 1, 4);
        let (got, _) = engine
            .solve_with(
                &seeds,
                &ExecContext::disabled()
                    .with_faults(&faults)
                    .with_retry(CHAOS_RETRY),
            )
            .expect("0.3 rate recovers under a 16-attempt budget");
        assert_eq!(reference.first_difference(&got), None);
        snaps.push(faults.snapshot());
    }
    assert_eq!(snaps[0], snaps[1]);
    assert_eq!(snaps[1], snaps[2]);
}

/// Regression for the driver's claim/abort race, on every discipline: once
/// a worker observes the abort flag, no task body may start and no fresh
/// retry budget may be spent. Injected panics fire *before* the body, so
/// under a total injection rate no body ever runs and every recorded panic
/// is one spent attempt — which makes the attempt budget countable. A
/// correct driver stops at the first terminal failure; since a task turns
/// terminal once it reaches `max_attempts`, the abort lands after at most
/// `n·(max_attempts−1) + 1` attempts, plus one already-in-flight attempt
/// per extra worker. A racy driver that keeps claiming from the wide
/// root-only ready set instead drains it to exhaustion — `n·max_attempts`
/// attempts, well past the cap. With one worker and a one-attempt budget
/// the cap is exact: precisely one panic, then silence.
#[test]
fn no_task_body_starts_after_abort_under_total_injection() {
    quiet_injected_panics();
    const N: u64 = 64;
    for sched in [
        Scheduler::CentralQueue,
        Scheduler::WorkStealing,
        Scheduler::LocalityBatched,
        Scheduler::pipelined(),
    ] {
        for workers in [1usize, 4] {
            for max_attempts in [1u32, 2] {
                // No edges: all tasks are roots, claimable the instant the
                // run starts — maximal opportunity for a post-abort claim.
                let graph = TaskGraph::new(N as usize);
                let faults =
                    FaultInjector::new(FaultPlan::seeded(7).with_rate(FaultKind::TaskPanic, 1.0));
                let (metrics, recorder) = Metrics::recording();
                let ctx = ExecContext::disabled()
                    .with_metrics(&metrics)
                    .with_faults(&faults)
                    .with_retry(RetryPolicy {
                        max_attempts,
                        base_backoff: 1,
                    })
                    .with_scheduler(sched);
                let bodies = AtomicUsize::new(0);
                let err = npdp::tasks::run(&graph, workers, &ctx, |_| {
                    bodies.fetch_add(1, Ordering::Relaxed);
                })
                .expect_err("total injection must exhaust the retry budget");
                let ExecError::TaskPanicked { attempts, .. } = err;
                let tag = format!("{sched:?}/{workers}w/{max_attempts}a");
                assert_eq!(attempts, max_attempts, "{tag}");
                assert_eq!(
                    bodies.load(Ordering::Relaxed),
                    0,
                    "{tag}: no task body may run under total injection"
                );
                let panics = recorder.get("queue.task_panics");
                let cap = N * u64::from(max_attempts - 1) + workers as u64;
                assert!(
                    panics <= cap,
                    "{tag}: {panics} panics exceed the stop-at-first-terminal \
                     cap of {cap} — workers kept claiming after the abort"
                );
            }
        }
    }
}

/// Poisoned inputs are rejected typed at every front door, and the
/// saturating min-plus add keeps adversarial integer seeds from wrapping
/// into wrong answers (the unit details live in npdp-core; this pins the
/// end-to-end behavior).
#[test]
fn poisoned_inputs_fail_typed_end_to_end() {
    let mut bad = problem::random_seeds_f32(32, 100.0, 11);
    bad.set(1, 17, f32::NAN);
    match ParallelEngine::new(16, 2, 2)
        .solve_with(&bad, &ExecContext::disabled())
        .map(|(table, _)| table)
    {
        Err(SolveError::InvalidSeed { i: 1, j: 17, .. }) => {}
        other => panic!("expected InvalidSeed, got {other:?}"),
    }

    let mut neg = problem::random_seeds_f32(16, 100.0, 12);
    neg.set(0, 3, -4.0);
    assert!(matches!(
        SerialEngine
            .solve_with(&neg, &ExecContext::disabled())
            .map(|(table, _)| table),
        Err(SolveError::InvalidSeed { i: 0, j: 3, .. })
    ));

    // Adversarial integer "infinities" saturate instead of wrapping: the
    // solve completes with every cell still a sane min-plus value.
    use npdp::core::TriangularMatrix;
    let hostile = TriangularMatrix::from_fn(24, |i, j| {
        if (i + j) % 5 == 0 {
            i64::MAX / 2
        } else {
            (i + j) as i64
        }
    });
    let solved = SerialEngine.solve(&hostile);
    for (_, _, v) in solved.iter() {
        assert!(v >= 0, "min-plus closure wrapped negative: {v}");
    }
}

/// The fault vocabulary is complete: `ALL_FAULT_KINDS` lists every kind
/// once, in discriminant order, under a distinct name, and an injector
/// counts each kind under its own `fault.injected.<name>` key. The default
/// chaos mix leaves the scripted dispatch stall out.
#[test]
fn every_fault_kind_is_listed_named_and_counted() {
    let mut names = std::collections::BTreeSet::new();
    for (i, kind) in ALL_FAULT_KINDS.into_iter().enumerate() {
        assert_eq!(kind as usize, i, "{kind:?} out of discriminant order");
        assert_eq!(kind.code() as usize, i);
        assert!(names.insert(kind.name()), "duplicate name {}", kind.name());
    }
    assert!(ALL_FAULT_KINDS.contains(&FaultKind::DispatchStall));
    let faults = FaultInjector::new(FaultPlan::seeded(5).with_uniform_rate(1.0));
    for kind in ALL_FAULT_KINDS {
        assert!(faults.should_inject(kind, 0));
    }
    let snap: std::collections::HashMap<String, u64> = faults.snapshot().into_iter().collect();
    for kind in ALL_FAULT_KINDS {
        assert_eq!(
            snap[&format!("fault.injected.{}", kind.name())],
            1,
            "{kind:?}"
        );
    }
    assert_eq!(snap["fault.injected"], ALL_FAULT_KINDS.len() as u64);
    assert_eq!(
        FaultPlan::default_rates(5, 0.2).rate(FaultKind::DispatchStall),
        0.0
    );
}

/// A dispatch stall only delays: with every small-epoch and large-lane
/// dispatch held, and task panics retried inside the epochs, the served
/// bytes equal direct solves, and each dispatch is one counted injection.
#[test]
fn dispatch_stalls_delay_served_work_but_never_change_it() {
    use npdp::serve::client::Client;
    use npdp::serve::protocol::{Request, Status, Workload};
    use npdp::serve::server::{spawn, ServerConfig};
    use npdp::serve::solve::solve_direct;
    use npdp::serve::stats::Phase;

    quiet_injected_panics();
    let faults = FaultInjector::new(
        FaultPlan::seeded(17)
            .with_rate(FaultKind::DispatchStall, 1.0)
            .with_rate(FaultKind::TaskPanic, 0.3),
    );
    let ctx = ExecContext::disabled()
        .with_faults(&faults)
        .with_retry(CHAOS_RETRY);
    let small = 6u64;
    let cfg = ServerConfig {
        workers: 2,
        small_threshold: 48,
        // The held epoch worker lets go once all small requests queue.
        batch_max: small as usize,
        cache_bytes: 0,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    let server = spawn(cfg, None, &ctx).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut reqs: Vec<Request> = (0..small)
        .map(|i| Request {
            id: i,
            deadline_ms: 0,
            tenant: "chaos".into(),
            workload: Workload::ClosureSynthetic {
                n: 12 + i as u32,
                seed: i,
            },
        })
        .collect();
    reqs.push(Request {
        id: small,
        deadline_ms: 0,
        tenant: "chaos".into(),
        workload: Workload::ClosureSynthetic { n: 64, seed: 9 },
    });
    let resps = client.call_many(&reqs).unwrap();
    for (r, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.status, Status::Ok, "{}", resp.message());
        assert_eq!(
            resp.body,
            solve_direct(&r.workload).unwrap().encode_body(),
            "a stalled dispatch must not change served bytes"
        );
    }
    let snap = server.shutdown();
    let small_dispatches = snap.phase(Phase::BatchLinger.key()).unwrap().count;
    assert_eq!(snap.counter("serve.large_solves"), 1);
    assert_eq!(
        faults.injected(FaultKind::DispatchStall),
        small_dispatches + 1,
        "every small-epoch and large-lane dispatch stalls once"
    );
}
