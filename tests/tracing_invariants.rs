//! Cross-crate tracing invariants: the event journal must observe without
//! steering (bit-identical results), and traces captured from the *real*
//! executors must always be well-formed — spans nest and balance per track,
//! every recorded block id is a valid triangle block, and every memory block
//! is computed exactly once.

use npdp::core::problem;
use npdp::prelude::*;
use npdp::trace::analysis::{analyze, pair_spans};
use npdp::trace::{chrome, EventKind, TimeDomain};
use npdp_metrics::json::Value;
use proptest::prelude::*;

fn block_spans(data: &npdp::trace::TraceData) -> Vec<(u32, u32)> {
    pair_spans(data)
        .expect("spans nest and balance")
        .into_iter()
        .filter_map(|s| match s.kind {
            EventKind::Block { bi, bj } => Some((bi, bj)),
            _ => None,
        })
        .collect()
}

#[test]
fn traced_solve_is_bit_identical() {
    let seeds = problem::random_seeds_f32(96, 100.0, 9);
    let engine = ParallelEngine::new(8, 2, 4);
    let plain = engine.solve(&seeds);
    let (noop, _) = engine
        .solve_with(&seeds, &ExecContext::disabled())
        .expect("valid seeds");
    assert_eq!(plain.first_difference(&noop), None);
    let tracer = Tracer::new();
    let (live, _) = engine
        .solve_with(&seeds, &ExecContext::disabled().with_tracer(&tracer))
        .expect("valid seeds");
    assert_eq!(plain.first_difference(&live), None);
}

#[test]
fn traced_parallel_run_covers_every_block_once() {
    let n = 96usize;
    let nb = 8usize;
    let mb = n.div_ceil(nb);
    let tracer = Tracer::new();
    let engine = ParallelEngine::new(nb, 2, 4);
    engine
        .solve_with(
            &problem::random_seeds_f32(n, 100.0, 3),
            &ExecContext::disabled().with_tracer(&tracer),
        )
        .expect("valid seeds");

    let data = tracer.snapshot();
    assert_eq!(data.tracks.len(), 4);
    assert_eq!(data.dropped(), 0);
    let mut blocks = block_spans(&data);
    blocks.sort_unstable();
    let expected: Vec<(u32, u32)> = (0..mb as u32)
        .flat_map(|bi| (bi..mb as u32).map(move |bj| (bi, bj)))
        .collect();
    assert_eq!(blocks, expected);
}

#[test]
fn traced_run_analysis_reports_full_diagonal_coverage() {
    let tracer = Tracer::new();
    ParallelEngine::new(8, 1, 3)
        .solve_with(
            &problem::random_seeds_f32(64, 100.0, 5),
            &ExecContext::disabled().with_tracer(&tracer),
        )
        .expect("valid seeds");
    let a = analyze(&tracer.snapshot()).expect("well-formed trace");
    assert_eq!(a.domains.len(), 1);
    let d = &a.domains[0];
    assert_eq!(d.domain, TimeDomain::WallNs);
    assert_eq!(d.workers.len(), 3);
    // 64/8 = 8 blocks per side → 8 diagonals, diagonal d has 8-d blocks.
    assert_eq!(d.diagonals.len(), 8);
    for o in &d.diagonals {
        assert_eq!(o.blocks as u32, 8 - o.diagonal);
        assert!(o.occupancy > 0.0 && o.occupancy <= 1.0);
    }
    // Any root-to-apex chain in the left+below DAG makes r up-moves and
    // mb-1-r right-moves: exactly mb blocks regardless of the root.
    let cp = d.critical_path.as_ref().expect("critical path");
    assert_eq!(cp.blocks.len(), 8);
    assert!(cp.parallelism >= 1.0);
}

#[test]
fn exported_real_trace_parses_as_chrome_json() {
    let tracer = Tracer::new();
    ParallelEngine::new(8, 2, 2)
        .solve_with(
            &problem::random_seeds_f32(48, 100.0, 7),
            &ExecContext::disabled().with_tracer(&tracer),
        )
        .expect("valid seeds");
    let doc = chrome::chrome_trace(&tracer.snapshot());
    let parsed = Value::parse(&doc.to_json_pretty()).expect("valid JSON");
    let Some(Value::Array(events)) = parsed.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    assert!(!events.is_empty());
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph present");
        assert!(["B", "E", "i", "M"].contains(&ph), "unknown phase {ph}");
        assert!(ev.get("tid").and_then(Value::as_u64).is_some());
        if ph != "M" {
            let ts = ev.get("ts").and_then(Value::as_f64).expect("ts present");
            assert!(ts >= 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: across problem shapes, worker counts and both schedulers,
    /// the journal from a real run pairs cleanly, block ids stay inside the
    /// triangle, and the block set is exactly the triangle.
    #[test]
    fn prop_real_executor_traces_are_well_formed(
        n in 8usize..80,
        nb_pow in 0u32..2,
        sb in 1usize..4,
        workers in 1usize..6,
        stealing in any::<bool>(),
    ) {
        let nb = 4usize << nb_pow;
        let mb = n.div_ceil(nb);
        let mut engine = ParallelEngine::new(nb, sb, workers);
        if stealing {
            engine = engine.with_scheduler(Scheduler::WorkStealing);
        }
        let tracer = Tracer::new();
        let ctx = ExecContext::disabled().with_tracer(&tracer);
        engine
            .solve_with(&problem::random_seeds_f32(n, 100.0, n as u64), &ctx)
            .expect("valid seeds");
        let data = tracer.snapshot();
        prop_assert_eq!(data.dropped(), 0);
        // pair_spans (inside block_spans) asserts nesting/balance.
        let mut blocks = block_spans(&data);
        for &(bi, bj) in &blocks {
            prop_assert!(bi <= bj && (bj as usize) < mb, "block ({bi},{bj}) outside mb={mb}");
        }
        blocks.sort_unstable();
        let expected: Vec<(u32, u32)> = (0..mb as u32)
            .flat_map(|bi| (bi..mb as u32).map(move |bj| (bi, bj)))
            .collect();
        prop_assert_eq!(blocks, expected);
        // The analyzer accepts every real trace.
        prop_assert!(analyze(&data).is_ok());
    }
}
