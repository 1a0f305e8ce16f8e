//! The generic-recurrence workload gate: the four shipped DP workloads —
//! min-plus closure, optimal BST, weighted CYK, full Zuker — each solved
//! through the `Semiring`/`Recurrence` path on every engine tier,
//! cross-checked against an independent naive reference, then served
//! end-to-end through the `npdp-serve` front door (batched, cached, v4
//! protocol).
//!
//! Gates (exit 1 on any):
//! * a cross-check mismatch — the engine-path result must be *exactly*
//!   equal to its reference (bit-identical tables, not approximately);
//! * a served response that differs from a service-free direct solve;
//! * a repeated request that fails to hit the solve cache;
//! * any non-`Ok` response status.
//!
//! The report (`BENCH_workloads.json`, schema `cellnpdp-bench-v1`) carries
//! one row per (workload, engine) cross-check with the generic-path solve
//! time, plus served/cache counters. `NPDP_REPRO_SMALL=1` shrinks sizes.

use std::sync::Arc;
use std::time::Instant;

use bench::{gate_fail, header, host_workers, time_min, write_report, Cli, Report};
use npdp_core::apps::cyk::{cyk_reference, random_grammar, random_tokens};
use npdp_core::apps::{cyk_parse_on, optimal_bst, optimal_bst_on};
use npdp_core::recurrence::ClosureRec;
use npdp_core::{
    problem, BlockedEngine, Engine, MinPlus, ParallelEngine, SerialEngine, SimdEngine,
    SolveRecurrence,
};
use npdp_exec::ExecContext;
use npdp_metrics::json::Value;
use npdp_serve::client::Client;
use npdp_serve::protocol::{Request, Status, Workload};
use npdp_serve::server::{spawn, ServerConfig};
use npdp_serve::solve::{bst_freqs, solve_direct, zuker_model};
use zuker::on_engine::fold_on_engine;
use zuker::sequence::random_sequence;
use zuker::{fold_exact, EnergyModel};

/// One cross-check outcome for the report and the gate.
struct Check {
    workload: &'static str,
    engine: &'static str,
    n: usize,
    seconds: f64,
    ok: bool,
}

fn main() {
    let cli = Cli::parse();
    header(
        "Workloads",
        "four DP workloads through the generic Semiring/Recurrence path",
        "the engines are algebra-agnostic: one recurrence spelling runs the\n\
         blocked NDL layout, tile kernels and task queue unchanged — and\n\
         must agree exactly with naive references and the serving layer.",
    );

    let (closure_n, bst_keys, cyk_tokens, zuker_bases) = if cli.small {
        (96usize, 48usize, 28usize, 40usize)
    } else {
        (384, 192, 64, 96)
    };
    let ctx = ExecContext::disabled();
    let workers = host_workers().min(8);
    let mut checks: Vec<Check> = Vec::new();

    // Engines under test: one per tier. Each workload runs on all of them
    // through the same `SolveRecurrence` entry point.
    let serial = SerialEngine;
    let blocked = BlockedEngine::new(16);
    let simd = SimdEngine::new(16);
    let parallel = ParallelEngine::new(32, 2, workers);

    macro_rules! per_engine {
        ($f:expr) => {{
            let f = $f;
            [
                ("serial", f(&serial)),
                ("blocked", f(&blocked)),
                ("simd", f(&simd)),
                ("parallel", f(&parallel)),
            ]
        }};
    }

    // ── Min-plus closure: the generic path vs. the classic engine path,
    // bit for bit (the tentpole's no-regression contract).
    {
        let seeds = problem::random_seeds_f32(closure_n, 100.0, 17);
        let reference = serial.solve(&seeds);
        for (name, (seconds, ok)) in per_engine!(|e: &dyn DynCheck| {
            let rec = ClosureRec::new(MinPlus::<f32>::new(), &seeds);
            let t = time_min(3, || e.closure(&rec, &ctx));
            let table = e.closure(&rec, &ctx);
            (t, table.first_difference(&reference).is_none())
        }) {
            checks.push(Check {
                workload: "closure",
                engine: name,
                n: closure_n,
                seconds,
                ok,
            });
        }
    }

    // ── Optimal BST: the on-engine rooted recurrence vs. the serial
    // `solve_rooted` reference — exact table equality.
    {
        let freq = bst_freqs(bst_keys as u32, 5);
        let reference = optimal_bst(&freq);
        for (name, (seconds, ok)) in per_engine!(|e: &dyn DynCheck| {
            let t = time_min(3, || e.bst(&freq, &ctx));
            let bst = e.bst(&freq, &ctx);
            (
                t,
                bst.table.first_difference(&reference.table).is_none()
                    && bst.optimal_cost() == reference.optimal_cost(),
            )
        }) {
            checks.push(Check {
                workload: "bst",
                engine: name,
                n: bst_keys,
                seconds,
                ok,
            });
        }
    }

    // ── CYK: on-engine tropical-semiring parse vs. the textbook O(n³)
    // span-length reference (different loop structure, no shared code).
    {
        let grammar = Arc::new(random_grammar(23));
        let tokens = random_tokens(&grammar, cyk_tokens, 23);
        let reference = cyk_reference(&grammar, &tokens);
        for (name, (seconds, ok)) in per_engine!(|e: &dyn DynCheck| {
            let t = time_min(3, || e.cyk(&grammar, &tokens, &ctx));
            let parse = e.cyk(&grammar, &tokens, &ctx);
            (t, parse == reference)
        }) {
            checks.push(Check {
                workload: "cyk",
                engine: name,
                n: cyk_tokens,
                seconds,
                ok,
            });
        }
    }

    // ── Full Zuker (multibranch included): the composite-semiring
    // recurrence vs. the interleaved `fold_exact` reference.
    {
        let model = zuker_model();
        let seq = random_sequence(zuker_bases, 31);
        let reference = fold_exact(&seq, &model);
        for (name, (seconds, ok)) in per_engine!(|e: &dyn DynCheck| {
            let t = time_min(3, || e.zuker(&seq, &model, &ctx));
            let fold = e.zuker(&seq, &model, &ctx);
            (
                t,
                fold.energy == reference.energy && fold.w.first_difference(&reference.w).is_none(),
            )
        }) {
            checks.push(Check {
                workload: "zuker",
                engine: name,
                n: zuker_bases,
                seconds,
                ok,
            });
        }
    }

    println!(
        "{:<10} {:>6}   {:>10} {:>10} {:>10} {:>10}",
        "workload", "n", "serial", "blocked", "simd", "parallel"
    );
    for w in ["closure", "bst", "cyk", "zuker"] {
        let row: Vec<&Check> = checks.iter().filter(|c| c.workload == w).collect();
        let cell = |e: &str| {
            let c = row.iter().find(|c| c.engine == e).unwrap();
            format!("{:>7.3}ms{}", c.seconds * 1e3, if c.ok { " " } else { "✗" })
        };
        println!(
            "{:<10} {:>6}   {:>10} {:>10} {:>10} {:>10}",
            w,
            row[0].n,
            cell("serial"),
            cell("blocked"),
            cell("simd"),
            cell("parallel"),
        );
    }
    let failed_checks = checks.iter().filter(|c| !c.ok).count();

    // ── Serve every kind end-to-end: batched/cached like closure traffic.
    let server = spawn(
        ServerConfig {
            workers,
            small_threshold: 64,
            large_lanes: 1,
            cache_bytes: 1 << 20,
            ..ServerConfig::default()
        },
        None,
        &ctx,
    )
    .expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let served_workloads = [
        Workload::ClosureSynthetic { n: 48, seed: 1 },
        Workload::BstSynthetic { keys: 40, seed: 2 },
        Workload::CykSynthetic {
            tokens: 24,
            seed: 3,
        },
        Workload::ZukerSynthetic { bases: 36, seed: 4 },
    ];
    let mut served = 0u64;
    let mut served_wrong = 0u64;
    let mut cache_hits = 0u64;
    let t_serve = Instant::now();
    for (i, workload) in served_workloads.iter().enumerate() {
        let expected = solve_direct(workload).expect("direct solve").encode_body();
        // Twice: a cold solve, then a cache hit with identical bytes.
        for round in 0..2u64 {
            let resp = client
                .call(&Request {
                    id: i as u64 * 2 + round,
                    deadline_ms: 0,
                    tenant: "workloads".into(),
                    workload: workload.clone(),
                })
                .expect("response");
            served += 1;
            if resp.status != Status::Ok {
                served_wrong += 1;
                eprintln!("{}: status {:?}", workload.kind_name(), resp.status);
                continue;
            }
            if resp.body != expected {
                served_wrong += 1;
                eprintln!(
                    "{}: served bytes differ from direct solve",
                    workload.kind_name()
                );
            }
            if round == 1 && !resp.cached {
                served_wrong += 1;
                eprintln!("{}: repeat was not a cache hit", workload.kind_name());
            }
            if resp.cached {
                cache_hits += 1;
            }
        }
    }
    let serve_wall = t_serve.elapsed().as_secs_f64();
    server.shutdown();
    println!(
        "\nserved {served} requests ({cache_hits} cache hits) in {:.1} ms — \
         {served_wrong} wrong",
        serve_wall * 1e3
    );

    let mut report = Report::new("workloads");
    report
        .set_param("closure_n", closure_n as u64)
        .set_param("bst_keys", bst_keys as u64)
        .set_param("cyk_tokens", cyk_tokens as u64)
        .set_param("zuker_bases", zuker_bases as u64)
        .set_param("workers", workers as u64)
        .add_timing("serve_wall", serve_wall)
        .set_counter("workloads.crosschecks", checks.len() as u64)
        .set_counter("workloads.crosscheck_failures", failed_checks as u64)
        .set_counter("workloads.served", served)
        .set_counter("workloads.served_wrong", served_wrong)
        .set_counter("workloads.cache_hits", cache_hits);
    for c in &checks {
        let mut row = Value::object();
        row.set("workload", c.workload)
            .set("engine", c.engine)
            .set("n", c.n as u64)
            .set("seconds", c.seconds)
            .set("ok", c.ok);
        report.add_row(row);
    }
    write_report(&report, cli.json.as_deref());

    if failed_checks > 0 {
        gate_fail(&format!("{failed_checks} cross-check(s) failed"));
    }
    if served_wrong > 0 {
        gate_fail(&format!("{served_wrong} served response problem(s)"));
    }
    println!(
        "\nall {} cross-checks exact, all served bytes correct ✓",
        checks.len()
    );
}

/// Object-safe adapter over the (generic, hence not object-safe)
/// [`SolveRecurrence`] entry points, so the four engine tiers fit one
/// array and each workload's check is written once.
trait DynCheck {
    fn closure(
        &self,
        rec: &ClosureRec<'_, MinPlus<f32>>,
        ctx: &ExecContext,
    ) -> npdp_core::TriangularMatrix<f32>;
    fn bst(&self, freq: &[i64], ctx: &ExecContext) -> npdp_core::apps::OptimalBst;
    fn cyk(
        &self,
        grammar: &Arc<npdp_core::apps::Grammar>,
        tokens: &[usize],
        ctx: &ExecContext,
    ) -> Option<i32>;
    fn zuker(
        &self,
        seq: &[zuker::Base],
        model: &EnergyModel,
        ctx: &ExecContext,
    ) -> zuker::FoldResult;
}

impl<E: SolveRecurrence> DynCheck for E {
    fn closure(
        &self,
        rec: &ClosureRec<'_, MinPlus<f32>>,
        ctx: &ExecContext,
    ) -> npdp_core::TriangularMatrix<f32> {
        self.solve_recurrence(rec, ctx).expect("closure solve").0
    }

    fn bst(&self, freq: &[i64], ctx: &ExecContext) -> npdp_core::apps::OptimalBst {
        optimal_bst_on(self, freq, ctx).expect("bst solve")
    }

    fn cyk(
        &self,
        grammar: &Arc<npdp_core::apps::Grammar>,
        tokens: &[usize],
        ctx: &ExecContext,
    ) -> Option<i32> {
        cyk_parse_on(self, Arc::clone(grammar), tokens, ctx)
            .expect("cyk solve")
            .weight()
    }

    fn zuker(
        &self,
        seq: &[zuker::Base],
        model: &EnergyModel,
        ctx: &ExecContext,
    ) -> zuker::FoldResult {
        fold_on_engine(seq, model, self, ctx).expect("zuker solve")
    }
}
