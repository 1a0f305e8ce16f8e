//! Network-chaos load test for the serve layer: drive a mixed request
//! stream through deadline-bounded retrying clients whose socket ops are
//! deterministically torn, delayed, dropped and stalled, and assert the
//! serving invariant that makes chaos survivable:
//!
//! > **Every request ends in exactly one of {correct bytes, typed
//! > rejection, typed transport error} — never a hang, never a wrong
//! > byte.**
//!
//! Three scenarios per run, all against real `npdp-serve` servers:
//!
//! 1. **Chaos load** — client threads call through
//!    [`Client::connect_chaos`] under a seeded `FaultKind::Net*` plan,
//!    with [`CallOpts`] socket timeouts, per-call deadlines and
//!    retry-with-backoff. Ok bodies are verified bit-identical to a
//!    direct solve of the same seeds.
//! 2. **Deadline load** — requests stamped with budgets a busy epoch or
//!    lane often outlives; each must come back `Ok` (solved in time) or a
//!    typed `DeadlineExceeded`, and the server's phase accounting must
//!    agree with the client-observed counts.
//! 3. **Killed / silent server** — one call races a mid-request server
//!    kill (typed result, never a hang), and one call hits a peer that
//!    accepts and goes silent (typed timeout within the configured
//!    `read_timeout` budget).
//!
//! A watchdog thread turns any would-be hang into a gate failure. The
//! run gate-fails on wrong bytes, undecodable responses, unaccounted
//! outcomes, a fault plan that never fired (each injected `Net*` kind
//! must land ≥ 1 time), or a silent-peer call that outlives its budget.
//!
//! The report (`BENCH_chaos_serve.json`, schema `cellnpdp-bench-v1`)
//! carries the outcome census, per-kind injected-fault counters, client
//! latency percentiles under chaos, and the full `serve.*` vocabulary
//! (including `serve.net.*` and `serve.cache.*`).
//!
//! `--faults <seed>` picks the chaos plan seed (default 7 — this binary
//! is always chaotic); `--fault-rate <r>` the per-op rate (default
//! 0.05). `NPDP_REPRO_SMALL=1` shrinks the stream to CI-smoke time.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::{gate_fail, header, host_workers, write_report, Cli, Report, EXIT_GATE_FAIL};
use npdp_exec::ExecContext;
use npdp_fault::{FaultInjector, FaultPlan, RetryPolicy, NET_FAULT_KINDS};
use npdp_metrics::Metrics;
use npdp_serve::client::{CallOpts, Client, ClientError};
use npdp_serve::load::{synthetic_stream, LatencyRecorder, MixConfig};
use npdp_serve::protocol::{Request, Status, Workload};
use npdp_serve::server::{spawn, ServerConfig};
use npdp_serve::solve::solve_direct;
use npdp_serve::stats::Phase;
use npdp_serve::workload_key;

/// Outcome census: every request lands in exactly one bucket.
#[derive(Default)]
struct Outcomes {
    ok_correct: AtomicUsize,
    wrong: AtomicUsize,
    rejected_overloaded: AtomicUsize,
    rejected_deadline: AtomicUsize,
    rejected_other: AtomicUsize,
    transport: AtomicUsize,
    wire: AtomicUsize,
}

impl Outcomes {
    fn total(&self) -> usize {
        self.ok_correct.load(Ordering::Relaxed)
            + self.wrong.load(Ordering::Relaxed)
            + self.rejected_overloaded.load(Ordering::Relaxed)
            + self.rejected_deadline.load(Ordering::Relaxed)
            + self.rejected_other.load(Ordering::Relaxed)
            + self.transport.load(Ordering::Relaxed)
            + self.wire.load(Ordering::Relaxed)
    }
}

/// Classify one finished call into the census, verifying Ok bytes
/// against the expected body.
fn classify(
    out: &Outcomes,
    req: &Request,
    result: Result<npdp_serve::Response, ClientError>,
    expected: &[u8],
) {
    match result {
        Ok(resp) => match resp.status {
            Status::Ok => {
                if resp.body == expected {
                    out.ok_correct.fetch_add(1, Ordering::Relaxed);
                } else {
                    out.wrong.fetch_add(1, Ordering::Relaxed);
                    eprintln!("WRONG BYTES for request {} ({:?})", req.id, req.workload);
                }
            }
            Status::Overloaded => {
                out.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            }
            Status::DeadlineExceeded => {
                out.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            }
            Status::Invalid | Status::Failed => {
                out.rejected_other.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "unexpected typed rejection {:?} for request {}",
                    resp.status, req.id
                );
            }
        },
        Err(e) if e.is_transport() => {
            out.transport.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            // An undecodable response means served bytes were corrupted
            // somewhere chaos cannot legitimately reach.
            out.wire.fetch_add(1, Ordering::Relaxed);
            eprintln!("undecodable response for request {}: {e}", req.id);
        }
    }
}

fn main() {
    let cli = Cli::parse();
    header(
        "ChaosServe",
        "deadline-aware serving under network chaos (torn / delayed / dropped / stalled)",
        "every request must end in correct bytes, a typed rejection, or a\n\
         typed transport error — never a hang, never a wrong byte.",
    );

    let (seed, rate) = match &cli.faults {
        Some(fa) => (fa.seed, fa.rate),
        None => (7u64, 0.05f64),
    };
    let (requests, deadline_requests, small_side, large_side, threads) = if cli.small {
        (600usize, 200usize, 20u32, 96u32, 6usize)
    } else {
        (2000, 600, 40, 160, 8)
    };

    // Watchdog: the no-hang invariant, enforced mechanically. If the run
    // outlives its wall budget something blocked forever — gate-fail
    // instead of hanging CI.
    let wall_budget = if cli.small {
        Duration::from_secs(180)
    } else {
        Duration::from_secs(480)
    };
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            while !done.load(Ordering::Acquire) {
                if t0.elapsed() > wall_budget {
                    eprintln!(
                        "\nGATE FAILED: watchdog — run exceeded {:?} wall budget (a hang)",
                        wall_budget
                    );
                    std::process::exit(EXIT_GATE_FAIL);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
    }

    let mut plan = FaultPlan::seeded(seed);
    for &k in &NET_FAULT_KINDS {
        plan = plan.with_rate(k, rate);
    }
    let inj = FaultInjector::new(plan);

    let (metrics, recorder) = Metrics::recording();
    let ctx = ExecContext::disabled().with_metrics(&metrics);
    let cfg = ServerConfig {
        workers: host_workers().min(8),
        small_threshold: large_side as usize,
        large_lanes: 2,
        cache_entries: 256,
        idle_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    };
    let server = spawn(cfg.clone(), None, &ctx).expect("spawn server");
    let addr = server.addr();

    // Expected bytes, computed service-free and memoized by content key.
    let expected: Mutex<HashMap<u128, Arc<Vec<u8>>>> = Mutex::new(HashMap::new());
    let expect_for = |req: &Request| -> Arc<Vec<u8>> {
        let key = workload_key(&req.workload);
        if let Some(b) = expected.lock().unwrap().get(&key) {
            return Arc::clone(b);
        }
        let bytes = Arc::new(
            solve_direct(&req.workload)
                .expect("synthetic workloads are always solvable")
                .encode_body(),
        );
        expected.lock().unwrap().entry(key).or_insert(bytes).clone()
    };

    let opts = CallOpts {
        connect_timeout: Some(Duration::from_secs(5)),
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        deadline: Some(Duration::from_secs(20)),
        retry: RetryPolicy {
            max_attempts: 5,
            base_backoff: 2,
        },
    };

    // ---- Scenario 1: chaos load --------------------------------------
    let mix = MixConfig {
        requests,
        seed: 1234,
        small_side,
        large_side,
        tenants: 4,
        deadline_ms: 0,
    };
    let stream = synthetic_stream(&mix);
    let chaos_out = Outcomes::default();
    let next = AtomicUsize::new(0);
    let latencies: Vec<LatencyRecorder> = (0..threads).map(|_| LatencyRecorder::new()).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (t, lat) in latencies.iter().enumerate() {
            let inj = inj.clone();
            let chaos_out = &chaos_out;
            let next = &next;
            let stream = &stream;
            let expect_for = &expect_for;
            s.spawn(move || {
                // Distinct connection-site bases per thread keep fault
                // sites decorrelated across clients; reconnects inside
                // call_with_retry advance the id further.
                let mut client = Client::connect_chaos(addr, opts, inj, (t as u64) << 32)
                    .expect("connect chaos client");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = stream.get(i) else { break };
                    let expected = expect_for(req);
                    let t_call = Instant::now();
                    let result = client.call_with_retry(req);
                    lat.record(u64::try_from(t_call.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    let failed = result.is_err();
                    classify(chaos_out, req, result, &expected);
                    // A transport-failed connection may be poisoned
                    // (torn mid-frame); start the next request clean.
                    if failed && client.reconnect().is_err() {
                        break;
                    }
                }
            });
        }
    });
    let chaos_wall = t0.elapsed().as_secs_f64();

    // ---- Scenario 2: deadline load (no chaos, tight budgets) ---------
    let deadline_mix = MixConfig {
        requests: deadline_requests,
        seed: 4321,
        small_side,
        large_side,
        tenants: 2,
        // Tight enough that a busy epoch or lane often outlives it; some
        // requests still solve in time, and either outcome is a valid
        // (typed) ending.
        deadline_ms: 1,
    };
    let deadline_stream = synthetic_stream(&deadline_mix);
    let deadline_out = Outcomes::default();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(4) {
            let deadline_out = &deadline_out;
            let next = &next;
            let deadline_stream = &deadline_stream;
            let expect_for = &expect_for;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = deadline_stream.get(i) else {
                        break;
                    };
                    let expected = expect_for(req);
                    let result = client.call(req);
                    classify(deadline_out, req, result, &expected);
                }
            });
        }
    });

    let snap = server.shutdown();

    // ---- Scenario 3a: server killed mid-request ----------------------
    let kill_server = spawn(cfg.clone(), None, &ExecContext::disabled()).expect("spawn server");
    let kill_addr = kill_server.addr();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        kill_server.shutdown();
    });
    let mut client = Client::connect_with(
        kill_addr,
        CallOpts {
            read_timeout: Some(Duration::from_secs(5)),
            ..CallOpts::default()
        },
    )
    .expect("connect");
    let kill_req = Request {
        id: 1,
        deadline_ms: 0,
        tenant: "kill".into(),
        workload: Workload::ClosureSynthetic {
            n: large_side,
            seed: 999,
        },
    };
    let t_kill = Instant::now();
    let kill_result = client.call(&kill_req);
    let kill_elapsed = t_kill.elapsed();
    killer.join().expect("killer thread");
    let kill_typed = match kill_result {
        // The race can legitimately finish the solve first — then the
        // bytes must be right.
        Ok(resp) => resp.status == Status::Ok && resp.body == *expect_for(&kill_req),
        Err(e) => e.is_transport(),
    };

    // ---- Scenario 3b: peer accepts, then goes silent ------------------
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind silent peer");
    let silent_addr = listener.local_addr().unwrap();
    let silent_budget = Duration::from_millis(500);
    let keeper = std::thread::spawn(move || {
        let conn: Option<TcpStream> = listener.accept().ok().map(|(s, _)| s);
        std::thread::sleep(Duration::from_secs(2));
        drop(conn);
    });
    let mut client = Client::connect_with(
        silent_addr,
        CallOpts {
            connect_timeout: Some(silent_budget),
            read_timeout: Some(silent_budget),
            write_timeout: Some(silent_budget),
            ..CallOpts::default()
        },
    )
    .expect("connect silent peer");
    let silent_req = Request {
        id: 2,
        deadline_ms: 0,
        tenant: "silent".into(),
        workload: Workload::ClosureSynthetic { n: 8, seed: 1 },
    };
    let t_silent = Instant::now();
    let silent_result = client.call(&silent_req);
    let silent_elapsed = t_silent.elapsed();
    let silent_typed = matches!(&silent_result, Err(e) if e.is_transport());
    keeper.join().expect("silent peer thread");

    done.store(true, Ordering::Release);

    // ---- Census + report ---------------------------------------------
    let client_rec = LatencyRecorder::new();
    for lat in &latencies {
        client_rec.merge(lat);
    }
    let summary = client_rec.summary();

    println!("chaos plan: seed {seed}, per-op rate {rate}\n");
    println!("{:<30} {:>10} {:>10}", "outcome", "chaos", "deadline");
    for (label, a, b) in [
        (
            "ok (bytes verified)",
            &chaos_out.ok_correct,
            &deadline_out.ok_correct,
        ),
        (
            "typed overloaded",
            &chaos_out.rejected_overloaded,
            &deadline_out.rejected_overloaded,
        ),
        (
            "typed deadline_exceeded",
            &chaos_out.rejected_deadline,
            &deadline_out.rejected_deadline,
        ),
        (
            "typed invalid/failed",
            &chaos_out.rejected_other,
            &deadline_out.rejected_other,
        ),
        (
            "typed transport error",
            &chaos_out.transport,
            &deadline_out.transport,
        ),
        ("undecodable (GATE)", &chaos_out.wire, &deadline_out.wire),
        ("WRONG BYTES (GATE)", &chaos_out.wrong, &deadline_out.wrong),
    ] {
        println!(
            "{label:<30} {:>10} {:>10}",
            a.load(Ordering::Relaxed),
            b.load(Ordering::Relaxed)
        );
    }
    println!("\ninjected network faults:");
    for &k in &NET_FAULT_KINDS {
        println!("  {:<24} {:>8}", k.name(), inj.injected(k));
    }
    println!(
        "\nchaos client latency  p50 {:.3} ms   p99 {:.3} ms   max {:.3} ms   ({:.1} req/s)",
        summary.p50_ns as f64 / 1e6,
        summary.p99_ns as f64 / 1e6,
        summary.max_ns as f64 / 1e6,
        requests as f64 / chaos_wall,
    );
    println!(
        "killed server: typed={kill_typed} in {kill_elapsed:?};  \
         silent peer: typed={silent_typed} in {silent_elapsed:?}"
    );

    let mut report = Report::new("chaos_serve");
    report
        .set_param("requests", requests as u64)
        .set_param("deadline_requests", deadline_requests as u64)
        .set_param("threads", threads as u64)
        .set_param("fault_seed", seed)
        .set_param("fault_rate", rate)
        .set_param("small_side", small_side as u64)
        .set_param("large_side", large_side as u64)
        .add_timing("chaos_wall", chaos_wall)
        .set_counter(
            "chaos.ok_correct",
            chaos_out.ok_correct.load(Ordering::Relaxed) as u64,
        )
        .set_counter(
            "chaos.typed_overloaded",
            chaos_out.rejected_overloaded.load(Ordering::Relaxed) as u64,
        )
        .set_counter(
            "chaos.typed_deadline",
            chaos_out.rejected_deadline.load(Ordering::Relaxed) as u64,
        )
        .set_counter(
            "chaos.typed_other",
            chaos_out.rejected_other.load(Ordering::Relaxed) as u64,
        )
        .set_counter(
            "chaos.transport_errors",
            chaos_out.transport.load(Ordering::Relaxed) as u64,
        )
        .set_counter(
            "chaos.wire_errors",
            chaos_out.wire.load(Ordering::Relaxed) as u64,
        )
        .set_counter(
            "chaos.wrong_responses",
            chaos_out.wrong.load(Ordering::Relaxed) as u64,
        )
        .set_counter(
            "deadline.ok_correct",
            deadline_out.ok_correct.load(Ordering::Relaxed) as u64,
        )
        .set_counter(
            "deadline.typed_deadline",
            deadline_out.rejected_deadline.load(Ordering::Relaxed) as u64,
        )
        .set_counter(
            "deadline.wrong_responses",
            deadline_out.wrong.load(Ordering::Relaxed) as u64,
        )
        .set_counter("kill.typed_within_budget", u64::from(kill_typed))
        .set_counter("kill.elapsed_ms", kill_elapsed.as_millis() as u64)
        .set_counter("silent.typed_within_budget", u64::from(silent_typed))
        .set_counter("silent.elapsed_ms", silent_elapsed.as_millis() as u64)
        .set_counter("chaos.latency_p50_ns", summary.p50_ns)
        .set_counter("chaos.latency_p99_ns", summary.p99_ns)
        .set_counter("chaos.latency_max_ns", summary.max_ns)
        .merge_recorder("", &recorder);
    for &k in &NET_FAULT_KINDS {
        report.set_counter(&format!("fault.injected.{}", k.name()), inj.injected(k));
    }
    report.add_histogram("chaos.client.latency", &client_rec.snapshot().summary());
    write_report(&report, cli.json.as_deref());

    // ---- Gates --------------------------------------------------------
    let wrong =
        chaos_out.wrong.load(Ordering::Relaxed) + deadline_out.wrong.load(Ordering::Relaxed);
    if wrong > 0 {
        gate_fail(&format!("{wrong} response(s) with wrong bytes"));
    }
    let wire = chaos_out.wire.load(Ordering::Relaxed) + deadline_out.wire.load(Ordering::Relaxed);
    if wire > 0 {
        gate_fail(&format!("{wire} undecodable response(s)"));
    }
    if chaos_out.total() != requests {
        gate_fail(&format!(
            "outcome census incomplete: {} of {requests} chaos requests accounted",
            chaos_out.total()
        ));
    }
    if deadline_out.total() != deadline_requests {
        gate_fail(&format!(
            "outcome census incomplete: {} of {deadline_requests} deadline requests accounted",
            deadline_out.total()
        ));
    }
    for &k in &NET_FAULT_KINDS {
        if inj.injected(k) == 0 {
            gate_fail(&format!(
                "fault kind {} never fired — the chaos plan exercised nothing",
                k.name()
            ));
        }
    }
    if !kill_typed {
        gate_fail("killed-server call did not end in correct bytes or a typed transport error");
    }
    if !silent_typed || silent_elapsed > silent_budget * 4 {
        gate_fail(&format!(
            "silent-peer call must fail typed within the timeout budget (typed={silent_typed}, \
             took {silent_elapsed:?} vs read_timeout {silent_budget:?})"
        ));
    }
    // Deadline-load consistency: the server's deadline_exceeded phase
    // accounting must match what clients saw as typed rejections.
    let server_deadline = snap.counter("serve.deadline_exceeded");
    let client_deadline = (chaos_out.rejected_deadline.load(Ordering::Relaxed)
        + deadline_out.rejected_deadline.load(Ordering::Relaxed)) as u64;
    // Dropped connections can eat a deadline response after the server
    // counted it, so the server may only over-count, never under-count.
    if server_deadline < client_deadline {
        gate_fail(&format!(
            "server counted {server_deadline} deadline failures, clients saw {client_deadline}"
        ));
    }
    if snap.phase(Phase::Total.key()).map_or(0, |h| h.count) == 0 {
        gate_fail("server closed out no lifecycle totals");
    }

    println!(
        "\nno hangs, no wrong bytes ✓  ({} chaos + {} deadline requests all typed or correct, \
         {} network faults injected)",
        requests,
        deadline_requests,
        NET_FAULT_KINDS
            .iter()
            .map(|&k| inj.injected(k))
            .sum::<u64>(),
    );
}
