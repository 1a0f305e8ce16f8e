//! Serving-layer load test: drive a mixed synthetic request stream through
//! the `npdp-serve` front door and verify every response — cached or not —
//! bit-identical to a direct `Engine::solve_with` of the same seeds.
//!
//! A local server is spawned on a loopback port; several client threads
//! push the deterministic mix from `npdp_serve::load::synthetic_stream`
//! (small closures, parenthesizations, folds, large closures, repeated
//! seeds for cache hits, several tenants) and measure per-request round
//! trips into per-thread streaming histograms (merged at the end — same
//! log-bucketed estimator the server's phase telemetry uses, so the two
//! sides are directly comparable). The run gate-fails on any wrong byte or
//! unexpected status, and additionally on the server's own lifecycle
//! accounting: every request must close out a `serve.phase.total` sample,
//! the queue-wait + solve phase sums must fit inside the total sum, and the
//! server-side total p99 must not exceed the client-observed p99 (plus the
//! histograms' documented relative-error slack) — the server cannot claim
//! to be faster than its clients measured it to be.
//!
//! The report (`BENCH_serve.json`, schema `cellnpdp-bench-v1`) carries
//! client p50/p90/p99/p999/max latency, throughput, the full `serve.*`
//! counter vocabulary, and a `histograms` section with the client latency
//! distribution next to every `serve.phase.*` histogram (base and labeled).
//!
//! `NPDP_REPRO_SMALL=1` shrinks the stream to CI-smoke time (still ≥ 1000
//! requests — the acceptance floor). `--faults <seed>` runs the same load
//! with the injector wired into the server's epochs: responses must then
//! still be bit-identical *or* typed failures — never wrong bytes.
//! `--listen <addr>` binds the server to a known address and keeps it up
//! briefly after the load drains, so an external `npdp-stat` can poll the
//! `Stats` admin frame mid-run (how the CI serve job validates the stats
//! plane against a live server).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::{
    gate_fail, header, host_workers, usage_fail, write_report, write_trace, Cli, Report, Tracer,
};
use npdp_metrics::Metrics;
use npdp_serve::client::Client;
use npdp_serve::load::{synthetic_stream, LatencyRecorder, LatencySummary, MixConfig};
use npdp_serve::protocol::{Request, Status};
use npdp_serve::server::{spawn, ServerConfig};
use npdp_serve::solve::solve_direct;
use npdp_serve::stats::Phase;
use npdp_serve::workload_key;
use std::collections::HashMap;

/// `--listen <addr>`: bind the server here instead of an ephemeral port,
/// and linger after the load so external pollers can finish.
fn parse_listen() -> Option<SocketAddr> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--listen" {
            match args.next().and_then(|v| v.parse().ok()) {
                Some(addr) => return Some(addr),
                None => usage_fail("--listen requires a socket address (e.g. 127.0.0.1:7411)"),
            }
        }
    }
    None
}

fn main() {
    let cli = Cli::parse();
    let listen = parse_listen();
    // Injected task panics inside server epochs are expected under
    // `--faults`; keep the default hook for anything else.
    if cli.faults.is_some() {
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
    }
    header(
        "Serve",
        "NPDP-as-a-service load test (batched small tier + autotuned large tier)",
        "every served byte must equal a direct solve of the same seeds —\n\
         the serving layer may batch, cache and reorder, never change answers.",
    );

    let chaos = cli.faults.is_some();
    let (requests, small_side, large_side, threads) = if cli.small {
        (1200usize, 20u32, 96u32, 8usize)
    } else {
        (4000, 40, 192, 8)
    };
    let mix = MixConfig {
        requests,
        seed: 42,
        small_side,
        large_side,
        tenants: 4,
        deadline_ms: 0,
    };
    let cfg = ServerConfig {
        workers: host_workers().min(8),
        small_threshold: large_side as usize, // only the large closures cross
        large_lanes: 2,
        cache_bytes: 4 << 20,
        ..ServerConfig::default()
    };

    let (metrics, recorder) = Metrics::recording();
    let tracer = if cli.trace.is_some() {
        Tracer::new()
    } else {
        Tracer::noop()
    };
    let ctx = cli.context().with_metrics(&metrics).with_tracer(&tracer);
    let server = spawn(cfg.clone(), listen, &ctx).expect("spawn server");
    let addr = server.addr();
    if listen.is_some() {
        println!("listening on {addr} (pollable with npdp-stat)\n");
    }
    let stream = synthetic_stream(&mix);

    // Expected bytes, computed service-free and memoized by content key —
    // the same problem never gets two different right answers.
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

    let next = AtomicUsize::new(0);
    let wrong = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let cached_hits = AtomicUsize::new(0);
    let t0 = Instant::now();
    // One latency shard per client thread, merged after the join — the
    // merge is bucket-exact, so the global percentiles are identical to
    // single-recorder accounting.
    let latencies: Vec<LatencyRecorder> = (0..threads).map(|_| LatencyRecorder::new()).collect();
    std::thread::scope(|s| {
        for lat in &latencies {
            s.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = stream.get(i) else { break };
                    let t = Instant::now();
                    let resp = client.call(req).expect("response");
                    lat.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    assert_eq!(resp.id, req.id, "response routed to the wrong request");
                    if resp.cached {
                        cached_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    match resp.status {
                        Status::Ok => {
                            if *expect_for(req) != resp.body {
                                wrong.fetch_add(1, Ordering::Relaxed);
                                eprintln!(
                                    "WRONG BYTES for request {} ({:?}, cached={})",
                                    req.id, req.workload, resp.cached
                                );
                            }
                        }
                        // Under chaos, an exhausted retry budget is a typed
                        // failure — legitimate. Anything else is a bug.
                        Status::Failed if chaos => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => {
                            wrong.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "unexpected status {other:?} for request {} ({:?})",
                                req.id, req.workload
                            );
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    if listen.is_some() {
        // Poller grace: a concurrent npdp-stat may be between polls when
        // the load drains; keep the stats plane answerable a moment longer.
        std::thread::sleep(Duration::from_millis(1500));
    }
    let snap = server.shutdown();
    write_trace(&tracer, cli.trace.as_deref());

    let client_rec = LatencyRecorder::new();
    for lat in &latencies {
        client_rec.merge(lat);
    }
    let summary = client_rec.summary();
    let wrong = wrong.load(Ordering::Relaxed);
    let failed = failed.load(Ordering::Relaxed);
    let cached_hits = cached_hits.load(Ordering::Relaxed);
    let throughput = requests as f64 / wall;

    println!("{:<26} {:>12}", "requests", format!("{requests}"));
    for (label, v) in [
        ("threads", threads as u64),
        ("server workers", cfg.workers as u64),
        ("cache hits (client-seen)", cached_hits as u64),
        ("epochs (batches)", recorder.get("serve.batches")),
        ("batched requests", recorder.get("serve.batched_requests")),
        ("largest batch", recorder.get("serve.batch_max_seen")),
        ("large solves", recorder.get("serve.large_solves")),
        ("typed failures", failed as u64),
        ("wrong responses", wrong as u64),
    ] {
        println!("{label:<26} {v:>12}");
    }
    println!(
        "\nclient latency  p50 {:>9.3} ms   p90 {:>9.3} ms   p99 {:>9.3} ms   p999 {:>9.3} ms   max {:>9.3} ms",
        summary.p50_ns as f64 / 1e6,
        summary.p90_ns as f64 / 1e6,
        summary.p99_ns as f64 / 1e6,
        summary.p999_ns as f64 / 1e6,
        summary.max_ns as f64 / 1e6,
    );
    println!("throughput {throughput:>10.1} req/s over {wall:.2} s");

    // Server-side phase breakdown from the final stats snapshot: where the
    // time went, per lifecycle stage.
    println!("\nserver phase breakdown (final snapshot):");
    for phase in Phase::ALL {
        let Some(hist) = snap.phase(phase.key()) else {
            continue;
        };
        let s = LatencySummary::from_snapshot(hist);
        println!(
            "  {:<14} n={:<6} p50 {:>9.3} ms   p99 {:>9.3} ms   sum {:>9.3} s",
            phase.name(),
            s.count,
            s.p50_ns as f64 / 1e6,
            s.p99_ns as f64 / 1e6,
            hist.sum as f64 / 1e9,
        );
    }

    let mut report = Report::new("serve");
    report
        .set_param("requests", requests as u64)
        .set_param("threads", threads as u64)
        .set_param("workers", cfg.workers as u64)
        .set_param("small_side", small_side as u64)
        .set_param("large_side", large_side as u64)
        .set_param("small_threshold", cfg.small_threshold as u64)
        .set_param("cache_bytes", cfg.cache_bytes as u64)
        .set_param("tenants", mix.tenants as u64)
        .set_param("chaos", chaos)
        .set_param("throughput_rps", throughput)
        .add_timing("wall", wall)
        .set_counter("serve.latency_p50_ns", summary.p50_ns)
        .set_counter("serve.latency_p90_ns", summary.p90_ns)
        .set_counter("serve.latency_p99_ns", summary.p99_ns)
        .set_counter("serve.latency_p999_ns", summary.p999_ns)
        .set_counter("serve.latency_max_ns", summary.max_ns)
        .set_counter("serve.client_cache_hits", cached_hits as u64)
        .set_counter("serve.wrong_responses", wrong as u64)
        .set_counter("serve.typed_failures", failed as u64)
        .merge_recorder("", &recorder);
    // The distributions behind the percentiles: client latency plus every
    // server-side phase histogram (the recorder mirrored the live series,
    // so labeled breakdowns ride along too).
    report.add_histogram("client.latency", &client_rec.snapshot().summary());
    report.merge_recorder_histograms(&recorder);
    if let Some(inj) = cli.injector() {
        bench::merge_fault_counters(&mut report, inj);
    }
    write_report(&report, cli.json.as_deref());

    if wrong > 0 {
        gate_fail(&format!("{wrong} incorrect response(s)"));
    }
    if summary.count != requests {
        gate_fail(&format!(
            "expected {requests} responses, measured {}",
            summary.count
        ));
    }

    // Server-side lifecycle gates: the phase accounting must be complete
    // and consistent with what the clients measured from outside.
    let total = snap
        .phase(Phase::Total.key())
        .unwrap_or_else(|| gate_fail("server recorded no serve.phase.total histogram"));
    if total.count != requests as u64 {
        gate_fail(&format!(
            "server closed out {} totals for {requests} requests",
            total.count
        ));
    }
    let phase_sum = |p: Phase| snap.phase(p.key()).map_or(0u64, |h| h.sum);
    let inner = phase_sum(Phase::QueueWait)
        .saturating_add(phase_sum(Phase::EpochSolve))
        .saturating_add(phase_sum(Phase::LargeSolve));
    if inner > total.sum {
        gate_fail(&format!(
            "phase sums exceed the lifecycle total: queue_wait+solve = {inner} ns > total = {} ns",
            total.sum
        ));
    }
    // Each client round trip contains its server-side handling, so at
    // every rank the server total must sit at or below the client latency;
    // allow the two histograms' one-sided relative error on top.
    let server_p99 = total.value_at_quantile(0.99);
    let slack = 1.0 + 2.0 * LatencySummary::ERROR_BOUND;
    let p99_budget = (summary.p99_ns as f64 * slack) as u64;
    if server_p99 > p99_budget {
        gate_fail(&format!(
            "server-side total p99 ({server_p99} ns) exceeds client-observed p99 ({} ns) + slack",
            summary.p99_ns
        ));
    }
    println!(
        "\nphase consistency ✓  (totals {}/{requests}, queue+solve {:.3} s ≤ total {:.3} s, \
         server p99 {:.3} ms ≤ client p99 {:.3} ms × {slack:.3})",
        total.count,
        inner as f64 / 1e9,
        total.sum as f64 / 1e9,
        server_p99 as f64 / 1e6,
        summary.p99_ns as f64 / 1e6,
    );
    println!("\nall {requests} responses correct ✓");
}
