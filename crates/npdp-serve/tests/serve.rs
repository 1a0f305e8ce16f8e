//! End-to-end tests of the solve service: correctness of served bytes,
//! cross-request batching, admission control, malformed-frame handling,
//! the stats plane and the cache's bit-identity property.

use std::net::TcpStream;
use std::sync::OnceLock;

use npdp_exec::{ExecContext, Metrics, Tracer};
use npdp_fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
use npdp_serve::client::Client;
use npdp_serve::protocol::{read_frame, write_frame, Request, Response, Status, Workload};
use npdp_serve::server::{spawn, ServerConfig, ServerHandle};
use npdp_serve::solve::solve_direct;
use npdp_serve::stats::{Phase, StatsSnapshot, Telemetry};
use npdp_trace::analysis::{pair_spans, Span};
use npdp_trace::{EventKind, TraceData};
use proptest::prelude::*;

fn req(id: u64, tenant: &str, workload: Workload) -> Request {
    Request {
        id,
        deadline_ms: 0,
        tenant: tenant.into(),
        workload,
    }
}

#[test]
fn end_to_end_mixed_stream_is_correct() {
    let cfg = ServerConfig {
        workers: 2,
        small_threshold: 48,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    let server = spawn(cfg, None, &ExecContext::disabled()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let workloads = [
        Workload::ClosureSynthetic { n: 24, seed: 1 },
        Workload::ParenthesizeSynthetic {
            matrices: 10,
            seed: 2,
        },
        Workload::FoldSynthetic { bases: 30, seed: 3 },
        // The v4 on-engine recurrence workloads ride the same tiers.
        Workload::BstSynthetic { keys: 21, seed: 5 },
        Workload::CykSynthetic {
            tokens: 18,
            seed: 6,
        },
        Workload::ZukerSynthetic { bases: 26, seed: 7 },
        // Over the 48 threshold: routed through the autotuned large tier.
        Workload::ClosureSynthetic { n: 96, seed: 4 },
        Workload::ZukerSynthetic { bases: 80, seed: 8 },
    ];
    for (i, workload) in workloads.iter().enumerate() {
        let resp = client.call(&req(i as u64, "t", workload.clone())).unwrap();
        assert_eq!(resp.id, i as u64);
        assert_eq!(resp.status, Status::Ok, "{workload:?}: {}", resp.message());
        assert!(!resp.cached, "first sighting cannot be a cache hit");
        assert_eq!(
            resp.body,
            solve_direct(workload).unwrap().encode_body(),
            "{workload:?}: served bytes differ from a direct solve"
        );
        // Decoding must round-trip, too.
        resp.output().unwrap();
    }
    server.shutdown();
}

#[test]
fn pipelined_small_requests_share_one_batch_epoch() {
    let (metrics, recorder) = Metrics::recording();
    let cfg = ServerConfig {
        workers: 2,
        small_threshold: 64,
        batch_max: 8,
        cache_entries: 0, // every request must really solve
        large_lanes: 1,
        ..ServerConfig::default()
    };
    // Hold the epoch worker at its first dispatch until all eight pipelined
    // requests are queued (the stall ends once a full batch is waiting),
    // instead of letting it run the first arrival alone.
    let stall = FaultInjector::new(FaultPlan::seeded(1).with_rate(FaultKind::DispatchStall, 1.0));
    let ctx = ExecContext::disabled()
        .with_metrics(&metrics)
        .with_faults(&stall);
    let server = spawn(cfg, None, &ctx).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reqs: Vec<Request> = (0..8)
        .map(|i| {
            req(
                i,
                ["a", "b"][i as usize % 2],
                Workload::ClosureSynthetic {
                    n: 16,
                    seed: 100 + i,
                },
            )
        })
        .collect();
    let resps = client.call_many(&reqs).unwrap();
    for (r, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, solve_direct(&r.workload).unwrap().encode_body());
    }
    server.shutdown();
    assert_eq!(
        recorder.get("serve.batched_requests"),
        8,
        "every request should have gone through the small tier"
    );
    assert_eq!(
        recorder.get("serve.batches"),
        1,
        "eight pipelined requests should coalesce into one shared epoch"
    );
    assert_eq!(recorder.get("serve.batch_max_seen"), 8);
    // The scheduler's own stats agreed with the batch size.
    assert_eq!(recorder.get("serve.epoch_tasks"), 8);
    // Both tenants were charged their three/four requests' cells.
    let per_tenant = 4 * 16 * 15 / 2;
    assert_eq!(recorder.get("serve.tenant.a.cells"), per_tenant);
    assert_eq!(recorder.get("serve.tenant.b.cells"), per_tenant);
}

/// A small workload of one of three kinds, distinct per `i`.
fn small_workload(i: u64) -> Workload {
    match i % 3 {
        0 => Workload::ClosureSynthetic {
            n: 16 + (i % 32) as u32,
            seed: i,
        },
        1 => Workload::ParenthesizeSynthetic {
            matrices: 12 + (i % 24) as u32,
            seed: i,
        },
        _ => Workload::FoldSynthetic {
            bases: 20 + (i % 28) as u32,
            seed: i,
        },
    }
}

/// Natural batching under load: with no timer holding the door, 64
/// pipelined small requests still coalesce — requests that arrive while an
/// epoch runs form the next batch — and every served body is bit-identical
/// to a direct solve.
#[test]
fn saturated_small_tier_coalesces_without_a_timer() {
    let (metrics, recorder) = Metrics::recording();
    let cfg = ServerConfig {
        workers: 2,
        small_threshold: 64,
        batch_max: 32,
        cache_entries: 0,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    let server = spawn(cfg, None, &ExecContext::disabled().with_metrics(&metrics)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reqs: Vec<Request> = (0..64)
        .map(|i| req(i, ["a", "b", "c"][i as usize % 3], small_workload(i)))
        .collect();
    let resps = client.call_many(&reqs).unwrap();
    for (r, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.status, Status::Ok, "{}", resp.message());
        assert_eq!(
            resp.body,
            solve_direct(&r.workload).unwrap().encode_body(),
            "{:?}: served bytes differ from a direct solve",
            r.workload
        );
    }
    let snap = server.shutdown();
    assert_eq!(recorder.get("serve.batched_requests"), 64);
    assert!(
        recorder.get("serve.batch_max_seen") > 1,
        "64 requests in flight must share epochs ({} batches)",
        recorder.get("serve.batches")
    );
    // Collection is recorded once per batch.
    assert_eq!(
        snap.phase(Phase::BatchLinger.key()).unwrap().count,
        snap.counter("serve.batches")
    );
}

/// Every paired `serve respond` span of a trace.
fn respond_spans(data: &TraceData) -> Vec<Span> {
    let respond = EventKind::ServePhase {
        code: Phase::Respond.code(),
    };
    pair_spans(data)
        .expect("spans nest and balance on every track")
        .into_iter()
        .filter(|s| s.kind == respond)
        .collect()
}

/// Suppress the panic-hook noise of injected task panics (the epoch's
/// executor catches them; the default hook still prints).
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

/// Each small request is answered from its own epoch task as soon as its
/// solve finishes, with its `serve respond` span on that worker's own
/// track: one respond span per request, and spans nest on every track.
#[test]
fn every_request_is_answered_once_from_its_own_task() {
    let tracer = Tracer::new();
    let cfg = ServerConfig {
        workers: 2,
        small_threshold: 48,
        batch_max: 8,
        cache_entries: 1024,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    let server = spawn(cfg, None, &ExecContext::disabled().with_tracer(&tracer)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut reqs: Vec<Request> = (0..12).map(|i| req(i, "t", small_workload(i))).collect();
    // Over the 48 threshold: the large lane answers on its own track.
    reqs.push(req(12, "t", Workload::ClosureSynthetic { n: 64, seed: 12 }));
    let resps = client.call_many(&reqs).unwrap();
    for (r, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.status, Status::Ok, "{}", resp.message());
        assert_eq!(resp.body, solve_direct(&r.workload).unwrap().encode_body());
    }
    // A cache hit is answered on its connection's track.
    let hit = client
        .call(&req(13, "t", reqs[0].workload.clone()))
        .unwrap();
    assert!(hit.cached);
    let snap = server.shutdown();
    assert_eq!(snap.counter("serve.batched_requests"), 12);

    let data = tracer.snapshot();
    let spans = respond_spans(&data);
    assert_eq!(spans.len(), reqs.len() + 1, "one respond span per request");
    let on_track = |prefix: &str| {
        spans
            .iter()
            .filter(|s| data.tracks[s.track].name.starts_with(prefix))
            .count()
    };
    // The twelve small requests were answered by their epochs' workers,
    // none by the batcher after the epoch.
    assert_eq!(on_track("worker "), 12);
    assert_eq!(on_track("serve batcher"), 0);
    assert_eq!(on_track("serve large lane"), 1);
    assert_eq!(on_track("serve conn"), 1);
}

/// An epoch aborted by an exhausted retry budget (every task panics, one
/// attempt allowed) still answers every member with a typed `Failed`, from
/// the batcher once the epoch returns — one respond span each, nested.
#[test]
fn aborted_epoch_still_answers_every_member_typed() {
    quiet_injected_panics();
    let tracer = Tracer::new();
    let inj = FaultInjector::new(
        FaultPlan::seeded(3)
            .with_rate(FaultKind::TaskPanic, 1.0)
            // Hold the epoch worker until all six are queued: one epoch.
            .with_rate(FaultKind::DispatchStall, 1.0),
    );
    let ctx = ExecContext::disabled()
        .with_tracer(&tracer)
        .with_faults(&inj)
        .with_retry(RetryPolicy {
            max_attempts: 1,
            base_backoff: 0,
        });
    let cfg = ServerConfig {
        workers: 2,
        small_threshold: 64,
        batch_max: 6,
        cache_entries: 0,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    let server = spawn(cfg, None, &ctx).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reqs: Vec<Request> = (0..6).map(|i| req(i, "t", small_workload(i))).collect();
    let resps = client.call_many(&reqs).unwrap();
    for resp in &resps {
        assert_eq!(resp.status, Status::Failed, "{}", resp.message());
    }
    let snap = server.shutdown();
    assert_eq!(snap.counter("serve.batches"), 1);
    assert_eq!(snap.counter("serve.epochs_failed"), 1);
    assert_eq!(snap.counter("serve.responses_failed"), 6);
    assert_eq!(
        total_with_status(&snap, "failed"),
        6,
        "every member closed out a failed total"
    );
    assert!(inj.injected(FaultKind::TaskPanic) >= 1);

    let data = tracer.snapshot();
    let spans = respond_spans(&data);
    assert_eq!(spans.len(), 6, "one respond span per request");
    assert!(spans
        .iter()
        .all(|s| data.tracks[s.track].name == "serve batcher"));
}

/// Sum of every labeled `serve.phase.total{…status=<status>…}` count.
fn total_with_status(snap: &StatsSnapshot, status: &str) -> u64 {
    let needle = format!("status={status}");
    snap.phases
        .iter()
        .filter(|(key, _)| key.starts_with("serve.phase.total{") && key.contains(&needle))
        .map(|(_, h)| h.count)
        .sum()
}

#[test]
fn overload_is_a_typed_rejection_not_a_hang() {
    let (metrics, recorder) = Metrics::recording();
    let cfg = ServerConfig {
        workers: 1,
        queue_limit: 0, // admit nothing
        cache_entries: 0,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    let server = spawn(cfg, None, &ExecContext::disabled().with_metrics(&metrics)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client
        .call(&req(9, "t", Workload::ClosureSynthetic { n: 16, seed: 5 }))
        .unwrap();
    assert_eq!(resp.status, Status::Overloaded);
    assert!(!resp.cached);
    let snap = server.shutdown();
    assert_eq!(recorder.get("serve.rejected"), 1);
    // The rejection is visible in the phase plane: one admission sample,
    // status-labeled as overloaded, and a closed-out total with the same
    // outcome — rejections are part of the latency story, not outside it.
    assert_eq!(snap.counter("serve.rejected"), 1);
    assert_eq!(snap.phase(Phase::Admission.key()).unwrap().count, 1);
    let labeled = Telemetry::labeled_key(Phase::Admission, &[("status", "overloaded")]);
    assert_eq!(snap.phase(&labeled).unwrap().count, 1);
    let total = Telemetry::labeled_key(
        Phase::Total,
        &[
            ("kind", "closure"),
            ("size", "small"),
            ("status", "overloaded"),
            ("tenant", "t"),
        ],
    );
    assert_eq!(snap.phase(&total).unwrap().count, 1);
    assert_eq!(snap.phase(Phase::Total.key()).unwrap().count, 1);
    // Nothing ever reached a solve tier.
    assert!(snap.phase(Phase::EpochSolve.key()).is_none());
    assert!(snap.phase(Phase::LargeSolve.key()).is_none());
    // The shutdown flush mirrored the percentiles into the metrics sink.
    assert_eq!(recorder.get("serve.phase.admission.count"), 1);
    assert!(recorder.get("serve.phase.total.p99_ns") > 0);
}

#[test]
fn malformed_frames_get_an_invalid_response() {
    let server = spawn(ServerConfig::default(), None, &ExecContext::disabled()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Version byte 99, kind byte, then a recognizable id: undecodable as a
    // request, but the id must still come back attributed on the Invalid
    // response.
    let mut payload = vec![99u8, 0u8];
    payload.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
    write_frame(&mut stream, &payload).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    assert_eq!(resp.status, Status::Invalid);
    assert_eq!(resp.id, 0xDEAD_BEEF);
    // The connection survives malformed traffic: a good request after the
    // bad frame is still served.
    let workload = Workload::ClosureSynthetic { n: 12, seed: 6 };
    write_frame(&mut stream, &req(7, "t", workload.clone()).encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.body, solve_direct(&workload).unwrap().encode_body());
    server.shutdown();
}

#[test]
fn invalid_inline_seeds_come_back_as_invalid_status() {
    let server = spawn(ServerConfig::default(), None, &ExecContext::disabled()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut seeds = npdp_core::TriangularMatrix::from_fn(8, |i, j| (i + j) as f32);
    seeds.set(2, 5, f32::NAN);
    let resp = client
        .call(&req(1, "t", Workload::ClosureInline { seeds }))
        .unwrap();
    assert_eq!(resp.status, Status::Invalid, "{}", resp.message());
    server.shutdown();
}

#[test]
fn stats_frame_answers_live_with_consistent_phases() {
    // Metrics stay disabled: the stats plane must not depend on the
    // caller's metrics handle being live.
    let cfg = ServerConfig {
        workers: 2,
        small_threshold: 48,
        cache_entries: 1024,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    let server = spawn(cfg, None, &ExecContext::disabled()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let first = client.stats().unwrap();
    assert_eq!(first.counter("serve.requests"), 0);
    assert_eq!(first.counter("serve.stats_requests"), 1);

    let workloads = [
        Workload::ClosureSynthetic { n: 20, seed: 1 },
        Workload::ClosureSynthetic { n: 20, seed: 1 }, // cache hit
        Workload::FoldSynthetic { bases: 24, seed: 2 },
        Workload::ClosureSynthetic { n: 96, seed: 3 }, // large tier
    ];
    for (i, w) in workloads.iter().enumerate() {
        let resp = client.call(&req(i as u64, "t", w.clone())).unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", resp.message());
    }

    let snap = client.stats().unwrap();
    assert!(snap.uptime_ns > first.uptime_ns);
    assert_eq!(snap.counter("serve.requests"), 4);
    assert_eq!(snap.counter("serve.cache_hits"), 1);
    // Every finished request closed out a total; solved ones crossed a
    // queue and exactly one solve tier.
    let total = snap.phase(Phase::Total.key()).unwrap();
    assert_eq!(total.count, 4);
    assert_eq!(snap.phase(Phase::QueueWait.key()).unwrap().count, 3);
    let epoch = snap.phase(Phase::EpochSolve.key()).unwrap().count;
    let large = snap.phase(Phase::LargeSolve.key()).unwrap().count;
    assert_eq!((epoch, large), (2, 1));
    // Admission outcomes are status-labeled and sum to the request count.
    let by_status: u64 = ["ok", "hit"]
        .iter()
        .map(|s| {
            let key = Telemetry::labeled_key(Phase::Admission, &[("status", s)]);
            snap.phase(&key).map_or(0, |h| h.count)
        })
        .sum();
    assert_eq!(by_status, 4);
    // Tenant charge shows up (cells for the three solved requests).
    assert!(snap
        .tenants
        .iter()
        .any(|(name, cells)| name == "t" && *cells > 0));
    // Wire round-trip of the exact live bytes.
    let back = StatsSnapshot::decode_body(&snap.encode_body()).unwrap();
    assert_eq!(back, snap);

    // The handle-side accessor and the final shutdown snapshot agree on
    // the monotone counters.
    let local = server.stats();
    assert_eq!(local.counter("serve.requests"), 4);
    let last = server.shutdown();
    assert_eq!(last.counter("serve.requests"), 4);
    assert_eq!(last.phase(Phase::Total.key()).unwrap().count, 4);
}

/// One long-lived server for the cache property: never shut down, its
/// threads die with the test process.
fn shared_server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        let cfg = ServerConfig {
            workers: 2,
            small_threshold: 32,
            large_lanes: 1,
            cache_entries: 4096,
            ..ServerConfig::default()
        };
        spawn(cfg, None, &ExecContext::disabled()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cache-hit contract: asking twice serves the *same bytes*, the
    /// second time from cache, and both equal a service-free direct solve
    /// — across workload kinds and both size tiers.
    #[test]
    fn cache_hits_are_bit_identical_to_recomputation(
        kind in 0u8..6,
        side in 4u32..48,
        seed in any::<u64>(),
    ) {
        let workload = match kind {
            0 => Workload::ClosureSynthetic { n: side, seed },
            1 => Workload::ParenthesizeSynthetic { matrices: side, seed },
            2 => Workload::FoldSynthetic { bases: side, seed },
            3 => Workload::BstSynthetic { keys: side, seed },
            4 => Workload::CykSynthetic { tokens: side, seed },
            _ => Workload::ZukerSynthetic { bases: side, seed },
        };
        let mut client = Client::connect(shared_server().addr()).unwrap();
        let first = client.call(&req(1, "p", workload.clone())).unwrap();
        let second = client.call(&req(2, "p", workload.clone())).unwrap();
        prop_assert_eq!(first.status, Status::Ok);
        prop_assert_eq!(second.status, Status::Ok);
        prop_assert!(second.cached, "second identical request must hit the cache");
        let direct = solve_direct(&workload).unwrap().encode_body();
        prop_assert_eq!(&first.body, &direct, "served bytes differ from direct solve");
        prop_assert_eq!(&second.body, &direct, "cached bytes differ from direct solve");
    }
}
