//! Robustness tests of the serve layer: request deadlines and their phase
//! accounting, graceful drain, idle-connection reaping, malformed/hostile
//! frame handling, and client behavior against dead or chaotic networks.
//!
//! The governing invariant (shared with `repro-chaos-serve`): every
//! request ends in exactly one of {correct bytes, typed rejection, typed
//! transport error} — never a hang, never a wrong byte.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use npdp_exec::{ExecContext, Metrics};
use npdp_fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
use npdp_serve::client::{CallOpts, Client};
use npdp_serve::protocol::{read_frame, Request, Response, Status, Workload, MAX_FRAME};
use npdp_serve::server::{spawn, ServerConfig, DISPATCH_STALL};
use npdp_serve::solve::solve_direct;
use npdp_serve::stats::{Phase, StatsSnapshot};

fn req(id: u64, deadline_ms: u32, workload: Workload) -> Request {
    Request {
        id,
        deadline_ms,
        tenant: "t".into(),
        workload,
    }
}

/// A context whose injector stalls every dispatch — the small-epoch worker
/// before it drains, a large lane before it solves — for [`DISPATCH_STALL`].
/// Work then sits queued or in flight for a known time, however fast this
/// host solves, and a budget shorter than the stall dies by construction.
fn stalled_dispatch() -> (ExecContext, FaultInjector) {
    let inj = FaultInjector::new(FaultPlan::seeded(1).with_rate(FaultKind::DispatchStall, 1.0));
    (ExecContext::disabled().with_faults(&inj), inj)
}

/// Sum of every labeled `serve.phase.total{…status=<status>…}` count — the
/// number of requests that closed out with that outcome.
fn total_with_status(snap: &StatsSnapshot, status: &str) -> u64 {
    let needle = format!("status={status}");
    snap.phases
        .iter()
        .filter(|(key, _)| key.starts_with("serve.phase.total{") && key.contains(&needle))
        .map(|(_, h)| h.count)
        .sum()
}

/// Deadline boundary 2 (epoch dispatch): a small request whose budget dies
/// while its dispatcher is held is answered `DeadlineExceeded` and never
/// enters an epoch — and the phase accounting stays consistent:
/// deadline-failed totals equal deadline-failed responses, and the solve
/// histograms only count work that actually solved.
#[test]
fn expired_small_jobs_are_cancelled_before_the_epoch() {
    let (metrics, recorder) = Metrics::recording();
    let cfg = ServerConfig {
        workers: 1,
        small_threshold: 64,
        batch_max: 32,
        cache_entries: 0,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    // The stall outlasts the request's 10 ms budget: the job expires
    // queued.
    assert!(Duration::from_millis(10) < DISPATCH_STALL);
    let (ctx, inj) = stalled_dispatch();
    let server = spawn(cfg, None, &ctx.with_metrics(&metrics)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let doomed = req(1, 10, Workload::ClosureSynthetic { n: 16, seed: 1 });
    let resp = client.call(&doomed).unwrap();
    assert_eq!(resp.status, Status::DeadlineExceeded, "{}", resp.message());
    assert_eq!(resp.id, 1);

    // A no-deadline request on the same connection still solves.
    let fine = req(2, 0, Workload::ClosureSynthetic { n: 16, seed: 2 });
    let resp = client.call(&fine).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.message());
    assert_eq!(
        resp.body,
        solve_direct(&fine.workload).unwrap().encode_body()
    );

    let snap = server.shutdown();
    assert_eq!(snap.counter("serve.deadline_exceeded"), 1);
    assert_eq!(recorder.get("serve.deadline_exceeded"), 1);
    // Exactly one request closed out deadline_exceeded, and the labeled
    // totals agree with the response count.
    assert_eq!(total_with_status(&snap, "deadline_exceeded"), 1);
    // The expired job waited in queue but never entered a solve tier: one
    // epoch sample (the healthy request), no large samples.
    assert_eq!(snap.phase(Phase::QueueWait.key()).unwrap().count, 2);
    assert_eq!(snap.phase(Phase::EpochSolve.key()).unwrap().count, 1);
    assert!(snap.phase(Phase::LargeSolve.key()).is_none());
    // Both requests closed out a total.
    assert_eq!(snap.phase(Phase::Total.key()).unwrap().count, 2);
    assert!(inj.injected(FaultKind::DispatchStall) >= 2);
}

/// Deadline boundary 3 (large dispatch): a large request that expires
/// waiting for the lane is cancelled between pop and solve — the
/// `large_solve` histogram only sees the request that ran.
#[test]
fn expired_large_jobs_are_cancelled_before_the_lane_solve() {
    let cfg = ServerConfig {
        workers: 2,
        small_threshold: 32,
        cache_entries: 0,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    assert!(Duration::from_millis(1) < DISPATCH_STALL);
    let (ctx, inj) = stalled_dispatch();
    let server = spawn(cfg, None, &ctx).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // The first large request occupies the only lane, held at dispatch
    // well past the second request's 1 ms budget.
    let busy = req(1, 0, Workload::ClosureSynthetic { n: 256, seed: 3 });
    let doomed = req(2, 1, Workload::ClosureSynthetic { n: 200, seed: 4 });
    let resps = client.call_many(&[busy.clone(), doomed]).unwrap();
    assert_eq!(resps[0].status, Status::Ok, "{}", resps[0].message());
    assert_eq!(
        resps[0].body,
        solve_direct(&busy.workload).unwrap().encode_body()
    );
    assert_eq!(resps[1].status, Status::DeadlineExceeded);

    let snap = server.shutdown();
    assert_eq!(snap.counter("serve.deadline_exceeded"), 1);
    assert_eq!(total_with_status(&snap, "deadline_exceeded"), 1);
    assert_eq!(
        snap.phase(Phase::LargeSolve.key()).unwrap().count,
        1,
        "the expired job must not land in the large_solve histogram"
    );
    assert_eq!(inj.injected(FaultKind::DispatchStall), 2);
}

/// `drain(grace)` with work still queued past the grace: leftovers get a
/// typed `DeadlineExceeded`, nothing hangs, and the final snapshot is
/// flushed exactly like `shutdown`.
#[test]
fn drain_deadline_fails_leftover_queued_work() {
    let (metrics, recorder) = Metrics::recording();
    let cfg = ServerConfig {
        workers: 1,
        small_threshold: 64,
        batch_max: 32,
        cache_entries: 0,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    // The held epoch worker leaves the queued jobs in the dispatch queue
    // when the zero-grace drain arrives.
    let (ctx, _inj) = stalled_dispatch();
    let server = spawn(cfg, None, &ctx.with_metrics(&metrics)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reqs: Vec<Request> = (0..4)
        .map(|i| req(i, 0, Workload::ClosureSynthetic { n: 16, seed: i }))
        .collect();
    for r in &reqs {
        client.send(r).unwrap();
    }
    // Flush and give admission a moment to enqueue all four.
    let stats = client.stats().unwrap();
    assert_eq!(stats.counter("serve.requests"), 4);
    std::thread::sleep(Duration::from_millis(50));

    let snap = server.drain(Duration::ZERO);
    // Every queued request got a typed answer, not silence.
    for _ in 0..4 {
        let resp = client.recv().unwrap();
        assert_eq!(resp.status, Status::DeadlineExceeded, "{}", resp.message());
    }
    assert_eq!(snap.counter("serve.drains"), 1);
    assert_eq!(snap.counter("serve.drain_expired"), 4);
    assert_eq!(total_with_status(&snap, "deadline_exceeded"), 4);
    assert!(snap.phase(Phase::EpochSolve.key()).is_none());
    // The final snapshot was flushed into the metrics sink (as shutdown
    // does).
    assert_eq!(recorder.get("serve.phase.total.count"), 4);
}

/// `drain(grace)` with enough grace finishes in-flight work normally and
/// refuses new solves with a typed `Overloaded` while draining.
#[test]
fn drain_finishes_inflight_work_and_refuses_new_solves() {
    let cfg = ServerConfig {
        workers: 1,
        small_threshold: 64,
        batch_max: 32,
        cache_entries: 0,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    // The held epoch worker keeps the request queued as the drain begins.
    let (ctx, _inj) = stalled_dispatch();
    let server = spawn(cfg, None, &ctx).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    // The draining server stops *accepting*, so the late request must ride
    // a connection that already exists when the drain begins.
    let mut late = Client::connect(addr).unwrap();
    let pending = req(1, 0, Workload::ClosureSynthetic { n: 16, seed: 7 });
    client.send(&pending).unwrap();
    // Confirm admission before draining (stats answers inline).
    let s = client.stats().unwrap();
    assert_eq!(s.counter("serve.requests"), 1);

    let drainer = std::thread::spawn(move || server.drain(Duration::from_secs(5)));
    std::thread::sleep(Duration::from_millis(50));
    // A request racing the drain: its solve is refused typed.
    let refused = late
        .call(&req(9, 0, Workload::ClosureSynthetic { n: 16, seed: 8 }))
        .unwrap();
    assert_eq!(refused.status, Status::Overloaded);
    assert_eq!(refused.message(), "server draining");
    // The held request still finishes correctly under the grace.
    let resp = client.recv().unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.message());
    assert_eq!(
        resp.body,
        solve_direct(&pending.workload).unwrap().encode_body()
    );
    let snap = drainer.join().unwrap();
    assert_eq!(snap.counter("serve.drains"), 1);
    assert_eq!(snap.counter("serve.drain_rejected"), 1);
    assert_eq!(snap.counter("serve.drain_expired"), 0);
    assert_eq!(snap.counter("serve.responses_ok"), 1);
}

/// An abandoned socket is reaped by the reader's idle timeout instead of
/// holding a connection slot forever.
#[test]
fn idle_connections_are_reaped() {
    let cfg = ServerConfig {
        idle_timeout: Some(Duration::from_millis(60)),
        ..ServerConfig::default()
    };
    let server = spawn(cfg, None, &ExecContext::disabled()).unwrap();
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Send nothing. The server must close the socket (EOF) rather than
    // leave us half-open.
    let mut buf = [0u8; 1];
    let n = idle.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "reaped connection reads EOF");
    // Allow the reaper's counter to land, then check it.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        if server.stats().counter("serve.net.idle_reaped") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "idle_reaped counter never rose");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// Satellite regression: a frame truncated mid-payload must close the
/// connection cleanly — no desynced garbage response — and the server
/// keeps serving new connections.
#[test]
fn truncated_frame_closes_cleanly_without_desync() {
    let server = spawn(ServerConfig::default(), None, &ExecContext::disabled()).unwrap();
    let mut torn = TcpStream::connect(server.addr()).unwrap();
    torn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Declare 100 bytes, deliver 10, then half-close.
    torn.write_all(&100u32.to_le_bytes()).unwrap();
    torn.write_all(&[0u8; 10]).unwrap();
    torn.shutdown(Shutdown::Write).unwrap();
    // The server closes without emitting a response for the torn frame.
    let mut rest = Vec::new();
    torn.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes may answer a torn frame");
    // A fresh connection is served normally.
    let mut client = Client::connect(server.addr()).unwrap();
    let w = Workload::ClosureSynthetic { n: 12, seed: 9 };
    let resp = client.call(&req(1, 0, w.clone())).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.body, solve_direct(&w).unwrap().encode_body());
    let snap = server.shutdown();
    assert!(snap.counter("serve.net.torn") >= 1);
}

/// Satellite regression: a frame whose declared length exceeds `MAX_FRAME`
/// is answered with a typed `Invalid` and a clean close — never an
/// allocation, never a desync.
#[test]
fn oversized_frame_is_typed_invalid_then_clean_close() {
    let server = spawn(ServerConfig::default(), None, &ExecContext::disabled()).unwrap();
    let mut hostile = TcpStream::connect(server.addr()).unwrap();
    hostile
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    hostile
        .write_all(&((MAX_FRAME + 1) as u32).to_le_bytes())
        .unwrap();
    let payload = read_frame(&mut hostile).unwrap().expect("typed answer");
    let resp = Response::decode(&payload).unwrap();
    assert_eq!(resp.status, Status::Invalid);
    // Then EOF: the unframeable byte stream is not resynced.
    assert!(matches!(read_frame(&mut hostile), Ok(None) | Err(_)));
    // The server keeps serving fresh connections.
    let mut client = Client::connect(server.addr()).unwrap();
    let w = Workload::ClosureSynthetic { n: 12, seed: 10 };
    let resp = client.call(&req(2, 0, w.clone())).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let snap = server.shutdown();
    assert_eq!(snap.counter("serve.net.oversized"), 1);
}

/// Acceptance: a `call` against a server that dies mid-request comes back
/// as a typed transport error within the configured timeout — never a
/// hang.
#[test]
fn killed_server_yields_typed_error_within_timeout() {
    // A "server" that accepts and then goes silent: reads nothing,
    // answers nothing.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let keeper = std::thread::spawn(move || {
        let conns: Vec<TcpStream> = (0..2)
            .filter_map(|_| listener.accept().ok().map(|(s, _)| s))
            .collect();
        // Keep the sockets open past the client's timeout budget; if they
        // drop earlier the client sees a reset, which is equally typed.
        std::thread::sleep(Duration::from_secs(1));
        drop(conns);
    });
    let opts = CallOpts {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(300)),
        write_timeout: Some(Duration::from_millis(300)),
        deadline: Some(Duration::from_millis(900)),
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: 1,
        },
    };
    let mut client = Client::connect_with(addr, opts).unwrap();
    let t0 = Instant::now();
    let err = client
        .call_with_retry(&req(1, 0, Workload::ClosureSynthetic { n: 16, seed: 11 }))
        .unwrap_err();
    assert!(err.is_transport(), "typed transport error, got {err}");
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "bounded by the configured timeouts, took {:?}",
        t0.elapsed()
    );
    keeper.join().unwrap();
}

/// Chaos round-trip: a client whose socket ops are deterministically torn,
/// delayed, dropped and stalled still sees every call end in correct bytes
/// or a typed error — and retries recover across connection incarnations.
#[test]
fn chaos_client_calls_end_typed_or_correct_never_wrong() {
    let server = spawn(
        ServerConfig {
            workers: 2,
            small_threshold: 64,
            cache_entries: 0,
            large_lanes: 1,
            ..ServerConfig::default()
        },
        None,
        &ExecContext::disabled(),
    )
    .unwrap();
    let plan = FaultPlan::seeded(0xC0FFEE)
        .with_rate(FaultKind::NetTornFrame, 0.05)
        .with_rate(FaultKind::NetDelayWrite, 0.1)
        .with_rate(FaultKind::NetDropConn, 0.05)
        .with_rate(FaultKind::NetStallRead, 0.1);
    let inj = FaultInjector::new(plan);
    let opts = CallOpts {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        deadline: Some(Duration::from_secs(8)),
        retry: RetryPolicy {
            max_attempts: 6,
            base_backoff: 1,
        },
    };
    let mut client = Client::connect_chaos(server.addr(), opts, inj.clone(), 0).unwrap();
    let mut oks = 0u32;
    for i in 0..24 {
        let w = Workload::ClosureSynthetic {
            n: 12,
            seed: 500 + i,
        };
        match client.call_with_retry(&req(i, 0, w.clone())) {
            // Typed rejections (any non-Ok status) are acceptable outcomes.
            Ok(resp) => {
                if resp.status == Status::Ok {
                    assert_eq!(
                        resp.body,
                        solve_direct(&w).unwrap().encode_body(),
                        "chaos must never corrupt served bytes"
                    );
                    oks += 1;
                }
            }
            Err(e) => assert!(e.is_transport(), "typed transport error, got {e}"),
        }
    }
    let injected: u64 = [
        FaultKind::NetTornFrame,
        FaultKind::NetDelayWrite,
        FaultKind::NetDropConn,
        FaultKind::NetStallRead,
    ]
    .iter()
    .map(|&k| inj.injected(k))
    .sum();
    assert!(injected > 0, "the plan must actually have fired");
    assert!(oks > 0, "retries must recover at least some calls");
    server.shutdown();
}

/// Deadline stamping: `CallOpts::deadline` rides the wire, so the labeled
/// total series sees the request as deadline-bounded even though the
/// caller never set `Request::deadline_ms`.
#[test]
fn call_opts_deadline_is_stamped_on_the_wire() {
    let cfg = ServerConfig {
        workers: 1,
        small_threshold: 64,
        batch_max: 32,
        cache_entries: 0,
        large_lanes: 1,
        ..ServerConfig::default()
    };
    let (ctx, _inj) = stalled_dispatch();
    let server = spawn(cfg, None, &ctx).unwrap();
    let opts = CallOpts {
        deadline: Some(Duration::from_millis(20)),
        ..CallOpts::default()
    };
    let mut client = Client::connect_with(server.addr(), opts).unwrap();
    // The 20 ms budget dies while the epoch worker is held: the server
    // must learn the deadline from the stamped frame and cancel.
    assert!(Duration::from_millis(20) < DISPATCH_STALL);
    let resp = client
        .call_with_retry(&req(1, 0, Workload::ClosureSynthetic { n: 16, seed: 12 }))
        .unwrap();
    assert_eq!(resp.status, Status::DeadlineExceeded, "{}", resp.message());
    let snap = server.shutdown();
    assert_eq!(snap.counter("serve.deadline_exceeded"), 1);
    assert_eq!(total_with_status(&snap, "deadline_exceeded"), 1);
}
