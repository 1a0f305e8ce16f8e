//! The solve server: acceptor, per-connection readers, the small-request
//! batcher and the large-request workers, glued by one dispatch queue with
//! admission control and per-tenant fairness.
//!
//! ## Request path
//!
//! 1. A reader thread decodes a frame. Malformed → `Invalid` response.
//! 2. Cache lookup by the workload's stable content key — a hit responds
//!    immediately with the stored bytes (bit-identical to recomputation by
//!    construction) and never touches the queues. The cache charges each
//!    entry its body plus a fixed bookkeeping overhead against
//!    [`ServerConfig::cache_bytes`], so the server's memory does not grow
//!    with the number of distinct answers it served.
//! 3. Admission control: if the pending count is at
//!    [`ServerConfig::queue_limit`], respond `Overloaded` — a bounded queue
//!    is what keeps tail latency honest under pressure.
//! 4. Classification by problem side: under
//!    [`ServerConfig::small_threshold`] the request joins its tenant's
//!    small queue (batched into shared scheduler epochs); otherwise the
//!    large queue (one autotuned parallel solve per request).
//!
//! ## Shared scheduler epochs
//!
//! Up to [`ServerConfig::batch_max`] small problems become one
//! [`task_queue::run`] epoch — one task per request, all independent — so a
//! burst of tiny solves rides one worker-pool wakeup instead of paying
//! per-request pool spin-up. The epoch's graph has no edges, so no task is
//! ever readied by another's completion; plain `Scheduler::WorkStealing`
//! runs it (a locality discipline would have no successor to keep local). The batcher thread itself runs the epoch's
//! worker 0, so a lone small request starts no thread at all.
//!
//! The batcher is work-conserving, like the paper's §IV-B ready queue: no
//! timer holds work back. The moment the epoch worker is idle and small
//! work is pending it drains what is there, and requests that arrive while
//! an epoch runs form the next batch — so batches grow with load, and a
//! lone request under light load waits for nothing. Each member is
//! answered from its own task as soon as its solve finishes, not when the
//! epoch's slowest member does.
//!
//! Each tier has its own condition variable: an admission wakes one
//! dispatcher of the tier its job joined, and an idle dispatcher waits
//! without a timeout (shutdown is set under the dispatch lock, so its
//! wake-up cannot slip between a dispatcher's check and its wait). Every
//! response frame leaves in one vectored write on a `TCP_NODELAY` socket,
//! so a lock-step client never waits out a delayed ACK.
//!
//! ## Fairness
//!
//! Tenants are charged the DP cells their requests solved, with epoch task
//! totals cross-checked against the scheduler's own
//! [`ExecStats`](task_queue::ExecStats); both
//! drains (batcher and large workers) always serve the least-charged tenant
//! first, so a heavy tenant cannot starve a light one out of a batch slot.

use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use npdp_core::{ParallelEngine, SimdEngine, SolveError};
use npdp_exec::{ExecContext, Scheduler, Tuning};
use npdp_fault::{site2, FaultKind};
use npdp_trace::{EventKind, TimeDomain, Track, TrackDesc};
use task_queue::TaskGraph;

use crate::cache::{workload_key, SolveCache};
use crate::protocol::{read_frame, Request, RequestFrame, Response, Status, Workload};
use crate::solve::{materialize, solve_problem};
use crate::stats::{Phase, StatsSnapshot, Telemetry};

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The trace-span kind of a lifecycle phase.
fn phase_kind(phase: Phase) -> EventKind {
    EventKind::ServePhase { code: phase.code() }
}

/// Tenant names come off the wire; strip the label-reserved characters so
/// they can ride inside a `serve.phase.*{tenant=…}` series key (empty
/// becomes `-`, matching the per-tenant charge counters).
fn tenant_label(tenant: &str) -> String {
    if tenant.is_empty() {
        return "-".to_owned();
    }
    tenant
        .chars()
        .map(|c| {
            if matches!(c, '{' | '}' | ',' | '=') {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads per batch epoch and per large solve.
    pub workers: usize,
    /// Problems with side `< small_threshold` are batched; the rest run the
    /// autotuned parallel engine.
    pub small_threshold: usize,
    /// Most requests merged into one scheduler epoch.
    pub batch_max: usize,
    /// Admission bound: pending (queued, un-started) requests beyond this
    /// are refused with [`Status::Overloaded`].
    pub queue_limit: usize,
    /// Solve-cache budget in bytes: each entry is charged its encoded
    /// result body plus [`crate::cache::ENTRY_OVERHEAD`]; 0 disables
    /// caching. An entry weighing more than a fifth of it is never cached.
    pub cache_bytes: usize,
    /// Concurrent large solves (each already uses `workers` threads).
    pub large_lanes: usize,
    /// Reap a connection whose reader sees no traffic for this long
    /// (`None` keeps sockets forever). An abandoned client must not hold a
    /// reader thread and a connection slot indefinitely.
    pub idle_timeout: Option<Duration>,
    /// Give up on a response write blocked for this long (`None` blocks
    /// forever). A client that stops draining its socket must not wedge
    /// the solver thread holding its connection's write mutex.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            small_threshold: 128,
            batch_max: 32,
            queue_limit: 1024,
            cache_bytes: 8 << 20,
            large_lanes: 1,
            idle_timeout: Some(Duration::from_secs(120)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Memory-block side of the small tier's serial NDL+SIMD engine: every
/// small problem (side under [`ServerConfig::small_threshold`]) fits a few
/// blocks of it.
const SMALL_NB: usize = 32;

/// How long an injected [`FaultKind::DispatchStall`] holds a dispatcher (the
/// small-request epoch worker before it drains, a large lane before it
/// solves). Far longer than any deadline or hand-off a test scripts around
/// it, so work sits queued or in flight by construction; shutdown cuts the
/// hold short.
pub const DISPATCH_STALL: Duration = Duration::from_millis(500);

/// One queued request plus where to send its answer, carrying the
/// lifecycle timestamps the phase histograms are derived from.
struct Job {
    id: u64,
    tenant: String,
    workload: Workload,
    key: u128,
    conn: Arc<ConnWriter>,
    /// Small-tier (batched) vs large-tier (autotuned lane) — the `size=`
    /// label of the labeled latency series.
    small: bool,
    /// When the request's frame finished decoding (the lifecycle origin).
    t_recv: Instant,
    /// When the request entered its dispatch queue; queue wait is measured
    /// from here to drain.
    t_enqueued: Instant,
    /// Absolute deadline derived from the request's `deadline_ms` budget
    /// (`None` = no deadline). Checked at every phase boundary: a job found
    /// expired is answered [`Status::DeadlineExceeded`] instead of solved.
    deadline: Option<Instant>,
}

impl Job {
    /// Whether the job's deadline (if any) has already passed.
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Per-tenant queues and fairness account.
#[derive(Default)]
struct TenantState {
    small: VecDeque<Job>,
    large: VecDeque<Job>,
    /// DP cells charged to this tenant so far (the fairness currency).
    charged_cells: u64,
}

#[derive(Default)]
struct DispatchQueues {
    tenants: BTreeMap<String, TenantState>,
    small_pending: usize,
    large_pending: usize,
}

impl DispatchQueues {
    fn pending(&self) -> usize {
        self.small_pending + self.large_pending
    }

    /// Tenant names with nonempty queues of the given tier, least-charged
    /// first (ties break by name for determinism).
    fn fair_order(&self, large: bool) -> Vec<String> {
        let mut names: Vec<_> = self
            .tenants
            .iter()
            .filter(|(_, t)| !(if large { &t.large } else { &t.small }).is_empty())
            .map(|(name, t)| (t.charged_cells, name.clone()))
            .collect();
        names.sort();
        names.into_iter().map(|(_, n)| n).collect()
    }

    /// Drain up to `max` small jobs round-robin across tenants in fairness
    /// order.
    fn drain_small(&mut self, max: usize) -> Vec<Job> {
        let mut batch = Vec::new();
        while batch.len() < max {
            let order = self.fair_order(false);
            if order.is_empty() {
                break;
            }
            for name in order {
                if batch.len() >= max {
                    break;
                }
                if let Some(job) = self
                    .tenants
                    .get_mut(&name)
                    .and_then(|t| t.small.pop_front())
                {
                    self.small_pending -= 1;
                    batch.push(job);
                }
            }
        }
        batch
    }

    /// Pop the least-charged tenant's oldest large job.
    fn pop_large(&mut self) -> Option<Job> {
        let name = self.fair_order(true).into_iter().next()?;
        let job = self.tenants.get_mut(&name)?.large.pop_front()?;
        self.large_pending -= 1;
        Some(job)
    }

    /// Charge a tenant for completed work.
    fn charge(&mut self, tenant: &str, cells: u64) {
        self.tenants
            .entry(tenant.to_owned())
            .or_default()
            .charged_cells += cells;
    }
}

/// A connection's write half: response frames from any solver thread are
/// serialized under one mutex.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Best-effort send; a vanished client is not a server error. The
    /// returned guard keeps this connection's writes locked: what the
    /// caller records before dropping it is in every `Stats` reply to a
    /// frame the client sends after reading this response.
    fn send(
        &self,
        id: u64,
        status: Status,
        cached: bool,
        body: &[u8],
    ) -> MutexGuard<'_, TcpStream> {
        let mut stream = self.stream.lock().unwrap();
        let _ = Response::write_parts(&mut *stream, id, status, cached, body);
        stream
    }

    /// Answer a `Stats` frame from a snapshot taken under the write lock,
    /// so it counts every response already written on this connection.
    fn send_stats(&self, id: u64, shared: &Shared) {
        let mut stream = self.stream.lock().unwrap();
        let body = shared.stats_snapshot().encode_body();
        let _ = Response::write_parts(&mut *stream, id, Status::Ok, false, &body);
    }
}

struct Shared {
    cfg: ServerConfig,
    ctx: ExecContext,
    cache: SolveCache,
    q: Mutex<DispatchQueues>,
    /// Signals the batcher: small work was queued, or shutdown.
    small_ready: Condvar,
    /// Signals the large lanes: large work was queued, or shutdown.
    large_ready: Condvar,
    /// Signals a large lane held by an injected dispatch stall: shutdown
    /// only. (Held on `large_ready`, it could swallow the one wake-up an
    /// admission meant for an idle lane.)
    stopping: Condvar,
    /// Set under the `q` lock, so a dispatcher that checked it and then
    /// waits is woken by the notify that follows.
    shutdown: AtomicBool,
    /// Set by [`ServerHandle::drain`]: new solve requests are refused
    /// (typed `Overloaded`, "server draining") while queued and in-flight
    /// work finishes.
    draining: AtomicBool,
    /// Jobs popped from the queues but not yet answered — what `drain`
    /// waits on after the queues empty.
    inflight: AtomicUsize,
    conns: Mutex<Vec<TcpStream>>,
    reader_joins: Mutex<Vec<JoinHandle<()>>>,
    /// The always-on stats plane. Counters and phase histograms land here
    /// unconditionally (the `Stats` frame must answer even when the caller's
    /// metrics handle is disabled) and are mirrored into `ctx.metrics` when
    /// that handle is live.
    telemetry: Telemetry,
}

impl Shared {
    /// Count into both the stats plane and the caller's metrics handle.
    fn metric(&self, key: &str, delta: u64) {
        self.telemetry.add(key, delta);
        self.ctx.metrics.add(key, delta);
    }

    /// Record one lifecycle phase duration into the phase histogram (and
    /// the caller's value sink, when live).
    fn phase_ns(&self, phase: Phase, ns: u64) {
        self.telemetry.record_phase(phase, ns);
        self.ctx.metrics.record_value(phase.key(), ns);
    }

    /// [`Shared::phase_ns`] measured from `start` to now; returns the
    /// duration it recorded.
    fn phase_since(&self, phase: Phase, start: Instant) -> u64 {
        let ns = elapsed_ns(start);
        self.phase_ns(phase, ns);
        ns
    }

    /// Record a labeled sibling of a phase histogram, e.g.
    /// `serve.phase.admission{status=overloaded}`.
    fn phase_labeled(&self, phase: Phase, labels: &[(&str, &str)], ns: u64) {
        let key = Telemetry::labeled_key(phase, labels);
        self.telemetry.record_series(&key, ns);
        self.ctx.metrics.record_value(&key, ns);
    }

    /// Close out a request: record `serve.phase.total` from `t_recv` plus
    /// its fully-labeled sibling keyed by workload kind × size class ×
    /// outcome × tenant.
    fn record_total(
        &self,
        tenant: &str,
        kind: &'static str,
        small: bool,
        status: &'static str,
        t_recv: Instant,
    ) {
        let ns = self.phase_since(Phase::Total, t_recv);
        let tenant = tenant_label(tenant);
        self.phase_labeled(
            Phase::Total,
            &[
                ("kind", kind),
                ("size", if small { "small" } else { "large" }),
                ("status", status),
                ("tenant", &tenant),
            ],
            ns,
        );
    }

    /// A point-in-time [`StatsSnapshot`]: queue depths and tenant charges
    /// from under the dispatch lock, everything else from the stats plane.
    fn stats_snapshot(&self) -> StatsSnapshot {
        let (queue_small, queue_large, tenants) = {
            let q = self.q.lock().unwrap();
            let tenants = q
                .tenants
                .iter()
                .map(|(name, t)| (name.clone(), t.charged_cells))
                .collect();
            (q.small_pending as u64, q.large_pending as u64, tenants)
        };
        let mut snap = self.telemetry.snapshot(queue_small, queue_large, tenants);
        // The cache reports itself, zeros included: its resident bytes (a
        // level, not a count) and its oversize refusals, slotted into the
        // sorted counters.
        let cache = [
            ("serve.cache.bytes", self.cache.bytes() as u64),
            ("serve.cache.oversize", self.cache.oversize()),
        ];
        for (key, value) in cache {
            match snap.counters.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
                Ok(at) => snap.counters[at].1 = value,
                Err(at) => snap.counters.insert(at, (key.to_owned(), value)),
            }
        }
        snap
    }
}

/// A running server; dropping (or [`ServerHandle::shutdown`]) stops it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    joins: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address to connect clients to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live [`StatsSnapshot`] — the same data the wire `Stats` frame
    /// carries, without a connection.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Stop accepting, drain queued work, and join every thread. Responses
    /// for already-queued requests are still delivered. Returns the final
    /// stats snapshot, which is also flushed into the context's metrics
    /// sink as `serve.phase.*` scalar summaries.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop()
            .expect("first shutdown always yields a snapshot")
    }

    /// Graceful shutdown with a grace period: stop admitting new solves
    /// (they get a typed `Overloaded` "server draining"), let queued and
    /// in-flight work finish for up to `grace`, answer whatever is still
    /// queued after that with [`Status::DeadlineExceeded`], then stop and
    /// flush the final stats snapshot exactly like [`Self::shutdown`].
    pub fn drain(mut self, grace: Duration) -> StatsSnapshot {
        let shared = Arc::clone(&self.shared);
        shared.draining.store(true, Ordering::Release);
        shared.metric("serve.drains", 1);
        let deadline = Instant::now() + grace;
        loop {
            let quiesced = shared.q.lock().unwrap().pending() == 0
                && shared.inflight.load(Ordering::Acquire) == 0;
            if quiesced || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Grace expired: whatever is still queued is dead work — answer it
        // typed instead of solving past the drain.
        let leftovers = {
            let mut q = shared.q.lock().unwrap();
            let mut jobs = q.drain_small(usize::MAX);
            while let Some(job) = q.pop_large() {
                jobs.push(job);
            }
            jobs
        };
        if !leftovers.is_empty() {
            let track = shared
                .ctx
                .tracer
                .register(TrackDesc::control("serve drain").in_domain(TimeDomain::ServeNs));
            for job in &leftovers {
                shared.metric("serve.drain_expired", 1);
                respond_deadline(job, &shared, track, "server drained before solve");
            }
        }
        self.stop().expect("first stop always yields a snapshot")
    }

    fn stop(&mut self) -> Option<StatsSnapshot> {
        if self.joins.is_empty() {
            return None;
        }
        let shared = &self.shared;
        {
            let _q = shared.q.lock().unwrap();
            shared.shutdown.store(true, Ordering::Release);
        }
        // Unblock readers (connection shutdown) and the acceptor (dummy
        // connect), then wake the solver threads.
        for conn in shared.conns.lock().unwrap().iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
        shared.small_ready.notify_all();
        shared.large_ready.notify_all();
        shared.stopping.notify_all();
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
        let readers = std::mem::take(&mut *shared.reader_joins.lock().unwrap());
        for j in readers {
            let _ = j.join();
        }
        let snap = shared.stats_snapshot();
        flush_final_snapshot(shared, &snap);
        Some(snap)
    }
}

/// At shutdown, fold the final snapshot into the caller's metrics handle as
/// plain counters (`serve.phase.<name>.p99_ns` etc.), so a `--json` report
/// carries the server-side percentiles without a live Stats poll. Labeled
/// series keep their full detail in the snapshot itself.
fn flush_final_snapshot(shared: &Shared, snap: &StatsSnapshot) {
    if !shared.ctx.metrics.enabled() {
        return;
    }
    let m = &shared.ctx.metrics;
    m.add("serve.uptime_ns", snap.uptime_ns);
    for (key, hist) in &snap.phases {
        if key.contains('{') {
            continue;
        }
        let s = hist.summary();
        m.add(&format!("{key}.count"), s.count);
        m.add(&format!("{key}.p50_ns"), s.p50);
        m.add(&format!("{key}.p90_ns"), s.p90);
        m.add(&format!("{key}.p99_ns"), s.p99);
        m.add(&format!("{key}.p999_ns"), s.p999);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Bind `127.0.0.1:0` (or `addr`) and spawn the server's threads.
///
/// `ctx` carries the service's observability and perturbation policy: its
/// metrics handle receives the `serve.*` vocabulary plus every `engine.*` /
/// `queue.*` counter the epochs emit, its fault injector and retry budget
/// ride into every epoch (so chaos testing the service reuses the exact
/// task-queue recovery machinery), and its scheduler choice applies to the
/// large tier. Small-tier epochs always run `Scheduler::WorkStealing`
/// over their edgeless graph.
pub fn spawn(
    cfg: ServerConfig,
    addr: Option<SocketAddr>,
    ctx: &ExecContext,
) -> std::io::Result<ServerHandle> {
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(cfg.batch_max >= 1, "batches need at least one slot");
    assert!(cfg.large_lanes >= 1, "need at least one large lane");
    let listener = TcpListener::bind(addr.unwrap_or_else(|| "127.0.0.1:0".parse().unwrap()))?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        cache: SolveCache::new(cfg.cache_bytes),
        cfg,
        ctx: ctx.clone(),
        q: Mutex::new(DispatchQueues::default()),
        small_ready: Condvar::new(),
        large_ready: Condvar::new(),
        stopping: Condvar::new(),
        shutdown: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
        conns: Mutex::new(Vec::new()),
        reader_joins: Mutex::new(Vec::new()),
        telemetry: Telemetry::new(),
    });

    let mut joins = Vec::new();
    {
        let shared = Arc::clone(&shared);
        joins.push(std::thread::spawn(move || accept_loop(listener, shared)));
    }
    {
        // Request-lifecycle spans live on a serve wall-clock domain, one
        // track per server-side actor, so `--trace` renders a per-request
        // waterfall next to the epoch's `task_queue::run` worker tracks.
        let track = shared
            .ctx
            .tracer
            .register(TrackDesc::control("serve batcher").in_domain(TimeDomain::ServeNs));
        let shared = Arc::clone(&shared);
        joins.push(std::thread::spawn(move || batch_loop(shared, track)));
    }
    for lane in 0..shared.cfg.large_lanes {
        let track = shared.ctx.tracer.register(
            TrackDesc::control(format!("serve large lane {lane}")).in_domain(TimeDomain::ServeNs),
        );
        let shared = Arc::clone(&shared);
        joins.push(std::thread::spawn(move || large_loop(shared, track)));
    }
    Ok(ServerHandle {
        addr,
        shared,
        joins,
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conn_seq = 0u64;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.draining.load(Ordering::Acquire) {
            // Draining: no new connections, existing ones finish out.
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let _ = stream.set_write_timeout(shared.cfg.write_timeout);
        // Each response frame is one write; Nagle would hold the next
        // frame until the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        let read_half = match stream.try_clone() {
            Ok(h) => h,
            Err(_) => continue,
        };
        shared
            .conns
            .lock()
            .unwrap()
            .push(read_half.try_clone().unwrap_or_else(|_| {
                // Losing the shutdown handle only delays reader exit until
                // the client closes; keep serving.
                stream.try_clone().expect("clone just succeeded")
            }));
        let conn = Arc::new(ConnWriter {
            stream: Mutex::new(stream),
        });
        let track = shared.ctx.tracer.register(
            TrackDesc::control(format!("serve conn {conn_seq}")).in_domain(TimeDomain::ServeNs),
        );
        conn_seq += 1;
        shared.metric("serve.connections", 1);
        let shared2 = Arc::clone(&shared);
        let join = std::thread::spawn(move || read_loop(read_half, conn, shared2, track));
        shared.reader_joins.lock().unwrap().push(join);
    }
}

fn read_loop(stream: TcpStream, conn: Arc<ConnWriter>, shared: Arc<Shared>, track: Track) {
    let _ = stream.set_read_timeout(shared.cfg.idle_timeout);
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Clean close or shutdown: stop reading.
            Ok(None) => return,
            Err(e) => {
                match e.kind() {
                    // The idle timeout fired: reap the abandoned socket
                    // (both halves, so a half-open client unblocks too).
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        shared.metric("serve.net.idle_reaped", 1);
                        let _ = conn.stream.lock().unwrap().shutdown(Shutdown::Both);
                    }
                    // A hostile length prefix (over MAX_FRAME). The bytes
                    // that follow are unframeable, so answer typed and
                    // close rather than desyncing every later frame.
                    std::io::ErrorKind::InvalidData => {
                        shared.metric("serve.net.oversized", 1);
                        drop(conn.send(0, Status::Invalid, false, e.to_string().as_bytes()));
                        let _ = conn.stream.lock().unwrap().shutdown(Shutdown::Both);
                    }
                    // Torn connection (EOF mid-frame, reset): close both
                    // halves so the peer sees FIN instead of a half-open
                    // socket (the conns registry holds another fd dup).
                    _ => {
                        shared.metric("serve.net.torn", 1);
                        let _ = conn.stream.lock().unwrap().shutdown(Shutdown::Both);
                    }
                }
                return;
            }
        };
        let t_recv = Instant::now();
        match RequestFrame::decode(&payload) {
            Ok(RequestFrame::Solve(req)) => {
                shared.metric("serve.requests", 1);
                admit(req, Arc::clone(&conn), &shared, track, t_recv);
            }
            Ok(RequestFrame::Stats(req)) => {
                // Answered inline off the reader thread — the stats plane
                // must stay reachable when the solve queues are saturated,
                // so it never passes through admission control.
                shared.metric("serve.stats_requests", 1);
                conn.send_stats(req.id, &shared);
            }
            Err(e) => {
                shared.metric("serve.malformed", 1);
                drop(conn.send(
                    salvage_id(&payload),
                    Status::Invalid,
                    false,
                    e.to_string().as_bytes(),
                ));
            }
        }
    }
}

/// Best-effort request id of a payload that failed to decode (version and
/// kind bytes then id), so even malformed traffic gets an attributable
/// answer.
fn salvage_id(payload: &[u8]) -> u64 {
    match payload.get(2..10) {
        Some(bytes) => u64::from_le_bytes(bytes.try_into().unwrap()),
        None => 0,
    }
}

/// Cache lookup → admission control → classification → enqueue, stamping
/// the `admission` / `cache_lookup` phases along the way.
fn admit(req: Request, conn: Arc<ConnWriter>, shared: &Arc<Shared>, track: Track, t_recv: Instant) {
    let tracer = &shared.ctx.tracer;
    tracer.instant(track, EventKind::Request { id: req.id as u32 });
    tracer.begin(track, phase_kind(Phase::Admission));
    let kind = req.workload.kind_name();
    let small = req.workload.side() < shared.cfg.small_threshold;
    let t_cache = Instant::now();
    let key = workload_key(&req.workload);
    let hit = shared.cache.get(key);
    shared.phase_since(Phase::CacheLookup, t_cache);
    if let Some(hit) = hit {
        shared.metric("serve.cache_hits", 1);
        if hit.promoted {
            shared.metric("serve.cache.promotions", 1);
        }
        if hit.evicted > 0 {
            shared.metric("serve.cache.evictions", hit.evicted as u64);
        }
        let adm_ns = elapsed_ns(t_recv);
        shared.phase_ns(Phase::Admission, adm_ns);
        shared.phase_labeled(Phase::Admission, &[("status", "hit")], adm_ns);
        tracer.end(track, phase_kind(Phase::Admission));
        let t_resp = Instant::now();
        tracer.begin(track, phase_kind(Phase::Respond));
        let _sent = conn.send(req.id, Status::Ok, true, &hit.body);
        tracer.end(track, phase_kind(Phase::Respond));
        shared.phase_since(Phase::Respond, t_resp);
        shared.record_total(&req.tenant, kind, small, "hit", t_recv);
        return;
    }
    shared.metric("serve.cache_misses", 1);

    let job = Job {
        id: req.id,
        tenant: req.tenant,
        workload: req.workload,
        key,
        conn,
        small,
        t_recv,
        t_enqueued: Instant::now(),
        deadline: (req.deadline_ms > 0)
            .then(|| t_recv + Duration::from_millis(req.deadline_ms as u64)),
    };
    // Deadline boundary 1, admission: a budget the cache lookup already
    // spent is dead on arrival.
    if job.expired() {
        let adm_ns = elapsed_ns(t_recv);
        shared.phase_ns(Phase::Admission, adm_ns);
        shared.phase_labeled(Phase::Admission, &[("status", "deadline_exceeded")], adm_ns);
        tracer.end(track, phase_kind(Phase::Admission));
        respond_deadline(&job, shared, track, "deadline exceeded at admission");
        return;
    }
    if shared.draining.load(Ordering::Acquire) {
        shared.metric("serve.drain_rejected", 1);
        let adm_ns = elapsed_ns(t_recv);
        shared.phase_ns(Phase::Admission, adm_ns);
        shared.phase_labeled(Phase::Admission, &[("status", "draining")], adm_ns);
        tracer.end(track, phase_kind(Phase::Admission));
        let t_resp = Instant::now();
        tracer.begin(track, phase_kind(Phase::Respond));
        let _sent = job
            .conn
            .send(job.id, Status::Overloaded, false, b"server draining");
        tracer.end(track, phase_kind(Phase::Respond));
        shared.phase_since(Phase::Respond, t_resp);
        shared.record_total(&job.tenant, kind, small, "draining", t_recv);
        return;
    }
    {
        let mut q = shared.q.lock().unwrap();
        if q.pending() >= shared.cfg.queue_limit {
            drop(q);
            shared.metric("serve.rejected", 1);
            let adm_ns = elapsed_ns(t_recv);
            shared.phase_ns(Phase::Admission, adm_ns);
            shared.phase_labeled(Phase::Admission, &[("status", "overloaded")], adm_ns);
            tracer.end(track, phase_kind(Phase::Admission));
            let t_resp = Instant::now();
            tracer.begin(track, phase_kind(Phase::Respond));
            let _sent = job
                .conn
                .send(job.id, Status::Overloaded, false, b"admission queue full");
            tracer.end(track, phase_kind(Phase::Respond));
            shared.phase_since(Phase::Respond, t_resp);
            shared.record_total(&job.tenant, kind, small, "overloaded", t_recv);
            return;
        }
        let tenant = q.tenants.entry(job.tenant.clone()).or_default();
        if small {
            tenant.small.push_back(job);
            q.small_pending += 1;
        } else {
            tenant.large.push_back(job);
            q.large_pending += 1;
        }
    }
    shared.metric(
        if small {
            "serve.small_requests"
        } else {
            "serve.large_requests"
        },
        1,
    );
    let adm_ns = elapsed_ns(t_recv);
    shared.phase_ns(Phase::Admission, adm_ns);
    shared.phase_labeled(Phase::Admission, &[("status", "ok")], adm_ns);
    tracer.end(track, phase_kind(Phase::Admission));
    if small {
        shared.small_ready.notify_one();
    } else {
        shared.large_ready.notify_one();
    }
}

/// The small tier: merge queued requests into shared scheduler epochs.
///
/// Work-conserving: whenever the epoch worker is idle and small work is
/// pending it drains up to `batch_max` jobs at once, and whatever arrives
/// while an epoch runs forms the next batch.
fn batch_loop(shared: Arc<Shared>, track: Track) {
    let mut dispatches = 0u64;
    let mut q = shared.q.lock().unwrap();
    loop {
        if q.small_pending == 0 {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            q = shared.small_ready.wait(q).unwrap();
            continue;
        }
        // Collection, timed as the `batch_linger` phase: wake-up → drain,
        // ≈ 0 unless an injected dispatch stall holds the worker (which
        // ends early once a full batch is waiting).
        let t_collect = Instant::now();
        shared
            .ctx
            .tracer
            .begin(track, phase_kind(Phase::BatchLinger));
        let batch_max = shared.cfg.batch_max;
        if shared
            .ctx
            .faults
            .should_inject(FaultKind::DispatchStall, site2(0, dispatches))
        {
            q = stall_dispatch(&shared, q, &shared.small_ready, track, |q| {
                q.small_pending >= batch_max
            });
        }
        dispatches += 1;
        let batch = q.drain_small(batch_max);
        // Count the batch in-flight before releasing the lock so `drain`
        // never observes "no pending, no in-flight" while work exists.
        shared.inflight.fetch_add(batch.len(), Ordering::AcqRel);
        drop(q);
        shared.ctx.tracer.end(track, phase_kind(Phase::BatchLinger));
        shared.phase_since(Phase::BatchLinger, t_collect);
        if !batch.is_empty() {
            run_epoch(&batch, &shared, track);
        }
        shared.inflight.fetch_sub(batch.len(), Ordering::AcqRel);
        q = shared.q.lock().unwrap();
    }
}

/// Hold a dispatcher under an injected [`FaultKind::DispatchStall`]: wait on
/// `wake` up to [`DISPATCH_STALL`] with the dispatch lock released
/// (admission keeps queueing meanwhile), ending early at shutdown or once
/// `enough` holds.
fn stall_dispatch<'a>(
    shared: &'a Shared,
    mut q: MutexGuard<'a, DispatchQueues>,
    wake: &Condvar,
    track: Track,
    enough: impl Fn(&DispatchQueues) -> bool,
) -> MutexGuard<'a, DispatchQueues> {
    shared.ctx.tracer.instant(
        track,
        EventKind::Fault {
            code: FaultKind::DispatchStall.code(),
        },
    );
    let until = Instant::now() + DISPATCH_STALL;
    while !enough(&q) && !shared.shutdown.load(Ordering::Acquire) {
        let now = Instant::now();
        if now >= until {
            break;
        }
        q = wake.wait_timeout(q, until - now).unwrap().0;
    }
    q
}

/// Execute one shared scheduler epoch: one independent task per request on
/// the work-stealing discipline.
fn run_epoch(all: &[Job], shared: &Arc<Shared>, track: Track) {
    let tracer = &shared.ctx.tracer;
    // Queue wait ends for every member when the batch drains (one clock
    // read for the whole batch).
    let t_drained = Instant::now();
    for job in all {
        tracer.instant(track, EventKind::Request { id: job.id as u32 });
        let wait = t_drained.saturating_duration_since(job.t_enqueued);
        let ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
        shared.phase_ns(Phase::QueueWait, ns);
    }
    // Deadline boundary 2, epoch dispatch: a job that expired waiting in
    // queue (or while its dispatcher was held) is cancelled here — it never
    // enters the epoch and never lands in the `epoch_solve` histogram.
    let (expired, batch): (Vec<&Job>, Vec<&Job>) = all.iter().partition(|j| j.expired());
    for job in expired {
        respond_deadline(job, shared, track, "deadline exceeded in queue");
    }
    if batch.is_empty() {
        return;
    }
    let epoch_ctx = shared.ctx.clone().with_scheduler(Scheduler::WorkStealing);
    let engine = SimdEngine::new(SMALL_NB);
    // Which members their own task already answered.
    let answered: Vec<AtomicBool> = batch.iter().map(|_| AtomicBool::new(false)).collect();
    let workers = shared.cfg.workers.min(batch.len()).max(1);
    let graph = TaskGraph::new(batch.len());
    let t_epoch = Instant::now();
    tracer.begin(track, phase_kind(Phase::EpochSolve));
    let ran = {
        let _t = shared.ctx.metrics.timed("serve.epoch_ns");
        task_queue::run(&graph, workers, &epoch_ctx, |i| {
            let job = batch[i];
            let problem = materialize(&job.workload);
            let out = solve_problem(&problem, &engine, &epoch_ctx).map(|o| o.encode_body());
            // A member's epoch ends with its own solve, and it is answered
            // right here rather than when the slowest member finishes. The
            // respond spans go on this worker's own track, so every track's
            // spans still nest.
            shared.phase_since(Phase::EpochSolve, t_epoch);
            answered[i].store(true, Ordering::Release);
            respond(
                job,
                Some(out),
                shared,
                tracer.thread_track().unwrap_or(track),
            );
        })
    };
    tracer.end(track, phase_kind(Phase::EpochSolve));
    shared.metric("serve.batches", 1);
    shared.metric("serve.batched_requests", batch.len() as u64);
    shared
        .ctx
        .metrics
        .record_max("serve.batch_max_seen", batch.len() as u64);
    shared
        .telemetry
        .record_max("serve.batch_max_seen", batch.len() as u64);
    match ran {
        Ok(stats) => {
            // The scheduler's own account of the epoch: every request ran
            // exactly once across the shared worker pool.
            let tasks: usize = stats.tasks_per_worker.iter().sum();
            debug_assert_eq!(tasks, batch.len());
            shared.metric("serve.epoch_tasks", tasks as u64);
        }
        Err(_) => shared.metric("serve.epochs_failed", 1),
    }
    // The epoch aborted (retry budget exhausted) before these members' tasks
    // finished: they still get their typed answer, and the whole epoch as
    // their `epoch_solve` sample, keeping phase counts aligned with request
    // counts.
    let epoch_ns = elapsed_ns(t_epoch);
    for (&job, done) in batch.iter().zip(&answered) {
        if !done.load(Ordering::Acquire) {
            shared.phase_ns(Phase::EpochSolve, epoch_ns);
            respond(job, None, shared, track);
        }
    }
    let mut q = shared.q.lock().unwrap();
    for job in &batch {
        let cells = job.workload.cells();
        q.charge(&job.tenant, cells);
        charge_metric(shared, &job.tenant, cells);
    }
}

/// The large tier: one autotuned parallel solve per request.
fn large_loop(shared: Arc<Shared>, track: Track) {
    let tracer = shared.ctx.tracer.clone();
    let mut q = shared.q.lock().unwrap();
    loop {
        let Some(job) = q.pop_large() else {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            q = shared.large_ready.wait(q).unwrap();
            continue;
        };
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        if shared
            .ctx
            .faults
            .should_inject(FaultKind::DispatchStall, site2(1, job.id))
        {
            q = stall_dispatch(&shared, q, &shared.stopping, track, |_| false);
        }
        drop(q);
        tracer.instant(track, EventKind::Request { id: job.id as u32 });
        shared.phase_since(Phase::QueueWait, job.t_enqueued);
        // Deadline boundary 3, large dispatch: checked between pop (and any
        // dispatch stall) and solve, so an expired request never burns a
        // lane (and never lands in the `large_solve` histogram).
        if job.expired() {
            respond_deadline(&job, &shared, track, "deadline exceeded in queue");
            shared.inflight.fetch_sub(1, Ordering::AcqRel);
            q = shared.q.lock().unwrap();
            continue;
        }
        let ctx = shared.ctx.clone().with_tuning(Tuning::Auto);
        // `Tuning::Auto` replaces nb with the §V model's choice at solve
        // time; the constructor values are placeholders.
        let engine = ParallelEngine::new(32, 2, shared.cfg.workers);
        let problem = materialize(&job.workload);
        let t_solve = Instant::now();
        tracer.begin(track, phase_kind(Phase::LargeSolve));
        let result = {
            let _t = shared.ctx.metrics.timed("serve.large_ns");
            solve_problem(&problem, &engine, &ctx).map(|o| o.encode_body())
        };
        tracer.end(track, phase_kind(Phase::LargeSolve));
        shared.phase_since(Phase::LargeSolve, t_solve);
        shared.metric("serve.large_solves", 1);
        respond(&job, Some(result), &shared, track);
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        let cells = job.workload.cells();
        charge_metric(&shared, &job.tenant, cells);
        q = shared.q.lock().unwrap();
        q.charge(&job.tenant, cells);
    }
}

/// Send a solve result (or its absence) back, caching successes; stamps
/// the `respond` phase and closes out `total` for the request.
fn respond(
    job: &Job,
    result: Option<Result<Vec<u8>, SolveError>>,
    shared: &Arc<Shared>,
    track: Track,
) {
    let tracer = &shared.ctx.tracer;
    let t_resp = Instant::now();
    tracer.begin(track, phase_kind(Phase::Respond));
    let result = result.map(|r| r.map(Arc::new));
    let message: String;
    let (status, body, label): (Status, &[u8], &'static str) = match &result {
        Some(Ok(body)) => {
            let evicted = shared.cache.insert(job.key, Arc::clone(body));
            if evicted > 0 {
                shared.metric("serve.cache.evictions", evicted as u64);
            }
            shared.metric("serve.responses_ok", 1);
            (Status::Ok, body, "ok")
        }
        Some(Err(e)) => {
            shared.metric("serve.responses_failed", 1);
            message = e.to_string();
            match e {
                SolveError::InvalidSeed { .. } | SolveError::InvalidProblem { .. } => {
                    (Status::Invalid, message.as_bytes(), "invalid")
                }
                _ => (Status::Failed, message.as_bytes(), "failed"),
            }
        }
        None => {
            // The epoch aborted (retry budget exhausted) before this task
            // ran; its retry machinery already counted the panics.
            shared.metric("serve.responses_failed", 1);
            (Status::Failed, b"epoch aborted before task ran", "failed")
        }
    };
    let _sent = job.conn.send(job.id, status, false, body);
    tracer.end(track, phase_kind(Phase::Respond));
    shared.phase_since(Phase::Respond, t_resp);
    shared.record_total(
        &job.tenant,
        job.workload.kind_name(),
        job.small,
        label,
        job.t_recv,
    );
}

/// Answer an expired job typed, without solving: stamps the `respond`
/// phase, counts `serve.deadline_exceeded`, and closes out
/// `total{status=deadline_exceeded}` — so deadline failures are part of
/// the latency story exactly like rejections.
fn respond_deadline(job: &Job, shared: &Arc<Shared>, track: Track, msg: &str) {
    let tracer = &shared.ctx.tracer;
    let t_resp = Instant::now();
    tracer.begin(track, phase_kind(Phase::Respond));
    shared.metric("serve.deadline_exceeded", 1);
    let _sent = job
        .conn
        .send(job.id, Status::DeadlineExceeded, false, msg.as_bytes());
    tracer.end(track, phase_kind(Phase::Respond));
    shared.phase_since(Phase::Respond, t_resp);
    shared.record_total(
        &job.tenant,
        job.workload.kind_name(),
        job.small,
        "deadline_exceeded",
        job.t_recv,
    );
}

/// Per-tenant charge counters (only materialized when metrics are live —
/// the key is heap-formatted).
fn charge_metric(shared: &Arc<Shared>, tenant: &str, cells: u64) {
    if shared.ctx.metrics.enabled() {
        let label = if tenant.is_empty() { "-" } else { tenant };
        shared
            .ctx
            .metrics
            .add(&format!("serve.tenant.{label}.cells"), cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_order_prefers_least_charged() {
        let mut q = DispatchQueues::default();
        for (tenant, charged) in [("a", 300u64), ("b", 100), ("c", 200)] {
            let t = q.tenants.entry(tenant.into()).or_default();
            t.charged_cells = charged;
            t.small.push_back(Job {
                id: 0,
                tenant: tenant.into(),
                workload: Workload::ClosureSynthetic { n: 8, seed: 0 },
                key: 0,
                conn: dummy_conn(),
                small: true,
                t_recv: Instant::now(),
                t_enqueued: Instant::now(),
                deadline: None,
            });
            q.small_pending += 1;
        }
        assert_eq!(q.fair_order(false), ["b", "c", "a"]);
        let batch = q.drain_small(2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].tenant, "b");
        assert_eq!(batch[1].tenant, "c");
        assert_eq!(q.small_pending, 1);
    }

    #[test]
    fn drain_small_round_robins_within_a_batch() {
        let mut q = DispatchQueues::default();
        for tenant in ["a", "b"] {
            let t = q.tenants.entry(tenant.into()).or_default();
            for i in 0..3 {
                t.small.push_back(Job {
                    id: i,
                    tenant: tenant.into(),
                    workload: Workload::ClosureSynthetic { n: 8, seed: i },
                    key: 0,
                    conn: dummy_conn(),
                    small: true,
                    t_recv: Instant::now(),
                    t_enqueued: Instant::now(),
                    deadline: None,
                });
                q.small_pending += 1;
            }
        }
        let batch = q.drain_small(4);
        let tenants: Vec<_> = batch.iter().map(|j| j.tenant.as_str()).collect();
        // Alternating, not three-of-a then one-of-b.
        assert_eq!(tenants, ["a", "b", "a", "b"]);
    }

    #[test]
    fn charge_accumulates() {
        let mut q = DispatchQueues::default();
        q.charge("t", 10);
        q.charge("t", 5);
        assert_eq!(q.tenants["t"].charged_cells, 15);
    }

    fn dummy_conn() -> Arc<ConnWriter> {
        // A connected pair the tests never read from.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let _ = listener.accept();
        Arc::new(ConnWriter {
            stream: Mutex::new(stream),
        })
    }
}
