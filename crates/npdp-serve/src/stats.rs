//! The serving layer's telemetry plane: the request-lifecycle phase
//! vocabulary, the always-on [`Telemetry`] collector, and the versioned
//! [`StatsSnapshot`] the `Stats` admin frame answers with.
//!
//! The paper's §V model only works because every cycle is *attributed* —
//! compute, DMA or stall. This module is the serving-plane equivalent:
//! every request is stamped through its lifecycle and each phase's
//! duration lands in a streaming histogram under `serve.phase.<name>`,
//! plus labeled series (`serve.phase.total{kind=…,size=…,status=…,
//! tenant=…}`) so tail latency can be sliced by tenant × size-class ×
//! workload-kind × status.
//!
//! [`Telemetry`] is always on — it does not depend on the server's
//! [`ExecContext`](npdp_exec::ExecContext) carrying a metrics sink —
//! because the `Stats` frame must answer on a production server that runs
//! with metrics disabled. Recording is a read-lock plus a handful of
//! relaxed atomics per event (see [`npdp_metrics::histogram`]).

use std::time::Instant;

use npdp_metrics::histogram::{series_key, HistogramSnapshot};
use npdp_metrics::json::Value;
use npdp_metrics::{MetricsSink, Recorder};

use crate::protocol::{Cursor, WireError};

/// Version byte leading every encoded [`StatsSnapshot`] body.
pub const STATS_VERSION: u8 = 1;

/// Schema tag of [`StatsSnapshot::to_json`] documents.
pub const STATS_SCHEMA: &str = "cellnpdp-serve-stats-v1";

/// One stage of a request's lifecycle. Each phase records a duration
/// histogram under [`Phase::key`]; the `code` doubles as the
/// `npdp_trace::EventKind::ServePhase` payload, so metric keys and trace
/// spans share one vocabulary (see [`npdp_trace::serve_phase_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Frame decoded → queued (or refused). Labeled by admission outcome:
    /// `status=ok|hit|overloaded`.
    Admission,
    /// The content-key probe of the solve cache.
    CacheLookup,
    /// Queued → picked up by the batcher or a large lane.
    QueueWait,
    /// Batch collection: from the epoch worker taking up pending small work
    /// to draining it into a batch (recorded once per batch). The batcher
    /// holds no timer, so this is ≈ 0 unless an injected
    /// `FaultKind::DispatchStall` holds the worker. The name is kept for
    /// the metric key and trace vocabulary.
    BatchLinger,
    /// From the start of the shared scheduler epoch a small request rode
    /// to the end of its own solve (recorded once per member request; a
    /// member of an aborted epoch whose task never finished records the
    /// whole epoch).
    EpochSolve,
    /// One autotuned large-tier solve.
    LargeSolve,
    /// Response serialization and the socket write.
    Respond,
    /// Frame decoded → response handed to the socket. The whole-lifecycle
    /// series client latencies are gated against.
    Total,
}

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; 8] = [
        Phase::Admission,
        Phase::CacheLookup,
        Phase::QueueWait,
        Phase::BatchLinger,
        Phase::EpochSolve,
        Phase::LargeSolve,
        Phase::Respond,
        Phase::Total,
    ];

    /// Stable code, shared with the trace vocabulary.
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Stable lowercase name (`admission`, `queue_wait`, …).
    pub fn name(self) -> &'static str {
        npdp_trace::serve_phase_name(self.code())
    }

    /// The metric key of this phase's duration histogram.
    pub fn key(self) -> &'static str {
        match self {
            Phase::Admission => "serve.phase.admission",
            Phase::CacheLookup => "serve.phase.cache_lookup",
            Phase::QueueWait => "serve.phase.queue_wait",
            Phase::BatchLinger => "serve.phase.batch_linger",
            Phase::EpochSolve => "serve.phase.epoch_solve",
            Phase::LargeSolve => "serve.phase.large_solve",
            Phase::Respond => "serve.phase.respond",
            Phase::Total => "serve.phase.total",
        }
    }
}

/// The server's always-on collector: one [`Recorder`] holding both the
/// `serve.*` counters and the `serve.phase.*` histograms, plus the start
/// instant uptime is measured from.
#[derive(Debug)]
pub struct Telemetry {
    start: Instant,
    rec: Recorder,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            rec: Recorder::new(),
        }
    }

    /// Nanoseconds since the server started.
    pub fn uptime_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Bump a counter.
    #[inline]
    pub fn add(&self, key: &str, delta: u64) {
        self.rec.add(key, delta);
    }

    /// Raise a high-water mark.
    #[inline]
    pub fn record_max(&self, key: &str, value: u64) {
        MetricsSink::record_max(&self.rec, key, value);
    }

    /// Record one phase duration (nanoseconds) into the phase's base
    /// histogram.
    #[inline]
    pub fn record_phase(&self, phase: Phase, ns: u64) {
        self.rec.record_value(phase.key(), ns);
    }

    /// Record one duration into an explicitly keyed (labeled) series.
    #[inline]
    pub fn record_series(&self, key: &str, ns: u64) {
        self.rec.record_value(key, ns);
    }

    /// The canonical labeled key for a phase (see
    /// [`npdp_metrics::histogram::series_key`]).
    pub fn labeled_key(phase: Phase, labels: &[(&str, &str)]) -> String {
        series_key(phase.key(), labels)
    }

    /// The underlying recorder (tests and the shutdown flush read it).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Assemble a snapshot; queue depths and tenant charges live in the
    /// server's dispatch queue, so the caller passes them in.
    pub fn snapshot(
        &self,
        queue_small: u64,
        queue_large: u64,
        tenants: Vec<(String, u64)>,
    ) -> StatsSnapshot {
        StatsSnapshot {
            uptime_ns: self.uptime_ns(),
            queue_small,
            queue_large,
            counters: self.rec.snapshot().into_iter().collect(),
            tenants,
            phases: self.rec.histogram_snapshot().into_iter().collect(),
        }
    }
}

/// A point-in-time view of a running server, as answered by the `Stats`
/// admin frame. Phases carry full sparse histograms (not just summaries)
/// so a poller can subtract consecutive snapshots and derive *interval*
/// percentiles ([`HistogramSnapshot::delta_since`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Nanoseconds since the server started.
    pub uptime_ns: u64,
    /// Small-tier requests queued and not yet drained into an epoch.
    pub queue_small: u64,
    /// Large-tier requests queued and not yet picked up by a lane.
    pub queue_large: u64,
    /// Every `serve.*` counter, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// Per-tenant DP cells charged so far (the fairness currency), sorted.
    pub tenants: Vec<(String, u64)>,
    /// Every phase histogram (base and labeled series), sorted by key.
    pub phases: Vec<(String, HistogramSnapshot)>,
}

impl StatsSnapshot {
    /// Value of a counter (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The histogram recorded under `key`, if any.
    pub fn phase(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.phases.iter().find(|(k, _)| k == key).map(|(_, h)| h)
    }

    /// Encode as a response body (see the module docs for framing; the
    /// snapshot rides a normal `Status::Ok` response to a `Stats` frame).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STATS_VERSION);
        put_u64(&mut out, self.uptime_ns);
        put_u64(&mut out, self.queue_small);
        put_u64(&mut out, self.queue_large);
        put_u32(&mut out, self.counters.len() as u32);
        for (key, value) in &self.counters {
            put_str(&mut out, key);
            put_u64(&mut out, *value);
        }
        put_u32(&mut out, self.tenants.len() as u32);
        for (name, cells) in &self.tenants {
            put_str(&mut out, name);
            put_u64(&mut out, *cells);
        }
        put_u32(&mut out, self.phases.len() as u32);
        for (key, h) in &self.phases {
            put_str(&mut out, key);
            put_u64(&mut out, h.count);
            put_u64(&mut out, h.sum);
            put_u64(&mut out, h.min);
            put_u64(&mut out, h.max);
            put_u32(&mut out, h.buckets.len() as u32);
            for &(idx, n) in &h.buckets {
                put_u32(&mut out, idx);
                put_u64(&mut out, n);
            }
        }
        out
    }

    /// Decode a snapshot body.
    pub fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Cursor(body);
        if r.u8()? != STATS_VERSION {
            return Err(WireError::Malformed("unsupported stats version"));
        }
        let uptime_ns = r.u64()?;
        let queue_small = r.u64()?;
        let queue_large = r.u64()?;
        let n = r.u32()? as usize;
        let mut counters = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let key = get_str(&mut r)?;
            counters.push((key, r.u64()?));
        }
        let n = r.u32()? as usize;
        let mut tenants = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = get_str(&mut r)?;
            tenants.push((name, r.u64()?));
        }
        let n = r.u32()? as usize;
        let mut phases = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let key = get_str(&mut r)?;
            let count = r.u64()?;
            let sum = r.u64()?;
            let min = r.u64()?;
            let max = r.u64()?;
            let b = r.u32()? as usize;
            let mut buckets = Vec::with_capacity(b.min(4096));
            for _ in 0..b {
                let idx = r.u32()?;
                buckets.push((idx, r.u64()?));
            }
            phases.push((
                key,
                HistogramSnapshot {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                },
            ));
        }
        r.finish()?;
        Ok(StatsSnapshot {
            uptime_ns,
            queue_small,
            queue_large,
            counters,
            tenants,
            phases,
        })
    }

    /// The snapshot as a JSON document (`cellnpdp-serve-stats-v1`): what
    /// `npdp-stat --json` writes and the CI serve job schema-validates.
    /// Phase histograms are emitted as percentile summaries.
    pub fn to_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("schema", STATS_SCHEMA);
        doc.set("uptime_ns", self.uptime_ns);
        let mut queue = Value::object();
        queue.set("small", self.queue_small);
        queue.set("large", self.queue_large);
        doc.set("queue", queue);
        let mut counters = Value::object();
        for (key, value) in &self.counters {
            counters.set(key, *value);
        }
        doc.set("counters", counters);
        let mut tenants = Value::object();
        for (name, cells) in &self.tenants {
            tenants.set(name, *cells);
        }
        doc.set("tenants", tenants);
        let mut phases = Value::object();
        for (key, h) in &self.phases {
            phases.set(key, npdp_metrics::report::histogram_value(&h.summary()));
        }
        doc.set("phases", phases);
        doc
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len().min(u16::MAX as usize) as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Cursor<'_>) -> Result<String, WireError> {
    let len = u16::from_le_bytes(r.bytes(2)?.try_into().unwrap()) as usize;
    String::from_utf8(r.bytes(len)?.to_vec())
        .map_err(|_| WireError::Malformed("stats key is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_vocabulary_is_consistent() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.code() as usize, i);
            // Metric key and trace label share one name table.
            assert_eq!(phase.key(), format!("serve.phase.{}", phase.name()));
            assert_ne!(phase.name(), "unknown");
        }
    }

    #[test]
    fn snapshot_round_trips_over_the_wire() {
        let t = Telemetry::new();
        t.add("serve.requests", 41);
        t.add("serve.responses_ok", 40);
        t.record_phase(Phase::Total, 1_500);
        t.record_phase(Phase::Total, 90_000);
        t.record_series(
            &Telemetry::labeled_key(Phase::Total, &[("status", "ok"), ("tenant", "a")]),
            1_500,
        );
        let snap = t.snapshot(3, 1, vec![("a".into(), 120), ("b".into(), 60)]);
        let back = StatsSnapshot::decode_body(&snap.encode_body()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("serve.requests"), 41);
        assert_eq!(back.counter("missing"), 0);
        let total = back.phase("serve.phase.total").unwrap();
        assert_eq!(total.count, 2);
        assert!(back
            .phase("serve.phase.total{status=ok,tenant=a}")
            .is_some());
        // Truncated and version-skewed bodies are typed errors.
        let body = snap.encode_body();
        assert!(StatsSnapshot::decode_body(&body[..body.len() - 1]).is_err());
        let mut skew = body.clone();
        skew[0] = STATS_VERSION + 1;
        assert!(StatsSnapshot::decode_body(&skew).is_err());
    }

    #[test]
    fn json_document_carries_the_schema() {
        let t = Telemetry::new();
        t.add("serve.requests", 1);
        t.record_phase(Phase::Admission, 700);
        let doc = t.snapshot(0, 0, vec![("t".into(), 5)]).to_json();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(STATS_SCHEMA)
        );
        assert_eq!(
            doc.get("queue")
                .and_then(|q| q.get("small"))
                .and_then(Value::as_u64),
            Some(0)
        );
        let adm = doc
            .get("phases")
            .and_then(|p| p.get("serve.phase.admission"))
            .expect("admission phase present");
        assert_eq!(adm.get("count").and_then(Value::as_u64), Some(1));
        assert!(adm.get("p99").and_then(Value::as_u64).unwrap_or(0) >= 700);
    }
}
