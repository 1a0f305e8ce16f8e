//! The framed wire format: length-prefixed little-endian frames over TCP.
//!
//! One frame = a `u32` payload length followed by the payload. Request
//! payloads lead with the protocol version and a message-kind byte: solve
//! frames ([`Request`]) name a *workload* — either a synthetic problem (a
//! generator seed, the common case at benchmark scale) or inline closure
//! seeds — plus a request id (echoed verbatim, so responses may be matched
//! out of order) and a tenant label (the fairness unit); [`StatsRequest`]
//! admin frames poll the server's telemetry. Responses carry a status
//! byte, a cache-hit flag, and on success the kind-specific result
//! payload.
//!
//! The result payload is encoded *without* the id/status/flags prefix (see
//! [`Response::body`]), so the solve cache can store one encoded body and
//! serve it under any request id.

use std::io::{self, IoSlice, Read, Write};

use npdp_core::TriangularMatrix;

/// Protocol version byte leading every request and response payload.
///
/// v2 added a message-kind byte after the version on request payloads
/// (solve vs. admin frames). v3 added the `deadline_ms` budget to solve
/// frames (between the id and the tenant label; `0` = no deadline);
/// responses are unchanged apart from the new
/// [`Status::DeadlineExceeded`] byte. v4 added the on-engine recurrence
/// workloads — [`Workload::BstSynthetic`], [`Workload::CykSynthetic`] and
/// [`Workload::ZukerSynthetic`] — which ride the generic
/// `npdp_core::Recurrence` path on the same engine tiers; their results
/// reuse the existing [`SolveOutput`] body tags, so responses are
/// unchanged.
pub const VERSION: u8 = 4;

/// Request-kind byte: a solve request ([`Request`]).
pub const KIND_SOLVE: u8 = 0;

/// Request-kind byte: a `Stats` admin request ([`StatsRequest`]). Answered
/// inline by the reader thread — never queued, never admission-controlled —
/// so telemetry stays reachable on an overloaded server.
pub const KIND_STATS: u8 = 1;

/// Refuse frames above this size (a corrupt or hostile length prefix must
/// not become an allocation bomb).
pub const MAX_FRAME: usize = 64 << 20;

/// Longest accepted tenant label.
pub const MAX_TENANT: usize = 64;

/// Largest accepted problem side. Bounds the response size (a side-`n`
/// closure response is `n(n-1)/2` 4-byte cells) and the work one request
/// can demand.
pub const MAX_PROBLEM_SIDE: usize = 8192;

/// The problem a request asks the service to solve.
///
/// Synthetic variants carry a generator seed instead of data — the
/// materialized seeds are a pure function of `(n, seed)` (see
/// [`crate::solve::materialize`]), which keeps load-generator traffic tiny
/// and makes the solve cache key exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Min-plus interval closure over `problem::random_seeds_f32(n, 100.0,
    /// seed)` — the paper's synthetic NPDP workload.
    ClosureSynthetic { n: u32, seed: u64 },
    /// Min-plus closure over caller-provided seeds.
    ClosureInline { seeds: TriangularMatrix<f32> },
    /// Optimal matrix-chain parenthesization of `matrices` matrices with
    /// seeded random dimensions.
    ParenthesizeSynthetic { matrices: u32, seed: u64 },
    /// Zuker RNA fold (stems-only `V'` + the min-plus `W` closure) of a
    /// seeded random sequence of `bases` bases.
    FoldSynthetic { bases: u32, seed: u64 },
    /// Optimal binary search tree over `keys` seeded random access
    /// frequencies, solved on-engine via the rooted recurrence
    /// (`npdp_core::apps::optimal_bst::BstRec`).
    BstSynthetic { keys: u32, seed: u64 },
    /// Weighted CYK parse of a seeded random token string under a seeded
    /// random grammar (`npdp_core::apps::cyk`), on-engine over the
    /// tropical semiring.
    CykSynthetic { tokens: u32, seed: u64 },
    /// Full Zuker fold — multibranch loops included — of a seeded random
    /// sequence, entirely on-engine (`zuker::on_engine::fold_on_engine`);
    /// unlike [`Workload::FoldSynthetic`] nothing is precomputed serially.
    ZukerSynthetic { bases: u32, seed: u64 },
}

impl Workload {
    /// Problem side length — the size classifier's input and the work
    /// estimate's base (solve work is `O(side³)`).
    pub fn side(&self) -> usize {
        match self {
            Workload::ClosureSynthetic { n, .. } => *n as usize,
            Workload::ClosureInline { seeds } => seeds.n(),
            // Boundary indices: `matrices + 1` table side.
            Workload::ParenthesizeSynthetic { matrices, .. } => *matrices as usize + 1,
            // Gap coordinates: `bases + 1` table side.
            Workload::FoldSynthetic { bases, .. } => *bases as usize + 1,
            // Classic BST table side: `keys + 1` boundary indices.
            Workload::BstSynthetic { keys, .. } => *keys as usize + 1,
            // Gap coordinates: `tokens + 1` table side.
            Workload::CykSynthetic { tokens, .. } => *tokens as usize + 1,
            Workload::ZukerSynthetic { bases, .. } => *bases as usize + 1,
        }
    }

    /// Logical DP cells this workload's table holds, `side(side-1)/2` —
    /// the per-request work unit the fairness accounting charges.
    pub fn cells(&self) -> u64 {
        let s = self.side() as u64;
        s * s.saturating_sub(1) / 2
    }

    /// Stable lowercase kind name — the `kind=` label value of the
    /// telemetry plane's labeled latency series.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Workload::ClosureSynthetic { .. } => "closure",
            Workload::ClosureInline { .. } => "closure_inline",
            Workload::ParenthesizeSynthetic { .. } => "parenthesize",
            Workload::FoldSynthetic { .. } => "fold",
            Workload::BstSynthetic { .. } => "bst",
            Workload::CykSynthetic { .. } => "cyk",
            Workload::ZukerSynthetic { .. } => "zuker",
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Workload::ClosureSynthetic { n, seed } => {
                out.push(0);
                put_u32(out, *n);
                put_u64(out, *seed);
            }
            Workload::ClosureInline { seeds } => {
                out.push(1);
                put_u32(out, seeds.n() as u32);
                for &v in seeds.as_slice() {
                    put_u32(out, v.to_bits());
                }
            }
            Workload::ParenthesizeSynthetic { matrices, seed } => {
                out.push(2);
                put_u32(out, *matrices);
                put_u64(out, *seed);
            }
            Workload::FoldSynthetic { bases, seed } => {
                out.push(3);
                put_u32(out, *bases);
                put_u64(out, *seed);
            }
            Workload::BstSynthetic { keys, seed } => {
                out.push(4);
                put_u32(out, *keys);
                put_u64(out, *seed);
            }
            Workload::CykSynthetic { tokens, seed } => {
                out.push(5);
                put_u32(out, *tokens);
                put_u64(out, *seed);
            }
            Workload::ZukerSynthetic { bases, seed } => {
                out.push(6);
                put_u32(out, *bases);
                put_u64(out, *seed);
            }
        }
    }

    fn decode(r: &mut Cursor<'_>) -> Result<Self, WireError> {
        let w = match r.u8()? {
            0 => Workload::ClosureSynthetic {
                n: r.u32()?,
                seed: r.u64()?,
            },
            1 => {
                let n = r.u32()? as usize;
                if n > MAX_PROBLEM_SIDE {
                    return Err(WireError::Malformed("inline side over MAX_PROBLEM_SIDE"));
                }
                let cells = n * n.saturating_sub(1) / 2;
                let mut data = Vec::with_capacity(cells);
                for _ in 0..cells {
                    data.push(f32::from_bits(r.u32()?));
                }
                Workload::ClosureInline {
                    seeds: TriangularMatrix::from_flat(n, data),
                }
            }
            2 => Workload::ParenthesizeSynthetic {
                matrices: r.u32()?,
                seed: r.u64()?,
            },
            3 => Workload::FoldSynthetic {
                bases: r.u32()?,
                seed: r.u64()?,
            },
            4 => Workload::BstSynthetic {
                keys: r.u32()?,
                seed: r.u64()?,
            },
            5 => Workload::CykSynthetic {
                tokens: r.u32()?,
                seed: r.u64()?,
            },
            6 => Workload::ZukerSynthetic {
                bases: r.u32()?,
                seed: r.u64()?,
            },
            _ => return Err(WireError::Malformed("unknown workload tag")),
        };
        if w.side() > MAX_PROBLEM_SIDE {
            return Err(WireError::Malformed("problem side over MAX_PROBLEM_SIDE"));
        }
        Ok(w)
    }

    /// Canonical content bytes — the request encoding minus id and tenant.
    /// This is what the solve cache hashes: two requests with equal
    /// canonical bytes are the same problem.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// One solve request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Per-request deadline budget in milliseconds, measured by the server
    /// from the moment the frame is admitted. `0` means no deadline. Once
    /// the budget is spent the server answers
    /// [`Status::DeadlineExceeded`] instead of solving dead work.
    pub deadline_ms: u32,
    /// Fairness unit; empty is a valid (anonymous) tenant.
    pub tenant: String,
    /// The problem to solve.
    pub workload: Workload,
}

impl Request {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(VERSION);
        out.push(KIND_SOLVE);
        put_u64(&mut out, self.id);
        put_u32(&mut out, self.deadline_ms);
        debug_assert!(self.tenant.len() <= MAX_TENANT);
        out.push(self.tenant.len().min(MAX_TENANT) as u8);
        out.extend_from_slice(self.tenant.as_bytes());
        self.workload.encode(&mut out);
        out
    }

    /// Parse a frame payload (must be a solve frame; see
    /// [`RequestFrame::decode`] for the kind-dispatching entry point).
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        match RequestFrame::decode(payload)? {
            RequestFrame::Solve(req) => Ok(req),
            RequestFrame::Stats(_) => Err(WireError::Malformed("expected a solve frame")),
        }
    }
}

/// The `Stats` admin request: ask a running server for a
/// [`StatsSnapshot`](crate::stats::StatsSnapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsRequest {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
}

impl StatsRequest {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10);
        out.push(VERSION);
        out.push(KIND_STATS);
        put_u64(&mut out, self.id);
        out
    }
}

/// Any request payload, dispatched on the kind byte.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    /// A solve request for the dispatch queues.
    Solve(Request),
    /// An admin stats poll, answered off the queues.
    Stats(StatsRequest),
}

impl RequestFrame {
    /// Parse a frame payload into whichever request kind it carries.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Cursor(payload);
        if r.u8()? != VERSION {
            return Err(WireError::Malformed("unsupported protocol version"));
        }
        let kind = r.u8()?;
        let id = r.u64()?;
        match kind {
            KIND_SOLVE => {
                let deadline_ms = r.u32()?;
                let tlen = r.u8()? as usize;
                if tlen > MAX_TENANT {
                    return Err(WireError::Malformed("tenant label over MAX_TENANT"));
                }
                let tenant = String::from_utf8(r.bytes(tlen)?.to_vec())
                    .map_err(|_| WireError::Malformed("tenant label is not UTF-8"))?;
                let workload = Workload::decode(&mut r)?;
                r.finish()?;
                Ok(RequestFrame::Solve(Request {
                    id,
                    deadline_ms,
                    tenant,
                    workload,
                }))
            }
            KIND_STATS => {
                r.finish()?;
                Ok(RequestFrame::Stats(StatsRequest { id }))
            }
            _ => Err(WireError::Malformed("unknown request kind")),
        }
    }
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Solved; the body holds the result.
    Ok = 0,
    /// The request was malformed or over the size limits.
    Invalid = 1,
    /// Admission control refused the request (queue full). Retry later.
    Overloaded = 2,
    /// The solve itself failed (a typed `SolveError`).
    Failed = 3,
    /// The request's `deadline_ms` budget expired before a result was
    /// produced; the work was cancelled, not solved.
    DeadlineExceeded = 4,
}

impl Status {
    fn from_u8(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::Invalid,
            2 => Status::Overloaded,
            3 => Status::Failed,
            4 => Status::DeadlineExceeded,
            _ => return Err(WireError::Malformed("unknown status byte")),
        })
    }
}

/// A solve result, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveOutput {
    /// Completed closure table.
    F32Table(TriangularMatrix<f32>),
    /// Completed parenthesization cost table (boundary indices).
    I64Table(TriangularMatrix<i64>),
    /// Completed fold: minimum free energy plus the `W` closure table.
    Fold {
        energy: i32,
        w: TriangularMatrix<i32>,
    },
}

impl SolveOutput {
    /// Encode the result body (id/status-independent, cacheable bytes).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            SolveOutput::F32Table(t) => {
                out.push(0);
                put_u32(&mut out, t.n() as u32);
                for &v in t.as_slice() {
                    put_u32(&mut out, v.to_bits());
                }
            }
            SolveOutput::I64Table(t) => {
                out.push(1);
                put_u32(&mut out, t.n() as u32);
                for &v in t.as_slice() {
                    put_u64(&mut out, v as u64);
                }
            }
            SolveOutput::Fold { energy, w } => {
                out.push(2);
                put_u32(&mut out, w.n() as u32);
                put_u32(&mut out, *energy as u32);
                for &v in w.as_slice() {
                    put_u32(&mut out, v as u32);
                }
            }
        }
        out
    }

    /// Decode a result body.
    pub fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Cursor(body);
        let out = match r.u8()? {
            0 => {
                let n = r.u32()? as usize;
                let cells = checked_cells(n)?;
                let mut data = Vec::with_capacity(cells);
                for _ in 0..cells {
                    data.push(f32::from_bits(r.u32()?));
                }
                SolveOutput::F32Table(TriangularMatrix::from_flat(n, data))
            }
            1 => {
                let n = r.u32()? as usize;
                let cells = checked_cells(n)?;
                let mut data = Vec::with_capacity(cells);
                for _ in 0..cells {
                    data.push(r.u64()? as i64);
                }
                SolveOutput::I64Table(TriangularMatrix::from_flat(n, data))
            }
            2 => {
                let n = r.u32()? as usize;
                let energy = r.u32()? as i32;
                let cells = checked_cells(n)?;
                let mut data = Vec::with_capacity(cells);
                for _ in 0..cells {
                    data.push(r.u32()? as i32);
                }
                SolveOutput::Fold {
                    energy,
                    w: TriangularMatrix::from_flat(n, data),
                }
            }
            _ => return Err(WireError::Malformed("unknown result tag")),
        };
        r.finish()?;
        Ok(out)
    }
}

fn checked_cells(n: usize) -> Result<usize, WireError> {
    if n > MAX_PROBLEM_SIDE {
        return Err(WireError::Malformed("result side over MAX_PROBLEM_SIDE"));
    }
    Ok(n * n.saturating_sub(1) / 2)
}

/// One response frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// Outcome class.
    pub status: Status,
    /// Whether the body came from the solve cache (diagnostic only — a
    /// cached body is bit-identical to a recomputed one).
    pub cached: bool,
    /// `Status::Ok`: the encoded [`SolveOutput`] body. Otherwise an UTF-8
    /// error message.
    pub body: Vec<u8>,
}

/// Bytes of a response payload ahead of its body.
const RESPONSE_HEADER: usize = 11;

impl Response {
    /// The payload's fixed header: version, id, status, cached flag.
    fn header(id: u64, status: Status, cached: bool) -> [u8; RESPONSE_HEADER] {
        let mut head = [0u8; RESPONSE_HEADER];
        head[0] = VERSION;
        head[1..9].copy_from_slice(&id.to_le_bytes());
        head[9] = status as u8;
        head[10] = cached as u8;
        head
    }

    /// Assemble the frame payload from the (possibly cached) body.
    pub fn encode_parts(id: u64, status: Status, cached: bool, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() + RESPONSE_HEADER);
        out.extend_from_slice(&Self::header(id, status, cached));
        out.extend_from_slice(body);
        out
    }

    /// Write one response frame straight from the (possibly cached) body:
    /// the same bytes as `write_frame(w, &Response::encode_parts(..))`,
    /// without copying the body into a payload buffer first. Length
    /// prefix, header and body go out in one vectored write (looping only
    /// on a short write), so a `TCP_NODELAY` socket sends the frame as one
    /// burst rather than a header segment the body must wait behind.
    pub(crate) fn write_parts(
        w: &mut impl Write,
        id: u64,
        status: Status,
        cached: bool,
        body: &[u8],
    ) -> io::Result<()> {
        let len = body.len() + RESPONSE_HEADER;
        assert!(len <= MAX_FRAME, "frame over MAX_FRAME");
        let mut prefix = [0u8; 4 + RESPONSE_HEADER];
        prefix[..4].copy_from_slice(&(len as u32).to_le_bytes());
        prefix[4..].copy_from_slice(&Self::header(id, status, cached));
        let mut parts = [IoSlice::new(&prefix), IoSlice::new(body)];
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match w.write_vectored(parts) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Cursor(payload);
        if r.u8()? != VERSION {
            return Err(WireError::Malformed("unsupported protocol version"));
        }
        let id = r.u64()?;
        let status = Status::from_u8(r.u8()?)?;
        let cached = r.u8()? != 0;
        let body = r.rest().to_vec();
        Ok(Response {
            id,
            status,
            cached,
            body,
        })
    }

    /// Decode the body as a [`SolveOutput`] (only meaningful on
    /// [`Status::Ok`]).
    pub fn output(&self) -> Result<SolveOutput, WireError> {
        SolveOutput::decode_body(&self.body)
    }

    /// The error message of a non-`Ok` response.
    pub fn message(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Wire-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload did not parse.
    Malformed(&'static str),
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Oversized(len) => write!(f, "frame of {len} bytes over MAX_FRAME"),
        }
    }
}

impl std::error::Error for WireError {}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "frame over MAX_FRAME");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary; an EOF mid-frame is an `UnexpectedEof` error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // A clean close between frames shows up as EOF on the first byte.
    match r.read(&mut len[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len[1..])?,
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Little-endian scanning cursor over a payload (shared with the stats
/// body codec in [`crate::stats`]).
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::Malformed("payload truncated"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    pub(crate) fn finish(&mut self) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(&decoded, req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request {
            id: 7,
            deadline_ms: 1500,
            tenant: "acme".into(),
            workload: Workload::ClosureSynthetic { n: 64, seed: 42 },
        });
        round_trip_request(&Request {
            id: u64::MAX,
            deadline_ms: u32::MAX,
            tenant: String::new(),
            workload: Workload::ParenthesizeSynthetic {
                matrices: 12,
                seed: 3,
            },
        });
        round_trip_request(&Request {
            id: 0,
            deadline_ms: 0,
            tenant: "t".repeat(MAX_TENANT),
            workload: Workload::FoldSynthetic { bases: 30, seed: 9 },
        });
        round_trip_request(&Request {
            id: 5,
            deadline_ms: 1,
            tenant: "inline".into(),
            workload: Workload::ClosureInline {
                seeds: TriangularMatrix::from_fn(9, |i, j| (i * 10 + j) as f32),
            },
        });
        // v4 on-engine workloads.
        round_trip_request(&Request {
            id: 11,
            deadline_ms: 0,
            tenant: "bst".into(),
            workload: Workload::BstSynthetic { keys: 40, seed: 6 },
        });
        round_trip_request(&Request {
            id: 12,
            deadline_ms: 100,
            tenant: "cyk".into(),
            workload: Workload::CykSynthetic {
                tokens: 24,
                seed: 13,
            },
        });
        round_trip_request(&Request {
            id: 13,
            deadline_ms: 0,
            tenant: "zuker".into(),
            workload: Workload::ZukerSynthetic { bases: 28, seed: 2 },
        });
    }

    /// Satellite: distinct workload kinds with *identical* parameter bytes
    /// must never share canonical (cache-key) bytes — the kind tag leads
    /// the encoding, so a BST over seed 7 can never alias a fold over
    /// seed 7.
    #[test]
    fn canonical_bytes_separate_kinds_with_identical_seed_bytes() {
        let same_tail: [Workload; 5] = [
            Workload::ClosureSynthetic { n: 32, seed: 7 },
            Workload::FoldSynthetic { bases: 32, seed: 7 },
            Workload::BstSynthetic { keys: 32, seed: 7 },
            Workload::CykSynthetic {
                tokens: 32,
                seed: 7,
            },
            Workload::ZukerSynthetic { bases: 32, seed: 7 },
        ];
        for (i, a) in same_tail.iter().enumerate() {
            // Identical parameter bytes after the tag…
            assert_eq!(
                a.canonical_bytes()[1..],
                same_tail[0].canonical_bytes()[1..]
            );
            for b in same_tail.iter().skip(i + 1) {
                // …but distinct canonical bytes overall.
                assert_ne!(
                    a.canonical_bytes(),
                    b.canonical_bytes(),
                    "{} vs {}",
                    a.kind_name(),
                    b.kind_name()
                );
            }
        }
    }

    #[test]
    fn outputs_round_trip_bit_exactly() {
        let f = SolveOutput::F32Table(TriangularMatrix::from_fn(6, |i, j| {
            // Include non-trivial bit patterns (negative zero, infinity).
            if (i, j) == (0, 1) {
                -0.0
            } else if (i, j) == (0, 2) {
                f32::INFINITY
            } else {
                (i as f32) / (j as f32)
            }
        }));
        let body = f.encode_body();
        let back = SolveOutput::decode_body(&body).unwrap();
        // PartialEq on f32 treats -0.0 == 0.0; compare the re-encoded bits
        // for true bit-identity.
        assert_eq!(back.encode_body(), body);

        let i = SolveOutput::I64Table(TriangularMatrix::from_fn(5, |i, j| (i as i64) - (j as i64)));
        assert_eq!(SolveOutput::decode_body(&i.encode_body()).unwrap(), i);

        let z = SolveOutput::Fold {
            energy: -17,
            w: TriangularMatrix::from_fn(4, |i, j| (i as i32) * 7 - (j as i32)),
        };
        assert_eq!(SolveOutput::decode_body(&z.encode_body()).unwrap(), z);
    }

    #[test]
    fn responses_round_trip() {
        let body = SolveOutput::I64Table(TriangularMatrix::from_fn(3, |_, _| 5i64)).encode_body();
        let payload = Response::encode_parts(99, Status::Ok, true, &body);
        let resp = Response::decode(&payload).unwrap();
        assert_eq!(resp.id, 99);
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.cached);
        assert_eq!(resp.body, body);

        let payload = Response::encode_parts(3, Status::Overloaded, false, b"queue full");
        let resp = Response::decode(&payload).unwrap();
        assert_eq!(resp.status, Status::Overloaded);
        assert_eq!(resp.message(), "queue full");

        let payload =
            Response::encode_parts(4, Status::DeadlineExceeded, false, b"deadline exceeded");
        let resp = Response::decode(&payload).unwrap();
        assert_eq!(resp.status, Status::DeadlineExceeded);
        assert_eq!(resp.message(), "deadline exceeded");
        // Writing straight from the body puts the same frame on the wire.
        let mut direct = Vec::new();
        Response::write_parts(&mut direct, 99, Status::Ok, true, &body).unwrap();
        let mut framed = Vec::new();
        write_frame(
            &mut framed,
            &Response::encode_parts(99, Status::Ok, true, &body),
        )
        .unwrap();
        assert_eq!(direct, framed);
        // Unknown status bytes are typed wire errors, not panics.
        let mut bad = Response::encode_parts(5, Status::Ok, false, b"");
        bad[9] = 250;
        assert!(Response::decode(&bad).is_err());
    }

    /// A writer that takes at most `cap` bytes per call and counts calls.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut left = self.cap;
            for b in bufs {
                let n = b.len().min(left);
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.cap - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_frames_go_out_in_one_write_and_survive_short_ones() {
        for body in [&b""[..], b"x", &[7u8; 100][..]] {
            let mut framed = Vec::new();
            write_frame(
                &mut framed,
                &Response::encode_parts(5, Status::Ok, false, body),
            )
            .unwrap();
            // A writer that takes everything sees the frame in one call.
            let mut whole = Trickle {
                out: Vec::new(),
                cap: usize::MAX,
                calls: 0,
            };
            Response::write_parts(&mut whole, 5, Status::Ok, false, body).unwrap();
            assert_eq!((whole.out.as_slice(), whole.calls), (framed.as_slice(), 1));
            // Short writes resume mid-slice until every byte is out.
            let mut short = Trickle {
                out: Vec::new(),
                cap: 3,
                calls: 0,
            };
            Response::write_parts(&mut short, 5, Status::Ok, false, body).unwrap();
            assert_eq!(short.out, framed);
            assert_eq!(short.calls, framed.len().div_ceil(3));
        }
    }

    #[test]
    fn stats_frames_round_trip_and_dispatch() {
        let payload = StatsRequest { id: 77 }.encode();
        assert_eq!(
            RequestFrame::decode(&payload).unwrap(),
            RequestFrame::Stats(StatsRequest { id: 77 })
        );
        // A stats frame is not a solve frame.
        assert!(Request::decode(&payload).is_err());
        // Solve frames dispatch through the same entry point.
        let req = Request {
            id: 8,
            deadline_ms: 250,
            tenant: "t".into(),
            workload: Workload::ClosureSynthetic { n: 4, seed: 0 },
        };
        assert_eq!(
            RequestFrame::decode(&req.encode()).unwrap(),
            RequestFrame::Solve(req)
        );
        // Unknown kinds and trailing bytes are refused.
        let mut bad = StatsRequest { id: 1 }.encode();
        bad[1] = 9;
        assert!(RequestFrame::decode(&bad).is_err());
        let mut trailing = StatsRequest { id: 1 }.encode();
        trailing.push(0);
        assert!(RequestFrame::decode(&trailing).is_err());
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[VERSION + 1, 0, 0]).is_err());
        // Workload tag 9 does not exist.
        let mut p = Request {
            id: 1,
            deadline_ms: 0,
            tenant: String::new(),
            workload: Workload::ClosureSynthetic { n: 4, seed: 0 },
        }
        .encode();
        let tag_at = p.len() - 13; // tag + u32 n + u64 seed
        p[tag_at] = 9;
        assert!(Request::decode(&p).is_err());
        // Oversized problem sides are refused at decode time.
        let big = Request {
            id: 1,
            deadline_ms: 0,
            tenant: String::new(),
            workload: Workload::ClosureSynthetic {
                n: MAX_PROBLEM_SIDE as u32 + 1,
                seed: 0,
            },
        }
        .encode();
        assert!(Request::decode(&big).is_err());
        // Trailing garbage is refused.
        let mut ok = Request {
            id: 1,
            deadline_ms: 0,
            tenant: String::new(),
            workload: Workload::ClosureSynthetic { n: 4, seed: 0 },
        }
        .encode();
        ok.push(0);
        assert!(Request::decode(&ok).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);
        // A hostile length prefix is refused before allocation.
        let mut bad = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0; 8]);
        assert!(read_frame(&mut &bad[..]).is_err());
        // EOF mid-frame is an error, not a clean end.
        let partial = 10u32.to_le_bytes().to_vec();
        assert!(read_frame(&mut &partial[..]).is_err());
    }

    #[test]
    fn workload_sides_and_cells() {
        assert_eq!(Workload::ClosureSynthetic { n: 64, seed: 0 }.side(), 64);
        assert_eq!(
            Workload::ParenthesizeSynthetic {
                matrices: 10,
                seed: 0
            }
            .side(),
            11
        );
        assert_eq!(Workload::FoldSynthetic { bases: 20, seed: 0 }.side(), 21);
        assert_eq!(Workload::BstSynthetic { keys: 20, seed: 0 }.side(), 21);
        assert_eq!(
            Workload::CykSynthetic {
                tokens: 20,
                seed: 0
            }
            .side(),
            21
        );
        assert_eq!(Workload::ZukerSynthetic { bases: 20, seed: 0 }.side(), 21);
        assert_eq!(
            Workload::ClosureSynthetic { n: 64, seed: 0 }.cells(),
            64 * 63 / 2
        );
    }
}
