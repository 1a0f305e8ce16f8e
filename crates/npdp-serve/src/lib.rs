//! NPDP-as-a-service: a framed-TCP solve server over the CellNPDP engines.
//!
//! The reproduction's engines answer one question per process run; this
//! crate turns them into a long-lived service (ROADMAP item 1). Requests —
//! transitive-closure, matrix-chain parenthesization, or RNA folds —
//! arrive as length-prefixed frames ([`protocol`]), are classified by
//! problem side, and take one of two tiers:
//!
//! * **small** — batched across requests and tenants into shared
//!   [`task_queue::run`] epochs of independent tasks under
//!   `Scheduler::WorkStealing`, so a stream of tiny solves amortizes pool
//!   wakeups;
//! * **large** — one `ParallelEngine::solve_with` per request with
//!   `Tuning::Auto`, letting the §V performance model pick the block side.
//!
//! Identical workloads are memoized by a 128-bit content hash ([`cache`])
//! in a segmented LRU bounded in bytes; cache hits are bit-identical to
//! recomputation because every engine in the workspace is bit-identical
//! by contract and the cache stores the exact bytes a miss produced.
//! Admission control bounds the pending
//! queue, and per-tenant fairness (least DP-cells charged first) keeps a
//! heavy tenant from starving light ones — both observable through the
//! `serve.*` metrics vocabulary on the server's
//! [`ExecContext`](npdp_exec::ExecContext).
//!
//! [`client`] is the blocking counterpart used by tests and by the
//! `repro-serve` load generator (`crates/bench`), whose mixed stream and
//! latency percentiles live in [`load`].
//!
//! Every request is stamped through a lifecycle of [`stats::Phase`]s
//! (admission → cache lookup → queue wait → batch collection, ≈ 0 because
//! an idle batcher drains at once → solve → respond, each member of an
//! epoch answered as its own task finishes), each landing in a streaming
//! histogram under
//! `serve.phase.<name>`. The same collector answers the protocol's `Stats`
//! admin frame ([`protocol::StatsRequest`] → [`stats::StatsSnapshot`]) off
//! the reader threads — never through admission control — which the
//! `npdp-stat` CLI polls to render live rates, queue depths and interval
//! percentiles. With `--trace`, the phases also emit spans on a dedicated
//! serve time domain so Perfetto shows a per-request waterfall alongside
//! the epoch's worker tracks.
//!
//! ```
//! use npdp_serve::client::Client;
//! use npdp_serve::protocol::{Request, SolveOutput, Workload};
//! use npdp_serve::server::{spawn, ServerConfig};
//! use npdp_serve::solve::solve_direct;
//! use npdp_exec::ExecContext;
//!
//! let server = spawn(ServerConfig::default(), None, &ExecContext::disabled()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let req = Request {
//!     id: 1,
//!     deadline_ms: 0,
//!     tenant: "doc".into(),
//!     workload: Workload::ClosureSynthetic { n: 32, seed: 7 },
//! };
//! let resp = client.call(&req).unwrap();
//! // Served bytes equal a direct solve of the same seeds.
//! let direct = solve_direct(&req.workload).unwrap().encode_body();
//! assert_eq!(resp.body, direct);
//! # let _ = SolveOutput::decode_body(&resp.body).unwrap();
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod load;
pub mod net;
pub mod protocol;
pub mod server;
pub mod solve;
pub mod stats;

pub use cache::{workload_key, CacheHit, SolveCache};
pub use client::{CallOpts, Client, ClientError};
pub use load::{synthetic_stream, LatencyRecorder, LatencySummary, MixConfig};
pub use net::ChaosStream;
pub use protocol::{Request, Response, SolveOutput, StatsRequest, Status, Workload};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use solve::{materialize, solve_direct, solve_problem, Problem};
pub use stats::{Phase, StatsSnapshot, Telemetry};
