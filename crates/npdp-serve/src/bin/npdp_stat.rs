//! `npdp-stat` — poll a running solve server's `Stats` admin frame and
//! render live telemetry: request/response rates as deltas per second,
//! queue depths, the solve cache's resident bytes and oversize refusals,
//! per-tenant charge, and *interval* phase percentiles
//! (consecutive snapshots subtracted bucket-wise, so the numbers describe
//! the last polling window, not the server's whole lifetime).
//!
//! ```text
//! npdp-stat <addr> [--interval-ms N] [--count N] [--json PATH] [--retry-ms N]
//! ```
//!
//! * `--interval-ms` — polling period (default 1000).
//! * `--count` — number of polls before exiting (default: until killed).
//! * `--json` — write the final snapshot as a `cellnpdp-serve-stats-v1`
//!   JSON document to this path on exit.
//! * `--retry-ms` — keep retrying the initial connect for this long
//!   (default 0: fail immediately), so the tool can be started alongside
//!   the server it monitors.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use npdp_serve::client::Client;
use npdp_serve::load::LatencySummary;
use npdp_serve::stats::StatsSnapshot;

struct Args {
    addr: SocketAddr,
    interval: Duration,
    count: Option<u64>,
    json: Option<String>,
    retry: Duration,
}

fn usage() -> ! {
    eprintln!("usage: npdp-stat <addr> [--interval-ms N] [--count N] [--json PATH] [--retry-ms N]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut addr = None;
    let mut interval = Duration::from_millis(1000);
    let mut count = None;
    let mut json = None;
    let mut retry = Duration::ZERO;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => {
                let v = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                interval = Duration::from_millis(v);
            }
            "--count" => {
                count = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--json" => json = Some(it.next().unwrap_or_else(|| usage())),
            "--retry-ms" => {
                let v: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                retry = Duration::from_millis(v);
            }
            "--help" | "-h" => usage(),
            other if addr.is_none() => match other.parse() {
                Ok(a) => addr = Some(a),
                Err(_) => {
                    eprintln!("npdp-stat: bad address {other:?}");
                    usage();
                }
            },
            _ => usage(),
        }
    }
    Args {
        addr: addr.unwrap_or_else(|| usage()),
        interval,
        count,
        json,
        retry,
    }
}

fn connect(addr: SocketAddr, retry: Duration) -> std::io::Result<Client> {
    let deadline = Instant::now() + retry;
    loop {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Counters worth a rate line (in display order).
const RATE_KEYS: &[&str] = &[
    "serve.requests",
    "serve.responses_ok",
    "serve.responses_failed",
    "serve.rejected",
    "serve.cache_hits",
    "serve.batches",
    "serve.large_solves",
];

/// Base phases worth an interval percentile line.
const PHASE_KEYS: &[&str] = &[
    "serve.phase.admission",
    "serve.phase.queue_wait",
    "serve.phase.batch_linger",
    "serve.phase.epoch_solve",
    "serve.phase.large_solve",
    "serve.phase.respond",
    "serve.phase.total",
];

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn render(snap: &StatsSnapshot, prev: Option<&StatsSnapshot>) {
    let window_ns = match prev {
        Some(p) => snap.uptime_ns.saturating_sub(p.uptime_ns),
        None => snap.uptime_ns,
    };
    let secs = (window_ns as f64 / 1e9).max(1e-9);
    println!(
        "-- up {} | window {} | queue small={} large={}",
        fmt_ns(snap.uptime_ns),
        fmt_ns(window_ns),
        snap.queue_small,
        snap.queue_large,
    );
    let mut rates = Vec::new();
    for key in RATE_KEYS {
        let delta = snap.counter(key) - prev.map_or(0, |p| p.counter(key));
        if delta > 0 {
            let short = key.strip_prefix("serve.").unwrap_or(key);
            rates.push(format!("{short}={delta} ({:.0}/s)", delta as f64 / secs));
        }
    }
    if !rates.is_empty() {
        println!("   {}", rates.join("  "));
    }
    // The cache's resident bytes are a level, its oversize refusals a
    // lifetime count.
    println!(
        "   cache bytes={}  oversize={}",
        snap.counter("serve.cache.bytes"),
        snap.counter("serve.cache.oversize"),
    );
    if !snap.tenants.is_empty() {
        let charges: Vec<String> = snap
            .tenants
            .iter()
            .map(|(name, cells)| format!("{name}={cells}"))
            .collect();
        println!("   charged cells: {}", charges.join("  "));
    }
    for key in PHASE_KEYS {
        let Some(hist) = snap.phase(key) else {
            continue;
        };
        // Interval view: subtract the previous poll's buckets.
        let window = match prev.and_then(|p| p.phase(key)) {
            Some(old) => hist.delta_since(old),
            None => hist.clone(),
        };
        if window.count == 0 {
            continue;
        }
        let s = LatencySummary::from_snapshot(&window);
        println!(
            "   {:<28} n={:<6} p50={:<9} p90={:<9} p99={:<9} p999={:<9} max={}",
            key.strip_prefix("serve.phase.").unwrap_or(key),
            s.count,
            fmt_ns(s.p50_ns),
            fmt_ns(s.p90_ns),
            fmt_ns(s.p99_ns),
            fmt_ns(s.p999_ns),
            fmt_ns(s.max_ns),
        );
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut client = match connect(args.addr, args.retry) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("npdp-stat: cannot connect to {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let mut prev: Option<StatsSnapshot> = None;
    let mut polls = 0u64;
    let last = loop {
        let snap = match client.stats() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("npdp-stat: stats poll failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        render(&snap, prev.as_ref());
        polls += 1;
        if args.count.is_some_and(|c| polls >= c) {
            break snap;
        }
        prev = Some(snap);
        std::thread::sleep(args.interval);
    };
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{}\n", last.to_json().to_json_pretty())) {
            eprintln!("npdp-stat: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
