//! Shared harness utilities for the repro binaries: wall-clock measurement,
//! cubic extrapolation, and consistent table formatting.
//!
//! Every `repro-*` binary regenerates one table or figure of the paper's
//! evaluation section. Absolute numbers come from a different substrate (a
//! simulator and a modern host instead of a 2008 QS20/Nehalem), so each
//! binary prints the paper's values alongside for *shape* comparison — who
//! wins, by roughly what factor, where crossovers fall.

pub mod cli;
pub mod compare;

use std::time::Instant;

use npdp_core::{DpValue, Engine, TriangularMatrix};

pub use cli::{gate_fail, usage_fail, Cli, EXIT_GATE_FAIL, EXIT_OK, EXIT_USAGE};
pub use npdp_exec::ExecContext;
pub use npdp_fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
pub use npdp_metrics::{Metrics, Recorder, Report};
pub use npdp_trace::Tracer;

/// Create the parent directory of an output path (like a well-behaved tool:
/// `--json out/reports/BENCH_x.json` must not fail just because `out/` does
/// not exist yet). Errors are left for the write itself to report.
pub fn ensure_parent_dir(path: &std::path::Path) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
}

/// Snapshot `tracer`, write the Chrome trace to `path` (if given) and print
/// the analysis summary. Exits with an error if the write fails.
pub fn write_trace(tracer: &Tracer, path: Option<&std::path::Path>) {
    let Some(path) = path else { return };
    ensure_parent_dir(path);
    let data = tracer.snapshot();
    match npdp_trace::chrome::write_chrome_trace(&data, path) {
        Ok(()) => println!(
            "\nwrote {} ({} events across {} tracks)",
            path.display(),
            data.event_count(),
            data.tracks.len()
        ),
        Err(e) => {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    match npdp_trace::analysis::analyze(&data) {
        Ok(a) => print!("\n{a}"),
        Err(e) => eprintln!("warning: trace analysis failed: {e}"),
    }
}

/// Parsed `--faults <seed>` / `--fault-rate <r>` flags.
///
/// Binaries that accept them run an extra seeded chaos pass: the same
/// problem solved under a deterministic fault plan must come back
/// **bit-identical** to the fault-free run (or fail with a typed error),
/// and the fault counters land in the JSON report.
#[derive(Debug, Clone, Copy)]
pub struct FaultArgs {
    /// Fault-plan seed (`--faults <seed>`).
    pub seed: u64,
    /// Per-site injection rate (`--fault-rate <r>`, default 0.05).
    pub rate: f64,
}

impl FaultArgs {
    /// Build the injector for this plan: uniform rates across fault kinds
    /// with crashes an order of magnitude rarer (see
    /// [`FaultPlan::default_rates`]).
    pub fn injector(&self) -> FaultInjector {
        FaultInjector::new(FaultPlan::default_rates(self.seed, self.rate))
    }

    /// A retry policy generous enough that sub-0.5 rates recover with
    /// overwhelming probability — chaos runs test recovery, not budgets.
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 16,
            base_backoff: 64,
        }
    }
}

/// Write an injector's counter snapshot (`fault.injected`, `dma.retries`,
/// `mailbox.resends`, `queue.task_panics`, `spe.rebalanced_blocks`, …) into
/// `report` under the canonical keys (overwriting earlier values — pass the
/// injector that accumulated the whole run).
pub fn merge_fault_counters(report: &mut Report, faults: &FaultInjector) {
    for (k, v) in faults.snapshot() {
        report.set_counter(&k, v);
    }
}

/// True when `NPDP_REPRO_SMALL` is set (to anything but `0` or empty): the
/// host-measured repro binaries shrink their problem sizes so the whole
/// suite finishes in CI-smoke time. Simulator-driven binaries ignore it —
/// they sample, and run in milliseconds at paper scale anyway.
pub(crate) fn env_repro_small() -> bool {
    std::env::var("NPDP_REPRO_SMALL").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Write `report` to `path` if the `--json` flag was given, printing a
/// confirmation line. Exits with an error if the write fails.
pub fn write_report(report: &Report, path: Option<&std::path::Path>) {
    let Some(path) = path else { return };
    ensure_parent_dir(path);
    match report.write_to(path) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Wall-clock seconds of `f`, taking the minimum over `reps` runs (the
/// standard noise-robust estimator for sub-second measurements).
pub fn time_min<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Measure one engine on one problem; repetitions adapt to problem size.
pub fn time_engine<T: DpValue>(engine: &dyn Engine<T>, seeds: &TriangularMatrix<T>) -> f64 {
    let reps = if seeds.n() <= 512 { 3 } else { 1 };
    time_min(reps, || engine.solve(seeds))
}

/// A measurement that may be extrapolated from a smaller run via the n³
/// law (NPDP work is `n(n-1)(n-2)/6`).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Seconds at the target size.
    pub seconds: f64,
    /// Whether the value was measured directly (vs extrapolated).
    pub measured: bool,
}

impl Timing {
    /// A direct measurement.
    pub fn measured(seconds: f64) -> Self {
        Self {
            seconds,
            measured: true,
        }
    }

    /// Extrapolate a measurement at `n_from` to `n_to` with the exact
    /// relaxation-count ratio.
    pub fn extrapolated(seconds_at: f64, n_from: u64, n_to: u64) -> Self {
        let w = |n: u64| (n * (n - 1) * (n - 2)) as f64;
        Self {
            seconds: seconds_at * w(n_to) / w(n_from),
            measured: false,
        }
    }

    /// Render with an asterisk marking extrapolations.
    pub fn render(&self) -> String {
        let star = if self.measured { " " } else { "*" };
        if self.seconds >= 100.0 {
            format!("{:.0}{star}", self.seconds)
        } else if self.seconds >= 1.0 {
            format!("{:.2}{star}", self.seconds)
        } else {
            format!("{:.4}{star}", self.seconds)
        }
    }
}

/// Print a standard experiment header.
pub fn header(id: &str, title: &str, paper_note: &str) {
    println!("================================================================");
    println!("{id} — {title}");
    println!("================================================================");
    if !paper_note.is_empty() {
        println!("{paper_note}");
    }
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("host: {host} hardware thread(s) available\n");
}

/// Number of worker threads to use for "all cores" measurements.
pub fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolation_follows_cubic_law() {
        let t = Timing::extrapolated(1.0, 1000, 2000);
        assert!((t.seconds - 8.0).abs() < 0.05);
        assert!(!t.measured);
    }

    #[test]
    fn render_marks_extrapolations() {
        assert!(Timing::measured(1.5).render().ends_with(' '));
        assert!(Timing::extrapolated(1.0, 100, 200).render().ends_with('*'));
    }

    #[test]
    fn time_min_returns_positive() {
        let t = time_min(2, || (0..1000).sum::<u64>());
        assert!(t >= 0.0);
    }
}
