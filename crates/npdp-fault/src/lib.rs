//! Deterministic, seed-driven fault injection for the CellNPDP pipeline.
//!
//! The paper's execution model (§V) assumes every DMA get/put, mailbox word
//! and SPE completes perfectly. This crate supplies the adversary: a
//! [`FaultInjector`] that components consult at well-defined *sites* (a DMA
//! transfer, a mailbox write, a task dispatch) to decide whether to inject a
//! failure there. Two properties make it usable in tests and benchmarks:
//!
//! 1. **Zero-cost disabled mode.** Like `npdp_metrics::Metrics` and
//!    `npdp_trace::Tracer`, the injector is an `Option<Arc<..>>` handle;
//!    [`FaultInjector::noop`] costs one untaken branch per site, so the
//!    fault-aware code paths can run unconditionally in production.
//!
//! 2. **Deterministic, order-independent decisions.** Every decision is a
//!    pure function `hash(seed, kind, site) < rate` — no shared RNG stream —
//!    so the *same* faults fire at the *same* sites regardless of thread
//!    interleaving. The same plan seed therefore reproduces the same fault
//!    schedule exactly (deterministic replay), even under the work-stealing
//!    executor.
//!
//! Recovery bookkeeping lives here too: the injector counts both what it
//! injected and what the recovery machinery did about it
//! ([`FaultInjector::record_into`] emits `fault.injected`, `dma.retries`,
//! `mailbox.resends`, `queue.task_panics`, `spe.rebalanced_blocks`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use npdp_metrics::Metrics;

/// The kinds of fault the injector can fire. Each kind has an independent
/// rate in the [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultKind {
    /// A DMA transfer delivers nothing (the destination keeps stale bytes).
    DmaFail = 0,
    /// A DMA transfer completes late (costs extra cycles / a backoff).
    DmaDelay = 1,
    /// A DMA transfer delivers corrupted bytes (caught by the checksum).
    DmaCorrupt = 2,
    /// A mailbox word is accepted but never delivered.
    MailboxDrop = 3,
    /// A mailbox write finds the queue refusing service this round.
    MailboxStall = 4,
    /// An SPE dies mid-task and never comes back.
    SpeCrash = 5,
    /// An SPE makes no progress for one scheduling round.
    SpeStall = 6,
    /// A worker's task closure panics.
    TaskPanic = 7,
    /// A network write delivers only a prefix of the frame, then the
    /// connection breaks (a torn frame on the wire).
    NetTornFrame = 8,
    /// A network write completes after a deterministic delay.
    NetDelayWrite = 9,
    /// A connection drops outright (reset) at an I/O boundary.
    NetDropConn = 10,
    /// A network read stalls for a bounded, deterministic interval before
    /// delivering bytes (a slow or wedged peer).
    NetStallRead = 11,
    /// A server dispatcher (the small-request epoch worker or a large lane)
    /// is held for a bounded interval before it hands work to a solver —
    /// a descheduled or wedged dispatch thread. Scripted by tests that need
    /// work to sit queued or in flight for a known time; not part of
    /// [`FaultPlan::default_rates`].
    DispatchStall = 12,
}

/// Number of [`FaultKind`] variants (rate/counter array size).
pub const FAULT_KINDS: usize = 13;

/// All kinds, in discriminant order.
pub const ALL_FAULT_KINDS: [FaultKind; FAULT_KINDS] = [
    FaultKind::DmaFail,
    FaultKind::DmaDelay,
    FaultKind::DmaCorrupt,
    FaultKind::MailboxDrop,
    FaultKind::MailboxStall,
    FaultKind::SpeCrash,
    FaultKind::SpeStall,
    FaultKind::TaskPanic,
    FaultKind::NetTornFrame,
    FaultKind::NetDelayWrite,
    FaultKind::NetDropConn,
    FaultKind::NetStallRead,
    FaultKind::DispatchStall,
];

/// The network-fault family ([`FaultKind::NetTornFrame`] …
/// [`FaultKind::NetStallRead`]) — what a fault-injecting stream wrapper
/// consults (see `npdp_serve::net::ChaosStream`).
pub const NET_FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::NetTornFrame,
    FaultKind::NetDelayWrite,
    FaultKind::NetDropConn,
    FaultKind::NetStallRead,
];

impl FaultKind {
    /// Stable short name, used in metric keys and trace labels.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DmaFail => "dma_fail",
            FaultKind::DmaDelay => "dma_delay",
            FaultKind::DmaCorrupt => "dma_corrupt",
            FaultKind::MailboxDrop => "mailbox_drop",
            FaultKind::MailboxStall => "mailbox_stall",
            FaultKind::SpeCrash => "spe_crash",
            FaultKind::SpeStall => "spe_stall",
            FaultKind::TaskPanic => "task_panic",
            FaultKind::NetTornFrame => "net_torn_frame",
            FaultKind::NetDelayWrite => "net_delay_write",
            FaultKind::NetDropConn => "net_drop_conn",
            FaultKind::NetStallRead => "net_stall_read",
            FaultKind::DispatchStall => "dispatch_stall",
        }
    }

    /// Stable numeric code (for trace instants).
    pub fn code(self) -> u32 {
        self as u32
    }
}

/// A seeded fault schedule: per-kind injection rates plus the seed that
/// makes every site decision reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; FAULT_KINDS],
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            rates: [0.0; FAULT_KINDS],
        }
    }

    /// Set the injection probability of one kind (clamped to `[0, 1]`).
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind as usize] = rate.clamp(0.0, 1.0);
        self
    }

    /// Set the same injection probability for every kind.
    pub fn with_uniform_rate(mut self, rate: f64) -> Self {
        self.rates = [rate.clamp(0.0, 1.0); FAULT_KINDS];
        self
    }

    /// The default chaos mix: every transient kind at `rate`, the permanent
    /// kinds (SPE crash) at a tenth of it so small topologies usually keep a
    /// survivor, and no [`FaultKind::DispatchStall`] (a whole-dispatcher
    /// hold is a scripted test condition, not background noise). This is
    /// the schedule `--faults <seed>` uses.
    pub fn default_rates(seed: u64, rate: f64) -> Self {
        let mut p = Self::seeded(seed).with_uniform_rate(rate);
        p.rates[FaultKind::SpeCrash as usize] = (rate * 0.1).clamp(0.0, 1.0);
        p.rates[FaultKind::DispatchStall as usize] = 0.0;
        p
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injection probability of one kind.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind as usize]
    }
}

/// SplitMix64 finalizer — the same mixer the proptest shim uses, chosen for
/// full avalanche so neighbouring sites decorrelate.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combine site coordinates into one site id (order-sensitive mix).
#[inline]
pub fn site2(a: u64, b: u64) -> u64 {
    mix64(mix64(a) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Combine three site coordinates into one site id.
#[inline]
pub fn site3(a: u64, b: u64, c: u64) -> u64 {
    site2(site2(a, b), c)
}

struct Inner {
    plan: FaultPlan,
    injected: [AtomicU64; FAULT_KINDS],
    dma_retries: AtomicU64,
    mailbox_resends: AtomicU64,
    task_panics: AtomicU64,
    rebalanced_blocks: AtomicU64,
}

/// Cheap cloneable handle deciding, per site, whether to inject a fault.
///
/// Disabled handles ([`FaultInjector::noop`]) answer every query with "no
/// fault" at one-untaken-branch cost and ignore recovery bookkeeping.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "FaultInjector::noop"),
            Some(i) => f
                .debug_struct("FaultInjector")
                .field("seed", &i.plan.seed)
                .finish_non_exhaustive(),
        }
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::noop()
    }
}

impl FaultInjector {
    /// The disabled injector: never fires, never counts.
    pub fn noop() -> Self {
        Self { inner: None }
    }

    /// An injector executing the given plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                plan,
                injected: std::array::from_fn(|_| AtomicU64::new(0)),
                dma_retries: AtomicU64::new(0),
                mailbox_resends: AtomicU64::new(0),
                task_panics: AtomicU64::new(0),
                rebalanced_blocks: AtomicU64::new(0),
            })),
        }
    }

    /// Whether faults can fire at all (site code may skip setup work).
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The plan, if enabled.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.inner.as_ref().map(|i| i.plan)
    }

    /// Decide whether `kind` fires at `site`, counting the injection when it
    /// does. Pure in `(seed, kind, site)` — the same site always gets the
    /// same answer, independent of call order or thread.
    #[inline]
    pub fn should_inject(&self, kind: FaultKind, site: u64) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let rate = inner.plan.rates[kind as usize];
        if rate <= 0.0 {
            return false;
        }
        let h = mix64(inner.plan.seed ^ mix64(site ^ ((kind as u64) << 56)));
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < rate {
            inner.injected[kind as usize].fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Deterministic payload bits for a fired fault (e.g. which word of a
    /// corrupted transfer to flip). Pure in `(seed, kind, site)`.
    #[inline]
    pub fn payload(&self, kind: FaultKind, site: u64) -> u64 {
        let seed = self.inner.as_ref().map(|i| i.plan.seed).unwrap_or(0);
        mix64(seed ^ mix64(site ^ ((kind as u64) << 56)) ^ 0xA5A5_A5A5_A5A5_A5A5)
    }

    /// Record one DMA retry performed by the recovery machinery.
    #[inline]
    pub fn count_dma_retry(&self) {
        if let Some(i) = &self.inner {
            i.dma_retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one mailbox resend triggered by the watchdog.
    #[inline]
    pub fn count_mailbox_resend(&self) {
        if let Some(i) = &self.inner {
            i.mailbox_resends.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one caught task panic (injected or real).
    #[inline]
    pub fn count_task_panic(&self) {
        if let Some(i) = &self.inner {
            i.task_panics.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record memory blocks redistributed away from a dead SPE.
    #[inline]
    pub fn count_rebalanced_blocks(&self, blocks: u64) {
        if let Some(i) = &self.inner {
            i.rebalanced_blocks.fetch_add(blocks, Ordering::Relaxed);
        }
    }

    /// Total faults injected so far, across kinds.
    pub fn injected_total(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum())
            .unwrap_or(0)
    }

    /// Faults injected so far of one kind.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.injected[kind as usize].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Snapshot of every counter this injector maintains, keyed like
    /// [`FaultInjector::record_into`] emits them. Stable ordering — two runs
    /// with the same seed produce equal snapshots (deterministic replay).
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let Some(i) = &self.inner else {
            return Vec::new();
        };
        let mut out = vec![("fault.injected".to_string(), self.injected_total())];
        for kind in ALL_FAULT_KINDS {
            out.push((
                format!("fault.injected.{}", kind.name()),
                self.injected(kind),
            ));
        }
        out.push((
            "dma.retries".to_string(),
            i.dma_retries.load(Ordering::Relaxed),
        ));
        out.push((
            "mailbox.resends".to_string(),
            i.mailbox_resends.load(Ordering::Relaxed),
        ));
        out.push((
            "queue.task_panics".to_string(),
            i.task_panics.load(Ordering::Relaxed),
        ));
        out.push((
            "spe.rebalanced_blocks".to_string(),
            i.rebalanced_blocks.load(Ordering::Relaxed),
        ));
        out
    }

    /// Emit every fault and recovery counter into a metrics handle
    /// (`fault.injected`, `fault.injected.<kind>`, `dma.retries`,
    /// `mailbox.resends`, `queue.task_panics`, `spe.rebalanced_blocks`).
    pub fn record_into(&self, metrics: &Metrics) {
        for (key, value) in self.snapshot() {
            metrics.add(&key, value);
        }
    }
}

/// Bounded retry-with-backoff policy shared by the recovery paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation, the first included. At least 1.
    pub max_attempts: u32,
    /// Backoff cost of the first retry, in the caller's unit (cycles for
    /// the simulator, spin rounds for the host executors).
    pub base_backoff: u64,
}

impl RetryPolicy {
    /// The default budget: 4 attempts, 64-unit base backoff.
    pub const DEFAULT: Self = Self {
        max_attempts: 4,
        base_backoff: 64,
    };

    /// Backoff before retry number `retry` (1-based), doubling per retry
    /// and saturating at `u64::MAX`. The doubling itself is exact up to the
    /// shift width: retry counts whose factor no longer fits a `u64`
    /// (`retry > 64`) saturate instead of wrapping or silently capping the
    /// exponent.
    pub fn backoff(&self, retry: u32) -> u64 {
        match 1u64.checked_shl(retry.saturating_sub(1)) {
            Some(factor) => self.base_backoff.saturating_mul(factor),
            // 2^(retry-1) exceeds u64: the backoff is saturated (unless the
            // base is zero, in which case it stays zero).
            None => {
                if self.base_backoff == 0 {
                    0
                } else {
                    u64::MAX
                }
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_never_fires_and_counts_nothing() {
        let f = FaultInjector::noop();
        assert!(!f.enabled());
        for kind in ALL_FAULT_KINDS {
            for site in 0..1000 {
                assert!(!f.should_inject(kind, site));
            }
        }
        f.count_dma_retry();
        f.count_rebalanced_blocks(5);
        assert_eq!(f.injected_total(), 0);
        assert!(f.snapshot().is_empty());
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plan = FaultPlan::seeded(42).with_uniform_rate(0.3);
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        let mut fired_a = Vec::new();
        for site in 0..500 {
            fired_a.push(a.should_inject(FaultKind::DmaCorrupt, site));
        }
        // Query b in reverse order: same answers per site.
        for site in (0..500).rev() {
            assert_eq!(
                b.should_inject(FaultKind::DmaCorrupt, site),
                fired_a[site as usize]
            );
        }
        assert_eq!(
            a.injected(FaultKind::DmaCorrupt),
            b.injected(FaultKind::DmaCorrupt)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(FaultPlan::seeded(1).with_uniform_rate(0.5));
        let b = FaultInjector::new(FaultPlan::seeded(2).with_uniform_rate(0.5));
        let fired: Vec<bool> = (0..256)
            .map(|s| a.should_inject(FaultKind::TaskPanic, s))
            .collect();
        let fired_b: Vec<bool> = (0..256)
            .map(|s| b.should_inject(FaultKind::TaskPanic, s))
            .collect();
        assert_ne!(fired, fired_b);
    }

    #[test]
    fn rate_extremes() {
        let never = FaultInjector::new(FaultPlan::seeded(7));
        let always = FaultInjector::new(FaultPlan::seeded(7).with_uniform_rate(1.0));
        for site in 0..200 {
            assert!(!never.should_inject(FaultKind::DmaFail, site));
            assert!(always.should_inject(FaultKind::DmaFail, site));
        }
        assert_eq!(always.injected(FaultKind::DmaFail), 200);
    }

    #[test]
    fn empirical_rate_tracks_plan_rate() {
        let f = FaultInjector::new(FaultPlan::seeded(99).with_rate(FaultKind::MailboxDrop, 0.25));
        let n = 20_000u64;
        let fired = (0..n)
            .filter(|&s| f.should_inject(FaultKind::MailboxDrop, s))
            .count() as f64;
        let rate = fired / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn kinds_are_independent_streams() {
        let f = FaultInjector::new(FaultPlan::seeded(5).with_uniform_rate(0.5));
        let a: Vec<bool> = (0..256)
            .map(|s| f.should_inject(FaultKind::DmaFail, s))
            .collect();
        let b: Vec<bool> = (0..256)
            .map(|s| f.should_inject(FaultKind::SpeCrash, s))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn snapshot_and_record_into_agree() {
        let f = FaultInjector::new(FaultPlan::seeded(11).with_uniform_rate(0.4));
        for site in 0..100 {
            f.should_inject(FaultKind::DmaCorrupt, site);
        }
        f.count_dma_retry();
        f.count_dma_retry();
        f.count_rebalanced_blocks(3);
        let (metrics, rec) = Metrics::recording();
        f.record_into(&metrics);
        let snap = rec.snapshot();
        let get = |k: &str| snap.get(k).copied();
        assert_eq!(get("dma.retries"), Some(2));
        assert_eq!(get("spe.rebalanced_blocks"), Some(3));
        assert_eq!(
            get("fault.injected.dma_corrupt"),
            Some(f.injected(FaultKind::DmaCorrupt))
        );
        assert_eq!(get("fault.injected"), Some(f.injected_total()));
    }

    #[test]
    fn payload_is_deterministic() {
        let f = FaultInjector::new(FaultPlan::seeded(3).with_uniform_rate(1.0));
        let g = FaultInjector::new(FaultPlan::seeded(3).with_uniform_rate(1.0));
        for site in 0..64 {
            assert_eq!(
                f.payload(FaultKind::DmaCorrupt, site),
                g.payload(FaultKind::DmaCorrupt, site)
            );
        }
    }

    #[test]
    fn retry_policy_backoff_doubles_and_saturates() {
        let p = RetryPolicy::DEFAULT;
        assert_eq!(p.backoff(1), 64);
        assert_eq!(p.backoff(2), 128);
        assert_eq!(p.backoff(3), 256);
        let big = RetryPolicy {
            max_attempts: 64,
            base_backoff: u64::MAX / 2,
        };
        assert_eq!(big.backoff(40), u64::MAX); // saturated, no overflow
    }

    #[test]
    fn retry_policy_backoff_saturates_at_extreme_retry_counts() {
        // retry = 63 → factor 2^62: representable, but base 64 saturates.
        let p = RetryPolicy::DEFAULT;
        assert_eq!(p.backoff(63), u64::MAX);
        // A base of 1 keeps exact doubling right up to the shift width.
        let unit = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: 1,
        };
        assert_eq!(unit.backoff(63), 1u64 << 62);
        assert_eq!(unit.backoff(64), 1u64 << 63);
        // retry = 65 → factor 2^64: past the shift width; must saturate,
        // never wrap to zero or panic.
        assert_eq!(unit.backoff(65), u64::MAX);
        assert_eq!(unit.backoff(u32::MAX), u64::MAX);
        // A zero base stays zero no matter how many retries.
        let zero = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: 0,
        };
        assert_eq!(zero.backoff(65), 0);
    }

    #[test]
    fn default_rates_damps_crashes() {
        let p = FaultPlan::default_rates(1, 0.2);
        assert_eq!(p.rate(FaultKind::DmaFail), 0.2);
        assert!((p.rate(FaultKind::SpeCrash) - 0.02).abs() < 1e-12);
        assert_eq!(p.rate(FaultKind::DispatchStall), 0.0);
    }

    #[test]
    fn site_mixers_spread() {
        // Neighbouring coordinates must land far apart.
        let a = site2(0, 0);
        let b = site2(0, 1);
        let c = site2(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_ne!(site3(1, 2, 3), site3(3, 2, 1));
    }
}
