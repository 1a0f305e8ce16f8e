//! The complete Fig. 8 protocol, functionally, on multiple simulated SPEs:
//! the PPE procedure manages the task queue and dependence graph; each SPE
//! procedure fetches ready tasks through its mailbox, computes the
//! scheduling block's memory blocks on its own simulated SPU (real kernel
//! programs, own 256 KB local store), and reports completion through its
//! outbound mailbox.
//!
//! The simulation is single-threaded and deterministic: each outer round
//! the PPE drains completions, notifies successors, assigns ready tasks to
//! idle SPEs, and then every SPE with a pending assignment executes it.
//! Results must be bit-identical to the host engines (integration-tested).

use npdp_core::{BlockedMatrix, SolveError, TriangularMatrix};
use npdp_exec::ExecContext;
use npdp_fault::{site2, site3, FaultKind};
use npdp_trace::{EventKind, TimeDomain, TrackDesc};
use task_queue::scheduling_grid;

use crate::mailbox::{Mailbox, MailboxWrite};
use crate::npdp::SimSpe;

/// Protocol-clock ticks per scheduler round in traced runs. The functional
/// simulation has no cycle model — its clock is the round counter, stretched
/// so each round leaves room for per-block spans inside a task.
pub const ROUND_TICKS: u64 = 10_000;

/// Protocol statistics from a multi-SPE functional run.
#[derive(Debug, Clone)]
pub struct MultiSpeReport {
    /// Tasks executed by each SPE.
    pub tasks_per_spe: Vec<usize>,
    /// Total kernel invocations across all SPEs.
    pub kernel_calls: u64,
    /// Mailbox words PPE → SPEs (task assignments).
    pub assignments: u64,
    /// Mailbox words SPEs → PPE (completions).
    pub completions: u64,
    /// Scheduler rounds until completion.
    pub rounds: u64,
    /// Task assignments re-sent after a watchdog timeout (lost mailbox word
    /// or dead SPE).
    pub resends: u64,
    /// Memory blocks a crashed SPE left unfinished that were recomputed
    /// elsewhere.
    pub rebalanced_blocks: u64,
    /// SPEs lost to injected crashes.
    pub dead_spes: usize,
}

impl MultiSpeReport {
    /// Emit the protocol run into a metrics sink: `spe.tasks_executed`,
    /// `spe.kernel_invocations`, `spe.rounds` and the mailbox traffic
    /// (`mailbox.assignments`, `mailbox.completions`, `mailbox.words`).
    pub fn record_into(&self, metrics: &npdp_metrics::Metrics) {
        metrics.add(
            "spe.tasks_executed",
            self.tasks_per_spe.iter().sum::<usize>() as u64,
        );
        metrics.add("spe.kernel_invocations", self.kernel_calls);
        metrics.add("spe.rounds", self.rounds);
        metrics.add("mailbox.assignments", self.assignments);
        metrics.add("mailbox.completions", self.completions);
        metrics.add("mailbox.words", self.assignments + self.completions);
        if self.resends > 0 {
            metrics.add("mailbox.resends", self.resends);
        }
        if self.rebalanced_blocks > 0 {
            metrics.add("spe.rebalanced_blocks", self.rebalanced_blocks);
        }
    }
}

/// Rounds the PPE waits on an outstanding assignment before assuming the
/// word (or its completion) was lost and re-queueing the task. Recomputation
/// is idempotent, so a duplicate caused by an over-eager timeout is safe.
pub const WATCHDOG_ROUNDS: u64 = 4;

/// Site tag for PPE → SPE assignment words.
const ASSIGN_TAG: u64 = 0xA551;
/// Site tag for SPE → PPE completion words.
const COMPLETE_TAG: u64 = 0xC031;

/// Run CellNPDP functionally on `spes` simulated SPEs with scheduling
/// blocks of `sb × sb` memory blocks.
pub fn functional_cellnpdp_multi_spe(
    seeds: &TriangularMatrix<f32>,
    nb: usize,
    sb: usize,
    spes: usize,
) -> (TriangularMatrix<f32>, MultiSpeReport) {
    functional_cellnpdp_multi_spe_with(seeds, nb, sb, spes, &ExecContext::disabled())
        .expect("fault-free protocol run cannot fail")
}

/// The fault-tolerant Fig. 8 protocol, under the policies of `ctx`
/// (`ctx.tracer` for the [`TimeDomain::Ticks`] timeline — one worker track
/// per SPE with `Task` spans nesting per-block spans, mailbox
/// `MailboxSend`/`MailboxWait` instants on the round clock — and
/// `ctx.faults` / `ctx.retry` for the fault plan).
///
/// Recovery mechanisms, all bit-identical-safe because block recomputation
/// is idempotent (results are written back only at block end, over inputs
/// that never change once final):
///
/// - **Checksummed DMA** — every block transfer is verified on receive and
///   retried with backoff (see `SimSpe::compute_block`).
/// - **Watchdog resend** — an assignment outstanding for
///   [`WATCHDOG_ROUNDS`] without a completion (dropped assignment word,
///   dropped completion word, or dead SPE) is re-queued for any live SPE.
/// - **SPE-loss rebalancing** — a crashed SPE's unfinished blocks are
///   recomputed by the survivors; the solve completes degraded.
/// - **Stall tolerance** — a stalled SPE simply skips rounds (its task waits
///   in the inbox); a stalled outbound mailbox is retried each round.
///
/// Returns the completed table — **bit-identical** to the fault-free run —
/// or a typed error: [`SolveError::NoSurvivingWorkers`] when every SPE died,
/// [`SolveError::TransferFailed`] when a DMA retry budget is exhausted, or
/// [`SolveError::ProtocolStalled`] when the round watchdog gives up (e.g.
/// a 100 % drop rate). Never a hang: every round either makes progress or
/// burns the bounded round budget.
pub fn functional_cellnpdp_multi_spe_with(
    seeds: &TriangularMatrix<f32>,
    nb: usize,
    sb: usize,
    spes: usize,
    ctx: &ExecContext,
) -> Result<(TriangularMatrix<f32>, MultiSpeReport), SolveError> {
    let faults = &ctx.faults;
    let retry = ctx.retry;
    let tracer = &ctx.tracer;
    assert!(
        nb >= 4 && nb.is_multiple_of(4),
        "block side must be a multiple of 4"
    );
    assert!(spes >= 1);
    let mut mem = BlockedMatrix::from_triangular(seeds, nb);
    let mb = mem.blocks_per_side();
    let sched = scheduling_grid(mb, sb);
    let total = sched.graph.len();

    // PPE-side task state (Fig. 8 steps 1–5).
    let mut pending: Vec<u32> = (0..total).map(|t| sched.graph.pred_count(t)).collect();
    let mut ready: std::collections::VecDeque<u32> =
        sched.graph.roots().map(|t| t as u32).collect();

    // SPE-side state.
    let mut spe_units: Vec<SimSpe<f32>> = (0..spes).map(|_| SimSpe::new(nb)).collect();
    let mut inbox: Vec<Mailbox> = (0..spes).map(|_| Mailbox::spu_inbound()).collect();
    let mut outbox: Vec<Mailbox> = (0..spes).map(|_| Mailbox::spu_outbound()).collect();
    let mut tasks_per_spe = vec![0usize; spes];

    // Fault-tolerance state.
    let mut alive = vec![true; spes];
    // Per task: the SPE and round of the outstanding assignment (as the PPE
    // believes it — a dropped word still shows up here until the watchdog).
    let mut inflight: Vec<Option<(usize, u64)>> = vec![None; total];
    let mut done = vec![false; total];
    // Assignment attempts per task, so every (re)send gets a fresh site.
    let mut sends: Vec<u64> = vec![0; total];
    // A completion word the SPE could not deliver (stalled outbox); retried
    // before the SPE takes new work.
    let mut pending_completion: Vec<Option<u32>> = vec![None; spes];
    let mut resends = 0u64;
    let mut rebalanced_blocks = 0u64;
    // Under faults, progress can legitimately take many watchdog cycles; the
    // bound only has to be finite so a hopeless plan (100 % drops) becomes a
    // typed error instead of a hang.
    let round_budget = if faults.enabled() {
        64 * total as u64 + 256
    } else {
        4 * total as u64 + 8
    };

    // Timeline tracks on the round clock: task assignments surface on the
    // receiving SPE's track, completions on the PPE's.
    let spe_tracks: Vec<_> = (0..spes)
        .map(|s| {
            tracer.register(
                TrackDesc::worker(format!("spe {s}"), s as u32).in_domain(TimeDomain::Ticks),
            )
        })
        .collect();
    let ppe_track = tracer.register(TrackDesc::control("ppe").in_domain(TimeDomain::Ticks));
    for (s, ib) in inbox.iter_mut().enumerate() {
        ib.attach_tracer(tracer, spe_tracks[s]);
    }
    for ob in outbox.iter_mut() {
        ob.attach_tracer(tracer, ppe_track);
    }

    let mut completed = 0usize;
    let mut rounds = 0u64;
    while completed < total {
        rounds += 1;
        if rounds > round_budget {
            return Err(SolveError::ProtocolStalled { rounds });
        }
        let now = rounds * ROUND_TICKS;
        for mb in inbox.iter_mut().chain(outbox.iter_mut()) {
            mb.set_now(now);
        }
        // PPE step 4–5: receive finished tasks, notify dependents. A task
        // can complete twice after a watchdog resend raced a slow SPE;
        // dedupe so successors are released exactly once.
        for ob in outbox.iter_mut() {
            while let Some(t) = ob.read() {
                if std::mem::replace(&mut done[t as usize], true) {
                    continue;
                }
                inflight[t as usize] = None;
                completed += 1;
                for &succ in sched.graph.successors(t as usize) {
                    pending[succ as usize] -= 1;
                    if pending[succ as usize] == 0 {
                        ready.push_back(succ);
                    }
                }
            }
        }
        // Watchdog: an assignment outstanding too long — lost word, lost
        // completion, or dead SPE — goes back to the ready queue.
        for (t, slot) in inflight.iter_mut().enumerate() {
            if let Some((s, sent)) = *slot {
                if !done[t] && (!alive[s] || rounds - sent >= WATCHDOG_ROUNDS) {
                    *slot = None;
                    ready.push_back(t as u32);
                    resends += 1;
                    faults.count_mailbox_resend();
                }
            }
        }
        // PPE step 3: assign ready tasks to live SPEs with mailbox room.
        for (s, ib) in inbox.iter_mut().enumerate() {
            if alive[s] && ib.is_empty() && pending_completion[s].is_none() {
                if let Some(t) = ready.pop_front() {
                    let site = site3(ASSIGN_TAG, t as u64, sends[t as usize]);
                    sends[t as usize] += 1;
                    match ib.write_faulted(t, faults, site) {
                        // A drop looks delivered to the writer; the watchdog
                        // sorts it out.
                        MailboxWrite::Delivered | MailboxWrite::Dropped => {
                            inflight[t as usize] = Some((s, rounds));
                        }
                        MailboxWrite::Stalled => ready.push_front(t),
                    }
                }
            }
        }
        // SPE steps 6–13: fetch a task, compute its blocks, report.
        for s in 0..spes {
            if !alive[s] {
                continue;
            }
            // A completion the outbox refused earlier is retried before any
            // new work.
            if let Some(t) = pending_completion[s] {
                let site = site3(COMPLETE_TAG, t as u64, site2(s as u64, rounds));
                match outbox[s].write_faulted(t, faults, site) {
                    MailboxWrite::Delivered | MailboxWrite::Dropped => {
                        pending_completion[s] = None;
                    }
                    MailboxWrite::Stalled => continue,
                }
            }
            // An injected stall: the SPE sits the round out; its assignment
            // stays in the inbox.
            if faults.should_inject(FaultKind::SpeStall, site2(s as u64, rounds)) {
                tracer.instant_at(
                    spe_tracks[s],
                    now,
                    EventKind::Fault {
                        code: FaultKind::SpeStall.code(),
                    },
                );
                continue;
            }
            if let Some(t) = inbox[s].read() {
                if done[t as usize] {
                    // Stale duplicate (watchdog already recovered it).
                    continue;
                }
                let members = &sched.members[t as usize];
                let width = ROUND_TICKS / members.len().max(1) as u64;
                // An injected crash kills the SPE after a deterministic
                // prefix of the task's blocks.
                let crash_site = site2(s as u64, t as u64);
                let crash = faults.should_inject(FaultKind::SpeCrash, crash_site);
                let prefix = if crash {
                    (faults.payload(FaultKind::SpeCrash, crash_site) as usize) % (members.len() + 1)
                } else {
                    members.len()
                };
                tracer.begin_at(spe_tracks[s], now, EventKind::Task { id: t });
                for (k, &(bi, bj)) in members[..prefix].iter().enumerate() {
                    let kind = EventKind::Block {
                        bi: bi as u32,
                        bj: bj as u32,
                    };
                    tracer.begin_at(spe_tracks[s], now + k as u64 * width, kind);
                    let r = spe_units[s].compute_block(&mut mem, bi, bj, faults, retry);
                    tracer.end_at(spe_tracks[s], now + (k as u64 + 1) * width, kind);
                    if let Err(e) = r {
                        tracer.end_at(spe_tracks[s], now + ROUND_TICKS, EventKind::Task { id: t });
                        return Err(e);
                    }
                }
                tracer.end_at(spe_tracks[s], now + ROUND_TICKS, EventKind::Task { id: t });
                if crash {
                    alive[s] = false;
                    let lost = (members.len() - prefix) as u64;
                    rebalanced_blocks += lost;
                    faults.count_rebalanced_blocks(lost);
                    tracer.instant_at(
                        spe_tracks[s],
                        now + ROUND_TICKS,
                        EventKind::Fault {
                            code: FaultKind::SpeCrash.code(),
                        },
                    );
                    // Hand the whole task back; recomputing the finished
                    // prefix is idempotent.
                    inflight[t as usize] = None;
                    ready.push_back(t);
                    resends += 1;
                    if alive.iter().all(|a| !a) {
                        return Err(SolveError::NoSurvivingWorkers);
                    }
                    continue;
                }
                tasks_per_spe[s] += 1;
                let site = site3(COMPLETE_TAG, t as u64, site2(s as u64, rounds));
                match outbox[s].write_faulted(t, faults, site) {
                    MailboxWrite::Delivered | MailboxWrite::Dropped => {}
                    MailboxWrite::Stalled => pending_completion[s] = Some(t),
                }
            }
        }
    }

    let report = MultiSpeReport {
        tasks_per_spe,
        kernel_calls: spe_units.iter().map(|s| s.kernel_calls).sum(),
        assignments: inbox.iter().map(|m| m.messages).sum(),
        completions: outbox.iter().map(|m| m.messages).sum(),
        rounds,
        resends,
        rebalanced_blocks,
        dead_spes: alive.iter().filter(|a| !**a).count(),
    };
    Ok((mem.to_triangular(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use npdp_core::{Engine, SerialEngine};
    use npdp_fault::{FaultInjector, RetryPolicy};
    use npdp_trace::Tracer;

    fn random_seeds(n: usize, seed: u64) -> TriangularMatrix<f32> {
        let mut s = seed;
        TriangularMatrix::from_fn(n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32) / (u32::MAX as f32) * 100.0
        })
    }

    #[test]
    fn multi_spe_matches_host_serial() {
        for (n, nb, sb, spes) in [
            (24usize, 8usize, 1usize, 2usize),
            (40, 8, 2, 4),
            (48, 12, 1, 3),
        ] {
            let seeds = random_seeds(n, (n * nb + sb) as u64);
            let host = SerialEngine.solve(&seeds);
            let (sim, _) = functional_cellnpdp_multi_spe(&seeds, nb, sb, spes);
            assert_eq!(
                host.first_difference(&sim),
                None,
                "n={n} nb={nb} sb={sb} spes={spes}"
            );
        }
    }

    #[test]
    fn protocol_message_accounting() {
        let seeds = random_seeds(40, 3);
        let (_, report) = functional_cellnpdp_multi_spe(&seeds, 8, 1, 4);
        // 40/8 = 5 blocks per side → 15 tasks; one assignment and one
        // completion word each.
        assert_eq!(report.assignments, 15);
        assert_eq!(report.completions, 15);
        assert_eq!(report.tasks_per_spe.iter().sum::<usize>(), 15);
    }

    #[test]
    fn work_spreads_across_spes() {
        let seeds = random_seeds(64, 9);
        let (_, report) = functional_cellnpdp_multi_spe(&seeds, 8, 1, 4);
        // 8×8 triangle = 36 tasks over 4 SPEs: every SPE must get some.
        assert!(report.tasks_per_spe.iter().all(|&t| t > 0), "{report:?}");
    }

    #[test]
    fn single_spe_degenerates_to_sequential() {
        let seeds = random_seeds(32, 5);
        let host = SerialEngine.solve(&seeds);
        let (sim, report) = functional_cellnpdp_multi_spe(&seeds, 8, 2, 1);
        assert_eq!(host.first_difference(&sim), None);
        assert_eq!(report.tasks_per_spe.len(), 1);
    }

    #[test]
    fn traced_protocol_is_bit_identical_and_well_formed() {
        use npdp_trace::analysis::{analyze, pair_spans};
        let seeds = random_seeds(48, 13);
        let (plain, plain_report) = functional_cellnpdp_multi_spe(&seeds, 8, 2, 3);
        let tracer = Tracer::new();
        let (traced, report) = functional_cellnpdp_multi_spe_with(
            &seeds,
            8,
            2,
            3,
            &ExecContext::disabled().with_tracer(&tracer),
        )
        .expect("fault-free protocol run cannot fail");
        assert_eq!(plain.first_difference(&traced), None);
        assert_eq!(plain_report.rounds, report.rounds);

        let data = tracer.snapshot();
        assert_eq!(data.dropped(), 0);
        // 3 SPE worker tracks + the PPE control track.
        assert_eq!(data.tracks.len(), 4);
        // Every memory block computed exactly once, spans nest and balance.
        let mut blocks: Vec<(u32, u32)> = pair_spans(&data)
            .expect("spans nest and balance")
            .into_iter()
            .filter_map(|s| match s.kind {
                EventKind::Block { bi, bj } => Some((bi, bj)),
                _ => None,
            })
            .collect();
        blocks.sort_unstable();
        let mb = 48u32 / 8;
        let expected: Vec<(u32, u32)> = (0..mb)
            .flat_map(|bi| (bi..mb).map(move |bj| (bi, bj)))
            .collect();
        assert_eq!(blocks, expected);

        let a = analyze(&data).expect("analyzable");
        assert_eq!(a.domains.len(), 1);
        assert_eq!(a.domains[0].domain, TimeDomain::Ticks);
        // Diagonals are counted over *memory* blocks: 48/8 = 6 per side.
        assert_eq!(a.domains[0].diagonals.len(), 6);

        // Mailbox traffic surfaced as instants: one assignment per task on
        // the SPE tracks, one completion per task on the PPE track.
        let instants = |name: &str| {
            data.tracks
                .iter()
                .filter(|t| t.name.starts_with(name))
                .flat_map(|t| &t.events)
                .filter(|e| matches!(e.kind, EventKind::MailboxSend { .. }))
                .count() as u64
        };
        assert_eq!(instants("spe"), report.assignments);
        assert_eq!(instants("ppe"), report.completions);
    }

    fn faulted(
        seeds: &TriangularMatrix<f32>,
        faults: &FaultInjector,
        spes: usize,
    ) -> Result<(TriangularMatrix<f32>, MultiSpeReport), npdp_core::SolveError> {
        functional_cellnpdp_multi_spe_with(
            seeds,
            8,
            2,
            spes,
            &ExecContext::disabled()
                .with_faults(faults)
                .with_retry(RetryPolicy::DEFAULT),
        )
    }

    #[test]
    fn dropped_mailbox_words_are_resent_bit_identical() {
        let seeds = random_seeds(48, 21);
        let host = SerialEngine.solve(&seeds);
        let faults = FaultInjector::new(
            npdp_fault::FaultPlan::seeded(3)
                .with_rate(FaultKind::MailboxDrop, 0.2)
                .with_rate(FaultKind::MailboxStall, 0.2),
        );
        let (sim, report) = faulted(&seeds, &faults, 3).expect("drops are recoverable");
        assert_eq!(host.first_difference(&sim), None);
        assert!(faults.injected_total() > 0, "plan injected nothing");
        if faults.injected(FaultKind::MailboxDrop) > 0 {
            assert!(report.resends > 0, "drops but no resends: {report:?}");
        }
    }

    #[test]
    fn spe_crash_rebalances_and_completes_degraded() {
        let seeds = random_seeds(48, 22);
        let host = SerialEngine.solve(&seeds);
        let mut saw_degraded_completion = false;
        for seed in 0..32u64 {
            let faults = FaultInjector::new(
                npdp_fault::FaultPlan::seeded(seed).with_rate(FaultKind::SpeCrash, 0.15),
            );
            match faulted(&seeds, &faults, 4) {
                Ok((sim, report)) => {
                    assert_eq!(host.first_difference(&sim), None, "seed {seed}");
                    assert!(report.dead_spes < 4, "someone must survive: {report:?}");
                    assert_eq!(
                        report.dead_spes as u64,
                        faults.injected(FaultKind::SpeCrash),
                        "seed {seed}"
                    );
                    if report.dead_spes > 0 {
                        saw_degraded_completion = true;
                        assert!(
                            report.resends > 0,
                            "a crashed task must be re-sent: {report:?}"
                        );
                    }
                }
                Err(npdp_core::SolveError::NoSurvivingWorkers) => {}
                Err(e) => panic!("seed {seed}: unexpected {e:?}"),
            }
        }
        assert!(
            saw_degraded_completion,
            "no seed in 0..32 completed degraded — rate too low or rebalancing broken"
        );
    }

    #[test]
    fn all_spes_dead_is_a_typed_error() {
        let seeds = random_seeds(32, 23);
        let faults = FaultInjector::new(
            npdp_fault::FaultPlan::seeded(7).with_rate(FaultKind::SpeCrash, 1.0),
        );
        let err = faulted(&seeds, &faults, 2).unwrap_err();
        assert!(
            matches!(err, npdp_core::SolveError::NoSurvivingWorkers),
            "{err:?}"
        );
    }

    #[test]
    fn hundred_percent_drops_stall_cleanly() {
        let seeds = random_seeds(24, 24);
        let faults = FaultInjector::new(
            npdp_fault::FaultPlan::seeded(8).with_rate(FaultKind::MailboxDrop, 1.0),
        );
        let err = faulted(&seeds, &faults, 2).unwrap_err();
        assert!(
            matches!(err, npdp_core::SolveError::ProtocolStalled { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn stalls_only_delay_never_corrupt() {
        let seeds = random_seeds(40, 25);
        let host = SerialEngine.solve(&seeds);
        let faults = FaultInjector::new(
            npdp_fault::FaultPlan::seeded(12).with_rate(FaultKind::SpeStall, 0.4),
        );
        let (sim, report) = faulted(&seeds, &faults, 3).expect("stalls are recoverable");
        assert_eq!(host.first_difference(&sim), None);
        let clean_rounds = functional_cellnpdp_multi_spe(&seeds, 8, 2, 3).1.rounds;
        assert!(
            report.rounds >= clean_rounds,
            "stalls cannot speed the protocol up"
        );
    }

    #[test]
    fn mixed_chaos_is_bit_identical_or_typed_error() {
        let seeds = random_seeds(48, 26);
        let host = SerialEngine.solve(&seeds);
        for seed in 0..12u64 {
            let faults = FaultInjector::new(npdp_fault::FaultPlan::default_rates(seed, 0.1));
            match faulted(&seeds, &faults, 3) {
                Ok((sim, _)) => {
                    assert_eq!(host.first_difference(&sim), None, "seed {seed}");
                }
                Err(e) => {
                    // Typed, displayable, never a hang or a wrong answer.
                    let _ = e.to_string();
                }
            }
        }
    }

    #[test]
    fn kernel_calls_match_single_spe_run() {
        let seeds = random_seeds(48, 7);
        let (_, single) =
            crate::npdp::functional_cellnpdp(&seeds, 8, &ExecContext::disabled()).unwrap();
        let (_, multi) = functional_cellnpdp_multi_spe(&seeds, 8, 1, 4);
        assert_eq!(single, multi.kernel_calls);
    }
}
