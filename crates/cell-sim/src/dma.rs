//! The DMA / EIB transfer-cost model.
//!
//! SPEs have no caches; all data moves through asynchronous DMA between main
//! memory and the local stores (paper §II-C). Two facts drive the paper's
//! data-layout argument:
//!
//! * each DMA command has a fixed startup overhead, so *few large* transfers
//!   beat *many small* ones — a memory block stored contiguously (NDL) moves
//!   in one maximal command, while the row-major layout needs one command
//!   per block row;
//! * aggregate bandwidth is bounded by the memory interface (25.6 GB/s),
//!   shared by all SPEs.
//!
//! The model: a transfer of `s` bytes in `k` commands costs
//! `k · startup + s / bandwidth` cycles on the issuing SPE's DMA engine,
//! with at most 16 KB per command (the MFC limit).

use crate::npdp::SpeElem;

/// MFC maximum bytes per DMA command.
pub const MAX_DMA_BYTES: usize = 16 * 1024;

/// FNV-1a over the raw bit patterns of a block of elements — the
/// verify-on-receive checksum of the fault-tolerant DMA path. Bit-pattern
/// based, so NaNs and signed zeros hash stably and any single flipped bit
/// changes the digest.
pub fn checksum<T: SpeElem>(data: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for &byte in &v.bits().to_le_bytes()[..T::PRECISION.bytes()] {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// DMA engine parameters.
#[derive(Debug, Clone, Copy)]
pub struct DmaModel {
    /// Fixed cycles of startup per DMA command (issue + EIB arbitration +
    /// first-beat latency), ~200 ns-class on real hardware.
    pub startup_cycles: f64,
    /// Sustained bytes per cycle available to one SPE when the EIB is
    /// uncontended (25.6 GB/s at 3.2 GHz ≈ 8 B/cycle).
    pub bytes_per_cycle: f64,
}

impl Default for DmaModel {
    fn default() -> Self {
        Self {
            startup_cycles: 450.0,
            bytes_per_cycle: 8.0,
        }
    }
}

/// Accumulated transfer statistics (Fig. 9's y-axis).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DmaStats {
    /// Total bytes moved between main memory and local stores.
    pub bytes: u64,
    /// Total DMA commands issued.
    pub commands: u64,
    /// Total modelled cycles spent (startup + wire time), assuming no
    /// contention.
    pub cycles: f64,
}

impl DmaStats {
    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: DmaStats) {
        self.bytes += other.bytes;
        self.commands += other.commands;
        self.cycles += other.cycles;
    }

    /// Emit `dma.bytes`, `dma.commands` and `dma.cycles` (rounded) into a
    /// metrics sink.
    pub fn record_into(&self, metrics: &npdp_metrics::Metrics) {
        metrics.add("dma.bytes", self.bytes);
        metrics.add("dma.commands", self.commands);
        metrics.add("dma.cycles", self.cycles.round() as u64);
    }
}

impl DmaModel {
    /// Cost of moving one *contiguous* region of `bytes` bytes: the MFC
    /// splits it into 16 KB commands.
    pub fn contiguous(&self, bytes: usize) -> DmaStats {
        if bytes == 0 {
            return DmaStats::default();
        }
        let commands = bytes.div_ceil(MAX_DMA_BYTES) as u64;
        DmaStats {
            bytes: bytes as u64,
            commands,
            cycles: commands as f64 * self.startup_cycles + bytes as f64 / self.bytes_per_cycle,
        }
    }

    /// Cost of moving a *strided* region: `rows` pieces of `row_bytes` each,
    /// one command per piece (the row-major triangular layout's block
    /// fetch, paper §III).
    pub fn strided(&self, rows: usize, row_bytes: usize) -> DmaStats {
        if rows == 0 || row_bytes == 0 {
            return DmaStats::default();
        }
        let per_row = self.contiguous(row_bytes);
        DmaStats {
            bytes: per_row.bytes * rows as u64,
            commands: per_row.commands * rows as u64,
            cycles: per_row.cycles * rows as f64,
        }
    }

    /// The paper's headline layout ratio: cycles(strided) / cycles(contiguous)
    /// for the same block.
    pub fn layout_advantage(&self, rows: usize, row_bytes: usize) -> f64 {
        self.strided(rows, row_bytes).cycles / self.contiguous(rows * row_bytes).cycles
    }
}

/// Double-buffered pipeline timeline (the six-buffer scheme of §III): the
/// DMA engine is serial and fetch `k+1` may start only once fetch `k` has
/// completed *and* the buffers of step `k-1` have been released, while
/// compute `k` may start only when its data has arrived:
///
/// ```text
/// dma_done[k]     = max(dma_done[k-1], compute_end[k-2]) + dma[k]
/// compute_end[k]  = max(compute_end[k-1], dma_done[k]) + compute[k]
/// ```
///
/// `steps` is the per-step `(dma_cycles, compute_cycles)` sequence;
/// `prologue_dma` is un-overlapped initial traffic (the C block itself).
/// Returns total cycles including the final write-back `epilogue_dma`.
pub fn double_buffered_cycles(steps: &[(f64, f64)], prologue_dma: f64, epilogue_dma: f64) -> f64 {
    let mut dma_done = prologue_dma;
    let mut compute_end = prologue_dma;
    let mut prev_compute_end = prologue_dma;
    let mut prev_prev_end = prologue_dma;
    for &(dma, compute) in steps {
        dma_done = dma_done.max(prev_prev_end) + dma;
        let end = prev_compute_end.max(dma_done) + compute;
        prev_prev_end = prev_compute_end;
        prev_compute_end = end;
        compute_end = end;
    }
    compute_end + epilogue_dma
}

/// The per-interval expansion of [`double_buffered_cycles`]: when each DMA
/// transfer and each compute step actually occupies its unit, under the same
/// one-transfer-in-flight / two-buffer recurrence. `total` is always equal
/// to `double_buffered_cycles` on the same inputs (equivalence-tested), so
/// the timing model and its timeline can never drift apart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineTimeline {
    /// `(start, end)` of each DMA transfer on the block's DMA lane, in
    /// issue order: prologue fetch (if any), one fetch per step with a
    /// nonzero DMA cost, then the epilogue write-back (if any).
    pub dma: Vec<(f64, f64)>,
    /// `(start, end)` of each nonzero compute step on the SPU.
    pub compute: Vec<(f64, f64)>,
    /// End of the whole pipeline (compute drain + epilogue write-back).
    pub total: f64,
}

impl PipelineTimeline {
    /// Index into `dma` where the epilogue write-back sits, if present.
    pub fn epilogue_index(&self, epilogue_dma: f64) -> Option<usize> {
        (epilogue_dma > 0.0).then(|| self.dma.len() - 1)
    }
}

/// Like [`double_buffered_cycles`], but returns the full interval timeline
/// instead of only the end time.
pub fn double_buffered_timeline(
    steps: &[(f64, f64)],
    prologue_dma: f64,
    epilogue_dma: f64,
) -> PipelineTimeline {
    let mut out = PipelineTimeline::default();
    if prologue_dma > 0.0 {
        out.dma.push((0.0, prologue_dma));
    }
    let mut dma_done = prologue_dma;
    let mut compute_end = prologue_dma;
    let mut prev_compute_end = prologue_dma;
    let mut prev_prev_end = prologue_dma;
    for &(dma, compute) in steps {
        let dma_start = dma_done.max(prev_prev_end);
        dma_done = dma_start + dma;
        if dma > 0.0 {
            out.dma.push((dma_start, dma_done));
        }
        let start = prev_compute_end.max(dma_done);
        let end = start + compute;
        if compute > 0.0 {
            out.compute.push((start, end));
        }
        prev_prev_end = prev_compute_end;
        prev_compute_end = end;
        compute_end = end;
    }
    if epilogue_dma > 0.0 {
        out.dma.push((compute_end, compute_end + epilogue_dma));
    }
    out.total = compute_end + epilogue_dma;
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn checksum_is_deterministic_and_bit_sensitive() {
        let a = vec![1.0f32, 2.5, f32::INFINITY, -0.0];
        let b = a.clone();
        assert_eq!(checksum(&a), checksum(&b));
        let mut c = a.clone();
        c[1] = f32::from_bits(c[1].to_bits() ^ 1);
        assert_ne!(checksum(&a), checksum(&c));
        // NaN payloads hash by bit pattern, not by float equality.
        let n1 = vec![f32::from_bits(0x7FC0_0001)];
        let n2 = vec![f32::from_bits(0x7FC0_0002)];
        assert_ne!(checksum(&n1), checksum(&n2));
        // Doubles hash all eight bytes.
        let d = [2.5f64];
        assert_ne!(
            checksum(&d),
            checksum(&[f64::from_bits(d[0].to_bits() ^ 1 << 60)])
        );
    }

    use super::*;

    #[test]
    fn zero_transfer_costs_nothing() {
        let m = DmaModel::default();
        assert_eq!(m.contiguous(0), DmaStats::default());
        assert_eq!(m.strided(0, 128), DmaStats::default());
    }

    #[test]
    fn contiguous_splits_at_16k() {
        let m = DmaModel::default();
        assert_eq!(m.contiguous(16 * 1024).commands, 1);
        assert_eq!(m.contiguous(16 * 1024 + 1).commands, 2);
        assert_eq!(m.contiguous(32 * 1024).commands, 2);
    }

    #[test]
    fn contiguous_beats_strided_for_same_bytes() {
        // A 32 KB SP memory block (88×88×4B ≈ 31 KB): contiguous needs 2
        // commands; the row-major layout needs 88 commands of 352 B.
        let m = DmaModel::default();
        let contiguous = m.contiguous(88 * 88 * 4);
        let strided = m.strided(88, 88 * 4);
        assert_eq!(contiguous.bytes, strided.bytes);
        assert!(strided.commands > 40 * contiguous.commands);
        assert!(strided.cycles > 8.0 * contiguous.cycles);
    }

    #[test]
    fn layout_advantage_grows_with_fragmentation() {
        let m = DmaModel::default();
        // More, smaller rows → worse for the strided layout.
        let few = m.layout_advantage(16, 1024);
        let many = m.layout_advantage(128, 128);
        assert!(many > few);
        assert!(few > 1.0);
    }

    #[test]
    fn wire_time_matches_bandwidth() {
        let m = DmaModel {
            startup_cycles: 0.0,
            bytes_per_cycle: 8.0,
        };
        let s = m.contiguous(8192);
        assert_eq!(s.cycles, 1024.0);
    }

    #[test]
    fn double_buffer_compute_bound() {
        // dma ≪ compute: total ≈ prologue + Σcompute + epilogue (first
        // fetch hides under the prologue).
        let steps = vec![(10.0, 100.0); 8];
        let t = double_buffered_cycles(&steps, 50.0, 20.0);
        // First dma (10) is serialized after the prologue.
        assert_eq!(t, 50.0 + 10.0 + 8.0 * 100.0 + 20.0);
    }

    #[test]
    fn double_buffer_memory_bound() {
        // dma ≫ compute: total ≈ prologue + Σdma + last compute + epilogue.
        let steps = vec![(100.0, 10.0); 8];
        let t = double_buffered_cycles(&steps, 50.0, 20.0);
        assert_eq!(t, 50.0 + 8.0 * 100.0 + 10.0 + 20.0);
    }

    #[test]
    fn double_buffer_empty_steps() {
        assert_eq!(double_buffered_cycles(&[], 5.0, 7.0), 12.0);
    }

    #[test]
    fn double_buffer_matches_max_model_for_uniform_steps() {
        // The analytic approximation max(Σdma, Σcompute) + overheads is
        // what the machine model uses; the timeline refines it by at most
        // one step's cost for uniform steps.
        let steps = vec![(60.0, 80.0); 10];
        let t = double_buffered_cycles(&steps, 0.0, 0.0);
        let approx = (10.0 * 60.0f64).max(10.0 * 80.0);
        assert!(t >= approx);
        assert!(t <= approx + 60.0 + 80.0);
    }

    #[test]
    fn timeline_total_matches_cycles_model() {
        type Case = (Vec<(f64, f64)>, f64, f64);
        let cases: Vec<Case> = vec![
            (vec![(10.0, 100.0); 8], 50.0, 20.0),
            (vec![(100.0, 10.0); 8], 50.0, 20.0),
            (vec![], 5.0, 7.0),
            (vec![(60.0, 80.0); 10], 0.0, 0.0),
            (
                vec![(30.0, 5.0), (0.0, 40.0), (200.0, 0.0), (17.0, 23.0)],
                12.0,
                9.0,
            ),
        ];
        for (steps, pro, epi) in cases {
            let tl = double_buffered_timeline(&steps, pro, epi);
            assert_eq!(
                tl.total,
                double_buffered_cycles(&steps, pro, epi),
                "steps={steps:?} pro={pro} epi={epi}"
            );
        }
    }

    #[test]
    fn timeline_intervals_are_ordered_per_lane() {
        let steps = vec![(60.0, 80.0), (10.0, 5.0), (120.0, 40.0), (30.0, 90.0)];
        let tl = double_buffered_timeline(&steps, 25.0, 15.0);
        for lane in [&tl.dma, &tl.compute] {
            for w in lane.windows(2) {
                assert!(w[0].1 <= w[1].0, "lane intervals overlap: {lane:?}");
            }
            for &(s, e) in lane {
                assert!(s < e);
            }
        }
        // Prologue starts at 0, epilogue ends at total, fetches interleave.
        assert_eq!(tl.dma.first(), Some(&(0.0, 25.0)));
        assert_eq!(tl.dma.last().unwrap().1, tl.total);
        assert_eq!(tl.epilogue_index(15.0), Some(tl.dma.len() - 1));
        assert_eq!(tl.epilogue_index(0.0), None);
    }

    #[test]
    fn timeline_compute_waits_for_its_fetch() {
        // Each step's compute may only start once its own DMA landed.
        let steps = vec![(100.0, 10.0); 4];
        let tl = double_buffered_timeline(&steps, 0.0, 0.0);
        assert_eq!(tl.dma.len(), 4);
        assert_eq!(tl.compute.len(), 4);
        for (d, c) in tl.dma.iter().zip(&tl.compute) {
            assert!(c.0 >= d.1, "compute {c:?} started before fetch {d:?} done");
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let m = DmaModel::default();
        let mut acc = DmaStats::default();
        acc.merge(m.contiguous(1024));
        acc.merge(m.contiguous(2048));
        assert_eq!(acc.bytes, 3072);
        assert_eq!(acc.commands, 2);
    }
}
