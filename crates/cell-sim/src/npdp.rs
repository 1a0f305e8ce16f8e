//! CellNPDP executed *functionally* on a simulated SPU — the numerics
//! cross-check between the simulator and the host engines, in single and
//! double precision.
//!
//! One simulated SPE plays through the whole SPE procedure: memory blocks
//! are "DMA-ed" into its 256 KB local store (six-buffer layout, exactly the
//! paper's budget), every 4×4 computing-block update executes the real
//! software-pipelined SPU kernel program instruction by instruction — the
//! 80-instruction SP kernel on `f32`, the 144-instruction `dfa`/`dfcgt` DP
//! kernel on `f64` — and the same-tile remainders run the original scalar
//! flowchart over local-store data (the paper SIMD-accelerates steps 9 and
//! 11 of Fig. 8; the scalar remainder stays on the original code). What
//! differs between the precisions is [`SpeElem`]; the procedure is written
//! once.
//!
//! The output must be **bit-identical** to `npdp_core::SerialEngine` —
//! the integration tests enforce it.

use std::marker::PhantomData;

use npdp_core::{BlockedMatrix, DpValue, SolveError, TriangularMatrix};
use npdp_exec::ExecContext;
use npdp_fault::{site2, site3, FaultInjector, FaultKind, RetryPolicy};

use crate::dma::checksum;
use crate::isa::Instr;
use crate::kernels::{dp_kernel_blocked, sp_kernel_tree, TileAddrs};
use crate::ppe::Precision;
use crate::spu::{Spu, LOCAL_STORE_BYTES};
use crate::swp::software_pipeline;

/// An element the simulated SPE procedure runs on: `f32` or `f64`. It
/// supplies only what differs between the precisions.
pub trait SpeElem: DpValue {
    /// Element size and SIMD lanes per register.
    const PRECISION: Precision;

    /// Three 4×4 tiles (A, B, C) packed back to back at byte `base`.
    fn packed(base: u32) -> TileAddrs;

    /// The computing-block kernel program over `tiles`, before software
    /// pipelining.
    fn kernel(tiles: TileAddrs) -> Vec<Instr>;

    /// Read `count` elements from the local store at byte offset `addr`.
    fn read(spu: &Spu, addr: usize, count: usize) -> Vec<Self>;

    /// Write `vals` into the local store at byte offset `addr`.
    fn write(spu: &mut Spu, addr: usize, vals: &[Self]);

    /// The element's bit pattern (what the DMA checksum hashes).
    fn bits(self) -> u64;

    /// The element with its top mantissa bit flipped: an injected
    /// single-event upset.
    fn upset(self) -> Self;
}

impl SpeElem for f32 {
    const PRECISION: Precision = Precision::Single;

    fn packed(base: u32) -> TileAddrs {
        TileAddrs::packed_sp(base)
    }

    fn kernel(tiles: TileAddrs) -> Vec<Instr> {
        sp_kernel_tree(tiles)
    }

    fn read(spu: &Spu, addr: usize, count: usize) -> Vec<f32> {
        spu.read_f32(addr, count)
    }

    fn write(spu: &mut Spu, addr: usize, vals: &[f32]) {
        spu.write_f32(addr, vals);
    }

    fn bits(self) -> u64 {
        self.to_bits().into()
    }

    fn upset(self) -> f32 {
        f32::from_bits(self.to_bits() ^ 0x0040_0000)
    }
}

impl SpeElem for f64 {
    const PRECISION: Precision = Precision::Double;

    fn packed(base: u32) -> TileAddrs {
        TileAddrs::packed_dp(base)
    }

    fn kernel(tiles: TileAddrs) -> Vec<Instr> {
        dp_kernel_blocked(tiles)
    }

    fn read(spu: &Spu, addr: usize, count: usize) -> Vec<f64> {
        spu.read_f64(addr, count)
    }

    fn write(spu: &mut Spu, addr: usize, vals: &[f64]) {
        spu.write_f64(addr, vals);
    }

    fn bits(self) -> u64 {
        self.to_bits()
    }

    fn upset(self) -> f64 {
        f64::from_bits(self.to_bits() ^ 0x0008_0000_0000_0000)
    }
}

/// Local-store layout (byte offsets) for a block side of `nb` cells of `T`.
pub(crate) struct LsLayout<T> {
    c: usize,
    a: usize,
    b: usize,
    dlo: usize,
    dhi: usize,
    scratch: usize,
    nb: usize,
    elem: PhantomData<T>,
}

impl<T: SpeElem> LsLayout<T> {
    /// Element size in bytes.
    const BYTES: usize = T::PRECISION.bytes();

    pub(crate) fn new(nb: usize) -> Self {
        let aligned = (nb * nb * Self::BYTES).next_multiple_of(16);
        // Five block buffers, then three packed 4×4 kernel tiles.
        assert!(
            5 * aligned + 3 * 16 * Self::BYTES <= LOCAL_STORE_BYTES,
            "block side {nb} does not fit the local store six-buffer budget"
        );
        Self {
            c: 0,
            a: aligned,
            b: 2 * aligned,
            dlo: 3 * aligned,
            dhi: 4 * aligned,
            scratch: 5 * aligned,
            nb,
            elem: PhantomData,
        }
    }

    /// Byte address of cell (r, c) of the block buffer at `base`.
    fn cell(&self, base: usize, r: usize, c: usize) -> usize {
        base + (r * self.nb + c) * Self::BYTES
    }
}

/// Site salt distinguishing put-direction transfers from get-direction ones
/// of the same block through the same buffer.
const DMA_OUT_DIR: u64 = 1 << 63;

/// The simulated SPE with its local-store layout and the kernel program
/// pre-pipelined.
pub(crate) struct SimSpe<T> {
    spu: Spu,
    l: LsLayout<T>,
    kernel: Vec<Instr>,
    scratch: TileAddrs,
    /// Kernel invocations performed (for utilization accounting).
    pub(crate) kernel_calls: u64,
}

impl<T: SpeElem> SimSpe<T> {
    /// An SPE for memory blocks of side `nb`.
    ///
    /// # Panics
    ///
    /// If six buffers of that side do not fit the 256 KB local store.
    pub(crate) fn new(nb: usize) -> Self {
        let l = LsLayout::new(nb);
        let scratch = T::packed(l.scratch as u32);
        Self {
            spu: Spu::new(),
            l,
            kernel: software_pipeline(&T::kernel(scratch)).program,
            scratch,
            kernel_calls: 0,
        }
    }

    /// Copy a 4×4 tile between a block buffer and the kernel scratch, or
    /// back (`to_scratch == false`).
    fn stage_tile(&mut self, base: usize, tr: usize, tc: usize, tile: u32, to_scratch: bool) {
        let row = 4 * LsLayout::<T>::BYTES;
        for r in 0..4 {
            let cell = self.l.cell(base, tr * 4 + r, tc * 4);
            let scratch = tile as usize + row * r;
            let (from, to) = if to_scratch {
                (cell, scratch)
            } else {
                (scratch, cell)
            };
            let vals = T::read(&self.spu, from, 4);
            T::write(&mut self.spu, to, &vals);
        }
    }

    /// One SIMD tile update `C(ct) = min(C(ct), A(at) ⊗ B(bt))` executed as
    /// a real SPU program.
    fn tile_update(
        &mut self,
        (cb, ctr, ctc): (usize, usize, usize),
        (ab, atr, atc): (usize, usize, usize),
        (bb, btr, btc): (usize, usize, usize),
    ) {
        let TileAddrs { a, b, c } = self.scratch;
        self.stage_tile(ab, atr, atc, a, true);
        self.stage_tile(bb, btr, btc, b, true);
        self.stage_tile(cb, ctr, ctc, c, true);
        self.spu.execute(&self.kernel);
        self.stage_tile(cb, ctr, ctc, c, false);
        self.kernel_calls += 1;
    }

    fn get(&self, base: usize, r: usize, c: usize) -> T {
        T::read(&self.spu, self.l.cell(base, r, c), 1)[0]
    }

    fn set(&mut self, base: usize, r: usize, c: usize, v: T) {
        T::write(&mut self.spu, self.l.cell(base, r, c), &[v]);
    }

    /// The scalar edge pass of one computing block (paper Fig. 8 step 12):
    /// the original flowchart over local-store data.
    fn scalar_edge(&mut self, dlo: usize, dhi: usize, r: usize, cc: usize) {
        let c = self.l.c;
        for il in (0..4).rev() {
            let ii = r * 4 + il;
            for jl in 0..4 {
                let jj = cc * 4 + jl;
                let mut best = self.get(c, ii, jj);
                for k in ii + 1..(r + 1) * 4 {
                    best = T::min2(best, self.get(dlo, ii, k) + self.get(c, k, jj));
                }
                for k in cc * 4..jj {
                    best = T::min2(best, self.get(c, ii, k) + self.get(dhi, k, jj));
                }
                self.set(c, ii, jj, best);
            }
        }
    }

    fn diag_tile_closure(&mut self, t: usize) {
        let (c, base) = (self.l.c, t * 4);
        for jl in 1..4 {
            for il in (0..jl).rev() {
                let (ii, jj) = (base + il, base + jl);
                let mut best = self.get(c, ii, jj);
                for k in il + 1..jl {
                    let kk = base + k;
                    best = T::min2(best, self.get(c, ii, kk) + self.get(c, kk, jj));
                }
                self.set(c, ii, jj, best);
            }
        }
    }

    /// "DMA" block `(bi, bj)` of `m` into the local-store buffer at `base`:
    /// checksum the source block, transfer (the injector may lose the
    /// payload or flip one word in flight), verify the checksum of what
    /// actually landed, and retry on mismatch up to the budget. A verified
    /// pass guarantees the local-store bytes equal main memory bit for bit,
    /// so recovery can never alter the numerics. With a disabled injector
    /// it is one plain copy.
    fn dma_in(
        &mut self,
        m: &BlockedMatrix<T>,
        bi: usize,
        bj: usize,
        base: usize,
        faults: &FaultInjector,
        retry: RetryPolicy,
    ) -> Result<(), SolveError> {
        let block = m.block(bi, bj);
        if !faults.enabled() {
            T::write(&mut self.spu, base, block);
            return Ok(());
        }
        let expect = checksum(block);
        for attempt in 0..retry.max_attempts {
            let site = site2(site3(bi as u64, bj as u64, base as u64), attempt as u64);
            if !faults.should_inject(FaultKind::DmaFail, site) {
                T::write(&mut self.spu, base, block);
                if faults.should_inject(FaultKind::DmaCorrupt, site) {
                    let idx = faults.payload(FaultKind::DmaCorrupt, site) as usize % block.len();
                    let addr = base + idx * LsLayout::<T>::BYTES;
                    let v = T::read(&self.spu, addr, 1)[0];
                    T::write(&mut self.spu, addr, &[v.upset()]);
                }
            }
            // Delays have no functional effect; the injector still counts them.
            let _ = faults.should_inject(FaultKind::DmaDelay, site);
            if checksum(&T::read(&self.spu, base, block.len())) == expect {
                return Ok(());
            }
            faults.count_dma_retry();
        }
        Err(SolveError::TransferFailed {
            bi,
            bj,
            attempts: retry.max_attempts,
        })
    }

    /// "DMA" the C buffer back to block `(bi, bj)` of `m`, mirroring
    /// [`SimSpe::dma_in`] in the put direction: a lost transfer leaves the
    /// stale block in main memory, a corrupted one flips a word there; both
    /// are caught by the checksum of the local-store source and retried.
    fn dma_out(
        &self,
        m: &mut BlockedMatrix<T>,
        bi: usize,
        bj: usize,
        faults: &FaultInjector,
        retry: RetryPolicy,
    ) -> Result<(), SolveError> {
        let vals = T::read(&self.spu, self.l.c, self.l.nb * self.l.nb);
        if !faults.enabled() {
            m.block_mut(bi, bj).copy_from_slice(&vals);
            return Ok(());
        }
        let expect = checksum(&vals);
        for attempt in 0..retry.max_attempts {
            let site = site2(
                site3(bi as u64, bj as u64, self.l.c as u64 | DMA_OUT_DIR),
                attempt as u64,
            );
            if !faults.should_inject(FaultKind::DmaFail, site) {
                let b = m.block_mut(bi, bj);
                b.copy_from_slice(&vals);
                if faults.should_inject(FaultKind::DmaCorrupt, site) {
                    let idx = faults.payload(FaultKind::DmaCorrupt, site) as usize % vals.len();
                    b[idx] = b[idx].upset();
                }
            }
            let _ = faults.should_inject(FaultKind::DmaDelay, site);
            if checksum(m.block(bi, bj)) == expect {
                return Ok(());
            }
            faults.count_dma_retry();
        }
        Err(SolveError::TransferFailed {
            bi,
            bj,
            attempts: retry.max_attempts,
        })
    }

    /// Execute the full SPE procedure for memory block `(bi, bj)`: DMA the
    /// block and its dependencies into the local store, run both stages
    /// (SIMD tile updates as real SPU programs, scalar remainders on the
    /// original flowchart), and DMA the result back. Every transfer goes
    /// through the checksummed retry path of [`SimSpe::dma_in`].
    ///
    /// Recomputing a block is idempotent — the result is written back only
    /// at the very end, and block updates read only finalized inputs —
    /// which is what makes protocol-level recovery (resend, SPE-loss
    /// rebalancing) bit-identical-safe.
    pub(crate) fn compute_block(
        &mut self,
        mem: &mut BlockedMatrix<T>,
        bi: usize,
        bj: usize,
        faults: &FaultInjector,
        retry: RetryPolicy,
    ) -> Result<(), SolveError> {
        let (c, nt) = (self.l.c, self.l.nb / 4);
        self.dma_in(mem, bi, bj, c, faults, retry)?;
        if bi == bj {
            // Diagonal block: everything inside the C buffer.
            for r in (0..nt).rev() {
                self.diag_tile_closure(r);
                for cc in r + 1..nt {
                    for tk in r + 1..cc {
                        self.tile_update((c, r, cc), (c, r, tk), (c, tk, cc));
                    }
                    self.scalar_edge(c, c, r, cc);
                }
            }
        } else {
            // Stage 1: dependency pairs streamed through the A/B buffers.
            let (a, b) = (self.l.a, self.l.b);
            for bk in bi + 1..bj {
                self.dma_in(mem, bi, bk, a, faults, retry)?;
                self.dma_in(mem, bk, bj, b, faults, retry)?;
                for r in 0..nt {
                    for cc in 0..nt {
                        for t in 0..nt {
                            self.tile_update((c, r, cc), (a, r, t), (b, t, cc));
                        }
                    }
                }
            }
            // Stage 2: the two diagonal blocks.
            let (dlo, dhi) = (self.l.dlo, self.l.dhi);
            self.dma_in(mem, bi, bi, dlo, faults, retry)?;
            self.dma_in(mem, bj, bj, dhi, faults, retry)?;
            for r in (0..nt).rev() {
                for cc in 0..nt {
                    for tr in r + 1..nt {
                        self.tile_update((c, r, cc), (dlo, r, tr), (c, tr, cc));
                    }
                    for tc in 0..cc {
                        self.tile_update((c, r, cc), (c, r, tc), (dhi, tc, cc));
                    }
                    self.scalar_edge(dlo, dhi, r, cc);
                }
            }
        }
        self.dma_out(mem, bi, bj, faults, retry)
    }
}

/// Run CellNPDP functionally on one simulated SPE, in the precision of
/// `T`, under the fault plan of `ctx` (only `ctx.faults` / `ctx.retry`
/// apply to this single-SPE run): every DMA transfer is checksum-verified
/// on receive and retried on loss or corruption. Returns the completed
/// table and the number of kernel invocations executed.
///
/// Whenever recovery succeeds the table is **bit-identical** to the
/// fault-free run (a verified transfer delivered exactly the source
/// bytes); once a transfer exhausts its retry budget the run stops with
/// [`SolveError::TransferFailed`]. A disabled injector cannot fail.
///
/// # Panics
///
/// If `nb` is not a positive multiple of 4, or six blocks of side `nb` do
/// not fit the 256 KB local store.
pub fn functional_cellnpdp<T: SpeElem>(
    seeds: &TriangularMatrix<T>,
    nb: usize,
    ctx: &ExecContext,
) -> Result<(TriangularMatrix<T>, u64), SolveError> {
    assert!(
        nb >= 4 && nb.is_multiple_of(4),
        "block side must be a multiple of 4"
    );
    let mut mem = BlockedMatrix::from_triangular(seeds, nb);
    let mut spe = SimSpe::new(nb);
    for bj in 0..mem.blocks_per_side() {
        for bi in (0..=bj).rev() {
            spe.compute_block(&mut mem, bi, bj, &ctx.faults, ctx.retry)?;
        }
    }
    Ok((mem.to_triangular(), spe.kernel_calls))
}

#[cfg(test)]
mod tests {
    use super::*;
    use npdp_core::{Engine, SerialEngine};

    /// The fault-free run.
    fn solve<T: SpeElem>(seeds: &TriangularMatrix<T>, nb: usize) -> (TriangularMatrix<T>, u64) {
        functional_cellnpdp(seeds, nb, &ExecContext::disabled()).expect("fault-free run")
    }

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
    fn functional_sim_matches_host_serial() {
        for (n, nb) in [(8, 4), (16, 8), (24, 8), (33, 8)] {
            let seeds = random_seeds(n, (n * nb) as u64);
            let expect = SerialEngine.solve(&seeds);
            let (got, _) = solve(&seeds, nb);
            assert_eq!(expect.first_difference(&got), None, "n={n} nb={nb}");
        }
    }

    #[test]
    fn functional_sim_matches_host_simd_engine() {
        let seeds = random_seeds(40, 9);
        let host = npdp_core::SimdEngine::new(8).solve(&seeds);
        let (sim, _) = solve(&seeds, 8);
        assert_eq!(host.first_difference(&sim), None);
    }

    #[test]
    fn kernel_call_count_matches_model() {
        // For n divisible by nb, the kernel-call count must equal the
        // machine model's accounting.
        let n = 32;
        let nb = 8;
        let seeds = random_seeds(n, 3);
        let (_, calls) = solve(&seeds, nb);
        // Count from the same formulas as machine::block_cost.
        let nt = nb / 4;
        let mb = n / nb;
        let mut expect = 0u64;
        for bi in 0..mb {
            for bj in bi..mb {
                if bi == bj {
                    for r in 0..nt {
                        for c in r + 1..nt {
                            expect += (c - r - 1) as u64;
                        }
                    }
                } else {
                    let deps = (bj - bi - 1) as u64;
                    expect += deps * (nt * nt * nt) as u64 + (nt * nt * (nt - 1)) as u64;
                }
            }
        }
        assert_eq!(calls, expect);
    }

    #[test]
    fn sparse_seeds_with_infinity() {
        let n = 20;
        let seeds = TriangularMatrix::from_fn(n, |i, j| {
            if (i * 7 + j) % 3 == 0 {
                (i + j) as f32
            } else {
                f32::INFINITY
            }
        });
        let expect = SerialEngine.solve(&seeds);
        let (got, _) = solve(&seeds, 8);
        assert_eq!(expect.first_difference(&got), None);
    }

    #[test]
    fn dma_faults_recover_bit_identical() {
        let seeds = random_seeds(24, 11);
        let (clean, clean_calls) = solve(&seeds, 8);
        let faults = FaultInjector::new(
            npdp_fault::FaultPlan::seeded(77)
                .with_rate(FaultKind::DmaFail, 0.3)
                .with_rate(FaultKind::DmaCorrupt, 0.3),
        );
        let retry = RetryPolicy {
            max_attempts: 16,
            base_backoff: 1,
        };
        let (got, calls) = functional_cellnpdp(
            &seeds,
            8,
            &ExecContext::disabled()
                .with_faults(&faults)
                .with_retry(retry),
        )
        .expect("a 16-attempt budget absorbs a 0.3 fault rate");
        assert_eq!(clean.first_difference(&got), None);
        assert_eq!(clean_calls, calls);
        assert!(faults.injected_total() > 0, "plan injected nothing");
        assert!(faults.injected(FaultKind::DmaFail) + faults.injected(FaultKind::DmaCorrupt) > 0);
    }

    #[test]
    fn exhausted_dma_retries_are_a_typed_error() {
        let seeds = random_seeds(16, 2);
        let faults =
            FaultInjector::new(npdp_fault::FaultPlan::seeded(5).with_rate(FaultKind::DmaFail, 1.0));
        let err = functional_cellnpdp(
            &seeds,
            8,
            &ExecContext::disabled()
                .with_faults(&faults)
                .with_retry(RetryPolicy {
                    max_attempts: 2,
                    base_backoff: 1,
                }),
        )
        .unwrap_err();
        assert!(
            matches!(err, SolveError::TransferFailed { attempts: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn enabled_zero_rate_injector_is_a_noop() {
        let seeds = random_seeds(16, 4);
        let (clean, _) = solve(&seeds, 8);
        let faults = FaultInjector::new(npdp_fault::FaultPlan::seeded(9));
        let (got, _) = functional_cellnpdp(
            &seeds,
            8,
            &ExecContext::disabled()
                .with_faults(&faults)
                .with_retry(RetryPolicy::DEFAULT),
        )
        .expect("zero-rate plan cannot fail");
        assert_eq!(clean.first_difference(&got), None);
        assert_eq!(faults.injected_total(), 0);
    }

    #[test]
    #[should_panic(expected = "six-buffer budget")]
    fn oversized_block_rejected() {
        let seeds = random_seeds(8, 1);
        // 256 KB / 6 buffers → max ~104; 200 is too large.
        let _ = solve(&seeds, 200);
    }

    fn random_seeds_f64(n: usize, seed: u64) -> TriangularMatrix<f64> {
        let mut s = seed;
        TriangularMatrix::from_fn(n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64) * 100.0
        })
    }

    #[test]
    fn dp_functional_sim_matches_host_serial() {
        for (n, nb) in [(12usize, 4usize), (24, 8), (36, 8)] {
            let seeds = random_seeds_f64(n, (n + nb) as u64);
            let expect = SerialEngine.solve(&seeds);
            let (got, _) = solve(&seeds, nb);
            assert_eq!(expect.first_difference(&got), None, "n={n} nb={nb}");
        }
    }

    #[test]
    fn dp_and_sp_kernel_call_counts_agree() {
        // The algorithm structure is precision-independent.
        let (n, nb) = (32, 8);
        let sp = solve(&TriangularMatrix::from_fn(n, |i, j| (i + j) as f32), nb).1;
        let dp = solve(&TriangularMatrix::from_fn(n, |i, j| (i + j) as f64), nb).1;
        assert_eq!(sp, dp);
    }

    #[test]
    fn dp_sparse_seeds_with_infinity() {
        let n = 20;
        let seeds = TriangularMatrix::from_fn(n, |i, j| {
            if (i * 5 + j) % 4 == 0 {
                (i * 2 + j) as f64
            } else {
                f64::INFINITY
            }
        });
        let expect = SerialEngine.solve(&seeds);
        let (got, _) = solve(&seeds, 8);
        assert_eq!(expect.first_difference(&got), None);
    }
}
