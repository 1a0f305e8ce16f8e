//! CellNPDP executed *functionally* on a simulated SPU — the numerics
//! cross-check between the simulator and the host engines.
//!
//! One simulated SPE plays through the whole SPE procedure: memory blocks
//! are "DMA-ed" into its 256 KB local store (six-buffer layout, exactly the
//! paper's budget), every 4×4 computing-block update executes the real
//! software-pipelined SPU kernel program instruction by instruction, and
//! the same-tile remainders run the original scalar flowchart over
//! local-store data (the paper SIMD-accelerates steps 9 and 11 of Fig. 8;
//! the scalar remainder stays on the original code).
//!
//! The output must be **bit-identical** to `npdp_core::SerialEngine` —
//! the integration tests enforce it.

use npdp_core::{BlockedMatrix, DpValue, SolveError, TriangularMatrix};
use npdp_fault::{site2, site3, FaultInjector, FaultKind, RetryPolicy};

use crate::dma::checksum_f32;
use crate::kernels::{sp_kernel_tree, TileAddrs};
use crate::spu::Spu;
use crate::swp::software_pipeline;

/// Local-store layout (byte offsets) for a block side of `nb` SP cells.
pub(crate) struct LsLayout {
    c: usize,
    a: usize,
    b: usize,
    dlo: usize,
    dhi: usize,
    scratch: usize,
    nb: usize,
}

impl LsLayout {
    pub(crate) fn new(nb: usize, ls_bytes: usize) -> Self {
        let block = nb * nb * 4;
        let aligned = block.next_multiple_of(16);
        let layout = Self {
            c: 0,
            a: aligned,
            b: 2 * aligned,
            dlo: 3 * aligned,
            dhi: 4 * aligned,
            scratch: 5 * aligned,
            nb,
        };
        assert!(
            5 * aligned + 3 * 64 <= ls_bytes,
            "block side {nb} does not fit the local store six-buffer budget"
        );
        layout
    }

    /// Byte address of cell (r, c) of the block buffer at `base`.
    fn cell(&self, base: usize, r: usize, c: usize) -> usize {
        base + (r * self.nb + c) * 4
    }
}

/// The simulated SPE with the kernel program pre-pipelined.
pub(crate) struct SimSpe {
    spu: Spu,
    kernel: Vec<crate::isa::Instr>,
    scratch: TileAddrs,
    /// Kernel invocations performed (for utilization accounting).
    pub(crate) kernel_calls: u64,
}

impl SimSpe {
    pub(crate) fn new(layout: &LsLayout) -> Self {
        let scratch = TileAddrs::packed_sp(layout.scratch as u32);
        let kernel = software_pipeline(&sp_kernel_tree(scratch)).program;
        Self {
            spu: Spu::new(),
            kernel,
            scratch,
            kernel_calls: 0,
        }
    }

    /// Copy a 4×4 tile between a block buffer and the kernel scratch.
    fn stage_tile(&mut self, layout: &LsLayout, base: usize, tr: usize, tc: usize, dst: u32) {
        for r in 0..4 {
            let vals = self.spu.read_f32(layout.cell(base, tr * 4 + r, tc * 4), 4);
            self.spu.write_f32(dst as usize + 16 * r, &vals);
        }
    }

    fn unstage_tile(&mut self, layout: &LsLayout, base: usize, tr: usize, tc: usize, src: u32) {
        for r in 0..4 {
            let vals = self.spu.read_f32(src as usize + 16 * r, 4);
            self.spu
                .write_f32(layout.cell(base, tr * 4 + r, tc * 4), &vals);
        }
    }

    /// One SIMD tile update `C(ct) = min(C(ct), A(at) ⊗ B(bt))` executed as
    /// a real SPU program.
    fn tile_update(
        &mut self,
        layout: &LsLayout,
        (cb, ctr, ctc): (usize, usize, usize),
        (ab, atr, atc): (usize, usize, usize),
        (bb, btr, btc): (usize, usize, usize),
    ) {
        let (a, b, c) = (self.scratch.a, self.scratch.b, self.scratch.c);
        self.stage_tile(layout, ab, atr, atc, a);
        self.stage_tile(layout, bb, btr, btc, b);
        self.stage_tile(layout, cb, ctr, ctc, c);
        let kernel = self.kernel.clone();
        self.spu.execute(&kernel);
        self.unstage_tile(layout, cb, ctr, ctc, c);
        self.kernel_calls += 1;
    }

    fn get(&self, layout: &LsLayout, base: usize, r: usize, c: usize) -> f32 {
        self.spu.read_f32(layout.cell(base, r, c), 1)[0]
    }

    fn set(&mut self, layout: &LsLayout, base: usize, r: usize, c: usize, v: f32) {
        self.spu.write_f32(layout.cell(base, r, c), &[v]);
    }

    /// The scalar edge pass of one computing block (paper Fig. 8 step 12):
    /// the original flowchart over local-store data.
    fn scalar_edge(&mut self, l: &LsLayout, dlo: usize, dhi: usize, r: usize, cc: usize) {
        for il in (0..4).rev() {
            let ii = r * 4 + il;
            for jl in 0..4 {
                let jj = cc * 4 + jl;
                let mut best = self.get(l, l.c, ii, jj);
                for k in ii + 1..(r + 1) * 4 {
                    let cand = self.get(l, dlo, ii, k) + self.get(l, l.c, k, jj);
                    best = f32::min2(best, cand);
                }
                for k in cc * 4..jj {
                    let cand = self.get(l, l.c, ii, k) + self.get(l, dhi, k, jj);
                    best = f32::min2(best, cand);
                }
                self.set(l, l.c, ii, jj, best);
            }
        }
    }

    fn diag_tile_closure(&mut self, l: &LsLayout, t: usize) {
        let base = t * 4;
        for jl in 1..4 {
            for il in (0..jl).rev() {
                let (ii, jj) = (base + il, base + jl);
                let mut best = self.get(l, l.c, ii, jj);
                for k in il + 1..jl {
                    let kk = base + k;
                    let cand = self.get(l, l.c, ii, kk) + self.get(l, l.c, kk, jj);
                    best = f32::min2(best, cand);
                }
                self.set(l, l.c, ii, jj, best);
            }
        }
    }
}

/// "DMA" a memory block from main memory into a local-store buffer.
fn dma_in(spe: &mut SimSpe, m: &BlockedMatrix<f32>, bi: usize, bj: usize, base: usize) {
    spe.spu.write_f32(base, m.block(bi, bj));
}

/// "DMA" the C buffer back to main memory.
fn dma_out(spe: &SimSpe, m: &mut BlockedMatrix<f32>, bi: usize, bj: usize, base: usize) {
    let nb = m.block_side();
    let vals = spe.spu.read_f32(base, nb * nb);
    m.block_mut(bi, bj).copy_from_slice(&vals);
}

/// Site salt distinguishing put-direction transfers from get-direction ones
/// of the same block through the same buffer.
const DMA_OUT_DIR: u64 = 1 << 63;

/// Flip one mantissa bit of one local-store word (an injected single-event
/// upset); which word is hit comes from the injector's deterministic payload.
fn corrupt_ls_word(spe: &mut SimSpe, base: usize, len: usize, payload: u64) {
    let idx = (payload as usize) % len;
    let addr = base + idx * 4;
    let v = spe.spu.read_f32(addr, 1)[0];
    spe.spu
        .write_f32(addr, &[f32::from_bits(v.to_bits() ^ 0x0040_0000)]);
}

/// Fault-aware [`dma_in`]: checksum the source block, transfer (the injector
/// may lose the payload or corrupt one word in flight), verify the checksum
/// of what actually landed in the local store, and retry on mismatch up to
/// the budget. A verified pass guarantees the local-store bytes equal main
/// memory bit for bit, so recovery can never alter the numerics.
fn dma_in_checked(
    spe: &mut SimSpe,
    m: &BlockedMatrix<f32>,
    bi: usize,
    bj: usize,
    base: usize,
    faults: &FaultInjector,
    retry: RetryPolicy,
) -> Result<(), SolveError> {
    if !faults.enabled() {
        dma_in(spe, m, bi, bj, base);
        return Ok(());
    }
    let expect = checksum_f32(m.block(bi, bj));
    let nb = m.block_side();
    for attempt in 0..retry.max_attempts {
        let site = site2(site3(bi as u64, bj as u64, base as u64), attempt as u64);
        if !faults.should_inject(FaultKind::DmaFail, site) {
            spe.spu.write_f32(base, m.block(bi, bj));
            if faults.should_inject(FaultKind::DmaCorrupt, site) {
                corrupt_ls_word(
                    spe,
                    base,
                    nb * nb,
                    faults.payload(FaultKind::DmaCorrupt, site),
                );
            }
        }
        // Delays have no functional effect; the injector still counts them.
        let _ = faults.should_inject(FaultKind::DmaDelay, site);
        let got = spe.spu.read_f32(base, nb * nb);
        if checksum_f32(&got) == expect {
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

/// Fault-aware [`dma_out`], mirroring [`dma_in_checked`] in the put
/// direction: a lost transfer leaves the stale block in main memory, a
/// corrupted one flips a word there; both are caught by the checksum of the
/// local-store source and retried.
fn dma_out_checked(
    spe: &SimSpe,
    m: &mut BlockedMatrix<f32>,
    bi: usize,
    bj: usize,
    base: usize,
    faults: &FaultInjector,
    retry: RetryPolicy,
) -> Result<(), SolveError> {
    if !faults.enabled() {
        dma_out(spe, m, bi, bj, base);
        return Ok(());
    }
    let nb = m.block_side();
    let vals = spe.spu.read_f32(base, nb * nb);
    let expect = checksum_f32(&vals);
    for attempt in 0..retry.max_attempts {
        let site = site2(
            site3(bi as u64, bj as u64, base as u64 | DMA_OUT_DIR),
            attempt as u64,
        );
        if !faults.should_inject(FaultKind::DmaFail, site) {
            m.block_mut(bi, bj).copy_from_slice(&vals);
            if faults.should_inject(FaultKind::DmaCorrupt, site) {
                let idx = (faults.payload(FaultKind::DmaCorrupt, site) as usize) % vals.len();
                let b = m.block_mut(bi, bj);
                b[idx] = f32::from_bits(b[idx].to_bits() ^ 0x0040_0000);
            }
        }
        let _ = faults.should_inject(FaultKind::DmaDelay, site);
        if checksum_f32(m.block(bi, bj)) == expect {
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

/// Run CellNPDP functionally on one simulated SPE. Returns the completed
/// table and the number of kernel invocations executed.
pub fn functional_cellnpdp_f32(
    seeds: &TriangularMatrix<f32>,
    nb: usize,
) -> (TriangularMatrix<f32>, u64) {
    functional_cellnpdp_f32_with(seeds, nb, &npdp_exec::ExecContext::disabled())
        .expect("fault-free run cannot fail")
}

/// [`functional_cellnpdp_f32`] under the fault plan of `ctx` (only
/// `ctx.faults` / `ctx.retry` apply to this single-SPE functional run):
/// every DMA transfer is checksum-verified on receive and retried with
/// backoff on loss or corruption. Whenever recovery succeeds the table is
/// **bit-identical** to the fault-free run (a verified transfer delivered
/// exactly the source bytes); once a transfer exhausts its retry budget the
/// run stops with [`SolveError::TransferFailed`].
pub fn functional_cellnpdp_f32_with(
    seeds: &TriangularMatrix<f32>,
    nb: usize,
    ctx: &npdp_exec::ExecContext,
) -> Result<(TriangularMatrix<f32>, u64), SolveError> {
    let faults = &ctx.faults;
    let retry = ctx.retry;
    assert!(
        nb >= 4 && nb.is_multiple_of(4),
        "block side must be a multiple of 4"
    );
    let mut mem = BlockedMatrix::from_triangular(seeds, nb);
    let layout = LsLayout::new(nb, crate::spu::LOCAL_STORE_BYTES);
    let mut spe = SimSpe::new(&layout);
    let mb = mem.blocks_per_side();

    for bj in 0..mb {
        for bi in (0..=bj).rev() {
            spe_compute_block_checked(&mut spe, &layout, &mut mem, bi, bj, faults, retry)?;
        }
    }
    Ok((mem.to_triangular(), spe.kernel_calls))
}

/// Execute the full SPE procedure for one memory block on a simulated SPE:
/// DMA the block and its dependencies into the local store, run both stages
/// (SIMD tile updates as real SPU programs, scalar remainders on the
/// original flowchart), and DMA the result back.
/// The same procedure with fault-aware DMA: every transfer goes through
/// the checksummed retry path (a no-op with a disabled injector). Recomputing a block with this function is
/// idempotent — the result is written back only at the very end, and block
/// updates read only finalized inputs — which is what makes protocol-level
/// recovery (resend, SPE-loss rebalancing) bit-identical-safe.
pub(crate) fn spe_compute_block_checked(
    spe: &mut SimSpe,
    layout: &LsLayout,
    mem: &mut BlockedMatrix<f32>,
    bi: usize,
    bj: usize,
    faults: &FaultInjector,
    retry: RetryPolicy,
) -> Result<(), SolveError> {
    let nt = layout.nb / 4;
    dma_in_checked(spe, mem, bi, bj, layout.c, faults, retry)?;
    if bi == bj {
        // Diagonal block: everything inside the C buffer.
        for r in (0..nt).rev() {
            for cc in r..nt {
                if r == cc {
                    spe.diag_tile_closure(layout, r);
                    continue;
                }
                for tk in r + 1..cc {
                    spe.tile_update(
                        layout,
                        (layout.c, r, cc),
                        (layout.c, r, tk),
                        (layout.c, tk, cc),
                    );
                }
                spe.scalar_edge(layout, layout.c, layout.c, r, cc);
            }
        }
    } else {
        // Stage 1: dependency pairs streamed through the A/B buffers.
        for bk in bi + 1..bj {
            dma_in_checked(spe, mem, bi, bk, layout.a, faults, retry)?;
            dma_in_checked(spe, mem, bk, bj, layout.b, faults, retry)?;
            for r in 0..nt {
                for cc in 0..nt {
                    for t in 0..nt {
                        spe.tile_update(
                            layout,
                            (layout.c, r, cc),
                            (layout.a, r, t),
                            (layout.b, t, cc),
                        );
                    }
                }
            }
        }
        // Stage 2: the two diagonal blocks.
        dma_in_checked(spe, mem, bi, bi, layout.dlo, faults, retry)?;
        dma_in_checked(spe, mem, bj, bj, layout.dhi, faults, retry)?;
        for r in (0..nt).rev() {
            for cc in 0..nt {
                for tr in r + 1..nt {
                    spe.tile_update(
                        layout,
                        (layout.c, r, cc),
                        (layout.dlo, r, tr),
                        (layout.c, tr, cc),
                    );
                }
                for tc in 0..cc {
                    spe.tile_update(
                        layout,
                        (layout.c, r, cc),
                        (layout.c, r, tc),
                        (layout.dhi, tc, cc),
                    );
                }
                spe.scalar_edge(layout, layout.dlo, layout.dhi, r, cc);
            }
        }
    }
    dma_out_checked(spe, mem, bi, bj, layout.c, faults, retry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npdp_core::{Engine, SerialEngine};
    use npdp_exec::ExecContext;

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
            let (got, _) = functional_cellnpdp_f32(&seeds, nb);
            assert_eq!(expect.first_difference(&got), None, "n={n} nb={nb}");
        }
    }

    #[test]
    fn functional_sim_matches_host_simd_engine() {
        let seeds = random_seeds(40, 9);
        let host = npdp_core::SimdEngine::new(8).solve(&seeds);
        let (sim, _) = functional_cellnpdp_f32(&seeds, 8);
        assert_eq!(host.first_difference(&sim), None);
    }

    #[test]
    fn kernel_call_count_matches_model() {
        // For n divisible by nb, the kernel-call count must equal the
        // machine model's accounting.
        let n = 32;
        let nb = 8;
        let seeds = random_seeds(n, 3);
        let (_, calls) = functional_cellnpdp_f32(&seeds, nb);
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
        let (got, _) = functional_cellnpdp_f32(&seeds, 8);
        assert_eq!(expect.first_difference(&got), None);
    }

    #[test]
    fn dma_faults_recover_bit_identical() {
        let seeds = random_seeds(24, 11);
        let (clean, clean_calls) = functional_cellnpdp_f32(&seeds, 8);
        let faults = FaultInjector::new(
            npdp_fault::FaultPlan::seeded(77)
                .with_rate(FaultKind::DmaFail, 0.3)
                .with_rate(FaultKind::DmaCorrupt, 0.3),
        );
        let retry = RetryPolicy {
            max_attempts: 16,
            base_backoff: 1,
        };
        let (got, calls) = functional_cellnpdp_f32_with(
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
        let err = functional_cellnpdp_f32_with(
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
        let (clean, _) = functional_cellnpdp_f32(&seeds, 8);
        let faults = FaultInjector::new(npdp_fault::FaultPlan::seeded(9));
        let (got, _) = functional_cellnpdp_f32_with(
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
        let _ = functional_cellnpdp_f32(&seeds, 200);
    }
}
