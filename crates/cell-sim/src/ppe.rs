//! Cost models for the *original* (Fig. 1) algorithm on the PPE and on one
//! SPE — the Table II baselines.
//!
//! The original triple loop is latency-bound: the inner access `d[k][j]`
//! walks a column of the row-major triangular matrix, touching one element
//! per cache line per row. Its per-iteration cost is therefore set by where
//! that column's *line footprint* (`n` lines of 64 B) lives:
//!
//! * fits L1 → pipeline-bound;
//! * fits L2 → one in-order L2 hit per iteration;
//! * else → one memory access per iteration (plus TLB pressure at the top
//!   end — the paper's 16K point also thrashes the 1 GB blade, §VI-A.5).
//!
//! The SPE has no cache at all: every column element is an individual DMA
//! element transfer whose latency cannot be amortized, which is why the
//! original algorithm is *slower* on one SPE than on the PPE (Table II) —
//! the observation motivating the whole paper.
//!
//! Penalty constants are calibrated against Table II and documented in
//! EXPERIMENTS.md; the *structure* (which regime applies at which size) is
//! the model.

/// Floating-point precision of the DP values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// 32-bit lanes (4 per register).
    Single,
    /// 64-bit lanes (2 per register).
    Double,
}

impl Precision {
    /// Element size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// SIMD lanes per 128-bit register.
    pub fn lanes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 2,
        }
    }
}

/// Exact relaxation count of the exclusive-k triple loop:
/// `Σ_{j} Σ_{i<j} (j-i-1) = n(n-1)(n-2)/6`.
pub fn relaxations(n: u64) -> u64 {
    if n < 3 {
        return 0;
    }
    n * (n - 1) * (n - 2) / 6
}

/// PPE cost model for the original algorithm.
#[derive(Debug, Clone, Copy)]
pub struct PpeModel {
    /// Core clock in Hz.
    pub freq_hz: f64,
    /// Cycles per iteration when the column footprint fits L1.
    pub base_cycles: f64,
    /// Added cycles per iteration for an in-order L2 hit.
    pub l2_penalty: f64,
    /// Added cycles per iteration for a main-memory access.
    pub mem_penalty: f64,
    /// Added cycles per iteration once the working set also overwhelms the
    /// TLB / physical memory (the paper's 16K DP point).
    pub thrash_penalty: f64,
    /// L1 data cache bytes.
    pub l1_bytes: f64,
    /// L2 cache bytes.
    pub l2_bytes: f64,
    /// Cache line bytes.
    pub line_bytes: f64,
    /// Footprint (bytes) beyond which thrashing sets in.
    pub thrash_bytes: f64,
}

impl PpeModel {
    /// The QS20's PPE (3.2 GHz, 32 KB L1d, 512 KB L2), penalties calibrated
    /// to Table II.
    pub fn qs20() -> Self {
        Self {
            freq_hz: 3.2e9,
            base_cycles: 12.0,
            l2_penalty: 188.0,
            mem_penalty: 748.0,
            thrash_penalty: 55.0,
            l1_bytes: 32.0 * 1024.0,
            l2_bytes: 512.0 * 1024.0,
            line_bytes: 128.0,
            thrash_bytes: 700e6,
        }
    }

    /// Modelled cycles per inner-loop iteration at problem size `n`.
    pub fn cycles_per_iteration(&self, n: u64, prec: Precision) -> f64 {
        // Column line footprint: one line per row of the column walk.
        let footprint = n as f64 * self.line_bytes;
        let mut c = self.base_cycles;
        if footprint > self.l1_bytes && footprint <= self.l2_bytes {
            c += self.l2_penalty;
        } else if footprint > self.l2_bytes {
            c += self.mem_penalty;
        }
        let dataset = n as f64 * n as f64 / 2.0 * prec.bytes() as f64;
        if dataset > self.thrash_bytes {
            c += self.thrash_penalty;
        }
        if prec == Precision::Double {
            // Non-pipelined DP FPU on the PPE plus double the data volume.
            c *= 1.35;
        }
        c
    }

    /// Modelled seconds for the original algorithm at size `n`.
    pub fn seconds_original(&self, n: u64, prec: Precision) -> f64 {
        relaxations(n) as f64 * self.cycles_per_iteration(n, prec) / self.freq_hz
    }
}

/// One-SPE cost model for the original algorithm (element-granular DMA,
/// no cache): per-iteration cost is a size-independent DMA round trip.
#[derive(Debug, Clone, Copy)]
pub struct SpeScalarModel {
    /// Core clock in Hz.
    pub freq_hz: f64,
    /// Cycles per iteration, single precision (DMA element fetch latency
    /// dominated; calibrated to Table II's ~860).
    pub sp_cycles: f64,
    /// Cycles per iteration, double precision (~1425 in Table II).
    pub dp_cycles: f64,
}

impl SpeScalarModel {
    /// QS20 SPE, calibrated to Table II.
    pub fn qs20() -> Self {
        Self {
            freq_hz: 3.2e9,
            sp_cycles: 858.0,
            dp_cycles: 1425.0,
        }
    }

    /// Modelled seconds for the original algorithm on one SPE.
    pub fn seconds_original(&self, n: u64, prec: Precision) -> f64 {
        let c = match prec {
            Precision::Single => self.sp_cycles,
            Precision::Double => self.dp_cycles,
        };
        relaxations(n) as f64 * c / self.freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxation_count_small_cases() {
        assert_eq!(relaxations(0), 0);
        assert_eq!(relaxations(2), 0);
        assert_eq!(relaxations(3), 1);
        assert_eq!(relaxations(4), 4);
        // n=5: j-i-1 summed = C(5,3) = 10.
        assert_eq!(relaxations(5), 10);
    }

    #[test]
    fn ppe_model_matches_table2_sp_within_25_percent() {
        let m = PpeModel::qs20();
        for (n, paper_s) in [(4096u64, 715.0), (8192, 21961.0), (16384, 187945.0)] {
            let s = m.seconds_original(n, Precision::Single);
            let ratio = s / paper_s;
            assert!(
                (0.75..1.35).contains(&ratio),
                "n={n}: modelled {s:.0}s vs paper {paper_s}s (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn ppe_model_regimes_are_monotone() {
        let m = PpeModel::qs20();
        let c1 = m.cycles_per_iteration(128, Precision::Single);
        let c2 = m.cycles_per_iteration(2048, Precision::Single);
        let c3 = m.cycles_per_iteration(8192, Precision::Single);
        assert!(c1 < c2 && c2 < c3);
    }

    #[test]
    fn spe_model_matches_table2_within_10_percent() {
        let m = SpeScalarModel::qs20();
        for (n, paper_s) in [(4096u64, 3061.0), (8192, 24588.0), (16384, 198432.0)] {
            let s = m.seconds_original(n, Precision::Single);
            let ratio = s / paper_s;
            assert!((0.9..1.1).contains(&ratio), "n={n}: {s:.0} vs {paper_s}");
        }
        for (n, paper_s) in [(4096u64, 5096.0), (8192, 40752.0), (16384, 327276.0)] {
            let s = m.seconds_original(n, Precision::Double);
            let ratio = s / paper_s;
            assert!((0.9..1.1).contains(&ratio), "DP n={n}: {s:.0} vs {paper_s}");
        }
    }

    #[test]
    fn spe_slower_than_ppe_at_small_sizes() {
        // Table II's counterintuitive baseline: one SPE is ~4× slower than
        // the PPE at n=4096 because it has no cache at all.
        let ppe = PpeModel::qs20().seconds_original(4096, Precision::Single);
        let spe = SpeScalarModel::qs20().seconds_original(4096, Precision::Single);
        assert!(spe > 2.0 * ppe);
    }

    #[test]
    fn double_precision_costs_more() {
        let m = PpeModel::qs20();
        for n in [1024u64, 4096, 16384] {
            assert!(
                m.seconds_original(n, Precision::Double) > m.seconds_original(n, Precision::Single)
            );
        }
    }
}
