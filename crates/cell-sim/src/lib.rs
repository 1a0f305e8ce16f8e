//! # cell-sim — a Cell Broadband Engine simulator substrate
//!
//! The paper's experiments ran on an IBM QS20 dual-Cell blade; that hardware
//! is gone, so this crate rebuilds the pieces of the Cell that CellNPDP's
//! claims rest on (see DESIGN.md's substitution table):
//!
//! * [`isa`] — the SPU instruction subset with Table I's latencies and
//!   pipeline types;
//! * [`spu`] — a functional SPU (128 × 128-bit registers, 256 KB local
//!   store) and a cycle-approximate dual-issue in-order scheduler;
//! * [`kernels`] — the computing-block kernel programs (naive 128-instr,
//!   register-blocked 80-instr, reassociated tree variant, DP variant);
//! * [`swp`] — the software-pipelining pass that reaches the paper's
//!   ~54-cycle kernel schedule;
//! * [`dma`] — the asynchronous DMA / EIB transfer-cost model with
//!   per-transfer startup (why the contiguous NDL layout wins);
//! * [`ppe`] — scalar cost models for the original algorithm on the PPE and
//!   on one SPE (the Table II baselines);
//! * [`machine`] — the QS20 machine model and the block-granular
//!   discrete-event simulation of CellNPDP (Table II, Figures 9a/10a/11a/13);
//! * [`npdp`] — CellNPDP run *functionally* on one simulated SPU for small
//!   problems, SP or DP through one generic procedure, validating the
//!   simulated numerics against `npdp-core`;
//! * [`multi_spe`] — the full Fig. 8 protocol on several simulated SPUs.
//!
//! ## Fidelity model
//!
//! Functional mode executes real SPU programs instruction by instruction and
//! must agree bit-for-bit with the host engines. Performance mode is
//! sampling-based: the kernel's cycle cost comes from scheduling the actual
//! instruction sequence once, DMA costs from the transfer-size model, and
//! whole-run times from a discrete-event simulation at memory-block
//! granularity — the standard way to project paper-scale problem sizes
//! (n = 16384 executes ~7·10¹¹ lane operations; nobody simulates that
//! instruction by instruction).

//! ## Example: assemble, run, and time an SPU snippet
//!
//! ```
//! use cell_sim::{assemble, schedule, Spu};
//!
//! let program = assemble(
//!     "lqd r1, 0\nlqd r2, 16\nfa r3, r1, r2\nstqd r3, 32",
//! ).unwrap();
//!
//! let mut spu = Spu::new();
//! spu.write_f32(0, &[1.0, 2.0, 3.0, 4.0]);
//! spu.write_f32(16, &[10.0; 4]);
//! spu.execute(&program);
//! assert_eq!(spu.read_f32(32, 4), vec![11.0, 12.0, 13.0, 14.0]);
//!
//! // Dual-issue in-order timing of the same snippet.
//! let s = schedule(&program);
//! assert!(s.cycles >= 13); // lqd(6) → fa(6) → stqd latency chain
//! ```

pub mod asm;
pub mod dma;
pub mod isa;
pub mod kernels;
pub mod looped;
pub mod machine;
pub mod mailbox;
pub mod multi_spe;
pub mod npdp;
pub mod ppe;
pub mod spu;
pub mod swp;

pub use asm::{assemble, disassemble, disassemble_scheduled};
pub use isa::{Instr, InstrMix, Pipe, Reg};
pub use machine::{simulate, CellConfig, SimReport, SimSpec};
pub use mailbox::Mailbox;
pub use multi_spe::{
    functional_cellnpdp_multi_spe, functional_cellnpdp_multi_spe_with, MultiSpeReport,
};
pub use npdp_exec::ExecContext;
pub use spu::{schedule, Schedule, Spu};
pub use swp::{software_pipeline, Pipelined};
