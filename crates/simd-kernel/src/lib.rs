//! Portable 128-bit SIMD substrate and the CellNPDP computing-block kernels.
//!
//! The paper (Liu et al., IPDPS 2011) computes 4×4 *computing blocks* with a
//! register-blocked sequence of 80 SIMD instructions (Table I): 12 loads,
//! 16 shuffles (lane broadcasts), 16 adds, 16 compares, 16 selects and
//! 4 stores. The SPE has no `min` instruction, so a minimum is a
//! compare-then-select pair — this crate mirrors that structure so the host
//! kernel and the `cell-sim` SPU program share one dataflow.
//!
//! The vector types here are plain `#[repr(transparent)]` wrappers over fixed
//! arrays with `#[inline(always)]` lane-wise operations; LLVM reliably lowers
//! them to SSE/AVX/NEON 128-bit instructions, which play the role of the SPU's
//! 128-bit SIMD unit. That 4×4 kernel stays the Table I reference.
//!
//! The host does not have to copy the SPU's shape: [`rank`] holds the
//! host-native min-plus rank update (`C ⊕= A ⊗ B` on whole panels) for
//! `f32`, `f64`, `i32` and `i64`. Its entry points dispatch at run time
//! between three tiers: an AVX-512F micro-kernel (a 6 × 64 `f32` tile in 24
//! `zmm` accumulators), an AVX2 one (6 × 16 in 12 `ymm`), and the 4×4
//! sweep (`i32` and `i64` have no AVX-512 tier). Every candidate is one add
//! and one `min(cand, acc)`, k ascending, with the same `MINPS` tie and NaN
//! rule at every width; the integer tiers run only where no add can wrap.
//! So all three tiers give the same bits. [`lane`]
//! holds its `i32` sibling for rings whose element is a vector of
//! independent tropical lanes (rule-lane CYK): `C ⊕= A ⊗ B` lane by lane,
//! one 256-bit register per element (AVX2 or portable). These two modules
//! are the only `unsafe` and the only ISA-specific code in the crate.
//!
//! ```
//! use simd_kernel::{block4x4_minplus_f32, F32x4, KERNEL_SIMD_INSTRUCTIONS};
//!
//! // One computing-block update C = min(C, A ⊗ B).
//! let a = [F32x4::splat(1.0); 4];
//! let b = [F32x4::splat(2.0); 4];
//! let mut c = [F32x4::splat(10.0); 4];
//! block4x4_minplus_f32(&mut c, &a, &b);
//! assert_eq!(c[0].to_array(), [3.0; 4]); // 1 + 2 beats 10
//!
//! // The paper's Table I: 80 SIMD instructions per update.
//! assert_eq!(KERNEL_SIMD_INSTRUCTIONS.total(), 80);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod kernel;
pub mod lane;
pub mod rank;
pub mod vec;

pub use kernel::{
    block4x4_minplus_f32, block4x4_minplus_f32_arrays, block4x4_minplus_f64,
    block4x4_minplus_f64_arrays, block4x4_minplus_scalar, BlockF32, BlockF64,
    KERNEL_SIMD_INSTRUCTIONS,
};
pub use lane::{lanewise_rank_update_i32x8, I32Lanes};
pub use rank::{
    minplus_rank_update_f32, minplus_rank_update_f64, minplus_rank_update_i32,
    minplus_rank_update_i64,
};
pub use vec::{F32x4, F64x2, I32x4, I64x2};
