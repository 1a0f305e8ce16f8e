//! The DP value abstraction: a min-plus semiring element.
//!
//! NPDP's recurrence `d[i][j] = min(d[i][j], d[i][k] + d[k][j])` needs only
//! `min`, `+` and an identity of `min` (`+∞`) to pad triangular blocks into
//! squares. Everything in this workspace is generic over [`DpValue`]; its
//! one kernel hook, [`DpValue::rank_update`], sends every panel update of
//! `f32`/`f64`/`i32`/`i64` to the host-native kernels of the `simd-kernel`
//! crate. (The paper's 80-instruction 4×4 kernel stays there, as
//! `simd_kernel::block4x4_minplus_f32`, the Table I reference.)

use crate::error::SeedIssue;
use simd_kernel::{
    minplus_rank_update_f32, minplus_rank_update_f64, minplus_rank_update_i32,
    minplus_rank_update_i64,
};

/// A value usable in the min-plus NPDP recurrence.
///
/// # Determinism contract
///
/// Every candidate `d[i][k] + d[k][j]` is a *single* addition of two fully
/// finalized values, and `min` over a fixed candidate set is order
/// independent, so every engine in this workspace produces **bit-identical**
/// tables for any evaluation order that respects the interval-containment
/// dependences. Tests rely on exact equality.
///
/// # Infinity contract
///
/// `INFINITY` must absorb addition (`INFINITY + x` never compares less than
/// any domain value) and be the identity of `min`. For floats this is the
/// IEEE `+∞`; for integers a quarter of `MAX` so that one addition of two
/// padding values cannot overflow. Integer problem seeds must therefore stay
/// below `INFINITY / 2`.
pub trait DpValue:
    Copy + PartialOrd + std::ops::Add<Output = Self> + Send + Sync + std::fmt::Debug + 'static
{
    /// The identity of `min` (padding value).
    const INFINITY: Self;
    /// The identity of `+` (useful for application seeds).
    const ZERO: Self;
    /// Lower bound that any once-padded cell can reach: engines only ever
    /// write `INFINITY + x` into padding, which for floats stays exactly
    /// `INFINITY` but for integers can dip by a domain value. Domain values
    /// must stay below `PAD_FLOOR` so padding never wins a `min`.
    const PAD_FLOOR: Self;

    /// `min(a, b)` taking the first argument on ties (compare + select, as
    /// the SPE does it).
    #[inline(always)]
    fn min2(a: Self, b: Self) -> Self {
        if a > b {
            b
        } else {
            a
        }
    }

    /// Saturating min-plus addition: on valid inputs identical to `a + b`,
    /// but integer overflow clamps instead of wrapping, so `INFINITY +
    /// INFINITY` (or adversarial near-`MAX` inputs) can never wrap around
    /// into a winning candidate. Floats already saturate at `±∞` natively.
    #[inline(always)]
    fn add_sat(a: Self, b: Self) -> Self {
        a + b
    }

    /// Validate one problem seed at the engine boundary: `None` if usable,
    /// or the reason it is not. The default rejects NaN (`v != v`) and
    /// values below [`DpValue::ZERO`] (negative lengths); order-reversing
    /// wrappers override it.
    #[inline]
    fn seed_issue(v: Self) -> Option<crate::error::SeedIssue> {
        #[allow(clippy::eq_op)]
        if v != v {
            Some(crate::error::SeedIssue::NotANumber)
        } else if v < Self::ZERO {
            Some(crate::error::SeedIssue::Negative)
        } else {
            None
        }
    }

    /// Min-plus rank update of a `rows × cols` panel of C by a `rows ×
    /// depth` panel of A and a `depth × cols` panel of B (all multiples of
    /// 4, row-strided: `cs`, `as_`, `bs` are row strides in elements). Each
    /// impl sends it to its host-native kernel in `simd_kernel::rank`; a
    /// float cell sees its candidates in ascending `k`.
    #[allow(clippy::too_many_arguments)]
    fn rank_update(
        c: &mut [Self],
        cs: usize,
        a: &[Self],
        as_: usize,
        b: &[Self],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    );
}

/// Float seeds: NaN, or any sign-negative value — `-0.0` included. A `-0.0`
/// seed compares equal to `+0.0` and is not `< 0.0`, so the default check
/// lets it through; which of the two zeros a cell then ends with depends on
/// candidate order, and engines would differ in bits.
#[inline]
fn float_seed_issue(nan: bool, sign_negative: bool) -> Option<SeedIssue> {
    if nan {
        Some(SeedIssue::NotANumber)
    } else if sign_negative {
        Some(SeedIssue::Negative)
    } else {
        None
    }
}

impl DpValue for f32 {
    const INFINITY: Self = f32::INFINITY;
    const ZERO: Self = 0.0;
    const PAD_FLOOR: Self = f32::INFINITY;

    #[inline]
    fn seed_issue(v: Self) -> Option<SeedIssue> {
        float_seed_issue(v.is_nan(), v.is_sign_negative())
    }

    #[inline(always)]
    fn rank_update(
        c: &mut [Self],
        cs: usize,
        a: &[Self],
        as_: usize,
        b: &[Self],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        minplus_rank_update_f32(c, cs, a, as_, b, bs, rows, cols, depth);
    }
}

impl DpValue for f64 {
    const INFINITY: Self = f64::INFINITY;
    const ZERO: Self = 0.0;
    const PAD_FLOOR: Self = f64::INFINITY;

    #[inline]
    fn seed_issue(v: Self) -> Option<SeedIssue> {
        float_seed_issue(v.is_nan(), v.is_sign_negative())
    }

    #[inline(always)]
    fn rank_update(
        c: &mut [Self],
        cs: usize,
        a: &[Self],
        as_: usize,
        b: &[Self],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        minplus_rank_update_f64(c, cs, a, as_, b, bs, rows, cols, depth);
    }
}

impl DpValue for i32 {
    const INFINITY: Self = i32::MAX / 4;
    const ZERO: Self = 0;
    const PAD_FLOOR: Self = i32::MAX / 8;

    #[inline(always)]
    fn add_sat(a: Self, b: Self) -> Self {
        a.saturating_add(b)
    }

    #[inline(always)]
    fn rank_update(
        c: &mut [Self],
        cs: usize,
        a: &[Self],
        as_: usize,
        b: &[Self],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        minplus_rank_update_i32(c, cs, a, as_, b, bs, rows, cols, depth);
    }
}

impl DpValue for i64 {
    const INFINITY: Self = i64::MAX / 4;
    const ZERO: Self = 0;
    const PAD_FLOOR: Self = i64::MAX / 8;

    #[inline(always)]
    fn add_sat(a: Self, b: Self) -> Self {
        a.saturating_add(b)
    }

    #[inline(always)]
    fn rank_update(
        c: &mut [Self],
        cs: usize,
        a: &[Self],
        as_: usize,
        b: &[Self],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        minplus_rank_update_i64(c, cs, a, as_, b, bs, rows, cols, depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min2_prefers_smaller() {
        assert_eq!(f32::min2(1.0, 2.0), 1.0);
        assert_eq!(f32::min2(2.0, 1.0), 1.0);
        assert_eq!(i64::min2(-5, 3), -5);
    }

    #[test]
    fn min2_infinity_identity() {
        assert_eq!(f64::min2(f64::INFINITY, 7.0), 7.0);
        assert_eq!(i32::min2(i32::INFINITY, 7), 7);
    }

    #[test]
    fn int_infinity_addition_safe() {
        // One addition of two infinities stays below MAX (no overflow) and
        // above INFINITY (never beats a real value after min-padding).
        let s = i32::INFINITY + i32::INFINITY;
        assert!(s > i32::INFINITY);
        let s = i64::INFINITY + i64::INFINITY;
        assert!(s > i64::INFINITY);
    }

    fn tile_update_matches_scalar<T: DpValue>(vals: impl Fn(usize) -> T) {
        let stride = 5;
        let mk = |off: usize| -> Vec<T> { (0..4 * stride).map(|i| vals(i * 7 + off)).collect() };
        let a = mk(1);
        let b = mk(2);
        let c0 = mk(3);

        let mut c_fast = c0.clone();
        T::rank_update(&mut c_fast, stride, &a, stride, &b, stride, 4, 4, 4);

        let mut c_ref = c0;
        for r in 0..4 {
            for cc in 0..4 {
                let mut best = c_ref[r * stride + cc];
                for k in 0..4 {
                    best = T::min2(best, a[r * stride + k] + b[k * stride + cc]);
                }
                c_ref[r * stride + cc] = best;
            }
        }
        for r in 0..4 {
            for cc in 0..4 {
                assert!(
                    c_fast[r * stride + cc] == c_ref[r * stride + cc],
                    "mismatch at ({r},{cc})"
                );
            }
        }
    }

    #[test]
    fn add_sat_matches_add_on_domain_values() {
        assert_eq!(i32::add_sat(3, 4), 7);
        assert_eq!(i64::add_sat(i64::INFINITY, 1), i64::INFINITY + 1);
        assert_eq!(f32::add_sat(1.5, 2.5), 4.0);
        assert_eq!(f64::add_sat(f64::INFINITY, 1.0), f64::INFINITY);
    }

    #[test]
    fn add_sat_cannot_wrap() {
        // Raw MAX inputs wrap under `+` but clamp under `add_sat`, so an
        // adversarial "infinity" can never wrap into a winning candidate.
        assert_eq!(i32::add_sat(i32::MAX, i32::MAX), i32::MAX);
        assert_eq!(i64::add_sat(i64::MAX, 1), i64::MAX);
        assert!(i32::min2(i32::add_sat(i32::MAX, i32::MAX), 5) == 5);
    }

    #[test]
    fn seed_issue_flags_nan_and_negative() {
        use crate::error::SeedIssue;
        assert_eq!(f32::seed_issue(1.0), None);
        assert_eq!(f32::seed_issue(0.0), None);
        assert_eq!(f32::seed_issue(f32::INFINITY), None);
        assert_eq!(f32::seed_issue(f32::NAN), Some(SeedIssue::NotANumber));
        assert_eq!(f32::seed_issue(-1.0), Some(SeedIssue::Negative));
        assert_eq!(f32::seed_issue(-0.0), Some(SeedIssue::Negative));
        assert_eq!(f64::seed_issue(-0.0), Some(SeedIssue::Negative));
        assert_eq!(
            f64::seed_issue(f64::NEG_INFINITY),
            Some(SeedIssue::Negative)
        );
        assert_eq!(f64::seed_issue(0.0), None);
        assert_eq!(f64::seed_issue(f64::NAN), Some(SeedIssue::NotANumber));
        assert_eq!(i32::seed_issue(-3), Some(SeedIssue::Negative));
        assert_eq!(i64::seed_issue(7), None);
    }

    #[test]
    fn f32_override_matches_default() {
        tile_update_matches_scalar::<f32>(|i| ((i * 37) % 101) as f32 * 0.5);
    }

    #[test]
    fn f64_override_matches_default() {
        tile_update_matches_scalar::<f64>(|i| ((i * 53) % 97) as f64 * 0.25);
    }

    #[test]
    fn i32_default_kernel() {
        tile_update_matches_scalar::<i32>(|i| ((i * 31) % 89) as i32);
    }
}

#[cfg(test)]
mod max_plus;
