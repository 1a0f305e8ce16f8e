//! The algebra behind the recurrence: a [`Semiring`] supplies the reduce
//! (`combine`, ⊕) and the composition (`extend`, ⊗) that the engines apply
//! to every `(i, k, j)` candidate, plus the padding identity that lets
//! triangular data live in square blocks.
//!
//! [`DpValue`] remains the *min-plus instance* of this algebra — its
//! `min2`/`add_sat`/`INFINITY` contract is exactly `combine`/`extend`/`zero`
//! for [`MinPlus`]. A ring's kernel surface is two methods:
//! [`Semiring::rank_update`] (a whole panel — for [`MinPlus`] the
//! host-native register-blocked kernel for `f32`/`f64`/`i32`/`i64`) and
//! [`Semiring::edge`] (the same-tile edge of one 4×4 computing block).
//! Other instances ([`MaxPlusRing`], the CYK tropical vector ring in
//! `apps::cyk`, the Zuker track ring in the `zuker` crate) reuse every
//! engine unchanged.
//!
//! # `combine` laws
//!
//! On every value a solve can hold, `combine` must be *exactly*
//! commutative (`a ⊕ b == b ⊕ a`), associative and idempotent (`a ⊕ a ==
//! a`), equal as elements and not merely as costs. Kernels rely on it: a
//! rank update may reach a cell's candidates in any order (the host-native
//! kernels) or reduce one candidate twice (the Zuker track-plane split). Every
//! shipped ring is `min` or `max` over validated values (no NaN, no `-0.0`)
//! or lane-wise `min`; the property tests next to each ring's padding law
//! pin it.
//!
//! # Padding contract
//!
//! Generalizing `DpValue::PAD_FLOOR`: engines only ever write
//! `extend(zero, x)` (or `extend(x, zero)`, or combinations thereof) into
//! block padding, and the ring must guarantee any such once-padded value
//! *loses* `combine` against every domain value. The property tests at the
//! bottom of this module pin that law for every shipped scalar ring;
//! composite rings (CYK, Zuker) carry the same test next to their
//! definitions.

use std::marker::PhantomData;

use crate::value::DpValue;

/// The `(⊕, ⊗)` algebra of an interval-containment DP.
///
/// Rings are passed **by value reference** (not as a pure type) so instances
/// may carry runtime data — a grammar's rule table, an energy model's
/// constants. Stateless rings like [`MinPlus`] are zero-sized and free to
/// clone.
///
/// # Determinism contract
///
/// Like [`DpValue`]: `combine` over a fixed candidate *set* must be
/// order-independent (engines evaluate candidates in different orders), and
/// every candidate is one `extend` of two fully finalized values — so all
/// engines produce bit-identical tables.
pub trait Semiring: Clone + Send + Sync + 'static {
    /// The table element. `PartialEq` (not `PartialOrd`) is required: rings
    /// over composite elements reduce field-wise and have no total order.
    type Elem: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static;

    /// Identity of `combine` — the padding value (min-plus: `+∞`).
    fn zero(&self) -> Self::Elem;

    /// Identity of `extend`, where one exists (min-plus: `0`). Composite
    /// rings whose `extend` has no two-sided identity return `None`.
    fn one(&self) -> Option<Self::Elem> {
        None
    }

    /// The reduce ⊕ (min-plus: `min`, first argument on ties). Exactly
    /// commutative, associative and idempotent on the values a solve can
    /// hold (module docs).
    fn combine(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// The composition ⊗ applied to each split candidate (min-plus:
    /// saturating `+`).
    fn extend(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Rank update of a `rows × cols` panel: `C = C ⊕ (A ⊗ B)` with a
    /// `rows × depth` A panel and a `depth × cols` B panel, all dimensions
    /// multiples of 4 and every panel row-strided. With [`Semiring::edge`]
    /// this is a ring's whole kernel surface.
    ///
    /// The default sweeps 4×4 tiles — tile rows, tile columns, then k-tiles
    /// ascending — with the scalar 64-iteration body. [`MinPlus`] overrides
    /// it with [`DpValue::rank_update`], the host-native register-blocked
    /// kernel for `f32`/`f64`/`i32`/`i64`; the CYK ring with its rule-lane
    /// kernel; and the Zuker track ring with a split into `i32` track planes
    /// run through `MinPlus<i32>`, plus a scalar pass over its unit-span
    /// operands. Floats see their candidates in ascending `k`; the integer
    /// and lane-wise rings in an order `min` cannot tell apart (the
    /// `combine` laws in the module docs).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn rank_update(
        &self,
        c: &mut [Self::Elem],
        cs: usize,
        a: &[Self::Elem],
        as_: usize,
        b: &[Self::Elem],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        for r in (0..rows).step_by(4) {
            for cc in (0..cols).step_by(4) {
                for k in (0..depth).step_by(4) {
                    for i in r..r + 4 {
                        for j in cc..cc + 4 {
                            let mut best = c[i * cs + j];
                            for kk in k..k + 4 {
                                best = self
                                    .combine(best, self.extend(a[i * as_ + kk], b[kk * bs + j]));
                            }
                            c[i * cs + j] = best;
                        }
                    }
                }
            }
        }
    }

    /// One 4×4×4 [`Semiring::rank_update`]: `C = C ⊕ (A ⊗ B)` on row-strided
    /// 4×4 tiles. A provided shorthand, not a hook: rings override
    /// `rank_update`, and this follows.
    #[inline]
    fn tile4(
        &self,
        c: &mut [Self::Elem],
        cs: usize,
        a: &[Self::Elem],
        as_: usize,
        b: &[Self::Elem],
        bs: usize,
    ) {
        self.rank_update(c, cs, a, as_, b, bs, 4, 4, 4);
    }

    /// The same-tile edge of one 4×4 computing block: the candidates whose
    /// operands share the tile being computed, then `finalize`. `t` is the
    /// C tile, `lo` the diagonal tile of its row range and `hi` the
    /// diagonal tile of its column range, all dense (stride 4). Cell
    /// `(il, jl)` reduces `extend(lo[il][k], t[k][jl])` for `k` in `il+1..4`
    /// (rows below), then `extend(t[il][k], hi[k][jl])` for `k` in `0..jl`
    /// (columns left), and is then replaced by `finalize(il, jl, acc)` —
    /// before any other cell reads it.
    ///
    /// The default is the paper's flowchart: cells bottom row first, left to
    /// right, candidates in that order. An override must reduce the same
    /// candidate set into every cell and finalize each cell after its last
    /// candidate; floats must keep the flowchart's per-cell order, the
    /// integer and lane-wise rings may reorder (the `combine` laws).
    #[inline]
    fn edge(
        &self,
        t: &mut [Self::Elem; 16],
        lo: &[Self::Elem; 16],
        hi: &[Self::Elem; 16],
        finalize: impl Fn(usize, usize, Self::Elem) -> Self::Elem,
    ) {
        for il in (0..4).rev() {
            for jl in 0..4 {
                let mut best = t[il * 4 + jl];
                for kl in il + 1..4 {
                    best = self.combine(best, self.extend(lo[il * 4 + kl], t[kl * 4 + jl]));
                }
                for kl in 0..jl {
                    best = self.combine(best, self.extend(t[il * 4 + kl], hi[kl * 4 + jl]));
                }
                t[il * 4 + jl] = finalize(il, jl, best);
            }
        }
    }

    /// Padding-law witness: `true` when `padded` loses `combine` against
    /// `probe` from either side. Engines may `debug_assert` this over block
    /// padding after a sweep; the property tests drive it exhaustively.
    #[inline]
    fn padding_loses(&self, padded: Self::Elem, probe: Self::Elem) -> bool {
        self.combine(probe, padded) == probe && self.combine(padded, probe) == probe
    }
}

/// The min-plus ring over any [`DpValue`] — the paper's algebra, delegating
/// every operation (including the host-native rank update) to the `DpValue`
/// methods. The SIMD and parallel engines solve the closure through it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MinPlus<T>(PhantomData<T>);

impl<T> MinPlus<T> {
    /// The min-plus ring (zero-sized).
    pub const fn new() -> Self {
        MinPlus(PhantomData)
    }
}

impl<T: DpValue> Semiring for MinPlus<T> {
    type Elem = T;

    #[inline(always)]
    fn zero(&self) -> T {
        T::INFINITY
    }

    #[inline(always)]
    fn one(&self) -> Option<T> {
        Some(T::ZERO)
    }

    #[inline(always)]
    fn combine(&self, a: T, b: T) -> T {
        T::min2(a, b)
    }

    #[inline(always)]
    fn extend(&self, a: T, b: T) -> T {
        T::add_sat(a, b)
    }

    #[inline(always)]
    fn rank_update(
        &self,
        c: &mut [T],
        cs: usize,
        a: &[T],
        as_: usize,
        b: &[T],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        T::rank_update(c, cs, a, as_, b, bs, rows, cols, depth);
    }
}

/// The max-plus ring over plain scalars — longest chains, most-profitable
/// decompositions. `combine` takes the larger value (first argument on
/// ties), `extend` is the same saturating `+` as min-plus, and `zero` is
/// `-∞` (floats) or a quarter-`MIN` pseudo-infinity (integers).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaxPlusRing<T>(PhantomData<T>);

impl<T> MaxPlusRing<T> {
    /// The max-plus ring (zero-sized).
    pub const fn new() -> Self {
        MaxPlusRing(PhantomData)
    }
}

macro_rules! max_plus_ring {
    ($t:ty, $neg_inf:expr) => {
        impl Semiring for MaxPlusRing<$t> {
            type Elem = $t;

            #[inline(always)]
            fn zero(&self) -> $t {
                $neg_inf
            }

            #[inline(always)]
            fn one(&self) -> Option<$t> {
                Some(<$t as DpValue>::ZERO)
            }

            // "b if strictly larger, else a": the first argument wins ties,
            // like min-plus `min2`.
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t {
                if b > a {
                    b
                } else {
                    a
                }
            }

            #[inline(always)]
            fn extend(&self, a: $t, b: $t) -> $t {
                <$t as DpValue>::add_sat(a, b)
            }
        }
    };
}

max_plus_ring!(f32, f32::NEG_INFINITY);
max_plus_ring!(f64, f64::NEG_INFINITY);
max_plus_ring!(i32, i32::MIN / 4);
max_plus_ring!(i64, i64::MIN / 4);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The `combine` laws (module docs) over every pair and triple of
    /// `domain`: exactly commutative, associative and idempotent.
    pub(crate) fn combine_laws<S: Semiring>(ring: &S, domain: &[S::Elem]) {
        for &x in domain {
            assert_eq!(ring.combine(x, x), x, "not idempotent at {x:?}");
            for &y in domain {
                let xy = ring.combine(x, y);
                assert_eq!(xy, ring.combine(y, x), "not commutative at {x:?}, {y:?}");
                for &z in domain {
                    assert_eq!(
                        ring.combine(xy, z),
                        ring.combine(x, ring.combine(y, z)),
                        "not associative at {x:?}, {y:?}, {z:?}"
                    );
                }
            }
        }
    }

    /// The padding law (satellite of `PAD_FLOOR`/`add_sat`): any value a
    /// block-padding cell can hold — one `extend` against `zero`, from
    /// either side, or pure `zero ⊗ zero` — must lose `combine` to every
    /// domain value.
    fn padding_law<S: Semiring>(ring: &S, domain: &[S::Elem]) {
        let z = ring.zero();
        for &v in domain {
            for &x in domain {
                for padded in [ring.extend(z, x), ring.extend(x, z), ring.extend(z, z), z] {
                    assert!(
                        ring.padding_loses(padded, v),
                        "padding {padded:?} beat domain value {v:?}"
                    );
                }
            }
        }
    }

    /// Pseudo-random domain samples, deliberately pushed near the padding
    /// floor for integers (the interesting overflow regime).
    fn int_domain<T: TryFrom<i64>>(floor: i64, signed: bool) -> Vec<T>
    where
        <T as TryFrom<i64>>::Error: std::fmt::Debug,
    {
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut out: Vec<i64> = vec![0, 1, floor - 1, floor / 2];
        if signed {
            out.extend_from_slice(&[-1, -(floor - 1), -(floor / 2)]);
        }
        for _ in 0..200 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let m = (s >> 11) as i64 % floor;
            out.push(if signed { m - floor / 2 } else { m });
        }
        out.into_iter().map(|v| T::try_from(v).unwrap()).collect()
    }

    #[test]
    fn min_plus_padding_law_all_types() {
        // Integer domain values must stay below PAD_FLOOR and non-negative
        // (the documented seed contract `seed_issue` enforces).
        padding_law(
            &MinPlus::<i32>::new(),
            &int_domain::<i32>((i32::MAX / 8) as i64, false),
        );
        padding_law(
            &MinPlus::<i64>::new(),
            &int_domain::<i64>(i64::MAX / 8, false),
        );
        padding_law(&MinPlus::<f32>::new(), &[0.0, 1.5, 1e30, 1e-30]);
        padding_law(&MinPlus::<f64>::new(), &[0.0, 2.5, 1e300, 1e-300]);
    }

    #[test]
    fn max_plus_padding_law_all_types() {
        // Max-plus domain values are two-sided (losses along a chain) but
        // must stay above the negated pad floor.
        padding_law(
            &MaxPlusRing::<i32>::new(),
            &int_domain::<i32>((i32::MAX / 8) as i64, true),
        );
        padding_law(
            &MaxPlusRing::<i64>::new(),
            &int_domain::<i64>(i64::MAX / 8, true),
        );
        padding_law(&MaxPlusRing::<f32>::new(), &[-1e30, -1.0, 0.0, 1.0, 1e30]);
        padding_law(&MaxPlusRing::<f64>::new(), &[-1e300, -2.0, 0.0, 2.0, 1e300]);
    }

    /// `combine` laws for the scalar rings, on domain values, padding and
    /// once-padded values. Floats carry ties, subnormals and `±∞` but no
    /// NaN and no `-0.0` (seed validation rejects both, and sums of
    /// non-negative values never make them). Compared with `==`, which on
    /// that domain is bit equality.
    #[test]
    fn combine_laws_all_scalar_rings() {
        let f32s = [0.0, 1.5, 1.5, 3.0, 1e30, f32::MAX, 1e-45, f32::INFINITY];
        let f64s = [0.0, 2.5, 2.5, 5.0, 1e300, f64::MAX, 5e-324, f64::INFINITY];
        let ints = |floor: i64| -> Vec<i64> {
            let mut v = int_domain::<i64>(floor, true);
            v.truncate(20);
            v.extend([floor, 2 * floor, 4 * floor - 1]);
            v
        };
        let i32s: Vec<i32> = ints((i32::MAX / 8) as i64)
            .into_iter()
            .map(|v| v as i32)
            .collect();
        let i64s = ints(i64::MAX / 8);
        combine_laws(&MinPlus::<f32>::new(), &f32s);
        combine_laws(&MinPlus::<f64>::new(), &f64s);
        combine_laws(&MinPlus::<i32>::new(), &i32s);
        combine_laws(&MinPlus::<i64>::new(), &i64s);
        let neg = |v: &[f32]| v.iter().map(|x| -x).chain([0.0]).collect::<Vec<_>>();
        combine_laws(&MaxPlusRing::<f32>::new(), &neg(&f32s[1..]));
        let neg64 = f64s[1..]
            .iter()
            .map(|x| -x)
            .chain([0.0])
            .collect::<Vec<_>>();
        combine_laws(&MaxPlusRing::<f64>::new(), &neg64);
        combine_laws(&MaxPlusRing::<i32>::new(), &i32s);
        combine_laws(&MaxPlusRing::<i64>::new(), &i64s);
    }

    #[test]
    fn min_plus_matches_dp_value_ops() {
        let r = MinPlus::<f32>::new();
        assert_eq!(r.zero(), f32::INFINITY);
        assert_eq!(r.one(), Some(0.0));
        assert_eq!(r.combine(2.0, 3.0), 2.0);
        assert_eq!(r.extend(2.0, 3.0), 5.0);
        let ri = MinPlus::<i64>::new();
        assert_eq!(ri.extend(i64::MAX, 5), i64::MAX, "saturates");
        // Tie goes to the first argument, like min2.
        assert_eq!(ri.combine(7, 7), 7);
    }

    #[test]
    fn max_plus_ring_combine_is_max_first_on_ties() {
        let r = MaxPlusRing::<i32>::new();
        assert_eq!(r.combine(3, 5), 5);
        assert_eq!(r.combine(5, 3), 5);
        assert_eq!(r.combine(-2, r.zero()), -2);
        assert_eq!(r.extend(i32::MIN / 4, -1), i32::MIN / 4 - 1);
        // Saturation on the negative edge cannot wrap into a huge positive.
        assert_eq!(r.extend(i32::MIN, -1), i32::MIN);
    }

    #[test]
    fn generic_tile4_matches_dp_value_tile4() {
        // `tile4` through MinPlus's host-native `rank_update` and the scalar
        // 4×4 loop must agree bit for bit.
        let ring = MinPlus::<f32>::new();
        let stride = 5;
        let mk = |off: usize| -> Vec<f32> {
            (0..4 * stride)
                .map(|i| ((i * 37 + off) % 101) as f32 * 0.5)
                .collect()
        };
        let (a, b, c0) = (mk(1), mk(2), mk(3));

        let mut via_ring = c0.clone();
        ring.tile4(&mut via_ring, stride, &a, stride, &b, stride);

        struct ScalarOnly;
        impl ScalarOnly {
            fn run(ring: &MinPlus<f32>, c: &mut [f32], cs: usize, a: &[f32], b: &[f32], s: usize) {
                for r in 0..4 {
                    for cc in 0..4 {
                        let mut best = c[r * cs + cc];
                        for k in 0..4 {
                            best = ring.combine(best, ring.extend(a[r * s + k], b[k * s + cc]));
                        }
                        c[r * cs + cc] = best;
                    }
                }
            }
        }
        let mut scalar = c0;
        ScalarOnly::run(&ring, &mut scalar, stride, &a, &b, stride);
        assert_eq!(via_ring, scalar);
    }
}
