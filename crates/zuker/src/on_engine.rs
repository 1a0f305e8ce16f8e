//! The **full** Zuker recursion — multibranch loops included — as a single
//! [`Recurrence`] over a composite semiring, running unmodified on every
//! `npdp-core` engine tier (blocked NDL layout, tile kernels, task queue).
//!
//! [`crate::fold::fold_with_engine`] decouples: stems serially, then the
//! `W` closure on an engine. This module instead folds *everything* on the
//! engine by making the table element a bundle of interval tracks
//! ([`ZkElem`]) closed under interval concatenation:
//!
//! * `w` — exterior energy over `s[i..j)` (the classic `W` in gap
//!   coordinates); `v` enters via [`Recurrence::finalize`].
//! * `wm` — multiloop-interior energy with ≥ 1 branch (the classic `WM`):
//!   split sums, plus unpaired-base extension when one side is a single
//!   base, plus `v + b` at finalize.
//! * `wm2` / `wm2_tr` / `mb` — a three-step chain that assembles the
//!   multibranch term `min over c of WM(i+1, c) + WM(c, j-1)`: `wm2` is the
//!   two-part sum over the *full* interval, `wm2_tr` trims one base on the
//!   right (defined by the `k = j-1` split), and `mb` trims one more on the
//!   left (defined by the `k = i+1` split). `combine` (elementwise `min`)
//!   keeps the one defining candidate; all others contribute `INF`.
//! * `win[p][q]` — the `v` value of the interval trimmed by `p` bases on
//!   the left and `q` on the right, for `p + q ≤ `[`LMAX`]. This is what
//!   lets `finalize(i, j)` see `V` of *interior* cells — stack partner
//!   `win[1][1]`, internal-loop partners `win[l1+1][l2+1]` — without any
//!   table access, at the cost of bounding internal loops to
//!   [`ON_ENGINE_MAX_INTERNAL`].
//! * `span` — exact interval length, gating the single-base rules
//!   (padding carries a huge `span` and can never impersonate a base).
//!
//! # Saturation discipline
//!
//! Impossible states are `INF = i32::MAX / 4`. Track arithmetic uses
//! saturating adds, so an `INF` operand yields a value in
//! `[INF - n·C, 2·INF]` (stabilizing stacks subtract a few hundred at
//! most); `finalize` clamps every track at `INF / 2` back to exact `INF`,
//! which keeps all engines bit-identical to [`crate::fold::fold_exact`]
//! and padded blocks inert (the padding law: clamp threshold `INF / 2`
//! exceeds any real energy by orders of magnitude).

use std::cell::RefCell;

use npdp_core::{ExecContext, MinPlus, Recurrence, Semiring, SolveRecurrence, TriangularMatrix};

use crate::energy::{EnergyModel, INF};
use crate::fold::{FoldResult, VTable};
use crate::sequence::Base;

/// Largest internal loop (`l1 + l2`) the on-engine fold can express: the
/// trimmed-window tracks cover trims up to [`LMAX`] `= ON_ENGINE_MAX_INTERNAL
/// + 2` bases. [`ZukerRec::new`] rejects models beyond this bound.
pub const ON_ENGINE_MAX_INTERNAL: usize = 4;

/// Maximum total trim `p + q` carried by the window tracks.
pub const LMAX: usize = ON_ENGINE_MAX_INTERNAL + 2;

/// Number of `(p, q)` windows with `1 ≤ p + q ≤ LMAX`.
const NWIN: usize = 27;

/// Start offset of each `p + q` diagonal in the packed window array.
const OFF: [usize; LMAX + 1] = [usize::MAX, 0, 2, 5, 9, 14, 20];

#[inline]
fn win_idx(p: usize, q: usize) -> usize {
    debug_assert!(p + q >= 1 && p + q <= LMAX);
    OFF[p + q] + p
}

/// One DP cell of the on-engine Zuker fold: every track the recursion
/// needs, closed under concatenation of adjacent intervals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ZkElem {
    /// Interval length `j - i` (saturating; padding is huge).
    pub span: i32,
    /// Exterior energy `W` over the interval.
    pub w: i32,
    /// Energy with the outermost bases paired (`V`); set by `finalize`.
    pub v: i32,
    /// Multiloop interior with ≥ 1 branch (`WM`).
    pub wm: i32,
    /// Two `wm` parts over the full interval.
    pub wm2: i32,
    /// `wm2` of the interval minus its last base.
    pub wm2_tr: i32,
    /// `wm2` of the interval minus first and last base — the multibranch
    /// interior of a closing pair at this cell's ends.
    pub mb: i32,
    /// `v` of the interval trimmed `(p, q)` bases, packed by [`win_idx`].
    win: [i32; NWIN],
}

impl ZkElem {
    /// The `combine` identity: every track impossible.
    const ABSENT: ZkElem = ZkElem {
        span: INF,
        w: INF,
        v: INF,
        wm: INF,
        wm2: INF,
        wm2_tr: INF,
        mb: INF,
        win: [INF; NWIN],
    };

    /// A single unpaired base: length 1, free exterior, nothing else.
    const BASE: ZkElem = ZkElem {
        span: 1,
        w: 0,
        ..Self::ABSENT
    };

    /// `v` of the interval trimmed `p` bases on the left, `q` on the right.
    #[inline]
    pub fn win(&self, p: usize, q: usize) -> i32 {
        self.win[win_idx(p, q)]
    }

    /// Clamp every saturated-impossible track back to exact `INF`.
    fn clamped(mut self) -> ZkElem {
        #[inline]
        fn cl(x: i32) -> i32 {
            if x >= INF / 2 {
                INF
            } else {
                x
            }
        }
        self.w = cl(self.w);
        self.v = cl(self.v);
        self.wm = cl(self.wm);
        self.wm2 = cl(self.wm2);
        self.wm2_tr = cl(self.wm2_tr);
        self.mb = cl(self.mb);
        for x in &mut self.win {
            *x = cl(*x);
        }
        self
    }
}

/// The concatenation algebra over [`ZkElem`]: `combine` is elementwise
/// `min`, `extend` merges two adjacent intervals. Carries the multiloop
/// per-unpaired-base cost `c` (the only model parameter split composition
/// needs — everything else lives in [`Recurrence::finalize`]).
///
/// # Track planes
///
/// [`Semiring::rank_update`] and [`Semiring::tile4`] do not sweep whole
/// elements. A candidate `extend(a, b)` in which neither side has
/// `span == 1` is `INF` on every track except `span`, `w`, `wm` and `wm2`,
/// and those four are plain saturating sums: `a.span + b.span`, `a.w +
/// b.w`, and `a.wm + b.wm` for both `wm` and `wm2`. So the update gathers
/// those planes into dense `i32` panels, runs one `MinPlus<i32>` rank
/// update per C plane (the host-native kernel), scatters the C planes back,
/// and then applies the full scalar `combine(c, extend(a, b))` for every A
/// element `(r, k)` and every B element `(k, j)` whose `span` is 1, across
/// its row or column of C.
///
/// This equals the full-element sweep bit for bit as long as every track
/// of every C element is at most `INF`: skipping a non-unit candidate's
/// `INF` tracks then changes nothing, because `min(c, INF) = c`. Every
/// element a solve stores qualifies — seeds are `ABSENT` or `BASE`,
/// `combine` is `min`, and `finalize` clamps. A unit-span candidate's four
/// plane tracks are applied twice, which `min` cannot tell apart from once,
/// and the order in which candidates arrive cannot show either (integer
/// `min` is exactly commutative, associative and idempotent).
#[derive(Clone)]
pub struct ZkRing {
    multi_unpaired: i32,
}

thread_local! {
    /// The `i32` track planes of [`ZkRing::rank_update`], grown to the
    /// largest panel this thread has seen.
    static PLANES: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
}

/// Planes gathered from A (`span`, `w`, `wm`), from B (the same three) and
/// from C (`span`, `w`, `wm`, `wm2`).
const A_PLANES: usize = 3;
const B_PLANES: usize = 3;
const C_PLANES: usize = 4;

/// `i32` scratch [`ZkRing::plane_update`] needs for a `rows × cols × depth`
/// update.
const fn planes_len(rows: usize, cols: usize, depth: usize) -> usize {
    A_PLANES * rows * depth + B_PLANES * depth * cols + C_PLANES * rows * cols
}

/// Whether every track of `e` is at most `INF` — the precondition of the
/// track-plane update.
fn within_inf(e: &ZkElem) -> bool {
    [e.span, e.w, e.v, e.wm, e.wm2, e.wm2_tr, e.mb]
        .iter()
        .chain(&e.win)
        .all(|&x| x <= INF)
}

impl ZkRing {
    /// `*c = combine(*c, extend(l, r))`, touching only the tracks `extend`
    /// can set below `INF`: `span`, `w`, `wm`, `wm2` always, the unit-span
    /// rules when a side has `span == 1`. Exact whenever every track of
    /// `*c` is at most `INF` (the track-plane precondition), for the same
    /// reason: every other track of the candidate is `INF`, and `min(c,
    /// INF) = c`. The window shift of a unit-span side is, per trim total
    /// `s`, one contiguous run of the packed windows.
    #[inline]
    fn reduce_into(&self, c: &mut ZkElem, l: &ZkElem, r: &ZkElem) {
        let wm = l.wm.saturating_add(r.wm);
        c.span = c.span.min(l.span.saturating_add(r.span));
        c.w = c.w.min(l.w.saturating_add(r.w));
        c.wm = c.wm.min(wm);
        c.wm2 = c.wm2.min(wm);
        if r.span == 1 {
            c.wm = c.wm.min(l.wm.saturating_add(self.multi_unpaired));
            c.wm2_tr = c.wm2_tr.min(l.wm2);
            let t = win_idx(0, 1);
            c.win[t] = c.win[t].min(l.v);
            // win(p, q + 1) ⊕= l.win(p, q) for p + q = s.
            for s in 1..LMAX {
                let (dst, src) = (&mut c.win[OFF[s + 1]..=OFF[s + 1] + s], &l.win[OFF[s]..]);
                for (x, &y) in dst.iter_mut().zip(src) {
                    *x = (*x).min(y);
                }
            }
        }
        if l.span == 1 {
            c.wm = c.wm.min(r.wm.saturating_add(self.multi_unpaired));
            c.mb = c.mb.min(r.wm2_tr);
            let t = win_idx(1, 0);
            c.win[t] = c.win[t].min(r.v);
            // win(p + 1, q) ⊕= r.win(p, q) for p + q = s.
            for s in 1..LMAX {
                let dst = &mut c.win[OFF[s + 1] + 1..=OFF[s + 1] + s + 1];
                for (x, &y) in dst.iter_mut().zip(&r.win[OFF[s]..]) {
                    *x = (*x).min(y);
                }
            }
        }
    }

    /// `C ⊕= A ⊗ B` by track planes (see the type's docs), with `planes` as
    /// scratch of at least [`planes_len`] elements.
    #[allow(clippy::too_many_arguments)]
    fn plane_update(
        &self,
        c: &mut [ZkElem],
        cs: usize,
        a: &[ZkElem],
        as_: usize,
        b: &[ZkElem],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
        planes: &mut [i32],
    ) {
        debug_assert!(
            (0..rows).all(|r| c[r * cs..r * cs + cols].iter().all(within_inf)),
            "track-plane update needs every C track at most INF"
        );
        let (na, nb, nc) = (rows * depth, depth * cols, rows * cols);
        let (pa, rest) = planes.split_at_mut(A_PLANES * na);
        let (pb, pc) = rest.split_at_mut(B_PLANES * nb);
        for r in 0..rows {
            for (k, e) in a[r * as_..r * as_ + depth].iter().enumerate() {
                let i = r * depth + k;
                (pa[i], pa[na + i], pa[2 * na + i]) = (e.span, e.w, e.wm);
            }
        }
        for k in 0..depth {
            for (j, e) in b[k * bs..k * bs + cols].iter().enumerate() {
                let i = k * cols + j;
                (pb[i], pb[nb + i], pb[2 * nb + i]) = (e.span, e.w, e.wm);
            }
        }
        for r in 0..rows {
            for (j, e) in c[r * cs..r * cs + cols].iter().enumerate() {
                let i = r * cols + j;
                (pc[i], pc[nc + i], pc[2 * nc + i], pc[3 * nc + i]) = (e.span, e.w, e.wm, e.wm2);
            }
        }
        // C plane ⊕= A plane ⊗ B plane: span, w, wm, and wm2 from the wm sums.
        let ring = MinPlus::<i32>::new();
        for (p, q) in [(0, 0), (1, 1), (2, 2), (3, 2)] {
            ring.rank_update(
                &mut pc[p * nc..(p + 1) * nc],
                cols,
                &pa[q * na..(q + 1) * na],
                depth,
                &pb[q * nb..(q + 1) * nb],
                cols,
                rows,
                cols,
                depth,
            );
        }
        for r in 0..rows {
            for (j, e) in c[r * cs..r * cs + cols].iter_mut().enumerate() {
                let i = r * cols + j;
                (e.span, e.w, e.wm, e.wm2) = (pc[i], pc[nc + i], pc[2 * nc + i], pc[3 * nc + i]);
            }
        }
        // Unit-span operands: the full element candidate, row of C by row
        // (A) or column by column (B).
        let (a_span, b_span) = (&pa[..na], &pb[..nb]);
        for r in 0..rows {
            for k in (0..depth).filter(|&k| a_span[r * depth + k] == 1) {
                let x = &a[r * as_ + k];
                for j in 0..cols {
                    self.reduce_into(&mut c[r * cs + j], x, &b[k * bs + j]);
                }
            }
        }
        for k in 0..depth {
            for j in (0..cols).filter(|&j| b_span[k * cols + j] == 1) {
                let y = &b[k * bs + j];
                for r in 0..rows {
                    self.reduce_into(&mut c[r * cs + j], &a[r * as_ + k], y);
                }
            }
        }
    }
}

impl Semiring for ZkRing {
    type Elem = ZkElem;

    fn zero(&self) -> ZkElem {
        ZkElem::ABSENT
    }

    fn combine(&self, a: ZkElem, b: ZkElem) -> ZkElem {
        let mut o = a;
        o.span = o.span.min(b.span);
        o.w = o.w.min(b.w);
        o.v = o.v.min(b.v);
        o.wm = o.wm.min(b.wm);
        o.wm2 = o.wm2.min(b.wm2);
        o.wm2_tr = o.wm2_tr.min(b.wm2_tr);
        o.mb = o.mb.min(b.mb);
        for (x, &y) in o.win.iter_mut().zip(b.win.iter()) {
            *x = (*x).min(y);
        }
        o
    }

    fn extend(&self, l: ZkElem, r: ZkElem) -> ZkElem {
        let mut o = ZkElem::ABSENT;
        o.span = l.span.saturating_add(r.span);
        o.w = l.w.saturating_add(r.w);
        // WM: two branched parts, or one part plus an unpaired base.
        o.wm = l.wm.saturating_add(r.wm);
        if r.span == 1 {
            o.wm = o.wm.min(l.wm.saturating_add(self.multi_unpaired));
        }
        if l.span == 1 {
            o.wm = o.wm.min(r.wm.saturating_add(self.multi_unpaired));
        }
        // Exactly two branched parts (the multibranch interior shape).
        o.wm2 = l.wm.saturating_add(r.wm);
        // Trim chain: right trim at the k = j-1 split, then left trim at
        // the k = i+1 split of the enclosing cell.
        if r.span == 1 {
            o.wm2_tr = l.wm2;
        }
        if l.span == 1 {
            o.mb = r.wm2_tr;
        }
        // Window tracks: trimming one base off either end shifts every
        // window by one, and the bare `v` of the other side becomes the
        // (1,0) / (0,1) window.
        if l.span == 1 {
            o.win[win_idx(1, 0)] = r.v;
            for s in 1..LMAX {
                for p in 0..=s {
                    let t = win_idx(p + 1, s - p);
                    o.win[t] = o.win[t].min(r.win[win_idx(p, s - p)]);
                }
            }
        }
        if r.span == 1 {
            let t = win_idx(0, 1);
            o.win[t] = o.win[t].min(l.v);
            for s in 1..LMAX {
                for p in 0..=s {
                    let t = win_idx(p, s - p + 1);
                    o.win[t] = o.win[t].min(l.win[win_idx(p, s - p)]);
                }
            }
        }
        o
    }

    /// One 4×4×4 track-plane update on stack planes (no heap allocation).
    fn tile4(
        &self,
        c: &mut [ZkElem],
        cs: usize,
        a: &[ZkElem],
        as_: usize,
        b: &[ZkElem],
        bs: usize,
    ) {
        let mut planes = [0; planes_len(4, 4, 4)];
        self.plane_update(c, cs, a, as_, b, bs, 4, 4, 4, &mut planes);
    }

    /// The flowchart with every candidate reduced track-wise
    /// (`ZkRing::reduce_into`): a non-unit candidate costs four `min`s,
    /// and only the unit-span operands — `lo`'s cell right of the diagonal
    /// in the rows-below pass, `hi`'s in the columns-left pass — run the
    /// window shift. Every tile cell is a stored cell, so at most `INF` on
    /// every track (debug builds assert it).
    fn edge(
        &self,
        t: &mut [ZkElem; 16],
        lo: &[ZkElem; 16],
        hi: &[ZkElem; 16],
        finalize: impl Fn(usize, usize, ZkElem) -> ZkElem,
    ) {
        debug_assert!(
            t.iter().all(within_inf),
            "edge needs every tile track at most INF"
        );
        for il in (0..4).rev() {
            for jl in 0..4 {
                let mut cell = t[il * 4 + jl];
                for kl in il + 1..4 {
                    self.reduce_into(&mut cell, &lo[il * 4 + kl], &t[kl * 4 + jl]);
                }
                for kl in 0..jl {
                    self.reduce_into(&mut cell, &t[il * 4 + kl], &hi[kl * 4 + jl]);
                }
                t[il * 4 + jl] = finalize(il, jl, cell);
            }
        }
    }

    /// The track-plane update (type docs) on thread-local planes.
    ///
    /// Every track of every C element in the panel must be at most `INF`
    /// (debug builds assert it); every element a solve stores is.
    fn rank_update(
        &self,
        c: &mut [ZkElem],
        cs: usize,
        a: &[ZkElem],
        as_: usize,
        b: &[ZkElem],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        PLANES.with_borrow_mut(|planes| {
            let need = planes_len(rows, cols, depth);
            if planes.len() < need {
                planes.resize(need, 0);
            }
            self.plane_update(c, cs, a, as_, b, bs, rows, cols, depth, planes);
        });
    }
}

/// The full Zuker fold as a recurrence over [`ZkRing`].
pub struct ZukerRec<'a> {
    ring: ZkRing,
    seq: &'a [Base],
    model: &'a EnergyModel,
    /// `model.hairpin(len)` for every loop length the sequence has room for.
    hairpin: Vec<i32>,
    /// `model.internal(l1, l2)` for `l1 + l2 ≤ max_internal`.
    internal: [[i32; ON_ENGINE_MAX_INTERNAL + 1]; ON_ENGINE_MAX_INTERNAL + 1],
}

impl<'a> ZukerRec<'a> {
    /// # Panics
    /// If `model.max_internal` exceeds [`ON_ENGINE_MAX_INTERNAL`] (the
    /// window tracks cannot see far enough into the interval).
    pub fn new(seq: &'a [Base], model: &'a EnergyModel) -> Self {
        assert!(
            model.max_internal <= ON_ENGINE_MAX_INTERNAL,
            "on-engine fold supports internal loops up to {ON_ENGINE_MAX_INTERNAL}, model asks for {}",
            model.max_internal
        );
        let internal = std::array::from_fn(|l1| {
            std::array::from_fn(|l2| match l1 + l2 {
                t if t == 0 || t > model.max_internal => INF,
                _ => model.internal(l1, l2),
            })
        });
        Self {
            ring: ZkRing {
                multi_unpaired: model.multi_unpaired,
            },
            seq,
            model,
            hairpin: (0..seq.len()).map(|len| model.hairpin(len)).collect(),
            internal,
        }
    }
}

impl Recurrence for ZukerRec<'_> {
    type Ring = ZkRing;

    fn ring(&self) -> &ZkRing {
        &self.ring
    }

    fn side(&self) -> usize {
        self.seq.len() + 1
    }

    fn seed(&self, i: usize, j: usize) -> ZkElem {
        if j == i + 1 {
            ZkElem::BASE
        } else {
            ZkElem::ABSENT
        }
    }

    /// Assemble `V(i, j-1)` from the reduced tracks, then fold it back
    /// into `wm` (`v + b`) and `w` — the only place the sequence and the
    /// full energy model are consulted.
    fn finalize(&self, i: usize, j: usize, acc: ZkElem) -> ZkElem {
        if j == i + 1 {
            return acc;
        }
        let m = self.model;
        let seq = self.seq;
        let span = j - i;
        let mut e = acc.clamped();
        debug_assert_eq!(e.span as usize, span, "span track corrupted at ({i},{j})");

        let (a, b) = (i, j - 1); // the closing pair, in classic coordinates
        let mut v = INF;
        if m.can_pair(seq[a], seq[b]) {
            let mut best = self.hairpin[span - 2];
            if span >= 4 {
                // Stack: inner pair hugs the closing pair. `win(1,1) < INF`
                // implies the inner bases can pair, so `stack` is safe.
                let inner = e.win(1, 1);
                if inner < INF {
                    best = best.min(inner + m.stack(seq[a], seq[b], seq[a + 1], seq[b - 1]));
                }
                // Bounded internal loops / bulges.
                for l1 in 0..=m.max_internal {
                    for l2 in 0..=m.max_internal - l1 {
                        if l1 + l2 == 0 || l1 + l2 + 4 > span {
                            continue;
                        }
                        let inner = e.win(l1 + 1, l2 + 1);
                        if inner < INF {
                            best = best.min(inner + self.internal[l1][l2]);
                        }
                    }
                }
                // Multibranch: closing penalty + the closing pair's branch
                // + the two-part branched interior reduced into `mb`.
                if e.mb < INF {
                    best = best.min(m.multi_close() + m.multi_branch + e.mb);
                }
            }
            v = best.min(INF);
        }
        e.v = v;
        if v < INF {
            e.wm = e.wm.min(v + m.multi_branch);
            e.w = e.w.min(v);
        }
        e
    }
}

/// Fold the whole Zuker recursion — multibranch included — on `engine`,
/// returning the same tables as [`crate::fold::fold_exact`].
pub fn fold_on_engine<E: SolveRecurrence + ?Sized>(
    seq: &[Base],
    model: &EnergyModel,
    engine: &E,
    ctx: &ExecContext,
) -> Result<FoldResult, npdp_core::SolveError> {
    let n = seq.len();
    let rec = ZukerRec::new(seq, model);
    let (d, _) = engine.solve_recurrence(&rec, ctx)?;
    let w = TriangularMatrix::from_fn(n + 1, |i, j| d.get(i, j).w);
    let v = VTable::from_fn(n, |i, j| d.get(i, j + 1).v);
    let mut wm = vec![INF; n * n];
    for i in 0..n {
        for j in i + 1..n {
            wm[i * n + j] = d.get(i, j + 1).wm;
        }
    }
    let energy = if n == 0 { 0 } else { w.get(0, n).min(0) };
    Ok(FoldResult {
        energy,
        w,
        v,
        wm: Some(wm),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold_exact;
    use crate::sequence::{hairpin_sequence, random_sequence, to_string};
    use npdp_core::{BlockedEngine, ParallelEngine, SerialEngine, SimdEngine};

    fn bounded_model() -> EnergyModel {
        EnergyModel {
            max_internal: ON_ENGINE_MAX_INTERNAL,
            ..Default::default()
        }
    }

    fn assert_tables_match(seq: &[Base], model: &EnergyModel, got: &FoldResult, what: &str) {
        let n = seq.len();
        let exact = fold_exact(seq, model);
        assert_eq!(
            got.energy,
            exact.energy,
            "{what}: energy ({})",
            to_string(seq)
        );
        assert_eq!(
            got.w.first_difference(&exact.w),
            None,
            "{what}: W table ({})",
            to_string(seq)
        );
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(
                    got.v.get(i, j),
                    exact.v.get(i, j),
                    "{what}: V({i},{j}) ({})",
                    to_string(seq)
                );
            }
        }
        let exact_wm = exact.wm.as_ref().expect("fold_exact returns WM");
        let got_wm = got.wm.as_ref().expect("on-engine fold returns WM");
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(
                    got_wm[i * n + j],
                    exact_wm[i * n + j],
                    "{what}: WM({i},{j}) ({})",
                    to_string(seq)
                );
            }
        }
    }

    /// Satellite cross-check: the on-engine fold equals `fold_exact` —
    /// energy, `W`, `V` and `WM`, exact integer equality — on random
    /// sequences across every engine tier.
    #[test]
    fn on_engine_fold_matches_fold_exact() {
        let m = bounded_model();
        let ctx = ExecContext::disabled();
        for seed in 0..8u64 {
            let n = [2usize, 5, 9, 17, 26, 33, 41, 54][seed as usize % 8];
            let seq = random_sequence(n, seed * 7 + 1);
            let serial = fold_on_engine(&seq, &m, &SerialEngine, &ctx).unwrap();
            assert_tables_match(&seq, &m, &serial, "serial");
            let blocked = fold_on_engine(&seq, &m, &BlockedEngine::new(8), &ctx).unwrap();
            assert_tables_match(&seq, &m, &blocked, "blocked");
            let simd = fold_on_engine(&seq, &m, &SimdEngine::new(8), &ctx).unwrap();
            assert_tables_match(&seq, &m, &simd, "simd");
            let par = fold_on_engine(&seq, &m, &ParallelEngine::new(8, 2, 4), &ctx).unwrap();
            assert_tables_match(&seq, &m, &par, "parallel");
        }
    }

    /// The multibranch term must actually fire: a sequence with two stable
    /// hairpins side by side inside an enclosing stem folds to a multiloop,
    /// and on-engine still matches exact.
    #[test]
    fn multibranch_structures_match() {
        let m = bounded_model();
        let ctx = ExecContext::disabled();
        // Two hairpins concatenated: the W closure must branch.
        let mut seq = hairpin_sequence(5, 4, 3);
        seq.extend(hairpin_sequence(5, 4, 8));
        let exact = fold_exact(&seq, &m);
        let on = fold_on_engine(&seq, &m, &SimdEngine::new(8), &ctx).unwrap();
        assert_eq!(on.energy, exact.energy);
        assert!(on.energy < 0, "two stable hairpins must fold");
        assert_tables_match(&seq, &m, &on, "two-hairpin");
        // The exact fold's multibranch candidates are live for some cell:
        // WM must be finite somewhere (a branched interior exists).
        let wm = on.wm.as_ref().unwrap();
        assert!(
            wm.iter().any(|&x| x < INF),
            "WM never became finite — multibranch path untested"
        );
    }

    #[test]
    fn empty_and_single_base_sequences() {
        let m = bounded_model();
        let ctx = ExecContext::disabled();
        let empty = fold_on_engine(&[], &m, &SerialEngine, &ctx).unwrap();
        assert_eq!(empty.energy, 0);
        let one = fold_on_engine(&[Base::A], &m, &SerialEngine, &ctx).unwrap();
        assert_eq!(one.energy, 0);
        assert_eq!(one.w.get(0, 1), 0);
    }

    #[test]
    fn hairpin_folds_negative_on_engine() {
        let m = bounded_model();
        let ctx = ExecContext::disabled();
        let seq = hairpin_sequence(6, 4, 1);
        let r = fold_on_engine(&seq, &m, &ParallelEngine::new(8, 2, 3), &ctx).unwrap();
        assert!(r.energy < 0, "stable hairpin must fold, got {}", r.energy);
        assert_tables_match(&seq, &m, &r, "hairpin");
    }

    /// The same cross-check at sizes around the block sides, so stage 1
    /// sees unit-span (`BASE`) operands at block boundaries: the cell
    /// `(i, i + 1)` is the last row of one block and the first column of the
    /// next.
    #[test]
    fn on_engine_fold_matches_fold_exact_at_block_boundaries() {
        let m = bounded_model();
        let ctx = ExecContext::disabled();
        for (idx, n) in [63usize, 64, 65, 97].into_iter().enumerate() {
            let seq = random_sequence(n, idx as u64 * 11 + 3);
            for nb in [8, 32] {
                let simd = fold_on_engine(&seq, &m, &SimdEngine::new(nb), &ctx).unwrap();
                assert_tables_match(&seq, &m, &simd, &format!("simd nb {nb}"));
                let par = ParallelEngine::new(nb, 2, 2);
                let par = fold_on_engine(&seq, &m, &par, &ctx).unwrap();
                assert_tables_match(&seq, &m, &par, &format!("parallel nb {nb}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "on-engine fold supports internal loops")]
    fn rejects_oversized_internal_loop_bound() {
        let m = EnergyModel::default(); // max_internal = 30
        let _ = ZukerRec::new(&[Base::A, Base::U], &m);
    }

    /// Padding law for the composite ring: any once- or twice-padded
    /// element keeps every track at least `INF / 2`, so the finalize clamp
    /// restores exact `INF` and padded blocks can never beat a real cell.
    #[test]
    fn padding_law_for_zk_ring() {
        let ring = ZkRing { multi_unpaired: 3 };
        let zero = ring.zero();
        let mut real = ZkElem::BASE;
        real.v = -120;
        real.wm = -80;
        real.wm2 = -60;
        for padded in [
            zero,
            ring.extend(zero, real),
            ring.extend(real, zero),
            ring.extend(ring.extend(zero, real), ring.extend(real, zero)),
        ] {
            for (name, x) in [
                ("span", padded.span),
                ("w", padded.w),
                ("v", padded.v),
                ("wm", padded.wm),
                ("wm2", padded.wm2),
                ("wm2_tr", padded.wm2_tr),
                ("mb", padded.mb),
            ] {
                assert!(x >= INF / 2, "padded track {name} dipped to {x}");
            }
            for (idx, &x) in padded.win.iter().enumerate() {
                assert!(x >= INF / 2, "padded win[{idx}] dipped to {x}");
            }
            let both = ring.combine(real, padded);
            assert_eq!(both.w, real.w);
            assert_eq!(both.v, real.v);
        }
    }

    /// `ZkRing` with the `Semiring` defaults only: its `rank_update` and
    /// `tile4` are the full-element 4×4 tile sweep of `combine(c,
    /// extend(a, b))`, the reference for the track-plane overrides.
    #[derive(Clone)]
    struct FullSweep(ZkRing);

    impl Semiring for FullSweep {
        type Elem = ZkElem;

        fn zero(&self) -> ZkElem {
            self.0.zero()
        }

        fn combine(&self, a: ZkElem, b: ZkElem) -> ZkElem {
            self.0.combine(a, b)
        }

        fn extend(&self, a: ZkElem, b: ZkElem) -> ZkElem {
            self.0.extend(a, b)
        }
    }

    /// Every cell of small on-engine folds (real multiloop and window
    /// tracks, `BASE` cells included), plus `ABSENT` and `BASE`.
    fn solved_cells() -> Vec<ZkElem> {
        let m = bounded_model();
        let mut cells = vec![ZkElem::ABSENT, ZkElem::BASE];
        for seed in 0..3 {
            let seq = random_sequence(18 + 5 * seed as usize, seed + 40);
            let rec = ZukerRec::new(&seq, &m);
            let (d, _) = SerialEngine
                .solve_recurrence(&rec, &ExecContext::disabled())
                .unwrap();
            cells.extend(d.as_slice());
        }
        cells
    }

    proptest::proptest! {
        /// The track-plane `rank_update` equals the full-element sweep bit
        /// for bit, on random shapes (multiples of 4 up to 40) with strides
        /// wider than the panels. A and B mix solved cells, `ABSENT`,
        /// once-padded `extend(zero, x)` / `extend(x, zero)`, and `BASE`
        /// (span 1) at a forced spot in A, in B, in both or in neither; C
        /// holds solved cells and `ABSENT` (every track at most `INF`).
        #[test]
        fn plane_rank_update_matches_full_sweep(
            rows in 1usize..11, cols in 1usize..11, depth in 1usize..11,
            pad in 0usize..5, units in 0usize..4, seed in proptest::prelude::any::<u64>(),
        ) {
            let ring = ZkRing { multi_unpaired: 3 };
            let cells = solved_cells();
            let (rows, cols, depth) = (4 * rows, 4 * cols, 4 * depth);
            let (cs, as_, bs) = (cols + pad, depth + pad + 1, cols + 2 * pad);
            let mut s = seed | 1;
            let mut pick = |padded: bool| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let x = cells[(s >> 33) as usize % cells.len()];
                match (padded, (s >> 20) % 8) {
                    (true, 0) => ring.extend(ZkElem::ABSENT, x),
                    (true, 1) => ring.extend(x, ZkElem::ABSENT),
                    _ => x,
                }
            };
            let mut a: Vec<_> = (0..rows * as_).map(|_| pick(true)).collect();
            let mut b: Vec<_> = (0..depth * bs).map(|_| pick(true)).collect();
            let c: Vec<_> = (0..rows * cs).map(|_| pick(false)).collect();
            let spot = seed as usize;
            if units & 1 == 1 {
                a[(spot % rows) * as_ + spot % depth] = ZkElem::BASE;
            }
            if units & 2 == 2 {
                b[(spot % depth) * bs + spot % cols] = ZkElem::BASE;
            }
            let (mut planes, mut full) = (c.clone(), c);
            ring.rank_update(&mut planes, cs, &a, as_, &b, bs, rows, cols, depth);
            FullSweep(ring.clone()).rank_update(&mut full, cs, &a, as_, &b, bs, rows, cols, depth);
            proptest::prop_assert!(planes == full, "{rows}×{cols}×{depth} pad {pad} units {units}");

            // `tile4` is the 4×4×4 case, on the panels' corner tiles.
            let (mut planes, mut full) = (full.clone(), full);
            ring.tile4(&mut planes, cs, &a, as_, &b, bs);
            FullSweep(ring).tile4(&mut full, cs, &a, as_, &b, bs);
            proptest::prop_assert!(planes == full, "tile4 pad {pad} units {units}");
        }
    }

    proptest::proptest! {
        /// The track-wise edge equals the flowchart default bit for bit:
        /// tiles of solved cells and `ABSENT`, `BASE` (unit spans) at the
        /// positions the edge reads as unit operands, and a non-identity
        /// `finalize`.
        #[test]
        fn track_edge_matches_flowchart(seed in proptest::prelude::any::<u64>(), units in 0usize..4) {
            let ring = ZkRing { multi_unpaired: 3 };
            let cells = solved_cells();
            let mut s = seed | 1;
            let mut tile = || -> [ZkElem; 16] {
                std::array::from_fn(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    cells[(s >> 33) as usize % cells.len()]
                })
            };
            let (t0, mut lo, mut hi) = (tile(), tile(), tile());
            for k in 0..3 {
                if units & 1 == 1 {
                    lo[k * 4 + k + 1] = ZkElem::BASE;
                }
                if units & 2 == 2 {
                    hi[k * 4 + k + 1] = ZkElem::BASE;
                }
            }
            let finalize = |i: usize, j: usize, mut e: ZkElem| {
                e.w = e.w.min((i * 4 + j) as i32 - 40);
                e.v = e.v.min(e.wm);
                e
            };
            let (mut tracks, mut full) = (t0, t0);
            ring.edge(&mut tracks, &lo, &hi, finalize);
            FullSweep(ring).edge(&mut full, &lo, &hi, finalize);
            proptest::prop_assert!(tracks == full, "units {units}");
        }
    }

    /// The precondition is checked in debug builds: a C track above `INF`
    /// (here a once-padded element) is refused rather than silently
    /// mis-reduced.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "every C track at most INF")]
    fn plane_update_rejects_c_tracks_above_inf() {
        let ring = ZkRing { multi_unpaired: 3 };
        let mut c = [ring.extend(ZkElem::ABSENT, ZkElem::ABSENT); 16];
        ring.tile4(
            &mut c,
            4,
            &[ZkElem::ABSENT; 16],
            4,
            &[ZkElem::ABSENT; 16],
            4,
        );
    }

    /// `combine` is exactly commutative, associative and idempotent on
    /// every value a solve can hold (the `Semiring` laws the track-plane
    /// split relies on).
    #[test]
    fn combine_laws_for_zk_ring() {
        let ring = ZkRing { multi_unpaired: 3 };
        let cells = solved_cells();
        let domain: Vec<_> = cells.iter().step_by(cells.len() / 24).copied().collect();
        for &x in &domain {
            assert_eq!(ring.combine(x, x), x, "idempotent");
            for &y in &domain {
                assert_eq!(ring.combine(x, y), ring.combine(y, x), "commutative");
                for &z in &domain {
                    assert_eq!(
                        ring.combine(ring.combine(x, y), z),
                        ring.combine(x, ring.combine(y, z)),
                        "associative"
                    );
                }
            }
        }
    }
}
