//! Lane-wise `i32` kernels of rule-lane CYK: every panel element is a
//! vector of eight independent `i32` lanes.
//!
//! Rule-lane CYK turns a panel update over nonterminal vectors into one lane
//! per grammar rule, so each lane is its own tropical problem. It takes
//! three steps, one entry point each:
//!
//! 1. [`gather_lanes`] builds the rule-lane panels: lane `l` of an output
//!    element is lane `index[l]` of the input element plus `add[l]`
//!    ([`LaneGather`]): the rule's child nonterminal, plus its weight on the
//!    B side. One `vpermd` and one `vpaddd` per element.
//! 2. [`lanewise_rank_update_i32x8`] reduces `C ⊕= A ⊗ B` lane by lane,
//!    never mixing lanes: a register-blocked "matmul" with `vpaddd` as ⊗ and
//!    `vpminsd` as ⊕. The AVX-512 tile holds two adjacent elements per
//!    `zmm` register and a 4-row × 8-column block of C in 16 accumulators,
//!    each A element broadcast to both halves of a register; the AVX2 tile
//!    holds one element per `ymm` register and a 4 × 2 block in eight.
//! 3. [`fold_lanes`] folds each element's rule lanes into the slots of
//!    their heads ([`LaneFold`]): a segmented `min` over the lanes that
//!    share a head, by fixed lane permutes, then one permute that moves
//!    each head's minimum into its slot.
//!
//! # Semantics
//!
//! The rank update computes `c[r·cols + j][l] = min(c[r·cols + j][l],
//! min_k a[r·depth + k][l] + b[k·cols + j][l])` with **wrapping** `i32`
//! addition, for `r < rows`, `j < cols`, `k < depth`, `l < 8`; all three
//! panels are dense and row-major. The gather's add wraps too. Integer
//! `min` is exact and order-free, so every tier agrees with its portable
//! loop bit for bit on every input (pinned by the tests below). Callers
//! that need saturating sums keep their operands small enough that no sum
//! wraps.
//!
//! # Dispatch
//!
//! Each entry point checks its extents, then runs the AVX-512F tier when
//! `is_x86_feature_detected!("avx512f")` holds, AVX2 too (the rank update
//! and the fold: two elements per `zmm` register, the last odd column
//! through the AVX2 code), else the AVX2 tier when
//! `is_x86_feature_detected!("avx2")` holds (one element per `ymm`
//! register), and the portable loop otherwise; every non-x86_64 target
//! compiles only the portable loops. The gather has no AVX-512 tier: a
//! `vpermt2d` version, two elements per `zmm`, measured no faster than
//! one `vpermd` per element (DESIGN.md §4d).

/// One panel element: eight independent `i32` lanes.
pub type I32Lanes = [i32; 8];

/// Lane-wise min-plus rank update over dense row-major panels: a
/// `rows × depth` A, a `depth × cols` B and a `rows × cols` C (see the
/// module docs for the exact semantics).
///
/// # Panics
///
/// If a slice is shorter than its panel.
pub fn lanewise_rank_update_i32x8(
    c: &mut [I32Lanes],
    a: &[I32Lanes],
    b: &[I32Lanes],
    rows: usize,
    cols: usize,
    depth: usize,
) {
    check_strided(c.len(), cols, rows, cols, "C");
    check_strided(a.len(), depth, rows, depth, "A");
    check_strided(b.len(), cols, depth, cols, "B");
    if rows == 0 || cols == 0 || depth == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX-512F and AVX2 (its odd columns run the AVX2
            // kernel) were detected just above, and the asserts proved every
            // panel lies inside its slice.
            unsafe { avx512::rank_update(c, a, b, rows, cols, depth) };
            return;
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected just above, and the asserts proved
            // every panel lies inside its slice.
            unsafe { avx2::rank_update(c, a, b, rows, cols, depth) };
            return;
        }
    }
    portable(c, a, b, rows, cols, depth);
}

/// The reference loop: cell by cell, `k` ascending, lanes innermost.
fn portable(
    c: &mut [I32Lanes],
    a: &[I32Lanes],
    b: &[I32Lanes],
    rows: usize,
    cols: usize,
    depth: usize,
) {
    for r in 0..rows {
        for j in 0..cols {
            let mut acc = c[r * cols + j];
            for k in 0..depth {
                let (x, y) = (&a[r * depth + k], &b[k * cols + j]);
                for l in 0..8 {
                    acc[l] = acc[l].min(x[l].wrapping_add(y[l]));
                }
            }
            c[r * cols + j] = acc;
        }
    }
}

/// Checks that a `rows × cols` panel with row stride `stride` fits in a
/// slice of `len` elements (checked arithmetic: a huge stride or area must
/// fail here rather than wrap into a small extent, since the SIMD kernels
/// trust it).
fn check_strided(len: usize, stride: usize, rows: usize, cols: usize, what: &str) {
    assert!(
        stride >= cols,
        "{what} stride {stride} narrower than {cols} columns"
    );
    let fits = match rows {
        0 => true,
        h => (h - 1)
            .checked_mul(stride)
            .and_then(|e| e.checked_add(cols))
            .is_some_and(|extent| len >= extent),
    };
    assert!(fits, "{what} slice too short");
}

/// One lane shuffle plus a lane-wise addend: lane `l` of an output element
/// is `x[index[l]].wrapping_add(add[l])` for input element `x`.
#[derive(Clone, Copy, Debug)]
pub struct LaneGather {
    /// Source lane of each output lane, in `0..8` (`vpermd`'s index vector).
    index: I32Lanes,
    /// Added to each output lane after the shuffle.
    add: I32Lanes,
}

impl LaneGather {
    /// Output lane `l` takes input lane `index[l]` plus `add[l]`.
    ///
    /// # Panics
    ///
    /// If an index is not a lane (`≥ 8`).
    pub fn new(index: [usize; 8], add: I32Lanes) -> Self {
        assert!(index.iter().all(|&i| i < 8), "lane index out of 0..8");
        Self {
            index: index.map(|i| i as i32),
            add,
        }
    }
}

/// Gathers a row-strided `rows × cols` panel of `src` (row stride
/// `stride`) into the dense row-major `dst`, element by element through
/// `gather`: `dst[r·cols + j][l] = src[r·stride + j][index[l]] + add[l]`,
/// wrapping.
///
/// # Panics
///
/// If `stride < cols` or a slice is shorter than its panel.
pub fn gather_lanes<T: AsRef<I32Lanes>>(
    dst: &mut [I32Lanes],
    src: &[T],
    stride: usize,
    rows: usize,
    cols: usize,
    gather: &LaneGather,
) {
    check_strided(src.len(), stride, rows, cols, "source");
    check_strided(dst.len(), cols, rows, cols, "destination");
    if rows == 0 || cols == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above.
        unsafe { avx2::gather(dst, src, stride, rows, cols, gather) };
        return;
    }
    portable_gather(dst, src, stride, rows, cols, gather);
}

/// The reference gather: element by element, lanes innermost.
fn portable_gather<T: AsRef<I32Lanes>>(
    dst: &mut [I32Lanes],
    src: &[T],
    stride: usize,
    rows: usize,
    cols: usize,
    gather: &LaneGather,
) {
    let LaneGather { index, add } = gather;
    for r in 0..rows {
        for j in 0..cols {
            let x = src[r * stride + j].as_ref();
            dst[r * cols + j] = std::array::from_fn(|l| x[index[l] as usize].wrapping_add(add[l]));
        }
    }
}

/// How [`fold_lanes`] folds the lanes of an element into head slots, built
/// once from the head of each lane.
///
/// The lanes that share a head form a class. A segmented `min` reduces each
/// class into its first lane in `steps` rounds: in round `t`, the lane of
/// rank `q` in its class takes the `min` with the lane of rank `q + 2^t`
/// (or with itself past the class's end), so after `⌈log₂ s⌉` rounds rank 0
/// holds the `min` of a class of `s` lanes. One more permute moves each
/// class's first lane into its head's slot; slots no lane folds into are
/// masked to `i32::MAX` (via `max` with `absent`), which leaves C alone.
#[derive(Clone, Debug)]
pub struct LaneFold {
    /// Head slot of each folded lane, in lane order (at most eight).
    heads: Vec<usize>,
    /// Rounds of the segmented `min`: `⌈log₂⌉` of the largest class.
    steps: usize,
    /// Partner lane of each lane in each round (itself when it has none).
    step_index: [I32Lanes; 3],
    /// First lane of each slot's class (lane 0 for a slot no lane folds into).
    head_index: I32Lanes,
    /// `i32::MIN` for a slot some lane folds into, `i32::MAX` otherwise.
    absent: I32Lanes,
}

impl LaneFold {
    /// Lane `l` folds into slot `heads[l]`; lanes past `heads.len()` fold
    /// nowhere. Heads may repeat and come in any order.
    ///
    /// # Panics
    ///
    /// If there are more than eight heads or a head is not a slot (`≥ 8`).
    pub fn new(heads: &[usize]) -> Self {
        assert!(heads.len() <= 8, "more than eight folded lanes");
        assert!(heads.iter().all(|&h| h < 8), "head slot out of 0..8");
        let class = |h: usize| (0..heads.len()).filter(move |&l| heads[l] == h);
        let largest = (0..8).map(|h| class(h).count()).max().unwrap_or(0);
        let steps = largest.next_power_of_two().trailing_zeros() as usize;
        let mut step_index = [std::array::from_fn(|l| l as i32); 3];
        for (t, round) in step_index.iter_mut().enumerate().take(steps) {
            for h in 0..8 {
                let members: Vec<usize> = class(h).collect();
                for (q, &lane) in members.iter().enumerate() {
                    if let Some(&partner) = members.get(q + (1 << t)) {
                        round[lane] = partner as i32;
                    }
                }
            }
        }
        let first = |h: usize| class(h).next();
        Self {
            heads: heads.to_vec(),
            steps,
            step_index,
            head_index: std::array::from_fn(|h| first(h).unwrap_or(0) as i32),
            absent: std::array::from_fn(|h| match first(h) {
                Some(_) => i32::MIN,
                None => i32::MAX,
            }),
        }
    }
}

/// Folds the dense row-major `rows × cols` panel `acc` into the row-strided
/// panel `c` (row stride `cs`) through `fold`: `c[r·cs + j][h] =
/// min(c[r·cs + j][h], min_{l : heads[l] = h} acc[r·cols + j][l])`.
///
/// # Panics
///
/// If `cs < cols` or a slice is shorter than its panel.
pub fn fold_lanes<T: AsMut<I32Lanes>>(
    c: &mut [T],
    cs: usize,
    acc: &[I32Lanes],
    rows: usize,
    cols: usize,
    fold: &LaneFold,
) {
    check_strided(c.len(), cs, rows, cols, "C");
    check_strided(acc.len(), cols, rows, cols, "accumulator");
    if rows == 0 || cols == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX-512F and AVX2 (its odd columns run the AVX2 code)
            // were detected just above.
            unsafe { avx512::fold(c, cs, acc, rows, cols, fold) };
            return;
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected just above.
            unsafe { avx2::fold(c, cs, acc, rows, cols, fold) };
            return;
        }
    }
    portable_fold(c, cs, acc, rows, cols, fold);
}

/// The reference fold: lane by lane, each into its head's slot.
fn portable_fold<T: AsMut<I32Lanes>>(
    c: &mut [T],
    cs: usize,
    acc: &[I32Lanes],
    rows: usize,
    cols: usize,
    fold: &LaneFold,
) {
    for r in 0..rows {
        for j in 0..cols {
            let (cell, lanes) = (c[r * cs + j].as_mut(), &acc[r * cols + j]);
            for (&h, &v) in fold.heads.iter().zip(lanes) {
                cell[h] = cell[h].min(v);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{I32Lanes, LaneFold, LaneGather};

    /// Rows and columns of C one micro-kernel call keeps in registers:
    /// 4 × 2 accumulators, plus 4 A vectors and 1 B vector, of the 16
    /// `ymm` registers.
    const MR: usize = 4;
    const NR: usize = 2;

    /// One element into a register.
    #[target_feature(enable = "avx2")]
    pub(super) fn load(x: &I32Lanes) -> __m256i {
        // SAFETY: `x` is eight readable `i32`s; `loadu` has no alignment
        // requirement.
        unsafe { _mm256_loadu_si256(x.as_ptr().cast()) }
    }

    /// One register into an element.
    #[target_feature(enable = "avx2")]
    pub(super) fn store(x: &mut I32Lanes, v: __m256i) {
        // SAFETY: `x` is eight writable `i32`s; `storeu` has no alignment
        // requirement.
        unsafe { _mm256_storeu_si256(x.as_mut_ptr().cast(), v) }
    }

    /// One register-blocked micro-kernel: `ROWS × COLS` elements of C held
    /// in accumulators across the whole `depth`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `c` holds `ROWS` rows of stride `cols` and
    /// `COLS` columns, `a` `ROWS` rows of `depth` elements, `b` `depth`
    /// rows of stride `cols` and `COLS` columns.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile<const ROWS: usize, const COLS: usize>(
        c: *mut I32Lanes,
        a: *const I32Lanes,
        b: *const I32Lanes,
        cols: usize,
        depth: usize,
    ) {
        // Every load and store below is `loadu`/`storeu`: no alignment
        // requirement, one 32-byte element.
        let mut acc = [[_mm256_setzero_si256(); COLS]; ROWS];
        for (r, row) in acc.iter_mut().enumerate() {
            for (j, lane) in row.iter_mut().enumerate() {
                // SAFETY: element `(r, j)` of the C block.
                *lane = unsafe { _mm256_loadu_si256(c.add(r * cols + j).cast()) };
            }
        }
        for k in 0..depth {
            let mut av = [_mm256_setzero_si256(); ROWS];
            for (r, v) in av.iter_mut().enumerate() {
                // SAFETY: element `(r, k)` of the `ROWS × depth` A panel.
                *v = unsafe { _mm256_loadu_si256(a.add(r * depth + k).cast()) };
            }
            for j in 0..COLS {
                // SAFETY: element `(k, j)` of the B panel.
                let bv = unsafe { _mm256_loadu_si256(b.add(k * cols + j).cast()) };
                for (row, &x) in acc.iter_mut().zip(&av) {
                    row[j] = _mm256_min_epi32(row[j], _mm256_add_epi32(x, bv));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (j, &lane) in row.iter().enumerate() {
                // SAFETY: the same in-bounds C elements loaded above.
                unsafe { _mm256_storeu_si256(c.add(r * cols + j).cast(), lane) };
            }
        }
    }

    /// Walks C in `MR`-row blocks (then single rows), each in `NR`-column
    /// blocks (then a single column).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and the panels are as long as
    /// `super::lanewise_rank_update_i32x8` checks.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank_update(
        c: &mut [I32Lanes],
        a: &[I32Lanes],
        b: &[I32Lanes],
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        let (c, a, b) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut r = 0;
        while r < rows {
            let mut j = 0;
            if rows - r >= MR {
                while cols - j >= NR {
                    // SAFETY: rows `r..r + MR`, columns `j..j + NR` lie
                    // inside the checked panels, and AVX2 is enabled here.
                    unsafe {
                        tile::<MR, NR>(c.add(r * cols + j), a.add(r * depth), b.add(j), cols, depth)
                    };
                    j += NR;
                }
                if j < cols {
                    // SAFETY: as above, for the last column.
                    unsafe {
                        tile::<MR, 1>(c.add(r * cols + j), a.add(r * depth), b.add(j), cols, depth)
                    };
                }
                r += MR;
            } else {
                while j < cols {
                    // SAFETY: as above, for one row and one column.
                    unsafe {
                        tile::<1, 1>(c.add(r * cols + j), a.add(r * depth), b.add(j), cols, depth)
                    };
                    j += 1;
                }
                r += 1;
            }
        }
    }

    /// [`super::gather_lanes`]: one `vpermd` + `vpaddd` per element.
    #[target_feature(enable = "avx2")]
    pub(super) fn gather<T: AsRef<I32Lanes>>(
        dst: &mut [I32Lanes],
        src: &[T],
        stride: usize,
        rows: usize,
        cols: usize,
        g: &LaneGather,
    ) {
        let (index, add) = (load(&g.index), load(&g.add));
        let dst_rows = dst.chunks_exact_mut(cols).take(rows);
        for (drow, srow) in dst_rows.zip(src.chunks(stride)) {
            for (d, s) in drow.iter_mut().zip(srow) {
                let x = _mm256_permutevar8x32_epi32(load(s.as_ref()), index);
                store(d, _mm256_add_epi32(x, add));
            }
        }
    }

    /// A [`LaneFold`] in registers.
    #[derive(Clone, Copy)]
    pub(super) struct Fold {
        steps: [__m256i; 3],
        n: usize,
        head: __m256i,
        absent: __m256i,
    }

    impl Fold {
        #[target_feature(enable = "avx2")]
        pub(super) fn new(f: &LaneFold) -> Self {
            let s = &f.step_index;
            Self {
                steps: [load(&s[0]), load(&s[1]), load(&s[2])],
                n: f.steps,
                head: load(&f.head_index),
                absent: load(&f.absent),
            }
        }

        /// Segmented `min`, head permute, masked `min` into `cell`: one
        /// element.
        #[target_feature(enable = "avx2")]
        pub(super) fn one(self, cell: &mut I32Lanes, lanes: &I32Lanes) {
            let mut v = load(lanes);
            for &idx in &self.steps[..self.n] {
                v = _mm256_min_epi32(v, _mm256_permutevar8x32_epi32(v, idx));
            }
            let v = _mm256_max_epi32(_mm256_permutevar8x32_epi32(v, self.head), self.absent);
            store(cell, _mm256_min_epi32(load(cell), v));
        }
    }

    /// [`super::fold_lanes`], one element per register.
    #[target_feature(enable = "avx2")]
    pub(super) fn fold<T: AsMut<I32Lanes>>(
        c: &mut [T],
        cs: usize,
        acc: &[I32Lanes],
        rows: usize,
        cols: usize,
        f: &LaneFold,
    ) {
        let f = Fold::new(f);
        for (crow, arow) in c.chunks_mut(cs).zip(acc.chunks_exact(cols)).take(rows) {
            for (cell, lanes) in crow.iter_mut().zip(arow) {
                f.one(cell.as_mut(), lanes);
            }
        }
    }
}

/// The AVX-512F tier of the rank update and the fold: two adjacent
/// elements per `zmm` register, the last odd column through the AVX2 code.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::avx2::{self, load, store};
    use super::{I32Lanes, LaneFold};

    /// Rows of C one micro-kernel call keeps in registers: 4 rows × 4 `zmm`
    /// (8 columns) = 16 accumulators, plus 4 B vectors and the A broadcast,
    /// of the 32 `zmm` registers.
    const MR: usize = 4;

    /// One register-blocked micro-kernel: `ROWS` rows × `NV` `zmm` (two
    /// adjacent columns each) of C held in accumulators across the whole
    /// `depth`; each A element is broadcast to both halves of a register.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F; `c` holds `ROWS` rows of stride `cols`
    /// and `2·NV` columns, `a` `ROWS` rows of `depth` elements, `b` `depth`
    /// rows of stride `cols` and `2·NV` columns.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile<const ROWS: usize, const NV: usize>(
        c: *mut I32Lanes,
        a: *const I32Lanes,
        b: *const I32Lanes,
        cols: usize,
        depth: usize,
    ) {
        // Every load and store below is `loadu`/`storeu`: no alignment
        // requirement, two 32-byte elements (one for the A broadcast).
        let mut acc = [[_mm512_setzero_si512(); NV]; ROWS];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, pair) in row.iter_mut().enumerate() {
                // SAFETY: elements `(r, 2v)` and `(r, 2v + 1)` of the C block.
                *pair = unsafe { _mm512_loadu_si512(c.add(r * cols + 2 * v).cast()) };
            }
        }
        for k in 0..depth {
            let mut bv = [_mm512_setzero_si512(); NV];
            for (v, pair) in bv.iter_mut().enumerate() {
                // SAFETY: elements `(k, 2v)` and `(k, 2v + 1)` of the B panel.
                *pair = unsafe { _mm512_loadu_si512(b.add(k * cols + 2 * v).cast()) };
            }
            for (r, row) in acc.iter_mut().enumerate() {
                // SAFETY: element `(r, k)` of the `ROWS × depth` A panel.
                let x = unsafe { _mm256_loadu_si256(a.add(r * depth + k).cast()) };
                let x = _mm512_broadcast_i64x4(x);
                for (pair, &y) in row.iter_mut().zip(&bv) {
                    *pair = _mm512_min_epi32(*pair, _mm512_add_epi32(x, y));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &pair) in row.iter().enumerate() {
                // SAFETY: the same in-bounds C elements loaded above.
                unsafe { _mm512_storeu_si512(c.add(r * cols + 2 * v).cast(), pair) };
            }
        }
    }

    /// One block of `ROWS` rows of C, across all columns: tiles of 8, 4 and
    /// 2 columns, then the last odd column through the AVX2 kernel.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F and AVX2; `c` holds `ROWS` rows of stride
    /// `cols`, `a` `ROWS` rows of `depth` elements, `b` `depth` rows of
    /// `cols` elements.
    #[target_feature(enable = "avx512f")]
    unsafe fn row_block<const ROWS: usize>(
        c: *mut I32Lanes,
        a: *const I32Lanes,
        b: *const I32Lanes,
        cols: usize,
        depth: usize,
    ) {
        let mut j = 0;
        while cols - j >= 8 {
            // SAFETY: columns `j..j + 8` of the rows the caller vouches for.
            unsafe { tile::<ROWS, 4>(c.add(j), a, b.add(j), cols, depth) };
            j += 8;
        }
        if cols - j >= 4 {
            // SAFETY: as above, for four columns.
            unsafe { tile::<ROWS, 2>(c.add(j), a, b.add(j), cols, depth) };
            j += 4;
        }
        if cols - j >= 2 {
            // SAFETY: as above, for two columns.
            unsafe { tile::<ROWS, 1>(c.add(j), a, b.add(j), cols, depth) };
            j += 2;
        }
        if j < cols {
            // SAFETY: as above, for the last column; AVX2 is enabled.
            unsafe { avx2::tile::<ROWS, 1>(c.add(j), a, b.add(j), cols, depth) };
        }
    }

    /// Walks C in `MR`-row blocks, then single rows.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F and AVX2, and the panels are as long as
    /// `super::lanewise_rank_update_i32x8` checks.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn rank_update(
        c: &mut [I32Lanes],
        a: &[I32Lanes],
        b: &[I32Lanes],
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        let (c, a, b) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut r = 0;
        while rows - r >= MR {
            // SAFETY: rows `r..r + MR` lie inside the checked panels.
            unsafe { row_block::<MR>(c.add(r * cols), a.add(r * depth), b, cols, depth) };
            r += MR;
        }
        while r < rows {
            // SAFETY: as above, for one row.
            unsafe { row_block::<1>(c.add(r * cols), a.add(r * depth), b, cols, depth) };
            r += 1;
        }
    }

    /// A per-lane vector for two elements: `x` for the first, `x + offset`
    /// lane by lane for the second.
    #[target_feature(enable = "avx512f")]
    fn twice(x: &I32Lanes, offset: i32) -> __m512i {
        let pair: [i32; 16] = std::array::from_fn(|l| x[l % 8] + (l / 8) as i32 * offset);
        // SAFETY: `pair` is sixteen readable `i32`s; `loadu` has no
        // alignment requirement.
        unsafe { _mm512_loadu_si512(pair.as_ptr().cast()) }
    }

    /// Two adjacent elements into one register.
    #[target_feature(enable = "avx512f")]
    fn load2(x: &[I32Lanes; 2]) -> __m512i {
        // SAFETY: `x` is sixteen contiguous readable `i32`s.
        unsafe { _mm512_loadu_si512(x.as_ptr().cast()) }
    }

    /// [`super::fold_lanes`]: the segmented `min` and the head permute on
    /// two adjacent accumulator elements per `vpermd zmm`, then a `min`
    /// into each C element.
    #[target_feature(enable = "avx512f")]
    pub(super) fn fold<T: AsMut<I32Lanes>>(
        c: &mut [T],
        cs: usize,
        acc: &[I32Lanes],
        rows: usize,
        cols: usize,
        f: &LaneFold,
    ) {
        let s = &f.step_index;
        let steps = [twice(&s[0], 8), twice(&s[1], 8), twice(&s[2], 8)];
        let steps = &steps[..f.steps];
        let (head, absent) = (twice(&f.head_index, 8), twice(&f.absent, 0));
        let one = avx2::Fold::new(f);
        for (crow, arow) in c.chunks_mut(cs).zip(acc.chunks_exact(cols)).take(rows) {
            let (cpairs, clast) = crow[..cols].as_chunks_mut::<2>();
            let (apairs, alast) = arow.as_chunks::<2>();
            for ([c0, c1], a) in cpairs.iter_mut().zip(apairs) {
                let mut v = load2(a);
                for &idx in steps {
                    v = _mm512_min_epi32(v, _mm512_permutexvar_epi32(idx, v));
                }
                let v = _mm512_max_epi32(_mm512_permutexvar_epi32(head, v), absent);
                let (c0, c1) = (c0.as_mut(), c1.as_mut());
                store(c0, _mm256_min_epi32(load(c0), _mm512_castsi512_si256(v)));
                store(
                    c1,
                    _mm256_min_epi32(load(c1), _mm512_extracti64x4_epi64::<1>(v)),
                );
            }
            if let ([cell], [lanes]) = (clast, alast) {
                one.one(cell.as_mut(), lanes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `i32` pseudo-infinity of the tropical rings (`i32::MAX / 4`).
    const INF: i32 = i32::MAX / 4;

    /// Lanes drawn from the values rule-lane CYK stores and sums: `INF`
    /// padding, `INF + 10⁶` (a weighted `INF` B lane), rule weights 0 and
    /// 10⁶, small ties, and anything in `[0, INF]`.
    fn hard(s: &mut u64) -> i32 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match (*s >> 59) % 8 {
            0 => INF,
            1 => INF + 1_000_000,
            2 => 0,
            3 => 1_000_000,
            4 => ((*s >> 40) % 4) as i32,
            _ => ((*s >> 33) % (INF as u64 + 1)) as i32,
        }
    }

    /// Runs the dispatched entry point and the portable loop on the same
    /// inputs and compares all of C.
    fn assert_matches(rows: usize, cols: usize, depth: usize, seed: u64) {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut fill = |len: usize| -> Vec<I32Lanes> {
            (0..len)
                .map(|_| std::array::from_fn(|_| hard(&mut s)))
                .collect()
        };
        let (c, a, b) = (fill(rows * cols), fill(rows * depth), fill(depth * cols));
        let mut fast = c.clone();
        let mut reference = c;
        lanewise_rank_update_i32x8(&mut fast, &a, &b, rows, cols, depth);
        portable(&mut reference, &a, &b, rows, cols, depth);
        assert_eq!(fast, reference, "{rows}×{cols}×{depth} seed {seed}");
    }

    /// The shapes rule-lane CYK feeds the kernel: square stage-1 blocks,
    /// 4 × nb × depth stage-2 strips and 4 × 4 × 4cc left-tile updates,
    /// nb from 4 to 64.
    #[test]
    fn stage_shapes_match_portable_loop() {
        for nb in (4..=64).step_by(4) {
            assert_matches(nb, nb, nb, nb as u64);
            for depth in (4..nb).step_by(4) {
                assert_matches(4, nb, depth, (nb * 1000 + depth) as u64);
                assert_matches(4, 4, depth, (nb * 7000 + depth) as u64);
            }
        }
    }

    #[test]
    fn wrapping_sums_match_portable_loop() {
        // Sums past i32::MAX wrap in both paths alike.
        let mut fast = vec![[0; 8]; 4];
        let a = vec![[i32::MAX; 8]; 4];
        let b = vec![[1, 2, 3, i32::MAX, -1, 0, i32::MIN, 7]; 4];
        let mut reference = fast.clone();
        lanewise_rank_update_i32x8(&mut fast, &a, &b, 2, 2, 2);
        portable(&mut reference, &a, &b, 2, 2, 2);
        assert_eq!(fast, reference);
    }

    #[test]
    fn all_inf_operands_leave_c_alone() {
        let c0: Vec<I32Lanes> = (0..16).map(|i| [i; 8]).collect();
        let mut c = c0.clone();
        lanewise_rank_update_i32x8(&mut c, &[[INF; 8]; 16], &[[INF; 8]; 16], 4, 4, 4);
        assert_eq!(c, c0);
    }

    #[test]
    fn empty_shapes_are_no_ops() {
        let mut c = [[5; 8]; 4];
        lanewise_rank_update_i32x8(&mut c, &[], &[], 2, 2, 0);
        lanewise_rank_update_i32x8(&mut c, &[], &[[0; 8]; 4], 0, 2, 2);
        assert_eq!(c, [[5; 8]; 4]);
    }

    #[test]
    #[should_panic(expected = "B slice too short")]
    fn short_operand_is_rejected() {
        let mut c = [[0; 8]; 4];
        lanewise_rank_update_i32x8(&mut c, &[[0; 8]; 4], &[[0; 8]; 3], 2, 2, 2);
    }

    /// A panel element that is not itself an array, as callers' cell types
    /// are: the gather and fold reach its lanes through `AsRef`/`AsMut`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Cell(I32Lanes);

    impl AsRef<I32Lanes> for Cell {
        fn as_ref(&self) -> &I32Lanes {
            &self.0
        }
    }

    impl AsMut<I32Lanes> for Cell {
        fn as_mut(&mut self) -> &mut I32Lanes {
            &mut self.0
        }
    }

    /// The tiers of the lane kernels, widest first.
    #[derive(Clone, Copy, Debug)]
    enum Tier {
        Avx512,
        Avx2,
        Portable,
    }

    impl Tier {
        const ALL: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Portable];

        /// Whether this CPU runs the tier; a tier it lacks prints a skip
        /// line instead of passing silently.
        fn available(self) -> bool {
            let ok = match self {
                #[cfg(target_arch = "x86_64")]
                Tier::Avx512 => {
                    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2")
                }
                #[cfg(target_arch = "x86_64")]
                Tier::Avx2 => is_x86_feature_detected!("avx2"),
                Tier::Portable => true,
                #[cfg(not(target_arch = "x86_64"))]
                _ => false,
            };
            if !ok {
                println!("skip: the {self:?} lane-kernel tier is not available on this CPU");
            }
            ok
        }

        fn rank_update(
            self,
            c: &mut [I32Lanes],
            a: &[I32Lanes],
            b: &[I32Lanes],
            (rows, cols, depth): (usize, usize, usize),
        ) {
            match self {
                // SAFETY: `Tier::available` detected the tier's features,
                // and the callers size every panel to its shape.
                #[cfg(target_arch = "x86_64")]
                Tier::Avx512 => unsafe { avx512::rank_update(c, a, b, rows, cols, depth) },
                // SAFETY: as above.
                #[cfg(target_arch = "x86_64")]
                Tier::Avx2 => unsafe { avx2::rank_update(c, a, b, rows, cols, depth) },
                Tier::Portable => portable(c, a, b, rows, cols, depth),
                #[allow(unreachable_patterns)]
                _ => unreachable!("{self:?} is not compiled for this target"),
            }
        }

        fn gather(
            self,
            dst: &mut [I32Lanes],
            src: &[Cell],
            stride: usize,
            (rows, cols): (usize, usize),
            g: &LaneGather,
        ) {
            match self {
                // SAFETY: `Tier::available` detected the tier's features.
                #[cfg(target_arch = "x86_64")]
                Tier::Avx2 => unsafe { avx2::gather(dst, src, stride, rows, cols, g) },
                Tier::Portable => portable_gather(dst, src, stride, rows, cols, g),
                #[allow(unreachable_patterns)]
                _ => unreachable!("{self:?} is not a tier of the gather"),
            }
        }

        fn fold(
            self,
            c: &mut [Cell],
            cs: usize,
            acc: &[I32Lanes],
            (rows, cols): (usize, usize),
            f: &LaneFold,
        ) {
            match self {
                // SAFETY: `Tier::available` detected the tier's features.
                #[cfg(target_arch = "x86_64")]
                Tier::Avx512 => unsafe { avx512::fold(c, cs, acc, rows, cols, f) },
                // SAFETY: as above.
                #[cfg(target_arch = "x86_64")]
                Tier::Avx2 => unsafe { avx2::fold(c, cs, acc, rows, cols, f) },
                Tier::Portable => portable_fold(c, cs, acc, rows, cols, f),
                #[allow(unreachable_patterns)]
                _ => unreachable!("{self:?} is not compiled for this target"),
            }
        }
    }

    /// Any `i32` at all, edges over-weighted: the gather and fold must be
    /// exact on every input, not only on chart values.
    fn any_lane(s: &mut u64) -> i32 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match (*s >> 60) % 4 {
            0 => [i32::MIN, i32::MAX, -1, INF][(*s >> 20) as usize % 4],
            1 => hard(s),
            _ => (*s >> 32) as i32,
        }
    }

    fn cells(len: usize, s: &mut u64) -> Vec<Cell> {
        (0..len)
            .map(|_| Cell(std::array::from_fn(|_| any_lane(s))))
            .collect()
    }

    /// Head lists the fold must handle: none, one, all eight lanes into one
    /// head, eight distinct heads, repeated heads out of order with unused
    /// slots, and a few drawn at random.
    fn head_lists(s: &mut u64) -> Vec<Vec<usize>> {
        let mut lists = vec![
            vec![],
            vec![3],
            vec![6; 8],
            (0..8).rev().collect(),
            vec![5, 1, 5, 0, 1, 5, 7, 5],
            vec![2, 2, 0, 2, 2],
        ];
        for _ in 0..6 {
            let n = (any_lane(s) as u32 % 9) as usize;
            lists.push((0..n).map(|_| any_lane(s) as u32 as usize % 8).collect());
        }
        lists
    }

    /// Shapes with odd and even column counts (the AVX-512 tier's pairs and
    /// its single-column tail), including one row and one column.
    const SHAPES: [(usize, usize); 8] = [
        (1, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 4),
        (4, 7),
        (5, 16),
        (8, 33),
    ];

    /// Every tier of the rank update the CPU has, called directly, equals
    /// the portable loop: every row remainder of the 4-row blocks and every
    /// column remainder of the 8-, 4- and 2-column `zmm` tiles and the
    /// 2-column `ymm` tile. The dispatched tests above reach only the widest
    /// tier; this one keeps the narrower ones covered on every host.
    #[test]
    fn rank_update_tiers_match_portable_loop() {
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            let mut s = 0x1a7e;
            let mut fill = |len: usize| -> Vec<I32Lanes> {
                (0..len)
                    .map(|_| std::array::from_fn(|_| hard(&mut s)))
                    .collect()
            };
            for rows in 1..=9 {
                for cols in 1..=17 {
                    for depth in [1, 4, 7] {
                        let (c, a, b) = (fill(rows * cols), fill(rows * depth), fill(depth * cols));
                        let (mut fast, mut reference) = (c.clone(), c);
                        tier.rank_update(&mut fast, &a, &b, (rows, cols, depth));
                        portable(&mut reference, &a, &b, rows, cols, depth);
                        assert_eq!(fast, reference, "{tier:?} {rows}×{cols}×{depth}");
                    }
                }
            }
            println!("{tier:?} tier: rank update bit-identical to the portable loop");
        }
    }

    /// Every tier the CPU has, called directly, equals the portable gather:
    /// any lane index (repeats included), addends that wrap, strides with
    /// gaps, and the destination past the panel left alone. The gather has
    /// no AVX-512 tier: a `vpermt2d` version, two elements per `zmm`,
    /// measured no faster than one `vpermd` per element.
    #[test]
    fn gather_tiers_match_portable_loop() {
        for tier in [Tier::Avx2, Tier::Portable]
            .into_iter()
            .filter(|t| t.available())
        {
            let mut s = 0x6a7e;
            for (i, &(rows, cols)) in SHAPES.iter().enumerate() {
                for pad in [0, 3] {
                    let stride = cols + pad;
                    let src = cells(rows * stride, &mut s);
                    let index = std::array::from_fn(|_| any_lane(&mut s) as u32 as usize % 8);
                    let g = LaneGather::new(index, std::array::from_fn(|_| any_lane(&mut s)));
                    let dst0: Vec<I32Lanes> =
                        cells(rows * cols + 2, &mut s).iter().map(|c| c.0).collect();
                    let (mut fast, mut reference) = (dst0.clone(), dst0);
                    tier.gather(&mut fast, &src, stride, (rows, cols), &g);
                    portable_gather(&mut reference, &src, stride, rows, cols, &g);
                    assert_eq!(fast, reference, "{tier:?} shape {i} pad {pad}");
                }
            }
            println!("{tier:?} tier: gather bit-identical to the portable loop");
        }
    }

    /// Every tier the CPU has, called directly, equals the portable fold on
    /// every head list, with stride gaps in C that must stay as they were.
    #[test]
    fn fold_tiers_match_portable_loop() {
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            let mut s = 0xf01d;
            for heads in head_lists(&mut s) {
                let fold = LaneFold::new(&heads);
                for &(rows, cols) in &SHAPES {
                    for pad in [0, 2] {
                        let cs = cols + pad;
                        let c0 = cells(rows * cs, &mut s);
                        let acc: Vec<I32Lanes> =
                            cells(rows * cols, &mut s).iter().map(|c| c.0).collect();
                        let (mut fast, mut reference) = (c0.clone(), c0);
                        tier.fold(&mut fast, cs, &acc, (rows, cols), &fold);
                        portable_fold(&mut reference, cs, &acc, rows, cols, &fold);
                        assert_eq!(
                            fast, reference,
                            "{tier:?} heads {heads:?} {rows}×{cols} pad {pad}"
                        );
                    }
                }
            }
            println!("{tier:?} tier: fold bit-identical to the portable loop");
        }
    }

    /// The segmented `min` takes `⌈log₂⌉` of the largest class rounds.
    #[test]
    fn fold_rounds_follow_the_largest_class() {
        assert_eq!(LaneFold::new(&[]).steps, 0);
        assert_eq!(LaneFold::new(&[0, 1, 2, 3, 4, 5, 6, 7]).steps, 0);
        assert_eq!(LaneFold::new(&[4, 4]).steps, 1);
        assert_eq!(LaneFold::new(&[1, 0, 1, 0, 1]).steps, 2);
        assert_eq!(LaneFold::new(&[7; 8]).steps, 3);
    }

    #[test]
    fn empty_gather_and_fold_are_no_ops() {
        let fold = LaneFold::new(&[0, 0]);
        let mut c = [Cell([5; 8]); 2];
        fold_lanes(&mut c, 1, &[], 0, 1, &fold);
        fold_lanes(&mut c, 0, &[], 2, 0, &fold);
        assert_eq!(c, [Cell([5; 8]); 2]);
        let mut dst = [[5; 8]; 2];
        gather_lanes(
            &mut dst,
            &[Cell([1; 8])],
            0,
            1,
            0,
            &LaneGather::new([0; 8], [0; 8]),
        );
        assert_eq!(dst, [[5; 8]; 2]);
    }

    #[test]
    #[should_panic(expected = "source slice too short")]
    fn short_gather_source_is_rejected() {
        let mut dst = [[0; 8]; 4];
        let g = LaneGather::new([0; 8], [0; 8]);
        gather_lanes(&mut dst, &[Cell([0; 8]); 4], 3, 2, 2, &g);
    }

    #[test]
    #[should_panic(expected = "C slice too short")]
    fn short_fold_target_is_rejected() {
        let mut c = [Cell([0; 8]); 3];
        fold_lanes(&mut c, 2, &[[0; 8]; 4], 2, 2, &LaneFold::new(&[0]));
    }

    #[test]
    #[should_panic(expected = "lane index out of 0..8")]
    fn out_of_range_lane_index_is_rejected() {
        let _ = LaneGather::new([0, 1, 2, 3, 4, 5, 6, 8], [0; 8]);
    }

    #[test]
    #[should_panic(expected = "head slot out of 0..8")]
    fn out_of_range_head_is_rejected() {
        let _ = LaneFold::new(&[0, 8]);
    }

    #[test]
    #[should_panic(expected = "more than eight folded lanes")]
    fn nine_heads_are_rejected() {
        let _ = LaneFold::new(&[0; 9]);
    }

    proptest! {
        /// Random shapes, including ones that are not multiples of the
        /// register block.
        #[test]
        fn prop_shapes_match_portable_loop(
            rows in 1usize..19, cols in 1usize..19, depth in 1usize..19, seed in any::<u64>(),
        ) {
            assert_matches(rows, cols, depth, seed);
        }

        /// The dispatched gather and fold against their portable loops on
        /// random shapes, strides, lane indices and heads.
        #[test]
        fn prop_gather_and_fold_match_portable_loops(
            rows in 1usize..7, cols in 1usize..19, pad in 0usize..4,
            heads in prop::collection::vec(0usize..8, 0..9),
            index in prop::collection::vec(0usize..8, 8..9), seed in any::<u64>(),
        ) {
            let mut s = seed | 1;
            let stride = cols + pad;
            let src = cells(rows * stride, &mut s);
            let g = LaneGather::new(std::array::from_fn(|l| index[l]), std::array::from_fn(|_| any_lane(&mut s)));
            let (mut fast, mut reference) = (vec![[0; 8]; rows * cols], vec![[0; 8]; rows * cols]);
            gather_lanes(&mut fast, &src, stride, rows, cols, &g);
            portable_gather(&mut reference, &src, stride, rows, cols, &g);
            prop_assert_eq!(&fast, &reference);
            let fold = LaneFold::new(&heads);
            let (mut c_fast, mut c_reference) = (src.clone(), src);
            fold_lanes(&mut c_fast, stride, &fast, rows, cols, &fold);
            portable_fold(&mut c_reference, stride, &reference, rows, cols, &fold);
            prop_assert_eq!(c_fast, c_reference);
        }
    }
}
