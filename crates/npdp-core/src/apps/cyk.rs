//! Weighted CYK parsing on the NPDP engines.
//!
//! CYK over a binary (Chomsky-normal-form) grammar is interval-containment
//! DP with the *same* dependence structure as the min-plus closure — cell
//! `(i, j)` covers tokens `i..j` and reduces over splits `i < k < j` — but
//! over a richer algebra: the element is a **vector of nonterminal weights**
//! (tropical semiring per nonterminal) and `extend` applies every binary
//! rule `A → B C` to the pair of child vectors. Casting it as a
//! [`Recurrence`] over [`CykRing`] runs the parser unchanged on every
//! engine tier, SIMD-layout blocks and task queue included.
//!
//! Weights are non-negative rule costs (min-cost derivation ≙ Viterbi parse
//! under negated log-probabilities); all arithmetic is exact `i32`, so
//! engine agreement is exact equality.
//!
//! # Rule lanes
//!
//! [`CykRing`]'s `rank_update` turns a panel update into one
//! lane per binary rule, eight rules per group, in three `simd_kernel::lane`
//! steps per group:
//!
//! 1. [`simd_kernel::gather_lanes`] builds the A′ panel (lane `r` holds
//!    `x[b_r]`) and the B′ panel (lane `r` holds `y[c_r] + w_r`) by one
//!    register permute (plus one add) per element;
//! 2. [`simd_kernel::lanewise_rank_update_i32x8`] reduces `min(A′ + B′)`
//!    over the split dimension, eight rules per register;
//! 3. [`simd_kernel::fold_lanes`] folds each cell's rule lanes into their
//!    heads once, by a segmented `min` over register permutes.
//!
//! The panels are `NtVec`s, which the kernels reach through
//! `AsRef`/`AsMut<[i32; 8]>`. This is exact for a validated grammar:
//! every stored lane lies in `[0, INF]` and every weight in `[0, 10⁶]`, so
//! `x[b] + y[c] + w ≤ 2·INF + 10⁶ < i32::MAX` never saturates and
//! `min_k min_rules (x[b] + y[c] + w) = min_rules (w + min_k (x[b] + y[c]))`
//! holds bit for bit.

use std::cell::RefCell;
use std::sync::Arc;

use npdp_exec::ExecContext;
use simd_kernel::{
    edge_lanes, fold_lanes, gather_lanes, lanewise_rank_update_i32x8, I32Lanes, LaneFold,
    LaneGather, LaneRules,
};

use crate::error::SolveError;
use crate::layout::TriangularMatrix;
use crate::recurrence::{Recurrence, SolveRecurrence};
use crate::semiring::Semiring;
use crate::value::DpValue;

/// Hard cap on grammar nonterminals: the ring element is a fixed-width
/// vector so it stays `Copy` and block-layout friendly.
pub const MAX_NT: usize = 8;

/// Largest rule weight [`Grammar::validate`] accepts.
const MAX_WEIGHT: i32 = 1_000_000;

/// Infinity for rule weights (absent derivation).
const INF: i32 = <i32 as DpValue>::INFINITY;

/// Per-cell parse state: minimal derivation cost for each nonterminal over
/// the covered token span (`INF` = not derivable).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NtVec(pub [i32; MAX_NT]);

/// The rule-lane kernels' view of a vector: one `i32` lane per nonterminal.
impl AsRef<I32Lanes> for NtVec {
    fn as_ref(&self) -> &I32Lanes {
        &self.0
    }
}

impl AsMut<I32Lanes> for NtVec {
    fn as_mut(&mut self) -> &mut I32Lanes {
        &mut self.0
    }
}

impl NtVec {
    /// The "no derivation" vector — `combine`'s identity.
    pub const NONE: NtVec = NtVec([INF; MAX_NT]);

    /// Cost of deriving nonterminal `a`, if any.
    pub fn cost(&self, a: usize) -> Option<i32> {
        (self.0[a] < INF).then_some(self.0[a])
    }
}

/// A weighted CNF grammar: binary rules `A → B C` and per-terminal unit
/// rules `A → t`, each with a non-negative cost.
#[derive(Debug, Clone)]
pub struct Grammar {
    /// Number of live nonterminals (`≤ MAX_NT`); ids `0..nt_count`.
    pub nt_count: usize,
    /// Start symbol id.
    pub start: u8,
    /// Binary rules `(a, b, c, weight)`: `a → b c`.
    pub binary: Vec<(u8, u8, u8, i32)>,
    /// `terminal[t]` lists `(a, weight)` pairs for unit rules `a → t`.
    pub terminal: Vec<Vec<(u8, i32)>>,
}

impl Grammar {
    /// Validate rule ids and weights (non-negative, below saturation range).
    pub fn validate(&self) -> Result<(), String> {
        if self.nt_count == 0 || self.nt_count > MAX_NT {
            return Err(format!("nt_count {} out of 1..={MAX_NT}", self.nt_count));
        }
        let nt = self.nt_count as u8;
        if self.start >= nt {
            return Err("start symbol out of range".into());
        }
        for &(a, b, c, w) in &self.binary {
            if a >= nt || b >= nt || c >= nt {
                return Err("binary rule id out of range".into());
            }
            if !(0..=MAX_WEIGHT).contains(&w) {
                return Err("binary rule weight out of range".into());
            }
        }
        for rules in &self.terminal {
            for &(a, w) in rules {
                if a >= nt {
                    return Err("terminal rule id out of range".into());
                }
                if !(0..=MAX_WEIGHT).contains(&w) {
                    return Err("terminal rule weight out of range".into());
                }
            }
        }
        Ok(())
    }

    /// The nonterminal vector a single terminal symbol seeds.
    fn terminal_vec(&self, t: usize) -> NtVec {
        let mut v = NtVec::NONE;
        if let Some(rules) = self.terminal.get(t) {
            for &(a, w) in rules {
                let slot = &mut v.0[a as usize];
                *slot = (*slot).min(w);
            }
        }
        v
    }
}

/// The CYK algebra: elementwise tropical `min` as ⊕, rule application as ⊗.
///
/// Padding law: `zero()` is all-`INF`; `extend` of anything with an
/// all-`INF` operand yields per-rule sums with at least one `INF` term,
/// which saturating `i32` addition keeps `≥ INF` — far above any domain
/// cost (rule weights are capped at 10⁶ and spans at thousands of tokens,
/// while `INF = i32::MAX/4 ≈ 5.4·10⁸`) — so padded vectors always lose the
/// elementwise `min`. Pinned by `padding_law_for_cyk_ring` below.
#[derive(Clone)]
pub struct CykRing {
    grammar: Arc<Grammar>,
    /// Up to eight binary rules `a → b c` per group, one per `i32` lane:
    /// the A′ gather takes the left child `b_r`, the B′ gather the right
    /// child `c_r` plus the weight `w_r`, and the fold sends lane `r` to
    /// the head `a_r`. Lanes past the last rule read nonterminal 0 with
    /// weight 0 and are never folded back.
    groups: Arc<[LaneRules]>,
}

thread_local! {
    /// A′, B′ and accumulator panels of [`CykRing::rank_update`], grown to
    /// the largest shape this thread has seen.
    static PANELS: RefCell<Vec<I32Lanes>> = const { RefCell::new(Vec::new()) };
}

impl CykRing {
    /// The ring of `grammar`, with its rule groups built once.
    ///
    /// # Panics
    ///
    /// If `grammar` fails [`Grammar::validate`]: the rule-lane kernel's
    /// exactness rests on the weight and id ranges it checks.
    pub fn new(grammar: Arc<Grammar>) -> Self {
        if let Err(reason) = grammar.validate() {
            panic!("CYK ring over an invalid grammar: {reason}");
        }
        let groups = grammar
            .binary
            .chunks(8)
            .map(|g| {
                let lane = |f: fn(&(u8, u8, u8, i32)) -> usize| {
                    std::array::from_fn(|l| g.get(l).map_or(0, f))
                };
                let weight = std::array::from_fn(|l| g.get(l).map_or(0, |r| r.3));
                LaneRules {
                    left: LaneGather::new(lane(|r| r.1.into()), [0; 8]),
                    right: LaneGather::new(lane(|r| r.2.into()), weight),
                    heads: LaneFold::new(&g.iter().map(|r| r.0.into()).collect::<Vec<_>>()),
                }
            })
            .collect();
        Self { grammar, groups }
    }
}

impl Semiring for CykRing {
    type Elem = NtVec;

    fn zero(&self) -> NtVec {
        NtVec::NONE
    }

    fn combine(&self, a: NtVec, b: NtVec) -> NtVec {
        let mut out = a;
        for (o, &bv) in out.0.iter_mut().zip(b.0.iter()) {
            // min2 discipline: first argument wins ties (no-op for ints,
            // kept for uniformity with the scalar rings).
            if bv < *o {
                *o = bv;
            }
        }
        out
    }

    fn extend(&self, x: NtVec, y: NtVec) -> NtVec {
        let mut out = NtVec::NONE;
        for &(a, b, c, w) in &self.grammar.binary {
            let cand = x.0[b as usize]
                .saturating_add(y.0[c as usize])
                .saturating_add(w);
            let slot = &mut out.0[a as usize];
            if cand < *slot {
                *slot = cand;
            }
        }
        out
    }

    /// The whole same-tile edge in registers, rule group by rule group
    /// ([`simd_kernel::edge_lanes`]): exact for the reason the rank update
    /// is (module docs), since the tile's cells, like every stored cell,
    /// keep their lanes in `[0, INF]`.
    fn edge(
        &self,
        t: &mut [NtVec; 16],
        lo: &[NtVec; 16],
        hi: &[NtVec; 16],
        finalize: impl Fn(usize, usize, NtVec) -> NtVec,
    ) {
        edge_lanes(t, lo, hi, &self.groups, |i, j, cell: &mut NtVec| {
            *cell = finalize(i, j, *cell)
        });
    }

    /// The rule-lane update (module docs) on thread-local panels.
    fn rank_update(
        &self,
        c: &mut [NtVec],
        cs: usize,
        a: &[NtVec],
        as_: usize,
        b: &[NtVec],
        bs: usize,
        rows: usize,
        cols: usize,
        depth: usize,
    ) {
        let need = rows * depth + depth * cols + rows * cols;
        PANELS.with_borrow_mut(|panels| {
            if panels.len() < need {
                panels.resize(need, [0; 8]);
            }
            let (ap, rest) = panels.split_at_mut(rows * depth);
            let (bp, acc) = rest.split_at_mut(depth * cols);
            let acc = &mut acc[..rows * cols];
            for group in self.groups.iter() {
                gather_lanes(ap, a, as_, rows, depth, &group.left);
                gather_lanes(bp, b, bs, depth, cols, &group.right);
                acc.fill([INF; 8]);
                lanewise_rank_update_i32x8(acc, ap, bp, rows, cols, depth);
                fold_lanes(c, cs, acc, rows, cols, &group.heads);
            }
        });
    }
}

/// CYK as a [`Recurrence`]: engine table side `tokens + 1` in gap
/// coordinates — cell `(i, j)` covers `tokens[i..j]`, the base diagonal
/// `(i, i + 1)` is the terminal-rule vector of token `i`, and an engine
/// split `k` is exactly the CYK split point.
pub struct CykRec {
    ring: CykRing,
    seeds: Vec<NtVec>,
}

impl CykRec {
    /// Parse `tokens` (terminal symbol ids) under `grammar`.
    ///
    /// # Panics
    ///
    /// If `grammar` fails [`Grammar::validate`] (see [`CykRing::new`]);
    /// [`cyk_parse_on`] reports that as a [`SolveError`] instead.
    pub fn new(grammar: Arc<Grammar>, tokens: &[usize]) -> Self {
        let seeds = tokens.iter().map(|&t| grammar.terminal_vec(t)).collect();
        Self {
            ring: CykRing::new(grammar),
            seeds,
        }
    }
}

impl Recurrence for CykRec {
    type Ring = CykRing;

    fn ring(&self) -> &CykRing {
        &self.ring
    }

    fn side(&self) -> usize {
        self.seeds.len() + 1
    }

    fn seed(&self, i: usize, j: usize) -> NtVec {
        if j == i + 1 {
            self.seeds[i]
        } else {
            NtVec::NONE
        }
    }
}

/// A completed parse chart.
#[derive(Debug, Clone)]
pub struct CykParse {
    /// Chart in gap coordinates (side `tokens + 1`): `chart.get(i, j)` is
    /// the nonterminal vector over `tokens[i..j]`.
    pub chart: TriangularMatrix<NtVec>,
    /// Start symbol id the parse was run for.
    pub start: u8,
}

impl CykParse {
    /// Minimal derivation cost of the whole string from the start symbol,
    /// or `None` if the string is not in the language.
    pub fn weight(&self) -> Option<i32> {
        let n = self.chart.n();
        if n < 2 {
            return None; // empty token string
        }
        self.chart.get(0, n - 1).cost(self.start as usize)
    }
}

/// Parse `tokens` with `grammar` on any [`SolveRecurrence`] engine.
///
/// A grammar that fails [`Grammar::validate`] is reported as
/// [`SolveError::InvalidProblem`].
pub fn cyk_parse_on<E: SolveRecurrence + ?Sized>(
    engine: &E,
    grammar: Arc<Grammar>,
    tokens: &[usize],
    ctx: &ExecContext,
) -> Result<CykParse, SolveError> {
    grammar
        .validate()
        .map_err(|reason| SolveError::InvalidProblem {
            reason: format!("grammar {reason}"),
        })?;
    let start = grammar.start;
    let rec = CykRec::new(grammar, tokens);
    let (chart, _) = engine.solve_recurrence(&rec, ctx)?;
    Ok(CykParse { chart, start })
}

/// Textbook O(n³) CYK over explicit span lengths — the independent
/// reference the engine path is cross-checked against. Deliberately a
/// different loop structure (span length outer) and a plain `Vec<Vec<_>>`
/// chart, sharing no code with the engine path.
#[allow(clippy::needless_range_loop)] // deliberately the textbook index loops
pub fn cyk_reference(grammar: &Grammar, tokens: &[usize]) -> Option<i32> {
    let n = tokens.len();
    if n == 0 {
        return None;
    }
    let mut chart = vec![vec![[INF; MAX_NT]; n + 1]; n];
    for (i, &t) in tokens.iter().enumerate() {
        chart[i][i + 1] = grammar.terminal_vec(t).0;
    }
    for span in 2..=n {
        for i in 0..=n - span {
            let j = i + span;
            let mut acc = [INF; MAX_NT];
            for k in i + 1..j {
                for &(a, b, c, w) in &grammar.binary {
                    let cand = chart[i][k][b as usize]
                        .saturating_add(chart[k][j][c as usize])
                        .saturating_add(w);
                    if cand < acc[a as usize] {
                        acc[a as usize] = cand;
                    }
                }
            }
            chart[i][j] = acc;
        }
    }
    let w = chart[0][n][grammar.start as usize];
    (w < INF).then_some(w)
}

/// A small fixed demo grammar: balanced-ish bracket pairs with weighted
/// alternatives. Terminals: 0 = `(`, 1 = `)`, 2 = `x`.
pub fn demo_grammar() -> Grammar {
    Grammar {
        nt_count: 4,
        start: 0,
        // S → S S | L R | L P ; P → S R ; X → x-ish content
        binary: vec![
            (0, 0, 0, 1), // S → S S
            (0, 1, 2, 0), // S → L R
            (0, 1, 3, 2), // S → L P
            (3, 0, 2, 0), // P → S R
            (0, 0, 3, 5), // S → S P (redundant alternative, exercises min)
        ],
        terminal: vec![
            vec![(1, 0)],         // ( → L
            vec![(2, 0)],         // ) → R
            vec![(0, 3), (3, 9)], // x → S (cost 3) | P (cost 9)
        ],
    }
}

/// Deterministically generate a pseudo-random valid grammar (splitmix-style
/// LCG over `seed`): used by the property cross-checks and the serve-layer
/// synthetic workload, so both sides derive identical grammars from a seed.
pub fn random_grammar(seed: u64) -> Grammar {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as u32
    };
    let nt_count = 2 + (next() as usize % (MAX_NT - 1)); // 2..=8
    let n_binary = 3 + (next() as usize % 10);
    let binary = (0..n_binary)
        .map(|_| {
            (
                (next() as usize % nt_count) as u8,
                (next() as usize % nt_count) as u8,
                (next() as usize % nt_count) as u8,
                (next() % 100) as i32,
            )
        })
        .collect();
    let n_terminals = 2 + (next() as usize % 4);
    let terminal = (0..n_terminals)
        .map(|_| {
            let rules = 1 + (next() as usize % 2);
            (0..rules)
                .map(|_| ((next() as usize % nt_count) as u8, (next() % 100) as i32))
                .collect()
        })
        .collect();
    Grammar {
        nt_count,
        start: (next() as usize % nt_count) as u8,
        binary,
        terminal,
    }
}

/// Deterministic token string for a grammar (ids within its terminal set).
pub fn random_tokens(grammar: &Grammar, len: usize, seed: u64) -> Vec<usize> {
    let t = grammar.terminal.len().max(1);
    let mut s = seed ^ 0x9E3779B97F4A7C15;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BlockedEngine, ParallelEngine, SerialEngine, SimdEngine};

    #[test]
    fn demo_grammar_parses_brackets() {
        let g = Arc::new(demo_grammar());
        g.validate().unwrap();
        let ctx = ExecContext::disabled();
        // "( x )" = S → L P, P → S R with x → S: 2 + 3 + 0 + 0 = weight 5
        // vs S → L R impossible; exact min taken over alternatives.
        let parse = cyk_parse_on(&SerialEngine, g.clone(), &[0, 2, 1], &ctx).unwrap();
        assert_eq!(parse.weight(), cyk_reference(&g, &[0, 2, 1]));
        assert!(parse.weight().is_some());
        // Unbalanced string: ") (" has no S derivation.
        let bad = cyk_parse_on(&SerialEngine, g.clone(), &[1, 0], &ctx).unwrap();
        assert_eq!(bad.weight(), None);
        assert_eq!(bad.weight(), cyk_reference(&g, &[1, 0]));
    }

    /// Cross-check: the engine-path chart weight equals the textbook O(n³)
    /// reference for random grammars and random strings, on every engine
    /// tier — exact equality, spans straddling block boundaries.
    #[test]
    fn engines_match_textbook_reference_on_random_grammars() {
        let ctx = ExecContext::disabled();
        for trial in 0..12u64 {
            let g = Arc::new(random_grammar(0xC1C + trial));
            g.validate().unwrap();
            let len = [1, 2, 3, 7, 13, 18][trial as usize % 6] + (trial as usize % 3) * 10;
            let tokens = random_tokens(&g, len, trial * 31 + 7);
            let expect = cyk_reference(&g, &tokens);
            let serial = cyk_parse_on(&SerialEngine, g.clone(), &tokens, &ctx).unwrap();
            let blocked = cyk_parse_on(&BlockedEngine::new(8), g.clone(), &tokens, &ctx).unwrap();
            let simd = cyk_parse_on(&SimdEngine::new(8), g.clone(), &tokens, &ctx).unwrap();
            let par =
                cyk_parse_on(&ParallelEngine::new(8, 2, 4), g.clone(), &tokens, &ctx).unwrap();
            assert_eq!(serial.weight(), expect, "serial trial={trial} len={len}");
            // Full-chart equality across tiers, not just the root weight.
            assert_eq!(
                serial.chart.first_difference(&blocked.chart),
                None,
                "blocked trial={trial}"
            );
            assert_eq!(
                serial.chart.first_difference(&simd.chart),
                None,
                "simd trial={trial}"
            );
            assert_eq!(
                serial.chart.first_difference(&par.chart),
                None,
                "parallel trial={trial}"
            );
        }
    }

    /// Satellite: the padding law holds for the CYK ring — one padded
    /// extend can never win a reduce against a domain vector.
    #[test]
    fn padding_law_for_cyk_ring() {
        for trial in 0..8u64 {
            let ring = CykRing::new(Arc::new(random_grammar(0xFAD + trial)));
            let zero = ring.zero();
            let mut domain = vec![NtVec([0; MAX_NT]), NtVec([5; MAX_NT])];
            let mut mixed = NtVec::NONE;
            for (i, slot) in mixed.0.iter_mut().enumerate() {
                if i % 2 == 0 {
                    *slot = (i * 37) as i32;
                }
            }
            domain.push(mixed);
            for &d in &domain {
                // Everything an engine can write into padding: zero itself
                // and any chain of extends involving it.
                for padded in [
                    zero,
                    ring.extend(zero, d),
                    ring.extend(d, zero),
                    ring.extend(ring.extend(zero, d), ring.extend(d, zero)),
                ] {
                    // A padded vector may derive nothing below INF... but
                    // rule application on INF operands saturates ≥ INF, so
                    // the law reduces to: no finite lane below any domain
                    // lane that is itself finite. `padding_loses` needs the
                    // padded value to lose elementwise min outright, which
                    // holds when the domain value is fully finite.
                    if d.0.iter().all(|&x| x < INF) {
                        assert!(ring.padding_loses(padded, d), "trial={trial}");
                    }
                    for lane in padded.0 {
                        assert!(lane >= <i32 as DpValue>::PAD_FLOOR, "trial={trial}");
                    }
                }
            }
        }
    }

    /// `combine` laws for the CYK ring: lane-wise `min` over solved
    /// charts' vectors, `NONE` and once-padded vectors is exactly
    /// commutative, associative and idempotent.
    #[test]
    fn combine_laws_for_cyk_ring() {
        let g = Arc::new(random_grammar(0xC0B));
        let ring = CykRing::new(Arc::clone(&g));
        let mut domain = vec![NtVec::NONE, ring.extend(NtVec::NONE, NtVec([3; MAX_NT]))];
        for seed in 0..3 {
            let tokens = random_tokens(&g, 9, seed);
            let ctx = ExecContext::disabled();
            let chart = cyk_parse_on(&SerialEngine, Arc::clone(&g), &tokens, &ctx)
                .unwrap()
                .chart;
            domain.extend(chart.as_slice().iter().step_by(7));
        }
        crate::semiring::tests::combine_laws(&ring, &domain);
    }

    /// CYK through the `Semiring` defaults only: `rank_update` is the scalar
    /// 4×4 tile sweep, one `extend`/`combine` per candidate — the reference
    /// the rule-lane kernel must equal.
    #[derive(Clone)]
    struct ScalarCyk(CykRing);

    impl Semiring for ScalarCyk {
        type Elem = NtVec;
        fn zero(&self) -> NtVec {
            self.0.zero()
        }
        fn combine(&self, a: NtVec, b: NtVec) -> NtVec {
            self.0.combine(a, b)
        }
        fn extend(&self, x: NtVec, y: NtVec) -> NtVec {
            self.0.extend(x, y)
        }
    }

    /// Lanes a chart can hold: `INF`, 0, 10⁶, small ties, anything in
    /// `[0, INF]`; `all_inf` panels hold nothing but `INF`.
    fn panel(len: usize, s: &mut u64, all_inf: bool) -> Vec<NtVec> {
        let mut lane = || {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (*s >> 59) % 6 {
                _ if all_inf => INF,
                0 => INF,
                1 => 0,
                2 => MAX_WEIGHT,
                3 => ((*s >> 40) % 4) as i32,
                _ => ((*s >> 33) % (INF as u64 + 1)) as i32,
            }
        };
        (0..len)
            .map(|_| NtVec(std::array::from_fn(|_| lane())))
            .collect()
    }

    /// `rank_update` of `ring` (the dispatched rule-lane kernel) equals the
    /// scalar tile sweep bit for bit on one `rows × cols × depth` shape,
    /// with row strides wider than the panels (the gaps must stay as
    /// they were).
    fn assert_rank_update_matches(
        ring: &CykRing,
        (rows, cols, depth): (usize, usize, usize),
        seed: u64,
        all_inf: bool,
    ) {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let (cs, as_, bs) = (cols + 3, depth + 1, cols + 2);
        let c0 = panel(rows * cs, &mut s, false);
        let a = panel(rows * as_, &mut s, all_inf);
        let b = panel(depth * bs, &mut s, all_inf);
        let (mut lanes, mut scalar) = (c0.clone(), c0.clone());
        ring.rank_update(&mut lanes, cs, &a, as_, &b, bs, rows, cols, depth);
        ScalarCyk(ring.clone()).rank_update(&mut scalar, cs, &a, as_, &b, bs, rows, cols, depth);
        assert!(
            lanes == scalar,
            "{rows}×{cols}×{depth} seed {seed} all_inf {all_inf}"
        );
        if all_inf {
            assert!(lanes == c0, "INF operands must leave C alone");
        }
        if (rows, cols, depth) == (4, 4, 4) {
            let mut tile = c0;
            ring.tile4(&mut tile, cs, &a, as_, &b, bs);
            assert!(tile == scalar, "tile4 seed {seed}");
        }
    }

    /// A random grammar of the generator's largest shape: 8 nonterminals,
    /// 12 binary rules (two rule groups, the second half full).
    fn largest_random_grammar(seed: u64) -> Grammar {
        (0u64..)
            .map(|k| random_grammar(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
            .find(|g| g.nt_count == MAX_NT && g.binary.len() == 12)
            .expect("the generator reaches its largest shape")
    }

    /// 21 rules (three groups, a 5-lane tail): duplicate `(b, c)` pairs
    /// under one head and under two, weights 0 and 10⁶, and heads 5..8
    /// that no rule produces.
    fn hand_built_grammar() -> Grammar {
        let mut binary = vec![
            (0, 1, 2, 0),
            (0, 1, 2, MAX_WEIGHT),
            (1, 1, 2, 3),
            (2, 1, 2, 0),
            (0, 7, 7, MAX_WEIGHT),
            (4, 0, 0, 0),
        ];
        binary.extend((0..15).map(|r| ((r % 5) as u8, (r % 8) as u8, (7 - r % 8) as u8, r * 37)));
        let g = Grammar {
            nt_count: MAX_NT,
            start: 0,
            binary,
            terminal: vec![vec![(0, 0), (7, MAX_WEIGHT)], vec![(1, 2)]],
        };
        g.validate().unwrap();
        g
    }

    /// The kernel's shapes: 4 × nb × depth stage-2 strips and 4 × 4 × 4cc
    /// left-tile updates for nb = 4..64, a few square stage-1 blocks, and
    /// all-`INF` operand panels.
    #[test]
    fn rule_lane_rank_update_equals_scalar_extend_combine() {
        let mut grammars: Vec<Grammar> = (0..3).map(largest_random_grammar).collect();
        grammars.push(hand_built_grammar());
        for (gi, g) in grammars.into_iter().enumerate() {
            let ring = CykRing::new(Arc::new(g));
            let seed = |x: usize| (gi * 1_000_003 + x) as u64;
            for nb in (4..=64).step_by(4) {
                for depth in (4..nb).step_by(4) {
                    assert_rank_update_matches(
                        &ring,
                        (4, nb, depth),
                        seed(nb * 100 + depth),
                        false,
                    );
                    assert_rank_update_matches(&ring, (4, 4, depth), seed(nb * 7 + depth), false);
                }
            }
            for nb in [4, 12, 32] {
                assert_rank_update_matches(&ring, (nb, nb, nb), seed(nb), false);
                assert_rank_update_matches(&ring, (nb, nb, nb), seed(nb), true);
            }
            assert_rank_update_matches(&ring, (4, 4, 4), seed(1), false);
        }
    }

    /// A grammar of `rules` binary rules for the rule-lane property test:
    /// head mode 0 sends every rule to head 5, mode 1 draws heads at random,
    /// mode 2 cycles through heads 6, 2, 6, 1 (unsorted, with 0, 3, 4, 5 and
    /// 7 unused). Weights are 0, 10⁶ or small, children anything.
    fn lane_grammar(rules: usize, head_mode: usize, seed: u64) -> Grammar {
        let mut s = seed | 1;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let binary = (0..rules)
            .map(|r| {
                let head = match head_mode {
                    0 => 5,
                    1 => next() % MAX_NT,
                    _ => [6, 2, 6, 1][r % 4],
                };
                let weight = match next() % 3 {
                    0 => 0,
                    1 => MAX_WEIGHT,
                    _ => (next() % 1000) as i32,
                };
                let (b, c) = (next() % MAX_NT, next() % MAX_NT);
                (head as u8, b as u8, c as u8, weight)
            })
            .collect();
        let g = Grammar {
            nt_count: MAX_NT,
            start: 0,
            binary,
            terminal: vec![vec![(0, 0)]],
        };
        g.validate().unwrap();
        g
    }

    proptest::proptest! {
        /// `rank_update` and `tile4` equal the defaults-only scalar ring on
        /// 1, 8, 9, 16 and 17 rules (one full group, a one-lane tail, two
        /// full groups, three), every head mode of `lane_grammar`, strided
        /// panels of any 4-multiple shape, and all-`INF` operands.
        #[test]
        fn prop_rule_lanes_equal_scalar_ring(
            rule_count in 0usize..5, head_mode in 0usize..3,
            rows in 1usize..4, cols in 1usize..5, depth in 1usize..5,
            all_inf in proptest::prelude::any::<bool>(), seed in proptest::prelude::any::<u64>(),
        ) {
            let rules = [1, 8, 9, 16, 17][rule_count];
            let ring = CykRing::new(Arc::new(lane_grammar(rules, head_mode, seed)));
            assert_rank_update_matches(&ring, (4 * rows, 4 * cols, 4 * depth), seed, all_inf);
            assert_rank_update_matches(&ring, (4, 4, 4), seed ^ 1, all_inf);
        }
    }

    proptest::proptest! {
        /// The rule-lane edge equals the flowchart default bit for bit on
        /// random tiles (`INF` padding, weights 0 and 10⁶), with a
        /// non-identity `finalize` that later cells must see.
        #[test]
        fn prop_rule_lane_edge_equals_flowchart(
            rule_count in 0usize..5, head_mode in 0usize..3, seed in proptest::prelude::any::<u64>(),
        ) {
            let rules = [1, 8, 9, 12, 17][rule_count];
            let ring = CykRing::new(Arc::new(lane_grammar(rules, head_mode, seed)));
            let mut s = seed | 1;
            let mut tile = || -> [NtVec; 16] { panel(16, &mut s, false).try_into().unwrap() };
            let (t0, lo, hi) = (tile(), tile(), tile());
            let finalize = |i: usize, j: usize, mut v: NtVec| {
                v.0[(i + j) % MAX_NT] = v.0[(i + j) % MAX_NT].min((i * 4 + j) as i32);
                v
            };
            let (mut lanes, mut scalar) = (t0, t0);
            ring.edge(&mut lanes, &lo, &hi, finalize);
            ScalarCyk(ring.clone()).edge(&mut scalar, &lo, &hi, finalize);
            proptest::prop_assert!(lanes == scalar, "rules {rules} heads {head_mode}");
        }
    }

    /// The kernel's no-saturation argument rests on this invariant: after a
    /// solve on any tier, every lane of every chart cell lies in `[0, INF]`.
    #[test]
    fn chart_lanes_stay_within_zero_and_inf() {
        let ctx = ExecContext::disabled();
        for (trial, g) in [largest_random_grammar(5), hand_built_grammar()]
            .into_iter()
            .enumerate()
        {
            let g = Arc::new(g);
            let tokens = random_tokens(&g, 45, trial as u64);
            for chart in [
                cyk_parse_on(&SerialEngine, g.clone(), &tokens, &ctx),
                cyk_parse_on(&SimdEngine::new(8), g.clone(), &tokens, &ctx),
                cyk_parse_on(&ParallelEngine::new(16, 2, 2), g.clone(), &tokens, &ctx),
            ] {
                for (i, j, v) in chart.unwrap().chart.iter() {
                    assert!(
                        v.0.iter().all(|lane| (0..=INF).contains(lane)),
                        "trial {trial} cell ({i},{j}) = {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_grammar_is_a_typed_error_on_every_engine() {
        let mut g = demo_grammar();
        g.binary.push((0, 1, 2, MAX_WEIGHT + 1));
        let g = Arc::new(g);
        let ctx = ExecContext::disabled();
        for err in [
            cyk_parse_on(&SerialEngine, g.clone(), &[0, 1], &ctx).unwrap_err(),
            cyk_parse_on(&BlockedEngine::new(8), g.clone(), &[0, 1], &ctx).unwrap_err(),
            cyk_parse_on(&SimdEngine::new(8), g.clone(), &[0, 1], &ctx).unwrap_err(),
            cyk_parse_on(&ParallelEngine::new(8, 2, 2), g.clone(), &[0, 1], &ctx).unwrap_err(),
        ] {
            assert!(
                matches!(&err, SolveError::InvalidProblem { reason } if reason.contains("weight")),
                "{err:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid grammar")]
    fn cyk_rec_panics_on_an_invalid_grammar() {
        let mut g = demo_grammar();
        g.start = 9;
        let _ = CykRec::new(Arc::new(g), &[0]);
    }

    #[test]
    fn rejects_invalid_grammars() {
        let mut g = demo_grammar();
        g.start = 7;
        assert!(g.validate().is_err());
        let mut g2 = demo_grammar();
        g2.binary.push((0, 9, 0, 1));
        assert!(g2.validate().is_err());
        let mut g3 = demo_grammar();
        g3.terminal[0].push((0, -4));
        assert!(g3.validate().is_err());
    }

    #[test]
    fn empty_and_single_token_strings() {
        let g = Arc::new(demo_grammar());
        let ctx = ExecContext::disabled();
        let empty = cyk_parse_on(&SerialEngine, g.clone(), &[], &ctx).unwrap();
        assert_eq!(empty.weight(), None);
        let one = cyk_parse_on(&SerialEngine, g.clone(), &[2], &ctx).unwrap();
        assert_eq!(one.weight(), Some(3)); // x → S directly
        assert_eq!(one.weight(), cyk_reference(&g, &[2]));
    }
}
