//! The solve cache: identical problems are common at scale (the same RNA
//! sequence folded by many callers), and a DP solve is a pure function of
//! its seeds — so the service memoizes *encoded result bodies* keyed by a
//! stable hash of the workload's canonical bytes.
//!
//! Bit-identity of hits is structural: the cache stores the exact bytes a
//! miss produced, and the canonical key covers every bit of the problem
//! (generator seeds for synthetic workloads, the full seed bit-pattern for
//! inline ones) under a 128-bit FNV-1a — no truncated-hash aliasing at any
//! realistic cache size. The property test in `tests/serve.rs` checks the
//! contract end to end: a warmed cache serves bytes equal to a fresh
//! recomputation.
//!
//! Eviction is **segmented LRU**, weighed in bytes: each entry costs its
//! body's length plus [`ENTRY_OVERHEAD`] against a byte budget, a fifth of
//! which is *probation* and the rest *protected*. New bodies enter
//! probation and are promoted to protected on their first hit, so a burst
//! of one-shot workloads sweeping through probation cannot flush the
//! workloads that hit repeatedly. Each segment is LRU-ordered; protected
//! overflow demotes back to probation rather than evicting outright. An
//! entry weighing more than the whole probation share is never admitted
//! (the `serve.cache.oversize` counter), so one huge answer cannot flush
//! the hot set. The fixed per-entry charge keeps tiny bodies from piling
//! up uncounted bookkeeping: the budget bounds the entry count too, at
//! `budget / ENTRY_OVERHEAD`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::sync::Mutex;

use crate::protocol::Workload;

/// 128-bit FNV-1a over `bytes` — stable across processes, platforms and
/// runs (no `RandomState`), which is what lets cache keys appear in logs
/// and reports.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Stable cache key of a workload.
pub fn workload_key(workload: &Workload) -> u128 {
    fnv1a_128(&workload.canonical_bytes())
}

/// A successful lookup: the cached body plus what the hit did to the
/// segments (the events behind the `serve.cache.promotions` and
/// `serve.cache.evictions` counters).
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The cached encoded result body.
    pub body: Arc<Vec<u8>>,
    /// True when this was the entry's first hit, moving it from the
    /// probation segment into the protected one.
    pub promoted: bool,
    /// Probation entries evicted to make room for what the promotion
    /// demoted out of protected.
    pub evicted: usize,
}

/// Bytes charged per cached entry on top of its body: the hash-map slot
/// with its 128-bit key, the recency-order entry, the `Arc` allocation
/// and the allocator's headers. A counting-allocator probe of 10⁴–10⁵
/// inserts of 1–13 byte bodies measured 189–227 bytes; this rounds up.
pub const ENTRY_OVERHEAD: usize = 256;

/// What an entry holding `body` costs against the budget.
fn weight(body: &[u8]) -> usize {
    body.len() + ENTRY_OVERHEAD
}

/// A byte-budgeted segmented-LRU memo of encoded result bodies.
///
/// Budget 0 disables the cache entirely. A fifth of the budget is
/// probation (first sighting), the rest protected (hit at least once);
/// both segments evict least-recently-used until their entries' weights
/// ([`ENTRY_OVERHEAD`] plus the body length) fit their share. Lock hold
/// time is `O(log entries)` per operation (ordered-map reshuffles), plus
/// one step per entry evicted or demoted.
#[derive(Debug)]
pub struct SolveCache {
    inner: Mutex<CacheInner>,
    probation_cap: usize,
    protected_cap: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<u128, Slot>,
    /// LRU orders: recency stamp → key, oldest first. A key lives in
    /// exactly one of the two, matching its slot's `protected` flag.
    probation: BTreeMap<u64, u128>,
    protected: BTreeMap<u64, u128>,
    /// Entry weights resident in each segment.
    probation_bytes: usize,
    protected_bytes: usize,
    stamp: u64,
    promotions: u64,
    evictions: u64,
    oversize: u64,
}

#[derive(Debug)]
struct Slot {
    body: Arc<Vec<u8>>,
    stamp: u64,
    protected: bool,
}

impl CacheInner {
    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

impl SolveCache {
    /// A cache whose entries weigh at most `budget` bytes in all.
    pub fn new(budget: usize) -> Self {
        let probation_cap = budget / 5;
        Self {
            inner: Mutex::new(CacheInner::default()),
            probation_cap,
            protected_cap: budget - probation_cap,
        }
    }

    fn disabled(&self) -> bool {
        self.probation_cap + self.protected_cap == 0
    }

    /// Look up an encoded body. A hit refreshes the entry's recency; a
    /// first hit additionally promotes it from probation to protected
    /// (demoting protected LRUs back to probation if that segment
    /// overflows).
    pub fn get(&self, key: u128) -> Option<CacheHit> {
        if self.disabled() {
            return None;
        }
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let slot = inner.map.get_mut(&key)?;
        let (old_stamp, promoted) = (slot.stamp, !slot.protected);
        inner.stamp += 1;
        slot.stamp = inner.stamp;
        slot.protected = true;
        let body = Arc::clone(&slot.body);
        inner.protected.insert(inner.stamp, key);
        let evicted = if promoted {
            inner.probation.remove(&old_stamp);
            inner.probation_bytes -= weight(&body);
            inner.protected_bytes += weight(&body);
            inner.promotions += 1;
            self.settle(inner)
        } else {
            inner.protected.remove(&old_stamp);
            0
        };
        Some(CacheHit {
            body,
            promoted,
            evicted,
        })
    }

    /// Insert an encoded body into probation, evicting that segment's LRU
    /// entries until it fits its share; returns the number evicted. An
    /// entry heavier than the whole share is refused and counted
    /// ([`SolveCache::oversize`]). Concurrent duplicate inserts are
    /// harmless: solves are deterministic, so a racing miss carries the
    /// bytes already resident, which keep their place.
    pub fn insert(&self, key: u128, body: Arc<Vec<u8>>) -> usize {
        if self.disabled() {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap();
        if weight(&body) > self.probation_cap {
            inner.oversize += 1;
            return 0;
        }
        if inner.map.contains_key(&key) {
            return 0;
        }
        let stamp = inner.next_stamp();
        inner.probation_bytes += weight(&body);
        inner.map.insert(
            key,
            Slot {
                body,
                stamp,
                protected: false,
            },
        );
        inner.probation.insert(stamp, key);
        self.settle(&mut inner)
    }

    /// Bring both segments back inside their shares: protected overflow
    /// demotes its LRU to probation's MRU (it earned a hit once), then
    /// probation evicts its LRU. Every resident entry fits the probation
    /// share, which is at most the protected one, so the entry a caller
    /// just touched (the MRU) is never the one moved. Returns the number
    /// of evictions.
    fn settle(&self, inner: &mut CacheInner) -> usize {
        while inner.protected_bytes > self.protected_cap {
            let (_, key) = inner.protected.pop_first().expect("bytes imply entries");
            let stamp = inner.next_stamp();
            let slot = inner.map.get_mut(&key).expect("ordered keys are mapped");
            slot.stamp = stamp;
            slot.protected = false;
            let w = weight(&slot.body);
            inner.protected_bytes -= w;
            inner.probation_bytes += w;
            inner.probation.insert(stamp, key);
        }
        let mut evicted = 0;
        while inner.probation_bytes > self.probation_cap {
            let (_, key) = inner.probation.pop_first().expect("bytes imply entries");
            let slot = inner.map.remove(&key).expect("ordered keys are mapped");
            inner.probation_bytes -= weight(&slot.body);
            inner.evictions += 1;
            evicted += 1;
        }
        evicted
    }

    /// Number of cached bodies.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes charged for the resident entries across both segments,
    /// bodies plus [`ENTRY_OVERHEAD`] each (the `serve.cache.bytes`
    /// gauge); never above the budget.
    pub fn bytes(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.probation_bytes + inner.protected_bytes
    }

    /// Lifetime probation→protected promotions (the
    /// `serve.cache.promotions` counter).
    pub fn promotions(&self) -> u64 {
        self.inner.lock().unwrap().promotions
    }

    /// Lifetime evictions (the `serve.cache.evictions` counter).
    pub fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }

    /// Lifetime bodies refused for weighing more than the probation share
    /// (the `serve.cache.oversize` counter).
    pub fn oversize(&self) -> u64 {
        self.inner.lock().unwrap().oversize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npdp_core::TriangularMatrix;

    #[test]
    fn keys_are_stable_and_content_sensitive() {
        let a = Workload::ClosureSynthetic { n: 32, seed: 7 };
        assert_eq!(workload_key(&a), workload_key(&a.clone()));
        // Any differing field changes the key.
        assert_ne!(
            workload_key(&a),
            workload_key(&Workload::ClosureSynthetic { n: 32, seed: 8 })
        );
        assert_ne!(
            workload_key(&a),
            workload_key(&Workload::ClosureSynthetic { n: 33, seed: 7 })
        );
        // Kind is part of the key even at equal (n, seed): all six synthetic
        // kinds carry the same (u32, u64) parameter bytes here, yet every
        // pair of cache keys is distinct.
        let same_params = [
            Workload::ClosureSynthetic { n: 32, seed: 7 },
            Workload::ParenthesizeSynthetic {
                matrices: 32,
                seed: 7,
            },
            Workload::FoldSynthetic { bases: 32, seed: 7 },
            Workload::BstSynthetic { keys: 32, seed: 7 },
            Workload::CykSynthetic {
                tokens: 32,
                seed: 7,
            },
            Workload::ZukerSynthetic { bases: 32, seed: 7 },
        ];
        for (i, x) in same_params.iter().enumerate() {
            for y in same_params.iter().skip(i + 1) {
                assert_ne!(
                    workload_key(x),
                    workload_key(y),
                    "{} / {} cache keys collide",
                    x.kind_name(),
                    y.kind_name()
                );
            }
        }
        // Inline keys see every seed bit.
        let seeds = TriangularMatrix::from_fn(8, |i, j| (i + j) as f32);
        let mut tweaked = seeds.clone();
        tweaked.set(2, 5, f32::from_bits(tweaked.get(2, 5).to_bits() ^ 1));
        assert_ne!(
            workload_key(&Workload::ClosureInline { seeds }),
            workload_key(&Workload::ClosureInline { seeds: tweaked })
        );
    }

    #[test]
    fn fnv_reference_vector() {
        // FNV-1a 128 of the empty input is the offset basis.
        assert_eq!(fnv1a_128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
    }

    /// A body of `len` bytes.
    fn body(len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![len as u8; len])
    }

    /// What an entry with a `len`-byte body weighs.
    fn w(len: usize) -> usize {
        len + ENTRY_OVERHEAD
    }

    /// Resident weight per segment, as the cache tracks it.
    fn segment_bytes(cache: &SolveCache) -> (usize, usize) {
        let inner = cache.inner.lock().unwrap();
        (inner.probation_bytes, inner.protected_bytes)
    }

    #[test]
    fn oversize_bodies_are_refused() {
        // Probation holds exactly one 20-byte body's entry.
        let cache = SolveCache::new(5 * w(20));
        assert_eq!(cache.insert(1, body(21)), 0);
        assert!(cache.get(1).is_none());
        assert_eq!((cache.bytes(), cache.oversize()), (0, 1));
        // Exactly the probation share is admitted.
        assert_eq!(cache.insert(2, body(20)), 0);
        assert_eq!(cache.bytes(), w(20));
        assert_eq!(cache.oversize(), 1);
    }

    #[test]
    fn probation_evicts_lru_and_bounds_the_cache() {
        let share = w(10) + w(5);
        let cache = SolveCache::new(5 * share);
        cache.insert(1, body(10));
        cache.insert(2, body(5));
        assert_eq!(cache.bytes(), share);
        // Another 10-byte body would overflow the share: the LRU (key 1)
        // goes.
        assert_eq!(cache.insert(3, body(10)), 1);
        assert!(cache.get(1).is_none(), "un-hit LRU evicted first");
        assert_eq!(segment_bytes(&cache), (share, 0));
        // A full-share body flushes both remaining one-shot entries.
        assert_eq!(cache.insert(4, body(share - ENTRY_OVERHEAD)), 2);
        assert_eq!((cache.len(), cache.bytes()), (1, share));
        assert_eq!(cache.evictions(), 3);
    }

    #[test]
    fn tiny_bodies_are_bounded_by_their_entry_overhead() {
        // However small the bodies, each entry is charged its bookkeeping,
        // so the budget bounds the entry count.
        let budget = 64 * ENTRY_OVERHEAD;
        let cache = SolveCache::new(budget);
        for k in 0..10_000u128 {
            cache.insert(k, body(1));
            if k % 2 == 0 {
                cache.get(k).unwrap();
            }
            assert!(cache.len() <= budget / ENTRY_OVERHEAD);
        }
        assert!(cache.bytes() <= budget);
        assert!(cache.len() > budget / (2 * ENTRY_OVERHEAD), "still caches");
    }

    #[test]
    fn reinserting_a_key_does_not_double_count() {
        let cache = SolveCache::new(5 * w(12));
        cache.insert(1, body(12));
        assert_eq!(cache.insert(1, body(12)), 0);
        assert_eq!((cache.len(), cache.bytes()), (1, w(12)));
        // Also once promoted: the bytes stay in protected, counted once.
        cache.get(1).unwrap();
        cache.insert(1, body(12));
        assert_eq!(segment_bytes(&cache), (0, w(12)));
    }

    #[test]
    fn hits_promote_out_of_probations_reach() {
        let cache = SolveCache::new(5 * w(8));
        cache.insert(1, body(8));
        let hit = cache.get(1).unwrap();
        assert_eq!(*hit.body, vec![8; 8]);
        assert!(hit.promoted, "first hit promotes");
        assert_eq!(cache.promotions(), 1);
        assert_eq!(segment_bytes(&cache), (0, w(8)));
        // A sweep of one-shot keys through probation cannot evict the
        // promoted entry.
        for k in 10..30 {
            cache.insert(k, body(7));
        }
        let hit = cache.get(1).unwrap();
        assert_eq!(*hit.body, vec![8; 8]);
        assert!(!hit.promoted, "already protected");
        assert_eq!(cache.promotions(), 1);
    }

    #[test]
    fn protected_overflow_demotes_its_lru() {
        // Protected holds four 20-byte entries: four promoted bodies fill
        // it, and the fifth promotion demotes the protected LRU (key 1)
        // back to probation, where the next insert sweeps it out.
        let cache = SolveCache::new(5 * w(20));
        for k in 1..=4 {
            cache.insert(k, body(20));
            cache.get(k).unwrap();
        }
        assert_eq!(segment_bytes(&cache), (0, 4 * w(20)));
        cache.insert(5, body(20));
        let hit = cache.get(5).unwrap();
        assert_eq!((hit.promoted, hit.evicted), (true, 0));
        assert_eq!(cache.promotions(), 5);
        assert_eq!(
            segment_bytes(&cache),
            (w(20), 4 * w(20)),
            "key 1's bytes demoted"
        );
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.insert(6, body(4)), 1);
        assert!(cache.get(1).is_none(), "demoted LRU swept from probation");
        for k in 2..=5 {
            assert!(cache.get(k).is_some(), "protected key {k} survived");
        }
        assert_eq!(segment_bytes(&cache), (w(4), 4 * w(20)));
    }

    #[test]
    fn a_promotion_can_evict_what_it_demotes_into() {
        // Protected full of share-sized entries, probation holding two
        // one-shot 10-byte bodies: promoting one of them demotes key 1
        // onto the other, and the hit reports the eviction that makes
        // room.
        let share = 2 * w(10);
        let cache = SolveCache::new(5 * share);
        for k in 1..=4 {
            cache.insert(k, body(share - ENTRY_OVERHEAD));
            cache.get(k).unwrap();
        }
        cache.insert(5, body(10));
        cache.insert(6, body(10));
        let hit = cache.get(5).unwrap();
        assert_eq!((hit.promoted, hit.evicted), (true, 1));
        assert_eq!(segment_bytes(&cache), (share, 3 * share + w(10)));
        assert!(cache.get(6).is_none(), "the one-shot LRU made room");
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = SolveCache::new(0);
        assert_eq!(cache.insert(1, body(0)), 0);
        assert_eq!(cache.insert(2, body(1)), 0);
        assert!(cache.get(1).is_none());
        assert!(cache.is_empty());
        assert_eq!(
            (cache.promotions(), cache.evictions(), cache.oversize()),
            (0, 0, 0)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// After any insert/get sequence, each segment's tracked bytes
        /// equal the summed weights of the entries resident in it, each
        /// stays within its share, and every entry sits in exactly one
        /// segment's order.
        #[test]
        fn tracked_bytes_match_resident_bodies(
            budget in 0usize..5000,
            ops in proptest::prop::collection::vec((0u8..3, 0u64..16, 0usize..500), 1..120),
        ) {
            let cache = SolveCache::new(budget);
            for (op, key, len) in ops {
                let key = u128::from(key);
                if op == 0 {
                    cache.get(key);
                } else {
                    cache.insert(key, body(len));
                }
                let inner = cache.inner.lock().unwrap();
                let resident = |protected: bool| -> usize {
                    inner
                        .map
                        .values()
                        .filter(|s| s.protected == protected)
                        .map(|s| weight(&s.body))
                        .sum()
                };
                proptest::prop_assert_eq!(inner.probation_bytes, resident(false));
                proptest::prop_assert_eq!(inner.protected_bytes, resident(true));
                proptest::prop_assert!(inner.probation_bytes <= cache.probation_cap);
                proptest::prop_assert!(inner.protected_bytes <= cache.protected_cap);
                proptest::prop_assert_eq!(
                    inner.map.len(),
                    inner.probation.len() + inner.protected.len()
                );
                for (&stamp, key) in inner.probation.iter().chain(&inner.protected) {
                    proptest::prop_assert_eq!(inner.map[key].stamp, stamp);
                }
            }
        }
    }
}
