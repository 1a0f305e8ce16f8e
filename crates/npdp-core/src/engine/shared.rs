//! Shared concurrent view of a [`BlockedMatrix`] for the parallel tier.
//!
//! Workers computing different memory blocks touch disjoint contiguous
//! ranges of the backing storage: a worker has exclusive write access to the
//! blocks of the task it owns and read access only to blocks whose tasks
//! completed earlier (the dependence graph guarantees the ordering; the task
//! pool's atomics carry the happens-before edges).
//!
//! Rust cannot express "dynamically scheduled disjoint slices" with plain
//! borrows, so this module wraps the storage in a raw-pointer view with an
//! always-on atomic state machine per block — every read asserts the block
//! is `Final`, every write-claim asserts a unique transition out of
//! `Pending` — turning any scheduling bug into a deterministic panic instead
//! of silent data corruption.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::error::SolveError;
use crate::layout::BlockedMatrix;

const PENDING: u8 = 0;
const OWNED: u8 = 1;
const FINAL: u8 = 2;

/// Concurrent block-granular view over a blocked matrix.
pub(crate) struct SharedBlocked<'a, T> {
    ptr: *mut T,
    len: usize,
    nb: usize,
    m: usize,
    /// Per-block lifecycle state, indexed by the matrix's block id.
    states: Vec<AtomicU8>,
    _marker: std::marker::PhantomData<&'a mut BlockedMatrix<T>>,
}

// SAFETY: access discipline is enforced by the per-block state machine plus
// the caller's dependence graph; the raw pointer itself is Send/Sync-neutral.
unsafe impl<T: Send + Sync> Send for SharedBlocked<'_, T> {}
unsafe impl<T: Send + Sync> Sync for SharedBlocked<'_, T> {}

// No algebra bound: the state machine moves bytes, not ring values, so the
// generic `Recurrence` path shares this view for composite elements too.
impl<'a, T: Copy> SharedBlocked<'a, T> {
    /// Wrap a matrix for the duration of one parallel solve.
    pub fn new(m: &'a mut BlockedMatrix<T>) -> Self {
        let nb = m.block_side();
        let mb = m.blocks_per_side();
        let blocks = mb * (mb + 1) / 2;
        let slice = m.as_mut_slice();
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            nb,
            m: mb,
            states: (0..blocks).map(|_| AtomicU8::new(PENDING)).collect(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Blocks per triangle side.
    #[allow(dead_code)]
    pub fn blocks_per_side(&self) -> usize {
        self.m
    }

    /// Memory-block side.
    #[allow(dead_code)]
    pub fn block_side(&self) -> usize {
        self.nb
    }

    #[inline]
    fn block_id(&self, bi: usize, bj: usize) -> usize {
        debug_assert!(bi <= bj && bj < self.m);
        // Row-major triangle: matches BlockedMatrix / TriangleGrid.
        bi * self.m - bi * (bi + 1) / 2 + bj
    }

    #[inline]
    fn range(&self, bi: usize, bj: usize) -> (usize, usize) {
        let sz = self.nb * self.nb;
        let off = self.block_id(bi, bj) * sz;
        debug_assert!(off + sz <= self.len);
        (off, sz)
    }

    /// Read a finalized block. Panics if the block's task has not completed —
    /// i.e. if the dependence graph or scheduler is wrong.
    #[inline]
    pub fn read_final(&self, bi: usize, bj: usize) -> &[T] {
        let id = self.block_id(bi, bj);
        assert_eq!(
            self.states[id].load(Ordering::Acquire),
            FINAL,
            "read of unfinished block ({bi},{bj}): dependence violation"
        );
        let (off, sz) = self.range(bi, bj);
        // SAFETY: FINAL blocks are never written again; shared reads only.
        unsafe { std::slice::from_raw_parts(self.ptr.add(off), sz) }
    }

    /// Claim exclusive ownership of a pending block and return its mutable
    /// slice. Panics on double-claim.
    ///
    /// This is interior mutability by contract: the per-block atomic state
    /// machine (CAS below) guarantees each block is handed out mutably at
    /// most once, so distinct `claim`s never alias.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub fn claim(&self, bi: usize, bj: usize) -> &mut [T] {
        let id = self.block_id(bi, bj);
        self.states[id]
            .compare_exchange(PENDING, OWNED, Ordering::AcqRel, Ordering::Acquire)
            .unwrap_or_else(|s| {
                panic!("block ({bi},{bj}) claimed twice (state {s}): scheduler bug")
            });
        let (off, sz) = self.range(bi, bj);
        // SAFETY: the CAS above grants this call site unique ownership; no
        // reader may touch the block until `finalize` flips it to FINAL.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(off), sz) }
    }

    /// Mark an owned block final, releasing its writes to future readers.
    #[inline]
    pub fn finalize(&self, bi: usize, bj: usize) {
        let id = self.block_id(bi, bj);
        self.states[id]
            .compare_exchange(OWNED, FINAL, Ordering::AcqRel, Ordering::Acquire)
            .expect("finalize of unowned block: scheduler bug");
    }

    /// The post-solve check of every sweep over this view: `Ok` once every
    /// block reached `Final`, else [`SolveError::UnfinishedBlocks`].
    pub fn finished(&self) -> Result<(), SolveError> {
        let unfinished = self
            .states
            .iter()
            .filter(|s| s.load(Ordering::Acquire) != FINAL)
            .count();
        match unfinished {
            0 => Ok(()),
            unfinished => Err(SolveError::UnfinishedBlocks {
                unfinished,
                blocks: self.states.len(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_matches_blocked_matrix_offsets() {
        let mut m = BlockedMatrix::<f32>::new_infinity(32, 8);
        let offsets: Vec<_> = (0..4)
            .flat_map(|bi| (bi..4).map(move |bj| (bi, bj)))
            .map(|(bi, bj)| m.block_offset(bi, bj))
            .collect();
        let sh = SharedBlocked::new(&mut m);
        let ids: Vec<_> = (0..4)
            .flat_map(|bi| (bi..4).map(move |bj| (bi, bj)))
            .map(|(bi, bj)| sh.block_id(bi, bj) * 64)
            .collect();
        assert_eq!(offsets, ids);
    }

    #[test]
    fn claim_write_finalize_read_roundtrip() {
        let mut m = BlockedMatrix::<f32>::new_infinity(16, 8);
        let sh = SharedBlocked::new(&mut m);
        {
            let blk = sh.claim(0, 1);
            blk[5] = 42.0;
            sh.finalize(0, 1);
        }
        assert_eq!(sh.read_final(0, 1)[5], 42.0);
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn double_claim_panics() {
        let mut m = BlockedMatrix::<f32>::new_infinity(16, 8);
        let sh = SharedBlocked::new(&mut m);
        let _ = sh.claim(0, 0);
        let _ = sh.claim(0, 0);
    }

    #[test]
    #[should_panic(expected = "dependence violation")]
    fn premature_read_panics() {
        let mut m = BlockedMatrix::<f32>::new_infinity(16, 8);
        let sh = SharedBlocked::new(&mut m);
        let _ = sh.read_final(0, 1);
    }

    #[test]
    #[should_panic(expected = "finalize of unowned")]
    fn finalize_without_claim_panics() {
        let mut m = BlockedMatrix::<f32>::new_infinity(16, 8);
        let sh = SharedBlocked::new(&mut m);
        sh.finalize(0, 1);
    }

    #[test]
    fn all_final_tracks_state() {
        let mut m = BlockedMatrix::<f32>::new_infinity(8, 8);
        let sh = SharedBlocked::new(&mut m);
        assert!(sh.finished().is_err());
        let _ = sh.claim(0, 0);
        sh.finalize(0, 0);
        assert_eq!(sh.finished(), Ok(()));
    }

    /// A half-finalized sweep is a typed error naming how many blocks are
    /// left: pending and owned blocks both count.
    #[test]
    fn half_finalized_sweep_is_a_typed_error() {
        // 32 / 8 = 4 blocks per side, 10 in the triangle.
        let mut m = BlockedMatrix::<f32>::new_infinity(32, 8);
        let sh = SharedBlocked::new(&mut m);
        for (bi, bj) in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1)] {
            let _ = sh.claim(bi, bj);
            sh.finalize(bi, bj);
        }
        let _ = sh.claim(1, 2);
        let err = sh.finished().unwrap_err();
        assert_eq!(
            err,
            SolveError::UnfinishedBlocks {
                unfinished: 5,
                blocks: 10
            }
        );
        assert_eq!(
            err.to_string(),
            "sweep left 5 of 10 memory blocks unfinished (scheduler bug)"
        );
    }
}
