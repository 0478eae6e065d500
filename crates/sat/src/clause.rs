//! Arena-allocated clause storage with mark-and-compact garbage collection.
//!
//! Clauses live in one contiguous `Vec<u32>`; a [`ClauseRef`] is an offset
//! into that arena. Each clause has a fixed three-word header:
//!
//! ```text
//! word 0: literal count
//! word 1: flags (bit 0: learnt, bit 1: deleted) | LBD in the high bits
//! word 2: activity (f32 bits, learnt clauses)
//! ```
//!
//! followed by the literals. Deleted clauses are only marked; space is
//! reclaimed by [`ClauseDb::collect_garbage`], which compacts the arena and
//! reports the relocation map to the caller so watch lists and reason
//! pointers can be patched.

use crate::lit::Lit;

/// Stable identifier of an original clause, the handle
/// `Solver::retire_clause` and activation groups retire it by.
///
/// Ids are assigned by the solver in insertion order and survive garbage
/// collection (unlike the internal `ClauseRef`, which is a raw arena offset).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClauseId(pub u32);

/// A reference to a clause in the arena (a raw offset).
///
/// Invalidated by [`ClauseDb::collect_garbage`]; the relocation callback
/// must be used to update any stored references.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// A sentinel that never refers to a real clause.
    pub const INVALID: ClauseRef = ClauseRef(u32::MAX);

    #[inline]
    fn offset(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` unless this is [`ClauseRef::INVALID`].
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != u32::MAX
    }
}

const HEADER_WORDS: usize = 3;
const FLAG_LEARNT: u32 = 1;
const FLAG_DELETED: u32 = 2;
const LBD_SHIFT: u32 = 8;

/// The clause arena.
#[derive(Debug, Default)]
pub struct ClauseDb {
    arena: Vec<u32>,
    /// Words occupied by deleted clauses, to decide when to compact.
    wasted: usize,
}

impl ClauseDb {
    /// Creates an empty clause database.
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Allocates a clause; returns its reference.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty (empty clauses are handled by the solver
    /// before reaching the arena).
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        assert!(!lits.is_empty(), "cannot allocate an empty clause");
        let offset = self.arena.len();
        self.arena.push(lits.len() as u32);
        self.arena.push(if learnt { FLAG_LEARNT } else { 0 });
        self.arena.push(0f32.to_bits());
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        ClauseRef(offset as u32)
    }

    /// Returns the literals of a clause.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let off = cref.offset();
        let len = self.arena[off] as usize;
        let body = &self.arena[off + HEADER_WORDS..off + HEADER_WORDS + len];
        // SAFETY-free cast: Lit is a transparent-by-construction wrapper over
        // u32 codes; we reconstruct through the safe constructor instead.
        // To avoid per-access allocation we transmute via bytemuck-like
        // manual cast; since Lit is repr(Rust) we instead rely on identical
        // layout being unspecified -- so we use the safe slice-of-u32 view
        // and convert lazily. For performance we keep an unsafe cast here
        // guarded by a compile-time size assertion.
        const _: () = assert!(std::mem::size_of::<Lit>() == std::mem::size_of::<u32>());
        unsafe { std::slice::from_raw_parts(body.as_ptr() as *const Lit, len) }
    }

    /// Returns the literals of a clause, mutably.
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let off = cref.offset();
        let len = self.arena[off] as usize;
        let body = &mut self.arena[off + HEADER_WORDS..off + HEADER_WORDS + len];
        unsafe { std::slice::from_raw_parts_mut(body.as_mut_ptr() as *mut Lit, len) }
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        self.arena[cref.offset()] as usize
    }

    /// Returns `true` if the arena holds no clauses.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Returns `true` if the clause was learned during search.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.arena[cref.offset() + 1] & FLAG_LEARNT != 0
    }

    /// Returns `true` if the clause has been deleted (awaiting GC).
    #[inline]
    #[allow(dead_code)]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.arena[cref.offset() + 1] & FLAG_DELETED != 0
    }

    /// Returns the clause activity (learnt clauses only; 0.0 otherwise).
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.arena[cref.offset() + 2])
    }

    /// Sets the clause activity.
    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        self.arena[cref.offset() + 2] = activity.to_bits();
    }

    /// Returns the stored literal-block-distance of a learnt clause.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.offset() + 1] >> LBD_SHIFT
    }

    /// Stores the literal-block-distance of a learnt clause.
    #[inline]
    pub fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        let off = cref.offset() + 1;
        let flags = self.arena[off] & ((1 << LBD_SHIFT) - 1);
        self.arena[off] = flags | (lbd.min(u32::MAX >> LBD_SHIFT) << LBD_SHIFT);
    }

    /// Marks a clause deleted; the space is reclaimed by the next GC.
    pub fn delete(&mut self, cref: ClauseRef) {
        let off = cref.offset();
        debug_assert!(self.arena[off + 1] & FLAG_DELETED == 0);
        self.arena[off + 1] |= FLAG_DELETED;
        self.wasted += HEADER_WORDS + self.arena[off] as usize;
    }

    /// Words currently wasted by deleted clauses.
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Total words in the arena.
    pub fn capacity_words(&self) -> usize {
        self.arena.len()
    }

    /// Compacts the arena, dropping deleted clauses.
    ///
    /// Calls `relocate(old, new)` for every surviving clause so the owner can
    /// patch watch lists and reason references.
    pub fn collect_garbage(&mut self, mut relocate: impl FnMut(ClauseRef, ClauseRef)) {
        let mut new_arena = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut off = 0usize;
        while off < self.arena.len() {
            let len = self.arena[off] as usize;
            let flags = self.arena[off + 1];
            let total = HEADER_WORDS + len;
            if flags & FLAG_DELETED == 0 {
                let new_off = new_arena.len();
                new_arena.extend_from_slice(&self.arena[off..off + total]);
                relocate(ClauseRef(off as u32), ClauseRef(new_off as u32));
            }
            off += total;
        }
        self.arena = new_arena;
        self.wasted = 0;
    }

    /// Iterates over the references of all live clauses.
    #[allow(dead_code)]
    pub fn iter(&self) -> ClauseIter<'_> {
        ClauseIter { db: self, off: 0 }
    }
}

/// Iterator over live clause references; see [`ClauseDb::iter`].
#[derive(Debug)]
#[allow(dead_code)]
pub struct ClauseIter<'a> {
    db: &'a ClauseDb,
    off: usize,
}

impl Iterator for ClauseIter<'_> {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        while self.off < self.db.arena.len() {
            let cref = ClauseRef(self.off as u32);
            let len = self.db.arena[self.off] as usize;
            self.off += HEADER_WORDS + len;
            if !self.db.is_deleted(cref) {
                return Some(cref);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(idx: &[usize]) -> Vec<Lit> {
        idx.iter().map(|&i| Var::from_index(i).positive()).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), false);
        let b = db.alloc(&lits(&[4, 5]), true);
        assert_eq!(db.lits(a), &lits(&[1, 2, 3])[..]);
        assert_eq!(db.lits(b), &lits(&[4, 5])[..]);
        assert_eq!(db.len(a), 3);
        assert!(!db.is_learnt(a));
        assert!(db.is_learnt(b));
    }

    #[test]
    fn activity_and_lbd() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[0, 1]), true);
        db.set_activity(c, 3.5);
        assert_eq!(db.activity(c), 3.5);
        db.set_lbd(c, 9);
        assert_eq!(db.lbd(c), 9);
        assert!(db.is_learnt(c), "lbd must not clobber flags");
        db.set_activity(c, 1.25);
        assert_eq!(db.lbd(c), 9);
    }

    #[test]
    fn gc_compacts_and_relocates() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), false);
        let b = db.alloc(&lits(&[4, 5]), true);
        let c = db.alloc(&lits(&[6, 7, 8, 9]), false);
        db.delete(b);
        assert!(db.wasted() > 0);
        let mut moves = Vec::new();
        db.collect_garbage(|old, new| moves.push((old, new)));
        assert_eq!(moves.len(), 2);
        assert_eq!(moves[0].0, a);
        // After compaction the surviving clauses are contiguous.
        let survivors: Vec<ClauseRef> = db.iter().collect();
        assert_eq!(survivors.len(), 2);
        assert_eq!(db.lits(survivors[0]), &lits(&[1, 2, 3])[..]);
        assert_eq!(db.lits(survivors[1]), &lits(&[6, 7, 8, 9])[..]);
        let _ = c;
        assert_eq!(db.wasted(), 0);
    }
}
