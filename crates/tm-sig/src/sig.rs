//! A signature value in ordinary software memory.
//!
//! The software framework manipulates signatures outside hardware transactions
//! (in-flight validation, lock release, aggregation). [`Sig`] is the plain-old-data
//! representation of a Bloom-filter signature for that purpose.
//!
//! Protocol signatures are *sparse*: a transaction touching a handful of lines sets
//! a handful of bits in a 2048-bit filter. Every [`Sig`] therefore carries a 64-bit
//! **non-zero-word mask** (bit `i` set iff word `i` is non-zero; a geometry has at
//! most [`SigSpec::MAX_WORDS`] words), kept exact by every mutator, so the filter
//! kernels — intersection, union, subtraction, ring publishing — iterate the few
//! live words via the mask instead of scanning all of them.

use crate::align::CacheAligned;
use crate::kernels;
use crate::spec::SigSpec;
use htm_sim::Addr;

/// A Bloom-filter signature held in software memory.
///
/// ```
/// use tm_sig::{Sig, SigSpec};
///
/// let mut reads = Sig::new(SigSpec::PAPER);
/// let mut writes = Sig::new(SigSpec::PAPER);
/// reads.add(100);
/// writes.add(200);
/// assert!(reads.contains(100));          // no false negatives, ever
/// writes.add(100);
/// assert!(reads.intersects(&writes));    // the paper's bitwise-AND conflict test
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sig {
    spec: SigSpec,
    /// Non-zero-word mask: bit `i` is set iff word `i` is non-zero. A pure
    /// function of the words, so the derived `PartialEq` stays consistent.
    mask: u64,
    storage: Storage,
}

/// Word count covered by the inline representation: 32 words = 2048 bits, exactly
/// [`SigSpec::PAPER`]. Protocol signatures therefore never allocate; only the
/// 4096-bit geometry (the `ablation/nofast_sig_4096` row) spills.
const INLINE_WORDS: usize = 32;

/// Signature bit storage. Both variants keep the invariant that words beyond
/// `spec.words()` are zero, so the derived `PartialEq` (which compares the whole
/// inline array) agrees with comparing the active slices.
/// The size skew between the variants is deliberate: the inline array *is* the
/// optimisation (boxing it, as the lint suggests, would reintroduce the
/// allocation this representation exists to avoid).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
enum Storage {
    /// Up to 2048 bits, held inline: `Sig::new(SigSpec::PAPER)` is allocation-free
    /// and the filter kernels run over a fixed-size, cache-line-aligned
    /// `[u64; 32]` (4 whole lines, never straddling a fifth) the compiler can
    /// fully unroll/vectorise.
    Inline(CacheAligned<[u64; INLINE_WORDS]>),
    /// The 4096-bit geometry falls back to a heap slice.
    Heap(Box<[u64]>),
}

// The inline buffer is exactly 4 cache lines and starts on a line boundary, so
// the paper's 2048-bit signature occupies 4 lines, not 5.
const _: () = {
    use std::mem::{align_of, size_of};
    assert!(size_of::<CacheAligned<[u64; INLINE_WORDS]>>() == 4 * crate::align::CACHE_LINE);
    assert!(align_of::<Sig>() == crate::align::CACHE_LINE);
};

impl Sig {
    /// An empty signature with the given geometry. Allocation-free for geometries
    /// up to 2048 bits (the paper's configuration).
    pub fn new(spec: SigSpec) -> Self {
        let n = spec.words() as usize;
        let storage = if n <= INLINE_WORDS {
            Storage::Inline(CacheAligned::new([0u64; INLINE_WORDS]))
        } else {
            Storage::Heap(vec![0u64; n].into_boxed_slice())
        };
        Self {
            spec,
            mask: 0,
            storage,
        }
    }

    /// Build from raw words (e.g. a heap snapshot). Panics on length mismatch.
    pub fn from_words(spec: SigSpec, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), spec.words() as usize);
        let mut sig = Self::new(spec);
        sig.raw_words_mut().copy_from_slice(&words);
        sig.mask = mask_of(&words);
        sig
    }

    /// The geometry of this signature.
    #[inline]
    pub fn spec(&self) -> SigSpec {
        self.spec
    }

    /// Raw word access (exactly `spec().words()` words).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.storage {
            Storage::Inline(a) => &a.0[..self.spec.words() as usize],
            Storage::Heap(b) => b,
        }
    }

    /// Mutable word access that bypasses mask maintenance — crate-internal only;
    /// every caller re-establishes the mask invariant itself (audited by
    /// [`Sig::assert_mask_invariant`]).
    #[inline]
    pub(crate) fn raw_words_mut(&mut self) -> &mut [u64] {
        match &mut self.storage {
            Storage::Inline(a) => &mut a.0[..self.spec.words() as usize],
            Storage::Heap(b) => b,
        }
    }

    /// Recompute the non-zero-word mask from the words (crate-internal: the
    /// journal's bulk rollback restores raw words and rebuilds the mask once).
    #[inline]
    pub(crate) fn rebuild_mask(&mut self) {
        self.mask = kernels::mask_of(self.words());
    }

    /// Debug-only audit of the mask invariant: recompute the non-zero-word mask
    /// from scratch with the scalar oracle and assert it matches the maintained
    /// one. Compiles to nothing in release builds; the sig/journal proptests
    /// call it after every mutation sequence, closing the audit hole around
    /// `raw_words_mut`'s "every caller re-establishes the invariant" contract.
    #[inline]
    pub fn assert_mask_invariant(&self) {
        debug_assert_eq!(
            self.mask,
            kernels::scalar::mask_of(self.words()),
            "non-zero-word mask out of sync with words"
        );
    }

    /// The non-zero-word mask (bit `i` set iff word `i` is non-zero) — the ring
    /// stores it verbatim as the entry mask.
    #[inline]
    pub fn nonzero_mask(&self) -> u64 {
        self.mask
    }

    /// Word `i`'s current value.
    #[inline]
    pub fn word(&self, i: u32) -> u64 {
        self.words()[i as usize]
    }

    /// Overwrite word `i`, maintaining the mask (the journal's rollback path).
    #[inline]
    pub fn set_word(&mut self, i: u32, v: u64) {
        let bit = 1u64 << i;
        self.raw_words_mut()[i as usize] = v;
        if v != 0 {
            self.mask |= bit;
        } else {
            self.mask &= !bit;
        }
    }

    /// OR `m` into word `w` (a precomputed [`SigSpec::slot_of`] slot), returning
    /// whether any bit was newly set. The protocol hot paths use this to skip the
    /// heap-copy store for repeated accesses.
    #[inline]
    pub fn add_slot(&mut self, w: u32, m: u64) -> bool {
        debug_assert_ne!(m, 0);
        let word = &mut self.raw_words_mut()[w as usize];
        let newly = *word & m != m;
        *word |= m;
        self.mask |= 1u64 << w;
        newly
    }

    /// Record an address.
    #[inline]
    pub fn add(&mut self, addr: Addr) {
        let (w, m) = self.spec.slot_of(addr);
        self.add_slot(w, m);
    }

    /// Bloom-filter membership: may return true for addresses never added (false
    /// positives), never false for added ones.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        let (w, m) = self.spec.slot_of(addr);
        self.words()[w as usize] & m != 0
    }

    /// True if no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Clear all bits. Sparse: only the live words are zeroed.
    #[inline]
    pub fn clear(&mut self) {
        let mut m = self.mask;
        while m != 0 {
            self.raw_words_mut()[m.trailing_zeros() as usize] = 0;
            m &= m - 1;
        }
        self.mask = 0;
    }

    /// `self |= other`. Routed through the mask-guided OR kernel (sparse
    /// sources touch only their live words; dense sources take the 4-wide
    /// bulk walk); the mask union is exact (a word is non-zero afterwards
    /// iff it was non-zero in either operand).
    #[inline]
    pub fn union_with(&mut self, other: &Sig) {
        debug_assert_eq!(self.spec, other.spec);
        if other.mask == 0 {
            return;
        }
        kernels::or_into_masked(self.raw_words_mut(), other.words(), other.mask);
        self.mask |= other.mask;
        self.assert_mask_invariant();
    }

    /// `self &= !other` (remove the other signature's bits). Routed through
    /// the mask-guided AND-NOT kernel: only words live in both operands are
    /// touched (the common write-lock release of a few-word write set costs a
    /// word or two), and the kernel reports exactly which words emptied, so
    /// the mask is maintained incrementally — no full-width rebuild.
    #[inline]
    pub fn subtract(&mut self, other: &Sig) {
        debug_assert_eq!(self.spec, other.spec);
        let shared = self.mask & other.mask;
        if shared == 0 {
            return;
        }
        self.mask &= !kernels::and_not_masked(self.raw_words_mut(), other.words(), shared);
        self.assert_mask_invariant();
    }

    /// True if the two signatures share any bit (the "bitwise AND" conflict test of
    /// the paper's commit validations). The mask AND settles the common
    /// disjoint case without reading a word; live pairs fall to the
    /// mask-guided intersect kernel, which reads only words live in both
    /// operands (or the 4-wide bulk test when they are dense).
    #[inline]
    pub fn intersects(&self, other: &Sig) -> bool {
        debug_assert_eq!(self.spec, other.spec);
        let shared = self.mask & other.mask;
        if shared == 0 {
            return false;
        }
        kernels::intersect_any_masked(self.words(), other.words(), shared)
    }

    /// Number of set bits (diagnostics). Routed through the popcount-density
    /// kernel.
    #[inline]
    pub fn popcount(&self) -> u32 {
        kernels::popcount(self.words()) as u32
    }

    /// Iterate the non-zero words as `(index, word)` pairs, driven by the mask.
    #[inline]
    pub fn nonzero_words(&self) -> NonzeroWords<'_> {
        NonzeroWords {
            words: self.words(),
            mask: self.mask,
        }
    }
}

/// Compute the non-zero-word mask of a word slice from scratch.
fn mask_of(words: &[u64]) -> u64 {
    kernels::mask_of(words)
}

/// Iterator over a signature's non-zero `(index, word)` pairs (see
/// [`Sig::nonzero_words`]), ascending: one step per mask bit.
pub struct NonzeroWords<'a> {
    words: &'a [u64],
    mask: u64,
}

impl Iterator for NonzeroWords<'_> {
    type Item = (u32, u64);

    #[inline]
    fn next(&mut self) -> Option<(u32, u64)> {
        if self.mask == 0 {
            return None;
        }
        let i = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some((i, self.words[i as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SigSpec {
        SigSpec::PAPER
    }

    /// Every mutator must leave the mask exactly equal to the recomputed one.
    fn assert_mask_exact(s: &Sig) {
        assert_eq!(s.nonzero_mask(), mask_of(s.words()), "mask out of sync");
        s.assert_mask_invariant();
    }

    #[test]
    fn no_false_negatives() {
        let mut s = Sig::new(spec());
        for addr in (0..50_000).step_by(131) {
            s.add(addr);
        }
        for addr in (0..50_000).step_by(131) {
            assert!(s.contains(addr));
        }
        assert_mask_exact(&s);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = Sig::new(spec());
        assert!(s.is_empty());
        s.add(7);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.popcount(), 0);
        assert_mask_exact(&s);
    }

    #[test]
    fn union_subtract_inverse() {
        let mut a = Sig::new(spec());
        let mut b = Sig::new(spec());
        a.add(1);
        a.add(2);
        b.add(100);
        b.add(200);
        let orig = a.clone();
        a.union_with(&b);
        assert!(a.contains(100));
        assert_mask_exact(&a);
        a.subtract(&b);
        // Subtracting b restores a unless a and b collided; with these addresses
        // collisions would make the test fail loudly, which is acceptable for a
        // deterministic hash.
        assert_eq!(a, orig);
        assert_mask_exact(&a);
    }

    #[test]
    fn intersects_detects_shared_bits() {
        let mut a = Sig::new(spec());
        let mut b = Sig::new(spec());
        a.add(42);
        b.add(43);
        let disjoint = !a.intersects(&b);
        b.add(42);
        assert!(a.intersects(&b));
        assert!(disjoint || spec().bit_of(42) == spec().bit_of(43));
    }

    #[test]
    fn inline_for_paper_heap_for_larger() {
        // PAPER (2048 bits) fits the inline array exactly.
        let a = Sig::new(SigSpec::PAPER);
        assert_eq!(a.words().len(), 32);
        // The 4096-bit geometry spills to the heap transparently.
        let mut big = Sig::new(SigSpec::new(4096));
        assert_eq!(big.words().len(), 64);
        big.add(12345);
        assert!(big.contains(12345));
        let round = Sig::from_words(SigSpec::new(4096), big.words().to_vec());
        assert_eq!(round, big);
        // Sub-inline specs expose only their active slice.
        let mut small = Sig::new(SigSpec::new(64));
        assert_eq!(small.words().len(), 1);
        small.add(3);
        assert_eq!(small.clone(), small);
        small.clear();
        assert!(small.is_empty());
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut s = Sig::new(spec());
        for addr in 0..200u32 {
            s.add(addr * 7919);
        }
        let mut fp = 0;
        let probes = 10_000u32;
        for i in 0..probes {
            let addr = 10_000_000 + i;
            if s.contains(addr) {
                fp += 1;
            }
        }
        // 200 of 2048 bits set => ~9.7% expected false-positive rate.
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.2, "false positive rate too high: {rate}");
    }

    #[test]
    fn nonzero_words_visits_exactly_the_live_words() {
        let mut s = Sig::new(spec());
        for addr in [3u32, 5000, 77777, 123456] {
            s.add(addr);
        }
        let visited: Vec<(u32, u64)> = s.nonzero_words().collect();
        let expected: Vec<(u32, u64)> = s
            .words()
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .map(|(i, &w)| (i as u32, w))
            .collect();
        let mut sorted = visited.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected);
        assert!(!visited.is_empty());
    }

    #[test]
    fn add_slot_reports_newly_set() {
        let mut s = Sig::new(spec());
        let (w, m) = spec().slot_of(42);
        assert!(s.add_slot(w, m));
        assert!(!s.add_slot(w, m), "second add of the same bit is not new");
        assert!(s.contains(42));
        assert_mask_exact(&s);
    }

    #[test]
    fn set_word_maintains_mask() {
        let mut s = Sig::new(spec());
        s.set_word(5, 0b1010);
        assert_eq!(s.word(5), 0b1010);
        assert!(!s.is_empty());
        assert_mask_exact(&s);
        s.set_word(5, 0);
        assert!(s.is_empty());
        assert_mask_exact(&s);
    }
}
