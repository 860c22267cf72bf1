//! The word-addressable shared heap.
//!
//! Everything a hardware transaction can touch lives here: application data, the TM
//! protocol's global metadata (global lock, timestamp, ring, write-locks signature)
//! and per-thread signature arenas. Keeping metadata *in the heap* is what lets the
//! simulator reproduce the paper's metadata effects: signature updates inside HTM
//! transactions consume capacity and suffer cache-line-granular false conflicts
//! (§5.1).

use std::sync::atomic::{AtomicU64, Ordering};

/// A word address: an index into the heap's array of 64-bit words.
pub type Addr = u32;

/// A cache-line id: `Addr >> WORDS_PER_LINE_SHIFT`.
pub type Line = u32;

/// log2 of the number of 64-bit words per 64-byte cache line.
pub const WORDS_PER_LINE_SHIFT: u32 = 3;

/// Number of 64-bit words per 64-byte cache line.
pub const WORDS_PER_LINE: usize = 1 << WORDS_PER_LINE_SHIFT;

/// The shared memory of the simulated machine: a flat array of atomic 64-bit words.
///
/// Raw loads/stores on `Heap` perform **no** conflict detection; use
/// [`crate::HtmSystem`]'s `nt_read`/`nt_write` for strongly atomic non-transactional
/// accesses, or a hardware transaction ([`crate::HtmTx`]) for transactional ones.
pub struct Heap {
    words: Box<[AtomicU64]>,
}

impl Heap {
    /// Allocate a zeroed heap of `words` 64-bit words.
    pub fn new(words: usize) -> Self {
        assert!(words <= u32::MAX as usize, "heap limited to 2^32 words");
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        Self {
            words: v.into_boxed_slice(),
        }
    }

    /// Number of words in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the heap has no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Raw sequentially consistent load. No conflict detection.
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        self.words[addr as usize].load(Ordering::SeqCst)
    }

    /// Raw sequentially consistent store. No conflict detection.
    #[inline]
    pub fn store(&self, addr: Addr, val: u64) {
        self.words[addr as usize].store(val, Ordering::SeqCst)
    }

    /// Raw compare-and-swap. No conflict detection. Returns `Ok(previous)` on
    /// success, `Err(actual)` on failure.
    #[inline]
    pub fn cas(&self, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        self.words[addr as usize].compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Raw fetch-and-add. No conflict detection. Returns the previous value.
    #[inline]
    pub fn fetch_add(&self, addr: Addr, delta: u64) -> u64 {
        self.words[addr as usize].fetch_add(delta, Ordering::SeqCst)
    }

    /// Raw fetch-and-subtract. No conflict detection. Returns the previous value.
    #[inline]
    pub fn fetch_sub(&self, addr: Addr, delta: u64) -> u64 {
        self.words[addr as usize].fetch_sub(delta, Ordering::SeqCst)
    }

    /// Raw fetch-OR. No conflict detection. Returns the previous value.
    #[inline]
    pub fn fetch_or(&self, addr: Addr, bits: u64) -> u64 {
        self.words[addr as usize].fetch_or(bits, Ordering::SeqCst)
    }

    /// Raw fetch-AND. No conflict detection. Returns the previous value.
    #[inline]
    pub fn fetch_and(&self, addr: Addr, bits: u64) -> u64 {
        self.words[addr as usize].fetch_and(bits, Ordering::SeqCst)
    }
}

/// Single-threaded bump allocator used during experiment setup to carve the heap into
/// regions (global metadata, per-thread arenas, application data).
///
/// Allocation is line-aligned on request so that independently accessed regions never
/// share a cache line (avoiding *unintended* false conflicts; the intended ones — on
/// signature lines — are part of the protocol design).
#[derive(Debug)]
pub struct HeapBuilder {
    next: Addr,
    limit: Addr,
}

impl HeapBuilder {
    /// Start carving a heap of `total_words` words from address 0.
    pub fn new(total_words: usize) -> Self {
        assert!(total_words <= u32::MAX as usize);
        Self {
            next: 0,
            limit: total_words as Addr,
        }
    }

    /// Allocate `n` words with no particular alignment.
    pub fn alloc_words(&mut self, n: usize) -> Addr {
        let start = self.next;
        let end = start
            .checked_add(n as Addr)
            .unwrap_or_else(|| panic!("heap builder overflow allocating {n} words"));
        assert!(
            end <= self.limit,
            "heap exhausted: need {n} words at {start}, limit {}",
            self.limit
        );
        self.next = end;
        start
    }

    /// Allocate `n` words starting at a cache-line boundary.
    pub fn alloc_aligned(&mut self, n: usize) -> Addr {
        let mask = (WORDS_PER_LINE - 1) as Addr;
        self.next = (self.next + mask) & !mask;
        self.alloc_words(n)
    }

    /// Allocate `n_lines` whole cache lines (line-aligned).
    pub fn alloc_lines(&mut self, n_lines: usize) -> Addr {
        self.alloc_aligned(n_lines * WORDS_PER_LINE)
    }

    /// Words handed out so far.
    pub fn used(&self) -> usize {
        self.next as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_load_store_roundtrip() {
        let h = Heap::new(16);
        h.store(3, 99);
        assert_eq!(h.load(3), 99);
        assert_eq!(h.load(4), 0);
    }

    #[test]
    fn heap_rmw_ops() {
        let h = Heap::new(4);
        assert_eq!(h.fetch_add(0, 5), 0);
        assert_eq!(h.fetch_add(0, 5), 5);
        assert_eq!(h.cas(0, 10, 42), Ok(10));
        assert_eq!(h.cas(0, 10, 7), Err(42));
        h.store(1, 0b0011);
        assert_eq!(h.fetch_or(1, 0b0100), 0b0011);
        assert_eq!(h.fetch_and(1, 0b0110), 0b0111);
        assert_eq!(h.load(1), 0b0110);
    }

    #[test]
    fn builder_alignment() {
        let mut b = HeapBuilder::new(1024);
        let a = b.alloc_words(3);
        assert_eq!(a, 0);
        let l = b.alloc_lines(2);
        assert_eq!(l % WORDS_PER_LINE as Addr, 0);
        assert!(l >= 3);
        assert_eq!(b.used(), l as usize + 16);
        let c = b.alloc_aligned(1);
        assert_eq!(c % WORDS_PER_LINE as Addr, 0);
    }

    #[test]
    #[should_panic(expected = "heap exhausted")]
    fn builder_exhaustion_panics() {
        let mut b = HeapBuilder::new(8);
        b.alloc_words(9);
    }

    #[test]
    fn line_math() {
        assert_eq!(crate::line_of(0), 0);
        assert_eq!(crate::line_of(7), 0);
        assert_eq!(crate::line_of(8), 1);
        assert_eq!(crate::line_of(17), 2);
    }
}
