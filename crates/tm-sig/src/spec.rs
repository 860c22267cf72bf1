//! Signature geometry and the address-to-bit hash function.

use htm_sim::{Addr, WORDS_PER_LINE};

/// Geometry of all signatures in a runtime: number of bits (a power of two from
/// one to [`SigSpec::MAX_WORDS`] 64-bit words) and the derived word count.
///
/// The paper's configuration is **2048 bits = 4 cache lines, single hash function**
/// (§5.1): large enough that two hardware transactions updating different bits rarely
/// share a cache line, small enough not to blow the HTM capacity budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SigSpec {
    bits: u32,
}

impl SigSpec {
    /// The paper's default: 2048 bits (4 cache lines).
    pub const PAPER: SigSpec = SigSpec { bits: 2048 };

    /// The widest geometry: 64 words (4096 bits), so a signature's
    /// non-zero-word mask is one `u64` whose bit `i` names word `i`.
    pub const MAX_WORDS: u32 = 64;

    /// Create a spec with `bits` bits. Panics unless `bits` is a power of two
    /// from 64 to 4096 (one to [`SigSpec::MAX_WORDS`] words).
    pub fn new(bits: u32) -> Self {
        assert!(
            bits.is_power_of_two() && bits >= 64,
            "signature bits must be a power of two >= 64"
        );
        assert!(
            bits / 64 <= Self::MAX_WORDS,
            "signature bits must be at most 4096: the 64-word limit of the one-word non-zero-word mask"
        );
        Self { bits }
    }

    /// Number of bits.
    #[inline]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Number of 64-bit words.
    #[inline]
    pub fn words(self) -> u32 {
        self.bits / 64
    }

    /// The single hash function: maps a word address to a bit index, keyed on
    /// the cache line the word lives in.
    ///
    /// The key is the address of the line's first word, so every word of a line
    /// sets the same bit: the signature tracks what the HTM tracks, and a
    /// transaction that reads a whole line sets one bit, not eight. A
    /// line-aligned address is its own key.
    /// Multiplicative (Fibonacci) hashing spreads consecutive lines across the
    /// filter, so false conflicts between lines come only from genuine
    /// collisions, matching the paper's "the hash function could map more than
    /// one address into the same entry".
    #[inline]
    pub fn bit_of(self, addr: Addr) -> u32 {
        let line_base = addr & !(WORDS_PER_LINE as Addr - 1);
        let h = (line_base as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.bits.trailing_zeros())) as u32
    }

    /// Decompose a bit index into (word offset, mask).
    #[inline]
    pub fn word_and_mask(self, bit: u32) -> (u32, u64) {
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Word offset and mask for an address, in one step.
    #[inline]
    pub fn slot_of(self, addr: Addr) -> (u32, u64) {
        self.word_and_mask(self.bit_of(addr))
    }
}

impl Default for SigSpec {
    fn default() -> Self {
        Self::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_is_four_cache_lines() {
        let s = SigSpec::PAPER;
        assert_eq!(s.bits(), 2048);
        assert_eq!(s.words(), 32);
        // 32 words x 8 B = 256 B = 4 x 64 B lines.
        assert_eq!(s.words() as usize * 8, 4 * 64);
    }

    #[test]
    fn bit_of_in_range() {
        for &bits in &[64u32, 512, 2048, 4096] {
            let s = SigSpec::new(bits);
            for addr in (0..100_000).step_by(97) {
                assert!(s.bit_of(addr) < bits);
            }
        }
    }

    #[test]
    fn hash_spreads_addresses() {
        let s = SigSpec::PAPER;
        let mut used = std::collections::HashSet::new();
        for line in 0..2048u32 {
            used.insert(s.bit_of(line * WORDS_PER_LINE as Addr));
            if line == 255 {
                // Up to 256 consecutive lines never collide.
                assert_eq!(used.len(), 256);
            }
        }
        // 2048 line bases into 2048 bits: the multiplier seen through an
        // 8-word stride clusters long runs (uniform hashing would give ~1 295).
        assert!(used.len() > 900, "only {} distinct bits", used.len());
    }

    #[test]
    fn words_of_one_line_share_one_bit() {
        for &bits in &[64u32, 512, 2048, 4096] {
            let s = SigSpec::new(bits);
            for base in (0..50_000u32).step_by(8 * 37) {
                for word in base..base + WORDS_PER_LINE as Addr {
                    assert_eq!(s.bit_of(word), s.bit_of(base), "word {word}, {bits} bits");
                }
            }
        }
    }

    /// A line-aligned address hashes exactly as under the word-keyed hash, so
    /// a workload whose accesses are all line-aligned sets the same bits.
    #[test]
    fn line_aligned_addresses_keep_their_bit() {
        let word_keyed = |s: SigSpec, addr: Addr| {
            let h = (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> (64 - s.bits().trailing_zeros())) as u32
        };
        for &bits in &[64u32, 512, 2048, 4096] {
            let s = SigSpec::new(bits);
            for k in (0..200_000u32).step_by(13) {
                let addr = k * WORDS_PER_LINE as Addr;
                assert_eq!(s.bit_of(addr), word_keyed(s, addr), "addr {addr}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let s = SigSpec::PAPER;
        assert_eq!(s.bit_of(12345), s.bit_of(12345));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        SigSpec::new(100);
    }

    #[test]
    #[should_panic(expected = "64-word limit")]
    fn rejects_more_than_64_words() {
        SigSpec::new(8192);
    }
}
