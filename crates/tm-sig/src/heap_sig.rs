//! A signature resident in the simulated heap.
//!
//! Signatures accessed *inside* hardware transactions must live in the heap: that is
//! how the simulator charges their footprint against HTM capacity and produces the
//! cache-line-granular false conflicts on shared metadata that the paper analyses
//! (§5.1: "two HTM executions that aim at updating different bits of the same Bloom
//! filter might still conflict if both the bits are stored into the same cache
//! line").

use crate::sig::Sig;
use crate::spec::SigSpec;
use htm_sim::{Addr, HeapBuilder, HtmThread};

/// Handle to a signature stored at a line-aligned heap address.
#[derive(Clone, Copy, Debug)]
pub struct HeapSig {
    base: Addr,
    spec: SigSpec,
}

impl HeapSig {
    /// Allocate a line-aligned signature in the heap.
    pub fn alloc(b: &mut HeapBuilder, spec: SigSpec) -> Self {
        let base = b.alloc_aligned(spec.words() as usize);
        Self { base, spec }
    }

    /// Wrap an existing heap region (must be line-aligned and `spec.words()` long).
    pub fn at(base: Addr, spec: SigSpec) -> Self {
        Self { base, spec }
    }

    /// The heap address of the first word.
    #[inline]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Geometry.
    #[inline]
    pub fn spec(&self) -> SigSpec {
        self.spec
    }

    /// Address of word `i`.
    #[inline]
    pub fn word_addr(&self, i: u32) -> Addr {
        self.base + i
    }

    // ---- non-transactional accessors (software framework) ----

    /// Snapshot the signature into software memory (strongly atomic reads).
    pub fn snapshot_nt(&self, th: &HtmThread<'_>) -> Sig {
        let mut words = Vec::with_capacity(self.spec.words() as usize);
        for i in 0..self.spec.words() {
            words.push(th.nt_read(self.word_addr(i)));
        }
        Sig::from_words(self.spec, words)
    }

    /// Non-transactional subtraction: `self &= !sig`, atomic per word. This is the
    /// lock release of the paper's global commit/abort (Fig. 1 lines 48–49, 54–55);
    /// each lock bit is held by at most one global transaction (the sub-HTM
    /// pre-commit validation aborts on foreign locks), so AND-NOT only clears bits
    /// this transaction owns.
    pub fn and_not_nt(&self, th: &HtmThread<'_>, sig: &Sig) {
        for (i, s) in sig.nonzero_words() {
            th.system().nt_fetch_and_by(th.id(), self.word_addr(i), !s);
        }
    }

    /// Fill from a software signature (plain stores; caller must own the region).
    pub fn write_nt(&self, th: &HtmThread<'_>, sig: &Sig) {
        for (i, &s) in sig.words().iter().enumerate() {
            th.nt_write(self.word_addr(i as u32), s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::{HeapBuilder, HtmConfig, HtmSystem};

    fn setup() -> (HtmSystem, HeapSig) {
        let sys = HtmSystem::new(HtmConfig::default(), 1 << 16);
        let mut b = HeapBuilder::new(1 << 16);
        (sys, HeapSig::alloc(&mut b, SigSpec::PAPER))
    }

    #[test]
    fn alloc_is_line_aligned() {
        let mut b = HeapBuilder::new(4096);
        b.alloc_words(3);
        let s = HeapSig::alloc(&mut b, SigSpec::PAPER);
        assert_eq!(s.base() % 8, 0);
    }

    #[test]
    fn write_and_release_roundtrip() {
        let (sys, locks) = setup();
        let th = sys.thread(0);
        let mut m = Sig::new(SigSpec::PAPER);
        m.add(77);
        m.add(99);
        locks.write_nt(&th, &m);
        assert!(locks.snapshot_nt(&th).contains(77));
        // Release in software.
        locks.and_not_nt(&th, &m);
        assert!(locks.snapshot_nt(&th).is_empty());
    }
}
