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
use htm_sim::abort::TxResult;
use htm_sim::{Addr, HeapBuilder, HtmThread, HtmTx};

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

    // ---- transactional accessors (inside a hardware transaction) ----

    /// Record `addr` in the signature, transactionally. Skips the store when the bit
    /// is already set (idempotent adds keep the write footprint small).
    pub fn add_tx(&self, tx: &mut HtmTx<'_, '_>, addr: Addr) -> TxResult<()> {
        let (w, m) = self.spec.slot_of(addr);
        let wa = self.word_addr(w);
        let cur = tx.read(wa)?;
        if cur & m == 0 {
            tx.write(wa, cur | m)?;
        }
        Ok(())
    }

    /// Transactional membership test.
    pub fn contains_tx(&self, tx: &mut HtmTx<'_, '_>, addr: Addr) -> TxResult<bool> {
        let (w, m) = self.spec.slot_of(addr);
        Ok(tx.read(self.word_addr(w))? & m != 0)
    }

    /// Transactional intersection test against another heap signature:
    /// `self ∩ other != ∅`.
    pub fn intersects_tx(&self, tx: &mut HtmTx<'_, '_>, other: &HeapSig) -> TxResult<bool> {
        debug_assert_eq!(self.spec, other.spec);
        for i in 0..self.spec.words() {
            let a = tx.read(self.word_addr(i))?;
            if a == 0 {
                continue;
            }
            let b = tx.read(other.word_addr(i))?;
            if a & b != 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Transactional masked intersection: `((self − mask) ∩ probe) != ∅`, computed
    /// word-wise as `(self & !mask) & probe`. This is the sub-HTM pre-commit
    /// validation of the paper (Fig. 1 lines 26–27): `self` = global write-locks,
    /// `mask` = the transaction's aggregate write signature (its own locks), `probe`
    /// = the sub-transaction's read or write signature.
    pub fn intersects_masked_tx(
        &self,
        tx: &mut HtmTx<'_, '_>,
        mask: &HeapSig,
        probe: &HeapSig,
    ) -> TxResult<bool> {
        debug_assert_eq!(self.spec, mask.spec);
        debug_assert_eq!(self.spec, probe.spec);
        for i in 0..self.spec.words() {
            let locks = tx.read(self.word_addr(i))?;
            if locks == 0 {
                continue;
            }
            let own = tx.read(mask.word_addr(i))?;
            let others = locks & !own;
            if others == 0 {
                continue;
            }
            let p = tx.read(probe.word_addr(i))?;
            if others & p != 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Transactional union: `self |= src`. Used by the sub-HTM commit to acquire
    /// write locks (`write_locks ∪= write_sig`, Fig. 1 line 29). Skips words where
    /// `src` contributes nothing, minimising shared-line writes.
    pub fn union_from_tx(&self, tx: &mut HtmTx<'_, '_>, src: &HeapSig) -> TxResult<()> {
        debug_assert_eq!(self.spec, src.spec);
        for i in 0..self.spec.words() {
            let s = tx.read(src.word_addr(i))?;
            if s == 0 {
                continue;
            }
            let d = tx.read(self.word_addr(i))?;
            if d | s != d {
                tx.write(self.word_addr(i), d | s)?;
            }
        }
        Ok(())
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

    /// Non-transactional intersection with a software signature: visits only the
    /// probe's live words (its nonzero-word mask), early-exit.
    pub fn intersects_nt(&self, th: &HtmThread<'_>, sig: &Sig) -> bool {
        debug_assert_eq!(self.spec, sig.spec());
        for (i, s) in sig.nonzero_words() {
            if th.nt_read(self.word_addr(i)) & s != 0 {
                return true;
            }
        }
        false
    }

    /// Non-transactional clear (software framework resetting local metadata).
    pub fn clear_nt(&self, th: &HtmThread<'_>) {
        for i in 0..self.spec.words() {
            if th.nt_read(self.word_addr(i)) != 0 {
                th.nt_write(self.word_addr(i), 0);
            }
        }
    }

    /// Non-transactional union from a software signature: `self |= sig`, atomic per
    /// word.
    pub fn or_nt(&self, th: &HtmThread<'_>, sig: &Sig) {
        for (i, s) in sig.nonzero_words() {
            th.system().nt_fetch_or_by(th.id(), self.word_addr(i), s);
        }
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

    fn setup() -> (HtmSystem, HeapSig, HeapSig, HeapSig) {
        let sys = HtmSystem::new(HtmConfig::default(), 1 << 16);
        let mut b = HeapBuilder::new(1 << 16);
        let spec = SigSpec::PAPER;
        let a = HeapSig::alloc(&mut b, spec);
        let c = HeapSig::alloc(&mut b, spec);
        let d = HeapSig::alloc(&mut b, spec);
        (sys, a, c, d)
    }

    #[test]
    fn alloc_is_line_aligned() {
        let mut b = HeapBuilder::new(4096);
        b.alloc_words(3);
        let s = HeapSig::alloc(&mut b, SigSpec::PAPER);
        assert_eq!(s.base() % 8, 0);
    }

    #[test]
    fn add_and_contains_tx() {
        let (sys, sig, _, _) = setup();
        let mut th = sys.thread(0);
        th.attempt(|tx| {
            sig.add_tx(tx, 4242)?;
            assert!(sig.contains_tx(tx, 4242)?);
            Ok(())
        })
        .unwrap();
        // Visible non-transactionally after commit.
        let snap = sig.snapshot_nt(&th);
        assert!(snap.contains(4242));
    }

    #[test]
    fn intersects_masked_excludes_own_locks() {
        let (sys, locks, own, probe) = setup();
        let th = sys.thread(0);
        let spec = SigSpec::PAPER;
        // "locks" holds bits for addresses 8 and 16 (two lines); "own" masks
        // out address 8; "probe" contains address 8 only => masked
        // intersection must be empty.
        let (mine, foreign) = (8, 16);
        assert_ne!(spec.bit_of(mine), spec.bit_of(foreign));
        let mut l = Sig::new(spec);
        l.add(mine);
        l.add(foreign);
        locks.write_nt(&th, &l);
        let mut o = Sig::new(spec);
        o.add(mine);
        own.write_nt(&th, &o);
        let mut p = Sig::new(spec);
        p.add(mine);
        probe.write_nt(&th, &p);

        let mut th = sys.thread(1);
        let hit = th
            .attempt(|tx| locks.intersects_masked_tx(tx, &own, &probe))
            .unwrap();
        assert!(!hit, "own lock must not count as a conflict");

        // Now probe address 16 (a foreign lock): conflict.
        let mut p2 = Sig::new(spec);
        p2.add(foreign);
        probe.write_nt(&sys.thread(0), &p2);
        let hit2 = th
            .attempt(|tx| locks.intersects_masked_tx(tx, &own, &probe))
            .unwrap();
        assert!(hit2);
    }

    #[test]
    fn union_and_release_roundtrip() {
        let (sys, locks, mine, _) = setup();
        let th0 = sys.thread(0);
        let spec = SigSpec::PAPER;
        let mut m = Sig::new(spec);
        m.add(77);
        m.add(99);
        mine.write_nt(&th0, &m);

        let mut th = sys.thread(1);
        // Acquire inside HTM.
        th.attempt(|tx| locks.union_from_tx(tx, &mine)).unwrap();
        assert!(locks.snapshot_nt(&th).contains(77));
        // Release in software.
        locks.and_not_nt(&th, &m);
        assert!(locks.snapshot_nt(&th).is_empty());
    }

    #[test]
    fn intersects_nt_matches_software_semantics() {
        let (sys, heap_sig, _, _) = setup();
        let th = sys.thread(0);
        let spec = SigSpec::PAPER;
        let mut v = Sig::new(spec);
        v.add(500);
        heap_sig.write_nt(&th, &v);
        let mut probe = Sig::new(spec);
        probe.add(500);
        assert!(heap_sig.intersects_nt(&th, &probe));
        let mut probe2 = Sig::new(spec);
        probe2.add(501);
        assert_eq!(heap_sig.intersects_nt(&th, &probe2), v.intersects(&probe2));
    }

    #[test]
    fn clear_nt_empties() {
        let (sys, s, _, _) = setup();
        let th = sys.thread(0);
        let mut v = Sig::new(SigSpec::PAPER);
        v.add(1);
        v.add(2);
        s.write_nt(&th, &v);
        s.clear_nt(&th);
        assert!(s.snapshot_nt(&th).is_empty());
    }
}
