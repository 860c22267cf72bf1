//! Word-level signature journal: allocation-free rollback for sub-HTM retries.
//!
//! A failed sub-HTM attempt must forget the signature bits it recorded, because the
//! hardware writes they describe never published. The original implementation saved
//! full clones of the read- and write-signature mirrors at segment entry and
//! `clone_from`-restored them on failure — three 32-word copies per segment even
//! when the segment touches two lines. [`SigJournal`] replaces the clones with an
//! undo journal: the *first* time a segment attempt dirties a signature word, the
//! word's old value is recorded; rollback replays the recorded words (and nothing
//! else), and success discards the journal. All storage is reused across segments
//! and transactions, so a warmed-up executor performs no heap allocation here.
//!
//! Deduplication uses one dirty bitmap word per signature: a geometry has at most
//! 64 words ([`SigSpec::MAX_WORDS`](crate::SigSpec::MAX_WORDS)), so bit `w` names word `w`.

use crate::sig::Sig;

/// Which of the two per-transaction signatures a journal entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigSlot {
    /// The read-set signature mirror.
    Read = 0,
    /// The write-set signature mirror.
    Write = 1,
}

/// One segment attempt's signature undo journal (see the module docs).
#[derive(Debug, Default)]
pub struct SigJournal {
    /// `(slot, word index, old value)`, in first-dirty order.
    entries: Vec<(SigSlot, u32, u64)>,
    /// Per-slot dirty bitmaps: bit `w` is set once word `w` is journalled.
    dirty: [u64; 2],
}

impl SigJournal {
    /// An empty journal. Storage grows on first use and is then reused forever.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start journalling a segment. The journal must be empty (the previous
    /// segment ended in [`SigJournal::rollback`] or [`SigJournal::discard`]).
    pub fn begin(&mut self) {
        debug_assert!(self.entries.is_empty(), "journal not closed");
    }

    /// Record `old` as the pre-segment value of `slot`'s word `w`, once per
    /// `(slot, word)` — later calls for the same word are ignored, keeping the
    /// first (correct) old value.
    #[inline]
    pub fn note(&mut self, slot: SigSlot, w: u32, old: u64) {
        let d = &mut self.dirty[slot as usize];
        let bit = 1u64 << w;
        if *d & bit == 0 {
            *d |= bit;
            self.entries.push((slot, w, old));
        }
    }

    /// Undo every recorded word, restoring `rsig`/`wsig` to their segment-entry
    /// values, and leave the journal empty for the next attempt.
    ///
    /// [`note`](Self::note) keeps exactly one entry per `(slot, word)` — the
    /// first (correct) old value — so replay order is irrelevant and each word
    /// can be restored *raw*, with one kernel-driven mask rebuild per touched
    /// signature instead of `set_word`'s per-word mask bookkeeping.
    pub fn rollback(&mut self, rsig: &mut Sig, wsig: &mut Sig) {
        while let Some((slot, w, old)) = self.entries.pop() {
            let sig = match slot {
                SigSlot::Read => &mut *rsig,
                SigSlot::Write => &mut *wsig,
            };
            sig.raw_words_mut()[w as usize] = old;
        }
        if self.dirty[SigSlot::Read as usize] != 0 {
            rsig.rebuild_mask();
        }
        if self.dirty[SigSlot::Write as usize] != 0 {
            wsig.rebuild_mask();
        }
        self.dirty = [0; 2];
        rsig.assert_mask_invariant();
        wsig.assert_mask_invariant();
    }

    /// The segment committed: forget the journal (keeping its storage).
    pub fn discard(&mut self) {
        self.entries.clear();
        self.dirty = [0; 2];
    }

    /// Number of journalled words (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is journalled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The journalled `(slot, word index, old value)` entries, in first-dirty
    /// order (diagnostics and tests).
    pub fn entries(&self) -> &[(SigSlot, u32, u64)] {
        &self.entries
    }
}

/// The clone-based save/restore this journal replaced, kept as the differential
/// oracle (tests) and the microbenchmark baseline — the role
/// `line_table_ref` plays for the packed line table.
#[derive(Debug)]
pub struct CloneSaved {
    rsig: Sig,
    wsig: Sig,
}

impl CloneSaved {
    /// Snapshot both mirrors at segment entry (the old `wmir_save`/`rmir_save`).
    pub fn save(rsig: &Sig, wsig: &Sig) -> Self {
        Self {
            rsig: rsig.clone(),
            wsig: wsig.clone(),
        }
    }

    /// Restore both mirrors to the snapshot (the old `clone_from` pair).
    pub fn restore(&self, rsig: &mut Sig, wsig: &mut Sig) {
        rsig.clone_from(&self.rsig);
        wsig.clone_from(&self.wsig);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SigSpec;

    fn spec() -> SigSpec {
        SigSpec::PAPER
    }

    /// Drive a SigPair-shaped add through the journal, the way the executors do.
    fn journaled_add(j: &mut SigJournal, sig: &mut Sig, slot: SigSlot, addr: u32) {
        let (w, m) = sig.spec().slot_of(addr);
        let old = sig.word(w);
        if old & m == 0 {
            j.note(slot, w, old);
            sig.add_slot(w, m);
        }
    }

    #[test]
    fn rollback_restores_segment_entry_state() {
        let mut r = Sig::new(spec());
        let mut w = Sig::new(spec());
        r.add(10);
        w.add(20);
        let r0 = r.clone();
        let w0 = w.clone();

        let mut j = SigJournal::new();
        j.begin();
        for a in 0..50u32 {
            journaled_add(&mut j, &mut r, SigSlot::Read, 1000 + a);
            journaled_add(&mut j, &mut w, SigSlot::Write, 2000 + a);
        }
        assert!(!j.is_empty());
        j.rollback(&mut r, &mut w);
        assert_eq!(r, r0);
        assert_eq!(w, w0);
        assert!(j.is_empty());
    }

    #[test]
    fn discard_keeps_new_bits() {
        let mut r = Sig::new(spec());
        let mut w = Sig::new(spec());
        let mut j = SigJournal::new();
        j.begin();
        journaled_add(&mut j, &mut r, SigSlot::Read, 7);
        j.discard();
        assert!(r.contains(7));
        assert!(j.is_empty());
        // The next segment can roll back without resurrecting old entries.
        j.begin();
        journaled_add(&mut j, &mut w, SigSlot::Write, 8);
        j.rollback(&mut r, &mut w);
        assert!(r.contains(7), "committed segment survives later rollbacks");
        assert!(w.is_empty());
    }

    #[test]
    fn first_old_value_wins() {
        let mut r = Sig::new(spec());
        let mut w = Sig::new(spec());
        let mut j = SigJournal::new();
        j.begin();
        // Two adds landing in the same word: only the first old value matters.
        let (word, _) = spec().slot_of(3);
        let before = r.word(word);
        journaled_add(&mut j, &mut r, SigSlot::Read, 3);
        // Force a second bit into the same word if possible; note() must dedup.
        j.note(SigSlot::Read, word, 0xDEAD); // wrong old value, must be ignored
        j.rollback(&mut r, &mut w);
        assert_eq!(r.word(word), before);
    }

    #[test]
    fn storage_reused_across_segments() {
        let mut r = Sig::new(spec());
        let mut w = Sig::new(spec());
        let mut j = SigJournal::new();
        for round in 0..10 {
            j.begin();
            for a in 0..32u32 {
                journaled_add(&mut j, &mut r, SigSlot::Read, round * 100 + a);
            }
            j.rollback(&mut r, &mut w);
        }
        assert!(r.is_empty());
        let cap = j.entries.capacity();
        j.begin();
        for a in 0..32u32 {
            journaled_add(&mut j, &mut r, SigSlot::Read, a);
        }
        assert_eq!(j.entries.capacity(), cap, "no growth after warm-up");
        j.discard();
    }
}
