//! The line memo of `SigPair`: an add that repeats the pair's last line
//! returns before hashing. Random address streams through the memoised adds
//! must leave exactly what per-address `Sig::add` and a naive journal would:
//! the same mirror words, heap-signature words and journal entries.

use htm_sim::{line_of, Addr};
use part_htm_core::ctx::SigPair;
use part_htm_core::{TmRuntime, TmThread};
use proptest::prelude::*;
use tm_sig::{Sig, SigJournal, SigSlot};

/// Lines the streams touch.
const LINES: u32 = 24;

/// An address stream: `(write-set pair?, line, word, run length)`. A run
/// repeats its line word after word, so the memo hits; consecutive runs
/// interleave lines and the two pairs.
fn arb_stream() -> impl Strategy<Value = Vec<(u8, u32, u32, u32)>> {
    proptest::collection::vec((0u8..2, 0u32..LINES, 0u32..8, 1u32..12), 1..60)
}

/// `(slot, address)` per access of `stream`.
fn accesses(rt: &TmRuntime, stream: &[(u8, u32, u32, u32)]) -> Vec<(SigSlot, Addr)> {
    let mut out = Vec::new();
    for &(w, line, word, run) in stream {
        let slot = if w == 1 {
            SigSlot::Write
        } else {
            SigSlot::Read
        };
        for k in 0..run {
            let a = rt.app((line * 8 + (word + k) % 8) as usize);
            out.push((slot, a));
        }
    }
    out
}

/// The naive model: per-address `Sig::add` on the mirrors, and a journal
/// entry for the first new bit of every word.
fn model(start: [&Sig; 2], accesses: &[(SigSlot, Addr)]) -> ([Sig; 2], Vec<(SigSlot, u32, u64)>) {
    let mut sigs = [start[0].clone(), start[1].clone()];
    let mut entries: Vec<(SigSlot, u32, u64)> = Vec::new();
    for &(slot, a) in accesses {
        let sig = &mut sigs[slot as usize];
        let (w, m) = sig.spec().slot_of(a);
        let old = sig.word(w);
        if old & m == 0 && !entries.iter().any(|&(s, ew, _)| s == slot && ew == w) {
            entries.push((slot, w, old));
        }
        sig.add(a);
    }
    (sigs, entries)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Journaled adds through two memoised pairs (the sub-HTM path) match the
    /// model; after a rollback a fresh pair re-journals the same lines.
    #[test]
    fn memoised_journaled_add_matches_model(
        stream in arb_stream(),
        seeded in proptest::collection::vec(0u32..LINES, 0..6),
    ) {
        let rt = TmRuntime::with_defaults(1, (LINES * 8) as usize);
        let mut th = TmThread::new(&rt, 0);
        let a = rt.arena(0);
        let spec = a.read_sig.spec();
        // Bits a previous segment left in the read mirror (and its heap copy).
        let mut rmir = Sig::new(spec);
        for &l in &seeded {
            rmir.add(rt.app((l * 8) as usize));
        }
        a.read_sig.write_nt(&th.hw, &rmir);
        let mut wmir = Sig::new(spec);
        let start = (rmir.clone(), wmir.clone());
        let acc = accesses(&rt, &stream);
        let (want, want_entries) = model([&rmir, &wmir], &acc);

        let mut journal = SigJournal::new();
        for round in 0..2 {
            journal.begin();
            th.hw.attempt(|tx| {
                let mut rsig = SigPair::new(a.read_sig, &mut rmir);
                let mut wsig = SigPair::new(a.write_sig, &mut wmir);
                for &(slot, addr) in &acc {
                    let pair = if slot == SigSlot::Read { &mut rsig } else { &mut wsig };
                    pair.add_journaled(tx, addr, &mut journal, slot)?;
                }
                Ok(())
            }).unwrap();
            prop_assert_eq!(&rmir, &want[0], "read mirror, round {}", round);
            prop_assert_eq!(&wmir, &want[1], "write mirror, round {}", round);
            prop_assert_eq!(&a.read_sig.snapshot_nt(&th.hw), &want[0]);
            prop_assert_eq!(&a.write_sig.snapshot_nt(&th.hw), &want[1]);
            prop_assert_eq!(journal.entries(), &want_entries[..], "round {}", round);
            // Roll the segment back: the next round's fresh pairs must
            // journal every line again, the last one included.
            journal.rollback(&mut rmir, &mut wmir);
            prop_assert_eq!(&rmir, &start.0);
            prop_assert_eq!(&wmir, &start.1);
        }
    }

    /// Plain adds through a memoised pair (the fast path) match per-address
    /// `Sig::add` in the mirror and in the heap copy.
    #[test]
    fn memoised_add_matches_sig_add(stream in arb_stream()) {
        let rt = TmRuntime::with_defaults(1, (LINES * 8) as usize);
        let mut th = TmThread::new(&rt, 0);
        let a = rt.arena(0);
        let acc = accesses(&rt, &stream);
        let mut mir = Sig::new(a.write_sig.spec());
        let mut want = mir.clone();
        th.hw.attempt(|tx| {
            let mut pair = SigPair::new(a.write_sig, &mut mir);
            let mut last = None;
            for &(_, addr) in &acc {
                pair.add(tx, addr)?;
                want.add(addr);
                // A repeat of the last line changes nothing.
                if last == Some(line_of(addr)) {
                    prop_assert_eq!(pair.mirror(), &want);
                }
                last = Some(line_of(addr));
            }
            Ok(())
        }).unwrap();
        prop_assert_eq!(&mir, &want);
        prop_assert_eq!(&a.write_sig.snapshot_nt(&th.hw), &want);
    }
}
