//! Property-based tests of the signature algebra, the ring's validation window,
//! the segment journal (vs the clone-based reference), the summary fast passes
//! (vs ground truth under real multithreaded interleavings, on one shard and on
//! eight, with and without concurrent resets), the fast passes against the
//! plain entry walk they approximate (a 1-shard ring vs a plain [`Ring`], and
//! under aggressive resets), the skip-untouched-shards software publish vs a
//! publish-everything oracle, and the unrolled word kernels (word-for-word vs
//! the scalar references).

use htm_sim::{HeapBuilder, HtmConfig, HtmSystem, HtmThread};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;
use tm_sig::kernels::{scalar, unrolled, BankLine};
use tm_sig::{
    CloneSaved, Ring, RingValidationError, ShardTimes, ShardedRing, ShardedSummary,
    ShardedValidation, Sig, SigJournal, SigSlot, SigSpec, SummaryTuning,
};

fn arb_addrs() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..100_000, 0..64)
}

/// Equal-length word-slice pairs for the kernel differentials: every length
/// residue mod 4 (so the unrolled tails are hit), words zero-biased so whole
/// 4-word chunks qualify for the chunk skip. Lengths sweep up to the 64-word
/// limit (mask bit 63) and cover both 1- and 2-word (sub-chunk) slices; 32
/// words is the paper spec.
fn arb_word_pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    let word = || prop_oneof![Just(0u64), Just(0u64), 1u64..=u64::MAX];
    proptest::collection::vec((word(), word()), 0..65).prop_map(|v| v.into_iter().unzip())
}

/// The executor's journaled-add pattern (see `SigPair::add_journaled`).
fn journaled_add(j: &mut SigJournal, sig: &mut Sig, slot: SigSlot, addr: u32) {
    let (w, m) = sig.spec().slot_of(addr);
    let old = sig.word(w);
    if old & m == 0 {
        j.note(slot, w, old);
        sig.add_slot(w, m);
    }
}

/// splitmix64: cheap deterministic address derivation for the threaded test.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One validation of a 1-shard ring through the fast pass `touched` names:
/// [`ShardedRing::validate_touched_nt`] (`clean_since_at`) or
/// [`ShardedRing::validate_summarized_nt`] (`try_fast_pass_at`).
fn validate_one_shard(
    ring: &ShardedRing,
    th: &HtmThread<'_>,
    sums: &ShardedSummary,
    rsig: &Sig,
    times: &mut ShardTimes,
    touched: bool,
) -> ShardedValidation {
    if touched {
        ring.validate_touched_nt(th, sums, rsig, times)
    } else {
        ring.validate_summarized_nt(th, sums, rsig, times)
    }
}

/// Multithreaded ground truth for a fast pass: two software publishers and one
/// hardware publisher commit three-address signatures through a `shards`-shard
/// ring (no rollover) while a validator runs `validate` 400 times — and, when
/// `tuning` is given, a resetter hammers [`ShardedRing::maybe_reset_summaries`]
/// under it so bank flips race the validator's probes. Every publish deposits its
/// signature in per-shard shadow tables keyed by that shard's commit timestamp.
/// Whenever the validator's fast pass admits a window in a shard, every
/// signature published in that window must be disjoint from the read signature
/// restricted to the shard's word range: a conflict on a word must always be
/// caught in the shard owning it. False positives (walking) are allowed; a false
/// negative fails.
fn fast_pass_never_admits_a_conflict(
    seed: u64,
    shards: usize,
    tuning: Option<SummaryTuning>,
    validate: impl Fn(usize, &ShardedRing, &HtmThread<'_>, &ShardedSummary, &Sig, &mut ShardTimes) -> ShardedValidation
        + Sync,
) {
    const SW_PUBS: u64 = 60; // per software publisher (x2)
    const HW_PUBS: u64 = 30;
    const MAX_TS: usize = (2 * SW_PUBS + HW_PUBS) as usize;
    let sys = HtmSystem::new(HtmConfig::default(), 1 << 20);
    let mut b = HeapBuilder::new(1 << 20);
    let ring = ShardedRing::alloc(&mut b, shards, 1024, SigSpec::PAPER); // no rollover
    let summaries = ring.new_summary_tuned(tuning.unwrap_or_default());
    let nsh = ring.shard_count();
    let shadow: Vec<Vec<Mutex<Option<Sig>>>> = (0..nsh)
        .map(|_| (0..=MAX_TS).map(|_| Mutex::new(None)).collect())
        .collect();

    let make_sig = |stream: u64, i: u64| {
        let mut s = Sig::new(SigSpec::PAPER);
        for k in 0..3 {
            s.add((mix(seed ^ (stream << 56) ^ (i << 8) ^ k) % 100_000) as u32);
        }
        s
    };
    let rsig = make_sig(9, 0);
    // a ∩ b restricted to shard s's word range.
    let intersects_in_shard = |s: usize, a: &Sig, b: &Sig| {
        let m = ring.shard_word_mask(s);
        a.words()
            .iter()
            .zip(b.words())
            .enumerate()
            .any(|(i, (&x, &y))| m & (1 << i) != 0 && x & y != 0)
    };
    let deposit = |mask: u32, times: &ShardTimes, sig: &Sig| {
        for (s, shard_shadow) in shadow.iter().enumerate() {
            if mask & (1 << s) != 0 {
                *shard_shadow[times.get(s) as usize].lock().unwrap() = Some(sig.clone());
            }
        }
    };

    std::thread::scope(|scope| {
        let (ring, summaries, shadow, rsig, sys) = (&ring, &summaries, &shadow, &rsig, &sys);
        let (intersects_in_shard, deposit, make_sig, validate) =
            (&intersects_in_shard, &deposit, &make_sig, &validate);
        for p in 0..2u64 {
            scope.spawn(move || {
                let th = sys.thread(p as usize);
                for i in 0..SW_PUBS {
                    let sig = make_sig(p, i);
                    let (mask, times) = ring.publish_software_summarized(&th, &sig, summaries);
                    deposit(mask, &times, &sig);
                }
            });
        }
        scope.spawn(move || {
            let mut th = sys.thread(2);
            for i in 0..HW_PUBS {
                let sig = make_sig(7, i);
                loop {
                    let mut announced = 0u32;
                    let res = th.attempt(|tx| {
                        announced = 0;
                        let (mask, times) = ring.publish_tx_summarized(tx, &sig, summaries)?;
                        announced = mask;
                        Ok((mask, times))
                    });
                    match res {
                        Ok((mask, times)) => {
                            ring.complete_publish(&sig, mask, &times, summaries);
                            deposit(mask, &times, &sig);
                            break;
                        }
                        Err(_) => {
                            if announced != 0 {
                                ring.cancel_publish(announced, summaries);
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        if tuning.is_some() {
            scope.spawn(move || {
                let th = sys.thread(4);
                for _ in 0..2_000 {
                    ring.maybe_reset_summaries(&th, summaries);
                    std::thread::yield_now();
                }
            });
        }
        scope.spawn(move || {
            let th = sys.thread(3);
            let mut times = ShardTimes::new();
            for i in 0..400 {
                let prev = times;
                let v = validate(i, ring, &th, summaries, rsig, &mut times);
                // Check every shard the fast pass admitted, whether or not a
                // later shard ultimately failed the validation.
                for (s, shard_shadow) in shadow.iter().enumerate() {
                    if v.fast_shards & (1 << s) == 0 {
                        continue;
                    }
                    for m in prev.get(s) + 1..=times.get(s) {
                        let mut spins = 0u64;
                        loop {
                            if let Some(sig) = shard_shadow[m as usize].lock().unwrap().as_ref() {
                                assert!(
                                    !intersects_in_shard(s, sig, rsig),
                                    "shard {s} fast pass admitted a conflicting publish at shard-ts {m}"
                                );
                                break;
                            }
                            spins += 1;
                            assert!(spins < 10_000_000, "publisher never filled shadow[{s}][{m}]");
                            std::thread::yield_now();
                        }
                    }
                }
                std::hint::spin_loop();
            }
        });
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Bloom filters never produce false negatives.
    #[test]
    fn no_false_negatives(addrs in arb_addrs(), bits in prop_oneof![Just(512u32), Just(2048), Just(4096)]) {
        let mut s = Sig::new(SigSpec::new(bits));
        for &a in &addrs {
            s.add(a);
        }
        for &a in &addrs {
            prop_assert!(s.contains(a));
        }
    }

    /// Union is an upper bound of both operands; subtraction of a disjoint
    /// signature is the identity.
    #[test]
    fn union_and_subtract_laws(a in arb_addrs(), b in arb_addrs()) {
        let spec = SigSpec::PAPER;
        let mut sa = Sig::new(spec);
        let mut sb = Sig::new(spec);
        for &x in &a { sa.add(x); }
        for &x in &b { sb.add(x); }

        let mut u = sa.clone();
        u.union_with(&sb);
        u.assert_mask_invariant();
        for &x in a.iter().chain(b.iter()) {
            prop_assert!(u.contains(x));
        }

        // (a ∪ b) − b ⊆ a at the bit level: every surviving bit is in a.
        let mut diff = u.clone();
        diff.subtract(&sb);
        diff.assert_mask_invariant();
        for (w_diff, w_a) in diff.words().iter().zip(sa.words()) {
            prop_assert_eq!(w_diff & !w_a, 0);
        }
    }

    /// `intersects` agrees with the word-level definition and is symmetric.
    #[test]
    fn intersects_symmetric(a in arb_addrs(), b in arb_addrs()) {
        let spec = SigSpec::PAPER;
        let mut sa = Sig::new(spec);
        let mut sb = Sig::new(spec);
        for &x in &a { sa.add(x); }
        for &x in &b { sb.add(x); }
        let manual = sa.words().iter().zip(sb.words()).any(|(&x, &y)| x & y != 0);
        prop_assert_eq!(sa.intersects(&sb), manual);
        prop_assert_eq!(sa.intersects(&sb), sb.intersects(&sa));
    }

    /// A signature sees cache lines, not words: any word set and the set of
    /// its words' line bases produce the same signature.
    #[test]
    fn signature_sees_lines_not_words(addrs in arb_addrs(), bits in prop_oneof![Just(512u32), Just(2048), Just(4096)]) {
        let spec = SigSpec::new(bits);
        let (mut words, mut lines) = (Sig::new(spec), Sig::new(spec));
        for &a in &addrs {
            words.add(a);
            lines.add(a & !(htm_sim::WORDS_PER_LINE as u32 - 1));
        }
        prop_assert_eq!(words.words(), lines.words());
        prop_assert_eq!(words.popcount(), lines.popcount());
    }

    /// Ring validation is complete within the window: a reader of address `x`
    /// starting at time `t0` is invalidated iff some commit after `t0` wrote `x`'s
    /// bit (false positives allowed, false negatives never — unless the window
    /// rolled over, which must be reported as such).
    #[test]
    fn ring_validation_complete(
        commits in proptest::collection::vec(arb_addrs(), 1..12),
        probe in 0u32..100_000,
        start_after in 0usize..12,
    ) {
        let sys = HtmSystem::new(HtmConfig::default(), 1 << 16);
        let mut b = HeapBuilder::new(1 << 16);
        let ring = Ring::alloc(&mut b, 8, SigSpec::PAPER);
        let th = sys.thread(0);

        let start_after = start_after.min(commits.len());
        let mut rsig = Sig::new(SigSpec::PAPER);
        rsig.add(probe);

        for addrs in &commits {
            let mut w = Sig::new(SigSpec::PAPER);
            for &a in addrs {
                w.add(a);
            }
            ring.publish_software(&th, &w);
        }
        let start_time = start_after as u64;
        let result = ring.validate_nt(&th, &rsig, start_time);

        let window = commits.len() as u64 - start_time;
        let overflowed = window > ring.size();
        let truly_conflicting = commits[start_after..]
            .iter()
            .any(|addrs| addrs.iter().any(|&a| SigSpec::PAPER.bit_of(a) == SigSpec::PAPER.bit_of(probe)));

        match result {
            Ok(ts) => {
                // Completeness: may not succeed if a real conflict is in the window.
                prop_assert!(!truly_conflicting, "missed a conflict");
                prop_assert!(!overflowed, "missed a rollover");
                prop_assert_eq!(ts, commits.len() as u64);
            }
            Err(tm_sig::RingValidationError::Invalid) => {
                // Soundness of the error is only "some bit collided", which Bloom
                // filters permit spuriously; nothing further to assert.
            }
            Err(tm_sig::RingValidationError::Rollover) => {
                prop_assert!(overflowed, "spurious rollover report");
            }
        }
    }

    /// Differential test of the zero-clone retry machinery: a sequence of
    /// segments, each a mix of read- and write-signature adds ending in commit or
    /// failure, run once through the journal (note/rollback/discard) and once
    /// through the clone-based save/restore it replaced. The signatures must
    /// agree after every segment, at the paper's 2048 bits and at the 64-word
    /// (4096-bit) edge, where dirty bit 63 is live.
    #[test]
    fn journal_matches_clone_reference(
        pre in arb_addrs(),
        segs in proptest::collection::vec((arb_addrs(), arb_addrs(), 0u8..2), 1..8),
        bits in prop_oneof![Just(2048u32), Just(4096)],
    ) {
        let spec = SigSpec::new(bits);
        let mut r_j = Sig::new(spec);
        let mut w_j = Sig::new(spec);
        for &a in &pre {
            r_j.add(a);
            w_j.add(a ^ 0x5555);
        }
        let mut r_c = r_j.clone();
        let mut w_c = w_j.clone();
        let mut j = SigJournal::new();

        for (reads, writes, commits) in &segs {
            let saved = CloneSaved::save(&r_c, &w_c);
            j.begin();
            for &a in reads {
                journaled_add(&mut j, &mut r_j, SigSlot::Read, a);
                r_c.add(a);
            }
            for &a in writes {
                journaled_add(&mut j, &mut w_j, SigSlot::Write, a);
                w_c.add(a);
            }
            if *commits == 1 {
                j.discard();
            } else {
                j.rollback(&mut r_j, &mut w_j);
                saved.restore(&mut r_c, &mut w_c);
            }
            r_j.assert_mask_invariant();
            w_j.assert_mask_invariant();
            prop_assert_eq!(&r_j, &r_c);
            prop_assert_eq!(&w_j, &w_c);
        }
    }

    /// Ground truth for the fast passes on one shard, the summary production
    /// runs for a `ring_shards: 1` runtime: alternate validations go through
    /// [`ShardedRing::validate_summarized_nt`] (`RingSummary::try_fast_pass_at`)
    /// and [`ShardedRing::validate_touched_nt`] (`RingSummary::clean_since_at`).
    #[test]
    fn summary_fast_path_never_admits_a_conflict(seed in 0u64..(1 << 48)) {
        fast_pass_never_admits_a_conflict(seed, 1, None, |i, ring, th, sums, rsig, times| {
            validate_one_shard(ring, th, sums, rsig, times, i % 2 == 1)
        });
    }

    /// Shard-count=1 differential oracle: a 1-shard [`ShardedRing`] — its
    /// compact entries and both fast passes — must agree with the plain walk
    /// [`Ring::validate_nt`] over a plain [`Ring`] of the same size fed the same
    /// commit sequence through [`Ring::publish_software`]: same verdict, same
    /// advanced timestamp. Both rings use 8 entries, so rollover is exercised;
    /// there, and only there, a fast pass may admit a reader the walk reports
    /// as rolled over (the summary covers every publish since its reset).
    #[test]
    fn single_shard_matches_plain_ring_oracle(
        commits in proptest::collection::vec(arb_addrs(), 1..12),
        probe in 0u32..100_000,
        start_after in 0usize..12,
    ) {
        let sys = HtmSystem::new(HtmConfig::default(), 1 << 16);
        let mut b = HeapBuilder::new(1 << 16);
        let sharded = ShardedRing::alloc(&mut b, 1, 8, SigSpec::PAPER);
        let oracle = Ring::alloc(&mut b, 8, SigSpec::PAPER);
        let summaries = sharded.new_summary();
        let th = sys.thread(0);

        // Empty signatures diverge by design (the sharded ring skips them; the
        // plain ring burns a timestamp) — that case has its own unit test. Keep
        // the two timestamp streams aligned by publishing only non-empty commits.
        let commits: Vec<_> = commits.into_iter().filter(|a| !a.is_empty()).collect();
        for addrs in &commits {
            let mut w = Sig::new(SigSpec::PAPER);
            for &a in addrs {
                w.add(a);
            }
            let (mask, times) = sharded.publish_software_summarized(&th, &w, &summaries);
            let ots = oracle.publish_software(&th, &w);
            prop_assert_eq!((mask, times.get(0)), (1, ots));
        }

        let start_after = start_after.min(commits.len()) as u64;
        let mut rsig = Sig::new(SigSpec::PAPER);
        rsig.add(probe);
        let walk = oracle.validate_nt(&th, &rsig, start_after);
        for touched in [false, true] {
            let mut times = ShardTimes::new();
            times.set(0, start_after);
            let v = validate_one_shard(&sharded, &th, &summaries, &rsig, &mut times, touched);
            match (v.result, walk) {
                (Ok(()), Ok(ots)) => prop_assert_eq!(times.get(0), ots),
                (Err(e), Err(oe)) => prop_assert_eq!(e, oe),
                (Ok(()), Err(RingValidationError::Rollover)) => prop_assert_eq!(v.fast_shards, 1),
                (a, b) => prop_assert!(false, "sharded {a:?} (touched: {touched}) vs walk {b:?}"),
            }
        }
    }

    /// Ground truth for the fast pass of [`ShardedRing::validate_summarized_nt`]
    /// across eight shards.
    #[test]
    fn sharded_fast_path_never_admits_a_conflict(seed in 0u64..(1 << 48)) {
        fast_pass_never_admits_a_conflict(seed, 8, None, |_, ring, th, sums, rsig, times| {
            ring.validate_summarized_nt(th, sums, rsig, times)
        });
    }

    /// Ground truth for the **epoch** protocol's per-shard fast pass
    /// ([`ShardedRing::validate_touched_nt`]) across eight shards, with a
    /// resetter firing bank flips and clears mid-validation under an
    /// aggressively low density threshold and check interval.
    #[test]
    fn epoch_fast_pass_never_admits_a_conflict(seed in 0u64..(1 << 48)) {
        let tuning = SummaryTuning {
            density_num: 1,
            density_den: 64,
            check_interval: 4,
        };
        fast_pass_never_admits_a_conflict(seed, 8, Some(tuning), |_, ring, th, sums, rsig, times| {
            ring.validate_touched_nt(th, sums, rsig, times)
        });
    }

    /// The fast passes against the specification they approximate — the
    /// precise entry walk [`Ring::validate_nt`] — on a 1-shard ring, at both
    /// the compact-entry (2048-bit, 32-word) geometry and the 64-word limit
    /// (4096-bit, full entries only: the shard's word mask is all ones): a
    /// commit sequence is published under aggressive tuning (so resets
    /// actually fire), and after every commit both fast-pass validations are
    /// compared with the bare walk over the same window. A fast pass may
    /// decide *how* a validation was settled, never the outcome: it may only
    /// say "clean" where the walk says clean, and the advanced timestamp must
    /// equal the walk's.
    #[test]
    fn epoch_summary_matches_precise_walk(
        commits in proptest::collection::vec(arb_addrs(), 1..14),
        probe in 0u32..100_000,
        bits in prop_oneof![Just(2048u32), Just(4096)],
        reset_every in 1usize..5,
    ) {
        let spec = SigSpec::new(bits);
        let sys = HtmSystem::new(HtmConfig::default(), 1 << 18);
        let mut b = HeapBuilder::new(1 << 18);
        let sharded = ShardedRing::alloc(&mut b, 1, 64, spec); // no rollover
        let summaries = sharded.new_summary_tuned(SummaryTuning {
            density_num: 1,
            density_den: 64,
            check_interval: 1,
        });
        let th = sys.thread(0);

        let mut rsig = Sig::new(spec);
        rsig.add(probe);
        let mut start = 0u64;
        for (i, addrs) in commits.iter().enumerate() {
            let mut w = Sig::new(spec);
            for &a in addrs {
                w.add(a);
            }
            sharded.publish_software_summarized(&th, &w, &summaries);
            if i % reset_every == 0 {
                sharded.maybe_reset_summaries(&th, &summaries);
            }
            let walk = sharded.shard(0).validate_nt(&th, &rsig, start);
            for touched in [false, true] {
                let mut times = ShardTimes::new();
                times.set(0, start);
                let v = validate_one_shard(&sharded, &th, &summaries, &rsig, &mut times, touched);
                prop_assert_eq!(
                    v.result.map(|()| times.get(0)),
                    walk,
                    "fast pass and walk disagreed at commit {} (touched: {}, fast: {})",
                    i,
                    touched,
                    v.fast_shards
                );
            }
            if let Ok(ts) = walk {
                start = ts;
            }
        }
    }

    /// The skip-untouched-shards software publish against a publish-everything
    /// oracle: the same commit sequence goes through an 8-shard ring (whose
    /// software publish acquires, writes and releases only the shards the
    /// signature's word mask touches) and through a plain single ring (which
    /// "publishes through every shard" by construction — every entry carries
    /// the full signature). For any reader, the admitted-conflict set must be
    /// identical: a conflict on word `w` is caught by `w`'s owning shard alone,
    /// and the skipped shards hold no bits of the signature, so skipping them
    /// can neither hide a conflict nor invent one.
    #[test]
    fn software_publish_skip_matches_all_shards_oracle(
        commits in proptest::collection::vec(arb_addrs(), 1..14),
        reads in arb_addrs(),
    ) {
        let sys = HtmSystem::new(HtmConfig::default(), 1 << 20);
        let mut b = HeapBuilder::new(1 << 20);
        let sharded = ShardedRing::alloc(&mut b, 8, 1024, SigSpec::PAPER); // no rollover
        let oracle = Ring::alloc(&mut b, 1024, SigSpec::PAPER);
        let summaries = sharded.new_summary();
        let th = sys.thread(0);

        let mut rsig = Sig::new(SigSpec::PAPER);
        for &a in &reads {
            rsig.add(a);
        }
        for addrs in &commits {
            let mut w = Sig::new(SigSpec::PAPER);
            for &a in addrs {
                w.add(a);
            }
            let (mask, _times) = sharded.publish_software_summarized(&th, &w, &summaries);
            oracle.publish_software(&th, &w);
            // The skip is real: only shards the signature's words touch are
            // published (empty signatures touch none).
            prop_assert_eq!(mask, sharded.shard_mask(&w));

            // Full-window verdicts must agree after every commit, through both
            // validation entry points.
            let oracle_verdict = oracle.validate_nt(&th, &rsig, 0).map(|_| ());
            let mut t1 = ShardTimes::new();
            let v1 = sharded.validate_summarized_nt(&th, &summaries, &rsig, &mut t1);
            prop_assert_eq!(v1.result, oracle_verdict, "validate_summarized_nt diverged");
            let mut t2 = ShardTimes::new();
            let v2 = sharded.validate_touched_nt(&th, &summaries, &rsig, &mut t2);
            prop_assert_eq!(v2.result, oracle_verdict, "validate_touched_nt diverged");
        }
    }
}

// Second block: the macro's expansion depth grows with the number of tests in
// one block, and the first block is already at the recursion limit.
proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The unrolled word kernels against the scalar oracles, word for word, on
    /// arbitrary equal-length slices (every length residue mod 4, zero-biased
    /// words so chunk skipping fires) and arbitrary word masks. Covers the
    /// plain and line-chunked kernel families; the masked update kernels,
    /// which have no unrolled twin, are checked against the full-width ones.
    #[test]
    fn unrolled_kernels_match_scalar_oracles(pair in arb_word_pair(), mask in 0u64..=u64::MAX) {
        let (a, b): (Vec<u64>, Vec<u64>) = pair;
        prop_assert_eq!(unrolled::intersect_any(&a, &b), scalar::intersect_any(&a, &b));

        let (mut d1, mut d2) = (a.clone(), a.clone());
        unrolled::or_into(&mut d1, &b);
        scalar::or_into(&mut d2, &b);
        prop_assert_eq!(&d1, &d2);

        // The masked tier, under the exact-mask contract the Sig invariant
        // provides (the mask covers every non-zero word of its operand).
        let (ma, mb) = (scalar::mask_of(&a), scalar::mask_of(&b));
        let mut d1 = a.clone();
        scalar::or_into_masked(&mut d1, &b, mb);
        let mut bulk = a.clone();
        scalar::or_into(&mut bulk, &b);
        prop_assert_eq!(&d1, &bulk);

        // The masked AND-NOT against the full-width one: same words, and the
        // emptied bits are exactly the shared ones whose word came out zero.
        let mut d1 = a.clone();
        let emptied = scalar::and_not_masked(&mut d1, &b, ma & mb);
        let full: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & !y).collect();
        prop_assert_eq!(&d1, &full);
        prop_assert_eq!(emptied, ma & mb & !scalar::mask_of(&full));

        prop_assert_eq!(
            unrolled::intersect_any_masked(&a, &b, ma & mb),
            scalar::intersect_any(&a, &b)
        );
        prop_assert_eq!(
            scalar::intersect_any_masked(&a, &b, ma & mb),
            scalar::intersect_any(&a, &b)
        );

        prop_assert_eq!(unrolled::mask_of(&a), scalar::mask_of(&a));
        prop_assert_eq!(unrolled::popcount(&a), scalar::popcount(&a));

        let lines_of = |w: &[u64]| -> Vec<BankLine> {
            w.chunks(8)
                .map(|c| {
                    let mut line: [AtomicU64; 8] = Default::default();
                    for (l, &x) in line.iter_mut().zip(c) {
                        *l = AtomicU64::new(x);
                    }
                    BankLine::new(line)
                })
                .collect()
        };
        let line_loads = |lines: &[BankLine], n: usize| -> Vec<u64> {
            (0..n).map(|i| lines[i / 8].0[i % 8].load(SeqCst)).collect()
        };
        let (l1, l2) = (lines_of(&a), lines_of(&a));
        prop_assert_eq!(
            unrolled::probe_lines(&l1, &b),
            scalar::probe_lines(&l2, &b)
        );
        prop_assert_eq!(
            unrolled::probe_lines_masked(&l1, &b, mb),
            scalar::probe_lines_masked(&l2, &b, mb)
        );
        prop_assert_eq!(
            scalar::probe_lines_masked(&l2, &b, mb),
            scalar::probe_lines(&l2, &b)
        );
        unrolled::fold_or_lines(&l1, &b, mask);
        scalar::fold_or_lines(&l2, &b, mask);
        prop_assert_eq!(line_loads(&l1, a.len()), line_loads(&l2, a.len()));
        prop_assert_eq!(
            unrolled::popcount_lines(&l1, a.len()),
            scalar::popcount_lines(&l2, a.len())
        );
    }
}
