//! Explicitly 4-wide-unrolled word kernels for every signature hot loop.
//!
//! PRs 1–4 made *which* words the hot loops touch sparse; this module cuts the
//! cost *per word*. Most kernels exist twice with an identical slice-level
//! contract:
//!
//! * [`unrolled`] — the production implementation, re-exported at this
//!   module's root (`kernels::x` *is* `kernels::unrolled::x`; there is no
//!   dispatch). Hand-unrolled four `u64` lanes at a time (`chunks_exact(4)` +
//!   a scalar tail) so the compiler emits straight-line SIMD-friendly code
//!   with one branch per 4 words. Sparse inputs stay cheap two ways: the bulk
//!   kernels *chunk-skip* (a chunk whose source words OR to zero is passed
//!   over without touching the destination or, for the atomic kernels,
//!   issuing a single atomic access), and the masked predicates take the
//!   signature's non-zero-word mask and cut over between a mask-guided walk
//!   (below half-live words: index only the live words) and the bulk 4-wide
//!   walk.
//! * [`scalar`] — the one-word-at-a-time loops the unrolled forms replaced:
//!   the reference the kernel tests and `microbench`'s `kernels` rows
//!   compare against, always called by name. Two of them are also the
//!   production body, re-exported at the root: [`or_into_masked`] and
//!   [`and_not_masked`], each one mask-bit loop. Their unrolled twins (that
//!   loop plus a dense cut-over to the bulk walk) won on a dense operand but
//!   lost to this loop on the write-set-shaped sparse one, so they were
//!   deleted.
//!
//! Both flavours are *pure word kernels*: they know nothing about signature
//! masks, banks, epochs or ring protocol. Callers keep every protocol
//! read/write order exactly as before and only route the per-word arithmetic
//! here — zero protocol changes (the atomic kernels preserve `SeqCst` on every
//! access). Unrolling rules and the full routing map live in
//! `docs/mem-layout.md`.

use std::sync::atomic::AtomicU64;

pub use scalar::{and_not_masked, or_into_masked};
pub use unrolled::*;

/// One cache line of atomic summary-bank storage: eight `u64` words, padded
/// and aligned to exactly one 64-byte line (const-asserted in `align`). The
/// ring summary stores its banks as whole lines so banks never false-share,
/// and the line kernels below walk word `i` at `lines[i / 8][i % 8]`.
pub type BankLine = crate::align::CacheAligned<[AtomicU64; 8]>;

/// Whether word `i` participates under `word_mask` (bit `i` set).
#[inline]
fn in_mask(i: usize, word_mask: u64) -> bool {
    word_mask & (1u64 << i) != 0
}

/// Restrict a non-zero-word mask to the bits a `len`-word slice (at most 64
/// words) can populate. The masked kernels apply this up front so a stray
/// high bit can never index out of bounds.
#[inline]
fn live_bits(mask: u64, len: usize) -> u64 {
    if len >= 64 {
        mask
    } else {
        mask & ((1u64 << len) - 1)
    }
}

/// The one-word-at-a-time reference loops.
pub mod scalar {
    use super::in_mask;
    use std::sync::atomic::Ordering::SeqCst;

    /// True iff `a` and `b` share any set bit (`∃i: a[i] & b[i] != 0`).
    pub fn intersect_any(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(&x, &y)| x & y != 0)
    }

    /// `dst[i] |= src[i]` for every word.
    pub fn or_into(dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
    }

    /// Recompute the non-zero-word mask (bit `i` set iff word `i` is
    /// non-zero).
    pub fn mask_of(words: &[u64]) -> u64 {
        let mut m = 0u64;
        for (i, &w) in words.iter().enumerate() {
            if w != 0 {
                m |= 1u64 << i;
            }
        }
        m
    }

    /// Total set bits across the slice (the summary density popcount).
    pub fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// [`or_into`] guided by the source's non-zero-word mask: only the words
    /// named by `src_mask` are visited. `src_mask` must cover every non-zero
    /// `src` word — the `Sig` mask invariant — so the result equals the
    /// unguided kernel's.
    pub fn or_into_masked(dst: &mut [u64], src: &[u64], src_mask: u64) {
        let mut m = super::live_bits(src_mask, dst.len().min(src.len()));
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            dst[i] |= src[i];
        }
    }

    /// `dst &= !src` over the words named by `shared_mask`; returns the bits
    /// of `shared_mask` whose word came out zero, so the caller clears exactly
    /// those bits from its maintained mask. `shared_mask` must cover every
    /// word index where *both* operands are non-zero.
    pub fn and_not_masked(dst: &mut [u64], src: &[u64], shared_mask: u64) -> u64 {
        let mut emptied = 0u64;
        let mut m = super::live_bits(shared_mask, dst.len().min(src.len()));
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            dst[i] &= !src[i];
            if dst[i] == 0 {
                emptied |= 1u64 << i;
            }
        }
        emptied
    }

    /// [`intersect_any`] guided by the operands' shared non-zero-word mask:
    /// only words live in *both* signatures are read. `shared_mask` must
    /// cover every word index where both operands are non-zero.
    pub fn intersect_any_masked(a: &[u64], b: &[u64], shared_mask: u64) -> bool {
        let mut m = super::live_bits(shared_mask, a.len().min(b.len()));
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if a[i] & b[i] != 0 {
                return true;
            }
        }
        false
    }

    /// True iff `sig` intersects the line-chunked atomic bank (word `i` at
    /// `lines[i / 8][i % 8]`; `SeqCst` loads; a bank word is only loaded when
    /// the matching `sig` word is non-zero — the summary probe).
    pub fn probe_lines(lines: &[super::BankLine], sig: &[u64]) -> bool {
        for (i, &s) in sig.iter().enumerate() {
            if s != 0 && lines[i / 8].0[i % 8].load(SeqCst) & s != 0 {
                return true;
            }
        }
        false
    }

    /// [`probe_lines`] guided by the probing signature's non-zero-word mask:
    /// only words named by `sig_mask` are walked, and a bank word is only
    /// loaded when the matching `sig` word is non-zero (the pre-pass summary
    /// probe). `sig_mask` must cover every non-zero `sig` word.
    pub fn probe_lines_masked(lines: &[super::BankLine], sig: &[u64], sig_mask: u64) -> bool {
        let mut m = super::live_bits(sig_mask, sig.len());
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if sig[i] != 0 && lines[i / 8].0[i % 8].load(SeqCst) & sig[i] != 0 {
                return true;
            }
        }
        false
    }

    /// OR `sig`'s non-zero words under `word_mask` into the line-chunked
    /// atomic bank (`SeqCst` RMWs; zero or masked-out words issue no atomic
    /// access — the summary fold).
    pub fn fold_or_lines(lines: &[super::BankLine], sig: &[u64], word_mask: u64) {
        for (i, &s) in sig.iter().enumerate() {
            if s != 0 && in_mask(i, word_mask) {
                lines[i / 8].0[i % 8].fetch_or(s, SeqCst);
            }
        }
    }

    /// Total set bits across the first `nwords` words of line-chunked bank
    /// storage (`SeqCst` loads).
    pub fn popcount_lines(lines: &[super::BankLine], nwords: usize) -> u64 {
        (0..nwords)
            .map(|i| lines[i / 8].0[i % 8].load(SeqCst).count_ones() as u64)
            .sum()
    }
}

/// The 4-wide-unrolled production kernels. Same contracts as [`scalar`].
pub mod unrolled {
    use super::in_mask;
    use std::sync::atomic::Ordering::SeqCst;

    /// Single-word conflict test: `lock`, less the bits in `skip`, intersects
    /// `mine`. One word has no unroll axis — the transactional validation
    /// loops' lock reads subscribe HTM lines, forbidding the slice-batching
    /// the other kernels use.
    #[inline]
    pub fn conflict_word(lock: u64, skip: u64, mine: u64) -> bool {
        (lock & !skip) & mine != 0
    }

    /// True iff `a` and `b` share any set bit.
    pub fn intersect_any(a: &[u64], b: &[u64]) -> bool {
        let n = a.len().min(b.len());
        let (ac, at) = a[..n].split_at(n & !3);
        let (bc, bt) = b[..n].split_at(n & !3);
        for (x, y) in ac.chunks_exact(4).zip(bc.chunks_exact(4)) {
            if (x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3]) != 0 {
                return true;
            }
        }
        at.iter().zip(bt).any(|(&x, &y)| x & y != 0)
    }

    /// `dst[i] |= src[i]` for every word, four lanes at a time. Chunks whose
    /// source words are all zero never touch `dst`.
    pub fn or_into(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let (dc, dt) = dst[..n].split_at_mut(n & !3);
        let (sc, st) = src[..n].split_at(n & !3);
        for (d, s) in dc.chunks_exact_mut(4).zip(sc.chunks_exact(4)) {
            if s[0] | s[1] | s[2] | s[3] == 0 {
                continue;
            }
            d[0] |= s[0];
            d[1] |= s[1];
            d[2] |= s[2];
            d[3] |= s[3];
        }
        for (d, &s) in dt.iter_mut().zip(st) {
            *d |= s;
        }
    }

    /// Recompute the non-zero-word mask, four lanes at a time: word `i`
    /// contributes bit `i`, so the chunk base is the bit base and the four
    /// lane bits are consecutive.
    pub fn mask_of(words: &[u64]) -> u64 {
        let (c, t) = words.split_at(words.len() & !3);
        let mut m = 0u64;
        for (ci, w) in c.chunks_exact(4).enumerate() {
            if w[0] | w[1] | w[2] | w[3] == 0 {
                continue;
            }
            let base = ci * 4;
            m |= ((w[0] != 0) as u64) << base
                | ((w[1] != 0) as u64) << (base + 1)
                | ((w[2] != 0) as u64) << (base + 2)
                | ((w[3] != 0) as u64) << (base + 3);
        }
        let base = c.len();
        for (i, &w) in t.iter().enumerate() {
            if w != 0 {
                m |= 1u64 << (base + i);
            }
        }
        m
    }

    /// Total set bits across the slice, four popcounts per iteration.
    pub fn popcount(words: &[u64]) -> u64 {
        let (c, t) = words.split_at(words.len() & !3);
        let mut n = 0u64;
        for w in c.chunks_exact(4) {
            n += (w[0].count_ones()
                + w[1].count_ones()
                + w[2].count_ones()
                + w[3].count_ones()) as u64;
        }
        n + t.iter().map(|w| w.count_ones() as u64).sum::<u64>()
    }

    /// Density cutover for the masked predicates: at half-live words and
    /// above the 4-wide bulk walk wins (one branch per chunk, straight-line
    /// lanes); below it the mask-guided walk touches only live words.
    #[inline]
    fn mask_is_dense(live: u64, len: usize) -> bool {
        2 * live.count_ones() as usize >= len
    }

    /// [`intersect_any`][super::scalar::intersect_any_masked] guided by the
    /// operands' shared non-zero-word mask: the common few-bits-vs-few-bits
    /// conflict test reads a word or two; dense pairs take the 4-wide bulk
    /// test. `shared_mask` must cover every word index where both operands
    /// are non-zero.
    pub fn intersect_any_masked(a: &[u64], b: &[u64], shared_mask: u64) -> bool {
        let n = a.len().min(b.len());
        let m = super::live_bits(shared_mask, n);
        if mask_is_dense(m, n) {
            return intersect_any(a, b);
        }
        let mut m = m;
        while m != 0 {
            let bit = m.trailing_zeros() as usize;
            m &= m - 1;
            if a[bit] & b[bit] != 0 {
                return true;
            }
        }
        false
    }

    /// [`probe_lines`][super::scalar::probe_lines_masked] guided by the
    /// probing signature's non-zero-word mask: a sparse read signature loads
    /// exactly its live bank words; dense ones take the line walk. The
    /// atomic-access pattern (load only where the `sig` word is non-zero,
    /// `SeqCst`) is the scalar oracle's. `sig_mask` must cover every
    /// non-zero `sig` word.
    pub fn probe_lines_masked(lines: &[super::BankLine], sig: &[u64], sig_mask: u64) -> bool {
        let n = sig.len();
        let m = super::live_bits(sig_mask, n);
        if mask_is_dense(m, n) {
            return probe_lines(lines, sig);
        }
        let mut m = m;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            if sig[b] != 0 && lines[b / 8].0[b % 8].load(SeqCst) & sig[b] != 0 {
                return true;
            }
        }
        false
    }

    /// True iff `sig` intersects the line-chunked atomic bank. A 4-chunk of
    /// `sig` never straddles a line (4 divides 8), so each live chunk touches
    /// exactly one `BankLine`; a chunk whose four `sig` words OR to zero is
    /// skipped without a single atomic load, and inside a live chunk only the
    /// non-zero lanes load their bank word — the atomic-access pattern is
    /// exactly the scalar reference's.
    pub fn probe_lines(lines: &[super::BankLine], sig: &[u64]) -> bool {
        let (sc, st) = sig.split_at(sig.len() & !3);
        for (ci, s) in sc.chunks_exact(4).enumerate() {
            if s[0] | s[1] | s[2] | s[3] == 0 {
                continue;
            }
            let base = ci * 4;
            let lane = &lines[base / 8].0;
            let off = base % 8;
            for k in 0..4 {
                if s[k] != 0 && lane[off + k].load(SeqCst) & s[k] != 0 {
                    return true;
                }
            }
        }
        let base = sc.len();
        for (j, &s) in st.iter().enumerate() {
            let i = base + j;
            if s != 0 && lines[i / 8].0[i % 8].load(SeqCst) & s != 0 {
                return true;
            }
        }
        false
    }

    /// OR `sig`'s non-zero words under `word_mask` into the line-chunked
    /// atomic bank, chunk-skipping as in [`probe_lines`]; the atomic-RMW set is
    /// exactly the scalar reference's.
    pub fn fold_or_lines(lines: &[super::BankLine], sig: &[u64], word_mask: u64) {
        let (sc, st) = sig.split_at(sig.len() & !3);
        for (ci, s) in sc.chunks_exact(4).enumerate() {
            if s[0] | s[1] | s[2] | s[3] == 0 {
                continue;
            }
            let base = ci * 4;
            let lane = &lines[base / 8].0;
            let off = base % 8;
            for k in 0..4 {
                if s[k] != 0 && in_mask(base + k, word_mask) {
                    lane[off + k].fetch_or(s[k], SeqCst);
                }
            }
        }
        let base = sc.len();
        for (j, &s) in st.iter().enumerate() {
            let i = base + j;
            if s != 0 && in_mask(i, word_mask) {
                lines[i / 8].0[i % 8].fetch_or(s, SeqCst);
            }
        }
    }

    /// Total set bits across the first `nwords` words of line-chunked bank
    /// storage, one whole line (eight loads) per iteration.
    pub fn popcount_lines(lines: &[super::BankLine], nwords: usize) -> u64 {
        let mut n = 0u64;
        let whole = nwords / 8;
        for line in &lines[..whole] {
            let w = &line.0;
            n += (w[0].load(SeqCst).count_ones()
                + w[1].load(SeqCst).count_ones()
                + w[2].load(SeqCst).count_ones()
                + w[3].load(SeqCst).count_ones()
                + w[4].load(SeqCst).count_ones()
                + w[5].load(SeqCst).count_ones()
                + w[6].load(SeqCst).count_ones()
                + w[7].load(SeqCst).count_ones()) as u64;
        }
        for i in whole * 8..nwords {
            n += lines[i / 8].0[i % 8].load(SeqCst).count_ones() as u64;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    /// A handful of fixed slices covering empty, sparse, dense, and every
    /// length residue mod 4 (the proptests sweep arbitrary inputs).
    fn cases() -> Vec<Vec<u64>> {
        vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![1, 0, 0],
            vec![0, 2, 0, 4],
            vec![0; 32],
            (0..32).map(|i| if i % 5 == 0 { 1 << i } else { 0 }).collect(),
            (0..33).map(|i| i as u64).collect(),
            (0..64).map(|i| (i as u64).wrapping_mul(0x9E37)).collect(),
        ]
    }

    #[test]
    fn unrolled_matches_scalar_on_fixed_cases() {
        for a in cases() {
            for b in cases() {
                if a.len() != b.len() {
                    continue;
                }
                assert_eq!(
                    unrolled::intersect_any(&a, &b),
                    scalar::intersect_any(&a, &b)
                );
                let (mut d1, mut d2) = (a.clone(), a.clone());
                unrolled::or_into(&mut d1, &b);
                scalar::or_into(&mut d2, &b);
                assert_eq!(d1, d2);

                // The masked tier, under the exact-mask contract.
                let (ma, mb) = (scalar::mask_of(&a), scalar::mask_of(&b));
                let mut d1 = a.clone();
                scalar::or_into_masked(&mut d1, &b, mb);
                let mut bulk = a.clone();
                unrolled::or_into(&mut bulk, &b);
                assert_eq!(d1, bulk, "masked OR must equal the unguided kernel");
                let mut d1 = a.clone();
                let emptied = scalar::and_not_masked(&mut d1, &b, ma & mb);
                let full: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & !y).collect();
                assert_eq!(d1, full, "masked AND-NOT must equal the full-width one");
                assert_eq!(emptied, ma & mb & !scalar::mask_of(&full));
                assert_eq!(
                    unrolled::intersect_any_masked(&a, &b, ma & mb),
                    scalar::intersect_any(&a, &b),
                );
            }
            assert_eq!(unrolled::mask_of(&a), scalar::mask_of(&a));
            assert_eq!(unrolled::popcount(&a), scalar::popcount(&a));
        }
    }

    fn lines_of(words: &[u64]) -> Vec<BankLine> {
        words
            .chunks(8)
            .map(|c| {
                let mut line: [AtomicU64; 8] = Default::default();
                for (l, &w) in line.iter_mut().zip(c) {
                    *l = AtomicU64::new(w);
                }
                BankLine::new(line)
            })
            .collect()
    }

    fn line_loads(lines: &[BankLine], n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| lines[i / 8].0[i % 8].load(Ordering::SeqCst))
            .collect()
    }

    #[test]
    fn line_kernels_match_scalar() {
        for bank0 in cases() {
            for sig in cases() {
                if bank0.len() != sig.len() || sig.is_empty() {
                    continue;
                }
                assert_eq!(
                    unrolled::probe_lines(&lines_of(&bank0), &sig),
                    scalar::probe_lines(&lines_of(&bank0), &sig)
                );
                let sm = scalar::mask_of(&sig);
                assert_eq!(
                    unrolled::probe_lines_masked(&lines_of(&bank0), &sig, sm),
                    scalar::probe_lines_masked(&lines_of(&bank0), &sig, sm)
                );
                assert_eq!(
                    scalar::probe_lines_masked(&lines_of(&bank0), &sig, sm),
                    scalar::probe_lines(&lines_of(&bank0), &sig)
                );
                for mask in [0u64, u64::MAX, 0xAAAA_5555] {
                    let (l1, l2) = (lines_of(&bank0), lines_of(&bank0));
                    unrolled::fold_or_lines(&l1, &sig, mask);
                    scalar::fold_or_lines(&l2, &sig, mask);
                    assert_eq!(line_loads(&l1, sig.len()), line_loads(&l2, sig.len()));
                }
                assert_eq!(
                    unrolled::popcount_lines(&lines_of(&bank0), bank0.len()),
                    scalar::popcount_lines(&lines_of(&bank0), bank0.len())
                );
            }
        }
    }
}
