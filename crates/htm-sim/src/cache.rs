//! The set-associative write-capacity model.
//!
//! TSX buffers transactional writes in the L1 data cache: evicting a written line
//! aborts the transaction (§2 of the paper). We model the L1 as `sets x ways`; a
//! transaction may hold at most `ways` distinct *written* lines per set. Reads have
//! a flat budget (TSX tracks read lines beyond L1 in a "specialized buffer"), kept
//! by [`crate::backend::TxCap`].

use crate::heap::Line;

/// Tracks the written-line occupancy of the simulated L1 for one transaction.
///
/// Reset and reused across transactions to avoid per-begin allocation.
pub struct L1Model {
    sets_mask: u32,
    ways: u8,
    occupancy: Box<[u8]>,
    /// Sets touched this transaction, for O(touched) reset.
    touched: Vec<u32>,
    /// Lines currently tracked (always equals the sum of `occupancy`).
    live: u32,
}

impl L1Model {
    /// Create a model with `sets` sets (power of two) and `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two());
        assert!(ways >= 1 && ways <= u8::MAX as usize);
        Self {
            sets_mask: (sets - 1) as u32,
            ways: ways as u8,
            occupancy: vec![0u8; sets].into_boxed_slice(),
            touched: Vec::with_capacity(64),
            live: 0,
        }
    }

    /// Record that written `line` (not previously tracked by this transaction)
    /// enters the modelled cache. Returns `false` if the set overflows — a
    /// capacity abort.
    #[inline]
    pub fn insert_written_line(&mut self, line: Line) -> bool {
        let set = (line & self.sets_mask) as usize;
        let occ = &mut self.occupancy[set];
        if *occ == self.ways {
            return false;
        }
        if *occ == 0 {
            self.touched.push(set as u32);
        }
        *occ += 1;
        self.live += 1;
        true
    }

    /// Forget all occupancy (transaction ended).
    pub fn reset(&mut self) {
        for &s in &self.touched {
            self.occupancy[s as usize] = 0;
        }
        self.touched.clear();
        self.live = 0;
    }

    /// Number of lines currently tracked.
    pub fn written_lines(&self) -> usize {
        self.live as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_within_ways() {
        let mut l1 = L1Model::new(4, 2);
        // Lines 0,4,8 all map to set 0 with 4 sets.
        assert!(l1.insert_written_line(0));
        assert!(l1.insert_written_line(4));
        assert!(
            !l1.insert_written_line(8),
            "third line in a 2-way set must evict"
        );
    }

    #[test]
    fn distinct_sets_independent() {
        let mut l1 = L1Model::new(4, 1);
        assert!(l1.insert_written_line(0));
        assert!(l1.insert_written_line(1));
        assert!(l1.insert_written_line(2));
        assert!(l1.insert_written_line(3));
        assert!(!l1.insert_written_line(4)); // set 0 full again
        assert_eq!(l1.written_lines(), 4);
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut l1 = L1Model::new(4, 1);
        assert!(l1.insert_written_line(0));
        assert!(!l1.insert_written_line(4));
        l1.reset();
        assert!(l1.insert_written_line(4));
        assert_eq!(l1.written_lines(), 1);
    }

    #[test]
    fn haswell_geometry_holds_full_l1() {
        let mut l1 = L1Model::new(64, 8);
        for line in 0..512u32 {
            assert!(l1.insert_written_line(line), "line {line} should fit");
        }
        assert!(!l1.insert_written_line(512));
    }
}
