//! Geometry and policy knobs of the simulated best-effort HTM.

use crate::backend::BackendKind;

/// Configuration of the simulated hardware.
///
/// The defaults model the Intel Haswell parts used in the paper's evaluation
/// (L1d = 32 KB, 8-way, 64-byte lines), with a read-set budget reflecting TSX's
/// L2-assisted read tracking, and a work-unit quantum standing in for the OS
/// scheduler's timer interrupt.
#[derive(Clone, Debug)]
pub struct HtmConfig {
    /// Number of sets in the simulated L1 data cache. Written lines map to a set by
    /// `line % l1_sets`.
    pub l1_sets: usize,
    /// Associativity of the simulated L1. Writing a `l1_ways + 1`-th distinct line
    /// into one set aborts with [`crate::AbortCode::Capacity`] (a written line would
    /// be evicted).
    pub l1_ways: usize,
    /// Maximum number of distinct lines a transaction may *read*. TSX can track read
    /// lines beyond L1 (the paper, §2: "read operations can go beyond the L1 cache
    /// capacity by exploiting the L2 cache"), so this is larger than the write budget.
    pub read_lines_max: usize,
    /// Virtual work units of the simulated timer quantum: the timer fires once
    /// cumulative work *reaches* the quantum (consuming exactly `quantum` units
    /// aborts with [`crate::AbortCode::Timer`]). Each transactional read/write
    /// costs 1 unit; [`crate::HtmTx::work`] charges its argument.
    pub quantum: u64,
    /// Probability, per transactional operation, of a randomly injected asynchronous
    /// interrupt ([`crate::AbortCode::Interrupt`]). Models page faults, device
    /// interrupts, etc. Default 0 (deterministic). Under a [`crate::vclock::VClock`]
    /// the draw comes from the clock's seeded per-core RNG, so injected interrupts
    /// replay bit-exactly with the schedule.
    pub interrupt_prob: f64,
    /// Maximum number of hardware threads. Bounded by
    /// [`crate::registry::MAX_THREADS`] (56) because each conflict-table line packs
    /// its reader bitmap and writer byte into a single atomic word.
    pub max_threads: usize,
    /// Events retained per thread by the debugging trace (see [`crate::trace`]);
    /// 0 (the default) disables tracing entirely.
    pub trace_capacity: usize,
    /// Capacity model (see [`crate::backend`]). `Tsx` (the default) takes its
    /// geometry from the `l1_*`/`read_lines_max` fields above; `Power`
    /// and `Limited` select the alternative capacity models, whose fixed
    /// geometries override those fields.
    pub backend: BackendKind,
}

impl Default for HtmConfig {
    fn default() -> Self {
        Self {
            l1_sets: 64,
            l1_ways: 8,
            read_lines_max: 4096,
            quantum: 50_000,
            interrupt_prob: 0.0,
            max_threads: crate::registry::MAX_THREADS,
            trace_capacity: 0,
            backend: BackendKind::Tsx,
        }
    }
}

impl HtmConfig {
    /// Total number of lines that fit in the simulated L1 (the write-set capacity
    /// upper bound, reached only by a perfectly uniform set distribution).
    pub fn l1_lines(&self) -> usize {
        self.l1_sets * self.l1_ways
    }

    /// A tiny geometry useful in tests: 4 sets x 2 ways (8 written lines max),
    /// 16 read lines, quantum 1000.
    pub fn tiny() -> Self {
        Self {
            l1_sets: 4,
            l1_ways: 2,
            read_lines_max: 16,
            quantum: 1000,
            interrupt_prob: 0.0,
            max_threads: 8,
            trace_capacity: 0,
            backend: BackendKind::Tsx,
        }
    }

    /// Validate invariants; panics with a descriptive message on misconfiguration.
    pub fn validate(&self) {
        assert!(
            self.l1_sets.is_power_of_two(),
            "l1_sets must be a power of two"
        );
        assert!(self.l1_ways >= 1, "l1_ways must be >= 1");
        assert!(
            self.max_threads >= 1 && self.max_threads <= crate::registry::MAX_THREADS,
            "max_threads must be in 1..={} (packed line-table reader bitmap)",
            crate::registry::MAX_THREADS
        );
        assert!(
            (0.0..=1.0).contains(&self.interrupt_prob),
            "interrupt_prob must be a probability"
        );
        assert!(self.quantum > 0, "quantum must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_haswell_l1() {
        let c = HtmConfig::default();
        c.validate();
        // 512 lines x 64 B = 32 KB, the Haswell L1d.
        assert_eq!(c.l1_lines() * 64, 32 * 1024);
    }

    #[test]
    fn tiny_is_valid() {
        HtmConfig::tiny().validate();
    }

    #[test]
    #[should_panic(expected = "l1_sets")]
    fn rejects_non_pow2_sets() {
        let c = HtmConfig {
            l1_sets: 3,
            ..HtmConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "max_threads")]
    fn rejects_too_many_threads() {
        let c = HtmConfig {
            max_threads: crate::registry::MAX_THREADS + 1,
            ..HtmConfig::default()
        };
        c.validate();
    }
}
