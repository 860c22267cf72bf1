//! Capacity models: which best-effort HTM the simulator is, as data.
//!
//! `htm-sim` historically hardcoded one TSX-like geometry (set-associative
//! written-line L1, flat read budget). The paper's claim — Part-HTM salvages
//! transactions that exceed *best-effort* resource limits — is a statement
//! about a whole family of HTMs, so the capacity envelope is selectable by
//! [`BackendKind`]. The three envelopes differ only in numbers, collected in
//! one [`CapacityModel`] by [`BackendKind::model`]:
//!
//! * [`BackendKind::Tsx`] — the default TSX/Haswell model. Its geometry comes
//!   from the [`HtmConfig`] `l1_*` / `read_lines_max` fields, so it
//!   is per-experiment.
//! * [`BackendKind::Power`] — an IBM POWER8-style model: a flat 64-entry
//!   write set and a 128-line read set ("Stretching the capacity of HTM in
//!   IBM POWER architectures", PAPERS.md). Only the geometry is modelled;
//!   POWER's suspended regions and rollback-only transactions are not.
//! * [`BackendKind::Limited`] — a FORTH-style limited read/write-set HTM
//!   ("Limited Read/Write-Set HTM without modifying the ISA"): very small
//!   hardware set budgets, but overflowing lines *spill* to a
//!   software-managed structure instead of aborting, each spill costing extra
//!   work units, until a per-transaction spill budget runs out.
//!
//! One policy (`TxCap::on_read_line`, `TxCap::on_write_line`) serves all
//! three: a line that fits the hardware model fits; otherwise it spills while
//! spill budget remains; otherwise it overflows. TSX and POWER are the
//! `spill_budget == 0` case.
//!
//! ## What a capacity model may and may not change
//!
//! A model owns **capacity accounting only**. Conflict detection (the line
//! table), write buffering, doom checking and commit publication are shared
//! machinery and identical across models — that is what keeps every backend
//! serializable by construction (see `docs/backends.md`): a spilled line
//! stays registered in the conflict table even though it no
//! longer counts against the hardware budget, so requester-wins dooming and
//! the atomic commit publish are unaffected.

use crate::cache::L1Model;
use crate::config::HtmConfig;
use crate::heap::Line;

/// Which capacity model an [`HtmConfig`] selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// TSX/Haswell model: set-associative write L1, large flat read budget.
    Tsx,
    /// POWER8 model: flat 64-entry write set, 128-line read set.
    Power,
    /// FORTH limited-set model: tiny sets with software-managed overflow.
    Limited,
}

impl BackendKind {
    /// Short stable name (CLI flags, JSON, docs tables).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Tsx => "tsx",
            BackendKind::Power => "power",
            BackendKind::Limited => "limited",
        }
    }

    /// Parse a CLI operand (`tsx|power|limited`).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The capacity model. `cfg` parameterizes the TSX model (its geometry
    /// lives in [`HtmConfig`]); POWER and limited-set geometries are fixed
    /// properties of the modelled hardware.
    pub fn model(self, cfg: &HtmConfig) -> CapacityModel {
        match self {
            BackendKind::Tsx => CapacityModel {
                kind: self,
                write_sets: cfg.l1_sets,
                write_ways: cfg.l1_ways,
                read_lines_max: cfg.read_lines_max,
                spill_budget: 0,
                spill_charge: 0,
            },
            BackendKind::Power => CapacityModel {
                kind: self,
                write_sets: 1,
                write_ways: POWER_WRITE_LINES,
                read_lines_max: POWER_READ_LINES,
                spill_budget: 0,
                spill_charge: 0,
            },
            BackendKind::Limited => CapacityModel {
                kind: self,
                write_sets: LIMITED_WRITE_SETS,
                write_ways: LIMITED_WRITE_WAYS,
                read_lines_max: LIMITED_READ_LINES,
                spill_budget: LIMITED_SPILL_BUDGET,
                spill_charge: LIMITED_SPILL_CHARGE,
            },
        }
    }

    /// All backends, for conformance sweeps.
    pub const ALL: [BackendKind; 3] = [BackendKind::Tsx, BackendKind::Power, BackendKind::Limited];
}

/// POWER8 write-set entries: the TM store queue holds 64 cache lines,
/// flat (no set conflicts).
pub const POWER_WRITE_LINES: usize = 64;
/// POWER8 read-set budget in lines (~8 KB of read tracking).
pub const POWER_READ_LINES: usize = 128;

/// Limited-set hardware write budget: 4 sets x 4 ways = 16 lines.
pub const LIMITED_WRITE_SETS: usize = 4;
/// Ways of the limited-set write model.
pub const LIMITED_WRITE_WAYS: usize = 4;
/// Limited-set flat hardware read budget.
pub const LIMITED_READ_LINES: usize = 64;
/// Lines one transaction may overflow into the software structure.
pub const LIMITED_SPILL_BUDGET: usize = 256;
/// Work units the software overflow handler costs per spilled line.
pub const LIMITED_SPILL_CHARGE: u64 = 8;

/// The published resource geometry of one backend: everything a TM protocol
/// (or the segment planner) needs to plan against the hardware, and
/// everything the simulator's one capacity policy reads.
#[derive(Clone, Debug)]
pub struct CapacityModel {
    /// Which backend this is (its display name is [`BackendKind::name`]).
    pub kind: BackendKind,
    /// Sets of the written-line model (1 = flat buffer).
    pub write_sets: usize,
    /// Ways of the written-line model.
    pub write_ways: usize,
    /// Flat budget of distinct read lines.
    pub read_lines_max: usize,
    /// Lines one transaction may spill to software tracking (0 = overflow
    /// aborts immediately, as on TSX and POWER).
    pub spill_budget: usize,
    /// Work units the software overflow handler costs per spilled line.
    pub spill_charge: u64,
}

impl CapacityModel {
    /// Upper bound of distinct written lines (uniform set distribution).
    pub fn write_lines_max(&self) -> usize {
        self.write_sets * self.write_ways
    }
}

/// Outcome of charging a new line against the capacity model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapOutcome {
    /// The line fits the hardware budget.
    Fits,
    /// The line overflowed hardware but was spilled to software tracking;
    /// the transaction must charge `charge` extra work units (the overflow
    /// handler) and carries on.
    Spilled {
        /// Work units of the software spill handler.
        charge: u64,
    },
    /// The line does not fit: abort with [`crate::AbortCode::Capacity`].
    Overflow,
}

/// Per-transaction capacity state, owned by [`crate::HtmThread`] and shaped
/// by its machine's [`CapacityModel`]. Reset and reused across transactions.
pub struct TxCap {
    /// Written-line occupancy model.
    l1: L1Model,
    /// Distinct lines whose *first* access was a read.
    read_lines: usize,
    /// Lines spilled by this transaction (reads + writes).
    spilled_lines: u64,
}

impl TxCap {
    pub(crate) fn new(m: &CapacityModel) -> Self {
        Self {
            l1: L1Model::new(m.write_sets, m.write_ways),
            read_lines: 0,
            spilled_lines: 0,
        }
    }

    /// Forget all per-transaction state (transaction ended).
    pub(crate) fn reset(&mut self) {
        self.l1.reset();
        self.read_lines = 0;
        self.spilled_lines = 0;
    }

    /// Distinct lines whose first access was a read (spilled ones included).
    pub fn read_lines(&self) -> usize {
        self.read_lines
    }

    /// Distinct lines currently charged to the hardware write model.
    pub fn write_lines(&self) -> usize {
        self.l1.written_lines()
    }

    /// Lines spilled to software tracking by the current transaction.
    pub fn spilled_lines(&self) -> u64 {
        self.spilled_lines
    }

    /// A transaction registered a **new** read line: count it against the
    /// flat budget.
    #[inline]
    pub(crate) fn on_read_line(&mut self, m: &CapacityModel) -> CapOutcome {
        self.read_lines += 1;
        if self.read_lines <= m.read_lines_max {
            return CapOutcome::Fits;
        }
        self.spill(m)
    }

    /// A transaction registered a **new** written line (or upgraded a read
    /// line to written).
    #[inline]
    pub(crate) fn on_write_line(&mut self, m: &CapacityModel, line: Line) -> CapOutcome {
        if self.l1.insert_written_line(line) {
            return CapOutcome::Fits;
        }
        self.spill(m)
    }

    /// The line did not fit the hardware: move it to software tracking while
    /// spill budget remains, else overflow.
    #[cold]
    fn spill(&mut self, m: &CapacityModel) -> CapOutcome {
        if self.spilled_lines >= m.spill_budget as u64 {
            return CapOutcome::Overflow;
        }
        self.spilled_lines += 1;
        CapOutcome::Spilled {
            charge: m.spill_charge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(BackendKind::parse("sparc"), None);
    }

    #[test]
    fn default_config_is_tsx() {
        let cfg = HtmConfig::default();
        assert_eq!(cfg.backend, BackendKind::Tsx);
        let m = cfg.backend.model(&cfg);
        assert_eq!(m.kind, BackendKind::Tsx);
        assert_eq!((m.write_sets, m.write_ways), (cfg.l1_sets, cfg.l1_ways));
        assert_eq!(m.read_lines_max, cfg.read_lines_max);
    }

    #[test]
    fn tsx_mirrors_config() {
        let cfg = HtmConfig::default();
        let m = BackendKind::Tsx.model(&cfg);
        assert_eq!(m.write_lines_max(), cfg.l1_lines());
        assert_eq!(m.read_lines_max, cfg.read_lines_max);
        assert_eq!(m.spill_budget, 0);
    }

    #[test]
    fn power_geometry() {
        let m = BackendKind::Power.model(&HtmConfig::default());
        assert_eq!(m.write_lines_max(), POWER_WRITE_LINES);
        assert_eq!(m.read_lines_max, POWER_READ_LINES);
        assert_eq!(m.spill_budget, 0);
    }

    #[test]
    fn limited_spills_then_overflows() {
        let m = BackendKind::Limited.model(&HtmConfig::default());
        let mut cap = TxCap::new(&m);
        // Fill the hardware write budget: all Fits.
        let mut line = 0u32;
        for _ in 0..m.write_lines_max() {
            assert_eq!(cap.on_write_line(&m, line), CapOutcome::Fits);
            line += 1;
        }
        // The next `spill_budget` lines spill at the handler charge.
        let spilled = CapOutcome::Spilled {
            charge: m.spill_charge,
        };
        for _ in 0..m.spill_budget {
            assert_eq!(cap.on_write_line(&m, line), spilled);
            line += 1;
        }
        assert_eq!(cap.spilled_lines(), m.spill_budget as u64);
        // Budget dry: overflow.
        assert_eq!(cap.on_write_line(&m, line), CapOutcome::Overflow);
        // Reset restores the spill budget: an overflowing line spills again.
        cap.reset();
        assert_eq!(cap.spilled_lines(), 0);
        for l in 0..m.write_lines_max() as u32 {
            assert_eq!(cap.on_write_line(&m, l), CapOutcome::Fits);
        }
        assert_eq!(cap.on_write_line(&m, line), spilled);
    }

    #[test]
    fn limited_read_spills_past_the_flat_budget() {
        let m = BackendKind::Limited.model(&HtmConfig::default());
        let mut cap = TxCap::new(&m);
        for _ in 0..m.read_lines_max {
            assert_eq!(cap.on_read_line(&m), CapOutcome::Fits);
        }
        assert_eq!(
            cap.on_read_line(&m),
            CapOutcome::Spilled {
                charge: m.spill_charge
            }
        );
        assert_eq!(cap.read_lines(), m.read_lines_max + 1, "spills count");
    }
}
