//! Stretch-HTM: capacity **stretching** instead of capacity **splitting**.
//!
//! Part-HTM rescues resource-limited transactions by *partitioning* them into
//! sub-HTM transactions glued together with software metadata (§5.3). On
//! hardware with suspended regions (the POWER8-style
//! [`htm_sim::BackendKind::Power`] backend), there is a second strategy: keep
//! the transaction **whole** and stretch the resources around it —
//!
//! * **Read-set stretching**: once the hardware read budget is nearly full,
//!   further reads go through [`htm_sim::HtmTx::read_stretched`]
//!   (`tsuspend.` → software-logged load → `tresume.`): the line is still
//!   conflict-tracked (serializability is preserved by construction) but no
//!   longer charges the read budget. The price is the suspend round-trip per
//!   stretched access.
//! * **Time stretching**: computation the programmer declared
//!   non-transactional ([`crate::TxCtx::nt_work`]) runs inside a suspended
//!   region ([`htm_sim::HtmTx::suspended_work`]), where neither the timer
//!   quantum nor injected interrupts abort the transaction — the same escape
//!   Part-HTM's software segments provide, without leaving the transaction.
//!
//! Writes are **not** stretchable: suspended stores are non-transactional on
//! POWER, so the write set stays bounded by the backend's budget (64 entries
//! on the Power model). A write-heavy overflow still aborts with
//! [`htm_sim::AbortCode::Capacity`] and falls back to the global lock — which
//! is exactly the trade-off `microbench`'s `rescue` rows (the
//! splitting-vs-stretching ablation) measure (`docs/backends.md`).
//!
//! On backends without suspended regions
//! ([`htm_sim::CapacityModel::supports_suspend`] false: TSX and the
//! limited-set model), the ctx degrades to plain
//! transactional accesses and the executor behaves exactly like the HTM-GL
//! baseline — attempts, then the lock.

use crate::api::{spin_work, CommitPath, TmExecutor, TxCtx, Workload};
use crate::exec::{commit_under_glock, hw_attempt, run_all, wait_glock_released, FAST_RETRIES};
use crate::runtime::{TmRuntime, TmThread};
use htm_sim::abort::TxResult;
use htm_sim::{Addr, HtmTx};

/// Keep this many read-budget entries in reserve for protocol reads (the
/// glock subscription) before stretching kicks in.
const READ_RESERVE: usize = 8;

/// Minimum declared non-transactional work worth a suspend round-trip:
/// smaller bursts stay transactional (the suspend overhead would dominate).
pub const SUSPEND_WORK_MIN: u64 = 4;

/// The stretching transaction context: transparently re-routes reads past
/// the hardware budget through suspended loads and bulky non-transactional
/// work through suspended regions. Workload code is unchanged — the ctx *is*
/// the instrumentation, per the repo's [`TxCtx`] convention.
pub struct StretchCtx<'c, 'a, 's> {
    /// The enclosing hardware transaction.
    pub tx: &'c mut HtmTx<'a, 's>,
    /// Stretch reads once `tx.read_lines()` reaches this many lines;
    /// `usize::MAX` (no suspend support) disables stretching entirely.
    pub stretch_at: usize,
    /// Suspend declared non-transactional work of at least
    /// [`SUSPEND_WORK_MIN`] units; false when the backend cannot suspend.
    pub suspend_work: bool,
}

impl TxCtx for StretchCtx<'_, '_, '_> {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if self.tx.read_lines() >= self.stretch_at {
            self.tx.read_stretched(addr)
        } else {
            self.tx.read(addr)
        }
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        self.tx.write(addr, val)
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        self.tx.work(units)?;
        spin_work(units);
        Ok(())
    }

    #[inline]
    fn nt_work(&mut self, units: u64) -> TxResult<()> {
        if self.suspend_work && units >= SUSPEND_WORK_MIN {
            self.tx.suspend();
            self.tx.suspended_work(units);
            spin_work(units);
            return self.tx.resume();
        }
        self.work(units)
    }
}

/// The Stretch-HTM executor: whole-transaction hardware attempts with
/// suspend/resume resource stretching, global lock as the only fallback.
pub struct StretchHtm<'r> {
    th: TmThread<'r>,
    /// Read-line threshold past which reads stretch (`usize::MAX` = never).
    stretch_at: usize,
    /// Backend supports suspended regions at all.
    can_suspend: bool,
}

impl<'r> TmExecutor<'r> for StretchHtm<'r> {
    const NAME: &'static str = "Stretch-HTM";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        let m = rt.system().capacity_model();
        let can_suspend = m.supports_suspend;
        // Stretch once the hardware read budget (minus a protocol reserve)
        // is consumed; without suspend support the threshold is unreachable
        // and the ctx degrades to plain transactional reads.
        let stretch_at = if can_suspend {
            m.read_lines_max.saturating_sub(READ_RESERVE).max(1)
        } else {
            usize::MAX
        };
        Self {
            th: TmThread::new(rt, thread_id),
            stretch_at,
            can_suspend,
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        let (stretch_at, suspend_work) = (self.stretch_at, self.can_suspend);
        if !w.is_irrevocable() {
            for _ in 0..FAST_RETRIES {
                wait_glock_released(&self.th);
                let attempt = hw_attempt(&mut self.th, w, false, |tx, w| {
                    let mut ctx = StretchCtx {
                        tx,
                        stretch_at,
                        suspend_work,
                    };
                    run_all(w, &mut ctx)
                });
                match attempt {
                    Ok(()) => {
                        w.after_commit();
                        self.th.stats.record_commit(CommitPath::Htm);
                        return CommitPath::Htm;
                    }
                    // With stretching there is no partitioned rescue: a
                    // resource failure that stretching could not absorb (a
                    // write-set overflow, or no suspend support) goes to the
                    // lock immediately, like HTM-GL's no-retry-hint policy.
                    Err(code) if code.is_resource_failure() => break,
                    Err(_) => {}
                }
            }
        }
        self.th.stats.fallbacks_gl += 1;
        commit_under_glock(&mut self.th, w, false)
    }

    fn thread(&self) -> &TmThread<'r> {
        &self.th
    }

    fn thread_mut(&mut self) -> &mut TmThread<'r> {
        &mut self.th
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::TmConfig;
    use htm_sim::{BackendKind, HtmConfig};
    use rand::rngs::SmallRng;

    /// Read `reads` counters, increment the first `writes` of them, burn
    /// `nt_units` of declared non-transactional work.
    struct ReadHeavy {
        reads: usize,
        writes: usize,
        nt_units: u64,
        base: Addr,
    }

    impl Workload for ReadHeavy {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
            let mut sum = 0u64;
            for i in 0..self.reads {
                sum = sum.wrapping_add(ctx.read(self.base + (i * 8) as Addr)?);
            }
            if self.nt_units > 0 {
                ctx.nt_work(self.nt_units)?;
            }
            for i in 0..self.writes {
                let a = self.base + (i * 8) as Addr;
                let v = ctx.read(a)?;
                ctx.write(a, v + 1)?;
            }
            std::hint::black_box(sum);
            Ok(())
        }
    }

    fn power_rt(threads: usize, app_words: usize) -> TmRuntime {
        TmRuntime::new(
            HtmConfig {
                backend: BackendKind::Power,
                ..HtmConfig::default()
            },
            TmConfig::default(),
            threads,
            app_words,
        )
    }

    #[test]
    fn over_budget_reads_commit_in_hardware_by_stretching() {
        // Power read budget: 128 lines. 180 read lines would be a certain
        // capacity abort without stretching.
        let rt = power_rt(1, 180 * 8);
        let mut e = StretchHtm::new(&rt, 0);
        let mut w = ReadHeavy {
            reads: 180,
            writes: 4,
            nt_units: 0,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::Htm);
        for i in 0..4 {
            assert_eq!(rt.verify_read(i * 8), 1);
        }
        assert!(
            e.thread().hw.stretch.stretched_reads > 0,
            "the read budget must have been stretched"
        );
    }

    #[test]
    fn quantum_heavy_nt_work_commits_by_suspending() {
        // Quantum 2000; 10_000 declared-non-transactional units would be a
        // certain timer abort in a plain hardware transaction.
        let rt = TmRuntime::new(
            HtmConfig {
                backend: BackendKind::Power,
                quantum: 2000,
                ..HtmConfig::default()
            },
            TmConfig::default(),
            1,
            256,
        );
        let mut e = StretchHtm::new(&rt, 0);
        let mut w = ReadHeavy {
            reads: 4,
            writes: 2,
            nt_units: 10_000,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::Htm);
        assert_eq!(e.thread().hw.stats.aborts_timer, 0);
        assert!(e.thread().hw.stretch.suspended_work >= 10_000);
    }

    #[test]
    fn write_overflow_still_falls_to_global_lock() {
        // 96 written lines exceed Power's 64-entry write set; writes cannot
        // stretch, so the lock must rescue the transaction.
        let rt = power_rt(1, 96 * 8);
        let mut e = StretchHtm::new(&rt, 0);
        let mut w = ReadHeavy {
            reads: 0,
            writes: 96,
            nt_units: 0,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
        for i in 0..96 {
            assert_eq!(rt.verify_read(i * 8), 1);
        }
        assert_eq!(rt.system().nt_read(rt.glock()), 0, "lock released");
    }

    #[test]
    fn degrades_to_htm_gl_without_suspend_support() {
        // TSX backend: no suspended regions — the executor must still be
        // correct (plain attempts, then the lock).
        let rt = TmRuntime::new(
            HtmConfig {
                backend: BackendKind::Tsx,
                ..HtmConfig::default()
            },
            TmConfig::default(),
            1,
            256,
        );
        let mut e = StretchHtm::new(&rt, 0);
        let mut w = ReadHeavy {
            reads: 8,
            writes: 4,
            nt_units: 100,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::Htm);
        assert_eq!(e.thread().hw.stretch.suspends, 0);
        assert_eq!(e.thread().hw.stretch.stretched_reads, 0);
    }

    #[test]
    fn concurrent_stretched_increments_are_serializable() {
        // 4 threads read 150 shared lines (past the read budget, so every
        // transaction stretches) and increment the first 32 (within the
        // 64-entry write set) — sums must be exact: stretched lines stay
        // conflict-tracked.
        let rt = power_rt(4, 150 * 8);
        const TXS: usize = 15;
        std::thread::scope(|s| {
            for t in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    let mut e = StretchHtm::new(rt, t);
                    let mut w = ReadHeavy {
                        reads: 150,
                        writes: 32,
                        nt_units: 0,
                        base: rt.app(0),
                    };
                    for _ in 0..TXS {
                        e.execute(&mut w);
                    }
                });
            }
        });
        for i in 0..32 {
            assert_eq!(rt.verify_read(i * 8), (4 * TXS) as u64, "counter {i}");
        }
        assert_eq!(rt.system().nt_read(rt.glock()), 0);
        assert_eq!(rt.system().nt_read(rt.active_tx()), 0);
        assert_eq!(rt.system().live_line_entries(), 0);
    }
}
