//! NOrec (Dalessandro, Spear, Scott — PPoPP'10): an STM with a single global
//! sequence lock and **value-based validation**.
//!
//! No per-location metadata ("no ownership records"): a transaction snapshots the
//! global sequence number, logs `(address, value)` for every read, buffers writes in
//! a redo log, and re-validates its read log by value whenever the sequence number
//! moves. Writers commit by CAS-ing the sequence number odd, writing back, and
//! bumping it even. The paper uses NOrec as the state-of-the-art low-overhead STM
//! competitor; its weakness — O(reads) revalidation on every concurrent commit —
//! shows in the large read-set workloads (Fig. 3(b)).

use htm_sim::abort::TxResult;
use htm_sim::{AbortCode, Addr};
use part_htm_core::api::spin_work;
use part_htm_core::{CommitPath, TmExecutor, TmRuntime, TmThread, TxCtx, Workload};

use crate::redo::RedoLog;

/// Wait until the sequence lock is even (no writer committing) and return it.
pub(crate) fn wait_even(th: &TmThread<'_>, seqlock: Addr) -> u64 {
    loop {
        let ts = th.hw.nt_read(seqlock);
        if ts & 1 == 0 {
            return ts;
        }
        htm_sim::vclock::yield_now();
    }
}

/// Value-based validation: wait for a quiescent (even) sequence number, check every
/// logged read still has its logged value, and confirm the sequence number did not
/// move meanwhile. Returns the new snapshot, or `Err` if a value changed.
pub(crate) fn validate(th: &TmThread<'_>, seqlock: Addr, reads: &[(Addr, u64)]) -> Result<u64, ()> {
    loop {
        let ts = wait_even(th, seqlock);
        if reads.iter().any(|&(a, v)| th.hw.nt_read(a) != v) {
            return Err(());
        }
        if th.hw.nt_read(seqlock) == ts {
            return Ok(ts);
        }
    }
}

/// NOrec's transactional context.
struct NorecCtx<'c, 'r> {
    th: &'c TmThread<'r>,
    seqlock: Addr,
    snapshot: &'c mut u64,
    reads: &'c mut Vec<(Addr, u64)>,
    redo: &'c mut RedoLog,
}

impl TxCtx for NorecCtx<'_, '_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        spin_work(crate::STM_READ_COST);
        if let Some(v) = self.redo.get(addr) {
            return Ok(v);
        }
        let mut v = self.th.hw.nt_read(addr);
        // If the sequence number moved, revalidate the whole read log by value and
        // re-read (the NOrec read loop).
        while *self.snapshot != self.th.hw.nt_read(self.seqlock) {
            match validate(self.th, self.seqlock, self.reads) {
                Ok(ts) => *self.snapshot = ts,
                Err(()) => return Err(AbortCode::Conflict),
            }
            v = self.th.hw.nt_read(addr);
        }
        self.reads.push((addr, v));
        Ok(v)
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        spin_work(crate::STM_WRITE_COST);
        self.redo.insert(addr, val);
        Ok(())
    }

    fn work(&mut self, units: u64) -> TxResult<()> {
        spin_work(units);
        Ok(())
    }

    fn nt_work(&mut self, units: u64) -> TxResult<()> {
        spin_work(units);
        Ok(())
    }
}

/// The NOrec executor. NOrecRH ([`crate::NOrecRh`]) runs on it, swapping in
/// its reduced hardware commit for the software writer commit.
pub struct NOrec<'r> {
    pub(crate) th: TmThread<'r>,
    pub(crate) reads: Vec<(Addr, u64)>,
    pub(crate) redo: RedoLog,
}

/// A writer commit: publish the redo log of a speculative run that read
/// consistently at `snapshot`, or `Err` when revalidation fails.
pub(crate) type WriterCommit<'r> = fn(&mut NOrec<'r>, u64) -> Result<(), ()>;

impl<'r> NOrec<'r> {
    /// The speculative run: snapshot the sequence lock, execute every segment
    /// against the value log and the redo log. `Ok(None)` is a read-only
    /// transaction, already committed (it never touches the sequence lock);
    /// `Ok(Some(snapshot))` leaves the redo log to a writer commit.
    fn speculate<W: Workload>(&mut self, w: &mut W) -> Result<Option<u64>, ()> {
        let seqlock = self.th.rt.seqlock();
        w.reset();
        self.reads.clear();
        self.redo.clear();
        let mut snapshot = wait_even(&self.th, seqlock);
        let mut ctx = NorecCtx {
            th: &self.th,
            seqlock,
            snapshot: &mut snapshot,
            reads: &mut self.reads,
            redo: &mut self.redo,
        };
        for seg in 0..w.segments() {
            if w.software_segment(seg) {
                // Non-transactional code (STAMP's unmonitored blocks): plain
                // loads, no instrumentation — same treatment every runtime
                // gives it.
                let mut sctx = part_htm_core::ctx::SoftwareCtx {
                    th: &ctx.th.hw,
                    mask_values: false,
                };
                w.segment(seg, &mut sctx)
                    .expect("software segments cannot abort");
                continue;
            }
            if w.segment(seg, &mut ctx).is_err() {
                return Err(());
            }
        }
        Ok((!self.redo.is_empty()).then_some(snapshot))
    }

    /// The software writer commit: acquire the sequence lock (odd), write
    /// back, release (even).
    pub(crate) fn commit_writes(&mut self, mut snapshot: u64) -> Result<(), ()> {
        let seqlock = self.th.rt.seqlock();
        while self.th.hw.nt_cas(seqlock, snapshot, snapshot + 1).is_err() {
            snapshot = validate(&self.th, seqlock, &self.reads)?;
        }
        for (a, v) in self.redo.iter() {
            self.th.hw.nt_write(a, v);
        }
        self.th.hw.nt_write(seqlock, snapshot + 2);
        Ok(())
    }

    /// Irrevocable transactions run *inevitably*: acquire the sequence lock for the
    /// whole execution, blocking every concurrent commit and validation.
    fn run_inevitable<W: Workload>(&mut self, w: &mut W) {
        let seqlock = self.th.rt.seqlock();
        loop {
            let ts = wait_even(&self.th, seqlock);
            if self.th.hw.nt_cas(seqlock, ts, ts + 1).is_ok() {
                w.reset();
                let mut ctx = part_htm_core::ctx::SlowCtx {
                    th: &self.th.hw,
                    mask_values: false,
                };
                for seg in 0..w.segments() {
                    w.segment(seg, &mut ctx)
                        .expect("direct execution cannot abort");
                }
                self.th.hw.nt_write(seqlock, ts + 2);
                return;
            }
        }
    }

    /// One speculative run of `w`, a writer's published by `commit`.
    fn try_once<W: Workload>(&mut self, w: &mut W, commit: WriterCommit<'r>) -> Result<(), ()> {
        match self.speculate(w)? {
            Some(snapshot) => commit(self, snapshot),
            None => Ok(()),
        }
    }

    /// Commit `w` in software: inevitably if it is irrevocable, else by
    /// speculative runs until one commits. `commit` publishes a writer's
    /// redo log: [`NOrec::commit_writes`], or NOrecRH's reduced hardware
    /// commit.
    pub(crate) fn execute_with<W: Workload>(
        &mut self,
        w: &mut W,
        commit: WriterCommit<'r>,
    ) -> CommitPath {
        if w.is_irrevocable() {
            self.run_inevitable(w);
        } else {
            while self.try_once(w, commit).is_err() {
                htm_sim::vclock::yield_now();
            }
        }
        w.after_commit();
        self.th.stats.record_commit(CommitPath::Stm);
        CommitPath::Stm
    }
}

impl<'r> TmExecutor<'r> for NOrec<'r> {
    const NAME: &'static str = "NOrec";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self {
            th: TmThread::new(rt, thread_id),
            reads: Vec::new(),
            redo: RedoLog::default(),
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.execute_with(w, Self::commit_writes)
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
    use rand::rngs::SmallRng;

    struct Transfer {
        from: Addr,
        to: Addr,
        amount: u64,
    }

    impl Workload for Transfer {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
            let f = ctx.read(self.from)?;
            let t = ctx.read(self.to)?;
            ctx.write(self.from, f.wrapping_sub(self.amount))?;
            ctx.write(self.to, t.wrapping_add(self.amount))
        }
    }

    #[test]
    fn single_thread_commit() {
        let rt = TmRuntime::with_defaults(1, 64);
        rt.setup_write(0, 100);
        let mut e = NOrec::new(&rt, 0);
        let mut w = Transfer {
            from: rt.app(0),
            to: rt.app(8),
            amount: 30,
        };
        assert_eq!(e.execute(&mut w), CommitPath::Stm);
        assert_eq!(rt.verify_read(0), 70);
        assert_eq!(rt.verify_read(8), 30);
        // Sequence lock bumped by exactly one writer commit.
        assert_eq!(rt.system().nt_read(rt.seqlock()), 2);
    }

    #[test]
    fn read_only_does_not_bump_seqlock() {
        let rt = TmRuntime::with_defaults(1, 64);
        struct Ro(Addr);
        impl Workload for Ro {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
                ctx.read(self.0).map(|_| ())
            }
        }
        let mut e = NOrec::new(&rt, 0);
        e.execute(&mut Ro(rt.app(0)));
        assert_eq!(rt.system().nt_read(rt.seqlock()), 0);
    }

    #[test]
    fn conserved_sum_under_contention() {
        let rt = TmRuntime::with_defaults(4, 256);
        const ACCOUNTS: usize = 8;
        for i in 0..ACCOUNTS {
            rt.setup_write(i * 8, 1000);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    let mut e = NOrec::new(rt, t);
                    for i in 0..100usize {
                        let from = (i + t) % ACCOUNTS;
                        let to = (i + t * 3 + 1) % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        let mut w = Transfer {
                            from: rt.app(from * 8),
                            to: rt.app(to * 8),
                            amount: 7,
                        };
                        e.execute(&mut w);
                    }
                });
            }
        });
        let total: u64 = (0..ACCOUNTS).map(|i| rt.verify_read(i * 8)).sum();
        assert_eq!(total, 8000, "transfers must conserve the total");
    }

    #[test]
    fn irrevocable_runs_inevitably() {
        let rt = TmRuntime::with_defaults(1, 64);
        struct Irrev(Addr);
        impl Workload for Irrev {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn is_irrevocable(&self) -> bool {
                true
            }
            fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
                let v = ctx.read(self.0)?;
                ctx.write(self.0, v + 1)
            }
        }
        let mut e = NOrec::new(&rt, 0);
        assert_eq!(e.execute(&mut Irrev(rt.app(0))), CommitPath::Stm);
        assert_eq!(rt.verify_read(0), 1);
        assert_eq!(rt.system().nt_read(rt.seqlock()) & 1, 0, "seqlock released");
    }
}
