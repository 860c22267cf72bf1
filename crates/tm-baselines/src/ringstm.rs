//! RingSTM (Spear, Michael, von Praun — SPAA'08): signatures + a global ring.
//!
//! Reads and writes are summarised in Bloom-filter signatures; committed writers
//! append their write signature to a global ring ordered by commit timestamp, and
//! in-flight transactions validate their read signature against every ring entry
//! newer than their start time. Part-HTM reuses exactly this validation machinery
//! for its partitioned path, so — as in the paper's evaluation — both protocols here
//! share the same ring size and signature geometry.
//!
//! This is the single-writer-commit variant: writers serialise on the ring lock for
//! {validate, publish signature, write back}.

use htm_sim::abort::TxResult;
use htm_sim::{AbortCode, Addr};
use part_htm_core::api::spin_work;
use part_htm_core::{CommitPath, TmExecutor, TmRuntime, TmThread, TxCtx, Workload};
use tm_sig::{Ring, Sig};

use crate::redo::RedoLog;

/// The newest ring timestamp whose commit is *settled* — its write-back done —
/// given a just-read timestamp `ts`. A writer bumps the timestamp before it
/// writes its values back, both under the ring lock, so while the lock is held
/// entry `ts` may still be in flight: a reader that moved its start time past
/// it could then read the entry's old values and never validate against it
/// again. Read after `ts`, a free lock proves the writer of `ts` finished.
fn settled(th: &TmThread<'_>, ring: &Ring, ts: u64) -> u64 {
    if th.hw.nt_read(ring.lock_addr()) != 0 {
        ts.saturating_sub(1)
    } else {
        ts
    }
}

struct RingCtx<'c, 'r> {
    th: &'c TmThread<'r>,
    ring: &'c Ring,
    start: &'c mut u64,
    rsig: &'c mut Sig,
    wsig: &'c mut Sig,
    redo: &'c mut RedoLog,
}

impl TxCtx for RingCtx<'_, '_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        spin_work(crate::STM_READ_COST);
        if let Some(v) = self.redo.get(addr) {
            return Ok(v);
        }
        let v = self.th.hw.nt_read(addr);
        self.rsig.add(addr);
        // Poll the ring: validate against commits newer than our start time.
        if self.ring.timestamp_nt(&self.th.hw) != *self.start {
            match self.ring.validate_nt(&self.th.hw, self.rsig, *self.start) {
                Ok(ts) => *self.start = settled(self.th, self.ring, ts),
                Err(_) => return Err(AbortCode::Conflict),
            }
        }
        Ok(v)
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        spin_work(crate::STM_WRITE_COST);
        self.wsig.add(addr);
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

/// The RingSTM executor.
pub struct RingStm<'r> {
    th: TmThread<'r>,
    rsig: Sig,
    wsig: Sig,
    redo: RedoLog,
}

impl<'r> RingStm<'r> {
    fn try_once<W: Workload>(&mut self, w: &mut W) -> Result<(), ()> {
        let ring = self.th.rt.ring();
        w.reset();
        self.rsig.clear();
        self.wsig.clear();
        self.redo.clear();
        let mut start = settled(&self.th, ring, ring.timestamp_nt(&self.th.hw));

        {
            let mut ctx = RingCtx {
                th: &self.th,
                ring,
                start: &mut start,
                rsig: &mut self.rsig,
                wsig: &mut self.wsig,
                redo: &mut self.redo,
            };
            for seg in 0..w.segments() {
                if w.segment(seg, &mut ctx).is_err() {
                    return Err(());
                }
            }
        }

        if self.redo.is_empty() {
            // Read-only: every read was validated on arrival; the transaction
            // serialises at its last validation point.
            return Ok(());
        }
        // Writer commit under the ring lock: final validation, then publish the
        // write signature *before* writing values back, so a concurrent reader that
        // observes a new value necessarily sees a timestamp that makes it validate
        // against our signature.
        while self.th.hw.nt_cas(ring.lock_addr(), 0, 1).is_err() {
            htm_sim::vclock::yield_now();
        }
        let ok = match ring.validate_nt(&self.th.hw, &self.rsig, start) {
            Ok(_) => {
                let ts = self.th.hw.nt_read(ring.timestamp_addr()) + 1;
                ring.write_entry_nt(&self.th.hw, ts, &self.wsig);
                self.th.hw.nt_write(ring.timestamp_addr(), ts);
                for (a, v) in self.redo.iter() {
                    self.th.hw.nt_write(a, v);
                }
                true
            }
            Err(_) => false,
        };
        self.th.hw.nt_write(ring.lock_addr(), 0);
        if ok {
            Ok(())
        } else {
            Err(())
        }
    }
}

impl<'r> TmExecutor<'r> for RingStm<'r> {
    const NAME: &'static str = "RingSTM";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        let spec = rt.config().sig_spec;
        Self {
            th: TmThread::new(rt, thread_id),
            rsig: Sig::new(spec),
            wsig: Sig::new(spec),
            redo: RedoLog::default(),
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        if w.is_irrevocable() {
            // Irrevocable transactions take the ring lock *first*: with every writer
            // commit excluded, their reads are stable (no validation can fail, so
            // they can never be asked to abort). Writes stay redo-buffered and are
            // published exactly like a normal writer commit — signature and
            // timestamp before write-back — so concurrent readers validate against
            // them as usual.
            let ring = self.th.rt.ring();
            while self.th.hw.nt_cas(ring.lock_addr(), 0, 1).is_err() {
                htm_sim::vclock::yield_now();
            }
            w.reset();
            self.rsig.clear();
            self.wsig.clear();
            self.redo.clear();
            let mut start = ring.timestamp_nt(&self.th.hw);
            {
                let mut ctx = RingCtx {
                    th: &self.th,
                    ring,
                    start: &mut start,
                    rsig: &mut self.rsig,
                    wsig: &mut self.wsig,
                    redo: &mut self.redo,
                };
                for seg in 0..w.segments() {
                    w.segment(seg, &mut ctx)
                        .expect("irrevocable execution cannot abort");
                }
            }
            if !self.redo.is_empty() {
                let ts = self.th.hw.nt_read(ring.timestamp_addr()) + 1;
                ring.write_entry_nt(&self.th.hw, ts, &self.wsig);
                self.th.hw.nt_write(ring.timestamp_addr(), ts);
                for (a, v) in self.redo.iter() {
                    self.th.hw.nt_write(a, v);
                }
            }
            self.th.hw.nt_write(ring.lock_addr(), 0);
            w.after_commit();
            self.th.stats.record_commit(CommitPath::Stm);
            return CommitPath::Stm;
        }
        loop {
            if self.try_once(w).is_ok() {
                w.after_commit();
                self.th.stats.record_commit(CommitPath::Stm);
                return CommitPath::Stm;
            }
            htm_sim::vclock::yield_now();
        }
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
    }

    impl Workload for Transfer {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
            let f = ctx.read(self.from)?;
            let t = ctx.read(self.to)?;
            ctx.write(self.from, f.wrapping_sub(1))?;
            ctx.write(self.to, t.wrapping_add(1))
        }
    }

    #[test]
    fn single_thread_commit_publishes_to_ring() {
        let rt = TmRuntime::with_defaults(1, 64);
        rt.setup_write(0, 10);
        let mut e = RingStm::new(&rt, 0);
        let mut w = Transfer {
            from: rt.app(0),
            to: rt.app(8),
        };
        assert_eq!(e.execute(&mut w), CommitPath::Stm);
        assert_eq!(rt.verify_read(0), 9);
        assert_eq!(rt.verify_read(8), 1);
        let th = TmThread::new(&rt, 0);
        assert_eq!(rt.ring().timestamp_nt(&th.hw), 1);
        assert!(rt.ring().entry(1).snapshot_nt(&th.hw).contains(rt.app(0)));
    }

    #[test]
    fn reader_revalidates_past_an_entry_whose_write_back_is_in_flight() {
        // A writer's commit, performed by hand: lock, publish {b}, bump the
        // timestamp — and stop before writing b back.
        let rt = TmRuntime::with_defaults(2, 64);
        let ring = rt.ring();
        let (reader, writer) = (TmThread::new(&rt, 0), TmThread::new(&rt, 1));
        let (a, b) = (rt.app(0), rt.app(8));
        let spec = rt.config().sig_spec;
        let (mut rsig, mut wsig, mut redo) = (Sig::new(spec), Sig::new(spec), RedoLog::default());
        let mut start = ring.timestamp_nt(&reader.hw);
        let mut ctx = RingCtx {
            th: &reader,
            ring,
            start: &mut start,
            rsig: &mut rsig,
            wsig: &mut wsig,
            redo: &mut redo,
        };
        assert!(writer.hw.nt_cas(ring.lock_addr(), 0, 1).is_ok());
        let mut published = Sig::new(spec);
        published.add(b);
        let ts = ring.timestamp_nt(&writer.hw) + 1;
        ring.write_entry_nt(&writer.hw, ts, &published);
        writer.hw.nt_write(ring.timestamp_addr(), ts);
        // The reader validates against the new entry (which misses `a`)...
        assert_eq!(ctx.read(a), Ok(0));
        // ...then reads b's old value: that read must not go unvalidated.
        let stale = ctx.read(b);
        writer.hw.nt_write(b, 1);
        writer.hw.nt_write(ring.lock_addr(), 0);
        assert_eq!(stale, Err(AbortCode::Conflict), "stale read of b survived");
    }

    #[test]
    fn conserved_sum_under_contention() {
        let rt = TmRuntime::with_defaults(4, 256);
        const ACCOUNTS: usize = 8;
        for i in 0..ACCOUNTS {
            rt.setup_write(i * 8, 100);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    let mut e = RingStm::new(rt, t);
                    for i in 0..80usize {
                        let from = (i + t) % ACCOUNTS;
                        let to = (i * 5 + t + 1) % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        let mut w = Transfer {
                            from: rt.app(from * 8),
                            to: rt.app(to * 8),
                        };
                        e.execute(&mut w);
                    }
                });
            }
        });
        let total: u64 = (0..ACCOUNTS).map(|i| rt.verify_read(i * 8)).sum();
        assert_eq!(total, 800);
        assert_eq!(
            rt.system().nt_read(rt.ring().lock_addr()),
            0,
            "ring lock released"
        );
    }
}
