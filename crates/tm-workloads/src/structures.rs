//! Shared-memory data structures programmed against [`TxCtx`], used by the
//! STAMP-profile kernels: an open-addressing hash map and a bounded queue.
//!
//! Layout conventions: every slot is one cache line apart where contention matters;
//! keys are offset by one so 0 can mean "empty". Values are 63-bit (Part-HTM-O's
//! embedded lock bit).

use htm_sim::abort::TxResult;
use htm_sim::Addr;
use part_htm_core::{TmRuntime, TxCtx};

/// A fixed-capacity open-addressing (linear probing) hash map in the simulated
/// heap. No deletion (STAMP's kernels only insert and look up during the measured
/// phase). Slot layout: `[key+1, value]` pairs, one pair per cache line to keep
/// collision probes from false-sharing.
#[derive(Clone, Copy, Debug)]
pub struct HeapHashMap {
    base: Addr,
    /// Power-of-two slot count.
    slots: u32,
}

/// Where [`HeapHashMap::probe`] found a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// The key is present: the address of its value word.
    Present(Addr),
    /// The key is absent: the key word of the empty slot an insert claims
    /// (the value word follows it).
    Vacant(Addr),
    /// The key is absent and every slot is taken.
    Full,
}

impl HeapHashMap {
    /// Words of heap needed for `slots` slots (line-aligned pairs).
    pub fn words_needed(slots: usize) -> usize {
        assert!(slots.is_power_of_two());
        slots * 8
    }

    /// Wrap a heap region previously sized with [`HeapHashMap::words_needed`].
    /// `base` must be the runtime app address of the region start.
    pub fn new(base: Addr, slots: usize) -> Self {
        assert!(slots.is_power_of_two());
        Self {
            base,
            slots: slots as u32,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> u32 {
        self.slots
    }

    #[inline]
    fn slot_addr(&self, slot: u32) -> Addr {
        self.base + slot * 8
    }

    #[inline]
    fn hash(&self, key: u64) -> u32 {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as u32 & (self.slots - 1)
    }

    /// Find `key`'s slot: walk the probe chain from the key's hash, reading
    /// one key word per slot, until the key or an empty slot turns up. The
    /// one lookup every other operation is built on.
    pub fn probe<C: TxCtx>(&self, ctx: &mut C, key: u64) -> TxResult<Slot> {
        let mut slot = self.hash(key);
        for _probe in 0..self.slots {
            let a = self.slot_addr(slot);
            let k = ctx.read(a)?;
            if k == 0 {
                return Ok(Slot::Vacant(a));
            }
            if k == key + 1 {
                return Ok(Slot::Present(a + 1));
            }
            slot = (slot + 1) & (self.slots - 1);
        }
        Ok(Slot::Full)
    }

    /// The value in a probed slot (`None` unless the key is present).
    #[inline]
    fn load<C: TxCtx>(&self, ctx: &mut C, slot: Slot) -> TxResult<Option<u64>> {
        match slot {
            Slot::Present(v) => ctx.read(v).map(Some),
            Slot::Vacant(_) | Slot::Full => Ok(None),
        }
    }

    /// Store `value` for `key` into the slot a probe of `key` returned:
    /// overwrite a present value in place, or claim the empty slot (key word,
    /// then value word). Panics on a full table — size tables generously.
    #[inline]
    fn store<C: TxCtx>(&self, ctx: &mut C, slot: Slot, key: u64, value: u64) -> TxResult<()> {
        match slot {
            Slot::Present(v) => ctx.write(v, value),
            Slot::Vacant(a) => {
                ctx.write(a, key + 1)?;
                ctx.write(a + 1, value)
            }
            Slot::Full => unreachable!("HeapHashMap full: size tables above peak occupancy"),
        }
    }

    /// Transactionally insert `key -> value`. Returns the previous value if the key
    /// was present, or `None` for a fresh insert.
    pub fn insert<C: TxCtx>(&self, ctx: &mut C, key: u64, value: u64) -> TxResult<Option<u64>> {
        let slot = self.probe(ctx, key)?;
        let old = self.load(ctx, slot)?;
        self.store(ctx, slot, key, value)?;
        Ok(old)
    }

    /// Transactional lookup.
    pub fn get<C: TxCtx>(&self, ctx: &mut C, key: u64) -> TxResult<Option<u64>> {
        let slot = self.probe(ctx, key)?;
        self.load(ctx, slot)
    }

    /// Transactional read-modify-write of the value for `key`, inserting
    /// `default` first if absent. Returns the value written.
    pub fn update<C: TxCtx>(
        &self,
        ctx: &mut C,
        key: u64,
        default: u64,
        f: impl FnOnce(u64) -> u64,
    ) -> TxResult<u64> {
        let slot = self.probe(ctx, key)?;
        let v = f(self.load(ctx, slot)?.unwrap_or(default));
        self.store(ctx, slot, key, v)?;
        Ok(v)
    }

    /// Non-transactional occupancy count (verification only).
    pub fn occupancy_nt(&self, rt: &TmRuntime) -> usize {
        (0..self.slots)
            .filter(|&s| rt.system().nt_read(self.slot_addr(s)) != 0)
            .count()
    }
}

/// Move `amount` from the balance of `from` to that of `to` (each a map and a
/// key; an absent key's balance is 0) if `from`'s balance covers it, and say
/// whether it moved. Each key is probed once: `from`'s balance is read,
/// checked and written back in its slot, then `to` is updated, so a transfer
/// between two present keys with no collisions costs 6 accesses. Absent keys
/// are inserted as an update would insert them: with `amount == 0`, `from`
/// too, at 0.
pub fn transfer<C: TxCtx>(
    ctx: &mut C,
    (mf, from): (&HeapHashMap, u64),
    (mt, to): (&HeapHashMap, u64),
    amount: u64,
) -> TxResult<bool> {
    let slot = mf.probe(ctx, from)?;
    let bal = mf.load(ctx, slot)?.unwrap_or(0);
    if bal < amount {
        return Ok(false);
    }
    mf.store(ctx, slot, from, bal - amount)?;
    mt.update(ctx, to, 0, |v| v + amount)?;
    Ok(true)
}

/// A bounded multi-producer multi-consumer queue in the simulated heap, protected by
/// the enclosing transaction (no internal synchronisation — the TM provides it).
/// Layout: `[head, tail]` on one line, then `capacity` slots one line apart.
#[derive(Clone, Copy, Debug)]
pub struct HeapQueue {
    base: Addr,
    capacity: u32,
}

impl HeapQueue {
    /// Words needed for a queue of `capacity` slots (power of two).
    pub fn words_needed(capacity: usize) -> usize {
        assert!(capacity.is_power_of_two());
        8 + capacity * 8
    }

    /// Wrap a heap region previously sized with [`HeapQueue::words_needed`].
    pub fn new(base: Addr, capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        Self {
            base,
            capacity: capacity as u32,
        }
    }

    #[inline]
    fn head_addr(&self) -> Addr {
        self.base
    }

    #[inline]
    fn tail_addr(&self) -> Addr {
        self.base + 1
    }

    #[inline]
    fn slot_addr(&self, i: u64) -> Addr {
        self.base + 8 + (i as u32 & (self.capacity - 1)) * 8
    }

    /// Transactionally enqueue; returns false if full.
    pub fn push<C: TxCtx>(&self, ctx: &mut C, value: u64) -> TxResult<bool> {
        let head = ctx.read(self.head_addr())?;
        let tail = ctx.read(self.tail_addr())?;
        if tail - head >= u64::from(self.capacity) {
            return Ok(false);
        }
        ctx.write(self.slot_addr(tail), value)?;
        ctx.write(self.tail_addr(), tail + 1)?;
        Ok(true)
    }

    /// Transactionally dequeue; returns `None` if empty.
    pub fn pop<C: TxCtx>(&self, ctx: &mut C) -> TxResult<Option<u64>> {
        let head = ctx.read(self.head_addr())?;
        let tail = ctx.read(self.tail_addr())?;
        if head == tail {
            return Ok(None);
        }
        let v = ctx.read(self.slot_addr(head))?;
        ctx.write(self.head_addr(), head + 1)?;
        Ok(Some(v))
    }

    /// Transactional length.
    pub fn len<C: TxCtx>(&self, ctx: &mut C) -> TxResult<u64> {
        Ok(ctx.read(self.tail_addr())? - ctx.read(self.head_addr())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use part_htm_core::ctx::SlowCtx;
    use part_htm_core::TmThread;

    fn direct_ctx_test(words: usize, f: impl FnOnce(&TmRuntime, &mut SlowCtx<'_, '_>)) {
        let rt = TmRuntime::with_defaults(1, words);
        let th = TmThread::new(&rt, 0);
        let mut ctx = SlowCtx {
            th: &th.hw,
            mask_values: false,
        };
        f(&rt, &mut ctx);
    }

    #[test]
    fn hashmap_insert_get_update() {
        direct_ctx_test(HeapHashMap::words_needed(64), |rt, ctx| {
            let m = HeapHashMap::new(rt.app(0), 64);
            assert_eq!(m.get(ctx, 42).unwrap(), None);
            assert_eq!(m.insert(ctx, 42, 7).unwrap(), None);
            assert_eq!(m.get(ctx, 42).unwrap(), Some(7));
            assert_eq!(m.insert(ctx, 42, 8).unwrap(), Some(7));
            assert_eq!(m.update(ctx, 42, 0, |v| v + 1).unwrap(), 9);
            assert_eq!(m.update(ctx, 99, 100, |v| v + 1).unwrap(), 101);
            assert_eq!(m.occupancy_nt(rt), 2);
        });
    }

    #[test]
    fn hashmap_handles_collisions() {
        direct_ctx_test(HeapHashMap::words_needed(16), |rt, ctx| {
            let m = HeapHashMap::new(rt.app(0), 16);
            // Fill half the table; every key must remain retrievable.
            for k in 0..8u64 {
                m.insert(ctx, k * 1000, k).unwrap();
            }
            for k in 0..8u64 {
                assert_eq!(m.get(ctx, k * 1000).unwrap(), Some(k), "key {k}");
            }
            assert_eq!(m.get(ctx, 5).unwrap(), None);
        });
    }

    /// One access of a [`Recorder`].
    #[derive(Debug, PartialEq, Eq)]
    enum Access {
        R(Addr),
        W(Addr, u64),
    }

    /// A context over a plain word map that logs every access.
    #[derive(Default)]
    struct Recorder {
        mem: std::collections::HashMap<Addr, u64>,
        log: Vec<Access>,
    }

    impl TxCtx for Recorder {
        fn read(&mut self, addr: Addr) -> TxResult<u64> {
            self.log.push(Access::R(addr));
            Ok(self.mem.get(&addr).copied().unwrap_or(0))
        }
        fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
            self.log.push(Access::W(addr, val));
            self.mem.insert(addr, val);
            Ok(())
        }
        fn work(&mut self, _units: u64) -> TxResult<()> {
            Ok(())
        }
    }

    /// The accesses `op` makes on `ctx`, and its result.
    fn logged<T>(ctx: &mut Recorder, op: impl FnOnce(&mut Recorder) -> T) -> (T, Vec<Access>) {
        ctx.log.clear();
        let out = op(ctx);
        (out, std::mem::take(&mut ctx.log))
    }

    /// `get`, `insert` and `update` make exactly the accesses they made
    /// before they shared `probe`: one key read per chain slot, then the
    /// value word (read, written or both), or the claimed slot's key and value
    /// words.
    #[test]
    fn hashmap_access_sequences_are_pinned() {
        use Access::{R, W};
        let m = HeapHashMap::new(0, 4);
        // Four keys whose home is the last slot: their chain wraps around.
        let keys: Vec<u64> = (0..).filter(|&k| m.hash(k) == 3).take(4).collect();
        let (a, b, c, d) = (keys[0], keys[1], keys[2], keys[3]);
        let [s0, s1, s2, s3] = [3u32, 0, 1, 2].map(|s| s * 8);
        let ctx = &mut Recorder::default();
        assert_eq!(logged(ctx, |x| m.get(x, a).unwrap()), (None, vec![R(s0)]));
        assert_eq!(
            logged(ctx, |x| m.insert(x, a, 10).unwrap()),
            (None, vec![R(s0), W(s0, a + 1), W(s0 + 1, 10)])
        );
        assert_eq!(
            logged(ctx, |x| m.insert(x, b, 20).unwrap()),
            (None, vec![R(s0), R(s1), W(s1, b + 1), W(s1 + 1, 20)])
        );
        assert_eq!(
            logged(ctx, |x| m.get(x, b).unwrap()),
            (Some(20), vec![R(s0), R(s1), R(s1 + 1)])
        );
        assert_eq!(
            logged(ctx, |x| m.insert(x, a, 11).unwrap()),
            (Some(10), vec![R(s0), R(s0 + 1), W(s0 + 1, 11)])
        );
        assert_eq!(
            logged(ctx, |x| m.update(x, b, 0, |v| v + 1).unwrap()),
            (21, vec![R(s0), R(s1), R(s1 + 1), W(s1 + 1, 21)])
        );
        assert_eq!(
            logged(ctx, |x| m.update(x, c, 5, |v| v * 2).unwrap()),
            (10, vec![R(s0), R(s1), R(s2), W(s2, c + 1), W(s2 + 1, 10)])
        );
        assert_eq!(
            logged(ctx, |x| m.get(x, d).unwrap()),
            (None, vec![R(s0), R(s1), R(s2), R(s3)])
        );
    }

    /// The single-probe transfer reads `from`'s slot once and writes its
    /// balance in place; an absent source in a full table moves nothing.
    #[test]
    fn transfer_probes_each_key_once() {
        use Access::{R, W};
        let (mf, mt) = (HeapHashMap::new(0, 2), HeapHashMap::new(16, 2));
        let ctx = &mut Recorder::default();
        mf.insert(ctx, 1, 50).unwrap();
        mt.insert(ctx, 2, 0).unwrap();
        let (f, t) = (mf.hash(1) * 8, 16 + mt.hash(2) * 8);
        assert_eq!(
            logged(ctx, |x| transfer(x, (&mf, 1), (&mt, 2), 20).unwrap()),
            (
                true,
                vec![R(f), R(f + 1), W(f + 1, 30), R(t), R(t + 1), W(t + 1, 20)]
            )
        );
        assert_eq!(
            logged(ctx, |x| transfer(x, (&mf, 1), (&mt, 2), 31).unwrap()),
            (false, vec![R(f), R(f + 1)])
        );
        mf.insert(ctx, 3, 0).unwrap();
        assert_eq!(mf.probe(ctx, 4).unwrap(), Slot::Full);
        let (moved, log) = logged(ctx, |x| transfer(x, (&mf, 4), (&mt, 2), 1).unwrap());
        assert!(!moved);
        assert!(log.iter().all(|a| matches!(a, R(_))), "{log:?}");
    }

    #[test]
    fn queue_fifo_and_bounds() {
        direct_ctx_test(HeapQueue::words_needed(4), |rt, ctx| {
            let q = HeapQueue::new(rt.app(0), 4);
            assert_eq!(q.pop(ctx).unwrap(), None);
            for i in 0..4 {
                assert!(q.push(ctx, i).unwrap());
            }
            assert!(!q.push(ctx, 99).unwrap(), "queue must report full");
            assert_eq!(q.len(ctx).unwrap(), 4);
            for i in 0..4 {
                assert_eq!(q.pop(ctx).unwrap(), Some(i));
            }
            assert_eq!(q.pop(ctx).unwrap(), None);
            // Wrap-around works.
            assert!(q.push(ctx, 123).unwrap());
            assert_eq!(q.pop(ctx).unwrap(), Some(123));
        });
    }
}
