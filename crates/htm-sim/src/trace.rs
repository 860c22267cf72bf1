//! Per-thread event tracing for debugging TM protocols built on the simulator.
//!
//! When enabled ([`crate::HtmConfig::trace_capacity`] > 0), every hardware thread
//! records its transactional lifecycle events into a bounded ring buffer:
//! begins, commits (with footprint) and aborts (with cause). Protocol bugs that
//! are invisible in aggregate statistics — e.g. a retry loop burning its quantum,
//! or a path repeatedly dying of capacity — show up immediately in the event
//! stream.
//!
//! Tracing is thread-local (no synchronisation on the hot path beyond what the
//! simulator already does) and bounded (old events are overwritten), so it can stay
//! enabled for whole experiments.

use crate::abort::AbortCode;
use crate::registry::{DoomCause, Requester};
use std::collections::VecDeque;

/// One traced event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// `_xbegin` executed.
    Begin,
    /// `_xend` succeeded with the given footprint.
    Commit {
        /// Distinct lines whose first access was a read.
        read_lines: usize,
        /// Distinct written lines.
        write_lines: usize,
        /// Work units consumed.
        work: u64,
    },
    /// The transaction aborted.
    Abort {
        /// Why.
        code: AbortCode,
        /// Work units consumed before the abort.
        work: u64,
        /// For a conflict abort: the access that doomed the transaction (the
        /// line, the requester, the kind of access). `None` for every other
        /// abort code.
        cause: Option<DoomCause>,
        /// The aborting core's virtual time, when it runs under a
        /// [`crate::vclock`] — a cell's abort table is then byte-reproducible.
        at: Option<u64>,
    },
}

/// Bounded per-thread event ring.
#[derive(Debug, Default)]
pub struct Trace {
    events: VecDeque<Event>,
    capacity: usize,
    /// Total events ever recorded (including overwritten ones).
    recorded: u64,
}

impl Trace {
    /// A trace keeping the most recent `capacity` events (0 disables tracing).
    pub fn new(capacity: usize) -> Self {
        Self { events: VecDeque::with_capacity(capacity.min(1 << 16)), capacity, recorded: 0 }
    }

    /// True when tracing is disabled.
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    #[inline]
    pub(crate) fn record(&mut self, ev: Event) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(ev);
        self.recorded += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded, including those already overwritten.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Drop all retained events (the total count is kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Render the retained events, one per line — a debugging aid.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            match ev {
                Event::Begin => out.push_str("begin\n"),
                Event::Commit { read_lines, write_lines, work } => out.push_str(&format!(
                    "commit  r={read_lines} w={write_lines} work={work}\n"
                )),
                Event::Abort { code, work, cause, at } => {
                    out.push_str(&format!("abort   {code} work={work}"));
                    if let Some(t) = at {
                        out.push_str(&format!(" t={t}"));
                    }
                    if let Some(c) = cause {
                        let by = match c.by {
                            Requester::Thread(t) => format!("thread {t}"),
                            Requester::External => "external".to_string(),
                        };
                        out.push_str(&format!(" line={} by={by} {}", c.line, c.kind));
                    }
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::AccessKind;

    fn abort(code: AbortCode, work: u64) -> Event {
        Event::Abort { code, work, cause: None, at: None }
    }

    #[test]
    fn bounded_ring_overwrites_oldest() {
        let mut t = Trace::new(2);
        t.record(Event::Begin);
        t.record(abort(AbortCode::Conflict, 1));
        t.record(Event::Begin);
        assert_eq!(t.len(), 2);
        assert_eq!(t.recorded(), 3);
        let evs: Vec<_> = t.events().cloned().collect();
        assert_eq!(evs[0], abort(AbortCode::Conflict, 1));
        assert_eq!(evs[1], Event::Begin);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(0);
        t.record(Event::Begin);
        assert!(t.is_empty());
        assert!(t.is_disabled());
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn render_is_line_per_event() {
        let mut t = Trace::new(8);
        t.record(Event::Begin);
        t.record(Event::Commit { read_lines: 2, write_lines: 1, work: 5 });
        t.record(abort(AbortCode::Capacity, 7));
        t.record(Event::Abort {
            code: AbortCode::Conflict,
            work: 9,
            cause: Some(DoomCause {
                line: 40,
                by: Requester::Thread(2),
                kind: AccessKind::TxWrite,
            }),
            at: Some(6547),
        });
        let s = t.render();
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("commit  r=2 w=1 work=5"));
        assert!(s.contains("abort   capacity work=7\n"));
        assert!(s.contains("abort   conflict work=9 t=6547 line=40 by=thread 2 tx-write"));
    }
}
