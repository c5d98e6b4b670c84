//! Per-run trace buffer with out-of-lock append and an online schedule
//! fingerprint.
//!
//! Historically every ECT event was appended while holding the global
//! scheduler lock, so trace recording inflated the scheduler's critical
//! sections. Under the single-token discipline that lock is unnecessary
//! for ordering: only the current token holder emits user events, and
//! every handoff releases the token *after* the holder's emissions, so
//! appends from successive holders are already totally ordered. The
//! [`TraceBuf`] exploits this — the token holder appends directly,
//! drawing the dense sequence number from an atomic counter, and the
//! scheduler lock shrinks to scheduler state only.
//!
//! While appending, the buffer also folds each event's
//! `(goroutine, kind, CU)` triple into an FNV-1a *schedule fingerprint*.
//! Two runs with equal fingerprints executed the same interleaving of
//! the same operations, so the campaign runner can memoize per-schedule
//! analysis results (see `goat-core`). Timestamps and sequence numbers
//! are excluded: they are functions of the interleaving and would only
//! slow the fold down.

use crate::event::{Event, EventKind, Gid, VTime};
use crate::recycle;
use goat_model::Cu;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// FNV-1a 64-bit offset basis: the empty-schedule fingerprint.
pub const FP_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FP_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold one word into an FNV-1a accumulator.
#[inline]
fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FP_PRIME)
}

/// A compact, collision-resistant word for the event kind: the low bits
/// are a per-variant code, the payload (resource ids, flags, counts) is
/// packed above so that e.g. sends on different channels fingerprint
/// differently. Variant payloads that merely restate the interleaving
/// (goroutine names, log text) are omitted.
fn fp_kind(kind: &EventKind) -> u64 {
    match kind {
        EventKind::ProcStart => 1,
        EventKind::ProcStop => 2,
        EventKind::Gomaxprocs { n } => 3 | (u64::from(*n) << 8),
        EventKind::GcStart => 4,
        EventKind::GcDone => 5,
        EventKind::GcStwStart => 6,
        EventKind::GcStwDone => 7,
        EventKind::GcSweepStart => 8,
        EventKind::GcSweepDone => 9,
        EventKind::HeapAlloc { bytes } => 10 ^ (bytes << 8),
        EventKind::GoCreate { new_g, internal, .. } => {
            11 | (u64::from(*internal) << 8) | (new_g.0 << 9)
        }
        EventKind::GoStart => 12,
        EventKind::GoEnd => 13,
        EventKind::GoStop => 14,
        EventKind::GoSched { trace_stop } => 15 | (u64::from(*trace_stop) << 8),
        EventKind::GoPreempt => 16,
        EventKind::GoSleep => 17,
        EventKind::GoBlock { reason, holder, .. } => {
            18 | ((*reason as u64) << 8) | holder.map_or(0, |g| (g.0 + 1) << 16)
        }
        EventKind::GoUnblock { g } => 19 | (g.0 << 8),
        EventKind::GoWaiting => 20,
        EventKind::GoBlockNet => 21,
        EventKind::GoInSyscall => 22,
        EventKind::GoSysCall => 23,
        EventKind::GoSysExit => 24,
        EventKind::GoSysBlock => 25,
        EventKind::UserLog { .. } => 26,
        EventKind::UserTaskCreate => 27,
        EventKind::UserTaskEnd => 28,
        EventKind::UserRegion => 29,
        EventKind::FutileWakeup => 30,
        EventKind::TimerFire { timer } => 31 | (timer.0 << 8),
        EventKind::ChMake { ch, cap } => 32 | (ch.0 << 8) ^ ((*cap as u64) << 32),
        EventKind::ChSend { ch } => 33 | (ch.0 << 8),
        EventKind::ChRecv { ch, closed } => 34 | (u64::from(*closed) << 8) | (ch.0 << 9),
        EventKind::ChClose { ch } => 35 | (ch.0 << 8),
        EventKind::SelectBegin { cases, has_default } => {
            36 | (u64::from(*has_default) << 8) | ((cases.len() as u64) << 9)
        }
        EventKind::SelectEnd { chosen, flavor, ch } => {
            37 | ((*flavor as u64) << 8) ^ ((*chosen as u64) << 16) ^ ch.map_or(0, |c| c.0 << 40)
        }
        EventKind::MuLock { mu } => 38 | (mu.0 << 8),
        EventKind::MuUnlock { mu } => 39 | (mu.0 << 8),
        EventKind::RwRLock { mu } => 40 | (mu.0 << 8),
        EventKind::RwRUnlock { mu } => 41 | (mu.0 << 8),
        EventKind::WgAdd { wg, delta, count } => {
            42 | (wg.0 << 8) ^ ((*delta as u64) << 24) ^ ((*count as u64) << 44)
        }
        EventKind::WgDone { wg, count } => 43 | (wg.0 << 8) ^ ((*count as u64) << 24),
        EventKind::WgWait { wg } => 44 | (wg.0 << 8),
        EventKind::CondWait { cv } => 45 | (cv.0 << 8),
        EventKind::CondSignal { cv } => 46 | (cv.0 << 8),
        EventKind::CondBroadcast { cv } => 47 | (cv.0 << 8),
    }
}

/// Fold one event into the accumulator. The CU is identified by its
/// interned file pointer (canonical per distinct path, the same identity
/// `goat-core`'s analysis plane relies on) plus line and kind — stable
/// for the lifetime of the process, which is exactly the lifetime of a
/// memo table.
#[inline]
fn fold_event(h: u64, g: Gid, kind: &EventKind, cu: &Option<Cu>) -> u64 {
    let h = fold(h, g.0);
    let h = fold(h, fp_kind(kind));
    match cu {
        None => fold(h, 0),
        Some(c) => {
            let h = fold(h, c.file.as_str().as_ptr() as u64);
            fold(h, 0x8000_0000_0000_0000 | (u64::from(c.line) << 8) | (c.kind as u64))
        }
    }
}

/// Fingerprint an already collected event sequence — the offline twin
/// of the online fold, used to fingerprint deserialized or replayed
/// traces and to cross-check the online accumulator in tests.
pub fn schedule_fingerprint<'a, I: IntoIterator<Item = &'a Event>>(events: I) -> u64 {
    events.into_iter().fold(FP_SEED, |h, ev| fold_event(h, ev.g, &ev.kind, &ev.cu))
}

/// Interior state: the event vector and the derived flags that must
/// change atomically with it.
struct TraceState {
    events: Vec<Event>,
    /// Online schedule fingerprint over the recorded prefix.
    fp: u64,
    /// The event cap was reached; further pushes are dropped (and no
    /// longer folded, so the fingerprint describes exactly the ECT that
    /// analysis will see).
    full: bool,
    /// The buffer was collected; late pushes (teardown stragglers) are
    /// dropped.
    closed: bool,
}

/// One run's trace sink: lock-free with respect to the scheduler lock.
///
/// Thread safety relies on the runtime's token discipline only for
/// *ordering*; the buffer itself is internally synchronized (a private
/// mutex never held across any other lock acquisition), so stray late
/// appends can never corrupt it.
pub struct TraceBuf {
    enabled: bool,
    max_events: usize,
    /// Virtual clock mirror, published by the scheduler's tick so
    /// appends can timestamp events without the scheduler lock.
    clock: AtomicU64,
    /// Dense total-order sequence counter.
    seq: AtomicU64,
    st: Mutex<TraceState>,
}

impl TraceBuf {
    /// A buffer for one run. When tracing is enabled the event vector is
    /// checked out of the process-wide recycle pool.
    pub fn new(enabled: bool, max_events: usize) -> TraceBuf {
        let events = if enabled { recycle::take_buffer() } else { Vec::new() };
        TraceBuf {
            enabled,
            max_events,
            clock: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            st: Mutex::new(TraceState { events, fp: FP_SEED, full: false, closed: false }),
        }
    }

    /// Poison-tolerant lock: a panicking goroutine must not make
    /// the trace (the evidence!) unreadable.
    fn lock(&self) -> std::sync::MutexGuard<'_, TraceState> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish the scheduler's virtual clock (called from `tick`).
    pub fn set_clock(&self, ns: u64) {
        self.clock.store(ns, Ordering::Release);
    }

    /// The current virtual clock, nanoseconds.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Append one event, stamping it with the next dense sequence number
    /// and the current virtual time. No-op when tracing is disabled,
    /// the event cap was reached, or the buffer was already collected.
    pub fn push(&self, g: Gid, kind: EventKind, cu: Option<Cu>) {
        if !self.enabled {
            return;
        }
        let mut st = self.lock();
        if st.closed || st.full {
            return;
        }
        if st.events.len() >= self.max_events {
            st.full = true;
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        debug_assert_eq!(seq as usize, st.events.len(), "seq counter tracks the event vector");
        st.fp = fold_event(st.fp, g, &kind, &cu);
        let ts = VTime(self.clock.load(Ordering::Acquire));
        st.events.push(Event { seq, ts, g, kind, cu });
    }

    /// Collect the run's events and fingerprint, closing the buffer.
    /// Returns `(None, fp)` when tracing was disabled.
    pub fn take(&self) -> (Option<Vec<Event>>, u64) {
        let mut st = self.lock();
        st.closed = true;
        let fp = st.fp;
        if self.enabled {
            (Some(std::mem::take(&mut st.events)), fp)
        } else {
            (None, fp)
        }
    }
}

impl std::fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("TraceBuf")
            .field("enabled", &self.enabled)
            .field("len", &st.events.len())
            .field("full", &st.full)
            .field("closed", &st.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RId;

    #[test]
    fn online_fingerprint_matches_offline() {
        let tb = TraceBuf::new(true, 100);
        tb.push(Gid::MAIN, EventKind::GoStart, None);
        tb.set_clock(10);
        tb.push(Gid::MAIN, EventKind::ChSend { ch: RId(1) }, None);
        tb.push(Gid(2), EventKind::ChRecv { ch: RId(1), closed: false }, None);
        let (events, fp) = tb.take();
        let events = events.expect("enabled");
        assert_eq!(fp, schedule_fingerprint(events.iter()));
        assert_ne!(fp, FP_SEED);
        assert_eq!(events[1].ts, VTime(10));
        assert_eq!(events.last().unwrap().seq, 2);
    }

    #[test]
    fn distinct_schedules_fingerprint_differently() {
        let a = TraceBuf::new(true, 100);
        a.push(Gid(1), EventKind::ChSend { ch: RId(1) }, None);
        a.push(Gid(2), EventKind::ChRecv { ch: RId(1), closed: false }, None);
        let b = TraceBuf::new(true, 100);
        b.push(Gid(2), EventKind::ChRecv { ch: RId(1), closed: false }, None);
        b.push(Gid(1), EventKind::ChSend { ch: RId(1) }, None);
        assert_ne!(a.take().1, b.take().1);
    }

    #[test]
    fn cap_stops_recording_and_folding() {
        let tb = TraceBuf::new(true, 1);
        tb.push(Gid(1), EventKind::GoStart, None);
        tb.push(Gid(1), EventKind::GoEnd, None);
        let (events, fp) = tb.take();
        let events = events.expect("enabled");
        assert_eq!(events.len(), 1);
        assert_eq!(fp, schedule_fingerprint(events.iter()), "fp covers only the recorded prefix");
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let tb = TraceBuf::new(false, 100);
        tb.push(Gid(1), EventKind::GoStart, None);
        let (events, fp) = tb.take();
        assert!(events.is_none());
        assert_eq!(fp, FP_SEED);
    }

    #[test]
    fn closed_buffer_drops_late_pushes() {
        let tb = TraceBuf::new(true, 100);
        tb.push(Gid(1), EventKind::GoStart, None);
        let _ = tb.take();
        tb.push(Gid(1), EventKind::GoEnd, None);
        let (events, _) = tb.take();
        assert_eq!(events.expect("enabled").len(), 0, "collected buffer stays collected");
    }
}
