//! The ECT container: a totally ordered event sequence with queries.

use crate::event::{Event, EventKind, Gid};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

/// Per-trace goroutine index, computed once on first use and shared by
/// [`Ect::goroutines`] and [`Ect::per_goroutine`].
#[derive(Debug, Clone, Default)]
struct GIndex {
    /// Distinct goroutines in first-appearance order (including created
    /// but never-scheduled goroutines).
    order: Vec<Gid>,
    /// Event indices emitted by each goroutine, in trace order.
    per_g: BTreeMap<Gid, Vec<usize>>,
}

/// An execution concurrency trace: the totally ordered event sequence
/// produced by one program run (paper §III-D).
///
/// ```
/// use goat_trace::{Ect, Event, EventKind, Gid, VTime};
/// let mut ect = Ect::new();
/// ect.push(Event {
///     seq: 0, ts: VTime::ZERO, g: Gid::MAIN,
///     kind: EventKind::GoStart, cu: None,
/// });
/// assert_eq!(ect.len(), 1);
/// assert!(ect.well_formed().is_ok());
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ect {
    events: Vec<Event>,
    /// Lazily computed goroutine index; invalidated by `push`, never
    /// serialized and ignored by equality.
    #[serde(skip)]
    gindex: OnceLock<GIndex>,
}

impl Ect {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an already collected event vector (the once-per-run assembly
    /// point — moves the buffer, no per-event re-push).
    ///
    /// # Panics
    /// Panics if sequence numbers are not dense (`0..n`): the ECT is a
    /// total order.
    pub fn from_events(events: Vec<Event>) -> Self {
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq as usize, i, "ECT sequence numbers must be dense");
        }
        // One relaxed atomic load when telemetry is off.
        if goat_metrics::enabled() {
            goat_metrics::histogram("ect.events").record(events.len() as u64);
        }
        Ect { events, gindex: OnceLock::new() }
    }

    /// Take back the underlying event vector (for buffer recycling).
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Append an event.
    ///
    /// # Panics
    /// Panics if `ev.seq` does not equal the current length: the ECT is a
    /// total order and sequence numbers are dense.
    pub fn push(&mut self, ev: Event) {
        assert_eq!(ev.seq as usize, self.events.len(), "ECT sequence numbers must be dense");
        self.events.push(ev);
        self.gindex = OnceLock::new();
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events in total order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterate over events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// The goroutine index, computed once per trace and reused by every
    /// caller (traces are immutable once collected; `push` invalidates).
    fn gindex(&self) -> &GIndex {
        self.gindex.get_or_init(|| {
            let mut idx = GIndex::default();
            let mut seen = BTreeSet::new();
            for (i, ev) in self.events.iter().enumerate() {
                if seen.insert(ev.g) {
                    idx.order.push(ev.g);
                }
                idx.per_g.entry(ev.g).or_default().push(i);
                if let EventKind::GoCreate { new_g, .. } = &ev.kind {
                    if seen.insert(*new_g) {
                        idx.order.push(*new_g);
                    }
                }
            }
            idx
        })
    }

    /// The distinct goroutines appearing in the trace, in first-appearance
    /// order.
    pub fn goroutines(&self) -> &[Gid] {
        &self.gindex().order
    }

    /// Indices of events emitted by each goroutine, preserving order.
    pub fn per_goroutine(&self) -> &BTreeMap<Gid, Vec<usize>> {
        &self.gindex().per_g
    }

    /// The last event emitted by goroutine `g`, if any.
    pub fn last_event_of(&self, g: Gid) -> Option<&Event> {
        self.events.iter().rev().find(|e| e.g == g)
    }

    /// The `GoCreate` event that spawned `g`, if traced.
    pub fn creation_of(&self, g: Gid) -> Option<&Event> {
        self.events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::GoCreate { new_g, .. } if *new_g == g))
    }

    /// Check structural invariants of the trace:
    ///
    /// 1. sequence numbers are dense and increasing;
    /// 2. timestamps are non-decreasing;
    /// 3. each goroutine is created at most once;
    /// 4. no goroutine (except main) emits events before its `GoCreate`;
    /// 5. `GoEnd`/`GoStop` is the final event of its goroutine.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn well_formed(&self) -> Result<(), WellFormedError> {
        let mut created: BTreeMap<Gid, u64> = BTreeMap::new();
        let mut ended: BTreeMap<Gid, u64> = BTreeMap::new();
        let mut last_ts = None;
        for (i, ev) in self.events.iter().enumerate() {
            if ev.seq != i as u64 {
                return Err(WellFormedError::NonDenseSeq { at: i, seq: ev.seq });
            }
            if let Some(prev) = last_ts {
                if ev.ts < prev {
                    return Err(WellFormedError::TimeRegression { seq: ev.seq });
                }
            }
            last_ts = Some(ev.ts);
            if let Some(&end_seq) = ended.get(&ev.g) {
                return Err(WellFormedError::EventAfterEnd { g: ev.g, end_seq, seq: ev.seq });
            }
            if ev.g != Gid::MAIN && ev.g != Gid::RUNTIME && !created.contains_key(&ev.g) {
                return Err(WellFormedError::UncreatedGoroutine { g: ev.g, seq: ev.seq });
            }
            match &ev.kind {
                EventKind::GoCreate { new_g, .. } if created.insert(*new_g, ev.seq).is_some() => {
                    return Err(WellFormedError::DoubleCreate { g: *new_g, seq: ev.seq });
                }
                EventKind::GoEnd | EventKind::GoStop => {
                    ended.insert(ev.g, ev.seq);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The trace's schedule fingerprint (see
    /// [`crate::tracebuf::schedule_fingerprint`]): equal fingerprints
    /// mean the same interleaving of the same operations. The runtime
    /// computes this online while recording; this offline twin serves
    /// deserialized or replayed traces.
    pub fn fingerprint(&self) -> u64 {
        crate::tracebuf::schedule_fingerprint(self.events.iter())
    }

    /// Render the trace as a human-readable interleaving listing, one
    /// event per line (used by goat-core's reports).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }
}

impl PartialEq for Ect {
    fn eq(&self, other: &Self) -> bool {
        // The lazily computed index is derived state; only events count.
        self.events == other.events
    }
}

impl FromIterator<Event> for Ect {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        Ect::from_events(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Ect {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Violation reported by [`Ect::well_formed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormedError {
    /// Sequence numbers are not `0..n`.
    NonDenseSeq {
        /// Index in the vector.
        at: usize,
        /// Offending sequence number.
        seq: u64,
    },
    /// A timestamp decreased.
    TimeRegression {
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// A goroutine was created twice.
    DoubleCreate {
        /// The goroutine.
        g: Gid,
        /// Sequence number of the second creation.
        seq: u64,
    },
    /// A goroutine other than main emitted an event before its creation.
    UncreatedGoroutine {
        /// The goroutine.
        g: Gid,
        /// Sequence number of the premature event.
        seq: u64,
    },
    /// A goroutine emitted an event after its `GoEnd`/`GoStop`.
    EventAfterEnd {
        /// The goroutine.
        g: Gid,
        /// Sequence number of its end event.
        end_seq: u64,
        /// Sequence number of the offending event.
        seq: u64,
    },
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::NonDenseSeq { at, seq } => {
                write!(f, "non-dense sequence number {seq} at index {at}")
            }
            WellFormedError::TimeRegression { seq } => {
                write!(f, "timestamp regressed at event {seq}")
            }
            WellFormedError::DoubleCreate { g, seq } => {
                write!(f, "goroutine {g} created twice (second at event {seq})")
            }
            WellFormedError::UncreatedGoroutine { g, seq } => {
                write!(f, "goroutine {g} emitted event {seq} before its GoCreate")
            }
            WellFormedError::EventAfterEnd { g, end_seq, seq } => {
                write!(f, "goroutine {g} emitted event {seq} after its end at {end_seq}")
            }
        }
    }
}

impl std::error::Error for WellFormedError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, VTime};

    fn ev(seq: u64, g: u64, kind: EventKind) -> Event {
        Event { seq, ts: VTime(seq * 10), g: Gid(g), kind, cu: None }
    }

    fn create(seq: u64, g: u64, new_g: u64) -> Event {
        ev(
            seq,
            g,
            EventKind::GoCreate {
                new_g: Gid(new_g),
                name: format!("g{new_g}").into(),
                internal: false,
            },
        )
    }

    #[test]
    fn simple_trace_is_well_formed() {
        let ect: Ect = vec![
            ev(0, 1, EventKind::GoStart),
            create(1, 1, 2),
            ev(2, 2, EventKind::GoStart),
            ev(3, 2, EventKind::GoEnd),
            ev(4, 1, EventKind::GoSched { trace_stop: true }),
        ]
        .into_iter()
        .collect();
        assert!(ect.well_formed().is_ok());
        assert_eq!(ect.goroutines(), vec![Gid(1), Gid(2)]);
        assert_eq!(ect.last_event_of(Gid(2)).unwrap().kind, EventKind::GoEnd);
        assert!(ect.creation_of(Gid(2)).is_some());
        assert!(ect.creation_of(Gid(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn push_rejects_sparse_seq() {
        let mut ect = Ect::new();
        ect.push(ev(5, 1, EventKind::GoStart));
    }

    #[test]
    fn detects_event_after_end() {
        let mut ect = Ect::new();
        ect.push(ev(0, 1, EventKind::GoStart));
        ect.push(create(1, 1, 2));
        ect.push(ev(2, 2, EventKind::GoEnd));
        ect.push(ev(3, 2, EventKind::GoStart));
        assert!(matches!(ect.well_formed(), Err(WellFormedError::EventAfterEnd { g: Gid(2), .. })));
    }

    #[test]
    fn detects_uncreated_goroutine() {
        let mut ect = Ect::new();
        ect.push(ev(0, 7, EventKind::GoStart));
        assert!(matches!(
            ect.well_formed(),
            Err(WellFormedError::UncreatedGoroutine { g: Gid(7), .. })
        ));
    }

    #[test]
    fn detects_double_create() {
        let mut ect = Ect::new();
        ect.push(create(0, 1, 2));
        ect.push(create(1, 1, 2));
        assert!(matches!(ect.well_formed(), Err(WellFormedError::DoubleCreate { g: Gid(2), .. })));
    }

    #[test]
    fn detects_time_regression() {
        let mut ect = Ect::new();
        ect.push(Event { seq: 0, ts: VTime(100), g: Gid(1), kind: EventKind::GoStart, cu: None });
        ect.push(Event { seq: 1, ts: VTime(50), g: Gid(1), kind: EventKind::GoEnd, cu: None });
        assert!(matches!(ect.well_formed(), Err(WellFormedError::TimeRegression { seq: 1 })));
    }

    #[test]
    fn serde_roundtrip() {
        // Checkpoints persist the bug trace through serde.
        let ect: Ect =
            vec![ev(0, 1, EventKind::GoStart), ev(1, 1, EventKind::GoEnd)].into_iter().collect();
        let json = serde_json::to_string(&ect).unwrap();
        assert_eq!(serde_json::from_str::<Ect>(&json).unwrap(), ect);
    }

    #[test]
    fn render_lists_every_event() {
        let ect: Ect =
            vec![ev(0, 1, EventKind::GoStart), ev(1, 1, EventKind::GoEnd)].into_iter().collect();
        let r = ect.render();
        assert_eq!(r.lines().count(), 2);
        assert!(r.contains("GoStart"));
    }

    #[test]
    fn per_goroutine_partitions_indices() {
        let ect: Ect = vec![
            ev(0, 1, EventKind::GoStart),
            create(1, 1, 2),
            ev(2, 2, EventKind::GoStart),
            ev(3, 1, EventKind::GoSched { trace_stop: false }),
        ]
        .into_iter()
        .collect();
        let per = ect.per_goroutine();
        assert_eq!(per[&Gid(1)], vec![0, 1, 3]);
        assert_eq!(per[&Gid(2)], vec![2]);
        let total: usize = per.values().map(Vec::len).sum();
        assert_eq!(total, ect.len());
    }
}
