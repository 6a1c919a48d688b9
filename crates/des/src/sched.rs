//! The event scheduler: a deterministic priority queue of timestamped events.
//!
//! Design follows the event-driven/poll style of embedded network stacks:
//! the kernel owns *when* things happen, the model owns *what* happens. The
//! model defines one event type `E` (typically an enum covering the whole
//! simulation) and drives a plain loop:
//!
//! ```
//! use dcmaint_des::{Scheduler, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32), Stop }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_in(SimDuration::from_secs(1), Ev::Ping(1));
//! sched.schedule_in(SimDuration::from_secs(3), Ev::Stop);
//! sched.schedule_in(SimDuration::from_secs(2), Ev::Ping(2));
//!
//! let mut seen = Vec::new();
//! while let Some(ev) = sched.pop() {
//!     match ev.payload {
//!         Ev::Ping(n) => seen.push(n),
//!         Ev::Stop => break,
//!     }
//! }
//! assert_eq!(seen, vec![1, 2]);
//! assert_eq!(sched.now(), SimTime::ZERO + SimDuration::from_secs(3));
//! ```
//!
//! Determinism: events at the same instant are delivered in the order they
//! were scheduled (FIFO within a timestamp), enforced by a monotonically
//! increasing sequence number used as a tiebreaker. Two runs that schedule
//! identical (time, payload) sequences observe identical delivery orders.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dcmaint_ckpt::{CkptError, Dec, Decode, Enc, Persist};

use crate::time::{SimDuration, SimTime};

/// An event delivered by [`Scheduler::pop`]: the payload plus the instant it
/// fired (which is also the scheduler's new `now`).
#[derive(Debug)]
pub struct Fired<E> {
    /// Instant at which the event fired.
    pub at: SimTime,
    /// Model-defined payload.
    pub payload: E,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first, and invert
        // the sequence comparison so equal timestamps pop FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Lifetime profile counters for one scheduler: how much work the queue
/// did, independent of what remains in it. All counts are driven purely
/// by the (deterministic) event sequence, so they are byte-identical
/// across same-seed runs — the engine self-profiler surfaces them as
/// `prof/sched/…` registry counters. Updating them is a handful of
/// integer ops per call, cheap enough to stay always-on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedProf {
    /// `schedule` calls accepted into the queue.
    pub scheduled: u64,
    /// `schedule` calls dropped for lying beyond the horizon.
    pub dropped_horizon: u64,
    /// Queue-depth high-water mark.
    pub max_pending: u64,
}

/// Deterministic discrete-event scheduler. See the crate docs for the
/// event-loop pattern.
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    delivered: u64,
    horizon: SimTime,
    prof: SchedProf,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// New scheduler at time zero with no horizon.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            delivered: 0,
            horizon: SimTime::MAX,
            prof: SchedProf::default(),
        }
    }

    /// New scheduler that silently drops events scheduled after `horizon`
    /// and stops popping once `now` would pass it. This bounds experiment
    /// runtime without every model having to check the clock.
    pub fn with_horizon(horizon: SimTime) -> Self {
        let mut s = Self::new();
        s.horizon = horizon;
        s
    }

    /// The current simulation instant: the timestamp of the last event
    /// popped (time zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured horizon ([`SimTime::MAX`] when unbounded).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedule `payload` at absolute instant `at`. Scheduling in the past
    /// clamps to `now` (delivered next, after already-queued events at
    /// `now`). Events beyond the horizon are dropped.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        if at > self.horizon {
            self.prof.dropped_horizon += 1;
            return;
        }
        self.heap.push(Entry { at, seq, payload });
        self.prof.scheduled += 1;
        self.prof.max_pending = self.prof.max_pending.max(self.heap.len() as u64);
    }

    /// Schedule `payload` after `delay` relative to `now`.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        self.schedule(self.now + delay, payload)
    }

    /// Schedule `payload` to fire immediately (at `now`, after events
    /// already queued for `now`).
    pub fn schedule_now(&mut self, payload: E) {
        self.schedule(self.now, payload)
    }

    /// Timestamp of the next event that will fire, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// The next event that *will* fire — `(timestamp, &payload)` —
    /// without popping it or advancing the clock. Respects the horizon
    /// exactly like [`Scheduler::pop`], so a non-`None` peek is a
    /// promise about the next pop. This is the hook decision-point
    /// planners use to inspect the upcoming event before the engine
    /// commits to it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        match self.heap.peek() {
            Some(e) if e.at <= self.horizon => Some((e.at, &e.payload)),
            _ => None,
        }
    }

    /// Pop the next event, advancing `now` to its timestamp. Returns `None`
    /// when the queue is empty or the next event lies beyond the horizon (in
    /// which case `now` advances to the horizon).
    pub fn pop(&mut self) -> Option<Fired<E>> {
        match self.heap.peek() {
            None => {
                // Queue drained: the simulation has run to the end of time.
                if self.horizon != SimTime::MAX {
                    self.now = self.horizon;
                }
                None
            }
            Some(e) if e.at > self.horizon => {
                self.now = self.horizon;
                None
            }
            Some(_) => {
                let e = self.heap.pop().expect("peeked entry present");
                self.now = e.at;
                self.delivered += 1;
                Some(Fired {
                    at: e.at,
                    payload: e.payload,
                })
            }
        }
    }

    /// The lifetime profile counters (see [`SchedProf`]).
    pub fn prof(&self) -> SchedProf {
        self.prof
    }
}

dcmaint_ckpt::persist!(SchedProf {
    scheduled,
    dropped_horizon,
    max_pending,
});

/// The scheduler persists its clock, counters, pending queue and
/// profile. Written by hand rather than with `persist!`: the heap is
/// exported in canonical `(at, seq)` order, so two schedulers holding
/// the same logical queue encode identically, whatever their heap
/// layout history.
impl<E: Decode> Persist for Scheduler<E> {
    fn save(&self, enc: &mut Enc) {
        let Scheduler {
            heap,
            now,
            seq,
            delivered,
            horizon,
            prof,
        } = self;
        now.save(enc);
        seq.save(enc);
        delivered.save(enc);
        horizon.save(enc);
        let mut entries: Vec<&Entry<E>> = heap.iter().collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        enc.usize(entries.len());
        for e in entries {
            e.at.save(enc);
            e.seq.save(enc);
            e.payload.save(enc);
        }
        prof.save(enc);
    }

    fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
        let Scheduler {
            heap,
            now,
            seq,
            delivered,
            horizon,
            prof,
        } = self;
        now.load(dec)?;
        seq.load(dec)?;
        delivered.load(dec)?;
        horizon.load(dec)?;
        let entries: Vec<(SimTime, u64, E)> = Decode::decode(dec)?;
        *heap = entries
            .into_iter()
            .map(|(at, seq, payload)| Entry { at, seq, payload })
            .collect();
        prof.load(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_micros(30), "c");
        s.schedule(SimTime::from_micros(10), "a");
        s.schedule(SimTime::from_micros(20), "b");
        let got: Vec<_> = std::iter::from_fn(|| s.pop().map(|f| f.payload)).collect();
        assert_eq!(got, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule(SimTime::from_micros(5), i);
        }
        let got: Vec<_> = std::iter::from_fn(|| s.pop().map(|f| f.payload)).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_micros(42), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_micros(42));
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_micros(100), "first");
        s.pop();
        s.schedule(SimTime::from_micros(5), "late");
        let f = s.pop().unwrap();
        assert_eq!(f.at, SimTime::from_micros(100));
        assert_eq!(f.payload, "late");
    }

    #[test]
    fn horizon_stops_delivery_and_advances_clock() {
        let mut s = Scheduler::with_horizon(SimTime::from_micros(100));
        s.schedule(SimTime::from_micros(50), "in");
        s.schedule(SimTime::from_micros(150), "out");
        assert_eq!(s.pop().unwrap().payload, "in");
        assert!(s.pop().is_none());
        assert_eq!(s.now(), SimTime::from_micros(100));
    }

    #[test]
    fn beyond_horizon_schedule_is_dropped() {
        let mut s = Scheduler::with_horizon(SimTime::from_micros(10));
        s.schedule(SimTime::from_micros(11), ());
        assert_eq!(s.prof().scheduled, 0);
        assert_eq!(s.prof().dropped_horizon, 1);
        assert!(s.peek_time().is_none());
    }

    #[test]
    fn delivered_counter() {
        let mut s = Scheduler::new();
        for i in 0..5u32 {
            s.schedule(SimTime::from_micros(u64::from(i)), i);
        }
        while s.pop().is_some() {}
        assert_eq!(s.delivered(), 5);
    }

    /// Encode `s` and load the bytes into a fresh scheduler.
    fn round_trip(s: &Scheduler<u64>) -> Scheduler<u64> {
        let mut enc = Enc::new();
        s.save(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let mut restored = Scheduler::new();
        restored.load(&mut dec).unwrap();
        assert!(dec.is_exhausted());
        restored
    }

    #[test]
    fn save_load_round_trip_preserves_delivery() {
        let mut s = Scheduler::with_horizon(SimTime::from_micros(10_000));
        for i in 0..20u64 {
            s.schedule(SimTime::from_micros(100 + 7 * i), i);
        }
        // Advance partway.
        for _ in 0..5 {
            s.pop();
        }
        let mut restored = round_trip(&s);
        // Both deliver identical (time, payload) sequences from here.
        loop {
            let a = s.pop();
            let b = restored.pop();
            match (a, b) {
                (None, None) => break,
                (Some(x), Some(y)) => assert_eq!((x.at, x.payload), (y.at, y.payload)),
                (x, y) => panic!("length mismatch: {:?} vs {:?}", x.is_some(), y.is_some()),
            }
        }
        assert_eq!(s.now(), restored.now());
        assert_eq!(s.delivered(), restored.delivered());
    }

    #[test]
    fn prof_counters_track_queue_work() {
        let mut s = Scheduler::with_horizon(SimTime::from_micros(1_000));
        assert_eq!(s.prof(), SchedProf::default());
        for i in 0..10u64 {
            s.schedule(SimTime::from_micros(10 + i), i);
        }
        s.schedule(SimTime::from_micros(2_000), 99); // beyond horizon
        while s.pop().is_some() {}
        let p = s.prof();
        assert_eq!(p.scheduled, 10);
        assert_eq!(p.dropped_horizon, 1);
        assert_eq!(p.max_pending, 10);
        // The lifetime counters ride the checkpoint.
        assert_eq!(round_trip(&s).prof(), p);
    }

    #[test]
    fn schedule_now_fires_after_existing_now_events() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::ZERO, "a");
        s.schedule_now("b");
        let got: Vec<_> = std::iter::from_fn(|| s.pop().map(|f| f.payload)).collect();
        assert_eq!(got, vec!["a", "b"]);
    }
}
