//! A minimal discrete-event engine: a time-ordered event queue with
//! deterministic FIFO tie-breaking.

use enprop_obs::Recorder;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event tagged with its firing time and an insertion sequence number
/// (ties in time fire in insertion order, keeping runs deterministic).
#[derive(Debug, Clone)]
pub struct TimedEvent<E> {
    /// Simulated firing time, seconds.
    pub time: f64,
    /// Monotonic insertion index (tie-breaker).
    pub seq: u64,
    /// Payload.
    pub event: E,
}

impl<E> PartialEq for TimedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for TimedEvent<E> {}
impl<E> PartialOrd for TimedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for TimedEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Earliest-first event queue.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<TimedEvent<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Schedule `event` at absolute time `time` (must not be in the past).
    ///
    /// Zero-delay reschedules (`time == now`) are always legal, including
    /// at the `now == 0.0` boundary; otherwise `time` may undershoot `now`
    /// by at most a few ULPs of rounding slack. (An earlier version used a
    /// relative epsilon of `1e-12 · max(|now|, 1)`, which at `now == 0.0`
    /// silently accepted genuinely past times down to `-1e-12`.)
    ///
    /// Tallies `nodesim.eq.scheduled` and samples the post-insert queue
    /// depth (`nodesim.eq.depth`) on `rec`.
    pub fn schedule<R: Recorder>(&mut self, time: f64, event: E, rec: &mut R) {
        debug_assert!(time.is_finite(), "event time must be finite");
        debug_assert!(
            time >= self.now || self.now - time <= 4.0 * f64::EPSILON * self.now.abs(),
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.heap.push(TimedEvent {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        if R::ACTIVE {
            rec.tally("nodesim.eq.scheduled", 1);
            rec.observe("nodesim.eq.depth", self.len() as f64);
        }
    }

    /// Pop the earliest event, advancing the simulation clock to it and
    /// tallying `nodesim.eq.popped` on `rec`.
    pub fn pop<R: Recorder>(&mut self, rec: &mut R) -> Option<TimedEvent<E>> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        if R::ACTIVE {
            rec.tally("nodesim.eq.popped", 1);
        }
        Some(ev)
    }

    /// Current simulated time (time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_obs::NoopRecorder as Noop;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c", &mut Noop);
        q.schedule(1.0, "a", &mut Noop);
        q.schedule(2.0, "b", &mut Noop);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop(&mut Noop).map(|e| e.event)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first", &mut Noop);
        q.schedule(1.0, "second", &mut Noop);
        q.schedule(1.0, "third", &mut Noop);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop(&mut Noop).map(|e| e.event)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule(5.0, (), &mut Noop);
        q.schedule(7.0, (), &mut Noop);
        q.pop(&mut Noop);
        assert_eq!(q.now(), 5.0);
        q.pop(&mut Noop);
        assert_eq!(q.now(), 7.0);
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_pending() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1, &mut Noop);
        q.schedule(2.0, 2, &mut Noop);
        assert_eq!(q.len(), 2);
        q.pop(&mut Noop);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn zero_delay_reschedule_is_legal_at_time_zero() {
        let mut q = EventQueue::new();
        q.schedule(0.0, "boot", &mut Noop);
        q.pop(&mut Noop);
        assert_eq!(q.now(), 0.0);
        // Re-arming at exactly `now` must never trip the past-time check,
        // including at the t = 0 boundary.
        q.schedule(0.0, "rearm", &mut Noop);
        assert_eq!(q.pop(&mut Noop).map(|e| e.event), Some("rearm"));
    }

    #[test]
    fn zero_delay_reschedule_is_legal_after_advance() {
        let mut q = EventQueue::new();
        q.schedule(3.5, (), &mut Noop);
        q.pop(&mut Noop);
        q.schedule(3.5, (), &mut Noop);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn ulp_rounding_slack_is_tolerated() {
        let mut q = EventQueue::new();
        q.schedule(1.0, (), &mut Noop);
        q.pop(&mut Noop);
        // One ULP below `now` — the kind of drift `a + b - b` rounding
        // produces — is accepted.
        q.schedule(1.0 - f64::EPSILON, (), &mut Noop);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cannot schedule into the past")]
    fn genuinely_past_time_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(2.0, (), &mut Noop);
        q.pop(&mut Noop);
        q.schedule(1.9, (), &mut Noop);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cannot schedule into the past")]
    fn negative_time_at_origin_panics_in_debug() {
        let mut q: EventQueue<()> = EventQueue::new();
        // The old relative-epsilon check (`now - 1e-12·max(|now|,1)`)
        // silently accepted this at now == 0.0.
        q.schedule(-1e-13, (), &mut Noop);
    }

    #[test]
    fn recording_counts_traffic_without_changing_the_order() {
        use enprop_obs::MemoryRecorder;

        let mut rec = MemoryRecorder::new();
        let (mut plain, mut traced) = (EventQueue::new(), EventQueue::new());
        for (t, e) in [(2.0, "b"), (1.0, "a")] {
            plain.schedule(t, e, &mut Noop);
            traced.schedule(t, e, &mut rec);
        }
        while let Some(want) = plain.pop(&mut Noop) {
            let got = traced.pop(&mut rec).unwrap();
            assert_eq!((want.time, want.event), (got.time, got.event));
        }
        assert_eq!(rec.counters()["nodesim.eq.scheduled"], 2);
        assert_eq!(rec.counters()["nodesim.eq.popped"], 2);
        assert_eq!(rec.histograms()["nodesim.eq.depth"].count(), 2);
        assert_eq!(rec.histograms()["nodesim.eq.depth"].max(), Some(2.0));
    }
}
