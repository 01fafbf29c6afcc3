//! The event scheduler of the discrete-event core.
//!
//! Every event of a run passes through the pending set, which pops in
//! ascending `(time, seq)` order — the engine's deterministic tie-break
//! ([`EventQueue`] names the contract). The traffic core holds an
//! [`EventHeap`], a [`BinaryHeap`], by value. The set stays small: traced
//! seed-1 benchmark runs peak at 54 pending events on `paper_grid`, 286 on
//! `flashcrowd_fairshare` and 1 146 on `churn_100k_exact`
//! (`sim.sched.peak_pending`), depths at which a binary heap is fast.

use bdps_types::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event: a payload tagged with its firing time and a `u64`
/// key (the deterministic tie-break for simultaneous events).
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break key; lower keys pop first among equal times. The engine
    /// derives it canonically from the event's content (see
    /// `event::key`), so the `(time, seq)` total order is independent of
    /// scheduling order — and of which shard scheduled the event.
    pub seq: u64,
    /// The event payload.
    pub item: T,
}

impl<T> Scheduled<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// The scheduler interface of the simulation engine.
///
/// Implementations must pop in ascending `(time, seq)` order — the total
/// order replays depend on. The engine only ever schedules at or after the
/// time of the last popped event (a discrete-event simulator cannot
/// schedule into the past), but implementations must stay correct without
/// that.
pub trait EventQueue<T> {
    /// Inserts an event.
    fn push(&mut self, event: Scheduled<T>);

    /// Removes and returns the earliest event if its time is at or before
    /// `limit`; leaves the queue untouched otherwise.
    fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<Scheduled<T>>;

    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<Scheduled<T>> {
        self.pop_if_at_or_before(SimTime::MAX)
    }

    /// The earliest event's time and payload, without removing it.
    fn peek(&self) -> Option<(SimTime, &T)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Returns true when no event is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every pending event in unspecified order (end-of-run
    /// accounting of in-flight work).
    fn for_each(&self, f: &mut dyn FnMut(&Scheduled<T>));

    /// Removes and returns **every** event scheduled at the earliest pending
    /// time — the *same-instant frontier* — in ascending `seq` order. Returns
    /// an empty vector when the queue is empty or the earliest event is after
    /// `limit`.
    ///
    /// This is the branching primitive of the model-checking explorer
    /// (`bdps-mc`): the events of one frontier are exactly the events whose
    /// relative order the `(time, seq)` tie-break decides arbitrarily, so a
    /// bounded exhaustive search replays every permutation of each frontier.
    /// Callers re-insert unconsumed frontier events with
    /// [`push`](Self::push), preserving their original `seq`.
    fn take_frontier(&mut self, limit: SimTime) -> Vec<Scheduled<T>> {
        let mut frontier = Vec::new();
        let Some((head, _)) = self.peek() else {
            return frontier;
        };
        if head > limit {
            return frontier;
        }
        while let Some(e) = self.pop_if_at_or_before(head) {
            frontier.push(e);
        }
        frontier
    }
}

/// A heap entry: the max-heap's greatest entry is the least `(time, seq)`.
#[derive(Clone)]
struct Entry<T>(Scheduled<T>);

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The engine's event queue: a [`BinaryHeap`] that pops the least
/// `(time, seq)` first.
#[derive(Clone)]
pub struct EventHeap<T> {
    heap: BinaryHeap<Entry<T>>,
}

/// The queue's former name, kept only because the benchmark harness under
/// `benchmark/` calls it; ROADMAP item 1d deletes it.
pub type CalendarQueue<T> = EventHeap<T>;

impl<T> EventHeap<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventHeap {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> for EventHeap<T> {
    fn push(&mut self, event: Scheduled<T>) {
        self.heap.push(Entry(event));
    }

    fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<Scheduled<T>> {
        if self.heap.peek()?.0.time > limit {
            return None;
        }
        self.heap.pop().map(|e| e.0)
    }

    fn peek(&self) -> Option<(SimTime, &T)> {
        self.heap.peek().map(|e| (e.0.time, &e.0.item))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn for_each(&self, f: &mut dyn FnMut(&Scheduled<T>)) {
        for e in &self.heap {
            f(&e.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_stats::rng::SimRng;

    fn ev(time_us: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: SimTime::from_micros(time_us),
            seq,
            item: seq,
        }
    }

    /// The pending set as a sorted multiset of `(time, seq, item)`
    /// (`for_each` visits in unspecified order). Items number the pushes, so
    /// a duplicate `(time, seq)` pair still tells its two events apart.
    fn pending(q: &EventHeap<u64>) -> Vec<(SimTime, u64, u64)> {
        let mut out = Vec::with_capacity(q.len());
        q.for_each(&mut |e| out.push((e.time, e.seq, e.item)));
        out.sort_unstable();
        out
    }

    /// The oracle: a `Vec` kept sorted by descending `(time, seq)`, so the
    /// least key is always last.
    #[derive(Default)]
    struct Model(Vec<Scheduled<u64>>);

    impl Model {
        fn push(&mut self, event: Scheduled<u64>) {
            let at = self.0.partition_point(|e| e.key() > event.key());
            self.0.insert(at, event);
        }

        fn peek(&self) -> Option<(SimTime, u64)> {
            self.0.last().map(|e| (e.time, e.item))
        }

        fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<Scheduled<u64>> {
            self.0.pop_if(|e| e.time <= limit)
        }

        /// Every event at the head time, by ascending key.
        fn take_frontier(&mut self, limit: SimTime) -> Vec<Scheduled<u64>> {
            let at = match self.peek() {
                Some((head, _)) if head <= limit => self.0.partition_point(|e| e.time > head),
                _ => self.0.len(),
            };
            self.0.drain(at..).rev().collect()
        }

        fn pending(&self) -> Vec<(SimTime, u64, u64)> {
            let mut out: Vec<_> = self.0.iter().map(|e| (e.time, e.seq, e.item)).collect();
            out.sort_unstable();
            out
        }
    }

    /// The heap and the model driven through the same operations.
    #[derive(Default)]
    struct Pair {
        heap: EventHeap<u64>,
        model: Model,
        pushed: u64,
    }

    impl Pair {
        fn push_keyed(&mut self, time_us: u64, seq: u64) {
            self.pushed += 1;
            let event = Scheduled {
                time: SimTime::from_micros(time_us),
                seq,
                item: self.pushed,
            };
            self.heap.push(event.clone());
            self.model.push(event);
        }

        /// Pushes a fresh event at `time_us` under a fresh seq.
        fn push(&mut self, time_us: u64) {
            self.push_keyed(time_us, self.pushed + 1);
        }

        /// Pops both up to `limit`, requires the same key and returns the
        /// popped time.
        fn pop(&mut self, limit: SimTime, ctx: impl std::fmt::Debug) -> Option<u64> {
            let a = self.heap.pop_if_at_or_before(limit);
            let b = self.model.pop_if_at_or_before(limit);
            let key = a.map(|e| e.key());
            assert_eq!(key, b.map(|e| e.key()), "pop up to {limit:?} ({ctx:?})");
            key.map(|(time, _)| time.as_micros())
        }

        /// Compares the pending multisets, items included, then drains both
        /// and returns the popped times.
        fn finish(mut self, ctx: impl std::fmt::Debug) -> Vec<u64> {
            assert_eq!(
                pending(&self.heap),
                self.model.pending(),
                "pending ({ctx:?})"
            );
            let mut times = Vec::new();
            while let Some(time) = self.pop(SimTime::MAX, &ctx) {
                times.push(time);
            }
            times
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventHeap::new();
        for (time, seq) in [(50, 3), (10, 4), (50, 1), (10, 2), (0, 5)] {
            q.push(ev(time, seq));
        }
        let mut order = Vec::new();
        while let Some(e) = q.pop() {
            order.push(e.key());
        }
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], (SimTime::ZERO, 5));
    }

    #[test]
    fn pop_respects_the_limit() {
        let mut q = EventHeap::new();
        q.push(ev(100, 1));
        q.push(ev(300, 2));
        assert!(q.pop_if_at_or_before(SimTime::from_micros(50)).is_none());
        assert_eq!(q.len(), 2);
        let first = q.pop_if_at_or_before(SimTime::from_micros(100)).unwrap();
        assert_eq!(first.seq, 1);
        assert!(q.pop_if_at_or_before(SimTime::from_micros(100)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_matches_pop_and_never_removes() {
        let mut q = EventHeap::new();
        assert!(q.peek().is_none());
        q.push(ev(70, 1));
        q.push(ev(20, 2));
        let (t, item) = q.peek().expect("non-empty");
        assert_eq!((t, *item), (SimTime::from_micros(20), 2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().seq, 2);
    }

    #[test]
    fn for_each_visits_every_pending_event() {
        let mut q = EventHeap::new();
        for seq in 0..100 {
            q.push(ev(seq * 37 % 1000, seq));
        }
        let mut seen = 0u64;
        q.for_each(&mut |e| seen += e.item);
        assert_eq!(seen, (0..100).sum::<u64>());
    }

    /// The headline property: the heap answers **every** operation the
    /// engine, the sharded executor and `bdps-mc` call exactly like the
    /// model, at every step of an interleaved, clustered, monotone workload
    /// shaped like the simulator's (pushes only at or after the last popped
    /// time). A clone taken mid-sequence (`Simulation::fork`) drains its
    /// original's pending set in order and leaves the original as it was.
    #[test]
    fn event_heap_matches_a_sorted_model_on_every_operation_the_engine_calls() {
        // A pop limit around the earliest pending time: one microsecond
        // short of it (refused) or a little past it (served).
        fn limit_near_head(q: &Pair, rng: &mut SimRng) -> SimTime {
            let head = q.model.peek().map_or(0, |(time, _)| time.as_micros());
            SimTime::from_micros(if rng.chance(0.5) {
                head.saturating_sub(1)
            } else {
                head + rng.uniform_usize(0, 1_500) as u64
            })
        }
        for seed in 1..=6u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut q = Pair::default();
            let mut now = 0u64;
            let (mut refused, mut frontiers, mut repushed) = (0u32, 0u32, 0u32);
            // Far-future batch first (a materialised scenario stream), then
            // near-term pushes in front of it.
            for k in 0..50 {
                q.push(120_000_000 + k * 1_000_000);
            }
            for step in 0..5_000 {
                let ctx = (seed, step);
                if step == 2_500 {
                    let mut fork = q.heap.clone();
                    let mut drained = Vec::new();
                    while let Some(e) = fork.pop() {
                        drained.push((e.time, e.seq, e.item));
                    }
                    assert_eq!(drained, pending(&q.heap), "fork ({ctx:?})");
                }
                // Growth and drain phases alternate.
                let growing = step / 1_000 % 2 == 0;
                match rng.uniform_usize(0, 10) {
                    // Scheduling: clustered offsets, many ties, a few
                    // far-future tails.
                    0..=3 if growing => {
                        for _ in 0..rng.uniform_usize(1, 4) {
                            let offset = match rng.uniform_usize(0, 10) {
                                0 => 0,
                                1..=6 => rng.uniform_usize(0, 2_000) as u64,
                                _ => rng.uniform_usize(0, 2_000_000) as u64,
                            };
                            q.push(now + offset);
                        }
                    }
                    // The run loop's pop (no limit in sight).
                    0..=5 => now = q.pop(SimTime::MAX, ctx).unwrap_or(now),
                    // A window's pop: the limit stops just short of the head as
                    // often as not, and a refusal must leave both alone.
                    6 => match q.pop(limit_near_head(&q, &mut rng), ctx) {
                        Some(time) => now = time,
                        None => refused += 1,
                    },
                    // The rebuild-coalescing peek and the peak-pending len.
                    7 => {
                        let a = q.heap.peek().map(|(t, item)| (t, *item));
                        assert_eq!(a, q.model.peek(), "peek ({ctx:?})");
                        assert_eq!(q.heap.len(), q.model.0.len(), "len ({ctx:?})");
                        assert_eq!(q.heap.is_empty(), q.model.0.is_empty());
                    }
                    // End-of-run accounting and the state digest.
                    8 => assert_eq!(pending(&q.heap), q.model.pending(), "for_each ({ctx:?})"),
                    // The explorer's branch point: take the same-instant
                    // frontier, apply some of it, push the rest back under
                    // their original keys.
                    _ => {
                        let limit = match rng.uniform_usize(0, 4) {
                            0 => limit_near_head(&q, &mut rng),
                            _ => SimTime::MAX,
                        };
                        let a = q.heap.take_frontier(limit);
                        let b = q.model.take_frontier(limit);
                        let keys = |f: &[Scheduled<u64>]| -> Vec<_> {
                            f.iter().map(Scheduled::key).collect()
                        };
                        assert_eq!(keys(&a), keys(&b), "take_frontier ({ctx:?})");
                        if let Some(first) = a.first() {
                            now = first.time.as_micros();
                            frontiers += 1;
                        }
                        for (x, y) in a.into_iter().zip(b) {
                            if rng.chance(0.5) {
                                q.heap.push(x);
                                q.model.push(y);
                                repushed += 1;
                            }
                        }
                    }
                }
            }
            q.finish(seed);
            // Every arm must have done its work, or the equality is vacuous.
            assert!(
                refused > 50 && frontiers > 200 && repushed > 100,
                "seed {seed}: {refused} refusals, {frontiers} frontiers, {repushed} re-pushes"
            );
        }
    }

    /// A dense burst in the first seconds, one event parked at 300 s, and a
    /// level population (every pop schedules one follow-up a hop later).
    #[test]
    fn a_dense_burst_then_one_far_future_event_pops_like_the_model() {
        let mut q = Pair::default();
        for second in 1..=4u64 {
            q.push(second * 1_000_000);
            q.push(second * 1_000_000);
        }
        q.push(300_000_000);
        for step in 0..40u64 {
            let now = q
                .pop(SimTime::MAX, step)
                .expect("the population stays level");
            q.push(now + 500_000 + (step * 7 % 11) * 100_000);
        }
        assert_eq!(q.finish("burst").last(), Some(&300_000_000));
    }

    /// A burst of t = 0 enqueues behind a sparse far-future stream (the
    /// construction order: scenario events first, then publisher seeds).
    #[test]
    fn t0_enqueues_behind_far_future_events_pop_like_the_model() {
        let mut q = Pair::default();
        for k in 0..40u64 {
            q.push(3_600_000_000 * (k + 1));
        }
        for _ in 0..10 {
            q.push(0);
        }
        let order = q.finish("t0");
        assert!(order[..10].iter().all(|&t| t == 0), "{order:?}");
    }

    /// Two events under one `(time, seq)` key: both pop, in either order,
    /// and both belong to their instant's frontier.
    #[test]
    fn a_duplicate_time_seq_pair_pops_both_items() {
        let mut q = Pair::default();
        for (time, seq) in [(500, 7), (100, 9), (500, 7), (500, 8)] {
            q.push_keyed(time, seq);
        }
        let mut heap = q.heap.clone();
        heap.pop();
        assert_eq!(heap.take_frontier(SimTime::MAX).len(), 3);
        q.finish("duplicate");
    }

    #[test]
    fn take_frontier_returns_all_same_instant_events_in_seq_order() {
        let mut q = EventHeap::new();
        q.push(ev(100, 3));
        q.push(ev(100, 1));
        q.push(ev(200, 2));
        q.push(ev(100, 4));
        let frontier = q.take_frontier(SimTime::MAX);
        assert_eq!(
            frontier.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
        assert!(frontier.iter().all(|e| e.time.as_micros() == 100));
        assert_eq!(q.len(), 1);
        // Re-inserting with the original seq restores the pop order.
        for e in frontier {
            q.push(e);
        }
        assert_eq!(q.pop().unwrap().seq, 1);
    }

    #[test]
    fn take_frontier_respects_the_limit_and_empty_queue() {
        let mut q = EventHeap::new();
        assert!(q.take_frontier(SimTime::MAX).is_empty());
        q.push(ev(500, 1));
        assert!(q.take_frontier(SimTime::from_micros(499)).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.take_frontier(SimTime::from_micros(500)).len(), 1);
        assert!(q.is_empty());
    }
}
