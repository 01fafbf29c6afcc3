//! The event scheduler of the discrete-event core.
//!
//! The simulator's pending-event set is the one data structure every single
//! event passes through. A binary heap costs `O(log n)` per operation and
//! its comparison-heavy pops dominate the loop once the horizon holds
//! hundreds of thousands of events (10⁵-subscriber runs), so the engine
//! runs on Brown's **calendar queue** (CACM 1988, the scheduler of most
//! production DES engines): events hash into time-bucketed "days" of a
//! circular "year", giving `O(1)` amortised enqueue/dequeue as long as the
//! bucket width tracks the event density — which the implementation
//! maintains by resizing when the population doubles or collapses.
//!
//! [`CalendarQueue`] is the only scheduler an engine can be built with: the
//! traffic core holds it by value, so the hot path dispatches statically.
//! The [`EventQueue`] trait names its contract — pop in ascending
//! `(time, seq)` order, the engine's deterministic tie-break — and the
//! binary heap survives in this module's tests as the reference every
//! operation of the calendar queue is compared against, step by step.

use bdps_types::time::SimTime;

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
/// schedule into the past); implementations may rely on that for
/// amortisation but must stay correct without it.
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
        // In the calendar queue same-instant events hash into the same day
        // and buckets are kept sorted, so after the first pop locates the
        // day the rest of the frontier drains from the front of one bucket.
        while let Some(e) = self.pop_if_at_or_before(head) {
            frontier.push(e);
        }
        frontier
    }
}

/// Smallest number of buckets (power of two for mask-based indexing).
const MIN_BUCKETS: usize = 16;
/// Bucket width the queue starts with before any density estimate exists
/// (1 ms in simulation time).
const INITIAL_WIDTH_MICROS: u64 = 1_000;

/// Brown's calendar queue: `O(1)` amortised push/pop.
///
/// Events hash by time into one of `n` buckets of `width` microseconds (a
/// "day"); the `n · width` span is a "year". Each bucket keeps its events
/// sorted by `(time, seq)`, so with the width tuned to the event density a
/// bucket holds `O(1)` events and both operations touch `O(1)` of them. A
/// pop scans at most one year of days from the cursor before falling back to
/// a direct minimum search (handles sparse tails); pushes and pops trigger a
/// resize — doubling or halving the bucket count and re-estimating the width
/// from the live span — whenever the population outgrows or underflows the
/// current calendar.
#[derive(Clone)]
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<Scheduled<T>>>,
    /// Power of two; `bucket_mask = buckets.len() - 1`.
    bucket_mask: usize,
    /// Bucket width in microseconds (≥ 1).
    width: u64,
    count: usize,
    /// The day the cursor is on.
    cursor_bucket: usize,
    /// Exclusive upper time edge of the cursor's day in the current year.
    cursor_top: u64,
    /// Consecutive pops that needed the direct-search fallback — a sign the
    /// bucket width is stale (too narrow for the live event spacing), which
    /// happens when the population stays level so no resize re-estimates it.
    sparse_pops: u32,
}

/// Direct-search fallbacks tolerated before the width is re-estimated.
const SPARSE_POPS_BEFORE_REWIDTH: u32 = 8;

/// Where [`CalendarQueue::find_next`] located the minimum event.
struct Found {
    bucket: usize,
    cursor_bucket: usize,
    cursor_top: u64,
    /// True when the year scan came up empty and the direct search ran.
    fallback: bool,
}

impl<T> CalendarQueue<T> {
    /// Creates an empty calendar queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            bucket_mask: MIN_BUCKETS - 1,
            width: INITIAL_WIDTH_MICROS,
            count: 0,
            cursor_bucket: 0,
            cursor_top: INITIAL_WIDTH_MICROS,
            sparse_pops: 0,
        }
    }

    fn bucket_of(&self, micros: u64) -> usize {
        ((micros / self.width) as usize) & self.bucket_mask
    }

    /// Locates the next event to pop without mutating anything: first a scan
    /// of at most one year of days starting at the cursor, then a direct
    /// minimum search over all bucket heads for sparse calendars.
    fn find_next(&self) -> Option<Found> {
        if self.count == 0 {
            return None;
        }
        let n = self.buckets.len();
        let mut bucket = self.cursor_bucket;
        let mut top = self.cursor_top;
        for _ in 0..n {
            if let Some(head) = self.buckets[bucket].first() {
                if head.time.as_micros() < top {
                    return Some(Found {
                        bucket,
                        cursor_bucket: bucket,
                        cursor_top: top,
                        fallback: false,
                    });
                }
            }
            bucket = (bucket + 1) & self.bucket_mask;
            top = top.saturating_add(self.width);
        }
        // Nothing due within a year of the cursor: jump straight to the
        // global minimum (every bucket head is a candidate because buckets
        // are sorted).
        let (bucket, head_time) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.first().map(|h| (i, h.key())))
            .min_by_key(|&(_, key)| key)
            .map(|(i, (t, _))| (i, t.as_micros()))
            .expect("count > 0 implies a non-empty bucket");
        let cursor_top = (head_time / self.width)
            .saturating_add(1)
            .saturating_mul(self.width);
        Some(Found {
            bucket,
            cursor_bucket: self.bucket_of(head_time),
            cursor_top,
            fallback: true,
        })
    }

    /// Doubles or halves the calendar and re-estimates the bucket width so
    /// the live events spread to about one per day.
    fn resize(&mut self, new_len: usize) {
        let mut events: Vec<Scheduled<T>> = Vec::with_capacity(self.count);
        for bucket in &mut self.buckets {
            events.append(bucket);
        }
        let (min_t, max_t) = events.iter().fold((u64::MAX, 0u64), |(lo, hi), e| {
            let t = e.time.as_micros();
            (lo.min(t), hi.max(t))
        });
        let span = max_t.saturating_sub(min_t);
        self.width = (span / events.len().max(1) as u64).max(1);
        self.buckets = (0..new_len).map(|_| Vec::new()).collect();
        self.bucket_mask = new_len - 1;
        self.sparse_pops = 0;
        // Re-anchor the cursor at the earliest live event (or keep time zero
        // for an empty calendar).
        let anchor = if events.is_empty() { 0 } else { min_t };
        self.cursor_bucket = self.bucket_of(anchor);
        self.cursor_top = (anchor / self.width + 1).saturating_mul(self.width);
        let count = self.count;
        for event in events {
            self.insert(event);
        }
        self.count = count;
    }

    /// Inserts into the right bucket, keeping it sorted by `(time, seq)`.
    fn insert(&mut self, event: Scheduled<T>) {
        let idx = self.bucket_of(event.time.as_micros());
        let bucket = &mut self.buckets[idx];
        let key = event.key();
        let pos = bucket.partition_point(|e| e.key() < key);
        bucket.insert(pos, event);
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> for CalendarQueue<T> {
    fn push(&mut self, event: Scheduled<T>) {
        let micros = event.time.as_micros();
        self.insert(event);
        self.count += 1;
        // An event scheduled on a day before the cursor's would be invisible
        // to the year scan (which only looks forward): pull the cursor back
        // to that day. Happens when earlier-time events are enqueued after a
        // resize anchored the cursor further ahead — e.g. publisher seeds
        // pushed after a far-future scenario stream at construction. The
        // guard is "micros lies on a day strictly before the cursor's",
        // i.e. `micros < cursor_top - width`, rearranged so the subtraction
        // cannot underflow when `cursor_top < width` (a t=0-anchored cursor
        // after a wide resize): saturating the subtraction instead would
        // clamp the threshold to 0 and misclassify early enqueues.
        if micros.saturating_add(self.width) < self.cursor_top {
            self.cursor_bucket = self.bucket_of(micros);
            self.cursor_top = (micros / self.width)
                .saturating_add(1)
                .saturating_mul(self.width);
        }
        if self.count > 2 * self.buckets.len() {
            let new_len = self.buckets.len() * 2;
            self.resize(new_len);
        }
    }

    fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<Scheduled<T>> {
        if self.sparse_pops >= SPARSE_POPS_BEFORE_REWIDTH && self.count > 0 {
            // The year scan keeps missing: the width no longer matches the
            // live event spacing (the population stayed level, so no resize
            // refreshed it). Re-estimate at the current bucket count.
            let len = self.buckets.len();
            self.resize(len);
        }
        let found = self.find_next()?;
        if found.fallback {
            self.sparse_pops += 1;
        } else {
            self.sparse_pops = 0;
        }
        let head_time = self.buckets[found.bucket]
            .first()
            .expect("find_next returned a non-empty bucket")
            .time;
        if head_time > limit {
            return None;
        }
        // Commit the cursor so the next scan resumes where this one ended.
        self.cursor_bucket = found.cursor_bucket;
        self.cursor_top = found.cursor_top;
        let event = self.buckets[found.bucket].remove(0);
        self.count -= 1;
        if self.buckets.len() > MIN_BUCKETS && self.count < self.buckets.len() / 4 {
            let new_len = (self.buckets.len() / 2).max(MIN_BUCKETS);
            self.resize(new_len);
        }
        Some(event)
    }

    fn peek(&self) -> Option<(SimTime, &T)> {
        let found = self.find_next()?;
        self.buckets[found.bucket]
            .first()
            .map(|e| (e.time, &e.item))
    }

    fn len(&self) -> usize {
        self.count
    }

    fn for_each(&self, f: &mut dyn FnMut(&Scheduled<T>)) {
        for bucket in &self.buckets {
            for e in bucket {
                f(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_stats::rng::SimRng;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Max-heap wrapper inverting the order so the earliest `(time, seq)` pops
    /// first.
    struct HeapEntry<T>(Scheduled<T>);

    impl<T> PartialEq for HeapEntry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.0.key() == other.0.key()
        }
    }
    impl<T> Eq for HeapEntry<T> {}
    impl<T> Ord for HeapEntry<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            other.0.key().cmp(&self.0.key())
        }
    }
    impl<T> PartialOrd for HeapEntry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The `O(log n)`-per-operation reference scheduler: a [`BinaryHeap`]
    /// keyed by `(time, seq)`. The engine's original queue, kept here as the
    /// oracle the calendar queue is compared against operation by operation.
    struct BinaryHeapQueue<T> {
        heap: BinaryHeap<HeapEntry<T>>,
    }

    impl<T> BinaryHeapQueue<T> {
        fn new() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
            }
        }
    }

    impl<T> EventQueue<T> for BinaryHeapQueue<T> {
        fn push(&mut self, event: Scheduled<T>) {
            self.heap.push(HeapEntry(event));
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
            for e in self.heap.iter() {
                f(&e.0);
            }
        }
    }

    fn ev(time_us: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: SimTime::from_micros(time_us),
            seq,
            item: seq,
        }
    }

    /// The reference and the engine's queue, for the tests that hold both to
    /// the same hand-written expectations.
    fn both_queues() -> [(&'static str, Box<dyn EventQueue<u64>>); 2] {
        [
            ("heap", Box::new(BinaryHeapQueue::new())),
            ("calendar", Box::new(CalendarQueue::new())),
        ]
    }

    fn drain<T>(q: &mut dyn EventQueue<T>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time, e.seq));
        }
        out
    }

    fn keys(events: &[Scheduled<u64>]) -> Vec<(SimTime, u64)> {
        events.iter().map(Scheduled::key).collect()
    }

    /// The pending set as a sorted multiset of keys (`for_each` visits in
    /// unspecified order).
    fn pending(q: &dyn EventQueue<u64>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::with_capacity(q.len());
        q.for_each(&mut |e| out.push(e.key()));
        out.sort_unstable();
        out
    }

    /// The heap and the calendar queue driven through the same operations.
    struct Pair {
        heap: BinaryHeapQueue<u64>,
        calendar: CalendarQueue<u64>,
        seq: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                heap: BinaryHeapQueue::new(),
                calendar: CalendarQueue::new(),
                seq: 0,
            }
        }

        /// Pushes a fresh event at `time_us` on both queues.
        fn push(&mut self, time_us: u64) {
            self.seq += 1;
            self.heap.push(ev(time_us, self.seq));
            self.calendar.push(ev(time_us, self.seq));
        }

        /// Pops both queues up to `limit`, requires the same answer and
        /// returns the popped time.
        fn pop(&mut self, limit: SimTime, ctx: impl std::fmt::Debug) -> Option<u64> {
            let a = self.heap.pop_if_at_or_before(limit).map(|e| e.key());
            let b = self.calendar.pop_if_at_or_before(limit).map(|e| e.key());
            assert_eq!(a, b, "pop up to {limit:?} disagrees ({ctx:?})");
            a.map(|(time, _)| time.as_micros())
        }
    }

    #[test]
    fn both_queues_pop_in_time_then_seq_order() {
        for (name, mut q) in both_queues() {
            q.push(ev(50, 3));
            q.push(ev(10, 4));
            q.push(ev(50, 1));
            q.push(ev(10, 2));
            q.push(ev(0, 5));
            let order = drain(q.as_mut());
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(order, sorted, "{name}");
            assert_eq!(order.len(), 5);
            assert_eq!(order[0], (SimTime::ZERO, 5));
        }
    }

    #[test]
    fn pop_respects_the_limit() {
        for (name, mut q) in both_queues() {
            q.push(ev(100, 1));
            q.push(ev(300, 2));
            assert!(
                q.pop_if_at_or_before(SimTime::from_micros(50)).is_none(),
                "{name}"
            );
            assert_eq!(q.len(), 2);
            let first = q.pop_if_at_or_before(SimTime::from_micros(100)).unwrap();
            assert_eq!(first.seq, 1);
            assert!(q.pop_if_at_or_before(SimTime::from_micros(100)).is_none());
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn peek_matches_pop_and_never_removes() {
        for (name, mut q) in both_queues() {
            assert!(q.peek().is_none());
            q.push(ev(70, 1));
            q.push(ev(20, 2));
            let (t, item) = q.peek().expect("non-empty");
            assert_eq!((t, *item), (SimTime::from_micros(20), 2));
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop().unwrap().seq, 2, "{name}");
        }
    }

    #[test]
    fn for_each_visits_every_pending_event() {
        for (name, mut q) in both_queues() {
            for seq in 0..100 {
                q.push(ev(seq * 37 % 1000, seq));
            }
            let mut seen = 0u64;
            q.for_each(&mut |e| seen += e.item);
            assert_eq!(seen, (0..100).sum::<u64>(), "{name}");
        }
    }

    /// The headline property, and since the engine can no longer be built on
    /// the heap the only place it is checked: the calendar queue answers
    /// **every** operation the engine, the sharded executor and `bdps-mc`
    /// call exactly like the heap, at every step of an interleaved,
    /// clustered, monotone workload shaped like the simulator's (pushes only
    /// at or after the last popped time).
    #[test]
    fn calendar_matches_the_heap_on_every_operation_the_engine_calls() {
        // A pop limit around the earliest pending time: one microsecond
        // short of it (refused) or a little past it (served).
        fn limit_near_head(q: &Pair, rng: &mut SimRng) -> SimTime {
            let head = q.heap.peek().map_or(0, |(time, _)| time.as_micros());
            SimTime::from_micros(if rng.chance(0.5) {
                head.saturating_sub(1)
            } else {
                head + rng.uniform_usize(0, 1_500) as u64
            })
        }
        for seed in 1..=6u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut q = Pair::new();
            let mut now = 0u64;
            let (mut refused, mut frontiers, mut repushed) = (0u32, 0u32, 0u32);
            let (mut grown, mut shrunk) = (MIN_BUCKETS, false);
            // Far-future batch first (a materialised scenario stream), so
            // later near-term pushes land behind the resize-anchored cursor
            // — the regression the engine's blackout scenario caught.
            for k in 0..50 {
                q.push(120_000_000 + k * 1_000_000);
            }
            for step in 0..5_000 {
                let ctx = (seed, step);
                // Growth and drain phases alternate, so the calendar resizes
                // both ways mid-run and not only in the final drain.
                let growing = step / 1_000 % 2 == 0;
                grown = grown.max(q.calendar.buckets.len());
                shrunk |= q.calendar.buckets.len() < grown;
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
                    // often as not, and a refusal must leave both queues alone.
                    6 => match q.pop(limit_near_head(&q, &mut rng), ctx) {
                        Some(time) => now = time,
                        None => refused += 1,
                    },
                    // The rebuild-coalescing peek and the peak-pending len.
                    7 => {
                        let a = q.heap.peek().map(|(t, item)| (t, *item));
                        let b = q.calendar.peek().map(|(t, item)| (t, *item));
                        assert_eq!(a, b, "peek ({ctx:?})");
                        assert_eq!(q.heap.len(), q.calendar.len(), "len ({ctx:?})");
                        assert_eq!(q.heap.is_empty(), q.calendar.is_empty());
                    }
                    // End-of-run accounting and the state digest.
                    8 => assert_eq!(pending(&q.heap), pending(&q.calendar), "for_each ({ctx:?})"),
                    // The explorer's branch point: take the same-instant
                    // frontier, apply some of it, push the rest back under
                    // their original keys.
                    _ => {
                        let limit = match rng.uniform_usize(0, 4) {
                            0 => limit_near_head(&q, &mut rng),
                            _ => SimTime::MAX,
                        };
                        let a = q.heap.take_frontier(limit);
                        let b = q.calendar.take_frontier(limit);
                        assert_eq!(keys(&a), keys(&b), "take_frontier ({ctx:?})");
                        assert!(a.windows(2).all(|w| w[0].time == w[1].time));
                        if let Some(first) = a.first() {
                            now = first.time.as_micros();
                            frontiers += 1;
                        }
                        for (x, y) in a.into_iter().zip(b) {
                            if rng.chance(0.5) {
                                q.heap.push(x);
                                q.calendar.push(y);
                                repushed += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(pending(&q.heap), pending(&q.calendar), "seed {seed}");
            assert_eq!(drain(&mut q.heap), drain(&mut q.calendar), "seed {seed}");
            // Every arm must have done its work, or the equality is vacuous.
            assert!(
                refused > 50 && frontiers > 200 && repushed > 100,
                "seed {seed}: {refused} refusals, {frontiers} frontiers, {repushed} re-pushes"
            );
            assert!(
                grown > MIN_BUCKETS && shrunk,
                "seed {seed}: the calendar must resize both ways mid-run"
            );
        }
    }

    /// The `calendar-rewidth` regression (found by `bdps-mc`'s model of the
    /// same name): eight events clustered in the first seconds, one parked
    /// at 300 s, and a level population — every pop schedules one follow-up
    /// — so no growth or shrink resize ever refreshes the initial 1 ms
    /// width. Every pop then misses the year scan, and the eighth
    /// consecutive miss must re-estimate the width without perturbing the
    /// pop order.
    #[test]
    fn level_population_rewidth_on_sparse_pops_matches_the_heap() {
        let mut q = Pair::new();
        for second in 1..=4u64 {
            q.push(second * 1_000_000);
            q.push(second * 1_000_000);
        }
        q.push(300_000_000);
        let mut rewidths = 0u32;
        for step in 0..40u64 {
            let due_for_rewidth = q.calendar.sparse_pops >= SPARSE_POPS_BEFORE_REWIDTH;
            let width_before = q.calendar.width;
            let now = q
                .pop(SimTime::MAX, step)
                .expect("the population stays level");
            if due_for_rewidth {
                assert_ne!(q.calendar.width, width_before, "step {step}: no re-width");
                rewidths += 1;
            }
            // One follow-up per pop, a hop (0.5–1.5 s) later.
            q.push(now + 500_000 + (step * 7 % 11) * 100_000);
            assert_eq!(q.calendar.len(), 9);
            assert_eq!(q.calendar.buckets.len(), MIN_BUCKETS, "population is level");
        }
        assert!(
            rewidths > 0,
            "the sequence never reached the sparse-pop re-width it exists to cover"
        );
        assert_eq!(drain(&mut q.heap), drain(&mut q.calendar));
    }

    /// `Simulation::fork` clones the queue as it stands — cursor mid-year,
    /// buckets resized, sparse-pop count and all. The clone must pop exactly
    /// what the original pops from there on, under the same later pushes.
    #[test]
    fn a_calendar_cloned_mid_sequence_pops_like_its_original() {
        for seed in 1..=5u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut original = CalendarQueue::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            let mut schedule = |q: &mut CalendarQueue<u64>, now: u64, rng: &mut SimRng| {
                seq += 1;
                let e = ev(now + rng.uniform_usize(0, 3_000_000) as u64, seq);
                q.push(e.clone());
                e
            };
            for _ in 0..200 {
                schedule(&mut original, now, &mut rng);
            }
            for _ in 0..120 {
                now = original.pop().expect("events pending").time.as_micros();
                if rng.chance(0.3) {
                    schedule(&mut original, now, &mut rng);
                }
            }
            let mut fork = original.clone();
            assert_eq!(pending(&original), pending(&fork), "seed {seed}");
            for _ in 0..300 {
                if rng.chance(0.4) {
                    let e = schedule(&mut original, now, &mut rng);
                    fork.push(e);
                } else {
                    let a = original.pop().map(|e| e.key());
                    assert_eq!(a, fork.pop().map(|e| e.key()), "seed {seed}");
                    now = a.map_or(now, |(time, _)| time.as_micros());
                }
            }
            assert_eq!(drain(&mut original), drain(&mut fork), "seed {seed}");
        }
    }

    /// Regression for the cursor pull-back guard (the `cursor_top - width`
    /// threshold used to be computed with a saturating subtraction, which
    /// clamps to 0 whenever `cursor_top < width` and silently skips the
    /// pull-back): events enqueued at t=0 *after* pops have advanced the
    /// cursor far past the first day must still pop in exact heap order.
    #[test]
    fn t0_enqueues_behind_an_advanced_cursor_match_the_heap() {
        let mut q = Pair::new();
        for k in 0..100u64 {
            q.push(10_000 + k * 1_000);
        }
        // Drain most of the population so the committed cursor sits many
        // days past t=0 (and shrink resizes re-anchor it along the way).
        for _ in 0..80 {
            q.pop(SimTime::MAX, "drain").expect("events pending");
        }
        // Now enqueue at and around t=0 — a day strictly before the
        // cursor's, exactly the pull-back case.
        for t in [0u64, 0, 1, 5, 0, 3] {
            q.push(t);
        }
        assert_eq!(drain(&mut q.heap), drain(&mut q.calendar));
    }

    /// The construction-order variant: a sparse far-future stream first
    /// (forcing growth resizes that re-estimate a huge bucket width, the
    /// regime where `cursor_top` and `width` are closest), then a burst of
    /// t=0 enqueues that must surface before everything else.
    #[test]
    fn wide_resize_then_t0_burst_matches_the_heap() {
        let mut q = Pair::new();
        for k in 0..40u64 {
            q.push(3_600_000_000 * (k + 1));
        }
        for _ in 0..10 {
            q.push(0);
        }
        let order = drain(&mut q.calendar);
        assert_eq!(order, drain(&mut q.heap));
        assert!(
            order[..10].iter().all(|&(t, _)| t == SimTime::ZERO),
            "the t=0 burst must pop first: {order:?}"
        );
    }

    #[test]
    fn calendar_resizes_up_and_down_without_losing_events() {
        let mut q = CalendarQueue::new();
        for seq in 0..10_000u64 {
            q.push(ev(seq * 13, seq));
        }
        assert_eq!(q.len(), 10_000);
        assert!(q.buckets.len() > MIN_BUCKETS, "must have grown");
        let order = drain(&mut q);
        assert_eq!(order.len(), 10_000);
        assert!(order.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "must have shrunk back");
        assert!(q.pop().is_none());
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut q = CalendarQueue::new();
        // One event years beyond the initial calendar span.
        q.push(ev(10_000_000_000, 1));
        q.push(ev(5, 2));
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 1, "direct search must find the tail");
        assert!(q.pop().is_none());
    }

    #[test]
    fn take_frontier_returns_all_same_instant_events_in_seq_order() {
        for (name, mut q) in both_queues() {
            q.push(ev(100, 3));
            q.push(ev(100, 1));
            q.push(ev(200, 2));
            q.push(ev(100, 4));
            let frontier = q.take_frontier(SimTime::MAX);
            assert_eq!(
                frontier.iter().map(|e| e.seq).collect::<Vec<_>>(),
                vec![1, 3, 4],
                "{name}"
            );
            assert!(frontier.iter().all(|e| e.time.as_micros() == 100));
            assert_eq!(q.len(), 1, "{name}");
            // Re-inserting with the original seq restores the pop order.
            for e in frontier {
                q.push(e);
            }
            assert_eq!(q.pop().unwrap().seq, 1, "{name}");
        }
    }

    #[test]
    fn take_frontier_respects_the_limit_and_empty_queue() {
        for (name, mut q) in both_queues() {
            assert!(q.take_frontier(SimTime::MAX).is_empty(), "{name}");
            q.push(ev(500, 1));
            assert!(
                q.take_frontier(SimTime::from_micros(499)).is_empty(),
                "{name}"
            );
            assert_eq!(q.len(), 1);
            assert_eq!(q.take_frontier(SimTime::from_micros(500)).len(), 1);
            assert!(q.is_empty(), "{name}");
        }
    }
}
