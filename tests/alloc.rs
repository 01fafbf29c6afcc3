//! Memory certificates, counted by the allocator rather than read off a
//! process's peak RSS: this binary installs a counting global allocator over
//! [`System`] and measures the live bytes a structure holds as the bytes its
//! construction left allocated, and the allocations a hot path makes as the
//! calls the allocator saw.
//!
//! The counters are thread-local, so the other tests of this binary, running
//! on their own threads, cannot leak into a measurement. A measured build
//! must therefore allocate and keep its memory on the measuring thread.
//! The live bytes' high-water mark is kept too, so a step that copies a
//! structure and frees the original still shows the copy.

use bdps::core::queue::OutputQueue;
use bdps::overlay::pathstats::PathStats;
use bdps::prelude::*;
use bdps::sim::workload::WorkloadConfig;
use bdps::stats::normal::Normal;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since a measurement reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: a thread being torn down frees after its counter is gone.
    if delta > 0 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// [`System`], counting every byte it hands out and takes back.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `build` returns, and the bytes it left live on this thread.
fn live_bytes<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    let value = build();
    let after = LIVE.with(Cell::get);
    (
        value,
        usize::try_from(after - before).expect("a build frees no more than it took"),
    )
}

/// The paper workload's subscriptions for 10 000 subscribers, 625 per edge
/// broker over 16 edges, ids minted edge by edge as the topology does.
fn population_10k() -> Vec<(Subscription, BrokerId)> {
    let workload = WorkloadConfig::paper_ssd(6.0);
    let mut rng = SimRng::seed_from(1);
    (0..10_000u32)
        .map(|i| {
            let sub = workload.generate_subscription(
                SubscriptionId::new(i),
                SubscriberId::new(i),
                &mut rng,
            );
            (sub, BrokerId::new(16 + i / 625))
        })
        .collect()
}

/// The counter sees exactly what a value holds.
#[test]
fn the_counter_sees_a_held_buffer_and_its_release() {
    let start = LIVE.with(Cell::get);
    let (buffer, held) = live_bytes(|| Vec::<u64>::with_capacity(1_000));
    assert_eq!(held, 8_000);
    let (grown, held) = live_bytes(|| {
        let mut grown = buffer;
        grown.reserve_exact(2_000);
        grown
    });
    assert_eq!(held, 8_000, "a reallocation counts its growth");
    drop(grown);
    assert_eq!(
        LIVE.with(Cell::get),
        start,
        "a freed buffer is no longer counted"
    );
}

/// Exact forwarding's registry keeps records, slot tags and member ids but
/// no covers (forest, summaries, QoS folds): at 10k subscribers it holds at
/// most `EXACT_SHARE_PERCENT` of the full registry's live bytes.
#[test]
fn a_registry_without_covers_holds_a_fraction_of_the_full_one() {
    /// Measured on x86-64 Linux: 1 119 128 of 2 988 336 bytes (37 %).
    const EXACT_SHARE_PERCENT: usize = 40;
    let subs = population_10k();
    let (full, full_bytes) = live_bytes(|| SharedPopulation::from_population(&subs));
    let (exact, exact_bytes) = live_bytes(|| SharedPopulation::without_covers(&subs));
    assert_eq!(exact.state_digest(), full.state_digest());
    let share = exact_bytes * 100 / full_bytes;
    assert!(
        share <= EXACT_SHARE_PERCENT,
        "the registry without covers holds {exact_bytes} bytes, {share} % of the full \
         registry's {full_bytes}"
    );
}

/// A finished run hands its results to the outcome by moving them: the
/// on-time delays live in one record, and `into_outcome` never holds a
/// second copy of it, even for a moment.
#[test]
fn an_outcome_moves_the_runs_delay_record_instead_of_copying_it() {
    // Built and stepped here, so every byte of the run is on this thread.
    let mut sim = Simulation::builder()
        .ssd(6.0)
        .duration(Duration::from_secs(1_200))
        .seed(7)
        .build();
    let stop = sim.hard_stop();
    while sim.step_next(stop) {}
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let outcome = sim.into_outcome();
    let peak = (PEAK.with(Cell::get) - before) as usize;
    let on_time = outcome.valid_delays_ms.count();
    assert!(on_time >= 10_000, "only {on_time} on-time pairs");
    assert!(
        peak < 8 * on_time,
        "into_outcome held {peak} bytes above its start, a delay record {}",
        8 * on_time
    );
}

/// A queued copy of 12 targets in 6 success classes: three paths of one to
/// three hops, each under a 10 s and a 30 s bound.
fn six_class_copy(id: u64) -> QueuedMessage {
    let message = Message::builder(MessageId::new(id))
        .publish_time(SimTime::from_millis(100 * id))
        .size_kb(50.0)
        .build();
    let mut copy = QueuedMessage::new(Arc::new(message), SimTime::from_secs(4));
    let hop = Normal::new(60.0, 20.0);
    for j in 0..12u32 {
        let stats = PathStats::from_links(vec![&hop; 1 + j as usize / 4]);
        let bound = Duration::from_secs([10, 30][j as usize % 2]);
        let class = copy.class_for(stats, bound);
        let (sub, subscriber) = (SubscriptionId::new(j), SubscriberId::new(j));
        copy.push_target(sub, subscriber, Price::unit(), 0, class, BrokerId::new(0));
    }
    copy
}

/// Selecting from an output queue allocates nothing once the queue's class
/// scratch has grown to its widest copy: every strategy scores every copy
/// of every selection into that one scratch.
#[test]
fn a_warm_queue_selects_without_allocating() {
    for name in StrategyHandle::NAMES {
        let config = SchedulerConfig::paper(StrategyHandle::from_name(name).unwrap());
        let mut queue = OutputQueue::new(75.0);
        for id in 0..40 {
            queue.push(six_class_copy(id));
        }
        assert_eq!(queue.items()[0].classes.len(), 6);
        let now = SimTime::from_secs(5);
        queue.pop_next(now, &config).expect("the warm-up selection");
        let before = ALLOCATIONS.with(Cell::get);
        for _ in 0..30 {
            queue.pop_next(now, &config).expect("a queued copy");
        }
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(
            made, 0,
            "{name}: 30 warm selections made {made} allocations"
        );
    }
}
