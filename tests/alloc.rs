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
use bdps::overlay::routing::Routing;
use bdps::overlay::topology::Topology;
use bdps::prelude::*;
use bdps::sim::sched::{EventHeap, EventQueue, Scheduled};
use bdps::sim::workload::WorkloadConfig;
use bdps::stats::normal::Normal;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, RwLock};

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
    let mut draft = CopyDraft::default();
    let hop = Normal::new(60.0, 20.0);
    for j in 0..12u32 {
        let stats = PathStats::from_links(vec![&hop; 1 + j as usize / 4]);
        let bound = Duration::from_secs([10, 30][j as usize % 2]);
        let class = draft.class_for(stats, bound);
        let (sub, subscriber) = (SubscriptionId::new(j), SubscriberId::new(j));
        draft.push_target(sub, subscriber, Price::unit(), 0, class, BrokerId::new(0));
    }
    draft.to_copy(&Arc::new(message), SimTime::from_secs(4))
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

/// Allocator calls per processed event of a paper-regime run past its
/// warm-up: the paper topology and population, EB at 12 publications per
/// minute, stepped on this thread from 200 s to 1000 s. An arrival
/// allocates only the copies it keeps, and a selection nothing.
#[test]
fn a_paper_run_allocates_a_fixed_count_per_event() {
    // Measured on x86-64 Linux: SSD 24 303 allocations over 16 316 events,
    // PSD 21 650 over 14 994. Before copies were staged in a reused arrival
    // scratch the same events made 50 945 and 43 902.
    for (workload, per_1000_events) in [("SSD", 1_490), ("PSD", 1_444)] {
        let builder = Simulation::builder()
            .duration(Duration::from_secs(1_200))
            .seed(3);
        let builder = match workload {
            "SSD" => builder.ssd(12.0),
            _ => builder.psd(12.0),
        };
        let mut sim = builder.build();
        while sim.step_next(SimTime::from_secs(200)) {}
        let before = ALLOCATIONS.with(Cell::get);
        let mut events = 0u64;
        while sim.step_next(SimTime::from_secs(1_000)) {
            events += 1;
        }
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert!(events > 10_000, "{workload}: only {events} events");
        assert!(
            made * 1_000 <= per_1000_events * events,
            "{workload}: {made} allocations over {events} events"
        );
    }
}

/// Line B0 - B1 - B2 at a fixed 60 ms/KB, three subscriptions at B2 under
/// two bounds, and the broker at each position.
fn line_brokers(config: &SchedulerConfig) -> [BrokerState; 3] {
    let mut rng = SimRng::seed_from(1);
    let topo = Topology::line(3, &mut rng, |_| LinkQuality::fixed(60.0));
    let routing = Routing::compute(&topo.graph);
    let subs: Vec<(Subscription, BrokerId)> = (0..3u32)
        .map(|i| {
            let qos = QosClass::new(
                DelayBound::from_secs([60, 600][i as usize % 2]),
                Price::unit(),
            );
            let (id, subscriber) = (SubscriptionId::new(i), SubscriberId::new(i));
            let sub =
                Subscription::with_qos(id, subscriber, Filter::paper_conjunction(9.0, 9.0), qos);
            (sub, BrokerId::new(2))
        })
        .collect();
    let pop: PopulationHandle = Arc::new(RwLock::new(SharedPopulation::from_population(&subs)));
    [0, 1, 2].map(|b| {
        let b = BrokerId::new(b);
        let table = SparseTable::build(b, &routing, &pop);
        BrokerState::from_overlay(&topo.graph, b, table, config.clone())
    })
}

/// An arrival allocates exactly the copies it keeps, one `targets` and one
/// `classes` each at their exact length: a warm publication at its first
/// broker and a warm arrival of a copy that crossed a link, each going on
/// over one next hop, make two allocations, and one that only delivers
/// locally makes none.
#[test]
fn a_warm_arrival_allocates_only_the_copy_it_keeps() {
    let config = SchedulerConfig::paper(StrategyKind::MaxEb);
    let [mut b0, mut b1, mut b2] = line_brokers(&config);
    let (to_b1, to_b2) = (BrokerId::new(1), BrokerId::new(2));
    let scope = ScopeSet::from_sorted((0..3).map(SubscriptionId::new).collect::<Vec<_>>());
    let (mut out0, mut out1, mut out2) = Default::default();
    for id in 0..3u64 {
        let message = Arc::new(
            Message::builder(MessageId::new(id))
                .publish_time(SimTime::from_secs(id))
                .size_kb(50.0)
                .attr("A1", 1.0)
                .attr("A2", 1.0)
                .build(),
        );
        let now = SimTime::from_secs(id) + Duration::from_millis(2);
        let before = ALLOCATIONS.with(Cell::get);
        b0.arrive_scoped(&mut out0, &message, now, &scope);
        let published = ALLOCATIONS.with(Cell::get) - before;
        let copy = b0
            .next_to_send(to_b1, now)
            .message
            .expect("a copy towards B1");
        let before = ALLOCATIONS.with(Cell::get);
        b1.arrive_forwarded(&mut out1, copy, now);
        let forwarded = ALLOCATIONS.with(Cell::get) - before;
        let copy = b1
            .next_to_send(to_b2, now)
            .message
            .expect("a copy towards B2");
        assert_eq!((copy.targets.len(), copy.classes.len()), (3, 2));
        assert_eq!(copy.targets.capacity(), 3);
        assert_eq!(copy.classes.capacity(), 2);
        let before = ALLOCATIONS.with(Cell::get);
        b2.arrive_forwarded(&mut out2, copy, now);
        let local = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(out2.local.len(), 3);
        if id > 0 {
            assert_eq!(
                published, 2,
                "publication {id} at B0 made {published} allocations"
            );
            assert_eq!(
                forwarded, 2,
                "arrival {id} at B1 made {forwarded} allocations"
            );
            assert_eq!(local, 0, "arrival {id} at B2 made {local} allocations");
        }
    }
}

/// A free link's selection — drops and pick in one pass — allocates
/// nothing once its queue's scratch has grown, under every strategy, with
/// the paper's ε-test and with none.
#[test]
fn a_warm_next_to_send_allocates_nothing() {
    for name in StrategyHandle::NAMES {
        for detection in [InvalidDetection::PAPER, InvalidDetection::Off] {
            let config = SchedulerConfig {
                invalid_detection: detection,
                ..SchedulerConfig::paper(StrategyHandle::from_name(name).unwrap())
            };
            let [mut b0, _, _] = line_brokers(&config);
            let to_b1 = BrokerId::new(1);
            for id in 0..40 {
                assert!(b0.requeue(to_b1, six_class_copy(id)));
            }
            let now = SimTime::from_secs(5);
            b0.next_to_send(to_b1, now)
                .message
                .expect("the warm-up selection");
            let before = ALLOCATIONS.with(Cell::get);
            for _ in 0..30 {
                let send = b0.next_to_send(to_b1, now);
                assert!(send.message.is_some() && send.dropped.is_empty());
            }
            let made = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(
                made, 0,
                "{name} {detection:?}: 30 selections made {made} allocations"
            );
        }
    }
}

/// Popping the event heap allocates nothing.
#[test]
fn an_event_heap_pop_allocates_nothing() {
    let mut heap: EventHeap<u64> = EventHeap::new();
    let mut rng = SimRng::seed_from(2);
    for seq in 0..1_000 {
        let time = SimTime::from_micros(rng.uniform_usize(0, 1_000_000) as u64);
        heap.push(Scheduled {
            time,
            seq,
            item: seq,
        });
    }
    let before = ALLOCATIONS.with(Cell::get);
    let mut popped = 0;
    while heap.pop().is_some() {
        popped += 1;
    }
    assert_eq!(popped, 1_000);
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 0);
}
