//! Memory certificates, counted by the allocator rather than read off a
//! process's peak RSS: this binary installs a counting global allocator over
//! [`System`] and measures the live bytes a structure holds as the bytes its
//! construction left allocated.
//!
//! The counters are thread-local, so the other tests of this binary, running
//! on their own threads, cannot leak into a measurement. A measured build
//! must therefore allocate and keep its memory on the measuring thread.

use bdps::prelude::*;
use bdps::sim::workload::WorkloadConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: a thread being torn down frees after its counter is gone.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
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
