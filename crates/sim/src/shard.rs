//! Sharded multi-core executor with conservative time windows.
//!
//! The sequential engine ([`crate::engine`]) pops one global event queue in
//! `(time, key)` order. This module partitions the brokers into `N`
//! contiguous shards — each owning a per-shard event queue, the broker
//! states homed to it, and the RNG streams of the publishers and links homed
//! to it — and advances the shards on worker threads under **conservative
//! time-window synchronisation** in the PDES sense: the processing delay
//! `PD` is a lookahead bound, so all events in a window `[t₀, t₀ + PD)` can
//! be processed shard-locally and any cross-shard event they generate lands
//! at or after the window's end, where the coordinator merges the shards'
//! outboxes deterministically before opening the next window.
//!
//! # Why the N-shard run is bit-identical to the sequential run
//!
//! * **Disjoint state, one set of handlers.** A shard is a
//!   `TrafficCore` — the same type the sequential engine steps — holding
//!   a contiguous block of the brokers, and its worker runs the engine's own
//!   traffic handlers on it (`TrafficCore::apply`; there is no second copy
//!   of the broker loop here). Every handler writes only the core state of
//!   the entity that owns the event — the publisher's RNG/counter for
//!   `Publish`, the broker for `Process`, the link and its *sender* broker
//!   for `SendComplete`/`try_send` — and reads the `Shared` context
//!   (topology, link liveness, the global filter index), which only
//!   scenario barriers mutate. Publishers are homed with their broker and
//!   links with their sender, so a shard's window never writes another
//!   shard's state.
//! * **Lookahead.** The only cross-shard edge is the `Process` event a
//!   completed transfer schedules at the *receiving* broker, always at
//!   `t + PD`. A window whose pop limit is `t₀ + PD − 1µs` therefore only
//!   produces cross-shard events strictly after the limit, which the next
//!   window's merge delivers before they are due: no shard ever misses an
//!   event, regardless of interleaving.
//! * **Entity-owned RNG streams.** Publication gaps, message content and
//!   transfer times are drawn from per-entity streams derived from the seed
//!   alone, so the draw sequences are independent of how events of *other*
//!   entities interleave — each shard replays exactly the draws the
//!   sequential run makes.
//! * **Ordered effect replay.** Global accumulations whose result is
//!   order-sensitive (the objective tracker's floating-point earning/delay
//!   sums, the per-phase delay summaries) are reached by the handlers only
//!   through an `EffectSink`. The sequential engine's sink is the totals
//!   themselves; a worker's sink logs each effect stamped with the event's
//!   canonical `(time, key)` and a per-event emission index, and at every
//!   window barrier the coordinator sorts the union of the logs by
//!   `(time, key, idx)` — the exact order the sequential loop applies them
//!   in — and feeds them to the same `Totals::emit`.
//! * **Scenario barriers.** Scenario events (rank-0 keys, always applied
//!   before same-instant traffic) mutate genuinely global state: routing,
//!   subscription tables, the shared population registry. The coordinator
//!   stops the windows before each scenario instant, gathers the shards
//!   back into the [`Simulation`], applies the instant's scenario batch
//!   through the engine's own [`Simulation::try_apply`] (so rebuild
//!   coalescing, churn and phase accounting run the exact sequential code),
//!   then scatters the state out again.
//!
//! Fields the engine's outcome exposes for *introspection* rather than for
//! the paper's metrics — the peak queue length and the scope-interner
//! hit-rate — are queue-shape-dependent and may differ from the sequential
//! run; everything [`crate::report::SimulationReport`] is built from is
//! reproduced exactly. The scope-interner counters are summed over the
//! shards' pools (each shard interns on its own, so the hit count depends on
//! the partition).

use std::iter::Peekable;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;

use bdps_net::linkmodel::LinkModelKind;
use bdps_stats::rng::SimRng;
use bdps_types::time::{Duration, SimTime};

use crate::engine::{EventKind, ForwardingMode, SimError, Simulation, SimulationOutcome};
use crate::sched::{EventQueue, Scheduled};
use crate::traffic::{Effect, EffectSink, Shared, TrafficCore};

/// Windows pop up to `W1 − ε` inclusive; one microsecond is the clock's
/// resolution, so `W1 − ε` is "strictly before `W1`".
const EPSILON: Duration = Duration::from_micros(1);

/// Runs the simulation on `shards` worker threads, panicking on the failures
/// [`try_run_sharded`] surfaces as [`SimError`] (mirrors
/// [`Simulation::run`]).
pub fn run_sharded(sim: Simulation, shards: usize) -> SimulationOutcome {
    match try_run_sharded(sim, shards) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{e}"),
    }
}

/// Runs the simulation partitioned into `shards` broker shards advanced by
/// worker threads, producing a [`SimulationOutcome`] whose report is
/// bit-identical to the sequential [`Simulation::try_run`].
///
/// Falls back to the sequential loop when sharding cannot help or the
/// lookahead bound is void: one shard requested, fewer brokers than would
/// fill two shards, or a zero processing delay (no lookahead).
///
/// # Errors
///
/// Returns [`SimError::ShardedLinkModelUnsupported`] when more than one
/// shard would actually run and the configured link model is not the
/// constant-delay oracle: a sharing model's completion re-scheduling can
/// *move* an already-scheduled completion, so a cross-shard `Process`
/// arrival is no longer pinned at `t + PD` and the conservative window
/// argument above does not hold. Aggregate-scoped forwarding is likewise
/// rejected ([`SimError::ShardedForwardingUnsupported`]): edge expansion
/// reads the shared population registry at delivery time, racing churn
/// applied by sibling shards. Both are decided from the configuration and
/// the shard count alone, before any event is applied.
pub fn try_run_sharded(mut sim: Simulation, shards: usize) -> Result<SimulationOutcome, SimError> {
    let pd = sim.shared.scheduler.processing_delay;
    let n = shards.min(sim.shared.topology.graph.broker_count());
    if n <= 1 || pd == Duration::ZERO {
        return sim.try_run();
    }
    let model = sim.shared.link_model;
    if model != LinkModelKind::Constant {
        return Err(SimError::ShardedLinkModelUnsupported {
            model: model.name(),
        });
    }
    if sim.shared.forwarding == ForwardingMode::Aggregate {
        return Err(SimError::ShardedForwardingUnsupported);
    }

    let homes = Homes::build(&sim, n);
    let hard_stop = sim.hard_stop();
    let (mut shards, scenario_q) = init_shards(&mut sim, &homes, n);
    let mut scenario_q = scenario_q.into_iter().peekable();

    loop {
        // Scenario keys rank lowest, so the windows stop strictly before the
        // next scenario instant and its batch applies before any traffic at
        // that instant — exactly the sequential pop order.
        let t_scen = scenario_q
            .peek()
            .map(|e| e.time)
            .filter(|&t| t <= hard_stop);
        run_era(&mut sim, &mut shards, &homes, t_scen, hard_stop, pd)?;
        let Some(t) = t_scen else { break };
        apply_scenario_instant(&mut sim, &mut shards, &mut scenario_q, t, &homes)?;
    }

    // Finalise: merge the shards back, return unprocessed events (past the
    // hard stop) to the global queue so the end-of-run conservation
    // accounting sees them, and advance the clock to the last applied event.
    gather(&mut sim, &mut shards, &homes);
    let (mut interns, mut hits) = (0, 0);
    for Shard { core, .. } in &mut shards {
        while let Some(e) = core.events.pop() {
            sim.core.events.push(e);
        }
        sim.core.events_processed += core.events_processed;
        sim.core.peak_pending = sim.core.peak_pending.max(core.peak_pending);
        sim.core.now = sim.core.now.max(core.now);
        interns += core.scope_interner.interns();
        hits += core.scope_interner.hits();
    }
    for e in scenario_q {
        sim.core.events.push(e);
    }
    // Every shard interned into its own pool; the outcome reports the
    // traffic they served together (a partition-dependent value — a scope
    // shared across shards is allocated once per shard).
    let mut outcome = sim.into_outcome();
    outcome.scope_interns += interns;
    outcome.scope_intern_hits += hits;
    Ok(outcome)
}

/// Where every entity lives: shard of each broker (contiguous blocks), of
/// each publisher (its broker's shard) and of each link (its *sender*'s
/// shard, because `SendComplete` and `try_send` touch the sender's queue).
struct Homes {
    shard_of_broker: Vec<usize>,
    publisher: Vec<usize>,
    link: Vec<usize>,
}

impl Homes {
    fn build(sim: &Simulation, n: usize) -> Homes {
        let b = sim.core.brokers.len();
        let shard_of_broker: Vec<usize> = (0..b).map(|i| i * n / b).collect();
        let topology = &sim.shared.topology;
        let mut publisher = vec![0usize; sim.core.publisher_rng.len()];
        for (p, broker) in &topology.publishers {
            publisher[p.index()] = shard_of_broker[broker.index()];
        }
        let mut link = vec![0usize; sim.core.link_rng.len()];
        for l in topology.graph.links() {
            link[l.id.index()] = shard_of_broker[l.from.index()];
        }
        Homes {
            shard_of_broker,
            publisher,
            link,
        }
    }

    /// The shard that owns a traffic event: its publisher's, its broker's,
    /// or its link's.
    fn of(&self, kind: &EventKind) -> usize {
        match kind {
            EventKind::Publish { publisher, .. } => self.publisher[publisher.index()],
            EventKind::Process { broker, .. } => self.shard_of_broker[broker.index()],
            EventKind::SendComplete { link, .. } | EventKind::FlowComplete { link, .. } => {
                self.link[link.index()]
            }
            EventKind::Scenario { .. } => unreachable!("scenario events are coordinator-owned"),
        }
    }
}

/// What one worker advances: a [`TrafficCore`] holding the shard's block of
/// brokers (and the live slots of the publishers and links homed to it),
/// plus the log its handlers' effects go to.
struct Shard {
    core: TrafficCore,
    log: EffectLog,
}

impl Shard {
    fn peek_time(&self) -> Option<SimTime> {
        self.core.events.peek().map(|(t, _)| t)
    }
}

/// The workers' [`EffectSink`]: instead of touching the order-sensitive
/// totals, stamp each effect with its canonical replay coordinates — the
/// emitting event's `(time, key)` and the emission index within it.
#[derive(Default)]
struct EffectLog {
    entries: Vec<(Stamp, Effect)>,
    next: Stamp,
}

type Stamp = (SimTime, u64, u32);

impl EffectSink for EffectLog {
    fn emit(&mut self, effect: Effect) {
        self.entries.push((self.next, effect));
        self.next.2 += 1;
    }
}

/// Builds the per-shard cores and splits the simulation's state into them.
/// Scenario events — coordinator-owned — are returned separately, in
/// `(time, key)` order.
fn init_shards(
    sim: &mut Simulation,
    homes: &Homes,
    n: usize,
) -> (Vec<Shard>, Vec<Scheduled<EventKind>>) {
    // Placeholder streams: only the slots of entities homed to a shard ever
    // go live, by swapping with the simulation's (see `swap_entities`).
    let idle = |len: usize| (0..len).map(|_| SimRng::seed_from(0)).collect();
    let mut shards: Vec<Shard> = (0..n)
        .map(|s| Shard {
            core: TrafficCore::new(
                idle(sim.core.publisher_rng.len()),
                idle(sim.core.link_rng.len()),
                // n ≤ brokers, so every shard's block is non-empty.
                homes.shard_of_broker.partition_point(|&home| home < s),
            ),
            log: EffectLog::default(),
        })
        .collect();
    scatter(sim, &mut shards, homes);
    let mut scenario_q = Vec::new();
    while let Some(e) = sim.core.events.pop() {
        if matches!(e.item, EventKind::Scenario { .. }) {
            scenario_q.push(e);
        } else {
            shards[homes.of(&e.item)].core.accept(e);
        }
    }
    (shards, scenario_q)
}

/// Swaps the per-publisher and per-link slots between the simulation's core
/// and the core each entity is homed to — its own inverse, so it serves both
/// directions: whichever side does not own a slot holds a value nobody
/// reads. (Flow tables and publish epochs stay put: the guards in
/// [`try_run_sharded`] keep both empty on a sharded run.)
fn swap_entities(sim: &mut TrafficCore, shards: &mut [Shard], homes: &Homes) {
    use std::mem::swap;
    for (i, &s) in homes.publisher.iter().enumerate() {
        let core = &mut shards[s].core;
        swap(&mut sim.publisher_rng[i], &mut core.publisher_rng[i]);
        swap(&mut sim.next_message[i], &mut core.next_message[i]);
    }
    for (i, &s) in homes.link.iter().enumerate() {
        let core = &mut shards[s].core;
        swap(&mut sim.link_rng[i], &mut core.link_rng[i]);
        swap(&mut sim.link_busy[i], &mut core.link_busy[i]);
        swap(&mut sim.link_last_change[i], &mut core.link_last_change[i]);
        swap(&mut sim.link_load[i], &mut core.link_load[i]);
    }
}

/// Moves the shard-owned state back into the simulation's core (for a
/// scenario barrier or finalisation). Inverse of [`scatter`].
fn gather(sim: &mut Simulation, shards: &mut [Shard], homes: &Homes) {
    debug_assert!(sim.core.brokers.is_empty(), "gather on an un-scattered sim");
    for shard in shards.iter_mut() {
        sim.core.brokers.append(&mut shard.core.brokers);
        debug_assert!(shard.log.entries.is_empty() && shard.core.outbox.is_empty());
    }
    swap_entities(&mut sim.core, shards, homes);
}

/// Distributes the simulation's broker states and entity slots out to the
/// shard cores. Inverse of [`gather`].
fn scatter(sim: &mut Simulation, shards: &mut [Shard], homes: &Homes) {
    for (broker, &s) in sim.core.brokers.drain(..).zip(&homes.shard_of_broker) {
        shards[s].core.brokers.push(broker);
    }
    swap_entities(&mut sim.core, shards, homes);
}

/// Applies the full scenario batch at instant `t` through the engine's own
/// handlers: gather the shards into the simulation, inject the instant's
/// scenario events into the global queue (so the rebuild-coalescing peek
/// sees exactly the same same-instant batch the sequential run would),
/// apply them in key order, then route any follow-up traffic they minted
/// (rate-change publications, post-recovery transfers) and scatter back.
fn apply_scenario_instant(
    sim: &mut Simulation,
    shards: &mut [Shard],
    scenario_q: &mut Peekable<impl Iterator<Item = Scheduled<EventKind>>>,
    t: SimTime,
    homes: &Homes,
) -> Result<(), SimError> {
    gather(sim, shards, homes);
    while let Some(e) = scenario_q.next_if(|e| e.time == t) {
        sim.core.events.push(e);
    }
    loop {
        let next_is_scenario = matches!(
            sim.core.events.peek(),
            Some((pt, EventKind::Scenario { .. })) if pt == t
        );
        if !next_is_scenario {
            break;
        }
        let e = sim.core.events.pop().expect("peeked event");
        sim.try_apply(e)?;
    }
    // Whatever the batch scheduled is ordinary traffic owned by some shard;
    // hand it over for the following windows (its times are ≥ t, so the
    // next window cannot have passed it).
    while let Some(e) = sim.core.events.pop() {
        shards[homes.of(&e.item)].core.accept(e);
    }
    scatter(sim, shards, homes);
    Ok(())
}

/// Runs windows until every pending traffic event is past `hard_stop` or at
/// or beyond the next scenario instant `t_scen`.
///
/// Workers persist for the whole era: each owns a job channel over which the
/// coordinator sends `(shard, limit)` and a shared completion channel going
/// back. A window sends only the shards with work at or before the limit;
/// returned shards have their outboxes routed and their effect logs merged —
/// sorted by `(time, key, idx)` — into the simulation's totals.
fn run_era(
    sim: &mut Simulation,
    shards: &mut Vec<Shard>,
    homes: &Homes,
    t_scen: Option<SimTime>,
    hard_stop: SimTime,
    pd: Duration,
) -> Result<(), SimError> {
    // Whether a window may start at `t0`: inside the run and strictly
    // before the scenario instant. No such window — consecutive scenario
    // instants, a drained run — means no era, and no threads.
    let due = |t0: SimTime| t0 <= hard_stop && t_scen.is_none_or(|ts| t0 < ts);
    if !shards.iter().filter_map(Shard::peek_time).any(due) {
        return Ok(());
    }
    let n = shards.len();
    let shared = &sim.shared;
    let totals = &mut sim.totals;
    let mut slots: Vec<Option<Shard>> = shards.drain(..).map(Some).collect();

    let result = thread::scope(|s| -> Result<(), SimError> {
        let (done_tx, done_rx) = mpsc::channel::<(usize, Result<Shard, String>)>();
        let mut job_tx: Vec<mpsc::SyncSender<(Shard, SimTime)>> = Vec::with_capacity(n);
        for shard in 0..n {
            let (tx, rx) = mpsc::sync_channel::<(Shard, SimTime)>(1);
            job_tx.push(tx);
            let done = done_tx.clone();
            s.spawn(move || {
                while let Ok((mut job, limit)) = rx.recv() {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        run_window(&mut job, shared, limit);
                        job
                    }))
                    .map_err(panic_message);
                    let died = outcome.is_err();
                    if done.send((shard, outcome)).is_err() || died {
                        return;
                    }
                }
            });
        }
        drop(done_tx);

        let mut merged: Vec<(Stamp, Effect)> = Vec::new();
        loop {
            let t0 = slots
                .iter()
                .filter_map(|c| c.as_ref().and_then(Shard::peek_time))
                .min();
            let Some(t0) = t0.filter(|&t0| due(t0)) else {
                break;
            };
            // Conservative window: every event popped at or before `limit`
            // schedules cross-shard work at ≥ t₀ + PD > limit.
            let mut limit = (t0 + pd) - EPSILON;
            if let Some(ts) = t_scen {
                limit = limit.min(ts - EPSILON);
            }
            limit = limit.min(hard_stop);

            let mut outstanding = 0usize;
            for (shard, tx) in job_tx.iter().enumerate() {
                let due = slots[shard]
                    .as_ref()
                    .and_then(Shard::peek_time)
                    .is_some_and(|t| t <= limit);
                if due {
                    let job = slots[shard].take().expect("shard is home");
                    if tx.send((job, limit)).is_err() {
                        return Err(SimError::WorkerPanicked {
                            shard,
                            message: "worker exited before the window was dispatched".into(),
                        });
                    }
                    outstanding += 1;
                }
            }
            for _ in 0..outstanding {
                let (shard, outcome) = done_rx.recv().map_err(|_| SimError::WorkerPanicked {
                    shard: usize::MAX,
                    message: "all workers exited mid-window".into(),
                })?;
                match outcome {
                    Ok(mut job) => {
                        merged.append(&mut job.log.entries);
                        slots[shard] = Some(job);
                    }
                    Err(message) => return Err(SimError::WorkerPanicked { shard, message }),
                }
            }
            // Replay in the exact order the sequential loop applies them,
            // through the same update code.
            merged.sort_by_key(|&(stamp, _)| stamp);
            for (_, effect) in merged.drain(..) {
                totals.emit(effect);
            }
            for shard in 0..n {
                let home = slots[shard].as_mut().expect("every shard is home");
                for ev in std::mem::take(&mut home.core.outbox) {
                    debug_assert!(ev.time > limit, "cross-shard event inside the window");
                    let dest = slots[homes.of(&ev.item)]
                        .as_mut()
                        .expect("every shard is home");
                    dest.core.accept(ev);
                }
            }
        }
        Ok(())
    });

    shards.extend(slots.into_iter().flatten());
    result
}

/// Pops and applies every event of one shard at or before `limit`,
/// including the shard-local follow-ups those events schedule inside the
/// window — the engine's own handlers, run on this shard's core.
fn run_window(shard: &mut Shard, shared: &Shared, limit: SimTime) {
    while let Some(entry) = shard.core.events.pop_if_at_or_before(limit) {
        shard.log.next = (entry.time, entry.seq, 0);
        shard.core.apply(shared, &mut shard.log, entry);
    }
}

/// Extracts a human-readable message from a worker's panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
