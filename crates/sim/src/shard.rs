//! Sharded multi-core executor with conservative time windows.
//!
//! The sequential engine ([`crate::engine`]) pops one global event queue in
//! `(time, key)` order. This module partitions the brokers into `N`
//! contiguous shards — each owning a per-shard event queue, the broker
//! states homed to it, and the RNG streams of the publishers and links homed
//! to it — and advances them under **conservative time-window
//! synchronisation** in the PDES sense: the processing delay `PD`
//! ([`PROCESSING_DELAY`], a constant above zero) is a lookahead bound, so
//! all events in a window `[t₀, t₀ + PD)` can be processed shard-locally
//! and any cross-shard event they generate lands at or after the window's
//! end, where the coordinator routes the shards' outboxes before opening
//! the next window.
//!
//! # Who runs a window
//!
//! The calling thread is the coordinator. A window in which one shard has
//! work at or before its limit — most windows, since a `PD`-wide window
//! holds a couple of events — runs on the coordinator, its effects going
//! straight into the totals as in the sequential loop. In a window with
//! `k ≥ 2` due shards the coordinator runs one of them and hands the other
//! `k − 1` to worker threads. The `N − 1` workers are spawned once per run
//! and joined on every way out of it; a job carries the shard it advances
//! and an `Arc` of the `Shared` context, and comes back with both, so at
//! each barrier the coordinator holds the only reference and may write the
//! context. [`SimulationOutcome`] reports the window counts
//! (`shard_windows`, `shard_parallel_windows`, `shard_handoffs`).
//!
//! # Why the N-shard run is bit-identical to the sequential run
//!
//! * **Disjoint state, one set of handlers.** A shard is a
//!   `TrafficCore` — the same type the sequential engine steps — holding
//!   a contiguous block of the brokers, and a window runs the engine's own
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
//!   window's routing delivers before they are due: no shard ever misses an
//!   event, regardless of interleaving.
//! * **Entity-owned RNG streams.** Publication gaps, message content and
//!   transfer times are drawn from per-entity streams derived from the seed
//!   alone, so the draw sequences are independent of how events of *other*
//!   entities interleave — each shard replays exactly the draws the
//!   sequential run makes.
//! * **Ordered effect replay.** Global accumulations whose result is
//!   order-sensitive (the objective tracker's floating-point earning sum,
//!   the on-time delay record the phases slice) are reached by the handlers
//!   only through an `EffectSink`. A window with one due shard uses the totals
//!   themselves as the sink, like the sequential engine: no other shard has
//!   an event at or before the limit and the shard pops in `(time, key)`
//!   order, so its effects arrive in the sequential order. In a window with
//!   several due shards each shard logs its effects stamped with the
//!   event's canonical `(time, key)` and a per-event emission index, and the
//!   coordinator sorts the union of the logs by `(time, key, idx)` — the
//!   exact order the sequential loop applies them in — and feeds them to the
//!   same `Totals::emit`.
//! * **Scenario barriers.** Scenario events (rank-0 keys, always applied
//!   before same-instant traffic) mutate genuinely global state: routing,
//!   subscription tables, the shared population registry. The coordinator
//!   stops the windows before each scenario instant, moves into the
//!   simulation's core the shard state the instant's batch touches (see
//!   `Touches`: broker states for joins, leaves and link events, link slots
//!   only for a link recovery, publisher slots only for a rate change),
//!   applies the batch through the engine's own `ScenarioCore::apply` (so
//!   rebuild coalescing, churn and phase accounting run the exact
//!   sequential code), then moves that state back.
//!
//! What the sequential run is reproduced *exactly* is
//! [`SimulationOutcome::replay_state`]: the run digest — every effect
//! folded through `Totals::emit` in the `(time, key, idx)` replay order, so
//! it matches by construction — plus the state the digest does not fold
//! (per-broker counters, per-link loads, per-phase breakdowns) and the
//! order-sensitive sums (earning, the on-time delay record). Fields the
//! outcome exposes for *introspection* rather than for the paper's metrics
//! — the peak pending-event count and the scope-interner hit-rate — are
//! queue-shape-dependent and may differ from the sequential run. The
//! scope-interner counters are summed over the shards' pools (each shard
//! interns on its own, so the hit count depends on the partition).

use std::iter::Peekable;
use std::mem::{swap, take};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;

use bdps_core::config::PROCESSING_DELAY;
use bdps_net::linkmodel::LinkModelKind;
use bdps_stats::rng::SimRng;
use bdps_types::time::{Duration, SimTime};

use crate::engine::{EventKind, ForwardingMode, SimError, Simulation, SimulationOutcome};
use crate::scenario::ScenarioAction;
use crate::scenario_apply::ScenarioCore;
use crate::sched::{EventQueue, Scheduled};
use crate::traffic::{Effect, EffectSink, Shared, Totals, TrafficCore};

/// Windows pop up to `W1 − ε` inclusive; one microsecond is the clock's
/// resolution, so `W1 − ε` is "strictly before `W1`".
const EPSILON: Duration = Duration::from_micros(1);

const HELD: &str = "a worker still held the shared context after its window";

/// Runs the simulation on `shards` broker shards, panicking on the failures
/// [`try_run_sharded`] surfaces as [`SimError`] (mirrors
/// [`Simulation::run`]).
pub fn run_sharded(sim: Simulation, shards: usize) -> SimulationOutcome {
    match try_run_sharded(sim, shards) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{e}"),
    }
}

/// Runs the simulation partitioned into `shards` broker shards, advanced by
/// the calling thread and one worker thread per further shard, producing a
/// [`SimulationOutcome`] whose
/// [`replay_state`](SimulationOutcome::replay_state) is bit-identical to
/// the sequential [`Simulation::try_run`]'s.
///
/// Falls back to the sequential loop when sharding cannot help: one shard
/// requested, or fewer brokers than would fill two shards.
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
/// the shard count alone, before any event is applied. A panic inside a
/// window, on a worker or on the calling thread, is
/// [`SimError::WorkerPanicked`].
pub fn try_run_sharded(sim: Simulation, shards: usize) -> Result<SimulationOutcome, SimError> {
    let n = shards.min(sim.shared.topology.graph.broker_count());
    if n <= 1 {
        return sim.try_run();
    }
    let model = sim.shared.link_model;
    if model != LinkModelKind::Constant {
        return Err(SimError::ShardedLinkModelUnsupported {
            model: model.name(),
        });
    }
    if sim.shared.forwarding.mode() == ForwardingMode::Aggregate {
        return Err(SimError::ShardedForwardingUnsupported);
    }

    let homes = Homes::build(&sim, n);
    let hard_stop = sim.hard_stop();
    let Simulation {
        mut core,
        shared,
        mut totals,
        mut scenario,
        drain_grace,
    } = sim;
    let (mut run, scenario_q) = Coordinator::new(&mut core, shared, homes, n, hard_stop);
    let mut scenario_q = scenario_q.into_iter().peekable();

    // Leaving the scope drops `workers`, closing every job channel, and
    // joins the threads — on the error paths too.
    thread::scope(|s| -> Result<(), SimError> {
        let workers = Workers::spawn(s, n - 1);
        loop {
            // Scenario keys rank lowest, so the windows stop strictly before
            // the next scenario instant and its batch applies before any
            // traffic at that instant — exactly the sequential pop order.
            let t_scen = scenario_q
                .peek()
                .map(|e| e.time)
                .filter(|&t| t <= hard_stop);
            run.run_era(&workers, &mut totals, t_scen)?;
            let Some(t) = t_scen else { return Ok(()) };
            run.apply_scenario_instant(&mut core, &mut totals, &mut scenario, &mut scenario_q, t)?;
        }
    })?;

    // Finalise: merge the shards back, return unprocessed events (past the
    // hard stop) to the global queue so the end-of-run conservation
    // accounting sees them, and advance the clock to the last applied event.
    run.gather(&mut core, Touches::ALL);
    let (mut interns, mut hits) = (0, 0);
    for Shard { core: shard, .. } in &mut run.shards {
        while let Some(e) = shard.events.pop() {
            core.events.push(e);
        }
        core.events_processed += shard.events_processed;
        core.peak_pending = core.peak_pending.max(shard.peak_pending);
        core.now = core.now.max(shard.now);
        interns += shard.scope_interner.interns();
        hits += shard.scope_interner.hits();
    }
    for e in scenario_q {
        core.events.push(e);
    }
    let sim = Simulation {
        core,
        shared: Arc::try_unwrap(run.shared).map_err(|_| lost(HELD))?,
        totals,
        scenario,
        drain_grace,
    };
    // Every shard interned into its own pool; the outcome reports the
    // traffic they served together (a partition-dependent value — a scope
    // shared across shards is allocated once per shard).
    let mut outcome = sim.into_outcome();
    outcome.scope_interns += interns;
    outcome.scope_intern_hits += hits;
    outcome.shard_windows = run.windows;
    outcome.shard_parallel_windows = run.parallel_windows;
    outcome.shard_handoffs = run.handoffs;
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

/// What one window advances: a [`TrafficCore`] holding the shard's block of
/// brokers (and the live slots of the publishers and links homed to it),
/// plus the log its handlers' effects go to when other shards run beside
/// it.
struct Shard {
    core: TrafficCore,
    log: EffectLog,
}

impl Shard {
    fn peek_time(&self) -> Option<SimTime> {
        self.core.events.peek().map(|(t, _)| t)
    }

    /// Pops and applies every event at or before `limit`, including the
    /// shard-local follow-ups those events schedule inside the window — the
    /// engine's own handlers on this shard's core — logging the effects for
    /// the ordered merge.
    fn run_logged(&mut self, shared: &Shared, limit: SimTime) {
        while let Some(entry) = self.core.events.pop_if_at_or_before(limit) {
            self.log.next = (entry.time, entry.seq, 0);
            self.core.apply(shared, &mut self.log, entry);
        }
    }

    /// Like [`run_logged`](Self::run_logged), with the totals as the sink:
    /// exact when no other shard has an event at or before `limit`.
    fn run_alone(&mut self, shared: &Shared, totals: &mut Totals, limit: SimTime) {
        while let Some(entry) = self.core.events.pop_if_at_or_before(limit) {
            self.core.apply(shared, totals, entry);
        }
    }
}

impl Default for Shard {
    /// The empty stand-in a shard leaves behind while a worker holds it.
    fn default() -> Self {
        Shard {
            core: TrafficCore::new(Vec::new(), Vec::new(), 0),
            log: EffectLog::default(),
        }
    }
}

/// The windows' [`EffectSink`] when several shards run: instead of touching
/// the order-sensitive totals, stamp each effect with its canonical replay
/// coordinates — the emitting event's `(time, key)` and the emission index
/// within it.
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

/// A shard's window handed to a worker. The worker sends the whole job
/// back, `Arc` included, so once every job of a window has returned the
/// coordinator holds the only reference to the context.
struct Job {
    index: usize,
    shard: Shard,
    shared: Arc<Shared>,
    limit: SimTime,
}

/// The run's worker threads: one job channel each, one completion channel
/// back. A worker lives until its job channel closes or its window panics.
struct Workers {
    jobs: Vec<mpsc::Sender<Job>>,
    done: mpsc::Receiver<Result<Job, SimError>>,
}

impl Workers {
    fn spawn<'scope>(s: &'scope thread::Scope<'scope, '_>, count: usize) -> Workers {
        let (done_tx, done) = mpsc::channel();
        let jobs = (0..count)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Job>();
                let done = done_tx.clone();
                s.spawn(move || {
                    while let Ok(mut job) = rx.recv() {
                        let ran =
                            guarded(job.index, || job.shard.run_logged(&job.shared, job.limit));
                        let died = ran.is_err();
                        if done.send(ran.map(|()| job)).is_err() || died {
                            return;
                        }
                    }
                });
                tx
            })
            .collect();
        Workers { jobs, done }
    }
}

/// Runs one shard's window, turning a panic into
/// [`SimError::WorkerPanicked`] for that shard.
fn guarded(shard: usize, window: impl FnOnce()) -> Result<(), SimError> {
    catch_unwind(AssertUnwindSafe(window)).map_err(|payload| SimError::WorkerPanicked {
        shard,
        message: panic_message(payload),
    })
}

/// A worker that is gone, or a context a job did not give back: neither
/// happens unless a window panicked, which is reported first.
fn lost(what: &str) -> SimError {
    SimError::WorkerPanicked {
        shard: usize::MAX,
        message: what.into(),
    }
}

/// Which shard-homed state a scenario batch reads or writes, and so what
/// its barrier moves into the simulation's core and back. Joins, leaves and
/// link events rewrite broker tables and queues; a link recovery also pumps
/// the recovered link (`try_send`: its busy flag, stream and load); a rate
/// change restarts publication chains (publisher streams); a phase mark
/// only emits an effect. A link failure voids in-flight transfers through
/// the shared failure generation, and a sharded run has no flow tables, so
/// it moves no link slot.
#[derive(Clone, Copy, Default)]
struct Touches {
    brokers: bool,
    publishers: bool,
    links: bool,
}

impl Touches {
    const ALL: Touches = Touches {
        brokers: true,
        publishers: true,
        links: true,
    };

    fn add(&mut self, action: &ScenarioAction) {
        match action {
            ScenarioAction::SubscriptionJoin { .. }
            | ScenarioAction::SubscriptionLeave { .. }
            | ScenarioAction::LinkDown { .. } => self.brokers = true,
            ScenarioAction::LinkUp { .. } => {
                self.brokers = true;
                self.links = true;
            }
            ScenarioAction::PublisherRate { .. } => self.publishers = true,
            ScenarioAction::PhaseMark { .. } => {}
        }
    }
}

/// The coordinator's state for one sharded run: the shards, the context
/// they read, and the window counters.
struct Coordinator {
    homes: Homes,
    shards: Vec<Shard>,
    shared: Arc<Shared>,
    hard_stop: SimTime,
    windows: u64,
    parallel_windows: u64,
    handoffs: u64,
    /// Reused per window: the due shards, the merged effect logs and an
    /// outbox being routed.
    due: Vec<usize>,
    merged: Vec<(Stamp, Effect)>,
    routed: Vec<Scheduled<EventKind>>,
}

impl Coordinator {
    /// Builds the `n` shard cores and moves the simulation core's state out
    /// into them. Scenario events — coordinator-owned — are returned
    /// separately, in `(time, key)` order.
    fn new(
        core: &mut TrafficCore,
        shared: Shared,
        homes: Homes,
        n: usize,
        hard_stop: SimTime,
    ) -> (Coordinator, Vec<Scheduled<EventKind>>) {
        // Placeholder streams: only the slots of entities homed to a shard
        // ever go live, by swapping with the simulation's (see `swap_slots`).
        let idle = |len: usize| (0..len).map(|_| SimRng::seed_from(0)).collect();
        let shards = (0..n)
            .map(|s| Shard {
                core: TrafficCore::new(
                    idle(core.publisher_rng.len()),
                    idle(core.link_rng.len()),
                    // n ≤ brokers, so every shard's block is non-empty.
                    homes.shard_of_broker.partition_point(|&home| home < s),
                ),
                log: EffectLog::default(),
            })
            .collect();
        let mut run = Coordinator {
            homes,
            shards,
            shared: Arc::new(shared),
            hard_stop,
            windows: 0,
            parallel_windows: 0,
            handoffs: 0,
            due: Vec::with_capacity(n),
            merged: Vec::new(),
            routed: Vec::new(),
        };
        run.scatter(core, Touches::ALL);
        let mut scenario_q = Vec::new();
        while let Some(e) = core.events.pop() {
            if matches!(e.item, EventKind::Scenario { .. }) {
                scenario_q.push(e);
            } else {
                run.shards[run.homes.of(&e.item)].core.accept(e);
            }
        }
        (run, scenario_q)
    }

    /// Moves the state `touches` names from the shards into `core` (for a
    /// scenario barrier or finalisation). Inverse of [`scatter`](Self::scatter).
    fn gather(&mut self, core: &mut TrafficCore, touches: Touches) {
        for shard in &mut self.shards {
            debug_assert!(shard.log.entries.is_empty() && shard.core.outbox.is_empty());
            if touches.brokers {
                core.brokers.append(&mut shard.core.brokers);
            }
        }
        self.swap_slots(core, touches);
    }

    /// Moves the state `touches` names from `core` back out to the shards.
    /// Inverse of [`gather`](Self::gather).
    fn scatter(&mut self, core: &mut TrafficCore, touches: Touches) {
        if touches.brokers {
            for (broker, &s) in core.brokers.drain(..).zip(&self.homes.shard_of_broker) {
                self.shards[s].core.brokers.push(broker);
            }
        }
        self.swap_slots(core, touches);
    }

    /// Swaps the per-publisher and per-link slots `touches` names between
    /// `core` and the core each entity is homed to — its own inverse, so it
    /// serves both directions: whichever side does not own a slot holds a
    /// value nobody reads. (Flow tables and publish epochs stay put: the
    /// guards in [`try_run_sharded`] keep both empty on a sharded run.)
    fn swap_slots(&mut self, core: &mut TrafficCore, touches: Touches) {
        if touches.publishers {
            for (i, &s) in self.homes.publisher.iter().enumerate() {
                let home = &mut self.shards[s].core;
                swap(&mut core.publisher_rng[i], &mut home.publisher_rng[i]);
                swap(&mut core.next_message[i], &mut home.next_message[i]);
            }
        }
        if touches.links {
            for (i, &s) in self.homes.link.iter().enumerate() {
                let home = &mut self.shards[s].core;
                swap(&mut core.link_rng[i], &mut home.link_rng[i]);
                swap(&mut core.link_busy[i], &mut home.link_busy[i]);
                swap(&mut core.link_last_change[i], &mut home.link_last_change[i]);
                swap(&mut core.link_load[i], &mut home.link_load[i]);
            }
        }
    }

    /// Applies the full scenario batch at instant `t` through the engine's
    /// own handlers: inject the instant's scenario events into `core`'s
    /// queue (so the rebuild-coalescing peek sees exactly the same
    /// same-instant batch the sequential run would), gather what the batch
    /// touches, apply the events in key order, hand any follow-up traffic
    /// they minted (rate-change publications, post-recovery transfers) to
    /// its shard, and scatter back.
    fn apply_scenario_instant(
        &mut self,
        core: &mut TrafficCore,
        totals: &mut Totals,
        scenario: &mut ScenarioCore,
        scenario_q: &mut Peekable<impl Iterator<Item = Scheduled<EventKind>>>,
        t: SimTime,
    ) -> Result<(), SimError> {
        let mut touches = Touches::default();
        while let Some(e) = scenario_q.next_if(|e| e.time == t) {
            if let EventKind::Scenario { action } = &e.item {
                touches.add(action);
            }
            core.events.push(e);
        }
        self.gather(core, touches);
        let shared = Arc::get_mut(&mut self.shared).ok_or_else(|| lost(HELD))?;
        // The queue holds this instant's scenario events and what they
        // schedule — traffic at or after `t`, which ranks after every
        // scenario event at `t` — so the batch applies in full before the
        // first traffic event pops.
        while let Some(e) = core.events.pop() {
            match e.item {
                EventKind::Scenario { action } => {
                    scenario.apply(core, shared, totals, action, e.time)?
                }
                _ => self.shards[self.homes.of(&e.item)].core.accept(e),
            }
        }
        self.scatter(core, touches);
        Ok(())
    }

    /// Runs windows until every pending traffic event is past the hard stop
    /// or at or beyond the next scenario instant `t_scen`.
    fn run_era(
        &mut self,
        workers: &Workers,
        totals: &mut Totals,
        t_scen: Option<SimTime>,
    ) -> Result<(), SimError> {
        let hard_stop = self.hard_stop;
        // Whether a window may start at `t0`: inside the run and strictly
        // before the scenario instant.
        let due = |t0: SimTime| t0 <= hard_stop && t_scen.is_none_or(|ts| t0 < ts);
        while let Some(t0) = self
            .shards
            .iter()
            .filter_map(Shard::peek_time)
            .min()
            .filter(|&t0| due(t0))
        {
            // Conservative window: every event popped at or before `limit`
            // schedules cross-shard work at ≥ t₀ + PD > limit.
            let mut limit = (t0 + PROCESSING_DELAY) - EPSILON;
            if let Some(ts) = t_scen {
                limit = limit.min(ts - EPSILON);
            }
            self.run_window(workers, totals, limit.min(hard_stop))?;
        }
        Ok(())
    }

    /// Runs one window: the first due shard on this thread, every other due
    /// shard on a worker; then merges the effect logs in replay order and
    /// routes the outboxes.
    fn run_window(
        &mut self,
        workers: &Workers,
        totals: &mut Totals,
        limit: SimTime,
    ) -> Result<(), SimError> {
        self.windows += 1;
        self.due.clear();
        let is_due = |s: &Shard| s.peek_time().is_some_and(|t| t <= limit);
        self.due
            .extend((0..self.shards.len()).filter(|&i| is_due(&self.shards[i])));
        let Some((&own, others)) = self.due.split_first() else {
            return Ok(());
        };
        if others.is_empty() {
            let (shard, shared) = (&mut self.shards[own], &*self.shared);
            guarded(own, || shard.run_alone(shared, totals, limit))?;
        } else {
            self.parallel_windows += 1;
            for (worker, &index) in workers.jobs.iter().zip(others) {
                let job = Job {
                    index,
                    shard: take(&mut self.shards[index]),
                    shared: Arc::clone(&self.shared),
                    limit,
                };
                worker
                    .send(job)
                    .map_err(|_| lost("a worker exited before its window"))?;
                self.handoffs += 1;
            }
            let (shard, shared) = (&mut self.shards[own], &*self.shared);
            guarded(own, || shard.run_logged(shared, limit))?;
            self.merged.append(&mut self.shards[own].log.entries);
            for _ in others {
                let Job {
                    index, mut shard, ..
                } = workers
                    .done
                    .recv()
                    .map_err(|_| lost("every worker exited mid-window"))??;
                self.merged.append(&mut shard.log.entries);
                self.shards[index] = shard;
            }
            // Replay in the exact order the sequential loop applies them,
            // through the same update code.
            self.merged.sort_by_key(|&(stamp, _)| stamp);
            for (_, effect) in self.merged.drain(..) {
                totals.emit(effect);
            }
        }
        // Only the shards that ran can have sent anything.
        for &i in &self.due {
            swap(&mut self.routed, &mut self.shards[i].core.outbox);
            for ev in self.routed.drain(..) {
                debug_assert!(ev.time > limit, "cross-shard event inside the window");
                self.shards[self.homes.of(&ev.item)].core.accept(ev);
            }
        }
        Ok(())
    }
}

/// Extracts a human-readable message from a window's panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
