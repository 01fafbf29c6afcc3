//! The scenario core: everything the repo adds *around* the paper's broker
//! loop — churn, rate changes, link failures, routing repair — as one
//! component that owns its state and handles its own events.
//! [`ScenarioCore::apply`] mirrors [`TrafficCore::apply`]: it takes the
//! traffic core and the [`Shared`] context (which only it may write) and
//! reaches the totals only through the [`EffectSink`]. Every dense / sparse
//! arm of the engine is in this file: the layout is recorded once, in
//! `Shared::population` (`None` is the dense reference engine), and each arm
//! matches on that `Option` and so holds the registry handle it needs.

use bdps_core::broker::BrokerState;
use bdps_core::config::SchedulerConfig;
use bdps_filter::subscription::Subscription;
use bdps_overlay::graph::OverlayGraph;
use bdps_overlay::routing::Routing;
use bdps_overlay::sparse::{
    read_population, PopulationHandle, SharedPopulation, SparseTable, TableLayout,
};
use bdps_overlay::subtable::{RetargetOutcome, SubscriptionTable};
use bdps_types::id::{BrokerId, LinkId, PublisherId, SubscriptionId};
use bdps_types::time::SimTime;
use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockWriteGuard};

use crate::engine::Simulation;
use crate::error::SimError;
use crate::event::EventKind;
use crate::scenario::ScenarioAction;
use crate::sched::EventQueue;
use crate::traffic::{Effect, EffectSink, Shared, TrafficCore};

/// The subscription population, addressable by id.
///
/// `entries` is the slice `Simulation::subscriptions` exposes; `slot` maps
/// an id to its position, so a leave is a hash lookup and a swap-remove
/// instead of a scan and a `memmove` over 10⁵ entries. Entries are in
/// insertion order until the first leave and in no particular order after
/// it: every consumer keys or sorts by id (tables, the registry, the state
/// digest).
#[derive(Clone)]
pub(crate) struct Population {
    pub(crate) entries: Vec<(Subscription, BrokerId)>,
    slot: HashMap<SubscriptionId, usize>,
}

impl Population {
    fn new(entries: Vec<(Subscription, BrokerId)>) -> Self {
        let slot = entries
            .iter()
            .enumerate()
            .map(|(i, (sub, _))| (sub.id, i))
            .collect();
        Population { entries, slot }
    }

    /// Adds a subscription attached at `edge`. The id is not live: a join
    /// removes it first.
    fn insert(&mut self, subscription: Subscription, edge: BrokerId) {
        let previous = self.slot.insert(subscription.id, self.entries.len());
        debug_assert!(previous.is_none(), "join of a live id skipped its leave");
        self.entries.push((subscription, edge));
    }

    /// Removes a subscription, returning the edge broker it was attached at.
    fn remove(&mut self, id: SubscriptionId) -> Option<BrokerId> {
        let i = self.slot.remove(&id)?;
        let (_, edge) = self.entries.swap_remove(i);
        if let Some((moved, _)) = self.entries.get(i) {
            self.slot.insert(moved.id, i);
        }
        Some(edge)
    }
}

/// Write-locks the population registry for one churn mutation. A poisoned
/// lock is not recoverable here — a half-registered subscription would
/// desynchronise the registry from the broker tables — so it surfaces as a
/// structured error instead of a panic.
fn write_population<'a>(
    population: &'a PopulationHandle,
    during: &'static str,
) -> Result<RwLockWriteGuard<'a, SharedPopulation>, SimError> {
    population
        .write()
        .map_err(|_| SimError::PopulationPoisoned { during })
}

impl Simulation {
    /// The table layout this run uses, read off the one place it is recorded.
    pub fn table_layout(&self) -> TableLayout {
        match self.shared.population {
            Some(_) => TableLayout::Sparse,
            None => TableLayout::Dense,
        }
    }
}

/// Routing and table repair so far: the `SimulationOutcome` fields of the same names.
#[derive(Clone, Copy, Default)]
pub(crate) struct ScenarioCounters {
    pub(crate) tables_rebuilt_full: u64,
    pub(crate) entries_retargeted: u64,
    pub(crate) route_trees_recomputed: u64,
    pub(crate) route_pairs_changed: u64,
}

/// The state scenario actions maintain and traffic never touches: who is
/// subscribed where, and the routing every broker table was derived from.
#[derive(Clone)]
pub(crate) struct ScenarioCore {
    pub(crate) subscriptions: Population,
    /// The graph the schedulers and routing believe in (identical to the true
    /// graph unless an estimation error is configured). Kept so routing can
    /// be recomputed when links fail or recover.
    pub(crate) believed_graph: OverlayGraph,
    pub(crate) routing: Routing,
    /// Set when link liveness changed since the last routing rebuild.
    pub(crate) routing_dirty: bool,
    /// Per-link liveness as of the last routing rebuild; a rebuild diffs the
    /// current liveness against it to find the batch's net change.
    pub(crate) link_alive_at_rebuild: Vec<bool>,
    pub(crate) counters: ScenarioCounters,
}

impl ScenarioCore {
    /// Routing over `believed_graph` with every link alive, and the initial
    /// population.
    pub(crate) fn new(
        believed_graph: OverlayGraph,
        subscriptions: Vec<(Subscription, BrokerId)>,
    ) -> Self {
        ScenarioCore {
            subscriptions: Population::new(subscriptions),
            routing: Routing::compute(&believed_graph),
            routing_dirty: false,
            link_alive_at_rebuild: vec![true; believed_graph.link_count()],
            believed_graph,
            counters: ScenarioCounters::default(),
        }
    }

    /// Materialises the per-broker state (tables and queues) for `layout`,
    /// and the population registry the sparse layout's tables share. Tables
    /// are built from the believed graph (what measurement reports), while
    /// transfer times are sampled from the true graph.
    pub(crate) fn build_brokers(
        &self,
        layout: TableLayout,
        scheduler: &SchedulerConfig,
    ) -> (Vec<BrokerState>, Option<PopulationHandle>) {
        let graph = &self.believed_graph;
        let members = &self.subscriptions.entries;
        match layout {
            TableLayout::Dense => {
                let brokers = SubscriptionTable::build_all(graph, &self.routing, members)
                    .into_iter()
                    .map(|table| {
                        BrokerState::from_overlay(graph, table.broker(), table, scheduler.clone())
                    })
                    .collect();
                (brokers, None)
            }
            TableLayout::Sparse => {
                let population: PopulationHandle =
                    Arc::new(RwLock::new(SharedPopulation::from_population(members)));
                let brokers = (0..graph.broker_count())
                    .map(|i| {
                        let id = BrokerId::new(i as u32);
                        let table = SparseTable::build(id, &self.routing, &population);
                        BrokerState::from_overlay(graph, id, table, scheduler.clone())
                    })
                    .collect();
                (brokers, Some(population))
            }
        }
    }

    /// Applies one scenario action at `time`: advances the clock and mutates
    /// the shared context, this core and the brokers' tables and queues,
    /// scheduling any follow-up traffic on `core`.
    pub(crate) fn apply(
        &mut self,
        core: &mut TrafficCore,
        shared: &mut Shared,
        sink: &mut impl EffectSink,
        action: ScenarioAction,
        time: SimTime,
    ) -> Result<(), SimError> {
        core.begin_event(time);
        match action {
            ScenarioAction::SubscriptionJoin {
                subscription,
                broker,
            } => self.join(core, shared, sink, subscription, broker)?,
            ScenarioAction::SubscriptionLeave { subscription } => {
                self.leave(core, shared, sink, subscription)?
            }
            ScenarioAction::PublisherRate {
                publisher,
                multiplier,
            } => {
                let targets: Vec<PublisherId> = match publisher {
                    Some(p) => vec![p],
                    None => shared.topology.publishers.iter().map(|(p, _)| *p).collect(),
                };
                for p in targets {
                    if p.index() >= shared.rate_multiplier.len() {
                        continue;
                    }
                    shared.rate_multiplier[p.index()] = multiplier.max(0.0);
                    // Invalidate the pending publication drawn at the old
                    // rate and restart the chain at the new one.
                    shared.publish_gen[p.index()] += 1;
                    core.schedule_next_publication(shared, p);
                }
            }
            ScenarioAction::LinkDown { link } => {
                // Bump the failure generation so transfers in flight right
                // now are voided when their SendComplete pops, even if the
                // link flaps back up before they complete. Queued copies
                // simply wait behind the dead link.
                shared.link_fail_gen[link.index()] += 1;
                // Under a sharing link model flows are voided eagerly: the
                // copies return to the sender's queue at the failure
                // instant (the sender knows its link died) and the pending
                // FlowComplete events go stale — no live flow will match
                // them at pop.
                if !core.link_flows[link.index()].is_empty() {
                    core.touch_link(link);
                    let (from, to) = shared.endpoints(link);
                    let flows = std::mem::take(&mut core.link_flows[link.index()]);
                    for flow in flows {
                        core.link_load[link.index()].work_done_us +=
                            flow.nominal_us - flow.remaining_us.max(0.0);
                        let accepted = core.brokers[from.index()].requeue(to, flow.queued);
                        debug_assert!(accepted, "sender must have a queue for its own link");
                    }
                    core.note_queue_peak(link, from, to);
                }
                self.routing_dirty |= shared.link_alive(link);
                shared.link_down_depth[link.index()] += 1;
                self.maybe_rebuild_routing(core, shared);
            }
            ScenarioAction::LinkUp { link } => {
                let depth = &mut shared.link_down_depth[link.index()];
                if *depth > 0 {
                    *depth -= 1;
                    self.routing_dirty |= *depth == 0;
                }
                self.maybe_rebuild_routing(core, shared);
                if shared.link_alive(link) {
                    // Pump the queue that was waiting behind the outage.
                    let (from, to) = shared.endpoints(link);
                    core.try_send(shared, sink, from, to);
                }
            }
            ScenarioAction::PhaseMark { label } => sink.emit(Effect::PhaseStarted {
                label: label.into(),
                at: time,
            }),
        }
        Ok(())
    }

    fn join(
        &mut self,
        core: &mut TrafficCore,
        shared: &mut Shared,
        sink: &mut impl EffectSink,
        subscription: Subscription,
        broker: BrokerId,
    ) -> Result<(), SimError> {
        // An id that is already live moves: it leaves its old edge first.
        self.leave(core, shared, sink, subscription.id)?;
        shared
            .global_index
            .insert(subscription.id, subscription.filter.clone());
        match &shared.population {
            None => {
                for b in &mut core.brokers {
                    let entry =
                        SubscriptionTable::entry_for(b.id, &self.routing, &subscription, broker);
                    if let Some(entry) = entry {
                        b.insert_subscription(entry);
                    }
                }
            }
            Some(population) => {
                // Register once globally, expand only at the edge. Interior
                // brokers hold a route towards the edge while its group is
                // populated, so only a join that opens the group adds one.
                let opened = {
                    let mut population = write_population(population, "subscription join")?;
                    let opened = population.group(broker).is_none();
                    population.insert(subscription.clone(), broker);
                    opened
                };
                for b in &mut core.brokers {
                    if b.id == broker {
                        b.insert_local_subscription(subscription.clone());
                    } else if opened {
                        b.sync_aggregate(&self.routing, broker, true);
                    }
                }
            }
        }
        self.subscriptions.insert(subscription, broker);
        Ok(())
    }

    fn leave(
        &mut self,
        core: &mut TrafficCore,
        shared: &mut Shared,
        sink: &mut impl EffectSink,
        id: SubscriptionId,
    ) -> Result<(), SimError> {
        // An id nobody holds is in no index, table or queued copy.
        let Some(edge) = self.subscriptions.remove(id) else {
            return Ok(());
        };
        shared.global_index.remove(id);
        // Under the sparse layout every other broker's route towards the
        // edge goes only if this leave emptied the edge's group.
        let emptied = match &shared.population {
            Some(population) => {
                let mut population = write_population(population, "subscription leave")?;
                population.remove(id);
                Some(population.group(edge).is_none())
            }
            None => None,
        };
        let mut orphaned = 0;
        for b in &mut core.brokers {
            // Every queued copy loses the target; the table row lives at
            // every broker (dense) or at the edge alone.
            orphaned += match emptied {
                Some(emptied) if b.id != edge => {
                    if emptied {
                        b.sync_aggregate(&self.routing, edge, false);
                    }
                    b.strip_queued(id)
                }
                _ => b.remove_subscription(id),
            };
        }
        sink.emit(Effect::Dropped { count: orphaned });
        Ok(())
    }

    /// Brings routing and every broker's subscription table back in line
    /// with current link liveness (queues and counters untouched), if any
    /// link's liveness changed since the last rebuild.
    ///
    /// Every link event calls this; when the immediately following event is
    /// another link change at the same instant (a blackout floods hundreds
    /// of them), the rebuild is deferred to the batch's last link event —
    /// pure coalescing, the dirty flag guarantees it cannot be lost even if
    /// that last event is itself a liveness no-op (e.g. the second down of a
    /// nested failure).
    ///
    /// The reference engine recomputes routing from scratch and rebuilds
    /// every table from the full population — `O(brokers × subscriptions)`
    /// per batch, and nothing to get wrong. The production engine recomputes
    /// only the destination trees the batch can affect, then calls
    /// [`BrokerState::sync_aggregate`] once per `(broker, destination)` pair
    /// whose route entry changed — work proportional to the change, not the
    /// population, with the registry locked once for the whole patch. Both
    /// leave routing in identical states.
    fn maybe_rebuild_routing(&mut self, core: &mut TrafficCore, shared: &Shared) {
        if !self.routing_dirty {
            return;
        }
        use ScenarioAction::{LinkDown, LinkUp};
        let batch_continues = matches!(
            core.events.peek(),
            Some((at, EventKind::Scenario { action: LinkDown { .. } | LinkUp { .. } }))
                if at == core.now
        );
        if batch_continues {
            return;
        }
        self.routing_dirty = false;
        // The batch's net change: links whose liveness differs from the last
        // rebuild's snapshot (a link that flapped down and back up within the
        // batch appears in neither list), refreshing the snapshot.
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        for (i, was_alive) in self.link_alive_at_rebuild.iter_mut().enumerate() {
            let link = LinkId::new(i as u32);
            if shared.link_alive(link) != *was_alive {
                *was_alive = !*was_alive;
                if *was_alive {
                    added.push(link);
                } else {
                    removed.push(link);
                }
            }
        }
        let usable = |l: LinkId| shared.link_alive(l);
        let Some(population) = &shared.population else {
            self.routing = Routing::compute_filtered(&self.believed_graph, usable);
            for b in &mut core.brokers {
                let members = &self.subscriptions.entries;
                b.set_table(SubscriptionTable::build(b.id, &self.routing, members));
            }
            self.counters.tables_rebuilt_full += core.brokers.len() as u64;
            return;
        };
        if removed.is_empty() && added.is_empty() {
            return; // the batch was a net liveness no-op
        }
        let delta =
            self.routing
                .update_for_link_change(&self.believed_graph, usable, &removed, &added);
        self.counters.route_trees_recomputed += delta.dests_recomputed() as u64;
        self.counters.route_pairs_changed += delta.changed_pairs() as u64;
        if delta.is_empty() {
            return;
        }
        let population = read_population(population);
        let mut patched = RetargetOutcome::default();
        for b in &mut core.brokers {
            for &dest in delta.changed_dests(b.id) {
                let populated = population.group(dest).is_some();
                patched.absorb(b.sync_aggregate(&self.routing, dest, populated));
            }
        }
        self.counters.entries_retargeted += patched.total();
    }
}
