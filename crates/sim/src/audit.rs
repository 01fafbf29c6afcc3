//! Looking at a simulation from outside the run loop: the model checker's
//! branching primitive ([`Simulation::fork`]), its state digest and the
//! from-scratch table audit.

use bdps_core::queue::edge_bit;
use bdps_overlay::routing::Routing;
use bdps_overlay::sparse::{aggregate_scope_dest, read_population, PopulationHandle, SparseTable};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::{Arc, RwLock};

use crate::engine::{ForwardingMode, Simulation};
use crate::outcome::LinkFlow;
use crate::sched::EventQueue;

impl Simulation {
    /// Deep-clones the simulation into an independent branch: every piece of
    /// mutable state — broker tables and queues, the event set, the RNG, the
    /// objective tracker and the shared population registry — is copied, so
    /// stepping the branch can never perturb the original. This is the
    /// branching primitive of the model-checking explorer.
    pub fn fork(&self) -> Simulation {
        let mut branch = Simulation {
            core: self.core.clone(),
            shared: self.shared.clone(),
            totals: self.totals.clone(),
            scenario: self.scenario.clone(),
            drain_grace: self.drain_grace,
        };
        // The tables share one population registry behind an
        // `Arc<RwLock>`; a branch must get its own deep copy, and every
        // cloned broker table must be re-pointed at it.
        let own: PopulationHandle = Arc::new(RwLock::new(
            read_population(&self.shared.population).clone(),
        ));
        for b in &mut branch.core.brokers {
            b.repoint_population(&own);
        }
        branch.shared.population = own;
        branch
    }

    /// Hashes the complete *logical* state of the simulation — clock,
    /// pending events (ignoring scheduling sequence numbers), broker
    /// counters, queues and tables, link liveness, RNG stream position and
    /// objective bookkeeping — into one `u64`. Two states with equal digests
    /// behave identically under any same-instant frontier permutation, which
    /// is what lets the model-checking explorer deduplicate branches that
    /// converge after commuting events.
    ///
    /// Sequence numbers are deliberately excluded: the explorer enumerates
    /// every frontier permutation anyway, so the relative seq order of
    /// same-instant events never narrows the set of explored behaviours.
    pub fn state_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        h.write_u64(self.core.now.as_micros());
        for &counter in &self.core.next_message {
            h.write_u64(counter);
        }
        for r in self.core.publisher_rng.iter().chain(&self.core.link_rng) {
            for w in r.state_words() {
                h.write_u64(w);
            }
        }
        // Pending events as a sorted multiset of (time, content digest).
        let mut pending: Vec<(u64, u64)> = Vec::with_capacity(self.core.events.len());
        self.core.events.for_each(&mut |e| {
            let mut eh = DefaultHasher::new();
            e.item.digest_into(&mut eh);
            pending.push((e.time.as_micros(), eh.finish()));
        });
        pending.sort_unstable();
        h.write_usize(pending.len());
        for (t, d) in pending {
            h.write_u64(t);
            h.write_u64(d);
        }
        // Link state.
        for (i, busy) in self.core.link_busy.iter().enumerate() {
            h.write_u8(*busy as u8);
            h.write_u32(self.shared.link_down_depth[i]);
            h.write_u64(self.shared.link_fail_gen[i]);
            h.write_u8(self.scenario.link_alive_at_rebuild[i] as u8);
            h.write_u64(self.core.link_last_change[i].as_micros());
            let load = &self.core.link_load[i];
            h.write_u64(load.transmissions);
            h.write_u64(load.completed_transfers);
            h.write_u64(load.busy_us);
            h.write_u64(load.flow_time_us);
            h.write_u64(load.peak_flows);
            h.write_u64(load.peak_queue);
            h.write_u64(load.work_done_us.to_bits());
            // Flows as an id-sorted multiset: the Vec order is admission
            // order, which is not logical state.
            let mut flows: Vec<&LinkFlow> = self.core.link_flows[i].iter().collect();
            flows.sort_unstable_by_key(|f| f.queued.message.id.raw());
            h.write_usize(flows.len());
            for f in flows {
                h.write_u64(f.queued.message.id.raw());
                h.write_u64(f.nominal_us.to_bits());
                h.write_u64(f.remaining_us.to_bits());
                h.write_u64(f.completes_at.as_micros());
            }
        }
        h.write_u8(self.shared.link_model as u8);
        h.write_u8(self.shared.forwarding.mode() as u8);
        // Publish epochs as a sorted list (aggregate forwarding only; the
        // map is insertion-ordered-free but iteration order is not logical
        // state).
        let mut epochs: Vec<(u64, u64)> = self
            .core
            .publish_epoch
            .iter()
            .map(|(m, e)| (m.raw(), *e))
            .collect();
        epochs.sort_unstable();
        h.write_usize(epochs.len());
        for (m, e) in epochs {
            h.write_u64(m);
            h.write_u64(e);
        }
        h.write_u8(self.scenario.routing_dirty as u8);
        // Brokers: counters, queues and tables.
        for b in &self.core.brokers {
            h.write_u64(b.state_digest());
        }
        // Membership: each edge's member ids and their join epochs.
        h.write_u64(read_population(&self.shared.population).state_digest());
        h.write_u64(self.totals.tracker.state_digest());
        h.finish()
    }

    /// Verifies that routing and every broker's subscription table agree
    /// with a from-scratch rebuild — the table/routing-consistency invariant
    /// the model checker asserts in every interleaving. The registry the
    /// tables are rebuilt from is itself first held to its own records.
    /// Last, the queued copies' edge masks are held to the targets they
    /// carry.
    ///
    /// The reference point is the link liveness **as of the last rebuild**
    /// (`link_alive_at_rebuild`): while a coalesced same-instant link batch
    /// is still in flight the engine intentionally defers the rebuild, so
    /// tables lag the instantaneous liveness but must always equal what a
    /// scratch rebuild at the last-rebuilt liveness produces.
    pub fn audit_tables(&self) -> Result<(), String> {
        let alive = &self.scenario.link_alive_at_rebuild;
        let fresh_routing =
            Routing::compute_filtered(&self.scenario.believed_graph, |l| alive[l.index()]);
        if fresh_routing != self.scenario.routing {
            return Err(
                "routing disagrees with a from-scratch recompute at the last-rebuilt liveness"
                    .to_string(),
            );
        }
        self.audit_registry()?;
        for broker in &self.core.brokers {
            let table = broker.table();
            let fresh = SparseTable::build(broker.id, &self.scenario.routing, table.population());
            let current: Vec<_> = table.aggregates().collect();
            let rebuilt: Vec<_> = fresh.aggregates().collect();
            if current.len() != rebuilt.len() {
                return Err(format!(
                    "broker {} holds {} aggregates, scratch rebuild has {}",
                    broker.id,
                    current.len(),
                    rebuilt.len()
                ));
            }
            for ((dest_a, a), (dest_b, b)) in current.iter().zip(rebuilt.iter()) {
                if dest_a != dest_b || a != b {
                    return Err(format!(
                        "broker {} aggregate for {} drifted from the scratch rebuild",
                        broker.id, dest_a
                    ));
                }
            }
        }
        self.audit_edge_masks()
    }

    /// Holds the edge masks a leave filters queued copies by to what the
    /// copies carry: every queued target whose registry slot is live has its
    /// slot's current edge bit in its copy's mask (an aggregate
    /// pseudo-target, its destination's bit), and every queue's summary
    /// covers its copies' masks. A leave skips a copy without the bit, so a
    /// missing bit is a target no leave would strip.
    fn audit_edge_masks(&self) -> Result<(), String> {
        let pop = read_population(&self.shared.population);
        for broker in &self.core.brokers {
            for neighbor in broker.neighbors() {
                let Some(queue) = broker.queue(neighbor) else {
                    continue;
                };
                let mut masks = 0;
                for copy in queue.items() {
                    masks |= copy.edges;
                    for t in &copy.targets {
                        let edge = match (
                            aggregate_scope_dest(t.subscription),
                            pop.slot(t.subscription),
                        ) {
                            (Some(dest), _) => dest,
                            (None, Some(tag)) if !tag.vacant() => tag.edge(),
                            _ => continue,
                        };
                        if copy.edges & edge_bit(edge) == 0 {
                            return Err(format!(
                                "broker {}'s copy of {} towards {neighbor} holds {} of {edge} \
                                 without that edge's bit (mask {:#x})",
                                broker.id, copy.message.id, t.subscription, copy.edges
                            ));
                        }
                    }
                }
                if queue.edges() & masks != masks {
                    return Err(format!(
                        "broker {}'s queue towards {neighbor} summarises {:#x}, its copies \
                         carry {masks:#x}",
                        broker.id,
                        queue.edges()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Holds the shared registry — the run's one record of who is
    /// subscribed where — to itself: its edge groups hold exactly its
    /// registered count, and every group member is recorded at that group's
    /// edge. The table audit rebuilds from the groups, so a group that kept
    /// (or lost) a member its records disagree on would rebuild into the
    /// same wrong tables. The slot tags are then held to the records, and
    /// the covers — kept exactly when the run forwards by aggregate — to the
    /// members.
    fn audit_registry(&self) -> Result<(), String> {
        let pop = read_population(&self.shared.population);
        let grouped: usize = pop.groups().map(|(_, group)| group.ids().len()).sum();
        if grouped != pop.len() {
            return Err(format!(
                "the registry's edge groups hold {grouped} members, its records {}",
                pop.len()
            ));
        }
        for (edge, group) in pop.groups() {
            for &id in group.ids() {
                match pop.member(id).map(|record| record.edge) {
                    Some(recorded) if recorded == edge => {}
                    other => {
                        return Err(format!(
                            "member {id} of {edge}'s group is recorded at {other:?}"
                        ))
                    }
                }
            }
        }
        // The tags link arrivals trust carried targets by.
        pop.audit_slots()?;
        // The registry keeps covers exactly when the run forwards by
        // aggregate, and then every group's QoS envelope — what publish
        // stamps aggregate copies from — must be the fold over its members.
        let aggregate = self.shared.forwarding.mode() == ForwardingMode::Aggregate;
        if pop.keeps_covers() != aggregate {
            return Err(format!(
                "{} forwarding runs on a registry that {} covers",
                self.shared.forwarding.mode(),
                if aggregate { "keeps no" } else { "keeps" }
            ));
        }
        pop.audit_covers()
    }
}
