//! Looking at a simulation from outside the run loop: the model checker's
//! branching primitive ([`Simulation::fork`]), its state digest, the
//! from-scratch table audit, and the armed faults that prove both catch real
//! violations.

use bdps_overlay::routing::Routing;
use bdps_overlay::sparse::{read_population, BrokerTable, PopulationHandle, SparseTable};
use bdps_overlay::subtable::SubscriptionTable;
use bdps_types::id::BrokerId;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::{Arc, RwLock};

use crate::engine::Simulation;
use crate::outcome::LinkFlow;
use crate::sched::EventQueue;

/// A deliberately broken protocol invariant, compiled in only under the
/// `fault-injection` feature and armed via [`Simulation::inject_fault`].
///
/// The faults recreate the *classes* of the two historical oracle-found bugs
/// so the model-checking explorer (`bdps-mc`) can prove it detects real
/// violations: a conservation break (copies vanishing) and a duplicate
/// delivery. An unarmed build behaves bit-identically to one without the
/// feature.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A transfer voided by a link failure silently drops its copy instead
    /// of requeueing it — breaking the transfer-balance conservation law
    /// (the historical flap-voiding bug class).
    VoidedTransferVanishes,
    /// Every local delivery is recorded twice — breaking the
    /// no-duplicate-delivery audit.
    DoubleDelivery,
}

/// Compares a broker's live dense (or sparse-local) table against a
/// from-scratch rebuild, reporting the first divergent entry. Entries are
/// matched by subscription id; the routed fields (edge broker, next hop,
/// next link, path statistics) must agree exactly.
fn compare_dense_tables(
    broker: BrokerId,
    live: &SubscriptionTable,
    fresh: &SubscriptionTable,
) -> Result<(), String> {
    if live.len() != fresh.len() {
        return Err(format!(
            "broker {broker} table holds {} entries, scratch rebuild has {}",
            live.len(),
            fresh.len()
        ));
    }
    for e in fresh.entries() {
        let id = e.subscription.id;
        let Some(l) = live.entry(id) else {
            return Err(format!(
                "broker {broker} table is missing entry {id} present in a scratch rebuild"
            ));
        };
        if l.edge_broker != e.edge_broker
            || l.next_hop != e.next_hop
            || l.next_link != e.next_link
            || l.stats != e.stats
        {
            return Err(format!(
                "broker {broker} entry {id} drifted from the scratch rebuild: \
                 live (edge {}, hop {:?}, link {:?}) vs fresh (edge {}, hop {:?}, link {:?})",
                l.edge_broker, l.next_hop, l.next_link, e.edge_broker, e.next_hop, e.next_link
            ));
        }
    }
    Ok(())
}

impl Simulation {
    /// Deep-clones the simulation into an independent branch: every piece of
    /// mutable state — broker tables and queues, the event set, the RNG, the
    /// objective tracker, and (under the sparse layout) the shared
    /// population registry — is copied, so stepping the branch can never
    /// perturb the original. This is the branching primitive of the
    /// model-checking explorer.
    pub fn fork(&self) -> Simulation {
        let mut branch = Simulation {
            core: self.core.clone(),
            shared: self.shared.clone(),
            totals: self.totals.clone(),
            scenario: self.scenario.clone(),
            drain_grace: self.drain_grace,
        };
        // The sparse layout shares one population registry behind an
        // `Arc<RwLock>`; a branch must get its own deep copy, and every
        // cloned broker table must be re-pointed at it.
        if let Some(shared) = &self.shared.population {
            let own: PopulationHandle = Arc::new(RwLock::new(read_population(shared).clone()));
            for b in &mut branch.core.brokers {
                b.repoint_population(&own);
            }
            branch.shared.population = Some(own);
        }
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
        h.write_u64(self.totals.published);
        h.write_u64(self.totals.transmissions);
        h.write_u64(self.totals.completed_transfers);
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
                h.write_u64(f.resched);
                h.write_u64(f.completes_at.as_micros());
            }
        }
        h.write_u8(self.shared.link_model.kind() as u8);
        h.write_u8(self.shared.forwarding as u8);
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
        if let Some(pop) = &self.shared.population {
            h.write_u64(read_population(pop).state_digest());
        }
        // Population membership (the dense layout has no registry), in id
        // order: the entry order is not logical state.
        let mut members: Vec<(u32, u32)> = self
            .subscriptions()
            .iter()
            .map(|(sub, edge)| (sub.id.raw(), edge.raw()))
            .collect();
        members.sort_unstable();
        h.write_usize(members.len());
        for (id, edge) in members {
            h.write_u32(id);
            h.write_u32(edge);
        }
        h.write_u64(self.totals.tracker.state_digest());
        h.finish()
    }

    /// Verifies that routing and every broker's subscription table agree
    /// with a from-scratch rebuild — the table/routing-consistency invariant
    /// the model checker asserts in every interleaving.
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
        for broker in &self.core.brokers {
            match broker.table() {
                BrokerTable::Dense(table) => {
                    let fresh = SubscriptionTable::build(
                        broker.id,
                        &self.scenario.routing,
                        &self.scenario.subscriptions.entries,
                    );
                    compare_dense_tables(broker.id, table, &fresh)?;
                }
                BrokerTable::Sparse(table) => {
                    let fresh =
                        SparseTable::build(broker.id, &self.scenario.routing, table.population());
                    compare_dense_tables(broker.id, table.local(), fresh.local())?;
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
            }
        }
        // Envelope-vs-members invariant, once per group: the QoS envelope
        // publish stamps aggregate copies from must be *exactly* the fold
        // over the group's current members. The scratch fold iterates member
        // records directly — independent of the prefix-fold machinery the
        // group's envelope came from — so a prefix-maintenance bug cannot
        // agree with it.
        if let Some(population) = &self.shared.population {
            let pop = read_population(population);
            let epoch = pop.epoch();
            for (edge, group) in pop.groups() {
                let (kept, scratch) = (group.envelope(), pop.scratch_envelope(edge, epoch));
                if kept != scratch {
                    return Err(format!(
                        "the envelope of {edge}'s group is {kept:?}, but the fold over \
                         its current members gives {scratch:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Arms a deliberately broken invariant, proving the model-checking
    /// explorer catches real violations (see `bdps-mc`'s fault-injection
    /// suite). Compiled only with the `fault-injection` feature; without the
    /// fault armed, behaviour is untouched.
    #[cfg(feature = "fault-injection")]
    pub fn inject_fault(&mut self, fault: InjectedFault) {
        self.shared.injected_fault = Some(fault);
    }
}
