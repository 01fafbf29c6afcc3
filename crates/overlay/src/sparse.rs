//! Sparse covering-aggregated subscription tables.
//!
//! The dense layout ([`SubscriptionTable`]) replicates one entry per
//! subscription on **every** broker — `O(brokers × subscriptions)` memory,
//! ~12 GB at 10⁵ subscribers on the grown mesh. The paper's §4.2 tables only
//! need, per broker, enough to pick the next hop and the remaining-path
//! statistics for each matching message, and those routed fields depend on
//! the *destination edge broker*, not on the individual subscription: every
//! subscription attached at the same edge shares one `(next hop, link, path
//! stats)` triple.
//!
//! The sparse layout exploits exactly that:
//!
//! * each broker keeps **full entries only for locally attached
//!   subscribers** (the edge expansion set);
//! * per remote destination it keeps one **aggregate entry** — the route
//!   towards that edge broker, and nothing else;
//! * the subscription metadata itself (filter, subscriber, QoS) lives once,
//!   globally, in a [`SharedPopulation`] registry every broker references
//!   through an `Arc` — including, per edge broker, the member group's
//!   [`CoverForest`] (the covering set interior brokers route on for raw,
//!   unscoped messages) and its [`QosEnvelope`].
//!
//! Per-broker state therefore drops from `O(subscriptions)` to
//! `O(local + brokers)`, and the registry is counted once instead of once
//! per broker. Both layouts produce **bit-identical** simulation results —
//! the dense layout survives as the reference engine
//! (`tests/layout_equivalence.rs`); the sparse resolution path reads the
//! same routed fields the dense table materialises, because the engine
//! keeps aggregates in lock-step with routing exactly where the reference
//! rebuilds its dense entries.

use crate::pathstats::PathStats;
use crate::routing::Routing;
use crate::subtable::{RetargetOutcome, SubTableEntry, SubscriptionTable};
use bdps_filter::cover::CoverForest;
use bdps_filter::filter::Filter;
use bdps_filter::scope::ScopeSet;
use bdps_filter::selectivity::SelectivityModel;
use bdps_filter::subscription::Subscription;
use bdps_types::id::{BrokerId, LinkId, SubscriberId, SubscriptionId};
use bdps_types::message::MessageHead;
use bdps_types::money::Price;
use bdps_types::time::Duration;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// How a broker materialises its subscription table — and with it which of
/// the simulator's two engines runs.
///
/// Both layouts produce bit-identical simulation reports — the dense layout
/// is the reference the sparse layout is pinned against — so the choice
/// trades memory and maintenance cost, never results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TableLayout {
    /// Every broker stores one full entry per subscription, and the
    /// simulator rebuilds routing and every table from scratch after link
    /// events — the reference engine. `O(brokers × subscriptions)` memory.
    Dense,
    /// Brokers store full entries only for locally attached subscribers plus
    /// one covering-aggregated entry per remote destination, patched
    /// incrementally after link events; subscription metadata lives once in
    /// a shared registry. `O(population + brokers²)` memory globally. The
    /// production engine, and the default.
    #[default]
    Sparse,
}

impl TableLayout {
    /// Both layouts, reference first.
    pub const ALL: [TableLayout; 2] = [TableLayout::Dense, TableLayout::Sparse];

    /// Stable report name (`"dense"` / `"sparse"`).
    pub fn name(self) -> &'static str {
        match self {
            TableLayout::Dense => "dense",
            TableLayout::Sparse => "sparse",
        }
    }

    /// Resolves a [`name`](Self::name), case-insensitively (`bdps-mc` cell
    /// names carry it).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "dense" => Some(TableLayout::Dense),
            "sparse" => Some(TableLayout::Sparse),
            _ => None,
        }
    }
}

impl std::fmt::Display for TableLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One subscription's global record in the shared registry.
#[derive(Debug, Clone)]
pub struct MemberRecord {
    /// The subscription itself (filter, subscriber, QoS).
    pub subscription: Subscription,
    /// The edge broker it attaches to.
    pub edge: BrokerId,
    /// The registry epoch at which this member joined (see
    /// [`SharedPopulation::epoch`]). Aggregate-scoped forwarding uses it to
    /// reproduce exact-mode scope-freeze semantics: a publication delivers
    /// only to members whose `join_epoch` does not exceed the registry epoch
    /// snapshotted when the message was published.
    pub join_epoch: u64,
}

/// Bit marking a *sentinel* subscription id inside a scope: the id names a
/// destination edge broker (an aggregate), not a concrete subscription.
/// Real subscription ids never carry this bit — population generators mint
/// ids sequentially from zero — so sentinel and member ids share the scope
/// machinery without collision.
pub const AGGREGATE_SCOPE_BIT: u32 = 1 << 31;

/// The sentinel scope id standing for "every member attached at `dest`".
/// Monotone in `dest`, so a scope built from ascending destinations is
/// already in ascending id order.
pub fn aggregate_scope_id(dest: BrokerId) -> SubscriptionId {
    debug_assert!(dest.raw() < AGGREGATE_SCOPE_BIT);
    SubscriptionId::new(AGGREGATE_SCOPE_BIT | dest.raw())
}

/// Decodes a sentinel scope id back to its destination edge broker;
/// `None` when `id` is an ordinary subscription id.
pub fn aggregate_scope_dest(id: SubscriptionId) -> Option<BrokerId> {
    (id.raw() & AGGREGATE_SCOPE_BIT != 0).then(|| BrokerId::new(id.raw() & !AGGREGATE_SCOPE_BIT))
}

/// The QoS bounds an edge group's members collectively promise, kept once
/// per group in the registry ([`EdgeGroup::envelope_at`]). Aggregate
/// forwarding stamps each interior copy from it, so scheduling strategies
/// can rank and shed aggregate copies without enumerating the members.
/// Folded over the group's *epoch-visible* members:
///
/// * `min_allowed_delay` — the tightest subscriber-specified bound in the
///   group (`Duration::MAX` while every member is best-effort). A copy
///   older than this bound can no longer be on time for the most demanding
///   member; expiry-based shedding keys off it.
/// * `earning_sum` — the total price the group pays if the copy reaches
///   every member on time: the upper bound on what the copy can earn, and
///   the value EB/PC/EBPC score it by.
/// * `members` — how many members the fold covered (0 = empty envelope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosEnvelope {
    /// Minimum subscriber-specified allowed delay over the members.
    pub min_allowed_delay: Duration,
    /// Sum of member prices (saturating).
    pub earning_sum: Price,
    /// Number of members folded in.
    pub members: usize,
}

impl QosEnvelope {
    /// The envelope of an empty group: unbounded delay, zero earning.
    pub const EMPTY: QosEnvelope = QosEnvelope {
        min_allowed_delay: Duration::MAX,
        earning_sum: Price::ZERO,
        members: 0,
    };

    /// Folds one member's QoS into the envelope.
    pub fn fold(self, allowed_delay: Duration, price: Price) -> QosEnvelope {
        QosEnvelope {
            min_allowed_delay: self.min_allowed_delay.min(allowed_delay),
            earning_sum: self.earning_sum.saturating_add(price),
            members: self.members + 1,
        }
    }

    /// Returns true when no member was folded in (the [`EMPTY`](Self::EMPTY)
    /// value) — an aggregate copy toward such a group can deliver nothing.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }
}

/// One member's QoS contribution, kept in join-epoch order so the envelope
/// of any epoch prefix can be answered without re-folding (see
/// [`EdgeGroup::envelope_at`]).
#[derive(Debug, Clone, Copy)]
struct MemberQos {
    id: SubscriptionId,
    join_epoch: u64,
    allowed_delay: Duration,
    price: Price,
}

/// The subscriptions attached at one edge broker, with their covering set.
#[derive(Debug, Clone, Default)]
pub struct EdgeGroup {
    /// Member ids, ascending.
    ids: Vec<SubscriptionId>,
    /// The covering forest over the members' filters.
    forest: CoverForest,
    /// The selectivity-gated merge of the forest's roots — the compact
    /// envelope publish-time aggregate matching consults. Sound by
    /// construction: every root is covered by some summary filter (each
    /// root either enters the summary verbatim or is `cover_join`ed into a
    /// slot, and a join covers both operands), so any head matching a member
    /// matches its root and therefore some summary filter. Derived state:
    /// recomputed from the forest on every membership change, excluded from
    /// digests.
    summary: Vec<Filter>,
    /// Member QoS in ascending `join_epoch` order (epochs are minted
    /// monotonically, so inserts append; a removal rebuilds the prefix).
    qos: Vec<MemberQos>,
    /// `qos_prefix[k]` is the envelope folded over `qos[..=k]` — the
    /// envelope of the group as of `qos[k].join_epoch`. Derived state,
    /// rebuilt on removal, extended O(1) on insert.
    qos_prefix: Vec<QosEnvelope>,
}

impl EdgeGroup {
    /// Number of members attached at this edge.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns true when no member is attached.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Member ids, ascending.
    pub fn ids(&self) -> &[SubscriptionId] {
        &self.ids
    }

    /// The covering forest over the members' filters.
    pub fn forest(&self) -> &CoverForest {
        &self.forest
    }

    /// The summary filters publish-time aggregate matching consults
    /// (at most [`root_count`](CoverForest::root_count) of them).
    pub fn summary(&self) -> &[Filter] {
        &self.summary
    }

    /// Returns true when some summary filter matches the head — the
    /// aggregate-level publish gate. Sound (no member match is missed);
    /// false positives are possible and bounded by the looseness gate.
    pub fn summary_matches(&self, head: &MessageHead) -> bool {
        self.summary.iter().any(|f| f.matches(head))
    }

    /// The QoS envelope over the group's **current** members.
    pub fn envelope(&self) -> QosEnvelope {
        self.qos_prefix
            .last()
            .copied()
            .unwrap_or(QosEnvelope::EMPTY)
    }

    /// The QoS envelope over the current members whose `join_epoch` does not
    /// exceed `epoch` — the fold a publication frozen at that epoch may
    /// legitimately see. Members that joined later are invisible (exact-mode
    /// scope-freeze semantics); members that left are already gone from
    /// `qos`, so the answer is always over *current* epoch-visible members.
    /// `O(log members)`: a binary search into the prefix-fold vector.
    pub fn envelope_at(&self, epoch: u64) -> QosEnvelope {
        let n = self.qos.partition_point(|m| m.join_epoch <= epoch);
        if n == 0 {
            QosEnvelope::EMPTY
        } else {
            self.qos_prefix[n - 1]
        }
    }

    /// Appends one member's QoS (caller guarantees `join_epoch` exceeds
    /// every recorded one — registry epochs are minted monotonically).
    fn push_qos(&mut self, member: MemberQos) {
        debug_assert!(self
            .qos
            .last()
            .is_none_or(|last| last.join_epoch < member.join_epoch));
        let next = self.envelope().fold(member.allowed_delay, member.price);
        self.qos.push(member);
        self.qos_prefix.push(next);
    }

    /// Drops one member's QoS contribution and re-derives the prefix folds,
    /// so the envelope shrinks in the same instant the member list does.
    fn remove_qos(&mut self, id: SubscriptionId) {
        if let Some(pos) = self.qos.iter().position(|m| m.id == id) {
            self.qos.remove(pos);
            self.rebuild_qos_prefix();
        }
    }

    /// Recomputes `qos_prefix` from `qos` (O(members)).
    fn rebuild_qos_prefix(&mut self) {
        self.qos_prefix.clear();
        let mut acc = QosEnvelope::EMPTY;
        for m in &self.qos {
            acc = acc.fold(m.allowed_delay, m.price);
            self.qos_prefix.push(acc);
        }
    }

    /// Recomputes the summary from the forest roots: greedy first-fit over
    /// roots in ascending id order, merging a root into an existing slot via
    /// [`Filter::cover_join`] only when the model says the join stays tight —
    /// the join's estimated selectivity may exceed the looser operand's by at
    /// most `looseness`. With `looseness = 0` the summary is exactly the
    /// covering set; larger bounds trade publish-time matching cost for
    /// false-positive forwards.
    fn rebuild_summary(&mut self, model: &SelectivityModel, looseness: f64) {
        self.summary.clear();
        let mut slot_sels: Vec<f64> = Vec::new();
        for (_, filter) in self.forest.roots() {
            let sel = model.filter_selectivity(filter);
            let mut merged = false;
            for (slot, slot_sel) in self.summary.iter_mut().zip(slot_sels.iter_mut()) {
                let join = slot.cover_join(filter);
                let join_sel = model.filter_selectivity(&join);
                if join_sel - slot_sel.max(sel) <= looseness {
                    *slot = join;
                    *slot_sel = join_sel;
                    merged = true;
                    break;
                }
            }
            if !merged {
                self.summary.push(filter.clone());
                slot_sels.push(sel);
            }
        }
    }
}

/// The population-wide registry the sparse layout shares across brokers:
/// one record per subscription plus one [`EdgeGroup`] (member list +
/// covering forest + summary) per edge broker. Stored once globally — this
/// is the memory the dense layout replicates `brokers` times.
#[derive(Debug, Clone)]
pub struct SharedPopulation {
    /// One slot per subscription id. Ids are minted densely from zero (the
    /// topology, then churn), every arrival looks up each id of its scope,
    /// and scopes are id-ordered: a slot vector turns that walk into an
    /// ascending scan where a hash map paid a hash and a cache miss per id.
    members: Vec<Option<MemberRecord>>,
    /// Occupied slots of `members`.
    registered: usize,
    by_edge: BTreeMap<BrokerId, EdgeGroup>,
    /// Monotone membership-change counter: bumped on every insert. Publish
    /// paths snapshot it to freeze "who had joined by then" without
    /// enumerating the population.
    epoch: u64,
    /// The attribute model gating summary merges.
    selectivity: SelectivityModel,
    /// Maximum estimated-selectivity slack a summary merge may introduce.
    cover_looseness: f64,
}

/// Default looseness bound for summary merges: a join may widen the
/// estimated match probability by at most this much over its looser operand.
pub const DEFAULT_COVER_LOOSENESS: f64 = 0.05;

impl Default for SharedPopulation {
    fn default() -> Self {
        SharedPopulation {
            members: Vec::new(),
            registered: 0,
            by_edge: BTreeMap::new(),
            epoch: 0,
            // The paper-workload model knows A1/A2. Unknown attributes
            // estimate selectivity 1, so the gate is blind to widening
            // among them and merges freely; install a richer model via
            // `set_cover_policy` when the workload uses other attributes.
            selectivity: SelectivityModel::paper_workload(),
            cover_looseness: DEFAULT_COVER_LOOSENESS,
        }
    }
}

impl SharedPopulation {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SharedPopulation::default()
    }

    /// Builds the registry from a population (the engine's subscription
    /// list; ids must be distinct).
    pub fn from_population(subscriptions: &[(Subscription, BrokerId)]) -> Self {
        let mut pop = SharedPopulation::new();
        for (sub, edge) in subscriptions {
            pop.insert(sub.clone(), *edge);
        }
        pop
    }

    /// Registers a subscription attached at `edge` (replacing any previous
    /// record for the same id). Bumps the registry epoch; the new member's
    /// `join_epoch` is the bumped value, so a publish that snapshotted the
    /// epoch earlier never delivers to it.
    pub fn insert(&mut self, subscription: Subscription, edge: BrokerId) {
        let id = subscription.id;
        assert!(
            aggregate_scope_dest(id).is_none(),
            "{id} carries the aggregate sentinel bit"
        );
        self.remove(id);
        self.epoch += 1;
        let group = self.by_edge.entry(edge).or_default();
        let pos = group.ids.partition_point(|&i| i < id);
        group.ids.insert(pos, id);
        group.forest.insert(id, subscription.filter.clone());
        group.rebuild_summary(&self.selectivity, self.cover_looseness);
        group.push_qos(MemberQos {
            id,
            join_epoch: self.epoch,
            allowed_delay: subscription.allowed_delay(),
            price: subscription.price,
        });
        if self.members.len() <= id.index() {
            self.members.resize_with(id.index() + 1, || None);
        }
        self.members[id.index()] = Some(MemberRecord {
            subscription,
            edge,
            join_epoch: self.epoch,
        });
        self.registered += 1;
    }

    /// Unregisters a subscription, returning its record when present.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<MemberRecord> {
        let record = self.members.get_mut(id.index())?.take()?;
        self.registered -= 1;
        if let Some(group) = self.by_edge.get_mut(&record.edge) {
            if let Ok(pos) = group.ids.binary_search(&id) {
                group.ids.remove(pos);
            }
            group.forest.remove(id);
            group.remove_qos(id);
            if group.is_empty() {
                self.by_edge.remove(&record.edge);
            } else {
                group.rebuild_summary(&self.selectivity, self.cover_looseness);
            }
        }
        Some(record)
    }

    /// The current membership epoch (bumped on every insert).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Installs a different selectivity model and looseness bound for the
    /// summary merge gate, recomputing every group's summary under the new
    /// policy.
    pub fn set_cover_policy(&mut self, model: SelectivityModel, looseness: f64) {
        self.selectivity = model;
        self.cover_looseness = looseness;
        for group in self.by_edge.values_mut() {
            group.rebuild_summary(&self.selectivity, self.cover_looseness);
        }
    }

    /// The looseness bound currently gating summary merges.
    pub fn cover_looseness(&self) -> f64 {
        self.cover_looseness
    }

    /// Total registered subscriptions.
    pub fn len(&self) -> usize {
        self.registered
    }

    /// Returns true when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }

    /// The record of one subscription.
    pub fn member(&self, id: SubscriptionId) -> Option<&MemberRecord> {
        self.members.get(id.index())?.as_ref()
    }

    /// The group attached at one edge broker (absent when empty).
    pub fn group(&self, edge: BrokerId) -> Option<&EdgeGroup> {
        self.by_edge.get(&edge)
    }

    /// Folds the QoS envelope of the members attached at `edge` whose
    /// `join_epoch` does not exceed `epoch`, directly from the member
    /// records in ascending id order — deliberately **not** via the group's
    /// prefix-fold machinery, so audits comparing it against
    /// [`EdgeGroup::envelope_at`] exercise an independent derivation.
    /// Commutative folds (min / saturating sum) make the different iteration
    /// orders agree exactly.
    pub fn scratch_envelope(&self, edge: BrokerId, epoch: u64) -> QosEnvelope {
        let Some(group) = self.by_edge.get(&edge) else {
            return QosEnvelope::EMPTY;
        };
        let mut acc = QosEnvelope::EMPTY;
        for &id in &group.ids {
            let record = self.member(id).expect("group member registered");
            if record.join_epoch <= epoch {
                acc = acc.fold(
                    record.subscription.allowed_delay(),
                    record.subscription.price,
                );
            }
        }
        acc
    }

    /// Iterates `(edge broker, group)` in ascending broker order.
    pub fn groups(&self) -> impl Iterator<Item = (BrokerId, &EdgeGroup)> + '_ {
        self.by_edge.iter().map(|(b, g)| (*b, g))
    }

    /// Hashes the registry's membership — which subscriptions are attached
    /// at which edge broker — into `h`, iterating the edge map in its sorted
    /// order so the digest is deterministic. Filters are identified by
    /// subscription id: within one run an id never changes its filter, so
    /// membership pins the registry's full content. Used by the
    /// model-checking explorer's state deduplication.
    pub fn digest_into(&self, h: &mut impl std::hash::Hasher) {
        h.write_u64(self.epoch);
        h.write_usize(self.by_edge.len());
        for (edge, group) in &self.by_edge {
            h.write_u32(edge.raw());
            h.write_usize(group.ids.len());
            for id in &group.ids {
                h.write_u32(id.raw());
                h.write_u64(
                    self.member(*id)
                        .expect("group member registered")
                        .join_epoch,
                );
            }
        }
    }

    /// The membership digest as one `u64` (see
    /// [`digest_into`](Self::digest_into)).
    pub fn state_digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.digest_into(&mut h);
        h.finish()
    }

    /// Rough bytes consumed by the registry (counted **once** globally,
    /// where the dense layout pays its per-entry cost on every broker).
    pub fn bytes_estimate(&self) -> u64 {
        let member_bytes =
            (std::mem::size_of::<MemberRecord>() + MEMBER_SLOT_OVERHEAD) * self.registered;
        let group_bytes: usize = self
            .by_edge
            .values()
            .map(|g| {
                g.ids.len() * std::mem::size_of::<SubscriptionId>()
                    + g.forest.len() * FOREST_NODE_OVERHEAD
                    + g.qos.len() * std::mem::size_of::<MemberQos>()
                    + g.qos_prefix.len() * std::mem::size_of::<QosEnvelope>()
            })
            .sum();
        (member_bytes + group_bytes) as u64
    }
}

/// A thread-safe handle to the shared registry. The engine holds the only
/// writer; brokers read-lock once per arrival, so the lock is uncontended in
/// the single-threaded event loop and cheap enough for sweep workers (each
/// simulation owns its own registry).
pub type PopulationHandle = Arc<RwLock<SharedPopulation>>;

/// Read-locks the shared registry, recovering from poisoning.
///
/// The registry's writers (`insert`/`remove` behind the engine's churn
/// path) never unwind mid-mutation: both mutate the member map and the
/// edge-group map through ordinary collection operations whose only
/// panic sources precede the first mutation. A poisoned lock therefore
/// means *some other* panic unwound while a guard was held — typically a
/// sibling sweep cell sharing nothing but the allocator — and the data
/// behind the lock is still consistent, so read paths recover the guard
/// instead of turning one failure into a cascade. Write paths must not
/// use this: they surface a structured error instead (see
/// `bdps_sim::SimError::PopulationPoisoned`).
pub fn read_population(p: &PopulationHandle) -> std::sync::RwLockReadGuard<'_, SharedPopulation> {
    p.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Approximate per-member overhead of the registry's slot vector: growth
/// slack and the holes leaves leave behind.
const MEMBER_SLOT_OVERHEAD: usize = 48;
/// Approximate per-member overhead of a covering-forest node (filter handle,
/// parent pointer, child-set slot).
const FOREST_NODE_OVERHEAD: usize = 72;
/// Approximate per-entry overhead of the dense table's id map + match-index
/// threshold rows.
const DENSE_ENTRY_OVERHEAD: usize = 64;
/// Approximate per-aggregate overhead of the ordered destination map.
const AGGREGATE_SLOT_OVERHEAD: usize = 32;

/// Rough bytes consumed by one dense table (entries + id map + match index).
pub fn dense_bytes_estimate(table: &SubscriptionTable) -> u64 {
    (table.len() * (std::mem::size_of::<SubTableEntry>() + DENSE_ENTRY_OVERHEAD)) as u64
}

/// One broker's aggregate entry towards a remote destination: the route
/// every subscription attached there shares. This is the *whole*
/// per-subscription state an interior broker keeps for that destination —
/// one path-stat envelope is exact because single-path routing gives all
/// members of a destination the same remaining path. The group itself
/// (members, covering set, QoS envelope) lives once, in the
/// [`SharedPopulation`]: the entry exists while the group is populated and
/// reachable, and a join or leave that neither opens nor empties the group
/// leaves it untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateEntry {
    /// The neighbour matching messages are forwarded to (`nb`).
    pub next_hop: BrokerId,
    /// The outgoing link towards that neighbour.
    pub next_link: LinkId,
    /// Statistics of the remaining path to the destination.
    pub stats: PathStats,
}

impl AggregateEntry {
    /// The aggregate along a route — the single construction path the bulk
    /// build and the incremental sync share, so an aggregate can never
    /// differ by how it was produced.
    fn fresh(route: &crate::routing::RouteEntry) -> Self {
        AggregateEntry {
            next_hop: route.next_hop,
            next_link: route.next_link,
            stats: route.stats,
        }
    }
}

/// A layout-independent view of one table row, resolved at arrival time —
/// everything the broker state machine needs to deliver locally or build a
/// queued copy's target. Dense tables copy it out of their materialised
/// entries; sparse tables assemble it from the local table, the shared
/// registry and the per-destination aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedEntry {
    /// The subscription this row serves.
    pub subscription: SubscriptionId,
    /// The subscriber that owns it.
    pub subscriber: SubscriberId,
    /// The price paid per valid delivery.
    pub price: Price,
    /// The subscriber-specified allowed delay (`Duration::MAX` when
    /// unbounded).
    pub allowed_delay: Duration,
    /// The neighbour to forward to, or `None` for local delivery.
    pub next_hop: Option<BrokerId>,
    /// The outgoing link towards the next hop, when remote.
    pub next_link: Option<LinkId>,
    /// Statistics of the remaining path to the subscriber.
    pub stats: PathStats,
}

impl ResolvedEntry {
    /// Resolves a materialised dense entry.
    pub fn from_entry(e: &SubTableEntry) -> Self {
        ResolvedEntry {
            subscription: e.subscription.id,
            subscriber: e.subscription.subscriber,
            price: e.subscription.price,
            allowed_delay: e.subscription.allowed_delay(),
            next_hop: e.next_hop,
            next_link: e.next_link,
            stats: e.stats,
        }
    }
}

/// The sparse table of one broker: full entries for locals, one aggregate
/// per reachable remote destination, and a handle to the shared registry.
#[derive(Debug, Clone)]
pub struct SparseTable {
    broker: BrokerId,
    /// Full entries for locally attached subscriptions (the edge-expansion
    /// set), reusing the dense machinery — including its matching index for
    /// unscoped arrivals.
    local: SubscriptionTable,
    /// Aggregate entries keyed by destination edge broker. Invariant: an
    /// entry exists iff the destination has at least one member, is not
    /// this broker, and is currently reachable; its fields equal
    /// `routing.route(self.broker, dest)`.
    aggregates: BTreeMap<BrokerId, AggregateEntry>,
    population: PopulationHandle,
}

impl SparseTable {
    /// Builds the sparse table of `broker` over the current routing and the
    /// shared registry.
    pub fn build(broker: BrokerId, routing: &Routing, population: &PopulationHandle) -> Self {
        let mut table = SparseTable {
            broker,
            local: SubscriptionTable::new(broker),
            aggregates: BTreeMap::new(),
            population: Arc::clone(population),
        };
        {
            let pop = read_population(population);
            let mut locals = Vec::new();
            if let Some(group) = pop.group(broker) {
                for &id in group.ids() {
                    let record = pop.member(id).expect("group member registered");
                    locals.push(SubTableEntry {
                        subscription: record.subscription.clone(),
                        edge_broker: broker,
                        next_hop: None,
                        next_link: None,
                        stats: PathStats::local(),
                    });
                }
            }
            table.local = SubscriptionTable::from_entries(broker, locals);
        }
        table.rebuild_aggregates(routing);
        table
    }

    /// The broker this table belongs to.
    pub fn broker(&self) -> BrokerId {
        self.broker
    }

    /// The local (edge-expansion) entries.
    pub fn local(&self) -> &SubscriptionTable {
        &self.local
    }

    /// The aggregate entries, keyed by destination, ascending.
    pub fn aggregates(&self) -> impl Iterator<Item = (BrokerId, &AggregateEntry)> + '_ {
        self.aggregates.iter().map(|(b, a)| (*b, a))
    }

    /// Number of aggregate entries currently held.
    pub fn aggregate_count(&self) -> usize {
        self.aggregates.len()
    }

    /// The aggregate entry towards one destination, when that destination
    /// has members and is currently reachable from this broker.
    pub fn aggregate(&self, dest: BrokerId) -> Option<&AggregateEntry> {
        self.aggregates.get(&dest)
    }

    /// The shared registry handle.
    pub fn population(&self) -> &PopulationHandle {
        &self.population
    }

    /// Re-points this table at a different registry handle. Used when a
    /// simulation is forked for model checking: the branch deep-clones the
    /// registry and every cloned broker table must reference the copy, not
    /// the original, or branches would corrupt each other under churn.
    pub fn set_population(&mut self, population: &PopulationHandle) {
        self.population = Arc::clone(population);
    }

    /// Hashes the table's routed content — the local edge-expansion entries
    /// plus every aggregate's route, in ascending destination order. The
    /// shared registry is digested separately by its owner (one copy
    /// globally), not per broker.
    pub fn digest_into(&self, h: &mut impl std::hash::Hasher) {
        self.local.digest_into(h);
        h.write_usize(self.aggregates.len());
        for (dest, a) in &self.aggregates {
            h.write_u32(dest.raw());
            h.write_u32(a.next_hop.raw());
            h.write_u32(a.next_link.raw());
            h.write_u32(a.stats.downstream_brokers);
            h.write_u64(a.stats.rate.mean().to_bits());
            h.write_u64(a.stats.rate.variance().to_bits());
        }
    }

    /// Adds a locally attached subscription's full entry (the edge half of a
    /// join; the registry is updated by the caller).
    pub fn insert_local(&mut self, subscription: Subscription) {
        self.local.insert(SubTableEntry {
            edge_broker: self.broker,
            next_hop: None,
            next_link: None,
            stats: PathStats::local(),
            subscription,
        });
    }

    /// Removes a locally attached subscription's entry, returning true when
    /// it was present.
    pub fn remove_local(&mut self, id: SubscriptionId) -> bool {
        self.local.remove(id).is_some()
    }

    /// Brings the aggregate entry towards `dest` in line with the current
    /// routing and registry: **one aggregate** stands in for every
    /// subscription attached at `dest`, so this is the whole incremental
    /// patch for one `(broker, destination)` pair. Called after a routing
    /// delta names `dest`, and after a join opens or a leave empties the
    /// group at `dest`. Returns the patch counters (at most one of
    /// retargeted / inserted / removed is 1).
    pub fn sync_aggregate(&mut self, routing: &Routing, dest: BrokerId) -> RetargetOutcome {
        let populated = read_population(&self.population).group(dest).is_some();
        self.sync_aggregate_with(routing, dest, populated)
    }

    /// [`sync_aggregate`](Self::sync_aggregate) with whether the destination
    /// group has members supplied by the caller, so one registry read serves
    /// every broker an event touches.
    pub fn sync_aggregate_with(
        &mut self,
        routing: &Routing,
        dest: BrokerId,
        populated: bool,
    ) -> RetargetOutcome {
        let mut outcome = RetargetOutcome::default();
        if dest == self.broker {
            return outcome; // locals carry no route and never move
        }
        match routing.route(self.broker, dest).filter(|_| populated) {
            Some(route) => {
                let fresh = AggregateEntry::fresh(route);
                match self.aggregates.insert(dest, fresh) {
                    Some(old) if old == fresh => {} // no-op patch
                    Some(_) => outcome.retargeted += 1,
                    None => outcome.inserted += 1,
                }
            }
            None => {
                if self.aggregates.remove(&dest).is_some() {
                    outcome.removed += 1;
                }
            }
        }
        outcome
    }

    /// Builds every aggregate from scratch over the current routing and
    /// registry.
    fn rebuild_aggregates(&mut self, routing: &Routing) {
        self.aggregates.clear();
        let pop = read_population(&self.population);
        for (dest, _) in pop.groups() {
            if dest == self.broker {
                continue;
            }
            if let Some(route) = routing.route(self.broker, dest) {
                self.aggregates.insert(dest, AggregateEntry::fresh(route));
            }
        }
    }

    /// Resolves every subscription of a frozen scope in scope order, calling
    /// `f` for each one this broker can currently serve — the sparse hot
    /// path. Locals resolve through the local table; remotes through the
    /// registry (one read-lock for the whole scope) and the per-destination
    /// aggregate. A subscription that has left the population, or whose edge
    /// broker is unreachable, is skipped — exactly the rows the dense table
    /// would not hold.
    pub fn resolve_scope(&self, scope: &ScopeSet, mut f: impl FnMut(ResolvedEntry)) {
        let pop = read_population(&self.population);
        let has_locals = !self.local.is_empty();
        // Ids are minted edge by edge, so an id-ordered scope comes in runs
        // of one edge broker: the aggregate of the previous row usually
        // serves this one.
        let mut run: Option<(BrokerId, Option<&AggregateEntry>)> = None;
        for id in scope.iter() {
            if has_locals {
                if let Some(e) = self.local.entry(id) {
                    f(ResolvedEntry::from_entry(e));
                    continue;
                }
            }
            let Some(record) = pop.member(id) else {
                continue; // left the population since the scope froze
            };
            let agg = match run {
                Some((edge, agg)) if edge == record.edge => agg,
                _ => {
                    let agg = self.aggregates.get(&record.edge);
                    run = Some((record.edge, agg));
                    agg
                }
            };
            let Some(agg) = agg else {
                continue; // unreachable (or local-but-removed): not served here
            };
            f(ResolvedEntry {
                subscription: id,
                subscriber: record.subscription.subscriber,
                price: record.subscription.price,
                allowed_delay: record.subscription.allowed_delay(),
                next_hop: Some(agg.next_hop),
                next_link: Some(agg.next_link),
                stats: agg.stats,
            });
        }
    }

    /// All rows matching a raw (unscoped) message head, ascending by
    /// subscription id — the covering-based routing path: per destination
    /// the aggregate's covering set gates the check (sound, so no match is
    /// missed), and only when a cover matches are the member filters
    /// consulted, so a head matching no member is never delivered.
    pub fn matching_all(&self, head: &MessageHead) -> Vec<ResolvedEntry> {
        let pop = read_population(&self.population);
        let mut out: Vec<ResolvedEntry> = self
            .local
            .matching(head)
            .into_iter()
            .map(ResolvedEntry::from_entry)
            .collect();
        for (&dest, agg) in &self.aggregates {
            let Some(group) = pop.group(dest) else {
                continue;
            };
            if !group.forest().any_root_matches(head) {
                continue; // the aggregate gate: no member can match
            }
            for (id, filter) in group.forest().members() {
                if filter.matches(head) {
                    let record = pop.member(id).expect("group member registered");
                    out.push(ResolvedEntry {
                        subscription: id,
                        subscriber: record.subscription.subscriber,
                        price: record.subscription.price,
                        allowed_delay: record.subscription.allowed_delay(),
                        next_hop: Some(agg.next_hop),
                        next_link: Some(agg.next_link),
                        stats: agg.stats,
                    });
                }
            }
        }
        out.sort_unstable_by_key(|e| e.subscription);
        out
    }

    /// Rough bytes of this broker's own state (locals + aggregates); the
    /// shared registry is counted separately, once.
    pub fn bytes_estimate(&self) -> u64 {
        dense_bytes_estimate(&self.local)
            + (self.aggregates.len()
                * (std::mem::size_of::<AggregateEntry>() + AGGREGATE_SLOT_OVERHEAD))
                as u64
    }
}

/// A broker's subscription table under either layout. The broker state
/// machine resolves arrivals through this enum so the scheduling pipeline
/// downstream is completely layout-agnostic — which is what makes the
/// dense-vs-sparse differential oracle meaningful.
#[derive(Debug, Clone)]
pub enum BrokerTable {
    /// The dense replicated table (the oracle).
    Dense(SubscriptionTable),
    /// The sparse covering-aggregated table.
    Sparse(SparseTable),
}

impl From<SubscriptionTable> for BrokerTable {
    fn from(t: SubscriptionTable) -> Self {
        BrokerTable::Dense(t)
    }
}

impl From<SparseTable> for BrokerTable {
    fn from(t: SparseTable) -> Self {
        BrokerTable::Sparse(t)
    }
}

impl BrokerTable {
    /// The broker this table belongs to.
    pub fn broker(&self) -> BrokerId {
        match self {
            BrokerTable::Dense(t) => t.broker(),
            BrokerTable::Sparse(t) => t.broker(),
        }
    }

    /// Which layout this table uses.
    pub fn layout(&self) -> TableLayout {
        match self {
            BrokerTable::Dense(_) => TableLayout::Dense,
            BrokerTable::Sparse(_) => TableLayout::Sparse,
        }
    }

    /// Rows this broker actually stores: dense entries, or local entries
    /// plus aggregates — the memory-relevant count.
    pub fn stored_rows(&self) -> usize {
        match self {
            BrokerTable::Dense(t) => t.len(),
            BrokerTable::Sparse(t) => t.local().len() + t.aggregate_count(),
        }
    }

    /// Mutable dense access (engine maintenance paths).
    pub fn as_dense_mut(&mut self) -> Option<&mut SubscriptionTable> {
        match self {
            BrokerTable::Dense(t) => Some(t),
            BrokerTable::Sparse(_) => None,
        }
    }

    /// The sparse table, when this is the sparse layout.
    pub fn as_sparse(&self) -> Option<&SparseTable> {
        match self {
            BrokerTable::Sparse(t) => Some(t),
            BrokerTable::Dense(_) => None,
        }
    }

    /// Mutable sparse access (engine maintenance paths).
    pub fn as_sparse_mut(&mut self) -> Option<&mut SparseTable> {
        match self {
            BrokerTable::Sparse(t) => Some(t),
            BrokerTable::Dense(_) => None,
        }
    }

    /// Hashes the table's routed content under either layout (see
    /// [`SubscriptionTable::digest_into`] and [`SparseTable::digest_into`]).
    pub fn digest_into(&self, h: &mut impl std::hash::Hasher) {
        match self {
            BrokerTable::Dense(t) => {
                h.write_u8(0);
                t.digest_into(h);
            }
            BrokerTable::Sparse(t) => {
                h.write_u8(1);
                t.digest_into(h);
            }
        }
    }

    /// Resolves a frozen scope in scope order (see
    /// [`SparseTable::resolve_scope`]); dense tables resolve by id lookup.
    pub fn resolve_scope(&self, scope: &ScopeSet, mut f: impl FnMut(ResolvedEntry)) {
        match self {
            BrokerTable::Dense(t) => {
                for id in scope.iter() {
                    if let Some(e) = t.entry(id) {
                        f(ResolvedEntry::from_entry(e));
                    }
                }
            }
            BrokerTable::Sparse(t) => t.resolve_scope(scope, f),
        }
    }

    /// All rows matching a raw message head, ascending by subscription id
    /// under both layouts.
    pub fn matching_all(&self, head: &MessageHead) -> Vec<ResolvedEntry> {
        match self {
            // The dense matching index returns ascending ids already.
            BrokerTable::Dense(t) => t
                .matching(head)
                .into_iter()
                .map(ResolvedEntry::from_entry)
                .collect(),
            BrokerTable::Sparse(t) => t.matching_all(head),
        }
    }

    /// Removes a subscription's materialised row (dense entry, or sparse
    /// local entry), returning true when one was removed. Sparse aggregates
    /// are synced separately by the engine (they need routing).
    pub fn remove(&mut self, id: SubscriptionId) -> bool {
        match self {
            BrokerTable::Dense(t) => t.remove(id).is_some(),
            BrokerTable::Sparse(t) => t.remove_local(id),
        }
    }

    /// Aggregate entries held (0 under the dense layout).
    pub fn aggregate_entries(&self) -> u64 {
        match self {
            BrokerTable::Dense(_) => 0,
            BrokerTable::Sparse(t) => t.aggregate_count() as u64,
        }
    }

    /// Rough bytes of this broker's own table state (the sparse layout's
    /// shared registry is counted separately, once).
    pub fn bytes_estimate(&self) -> u64 {
        match self {
            BrokerTable::Dense(t) => dense_bytes_estimate(t),
            BrokerTable::Sparse(t) => t.bytes_estimate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OverlayGraph;
    use crate::topology::Topology;
    use bdps_filter::filter::Filter;
    use bdps_net::bandwidth::FixedRate;
    use bdps_net::link::LinkQuality;
    use bdps_stats::rng::SimRng;
    use bdps_types::id::SubscriberId;
    use bdps_types::money::Price;
    use bdps_types::qos::{DelayBound, QosClass};
    use std::collections::BTreeSet;

    fn fixed_quality(_rng: &mut SimRng) -> LinkQuality {
        LinkQuality::new(FixedRate::new(60.0))
    }

    fn head(a1: f64, a2: f64) -> MessageHead {
        let mut h = MessageHead::new();
        h.set("A1", a1).set("A2", a2);
        h
    }

    /// Line B0 - B1 - B2 with one QoS subscription on B2 and one best-effort
    /// on B1 (mirrors the dense subtable tests).
    fn line_setup() -> (Topology, Routing, Vec<(Subscription, BrokerId)>) {
        let mut rng = SimRng::seed_from(1);
        let mut topo = Topology::line(3, &mut rng, fixed_quality);
        topo.graph
            .attach_subscriber(BrokerId::new(2), SubscriberId::new(0));
        topo.graph
            .attach_subscriber(BrokerId::new(1), SubscriberId::new(1));
        let routing = Routing::compute(&topo.graph);
        let subs = vec![
            (
                Subscription::with_qos(
                    SubscriptionId::new(0),
                    SubscriberId::new(0),
                    Filter::paper_conjunction(5.0, 5.0),
                    QosClass::new(DelayBound::from_secs(10), Price::from_units(3)),
                ),
                BrokerId::new(2),
            ),
            (
                Subscription::best_effort(
                    SubscriptionId::new(1),
                    SubscriberId::new(1),
                    Filter::paper_conjunction(9.0, 9.0),
                ),
                BrokerId::new(1),
            ),
        ];
        (topo, routing, subs)
    }

    fn handle(subs: &[(Subscription, BrokerId)]) -> PopulationHandle {
        Arc::new(RwLock::new(SharedPopulation::from_population(subs)))
    }

    /// Resolution oracle: the sparse table resolves every scope id exactly
    /// as the dense table materialises it.
    fn assert_matches_dense(
        broker: BrokerId,
        routing: &Routing,
        subs: &[(Subscription, BrokerId)],
        pop: &PopulationHandle,
    ) {
        let dense = SubscriptionTable::build(broker, routing, subs);
        let sparse = SparseTable::build(broker, routing, pop);
        let all_ids: Vec<SubscriptionId> = subs.iter().map(|(s, _)| s.id).collect();
        let scope = ScopeSet::from_unsorted(all_ids);
        let mut resolved = Vec::new();
        sparse.resolve_scope(&scope, |e| resolved.push(e));
        let expected: Vec<ResolvedEntry> = scope
            .iter()
            .filter_map(|id| dense.entry(id).map(ResolvedEntry::from_entry))
            .collect();
        assert_eq!(resolved, expected, "scope resolution drifted at {broker}");
    }

    #[test]
    fn sparse_resolution_equals_dense_on_the_line() {
        let (_topo, routing, subs) = line_setup();
        let pop = handle(&subs);
        for b in 0..3 {
            assert_matches_dense(BrokerId::new(b), &routing, &subs, &pop);
        }
    }

    #[test]
    fn sparse_build_stores_locals_and_aggregates() {
        let (_topo, routing, subs) = line_setup();
        let pop = handle(&subs);
        let b0 = SparseTable::build(BrokerId::new(0), &routing, &pop);
        assert_eq!(b0.local().len(), 0, "B0 has no locals");
        assert_eq!(b0.aggregate_count(), 2, "one aggregate per remote edge");
        let b2 = SparseTable::build(BrokerId::new(2), &routing, &pop);
        assert_eq!(b2.local().len(), 1);
        assert_eq!(b2.aggregate_count(), 1);
        // Aggregate fields equal the routing towards the destination.
        let (dest, agg) = b0.aggregates().next().unwrap();
        let route = routing.route(BrokerId::new(0), dest).unwrap();
        assert_eq!(agg.next_hop, route.next_hop);
        assert_eq!(agg.stats, route.stats);
    }

    #[test]
    fn unscoped_matching_agrees_with_dense_and_orders_by_id() {
        let (_topo, routing, subs) = line_setup();
        let pop = handle(&subs);
        for b in 0..3u32 {
            let broker = BrokerId::new(b);
            let dense: BrokerTable = SubscriptionTable::build(broker, &routing, &subs).into();
            let sparse: BrokerTable = SparseTable::build(broker, &routing, &pop).into();
            for h in [head(1.0, 1.0), head(7.0, 7.0), head(9.5, 9.5)] {
                let d = dense.matching_all(&h);
                let s = sparse.matching_all(&h);
                assert_eq!(d, s, "unscoped matching drifted at {broker}");
            }
        }
    }

    #[test]
    fn sync_aggregate_follows_link_changes() {
        let (topo, healthy, subs) = line_setup();
        let pop = handle(&subs);
        let mut table = SparseTable::build(BrokerId::new(0), &healthy, &pop);
        assert_eq!(table.aggregate_count(), 2);

        // Sever B1 <-> B2: the aggregate towards B2 must disappear.
        let cut: BTreeSet<_> = topo
            .graph
            .links()
            .filter(|l| {
                (l.from == BrokerId::new(1) && l.to == BrokerId::new(2))
                    || (l.from == BrokerId::new(2) && l.to == BrokerId::new(1))
            })
            .map(|l| l.id)
            .collect();
        let severed = Routing::compute_filtered(&topo.graph, |l| !cut.contains(&l));
        let outcome = table.sync_aggregate(&severed, BrokerId::new(2));
        assert_eq!(outcome.removed, 1);
        assert_eq!(table.aggregate_count(), 1);
        // The scope no longer resolves the severed subscription.
        let scope = ScopeSet::from_unsorted(vec![SubscriptionId::new(0)]);
        let mut seen = 0;
        table.resolve_scope(&scope, |_| seen += 1);
        assert_eq!(seen, 0);

        // Restore: the aggregate reappears with fresh routed fields.
        let outcome = table.sync_aggregate(&healthy, BrokerId::new(2));
        assert_eq!(outcome.inserted, 1);
        assert_matches_dense(BrokerId::new(0), &healthy, &subs, &pop);
        // Syncing towards the own broker is a no-op.
        let own = table.sync_aggregate(&healthy, BrokerId::new(0));
        assert_eq!(own, RetargetOutcome::default());
    }

    #[test]
    fn registry_churn_keeps_groups_and_forests_consistent() {
        let (_topo, routing, subs) = line_setup();
        let pop = handle(&subs);
        {
            let mut p = pop.write().unwrap();
            p.insert(
                Subscription::best_effort(
                    SubscriptionId::new(2),
                    SubscriberId::new(2),
                    Filter::paper_conjunction(2.0, 2.0),
                ),
                BrokerId::new(2),
            );
            assert_eq!(p.len(), 3);
            assert_eq!(p.group(BrokerId::new(2)).unwrap().len(), 2);
            p.group(BrokerId::new(2))
                .unwrap()
                .forest()
                .check_invariants()
                .unwrap();
            // The narrow newcomer is covered by the wider resident filter.
            assert_eq!(p.group(BrokerId::new(2)).unwrap().forest().root_count(), 1);
            p.remove(SubscriptionId::new(0));
            assert_eq!(p.group(BrokerId::new(2)).unwrap().len(), 1);
            p.remove(SubscriptionId::new(2));
            assert!(p.group(BrokerId::new(2)).is_none(), "empty groups drop");
            assert_eq!(p.len(), 1);
        }
        // A broker syncing after the churn drops the dead aggregate.
        let mut table = SparseTable::build(BrokerId::new(0), &routing, &pop);
        assert_eq!(table.aggregate_count(), 1);
        let outcome = table.sync_aggregate(&routing, BrokerId::new(2));
        assert_eq!(outcome, RetargetOutcome::default());
    }

    #[test]
    fn unreachable_destinations_get_no_aggregate() {
        let mut g = OverlayGraph::new();
        let a = g.add_broker(None);
        let b = g.add_broker(None);
        let routing = Routing::compute(&g);
        let subs = vec![(
            Subscription::best_effort(
                SubscriptionId::new(0),
                SubscriberId::new(0),
                Filter::match_all(),
            ),
            b,
        )];
        let pop = handle(&subs);
        let table = SparseTable::build(a, &routing, &pop);
        assert_eq!(table.aggregate_count(), 0);
        assert_eq!(table.local().len(), 0);
        assert!(table.matching_all(&head(1.0, 1.0)).is_empty());
    }

    #[test]
    fn sentinel_scope_ids_round_trip_and_avoid_member_ids() {
        for b in [0u32, 1, 17, 4095, (1 << 21) - 1] {
            let dest = BrokerId::new(b);
            let id = aggregate_scope_id(dest);
            assert_eq!(aggregate_scope_dest(id), Some(dest));
            assert!(id.raw() & AGGREGATE_SCOPE_BIT != 0);
        }
        // Ordinary population ids decode to nothing.
        assert_eq!(aggregate_scope_dest(SubscriptionId::new(0)), None);
        assert_eq!(aggregate_scope_dest(SubscriptionId::new(123_456)), None);
        // Sentinels are monotone in the destination, so ascending
        // destinations produce an ascending (scope-ready) id sequence.
        assert!(aggregate_scope_id(BrokerId::new(3)) < aggregate_scope_id(BrokerId::new(4)));
    }

    #[test]
    fn epoch_advances_on_insert_and_freezes_membership() {
        let mut pop = SharedPopulation::new();
        assert_eq!(pop.epoch(), 0);
        pop.insert(
            Subscription::best_effort(
                SubscriptionId::new(0),
                SubscriberId::new(0),
                Filter::match_all(),
            ),
            BrokerId::new(1),
        );
        let snapshot = pop.epoch();
        assert_eq!(snapshot, 1);
        pop.insert(
            Subscription::best_effort(
                SubscriptionId::new(1),
                SubscriberId::new(1),
                Filter::match_all(),
            ),
            BrokerId::new(1),
        );
        assert_eq!(pop.epoch(), 2);
        // A publish that snapshotted `snapshot` sees member 0 but not the
        // later joiner.
        let group = pop.group(BrokerId::new(1)).unwrap();
        let visible: Vec<u32> = group
            .ids()
            .iter()
            .filter(|&&id| pop.member(id).unwrap().join_epoch <= snapshot)
            .map(|id| id.raw())
            .collect();
        assert_eq!(visible, vec![0]);
        // Removals do not advance the epoch; re-inserting the same id does,
        // so a leave-then-rejoin is invisible to older publications.
        pop.remove(SubscriptionId::new(0));
        assert_eq!(pop.epoch(), 2);
        pop.insert(
            Subscription::best_effort(
                SubscriptionId::new(0),
                SubscriberId::new(0),
                Filter::match_all(),
            ),
            BrokerId::new(1),
        );
        assert_eq!(pop.member(SubscriptionId::new(0)).unwrap().join_epoch, 3);
    }

    fn qos_sub(id: u32, edge_secs: u64, price_units: i64) -> Subscription {
        Subscription::with_qos(
            SubscriptionId::new(id),
            SubscriberId::new(id),
            Filter::match_all(),
            QosClass::new(
                DelayBound::from_secs(edge_secs),
                Price::from_units(price_units),
            ),
        )
    }

    #[test]
    fn envelope_folds_members_and_answers_any_epoch_prefix() {
        let mut pop = SharedPopulation::new();
        let edge = BrokerId::new(1);
        pop.insert(qos_sub(0, 30, 1), edge); // epoch 1
        pop.insert(qos_sub(1, 10, 3), edge); // epoch 2
        pop.insert(
            Subscription::best_effort(
                SubscriptionId::new(2),
                SubscriberId::new(2),
                Filter::match_all(),
            ),
            edge,
        ); // epoch 3, unbounded, unit price
        let group = pop.group(edge).unwrap();
        let now = group.envelope();
        assert_eq!(now.min_allowed_delay, Duration::from_secs(10));
        assert_eq!(now.earning_sum, Price::from_units(5));
        assert_eq!(now.members, 3);
        // Every epoch prefix agrees with the independent scratch fold.
        for epoch in 0..=pop.epoch() {
            assert_eq!(
                pop.group(edge).unwrap().envelope_at(epoch),
                pop.scratch_envelope(edge, epoch),
                "prefix fold drifted from scratch fold at epoch {epoch}"
            );
        }
        assert_eq!(pop.group(edge).unwrap().envelope_at(0), QosEnvelope::EMPTY);
        assert_eq!(
            pop.group(edge).unwrap().envelope_at(1).earning_sum,
            Price::from_units(1)
        );
    }

    #[test]
    fn envelope_shrinks_the_same_instant_a_member_leaves() {
        let mut pop = SharedPopulation::new();
        let edge = BrokerId::new(1);
        pop.insert(qos_sub(0, 10, 3), edge);
        pop.insert(qos_sub(1, 30, 1), edge);
        let snapshot = pop.epoch();
        // The tight, expensive member leaves: the envelope over *any* epoch
        // — including ones sampled before the leave — immediately stops
        // counting it. No one-event lag between member list and envelope.
        pop.remove(SubscriptionId::new(0));
        let group = pop.group(edge).unwrap();
        let after = group.envelope_at(snapshot);
        assert_eq!(after.min_allowed_delay, Duration::from_secs(30));
        assert_eq!(after.earning_sum, Price::from_units(1));
        assert_eq!(after.members, 1);
        assert_eq!(after, pop.scratch_envelope(edge, snapshot));
    }

    #[test]
    fn envelope_ignores_rejoin_for_old_epochs() {
        let mut pop = SharedPopulation::new();
        let edge = BrokerId::new(1);
        pop.insert(qos_sub(0, 10, 3), edge);
        pop.insert(qos_sub(1, 30, 1), edge);
        let snapshot = pop.epoch();
        pop.remove(SubscriptionId::new(0));
        pop.insert(qos_sub(0, 10, 3), edge); // rejoin under a fresh epoch
        let group = pop.group(edge).unwrap();
        // A publication frozen at `snapshot` must not see the rejoined
        // member: its new join_epoch exceeds the snapshot.
        let old = group.envelope_at(snapshot);
        assert_eq!(old.members, 1);
        assert_eq!(old.min_allowed_delay, Duration::from_secs(30));
        // The current envelope counts both again.
        assert_eq!(group.envelope().members, 2);
        assert_eq!(group.envelope().min_allowed_delay, Duration::from_secs(10));
        assert_eq!(old, pop.scratch_envelope(edge, snapshot));
    }

    #[test]
    fn a_join_into_a_populated_group_leaves_every_aggregate_as_it_was() {
        let (_topo, routing, subs) = line_setup();
        let pop = handle(&subs);
        let edge = BrokerId::new(2);
        let mut tables: Vec<SparseTable> = (0..3)
            .map(|b| SparseTable::build(BrokerId::new(b), &routing, &pop))
            .collect();
        let snapshot = |t: &SparseTable| t.aggregates().map(|(d, a)| (d, *a)).collect::<Vec<_>>();
        let before: Vec<_> = tables.iter().map(snapshot).collect();
        // A looser member joins B2's group and the tight one leaves it: the
        // group's envelope moves twice, but the group is never opened or
        // emptied, so no broker's route towards it has anything to change.
        {
            let mut p = pop.write().unwrap();
            p.insert(qos_sub(7, 60, 2), edge);
            p.remove(SubscriptionId::new(0));
            let envelope = p.group(edge).unwrap().envelope();
            assert_eq!(envelope.min_allowed_delay, Duration::from_secs(60));
            assert_eq!(envelope.earning_sum, Price::from_units(2));
        }
        for (table, before) in tables.iter_mut().zip(&before) {
            let outcome = table.sync_aggregate(&routing, edge);
            assert_eq!(outcome, RetargetOutcome::default(), "at {}", table.broker());
            assert_eq!(&snapshot(table), before, "at {}", table.broker());
            let fresh = SparseTable::build(table.broker(), &routing, &pop);
            assert_eq!(
                snapshot(&fresh),
                *before,
                "scratch build at {}",
                table.broker()
            );
        }
    }

    #[test]
    fn summary_is_sound_and_gated_by_selectivity() {
        // Three Pareto-incomparable paper-family members (so all three are
        // covering-set roots). Under the paper model the first two are tight
        // — their join (2, 2) has selectivity 0.04, a slack of 0.02 over the
        // looser operand — while joining the third into that slot would give
        // (9, 2) with selectivity 0.18, a slack of 0.135. The default 0.05
        // looseness therefore merges the tight pair and keeps the third
        // separate.
        let mut pop = SharedPopulation::new();
        let members = [
            (0u32, Filter::paper_conjunction(1.0, 2.0)),
            (1, Filter::paper_conjunction(2.0, 0.9)),
            (2, Filter::paper_conjunction(9.0, 0.5)),
        ];
        for (i, f) in &members {
            pop.insert(
                Subscription::best_effort(
                    SubscriptionId::new(*i),
                    SubscriberId::new(*i),
                    f.clone(),
                ),
                BrokerId::new(0),
            );
        }
        let group = pop.group(BrokerId::new(0)).unwrap();
        assert_eq!(group.forest().root_count(), 3);
        assert_eq!(group.summary().len(), 2, "tight pair merges, wide stays");
        // Soundness: any head matching a member matches the summary.
        for (_, f) in &members {
            for h in [
                head(0.5, 0.5),
                head(1.5, 0.4),
                head(4.0, 0.4),
                head(0.1, 1.9),
            ] {
                if f.matches(&h) {
                    assert!(group.summary_matches(&h), "summary missed a member match");
                }
            }
        }
        // A strict gate (looseness 0) reproduces the covering set exactly.
        pop.set_cover_policy(SelectivityModel::paper_workload(), 0.0);
        let group = pop.group(BrokerId::new(0)).unwrap();
        assert_eq!(group.summary().len(), group.forest().root_count());
        // A fully permissive gate collapses the group to one envelope.
        pop.set_cover_policy(SelectivityModel::paper_workload(), 1.0);
        let group = pop.group(BrokerId::new(0)).unwrap();
        assert_eq!(group.summary().len(), 1);
    }

    #[test]
    fn match_all_member_summarises_to_the_top_filter() {
        // The empty-filter-is-top convention end to end: a match_all member
        // makes its group's summary match every head.
        let mut pop = SharedPopulation::new();
        pop.insert(
            Subscription::best_effort(
                SubscriptionId::new(0),
                SubscriberId::new(0),
                Filter::match_all(),
            ),
            BrokerId::new(0),
        );
        pop.insert(
            Subscription::best_effort(
                SubscriptionId::new(1),
                SubscriberId::new(1),
                Filter::paper_conjunction(1.0, 1.0),
            ),
            BrokerId::new(0),
        );
        let group = pop.group(BrokerId::new(0)).unwrap();
        assert!(group.summary_matches(&head(9.9, 9.9)));
        assert!(group.summary_matches(&MessageHead::new()));
    }

    #[test]
    fn layout_names_round_trip() {
        for layout in TableLayout::ALL {
            assert_eq!(TableLayout::from_name(layout.name()), Some(layout));
        }
        assert_eq!(TableLayout::from_name("SPARSE"), Some(TableLayout::Sparse));
        assert!(TableLayout::from_name("bogus").is_none());
        assert_eq!(TableLayout::default(), TableLayout::Sparse);
        assert_eq!(TableLayout::Sparse.to_string(), "sparse");
    }

    #[test]
    fn bytes_estimates_favour_sparse_interior_brokers() {
        // 4-broker star with everything attached at the leaves: the hub's
        // dense table holds every subscription; its sparse table holds only
        // aggregates.
        let mut rng = SimRng::seed_from(7);
        let mut topo = Topology::star(4, &mut rng, fixed_quality);
        let mut subs = Vec::new();
        for i in 0..30u32 {
            let edge = BrokerId::new(1 + (i % 3));
            topo.graph.attach_subscriber(edge, SubscriberId::new(i));
            subs.push((
                Subscription::best_effort(
                    SubscriptionId::new(i),
                    SubscriberId::new(i),
                    Filter::paper_conjunction(f64::from(i % 10), 5.0),
                ),
                edge,
            ));
        }
        let routing = Routing::compute(&topo.graph);
        let pop = handle(&subs);
        let hub = BrokerId::new(0);
        let dense: BrokerTable = SubscriptionTable::build(hub, &routing, &subs).into();
        let sparse: BrokerTable = SparseTable::build(hub, &routing, &pop).into();
        assert_eq!(dense.stored_rows(), 30);
        assert_eq!(sparse.stored_rows(), 3, "one aggregate per leaf");
        assert!(sparse.bytes_estimate() * 5 <= dense.bytes_estimate());
        assert_eq!(sparse.aggregate_entries(), 3);
        assert_eq!(dense.aggregate_entries(), 0);
        assert_matches_dense(hub, &routing, &subs, &pop);
    }
}
