//! Sparse covering-aggregated subscription tables.
//!
//! The paper's §4.2 tables only need, per broker, enough to pick the next
//! hop and the remaining-path statistics for each matching message, and
//! those routed fields depend on the *destination edge broker*, not on the
//! individual subscription: every subscription attached at the same edge
//! shares one `(next hop, link, path stats)` triple. Replicating one full
//! entry per subscription on every broker would cost
//! `O(brokers × subscriptions)` memory (~12 GB at 10⁵ subscribers on the
//! grown mesh); a [`SparseTable`] stores exactly the shared part:
//!
//! * per remote destination a broker keeps one **aggregate entry** — the
//!   route towards that edge broker, and nothing else;
//! * the subscriptions themselves (filter, subscriber, QoS, edge broker)
//!   live once, globally, in a [`SharedPopulation`] registry every broker
//!   references through an `Arc` — including, per edge broker, the member
//!   group and, when aggregate forwarding reads them, its [`GroupCovers`]:
//!   the [`CoverForest`] (the covering set its publish-time summary is
//!   built from) and its [`QosEnvelope`].
//!
//! A table keeps routes only: the broker makes a row by joining a member's
//! registry record with the aggregate towards the member's edge broker (no
//! route for a member attached at the broker itself). Per-broker state is
//! therefore `O(brokers)`, and every subscription is stored once instead of
//! once per broker. A from-scratch
//! [`SubscriptionTable::build`](crate::subtable::SubscriptionTable::build)
//! over the whole population stays the table-level oracle: that join must
//! give exactly the rows the replicated table holds
//! ([`SubscriptionTable::check_sparse`](crate::subtable::SubscriptionTable::check_sparse),
//! run by this module's tests and `tests/properties.rs`), and the engine's
//! table audit holds every incrementally maintained table to a from-scratch
//! [`SparseTable::build`].

use crate::pathstats::PathStats;
use crate::routing::Routing;
use crate::subtable::RetargetOutcome;
use bdps_filter::cover::CoverForest;
use bdps_filter::filter::Filter;
use bdps_filter::selectivity::SelectivityModel;
use bdps_filter::subscription::Subscription;
use bdps_types::id::{BrokerId, LinkId, SubscriptionId};
use bdps_types::message::MessageHead;
use bdps_types::money::Price;
use bdps_types::time::Duration;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

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
    /// The slot's incarnation when this record was inserted (see
    /// [`SlotTag`]).
    pub incarnation: u32,
}

/// What a link arrival reads of a subscription id's registry slot before it
/// trusts a target the upstream broker resolved: the slot's compact tag,
/// kept beside the full records so the check reads eight bytes per id
/// instead of a record.
///
/// Every insert into a slot bumps its [`incarnation`](Self::incarnation),
/// and a removal marks it [`vacant`](Self::vacant) without touching the
/// rest. A target carries the incarnation it was resolved under, so an equal
/// incarnation on a live slot means the record is still the one the target
/// was built from: same subscriber, price and bound, attached at
/// [`edge`](Self::edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTag {
    /// The incarnation, with [`VACANT`](Self::VACANT) set while no member
    /// holds the slot.
    word: u32,
    edge: BrokerId,
}

impl SlotTag {
    const VACANT: u32 = 1 << 31;

    /// Inserts into the slot so far (modulo 2³¹); the first member of a slot
    /// is incarnation 1, so a target stamped 0 never matches.
    pub fn incarnation(self) -> u32 {
        self.word & !Self::VACANT
    }

    /// The edge broker of the slot's member (of its last member while
    /// vacant).
    pub fn edge(self) -> BrokerId {
        self.edge
    }

    /// True while no member holds the slot.
    pub fn vacant(self) -> bool {
        self.word & Self::VACANT != 0
    }

    /// The tag of the slot's next member, attached at `edge`.
    fn next(self, edge: BrokerId) -> SlotTag {
        let incarnation = (self.incarnation() + 1) & !Self::VACANT;
        SlotTag {
            word: incarnation.max(1),
            edge,
        }
    }
}

/// Bit marking a *sentinel* subscription id inside a scope: the id names a
/// destination edge broker (an aggregate), not a concrete subscription.
/// Real subscription ids never carry this bit — population generators mint
/// ids sequentially from zero — so sentinel and member ids share the scope
/// machinery without collision.
pub(crate) const AGGREGATE_SCOPE_BIT: u32 = 1 << 31;

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
/// per group in the registry ([`GroupCovers::envelope_at`]). Aggregate
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
    pub(crate) members: usize,
}

impl QosEnvelope {
    /// The envelope of an empty group: unbounded delay, zero earning.
    pub const EMPTY: QosEnvelope = QosEnvelope {
        min_allowed_delay: Duration::MAX,
        earning_sum: Price::ZERO,
        members: 0,
    };

    /// Folds one member's QoS into the envelope.
    pub(crate) fn fold(self, allowed_delay: Duration, price: Price) -> QosEnvelope {
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
/// [`GroupCovers::envelope_at`]).
#[derive(Debug, Clone, Copy)]
struct MemberQos {
    id: SubscriptionId,
    join_epoch: u64,
    allowed_delay: Duration,
    price: Price,
}

/// What aggregate forwarding reads of one edge group and exact forwarding
/// never does: the covering forest over the members' filters, the
/// publish-time summary derived from it, and the QoS envelope folds. A
/// registry that keeps covers holds one per group; one that does not holds
/// none (see [`SharedPopulation::without_covers`]).
#[derive(Debug, Clone, Default)]
pub struct GroupCovers {
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
    /// monotonically, so inserts append).
    qos: Vec<MemberQos>,
    /// `qos_prefix[k]` is the envelope folded over `qos[..=k]` — the
    /// envelope of the group as of `qos[k].join_epoch`. Derived state,
    /// re-folded from the removed member's position on removal, extended
    /// O(1) on insert.
    qos_prefix: Vec<QosEnvelope>,
}

impl GroupCovers {
    /// Returns true when some summary filter matches the head — the
    /// aggregate-level publish gate. Sound (no member match is missed);
    /// false positives are possible and bounded by the looseness gate.
    pub(crate) fn summary_matches(&self, head: &MessageHead) -> bool {
        self.summary.iter().any(|f| f.matches(head))
    }

    /// The QoS envelope over the group's **current** members.
    pub(crate) fn envelope(&self) -> QosEnvelope {
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

    /// Adds member `id` to the forest and appends its QoS (caller guarantees
    /// `join_epoch` exceeds every recorded one — registry epochs are minted
    /// monotonically). The summary is the caller's to rebuild.
    fn insert(&mut self, subscription: &Subscription, join_epoch: u64) {
        self.forest
            .insert(subscription.id, subscription.filter.clone());
        debug_assert!(self
            .qos
            .last()
            .is_none_or(|last| last.join_epoch < join_epoch));
        let next = self
            .envelope()
            .fold(subscription.allowed_delay(), subscription.price);
        self.qos.push(MemberQos {
            id: subscription.id,
            join_epoch,
            allowed_delay: subscription.allowed_delay(),
            price: subscription.price,
        });
        self.qos_prefix.push(next);
    }

    /// Drops member `id`, which joined at `join_epoch`, from the forest and
    /// its QoS contribution, re-deriving the prefix folds from its position
    /// on, so the envelope shrinks in the same instant the member list does.
    /// `qos` is epoch-ordered, so the member is found by binary search; the
    /// folds before it do not include it and stay as they are.
    fn remove(&mut self, id: SubscriptionId, join_epoch: u64) {
        self.forest.remove(id);
        let pos = self.qos.partition_point(|m| m.join_epoch < join_epoch);
        if self.qos.get(pos).is_none_or(|m| m.id != id) {
            return;
        }
        self.qos.remove(pos);
        self.qos_prefix.truncate(pos);
        let mut acc = self.envelope();
        for m in &self.qos[pos..] {
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

    /// Rough bytes of the forest and the QoS folds.
    fn bytes_estimate(&self) -> usize {
        self.forest.len() * FOREST_NODE_OVERHEAD
            + self.qos.len() * std::mem::size_of::<MemberQos>()
            + self.qos_prefix.len() * std::mem::size_of::<QosEnvelope>()
    }
}

/// The subscriptions attached at one edge broker: their ids, and — only in
/// a registry that keeps covers, i.e. one aggregate forwarding reads — the
/// group's [`GroupCovers`].
#[derive(Debug, Clone)]
pub struct EdgeGroup {
    /// Member ids, ascending.
    ids: Vec<SubscriptionId>,
    /// Present exactly when the registry keeps covers.
    covers: Option<GroupCovers>,
}

impl EdgeGroup {
    /// Member ids, ascending.
    pub fn ids(&self) -> &[SubscriptionId] {
        &self.ids
    }

    /// The group's covering state, or `None` in a registry that keeps no
    /// covers (exact forwarding).
    pub fn covers(&self) -> Option<&GroupCovers> {
        self.covers.as_ref()
    }

    /// The aggregate-level publish gate (`GroupCovers::summary_matches`).
    /// A group without covers cannot rule the head out, so it answers true:
    /// the gate stays sound, never a silent "no".
    pub fn summary_matches(&self, head: &MessageHead) -> bool {
        self.covers
            .as_ref()
            .is_none_or(|covers| covers.summary_matches(head))
    }
}

/// The population-wide registry every broker's [`SparseTable`] shares: one
/// record per subscription plus one [`EdgeGroup`] per edge broker. Stored
/// once globally, not once per broker.
///
/// What a registry builds depends on who reads it. Exact forwarding reads
/// records, slot tags, group member ids and the epoch, and
/// [`without_covers`](Self::without_covers) keeps only those: a join or
/// leave touches nothing else. Aggregate forwarding also reads every
/// group's [`GroupCovers`] (covering forest, summary, QoS envelope), which
/// [`from_population`](Self::from_population) and `new` keep
/// up to date on every membership change.
#[derive(Debug, Clone)]
pub struct SharedPopulation {
    /// One slot per subscription id. Ids are minted densely from zero (the
    /// topology, then churn), every arrival looks up each id of its scope,
    /// and scopes are id-ordered: a slot vector turns that walk into an
    /// ascending scan where a hash map paid a hash and a cache miss per id.
    members: Vec<Option<MemberRecord>>,
    /// One [`SlotTag`] per slot of `members`: the compact array a link
    /// arrival checks carried targets against.
    tags: Vec<SlotTag>,
    /// Occupied slots of `members`.
    registered: usize,
    by_edge: BTreeMap<BrokerId, EdgeGroup>,
    /// Monotone membership-change counter: bumped on every insert. Publish
    /// paths snapshot it to freeze "who had joined by then" without
    /// enumerating the population.
    epoch: u64,
    /// The attribute model gating summary merges — `Some` exactly when the
    /// registry keeps covers.
    selectivity: Option<SelectivityModel>,
    /// Group summaries rebuilt by [`insert`](Self::insert) and
    /// [`remove`](Self::remove) (a bulk build is not counted).
    summary_rebuilds: u64,
}

/// Default looseness bound for summary merges: a join may widen the
/// estimated match probability by at most this much over its looser operand.
pub(crate) const DEFAULT_COVER_LOOSENESS: f64 = 0.05;

impl Default for SharedPopulation {
    fn default() -> Self {
        SharedPopulation {
            members: Vec::new(),
            tags: Vec::new(),
            registered: 0,
            by_edge: BTreeMap::new(),
            epoch: 0,
            // The paper-workload model knows A1/A2. Unknown attributes
            // estimate selectivity 1, so the gate is blind to widening
            // among them and merges freely.
            selectivity: Some(SelectivityModel::paper_workload()),
            summary_rebuilds: 0,
        }
    }
}

impl SharedPopulation {
    /// Creates an empty registry that keeps covers.
    pub(crate) fn new() -> Self {
        SharedPopulation::default()
    }

    /// Builds the registry, covers included, from a population (ids must be
    /// distinct). Each group's summary is built once, after its last member.
    pub fn from_population(subscriptions: impl AsRef<[(Subscription, BrokerId)]>) -> Self {
        let mut pop = SharedPopulation::new();
        for (sub, edge) in subscriptions.as_ref() {
            pop.register(sub.clone(), *edge);
        }
        if let Some(model) = &pop.selectivity {
            for group in pop.by_edge.values_mut() {
                if let Some(covers) = &mut group.covers {
                    covers.rebuild_summary(model, DEFAULT_COVER_LOOSENESS);
                }
            }
        }
        pop
    }

    /// Builds a registry that keeps no covers: records, slot tags, group
    /// member ids and the epoch only — everything exact forwarding reads.
    pub fn without_covers(subscriptions: &[(Subscription, BrokerId)]) -> Self {
        let mut pop = SharedPopulation {
            selectivity: None,
            ..SharedPopulation::default()
        };
        for (sub, edge) in subscriptions {
            pop.register(sub.clone(), *edge);
        }
        pop
    }

    /// Returns true when every group holds its [`GroupCovers`].
    pub fn keeps_covers(&self) -> bool {
        self.selectivity.is_some()
    }

    /// Group summaries rebuilt by churn so far: one per
    /// [`insert`](Self::insert), and one per [`remove`](Self::remove) that
    /// leaves its group non-empty, in a registry that keeps covers; always 0
    /// in one that does not.
    pub fn summary_rebuilds(&self) -> u64 {
        self.summary_rebuilds
    }

    /// Registers a subscription attached at `edge` (replacing any previous
    /// record for the same id). Bumps the registry epoch; the new member's
    /// `join_epoch` is the bumped value, so a publish that snapshotted the
    /// epoch earlier never delivers to it.
    pub fn insert(&mut self, subscription: Subscription, edge: BrokerId) {
        self.register(subscription, edge);
        self.refresh_summary(edge);
    }

    /// [`insert`](Self::insert) without the summary rebuild.
    fn register(&mut self, subscription: Subscription, edge: BrokerId) {
        let id = subscription.id;
        assert!(
            aggregate_scope_dest(id).is_none(),
            "{id} carries the aggregate sentinel bit"
        );
        self.remove(id);
        self.epoch += 1;
        let keeps_covers = self.keeps_covers();
        let group = self.by_edge.entry(edge).or_insert_with(|| EdgeGroup {
            ids: Vec::new(),
            covers: keeps_covers.then(GroupCovers::default),
        });
        let pos = group.ids.partition_point(|&i| i < id);
        group.ids.insert(pos, id);
        if let Some(covers) = &mut group.covers {
            covers.insert(&subscription, self.epoch);
        }
        if self.members.len() <= id.index() {
            self.members.resize_with(id.index() + 1, || None);
            let never_held = SlotTag {
                word: SlotTag::VACANT,
                edge,
            };
            self.tags.resize(id.index() + 1, never_held);
        }
        let tag = self.tags[id.index()].next(edge);
        self.tags[id.index()] = tag;
        self.members[id.index()] = Some(MemberRecord {
            subscription,
            edge,
            join_epoch: self.epoch,
            incarnation: tag.incarnation(),
        });
        self.registered += 1;
    }

    /// Unregisters a subscription, returning its record when present.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<MemberRecord> {
        let record = self.members.get_mut(id.index())?.take()?;
        self.tags[id.index()].word |= SlotTag::VACANT;
        self.registered -= 1;
        if let Some(group) = self.by_edge.get_mut(&record.edge) {
            if let Ok(pos) = group.ids.binary_search(&id) {
                group.ids.remove(pos);
            }
            if let Some(covers) = &mut group.covers {
                covers.remove(id, record.join_epoch);
            }
            if group.ids.is_empty() {
                self.by_edge.remove(&record.edge);
            } else {
                self.refresh_summary(record.edge);
            }
        }
        Some(record)
    }

    /// Rebuilds the summary of the group at `edge`, if the registry keeps
    /// covers and the group is populated.
    fn refresh_summary(&mut self, edge: BrokerId) {
        let (Some(model), Some(group)) = (&self.selectivity, self.by_edge.get_mut(&edge)) else {
            return;
        };
        if let Some(covers) = &mut group.covers {
            covers.rebuild_summary(model, DEFAULT_COVER_LOOSENESS);
            self.summary_rebuilds += 1;
        }
    }

    /// The current membership epoch (bumped on every insert).
    pub fn epoch(&self) -> u64 {
        self.epoch
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

    /// Every registered record, in ascending subscription id order.
    pub fn members(&self) -> impl Iterator<Item = &MemberRecord> + '_ {
        self.members.iter().flatten()
    }

    /// The tag of one subscription id's slot — vacant ones included — or
    /// `None` when no member ever held it.
    pub fn slot(&self, id: SubscriptionId) -> Option<SlotTag> {
        self.tags.get(id.index()).copied()
    }

    /// Holds the slot tags to the records: a slot is vacant exactly when it
    /// holds no record, and an occupied slot's tag names its record's edge
    /// and incarnation.
    pub fn audit_slots(&self) -> Result<(), String> {
        if self.tags.len() != self.members.len() {
            return Err(format!(
                "{} slot tags for {} registry slots",
                self.tags.len(),
                self.members.len()
            ));
        }
        for (slot, (tag, record)) in self.tags.iter().zip(&self.members).enumerate() {
            let agrees = match record {
                None => tag.vacant(),
                Some(r) => {
                    !tag.vacant() && tag.edge == r.edge && tag.incarnation() == r.incarnation
                }
            };
            if !agrees {
                let held = record.as_ref().map(|r| (r.edge, r.incarnation));
                return Err(format!(
                    "slot {slot}'s tag {tag:?} disagrees with its record (edge, incarnation) \
                     {held:?}"
                ));
            }
        }
        Ok(())
    }

    /// Holds the covering state to the member records: a registry that
    /// keeps covers has them on every group, one that does not on none, and
    /// every kept QoS envelope is *exactly* the fold over the group's
    /// current members (`scratch_envelope`, an
    /// independent derivation — not the prefix-fold machinery — so a
    /// prefix-maintenance bug cannot agree with it).
    pub fn audit_covers(&self) -> Result<(), String> {
        for (edge, group) in self.groups() {
            let Some(covers) = group.covers() else {
                if self.keeps_covers() {
                    return Err(format!("{edge}'s group holds no covers"));
                }
                continue;
            };
            if !self.keeps_covers() {
                return Err(format!(
                    "{edge}'s group holds covers the registry does not keep"
                ));
            }
            let (kept, scratch) = (covers.envelope(), self.scratch_envelope(edge, self.epoch));
            if kept != scratch {
                return Err(format!(
                    "the envelope of {edge}'s group is {kept:?}, but the fold over \
                     its current members gives {scratch:?}"
                ));
            }
        }
        Ok(())
    }

    /// The group attached at one edge broker (absent when empty).
    pub fn group(&self, edge: BrokerId) -> Option<&EdgeGroup> {
        self.by_edge.get(&edge)
    }

    /// Folds the QoS envelope of the members attached at `edge` whose
    /// `join_epoch` does not exceed `epoch`, directly from the member
    /// records in ascending id order — deliberately **not** via the group's
    /// prefix-fold machinery, so audits comparing it against
    /// [`GroupCovers::envelope_at`] exercise an independent derivation.
    /// Commutative folds (min / saturating sum) make the different iteration
    /// orders agree exactly.
    pub(crate) fn scratch_envelope(&self, edge: BrokerId, epoch: u64) -> QosEnvelope {
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
    /// membership pins the registry's full content. Covers are derived
    /// state and stay out, so a registry digests the same with or without
    /// them. Used by the model-checking explorer's state deduplication.
    pub(crate) fn digest_into(&self, h: &mut impl std::hash::Hasher) {
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
    /// `digest_into`).
    pub fn state_digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.digest_into(&mut h);
        h.finish()
    }

    /// Rough bytes the registry holds (counted **once** globally): records
    /// and member ids always, covers only where they are kept.
    pub fn bytes_estimate(&self) -> u64 {
        let member_bytes =
            (std::mem::size_of::<MemberRecord>() + MEMBER_SLOT_OVERHEAD) * self.registered;
        let group_bytes: usize = self
            .by_edge
            .values()
            .map(|g| {
                g.ids.len() * std::mem::size_of::<SubscriptionId>()
                    + g.covers.as_ref().map_or(0, GroupCovers::bytes_estimate)
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

/// Approximate per-member overhead of the registry's slot vectors: the slot
/// tag, growth slack and the holes leaves leave behind.
const MEMBER_SLOT_OVERHEAD: usize = 48;
/// Approximate per-member overhead of a covering-forest node (filter handle,
/// parent pointer, child-set slot).
const FOREST_NODE_OVERHEAD: usize = 72;
/// Approximate per-aggregate overhead of the ordered destination map.
const AGGREGATE_SLOT_OVERHEAD: usize = 32;

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
    pub(crate) next_link: LinkId,
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

/// The sparse table of one broker: one aggregate per reachable remote
/// destination, and a handle to the shared registry. It stores no
/// subscription and builds no row: the broker joins each registry record
/// with the route towards its edge broker itself.
#[derive(Debug, Clone)]
pub struct SparseTable {
    broker: BrokerId,
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
            aggregates: BTreeMap::new(),
            population: Arc::clone(population),
        };
        table.rebuild_aggregates(routing);
        table
    }

    /// The broker this table belongs to.
    pub fn broker(&self) -> BrokerId {
        self.broker
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

    /// Hashes the table's routed content — every aggregate's route, in
    /// ascending destination order. The shared registry, local members
    /// included, is digested separately by its owner (one copy globally),
    /// not per broker.
    pub fn digest_into(&self, h: &mut impl std::hash::Hasher) {
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
            return outcome; // local rows carry no route and never move
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

    /// Rough bytes of this broker's own state — its aggregates; the shared
    /// registry is counted separately, once.
    pub fn bytes_estimate(&self) -> u64 {
        (self.aggregates.len() * (std::mem::size_of::<AggregateEntry>() + AGGREGATE_SLOT_OVERHEAD))
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OverlayGraph;
    use crate::subtable::SubscriptionTable;
    use crate::topology::Topology;
    use bdps_filter::filter::Filter;
    use bdps_net::link::LinkQuality;
    use bdps_stats::rng::SimRng;
    use bdps_types::id::SubscriberId;
    use bdps_types::money::Price;
    use bdps_types::qos::{DelayBound, QosClass};
    use std::collections::BTreeSet;

    fn fixed_quality(_rng: &mut SimRng) -> LinkQuality {
        LinkQuality::fixed(60.0)
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

    /// The covers of the group at `edge`, in a registry that keeps them.
    fn covers_at(pop: &SharedPopulation, edge: BrokerId) -> &GroupCovers {
        pop.group(edge).and_then(EdgeGroup::covers).unwrap()
    }

    /// Resolution oracle: the sparse table joins every registered id into
    /// exactly the row a full-population [`SubscriptionTable::build`]
    /// materialises.
    fn assert_matches_dense(
        broker: BrokerId,
        routing: &Routing,
        subs: &[(Subscription, BrokerId)],
        pop: &PopulationHandle,
    ) {
        let dense = SubscriptionTable::build(broker, routing, subs);
        let sparse = SparseTable::build(broker, routing, pop);
        let ids = subs.iter().map(|(s, _)| s.id);
        dense
            .check_sparse(&sparse, &read_population(pop), ids)
            .unwrap();
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
        assert_eq!(b0.aggregate_count(), 2, "one aggregate per remote edge");
        let b2 = SparseTable::build(BrokerId::new(2), &routing, &pop);
        assert_eq!(b2.aggregate_count(), 1);
        // Aggregate fields equal the routing towards the destination.
        let (dest, agg) = b0.aggregates().next().unwrap();
        let route = routing.route(BrokerId::new(0), dest).unwrap();
        assert_eq!(agg.next_hop, route.next_hop);
        assert_eq!(agg.stats, route.stats);
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
        // The severed subscription's edge has no route.
        assert!(table.aggregate(BrokerId::new(2)).is_none());

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
            assert_eq!(p.group(BrokerId::new(2)).unwrap().ids().len(), 2);
            p.group(BrokerId::new(2))
                .unwrap()
                .covers()
                .unwrap()
                .forest
                .check_invariants()
                .unwrap();
            // The narrow newcomer is covered by the wider resident filter.
            assert_eq!(covers_at(&p, BrokerId::new(2)).forest.root_count(), 1);
            p.remove(SubscriptionId::new(0));
            assert_eq!(p.group(BrokerId::new(2)).unwrap().ids().len(), 1);
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

    /// Paper-family members with QoS over four edges, ids ascending.
    fn paper_members(n: u32, seed: u64) -> Vec<(Subscription, BrokerId)> {
        let mut rng = SimRng::seed_from(seed);
        (0..n)
            .map(|i| {
                let filter = Filter::paper_conjunction(
                    rng.uniform_range(0.0, 10.0),
                    rng.uniform_range(0.0, 10.0),
                );
                let qos = QosClass::new(
                    DelayBound::from_secs(rng.uniform_usize(5, 40) as u64),
                    Price::from_units(rng.uniform_usize(1, 5) as i64),
                );
                let sub = Subscription::with_qos(
                    SubscriptionId::new(i),
                    SubscriberId::new(i),
                    filter,
                    qos,
                );
                (sub, BrokerId::new(rng.uniform_usize(0, 4) as u32))
            })
            .collect()
    }

    #[test]
    fn a_bulk_build_summarises_like_one_insert_at_a_time() {
        let subs = paper_members(200, 3);
        let bulk = SharedPopulation::from_population(&subs);
        let mut one_by_one = SharedPopulation::new();
        for (sub, edge) in &subs {
            one_by_one.insert(sub.clone(), *edge);
        }
        assert_eq!(bulk.summary_rebuilds(), 0, "a bulk build is not churn");
        assert_eq!(one_by_one.summary_rebuilds(), 200, "one per insert");
        assert_eq!(bulk.state_digest(), one_by_one.state_digest());
        for ((edge, a), (_, b)) in bulk.groups().zip(one_by_one.groups()) {
            let (a, b) = (a.covers().unwrap(), b.covers().unwrap());
            assert_eq!(a.summary, b.summary, "summary at {edge}");
            assert_eq!(a.forest.root_count(), b.forest.root_count());
            assert_eq!(a.envelope(), b.envelope(), "envelope at {edge}");
        }
    }

    #[test]
    fn a_registry_without_covers_holds_records_only() {
        let subs = paper_members(120, 5);
        let mut exact = SharedPopulation::without_covers(&subs);
        let mut full = SharedPopulation::from_population(&subs);
        assert!(!exact.keeps_covers() && full.keeps_covers());
        for pop in [&mut exact, &mut full] {
            pop.remove(SubscriptionId::new(7));
            pop.insert(subs[7].0.clone(), BrokerId::new(9));
            pop.remove(SubscriptionId::new(3));
        }
        assert_eq!(exact.summary_rebuilds(), 0);
        assert_eq!(
            full.summary_rebuilds(),
            3,
            "two leaves from populated groups, one join"
        );
        assert_eq!(exact.state_digest(), full.state_digest());
        assert!(exact.groups().all(|(_, g)| g.covers().is_none()));
        assert!(exact.bytes_estimate() < full.bytes_estimate());
        // Without covers the publish gate cannot rule a group out.
        assert!(exact
            .groups()
            .all(|(_, g)| g.summary_matches(&head(99.0, 99.0))));
        exact.audit_covers().unwrap();
        full.audit_covers().unwrap();
    }

    #[test]
    fn the_cover_audit_holds_envelopes_and_presence_to_the_registry() {
        let subs = paper_members(60, 9);
        let edge = subs[0].1;
        let mut full = SharedPopulation::from_population(&subs);
        full.audit_covers().unwrap();
        // An envelope that kept a leaver's earning.
        let covers = full
            .by_edge
            .get_mut(&edge)
            .unwrap()
            .covers
            .as_mut()
            .unwrap();
        let last = covers.qos_prefix.last_mut().unwrap();
        last.earning_sum = last.earning_sum.saturating_add(Price::from_units(1));
        let err = full.audit_covers().unwrap_err();
        assert!(err.contains("envelope"), "{err}");
        // A group of a covering registry without covers, and a group of a
        // registry without covers holding some.
        let mut full = SharedPopulation::from_population(&subs);
        full.by_edge.get_mut(&edge).unwrap().covers = None;
        assert!(full.audit_covers().unwrap_err().contains("no covers"));
        let mut exact = SharedPopulation::without_covers(&subs);
        exact.by_edge.get_mut(&edge).unwrap().covers = Some(GroupCovers::default());
        assert!(exact.audit_covers().unwrap_err().contains("does not keep"));
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
        assert!(table.aggregate(b).is_none());
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

    #[test]
    fn a_slot_tag_follows_its_member_through_leave_and_rejoin() {
        let mut pop = SharedPopulation::new();
        let id = SubscriptionId::new(3);
        assert_eq!(pop.slot(id), None, "no member ever held the slot");
        let tag = |pop: &SharedPopulation| {
            let tag = pop.slot(id).unwrap();
            (tag.incarnation(), tag.edge().raw(), tag.vacant())
        };
        pop.insert(qos_sub(3, 10, 1), BrokerId::new(1));
        assert_eq!(tag(&pop), (1, 1, false));
        assert!(pop.slot(SubscriptionId::new(0)).unwrap().vacant());
        // A leave keeps the incarnation, so a target resolved before it is
        // only rejected by the vacancy.
        pop.remove(id);
        assert_eq!(tag(&pop), (1, 1, true));
        pop.audit_slots().unwrap();
        // Re-joining, here or elsewhere, is a new incarnation.
        pop.insert(qos_sub(3, 30, 2), BrokerId::new(2));
        assert_eq!(tag(&pop), (2, 2, false));
        pop.insert(qos_sub(3, 30, 5), BrokerId::new(2));
        assert_eq!(tag(&pop), (3, 2, false));
        assert_eq!(pop.member(id).unwrap().incarnation, 3);
        pop.audit_slots().unwrap();
        // Incarnations wrap past 0, which no slot ever takes.
        let last = SlotTag {
            word: SlotTag::VACANT - 1,
            edge: BrokerId::new(2),
        };
        assert_eq!(last.next(BrokerId::new(4)).incarnation(), 1);
        assert_eq!(std::mem::size_of::<SlotTag>(), 8);
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
        let now = covers_at(&pop, edge).envelope();
        assert_eq!(now.min_allowed_delay, Duration::from_secs(10));
        assert_eq!(now.earning_sum, Price::from_units(5));
        assert_eq!(now.members, 3);
        // Every epoch prefix agrees with the independent scratch fold.
        for epoch in 0..=pop.epoch() {
            assert_eq!(
                covers_at(&pop, edge).envelope_at(epoch),
                pop.scratch_envelope(edge, epoch),
                "prefix fold drifted from scratch fold at epoch {epoch}"
            );
        }
        assert_eq!(covers_at(&pop, edge).envelope_at(0), QosEnvelope::EMPTY);
        assert_eq!(
            covers_at(&pop, edge).envelope_at(1).earning_sum,
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
        let after = covers_at(&pop, edge).envelope_at(snapshot);
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
        let group = covers_at(&pop, edge);
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
            let envelope = covers_at(&p, edge).envelope();
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
        let group = covers_at(&pop, BrokerId::new(0));
        assert_eq!(group.forest.root_count(), 3);
        assert_eq!(group.summary.len(), 2, "tight pair merges, wide stays");
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
        let mut group = group.clone();
        group.rebuild_summary(&SelectivityModel::paper_workload(), 0.0);
        assert_eq!(group.summary.len(), group.forest.root_count());
        // A fully permissive gate collapses the group to one envelope.
        group.rebuild_summary(&SelectivityModel::paper_workload(), 1.0);
        assert_eq!(group.summary.len(), 1);
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
    fn brokers_store_aggregates_not_members() {
        // 4-broker star with ten members attached at each leaf: the hub
        // holds one aggregate per leaf, each leaf aggregates towards the
        // other two. No broker stores a member, not even the leaf the
        // members attach to, so a table costs the same per aggregate
        // wherever it sits.
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
        let (hub, leaf) = (BrokerId::new(0), BrokerId::new(1));
        let hub_table = SparseTable::build(hub, &routing, &pop);
        assert_eq!(hub_table.aggregate_count(), 3, "one aggregate per leaf");
        let leaf_table = SparseTable::build(leaf, &routing, &pop);
        assert_eq!(leaf_table.aggregate_count(), 2);
        assert_eq!(
            2 * hub_table.bytes_estimate(),
            3 * leaf_table.bytes_estimate(),
            "a leaf pays nothing for its own members"
        );
        // The leaf's members resolve from the registry all the same.
        assert_matches_dense(hub, &routing, &subs, &pop);
        assert_matches_dense(leaf, &routing, &subs, &pop);
    }
}
