//! A counting-based matching index.
//!
//! A broker needs to find, for every incoming message, the set of registered
//! subscriptions whose filter matches the message head. The naive approach
//! evaluates every filter independently; the classic *counting algorithm*
//! instead indexes individual predicates per attribute and counts, per
//! subscription, how many of its predicates a message satisfies — the
//! subscription matches when the count reaches its predicate total.
//!
//! For the inequality predicates that dominate content-based workloads
//! (`attr < c`, `attr >= c`, ...) the index keeps the constants sorted per
//! (attribute, operator) so that all satisfied predicates are found with one
//! binary search plus a contiguous scan, instead of evaluating every
//! predicate. Equality and string predicates fall back to a per-attribute
//! linear scan, and non-indexable situations are handled by a residual
//! re-check, so the index is *exact*: [`MatchIndex::matching`] returns the
//! same set a brute-force evaluation would, NaN included — no ordering
//! predicate holds for a NaN head value, so it skips the sorted lists, and a
//! NaN threshold is indexed with the predicates evaluated directly.
//!
//! # Slots
//!
//! Each indexed subscription owns a *slot*, a dense position in a per-index
//! table that holds its id, the number of predicates it needs and its
//! filter. The threshold lists and the directly evaluated predicates name
//! slots, not ids, so a match counts into one `Vec` entry per slot and reads
//! the matches off in one pass in slot order: no hashing on the publish
//! path. Slots are not raw ids because they are append-only: a removal
//! leaves a tombstone instead of shifting later slots, and an insert takes a
//! new slot — a re-joined id too, so the threshold entries its earlier slot
//! left behind (see below) count into the tombstone, never into the live
//! subscription. The table grows with the inserts ever made, as
//! `SharedPopulation::members` grows with the ids ever joined. Ids are
//! minted in ascending order, so slot order is id order and the final sort
//! is a linear check; only re-inserting a live id, or inserting ids out of
//! order, leaves it work to do.
//!
//! # Threshold lists under churn
//!
//! A sorted list of 10⁵ thresholds must not shift on every join and leave.
//! A removal therefore leaves its slot's threshold entries where they are:
//! the tombstone's `needed` is unreachable, so they count into a slot that
//! never matches, and they outlive their slot until their list next merges.
//! An insert appends to a short unsorted tail that every match scans
//! linearly; when the tail is full it merges into the sorted run in one
//! pass, which also drops the entries of tombstoned slots.
//!
//! Matching is deterministic: its output is sorted, and counting is
//! independent of the order the predicates are visited in.

use crate::filter::Filter;
use crate::predicate::{CompOp, Predicate};
use bdps_types::id::SubscriptionId;
use bdps_types::message::MessageHead;
use bdps_types::value::AttrName;
use std::collections::HashMap;

/// Entries a threshold list's unsorted tail takes before it is merged into
/// the sorted run: a scan of this many entries per list and publication
/// against one linear merge per this many inserts.
const TAIL_LEN: usize = 512;

/// Per-(attribute, operator) list of numeric thresholds: a sorted run plus
/// a short unsorted tail of recent inserts.
#[derive(Debug, Default, Clone)]
struct ThresholdList {
    /// (threshold, slot) pairs sorted by threshold; no threshold is NaN.
    sorted: Vec<(f64, u32)>,
    /// (threshold, slot) pairs inserted since the last merge, in insertion
    /// order; fewer than [`TAIL_LEN`].
    tail: Vec<(f64, u32)>,
}

impl ThresholdList {
    /// Appends to the tail, merging it into the sorted run once it is full.
    /// `live` says which slots still hold a subscription: the merge drops
    /// the entries of the others.
    fn insert(&mut self, threshold: f64, slot: u32, live: impl Fn(u32) -> bool) {
        self.tail.push((threshold, slot));
        if self.tail.len() >= TAIL_LEN {
            self.merge(live);
        }
    }

    /// Merges the tail into the sorted run in one linear pass, dropping the
    /// entries of slots that are no longer `live`.
    fn merge(&mut self, live: impl Fn(u32) -> bool) {
        self.tail.sort_unstable_by(by_threshold_then_slot);
        let (run, tail) = (&self.sorted, &self.tail);
        let mut merged = Vec::with_capacity(run.len() + tail.len());
        let (mut i, mut j) = (0, 0);
        while i < run.len() || j < tail.len() {
            let from_run = j == tail.len()
                || (i < run.len() && by_threshold_then_slot(&run[i], &tail[j]).is_le());
            let entry = if from_run {
                i += 1;
                run[i - 1]
            } else {
                j += 1;
                tail[j - 1]
            };
            if live(entry.1) {
                merged.push(entry);
            }
        }
        self.sorted = merged;
        self.tail.clear();
    }

    /// Appends without maintaining order — bulk construction pushes
    /// everything first and [`sort`](Self::sort)s once, turning the
    /// quadratic build (one `memmove` per sorted insert) into `O(n log n)`.
    fn push_unsorted(&mut self, threshold: f64, slot: u32) {
        self.sorted.push((threshold, slot));
    }

    fn sort(&mut self) {
        self.sorted.sort_unstable_by(by_threshold_then_slot);
    }

    /// Visits every slot whose predicate `value OP threshold` is satisfied:
    /// a binary search into the sorted run, then every tail entry tested
    /// one by one. `value` must not be NaN: every run boundary below
    /// assumes it is ordered against the thresholds.
    fn for_each_satisfied(&self, op: CompOp, value: f64, mut f: impl FnMut(u32)) {
        let run = &self.sorted;
        let satisfied = match op {
            // value < threshold  -> thresholds strictly greater than value.
            CompOp::Lt => &run[run.partition_point(|(t, _)| *t <= value)..],
            // value <= threshold -> thresholds >= value.
            CompOp::Le => &run[run.partition_point(|(t, _)| *t < value)..],
            // value > threshold  -> thresholds strictly less than value.
            CompOp::Gt => &run[..run.partition_point(|(t, _)| *t < value)],
            // value >= threshold -> thresholds <= value.
            CompOp::Ge => &run[..run.partition_point(|(t, _)| *t <= value)],
            CompOp::Eq | CompOp::Ne => unreachable!("equality handled separately"),
        };
        for &(_, slot) in satisfied {
            f(slot);
        }
        for &(t, slot) in &self.tail {
            let holds = match op {
                CompOp::Lt => value < t,
                CompOp::Le => value <= t,
                CompOp::Gt => value > t,
                CompOp::Ge => value >= t,
                CompOp::Eq | CompOp::Ne => false,
            };
            if holds {
                f(slot);
            }
        }
    }
}

/// The order of a sorted run: by threshold, equal thresholds by slot.
fn by_threshold_then_slot(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

/// Predicates on one attribute.
#[derive(Debug, Default, Clone)]
struct AttrIndex {
    /// Sorted numeric thresholds, one list per inequality operator.
    lt: ThresholdList,
    le: ThresholdList,
    gt: ThresholdList,
    ge: ThresholdList,
    /// Equality/inequality, non-numeric and NaN-threshold predicates,
    /// evaluated directly.
    other: Vec<(Predicate, u32)>,
}

impl AttrIndex {
    /// The sorted list `pred` is indexed in, with its threshold; `None` when
    /// it belongs in [`other`](Self::other).
    fn list_for(&mut self, pred: &Predicate) -> Option<(&mut ThresholdList, f64)> {
        let threshold = pred.value.as_f64().filter(|c| !c.is_nan())?;
        let list = match pred.op {
            CompOp::Lt => &mut self.lt,
            CompOp::Le => &mut self.le,
            CompOp::Gt => &mut self.gt,
            CompOp::Ge => &mut self.ge,
            CompOp::Eq | CompOp::Ne => return None,
        };
        Some((list, threshold))
    }
}

/// The `needed` count of a removed subscription's slot: no count reaches it.
const TOMBSTONE: u32 = u32::MAX;

/// One indexed subscription (see the module docs on slots).
#[derive(Debug, Clone)]
struct Slot {
    id: SubscriptionId,
    /// Predicates a message must satisfy: 0 for a match-all filter,
    /// [`TOMBSTONE`] once removed.
    needed: u32,
    /// `None` once removed.
    filter: Option<Filter>,
}

/// An exact matching index over a set of subscriptions.
#[derive(Debug, Default, Clone)]
pub struct MatchIndex {
    /// Per-attribute predicate indexes, sorted by name like a message head.
    attrs: Vec<(AttrName, AttrIndex)>,
    slots: Vec<Slot>,
    /// Each indexed id's live slot. Consulted by `insert` and `remove`
    /// only, never by a match.
    slot_of: HashMap<SubscriptionId, u32>,
}

impl MatchIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index from an iterator of subscriptions.
    ///
    /// Bulk construction: predicates are appended unsorted and every
    /// threshold list is sorted once at the end, so building over `n`
    /// subscriptions costs `O(n log n)` instead of the `O(n²)` of repeated
    /// sorted inserts — the difference between seconds and hours at 10⁵
    /// subscriptions. A repeated id keeps its last filter.
    pub fn from_subscriptions<'a>(
        subs: impl IntoIterator<Item = (SubscriptionId, &'a Filter)>,
    ) -> Self {
        let mut idx = MatchIndex::new();
        for (id, filter) in subs {
            // Nothing is indexed yet, so removing a repeated id's earlier
            // filter only tombstones its slot: the last filter wins.
            idx.remove(id);
            idx.push_slot(id, filter.clone());
        }
        for slot in 0..idx.slots.len() {
            if let Some(filter) = idx.slots[slot].filter.clone() {
                idx.index_predicates(slot as u32, &filter, false);
            }
        }
        for (_, attr_index) in &mut idx.attrs {
            attr_index.lt.sort();
            attr_index.le.sort();
            attr_index.gt.sort();
            attr_index.ge.sort();
        }
        idx
    }

    /// Inserts (or replaces) a subscription's filter.
    pub fn insert(&mut self, id: SubscriptionId, filter: Filter) {
        self.remove(id);
        let slot = self.push_slot(id, filter.clone());
        self.index_predicates(slot, &filter, true);
    }

    /// Appends a slot holding `filter` as `id`'s live slot, without
    /// indexing any predicate.
    fn push_slot(&mut self, id: SubscriptionId, filter: Filter) -> u32 {
        let slot = self.slots.len() as u32;
        self.slot_of.insert(id, slot);
        self.slots.push(Slot {
            id,
            needed: filter.len() as u32,
            filter: Some(filter),
        });
        slot
    }

    /// Indexes every predicate of `filter` under `slot`: into the threshold
    /// lists' tails, or (bulk construction, `tail == false`) appended
    /// unsorted to their runs for one sort at the end.
    fn index_predicates(&mut self, slot: u32, filter: &Filter, tail: bool) {
        for pred in filter.predicates() {
            let at = match self.attrs.binary_search_by(|(n, _)| n.cmp(&pred.attr)) {
                Ok(at) => at,
                Err(at) => {
                    self.attrs
                        .insert(at, (pred.attr.clone(), AttrIndex::default()));
                    at
                }
            };
            let slots = &self.slots;
            let live = |s: u32| slots[s as usize].needed != TOMBSTONE;
            let attr_index = &mut self.attrs[at].1;
            match attr_index.list_for(pred) {
                Some((list, c)) if tail => list.insert(c, slot, live),
                Some((list, c)) => list.push_unsorted(c, slot),
                None => attr_index.other.push((pred.clone(), slot)),
            }
        }
    }

    /// Removes a subscription: its slot becomes a tombstone, whose
    /// `needed` no count reaches, so its threshold-list entries are inert
    /// where they are and go at their list's next merge — a removal moves
    /// no list entry. Only its directly evaluated predicates are dropped.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<Filter> {
        let slot = self.slot_of.remove(&id)?;
        let entry = &mut self.slots[slot as usize];
        entry.needed = TOMBSTONE;
        let removed = entry.filter.take()?;
        for pred in removed.predicates() {
            let Ok(at) = self.attrs.binary_search_by(|(n, _)| n.cmp(&pred.attr)) else {
                continue;
            };
            let attr_index = &mut self.attrs[at].1;
            if attr_index.list_for(pred).is_none() {
                attr_index.other.retain(|(_, s)| *s != slot);
            }
        }
        Some(removed)
    }

    /// Returns the identifiers of all subscriptions whose filter matches the
    /// message head, in ascending id order.
    pub fn matching(&self, head: &MessageHead) -> Vec<SubscriptionId> {
        let mut out = Vec::new();
        self.matching_into(head, &mut out);
        out
    }

    /// Like [`matching`](Self::matching), but appends into a caller-supplied
    /// buffer (cleared first) so hot paths can reuse one allocation across
    /// messages.
    pub fn matching_into(&self, head: &MessageHead, out: &mut Vec<SubscriptionId>) {
        out.clear();
        let mut counts = vec![0u32; self.slots.len()];
        for (name, value) in head.iter() {
            let Ok(at) = self.attrs.binary_search_by(|(n, _)| n.cmp(name)) else {
                continue;
            };
            let attr_index = &self.attrs[at].1;
            // No ordering predicate holds for a NaN value; `!=` in `other` may.
            if let Some(v) = value.as_f64().filter(|v| !v.is_nan()) {
                for (list, op) in [
                    (&attr_index.lt, CompOp::Lt),
                    (&attr_index.le, CompOp::Le),
                    (&attr_index.gt, CompOp::Gt),
                    (&attr_index.ge, CompOp::Ge),
                ] {
                    list.for_each_satisfied(op, v, |slot| counts[slot as usize] += 1);
                }
            }
            for (pred, slot) in &attr_index.other {
                if pred.matches_value(value) {
                    counts[*slot as usize] += 1;
                }
            }
        }
        out.extend(
            self.slots
                .iter()
                .zip(&counts)
                .filter(|(slot, &count)| count >= slot.needed)
                .map(|(slot, _)| slot.id),
        );
        // Slot order is id order unless an id was re-inserted or inserted
        // out of order; on ascending input the sort is one linear pass.
        out.sort_unstable();
    }

    /// Brute-force matching used as the reference implementation in tests and
    /// to cross-check the index in property tests.
    pub fn matching_bruteforce(&self, head: &MessageHead) -> Vec<SubscriptionId> {
        let mut result: Vec<SubscriptionId> = self
            .slots
            .iter()
            .filter(|slot| slot.filter.as_ref().is_some_and(|f| f.matches(head)))
            .map(|slot| slot.id)
            .collect();
        result.sort_unstable();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;

    fn head(a1: f64, a2: f64) -> MessageHead {
        let mut h = MessageHead::new();
        h.set("A1", a1).set("A2", a2);
        h
    }

    fn id(n: u32) -> SubscriptionId {
        SubscriptionId::new(n)
    }

    #[test]
    fn single_subscription_match() {
        let mut idx = MatchIndex::new();
        idx.insert(id(1), Filter::paper_conjunction(5.0, 5.0));
        assert_eq!(idx.matching(&head(3.0, 3.0)), vec![id(1)]);
        assert!(idx.matching(&head(6.0, 3.0)).is_empty());
        assert!(idx.matching(&head(3.0, 6.0)).is_empty());
    }

    #[test]
    fn counting_requires_all_predicates() {
        let mut idx = MatchIndex::new();
        // Subscription with a predicate on an attribute absent from the head.
        idx.insert(
            id(1),
            Filter::new(vec![Predicate::lt("A1", 5.0), Predicate::lt("A3", 5.0)]),
        );
        assert!(idx.matching(&head(1.0, 1.0)).is_empty());
    }

    #[test]
    fn match_all_subscription() {
        let mut idx = MatchIndex::new();
        idx.insert(id(7), Filter::match_all());
        idx.insert(id(3), Filter::paper_conjunction(5.0, 5.0));
        let m = idx.matching(&head(9.0, 9.0));
        assert_eq!(m, vec![id(7)]);
        let m = idx.matching(&head(1.0, 1.0));
        assert_eq!(m, vec![id(3), id(7)]);
    }

    #[test]
    fn all_operator_kinds() {
        let mut idx = MatchIndex::new();
        idx.insert(id(1), Filter::from(Predicate::lt("A1", 5.0)));
        idx.insert(id(2), Filter::from(Predicate::new("A1", CompOp::Le, 5.0)));
        idx.insert(id(3), Filter::from(Predicate::new("A1", CompOp::Gt, 5.0)));
        idx.insert(id(4), Filter::from(Predicate::ge("A1", 5.0)));
        idx.insert(id(5), Filter::from(Predicate::new("A1", CompOp::Eq, 5.0)));
        idx.insert(id(6), Filter::from(Predicate::new("A1", CompOp::Ne, 5.0)));

        let at = |v: f64| idx.matching(&head(v, 0.0));
        assert_eq!(at(4.0), vec![id(1), id(2), id(6)]);
        assert_eq!(at(5.0), vec![id(2), id(4), id(5)]);
        assert_eq!(at(6.0), vec![id(3), id(4), id(6)]);
        // NaN is unordered: of the six, only `!=` holds.
        assert_eq!(at(f64::NAN), vec![id(6)]);
    }

    #[test]
    fn sparse_ids_cost_slots_not_their_range() {
        // An index keyed by raw id would allocate a counter per id up to 4e9.
        let mut idx = MatchIndex::new();
        idx.insert(id(4_000_000_000), Filter::paper_conjunction(5.0, 5.0));
        idx.insert(id(3), Filter::match_all());
        assert_eq!(
            idx.matching(&head(1.0, 1.0)),
            vec![id(3), id(4_000_000_000)]
        );
        assert_eq!(idx.matching(&head(9.0, 1.0)), vec![id(3)]);
    }

    #[test]
    fn string_and_bool_predicates() {
        let mut idx = MatchIndex::new();
        let road = Predicate::new("road", CompOp::Eq, "M25");
        let closed = Predicate::new("closed", CompOp::Eq, true);
        idx.insert(id(1), Filter::from(road));
        idx.insert(id(2), Filter::from(closed));
        let mut h = MessageHead::new();
        h.set("road", "M25").set("closed", false);
        assert_eq!(idx.matching(&h), vec![id(1)]);
        h.set("closed", true);
        assert_eq!(idx.matching(&h), vec![id(1), id(2)]);
    }

    #[test]
    fn replace_and_remove() {
        let mut idx = MatchIndex::new();
        idx.insert(id(1), Filter::from(Predicate::lt("A1", 5.0)));
        idx.insert(id(2), Filter::from(Predicate::lt("A1", 8.0)));
        // Replace subscription 1 with a non-matching filter.
        let replaced = Filter::from(Predicate::new("A1", CompOp::Gt, 100.0));
        idx.insert(id(1), replaced.clone());
        assert_eq!(idx.matching(&head(3.0, 0.0)), vec![id(2)]);

        let removed = idx.remove(id(2)).unwrap();
        assert_eq!(removed, Filter::from(Predicate::lt("A1", 8.0)));
        assert!(idx.matching(&head(3.0, 0.0)).is_empty());
        assert!(idx.remove(id(99)).is_none());
        assert!(idx.remove(id(2)).is_none());
        assert_eq!(idx.remove(id(1)), Some(replaced));
    }

    #[test]
    fn index_agrees_with_bruteforce_on_random_workload() {
        let mut rng = SmallLcg::new(0xB0B0);
        let mut idx = MatchIndex::new();
        for i in 0..300u32 {
            let x1 = rng.next_f64() * 10.0;
            let x2 = rng.next_f64() * 10.0;
            idx.insert(id(i), Filter::paper_conjunction(x1, x2));
        }
        for _ in 0..200 {
            let h = head(rng.next_f64() * 10.0, rng.next_f64() * 10.0);
            assert_eq!(idx.matching(&h), idx.matching_bruteforce(&h));
        }
    }

    #[test]
    fn paper_workload_selectivity_is_about_25_percent() {
        let mut rng = SmallLcg::new(42);
        let mut idx = MatchIndex::new();
        let n_subs = 160u32;
        for i in 0..n_subs {
            idx.insert(
                id(i),
                Filter::paper_conjunction(rng.next_f64() * 10.0, rng.next_f64() * 10.0),
            );
        }
        let trials = 400;
        let mut total_matches = 0usize;
        for _ in 0..trials {
            let h = head(rng.next_f64() * 10.0, rng.next_f64() * 10.0);
            total_matches += idx.matching(&h).len();
        }
        let avg_fraction = total_matches as f64 / (trials as f64 * n_subs as f64);
        assert!(
            (avg_fraction - 0.25).abs() < 0.05,
            "average match fraction {avg_fraction}, expected ~0.25"
        );
    }

    #[test]
    fn bulk_build_agrees_with_incremental_inserts() {
        let mut rng = SmallLcg::new(0xFEED);
        let filters: Vec<(SubscriptionId, Filter)> = (0..500u32)
            .map(|i| {
                (
                    id(i),
                    Filter::paper_conjunction(rng.next_f64() * 10.0, rng.next_f64() * 10.0),
                )
            })
            .collect();
        let bulk = MatchIndex::from_subscriptions(filters.iter().map(|(i, f)| (*i, f)));
        let mut incremental = MatchIndex::new();
        for (i, f) in &filters {
            incremental.insert(*i, f.clone());
        }
        for _ in 0..100 {
            let h = head(rng.next_f64() * 10.0, rng.next_f64() * 10.0);
            assert_eq!(bulk.matching(&h), incremental.matching(&h));
        }
    }

    #[test]
    fn tombstoned_removal_keeps_index_exact() {
        let mut rng = SmallLcg::new(0xACE5);
        let mut idx = MatchIndex::new();
        for i in 0..200u32 {
            idx.insert(
                id(i),
                Filter::paper_conjunction(rng.next_f64() * 10.0, rng.next_f64() * 10.0),
            );
        }
        idx.insert(id(200), Filter::match_all());
        // Remove half the population, interleaved with matching checks.
        for i in (0..=200u32).step_by(2) {
            idx.remove(id(i));
            let h = head(rng.next_f64() * 10.0, rng.next_f64() * 10.0);
            assert_eq!(idx.matching(&h), idx.matching_bruteforce(&h));
        }
        assert_eq!(idx.slot_of.len(), 100);
        assert!(!idx.slot_of.contains_key(&id(200)));
    }

    #[test]
    fn removal_matches_a_rebuilt_index_when_thresholds_are_shared() {
        // Subscriptions 1 and 2 share both thresholds, 3 shares one of them,
        // and 4 repeats a threshold inside its own filter.
        let population = [
            (id(1), Filter::paper_conjunction(5.0, 7.0)),
            (id(2), Filter::paper_conjunction(5.0, 7.0)),
            (id(3), Filter::paper_conjunction(5.0, 2.0)),
            (
                id(4),
                Filter::new(vec![Predicate::lt("A1", 5.0), Predicate::lt("A1", 5.0)]),
            ),
            (id(5), Filter::paper_conjunction(1.0, 9.0)),
        ];
        let build = |without: &[u32]| {
            MatchIndex::from_subscriptions(
                population
                    .iter()
                    .filter(|(i, _)| !without.contains(&i.raw()))
                    .map(|(i, f)| (*i, f)),
            )
        };
        let heads = [
            head(0.5, 0.5),
            head(3.0, 1.0),
            head(3.0, 6.0),
            head(4.9, 8.0),
        ];
        // Incremental inserts order equal thresholds differently from the
        // bulk sort, so cover both constructions.
        let mut incremental = MatchIndex::new();
        for (i, f) in &population {
            incremental.insert(*i, f.clone());
        }
        for mut idx in [build(&[]), incremental] {
            let mut gone = Vec::new();
            for leaving in [2u32, 4, 1] {
                assert!(idx.remove(id(leaving)).is_some());
                gone.push(leaving);
                let rebuilt = build(&gone);
                for h in &heads {
                    assert_eq!(idx.matching(h), rebuilt.matching(h), "after {gone:?}");
                    assert_eq!(idx.matching(h), idx.matching_bruteforce(h));
                }
            }
            // The survivors' entries are all still in place.
            assert_eq!(idx.matching(&head(0.5, 0.5)), vec![id(3), id(5)]);
        }
    }

    /// A head value or threshold: NaN sometimes, a small integer (so values
    /// and thresholds tie) often.
    fn churn_number(rng: &mut SmallLcg) -> f64 {
        match rng.below(10) {
            0 => f64::NAN,
            1..=4 => rng.below(10) as f64,
            _ => rng.next_f64() * 10.0,
        }
    }

    fn churn_filter(rng: &mut SmallLcg) -> Filter {
        let predicates = (0..2 + rng.below(3))
            .map(|_| {
                let attr = if rng.below(2) == 0 { "A1" } else { "A2" };
                let op = match rng.below(20) {
                    0 => CompOp::Eq,
                    1 => CompOp::Ne,
                    k => [CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge][k as usize % 4],
                };
                Predicate::new(attr, op, churn_number(rng))
            })
            .collect();
        Filter::new(predicates)
    }

    /// Inserts, removals, re-inserts of live ids and removals of absent
    /// ids, over shared and NaN thresholds and heads: after every
    /// operation the index answers as brute force does, and every
    /// threshold list's tail merges at least twice along the way.
    #[test]
    fn index_agrees_with_bruteforce_under_churn() {
        let mut rng = SmallLcg::new(0xC4C4);
        let mut idx = MatchIndex::new();
        let (mut live, mut next_id) = (Vec::new(), 0u32);
        let mut tails = [[0usize; 4]; 2];
        let mut merges = [[0u32; 4]; 2];
        for step in 0..8_000 {
            match rng.below(20) {
                0..=8 => {
                    idx.insert(id(next_id), churn_filter(&mut rng));
                    live.push(next_id);
                    next_id += 1;
                }
                9..=14 if !live.is_empty() => {
                    let gone = live.swap_remove(rng.below(live.len() as u64) as usize);
                    assert!(idx.remove(id(gone)).is_some());
                }
                15..=17 if !live.is_empty() => {
                    let again = live[rng.below(live.len() as u64) as usize];
                    idx.insert(id(again), churn_filter(&mut rng));
                }
                _ => assert!(idx.remove(id(next_id + 7)).is_none()),
            }
            for (a, (_, attr)) in idx.attrs.iter().enumerate() {
                for (k, list) in [&attr.lt, &attr.le, &attr.gt, &attr.ge]
                    .into_iter()
                    .enumerate()
                {
                    if list.tail.len() < tails[a][k] {
                        merges[a][k] += 1;
                    }
                    tails[a][k] = list.tail.len();
                }
            }
            let h = head(churn_number(&mut rng), churn_number(&mut rng));
            assert_eq!(idx.matching(&h), idx.matching_bruteforce(&h), "step {step}");
            assert_eq!(idx.slot_of.len(), live.len());
        }
        assert_eq!(idx.attrs.len(), 2);
        assert!(
            merges.iter().flatten().all(|&m| m >= 2),
            "merges per list: {merges:?}"
        );
    }

    #[test]
    fn matching_into_reuses_the_buffer() {
        let mut idx = MatchIndex::new();
        idx.insert(id(1), Filter::from(Predicate::lt("A1", 5.0)));
        let mut buf = vec![id(9), id(9), id(9)];
        idx.matching_into(&head(1.0, 0.0), &mut buf);
        assert_eq!(buf, vec![id(1)]);
        idx.matching_into(&head(9.0, 0.0), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn from_subscriptions_constructor() {
        let filters = [
            (id(1), Filter::from(Predicate::lt("A1", 5.0))),
            (id(2), Filter::from(Predicate::new("A1", CompOp::Gt, 2.0))),
        ];
        let idx = MatchIndex::from_subscriptions(filters.iter().map(|(i, f)| (*i, f)));
        assert_eq!(idx.slot_of.len(), 2);
        assert_eq!(idx.matching(&head(3.0, 0.0)), vec![id(1), id(2)]);
    }

    /// A tiny deterministic LCG so the tests do not need the `rand` crate here.
    struct SmallLcg(u64);

    impl SmallLcg {
        fn new(seed: u64) -> Self {
            SmallLcg(seed.max(1))
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
        /// Uniform in `0..n`.
        fn below(&mut self, n: u64) -> u64 {
            (self.next_f64() * n as f64) as u64
        }
    }
}
