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
//! same set a brute-force evaluation would.

use crate::filter::Filter;
use crate::predicate::{CompOp, Predicate};
use bdps_types::id::SubscriptionId;
use bdps_types::message::MessageHead;
use std::collections::HashMap;

/// Per-(attribute, operator) sorted list of numeric thresholds.
#[derive(Debug, Default, Clone)]
struct ThresholdList {
    /// (threshold, subscription) pairs sorted by threshold.
    entries: Vec<(f64, SubscriptionId)>,
}

impl ThresholdList {
    fn insert(&mut self, threshold: f64, sub: SubscriptionId) {
        let pos = self.entries.partition_point(|(t, _)| *t < threshold);
        self.entries.insert(pos, (threshold, sub));
    }

    /// Appends without maintaining order — bulk construction pushes
    /// everything first and [`sort`](Self::sort)s once, turning the
    /// quadratic build (one `memmove` per sorted insert) into `O(n log n)`.
    fn push_unsorted(&mut self, threshold: f64, sub: SubscriptionId) {
        self.entries.push((threshold, sub));
    }

    fn sort(&mut self) {
        self.entries
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    }

    /// Removes the entry one predicate `attr OP threshold` of `sub`
    /// contributed, preserving order: a binary search to the run of equal
    /// thresholds, then a scan of that run only (equal thresholds are in no
    /// particular order of subscription).
    fn remove(&mut self, threshold: f64, sub: SubscriptionId) {
        let start = self.entries.partition_point(|(t, _)| *t < threshold);
        let found = self.entries[start..]
            .iter()
            .take_while(|(t, _)| *t == threshold)
            .position(|(_, s)| *s == sub);
        if let Some(offset) = found {
            self.entries.remove(start + offset);
        }
    }

    /// Visits every subscription whose predicate `value OP threshold` is satisfied.
    fn for_each_satisfied(&self, op: CompOp, value: f64, mut f: impl FnMut(SubscriptionId)) {
        let n = self.entries.len();
        match op {
            // value < threshold  -> thresholds strictly greater than value.
            CompOp::Lt => {
                let start = self.entries.partition_point(|(t, _)| *t <= value);
                for &(_, sub) in &self.entries[start..n] {
                    f(sub);
                }
            }
            // value <= threshold -> thresholds >= value.
            CompOp::Le => {
                let start = self.entries.partition_point(|(t, _)| *t < value);
                for &(_, sub) in &self.entries[start..n] {
                    f(sub);
                }
            }
            // value > threshold  -> thresholds strictly less than value.
            CompOp::Gt => {
                let end = self.entries.partition_point(|(t, _)| *t < value);
                for &(_, sub) in &self.entries[..end] {
                    f(sub);
                }
            }
            // value >= threshold -> thresholds <= value.
            CompOp::Ge => {
                let end = self.entries.partition_point(|(t, _)| *t <= value);
                for &(_, sub) in &self.entries[..end] {
                    f(sub);
                }
            }
            CompOp::Eq | CompOp::Ne => unreachable!("equality handled separately"),
        }
    }
}

/// Predicates on one attribute.
#[derive(Debug, Default, Clone)]
struct AttrIndex {
    /// Sorted numeric thresholds, one list per inequality operator.
    lt: ThresholdList,
    le: ThresholdList,
    gt: ThresholdList,
    ge: ThresholdList,
    /// Equality/inequality and non-numeric predicates, evaluated directly.
    other: Vec<(Predicate, SubscriptionId)>,
}

/// An exact matching index over a set of subscriptions.
#[derive(Debug, Default, Clone)]
pub struct MatchIndex {
    attrs: HashMap<String, AttrIndex>,
    /// Number of predicates per subscription (the match target of the counting algorithm).
    pred_counts: HashMap<SubscriptionId, usize>,
    /// Subscriptions with an empty filter: they match every message.
    match_all: Vec<SubscriptionId>,
    /// Original filters, kept so that removal can rebuild and callers can inspect.
    filters: HashMap<SubscriptionId, Filter>,
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
    /// subscriptions.
    pub fn from_subscriptions<'a>(
        subs: impl IntoIterator<Item = (SubscriptionId, &'a Filter)>,
    ) -> Self {
        let mut idx = MatchIndex::new();
        for (id, filter) in subs {
            if idx.filters.contains_key(&id) {
                // Duplicate id in the input: keep replace semantics.
                idx.remove(id);
            }
            idx.index_filter_unsorted(id, filter);
            idx.filters.insert(id, filter.clone());
        }
        for attr_index in idx.attrs.values_mut() {
            attr_index.lt.sort();
            attr_index.le.sort();
            attr_index.gt.sort();
            attr_index.ge.sort();
        }
        idx
    }

    /// Number of indexed subscriptions.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Returns true when no subscription is indexed.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Returns the filter registered for a subscription, if present.
    pub fn filter_of(&self, id: SubscriptionId) -> Option<&Filter> {
        self.filters.get(&id)
    }

    /// Inserts (or replaces) a subscription's filter.
    pub fn insert(&mut self, id: SubscriptionId, filter: Filter) {
        if self.filters.contains_key(&id) {
            self.remove(id);
        }
        self.index_filter(id, &filter);
        self.filters.insert(id, filter);
    }

    fn index_filter(&mut self, id: SubscriptionId, filter: &Filter) {
        if filter.is_empty() {
            self.match_all.push(id);
            return;
        }
        self.pred_counts.insert(id, filter.len());
        for pred in filter.predicates() {
            let attr_index = self.attrs.entry(pred.attr.as_str().to_owned()).or_default();
            match (pred.op, pred.value.as_f64()) {
                (CompOp::Lt, Some(c)) => attr_index.lt.insert(c, id),
                (CompOp::Le, Some(c)) => attr_index.le.insert(c, id),
                (CompOp::Gt, Some(c)) => attr_index.gt.insert(c, id),
                (CompOp::Ge, Some(c)) => attr_index.ge.insert(c, id),
                _ => attr_index.other.push((pred.clone(), id)),
            }
        }
    }

    /// Like [`index_filter`](Self::index_filter) but without maintaining
    /// threshold order; the bulk constructor sorts once afterwards.
    fn index_filter_unsorted(&mut self, id: SubscriptionId, filter: &Filter) {
        if filter.is_empty() {
            self.match_all.push(id);
            return;
        }
        self.pred_counts.insert(id, filter.len());
        for pred in filter.predicates() {
            let attr_index = self.attrs.entry(pred.attr.as_str().to_owned()).or_default();
            match (pred.op, pred.value.as_f64()) {
                (CompOp::Lt, Some(c)) => attr_index.lt.push_unsorted(c, id),
                (CompOp::Le, Some(c)) => attr_index.le.push_unsorted(c, id),
                (CompOp::Gt, Some(c)) => attr_index.gt.push_unsorted(c, id),
                (CompOp::Ge, Some(c)) => attr_index.ge.push_unsorted(c, id),
                _ => attr_index.other.push((pred.clone(), id)),
            }
        }
    }

    /// Removes a subscription surgically: each of its threshold predicates
    /// is located in its sorted list by binary search (the threshold is in
    /// hand), so a removal never scans a list and never clones the remaining
    /// filters.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<Filter> {
        let removed = self.filters.remove(&id)?;
        if removed.is_empty() {
            self.match_all.retain(|s| *s != id);
            return Some(removed);
        }
        self.pred_counts.remove(&id);
        for pred in removed.predicates() {
            let Some(attr_index) = self.attrs.get_mut(pred.attr.as_str()) else {
                continue;
            };
            match (pred.op, pred.value.as_f64()) {
                (CompOp::Lt, Some(c)) => attr_index.lt.remove(c, id),
                (CompOp::Le, Some(c)) => attr_index.le.remove(c, id),
                (CompOp::Gt, Some(c)) => attr_index.gt.remove(c, id),
                (CompOp::Ge, Some(c)) => attr_index.ge.remove(c, id),
                _ => attr_index.other.retain(|(_, s)| *s != id),
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
        let mut counts: HashMap<SubscriptionId, usize> = HashMap::new();

        for (name, value) in head.iter() {
            let Some(attr_index) = self.attrs.get(name.as_str()) else {
                continue;
            };
            if let Some(v) = value.as_f64() {
                for (list, op) in [
                    (&attr_index.lt, CompOp::Lt),
                    (&attr_index.le, CompOp::Le),
                    (&attr_index.gt, CompOp::Gt),
                    (&attr_index.ge, CompOp::Ge),
                ] {
                    list.for_each_satisfied(op, v, |sub| {
                        *counts.entry(sub).or_insert(0) += 1;
                    });
                }
            }
            for (pred, sub) in &attr_index.other {
                if pred.matches_value(value) {
                    *counts.entry(*sub).or_insert(0) += 1;
                }
            }
        }

        out.extend(counts.into_iter().filter_map(|(sub, count)| {
            let needed = *self.pred_counts.get(&sub)?;
            (count >= needed).then_some(sub)
        }));
        out.extend(self.match_all.iter().copied());
        out.sort_unstable();
        out.dedup();
    }

    /// Brute-force matching used as the reference implementation in tests and
    /// to cross-check the index in property tests.
    pub fn matching_bruteforce(&self, head: &MessageHead) -> Vec<SubscriptionId> {
        let mut result: Vec<SubscriptionId> = self
            .filters
            .iter()
            .filter(|(_, f)| f.matches(head))
            .map(|(id, _)| *id)
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
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
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
        idx.insert(id(2), Filter::from(Predicate::le("A1", 5.0)));
        idx.insert(id(3), Filter::from(Predicate::gt("A1", 5.0)));
        idx.insert(id(4), Filter::from(Predicate::ge("A1", 5.0)));
        idx.insert(id(5), Filter::from(Predicate::eq("A1", 5.0)));
        idx.insert(id(6), Filter::from(Predicate::ne("A1", 5.0)));

        let at = |v: f64| idx.matching(&head(v, 0.0));
        assert_eq!(at(4.0), vec![id(1), id(2), id(6)]);
        assert_eq!(at(5.0), vec![id(2), id(4), id(5)]);
        assert_eq!(at(6.0), vec![id(3), id(4), id(6)]);
    }

    #[test]
    fn string_and_bool_predicates() {
        let mut idx = MatchIndex::new();
        idx.insert(id(1), Filter::from(Predicate::eq("road", "M25")));
        idx.insert(id(2), Filter::from(Predicate::eq("closed", true)));
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
        idx.insert(id(1), Filter::from(Predicate::gt("A1", 100.0)));
        assert_eq!(idx.matching(&head(3.0, 0.0)), vec![id(2)]);
        assert_eq!(idx.len(), 2);

        let removed = idx.remove(id(2)).unwrap();
        assert_eq!(removed, Filter::from(Predicate::lt("A1", 8.0)));
        assert!(idx.matching(&head(3.0, 0.0)).is_empty());
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(id(99)).is_none());
        assert!(idx.filter_of(id(1)).is_some());
        assert!(idx.filter_of(id(2)).is_none());
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
    fn surgical_removal_keeps_index_exact() {
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
        assert_eq!(idx.len(), 100);
        assert!(idx.filter_of(id(200)).is_none());
    }

    #[test]
    fn removal_by_threshold_matches_a_rebuilt_index_when_thresholds_are_shared() {
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
            (id(2), Filter::from(Predicate::gt("A1", 2.0))),
        ];
        let idx = MatchIndex::from_subscriptions(filters.iter().map(|(i, f)| (*i, f)));
        assert_eq!(idx.len(), 2);
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
    }
}
