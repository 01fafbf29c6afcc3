//! Covering-set maintenance for subscription aggregation.
//!
//! Content-based pub/sub systems keep broker state sublinear in the global
//! population by *aggregating* subscriptions: instead of advertising every
//! filter to every broker, an edge broker advertises only the **covering
//! set** of its attached subscriptions — the filters that are maximal under
//! [`Filter::covers`]. A message that matches any member filter necessarily
//! matches some cover (covering is semantically sound), so interior brokers
//! can route on the much smaller cover set and only the edge broker expands
//! to concrete subscribers. False-positive forwards are possible (a message
//! can match a cover but no member); false negatives are not.
//!
//! [`CoverForest`] maintains that structure incrementally under churn: each
//! member is a node, every non-root node hangs under a parent whose filter
//! covers it (verified at attach time), and the roots are the covering set.
//! Insert and remove touch only the root list and the affected subtree, so
//! the cost per churn event is proportional to the number of covers — for
//! random conjunction workloads the expected cover count grows
//! logarithmically with the member count, making maintenance effectively
//! `O(log n)` where a from-scratch recomputation is `O(n²)`.

use crate::filter::Filter;
use bdps_types::id::SubscriptionId;
use bdps_types::message::MessageHead;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
struct Node {
    filter: Filter,
    /// A member whose filter covers this one (`None` for roots).
    parent: Option<SubscriptionId>,
    /// Members attached directly under this node.
    children: BTreeSet<SubscriptionId>,
}

/// An incrementally maintained covering forest over a set of member filters.
///
/// Invariants (checked by [`check_invariants`](Self::check_invariants)):
///
/// * every non-root node's parent filter covers the node's filter under the
///   (sound, conservative) [`Filter::covers`] check;
/// * roots carry no parent and no root is covered by another root;
/// * consequently any message head matching a member filter also matches the
///   filter of that member's root — the **aggregate soundness** property the
///   sparse subscription tables rely on.
///
/// All iteration orders are ascending by subscription id, so two forests
/// built through the same operation sequence are structurally identical —
/// the determinism the simulator's replay guarantee requires.
#[derive(Debug, Clone, Default)]
pub struct CoverForest {
    nodes: BTreeMap<SubscriptionId, Node>,
    roots: BTreeSet<SubscriptionId>,
}

impl CoverForest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        CoverForest::default()
    }

    /// Number of member filters.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true when the forest has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of covers (roots) — the size of the aggregate a broker would
    /// actually store or advertise.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Returns true when `id` is a member.
    pub fn contains(&self, id: SubscriptionId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// The member's filter, when present.
    pub fn filter_of(&self, id: SubscriptionId) -> Option<&Filter> {
        self.nodes.get(&id).map(|n| &n.filter)
    }

    /// Iterates the covering set `(id, filter)` in ascending id order.
    pub fn roots(&self) -> impl Iterator<Item = (SubscriptionId, &Filter)> + '_ {
        self.roots.iter().map(|id| (*id, &self.nodes[id].filter))
    }

    /// Iterates every member `(id, filter)` in ascending id order.
    pub fn members(&self) -> impl Iterator<Item = (SubscriptionId, &Filter)> + '_ {
        self.nodes.iter().map(|(id, n)| (*id, &n.filter))
    }

    /// Returns true when some cover matches the head — the aggregate-level
    /// test interior brokers route on. Sound: a head matching any member
    /// matches some cover; false positives are possible and expected.
    pub fn any_root_matches(&self, head: &MessageHead) -> bool {
        self.roots
            .iter()
            .any(|id| self.nodes[id].filter.matches(head))
    }

    /// Adds (or replaces) a member filter.
    ///
    /// The new member attaches under the smallest-id root that covers it;
    /// when no root does, it becomes a root itself and adopts every existing
    /// root it covers. Cost: one [`Filter::covers`] check per root.
    pub fn insert(&mut self, id: SubscriptionId, filter: Filter) {
        if self.nodes.contains_key(&id) {
            self.remove(id);
        }
        // Shelter under the first root that covers the newcomer.
        let shelter = self
            .roots
            .iter()
            .copied()
            .find(|r| self.nodes[r].filter.covers(&filter));
        match shelter {
            Some(parent) => {
                self.nodes.insert(
                    id,
                    Node {
                        filter,
                        parent: Some(parent),
                        children: BTreeSet::new(),
                    },
                );
                self.nodes
                    .get_mut(&parent)
                    .expect("parent exists")
                    .children
                    .insert(id);
            }
            None => {
                // New root; existing roots it covers become its children.
                let demoted: Vec<SubscriptionId> = self
                    .roots
                    .iter()
                    .copied()
                    .filter(|r| filter.covers(&self.nodes[r].filter))
                    .collect();
                let mut children = BTreeSet::new();
                for r in demoted {
                    self.roots.remove(&r);
                    self.nodes.get_mut(&r).expect("root exists").parent = Some(id);
                    children.insert(r);
                }
                self.nodes.insert(
                    id,
                    Node {
                        filter,
                        parent: None,
                        children,
                    },
                );
                self.roots.insert(id);
            }
        }
    }

    /// Removes a member, returning its filter when present.
    ///
    /// The removed node's children (each keeping its own subtree) are
    /// re-homed in ascending id order: under the smallest current root that
    /// covers them, or promoted to roots themselves. Cost: one cover check
    /// per (orphan, root) pair.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<Filter> {
        let node = self.nodes.remove(&id)?;
        match node.parent {
            Some(parent) => {
                self.nodes
                    .get_mut(&parent)
                    .expect("parent exists")
                    .children
                    .remove(&id);
            }
            None => {
                self.roots.remove(&id);
            }
        }
        for orphan in node.children {
            // Note: the old parent's parent is *not* guaranteed to pass the
            // conservative syntactic cover check against the orphan (covers
            // is sound but incomplete), so orphans are re-sheltered from the
            // root list instead of silently re-attached upward.
            let shelter = self
                .roots
                .iter()
                .copied()
                .find(|r| self.nodes[r].filter.covers(&self.nodes[&orphan].filter));
            let orphan_node = self.nodes.get_mut(&orphan).expect("orphan exists");
            match shelter {
                Some(parent) => {
                    orphan_node.parent = Some(parent);
                    self.nodes
                        .get_mut(&parent)
                        .expect("root exists")
                        .children
                        .insert(orphan);
                }
                None => {
                    orphan_node.parent = None;
                    self.roots.insert(orphan);
                }
            }
        }
        Some(node.filter)
    }

    /// Verifies the structural invariants, returning the first violation.
    /// Test and debug support; `O(members × roots)`.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (&id, node) in &self.nodes {
            match node.parent {
                None => {
                    if !self.roots.contains(&id) {
                        return Err(format!("{id} has no parent but is not a root"));
                    }
                }
                Some(parent) => {
                    let Some(p) = self.nodes.get(&parent) else {
                        return Err(format!("{id} has dangling parent {parent}"));
                    };
                    if !p.children.contains(&id) {
                        return Err(format!("{parent} does not list child {id}"));
                    }
                    if !p.filter.covers(&node.filter) {
                        return Err(format!("parent {parent} does not cover {id}"));
                    }
                    if self.roots.contains(&id) {
                        return Err(format!("{id} is a root but has a parent"));
                    }
                }
            }
            for child in &node.children {
                if self.nodes.get(child).map(|c| c.parent) != Some(Some(id)) {
                    return Err(format!("child link {id} -> {child} is not mirrored"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompOp, Predicate};
    use bdps_stats::rng::SimRng;

    fn sid(i: u32) -> SubscriptionId {
        SubscriptionId::new(i)
    }

    /// Seeded property harness in the style of `tests/properties.rs`: each
    /// property runs over a few hundred pseudo-random cases with the failing
    /// case index reported on panic.
    fn check(seed: u64, cases: usize, mut property: impl FnMut(&mut SimRng)) {
        for case in 0..cases {
            let mut rng = SimRng::seed_from(seed ^ (case as u64).wrapping_mul(0x9E37_79B9));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                property(&mut rng);
            }));
            if let Err(panic) = result {
                eprintln!("property failed at case {case} (seed {seed:#x})");
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// A random conjunction over up to three attributes with random
    /// inequality operators — the general family where `covers` is sound
    /// but not complete.
    fn random_filter(rng: &mut SimRng) -> Filter {
        let attrs = ["A1", "A2", "A3"];
        let ops = [CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge];
        let n = rng.uniform_usize(0, 4);
        let preds = (0..n)
            .map(|_| {
                Predicate::new(
                    attrs[rng.uniform_usize(0, attrs.len())],
                    ops[rng.uniform_usize(0, ops.len())],
                    rng.uniform_range(0.0, 10.0),
                )
            })
            .collect();
        Filter::new(preds)
    }

    fn random_head(rng: &mut SimRng) -> MessageHead {
        let mut h = MessageHead::new();
        h.set("A1", rng.uniform_range(-1.0, 11.0));
        h.set("A2", rng.uniform_range(-1.0, 11.0));
        h.set("A3", rng.uniform_range(-1.0, 11.0));
        h
    }

    #[test]
    fn covering_is_reflexive() {
        check(0xC0FE_0001, 300, |rng| {
            let f = random_filter(rng);
            assert!(f.covers(&f), "covers must be reflexive: {f}");
        });
    }

    #[test]
    fn covering_is_transitive_on_the_paper_family() {
        // On the paper's `A1 < x1 && A2 < x2` family the conservative check
        // is complete (covering = coordinate-wise domination), so syntactic
        // transitivity must hold exactly.
        check(0xC0FE_0002, 300, |rng| {
            let mut xs: Vec<(f64, f64)> = (0..3)
                .map(|_| (rng.uniform_range(0.0, 10.0), rng.uniform_range(0.0, 10.0)))
                .collect();
            // Sort into a dominated chain c <= b <= a coordinate-wise.
            xs.sort_by(|p, q| p.0.total_cmp(&q.0));
            let lo = (xs[0].0, xs[0].1.min(xs[1].1).min(xs[2].1));
            let mid = (xs[1].0, xs[1].1.min(xs[2].1).max(lo.1));
            let hi = (xs[2].0, xs[2].1.max(mid.1));
            let a = Filter::paper_conjunction(hi.0, hi.1);
            let b = Filter::paper_conjunction(mid.0, mid.1);
            let c = Filter::paper_conjunction(lo.0, lo.1);
            assert!(a.covers(&b) && b.covers(&c), "chain construction");
            assert!(a.covers(&c), "transitivity broke: {a} / {b} / {c}");
        });
    }

    #[test]
    fn covering_is_semantically_transitive_in_general() {
        // For arbitrary conjunctions syntactic transitivity is not promised,
        // but the *semantic* consequence must hold: when a covers b and b
        // covers c, every head matching c matches a.
        check(0xC0FE_0003, 300, |rng| {
            let a = random_filter(rng);
            let b = random_filter(rng);
            let c = random_filter(rng);
            if a.covers(&b) && b.covers(&c) {
                for _ in 0..20 {
                    let head = random_head(rng);
                    if c.matches(&head) {
                        assert!(
                            a.matches(&head),
                            "semantic transitivity broke: {a} / {b} / {c}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn covering_is_antisymmetric_up_to_equivalence() {
        check(0xC0FE_0004, 300, |rng| {
            let a = random_filter(rng);
            let b = random_filter(rng);
            if a.equivalent(&b) {
                // Mutual covering (`Filter::equivalent`) means the filters
                // are semantically equivalent: no sampled head can separate
                // them.
                for _ in 0..30 {
                    let head = random_head(rng);
                    assert_eq!(
                        a.matches(&head),
                        b.matches(&head),
                        "mutually covering filters disagreed: {a} vs {b}"
                    );
                }
            }
        });
    }

    #[test]
    fn match_all_is_the_top_element() {
        check(0xC0FE_0005, 300, |rng| {
            let f = random_filter(rng);
            assert!(Filter::match_all().covers(&f));
            // Nothing below the top covers it (unless itself empty).
            if !f.is_empty() {
                // A non-empty conjunction of inequalities over a bounded
                // draw range cannot cover "everything" syntactically.
                assert!(!f.covers(&Filter::match_all()));
            }
        });
    }

    #[test]
    fn covering_soundness_on_sampled_heads() {
        // a covers b must mean: every head matching b matches a.
        check(0xC0FE_0006, 300, |rng| {
            let a = random_filter(rng);
            let b = random_filter(rng);
            if a.covers(&b) {
                for _ in 0..20 {
                    let head = random_head(rng);
                    if b.matches(&head) {
                        assert!(a.matches(&head), "cover soundness broke: {a} / {b}");
                    }
                }
            }
        });
    }

    #[test]
    fn forest_aggregate_is_sound_and_expansion_is_exact() {
        // The two halves of "aggregate soundness":
        //  * any head matching a member matches some root (no false
        //    negatives at the aggregate level);
        //  * expansion checks member filters, so a head matching no member
        //    is never *delivered*, even when a cover matched it (false
        //    positives forward, never deliver).
        check(0xC0FE_0007, 120, |rng| {
            let n = rng.uniform_usize(1, 40);
            let members: Vec<(SubscriptionId, Filter)> = (0..n as u32)
                .map(|i| (sid(i), random_filter(rng)))
                .collect();
            let mut forest = CoverForest::new();
            for (id, filter) in &members {
                forest.insert(*id, filter.clone());
            }
            forest.check_invariants().unwrap();
            assert_eq!(forest.len(), n);
            assert!(forest.root_count() <= n);
            for _ in 0..15 {
                let head = random_head(rng);
                let exact: Vec<SubscriptionId> = members
                    .iter()
                    .filter(|(_, f)| f.matches(&head))
                    .map(|(id, _)| *id)
                    .collect();
                if !exact.is_empty() {
                    assert!(
                        forest.any_root_matches(&head),
                        "aggregate missed a matching member (false negative)"
                    );
                }
                // Edge expansion: aggregate gate, then member filters.
                let delivered: Vec<SubscriptionId> = if forest.any_root_matches(&head) {
                    forest
                        .members()
                        .filter(|(_, f)| f.matches(&head))
                        .map(|(id, _)| id)
                        .collect()
                } else {
                    Vec::new()
                };
                assert_eq!(
                    delivered, exact,
                    "expansion must deliver exactly the matches"
                );
            }
        });
    }

    #[test]
    fn forest_invariants_survive_arbitrary_churn() {
        check(0xC0FE_0008, 80, |rng| {
            let mut forest = CoverForest::new();
            let mut live: Vec<(SubscriptionId, Filter)> = Vec::new();
            let mut next = 0u32;
            for _ in 0..rng.uniform_usize(10, 60) {
                if live.is_empty() || rng.chance(0.6) {
                    let f = random_filter(rng);
                    forest.insert(sid(next), f.clone());
                    live.push((sid(next), f));
                    next += 1;
                } else {
                    let victim = rng.uniform_usize(0, live.len());
                    let (id, f) = live.swap_remove(victim);
                    let removed = forest.remove(id).expect("member present");
                    assert_eq!(removed, f);
                }
                forest.check_invariants().unwrap();
                assert_eq!(forest.len(), live.len());
                // Soundness is preserved at every step.
                let head = random_head(rng);
                if live.iter().any(|(_, f)| f.matches(&head)) {
                    assert!(forest.any_root_matches(&head));
                }
            }
        });
    }

    #[test]
    fn covers_aggregate_to_the_pareto_frontier_on_the_paper_family() {
        // For dominated paper conjunctions the covering set is exactly the
        // Pareto-maximal (x1, x2) pairs — far smaller than the population.
        let mut forest = CoverForest::new();
        let points = [
            (5.0, 5.0),
            (3.0, 3.0), // dominated by (5,5)
            (9.0, 1.0), // maximal
            (1.0, 9.0), // maximal
            (4.0, 4.9), // dominated by (5,5)
            (9.0, 0.5), // dominated by (9,1)
        ];
        for (i, (x1, x2)) in points.iter().enumerate() {
            forest.insert(sid(i as u32), Filter::paper_conjunction(*x1, *x2));
        }
        forest.check_invariants().unwrap();
        let roots: Vec<SubscriptionId> = forest.roots().map(|(id, _)| id).collect();
        assert_eq!(roots, vec![sid(0), sid(2), sid(3)]);
        // Removing a root promotes exactly its dominated members.
        forest.remove(sid(0));
        forest.check_invariants().unwrap();
        let roots: Vec<SubscriptionId> = forest.roots().map(|(id, _)| id).collect();
        assert_eq!(roots, vec![sid(1), sid(2), sid(3), sid(4)]);
    }

    #[test]
    fn insert_replaces_existing_members() {
        let mut forest = CoverForest::new();
        forest.insert(sid(0), Filter::paper_conjunction(5.0, 5.0));
        forest.insert(sid(1), Filter::paper_conjunction(3.0, 3.0));
        assert_eq!(forest.root_count(), 1);
        // Replacing the root with a narrow filter flips the hierarchy.
        forest.insert(sid(0), Filter::paper_conjunction(1.0, 1.0));
        forest.check_invariants().unwrap();
        assert_eq!(forest.len(), 2);
        let roots: Vec<SubscriptionId> = forest.roots().map(|(id, _)| id).collect();
        assert_eq!(roots, vec![sid(1)]);
        assert!(forest.contains(sid(0)));
        assert!(forest.filter_of(sid(0)).is_some());
    }

    #[test]
    fn cover_join_covers_both_operands() {
        check(0xC0FE_0009, 300, |rng| {
            let a = random_filter(rng);
            let b = random_filter(rng);
            let join = a.cover_join(&b);
            assert!(join.covers(&a), "join {join} must cover {a}");
            assert!(join.covers(&b), "join {join} must cover {b}");
            // Joining with match_all yields match_all (the top element).
            assert!(a.cover_join(&Filter::match_all()).is_empty());
        });
    }
}
