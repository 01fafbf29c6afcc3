//! Filters: conjunctions of predicates.
//!
//! The paper's subscriptions are conjunctions (`A1 < x1 ∧ A2 < x2`), which is
//! the canonical form content-based routing works with ([`Filter`]) and the
//! only filter form the match index, cover forest and registry read.

use crate::predicate::Predicate;
use bdps_types::message::MessageHead;
use std::fmt;
use std::sync::Arc;

/// A conjunction of atomic predicates — the unit of subscription routing.
///
/// # The empty filter is *top*, not bottom
///
/// An empty filter matches every message (it is the "true" filter): an empty
/// conjunction is vacuously satisfied. Consequently [`match_all`](Self::match_all)
/// is the empty filter, it [`covers`](Self::covers) every other filter, and
/// [`cover_join`](Self::cover_join) with it yields the empty filter again —
/// the top element of the covering order. Code that inspects
/// [`is_empty`](Self::is_empty) or `predicates().is_empty()` must never read
/// an empty predicate list as "matches nothing". A filter that matches
/// nothing deliberately has no `Filter` representation.
///
/// The predicate list is shared behind an `Arc`: a filter is cloned into
/// every broker's subscription table and matching index, and at 10⁵
/// subscribers those copies dominated construction time and memory. Cloning
/// a filter is a reference-count bump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filter {
    predicates: Arc<Vec<Predicate>>,
}

impl Filter {
    /// The filter that matches every message.
    pub fn match_all() -> Self {
        Filter::default()
    }

    /// Creates a filter from a list of predicates.
    pub fn new(predicates: Vec<Predicate>) -> Self {
        Filter {
            predicates: Arc::new(predicates),
        }
    }

    /// Builds the paper's workload filter `A1 < x1 ∧ A2 < x2`.
    pub fn paper_conjunction(x1: f64, x2: f64) -> Self {
        Filter::new(vec![Predicate::lt("A1", x1), Predicate::lt("A2", x2)])
    }

    /// The predicates of the conjunction.
    pub(crate) fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// Returns true when the filter has no predicates — i.e. when it is
    /// [`match_all`](Self::match_all), the *top* of the covering order.
    /// An empty filter matches everything, never nothing.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Evaluates the filter against a message head.
    pub fn matches(&self, head: &MessageHead) -> bool {
        self.predicates.iter().all(|p| p.matches(head))
    }

    /// Returns true when this filter *covers* `other`: every message matching
    /// `other` also matches `self`. The check is conservative (sound but not
    /// complete): it requires every predicate of `self` to be implied by some
    /// predicate of `other`.
    pub fn covers(&self, other: &Filter) -> bool {
        self.predicates
            .iter()
            .all(|mine| other.predicates.iter().any(|theirs| theirs.implies(mine)))
    }

    /// The covering join of two filters: a filter that covers both operands
    /// (a conservative least upper bound under [`covers`](Self::covers)).
    ///
    /// A filter `g` covers `f` when every predicate of `g` is implied by
    /// some predicate of `f`; the join therefore keeps exactly the
    /// predicates of either operand that the *other* operand implies, then
    /// drops internal redundancies. Joining with [`match_all`](Self::match_all)
    /// yields `match_all` — the top element of the covering order. Part of
    /// the covering algebra next to [`covers`](Self::covers) and
    /// [`CoverForest`](crate::cover::CoverForest), for callers that want a
    /// single summary filter per group instead of the full covering set
    /// (e.g. advertising one merged envelope upstream).
    pub fn cover_join(&self, other: &Filter) -> Filter {
        let implied_by = |preds: &[Predicate], p: &Predicate| preds.iter().any(|q| q.implies(p));
        let mut kept: Vec<Predicate> = Vec::new();
        for p in self.predicates.iter() {
            if implied_by(other.predicates(), p) {
                kept.push(p.clone());
            }
        }
        for p in other.predicates.iter() {
            if implied_by(self.predicates(), p) {
                kept.push(p.clone());
            }
        }
        Filter::new(kept).simplified()
    }

    /// Returns a simplified filter with redundant predicates removed
    /// (a predicate implied by another predicate of the same filter is dropped).
    pub(crate) fn simplified(&self) -> Filter {
        let mut kept: Vec<Predicate> = Vec::with_capacity(self.predicates.len());
        for (i, p) in self.predicates.iter().enumerate() {
            let redundant = self.predicates.iter().enumerate().any(|(j, q)| {
                if i == j {
                    return false;
                }
                // q implies p and either q is strictly stronger, or they are
                // equal and we keep only the first occurrence.
                q.implies(p) && (!p.implies(q) || j < i)
            });
            if !redundant {
                kept.push(p.clone());
            }
        }
        Filter::new(kept)
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicates.is_empty() {
            return f.write_str("true");
        }
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                f.write_str(" && ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl From<Predicate> for Filter {
    fn from(p: Predicate) -> Self {
        Filter::new(vec![p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompOp;

    fn head(a1: f64, a2: f64) -> MessageHead {
        let mut h = MessageHead::new();
        h.set("A1", a1).set("A2", a2);
        h
    }

    #[test]
    fn conjunction_matching() {
        let f = Filter::paper_conjunction(5.0, 5.0);
        assert!(f.matches(&head(3.0, 4.9)));
        assert!(!f.matches(&head(5.0, 4.9)));
        assert!(!f.matches(&head(3.0, 6.0)));
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    fn empty_filter_matches_everything() {
        let f = Filter::match_all();
        assert!(f.matches(&head(1.0, 2.0)));
        assert!(f.matches(&MessageHead::new()));
        assert_eq!(f.to_string(), "true");
    }

    #[test]
    fn empty_filter_is_the_top_of_the_covering_order() {
        // Dedicated pin for the empty-filter-is-top convention (previously
        // only asserted incidentally inside a cover-forest property): the
        // result of `cover_join` with match_all is the *empty* filter, and
        // that empty filter must behave as "matches everything", not
        // "matches nothing". Aggregate summaries depend on this — a group
        // containing a match_all subscription summarises to an empty filter
        // that must keep matching every publication.
        let narrow = Filter::paper_conjunction(2.0, 2.0);
        let join = narrow.cover_join(&Filter::match_all());
        assert!(join.is_empty());
        assert_eq!(join, Filter::match_all());
        assert!(join.matches(&head(9.0, 9.0)));
        assert!(join.matches(&MessageHead::new()));
        assert!(join.covers(&narrow));
        assert!(join.covers(&Filter::match_all()));
        // Symmetric operand order.
        assert_eq!(Filter::match_all().cover_join(&narrow), Filter::match_all());
        // And the same filter via simplified()/new(vec![]) round trips.
        assert!(Filter::new(vec![]).matches(&head(0.0, 0.0)));
    }

    #[test]
    fn covering_relation() {
        let wide = Filter::paper_conjunction(8.0, 8.0);
        let narrow = Filter::paper_conjunction(3.0, 3.0);
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        // Everything covers itself; match_all covers everything.
        assert!(wide.covers(&wide));
        assert!(Filter::match_all().covers(&narrow));
        assert!(!narrow.covers(&Filter::match_all()));
        // A filter with an extra attribute is covered by one without it.
        let extra = Filter::new(vec![
            Predicate::lt("A1", 3.0),
            Predicate::lt("A2", 3.0),
            Predicate::new("A3", CompOp::Gt, 0.0),
        ]);
        assert!(narrow.covers(&extra));
        assert!(!extra.covers(&narrow));
    }

    #[test]
    fn simplification_drops_redundant_predicates() {
        let f = Filter::new(vec![
            Predicate::lt("A1", 3.0),
            Predicate::lt("A1", 5.0), // implied by the previous one
            Predicate::new("A2", CompOp::Gt, 1.0),
        ]);
        let s = f.simplified();
        assert_eq!(s.len(), 2);
        assert!(s.predicates().contains(&Predicate::lt("A1", 3.0)));
        assert!(s
            .predicates()
            .contains(&Predicate::new("A2", CompOp::Gt, 1.0)));
        // Duplicate predicates collapse to one.
        let dup = Filter::new(vec![Predicate::lt("A1", 3.0), Predicate::lt("A1", 3.0)]);
        assert_eq!(dup.simplified().len(), 1);
    }

    #[test]
    fn display_round_trip_shape() {
        let f = Filter::paper_conjunction(5.0, 2.5);
        assert_eq!(f.to_string(), "A1 < 5 && A2 < 2.5");
        let f = Filter::new(vec![
            Predicate::ge("congestion", 7.0),
            Predicate::lt("region", 3.0),
        ]);
        assert_eq!(f.to_string(), "congestion >= 7 && region < 3");
    }
}
