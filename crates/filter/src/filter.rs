//! Filters: conjunctions of predicates and general boolean filter expressions.
//!
//! The paper's subscriptions are conjunctions (`A1 < x1 ∧ A2 < x2`), which is
//! the canonical form content-based routing works with ([`Filter`]). General
//! boolean expressions ([`FilterExpr`]) are supported for application code
//! and are normalised into a disjunction of conjunctions before being
//! registered with a broker.

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
/// an empty predicate list as "matches nothing"; the matches-nothing case is
/// [`FilterExpr::False`] (or an empty DNF), which deliberately has no
/// `Filter` representation.
///
/// The predicate list is shared behind an `Arc`: a filter is cloned into
/// every broker's subscription table and matching index, and at 10⁵
/// subscribers those copies dominated construction time and memory. Cloning
/// a filter is a reference-count bump; the rare mutation
/// ([`and`](Self::and)) copies on write.
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

    /// Adds a predicate to the conjunction (copy-on-write when shared).
    pub fn and(mut self, p: Predicate) -> Self {
        Arc::make_mut(&mut self.predicates).push(p);
        self
    }

    /// The predicates of the conjunction.
    pub fn predicates(&self) -> &[Predicate] {
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

    /// Returns true when the two filters cover each other — equivalent under
    /// the conservative covering relation (they match the same messages).
    pub fn equivalent(&self, other: &Filter) -> bool {
        self.covers(other) && other.covers(self)
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
    pub fn simplified(&self) -> Filter {
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

/// A general boolean filter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    /// The expression that matches everything.
    True,
    /// The expression that matches nothing.
    False,
    /// An atomic predicate.
    Pred(Predicate),
    /// Conjunction of sub-expressions.
    And(Vec<FilterExpr>),
    /// Disjunction of sub-expressions.
    Or(Vec<FilterExpr>),
    /// Negation of a sub-expression.
    Not(Box<FilterExpr>),
}

impl FilterExpr {
    /// Evaluates the expression against a message head.
    pub fn matches(&self, head: &MessageHead) -> bool {
        match self {
            FilterExpr::True => true,
            FilterExpr::False => false,
            FilterExpr::Pred(p) => p.matches(head),
            FilterExpr::And(xs) => xs.iter().all(|x| x.matches(head)),
            FilterExpr::Or(xs) => xs.iter().any(|x| x.matches(head)),
            FilterExpr::Not(x) => !x.matches(head),
        }
    }

    /// Pushes negations down to the predicate level (negation normal form).
    ///
    /// Comparison predicates have exact complements (`!(a < b)` is `a >= b`),
    /// so the resulting expression contains no `Not` nodes.
    /// Note: for heads where the attribute is *missing*, both a predicate and
    /// its complement evaluate to false; routing treats missing attributes as
    /// non-matching in either polarity, which is the conventional choice.
    pub fn to_nnf(&self) -> FilterExpr {
        match self {
            FilterExpr::True | FilterExpr::False | FilterExpr::Pred(_) => self.clone(),
            FilterExpr::And(xs) => FilterExpr::And(xs.iter().map(|x| x.to_nnf()).collect()),
            FilterExpr::Or(xs) => FilterExpr::Or(xs.iter().map(|x| x.to_nnf()).collect()),
            FilterExpr::Not(inner) => match &**inner {
                FilterExpr::True => FilterExpr::False,
                FilterExpr::False => FilterExpr::True,
                FilterExpr::Pred(p) => FilterExpr::Pred(p.negated()),
                FilterExpr::Not(x) => x.to_nnf(),
                FilterExpr::And(xs) => FilterExpr::Or(
                    xs.iter()
                        .map(|x| FilterExpr::Not(Box::new(x.clone())).to_nnf())
                        .collect(),
                ),
                FilterExpr::Or(xs) => FilterExpr::And(
                    xs.iter()
                        .map(|x| FilterExpr::Not(Box::new(x.clone())).to_nnf())
                        .collect(),
                ),
            },
        }
    }

    /// Normalises the expression into a disjunction of conjunctive [`Filter`]s.
    ///
    /// An empty vector means the expression is unsatisfiable (`False`);
    /// a vector containing an empty filter means it matches everything.
    pub fn to_dnf(&self) -> Vec<Filter> {
        fn go(expr: &FilterExpr) -> Vec<Vec<Predicate>> {
            match expr {
                FilterExpr::True => vec![vec![]],
                FilterExpr::False => vec![],
                FilterExpr::Pred(p) => vec![vec![p.clone()]],
                FilterExpr::Or(xs) => xs.iter().flat_map(go).collect(),
                FilterExpr::And(xs) => {
                    let mut acc: Vec<Vec<Predicate>> = vec![vec![]];
                    for x in xs {
                        let terms = go(x);
                        let mut next = Vec::with_capacity(acc.len() * terms.len().max(1));
                        for a in &acc {
                            for t in &terms {
                                let mut combined = a.clone();
                                combined.extend(t.iter().cloned());
                                next.push(combined);
                            }
                        }
                        acc = next;
                        if acc.is_empty() {
                            break;
                        }
                    }
                    acc
                }
                FilterExpr::Not(_) => go(&expr.to_nnf()),
            }
        }
        go(&self.to_nnf()).into_iter().map(Filter::new).collect()
    }

    /// Convenience constructor for a conjunction of two expressions.
    pub fn and(a: FilterExpr, b: FilterExpr) -> FilterExpr {
        FilterExpr::And(vec![a, b])
    }

    /// Convenience constructor for a disjunction of two expressions.
    pub fn or(a: FilterExpr, b: FilterExpr) -> FilterExpr {
        FilterExpr::Or(vec![a, b])
    }

    /// Convenience constructor for a negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: FilterExpr) -> FilterExpr {
        FilterExpr::Not(Box::new(a))
    }
}

impl From<Predicate> for FilterExpr {
    fn from(p: Predicate) -> Self {
        FilterExpr::Pred(p)
    }
}

impl From<Filter> for FilterExpr {
    fn from(f: Filter) -> Self {
        if f.is_empty() {
            FilterExpr::True
        } else {
            FilterExpr::And(
                f.predicates()
                    .iter()
                    .cloned()
                    .map(FilterExpr::Pred)
                    .collect(),
            )
        }
    }
}

impl fmt::Display for FilterExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterExpr::True => f.write_str("true"),
            FilterExpr::False => f.write_str("false"),
            FilterExpr::Pred(p) => write!(f, "{p}"),
            FilterExpr::And(xs) => {
                f.write_str("(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" && ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str(")")
            }
            FilterExpr::Or(xs) => {
                f.write_str("(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" || ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str(")")
            }
            FilterExpr::Not(x) => write!(f, "!({x})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let extra = narrow.clone().and(Predicate::gt("A3", 0.0));
        assert!(narrow.covers(&extra));
        assert!(!extra.covers(&narrow));
    }

    #[test]
    fn simplification_drops_redundant_predicates() {
        let f = Filter::new(vec![
            Predicate::lt("A1", 3.0),
            Predicate::lt("A1", 5.0), // implied by the previous one
            Predicate::gt("A2", 1.0),
        ]);
        let s = f.simplified();
        assert_eq!(s.len(), 2);
        assert!(s.predicates().contains(&Predicate::lt("A1", 3.0)));
        assert!(s.predicates().contains(&Predicate::gt("A2", 1.0)));
        // Duplicate predicates collapse to one.
        let dup = Filter::new(vec![Predicate::lt("A1", 3.0), Predicate::lt("A1", 3.0)]);
        assert_eq!(dup.simplified().len(), 1);
    }

    #[test]
    fn expr_evaluation() {
        let e = FilterExpr::or(
            FilterExpr::and(
                Predicate::lt("A1", 2.0).into(),
                Predicate::lt("A2", 2.0).into(),
            ),
            FilterExpr::not(Predicate::lt("A2", 9.0).into()),
        );
        assert!(e.matches(&head(1.0, 1.0)));
        assert!(e.matches(&head(5.0, 9.5)));
        assert!(!e.matches(&head(5.0, 5.0)));
        assert!(FilterExpr::True.matches(&head(0.0, 0.0)));
        assert!(!FilterExpr::False.matches(&head(0.0, 0.0)));
    }

    #[test]
    fn nnf_eliminates_not() {
        let e = FilterExpr::not(FilterExpr::or(
            Predicate::lt("A1", 2.0).into(),
            FilterExpr::not(Predicate::ge("A2", 3.0).into()),
        ));
        let nnf = e.to_nnf();
        fn has_not(e: &FilterExpr) -> bool {
            match e {
                FilterExpr::Not(_) => true,
                FilterExpr::And(xs) | FilterExpr::Or(xs) => xs.iter().any(has_not),
                _ => false,
            }
        }
        assert!(!has_not(&nnf));
        // Semantics preserved on heads with both attributes present.
        for (a1, a2) in [(1.0, 5.0), (3.0, 5.0), (3.0, 1.0), (1.0, 1.0)] {
            assert_eq!(e.matches(&head(a1, a2)), nnf.matches(&head(a1, a2)));
        }
    }

    #[test]
    fn dnf_of_conjunction_is_single_filter() {
        let e = FilterExpr::and(
            Predicate::lt("A1", 5.0).into(),
            Predicate::lt("A2", 5.0).into(),
        );
        let dnf = e.to_dnf();
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf[0].len(), 2);
    }

    #[test]
    fn dnf_distributes_or_over_and() {
        // (p1 || p2) && (q1 || q2) -> 4 conjunctions.
        let e = FilterExpr::and(
            FilterExpr::or(
                Predicate::lt("A1", 1.0).into(),
                Predicate::gt("A1", 9.0).into(),
            ),
            FilterExpr::or(
                Predicate::lt("A2", 1.0).into(),
                Predicate::gt("A2", 9.0).into(),
            ),
        );
        let dnf = e.to_dnf();
        assert_eq!(dnf.len(), 4);
        assert!(dnf.iter().all(|f| f.len() == 2));
        // Semantics preserved.
        for (a1, a2) in [(0.5, 0.5), (0.5, 9.5), (5.0, 0.5), (5.0, 5.0)] {
            let direct = e.matches(&head(a1, a2));
            let via_dnf = dnf.iter().any(|f| f.matches(&head(a1, a2)));
            assert_eq!(direct, via_dnf, "a1={a1} a2={a2}");
        }
    }

    #[test]
    fn dnf_edge_cases() {
        assert_eq!(FilterExpr::False.to_dnf().len(), 0);
        let dnf_true = FilterExpr::True.to_dnf();
        assert_eq!(dnf_true.len(), 1);
        assert!(dnf_true[0].is_empty());
        // And containing False collapses to empty DNF.
        let e = FilterExpr::and(FilterExpr::False, Predicate::lt("A1", 1.0).into());
        assert!(e.to_dnf().is_empty());
    }

    #[test]
    fn filter_expr_round_trip_from_filter() {
        let f = Filter::paper_conjunction(4.0, 6.0);
        let e: FilterExpr = f.clone().into();
        assert!(e.matches(&head(3.0, 5.0)));
        assert!(!e.matches(&head(5.0, 5.0)));
        let again = e.to_dnf();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0], f);
        let all: FilterExpr = Filter::match_all().into();
        assert_eq!(all, FilterExpr::True);
    }

    #[test]
    fn display_round_trip_shape() {
        let f = Filter::paper_conjunction(5.0, 2.5);
        assert_eq!(f.to_string(), "A1 < 5 && A2 < 2.5");
        let e = FilterExpr::or(Predicate::lt("A1", 1.0).into(), FilterExpr::True);
        assert_eq!(e.to_string(), "(A1 < 1 || true)");
    }
}
