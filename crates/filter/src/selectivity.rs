//! Selectivity estimation for filters.
//!
//! The paper's workload is engineered so that each published message matches
//! 25 % of subscriptions on average (two independent uniform attributes, each
//! constrained by a uniform `<` threshold gives (1/2)² = 25 %). Workload
//! generators and experiment reports use these estimators to sanity-check
//! that generated subscription populations hit the intended selectivity.

use crate::filter::Filter;
use crate::predicate::{CompOp, Predicate};
use std::collections::HashMap;

/// The assumed marginal distribution of one message-head attribute:
/// uniform on `[lo, hi)` (the paper's attributes are U(0, 10)).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// `P(X < c)`, which is also `P(X <= c)`: a point has no mass.
    fn prob_lt(&self, c: f64) -> f64 {
        ((c - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
}

/// A collection of per-attribute models used to estimate filter selectivity.
#[derive(Debug, Clone, Default)]
pub struct SelectivityModel {
    attributes: HashMap<String, Uniform>,
}

impl SelectivityModel {
    /// The model of the paper's workload: `A1`, `A2` uniform on `(0, 10)`.
    pub fn paper_workload() -> Self {
        let uniform = Uniform { lo: 0.0, hi: 10.0 };
        SelectivityModel {
            attributes: HashMap::from([("A1".to_string(), uniform), ("A2".to_string(), uniform)]),
        }
    }

    /// Estimated probability that a random message satisfies the predicate.
    /// Unknown attributes and non-numeric predicates yield the conservative
    /// estimate 1.0 (no reduction in selectivity).
    fn predicate_selectivity(&self, pred: &Predicate) -> f64 {
        let Some(model) = self.attributes.get(pred.attr.as_str()) else {
            return 1.0;
        };
        let Some(c) = pred.value.as_f64() else {
            return 1.0;
        };
        match pred.op {
            CompOp::Lt | CompOp::Le => model.prob_lt(c),
            CompOp::Gt | CompOp::Ge => 1.0 - model.prob_lt(c),
            CompOp::Eq => 0.0,
            CompOp::Ne => 1.0,
        }
    }

    /// Estimated probability that a random message matches the whole filter,
    /// assuming attribute independence (the paper's workload is independent).
    pub fn filter_selectivity(&self, filter: &Filter) -> f64 {
        filter
            .predicates()
            .iter()
            .map(|p| self.predicate_selectivity(p))
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_predicate_selectivity() {
        let m = SelectivityModel::paper_workload();
        assert!((m.predicate_selectivity(&Predicate::lt("A1", 5.0)) - 0.5).abs() < 1e-12);
        assert!((m.predicate_selectivity(&Predicate::lt("A1", 2.5)) - 0.25).abs() < 1e-12);
        assert!(
            (m.predicate_selectivity(&Predicate::new("A1", CompOp::Gt, 7.5)) - 0.25).abs() < 1e-12
        );
        assert!((m.predicate_selectivity(&Predicate::ge("A2", 0.0)) - 1.0).abs() < 1e-12);
        assert_eq!(m.predicate_selectivity(&Predicate::eq("A1", 5.0)), 0.0);
        assert_eq!(
            m.predicate_selectivity(&Predicate::new("A1", CompOp::Ne, 5.0)),
            1.0
        );
        // A point has no mass: `<=` is `<`.
        assert_eq!(
            m.predicate_selectivity(&Predicate::new("A1", CompOp::Le, 5.0)),
            m.predicate_selectivity(&Predicate::lt("A1", 5.0)),
        );
        // Out-of-range constants clamp.
        assert_eq!(m.predicate_selectivity(&Predicate::lt("A1", 20.0)), 1.0);
        assert_eq!(m.predicate_selectivity(&Predicate::lt("A1", -1.0)), 0.0);
    }

    #[test]
    fn unknown_attribute_is_conservative() {
        let m = SelectivityModel::paper_workload();
        assert_eq!(m.predicate_selectivity(&Predicate::lt("A9", 1.0)), 1.0);
        assert_eq!(m.predicate_selectivity(&Predicate::eq("sym", "ACME")), 1.0);
    }

    #[test]
    fn filter_selectivity_is_product() {
        let m = SelectivityModel::paper_workload();
        let f = Filter::paper_conjunction(5.0, 5.0);
        assert!((m.filter_selectivity(&f) - 0.25).abs() < 1e-12);
        assert_eq!(m.filter_selectivity(&Filter::match_all()), 1.0);
    }

    #[test]
    fn expected_paper_population_selectivity_is_one_quarter() {
        // E[P(A1 < X1)] with X1 ~ U(0,10) is 1/2; two independent attributes -> 1/4.
        let m = SelectivityModel::paper_workload();
        // Deterministic grid over threshold space approximates the expectation.
        let mut filters = Vec::new();
        let steps = 40;
        for i in 0..steps {
            for j in 0..steps {
                let x1 = (i as f64 + 0.5) * 10.0 / steps as f64;
                let x2 = (j as f64 + 0.5) * 10.0 / steps as f64;
                filters.push(Filter::paper_conjunction(x1, x2));
            }
        }
        let total: f64 = filters.iter().map(|f| m.filter_selectivity(f)).sum();
        let avg = total / filters.len() as f64;
        assert!((avg - 0.25).abs() < 0.01, "avg = {avg}");
    }
}
