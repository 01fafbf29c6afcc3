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

/// The assumed marginal distribution of one message-head attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttributeModel {
    /// Uniformly distributed on `[lo, hi)` (the paper's attributes are U(0, 10)).
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Uniform over the integers `lo..=hi` (e.g. a priority or category code).
    /// Unlike the continuous model, point predicates carry real mass here, so
    /// `P(X <= c)` and `P(X < c)` genuinely differ.
    UniformInt {
        /// Smallest value (inclusive).
        lo: i64,
        /// Largest value (inclusive).
        hi: i64,
    },
}

impl AttributeModel {
    /// `P(X < c)` under this model.
    fn prob_lt(&self, c: f64) -> f64 {
        match *self {
            AttributeModel::Uniform { lo, hi } => ((c - lo) / (hi - lo)).clamp(0.0, 1.0),
            AttributeModel::UniformInt { lo, hi } => {
                // Largest integer strictly below c.
                let k = if c.fract() == 0.0 { c - 1.0 } else { c.floor() };
                Self::uniform_int_cdf(lo, hi, k)
            }
        }
    }

    /// `P(X <= c)` under this model. Coincides with [`prob_lt`](Self::prob_lt)
    /// only for continuous models; discrete models put mass on the boundary.
    fn prob_le(&self, c: f64) -> f64 {
        match *self {
            AttributeModel::Uniform { .. } => self.prob_lt(c),
            AttributeModel::UniformInt { lo, hi } => Self::uniform_int_cdf(lo, hi, c.floor()),
        }
    }

    /// `P(X = c)` under this model; zero for continuous models.
    fn prob_eq(&self, c: f64) -> f64 {
        match *self {
            AttributeModel::Uniform { .. } => 0.0,
            AttributeModel::UniformInt { lo, hi } => {
                let in_support = c.fract() == 0.0 && c >= lo as f64 && c <= hi as f64;
                if in_support {
                    1.0 / (hi - lo + 1) as f64
                } else {
                    0.0
                }
            }
        }
    }

    /// Fraction of the integers `lo..=hi` that are `<= k`.
    fn uniform_int_cdf(lo: i64, hi: i64, k: f64) -> f64 {
        let n = (hi - lo + 1) as f64;
        ((k - lo as f64 + 1.0) / n).clamp(0.0, 1.0)
    }
}

/// A collection of per-attribute models used to estimate filter selectivity.
#[derive(Debug, Clone, Default)]
pub struct SelectivityModel {
    attributes: HashMap<String, AttributeModel>,
}

impl SelectivityModel {
    /// Creates an empty model (unknown attributes get selectivity 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// The model of the paper's workload: `A1`, `A2` uniform on `(0, 10)`.
    pub fn paper_workload() -> Self {
        let mut m = SelectivityModel::new();
        m.set_attribute("A1", AttributeModel::Uniform { lo: 0.0, hi: 10.0 });
        m.set_attribute("A2", AttributeModel::Uniform { lo: 0.0, hi: 10.0 });
        m
    }

    /// Declares the distribution of an attribute.
    pub fn set_attribute(&mut self, name: impl Into<String>, model: AttributeModel) {
        self.attributes.insert(name.into(), model);
    }

    /// Estimated probability that a random message satisfies the predicate.
    /// Unknown attributes and non-numeric predicates yield the conservative
    /// estimate 1.0 (no reduction in selectivity).
    pub fn predicate_selectivity(&self, pred: &Predicate) -> f64 {
        let Some(model) = self.attributes.get(pred.attr.as_str()) else {
            return 1.0;
        };
        let Some(c) = pred.value.as_f64() else {
            return 1.0;
        };
        match pred.op {
            CompOp::Lt => model.prob_lt(c),
            CompOp::Le => model.prob_le(c),
            CompOp::Gt => 1.0 - model.prob_le(c),
            CompOp::Ge => 1.0 - model.prob_lt(c),
            // Point predicates have measure zero under continuous models but
            // genuine mass under discrete ones; ask the model rather than
            // hard-coding the continuous answer.
            CompOp::Eq => model.prob_eq(c),
            CompOp::Ne => 1.0 - model.prob_eq(c),
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
        assert!((m.predicate_selectivity(&Predicate::gt("A1", 7.5)) - 0.25).abs() < 1e-12);
        assert!((m.predicate_selectivity(&Predicate::ge("A2", 0.0)) - 1.0).abs() < 1e-12);
        assert_eq!(m.predicate_selectivity(&Predicate::eq("A1", 5.0)), 0.0);
        assert_eq!(m.predicate_selectivity(&Predicate::ne("A1", 5.0)), 1.0);
        // Out-of-range constants clamp.
        assert_eq!(m.predicate_selectivity(&Predicate::lt("A1", 20.0)), 1.0);
        assert_eq!(m.predicate_selectivity(&Predicate::lt("A1", -1.0)), 0.0);
    }

    #[test]
    fn discrete_le_differs_from_lt() {
        // Regression: prob_le used to be a blind alias of prob_lt, which is
        // wrong for any model with point mass. With X uniform on {0..=9}:
        //   P(X < 5)  = 5/10,  P(X <= 5) = 6/10,  P(X = 5) = 1/10.
        let mut m = SelectivityModel::new();
        m.set_attribute("prio", AttributeModel::UniformInt { lo: 0, hi: 9 });
        assert!((m.predicate_selectivity(&Predicate::lt("prio", 5.0)) - 0.5).abs() < 1e-12);
        assert!((m.predicate_selectivity(&Predicate::le("prio", 5.0)) - 0.6).abs() < 1e-12);
        assert!((m.predicate_selectivity(&Predicate::eq("prio", 5.0)) - 0.1).abs() < 1e-12);
        assert!((m.predicate_selectivity(&Predicate::ne("prio", 5.0)) - 0.9).abs() < 1e-12);
        // Gt/Ge complement Le/Lt respectively.
        assert!((m.predicate_selectivity(&Predicate::gt("prio", 5.0)) - 0.4).abs() < 1e-12);
        assert!((m.predicate_selectivity(&Predicate::ge("prio", 5.0)) - 0.5).abs() < 1e-12);
        // Non-integer and out-of-support constants.
        assert!((m.predicate_selectivity(&Predicate::le("prio", 4.5)) - 0.5).abs() < 1e-12);
        assert_eq!(m.predicate_selectivity(&Predicate::eq("prio", 4.5)), 0.0);
        assert_eq!(m.predicate_selectivity(&Predicate::eq("prio", 42.0)), 0.0);
        assert_eq!(m.predicate_selectivity(&Predicate::le("prio", 9.0)), 1.0);
        assert_eq!(m.predicate_selectivity(&Predicate::lt("prio", 0.0)), 0.0);
        // The continuous model keeps its old behaviour: Le == Lt, Eq == 0.
        let paper = SelectivityModel::paper_workload();
        assert_eq!(
            paper.predicate_selectivity(&Predicate::le("A1", 5.0)),
            paper.predicate_selectivity(&Predicate::lt("A1", 5.0)),
        );
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
