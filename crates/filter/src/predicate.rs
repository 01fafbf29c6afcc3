//! Atomic predicates over message-head attributes.

use bdps_types::message::MessageHead;
use bdps_types::value::{AttrName, AttrValue};
use std::cmp::Ordering;
use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CompOp {
    /// Evaluates the operator against an ordering between attribute value and constant.
    fn eval_ordering(self, ord: Ordering) -> bool {
        match self {
            CompOp::Lt => ord == Ordering::Less,
            CompOp::Le => ord != Ordering::Greater,
            CompOp::Gt => ord == Ordering::Greater,
            CompOp::Ge => ord != Ordering::Less,
            CompOp::Eq => ord == Ordering::Equal,
            CompOp::Ne => ord != Ordering::Equal,
        }
    }

    /// The textual form of the operator.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
            CompOp::Eq => "==",
            CompOp::Ne => "!=",
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An atomic predicate `attribute op constant`.
///
/// A predicate evaluates to `false` when the attribute is missing from the
/// message head or when its type cannot be compared with the constant —
/// content-based pub/sub treats non-comparable as non-matching rather than
/// erroring at runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The attribute the predicate constrains.
    pub(crate) attr: AttrName,
    /// The comparison operator.
    pub(crate) op: CompOp,
    /// The constant to compare against.
    pub(crate) value: AttrValue,
}

impl Predicate {
    /// Creates a predicate.
    pub fn new(attr: impl Into<AttrName>, op: CompOp, value: impl Into<AttrValue>) -> Self {
        Predicate {
            attr: attr.into(),
            op,
            value: value.into(),
        }
    }

    /// Shorthand for `attr < value`.
    pub fn lt(attr: impl Into<AttrName>, value: impl Into<AttrValue>) -> Self {
        Self::new(attr, CompOp::Lt, value)
    }

    /// Shorthand for `attr >= value`.
    pub fn ge(attr: impl Into<AttrName>, value: impl Into<AttrValue>) -> Self {
        Self::new(attr, CompOp::Ge, value)
    }

    /// Evaluates the predicate against a message head.
    pub(crate) fn matches(&self, head: &MessageHead) -> bool {
        match head.get(self.attr.as_str()) {
            Some(v) => self.matches_value(v),
            None => false,
        }
    }

    /// Evaluates the predicate against a single attribute value.
    pub(crate) fn matches_value(&self, v: &AttrValue) -> bool {
        match v.partial_cmp_value(&self.value) {
            Some(ord) => self.op.eval_ordering(ord),
            // Non-comparable types: != is vacuously satisfied, everything else fails.
            None => self.op == CompOp::Ne,
        }
    }

    /// Returns true when every value satisfying `self` also satisfies `other`
    /// (i.e. `self` ⟹ `other`). Conservative: only decides implication between
    /// predicates on the same attribute with comparable constants; returns
    /// `false` when implication cannot be proven.
    pub(crate) fn implies(&self, other: &Predicate) -> bool {
        if self.attr != other.attr {
            return false;
        }
        if self == other {
            return true;
        }
        let cmp = match self.value.partial_cmp_value(&other.value) {
            Some(c) => c,
            None => return false,
        };
        use CompOp::*;
        match (self.op, other.op) {
            // x < a implies x < b when a <= b; x < a implies x <= b when a <= b.
            (Lt, Lt) | (Lt, Le) => cmp != Ordering::Greater,
            (Le, Le) => cmp != Ordering::Greater,
            (Le, Lt) => cmp == Ordering::Less,
            (Gt, Gt) | (Gt, Ge) => cmp != Ordering::Less,
            (Ge, Ge) => cmp != Ordering::Less,
            (Ge, Gt) => cmp == Ordering::Greater,
            (Eq, Le) => cmp != Ordering::Greater,
            (Eq, Lt) => cmp == Ordering::Less,
            (Eq, Ge) => cmp != Ordering::Less,
            (Eq, Gt) => cmp == Ordering::Greater,
            (Eq, Eq) => cmp == Ordering::Equal,
            (Eq, Ne) => cmp != Ordering::Equal,
            (Lt, Ne) => cmp != Ordering::Greater,
            (Gt, Ne) => cmp != Ordering::Less,
            (Le, Ne) | (Ge, Ne) => false,
            _ => false,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.op, self.value)
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
    fn numeric_comparisons() {
        let h = head(3.0, 7.0);
        assert!(Predicate::lt("A1", 5.0).matches(&h));
        assert!(!Predicate::lt("A1", 3.0).matches(&h));
        assert!(Predicate::new("A1", CompOp::Le, 3.0).matches(&h));
        assert!(Predicate::new("A2", CompOp::Gt, 5.0).matches(&h));
        assert!(Predicate::ge("A2", 7.0).matches(&h));
        assert!(Predicate::new("A1", CompOp::Eq, 3.0).matches(&h));
        assert!(Predicate::new("A1", CompOp::Ne, 4.0).matches(&h));
    }

    #[test]
    fn missing_attribute_never_matches() {
        let h = head(1.0, 2.0);
        assert!(!Predicate::lt("A3", 100.0).matches(&h));
        assert!(!Predicate::new("A3", CompOp::Ne, 100.0).matches(&h));
    }

    #[test]
    fn type_mismatch_matches_only_ne() {
        let mut h = MessageHead::new();
        h.set("sym", "ACME");
        assert!(!Predicate::lt("sym", 5.0).matches(&h));
        assert!(!Predicate::new("sym", CompOp::Eq, 5.0).matches(&h));
        assert!(Predicate::new("sym", CompOp::Ne, 5.0).matches(&h));
        assert!(Predicate::new("sym", CompOp::Eq, "ACME").matches(&h));
    }

    #[test]
    fn int_float_coercion() {
        let mut h = MessageHead::new();
        h.set("n", 5i64);
        assert!(Predicate::lt("n", 5.5).matches(&h));
        assert!(Predicate::new("n", CompOp::Eq, 5.0).matches(&h));
    }

    #[test]
    fn operator_helpers() {
        assert_eq!(CompOp::Ge.as_str(), ">=");
    }

    #[test]
    fn implication() {
        // x < 3 implies x < 5.
        assert!(Predicate::lt("A1", 3.0).implies(&Predicate::lt("A1", 5.0)));
        assert!(!Predicate::lt("A1", 5.0).implies(&Predicate::lt("A1", 3.0)));
        // x < 3 implies x <= 3.
        assert!(Predicate::lt("A1", 3.0).implies(&Predicate::new("A1", CompOp::Le, 3.0)));
        // x <= 3 does not imply x < 3.
        assert!(!Predicate::new("A1", CompOp::Le, 3.0).implies(&Predicate::lt("A1", 3.0)));
        // x > 5 implies x > 3, x >= 3.
        assert!(
            Predicate::new("A1", CompOp::Gt, 5.0).implies(&Predicate::new("A1", CompOp::Gt, 3.0))
        );
        assert!(Predicate::new("A1", CompOp::Gt, 5.0).implies(&Predicate::ge("A1", 5.0)));
        // x == 4 implies x < 5 and x >= 4 and x != 9.
        let four = Predicate::new("A1", CompOp::Eq, 4.0);
        assert!(four.implies(&Predicate::lt("A1", 5.0)));
        assert!(four.implies(&Predicate::ge("A1", 4.0)));
        assert!(four.implies(&Predicate::new("A1", CompOp::Ne, 9.0)));
        // Different attributes never imply.
        assert!(!Predicate::lt("A1", 3.0).implies(&Predicate::lt("A2", 5.0)));
        // Identity.
        let p = Predicate::ge("A1", 2.0);
        assert!(p.implies(&p));
    }

    #[test]
    fn display() {
        assert_eq!(Predicate::lt("A1", 5.0).to_string(), "A1 < 5");
        let acme = Predicate::new("sym", CompOp::Eq, "ACME");
        assert_eq!(acme.to_string(), "sym == \"ACME\"");
    }
}
