//! Attribute names and values carried in message heads.
//!
//! The paper's workload publishes messages whose head is a set of
//! `attribute = value` pairs (e.g. `{A1 = 3.7, A2 = 8.1}`) and subscriptions
//! are predicates over those attributes (e.g. `A1 < 5 ∧ A2 < 2`). The value
//! model supports the numeric attributes used in the evaluation plus strings
//! and booleans so the filter language is useful for realistic applications
//! (stock symbols, road names, severity flags, ...).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

/// The name of a message-head attribute.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrName(String);

impl AttrName {
    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        AttrName(s.to_owned())
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> Self {
        AttrName(s)
    }
}

impl Borrow<str> for AttrName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A value of a message-head attribute.
///
/// Numeric values are comparable across `Int`/`Float` (an integer is promoted
/// to a double before comparison). Strings compare lexicographically and
/// booleans only support equality-style comparison; cross-type comparison
/// returns `None`.
#[derive(Debug, Clone)]
pub enum AttrValue {
    /// 64-bit floating point value (the paper's evaluation uses doubles).
    Float(f64),
    /// 64-bit signed integer value.
    Int(i64),
    /// UTF-8 string value.
    Str(String),
    /// Boolean value.
    Bool(bool),
}

impl AttrValue {
    /// Returns the value as a double if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Float(v) => Some(*v),
            AttrValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Compares two values, returning `None` when the types are not comparable
    /// (e.g. a string against a number) or when a float comparison involves a NaN.
    pub fn partial_cmp_value(&self, other: &AttrValue) -> Option<Ordering> {
        use AttrValue::*;
        match (self, other) {
            (Float(_) | Int(_), Float(_) | Int(_)) => {
                let a = self.as_f64().expect("numeric");
                let b = other.as_f64().expect("numeric");
                a.partial_cmp(&b)
            }
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Returns true when the two values are equal under the comparison rules
    /// of [`partial_cmp_value`](Self::partial_cmp_value).
    pub(crate) fn value_eq(&self, other: &AttrValue) -> bool {
        self.partial_cmp_value(other) == Some(Ordering::Equal)
    }
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        self.value_eq(other)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "\"{s}\""),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparison_promotes_ints() {
        let a = AttrValue::Int(3);
        let b = AttrValue::Float(3.0);
        assert_eq!(a.partial_cmp_value(&b), Some(Ordering::Equal));
        assert!(a.value_eq(&b));
        let c = AttrValue::Float(3.5);
        assert_eq!(a.partial_cmp_value(&c), Some(Ordering::Less));
    }

    #[test]
    fn cross_type_comparison_is_none() {
        let a = AttrValue::Int(3);
        let b = AttrValue::Str("3".into());
        assert_eq!(a.partial_cmp_value(&b), None);
        assert!(!a.value_eq(&b));
    }

    #[test]
    fn nan_comparison_is_none() {
        let a = AttrValue::Float(f64::NAN);
        let b = AttrValue::Float(1.0);
        assert_eq!(a.partial_cmp_value(&b), None);
    }

    #[test]
    fn string_and_bool_compare() {
        assert_eq!(
            AttrValue::from("abc").partial_cmp_value(&AttrValue::from("abd")),
            Some(Ordering::Less)
        );
        assert!(AttrValue::from(true).value_eq(&AttrValue::Bool(true)));
    }

    #[test]
    fn accessors() {
        assert_eq!(AttrValue::Int(7).as_f64(), Some(7.0));
        assert_eq!(AttrValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(AttrValue::from(true).as_f64(), None);
    }

    #[test]
    fn display() {
        assert_eq!(AttrValue::Float(1.5).to_string(), "1.5");
        assert_eq!(AttrValue::from("hi").to_string(), "\"hi\"");
        assert_eq!(AttrName::from("A1").to_string(), "A1");
    }
}
