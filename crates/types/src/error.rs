//! The common error type of the BDPS workspace.

use std::fmt;

/// Convenient result alias using [`BdpsError`].
pub type Result<T> = std::result::Result<T, BdpsError>;

/// Errors produced by the BDPS crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BdpsError {
    /// A filter expression could not be parsed. Carries a human-readable reason.
    FilterParse(String),
    /// A filter referenced an attribute with an incompatible value type.
    TypeMismatch {
        /// The attribute name involved.
        attribute: String,
        /// Description of the expected/found types.
        detail: String,
    },
    /// A topology was structurally invalid (disconnected, self-loop, ...).
    InvalidTopology(String),
    /// A configuration value was out of range or inconsistent.
    InvalidConfig(String),
    /// An entity id was unknown in the current context.
    UnknownEntity(String),
    /// A simulation invariant was violated (indicates a bug).
    Internal(String),
}

impl fmt::Display for BdpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BdpsError::FilterParse(msg) => write!(f, "filter parse error: {msg}"),
            BdpsError::TypeMismatch { attribute, detail } => {
                write!(f, "type mismatch on attribute '{attribute}': {detail}")
            }
            BdpsError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            BdpsError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            BdpsError::UnknownEntity(msg) => write!(f, "unknown entity: {msg}"),
            BdpsError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for BdpsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            BdpsError::FilterParse("unexpected token".into()).to_string(),
            "filter parse error: unexpected token"
        );
        assert!(BdpsError::InvalidTopology("x".into())
            .to_string()
            .contains("invalid topology"));
        assert!(BdpsError::TypeMismatch {
            attribute: "A1".into(),
            detail: "expected number".into()
        }
        .to_string()
        .contains("A1"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&BdpsError::Internal("boom".into()));
    }

    #[test]
    fn result_alias_works() {
        fn ok() -> Result<u32> {
            Ok(3)
        }
        assert_eq!(ok().unwrap(), 3);
    }
}
