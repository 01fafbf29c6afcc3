//! The common error type of the BDPS workspace.

use std::fmt;

/// Convenient result alias using [`BdpsError`].
pub type Result<T> = std::result::Result<T, BdpsError>;

/// Errors produced by the BDPS crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BdpsError {
    /// A topology was structurally invalid (disconnected, self-loop, ...).
    InvalidTopology(String),
    /// A configuration value was out of range or inconsistent.
    InvalidConfig(String),
}

impl BdpsError {
    /// The error for a name no lookup knows: `unknown {what} {name:?}
    /// (known: …)`, listing the canonical names the lookup accepts.
    pub fn unknown_name(what: &str, name: &str, known: &[&str]) -> Self {
        BdpsError::InvalidConfig(format!(
            "unknown {what} {name:?} (known: {})",
            known.join(", ")
        ))
    }
}

impl fmt::Display for BdpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BdpsError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            BdpsError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
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
            BdpsError::InvalidTopology("disconnected".into()).to_string(),
            "invalid topology: disconnected"
        );
        assert_eq!(
            BdpsError::InvalidConfig("rate < 0".into()).to_string(),
            "invalid configuration: rate < 0"
        );
        assert_eq!(
            BdpsError::unknown_name("link model", "fs2", &["constant", "fair-share"]).to_string(),
            "invalid configuration: unknown link model \"fs2\" (known: constant, fair-share)"
        );
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&BdpsError::InvalidConfig("boom".into()));
    }

    #[test]
    fn result_alias_works() {
        fn ok() -> Result<u32> {
            Ok(3)
        }
        assert_eq!(ok().unwrap(), 3);
    }
}
