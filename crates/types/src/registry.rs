//! Name-based lookup of pluggable items.
//!
//! Command-line binaries and sweeps select scheduling strategies, dynamic
//! scenarios and link models by name. [`Registry`] is the one lookup they
//! all share: case-insensitive canonical names plus aliases (`"eb"`, `"EB"`
//! and `"expected-benefit"` resolve the same), open for user registrations,
//! a later registration shadowing an earlier one, and an item's display
//! label accepted as a last resort.

use crate::error::{BdpsError, Result};
use std::fmt;

struct RegistryEntry<T> {
    name: String,
    aliases: Vec<String>,
    factory: Box<dyn Fn() -> T + Send + Sync>,
}

/// A type that ships a table of named built-in values, which
/// [`Registry::builtin`] (and `Registry::default`) start from.
pub trait Builtins: Sized {
    /// Registers every built-in value under its canonical name and aliases.
    fn register_builtins(registry: &mut Registry<Self>);
}

/// Name → fresh `T` lookup; see the [module docs](self).
pub struct Registry<T> {
    entries: Vec<RegistryEntry<T>>,
}

impl<T> Registry<T> {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }

    /// A registry holding every built-in `T`.
    pub fn builtin() -> Self
    where
        T: Builtins,
    {
        let mut registry = Registry::new();
        T::register_builtins(&mut registry);
        registry
    }

    /// Registers a factory under a canonical name. A later registration
    /// under the same name shadows an earlier one.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> T + Send + Sync + 'static,
    ) {
        self.register_with_aliases(name, &[], factory);
    }

    /// Registers a factory under a canonical name plus aliases.
    pub fn register_with_aliases(
        &mut self,
        name: impl Into<String>,
        aliases: &[&str],
        factory: impl Fn() -> T + Send + Sync + 'static,
    ) {
        self.entries.push(RegistryEntry {
            name: name.into().to_ascii_lowercase(),
            aliases: aliases.iter().map(|a| a.to_ascii_lowercase()).collect(),
            factory: Box::new(factory),
        });
    }

    /// Resolves a name (canonical, alias or display label, case-insensitive)
    /// to a fresh value.
    pub fn resolve(&self, name: &str) -> Option<T>
    where
        T: fmt::Display,
    {
        let wanted = name.to_ascii_lowercase();
        // Later registrations shadow earlier ones.
        let newest_first = || self.entries.iter().rev();
        newest_first()
            .find(|e| e.name == wanted || e.aliases.contains(&wanted))
            .map(|e| (e.factory)())
            .or_else(|| {
                newest_first()
                    .map(|e| (e.factory)())
                    .find(|value| value.to_string().to_ascii_lowercase() == wanted)
            })
    }

    /// [`resolve`](Self::resolve), with an unknown name an
    /// [`InvalidConfig`](BdpsError::InvalidConfig) error that says `what`
    /// was being looked up and lists the registered names.
    pub fn try_resolve(&self, what: &str, name: &str) -> Result<T>
    where
        T: fmt::Display,
    {
        self.resolve(name).ok_or_else(|| {
            BdpsError::InvalidConfig(format!(
                "unknown {what} {name:?} (known: {})",
                self.names().join(", ")
            ))
        })
    }

    /// The canonical names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }
}

impl<T: Builtins> Default for Registry<T> {
    fn default() -> Self {
        Registry::builtin()
    }
}

impl<T> fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names())
            .finish()
    }
}
