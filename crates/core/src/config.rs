//! Scheduler configuration.
//!
//! The scheduling strategy itself is pluggable: [`SchedulerConfig::strategy`]
//! holds a [`StrategyHandle`] (a shared `dyn SchedulingStrategy`), so any
//! implementation of the trait — built-in or user-defined — can be threaded
//! through the broker state machine. [`StrategyKind`] survives as a thin
//! compatibility shim enumerating the five paper strategies and resolving
//! each to its boxed implementation.

use crate::strategy::{Fifo, MaxEb, MaxEbpc, MaxPc, RemainingLifetime, StrategyHandle};
use bdps_types::error::{BdpsError, Result};
use bdps_types::time::Duration;
use std::fmt;

/// The five scheduling strategies evaluated by the paper.
///
/// This enum is a compatibility shim: the scheduler itself works against the
/// [`SchedulingStrategy`](crate::strategy::SchedulingStrategy) trait, and a
/// kind simply [`resolve`](StrategyKind::resolve)s to the corresponding boxed
/// implementation. New strategies do not extend this enum — they implement
/// the trait and register with the
/// [`StrategyRegistry`](crate::strategy::StrategyRegistry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// First-in, first-out (baseline).
    Fifo,
    /// Minimum remaining lifetime first (baseline; "RL" in the paper). For a
    /// message matching several subscriptions the average remaining lifetime
    /// is used, as in §6.1.
    RemainingLifetime,
    /// Maximum Expected Benefit first (§5.1).
    MaxEb,
    /// Maximum Postponing Cost first (§5.2).
    MaxPc,
    /// Maximum `r·EB + (1−r)·PC` first (§5.3); `r` lives in [`SchedulerConfig`].
    MaxEbpc,
}

impl StrategyKind {
    /// All strategies, in the order the paper's figures list them.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::MaxEb,
        StrategyKind::MaxPc,
        StrategyKind::MaxEbpc,
        StrategyKind::Fifo,
        StrategyKind::RemainingLifetime,
    ];

    /// Short label used in experiment tables ("EB", "PC", "EBPC", "FIFO", "RL").
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Fifo => "FIFO",
            StrategyKind::RemainingLifetime => "RL",
            StrategyKind::MaxEb => "EB",
            StrategyKind::MaxPc => "PC",
            StrategyKind::MaxEbpc => "EBPC",
        }
    }

    /// Whether the strategy needs the probabilistic link model (EB/PC/EBPC do,
    /// FIFO and RL do not).
    pub fn uses_link_model(self) -> bool {
        matches!(
            self,
            StrategyKind::MaxEb | StrategyKind::MaxPc | StrategyKind::MaxEbpc
        )
    }

    /// Resolves the kind to a handle on its boxed strategy implementation.
    pub fn resolve(self) -> StrategyHandle {
        match self {
            StrategyKind::Fifo => StrategyHandle::new(Fifo),
            StrategyKind::RemainingLifetime => StrategyHandle::new(RemainingLifetime),
            StrategyKind::MaxEb => StrategyHandle::new(MaxEb),
            StrategyKind::MaxPc => StrategyHandle::new(MaxPc),
            StrategyKind::MaxEbpc => StrategyHandle::new(MaxEbpc),
        }
    }
}

impl From<StrategyKind> for StrategyHandle {
    fn from(kind: StrategyKind) -> Self {
        kind.resolve()
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a broker decides to delete queued messages early (§5.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InvalidDetection {
    /// Never delete anything before transmission (lower bound baseline).
    Off,
    /// Delete only messages whose every target deadline has already expired.
    ExpiredOnly,
    /// Delete messages that are expired *or* whose success probability is
    /// below ε for every matching subscription (eq. 11). The paper uses
    /// ε = 0.05 %.
    Epsilon(f64),
}

impl InvalidDetection {
    /// The paper's setting: ε = 0.05 % = 0.0005.
    pub const PAPER: InvalidDetection = InvalidDetection::Epsilon(5e-4);
}

/// Configuration shared by every broker of a simulation run.
///
/// `strategy` is a shared handle on a `dyn SchedulingStrategy`, so cloning a
/// configuration is cheap and every broker of a run scores against the same
/// strategy instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// The scheduling strategy (built-in kind or user-defined implementation).
    pub strategy: StrategyHandle,
    /// The EB weight `r` of the EBPC metric (eq. 10), in [0, 1]. Ignored by
    /// the other strategies.
    pub ebpc_weight: f64,
    /// The invalid-message detection policy.
    pub invalid_detection: InvalidDetection,
    /// The per-broker, per-message processing delay `PD` (§3.2; 2 ms in the
    /// paper's evaluation).
    pub processing_delay: Duration,
    /// Average message size in KB, used to estimate `FT` — the time to send
    /// the (not yet chosen) first message when computing `EB'` (§5.2).
    pub avg_message_size_kb: f64,
}

impl SchedulerConfig {
    /// The paper's evaluation settings with the given strategy (a
    /// [`StrategyKind`] or anything convertible into a [`StrategyHandle`]).
    pub fn paper(strategy: impl Into<StrategyHandle>) -> Self {
        SchedulerConfig {
            strategy: strategy.into(),
            ebpc_weight: 0.5,
            invalid_detection: InvalidDetection::PAPER,
            processing_delay: Duration::from_millis(2),
            avg_message_size_kb: 50.0,
        }
    }

    /// Sets the EBPC weight `r`.
    pub fn with_ebpc_weight(mut self, r: f64) -> Self {
        self.ebpc_weight = r;
        self
    }

    /// Sets the invalid-detection policy.
    pub fn with_invalid_detection(mut self, policy: InvalidDetection) -> Self {
        self.invalid_detection = policy;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.ebpc_weight) || !self.ebpc_weight.is_finite() {
            return Err(BdpsError::InvalidConfig(format!(
                "EBPC weight r must be in [0, 1], got {}",
                self.ebpc_weight
            )));
        }
        if let InvalidDetection::Epsilon(eps) = self.invalid_detection {
            if !(0.0..=1.0).contains(&eps) || !eps.is_finite() {
                return Err(BdpsError::InvalidConfig(format!(
                    "epsilon must be in [0, 1], got {eps}"
                )));
            }
        }
        if self.avg_message_size_kb <= 0.0 || !self.avg_message_size_kb.is_finite() {
            return Err(BdpsError::InvalidConfig(
                "average message size must be positive".into(),
            ));
        }
        Ok(())
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::paper(StrategyKind::MaxEb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SchedulerConfig::paper(StrategyKind::MaxEb);
        assert_eq!(c.strategy, StrategyKind::MaxEb);
        assert_eq!(c.processing_delay, Duration::from_millis(2));
        assert_eq!(c.avg_message_size_kb, 50.0);
        assert_eq!(c.invalid_detection, InvalidDetection::Epsilon(5e-4));
        assert!(c.validate().is_ok());
        assert_eq!(SchedulerConfig::default().strategy, StrategyKind::MaxEb);
    }

    #[test]
    fn labels_and_flags() {
        assert_eq!(StrategyKind::MaxEb.label(), "EB");
        assert_eq!(StrategyKind::Fifo.label(), "FIFO");
        assert_eq!(StrategyKind::RemainingLifetime.to_string(), "RL");
        assert!(StrategyKind::MaxEbpc.uses_link_model());
        assert!(!StrategyKind::Fifo.uses_link_model());
        assert_eq!(StrategyKind::ALL.len(), 5);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = SchedulerConfig::paper(StrategyKind::MaxEbpc).with_ebpc_weight(1.5);
        assert!(c.validate().is_err());
        c.ebpc_weight = 0.3;
        assert!(c.validate().is_ok());
        c = c.with_invalid_detection(InvalidDetection::Epsilon(2.0));
        assert!(c.validate().is_err());
        c = c.with_invalid_detection(InvalidDetection::Off);
        assert!(c.validate().is_ok());
        c.avg_message_size_kb = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_helpers() {
        let c = SchedulerConfig::paper(StrategyKind::MaxEbpc)
            .with_ebpc_weight(0.8)
            .with_invalid_detection(InvalidDetection::ExpiredOnly);
        assert_eq!(c.ebpc_weight, 0.8);
        assert_eq!(c.invalid_detection, InvalidDetection::ExpiredOnly);
    }
}
