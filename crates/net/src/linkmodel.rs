//! Pluggable link transfer-time models — the seam between "how long does
//! this copy take on this link" and the engine's event scheduling.
//!
//! The paper's evaluation (and every BDPS release before this module)
//! samples one transfer time per copy from the link's bandwidth
//! distribution and lets copies queue behind a link that carries **one**
//! transfer at a time: the link is a serial server, never a shared medium.
//! That keeps scheduling strategies honest about queueing, but heavy
//! traffic can never *congest* a link — a flash crowd stresses the broker
//! queues while the modelled network stays infinitely wide.
//!
//! [`LinkModel`] makes the transfer-time computation a pluggable policy:
//!
//! * [`ConstantDelay`] — the original behaviour, bit-for-bit: one sampled
//!   rate per transfer, one transfer in flight per link. Retained as the
//!   differential oracle (`tests/linkmodel_equivalence.rs` pins report
//!   equality).
//! * [`FairShare`] — flow-level bandwidth sharing, the standard network
//!   model of flow-level network/cloud simulators: up to
//!   [`FairShare::max_flows`] transfers progress concurrently on a link,
//!   each receiving an equal share of the link's (sampled) service rate,
//!   and every in-flight completion time on the link is recomputed at each
//!   flow arrival and departure.
//!
//! The engine owns all flow bookkeeping (it owns the event queue); the
//! model contributes the per-flow service-time sample and the sharing
//! discipline. Models are therefore stateless and trivially re-creatable,
//! which is what lets a forked simulation branch rebuild its model from
//! the [`LinkModelKind`] tag alone.

use std::fmt;

use bdps_stats::rng::SimRng;
use bdps_types::registry::{Builtins, Registry};
use bdps_types::time::Duration;

use crate::link::LinkQuality;

/// How a link divides itself among the transfers queued behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSharing {
    /// One transfer in flight at a time; the rest wait in the sender's
    /// output queue (the paper's serial-server link).
    Exclusive,
    /// Up to `max_flows` transfers in flight concurrently, each receiving
    /// an equal share of the link's service rate.
    FairShare {
        /// Concurrent-flow admission cap per link.
        max_flows: usize,
    },
}

/// A link transfer-time model: the policy object behind every
/// transfer-time computation in the simulation engine.
///
/// Implementations must be deterministic functions of their inputs — the
/// only randomness allowed is the `rng` stream passed in, which the engine
/// guarantees is the per-link stream (one owner entity per stream, the
/// discipline that keeps sharded execution bit-identical for the
/// [`ConstantDelay`] oracle).
pub trait LinkModel: fmt::Debug + Send + Sync {
    /// The registry tag of this model.
    fn kind(&self) -> LinkModelKind;

    /// The stable registry name (`"constant"` / `"fair-share"`).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The sharing discipline the engine must apply on every link.
    fn sharing(&self) -> LinkSharing;

    /// Samples the *dedicated-link* service time of one copy: the time the
    /// transfer takes if it has the whole link to itself. Exactly one draw
    /// from `rng` per transfer, so per-link streams replay identically
    /// whatever the interleaving of other links' events.
    fn sample_transfer(&self, quality: &LinkQuality, size_kb: f64, rng: &mut SimRng) -> Duration;
}

/// The original per-transfer sampled-rate model: one draw from the link's
/// bandwidth distribution per copy, one copy in flight per link. This is
/// the differential oracle — routing the engine through this object is
/// bit-identical to the pre-[`LinkModel`] engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstantDelay;

impl LinkModel for ConstantDelay {
    fn kind(&self) -> LinkModelKind {
        LinkModelKind::Constant
    }

    fn sharing(&self) -> LinkSharing {
        LinkSharing::Exclusive
    }

    fn sample_transfer(&self, quality: &LinkQuality, size_kb: f64, rng: &mut SimRng) -> Duration {
        quality.sample_transfer(size_kb, rng)
    }
}

/// Flow-level fair sharing: up to [`max_flows`](Self::max_flows) copies
/// progress concurrently on a link, each at an equal share of the link's
/// service rate, with all in-flight completion times recomputed at every
/// flow arrival and departure.
///
/// Each flow's total service requirement is still one draw from the link's
/// bandwidth distribution (the same draw [`ConstantDelay`] makes), so the
/// sampled-rate character of the paper's links is preserved; only the
/// sharing discipline changes. The admission cap models a TCP-like small
/// number of parallel connections per overlay link: queued copies beyond
/// the cap wait in the sender's output queue, where the scheduling
/// strategies keep ordering them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairShare {
    /// Concurrent-flow admission cap per link.
    pub max_flows: usize,
}

/// Default concurrent-flow admission cap of [`FairShare`].
pub const DEFAULT_MAX_FLOWS: usize = 4;

impl Default for FairShare {
    fn default() -> Self {
        FairShare {
            max_flows: DEFAULT_MAX_FLOWS,
        }
    }
}

impl LinkModel for FairShare {
    fn kind(&self) -> LinkModelKind {
        LinkModelKind::FairShare
    }

    fn sharing(&self) -> LinkSharing {
        LinkSharing::FairShare {
            max_flows: self.max_flows,
        }
    }

    fn sample_transfer(&self, quality: &LinkQuality, size_kb: f64, rng: &mut SimRng) -> Duration {
        quality.sample_transfer(size_kb, rng)
    }
}

/// The selectable link models, as a plain configuration tag.
///
/// This is the compat shim between name-based configuration
/// (`SimulationConfig`, CLI `--link-model`) and the [`LinkModel`] trait
/// objects the engine runs — the same pattern `StrategyKind` uses for
/// scheduling strategies: [`create`](Self::create) resolves the tag to a
/// fresh model instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LinkModelKind {
    /// [`ConstantDelay`] — the pre-trait behaviour, kept as the oracle.
    #[default]
    Constant,
    /// [`FairShare`] with the default admission cap.
    FairShare,
}

impl LinkModelKind {
    /// Every selectable model, oracle first.
    pub const ALL: [LinkModelKind; 2] = [LinkModelKind::Constant, LinkModelKind::FairShare];

    /// Stable CLI/report name (`"constant"` / `"fair-share"`).
    pub fn name(self) -> &'static str {
        match self {
            LinkModelKind::Constant => "constant",
            LinkModelKind::FairShare => "fair-share",
        }
    }

    /// Resolves a CLI name through the built-in [`LinkModelRegistry`]
    /// (case-insensitive): `"constant"` (aliases `"const"`, `"delay"`) or
    /// `"fair-share"` (aliases `"fairshare"`, `"fair"`, `"fs"`).
    pub fn from_name(name: &str) -> Option<Self> {
        LinkModelRegistry::builtin().resolve(name)
    }

    /// Materialises a fresh model instance for this tag.
    pub fn create(self) -> Box<dyn LinkModel> {
        match self {
            LinkModelKind::Constant => Box::new(ConstantDelay),
            LinkModelKind::FairShare => Box::new(FairShare::default()),
        }
    }
}

impl fmt::Display for LinkModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Name-based link-model lookup for command-line binaries and sweeps — the
/// same [`Registry`] strategies and scenarios resolve through. Strict CLI
/// parsers list [`names`](Registry::names) on an unknown `--link-model`
/// instead of silently defaulting.
///
/// [`LinkModelRegistry::builtin`] holds:
///
/// | name | sharing |
/// |------|---------|
/// | `constant` | one sampled-rate transfer in flight per link (the paper's setting, the oracle) |
/// | `fair-share` | flow-level equal sharing among concurrent transfers, completions rescheduled at every arrival/departure |
pub type LinkModelRegistry = Registry<LinkModelKind>;

impl Builtins for LinkModelKind {
    fn register_builtins(r: &mut LinkModelRegistry) {
        r.register_with_aliases("constant", &["const", "delay"], || LinkModelKind::Constant);
        r.register_with_aliases("fair-share", &["fairshare", "fair", "fs"], || {
            LinkModelKind::FairShare
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::FixedRate;

    #[test]
    fn kind_names_round_trip() {
        for kind in LinkModelKind::ALL {
            assert_eq!(LinkModelKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                LinkModelKind::from_name(&kind.name().to_ascii_uppercase()),
                Some(kind)
            );
            assert_eq!(kind.create().kind(), kind);
            assert_eq!(kind.create().name(), kind.name());
        }
        assert_eq!(LinkModelKind::from_name("token-bucket"), None);
    }

    #[test]
    fn registry_resolves_names_and_aliases() {
        let r = LinkModelRegistry::builtin();
        for kind in LinkModelKind::ALL {
            assert_eq!(r.resolve(kind.name()), Some(kind));
        }
        assert_eq!(r.resolve("fs"), Some(LinkModelKind::FairShare));
        assert_eq!(r.resolve("DELAY"), Some(LinkModelKind::Constant));
        assert_eq!(r.resolve("nope"), None);
        assert_eq!(r.names(), vec!["constant", "fair-share"]);
    }

    #[test]
    fn registry_round_trips_every_builtin_name() {
        let r = LinkModelRegistry::builtin();
        for name in r.names() {
            let kind = r.resolve(name).expect("registry name resolves");
            assert_eq!(kind.name(), name, "canonical name survives the round trip");
            assert_eq!(LinkModelKind::from_name(name), Some(kind));
        }
    }

    #[test]
    fn constant_delay_matches_direct_quality_sampling() {
        let quality = LinkQuality::new(FixedRate::new(10.0));
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        let via_trait = ConstantDelay.sample_transfer(&quality, 3.0, &mut a);
        let direct = quality.sample_transfer(3.0, &mut b);
        assert_eq!(via_trait, direct);
        assert_eq!(a.state_words(), b.state_words(), "exactly one draw each");
    }

    #[test]
    fn fair_share_samples_the_same_service_time_as_the_oracle() {
        let quality = LinkQuality::paper_random(&mut SimRng::seed_from(3));
        let mut a = SimRng::seed_from(11);
        let mut b = SimRng::seed_from(11);
        let fair = FairShare::default().sample_transfer(&quality, 5.0, &mut a);
        let constant = ConstantDelay.sample_transfer(&quality, 5.0, &mut b);
        assert_eq!(fair, constant, "only the sharing discipline differs");
        assert_eq!(
            FairShare::default().sharing(),
            LinkSharing::FairShare {
                max_flows: DEFAULT_MAX_FLOWS
            }
        );
        assert_eq!(ConstantDelay.sharing(), LinkSharing::Exclusive);
    }
}
