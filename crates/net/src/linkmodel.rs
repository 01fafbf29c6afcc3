//! How a link divides itself among the copies queued behind it.
//!
//! The paper's links are serial servers: one transfer at a time, the rest
//! queued at the sender, so heavy traffic stresses broker queues but never
//! *congests* a link. [`LinkModelKind`] is a plain tag the engine matches
//! on:
//!
//! * [`LinkModelKind::Constant`] — the paper's serial link, kept as the
//!   differential oracle (`tests/linkmodel_equivalence.rs`);
//! * [`LinkModelKind::FairShare`] — flow-level sharing: up to
//!   [`max_flows`](LinkModelKind::max_flows) transfers progress at an equal
//!   share of the link's service rate each, and every in-flight completion
//!   is recomputed at each flow arrival and departure.
//!
//! Both sample a copy's dedicated-link service time the same way
//! ([`LinkQuality::sample_transfer`], one draw from the per-link stream);
//! only the sharing discipline differs.

use std::fmt;

use bdps_stats::rng::SimRng;
use bdps_types::time::Duration;

use crate::link::LinkQuality;

/// Concurrent-flow cap per link under [`LinkModelKind::FairShare`]: a
/// TCP-like handful of parallel connections. Copies beyond it wait in the
/// sender's output queue, where the strategies keep ordering them.
const FAIR_SHARE_MAX_FLOWS: usize = 4;

/// The selectable link models, as a plain configuration tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LinkModelKind {
    /// One transfer in flight per link; the rest wait in the sender's
    /// output queue (the paper's serial-server link, kept as the oracle).
    #[default]
    Constant,
    /// Up to [`max_flows`](Self::max_flows) transfers in flight per link,
    /// each receiving an equal share of the link's service rate.
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

    /// The canonical CLI names, in [`ALL`](Self::ALL) order: what an
    /// unknown-name error lists.
    pub const NAMES: [&'static str; 2] = ["constant", "fair-share"];

    /// Resolves a CLI name (case-insensitive): `"constant"` (aliases
    /// `"const"`, `"delay"`) or `"fair-share"` (aliases `"fairshare"`,
    /// `"fair"`, `"fs"`). Strict CLI parsers list [`NAMES`](Self::NAMES) on
    /// an unknown `--link-model` instead of silently defaulting.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "constant" | "const" | "delay" => Some(LinkModelKind::Constant),
            "fair-share" | "fairshare" | "fair" | "fs" => Some(LinkModelKind::FairShare),
            _ => None,
        }
    }

    /// How many transfers may be in flight on one link at once: 1 for
    /// [`Constant`](Self::Constant), 4 for [`FairShare`](Self::FairShare).
    pub fn max_flows(self) -> usize {
        match self {
            LinkModelKind::Constant => 1,
            LinkModelKind::FairShare => FAIR_SHARE_MAX_FLOWS,
        }
    }

    /// Returns the tag itself. Kept only because the benchmark harness
    /// calls it; ROADMAP item 1d deletes it.
    pub fn create(self) -> Self {
        self
    }

    /// Samples one copy's dedicated-link service time: exactly
    /// [`LinkQuality::sample_transfer`], whatever the model. Kept only
    /// because the benchmark harness calls it; ROADMAP item 1d deletes it.
    pub fn sample_transfer(
        self,
        quality: &LinkQuality,
        size_kb: f64,
        rng: &mut SimRng,
    ) -> Duration {
        quality.sample_transfer(size_kb, rng)
    }
}

impl fmt::Display for LinkModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in LinkModelKind::ALL {
            assert_eq!(LinkModelKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                LinkModelKind::from_name(&kind.name().to_ascii_uppercase()),
                Some(kind)
            );
            assert_eq!(kind.create(), kind);
        }
        assert_eq!(LinkModelKind::from_name("token-bucket"), None);
    }

    /// Every name the lookup accepts — canonical, alias, upper case and
    /// display label — resolves to the model it always has.
    #[test]
    fn from_name_accepts_every_builtin_name_alias_and_label() {
        let table: [(&str, &[&str], LinkModelKind); 2] = [
            ("constant", &["const", "delay"], LinkModelKind::Constant),
            (
                "fair-share",
                &["fairshare", "fair", "fs"],
                LinkModelKind::FairShare,
            ),
        ];
        assert_eq!(table.map(|(name, _, _)| name), LinkModelKind::NAMES);
        assert_eq!(table.map(|(_, _, kind)| kind), LinkModelKind::ALL);
        for (name, aliases, kind) in table {
            assert_eq!(kind.name(), name);
            let label = kind.to_string();
            let names = [name, label.as_str()]
                .into_iter()
                .chain(aliases.iter().copied());
            for accepted in names.flat_map(|n| [n.to_string(), n.to_ascii_uppercase()]) {
                assert_eq!(
                    LinkModelKind::from_name(&accepted),
                    Some(kind),
                    "{accepted}"
                );
            }
        }
        assert_eq!(
            LinkModelKind::from_name("Fair-Share"),
            Some(LinkModelKind::FairShare)
        );
        assert_eq!(LinkModelKind::from_name("nope"), None);
    }

    #[test]
    fn only_the_flow_cap_differs_between_models() {
        let quality = LinkQuality::paper_random(&mut SimRng::seed_from(3));
        let mut a = SimRng::seed_from(11);
        let mut b = SimRng::seed_from(11);
        let fair = LinkModelKind::FairShare.sample_transfer(&quality, 5.0, &mut a);
        let constant = LinkModelKind::Constant.sample_transfer(&quality, 5.0, &mut b);
        assert_eq!(fair, constant);
        assert_eq!(a.state_words(), b.state_words(), "exactly one draw each");
        assert_eq!(LinkModelKind::Constant.max_flows(), 1);
        assert_eq!(LinkModelKind::FairShare.max_flows(), 4);
    }
}
