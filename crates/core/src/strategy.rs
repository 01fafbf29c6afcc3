//! The pluggable scheduling-strategy surface (§5, §6.1).
//!
//! A strategy is a priority function over queued messages; the output queue
//! removes the highest-priority item whenever its link becomes free. All
//! priorities are *recomputed at selection time* because every metric of the
//! paper depends on the current time.
//!
//! The surface has three layers:
//!
//! * [`SchedulingStrategy`] — the trait a strategy implements: one
//!   [`priority`](SchedulingStrategy::priority) per queued copy, handed the
//!   queue's [`ClassScratch`] so that the built-in EB / PC / EBPC /
//!   COMPOSITE evaluate `success` once per [success class](crate::queue)
//!   of the copy without allocating per selection;
//! * [`StrategyHandle`] — a cheaply clonable, type-erased handle
//!   (`Arc<dyn SchedulingStrategy>`) threaded through
//!   [`SchedulerConfig`], the output queues
//!   and the broker state machine;
//! * [`StrategyHandle::from_name`] — the name lookup command-line binaries
//!   and sweep helpers use, one `match` over the built-ins.
//!
//! The five paper strategies (`Fifo`, `RemainingLifetime`, `MaxEb`,
//! `MaxPc`, `MaxEbpc`) are provided here, plus [`WeightedComposite`], a
//! non-paper blend of expected benefit and urgency demonstrating that the
//! strategy family is open. User crates implement the trait on their own
//! types and pass them to the simulation through a handle — see
//! `examples/custom_strategy.rs` in the workspace root.
//!
//! # Aggregate copies and QoS envelopes
//!
//! Under aggregate-scoped forwarding an interior copy carries one
//! pseudo-target per destination edge broker instead of one per
//! subscription. That target is stamped from the destination group's
//! [`QosEnvelope`](bdps_overlay::sparse::QosEnvelope): its (own) class's
//! `allowed_delay` is the envelope's **minimum member bound** (tightened by
//! the publisher bound) and its `price` is the envelope's **earning sum**. Strategies
//! need no aggregate-specific code — the stamped target flows through the
//! same formulas — but the semantics per strategy are deliberate:
//!
//! * **EB** scores `success(min bound) · earning sum`. Because the success
//!   probability is monotone in the allowed delay, this is a *lower bound*
//!   on the exact-mode sum `Σ success(bound_i) · price_i` over the members
//!   — an aggregate copy is never overvalued relative to exact copies.
//! * **PC / EBPC** inherit the same bounds: the postponing cost uses the
//!   min-bound success-probability drop times the earning sum, again a
//!   conservative (never-overvaluing) stand-in for the per-member sum.
//! * **RL** reads the min bound as the copy's remaining lifetime, so the
//!   group's most demanding member drives urgency; a group of only
//!   best-effort members stays at `Duration::MAX` → `-∞` priority, exactly
//!   like an exact-mode best-effort copy.
//! * **FIFO** ignores the envelope, as it ignores all QoS.
//!
//! Expiry-based shedding keys off the same stamped bound: once the min
//! bound has passed, the copy can no longer be on time for the *tightest*
//! member and the §5.4 purge may drop it — deliberately conservative, since
//! looser members of the same group lose the (already late-for-someone)
//! copy with it. Under congestion this is the mechanism that keeps
//! aggregate mode from collapsing toward FIFO; on uncongested runs nothing
//! sheds and the delivered pair set is untouched (held by
//! `tests/forwarding_equivalence.rs`).

use crate::config::SchedulerConfig;
use crate::metrics::ClassScratch;
use crate::queue::QueuedMessage;
use bdps_types::time::SimTime;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Everything a strategy needs to score one queued message.
///
/// The context is a plain-data snapshot taken once per scheduling decision;
/// it deliberately does not borrow the configuration, so the queue can score
/// its copies into its own scratch without aliasing it.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleContext {
    /// The current simulated time.
    pub now: SimTime,
    /// The EB weight `r` of the EBPC metric (eq. 10).
    pub ebpc_weight: f64,
    /// The mean per-KB rate (ms/KB) of the link the queue being scheduled
    /// feeds.
    pub link_mean_rate_ms_per_kb: f64,
}

impl ScheduleContext {
    /// Builds a context from the scheduler configuration and the mean rate
    /// of the queue's link.
    pub(crate) fn new(
        now: SimTime,
        config: &SchedulerConfig,
        link_mean_rate_ms_per_kb: f64,
    ) -> Self {
        ScheduleContext {
            now,
            ebpc_weight: config.ebpc_weight,
            link_mean_rate_ms_per_kb,
        }
    }

    /// The `FT` of §5.2 for `item` on this queue, used by PC and EBPC: how
    /// long sending a copy of `item`'s size ahead of it takes at the link's
    /// mean rate (every message of the paper's workload has one size).
    pub fn first_send_estimate_ms(&self, item: &QueuedMessage) -> f64 {
        item.message.size_kb * self.link_mean_rate_ms_per_kb
    }
}

/// A scheduling strategy: a priority function over queued messages.
///
/// Implementations must be deterministic — the same `(ctx, item)` pair must
/// always produce the same score, whatever the scratch held — and return
/// finite values for valid inputs (messages whose targets carry bounded
/// deadlines), because the queue compares scores with `>` and ties are
/// broken by arrival order.
pub trait SchedulingStrategy: Send + Sync + fmt::Debug {
    /// The strategy's display name (e.g. `"EB"`), used in reports, name
    /// lookups and equality checks between handles.
    fn name(&self) -> &str;

    /// The priority of one queued message — larger means "send sooner".
    ///
    /// `scratch` is the queue's, reused for every copy of every selection; it
    /// holds whatever the last scored copy left in it. A strategy that needs
    /// `success` calls its methods ([`ClassScratch::expected_benefit`],
    /// ...), which overwrite it; the others ignore it. What a method leaves
    /// there for `item` at `ctx.now` is what the queue's ε-test reads next,
    /// instead of evaluating `success` again.
    fn priority(
        &self,
        ctx: &ScheduleContext,
        item: &QueuedMessage,
        scratch: &mut ClassScratch,
    ) -> f64;

    /// Whether the strategy consults the probabilistic link model. FIFO and
    /// RL do not, which also drives the §5.4 default that they only delete
    /// already-expired messages.
    fn uses_link_model(&self) -> bool {
        true
    }
}

/// First-in, first-out (baseline).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Fifo;

impl SchedulingStrategy for Fifo {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn priority(&self, _ctx: &ScheduleContext, item: &QueuedMessage, _: &mut ClassScratch) -> f64 {
        // Earlier enqueue time wins; negate so larger = earlier.
        -(item.enqueue_time.as_micros() as f64)
    }

    fn uses_link_model(&self) -> bool {
        false
    }
}

/// Minimum remaining lifetime first (baseline; "RL" in the paper). For a
/// message matching several subscriptions the average remaining lifetime is
/// used, as in §6.1.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RemainingLifetime;

impl SchedulingStrategy for RemainingLifetime {
    fn name(&self) -> &str {
        "RL"
    }

    fn priority(&self, ctx: &ScheduleContext, item: &QueuedMessage, _: &mut ClassScratch) -> f64 {
        -item.avg_remaining_lifetime_ms(ctx.now)
    }

    fn uses_link_model(&self) -> bool {
        false
    }
}

/// Maximum Expected Benefit first (§5.1).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MaxEb;

impl SchedulingStrategy for MaxEb {
    fn name(&self) -> &str {
        "EB"
    }

    fn priority(
        &self,
        ctx: &ScheduleContext,
        item: &QueuedMessage,
        scratch: &mut ClassScratch,
    ) -> f64 {
        scratch.expected_benefit(item, ctx.now)
    }
}

/// Maximum Postponing Cost first (§5.2).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MaxPc;

impl SchedulingStrategy for MaxPc {
    fn name(&self) -> &str {
        "PC"
    }

    fn priority(
        &self,
        ctx: &ScheduleContext,
        item: &QueuedMessage,
        scratch: &mut ClassScratch,
    ) -> f64 {
        scratch.postponing_cost(item, ctx.now, ctx.first_send_estimate_ms(item))
    }
}

/// Maximum `r·EB + (1−r)·PC` first (§5.3); `r` is read from the
/// [`ScheduleContext`] so that configuration-level weight sweeps keep
/// working.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MaxEbpc;

impl SchedulingStrategy for MaxEbpc {
    fn name(&self) -> &str {
        "EBPC"
    }

    fn priority(
        &self,
        ctx: &ScheduleContext,
        item: &QueuedMessage,
        scratch: &mut ClassScratch,
    ) -> f64 {
        let ft = ctx.first_send_estimate_ms(item);
        scratch.ebpc(item, ctx.now, ft, ctx.ebpc_weight)
    }
}

/// A non-paper strategy blending Expected Benefit with deadline urgency:
/// `w·EB + (1−w)·urgency`, where `urgency = 1 / (1 + avg remaining lifetime
/// in seconds)` lies in `(0, 1]` and grows as deadlines approach.
///
/// EB alone starves messages whose success probability has decayed but that
/// could still be rescued; pure RL ignores value. The blend sends valuable
/// messages early while still bumping urgent ones up the queue. It exists
/// mainly to demonstrate that the strategy family is open — it is selectable
/// as `"composite"` through [`StrategyHandle::from_name`].
#[derive(Debug, Clone, Copy)]
pub struct WeightedComposite {
    /// Weight of the EB term, in `[0, 1]`.
    pub(crate) eb_weight: f64,
}

impl WeightedComposite {
    /// Creates the composite with the given EB weight (clamped to `[0, 1]`).
    pub(crate) fn new(eb_weight: f64) -> Self {
        WeightedComposite {
            eb_weight: eb_weight.clamp(0.0, 1.0),
        }
    }
}

impl Default for WeightedComposite {
    fn default() -> Self {
        WeightedComposite::new(0.5)
    }
}

impl SchedulingStrategy for WeightedComposite {
    fn name(&self) -> &str {
        "COMPOSITE"
    }

    fn priority(
        &self,
        ctx: &ScheduleContext,
        item: &QueuedMessage,
        scratch: &mut ClassScratch,
    ) -> f64 {
        let eb = scratch.expected_benefit(item, ctx.now);
        // `avg_remaining_lifetime_ms` is +∞ for purely best-effort targets,
        // for which the urgency term cleanly vanishes.
        let urgency = 1.0 / (1.0 + item.avg_remaining_lifetime_ms(ctx.now) / 1_000.0);
        self.eb_weight * eb + (1.0 - self.eb_weight) * urgency
    }
}

/// A cheaply clonable, type-erased handle to a scheduling strategy.
///
/// This is what gets threaded through [`SchedulerConfig`], the output queues
/// and the broker state machine. Handles compare equal when their strategies
/// report the same [`name`](SchedulingStrategy::name), which also makes them
/// comparable against [`StrategyKind`](crate::config::StrategyKind) in tests
/// and compatibility code.
#[derive(Clone)]
pub struct StrategyHandle(Arc<dyn SchedulingStrategy>);

impl StrategyHandle {
    /// Wraps a concrete strategy.
    pub fn new(strategy: impl SchedulingStrategy + 'static) -> Self {
        StrategyHandle(Arc::new(strategy))
    }

    /// Short label used in experiment tables ("EB", "PC", "EBPC", "FIFO",
    /// "RL", ...).
    pub fn label(&self) -> &str {
        self.0.name()
    }

    /// The built-in strategies' canonical CLI names, in the order an
    /// unknown-name error lists them.
    pub const NAMES: [&'static str; 6] = ["fifo", "rl", "eb", "pc", "ebpc", "composite"];

    /// Resolves a CLI name (case-insensitive) to a fresh built-in strategy:
    /// `"fifo"`, `"rl"` (alias `"remaining-lifetime"`), `"eb"`
    /// (`"expected-benefit"`), `"pc"` (`"postponing-cost"`), `"ebpc"` or
    /// `"composite"` (`"weighted"`, `"weighted-composite"`). A built-in's
    /// display label is its canonical name in upper case, so labels resolve
    /// too.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "fifo" => StrategyHandle::new(Fifo),
            "rl" | "remaining-lifetime" => StrategyHandle::new(RemainingLifetime),
            "eb" | "expected-benefit" => StrategyHandle::new(MaxEb),
            "pc" | "postponing-cost" => StrategyHandle::new(MaxPc),
            "ebpc" => StrategyHandle::new(MaxEbpc),
            "composite" | "weighted" | "weighted-composite" => {
                StrategyHandle::new(WeightedComposite::default())
            }
            _ => return None,
        })
    }
}

impl Deref for StrategyHandle {
    type Target = dyn SchedulingStrategy;
    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl fmt::Debug for StrategyHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StrategyHandle({:?})", &*self.0)
    }
}

impl fmt::Display for StrategyHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.name())
    }
}

impl PartialEq for StrategyHandle {
    /// Two handles are equal when they share the strategy instance, or when
    /// name *and* `Debug` representation agree — the latter catches
    /// differently-parameterised instances of the same strategy type (e.g.
    /// two [`WeightedComposite`]s with different weights), which must not
    /// compare equal just because they share a display name.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.name() == other.0.name()
                && format!("{:?}", &*self.0) == format!("{:?}", &*other.0))
    }
}

impl PartialEq<crate::config::StrategyKind> for StrategyHandle {
    fn eq(&self, kind: &crate::config::StrategyKind) -> bool {
        self.0.name() == kind.label()
    }
}

impl<S: SchedulingStrategy + 'static> From<S> for StrategyHandle {
    fn from(strategy: S) -> Self {
        StrategyHandle::new(strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use crate::metrics::reference::{queued, FlatTarget};
    use bdps_overlay::pathstats::PathStats;
    use bdps_stats::normal::Normal;
    use bdps_types::id::{MessageId, SubscriberId, SubscriptionId};
    use bdps_types::message::Message;
    use bdps_types::money::Price;
    use bdps_types::time::Duration;

    fn item(id: u64, enqueue_secs: u64, allowed_secs: u64, price: i64, hops: u32) -> QueuedMessage {
        let mut stats = PathStats::local();
        for _ in 0..hops {
            stats = stats.extend(Normal::new(60.0, 20.0));
        }
        stamped_at(
            id,
            Duration::from_secs(allowed_secs),
            Price::from_units(price),
            stats,
            SimTime::from_secs(enqueue_secs),
        )
    }

    fn stamped_at(
        id: u64,
        allowed_delay: Duration,
        price: Price,
        stats: PathStats,
        enqueue_time: SimTime,
    ) -> QueuedMessage {
        let message = Arc::new(
            Message::builder(MessageId::new(id))
                .publish_time(SimTime::ZERO)
                .size_kb(50.0)
                .build(),
        );
        let target = FlatTarget {
            subscription: SubscriptionId::new(0),
            subscriber: SubscriberId::new(0),
            price,
            allowed_delay,
            stats,
        };
        queued(&message, &[target], enqueue_time)
    }

    fn ctx() -> ScheduleContext {
        ScheduleContext {
            now: SimTime::from_secs(2),
            ebpc_weight: 0.5,
            link_mean_rate_ms_per_kb: 75.0,
        }
    }

    /// `strategy`'s priority of `item`, scored into a fresh scratch.
    fn score(strategy: &dyn SchedulingStrategy, c: &ScheduleContext, item: &QueuedMessage) -> f64 {
        strategy.priority(c, item, &mut ClassScratch::default())
    }

    fn p(strategy: &dyn SchedulingStrategy, item: &QueuedMessage) -> f64 {
        score(strategy, &ctx(), item)
    }

    #[test]
    fn fifo_prefers_older_items() {
        assert!(p(&Fifo, &item(1, 1, 30, 1, 1)) > p(&Fifo, &item(2, 5, 10, 3, 1)));
    }

    #[test]
    fn rl_prefers_shorter_lifetimes() {
        let s = RemainingLifetime;
        assert!(p(&s, &item(1, 0, 10, 1, 1)) > p(&s, &item(2, 0, 60, 1, 1)));
    }

    #[test]
    fn eb_prefers_higher_prices_and_better_odds() {
        // Same odds, higher price wins.
        assert!(p(&MaxEb, &item(1, 0, 30, 3, 1)) > p(&MaxEb, &item(2, 0, 30, 1, 1)));
        // Same price, shorter path (better odds) wins.
        assert!(p(&MaxEb, &item(3, 0, 10, 1, 1)) > p(&MaxEb, &item(4, 0, 10, 1, 3)));
    }

    #[test]
    fn pc_prefers_urgent_over_safe() {
        // The 8 s deadline message loses real probability if postponed; the
        // 60 s one does not.
        assert!(p(&MaxPc, &item(1, 0, 8, 1, 1)) > p(&MaxPc, &item(2, 0, 60, 1, 1)));
    }

    #[test]
    fn ebpc_extremes_match_components() {
        let urgent = item(1, 0, 8, 1, 1);
        let safe = item(2, 0, 60, 1, 1);
        let mut c = ctx();
        c.ebpc_weight = 1.0;
        assert!((score(&MaxEbpc, &c, &urgent) - p(&MaxEb, &urgent)).abs() < 1e-12);
        c.ebpc_weight = 0.0;
        assert!((score(&MaxEbpc, &c, &safe) - p(&MaxPc, &safe)).abs() < 1e-12);
    }

    #[test]
    fn composite_blends_value_and_urgency() {
        let c = ctx();
        // Pure EB weight reproduces EB.
        let eb_only = WeightedComposite::new(1.0);
        let x = item(1, 0, 30, 3, 1);
        assert!((score(&eb_only, &c, &x) - p(&MaxEb, &x)).abs() < 1e-12);
        // Pure urgency weight prefers the tighter deadline regardless of price.
        let urgency_only = WeightedComposite::new(0.0);
        assert!(
            score(&urgency_only, &c, &item(1, 0, 8, 1, 1))
                > score(&urgency_only, &c, &item(2, 0, 60, 3, 1))
        );
        // Weights outside [0, 1] are clamped.
        assert_eq!(WeightedComposite::new(7.0).eb_weight, 1.0);
    }

    /// A copy whose single target mimics one built at an `enqueue_secs`
    /// arrival with explicit bound/price — the shape of both sentinel-era
    /// aggregate targets (`Duration::MAX`, `Price::ZERO`) and
    /// envelope-stamped ones (min member bound, earning sum).
    fn stamped(id: u64, allowed: Duration, price: Price) -> QueuedMessage {
        let stats = PathStats::local().extend(Normal::new(60.0, 20.0));
        stamped_at(id, allowed, price, stats, SimTime::ZERO)
    }

    /// Regression (sentinel-era arithmetic audit): a copy stamped with the
    /// `Duration::MAX` / `Price::ZERO` sentinels must score without
    /// overflow or NaN under every strategy even after time has elapsed.
    /// Before the fix, `MatchedTarget::remaining_lifetime` subtracted the
    /// elapsed time *from the sentinel*, producing a huge-but-finite value
    /// that slipped past the `== Duration::MAX → ∞` mapping in
    /// `avg_remaining_lifetime_ms` — RL and COMPOSITE then ranked unbounded
    /// copies by a meaningless near-`u64::MAX` lifetime.
    #[test]
    fn sentinel_stamped_copy_scores_without_overflow() {
        let c = ctx(); // now = 2 s, so every target has elapsed time
        let copy = stamped(1, Duration::MAX, Price::ZERO);
        assert_eq!(
            copy.avg_remaining_lifetime_ms(c.now),
            f64::INFINITY,
            "an unbounded target's lifetime must stay infinite once time has passed"
        );
        let strategies: [StrategyHandle; 6] = [
            StrategyHandle::new(Fifo),
            StrategyHandle::new(RemainingLifetime),
            StrategyHandle::new(MaxEb),
            StrategyHandle::new(MaxPc),
            StrategyHandle::new(MaxEbpc),
            StrategyHandle::new(WeightedComposite::default()),
        ];
        for strategy in &strategies {
            let first = score(&**strategy, &c, &copy);
            assert!(!first.is_nan(), "{} produced NaN", strategy.label());
            // Scoring is deterministic: same copy, same score.
            assert_eq!(first, score(&**strategy, &c, &copy), "{}", strategy.label());
        }
        // RL maps the infinite lifetime to the lowest possible priority —
        // never a huge finite number competing with real deadlines.
        assert_eq!(score(&RemainingLifetime, &c, &copy), f64::NEG_INFINITY);
        // COMPOSITE's urgency term cleanly vanishes; only the EB term stays.
        let composite = WeightedComposite::new(0.5);
        let eb = score(&MaxEb, &c, &copy);
        assert_eq!(score(&composite, &c, &copy), 0.5 * eb);
        // EB of a zero-price unbounded copy is exactly zero (probability 1,
        // price 0) — not an overflowed artefact.
        assert_eq!(eb, 0.0);
        // Two sentinel copies tie on every strategy, so the queue's
        // strictly-greater selection falls back to arrival order: the
        // ordering is deterministic.
        let twin = stamped(2, Duration::MAX, Price::ZERO);
        for strategy in &strategies {
            let mut scratch = ClassScratch::default();
            let first = strategy.priority(&c, &copy, &mut scratch);
            assert_eq!(
                first,
                strategy.priority(&c, &twin, &mut scratch),
                "{}",
                strategy.label()
            );
        }
    }

    /// Envelope-stamped aggregate copies rank by their real bounds: EB by
    /// the earning sum, RL by the min member bound, and a copy whose
    /// envelope deadline passed becomes sheddable.
    #[test]
    fn envelope_stamped_copies_rank_and_expire_by_envelope_bounds() {
        let c = ctx(); // now = 2 s
        let rich = stamped(1, Duration::from_secs(30), Price::from_units(5));
        let poor = stamped(2, Duration::from_secs(30), Price::unit());
        assert!(
            score(&MaxEb, &c, &rich) > score(&MaxEb, &c, &poor),
            "EB must prefer the larger earning sum at equal bounds"
        );
        let tight = stamped(3, Duration::from_secs(10), Price::unit());
        let loose = stamped(4, Duration::from_secs(60), Price::unit());
        assert!(
            score(&RemainingLifetime, &c, &tight) > score(&RemainingLifetime, &c, &loose),
            "RL must prefer the tighter envelope min bound"
        );
        // An envelope whose min bound already passed: expired, hence
        // purgeable under expired-only detection — the shedding the sentinel
        // era could never trigger for aggregate copies.
        let dead = stamped(5, Duration::from_secs(1), Price::from_units(5));
        assert!(dead.classes[0].is_expired(&dead.message, c.now));
        assert!(dead.fully_expired(c.now));
    }

    #[test]
    fn handles_compare_by_name() {
        let a = StrategyHandle::new(MaxEb);
        let b = StrategyKind::MaxEb.resolve();
        assert_eq!(a, b);
        assert_eq!(a, StrategyKind::MaxEb);
        assert_ne!(a, StrategyHandle::new(Fifo));
        assert_eq!(a.to_string(), "EB");
        assert!(format!("{a:?}").contains("MaxEb"));
        // Differently-parameterised instances of the same strategy type are
        // not equal; identically-parameterised ones are.
        let light = StrategyHandle::new(WeightedComposite::new(0.1));
        let heavy = StrategyHandle::new(WeightedComposite::new(0.9));
        assert_ne!(light, heavy);
        assert_eq!(light, StrategyHandle::new(WeightedComposite::new(0.1)));
        assert_eq!(light.clone(), light);
    }

    /// Every name the lookup accepts — canonical, alias, upper case and
    /// display label — resolves to the strategy it always has.
    #[test]
    fn from_name_accepts_every_builtin_name_alias_and_label() {
        let table: [(&str, &[&str], StrategyHandle); 6] = [
            ("fifo", &[], StrategyHandle::new(Fifo)),
            ("rl", &["remaining-lifetime"], RemainingLifetime.into()),
            ("eb", &["expected-benefit"], MaxEb.into()),
            ("pc", &["postponing-cost"], MaxPc.into()),
            ("ebpc", &[], MaxEbpc.into()),
            (
                "composite",
                &["weighted", "weighted-composite"],
                WeightedComposite::default().into(),
            ),
        ];
        assert_eq!(
            table.each_ref().map(|(name, _, _)| *name),
            StrategyHandle::NAMES
        );
        for (name, aliases, expected) in &table {
            let names = [*name, expected.label()]
                .into_iter()
                .chain(aliases.iter().copied());
            for accepted in names.flat_map(|n| [n.to_string(), n.to_ascii_uppercase()]) {
                assert_eq!(
                    StrategyHandle::from_name(&accepted).as_ref(),
                    Some(expected),
                    "{accepted}"
                );
            }
        }
        assert_eq!(
            StrategyHandle::from_name("Remaining-Lifetime").unwrap(),
            StrategyKind::RemainingLifetime
        );
        assert!(StrategyHandle::from_name("nope").is_none());
        assert!(StrategyHandle::from_name("").is_none());
    }
}
