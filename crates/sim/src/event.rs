//! What the event queue holds: [`EventKind`] and the canonical,
//! partition-independent [`key`]s events are ordered by.

use bdps_core::queue::QueuedMessage;
use bdps_filter::scope::ScopeSet;
use bdps_types::id::{BrokerId, LinkId, MessageId, PublisherId};
use bdps_types::message::Message;
use std::hash::Hasher;
use std::sync::Arc;

use crate::scenario::ScenarioAction;
#[cfg(doc)]
use crate::{engine::Simulation, sched::Scheduled};

/// Canonical, partition-independent event keys.
///
/// [`Scheduled::seq`] is not a global insertion counter but a key derived
/// from the event's *content*, so the total `(time, key)` order is the same
/// no matter which shard scheduled the event — the property that makes the
/// sharded executor ([`crate::shard`]) bit-identical to the sequential loop.
/// Layout: the event rank in the top two bits (scenario < publish < process
/// < send at equal times, so scenario actions always apply before traffic at
/// the same instant), discriminating content in the low bits.
///
/// Uniqueness among pending events at one instant:
/// * **scenario** — the materialization index is globally unique;
/// * **publish** — at most one publication is pending per
///   (publisher, rate generation);
/// * **process** — `via` names the delivering link (or 0 for the
///   publisher-side hand-off), a link completes one transfer at a time and a
///   local hand-off is a fresh message, so `(via, message)` never repeats at
///   an instant;
/// * **send** — a link carries at most one in-flight copy *per message*:
///   under the exclusive (constant-delay) link model at most one transfer is
///   in flight per link (`link_busy`), and under a sharing model
///   ([`bdps_net::linkmodel::FairShare`]) concurrent flows on one link are
///   distinct messages (single-path routing enqueues one copy of a message
///   per link), so `(link, message)` stays unique. A rescheduled flow
///   completion leaves stale events behind at *different* times (the engine
///   only re-pushes when the completion time moved), so equal `(time, key)`
///   pairs never coexist — and even a popped stale event is a no-op, making
///   pop order among hypothetical duplicates irrelevant.
pub(crate) mod key {
    use bdps_types::id::{LinkId, MessageId, PublisherId};

    /// Publisher index bits inside a [`MessageId`] (the counter gets the
    /// low 29 bits, the publisher the bits above).
    const MESSAGE_COUNTER_BITS: u32 = 29;
    /// Low-bit width of the message discriminator inside process/send keys:
    /// 12 publisher bits + 29 counter bits.
    const MESSAGE_BITS: u32 = 41;

    /// Most publisher slots the key layout supports (12 bits).
    pub(crate) const MAX_PUBLISHER_SLOTS: usize = 1 << 12;
    /// Most links the key layout supports (21 bits, minus the hand-off
    /// sentinel).
    pub(crate) const MAX_LINKS: usize = (1 << 21) - 1;

    /// The per-publisher message id: publisher index in the high bits,
    /// per-publisher counter in the low bits. Partition-independent — a
    /// publisher mints the same ids whichever shard it is homed to.
    pub(crate) fn message_id(publisher: PublisherId, counter: u64) -> MessageId {
        debug_assert!(publisher.index() < MAX_PUBLISHER_SLOTS);
        assert!(
            counter < 1 << MESSAGE_COUNTER_BITS,
            "per-publisher message counter overflowed the canonical key layout"
        );
        MessageId::new(((publisher.index() as u64) << MESSAGE_COUNTER_BITS) | counter)
    }

    /// Key of a scenario event: its materialization index (rank 0).
    pub(crate) fn scenario(index: u64) -> u64 {
        debug_assert!(index < 1 << 62);
        index
    }

    /// Key of a publication event (rank 1).
    pub(crate) fn publish(publisher: PublisherId, gen: u64) -> u64 {
        debug_assert!(gen < 1 << 40, "rate generation overflowed the key layout");
        (1 << 62) | ((publisher.index() as u64) << 40) | gen
    }

    /// Key of a processing-done event (rank 2). `via` is the link that
    /// delivered the copy, or `None` for the publisher-side hand-off.
    pub(crate) fn process(via: Option<LinkId>, message: MessageId) -> u64 {
        let via = via.map(|l| l.index() as u64 + 1).unwrap_or(0);
        debug_assert!(via <= MAX_LINKS as u64);
        debug_assert!(message.raw() < 1 << MESSAGE_BITS);
        (2 << 62) | (via << MESSAGE_BITS) | message.raw()
    }

    /// Key of a transfer-complete event (rank 3).
    pub(crate) fn send(link: LinkId, message: MessageId) -> u64 {
        debug_assert!(message.raw() < 1 << MESSAGE_BITS);
        (3 << 62) | ((link.index() as u64) << MESSAGE_BITS) | message.raw()
    }

    /// Whether a process-event key's copy arrived over a link (as opposed to
    /// the publisher-side hand-off, whose `via` field is 0). Recovered from
    /// the key rather than stored in the event so [`super::EventKind`] and
    /// its digests stay unchanged.
    pub(crate) fn process_via_link(seq: u64) -> bool {
        ((seq >> MESSAGE_BITS) & ((1 << 21) - 1)) != 0
    }
}

/// One kind of pending simulation event.
///
/// The engine itself never exposes events mid-run; this type is public so
/// the model-checking explorer (`bdps-mc`) can hold a same-instant frontier
/// taken with [`Simulation::take_frontier`], re-insert the unconsumed events
/// with [`Simulation::push_back`] and apply a chosen one with
/// [`Simulation::apply`]. Treat it as opaque outside those calls.
#[derive(Clone)]
pub enum EventKind {
    /// A publisher emits its next message. `gen` is the publisher's rate
    /// generation: a rate change bumps it, invalidating pending publications
    /// so the new rate takes effect immediately instead of after one more
    /// old-rate gap.
    Publish {
        /// The emitting publisher.
        publisher: PublisherId,
        /// The publisher's rate generation when this event was scheduled.
        gen: u64,
    },
    /// A broker finishes processing a received message copy. The scope — the
    /// interned set of subscription ids the copy serves, frozen at
    /// publication time — is an `Arc`-backed [`ScopeSet`], so every hop of
    /// every copy of a message shares one allocation.
    Process {
        /// The broker whose processing module finishes.
        broker: BrokerId,
        /// The processed message.
        message: Arc<Message>,
        /// The subscription ids this copy serves.
        scope: ScopeSet,
    },
    /// A link finishes transmitting a message copy (targets included so the
    /// copy can be requeued intact if the link died mid-transfer). `gen` is
    /// the link's failure generation when the transfer started: if the link
    /// failed at any point while the copy was in flight — even if it also
    /// recovered before completion — the generation has moved on and the
    /// transfer is void.
    SendComplete {
        /// The transmitting link.
        link: LinkId,
        /// The copy in flight, targets included.
        queued: QueuedMessage,
        /// The link's failure generation when the transfer started.
        gen: u64,
    },
    /// A flow finishes under a sharing link model
    /// ([`bdps_net::linkmodel::FairShare`]). Unlike [`SendComplete`]
    /// (whose one-shot schedule can carry the copy itself), the copy stays
    /// in the engine's per-link flow table — completion re-scheduling would
    /// otherwise clone the copy's target list once per recompute. `resched`
    /// stamps which (re-)schedule this event belongs to: the engine bumps
    /// the flow's stamp whenever its completion time moves, so a popped
    /// event with an outdated stamp (or no live flow at all) is stale and
    /// ignored.
    ///
    /// [`SendComplete`]: EventKind::SendComplete
    FlowComplete {
        /// The transmitting link.
        link: LinkId,
        /// The message whose copy is in flight on the link.
        message: MessageId,
        /// The flow's re-schedule stamp when this event was pushed.
        resched: u64,
    },
    /// A scenario action fires.
    Scenario {
        /// The action.
        action: ScenarioAction,
    },
}

impl EventKind {
    /// A short human-readable label identifying the event — used by the
    /// model-checking explorer to render branch choices in counterexample
    /// traces (`publish:p0`, `process:b2:m5`, `send:l3:m5`,
    /// `scenario:link-down:l1`, ...).
    pub fn label(&self) -> String {
        match self {
            EventKind::Publish { publisher, .. } => format!("publish:p{}", publisher.index()),
            EventKind::Process {
                broker, message, ..
            } => {
                format!("process:b{}:m{}", broker.index(), message.id.raw())
            }
            EventKind::SendComplete { link, queued, .. } => {
                format!("send:l{}:m{}", link.index(), queued.message.id.raw())
            }
            EventKind::FlowComplete { link, message, .. } => {
                format!("flow:l{}:m{}", link.index(), message.raw())
            }
            EventKind::Scenario { action } => format!("scenario:{}", action.label()),
        }
    }

    /// Hashes the event's logical content (ignoring scheduling sequence
    /// numbers) into `h` — the per-event ingredient of
    /// [`Simulation::state_digest`].
    pub(crate) fn digest_into(&self, h: &mut impl Hasher) {
        match self {
            EventKind::Publish { publisher, gen } => {
                h.write_u8(1);
                h.write_u32(publisher.raw());
                h.write_u64(*gen);
            }
            EventKind::Process {
                broker,
                message,
                scope,
            } => {
                h.write_u8(2);
                h.write_u32(broker.raw());
                h.write_u64(message.id.raw());
                for id in scope.iter() {
                    h.write_u32(id.raw());
                }
            }
            EventKind::SendComplete { link, queued, gen } => {
                h.write_u8(3);
                h.write_u32(link.raw());
                h.write_u64(queued.message.id.raw());
                h.write_u64(*gen);
                h.write_u64(queued.enqueue_time.as_micros());
                for t in &queued.targets {
                    h.write_u32(t.subscription.raw());
                }
            }
            EventKind::Scenario { action } => {
                h.write_u8(4);
                h.write(action.label().as_bytes());
            }
            EventKind::FlowComplete {
                link,
                message,
                resched,
            } => {
                h.write_u8(5);
                h.write_u32(link.raw());
                h.write_u64(message.raw());
                h.write_u64(*resched);
            }
        }
    }
}
