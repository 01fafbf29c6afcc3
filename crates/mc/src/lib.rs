//! # bdps-mc
//!
//! A bounded exhaustive **model checker** for the BDPS protocol at tiny
//! scale: take a model small enough to enumerate (≤ 4 brokers, ≤ 6
//! subscriptions, ≤ 10 publications/scenario events), and DFS-explore
//! **every permutation of same-instant pending events**, asserting the
//! protocol invariants in every interleaving:
//!
//! * **No duplicate delivery** — no (message, subscriber) pair is ever
//!   delivered twice, in any ordering of simultaneous events;
//! * **Copy conservation** — every copy entering an output queue leaves it
//!   exactly once (sent, dropped or still queued), and every transmission
//!   completes, is voided-and-requeued, or is still in flight;
//! * **Table/routing agreement** — routing and every broker's subscription
//!   table always equal a from-scratch rebuild at the last-rebuilt link
//!   liveness, mid-flap-batch included;
//! * **No stranded copies at quiescence** — when the model expects full
//!   drainage, nothing is left queued, in flight or mid-processing.
//!
//! Why this is sound: every event handler schedules its successors strictly
//! later than the event itself (processing delay and transfer times are
//! positive), so once the simulation clock reaches an instant its frontier —
//! the set of pending events at that instant — is *fixed*. Exploring all
//! orders of applying the frontier therefore covers all same-instant
//! interleavings, and exploring every frontier covers the model exhaustively.
//! Branches that converge to the same state (commuting events) are pruned by
//! a full-state digest that includes broker tables, queues, link state, the
//! RNG stream position and the delivery audit trail.
//!
//! The same model is explored under every engine configuration
//! ([`CheckCell::all`]: the dense full-rebuild reference, the sparse
//! incremental production engine, and the latter under aggregate
//! forwarding), so what the integration suites sample by seed is
//! exhaustively cross-checked at small scale.
//!
//! On a violation the explorer emits a [`Counterexample`]: the exact branch
//! choices taken (greedily minimised back towards the default order), the
//! cell, the model seed and the violated invariant — serialisable to JSON
//! and replayable with [`explorer::replay`] so every mc-found bug becomes a
//! permanent regression test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explorer;
pub mod model;
pub mod trace;

pub use explorer::{explore, replay, Exploration, ExploreBudget, ExploreStats, InvariantViolation};
pub use model::{CheckCell, McModel, ModelTopology};
pub use trace::{ChoiceRecord, Counterexample};
