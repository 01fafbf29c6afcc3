//! The one error type of the simulator's front door and stepping API.

use bdps_types::error::BdpsError;
use std::fmt;

/// A structured, recoverable simulation failure.
///
/// A poisoned population lock must not become a second panic, or one
/// panicking `sweep` worker would cascade into every sibling cell sharing
/// the registry. Read paths recover the guard
/// ([`bdps_overlay::sparse::read_population`]); write paths — where a
/// half-applied churn action could leave the registry inconsistent —
/// surface this error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration cannot be built into a run: an out-of-range
    /// workload or scheduler value, a malformed mesh, an overlay past the
    /// canonical event-key limits, a scenario event naming a link or broker
    /// the graph does not have, or a join id past the densest minting the
    /// input allows. Decided before any event is applied.
    InvalidConfig(BdpsError),
    /// The shared population registry's write lock was poisoned by a panic
    /// in another thread; the pending mutation was not applied.
    PopulationPoisoned {
        /// Which mutation was abandoned.
        during: &'static str,
    },
    /// A shard's window panicked (sharded executor only), on a worker
    /// thread or on the calling thread, which runs the windows only one
    /// shard has work in and one shard of every other window.
    WorkerPanicked {
        /// The shard whose window panicked.
        shard: usize,
        /// The payload of the panic.
        message: String,
    },
    /// The sharded executor was asked to run a non-constant link model.
    ///
    /// Fair-share completion re-scheduling can move an already-scheduled
    /// cross-shard arrival inside the current conservative time window,
    /// which breaks the PD-lookahead soundness argument the sharded
    /// executor rests on — so the combination is rejected up front as a
    /// structured error instead of silently diverging from the sequential
    /// run.
    ShardedLinkModelUnsupported {
        /// The rejected link model's registry name.
        model: &'static str,
    },
    /// The sharded executor was asked to run aggregate-scoped forwarding
    /// across more than one shard. Edge expansion reads the shared
    /// population registry at delivery time, which would race with churn
    /// applied by other shards inside the same conservative window — run
    /// with shards = 1 (or exact forwarding).
    ShardedForwardingUnsupported,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(e) => e.fmt(f),
            SimError::PopulationPoisoned { during } => write!(
                f,
                "population registry lock poisoned during {during}; mutation abandoned"
            ),
            SimError::WorkerPanicked { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
            SimError::ShardedLinkModelUnsupported { model } => write!(
                f,
                "sharded execution supports only the constant-delay link model \
                 (got `{model}`): flow completion re-scheduling can move a \
                 cross-shard arrival inside the PD-lookahead window — run with \
                 shards = 1"
            ),
            SimError::ShardedForwardingUnsupported => write!(
                f,
                "sharded execution does not support aggregate-scoped \
                 forwarding: edge expansion reads the shared population \
                 registry at delivery time, racing cross-shard churn — run \
                 with shards = 1 (or exact forwarding)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<BdpsError> for SimError {
    fn from(e: BdpsError) -> Self {
        SimError::InvalidConfig(e)
    }
}
