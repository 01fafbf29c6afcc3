//! Congested-cell golden: the FIFO-degradation fix, regression-locked.
//!
//! This 992-subscriber congested churn cell is the configuration where
//! aggregate forwarding used to collapse: before aggregate entries
//! carried QoS envelopes, every interior copy was stamped `Price::ZERO`
//! and `Duration::MAX`, so under saturation every strategy degenerated to
//! FIFO over interior copies and expiry-based shedding never fired —
//! seed-42 delivered 48,942 messages on time in exact mode but only
//! 3,913 in aggregate mode. With envelope stamping (price = earning sum,
//! allowed delay = min member bound) the same cell recovers to 19,226
//! on-time while exact mode is bit-identical to the pre-envelope run.
//!
//! This test pins those counts exactly; the cell is defined here and
//! nowhere else (layers [4,4,15,31], 32 subscribers per edge, ssd 30/min,
//! 300 s, EB strategy, sparse tables, constant links, seed 42). Any
//! change that silently alters congested aggregate behaviour — envelope
//! folds, stamping, strategy scoring over stamped copies, shedding —
//! shows up as a loud diff instead of a quiet drift. When a change is *intended* to shift these
//! numbers, take the new counts from the failing assertion and update
//! the table in the same commit.

use bdps::overlay::topology::LayeredMeshConfig;
use bdps::prelude::*;

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    published: u64,
    on_time: u64,
    transmissions: u64,
    false_positive_forwards: u64,
}

/// 992 subscribers on 54 brokers (31 edge brokers × 32 subscribers each).
fn congested_mesh() -> LayeredMeshConfig {
    let config = LayeredMeshConfig {
        layer_sizes: vec![4, 4, 15, 31],
        fan_in: vec![0, 2, 2],
        publishers_per_first_layer_broker: 1,
        subscribers_per_edge_broker: 32,
    };
    assert_eq!(config.subscriber_count(), 992);
    config
}

fn congested_run(forwarding: ForwardingMode) -> SimulationReport {
    Simulation::builder()
        .layered_mesh(congested_mesh())
        .ssd(30.0)
        .duration(Duration::from_secs(300))
        .strategy(StrategyKind::MaxEb)
        .scenario_named("churn")
        .expect("churn is builtin")
        .link_model(LinkModelKind::Constant)
        .forwarding(forwarding)
        .seed(42)
        .report()
}

/// Exact mode must be unaffected by envelope stamping: these are the same
/// counts the cell produced before aggregate entries carried envelopes.
#[test]
fn congested_cell_exact_forwarding_is_pinned() {
    let report = congested_run(ForwardingMode::Exact);
    let observed = Golden {
        published: report.published,
        on_time: report.on_time,
        transmissions: report.transmissions,
        false_positive_forwards: report.false_positive_forwards,
    };
    let expected = Golden {
        published: 601,
        on_time: 48_942,
        transmissions: 7_412,
        false_positive_forwards: 0,
    };
    assert_eq!(observed, expected);
}

/// Aggregate mode with envelope stamping: 19,226 on-time, up from the
/// 3,913 the pre-envelope sentinel stamping (zero price, unbounded delay)
/// delivered on this exact cell.
#[test]
fn congested_cell_aggregate_forwarding_is_pinned() {
    let report = congested_run(ForwardingMode::Aggregate);
    let observed = Golden {
        published: report.published,
        on_time: report.on_time,
        transmissions: report.transmissions,
        false_positive_forwards: report.false_positive_forwards,
    };
    let expected = Golden {
        published: 601,
        on_time: 19_226,
        transmissions: 5_296,
        false_positive_forwards: 26,
    };
    assert_eq!(observed, expected);
}
