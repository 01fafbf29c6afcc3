//! Table-layout oracle: on the differential grid's runs
//! (`tests/common/grid.rs`), at every instant that holds a scenario event,
//! each broker's live `SparseTable` must resolve the whole population to
//! exactly the rows of a dense `SubscriptionTable` built from scratch —
//! one full entry per subscription, each routed on its own — routed fields
//! included.

mod common;
use common::grid::{run_row, Check, BLACKOUT, CHAOS, FLAP_STORM, LINK_FLAP};

const LAYOUT: &[Check] = &[Check::DenseLayout];

#[test]
fn link_flap_reports_are_layout_independent_on_seeds_1_to_10() {
    run_row(&LINK_FLAP, LAYOUT);
}

#[test]
fn blackout_reports_are_layout_independent_on_seeds_1_to_10() {
    run_row(&BLACKOUT, LAYOUT);
}

#[test]
fn chaos_reports_are_layout_independent_on_seeds_1_to_10() {
    run_row(&CHAOS, LAYOUT);
}

#[test]
fn flap_storm_is_layout_independent() {
    run_row(&FLAP_STORM, LAYOUT);
}
