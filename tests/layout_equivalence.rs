//! Table-layout oracle: on the differential grid's runs
//! (`tests/common/grid.rs`), at every instant that holds a scenario event,
//! every registered subscription's record, joined with each broker's live
//! `SparseTable` route towards its edge, must give exactly the row of a
//! dense `SubscriptionTable` built from scratch — one full entry per
//! subscription, each routed on its own — routed fields included
//! (`SubscriptionTable::check_sparse`).

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
