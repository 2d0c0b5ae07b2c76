//! Property tests for the incremental delta-evaluation engine: across long
//! random move/swap/revert sequences, the O(1) objective served by the
//! [`ObjectiveAccumulator`](emumap::model::ObjectiveAccumulator) and the
//! O(degree) inter-host bandwidth deltas must agree with a full recompute
//! at every step.
//!
//! Tolerances mirror the accumulator's own drift budget,
//! `1e-9 * (1 + |exact| + scale)` with `scale` the residual magnitude:
//! the mean-shifted Σ/Σ² representation rounds at the scale of the
//! squared deviations (residuals sit near host capacity ~10³), so a bound
//! relative only to a near-zero stddev would be unsatisfiable.

use emumap::mapping::PlacementState;
use emumap::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod instances;
mod pinned;

use instances::arb_instance;

/// Number of random operations per sequence.
const OPS: usize = 1_000;

/// `|inc - exact| <= 1e-9 * (1 + |exact| + scale)` — the accumulator's
/// drift budget (`ObjectiveAccumulator::drift_budget`), with `scale` the
/// magnitude of the tracked data.
fn close(inc: f64, exact: f64, scale: f64) -> bool {
    (inc - exact).abs() <= 1e-9 * (1.0 + exact.abs() + scale)
}

/// Asserts the incremental bookkeeping against full recomputes: the
/// accumulator-served objective vs Eq. 10 over the residual vector, and
/// the delta-maintained inter-host bandwidth vs an O(links) rescan.
fn check_step(phys: &PhysicalTopology, st: &PlacementState<'_>, bw_tracked: f64, step: &str) {
    let residuals = st.residual().host_proc_residuals(phys);
    let scale = residuals.iter().fold(0.0f64, |m, r| m.max(r.abs()));
    let exact = objective::population_stddev(&residuals);
    let inc = st.objective();
    assert!(
        close(inc, exact, scale),
        "{step}: incremental objective {inc} drifted from exact {exact}"
    );
    let exact_bw = st.inter_host_bandwidth().value();
    assert!(
        close(bw_tracked, exact_bw, exact_bw.abs()),
        "{step}: tracked inter-host bandwidth {bw_tracked} drifted from exact {exact_bw}"
    );
}

/// One undoable operation, for the revert arm of the sequence.
#[derive(Clone, Copy)]
enum Op {
    Move { guest: GuestId, from: NodeId },
    Swap { a: GuestId, b: GuestId },
}

/// Drives `OPS` random moves, swaps, and reverts over a fully-assigned
/// placement, checking incremental-vs-full agreement after every single
/// mutation (including each step of the initial assignment).
fn delta_consistency_check(phys: &PhysicalTopology, venv: &VirtualEnvironment, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut st = PlacementState::new(phys, venv);
    let hosts = phys.hosts();

    // Initial placement: any fitting host, randomly. Instances too tight
    // to place fully just exercise a shorter prefix.
    for g in venv.guest_ids() {
        let fitting: Vec<NodeId> = hosts.iter().copied().filter(|&h| st.fits(g, h)).collect();
        let Some(&pick) = fitting.get(rng.gen_range(0..fitting.len().max(1))) else {
            return;
        };
        st.assign(g, pick).expect("candidate verified");
        let bw = st.inter_host_bandwidth().value(); // no assign delta API
        check_step(phys, &st, bw, "assign");
    }
    let guest_count = venv.guest_count();
    let mut bw_tracked = st.inter_host_bandwidth().value();
    let mut log: Vec<Op> = Vec::new();

    for i in 0..OPS {
        let roll = rng.gen_range(0..100u32);
        if roll < 45 {
            // Move a random guest to a random host (may be its own: the
            // no-op guard must keep both values bit-identical).
            let g = GuestId::from_index(rng.gen_range(0..guest_count));
            let to = hosts[rng.gen_range(0..hosts.len())];
            let from = st.host_of(g).expect("complete");
            if !st.fits(g, to) {
                continue;
            }
            let predicted_obj = st.objective_if_migrated(g, to);
            let bw_delta = st.inter_bandwidth_delta(g, to).value();
            st.migrate(g, to).expect("fit checked");
            bw_tracked += bw_delta;
            let scale = st
                .residual()
                .host_proc_residuals(phys)
                .iter()
                .fold(0.0f64, |m, r| m.max(r.abs()));
            assert!(
                close(predicted_obj, st.objective(), scale),
                "op {i}: objective_if_migrated predicted {predicted_obj}, got {}",
                st.objective()
            );
            if to != from {
                log.push(Op::Move { guest: g, from });
            }
            check_step(phys, &st, bw_tracked, "move");
        } else if roll < 75 {
            // Swap two random guests. There is no swap-delta probe, so the
            // tracked bandwidth re-syncs from a rescan here; the objective
            // accumulator still absorbs all four residual updates.
            let a = GuestId::from_index(rng.gen_range(0..guest_count));
            let b = GuestId::from_index(rng.gen_range(0..guest_count));
            if st.swap(a, b).is_err() {
                continue;
            }
            bw_tracked = st.inter_host_bandwidth().value();
            log.push(Op::Swap { a, b });
            check_step(phys, &st, bw_tracked, "swap");
        } else {
            // Revert the most recent op still on the log, through the same
            // delta paths as a forward move.
            let Some(op) = log.pop() else { continue };
            match op {
                Op::Move { guest, from } => {
                    if !st.fits(guest, from) {
                        continue; // someone else took the slot; skip
                    }
                    let bw_delta = st.inter_bandwidth_delta(guest, from).value();
                    st.migrate(guest, from).expect("fit checked");
                    bw_tracked += bw_delta;
                }
                Op::Swap { a, b } => {
                    if st.swap(a, b).is_err() {
                        continue; // state unchanged, tracking still valid
                    }
                    bw_tracked = st.inter_host_bandwidth().value();
                }
            }
            check_step(phys, &st, bw_tracked, "revert");
        }
    }

    // The sequence must have exercised the O(1)/O(degree) paths.
    assert!(
        guest_count == 0 || hosts.len() < 2 || st.delta_evaluations() > 0,
        "sequence of {OPS} ops never hit a delta path"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_energy_matches_full_recompute((phys, venv, seed) in arb_instance()) {
        delta_consistency_check(&phys, &venv, seed);
    }
}

/// Replays every seed pinned in
/// `proptest-regressions/delta_consistency.txt` (same manual-persistence
/// discipline as `tests/property_mappings.rs`: the shim has no automatic
/// regression file, so this test is the regression memory).
#[test]
fn regression_seeds_replay() {
    let pinned = include_str!("../proptest-regressions/delta_consistency.txt");
    for (name, mut rng) in pinned::pinned_cases(pinned) {
        match name {
            "incremental_energy_matches_full_recompute" => {
                let (phys, venv, s) = arb_instance().generate(&mut rng);
                delta_consistency_check(&phys, &venv, s);
            }
            other => panic!("regression file pins unknown test '{other}'"),
        }
    }
}
