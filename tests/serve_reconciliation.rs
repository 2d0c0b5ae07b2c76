//! Property tests for the `emumap serve` session engine: after ANY
//! sequence of tenant arrivals and departures, the session's residual
//! cluster state must be **bitwise identical** to a from-scratch rebuild
//! of just the surviving tenants — no float drift, no leaked capacity,
//! regardless of the order embeddings were applied and released in.
//!
//! This is the invariant the daemon's canonical-resync discipline exists
//! to provide (see DESIGN.md): residuals are a pure function of the
//! surviving tenant *set*, so equality here is exact `==` on every
//! capacity column, not a tolerance check.

use emumap::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod pinned;

/// Uniform-random cluster — same shape family as
/// `tests/delta_consistency.rs`, a pure function of its inputs.
fn build_phys(hosts: usize, topo: usize) -> PhysicalTopology {
    let shape = match topo {
        0 => generators::ring(hosts),
        1 => generators::torus2d(2, hosts.div_ceil(2)),
        _ => generators::switched_cascade(hosts, 8),
    };
    PhysicalTopology::from_shape(
        &shape,
        std::iter::repeat(HostSpec::new(
            Mips(2000.0),
            MemMb::from_gb(2),
            StorGb(2000.0),
        )),
        LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
        VmmOverhead::NONE,
    )
}

fn arb_instance() -> impl Strategy<Value = (usize, usize, u64)> {
    (
        4usize..12,   // hosts
        0usize..3,    // topology selector
        any::<u64>(), // ops seed
    )
}

/// Arrivals/departures per sequence. Sequences are short but every step
/// is checked, so each case exercises ~ops² admit/release interleavings.
const OPS: usize = 40;

/// Rebuilds the surviving tenants' residuals from scratch (in the same
/// canonical id order the session uses) and asserts exact equality.
fn assert_reconciled(session: &mut Session, step: &str) {
    let phys = session.phys().clone();
    let snapshot = session.snapshot();
    let rebuilt = ResidualState::rebuilt(
        &phys,
        snapshot.tenants.iter().map(|t| (&t.venv, &t.mapping)),
    )
    .expect("surviving tenants must rebuild cleanly");
    assert_eq!(
        session.residual(),
        &rebuilt,
        "{step}: session residuals differ from a from-scratch rebuild"
    );
    let status = session.status();
    assert_eq!(status.leak, 0.0, "{step}: non-zero leak reported");
    assert_eq!(
        status.tenants as usize,
        snapshot.tenants.len(),
        "{step}: tenant count out of sync"
    );
}

/// Drives a random arrival/departure sequence through a [`Session`],
/// checking the rebuild invariant after every single mutation, then tears
/// everything down and demands pristine residuals bit-for-bit.
fn reconciliation_check(hosts: usize, topo: usize, seed: u64) {
    let phys = build_phys(hosts, topo);
    let pristine = ResidualState::new(&phys);
    let mapper = Hmn::new();
    let mut session = Session::new(phys, seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut active: Vec<String> = Vec::new();
    let mut next_id = 0u64;
    let mut admitted = 0u64;

    for i in 0..OPS {
        let arrive = active.is_empty() || rng.gen_bool(0.6);
        if arrive {
            let id = format!("t{next_id}");
            next_id += 1;
            let spec = VirtualEnvSpec {
                guests: rng.gen_range(1..10),
                density: rng.gen_range(0.0..0.4),
                mem_mb: Range::new(64.0, 256.0),
                stor_gb: Range::new(10.0, 50.0),
                cpu_mips: Range::new(20.0, 100.0),
                bw_kbps: Range::new(50.0, 500.0),
                lat_ms: Range::new(20.0, 80.0),
                distribution: Distribution::Uniform,
            };
            let venv = spec.generate(&mut SmallRng::seed_from_u64(rng.gen::<u64>()));
            match session.apply(&id, venv, &mapper) {
                ApplyOutcome::Admitted(_) => {
                    admitted += 1;
                    active.push(id);
                }
                ApplyOutcome::Rejected { .. } => {}
            }
            assert_reconciled(&mut session, &format!("op {i} (apply)"));
        } else {
            let idx = rng.gen_range(0..active.len());
            let id = active.swap_remove(idx);
            session.remove(&id).expect("active tenants can be removed");
            assert_reconciled(&mut session, &format!("op {i} (remove)"));
        }
        // Counter bookkeeping must agree with the driver's view at every
        // step: admissions minus departures is exactly the active set.
        let c = session.counters();
        assert_eq!(c.admitted, admitted, "op {i}: admitted counter");
        assert_eq!(
            c.admitted - c.removed,
            active.len() as u64,
            "op {i}: active_tenants out of sync with the driver"
        );
        assert_eq!(c.active_tenants, active.len() as u64);
    }

    // Removing a tenant that does not exist must fail cleanly and leave
    // the residuals untouched.
    let before = session.residual().clone();
    assert!(matches!(
        session.remove("no-such-tenant"),
        Err(ServeError::UnknownTenant { .. })
    ));
    assert_eq!(session.residual(), &before);

    // A session restored from the snapshot lands on identical residuals.
    let snapshot = session.snapshot();
    let mut restored = Session::new(session.phys().clone(), seed);
    restored.restore(snapshot).expect("snapshot restores");
    assert_eq!(restored.residual(), session.residual());

    // Full teardown: pristine, bit-for-bit.
    for id in active.drain(..) {
        session.remove(&id).expect("teardown");
    }
    assert_eq!(
        session.residual(),
        &pristine,
        "full teardown must restore pristine residuals"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn residuals_always_equal_a_fresh_rebuild((hosts, topo, seed) in arb_instance()) {
        reconciliation_check(hosts, topo, seed);
    }
}

/// Replays every seed pinned in
/// `proptest-regressions/serve_reconciliation.txt` (same manual
/// persistence discipline as the other property suites: the vendored
/// proptest shim has no automatic regression file, so this test is the
/// regression memory).
#[test]
fn regression_seeds_replay() {
    let pinned = include_str!("../proptest-regressions/serve_reconciliation.txt");
    for (name, mut rng) in pinned::pinned_cases(pinned) {
        match name {
            "residuals_always_equal_a_fresh_rebuild" => {
                let (hosts, topo, s) = arb_instance().generate(&mut rng);
                reconciliation_check(hosts, topo, s);
            }
            other => panic!("regression file pins unknown test '{other}'"),
        }
    }
}
