//! Objective functions.
//!
//! The paper's primary objective (Eq. 10) minimizes the population standard
//! deviation of residual CPU across hosts — load balance that is robust to
//! heterogeneous processing power. The future-work section (§6) sketches a
//! consolidation objective (minimize hosts used), which
//! [`Mapping::hosts_used`] counts.

use crate::mapping::Mapping;
use crate::physical::PhysicalTopology;
use crate::residual::ResidualState;
use crate::virtualenv::VirtualEnvironment;

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation (`√(Σ(x−x̄)²/n)`, the exact form of
/// Eq. 10). Returns 0 for an empty slice.
pub fn population_stddev(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|&x| (x - m).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// The load-balance factor of a residual state: Eq. 10 evaluated on the
/// per-host residual CPU (Eqs. 11–12). Lower is better; 0 means perfectly
/// balanced residuals.
pub fn load_balance_factor(phys: &PhysicalTopology, residual: &ResidualState) -> f64 {
    population_stddev(&residual.host_proc_residuals(phys))
}

/// Eq. 10 evaluated on a finished [`Mapping`]: rebuilds the residual CPU of
/// each host from the placement (`rproc(c_i) = proc(c_i) − Σ vproc(g)`,
/// Eq. 11) and returns the population standard deviation.
pub fn mapping_objective(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    mapping: &Mapping,
) -> f64 {
    let mut rproc: Vec<f64> = phys
        .hosts()
        .iter()
        .map(|&h| phys.effective_proc(h).value())
        .collect();
    // Host node-id -> dense host index.
    let mut host_index = vec![usize::MAX; phys.graph().node_count()];
    for (i, &h) in phys.hosts().iter().enumerate() {
        host_index[h.index()] = i;
    }
    for g in venv.guest_ids() {
        let host = mapping.host_of(g);
        let idx = host_index[host.index()];
        assert!(
            idx != usize::MAX,
            "guest {g} mapped to non-host node {host}"
        );
        rproc[idx] -= venv.guest(g).proc.value();
    }
    population_stddev(&rproc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{HostSpec, LinkSpec, VmmOverhead};
    use crate::resources::{Kbps, MemMb, Millis, Mips, StorGb};
    use crate::virtualenv::GuestSpec;
    use emumap_graph::generators;

    #[test]
    fn mean_and_stddev_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(population_stddev(&[]), 0.0);
        assert_eq!(population_stddev(&[5.0, 5.0, 5.0]), 0.0);
        // Population (not sample) stddev: √(((2-3)²+(4-3)²)/2) = 1.
        assert_eq!(population_stddev(&[2.0, 4.0]), 1.0);
    }

    #[test]
    fn stddev_handles_negative_residuals() {
        // CPU residuals may be negative; the objective must still be
        // well-defined.
        let v = [-100.0, 100.0];
        assert_eq!(population_stddev(&v), 100.0);
    }

    fn tiny_setup() -> (PhysicalTopology, VirtualEnvironment) {
        let phys = PhysicalTopology::from_shape(
            &generators::line(2),
            [
                HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0)),
                HostSpec::new(Mips(2000.0), MemMb(1024), StorGb(100.0)),
            ]
            .into_iter(),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        venv.add_guest(GuestSpec::new(Mips(500.0), MemMb(128), StorGb(10.0)));
        venv.add_guest(GuestSpec::new(Mips(500.0), MemMb(128), StorGb(10.0)));
        (phys, venv)
    }

    #[test]
    fn mapping_objective_rewards_balancing_heterogeneous_hosts() {
        let (phys, venv) = tiny_setup();
        let h = phys.hosts();
        // Both guests on the big host: residuals (1000, 1000) -> stddev 0.
        let balanced = Mapping::new(vec![h[1], h[1]], vec![]);
        assert_eq!(mapping_objective(&phys, &venv, &balanced), 0.0);
        // One each: residuals (500, 1500) -> stddev 500.
        let split = Mapping::new(vec![h[0], h[1]], vec![]);
        assert_eq!(mapping_objective(&phys, &venv, &split), 500.0);
        // Both on the small host: residuals (0, 2000) -> stddev 1000.
        let worst = Mapping::new(vec![h[0], h[0]], vec![]);
        assert_eq!(mapping_objective(&phys, &venv, &worst), 1000.0);
    }

    #[test]
    fn residual_and_mapping_objectives_agree() {
        let (phys, venv) = tiny_setup();
        let h = phys.hosts();
        let mut residual = crate::ResidualState::new(&phys);
        residual
            .place(&phys, venv.guest(emumap_graph::NodeId::from_index(0)), h[0])
            .unwrap();
        residual
            .place(&phys, venv.guest(emumap_graph::NodeId::from_index(1)), h[1])
            .unwrap();
        let via_residual = load_balance_factor(&phys, &residual);
        let via_mapping = mapping_objective(&phys, &venv, &Mapping::new(vec![h[0], h[1]], vec![]));
        assert!((via_residual - via_mapping).abs() < 1e-12);
    }
}
