//! The §6 alternative objective: "one could be interested in a mapping
//! whose goal is to minimize the amount of hosts used in each emulation."
//!
//! Compares plain HMN (balance CPU across all hosts) with the
//! consolidating variant (pack guests onto as few hosts as possible) on
//! the same instance, and quantifies the trade-off: fewer hosts <-> worse
//! balance <-> longer experiment.
//!
//! ```sh
//! cargo run --release --example consolidation
//! ```

use emumap::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(17);
    let cluster = ClusterSpec::paper();
    let phys = cluster.build(ClusterSpec::paper_torus(), &mut rng);

    // A light workload (1.5:1): plenty of room to either spread or pack.
    let venv = VirtualEnvSpec::high_level(60, 0.03).generate(&mut rng);
    println!(
        "instance: {} guests / {} links on {} hosts\n",
        venv.guest_count(),
        venv.link_count(),
        phys.host_count()
    );

    let balanced = Hmn::new()
        .map(&phys, &venv, &mut rng)
        .expect("light workload maps");
    let packed = ConsolidatingHmn
        .map(&phys, &venv, &mut rng)
        .expect("light workload maps");

    for (label, out) in [("HMN (balance)", &balanced), ("HMN-consolidate", &packed)] {
        validate_mapping(&phys, &venv, &out.mapping).expect("invalid mapping");
        let sim = run_experiment(&phys, &venv, &out.mapping, &ExperimentSpec::default());
        println!("{label}:");
        println!("  hosts used         : {}", out.mapping.hosts_used());
        println!("  objective (Eq. 10) : {:.1} MIPS stddev", out.objective);
        println!(
            "  links intra-host   : {} of {}",
            out.mapping.intra_host_link_count(),
            venv.link_count()
        );
        println!("  experiment runtime : {:.2}s\n", sim.total_s);
    }

    assert!(
        packed.mapping.hosts_used() <= balanced.mapping.hosts_used(),
        "consolidation must not use more hosts"
    );
    println!(
        "consolidation keeps {} of {} hosts completely free for other testers \
         (plain HMN leaves {}), at the cost of {:.1}x the balance objective",
        phys.host_count() - packed.mapping.hosts_used(),
        phys.host_count(),
        phys.host_count() - balanced.mapping.hosts_used(),
        if balanced.objective > 0.0 {
            packed.objective / balanced.objective
        } else {
            f64::INFINITY
        }
    );
}
