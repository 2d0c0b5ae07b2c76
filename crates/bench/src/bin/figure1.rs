//! Regenerates **Figure 1**: HMN mapping time as a function of the number
//! of virtual links actually routed, on the torus cluster — mean and
//! standard deviation per bucket.
//!
//! The paper sweeps the low-level workload (800–2000 guests, density
//! 0.01); links whose guests share a host are never routed, which is the
//! main source of the per-bucket variance §5.2 discusses.
//!
//! ```sh
//! cargo run --release -p emumap-bench --bin figure1 -- --reps 30
//! ```

use emumap_bench::cli::parse_args;
use emumap_bench::runner::{run_one, MapperKind};
use emumap_bench::stats::{mean, sample_stddev};
use emumap_core::parallel::ParallelRunner;
use emumap_workloads::{instantiate, ClusterSpec, Scenario, WorkloadKind};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    guests: usize,
    total_links: usize,
    routed_links: usize,
    map_time_s: f64,
    networking_time_s: f64,
}

fn main() {
    let args = parse_args(
        "figure1",
        "HMN mapping time vs. routed virtual links, torus cluster (paper Figure 1)",
    );
    let cluster = ClusterSpec::paper();

    // The low-level sweep: 20:1 .. 50:1 at density 0.01, as in the paper's
    // largest runs, plus intermediate ratios for a smoother curve.
    let ratios = [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0];

    // Every (ratio, rep) trial is a pure function of its seeds, so the
    // sweep fans out over the worker pool; results come back in input
    // order, keeping the bucket series identical to a sequential run.
    let runner = ParallelRunner::new(args.config.threads);
    eprintln!(
        "sweeping {} ratios x {} reps on the torus cluster ({} threads)...",
        ratios.len(),
        args.config.reps,
        runner.threads()
    );
    let mut trials: Vec<(f64, u32)> = Vec::new();
    for &ratio in &ratios {
        for rep in 0..args.config.reps {
            trials.push((ratio, rep));
        }
    }
    let points: Vec<Point> = runner
        .run(trials, |(ratio, rep), cache| {
            let scenario = Scenario {
                ratio,
                density: 0.01,
                workload: WorkloadKind::LowLevel,
            };
            let inst = instantiate(
                &cluster,
                ClusterSpec::paper_torus(),
                &scenario,
                rep,
                args.config.seed,
            );
            let Some(m) = run_one(
                &inst.phys,
                &inst.venv,
                MapperKind::HMN,
                inst.mapper_seed,
                args.config.max_attempts,
                false,
                cache,
            ) else {
                eprintln!("  {ratio}:1 rep {rep}: HMN failed (skipped)");
                return None;
            };
            Some(Point {
                guests: inst.venv.guest_count(),
                total_links: inst.venv.link_count(),
                routed_links: m.routed_links,
                map_time_s: m.map_time_s,
                networking_time_s: m.networking_time_s,
            })
        })
        .into_iter()
        .flatten()
        .collect();

    // Bucket by routed links (1000-link buckets) and print mean +/- stddev,
    // the series Figure 1 plots.
    println!("### Figure 1 — HMN execution time vs. virtual links routed (torus cluster)");
    println!(
        "{:>16} {:>8} {:>14} {:>14} {:>14}",
        "routed links", "n", "mean time (s)", "stddev (s)", "mean netw (s)"
    );
    let bucket = |p: &Point| p.routed_links / 1000;
    let mut buckets: Vec<usize> = points.iter().map(bucket).collect();
    buckets.sort_unstable();
    buckets.dedup();
    for b in buckets {
        let in_bucket: Vec<&Point> = points.iter().filter(|p| bucket(p) == b).collect();
        let times: Vec<f64> = in_bucket.iter().map(|p| p.map_time_s).collect();
        let netw: Vec<f64> = in_bucket.iter().map(|p| p.networking_time_s).collect();
        println!(
            "{:>10}-{:<5} {:>8} {:>14.4} {:>14.4} {:>14.4}",
            b * 1000,
            (b + 1) * 1000 - 1,
            in_bucket.len(),
            mean(&times),
            sample_stddev(&times),
            mean(&netw),
        );
    }

    // §5.2's headline point: the largest instance.
    if let Some(max) = points.iter().max_by_key(|p| p.routed_links) {
        println!(
            "\nlargest instance: {} guests, {} links ({} routed) mapped in {:.3}s \
             ({:.3}s in Networking — the paper saw the same stage dominate)",
            max.guests, max.total_links, max.routed_links, max.map_time_s, max.networking_time_s
        );
    }

    std::fs::create_dir_all("results").expect("create results dir");
    let json = serde_json::to_string_pretty(&points).expect("serialize");
    std::fs::write("results/figure1.json", json).expect("write results/figure1.json");
    eprintln!("raw points -> results/figure1.json");
}
