//! The emumap benchmark: end-to-end metrics of the HMN pipeline, the serve
//! session and the exact oracle, plus a traced run that splits the time
//! across layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|fattree-map|serve-churn|oracle-smoke|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Everything runs in one process on one thread (the oracle keeps
//! `threads: 0`). Inputs are generated from `--seed` alone; the library
//! only ever sees the generated inputs. A run sets up first, then repeats
//! *passes* over a fixed set of operations until `--seconds` have elapsed
//! (at least one pass). Every pass over the same inputs must produce the
//! same output digest. A pass on a 2-vCPU shared host takes 8 to 11 s
//! of wall-clock for `paper-grid`, 4 to 7 s for `fattree-map` and
//! `serve-churn` and 0.8 to 1.3 s for `oracle-smoke`; see `BASELINE.md`
//! for the first numbers.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` prints the
//! per-layer metrics, read from what the library already reports: the
//! `MapStats` every HMN map returns, the events a serve session emits
//! through `cache_mut().trace`, and the `ExactStats` every solve returns.
//! Figures the library does not report (the Dijkstra share, residual
//! resyncs) come from timing calls into its public functions from this
//! crate. The program gains no tracing of its own. For `serve-churn` and
//! `oracle-smoke`, untraced passes alternate with traced ones and
//! `tracing.overhead_s` is the traced pass wall-clock minus the untraced
//! one. For the two HMN workloads every pass is read for its stats after
//! its timed maps, so their overhead is 0 by construction.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `attempted` counts maps, admissions or solves attempted; `failed`
//! counts outputs that failed a check. A rejected admission or a failed
//! map is a correct answer and shows in `success_rate` instead.
//!
//! # Workloads, and why each exists
//!
//! * `paper-grid`: HMN with the paper's configuration on the 16 Table-1
//!   scenarios, six draws each, on both 40-host clusters
//!   (`instantiate_both`), one warm `MapCache` as `batch` keeps. A*Prune
//!   does nearly all of the work here (about 99% of map time, 87
//!   expansions per routed link); Dijkstra tables and host scans are
//!   negligible on 40-host graphs. An A*Prune change shows here, a
//!   Dijkstra or Hosting change does not.
//! * `fattree-map`: one cold HMN map (`prune_dominated: true`) of a
//!   2000-guest Table-1 low-level environment onto `fat_tree(36)`
//!   (11 664 hosts). The same Networking stage used differently: 2000
//!   cold Dijkstra `ar[]` builds are about half of Networking, Migration
//!   scans 11 664 hosts (about 7% of the map), and the `ar[]` tables set
//!   the ~210 MiB peak heap. Every `emumap map` user pays this cold
//!   cache.
//! * `serve-churn`: one closed-loop client against four `Session`s, each
//!   on its own saturated `fat_tree(16)` of Table-1 hosts, replaying
//!   seeded high-level tenant arrivals, departures and a `status` read
//!   every 50 requests, the cadence of the repository's pinned serve
//!   trace (see `serve.rs`). Writes
//!   beside reads: `apply` rebuilds the derived topology, embeds on a
//!   warm cache and resyncs the residuals; `remove` resyncs; `status`
//!   rebuilds the residuals. Saturation keeps latency stationary and
//!   exercises the rejection path.
//! * `oracle-smoke`: `solve_exact_with` with the default `ExactConfig` on
//!   the memory-tight 6-host ring family and `oracle_smoke`, at one fixed
//!   node budget. The only workload that reaches `exact.rs` and
//!   `lagrangian.rs`.
//!
//! # End-to-end metrics (every workload prints all of them)
//!
//! `setup_s` is the median of the set-ups of the clusters
//! (`PhysicalTopology::from_shape`, plus `Session::new` for
//! `serve-churn`) timed five at a time after every pass. `wall_s` is the
//! median over passes of the summed time of the timed work: the maps, the
//! solves, or every serve request (`apply`, `remove` and `status`).
//! `ops_per_s` counts maps produced, tenants admitted, or solves
//! finished, per timed second. A latency quantile is the quantile of
//! the timed operations of all passes, pooled, interpolated between the
//! two nearest ranks; medians are interpolated the same way. An operation
//! is one grid repetition (32 maps, as `batch --reps 1`) for
//! `paper-grid`, one map for `fattree-map`, one `apply` (rejections
//! included) for `serve-churn`, one solve for `oracle-smoke`. Each run
//! prints its sample count as `timed_ops`. A tail is reported only where
//! at least ten samples lie beyond it; otherwise it is lowered to the
//! highest quantile that has ten beyond it, and never below the median.
//! A 20 s run pools thousands of `serve-churn` applies and
//! `oracle-smoke` solves, so every tail there is what it says. It pools
//! six to eighteen `paper-grid` repetitions and three to six
//! `fattree-map` maps, so p90 and p99 there equal p50. `success_rate` is
//! maps produced, tenants admitted, or solves certified Optimal or
//! Infeasible within the node budget, over attempts. `objective_mean` is
//! the mean Eq. 10 objective of successful operations. `peak_heap_mb` is
//! the median over passes of the live-heap high-water mark during a
//! pass.
//!
//! # Host-speed calibration
//!
//! Every time above (`setup_s`, `wall_s`, `ops_per_s`, the latencies) is
//! wall-clock scaled to a reference host speed, because the speed of a
//! shared host drifts by a third or more in spells of seconds to minutes,
//! more than any bound a comparison could use. A fixed kernel that is part
//! of this crate (`measure.rs`) is timed before and after every timed
//! piece of work, and at least every 250 ms between pieces; a piece's
//! wall-clock is divided by the kernel's mean time across the two and
//! multiplied by the kernel's 1 ms on the reference host. The kernel never
//! changes with the program, so a program that gets slower reads slower
//! by the same share. Each run also prints the uncalibrated median pass
//! time (`raw_wall_s`), its number of calibrations and their median kernel
//! time. The traced run reports uncalibrated times, as the library
//! measures them.
//!
//! # Which layer metric should move which end-to-end metric
//!
//! | layer metrics | should move | on | not on |
//! |---|---|---|---|
//! | `hosting.*` | `wall_s`, `objective_mean` | fattree-map | paper-grid time |
//! | `migration.*` | `wall_s`, `objective_mean` | fattree-map (time), all (objective) | paper-grid time |
//! | `networking.*`, `astar_prune.*` | `latency_p50_ms`, `latency_p90_ms`, `wall_s`; serve `latency_p99_ms`, `success_rate` | paper-grid, fattree-map, serve-churn | oracle-smoke |
//! | `cache.*` | `wall_s`, `setup_s`, `peak_heap_mb` | fattree-map | paper-grid, serve-churn |
//! | `serve.*` | `latency_p99_ms`, `ops_per_s` | serve-churn | the rest |
//! | `exact.*`, `lagrangian.*` | `wall_s`, `latency_p50_ms`, `success_rate` | oracle-smoke | the rest |
//!
//! `cache.dijkstra_s` and `cache.prepare_s` time a cold `ArTables` building
//! the tables the routed links needed; `astar_prune.time_s` is
//! `networking.time_s` minus `cache.dijkstra_s`.

mod hmn;
mod measure;
mod oracle;
mod serve;

use emumap_core::MapCache;
use measure::{Metric, Run};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["paper-grid", "fattree-map", "serve-churn", "oracle-smoke"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Calls `pass` once, then again until `budget` has elapsed.
fn repeat_for(budget: Duration, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Set-up, then passes until `seconds` have elapsed.
fn run_workload(name: &str, seed: u64, seconds: u64, trace: bool) -> Run {
    let mut run = Run::default();
    let budget = Duration::from_secs(seconds);
    match name {
        "paper-grid" | "fattree-map" => {
            let w = if name == "paper-grid" {
                hmn::paper_grid(seed)
            } else {
                hmn::fattree_map(seed)
            };
            let mut cache = MapCache::new();
            repeat_for(budget, || {
                w.pass(&mut run, &mut cache, trace);
                w.setup(&mut run);
            });
        }
        "serve-churn" => {
            let mut w = serve::serve_churn(seed);
            repeat_for(budget, || {
                w.pass(&mut run, false);
                if trace {
                    w.pass(&mut run, true);
                }
                w.setup(&mut run);
            });
        }
        "oracle-smoke" => {
            let w = oracle::oracle(seed);
            let mut cache = MapCache::new();
            repeat_for(budget, || {
                w.pass(&mut run, &mut cache, false);
                if trace {
                    w.pass(&mut run, &mut cache, true);
                }
                w.setup(&mut run);
            });
        }
        _ => unreachable!("workload names are checked when parsing"),
    }
    run
}

fn json_metrics(metrics: &[Metric], prefix: &str) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a run is already marked
            // incorrect.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{prefix}{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench seed={} seconds={} trace={} host_cores={host_cores} rustc=\"{}\"",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
    );
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut all_metrics = Vec::new();
    for name in &names {
        let run = run_workload(name, args.seed, args.seconds, args.trace);
        let metrics = if args.trace {
            run.layers.metrics(&run.raw_pass_s)
        } else {
            run.end_to_end()
        };
        let digest = run.digest.map_or(0, |d| d.value());
        let (calibrations, kernel_ms) = run.calibrations();
        println!(
            "{name}: passes={} timed_ops={} traced_passes={} calibrations={calibrations} \
             kernel_ms_median={kernel_ms:.4} raw_wall_s={:.6} digest={digest:016x}",
            run.passes(),
            run.timed_ops(),
            run.layers.passes,
            run.raw_wall_s(),
        );
        for m in &metrics {
            println!("{name}: {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let finite = metrics.iter().all(|m| m.value.is_finite());
        correct &= run.failed == 0 && finite && run.digest.is_some();
        attempted += run.attempted;
        failed += run.failed;
        let prefix = if names.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        all_metrics.extend(json_metrics(&metrics, &prefix));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        all_metrics.join(", ")
    );
    ExitCode::SUCCESS
}
