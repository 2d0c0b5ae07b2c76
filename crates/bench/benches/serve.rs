//! Churn benchmark for the `emumap serve` session engine: a seeded
//! arrival/departure trace replayed against a 1024-host fat-tree,
//! measuring sustained admissions per second and the p99 single-embed
//! latency with one warm `MapCache` across the whole stream.
//!
//! Writes `results/BENCH_serve.json`. CI's bench-smoke job runs it in
//! quick mode (`EMUMAP_BENCH_QUICK=1` — same topology, shorter trace)
//! and gates a minimum admissions/s floor plus zero leaked capacity at
//! the end of the stream.

use emumap_core::serve::{ApplyOutcome, Session};
use emumap_core::{Hmn, HmnConfig};
use emumap_graph::generators;
use emumap_model::{
    HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, ResidualState, StorGb,
    VmmOverhead,
};
use emumap_workloads::VirtualEnvSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ServeReport {
    quick: bool,
    hosts: usize,
    switches: usize,
    /// Requests replayed (applies + removes).
    events: usize,
    admitted: u64,
    rejected: u64,
    removed: u64,
    active_at_end: u64,
    guests_at_end: u64,
    /// Admissions sustained per wall-clock second over the whole replay.
    admissions_per_s: f64,
    /// Median single-`apply` latency, milliseconds.
    p50_embed_ms: f64,
    /// 99th-percentile single-`apply` latency, milliseconds.
    p99_embed_ms: f64,
    wall_s: f64,
    /// Largest residual-capacity gap vs. a from-scratch rebuild of the
    /// surviving tenants — must be exactly zero.
    leak: f64,
}

fn build_phys() -> PhysicalTopology {
    // fat_tree(16): 16^3/4 = 1024 hosts + 320 switches — the ISSUE's
    // 1k-host cluster. 5 ms per hop keeps the 6-hop worst case inside
    // the Table 1 latency floor (30 ms).
    PhysicalTopology::from_shape(
        &generators::fat_tree(16),
        std::iter::repeat(HostSpec::new(
            Mips(8000.0),
            MemMb::from_gb(8),
            StorGb(4000.0),
        )),
        LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
        VmmOverhead::NONE,
    )
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let quick = std::env::var("EMUMAP_BENCH_QUICK").is_ok();
    let t_build = Instant::now();
    let phys = build_phys();
    let fresh = ResidualState::new(&phys);
    eprintln!(
        "[serve] cluster: {} hosts, {} switches (built in {:.2}s)",
        phys.host_count(),
        phys.graph().node_count() - phys.host_count(),
        t_build.elapsed().as_secs_f64(),
    );

    // Fat-trees have enormous equal-cost path multiplicity: with every
    // link at 1 Gbps the bottleneck metric gives A*Prune no guidance and
    // its frontier grows exponentially, so the links route with the exact
    // per-level router instead (same as the scale bench).
    let mapper = Hmn::with_config(HmnConfig {
        prune_dominated: true,
        ..HmnConfig::default()
    });

    let events = if quick { 120 } else { 500 };
    let mut session = Session::new(phys, 2009);
    // The arrival/departure stream: ~70% arrivals, departures picked
    // uniformly from the active set. At this trace length the 1k-host
    // cluster absorbs every arrival (rejections are exercised by the
    // unit tests and the CI soak on a small cluster); the point here is
    // sustained admission throughput under churn. Everything is driven
    // by one seeded RNG, so the stream — and every response to it — is
    // reproducible.
    let mut stream_rng = SmallRng::seed_from_u64(42);
    let mut active: Vec<String> = Vec::new();
    let mut next_tenant = 0u64;
    let mut embed_ms: Vec<f64> = Vec::new();
    let mut reject_reasons: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let t_replay = Instant::now();
    for _ in 0..events {
        let arrive = active.is_empty() || stream_rng.gen_bool(0.7);
        if arrive {
            let id = format!("tenant-{next_tenant}");
            next_tenant += 1;
            let guests = stream_rng.gen_range(8..=24);
            let venv_seed = stream_rng.gen::<u64>();
            let venv = VirtualEnvSpec::high_level(guests, 0.08)
                .generate(&mut SmallRng::seed_from_u64(venv_seed));
            let t = Instant::now();
            let outcome = session.apply(&id, venv, &mapper);
            embed_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match outcome {
                ApplyOutcome::Admitted(_) => active.push(id),
                ApplyOutcome::Rejected { reason } => {
                    *reject_reasons.entry(reason).or_insert(0) += 1;
                }
            }
        } else {
            let idx = stream_rng.gen_range(0..active.len());
            let id = active.swap_remove(idx);
            session.remove(&id).expect("active tenants can be removed");
        }
    }
    let wall_s = t_replay.elapsed().as_secs_f64();
    for (reason, count) in &reject_reasons {
        eprintln!("[serve] rejected x{count}: {reason}");
    }

    let counters = session.counters();
    let leak = {
        let status = session.status();
        status.leak
    };
    // Tear everything down: the residuals must reconcile to pristine.
    for id in active.drain(..) {
        session.remove(&id).expect("teardown");
    }
    assert_eq!(
        session.residual(),
        &fresh,
        "full teardown must restore pristine residuals bit-for-bit"
    );

    embed_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let report = ServeReport {
        quick,
        hosts: session.phys().host_count(),
        switches: session.phys().graph().node_count() - session.phys().host_count(),
        events,
        admitted: counters.admitted,
        rejected: counters.rejected,
        removed: counters.removed,
        active_at_end: counters.active_tenants,
        guests_at_end: counters.placed_guests,
        admissions_per_s: counters.admitted as f64 / wall_s.max(1e-9),
        p50_embed_ms: percentile(&embed_ms, 0.50),
        p99_embed_ms: percentile(&embed_ms, 0.99),
        wall_s,
        leak,
    };
    eprintln!(
        "[serve] {} events in {:.2}s: {} admitted ({:.1}/s), {} rejected, {} removed, p50 {:.1} ms, p99 {:.1} ms, leak {}",
        report.events,
        report.wall_s,
        report.admitted,
        report.admissions_per_s,
        report.rejected,
        report.removed,
        report.p50_embed_ms,
        report.p99_embed_ms,
        report.leak,
    );

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_serve.json", json).expect("write results/BENCH_serve.json");
    eprintln!("[serve] report -> results/BENCH_serve.json");
}
