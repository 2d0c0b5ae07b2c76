//! Datacenter-scale end-to-end benchmark: a 2000-guest low-level
//! workload (Table 1's P2P column) mapped onto a ~10k-host fat-tree,
//! annealed by plain SA and by the parallel-tempering ladder at an
//! **equal total proposal budget**.
//!
//! This is the gate for the SoA/CSR hot-path work: candidate filtering,
//! Dijkstra tables and routing all run over dense columns and the shared
//! CSR snapshot, so the whole pipeline has to stay tractable at three
//! orders of magnitude above the paper's 40-host testbed.
//!
//! Writes `results/BENCH_scale.json` with per-mapper wall-clock,
//! objective, proposals-per-second and allocation counters (peak live
//! bytes as a portable RSS proxy). CI's bench-smoke job runs it in quick
//! mode (`EMUMAP_BENCH_QUICK=1` — same topology, reduced proposal budget
//! and a thinner virtual environment) and asserts a wall-clock budget
//! plus `pt.objective <= sa.objective`.

use emumap_core::{
    AStarPruneConfig, Annealing, AnnealingConfig, MapCache, Mapper, ParallelTempering,
    TemperingConfig,
};
use emumap_graph::generators;
use emumap_model::{
    HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb, VirtualEnvironment,
    VmmOverhead,
};
use emumap_workloads::VirtualEnvSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Wrapper around the system allocator counting live and cumulative
/// bytes. `peak_live` is a portable peak-RSS proxy: it tracks the
/// high-water mark of heap bytes actually held, which is what a resident
/// set would grow to (modulo allocator slack), without any /proc parsing.
struct CountingAlloc {
    live: AtomicUsize,
    peak_live: AtomicUsize,
    total: AtomicU64,
}

impl CountingAlloc {
    const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak_live: AtomicUsize::new(0),
            total: AtomicU64::new(0),
        }
    }

    fn on_alloc(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
        self.total.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            live: self.live.load(Ordering::Relaxed),
            peak_live: self.peak_live.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
        }
    }
}

#[derive(Clone, Copy)]
struct AllocSnapshot {
    live: usize,
    peak_live: usize,
    total: u64,
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.live.fetch_sub(layout.size(), Ordering::Relaxed);
            self.on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// One mapper's end-to-end measurement.
#[derive(Serialize)]
struct ScaleEntry {
    name: String,
    wall_s: f64,
    objective: f64,
    proposals_evaluated: usize,
    proposals_per_s: f64,
    replica_exchanges: usize,
    exchange_accepts: usize,
    routed_links: usize,
    intra_host_links: usize,
    /// Heap high-water mark during this mapper's run, in bytes (the
    /// peak-RSS proxy).
    peak_live_bytes: usize,
    /// Bytes allocated in total during this mapper's run.
    allocated_bytes: u64,
}

#[derive(Serialize)]
struct ScaleReport {
    quick: bool,
    hosts: usize,
    switches: usize,
    guests: usize,
    virtual_links: usize,
    proposal_budget: usize,
    build_s: f64,
    entries: Vec<ScaleEntry>,
}

fn build_instance(quick: bool) -> (PhysicalTopology, VirtualEnvironment) {
    // fat_tree(36): 36^3/4 = 11664 hosts + 1944 switches. Quick mode
    // keeps the full topology — the SoA/CSR structures must be exercised
    // at datacenter scale either way — and thins only the search work.
    let shape = generators::fat_tree(36);
    let phys = PhysicalTopology::from_shape(
        &shape,
        std::iter::repeat(HostSpec::new(
            Mips(8000.0),
            MemMb::from_gb(8),
            StorGb(4000.0),
        )),
        // 5 ms per hop keeps the 6-hop worst case inside Table 1's 30 ms
        // latency floor.
        LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
        VmmOverhead::NONE,
    );
    let guests = if quick { 500 } else { 2000 };
    let density = if quick { 0.004 } else { 0.002 };
    let venv = VirtualEnvSpec::low_level(guests, density).generate(&mut SmallRng::seed_from_u64(7));
    (phys, venv)
}

fn measure(
    name: &str,
    mapper: &dyn Mapper,
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
) -> ScaleEntry {
    let before = ALLOC.snapshot();
    // Reset the high-water mark to the current live level so the peak is
    // attributable to this run alone.
    ALLOC.peak_live.store(before.live, Ordering::Relaxed);
    let mut cache = MapCache::new();
    let mut rng = SmallRng::seed_from_u64(2009);
    let t = Instant::now();
    let out = mapper
        .map_with_cache(phys, venv, &mut rng, &mut cache)
        .unwrap_or_else(|e| panic!("{name} failed at scale: {e}"));
    let wall_s = t.elapsed().as_secs_f64();
    let after = ALLOC.snapshot();
    ScaleEntry {
        name: name.to_string(),
        wall_s,
        objective: out.objective,
        proposals_evaluated: out.stats.proposals_evaluated,
        proposals_per_s: out.stats.proposals_evaluated as f64 / wall_s.max(1e-9),
        replica_exchanges: out.stats.replica_exchanges,
        exchange_accepts: out.stats.exchange_accepts,
        routed_links: out.stats.routed_links,
        intra_host_links: out.stats.intra_host_links,
        peak_live_bytes: after.peak_live,
        allocated_bytes: after.total - before.total,
    }
}

fn main() {
    let quick = std::env::var("EMUMAP_BENCH_QUICK").is_ok();
    let t_build = Instant::now();
    let (phys, venv) = build_instance(quick);
    let build_s = t_build.elapsed().as_secs_f64();
    eprintln!(
        "[scale] instance: {} hosts, {} switches, {} guests, {} vlinks (built in {build_s:.2}s)",
        phys.host_count(),
        phys.graph().node_count() - phys.host_count(),
        venv.guest_count(),
        venv.link_count(),
    );

    // Equal total proposal budgets: SA burns the whole budget in one
    // chain; PT spreads it over a 4-rung ladder.
    let budget = if quick { 40_000 } else { 800_000 };
    // Fat-trees have enormous loop-free path multiplicity inside the
    // latency bound; A*Prune's exhaustive widest-path search is
    // intractable there, so the routing pass runs the exact per-level
    // router, which keeps one label per node at each bandwidth level.
    let astar = AStarPruneConfig {
        prune_dominated: true,
        ..Default::default()
    };
    let sa = Annealing {
        config: AnnealingConfig {
            iterations: budget,
            astar,
            ..Default::default()
        },
    };
    let rounds = if quick { 50 } else { 200 };
    let pt = ParallelTempering {
        config: TemperingConfig {
            replicas: 4,
            rounds,
            iterations_per_round: budget / (4 * rounds),
            // Cold exploit rung (SA's geometric schedule ends near-greedy)
            // plus genuinely hot rungs that can cross the bandwidth-penalty
            // barriers separating colocation basins.
            min_temperature_factor: 0.0005,
            max_temperature_factor: 0.5,
            astar,
            ..Default::default()
        },
    };
    assert_eq!(pt.config.total_proposals(), budget, "budgets must match");

    let entries = vec![
        measure("sa", &sa, &phys, &venv),
        measure("pt", &pt, &phys, &venv),
    ];
    for e in &entries {
        eprintln!(
            "[scale] {}: {:.2}s wall, objective {:.3}, {:.0} proposals/s, peak {:.1} MiB heap",
            e.name,
            e.wall_s,
            e.objective,
            e.proposals_per_s,
            e.peak_live_bytes as f64 / (1024.0 * 1024.0),
        );
    }

    let report = ScaleReport {
        quick,
        hosts: phys.host_count(),
        switches: phys.graph().node_count() - phys.host_count(),
        guests: venv.guest_count(),
        virtual_links: venv.link_count(),
        proposal_budget: budget,
        build_s,
        entries,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_scale.json", json).expect("write results/BENCH_scale.json");
    eprintln!("[scale] report -> results/BENCH_scale.json");
}
