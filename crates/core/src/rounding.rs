//! The **randomized-rounding LP mapper** (`--mapper rr`).
//!
//! Rost & Schmid ("Virtual Network Embedding Approximations: Leveraging
//! Randomized Rounding") show the VNEP admits LP-relaxation +
//! randomized-rounding algorithms with provable quality. This module
//! adapts that recipe to the paper's Eq. 1–9 constraint system as a
//! third point in the quality/speed space between [`Hmn`](crate::Hmn)
//! and the exact oracle:
//!
//! 1. **Fractional solve** ([`RoundingConfig::lp_iterations`] rounds of a
//!    Garg–Könemann-style multiplicative-weights loop): every guest
//!    carries a distribution `x[g][·]` over its candidate hosts
//!    (initially uniform over hosts that can take it alone). Each round
//!    prices congestion — host prices grow with the expected
//!    worst-resource utilization `Σ_g x[g][h]·demand(g)/cap(h)`, edge
//!    prices with the expected bandwidth utilization of routing every
//!    virtual link along the priced-latency shortest path between its
//!    endpoints' mode (argmax) hosts — and every guest then shifts mass
//!    multiplicatively away from expensive hosts:
//!    `x[g][h] ∝ x[g][h]·exp(-η·cost(g,h))`, where `cost` charges the
//!    priced resource fit, the priced distance to each neighbor's mode
//!    host, and a hard penalty when the latency-shortest path to that
//!    mode already exceeds the link's Eq. 8 bound (read from the shared
//!    `ar[]` tables). The whole solve is deterministic: fixed iteration
//!    order, no RNG, and only cache-independent inputs.
//! 2. **Rounding** (seeded): sample each guest's host from `x[g][·]` by
//!    inverting the cumulative distribution at one uniform draw per
//!    guest. A sample that no longer fits the residual capacities is
//!    *repaired* to the feasible candidate with the largest fractional
//!    mass (counted in `repairs`); an attempt whose placement provably
//!    violates a latency bound (`ar[]` distance > Eq. 8 bound) is
//!    rejected wholesale and re-sampled, up to
//!    [`RoundingConfig::max_attempts`] times.
//! 3. **Repair/refine** with the existing pipeline stages: the paper's
//!    Migration stage balances the rounded placement (Eq. 10), and the
//!    modified 1-constrained A\*Prune routes every link.
//!
//! Scratch (the distribution matrix, price/load vectors, priced Dijkstra
//! tables) lives in [`MapCache::rounding`]; like every mapper the result
//! is bit-identical for any cache history (`warm == cold`).

use crate::astar_prune::AStarPruneConfig;
use crate::cache::{ArTables, MapCache, RoundingScratch};
use crate::error::MapError;
use crate::hosting::links_by_descending_bw;
use crate::mapper::{MapOutcome, Mapper};
use crate::migration::{migration_counters, MigrationPolicy};
use crate::networking::networking_stage;
use crate::random::DEFAULT_MAX_ATTEMPTS;
use crate::recorder::record_map;
use crate::state::{HostOrder, PlacementState};
use emumap_graph::algo::dijkstra;
use emumap_model::{Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters};
use rand::{Rng, RngCore};

/// Feasibility slack when comparing latency lower bounds against Eq. 8
/// bounds (mirrors the validator's tolerance).
const LAT_EPSILON: f64 = 1e-9;
/// Cost added for a host whose latency lower bound to a neighbor's mode
/// host already violates the link's bound (or that is unreachable) —
/// large against the O(1)-scaled congestion terms, so mass drains fast.
const INFEASIBLE_PENALTY: f64 = 8.0;
/// Congestion loads are clamped here before entering a multiplicative
/// price update, bounding price growth per round.
const MAX_LOAD: f64 = 4.0;

/// Configuration of the randomized-rounding mapper.
/// [`RoundingConfig::default`] is the harness default behind
/// `--mapper rr`.
#[derive(Clone, Copy, Debug)]
pub struct RoundingConfig {
    /// Multiplicative-weights rounds of the fractional solve.
    pub lp_iterations: usize,
    /// Step size `η` of the guest-distribution update.
    pub step: f64,
    /// Price growth rate `ε`: prices multiply by `1 + ε·load` per round.
    pub price_growth: f64,
    /// Placement samples drawn before giving up
    /// ([`MapError::RetriesExhausted`]).
    pub max_attempts: usize,
    /// Which Migration refinement to run on the rounded placement.
    pub migration: MigrationPolicy,
}

impl Default for RoundingConfig {
    fn default() -> Self {
        RoundingConfig {
            lp_iterations: 16,
            step: 1.0,
            price_growth: 0.5,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            migration: MigrationPolicy::Paper,
        }
    }
}

/// The randomized-rounding LP mapper. See the module docs for the
/// three-stage pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomizedRounding {
    /// Configuration; default = the harness's `--mapper rr`.
    pub config: RoundingConfig,
}

impl RandomizedRounding {
    /// The default rounding mapper.
    pub fn new() -> Self {
        RandomizedRounding::default()
    }

    /// A rounding mapper with a custom configuration.
    pub fn with_config(config: RoundingConfig) -> Self {
        RandomizedRounding { config }
    }
}

/// Outcome of the seeded rounding loop.
struct RoundingRun {
    /// Samples drawn (1 = first sample passed every check).
    attempts: u64,
    /// Per-guest capacity repairs applied across all attempts.
    repairs: u64,
    /// Whether some attempt produced a feasible-looking placement.
    placed: bool,
}

/// Initializes `rs.frac` with a uniform distribution over each guest's
/// candidate hosts (hosts that can take the guest alone) and caches the
/// per-pair normalized worst-resource demand in `rs.fit_cost`. Errors
/// with the first guest that has no candidate host at all.
fn init_candidates(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    rs: &mut RoundingScratch,
) -> Result<(), MapError> {
    let hosts = phys.hosts();
    let (ng, nh) = (venv.guest_count(), hosts.len());
    rs.frac.reset(ng, nh, 0.0);
    rs.fit_cost.resize(ng * nh, 0.0);
    for (gi, g) in venv.guest_ids().enumerate() {
        let spec = venv.guest(g);
        let mut any = false;
        for (hi, &h) in hosts.iter().enumerate() {
            let mem = phys.effective_mem(h).value() as f64;
            let stor = phys.effective_stor(h).value();
            let proc = phys.effective_proc(h).value();
            let fits = spec.mem.value() as f64 <= mem && spec.stor.value() <= stor;
            // Normalized worst-resource demand: what fraction of the
            // host this guest consumes on its tightest axis.
            let util = |d: f64, cap: f64| if cap > 0.0 { d / cap } else { f64::INFINITY };
            rs.fit_cost[gi * nh + hi] = util(spec.proc.value(), proc)
                .max(util(spec.mem.value() as f64, mem))
                .max(util(spec.stor.value(), stor))
                .min(MAX_LOAD);
            if fits {
                rs.frac.row_mut(gi)[hi] = 1.0;
                any = true;
            }
        }
        if !any {
            return Err(MapError::HostingFailed { guest: g });
        }
        rs.frac.normalize_row(gi);
    }
    Ok(())
}

/// One full multiplicative-weights solve over `config.lp_iterations`
/// rounds. Deterministic and cache-independent; `topo` must already be
/// prepared for `phys`.
fn solve_fractional(
    config: &RoundingConfig,
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    topo: &mut ArTables,
    rs: &mut RoundingScratch,
) -> u64 {
    let graph = phys.graph();
    let hosts = phys.hosts();
    let (ng, nh) = (venv.guest_count(), hosts.len());
    let ne = graph.edge_count();

    rs.host_prices.resize(nh, 1.0);
    rs.edge_prices.resize(ne, 1.0);
    rs.edge_loads.resize(ne, 0.0);
    rs.modes.resize(ng, 0);
    rs.cost_row.resize(nh, 0.0);

    // Scale for the link-distance term: the largest virtual bandwidth.
    let bw_max = venv
        .link_ids()
        .map(|l| venv.link(l).bw.value())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);

    // Maps a dense host index to its row in `rs.priced` this round.
    let mut slot = vec![usize::MAX; nh];

    for _ in 0..config.lp_iterations {
        // Mode (argmax) host of every guest, used both as the routing
        // endpoint estimate and as the distance target below.
        for gi in 0..ng {
            rs.modes[gi] = rs.frac.argmax_row(gi).expect("non-empty candidate row");
        }

        // Priced-latency Dijkstra from every distinct mode host. Prices
        // are ≥ 1 and finite, so costs are valid; `dmax` is the largest
        // finite priced distance this round (distance normalizer).
        rs.priced.clear();
        slot.fill(usize::MAX);
        let mut dmax = f64::MIN_POSITIVE;
        for gi in 0..ng {
            let hi = rs.modes[gi];
            if slot[hi] != usize::MAX {
                continue;
            }
            let prices = &rs.edge_prices;
            let result = dijkstra(graph, hosts[hi], |e, link| {
                link.lat.value().max(LAT_EPSILON) * prices[e.index()]
            });
            dmax = result
                .distances()
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .fold(dmax, f64::max);
            slot[hi] = rs.priced.len();
            rs.priced.push((hosts[hi], result));
        }

        // Expected edge utilization: route each link's bandwidth along
        // the priced shortest path between its endpoints' mode hosts.
        rs.edge_loads.fill(0.0);
        for l in venv.link_ids() {
            let (a, b) = venv.link_endpoints(l);
            let (sa, sb) = (rs.modes[a.index()], rs.modes[b.index()]);
            if sa == sb {
                continue; // co-located in expectation: no physical path
            }
            let table = &rs.priced[slot[sa]].1;
            if let Some(edges) = table.edge_path_to(hosts[sb]) {
                let bw = venv.link(l).bw.value();
                for e in edges {
                    let cap = phys.link(e).bw.value();
                    if cap > 0.0 && cap.is_finite() {
                        rs.edge_loads[e.index()] += bw / cap;
                    }
                }
            }
        }

        // Expected host utilization from the full fractional matrix.
        rs.loads
            .accumulate(&rs.frac, venv.guest_ids().map(|g| venv.guest(g)));

        // Multiplicative price updates (clamped loads bound the growth).
        for (hi, &h) in hosts.iter().enumerate() {
            let u = rs
                .loads
                .max_utilization(
                    hi,
                    phys.effective_proc(h).value(),
                    phys.effective_mem(h).value() as f64,
                    phys.effective_stor(h).value(),
                )
                .min(MAX_LOAD);
            rs.host_prices[hi] *= 1.0 + config.price_growth * u;
        }
        let hp_max = rs.host_prices.iter().copied().fold(1.0f64, f64::max);
        for ei in 0..ne {
            rs.edge_prices[ei] *= 1.0 + config.price_growth * rs.edge_loads[ei].min(MAX_LOAD);
        }

        // Guest updates: shift mass away from priced-out hosts.
        for (gi, g) in venv.guest_ids().enumerate() {
            for hi in 0..nh {
                // Resource term: normalized demand, weighted by the
                // host's relative congestion price.
                rs.cost_row[hi] = rs.fit_cost[gi * nh + hi] * (rs.host_prices[hi] / hp_max);
            }
            for nb in venv.links_of(g) {
                if nb.node == g {
                    continue; // self-loops never need a physical path
                }
                let spec = venv.link(nb.edge);
                let bound = spec.lat.value();
                let bw_term = spec.bw.value() / bw_max;
                let om = rs.modes[nb.node.index()];
                let table = &rs.priced[slot[om]].1;
                let (ar, _) = topo.ar_and_csr(phys, hosts[om]);
                for (hi, cost) in rs.cost_row.iter_mut().enumerate() {
                    if hi == om {
                        continue; // co-location: free and always legal
                    }
                    let pd = table.distances()[hosts[hi].index()];
                    if !pd.is_finite() || ar[hosts[hi].index()] > bound + LAT_EPSILON {
                        *cost += INFEASIBLE_PENALTY;
                    } else {
                        *cost += (pd / dmax) * bw_term;
                    }
                }
            }
            let row = rs.frac.row_mut(gi);
            for (hi, w) in row.iter_mut().enumerate() {
                if *w > 0.0 {
                    *w *= (-config.step * rs.cost_row[hi]).exp();
                }
            }
            rs.frac.normalize_row(gi);
        }
    }
    config.lp_iterations as u64
}

/// The seeded rounding loop: sample placements from the fractional
/// solution until one passes the residual-capacity and latency
/// prechecks. On success `state` holds the complete placement.
fn round_placement(
    config: &RoundingConfig,
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    rng: &mut dyn RngCore,
    topo: &mut ArTables,
    rs: &mut RoundingScratch,
    state: &mut PlacementState<'_>,
) -> RoundingRun {
    let hosts = phys.hosts();
    let mut run = RoundingRun {
        attempts: 0,
        repairs: 0,
        placed: false,
    };
    'attempts: while run.attempts < config.max_attempts as u64 {
        run.attempts += 1;
        state.reset();
        rs.sampled.clear();
        for (gi, g) in venv.guest_ids().enumerate() {
            let unit: f64 = rng.gen();
            let mut hi = rs
                .frac
                .sample_row(gi, unit)
                .expect("candidate rows are non-empty");
            if !state.fits(g, hosts[hi]) {
                // Repair: the feasible candidate with the largest
                // fractional mass (smallest index on ties).
                let row = rs.frac.row(gi);
                let mut best: Option<(usize, f64)> = None;
                for (ci, &w) in row.iter().enumerate() {
                    if w > 0.0 && state.fits(g, hosts[ci]) && best.is_none_or(|(_, bw)| w > bw) {
                        best = Some((ci, w));
                    }
                }
                let Some((ci, _)) = best else {
                    continue 'attempts; // nothing fits: re-sample
                };
                hi = ci;
                run.repairs += 1;
            }
            state
                .assign(g, hosts[hi])
                .expect("fits() precedes every assign");
            rs.sampled.push(hosts[hi]);
        }
        // Sound latency precheck: if even the latency-shortest path
        // between two endpoint hosts exceeds the Eq. 8 bound, no router
        // can save this placement — reject before the expensive stages.
        for l in venv.link_ids() {
            let (a, b) = venv.link_endpoints(l);
            let (ha, hb) = (
                state.host_of(a).expect("complete placement"),
                state.host_of(b).expect("complete placement"),
            );
            if ha == hb {
                continue;
            }
            let (ar, _) = topo.ar_and_csr(phys, hb);
            if ar[ha.index()] > venv.link(l).lat.value() + LAT_EPSILON {
                continue 'attempts;
            }
        }
        run.placed = true;
        return run;
    }
    run
}

impl Mapper for RandomizedRounding {
    fn name(&self) -> &str {
        "RR"
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        record_map("RR", phys, venv, cache, |rec, cache| {
            let mut state = PlacementState::new(phys, venv);

            // Stage 1 (Hosting span): fractional solve + seeded rounding.
            // The span keeps the LP and rounding work when rounding fails.
            let attempts = rec.phase(cache, Phase::Hosting, |cache| {
                cache.topo.prepare(phys);
                cache.rounding.begin();
                if let Err(e) = init_candidates(phys, venv, &mut cache.rounding) {
                    return (Err(e), PhaseCounters::default());
                }
                let lp = solve_fractional(
                    &self.config,
                    phys,
                    venv,
                    &mut cache.topo,
                    &mut cache.rounding,
                );
                let run = round_placement(
                    &self.config,
                    phys,
                    venv,
                    rng,
                    &mut cache.topo,
                    &mut cache.rounding,
                    &mut state,
                );
                let counters = PhaseCounters {
                    lp_iterations: lp,
                    rounding_attempts: run.attempts,
                    repairs: run.repairs,
                    ..Default::default()
                };
                let placed = if run.placed {
                    Ok(run.attempts)
                } else {
                    Err(MapError::RetriesExhausted {
                        attempts: run.attempts as usize,
                    })
                };
                (placed, counters)
            })?;
            rec.attempts = attempts as usize;

            // Stage 2 (Migration span): balance the rounded placement.
            if self.config.migration != MigrationPolicy::Off {
                rec.phase(cache, Phase::Migration, |_| {
                    let order = HostOrder::new(&state);
                    (
                        (),
                        migration_counters(&mut state, order, self.config.migration),
                    )
                });
            }

            // Stage 3 (Networking span): A*Prune routes every link.
            let links = links_by_descending_bw(venv);
            let routes = rec.phase(cache, Phase::Networking, |cache| {
                networking_stage(&mut state, &links, &AStarPruneConfig::default(), cache)
            })?;
            Ok(Mapping::new(state.into_placement(), routes))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{
        validate_mapping, GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, StorGb,
        VLinkSpec, VmmOverhead,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn paper_like_phys() -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::torus2d(3, 4),
            std::iter::repeat(HostSpec::new(
                Mips(2000.0),
                MemMb::from_gb(2),
                StorGb(2000.0),
            )),
            LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    fn small_venv(guests: usize, links: &[(usize, usize)]) -> VirtualEnvironment {
        let mut venv = VirtualEnvironment::new();
        let ids: Vec<_> = (0..guests)
            .map(|i| {
                venv.add_guest(GuestSpec::new(
                    Mips(50.0 + i as f64),
                    MemMb(192),
                    StorGb(150.0),
                ))
            })
            .collect();
        for (k, &(a, b)) in links.iter().enumerate() {
            venv.add_link(
                ids[a],
                ids[b],
                VLinkSpec::new(Kbps(500.0 + 10.0 * k as f64), Millis(45.0)),
            );
        }
        venv
    }

    #[test]
    fn rr_produces_a_valid_mapping() {
        let phys = paper_like_phys();
        let venv = small_venv(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
        );
        let mut rng = SmallRng::seed_from_u64(7);
        let outcome = RandomizedRounding::new()
            .map(&phys, &venv, &mut rng)
            .unwrap();
        assert_eq!(validate_mapping(&phys, &venv, &outcome.mapping), Ok(()));
        assert!(outcome.stats.rounding_attempts >= 1);
        assert_eq!(outcome.stats.lp_iterations, 16);
        assert_eq!(
            outcome.stats.routed_links + outcome.stats.intra_host_links,
            venv.link_count()
        );
    }

    #[test]
    fn rr_is_deterministic_per_seed_and_warm_cache_is_invisible() {
        let phys = paper_like_phys();
        let venv = small_venv(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let rr = RandomizedRounding::new();
        let cold = rr
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(3))
            .unwrap();
        let again = rr
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(3))
            .unwrap();
        assert_eq!(cold.mapping, again.mapping, "same seed, same mapping");
        let mut cache = MapCache::new();
        for _ in 0..3 {
            let warm = rr
                .map_with_cache(&phys, &venv, &mut SmallRng::seed_from_u64(3), &mut cache)
                .unwrap();
            assert_eq!(warm.mapping, cold.mapping, "cache history is invisible");
            assert_eq!(warm.objective, cold.objective);
        }
        let different = rr
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(4))
            .unwrap();
        assert_eq!(
            validate_mapping(&phys, &venv, &different.mapping),
            Ok(()),
            "other seeds still map validly"
        );
    }

    #[test]
    fn rr_emits_bracketed_phase_spans_with_rounding_counters() {
        use emumap_trace::{check, SharedSink, TraceEvent, Tracer};

        let phys = paper_like_phys();
        let venv = small_venv(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let sink = SharedSink::default();
        let mut cache = MapCache::new();
        cache.trace = Tracer::new(Box::new(sink.clone()));
        RandomizedRounding::new()
            .map_with_cache(&phys, &venv, &mut SmallRng::seed_from_u64(1), &mut cache)
            .unwrap();
        let events = sink.events();
        assert_eq!(check(&events), vec![]);
        assert!(
            matches!(events.first(), Some(TraceEvent::MapStart { mapper, .. }) if mapper == "RR")
        );
        assert!(matches!(
            events.last(),
            Some(TraceEvent::MapEnd { ok: true, .. })
        ));
        let phases: Vec<Phase> = events
            .iter()
            .filter_map(TraceEvent::phase_end)
            .map(|(phase, _, _)| phase)
            .collect();
        assert_eq!(
            phases,
            vec![Phase::Hosting, Phase::Migration, Phase::Networking]
        );
    }

    #[test]
    fn rr_fails_cleanly_when_nothing_fits() {
        // One tiny host cannot take two fat guests.
        let phys = PhysicalTopology::from_shape(
            &generators::line(1),
            std::iter::once(HostSpec::new(Mips(1000.0), MemMb(256), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(200), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(200), StorGb(1.0)));
        venv.add_link(a, b, VLinkSpec::new(Kbps(1.0), Millis(60.0)));
        let sink = emumap_trace::SharedSink::default();
        let mut cache = MapCache::new();
        cache.trace = emumap_trace::Tracer::new(Box::new(sink.clone()));
        let err = RandomizedRounding::new()
            .map_with_cache(&phys, &venv, &mut SmallRng::seed_from_u64(1), &mut cache)
            .unwrap_err();
        assert!(matches!(err, MapError::RetriesExhausted { .. }));
        // The failed Hosting span still reports the LP and rounding work.
        let spans: Vec<_> = sink
            .events()
            .iter()
            .filter_map(emumap_trace::TraceEvent::phase_end)
            .collect();
        assert_eq!(spans.len(), 1);
        let (phase, _, counters) = spans[0];
        assert_eq!(phase, Phase::Hosting);
        assert!(counters.lp_iterations > 0, "{counters:?}");
        assert_eq!(
            counters.rounding_attempts,
            RoundingConfig::default().max_attempts as u64
        );
    }

    #[test]
    fn rr_rejects_impossible_guests_before_solving() {
        // A guest too big for every host individually fails fast with
        // HostingFailed naming the guest.
        let phys = paper_like_phys();
        let mut venv = VirtualEnvironment::new();
        let big = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb::from_gb(64), StorGb(1.0)));
        let err = RandomizedRounding::new()
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(1))
            .unwrap_err();
        assert_eq!(err, MapError::HostingFailed { guest: big });
    }

    #[test]
    fn fractional_mass_concentrates_on_feasible_hosts() {
        let phys = paper_like_phys();
        let venv = small_venv(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut cache = MapCache::new();
        cache.topo.prepare(&phys);
        cache.rounding.begin();
        init_candidates(&phys, &venv, &mut cache.rounding).unwrap();
        let config = RoundingConfig::default();
        solve_fractional(&config, &phys, &venv, &mut cache.topo, &mut cache.rounding);
        for gi in 0..venv.guest_count() {
            let row = cache.rounding.frac.row(gi);
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {gi} stays normalized: {sum}");
            assert!(row.iter().all(|&w| w >= 0.0 && w.is_finite()));
        }
    }
}
