//! Subcommand implementations.

use crate::args::Parsed;
use emumap_bench::crosscheck::{CrossCheck, TrialWitness};
use emumap_core::parallel::ParallelRunner;
use emumap_core::{
    cluster_diagnostics, mapper_keys, mapper_usage, solve_exact_with, BoundKind, ExactConfig,
    ExactStatus, Hmn, MapCache, MapOutcome, Mapper, MapperConfig, SymmetryCertificate,
    DEFAULT_MAX_ATTEMPTS,
};
use emumap_graph::generators::edges_for_density;
use emumap_model::{validate_mapping, Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_sim::{run_experiment, ExperimentSpec};
use emumap_workloads::{oracle_smoke, ClusterSpec, ClusterTopology, VirtualEnvSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;

/// CLI failures, each mapping to a non-zero exit code with a message.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage: unknown subcommand, missing/invalid flags.
    Usage(String),
    /// Filesystem or JSON trouble.
    Io(String),
    /// The requested mapping could not be produced.
    Mapping(String),
    /// Validation found violations.
    Invalid(Vec<String>),
    /// Trace files broke the trace contract (one `FILE:LINE: ...` each).
    Trace(Vec<String>),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}\n\n{USAGE}"),
            CliError::Io(m) => write!(f, "io error: {m}"),
            CliError::Mapping(m) => write!(f, "mapping failed: {m}"),
            CliError::Invalid(violations) => {
                writeln!(f, "mapping is INVALID ({} violations):", violations.len())?;
                for v in violations {
                    writeln!(f, "  - {v}")?;
                }
                Ok(())
            }
            CliError::Trace(violations) => {
                writeln!(
                    f,
                    "trace contract violated ({} violations):",
                    violations.len()
                )?;
                for v in violations {
                    writeln!(f, "{v}")?;
                }
                Ok(())
            }
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
emumap — map virtual machines and links onto emulation testbeds (HMN, ICPP 2009)

subcommands:
  gen-cluster --topology torus|switched [--hosts N] [--seed S] -o phys.json
      generate the paper's heterogeneous cluster (default 40 hosts)
  gen-venv --workload high|low --guests N --density D [--seed S] -o venv.json
      generate a Table 1 virtual environment
  map --phys phys.json --venv venv.json
      [--mapper hmn|r|ra|hs|ffd|bf|wf|consolidate|ksp|sa|pt|rr|pool]
      [--seed S] [--attempts A] [-o mapping.json] [--trace events.jsonl]
      map the environment; prints objective and stats; on failure prints
      capacity diagnostics (memory/CPU/latency/bandwidth headroom);
      --trace streams structured pipeline events (phase spans with
      timings, per-phase counters, per-link routing outcomes) as JSONL
  validate --phys phys.json --venv venv.json --mapping mapping.json
      check a mapping against the formal model (Eqs. 1-9)
  simulate --phys phys.json --venv venv.json --mapping mapping.json
      [--rounds N] [--work-factor F] [--msg-kbits K]
      run the emulated experiment and print its execution time
  exact --phys phys.json --venv venv.json | exact --smoke SEED
      [--seed S] [--max-nodes N] [--bound waterfill|lagrangian]
      [--trace events.jsonl] [-o mapping.json]
      certify the optimal Eq. 10 objective by a sequential depth-first
      branch-and-bound (small instances only: the search is exponential
      in the guest count), seeding HMN's mapping as the incumbent;
      prints the certified optimum (or, when TRUNCATED, the best found
      and the certified lower bound), search counters and HMN's gap;
      --bound picks the pruning bound (default lagrangian: priced
      per-guest tables + subgradient ascent, never weaker than
      waterfill; waterfill is cheaper per node);
      --smoke SEED uses a built-in 6-host/8-guest instance instead of
      --phys/--venv (the two cannot be combined)
  batch --phys phys.json --venv venv.json
      [--mapper NAME[,NAME..]|all] [--reps N] [--seed S] [--threads T]
      [--attempts A] [-o trials.json] [--trace-dir DIR] [--exact-check G]
      [--exact-max-nodes N] [--quiet]
      run repeated mapping trials across a worker pool (per-worker warm
      caches; deterministic at any thread count) and print per-mapper
      success rates, mean objective and mean mapping time; --trace-dir
      writes one trace_MAPPER_repNNN.jsonl event stream per trial;
      --exact-check G cross-checks every successful trial against the
      exact oracle when the instance has at most G guests (an invalid
      mapping, a refuted infeasibility or an objective below the
      certified lower bound fails the run), reporting certified k/n and
      truncated witness counts honestly; --exact-max-nodes caps the
      oracle's search budget; the stderr progress line is suppressed by
      --quiet or when stderr is not a tty
  serve --phys phys.json
      [--mapper hmn|sa|pt|...] [--seed S] [--attempts A]
      [--socket path.sock] [--trace events.jsonl]
      long-lived embedding daemon: one JSONL request per line on stdin
      (or on a Unix socket), one response per line on stdout; holds
      residual cluster state across apply/remove/status/save/restore
      requests and embeds arrivals against residual capacities with one
      warm cache; responses carry no volatile fields, so equal request
      streams and seeds yield byte-identical response streams; shutdown
      with {\"shutdown\":{}}
  trace-check FILE|DIR...
      hold trace JSONL files (for a directory: every *.jsonl in it) to
      the trace contract: bracketed spans in pipeline order, per-phase
      counter invariants, serve request bookkeeping; prints one
      FILE:LINE line per violation and fails on any
  inspect --phys phys.json [--venv venv.json] [--mapping mapping.json]
      [--dot out.dot]
      summarize a topology / environment / mapping; optionally export the
      physical topology as Graphviz DOT
  help
      print this text";

pub(crate) fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let data =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
    serde_json::from_str(&data).map_err(|e| CliError::Io(format!("parsing {path}: {e}")))
}

/// Reads a `--venv` file, refusing one whose numbers no mapper may take
/// (see [`VirtualEnvironment::demand_error`]).
fn read_venv(path: &str) -> Result<VirtualEnvironment, CliError> {
    let venv: VirtualEnvironment = read_json(path)?;
    match venv.demand_error() {
        Some(reason) => Err(CliError::Io(format!("parsing {path}: {reason}"))),
        None => Ok(venv),
    }
}

/// Reads a `--phys` file, refusing one whose numbers no mapper may take
/// (see [`PhysicalTopology::capacity_error`]).
pub(crate) fn read_phys(path: &str) -> Result<PhysicalTopology, CliError> {
    let phys: PhysicalTopology = read_json(path)?;
    match phys.capacity_error() {
        Some(reason) => Err(CliError::Io(format!("parsing {path}: {reason}"))),
        None => Ok(phys),
    }
}

pub(crate) fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError::Io(format!("creating {}: {e}", parent.display())))?;
        }
    }
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| CliError::Io(format!("serializing: {e}")))?;
    std::fs::write(path, json).map_err(|e| CliError::Io(format!("writing {path}: {e}")))
}

pub(crate) fn build_mapper(name: &str, attempts: usize) -> Result<Box<dyn Mapper>, CliError> {
    // One lookup against the core registry — the CLI registers nothing
    // itself, so a mapper added there is immediately reachable here.
    let config = MapperConfig {
        max_attempts: attempts,
    };
    emumap_core::build_mapper(name, &config)
        .ok_or_else(|| CliError::Usage(format!("unknown mapper '{name}' ({})", mapper_usage())))
}

/// The `--seed` every subcommand defaults to.
pub(crate) const DEFAULT_SEED: u64 = 2009;

/// The most guests [`generate_venv`] generates and `serve` accepts inline:
/// 50x the paper's largest environment (2 000 guests).
pub(crate) const MAX_GUESTS: usize = 100_000;

/// The most virtual links [`generate_venv`] generates and `serve` accepts
/// inline: 50x the paper's largest environment (19 990 links).
pub(crate) const MAX_VIRTUAL_LINKS: usize = 1_000_000;

/// Validates the Table 1 generator inputs and generates the environment:
/// `gen-venv` and `serve`'s generator-form `apply` both come through here.
/// Errors name the offending input after `prefix` (`--` or `apply.`).
/// The size limits come before any allocation, so one request line
/// cannot ask the daemon for more memory than it has.
pub(crate) fn generate_venv(
    prefix: &str,
    workload: &str,
    guests: usize,
    density: f64,
    seed: u64,
) -> Result<VirtualEnvironment, String> {
    if !(0.0..=1.0).contains(&density) {
        return Err(format!("{prefix}density must be in [0, 1], got {density}"));
    }
    // Guests first: the link count below is quadratic in them.
    if guests > MAX_GUESTS {
        return Err(format!(
            "{prefix}guests must be at most {MAX_GUESTS}, got {guests}"
        ));
    }
    let links = edges_for_density(guests, density);
    if links > MAX_VIRTUAL_LINKS {
        return Err(format!(
            "{prefix}guests {guests} at {prefix}density {density} make {links} virtual links, \
             more than the limit of {MAX_VIRTUAL_LINKS}"
        ));
    }
    let spec = match workload {
        "high" => VirtualEnvSpec::high_level(guests, density),
        "low" => VirtualEnvSpec::low_level(guests, density),
        other => return Err(format!("unknown {prefix}workload '{other}' (high|low)")),
    };
    Ok(spec.generate(&mut SmallRng::seed_from_u64(seed)))
}

/// Runs `body` with a `--trace` JSONL sink (when `path` is given) on
/// `owner`'s cache, then flushes the sink — also when `body` failed, since
/// the trace matters most on failures.
pub(crate) fn traced<S, R>(
    owner: &mut S,
    cache: fn(&mut S) -> &mut MapCache,
    path: Option<&str>,
    body: impl FnOnce(&mut S) -> R,
) -> Result<R, CliError> {
    if let Some(path) = path {
        let sink = emumap_trace::JsonlSink::create(path)
            .map_err(|e| CliError::Io(format!("opening trace {path}: {e}")))?;
        cache(owner).trace = emumap_trace::Tracer::new(Box::new(sink));
    }
    let result = body(owner);
    if let Some(mut sink) = cache(owner).trace.take_sink() {
        sink.flush()
            .map_err(|e| CliError::Io(format!("writing trace: {e}")))?;
    }
    Ok(result)
}

/// A subcommand: it reads all its flags, calls [`Parsed::finish`], and only
/// then touches a file, so it accepts exactly the flags it reads.
type Command = fn(Parsed) -> Result<Vec<String>, CliError>;

/// Every subcommand.
const COMMANDS: &[(&str, Command)] = &[
    ("gen-cluster", gen_cluster),
    ("gen-venv", gen_venv),
    ("map", map_cmd),
    ("exact", exact_cmd),
    ("validate", validate_cmd),
    ("simulate", simulate_cmd),
    ("batch", batch_cmd),
    ("serve", crate::serve::serve_cmd),
    ("inspect", inspect_cmd),
    ("trace-check", trace_check_cmd),
];

/// Runs a parsed command line; returns lines to print on success.
pub fn run(mut parsed: Parsed) -> Result<Vec<String>, CliError> {
    let sub = parsed.subcommand.as_str();
    let Some(&(_, command)) = COMMANDS.iter().find(|(name, _)| *name == sub) else {
        return match sub {
            "help" | "-h" | "--help" => Ok(vec![USAGE.to_string()]),
            other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
        };
    };
    if parsed.flag("help") {
        return Ok(vec![USAGE.to_string()]);
    }
    command(parsed)
}

/// `trace-check`: holds each trace file (or every `*.jsonl` in a
/// directory operand) to [`emumap_trace::check`].
fn trace_check_cmd(p: Parsed) -> Result<Vec<String>, CliError> {
    let operands = p.finish()?;
    let mut files = Vec::new();
    for operand in &operands {
        let path = Path::new(operand);
        if !path.is_dir() {
            files.push(path.to_path_buf());
            continue;
        }
        let entries =
            std::fs::read_dir(path).map_err(|e| CliError::Io(format!("reading {operand}: {e}")))?;
        let mut found: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|f| f.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        found.sort();
        files.extend(found);
    }
    if files.is_empty() {
        return Err(CliError::Usage(format!(
            "trace-check: no trace files under {operands:?}"
        )));
    }
    let mut violations = Vec::new();
    for file in &files {
        violations.extend(check_trace_file(file)?);
    }
    if !violations.is_empty() {
        return Err(CliError::Trace(violations));
    }
    Ok(vec![format!(
        "trace-check: {} trace file(s) OK",
        files.len()
    )])
}

/// One trace file's violations, each located as `FILE:LINE` (or `FILE`
/// for whole-stream problems).
fn check_trace_file(path: &Path) -> Result<Vec<String>, CliError> {
    let name = path.display();
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("reading {name}: {e}")))?;
    let mut violations = Vec::new();
    let mut events = Vec::new();
    let mut line_of = Vec::new();
    for (n, line) in text.lines().enumerate() {
        match emumap_trace::parse_event(line) {
            Ok(event) => {
                events.push(event);
                line_of.push(n + 1);
            }
            Err(e) => violations.push(format!("{name}:{}: {e}", n + 1)),
        }
    }
    if events.is_empty() && !violations.is_empty() {
        return Ok(violations);
    }
    violations.extend(
        emumap_trace::check(&events)
            .into_iter()
            .map(|v| match v.event {
                Some(i) => format!("{name}:{}: {}", line_of[i], v.message),
                None => format!("{name}: {}", v.message),
            }),
    );
    Ok(violations)
}

fn gen_cluster(mut p: Parsed) -> Result<Vec<String>, CliError> {
    let topology: String = p.parse_or("topology", "torus".into())?;
    let hosts: usize = p.count("hosts", 40)?;
    let seed: u64 = p.parse_or("seed", DEFAULT_SEED)?;
    let out = p.required("out")?;
    p.finish()?;
    let topology = match topology.as_str() {
        "torus" => ClusterSpec::paper_torus(),
        "switched" => ClusterSpec::paper_switched(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown topology '{other}' (torus|switched)"
            )))
        }
    };

    let mut spec = ClusterSpec::paper();
    spec.hosts = hosts;
    let topology = match topology {
        // The paper's torus is 5x8; other host counts need a near-square
        // factorization.
        ClusterTopology::Torus2D { .. } if hosts != 40 => {
            let rows = (1..=hosts)
                .filter(|r| hosts.is_multiple_of(*r))
                .min_by_key(|&r| (hosts / r).abs_diff(r))
                .unwrap_or(1);
            ClusterTopology::Torus2D {
                rows,
                cols: hosts / rows,
            }
        }
        t => t,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let phys = spec.build(topology, &mut rng);
    write_json(&out, &phys)?;
    Ok(vec![format!(
        "wrote {out}: {} hosts, {} links ({:?})",
        phys.host_count(),
        phys.graph().edge_count(),
        topology
    )])
}

fn gen_venv(mut p: Parsed) -> Result<Vec<String>, CliError> {
    let workload: String = p.parse_or("workload", "high".into())?;
    let guests: usize = p.parse_or("guests", 100)?;
    let density: f64 = p.parse_or("density", 0.02)?;
    let seed: u64 = p.parse_or("seed", DEFAULT_SEED)?;
    let out = p.required("out")?;
    p.finish()?;
    let venv = generate_venv("--", &workload, guests, density, seed).map_err(CliError::Usage)?;
    write_json(&out, &venv)?;
    Ok(vec![format!(
        "wrote {out}: {} guests, {} virtual links",
        venv.guest_count(),
        venv.link_count()
    )])
}

fn map_cmd(mut p: Parsed) -> Result<Vec<String>, CliError> {
    let phys_path = p.required("phys")?;
    let venv_path = p.required("venv")?;
    let seed: u64 = p.parse_or("seed", DEFAULT_SEED)?;
    let attempts = p.count("attempts", DEFAULT_MAX_ATTEMPTS)?;
    let mapper = build_mapper(p.optional("mapper").as_deref().unwrap_or("hmn"), attempts)?;
    let out = p.optional("out");
    let trace = p.optional("trace");
    p.finish()?;
    let phys = read_phys(&phys_path)?;
    let venv = read_venv(&venv_path)?;

    let mut rng = SmallRng::seed_from_u64(seed);
    let result = traced(
        &mut MapCache::new(),
        |c| c,
        trace.as_deref(),
        |cache| mapper.map_with_cache(&phys, &venv, &mut rng, cache),
    )?;
    let outcome: MapOutcome = result.map_err(|e| {
        let d = cluster_diagnostics(&phys, &venv);
        CliError::Mapping(format!(
            "{e}\n  diagnostics:\n    memory  : {} / {} MB demanded ({:.1}%)\n    cpu     : {:.0} / {:.0} MIPS demanded ({:.1}%)\n    latency : cluster diameter {:.1} ms vs tightest bound {:.1} ms\n    bandwidth: {:.0} / {:.0} kbps total demand ({:.1}%)",
            d.mem_demand_mb,
            d.mem_capacity_mb,
            100.0 * d.mem_demand_mb as f64 / d.mem_capacity_mb.max(1) as f64,
            d.proc_demand_mips,
            d.proc_capacity_mips,
            100.0 * d.proc_demand_mips / d.proc_capacity_mips.max(1.0),
            d.latency_diameter_ms,
            d.min_latency_bound_ms,
            d.bw_demand_kbps,
            d.bw_capacity_kbps,
            100.0 * d.bw_demand_kbps / d.bw_capacity_kbps.max(1.0),
        ))
    })?;

    // Always re-verify before emitting anything.
    validate_mapping(&phys, &venv, &outcome.mapping).map_err(|violations| {
        CliError::Invalid(violations.iter().map(|v| v.to_string()).collect())
    })?;

    let mut lines = vec![
        format!("mapper          : {}", mapper.name()),
        format!("objective (Eq10): {:.3} MIPS stddev", outcome.objective),
        format!(
            "hosts used      : {}/{}",
            outcome.mapping.hosts_used(),
            phys.host_count()
        ),
        format!(
            "links           : {} routed, {} intra-host",
            outcome.mapping.routed_link_count(),
            outcome.mapping.intra_host_link_count()
        ),
        format!("attempts        : {}", outcome.stats.attempts),
        format!("map time        : {:?}", outcome.stats.total_time),
        format!(
            "search          : {} A* expansions, {} heap pushes, {} guide probes, {} cut proofs",
            outcome.stats.astar_expansions,
            outcome.stats.astar_pushed,
            outcome.stats.guide_probes,
            outcome.stats.cut_proofs
        ),
        format!(
            "tables          : {} Dijkstra runs, {} warm-cache hits",
            outcome.stats.dijkstra_runs, outcome.stats.ar_cache_hits
        ),
        format!(
            "placement       : {} proposals evaluated ({} delta, {} full evals)",
            outcome.stats.proposals_evaluated,
            outcome.stats.delta_evaluations,
            outcome.stats.full_evaluations
        ),
    ];
    if let Some(out) = out {
        write_json(&out, &outcome.mapping)?;
        lines.push(format!("wrote {out}"));
    }
    if let Some(path) = trace {
        lines.push(format!("wrote trace -> {path}"));
    }
    Ok(lines)
}

fn parse_bound_kind(p: &mut Parsed) -> Result<BoundKind, CliError> {
    match p.optional("bound").as_deref().unwrap_or("lagrangian") {
        "lagrangian" => Ok(BoundKind::Lagrangian),
        "waterfill" => Ok(BoundKind::Waterfill),
        other => Err(CliError::Usage(format!(
            "--bound expects 'waterfill' or 'lagrangian', got '{other}'"
        ))),
    }
}

fn exact_status_str(status: ExactStatus) -> &'static str {
    match status {
        ExactStatus::Optimal => "OPTIMAL (certified)",
        ExactStatus::Infeasible => "INFEASIBLE (certified)",
        ExactStatus::Truncated => "TRUNCATED (bound only; raise --max-nodes)",
    }
}

fn exact_cmd(mut p: Parsed) -> Result<Vec<String>, CliError> {
    enum Instance {
        Files(String, String),
        Smoke(u64),
    }
    let instance = match p.optional("smoke") {
        Some(raw) => {
            if let Some(flag) = ["phys", "venv"]
                .into_iter()
                .find(|f| p.optional(f).is_some())
            {
                return Err(CliError::Usage(format!(
                    "--{flag} cannot be combined with --smoke, which uses a built-in instance"
                )));
            }
            let seed: u64 = raw
                .parse()
                .map_err(|_| CliError::Usage(format!("--smoke expects a seed, got '{raw}'")))?;
            Instance::Smoke(seed)
        }
        None => Instance::Files(p.required("phys")?, p.required("venv")?),
    };
    let seed: u64 = p.parse_or("seed", DEFAULT_SEED)?;
    let defaults = ExactConfig::default();
    let config = ExactConfig {
        max_nodes: p.parse_or("max-nodes", defaults.max_nodes)?,
        bound: parse_bound_kind(&mut p)?,
        ..defaults
    };
    let out = p.optional("out");
    let trace = p.optional("trace");
    p.finish()?;
    let (phys, venv): (PhysicalTopology, VirtualEnvironment) = match instance {
        Instance::Files(phys, venv) => (read_phys(&phys)?, read_venv(&venv)?),
        Instance::Smoke(seed) => oracle_smoke(seed),
    };

    // Run HMN first (untraced) so the gap report has a heuristic to
    // compare against and the search starts from its mapping as the
    // incumbent; a --trace file then contains only the oracle's span.
    let mut cache = MapCache::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let hmn = Hmn::new()
        .map_with_cache(&phys, &venv, &mut rng, &mut cache)
        .ok();
    let witnesses: Vec<Mapping> = hmn.iter().map(|o| o.mapping.clone()).collect();
    let outcome = traced(
        &mut cache,
        |c| c,
        trace.as_deref(),
        |cache| solve_exact_with(&phys, &venv, &config, cache, &witnesses),
    )?;

    let s = &outcome.stats;
    let mut lines = vec![
        format!(
            "instance        : {} hosts, {} guests, {} virtual links",
            phys.host_count(),
            venv.guest_count(),
            venv.link_count()
        ),
        format!("status          : {}", exact_status_str(outcome.status)),
    ];
    match &outcome.best {
        Some(best) => lines.push(format!(
            "objective (Eq10): {:.3} MIPS stddev{}",
            best.objective,
            if outcome.is_certified() {
                " — certified optimum"
            } else {
                " — best found (not certified)"
            }
        )),
        None => lines.push("objective (Eq10): — (no feasible mapping found)".to_string()),
    }
    if outcome.lower_bound.is_finite() {
        lines.push(format!("lower bound     : {:.3}", outcome.lower_bound));
    }
    lines.push(format!(
        "search          : {} nodes expanded, {} pruned ({} bound, {} capacity, {} latency, {} symmetry)",
        s.nodes_expanded,
        s.pruned_total(),
        s.pruned_bound,
        s.pruned_capacity,
        s.pruned_latency,
        s.pruned_symmetry
    ));
    lines.push(format!(
        "symmetry        : {}",
        match outcome.symmetry {
            SymmetryCertificate::Holds => "certified — one branch per class of bit-equal hosts",
            SymmetryCertificate::BandwidthFails => {
                "not certified — total virtual bandwidth exceeds the smallest edge capacity"
            }
            SymmetryCertificate::LatencyFails => {
                "not certified — two hosts lie farther apart than the smallest latency bound"
            }
        }
    ));
    if config.bound == BoundKind::Lagrangian {
        lines.push(format!(
            "lagrangian      : {} dual evaluations, {} bound improvements, {} extra prunes",
            s.subgradient_iters, s.bound_improvements, s.pruned_lagrangian
        ));
    }
    lines.push(format!(
        "leaf routing    : {} attempted, {} failed, {} witness(es) accepted",
        s.leaf_routings, s.routing_failures, s.witnesses_accepted
    ));
    match &hmn {
        Some(o) => {
            lines.push(format!("HMN objective   : {:.3} MIPS stddev", o.objective));
            if let Some(gap) = outcome.gap_from(o.objective) {
                let best = outcome.best.as_ref().map(|b| b.objective).unwrap_or(0.0);
                let pct = if best > 0.0 { 100.0 * gap / best } else { 0.0 };
                let reference = if outcome.is_certified() {
                    "the certified optimum"
                } else {
                    "the best found (not certified)"
                };
                lines.push(format!(
                    "HMN gap         : {gap:.3} above {reference} ({pct:.1}%)"
                ));
            }
        }
        None => lines.push("HMN objective   : — (HMN failed on this instance)".to_string()),
    }
    if let Some(out) = out {
        match &outcome.best {
            Some(best) => {
                write_json(&out, &best.mapping)?;
                lines.push(format!("wrote {out}"));
            }
            None => lines.push(format!("no mapping to write to {out}")),
        }
    }
    if let Some(path) = trace {
        lines.push(format!("wrote trace -> {path}"));
    }
    Ok(lines)
}

/// Reads the `--phys`, `--venv` and `--mapping` files of `validate` and
/// `simulate`, after `finish`ing the reader.
fn read_instance_and_mapping(
    mut p: Parsed,
) -> Result<(PhysicalTopology, VirtualEnvironment, Mapping), CliError> {
    let phys = p.required("phys")?;
    let venv = p.required("venv")?;
    let mapping = p.required("mapping")?;
    p.finish()?;
    Ok((read_phys(&phys)?, read_venv(&venv)?, read_json(&mapping)?))
}

fn validate_cmd(p: Parsed) -> Result<Vec<String>, CliError> {
    let (phys, venv, mapping) = read_instance_and_mapping(p)?;
    match validate_mapping(&phys, &venv, &mapping) {
        Ok(()) => Ok(vec![format!(
            "VALID: {} guests on {} hosts, {} routed links satisfy Eqs. 1-9",
            mapping.guest_count(),
            mapping.hosts_used(),
            mapping.routed_link_count()
        )]),
        Err(violations) => Err(CliError::Invalid(
            violations.iter().map(|v| v.to_string()).collect(),
        )),
    }
}

fn simulate_cmd(mut p: Parsed) -> Result<Vec<String>, CliError> {
    let spec = ExperimentSpec {
        rounds: p.count("rounds", 10)?,
        work_factor: p.parse_or("work-factor", 1.0)?,
        msg_kbits: p.parse_or("msg-kbits", 50.0)?,
        ..Default::default()
    };
    for (flag, value) in [
        ("work-factor", spec.work_factor),
        ("msg-kbits", spec.msg_kbits),
    ] {
        if !(value.is_finite() && value >= 0.0) {
            return Err(CliError::Usage(format!(
                "--{flag} must be a finite number >= 0, got {value}"
            )));
        }
    }
    let (phys, venv, mapping) = read_instance_and_mapping(p)?;
    validate_mapping(&phys, &venv, &mapping).map_err(|violations| {
        CliError::Invalid(violations.iter().map(|v| v.to_string()).collect())
    })?;
    let result = run_experiment(&phys, &venv, &mapping, &spec);
    Ok(vec![
        format!(
            "experiment time : {:.4}s ({} rounds)",
            result.total_s, spec.rounds
        ),
        format!("  compute       : {:.4}s", result.compute_s),
        format!("  network       : {:.4}s", result.network_s),
    ])
}

/// One trial's record in `batch -o` output.
#[derive(serde::Serialize)]
struct TrialRecord {
    mapper: String,
    rep: u32,
    seed: u64,
    ok: bool,
    objective: Option<f64>,
    map_time_s: Option<f64>,
    routed_links: Option<usize>,
    networking_time_s: Option<f64>,
}

fn batch_cmd(mut p: Parsed) -> Result<Vec<String>, CliError> {
    let phys_path = p.required("phys")?;
    let venv_path = p.required("venv")?;
    let reps: u32 = p.count("reps", 10)?;
    let seed: u64 = p.parse_or("seed", DEFAULT_SEED)?;
    let threads: usize = p.parse_or("threads", 0)?;
    let attempts = p.count("attempts", DEFAULT_MAX_ATTEMPTS)?;
    let exact_check: usize = p.parse_or("exact-check", 0)?;
    let exact_max_nodes: u64 = p.parse_or("exact-max-nodes", ExactConfig::default().max_nodes)?;
    let spec = p.optional("mapper").unwrap_or_else(|| "hmn".to_string());
    let names: Vec<String> = if spec == "all" {
        // Every registered mapper, in registry order.
        mapper_keys().map(|s| s.to_string()).collect()
    } else {
        spec.split(',').map(|s| s.trim().to_string()).collect()
    };
    // Validate every name up front so the workers can unwrap; a repeat
    // would split one mapper's report across rows.
    for (i, name) in names.iter().enumerate() {
        build_mapper(name, attempts)?;
        if names[..i].contains(name) {
            return Err(CliError::Usage(format!("--mapper lists '{name}' twice")));
        }
    }
    let out = p.optional("out");
    let trace_dir = p.optional("trace-dir");
    let quiet = p.flag("quiet");
    p.finish()?;
    let phys = read_phys(&phys_path)?;
    let venv = read_venv(&venv_path)?;
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Io(format!("creating {dir}: {e}")))?;
    }

    let mut work: Vec<(usize, u32)> = Vec::new();
    for mi in 0..names.len() {
        for rep in 0..reps {
            work.push((mi, rep));
        }
    }
    // Per-trial seed: decorrelate reps with a golden-ratio stride and keep
    // mappers on disjoint streams via the high byte.
    let trial_seed = |mi: usize, rep: u32| {
        seed ^ (u64::from(rep)).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((mi as u64) << 56)
    };

    let runner = ParallelRunner::new(threads);
    let started = std::time::Instant::now();
    // Periodic progress to stderr (stdout carries the deterministic
    // report): every ~10% of trials, whichever worker crosses the line.
    // Suppressed by --quiet and whenever stderr is not a tty (CI logs,
    // pipes) so captured output stays clean.
    let progress = !quiet && std::io::IsTerminal::is_terminal(&std::io::stderr());
    let total_trials = work.len();
    let progress_every = (total_trials / 10).max(1);
    let done = std::sync::atomic::AtomicUsize::new(0);
    // Each trial also carries its mapping back so --exact-check can feed
    // the successes to the oracle as witnesses.
    let results: Vec<(TrialRecord, Option<Mapping>)> = runner.run(work, |(mi, rep), cache| {
        let mapper = build_mapper(&names[mi], attempts).expect("validated above");
        let s = trial_seed(mi, rep);
        let mut rng = SmallRng::seed_from_u64(s);
        if let Some(dir) = &trace_dir {
            let path = Path::new(dir).join(format!("trace_{}_rep{rep:03}.jsonl", names[mi]));
            // Trace I/O must never fail a trial; an unopenable file just
            // leaves this trial untraced.
            if let Ok(sink) = emumap_trace::JsonlSink::create(&path) {
                cache.trace = emumap_trace::Tracer::new(Box::new(sink));
            }
        }
        let mapped = mapper.map_with_cache(&phys, &venv, &mut rng, cache);
        if let Some(mut sink) = cache.trace.take_sink() {
            let _ = sink.flush();
        }
        let finished = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        if progress && (finished.is_multiple_of(progress_every) || finished == total_trials) {
            eprintln!(
                "batch progress  : {finished}/{total_trials} trials done, {:.1}s elapsed",
                started.elapsed().as_secs_f64()
            );
        }
        match mapped {
            Ok(o) => (
                TrialRecord {
                    mapper: names[mi].clone(),
                    rep,
                    seed: s,
                    ok: true,
                    objective: Some(o.objective),
                    map_time_s: Some(o.stats.total_time.as_secs_f64()),
                    routed_links: Some(o.stats.routed_links),
                    networking_time_s: Some(o.stats.networking_time.as_secs_f64()),
                },
                Some(o.mapping),
            ),
            Err(_) => (
                TrialRecord {
                    mapper: names[mi].clone(),
                    rep,
                    seed: s,
                    ok: false,
                    objective: None,
                    map_time_s: None,
                    routed_links: None,
                    networking_time_s: None,
                },
                None,
            ),
        }
    });
    let wall = started.elapsed();
    let (records, mappings): (Vec<TrialRecord>, Vec<Option<Mapping>>) = results.into_iter().unzip();

    let mut lines = vec![format!(
        "batch           : {} trials ({} mappers x {} reps) on {} threads in {:.3}s",
        records.len(),
        names.len(),
        reps,
        runner.threads(),
        wall.as_secs_f64()
    )];
    for name in &names {
        let of_mapper: Vec<&TrialRecord> = records.iter().filter(|r| &r.mapper == name).collect();
        let ok: Vec<&&TrialRecord> = of_mapper.iter().filter(|r| r.ok).collect();
        let mean = |f: fn(&TrialRecord) -> Option<f64>| -> Option<f64> {
            let vals: Vec<f64> = ok.iter().filter_map(|r| f(r)).collect();
            (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
        };
        let fmt = |v: Option<f64>, precision: usize| match v {
            Some(v) => format!("{v:.precision$}"),
            None => "—".to_string(),
        };
        lines.push(format!(
            "  {:<12}: {}/{} ok, mean objective {}, mean map time {}s",
            name,
            ok.len(),
            of_mapper.len(),
            fmt(mean(|r| r.objective), 1),
            fmt(mean(|r| r.map_time_s), 4),
        ));
    }
    if exact_check > 0 {
        let check = CrossCheck {
            max_guests: exact_check,
            config: ExactConfig {
                max_nodes: exact_max_nodes,
                ..Default::default()
            },
        };
        if check.applies(&venv) {
            let trials: Vec<TrialWitness> = records
                .iter()
                .zip(&mappings)
                .filter_map(|(r, m)| {
                    m.as_ref().map(|mapping| TrialWitness {
                        mapper: r.mapper.clone(),
                        objective: r.objective.unwrap_or(f64::INFINITY),
                        mapping: mapping.clone(),
                    })
                })
                .collect();
            // The certify call blocks on one oracle solve; bracket it with
            // the same stderr progress reporting (and --quiet/non-tty
            // gating) the trial loop uses, so a long exact-check is
            // visibly alive instead of silent.
            if progress {
                eprintln!(
                    "batch progress  : exact-check certifying {} witness(es) (budget {} nodes)",
                    trials.len(),
                    exact_max_nodes
                );
            }
            let check_started = std::time::Instant::now();
            let report = check.certify(&phys, &venv, &trials, &mut MapCache::new());
            if progress {
                eprintln!(
                    "batch progress  : exact-check {} in {:.1}s ({} nodes expanded)",
                    exact_status_str(report.outcome.status),
                    check_started.elapsed().as_secs_f64(),
                    report.outcome.stats.nodes_expanded
                );
            }
            let bound = if report.outcome.lower_bound.is_finite() {
                format!("{:.3}", report.outcome.lower_bound)
            } else {
                "∞".to_string()
            };
            lines.push(format!(
                "exact-check     : {} — certified {}/{} witness(es), {} truncated, lower bound {}",
                exact_status_str(report.outcome.status),
                report.certified_trials,
                trials.len(),
                report.truncated_trials,
                bound
            ));
            // With a certified optimum every witness objective becomes an
            // empirical approximation ratio; report it per mapper (CI
            // gates the randomized-rounding mapper's ratio).
            for name in &names {
                if let Some(ratio) = report.mean_ratio(name) {
                    lines.push(format!(
                        "  ratio {:<10}: {ratio:.3}x optimal (mean over {} certified trial(s))",
                        name,
                        report.ratios.iter().filter(|(m, _)| m == name).count()
                    ));
                }
            }
            if !report.ok() {
                return Err(CliError::Invalid(report.disagreements));
            }
        } else {
            lines.push(format!(
                "exact-check     : skipped ({} guests exceed the {exact_check}-guest cutoff)",
                venv.guest_count()
            ));
        }
    }
    if let Some(out) = out {
        write_json(&out, &records)?;
        lines.push(format!("wrote {out}"));
    }
    if let Some(dir) = trace_dir {
        lines.push(format!("wrote traces -> {dir}"));
    }
    Ok(lines)
}

fn inspect_cmd(mut p: Parsed) -> Result<Vec<String>, CliError> {
    let phys_path = p.required("phys")?;
    let venv_path = p.optional("venv");
    let mapping_path = p.optional("mapping");
    let dot_path = p.optional("dot");
    p.finish()?;
    if mapping_path.is_some() && venv_path.is_none() {
        return Err(CliError::Usage("--mapping requires --venv".to_string()));
    }
    let phys = read_phys(&phys_path)?;
    let mut lines = Vec::new();

    let switches = phys.graph().node_count() - phys.host_count();
    lines.push(format!(
        "physical : {} hosts + {} switches, {} links",
        phys.host_count(),
        switches,
        phys.graph().edge_count()
    ));
    let total_proc = phys.total_effective_proc().value();
    let total_mem: u64 = phys
        .hosts()
        .iter()
        .map(|&h| phys.effective_mem(h).value())
        .sum();
    let total_stor: f64 = phys
        .hosts()
        .iter()
        .map(|&h| phys.effective_stor(h).value())
        .sum();
    lines.push(format!(
        "capacity : {total_proc:.0} MIPS, {total_mem} MB memory, {total_stor:.0} GB storage"
    ));
    if let Some(d) = emumap_graph::algo::diameter(phys.graph(), |_, l| l.lat.value()) {
        lines.push(format!("network  : latency diameter {d:.1} ms"));
    }

    let venv = match venv_path {
        Some(path) => Some(read_venv(&path)?),
        None => None,
    };
    if let Some(venv) = &venv {
        let d = cluster_diagnostics(&phys, venv);
        lines.push(format!(
            "virtual  : {} guests, {} links; memory load {:.1}%, CPU load {:.1}%, \
             bandwidth load {:.1}%",
            venv.guest_count(),
            venv.link_count(),
            100.0 * d.mem_demand_mb as f64 / d.mem_capacity_mb.max(1) as f64,
            100.0 * d.proc_demand_mips / d.proc_capacity_mips.max(1.0),
            100.0 * d.bw_demand_kbps / d.bw_capacity_kbps.max(1.0),
        ));
        if d.min_latency_bound_ms < d.latency_diameter_ms {
            lines.push(format!(
                "warning  : tightest virtual latency bound ({:.1} ms) is below the \
                 cluster diameter ({:.1} ms); some placements will be unroutable",
                d.min_latency_bound_ms, d.latency_diameter_ms
            ));
        }
    }

    if let (Some(path), Some(venv)) = (mapping_path, &venv) {
        let mapping: Mapping = read_json(&path)?;
        let valid = validate_mapping(&phys, venv, &mapping).is_ok();
        lines.push(format!(
            "mapping  : {} hosts used, {} routed / {} intra-host links, objective {:.1} — {}",
            mapping.hosts_used(),
            mapping.routed_link_count(),
            mapping.intra_host_link_count(),
            emumap_model::objective::mapping_objective(&phys, venv, &mapping),
            if valid {
                "VALID"
            } else {
                "INVALID (run `emumap validate` for details)"
            },
        ));
        // Per-host occupancy sparkline.
        let groups = mapping.guests_by_host();
        let occupancy: Vec<usize> = phys
            .hosts()
            .iter()
            .map(|h| groups.get(h).map(Vec::len).unwrap_or(0))
            .collect();
        let max = occupancy.iter().copied().max().unwrap_or(0).max(1);
        const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let bars: String = occupancy
            .iter()
            .map(|&c| LEVELS[(c * 8).div_ceil(max).min(8)])
            .collect();
        lines.push(format!("occupancy: [{bars}] (max {max} guests/host)"));
    }

    if let Some(out) = dot_path {
        let dot = emumap_graph::to_dot(
            phys.graph(),
            &emumap_graph::DotOptions {
                name: "cluster".to_string(),
                graph_attrs: String::new(),
            },
            |id, node| match node {
                emumap_model::PhysNode::Host(spec) => format!(
                    "label=\"h{}\\n{:.0} MIPS\", shape=box",
                    id.index(),
                    spec.proc.value()
                ),
                emumap_model::PhysNode::Switch => {
                    format!("label=\"sw{}\", shape=diamond", id.index())
                }
            },
            |_, link| format!("label=\"{:.0}\"", link.bw.value()),
        );
        std::fs::write(&out, dot).map_err(|e| CliError::Io(format!("writing {out}: {e}")))?;
        lines.push(format!("wrote DOT -> {out}"));
    }

    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Parsed;

    fn run_tokens(tokens: &[&str]) -> Result<Vec<String>, CliError> {
        let parsed = Parsed::parse(tokens.iter().map(|s| s.to_string())).expect("parse");
        run(parsed)
    }

    /// Writes a torus cluster (seed 1) and a `gen-venv` environment built
    /// from `venv_flags` into `dir`; returns their paths.
    fn gen_instance(dir: &Path, venv_flags: &[&str]) -> (String, String) {
        let phys = dir.join("phys.json").display().to_string();
        let venv = dir.join("venv.json").display().to_string();
        run_tokens(&["gen-cluster", "--seed", "1", "-o", &phys]).expect("gen-cluster");
        let tokens = [&["gen-venv", "-o", venv.as_str()], venv_flags].concat();
        run_tokens(&tokens).expect("gen-venv");
        (phys, venv)
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emumap-cli-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn full_pipeline_roundtrips_through_json() {
        let dir = tmpdir();
        let phys = dir.join("phys.json");
        let venv = dir.join("venv.json");
        let mapping = dir.join("mapping.json");
        let phys_s = phys.to_str().unwrap();
        let venv_s = venv.to_str().unwrap();
        let mapping_s = mapping.to_str().unwrap();

        run_tokens(&[
            "gen-cluster",
            "--topology",
            "switched",
            "--seed",
            "1",
            "-o",
            phys_s,
        ])
        .expect("gen-cluster");
        run_tokens(&[
            "gen-venv",
            "--workload",
            "high",
            "--guests",
            "60",
            "--density",
            "0.03",
            "--seed",
            "2",
            "-o",
            venv_s,
        ])
        .expect("gen-venv");
        let lines = run_tokens(&[
            "map", "--phys", phys_s, "--venv", venv_s, "--mapper", "hmn", "-o", mapping_s,
        ])
        .expect("map");
        assert!(lines.iter().any(|l| l.contains("objective")));

        let lines = run_tokens(&[
            "validate",
            "--phys",
            phys_s,
            "--venv",
            venv_s,
            "--mapping",
            mapping_s,
        ])
        .expect("validate");
        assert!(lines[0].starts_with("VALID"));

        let lines = run_tokens(&[
            "simulate",
            "--phys",
            phys_s,
            "--venv",
            venv_s,
            "--mapping",
            mapping_s,
            "--rounds",
            "3",
        ])
        .expect("simulate");
        assert!(lines[0].contains("experiment time"));

        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn every_registered_mapper_name_builds() {
        for name in mapper_keys() {
            assert!(build_mapper(name, 10).is_ok(), "{name}");
        }
        // The unknown-mapper error enumerates the whole registry, so a
        // user sees every valid choice (including newly added mappers).
        let Err(CliError::Usage(msg)) = build_mapper("nope", 10) else {
            panic!("unknown mapper must be a usage error");
        };
        for name in mapper_keys() {
            assert!(msg.contains(name), "error message omits '{name}': {msg}");
        }
    }

    #[test]
    fn usage_text_lists_every_registered_mapper() {
        for name in mapper_keys() {
            assert!(USAGE.contains(name), "USAGE omits mapper '{name}'");
        }
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        assert!(matches!(
            run_tokens(&["frobnicate"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_prints_usage() {
        let lines = run_tokens(&["help"]).unwrap();
        assert!(lines[0].contains("subcommands"));
    }

    #[test]
    fn help_after_a_subcommand_prints_usage() {
        let lines = run_tokens(&["exact", "--help"]).unwrap();
        assert!(lines[0].contains("subcommands"));
    }

    #[test]
    fn serve_rejects_unknown_flags() {
        let Err(CliError::Usage(msg)) = run_tokens(&["serve", "--phys", "p.json", "--port", "1"])
        else {
            panic!("serve must reject a flag it does not read");
        };
        assert!(msg.contains("--port"), "{msg}");
    }

    #[test]
    fn meaningless_generator_and_simulate_inputs_are_usage_errors() {
        let dir = tmpdir();
        let (phys_s, venv_s) = &gen_instance(&dir, &["--guests", "4", "--seed", "2"]);
        let mapping = dir.join("mapping.json").display().to_string();
        run_tokens(&["map", "--phys", phys_s, "--venv", venv_s, "-o", &mapping]).expect("map");
        let out = dir.join("out.json");
        let out_s = out.to_str().unwrap();
        let rows: &[(&[&str], &str)] = &[
            (
                &["gen-cluster", "--topology", "switched", "--hosts", "0"],
                "--hosts",
            ),
            (
                &["gen-cluster", "--topology", "torus", "--hosts", "0"],
                "--hosts",
            ),
            (&["gen-venv", "--density", "-0.1"], "--density"),
            (&["gen-venv", "--density", "1.5"], "--density"),
            (&["gen-venv", "--density", "NaN"], "--density"),
            (&["simulate", "--work-factor", "NaN"], "--work-factor"),
            (&["simulate", "--work-factor", "inf"], "--work-factor"),
            (&["simulate", "--work-factor", "-1"], "--work-factor"),
            (&["simulate", "--msg-kbits", "-5"], "--msg-kbits"),
            (&["simulate", "--msg-kbits", "NaN"], "--msg-kbits"),
            (&["simulate", "--rounds", "0"], "--rounds"),
            (&["map", "--attempts", "0"], "--attempts"),
            (&["batch", "--attempts", "0"], "--attempts"),
            (&["serve", "--attempts", "0"], "--attempts"),
            (&["batch", "--reps", "0"], "--reps"),
            (&["batch", "--mapper", "hmn,hmn"], "--mapper"),
        ];
        for &(flags, flag) in rows {
            let io: &[&str] = match flags[0] {
                "simulate" => &["--phys", phys_s, "--venv", venv_s, "--mapping", &mapping],
                "map" | "batch" => &["--phys", phys_s, "--venv", venv_s, "-o", out_s],
                "serve" => &["--phys", phys_s],
                _ => &["-o", out_s],
            };
            let tokens = [flags, io].concat();
            let Err(CliError::Usage(msg)) = run_tokens(&tokens) else {
                panic!("{tokens:?} must be a usage error");
            };
            assert!(msg.contains(flag), "{tokens:?}: {msg}");
            assert!(!out.exists(), "{tokens:?} wrote {out_s}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// Every subcommand, pointed at files that do not exist and given a
    /// flag it does not read, fails on that flag before it touches a file.
    #[test]
    fn unknown_flag_is_a_usage_error_naming_it() {
        let dir = tmpdir().join("never-created");
        let path = |name: &str| dir.join(name).display().to_string();
        let (phys, venv, mapping) = (path("phys.json"), path("venv.json"), path("mapping.json"));
        let (out, trace, traces) = (path("out.json"), path("trace.jsonl"), path("traces"));
        let (socket, dot) = (path("serve.sock"), path("cluster.dot"));
        let instance = ["--phys", &phys, "--venv", &venv];
        for &(name, _) in COMMANDS {
            let files: Vec<&str> = match name {
                "gen-cluster" | "gen-venv" => vec!["-o", &out],
                "map" | "exact" => [&instance[..], &["-o", &out, "--trace", &trace]].concat(),
                "validate" | "simulate" => [&instance[..], &["--mapping", &mapping]].concat(),
                "batch" => [&instance[..], &["-o", &out, "--trace-dir", &traces]].concat(),
                "serve" => vec!["--phys", &phys, "--socket", &socket, "--trace", &trace],
                "inspect" => [&instance[..], &["--mapping", &mapping, "--dot", &dot]].concat(),
                "trace-check" => vec![&trace],
                other => panic!("no row for subcommand '{other}'"),
            };
            let tokens = [&[name][..], &files, &["--bogus", "1"]].concat();
            match run_tokens(&tokens) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("--bogus"), "{tokens:?}: {msg}"),
                other => panic!("{tokens:?} must be a usage error, got {other:?}"),
            }
            assert!(!dir.exists(), "{tokens:?} created {}", dir.display());
        }
        std::fs::remove_dir_all(tmpdir()).ok();
    }

    #[test]
    fn gen_cluster_nonstandard_host_count_factorizes_torus() {
        let dir = tmpdir();
        let phys = dir.join("p36.json");
        let phys_s = phys.to_str().unwrap();
        let lines = run_tokens(&[
            "gen-cluster",
            "--topology",
            "torus",
            "--hosts",
            "36",
            "--seed",
            "3",
            "-o",
            phys_s,
        ])
        .unwrap();
        assert!(lines[0].contains("36 hosts"), "{lines:?}");
        let loaded: PhysicalTopology = read_json(phys_s).unwrap();
        assert_eq!(loaded.host_count(), 36);
        assert_eq!(loaded.graph().edge_count(), 72); // 6x6 torus, 4-regular
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_phys_file_listing_a_missing_host_is_an_io_error() {
        let dir = tmpdir();
        let (phys_s, venv_s) = &gen_instance(&dir, &["--guests", "4", "--seed", "2"]);
        let json = std::fs::read_to_string(phys_s).unwrap();
        assert!(json.contains("\"hosts\": ["), "{json}");
        std::fs::write(phys_s, json.replace("\"hosts\": [", "\"hosts\": [999,")).unwrap();
        for tokens in [
            &["map", "--phys", phys_s, "--venv", venv_s][..],
            &["serve", "--phys", phys_s][..],
        ] {
            let Err(CliError::Io(msg)) = run_tokens(tokens) else {
                panic!("{tokens:?} must fail to load the topology");
            };
            assert!(msg.contains("PhysicalTopology.hosts"), "{msg}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn validate_rejects_corrupted_mapping() {
        let dir = tmpdir();
        let mapping = dir.join("mapping.json");
        let mapping_s = mapping.to_str().unwrap();

        let (phys_s, venv_s) =
            &gen_instance(&dir, &["--guests", "10", "--density", "0.2", "--seed", "2"]);
        run_tokens(&["map", "--phys", phys_s, "--venv", venv_s, "-o", mapping_s]).unwrap();

        // Corrupt: drop one route from the mapping JSON.
        let mut m: Mapping = read_json(mapping_s).unwrap();
        let mut routes = m.routes().to_vec();
        routes.pop();
        m = Mapping::new(m.placement().to_vec(), routes);
        write_json(mapping_s, &m).unwrap();

        let err = run_tokens(&[
            "validate",
            "--phys",
            phys_s,
            "--venv",
            venv_s,
            "--mapping",
            mapping_s,
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batch_runs_deterministically_across_thread_counts() {
        let dir = tmpdir();
        // Small instance: `all` now spans the whole registry (SA, PT and
        // RR included), which debug builds must finish quickly.
        let (phys_s, venv_s) = &gen_instance(
            &dir,
            &["--guests", "24", "--density", "0.05", "--seed", "2"],
        );

        let run_at = |threads: &str, out: &str| {
            run_tokens(&[
                "batch",
                "--phys",
                phys_s,
                "--venv",
                venv_s,
                "--mapper",
                "all",
                "--reps",
                "2",
                "--threads",
                threads,
                "-o",
                out,
            ])
            .expect("batch")
        };
        let one = dir.join("t1.json");
        let four = dir.join("t4.json");
        let lines = run_at("1", one.to_str().unwrap());
        run_at("4", four.to_str().unwrap());
        let expected = format!("{} trials", 2 * emumap_core::MAPPERS.len());
        assert!(lines.iter().any(|l| l.contains(&expected)), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("rr")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("hmn")), "{lines:?}");
        // Wall-clock fields naturally differ; every deterministic field
        // (mapper, rep, seed, ok, objective, routed_links) must not.
        let strip = |path: &std::path::Path| -> serde::Value {
            let mut v =
                serde_json::value_from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
            let serde::Value::Array(recs) = &mut v else {
                panic!("expected array")
            };
            for rec in recs {
                let serde::Value::Object(pairs) = rec else {
                    panic!("expected object")
                };
                pairs.retain(|(k, _)| k != "map_time_s" && k != "networking_time_s");
            }
            v
        };
        assert_eq!(
            strip(&one),
            strip(&four),
            "batch outcomes must not depend on the thread count"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batch_rejects_unknown_mapper() {
        let dir = tmpdir();
        let (phys_s, venv_s) =
            &gen_instance(&dir, &["--guests", "10", "--density", "0.1", "--seed", "2"]);
        let err = run_tokens(&[
            "batch", "--phys", phys_s, "--venv", venv_s, "--mapper", "hmn,nope",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn map_prints_search_and_table_counters() {
        let dir = tmpdir();
        let (phys_s, venv_s) = &gen_instance(
            &dir,
            &["--guests", "50", "--density", "0.05", "--seed", "2"],
        );
        let lines =
            run_tokens(&["map", "--phys", phys_s, "--venv", venv_s, "--mapper", "hmn"]).unwrap();
        let text = lines.join("\n");
        assert!(text.contains("A* expansions"), "{text}");
        assert!(text.contains("Dijkstra runs"), "{text}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn inspect_summarizes_and_exports_dot() {
        let dir = tmpdir();
        let phys = dir.join("phys.json");
        let venv = dir.join("venv.json");
        let mapping = dir.join("mapping.json");
        let dot = dir.join("cluster.dot");
        let (phys_s, venv_s, mapping_s, dot_s) = (
            phys.to_str().unwrap(),
            venv.to_str().unwrap(),
            mapping.to_str().unwrap(),
            dot.to_str().unwrap(),
        );
        run_tokens(&[
            "gen-cluster",
            "--topology",
            "torus",
            "--seed",
            "4",
            "-o",
            phys_s,
        ])
        .unwrap();
        run_tokens(&[
            "gen-venv",
            "--guests",
            "50",
            "--density",
            "0.05",
            "--seed",
            "5",
            "-o",
            venv_s,
        ])
        .unwrap();
        run_tokens(&["map", "--phys", phys_s, "--venv", venv_s, "-o", mapping_s]).unwrap();
        let lines = run_tokens(&[
            "inspect",
            "--phys",
            phys_s,
            "--venv",
            venv_s,
            "--mapping",
            mapping_s,
            "--dot",
            dot_s,
        ])
        .unwrap();
        let text = lines.join("\n");
        assert!(text.contains("40 hosts"), "{text}");
        assert!(text.contains("VALID"), "{text}");
        assert!(text.contains("occupancy"), "{text}");
        let dot_text = std::fs::read_to_string(dot_s).unwrap();
        assert!(dot_text.starts_with("graph cluster {"));
        assert!(dot_text.contains("shape=box"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn inspect_mapping_requires_venv() {
        let dir = tmpdir();
        let phys = dir.join("phys.json");
        let phys_s = phys.to_str().unwrap();
        run_tokens(&["gen-cluster", "--seed", "1", "-o", phys_s]).unwrap();
        let err = run_tokens(&["inspect", "--phys", phys_s, "--mapping", phys_s]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn map_trace_contains_all_three_phases_and_map_end() {
        let dir = tmpdir();
        let trace = dir.join("events.jsonl");
        let trace_s = trace.to_str().unwrap();
        let (phys_s, venv_s) = &gen_instance(
            &dir,
            &["--guests", "50", "--density", "0.05", "--seed", "2"],
        );
        let lines = run_tokens(&[
            "map", "--phys", phys_s, "--venv", venv_s, "--mapper", "hmn", "--trace", trace_s,
        ])
        .unwrap();
        assert!(lines.iter().any(|l| l.contains("wrote trace")), "{lines:?}");

        let events = read_trace(trace_s);
        assert_eq!(emumap_trace::check(&events), vec![]);
        use emumap_trace::Phase;
        assert_eq!(
            phase_ends(&events),
            vec![Phase::Hosting, Phase::Migration, Phase::Networking]
        );
        assert!(matches!(
            events.last(),
            Some(emumap_trace::TraceEvent::MapEnd {
                ok: true,
                objective: Some(_),
                ..
            })
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batch_trace_dir_writes_one_file_per_trial() {
        let dir = tmpdir();
        let traces = dir.join("traces");
        let (phys_s, venv_s) = &gen_instance(
            &dir,
            &["--guests", "40", "--density", "0.05", "--seed", "2"],
        );
        run_tokens(&[
            "batch",
            "--phys",
            phys_s,
            "--venv",
            venv_s,
            "--mapper",
            "hmn,ffd",
            "--reps",
            "2",
            "--threads",
            "2",
            "--trace-dir",
            traces.to_str().unwrap(),
        ])
        .unwrap();
        let mut files: Vec<String> = std::fs::read_dir(&traces)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(
            files,
            vec![
                "trace_ffd_rep000.jsonl",
                "trace_ffd_rep001.jsonl",
                "trace_hmn_rep000.jsonl",
                "trace_hmn_rep001.jsonl",
            ]
        );
        let checked = run_tokens(&["trace-check", traces.to_str().unwrap()]).unwrap();
        assert_eq!(checked, vec!["trace-check: 4 trace file(s) OK"]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn trace_check_locates_malformed_lines_and_broken_rules() {
        let dir = tmpdir().join("trace-check");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        let path_s = path.to_str().unwrap();
        std::fs::write(
            &path,
            [
                r#"{"MapStart":{"mapper":"HMN","guests":2,"links":1}}"#,
                r#"{"PhaseStart":{"phase":"Networking"}}"#,
                r#"{"PhaseEnd":{"phase":"Networking","elapsed_us":-1}}"#,
                r#"{"LinkRouted":{"link":0,"hops":1,"extra":true}}"#,
                "not json",
                r#"{"MapEnd":{"ok":true,"objective":1.0,"elapsed_us":3}}"#,
            ]
            .join("\n"),
        )
        .unwrap();
        let Err(CliError::Trace(lines)) = run_tokens(&["trace-check", path_s]) else {
            panic!("a broken trace must fail");
        };
        let located: Vec<&str> = lines
            .iter()
            .map(|l| l.strip_prefix(path_s).expect("names the file"))
            .map(|l| l.split_once(' ').map_or(l, |(at, _)| at))
            .collect();
        // Three malformed lines, then the never-closed span they leave.
        assert_eq!(located, [":3:", ":4:", ":5:", ":"], "{lines:?}");

        std::fs::write(&path, "").unwrap();
        let Err(CliError::Trace(lines)) = run_tokens(&["trace-check", path_s]) else {
            panic!("an empty trace must fail");
        };
        assert_eq!(lines, [format!("{path_s}: no events")]);
        std::fs::remove_dir_all(dir).ok();
    }

    fn read_trace(path: &str) -> Vec<emumap_trace::TraceEvent> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|l| emumap_trace::parse_event(l).expect("each line parses as an event"))
            .collect()
    }

    fn phase_ends(events: &[emumap_trace::TraceEvent]) -> Vec<emumap_trace::Phase> {
        events
            .iter()
            .filter_map(emumap_trace::TraceEvent::phase_end)
            .map(|(phase, _, _)| phase)
            .collect()
    }

    #[test]
    fn exact_smoke_certifies_and_reports_the_hmn_gap() {
        let lines = run_tokens(&["exact", "--smoke", "2009"]).expect("exact");
        let text = lines.join("\n");
        assert!(text.contains("OPTIMAL (certified)"), "{text}");
        assert!(text.contains("certified optimum"), "{text}");
        assert!(text.contains("lower bound"), "{text}");
        assert!(text.contains("nodes expanded"), "{text}");
        assert!(text.contains("HMN objective"), "{text}");
        assert!(text.contains("HMN gap"), "{text}");
        assert!(text.contains("above the certified optimum"), "{text}");
    }

    #[test]
    fn exact_reads_instance_files_and_writes_the_mapping() {
        let dir = tmpdir();
        let phys = dir.join("phys.json");
        let venv = dir.join("venv.json");
        let mapping = dir.join("exact.json");
        let (p, v) = emumap_workloads::oracle_smoke(11);
        write_json(phys.to_str().unwrap(), &p).unwrap();
        write_json(venv.to_str().unwrap(), &v).unwrap();
        let lines = run_tokens(&[
            "exact",
            "--phys",
            phys.to_str().unwrap(),
            "--venv",
            venv.to_str().unwrap(),
            "-o",
            mapping.to_str().unwrap(),
        ])
        .expect("exact");
        assert!(lines.iter().any(|l| l.contains("wrote ")), "{lines:?}");
        // The certified mapping must itself validate.
        let m: Mapping = read_json(mapping.to_str().unwrap()).unwrap();
        assert!(validate_mapping(&p, &v, &m).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn exact_trace_contains_only_the_oracle_span() {
        let dir = tmpdir();
        let trace = dir.join("exact.jsonl");
        let trace_s = trace.to_str().unwrap();
        run_tokens(&["exact", "--smoke", "2009", "--trace", trace_s]).expect("exact");
        let events = read_trace(trace_s);
        assert_eq!(emumap_trace::check(&events), vec![]);
        assert!(matches!(
            events.first(),
            Some(emumap_trace::TraceEvent::MapStart { mapper, .. }) if mapper == "EXACT"
        ));
        assert_eq!(phase_ends(&events), vec![emumap_trace::Phase::Exact]);
        assert!(matches!(
            events.last(),
            Some(emumap_trace::TraceEvent::MapEnd { ok: true, .. })
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn exact_truncates_under_a_tiny_node_budget() {
        let lines = run_tokens(&["exact", "--smoke", "2009", "--max-nodes", "2"]).expect("exact");
        let text = lines.join("\n");
        assert!(text.contains("TRUNCATED"), "{text}");
        // HMN's witness is still the incumbent, so the gap is measured
        // against it — but it is not an optimum.
        assert!(
            text.contains("HMN gap") && text.contains("above the best found (not certified)"),
            "{text}"
        );
        assert!(!text.contains("certified optimum"), "{text}");
    }

    /// Runs `sub` on a 6-host cluster and a two-guest environment whose
    /// guest 0 demands `proc` MIPS and whose one link has latency bound
    /// `lat`, which must fail with an error naming `culprit`.
    fn assert_venv_refused(sub: &str, proc: f64, lat: f64, culprit: &str) {
        use emumap_model::{GuestSpec, Kbps, MemMb, Millis, Mips, StorGb, VLinkSpec};
        let dir = tmpdir();
        let phys = dir.join("phys.json").display().to_string();
        let venv_path = dir.join("bad-venv.json").display().to_string();
        let mapping = dir.join("no-mapping.json").display().to_string();
        run_tokens(&["gen-cluster", "--hosts", "6", "-o", &phys]).expect("gen-cluster");
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(proc), MemMb(64), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(50.0), MemMb(64), StorGb(1.0)));
        venv.add_link(a, b, VLinkSpec::new(Kbps(10.0), Millis(lat)));
        write_json(&venv_path, &venv).unwrap();
        let mut tokens = vec![sub, "--phys", &phys, "--venv", &venv_path];
        if matches!(sub, "validate" | "simulate" | "inspect") {
            tokens.extend(["--mapping", &mapping]);
        }
        let Err(e) = run_tokens(&tokens) else {
            panic!("{sub} accepted proc {proc}, lat {lat}");
        };
        assert!(e.to_string().contains(culprit), "{sub}: {e}");
    }

    #[test]
    fn map_refuses_a_nan_cpu_demand() {
        assert_venv_refused("map", f64::NAN, 50.0, "guest n0");
    }

    #[test]
    fn exact_refuses_a_nan_cpu_demand() {
        assert_venv_refused("exact", f64::NAN, 50.0, "guest n0");
    }

    #[test]
    fn every_venv_reader_refuses_unusable_numbers() {
        for sub in ["map", "batch", "exact", "validate", "simulate", "inspect"] {
            let guest = "guest n0 has a negative or non-finite demand";
            assert_venv_refused(sub, f64::NAN, 50.0, guest);
            assert_venv_refused(sub, -1.0, 50.0, guest);
            for lat in [-5.0, f64::NAN] {
                let link = "virtual link e0 has a negative or NaN latency bound";
                assert_venv_refused(sub, 50.0, lat, link);
            }
        }
    }

    type PhysGraph = emumap_graph::Graph<emumap_model::PhysNode, emumap_model::LinkSpec>;

    /// Runs `sub` on a 6-host torus (`gen-cluster --topology torus --hosts
    /// 6 --seed 11`) after `spoil` edits its graph, which must fail with an
    /// error naming `culprit`.
    fn assert_phys_refused(sub: &str, spoil: impl Fn(&mut PhysGraph), culprit: &str) {
        let dir = tmpdir();
        let phys_path = dir.join("bad-phys.json").display().to_string();
        let venv = dir.join("venv.json").display().to_string();
        let mapping = dir.join("no-mapping.json").display().to_string();
        let cluster = ["gen-cluster", "--topology", "torus", "--hosts", "6"];
        run_tokens(&[&cluster[..], &["--seed", "11", "-o", &phys_path]].concat())
            .expect("gen-cluster");
        run_tokens(&["gen-venv", "--guests", "4", "-o", &venv]).expect("gen-venv");
        let phys: PhysicalTopology = read_json(&phys_path).unwrap();
        let mut graph = phys.graph().clone();
        spoil(&mut graph);
        let bad = PhysicalTopology::from_graph(graph, phys.vmm_overhead());
        write_json(&phys_path, &bad).unwrap();
        let mut tokens = vec![sub, "--phys", &phys_path];
        if sub != "serve" {
            tokens.extend(["--venv", &venv]);
        }
        if matches!(sub, "validate" | "simulate" | "inspect") {
            tokens.extend(["--mapping", &mapping]);
        }
        let Err(e) = run_tokens(&tokens) else {
            panic!("{sub} accepted a topology that should name {culprit}");
        };
        assert!(e.to_string().contains(culprit), "{sub}: {e}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn every_phys_reader_refuses_unusable_numbers() {
        use emumap_graph::{EdgeId, NodeId};
        use emumap_model::{HostSpec, Kbps, MemMb, Millis, Mips, PhysNode, StorGb};
        let (host, link) = (NodeId::from_index(0), EdgeId::from_index(0));
        let readers = [
            "map", "batch", "exact", "validate", "simulate", "inspect", "serve",
        ];
        // The bandwidth case comes first: a reader that accepts the
        // negative latency may never return.
        for sub in readers {
            let bandwidth = "link e0 has a negative or non-finite bandwidth";
            assert_phys_refused(sub, |g| g.edge_mut(link).bw = Kbps(-1_000_000.0), bandwidth);
            let cpu = |g: &mut PhysGraph| {
                let spec = HostSpec::new(Mips(f64::NAN), MemMb(4096), StorGb(1000.0));
                *g.node_mut(host) = PhysNode::Host(spec);
            };
            assert_phys_refused(sub, cpu, "host n0 has a negative or non-finite capacity");
            let latency = "link e0 has a negative or non-finite latency";
            assert_phys_refused(sub, |g| g.edge_mut(link).lat = Millis(-5.0), latency);
        }
    }

    /// `exact` with `extra` appended to a `--smoke 2009` run must be a
    /// usage error naming `flag`.
    fn assert_exact_rejects(extra: &[&str], flag: &str) {
        let tokens: Vec<&str> = ["exact", "--smoke", "2009"]
            .iter()
            .chain(extra)
            .copied()
            .collect();
        let Err(CliError::Usage(msg)) = run_tokens(&tokens) else {
            panic!("exact {extra:?} must be a usage error");
        };
        assert!(msg.contains(flag), "{msg}");
    }

    #[test]
    fn exact_rejects_flags_it_would_ignore() {
        // The oracle is one sequential search; `batch --threads` stays.
        assert_exact_rejects(&["--threads", "2"], "--threads");
        // The instance files are named, not read: a missing one must not
        // matter, the conflict with --smoke must.
        for flag in ["--phys", "--venv"] {
            assert_exact_rejects(&[flag, "missing.json"], flag);
        }
        // The Lagrangian subgradient schedule is fixed, not a flag.
        for flag in ["--root-iters", "--tree-iters", "--step", "--damping"] {
            assert_exact_rejects(&[flag, "2"], flag);
        }
    }

    #[test]
    fn batch_exact_check_certifies_small_instances() {
        let dir = tmpdir();
        let phys = dir.join("phys.json");
        let venv = dir.join("venv.json");
        let (p, v) = emumap_workloads::oracle_smoke(3);
        write_json(phys.to_str().unwrap(), &p).unwrap();
        write_json(venv.to_str().unwrap(), &v).unwrap();
        let lines = run_tokens(&[
            "batch",
            "--phys",
            phys.to_str().unwrap(),
            "--venv",
            venv.to_str().unwrap(),
            "--mapper",
            "hmn,ffd",
            "--reps",
            "2",
            "--threads",
            "2",
            "--exact-check",
            "10",
        ])
        .expect("batch with exact-check");
        let text = lines.join("\n");
        assert!(text.contains("exact-check"), "{text}");
        assert!(
            text.contains("certified 4/4 witness(es), 0 truncated"),
            "{text}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batch_exact_check_reports_truncated_witnesses_honestly() {
        let dir = tmpdir();
        let phys = dir.join("phys.json");
        let venv = dir.join("venv.json");
        let (p, v) = emumap_workloads::oracle_smoke(3);
        write_json(phys.to_str().unwrap(), &p).unwrap();
        write_json(venv.to_str().unwrap(), &v).unwrap();
        let lines = run_tokens(&[
            "batch",
            "--phys",
            phys.to_str().unwrap(),
            "--venv",
            venv.to_str().unwrap(),
            "--mapper",
            "hmn,ffd",
            "--reps",
            "2",
            "--threads",
            "2",
            "--exact-check",
            "10",
            "--exact-max-nodes",
            "2",
        ])
        .expect("batch with truncated exact-check");
        let text = lines.join("\n");
        assert!(text.contains("TRUNCATED"), "{text}");
        assert!(
            text.contains("certified 0/4 witness(es), 4 truncated"),
            "{text}"
        );
        assert!(
            !text.contains("x optimal"),
            "no ratios without certificates: {text}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn exact_bound_waterfill_runs_without_lagrangian_work() {
        let lines =
            run_tokens(&["exact", "--smoke", "2009", "--bound", "waterfill"]).expect("exact");
        let text = lines.join("\n");
        assert!(text.contains("OPTIMAL (certified)"), "{text}");
        assert!(!text.contains("lagrangian"), "{text}");
    }

    #[test]
    fn exact_bound_lagrangian_reports_dual_evaluations() {
        let lines =
            run_tokens(&["exact", "--smoke", "2009", "--bound", "lagrangian"]).expect("exact");
        let text = lines.join("\n");
        assert!(text.contains("OPTIMAL (certified)"), "{text}");
        assert!(text.contains("dual evaluations"), "{text}");
    }

    #[test]
    fn exact_rejects_unknown_bound_kind() {
        let err = run_tokens(&["exact", "--smoke", "2009", "--bound", "simplex"]).unwrap_err();
        assert!(format!("{err}").contains("--bound expects"), "{err}");
    }

    #[test]
    fn batch_exact_check_skips_oversized_instances() {
        let dir = tmpdir();
        let phys = dir.join("phys.json");
        let venv = dir.join("venv.json");
        let (p, v) = emumap_workloads::oracle_smoke(3);
        write_json(phys.to_str().unwrap(), &p).unwrap();
        write_json(venv.to_str().unwrap(), &v).unwrap();
        let lines = run_tokens(&[
            "batch",
            "--phys",
            phys.to_str().unwrap(),
            "--venv",
            venv.to_str().unwrap(),
            "--reps",
            "1",
            "--exact-check",
            "2",
        ])
        .expect("batch");
        assert!(lines.iter().any(|l| l.contains("skipped")), "{lines:?}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn map_reports_mapper_failure() {
        let dir = tmpdir();
        // 4000 high-level guests cannot fit 40 hosts (memory).
        let (phys_s, venv_s) = &gen_instance(
            &dir,
            &["--guests", "4000", "--density", "0.001", "--seed", "2"],
        );
        let err = run_tokens(&["map", "--phys", phys_s, "--venv", venv_s]).unwrap_err();
        assert!(matches!(err, CliError::Mapping(_)));
        std::fs::remove_dir_all(dir).ok();
    }
}
