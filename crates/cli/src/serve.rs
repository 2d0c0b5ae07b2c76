//! `emumap serve`: the JSONL request/response daemon.
//!
//! One request per line on stdin (or a Unix socket), one response per
//! line on stdout, flushed per response. Requests and responses are
//! single-key objects — the key is the verb:
//!
//! ```text
//! → {"apply":{"id":"t1","workload":"high","guests":40,"density":0.03,"seed":7}}
//! ← {"applied":{"id":"t1","guests":40,...,"objective":573.9}}
//! → {"remove":{"id":"t1"}}
//! ← {"removed":{"id":"t1","guests":40,"links":23}}
//! → {"status":{}}
//! ← {"status":{"tenants":0,...}}
//! → {"shutdown":{}}
//! ← {"bye":{}}
//! ```
//!
//! An `apply` carries either an inline `"venv"` (the `gen-venv` JSON
//! format) or the generator form above (`workload`/`guests`/`density`/
//! `seed`), which is resolved through the same Table 1 generators as
//! `gen-venv` — so request traces stay tiny and self-contained.
//!
//! Responses carry **no wall-clock or volatile fields**: the same request
//! stream against the same `--seed` yields byte-identical response
//! streams regardless of cache warmth or mapper thread count, which is
//! what lets CI diff a live replay against a committed golden file.
//! Malformed requests and protocol failures (unknown tenant, corrupt
//! snapshot) produce an `{"error":{...}}` response and the daemon keeps
//! serving; an orderly `apply` rejection is a `{"rejected":{...}}`
//! response, not an error.

use std::io::{BufRead, Write};

use crate::args::Parsed;
use crate::commands::{build_mapper, read_json, write_json, CliError};
use emumap_core::serve::{ApplyOutcome, ServeError, Session, Snapshot};
use emumap_core::Mapper;
use emumap_model::{PhysicalTopology, VirtualEnvironment};
use emumap_workloads::VirtualEnvSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

/// Where an `apply` gets its virtual environment from.
enum VenvSource {
    Inline(VirtualEnvironment),
    Generated {
        workload: String,
        guests: usize,
        density: f64,
        seed: u64,
    },
}

/// One parsed request.
enum Request {
    Apply { id: String, venv: VenvSource },
    Remove { id: String },
    Status,
    Save { path: String },
    Restore { path: String },
    Shutdown,
}

fn field<'v>(body: &'v Value, key: &str, verb: &str) -> Result<&'v Value, String> {
    body.get(key)
        .ok_or_else(|| format!("{verb}: missing field \"{key}\""))
}

fn str_field(body: &Value, key: &str, verb: &str) -> Result<String, String> {
    match field(body, key, verb)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "{verb}.{key}: expected string, found {}",
            other.kind()
        )),
    }
}

fn parse_request(line: &str) -> Result<Request, String> {
    let value = serde_json::value_from_str(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let Value::Object(pairs) = &value else {
        return Err(format!("request must be an object, found {}", value.kind()));
    };
    let [(verb, body)] = pairs.as_slice() else {
        return Err(format!(
            "request must have exactly one verb key, found {}",
            pairs.len()
        ));
    };
    match verb.as_str() {
        "apply" => {
            let id = str_field(body, "id", "apply")?;
            let venv = if let Some(inline) = body.get("venv") {
                VenvSource::Inline(
                    VirtualEnvironment::from_value(inline)
                        .map_err(|e| format!("apply.venv: {e}"))?,
                )
            } else {
                VenvSource::Generated {
                    workload: str_field(body, "workload", "apply")?,
                    guests: usize::from_value(field(body, "guests", "apply")?)
                        .map_err(|e| format!("apply.guests: {e}"))?,
                    density: f64::from_value(field(body, "density", "apply")?)
                        .map_err(|e| format!("apply.density: {e}"))?,
                    seed: u64::from_value(field(body, "seed", "apply")?)
                        .map_err(|e| format!("apply.seed: {e}"))?,
                }
            };
            Ok(Request::Apply { id, venv })
        }
        "remove" => Ok(Request::Remove {
            id: str_field(body, "id", "remove")?,
        }),
        "status" => Ok(Request::Status),
        "save" => Ok(Request::Save {
            path: str_field(body, "path", "save")?,
        }),
        "restore" => Ok(Request::Restore {
            path: str_field(body, "path", "restore")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown verb \"{other}\"")),
    }
}

/// Wraps a payload under a single verb key.
fn response(verb: &str, payload: Value) -> String {
    serde_json::to_string(&Value::Object(vec![(verb.to_string(), payload)]))
        .expect("Value serialization is infallible")
}

fn error_response(reason: impl Into<String>) -> String {
    response(
        "error",
        Value::Object(vec![("reason".to_string(), Value::Str(reason.into()))]),
    )
}

/// Prepends `id` to a serialized report's fields.
fn with_id(id: &str, payload: Value) -> Value {
    let mut fields = vec![("id".to_string(), Value::Str(id.to_string()))];
    if let Value::Object(rest) = payload {
        fields.extend(rest);
    }
    Value::Object(fields)
}

fn resolve_venv(source: VenvSource) -> Result<VirtualEnvironment, String> {
    match source {
        VenvSource::Inline(venv) => Ok(venv),
        VenvSource::Generated {
            workload,
            guests,
            density,
            seed,
        } => {
            let spec = match workload.as_str() {
                "high" => VirtualEnvSpec::high_level(guests, density),
                "low" => VirtualEnvSpec::low_level(guests, density),
                other => return Err(format!("unknown workload \"{other}\" (high|low)")),
            };
            Ok(spec.generate(&mut SmallRng::seed_from_u64(seed)))
        }
    }
}

/// Executes one request, returning the response line.
fn handle(session: &mut Session, mapper: &dyn Mapper, request: Request) -> ResponseAction {
    match request {
        Request::Apply { id, venv } => match resolve_venv(venv) {
            Ok(venv) => match session.apply(&id, venv, mapper) {
                ApplyOutcome::Admitted(report) => {
                    ResponseAction::Reply(response("applied", with_id(&id, report.to_value())))
                }
                ApplyOutcome::Rejected { reason } => ResponseAction::Reply(response(
                    "rejected",
                    Value::Object(vec![
                        ("id".to_string(), Value::Str(id)),
                        ("reason".to_string(), Value::Str(reason)),
                    ]),
                )),
            },
            Err(reason) => ResponseAction::Reply(error_response(reason)),
        },
        Request::Remove { id } => match session.remove(&id) {
            Ok(report) => {
                ResponseAction::Reply(response("removed", with_id(&id, report.to_value())))
            }
            Err(e) => ResponseAction::Reply(error_response(e.to_string())),
        },
        Request::Status => ResponseAction::Reply(response("status", session.status().to_value())),
        Request::Save { path } => {
            let snapshot = session.snapshot();
            let tenants = snapshot.tenants.len() as u64;
            match write_json(&path, &snapshot) {
                Ok(()) => ResponseAction::Reply(response(
                    "saved",
                    Value::Object(vec![
                        ("path".to_string(), Value::Str(path)),
                        ("tenants".to_string(), Value::U64(tenants)),
                    ]),
                )),
                Err(e) => ResponseAction::Reply(error_response(e.to_string())),
            }
        }
        Request::Restore { path } => match read_json::<Snapshot>(&path) {
            Ok(snapshot) => match session.restore(snapshot) {
                Ok(tenants) => ResponseAction::Reply(response(
                    "restored",
                    Value::Object(vec![
                        ("path".to_string(), Value::Str(path)),
                        ("tenants".to_string(), Value::U64(tenants)),
                    ]),
                )),
                Err(e @ ServeError::CorruptSnapshot { .. }) => {
                    ResponseAction::Reply(error_response(e.to_string()))
                }
                Err(e) => ResponseAction::Reply(error_response(e.to_string())),
            },
            Err(e) => ResponseAction::Reply(error_response(e.to_string())),
        },
        Request::Shutdown => ResponseAction::Shutdown(response("bye", Value::Object(vec![]))),
    }
}

enum ResponseAction {
    Reply(String),
    Shutdown(String),
}

/// Serves requests from `input` until EOF or a `shutdown` request.
/// Returns `true` if the loop ended on `shutdown` (vs. EOF).
pub fn serve_stream(
    session: &mut Session,
    mapper: &dyn Mapper,
    input: impl BufRead,
    out: &mut impl Write,
) -> Result<bool, CliError> {
    for line in input.lines() {
        let line = line.map_err(|e| CliError::Io(format!("reading request: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let action = match parse_request(&line) {
            Ok(request) => handle(session, mapper, request),
            Err(reason) => ResponseAction::Reply(error_response(reason)),
        };
        let (reply, shutdown) = match action {
            ResponseAction::Reply(r) => (r, false),
            ResponseAction::Shutdown(r) => (r, true),
        };
        writeln!(out, "{reply}").map_err(|e| CliError::Io(format!("writing response: {e}")))?;
        out.flush()
            .map_err(|e| CliError::Io(format!("flushing response: {e}")))?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The `serve` subcommand: builds the session and serves stdin/stdout or
/// a Unix socket until shutdown.
pub fn serve_cmd(p: &Parsed) -> Result<Vec<String>, CliError> {
    let phys: PhysicalTopology = read_json(p.required("phys").map_err(CliError::Usage)?)?;
    let mapper_name = p.optional("mapper").unwrap_or("hmn");
    let attempts: usize = p
        .parse_or("attempts", emumap_core::DEFAULT_MAX_ATTEMPTS)
        .map_err(CliError::Usage)?;
    let mapper = build_mapper(mapper_name, attempts)?;
    let seed: u64 = p.parse_or("seed", 2009).map_err(CliError::Usage)?;

    let mut session = Session::new(phys, seed);
    if let Some(path) = p.optional("trace") {
        let sink = emumap_trace::JsonlSink::create(path)
            .map_err(|e| CliError::Io(format!("creating {path}: {e}")))?;
        session.cache_mut().trace = emumap_trace::Tracer::new(Box::new(sink));
    }

    if let Some(socket) = p.optional("socket") {
        serve_socket(&mut session, mapper.as_ref(), socket)?;
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        serve_stream(&mut session, mapper.as_ref(), stdin.lock(), &mut out)?;
    }

    if let Some(mut sink) = session.cache_mut().trace.take_sink() {
        sink.flush()
            .map_err(|e| CliError::Io(format!("flushing trace: {e}")))?;
    }
    let counters = session.counters();
    eprintln!(
        "serve: {} requests ({} admitted, {} rejected, {} removed, {} active at exit)",
        session.requests_processed(),
        counters.admitted,
        counters.rejected,
        counters.removed,
        counters.active_tenants,
    );
    // stdout carried the responses; nothing further to print.
    Ok(Vec::new())
}

/// Serves connections on a Unix socket, one at a time, until a client
/// sends `shutdown`.
#[cfg(unix)]
fn serve_socket(session: &mut Session, mapper: &dyn Mapper, path: &str) -> Result<(), CliError> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener =
        UnixListener::bind(path).map_err(|e| CliError::Io(format!("binding {path}: {e}")))?;
    eprintln!("serve: listening on {path}");
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| CliError::Io(format!("accepting on {path}: {e}")))?;
        let reader = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| CliError::Io(format!("cloning connection: {e}")))?,
        );
        let mut writer = stream;
        if serve_stream(session, mapper, reader, &mut writer)? {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(_session: &mut Session, _mapper: &dyn Mapper, _path: &str) -> Result<(), CliError> {
    Err(CliError::Usage(
        "--socket requires a Unix platform".to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_core::MapCache;
    use emumap_model::{HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, StorGb, VmmOverhead};

    fn phys() -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &emumap_graph::generators::torus2d(3, 4),
            std::iter::repeat(HostSpec::new(Mips(2000.0), MemMb(2048), StorGb(2000.0))),
            LinkSpec::new(Kbps(100_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    /// Feeds `requests` through a session and returns the response lines.
    fn run_lines(session: &mut Session, requests: &[String]) -> Vec<String> {
        let mapper = build_mapper("hmn", 1).unwrap();
        let input = requests.join("\n");
        let mut out = Vec::new();
        serve_stream(session, mapper.as_ref(), input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn apply_gen(id: &str, guests: usize, seed: u64) -> String {
        format!(
            "{{\"apply\":{{\"id\":\"{id}\",\"workload\":\"high\",\"guests\":{guests},\"density\":0.1,\"seed\":{seed}}}}}"
        )
    }

    #[test]
    fn request_lifecycle_round_trips() {
        let mut session = Session::new(phys(), 1);
        let lines = run_lines(
            &mut session,
            &[
                apply_gen("a", 6, 11),
                apply_gen("b", 4, 12),
                "{\"remove\":{\"id\":\"a\"}}".to_string(),
                "{\"status\":{}}".to_string(),
                "{\"shutdown\":{}}".to_string(),
            ],
        );
        assert_eq!(lines.len(), 5);
        assert!(
            lines[0].starts_with("{\"applied\":{\"id\":\"a\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"applied\":{\"id\":\"b\""),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].starts_with("{\"removed\":{\"id\":\"a\""),
            "{}",
            lines[2]
        );
        assert!(lines[3].contains("\"tenants\":1"), "{}", lines[3]);
        assert!(lines[3].contains("\"leak\":0"), "{}", lines[3]);
        assert_eq!(lines[4], "{\"bye\":{}}");
    }

    /// An `apply` of two guests joined by one link, its venv inline, after
    /// `edit` has rewritten the venv's JSON.
    fn apply_pair(edit: impl Fn(String) -> String) -> String {
        use emumap_model::{GuestSpec, VLinkSpec};
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(50.0), MemMb(128), StorGb(100.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(50.0), MemMb(128), StorGb(100.0)));
        venv.add_link(a, b, VLinkSpec::new(Kbps(500.0), Millis(60.0)));
        let venv_json = edit(serde_json::to_string(&venv).unwrap());
        format!("{{\"apply\":{{\"id\":\"t\",\"venv\":{venv_json}}}}}")
    }

    #[test]
    fn inline_venvs_and_duplicate_rejection() {
        let mut session = Session::new(phys(), 1);
        let lines = run_lines(&mut session, &[apply_pair(|j| j), apply_pair(|j| j)]);
        assert!(lines[0].starts_with("{\"applied\":"), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"rejected\":"), "{}", lines[1]);
        assert!(lines[1].contains("duplicate"), "{}", lines[1]);
    }

    #[test]
    fn inline_venvs_with_inconsistent_graphs_get_error_responses() {
        let replace = |from: &'static str, to: &'static str| {
            apply_pair(move |json| {
                assert!(json.contains(from), "{json}");
                json.replace(from, to)
            })
        };
        let adjacency = "\"adjacency\":[[[1,0]],[[0,0]]]";
        let lines = run_lines(
            &mut Session::new(phys(), 1),
            &[
                replace(adjacency, "\"adjacency\":[[[1,0]]]"),
                replace(adjacency, "\"adjacency\":[[[1,0]],[[9,0]]]"),
                replace("\"a\":0,\"b\":1", "\"a\":0,\"b\":9"),
                apply_pair(|j| j),
            ],
        );
        assert_eq!(lines.len(), 4);
        for (line, field) in lines.iter().zip(["adjacency", "adjacency", "edges[0]"]) {
            assert!(
                line.starts_with("{\"error\":") && line.contains(field),
                "{line}"
            );
        }
        assert!(lines[3].starts_with("{\"applied\":"), "{}", lines[3]);
    }

    #[test]
    fn malformed_requests_do_not_kill_the_daemon() {
        let mut session = Session::new(phys(), 1);
        let lines = run_lines(
            &mut session,
            &[
                "not json at all".to_string(),
                "{\"fly\":{}}".to_string(),
                "{\"remove\":{\"id\":\"ghost\"}}".to_string(),
                "{\"apply\":{\"id\":\"x\",\"workload\":\"mid\",\"guests\":2,\"density\":0.5,\"seed\":1}}".to_string(),
                "{\"status\":{}}".to_string(),
            ],
        );
        assert_eq!(lines.len(), 5);
        for line in &lines[..4] {
            assert!(line.starts_with("{\"error\":"), "{line}");
        }
        assert!(lines[4].starts_with("{\"status\":"), "{}", lines[4]);
    }

    #[test]
    fn save_restore_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "emumap_serve_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.json").display().to_string();
        let mut session = Session::new(phys(), 9);
        let lines = run_lines(
            &mut session,
            &[
                apply_gen("a", 5, 3),
                format!("{{\"save\":{{\"path\":\"{snap}\"}}}}"),
            ],
        );
        assert!(lines[1].starts_with("{\"saved\":"), "{}", lines[1]);
        assert!(lines[1].contains("\"tenants\":1"), "{}", lines[1]);

        let mut fresh = Session::new(phys(), 9);
        let lines = run_lines(
            &mut fresh,
            &[
                format!("{{\"restore\":{{\"path\":\"{snap}\"}}}}"),
                "{\"status\":{}}".to_string(),
            ],
        );
        assert!(lines[0].starts_with("{\"restored\":"), "{}", lines[0]);
        assert!(lines[1].contains("\"tenants\":1"), "{}", lines[1]);
        assert_eq!(fresh.residual(), session.residual());

        // A corrupt snapshot is refused and reported.
        std::fs::write(&snap, "{\"version\":1,\"tenants\":\"zap\",\"counters\":{}}").unwrap();
        let lines = run_lines(
            &mut fresh,
            &[format!("{{\"restore\":{{\"path\":\"{snap}\"}}}}")],
        );
        assert!(lines[0].starts_with("{\"error\":"), "{}", lines[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The golden-file contract: identical request streams produce
    /// byte-identical response streams regardless of cache warmth.
    #[test]
    fn responses_are_byte_identical_across_cache_warmth() {
        let requests: Vec<String> = vec![
            apply_gen("a", 6, 21),
            apply_gen("b", 5, 22),
            "{\"remove\":{\"id\":\"a\"}}".to_string(),
            apply_gen("c", 7, 23),
            "{\"status\":{}}".to_string(),
            "{\"shutdown\":{}}".to_string(),
        ];
        let mut cold = Session::new(phys(), 77);
        let cold_lines = run_lines(&mut cold, &requests);

        let mut warm_cache = MapCache::new();
        let mapper = build_mapper("hmn", 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let spec = VirtualEnvSpec::high_level(8, 0.2);
        let warmup = spec.generate(&mut rng);
        let _ = mapper.map_with_cache(&phys(), &warmup, &mut rng, &mut warm_cache);
        let mut warm = Session::with_cache(phys(), 77, warm_cache);
        let warm_lines = run_lines(&mut warm, &requests);

        assert_eq!(cold_lines, warm_lines);
    }

    /// The CI soak, replayed in-process: the pinned 500-request churn
    /// trace on the 40-host torus (cluster seed 1) must reproduce the
    /// golden responses byte for byte, and its trace must keep the trace
    /// contract.
    #[test]
    fn soak_replay_matches_the_golden_responses_and_keeps_the_trace_contract() {
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");
        let dir = std::env::temp_dir().join(format!("emumap_soak_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let phys_path = dir.join("phys.json").display().to_string();
        let tokens = ["gen-cluster", "--topology", "torus", "--hosts", "40"];
        let tokens = tokens
            .into_iter()
            .chain(["--seed", "1", "--out", &phys_path]);
        crate::run(&Parsed::parse(tokens.map(str::to_string)).unwrap()).unwrap();

        // The pinned requests save and restore a snapshot at a relative
        // path; keep it inside the scratch directory.
        let pinned_snapshot = "soak/snapshot.json";
        let snapshot = dir.join("snapshot.json").display().to_string();
        let requests = std::fs::read_to_string(format!("{data}/serve_soak_requests.jsonl"))
            .unwrap()
            .replace(pinned_snapshot, &snapshot);
        let golden = std::fs::read_to_string(format!("{data}/serve_soak_golden.jsonl")).unwrap();

        let mut session = Session::new(read_json(&phys_path).unwrap(), 2009);
        let sink = emumap_trace::SharedSink::default();
        session.cache_mut().trace = emumap_trace::Tracer::new(Box::new(sink.clone()));
        let mapper = build_mapper("hmn", emumap_core::DEFAULT_MAX_ATTEMPTS).unwrap();
        let mut out = Vec::new();
        serve_stream(&mut session, mapper.as_ref(), requests.as_bytes(), &mut out).unwrap();
        let responses = String::from_utf8(out)
            .unwrap()
            .replace(&snapshot, pinned_snapshot);
        for (n, (got, want)) in responses.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "response {} differs from the golden file", n + 1);
        }
        assert_eq!(responses.lines().count(), golden.lines().count());
        assert_eq!(emumap_trace::check(&sink.events()), vec![]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
