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

use std::io::{BufRead, Read, Write};

use crate::args::Parsed;
use crate::commands::{
    build_mapper, generate_venv, read_json, read_phys, traced, write_json, CliError, DEFAULT_SEED,
    MAX_GUESTS, MAX_VIRTUAL_LINKS,
};
use emumap_core::serve::{ApplyOutcome, Session, Snapshot};
use emumap_core::Mapper;
use emumap_model::VirtualEnvironment;
use serde::{Deserialize, Serialize, Value};

/// One parsed request: `apply` and `remove` name a tenant id, `save` and
/// `restore` a snapshot path.
enum Request {
    Apply(String, VirtualEnvironment),
    Remove(String),
    Status,
    Save(String),
    Restore(String),
    Shutdown,
}

/// A request body whose fields are removed as they are read, so
/// [`finish`](Body::finish) can name any field no reader took.
struct Body {
    verb: String,
    fields: Vec<(String, Value)>,
}

impl Body {
    fn optional<T: Deserialize>(&mut self, key: &str) -> Result<Option<T>, String> {
        let Some(i) = self.fields.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        let value = self.fields.remove(i).1;
        T::from_value(&value)
            .map(Some)
            .map_err(|e| format!("{}.{key}: {e}", self.verb))
    }

    fn field<T: Deserialize>(&mut self, key: &str) -> Result<T, String> {
        self.optional(key)?
            .ok_or_else(|| format!("{}: missing field \"{key}\"", self.verb))
    }

    fn finish(self) -> Result<(), String> {
        match self.fields.first() {
            Some((key, _)) => Err(format!("{}: unexpected field \"{key}\"", self.verb)),
            None => Ok(()),
        }
    }
}

/// An `apply` carries an inline `venv` or the `gen-venv` generator
/// fields, never both.
fn apply_request(mut body: Body) -> Result<Request, String> {
    let id = body.field("id")?;
    let venv = match body.optional::<VirtualEnvironment>("venv")? {
        Some(venv) => {
            body.finish()?;
            inline_size(venv.guest_count(), venv.link_count())?;
            venv
        }
        None => {
            let workload: String = body.field("workload")?;
            let guests = body.field("guests")?;
            let density = body.field("density")?;
            let seed = body.field("seed")?;
            body.finish()?;
            generate_venv("apply.", &workload, guests, density, seed)?
        }
    };
    Ok(Request::Apply(id, venv))
}

/// Holds an inline `venv` of `guests` guests and `links` links to the
/// limits of the generator form.
fn inline_size(guests: usize, links: usize) -> Result<(), String> {
    if guests > MAX_GUESTS {
        return Err(format!(
            "apply.venv has {guests} guests, more than the limit of {MAX_GUESTS}"
        ));
    }
    if links > MAX_VIRTUAL_LINKS {
        return Err(format!(
            "apply.venv has {links} virtual links, more than the limit of {MAX_VIRTUAL_LINKS}"
        ));
    }
    Ok(())
}

fn parse_request(line: &str) -> Result<Request, String> {
    let value = serde_json::value_from_str(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let Value::Object(pairs) = value else {
        return Err(format!("request must be an object, found {}", value.kind()));
    };
    let [(verb, body)] = <[_; 1]>::try_from(pairs).map_err(|pairs: Vec<_>| {
        format!(
            "request must have exactly one verb key, found {}",
            pairs.len()
        )
    })?;
    let Value::Object(fields) = body else {
        return Err(format!("{verb}: expected object, found {}", body.kind()));
    };
    let mut body = Body { verb, fields };
    let request = match body.verb.as_str() {
        "apply" => return apply_request(body),
        "remove" => Request::Remove(body.field("id")?),
        "status" => Request::Status,
        "save" => Request::Save(body.field("path")?),
        "restore" => Request::Restore(body.field("path")?),
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown verb \"{other}\"")),
    };
    body.finish()?;
    Ok(request)
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

/// The `saved` / `restored` response.
fn snapshot_response(verb: &str, path: String, tenants: u64) -> String {
    response(
        verb,
        Value::Object(vec![
            ("path".to_string(), Value::Str(path)),
            ("tenants".to_string(), Value::U64(tenants)),
        ]),
    )
}

/// Executes one request, returning the response line.
fn handle(session: &mut Session, mapper: &dyn Mapper, request: Request) -> String {
    match request {
        Request::Apply(id, venv) => match session.apply(&id, venv, mapper) {
            ApplyOutcome::Admitted(report) => response("applied", with_id(&id, report.to_value())),
            ApplyOutcome::Rejected { reason } => {
                let reason = vec![("reason".to_string(), Value::Str(reason))];
                response("rejected", with_id(&id, Value::Object(reason)))
            }
        },
        Request::Remove(id) => match session.remove(&id) {
            Ok(report) => response("removed", with_id(&id, report.to_value())),
            Err(e) => error_response(e.to_string()),
        },
        Request::Status => response("status", session.status().to_value()),
        Request::Save(path) => {
            let snapshot = session.snapshot();
            match write_json(&path, &snapshot) {
                Ok(()) => snapshot_response("saved", path, snapshot.tenants.len() as u64),
                Err(e) => error_response(e.to_string()),
            }
        }
        Request::Restore(path) => match read_json::<Snapshot>(&path) {
            Ok(snapshot) => match session.restore(snapshot) {
                Ok(tenants) => snapshot_response("restored", path, tenants),
                Err(e) => error_response(e.to_string()),
            },
            Err(e) => error_response(e.to_string()),
        },
        Request::Shutdown => response("bye", Value::Object(vec![])),
    }
}

/// What [`serve_stream`] answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Served {
    /// Request lines answered, one response each.
    pub requests: u64,
    /// Of those, lines that are not a well-formed request, answered with
    /// an `error` naming the problem.
    pub malformed: u64,
    /// `true` if the stream ended on `shutdown` (vs. EOF).
    pub shutdown: bool,
}

/// The longest request line `serve` reads, newline excluded. A
/// 10 000-guest `gen-venv` file is 7.7 MB, so inline venvs fit with room
/// to spare.
pub const MAX_REQUEST_BYTES: usize = 64 << 20;

/// One line of request bytes, as [`read_request`] found it.
enum Line {
    /// The line is in the buffer, newline stripped.
    Read,
    /// The line ran past [`MAX_REQUEST_BYTES`]; the rest of it was skipped.
    TooLong,
    /// The input is exhausted.
    Eof,
}

/// Reads the next line of `input` into `buf`, holding at most
/// [`MAX_REQUEST_BYTES`] + 1 bytes of it; a longer line's remainder is
/// consumed without being buffered.
fn read_request(input: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Line> {
    buf.clear();
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    if input.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_REQUEST_BYTES {
        input.skip_until(b'\n')?;
        return Ok(Line::TooLong);
    }
    Ok(Line::Read)
}

/// Serves requests from `input` until EOF or a `shutdown` request,
/// counting the request lines it answers into `served` — on an I/O error
/// too, which ends the stream. A line that is not UTF-8 or longer than
/// [`MAX_REQUEST_BYTES`] is answered with an `error` like any other
/// malformed request.
pub fn serve_stream(
    session: &mut Session,
    mapper: &dyn Mapper,
    mut input: impl BufRead,
    out: &mut impl Write,
    served: &mut Served,
) -> Result<(), CliError> {
    let mut buf = Vec::new();
    loop {
        let line = read_request(&mut input, &mut buf)
            .map_err(|e| CliError::Io(format!("reading request: {e}")))?;
        let request = match line {
            Line::Eof => break,
            Line::TooLong => Err(format!(
                "request line is longer than {MAX_REQUEST_BYTES} bytes"
            )),
            Line::Read => match std::str::from_utf8(&buf) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => parse_request(text),
                Err(e) => Err(format!("request line is not UTF-8: {e}")),
            },
        };
        served.requests += 1;
        served.shutdown = matches!(request, Ok(Request::Shutdown));
        let reply = match request {
            Ok(request) => handle(session, mapper, request),
            Err(reason) => {
                served.malformed += 1;
                error_response(reason)
            }
        };
        writeln!(out, "{reply}").map_err(|e| CliError::Io(format!("writing response: {e}")))?;
        out.flush()
            .map_err(|e| CliError::Io(format!("flushing response: {e}")))?;
        if served.shutdown {
            break;
        }
    }
    Ok(())
}

/// The `serve` subcommand: builds the session and serves stdin/stdout or
/// a Unix socket until shutdown.
pub fn serve_cmd(mut p: Parsed) -> Result<Vec<String>, CliError> {
    let phys_path = p.required("phys")?;
    let attempts = p.count("attempts", emumap_core::DEFAULT_MAX_ATTEMPTS)?;
    let mapper = build_mapper(p.optional("mapper").as_deref().unwrap_or("hmn"), attempts)?;
    let seed: u64 = p.parse_or("seed", DEFAULT_SEED)?;
    let socket = p.optional("socket");
    let trace = p.optional("trace");
    p.finish()?;
    let phys = read_phys(&phys_path)?;

    let (mut session, mapper) = (Session::new(phys, seed), mapper.as_ref());
    let serve = |session: &mut Session| match &socket {
        Some(socket) => serve_socket(session, mapper, socket),
        None => {
            let (stdin, mut stdout) = (std::io::stdin().lock(), std::io::stdout().lock());
            let mut served = Served::default();
            serve_stream(session, mapper, stdin, &mut stdout, &mut served).map(|()| served)
        }
    };
    let served = traced(&mut session, Session::cache_mut, trace.as_deref(), serve)??;
    let counters = session.counters();
    eprintln!(
        "serve: {} requests ({} malformed, {} admitted, {} rejected, {} removed, {} active at exit)",
        served.requests,
        served.malformed,
        counters.admitted,
        counters.rejected,
        counters.removed,
        counters.active_tenants,
    );
    // stdout carried the responses; nothing further to print.
    Ok(Vec::new())
}

/// Serves connections on a Unix socket, one at a time, until a client
/// sends `shutdown`; the tally covers every connection. An I/O error on
/// one connection — a client that hangs up before reading its response,
/// say — ends that connection only, with a line on stderr.
#[cfg(unix)]
fn serve_socket(
    session: &mut Session,
    mapper: &dyn Mapper,
    path: &str,
) -> Result<Served, CliError> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would fail the bind.
    remove_socket_file(path)?;
    let listener =
        UnixListener::bind(path).map_err(|e| CliError::Io(format!("binding {path}: {e}")))?;
    eprintln!("serve: listening on {path}");
    let mut total = Served::default();
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| CliError::Io(format!("accepting on {path}: {e}")))?;
        let served = stream
            .try_clone()
            .map_err(|e| CliError::Io(format!("cloning connection: {e}")))
            .and_then(|reader| {
                let mut writer = stream;
                let reader = std::io::BufReader::new(reader);
                serve_stream(session, mapper, reader, &mut writer, &mut total)
            });
        if let Err(e) = served {
            eprintln!("serve: connection closed: {e}");
        } else if total.shutdown {
            break;
        }
    }
    let _ = remove_socket_file(path);
    Ok(total)
}

/// Unlinks `path` if it is a socket; any other file there is an error and
/// stays where it is.
#[cfg(unix)]
fn remove_socket_file(path: &str) -> Result<(), CliError> {
    use std::os::unix::fs::FileTypeExt;
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path)
            .map_err(|e| CliError::Io(format!("removing stale socket {path}: {e}"))),
        Ok(_) => Err(CliError::Io(format!(
            "--socket {path}: the path exists and is not a socket"
        ))),
        // Nothing there, or nothing we may look at: the bind reports it.
        Err(_) => Ok(()),
    }
}

#[cfg(not(unix))]
fn serve_socket(
    _session: &mut Session,
    _mapper: &dyn Mapper,
    _path: &str,
) -> Result<Served, CliError> {
    Err(CliError::Usage(
        "--socket requires a Unix platform".to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_core::MapCache;
    use emumap_model::{
        HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb, VmmOverhead,
    };
    use emumap_workloads::VirtualEnvSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
        let mut served = Served::default();
        serve_stream(
            session,
            mapper.as_ref(),
            input.as_bytes(),
            &mut out,
            &mut served,
        )
        .unwrap();
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
        let apply_guests_at = |guests: usize, density: &str| {
            format!("{{\"apply\":{{\"id\":\"d\",\"workload\":\"high\",\"guests\":{guests},\"density\":{density},\"seed\":1}}}}")
        };
        let apply_at = |density: &str| apply_guests_at(4, density);
        let with_generator = apply_pair(|j| j).replacen(
            "{\"apply\":{",
            "{\"apply\":{\"workload\":\"high\",\"guests\":3,\"density\":0.1,\"seed\":1,",
            1,
        );
        // Each bad request with the text its error must contain.
        let bad = [
            ("not json at all".to_string(), "JSON"),
            ("{\"fly\":{}}".to_string(), "fly"),
            ("{\"remove\":{\"id\":\"ghost\"}}".to_string(), "ghost"),
            ("{\"apply\":{\"id\":\"x\",\"workload\":\"mid\",\"guests\":2,\"density\":0.5,\"seed\":1}}".to_string(), "workload"),
            (apply_at("1.5"), "density"),
            (apply_at("-0.1"), "density"),
            ("{\"remove\":{\"id\":\"t1\",\"force\":true}}".to_string(), "force"),
            ("{\"status\":{\"verbose\":true}}".to_string(), "verbose"),
            (with_generator, "workload"),
            (
                "{\"apply\":{\"id\":\"d\",\"workload\":\"high\",\"guests\":18446744073709551615,\"density\":1,\"seed\":1}}".to_string(),
                "apply.guests must be at most 100000",
            ),
            (apply_guests_at(100_000, "1"), "more than the limit of 1000000"),
            (
                apply_guests_inline(MAX_GUESTS + 1),
                "apply.venv has 100001 guests, more than the limit of 100000",
            ),
        ];
        let mut requests: Vec<String> = bad.iter().map(|(r, _)| r.clone()).collect();
        requests.push("{\"status\":{}}".to_string());
        let lines = run_lines(&mut Session::new(phys(), 1), &requests);
        assert_eq!(lines.len(), bad.len() + 1);
        for (line, (request, names)) in lines.iter().zip(&bad) {
            assert!(
                line.starts_with("{\"error\":") && line.contains(names),
                "{request} -> {line}"
            );
        }
        let status = lines.last().unwrap();
        assert!(status.starts_with("{\"status\":"), "{status}");
        assert!(status.contains("\"tenants\":0"), "{status}");
    }

    /// An `apply` whose inline venv has `guests` guests and no links.
    fn apply_guests_inline(guests: usize) -> String {
        use emumap_model::GuestSpec;
        let mut venv = VirtualEnvironment::new();
        for _ in 0..guests {
            venv.add_guest(GuestSpec::new(Mips(50.0), MemMb(128), StorGb(100.0)));
        }
        let venv_json = serde_json::to_string(&venv).unwrap();
        format!("{{\"apply\":{{\"id\":\"big\",\"venv\":{venv_json}}}}}")
    }

    #[test]
    fn inline_venvs_are_held_to_the_generator_limits() {
        assert_eq!(inline_size(MAX_GUESTS, MAX_VIRTUAL_LINKS), Ok(()));
        assert_eq!(
            inline_size(2, MAX_VIRTUAL_LINKS + 1),
            Err("apply.venv has 1000001 virtual links, more than the limit of 1000000".to_string())
        );
    }

    #[test]
    fn serve_stream_counts_every_request_line_it_answers() {
        // Seven malformed requests and a status, as CI pipes them into
        // `emumap serve`; a blank line is not a request.
        let mut input = [
            r#"{"apply":{"id":"a","workload":"high","guests":4,"density":1.5,"seed":1}}"#,
            r#"{"apply":{"id":"b","workload":"high","guests":4,"density":-0.1,"seed":1}}"#,
            r#"{"apply":{"id":"c","workload":"high","guests":18446744073709551615,"density":1,"seed":1}}"#,
            r#"{"remove":{"id":"t1","force":true}}"#,
            r#"{"fly":{}}"#,
            "",
            "not json",
        ]
        .join("\n")
        .into_bytes();
        input.extend_from_slice(b"\n\xff\xfe\n{\"status\":{}}");
        let mapper = build_mapper("hmn", 1).unwrap();
        let mut out = Vec::new();
        let mut session = Session::new(phys(), 1);
        let mut served = Served::default();
        serve_stream(
            &mut session,
            mapper.as_ref(),
            &input[..],
            &mut out,
            &mut served,
        )
        .unwrap();
        assert_eq!(
            served,
            Served {
                requests: 8,
                malformed: 7,
                shutdown: false
            }
        );
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 8);
    }

    #[test]
    fn bad_bytes_and_overlong_lines_get_one_error_each() {
        let status = &b"{\"status\":{}}\n"[..];
        let input = status
            .chain(&b"\xff\xfe\n"[..])
            .chain(std::io::repeat(b'x').take(MAX_REQUEST_BYTES as u64 + 4096))
            .chain(&b"\n"[..])
            .chain(status);
        let mapper = build_mapper("hmn", 1).unwrap();
        let mut out = Vec::new();
        let mut served = Served::default();
        let mut session = Session::new(phys(), 1);
        let input = std::io::BufReader::new(input);
        serve_stream(&mut session, mapper.as_ref(), input, &mut out, &mut served).unwrap();
        assert_eq!((served.requests, served.malformed), (4, 2));
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].starts_with("{\"status\":"), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"error\":") && lines[1].contains("UTF-8"));
        assert!(lines[2].starts_with("{\"error\":") && lines[2].contains("longer than"));
        assert!(lines[3].starts_with("{\"status\":"), "{}", lines[3]);
    }

    #[cfg(unix)]
    #[test]
    fn a_client_that_hangs_up_does_not_end_the_socket_daemon() {
        use std::os::unix::net::UnixStream;
        let path = std::env::temp_dir()
            .join(format!("emumap_serve_hangup_{}.sock", std::process::id()))
            .display()
            .to_string();
        let mapper = build_mapper("hmn", 1).unwrap();
        let mut session = Session::new(phys(), 1);
        let clients = std::thread::spawn({
            let path = path.clone();
            move || {
                let connect = || loop {
                    match UnixStream::connect(&path) {
                        Ok(stream) => return stream,
                        Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
                    }
                };
                // Hang up before the response to `apply` is written.
                let mut client = connect();
                writeln!(client, "{}", apply_gen("t1", 4, 1)).unwrap();
                drop(client);
                let mut client = connect();
                client
                    .write_all(b"{\"status\":{}}\n{\"shutdown\":{}}\n")
                    .unwrap();
                let mut replies = String::new();
                client.read_to_string(&mut replies).unwrap();
                replies
            }
        });
        let total = serve_socket(&mut session, mapper.as_ref(), &path).unwrap();
        let replies = clients.join().unwrap();
        assert!(total.shutdown);
        assert_eq!(total.requests, 3);
        let status = replies.lines().next().unwrap();
        assert!(status.contains("\"tenants\":1"), "{status}");
    }

    #[cfg(unix)]
    #[test]
    fn the_socket_daemon_never_deletes_a_file_that_is_not_a_socket() {
        let path = std::env::temp_dir()
            .join(format!("emumap_serve_notes_{}.txt", std::process::id()))
            .display()
            .to_string();
        std::fs::write(&path, "notes").unwrap();
        let mapper = build_mapper("hmn", 1).unwrap();
        let mut session = Session::new(phys(), 1);
        match serve_socket(&mut session, mapper.as_ref(), &path) {
            Err(CliError::Io(e)) => assert!(e.contains(&path) && e.contains("not a socket"), "{e}"),
            other => panic!("expected an I/O error: {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "notes");
        std::fs::remove_file(&path).unwrap();
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
        crate::run(Parsed::parse(tokens.map(str::to_string)).unwrap()).unwrap();

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
        let mut served = Served::default();
        serve_stream(
            &mut session,
            mapper.as_ref(),
            requests.as_bytes(),
            &mut out,
            &mut served,
        )
        .unwrap();
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
