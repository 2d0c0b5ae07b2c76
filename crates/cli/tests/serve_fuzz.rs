//! Fuzzes `emumap serve` at its two trust boundaries, request bytes and
//! snapshot files. Windows of the pinned soak trace
//! (`tests/data/serve_soak_requests.jsonl`) go through `serve_stream` one
//! line at a time, some `apply` lines rewritten with the same tenant's venv
//! inline, some lines byte-mutated and some replaced by a restore of a
//! byte-mutated snapshot. After each line nothing has panicked, a
//! non-blank line got exactly one response and a blank one none, the
//! response is a one-key JSON object, and the residuals are bitwise equal
//! to a from-scratch rebuild of the tenants. `PROPTEST_CASES` raises the
//! case count (CI runs 256); pin a failing seed in
//! `proptest-regressions/serve_fuzz.txt`.

use std::sync::OnceLock;

use emumap_cli::serve::{serve_stream, Served};
use emumap_core::{build_mapper, MapperConfig, Session, Snapshot, DEFAULT_MAX_ATTEMPTS};
use emumap_model::{PhysicalTopology, ResidualState};
use emumap_workloads::{ClusterSpec, VirtualEnvSpec};
use proptest::prelude::*;
use proptest::TestRng;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Value};

#[path = "../../../tests/pinned/mod.rs"]
mod pinned;

/// The soak's session seed (`emumap serve`'s default `--seed`).
const SEED: u64 = 2009;
/// Soak lines between two checkpoint snapshots.
const CHECKPOINT_EVERY: usize = 50;
/// Bytes a mutation favours: JSON's structure, digits and signs.
const JSON_BYTES: &[u8] = b"{}[]\":,-+.0123456789eE tfnul\\";

/// The soak's cluster (`gen-cluster --seed 1`) and request lines, with a
/// snapshot of its unmutated replay every [`CHECKPOINT_EVERY`] lines.
fn soak() -> &'static (PhysicalTopology, Vec<String>, Vec<Snapshot>) {
    static SOAK: OnceLock<(PhysicalTopology, Vec<String>, Vec<Snapshot>)> = OnceLock::new();
    SOAK.get_or_init(|| {
        let spec = ClusterSpec::paper();
        let phys = spec.build(ClusterSpec::paper_torus(), &mut TestRng::seed_from_u64(1));
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");
        let requests = std::fs::read_to_string(format!("{data}/serve_soak_requests.jsonl"));
        let lines: Vec<String> = requests.unwrap().lines().map(str::to_string).collect();
        let (dir, mut session) = (scratch("soak"), Session::new(phys.clone(), SEED));
        let mut checkpoints = Vec::new();
        for (n, line) in lines.iter().enumerate() {
            if n % CHECKPOINT_EVERY == 0 {
                checkpoints.push(session.snapshot());
            }
            feed(&mut session, line.replace("soak", &dir).as_bytes());
        }
        let _ = std::fs::remove_dir_all(dir);
        (phys, lines, checkpoints)
    })
}

/// A fresh scratch directory unique to this process and `name`.
fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("emumap_fuzz_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.display().to_string()
}

/// The bit patterns of every residual column.
fn bits(phys: &PhysicalTopology, r: &ResidualState) -> Vec<u64> {
    let bw = phys.graph().edge_ids().map(|e| r.bw(e).value());
    let floats = r.proc_column().iter().chain(r.stor_column()).copied();
    let mem = r.mem_column().iter().copied();
    floats.chain(bw).map(f64::to_bits).chain(mem).collect()
}

/// Feeds one line through `serve_stream` and checks the response and the
/// residuals.
fn feed(session: &mut Session, line: &[u8]) {
    let config = MapperConfig {
        max_attempts: DEFAULT_MAX_ATTEMPTS,
    };
    let mapper = build_mapper("hmn", &config).unwrap();
    let (mut out, mut served) = (Vec::new(), Served::default());
    serve_stream(session, mapper.as_ref(), line, &mut out, &mut served).unwrap();
    let (out, request) = (
        String::from_utf8(out).unwrap(),
        String::from_utf8_lossy(line),
    );
    let blank = std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty());
    assert_eq!(
        out.lines().count(),
        usize::from(!blank),
        "{request} -> {out}"
    );
    assert_eq!(served.requests, out.lines().count() as u64);
    for response in out.lines() {
        let value = serde_json::value_from_str(response);
        let one_key = matches!(value, Ok(Value::Object(ref pairs)) if pairs.len() == 1);
        assert!(one_key, "{request} -> {response}");
    }
    let snapshot = session.snapshot();
    let tenants = snapshot.tenants.iter().map(|t| (&t.venv, &t.mapping));
    let rebuilt = ResidualState::rebuilt(session.phys(), tenants).unwrap();
    let residual = bits(session.phys(), session.residual());
    assert_eq!(residual, bits(session.phys(), &rebuilt), "after {request}");
}

/// A generator-form `apply` line rewritten with the venv it generates
/// inline, so that it admits the same tenant; `None` for any other line.
fn inline_form(line: &str) -> Option<String> {
    let value = serde_json::value_from_str(line).ok()?;
    let body = value.get("apply")?;
    let id = String::from_value(body.get("id")?).ok()?;
    let guests = usize::from_value(body.get("guests")?).ok()?;
    let density = f64::from_value(body.get("density")?).ok()?;
    let seed = u64::from_value(body.get("seed")?).ok()?;
    let spec = match String::from_value(body.get("workload")?).ok()?.as_str() {
        "high" => VirtualEnvSpec::high_level(guests, density),
        _ => VirtualEnvSpec::low_level(guests, density),
    };
    let venv = serde_json::to_string(&spec.generate(&mut SmallRng::seed_from_u64(seed))).ok()?;
    Some(format!("{{\"apply\":{{\"id\":\"{id}\",\"venv\":{venv}}}}}"))
}

/// Applies up to `max` random byte edits (replace, insert or delete),
/// skipping any that would write a newline unless `newlines`.
fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>, max: usize, newlines: bool) {
    for _ in 0..rng.gen_range(1..=max) {
        let byte = match rng.gen_bool(0.5) {
            true => JSON_BYTES[rng.gen_range(0..JSON_BYTES.len())],
            false => rng.gen::<u32>() as u8,
        };
        if byte == b'\n' && !newlines {
            continue;
        }
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..3) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => drop(bytes.remove(at)),
            _ => bytes.insert(at, byte),
        }
    }
}

/// From a random checkpoint, replays up to 40 soak lines. A fifth of them
/// become a restore of a mutated checkpoint. Of the rest, a third of the
/// `apply` lines take their inline form, and then a third of the lines are
/// mutated. `save` lines stay intact, so files are written only in the
/// scratch directory.
fn fuzz_case(seed: u64) {
    let ((phys, lines, checkpoints), rng) = (soak(), &mut TestRng::seed_from_u64(seed));
    let dir = scratch(&format!("{seed:x}"));
    let k = rng.gen_range(0..checkpoints.len());
    let mut session = Session::new(phys.clone(), SEED);
    session.restore(checkpoints[k].clone()).unwrap();
    for line in lines[k * CHECKPOINT_EVERY..]
        .iter()
        .take(rng.gen_range(1..=40))
    {
        let mut bytes = line.replace("soak", &dir).into_bytes();
        if rng.gen_bool(0.2) {
            let snapshot = &checkpoints[rng.gen_range(0..checkpoints.len())];
            let mut file = serde_json::to_string(snapshot).unwrap().into_bytes();
            mutate(rng, &mut file, 4, true);
            std::fs::write(format!("{dir}/mutated.json"), file).unwrap();
            bytes = format!("{{\"restore\":{{\"path\":\"{dir}/mutated.json\"}}}}").into_bytes();
        } else if !line.starts_with("{\"save\"") {
            if let Some(inline) = inline_form(line).filter(|_| rng.gen_bool(0.35)) {
                bytes = inline.into_bytes();
            }
            if rng.gen_bool(0.35) {
                mutate(rng, &mut bytes, 3, false);
            }
        }
        feed(&mut session, &bytes);
    }
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn mutated_requests_and_snapshots_get_one_response_and_keep_residuals_canonical(
        seed in any::<u64>()
    ) {
        fuzz_case(seed);
    }
}

/// The soak with every `apply` in its inline form passes each checkpoint
/// in the same state: the inline form admits the same tenant.
#[test]
fn inline_applies_replay_the_soak() {
    let (phys, lines, checkpoints) = soak();
    let (dir, mut session) = (scratch("inline"), Session::new(phys.clone(), SEED));
    let mut inlined = 0;
    for (n, line) in lines.iter().enumerate() {
        if n % CHECKPOINT_EVERY == 0 {
            let want = serde_json::to_string(&checkpoints[n / CHECKPOINT_EVERY]).unwrap();
            assert_eq!(
                serde_json::to_string(&session.snapshot()).unwrap(),
                want,
                "line {n}"
            );
        }
        let line = inline_form(line)
            .inspect(|_| inlined += 1)
            .unwrap_or(line.clone());
        feed(&mut session, line.replace("soak", &dir).as_bytes());
    }
    assert!(inlined > 0, "the soak has generator-form applies");
    let _ = std::fs::remove_dir_all(dir);
}

/// Replays every case pinned in `proptest-regressions/serve_fuzz.txt`.
#[test]
fn regression_seeds_replay() {
    let pinned = include_str!("../../../proptest-regressions/serve_fuzz.txt");
    for (name, mut rng) in pinned::pinned_cases(pinned) {
        match name {
            "mutated_requests_and_snapshots_get_one_response_and_keep_residuals_canonical" => {
                fuzz_case(any::<u64>().generate(&mut rng))
            }
            other => panic!("regression file pins unknown test '{other}'"),
        }
    }
}
