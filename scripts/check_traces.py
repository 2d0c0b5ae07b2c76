#!/usr/bin/env python3
"""Validate trace JSONL files produced by `emumap map --trace`,
`emumap batch --trace-dir`, and `emumap serve --trace`.

Usage: check_traces.py PATH [PATH ...]

Each PATH is a trace file or a directory scanned for `*.jsonl`. For every
file this asserts the structural contract CI relies on:

  * the file is non-empty and every line is a JSON object with exactly one
    recognized event tag;
  * the stream opens with MapStart and closes with MapEnd;
  * PhaseStart/PhaseEnd pairs are properly bracketed (no overlap, End
    matches the open phase) and phases appear in pipeline order;
  * PhaseEnd carries non-negative integer timings and counters;
  * a Migration PhaseEnd satisfies the delta-evaluation invariant:
    every evaluated proposal performs at least one incremental probe, so
    delta_evaluations >= proposals_evaluated (the annealer probes twice
    per proposal when its bandwidth term is on; the Migration stage
    exactly once);
  * a parallel-tempering trace (MapStart mapper "PT") satisfies the
    exchange invariant: its Migration PhaseEnd reports
    replica_exchanges > 0 (a multi-replica run that never attempts an
    exchange is plain multi-start, not tempering) and
    exchange_accepts <= replica_exchanges;
  * a successful randomized-rounding trace (MapStart mapper "RR",
    MapEnd ok) satisfies the rounding invariant: its Hosting PhaseEnd
    reports lp_iterations >= 1 and rounding_attempts >= 1 (a placement
    that never solved the LP or never sampled it is not a rounding run);
  * an oracle trace satisfies the bound contract on its Exact PhaseEnd:
    nodes_pruned_lagrangian <= exact_nodes_pruned always; a successful
    Lagrangian-bound run (MapStart mapper "EXACT", MapEnd ok) reports
    subgradient_iters >= max(1, exact_nodes_expanded) (every expanded
    node prices at least one dual evaluation — a run that never touched
    the dual silently fell back to water-filling); a water-filling run
    (mapper "EXACT-WF") reports all three Lagrangian counters zero.

A file containing RequestStart/RequestEnd events is a **serve stream**
(one span per daemon request) and is held to the session contract
instead:

  * RequestStart/RequestEnd pairs are properly bracketed, with
    consecutive seq numbers and no events between requests;
  * Apply/Remove spans name a tenant; only Apply spans may contain
    embedded MapStart..MapEnd segments, each of which must satisfy the
    full map contract above;
  * RequestEnd counters carry exactly the session counter keys, all
    non-negative; admitted/rejected/removed are monotonically
    non-decreasing (re-baselined across Restore spans, which install
    the snapshot's counters wholesale), removals never exceed
    admissions, and
    active_tenants == admitted - removed at every span (the
    admit/release bookkeeping can never leak a tenant).

Exits non-zero with one line per violation, so a CI failure names the file
and line.
"""

import json
import pathlib
import sys

EVENT_TAGS = {
    "MapStart",
    "PhaseStart",
    "PhaseEnd",
    "LinkIntraHost",
    "LinkRouted",
    "LinkFailed",
    "MapEnd",
}
SERVE_TAGS = {"RequestStart", "RequestEnd"}
PHASE_ORDER = ["Hosting", "Migration", "Networking", "Exact"]
REQUEST_KINDS = {"Apply", "Remove", "Status", "Save", "Restore"}
SERVE_COUNTER_KEYS = {
    "admitted",
    "rejected",
    "removed",
    "active_tenants",
    "placed_guests",
    "routed_links",
}


def check_file(path: pathlib.Path) -> list[str]:
    errors: list[str] = []
    lines = path.read_text().splitlines()
    if not lines:
        return [f"{path}: empty trace"]

    events = []
    for i, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{path}:{i}: not JSON: {e}")
            continue
        if not isinstance(obj, dict) or len(obj) != 1:
            errors.append(f"{path}:{i}: expected a single-key event object")
            continue
        tag = next(iter(obj))
        if tag not in EVENT_TAGS | SERVE_TAGS:
            errors.append(f"{path}:{i}: unknown event tag {tag!r}")
            continue
        events.append((i, tag, obj[tag]))

    if not events:
        return errors or [f"{path}: no events"]

    if any(tag in SERVE_TAGS for _, tag, _ in events):
        errors.extend(check_serve_stream(path, events))
    else:
        errors.extend(check_map_stream(path, events))
    return errors


def check_map_stream(path: pathlib.Path, events: list) -> list[str]:
    """One mapper run: MapStart .. MapEnd with bracketed, ordered phases."""
    errors: list[str] = []
    if events[0][1] != "MapStart":
        errors.append(f"{path}:{events[0][0]}: stream must open with MapStart")
    if events[-1][1] != "MapEnd":
        errors.append(f"{path}:{events[-1][0]}: stream must close with MapEnd")

    mapper = events[0][2].get("mapper") if events[0][1] == "MapStart" else None
    map_ok = events[-1][2].get("ok") if events[-1][1] == "MapEnd" else None
    open_phase = None
    last_phase_index = -1
    for i, tag, body in events:
        if tag == "PhaseStart":
            if open_phase is not None:
                errors.append(f"{path}:{i}: PhaseStart while {open_phase} is open")
            open_phase = body.get("phase")
            if open_phase not in PHASE_ORDER:
                errors.append(f"{path}:{i}: unknown phase {open_phase!r}")
        elif tag == "PhaseEnd":
            phase = body.get("phase")
            if phase != open_phase:
                errors.append(
                    f"{path}:{i}: PhaseEnd({phase}) does not match open phase {open_phase}"
                )
            open_phase = None
            if phase in PHASE_ORDER:
                idx = PHASE_ORDER.index(phase)
                if idx < last_phase_index:
                    errors.append(f"{path}:{i}: phase {phase} out of pipeline order")
                last_phase_index = idx
            elapsed = body.get("elapsed_us")
            if not isinstance(elapsed, int) or elapsed < 0:
                errors.append(f"{path}:{i}: bad elapsed_us {elapsed!r}")
            counters = body.get("counters")
            if not isinstance(counters, dict) or any(
                not isinstance(v, int) or v < 0 for v in counters.values()
            ):
                errors.append(f"{path}:{i}: bad counters {counters!r}")
            elif phase == "Migration":
                proposals = counters.get("proposals_evaluated", 0)
                deltas = counters.get("delta_evaluations", 0)
                if deltas < proposals:
                    errors.append(
                        f"{path}:{i}: delta_evaluations {deltas} < "
                        f"proposals_evaluated {proposals} (each evaluated "
                        "proposal must use at least one incremental probe)"
                    )
                exchanges = counters.get("replica_exchanges", 0)
                accepts = counters.get("exchange_accepts", 0)
                if accepts > exchanges:
                    errors.append(
                        f"{path}:{i}: exchange_accepts {accepts} > "
                        f"replica_exchanges {exchanges}"
                    )
                if mapper == "PT" and exchanges == 0:
                    errors.append(
                        f"{path}:{i}: PT trace attempted no replica "
                        "exchanges (multi-start, not tempering)"
                    )
            elif phase == "Hosting" and mapper == "RR" and map_ok:
                # A successful RR run must actually have solved the LP and
                # sampled it; failures may bail before either counter moves.
                if counters.get("lp_iterations", 0) < 1:
                    errors.append(
                        f"{path}:{i}: successful RR trace ran no LP "
                        "iterations (placement was not derived from a "
                        "fractional solution)"
                    )
                if counters.get("rounding_attempts", 0) < 1:
                    errors.append(
                        f"{path}:{i}: successful RR trace never sampled "
                        "the fractional solution"
                    )
            elif phase == "Exact":
                subgrad = counters.get("subgradient_iters", 0)
                improvements = counters.get("bound_improvements", 0)
                lag_pruned = counters.get("nodes_pruned_lagrangian", 0)
                pruned = counters.get("exact_nodes_pruned", 0)
                expanded = counters.get("exact_nodes_expanded", 0)
                if lag_pruned > pruned:
                    errors.append(
                        f"{path}:{i}: nodes_pruned_lagrangian {lag_pruned} > "
                        f"exact_nodes_pruned {pruned}"
                    )
                if mapper == "EXACT" and map_ok and subgrad < max(1, expanded):
                    errors.append(
                        f"{path}:{i}: successful Lagrangian oracle run "
                        f"priced only {subgrad} dual evaluation(s) over "
                        f"{expanded} expanded node(s) (the bound silently "
                        "fell back to water-filling)"
                    )
                if mapper == "EXACT-WF" and (
                    subgrad != 0 or improvements != 0 or lag_pruned != 0
                ):
                    errors.append(
                        f"{path}:{i}: water-filling oracle run reports "
                        f"Lagrangian work (subgradient_iters {subgrad}, "
                        f"bound_improvements {improvements}, "
                        f"nodes_pruned_lagrangian {lag_pruned})"
                    )
    if open_phase is not None:
        errors.append(f"{path}: phase {open_phase} never closed")
    return errors


def check_serve_stream(path: pathlib.Path, events: list) -> list[str]:
    """A daemon session: consecutive request spans, each optionally
    wrapping complete map segments, with leak-free counter bookkeeping."""
    errors: list[str] = []
    if events[0][1] != "RequestStart":
        errors.append(f"{path}:{events[0][0]}: serve stream must open with RequestStart")
    if events[-1][1] != "RequestEnd":
        errors.append(f"{path}:{events[-1][0]}: serve stream must close with RequestEnd")

    open_req = None  # (line, seq, kind)
    prev_seq = None
    prev_counters = None
    segment: list = []
    for i, tag, body in events:
        if tag == "RequestStart":
            if open_req is not None:
                errors.append(f"{path}:{i}: RequestStart while request {open_req[1]} is open")
            seq, kind = body.get("seq"), body.get("kind")
            if not isinstance(seq, int) or (prev_seq is not None and seq != prev_seq + 1):
                errors.append(f"{path}:{i}: seq {seq!r} does not follow {prev_seq}")
            if kind not in REQUEST_KINDS:
                errors.append(f"{path}:{i}: unknown request kind {kind!r}")
            if kind in ("Apply", "Remove") and not isinstance(body.get("tenant"), str):
                errors.append(f"{path}:{i}: {kind} span names no tenant")
            open_req = (i, seq, kind)
            segment = []
        elif tag == "RequestEnd":
            if open_req is None:
                errors.append(f"{path}:{i}: RequestEnd with no open request")
                continue
            if body.get("seq") != open_req[1]:
                errors.append(
                    f"{path}:{i}: RequestEnd seq {body.get('seq')!r} does not "
                    f"match open request {open_req[1]}"
                )
            if not isinstance(body.get("ok"), bool):
                errors.append(f"{path}:{i}: bad ok flag {body.get('ok')!r}")
            elapsed = body.get("elapsed_us")
            if not isinstance(elapsed, int) or elapsed < 0:
                errors.append(f"{path}:{i}: bad elapsed_us {elapsed!r}")
            counters = body.get("counters")
            if (
                not isinstance(counters, dict)
                or set(counters) != SERVE_COUNTER_KEYS
                or any(not isinstance(v, int) or v < 0 for v in counters.values())
            ):
                errors.append(f"{path}:{i}: bad serve counters {counters!r}")
            else:
                # A Restore span installs the snapshot's counters wholesale,
                # which may legitimately rewind past churn — re-baseline
                # monotonicity there instead of flagging it.
                if prev_counters is not None and open_req[2] != "Restore":
                    for key in ("admitted", "rejected", "removed"):
                        if counters[key] < prev_counters[key]:
                            errors.append(
                                f"{path}:{i}: counter {key} went backwards "
                                f"({prev_counters[key]} -> {counters[key]})"
                            )
                if counters["removed"] > counters["admitted"]:
                    errors.append(
                        f"{path}:{i}: removed {counters['removed']} exceeds "
                        f"admitted {counters['admitted']}"
                    )
                if counters["active_tenants"] != counters["admitted"] - counters["removed"]:
                    errors.append(
                        f"{path}:{i}: active_tenants {counters['active_tenants']} != "
                        f"admitted - removed (a tenant leaked)"
                    )
                prev_counters = counters
            if segment:
                errors.append(
                    f"{path}:{i}: request {open_req[1]} left an unclosed map segment"
                )
            prev_seq = open_req[1] if isinstance(open_req[1], int) else prev_seq
            open_req = None
        else:
            # A mapper event: only legal inside an Apply span, as part of
            # a complete MapStart..MapEnd segment.
            if open_req is None:
                errors.append(f"{path}:{i}: {tag} outside any request span")
                continue
            if open_req[2] != "Apply":
                errors.append(f"{path}:{i}: {tag} inside a {open_req[2]} span")
                continue
            if tag == "MapStart" and segment:
                errors.append(f"{path}:{i}: nested MapStart inside request {open_req[1]}")
            segment.append((i, tag, body))
            if tag == "MapEnd":
                errors.extend(check_map_stream(path, segment))
                segment = []
    if open_req is not None:
        errors.append(f"{path}: request {open_req[1]} never closed")
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files: list[pathlib.Path] = []
    for arg in argv:
        p = pathlib.Path(arg)
        if p.is_dir():
            files.extend(sorted(p.glob("*.jsonl")))
        else:
            files.append(p)
    if not files:
        print(f"check_traces: no trace files under {argv}", file=sys.stderr)
        return 1

    errors: list[str] = []
    for f in files:
        errors.extend(check_file(f))
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"check_traces: {len(files)} trace file(s) OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
