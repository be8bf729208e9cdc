"""``build``: fixed12 from source to linked images, cold and incremental.

Each round cold-builds all twelve programs (x64, MCFI on), each in a
fresh helper process whose interpreter has compiled nothing, libc
included, with no disk cache and no pool; then held ``BuildSession``s
replay seeded single-function body edits, each edit followed by the
edit back.  The compiler layers do almost all of the work; the VM does
none.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from harness import (Context, fixed12, load_expected, median,
                     peak_rss_since_reset_mb, percentile, reset_peak_rss,
                     timed_setup)
from repro.workloads.corpus import artifact_digest

HELPER = Path(__file__).with_name("cold_build.py")
#: edit pairs (edit + edit back) per program per round
EDITS_PER_PROGRAM = 3
#: seconds; one helper imports in ~0.5 s and builds in under 1 s
HELPER_TIMEOUT = 30


def held_sessions() -> Dict[str, tuple]:
    """One cold-built session per program, kept for incremental edits."""
    from repro.build import BuildSession
    from repro.build.source_index import index_source
    from repro.workloads.spec import workload
    held = {}
    for name in fixed12():
        source = workload(name).source
        session = BuildSession(arch="x64", mcfi=True, pool=None, cache=None)
        result = session.build({name: source})
        spans = [span for span in index_source(source)
                 if span.kind == "func"]
        held[name] = (session, source, spans, artifact_digest(result.program))
    return held


def plan(seed: int, held, rounds: int) -> List[List[tuple]]:
    """Per round: the cold-build order and the edits, seeded."""
    rng = random.Random(seed)
    names = list(fixed12())
    out = []
    for round_index in range(rounds):
        order = names[:]
        rng.shuffle(order)
        edits = []
        for name in order:
            spans = held[name][2]
            for _ in range(EDITS_PER_PROGRAM):
                span = spans[rng.randrange(len(spans))]
                edits.append((name, span, rng.randrange(1 << 20)))
        out.append((order, edits))
    return out


def cold_build(ctx: Context, name: str) -> dict:
    """Spawn the helper (one at a time) and wait for its result; the
    helper samples the calibration loop itself."""
    ctx.calibrator.stop()
    try:
        proc = subprocess.run(
            [sys.executable, str(HELPER), name, "1" if ctx.trace else "0"],
            cwd=ctx.root, capture_output=True, text=True,
            timeout=HELPER_TIMEOUT, check=False)
    except subprocess.TimeoutExpired:   # the child is killed and reaped
        return {"program": name, "error": f"no result in {HELPER_TIMEOUT} s"}
    finally:
        ctx.calibrator.start()
    if proc.returncode != 0:
        return {"program": name, "error": proc.stderr.strip()[-400:]}
    return json.loads(proc.stdout.splitlines()[-1])


def edit(clock, held, name: str, span, value: int):
    """One edit pair; returns the two wall times and the two results."""
    session, source, _, _ = held[name]
    body = span.body
    edited = source.replace(
        span.text, span.head + "{ long __bench_edit = %d;" % value + body[1:],
        1)
    start = clock()
    forward = session.build({name: edited})
    middle = clock()
    back = session.build({name: source})
    end = clock()
    return (middle - start, end - middle, forward, back)


def run_round(ctx: Context, held, order, edits):
    """Cold builds, then the edits grouped by program; an edit's
    calibration factor is that of its group."""
    colds = [cold_build(ctx, name) for name in order]
    for cold in colds:
        if "peak_rss_mb" in cold:
            ctx.peak(cold["program"], cold["peak_rss_mb"])
    calibrator = ctx.calibrator
    incrementals = []
    for name in order:
        group = []
        mark = calibrator.mark()
        for _, span, value in [e for e in edits if e[0] == name]:
            item = {"program": name, "seconds": [], "calibrated": []}
            reset_peak_rss()
            try:
                forward_s, back_s, forward, back = edit(
                    calibrator.clock, held, name, span, value)
            except Exception as exc:  # noqa: BLE001 - counted as failure
                item["error"] = f"{type(exc).__name__}: {exc}"
            else:
                item["seconds"] = [forward_s, back_s]
                item["kinds"] = [forward.kind, back.kind]
                item["digest"] = artifact_digest(back.program)
            ctx.peak(name, peak_rss_since_reset_mb())
            group.append(item)
        factor = calibrator.factor(mark)
        for item in group:
            item["calibrated"] = [wall * factor for wall in item["seconds"]]
        incrementals += group
    return colds, incrementals


def run(ctx: Context) -> Dict[str, float]:
    from layers import merge_states, traced_call
    expected = load_expected()
    held, setup = timed_setup(ctx, 2, held_sessions)
    rounds = plan(ctx.seed, held, 64)

    start = time.perf_counter()
    share = 0.5 if ctx.trace else 1.0
    min_rounds = 1 if ctx.trace else 2
    results = []
    while len(results) < min_rounds or \
            time.perf_counter() < start + ctx.seconds * share:
        results.append(run_round(ctx, held, *rounds[len(results)]))

    traced = None
    if ctx.trace:
        held = held_sessions()          # same memo state as the first pass
        state, replay = traced_call(
            ctx.calibrator.clock,
            lambda: [run_round(ctx, held, *rounds[index])
                     for index in range(len(results))])
        helper_states = [cold["state"] for colds, _ in replay
                         for cold in colds if "state" in cold]
        traced = (merge_states([state] + helper_states),
                  _op_seconds(replay, "seconds"),
                  _op_seconds(replay, "calibrated")
                  / _op_seconds(results, "calibrated"))
        for index, (first, again) in enumerate(zip(results, replay)):
            ctx.check([c.get("digest") for c in first[0] + first[1]] ==
                      [c.get("digest") for c in again[0] + again[1]],
                      f"round {index}: traced images differ from untraced")
    else:
        replay = []

    # timings come from the untraced rounds; checks cover every round
    cold_totals: List[float] = []
    calibrated_totals: List[float] = []
    incr: List[float] = []
    digests: Dict[str, set] = {name: set() for name in fixed12()}
    for round_index, (colds, incrementals) in enumerate(results + replay):
        timed = round_index < len(results)
        total = 0.0
        for cold in colds:
            name = cold["program"]
            if not ctx.check("error" not in cold,
                             f"{name}: cold build failed: "
                             f"{cold.get('error')}"):
                continue
            total += cold["seconds"]
            want = expected[name]
            ctx.check(cold["kind"] == "cold" and cold["unit_hits"] == 0,
                      f"{name}: cold build was {cold['kind']} with "
                      f"{cold['unit_hits']} unit hits")
            ctx.check(cold["digest"] == want["artifact_sha256"] and
                      cold["code_bytes"] == want["code_bytes"],
                      f"{name}: cold image differs from the pinned one")
            digests[name].add(cold["digest"])
        if timed:
            cold_totals.append(total)
            calibrated_totals.append(sum(cold.get("calibrated", 0.0)
                                         for cold in colds))
        for item in incrementals:
            name = item["program"]
            if not ctx.check("error" not in item,
                             f"{name}: incremental build failed: "
                             f"{item.get('error')}"):
                continue
            ctx.check(item["kinds"] == ["incremental", "incremental"],
                      f"{name}: edit rebuilds were {item['kinds']}")
            ctx.check(item["digest"] == held[name][3],
                      f"{name}: edit-back image differs from the cold one")
            if timed:
                incr += item["seconds"]
    for name, seen in digests.items():
        ctx.check(len(seen) == 1,
                  f"{name}: {len(seen)} distinct images across cold builds")

    units = sum(cold["units"] for cold in results[0][0] if "units" in cold)
    code_bytes = sum(cold["code_bytes"] for cold in results[0][0]
                     if "code_bytes" in cold)
    build_cold = median(cold_totals)
    throughput = units / median(calibrated_totals)
    for cold in results[0][0]:
        name = cold["program"]
        ctx.rows.append({"program": name,
                         "code_bytes": cold.get("code_bytes"),
                         "digest": cold.get("digest"),
                         "cold_s": median(other["seconds"]
                                          for colds, _ in results
                                          for other in colds
                                          if other["program"] == name
                                          and "seconds" in other)})
    ctx.note("build_cold_s", build_cold, "s", samples=len(cold_totals))
    ctx.note("build_incr_ms.p50", median(incr) * 1000, "ms",
             samples=len(incr))
    ctx.note("build_incr_ms.p90", percentile(incr, 90) * 1000, "ms",
             samples=len(incr))
    ctx.note("code_bytes", code_bytes, "bytes")
    ctx.note("build_units_per_s", units / build_cold, "units/s",
             samples=units)
    return {"throughput": throughput, "setup_s": setup, "traced": traced,
            "extra": {}}


def _op_seconds(results, key: str) -> float:
    """Timed ``seconds`` (wall) or ``calibrated`` time of a set of rounds:
    cold builds plus edit rebuilds (helper start-up is not timed)."""
    total = 0.0
    for colds, incrementals in results:
        total += sum(cold.get(key, 0.0) for cold in colds)
        total += sum(sum(item[key]) for item in incrementals)
    return total
