"""``run``: every fixed12 program loaded and run under enforcement.

Block dispatch, one thread, no updates: the VM and the TxCheck read
path do nearly all the work and the compiler does none (it runs only
in set-up).  A native build of each program, also made in set-up,
supplies the baseline cycles and the reference output.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path
from typing import Dict, List, Tuple

from harness import (Context, fixed12, geomean, load_expected, measure,
                     median, sha256, timed_setup)

FIG5 = Path("benchmarks") / "results" / "fig5_overhead_x64.txt"


def build_all() -> Dict[str, tuple]:
    """MCFI and native image of every fixed12 program (no disk cache,
    no pool)."""
    from repro.build import BuildSession
    from repro.workloads.spec import workload
    built = {}
    for name in fixed12():
        sources = {name: workload(name).source}
        hardened = BuildSession(arch="x64", mcfi=True, pool=None,
                                cache=None).build(sources)
        native = BuildSession(arch="x64", mcfi=False, pool=None,
                              cache=None).build(sources)
        built[name] = (hardened.program, native.program)
    return built


def load_and_run(program):
    """One operation: load a fresh runtime and run to completion."""
    from repro.runtime.runtime import Runtime
    runtime = Runtime(program)
    result = runtime.run()
    cfg = runtime.cfg.stats() if runtime.cfg is not None else None
    return result, cfg


def observables(result, cfg) -> Tuple:
    return (result.status, result.exit_code, sha256(result.output),
            result.cycles, result.instructions, result.tx_checks,
            tuple(sorted(cfg.items())))


def read_fig5(root: Path) -> Dict[str, Tuple[int, int]]:
    """Native and MCFI cycles from the pinned Fig. 5 table (read only)."""
    rows = {}
    for line in (root / FIG5).read_text().splitlines()[1:]:
        parts = line.split()
        if len(parts) == 4 and parts[0] != "average":
            rows[parts[0]] = (int(parts[1]), int(parts[2]))
    return rows


def run_enforced(built):
    """The timed operation: load and run the MCFI image of the program
    it is given; returns the run's observables."""
    def op(name):
        return observables(*load_and_run(built[name][0]))
    return op


def run(ctx: Context) -> Dict[str, float]:
    expected = load_expected()
    built, setup = timed_setup(ctx, 2, build_all)
    names = list(fixed12())

    # Native baseline: reference output and cycles, once per program.
    native: Dict[str, object] = {}
    for name in names:
        result, _ = load_and_run(built[name][1])
        want = expected[name]
        ctx.check(result.ok and result.exit_code == want["exit_code"] and
                  result.cycles == want["native_cycles"],
                  f"{name}: native run {result.status}, exit "
                  f"{result.exit_code}, {result.cycles} cycles")
        native[name] = result

    order = names[:]
    random.Random(ctx.seed).shuffle(order)
    start = time.perf_counter()
    share = 0.5 if ctx.trace else 1.0
    op = run_enforced(built)
    samples = measure(ctx, op, itertools.cycle(order),
                      start + ctx.seconds * share, minimum=len(order))

    traced = None
    if ctx.trace:
        from layers import traced_call
        state, replay = traced_call(
            ctx.calibrator.clock, measure, ctx, op,
            [sample[0] for sample in samples], 0.0, len(samples))
        for first, again in zip(samples, replay):
            ctx.check(first[3] == again[3],
                      f"{first[0]}: traced run differs from untraced")
        traced = (state, sum(item[1] for item in replay),
                  sum(item[2] for item in replay)
                  / sum(item[2] for item in samples))

    walls: Dict[str, List[float]] = {name: [] for name in names}
    per_program: Dict[str, List[float]] = {name: [] for name in names}
    first_seen: Dict[str, Tuple] = {}
    for name, wall, seconds, obs in samples:
        walls[name].append(wall)
        per_program[name].append(seconds)
        ctx.check(first_seen.setdefault(name, obs) == obs,
                  f"{name}: deterministic observables differ between runs")
        want = expected[name]
        status, exit_code, digest, cycles, instructions, checks, _ = obs
        ctx.check(status == "ok", f"{name}: enforced run {status}")
        ctx.check(exit_code == native[name].exit_code and
                  digest == sha256(native[name].output),
                  f"{name}: output differs from the native build")
        ctx.check(digest == want["output_sha256"],
                  f"{name}: output digest differs from the pinned one")
        ctx.check((cycles, instructions, checks) ==
                  (want["cycles"], want["instructions"], want["tx_checks"]),
                  f"{name}: simulated counts differ from the pinned ones")

    for name, (native_cycles, mcfi_cycles) in read_fig5(ctx.root).items():
        ctx.check(native[name].cycles == native_cycles and
                  first_seen[name][3] == mcfi_cycles,
                  f"{name}: cycles differ from {FIG5}")

    rates, calibrated_rates, ratios = [], [], []
    for name in names:
        _, _, _, cycles, instructions, checks, cfg = first_seen[name]
        wall = median(walls[name])
        rate = instructions / wall
        ratio = cycles / native[name].cycles
        rates.append(rate)
        calibrated_rates.append(instructions / median(per_program[name]))
        ratios.append(ratio)
        ctx.rows.append({"program": name, "runs": len(walls[name]),
                         "wall_s": wall, "instr_per_s": rate,
                         "calibrated_s": median(per_program[name]),
                         "instructions": instructions, "cycles": cycles,
                         "native_cycles": native[name].cycles,
                         "tx_checks": checks, "cfg": dict(cfg),
                         "overhead_pct": 100.0 * (ratio - 1.0)})
    ctx.note("run_instr_per_s", geomean(rates), "instr/s",
             samples=len(samples))
    ctx.note("mcfi_overhead_pct", 100.0 * (geomean(ratios) - 1.0), "%",
             samples=len(names))
    return {"throughput": geomean(calibrated_rates), "setup_s": setup,
            "traced": traced, "extra": {}}
