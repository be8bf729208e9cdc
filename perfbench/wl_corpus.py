"""``corpus``: fresh generated programs through the differential matrix.

Each program (quick ``GenConfig``, seeds drawn from the run's seed,
none repeated within the process) goes through
``DifferentialHarness.run_program`` with its default matrix: x64/x32 x
devirtualize on/off, the ``step_reference`` tier, cold vs incremental
builds, and lint, with no disk cache.  Every layer runs, and the same
text passes the frontend many times per program.  The program's AST
oracle is the independent output check.
"""

from __future__ import annotations

import random
import time
from typing import Dict

from harness import Context, measure, timed_setup

#: programs generated in set-up; more than a run can get through
POOL = 60


def draw(seed: int):
    """The run's programs: distinct generator seeds drawn from ``seed``."""
    from repro.workloads.generate import GenConfig, generate
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 1 << 30), POOL)
    return [generate(gen_seed, GenConfig.quick()) for gen_seed in seeds]


def seed_of(program) -> int:
    return program.seed


def run(ctx: Context) -> Dict[str, float]:
    from repro.workloads.corpus import DifferentialHarness
    programs, setup = timed_setup(ctx, 3, lambda: draw(ctx.seed))
    programs = iter(programs)       # the traced pass takes the next ones
    op = DifferentialHarness().run_program   # default matrix, no cache
    start = time.perf_counter()
    share = 0.5 if ctx.trace else 1.0
    done = measure(ctx, op, programs, start + ctx.seconds * share,
                   key=seed_of)

    traced = None
    replay = []
    extra = {"cells": 0, "findings": 0}
    if ctx.trace:
        from layers import traced_call
        state, replay = traced_call(
            ctx.calibrator.clock,
            lambda: measure(ctx, op, programs, 0.0, len(done), key=seed_of))
        for _, _, _, report in replay:
            extra["cells"] += report.cells
            extra["findings"] += len(report.findings)
        # fresh programs (no seed repeats in a process): compare the
        # calibrated time per program
        traced = (state, sum(item[1] for item in replay),
                  (sum(item[2] for item in replay) / len(replay))
                  / (sum(item[2] for item in done) / len(done)))

    for _, wall, seconds, report in done + replay:
        ctx.check(report.ok and not report.findings,
                  f"{report.member}: {report.status}, "
                  f"{len(report.findings)} findings")
        ctx.rows.append({"program": report.member, "seed": report.seed,
                         "wall_s": wall, "calibrated_s": seconds,
                         "status": report.status,
                         "cells": report.cells,
                         "source_lines": report.source_lines,
                         "cycles": report.cycles,
                         "tx_checks": report.tx_checks})
    wall = sum(item[1] for item in done)
    ctx.note("corpus_programs_per_s", len(done) / wall, "prog/s",
             samples=len(done))
    return {"throughput": len(done) / sum(item[2] for item in done),
            "setup_s": setup, "traced": traced, "extra": extra}
