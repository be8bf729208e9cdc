"""``dlopen``: plugin churn beside application threads.

A host program owned by the benchmark statically links the code of one
fixed12 program (gcc, the largest), so the merged CFG has a realistic
size.  Under ``run_scheduled(seed)`` two application threads make
indirect calls through a function-pointer table and a jump table while
the main thread churns dlopen -> call via the PLT and via ``dlsym`` ->
dlclose over a seeded rotation of plugins of several sizes.  This is
the one workload where TxUpdate writes the ID tables while TxChecks
read them.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
import time
from typing import Dict, List, Tuple

from harness import (Context, measure, median, percentile, sha256,
                     timed_setup)

APP = "gcc"
#: plugin name -> number of functions
PLUGINS = {"plug_s": 5, "plug_m": 17, "plug_l": 41}
#: dlopen cycles per host run: every plugin equally often, seeded order
ROUNDS = 39
BURST = 8

_HOST = r"""
long plug_fn(long x);
long host_done;
long host_bad;
long host_iters[2];

long host_op0(long x) { return x + 1; }
long host_op1(long x) { return x * 2; }
long host_op2(long x) { return x ^ 5; }
long host_op3(long x) { return x - 3; }

int host_classify(int x) {
    switch (x) {
        case 0: return 1;
        case 1: return 2;
        case 2: return 4;
        case 3: return 8;
        case 4: return 16;
        default: return 0;
    }
}

void host_worker(long id) {
    long (*ops[4])(long);
    long i = 0;
    long v;
    ops[0] = host_op0; ops[1] = host_op1; ops[2] = host_op2; ops[3] = host_op3;
    while (host_done == 0) {
        v = ops[i & 3](i);
        if ((i & 3) == 1 && v != i * 2) { host_bad = 1; }
        if (host_classify((int)(i & 7)) != ((i & 7) < 5 ? 1 << (i & 7) : 0)) {
            host_bad = 1;
        }
        i++;
        sched_yield();
    }
    host_iters[id] = i;
}
"""


def plugin_source(size: int) -> str:
    """``size`` functions; ``plug_fn`` reaches the chain indirectly."""
    lines = ["long plg_h0(long x) { return x * 3 + 1; }"]
    for i in range(1, size - 1):
        lines.append(f"long plg_h{i}(long x) {{ return plg_h{i - 1}(x) + {i}; }}")
    lines.append(f"long plug_fn(long x) {{ long (*f)(long) = plg_h{size - 2}; "
                 f"return f(x) + {size}; }}")
    return "\n".join(lines) + "\n"


def plugin_value(size: int, x: int) -> int:
    return 3 * x + 1 + (size - 2) * (size - 1) // 2 + size


def host_source(seed: int) -> str:
    """The churn program: a seeded order of ``ROUNDS`` plugin cycles, each
    plugin equally often, each cycle checked inside the program."""
    rng = random.Random(seed)
    rotation = [k for k in range(len(PLUGINS))
                for _ in range(ROUNDS // len(PLUGINS))]
    rng.shuffle(rotation)
    cycle = ["long host_cycle(int k, long x) {",
             "    long h; long sym; long want; long (*f)(long);",
             "    switch (k) {"]
    for k, (name, size) in enumerate(PLUGINS.items()):
        offset = plugin_value(size, 0)
        cycle.append(f'        case {k}: h = dlopen("{name}"); '
                     f'want = x * 3 + {offset}; break;')
    cycle += ["        default: return 1;", "    }",
              "    if (h == 0) { return 2; }",
              "    if (plug_fn(x) != want) { return 3; }",
              '    sym = dlsym(h, "plug_fn");',
              "    if (sym == 0) { return 4; }",
              "    f = (long (*)(long))sym;",
              "    if (f(x + 1) != want + 3) { return 5; }",
              "    if (dlclose(h) != 0) { return 6; }",
              "    return 0;", "}"]
    main = ["int main(void) {", "    long bad = 0;",
            "    thread_spawn(host_worker, 0);",
            "    thread_spawn(host_worker, 1);"]
    main += [f"    bad = bad | host_cycle({k}, {rng.randrange(1000)});"
             for k in rotation]
    main += ["    host_done = 1;", "    if (host_bad != 0) { return 95; }",
             "    return (int)bad;", "}"]
    return _HOST + "\n".join(cycle) + "\n\n" + "\n".join(main) + "\n"


def build(seed: int):
    """The host image (fixed12 app code + churn program) and the plugins."""
    from repro.build import BuildSession, compile_object
    from repro.workloads.spec import workload
    app = re.sub(r"\bint main\(void\)", "int app_main(void)",
                 workload(APP).source)
    host = BuildSession(arch="x64", mcfi=True, pool=None, cache=None,
                        allow_unresolved=["plug_fn"]).build(
        {APP: app, "host": host_source(seed)})
    plugins = {name: compile_object(plugin_source(size), name=name)
               for name, size in PLUGINS.items()}
    return host.program, plugins


def host_run(clock, program, plugins, seed: int):
    """One operation: load the host, run the churn to completion."""
    from repro.linker.dynamic_linker import DynamicLinker
    from repro.runtime.runtime import Runtime

    runtime = Runtime(program)
    linker = DynamicLinker(runtime, verify=True)
    for name, raw in plugins.items():
        linker.register(name, raw)
    opens: List[float] = []
    closes: List[float] = []
    journals = []
    calls: List[Tuple[str, int]] = []

    def timed(method, times, kind):
        def call(*args, **kwargs):
            begin = clock()
            value = method(*args, **kwargs)
            times.append(clock() - begin)
            journals.append(linker.last_journal)
            calls.append((kind, value))
            return value
        return call

    linker.dlopen = timed(linker.dlopen, opens, "dlopen")
    linker.dlclose = timed(linker.dlclose, closes, "dlclose")
    result = runtime.run_scheduled(seed=seed, burst=BURST)
    app_instructions = sum(cpu.instructions for cpu in runtime.cpus[1:])
    observed = (result.status, result.exit_code, sha256(result.output),
                result.cycles, result.instructions, result.tx_checks,
                app_instructions, len(result.violations),
                tuple(sorted(runtime.cfg.stats().items())),
                tuple(calls))
    rolled_back = sum(1 for journal in journals
                      if journal is not None and journal.rolled_back)
    return observed, opens, closes, rolled_back


def run(ctx: Context) -> Dict[str, float]:
    (program, plugins), setup = timed_setup(ctx, 3,
                                            lambda: build(ctx.seed))
    start = time.perf_counter()
    share = 0.5 if ctx.trace else 1.0
    # host run i uses scheduler seed ``seed * 1000 + i``
    op = functools.partial(host_run, ctx.calibrator.clock, program, plugins)
    runs = measure(ctx, op, itertools.count(ctx.seed * 1000),
                   start + ctx.seconds * share)

    traced = None
    if ctx.trace:
        from layers import traced_call
        state, replay = traced_call(ctx.calibrator.clock, measure, ctx, op,
                                    itertools.count(ctx.seed * 1000), 0.0,
                                    len(runs))
        for index, (first, again) in enumerate(zip(runs, replay)):
            ctx.check(first[3][0] == again[3][0],
                      f"host run {index}: traced run differs from untraced")
        traced = (state, sum(item[1] for item in replay),
                  sum(item[2] for item in replay)
                  / sum(item[2] for item in runs))

    opens: List[float] = []
    closes: List[float] = []
    app_instructions = 0
    wall = calibrated = 0.0
    for index, (_, seconds, calibrated_seconds, outcome) in enumerate(runs):
        observed, run_opens, run_closes, rolled_back = outcome
        status, exit_code, _, cycles, instructions, checks, app, \
            violations, cfg, calls = observed
        ctx.check(status == "ok" and exit_code == 0 and violations == 0,
                  f"host run {index}: {status} exit {exit_code}, "
                  f"{violations} violations")
        ctx.check(rolled_back == 0,
                  f"host run {index}: {rolled_back} load rollbacks")
        ctx.check(len(run_opens) == ROUNDS and len(run_closes) == ROUNDS
                  and all(value != 0 for kind, value in calls
                          if kind == "dlopen")
                  and all(value == 0 for kind, value in calls
                          if kind == "dlclose"),
                  f"host run {index}: dlopen/dlclose results")
        opens += run_opens
        closes += run_closes
        app_instructions += app
        wall += seconds
        calibrated += calibrated_seconds
        ctx.rows.append({"host_run": index, "wall_s": seconds,
                         "cycles": cycles, "instructions": instructions,
                         "app_instructions": app, "tx_checks": checks,
                         "cfg": dict(cfg)})
    ctx.note("dlopen_ms.p50", median(opens) * 1000, "ms",
             samples=len(opens))
    ctx.note("dlopen_ms.p90", percentile(opens, 90) * 1000, "ms",
             samples=len(opens))
    ctx.note("dlclose_ms.p50", median(closes) * 1000, "ms",
             samples=len(closes))
    ctx.note("churn_instr_per_s", app_instructions / wall, "instr/s",
             samples=len(runs))
    ctx.note("code_bytes", len(program.module.code), "bytes")
    return {"throughput": app_instructions / calibrated, "setup_s": setup,
            "traced": traced, "extra": {}}
