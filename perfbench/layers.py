"""Layer spans recorded from outside the program.

The benchmark times each layer by wrapping that layer's public entry
points; nothing under ``src/`` is edited.  A wrapped call opens a span
on a stack, so every span knows its busy time (wall time inside the
call) and its self time (busy time minus the time its child spans
took).  A layer that re-enters itself (a module-grain codegen call
driving the per-function one) is counted once, at the outermost call.

Counts the program already keeps are read from the ``repro.obs``
metrics registry, which the traced run switches on without a tracer.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  An attribute path with a dot
#: names a method on a class of that module.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.toolchain", "frontend", "tinyc.frontend"),
    ("repro.mir.lowering", "lower_unit", "mir.lower"),
    ("repro.mir.codegen", "generate", "mir.codegen"),
    ("repro.mir.codegen", "FunctionCodegen.generate", "mir.codegen"),
    ("repro.core.instrument", "instrument_items", "core.instrument"),
    ("repro.core.instrument", "instrument_stream", "core.instrument"),
    ("repro.core.instrument", "lower_native", "core.instrument"),
    ("repro.isa.assembler", "assemble", "isa.assemble"),
    ("repro.build.units", "assemble_unit", "isa.assemble"),
    ("repro.build.session", "BuildSession.build", "build.session"),
    ("repro.build.link", "link_units", "build.link"),
    ("repro.build.link", "splice_unit", "build.link"),
    ("repro.linker.static_linker", "link", "build.link"),
    ("repro.analysis.binverify.passes", "analyze_image",
     "analysis.binverify"),
    ("repro.analysis.dataflow.lints", "run_lints",
     "analysis.dataflow.lint"),
    ("repro.workloads.generate", "GenProgram.evaluate", "workloads.oracle"),
    ("repro.workloads.corpus", "DifferentialHarness._reference_run",
     "vm.reference"),
    ("repro.runtime.runtime", "Runtime.__init__", "runtime.load"),
    ("repro.runtime.runtime", "Runtime.run", "runtime.run"),
    ("repro.runtime.runtime", "Runtime.run_scheduled", "runtime.run"),
    ("repro.cfg.generator", "generate_cfg", "cfg.generate"),
    ("repro.core.tables", "TableSnapshot.__init__", "core.tables.snapshot"),
    ("repro.linker.dynamic_linker", "DynamicLinker.dlopen", "linker.dlopen"),
    ("repro.linker.dynamic_linker", "DynamicLinker.dlclose",
     "linker.dlclose"),
)

#: generator entry points: every resumption is timed as one span
GENERATOR_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.transactions", "UpdateTransaction.run", "core.tx.update"),
)

#: spans each workload must record at least one call of; a refactor
#: that moves an entry point fails the traced run instead of reading 0
REQUIRED: Dict[str, Tuple[str, ...]] = {
    "build": ("tinyc.frontend", "mir.lower", "mir.codegen",
              "core.instrument", "isa.assemble", "build.session",
              "build.link"),
    "run": ("runtime.load", "runtime.run", "cfg.generate"),
    "corpus": ("tinyc.frontend", "mir.lower", "mir.codegen",
               "core.instrument", "isa.assemble", "build.session",
               "build.link", "analysis.dataflow.lint", "workloads.oracle",
               "vm.reference", "runtime.load", "runtime.run",
               "cfg.generate"),
    "dlopen": ("core.instrument", "isa.assemble", "analysis.binverify",
               "runtime.load", "runtime.run", "cfg.generate",
               "core.tables.snapshot", "core.tx.update", "linker.dlopen",
               "linker.dlclose"),
}

#: below this share of operation wall time covered by layer self
#: times, the traced run flags the gap
MIN_COVERAGE = 0.95


class LayerTracer:
    """Span stack plus per-layer totals; install around a traced phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: distinct (source digest, prelude) pairs seen by the frontend
        self.sources: set = set()
        #: run results seen by runtime.run: instructions, cycles,
        #: checks, and the blocks and fused sites the dispatch built
        self.run_totals: Dict[str, int] = defaultdict(int)
        #: VM execution outside the reference tier: instructions, and the
        #: self time of the runtime.run spans that executed them
        self.dispatch_instructions = 0
        self.dispatch_seconds = 0.0
        self._stack: List[List] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []
        self._registry = None

    # -- spans -------------------------------------------------------

    def _enter(self, name: str) -> Optional[List]:
        if self._open[name]:
            return None            # re-entry: the outer span covers it
        self._open[name] += 1
        frame = [name, self._clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: List, count: bool = True) -> float:
        """Close ``frame``; returns its self time."""
        name, start, children = frame
        elapsed = self._clock() - start
        self._stack.pop()
        self._open[name] -= 1
        self.busy[name] += elapsed
        self.self_time[name] += elapsed - children
        if count:
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed - children

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            if frame is None:
                return fn(*args, **kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                own = tracer._exit(frame)
                tracer._observe(name, args, kwargs, result, own)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            tracer.calls[name] += 1
            try:
                while True:
                    frame = tracer._enter(name)
                    try:
                        value = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        if frame is not None:
                            tracer._exit(frame, count=False)
                    yield value
            finally:
                inner.close()

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args, kwargs, result,
                 own: float) -> None:
        if name == "tinyc.frontend":
            source = args[0] if args else kwargs["source"]
            prelude = kwargs.get("prelude", args[2] if len(args) > 2
                                 else True)
            digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            self.sources.add((digest, bool(prelude)))
        elif name == "runtime.run" and result is not None:
            cache = args[0].dispatch_cache
            self.run_totals["instructions"] += result.instructions
            self.run_totals["cycles"] += result.cycles
            self.run_totals["tx_checks"] += result.tx_checks
            self.run_totals["blocks_built"] += cache.blocks_built
            self.run_totals["fused_sites"] += cache.fused_sites
            if not self._open["vm.reference"]:
                self.dispatch_instructions += result.instructions
                self.dispatch_seconds += own

    # -- installation ------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point, rebinding each name that imported it,
        and switch on the ``repro.obs`` metrics registry (no tracer)."""
        from repro import obs
        from repro.obs.metrics import MetricsRegistry

        for module_name, path, name in ENTRY_POINTS:
            self._patch(module_name, path, self._wrap, name)
        for module_name, path, name in GENERATOR_ENTRY_POINTS:
            self._patch(module_name, path, self._wrap_generator, name)
        self._registry = MetricsRegistry()
        obs.OBS.metrics = self._registry
        obs.OBS.enabled = True

    def uninstall(self) -> None:
        from repro import obs
        obs.disable()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module_name: str, path: str, wrapper, name: str):
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper(name, original))
            return
        original = getattr(module, path)
        traced = wrapper(name, original)
        # rebind every ``from module import fn`` copy, not only the
        # defining module's global
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, attr, original))
                    setattr(other, attr, traced)

    # -- results -----------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Counters and histogram totals from the obs registry."""
        if self._registry is None:
            return {}
        frozen = self._registry.snapshot()
        out: Dict[str, float] = dict(frozen.counters)
        for hist, stats in frozen.histograms.items():
            out[hist + ".total"] = stats.get("total", 0)
        return out

    def state(self) -> Dict[str, object]:
        """JSON-friendly totals, mergeable across processes."""
        return {"busy": dict(self.busy), "self": dict(self.self_time),
                "calls": dict(self.calls),
                "sources": sorted(list(pair) for pair in self.sources),
                "run_totals": dict(self.run_totals),
                "dispatch": [self.dispatch_instructions,
                             self.dispatch_seconds],
                "counters": self.counters()}


def traced_call(clock: Callable[[], float], fn: Callable, *args):
    """Run ``fn(*args)`` with every entry point wrapped; returns the
    tracer's :meth:`LayerTracer.state` and ``fn``'s result."""
    tracer = LayerTracer(clock)
    tracer.install()
    try:
        result = fn(*args)
    finally:
        tracer.uninstall()
    return tracer.state(), result


def import_layers() -> None:
    """Import every module an entry point lives in, up front: imports
    count in the set-up time, never inside a timed operation."""
    for module_name, _, _ in ENTRY_POINTS + GENERATOR_ENTRY_POINTS:
        importlib.import_module(module_name)


def merge_states(states: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum several :meth:`LayerTracer.state` dicts (helper processes)."""
    merged: Dict[str, object] = {"busy": defaultdict(float),
                                 "self": defaultdict(float),
                                 "calls": defaultdict(int), "sources": set(),
                                 "run_totals": defaultdict(int),
                                 "dispatch": [0, 0.0],
                                 "counters": defaultdict(float)}
    for state in states:
        for key in ("busy", "self", "calls", "run_totals", "counters"):
            for name, value in state[key].items():
                merged[key][name] += value
        merged["sources"].update(tuple(pair) for pair in state["sources"])
        merged["dispatch"][0] += state["dispatch"][0]
        merged["dispatch"][1] += state["dispatch"][1]
    return merged


def layer_metrics(state: Dict[str, object], op_seconds: float,
                  overhead: float, extra: Dict[str, float],
                  ) -> Dict[str, float]:
    """The per-layer metric set of one traced run.

    ``op_seconds`` is the wall time of the traced operations (what the
    spans should cover), ``overhead`` their calibrated time over that of
    the same operations with tracing off; ``extra`` carries counts only
    the workload knows (corpus cells and findings).
    """
    busy, self_time, calls = state["busy"], state["self"], state["calls"]
    counters, totals = state["counters"], state["run_totals"]

    def ms(span: str) -> Dict[str, float]:
        return {f"{span}.ms": busy.get(span, 0.0) * 1000.0,
                f"{span}.self_ms": self_time.get(span, 0.0) * 1000.0}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    frontend_calls = calls.get("tinyc.frontend", 0)
    out["tinyc.frontend.calls"] = frontend_calls
    out.update(ms("tinyc.frontend"))
    out["tinyc.frontend.calls_per_source"] = ratio(
        frontend_calls, len(state["sources"]))
    out.update(ms("mir.lower"))
    out.update(ms("mir.codegen"))
    out.update(ms("core.instrument"))
    out.update(ms("isa.assemble"))
    out["isa.assemble.calls"] = calls.get("isa.assemble", 0)
    out.update(ms("build.session"))
    compiled = counters.get("build.unit_compiled", 0)
    hits = counters.get("build.unit_hits", 0)
    out["build.units.compiled"] = compiled
    out["build.units.hits"] = hits
    out["build.unit_hit_ratio"] = ratio(hits, hits + compiled)
    out.update(ms("build.link"))
    out.update(ms("analysis.binverify"))
    out["analysis.binverify.images"] = calls.get("analysis.binverify", 0)
    out.update(ms("analysis.dataflow.lint"))
    out.update(ms("workloads.oracle"))
    out["workloads.corpus.cells"] = extra.get("cells", 0)
    out["workloads.corpus.findings"] = extra.get("findings", 0)
    out.update(ms("runtime.load"))
    out.update(ms("runtime.run"))
    out.update(ms("cfg.generate"))
    out["cfg.generate.calls"] = calls.get("cfg.generate", 0)
    out.update(ms("core.tables.snapshot"))
    out["core.tables.writes"] = (counters.get("tables.tary_writes", 0)
                                 + counters.get("tables.bary_writes", 0))
    checks = totals.get("tx_checks", 0)
    retries = counters.get("tx.check.retries", 0)
    out["core.tx.checks"] = checks
    out["core.tx.check.retries"] = retries
    out["core.tx.retry_ratio"] = ratio(retries, checks)
    out["core.tx.updates"] = counters.get("tx.updates", 0)
    out.update(ms("core.tx.update"))
    out["core.tx.lock.wait_steps"] = counters.get(
        "tx.lock.wait_steps.total", 0)
    out["vm.instructions"] = totals.get("instructions", 0)
    out["vm.cycles"] = totals.get("cycles", 0)
    instructions, seconds = state["dispatch"]
    out["vm.dispatch.instr_per_s"] = ratio(instructions, seconds)
    out["vm.dispatch.blocks_built"] = totals.get("blocks_built", 0)
    out["vm.dispatch.fused_sites"] = totals.get("fused_sites", 0)
    out.update(ms("vm.reference"))
    out["linker.dlopen.calls"] = calls.get("linker.dlopen", 0)
    out.update(ms("linker.dlopen"))
    out.update(ms("linker.dlclose"))
    out["linker.rollbacks"] = counters.get("linker.rollbacks", 0)
    covered = sum(self_time.values())
    out["trace.coverage"] = ratio(covered, op_seconds)
    out["trace.overhead"] = overhead
    return out


def missing_calls(workload: str, state: Dict[str, object]) -> List[str]:
    """Required spans of ``workload`` that recorded no call."""
    calls = state["calls"]
    return [name for name in REQUIRED[workload] if not calls.get(name)]
