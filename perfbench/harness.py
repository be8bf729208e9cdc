"""Shared plumbing: the run context, output checks, statistics, and the
run record every workload writes."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import signal
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: per-run records land here, under the checkout (git-ignored)
RECORD_DIR = ".perfbench"
#: pinned deterministic facts of every fixed12 program (``pin.py``)
EXPECTED = Path(__file__).with_name("expected.json")

#: one calibration sample's typical time on a 2-vCPU Intel Xeon VM
#: under CPython 3.11; scales calibrated seconds so they read like wall
#: seconds there
NOMINAL_SAMPLE_S = 0.0007


class Calibrator:
    """Samples a fixed, memory-bound pure-Python loop that uses nothing
    of the program under test, every ``period`` seconds, from a
    ``SIGALRM`` handler.

    On a shared host, interpreter work runs through slow and fast phases
    of well under a second to tens of seconds.  The loop's time follows
    them, so an operation's wall time divided by the mean loop time
    sampled *during* it (scaled by :data:`NOMINAL_SAMPLE_S`) measures
    the operation with most of the host's phases removed.  The program
    shares the core and its caches with the loop, so each sample runs
    the loop twice and times only the second pass, which starts from the
    loop's own cache state; injected slowdowns of the program moved
    calibrated and wall time alike (``perfbench/README.md``).  Time spent
    in the handler is kept out of every measurement: time operations
    with :meth:`clock`.
    """

    ITERATIONS = 1500

    def __init__(self, period: float = 0.05) -> None:
        #: seconds between samples; short operations need a short one
        self.period = period
        self.memory = bytearray(1 << 22)
        self.memory[::4096] = b"\x01" * (len(self.memory) // 4096)
        for _ in range(5):          # fault the pages in, warm the loop
            self._loop()
        #: durations of every sample taken, in order
        self.samples: List[float] = []
        #: wall seconds spent in the handler so far
        self.stolen = 0.0

    def _loop(self) -> float:
        memory, table, acc = self.memory, {}, 1
        start = time.perf_counter()
        for i in range(self.ITERATIONS):
            slot = (acc * 2654435761) & 0x3FFFFF
            memory[slot] = i & 255
            acc = (acc + memory[(slot * 7) & 0x3FFFFF] + i) & 0xFFFFFFF
            table[acc & 4095] = i
            if acc & 3 == 0:
                acc ^= table.get(i & 2047, 0)
        return time.perf_counter() - start

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self._loop()
        self.samples.append(self._loop())
        self.stolen += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Wall seconds, less the time the sampler took."""
        return time.perf_counter() - self.stolen

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """Calibration factor of the samples taken since ``mark`` (one
        taken now if there were none)."""
        if len(self.samples) == mark:
            self._tick()
        window = self.samples[mark:]
        return NOMINAL_SAMPLE_S * len(window) / sum(window)

    def time(self, fn: Callable, *args):
        """Run ``fn(*args)``; return its wall seconds, its calibrated
        seconds and its result."""
        mark = self.mark()
        start = self.clock()
        result = fn(*args)
        wall = self.clock() - start
        return wall, wall * self.factor(mark), result


class Context:
    """One benchmark run: arguments, output-check tally, records."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: one row per program (or per host run) for the record
        self.rows: List[Dict[str, object]] = []
        #: the workload's own metrics, printed by name with their unit
        self.report: Dict[str, Dict[str, object]] = {}
        #: calibrated time of the run's imports, part of the set-up time
        self.import_seconds = 0.0
        #: per input: the largest peak RSS (MB) of the process that ran
        #: a timed operation on it, during that operation
        self.op_peaks: Dict[object, float] = {}
        self.calibrator = Calibrator()

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check; a failure is counted, never skipped."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def peak(self, key: object, megabytes: float) -> None:
        self.op_peaks[key] = max(megabytes, self.op_peaks.get(key, 0.0))

    def note(self, name: str, value: float, unit: str,
             samples: Optional[int] = None) -> None:
        entry: Dict[str, object] = {"value": value, "unit": unit}
        if samples is not None:
            entry["samples"] = samples
        self.report[name] = entry


_END = object()


def fixed12() -> Tuple[str, ...]:
    """The twelve SPEC-shaped programs, in registry order."""
    from repro.workloads.spec import benchmark_set
    return benchmark_set("fixed12").members


def load_expected() -> Dict[str, dict]:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))["programs"]


def measure(ctx: Context, op: Callable, items: Iterable, deadline: float,
            count: Optional[int] = None, minimum: int = 1,
            key: Callable = lambda item: item) -> List[tuple]:
    """The closed loop every workload runs: time ``op(item)`` for each
    item in turn, collecting garbage before each so that each starts
    from the same heap.  Stops once ``deadline`` (``perf_counter``) has
    passed and at least ``minimum`` operations ran or, when ``count`` is
    given, after exactly ``count`` operations; never takes an item it
    does not run.  Records each operation's peak RSS under
    ``key(item)``.  Returns ``(item, wall, calibrated, result)`` tuples.
    """
    items = iter(items)
    done: List[tuple] = []
    while len(done) < (minimum if count is None else count) or \
            (count is None and time.perf_counter() < deadline):
        item = next(items, _END)
        if item is _END:
            break
        gc.collect()
        reset_peak_rss()
        done.append((item, *ctx.calibrator.time(op, item)))
        ctx.peak(key(item), peak_rss_since_reset_mb())
    return done


def median(values: Iterable[float]) -> float:
    data = sorted(values)
    if not data:
        raise ValueError("median of no samples")
    mid = len(data) // 2
    return data[mid] if len(data) % 2 else (data[mid - 1] + data[mid]) / 2


def percentile(values: Iterable[float], pct: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` style)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def geomean(values: Iterable[float]) -> float:
    data = list(values)
    return math.exp(sum(math.log(v) for v in data) / len(data))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reset_peak_rss() -> None:
    """Hand the C heap's free memory back to the system (glibc
    ``malloc_trim``), then restart this process's peak-RSS count (Linux
    ``clear_refs``).  Without the trim, memory freed by earlier
    operations but kept by the allocator is counted in the next peak,
    which then depends on what ran before."""
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_since_reset_mb() -> float:
    """This process's peak RSS since :func:`reset_peak_rss`."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def timed_setup(ctx: Context, repeats: int, build: Callable[[], object]):
    """Run ``build`` ``repeats`` times; keep the last product and report
    the median set-up time in calibrated seconds (the run's import time
    is added)."""
    times: List[float] = []
    product = None
    for _ in range(repeats):
        _, seconds, product = ctx.calibrator.time(build)
        times.append(seconds)
    setup = median(times) + ctx.import_seconds
    ctx.note("setup_s", setup, "s", samples=repeats)
    return product, setup


def fingerprint(ctx: Context) -> Dict[str, object]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": _git_commit(ctx.root),
            "workload": ctx.workload, "seed": ctx.seed,
            "seconds": ctx.seconds, "trace": int(ctx.trace)}


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = root / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_record(ctx: Context, metrics: Dict[str, Dict[str, object]],
                 layers: Optional[Dict[str, object]]) -> Path:
    """Write the full run record (fingerprint, rows, every metric)."""
    out = ctx.root / RECORD_DIR
    out.mkdir(exist_ok=True)
    path = out / (f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}"
                  ".json")
    record = {"fingerprint": fingerprint(ctx), "attempted": ctx.attempted,
              "calibration_s": ctx.calibrator.samples,
              "failed": ctx.failed, "failures": ctx.failures,
              "report": ctx.report, "metrics": metrics, "rows": ctx.rows,
              "layers": layers}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
