"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build|run|corpus|dlopen \\
        --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced pass.  The full run record (machine
fingerprint, one row per program, every metric) is written under
``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import harness
import layers

WORKLOADS = ("build", "run", "corpus", "dlopen")


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("instr_per_s"):
        return "instr/s"
    if name.endswith(("ratio", "coverage", "overhead", "per_source")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    if os.environ.get("REPRO_CACHE_DIR"):
        print("error: REPRO_CACHE_DIR is set; the benchmark measures "
              "builds without a disk cache", file=sys.stderr)
        return 2

    ctx = harness.Context(args.workload, args.seed, args.seconds,
                          bool(args.trace), root)
    ctx.calibrator.start()
    try:
        sys.path.insert(0, str(root / "src"))
        _, ctx.import_seconds, _ = ctx.calibrator.time(
            layers.import_layers)
        outcome = __import__(f"wl_{args.workload}").run(ctx)
    finally:
        ctx.calibrator.stop()

    peaks = ctx.op_peaks.values()
    ctx.note("peak_rss_mb", harness.median(peaks), "MB", samples=len(peaks))
    ctx.note("peak_rss_max_mb", max(peaks), "MB", samples=len(peaks))
    ctx.note("throughput", outcome["throughput"], "1/s")
    calibration = ctx.calibrator.samples
    ctx.note("calibration_ms.p50", harness.median(calibration) * 1000, "ms",
             samples=len(calibration))
    metrics = {name: {"value": ctx.report[name]["value"],
                      "unit": ctx.report[name]["unit"]}
               for name in ("setup_s", "peak_rss_mb", "throughput")}
    layer_values = None
    if ctx.trace:
        state, op_seconds, overhead = outcome["traced"]
        missing = layers.missing_calls(args.workload, state)
        ctx.check(not missing,
                  f"traced entry points recorded no call: {missing}")
        layer_values = layers.layer_metrics(state, op_seconds, overhead,
                                            outcome["extra"])
        if layer_values["trace.coverage"] < layers.MIN_COVERAGE:
            print(f"flag: trace.coverage "
                  f"{layer_values['trace.coverage']:.3f} is below "
                  f"{layers.MIN_COVERAGE}")
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layer_values.items()}
    ctx.note("error_rate", ctx.failed / max(ctx.attempted, 1), "ratio",
             samples=ctx.attempted)

    for name, entry in sorted(ctx.report.items()):
        samples = entry.get("samples")
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"{name:28s} {entry['value']:>16.6g} {entry['unit']}{suffix}")
    if layer_values is not None:
        for name, value in layer_values.items():
            print(f"{name:36s} {value:>16.6g} {per_layer_unit(name)}")
    for failure in ctx.failures:
        print(f"FAILED: {failure}")
    record = harness.write_record(ctx, metrics, layer_values)
    print(f"record: {record.relative_to(root)}")
    print(json.dumps({"correct": ctx.failed == 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
