"""Helper process of the ``build`` workload: one timed cold build.

Run as ``python3 perfbench/cold_build.py <program> <trace 0|1>`` from
the root of a checkout.  The interpreter has compiled nothing when the
timer starts (imports happen first and are not timed); the build uses
no disk cache and no pool.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(name: str, trace: bool) -> dict:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import layers
    layers.import_layers()
    import repro.workloads.libc  # noqa: F401  (imported lazily by builds)
    from harness import Calibrator
    from repro.build import BuildSession
    from repro.workloads.corpus import artifact_digest
    from repro.workloads.spec import workload

    sources = {name: workload(name).source}
    calibrator = Calibrator(period=0.02)   # a build takes 0.1-0.5 s
    tracer = None
    if trace:
        tracer = layers.LayerTracer(calibrator.clock)
        tracer.install()
    calibrator.start()
    try:
        seconds, calibrated, result = calibrator.time(
            BuildSession(arch="x64", mcfi=True, pool=None,
                         cache=None).build, sources)
    finally:
        calibrator.stop()
    if tracer is not None:
        tracer.uninstall()
    return {"program": name, "seconds": seconds, "calibrated": calibrated,
            "calibration": calibrator.samples, "kind": result.kind,
            "units": result.stats.get("units", 0),
            "unit_hits": result.stats.get("unit_hits", 0),
            "code_bytes": len(result.program.module.code),
            "digest": artifact_digest(result.program),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "state": tracer.state() if tracer is not None else None}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2] == "1")))
