"""Regenerate ``expected.json``: the deterministic facts of every fixed12
program that the benchmark checks its runs against.

Run from the root of a checkout, only when a change is meant to alter
the images or their simulated behaviour::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from harness import EXPECTED, sha256  # noqa: E402
from repro.workloads.corpus import artifact_digest  # noqa: E402
from wl_run import build_all, load_and_run  # noqa: E402


def main() -> None:
    pinned = {}
    for name, (hardened, native) in build_all().items():
        result, _ = load_and_run(hardened)
        baseline, _ = load_and_run(native)
        pinned[name] = {
            "output_sha256": sha256(result.output),
            "exit_code": result.exit_code,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "tx_checks": result.tx_checks,
            "native_cycles": baseline.cycles,
            "code_bytes": len(hardened.module.code),
            "artifact_sha256": artifact_digest(hardened),
        }
        print(name, pinned[name]["cycles"], pinned[name]["code_bytes"])
    EXPECTED.write_text(json.dumps({"programs": pinned}, indent=1,
                                   sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
