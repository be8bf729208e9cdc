"""Compare two run records: deterministic counts, then layer self times.

Usage (records are written by ``run.py`` under ``.perfbench/``)::

    python3 perfbench/compare.py BASE.json NEW.json

Prints the machine-fingerprint fields that differ; every deterministic
count (cycles, instructions, TxChecks, CFG stats, code size) that
differs between rows of the same program or host run; and, when both
records are traced, the layers ordered by the absolute change of their
self time.  Self times add up to the traced operations' wall time, so
the ranked deltas say where a change in that time came from.  Exits 1
when a deterministic count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: row fields that must repeat exactly for the same program or host run
DETERMINISTIC = ("cycles", "instructions", "tx_checks", "native_cycles",
                 "app_instructions", "cfg", "code_bytes", "digest")


def row_key(row: dict):
    return row.get("program", row.get("host_run"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = (json.loads(Path(path).read_text(encoding="utf-8"))
                 for path in (args.base, args.new))

    for key in sorted(set(base["fingerprint"]) | set(new["fingerprint"])):
        old, now = base["fingerprint"].get(key), new["fingerprint"].get(key)
        if old != now:
            print(f"fingerprint {key}: {old} -> {now}")

    old_fp, new_fp = base["fingerprint"], new["fingerprint"]
    comparable = old_fp["workload"] == new_fp["workload"] and (
        old_fp["workload"] != "dlopen" or old_fp["seed"] == new_fp["seed"])
    new_rows = {row_key(row): row for row in new["rows"]} if comparable \
        else {}
    compared = differing = 0
    for row in base["rows"]:
        other = new_rows.get(row_key(row))
        if other is None:
            continue
        compared += 1
        for field in DETERMINISTIC:
            if field in row and row[field] != other.get(field):
                differing += 1
                print(f"DIFFERS {row_key(row)} {field}: {row[field]} -> "
                      f"{other.get(field)}")
    print(f"deterministic counts: {compared} shared rows, "
          f"{differing} differing fields"
          + ("" if comparable else " (different workload, or dlopen "
             "host runs under different seeds)"))

    if base.get("layers") and new.get("layers"):
        print_layers(base["layers"], new["layers"])
    return 1 if differing else 0


def print_layers(old_layers: dict, new_layers: dict) -> None:
    rows = []
    for name in old_layers:
        before, after = old_layers[name], new_layers.get(name, 0.0)
        if name.endswith(".self_ms") and (before or after):
            rows.append((after - before, name[:-len(".self_ms")], before,
                         after))
    rows.sort(key=lambda row: -abs(row[0]))
    total_before = sum(row[2] for row in rows)
    total_after = sum(row[3] for row in rows)
    print(f"\nself time, all layers: {total_before:.1f} ms -> "
          f"{total_after:.1f} ms ({total_after - total_before:+.1f} ms)")
    print(f"{'layer':28s} {'base ms':>11s} {'new ms':>11s} "
          f"{'delta ms':>11s} {'delta':>8s}")
    for delta, name, before, after in rows:
        share = f"{100.0 * delta / before:+.1f}%" if before else "new"
        print(f"{name:28s} {before:11.1f} {after:11.1f} {delta:+11.1f} "
              f"{share:>8s}")

    changed = [(name, old_layers[name], new_layers.get(name))
               for name in old_layers
               if not name.endswith("ms")
               and old_layers[name] != new_layers.get(name)]
    if changed:
        print("\nother per-layer values that changed:")
        for name, before, after in changed:
            print(f"  {name:36s} {before:>14.6g} -> {after:<14.6g}")


if __name__ == "__main__":
    sys.exit(main())
