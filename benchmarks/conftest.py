"""Shared benchmark infrastructure.

Every benchmark regenerates one table or figure of the paper and writes
the formatted result to ``<artifact>.txt``, in addition to the
pytest-benchmark timing output.  By default the files land in a
scratch directory (``$TMPDIR/repro-bench-results``), so a plain test
run leaves the tracked tree alone; ``pytest --record`` rewrites the
tracked ``benchmarks/results/<artifact>.txt`` files that EXPERIMENTS.md
quotes.

Set ``REPRO_FULL=1`` to run the execution-heavy artifacts (Figs. 5-6,
gadget scans) over all twelve benchmarks; the default subset keeps the
suite under a few minutes while preserving every comparison the paper
makes (call-heavy vs loop-heavy benchmarks, integer vs floating point).
"""

import os
import tempfile
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
SCRATCH_DIR = Path(tempfile.gettempdir()) / "repro-bench-results"

#: where write_result puts files: RESULTS_DIR under ``--record``
_out_dir = SCRATCH_DIR

FULL = os.environ.get("REPRO_FULL", "") == "1"

#: Execution-heavy subset: the two call-heaviest (largest overhead),
#: one mid, one near-zero, one floating-point benchmark.
SUBSET = ("perlbench", "gcc", "sjeng", "libquantum", "lbm")


def selected_benchmarks():
    from repro.workloads.spec import BENCHMARKS
    return BENCHMARKS if FULL else SUBSET


def pytest_addoption(parser):
    parser.addoption(
        "--record", action="store_true", default=False,
        help="rewrite the tracked benchmarks/results/*.txt files")


def pytest_configure(config):
    # pytest loads this file as ``conftest``; the benchmarks import it
    # as ``benchmarks.conftest`` — a second module object, whose
    # write_result is the one they call
    import benchmarks.conftest as shared
    shared._out_dir = (RESULTS_DIR if config.getoption("--record")
                       else SCRATCH_DIR)


def write_result(artifact: str, text: str) -> None:
    _out_dir.mkdir(parents=True, exist_ok=True)
    path = _out_dir / f"{artifact}.txt"
    path.write_text(text + "\n")


@pytest.fixture(scope="session")
def benchmarks_list():
    return selected_benchmarks()
