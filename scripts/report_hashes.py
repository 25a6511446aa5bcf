"""Print the sha256 of report.json for the seed-11 fixture and each benchmark workload.

    python3 scripts/report_hashes.py

Run from anywhere inside a source checkout; it takes no options.  BLAS
pools are pinned to one thread, as the benchmark pins them, before numpy
loads.  Inputs are built in a temporary directory and removed.  Each line
reads ``<name> <sha256>``; a change that only simplifies keeps all four.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import THREAD_VARS  # the benchmark runner; imports no numpy

os.environ.update(THREAD_VARS)

from newslens.config import load_config
from newslens.fixture import generate_fixture
from newslens.pipeline import run_pipeline
from newslens.report import emit_outputs
from workloads import NAMES, build

SEED = 11


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = [("fixture", generate_fixture(work / "fixture", SEED)["config"], {})]
        for name in NAMES:
            w = build(name, SEED, work / name)
            inputs.append((name, w.config, w.overrides))
        for name, config, overrides in inputs:
            out = work / "out" / name
            emit_outputs(run_pipeline(load_config(config, overrides)), out)
            print(name, hashlib.sha256((out / "report.json").read_bytes()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
