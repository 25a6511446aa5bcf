"""Print sha256 hashes of the outputs for the seed-11 fixture and each benchmark workload.

    python3 scripts/report_hashes.py

Run from anywhere inside a source checkout; it takes no options.  BLAS
pools are pinned to one thread, as the benchmark pins them, before numpy
loads.  Inputs are built in a temporary directory and removed.  Each line
reads ``<name> <report.json sha256> <outputs sha256>``, where the second
hash covers every output file but ``manifest.json`` (which records the
runtime): each file's path relative to the output directory, its size and
its bytes, in path order.  A change that only simplifies keeps all eight.
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


def outputs_sha256(out: Path) -> str:
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()):
        if rel != "manifest.json":
            data = (out / rel).read_bytes()
            digest.update(f"{rel}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


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
            report = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
            print(name, report, outputs_sha256(out), flush=True)


if __name__ == "__main__":
    main()
