"""Benchmark one newslens workload.

    python3 perfbench/run.py --workload corpus_12k --seed 11 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's inputs are
generated from ``--seed`` before any timing starts.  Then one client runs
the workload in a closed loop for ``--seconds``: each operation is a fresh
interpreter (``child.py``) that loads the config, runs the pipeline and
writes the outputs, and the next starts when it has ended.  Every
operation's report.json must pass the correctness gate (``gate.py``) and be
byte-identical to the first one of the run.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported
as medians over the operations.  With ``--trace 1`` the loop interleaves
traced operations (spans around calls into each module, ``spans.py``) and
reports the per-layer metrics; the count metrics must repeat exactly
across the traced operations.

Human-readable lines go to stdout, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with the environment and the spans, goes to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS/OpenMP pools pinned to one thread: the pipeline is single-threaded
# Python around small matrix products, and one thread per process keeps
# the timings steady on a shared host.  The report does not depend on it.
THREAD_VARS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    )
}
MIN_SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0
# Counts that must repeat exactly across runs of the same code and seed.
EXACT_COUNTS = (
    "topics.nmf_iterations", "sentiment.mentions", "tsstats.lag_cells",
    "tsstats.permutations", "bootstrap.resamples_drawn", "vectorize.matrix_nnz",
    "report.bytes_written",
)


class OperationFailed(Exception):
    pass


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "newslens").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": THREAD_VARS,
        "hash_seed": "index of the operation among those of its kind in the run",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def _median_quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Starts the operations of one benchmark run and gates their reports."""

    def __init__(self, workload, work: Path, started: float):
        self.workload = workload
        self.work = work
        self.started = started
        self.env = {**os.environ, **THREAD_VARS, "PYTHONPATH": str(SRC)}
        self.truth = (
            json.loads(workload.truth.read_text(encoding="utf-8")) if workload.truth else None
        )
        self.first_report: bytes | None = None
        self.first_problems: list[str] = []
        self.notes: list[str] = []
        self.ops = 0
        self.kinds: dict[str, int] = {}

    def operation(self, kind: str) -> dict:
        """Run one child; ``kind`` is "setup", "run" or "trace"."""
        self.ops += 1
        job = self.work / f"job{self.ops}.json"
        result = self.work / f"result{self.ops}.json"
        out = self.work / "out"
        job.write_text(json.dumps({
            "config": str(self.workload.config),
            "overrides": self.workload.overrides,
            "out": str(out),
            "result": str(result),
            "setup_only": kind == "setup",
            "trace": kind == "trace",
            "run_id": self.ops,
        }), encoding="utf-8")
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        # String hashing sets dict and set layouts, which move a run's time
        # by several percent.  The n-th operation of each kind gets hash
        # seed n in every run, so runs, and traced against untraced
        # operations, compare like with like.
        self.kinds[kind] = self.kinds.get(kind, -1) + 1
        env = {**self.env, "PYTHONHASHSEED": str(self.kinds[kind])}
        # A fresh output directory, so that a run which writes no report
        # cannot pass on the one before it.
        shutil.rmtree(out, ignore_errors=True)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise OperationFailed(f"timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise OperationFailed(f"exit {proc.returncode}: {tail[0]}")
        sample = json.loads(result.read_text(encoding="utf-8"))
        sample["kind"] = kind
        sample["setup_s"] = sample.pop("config_ready") - spawned
        sample["problem"] = None if kind == "setup" else self._gate(out / "report.json")
        return sample

    def _gate(self, path: Path) -> str | None:
        """Why the report fails the correctness gate, or None."""
        if not path.is_file():
            return f"{path.name} was not written"
        data = path.read_bytes()
        if self.first_report is None:
            self.first_report = data
            self.first_problems, self.notes = check_report(json.loads(data), self.truth)
        if self.first_problems:
            return "gate: " + "; ".join(self.first_problems)
        if data != self.first_report:
            return "report.json differs from the first run of this workload"
        return None


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], list[str]]:
    """The closed loop: operations back to back until ``seconds`` have passed.

    Returns the samples of the operations that ended, some of which may
    carry a gate problem, and the operations that did not end.
    """
    samples: list[dict] = []
    failures: list[str] = []

    def attempt(kind: str) -> None:
        try:
            samples.append(runner.operation(kind))
        except OperationFailed as exc:
            failures.append(f"{kind}: {exc}")

    # Warm the file cache for the interpreter and libraries; not counted.
    attempt("setup")
    samples.clear()
    if trace:
        kinds = itertools.chain(["run", "trace", "trace"], itertools.cycle(["run", "trace"]))
        minimum = 3
    else:
        kinds, minimum = itertools.repeat("run"), 1
    started = time.monotonic()
    for n, kind in enumerate(kinds):
        # Stop when one more operation of the mean length would end further
        # past the deadline than this one ends before it.
        elapsed = time.monotonic() - started
        if n >= minimum and elapsed + elapsed / n / 2 >= seconds:
            break
        if time.monotonic() - runner.started >= HARD_LIMIT_S:
            failures.append(f"{kind}: no time left within {HARD_LIMIT_S:.0f} s")
            break
        attempt(kind)
    while not trace and len(samples) < MIN_SETUP_SAMPLES and len(failures) < 3:
        attempt("setup")
    return samples, failures


def end_to_end(samples: list[dict]) -> dict[str, dict]:
    runs = [s for s in samples if s["kind"] == "run"]
    return {
        "run_s": _median_quartiles([s["run_s"] for s in runs]),
        "docs_per_s": _median_quartiles([s["articles"] / s["run_s"] for s in runs]),
        "setup_s": _median_quartiles([s["setup_s"] for s in samples if s["kind"] != "trace"]),
        "peak_rss_mb": _median_quartiles([s["peak_rss_mb"] for s in runs]),
    }


def per_layer(samples: list[dict]) -> tuple[dict[str, dict], list[str]]:
    traced = [s for s in samples if s["kind"] == "trace"]
    untraced = statistics.median(s["run_s"] for s in samples if s["kind"] == "run")
    stats = {
        name: _median_quartiles([s["layers"][name] for s in traced])
        for name in traced[0]["layers"]
    }
    overhead = [s["run_s"] - untraced for s in traced]
    stats["trace.overhead_s"] = _median_quartiles(overhead)
    unsteady = [
        f"{name} {sorted({s['layers'][name] for s in traced})}"
        for name in EXACT_COUNTS
        if len({s["layers"][name] for s in traced}) > 1
    ]
    return stats, unsteady


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "newslens" / "__init__.py").is_file():
        print(f"error: newslens sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.build(args.workload, args.seed, work)
        runner = Runner(workload, work, started)
        samples, failures = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(s["kind"] != "setup" for s in samples) + len(failures)
    failures += [f"{s['kind']}: {s['problem']}" for s in samples if s["problem"]]
    if not any(s["kind"] == "run" for s in samples) or (
        args.trace and not any(s["kind"] == "trace" for s in samples)
    ):
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return 1

    unsteady: list[str] = []
    if args.trace:
        stats, unsteady = per_layer(samples)
        wanted = bench["per_layer"]
    else:
        stats = end_to_end(samples)
        wanted = bench["end_to_end"]
    report_sha = hashlib.sha256(runner.first_report).hexdigest() if runner.first_report else None
    fail_share = len(failures) / attempted

    print(f"workload {args.workload}, seed {args.seed}: {attempted} runs attempted, "
          f"{len(failures)} failed, {time.monotonic() - started:.1f} s")
    for metric in wanted:
        s = stats[metric["name"]]
        print(f"  {metric['name']:<34} {s['median']:>14.6g} {metric['unit']:<11} "
              f"(median of {s['n']}; quartiles {s['q1']:.6g} .. {s['q3']:.6g})")
    print(f"  {'fail_share':<34} {fail_share:>14.6g} {'ratio':<11} ({len(failures)}/{attempted})")
    print(f"  report.json sha256 {report_sha}")
    for line in runner.notes:
        print(f"  note: {line}")
    for line in failures:
        print(f"  FAILED {line}")
    for line in unsteady:
        print(f"  COUNT NOT REPEATED {line}")

    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [span for s in samples for span in s.pop("spans", [])]
    if spans:
        fields = ["name", "start", "end", "parent", "run_id", "self_s"]
        (results / f"{stem}-spans.json").write_text(
            json.dumps({"fields": fields, "spans": spans}), encoding="utf-8"
        )
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "stats": stats,
        "fail_share": fail_share, "failures": failures, "unrepeated_counts": unsteady,
        "report_sha256": report_sha, "gate_notes": runner.notes, "samples": samples,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": not failures and not unsteady,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
