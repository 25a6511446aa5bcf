"""Run the benchmark over every workload and seed, and check that it is steady.

    python3 perfbench/suite.py                      # every workload once, seed 11
    python3 perfbench/suite.py --seeds 10 --sets 2  # steadiness mode
    python3 perfbench/suite.py --trace --sets 2     # per-layer counts repeat?

Each (workload, seed) is one ``run.py`` invocation, run one after another,
for every workload in BENCHMARK.json.  For every end-to-end metric and
workload the summary gives the median over seeds and the quartile spread
as a share of it, which must stay within the metric's bound (``setup_s``
excepted: its bound is judged on medians only).  With two or more sets it
also compares each later set with the first, both ways round: the medians
over seeds, and each seed's ``run.py`` figure with the same seed's in the
first set, whose largest deviation is printed.  Both must stay within the
bound.  With ``--trace`` it checks instead that the exact count metrics
repeat between sets for every seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import EXACT_COUNTS, HERE, ROOT


def run_once(workload: str, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stdout.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """Median and quartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def deviation(value: float, base: float) -> float:
    return abs(value - base) / abs(base) if base else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1, help="seeds per set")
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    # results[set][workload] = one result line per seed
    results = [
        {w: [run_once(w, s, args.trace) for s in seeds] for w in workloads}
        for _ in range(args.sets)
    ]

    ok = all(r["correct"] for sets in results for runs in sets.values() for r in runs)
    print("\nsummary (median over seeds; spread = quartile distance / median;")
    print("         vs set 1: |median deviation|, largest |per-seed deviation|)")
    if args.trace:
        for w in workloads:
            for name in EXACT_COUNTS:
                values = [[r["metrics"][name]["value"] for r in sets[w]] for sets in results]
                same = all(v == values[0] for v in values)
                ok &= same
                print(f"  {w:<15} {name:<28} {'repeats' if same else 'DIFFERS'} {values[0]}")
    else:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            for w in workloads:
                values = [[r["metrics"][name]["value"] for r in sets[w]] for sets in results]
                cells = [spread(v) for v in values]
                line = "  ".join(f"{m:10.5g} ±{s:6.1%}" for m, s in cells)
                flags = []
                if name != "setup_s" and any(s > bound for _, s in cells):
                    flags.append("SPREAD OVER BOUND")
                for (m, _), later in zip(cells[1:], values[1:]):
                    moved = deviation(m, cells[0][0])
                    per_seed = max(deviation(v, b) for v, b in zip(later, values[0]))
                    line += f"  vs set 1: {moved:5.1%}, per seed {per_seed:5.1%}"
                    if moved > bound:
                        flags.append("MEDIANS DISAGREE")
                    if per_seed > bound:
                        flags.append("A SEED DISAGREES")
                ok &= not flags
                print(f"  {w:<15} {name:<12} {metric['unit']:<11} bound {bound:4.0%}: {line}"
                      f"{'  ' + ', '.join(flags) if flags else ''}")
    print("steady and correct" if ok else "NOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
