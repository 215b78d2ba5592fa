"""Run the benchmark over several seeds and print each metric's median and spread.

Usage, from the root of a source checkout:

    python3 perfbench/repeat.py --seeds 1-10 [--trace 1] [--out FILE]

For every seed, runs ``run.py`` once per workload (workloads interleaved,
so a slow spell of the machine hits all of them).  Then prints, per
workload and metric, the unit, the sample count, the median, the first and
third quartiles (``statistics.quantiles(n=4)``), the spread (third minus
first quartile, over the median) and the metric's bound, plus the error
rate: failed over attempted, summed over the runs.  ``--out`` writes every
run's context and result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}

    runs = []
    for seed in args.seeds:
        for workload in workloads.WORKLOADS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
            run = {"context": json.loads(lines[-2]), "result": json.loads(lines[-1])}
            runs.append(run)
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in run["result"]["metrics"].items()), flush=True)

    print(f"{'workload':<14} {'metric':<30} {'unit':<6} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload in workloads.WORKLOADS:
        mine = [r["result"] for r in runs if r["context"]["workload"] == workload]
        for name, meta in declared.items():
            values = [r["metrics"][name]["value"] for r in mine]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            print(f"{workload:<14} {name:<30} {meta['unit']:<6} {len(values):>3} {median:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread:>7.3f} {meta.get('bound', ''):>6}")
        failed = sum(r["failed"] for r in mine)
        attempted = sum(r["attempted"] for r in mine)
        print(f"{workload:<14} {'error_rate':<30} {'ratio':<6} {len(mine):>3} "
              f"{failed / attempted:>12.6g}   ({failed} of {attempted} attempted)")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"benchmark": bench, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
