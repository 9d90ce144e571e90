"""Steadiness check: run workloads on several seeds and compare spreads.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --seeds 10 [--workloads sha-cold,small-warm]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a
time, and reports for each end-to-end metric the median and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  A metric is steady when that
spread stays below a third of its bound in ``BENCHMARK.json``
(``setup_s`` is reported but not gated).  The optimised-image digests
and savings of every program must be identical across all runs of a
workload.  Exits 1 when a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int):
    """(metrics, determinism record) of one run; raises on failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f"\n{proc.stdout}{proc.stderr}")
    record = next(json.loads(line[len("# record: "):]) for line in lines
                  if line.startswith("# record: "))
    return json.loads(lines[-1])["metrics"], record


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        fingerprints = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics, record = run_once(workload, seed, bench["run_seconds"])
            for name in bounds:
                values[name].append(metrics[name]["value"])
            fingerprints.add(tuple(sorted(
                (p["name"], p["saved"], p["sha256"])
                for p in record["programs"])))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metrics[name]['value']:.6g}" for name in bounds),
                flush=True)
        if len(fingerprints) != 1:
            ok = False
            print(f"{workload}: optimised images or savings differ between "
                  f"runs: {sorted(fingerprints)}")
        for name, bound in bounds.items():
            median, share = spread(values[name])
            gated = name != "setup_s"
            steady = share < bound / 3 or not gated
            ok = ok and steady
            print(f"  {workload:<12} {name:<16} median {median:<12.6g} "
                  f"spread {share:7.2%}  bound {bound:.0%}"
                  f"{'' if steady else '  NOT STEADY'}"
                  f"{'' if gated else '  (not gated)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
