"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sha-cold --seed 1 --seconds 25 --trace 0

A closed loop with one client: the workload's images are optimised one
after another in this process, pass after pass, until ``--seconds``
have gone by.  Every optimisation is checked (same bytes and savings as
the first pass, a clean fixpoint, and the simulated output and exit
code of the optimised image equal to the program's reference).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (see ``layers.py``).  The last line of standard output is
one JSON object; the lines before it are a human-readable table, the
host fingerprint and the determinism record.  The exit code is 0 when
every optimisation passed its checks, 1 when one failed and 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.run(workload, args.seed, args.seconds, bool(args.trace),
                     ROOT)


if __name__ == "__main__":
    sys.exit(main())
