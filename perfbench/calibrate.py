"""Host-speed calibration loop, run in a child process.

On a shared host the neighbours slow this benchmark by up to about 1.8x,
in bursts that outlast a pass, so raw pass times of one run can differ
from the next by more than any useful bound.  ``bench.Normaliser`` times
:func:`loop_seconds` right before and after every timed unit and scales
the unit by ``REFERENCE_S / loop seconds``: that cancels the neighbours'
slowdown and keeps any change in the program's own cost.

The loop does the same kind of work as the optimiser (tuple-keyed
dicts, lists, strings, sorting, frozensets) over a working set of a few
megabytes; a loop that fits in the core's caches tracks the slowdown
worse.  It runs in its own process so that its memory never counts
toward the benchmark's peak RSS.  Each line read from standard input
asks for one timing, answered with one line of seconds on standard
output; the process ends at end of input.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Tuple


def loop_seconds() -> float:
    """Wall seconds of one run of the fixed calibration loop."""
    started = time.perf_counter()
    total = 0
    for __ in range(6):
        table: Dict[Tuple[int, int], List[str]] = {}
        for i in range(20_000):
            table.setdefault((i % 97, i % 89), []).append(str(i))
        items = sorted(table.items())
        total += sum(len(values) for __, values in items)
        total += len({frozenset(key) for key, __ in items})
    if total <= 0:  # keeps the loop's result live
        raise AssertionError("calibration loop did no work")
    return time.perf_counter() - started


def main() -> None:
    for __ in sys.stdin:
        print(repr(loop_seconds()), flush=True)


if __name__ == "__main__":
    main()
