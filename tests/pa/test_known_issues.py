"""Known miscompiles, recorded as strict expected failures.

Each test states the correct behaviour.  ``strict=True`` turns the fix
into a visible event: the test then passes unexpectedly and fails the
suite until the marker is removed.  DESIGN.md "Known issues" has the
diagnosis of each.
"""

import pytest

from repro.pa.driver import PAConfig, run_pa
from repro.workloads.suite import compile_workload, verify_workload


def _sha_after(max_rounds: int):
    module = compile_workload("sha")
    run_pa(module, PAConfig(max_nodes=4, workers=1, max_rounds=max_rounds))
    return module


def test_sha_max_nodes_4_is_correct_through_round_4():
    """The bisection's good side: the first four rounds are sound."""
    verify_workload("sha", _sha_after(max_rounds=4))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a bl's callee register effects are missing from the DFG, so "
           "round 5 sinks `mov r7, r6` across calls to frameless pa_* "
           "helpers that read r4-r11 (DESIGN.md, Known issues)",
)
def test_sha_max_nodes_4_keeps_output():
    verify_workload("sha", _sha_after(max_rounds=10_000))
