"""Differential test: the abstract interpreter against its reference.

:mod:`tests.verify.oracle` keeps the interpreter as it was before the
flat constant lattice and the fragile-part stopping rule.  Both changes
are argued equal in DESIGN.md §6b; this test checks the claim by value
(``to_dict()``, never class identity) on every bundled workload, on
generated programs, and on every module the PA driver hands the
sp-fragility gate round after round — which is where fragile outlined
helpers, and so the second summary solve, actually occur.
"""

import pytest

from repro.minicc.driver import compile_to_module
from repro.pa.driver import PAConfig, run_pa
from repro.variance.genprog import generate_source, sized_config
from repro.verify import absint
from repro.workloads.suite import PROGRAMS, compile_workload

from tests.verify.oracle import absint as oracle


def audit_dicts(result):
    return (
        {name: s.to_dict() for name, s in result.summaries.items()},
        [event.to_dict() for event in result.events],
    )


def assert_matches_oracle(module):
    """Audit *module* both ways; return the fragile function names."""
    new = absint.audit_module(module)
    ref = oracle.audit_module(module)
    assert audit_dicts(new) == audit_dicts(ref)
    return {name for name, s in new.summaries.items() if s.fragile}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_workload_matches_oracle(name):
    assert_matches_oracle(compile_workload(name))


@pytest.mark.parametrize("seed", range(1, 9))
def test_generated_program_matches_oracle(seed):
    source = generate_source(sized_config(seed, 350))
    assert_matches_oracle(compile_to_module(source))


def per_round_modules_match(monkeypatch, module, config):
    """Run PA on *module*, checking every module the sp-fragility gate
    sees; return how many were checked and how many had fragile
    functions."""
    import repro.pa.legality as legality

    checked = []

    def checked_summaries(mod):
        checked.append(bool(assert_matches_oracle(mod)))
        return absint.module_summaries(mod)

    monkeypatch.setattr(legality, "module_summaries", checked_summaries)
    result = run_pa(module, config)
    assert result.saved > 0
    return len(checked), sum(checked)


def test_sha_rounds_match_oracle(monkeypatch):
    rounds, fragile = per_round_modules_match(
        monkeypatch, compile_workload("sha"),
        PAConfig(max_nodes=4, workers=1, time_budget=None),
    )
    assert rounds >= 2
    assert fragile >= 1


def test_generated_program_rounds_match_oracle(monkeypatch):
    module = compile_to_module(generate_source(sized_config(1, 350)))
    rounds, fragile = per_round_modules_match(
        monkeypatch, module,
        PAConfig(max_nodes=5, workers=1, time_budget=None),
    )
    assert rounds >= 2
    assert fragile >= 1
