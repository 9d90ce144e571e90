"""The fault-injection harness: arming, firing, and — critically —
being provably inert when disarmed — and the fault-point catalogue
matching the probe sites in the source."""

import ast
import pathlib

import pytest

import repro

from repro.resilience import faultinject
from repro.resilience.errors import FaultInjected
from repro.resilience.faultinject import (
    FAULT_POINTS,
    arm,
    arm_from_env,
    armed_points,
    disarm_all,
    fault,
)
from repro.resilience.governor import RunGovernor, activate


def test_disarmed_is_inert():
    for point in FAULT_POINTS:
        assert fault(point) is None


def test_unknown_point_rejected_at_arm_time():
    with pytest.raises(ValueError, match="unknown fault point"):
        arm("mine.typo")
    assert armed_points() == []


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown fault mode"):
        arm("mis.solve:explode")


def test_spec_parsing_defaults():
    spec = arm("mis.solve")
    assert (spec.point, spec.mode, spec.at) == ("mis.solve", "raise", 1)
    spec = arm("mine.pass:interrupt:3")
    assert (spec.point, spec.mode, spec.at) == ("mine.pass", "interrupt", 3)


def test_raise_mode_fires_on_the_armed_hit_only():
    arm("mis.solve:raise:3")
    assert fault("mis.solve") is None
    assert fault("mis.solve") is None
    with pytest.raises(FaultInjected):
        fault("mis.solve")
    # one-shot: later hits pass through
    assert fault("mis.solve") is None


def test_at_zero_fires_every_hit():
    arm("mis.solve:raise:0")
    for _ in range(3):
        with pytest.raises(FaultInjected):
            fault("mis.solve")


def test_unarmed_point_inert_while_another_is_armed():
    arm("mis.solve")
    assert fault("mine.pass") is None


def test_interrupt_mode():
    arm("mine.pass:interrupt")
    with pytest.raises(KeyboardInterrupt):
        fault("mine.pass")


def test_deadline_mode_expires_active_governor():
    governor = RunGovernor()
    arm("mine.pass:deadline")
    with activate(governor):
        assert fault("mine.pass") == "deadline"
    assert governor.expired()


def test_corrupt_mode_returns_marker():
    arm("checkpoint.write:corrupt")
    assert fault("checkpoint.write") == "corrupt"


def test_arm_from_env():
    specs = arm_from_env({"REPRO_FAULT": "mis.solve:raise:2, mine.pass"})
    assert [s.point for s in specs] == ["mis.solve", "mine.pass"]
    assert armed_points() == ["mine.pass", "mis.solve"]
    disarm_all()
    assert arm_from_env({}) == []


def test_fault_injected_is_typed():
    error = FaultInjected("boom")
    assert error.code == "REPRO-FAULT"
    assert error.exit_code == 4


def test_disarmed_pipeline_is_bit_identical(shared_module_pair):
    """The guard test: a disarmed harness must not perturb the pipeline."""
    first, second = shared_module_pair
    from repro.pa.driver import PAConfig, run_pa

    run_pa(first, PAConfig())
    disarm_all()
    run_pa(second, PAConfig())
    assert first.render() == second.render()


@pytest.fixture
def shared_module_pair():
    from tests.conftest import SHARED_FRAGMENT_PROGRAM, module_from_source

    return (
        module_from_source(SHARED_FRAGMENT_PROGRAM),
        module_from_source(SHARED_FRAGMENT_PROGRAM),
    )


def _probe_literals():
    """Every fault-point name probed in ``src/repro``, with its site.

    A probe is a ``fault("name")`` call (bare or as an attribute) or the
    first element of a ``(point, directive)`` pair in a module-level
    ``*_FAULT_DIRECTIVES`` table, which the supervised executor probes
    per shard dispatch.  ``faultinject.py`` itself only declares."""
    root = pathlib.Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "faultinject.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if (name == "fault" and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    found.append((node.args[0].value,
                                  f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
                if not any(t.endswith("_FAULT_DIRECTIVES") for t in targets):
                    continue
                for pair in node.value.elts:
                    found.append((pair.elts[0].value,
                                  f"{path.name}:{pair.lineno}"))
    return found


def test_every_catalogued_point_has_a_probe_site():
    probed = {point for point, __ in _probe_literals()}
    assert sorted(FAULT_POINTS - probed) == []


def test_every_probed_point_is_catalogued():
    unknown = [(point, site) for point, site in _probe_literals()
               if point not in FAULT_POINTS]
    assert unknown == []
