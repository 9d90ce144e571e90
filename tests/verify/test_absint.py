"""The interprocedural abstract interpreter: summaries, site events,
and the composition that motivated it (a frameless sp user swallowed by
a later ``push {lr}`` bracket clobbering the saved return address)."""

import pytest

from repro import telemetry
from repro.pa.sfx import run_sfx
from repro.verify.absint import (
    AUDIT_SCHEMA,
    CALLER_WRITE,
    ERROR_KINDS,
    GROWTH_CYCLE,
    HEIGHT_MISMATCH,
    RETADDR_CLOBBER,
    UNINIT_READ,
    audit_module,
    module_summaries,
)
from repro.verify.cfg import build_module_cfg
from repro.workloads.suite import PROGRAMS, compile_workload

from tests.conftest import SHARED_FRAGMENT_PROGRAM, module_from_source
from tests.pa.test_sp_fragile_regression import COMPOSITION_PROGRAM

BALANCED = """
_start:
    bl f
    mov r0, #0
    swi #0
f:
    push {r4, lr}
    sub sp, sp, #8
    mov r4, #7
    str r4, [sp, #4]
    ldr r0, [sp, #4]
    add sp, sp, #8
    pop {r4, pc}
"""


def kinds(result):
    return {e.kind for e in result.events}


def test_balanced_program_is_clean():
    result = audit_module(module_from_source(BALANCED))
    assert result.ok
    assert result.events == []
    summary = result.summaries["f"]
    assert summary.net_delta == 0
    assert summary.height_known
    assert summary.max_height == 16
    assert not summary.fragile
    assert summary.retaddr_slots == (4,)


def test_shared_fragment_program_is_clean():
    result = audit_module(module_from_source(SHARED_FRAGMENT_PROGRAM))
    assert result.ok and result.events == []
    assert not any(s.fragile for s in result.summaries.values())


def test_frameless_sp_writer_is_fragile():
    module = module_from_source("""
_start:
    sub sp, sp, #4
    bl g
    add sp, sp, #4
    mov r0, #0
    swi #0
g:
    mov r1, #9
    str r1, [sp]
    mov pc, lr
""")
    result = audit_module(module)
    summary = result.summaries["g"]
    # g stores at its own entry sp: caller-owned memory, depth 0
    assert summary.caller_writes == (0,)
    assert summary.touches_caller_frame
    assert summary.fragile
    assert CALLER_WRITE in kinds(result)
    # a caller-frame write alone is a warning, not an error
    assert result.ok


def test_unbalanced_return_is_fragile():
    module = module_from_source("""
_start:
    bl leak
    add sp, sp, #8
    mov r0, #0
    swi #0
leak:
    sub sp, sp, #8
    mov pc, lr
""")
    summary = module_summaries(module)["leak"]
    assert summary.net_delta == 8
    assert summary.fragile


def test_retaddr_clobber_is_an_error():
    module = module_from_source("""
_start:
    bl f
    mov r0, #0
    swi #0
f:
    push {lr}
    mov r0, #1
    str r0, [sp]
    pop {pc}
""")
    result = audit_module(module)
    assert RETADDR_CLOBBER in kinds(result)
    assert not result.ok
    events = [e for e in result.events if e.kind == RETADDR_CLOBBER]
    assert events[0].function == "f"
    assert events[0].depth == 4


def test_fragility_propagates_through_callers():
    """The regression composition, statically: ``outer`` brackets a call
    to a frameless callee that stores through ``sp`` — the store lands
    on outer's saved return address."""
    module = module_from_source("""
_start:
    bl outer
    mov r0, #0
    swi #0
outer:
    push {lr}
    bl writer
    pop {pc}
writer:
    mov r1, #5
    str r1, [sp]
    mov pc, lr
""")
    result = audit_module(module)
    assert result.summaries["writer"].fragile
    assert RETADDR_CLOBBER in kinds(result)
    assert not result.ok
    clobbers = [e for e in result.events if e.kind == RETADDR_CLOBBER]
    assert any(e.function == "outer" for e in clobbers)


def test_uninit_read_is_a_warning():
    module = module_from_source("""
_start:
    bl f
    swi #0
f:
    sub sp, sp, #4
    ldr r0, [sp]
    add sp, sp, #4
    mov pc, lr
""")
    result = audit_module(module)
    assert UNINIT_READ in kinds(result)
    assert result.ok  # warning-severity: audit still passes


def test_growth_cycle_detected():
    module = module_from_source("""
_start:
    mov r0, #0
    bl grow
    mov r0, #0
    swi #0
grow:
    sub sp, sp, #4
    cmp r0, #0
    bne grow
    mov pc, lr
""")
    result = audit_module(module)
    assert kinds(result) & {GROWTH_CYCLE, HEIGHT_MISMATCH}
    assert not module_summaries(module)["grow"].height_known or \
        module_summaries(module)["grow"].fragile


def test_summaries_reach_fixpoint_quickly():
    result = audit_module(module_from_source(SHARED_FRAGMENT_PROGRAM))
    assert result.iterations <= 3


def test_payload_shape():
    result = audit_module(module_from_source(BALANCED))
    payload = result.to_payload(source="unit")
    assert payload["schema"] == AUDIT_SCHEMA
    assert payload["source"] == "unit"
    assert payload["ok"] is True
    assert payload["counts"] == {"events": 0, "errors": 0}
    assert set(payload["functions"]) == {"_start", "f"}
    fn = payload["functions"]["f"]
    assert fn["fragile"] is False and fn["net_delta"] == 0


def test_error_kinds_cover_exactly_the_unsound_events():
    assert ERROR_KINDS == {RETADDR_CLOBBER, HEIGHT_MISMATCH}


def counted_audit(module):
    """Audit *module* with telemetry on; return the result, the CFG and
    the solver/audit counters the run left behind."""
    cfg = build_module_cfg(module)
    registry = telemetry.get()
    registry.reset()
    registry.enable()
    try:
        result = audit_module(module, cfg)
        counters = {name: c.value for name, c in registry.counters.items()}
    finally:
        registry.disable()
        registry.reset()
    return result, cfg, counters


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_fragile_free_workload_takes_one_cheap_solve(name):
    """Host-independent work bound: a module without fragile functions
    is solved once, at no more than two block visits per CFG block."""
    result, cfg, counters = counted_audit(compile_workload(name))
    assert not any(s.fragile for s in result.summaries.values())
    assert result.iterations == 1
    assert counters["verify.audit.iterations"] == 1
    assert counters["verify.solver.runs"] == 1
    assert counters["verify.solver.iterations"] <= 2 * len(cfg.keys)


def test_fragile_helper_takes_a_second_solve():
    module = module_from_source(COMPOSITION_PROGRAM)
    run_sfx(module)
    result, __, counters = counted_audit(module)
    assert any(s.fragile for s in result.summaries.values())
    assert result.iterations == 2
    assert counters["verify.solver.runs"] == 2
