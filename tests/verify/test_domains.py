"""Lattice laws for the abstract-interpretation domains.

The worklist solver terminates only if joins are monotone over
finite-height lattices, so the value/frame/state joins are checked
directly: commutativity, idempotence, BOT identity, UNINIT absorption,
and the flat constant lattice that bounds every ascending chain.

The interval-hull domain the constant lattice replaced lives on as the
reference in :mod:`tests.verify.oracle.domains`; the hull tests pin it,
and the abstraction tests at the end check the equivalence argument of
the replacement: mapping every non-constant interval to TOP commutes
with join, add and negate.
"""

import itertools

import pytest

from repro.verify.domains import (
    BOT,
    BOTTOM_STATE,
    EMPTY_FRAME,
    MAGNITUDE_CAP,
    RETADDR,
    Const,
    StackAddr,
    TOP,
    UNINIT,
    add_values,
    allocate,
    deallocate,
    entry_state,
    frame_from_dict,
    join_frames,
    join_states,
    join_values,
    negate_value,
    retaddr_depths,
    stack_depth_of,
)
from tests.verify.oracle import domains as oracle

SAMPLES = [
    BOT, TOP, UNINIT, RETADDR,
    Const(0), Const(7), Const(MAGNITUDE_CAP + 1),
    StackAddr(0), StackAddr(8), StackAddr(-4),
]


def test_join_is_commutative_and_idempotent():
    for a, b in itertools.product(SAMPLES, repeat=2):
        assert join_values(a, b) == join_values(b, a)
    for a in SAMPLES:
        assert join_values(a, a) == a


def test_bot_is_the_join_identity():
    for a in SAMPLES:
        assert join_values(BOT, a) == a
        assert join_values(a, BOT) == a


def test_uninit_absorbs_everything_but_bot():
    for a in SAMPLES:
        if a is BOT:
            continue
        assert join_values(UNINIT, a) is UNINIT


def test_distinct_kinds_join_to_top():
    assert join_values(Const(1), StackAddr(4)) is TOP
    assert join_values(RETADDR, Const(0)) is TOP
    assert join_values(StackAddr(4), StackAddr(8)) is TOP


def test_distinct_constants_join_to_top():
    assert join_values(Const(1), Const(5)) is TOP
    assert join_values(Const(1), Const(2)) is TOP
    assert join_values(Const(3), Const(3)) == Const(3)


def test_join_chains_are_short():
    # BOT -> one known value -> TOP -> UNINIT: three steps at most
    chain = [BOT]
    for value in (Const(0), Const(1), Const(2), UNINIT, Const(3)):
        chain.append(join_values(chain[-1], value))
    assert chain == [BOT, Const(0), TOP, TOP, UNINIT, UNINIT]


def test_interval_join_widens_to_hull_then_top():
    # the reference domain's hull; the constant lattice has no hull
    assert oracle.join_values(oracle.const(1), oracle.const(5)) == \
        oracle.Interval(1, 5)
    # the width cap converts unbounded chains into TOP
    assert oracle.join_values(
        oracle.const(0), oracle.const(oracle.WIDTH_CAP + 1)) is oracle.TOP
    assert oracle.join_values(
        oracle.const(0), oracle.const(oracle.MAGNITUDE_CAP + 1)) \
        is oracle.TOP


def test_empty_interval_is_rejected():
    with pytest.raises(ValueError):
        oracle.Interval(3, 2)


def test_add_values_shifts_stack_addresses():
    # sub sp, sp, #8: sp := sp + (-8) deepens the stack by 8 bytes
    assert add_values(StackAddr(0), Const(-8)) == StackAddr(8)
    assert add_values(Const(4), StackAddr(8)) == StackAddr(4)
    # adding an unknown amount loses the address
    assert add_values(StackAddr(0), TOP) is TOP
    assert add_values(StackAddr(0), StackAddr(4)) is TOP
    assert add_values(StackAddr(0), UNINIT) is UNINIT


def test_constant_arithmetic_is_capped():
    assert add_values(Const(3), Const(-5)) == Const(-2)
    assert add_values(Const(MAGNITUDE_CAP), Const(1)) is TOP
    assert add_values(Const(0), BOT) is BOT
    # an immediate beyond the cap still shifts a stack address
    assert add_values(StackAddr(0), Const(-MAGNITUDE_CAP - 4)) == \
        StackAddr(MAGNITUDE_CAP + 4)


def test_negate_value():
    # the reference domain negates whole intervals
    assert oracle.negate_value(oracle.Interval(2, 5)) == \
        oracle.Interval(-5, -2)
    assert oracle.negate_value(oracle.StackAddr(4)) is oracle.TOP
    assert oracle.negate_value(oracle.UNINIT) is oracle.UNINIT


def test_negate_constant():
    assert negate_value(Const(5)) == Const(-5)
    assert negate_value(Const(MAGNITUDE_CAP + 1)) is TOP
    assert negate_value(StackAddr(4)) is TOP
    assert negate_value(TOP) is TOP
    assert negate_value(UNINIT) is UNINIT
    assert negate_value(BOT) is BOT


def test_stack_depth_of():
    assert stack_depth_of(StackAddr(12)) == 12
    assert stack_depth_of(Const(12)) is None
    assert stack_depth_of(TOP) is None


def test_frame_join_is_pointwise_and_drops_one_sided_slots():
    # the reference domain keeps the hull of the two slot values
    a = oracle.frame_from_dict({4: oracle.const(1), 8: oracle.RETADDR})
    b = oracle.frame_from_dict({4: oracle.const(3), 12: oracle.const(9)})
    joined = dict(oracle.join_frames(a, b))
    assert joined == {4: oracle.Interval(1, 3)}
    assert oracle.join_frames(a, a) == a


def test_frame_join_of_constants():
    a = frame_from_dict({4: Const(1), 8: RETADDR, 16: Const(2)})
    b = frame_from_dict({4: Const(3), 12: Const(9), 16: Const(2)})
    assert dict(join_frames(a, b)) == {4: TOP, 16: Const(2)}
    assert join_frames(a, a) == a


def test_allocate_marks_new_words_uninit():
    frame = allocate(EMPTY_FRAME, 0, 8)
    assert dict(frame) == {4: UNINIT, 8: UNINIT}
    # push over the allocation keeps the deeper slot
    frame = allocate(frame, 8, 12)
    assert dict(frame) == {4: UNINIT, 8: UNINIT, 12: UNINIT}


def test_deallocate_drops_slots_below_the_new_sp():
    frame = frame_from_dict({4: RETADDR, 8: Const(1), 12: Const(2)})
    assert dict(deallocate(frame, 8)) == {4: RETADDR, 8: Const(1)}
    assert deallocate(frame, 0) == EMPTY_FRAME


def test_retaddr_depths():
    frame = frame_from_dict({4: RETADDR, 8: Const(0), 16: RETADDR})
    assert retaddr_depths(frame) == (4, 16)


def test_entry_state_shape():
    state = entry_state()
    assert state.height == 0
    assert state.reg(13) == StackAddr(0)
    assert state.reg(14) is RETADDR
    assert state.reg(0) is TOP
    assert state.frame == EMPTY_FRAME
    assert not state.escaped and not state.bottom


def test_bottom_is_the_state_join_identity():
    state = entry_state().with_reg(4, Const(7))
    assert join_states(BOTTOM_STATE, state) == state
    assert join_states(state, BOTTOM_STATE) == state


def test_state_join_merges_registers_and_sticky_escape():
    # the reference domain: registers join to their hull
    a = oracle.entry_state().with_reg(4, oracle.const(1))
    b = oracle.entry_state().with_reg(4, oracle.const(3))
    joined = oracle.join_states(a, b)
    assert joined.reg(4) == oracle.Interval(1, 3)
    assert joined.height == 0

    leaky = b.__class__(regs=b.regs, frame=b.frame, escaped=True)
    assert oracle.join_states(a, leaky).escaped


def test_state_join_of_constants_and_sticky_escape():
    a = entry_state().with_reg(4, Const(1)).with_reg(5, Const(2))
    b = entry_state().with_reg(4, Const(3)).with_reg(5, Const(2))
    joined = join_states(a, b)
    assert joined.reg(4) is TOP
    assert joined.reg(5) == Const(2)
    assert joined.height == 0

    leaky = b.__class__(regs=b.regs, frame=b.frame, escaped=True)
    assert join_states(a, leaky).escaped


def test_with_reg_replaces_exactly_one_register():
    state = entry_state().with_reg(4, Const(9))
    assert state.reg(4) == Const(9)
    assert state.reg(5) is TOP
    assert state.reg(13) == StackAddr(0)


# ----------------------------------------------------------------------
# the constant lattice abstracts the reference interval domain exactly
# ----------------------------------------------------------------------
def abstract(value):
    """Map a reference-domain value into the constant lattice: a
    non-constant interval is TOP, everything else keeps its meaning."""
    named = {oracle.BOT: BOT, oracle.TOP: TOP, oracle.UNINIT: UNINIT,
             oracle.RETADDR: RETADDR}
    if isinstance(value, oracle.Interval):
        return Const(value.lo) if value.is_const else TOP
    if isinstance(value, oracle.StackAddr):
        return StackAddr(value.depth)
    return named[value]


ORACLE_SAMPLES = [
    oracle.BOT, oracle.TOP, oracle.UNINIT, oracle.RETADDR,
    oracle.const(0), oracle.const(3), oracle.const(-8), oracle.const(64),
    oracle.const(oracle.MAGNITUDE_CAP),
    oracle.const(oracle.MAGNITUDE_CAP + 1),
    oracle.const(-oracle.MAGNITUDE_CAP - 1),
    oracle.Interval(0, 4), oracle.Interval(-8, 8), oracle.Interval(1, 64),
    oracle.StackAddr(0), oracle.StackAddr(12), oracle.StackAddr(-4),
]


def test_abstraction_commutes_with_join_and_add():
    for a, b in itertools.product(ORACLE_SAMPLES, repeat=2):
        assert abstract(oracle.join_values(a, b)) == \
            join_values(abstract(a), abstract(b)), (a, b)
        assert abstract(oracle.add_values(a, b)) == \
            add_values(abstract(a), abstract(b)), (a, b)


def test_abstraction_commutes_with_negate():
    for a in ORACLE_SAMPLES:
        assert abstract(oracle.negate_value(a)) == \
            negate_value(abstract(a)), a
