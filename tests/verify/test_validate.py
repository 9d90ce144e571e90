"""The translation validator: clean rounds pass, corrupted rounds are
rejected with a ledger-recorded counterexample."""

import pytest

from repro.binary.program import BasicBlock, Function
from repro.isa.assembler import parse_instruction
from repro.pa.driver import PAConfig, apply_batch
from repro.pa.liveness import lr_live_out_blocks
from repro.report import ledger
from repro.verify.validate import (
    RoundVerification,
    TranslationValidationError,
    outlined_body,
    snapshot_module,
    verify_round,
)

from tests.conftest import (
    SHARED_FRAGMENT_PROGRAM,
    mine_candidates,
    module_from_source,
)


@pytest.fixture
def global_ledger():
    registry = ledger.get()
    registry.reset()
    yield registry
    registry.disable()
    registry.reset()


def one_round(module):
    """Snapshot, mine, and apply one extraction round; returns the
    arguments verify_round needs."""
    config = PAConfig(miner="edgar")
    snapshot = snapshot_module(module)
    pre_lr_live = lr_live_out_blocks(module)
    candidates = mine_candidates(module, config)
    records, __, ___ = apply_batch(module, config, candidates)
    assert records, "the shared-fragment program must yield an extraction"
    return snapshot, pre_lr_live, records


def test_clean_round_verifies():
    module = module_from_source(SHARED_FRAGMENT_PROGRAM)
    snapshot, pre_lr_live, records = one_round(module)
    result = verify_round(module, snapshot, records, pre_lr_live)
    assert isinstance(result, RoundVerification)
    assert result.blocks_checked >= 2  # both rewritten occurrences
    assert records[0].new_symbol in result.new_symbols


def test_corrupted_outlined_body_rejected(global_ledger):
    """Deliberately corrupt one rewritten path (an immediate in the
    outlined body) and demand rejection with a counterexample."""
    global_ledger.enable()
    module = module_from_source(SHARED_FRAGMENT_PROGRAM)
    snapshot, pre_lr_live, records = one_round(module)

    helper = module.function(records[0].new_symbol)
    block = helper.blocks[0]
    index, victim = next(
        (i, insn) for i, insn in enumerate(block.instructions)
        if insn.mnemonic == "sub"
    )
    block.instructions[index] = parse_instruction("sub r5, r4, #3")
    assert str(victim) != str(block.instructions[index])

    with pytest.raises(TranslationValidationError) as excinfo:
        verify_round(module, snapshot, records, pre_lr_live)

    ce = excinfo.value.counterexample
    assert ce is not None
    assert ce.resource.startswith("r")  # a register disagrees
    assert ce.old_term != ce.new_term

    recorded = global_ledger.records_of("verify.counterexample")
    assert recorded
    assert recorded[0]["function"] == ce.function
    assert recorded[0]["resource"] == ce.resource


def test_corrupted_caller_block_rejected():
    module = module_from_source(SHARED_FRAGMENT_PROGRAM)
    snapshot, pre_lr_live, records = one_round(module)

    # find a rewritten caller block (contains a bl to the new symbol)
    symbol = records[0].new_symbol
    target = None
    for func in module.functions:
        if func.name == symbol:
            continue
        for block in func.blocks:
            if any(i.is_call and i.label_target == symbol
                   for i in block.instructions):
                target = block
    assert target is not None
    index = next(
        i for i, insn in enumerate(target.instructions)
        if insn.mnemonic in ("mov", "add") and not insn.writes_pc
    )
    reg = target.instructions[index].operands[0]
    target.instructions[index] = parse_instruction(f"mvn {reg}, #0")

    with pytest.raises(TranslationValidationError):
        verify_round(module, snapshot, records, pre_lr_live)


def test_lint_regression_rejected(global_ledger):
    """A round that breaks a structural invariant fails the re-lint
    before any equivalence checking."""
    global_ledger.enable()
    module = module_from_source(SHARED_FRAGMENT_PROGRAM)
    snapshot, pre_lr_live, records = one_round(module)
    module.functions[0].blocks[0].instructions.insert(
        0, parse_instruction("b nowhere")
    )
    with pytest.raises(TranslationValidationError) as excinfo:
        verify_round(module, snapshot, records, pre_lr_live)
    assert excinfo.value.lint_report is not None
    assert not excinfo.value.lint_report.ok
    assert global_ledger.records_of("verify.lint")


def test_verify_round_emits_ledger_summary(global_ledger):
    global_ledger.enable()
    module = module_from_source(SHARED_FRAGMENT_PROGRAM)
    snapshot, pre_lr_live, records = one_round(module)
    verify_round(module, snapshot, records, pre_lr_live)
    summary = global_ledger.records_of("verify.round")
    assert summary
    assert summary[0]["blocks_checked"] >= 2


# ----------------------------------------------------------------------
# outlined_body
# ----------------------------------------------------------------------
def body_of(*texts):
    func = Function(name="pa_t", blocks=[BasicBlock(
        instructions=[parse_instruction(t) for t in texts]
    )])
    return [str(i) for i in outlined_body(func)]


def test_outlined_body_strips_lr_return():
    assert body_of("mov r1, #3", "add r2, r1, #5", "mov pc, lr") == [
        "mov r1, #3", "add r2, r1, #5"
    ]


def test_outlined_body_strips_push_pop_bracket():
    assert body_of(
        "push {lr}", "mov r1, #3", "bl helper", "pop {pc}"
    ) == ["mov r1, #3", "bl helper"]


def test_outlined_body_inverts_call_body():
    """Round-trip: stripping recovers exactly what extract.call_body
    wrapped, for both bracket shapes."""
    from repro.pa.extract import call_body

    for texts in (
        ["mov r1, #3", "add r2, r1, #5"],
        ["mov r1, #3", "bl helper", "add r2, r1, #5"],
    ):
        ordered = [parse_instruction(t) for t in texts]
        func = Function(name="pa_t", blocks=[
            BasicBlock(instructions=call_body(ordered))
        ])
        assert [str(i) for i in outlined_body(func)] == texts
