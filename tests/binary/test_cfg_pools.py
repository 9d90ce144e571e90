"""Literal-pool helpers."""

from repro.binary.pools import (
    PoolPlan,
    pc_relative_target,
    plan_pool,
    pseudo_literal,
)
from repro.isa.assembler import parse_instruction
from repro.isa.operands import LabelRef


class TestPools:
    def test_plan_dedupes(self):
        insns = [
            parse_instruction("ldr r0, =table"),
            parse_instruction("ldr r1, =table"),
            parse_instruction("ldr r2, =other"),
        ]
        plan = plan_pool(insns)
        assert len(plan) == 2

    def test_slot_stable(self):
        plan = PoolPlan()
        a = plan.slot(LabelRef("x"))
        b = plan.slot(LabelRef("y"))
        assert plan.slot(LabelRef("x")) == a and a != b

    def test_pseudo_literal(self):
        assert pseudo_literal(parse_instruction("ldr r0, =tab")) == LabelRef(
            "tab"
        )
        assert pseudo_literal(parse_instruction("ldr r0, [r1]")) is None
        assert pseudo_literal(parse_instruction("add r0, r1, #1")) is None

    def test_pc_relative_target(self):
        insn = parse_instruction("ldr r0, [pc, #16]")
        assert pc_relative_target(insn, 0x8000) == 0x8000 + 8 + 16
        insn = parse_instruction("ldr r0, [pc, #-8]")
        assert pc_relative_target(insn, 0x8000) == 0x8000
        assert pc_relative_target(
            parse_instruction("ldr r0, [r1, #16]"), 0x8000
        ) is None
