"""Fuzzy (canonical) instruction matching — paper §5, Fig. 13.

The paper's future-work list proposes mining for instructions that are
*canonically* equal: same mnemonic and the same number and types of
operands, registers and immediates abstracted to ``R`` and ``I``.  Two
fragments that match canonically but not textually would need register
renaming / parameter passing to be outlined, which the paper (and this
reproduction) does not implement; what we provide is the *measurement*:
mine the canonically-relabelled DFG database and report how much
additional non-overlapping duplication becomes visible — the upper bound
on what fuzzy matching could save (benched in
``benchmarks/test_ablation_canonical.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, LabelRef, Mem, Reg, RegList, ShiftedReg

from repro.binary.program import Module
from repro.dfg.builder import build_dfgs
from repro.dfg.graph import DFG
from repro.mining.edgar import Edgar, non_overlapping_embeddings
from repro.pa.fragments import call_benefit
from repro.resilience.governor import RunGovernor, activate


def canonical_operand(op: object) -> str:
    """Fig. 13(b): registers become ``R``, immediates become ``I``."""
    if isinstance(op, Reg):
        return "R"
    if isinstance(op, Imm):
        return "I"
    if isinstance(op, ShiftedReg):
        return f"R, {op.shift_op} I"
    if isinstance(op, Mem):
        if op.index is not None:
            body = "[R, R]"
        elif op.pre:
            body = "[R]" if op.offset == 0 and not op.writeback else "[R, I]"
        else:
            return "[R], I"
        return body + ("!" if op.pre and op.writeback else "")
    if isinstance(op, RegList):
        return "{" + ", ".join("R" for __ in op.regs) + "}"
    if isinstance(op, LabelRef):
        return "L"
    raise TypeError(f"unknown operand: {op!r}")


def canonical_label(insn: Instruction) -> str:
    """The canonical representation of one instruction (Fig. 13)."""
    name = insn.mnemonic
    if insn.cond != "al":
        name += insn.cond
    if insn.set_flags and insn.mnemonic not in ("cmp", "cmn", "tst", "teq"):
        name += "s"
    if not insn.operands:
        return name
    return name + " " + ", ".join(
        canonical_operand(op) for op in insn.operands
    )


def canonical_dfg(dfg: DFG) -> DFG:
    """Relabel a DFG with canonical instruction labels."""
    return replace(dfg, labels=[canonical_label(i) for i in dfg.insns])


@dataclass
class FuzzyReport:
    """Outcome of a fuzzy-mining measurement."""

    exact_best: int        #: best single-fragment benefit, exact labels
    fuzzy_best: int        #: best single-fragment benefit, canonical labels
    exact_fragments: int
    fuzzy_fragments: int

    @property
    def additional_potential(self) -> int:
        return max(0, self.fuzzy_best - self.exact_best)


def fuzzy_potential(module: Module, min_support: int = 2,
                    max_nodes: int = 8,
                    time_budget: float = 60.0) -> FuzzyReport:
    """Compare the best abstraction candidate under exact vs canonical
    matching (measurement only; no extraction).  Each of the two mines
    gets its own *time_budget* seconds."""
    dfgs = build_dfgs(module, min_nodes=2)
    miner = Edgar(min_support=min_support, max_nodes=max_nodes)

    def best_benefit(database: Sequence[DFG]) -> tuple:
        with activate(RunGovernor(time_budget=time_budget)):
            fragments = miner.mine(database)
        best = 0
        for frag in fragments:
            chosen = non_overlapping_embeddings(frag.embeddings)
            benefit = call_benefit(frag.num_nodes, len(chosen))
            best = max(best, benefit)
        return best, len(fragments)

    exact_best, exact_count = best_benefit(dfgs)
    fuzzy_best, fuzzy_count = best_benefit([canonical_dfg(d) for d in dfgs])
    return FuzzyReport(
        exact_best=exact_best,
        fuzzy_best=fuzzy_best,
        exact_fragments=exact_count,
        fuzzy_fragments=fuzzy_count,
    )
