"""Dependence analysis: basic block -> DFG.

All instructions of a block are analysed to determine the dependencies
between them (paper §2.1 step 6).  Resources are the sixteen registers, a
FLAGS pseudo-register (NZCV) and a single conservative MEM location:

========  =========================================================
kind      meaning
========  =========================================================
``d``     register read-after-write (true data flow)
``m``     memory read-after-write, store -> load
``f``     flag read-after-write, e.g. ``cmp`` -> ``bge``
``a``     anti-dependence, read -> next write
``o``     output dependence, write -> next write
========  =========================================================

All five kinds are mined by default (:data:`~repro.dfg.graph.MINED_KINDS`),
because the Fig. 9 legality check runs on the mined graph and is only
sound when it carries every dependence.  Only the data-flow pass
(:data:`~repro.dfg.graph.FLOW_KINDS`) mines without ``a``/``o``; its
blocks keep them in ``dep_edges`` for legality.

Calls (``bl``) and software interrupts are conservative barriers: they
read and write the argument registers per the calling convention (see
:meth:`Instruction.regs_read`), clobber the flags, and both read and
write memory.  Edges always point forward in program order, so the graph
is acyclic by construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.isa.instructions import Instruction

from repro.binary.program import BasicBlock, Module
from repro.dfg.graph import DFG, Edge, MINED_KINDS
from repro.telemetry import GLOBAL as _TELEMETRY

#: Pseudo-resources used alongside register numbers.
FLAGS = "flags"
MEM = "mem"


def _accesses(insn: Instruction) -> Tuple[Set[object], Set[object]]:
    """Return the (reads, writes) resource sets of one instruction."""
    reads: Set[object] = set(insn.regs_read())
    writes: Set[object] = set(insn.regs_written())
    if insn.reads_flags():
        reads.add(FLAGS)
    if insn.writes_flags():
        writes.add(FLAGS)
    if insn.is_memory:
        if insn.is_load:
            reads.add(MEM)
        if insn.is_store:
            writes.add(MEM)
    if insn.mnemonic in ("bl", "swi"):
        reads.add(MEM)
        writes.add(MEM)
        writes.add(FLAGS)
    return reads, writes


def _flow_kind(resource: object) -> str:
    if resource == FLAGS:
        return "f"
    if resource == MEM:
        return "m"
    return "d"


def build_dfg(
    block: BasicBlock,
    origin: Tuple[str, int] = ("?", -1),
    mined_kinds: FrozenSet[str] = MINED_KINDS,
) -> DFG:
    """Build the dependence graph of one basic block."""
    labels = [str(insn) for insn in block.instructions]
    dep_edges: Set[Edge] = set()

    last_writer: Dict[object, int] = {}
    readers_since: Dict[object, List[int]] = {}

    for i, insn in enumerate(block.instructions):
        reads, writes = _accesses(insn)
        for resource in reads:
            writer = last_writer.get(resource)
            if writer is not None:
                dep_edges.add((writer, i, _flow_kind(resource)))
            readers_since.setdefault(resource, []).append(i)
        for resource in writes:
            pending_readers = readers_since.get(resource, [])
            for reader in pending_readers:
                if reader != i:
                    dep_edges.add((reader, i, "a"))
            writer = last_writer.get(resource)
            intervening = any(r not in (i, writer) for r in pending_readers)
            if writer is not None and writer != i and not intervening:
                dep_edges.add((writer, i, "o"))
            last_writer[resource] = i
            readers_since[resource] = []

    edges = {(s, d, k) for (s, d, k) in dep_edges if k in mined_kinds}
    return DFG(
        labels=labels,
        insns=list(block.instructions),
        edges=edges,
        dep_edges=dep_edges,
        origin=origin,
    )


def build_dfgs(
    module: Module,
    min_nodes: int = 1,
    include_exempt: bool = False,
    mined_kinds: FrozenSet[str] = MINED_KINDS,
) -> List[DFG]:
    """Build the mining database: one DFG per eligible basic block.

    Blocks of PA-exempt functions (reached through function pointers or
    containing interwoven data; paper §2.1 step 5) are skipped unless
    *include_exempt* is set.
    """
    dfgs: List[DFG] = []
    with _TELEMETRY.span("dfg.build"):
        for func in module.functions:
            if func.pa_exempt and not include_exempt:
                continue
            for bi, block in enumerate(func.blocks):
                if len(block.instructions) < min_nodes:
                    continue
                dfgs.append(
                    build_dfg(block, origin=(func.name, bi),
                              mined_kinds=mined_kinds)
                )
    if _TELEMETRY.enabled:
        _TELEMETRY.count("dfg.builds")
        _TELEMETRY.count("dfg.graphs", len(dfgs))
        _TELEMETRY.count("dfg.nodes", sum(d.num_nodes for d in dfgs))
        _TELEMETRY.count("dfg.edges", sum(len(d.dep_edges) for d in dfgs))
    return dfgs
