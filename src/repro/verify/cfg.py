"""Module-wide control-flow graph over basic blocks.

Every analysis in :mod:`repro.verify` runs on this graph rather than a
per-function one, for the same reason the lr-liveness fix did: branch
labels resolve *across* function boundaries.  Cross-jumping deliberately
creates shared tails that several functions branch into, and leaf-style
returns thread ``lr`` through those tails — a per-function view would
simply not see the edges that made the rijndael miscompile possible.

Nodes are :data:`BlockKey` pairs ``(function_name, block_index)``.  Edges
follow the block-splitting contract of :mod:`repro.binary.blocks`:

* a non-call branch adds an edge to its target block (wherever in the
  module that label lives),
* a conditional branch additionally falls through,
* an unconditional terminator (return, ``b``, pc write) ends the path,
* plain fall-through continues at the next block *of the same function*
  — function boundaries are hard; code that runs off the end of a
  function is a lint finding, not an implicit edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.binary.program import BasicBlock, Module

#: One basic block, addressed as (function name, block index).
BlockKey = Tuple[str, int]


@dataclass
class ModuleCFG:
    """The module-wide block graph plus the maps the analyses need."""

    #: every block key, in module order
    keys: List[BlockKey] = field(default_factory=list)
    #: key -> the block object itself
    blocks: Dict[BlockKey, BasicBlock] = field(default_factory=dict)
    #: label name -> the block it addresses (function names included)
    label_to_block: Dict[str, BlockKey] = field(default_factory=dict)
    succ: Dict[BlockKey, List[BlockKey]] = field(default_factory=dict)
    pred: Dict[BlockKey, List[BlockKey]] = field(default_factory=dict)
    #: entry block of every function (the dataflow boundary nodes)
    entries: List[BlockKey] = field(default_factory=list)

    def exits(self) -> List[BlockKey]:
        """Blocks with no successors (returns, exits, dead tails)."""
        return [key for key in self.keys if not self.succ[key]]

    def reachable(self, roots: Optional[List[BlockKey]] = None) -> Set[BlockKey]:
        """Blocks reachable from *roots* (default: all function entries)."""
        stack = list(self.entries if roots is None else roots)
        seen: Set[BlockKey] = set(stack)
        while stack:
            key = stack.pop()
            for nxt in self.succ[key]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


def build_module_cfg(module: Module) -> ModuleCFG:
    """Build the module-wide CFG (labels resolve across functions)."""
    cfg = ModuleCFG()
    ordered: List[Tuple[BlockKey, BasicBlock]] = []
    for func in module.functions:
        for bi, block in enumerate(func.blocks):
            key = (func.name, bi)
            ordered.append((key, block))
            cfg.keys.append(key)
            cfg.blocks[key] = block
            if bi == 0:
                cfg.label_to_block.setdefault(func.name, key)
                cfg.entries.append(key)
            for label in block.labels:
                cfg.label_to_block[label] = key

    for index, (key, block) in enumerate(ordered):
        targets: List[BlockKey] = []
        falls_through = True
        for insn in block.instructions:
            if insn.is_branch and not insn.is_call:
                target = insn.label_target
                if target is not None and target in cfg.label_to_block:
                    targets.append(cfg.label_to_block[target])
                if not insn.is_conditional:
                    falls_through = False
            elif insn.is_terminator and not insn.is_conditional:
                falls_through = False  # return / pc write: no successor
        if falls_through and index + 1 < len(ordered):
            next_key, __ = ordered[index + 1]
            if next_key[0] == key[0]:
                targets.append(next_key)
        cfg.succ[key] = targets

    cfg.pred = {key: [] for key in cfg.keys}
    for key, targets in cfg.succ.items():
        for target in targets:
            cfg.pred[target].append(key)
    return cfg
