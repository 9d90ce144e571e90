"""The DFG data structure used by the miner.

A deliberately small, index-based directed multigraph: node *i* is the
*i*-th instruction of the originating basic block, so the original
program order is always recoverable from the node numbering — a property
both the collision detection and the extraction phase rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

from repro.isa.instructions import Instruction

#: Edge kinds.  ``d``: register read-after-write (true data flow),
#: ``m``: memory ordering, ``f``: flag flow, ``a``: register/flag
#: anti-dependence (write-after-read), ``o``: output dependence
#: (write-after-write).
EDGE_KINDS = ("d", "m", "f", "a", "o")

#: The default edge kinds visible to the subgraph miner: the full
#: dependence graph.  The paper's Fig. 9 legality check is performed on
#: the mined DFG itself, which is only sound when that graph carries
#: *all* dependencies — so anti- ("a") and output- ("o") dependencies
#: are part of the mined graph, not just the legality overlay.  Mining
#: on pure data flow ({"d", "m", "f"}) is available as an ablation.
MINED_KINDS = frozenset({"d", "m", "f", "a", "o"})

#: Ablation: pure data-flow edges only.
FLOW_KINDS = frozenset({"d", "m", "f"})

Edge = Tuple[int, int, str]


@dataclass
class DFG:
    """Dependence graph of one basic block.

    ``edges`` is the mined (matched) edge set; ``dep_edges`` the full
    constraint set used for legality.  ``edges`` is always a subset of
    ``dep_edges``.
    """

    labels: List[str]
    insns: List[Instruction]
    edges: Set[Edge]
    dep_edges: Set[Edge]
    origin: Tuple[str, int] = ("?", -1)

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.insns):
            raise ValueError("labels and insns must align")
        for src, dst, kind in self.dep_edges:
            if not (0 <= src < len(self.labels) and 0 <= dst < len(self.labels)):
                raise ValueError(f"edge out of range: {(src, dst, kind)}")
            if src >= dst:
                raise ValueError(
                    f"dependence edge against program order: {(src, dst, kind)}"
                )
        if not self.edges <= self.dep_edges:
            raise ValueError("mined edges must be a subset of dep edges")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def induced_dep_edges(self, nodes: Iterable[int]) -> Set[Edge]:
        """Full constraint edges between the given nodes."""
        node_set = set(nodes)
        return {
            (s, d, k)
            for (s, d, k) in self.dep_edges
            if s in node_set and d in node_set
        }

    def __repr__(self) -> str:
        return (
            f"DFG(origin={self.origin}, nodes={self.num_nodes}, "
            f"edges={len(self.edges)}/{len(self.dep_edges)})"
        )
