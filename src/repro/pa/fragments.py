"""Candidate fragments and the cost/benefit model (paper §2.1 step 7).

The benefit of abstracting a fragment of *size* instructions with *n*
non-overlapping legal occurrences:

* **call/return outlining** — every occurrence shrinks to one ``bl``;
  a new procedure of ``size`` instructions plus its return is added
  (two bracket instructions, ``push {lr}`` / ``pop {pc}``, when the
  fragment itself contains a call)::

      benefit = n*size - n - (size + overhead)

* **cross-jump (tail merge)** — one occurrence survives as the shared
  tail; every other occurrence is replaced by a single ``b``::

      benefit = (n-1) * (size-1)

The driver extracts the candidate with the highest benefit per round,
the greedy strategy the paper uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.isa.instructions import Instruction

from repro.mining.embeddings import Embedding
from repro.mining.gspan import Fragment
from repro.pa.legality import ExtractionMethod


def call_overhead(insns: Sequence[Instruction]) -> int:
    """Return-path instructions the new procedure needs."""
    if any(i.is_call for i in insns):
        return 2  # push {lr} ... pop {pc}
    return 1  # mov pc, lr


def call_benefit(size: int, occurrences: int, overhead: int = 1) -> int:
    """Instructions saved by call/return outlining."""
    return occurrences * size - occurrences - (size + overhead)


def crossjump_benefit(size: int, occurrences: int) -> int:
    """Instructions saved by tail merging."""
    return (occurrences - 1) * (size - 1)


@dataclass
class Candidate:
    """A scored, extraction-ready fragment."""

    fragment: Fragment
    method: ExtractionMethod
    insns: List[Instruction]          #: fragment body (DFS-role order)
    embeddings: List[Embedding]       #: chosen non-overlapping legal set
    benefit: int
    #: union of the occurrences' internal ordering constraints, over
    #: DFS-role indices; the outlined body is a topological order of it
    union_edges: Set[Tuple[int, int]] = field(default_factory=set)
    #: (function name, block index) of every occurrence — used to decide
    #: whether the candidate survives other extractions untouched
    origins: Tuple[Tuple[str, int], ...] = ()
    #: Decision provenance (embedding funnel counts, collision graph,
    #: MIS census) attached by the shard funnel only while the
    #: decision ledger is enabled; never part of candidate identity.
    provenance: Optional[Dict[str, Any]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def size(self) -> int:
        return len(self.insns)

    @property
    def occurrences(self) -> int:
        return len(self.embeddings)

    def sort_key(self) -> tuple:
        """Deterministic best-first ordering: benefit, then size, then
        a stable textual tiebreak."""
        return (
            -self.benefit,
            -self.size,
            tuple(str(i) for i in self.insns),
        )

    def fingerprint(self) -> str:
        """Canonical identity for the verify-failure blocklist.

        Stable across processes (hashlib, not ``hash()``) and across a
        rollback + re-mine: the module is restored to the exact pre-
        round state, so a rediscovered candidate reproduces the same
        method, body text and occurrence blocks.
        """
        payload = "\x1f".join(
            (
                self.method.value,
                "\x1e".join(str(i) for i in self.insns),
                "\x1e".join(f"{f}#{b}" for f, b in sorted(self.origins)),
            )
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:16]


def best_possible_benefit(size: int, occurrences: int) -> int:
    """Upper bound on the benefit of any method (pre-legality).

    Used to skip expensive legality/MIS work for fragments that cannot
    beat the current best candidate.
    """
    return max(
        call_benefit(size, occurrences, 1),
        crossjump_benefit(size, occurrences),
    )


def score(
    fragment: Fragment,
    method: ExtractionMethod,
    insns: Sequence[Instruction],
    chosen: Sequence[Embedding],
    union_edges: Optional[Set[Tuple[int, int]]] = None,
    origins: Tuple[Tuple[str, int], ...] = (),
) -> Optional[Candidate]:
    """Build a candidate if the extraction actually pays off."""
    size = fragment.num_nodes
    n = len(chosen)
    if method is ExtractionMethod.CALL:
        benefit = call_benefit(size, n, call_overhead(insns))
    else:
        benefit = crossjump_benefit(size, n)
    if benefit <= 0:
        return None
    return Candidate(
        fragment=fragment,
        method=method,
        insns=list(insns),
        embeddings=list(chosen),
        benefit=benefit,
        union_edges=set(union_edges or ()),
        origins=tuple(origins),
    )
