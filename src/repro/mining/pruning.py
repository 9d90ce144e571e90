"""Search-space pruning rules (paper §3.4 and §3.5).

Frequency pruning is built into the miners (an infrequent fragment has
no frequent extension; with node-disjoint embeddings the count is
antimonotone).  This module adds the PA-specific rules:

* :func:`is_convex` — the legality core: extracting an embedding must
  not create a cyclic dependency between the outlined procedure and the
  remaining block (paper Fig. 9).  An embedding is extractable only if
  no dependence path leaves the fragment and re-enters it.
* :func:`is_permanently_illegal` — a *sound* branch prune: when the
  re-entering path runs through a node that can never become part of any
  mined fragment (it has no mined edges at all), every extension of the
  embedding stays non-convex and the embedding can be dropped from the
  search.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.dfg.graph import DFG


def _closure_masks(dfg: DFG) -> Tuple[List[int], List[int]]:
    """Cached (descendants, ancestors) bitmasks of the dependence graph.

    Bit *v* of ``desc[u]`` is set when a dependence path of at least one
    edge runs ``u -> v``; ``anc`` is the mirror image.  Every dependence
    edge runs forward (``s < d``), so walking the edges by descending
    source finds each target's descendants already closed, and walking
    them by ascending source finds each source's ancestors closed.
    Convexity is queried once per embedding per lattice node, so the
    closure is built once per DFG and every query becomes a handful of
    integer ORs.
    """
    cached = getattr(dfg, "_closure_mask_cache", None)
    if cached is None:
        edges = sorted(dfg.dep_edges)
        desc = [0] * dfg.num_nodes
        for s, d, __ in reversed(edges):
            desc[s] |= desc[d] | (1 << d)
        anc = [0] * dfg.num_nodes
        for s, d, __ in edges:
            anc[d] |= anc[s] | (1 << s)
        cached = (desc, anc)
        dfg._closure_mask_cache = cached
    return cached


def between_mask(dfg: DFG, nodes: Iterable[int]) -> int:
    """:func:`between_nodes` as a bitmask (bit *x* set for each node *x*).

    ``x`` lies on a path fragment -> x -> fragment exactly when it is a
    descendant of some fragment node and an ancestor of some fragment
    node, and is not itself in the fragment.
    """
    desc, anc = _closure_masks(dfg)
    below = above = own = 0
    for node in nodes:
        below |= desc[node]
        above |= anc[node]
        own |= 1 << node
    return below & above & ~own


def between_nodes(dfg: DFG, nodes: Iterable[int]) -> Set[int]:
    """Non-fragment nodes on a dependence path fragment -> x -> fragment.

    Extraction contracts the fragment to a single call site; each such
    *x* would then both follow and precede the call — the cycle of paper
    Fig. 9(b).  Edges only run forward, so every such *x* lies strictly
    inside the fragment's index window.
    """
    mask = between_mask(dfg, nodes)
    found: Set[int] = set()
    while mask:
        low = mask & -mask
        found.add(low.bit_length() - 1)
        mask ^= low
    return found


def is_convex(dfg: DFG, nodes: Iterable[int]) -> bool:
    """True if the node set can be contracted without creating a cycle."""
    return not between_mask(dfg, nodes)


def _unminable_mask(dfg: DFG) -> int:
    """Bitmask of the nodes isolated in the mined edge set (cached).

    Such nodes can never join any mined fragment, so a dependence path
    through one of them permanently blocks convexity.  When the mask is
    empty — the common case on densely connected graphs — the
    permanence check is skipped wholesale.
    """
    cached = getattr(dfg, "_unminable_mask_cache", None)
    if cached is None:
        minable = 0
        for s, d, __ in dfg.edges:
            minable |= (1 << s) | (1 << d)
        cached = ((1 << dfg.num_nodes) - 1) & ~minable
        dfg._unminable_mask_cache = cached
    return cached


def never_convex_within(dfg: DFG, nodes: Iterable[int],
                        max_nodes: int) -> bool:
    """True if no superset of *nodes* with at most *max_nodes* nodes can
    be convex.

    ``between(F') ⊇ between(F) - F'`` for every ``F' ⊇ F``, so a convex
    superset must swallow the whole between set:
    ``|F'| >= |F| + |between(F)|``.  When that already exceeds the size
    cap, the embedding can never be extracted (neither by call — which
    needs convexity — nor by cross-jump — which needs the even stronger
    successor closure) and is dead weight in the search.

    The check is free for "local" fragments: ``between`` fits inside the
    fragment's index window, so when the window itself is within budget
    nothing needs computing.
    """
    node_set = set(nodes)
    headroom = max_nodes - len(node_set)
    if headroom < 0:
        return True
    span_slack = (max(node_set) - min(node_set) + 1) - len(node_set)
    if span_slack <= headroom:
        return False  # between ⊆ window gap ⊆ headroom: can't prune
    return len(between_nodes(dfg, node_set)) > headroom


def is_permanently_illegal(dfg: DFG, nodes: Iterable[int]) -> bool:
    """True if no extension of this embedding can ever become convex.

    Conservative: only claims permanence when a cycle-causing node is
    isolated in the *mined* edge set, because the miner can only ever
    grow fragments along mined edges.
    """
    unminable = _unminable_mask(dfg)
    if not unminable:
        return False
    return bool(between_mask(dfg, nodes) & unminable)
