"""Differential test: the Edgar hot path against its reference.

:mod:`tests.mining.oracle` keeps the canonical test, the edge sort key
and the convexity walks as they were before the incremental ``is_min``,
the tuple sort key and the closure bitmasks.  DESIGN.md §5 argues each
replacement equal; these tests check the claim on random inputs and by
replaying a whole PA run with the reference functions patched in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mining.edgar as edgar
import repro.mining.gspan as gspan
import repro.pa.legality as legality
import repro.scale.supervise as supervise
from repro.dfg.graph import DFG
from repro.mining import dfs_code, pruning
from repro.pa.driver import PAConfig, run_pa
from repro.workloads import compile_workload

from tests.mining.oracle import dfs_code as oracle_code
from tests.mining.oracle import pruning as oracle_pruning


# ----------------------------------------------------------------------
# convexity
# ----------------------------------------------------------------------
@st.composite
def dags_with_fragments(draw):
    """A forward-edge DFG (parallel edges of several kinds allowed, some
    of them unmined, some nodes on no mined edge at all) and a
    non-empty fragment of its nodes."""
    n = draw(st.integers(2, 14))
    pairs = [(s, d) for s in range(n) for d in range(s + 1, n)]
    dep = set()
    for s, d in draw(st.lists(st.sampled_from(pairs), min_size=n - 1,
                              max_size=3 * n)):
        for kind in draw(st.sets(st.sampled_from("dmfao"), min_size=1)):
            dep.add((s, d, kind))
    ordered = sorted(dep)
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=3))
    keep = draw(st.lists(st.booleans(), min_size=len(ordered),
                         max_size=len(ordered)))
    mined = {
        e for e, kept in zip(ordered, keep)
        if kept and e[0] not in isolated and e[1] not in isolated
    }
    dfg = DFG(labels=["X"] * n, insns=[None] * n, edges=mined,
              dep_edges=dep)
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1,
                          max_size=min(n, 5), unique=True))
    bridges = sorted({(s, d2) for s, d, __ in dep for s2, d2, ___ in dep
                      if s2 == d})
    if bridges and draw(st.booleans()):
        # both ends of a two-edge path: non-convex unless the middle
        # node was drawn as well
        nodes = sorted(set(nodes) | set(draw(st.sampled_from(bridges))))
    return dfg, nodes


@given(dags_with_fragments(), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_convexity_matches_oracle(case, max_nodes):
    dfg, nodes = case
    assert (pruning.between_nodes(dfg, nodes)
            == oracle_pruning.between_nodes(dfg, nodes))
    assert pruning.is_convex(dfg, nodes) == oracle_pruning.is_convex(
        dfg, nodes)
    assert (pruning.never_convex_within(dfg, nodes, max_nodes)
            == oracle_pruning.never_convex_within(dfg, nodes, max_nodes))
    assert (pruning.is_permanently_illegal(dfg, nodes)
            == oracle_pruning.is_permanently_illegal(dfg, nodes))


# ----------------------------------------------------------------------
# canonical test
# ----------------------------------------------------------------------
@st.composite
def rightmost_codes(draw):
    """Codes grown by random rightmost extensions — forward edges off
    any rightmost-path vertex and backward edges from the rightmost
    vertex — the codes the miner builds, most of them not minimal; many
    close cycles or add a parallel edge of another label."""
    labels = [draw(st.integers(0, 2))]
    code = []
    used = set()
    rm_path = [0]
    for __ in range(draw(st.integers(1, 7))):
        backward = rm_path[:-1]
        if backward and draw(st.booleans()):
            i, j = rm_path[-1], draw(st.sampled_from(backward))
        else:
            i, j = draw(st.sampled_from(rm_path)), len(labels)
            labels.append(draw(st.integers(0, 2)))
        direction = draw(st.integers(0, 1))
        elabel = draw(st.integers(0, 1))
        gedge = (i, j, elabel) if direction == 0 else (j, i, elabel)
        if gedge in used:
            continue
        used.add(gedge)
        code.append((i, j, labels[i], direction, elabel, labels[j]))
        if i < j:
            del rm_path[rm_path.index(i) + 1:]
            rm_path.append(j)
    return tuple(code)


@given(rightmost_codes())
@settings(max_examples=300, deadline=None)
def test_is_min_matches_oracle(code):
    assert dfs_code.is_min(code) == oracle_code.is_min(code)


@given(rightmost_codes())
@settings(max_examples=100, deadline=None)
def test_is_min_matches_oracle_on_canonical_codes(code):
    canonical = dfs_code.min_dfs_code(code)
    assert dfs_code.is_min(canonical) and oracle_code.is_min(canonical)
    # every prefix of a canonical code is canonical as well
    for k in range(1, len(canonical)):
        assert dfs_code.is_min(canonical[:k]) == oracle_code.is_min(
            canonical[:k])


def test_rightmost_codes_reach_backward_and_non_minimal_cases():
    """The generator covers what the tree-shaped codes elsewhere miss."""
    seen_backward = seen_non_min = False

    @given(rightmost_codes())
    @settings(max_examples=200, deadline=None, database=None)
    def probe(code):
        nonlocal seen_backward, seen_non_min
        seen_backward |= any(i > j for i, j, *__ in code)
        seen_non_min |= not oracle_code.is_min(code)

    probe()
    assert seen_backward and seen_non_min


# ----------------------------------------------------------------------
# sort key
# ----------------------------------------------------------------------
edge_tuples = st.tuples(*(st.integers(0, 4) for __ in range(2)),
                        st.integers(0, 2), st.integers(0, 1),
                        st.integers(0, 1), st.integers(0, 2))


@given(edge_tuples, edge_tuples)
@settings(max_examples=300, deadline=None)
def test_sort_key_order_matches_compare_edges(e1, e2):
    new1, new2 = dfs_code.edge_sort_key(e1), dfs_code.edge_sort_key(e2)
    old1, old2 = oracle_code.edge_sort_key(e1), oracle_code.edge_sort_key(e2)
    assert (new1 < new2) == (old1 < old2)
    assert (new1 == new2) == (old1 == old2)


# ----------------------------------------------------------------------
# whole-run replay
# ----------------------------------------------------------------------
def _mine_crc(monkeypatch, use_oracle):
    """PA on crc at max_nodes=4; every shard's candidates, lattice
    nodes and prune tallies, plus the final module."""
    if use_oracle:
        monkeypatch.setattr(gspan, "is_min", oracle_code.is_min)
        monkeypatch.setattr(gspan, "edge_sort_key",
                            oracle_code.edge_sort_key)
        monkeypatch.setattr(edgar, "never_convex_within",
                            oracle_pruning.never_convex_within)
        monkeypatch.setattr(edgar, "is_permanently_illegal",
                            oracle_pruning.is_permanently_illegal)
        monkeypatch.setattr(legality, "is_convex", oracle_pruning.is_convex)
    shards = []
    mine_shard = supervise.mine_shard

    def recording(payload, *args, **kwargs):
        result = mine_shard(payload, *args, **kwargs)
        shards.append(result.to_doc())
        return result

    monkeypatch.setattr(supervise, "mine_shard", recording)
    module = compile_workload("crc")
    result = run_pa(module, PAConfig(max_nodes=4, workers=1,
                                     time_budget=None))
    monkeypatch.undo()
    return shards, result.lattice_nodes, result.saved, module.render()


def test_crc_replay_with_oracle_is_identical(monkeypatch):
    new = _mine_crc(monkeypatch, use_oracle=False)
    old = _mine_crc(monkeypatch, use_oracle=True)
    assert new[0] and any(doc["candidates"] for doc in new[0])
    assert new == old
