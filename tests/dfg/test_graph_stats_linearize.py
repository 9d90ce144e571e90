"""DFG container, degree statistics (Tables 2/3), linearization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binary.program import BasicBlock
from repro.dfg.builder import build_dfg
from repro.dfg.graph import DFG
from repro.dfg.linearize import (
    LinearizeError,
    block_constraint_edges,
    is_valid_order,
    topological_order,
)
from repro.dfg.stats import degree_histogram, fanout_summary
from repro.isa.assembler import parse_instruction


def block(*texts):
    return BasicBlock(instructions=[parse_instruction(t) for t in texts])


def mk_dfg(labels, edges):
    return DFG(
        labels=[str(l) for l in labels],
        insns=[None] * len(labels),
        edges=set(edges),
        dep_edges=set(edges),
    )


class TestDFGContainer:
    def test_rejects_backward_edges(self):
        with pytest.raises(ValueError):
            mk_dfg(["a", "b"], [(1, 0, "d")])

    def test_rejects_mined_not_in_dep(self):
        with pytest.raises(ValueError):
            DFG(labels=["a", "b"], insns=[None, None],
                edges={(0, 1, "d")}, dep_edges=set())

    def test_induced_edges(self):
        dfg = mk_dfg("abcd", [(0, 1, "d"), (1, 2, "d"), (2, 3, "d")])
        assert dfg.induced_dep_edges([0, 1, 3]) == {(0, 1, "d")}


class TestStats:
    def test_chain_has_no_high_degree(self):
        dfg = mk_dfg("abc", [(0, 1, "d"), (1, 2, "d")])
        summary = fanout_summary([dfg])
        assert summary.high_degree == 0
        assert summary.low_degree == 3

    def test_fan_out_counts(self):
        dfg = mk_dfg("abc", [(0, 1, "d"), (0, 2, "d")])
        summary = fanout_summary([dfg])
        assert summary.high_degree == 1  # node 0

    def test_histogram_buckets(self):
        dfg = mk_dfg(
            "abcdef",
            [(0, 5, "d"), (1, 5, "d"), (2, 5, "d"), (3, 5, "d"),
             (4, 5, "d")],
        )
        hist = degree_histogram([dfg])
        assert hist.in_counts == (5, 0, 0, 0, 1)   # node 5 has indeg 5
        assert hist.out_counts == (1, 5, 0, 0, 0)
        assert hist.total_nodes == 6

    def test_histogram_across_graphs(self):
        dfgs = [mk_dfg("ab", [(0, 1, "d")]) for __ in range(3)]
        hist = degree_histogram(dfgs)
        assert hist.total_nodes == 6


class TestLinearize:
    def test_terminator_pinned_last(self):
        dfg = build_dfg(block("mov r0, #1", "mov r1, #2", "b out"))
        edges = block_constraint_edges(dfg)
        assert (0, 2) in edges and (1, 2) in edges

    def test_call_not_pinned(self):
        dfg = build_dfg(block("mov r4, #1", "bl foo", "mov r5, #2"))
        edges = block_constraint_edges(dfg)
        assert (2, 1) not in edges and (1, 2) not in edges

    def test_priority_respected(self):
        order = topological_order(3, set(), priority=[2, 0, 1])
        assert order == [1, 2, 0]

    def test_cycle_detected(self):
        with pytest.raises(LinearizeError):
            topological_order(2, {(0, 1), (1, 0)}, priority=[0, 1])

    def test_is_valid_order(self):
        dfg = build_dfg(block("mov r0, #1", "add r1, r0, #1", "b out"))
        assert is_valid_order(dfg, [0, 1, 2])
        assert not is_valid_order(dfg, [1, 0, 2])
        assert not is_valid_order(dfg, [0, 2, 1])
        assert not is_valid_order(dfg, [0, 1])


_random_insns = st.lists(
    st.sampled_from(
        [
            "mov r0, #1", "add r0, r0, #1", "mov r1, r0", "cmp r1, #3",
            "ldr r2, [r0]", "str r2, [r1]", "mul r3, r1, r2",
            "movlt r4, #9", "eor r0, r0, r1",
        ]
    ),
    min_size=2,
    max_size=10,
)


@given(_random_insns)
@settings(max_examples=100)
def test_any_priority_yields_valid_order(texts):
    """Every topological order of the constraints is a valid reordering."""
    dfg = build_dfg(block(*texts))
    edges = block_constraint_edges(dfg)
    n = dfg.num_nodes
    # reversed priority: stress orders far from the original
    order = topological_order(n, edges, priority=[n - i for i in range(n)])
    assert is_valid_order(dfg, order)
