"""DgSpan: gSpan for directed graphs (paper §3.3).

The miner arranges all connected subgraphs of the DFG database in the
gSpan search lattice, traverses it depth-first along rightmost-path
extensions, detects duplicates with the minimal-DFS-code canonical form
(:mod:`repro.mining.dfs_code`), and prunes infrequent branches.

DgSpan uses the classical *graph-based* frequency: the number of
database graphs a fragment occurs in.  A fragment appearing twice inside
one basic block therefore counts once — the limitation that motivates
Edgar (:mod:`repro.mining.edgar`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.dfg.graph import DFG

from repro.mining.dfs_code import (
    DFSCode,
    EdgeTuple,
    code_num_nodes,
    edge_sort_key,
    graph_edges_of,
    is_min,
    node_labels_of,
    rightmost_path,
    _used_edges,
)
from repro.mining.embeddings import Embedding, dedupe_by_node_set
from repro.report.ledger import GLOBAL as _LEDGER
from repro.resilience import governor as _governor
from repro.resilience.faultinject import fault
from repro.telemetry import GLOBAL as _TELEMETRY


class _DeadlineReached(Exception):
    """Internal: unwinds the search when the time budget is spent."""


class _MinedGraph:
    """One DFG with interned labels and mixed-direction adjacency."""

    __slots__ = ("nodes", "edges", "adj")

    def __init__(self, node_labels: List[int],
                 edges: List[Tuple[int, int, int]]):
        self.nodes = node_labels
        self.edges = edges
        #: adj[v] = [(other, edge_label, direction_from_v), ...]
        self.adj: List[List[Tuple[int, int, int]]] = [
            [] for __ in node_labels
        ]
        for src, dst, elabel in edges:
            self.adj[src].append((dst, elabel, 0))
            self.adj[dst].append((src, elabel, 1))


class MiningDB:
    """The mining database: interning tables + per-DFG mined graphs."""

    def __init__(self, dfgs: Sequence[DFG]):
        self.dfgs = list(dfgs)
        label_set: Set[str] = set()
        kind_set: Set[str] = set()
        for dfg in self.dfgs:
            label_set.update(dfg.labels)
            kind_set.update(k for (__, ___, k) in dfg.edges)
        self.node_labels = sorted(label_set)
        self.edge_kinds = sorted(kind_set)
        self._label_id = {s: i for i, s in enumerate(self.node_labels)}
        self._kind_id = {s: i for i, s in enumerate(self.edge_kinds)}
        self.graphs: List[_MinedGraph] = []
        for dfg in self.dfgs:
            nodes = [self._label_id[s] for s in dfg.labels]
            edges = [
                (s, d, self._kind_id[k]) for (s, d, k) in sorted(dfg.edges)
            ]
            self.graphs.append(_MinedGraph(nodes, edges))

    def label_str(self, label_id: int) -> str:
        return self.node_labels[label_id]

    def kind_str(self, kind_id: int) -> str:
        return self.edge_kinds[kind_id]


@dataclass
class Fragment:
    """A frequent fragment: its canonical code and all its occurrences.

    ``support`` follows the discovering miner's frequency semantics —
    the number of database graphs for DgSpan, the number of distinct
    (deduplicated) embeddings for Edgar.  The extraction driver
    re-evaluates candidates with the exact non-overlapping count.
    """

    code: DFSCode
    node_labels: List[str]
    edges: List[Tuple[int, int, str]]
    embeddings: List[Embedding]
    support: int

    @property
    def num_nodes(self) -> int:
        return len(self.node_labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return (
            f"Fragment(nodes={self.num_nodes}, support={self.support}, "
            f"labels={self.node_labels})"
        )


class DgSpan:
    """Directed gSpan with graph-based frequency.

    Parameters
    ----------
    min_support:
        Minimum frequency (miner-specific semantics) for a fragment to
        be reported and extended.
    min_nodes / max_nodes:
        Fragment size window.  Growth stops at *max_nodes* (procedural
        abstraction candidates are small; the window bounds the
        exponential lattice).
    max_embeddings:
        Safety valve against factorial blow-up on highly symmetric
        fragments; branches whose embedding list exceeds the cap are
        truncated (a warning counter is kept in ``truncated_branches``).
    """

    def __init__(
        self,
        min_support: int = 2,
        min_nodes: int = 2,
        max_nodes: int = 12,
        max_embeddings: int = 4000,
    ):
        self.min_support = min_support
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.max_embeddings = max_embeddings
        self.truncated_branches = 0
        self.visited_nodes = 0  # lattice nodes expanded (for benches)
        #: PA-specific embedding pruning tallies, split by cause (only
        #: Edgar increments them; defined here so the driver's ledger
        #: emission reads them uniformly off either miner).
        self.pruned_never_convex = 0
        self.pruned_cyclic = 0
        #: Optional search-driver hook: called with an upper bound on the
        #: subtree's (fragment size, non-overlapping occurrence count);
        #: returning True prunes the subtree.  The PA driver uses it to
        #: cut every branch that cannot beat the current best candidate
        #: (both quantities are antimonotone along lattice edges, so the
        #: prune is exact for the "find the best extraction" query).
        self.prune_subtree = None
        #: Optional streaming sink; when set, frequent fragments are
        #: passed here instead of being accumulated in a list.
        self.on_fragment = None
        #: The active run governor is polled at every lattice node; on a
        #: spent budget or an interrupt the search unwinds cleanly
        #: (partial results remain valid — every reported fragment was
        #: genuinely frequent) and sets ``deadline_hit``.
        self.deadline_hit = False
        self._governor = _governor.current()

    # ------------------------------------------------------------------
    # frequency semantics (overridden by Edgar)
    # ------------------------------------------------------------------
    def _is_frequent(self, db: MiningDB, embeddings: List[Embedding]) -> bool:
        return len({e.graph for e in embeddings}) >= self.min_support

    def _support(self, db: MiningDB, embeddings: List[Embedding]) -> int:
        return len({e.graph for e in embeddings})

    def _filter_embeddings(
        self, db: MiningDB, code: DFSCode, embeddings: List[Embedding]
    ) -> List[Embedding]:
        """Hook for PA-specific embedding pruning (Edgar)."""
        return embeddings

    def _occurrence_bound(
        self, db: MiningDB, code: DFSCode, embeddings: List[Embedding]
    ) -> int:
        """Sound upper bound on usable (disjoint) occurrences.

        Disjoint occurrences of an *n*-node fragment inside one graph
        can never exceed ``graph nodes // n`` — a far tighter bound than
        the raw embedding count when occurrences overlap heavily (the
        giant-unrolled-block case), and still antimonotone because
        descendants only grow *n* and shrink the embedding set.
        """
        size = max(1, code_num_nodes(code))
        per_graph: Dict[int, int] = {}
        for emb in dedupe_by_node_set(embeddings):
            per_graph[emb.graph] = per_graph.get(emb.graph, 0) + 1
        return sum(
            min(count, len(db.graphs[gid].nodes) // size)
            for gid, count in per_graph.items()
        )

    # ------------------------------------------------------------------
    def mine(self, dfgs: Sequence[DFG]) -> List[Fragment]:
        """Return all frequent fragments of the database."""
        fault("mine.pass")
        db = MiningDB(dfgs)
        # visited_nodes and truncated_branches accumulate across calls
        # (the driver mines the full graph and the flow projection with
        # one miner instance and reads the totals afterwards)
        self.deadline_hit = False
        self._governor = _governor.current()
        results: List[Fragment] = []

        seeds: Dict[EdgeTuple, List[Embedding]] = {}
        for gid, graph in enumerate(db.graphs):
            for src, dst, elabel in graph.edges:
                for a, b, direction in ((src, dst, 0), (dst, src, 1)):
                    tup = (
                        0, 1, graph.nodes[a], direction, elabel,
                        graph.nodes[b],
                    )
                    seeds.setdefault(tup, []).append(
                        Embedding(gid, (a, b))
                    )
        # Exploration order: seeds spanning several graphs first (their
        # candidates are cheap to confirm and raise the PA driver's
        # benefit floor early), then by embedding count.  Single-graph
        # seeds — e.g. the inside of one giant unrolled block, where
        # embeddings overlap heavily and extraction rarely pays — are
        # visited last, under an already-high floor and, when the run
        # governor has a budget, only with leftover budget.  Canonical-form
        # deduplication makes the result set independent of sibling
        # order.
        def seed_order(tup):
            embeddings = seeds[tup]
            graphs = len({e.graph for e in embeddings})
            return (-graphs, -len(embeddings), edge_sort_key(tup))

        visited_before = self.visited_nodes
        truncated_before = self.truncated_branches
        try:
            with _TELEMETRY.span("mining.mine", graphs=len(db.graphs),
                                 seeds=len(seeds),
                                 max_nodes=self.max_nodes):
                for tup in sorted(seeds, key=seed_order):
                    code = (tup,)
                    if is_min(code):
                        self._search(db, code, seeds[tup], results)
        except _DeadlineReached:
            self.deadline_hit = True
            _TELEMETRY.count("mining.deadline_hits")
        if _LEDGER.enabled:
            _LEDGER.emit(
                "mine.pass",
                engine=type(self).__name__.lower(),
                graphs=len(db.graphs),
                seeds=len(seeds),
                max_nodes=self.max_nodes,
                lattice_nodes=self.visited_nodes - visited_before,
                truncated_branches=(
                    self.truncated_branches - truncated_before
                ),
                deadline_hit=self.deadline_hit,
            )
        return results

    # ------------------------------------------------------------------
    def _search(
        self,
        db: MiningDB,
        code: DFSCode,
        embeddings: List[Embedding],
        results: List[Fragment],
    ) -> None:
        fault("mine.search")
        if self._governor.should_stop():
            raise _DeadlineReached
        if len(embeddings) > self.max_embeddings:
            # Safety valve against combinatorial blow-up inside large
            # blocks with many repeated labels: keep a deterministic
            # prefix (a sound undercount of frequency and benefit).
            self.truncated_branches += 1
            _TELEMETRY.count("mining.truncated_branches")
            embeddings = embeddings[: self.max_embeddings]
        embeddings = self._filter_embeddings(db, code, embeddings)
        if _TELEMETRY.enabled:
            support_started = time.perf_counter()
            frequent = self._is_frequent(db, embeddings)
            _TELEMETRY.observe(
                "mining.support_check_seconds",
                time.perf_counter() - support_started,
            )
        else:
            frequent = self._is_frequent(db, embeddings)
        if not frequent:
            _TELEMETRY.count("mining.infrequent_prunes")
            return
        if self.prune_subtree is not None:
            occurrence_bound = self._occurrence_bound(db, code, embeddings)
            if self.prune_subtree(self.max_nodes, occurrence_bound):
                _TELEMETRY.count("mining.subtree_prunes")
                return
        self.visited_nodes += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.count("mining.lattice_nodes")
            _TELEMETRY.count(
                "mining.embeddings_enumerated", len(embeddings)
            )
        num_nodes = code_num_nodes(code)
        if num_nodes >= self.min_nodes:
            _TELEMETRY.count("mining.fragments_reported")
            fragment = self._fragment(db, code, embeddings)
            if self.on_fragment is not None:
                self.on_fragment(fragment)
            else:
                results.append(fragment)
        if num_nodes >= self.max_nodes:
            return

        children = self._extensions(db, code, embeddings)
        for tup in sorted(
            children, key=lambda t: (-len(children[t]), edge_sort_key(t))
        ):
            child = code + (tup,)
            if is_min(child):
                self._search(db, child, children[tup], results)

    # ------------------------------------------------------------------
    def _extensions(
        self, db: MiningDB, code: DFSCode, embeddings: List[Embedding]
    ) -> Dict[EdgeTuple, List[Embedding]]:
        """Rightmost-path extensions of *code* over every embedding."""
        extensions: Dict[EdgeTuple, List[Embedding]] = {}
        rm_path = rightmost_path(code)
        rightmost = rm_path[-1]
        rm_set = set(rm_path)
        for emb in embeddings:
            graph = db.graphs[emb.graph]
            mapping = emb.nodes
            mapped = set(mapping)
            used = _used_edges(code, mapping)
            # backward extensions: rightmost vertex -> rightmost path
            g_rightmost = mapping[rightmost]
            for other, elabel, direction in graph.adj[g_rightmost]:
                if other not in mapped:
                    continue
                back_to = mapping.index(other)
                if back_to == rightmost or back_to not in rm_set:
                    continue
                gedge = (
                    (g_rightmost, other, elabel)
                    if direction == 0
                    else (other, g_rightmost, elabel)
                )
                if gedge in used:
                    continue
                tup = (
                    rightmost, back_to, graph.nodes[g_rightmost],
                    direction, elabel, graph.nodes[other],
                )
                extensions.setdefault(tup, []).append(emb)
            # forward extensions: rightmost path -> new node
            new_index = len(mapping)
            for dfs_index in rm_path:
                g_node = mapping[dfs_index]
                for other, elabel, direction in graph.adj[g_node]:
                    if other in mapped:
                        continue
                    tup = (
                        dfs_index, new_index, graph.nodes[g_node],
                        direction, elabel, graph.nodes[other],
                    )
                    extensions.setdefault(tup, []).append(
                        Embedding(emb.graph, mapping + (other,))
                    )
        return extensions

    # ------------------------------------------------------------------
    def _fragment(
        self, db: MiningDB, code: DFSCode, embeddings: List[Embedding]
    ) -> Fragment:
        labels = [db.label_str(lab) for lab in node_labels_of(code)]
        edges = [
            (s, d, db.kind_str(k)) for (s, d, k) in graph_edges_of(code)
        ]
        unique = dedupe_by_node_set(embeddings)
        return Fragment(
            code=code,
            node_labels=labels,
            edges=edges,
            embeddings=unique,
            support=self._support(db, embeddings),
        )
