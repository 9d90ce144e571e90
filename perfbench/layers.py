"""Per-layer call accounting for the benchmark's traced run.

The program under test has no per-layer spans of its own, so the
benchmark wraps calls into each module's public functions from here.
A wrapper records the call count, inclusive seconds and self seconds
(inclusive minus the time spent in wrapped callees) of its layer.

A wrapper must replace the name where the *caller* looks it up: most
call sites bind their callee with ``from module import name``, so
patching the defining module would miss them.  :data:`PATCH_SITES`
lists every call-site binding used on the optimisation path.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, module, attribute) -- the attribute may be ``Class.method``.
#: Several sites may feed one layer (e.g. ``dfg.build_dfgs`` is looked
#: up by both the shard scheduler and the batch applier).
PATCH_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("pa.driver", "pipeline", "run_pa"),
    ("binary.load_image", "pipeline", "load_image"),
    ("binary.layout", "pipeline", "layout"),
    ("pa.sfx.run_sfx", "pipeline", "run_sfx"),
    ("sim.run_image", "pipeline", "run_image"),
    ("pa.driver.apply_batch", "repro.pa.driver", "apply_batch"),
    ("dfg.build_dfgs", "repro.scale.pool", "build_dfgs"),
    ("dfg.build_dfgs", "repro.pa.driver", "build_dfgs"),
    ("pa.liveness.lr_live_out_blocks", "repro.scale.pool",
     "lr_live_out_blocks"),
    ("pa.legality.sp_fragile_functions", "repro.scale.pool",
     "sp_fragile_functions"),
    ("verify.absint.module_summaries", "repro.pa.legality",
     "module_summaries"),
    ("scale.cluster_dfgs", "repro.scale.pool", "cluster_dfgs"),
    ("scale.build_payload", "repro.scale.pool", "build_payload"),
    ("scale.build_payload", "repro.scale.shard", "ShardPayload.digest"),
    ("scale.cache.get", "repro.scale.cache", "FragmentCache.get"),
    ("scale.cache.put", "repro.scale.cache", "FragmentCache.put"),
    ("scale.revive_candidates", "repro.scale.pool", "revive_candidates"),
    ("scale.mine_shard", "repro.scale.supervise", "mine_shard"),
    ("pa.legality.legal_embeddings", "repro.scale.shard",
     "legal_embeddings"),
    ("mining.is_min", "repro.mining.gspan", "is_min"),
    ("mining.between_nodes", "repro.mining.pruning", "between_nodes"),
    ("mining.never_convex_within", "repro.mining.edgar",
     "never_convex_within"),
    ("mining.max_independent_set", "repro.mining.edgar",
     "max_independent_set"),
)

#: Layer groups for the share summary: which layer dominates a
#: workload.  Each layer's *self* time counts toward its group, so the
#: shares add up to the traced optimisation time.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "mining": ("scale.mine_shard", "mining.is_min", "mining.between_nodes",
               "mining.never_convex_within", "mining.max_independent_set"),
    "legality": ("pa.legality.sp_fragile_functions",
                 "verify.absint.module_summaries",
                 "pa.legality.legal_embeddings"),
    "cache": ("scale.cache.get", "scale.cache.put",
              "scale.revive_candidates"),
    "module_scan": ("dfg.build_dfgs", "scale.cluster_dfgs",
                    "scale.build_payload", "pa.liveness.lr_live_out_blocks"),
    "apply": ("pa.driver.apply_batch",),
    "image": ("binary.load_image", "binary.layout"),
    "driver": ("pa.driver",),
}


class LayerStat:
    """Accumulated calls, inclusive and self seconds of one layer."""

    __slots__ = ("calls", "seconds", "self_seconds", "depth", "nonempty")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        #: active activations; inclusive time is added only when the
        #: outermost one returns, so recursion is not double counted
        self.depth = 0
        #: calls whose result was "non-empty" (see Tracer.wrap)
        self.nonempty = 0


class Tracer:
    """A stack of open calls and the per-layer totals they add up to."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, LayerStat] = {}
        #: one [child_seconds] cell per open wrapped call
        self._stack: List[List[float]] = []

    def stat(self, layer: str) -> LayerStat:
        stat = self.stats.get(layer)
        if stat is None:
            stat = self.stats[layer] = LayerStat()
        return stat

    def wrap(self, layer: str, fn: Callable,
             nonempty: Optional[Callable[[object], bool]] = None
             ) -> Callable:
        """*fn* with its calls accounted to *layer*.

        *nonempty*, when given, classifies each return value; the count
        of true verdicts feeds acceptance ratios.
        """
        stat = self.stat(layer)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            stat.depth += 1
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.depth -= 1
                stat.calls += 1
                stat.self_seconds += elapsed - cell[0]
                if stat.depth == 0:
                    stat.seconds += elapsed
            if nonempty is not None and nonempty(result):
                stat.nonempty += 1
            return result

        wrapper.__wrapped_layer__ = layer
        return wrapper


def _legal_nonempty(result) -> bool:
    """``legal_embeddings`` returns ``(method, embeddings)``."""
    return bool(result[1])


_NONEMPTY = {"pa.legality.legal_embeddings": _legal_nonempty}


def _resolve(module_name: str, attribute: str):
    """(owner object, attribute name) of one patch site."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def installed(tracer: Tracer,
              sites: Tuple[Tuple[str, str, str], ...] = PATCH_SITES
              ) -> Iterator[Tracer]:
    """Patch every site with a wrapper of *tracer*; restore on exit.

    The original objects are put back even when the body raises, so a
    traced pass never leaks wrappers into the untraced ones.
    """
    saved = []
    try:
        for layer, module_name, attribute in sites:
            owner, name = _resolve(module_name, attribute)
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name,
                    tracer.wrap(layer, original, _NONEMPTY.get(layer)))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
