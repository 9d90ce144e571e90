"""Sharded, parallel, incremental, cached mining (``src/repro/scale/``).

Mining the whole block-DFG database as one pool would redo every round
from scratch, although an extraction only rewrites a handful of blocks
and identical blocks recur both across rounds and across runs.  This
subsystem is the abstraction loop's one mining engine; it makes mining
*sharded*, *parallel*, *incremental* and *cached* while keeping the
output bit-identical for any worker count and any cache state:

:mod:`repro.scale.cluster`
    Pre-clustering: blocks partition into shards (connected components
    over shared labelled-edge signatures) that provably cannot share a
    frequent fragment, so each shard's lattice search is independent.
:mod:`repro.scale.shard`
    The shard-scoped mining funnel (mine -> legality -> MIS -> order ->
    score), runnable in-process or in a worker process, plus the
    serialization that moves shard results across process and cache
    boundaries.
:mod:`repro.scale.pool`
    The multiprocess worklist scheduler: a worker fleet expands shard
    lattices concurrently with deterministic merge ordering and
    governor-aware teardown (SIGINT/deadline propagate; completed
    shards are salvaged as best-so-far).
:mod:`repro.scale.supervise`
    The fault-tolerant shard executor under the scheduler: tracked
    worker processes with sentinel watching (a SIGKILL'd/OOM-killed
    worker is detected in one poll tick and its shard redelivered),
    bounded retry with deterministic governor-aware backoff, a
    per-shard soft timeout, and a serial-fallback-then-quarantine
    policy for shards that keep failing.
:mod:`repro.scale.cache`
    The content-addressed fragment cache: shard results keyed by a
    canonical content digest, held in memory across rounds and
    (optionally) on disk across runs.
:mod:`repro.scale.delta`
    The incremental re-mining planner: after an extraction touches a
    few blocks, only the shards containing rewritten blocks are
    predicted dirty; every other shard's lattice is reused verbatim
    through the cache.
"""

from repro.scale.cache import CACHE_SCHEMA, CacheStats, FragmentCache
from repro.scale.cluster import Shard, cluster_dfgs, edge_signatures
from repro.scale.delta import DeltaPlan, DeltaPlanner
from repro.scale.pool import ScaleStats, run_sharded_round
from repro.scale.shard import (
    SHARD_SCHEMA,
    ShardPayload,
    ShardResult,
    build_payload,
    mine_shard,
    revive_candidates,
)
from repro.scale.supervise import (
    ShardAttempt,
    SuperviseOutcome,
    mine_serial,
    supervise_mine,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "DeltaPlan",
    "DeltaPlanner",
    "FragmentCache",
    "SHARD_SCHEMA",
    "ScaleStats",
    "Shard",
    "ShardAttempt",
    "ShardPayload",
    "ShardResult",
    "SuperviseOutcome",
    "build_payload",
    "cluster_dfgs",
    "edge_signatures",
    "mine_serial",
    "mine_shard",
    "revive_candidates",
    "run_sharded_round",
    "supervise_mine",
]
