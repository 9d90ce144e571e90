"""Incremental re-mining on a real run: an extraction changes the
payload digests of the shards holding rewritten blocks and leaves every
other shard's digest — its fragment-cache key — as it was, so the next
round re-mines only the touched few."""

from repro.dfg.builder import build_dfgs
from repro.pa.driver import PAConfig, run_pa
from repro.pa.legality import sp_fragile_functions
from repro.pa.liveness import lr_live_out_blocks
from repro.scale.cluster import cluster_dfgs
from repro.scale.shard import build_payload
from repro.workloads import compile_workload


def _digests(module, config):
    dfgs = build_dfgs(module, min_nodes=0, mined_kinds=config.mined_kinds)
    lr_live = lr_live_out_blocks(module)
    fragile = sp_fragile_functions(module)
    return [
        build_payload(shard, dfgs, lr_live, fragile, config).digest()
        for shard in cluster_dfgs(dfgs)
    ]


def test_extraction_invalidates_only_touched_shards():
    """After one real abstraction round most shard digests survive and
    some change (the new pa_* function, the rewritten call sites)."""
    config = PAConfig(max_nodes=4)
    module = compile_workload("crc")
    before = set(_digests(module, config))
    result = run_pa(module, PAConfig(max_nodes=4, max_rounds=1))
    assert result.rounds == 1
    after = _digests(module, config)
    clean = [d for d in after if d in before]
    dirty = [d for d in after if d not in before]
    assert clean and dirty
    assert len(clean) >= len(dirty)
