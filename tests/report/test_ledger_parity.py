"""The decision ledger crosses the shard boundary intact.

Per-fragment records and candidate provenance are captured while a
shard is mined and replayed by the parent in shard order; the per-round
``mine.skips``/``prune`` aggregates come from the merged shard tallies,
which cached shards carry too.  So on the golden program the ledger
reads the same in-process (``workers=1``) and across worker processes
(``workers=2``), and the aggregates also survive a warm cache.
"""

from collections import Counter

import pytest

from repro.pa.driver import PAConfig, run_pa
from repro.report import ledger
from repro.report.explain import explain_round

from tests.conftest import module_from_source
from tests.report.conftest import GOLDEN_PROGRAM

#: extraction-record fields that come from candidate provenance
PROVENANCE_FIELDS = (
    "embedding_count", "legal", "mis_size", "collision_nodes",
    "collision_edges", "mis_mode", "order_kept", "collision_dot",
)


def _ledgered_run(**config):
    registry = ledger.get()
    registry.reset()
    registry.enable()
    try:
        module = module_from_source(GOLDEN_PROGRAM)
        run_pa(module, PAConfig(**config))
        return list(registry.records)
    finally:
        registry.disable()
        registry.reset()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("fragcache"))
    return {
        "w1": _ledgered_run(batch=False, workers=1, fragment_cache=cache),
        "w2": _ledgered_run(batch=False, workers=2),
        "warm": _ledgered_run(batch=False, workers=1,
                              fragment_cache=cache),
    }


def _of(records, rtype):
    return [r for r in records if r["type"] == rtype]


def _strip(records, *keys):
    return [{k: v for k, v in r.items() if k not in keys}
            for r in records]


def _verdicts(records):
    return Counter(
        (c["round"], c["verdict"], c["method"], tuple(c["labels"]),
         c.get("benefit"))
        for c in _of(records, "candidate")
    )


def _provenance(records):
    return [
        (e["round"], e["new_symbol"])
        + tuple(e[key] for key in PROVENANCE_FIELDS)
        for e in _of(records, "extraction")
    ]


def test_worker_processes_replay_the_same_ledger(runs):
    one, two = runs["w1"], runs["w2"]
    assert _of(one, "mine.skips") == _of(two, "mine.skips")
    assert _of(one, "prune") == _of(two, "prune")
    assert _verdicts(one) and _verdicts(one) == _verdicts(two)
    assert _provenance(one) == _provenance(two)
    # every per-fragment record, and the drop census of the capped types
    for rtype in ("mine.pass", "legality", "mis", "candidate"):
        assert _of(one, rtype) and _of(one, rtype) == _of(two, rtype)
    (end_one,), (end_two,) = _of(one, "run.end"), _of(two, "run.end")
    assert end_one["dropped"] == end_two["dropped"]
    assert end_one["dropped"].get("legality", 0) > 0


def test_warm_cache_keeps_the_round_aggregates(runs):
    cold, warm = runs["w1"], runs["warm"]
    assert all(r["cached"] for r in _of(warm, "scale.shard"))
    assert _of(cold, "mine.skips") == _of(warm, "mine.skips")
    assert _of(cold, "prune") == _of(warm, "prune")
    # cache hits replay tallies, not per-fragment records
    assert not _of(warm, "candidate") and not _of(warm, "mine.pass")
    assert _strip(_of(cold, "extraction"), *PROVENANCE_FIELDS) == \
        _strip(_of(warm, "extraction"), *PROVENANCE_FIELDS)


@pytest.mark.parametrize("run", ["w1", "w2"])
def test_golden_invariants_hold_on_every_worker_count(runs, run):
    records = runs[run]
    for skip in _of(records, "mine.skips"):
        assert skip["considered"] == sum(
            skip[key] for key in ("floor", "illegal", "lr_infeasible",
                                  "order_inconsistent", "unprofitable",
                                  "scored")
        )
    scored = {
        (c["round"], c["method"], c["benefit"])
        for c in _of(records, "candidate") if c["verdict"] == "scored"
    }
    assert {(0, "crossjump", 4), (1, "call", 3)} <= scored
    assert "embeddings 2 -> legal 2 -> MIS size 2" in \
        explain_round(records, 1)


def test_default_config_ledger_carries_the_funnel():
    records = _ledgered_run()
    types = {r["type"] for r in records}
    assert {"candidate", "legality", "mis", "mine.pass", "mine.skips",
            "prune"} <= types
    extractions = _of(records, "extraction")
    assert len(extractions) == 2
    for extraction in extractions:
        assert extraction["legal"] == 2
        assert extraction["mis_mode"] == "trivial"
        assert extraction["collision_dot"].startswith("graph")


def test_explain_sums_the_mining_passes_of_all_shards(runs):
    text = explain_round(runs["w1"], 1)
    mining = [line for line in text.splitlines()
              if "lattice nodes" in line]
    assert [line.split()[0] for line in mining] == \
        ["shallow", "full", "flow"]
    assert all("over 4 shards" in line for line in mining)
