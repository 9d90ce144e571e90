"""The scale engine's determinism gate, on all eight workloads: one
worker vs four workers, and cold cache vs warm persistent cache, must
produce byte-identical modules, identical extraction records and the
pinned savings.

This is the invariant that makes ``--workers``/``--fragment-cache``
safe to flip on anywhere: they change wall-clock, never the result.
"""

import hashlib

import pytest

from repro.pa.driver import PAConfig, run_pa
from repro.workloads import PROGRAMS, compile_workload


#: instructions saved at ``max_nodes=4`` — equal to what the retired
#: single-pool serial engine saved, so no workload may drop below it
EXPECTED_SAVED = {
    "bitcnts": 19,
    "crc": 8,
    "dijkstra": 18,
    "patricia": 22,
    "qsort": 12,
    "rijndael": 87,
    "search": 14,
    "sha": 36,
}

#: lattice nodes mined by the cold 1-worker run — a host-independent
#: work counter: an exact speed-up of the miner must leave it unchanged
EXPECTED_LATTICE_NODES = {
    "bitcnts": 531,
    "crc": 678,
    "dijkstra": 493,
    "patricia": 1069,
    "qsort": 1504,
    "rijndael": 5182,
    "search": 1995,
    "sha": 1795,
}

#: first 8 hex digits of the SHA-256 of the optimised module's text
EXPECTED_DIGEST = {
    "bitcnts": "c6f61763",
    "crc": "02cc8149",
    "dijkstra": "3f71f871",
    "patricia": "919c88a6",
    "qsort": "0fcbb0e3",
    "rijndael": "cc86ffcf",
    "search": "2c410db6",
    "sha": "b14ca36b",
}


def _config(**overrides):
    # max_nodes=4 keeps the 8-workload sweep inside the tier-1 budget;
    # the sharding/caching/merge paths are depth-independent.
    return PAConfig(max_nodes=4, **overrides)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_workers_and_cache_state_do_not_change_the_result(
    name, tmp_path
):
    cachedir = str(tmp_path / "cache")

    w1 = compile_workload(name)
    r1 = run_pa(w1, _config(workers=1, fragment_cache=cachedir))

    w4 = compile_workload(name)
    r4 = run_pa(w4, _config(workers=4))

    warm = compile_workload(name)
    rw = run_pa(warm, _config(workers=1, fragment_cache=cachedir))

    assert w1.render() == w4.render(), (
        f"{name}: 1-worker and 4-worker modules differ"
    )
    assert w1.render() == warm.render(), (
        f"{name}: cold-cache and warm-cache modules differ"
    )
    key = lambda r: [(x.round, x.method, x.size, x.occurrences,
                      x.new_symbol) for x in r.records]
    assert key(r1) == key(r4) == key(rw)
    assert r1.saved == r4.saved == rw.saved == EXPECTED_SAVED[name]
    assert r1.lattice_nodes == EXPECTED_LATTICE_NODES[name]
    digest = hashlib.sha256(w1.render().encode()).hexdigest()[:8]
    assert digest == EXPECTED_DIGEST[name]
    if r1.rounds:
        # the warm run actually exercised the persistent cache
        assert rw.cache_hits > 0
