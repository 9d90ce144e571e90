"""Observability of the sharded engine, end to end: cross-process
trace stitching, worker-count instrumentation parity, the cache census,
and the bit-identity guard (telemetry on => byte-identical output)."""

import os

import pytest

from repro import telemetry
from repro.pa.driver import PAConfig, run_pa
from repro.telemetry import chrome_trace
from repro.workloads import PROGRAMS, compile_workload


@pytest.fixture
def registry():
    telemetry.reset()
    telemetry.enable()
    yield telemetry.get()
    telemetry.disable()
    telemetry.reset()


def run_crc(workers, max_nodes=4):
    module = compile_workload("crc")
    result = run_pa(module, PAConfig(max_nodes=max_nodes,
                                     workers=workers))
    return module, result


class TestCrossProcessTrace:
    def test_worker_spans_stitched_with_real_pids(self, registry):
        __, result = run_crc(workers=2)
        assert result.saved > 0
        pids = {record.pid for record in registry.spans}
        assert 0 in pids, "parent spans keep pid 0 (local)"
        worker_pids = pids - {0}
        assert worker_pids, "worker spans must carry their real pid"
        assert os.getpid() not in worker_pids
        # intra-shard mining spans came through the stitch
        names = {record.name for record in registry.spans}
        assert "scale.shard.mine" in names
        assert registry.counter_value("mining.lattice_nodes") > 0
        assert "scale.shard.mine_seconds" in registry.histograms
        for pid in worker_pids:
            assert registry.remote_processes[pid] == "shard-worker"

    def test_chrome_trace_has_named_worker_processes(self, registry):
        run_crc(workers=2)
        events = chrome_trace(registry)
        process_rows = {
            e["pid"]: e["args"]["name"] for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert len(process_rows) >= 2
        assert process_rows[os.getpid()] == "repro"
        assert "shard-worker" in process_rows.values()

    def test_worker_spans_nest_under_scale_mine(self, registry):
        run_crc(workers=2)
        by_ident = {r.ident: r for r in registry.spans}
        for record in registry.spans:
            if record.name != "scale.shard.mine":
                continue
            assert record.parent is not None
            assert by_ident[record.parent].name == "scale.mine"


class TestInstrumentationParity:
    def test_counters_and_span_counts_match_across_workers(self):
        tallies = {}
        for workers in (1, 2):
            telemetry.reset()
            telemetry.enable()
            try:
                run_crc(workers=workers)
                counters = {
                    name: counter.value for name, counter
                    in telemetry.get().counters.items()
                }
                spans = {}
                for record in telemetry.get().spans:
                    spans[record.name] = spans.get(record.name, 0) + 1
                tallies[workers] = (counters, spans)
            finally:
                telemetry.disable()
                telemetry.reset()
        assert tallies[1][0] == tallies[2][0]
        assert tallies[1][1] == tallies[2][1]


class TestCacheCensus:
    def test_census_lands_on_result_and_counters(self, registry):
        __, result = run_crc(workers=1)
        assert result.cache_census
        assert result.cache_census["misses"] > 0
        for key, value in result.cache_census.items():
            assert registry.counter_value(
                f"scale.cache.census.{key}"
            ) == value


class TestDisabledInert:
    """The bit-identity guard: a run with telemetry recording is
    byte-identical to a plain one on every bundled workload."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_observability_never_changes_output(self, name):
        plain = compile_workload(name)
        run_pa(plain, PAConfig(max_nodes=4, workers=2))

        telemetry.reset()
        telemetry.enable()
        try:
            observed = compile_workload(name)
            run_pa(observed, PAConfig(max_nodes=4, workers=2))
        finally:
            telemetry.disable()
            telemetry.reset()
        assert plain.render() == observed.render()
