"""The ledger-off guarantee: disabled means inert, enabled means
bit-identical results (the same contract as the telemetry registry)."""

from repro.pa.driver import PAConfig, run_pa

from tests.conftest import (
    SHARED_FRAGMENT_PROGRAM,
    mine_candidates,
    module_from_source,
)


def _run(config=None):
    module = module_from_source(SHARED_FRAGMENT_PROGRAM)
    result = run_pa(module, config or PAConfig())
    return module, result


class TestDisabledGuard:
    def test_disabled_run_records_nothing(self, global_ledger):
        assert not global_ledger.enabled
        _run()
        assert global_ledger.records == []
        assert global_ledger.dropped == {}

    def test_binaries_identical_with_and_without_ledger(
        self, global_ledger
    ):
        baseline_module, baseline = _run()
        global_ledger.enable()
        ledgered_module, ledgered = _run()
        assert ledgered_module.render() == baseline_module.render()
        assert ledgered.saved == baseline.saved
        assert ledgered.rounds == baseline.rounds
        assert ledgered.records == baseline.records
        assert ledgered.lattice_nodes == baseline.lattice_nodes
        # ... and the enabled run did record the decisions
        assert any(
            r["type"] == "extraction" for r in global_ledger.records
        )

    def test_candidate_provenance_absent_when_disabled(
        self, global_ledger
    ):
        module = module_from_source(SHARED_FRAGMENT_PROGRAM)
        candidates = mine_candidates(module)
        assert candidates
        assert all(c.provenance is None for c in candidates)

    def test_candidate_provenance_attached_when_enabled(
        self, global_ledger
    ):
        global_ledger.enable()
        module = module_from_source(SHARED_FRAGMENT_PROGRAM)
        candidates = mine_candidates(module)
        assert candidates
        best = candidates[0]
        assert best.provenance is not None
        assert best.provenance["mis_size"] == best.occurrences
        assert best.provenance["collision_adjacency"] is not None
