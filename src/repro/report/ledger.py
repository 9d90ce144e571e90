"""The decision ledger: typed provenance records from the PA pipeline.

The ledger is a process-global, append-only stream of plain dicts, each
tagged with a ``type`` and merged with the ambient *context* (the round
number, the active mining pass) that the driver maintains around the
pipeline phases.  Pipeline modules emit through the module-global
:data:`GLOBAL` instance behind the same contract the telemetry registry
uses:

1. **Off by default, inert when disabled.**  Every emission site is
   guarded by a plain attribute check; a disabled run records nothing
   and — asserted by ``tests/report`` — produces bit-identical binaries
   to an enabled run.
2. **Bounded.**  High-frequency record types (one legality verdict per
   mined fragment can mean tens of thousands of records on a real
   workload) are capped per type; drops are counted and reported in the
   ``run.end`` record rather than silently swallowed.
3. **Purely observational.**  Nothing reads the ledger back during a
   run; enabling it may cost time but never changes a result.

Record types of schema ``repro.report.ledger/1`` (all fields additive;
consumers must ignore unknown fields):

========== ==========================================================
type       emitted by / contents
========== ==========================================================
run.begin  driver — schema tag, engine, config snapshot, instruction
           count before abstraction
round.begin / round.end
           driver — per-round instruction counts, candidates applied,
           instructions saved
mine.pass  miner, per mined shard* — one record per mining pass
           (shallow / full / flow): graphs, seeds, lattice nodes
           expanded, truncated branches, deadline hit
mine.skips shard scheduler (``scale.pool``) — per-round aggregate of
           the merged shard tallies: candidate-rejection counts
           (benefit floor, illegality, lr-infeasibility, order
           inconsistency, unprofitability) plus the scored total
prune      shard scheduler — per-round aggregate of the merged shard
           tallies: PA-specific embedding pruning, the never-convex
           count and the Fig. 9 cyclic-dependency count
legality   legality checker, per mined shard* — one verdict per
           classified fragment: mechanism (call / crossjump / null)
           and surviving embeddings (capped)
mis        MIS solver, per mined shard* — one record per overlap
           resolution: collision graph size, component census,
           exact-vs-greedy fallback, chosen set size (capped)
candidate  shard funnel (``scale.shard``), per mined shard* — one
           record per candidate that reached the cost/benefit race:
           fragment labels, embedding counts at each funnel stage,
           MIS size and mode, benefit, verdict (scored / unprofitable
           / order_inconsistent / lr_infeasible)
scale.shard / scale.round / scale.retry / scale.quarantine /
scale.salvage
           shard scheduler — per-shard and per-round census of
           sharding, caching, retries and teardown
extraction driver — one record per applied extraction: mechanism,
           size, occurrences, benefit, bytes saved, new symbol, body
           instructions, origins, and inline DOT renderings of the
           fragment, its host block (embedding highlighted) and the
           collision graph MIS solved
rewrite    extractor — low-level confirmation that a rewrite landed:
           mechanism, symbol, occurrence count
verify.round
           translation validator (``pa --verify``) — per-round
           summary: blocks checked / identical, lr exemptions, new
           symbols
verify.lint
           translation validator — a post-round lint regression; the
           error findings inline (the round is then aborted)
verify.counterexample
           translation validator — an equivalence failure: function,
           old/new block indices, the disagreeing resource, both
           symbolic terms, and both instruction listings (carries
           ``injected: true`` when forged by fault injection)
verify.retry
           driver — one verify-failure recovery step: the round was
           rolled back, the offending candidates blocklisted by
           canonical fingerprint, and the round re-mined
checkpoint driver — one crash-safe checkpoint written (round, path)
run.degraded
           driver — the run wound down early but cleanly: the
           degradation causes (time_budget / interrupted /
           verify_retries), rounds completed, instructions kept
run.abort  CLI boundary — a typed internal failure ended the run:
           error code, message
run.end    driver — rounds, saved instructions, elapsed seconds, and
           the per-type dropped-record census
========== ==========================================================

The per-fragment records (marked * above) are captured while a shard
is mined — in the parent or in a worker process — and replayed by the
parent in shard order (:meth:`Ledger.capture` / :meth:`Ledger.replay`),
so they read the same for every worker count.  A shard served from the
fragment cache contributes its tallies to ``mine.skips``/``prune`` but
no per-fragment records, and its candidates carry no provenance (their
``extraction`` records then lack the funnel counts and collision DOT).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from repro.resilience.atomicio import atomic_write_text
from repro.resilience.faultinject import fault

#: Version tag of the ledger JSONL schema.
LEDGER_SCHEMA = "repro.report.ledger/1"

#: Per-type record caps.  ``legality`` fires once per classified mined
#: fragment and ``mis`` once per overlap resolution — tens of thousands
#: of records on real workloads; the driver-level types are naturally
#: bounded by the candidate funnel and stay uncapped.
DEFAULT_CAPS: Dict[str, int] = {
    "legality": 1_000,
    "mis": 4_000,
    "candidate": 4_000,
}


class _NullContext:
    """Shared no-op context manager returned while the ledger is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _LedgerContext:
    """Temporarily merges fields into the ledger's ambient context."""

    __slots__ = ("_ledger", "_fields", "_saved")

    def __init__(self, ledger: "Ledger", fields: Dict[str, Any]):
        self._ledger = ledger
        self._fields = fields

    def __enter__(self) -> "_LedgerContext":
        context = self._ledger._context
        self._saved = {
            key: context[key] for key in self._fields if key in context
        }
        context.update(self._fields)
        return self

    def __exit__(self, *exc) -> bool:
        context = self._ledger._context
        for key in self._fields:
            if key in self._saved:
                context[key] = self._saved[key]
            else:
                context.pop(key, None)
        return False


@dataclass
class Captured:
    """The records and drop census of one :meth:`Ledger.capture` scope
    (plain data: it pickles across a process boundary)."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    dropped: Dict[str, int] = field(default_factory=dict)


class Ledger:
    """An append-only stream of typed decision records.

    The pipeline is sequential; the ledger deliberately has no lock.
    (The telemetry registry, which *is* shared across the simulator's
    helper threads, keeps one — nothing here runs off the main thread.)
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: List[Dict[str, Any]] = []
        self.dropped: Dict[str, int] = {}
        self.caps: Dict[str, int] = dict(DEFAULT_CAPS)
        self._counts: Dict[str, int] = {}
        self._context: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all records and context (the enabled flag is preserved)."""
        self.records = []
        self.dropped = {}
        self._counts = {}
        self._context = {}

    # ------------------------------------------------------------------
    # context
    # ------------------------------------------------------------------
    def context(self, **fields):
        """Context manager merging *fields* into every nested emission."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _LedgerContext(self, fields)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, rtype: str, **fields) -> None:
        """Append one record of type *rtype*, merged with the context."""
        if not self.enabled:
            return
        cap = self.caps.get(rtype)
        count = self._counts.get(rtype, 0)
        if cap is not None and count >= cap:
            self.dropped[rtype] = self.dropped.get(rtype, 0) + 1
            return
        self._counts[rtype] = count + 1
        record: Dict[str, Any] = {"type": rtype}
        record.update(self._context)
        record.update(fields)
        self.records.append(record)

    # ------------------------------------------------------------------
    # isolated capture (shard mining)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def capture(self, enabled: bool = True) -> Iterator["Captured"]:
        """Record into a fresh, isolated stream for the duration.

        Shard mining runs inside this scope, in the parent or in a
        worker process alike: with *enabled* the scope's records and
        drop census land in the yielded :class:`Captured` (caps apply
        per scope) for :meth:`replay`; without it the scope records
        nothing.  Either way the outer stream is left untouched.
        """
        saved = (self.enabled, self.records, self.dropped,
                 self._counts, self._context)
        captured = Captured()
        self.enabled = enabled
        self.records = captured.records
        self.dropped = captured.dropped
        self._counts = {}
        self._context = {}
        try:
            yield captured
        finally:
            (self.enabled, self.records, self.dropped,
             self._counts, self._context) = saved

    def replay(self, captured: "Captured") -> None:
        """Re-emit a :meth:`capture` scope's records under the current
        context, and fold its drop census into this one — so kept plus
        dropped counts do not depend on where the scope ran."""
        if not self.enabled:
            return
        for record in captured.records:
            fields = dict(record)
            self.emit(fields.pop("type"), **fields)
        for rtype, count in captured.dropped.items():
            self.dropped[rtype] = self.dropped.get(rtype, 0) + count

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def records_of(self, rtype: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["type"] == rtype]

    def rounds(self) -> List[int]:
        """Distinct round numbers present, in order."""
        seen: List[int] = []
        for record in self.records:
            value = record.get("round")
            if value is not None and value not in seen:
                seen.append(value)
        return seen

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        """Write the stream atomically — a crash mid-export can never
        leave a truncated (unparseable) JSONL behind."""
        fault("ledger.write")
        lines = [
            json.dumps(record, default=str) for record in self.records
        ]
        atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a ledger stream written by :meth:`Ledger.write_jsonl`."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


#: The process-global ledger all pipeline emission reports to.
GLOBAL = Ledger()


def get() -> Ledger:
    """The process-global :class:`Ledger`."""
    return GLOBAL


def enable() -> None:
    GLOBAL.enable()


def disable() -> None:
    GLOBAL.disable()


def reset() -> None:
    GLOBAL.reset()


def is_enabled() -> bool:
    return GLOBAL.enabled


def emit(rtype: str, **fields) -> None:
    GLOBAL.emit(rtype, **fields)
