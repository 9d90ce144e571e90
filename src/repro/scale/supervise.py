"""Fault-tolerant supervised shard execution.

The sharded engine's unit of failure containment is the shard: a pure,
self-contained payload whose mine is deterministic and repeatable.
This module supervises that unit — it replaces the bare
``multiprocessing.Pool`` the engine used to dispatch on (where one
SIGKILL'd child left its async handle pending forever and any child
exception aborted the whole round) with a tracked-process executor
whose state machine is::

    dispatch ──ok──────────────────────────────▶ completed
       │
       ├─ worker died / soft timeout / raised ─▶ retry (bounded,
       │                                         deterministic backoff)
       └─ retry budget exhausted ──────────────▶ serial fallback
                                                  in the parent
                    ├─ ok ─────────────────────▶ completed (recovered)
                    └─ failed ─────────────────▶ quarantined (dropped;
                                                  ``run.degraded``, or
                                                  ``ShardError`` under
                                                  ``--strict-shards``)

Mechanics:

* **Sentinel watching.**  Each worker is a tracked
  ``multiprocessing.Process`` with a duplex task pipe; the parent
  blocks in ``multiprocessing.connection.wait`` on every worker's
  result pipe *and* process sentinel, so a dead worker (SIGKILL, OOM,
  segfault) is detected in one poll tick and its in-flight shard is
  redelivered to a respawned worker.
* **Bounded retry with deterministic backoff.**  Each shard gets
  ``retries`` redeliveries (``--shard-retries``); the n-th failure
  backs off ``min(0.05 * 2**(n-1), 1.0)`` seconds, capped by the
  governor's remaining budget so a dying run never sleeps through its
  deadline.  Because :func:`~repro.scale.shard.mine_shard` is pure,
  a retried shard returns bit-identical results — the crash/retry
  schedule is invisible in the output (the crashy-vs-clean CI gate).
* **Soft timeout.**  With ``--shard-timeout``, a shard in flight
  longer than the limit has its worker killed and is redelivered —
  the recovery path for a hung (not dead) worker.
* **Adaptive poll.**  The wait loop's poll interval backs off 1 ms →
  50 ms (reset on any progress) so a long mine does not burn a parent
  core, while completions are still picked up within a tick.
* **Chaos directives.**  The fault points ``scale.worker.crash``
  (worker self-kills via ``os.kill(getpid(), SIGKILL)``),
  ``scale.worker.hang`` and ``scale.shard.poison`` are probed in the
  *parent* at dispatch time — workers run disarmed, so hit counting
  stays deterministic — and shipped to the worker as a task directive.
  A poisoned shard is remembered and fails every redelivery *and* the
  serial fallback, which is exactly the path that exercises
  quarantine.

The in-process path (``workers <= 1``) runs the same retry/quarantine
state machine via :func:`mine_serial` (minus crash/hang directives,
which only make sense for a child process).

Progress surface: every redelivery publishes a ``shard.retry`` event
and every quarantine resolution a ``shard.quarantined`` event onto the
``repro.telemetry.events/1`` stream; the caller turns the outcome's
counts into ``scale.shard.retries`` / ``scale.shards.quarantined``
counters (OpenMetrics: ``repro_scale_shard_retries_total`` /
``repro_scale_shards_quarantined_total``) and ``scale.retry`` /
``scale.quarantine`` ledger records.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from multiprocessing import connection as _mpconn
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.report.ledger import GLOBAL as _LEDGER
from repro.resilience import governor as _governor
from repro.resilience.errors import FaultInjected
from repro.resilience.faultinject import disarm_all, fault
from repro.resilience.governor import RunGovernor
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry import progress as _progress
from repro.telemetry import remote as _remote

from repro.scale.cluster import Shard
from repro.scale.shard import ShardPayload, ShardResult, mine_shard

#: Adaptive poll interval bounds for the supervisor wait loop: start at
#: 1 ms, double on idle ticks up to 50 ms, reset on any progress.
POLL_MIN = 0.001
POLL_MAX = 0.05

#: Retry backoff: the n-th failure of a shard waits
#: ``min(BACKOFF_BASE * 2**(n-1), BACKOFF_CAP)`` seconds before
#: redelivery, never more than the governor's remaining budget.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0

#: Grace period for workers to exit on their own during teardown
#: before they are killed.
_SHUTDOWN_GRACE = 2.0

#: Parent-side dispatch probes: fault point -> task directive.
_WORKER_FAULT_DIRECTIVES = (
    ("scale.worker.crash", "crash"),
    ("scale.worker.hang", "hang"),
    ("scale.shard.poison", "poison"),
)

#: The serial path only honours poison — crash/hang directives would
#: take down the parent itself.
_SERIAL_FAULT_DIRECTIVES = (
    ("scale.shard.poison", "poison"),
)


@dataclass
class ShardAttempt:
    """One failed delivery of a shard (feeds ``scale.retry`` records)."""

    shard: int
    attempt: int           #: 1-based delivery number that failed
    error: str
    will_retry: bool       #: False when this failure exhausted the budget


@dataclass
class SuperviseOutcome:
    """Everything one supervised expansion produced and endured."""

    completed: Dict[int, ShardResult] = field(default_factory=dict)
    #: shards torn down before completing (governor stop mid-round)
    lost: List[int] = field(default_factory=list)
    torn_down: bool = False
    stragglers: int = 0
    #: total redeliveries (a shard retried twice counts twice)
    retries: int = 0
    #: distinct shards that needed more than one delivery
    shards_retried: int = 0
    #: exhausted shards recovered by the in-parent serial fallback
    fallbacks: int = 0
    #: every failed delivery, in failure order
    failures: List[ShardAttempt] = field(default_factory=list)
    #: quarantine resolutions: ``{"shard", "attempts", "error",
    #: "recovered"}`` — recovered means the serial fallback saved it
    quarantined: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def dropped(self) -> List[Dict[str, Any]]:
        """Quarantined shards that stayed dropped (fallback failed)."""
        return [q for q in self.quarantined if not q["recovered"]]


def _worker_init(progress_queue=None) -> None:
    """Runs once in every supervised child before it accepts work.

    SIGINT is ignored (teardown is the parent's decision); SIGTERM is
    reset to the default action — the CLI parent runs under the
    governor's graceful SIGTERM handler (set a flag, finish the round),
    a forked child inherits it, and a child that shrugs off SIGTERM
    would hang the supervisor's join.  Inherited instrumentation
    registries and armed fault specs are cleared so a child neither
    double-counts nor fires parent-targeted chaos specs.  When the
    parent runs a progress bus, its queue arrives here and the child's
    publish hooks are routed onto it.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    disarm_all()
    _TELEMETRY.enabled = False
    _LEDGER.enabled = False
    # also drops any bus inherited from the parent through fork
    _progress.worker_attach(progress_queue)


def _mine_captured(payload: ShardPayload, capture_telemetry: bool,
                   capture_ledger: bool) -> ShardResult:
    """Mine one shard with telemetry recorded into an isolated scope,
    whose snapshot rides back on the (transient) ``result.telemetry``
    field for the parent to stitch in — suppressed entirely when
    capture is off.  The ledger is isolated by ``mine_shard`` itself."""
    with _remote.capture(enabled=capture_telemetry) as captured:
        result = mine_shard(payload, capture_ledger)
    result.telemetry = captured.snapshot
    return result


def _mine_shard_job(payload: ShardPayload, budget: Optional[float],
                    capture_telemetry: bool = False,
                    capture_ledger: bool = False) -> ShardResult:
    """Mine one shard under a child-local governor."""
    child_governor = RunGovernor(time_budget=budget)
    with _governor.activate(child_governor):
        return _mine_captured(payload, capture_telemetry, capture_ledger)


def _supervised_worker(conn, progress_queue, capture_telemetry,
                       capture_ledger) -> None:
    """Child main loop: recv task, mine (or obey a chaos directive),
    send back ``(shard, result, error)``.  ``None`` means shut down."""
    _worker_init(progress_queue)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        shard_index, payload, budget, directive = task
        try:
            if directive == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            if directive == "hang":
                while True:                      # until the soft
                    time.sleep(60.0)             # timeout kills us
            if directive == "poison":
                raise FaultInjected(
                    f"injected poison on shard {shard_index}")
            result = _mine_shard_job(payload, budget, capture_telemetry,
                                     capture_ledger)
        except BaseException as exc:  # noqa: B036 - must not die silently
            try:
                conn.send((shard_index, None,
                           f"{type(exc).__name__}: {exc}"))
            except Exception:
                break
            continue
        try:
            conn.send((shard_index, result, None))
        except Exception:
            break
    try:
        conn.close()
    except Exception:
        pass


def _probe_directive(shard_index: int, poisoned: Set[int],
                     points=_WORKER_FAULT_DIRECTIVES) -> Optional[str]:
    """Evaluate the worker chaos points for one dispatch (parent-side,
    so hit counting follows the deterministic dispatch order).  A
    poison hit is sticky: the shard fails every redelivery and the
    serial fallback, which is the quarantine path."""
    if shard_index in poisoned:
        return "poison"
    for point, directive in points:
        try:
            fired = fault(point) is not None
        except FaultInjected:
            fired = True
        if fired:
            if directive == "poison":
                poisoned.add(shard_index)
            return directive
    return None


def _backoff(attempt: int, governor: RunGovernor) -> float:
    """Deterministic, governor-aware redelivery delay in seconds."""
    delay = min(BACKOFF_BASE * (2 ** (attempt - 1)), BACKOFF_CAP)
    remaining = governor.remaining()
    if remaining is not None:
        delay = max(0.0, min(delay, remaining))
    return delay


class _Worker:
    """One tracked child process with its duplex task pipe."""

    def __init__(self, progress_queue, capture_telemetry: bool,
                 capture_ledger: bool):
        parent_conn, child_conn = multiprocessing.Pipe()
        self.conn = parent_conn
        self.process = multiprocessing.Process(
            target=_supervised_worker,
            args=(child_conn, progress_queue, capture_telemetry,
                  capture_ledger),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        #: shard index in flight, or None when idle
        self.shard: Optional[int] = None
        self.dispatched_at = 0.0

    @property
    def sentinel(self):
        return self.process.sentinel

    def kill(self) -> None:
        try:
            self.process.kill()
        except Exception:
            pass
        self.process.join()
        try:
            self.conn.close()
        except Exception:
            pass


def supervise_mine(
    to_mine: List[Tuple[Shard, ShardPayload, str]],
    workers: int,
    governor: RunGovernor,
    bus=None,
    capture_telemetry: bool = False,
    *,
    retries: int,
    timeout: Optional[float] = None,
    capture_ledger: bool = False,
) -> SuperviseOutcome:
    """Expand the missing shards on a supervised worker fleet.

    Dispatch order is largest-first (by payload size) for load
    balance; redeliveries queue behind their backoff.  Neither can
    affect results — only which shards finish before a teardown.
    When a progress *bus* is active its worker queue rides into the
    children, the wait loop drains it, and stale heartbeats are
    flagged as stragglers (counted on the governor so degradation
    notes surface them).
    """
    outcome = SuperviseOutcome()
    order = sorted(
        range(len(to_mine)),
        key=lambda i: (
            -sum(len(insns) for insns in to_mine[i][1].block_insns),
            to_mine[i][0].index,
        ),
    )
    payload_by_shard = {
        shard.index: payload for shard, payload, __ in to_mine
    }
    #: (ready_at, shard) — ready_at gates redelivery backoff
    pending: List[Tuple[float, int]] = [
        (0.0, to_mine[i][0].index) for i in order
    ]
    attempts: Dict[int, int] = {}
    retried: Set[int] = set()
    poisoned: Set[int] = set()
    #: (shard, failed deliveries, last error) awaiting serial fallback
    exhausted: List[Tuple[int, int, str]] = []
    queue = bus.worker_queue() if bus is not None else None
    fleet: List[_Worker] = []
    poll = POLL_MIN

    def fail(shard_index: int, error: str) -> None:
        attempt = attempts[shard_index]
        will_retry = attempt <= retries
        outcome.failures.append(
            ShardAttempt(shard_index, attempt, error, will_retry))
        if will_retry:
            delay = _backoff(attempt, governor)
            pending.append((time.monotonic() + delay, shard_index))
            outcome.retries += 1
            retried.add(shard_index)
            _progress.publish("shard.retry", shard=shard_index,
                              attempt=attempt, error=error,
                              backoff=round(delay, 3))
        else:
            exhausted.append((shard_index, attempt, error))

    def reap(worker: _Worker, error: str) -> None:
        """A dead/hung worker: fail its in-flight shard, drop it."""
        shard_index = worker.shard
        worker.shard = None
        worker.kill()
        fleet.remove(worker)
        if shard_index is not None:
            fail(shard_index, error)

    try:
        while pending or any(w.shard is not None for w in fleet):
            if bus is not None:
                bus.drain()
                for __ in bus.stragglers():
                    outcome.stragglers += 1
                    governor.count("scale.stragglers")
                    _TELEMETRY.count("scale.shards.stalled")
            if governor.should_stop():
                outcome.torn_down = True
                break
            now = time.monotonic()
            progressed = False
            # keep the fleet sized to the remaining work (respawn
            # after deaths; never beyond the requested worker count)
            busy = sum(1 for w in fleet if w.shard is not None)
            target = min(workers, busy + len(pending))
            while len(fleet) < target:
                fleet.append(_Worker(queue, capture_telemetry,
                                     capture_ledger))
            # dispatch every backoff-ready shard onto an idle worker
            for worker in fleet:
                if worker.shard is not None:
                    continue
                slot = next(
                    (i for i, (at, __) in enumerate(pending)
                     if at <= now),
                    None,
                )
                if slot is None:
                    break
                __, shard_index = pending.pop(slot)
                attempts[shard_index] = attempts.get(shard_index, 0) + 1
                directive = _probe_directive(shard_index, poisoned)
                worker.shard = shard_index
                worker.dispatched_at = now
                progressed = True
                try:
                    worker.conn.send((
                        shard_index,
                        payload_by_shard[shard_index],
                        governor.remaining(),
                        directive,
                    ))
                except (OSError, ValueError):
                    reap(worker,
                         f"worker pid {worker.process.pid} was gone "
                         f"at dispatch")
            # wait on every result pipe and every process sentinel:
            # a completion *or* a death wakes the parent in one tick
            waitables: List[Any] = [w.sentinel for w in fleet]
            waitables += [w.conn for w in fleet if w.shard is not None]
            wait_for = poll
            next_ready = min((at for at, __ in pending), default=None)
            if next_ready is not None:
                wait_for = min(wait_for, max(0.0, next_ready - now))
            ready = (set(_mpconn.wait(waitables, timeout=wait_for))
                     if waitables else set())
            for worker in list(fleet):
                if worker.shard is None or worker.conn not in ready:
                    continue
                try:
                    shard_index, result, error = worker.conn.recv()
                except (EOFError, OSError):
                    reap(worker,
                         f"worker pid {worker.process.pid} died "
                         f"mid-shard (exitcode "
                         f"{worker.process.exitcode})")
                    progressed = True
                    continue
                worker.shard = None
                progressed = True
                if error is None:
                    outcome.completed[shard_index] = result
                else:
                    fail(shard_index, error)
            for worker in list(fleet):
                if (worker.sentinel in ready
                        and not worker.process.is_alive()):
                    reap(worker,
                         f"worker pid {worker.process.pid} died "
                         f"(exitcode {worker.process.exitcode})")
                    progressed = True
            if timeout is not None:
                now = time.monotonic()
                for worker in list(fleet):
                    if (worker.shard is not None
                            and now - worker.dispatched_at > timeout):
                        reap(worker,
                             f"shard {worker.shard} exceeded the "
                             f"{timeout:g}s soft timeout")
                        progressed = True
            # adaptive spin: 1 ms after progress, doubling to the
            # 50 ms cap while nothing moves
            poll = POLL_MIN if progressed else min(poll * 2, POLL_MAX)
        if outcome.torn_down:
            lost = {shard for __, shard in pending}
            lost |= {w.shard for w in fleet if w.shard is not None}
            lost |= {shard for shard, __, ___ in exhausted}
            outcome.lost = sorted(lost)
            exhausted = []
    except BaseException:
        outcome.torn_down = True
        raise
    finally:
        for worker in fleet:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in fleet:
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            try:
                worker.conn.close()
            except Exception:
                pass
        if bus is not None:
            # events the children flushed before exiting
            bus.drain()
    # serial fallback: re-mine every exhausted shard in the parent, in
    # deterministic shard order; what still fails is quarantined
    for shard_index, failed, error in sorted(exhausted):
        if governor.should_stop():
            outcome.torn_down = True
            outcome.lost.append(shard_index)
            continue
        record = {"shard": shard_index, "attempts": failed + 1,
                  "error": error, "recovered": False}
        try:
            if shard_index in poisoned:
                raise FaultInjected(
                    f"injected poison on shard {shard_index}")
            result = _mine_captured(payload_by_shard[shard_index],
                                    capture_telemetry, capture_ledger)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: B036 - quarantine, not crash
            record["error"] = f"{type(exc).__name__}: {exc}"
            outcome.quarantined.append(record)
            _progress.publish("shard.quarantined", shard=shard_index,
                              attempts=record["attempts"],
                              recovered=False, error=record["error"])
            continue
        record["recovered"] = True
        outcome.completed[shard_index] = result
        outcome.fallbacks += 1
        outcome.quarantined.append(record)
        _progress.publish("shard.quarantined", shard=shard_index,
                          attempts=record["attempts"], recovered=True)
    outcome.shards_retried = len(retried)
    return outcome


def mine_serial(
    to_mine: List[Tuple[Shard, ShardPayload, str]],
    governor: RunGovernor,
    bus=None,
    capture_telemetry: bool = False,
    *,
    retries: int,
    capture_ledger: bool = False,
) -> SuperviseOutcome:
    """The ``workers <= 1`` path: same retry/quarantine state machine,
    in-process (no crash/hang directives — there is no child to kill;
    a quarantined shard is dropped directly, the parent *is* the
    serial fallback)."""
    outcome = SuperviseOutcome()
    poisoned: Set[int] = set()
    retried: Set[int] = set()
    for shard, payload, __ in to_mine:
        if governor.should_stop():
            outcome.torn_down = True
            outcome.lost.append(shard.index)
            continue
        attempt = 0
        while True:
            attempt += 1
            error: Optional[str] = None
            try:
                if _probe_directive(shard.index, poisoned,
                                    _SERIAL_FAULT_DIRECTIVES) is not None:
                    raise FaultInjected(
                        f"injected poison on shard {shard.index}")
                result = _mine_captured(payload, capture_telemetry,
                                        capture_ledger)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: B036 - retry, not crash
                error = f"{type(exc).__name__}: {exc}"
            if error is None:
                outcome.completed[shard.index] = result
                break
            will_retry = attempt <= retries
            outcome.failures.append(
                ShardAttempt(shard.index, attempt, error, will_retry))
            if will_retry:
                outcome.retries += 1
                retried.add(shard.index)
                _progress.publish("shard.retry", shard=shard.index,
                                  attempt=attempt, error=error,
                                  backoff=0.0)
                continue
            outcome.quarantined.append({
                "shard": shard.index, "attempts": attempt,
                "error": error, "recovered": False,
            })
            _progress.publish("shard.quarantined", shard=shard.index,
                              attempts=attempt, recovered=False,
                              error=error)
            break
        if bus is not None:
            for __beat in bus.stragglers():
                outcome.stragglers += 1
                governor.count("scale.stragglers")
                _TELEMETRY.count("scale.shards.stalled")
    outcome.shards_retried = len(retried)
    return outcome


__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "POLL_MAX",
    "POLL_MIN",
    "ShardAttempt",
    "SuperviseOutcome",
    "mine_serial",
    "supervise_mine",
]
