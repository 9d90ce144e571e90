"""The benchmark proper: set-up, the closed loop of timed passes, the
checks and the report.  ``run.py`` is the entry point; this module
assumes the program's ``src`` directory is importable.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import layers
import pipeline
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-ups per run: at least SETUP_REPEATS, and more until
#: SETUP_SECONDS have gone by, so a cheap set-up still yields a steady
#: median.  ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: Seconds of the calibration loop (``calibrate.py``) on the unloaded
#: host: reported times are seconds of a host running at that speed.
REFERENCE_S = 0.1
#: Fewest timed passes per run, traced and untraced together, even
#: when one pass outlasts ``--seconds``.
MIN_PASSES = 3
#: Layers called once per run by the checks, outside the timed passes.
CHECK_LAYERS = ("pa.sfx.run_sfx", "sim.run_image")


class Normaliser:
    """Scales wall times to the reference host's speed.

    Each call times the calibration loop once more (in the child
    process of ``calibrate.py``) and scales its argument by
    ``REFERENCE_S`` over the mean of that timing and the previous one,
    the two that bracket the unit just timed.  Use as a context
    manager: leaving it ends the child and waits for it.
    """

    def __init__(self) -> None:
        self.child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        #: every timing of the loop, in order
        self.samples: List[float] = []
        try:
            self.last = self._loop_seconds()
        except BaseException:
            self.child.kill()
            self.child.wait()
            raise

    def _loop_seconds(self) -> float:
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        self.samples.append(float(self.child.stdout.readline()))
        return self.samples[-1]

    def __call__(self, seconds: float) -> float:
        now = self._loop_seconds()
        scaled = seconds * REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return scaled

    def __enter__(self) -> "Normaliser":
        return self

    def __exit__(self, *exc) -> None:
        self.child.stdin.close()
        try:
            self.child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()


@dataclass
class Passes:
    """The timed passes of one run."""

    #: pass seconds scaled by the Normaliser, and as measured
    untraced: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    raw_untraced: List[float] = field(default_factory=list)
    raw_traced: List[float] = field(default_factory=list)
    #: the outcomes every pass must reproduce
    reference: Optional[list] = None
    #: the outcomes of every pass, in order
    outcomes: List[list] = field(default_factory=list)


class Tally:
    """Attempted optimisations and the reasons any of them failed.

    An optimisation is keyed by ``(pass index, program slot)``, or
    ``("fill", slot)`` for a warm workload's cache fill; it fails once
    however many of its checks fail.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set = set()
        self.reasons: List[str] = []

    def fail(self, key, reason: str) -> None:
        self.failed.add(key)
        self.reasons.append(reason)


def host_fingerprint() -> Dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": model}


def run_pass(workload, prepared, work_dir: str, index: int, tally: Tally,
             reference: Optional[list], normalise: Normaliser
             ) -> Tuple[float, float, list]:
    """One timed pass over every program.

    Returns (seconds, normalised seconds, outcomes).  Only the
    optimisations themselves are timed: creating and removing a cold
    pass's cache directories is not.  Each optimisation is normalised
    on its own, so the calibrations bracket it as closely as they can.
    Each outcome is checked against *reference* (the first pass, or a
    warm workload's cache fill), so savings and bytes gate exactly.
    """
    gc.collect()
    seconds = scaled = 0.0
    outcomes = []
    for slot, program in enumerate(prepared.programs):
        cache_dir = prepared.cache_dir or os.path.join(
            work_dir, f"cold-{index}-{slot}")
        config = pipeline.pa_config(workload.max_nodes, cache_dir)
        tally.attempted += 1
        started = time.perf_counter()
        try:
            outcome = pipeline.optimise(program, config)
        except Exception as exc:  # a failed optimisation, not a crash
            tally.fail((index, slot),
                       f"{program.name}: {type(exc).__name__}: {exc}")
            outcomes.append(None)
            continue
        finally:
            took = time.perf_counter() - started
            seconds += took
            scaled += normalise(took)
            if prepared.cache_dir is None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        outcomes.append(outcome)
        for problem in outcome.problems:
            tally.fail((index, slot), f"{program.name}: {problem}")
        expected = reference[slot] if reference else None
        if expected is not None and (outcome.digest, outcome.saved) != (
                expected.digest, expected.saved):
            tally.fail((index, slot),
                       f"{program.name}: pass {index} is not bit-identical "
                       f"to the reference optimisation")
    return seconds, scaled, outcomes


def setup(workload, seed: int, work_dir: str, tally: Tally,
          normalise: Normaliser):
    """Set up repeatedly; return (median normalised seconds, last result).

    One calibration brackets all the repeats, which can be very short.
    Every repeat must build the same images and, when warm, fill the
    cache with the same outcomes.
    """
    raw: List[float] = []
    prepared = None
    repeat = 0
    while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_SECONDS:
        repeat_dir = os.path.join(work_dir, f"setup-{repeat}")
        os.makedirs(repeat_dir)
        gc.collect()
        started = time.perf_counter()
        current = workloads.prepare(workload, seed, repeat_dir)
        raw.append(time.perf_counter() - started)
        if prepared is not None:
            if [p.image.to_bytes() for p in current.programs] != [
                    p.image.to_bytes() for p in prepared.programs]:
                tally.fail(("fill", 0),
                           "set-up built different images on a repeat")
            if [(o.digest, o.saved) for o in current.fill] != [
                    (o.digest, o.saved) for o in prepared.fill]:
                tally.fail(("fill", 0),
                           "cache fill differs between set-up repeats")
            shutil.rmtree(os.path.join(work_dir, f"setup-{repeat - 1}"))
        prepared = current
        repeat += 1
    for slot, outcome in enumerate(prepared.fill):
        tally.attempted += 1
        for problem in outcome.problems:
            tally.fail(("fill", slot),
                       f"{outcome.program} (cache fill): {problem}")
    return normalise(statistics.median(raw)), prepared


def measure(workload, prepared, work_dir: str, seconds: float,
            tally: Tally, normalise: Normaliser, tracer=None) -> Passes:
    """Closed loop of passes for *seconds*.

    With a *tracer*, untraced and traced passes alternate and the
    tracer sees only the traced ones.
    """
    passes = Passes(reference=prepared.fill or None)
    started = time.perf_counter()
    while True:
        took, scaled, outcomes = run_pass(
            workload, prepared, work_dir, len(passes.outcomes), tally,
            passes.reference, normalise)
        passes.raw_untraced.append(took)
        passes.untraced.append(scaled)
        passes.outcomes.append(outcomes)
        if passes.reference is None and all(outcomes):
            passes.reference = outcomes
        if tracer is not None:
            with layers.installed(tracer):
                took, scaled, outcomes = run_pass(
                    workload, prepared, work_dir, len(passes.outcomes),
                    tally, passes.reference, normalise)
            passes.raw_traced.append(took)
            passes.traced.append(scaled)
            passes.outcomes.append(outcomes)
        if (time.perf_counter() - started >= seconds
                and len(passes.outcomes) >= MIN_PASSES):
            return passes


def check_outputs(prepared, passes: Passes, tally: Tally,
                  max_nodes: int) -> Tuple[int, int, int]:
    """Simulate each program's optimised image and run the SFX
    baseline; returns (original steps, optimised steps, SFX savings).

    Every pass produced the same bytes (run_pass gates that), so one
    simulation per program checks them all; a mismatch fails every
    optimisation of that program.
    """
    original_steps = optimised_steps = sfx = 0
    for slot, program in enumerate(prepared.programs):
        sfx += pipeline.sfx_saved(program, max_nodes)
        if passes.reference is None:
            continue
        mismatch, steps = pipeline.check(program,
                                         passes.reference[slot].blob)
        if mismatch is not None:
            for index in range(len(passes.outcomes)):
                tally.fail((index, slot), mismatch)
            if prepared.fill:
                tally.fail(("fill", slot), mismatch)
        original_steps += program.reference_steps
        optimised_steps += steps
    return original_steps, optimised_steps, sfx


def metric(value, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, checks, pass_outcomes, untraced: List[float],
                  traced: List[float],
                  sim_steps: int) -> Dict[str, Dict[str, object]]:
    """The per-layer metrics of a traced run.

    Optimisation layers are per traced pass, the check layers per run;
    work counts come from *pass_outcomes*, one pass's outcomes.
    """
    metrics: Dict[str, Dict[str, object]] = {}
    for layer in dict.fromkeys(site[0] for site in layers.PATCH_SITES):
        source = checks if layer in CHECK_LAYERS else tracer
        stat = source.stat(layer)
        per = 1 if layer in CHECK_LAYERS else len(traced)
        metrics[f"{layer}.calls"] = metric(stat.calls / per, "calls")
        metrics[f"{layer}.s"] = metric(stat.seconds / per, "s")
        metrics[f"{layer}.self_s"] = metric(stat.self_seconds / per, "s")
    hits = sum(o.cache_hits for o in pass_outcomes)
    misses = sum(o.cache_misses for o in pass_outcomes)
    legal = tracer.stat("pa.legality.legal_embeddings")
    metrics["mining.lattice_nodes"] = metric(
        sum(o.lattice_nodes for o in pass_outcomes), "count")
    metrics["scale.cache.hits"] = metric(hits, "count")
    metrics["scale.cache.misses"] = metric(misses, "count")
    metrics["scale.cache.hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["pa.legality.accept_ratio"] = metric(
        legal.nonempty / legal.calls if legal.calls else 0.0, "ratio")
    metrics["pa.driver.rounds"] = metric(
        sum(o.rounds for o in pass_outcomes), "count")
    metrics["sim.steps"] = metric(sim_steps, "count")
    base = statistics.median(untraced)
    metrics["trace.overhead_frac"] = metric(
        (statistics.median(traced) - base) / base, "ratio")
    return metrics


def group_shares(tracer, traced_total: float) -> Dict[str, float]:
    """Share of traced optimisation time per layer group (self times)."""
    return {group: sum(tracer.stat(layer).self_seconds for layer in members)
            / traced_total
            for group, members in layers.GROUPS.items()}


def print_table(title: str, metrics: Dict[str, Dict[str, object]]) -> None:
    print(title)
    for name, entry in metrics.items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<44} {shown:>14} {entry['unit']}")


def run(workload: workloads.Workload, seed: int, seconds: float,
        trace: bool, root: str) -> int:
    """Run *workload* and print its report; returns the exit code.

    Scratch files (cold cache directories, the warm cache) live under
    ``.perfbench_work`` in *root* and are removed before returning.
    """
    work_dir = os.path.join(root, ".perfbench_work",
                            f"{workload.name}-{os.getpid()}")
    os.makedirs(work_dir)
    tally = Tally()
    try:
        with Normaliser() as normalise:
            setup_s, prepared = setup(workload, seed, work_dir, tally,
                                      normalise)
            tracer = layers.Tracer() if trace else None
            passes = measure(workload, prepared, work_dir, seconds, tally,
                             normalise, tracer)
        checks = layers.Tracer()
        check_sites = tuple(site for site in layers.PATCH_SITES
                            if site[0] in CHECK_LAYERS)
        with layers.installed(checks, check_sites):
            original_steps, optimised_steps, sfx = check_outputs(
                prepared, passes, tally, workload.max_nodes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = passes.reference or []
    saved = sum(o.saved for o in reference)
    record = {
        "workload": workload.name,
        "seed": seed,
        "programs": [
            {"name": o.program, "instructions": o.instructions,
             "saved": o.saved, "rounds": o.rounds,
             "sha256": o.digest} for o in reference],
        "pass_s": {"untraced": passes.raw_untraced,
                   "traced": passes.raw_traced},
        "normalised_pass_s": {"untraced": passes.untraced,
                              "traced": passes.traced},
        "calibration_s": normalise.samples,
    }
    if trace:
        # work counts repeat exactly pass to pass; take the last
        # (traced) pass's
        outcomes = [o for o in passes.outcomes[-1] if o is not None]
        metrics = layer_metrics(tracer, checks, outcomes, passes.untraced,
                                passes.traced, optimised_steps)
        print_table(f"per-layer, per traced pass ({workload.name}, "
                    f"{len(passes.traced)} traced / {len(passes.untraced)} "
                    f"untraced passes)", metrics)
        shares = group_shares(tracer, sum(passes.raw_traced))
        print("self-time share of traced optimize_s:")
        for group, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {group:<16} {share:7.1%}")
        record["shares"] = {k: round(v, 4) for k, v in shares.items()}
    else:
        metrics = {
            "optimize_s": metric(statistics.median(passes.untraced), "s"),
            "saved_insns": metric(saved, "insns"),
            "edgar_over_sfx": metric(saved / sfx if sfx else 0.0, "ratio"),
            "dyn_insns_ratio": metric(
                optimised_steps / original_steps if original_steps else 0.0,
                "ratio"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(setup_s, "s"),
        }
        print_table(f"end-to-end ({workload.name}, {len(passes.untraced)} "
                    f"passes, medians, seconds at reference speed)", metrics)
        print(f"  {'optimize_s as measured (median pass)':<44} "
              f"{statistics.median(passes.raw_untraced):>14.6g} s")
    fail_frac = len(tally.failed) / tally.attempted
    print(f"  {'fail_frac':<44} {fail_frac:>14.6g} ratio "
          f"({len(tally.failed)} of {tally.attempted} optimisations)")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    print("# host: " + json.dumps(host_fingerprint(), sort_keys=True))
    print("# record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": metrics,
    }))
    return 1 if tally.failed else 0
