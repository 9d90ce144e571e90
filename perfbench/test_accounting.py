"""Tests of the benchmark's own accounting.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import bench  # noqa: E402
import layers  # noqa: E402
import pipeline  # noqa: E402
from repro.minicc.driver import compile_to_image  # noqa: E402
from repro.workloads.suite import PROGRAMS  # noqa: E402


def _fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


def test_self_time_is_inclusive_minus_children():
    now, clock = _fake_clock()
    tracer = layers.Tracer(clock=clock)

    def inner():
        now[0] += 2.0

    inner = tracer.wrap("inner", inner)

    def outer():
        now[0] += 1.0
        inner()
        now[0] += 3.0
        inner()

    outer = tracer.wrap("outer", outer)
    outer()
    out, inn = tracer.stat("outer"), tracer.stat("inner")
    assert (out.calls, out.seconds, out.self_seconds) == (1, 8.0, 4.0)
    assert (inn.calls, inn.seconds, inn.self_seconds) == (2, 4.0, 4.0)
    assert out.self_seconds == out.seconds - inn.seconds


def test_recursion_counts_inclusive_time_once():
    now, clock = _fake_clock()
    tracer = layers.Tracer(clock=clock)

    def countdown(n):
        now[0] += 1.0
        if n:
            countdown(n - 1)

    countdown = tracer.wrap("countdown", countdown)
    countdown(2)
    stat = tracer.stat("countdown")
    assert (stat.calls, stat.seconds, stat.self_seconds) == (3, 3.0, 3.0)


def test_wrapper_times_a_raising_call_and_reraises():
    now, clock = _fake_clock()
    tracer = layers.Tracer(clock=clock)

    def boom():
        now[0] += 5.0
        raise ValueError("boom")

    boom = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        boom()
    stat = tracer.stat("boom")
    assert (stat.calls, stat.seconds) == (1, 5.0)
    assert tracer._stack == []


def _originals():
    found = []
    for __, module, attribute in layers.PATCH_SITES:
        owner, name = layers._resolve(module, attribute)
        found.append(owner.__dict__[name])
    return found


def test_installed_wraps_every_site_and_restores_originals():
    before = _originals()
    with layers.installed(layers.Tracer()):
        during = _originals()
        assert all(getattr(fn, "__wrapped_layer__", None) for fn in during)
    assert all(a is b for a, b in zip(_originals(), before))


def test_installed_restores_originals_when_the_body_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with layers.installed(layers.Tracer()):
            raise RuntimeError("inside a traced pass")
    assert all(a is b for a, b in zip(_originals(), before))


def _crc_program() -> pipeline.Program:
    image = compile_to_image(PROGRAMS["crc"].source)
    run = pipeline.simulate(image)
    return pipeline.Program(name="crc", image=image,
                            expected_output=run.output_text,
                            expected_exit=run.exit_code,
                            reference_steps=run.steps)


def test_traced_run_yields_byte_identical_images(tmp_path):
    program = _crc_program()
    plain = pipeline.optimise(
        program, pipeline.pa_config(8, str(tmp_path / "plain")))
    tracer = layers.Tracer()
    with layers.installed(tracer):
        traced = pipeline.optimise(
            program, pipeline.pa_config(8, str(tmp_path / "traced")))
    assert traced.blob == plain.blob
    assert traced.saved == plain.saved > 0
    # every layer on a cold optimisation's path saw its calls
    for layer in ("pa.driver", "binary.load_image", "binary.layout",
                  "pa.legality.sp_fragile_functions",
                  "verify.absint.module_summaries", "scale.mine_shard",
                  "mining.is_min", "mining.between_nodes",
                  "pa.legality.legal_embeddings", "scale.cache.put",
                  "pa.driver.apply_batch", "dfg.build_dfgs"):
        assert tracer.stat(layer).calls > 0, layer
    mismatch, __ = pipeline.check(program, traced.blob)
    assert mismatch is None


def test_normaliser_scales_by_the_bracketing_calibrations_and_ends_its_child():
    with bench.Normaliser() as normalise:
        scaled = normalise(2.0)
        before, after = normalise.samples
        assert scaled == 2.0 * bench.REFERENCE_S / ((before + after) / 2)
    assert normalise.child.returncode == 0
