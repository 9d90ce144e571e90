"""The benchmark's workloads and their set-up.

Each workload is a list of source programs, an Edgar fragment-size
cap and a cache temperature.  Set-up compiles the sources to linked
images, simulates each image once for its reference behaviour and, for
a warm workload, fills the persistent fragment cache by optimising
every image once.  Why each workload exists is recorded next to it in
``BENCHMARK.json``; the longer rationale is in ``README.md`` here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.minicc.driver import compile_to_image
from repro.variance.genprog import generate_source, sized_config
from repro.workloads.suite import PROGRAMS

import pipeline

#: (name, mini-C source, Python oracle or None); without an oracle the
#: unoptimised image's own behaviour is the reference
Source = Tuple[str, str, Optional[Callable[[], str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: the sources, given the benchmark's seed
    sources: Callable[[int], List[Source]]
    #: Edgar's largest mined fragment (and SFX's longest sequence)
    max_nodes: int
    #: True: every timed optimisation reads the cache set-up filled;
    #: False: every timed optimisation starts from an empty cache
    warm: bool


def _bundled(*names: str) -> Callable[[int], List[Source]]:
    def sources(seed: int) -> List[Source]:
        return [(name, PROGRAMS[name].source, PROGRAMS[name].expected_output)
                for name in names]
    return sources


#: Generated programs of ``gen-shallow`` (``variance.genprog`` seeds).
#: A fixed set, so savings and image digests repeat exactly on every
#: benchmark seed; the benchmark seed rotates the order they run in.
GEN_SEEDS = (1, 2)
#: Requested static size of each generated program, in instructions.
GEN_SIZE = 350


def generated(gen_seeds: Tuple[int, ...], seed: int) -> List[Source]:
    """Generated programs *gen_seeds*, rotated by the benchmark *seed*."""
    shift = seed % len(gen_seeds)
    order = gen_seeds[shift:] + gen_seeds[:shift]
    return [(f"gen{s}", generate_source(sized_config(s, GEN_SIZE)), None)
            for s in order]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("sha-cold", _bundled("sha"), max_nodes=5, warm=False),
        Workload("gen-shallow", lambda seed: generated(GEN_SEEDS, seed),
                 max_nodes=5, warm=False),
        Workload("small-warm", _bundled("crc", "search"),
                 max_nodes=8, warm=True),
    )
}


@dataclass
class Prepared:
    """What set-up leaves for the timed passes."""

    programs: List[pipeline.Program]
    #: the filled cache directory of a warm workload, else None
    cache_dir: Optional[str]
    #: the cache fill's outcomes (warm only): the timed passes must
    #: reproduce them exactly
    fill: List[pipeline.Optimised]


class SetupError(RuntimeError):
    """An input program misbehaves before any optimisation."""


def prepare(workload: Workload, seed: int, work_dir: str) -> Prepared:
    """Compile, take reference runs and, when warm, fill the cache."""
    programs = []
    for name, source, oracle in workload.sources(seed):
        image = compile_to_image(source)
        run = pipeline.simulate(image)
        if oracle is not None and run.output_text != oracle():
            raise SetupError(f"{name}: unoptimised image disagrees with "
                             f"its Python oracle")
        expected_exit = (PROGRAMS[name].expected_exit if oracle is not None
                         else run.exit_code)
        if run.exit_code != expected_exit:
            raise SetupError(f"{name}: unoptimised image exits "
                             f"{run.exit_code}, expected {expected_exit}")
        programs.append(pipeline.Program(
            name=name, image=image, expected_output=run.output_text,
            expected_exit=expected_exit, reference_steps=run.steps))
    if not workload.warm:
        return Prepared(programs, None, [])
    cache_dir = os.path.join(work_dir, "warm-cache")
    config = pipeline.pa_config(workload.max_nodes, cache_dir)
    fill = [pipeline.optimise(program, config) for program in programs]
    return Prepared(programs, cache_dir, fill)
