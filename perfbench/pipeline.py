"""The measured pipeline: one post-link-time optimisation of an image,
and the checks and baselines around it.

The optimisation is ``load_image`` -> ``run_pa`` -> ``layout`` ->
bytes.  Every call into the program goes through a name bound in this
module, so the traced run can wrap it here (see :mod:`layers`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.binary.image import Image
from repro.binary.layout import layout
from repro.binary.loader import load_image
from repro.pa.driver import PAConfig, PAResult, run_pa
from repro.pa.sfx import SFXConfig, run_sfx
from repro.sim.machine import run_image

#: Simulator step cap for every check run; generated programs are
#: budgeted well inside it (see repro.variance.genprog).
MAX_STEPS = 50_000_000


@dataclass(frozen=True)
class Program:
    """One input of a workload: a linked image and its reference."""

    name: str
    image: Image
    #: reference behaviour: the Python oracle's output for a bundled
    #: program, the unoptimised image's own output for a generated one
    expected_output: str
    expected_exit: int
    #: executed instructions of the unoptimised image
    reference_steps: int


@dataclass(frozen=True)
class Optimised:
    """The outcome of one optimisation of one program."""

    program: str
    blob: bytes
    #: static instructions before optimisation
    instructions: int
    saved: int
    rounds: int
    lattice_nodes: int
    cache_hits: int
    cache_misses: int
    #: why the run is not a clean fixpoint; empty when it is
    problems: List[str]

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.blob).hexdigest()


def pa_config(max_nodes: int, cache_dir: str) -> PAConfig:
    """Edgar on the in-process sharded engine with a persistent cache."""
    return PAConfig(miner="edgar", max_nodes=max_nodes, workers=1,
                    fragment_cache=cache_dir)


def optimise(program: Program, config: PAConfig) -> Optimised:
    """The timed unit: load -> PA to fixpoint -> layout -> bytes."""
    module = load_image(program.image)
    result = run_pa(module, config)
    blob = layout(module).to_bytes()
    return Optimised(
        program=program.name,
        blob=blob,
        instructions=result.instructions_before,
        saved=result.saved,
        rounds=result.rounds,
        lattice_nodes=result.lattice_nodes,
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        problems=_problems(result),
    )


def _problems(result: PAResult) -> List[str]:
    problems = []
    if result.deadline_hits:
        problems.append(f"{result.deadline_hits} deadline hit(s)")
    if result.shards_quarantined:
        problems.append(f"{result.shards_quarantined} quarantined shard(s)")
    if result.degraded:
        problems.append("degraded: " + ", ".join(result.degraded_reasons))
    return problems


def simulate(image: Image):
    """Run *image* in the simulator under the benchmark's step cap."""
    return run_image(image, max_steps=MAX_STEPS)


def check(program: Program, blob: bytes) -> Tuple[Optional[str], int]:
    """Simulate an optimised image against the program's reference.

    Returns ``(mismatch, executed instructions)``; the mismatch is
    ``None`` when output and exit code both match.
    """
    run = simulate(Image.from_bytes(blob))
    if run.output_text != program.expected_output:
        return f"{program.name}: output differs from the reference", run.steps
    if run.exit_code != program.expected_exit:
        return (f"{program.name}: exit {run.exit_code} != "
                f"{program.expected_exit}"), run.steps
    return None, run.steps


def sfx_saved(program: Program, max_len: int) -> int:
    """Savings of the suffix-trie baseline (the paper's SFX) on the
    same image, with the same fragment size cap."""
    return run_sfx(load_image(program.image), SFXConfig(max_len=max_len)).saved
