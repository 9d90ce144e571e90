"""Module-wide link-register liveness.

Call outlining inserts a ``bl``, which clobbers ``lr``.  Readers of
``lr`` *inside* the rewritten block are ordered before the call site by
the extraction machinery — but ``lr`` can also be live *across* blocks:
leaf-style functions keep their return address in ``lr`` until a final
``mov pc, lr``, and cross-jumping can move that reader into a shared
tail in a different function.  A per-block check is therefore unsound
(this exact scenario produced a miscompile on rijndael: outlining two
instructions from an earlier-outlined procedure whose ``mov pc, lr``
had been tail-merged away).

Historically this module carried its own single-register fixpoint; it is
now a thin wrapper over the generic framework in :mod:`repro.verify` —
the module-wide CFG (:func:`repro.verify.cfg.build_module_cfg`, which
keeps the crucial property that branch labels resolve across function
boundaries) and the full per-register liveness pass
(:mod:`repro.verify.passes`).  The legality gate and the translation
validator therefore consume the same analysis, from opposite sides: one
to block unsound rewrites, the other to prove the applied ones sound.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.isa.registers import LR

from repro.binary.program import Module
from repro.verify.passes import live_out_blocks

BlockKey = Tuple[str, int]


def lr_live_out_blocks(module: Module) -> Set[BlockKey]:
    """Blocks whose ``lr`` value is consumed on some path after them."""
    return live_out_blocks(module, LR)
