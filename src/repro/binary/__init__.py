"""Post link-time binary rewriting framework (paper §2.1 steps 1-5).

The framework is deliberately structured exactly like the paper's:

1. :mod:`.loader` decompiles a statically linked word image back into an
   instruction sequence (using :mod:`repro.isa.decoder`).
2. :mod:`.functions` splits the sequence into functions.
3. + 4. the loader marks all jump and call targets with labels and
   rewrites pc-relative loads into address-independent ``ldr =label``
   pseudo instructions, so the program no longer depends on concrete
   addresses.
5. :mod:`.blocks` splits the code into basic blocks; literal pools
   (interwoven data) are detected by :mod:`.pools` and excluded from
   abstraction.

:mod:`.layout` is the inverse: it re-assigns addresses, re-materializes
literal pools and re-encodes everything into a runnable image — the step
that makes procedural abstraction a *binary to binary* transformation.
"""

from repro.binary.image import Image
from repro.binary.program import BasicBlock, Function, Module
from repro.binary.layout import LayoutError, layout
from repro.binary.loader import load_image
from repro.binary.blocks import module_from_asm

__all__ = [
    "Image",
    "BasicBlock",
    "Function",
    "Module",
    "layout",
    "LayoutError",
    "load_image",
    "module_from_asm",
]
