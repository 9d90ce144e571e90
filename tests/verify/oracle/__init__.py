"""The abstract interpreter as it was before the constant lattice.

``absint.py`` and ``domains.py`` are verbatim copies of
``repro.verify.absint`` / ``repro.verify.domains`` with the
interval-hull value domain and the two-solve summary loop; the only
edit is that ``absint`` imports the copied ``domains``.  They are the
reference the differential test (``tests/verify/test_absint_oracle.py``)
compares the production interpreter against, and they pin the hull
behaviour the production domain no longer has.  Never import them
from ``src/``.
"""
