"""The Edgar hot path as it was before the closure bitmasks.

``dfs_code.py`` and ``pruning.py`` are verbatim copies of
``repro.mining.dfs_code`` / ``repro.mining.pruning`` with the
recomputing canonical test (``is_min`` re-deriving the used edges and
the rightmost path at every step), the ``cmp_to_key`` edge sort key
and the index-windowed reachability walks behind ``between_nodes``.
They are the reference the differential test
(``tests/mining/test_hotpath_oracle.py``) compares the production
miner against.  Never import them from ``src/``.
"""
