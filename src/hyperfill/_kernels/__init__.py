"""Kernel backend selection.

The compiled extension is preferred when it imports cleanly; the NumPy
reference lane is used otherwise, or when ``HYPERFILL_PURE=1`` is set in the
environment.  Both lanes are bit-compatible; ``BACKEND`` records which one
is active.
"""

import os

from . import pure

if os.environ.get("HYPERFILL_PURE", "") == "1":
    _impl = pure
else:
    try:
        from . import _speedups as _impl
    except ImportError:
        _impl = pure

BACKEND = _impl.BACKEND
# The builders drive the greedy scan with the space's kd-tree ball query
# (``ball=``), which only the NumPy lane takes; the compiled pairwise scan
# is kept for the lane-parity test.
greedy_separated_subset = pure.greedy_separated_subset
# No library code calls pdhg_sweep; it stays exported because the
# benchmark tracer in perfbench/spans.py binds it by name.
pdhg_sweep = _impl.pdhg_sweep
pair_max_lift = _impl.pair_max_lift

__all__ = ["BACKEND", "greedy_separated_subset", "pdhg_sweep", "pair_max_lift"]
