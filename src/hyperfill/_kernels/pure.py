"""NumPy reference implementations of the hot kernels.

The compiled extension in ``_speedups.pyx`` mirrors these signatures exactly;
either lane must produce bit-identical outputs.  Keep the two in sync.
"""

from __future__ import annotations

import numpy as np

BACKEND = "pure"


def greedy_separated_subset(coords, candidates, sep, sup_metric):
    """Greedy maximal `sep`-separated subset of the candidate points.

    Candidates are scanned in the order given (ascending index by
    convention); a candidate is kept when it lies at distance >= sep from
    every point kept so far.  Returns the kept indices in scan order.
    """
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.int64)
    chosen = []
    kept = np.empty((len(candidates), coords.shape[1]), dtype=np.float64)
    count = 0
    for idx in candidates:
        p = coords[idx]
        if count:
            diff = np.abs(kept[:count] - p)
            if sup_metric:
                dist = diff.max(axis=1)
            else:
                dist = np.sqrt((diff * diff).sum(axis=1))
            if dist.min() < sep:
                continue
        kept[count] = p
        count += 1
        chosen.append(idx)
    return np.asarray(chosen, dtype=np.int64)


def pdhg_sweep(y, gap_ii, gap_jj, m, gbar, sigma, rowsum):
    """One dual update of a primal-dual loop over pair constraints.

    No library code calls it; it is kept, with its compiled twin, because
    ``perfbench/spans.py`` and ``benchmarks/bench_kernels.py`` time it.

    Updates ``y <- max(0, y + sigma * (m - gbar[i] - gbar[j]))`` over the
    pair list and accumulates per-point dual row sums into ``rowsum``
    (overwritten).  ``y`` is modified in place.  The row sums accumulate
    in pair order, tail then head within each pair, so the result is
    bit-identical to the compiled lane.
    """
    y += sigma * (m - gbar[gap_ii] - gbar[gap_jj])
    np.maximum(y, 0.0, out=y)
    rowsum[:] = 0.0
    idx = np.empty(2 * gap_ii.shape[0], dtype=np.int64)
    idx[0::2] = gap_ii
    idx[1::2] = gap_jj
    np.add.at(rowsum, idx, np.repeat(y, 2))
    return y


def pair_max_lift(g, gap_ii, gap_jj, m):
    """Per-point lift that repairs all pairwise constraints in one pass.

    Returns ``lift`` with ``lift[k] = 0.5 * max(0, max over pairs containing
    k of (m - g_i - g_j))``; adding it to ``g`` makes every constraint
    ``g_i + g_j >= m_ij`` hold.
    """
    deficit = m - g[gap_ii] - g[gap_jj]
    np.maximum(deficit, 0.0, out=deficit)
    lift = np.zeros(g.shape[0], dtype=np.float64)
    np.maximum.at(lift, gap_ii, deficit)
    np.maximum.at(lift, gap_jj, deficit)
    return 0.5 * lift
