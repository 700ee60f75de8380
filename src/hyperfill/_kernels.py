"""NumPy implementations of the hot kernels.

``BACKEND`` names the kernel lane that reports and CLI payloads record;
there is one lane, so it is always ``"pure"``.
"""

from __future__ import annotations

import numpy as np

BACKEND = "pure"


def greedy_separated_subset(candidates, sep, ball):
    """Greedy maximal `sep`-separated subset of the candidate points.

    Candidates are scanned in the order given (ascending index by
    convention); a candidate is kept when it lies at distance >= sep from
    every point kept so far.  Returns the kept indices in scan order.

    ``ball(i, r)`` returns the indices of the points at distance < r from
    point i (such as `FiniteMetricMeasureSpace.ball_indices`).  The scan is
    driven by kept points: each kept point blocks its ``sep``-ball, and the
    scan skips blocked candidates.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    # flags up to the largest candidate; ball members past it are never
    # scanned
    blocked = np.zeros(candidates.max(initial=-1) + 1, dtype=bool)
    chosen = []
    for idx in candidates.tolist():
        if not blocked[idx]:
            chosen.append(idx)
            hits = ball(idx, sep)
            blocked[hits[hits < blocked.size]] = True
    return np.asarray(chosen, dtype=np.int64)


def pdhg_sweep(y, gap_ii, gap_jj, m, gbar, sigma, rowsum):
    """One dual update of a primal-dual loop over pair constraints.

    No library code calls it; it stays because ``perfbench/spans.py``
    binds it by name, until the benchmark refresh (ROADMAP item 1)
    retires it.

    Updates ``y <- max(0, y + sigma * (m - gbar[i] - gbar[j]))`` over the
    pair list and accumulates per-point dual row sums into ``rowsum``
    (overwritten), in pair order, tail then head within each pair.  ``y``
    is modified in place.
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
