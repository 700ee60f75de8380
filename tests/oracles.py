"""Independent reference implementations used to pin derived values.

Deliberately naive: loop-heavy, no shared code with the package, so a
library bug cannot hide inside its own oracle.
"""

import numpy as np
from scipy import optimize


def pair_distances(points, metric="sup"):
    """Full (n, n) distance matrix with small python-side loops."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        diff = np.abs(pts - pts[i])
        if metric == "sup":
            out[i] = diff.max(axis=1)
        else:
            out[i] = np.sqrt((diff**2).sum(axis=1))
    return out


def lp_hajlasz_norm(dist, weights, values):
    """Exact p=1 Hajlasz functional via linear programming.

    Minimize sum_i w_i g_i subject to g_i + g_j >= |f_i - f_j| / d_ij
    over all pairs with d_ij > 0, g >= 0.  Returns (optimum, g).
    """
    dist = np.asarray(dist, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    rows, rhs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] == 0.0:
                continue
            row = np.zeros(n)
            row[i] = -1.0
            row[j] = -1.0
            rows.append(row)
            rhs.append(-abs(values[i] - values[j]) / dist[i, j])
    if not rows:
        return 0.0, np.zeros(n)
    res = optimize.linprog(weights, A_ub=np.array(rows), b_ub=np.array(rhs),
                           bounds=[(0, None)] * n, method="highs")
    assert res.status == 0, res.message
    return float(res.fun), res.x


def slsqp_hajlasz_norm(dist, weights, values, p):
    """Hajlasz functional for p > 1 by constrained minimization (SLSQP).

    Minimizes sum_i w_i g_i^p subject to g_i + g_j >= |f_i - f_j| / d_ij
    over all pairs with d_ij > 0, g >= 0.  Returns the L^p(w) norm of the
    optimal g, i.e. (sum w g^p)^(1/p), and g.
    """
    dist = np.asarray(dist, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    cons = []
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] == 0.0:
                continue
            m = abs(values[i] - values[j]) / dist[i, j]
            cons.append({"type": "ineq",
                         "fun": (lambda g, i=i, j=j, m=m:
                                 g[i] + g[j] - m)})
    if not cons:
        return 0.0, np.zeros(n)
    x0 = np.full(n, max(abs(values).max(), 1.0))
    res = optimize.minimize(lambda g: weights @ g**p, x0, method="SLSQP",
                            jac=lambda g: p * weights * g**(p - 1.0),
                            bounds=[(0, None)] * n, constraints=cons,
                            options={"maxiter": 500, "ftol": 1e-12})
    assert res.success, res.message
    return float((weights @ res.x**p) ** (1.0 / p)), res.x


def qp_hajlasz_norm(dist, weights, values):
    """p=2 Hajlasz functional: `slsqp_hajlasz_norm` at p = 2."""
    return slsqp_hajlasz_norm(dist, weights, values, 2.0)


def greedy_net(points, separation, metric="sup", candidates=None):
    """Greedy maximal separated subset of the candidates, each compared
    with every point kept so far; the scan runs in the order of
    `candidates` (ascending index over all points by default)."""
    pts = np.asarray(points, dtype=np.float64)
    if candidates is None:
        candidates = range(pts.shape[0])
    kept = []
    for i in candidates:
        ok = True
        for j in kept:
            diff = np.abs(pts[i] - pts[j])
            d = diff.max() if metric == "sup" else np.sqrt((diff**2).sum())
            if d < separation:
                ok = False
                break
        if ok:
            kept.append(i)
    return np.array(kept, dtype=np.int64)


def box_count_slope(points, scales):
    """Box-counting dimension estimate: slope of log N over log 1/scale."""
    pts = np.asarray(points, dtype=np.float64)
    counts = []
    for h in scales:
        cells = set(map(tuple, np.floor(pts / h).astype(np.int64)))
        counts.append(len(cells))
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts, dtype=np.float64))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def dense_partition(filling, level):
    """Dense tent partition at one level, normalized column-wise."""
    space = filling.space
    vids = filling.vertices_at_level(level)
    phi = np.zeros((vids.size, space.n_points))
    for row, vid in enumerate(vids):
        center = space.points[filling.centers[vid]]
        d = space.dist_from(center)
        phi[row] = np.clip(2.0 * (1.0 - d / filling.radii[vid]), 0.0, 1.0)
    denom = phi.sum(axis=0)
    assert denom.min() > 0.0
    return phi / denom[None, :]


def ball_mass(points, weights, center, radius, metric="sup"):
    """mu of the open ball around an explicit center point."""
    diff = np.abs(np.asarray(points) - np.asarray(center)[None, :])
    if metric == "sup":
        d = diff.max(axis=1)
    else:
        d = np.sqrt((diff**2).sum(axis=1))
    return float(np.asarray(weights)[d < radius].sum())


def row_gather_cross_product(tail_psi, head_psi, tail_rows, head_rows):
    """Entrywise product of gathered partition rows, one row per edge.

    Row i is ``tail_psi[tail_rows[i]] * head_psi[head_rows[i]]``, taken
    by gathering both row blocks and multiplying them as sparse matrices.
    """
    return tail_psi[tail_rows].multiply(head_psi[head_rows]).tocsr()
