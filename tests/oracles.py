"""Independent reference implementations used to pin derived values.

Deliberately naive: loop-heavy, no shared code with the package, so a
library bug cannot hide inside its own oracle.
"""

import json

import numpy as np
from scipy import optimize, sparse
from scipy.spatial.distance import cdist


def scipy_metric(space):
    """SciPy's name for the space's metric, for `cdist`."""
    return "chebyshev" if space.metric_kind == "sup" else "euclidean"


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


def certificate_constant(points, metric, ii, jj, values, gradient):
    """Largest |u_i - u_j| / (d_ij (g_i + g_j)) over every listed pair.

    One pass over the whole pair list, with the certificate's pair
    arithmetic; pairs with d_ij (g_i + g_j) <= 0 or d_ij = 0 are skipped.
    """
    diff = np.abs(points[ii] - points[jj])
    if metric == "sup":
        d = diff.max(axis=1)
    else:
        d = np.sqrt((diff * diff).sum(axis=1))
    du = np.abs(values[ii] - values[jj])
    cap = d * (gradient[ii] + gradient[jj])
    live = (cap > 0.0) & (d > 0.0)
    return float((du[live] / cap[live]).max()) if live.any() else 0.0


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


def ldp_hajlasz_norm(dist, weights, values):
    """p=2 Hajlasz functional as one least-distance program over all pairs.

    Minimizes sum_i w_i g_i^2 subject to g_i + g_j >= |f_i - f_j| / d_ij
    over every pair with d_ij > 0 and f_i != f_j.  In x_i = sqrt(w_i) g_i
    this is min |x|^2 subject to G x >= h; Lawson and Hanson's dual is
    the NNLS problem min |E u - e| over u >= 0 with E = [G^T; h^T] and
    e the last unit vector, and x = -r[:n] / r[n] for r = E u - e.
    Returns the L^2(w) norm of the optimal g, and g.
    """
    dist = np.asarray(dist, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    cols = []
    for i in range(n):
        for j in range(i + 1, n):
            m = abs(values[i] - values[j])
            if dist[i, j] == 0.0 or m == 0.0:
                continue
            col = np.zeros(n + 1)
            col[i] = 1.0 / np.sqrt(weights[i])
            col[j] = 1.0 / np.sqrt(weights[j])
            col[n] = m / dist[i, j]
            cols.append(col)
    if not cols:
        return 0.0, np.zeros(n)
    e = np.zeros(n + 1)
    e[n] = 1.0
    mat = np.array(cols).T
    u, _ = optimize.nnls(mat, e, maxiter=100 * mat.shape[1])
    r = mat @ u - e
    assert r[n] < 0.0, "least-distance program reported infeasible"
    g = -r[:n] / r[n] / np.sqrt(weights)
    return float(np.sqrt(weights @ g**2)), g


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


def set_matrix(sets, n_points):
    """(len(sets), n_points) CSR matrix with data 1.0, row i listing sets[i]."""
    rows = [np.asarray(s, dtype=np.int64) for s in sets]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([r.size for r in rows])
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return sparse.csr_matrix((np.ones(indices.size), indices, indptr),
                             shape=(len(rows), n_points))


def edge_ball_matrix(filling):
    """The (n_edges, n_points) indicator of the edge balls, one row per edge
    from the union of its endpoints' ball lists."""
    balls = filling.ball_members
    return set_matrix([np.union1d(balls(t), balls(h))
                       for t, h in zip(filling.tails, filling.heads)],
                      filling.space.n_points)


def half_ball_matrix(filling):
    """The (n_edges, n_points) indicator of each edge's tail half ball, the
    open ball of half the tail's radius, from brute-force distances."""
    space = filling.space
    dist = pair_distances(space.points, space.metric_kind)
    halves = [np.flatnonzero(dist[c] < 0.5 * r)
              for c, r in zip(filling.centers, filling.radii)]
    return set_matrix([halves[t] for t in filling.tails], space.n_points)


def edge_superposition(matrix, lo, hi, u):
    """``sum_{lo <= e < hi} u_e chi_A(e)``: the product of the rows of one
    edge range of a per-edge set matrix with the edge sequence."""
    return matrix[lo:hi].T @ u[lo:hi]


def edge_superposition_max(matrix, lo, hi, u):
    """``max_{lo <= e < hi} u_e chi_A(e)`` (0 where no set holds the point)."""
    out = np.zeros(matrix.shape[1])
    for e in range(lo, hi):
        row = matrix.indices[matrix.indptr[e]:matrix.indptr[e + 1]]
        out[row] = np.maximum(out[row], u[e])
    return out


def tent_partition(filling, level):
    """The sparse tent partition of one level, one vertex at a time: row i
    is ``clip(2 (1 - d/r), 0, 1)`` over its ball's points, normalised by
    the column sums."""
    space = filling.space
    vids = filling.vertices_at_level(level)
    rows, cols, data = [], [], []
    for local, vid in enumerate(vids):
        members = filling.ball_members(vid)
        d = cdist(space.points[filling.centers[vid]][None, :],
                  space.points[members], scipy_metric(space))[0]
        tent = np.clip(2.0 * (1.0 - d / filling.radii[vid]), 0.0, 1.0)
        keep = tent > 0.0
        rows.append(np.full(int(keep.sum()), local, dtype=np.int64))
        cols.append(members[keep])
        data.append(tent[keep])
    phi = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(vids.size, space.n_points))
    denom = np.asarray(phi.sum(axis=0)).ravel()
    return phi.multiply(1.0 / denom[None, :]).tocsr()


def brute_force_audit(filling):
    """The report of `audit_filling`, from full distance matrices.

    Each level measures every cloud point against every center of the
    level with `cdist`, and every pair of its centers; each vertex's row
    of the ball matrix must list exactly the points closer than its
    radius.  The edge rule is checked on the global product of the ball
    matrix with its transpose, restricted to pairs whose levels differ
    by at most one, and the overlap counts come from one loop per ball.
    """
    space, balls = filling.space, filling.balls
    metric = scipy_metric(space)
    report = {"flavor": filling.flavor, "levels": {}, "edge_rule_ok": True,
              "orientation_ok": True, "radius_law_ok": True}
    overlap = {}
    for n in filling.levels:
        vids = np.flatnonzero(filling.vertex_levels == n)
        radii = filling.radii[vids]
        scale = 2.0 ** (-n)
        if filling.flavor == "plain":
            seps = np.full(vids.size, scale / 2)
            radius_ok = bool(np.all(radii == scale))
        elif filling.flavor == "trace":
            seps = np.full(vids.size, scale)
            radius_ok = bool(np.all(radii == 4 * scale))
        else:
            on_f = radii == 4 * scale
            seps = np.where(on_f, scale, scale / 2)
            radius_ok = bool(np.all(on_f | (radii == scale)))
        coords = space.points[filling.centers[vids]]
        between = cdist(coords, coords, metric)
        np.fill_diagonal(between, np.inf)
        dist = cdist(space.points, coords, metric)
        counts = np.zeros(space.n_points, dtype=np.int64)
        for i, v in enumerate(vids):
            row = balls.indices[balls.indptr[v]:balls.indptr[v + 1]]
            radius_ok = radius_ok and np.array_equal(
                row, np.flatnonzero(dist[:, i] < radii[i]))
            np.add.at(counts, row, 1)
        overlap[n] = int(counts.max()) if vids.size else 0
        report["radius_law_ok"] &= radius_ok
        report["levels"][n] = {
            "n_vertices": int(vids.size),
            "separation_ok": bool(np.all(
                between >= np.minimum(seps[:, None], seps[None, :]) - 1e-15)),
            "covering_ok": bool(np.all((dist < radii / 2).any(axis=1))),
            "radius_law_ok": radius_ok,
        }

    shared = sparse.triu(balls @ balls.T, k=1).tocoo()
    levels = filling.vertex_levels
    near = np.abs(levels[shared.row] - levels[shared.col]) <= 1
    tails, heads = filling.tails, filling.heads
    report["edge_rule_ok"] = (
        sorted(zip(shared.row[near].tolist(), shared.col[near].tolist()))
        == sorted(zip(np.minimum(tails, heads).tolist(),
                      np.maximum(tails, heads).tolist())))
    report["n_edges"] = filling.n_edges
    lt, lh = levels[tails], levels[heads]
    report["orientation_ok"] = bool(np.all(np.where(lt == lh, tails < heads,
                                                    lh == lt + 1)))
    report["overlap"] = overlap
    report["ok"] = bool(report["edge_rule_ok"] and report["orientation_ok"]
                        and report["radius_law_ok"]
                        and all(lv["separation_ok"] and lv["covering_ok"]
                                for lv in report["levels"].values()))
    return report


def canonical_text(obj, indent=0):
    """Canonical JSON of plain Python values, one item at a time: sorted
    keys, two-space indent, floats with 17 significant digits and negative
    zero written as 0 (no trailing newline)."""
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        assert np.isfinite(obj)
        return "%.17g" % (obj + 0.0)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [pad + "  " + json.dumps(k) + ": "
                 + canonical_text(obj[k], indent + 1) for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if not obj:
        return "[]"
    items = [pad + "  " + canonical_text(v, indent + 1) for v in obj]
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"
