"""Pointwise-gradient norm via pairwise constraint minimisation.

The fractional gradient problem is a convex program: minimise the
``L^p`` norm of ``g >= 0`` subject to ``g_i + g_j >= |f_i - f_j| /
d(i,j)^s`` over all point pairs.  Each exponent has one exact route:

* ``p = 1`` is a linear program, solved by HiGHS
  (``scipy.optimize.linprog``) on the sparse pair matrix;
* ``p = 2`` is a least-distance program in ``x = w^(1/2) g``, solved
  exactly by Lawson and Hanson's NNLS (``scipy.optimize.nnls``) on a
  working set of pairs that grows by each point's most violated pair
  until none is violated; the working-set matrix holds ``(n + 1) |S|``
  float64 entries for ``n`` points and ``|S|`` pairs in the set, and a
  set whose matrix would pass 256 MiB raises ``NumericalError``.  NNLS
  can stop off its own optimality conditions: an answer that misses the
  gap target warm-starts the dual route below, and the better one counts;
* every other ``p > 1`` has a smooth Lagrange dual over multipliers
  ``y >= 0``, maximised by L-BFGS-B and then polished by Newton steps on
  the KKT system of the active pairs;
* ``p = inf`` has a closed form.

The solver's own convergence claims are not trusted.  A feasibility
lift turns its ``g`` into an exactly feasible point, so the
reported norm is an upper bound; the dual function evaluated at its
multipliers is a lower bound, and their relative gap certifies the
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import pair_max_lift
from .errors import ConfigError, GateError, NumericalError
from .norms import SmoothnessParams
from .space import FiniteMetricMeasureSpace, _dist_blocks

__all__ = ["HajlaszGradient", "hajlasz_norm"]

# Hard cap on the pairwise program size; n points make n(n-1)/2
# constraints and the dense pair arrays dominate memory beyond this.
POINT_CAP = 4096

_TINY = 1e-300

# Newton polish: multipliers below _ACTIVE_REL times the largest one
# count as zero when the active pairs are chosen; _KKT_REG, relative to
# the scale of the Newton matrix's diagonal, keeps dependent active pairs
# solvable.
_ACTIVE_REL = 1e-10
_KKT_REG = 1e-10
_NEWTON_STEPS = 30
_ACTIVE_ROUNDS = 5
# Violation, in units of the largest level, that brings a pair into the
# active set (the Newton polish) or the working set (p = 2).
_VIOLATED = 1e-14
# Memory budget of the p = 2 working-set matrix, (n + 1) |S| float64
# entries; NNLS factors a copy of it, so the peak is about twice this.
_WORK_BYTES = 256 * 2**20
# Dual ascent and polish rounds at p > 1, p != 2.
_ROUNDS = 3
# Relative duality-gap target for finite p.
_GAP_TOL = 1e-7
# Iteration budget of the inner solvers: HiGHS at p = 1; L-BFGS-B and the
# Newton polish together at p > 1, p != 2.
_MAX_ITER = 100_000


@dataclass(eq=False)
class HajlaszGradient:
    """Certified solution of the pointwise-gradient program.

    ``norm`` is the ``L^p`` norm of the feasible gradient ``g``;
    ``objective`` and ``dual_value`` bracket the optimal value of the
    solver's convex objective (the ``p``-th power for finite ``p``), and
    ``gap`` is their relative difference, a certificate that ``norm``
    exceeds the true infimum by at most roughly ``gap / p``.
    ``iterations`` counts the inner solver's iterations: HiGHS at
    ``p = 1``, working-set rounds (one NNLS solve each) at ``p = 2``, and
    L-BFGS-B plus Newton polish steps at every other ``p > 1`` (and at
    ``p = 2`` too, after the rounds, when that fallback runs).
    """

    norm: float
    g: np.ndarray = field(repr=False)
    s: float
    p: float
    objective: float
    dual_value: float
    gap: float
    iterations: int
    converged: bool


def _pair_constraints(space, f, s):
    """Pairs i < j in ``np.triu_indices`` order and their levels |df| / d^s."""
    parts = []
    for lo, dist in _dist_blocks(space.points, space.points,
                                 space.metric_kind, upper=True):
        df = np.abs(f[lo:lo + len(dist), None] - f[lo:])
        # Pairs with equal values only ask g_i + g_j >= 0, which g >= 0 gives.
        keep = ~np.tri(*df.shape, dtype=bool) & (df > 0.0)
        d = dist[keep]
        if np.any(d <= 0.0):
            raise GateError("coincident points carry different values; "
                            "no finite gradient exists")
        i, j = np.nonzero(keep)
        parts.append((i + lo, j + lo, df[keep] / d ** s))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _row_sums(y, ii, jj, n):
    """``A^T y``: per-point sums of the multipliers of its pairs."""
    return np.bincount(ii, y, n) + np.bincount(jj, y, n)


def _dual_value(y, ii, jj, m, w, p):
    """Lagrange dual value at ``y >= 0``; a certified lower bound.

    For ``p = 1`` the multipliers are first shrunk edge by edge until
    every dual row sum fits under its weight, keeping feasibility exact.
    """
    a = _row_sums(y, ii, jj, w.size)
    if p == 1.0:
        rho = np.minimum(1.0, w / np.maximum(a, _TINY))
        scale = np.minimum(rho[ii], rho[jj])
        return float((y * scale) @ m)
    conj = (p - 1.0) * w * (a / (p * w)) ** (p / (p - 1.0))
    return float(y @ m - conj.sum())


def _primal_of_dual(y, ii, jj, w, p):
    """The minimiser ``g = (A^T y / (p w))^(1/(p-1))`` of the Lagrangian."""
    return (_row_sums(y, ii, jj, w.size) / (p * w)) ** (1.0 / (p - 1.0))


def _pair_matrix(ii, jj, n):
    """Sparse ``A`` with one row per pair: ones in columns ``i`` and ``j``."""
    from scipy import sparse

    k = ii.size
    return sparse.csr_matrix(
        (np.ones(2 * k), (np.repeat(np.arange(k), 2),
                          np.column_stack((ii, jj)).ravel())), shape=(k, n))


def _solve_lp(ii, jj, m, w):
    """``p = 1`` by HiGHS: (g, multipliers, iterations)."""
    from scipy import optimize

    a_ub = -_pair_matrix(ii, jj, w.size)
    res = optimize.linprog(w, A_ub=a_ub, b_ub=-m, bounds=(0, None),
                           method="highs", options={"maxiter": _MAX_ITER})
    if res.status != 0:
        raise NumericalError("HiGHS stopped without an optimum after %d "
                             "iterations: %s" % (res.nit, res.message))
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    return np.maximum(res.x, 0.0), y, int(res.nit)


def _top_pair_per_point(score, ii, jj):
    """Sorted ids of the pairs that give some point its largest positive
    ``score``, ties going to the lower pair id."""
    pts = np.concatenate((ii, jj))
    pair = np.tile(np.arange(score.size), 2)
    both = np.tile(score, 2)
    order = np.lexsort((-both, pts))
    pts, pair, both = pts[order], pair[order], both[order]
    first = np.ones(pts.size, dtype=bool)
    first[1:] = pts[1:] != pts[:-1]
    return np.unique(pair[first & (both > 0.0)])


def _solve_ldp(ii, jj, m, w):
    """``p = 2`` by least-distance NNLS on a working set of pairs.

    With ``x = D^(1/2) g``, ``D = diag(w)`` and ``G = A D^(-1/2)`` over
    the working set ``S``, the program is ``min |x|^2`` subject to
    ``G x >= m_S``.  Lawson and Hanson solve it through ``u = nnls(E,
    e_{n+1})`` with ``E = [G^T; m_S^T]``: the multipliers are ``y_S =
    2 u / (1 - m_S . u)`` and ``g = A^T y / (2 w)``.  ``S`` starts as
    each point's largest-level pair; each round adds each point's most
    violated pair, until no pair is violated.  Returns ``(g, y,
    rounds)``.
    """
    from scipy import optimize

    n = w.size
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    scale = 1.0 / np.sqrt(w)
    work = _top_pair_per_point(m, ii, jj)
    rounds = 0
    while True:
        rounds += 1
        if (n + 1) * work.size * 8 > _WORK_BYTES:
            raise NumericalError(
                "the p = 2 working set of %d pairs needs a %d x %d matrix, "
                "over its %d MiB budget" % (work.size, n + 1, work.size,
                                           _WORK_BYTES >> 20))
        cols = np.arange(work.size)
        e = np.zeros((n + 1, work.size))
        e[ii[work], cols] = scale[ii[work]]
        e[jj[work], cols] = scale[jj[work]]
        e[n] = m[work]
        try:
            u, _ = optimize.nnls(e, rhs)
        except RuntimeError as exc:
            raise NumericalError("NNLS stopped on %d pairs in round %d: %s"
                                 % (work.size, rounds, exc)) from None
        denom = 1.0 - m[work] @ u
        if not denom > 0.0:
            raise NumericalError("NNLS found the %d working pairs "
                                 "infeasible" % work.size)
        y = np.zeros(m.size)
        y[work] = 2.0 * u / denom
        g = _primal_of_dual(y, ii, jj, w, 2.0)
        short = m - g[ii] - g[jj]
        short[work] = 0.0
        join = _top_pair_per_point(np.where(short > _VIOLATED, short, 0.0),
                                   ii, jj)
        if join.size == 0:
            return g, y, rounds
        work = np.union1d(work, join)


def _solve_dual(y0, ii, jj, m, w, p, max_iter):
    """L-BFGS-B ascent on the ``p > 1`` dual from ``y0``: (y, iterations)."""
    from scipy import optimize

    def neg_dual(y):
        g = _primal_of_dual(y, ii, jj, w, p)
        return -_dual_value(y, ii, jj, m, w, p), g[ii] + g[jj] - m

    res = optimize.minimize(
        neg_dual, y0, jac=True, method="L-BFGS-B",
        bounds=optimize.Bounds(0.0, np.inf),
        options={"maxiter": max_iter, "maxfun": max_iter,
                 "ftol": 0.0, "gtol": 1e-12})
    return np.maximum(res.x, 0.0), int(res.nit)


def _kkt_newton(g, y, ii, jj, m, w, p):
    """Damped Newton steps on the KKT system of pairs held at equality.

    Solves ``p w g^(p-1) = A^T y`` and ``A g = m`` over the points the
    pairs touch, starting from ``(g, y)`` with ``g > 0`` there; every
    other point gets ``g = 0``.  The unknown is ``v = g`` for ``p >= 2``
    and ``v = g^(p-1)`` for ``p < 2``, so that no equation has an
    infinite derivative at ``g = 0``.  The ``y`` block carries a tiny
    regularisation, so the system stays nonsingular when the pairs are
    linearly dependent; the fixed point is still the exact KKT point.
    Steps are halved until the residual falls.  At ``p = 2`` one full
    step lands on the solution.  Returns ``(g, y, steps)``, or ``None``
    when the factorisation breaks down.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    n = w.size
    pts = np.unique(np.concatenate((ii, jj)))
    local = np.full(n, -1)
    local[pts] = np.arange(pts.size)
    nt, ns = pts.size, m.size
    a_s = _pair_matrix(local[ii], local[jj], nt)
    ws = w[pts]
    r = 1.0 if p >= 2.0 else 1.0 / (p - 1.0)     # g = v^r

    def residual(v, y):
        stat = p * ws * (v ** (p - 1.0) if r == 1.0 else v) - a_s.T @ y
        return np.concatenate((stat, a_s @ v ** r - m))

    v = g[pts] ** (1.0 / r)
    res = residual(v, y)
    size = np.linalg.norm(res)
    steps = 0
    while steps < _NEWTON_STEPS and size > 0.0:
        steps += 1
        if r == 1.0:
            d_stat, d_g = p * (p - 1.0) * ws * v ** (p - 2.0), np.ones(nt)
        else:
            d_stat, d_g = p * ws, r * v ** (r - 1.0)
        reg = sparse.identity(ns) * (_KKT_REG * d_g.max() / d_stat.max())
        kkt = sparse.bmat([[sparse.diags(d_stat), -a_s.T],
                           [a_s @ sparse.diags(d_g), reg]], format="csc")
        try:
            step = splu(kkt).solve(-res)
        except RuntimeError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        dv, dy = step[:nt], step[nt:]
        down = dv < 0.0
        t = 1.0
        if np.any(down):
            # Keep v > 0: its powers are undefined below zero.
            t = min(1.0, 0.99 * float(np.min(-v[down] / dv[down])))
        while t > 1e-12:
            res_t = residual(v + t * dv, y + t * dy)
            size_t = np.linalg.norm(res_t)
            if size_t < size:
                break
            t *= 0.5
        else:
            break           # no step length lowers the residual
        v, y = v + t * dv, y + t * dy
        res, size = res_t, size_t
    out = np.zeros(n)
    out[pts] = v ** r
    return out, y, steps


def _newton_polish(y, ii, jj, m, w, p):
    """Exact KKT point on the active pairs read off dual multipliers ``y``.

    The active set starts as the pairs with a clearly positive
    multiplier.  After each solve, pairs whose multiplier turned negative
    leave it and pairs the new ``g`` violates join it, for at most
    ``_ACTIVE_ROUNDS`` rounds.  Returns ``(g, y, steps)`` with
    ``y >= 0``, or ``None`` on a breakdown.
    """
    act = np.flatnonzero(y > _ACTIVE_REL * y.max())
    g = _primal_of_dual(y, ii, jj, w, p)
    ys = y[act]
    total = 0
    for _ in range(_ACTIVE_ROUNDS):
        if act.size == 0:
            return None
        out = _kkt_newton(g, ys, ii[act], jj[act], m[act], w, p)
        if out is None:
            return None
        g, ys, steps = out
        total += steps
        short = m - g[ii] - g[jj]
        short[act] = 0.0
        join = np.flatnonzero(short > _VIOLATED)
        keep = ys >= 0.0
        if keep.all() and join.size == 0:
            break
        # Start the joining pairs from a feasible g, positive at their
        # points: at p > 2 the Newton matrix is singular where g = 0.
        g = g + pair_max_lift(g, ii[join], jj[join], m[join])
        act = np.concatenate((act[keep], join))
        ys = np.concatenate((ys[keep], np.zeros(join.size)))
    full_y = np.zeros(m.size)
    full_y[act] = np.maximum(ys, 0.0)
    return g, full_y, total


def _lift(g, ii, jj, m):
    """``g`` raised until every pair constraint holds in floating point.

    `pair_max_lift` repairs every constraint in exact arithmetic, but a
    deficit below the rounding unit of ``g`` can survive the addition;
    the points of each pair still short then step up one float at a time.
    """
    g = g + pair_max_lift(g, ii, jj, m)
    short = g[ii] + g[jj] < m
    while short.any():
        pts = np.union1d(ii[short], jj[short])
        g[pts] = np.nextafter(g[pts], np.inf)
        short = g[ii] + g[jj] < m
    return g


def _certify(candidates, scale, ii, jj, m, w, p):
    """Best certified bounds over candidate ``(g, y)`` pairs.

    Candidates are in units where the largest level is 1; ``scale`` is
    that level.  Each ``g`` is lifted to exact feasibility, so its
    objective is an upper bound; the dual value at each ``y`` is a lower
    bound.  Returns ``(g, objective, dual, relative gap)``.
    """
    best_obj, best_g, best_dual = np.inf, None, 0.0
    for g, y in candidates:
        g = _lift(scale * g, ii, jj, m)
        obj = float(w @ g) if p == 1.0 else float(w @ g ** p)
        if obj < best_obj:
            best_obj, best_g = obj, g
        best_dual = max(best_dual,
                        _dual_value(scale ** (p - 1.0) * y, ii, jj, m, w, p))
    return best_g, best_obj, best_dual, (best_obj - best_dual) / best_obj


def hajlasz_norm(space: FiniteMetricMeasureSpace, f,
                 params: SmoothnessParams) -> HajlaszGradient:
    """Minimal ``L^p`` norm of a fractional pointwise gradient.

    Parameters
    ----------
    space : FiniteMetricMeasureSpace
        At most ``POINT_CAP`` points; subsample larger clouds first.
    f : array_like
        Point samples of the function, all finite.
    params : SmoothnessParams
        Must have kind ``hajlasz``; uses ``s`` and ``p`` (``p >= 1``).

    Returns
    -------
    HajlaszGradient

    Raises
    ------
    NumericalError
        If the inner solver fails, or its answer does not certify the
        relative gap target 1e-7: at ``p = 2`` after NNLS and its dual
        fallback, at every other finite ``p`` within 100,000 iterations.  Also
        if the ``p = 2`` working-set matrix would pass 256 MiB.
    """
    if params.kind != "hajlasz":
        raise ConfigError("params kind %r is not hajlasz" % params.kind)
    f = np.ascontiguousarray(f, dtype=np.float64)
    n = space.n_points
    if f.shape != (n,):
        raise ConfigError(
            "function has %s samples, space has %d points" % (f.shape, n))
    if not np.all(np.isfinite(f)):
        raise ConfigError("function samples must be finite")
    if n > POINT_CAP:
        raise ConfigError(
            "%d points exceed the pairwise budget %d; subsample first"
            % (n, POINT_CAP))
    s, p = params.s, params.p
    with np.errstate(over="ignore"):
        # a difference or quotient past the float range is inf, refused next
        ii, jj, m = _pair_constraints(space, f, s)
    if not np.all(np.isfinite(m)):
        raise ConfigError("pair quotients |f(x) - f(y)| / d(x, y)^s leave "
                          "the float range")
    w = space.weights

    def pack(g, obj, dual, gap, iters):
        norm = obj if p == 1.0 or np.isinf(p) else obj ** (1.0 / p)
        return HajlaszGradient(norm=float(norm), g=g, s=s, p=p,
                               objective=float(obj), dual_value=float(dual),
                               gap=float(gap), iterations=iters,
                               converged=True)

    if m.size == 0:
        return pack(np.zeros(n), 0.0, 0.0, 0.0, 0)
    if np.isinf(p):
        half = 0.5 * m.max()
        return pack(np.full(n, half), half, half, 0.0, 0)

    # The solvers work on levels scaled to a largest value of 1, so their
    # absolute tolerances mean the same thing for every input.
    top = float(m.max())
    with np.errstate(over="ignore"):
        if not np.isfinite(w.sum() * np.float64(top) ** p):
            raise NumericalError(
                "the objective sum w g^p leaves the float range: largest "
                "pair quotient %.3g at p=%g" % (top, p))
    unit = m / top
    if p == 1.0:
        g, y, iters = _solve_lp(ii, jj, unit, w)
        g, obj, dual, gap = _certify([(g, y)], top, ii, jj, m, w, p)
    else:
        y, iters, candidates, gap = np.zeros(m.size), 0, [], np.inf
        if p == 2.0:
            g, y, iters = _solve_ldp(ii, jj, unit, w)
            candidates.append((g, y))
            g, obj, dual, gap = _certify(candidates, top, ii, jj, m, w, p)
        # Each round: dual ascent, then a Newton polish whose multipliers
        # warm-start the next round; at p = 2 only if NNLS's answer misses.
        for _ in range(_ROUNDS if gap > _GAP_TOL else 0):
            y, nit = _solve_dual(y, ii, jj, unit, w, p, _MAX_ITER - iters)
            iters += nit
            candidates.append((_primal_of_dual(y, ii, jj, w, p), y))
            polished = _newton_polish(y, ii, jj, unit, w, p)
            if polished is not None:
                g, y_pol, steps = polished
                iters += steps
                candidates += [(g, y_pol),
                               (_primal_of_dual(y_pol, ii, jj, w, p), y_pol)]
                if (_dual_value(y_pol, ii, jj, unit, w, p)
                        > _dual_value(y, ii, jj, unit, w, p)):
                    y = y_pol
            g, obj, dual, gap = _certify(candidates, top, ii, jj, m, w, p)
            if gap <= _GAP_TOL or iters >= _MAX_ITER:
                break
    if gap <= _GAP_TOL:
        return pack(g, obj, dual, gap, iters)
    raise NumericalError(
        "pairwise solver stalled at relative gap %.3g after %d iterations "
        "(target %.3g)" % (gap, iters, _GAP_TOL))
