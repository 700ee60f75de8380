"""Discrete calculus over a filling.

Functions on the point cloud are lifted to vertex sequences by averaging
over balls, differentiated along edges, and reconstructed by blending
vertex or edge data through a Lipschitz partition of unity subordinate
to the level balls.  The reconstruction operators satisfy an exact
discrete fundamental theorem: blending the edge derivative at level n
equals the difference of consecutive level blends, so summing over a
level window telescopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConfigError, NumericalError
from .filling import Filling, _row_pairs
from .space import _rowwise_dist

# Points per vertex in the Lipschitz-quotient scan of a partition.
_QUOTIENT_POINTS = 192

__all__ = [
    "Partition",
    "poisson_extension",
    "discrete_derivative",
    "build_partition",
    "level_blend",
    "edge_blend",
    "telescoping_integral",
    "partition_lipschitz_quotient",
]


@dataclass(eq=False, frozen=True)
class Partition:
    """Partition of unity subordinate to the balls of one level.

    Attributes
    ----------
    level : int
        Level whose balls carry the partition.
    vertex_ids : ndarray
        Global vertex ids at this level, ascending.
    psi : scipy.sparse.csr_matrix
        Sparse (len(vertex_ids), n_points) weight matrix.  Columns sum
        to one; row ``i`` is supported strictly inside the ball of
        ``vertex_ids[i]``.
    """

    level: int
    vertex_ids: np.ndarray
    psi: sparse.csr_matrix = field(repr=False)


def poisson_extension(filling: Filling, f) -> np.ndarray:
    """Average a point function over every vertex ball.

    Parameters
    ----------
    filling : Filling
    f : array_like
        Finite values on the points of ``filling.space``, one per point.

    Returns
    -------
    ndarray
        One weighted ball mean per vertex, indexed by global vertex id,
        and kept inside the range of ``f`` on the ball.
    """
    f = np.ascontiguousarray(f, dtype=np.float64)
    if f.shape != (filling.space.n_points,):
        raise ConfigError(
            "function has %s samples, space has %d points"
            % (f.shape, filling.space.n_points))
    if not np.all(np.isfinite(f)):
        raise ConfigError("function samples must be finite")
    w = filling.space.weights
    memb = filling.vertex_membership()
    means = (memb @ (w * f)) / filling.ball_weight_sums
    # Rounding can put a mean outside its ball's range: unclipped, a
    # constant's ball means differ from it in the last bits, and its norms
    # are rounding noise instead of 0.  Balls are never empty.  (An intp
    # index gathers about twice as fast as the matrix's int32 one.)
    samples = f[memb.indices.astype(np.intp)]
    starts = memb.indptr[:-1]
    return np.clip(means, np.minimum.reduceat(samples, starts),
                   np.maximum.reduceat(samples, starts))


def discrete_derivative(filling: Filling, v) -> np.ndarray:
    """Edge increments head minus tail of a vertex sequence."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape != (filling.n_vertices,):
        raise ConfigError(
            "vertex sequence has %s entries, filling has %d vertices"
            % (v.shape, filling.n_vertices))
    return v[filling.heads] - v[filling.tails]


def build_partition(filling: Filling, level: int) -> Partition:
    """Build (or fetch) the tent partition of unity at one level.

    Each vertex ball ``B(x, r)`` carries the tent ``phi_x(xi) =
    clip(2 (1 - d(xi, x)/r), 0, 1)``, which equals one on the half ball
    and vanishes outside the full ball.  Because the half balls of a
    level cover the cloud, the tent sum is at least one everywhere and
    normalising is stable; ``psi_x = phi_x / sum(phi)``.

    Parameters
    ----------
    filling : Filling
    level : int
        Must lie inside the filling's level window.

    Returns
    -------
    Partition

    Raises
    ------
    NumericalError
        If the tent sum at some point falls below one (half-ball
        covering failed), which would make the quotient ill-conditioned.
    """
    cached = filling._partition_cache.get(level)
    if cached is not None:
        return cached
    vids = filling.vertices_at_level(level)
    if vids.size == 0:
        raise ConfigError("filling has no vertices at level %d" % level)
    space = filling.space
    # every (vertex, ball member) pair of the level, from the level's rows
    # of the vertex-membership matrix
    memb = filling.vertex_membership()
    bounds = memb.indptr[vids[0]:vids[-1] + 2]
    cols = memb.indices[bounds[0]:bounds[-1]]
    rows = np.repeat(np.arange(vids.size), np.diff(bounds))
    d = _rowwise_dist(np.take(space.points, filling.centers[vids][rows],
                              axis=0),
                      np.take(space.points, cols, axis=0), space.metric_kind)
    tent = np.clip(2.0 * (1.0 - d / filling.radii[vids][rows]), 0.0, 1.0)
    keep = tent > 0.0
    phi = sparse.csr_matrix((tent[keep], (rows[keep], cols[keep])),
                            shape=(vids.size, space.n_points))
    denom = np.asarray(phi.sum(axis=0)).ravel()
    lo = float(denom.min())
    if lo < 1.0 - 1e-9:
        raise NumericalError(
            "tent sum %.6g < 1 at level %d; half balls do not cover"
            % (lo, level))
    psi = phi.multiply(1.0 / denom[None, :]).tocsr()
    part = Partition(level=level, vertex_ids=vids, psi=psi)
    filling._partition_cache[level] = part
    return part


def level_blend(filling: Filling, values, level: int) -> np.ndarray:
    """Blend a vertex sequence back onto the cloud at one level.

    Parameters
    ----------
    filling : Filling
    values : array_like
        Sequence over all vertices (global ids); only the entries at
        ``level`` are read.
    level : int

    Returns
    -------
    ndarray
        ``sum_x values[x] psi_x`` sampled at every point.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != (filling.n_vertices,):
        raise ConfigError(
            "vertex sequence has %s entries, filling has %d vertices"
            % (values.shape, filling.n_vertices))
    part = build_partition(filling, level)
    return part.psi.T @ values[part.vertex_ids]


def edge_blend(filling: Filling, edge_values, level: int) -> np.ndarray:
    """Blend an edge sequence through the partitions it straddles.

    Only edges joining level ``level`` to ``level + 1`` contribute; the
    weight of edge ``e = (x, y)`` at a point is ``psi_x psi_y``, the
    product of the tail partition at ``level`` and the head partition at
    ``level + 1``.  Those products depend only on the filling, so they
    are built once per level and cached next to the partitions; each
    call is one sparse product with the cached matrix.

    Parameters
    ----------
    filling : Filling
    edge_values : array_like
        Sequence over all edges (global ids).
    level : int
        Tail level of the cross edges to blend.

    Returns
    -------
    ndarray
        Point samples of the blended sequence.
    """
    u = _check_edge_values(filling, edge_values)
    return _cross_blend(filling, u, level)


def _check_edge_values(filling: Filling, edge_values) -> np.ndarray:
    u = np.ascontiguousarray(edge_values, dtype=np.float64)
    if u.shape != (filling.n_edges,):
        raise ConfigError(
            "edge sequence has %s entries, filling has %d edges"
            % (u.shape, filling.n_edges))
    return u


def _cross_blend(filling: Filling, u: np.ndarray, level: int) -> np.ndarray:
    eids = filling.cross_edges_at_level(level)
    return _cross_blend_matrix(filling, level).T @ u[eids]


def _cross_blend_matrix(filling: Filling, level: int) -> sparse.csr_matrix:
    """Cached (cross edges, n_points) matrix of the products ``psi_x psi_y``.

    Row ``i`` belongs to the i-th edge of `Filling.cross_edges_at_level`
    and is the sparse entrywise product of its tail's partition row at
    ``level`` and its head's row at ``level + 1``.  The rows are
    multiplied in the edge blocks of `hyperfill.filling._row_pairs`, so
    the gathered tail rows, many copies of each coarse row, never pile
    up at once.  A level without cross edges gets an empty matrix and
    builds no partition.
    """
    key = ("cross", level)
    cached = filling._partition_cache.get(key)
    if cached is not None:
        return cached
    eids = filling.cross_edges_at_level(level)
    if eids.size == 0:
        cross = sparse.csr_matrix((0, filling.space.n_points))
    else:
        lo = build_partition(filling, level)
        hi = build_partition(filling, level + 1)
        cross = sparse.vstack([both for _, _, both in _row_pairs(
            lo.psi, filling.tails[eids] - lo.vertex_ids[0],
            hi.psi, filling.heads[eids] - hi.vertex_ids[0],
            lambda a, b: a.multiply(b))], format="csr")
    filling._partition_cache[key] = cross
    return cross


def telescoping_integral(filling: Filling, edge_values,
                         level_window: tuple[int, int] | None = None
                         ) -> np.ndarray:
    """Sum edge blends over a level window.

    With ``u = dv`` this reproduces ``T_{hi+1} v - T_{lo} v`` exactly on
    any window, negative levels included, so the integral of a derivative
    recovers the function up to the coarsest blend.  Each level is one
    product with the cross-edge matrix that `edge_blend` caches on the
    filling.

    Parameters
    ----------
    filling : Filling
    edge_values : array_like
        Sequence over all edges.
    level_window : (int, int), optional
        Inclusive window of tail levels to sum; defaults to every cross
        level in the filling.

    Returns
    -------
    ndarray
        Point samples of the integral.
    """
    if level_window is None:
        level_window = (filling.level_lo, filling.level_hi - 1)
    lo, hi = int(level_window[0]), int(level_window[1])
    if lo > hi:
        raise ConfigError("empty level window (%d, %d)" % (lo, hi))
    if lo < filling.level_lo or hi > filling.level_hi - 1:
        raise ConfigError(
            "window (%d, %d) leaves the cross levels [%d, %d]"
            % (lo, hi, filling.level_lo, filling.level_hi - 1))
    u = _check_edge_values(filling, edge_values)
    out = np.zeros(filling.space.n_points)
    for n in range(lo, hi + 1):
        out += _cross_blend(filling, u, n)
    return out


def partition_lipschitz_quotient(filling: Filling, level: int) -> float:
    """Largest measured difference quotient of the level partition.

    For every vertex the quotient ``|psi_x(xi) - psi_x(eta)| / d(xi,
    eta)`` is scanned over point pairs drawn from twice the ball (pairs
    farther out see at most one nonzero value bounded by ``1/r`` times
    their distance and cannot dominate).  Per vertex at most 192 points
    enter the scan, strided deterministically.

    Returns
    -------
    float
        Maximum measured quotient over the level.
    """
    part = build_partition(filling, level)
    space = filling.space
    worst = 0.0
    for row, vid in enumerate(part.vertex_ids):
        near, _ = space.ball_row(filling.centers[vid],
                                 2.0 * filling.radii[vid])
        if near.size > _QUOTIENT_POINTS:
            near = near[:: near.size // _QUOTIENT_POINTS + 1]
        vals = np.asarray(part.psi[row, near].todense()).ravel()
        pts = np.take(space.points, near, axis=0)
        dmat = _rowwise_dist(pts[:, None], pts[None], space.metric_kind)
        diff = np.abs(vals[:, None] - vals[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = np.where(dmat > 0.0, diff / dmat, 0.0)
        worst = max(worst, float(quot.max()))
    return worst
