"""Finite metric measure spaces: weighted point clouds with declared regularity.

A space stands in for a compact Ahlfors regular metric measure space at a
finite resolution.  It is a weighted point cloud together with the metric it
lives in, the finest scale at which its geometry is meaningful, and the
regularity exponent its constructor declares.  Integrals against the measure
are exact weighted sums over the cloud; metric balls are open (strict
inequality) throughout.

Balls are found with one lazily built kd-tree per space (`ball_rows`).
The tree only proposes candidates, asked at a radius enlarged by a
relative 1e-12; the space's own distance arithmetic and the strict test
decide membership, so every ball equals a full scan bit for bit, exact
ties included.

Audit routines (`ahlfors_fit`, `doubling_audit`, `porosity_scan`,
`codim_regularity_check`) measure the declared exponents empirically.  They
only probe balls with radius at least four times the resolution, below which
a finite cloud stops resembling the space it samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ConfigError, GateError

DEFAULT_POINT_BUDGET = 1 << 18
RADIUS_FLOOR_FACTOR = 4.0
_METRICS = {"euclidean": "euclidean", "sup": "chebyshev"}
_MINKOWSKI_P = {"euclidean": 2.0, "sup": np.inf}

# Slack for comparisons involving dyadic radii that are exactly at a
# validation boundary (e.g. 2**-n == 4 * resolution).
_REL_EPS = 1e-12


@dataclass
class FiniteMetricMeasureSpace:
    """Weighted point cloud with declared dimension, diameter and resolution.

    Parameters
    ----------
    points : ndarray, shape (n, d)
        Point coordinates, float64.
    weights : ndarray, shape (n,)
        Strictly positive measure weights (the measure of each point).
    metric_kind : {"euclidean", "sup"}
    resolution : float
        Finest meaningful scale (grid spacing, cell diameter, ...).
    declared_Q : float
        Ahlfors regularity exponent the constructor declares.
    declared_diam : float
        Diameter of the cloud in the chosen metric.
    """

    points: np.ndarray
    weights: np.ndarray
    metric_kind: str
    resolution: float
    declared_Q: float
    declared_diam: float
    _kdtree: cKDTree | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ConfigError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(self.points)):
            raise ConfigError("point coordinates must be finite")
        if self.weights.shape != (self.points.shape[0],):
            raise ConfigError("weights must be one per point")
        if not np.all(self.weights > 0):
            raise ConfigError("weights must be strictly positive")
        if self.metric_kind not in _METRICS:
            raise ConfigError(f"unknown metric {self.metric_kind!r}")
        if not (self.resolution > 0 and math.isfinite(self.resolution)):
            raise ConfigError("resolution must be positive")
        if not (self.declared_Q > 0 and math.isfinite(self.declared_Q)):
            raise ConfigError("declared_Q must be positive and finite")
        if not (self.declared_diam > 0 and math.isfinite(self.declared_diam)):
            raise ConfigError("declared_diam must be positive and finite")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def dist_from(self, coord) -> np.ndarray:
        """Distances from every cloud point to a single coordinate."""
        return _rowwise_dist(self.points, np.asarray(coord, dtype=np.float64),
                             self.metric_kind)

    def cross_dist(self, coords_a, coords_b) -> np.ndarray:
        """Pairwise distance matrix between two coordinate arrays."""
        return cdist(
            np.atleast_2d(coords_a),
            np.atleast_2d(coords_b),
            metric=_METRICS[self.metric_kind],
        )

    def _tree_candidates(self, coords, radii):
        """Tree proposals for the open balls B(coords, radii): every point
        within ``radii (1 + 1e-12)``, a superset of each open ball."""
        if self._kdtree is None:
            self._kdtree = cKDTree(self.points)
        return self._kdtree.query_ball_point(
            coords, radii * (1.0 + _REL_EPS), p=_MINKOWSKI_P[self.metric_kind],
            return_sorted=True)

    def ball_rows(self, center_indices, radii) -> list:
        """Members of the open balls B(x_c, r) around cloud points.

        Returns one ascending index array per center and radius.  The
        kd-tree proposes the points within ``r (1 + 1e-12)``; their
        distances are recomputed with the arithmetic of `dist_from` and
        tested with strict ``<``, so each row is exactly
        ``np.flatnonzero(dist_from(x_c) < r)``.
        """
        centers = np.asarray(center_indices, dtype=np.int64).reshape(-1)
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64),
                                centers.shape)
        coords = self.points[centers]
        rows = self._tree_candidates(coords, radii)
        counts = np.fromiter(map(len, rows), dtype=np.int64,
                             count=centers.size)
        cand = np.fromiter(itertools.chain.from_iterable(rows),
                           dtype=np.int64, count=int(counts.sum()))
        owner = np.repeat(np.arange(centers.size), counts)
        inside = _rowwise_dist(self.points[cand], coords[owner],
                               self.metric_kind) < radii[owner]
        indptr = np.zeros(centers.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[inside], minlength=centers.size),
                  out=indptr[1:])
        members = cand[inside]
        return [members[a:b] for a, b in zip(indptr[:-1], indptr[1:])]

    def ball_indices(self, center_index: int, radius: float) -> np.ndarray:
        """Indices of cloud points in the open ball around a cloud point.

        The one-center form of `ball_rows`: the same tree candidates and
        exact test, without the batch bookkeeping.
        """
        center = self.points[center_index]
        near = np.asarray(self._tree_candidates(center, radius),
                          dtype=np.int64)
        return near[_rowwise_dist(self.points[near], center,
                                  self.metric_kind) < radius]

    def ball_mass(self, center_index: int, radius: float) -> float:
        return float(self.weights[self.ball_indices(center_index, radius)].sum())

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def measured_diam(self) -> float:
        """Exact diameter of the cloud (chunked; O(n^2) distances)."""
        if self.metric_kind == "sup":
            return float((self.points.max(axis=0) - self.points.min(axis=0)).max())
        best = 0.0
        for lo in range(0, self.n_points, 2048):
            block = self.points[lo : lo + 2048]
            best = max(best, float(self.cross_dist(block, self.points).max()))
        return best


@dataclass
class SubsetMask:
    """Marks a closed subset F of a space together with its own measure.

    ``subset_weights`` is a full-length array carrying the measure of F
    (positive exactly on members); ``declared_lambda`` is the regularity
    exponent declared for F.
    """

    member_flags: np.ndarray
    declared_lambda: float
    subset_weights: np.ndarray

    def __post_init__(self):
        self.member_flags = np.asarray(self.member_flags, dtype=bool)
        self.subset_weights = np.ascontiguousarray(self.subset_weights, dtype=np.float64)
        if self.member_flags.ndim != 1:
            raise ConfigError("member_flags must be a flat boolean array")
        if self.subset_weights.shape != self.member_flags.shape:
            raise ConfigError("subset_weights must align with member_flags")
        if not self.member_flags.any():
            raise ConfigError("subset mask is empty")
        if not (self.declared_lambda > 0):
            raise ConfigError("declared_lambda must be positive")
        on = self.subset_weights[self.member_flags]
        off = self.subset_weights[~self.member_flags]
        if not np.all(on > 0) or (off.size and np.any(off != 0)):
            raise ConfigError("subset_weights must be positive exactly on members")

    @property
    def member_indices(self) -> np.ndarray:
        return np.flatnonzero(self.member_flags)

    @property
    def n_members(self) -> int:
        return int(self.member_flags.sum())

    def validate_against(self, space: FiniteMetricMeasureSpace):
        if self.member_flags.shape[0] != space.n_points:
            raise ConfigError("mask length does not match the space")
        if self.declared_lambda > space.declared_Q * (1 + _REL_EPS):
            raise ConfigError("declared_lambda exceeds the ambient dimension")


@dataclass
class IfsMap:
    ratio: float
    offset: tuple
    rotation_deg: float = 0.0


@dataclass
class IfsSystem:
    maps: list
    depth: int


def unit_cube_space(dim: int, depth: int, metric: str = "sup",
                    point_budget: int = DEFAULT_POINT_BUDGET) -> FiniteMetricMeasureSpace:
    """Dyadic grid on the unit cube: cell centers (k + 1/2) / 2**depth.

    Each of the 2**(dim*depth) points carries equal weight, so the total
    mass is one.  The sup metric is the default; with it the diameter stays
    below one and fillings can start at level zero.
    """
    if not (1 <= dim <= 3):
        raise ConfigError("dim must be 1, 2 or 3")
    if not (1 <= depth <= 12):
        raise ConfigError("depth must be between 1 and 12")
    n_side = 1 << depth
    n_total = n_side**dim
    if n_total > point_budget:
        raise ConfigError(
            f"cube would have {n_total} points, over the budget of {point_budget}")
    axis = (np.arange(n_side, dtype=np.float64) + 0.5) / n_side
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.full(n_total, 1.0 / n_total)
    side = 1.0 - 1.0 / n_side
    diam = side if metric == "sup" else math.sqrt(dim) * side
    return FiniteMetricMeasureSpace(
        points=points,
        weights=weights,
        metric_kind=metric,
        resolution=1.0 / n_side,
        declared_Q=float(dim),
        declared_diam=diam,
    )


def _map_matrix(m: IfsMap, dim: int) -> np.ndarray:
    if m.rotation_deg and dim != 2:
        raise ConfigError("rotations are only supported for planar systems")
    if dim == 2 and m.rotation_deg:
        a = math.radians(m.rotation_deg)
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    else:
        rot = np.eye(dim)
    return m.ratio * rot


def ifs_attractor(system: IfsSystem, submaps=None, metric: str = "euclidean",
                  declared_Q: float | None = None,
                  declared_lambda: float | None = None,
                  point_budget: int = DEFAULT_POINT_BUDGET):
    """Sample an iterated function system attractor, one point per word.

    Every word of length ``depth`` over the maps contributes the image of a
    base point (the fixed point of the first map), weighted uniformly so the
    total mass is one.  With equal contraction ratios ``r`` the declared
    dimension is ``log(#maps) / log(1/r)``; unequal ratios require an
    explicit ``declared_Q``.

    When ``submaps`` names a proper subcollection, the returned mask marks
    the sub-attractor (words using only those letters) with its own uniform
    measure of total mass one.

    Returns
    -------
    (space, mask) where ``mask`` is None unless ``submaps`` was given.
    """
    maps = system.maps
    k = len(maps)
    if k < 2:
        raise ConfigError("an attractor needs at least two maps")
    ratios = [m.ratio for m in maps]
    if not all(0 < r < 1 for r in ratios):
        raise ConfigError("contraction ratios must lie in (0, 1)")
    if system.depth < 1:
        raise ConfigError("depth must be at least 1")
    if system.depth >= point_budget.bit_length():
        # k >= 2 puts at least 2**depth > point_budget points; refuse before
        # k**depth, which for a huge depth would not fit in memory
        raise ConfigError(
            f"attractor would have at least 2^{system.depth} points, over the "
            f"budget of {point_budget}")
    n_total = k**system.depth
    if n_total > point_budget:
        raise ConfigError(
            f"attractor would have {n_total} points, over the budget of {point_budget}")

    dim = len(maps[0].offset)
    if any(len(m.offset) != dim for m in maps):
        raise ConfigError("all offsets must share a dimension")
    if declared_Q is None:
        if max(ratios) - min(ratios) > 1e-15:
            raise ConfigError("unequal ratios: pass declared_Q explicitly")
        declared_Q = math.log(k) / math.log(1.0 / ratios[0])

    mats = [_map_matrix(m, dim) for m in maps]
    offs = [np.asarray(m.offset, dtype=np.float64) for m in maps]

    # Base point: fixed point of the first map, x = (I - A_0)^-1 t_0.
    base = np.linalg.solve(np.eye(dim) - mats[0], offs[0])

    # points[word] = S_{w_1}(S_{w_2}(...S_{w_depth}(base))), words in
    # lexicographic order.  Built inside-out: one application of every map
    # to the previous cloud per round.
    pts = base[None, :]
    for _ in range(system.depth):
        pts = np.concatenate([pts @ mats[i].T + offs[i] for i in range(k)], axis=0)
    weights = np.full(n_total, 1.0 / n_total)

    space = FiniteMetricMeasureSpace(
        points=pts,
        weights=weights,
        metric_kind=metric,
        resolution=1.0,  # placeholder, fixed below with the measured diameter
        declared_Q=declared_Q,
        declared_diam=1.0,
    )
    diam = space.measured_diam()
    if diam <= 0:
        raise ConfigError("degenerate attractor: all points coincide")
    space.declared_diam = diam
    space.resolution = max(ratios) ** system.depth * diam

    mask = None
    if submaps is not None:
        submaps = sorted(set(int(i) for i in submaps))
        if any(i < 0 or i >= k for i in submaps):
            raise ConfigError("submap indices out of range")
        if len(submaps) >= k:
            raise ConfigError("submaps must be a proper subcollection")
        if declared_lambda is None:
            if len(submaps) < 2:
                raise ConfigError(
                    "a single submap has dimension zero; not a valid subset")
            sub_ratios = [ratios[i] for i in submaps]
            if max(sub_ratios) - min(sub_ratios) > 1e-15:
                raise ConfigError("unequal subratios: pass declared_lambda explicitly")
            declared_lambda = math.log(len(submaps)) / math.log(1.0 / sub_ratios[0])
        # A word indexes its point in base k, most significant digit first.
        idx = np.arange(n_total, dtype=np.int64)
        flags = np.ones(n_total, dtype=bool)
        allowed = np.zeros(k, dtype=bool)
        allowed[submaps] = True
        for j in range(system.depth):
            digit = (idx // k ** (system.depth - 1 - j)) % k
            flags &= allowed[digit]
        sub_weights = np.zeros(n_total)
        sub_weights[flags] = 1.0 / len(submaps) ** system.depth
        mask = SubsetMask(member_flags=flags, declared_lambda=declared_lambda,
                          subset_weights=sub_weights)
        mask.validate_against(space)
    return space, mask


def middle_thirds_system(depth: int) -> IfsSystem:
    """The two-map system x/3, x/3 + 2/3 whose attractor is the Cantor set."""
    return IfsSystem(
        maps=[IfsMap(ratio=1 / 3, offset=(0.0,)), IfsMap(ratio=1 / 3, offset=(2 / 3,))],
        depth=depth,
    )


def sierpinski_system(depth: int) -> IfsSystem:
    """Three half-scale maps whose attractor is the Sierpinski triangle."""
    return IfsSystem(
        maps=[
            IfsMap(ratio=0.5, offset=(0.0, 0.0)),
            IfsMap(ratio=0.5, offset=(0.5, 0.0)),
            IfsMap(ratio=0.5, offset=(0.25, math.sqrt(3) / 4)),
        ],
        depth=depth,
    )


def cantor_mask(space: FiniteMetricMeasureSpace, depth: int) -> SubsetMask:
    """Middle-thirds Cantor subset of a one-dimensional grid space.

    Grid points inside a depth-``depth`` Cantor interval are members.  Each
    of the 2**depth intervals carries mass 2**-depth, split equally among
    the grid points it contains, so the subset measure matches the
    log2/log3-dimensional measure down to the interval scale and has total
    mass one.
    """
    if space.dim != 1:
        raise ConfigError("cantor_mask needs a one-dimensional space")
    if depth < 0:
        raise ConfigError("Cantor depth must be non-negative")
    if 3.0 ** (-depth) < space.resolution:
        raise ConfigError("Cantor depth finer than the grid resolution")
    x = space.points[:, 0]
    flags = np.ones(space.n_points, dtype=bool)
    interval = np.zeros(space.n_points, dtype=np.int64)
    t = x.copy()
    for _ in range(depth):
        t = t * 3.0
        hi = t >= 2.0
        lo = t < 1.0
        flags &= hi | lo
        interval = interval * 2 + hi.astype(np.int64)
        t = np.where(hi, t - 2.0, t)
    weights = np.zeros(space.n_points)
    members = np.flatnonzero(flags)
    counts = np.bincount(interval[members], minlength=2**depth)
    per_interval = 2.0 ** (-depth)
    weights[members] = per_interval / counts[interval[members]]
    return SubsetMask(
        member_flags=flags,
        declared_lambda=math.log(2) / math.log(3),
        subset_weights=weights,
    )


def subspace(space: FiniteMetricMeasureSpace, mask: SubsetMask):
    """The subset as a space of its own, carrying the subset measure.

    Returns (subspace, point_embedding) where point_embedding maps subset
    point indices to ambient indices.
    """
    mask.validate_against(space)
    members = mask.member_indices
    pts = space.points[members]
    sub = FiniteMetricMeasureSpace(
        points=pts,
        weights=mask.subset_weights[members],
        metric_kind=space.metric_kind,
        resolution=space.resolution,
        declared_Q=mask.declared_lambda,
        declared_diam=1.0,
    )
    sub.declared_diam = sub.measured_diam() if len(members) > 1 else space.resolution
    return sub, members


def dist_to_subset(space: FiniteMetricMeasureSpace, mask: SubsetMask) -> np.ndarray:
    """Distance from every cloud point to the subset (zero on members)."""
    members = mask.member_indices
    out = np.empty(space.n_points)
    member_pts = space.points[members]
    for lo in range(0, space.n_points, 2048):
        block = space.points[lo : lo + 2048]
        out[lo : lo + 2048] = space.cross_dist(block, member_pts).min(axis=1)
    return out


def _sample_indices(n, cap, rng):
    if n <= cap:
        return np.arange(n)
    return np.sort(rng.choice(n, size=cap, replace=False))


@dataclass
class AhlforsFit:
    Q_hat: float
    C_lo: float
    C_hi: float
    radii: list
    n_centers: int
    seed: int


def ahlfors_fit(space: FiniteMetricMeasureSpace, radii, *, seed: int = 0,
                max_centers: int = 256) -> AhlforsFit:
    """Log-log regression of ball mass against radius.

    Fits ``mass(xi, r) ~ C * r^Q`` over sampled centers and the given radii;
    the returned band (C_lo, C_hi) collects min and max of
    ``mass * r^-Q_hat``.  Radii must number at least three and respect the
    audit floor of four times the resolution.
    """
    radii = sorted(set(float(r) for r in radii))
    if len(radii) < 3:
        raise ConfigError("need at least three distinct radii for a fit")
    floor = RADIUS_FLOOR_FACTOR * space.resolution * (1 - _REL_EPS)
    if any(r < floor for r in radii):
        raise ConfigError("radius below the audit floor of 4 * resolution")
    if any(r >= space.declared_diam for r in radii):
        raise ConfigError("radius must stay below the diameter")
    if space.n_points < 2:
        raise ConfigError("degenerate space: nothing to fit")
    rng = np.random.default_rng(seed)
    centers = _sample_indices(space.n_points, max_centers, rng)
    masses = np.empty((len(centers), len(radii)))
    for i, c in enumerate(centers):
        d = space.dist_from(space.points[c])
        for j, r in enumerate(radii):
            masses[i, j] = space.weights[d < r].sum()
    logs_r = np.log(np.tile(radii, len(centers)))
    logs_m = np.log(masses.ravel())
    slope, _ = np.polyfit(logs_r, logs_m, 1)
    scaled = masses / np.power(radii, slope)[None, :]
    return AhlforsFit(
        Q_hat=float(slope),
        C_lo=float(scaled.min()),
        C_hi=float(scaled.max()),
        radii=radii,
        n_centers=len(centers),
        seed=seed,
    )


def doubling_audit(space: FiniteMetricMeasureSpace, *, lambdas=(2.0, 4.0),
                   radii=None, seed: int = 0, max_centers: int = 128) -> float:
    """Largest measured ratio mass(lam * r) / (lam^Q * mass(r))."""
    if radii is None:
        radii = _dyadic_radii(space, top=space.declared_diam / max(lambdas))
    rng = np.random.default_rng(seed)
    centers = _sample_indices(space.n_points, max_centers, rng)
    worst = 0.0
    for c in centers:
        d = space.dist_from(space.points[c])
        for r in radii:
            base = space.weights[d < r].sum()
            for lam in lambdas:
                grown = space.weights[d < lam * r].sum()
                worst = max(worst, grown / (lam**space.declared_Q * base))
    return float(worst)


def _dyadic_radii(space, top=None):
    top = space.declared_diam / 2 if top is None else top
    floor = RADIUS_FLOOR_FACTOR * space.resolution * (1 - _REL_EPS)
    radii = []
    if top > 0:  # a top that underflows to 0 has no log2
        r = 2.0 ** math.floor(math.log2(top))
        while r >= floor:
            radii.append(r)
            r /= 2
    if not radii:
        raise ConfigError("no radius fits between the audit floor and the diameter")
    return radii


DEFAULT_POROSITY_GRID = (0.5, 0.375, 0.25, 0.1875, 0.125, 0.09375, 0.0625,
                         0.046875, 0.03125)


def porosity_scan(space: FiniteMetricMeasureSpace, mask: SubsetMask,
                  c_grid=DEFAULT_POROSITY_GRID, *, radii=None, seed: int = 0,
                  max_centers: int = 512):
    """Largest porosity constant that every tested ball admits.

    A constant c passes when every sampled ball B(xi, r) meeting the subset
    contains a witness point eta with B(eta, c*r) inside B and disjoint from
    the subset.  Returns the largest passing c from the descending grid, or
    None when even the smallest fails (e.g. the subset is everything).
    """
    mask.validate_against(space)
    if radii is None:
        radii = _dyadic_radii(space)
    rng = np.random.default_rng(seed)
    centers = _sample_indices(space.n_points, max_centers, rng)
    dist_f = dist_to_subset(space, mask)
    c_grid = sorted(set(float(c) for c in c_grid), reverse=True)
    if not all(0 < c < 1 for c in c_grid):
        raise ConfigError("porosity constants must lie in (0, 1)")

    # For a ball B(xi, r), a witness eta works for every c up to
    # min((r - d(eta, xi)) / r, dist_F(eta) / r); the ball's capability is
    # the best witness, and a grid constant passes when it is below the
    # capability of every tested ball.
    capability = math.inf
    for ci in centers:
        d = space.dist_from(space.points[ci])
        for r in radii:
            if dist_f[ci] >= r:
                continue  # ball misses the subset
            per_point = np.minimum((r - d) / r, dist_f / r)
            capability = min(capability, float(per_point.max()))
    for c in c_grid:
        if c <= capability:
            return c
    return None


def codim_regularity_check(space: FiniteMetricMeasureSpace, mask: SubsetMask,
                           gamma: float, radii, *, seed: int = 0,
                           max_centers: int = 256):
    """Band of mu(B_Z(xi, r)) / (nu(B_F(xi, r)) * r^gamma) over subset centers.

    A tight band certifies that the subset has co-dimension gamma inside the
    space; the band degrades as the radius span grows when gamma is wrong.
    """
    mask.validate_against(space)
    radii = sorted(set(float(r) for r in radii))
    floor = RADIUS_FLOOR_FACTOR * space.resolution * (1 - _REL_EPS)
    if any(r < floor for r in radii):
        raise ConfigError("radius below the audit floor of 4 * resolution")
    rng = np.random.default_rng(seed)
    members = mask.member_indices
    centers = members[_sample_indices(len(members), max_centers, rng)]
    lo, hi = math.inf, 0.0
    for ci in centers:
        d = space.dist_from(space.points[ci])
        for r in radii:
            inside = d < r
            nu = mask.subset_weights[inside].sum()
            if nu <= 0:
                raise GateError(f"empty subset ball at radius {r}: sub-resolution")
            ratio = space.weights[inside].sum() / (nu * r**gamma)
            lo = min(lo, ratio)
            hi = max(hi, ratio)
    return float(lo), float(hi)


def _rowwise_dist(pts_a, pts_b, metric_kind):
    diff = np.abs(pts_a - pts_b)
    if metric_kind == "sup":
        return diff.max(axis=1)
    return np.sqrt((diff * diff).sum(axis=1))


def metric_spot_check(space: FiniteMetricMeasureSpace, *, trials: int = 200,
                      seed: int = 0) -> float:
    """Largest triangle-inequality violation over random point triples."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, space.n_points, size=(trials, 3))
    a, b, c = (space.points[idx[:, k]] for k in range(3))
    d_ab = _rowwise_dist(a, b, space.metric_kind)
    d_bc = _rowwise_dist(b, c, space.metric_kind)
    d_ac = _rowwise_dist(a, c, space.metric_kind)
    return float(np.maximum(d_ac - d_ab - d_bc, 0.0).max())


def osc_overlap_fraction(space: FiniteMetricMeasureSpace, system: IfsSystem) -> float:
    """Empirical open-set-condition check via overlap of depth-1 images.

    Returns the largest fraction of one first-level cylinder lying within
    the resolution of another; values near zero are consistent with the
    separation the constructor assumes.
    """
    k = len(system.maps)
    n = space.n_points
    block = n // k
    worst = 0.0
    for i in range(k):
        pts_i = space.points[i * block : (i + 1) * block]
        for j in range(k):
            if i == j:
                continue
            pts_j = space.points[j * block : (j + 1) * block]
            d = space.cross_dist(pts_i, pts_j).min(axis=1)
            worst = max(worst, float((d < space.resolution).mean()))
    return worst


# ---------------------------------------------------------------------------
# Descriptors (the JSON interchange format for spaces and subsets)
# ---------------------------------------------------------------------------

def space_from_descriptor(desc: dict, point_budget: int = DEFAULT_POINT_BUDGET):
    """Build (space, mask or None) from a descriptor dictionary.

    A field of the wrong type or out of the float range raises
    `ConfigError`, like every other malformed descriptor.
    """
    try:
        return _space_from_descriptor(desc, point_budget)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("malformed space descriptor: %s" % exc) from exc


def _space_from_descriptor(desc, point_budget):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("space descriptor must be a dict with a 'kind'")
    desc = dict(desc)
    subset_desc = desc.pop("subset", None)
    if subset_desc is not None and not isinstance(subset_desc, dict):
        raise ConfigError("subset descriptor must be a dict")
    kind = desc.pop("kind")
    mask = None
    if kind == "cube":
        _require_keys(desc, {"dim", "depth"}, {"metric"})
        space = unit_cube_space(int(desc["dim"]), int(desc["depth"]),
                                metric=desc.get("metric", "sup"),
                                point_budget=point_budget)
    elif kind == "ifs":
        _require_keys(desc, {"maps", "depth"},
                      {"metric", "declared_Q", "declared_lambda"})
        maps = [IfsMap(ratio=float(m["ratio"]),
                       offset=tuple(float(v) for v in m["offset"]),
                       rotation_deg=float(m.get("rotation_deg", 0.0)))
                for m in desc["maps"]]
        system = IfsSystem(maps=maps, depth=int(desc["depth"]))
        submaps = None
        if subset_desc is not None and "submaps" in subset_desc:
            _require_keys(subset_desc, {"submaps"}, {"lambda"})
            submaps = subset_desc["submaps"]
        space, mask = ifs_attractor(
            system, submaps=submaps, metric=desc.get("metric", "euclidean"),
            declared_Q=desc.get("declared_Q"),
            declared_lambda=(subset_desc or {}).get("lambda"),
            point_budget=point_budget)
        subset_desc = None if submaps is not None else subset_desc
    elif kind == "pointset":
        _require_keys(desc, {"points", "weights", "metric", "resolution",
                             "declared_Q", "declared_diam"}, set())
        space = FiniteMetricMeasureSpace(
            points=np.asarray(desc["points"], dtype=np.float64),
            weights=np.asarray(desc["weights"], dtype=np.float64),
            metric_kind=desc["metric"],
            resolution=float(desc["resolution"]),
            declared_Q=float(desc["declared_Q"]),
            declared_diam=float(desc["declared_diam"]),
        )
        if space.n_points > point_budget:
            raise ConfigError("pointset exceeds the point budget")
    else:
        raise ConfigError(f"unknown space kind {kind!r}")

    if subset_desc is not None:
        mask = mask_from_descriptor(space, subset_desc)
    return space, mask


def mask_from_descriptor(space: FiniteMetricMeasureSpace, desc: dict) -> SubsetMask:
    """Build a subset mask from its descriptor.

    Two forms: {"cantor_depth": k} selects the middle-thirds mask on a
    one-dimensional cube space, {"indices": [...], "lambda": ...}
    (optionally with aligned "weights") lists the members explicitly.
    Malformed fields raise `ConfigError`.
    """
    try:
        return _mask_from_descriptor(space, desc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("malformed subset descriptor: %s" % exc) from exc


def _mask_from_descriptor(space, desc):
    if not isinstance(desc, dict):
        raise ConfigError("subset descriptor must be a dict")
    if "cantor_depth" in desc:
        _require_keys(dict(desc), {"cantor_depth"}, set())
        return cantor_mask(space, int(desc["cantor_depth"]))
    if "indices" not in desc or "lambda" not in desc:
        raise ConfigError("subset descriptor needs 'indices' and 'lambda'")
    _require_keys(dict(desc), {"indices", "lambda"}, {"weights"})
    indices = np.asarray(desc["indices"], dtype=np.int64)
    if indices.size == 0 or indices.min() < 0 or indices.max() >= space.n_points:
        raise ConfigError("subset indices out of range")
    flags = np.zeros(space.n_points, dtype=bool)
    flags[indices] = True
    weights = np.zeros(space.n_points)
    if "weights" in desc and desc["weights"] is not None:
        w = np.asarray(desc["weights"], dtype=np.float64)
        if w.shape != indices.shape:
            raise ConfigError("subset weights must align with subset indices")
        weights[indices] = w
    else:
        weights[indices] = 1.0 / indices.size
    mask = SubsetMask(member_flags=flags, declared_lambda=float(desc["lambda"]),
                      subset_weights=weights)
    mask.validate_against(space)
    return mask


def mask_to_descriptor(mask: SubsetMask) -> dict:
    members = mask.member_indices
    return {
        "indices": members.tolist(),
        "lambda": mask.declared_lambda,
        "weights": mask.subset_weights[members].tolist(),
    }


def space_to_descriptor(space: FiniteMetricMeasureSpace) -> dict:
    """Explicit pointset descriptor reproducing the space exactly."""
    return {
        "kind": "pointset",
        "points": space.points.tolist(),
        "weights": space.weights.tolist(),
        "metric": space.metric_kind,
        "resolution": space.resolution,
        "declared_Q": space.declared_Q,
        "declared_diam": space.declared_diam,
    }


def _require_keys(desc: dict, required: set, optional: set):
    keys = set(desc)
    missing = required - keys
    if missing:
        raise ConfigError(f"descriptor missing keys: {sorted(missing)}")
    unknown = keys - required - optional - {"subset", "kind"}
    if unknown:
        raise ConfigError(f"descriptor has unknown keys: {sorted(unknown)}")
