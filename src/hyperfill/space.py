"""Finite metric measure spaces: weighted point clouds with declared regularity.

A space stands in for a compact Ahlfors regular metric measure space at a
finite resolution.  It is a weighted point cloud together with the metric it
lives in, the finest scale at which its geometry is meaningful, and the
regularity exponent its constructor declares.  Integrals against the measure
are exact weighted sums over the cloud; metric balls are open (strict
inequality) throughout.

Every distance comes from `_rowwise_dist`, over many pairs in row blocks
under one byte budget (`_dist_blocks`).  Every ball query takes as candidates
the points of the grid cells around the center's own (`_Cells`); the strict
test decides membership, so every ball equals a full scan bit for bit.

Audit routines (`ahlfors_fit`, `doubling_audit`, `porosity_scan`,
`codim_regularity_check`) measure the declared exponents empirically.  They
only probe balls with radius at least four times the resolution, below which
a finite cloud stops resembling the space it samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .errors import ConfigError, GateError

DEFAULT_POINT_BUDGET = 1 << 18
RADIUS_FLOOR_FACTOR = 4.0
_METRICS = ("euclidean", "sup")
# Bytes of one block of distances (16 MiB halved the filling audit's speed).
_BLOCK_BYTES = 1 << 20

# Slack for comparisons involving dyadic radii that are exactly at a
# validation boundary (e.g. 2**-n == 4 * resolution).
_REL_EPS = 1e-12


def _cached(build):
    """Keep ``build(owner, ...)`` in ``owner._cache`` under the builder's
    name and the arguments after the owner: the first call builds, later
    calls return the kept object, and a build that raises stores nothing.
    Each space, filling and nested filling owns one such dict, so all it
    derives is listed in one place; a `dataclasses.replace` copy starts
    with an empty one."""
    @functools.wraps(build)
    def cached(owner, *args, **kwargs):
        key = (build.__name__, *args, *kwargs.values())
        if key not in owner._cache:
            owner._cache[key] = build(owner, *args, **kwargs)
        return owner._cache[key]

    return cached


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
    _cache: dict = field(default_factory=dict, init=False, repr=False,
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
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ConfigError("weights must be positive and finite")
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

    @_cached
    def _tree(self) -> cKDTree:
        """The kd-tree: its ``indices`` list the points in leaf order, the
        certificate plan's spatially compact runs."""
        return cKDTree(self.points)

    def _cells(self, side: float) -> _Cells:
        """The cells of the given side, kept under the key ``("_cells",)``
        until another side is asked for: a scan at one radius builds them
        once, and a space holds one index at a time."""
        cells = self._cache.get(("_cells",))
        if cells is None or cells.side != side:
            cells = self._cache["_cells",] = _Cells(self.points, side)
        return cells

    def ball_rows(self, center_indices, radii) -> sparse.csr_matrix:
        """Members of the open balls B(x_c, r) around cloud points.

        Returns a CSR matrix with data 1.0 whose row for each center and
        radius lists its ball in ascending order.  Centers whose radii
        share a binade share the cells of side ``max r (1 + 1e-12)``;
        their candidates are tested with the arithmetic of `dist_from` and
        strict ``<``: each row is ``np.flatnonzero(dist_from(x_c) < r)``.
        """
        centers = np.asarray(center_indices, dtype=np.int64).reshape(-1)
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64),
                                centers.shape)
        binade = np.frexp(radii)[1]
        rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, np.int64)]
        for e in np.unique(binade):
            at = np.flatnonzero(binade == e)
            group, r = centers[at], radii[at]
            if not r.max() > 0:  # no open ball of radius <= 0 holds a point
                continue
            cells = self._cells(r.max() * (1.0 + _REL_EPS))
            for _, _, owner, member in _cell_pairs(cells, cells.keys[group],
                                                   self.dim):
                inside = _rowwise_dist(
                    self.points.take(member, axis=0),
                    self.points.take(group[owner], axis=0),
                    self.metric_kind) < r[owner]
                rows.append(at[owner[inside]])
                cols.append(member[inside])
        # the conversion sorts each row
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        return sparse.csr_matrix((np.ones(rows.size), (rows, cols)),
                                 shape=(centers.size, self.n_points))

    def ball_row(self, center_index: int, radius: float):
        """``(indices, distances)`` of the open ball around a cloud point:
        the one-center form of `ball_rows`, with the same candidates and
        exact test, that also returns the distances it computed."""
        if not radius > 0:  # no open ball of radius <= 0 holds a point
            return np.empty(0, dtype=np.int64), np.empty(0)
        cells = self._cells(radius * (1.0 + _REL_EPS))
        lo, hi = cells.runs(cells.keys[center_index])
        near = np.sort(np.concatenate([cells.order[a:b] for a, b in
                                       zip(lo.tolist(), hi.tolist())]))
        dist = _rowwise_dist(self.points.take(near, axis=0),
                             self.points[center_index], self.metric_kind)
        inside = dist < radius
        return near[inside], dist[inside]

    def measured_diam(self) -> float:
        """Exact diameter of the cloud (blocked; O(n^2) distances)."""
        return _measured_diam(self.points, self.metric_kind)


def _measured_diam(points: np.ndarray, metric_kind: str) -> float:
    """Exact diameter of points, known before a space is built on them."""
    if metric_kind == "sup":
        return float((points.max(axis=0) - points.min(axis=0)).max())
    return math.sqrt(max(float(sq.max()) for _, sq in _dist_blocks(
        points, points, metric_kind, upper=True, root=False)))


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
        if not np.all((on > 0) & np.isfinite(on)) or np.any(off != 0):
            raise ConfigError("subset_weights must be positive and finite "
                              "exactly on members")

    @property
    def member_indices(self) -> np.ndarray:
        return np.flatnonzero(self.member_flags)

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

    if metric not in _METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    diam = _measured_diam(pts, metric)
    if diam <= 0:
        raise ConfigError("degenerate attractor: all points coincide")
    space = FiniteMetricMeasureSpace(
        points=pts,
        weights=weights,
        metric_kind=metric,
        resolution=max(ratios) ** system.depth * diam,
        declared_Q=declared_Q,
        declared_diam=diam,
    )

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
        declared_diam=(_measured_diam(pts, space.metric_kind)
                       if len(members) > 1 else space.resolution),
    )
    return sub, members


def dist_to_subset(space: FiniteMetricMeasureSpace, mask: SubsetMask) -> np.ndarray:
    """Distance from every cloud point to the subset (zero on members)."""
    near = np.full(space.n_points, np.inf)
    member_pts = np.take(space.points, mask.member_indices, axis=0)
    for _, sq in _dist_blocks(member_pts, space.points, space.metric_kind,
                              root=False):
        np.minimum(near, sq.min(axis=0), out=near)
    return near if space.metric_kind == "sup" else np.sqrt(near, out=near)


def _sample_indices(n, cap, seed):
    if n <= cap:
        return np.arange(n)
    return np.sort(np.random.default_rng(seed).choice(n, cap, replace=False))


@dataclass
class AhlforsFit:
    Q_hat: float
    C_lo: float
    C_hi: float
    radii: list
    n_centers: int
    seed: int


# Centers sampled by the audits below; every cloud point when fewer.
_AHLFORS_CENTERS = 256
_DOUBLING_CENTERS = 128
_POROSITY_CENTERS = 512
_CODIM_CENTERS = 256

# Growth factors lam of the doubling audit.
_DOUBLING_FACTORS = (2.0, 4.0)

# Porosity constants tried by `porosity_scan`, in descending order.
_POROSITY_GRID = (0.5, 0.375, 0.25, 0.1875, 0.125, 0.09375, 0.0625,
                  0.046875, 0.03125)


def ahlfors_fit(space: FiniteMetricMeasureSpace, radii, *,
                seed: int = 0) -> AhlforsFit:
    """Log-log regression of ball mass against radius.

    Fits ``mass(xi, r) ~ C * r^Q`` over up to 256 sampled centers and the
    given radii; the returned band (C_lo, C_hi) collects min and max of
    ``mass * r^-Q_hat``.  Radii must number at least three and respect the
    audit floor of four times the resolution.
    """
    radii = _audit_radii(space, radii, 3,
                         "need at least three distinct radii for a fit")
    if any(r >= space.declared_diam for r in radii):
        raise ConfigError("radius must stay below the diameter")
    if space.n_points < 2:
        raise ConfigError("degenerate space: nothing to fit")
    centers = _sample_indices(space.n_points, _AHLFORS_CENTERS, seed)
    (masses,) = _ball_masses(space, centers, radii, space.weights)
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


def doubling_audit(space: FiniteMetricMeasureSpace, *,
                   seed: int = 0) -> float:
    """Largest measured ratio mass(lam * r) / (lam^Q * mass(r)).

    Probes lam = 2 and 4 at up to 128 sampled centers and the dyadic radii
    from the audit floor up to a quarter of the diameter.
    """
    radii = _dyadic_radii(
        space, top=space.declared_diam / max(_DOUBLING_FACTORS))
    centers = _sample_indices(space.n_points, _DOUBLING_CENTERS, seed)
    grown = [lam * r for lam in (1.0,) + _DOUBLING_FACTORS for r in radii]
    masses = _ball_masses(space, centers, grown, space.weights)[0]
    base, *more = np.split(masses, len(_DOUBLING_FACTORS) + 1, axis=1)
    return max(float((m / (lam**space.declared_Q * base)).max())
               for lam, m in zip(_DOUBLING_FACTORS, more))


def _ball_masses(space, centers, radii, *weights):
    """``masses[k, i, j] = weights[k][d < radii[j]].sum()``, ``d`` the
    distances to ``centers[i]`` from one `dist_from` per center."""
    masses = np.empty((len(weights), len(centers), len(radii)))
    for i, c in enumerate(centers):
        d = space.dist_from(space.points[c])
        for j, r in enumerate(radii):
            inside = d < r
            for k, w in enumerate(weights):
                masses[k, i, j] = w[inside].sum()
    return masses


def _audit_radii(space, radii, least, too_few):
    """Distinct ascending radii, ``least`` or more, none below the floor."""
    radii = sorted(set(float(r) for r in radii))
    if len(radii) < least:
        raise ConfigError(too_few)
    floor = RADIUS_FLOOR_FACTOR * space.resolution * (1 - _REL_EPS)
    if any(r < floor for r in radii):
        raise ConfigError("radius below the audit floor of 4 * resolution")
    return radii


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


def porosity_scan(space: FiniteMetricMeasureSpace, mask: SubsetMask, *,
                  seed: int = 0):
    """Largest porosity constant that every tested ball admits.

    A constant c passes when every sampled ball B(xi, r) meeting the subset
    contains a witness point eta with B(eta, c*r) inside B and disjoint from
    the subset.  Balls are centred at up to 512 sampled points, with the
    dyadic radii from the audit floor up to half the diameter.  Returns the
    largest passing c from the grid 1/2, 3/8, 1/4, ..., 1/32, or None when
    even the smallest fails (e.g. the subset is everything).
    """
    mask.validate_against(space)
    radii = _dyadic_radii(space)
    centers = _sample_indices(space.n_points, _POROSITY_CENTERS, seed)
    dist_f = dist_to_subset(space, mask)

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
    for c in _POROSITY_GRID:
        if c <= capability:
            return c
    return None


def codim_regularity_check(space: FiniteMetricMeasureSpace, mask: SubsetMask,
                           gamma: float, radii, *, seed: int = 0):
    """Band of mu(B_Z(xi, r)) / (nu(B_F(xi, r)) * r^gamma) over subset centers.

    Up to 256 subset points are sampled as centers, at one radius or more.

    A tight band certifies that the subset has co-dimension gamma inside the
    space; the band degrades as the radius span grows when gamma is wrong.
    """
    mask.validate_against(space)
    radii = _audit_radii(space, radii, 1, "need at least one radius")
    members = mask.member_indices
    centers = members[_sample_indices(len(members), _CODIM_CENTERS, seed)]
    mu, nu = _ball_masses(space, centers, radii, space.weights,
                          mask.subset_weights)
    empty = np.argwhere(nu <= 0)
    if empty.size:
        raise GateError(f"empty subset ball at radius {radii[empty[0, 1]]}: "
                        "sub-resolution")
    ratio = mu / (nu * np.array([r**gamma for r in radii]))
    return float(ratio.min()), float(ratio.max())


def _rowwise_dist(pts_a, pts_b, metric_kind, root=True):
    """Distances over the last axis, the others broadcast (``(rows, 1, d)``
    against ``(1, cols, d)`` is a block): the largest ``|a_k - b_k|``, or the
    root of the squares added in coordinate order, like SciPy's ``cdist``
    (``root=False``: the sum; the root is monotone and correctly rounded)."""
    sup = metric_kind == "sup"
    fold, acc = np.maximum if sup else np.add, None
    for k in range(pts_a.shape[-1]):
        x = pts_a[..., k] - pts_b[..., k]
        x = np.abs(x, out=x) if sup else np.multiply(x, x, out=x)
        acc = x if acc is None else fold(acc, x, out=acc)
    return acc if sup or not root else np.sqrt(acc, out=acc)


def _dist_blocks(pts_a, pts_b, metric_kind, upper=False, root=True):
    """Yield ``(lo, dist)``, `_rowwise_dist` of rows ``lo, lo + 1, ...`` of
    ``pts_a`` against ``pts_b`` (with ``upper``, its rows from ``lo`` on),
    in blocks of rows x cols x d doubles within ``_BLOCK_BYTES``."""
    step = max(1, _BLOCK_BYTES // (8 * pts_b.size))
    pts_b = np.asfortranarray(pts_b)  # the inner loops run contiguously
    for lo in range(0, pts_a.shape[0], step):
        cols = pts_b[lo:] if upper else pts_b
        yield lo, _rowwise_dist(pts_a[lo:lo + step, None], cols[None],
                                metric_kind, root)


class _Cells:
    """A grid of cubes of side ``side`` over the first min(d, 3)
    coordinates of ``points``.  ``keys`` holds each point's cell as one
    int64, ``order`` the points by cell (ascending within each) and
    ``ranked`` their keys; the 3^min(d, 3) cells around a cell are the
    runs of keys ``key + row - 1 .. key + row + 1`` over ``rows``.

    ``floor_divide`` floors the exact quotient, a coordinate difference
    is at most the distance, and `_rowwise_dist` errs far less than a
    side of the radius times 1 + 1e-12: every point of a ball lies in
    the cells around its center's.  Each axis packs its occupied cells
    between two empty ones, a wider gap shrinking to one empty cell, so
    the keys fit in int64 however far the points spread.
    """

    def __init__(self, points, side):
        self.side = side
        self.keys = np.zeros(points.shape[0], dtype=np.int64)
        self.rows, stride = np.zeros(1, dtype=np.int64), 1
        for column in points[:, :3].T:
            cells, at = np.unique(np.floor_divide(column, side),
                                  return_inverse=True)
            packed = np.cumsum(np.concatenate(
                ([1], np.minimum(np.diff(cells), 2)))).astype(np.int64)
            self.keys += packed[at] * stride
            if stride > 1:
                self.rows = np.add.outer(self.rows, [-stride, 0, stride]
                                         ).ravel()
            stride *= int(packed[-1]) + 2
        self.order = np.argsort(self.keys, kind="stable")
        self.ranked = self.keys[self.order]

    def runs(self, queries):
        """``(lo, hi)``, one column per row offset: the ranges of ``order``
        that hold the points of the cells around each query key."""
        near = np.add.outer(queries, self.rows)
        return (self.ranked.searchsorted(near - 1),
                self.ranked.searchsorted(near + 1, side="right"))


def _cell_pairs(cells, queries, dim):
    """Blocks ``(a, b, owner, member)`` of the pairs of each query key
    a..b-1 and the points of the cells around it, ``owner`` naming the
    query of each pair.  The pairs are counted from the cell ranges
    before any is gathered, so a block holds at most ``_BLOCK_BYTES``
    for its pairs in ``dim`` coordinates (one query at least)."""
    lo, hi = cells.runs(queries)
    counts = (hi - lo).sum(axis=1)
    ends = counts.cumsum()
    # a pair's index, owner, run position and distance, and four rows of
    # d coordinates: the two points, their difference and its square
    limit = max(1, _BLOCK_BYTES // (8 * (4 + 4 * dim)))
    a = 0
    while a < queries.size:
        b = max(a + 1, int(ends.searchsorted(ends[a] - counts[a] + limit,
                                             side="right")))
        run = (hi[a:b] - lo[a:b]).ravel()
        first = np.repeat(lo[a:b].ravel() - run.cumsum() + run, run)
        yield (a, b, np.repeat(np.arange(a, b), counts[a:b]),
               cells.order[first + np.arange(first.size)])
        a = b


# Random point triples drawn by `metric_spot_check`.
_SPOT_CHECK_TRIALS = 200


def metric_spot_check(space: FiniteMetricMeasureSpace, *,
                      seed: int = 0) -> float:
    """Largest triangle-inequality violation over random point triples."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, space.n_points, size=(_SPOT_CHECK_TRIALS, 3))
    a, b, c = (space.points[idx[:, k]] for k in range(3))
    d_ab = _rowwise_dist(a, b, space.metric_kind)
    d_bc = _rowwise_dist(b, c, space.metric_kind)
    d_ac = _rowwise_dist(a, c, space.metric_kind)
    return float(np.maximum(d_ac - d_ab - d_bc, 0.0).max())


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
        _check_keys(desc, {"dim", "depth"}, {"metric"}, "descriptor")
        space = unit_cube_space(_int(desc["dim"], "space descriptor dim"),
                                _int(desc["depth"],
                                     "space descriptor depth"),
                                metric=desc.get("metric", "sup"),
                                point_budget=point_budget)
    elif kind == "ifs":
        _check_keys(desc, {"maps", "depth"},
                    {"metric", "declared_Q"}, "descriptor")
        where = "space descriptor "
        maps = [IfsMap(ratio=_raw_float(m["ratio"], where + "ratio"),
                       offset=tuple(_floats(m["offset"], where + "offset")),
                       rotation_deg=_raw_float(m.get("rotation_deg", 0.0),
                                               where + "rotation_deg"))
                for m in desc["maps"]]
        system = IfsSystem(maps=maps, depth=_int(desc["depth"],
                                                 where + "depth"))
        declared_Q = desc.get("declared_Q")
        if declared_Q is not None:
            declared_Q = _raw_float(declared_Q, where + "declared_Q")
        submaps, declared_lambda = None, None
        if subset_desc is not None and "submaps" in subset_desc:
            _check_keys(subset_desc, {"submaps"}, {"lambda"},
                        "descriptor")
            submaps = _ids(subset_desc["submaps"], "subset descriptor submaps")
            if "lambda" in subset_desc:
                declared_lambda = _raw_float(subset_desc["lambda"],
                                             "subset descriptor lambda")
        space, mask = ifs_attractor(
            system, submaps=submaps, metric=desc.get("metric", "euclidean"),
            declared_Q=declared_Q, declared_lambda=declared_lambda,
            point_budget=point_budget)
        subset_desc = None if submaps is not None else subset_desc
    elif kind == "pointset":
        _check_keys(desc, {"points", "weights", "metric", "resolution",
                           "declared_Q", "declared_diam"}, set(), "descriptor")
        space = FiniteMetricMeasureSpace(
            points=np.array([_floats(p, "space descriptor points")
                             for p in desc["points"]]),
            weights=_floats(desc["weights"], "space descriptor weights"),
            metric_kind=desc["metric"],
            resolution=_raw_float(desc["resolution"],
                                  "space descriptor resolution"),
            declared_Q=_raw_float(desc["declared_Q"],
                                  "space descriptor declared_Q"),
            declared_diam=_raw_float(desc["declared_diam"],
                                     "space descriptor declared_diam"),
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
        _check_keys(desc, {"cantor_depth"}, set(), "descriptor")
        return cantor_mask(space, _int(desc["cantor_depth"],
                                        "subset descriptor cantor_depth"))
    if "indices" not in desc or "lambda" not in desc:
        raise ConfigError("subset descriptor needs 'indices' and 'lambda'")
    _check_keys(desc, {"indices", "lambda"}, {"weights"}, "descriptor")
    indices = _ids(desc["indices"], "subset descriptor indices")
    if indices.size == 0 or indices.min() < 0 or indices.max() >= space.n_points:
        raise ConfigError("subset indices out of range")
    flags = np.zeros(space.n_points, dtype=bool)
    flags[indices] = True
    weights = np.zeros(space.n_points)
    if "weights" in desc and desc["weights"] is not None:
        w = _floats(desc["weights"], "subset descriptor weights")
        if w.shape != indices.shape:
            raise ConfigError("subset weights must align with subset indices")
        weights[indices] = w
    else:
        weights[indices] = 1.0 / indices.size
    mask = SubsetMask(member_flags=flags,
                      declared_lambda=_raw_float(desc["lambda"],
                                                  "subset descriptor lambda"),
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


def _int(value, what: str) -> int:
    """A document value that must be a JSON integer; a float, a bool or a
    string is refused, not cast."""
    if type(value) is not int:
        raise ConfigError("%s must be an integer, got %r" % (what, value))
    return value


def _raw_float(value, what: str) -> float:
    """A document value as a float, not checked to be finite.  A bool is
    refused, not cast, and so is a string, unless it spells a value no
    JSON number can ("inf", "nan"), which the caller's finiteness check
    then names."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = None
    if (x is None or isinstance(value, bool)
            or (isinstance(value, str) and math.isfinite(x))):
        raise ConfigError("%s must be a number, got %r" % (what, value))
    return x


def _ids(values, what: str) -> np.ndarray:
    """A document's integers, each read by `_int`."""
    return np.array([_int(v, what) for v in values], dtype=np.int64)


def _floats(values, what: str) -> np.ndarray:
    """A document's numbers, each read by `_raw_float`."""
    return np.array([_raw_float(v, what) for v in values], dtype=np.float64)


def _num(value, what: str) -> float:
    """A number or the string 'inf'."""
    if isinstance(value, str) and value != "inf":
        raise ConfigError("%s must be a number or 'inf', got %r"
                          % (what, value))
    return _raw_float(value, what)


def _check_keys(doc: dict, required: set, optional: set, where: str) -> None:
    """Raise `ConfigError` naming ``where`` when ``doc`` lacks a required
    key or has a key that is neither required nor optional."""
    keys = set(doc)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where} missing keys: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")
