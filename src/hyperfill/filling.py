"""Multiscale fillings of a space: dyadic ball graphs and their audits.

A filling assigns to each level n a maximal separated family of cloud
points, each carrying an open ball of dyadic radius, and joins two vertices
by an edge when their levels differ by at most one and their balls share a
cloud point.  Edges are directed: the deeper endpoint is the head, and
same-level edges point from the smaller vertex id to the larger.  The edge
scale |e| is the smaller endpoint level, and the edge ball B(e) is the union
of the endpoint balls.

`build_filling` produces the plain construction (separation half the
radius).  `build_nested_filling` produces a compatible pair for a marked
subset F: ambient vertices are split into centers on F (radius four times
the scale, so their restrictions to F still cover it) and centers far from
F (plain radius), which makes the subset's own filling a subgraph of the
ambient one: it is built, and a loaded one checked, as the ambient filling
cut to F (`_restrict_filling`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from ._kernels import greedy_separated_subset
from .errors import ConfigError
from .space import (FiniteMetricMeasureSpace, SubsetMask, dist_to_subset,
                    space_from_descriptor, space_to_descriptor, subspace,
                    mask_from_descriptor, mask_to_descriptor,
                    RADIUS_FLOOR_FACTOR, _REL_EPS)


@dataclass
class Filling:
    """A filling's vertices, edges and balls, with per-level index ranges.

    Vertex ids ascend by level, and so do edge ids by edge level: each
    level's edges form one contiguous range, `edge_range(k)`, so a
    per-level quantity can read a slice of any per-edge array.  A
    filling whose `edge_levels` descend anywhere is rejected with
    `ConfigError`.
    """

    space: FiniteMetricMeasureSpace
    flavor: str                  # "plain", "nested-ambient" or "trace"
    level_lo: int
    level_hi: int
    centers: np.ndarray          # (V,) cloud index of each vertex
    radii: np.ndarray            # (V,)
    vertex_levels: np.ndarray    # (V,)
    tails: np.ndarray            # (E,)
    heads: np.ndarray            # (E,)
    edge_levels: np.ndarray      # (E,) min of the endpoint levels
    ball_member_list: list       # per vertex, sorted cloud indices in the ball

    def __post_init__(self):
        if np.any(np.diff(self.edge_levels) < 0):
            raise ConfigError("filling edges must ascend by level")
        self._level_start = _level_ranges(self.vertex_levels, self.levels)
        self._edge_range = _level_ranges(self.edge_levels, self.levels)
        self._cross_at = {}
        for n, (lo, hi) in self._edge_range.items():
            at = np.arange(lo, hi)
            self._cross_at[n] = at[self.vertex_levels[self.heads[at]] != n]
        self.ball_weight_sums = np.array(
            [self.space.weights[m].sum() for m in self.ball_member_list])
        self._partition_cache = {}
        self._vertex_membership = None
        self._level_balls = None
        self._half_balls = None
        self._edge_membership = None
        self._edge_ball_mass = None

    # -- basic accessors ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.centers.shape[0]

    @property
    def n_edges(self) -> int:
        return self.tails.shape[0]

    @property
    def levels(self):
        return range(self.level_lo, self.level_hi + 1)

    def vertices_at_level(self, n: int) -> np.ndarray:
        lo, hi = self._require_level(n)
        return np.arange(lo, hi)

    def edge_range(self, k: int) -> tuple[int, int]:
        """Half-open range ``(start, stop)`` of the edge ids at scale k."""
        self._require_level(k)
        return self._edge_range[k]

    def cross_edges_at_level(self, n: int) -> np.ndarray:
        """Edge ids joining level n to level n+1, in edge order."""
        self._require_level(n)
        return self._cross_at[n]

    def ball_members(self, vertex_id: int) -> np.ndarray:
        if not (0 <= vertex_id < self.n_vertices):
            raise ConfigError(f"vertex id {vertex_id} out of range")
        return self.ball_member_list[vertex_id]

    def _require_level(self, n: int):
        if not (self.level_lo <= n <= self.level_hi):
            raise ConfigError(f"level {n} outside window "
                              f"[{self.level_lo}, {self.level_hi}]")
        return self._level_start[n]

    # -- cached derived structures -------------------------------------------

    def vertex_membership(self) -> sparse.csr_matrix:
        """Sparse (n_vertices, n_points) indicator of the vertex balls."""
        if self._vertex_membership is None:
            self._vertex_membership = _membership_matrix(
                self.ball_member_list, self.space.n_points)
        return self._vertex_membership

    def edge_membership(self) -> sparse.csr_matrix:
        """Sparse (n_edges, n_points) indicator of the edge balls B(e).

        Row e is the logical OR of the vertex-membership rows of its tail
        and head, so it lists the sorted cloud indices of B(e) with data
        True (one byte an entry).  Row e holds ``|B(tail)| + |B(head)| -
        |B(tail) ∩ B(head)|`` entries, counted from the overlaps of
        `_ball_levels`, so the index array is allocated once at its final
        size and filled in edge blocks of about ``_BLOCK_NNZ`` gathered
        entries.  Each block also sums its rows' weights into
        `edge_ball_mass`, since a product with the whole boolean matrix
        would copy its data as floats.  The norms superpose through
        `_superpose`.
        """
        if self._edge_membership is None:
            sizes = np.diff(self.vertex_membership().indptr)
            shared = np.diff(self._ball_levels()[1].indptr)
            indptr = np.zeros(self.n_edges + 1, dtype=np.int64)
            np.cumsum(sizes[self.tails] + sizes[self.heads] - shared,
                      out=indptr[1:])
            indices = np.empty(indptr[-1], dtype=_index_dtype(
                self.space.n_points))
            mass = np.zeros(self.n_edges)
            balls = self.vertex_membership().astype(bool)
            for lo, hi, union in _row_pairs(balls, self.tails, balls,
                                            self.heads, np.add):
                union.sort_indices()
                indices[indptr[lo]:indptr[hi]] = union.indices
                mass[lo:hi] = union @ self.space.weights
            self._edge_membership = sparse.csr_matrix(
                (np.ones(indices.size, dtype=bool), indices, indptr),
                shape=(self.n_edges, self.space.n_points))
            self._edge_ball_mass = mass
        return self._edge_membership

    def edge_ball_mass(self) -> np.ndarray:
        """mu(B(e)) for every edge: each row of `edge_membership` summed
        over the point weights in index order, while that matrix is
        built."""
        if self._edge_ball_mass is None:
            self.edge_membership()
        return self._edge_ball_mass

    def _by_level(self, balls: sparse.csr_matrix) -> sparse.csr_matrix:
        """Row v of an (n_vertices, n_points) matrix moved into the block of
        ``n_points`` columns of v's level, out of ``L * n_points``."""
        n, width = self.space.n_points, len(self.levels) * self.space.n_points
        shift = np.repeat((self.vertex_levels - self.level_lo) * n,
                          np.diff(balls.indptr))
        return sparse.csr_matrix(
            (balls.data, (balls.indices + shift).astype(_index_dtype(width)),
             balls.indptr), shape=(self.n_vertices, width))

    def _ball_levels(self):
        """The vertex balls and the edge-ball overlaps, each placed in the
        block of its level.

        Both matrices have ``L * n_points`` columns, one block of
        ``n_points`` per level of the window (L levels): row v of the
        first lists B(v) in the block of v's level, and row e of the
        second lists B(tail) ∩ B(head) in the block of e's edge level.
        Both are returned transposed (CSC), as they are multiplied.
        Built once and kept; `_superpose` multiplies with both.
        """
        if self._level_balls is None:
            n, lo = self.space.n_points, self.level_lo
            memb = self.vertex_membership().astype(bool)
            cols, counts = [], []
            for _, _, both in _row_pairs(memb, self.tails, memb, self.heads,
                                         lambda a, b: a.multiply(b)):
                cols.append(both.indices)
                counts.append(np.diff(both.indptr))
            indptr = np.zeros(self.n_edges + 1, dtype=np.int64)
            np.cumsum(np.concatenate(counts), out=indptr[1:])
            balls = self._by_level(self.vertex_membership())
            indices = np.concatenate(cols).astype(balls.indices.dtype,
                                                  copy=False)
            del cols
            for k, (a, b) in self._edge_range.items():
                indices[indptr[a]:indptr[b]] += (k - lo) * n
            ones = np.ones(indices.size)
            ones.flags.writeable = False
            overlaps_t = sparse.csc_matrix(
                (ones, indices, indptr),
                shape=(len(self.levels) * n, self.n_edges))
            self._level_balls = (balls.T, overlaps_t)
        return self._level_balls

    def _half_ball_levels(self) -> sparse.csc_matrix:
        """The open vertex half balls ``B(center, radius / 2)``, placed by
        level and transposed as the vertex balls of `_ball_levels` are.

        One batched `FiniteMetricMeasureSpace.ball_rows` query, built
        once and kept.  An edge's half ball is its tail's, and a tail
        sits at its edge's level, so ``H @ bincount(tails, w)`` is every
        level's half-ball superposition.
        """
        if self._half_balls is None:
            rows = self.space.ball_rows(self.centers, 0.5 * self.radii)
            self._half_balls = self._by_level(
                _membership_matrix(rows, self.space.n_points)).T
        return self._half_balls

    def _superpose(self, w: np.ndarray) -> np.ndarray:
        """Level superpositions of edge weights over the edge balls.

        Returns one row per level k of the window: ``G_k = sum_{|e|=k}
        w_e chi_B(e)`` on the cloud points, for edge weights ``w`` (one
        nonnegative entry per edge).  A norm over part of the window
        gives the other edges weight zero; their terms add exact zeros.
        Since ``B(e) = B(tail) ∪ B(head)``, ``G_k`` is each vertex ball
        weighted by the sum of its incident level-k edge weights, less
        every overlap ``B(tail) ∩ B(head)``, which that sum counts twice:
        ``G = Tᵀ s - Pᵀ w``.  A point outside the balls of every
        positive-weight edge of level k adds only zeros and gets exactly
        0.0.  Elsewhere ``G_k`` is at least its largest term and the two
        sums at most twice ``G_k``, so their rounding cannot bring it near
        zero.  One product with each matrix of `_ball_levels` covers
        every level.
        """
        n, V = self.space.n_points, self.n_vertices
        balls_t, overlaps_t = self._ball_levels()
        # The head of a cross edge is a level-(k+1) vertex, whose ball sits
        # in block k+1: its share is summed apart and moved back a block.
        cross = self.vertex_levels[self.heads] != self.edge_levels
        g = balls_t @ (np.bincount(self.tails, w, V)
                       + np.bincount(self.heads, np.where(cross, 0.0, w), V))
        g[:-n] += (balls_t @ np.bincount(self.heads, np.where(cross, w, 0.0),
                                         V))[n:]
        g -= overlaps_t @ w
        return g.reshape(-1, n)


@dataclass
class NestedFilling:
    """An ambient filling and the subset filling embedded inside it."""

    ambient: Filling
    trace: Filling
    mask: SubsetMask
    point_embedding: np.ndarray   # trace space point index -> ambient point index
    vertex_embedding: np.ndarray  # trace vertex id -> ambient vertex id
    edge_embedding: np.ndarray    # trace edge id -> ambient edge id
    # extend_sobolev's certificate pairs and their cells of point blocks,
    # a trace._CertPlan (ii, jj, cell, ...) once drawn
    _cert_plan: tuple = field(default=(), init=False, repr=False,
                              compare=False)
    # the trace gate's porosity_scan result, (constant or None,) once run
    _porosity: tuple = field(default=(), init=False, repr=False,
                             compare=False)

    @property
    def trace_space(self) -> FiniteMetricMeasureSpace:
        return self.trace.space


def _validate_window(space, level_lo, level_hi):
    if level_lo > level_hi:
        raise ConfigError("empty level window")
    try:
        root, finest = 2.0 ** (-level_lo), 2.0 ** (-level_hi)
    except OverflowError:
        raise ConfigError(f"level window [{level_lo}, {level_hi}] leaves "
                          f"the float range") from None
    if root < space.declared_diam * (1 - _REL_EPS):
        raise ConfigError(
            f"2^-{level_lo} is below the diameter; raise the root level")
    if finest < RADIUS_FLOOR_FACTOR * space.resolution * (1 - _REL_EPS):
        raise ConfigError(
            f"2^-{level_hi} is under four times the resolution; lower level_hi")


def _level_ranges(sorted_levels, levels) -> dict:
    """Half-open index range of each level in an ascending level array."""
    levels = np.asarray(levels)
    starts = np.searchsorted(sorted_levels, levels, side="left")
    stops = np.searchsorted(sorted_levels, levels, side="right")
    return {int(n): (int(a), int(b)) for n, a, b in zip(levels, starts, stops)}


# Gathered entries of the first matrix per block of `_row_pairs`.
_BLOCK_NNZ = 1 << 18


def _row_pairs(a, rows_a, b, rows_b, combine):
    """``(lo, hi, combine(a[rows_a[lo:hi]], b[rows_b[lo:hi]]))`` over
    blocks of consecutive row pairs of two CSR matrices; a block's
    gathered rows of ``a`` hold about ``_BLOCK_NNZ`` entries, so the
    gathered copies of a few wide rows never pile up at once."""
    gathered = np.cumsum(np.diff(a.indptr)[rows_a])
    cuts = np.searchsorted(gathered, np.arange(
        _BLOCK_NNZ, gathered[-1] if gathered.size else 0, _BLOCK_NNZ))
    bounds = [0, *cuts.tolist(), rows_a.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield lo, hi, combine(a[rows_a[lo:hi]], b[rows_b[lo:hi]])


def _index_dtype(n_columns: int):
    """int32 for sparse column indices below 2^31, else int64."""
    return np.int32 if n_columns <= np.iinfo(np.int32).max else np.int64


def _membership_matrix(rows, n_points):
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(r) for r in rows])
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    data = np.ones(indices.shape[0])
    return sparse.csr_matrix((data, indices, indptr), shape=(len(rows), n_points))


def _assemble(space, flavor, level_lo, level_hi, level_vertex_centers,
              level_vertex_radii):
    """Shared tail of the builders: ids, ball members, edges, orientation."""
    window = range(level_lo, level_hi + 1)
    counts = [len(level_vertex_centers[n]) for n in window]
    level_offset = dict(zip(window, np.cumsum([0, *counts]).tolist()))
    centers = np.concatenate([level_vertex_centers[n] for n in window]
                             ).astype(np.int64)
    radii = np.concatenate([level_vertex_radii[n] for n in window]
                           ).astype(np.float64)
    levels = np.repeat(np.arange(level_lo, level_hi + 1, dtype=np.int64),
                       counts)

    # one batched query per level bounds the tree's candidate lists
    members = [row for n in window
               for row in space.ball_rows(level_vertex_centers[n],
                                          level_vertex_radii[n])]
    mats = {n: _membership_matrix(
        members[level_offset[n]:level_offset[n] + k], space.n_points)
        for n, k in zip(window, counts)}

    def overlapping_pairs(a, b, upper):
        """Ids of the intersecting ball pairs of levels a and b, sorted by
        (tail, head); with ``upper`` only pairs with tail < head."""
        overlap = (mats[a] @ mats[b].T).tocoo()
        rows, cols = overlap.row, overlap.col
        if upper:
            keep = rows < cols
            rows, cols = rows[keep], cols[keep]
        order = np.lexsort((cols, rows))
        return (level_offset[a] + rows[order].astype(np.int64),
                level_offset[b] + cols[order].astype(np.int64))

    pairs = []
    for n in window:
        pairs.append(overlapping_pairs(n, n, True))
        if n < level_hi:
            pairs.append(overlapping_pairs(n, n + 1, False))
    tails = np.concatenate([t for t, _ in pairs])
    heads = np.concatenate([h for _, h in pairs])
    return Filling(space=space, flavor=flavor, level_lo=level_lo,
                   level_hi=level_hi, centers=centers, radii=radii,
                   vertex_levels=levels, tails=tails, heads=heads,
                   edge_levels=np.minimum(levels[tails], levels[heads]),
                   ball_member_list=members)


def build_filling(space: FiniteMetricMeasureSpace, level_lo: int,
                  level_hi: int) -> Filling:
    """Plain filling: level n vertices are a greedy maximal 2^-(n+1)-separated
    subset of the cloud (scanned by ascending point index), with balls of
    radius 2^-n."""
    _validate_window(space, level_lo, level_hi)
    all_idx = np.arange(space.n_points, dtype=np.int64)
    level_centers, level_radii = {}, {}
    for n in range(level_lo, level_hi + 1):
        sel = greedy_separated_subset(all_idx, 2.0 ** (-n - 1),
                                      space.ball_indices)
        level_centers[n] = sel
        level_radii[n] = np.full(sel.shape[0], 2.0 ** (-n))
    return _assemble(space, "plain", level_lo, level_hi, level_centers,
                     level_radii)


def build_nested_filling(space: FiniteMetricMeasureSpace, mask: SubsetMask,
                         level_lo: int, level_hi: int) -> NestedFilling:
    """Compatible ambient and subset fillings.

    Per level n the ambient vertex set is the union of

    * centers on F: greedy maximal 2^-n-separated subset of F, with balls of
      radius 2^-(n-2) (four times the scale), and
    * centers off F: greedy maximal 2^-(n+1)-separated subset of the points
      at distance >= 2^-n from F, with plain radius 2^-n.

    Only the first group's balls meet F, and their restrictions to F are the
    subset filling (`_restrict_filling`); its vertices and edges embed into
    the ambient ones.
    """
    mask.validate_against(space)
    _validate_window(space, level_lo, level_hi)
    dist_f = dist_to_subset(space, mask)
    members = mask.member_indices

    level_centers, level_radii = {}, {}
    for n in range(level_lo, level_hi + 1):
        scale = 2.0 ** (-n)
        on_f = greedy_separated_subset(members, scale, space.ball_indices)
        far = np.flatnonzero(dist_f >= scale)
        off_f = greedy_separated_subset(far, scale / 2, space.ball_indices)
        level_centers[n] = np.concatenate([on_f, off_f])
        level_radii[n] = np.repeat([4 * scale, scale], [on_f.size, off_f.size])
    return _restrict_filling(_assemble(space, "nested-ambient", level_lo,
                                       level_hi, level_centers, level_radii),
                             mask)


def _restrict_filling(ambient: Filling, mask: SubsetMask) -> NestedFilling:
    """The subset filling as the ambient filling cut to F.

    Its vertices are the ambient vertices of radius 4 * 2^-n, whose
    centers must lie on F; its balls are theirs cut to F, and its edges
    are the ambient edges whose cut balls still share a point of F.  Both
    keep the ambient order, so the embeddings ascend.
    """
    sub_space, point_embedding = subspace(ambient.space, mask)
    flags = mask.member_flags
    to_sub = np.where(flags, np.cumsum(flags) - 1, -1)
    on_f = ambient.radii == 4 * 2.0 ** -ambient.vertex_levels
    vertex_embedding = np.flatnonzero(on_f)
    centers = to_sub[ambient.centers[on_f]]
    if np.any(centers < 0):
        raise ConfigError("ambient vertices of radius 4 * 2^-n must be "
                          "centered on the subset")
    balls = [cut[cut >= 0] for cut in
             (to_sub[ambient.ball_member_list[v]] for v in vertex_embedding)]

    to_trace = np.where(on_f, np.cumsum(on_f) - 1, -1)
    both = np.flatnonzero(on_f[ambient.tails] & on_f[ambient.heads])
    tails, heads = to_trace[ambient.tails[both]], to_trace[ambient.heads[both]]
    cut = _membership_matrix(balls, sub_space.n_points).astype(bool)
    meets = np.concatenate([m for _, _, m in _row_pairs(
        cut, tails, cut, heads, lambda a, b: np.diff(a.multiply(b).indptr) > 0)])
    edge_embedding = both[meets]

    trace = Filling(space=sub_space, flavor="trace",
                    level_lo=ambient.level_lo, level_hi=ambient.level_hi,
                    centers=centers, radii=ambient.radii[vertex_embedding],
                    vertex_levels=ambient.vertex_levels[vertex_embedding],
                    tails=tails[meets], heads=heads[meets],
                    edge_levels=ambient.edge_levels[edge_embedding],
                    ball_member_list=balls)
    return NestedFilling(ambient=ambient, trace=trace, mask=mask,
                         point_embedding=point_embedding,
                         vertex_embedding=vertex_embedding,
                         edge_embedding=edge_embedding)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

def overlap_audit(filling: Filling) -> dict:
    """Per level, the largest number of balls covering a single point."""
    memb = filling.vertex_membership()
    out = {}
    for n in filling.levels:
        lo, hi = filling._level_start[n]
        points = memb.indices[memb.indptr[lo]:memb.indptr[hi]]
        out[n] = int(np.bincount(points).max()) if hi > lo else 0
    return out


def _edge_rule_ok(filling: Filling) -> bool:
    """Whether the undirected edge set is exactly the pairs of vertices with
    levels within one whose balls share a cloud point.

    The intersecting pairs are recounted from one global sparse product
    M M^T of the vertex-membership matrix, independent of the per-level
    products the build uses.
    """
    memb = filling.vertex_membership()
    shared = sparse.triu(memb @ memb.T, k=1).tocoo()
    levels = filling.vertex_levels
    near = np.abs(levels[shared.row] - levels[shared.col]) <= 1
    n = filling.n_vertices
    expected = np.unique(shared.row[near].astype(np.int64) * n
                         + shared.col[near])
    lo = np.minimum(filling.tails, filling.heads)
    hi = np.maximum(filling.tails, filling.heads)
    actual = np.unique(lo * n + hi)
    return bool(np.array_equal(expected, actual))


def _balls_ok(memb: sparse.csr_matrix, lo: int, hi: int,
              inside: np.ndarray) -> bool:
    """Whether rows lo..hi-1 of the vertex-membership matrix list, in
    ascending order, exactly the points marked in the columns of the
    (n_points, hi - lo) boolean matrix ``inside``."""
    indptr = memb.indptr[lo:hi + 1]
    cols = memb.indices[indptr[0]:indptr[-1]].astype(np.int64)
    owner = np.repeat(np.arange(hi - lo), np.diff(indptr))
    # ascending within each row; a new row may start lower
    ascending = (np.diff(cols) > 0) | (owner[1:] != owner[:-1])
    return bool(np.array_equal(np.diff(indptr), inside.sum(axis=0))
                and np.all(inside[cols, owner]) and np.all(ascending))


def _orientation_ok(filling: Filling) -> bool:
    """Same-level edges point to the larger id, cross edges one level down."""
    lt = filling.vertex_levels[filling.tails]
    lh = filling.vertex_levels[filling.heads]
    return bool(np.all(np.where(lt == lh, filling.tails < filling.heads,
                                lh == lt + 1)))


# Byte budget of one vertex block of the audit's distance matrices.
_AUDIT_BLOCK_BYTES = 16 << 20


def audit_filling(filling: Filling) -> dict:
    """Recheck the construction invariants; returns measured facts.

    Verifies per level: center separation, covering by half-balls, and the
    radius law for the filling's flavor: each vertex has its flavor's
    radius, and its ball lists exactly the cloud points closer than that
    radius to its center.  Over the whole graph it verifies the edge rule
    (edge iff levels within one and balls sharing a point) and edge
    orientation.  The edge rule is recounted from one global sparse
    product of the vertex-membership matrix with its transpose,
    independent of the per-level products the build takes edges from.
    Separation, covering and balls are judged on brute-force distance
    matrices, not through the kd-tree query the build uses; the matrices
    are computed in blocks of vertices under a fixed byte budget, so the
    audit's memory does not grow with the product of points and
    vertices.
    """
    space = filling.space
    report = {"flavor": filling.flavor, "levels": {}, "edge_rule_ok": True,
              "orientation_ok": True, "radius_law_ok": True}
    memb = filling.vertex_membership()

    for n in filling.levels:
        lo, hi = filling._level_start[n]
        centers = filling.centers[lo:hi]
        radii = filling.radii[lo:hi]
        scale = 2.0 ** (-n)
        if filling.flavor == "plain":
            seps = np.full(centers.shape[0], scale / 2)
            radius_ok = bool(np.all(radii == scale))
        elif filling.flavor == "trace":
            seps = np.full(centers.shape[0], scale)
            radius_ok = bool(np.all(radii == 4 * scale))
        else:
            on_f = radii == 4 * scale
            seps = np.where(on_f, scale, scale / 2)
            radius_ok = bool(np.all(on_f | (radii == scale)))

        coords = space.points[centers]
        separation_ok = True
        covered = np.zeros(space.n_points, dtype=bool)
        # Column blocks of the brute-force distance matrices: a block's
        # two float64 matrices hold at most _AUDIT_BLOCK_BYTES.
        step = max(1, _AUDIT_BLOCK_BYTES
                   // (8 * (space.n_points + centers.shape[0])))
        for a in range(0, centers.shape[0], step):
            b = min(a + step, centers.shape[0])
            dmat = space.cross_dist(coords, coords[a:b])
            dmat[np.arange(a, b), np.arange(b - a)] = np.inf
            # Mixed separations: a pair must respect the smaller requirement.
            pair_sep = np.minimum(seps[:, None], seps[None, a:b])
            separation_ok &= bool(np.all(dmat >= pair_sep - 1e-15))

            dist_all = space.cross_dist(space.points, coords[a:b])
            covered |= (dist_all < radii[None, a:b] / 2).any(axis=1)
            radius_ok = radius_ok and _balls_ok(
                memb, lo + a, lo + b, dist_all < radii[None, a:b])
        covering_ok = bool(covered.all())
        report["radius_law_ok"] &= radius_ok
        report["levels"][n] = {
            "n_vertices": int(centers.shape[0]),
            "separation_ok": separation_ok,
            "covering_ok": covering_ok,
            "radius_law_ok": radius_ok,
        }

    report["edge_rule_ok"] = _edge_rule_ok(filling)
    report["n_edges"] = filling.n_edges
    report["orientation_ok"] = _orientation_ok(filling)
    report["overlap"] = overlap_audit(filling)
    report["ok"] = bool(report["edge_rule_ok"] and report["orientation_ok"]
                        and report["radius_law_ok"]
                        and all(lv["separation_ok"] and lv["covering_ok"]
                                for lv in report["levels"].values()))
    return report


def audit_nested(nested: NestedFilling) -> dict:
    """Compatibility checks between the subset filling and the ambient one."""
    amb, tr = nested.ambient, nested.trace
    report = {}
    # Ambient balls meet F exactly on the embedded vertices.
    member_flags = nested.mask.member_flags
    embedded = np.zeros(amb.n_vertices, dtype=bool)
    embedded[nested.vertex_embedding] = True
    meets = amb.vertex_membership() @ member_flags > 0
    report["meets_f_iff_embedded"] = bool(np.all(meets == embedded))
    ve, ee = nested.vertex_embedding, nested.edge_embedding
    # the vertex embedding keeps level, radius and center; the edge
    # embedding keeps both endpoints, hence the orientation
    report["vertex_embedding_ok"] = bool(
        np.all(amb.vertex_levels[ve] == tr.vertex_levels)
        and np.all(amb.radii[ve] == tr.radii)
        and np.all(amb.centers[ve] == nested.point_embedding[tr.centers]))
    report["edge_embedding_ok"] = bool(np.all(amb.tails[ee] == ve[tr.tails])
                                       and np.all(amb.heads[ee] == ve[tr.heads]))
    report["trace_ball_is_restriction"] = all(
        np.array_equal(
            nested.point_embedding[tr.ball_member_list[v]],
            np.intersect1d(amb.ball_member_list[ve[v]],
                           nested.mask.member_indices))
        for v in range(tr.n_vertices))
    report["ok"] = all(bool(v) for v in report.values())
    return report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def filling_to_dict(filling: Filling) -> dict:
    return {
        "space": space_to_descriptor(filling.space),
        "flavor": filling.flavor,
        "level_lo": filling.level_lo,
        "level_hi": filling.level_hi,
        "vertices": [
            {"center": int(c), "radius": float(r), "level": int(n)}
            for c, r, n in zip(filling.centers, filling.radii,
                               filling.vertex_levels)
        ],
        "edges": [
            {"tail": int(t), "head": int(h)}
            for t, h in zip(filling.tails, filling.heads)
        ],
    }


def _ids(values, what: str) -> np.ndarray:
    """A document's integer ids; a float or a bool is refused, not cast."""
    if any(type(v) is not int for v in values):
        raise ConfigError(f"{what} must be integers")
    return np.array(values, dtype=np.int64)


def filling_from_dict(doc: dict) -> Filling:
    """Filling from its document, validated as a built one: the window as
    in `build_filling`, a vertex at every level, integer ids and a known
    flavor.  The balls are recomputed from the space, and edges out of
    level order or breaking the edge rule or the orientation are
    rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("filling document must be a JSON object")
    for key in ("space", "flavor", "level_lo", "level_hi", "vertices", "edges"):
        if key not in doc:
            raise ConfigError(f"filling document missing {key!r}")
    if doc["flavor"] not in ("plain", "nested-ambient", "trace"):
        raise ConfigError(f"unknown filling flavor {doc['flavor']!r}")
    try:
        space, _ = space_from_descriptor(doc["space"])
        level_lo, level_hi = _ids([doc["level_lo"], doc["level_hi"]],
                                  "window levels").tolist()
        centers = _ids([v["center"] for v in doc["vertices"]], "centers")
        radii = np.array([v["radius"] for v in doc["vertices"]],
                         dtype=np.float64)
        levels = _ids([v["level"] for v in doc["vertices"]], "levels")
        tails = _ids([e["tail"] for e in doc["edges"]], "edge tails")
        heads = _ids([e["head"] for e in doc["edges"]], "edge heads")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed filling document: {exc!r}") from None
    _validate_window(space, level_lo, level_hi)
    if centers.size and (centers.min() < 0 or centers.max() >= space.n_points):
        raise ConfigError("vertex centers out of range")
    if levels.size and (levels.min() < level_lo or levels.max() > level_hi
                        or np.any(np.diff(levels) < 0)):
        raise ConfigError("vertex levels must ascend inside the window")
    if np.unique(levels).size != level_hi - level_lo + 1:
        raise ConfigError("every level of the window needs a vertex")
    if tails.size and (min(tails.min(), heads.min()) < 0
                       or max(tails.max(), heads.max()) >= centers.size):
        raise ConfigError("edge endpoints out of range")
    filling = Filling(space=space, flavor=doc["flavor"],
                      level_lo=level_lo, level_hi=level_hi,
                      centers=centers, radii=radii, vertex_levels=levels,
                      tails=tails, heads=heads,
                      edge_levels=np.minimum(levels[tails], levels[heads]),
                      ball_member_list=space.ball_rows(centers, radii))
    if not _edge_rule_ok(filling):
        raise ConfigError("filling edges are not the intersecting ball pairs "
                          "with levels within one")
    if not _orientation_ok(filling):
        raise ConfigError("filling edges are not oriented toward the deeper "
                          "or larger-id endpoint")
    return filling


def nested_to_dict(nested: NestedFilling) -> dict:
    return {
        "ambient": filling_to_dict(nested.ambient),
        "trace": filling_to_dict(nested.trace),
        "subset": mask_to_descriptor(nested.mask),
        "point_embedding": nested.point_embedding.tolist(),
        "vertex_embedding": nested.vertex_embedding.tolist(),
        "edge_embedding": nested.edge_embedding.tolist(),
    }


def nested_from_dict(doc: dict) -> NestedFilling:
    """Nested filling from its document.  The ambient half is checked as
    in `filling_from_dict`; the trace half and the three embeddings must
    equal those of its restriction to the subset (`_restrict_filling`),
    exactly."""
    for key in ("ambient", "trace", "subset", "point_embedding",
                "vertex_embedding", "edge_embedding"):
        if key not in doc:
            raise ConfigError(f"nested filling document missing {key!r}")
    ambient = filling_from_dict(doc["ambient"])
    nested = _restrict_filling(
        ambient, mask_from_descriptor(ambient.space, doc["subset"]))
    if doc["trace"] != filling_to_dict(nested.trace):
        raise ConfigError("trace filling is not the ambient filling cut to "
                          "the subset")
    for key in ("point_embedding", "vertex_embedding", "edge_embedding"):
        if doc[key] != getattr(nested, key).tolist():
            raise ConfigError(f"{key} is not the restriction's")
    return nested
