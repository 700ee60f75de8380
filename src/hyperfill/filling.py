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
from functools import partial

import numpy as np
from scipy import sparse

from ._kernels import greedy_separated_subset
from .errors import ConfigError
from .space import (FiniteMetricMeasureSpace, SubsetMask, dist_to_subset,
                    space_from_descriptor, space_to_descriptor, subspace,
                    mask_from_descriptor, mask_to_descriptor,
                    RADIUS_FLOOR_FACTOR, _REL_EPS, _Cells, _cached,
                    _cell_pairs, _int, _raw_float, _rowwise_dist)


@dataclass
class Filling:
    """A filling's vertices, edges and balls, with per-level index ranges.

    Vertex ids ascend by level, and so do edge ids by edge level: each
    level's edges form one contiguous range, `edge_range(k)`, so a
    per-level quantity can read a slice of any per-edge array.  A
    filling whose `edge_levels` descend anywhere is rejected with
    `ConfigError`.  The balls are stored once, in the CSR matrix `balls`
    (T, data 1.0): row v lists B(v) in ascending order, its center
    included.  `vertex_membership()` returns T and `ball_members(v)` is a
    read-only view of row v.  Every structure derived from the filling is
    built on first use and kept in ``_cache`` (`space._cached`).
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
    balls: sparse.csr_matrix     # (V, n_points) T, row v lists B(v)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if np.any(np.diff(self.edge_levels) < 0):
            raise ConfigError("filling edges must ascend by level")
        self._level_start = _level_ranges(self.vertex_levels, self.levels)
        self._edge_range = _level_ranges(self.edge_levels, self.levels)
        self.ball_weight_sums = _row_sums(self.balls, self.space.weights)

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

    @_cached
    def cross_edges_at_level(self, n: int) -> np.ndarray:
        """Edge ids joining level n to level n+1, in edge order."""
        at = np.arange(*self.edge_range(n))
        return at[self.vertex_levels[self.heads[at]] != n]

    def ball_members(self, vertex_id: int) -> np.ndarray:
        """B(vertex_id) in ascending order, a read-only view of `balls`."""
        if not (0 <= vertex_id < self.n_vertices):
            raise ConfigError(f"vertex id {vertex_id} out of range")
        a, b = self.balls.indptr[vertex_id:vertex_id + 2]
        row = self.balls.indices[a:b]
        row.flags.writeable = False
        return row

    @property
    def ball_member_list(self) -> list:
        """`ball_members` of every vertex; the library does not read it."""
        return [self.ball_members(v) for v in range(self.n_vertices)]

    # Read by perfbench's counts; the library does not read them.
    @property
    def _edge_membership(self):
        """The kept `edge_membership` matrix, or None before it is built."""
        return self._cache.get(("edge_membership",))

    @property
    def _partition_cache(self) -> dict:
        """The kept partitions of `calculus.build_partition`, by level."""
        return {key[1]: value for key, value in self._cache.items()
                if key[0] == "build_partition"}

    def _require_level(self, n: int):
        if not (self.level_lo <= n <= self.level_hi):
            raise ConfigError(f"level {n} outside window "
                              f"[{self.level_lo}, {self.level_hi}]")
        return self._level_start[n]

    # -- cached derived structures -------------------------------------------

    def vertex_membership(self) -> sparse.csr_matrix:
        """Sparse (n_vertices, n_points) indicator of the vertex balls."""
        return self.balls

    @_cached
    def edge_membership(self) -> sparse.csr_matrix:
        """Sparse (n_edges, n_points) indicator of the edge balls B(e).

        Row e is the logical OR of the vertex-membership rows of its tail
        and head, so it lists the sorted cloud indices of B(e) with data
        True (one byte an entry).  Row e holds ``|B(tail)| + |B(head)| -
        |B(tail) ∩ B(head)|`` entries, with the overlap counts of
        `_overlaps`, so the index array is allocated once at its final
        size and filled in edge blocks of about ``_BLOCK_NNZ`` gathered
        entries.  Each block also sums its rows' weights into
        `edge_ball_mass`, since a product with the whole boolean matrix
        would copy its data as floats, and kept under the key
        ``("edge_ball_mass",)``.  The norms superpose through
        `_superpose`.
        """
        sizes = np.diff(self.balls.indptr)
        shared = self._overlaps()
        indptr = np.zeros(self.n_edges + 1, dtype=np.int64)
        np.cumsum(sizes[self.tails] + sizes[self.heads] - shared,
                  out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=_index_dtype(
            self.space.n_points))
        mass = np.zeros(self.n_edges)
        balls = self.balls.astype(bool)
        for lo, hi, union in _row_pairs(balls, self.tails, balls,
                                        self.heads, np.add):
            union.sort_indices()
            indices[indptr[lo]:indptr[hi]] = union.indices
            mass[lo:hi] = union @ self.space.weights
        self._cache["edge_ball_mass",] = mass
        return sparse.csr_matrix(
            (np.ones(indices.size, dtype=bool), indices, indptr),
            shape=(self.n_edges, self.space.n_points))

    def edge_ball_mass(self) -> np.ndarray:
        """mu(B(e)) for every edge: each row of `edge_membership` summed
        over the point weights in index order, while that matrix is
        built."""
        self.edge_membership()
        return self._cache["edge_ball_mass",]

    def _by_level(self, balls: sparse.csr_matrix) -> sparse.csr_matrix:
        """Row v of an (n_vertices, n_points) matrix moved into the block of
        ``n_points`` columns of v's level, out of ``L * n_points``."""
        n, width = self.space.n_points, len(self.levels) * self.space.n_points
        shift = np.repeat((self.vertex_levels - self.level_lo) * n,
                          np.diff(balls.indptr))
        return sparse.csr_matrix(
            (balls.data, (balls.indices + shift).astype(_index_dtype(width)),
             balls.indptr), shape=(self.n_vertices, width))

    @_cached
    def _overlaps(self) -> np.ndarray:
        """|B(tail) ∩ B(head)| for every edge, as int32.

        `_assemble` and `_restrict_filling` seed this key with the counts
        they hold (the build's products, the cut's meet test); any other
        filling, a loaded one or a `dataclasses.replace` copy included,
        reads them from `_edge_overlaps`, or raises `ConfigError`.
        """
        overlap = _edge_overlaps(self)
        if overlap is None:
            raise ConfigError("filling edges are not the intersecting "
                              "ball pairs with levels within one")
        return overlap

    @_cached
    def _ball_levels(self):
        """The vertex balls and each edge's shorter correction row, placed
        in the block of its level.

        Returns ``(balls_t, q_t, at_tail, at_head)``.  Both matrices have
        ``L * n_points`` rows, one block of ``n_points`` per level of the
        window (L levels), and are transposed (CSC), as they are
        multiplied: column v of ``balls_t`` lists B(v) in the block of v's
        level, and column e of ``q_t`` (Q) lists, in the block of e's
        edge level, the shorter of two rows:

        * the overlap O_e = B(tail) ∩ B(head), with data -1: both
          endpoint balls count e (``at_tail`` and ``at_head`` are set);
        * the difference D_e = B(small) \\ B(big), with data +1: only the
          larger endpoint ball (by point count, the tail on a tie) counts
          e.

        Either way the counted balls plus Q's row make B(e).  A nested
        edge (D_e empty) has no row.  The counts of `_overlaps` choose
        each row before any is gathered; then each is built by one sparse
        operation in `_row_pairs` blocks, a product for O_e and a ``small
        > big`` comparison for D_e.  On a 64 x 64 grid at levels 0..4, Q
        holds 1,266,972 entries, 44% of the 2,880,043 of the overlap
        matrix B(tail) ∩ B(head) it replaces.  `_superpose` multiplies
        with both matrices.
        """
        n, lo = self.space.n_points, self.level_lo
        overlap = self._overlaps()
        sizes = np.diff(self.balls.indptr)
        head_big = sizes[self.heads] > sizes[self.tails]
        small = np.where(head_big, self.tails, self.heads)
        big = np.where(head_big, self.heads, self.tails)
        rest = sizes[small] - overlap
        keep_o = overlap <= rest
        lengths = np.where(keep_o, overlap, rest)
        flags = self.balls.astype(bool)
        # D blocks are cut by the larger ball's rows, which hold most
        # of a block's gathered entries
        found = []
        for mine, a, b, combine in (
                (keep_o, self.tails, self.heads,
                 lambda x, y: x.multiply(y)),
                (~keep_o, big, small, lambda x, y: y > x)):
            at = np.flatnonzero(mine & (lengths > 0))
            found.append(np.concatenate([rows.indices for _, _, rows in (
                _row_pairs(flags, a[at], flags, b[at], combine))]))
        indptr = np.zeros(self.n_edges + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        balls = self._by_level(self.balls)
        indices = np.empty(indptr[-1], dtype=balls.indices.dtype)
        slots = np.repeat(keep_o, lengths)
        indices[slots] = found[0]
        indices[~slots] = found[1]
        del found, slots
        for k, (a, b) in self._edge_range.items():
            indices[indptr[a]:indptr[b]] += (k - lo) * n
        signs = np.repeat(np.where(keep_o, -1.0, 1.0), lengths)
        signs.flags.writeable = False
        q_t = sparse.csc_matrix(
            (signs, indices, indptr),
            shape=(len(self.levels) * n, self.n_edges))
        return (balls.T, q_t, keep_o | ~head_big, keep_o | head_big)

    @_cached
    def _half_ball_levels(self) -> sparse.csc_matrix:
        """The open vertex half balls ``B(center, radius / 2)``, placed by
        level and transposed as the vertex balls of `_ball_levels` are.

        One batched `FiniteMetricMeasureSpace.ball_rows` query.  An edge's
        half ball is its tail's, and a tail sits at its edge's level, so
        ``H @ bincount(tails, w)`` is every level's half-ball
        superposition.
        """
        return self._by_level(
            self.space.ball_rows(self.centers, 0.5 * self.radii)).T

    def _superpose(self, w: np.ndarray) -> np.ndarray:
        """Level superpositions of edge weights over the edge balls.

        Returns one row per level k of the window: ``G_k = sum_{|e|=k}
        w_e chi_B(e)`` on the cloud points, for edge weights ``w`` (one
        nonnegative entry per edge).  A norm over part of the window
        gives the other edges weight zero; their terms add exact zeros.
        Since ``B(e) = B(tail) ∪ B(head)``, ``G_k`` is each vertex ball
        weighted by the sum of the level-k edge weights it counts (both
        endpoints of an edge whose Q row is its overlap, the larger one
        of the rest), plus Q's rows: ``G = Tᵀ s' + Qᵀ w`` over the
        matrices of `_ball_levels`.  Every Q row lies inside B(e), so a
        point outside the balls of every positive-weight edge of level k
        adds only zeros and gets exactly 0.0.  Elsewhere ``G_k`` is at
        least its largest term, and the positive terms sum to at most
        twice ``G_k`` and the negative ones to at most ``G_k``, so their
        rounding cannot bring it near zero.  One product with each matrix
        covers every level; Q's product reads 44% of the entries the
        overlap matrix's did on a 64 x 64 grid at levels 0..4.
        """
        n, V = self.space.n_points, self.n_vertices
        balls_t, q_t, at_tail, at_head = self._ball_levels()
        # The head of a cross edge is a level-(k+1) vertex, whose ball sits
        # in block k+1: its share is summed apart and moved back a block.
        cross = self.vertex_levels[self.heads] != self.edge_levels
        g = balls_t @ (np.bincount(self.tails, np.where(at_tail, w, 0.0), V)
                       + np.bincount(self.heads, np.where(
                           at_head & ~cross, w, 0.0), V))
        g[:-n] += (balls_t @ np.bincount(
            self.heads, np.where(at_head & cross, w, 0.0), V))[n:]
        g += q_t @ w
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
    _cache: dict = field(default_factory=dict, init=False, repr=False,
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


def _row_sums(rows, values):
    """``values[row].sum()`` for each row of a CSR matrix, bit for bit:
    the rows of one length are gathered into a (rows, length) array and
    summed along axis 1, which keeps each row's pairwise summation, in
    blocks of about ``_BLOCK_NNZ`` entries."""
    sizes = np.diff(rows.indptr)
    sums = np.empty(sizes.size)
    order = np.argsort(sizes, kind="stable")
    for part in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        size = int(sizes[part[0]]) if part.size else 0
        step = max(1, _BLOCK_NNZ // max(size, 1))
        for lo in range(0, part.size, step):
            at = part[lo:lo + step]
            sums[at] = values[rows.indices[
                rows.indptr[at, None] + np.arange(size)]].sum(axis=1)
    return sums


def _index_dtype(n_columns: int):
    """int32 for sparse column indices below 2^31, else int64."""
    return np.int32 if n_columns <= np.iinfo(np.int32).max else np.int64


def _near_level_pairs(balls, block):
    """The intersecting ball pairs whose levels differ by at most one, in
    edge order, and their shared point counts (int32).

    ``balls`` is T and ``block[n]`` the half-open row range of level n.
    One product per level n multiplies its rows with the rows of levels
    n and n+1; it yields the same-level pairs with tail < head, sorted
    by (tail, head), then the pairs from level n to n+1, sorted alike.
    No product pairs levels further apart.
    """
    parts = []
    for n, (a0, a1) in block.items():
        b1 = block[n + 1][1] if n + 1 in block else a1
        overlap = balls[a0:a1] @ balls[a0:b1].T
        overlap.sort_indices()
        overlap = overlap.tocoo()
        rows, cols = overlap.row, overlap.col
        cross = cols >= a1 - a0
        keep = np.concatenate((np.flatnonzero(~cross & (rows < cols)),
                               np.flatnonzero(cross)))
        parts.append((a0 + rows[keep].astype(np.int64),
                      a0 + cols[keep].astype(np.int64),
                      overlap.data[keep].astype(np.int32)))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _assemble(space, flavor, level_lo, level_hi, level_vertex_centers,
              level_vertex_radii, level_rows):
    """Shared tail of the builders: ids, balls, edges, orientation.  The
    scans' rows, ``level_rows[n]``, are stacked as `Filling.balls`."""
    window = range(level_lo, level_hi + 1)
    centers = np.concatenate([level_vertex_centers[n] for n in window]
                             ).astype(np.int64)
    radii = np.concatenate([level_vertex_radii[n] for n in window]
                           ).astype(np.float64)
    levels = np.concatenate([np.full(len(level_vertex_centers[n]), n)
                             for n in window]).astype(np.int64)
    rows = [row for n in window for row in level_rows[n]]
    indptr = np.cumsum([0, *map(len, rows)])
    balls = sparse.csr_matrix((np.ones(indptr[-1]), np.concatenate(rows),
                               indptr), shape=(len(rows), space.n_points))
    tails, heads, shared = _near_level_pairs(
        balls, _level_ranges(levels, window))
    filling = Filling(space=space, flavor=flavor, level_lo=level_lo,
                      level_hi=level_hi, centers=centers, radii=radii,
                      vertex_levels=levels, tails=tails, heads=heads,
                      edge_levels=np.minimum(levels[tails], levels[heads]),
                      balls=balls)
    filling._cache["_overlaps",] = shared
    return filling


def build_filling(space: FiniteMetricMeasureSpace, level_lo: int,
                  level_hi: int) -> Filling:
    """Plain filling: level n vertices are a greedy maximal 2^-(n+1)-separated
    subset of the cloud (scanned by ascending point index), with balls of
    radius 2^-n, each the row the scan asked for."""
    _validate_window(space, level_lo, level_hi)
    all_idx = np.arange(space.n_points, dtype=np.int64)
    level_centers, level_radii, level_rows = {}, {}, {}
    for n in range(level_lo, level_hi + 1):
        radius = 2.0 ** (-n)
        level_centers[n], level_rows[n] = greedy_separated_subset(
            all_idx, radius / 2, partial(space.ball_row, radius=radius))
        level_radii[n] = np.full(level_centers[n].shape[0], radius)
    return _assemble(space, "plain", level_lo, level_hi, level_centers,
                     level_radii, level_rows)


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

    level_centers, level_radii, level_rows = {}, {}, {}
    for n in range(level_lo, level_hi + 1):
        scale = 2.0 ** (-n)
        on_f, on_rows = greedy_separated_subset(
            members, scale, partial(space.ball_row, radius=4 * scale))
        far = np.flatnonzero(dist_f >= scale)
        off_f, off_rows = greedy_separated_subset(
            far, scale / 2, partial(space.ball_row, radius=scale))
        level_centers[n] = np.concatenate([on_f, off_f])
        level_radii[n] = np.repeat([4 * scale, scale], [on_f.size, off_f.size])
        level_rows[n] = on_rows + off_rows
    return _restrict_filling(_assemble(space, "nested-ambient", level_lo,
                                       level_hi, level_centers, level_radii,
                                       level_rows),
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
    # F's columns, taken in ascending order, keep each cut row sorted
    balls = ambient.balls[vertex_embedding][:, mask.member_indices]

    to_trace = np.where(on_f, np.cumsum(on_f) - 1, -1)
    both = np.flatnonzero(on_f[ambient.tails] & on_f[ambient.heads])
    tails, heads = to_trace[ambient.tails[both]], to_trace[ambient.heads[both]]
    cut = balls.astype(bool)
    shared = np.concatenate([m for _, _, m in _row_pairs(
        cut, tails, cut, heads, lambda a, b: np.diff(a.multiply(b).indptr))])
    meets = shared > 0
    edge_embedding = both[meets]

    trace = Filling(space=sub_space, flavor="trace",
                    level_lo=ambient.level_lo, level_hi=ambient.level_hi,
                    centers=centers, radii=ambient.radii[vertex_embedding],
                    vertex_levels=ambient.vertex_levels[vertex_embedding],
                    tails=tails[meets], heads=heads[meets],
                    edge_levels=ambient.edge_levels[edge_embedding],
                    balls=balls)
    trace._cache["_overlaps",] = shared[meets].astype(np.int32)
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


@_cached
def _edge_overlaps(filling: Filling):
    """|B(tail) ∩ B(head)| for every edge, as int32, or None unless the
    edges are, once each, the pairs of vertices with levels within one
    whose balls share a cloud point.

    The pairs and counts are recounted by `_near_level_pairs` from the
    rows of T, level k against levels k and k+1, and matched one to one
    to the edges by sorted keys; an edge two levels apart matches no
    pair.  These are the products the build finds its edges with, so
    the recount checks the edge list against T.  The check stays
    independent of the build because T itself is not trusted:
    `audit_filling` verifies every row of T against the distances with
    its cell list.  Recounted once per filling and kept, so a loaded
    filling's edge-rule check (`Filling._overlaps`) and its audit share
    one recount; a built filling's `_overlaps` holds its build's counts
    instead, so its audit recounts.
    """
    tails, heads, shared = _near_level_pairs(filling.balls,
                                              filling._level_start)
    n = filling.n_vertices
    expected = tails * n + heads
    order = np.argsort(expected)
    keys = (np.minimum(filling.tails, filling.heads) * n
            + np.maximum(filling.tails, filling.heads))
    at = np.argsort(keys)
    if not np.array_equal(keys[at], expected[order]):
        return None
    counts = np.empty(filling.n_edges, dtype=np.int32)
    counts[at] = shared[order]
    return counts


def _orientation_ok(filling: Filling) -> bool:
    """Same-level edges point to the larger id, cross edges one level down."""
    lt = filling.vertex_levels[filling.tails]
    lh = filling.vertex_levels[filling.heads]
    return bool(np.all(np.where(lt == lh, filling.tails < filling.heads,
                                lh == lt + 1)))


def _level_audit(filling: Filling, level: int):
    """``(separation_ok, covering_ok, radius_law_ok)`` for the vertices of
    one level.  The flavor fixes each vertex's radius and separation: a
    plain vertex has radius 2^-n and separation 2^-(n+1), a trace vertex
    4 * 2^-n and 2^-n, and a nested-ambient vertex either pair.

    The cells' side is ``(1 + 1e-12)`` times the level's largest radius
    or separation, so every ball member and every pair of centers closer
    than their separation lies in neighbouring cells (`space._Cells`).  A
    center's candidates are measured with `_rowwise_dist` and tested with
    strict ``<``:

    * radius law: each radius is the flavor's, and the (vertex, point)
      keys of the candidates inside each ball, sorted, equal the keys of
      T's rows, which therefore ascend strictly and list exactly the open
      balls;
    * covering: every point lies inside the half ball of a candidate
      center;
    * separation: no two centers, from a second cell list of the level's
      centers, are closer than the smaller of their separations, less
      1e-15.
    """
    space, balls = filling.space, filling.balls
    points, metric, n = space.points, space.metric_kind, space.n_points
    lo, hi = filling._level_start[level]
    centers, radii = filling.centers[lo:hi], filling.radii[lo:hi]
    scale = 2.0 ** (-level)
    if filling.flavor == "plain":
        seps, radius_ok = np.full(hi - lo, scale / 2), np.all(radii == scale)
    elif filling.flavor == "trace":
        seps, radius_ok = np.full(hi - lo, scale), np.all(radii == 4 * scale)
    else:
        on_f = radii == 4 * scale
        seps = np.where(on_f, scale, scale / 2)
        radius_ok = np.all(on_f | (radii == scale))
    if not centers.size:
        return True, False, True
    side = (1 + _REL_EPS) * max(radii.max(), seps.max())
    cells, coords = space._cells(side), points[centers]
    covered = np.zeros(n, dtype=bool)
    for a, b, owner, member in _cell_pairs(cells, cells.keys[centers],
                                           space.dim):
        dist = _rowwise_dist(np.take(points, member, axis=0),
                             np.take(coords, owner, axis=0), metric)
        r = radii[owner]
        covered[member[dist < r / 2]] = True
        inside = dist < r
        rows = balls.indptr[lo + a:lo + b + 1]
        listed = (np.repeat(np.arange(a, b), np.diff(rows)) * n
                  + balls.indices[rows[0]:rows[-1]])
        radius_ok = radius_ok and np.array_equal(
            np.sort(owner[inside] * n + member[inside]), listed)
    separation_ok = True
    cells = _Cells(coords, side)
    for _, _, owner, other in _cell_pairs(cells, cells.keys, space.dim):
        apart = owner != other
        owner, other = owner[apart], other[apart]
        dist = _rowwise_dist(np.take(coords, other, axis=0),
                             np.take(coords, owner, axis=0), metric)
        separation_ok = separation_ok and bool(np.all(
            dist >= np.minimum(seps[owner], seps[other]) - 1e-15))
    return separation_ok, bool(covered.all()), bool(radius_ok)


def audit_filling(filling: Filling) -> dict:
    """Recheck the construction invariants; returns measured facts.

    Verifies per level: center separation, covering by half-balls, and the
    radius law for the filling's flavor: each vertex has its flavor's
    radius, and its ball lists exactly the cloud points closer than that
    radius to its center.  Over the whole graph it verifies the edge rule
    (edge iff levels within one and balls sharing a point, listed once)
    and edge orientation, the rule recounted by `_edge_overlaps`.
    Separation, covering and balls are judged on per-level cell lists
    (`_level_audit`), which test the candidates themselves rather than
    through the build's ball queries: a center is measured only against
    the points of the cells around it, so the work follows nnz(T), and
    the candidate pairs are taken in blocks under a fixed byte budget.
    """
    report = {"flavor": filling.flavor, "levels": {}, "edge_rule_ok": True,
              "orientation_ok": True, "radius_law_ok": True}

    for n in filling.levels:
        lo, hi = filling._level_start[n]
        separation_ok, covering_ok, radius_ok = _level_audit(filling, n)
        report["radius_law_ok"] &= radius_ok
        report["levels"][n] = {
            "n_vertices": hi - lo,
            "separation_ok": separation_ok,
            "covering_ok": covering_ok,
            "radius_law_ok": radius_ok,
        }

    report["edge_rule_ok"] = _edge_overlaps(filling) is not None
    report["n_edges"] = filling.n_edges
    report["orientation_ok"] = _orientation_ok(filling)
    report["overlap"] = overlap_audit(filling)
    report["ok"] = bool(report["edge_rule_ok"] and report["orientation_ok"]
                        and report["radius_law_ok"]
                        and all(lv["separation_ok"] and lv["covering_ok"]
                                for lv in report["levels"].values()))
    return report


def audit_nested(nested: NestedFilling) -> dict:
    """Compatibility checks between the subset filling and the ambient one.

    The trace balls are checked as restrictions in one array comparison:
    the ambient rows of the embedded vertices, cut to their entries on F,
    must equal the trace rows carried to ambient points by the point
    embedding, row by row.
    """
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
    rows = amb.balls[ve]
    on_f = member_flags[rows.indices]
    owner = np.repeat(np.arange(ve.size), np.diff(rows.indptr))
    report["trace_ball_is_restriction"] = bool(
        np.array_equal(np.bincount(owner[on_f], minlength=ve.size),
                       np.diff(tr.balls.indptr))
        and np.array_equal(rows.indices[on_f],
                           nested.point_embedding[tr.balls.indices]))
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
    """A document's integer ids, each read by `space._int`."""
    return np.array([_int(v, what) for v in values], dtype=np.int64)


def filling_from_dict(doc: dict) -> Filling:
    """Filling from its document, validated as a built one: the window as
    in `build_filling`, a vertex at every level, integer ids and a known
    flavor, with positive finite radii (every ball holds its center).
    The balls are recomputed from the space, and edges out of level
    order or breaking the edge rule or the orientation are rejected, as
    is a level whose radii are not its flavor's, whose centers are not
    separated or whose half balls do not cover the space
    (`_level_audit`)."""
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
        radii = np.array([_raw_float(v["radius"], "radii")
                          for v in doc["vertices"]], dtype=np.float64)
        levels = _ids([v["level"] for v in doc["vertices"]], "levels")
        tails = _ids([e["tail"] for e in doc["edges"]], "edge tails")
        heads = _ids([e["head"] for e in doc["edges"]], "edge heads")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed filling document: {exc!r}") from None
    _validate_window(space, level_lo, level_hi)
    if centers.size and (centers.min() < 0 or centers.max() >= space.n_points):
        raise ConfigError("vertex centers out of range")
    if not np.all((radii > 0) & np.isfinite(radii)):
        raise ConfigError("vertex radii must be positive and finite")
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
                      balls=space.ball_rows(centers, radii))
    filling._overlaps()          # the edge rule, whose counts it keeps
    if not _orientation_ok(filling):
        raise ConfigError("filling edges are not oriented toward the deeper "
                          "or larger-id endpoint")
    for n in filling.levels:
        separation_ok, covering_ok, radius_ok = _level_audit(filling, n)
        if not radius_ok:
            raise ConfigError(f"level {n}: the radii are not the "
                              f"{doc['flavor']} flavor's")
        if not separation_ok:
            raise ConfigError(f"level {n}: the centers are not separated")
        if not covering_ok:
            raise ConfigError(f"level {n}: the half balls do not cover the "
                              "space")
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
