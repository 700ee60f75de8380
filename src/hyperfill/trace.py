"""Trace and extension operators over a nested filling.

Restriction to the subset is computed scale by scale: the ambient ball
means are differentiated along edges, the edge sequence is restricted to
the subset filling embedded in the ambient one, and the telescoping
integral over the subset rebuilds a function on the subset points.
Extension runs the same pipeline in reverse, zero-extending the subset
edge sequence into the ambient filling.  Each operator reports the norm
on both sides of the corresponding equivalence, never a hidden
constant.  One norm variant scores both sides: an embedded ambient
vertex's half ball restricted to the subset is the subset vertex's own
half ball, so the ``half_ball`` variant needs no restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .calculus import (discrete_derivative, level_blend, poisson_extension,
                       telescoping_integral)
from .errors import ConfigError, GateError, NumericalError
from .filling import NestedFilling
from .norms import (NormVariant, SmoothnessParams, admissibility,
                    besov_fn_norm, besov_seq_norm, lp_norm, nonhom_norm,
                    triebel_fn_norm, triebel_seq_norm)
from .space import _cached, _rowwise_dist, porosity_scan

__all__ = [
    "TraceResult",
    "ExtensionResult",
    "SobolevCertificate",
    "trace_besov",
    "extend_besov",
    "trace_triebel",
    "extend_sobolev",
    "nonhom_trace",
    "nonhom_extend",
]

# Pair budget for the pointwise-gradient certificate of an extension.
_CERT_PAIR_CAP = 2_000_000
# Seed of the certificate's pair draws once the budget is exceeded.
_CERT_PAIR_SEED = 0
# Pairs checked per block; bounds the certificate's per-call scratch.
_CERT_BLOCK = 1 << 18
# Fewest points in a block of the certificate's cells.  Clouds above 64^2
# points use blocks of ceil(sqrt(n)), so there are at most about n cells.
_CERT_CELL = 64


@dataclass(eq=False)
class TraceResult:
    """Restriction of a function to the subset, with both norms.

    ``operator_ratio`` is trace norm over source norm (zero when both
    vanish); ``details`` carries auxiliary measurements such as the
    restricted sequence norms on either side of the equivalence.
    """

    samples: np.ndarray = field(repr=False)
    trace_norm: float
    source_norm: float
    operator_ratio: float
    trace_params: SmoothnessParams
    source_params: SmoothnessParams
    details: dict


@dataclass(eq=False)
class ExtensionResult:
    """Extension of a subset function into the ambient space."""

    samples: np.ndarray = field(repr=False)
    target_norm: float
    source_norm: float
    operator_ratio: float
    target_params: SmoothnessParams
    source_params: SmoothnessParams
    restriction_sup_error: float
    details: dict
    certificate: "SobolevCertificate | None" = None


@dataclass(eq=False)
class SobolevCertificate:
    """Explicit pointwise gradient certifying a Sobolev extension.

    ``g`` is a Hajlasz gradient of the extended function: for every
    sampled pair, ``|u(x) - u(y)| <= d(x, y) (g(x) + g(y))``.  ``K`` is
    the factor by which the raw edge superposition was scaled to make
    that hold, and ``pairs_checked`` counts the sampled pairs.  There is one
    pair sample per nested filling, drawn with seed 0 and reused by every
    extension that filling certifies.
    """

    g: np.ndarray = field(repr=False)
    K: float
    norm: float
    pairs_checked: int


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


# The source kinds each theorem takes, its default first.
_SOURCE_KINDS = {"besov": ("besov",), "triebel": ("triebel",),
                 "nonhom": ("nonhom_besov", "nonhom_triebel"),
                 "sobolev": ("besov",)}


def _subset_params(nested: NestedFilling, params: SmoothnessParams,
                   theorem: str) -> SmoothnessParams:
    """The subset-side exponents of a source, or ConfigError for a kind
    the theorem does not take, or GateError outside its window or (where
    required) on a subset that fails the porosity scan, run once per
    nested filling with seed 0.  The subset side is Besov at ``s - (Q -
    lambda)/p``, with the source ``q`` for Besov sources and ``q = p``
    otherwise, and inhomogeneous for inhomogeneous sources."""
    if params.kind not in _SOURCE_KINDS[theorem]:
        raise ConfigError("the %s theorem takes params kind %s, not %r"
                          % (theorem, " or ".join(_SOURCE_KINDS[theorem]),
                             params.kind))
    gate = ("sobolev" if theorem == "sobolev"
            else params.kind.removeprefix("nonhom_"))
    space = nested.ambient.space
    adm = admissibility(space.declared_Q, nested.mask.declared_lambda,
                        params, gate)
    if not adm.admissible:
        raise GateError("inadmissible exponents: " + "; ".join(adm.reasons))
    if adm.requires_porosity and _porosity(nested) is None:
        raise GateError("subset failed the porosity scan; the %s window "
                        "needs a porous subset" % gate)
    return SmoothnessParams(
        s=adm.trace_smoothness, p=params.p,
        q=params.q if gate == "besov" else params.p,
        kind="nonhom_besov" if theorem == "nonhom" else "besov")


@_cached
def _porosity(nested: NestedFilling):
    """The subset's `porosity_scan` constant, or None; run with seed 0."""
    return porosity_scan(nested.ambient.space, nested.mask)


def _anchor(nested: NestedFilling) -> int:
    """The ambient index of the first subset point, where the homogeneous
    operators take the coarse blend's value."""
    return int(nested.point_embedding[0])


def _restrict(nested: NestedFilling, f, homogeneous: bool = True):
    """The restriction of ``f`` to the subset, scale by scale.

    Returns ``(samples, du, u_amb)``: the telescoping integral on the
    subset of the restricted derivative plus the blend of the restricted
    ball means at the subset's lowest level (its value at the first subset
    point when ``homogeneous``), the ambient derivative ``du``, and ``du``
    zero off the embedded subset edges.  The Sobolev class has no trace
    operator; the theorem suite restricts its extensions with this map.
    """
    amb, tr = nested.ambient, nested.trace
    v = poisson_extension(amb, f)
    du = discrete_derivative(amb, v)
    u_sub = du[nested.edge_embedding]
    u_amb = np.zeros(amb.n_edges)
    u_amb[nested.edge_embedding] = u_sub
    coarse = level_blend(tr, v[nested.vertex_embedding], tr.level_lo)
    samples = telescoping_integral(tr, u_sub)
    return samples + (coarse[0] if homogeneous else coarse), du, u_amb


def _extend(nested: NestedFilling, f_sub, homogeneous: bool = True):
    """The extension of ``f_sub``, the inverse pipeline of `_restrict`.

    Returns ``(extended, u_amb, u_sub)``: the telescoping integral over
    the ambient of the zero-extended subset derivative plus the coarse
    blend of the zero-extended subset ball means (its value at the first
    subset point when ``homogeneous``), that derivative and the subset
    derivative itself.
    """
    amb, tr = nested.ambient, nested.trace
    v_sub = poisson_extension(tr, f_sub)
    u_sub = discrete_derivative(tr, v_sub)
    u_amb = np.zeros(amb.n_edges)
    u_amb[nested.edge_embedding] = u_sub
    v_amb = np.zeros(amb.n_vertices)
    v_amb[nested.vertex_embedding] = v_sub
    coarse = level_blend(amb, v_amb, amb.level_lo)
    extended = telescoping_integral(amb, u_amb)
    return (extended + (coarse[_anchor(nested)] if homogeneous else coarse),
            u_amb, u_sub)


def _traced(samples, t_norm, s_norm, t_params, s_params,
            details) -> TraceResult:
    return TraceResult(samples, t_norm, s_norm, _ratio(t_norm, s_norm),
                       t_params, s_params, details)


def _extended(nested: NestedFilling, f_sub, extended, t_norm, s_norm,
              t_params, s_params, details, cert=None) -> ExtensionResult:
    sup_err = float(np.abs(extended[nested.point_embedding] - f_sub).max())
    return ExtensionResult(extended, t_norm, s_norm, _ratio(t_norm, s_norm),
                           t_params, s_params, sup_err, details, cert)


def trace_besov(nested: NestedFilling, f, params: SmoothnessParams,
                variant: NormVariant | None = None) -> TraceResult:
    """Restrict a Besov-class function to the subset.

    Parameters
    ----------
    nested : NestedFilling
    f : array_like
        Samples on the ambient points.
    params : SmoothnessParams
        Source exponents with kind ``besov``; must pass the Besov trace
        window for the declared dimensions.
    variant : NormVariant, optional
        Scores both sides.

    Returns
    -------
    TraceResult
        Trace samples with the target norm at the reduced smoothness
        ``s - (Q - lambda)/p`` and the source norm, plus the restricted
        sequence norm measured on both sides of the equivalence.
    """
    t_params = _subset_params(nested, params, "besov")
    samples, du, u_amb = _restrict(nested, f)
    t_norm = besov_fn_norm(nested.trace, samples, t_params, variant)
    s_norm = besov_seq_norm(nested.ambient, du, params, variant)
    details = {
        "anchor_point": _anchor(nested),
        "trace_side_seq_norm": besov_seq_norm(
            nested.trace, u_amb[nested.edge_embedding], t_params, variant),
        "ambient_side_seq_norm": besov_seq_norm(
            nested.ambient, u_amb, params, variant),
        "source_seq_norm": s_norm,
    }
    return _traced(samples, t_norm, s_norm, t_params, params, details)


def extend_besov(nested: NestedFilling, f_sub, params: SmoothnessParams,
                 variant: NormVariant | None = None) -> ExtensionResult:
    """Extend a subset function into the ambient Besov class.

    ``params`` carries the ambient target exponents, with kind ``besov``;
    the source norm is measured at the matching trace smoothness on the
    subset.
    """
    src_params = _subset_params(nested, params, "besov")
    extended, u_amb, u_sub = _extend(nested, f_sub)
    t_norm = besov_fn_norm(nested.ambient, extended, params, variant)
    s_norm = besov_seq_norm(nested.trace, u_sub, src_params, variant)
    details = {
        "zero_extended_seq_norm": besov_seq_norm(
            nested.ambient, u_amb, params, variant),
    }
    return _extended(nested, f_sub, extended, t_norm, s_norm, params,
                     src_params, details)


def trace_triebel(nested: NestedFilling, f, params: SmoothnessParams,
                  variant: NormVariant | None = None) -> TraceResult:
    """Restrict a Triebel-class function; the target is a Besov class.

    ``params`` must have kind ``triebel``; any other kind raises
    `ConfigError`.  The trace lands in the Besov family with ``q = p``
    regardless of the source ``q``; the details record the sequence norm
    of the restricted derivative at the source ``q`` and at ``q = p`` so
    the advertised ``q``-independence is visible per run.
    """
    t_params = _subset_params(nested, params, "triebel")
    samples, _, u_amb = _restrict(nested, f)
    t_norm = besov_fn_norm(nested.trace, samples, t_params, variant)
    s_norm = triebel_fn_norm(nested.ambient, f, params, variant)
    details = {
        "anchor_point": _anchor(nested),
        "restricted_at_source_q": triebel_seq_norm(
            nested.ambient, u_amb, params, variant),
        "restricted_at_q_eq_p": triebel_seq_norm(
            nested.ambient, u_amb, params.replace(q=params.p), variant),
    }
    return _traced(samples, t_norm, s_norm, t_params, params, details)


def _pair_sample(n: int, cap: int, rng) -> tuple[np.ndarray, np.ndarray]:
    total = n * (n - 1) // 2
    if total <= cap:
        # np.triu_indices(n, k=1) built in int32: row i holds (i, i+1..n-1)
        rows = np.arange(n, dtype=np.int32)
        size = n - 1 - rows
        ii = np.repeat(rows, size)
        jj = np.arange(total, dtype=np.int32)
        jj -= np.repeat((np.cumsum(size) - size - rows - 1).astype(np.int32),
                        size)
        return ii, jj
    # each draw is cast as it is made, so no two int64 draws are held
    ii = rng.integers(0, n, size=cap).astype(np.int32)
    jj = rng.integers(0, n, size=cap).astype(np.int32)
    # filtered one at a time, so no more than three pair arrays are held
    keep = ii != jj
    ii = ii[keep]
    return ii, jj[keep]


class _CertPlan(NamedTuple):
    """The certificate's pairs, grouped into cells of point blocks.

    A block is a run of ``block`` consecutive points in the kd-tree's
    leaf ``order``.  With nb blocks, cell ``I * nb + J`` holds the pairs
    whose first point lies in block I and whose second lies in block J:
    they are ``starts[c]:starts[c + 1]``, each stored as the offsets
    ``first`` and ``second`` of its points inside their blocks (uint8
    while a block holds at most 256 points).  `_cell_pairs` turns cells
    back into point pairs.  ``dmin[I, J]`` is at most the distance of
    every pair in cell (I, J).
    """

    first: np.ndarray
    second: np.ndarray
    starts: np.ndarray
    order: np.ndarray
    block: int
    dmin: np.ndarray


@_cached
def _cert_pair_plan(nested: NestedFilling) -> _CertPlan:
    """The certificate's pairs, grouped by cell.

    They depend only on the ambient space, so they are drawn and
    grouped once per nested filling, then kept in its cache.
    """
    space = nested.ambient.space
    n = space.n_points
    ii, jj = _pair_sample(n, _CERT_PAIR_CAP,
                          np.random.default_rng(_CERT_PAIR_SEED))
    block = max(_CERT_CELL, math.isqrt(n - 1) + 1)
    order = space._tree().indices
    firsts = np.arange(0, n, block)
    nb = firsts.size
    # A pair's cell-major key (I nb + J) block^2 + a block + b, with
    # a and b its offsets, is a sum of one term of each point, added
    # while the draws are let go; one in-place sort of the keys groups
    # the pairs by cell.  The keys stay below span^2, so they are four
    # bytes up to 65,536 points; the end of the last cell, span^2,
    # may not fit and is the pair count.
    span = nb * block
    key_t = np.uint32 if span * span <= 1 << 32 else np.int64
    pos = np.empty(n, dtype=key_t)
    pos[order] = np.arange(n, dtype=key_t)
    blk, off = np.divmod(pos, block)
    key = ((blk * span + off) * block)[ii]
    del ii
    key += (blk * block * block + off)[jj]
    del jj
    key.sort()
    starts = np.append(np.searchsorted(
        key, np.arange(nb * nb, dtype=key_t) * (block * block)),
        key.size)
    off_t = np.uint8 if block <= 256 else np.uint16
    second = (key % block).astype(off_t)
    key //= block
    key %= block
    first = key.astype(off_t)
    del key
    # Box gaps take the pairs' arithmetic, monotone in each coordinate
    # difference, so no gap exceeds the distance of a pair in its cell.
    pts = space.points[order]
    lo = np.minimum.reduceat(pts, firsts)
    hi = np.maximum.reduceat(pts, firsts)
    gap = np.maximum(np.maximum(lo[None] - hi[:, None],
                                lo[:, None] - hi[None]), 0.0)
    dmin = _rowwise_dist(gap, np.zeros(space.dim), space.metric_kind)
    return _CertPlan(first, second, starts, order, block, dmin)


def _cell_pairs(plan: _CertPlan, cells: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Point indices ``i``, ``j`` of the plan's pairs in ``cells``."""
    lo = plan.starts[cells]
    size = plan.starts[cells + 1] - lo
    at = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())
    nb = plan.dmin.shape[0]
    i = np.repeat(cells // nb * plan.block, size) + plan.first[at]
    j = np.repeat(cells % nb * plan.block, size) + plan.second[at]
    return plan.order[i], plan.order[j]


def _certificate_constant(space, plan: _CertPlan, extended, base) -> float:
    """Smallest ``K`` with ``|u_i - u_j| <= K d_ij (b_i + b_j)`` on the plan.

    The pairs inside one block are scanned first; their largest quotient
    is a lower bound on ``K``.  A cell's quotients are at most
    ``max(u_hi(I) - u_lo(J), u_hi(J) - u_lo(I)) / (dmin (b_lo(I) +
    b_lo(J)))`` over the block extrema, since rounding is monotone, so
    only the cells whose bound reaches that lower bound are scanned: the
    result equals the scan of every pair.  A cell holding a pair with
    ``b_i + b_j = 0`` or ``d_ij = 0`` has an infinite or NaN bound and
    is always scanned, so the dead-pair rule sees every pair.
    """
    scale = float(np.abs(extended).max()) or 1.0
    blind, blind_max, quotient_max = False, [], []

    def scan(cells):
        nonlocal blind
        ii, jj = _cell_pairs(plan, cells)
        for lo in range(0, ii.size, _CERT_BLOCK):
            i, j = ii[lo:lo + _CERT_BLOCK], jj[lo:lo + _CERT_BLOCK]
            d_blk = _rowwise_dist(np.take(space.points, i, axis=0),
                                  np.take(space.points, j, axis=0),
                                  space.metric_kind)
            du_pair = np.abs(extended[i] - extended[j])
            cap = d_blk * (base[i] + base[j])
            dead = cap <= 0.0
            live = ~dead & (d_blk > 0.0)
            if dead.any():
                blind |= bool(np.any(du_pair[dead] > 1e-9 * scale))
                blind_max.append(du_pair[dead].max())
            if live.any():
                quotient_max.append((du_pair[live] / cap[live]).max())

    nb = plan.dmin.shape[0]
    scan(np.arange(nb) * (nb + 1))
    k_lb = float(np.max(quotient_max)) if quotient_max else 0.0
    firsts = np.arange(0, space.n_points, plan.block)
    u, b = extended[plan.order], base[plan.order]
    u_lo, u_hi = np.minimum.reduceat(u, firsts), np.maximum.reduceat(u, firsts)
    b_lo = np.minimum.reduceat(b, firsts)
    rise = u_hi[:, None] - u_lo[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (np.maximum(rise, rise.T)
                 / (plan.dmin * (b_lo[:, None] + b_lo[None])))
    skip = bound < k_lb  # a NaN bound is never skipped
    np.fill_diagonal(skip, True)
    scan(np.flatnonzero(~skip))
    if blind:
        raise NumericalError(
            "extension varies across a pair its gradient cannot see "
            "(max %.3g)" % float(np.max(blind_max)))
    return float(np.max(quotient_max)) if quotient_max else 0.0


def extend_sobolev(nested: NestedFilling, f_sub, p: float) -> ExtensionResult:
    """Extend a subset function with an explicit gradient certificate.

    The extended samples are `extend_besov`'s.  The candidate gradient is
    the level-weighted edge superposition
    ``base(xi) = sum_e 2^{|e|} |u_e| chi_B(e)(xi)`` of the zero-extended
    derivative; the certificate constant ``K`` is the smallest scaling
    for which ``K base`` dominates every sampled difference quotient of
    the extended function.  Pairs where ``base`` vanishes at both ends
    must have equal values (the extension is locally constant there); a
    violation raises ``NumericalError``.  The pairs are every pair of
    ambient points, or, once there are more than 2,000,000, that many
    draws from a fixed seed with the self-pairs dropped.  The pair plan
    is drawn once per nested filling and grouped into cells: pairs
    between two blocks of consecutive points in the kd-tree's leaf
    order, each pair kept as its two offsets inside its blocks.  Each
    call scans the pairs inside a block, bounds every other cell's
    quotients by its blocks' extrema and distance gap, and decodes and
    scans only the cells whose bound reaches the largest quotient found,
    so its work follows the pairs it scans.  Every plan pair is either
    scanned or bounded by its cell, and ``K`` is what a scan of every
    pair gives, bit for bit.

    Parameters
    ----------
    nested : NestedFilling
    f_sub : array_like
        Samples on the subset points.
    p : float
        Integrability of the target Sobolev class, inside the window
        ``max(Q/(lambda+1), Q-lambda) < p < inf``.

    Returns
    -------
    ExtensionResult
        With a ``SobolevCertificate``; the source norm is the subset
        Besov norm at smoothness ``1 - (Q - lambda)/p`` with ``q = p``.
    """
    return _extend_sobolev(nested, f_sub,
                           SmoothnessParams(s=1.0, p=p, q=p, kind="besov"))


def _extend_sobolev(nested: NestedFilling, f_sub, params: SmoothnessParams,
                    variant: NormVariant | None = None) -> ExtensionResult:
    """`extend_sobolev` at ``params.p``, which must have kind ``besov``;
    the other exponents and ``variant`` are not read."""
    src_params = _subset_params(nested, params, "sobolev")
    p = params.p
    amb = nested.ambient
    space = amb.space
    extended, u_amb, u_sub = _extend(nested, f_sub)

    base = amb._superpose(2.0 ** amb.edge_levels * np.abs(u_amb)).sum(axis=0)
    plan = _cert_pair_plan(nested)
    K = _certificate_constant(space, plan, extended, base)
    g = K * base
    g_norm = lp_norm(space, g, p)
    s_norm = besov_seq_norm(nested.trace, u_sub, src_params)
    details = {
        "seq_norm_q1": triebel_seq_norm(
            amb, u_amb, SmoothnessParams(s=1.0, p=p, q=1.0, kind="triebel")),
    }
    cert = SobolevCertificate(g=g, K=K, norm=g_norm,
                              pairs_checked=int(plan.starts[-1]))
    return _extended(nested, f_sub, extended, g_norm, s_norm,
                     SmoothnessParams(s=1.0, p=p, q=p, kind="hajlasz"),
                     src_params, details, cert)


def nonhom_trace(nested: NestedFilling, f, params: SmoothnessParams,
                 variant: NormVariant | None = None) -> TraceResult:
    """Restrict a function between the inhomogeneous classes.

    The coarse term is the full level-zero blend on the subset (a
    function, not an anchored constant), matching the inhomogeneous
    norm's own coarse part.  Details record both terms of each norm and
    the per-edge codimension band comparing subset and ambient masses of
    the shared edge balls.
    """
    t_params = _subset_params(nested, params, "nonhom")
    samples, _, _ = _restrict(nested, f, homogeneous=False)
    t_lp, t_seq = nonhom_norm(nested.trace, samples, t_params, variant)
    s_lp, s_seq = nonhom_norm(nested.ambient, f, params, variant)
    gamma = nested.ambient.space.declared_Q - nested.mask.declared_lambda
    band = codim_mass_band(nested, gamma)
    details = {
        "trace_lp_part": t_lp, "trace_seq_part": t_seq,
        "source_lp_part": s_lp, "source_seq_part": s_seq,
        "codim_band_lo": band[0], "codim_band_hi": band[1],
    }
    return _traced(samples, t_lp + t_seq, s_lp + s_seq, t_params, params,
                   details)


def nonhom_extend(nested: NestedFilling, f_sub, params: SmoothnessParams,
                  variant: NormVariant | None = None) -> ExtensionResult:
    """Extend a subset function between the inhomogeneous classes."""
    src_params = _subset_params(nested, params, "nonhom")
    extended, _, _ = _extend(nested, f_sub, homogeneous=False)
    t_lp, t_seq = nonhom_norm(nested.ambient, extended, params, variant)
    s_lp, s_seq = nonhom_norm(nested.trace, f_sub, src_params, variant)
    details = {
        "target_lp_part": t_lp, "target_seq_part": t_seq,
        "source_lp_part": s_lp, "source_seq_part": s_seq,
    }
    return _extended(nested, f_sub, extended, t_lp + t_seq, s_lp + s_seq,
                     params, src_params, details)


def _extend_as_besov(nested: NestedFilling, f_sub, params: SmoothnessParams,
                     variant: NormVariant | None = None) -> ExtensionResult:
    """The Triebel trace lands in a Besov class, so the Triebel round trip
    extends as one."""
    return extend_besov(nested, f_sub, params.replace(kind="besov"), variant)


# The operator of each (theorem, direction) pipeline, called as
# ``op(nested, f, params, variant)``.  A round trip maps to its (extend,
# trace) pair.  The Sobolev class has no trace operator: `trace run`
# refuses its round trip, and the theorem suite restricts with `_restrict`.
_OPERATORS = {
    ("besov", "trace"): trace_besov,
    ("besov", "extend"): extend_besov,
    ("besov", "roundtrip"): (extend_besov, trace_besov),
    ("triebel", "trace"): trace_triebel,
    ("triebel", "roundtrip"): (_extend_as_besov, trace_triebel),
    ("sobolev", "extend"): _extend_sobolev,
    ("sobolev", "roundtrip"): (_extend_sobolev, None),
    ("nonhom", "trace"): nonhom_trace,
    ("nonhom", "extend"): nonhom_extend,
    ("nonhom", "roundtrip"): (nonhom_extend, nonhom_trace),
}


def codim_mass_band(nested: NestedFilling, gamma: float
                    ) -> tuple[float, float]:
    """Band of subset versus ambient edge-ball mass across shared edges.

    For each subset edge ``e`` the quotient ``nu(B_F(e)) * 2^{-|e| gamma}
    / mu(B_Z(e))`` compares the subset measure of the restricted ball
    with the codimension-weighted ambient measure; a bounded band is the
    discrete face of codimension regularity.

    Only sub-diameter edges enter the band.  Regularity of the measures
    is a statement about radii below the diameter; coarser balls contain
    everything, so both masses saturate at one and the quotient is the
    bookkeeping value 2^{-|e| gamma} regardless of the geometry.
    """
    tr, amb = nested.trace, nested.ambient
    sub = 2.0 ** (-tr.edge_levels + 2) < amb.space.declared_diam
    if not sub.any():
        raise NumericalError("no sub-diameter edges; deepen the filling")
    nu = tr.edge_ball_mass()[sub]
    mu = amb.edge_ball_mass()[nested.edge_embedding][sub]
    expected = 2.0 ** (tr.edge_levels[sub] * gamma) * mu
    ratio = nu / expected
    return float(ratio.min()), float(ratio.max())
