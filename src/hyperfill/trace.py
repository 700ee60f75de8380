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

from dataclasses import dataclass, field

import numpy as np

from .calculus import (discrete_derivative, level_blend, poisson_extension,
                       telescoping_integral)
from .errors import GateError, NumericalError
from .filling import NestedFilling
from .norms import (NormVariant, SmoothnessParams, admissibility,
                    besov_fn_norm, besov_seq_norm, lp_norm, nonhom_norm,
                    triebel_fn_norm, triebel_seq_norm)
from .space import _rowwise_dist, porosity_scan

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


def _gate(nested: NestedFilling, params: SmoothnessParams, theorem: str):
    """Admissibility plus (when required) porosity, or GateError.

    The porosity scan runs once per nested filling, with seed 0.
    """
    space = nested.ambient.space
    adm = admissibility(space.declared_Q, nested.mask.declared_lambda,
                        params, theorem)
    if not adm.admissible:
        raise GateError("inadmissible exponents: " + "; ".join(adm.reasons))
    if adm.requires_porosity:
        if not nested._porosity:
            nested._porosity = (porosity_scan(space, nested.mask),)
        if nested._porosity[0] is None:
            raise GateError(
                "subset failed the porosity scan; the %s window needs a "
                "porous subset" % theorem)
    return adm


def _restrict(nested: NestedFilling, f):
    """The restriction of ``f`` to the subset, scale by scale.

    Returns ``(integral, coarse, du, u_amb)``: the telescoping integral on
    the subset of the restricted derivative, the blend of the restricted
    ambient ball means at the subset's lowest level on the subset points,
    the ambient derivative ``du``, and ``du`` zero off the embedded subset
    edges.  The homogeneous trace is ``integral + coarse[0]``, the
    inhomogeneous one ``integral + coarse``.
    """
    amb, tr = nested.ambient, nested.trace
    v = poisson_extension(amb, f)
    du = discrete_derivative(amb, v)
    u_sub = du[nested.edge_embedding]
    u_amb = np.zeros(amb.n_edges)
    u_amb[nested.edge_embedding] = u_sub
    return (telescoping_integral(tr, u_sub),
            level_blend(tr, v[nested.vertex_embedding], tr.level_lo),
            du, u_amb)


def _anchor(nested: NestedFilling) -> int:
    """The ambient index of the first subset point, where the homogeneous
    operators take the coarse blend's value."""
    return int(nested.point_embedding[0])


def _extension_terms(nested: NestedFilling, f_sub):
    """Telescoping integral of the zero-extended subset derivative over the
    ambient, the coarse blend of the zero-extended subset ball means on the
    ambient points, that derivative and the subset derivative itself."""
    amb, tr = nested.ambient, nested.trace
    v_sub = poisson_extension(tr, f_sub)
    u_sub = discrete_derivative(tr, v_sub)
    u_amb = np.zeros(amb.n_edges)
    u_amb[nested.edge_embedding] = u_sub
    v_amb = np.zeros(amb.n_vertices)
    v_amb[nested.vertex_embedding] = v_sub
    return (telescoping_integral(amb, u_amb),
            level_blend(amb, v_amb, amb.level_lo), u_amb, u_sub)


def _nonhom_subset_params(nested: NestedFilling, params: SmoothnessParams
                          ) -> SmoothnessParams:
    """Gate an inhomogeneous pair on its homogeneous theorem and return the
    subset-side exponents: ``nonhom_besov`` at the trace smoothness, with
    the source ``q`` for Besov and ``q = p`` for Triebel sources."""
    theorem = "triebel" if params.kind == "nonhom_triebel" else "besov"
    adm = _gate(nested, params.replace(kind=theorem), theorem)
    return SmoothnessParams(s=adm.trace_smoothness, p=params.p,
                            q=params.q if theorem == "besov" else params.p,
                            kind="nonhom_besov")


def _sup_restriction_error(nested: NestedFilling, extended, f_sub) -> float:
    return float(np.abs(extended[nested.point_embedding] - f_sub).max())


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
    adm = _gate(nested, params, "besov")
    integral, coarse, du, u_amb = _restrict(nested, f)
    samples = integral + coarse[0]
    t_params = params.replace(s=adm.trace_smoothness)
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
    return TraceResult(samples=samples, trace_norm=t_norm, source_norm=s_norm,
                       operator_ratio=_ratio(t_norm, s_norm),
                       trace_params=t_params, source_params=params,
                       details=details)


def extend_besov(nested: NestedFilling, f_sub, params: SmoothnessParams,
                 variant: NormVariant | None = None) -> ExtensionResult:
    """Extend a subset function into the ambient Besov class.

    ``params`` carries the ambient target exponents; the source norm is
    measured at the matching trace smoothness on the subset.
    """
    adm = _gate(nested, params, "besov")
    integral, coarse, u_amb, u_sub = _extension_terms(nested, f_sub)
    extended = integral + coarse[_anchor(nested)]
    src_params = params.replace(s=adm.trace_smoothness)
    t_norm = besov_fn_norm(nested.ambient, extended, params, variant)
    s_norm = besov_seq_norm(nested.trace, u_sub, src_params, variant)
    details = {
        "zero_extended_seq_norm": besov_seq_norm(
            nested.ambient, u_amb, params, variant),
    }
    return ExtensionResult(
        samples=extended, target_norm=t_norm, source_norm=s_norm,
        operator_ratio=_ratio(t_norm, s_norm), target_params=params,
        source_params=src_params,
        restriction_sup_error=_sup_restriction_error(nested, extended, f_sub),
        details=details)


def trace_triebel(nested: NestedFilling, f, params: SmoothnessParams,
                  variant: NormVariant | None = None) -> TraceResult:
    """Restrict a Triebel-class function; the target is a Besov class.

    The trace lands in the Besov family with ``q = p`` regardless of the
    source ``q``; the details record the sequence norm of the restricted
    derivative at the source ``q`` and at ``q = p`` so the advertised
    ``q``-independence is visible per run.
    """
    if params.kind != "triebel":
        params = params.replace(kind="triebel")
    adm = _gate(nested, params, "triebel")
    integral, coarse, _, u_amb = _restrict(nested, f)
    samples = integral + coarse[0]
    t_params = SmoothnessParams(s=adm.trace_smoothness, p=params.p,
                                q=params.p, kind="besov")
    t_norm = besov_fn_norm(nested.trace, samples, t_params, variant)
    s_norm = triebel_fn_norm(nested.ambient, f, params, variant)
    details = {
        "anchor_point": _anchor(nested),
        "restricted_at_source_q": triebel_seq_norm(
            nested.ambient, u_amb, params, variant),
        "restricted_at_q_eq_p": triebel_seq_norm(
            nested.ambient, u_amb, params.replace(q=params.p), variant),
    }
    return TraceResult(samples=samples, trace_norm=t_norm, source_norm=s_norm,
                       operator_ratio=_ratio(t_norm, s_norm),
                       trace_params=t_params, source_params=params,
                       details=details)


def _pair_sample(n: int, cap: int, rng) -> tuple[np.ndarray, np.ndarray]:
    total = n * (n - 1) // 2
    if total <= cap:
        return np.triu_indices(n, k=1)
    ii = rng.integers(0, n, size=cap)
    jj = rng.integers(0, n, size=cap)
    keep = ii != jj
    return ii[keep], jj[keep]


def _cert_pair_plan(nested: NestedFilling):
    """The certificate's pairs ``ii``, ``jj`` (int32) and their distances.

    They depend only on the ambient space, so they are drawn and measured
    once per nested filling, then kept on it.
    """
    if not nested._cert_plan:
        space = nested.ambient.space
        ii, jj = _pair_sample(space.n_points, _CERT_PAIR_CAP,
                              np.random.default_rng(_CERT_PAIR_SEED))
        ii, jj = ii.astype(np.int32), jj.astype(np.int32)
        d = np.empty(ii.size)
        for lo in range(0, ii.size, _CERT_BLOCK):
            blk = slice(lo, lo + _CERT_BLOCK)
            d[blk] = _rowwise_dist(space.points[ii[blk]],
                                   space.points[jj[blk]], space.metric_kind)
        nested._cert_plan = (ii, jj, d)
    return nested._cert_plan


def extend_sobolev(nested: NestedFilling, f_sub, p: float) -> ExtensionResult:
    """Extend a subset function with an explicit gradient certificate.

    The candidate gradient is the level-weighted edge superposition
    ``base(xi) = sum_e 2^{|e|} |u_e| chi_B(e)(xi)`` of the zero-extended
    derivative; the certificate constant ``K`` is the smallest scaling
    for which ``K base`` dominates every sampled difference quotient of
    the extended function.  Pairs where ``base`` vanishes at both ends
    must have equal values (the extension is locally constant there); a
    violation raises ``NumericalError``.  The pairs are every pair of
    ambient points, or, once there are more than 2,000,000, that many
    draws from a fixed seed with the self-pairs dropped.  The pair sample
    and its distances are drawn once per nested filling; each call
    gathers only the extension and its gradient over them, block by
    block.

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
    probe = SmoothnessParams(s=1.0, p=p, q=p, kind="besov")
    adm = _gate(nested, probe, "sobolev")
    amb = nested.ambient
    space = amb.space
    integral, coarse, u_amb, u_sub = _extension_terms(nested, f_sub)
    extended = integral + coarse[_anchor(nested)]

    base = amb._superpose(2.0 ** amb.edge_levels * np.abs(u_amb)).sum(axis=0)
    ii, jj, d = _cert_pair_plan(nested)
    scale = float(np.abs(extended).max()) or 1.0
    blind, blind_max, quotient_max = False, [], []
    for lo in range(0, ii.size, _CERT_BLOCK):
        blk = slice(lo, lo + _CERT_BLOCK)
        i, j, d_blk = ii[blk], jj[blk], d[blk]
        du_pair = np.abs(extended[i] - extended[j])
        cap = d_blk * (base[i] + base[j])
        dead = cap <= 0.0
        live = ~dead & (d_blk > 0.0)
        if dead.any():
            blind |= bool(np.any(du_pair[dead] > 1e-9 * scale))
            blind_max.append(du_pair[dead].max())
        if live.any():
            quotient_max.append((du_pair[live] / cap[live]).max())
    if blind:
        raise NumericalError(
            "extension varies across a pair its gradient cannot see "
            "(max %.3g)" % float(np.max(blind_max)))
    K = float(np.max(quotient_max)) if quotient_max else 0.0
    g = K * base
    g_norm = lp_norm(space, g, p)
    src_params = SmoothnessParams(s=adm.trace_smoothness, p=p, q=p,
                                  kind="besov")
    s_norm = besov_seq_norm(nested.trace, u_sub, src_params)
    details = {
        "seq_norm_q1": triebel_seq_norm(
            amb, u_amb, SmoothnessParams(s=1.0, p=p, q=1.0, kind="triebel")),
    }
    cert = SobolevCertificate(g=g, K=K, norm=g_norm,
                              pairs_checked=int(ii.size))
    return ExtensionResult(
        samples=extended, target_norm=g_norm, source_norm=s_norm,
        operator_ratio=_ratio(g_norm, s_norm),
        target_params=SmoothnessParams(s=1.0, p=p, q=p, kind="hajlasz"),
        source_params=src_params,
        restriction_sup_error=_sup_restriction_error(nested, extended, f_sub),
        details=details, certificate=cert)


def nonhom_trace(nested: NestedFilling, f, params: SmoothnessParams,
                 variant: NormVariant | None = None) -> TraceResult:
    """Restrict a function between the inhomogeneous classes.

    The coarse term is the full level-zero blend on the subset (a
    function, not an anchored constant), matching the inhomogeneous
    norm's own coarse part.  Details record both terms of each norm and
    the per-edge codimension band comparing subset and ambient masses of
    the shared edge balls.
    """
    t_params = _nonhom_subset_params(nested, params)
    integral, coarse, _, _ = _restrict(nested, f)
    samples = integral + coarse
    t_lp, t_seq = nonhom_norm(nested.trace, samples, t_params, variant)
    s_lp, s_seq = nonhom_norm(nested.ambient, f, params, variant)
    gamma = nested.ambient.space.declared_Q - nested.mask.declared_lambda
    band = codim_mass_band(nested, gamma)
    details = {
        "trace_lp_part": t_lp, "trace_seq_part": t_seq,
        "source_lp_part": s_lp, "source_seq_part": s_seq,
        "codim_band_lo": band[0], "codim_band_hi": band[1],
    }
    t_norm, s_norm = t_lp + t_seq, s_lp + s_seq
    return TraceResult(samples=samples, trace_norm=t_norm, source_norm=s_norm,
                       operator_ratio=_ratio(t_norm, s_norm),
                       trace_params=t_params, source_params=params,
                       details=details)


def nonhom_extend(nested: NestedFilling, f_sub, params: SmoothnessParams,
                  variant: NormVariant | None = None) -> ExtensionResult:
    """Extend a subset function between the inhomogeneous classes."""
    src_params = _nonhom_subset_params(nested, params)
    amb, tr = nested.ambient, nested.trace
    integral, coarse, _, _ = _extension_terms(nested, f_sub)
    extended = integral + coarse
    t_lp, t_seq = nonhom_norm(amb, extended, params, variant)
    s_lp, s_seq = nonhom_norm(tr, f_sub, src_params, variant)
    t_norm, s_norm = t_lp + t_seq, s_lp + s_seq
    details = {
        "target_lp_part": t_lp, "target_seq_part": t_seq,
        "source_lp_part": s_lp, "source_seq_part": s_seq,
    }
    return ExtensionResult(
        samples=extended, target_norm=t_norm, source_norm=s_norm,
        operator_ratio=_ratio(t_norm, s_norm), target_params=params,
        source_params=src_params,
        restriction_sup_error=_sup_restriction_error(nested, extended, f_sub),
        details=details)


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
