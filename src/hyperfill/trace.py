"""Trace and extension operators over a nested filling.

Restriction to the subset is computed scale by scale: the ambient ball
means are differentiated along edges, the edge sequence is restricted to
the subset filling embedded in the ambient one, and the telescoping
integral over the subset rebuilds a function on the subset points.
Extension runs the same pipeline in reverse, zero-extending the subset
edge sequence into the ambient filling.  Each operator reports the norm
on both sides of the corresponding equivalence, never a hidden
constant.  A substitute norm variant is given on the ambient filling;
the subset side is scored with its sets restricted to the subset, which
for `half_ball_substitute` are the subset filling's own half balls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import (discrete_derivative, level_blend, poisson_extension,
                       telescoping_integral)
from .errors import ConfigError, GateError, NumericalError
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
# Pairs checked per block; bounds the certificate's per-call scratch.
_CERT_BLOCK = 1 << 18

_UNSET = object()


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
    that hold, and ``pairs_checked`` counts the sampled pairs.  The pair
    sample is drawn once per nested filling and pair seed, and reused by
    every extension that filling certifies with that seed.
    """

    g: np.ndarray = field(repr=False)
    K: float
    norm: float
    pairs_checked: int


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def _gate(nested: NestedFilling, params: SmoothnessParams, theorem: str,
          *, seed: int = 0):
    """Admissibility plus (when required) porosity, or GateError."""
    space = nested.ambient.space
    adm = admissibility(space.declared_Q, nested.mask.declared_lambda,
                        params, theorem)
    if not adm.admissible:
        raise GateError("inadmissible exponents: " + "; ".join(adm.reasons))
    if adm.requires_porosity:
        cached = getattr(nested, "_porosity", _UNSET)
        if cached is _UNSET:
            cached = porosity_scan(space, nested.mask, seed=seed)
            nested._porosity = cached
        if cached is None:
            raise GateError(
                "subset failed the porosity scan; the %s window needs a "
                "porous subset" % theorem)
    return adm


def _trace_variant(nested: NestedFilling, variant: NormVariant | None):
    """The variant scoring the subset filling.

    A substitute's sets belong to the ambient edges; each subset edge
    takes its ambient edge's set restricted to the subset points, in
    subset point indices.  Other variants serve both sides as they are.
    """
    if variant is None or variant.kind != "substitute":
        return variant
    amb = nested.ambient
    if len(variant.sets) != amb.n_edges:
        raise ConfigError(
            "substitute has %d sets, ambient filling has %d edges"
            % (len(variant.sets), amb.n_edges))
    sub_index = np.full(amb.space.n_points, -1, dtype=np.int64)
    sub_index[nested.point_embedding] = np.arange(
        nested.point_embedding.size)
    sets = []
    for eid in nested.edge_embedding:
        local = sub_index[np.asarray(variant.sets[eid], dtype=np.int64)]
        sets.append(local[local >= 0])
    return NormVariant(kind="substitute", sets=sets,
                       dilation=variant.dilation)


def _restrict_derivative(nested: NestedFilling, f):
    """Ambient ball means, their derivative, and its subset restriction."""
    v = poisson_extension(nested.ambient, f)
    du = discrete_derivative(nested.ambient, v)
    return v, du, du[nested.edge_embedding]


def _anchor(nested: NestedFilling) -> int:
    """The ambient index of the first subset point, where the homogeneous
    operators take the coarse blend's value."""
    return int(nested.point_embedding[0])


def _trace_terms(nested: NestedFilling, v, u_sub):
    """Telescoping integral on the subset, and the coarse blend of the
    restricted ball means on the subset points."""
    tr = nested.trace
    return (telescoping_integral(tr, u_sub),
            level_blend(tr, v[nested.vertex_embedding], tr.level_lo))


def _extension_terms(nested: NestedFilling, f_sub):
    """Telescoping integral of the zero-extended subset derivative over the
    ambient, the coarse blend of the zero-extended subset ball means on the
    ambient points, and that derivative."""
    amb, tr = nested.ambient, nested.trace
    v_sub = poisson_extension(tr, f_sub)
    u_sub = discrete_derivative(tr, v_sub)
    u_amb = np.zeros(amb.n_edges)
    u_amb[nested.edge_embedding] = u_sub
    v_amb = np.zeros(amb.n_vertices)
    v_amb[nested.vertex_embedding] = v_sub
    return (telescoping_integral(amb, u_amb),
            level_blend(amb, v_amb, amb.level_lo), u_amb)


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
        Scores the ambient side; a substitute is restricted to the
        subset for the subset side.

    Returns
    -------
    TraceResult
        Trace samples with the target norm at the reduced smoothness
        ``s - (Q - lambda)/p`` and the source norm, plus the restricted
        sequence norm measured on both sides of the equivalence.
    """
    adm = _gate(nested, params, "besov")
    v, du, u_sub = _restrict_derivative(nested, f)
    integral, coarse = _trace_terms(nested, v, u_sub)
    samples = integral + coarse[0]
    t_params = params.replace(s=adm.trace_smoothness)
    u_amb = np.zeros(nested.ambient.n_edges)
    u_amb[nested.edge_embedding] = u_sub
    t_variant = _trace_variant(nested, variant)
    t_norm = besov_fn_norm(nested.trace, samples, t_params, t_variant)
    s_norm = besov_fn_norm(nested.ambient, f, params, variant)
    details = {
        "anchor_point": _anchor(nested),
        "trace_side_seq_norm": besov_seq_norm(
            nested.trace, u_sub, t_params, t_variant),
        "ambient_side_seq_norm": besov_seq_norm(
            nested.ambient, u_amb, params, variant),
        "source_seq_norm": besov_seq_norm(
            nested.ambient, du, params, variant),
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
    integral, coarse, u_amb = _extension_terms(nested, f_sub)
    extended = integral + coarse[_anchor(nested)]
    src_params = params.replace(s=adm.trace_smoothness)
    t_norm = besov_fn_norm(nested.ambient, extended, params, variant)
    s_norm = besov_fn_norm(nested.trace, f_sub, src_params,
                           _trace_variant(nested, variant))
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
    v, _, u_sub = _restrict_derivative(nested, f)
    integral, coarse = _trace_terms(nested, v, u_sub)
    samples = integral + coarse[0]
    t_params = SmoothnessParams(s=adm.trace_smoothness, p=params.p,
                                q=params.p, kind="besov")
    t_norm = besov_fn_norm(nested.trace, samples, t_params,
                           _trace_variant(nested, variant))
    s_norm = triebel_fn_norm(nested.ambient, f, params, variant)
    u_amb = np.zeros(nested.ambient.n_edges)
    u_amb[nested.edge_embedding] = u_sub
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


def _cert_pair_plan(nested: NestedFilling, pair_seed: int):
    """The certificate's pairs ``ii``, ``jj`` (int32) and their distances.

    They depend only on the ambient space and the seed, so they are drawn
    and measured once per nested filling and seed, then kept on it.
    """
    plan = nested._cert_plans.get(pair_seed)
    if plan is None:
        space = nested.ambient.space
        ii, jj = _pair_sample(space.n_points, _CERT_PAIR_CAP,
                              np.random.default_rng(pair_seed))
        ii, jj = ii.astype(np.int32), jj.astype(np.int32)
        d = np.empty(ii.size)
        for lo in range(0, ii.size, _CERT_BLOCK):
            blk = slice(lo, lo + _CERT_BLOCK)
            d[blk] = _rowwise_dist(space.points[ii[blk]],
                                   space.points[jj[blk]], space.metric_kind)
        plan = nested._cert_plans[pair_seed] = (ii, jj, d)
    return plan


def extend_sobolev(nested: NestedFilling, f_sub, p: float, *,
                   pair_seed: int = 0) -> ExtensionResult:
    """Extend a subset function with an explicit gradient certificate.

    The candidate gradient is the level-weighted edge superposition
    ``base(xi) = sum_e 2^{|e|} |u_e| chi_B(e)(xi)`` of the zero-extended
    derivative; the certificate constant ``K`` is the smallest scaling
    for which ``K base`` dominates every sampled difference quotient of
    the extended function.  Pairs where ``base`` vanishes at both ends
    must have equal values (the extension is locally constant there); a
    violation raises ``NumericalError``.  The pairs are every pair of
    ambient points, or, once there are more than 2,000,000, that many
    draws seeded by ``pair_seed`` with the self-pairs dropped.  The pair
    sample and its distances are drawn once per nested filling and seed;
    each call gathers only the extension and its gradient over them,
    block by block.

    Parameters
    ----------
    nested : NestedFilling
    f_sub : array_like
        Samples on the subset points.
    p : float
        Integrability of the target Sobolev class, inside the window
        ``max(Q/(lambda+1), Q-lambda) < p < inf``.
    pair_seed : int
        Seed for pair subsampling when the cloud is large.

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
    integral, coarse, u_amb = _extension_terms(nested, f_sub)
    extended = integral + coarse[_anchor(nested)]

    base = amb.edge_membership().T @ (2.0 ** amb.edge_levels * np.abs(u_amb))
    ii, jj, d = _cert_pair_plan(nested, pair_seed)
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
    s_norm = besov_fn_norm(nested.trace, f_sub, src_params)
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
    tr = nested.trace
    v, _, u_sub = _restrict_derivative(nested, f)
    integral, coarse = _trace_terms(nested, v, u_sub)
    samples = integral + coarse
    t_lp, t_seq = nonhom_norm(tr, samples, t_params,
                              _trace_variant(nested, variant))
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
    integral, coarse, _ = _extension_terms(nested, f_sub)
    extended = integral + coarse
    t_lp, t_seq = nonhom_norm(amb, extended, params, variant)
    s_lp, s_seq = nonhom_norm(tr, f_sub, src_params,
                              _trace_variant(nested, variant))
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
