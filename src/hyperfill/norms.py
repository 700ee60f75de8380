"""Sequence and function quasinorms over a filling.

Edge sequences are graded by level; the Besov-type norm takes an
``L^p`` norm of the level superposition first and then an ``l^q`` norm
across levels, the Triebel-type norm aggregates across levels pointwise
before the single ``L^p`` integral.  Function norms apply the sequence
norms to the edge derivative of the ball-mean lift, and the
inhomogeneous norm adds the coarsest level blend in ``L^p``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .calculus import discrete_derivative, level_blend, poisson_extension
from .errors import ConfigError, GateError
from .filling import Filling
from .space import FiniteMetricMeasureSpace

__all__ = [
    "SmoothnessParams",
    "NormVariant",
    "half_ball_substitute",
    "lp_norm",
    "besov_seq_norm",
    "triebel_seq_norm",
    "besov_fn_norm",
    "triebel_fn_norm",
    "nonhom_norm",
    "TraceAdmissibility",
    "admissibility",
    "trace_smoothness_window",
]

_KINDS = ("besov", "triebel", "hajlasz", "nonhom_besov", "nonhom_triebel")


@dataclass(frozen=True)
class SmoothnessParams:
    """Smoothness and integrability exponents for one norm family.

    Attributes
    ----------
    s : float
        Smoothness, in (0, 1].
    p : float
        Integrability; ``inf`` allowed for Besov and Hajlasz kinds.
    q : float
        Level aggregation exponent; ``inf`` allowed.  Ignored by the
        Hajlasz kind.
    kind : str
        One of besov, triebel, hajlasz, nonhom_besov, nonhom_triebel.
    """

    s: float
    p: float
    q: float = np.inf
    kind: str = "besov"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError("unknown norm kind %r" % (self.kind,))
        if not (0.0 < self.s <= 1.0):
            raise ConfigError("smoothness s=%g outside (0, 1]" % self.s)
        if not self.p > 0.0:
            raise ConfigError("integrability p=%g must be positive" % self.p)
        if not self.q > 0.0:
            raise ConfigError("aggregation q=%g must be positive" % self.q)
        if self.kind in ("triebel", "nonhom_triebel") and np.isinf(self.p):
            raise ConfigError("p = inf undefined for the %s kind" % self.kind)
        if self.kind == "hajlasz" and self.p < 1.0:
            raise GateError(
                "hajlasz p=%g < 1 is nonconvex; no solver route" % self.p)

    def replace(self, **kw) -> "SmoothnessParams":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        """The exponents as JSON values (see `_exponent_json`)."""
        return {"s": self.s, "p": _exponent_json(self.p),
                "q": _exponent_json(self.q), "kind": self.kind}


def _exponent_json(x):
    """An exponent as a JSON value; an infinite one is ``"inf"``, which
    canonical JSON can write and the CLI reads back."""
    return "inf" if np.isinf(x) else x


@dataclass(frozen=True)
class NormVariant:
    """Choice of the per-edge set entering the level superposition.

    ``indicator`` uses the edge ball itself, ``mass`` collapses the
    ``L^p`` integral of a level to the edge-ball masses, ``half_ball``
    replaces each edge ball by the open half ball around the edge's tail
    vertex, ``B(center, radius / 2)``.  A variant depends on no filling:
    one object scores any filling, both sides of a nested one included.
    """

    kind: str = "indicator"

    def __post_init__(self):
        if self.kind not in ("indicator", "mass", "half_ball"):
            raise ConfigError("unknown norm variant %r" % (self.kind,))


def half_ball_substitute(filling: Filling) -> NormVariant:
    """The ``half_ball`` variant, with ``filling``'s half balls built.

    Every vertex's open half ball comes from one batched
    `FiniteMetricMeasureSpace.ball_rows` query, kept on the filling
    (`Filling._half_ball_levels`); later norms on that filling reuse it.
    The returned variant serves every filling alike.
    """
    filling._half_ball_levels()
    return NormVariant("half_ball")


def lp_norm(space: FiniteMetricMeasureSpace, values, p: float) -> float:
    """``L^p`` norm of point samples against the space measure."""
    if not p > 0.0:
        raise ConfigError("L^p exponent must be positive, got %g" % p)
    v = np.abs(np.ascontiguousarray(values, dtype=np.float64))
    if v.shape != (space.n_points,):
        raise ConfigError(
            "samples have %s entries, space has %d points"
            % (v.shape, space.n_points))
    if np.isinf(p):
        return float(v.max())
    return _power_sum_root(v, p, space.weights)


def _power_sum_root(v: np.ndarray, p: float, weights=None) -> float:
    """``(sum_i w_i v_i^p)^(1/p)`` of nonnegative ``v`` (unit weights when
    ``weights`` is None), kept inside the float range.

    When the plain sum overflows or underflows to 0, ``v / max v`` is
    summed instead and the root scaled back by ``max v``; every other
    result is the plain expression, bit for bit.
    """
    def power_sum(x):
        return (x ** p).sum() if weights is None else weights @ x ** p

    with np.errstate(over="ignore"):
        total = power_sum(v)
    if total == 0.0 or not np.isfinite(total):
        # v ** p may have left the float range; the sum is homogeneous,
        # so measure v / max v and scale back.
        m = v.max()
        if 0.0 < m < np.inf:
            return float(m * power_sum(v / m) ** (1.0 / p))
    return float(total ** (1.0 / p))


def _superpose(filling: Filling, variant: NormVariant,
               weights: np.ndarray) -> np.ndarray:
    """``sum_{|e|=k} w_e chi_A(e)`` for each level k of the filling, one
    row each, ``A(e)`` the variant's set of edge e: its ball for the
    indicator (`Filling._superpose`), else its tail's half ball, which
    takes the sum of the tail's edge weights."""
    if variant.kind == "indicator":
        return filling._superpose(weights)
    g = filling._half_ball_levels() @ np.bincount(
        filling.tails, weights, filling.n_vertices)
    return g.reshape(-1, filling.space.n_points)


def _superpose_max(filling: Filling, variant: NormVariant,
                   weights: np.ndarray) -> np.ndarray:
    """``max_e w_e chi_A(e)`` over every edge, exactly.

    The largest weight of each vertex's incident edges (its tail edges,
    for half balls) is spread over its ball (its half ball): a point's
    maximum over the balls holding it is its maximum over the edge balls
    ``B(tail) ∪ B(head)`` holding it.
    """
    top = np.zeros(filling.n_vertices)
    np.maximum.at(top, filling.tails, weights)
    if variant.kind == "indicator":
        rows = filling.vertex_membership()
        np.maximum.at(top, filling.heads, weights)
    else:
        rows = filling._half_ball_levels().T
    stack = np.zeros(rows.shape[1])
    np.maximum.at(stack, rows.indices, np.repeat(top, np.diff(rows.indptr)))
    return stack.reshape(-1, filling.space.n_points).max(axis=0)


def _window_u(filling: Filling, edge_values, level_window
              ) -> tuple[np.ndarray, range]:
    """``|u|`` over every edge, zero outside the level window, and the
    window's levels: a norm over part of the window gives the other
    edges weight zero."""
    u = np.abs(np.ascontiguousarray(edge_values, dtype=np.float64))
    if u.shape != (filling.n_edges,):
        raise ConfigError(
            "edge sequence has %s entries, filling has %d edges"
            % (u.shape, filling.n_edges))
    lo, hi = filling.level_lo, filling.level_hi
    if level_window is not None:
        wl, wh = int(level_window[0]), int(level_window[1])
        if wl > wh:
            raise ConfigError("empty level window (%d, %d)" % (wl, wh))
        lo, hi = max(lo, wl), min(hi, wh)
    if lo > hi:
        raise ConfigError("level window misses the filling entirely")
    u[:filling.edge_range(lo)[0]] = 0.0
    u[filling.edge_range(hi)[1]:] = 0.0
    return u, range(lo, hi + 1)


def besov_seq_norm(filling: Filling, edge_values, params: SmoothnessParams,
                   variant: NormVariant | None = None,
                   level_window: tuple[int, int] | None = None) -> float:
    """Besov-type quasinorm of an edge sequence.

    Per level ``k`` the superposition ``G_k = sum_{|e|=k} |u_e| chi_A(e)``
    is measured in ``L^p``, then the level norms are aggregated by
    ``(sum_k (2^{ks} a_k)^q)^(1/q)`` with the usual supremum
    modifications at ``p = inf`` or ``q = inf``.  The mass variant skips
    the superposition and scores ``(sum_e mass(B(e)) |u_e|^p)^(1/p)``
    per level instead.

    Parameters
    ----------
    filling : Filling
    edge_values : array_like
        Sequence over all edges; entries outside the window are ignored.
    params : SmoothnessParams
    variant : NormVariant, optional
        Defaults to the indicator variant.
    level_window : (int, int), optional
        Inclusive level range to aggregate; defaults to every level.

    Returns
    -------
    float
    """
    if variant is None:
        variant = NormVariant()
    u, window = _window_u(filling, edge_values, level_window)
    space = filling.space
    s, p, q = params.s, params.p, params.q
    if variant.kind != "mass":
        stacks = _superpose(filling, variant, u)
    level_norms = []
    scales = []
    for k in window:
        lo, hi = filling.edge_range(k)
        if lo == hi:
            continue
        if variant.kind == "mass":
            masses = filling.edge_ball_mass()[lo:hi]
            if np.isinf(p):
                a = float(u[lo:hi].max())
            else:
                a = _power_sum_root(u[lo:hi], p, masses)
        else:
            a = lp_norm(space, stacks[k - filling.level_lo], p)
        level_norms.append(a)
        scales.append(2.0 ** (k * s))
    if not level_norms:
        return 0.0
    a = np.asarray(level_norms)
    w = np.asarray(scales)
    if np.isinf(q):
        return float((w * a).max())
    return _power_sum_root(w * a, q)


def triebel_seq_norm(filling: Filling, edge_values, params: SmoothnessParams,
                     variant: NormVariant | None = None,
                     level_window: tuple[int, int] | None = None) -> float:
    """Triebel-type quasinorm of an edge sequence.

    Aggregates ``(2^{|e|s} |u_e|)^q`` over all window edges pointwise,
    takes the ``q``-th root, and measures the result once in ``L^p``;
    at ``q = inf`` the inner sum becomes a pointwise supremum.  Only
    indicator and half-ball variants define a pointwise superposition.

    Parameters
    ----------
    filling : Filling
    edge_values : array_like
    params : SmoothnessParams
    variant : NormVariant, optional
    level_window : (int, int), optional

    Returns
    -------
    float
    """
    if variant is None:
        variant = NormVariant()
    if variant.kind == "mass":
        raise ConfigError(
            "mass variant is a per-level rearrangement; it does not "
            "define the pointwise level aggregation")
    u, _ = _window_u(filling, edge_values, level_window)
    if np.isinf(params.p):
        raise ConfigError("p = inf undefined for the pointwise aggregation")
    s, p, q = params.s, params.p, params.q
    weights = 2.0 ** (filling.edge_levels * s) * u
    if np.isinf(q):
        stack = _superpose_max(filling, variant, weights)
    else:
        def aggregate(w):
            return _superpose(filling, variant, w ** q).sum(
                axis=0) ** (1.0 / q)

        # an overflowed weights ** q makes inf - inf = nan in the
        # superposition, which sends it to the scaled fallback below
        with np.errstate(over="ignore", invalid="ignore"):
            stack = aggregate(weights)
        m = weights.max()
        if (not np.isfinite(stack).all() or not stack.any()) \
                and 0.0 < m < np.inf:
            # weights ** q left the float range; as in _power_sum_root,
            # aggregate weights / max and scale back
            stack = m * aggregate(weights / m)
    return lp_norm(filling.space, stack, p)


def besov_fn_norm(filling: Filling, f, params: SmoothnessParams,
                  variant: NormVariant | None = None,
                  level_window: tuple[int, int] | None = None) -> float:
    """Besov-type function norm: sequence norm of the lifted derivative."""
    u = discrete_derivative(filling, poisson_extension(filling, f))
    return besov_seq_norm(filling, u, params, variant, level_window)


def triebel_fn_norm(filling: Filling, f, params: SmoothnessParams,
                    variant: NormVariant | None = None,
                    level_window: tuple[int, int] | None = None) -> float:
    """Triebel-type function norm: sequence norm of the lifted derivative."""
    _require_Q_window(filling, params)
    u = discrete_derivative(filling, poisson_extension(filling, f))
    return triebel_seq_norm(filling, u, params, variant, level_window)


def _require_Q_window(filling: Filling, params: SmoothnessParams) -> None:
    Q = filling.space.declared_Q
    if params.p <= Q / (Q + params.s):
        raise GateError(
            "p=%g at or below Q/(Q+s)=%g; pointwise-aggregated function "
            "norm undefined" % (params.p, Q / (Q + params.s)))


def nonhom_norm(filling: Filling, f, params: SmoothnessParams,
                variant: NormVariant | None = None) -> tuple[float, float]:
    """Inhomogeneous norm split into its coarse and oscillation parts.

    Returns the pair ``(lp_part, seq_part)`` whose sum is the norm: the
    ``L^p`` norm of the coarsest level blend of the ball means, and the
    sequence norm of the lifted derivative over levels ``>= 0``.
    """
    if params.kind not in ("nonhom_besov", "nonhom_triebel"):
        raise ConfigError("params kind %r is not inhomogeneous" % params.kind)
    if filling.level_lo > 0:
        raise ConfigError(
            "inhomogeneous norm needs the root level 0 in the filling")
    v = poisson_extension(filling, f)
    u = discrete_derivative(filling, v)
    lp_part = lp_norm(filling.space, level_blend(filling, v, 0), params.p)
    window = (0, filling.level_hi)
    if params.kind == "nonhom_besov":
        seq = besov_seq_norm(filling, u, params, variant, window)
    else:
        _require_Q_window(filling, params)
        seq = triebel_seq_norm(filling, u, params, variant, window)
    return lp_part, seq


@dataclass(frozen=True)
class TraceAdmissibility:
    """Outcome of an admissibility check for one trace theorem.

    ``trace_smoothness`` is the smoothness of the trace target space,
    meaningful only when ``admissible``.  ``requires_porosity`` flags
    theorems whose hypotheses additionally demand a porous subset; the
    geometric check itself lives with the trace operators.
    """

    admissible: bool
    theorem: str
    trace_smoothness: float
    p_window: tuple[float, float]
    q_window: tuple[float, float]
    requires_porosity: bool
    reasons: tuple[str, ...]


def admissibility(Q: float, lam: float, params: SmoothnessParams,
                  theorem: str) -> TraceAdmissibility:
    """Check exponents against one trace/extension theorem window.

    Parameters
    ----------
    Q : float
        Regularity dimension of the ambient space.
    lam : float
        Regularity dimension of the subset, ``0 < lam <= Q``.
    params : SmoothnessParams
        Source-space exponents.  The smoothness is ignored by the
        Sobolev window, which is pinned at ``s = 1``.
    theorem : str
        ``besov``, ``triebel``, or ``sobolev``.

    Returns
    -------
    TraceAdmissibility
    """
    if theorem not in ("besov", "triebel", "sobolev"):
        raise ConfigError("unknown theorem %r" % (theorem,))
    if not (0.0 < lam <= Q):
        raise ConfigError("subset dimension %g outside (0, %g]" % (lam, Q))
    gamma = Q - lam
    s = 1.0 if theorem == "sobolev" else params.s
    reasons = []
    if theorem != "sobolev" and not (0.0 < params.s < 1.0):
        reasons.append("s=%g outside (0, 1)" % params.s)
    p_lo = max(Q / (lam + s), gamma / s) if s > 0 else np.inf
    p_window = (p_lo, np.inf)
    if not (p_lo < params.p < np.inf):
        reasons.append("p=%g outside (%g, inf)" % (params.p, p_lo))
    if theorem == "triebel":
        q_lo = Q / (Q + s)
        q_window = (q_lo, np.inf)
        if not (q_lo < params.q):
            reasons.append("q=%g at or below Q/(Q+s)=%g" % (params.q, q_lo))
    else:
        q_window = (0.0, np.inf)
    sigma = s - (gamma / params.p if params.p > 0 else np.inf)
    if not reasons and not (0.0 < sigma):
        reasons.append("trace smoothness %g not positive" % sigma)
    return TraceAdmissibility(
        admissible=not reasons,
        theorem=theorem,
        trace_smoothness=float(sigma),
        p_window=p_window,
        q_window=q_window,
        requires_porosity=theorem in ("triebel", "sobolev"),
        reasons=tuple(reasons),
    )


def trace_smoothness_window(Q: float, lam: float, p: float
                            ) -> tuple[float, float]:
    """Open/closed window of trace smoothness reachable at fixed ``p``.

    Returns ``(lo, hi)`` with ``lo`` exclusive and ``hi`` inclusive:
    traces of smoothness ``sigma`` in that window arise from source
    smoothness ``s = sigma + (Q - lam)/p`` inside the admissible range.
    """
    if not (0.0 < lam <= Q):
        raise ConfigError("subset dimension %g outside (0, %g]" % (lam, Q))
    if not p > 0:
        raise ConfigError("p=%g must be positive" % p)
    lo = lam * max(0.0, 1.0 / p - 1.0)
    hi = 1.0 - (Q - lam) / p
    return lo, hi
