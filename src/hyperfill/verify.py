"""Reproducible numerical audits of the library's norm and trace claims.

Each audit runs a randomized experiment against a declared band or
decay target, and returns an ExperimentReport carrying every measured
number, the thresholds it was judged against, and the seed that
reproduces it.  Reports never assert silently: a verdict is a named
boolean in the report, and the audit's caller decides what failing
means.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonio import format_float
from ._kernels import BACKEND
from ._version import __version__
from .calculus import level_blend, poisson_extension
from .errors import ConfigError, GateError
from .filling import Filling, NestedFilling, build_nested_filling
from .norms import (NormVariant, SmoothnessParams, _exponent_json,
                    admissibility, besov_seq_norm, half_ball_substitute,
                    lp_norm, nonhom_norm, triebel_seq_norm)
from .space import (_check_keys, _num, mask_from_descriptor, porosity_scan,
                    space_from_descriptor)
from .trace import _OPERATORS, _SOURCE_KINDS, _restrict

__all__ = [
    "ExperimentReport",
    "random_tent_functions",
    "random_noise_functions",
    "audit_norm_variants",
    "audit_porosity_qindependence",
    "audit_nonhom_split",
    "audit_small_p_embedding",
    "audit_approx_density",
    "audit_theorem_suite",
    "AUDITS",
]

_CSV_HEADER = "experiment_id,cell,metric,value"

# Largest number of tents in one test function; each tent is one pass over
# the cloud.
MAX_TENTS = 1000
# Tent widths are drawn uniformly from this range times the diameter.
_TENT_WIDTHS = (0.1, 0.4)


@dataclass(eq=False)
class ExperimentReport:
    """Outcome of one audit: rows of measurements plus named verdicts.

    ``rows`` is a list of dicts, each with a ``cell`` label and metric
    values; ``verdicts`` maps claim names to booleans judged against
    ``thresholds``, both serialized with the report so no judgment is
    hidden in code.
    """

    experiment_id: str
    config: dict
    thresholds: dict
    rows: list = field(repr=False)
    verdicts: dict
    rng_seed: int
    backend: str = BACKEND
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "config": self.config,
            "thresholds": self.thresholds,
            "rows": self.rows,
            "verdicts": self.verdicts,
            "rng_seed": self.rng_seed,
            "backend": self.backend,
            "version": self.version,
            "passed": self.passed,
        }

    def csv_text(self) -> str:
        """Long-format table: experiment_id, cell, metric, value."""
        out = io.StringIO()
        out.write(_CSV_HEADER + "\n")
        for row in self.rows:
            cell = row.get("cell", "")
            for key in sorted(row):
                if key == "cell":
                    continue
                val = row[key]
                if isinstance(val, float):
                    val = format_float(val)
                out.write("%s,%s,%s,%s\n"
                          % (self.experiment_id, cell, key, val))
        return out.getvalue()


def random_tent_functions(space, count: int, rng,
                          n_tents: int = 6) -> np.ndarray:
    """Batch of Lipschitz test functions: sums of random tents.

    Each function is a sum of ``n_tents`` tents centred at random cloud
    points with widths drawn uniformly from 0.1 to 0.4 times the diameter
    and standard normal amplitudes.  ``n_tents`` outside
    ``[0, MAX_TENTS]`` raises `ConfigError`.
    """
    if not 0 <= n_tents <= MAX_TENTS:
        raise ConfigError("n_tents must lie in [0, %d], got %r"
                          % (MAX_TENTS, n_tents))
    lo, hi = _TENT_WIDTHS
    out = np.zeros((count, space.n_points))
    for i in range(count):
        for _ in range(n_tents):
            center = space.points[int(rng.integers(space.n_points))]
            width = space.declared_diam * rng.uniform(lo, hi)
            amp = rng.normal()
            out[i] += amp * np.clip(1.0 - space.dist_from(center) / width,
                                    0.0, 1.0)
    return out


def random_noise_functions(space, count: int, rng) -> np.ndarray:
    """Standard normal samples at every point; a roughness control."""
    return rng.normal(size=(count, space.n_points))


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigError("trials must be at least 1, got %r" % (trials,))


def _band(values) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    width = hi / lo if lo > 0 else float("inf")
    return lo, hi, width


def audit_norm_variants(filling: Filling,
                        params: SmoothnessParams | None = None, *,
                        trials: int = 100, seed: int = 0,
                        band_threshold: float = 16.0) -> ExperimentReport:
    """Indicator vs mass vs half-ball substitute norm bands.

    Random edge sequences are scored by all three variants of the
    level-superposition norm; the report carries the per-trial ratios
    and the overall bands.  Verdicts require each band to stay inside
    ``band_threshold``.
    """
    _check_trials(trials)
    if params is None:
        params = SmoothnessParams(s=0.5, p=2.0, q=2.0, kind="besov")
    rng = np.random.default_rng(seed)
    half = half_ball_substitute(filling)
    mass = NormVariant(kind="mass")
    rows = []
    mass_ratios, sub_ratios = [], []
    for t in range(trials):
        u = rng.normal(size=filling.n_edges)
        ind_n = besov_seq_norm(filling, u, params)
        mass_n = besov_seq_norm(filling, u, params, mass)
        sub_n = besov_seq_norm(filling, u, params, half)
        mass_ratios.append(mass_n / ind_n)
        sub_ratios.append(sub_n / ind_n)
        rows.append({"cell": "trial_%03d" % t, "indicator": ind_n,
                     "mass": mass_n, "substitute": sub_n,
                     "mass_over_indicator": mass_ratios[-1],
                     "substitute_over_indicator": sub_ratios[-1]})
    m_lo, m_hi, m_w = _band(mass_ratios)
    s_lo, s_hi, s_w = _band(sub_ratios)
    rows.append({"cell": "aggregate", "mass_band_lo": m_lo,
                 "mass_band_hi": m_hi, "mass_band_width": m_w,
                 "substitute_band_lo": s_lo, "substitute_band_hi": s_hi,
                 "substitute_band_width": s_w})
    thresholds = {"band_threshold": band_threshold}
    verdicts = {"mass_band_bounded": m_w <= band_threshold,
                "substitute_band_bounded": s_w <= band_threshold}
    return ExperimentReport(
        experiment_id="norm_variants",
        config={"params": params.to_dict(), "trials": trials},
        thresholds=thresholds, rows=rows, verdicts=verdicts, rng_seed=seed)


def audit_porosity_qindependence(nested: NestedFilling, *, s: float = 0.5,
                                 p: float = 2.0,
                                 q_list=(0.8, 1.0, 2.0, np.inf),
                                 trials: int = 50, seed: int = 0
                                 ) -> ExperimentReport:
    """Aggregation-exponent independence for subset-supported sequences.

    Random sequences supported on the embedded subset edges are scored
    by the pointwise-aggregated norm at each ``q``; the per-trial spread
    ``max_q / min_q`` is recorded, alongside the same measurement for
    sequences supported on every ambient edge (the negative control,
    recorded but never judged here).  The only verdict is the porosity
    of the subset, a hypothesis of the claim.
    """
    _check_trials(trials)
    amb = nested.ambient
    rng = np.random.default_rng(seed)
    q_list = [float(q) for q in q_list]
    if not q_list:
        raise ConfigError("q_list names no aggregation exponent")
    porosity = porosity_scan(amb.space, nested.mask, seed=seed)
    rows = [{"cell": "porosity",
             "constant": porosity if porosity is not None else 0.0}]
    ef_spread, full_spread = [], []
    for t in range(trials):
        u_ef = np.zeros(amb.n_edges)
        u_ef[nested.edge_embedding] = rng.normal(
            size=nested.edge_embedding.size)
        u_full = rng.normal(size=amb.n_edges)
        row = {"cell": "trial_%03d" % t}
        for label, u, bucket in (("ef", u_ef, ef_spread),
                                 ("full", u_full, full_spread)):
            norms = [triebel_seq_norm(
                amb, u, SmoothnessParams(s=s, p=p, q=q, kind="triebel"))
                for q in q_list]
            # a sequence that is zero everywhere (no embedded edges) has
            # equal norms at every q
            spread = max(norms) / min(norms) if max(norms) > 0 else 1.0
            bucket.append(spread)
            for q, n in zip(q_list, norms):
                row["%s_q%s" % (label, _qtag(q))] = n
            row["%s_spread" % label] = spread
        rows.append(row)
    e_lo, e_hi, _ = _band(ef_spread)
    f_lo, f_hi, _ = _band(full_spread)
    rows.append({"cell": "aggregate",
                 "ef_spread_lo": e_lo, "ef_spread_hi": e_hi,
                 "full_spread_lo": f_lo, "full_spread_hi": f_hi})
    return ExperimentReport(
        experiment_id="porosity_qindependence",
        config={"s": s, "p": p, "trials": trials,
                "q_list": [_exponent_json(q) for q in q_list]},
        thresholds={}, rows=rows,
        verdicts={"subset_is_porous": porosity is not None},
        rng_seed=seed)


def audit_nonhom_split(filling: Filling,
                       params: SmoothnessParams | None = None, *,
                       trials: int = 20, seed: int = 0,
                       band_threshold: float = 4.0) -> ExperimentReport:
    """Inhomogeneous norm versus plain ``L^p`` plus oscillation.

    For smooth random functions the quotient of the inhomogeneous norm
    by ``L^p + sequence part`` must sit in a band no wider than the
    declared threshold.  Constant and zero functions are pinned rows.
    """
    _check_trials(trials)
    if params is None:
        params = SmoothnessParams(s=0.5, p=2.0, q=2.0, kind="nonhom_besov")
    rng = np.random.default_rng(seed)
    batch = random_tent_functions(filling.space, trials, rng)
    rows, ratios = [], []
    for t in range(trials):
        f = batch[t]
        coarse, seq = nonhom_norm(filling, f, params)
        rhs = lp_norm(filling.space, f, params.p) + seq
        ratio = (coarse + seq) / rhs if rhs > 0 else 1.0
        ratios.append(ratio)
        rows.append({"cell": "trial_%03d" % t, "nonhom": coarse + seq,
                     "lp_plus_seq": rhs, "ratio": ratio})
    for label, f in (("constant", np.ones(filling.space.n_points)),
                     ("zero", np.zeros(filling.space.n_points))):
        coarse, seq = nonhom_norm(filling, f, params)
        rhs = lp_norm(filling.space, f, params.p) + seq
        rows.append({"cell": label, "nonhom": coarse + seq,
                     "lp_plus_seq": rhs,
                     "ratio": (coarse + seq) / rhs if rhs > 0 else 1.0})
    lo, hi, width = _band(ratios)
    rows.append({"cell": "aggregate", "band_lo": lo, "band_hi": hi,
                 "band_width": width})
    return ExperimentReport(
        experiment_id="nonhom_split",
        config={"params": params.to_dict(), "trials": trials},
        thresholds={"band_threshold": band_threshold}, rows=rows,
        verdicts={"band_bounded": width <= band_threshold},
        rng_seed=seed)


def audit_small_p_embedding(filling: Filling, *, p: float = 0.8,
                            sigma_grid=(1.0, 2.0, 3.0, 4.0, 8.0),
                            trials: int = 20, seed: int = 0,
                            const_threshold: float = 4.0,
                            level: int = 0) -> ExperimentReport:
    """Sub-unit ``p`` local embedding constant at one level's balls.

    For each vertex ball ``B`` at ``level`` the mean of ``|f|`` raised
    to ``p`` is compared against ``mass(B)^(p-1)`` times the coarse
    blend plus the level sums of the lifted derivative over the
    ``sigma``-dilated ball, with the excess exponent ``eps`` read off
    from ``p = Q/(Q+eps)``.  The report records the worst constant per
    dilation and the smallest dilation meeting the threshold (``"inf"``
    when none does).  An empty ``sigma_grid`` raises `ConfigError`.
    """
    _check_trials(trials)
    if not sigma_grid:
        raise ConfigError("sigma_grid names no dilation")
    if not 0.0 < p < 1.0:
        raise GateError("embedding constant is a sub-unit p claim; p=%g" % p)
    space = filling.space
    Q = space.declared_Q
    eps = Q * (1.0 - p) / p
    rng = np.random.default_rng(seed)
    batch = random_tent_functions(space, trials, rng)
    vids = filling.vertices_at_level(level)
    levels = filling.levels
    worst = {sig: 0.0 for sig in sigma_grid}
    for f in batch:
        v = poisson_extension(filling, f)
        du = np.abs(v[filling.heads] - v[filling.tails])
        coarse = level_blend(filling, v, 0)
        stacks = dict(zip(levels, filling._superpose(du)))
        for vid in vids:
            ball = filling.ball_members(vid)
            lhs = float(space.weights[ball] @ np.abs(f[ball])) ** p
            mass = float(space.weights[ball].sum()) ** (p - 1.0)
            t_term = float(space.weights[ball] @ np.abs(coarse[ball]) ** p)
            d = space.dist_from(space.points[filling.centers[vid]])
            for sig in sigma_grid:
                dilated = d < sig * filling.radii[vid]
                seq_term = sum(
                    2.0 ** (k * eps * p)
                    * float(space.weights[dilated]
                            @ stacks[k][dilated] ** p)
                    for k in levels)
                rhs = mass * (t_term + seq_term)
                if rhs > 0:
                    worst[sig] = max(worst[sig], lhs / rhs)
    rows = [{"cell": "sigma_%g" % sig, "max_constant": worst[sig]}
            for sig in sigma_grid]
    passing = [sig for sig in sigma_grid if worst[sig] <= const_threshold]
    smallest = _exponent_json(min(passing) if passing else np.inf)
    rows.append({"cell": "aggregate", "smallest_sigma": smallest})
    return ExperimentReport(
        experiment_id="small_p_embedding",
        config={"p": p, "eps": eps, "sigma_grid": list(sigma_grid),
                "trials": trials, "level": level},
        thresholds={"const_threshold": const_threshold},
        rows=rows,
        verdicts={"some_dilation_works": bool(passing)},
        rng_seed=seed)


def audit_approx_density(filling: Filling,
                         params: SmoothnessParams | None = None, *,
                         trials: int = 20, seed: int = 0,
                         final_fraction: float = 0.2,
                         slack: float = 1.05) -> ExperimentReport:
    """Decay of ``f`` minus its level blends in the inhomogeneous norm.

    For Lipschitz test functions the path ``n -> norm(f - T_n)``,
    normalised by its first value, must be nonincreasing within
    ``slack`` and reach ``final_fraction`` two levels before the bottom.
    A noise batch is recorded without judgment: roughness only resolves
    at the last levels and that is expected.
    """
    _check_trials(trials)
    if params is None:
        params = SmoothnessParams(s=0.5, p=2.0, q=2.0, kind="nonhom_besov")
    if np.isinf(params.q):
        raise ConfigError("density audit needs q < inf")
    rng = np.random.default_rng(seed)
    ns = list(range(max(filling.level_lo, 0), filling.level_hi + 1))
    target_n = filling.level_hi - 2

    def paths_for(batch):
        paths = []
        for f in batch:
            v = poisson_extension(filling, f)
            t = []
            for n in ns:
                g = f - level_blend(filling, v, n)
                t.append(sum(nonhom_norm(filling, g, params)))
            t = np.asarray(t)
            paths.append(t / t[0] if t[0] > 0 else np.zeros_like(t))
        return np.asarray(paths)

    tent_paths = paths_for(random_tent_functions(filling.space, trials, rng))
    med = np.median(tent_paths, axis=0)
    rows = [{"cell": "level_%d" % n, "median_ratio": float(med[i]),
             "worst_ratio": float(tent_paths[:, i].max())}
            for i, n in enumerate(ns)]
    noise = paths_for(random_noise_functions(filling.space, 5, rng))
    nmed = np.median(noise, axis=0)
    for i, n in enumerate(ns):
        rows[i]["noise_median_ratio"] = float(nmed[i])
    final = float(med[ns.index(target_n)]) if target_n in ns else float(med[-1])
    nonincreasing = bool(np.all(med[1:] <= slack * med[:-1]))
    rows.append({"cell": "aggregate", "final_ratio": final,
                 "target_level": target_n})
    return ExperimentReport(
        experiment_id="approx_density",
        config={"params": params.to_dict(), "trials": trials},
        thresholds={"final_fraction": final_fraction, "slack": slack},
        rows=rows,
        verdicts={"tail_nonincreasing": nonincreasing,
                  "final_below_fraction": final <= final_fraction},
        rng_seed=seed)


def _qtag(q: float) -> str:
    return "inf" if np.isinf(q) else ("%g" % q)


def _normalize_grid(param_grid) -> list[dict]:
    """Parameter cells from a dict of value lists or from a list of cells
    whose s, p and q are numbers or ``"inf"``; anything else, an unknown
    key included, raises ConfigError."""
    try:
        if isinstance(param_grid, dict):
            _check_keys(param_grid, set(), set("spq"), "grid")
            param_grid = [{"s": s, "p": p, "q": q}
                          for s in param_grid.get("s", [0.5])
                          for p in param_grid.get("p", [2.0])
                          for q in param_grid.get("q", [2.0])]
        cells = [dict(c) for c in param_grid]
        for c in cells:
            _check_keys(c, set("spq"), set(), "grid cell")
            for k in "spq":
                c[k] = _num(c[k], "grid." + k)
        return cells
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("malformed parameter grid: %s" % exc) from None


def _suite_cell(nested, theorem, cell, trials, seed, cell_index):
    """Run one (params, resolution) cell of the theorem suite."""
    amb = nested.ambient
    Q = amb.space.declared_Q
    lam = nested.mask.declared_lambda
    q = cell["q"]
    params = SmoothnessParams(s=cell["s"], p=cell["p"],
                              q=q, kind="besov")
    adm = admissibility(Q, lam, params, theorem)
    label = "s%g_p%g_q%s_n%d" % (cell["s"], cell["p"], _qtag(q),
                                 nested.ambient.level_hi)
    if not adm.admissible:
        return {"cell": label, "status": "skipped",
                "reason": "; ".join(adm.reasons)}
    rng = np.random.default_rng([seed, cell_index])
    batch = random_tent_functions(nested.trace_space, trials, rng)
    # admissible, so p is finite and fits every source kind
    params = params.replace(kind=_SOURCE_KINDS[theorem][0])
    extend, trace = _OPERATORS[(theorem, "roundtrip")]
    sup_errs, ext_ratios, tr_ratios = [], [], []
    for f_sub in batch:
        try:
            ext = extend(nested, f_sub, params)
        except GateError as exc:
            return {"cell": label, "status": "skipped", "reason": str(exc)}
        if trace is None:
            back = _restrict(nested, ext.samples)[0]
        else:
            tr = trace(nested, ext.samples, params)
            tr_ratios.append(tr.operator_ratio)
            back = tr.samples
        denom = float(np.abs(f_sub).max()) or 1.0
        sup_errs.append(float(np.abs(back - f_sub).max()) / denom)
        ext_ratios.append(ext.operator_ratio)
    row = {"cell": label, "status": "ok",
           "trace_smoothness": adm.trace_smoothness,
           "roundtrip_sup": float(np.max(sup_errs)),
           "ext_ratio_med": float(np.median(ext_ratios))}
    if tr_ratios:
        row["trace_ratio_med"] = float(np.median(tr_ratios))
    return row


def audit_theorem_suite(space_desc: dict, subset_desc: dict | None,
                        theorem: str, param_grid, resolutions, *,
                        trials: int = 5, seed: int = 0,
                        widen_threshold: float = 2.0) -> ExperimentReport:
    """Trace/extension round trips over a parameter and resolution grid.

    Builds one nested filling per requested resolution (``level_hi``;
    strictly ascending integers, so each cell's first and last ok rows
    are its coarsest and finest), each rooted at the largest level n with ``2^-n`` at least the
    declared diameter, runs every grid cell through the extension and
    trace operators, and judges two claims: round-trip sup error does not
    grow under refinement, and operator ratios stay inside a band that
    widens by less than ``widen_threshold`` across resolutions.
    Inadmissible cells are recorded as skipped with the gate's reasons.
    """
    _check_trials(trials)
    cells = _normalize_grid(param_grid)
    if not (isinstance(resolutions, (list, tuple, np.ndarray))
            and all(isinstance(r, (int, np.integer))
                    and not isinstance(r, bool) for r in resolutions)):
        raise ConfigError("resolutions must list integer levels, got %r"
                          % (resolutions,))
    resolutions = [int(r) for r in resolutions]
    if not resolutions:
        raise ConfigError("theorem suite needs at least one resolution")
    # the verdicts compare each cell's first and last ok resolution
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ConfigError("resolutions must ascend strictly, got %r"
                          % (resolutions,))
    if theorem not in ("besov", "triebel", "sobolev"):
        raise ConfigError("unknown theorem %r" % (theorem,))
    space, mask = space_from_descriptor(space_desc)
    if mask is None:
        if subset_desc is None:
            raise ConfigError("theorem suite needs a subset")
        mask = mask_from_descriptor(space, subset_desc)
    # the root level: the largest n with 2^-n at least the diameter
    level_lo = math.floor(-math.log2(space.declared_diam))
    nesteds = {r: build_nested_filling(space, mask, level_lo, r)
               for r in resolutions}
    rows = [_suite_cell(nesteds[r], theorem, cell, trials, seed, idx)
            for idx, (cell, r) in enumerate(
                (c, r) for c in cells for r in resolutions)]

    # Judge refinement stability per parameter cell across resolutions.
    ok_rows = [r for r in rows if r.get("status") == "ok"]
    n_res = len(resolutions)
    sup_ok, ratio_ok = True, True
    any_ok_pair = False
    for i in range(0, len(rows), n_res):
        group = rows[i:i + n_res]
        oks = [r for r in group if r.get("status") == "ok"]
        if len(oks) < 2:
            continue
        any_ok_pair = True
        sups = [r["roundtrip_sup"] for r in oks]
        if sups[-1] > sups[0] and sups[-1] > 1e-12:
            sup_ok = False
        for key in ("ext_ratio_med", "trace_ratio_med"):
            vals = [r[key] for r in oks if key in r]
            if len(vals) >= 2 and min(vals) > 0:
                if max(vals) / min(vals) > widen_threshold:
                    ratio_ok = False
    verdicts = {}
    if any_ok_pair:
        verdicts = {"roundtrip_stable": sup_ok, "ratios_stable": ratio_ok}
    rows.append({"cell": "aggregate", "cells_ok": len(ok_rows),
                 "cells_total": len(rows)})
    return ExperimentReport(
        experiment_id="theorem_suite",
        config={"space": space_desc, "subset": subset_desc,
                "theorem": theorem,
                "grid": [{**c, **{k: _exponent_json(c[k]) for k in "spq"}}
                         for c in cells],
                "resolutions": resolutions, "trials": trials},
        thresholds={"widen_threshold": widen_threshold},
        rows=rows, verdicts=verdicts, rng_seed=seed)


AUDITS = {
    "audit_norm_variants": audit_norm_variants,
    "audit_porosity_qindependence": audit_porosity_qindependence,
    "audit_nonhom_split": audit_nonhom_split,
    "audit_small_p_embedding": audit_small_p_embedding,
    "audit_approx_density": audit_approx_density,
    "audit_theorem_suite": audit_theorem_suite,
}
