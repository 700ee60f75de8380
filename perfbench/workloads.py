"""The benchmark's workloads: inputs made from a seed, ops and their checks.

Every library call goes through a module attribute (``hf.build_filling``,
``trace.extend_besov``, ...) so that the traced run's rebinding sees it.
The library receives only arrays; the test functions are tent sums made
here, in the same way as ``hyperfill.verify.random_tent_functions`` but
without calling it.

An op is one public call whose output the benchmark checks.  ``run``
performs the call, ``payload`` turns its result into the document the
CLI would write, and ``check`` returns a list of problems (empty when the
output is right).  Checks use the library's own tolerances.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

import hyperfill as hf
from hyperfill import calculus, hajlasz, norms, trace, verify
from hyperfill.norms import NormVariant, SmoothnessParams

BESOV = SmoothnessParams(s=0.5, p=2.0, q=2.0, kind="besov")
TRIEBEL = BESOV.replace(kind="triebel")
NONHOM = BESOV.replace(kind="nonhom_besov")
MASS = NormVariant(kind="mass")

TELESCOPE_TOL = 1e-12     # criterion 01 of the acceptance suite
PARTITION_TOL = 1e-12     # criterion 02
LP_REL_TOL = 1e-6         # criterion 07
GAP_TOL = 1e-7            # hajlasz_norm's default relative gap target
FEASIBLE_TOL = 1e-12      # relative to the largest constraint level
CERT_PAIR_CAP = 2_000_000  # pairs extend_sobolev samples (pair_seed 0)


@dataclass
class Op:
    name: str
    run: object                       # state -> result
    payload: object                   # result -> JSON-able dict
    check: object = None              # (state, result) -> [problem, ...]
    result: bool = True               # a user-facing result (not a build)
    golden: bool = True               # compare payload to recorded values


@dataclass
class Workload:
    name: str
    setup: object                     # (seed, scale) -> inputs dict
    ops: object                       # inputs -> [Op, ...]
    counts: object                    # state -> {name: int}
    pass_seconds: float               # nominal length of one pass


# -- inputs ---------------------------------------------------------------

def tent_sums(points, diam, count, rng, n_tents=6, widths=(0.1, 0.4)):
    """Sums of random sup-metric tents, one row per function."""
    out = np.zeros((count, points.shape[0]))
    for i in range(count):
        for _ in range(n_tents):
            center = points[int(rng.integers(points.shape[0]))]
            width = diam * rng.uniform(*widths)
            amp = rng.normal()
            dist = np.abs(points - center).max(axis=1)
            out[i] += amp * np.clip(1.0 - dist / width, 0.0, 1.0)
    return out


# -- shared checks and payloads -------------------------------------------

def _finite(*values):
    bad = [v for v in values if not np.all(np.isfinite(v))]
    return ["non-finite output"] if bad else []


def _norm_payload(value):
    return {"value": value}


def _audit_ok(_state, report):
    return [] if report["ok"] else ["audit verdict not ok"]


def _params_json(params):
    return {"s": params.s, "p": params.p, "q": params.q, "kind": params.kind}


def _trace_json(res):
    return {"trace_norm": res.trace_norm, "source_norm": res.source_norm,
            "operator_ratio": res.operator_ratio,
            "trace_params": _params_json(res.trace_params),
            "details": res.details, "samples": res.samples.tolist()}


def _ext_json(res):
    return {"target_norm": res.target_norm, "source_norm": res.source_norm,
            "operator_ratio": res.operator_ratio,
            "restriction_sup_error": res.restriction_sup_error,
            "source_params": _params_json(res.source_params),
            "details": res.details, "samples": res.samples.tolist()}


def _positive_ratio(res):
    problems = _finite(res.samples, res.operator_ratio)
    if not res.operator_ratio > 0.0:
        problems.append("operator ratio %r not positive" % res.operator_ratio)
    return problems


def _filling_counts(prefix, filling):
    out = {prefix + "V": filling.n_vertices, prefix + "E": filling.n_edges,
           prefix + "ball_nnz": int(sum(m.size for m in
                                        filling.ball_member_list))}
    if filling._edge_membership is not None:
        out[prefix + "edge_nnz"] = int(filling._edge_membership.nnz)
    return out


def _telescope_op(key, level, f):
    """T_{n+1} v - T_n v against the one-level integral of dv."""
    def run(state):
        fil = state[key]
        v = calculus.poisson_extension(fil, f)
        dv = calculus.discrete_derivative(fil, v)
        lhs = calculus.telescoping_integral(fil, dv, level_window=(level,
                                                                   level))
        rhs = (calculus.level_blend(fil, v, level + 1)
               - calculus.level_blend(fil, v, level))
        return {"v": v, "lhs": lhs, "rhs": rhs, "filling": fil}

    def check(_state, out):
        fil, v = out["filling"], out["v"]
        problems = _finite(out["lhs"])
        err = float(np.abs(out["lhs"] - out["rhs"]).max()
                    / max(float(np.abs(v).max()), 1e-300))
        if not err <= TELESCOPE_TOL:
            problems.append("telescoping rel err %.3g at level %d"
                            % (err, level))
        for n in (level, level + 1):
            col = np.asarray(calculus.build_partition(fil, n).psi
                             .sum(axis=0)).ravel()
            if not np.abs(col - 1.0).max() <= PARTITION_TOL:
                problems.append("partition columns off 1 at level %d" % n)
        return problems

    return Op("telescoping[%s,%d]" % (key, level), run,
              lambda out: {"integral": out["lhs"].tolist()}, check)


# -- grid2d ---------------------------------------------------------------

def _grid2d_setup(seed, scale):
    cfg = {"full": dict(depth=6, level_hi=4, functions=8, trials=4),
           "tiny": dict(depth=4, level_hi=2, functions=2, trials=2)}[scale]
    space = hf.unit_cube_space(2, cfg["depth"])
    fs = tent_sums(space.points, space.declared_diam, cfg["functions"],
                   np.random.default_rng(seed))
    return dict(cfg, space=space, fs=fs, seed=seed)


def _grid2d_ops(inp):
    space, fs, hi = inp["space"], inp["fs"], inp["level_hi"]

    def build(state):
        state["F"] = hf.build_filling(space, 0, hi)
        return state["F"]

    ops = [
        Op("build_filling", build,
           lambda fil: {"V": fil.n_vertices, "E": fil.n_edges},
           result=False),
        Op("besov[cold]",
           lambda st: norms.besov_fn_norm(st["F"], fs[0], BESOV),
           _norm_payload, lambda st, x: _finite(x)),
        Op("audit_filling", lambda st: hf.audit_filling(st["F"]),
           lambda rep: rep, _audit_ok),
    ]
    for i, f in enumerate(fs):
        ops += [
            Op("besov[%d]" % i,
               lambda st, f=f: norms.besov_fn_norm(st["F"], f, BESOV),
               _norm_payload, lambda st, x: _finite(x)),
            Op("triebel[%d]" % i,
               lambda st, f=f: norms.triebel_fn_norm(st["F"], f, TRIEBEL),
               _norm_payload, lambda st, x: _finite(x)),
            # With p = q the mass variant equals the Triebel norm exactly
            # (Fubini), an independent check on both superpositions.
            Op("besov_mass[%d]" % i,
               lambda st, f=f: norms.besov_fn_norm(st["F"], f, BESOV, MASS),
               _norm_payload,
               lambda st, x, i=i: _close(x, st["results"].get(
                   "triebel[%d]" % i), 1e-9, "mass vs triebel")),
            Op("nonhom_besov[%d]" % i,
               lambda st, f=f: norms.nonhom_norm(st["F"], f, NONHOM),
               lambda x: {"coarse_part": x[0], "oscillation_part": x[1]},
               lambda st, x: _finite(*x)),
        ]
    ops.append(Op(
        "audit_norm_variants",
        lambda st: verify.audit_norm_variants(
            st["F"], BESOV, trials=inp["trials"], seed=inp["seed"]),
        lambda rep: rep.to_dict(),
        lambda st, rep: [] if rep.passed else ["norm variant band failed"]))
    ops += [_telescope_op("F", n, fs[0]) for n in range(0, hi)]
    return ops


def _close(a, b, rel, what):
    if b is None:
        return ["%s: reference missing" % what]
    if not abs(a - b) <= rel * max(abs(a), abs(b)):
        return ["%s differ: %r vs %r" % (what, a, b)]
    return []


def _grid2d_counts(state):
    return _filling_counts("", state["F"]) if "F" in state else {}


# -- cantor_pair ----------------------------------------------------------

def _cantor_setup(seed, scale):
    cfg = {"full": dict(depth=12, cantor=7, level_hi=10, functions=8),
           "tiny": dict(depth=8, cantor=4, level_hi=6, functions=2)}[scale]
    space = hf.unit_cube_space(1, cfg["depth"])
    mask = hf.cantor_mask(space, cfg["cantor"])
    rng = np.random.default_rng(seed)
    sub_pts = space.points[mask.member_indices]
    gs = tent_sums(sub_pts, 1.0, cfg["functions"], rng)
    fs = tent_sums(space.points, space.declared_diam, cfg["functions"], rng)
    return dict(cfg, space=space, mask=mask, gs=gs, fs=fs, seed=seed)


def _roundtrip(nested, g):
    ext = trace.extend_besov(nested, g, BESOV)
    back = trace.trace_besov(nested, ext.samples, BESOV)
    return ext, back, g


def _roundtrip_payload(out):
    ext, back, g = out
    return {"extend": _ext_json(ext), "trace": _trace_json(back),
            "roundtrip_sup_error": float(np.abs(back.samples - g).max())}


def _roundtrip_check(_state, out):
    ext, back, _ = out
    return _positive_ratio(ext) + _positive_ratio(back)


def _sobolev_check(state, res):
    """Re-check |u(x) - u(y)| <= d(x, y) (g(x) + g(y)) on every pair, slack
    1e-10 of sup |u| as in the acceptance suite.

    The library documents its certificate for the pairs it samples (seed
    0, ``CERT_PAIR_CAP`` draws, once the cloud has more pairs than that).
    A violated pair inside that sample, drawn again here, fails the op;
    violations outside it are counted in ``cert_unsampled_violations``.
    """
    points = state["N"].ambient.space.points
    n = points.shape[0]
    u, g = res.samples, res.certificate.g
    slack = 1e-10 * max(1.0, float(np.abs(u).max()))
    cols = np.arange(n)
    bad_i, bad_j = [], []
    for lo in range(0, n, 512):
        rows = np.arange(lo, min(lo + 512, n))[:, None]
        d = np.abs(points[rows, 0] - points[cols, 0])
        for k in range(1, points.shape[1]):
            np.maximum(d, np.abs(points[rows, k] - points[cols, k]), out=d)
        excess = np.abs(u[rows] - u[cols]) - d * (g[rows] + g[cols])
        r, c = np.nonzero((excess > slack) & (cols > rows))
        bad_i.append(r + lo)
        bad_j.append(c)
    bad_i, bad_j = np.concatenate(bad_i), np.concatenate(bad_j)
    sampled = np.ones(bad_i.size, dtype=bool)
    if bad_i.size and n * (n - 1) // 2 > CERT_PAIR_CAP:
        rng = np.random.default_rng(0)
        ii = rng.integers(0, n, size=CERT_PAIR_CAP)
        jj = rng.integers(0, n, size=CERT_PAIR_CAP)
        sampled = np.array([np.any(((ii == a) & (jj == b))
                                   | ((ii == b) & (jj == a)))
                            for a, b in zip(bad_i, bad_j)], dtype=bool)
    state["cert_unsampled_violations"] = (
        state.get("cert_unsampled_violations", 0) + int((~sampled).sum()))
    problems = _finite(u, g)
    if sampled.any():
        problems.append("certificate violated on %d of its own sampled "
                        "pairs" % int(sampled.sum()))
    return problems


def _cantor_ops(inp):
    space, mask, hi = inp["space"], inp["mask"], inp["level_hi"]
    gs, fs = inp["gs"], inp["fs"]

    def build(state):
        state["N"] = hf.build_nested_filling(space, mask, 0, hi)
        return state["N"]

    ops = [
        Op("build_nested_filling", build,
           lambda nf: {"ambient_V": nf.ambient.n_vertices,
                       "ambient_E": nf.ambient.n_edges,
                       "trace_V": nf.trace.n_vertices,
                       "trace_E": nf.trace.n_edges}, result=False),
        Op("besov_roundtrip[cold]", lambda st: _roundtrip(st["N"], gs[0]),
           _roundtrip_payload, _roundtrip_check),
        Op("audit_nested", lambda st: hf.audit_nested(st["N"]),
           lambda rep: rep, _audit_ok),
        Op("audit_filling[ambient]",
           lambda st: hf.audit_filling(st["N"].ambient),
           lambda rep: rep, _audit_ok),
        Op("audit_filling[trace]", lambda st: hf.audit_filling(st["N"].trace),
           lambda rep: rep, _audit_ok),
    ]
    for i, (g, f) in enumerate(zip(gs, fs)):
        ops += [
            Op("besov_roundtrip[%d]" % i,
               lambda st, g=g: _roundtrip(st["N"], g),
               _roundtrip_payload, _roundtrip_check),
            Op("trace_triebel[%d]" % i,
               lambda st, f=f: trace.trace_triebel(st["N"], f, TRIEBEL),
               _trace_json, lambda st, res: _positive_ratio(res)),
            Op("extend_sobolev[%d]" % i,
               lambda st, g=g: trace.extend_sobolev(st["N"], g, 2.0),
               lambda res: dict(_ext_json(res), certificate={
                   "K": res.certificate.K, "norm": res.certificate.norm,
                   "pairs_checked": res.certificate.pairs_checked}),
               _sobolev_check),
            Op("nonhom_trace[%d]" % i,
               lambda st, f=f: trace.nonhom_trace(st["N"], f, NONHOM),
               _trace_json, lambda st, res: _positive_ratio(res)),
        ]
    return ops


def _cantor_counts(state):
    if "N" not in state:
        return {}
    out = _filling_counts("ambient_", state["N"].ambient)
    out.update(_filling_counts("trace_", state["N"].trace))
    out["cert_unsampled_violations"] = state.get(
        "cert_unsampled_violations", 0)
    out["cert_pairs"] = sum(
        res.certificate.pairs_checked
        for name, res in state["results"].items()
        if name.startswith("extend_sobolev") and not isinstance(res, Exception))
    return out


# -- hajlasz_ladder -------------------------------------------------------

# (n, s, p).  p = 1.5 runs at n = 16 (1,750 iterations, about 1.3 s) rather
# than n = 32 (17,500 iterations, about 11 s), and n >= 256 is left out, to
# keep one run short; see NOTES.md.
LADDER = {"full": [(64, 0.5, 1.0), (64, 0.5, 2.0), (16, 0.5, 1.5)],
          "tiny": [(8, 0.5, 1.0), (8, 0.5, 2.0), (8, 0.5, 1.5)]}


def _ladder_setup(seed, scale):
    """Fixed tent-sum shapes; the seed draws sign, reflection and offset.

    The solver's iteration count depends on the function's shape and
    varies tenfold between random shapes, so runs at different seeds
    would not measure the same work.  Sign, offset and the mirror image
    leave every pair constraint |f_i - f_j| / d^s unchanged, so the seed
    changes the arrays the library receives but not the program solved.
    """
    rng = np.random.default_rng(seed)
    rungs = []
    for n, s, p in LADDER[scale]:
        space = hf.unit_cube_space(1, int(math.log2(n)))
        shape = tent_sums(space.points, space.declared_diam, 1,
                          np.random.default_rng(0))[0]
        if rng.random() < 0.5:
            shape = shape[::-1]
        f = (1.0 if rng.random() < 0.5 else -1.0) * shape \
            + rng.uniform(-1.0, 1.0)
        rungs.append((space, f, SmoothnessParams(s, p, kind="hajlasz")))
    return {"rungs": rungs, "seed": seed, "scale": scale}


def _constraint_levels(space, f, s):
    x = space.points
    d = np.abs(x[:, None, :] - x[None, :, :]).max(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.abs(f[:, None] - f[None, :]) / d ** s
    np.fill_diagonal(m, 0.0)
    return m


def _lp_optimum(space, f, s):
    """Dense p = 1 program solved by HiGHS, independent of the library."""
    from scipy import optimize  # the benchmark's own; kept out of set-up
    n = f.shape[0]
    m = _constraint_levels(space, f, s)
    ii, jj = np.triu_indices(n, k=1)
    a = np.zeros((ii.size, n))
    rows = np.arange(ii.size)
    a[rows, ii] = -1.0
    a[rows, jj] = -1.0
    res = optimize.linprog(space.weights, A_ub=a, b_ub=-m[ii, jj],
                           bounds=[(0, None)] * n, method="highs")
    if res.status != 0:
        raise RuntimeError("oracle LP failed: %s" % res.message)
    return float(res.fun)


def _hajlasz_check(rung):
    space, f, params = rung

    def check(_state, res):
        problems = _finite(res.norm, res.g)
        if not res.converged:
            problems.append("solver returned without convergence")
        if not res.gap <= GAP_TOL:
            problems.append("gap %.3g above tol" % res.gap)
        m = _constraint_levels(space, f, params.s)
        slack = FEASIBLE_TOL * float(m.max())
        short = m - (res.g[:, None] + res.g[None, :])
        np.fill_diagonal(short, 0.0)
        if short.max() > slack:
            problems.append("infeasible by %.3g" % short.max())
        if params.p == 1.0:
            opt = _lp_optimum(space, f, params.s)
            if not abs(res.norm - opt) <= LP_REL_TOL * opt:
                problems.append("norm %.12g vs LP %.12g" % (res.norm, opt))
        return problems

    return check


def _hajlasz_payload(res):
    return {"value": res.norm, "objective": res.objective,
            "dual_value": res.dual_value, "gap": res.gap,
            "iterations": res.iterations, "converged": res.converged,
            "g": res.g.tolist()}


def _ladder_ops(inp):
    ops = []
    for rung in inp["rungs"]:
        space, f, params = rung
        key = "hajlasz[n=%d,s=%g,p=%g]" % (space.n_points, params.s,
                                             params.p)

        def run(state, rung=rung, key=key):
            state.setdefault("points", {})[key] = rung[0].n_points
            return hajlasz.hajlasz_norm(*rung)

        ops.append(Op(key, run, _hajlasz_payload, _hajlasz_check(rung),
                      golden=False))
    return ops


_STALL = re.compile(r"after (\d+) iterations")


def _ladder_counts(state):
    out = {}
    for key, n in state.get("points", {}).items():
        res = state["results"][key]
        out[key + ".pairs"] = n * (n - 1) // 2
        if isinstance(res, Exception):
            hit = _STALL.search(str(res))
            if hit:
                out[key + ".iterations"] = int(hit.group(1))
        else:
            out[key + ".iterations"] = res.iterations
    return out


WORKLOADS = {
    "grid2d": Workload("grid2d", _grid2d_setup, _grid2d_ops, _grid2d_counts,
                       25.0),
    "cantor_pair": Workload("cantor_pair", _cantor_setup, _cantor_ops,
                            _cantor_counts, 8.0),
    "hajlasz_ladder": Workload("hajlasz_ladder", _ladder_setup, _ladder_ops,
                               _ladder_counts, 40.0),
}
