import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hyperfill as hf
from hyperfill import hajlasz
from hyperfill.hajlasz import hajlasz_norm
from hyperfill.norms import SmoothnessParams

from oracles import (ldp_hajlasz_norm, lp_hajlasz_norm, pair_distances,
                     qp_hajlasz_norm, slsqp_hajlasz_norm)

P1 = SmoothnessParams(1.0, 1.0, kind="hajlasz")
P2 = SmoothnessParams(1.0, 2.0, kind="hajlasz")
PINF = SmoothnessParams(1.0, np.inf, kind="hajlasz")


def _two_point_space():
    pts = np.array([[0.0], [1.0]])
    w = np.array([0.25, 0.75])
    return hf.FiniteMetricMeasureSpace(pts, w, "sup", 0.5, 1.0, 1.0)


def test_two_point_hand_values():
    space = _two_point_space()
    f = np.array([0.0, 2.0])
    # slope constraint g0 + g1 >= 2 in every case
    # p=inf: balance, both at 1
    assert hajlasz_norm(space, f, PINF).norm == pytest.approx(1.0, abs=1e-12)
    # p=1: pile everything on the lighter point, 0.25 * 2
    assert hajlasz_norm(space, f, P1).norm == pytest.approx(0.5, abs=1e-7)
    # p=2: stationarity gives g = (1.5, 0.5), norm sqrt(3)/2
    assert hajlasz_norm(space, f, P2).norm == pytest.approx(
        np.sqrt(0.75), abs=1e-7)


def test_p1_matches_lp_oracle():
    rng = np.random.default_rng(11)
    space = hf.unit_cube_space(1, 4)
    D = pair_distances(space.points)
    for _ in range(3):
        f = rng.standard_normal(space.n_points)
        opt, _ = lp_hajlasz_norm(D, space.weights, f)
        got = hajlasz_norm(space, f, P1)
        assert got.converged
        assert got.norm == pytest.approx(opt, rel=2e-6)
        assert got.gap <= 1e-6 * max(opt, 1.0)


def test_p2_matches_qp_oracle():
    rng = np.random.default_rng(11)
    space = hf.unit_cube_space(1, 4)
    D = pair_distances(space.points)
    f = rng.standard_normal(space.n_points)
    opt, _ = qp_hajlasz_norm(D, space.weights, f)
    got = hajlasz_norm(space, f, P2)
    assert got.norm == pytest.approx(opt, rel=2e-6)


def test_p15_matches_slsqp_oracle():
    rng = np.random.default_rng(11)
    space = hf.unit_cube_space(1, 4)
    D = pair_distances(space.points)
    for _ in range(2):
        f = rng.standard_normal(space.n_points)
        opt, _ = slsqp_hajlasz_norm(D, space.weights, f, 1.5)
        got = hajlasz_norm(space, f, SmoothnessParams(1.0, 1.5,
                                                      kind="hajlasz"))
        assert got.converged
        assert got.norm == pytest.approx(opt, rel=2e-6)


def _tent_sum(points, rng, n_tents=6):
    """Sum of random sup-metric tents (widths 0.1 to 0.4, normal heights)."""
    out = np.zeros(points.shape[0])
    for _ in range(n_tents):
        center = points[rng.integers(points.shape[0])]
        width = rng.uniform(0.1, 0.4)
        dist = np.abs(points - center).max(axis=1)
        out += rng.normal() * np.clip(1.0 - dist / width, 0.0, 1.0)
    return out


def test_p2_tent_sum_at_64_points_certifies():
    # A primal-dual first-order loop ran out of its 500,000 iterations on
    # this program at relative gap 7.3e-07.
    space = hf.unit_cube_space(1, 6)
    f = _tent_sum(space.points, np.random.default_rng(0))
    got = hajlasz_norm(space, f, SmoothnessParams(0.5, 2.0, kind="hajlasz"))
    assert got.converged and got.gap <= 1e-7
    i, j = np.triu_indices(space.n_points, 1)
    m = np.abs(f[i] - f[j]) / pair_distances(space.points)[i, j] ** 0.5
    assert np.all(got.g[i] + got.g[j] >= m)
    assert got.g.min() >= 0.0
    assert got.objective == pytest.approx(got.norm**2, rel=1e-15)


def _p2_space(depth, weights, seed):
    """The 1-D dyadic cube, with its uniform weights or random ones."""
    cube = hf.unit_cube_space(1, depth)
    if weights == "uniform":
        return cube
    w = np.random.default_rng(100 + seed).uniform(0.1, 1.0, cube.n_points)
    return hf.FiniteMetricMeasureSpace(cube.points, w / w.sum(), "sup",
                                       cube.resolution, cube.declared_Q,
                                       cube.declared_diam)


@pytest.mark.parametrize("weights", ["uniform", "random"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("depth", [6, 7])
def test_p2_working_set_solves_the_full_program(monkeypatch, depth, seed,
                                                weights):
    space = _p2_space(depth, weights, seed)
    f = _tent_sum(space.points, np.random.default_rng(seed))
    w = space.weights
    seen = []
    certify = hajlasz._certify

    def spy(candidates, scale, *rest):
        seen.append((candidates, scale))
        return certify(candidates, scale, *rest)

    monkeypatch.setattr(hajlasz, "_certify", spy)
    got = hajlasz_norm(space, f, SmoothnessParams(0.5, 2.0, kind="hajlasz"))
    D = pair_distances(space.points)
    opt, _ = ldp_hajlasz_norm(D**0.5, w, f)
    assert got.converged and got.gap <= 1e-12
    assert got.norm == pytest.approx(opt, rel=1e-12, abs=0.0)
    # KKT: g is feasible on every pair, y >= 0 and 2 w g = A^T y
    i, j = np.triu_indices(space.n_points, 1)
    m = np.abs(f[i] - f[j]) / D[i, j] ** 0.5
    assert np.all(got.g[i] + got.g[j] >= m) and got.g.min() >= 0.0
    [([(_, y_unit)], top)] = seen
    assert y_unit.min() >= 0.0
    y = np.zeros(m.size)
    y[m > 0.0] = top * y_unit      # the solver keeps the pairs with m > 0
    lhs = 2.0 * w * got.g
    rhs = np.bincount(i, y, space.n_points) + np.bincount(j, y,
                                                          space.n_points)
    assert np.abs(lhs - rhs).max() <= 1e-9 * lhs.max()
    slack = got.g[i] + got.g[j] - m
    assert y @ slack <= 1e-9 * (y @ m)


def test_p2_never_runs_the_dual_ascent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("p = 2 reached the L-BFGS-B route")

    monkeypatch.setattr(hajlasz, "_solve_dual", refuse)
    monkeypatch.setattr(hajlasz, "_newton_polish", refuse)
    space = hf.unit_cube_space(1, 6)
    f = _tent_sum(space.points, np.random.default_rng(0))
    got = hajlasz_norm(space, f, SmoothnessParams(0.5, 2.0, kind="hajlasz"))
    assert got.converged and got.gap <= 1e-12
    assert 1 <= got.iterations <= space.n_points


def test_p2_working_set_over_budget_raises(monkeypatch):
    # 65 rows by a starting set of at least 32 pairs is over 16 KB
    monkeypatch.setattr(hajlasz, "_WORK_BYTES", 65 * 32 * 8 - 1)
    space = hf.unit_cube_space(1, 6)
    f = _tent_sum(space.points, np.random.default_rng(0))
    with pytest.raises(hf.NumericalError, match="MiB budget"):
        hajlasz_norm(space, f, SmoothnessParams(0.5, 2.0, kind="hajlasz"))


_HAJLASZ_CFG = {"space": {"kind": "cube", "dim": 1, "depth": 5},
                "level_hi": 2, "seed": 4,
                "function": {"kind": "random_tents"}}


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_norm_eval_payload_is_byte_identical_across_processes(tmp_path, p):
    cfg = tmp_path / "h.json"
    cfg.write_text(json.dumps(dict(
        _HAJLASZ_CFG, params={"s": 0.5, "p": p, "kind": "hajlasz"})))
    env = {k: v for k, v in os.environ.items() if k != "HYPERFILL_SEED"}
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperfill", "norm", "eval",
             "--config", str(cfg)],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["converged"] is True


def test_fractional_smoothness_rescales_distances():
    rng = np.random.default_rng(11)
    space = hf.unit_cube_space(1, 4)
    D = pair_distances(space.points)
    f = rng.standard_normal(space.n_points)
    opt, _ = qp_hajlasz_norm(D**0.5, space.weights, f)
    got = hajlasz_norm(space, f, SmoothnessParams(0.5, 2.0, kind="hajlasz"))
    assert got.norm == pytest.approx(opt, rel=2e-6)


def test_pinf_closed_form():
    rng = np.random.default_rng(11)
    space = hf.unit_cube_space(1, 4)
    D = pair_distances(space.points)
    f = rng.standard_normal(space.n_points)
    m = np.abs(f[:, None] - f[None, :]) / np.where(D > 0, D, np.inf)
    got = hajlasz_norm(space, f, PINF)
    assert got.norm == pytest.approx(m[np.isfinite(m)].max() / 2.0,
                                     rel=1e-14)
    assert got.gap == 0.0 and got.converged


def test_returned_gradient_is_feasible():
    rng = np.random.default_rng(5)
    space = hf.unit_cube_space(1, 4)
    D = pair_distances(space.points)
    for params in (P1, P2):
        f = rng.standard_normal(space.n_points)
        got = hajlasz_norm(space, f, params)
        m = np.abs(f[:, None] - f[None, :]) / np.where(D > 0, D, np.inf)
        m[~np.isfinite(m)] = 0.0
        slack = got.g[:, None] + got.g[None, :] - m
        # the solver repairs its iterate, so feasibility is exact
        assert slack.min() >= -1e-12
        assert got.g.min() >= 0.0


def test_duality_gap_certifies_both_sides():
    rng = np.random.default_rng(7)
    space = hf.unit_cube_space(1, 4)
    f = rng.standard_normal(space.n_points)
    got = hajlasz_norm(space, f, P1)
    assert got.dual_value <= got.objective + 1e-12
    assert got.objective - got.dual_value == pytest.approx(got.gap,
                                                           abs=1e-15)


def test_zero_function_short_circuits():
    space = hf.unit_cube_space(1, 4)
    got = hajlasz_norm(space, np.zeros(space.n_points), P1)
    assert got.norm == 0.0 and got.converged and got.iterations == 0


def test_homogeneity():
    rng = np.random.default_rng(11)
    space = hf.unit_cube_space(1, 4)
    f = rng.standard_normal(space.n_points)
    a = hajlasz_norm(space, 4.0 * f, P2).norm
    b = hajlasz_norm(space, f, P2).norm
    assert a == pytest.approx(4.0 * b, rel=1e-6)


def test_solver_input_validation():
    space = hf.unit_cube_space(1, 4)
    with pytest.raises(hf.ConfigError):
        hajlasz_norm(space, np.zeros(space.n_points),
                     SmoothnessParams(0.5, 2.0, kind="besov"))
    with pytest.raises(hf.ConfigError):
        hajlasz_norm(space, np.zeros(5), P1)
    with pytest.raises(hf.GateError):
        SmoothnessParams(1.0, 0.5, kind="hajlasz")


def test_pairwise_budget_gate():
    big = hf.unit_cube_space(2, 7)
    with pytest.raises(hf.ConfigError):
        hajlasz_norm(big, np.zeros(big.n_points), P1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
def test_non_finite_samples_are_rejected(bad, p):
    # a NaN sample once dropped out of every pair and left a converged norm
    space = hf.unit_cube_space(1, 4)
    f = np.linspace(0.0, 1.0, space.n_points)
    f[3] = bad
    with pytest.raises(hf.ConfigError,
                       match="^function samples must be finite$"):
        hajlasz_norm(space, f, SmoothnessParams(0.5, p, kind="hajlasz"))


def test_samples_beyond_float_range_are_rejected():
    space = hf.unit_cube_space(1, 4)
    f = np.zeros(space.n_points)
    f[-1] = 1e308   # quotients over distances 1/16 overflow to inf
    with pytest.raises(hf.ConfigError):
        hajlasz_norm(space, f, P1)
    f[-1] = 3.6e101   # finite quotients, but sum w g^4 overflows
    with pytest.raises(hf.NumericalError):
        hajlasz_norm(space, f, SmoothnessParams(1.0, 4.0, kind="hajlasz"))
