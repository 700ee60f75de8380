"""End-to-end acceptance checks.

Each test covers one advertised guarantee, prints a single PASS/FAIL
line with the measured value against its pinned tolerance, and fails
loudly if the measurement drifts.  Expected values were frozen from the
current implementation; tolerances are the acceptance gates themselves.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hyperfill as hf
from hyperfill.calculus import (build_partition, discrete_derivative,
                                level_blend, partition_lipschitz_quotient,
                                telescoping_integral)
from hyperfill.norms import (NormVariant, SmoothnessParams, admissibility,
                             besov_seq_norm, lp_norm)
from hyperfill.hajlasz import hajlasz_norm
from hyperfill.space import _dyadic_radii
from hyperfill.trace import codim_mass_band, extend_besov, extend_sobolev, \
    trace_besov
from hyperfill.verify import (audit_approx_density, audit_nonhom_split,
                              audit_porosity_qindependence,
                              audit_small_p_embedding, random_tent_functions)

from conftest import ACCEPTANCE_LINES
from oracles import lp_hajlasz_norm, pair_distances

LOG23 = np.log(2.0) / np.log(3.0)
BESOV = SmoothnessParams(0.5, 2.0, 2.0, "besov")


def record(num, ok, detail):
    line = "criterion %02d %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module")
def deep10(interval10):
    return {6: hf.build_filling(interval10, 0, 6),
            8: hf.build_filling(interval10, 0, 8)}


def _worst_telescoping(filling, trials=100, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(filling.n_vertices)
        dv = discrete_derivative(filling, v)
        sup = np.abs(v).max()
        for n in range(filling.level_lo, filling.level_hi):
            lhs = telescoping_integral(filling, dv, level_window=(n, n))
            rhs = level_blend(filling, v, n + 1) - level_blend(filling, v, n)
            worst = max(worst, np.abs(lhs - rhs).max() / sup)
    return worst


def test_criterion_01_telescoping_identity(plain6, pair8):
    tol = 1e-12
    worst = {
        "interval": _worst_telescoping(plain6),
        "ambient": _worst_telescoping(pair8.ambient),
        "trace": _worst_telescoping(pair8.trace),
    }
    ok = max(worst.values()) <= tol
    assert record(
        1, ok,
        "telescoping: worst rel err %.3g (interval) %.3g (pair ambient) "
        "%.3g (pair trace), gate %.0e, 100 trials each"
        % (worst["interval"], worst["ambient"], worst["trace"], tol))
    assert worst["interval"] == pytest.approx(3.7788e-16, rel=0.5)


def test_criterion_02_partition_of_unity(plain6, pair8):
    tol = 1e-12
    frozen_K = {"interval": 1.9095571095571131,
                "ambient": 1.0666666666666667,
                "trace": 0.2857142857142857}
    fillings = {"interval": plain6, "ambient": pair8.ambient,
                "trace": pair8.trace}
    sum_worst, ok = 0.0, True
    for name, fil in fillings.items():
        for n in fil.levels:
            col = np.asarray(build_partition(fil, n).psi.sum(axis=0)).ravel()
            sum_worst = max(sum_worst, np.abs(col - 1.0).max())
        K = max(partition_lipschitz_quotient(fil, n) / 2.0**n
                for n in fil.levels)
        ok &= abs(K - frozen_K[name]) <= 1e-9 * frozen_K[name]
    ok &= sum_worst <= tol
    assert record(
        2, ok,
        "partition of unity: worst sum defect %.3g (gate %.0e); single "
        "Lipschitz K per filling = %.4f / %.4f / %.4f x 2^level"
        % (sum_worst, tol, frozen_K["interval"], frozen_K["ambient"],
           frozen_K["trace"]))


def test_criterion_03_norm_variant_band(deep10):
    widths = {}
    for n_max, fil in deep10.items():
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(100):
            u = rng.standard_normal(fil.n_edges)
            ratios.append(
                besov_seq_norm(fil, u, BESOV, variant=NormVariant("mass"))
                / besov_seq_norm(fil, u, BESOV))
        widths[n_max] = max(ratios) / min(ratios)
    growth = widths[8] / widths[6]
    ok = growth < 2.0
    assert record(
        3, ok,
        "indicator/mass band width %.5f (n_max=6) -> %.5f (n_max=8), "
        "growth %.4f < 2" % (widths[6], widths[8], growth))
    assert widths[6] == pytest.approx(1.0383734181624091, rel=1e-6)
    assert widths[8] == pytest.approx(1.0205774215855759, rel=1e-6)


def test_criterion_04_porosity_q_independence(pair6, pair8):
    reports = {6: audit_porosity_qindependence(pair6, trials=50, seed=0),
               8: audit_porosity_qindependence(pair8, trials=50, seed=0)}
    agg, poro = {}, {}
    for n_max, rep in reports.items():
        rows = {r["cell"]: r for r in rep.rows}
        poro[n_max] = rows["porosity"]["constant"]
        agg[n_max] = rows["aggregate"]
    # porous subset with the advertised constant
    ok = all(c >= 1.0 / 8.0 for c in poro.values())
    # the EF-supported band endpoints move by < factor 2 across resolutions
    lo_growth = agg[8]["ef_spread_lo"] / agg[6]["ef_spread_lo"]
    hi_growth = agg[8]["ef_spread_hi"] / agg[6]["ef_spread_hi"]
    ok &= max(lo_growth, 1.0 / lo_growth) < 2.0
    ok &= max(hi_growth, 1.0 / hi_growth) < 2.0
    # negative control: full-support sequences feel q, with a spread more
    # than twice the EF spread at each resolution and growing against it
    control = {n: agg[n]["full_spread_hi"] / agg[n]["ef_spread_hi"]
               for n in (6, 8)}
    ok &= all(c > 2.0 for c in control.values())
    ok &= control[8] > control[6]
    assert record(
        4, ok,
        "porosity %.3f >= 1/8; EF band endpoint growth %.3f/%.3f < 2; "
        "full-support control spread %.2fx / %.2fx the EF spread (>2, "
        "widening)" % (poro[8], lo_growth, hi_growth, control[6],
                       control[8]))
    assert agg[8]["ef_spread_hi"] == pytest.approx(99.4899, rel=1e-4)


def test_criterion_05_trace_extension_roundtrip(pair6, pair8):
    fs = random_tent_functions(pair8.trace_space, 20,
                               np.random.default_rng(7))
    sups, tr_med, ex_med = {}, {}, {}
    for n_max, nested in ((6, pair6), (8, pair8)):
        sup_worst, tr_r, ex_r = 0.0, [], []
        for f in fs:
            ext = extend_besov(nested, f, BESOV)
            back = trace_besov(nested, ext.samples, BESOV)
            sup_worst = max(sup_worst, np.abs(back.samples - f).max())
            ex_r.append(ext.operator_ratio)
            tr_r.append(back.operator_ratio)
        sups[n_max] = sup_worst
        tr_med[n_max] = float(np.median(tr_r))
        ex_med[n_max] = float(np.median(ex_r))
    decay = sups[8] / sups[6]
    tr_drift = max(tr_med.values()) / min(tr_med.values())
    ex_drift = max(ex_med.values()) / min(ex_med.values())
    adm = admissibility(2.0, 1.0, SmoothnessParams(0.5, 4.0), "besov")
    rej = admissibility(2.0, 1.0, SmoothnessParams(0.5, 2.0), "besov")
    arith_ok = (adm.admissible and adm.trace_smoothness == 0.25
                and not rej.admissible)
    ok = decay <= 0.5 and tr_drift < 2.0 and ex_drift < 2.0 and arith_ok
    assert record(
        5, ok,
        "roundtrip sup %.4f -> %.4f (x%.3f <= 0.5); ratio drift trace "
        "%.4f extend %.4f < 2; window arithmetic (Q=2,lam=1,s=0.5): p=4 "
        "admissible at sigma 0.25, p=2 rejected"
        % (sups[6], sups[8], decay, tr_drift, ex_drift))
    assert sups[8] == pytest.approx(0.34110928555500342, rel=1e-9)


def test_criterion_06_sobolev_certificate(interval10, pair8):
    f = random_tent_functions(pair8.trace_space, 1,
                              np.random.default_rng(7))[0]
    res = extend_sobolev(pair8, f, 2.0)
    cert = res.certificate
    n = interval10.n_points
    D = pair_distances(interval10.points)
    gap = np.abs(res.samples[:, None] - res.samples[None, :]) \
        - D * (cert.g[:, None] + cert.g[None, :])
    feasible = gap.max() <= 1e-10 * max(1.0, np.abs(res.samples).max())
    idx = np.sort(np.random.default_rng(0).choice(n, 64, replace=False))
    lp_opt, _ = lp_hajlasz_norm(pair_distances(interval10.points[idx]),
                                interval10.weights[idx], res.samples[idx])
    g_l1 = lp_norm(interval10, cert.g, 1.0)
    dominated = lp_opt <= g_l1 * (1.0 + 1e-6)
    ok = feasible and dominated and cert.pairs_checked == n * (n - 1) // 2
    assert record(
        6, ok,
        "certificate K %.4f feasible on all %d pairs (max violation "
        "%.3g); 64-point LP oracle %.4f <= ||g||_1 %.4f"
        % (cert.K, cert.pairs_checked, gap.max(), lp_opt, g_l1))
    assert cert.K == pytest.approx(0.025934742371332541, rel=1e-9)


def test_criterion_07_solver_vs_lp_oracle():
    params = SmoothnessParams(1.0, 1.0, kind="hajlasz")
    worst = 0.0
    for k in range(10):
        rng = np.random.default_rng(100 + k)
        pts = rng.random((16, 1))
        D = pair_distances(pts)
        off = D[np.triu_indices(16, 1)]
        space = hf.FiniteMetricMeasureSpace(
            pts, np.full(16, 1.0 / 16.0), "sup",
            float(off.min()), 1.0, float(off.max()))
        f = rng.standard_normal(16)
        got = hajlasz_norm(space, f, params)
        opt, _ = lp_hajlasz_norm(D, space.weights, f)
        worst = max(worst, abs(got.norm - opt) / opt)
    ok = worst <= 1e-6
    assert record(
        7, ok,
        "HiGHS sparse LP route vs dense exhaustive LP on 10 random "
        "16-point instances: worst rel diff %.3g <= 1e-6" % worst)
    # Both sides solve the same LP exactly; only rounding separates them.
    assert worst <= 1e-9


def test_criterion_08_inhomogeneous_suite(deep10):
    widths, consts = {}, {}
    ok = True
    for n_max, fil in deep10.items():
        split = audit_nonhom_split(fil, trials=20, seed=0)
        ratios = [r["ratio"] for r in split.rows
                  if r["cell"].startswith("trial")]
        widths[n_max] = max(ratios) / min(ratios)
        ok &= split.passed and widths[n_max] <= 4.0
        embed = audit_small_p_embedding(fil, trials=20, seed=0)
        consts[n_max] = embed.rows[0]["max_constant"]
        ok &= embed.passed
    split_stab = widths[8] / widths[6]
    const_stab = consts[8] / consts[6]
    ok &= max(split_stab, 1.0 / split_stab) < 2.0
    ok &= max(const_stab, 1.0 / const_stab) < 2.0
    density = audit_approx_density(deep10[8], trials=20, seed=0)
    final = next(r for r in density.rows
                 if r["cell"] == "aggregate")["final_ratio"]
    ok &= density.passed and final <= 0.2
    assert record(
        8, ok,
        "split band width %.4f/%.4f <= 4 (stability %.4f); p=0.8 "
        "level-0 constant stability %.4f; approximation tail %.4f <= 0.2"
        % (widths[6], widths[8], split_stab, const_stab, final))
    assert final == pytest.approx(0.041614464409453156, rel=1e-9)


def test_criterion_09_geometry_audits(interval10, cantor6, pair8):
    square = hf.unit_cube_space(2, 6)
    fit_cube = hf.ahlfors_fit(square, _dyadic_radii(square))
    att, _ = hf.ifs_attractor(hf.middle_thirds_system(8))
    fit_cantor = hf.ahlfors_fit(att, [0.5, 0.25, 0.125])
    cube_ok = abs(fit_cube.Q_hat - 2.0) <= 0.1
    cantor_ok = abs(fit_cantor.Q_hat - LOG23) <= 0.05
    gamma = 1.0 - LOG23
    lo, hi = hf.codim_regularity_check(interval10, cantor6, gamma,
                                       _dyadic_radii(interval10))
    codim_w = hi / lo
    blo, bhi = codim_mass_band(pair8, gamma)
    edge_w = bhi / blo
    ok = cube_ok and cantor_ok and codim_w <= 4.0 and edge_w <= 4.0
    assert record(
        9, ok,
        "Q_hat %.4f (square, +-0.1) %.4f (attractor, +-0.05 of %.4f); "
        "codimension band %.4f and edge-weight band %.4f <= 4"
        % (fit_cube.Q_hat, fit_cantor.Q_hat, LOG23, codim_w, edge_w))
    assert edge_w == pytest.approx(2.6928592667064075, rel=1e-9)


_PIPELINES = {
    "filling_build": (["filling", "build"],
                      {"space": {"kind": "cube", "dim": 1, "depth": 8},
                       "level_hi": 5}),
    "norm_eval": (["norm", "eval"],
                  {"space": {"kind": "cube", "dim": 1, "depth": 8},
                   "level_hi": 5, "seed": 5,
                   "params": {"s": 0.5, "p": 2.0, "q": 2.0,
                              "kind": "besov"},
                   "function": {"kind": "random_tents"}}),
    "trace_run": (["trace", "run"],
                  {"space": {"kind": "cube", "dim": 1, "depth": 10},
                   "subset": {"cantor_depth": 6}, "level_hi": 6, "seed": 7,
                   "params": {"s": 0.5, "p": 2.0, "q": 2.0,
                              "kind": "besov"},
                   "theorem": "besov", "direction": "roundtrip",
                   "function": {"kind": "random_tents"}}),
    "verify": (["verify", "audit_norm_variants"],
               {"space": {"kind": "cube", "dim": 1, "depth": 8},
                "level_hi": 5, "seed": 3, "trials": 10}),
}


def test_criterion_10_byte_identical_reruns(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "HYPERFILL_SEED"}
    identical = {}
    for name, (argv, cfg) in _PIPELINES.items():
        cfg_path = tmp_path / (name + ".json")
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / ("%s_%s.json" % (name, attempt))
            cmd = [sys.executable, "-m", "hyperfill", *argv,
                   "--config", str(cfg_path), "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=env)
            assert proc.returncode == 0, (name, proc.stderr)
            outs.append(out.read_bytes())
        identical[name] = outs[0] == outs[1]
    ok = all(identical.values())
    assert record(
        10, ok,
        "byte-identical reruns: %s"
        % ", ".join("%s=%s" % (k, "yes" if v else "NO")
                    for k, v in identical.items()))
