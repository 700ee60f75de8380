import numpy as np
import pytest

import hyperfill as hf
from hyperfill import verify
from hyperfill._jsonio import canonical_dumps
from hyperfill.verify import (ExperimentReport, audit_approx_density, audit_nonhom_split,
                              audit_norm_variants,
                              audit_porosity_qindependence,
                              audit_small_p_embedding, audit_theorem_suite,
                              random_noise_functions, random_tent_functions)

from oracles import edge_ball_matrix, edge_superposition


@pytest.fixture(scope="module")
def variants_report(plain6):
    return audit_norm_variants(plain6, trials=10, seed=3)


def test_report_anatomy(variants_report):
    r = variants_report
    assert r.experiment_id == "norm_variants"
    assert r.passed is all(r.verdicts.values()) is True
    d = r.to_dict()
    assert sorted(d) == ["backend", "config", "experiment_id", "passed",
                         "rng_seed", "rows", "thresholds", "verdicts",
                         "version"]
    assert d["rng_seed"] == 3
    assert d["backend"] == hf.BACKEND
    assert d["version"] == hf.__version__


def test_report_csv_schema(variants_report):
    lines = variants_report.csv_text().splitlines()
    assert lines[0] == "experiment_id,cell,metric,value"
    body = [ln.split(",") for ln in lines[1:]]
    assert all(len(parts) == 4 for parts in body)
    assert all(parts[0] == "norm_variants" for parts in body)
    # floats carry full precision
    row0 = {p[2]: p[3] for p in body if p[1] == "trial_000"}
    assert row0["indicator"] == "393.18559930418741"
    # metrics within a cell come out sorted, so reruns diff cleanly
    metrics = [p[2] for p in body if p[1] == "trial_000"]
    assert metrics == sorted(metrics)


def test_report_writes_negative_zero_as_zero():
    report = ExperimentReport("zeros", {}, {}, [{"cell": "c0", "x": -0.0}],
                              {"ok": True}, rng_seed=0)
    assert report.csv_text().splitlines()[1] == "zeros,c0,x,0"
    assert '"x": 0\n' in canonical_dumps(report.to_dict())


def test_report_determinism(plain6, variants_report):
    again = audit_norm_variants(plain6, trials=10, seed=3)
    assert again.to_dict() == variants_report.to_dict()
    assert again.csv_text() == variants_report.csv_text()
    other_seed = audit_norm_variants(plain6, trials=10, seed=4)
    assert other_seed.to_dict() != variants_report.to_dict()


def test_norm_variants_bands(variants_report):
    assert variants_report.verdicts == {"mass_band_bounded": True,
                                        "substitute_band_bounded": True}
    row0 = variants_report.rows[0]
    assert row0["mass"] == pytest.approx(68.34082321519182, rel=1e-12)
    assert row0["substitute"] == pytest.approx(155.74185746950155,
                                               rel=1e-12)
    for row in variants_report.rows:
        if row["cell"].startswith("trial"):
            assert 0.0 < row["mass_over_indicator"] < 1.0
            assert 0.0 < row["substitute_over_indicator"] <= 1.0


def test_nonhom_split_audit(plain6):
    r = audit_nonhom_split(plain6, trials=5, seed=3)
    assert r.verdicts == {"band_bounded": True}
    for row in r.rows:
        if row["cell"].startswith("trial"):
            # triangle inequality one way, comparability the other
            assert row["nonhom"] <= row["lp_plus_seq"] * (1.0 + 1e-12)
            assert row["ratio"] == pytest.approx(
                row["nonhom"] / row["lp_plus_seq"], rel=1e-12)
            assert row["ratio"] > 1.0 / r.thresholds["band_threshold"]


def test_small_p_embedding_audit(plain6):
    r = audit_small_p_embedding(plain6, trials=5, seed=3)
    assert r.verdicts == {"some_dilation_works": True}
    assert r.rows[0]["cell"] == "sigma_1"
    assert r.rows[0]["max_constant"] == pytest.approx(
        0.024750788300429035, rel=1e-9)


@pytest.mark.parametrize("name", ["plain6", "pair8.ambient"])
def test_small_p_embedding_matches_row_gather(request, monkeypatch, name):
    fixture, _, side = name.partition(".")
    filling = request.getfixturevalue(fixture)
    filling = getattr(filling, side) if side else filling
    kw = dict(p=0.5, sigma_grid=(0.5, 1.0, 2.0), trials=3, seed=3, level=2)
    got = audit_small_p_embedding(filling, **kw).to_dict()
    # the same audit with each level's superposition taken from the E×n
    # product of that level's edges
    memb = edge_ball_matrix(filling)
    monkeypatch.setattr(filling, "_superpose", lambda w: np.array(
        [edge_superposition(memb, *filling.edge_range(k), w)
         for k in filling.levels]))
    want = audit_small_p_embedding(filling, **kw).to_dict()
    assert got.keys() == want.keys()
    assert {k: got[k] for k in got if k != "rows"} == \
        {k: want[k] for k in want if k != "rows"}
    for a, b in zip(got["rows"], want["rows"], strict=True):
        assert a == pytest.approx(b, rel=1e-12)


def test_approx_density_audit(interval10):
    filling = hf.build_filling(interval10, 0, 8)
    r = audit_approx_density(filling)
    assert r.passed
    medians = [row["median_ratio"] for row in r.rows
               if row["cell"].startswith("level")]
    assert medians[0] == 1.0
    assert all(a >= b for a, b in zip(medians, medians[1:]))
    agg = next(row for row in r.rows if row["cell"] == "aggregate")
    assert agg["final_ratio"] == pytest.approx(0.041614464409453156,
                                               rel=1e-9)


def test_approx_density_needs_depth(plain6):
    # six levels leave the tail too fat for the default 20% cut, and the
    # report says so instead of hiding it
    r = audit_approx_density(plain6, trials=5, seed=3)
    assert r.verdicts["final_below_fraction"] is False
    assert not r.passed


def test_porosity_qindependence(pair6):
    r = audit_porosity_qindependence(pair6, trials=10, seed=3)
    assert r.verdicts == {"subset_is_porous": True}
    by_cell = {row["cell"]: row for row in r.rows}
    assert by_cell["porosity"]["constant"] == pytest.approx(0.125)
    agg = by_cell["aggregate"]
    assert agg["ef_spread_lo"] <= agg["ef_spread_hi"]
    assert agg["full_spread_lo"] <= agg["full_spread_hi"]
    with pytest.raises(hf.ConfigError):
        audit_porosity_qindependence(pair6, q_list=[], trials=1)


def test_theorem_suite_rows_and_skips(interval10, cantor6):
    rep = audit_theorem_suite(
        hf.space_to_descriptor(interval10),
        hf.mask_to_descriptor(cantor6),
        "besov",
        [{"s": 0.5, "p": 2.0, "q": 2.0}, {"s": 0.5, "p": 0.8, "q": 2.0}],
        [6, 8],
        trials=3, seed=0)
    assert rep.verdicts == {"roundtrip_stable": True, "ratios_stable": True}
    by_cell = {row["cell"]: row for row in rep.rows}
    ok6 = by_cell["s0.5_p2_q2_n6"]
    ok8 = by_cell["s0.5_p2_q2_n8"]
    assert ok6["status"] == ok8["status"] == "ok"
    assert ok8["roundtrip_sup"] < ok6["roundtrip_sup"]
    # inadmissible exponents turn into recorded skips, not crashes
    skipped = by_cell["s0.5_p0.8_q2_n6"]
    assert skipped["status"] == "skipped"
    assert "p=0.8" in skipped["reason"]
    assert by_cell["aggregate"] == {"cell": "aggregate", "cells_ok": 2,
                                    "cells_total": 4}


def test_theorem_suite_roots_at_the_diameter():
    # a Euclidean square has diameter above 1, so its root level is -1;
    # unit cubes in the sup metric keep level 0
    space = hf.unit_cube_space(2, 6, metric="euclidean")
    rows = np.flatnonzero(space.points[:, 1] == space.points[:, 1].min())
    rep = audit_theorem_suite(
        hf.space_to_descriptor(space),
        {"indices": rows.tolist(), "lambda": 1.0}, "besov",
        [{"s": 0.9, "p": 4.0, "q": 4.0}], [3, 4], trials=3, seed=0)
    cells = [row for row in rep.rows if row["cell"] != "aggregate"]
    assert [row["status"] for row in cells] == ["ok", "ok"]
    assert all(0.0 < row["ext_ratio_med"] < np.inf for row in cells)


def test_function_batches_are_reproducible(interval10):
    a = random_tent_functions(interval10, 3, np.random.default_rng(9))
    b = random_tent_functions(interval10, 3, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert a.shape == (3, interval10.n_points)
    n = random_noise_functions(interval10, 2, np.random.default_rng(9))
    assert n.shape == (2, interval10.n_points)


def test_tent_count_is_capped(interval10):
    rng = np.random.default_rng(0)
    assert not random_tent_functions(interval10, 1, rng, n_tents=0).any()
    full = random_tent_functions(interval10, 1, rng, n_tents=verify.MAX_TENTS)
    assert full.shape == (1, interval10.n_points)
    for bad in (-1, verify.MAX_TENTS + 1):
        with pytest.raises(hf.ConfigError, match="n_tents"):
            random_tent_functions(interval10, 1, rng, n_tents=bad)
