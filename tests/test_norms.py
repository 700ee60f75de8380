import tracemalloc
import warnings

import numpy as np
import pytest

import hyperfill as hf
from hyperfill import norms
from hyperfill.norms import (NormVariant, SmoothnessParams, admissibility,
                             besov_fn_norm, besov_seq_norm,
                             half_ball_substitute, lp_norm, nonhom_norm,
                             trace_smoothness_window, triebel_fn_norm,
                             triebel_seq_norm)

from oracles import (edge_ball_matrix, edge_superposition,
                     edge_superposition_max, half_ball_matrix)

BESOV = SmoothnessParams(0.5, 2.0, 2.0, "besov")
TRIEBEL = SmoothnessParams(0.5, 2.0, 2.0, "triebel")


def _edge_noise(filling, seed=3):
    return np.random.default_rng(seed).standard_normal(filling.n_edges)


def test_triebel_at_s1_qinf_builds_no_q():
    # F^1_{p,inf}, the filling's counterpart of M^{1,p}, takes each
    # level's maximum over the vertex balls: no Q and no edge-ball matrix
    fil = hf.build_filling(hf.unit_cube_space(1, 7), 0, 5)
    f = np.abs(fil.space.points[:, 0] - 0.37)
    for p in (1.0, 2.0, 4.0):
        value = triebel_fn_norm(fil, f, SmoothnessParams(1.0, p, np.inf,
                                                          "triebel"))
        assert np.isfinite(value) and value > 0.0
    assert fil._level_balls is None and fil._edge_membership is None


def test_lp_norm_closed_forms(interval8):
    f = np.sin(5.0 * interval8.points[:, 0])
    w = interval8.weights
    assert lp_norm(interval8, f, 2.0) == pytest.approx(
        np.sqrt(w @ f**2), rel=1e-14)
    assert lp_norm(interval8, f, np.inf) == np.abs(f).max()
    # p < 1 quasinorm: same formula, no convexity required
    assert lp_norm(interval8, f, 0.5) == pytest.approx(
        (w @ np.sqrt(np.abs(f))) ** 2.0, rel=1e-14)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_lp_norm_outside_the_range_of_v_to_the_p(interval8, scale):
    # f**2 would overflow at 1e200 and underflow to 0 at 1e-200
    f = 1.0 + np.sin(5.0 * interval8.points[:, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norm(interval8, scale * f, 2.0)
    assert got == pytest.approx(scale * lp_norm(interval8, f, 2.0),
                                rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kind, variant", [("besov", None),
                                           ("triebel", None),
                                           ("besov", "mass")])
def test_level_aggregation_outside_the_range_of_v_to_the_p(tiny_filling,
                                                          kind, variant):
    # one sample of 1e300: the level sum, the pointwise Triebel sum and the
    # mass sum would each overflow at p = q = 2
    f = np.zeros(tiny_filling.space.n_points)
    f[5] = 1.0
    params = SmoothnessParams(0.5, 2.0, 2.0, kind)
    fn = besov_fn_norm if kind == "besov" else triebel_fn_norm
    variant = NormVariant(kind=variant) if variant else None
    unit = fn(tiny_filling, f, params, variant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(tiny_filling, 1e300 * f, params, variant)
    assert got == pytest.approx(1e300 * unit, rel=1e-14, abs=0.0)


def test_lp_norm_validation(interval8):
    with pytest.raises(hf.ConfigError):
        lp_norm(interval8, np.zeros(3), 2.0)
    with pytest.raises(hf.ConfigError):
        lp_norm(interval8, np.zeros(interval8.n_points), 0.0)


def test_one_hot_edge_closed_form(plain6):
    # a single active edge makes every variant collapse to
    # 2^{|e|s} * mass(B(e))^{1/p}
    eid = plain6.edge_range(4)[0] + 7
    u = np.zeros(plain6.n_edges)
    u[eid] = 1.0
    want = 2.0 ** (4 * BESOV.s) * plain6.edge_ball_mass()[eid] ** 0.5
    assert besov_seq_norm(plain6, u, BESOV) == pytest.approx(want, rel=1e-13)
    assert besov_seq_norm(plain6, u, BESOV, variant=NormVariant("mass")) \
        == pytest.approx(want, rel=1e-13)
    assert triebel_seq_norm(plain6, u, TRIEBEL) == pytest.approx(
        want, rel=1e-13)


def test_frozen_sequence_norms(plain6):
    u = _edge_noise(plain6)
    assert besov_seq_norm(plain6, u, BESOV) == pytest.approx(
        393.1855993041874, rel=1e-12)
    assert besov_seq_norm(plain6, u, SmoothnessParams(0.5, 2.0)) \
        == pytest.approx(281.5382245723573, rel=1e-12)
    assert besov_seq_norm(plain6, u, BESOV, level_window=(2, 4)) \
        == pytest.approx(248.99564216110375, rel=1e-12)


@pytest.mark.parametrize("window, q, besov, triebel", [
    ((2, 4), 2.0, 248.99564216110375, 39.9122427617165),
    ((2, 4), np.inf, 196.53371795158338, 10.580474388609215),
    ((3, 3), 2.0, 126.6175117188096, 20.783281864600372),
    ((3, 3), np.inf, 126.6175117188096, 7.191836070028078),
])
def test_frozen_partial_window_norms(plain6, window, q, besov, triebel):
    # bit for bit: a partial window scores the whole filling's
    # superposition with the other edges weighted zero
    u = _edge_noise(plain6)
    assert besov_seq_norm(plain6, u, SmoothnessParams(0.5, 2.0, q),
                          level_window=window) == besov
    tparams = SmoothnessParams(0.5, 2.0, q, "triebel")
    assert triebel_seq_norm(plain6, u, tparams,
                            level_window=window) == triebel


def test_triebel_qp_is_besov_mass(plain6, pair8):
    # with q = p the pointwise aggregation integrates edge by edge, which
    # is exactly the per-level mass rearrangement
    for fil in (plain6, pair8.trace):
        u = _edge_noise(fil)
        b = besov_seq_norm(fil, u, BESOV, variant=NormVariant("mass"))
        t = triebel_seq_norm(fil, u, TRIEBEL)
        assert t == pytest.approx(b, rel=1e-13)


def test_level_aggregation_is_q_sum(plain6):
    u = np.abs(_edge_noise(plain6))
    per_level = [besov_seq_norm(plain6, u, BESOV, level_window=(k, k))
                 for k in plain6.levels]
    q = BESOV.q
    whole = besov_seq_norm(plain6, u, BESOV)
    assert whole == pytest.approx(
        np.sum(np.asarray(per_level) ** q) ** (1.0 / q), rel=1e-13)
    qinf = SmoothnessParams(0.5, 2.0)
    per_inf = [besov_seq_norm(plain6, u, qinf, level_window=(k, k))
               for k in plain6.levels]
    assert besov_seq_norm(plain6, u, qinf) == pytest.approx(
        max(per_inf), rel=1e-13)


def test_seq_norm_homogeneity_and_zero(plain6):
    u = _edge_noise(plain6)
    assert besov_seq_norm(plain6, 3.0 * u, BESOV) == pytest.approx(
        3.0 * besov_seq_norm(plain6, u, BESOV), rel=1e-13)
    assert besov_seq_norm(plain6, np.zeros(plain6.n_edges), BESOV) == 0.0
    assert triebel_seq_norm(plain6, np.zeros(plain6.n_edges), TRIEBEL) == 0.0


def test_frozen_function_norms(plain6):
    f = np.sin(5.0 * plain6.space.points[:, 0])
    assert besov_fn_norm(plain6, f, BESOV) == pytest.approx(
        88.25693080933769, rel=1e-12)
    assert triebel_fn_norm(plain6, f, TRIEBEL) == pytest.approx(
        13.972671801197016, rel=1e-12)


def test_constant_function_has_zero_norm(plain6):
    f = np.full(plain6.space.n_points, 2.5)
    assert besov_fn_norm(plain6, f, BESOV) == 0.0
    assert triebel_fn_norm(plain6, f, TRIEBEL) == 0.0
    # on this square, unclipped ball means of 0.3 and 0.7 differ in the
    # last bits, and the norms come out near 1e-12
    square = hf.build_filling(hf.unit_cube_space(2, 5, "euclidean"), -1, 2)
    params = SmoothnessParams(0.9, 4.0, 4.0, "besov")
    for c in (0.3, 0.7):
        f = np.full(square.space.n_points, c)
        assert besov_fn_norm(square, f, params) == 0.0


def test_nonhom_norm_split(plain6):
    f = np.sin(5.0 * plain6.space.points[:, 0])
    params = SmoothnessParams(0.5, 2.0, 2.0, "nonhom_besov")
    lp_part, seq_part = nonhom_norm(plain6, f, params)
    assert lp_part == pytest.approx(0.14326984010927682, rel=1e-12)
    # the oscillation part coincides with the homogeneous norm here
    # because the fixture window already starts at level zero
    assert seq_part == pytest.approx(88.25693080933769, rel=1e-12)
    with pytest.raises(hf.ConfigError):
        nonhom_norm(plain6, f, BESOV)


def test_nonhom_constant_keeps_only_lp_part(plain6):
    f = np.full(plain6.space.n_points, 2.5)
    params = SmoothnessParams(0.5, 2.0, 2.0, "nonhom_besov")
    lp_part, seq_part = nonhom_norm(plain6, f, params)
    assert lp_part == pytest.approx(2.5, rel=1e-12)
    assert seq_part == 0.0


def test_half_ball_substitute_shrinks_norms(plain6):
    hb = half_ball_substitute(plain6)
    assert hb == NormVariant("half_ball")
    u = np.abs(_edge_noise(plain6))
    assert besov_seq_norm(plain6, u, BESOV, variant=hb) \
        <= besov_seq_norm(plain6, u, BESOV)
    assert triebel_seq_norm(plain6, u, TRIEBEL, variant=hb) \
        <= triebel_seq_norm(plain6, u, TRIEBEL)


def test_variant_validation(plain6):
    with pytest.raises(hf.ConfigError):
        NormVariant("weird")
    with pytest.raises(hf.ConfigError):
        NormVariant("substitute")
    u = np.zeros(plain6.n_edges)
    with pytest.raises(hf.ConfigError):
        triebel_seq_norm(plain6, u, TRIEBEL, variant=NormVariant("mass"))
    with pytest.raises(hf.ConfigError):
        triebel_seq_norm(
            plain6, u, SmoothnessParams(0.5, np.inf, 2.0, "triebel"))


def test_smoothness_params_validation():
    with pytest.raises(hf.ConfigError):
        SmoothnessParams(-1.0, 2.0)
    with pytest.raises(hf.ConfigError):
        SmoothnessParams(0.5, 2.0, kind="weird")
    with pytest.raises(hf.GateError):
        SmoothnessParams(1.0, 0.5, kind="hajlasz")


def test_seq_norm_length_check(plain6):
    with pytest.raises(hf.ConfigError):
        besov_seq_norm(plain6, np.zeros(5), BESOV)


def test_admissibility_arithmetic():
    ok = admissibility(2.0, 1.0, SmoothnessParams(0.5, 4.0), "besov")
    assert ok.admissible
    assert ok.trace_smoothness == pytest.approx(0.25)
    assert ok.p_window == (2.0, np.inf)
    assert not ok.requires_porosity

    rejected = admissibility(2.0, 1.0, SmoothnessParams(0.5, 2.0), "besov")
    assert not rejected.admissible
    assert any("p=2" in r for r in rejected.reasons)

    assert trace_smoothness_window(2.0, 1.0, 4.0) == \
        pytest.approx((0.0, 0.75))


def test_admissibility_triebel_and_sobolev():
    tri = admissibility(2.0, 1.0,
                        SmoothnessParams(0.5, 4.0, 3.0, "triebel"), "triebel")
    assert tri.admissible and tri.requires_porosity
    assert tri.q_window[0] == pytest.approx(0.8)

    lowq = admissibility(2.0, 1.0,
                         SmoothnessParams(0.5, 4.0, 0.5, "triebel"),
                         "triebel")
    assert not lowq.admissible
    assert any("q=0.5" in r for r in lowq.reasons)

    sob = admissibility(2.0, 1.0, SmoothnessParams(1.0, 4.0), "sobolev")
    assert sob.admissible and sob.requires_porosity
    assert sob.trace_smoothness == pytest.approx(0.75)


def test_admissibility_validation():
    with pytest.raises(hf.ConfigError):
        admissibility(2.0, 1.0, BESOV, "weird")
    with pytest.raises(hf.ConfigError):
        admissibility(2.0, 3.0, BESOV, "besov")


def test_triebel_fn_norm_gates_small_p(plain6):
    # Q = 1 here, so p must stay above 1/(1+s) = 2/3
    with pytest.raises(hf.GateError):
        triebel_fn_norm(plain6, np.zeros(plain6.space.n_points),
                        SmoothnessParams(0.5, 0.5, 2.0, "triebel"))


def test_half_ball_sets_match_per_edge_scan(any_filling):
    fil = any_filling
    space, n = fil.space, fil.space.n_points
    # column v lists v's half ball in the block of v's level
    halves = fil._half_ball_levels()
    for eid in range(fil.n_edges):
        vid = fil.tails[eid]
        d = space.dist_from(space.points[fil.centers[vid]])
        block = (fil.edge_levels[eid] - fil.level_lo) * n
        got = halves.indices[halves.indptr[vid]:halves.indptr[vid + 1]]
        assert np.array_equal(got - block,
                              np.flatnonzero(d < 0.5 * fil.radii[vid]))
        assert got.size and np.all(np.isin(got - block,
                                           fil.ball_members(vid)))


def _oracle_matrix(fil, variant):
    """The per-edge set matrix of a variant, one row per edge."""
    if variant.kind == "indicator":
        return edge_ball_matrix(fil)
    return half_ball_matrix(fil)


def _oracle_triebel(fil, u, params, variant, window):
    """The Triebel norm from the E×n product of the window's edges."""
    lo = fil.edge_range(window[0])[0]
    hi = fil.edge_range(window[1])[1]
    weights = np.zeros(fil.n_edges)
    weights[lo:hi] = (2.0 ** (fil.edge_levels[lo:hi] * params.s)
                      * np.abs(u[lo:hi]))
    memb = _oracle_matrix(fil, variant)
    if np.isinf(params.q):
        stack = edge_superposition_max(memb, lo, hi, weights)
    else:
        stack = edge_superposition(
            memb, lo, hi, weights ** params.q) ** (1.0 / params.q)
    return lp_norm(fil.space, stack, params.p)


def _windows(fil):
    return [(fil.level_lo, fil.level_hi),
            (fil.level_lo + 1, fil.level_hi - 1)]


@pytest.mark.parametrize("q", [0.7, 2.0, np.inf])
def test_triebel_partial_window_matches_row_gather(any_filling, q):
    fil = any_filling
    u = _edge_noise(fil)
    params = SmoothnessParams(0.5, 1.5, q, "triebel")
    for variant in (NormVariant(), half_ball_substitute(fil)):
        for window in _windows(fil):
            got = triebel_seq_norm(fil, u, params, variant, window)
            want = _oracle_triebel(fil, u, params, variant, window)
            if np.isinf(q):
                # a maximum over the balls is exact
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def _oracle_besov(fil, u, params, variant, window):
    """The Besov norm with each level's superposition taken from the
    E×n product of that level's edges: the reference."""
    u = np.abs(u)
    memb = None if variant.kind == "mass" else _oracle_matrix(fil, variant)
    terms = []
    for k in range(window[0], window[1] + 1):
        eids = np.flatnonzero(fil.edge_levels == k)
        if eids.size == 0:
            continue
        if variant.kind == "mass":
            masses = fil.edge_ball_mass()[eids]
            if np.isinf(params.p):
                a = float(u[eids].max())
            else:
                a = float((masses @ u[eids] ** params.p) ** (1.0 / params.p))
        else:
            g = edge_superposition(memb, eids[0], eids[-1] + 1, u)
            a = lp_norm(fil.space, g, params.p)
        terms.append(2.0 ** (k * params.s) * a)
    terms = np.asarray(terms)
    if np.isinf(params.q):
        return float(terms.max())
    return float((terms ** params.q).sum() ** (1.0 / params.q))


@pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
def test_besov_levels_match_row_gather(any_filling, q):
    fil = any_filling
    u = _edge_noise(fil)
    for p in (1.5, np.inf):
        params = SmoothnessParams(0.5, p, q, "besov")
        for variant in (NormVariant(), half_ball_substitute(fil),
                        NormVariant("mass")):
            for window in _windows(fil):
                assert besov_seq_norm(fil, u, params, variant, window) \
                    == pytest.approx(_oracle_besov(fil, u, params, variant,
                                                   window),
                                     rel=1e-13, abs=0.0)


def _sparse_weights(fil, seed=5):
    """Nonnegative edge weights, zero on about half the edges."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 3.0, size=fil.n_edges)
    w[rng.random(fil.n_edges) < 0.5] = 0.0
    return w


def _window_weights(fil, w, window):
    """``w`` with every edge outside the level window set to zero."""
    lo, hi = fil.edge_range(window[0])[0], fil.edge_range(window[1])[1]
    masked = np.zeros_like(w)
    masked[lo:hi] = w[lo:hi]
    return masked


def _check_outside_rows(fil, got, window):
    """Rows of the levels outside the window are exactly zero."""
    assert got.shape == (len(fil.levels), fil.space.n_points)
    for row, k in zip(got, fil.levels):
        if not window[0] <= k <= window[1]:
            assert np.all(row == 0.0)


def test_superposition_matches_edge_ball_product(any_filling):
    fil = any_filling
    w = _sparse_weights(fil)
    memb = edge_ball_matrix(fil)
    for window in [*_windows(fil), *((k, k) for k in fil.levels)]:
        levels = range(window[0], window[1] + 1)
        got = fil._superpose(_window_weights(fil, w, window))
        _check_outside_rows(fil, got, window)
        for k in levels:
            row = got[k - fil.level_lo]
            want = edge_superposition(memb, *fil.edge_range(k), w)
            np.testing.assert_allclose(row, want, rtol=1e-13, atol=0.0)
            # points outside every weighted edge ball are exactly zero,
            # which extend_sobolev's dead-pair rule relies on
            assert np.all(row[want == 0.0] == 0.0)
            assert np.all(row >= 0.0)


def test_half_ball_superposition_matches_tail_half_balls(any_filling):
    fil = any_filling
    variant = half_ball_substitute(fil)
    memb = half_ball_matrix(fil)
    w = _sparse_weights(fil)
    for window in _windows(fil):
        levels = range(window[0], window[1] + 1)
        masked = _window_weights(fil, w, window)
        got = norms._superpose(fil, variant, masked)
        _check_outside_rows(fil, got, window)
        for k in levels:
            row = got[k - fil.level_lo]
            want = edge_superposition(memb, *fil.edge_range(k), w)
            np.testing.assert_allclose(row, want, rtol=1e-13, atol=0.0)
            assert np.all(row[want == 0.0] == 0.0)
        lo, hi = fil.edge_range(window[0])[0], fil.edge_range(window[1])[1]
        assert np.array_equal(norms._superpose_max(fil, variant, masked),
                              edge_superposition_max(memb, lo, hi, w))


def test_besov_seq_norm_does_not_copy_membership():
    fil = hf.build_filling(hf.unit_cube_space(2, 5), 0, 3)
    u = _edge_noise(fil)
    memb = fil.edge_membership()
    besov_seq_norm(fil, u, BESOV)      # builds and caches the matrix
    tracemalloc.start()
    try:
        besov_seq_norm(fil, u, BESOV)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * (memb.data.nbytes + memb.indices.nbytes)


@pytest.mark.parametrize("fn, kind", [(besov_fn_norm, "besov"),
                                      (triebel_fn_norm, "triebel")])
def test_norm_that_leaves_the_float_range_raises(fn, kind):
    # (sum_k a_k^q)^(1/q) over four levels: at q = 1e-3 the root of a sum
    # above one is far past the float range, even after scaling by max a_k
    space = hf.unit_cube_space(1, 6)
    fil = hf.build_filling(space, 0, 3)
    f = np.sin(3.0 * space.points[:, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hf.NumericalError, match="float range"):
            fn(fil, f, SmoothnessParams(0.5, 2.0, 1e-3, kind))
