import dataclasses

import numpy as np
import pytest
from scipy import sparse

import hyperfill as hf
from hyperfill import filling as filling_mod
from hyperfill.calculus import (_cross_blend_matrix, build_partition,
                                discrete_derivative, edge_blend, level_blend,
                                partition_lipschitz_quotient,
                                poisson_extension, telescoping_integral)

from conftest import tent_batch
from oracles import (dense_partition, row_gather_cross_product,
                     tent_partition)


def test_poisson_extension_is_ball_average(plain6):
    space = plain6.space
    f = np.sin(7.0 * space.points[:, 0])
    v = poisson_extension(plain6, f)
    for vid in (0, 9, 100):
        members = plain6.ball_members(vid)
        w = space.weights[members]
        assert v[vid] == pytest.approx((w @ f[members]) / w.sum(), rel=1e-12)


def test_poisson_extension_root_of_indicator(plain6):
    space = plain6.space
    f = (space.points[:, 0] < 0.5).astype(np.float64)
    root = plain6.vertices_at_level(0)
    # a radius-one ball in the sup metric contains every point
    full = [vid for vid in root if plain6.ball_members(vid).size == space.n_points]
    assert full
    v = poisson_extension(plain6, f)
    for vid in full:
        assert v[vid] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_poisson_extension_rejects_non_finite_samples(plain6, bad):
    f = np.zeros(plain6.space.n_points)
    f[3] = bad
    with pytest.raises(hf.ConfigError,
                       match="^function samples must be finite$"):
        poisson_extension(plain6, f)


def test_discrete_derivative_orientation(plain6):
    v = np.arange(plain6.n_vertices, dtype=np.float64)
    dv = discrete_derivative(plain6, v)
    assert np.array_equal(dv, v[plain6.heads] - v[plain6.tails])


def test_partition_sums_to_one(plain6, pair8):
    for fil in (plain6, pair8.ambient, pair8.trace):
        for n in fil.levels:
            part = build_partition(fil, n)
            colsum = np.asarray(part.psi.sum(axis=0)).ravel()
            assert np.abs(colsum - 1.0).max() <= 1e-12


def test_partition_matches_dense_reference(plain6):
    for n in (0, 3, 6):
        part = build_partition(plain6, n)
        ref = dense_partition(plain6, n)
        assert sparse.issparse(part.psi)
        assert np.allclose(part.psi.toarray(), ref, atol=1e-14)


def _assert_partitions_equal_per_vertex_build(fil):
    for n in fil.levels:
        got = build_partition(fil, n).psi
        want = tent_partition(fil, n)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (n, name)


def test_partition_equals_per_vertex_build(any_filling):
    _assert_partitions_equal_per_vertex_build(any_filling)


def test_partition_equals_per_vertex_build_euclidean():
    space = hf.unit_cube_space(2, 4, metric="euclidean")
    _assert_partitions_equal_per_vertex_build(hf.build_filling(space, -1, 2))


def test_partition_supported_on_balls(plain6):
    part = build_partition(plain6, 4)
    for row, vid in enumerate(part.vertex_ids):
        cols = part.psi[row].indices
        assert np.all(np.isin(cols, plain6.ball_members(vid)))


def test_partition_is_cached(plain6):
    assert build_partition(plain6, 2) is build_partition(plain6, 2)


def test_partition_lipschitz_scaling(plain6, pair8):
    # a single constant per filling bounds quotient / 2^level at all levels
    for fil, cap in ((plain6, 2.0), (pair8.ambient, 1.2), (pair8.trace, 0.4)):
        worst = max(partition_lipschitz_quotient(fil, n) / 2.0**n
                    for n in fil.levels)
        assert worst <= cap


def test_level_blend_of_constant_is_constant(plain6):
    v = np.full(plain6.n_vertices, 3.25)
    for n in (0, 2, 6):
        assert np.allclose(level_blend(plain6, v, n), 3.25, atol=1e-12)


def test_edge_blend_uses_cross_level_pairs(plain6):
    u = np.zeros(plain6.n_edges)
    cross = plain6.cross_edges_at_level(3)
    u[cross] = 1.0
    out = edge_blend(plain6, u, 3)
    part_lo = build_partition(plain6, 3)
    part_hi = build_partition(plain6, 4)
    # the blend is a sum of psi products, so it never exceeds one here
    assert out.max() <= 1.0 + 1e-12
    assert out.min() >= 0.0
    # support only where consecutive-level tents overlap
    lo_support = np.asarray(part_lo.psi.sum(axis=0)).ravel() > 0
    hi_support = np.asarray(part_hi.psi.sum(axis=0)).ravel() > 0
    assert np.all(lo_support[out > 0] & hi_support[out > 0])


def test_telescoping_identity_exact(plain6):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(plain6.n_vertices)
        dv = discrete_derivative(plain6, v)
        for n in range(plain6.level_lo, plain6.level_hi):
            lhs = telescoping_integral(plain6, dv, level_window=(n, n))
            rhs = level_blend(plain6, v, n + 1) - level_blend(plain6, v, n)
            worst = max(worst, np.abs(lhs - rhs).max() / np.abs(v).max())
    assert worst <= 1e-13


@pytest.fixture(scope="module")
def square5():
    # a Euclidean square has diameter sqrt(2), so its root sits at level -1
    return hf.build_filling(hf.unit_cube_space(2, 5, metric="euclidean"),
                            -1, 3)


@pytest.mark.parametrize("name, windows", [
    ("plain6", [None]),
    # negative levels are ordinary levels: no pin, no basepoint
    ("square5", [None, (-1, -1), (-1, 1)])], ids=["plain6", "square5"])
def test_telescoping_sums_whole_window(request, name, windows):
    fil = request.getfixturevalue(name)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(fil.n_vertices)
    dv = discrete_derivative(fil, v)
    for window in windows:
        lo, hi = window or (fil.level_lo, fil.level_hi - 1)
        total = telescoping_integral(fil, dv, level_window=window)
        want = level_blend(fil, v, hi + 1) - level_blend(fil, v, lo)
        assert np.allclose(total, want, atol=1e-13)
        assert np.abs(total - want).max() <= 1e-14 * np.abs(want).max()


def test_integral_of_derivative_recovers_function(pair8):
    # rooted filling: integral of d(Pf) = f - T_0(Pf), up to discretization
    space = pair8.ambient.space
    f = np.cos(3.0 * space.points[:, 0])
    v = poisson_extension(pair8.ambient, f)
    dv = discrete_derivative(pair8.ambient, v)
    got = telescoping_integral(pair8.ambient, dv)
    want = f - level_blend(pair8.ambient, v, 0)
    # T_{hi} blend resolves f at scale 2^-hi; Lipschitz constant ~3
    assert np.abs(got - want).max() <= 3.0 * 2.0 ** (-pair8.ambient.level_hi + 2)


def test_telescoping_window_validation(plain6):
    dv = np.zeros(plain6.n_edges)
    with pytest.raises(hf.ConfigError):
        telescoping_integral(plain6, dv, level_window=(0, 99))
    with pytest.raises(hf.ConfigError):
        telescoping_integral(plain6, dv, level_window=(4, 2))
    # the last level has no deeper neighbor to blend against
    with pytest.raises(hf.ConfigError):
        telescoping_integral(plain6, dv,
                             level_window=(0, plain6.level_hi))


def test_negative_window_needs_basepoint(plain6):
    # no basepoint pins the coarse levels any more; a window below zero
    # needs a filling rooted there, and the rooted fixture has none
    dv = np.zeros(plain6.n_edges)
    with pytest.raises(hf.ConfigError):
        telescoping_integral(plain6, dv, level_window=(-2, 3))


def test_partition_rejects_bad_level(plain6):
    with pytest.raises(hf.ConfigError):
        build_partition(plain6, 99)


def test_blends_check_vector_length(plain6):
    with pytest.raises(hf.ConfigError):
        level_blend(plain6, np.zeros(3), 0)
    with pytest.raises(hf.ConfigError):
        edge_blend(plain6, np.zeros(3), 0)


def test_smooth_function_blend_converges(plain6):
    space = plain6.space
    f = tent_batch(space, 1, 5)[0]
    v = poisson_extension(plain6, f)
    errs = [np.abs(level_blend(plain6, v, n) - f).max()
            for n in (2, 4, 6)]
    assert errs[2] < errs[1] < errs[0]


def _oracle_cross(fil, level):
    eids = fil.cross_edges_at_level(level)
    if eids.size == 0:
        return sparse.csr_matrix((0, fil.space.n_points))
    lo = build_partition(fil, level)
    hi = build_partition(fil, level + 1)
    return row_gather_cross_product(lo.psi, hi.psi,
                                    fil.tails[eids] - lo.vertex_ids[0],
                                    fil.heads[eids] - hi.vertex_ids[0])


@pytest.mark.parametrize("block_nnz", [None, 64])
@pytest.mark.parametrize("name", ["plain6", "pair8.ambient", "pair8.trace"])
def test_cached_cross_matrix_equals_row_gather_product(request, monkeypatch,
                                                       name, block_nnz):
    fixture, _, side = name.partition(".")
    fil = request.getfixturevalue(fixture)
    fil = getattr(fil, side) if side else fil
    if block_nnz is not None:
        # a fresh copy, built in many small edge blocks
        monkeypatch.setattr(filling_mod, "_BLOCK_NNZ", block_nnz)
        fil = dataclasses.replace(fil)
    # the finest level has no cross edges
    assert fil.cross_edges_at_level(fil.level_hi).size == 0
    for n in fil.levels:
        got = _cross_blend_matrix(fil, n)
        want = _oracle_cross(fil, n)
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.data, want.data)
        assert _cross_blend_matrix(fil, n) is got
        u = np.random.default_rng(n - fil.level_lo).normal(size=fil.n_edges)
        eids = fil.cross_edges_at_level(n)
        assert edge_blend(fil, u, n).tobytes() == (
            want.T @ u[eids]).tobytes()


def test_caches_never_serve_another_filling(interval8):
    warm = hf.build_filling(interval8, 0, 5)
    other = hf.build_filling(interval8, 0, 6)
    u_warm = np.ones(warm.n_edges)
    telescoping_integral(warm, u_warm)
    assert other._partition_cache == {}
    u = np.random.default_rng(3).normal(size=other.n_edges)
    for n in range(0, 5):
        assert edge_blend(other, u, n).tobytes() == (
            _oracle_cross(other, n).T @ u[other.cross_edges_at_level(n)]
        ).tobytes()
    assert not ({id(v) for v in warm._partition_cache.values()}
                & {id(v) for v in other._partition_cache.values()})
