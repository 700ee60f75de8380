import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hyperfill as hf
from hyperfill._jsonio import canonical_dumps, sanitize
from hyperfill._kernels import pair_max_lift
from hyperfill.calculus import (discrete_derivative, level_blend,
                                telescoping_integral)
from hyperfill.norms import SmoothnessParams, besov_seq_norm, lp_norm

from oracles import canonical_text, greedy_net

TINY_SPACE = hf.unit_cube_space(1, 4)
TINY = hf.build_filling(TINY_SPACE, 0, 2)

point_clouds = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 30), st.integers(1, 3)),
    elements=st.floats(0.0, 1.0, allow_nan=False, width=32))


def _cloud_space(pts, sup):
    return hf.FiniteMetricMeasureSpace(
        points=pts, weights=np.ones(pts.shape[0]),
        metric_kind="sup" if sup else "euclidean", resolution=1.0,
        declared_Q=1.0, declared_diam=1.0)


# the scan's rows are balls of the separation or a multiple of it, as in
# the builds
row_factors = st.sampled_from([1.0, 2.0, 4.0])


@given(point_clouds, st.floats(0.01, 1.5), st.booleans(), row_factors)
@settings(max_examples=60)
def test_greedy_subset_is_separated_and_maximal(scan_net, pts, sep, sup,
                                                factor):
    cands = np.arange(pts.shape[0], dtype=np.int64)
    kept = scan_net(_cloud_space(pts, sup), cands, sep, factor * sep)

    def d(a, b):
        diff = np.abs(a - b)
        return diff.max() if sup else np.sqrt((diff**2).sum())

    centers = pts[kept]
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            assert d(centers[i], centers[j]) >= sep
    # maximality: every candidate is blocked by some kept point
    for p in pts:
        assert min(d(p, c) for c in centers) < sep


@given(point_clouds, st.floats(0.01, 1.5), row_factors)
@settings(max_examples=60)
def test_greedy_subset_matches_reference(scan_net, pts, sep, factor):
    cands = np.arange(pts.shape[0], dtype=np.int64)
    got = scan_net(_cloud_space(pts, True), cands, sep, factor * sep)
    assert np.array_equal(got, greedy_net(pts, sep, "sup"))


@given(point_clouds, st.floats(0.01, 1.5), st.booleans(), st.randoms(),
       row_factors)
@settings(max_examples=60)
def test_tree_net_matches_pairwise_scan(scan_net, pts, sep, sup, rnd, factor):
    space = _cloud_space(pts, sup)
    cands = np.arange(pts.shape[0], dtype=np.int64)
    rnd.shuffle(cands)
    cands = cands[:rnd.randint(1, cands.size)]
    got = scan_net(space, cands, sep, factor * sep)
    assert np.array_equal(got, greedy_net(pts, sep, space.metric_kind,
                                          candidates=cands))


@given(point_clouds, st.booleans(), st.data())
@settings(max_examples=60)
def test_ball_rows_match_full_scan_at_ties(pts, sup, data):
    space = _cloud_space(pts, sup)
    n = pts.shape[0]
    centers = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=5))
    # each radius is an actual distance from its center: an exact tie
    others = data.draw(st.lists(st.integers(0, n - 1), min_size=len(centers),
                                max_size=len(centers)))
    radii = [space.dist_from(pts[c])[o] for c, o in zip(centers, others)]
    rows = space.ball_rows(centers, radii)
    for v, (c, r) in enumerate(zip(centers, radii)):
        d = space.dist_from(pts[c])
        want = np.flatnonzero(d < r)
        assert np.array_equal(
            rows.indices[rows.indptr[v]:rows.indptr[v + 1]], want)
        row, dist = space.ball_row(c, r)
        assert np.array_equal(row, want) and np.array_equal(dist, d[want])


@given(st.data())
@settings(max_examples=60)
def test_pair_max_lift_repairs_every_instance(data):
    n = data.draw(st.integers(2, 12))
    n_pairs = data.draw(st.integers(1, 30))
    ii = np.asarray(data.draw(st.lists(
        st.integers(0, n - 1), min_size=n_pairs, max_size=n_pairs)))
    jj = np.asarray(data.draw(st.lists(
        st.integers(0, n - 1), min_size=n_pairs, max_size=n_pairs)))
    g = np.asarray(data.draw(st.lists(
        st.floats(0.0, 10.0, allow_nan=False), min_size=n, max_size=n)))
    m = np.asarray(data.draw(st.lists(
        st.floats(0.0, 10.0, allow_nan=False),
        min_size=n_pairs, max_size=n_pairs)))
    lift = pair_max_lift(g, ii, jj, m)
    assert lift.min() >= 0.0
    repaired = g + lift
    slack = repaired[ii] + repaired[jj] - m
    assert slack.min() >= -1e-9 * max(1.0, m.max())


@given(st.data())
@settings(max_examples=60)
def test_pair_max_lift_leaves_feasible_points_alone(data):
    n = data.draw(st.integers(2, 10))
    g = np.asarray(data.draw(st.lists(
        st.floats(0.5, 5.0, allow_nan=False), min_size=n, max_size=n)))
    ii, jj = np.triu_indices(n, k=1)
    # constraints already slack by construction
    m = (g[ii] + g[jj]) * 0.9
    assert np.array_equal(pair_max_lift(g, ii, jj, m), np.zeros(n))


edge_vectors = hnp.arrays(np.float64, TINY.n_edges,
                          elements=st.floats(-100.0, 100.0,
                                             allow_nan=False, width=32))


@given(edge_vectors, st.floats(-50.0, 50.0, allow_nan=False, width=16))
@settings(max_examples=40)
def test_besov_seq_norm_is_absolutely_homogeneous(u, c):
    params = SmoothnessParams(0.5, 2.0, 2.0, "besov")
    base = besov_seq_norm(TINY, u, params)
    scaled = besov_seq_norm(TINY, c * u, params)
    assert abs(scaled - abs(c) * base) <= 1e-10 * max(base, 1.0)


vertex_vectors = hnp.arrays(np.float64, TINY.n_vertices,
                            elements=st.floats(-100.0, 100.0,
                                               allow_nan=False, width=32))


@given(vertex_vectors)
@settings(max_examples=60)
def test_telescoping_is_exact_for_any_vertex_data(v):
    dv = discrete_derivative(TINY, v)
    scale = max(1.0, np.abs(v).max())
    for n in range(TINY.level_lo, TINY.level_hi):
        lhs = telescoping_integral(TINY, dv, level_window=(n, n))
        rhs = level_blend(TINY, v, n + 1) - level_blend(TINY, v, n)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


point_vectors = hnp.arrays(np.float64, TINY_SPACE.n_points,
                           elements=st.floats(-100.0, 100.0,
                                              allow_nan=False, width=32))


@given(point_vectors, point_vectors, st.floats(1.0, 8.0))
@settings(max_examples=60)
def test_lp_norm_triangle_inequality(f, g, p):
    lhs = lp_norm(TINY_SPACE, f + g, p)
    rhs = lp_norm(TINY_SPACE, f, p) + lp_norm(TINY_SPACE, g, p)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(-2**31, 2**31)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)


@given(json_values)
@settings(max_examples=80)
def test_canonical_json_is_order_insensitive_and_parseable(obj):
    text = canonical_dumps(obj)
    parsed = json.loads(text)

    def reorder(x):
        if isinstance(x, dict):
            return {k: reorder(x[k]) for k in reversed(list(x))}
        if isinstance(x, list):
            return [reorder(v) for v in x]
        return x

    assert canonical_dumps(reorder(obj)) == text
    # a canonical dump of its own parse is a fixed point
    assert canonical_dumps(parsed) == text


def test_canonical_json_writes_negative_zero_as_zero():
    for zero in (-0.0, np.float64(-0.0), np.float32(-0.0)):
        assert canonical_dumps(zero) == "0\n"
    for neg, pos in ((np.array([-0.0, 0.0]), np.array([0.0, 0.0])),
                     ({"a": [-0.0]}, {"a": [0.0]})):
        assert canonical_dumps(neg) == canonical_dumps(pos)
    for obj in (-0.0, np.float64(-0.0), np.float32(-0.0),
                np.array([-0.0, 0.0]), {"a": [-0.0]}):
        text = canonical_dumps(obj)
        assert canonical_dumps(json.loads(text)) == text


@given(json_values)
@settings(max_examples=60)
def test_sanitize_is_idempotent(obj):
    once = sanitize(obj)
    assert sanitize(once) == once


def test_float_lists_are_written_as_item_by_item():
    tiny = 5e-324
    floats = [-0.0, 0.0, 1e308, -1e308, tiny, -tiny, 2.2250738585072014e-308,
              0.1, 1.0 / 3.0, 123456789.0]
    docs = [floats, [1.5], floats + [7], [3, 2.5, -0.0], [[0.5, -0.0],
            [floats, 2, [1e-300]]], {"a": floats, "b": {"c": [0.25]}},
            tuple(floats), np.array(floats)]
    for doc in docs:
        plain = doc.tolist() if isinstance(doc, np.ndarray) else doc
        text = canonical_dumps(doc)
        assert text == canonical_text(json.loads(json.dumps(plain))) + "\n"
        assert canonical_dumps(json.loads(text)) == text
    for bad in (float("nan"), float("inf"), -float("inf")):
        for doc in ([0.5, bad], {"x": [bad, 1.0]}, np.array([1.0, bad])):
            with pytest.raises(hf.ConfigError):
                canonical_dumps(doc)
