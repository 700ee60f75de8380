import ast
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import hyperfill as hf
from hyperfill.hajlasz import _pair_constraints
from hyperfill.space import (_BLOCK_BYTES, _dyadic_radii, _measured_diam,
                            _rowwise_dist, dist_to_subset,
                            mask_from_descriptor, space_to_descriptor)

from oracles import (ball_mass, box_count_slope, greedy_net, pair_distances,
                     scipy_metric)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src",
                   "hyperfill")

LOG23 = math.log(2) / math.log(3)


def test_unit_cube_grid_matches_construction():
    space = hf.unit_cube_space(1, 3)
    assert space.n_points == 8
    assert np.allclose(space.points[:, 0], (np.arange(8) + 0.5) / 8)
    assert np.allclose(space.weights, 1 / 8)


def test_unit_cube_total_mass_one_2d():
    space = hf.unit_cube_space(2, 2)
    assert space.n_points == 16
    assert space.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_unit_cube_rejects_oversize():
    with pytest.raises(hf.ConfigError):
        hf.unit_cube_space(3, 12)
    with pytest.raises(hf.ConfigError):
        hf.unit_cube_space(1, 13)
    with pytest.raises(hf.ConfigError):
        hf.unit_cube_space(4, 2)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sup_rowwise_dist_is_the_row_maximum_bit_for_bit(dim):
    # coordinates on a coarse grid make many exact ties between columns
    rng = np.random.default_rng(dim)
    a = rng.integers(0, 8, (200, dim)) / 8 + rng.random((200, dim)) * 1e-3
    b = rng.integers(0, 8, (200, dim)) / 8
    for other in (b, b[0]):
        want = np.abs(a - other).max(axis=1)
        got = _rowwise_dist(a, other, "sup")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("dim", [1, 2, 7])
def test_euclidean_rowwise_dist_is_the_row_sum_bit_for_bit(dim):
    # below eight coordinates NumPy's row sum adds in order too
    rng = np.random.default_rng(dim)
    a = rng.random((200, dim)) * 10.0 ** rng.integers(-3, 3, (200, dim))
    b = rng.random((200, dim))
    for other in (b, b[0]):
        diff = np.abs(a - other)
        want = np.sqrt((diff * diff).sum(axis=1))
        got = _rowwise_dist(a, other, "euclidean")
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_cube_distances_match_reference(interval8):
    ref = pair_distances(interval8.points, "sup")
    pts = interval8.points
    got = _rowwise_dist(pts[:, None], pts[None], "sup")
    assert np.allclose(got, ref, atol=1e-15)


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
def test_broadcast_kernel_equals_cdist_bit_for_bit(metric):
    # a coarse grid makes exact ties between distances and coordinates
    name = "chebyshev" if metric == "sup" else "euclidean"
    for dim in range(1, 12):
        rng = np.random.default_rng(dim)
        a = rng.integers(0, 4, (40, dim)) / 4
        a[20:] += rng.random((20, dim)) * 1e-3
        b = np.concatenate([a[:10], rng.integers(0, 4, (30, dim)) / 4])
        got = _rowwise_dist(a[:, None], b[None], metric)
        want = cdist(a, b, name)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), dim


def _cloud(metric, n=300, dim=3):
    rng = np.random.default_rng(5)
    points = np.round(rng.random((n, dim)), 2)
    return hf.FiniteMetricMeasureSpace(points, np.full(n, 1.0 / n), metric,
                                       0.01, float(dim), 1.0)


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
def test_blocked_distances_match_cdist_in_one_row_blocks(monkeypatch,
                                                        metric):
    space = _cloud(metric)
    mask = mask_from_descriptor(space, {
        "indices": np.flatnonzero(space.points[:, 0] < 0.3).tolist(),
        "lambda": 2.0})
    f = np.sin(7.0 * space.points).sum(axis=1)
    full = cdist(space.points, space.points, scipy_metric(space))
    ii, jj = np.triu_indices(space.n_points, k=1)
    d, df = full[ii, jj], np.abs(f[ii] - f[jj])
    keep = df > 0.0
    want_pairs = (ii[keep], jj[keep], df[keep] / d[keep] ** 0.5)
    for budget in (_BLOCK_BYTES, 1):
        monkeypatch.setattr(hf.space, "_BLOCK_BYTES", budget)
        assert _measured_diam(space.points, metric) == full.max()
        assert np.array_equal(dist_to_subset(space, mask),
                              full[:, mask.member_indices].min(axis=1))
        for got, want in zip(_pair_constraints(space, f, 0.5), want_pairs):
            assert np.array_equal(got, want)


def test_measured_diam_stays_within_the_block_budget():
    points = np.random.default_rng(0).random((6000, 2))
    tracemalloc.start()
    try:
        _measured_diam(points, "euclidean")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * _BLOCK_BYTES


def _calls(node, owner=None):
    """``(function, name)`` of every call below ``node``: the innermost
    function around it (None at module level) and the called name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            yield owner, getattr(func, "id", getattr(func, "attr", None))
        inner = (child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
        yield from _calls(child, inner)


def _src_trees():
    """``(file name, syntax tree)`` of every module of the library."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def test_src_has_one_distance_arithmetic():
    # every distance in the library comes from `_rowwise_dist`; SciPy's
    # distance module rounds differently from d = 8 on.  Every ball query
    # takes its candidates from the cell index: no kd-tree ball query, and
    # the tree is only the certificate plan's point order
    tree_calls = []
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}"
                           for alias in node.names]
            else:
                modules = []
            assert not any(m.startswith("scipy.spatial.distance")
                           for m in modules), name
        for owner, called in _calls(tree):
            assert called not in ("cdist", "query_ball_point"), name
            if called == "_tree":
                tree_calls.append((name, owner))
    assert tree_calls == [("trace.py", "_cert_pair_plan")]


def test_src_makes_every_filling_in_assemble():
    # one constructor derives every filling's edges from T: the build,
    # the subset cut and the loader all call `filling._assemble`, and the
    # row-pair blocks serve only the three edge-ball structures
    callers = {"Filling": [], "_row_pairs": [], "ball_rows": [],
               "_edge_overlaps": []}
    for name, tree in _src_trees():
        for owner, called in _calls(tree):
            if called in callers:
                callers[called].append((name, owner))
    assert callers["Filling"] == [("filling.py", "_assemble")]
    assert sorted(callers["_row_pairs"]) == [
        ("calculus.py", "_cross_blend_matrix"),
        ("filling.py", "_ball_levels"), ("filling.py", "edge_membership")]
    for called in ("_row_pairs", "ball_rows", "_edge_overlaps"):
        assert ("filling.py", "filling_from_dict") not in callers[called]


def _private(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__"))


def test_src_keeps_derived_structures_in_one_cache():
    # a structure derived from a space, a filling or a nested filling is
    # kept in its owner's one `_cache` (`space._cached`): no other field
    # is left out of the constructor, and no private attribute is built
    # on first use behind `is None` or `not`
    found = []
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "field"
                    and any(kw.arg == "init" and getattr(kw.value, "value",
                                                         True) is False
                            for kw in node.value.keywords)
                    and getattr(node.target, "id", None) != "_cache"):
                found.append((name, node.lineno, "init=False"))
            if not isinstance(node, (ast.If, ast.IfExp, ast.While)):
                continue
            for test in ast.walk(node.test):
                if ((isinstance(test, ast.Compare) and _private(test.left)
                     and isinstance(test.ops[0], (ast.Is, ast.IsNot))
                     and getattr(test.comparators[0], "value", 0) is None)
                        or (isinstance(test, ast.UnaryOp)
                            and isinstance(test.op, ast.Not)
                            and _private(test.operand))):
                    found.append((name, node.lineno, "lazy build"))
    assert found == []


def test_ahlfors_fit_interval(interval10):
    fit = hf.ahlfors_fit(interval10, _dyadic_radii(interval10))
    assert abs(fit.Q_hat - 1.0) <= 0.1
    assert fit.C_lo > 0 and fit.C_hi >= fit.C_lo
    # frozen from the build probe
    assert fit.Q_hat == pytest.approx(0.9927, abs=2e-3)


def test_ahlfors_fit_square():
    space = hf.unit_cube_space(2, 6)
    fit = hf.ahlfors_fit(space, _dyadic_radii(space))
    assert abs(fit.Q_hat - 2.0) <= 0.1


def test_ahlfors_fit_needs_three_radii(interval10):
    with pytest.raises(hf.ConfigError):
        hf.ahlfors_fit(interval10, [0.25, 0.125])


def test_ahlfors_fit_rejects_single_point():
    space, _ = hf.ifs_attractor(hf.middle_thirds_system(1))
    with pytest.raises(hf.ConfigError):
        hf.ahlfors_fit(space, [0.3, 0.2, 0.1])


def test_ball_masses_match_oracle(interval10):
    rng = np.random.default_rng(3)
    for _ in range(10):
        i = int(rng.integers(interval10.n_points))
        r = float(rng.uniform(0.02, 0.4))
        d = interval10.dist_from(interval10.points[i])
        got = interval10.weights[d < r].sum()
        want = ball_mass(interval10.points, interval10.weights,
                         interval10.points[i], r, "sup")
        assert got == pytest.approx(want, abs=1e-15)


def test_cantor_attractor_has_word_count(cantor_attractor):
    assert cantor_attractor.n_points == 256
    assert cantor_attractor.declared_Q == pytest.approx(LOG23)


def test_cantor_attractor_box_dimension(cantor_attractor):
    # scales stay above the atom spacing 2 * 3^-8 so counts keep doubling
    slope = box_count_slope(cantor_attractor.points,
                            [2.0**-k for k in range(2, 12)])
    assert abs(slope - LOG23) <= 0.05


def test_cantor_attractor_fit_spec_radii(cantor_attractor):
    fit = hf.ahlfors_fit(cantor_attractor, [0.5, 0.25, 0.125])
    assert 0.58 <= fit.Q_hat <= 0.68
    assert abs(fit.Q_hat - LOG23) <= 0.05
    # frozen from the build probe
    assert fit.Q_hat == pytest.approx(0.5941, abs=2e-3)


def test_ifs_single_submap_rejected():
    with pytest.raises(hf.ConfigError):
        hf.ifs_attractor(hf.middle_thirds_system(4), submaps=(0,))


def test_ifs_unequal_ratios_need_declared_q():
    system = hf.IfsSystem(
        maps=[hf.IfsMap(ratio=1 / 3, offset=(0.0,)),
              hf.IfsMap(ratio=1 / 2, offset=(0.5,))],
        depth=4)
    with pytest.raises(hf.ConfigError):
        hf.ifs_attractor(system)
    space, _ = hf.ifs_attractor(system, declared_Q=0.8)
    assert space.declared_Q == 0.8


def test_sierpinski_submask_dimensions():
    space, mask = hf.ifs_attractor(hf.sierpinski_system(7), submaps=(0, 1))
    assert space.n_points == 3**7
    assert space.declared_Q == pytest.approx(math.log(3) / math.log(2))
    assert mask.declared_lambda == pytest.approx(1.0)
    assert int(mask.member_flags.sum()) == 2**7
    assert mask.subset_weights.sum() == pytest.approx(1.0)


def test_ifs_rotation_needs_plane():
    system = hf.IfsSystem(
        maps=[hf.IfsMap(ratio=1 / 3, offset=(0.0,), rotation_deg=90.0),
              hf.IfsMap(ratio=1 / 3, offset=(2 / 3,))],
        depth=3)
    with pytest.raises(hf.ConfigError):
        hf.ifs_attractor(system)


def test_cantor_mask_interval_masses(interval10, cantor6):
    assert cantor6.declared_lambda == pytest.approx(LOG23)
    assert cantor6.subset_weights.sum() == pytest.approx(1.0, abs=1e-12)
    # every point of the depth-6 approximant lies outside a middle third
    members = np.flatnonzero(cantor6.member_flags)
    x = interval10.points[members, 0] * 3.0
    assert np.all((x < 1.0) | (x >= 2.0))


def test_cantor_mask_depth_gate(interval8):
    with pytest.raises(hf.ConfigError):
        hf.cantor_mask(interval8, 8)


def test_cantor_mask_needs_dim1():
    square = hf.unit_cube_space(2, 3)
    with pytest.raises(hf.ConfigError):
        hf.cantor_mask(square, 1)


def test_subspace_carries_subset_measure(interval10, cantor6, subpair):
    sub, emb = subpair
    assert sub.n_points == int(cantor6.member_flags.sum())
    assert sub.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(interval10.points[emb], sub.points)


def test_porosity_whole_space_is_none(interval10):
    full = hf.SubsetMask(
        member_flags=np.ones(interval10.n_points, dtype=bool),
        declared_lambda=1.0,
        subset_weights=interval10.weights.copy())
    assert hf.porosity_scan(interval10, full) is None


def test_porosity_cantor_at_least_eighth(interval10, cantor6):
    c = hf.porosity_scan(interval10, cantor6)
    assert c is not None and c >= 1 / 8
    assert c == pytest.approx(0.125)


def test_codim_regularity_band(interval10, cantor6):
    gamma = 1.0 - LOG23
    radii = _dyadic_radii(interval10)
    lo, hi = hf.codim_regularity_check(interval10, cantor6, gamma, radii)
    assert 0 < lo <= hi
    assert hi / lo <= 4.0
    wrong = hf.codim_regularity_check(interval10, cantor6, gamma + 0.3, radii)
    assert wrong[1] / wrong[0] > hi / lo


def test_codim_check_needs_a_radius(interval10, cantor6):
    with pytest.raises(hf.ConfigError, match="at least one radius"):
        hf.codim_regularity_check(interval10, cantor6, 1.0 - LOG23, [])


def test_codim_gamma_zero_full_subset(interval10):
    full = hf.SubsetMask(
        member_flags=np.ones(interval10.n_points, dtype=bool),
        declared_lambda=1.0,
        subset_weights=interval10.weights.copy())
    lo, hi = hf.codim_regularity_check(interval10, full, 0.0,
                                       _dyadic_radii(interval10))
    assert lo >= 0.8 and hi <= 1.2


def test_doubling_audit(interval10):
    worst = hf.doubling_audit(interval10)
    # doubling constant for the interval: mass(2r) <= 2 * 2^Q * mass(r)
    assert 0.0 < worst <= 2.0


def test_no_dyadic_radius_above_the_floor_is_config_error():
    # top = diam/2 = 0.45 clears the floor 4 * 0.1, but the first dyadic
    # radius below it, 0.25, does not: the audits have nothing to measure
    pts = np.linspace(0.0, 0.9, 10)[:, None]
    space = hf.FiniteMetricMeasureSpace(pts, np.full(10, 0.1), "sup", 0.1,
                                        1.0, 0.9)
    mask = hf.SubsetMask(member_flags=np.arange(10) < 3, declared_lambda=1.0,
                         subset_weights=np.where(np.arange(10) < 3, 0.1, 0.0))
    with pytest.raises(hf.ConfigError):
        _dyadic_radii(space)
    with pytest.raises(hf.ConfigError):
        hf.doubling_audit(space)
    with pytest.raises(hf.ConfigError):
        hf.porosity_scan(space, mask)
    with pytest.raises(hf.ConfigError):
        _dyadic_radii(space, top=0.0)


def test_greedy_matches_reference_scan(interval8, scan_net):
    # the scan's rows are balls of the separation, twice or four times it
    idx = np.arange(interval8.n_points, dtype=np.int64)
    for sep in (0.5, 0.21, 0.13):
        want = greedy_net(interval8.points, sep, "sup")
        for radius in (sep, 2 * sep, 4 * sep):
            assert np.array_equal(scan_net(interval8, idx, sep, radius), want)


def test_space_descriptor_roundtrip(interval8):
    desc = space_to_descriptor(interval8)
    rebuilt, mask = hf.space_from_descriptor(desc)
    assert mask is None
    assert np.allclose(rebuilt.points, interval8.points)
    assert rebuilt.metric_kind == interval8.metric_kind
    assert rebuilt.declared_Q == interval8.declared_Q


def test_mask_descriptor_cantor_form(interval10, cantor6):
    mask = mask_from_descriptor(interval10, {"cantor_depth": 6})
    assert np.array_equal(mask.member_flags, cantor6.member_flags)
    assert np.allclose(mask.subset_weights, cantor6.subset_weights)


def test_mask_descriptor_explicit_indices(interval8):
    mask = mask_from_descriptor(interval8, {"indices": [0, 3, 7],
                                            "lambda": 0.5})
    assert int(mask.member_flags.sum()) == 3
    assert mask.subset_weights[3] == pytest.approx(1 / 3)
    with pytest.raises(hf.ConfigError):
        mask_from_descriptor(interval8, {"indices": [999], "lambda": 0.5})


_PAIR = {"kind": "pointset", "metric": "sup", "points": [[0.0], [0.5], [1.0]],
         "weights": [1.0, 1.0, 1.0], "resolution": 0.125, "declared_Q": 1.0,
         "declared_diam": 1.0}


@pytest.mark.parametrize("desc, field", [
    (dict(_PAIR, points=[[0.0], [True], [1.0]]), "points"),
    (dict(_PAIR, points=[[0.0], ["0.5"], [1.0]]), "points"),
    (dict(_PAIR, weights=[1.0, True, "2"]), "weights"),
    (dict(_PAIR, subset={"indices": [0.5, 1.7, 2.2], "lambda": 0.5}),
     "indices"),
    (dict(_PAIR, subset={"indices": [0, True], "lambda": 0.5}), "indices"),
    (dict(_PAIR, subset={"indices": [0, 1], "lambda": 0.5,
                         "weights": [True, "2"]}), "weights"),
])
def test_descriptor_arrays_refuse_values_they_would_cast(desc, field):
    # each index must be a JSON integer and each value a JSON number:
    # 0.5 is not member 0, and neither true nor "2" is a weight
    with pytest.raises(hf.ConfigError, match="descriptor %s must be" % field):
        hf.space_from_descriptor(desc)


def test_ifs_descriptor_refuses_a_top_level_lambda():
    # only the subset block's `lambda` sets the subset's dimension
    maps = [{"ratio": 1 / 3, "offset": [0.0]},
            {"ratio": 1 / 3, "offset": [2 / 3]}]
    with pytest.raises(hf.ConfigError, match="unknown keys"):
        hf.space_from_descriptor({"kind": "ifs", "depth": 2, "maps": maps,
                                  "declared_lambda": 0.1})


def test_descriptor_rejects_unknown_kind():
    with pytest.raises(hf.ConfigError):
        hf.space_from_descriptor({"kind": "torus"})
    with pytest.raises(hf.ConfigError):
        hf.space_from_descriptor({"dim": 1})


# -- kd-tree ball query and tree-driven nets --------------------------------

def _tie_radii(space, centers, rng):
    """Radii equal to an actual distance from each center (exact ties),
    dyadic radii (ties on the grid), generic radii and radius 0."""
    ties = [space.dist_from(space.points[c])[rng.integers(space.n_points)]
            for c in centers[:10]]
    dyadic = 2.0 ** -rng.integers(0, 6, 10).astype(float)
    return np.concatenate([ties, dyadic, rng.uniform(0.0, 1.0, 9), [0.0]])


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("dim, depth", [(1, 7), (2, 4), (3, 3)])
def test_ball_rows_match_full_scan(metric, dim, depth):
    space = hf.unit_cube_space(dim, depth, metric=metric)
    rng = np.random.default_rng(10 * dim + depth)
    centers = rng.integers(0, space.n_points, 30)
    radii = _tie_radii(space, centers, rng)
    rows = space.ball_rows(centers, radii)
    assert rows.shape == (centers.size, space.n_points)
    assert rows.indices.dtype == np.int32 and np.all(rows.data == 1.0)
    for v, (c, r) in enumerate(zip(centers, radii)):
        d = space.dist_from(space.points[c])
        want = np.flatnonzero(d < r)
        assert np.array_equal(
            rows.indices[rows.indptr[v]:rows.indptr[v + 1]], want)
        row, dist = space.ball_row(c, r)
        assert row.dtype == np.int64 and np.array_equal(row, want)
        assert np.array_equal(dist, d[want])


def test_a_net_scan_builds_one_cell_index_per_radius(monkeypatch):
    # every ball of a level's scan reuses that level's cells, and a space
    # keeps only the index of the last side it was asked for
    sides = []
    make = hf.space._Cells.__init__

    def counted(self, points, side):
        sides.append(side)
        make(self, points, side)

    monkeypatch.setattr(hf.space._Cells, "__init__", counted)
    space = hf.unit_cube_space(2, 5)
    hf.build_filling(space, 0, 3)
    assert sides == [2.0 ** -n * (1 + 1e-12) for n in range(4)]
    assert space._cache["_cells",].side == sides[-1]


def test_ball_rows_of_no_centers(interval8):
    rows = interval8.ball_rows([], [])
    assert rows.shape == (0, interval8.n_points) and rows.nnz == 0


def test_nonfinite_points_are_rejected():
    with pytest.raises(hf.ConfigError, match="finite"):
        hf.FiniteMetricMeasureSpace(
            points=np.array([[0.0], [np.nan]]), weights=np.ones(2),
            metric_kind="sup", resolution=0.5, declared_Q=1.0,
            declared_diam=1.0)


@pytest.mark.parametrize("field", ["declared_Q", "declared_diam"])
def test_nonfinite_declared_scales_are_rejected(field):
    kwargs = dict(points=np.array([[0.0], [1.0]]), weights=np.ones(2),
                  metric_kind="sup", resolution=0.5, declared_Q=1.0,
                  declared_diam=1.0)
    kwargs[field] = math.inf
    with pytest.raises(hf.ConfigError, match="finite"):
        hf.FiniteMetricMeasureSpace(**kwargs)


def _nets_agree(scan_net, space, candidates, seps):
    # the plain build's rows are twice the separation, the nested on-F
    # scan's four times
    for sep in seps:
        want = greedy_net(space.points, sep, space.metric_kind,
                          candidates=candidates)
        for radius in (2 * sep, 4 * sep):
            got = scan_net(space, candidates, sep, radius)
            assert np.array_equal(got, want), (sep, radius)


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("dim, depth", [(1, 8), (2, 5), (3, 3)])
def test_tree_net_matches_pairwise_scan(metric, dim, depth, scan_net):
    # dyadic separations put many candidates at exactly sep, which the
    # scan must not block
    space = hf.unit_cube_space(dim, depth, metric=metric)
    seps = [2.0 ** -k for k in range(depth + 1)] + [0.3, 0.13]
    _nets_agree(scan_net, space, np.arange(space.n_points), seps)


def test_tree_net_matches_pairwise_scan_on_subset_candidates(interval10,
                                                             cantor6,
                                                             scan_net):
    # the nested builder's two candidate lists: points on F, and points
    # at distance >= 2^-n from F; a shuffled list checks the scan order
    dist_f = dist_to_subset(interval10, cantor6)
    rng = np.random.default_rng(4)
    for n in range(8):
        scale = 2.0 ** -n
        far = np.flatnonzero(dist_f >= scale)
        _nets_agree(scan_net, interval10, cantor6.member_indices, [scale])
        _nets_agree(scan_net, interval10, far, [scale / 2])
        _nets_agree(scan_net, interval10, rng.permutation(far), [scale / 2])


def test_tree_net_matches_pairwise_scan_on_euclidean_subset(scan_net):
    space = hf.unit_cube_space(2, 5, metric="euclidean")
    mask = mask_from_descriptor(space, {
        "indices": np.flatnonzero(space.points[:, 0] < 0.3).tolist(),
        "lambda": 1.0})
    dist_f = dist_to_subset(space, mask)
    for n in range(-1, 4):
        scale = 2.0 ** -n
        _nets_agree(scan_net, space, mask.member_indices, [scale])
        _nets_agree(scan_net, space, np.flatnonzero(dist_f >= scale),
                    [scale / 2])


def test_subspace_of_coincident_points_is_refused():
    # two members at one point have diameter 0, which the subspace's own
    # constructor refuses
    space = hf.FiniteMetricMeasureSpace(
        np.array([[0.0], [0.0], [1.0]]), np.ones(3), "sup", 0.25, 1.0, 1.0)
    mask = mask_from_descriptor(space, {"indices": [0, 1], "lambda": 0.5})
    with pytest.raises(hf.ConfigError, match="declared_diam"):
        hf.subspace(space, mask)
