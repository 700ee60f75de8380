import math

import numpy as np
import pytest

import hyperfill as hf
from hyperfill._kernels import greedy_separated_subset
from hyperfill.space import (_dyadic_radii, dist_to_subset, mask_from_descriptor,
                            space_to_descriptor)

from oracles import ball_mass, box_count_slope, greedy_net, pair_distances

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


def test_cube_distances_match_reference(interval8):
    ref = pair_distances(interval8.points, "sup")
    got = interval8.cross_dist(interval8.points, interval8.points)
    assert np.allclose(got, ref, atol=1e-15)


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


def test_greedy_matches_reference_scan(interval8):
    idx = np.arange(interval8.n_points, dtype=np.int64)
    for sep in (0.5, 0.21, 0.13):
        got = greedy_separated_subset(idx, sep, interval8.ball_indices)
        want = greedy_net(interval8.points, sep, "sup")
        assert np.array_equal(got, want)


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
    assert len(rows) == centers.size
    for row, c, r in zip(rows, centers, radii):
        d = space.dist_from(space.points[c])
        want = np.flatnonzero(d < r)
        assert row.dtype == np.int64 and np.array_equal(row, want)
        assert np.array_equal(space.ball_indices(c, r), want)
        assert space.ball_mass(c, r) == float(space.weights[d < r].sum())


def test_ball_rows_of_no_centers(interval8):
    assert interval8.ball_rows([], []) == []


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


def _nets_agree(space, candidates, seps):
    for sep in seps:
        want = greedy_net(space.points, sep, space.metric_kind,
                          candidates=candidates)
        got = greedy_separated_subset(candidates, sep, space.ball_indices)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), sep


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("dim, depth", [(1, 8), (2, 5), (3, 3)])
def test_tree_net_matches_pairwise_scan(metric, dim, depth):
    # dyadic separations put many candidates at exactly sep, which the
    # scan must not block
    space = hf.unit_cube_space(dim, depth, metric=metric)
    seps = [2.0 ** -k for k in range(depth + 1)] + [0.3, 0.13]
    _nets_agree(space, np.arange(space.n_points), seps)


def test_tree_net_matches_pairwise_scan_on_subset_candidates(interval10,
                                                             cantor6):
    # the nested builder's two candidate lists: points on F, and points
    # at distance >= 2^-n from F; a shuffled list checks the scan order
    dist_f = dist_to_subset(interval10, cantor6)
    rng = np.random.default_rng(4)
    for n in range(8):
        scale = 2.0 ** -n
        far = np.flatnonzero(dist_f >= scale)
        _nets_agree(interval10, cantor6.member_indices, [scale])
        _nets_agree(interval10, far, [scale / 2])
        _nets_agree(interval10, rng.permutation(far), [scale / 2])


def test_tree_net_matches_pairwise_scan_on_euclidean_subset():
    space = hf.unit_cube_space(2, 5, metric="euclidean")
    mask = mask_from_descriptor(space, {
        "indices": np.flatnonzero(space.points[:, 0] < 0.3).tolist(),
        "lambda": 1.0})
    dist_f = dist_to_subset(space, mask)
    for n in range(-1, 4):
        scale = 2.0 ** -n
        _nets_agree(space, mask.member_indices, [scale])
        _nets_agree(space, np.flatnonzero(dist_f >= scale), [scale / 2])
