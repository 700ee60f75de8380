import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import hyperfill as hf
from hyperfill import trace as trace_mod
from hyperfill.calculus import (discrete_derivative, level_blend,
                                poisson_extension, telescoping_integral)
from hyperfill.norms import (SmoothnessParams, besov_fn_norm,
                             half_ball_substitute, nonhom_norm)
from hyperfill.trace import (codim_mass_band, extend_besov, extend_sobolev,
                             nonhom_extend, nonhom_trace, trace_besov,
                             trace_triebel)
from hyperfill.verify import random_tent_functions

from oracles import certificate_constant, lp_hajlasz_norm, pair_distances

BESOV = SmoothnessParams(0.5, 2.0, 2.0, "besov")


@pytest.fixture(scope="module")
def tent(interval10):
    return random_tent_functions(interval10, 1, np.random.default_rng(7))[0]


def test_trace_result_anatomy(pair8, tent):
    res = trace_besov(pair8, tent, BESOV)
    assert res.samples.shape == (pair8.mask.member_indices.size,)
    assert res.operator_ratio == pytest.approx(res.trace_norm
                                               / res.source_norm, rel=1e-12)
    assert res.operator_ratio == pytest.approx(0.12350347748431624,
                                               rel=1e-9)
    # target smoothness drops by (Q - lambda)/p
    lam = pair8.mask.declared_lambda
    assert res.trace_params.s == pytest.approx(0.5 - (1.0 - lam) / 2.0,
                                               rel=1e-12)
    assert res.trace_params.p == BESOV.p


def test_trace_samples_are_subset_means(pair8, tent):
    # the trace reports deepest-level ball averages on the subset, so a
    # constant passes through exactly and the ratio degenerates to 0/0
    const = np.full(pair8.ambient.space.n_points, 1.5)
    res = trace_besov(pair8, const, BESOV)
    assert np.allclose(res.samples, 1.5, atol=1e-12)
    assert res.trace_norm == 0.0 and res.source_norm == 0.0


def test_extension_restricts_back(pair8, pair6, tent):
    fsub = tent[pair8.mask.member_indices]
    ext8 = extend_besov(pair8, fsub, BESOV)
    assert ext8.samples.shape == (pair8.ambient.space.n_points,)
    got = np.abs(ext8.samples[pair8.mask.member_indices] - fsub).max()
    assert ext8.restriction_sup_error == pytest.approx(got, rel=1e-12)
    assert ext8.restriction_sup_error == pytest.approx(
        0.08794865323841394, rel=1e-9)
    # the restriction defect shrinks with the filling resolution
    ext6 = extend_besov(pair6, fsub, BESOV)
    assert ext8.restriction_sup_error < 0.5 * ext6.restriction_sup_error


def test_extension_ratio_frozen(pair8, tent):
    fsub = tent[pair8.mask.member_indices]
    ext = extend_besov(pair8, fsub, BESOV)
    assert ext.operator_ratio == pytest.approx(6.1817945837204809, rel=1e-9)
    assert ext.target_params == BESOV


def test_roundtrip_contracts(pair8, tent):
    fsub = tent[pair8.mask.member_indices]
    ext = extend_besov(pair8, fsub, BESOV)
    back = trace_besov(pair8, ext.samples, BESOV)
    assert np.abs(back.samples - fsub).max() == pytest.approx(
        0.14923781436344652, rel=1e-9)


def test_triebel_trace(pair8, tent):
    res = trace_triebel(pair8, tent,
                        SmoothnessParams(0.5, 2.0, 2.0, "triebel"))
    assert res.operator_ratio == pytest.approx(1.1302, rel=1e-3)
    # the triebel trace lands in a besov space on the subset
    assert res.trace_params.kind == "besov"


@pytest.mark.parametrize("op, kind", [
    (trace_triebel, "besov"), (trace_besov, "triebel"),
    (extend_besov, "nonhom_besov"), (nonhom_trace, "besov"),
])
def test_operator_refuses_a_source_kind_its_theorem_does_not_take(
        pair6, op, kind):
    f = np.zeros(pair6.ambient.space.n_points)
    with pytest.raises(hf.ConfigError, match="'%s'" % kind):
        op(pair6, f, BESOV.replace(kind=kind))


def test_sobolev_certificate(pair8, tent):
    fsub = tent[pair8.mask.member_indices]
    res = extend_sobolev(pair8, fsub, 4.0)
    cert = res.certificate
    n = pair8.ambient.space.n_points
    assert cert.pairs_checked == n * (n - 1) // 2
    assert cert.K == pytest.approx(0.021784260430331593, rel=1e-9)
    assert cert.g.min() >= 0.0
    assert res.target_params.kind == "hajlasz"
    assert res.target_params.s == 1.0
    # certify by hand: the stored g (K already folded in) is a Hajlasz
    # gradient for the extension over every pair
    space = pair8.ambient.space
    D = pair_distances(space.points)
    m = np.abs(res.samples[:, None] - res.samples[None, :])
    bound = D * (cert.g[:, None] + cert.g[None, :])
    assert (m - bound).max() <= 1e-10 * max(1.0, np.abs(m).max())


def test_certificate_beats_lp_on_subinstance(pair8, tent):
    # the certified gradient is feasible for every sub-collection of
    # pairs, so the exact LP optimum there can only be smaller
    fsub = tent[pair8.mask.member_indices]
    res = extend_sobolev(pair8, fsub, 4.0)
    g = res.certificate.g
    space = pair8.ambient.space
    idx = np.sort(np.random.default_rng(0).choice(space.n_points, 64,
                                                  replace=False))
    D = pair_distances(space.points[idx])
    w = space.weights[idx]
    opt, _ = lp_hajlasz_norm(D, w, res.samples[idx])
    assert opt <= w @ g[idx] + 1e-9


def test_nonhom_operators(pair8, tent):
    params = SmoothnessParams(0.5, 2.0, 2.0, "nonhom_besov")
    fsub = tent[pair8.mask.member_indices]
    tr = nonhom_trace(pair8, tent, params)
    assert {"source_lp_part", "trace_seq_part"} <= set(tr.details)
    assert tr.operator_ratio > 0.0
    ex = nonhom_extend(pair8, fsub, params)
    assert ex.restriction_sup_error == pytest.approx(
        0.08794865323841394, rel=1e-6)
    with pytest.raises(hf.ConfigError):
        nonhom_trace(pair8, tent, BESOV)


def test_codim_mass_band(pair8):
    gamma = 1.0 - pair8.mask.declared_lambda
    lo, hi = codim_mass_band(pair8, gamma)
    assert lo == pytest.approx(0.20668562154196424, rel=1e-9)
    assert hi == pytest.approx(0.55657529126425187, rel=1e-9)
    assert hi / lo <= 4.0
    # a wrong codimension stretches the band
    wlo, whi = codim_mass_band(pair8, gamma + 0.5)
    assert whi / wlo > hi / lo


def test_admissibility_gates(pair8):
    f = np.zeros(pair8.ambient.space.n_points)
    fsub = np.zeros(pair8.mask.member_indices.size)
    with pytest.raises(hf.GateError):
        trace_besov(pair8, f, SmoothnessParams(0.5, 0.8, 2.0, "besov"))
    with pytest.raises(hf.GateError):
        extend_sobolev(pair8, fsub, 0.55)
    with pytest.raises(hf.GateError):
        trace_triebel(pair8, f, SmoothnessParams(0.5, 2.0, 0.5, "triebel"))


def test_porosity_gate(interval10):
    # the whole space is nowhere porous in itself, so the sobolev and
    # triebel windows must refuse it
    full = hf.cantor_mask(interval10, 0)
    nested = hf.build_nested_filling(interval10, full, 0, 6)
    with pytest.raises(hf.GateError):
        trace_triebel(nested, np.zeros(interval10.n_points),
                      SmoothnessParams(0.5, 2.0, 2.0, "triebel"))
    with pytest.raises(hf.GateError):
        extend_sobolev(nested, np.zeros(full.member_indices.size), 4.0)


def test_input_length_checks(pair8):
    with pytest.raises(hf.ConfigError):
        trace_besov(pair8, np.zeros(5), BESOV)
    with pytest.raises(hf.ConfigError):
        extend_besov(pair8, np.zeros(5), BESOV)


def _cert_bytes(res):
    cert = res.certificate
    return cert.K, cert.pairs_checked, cert.g.tobytes(), res.samples.tobytes()


def _plan_cells(plan):
    """Every cell of a certificate plan, in the plan's order."""
    return np.arange(plan.dmin.shape[0] ** 2)


def _holds_exactly(plan, ii, jj, n):
    """Whether the plan's pairs are the pairs (ii[k], jj[k]), as a
    multiset of ordered pairs."""
    got_i, got_j = trace_mod._cell_pairs(plan, _plan_cells(plan))
    got = np.sort(got_i.astype(np.int64) * n + got_j)
    return np.array_equal(got, np.sort(ii.astype(np.int64) * n + jj))


# sampled = 1: a cap below the pair count makes the plan a seeded sample;
# sampled = 0: under the default cap the plan lists every pair
@pytest.mark.parametrize("sampled", [0, 1])
def test_sobolev_certificate_reuses_its_pair_plan(interval10, cantor6, tent,
                                                  monkeypatch, sampled):
    if sampled:
        monkeypatch.setattr(trace_mod, "_CERT_PAIR_CAP", 50_000)
    fsub = tent[cantor6.member_indices]
    warm = hf.build_nested_filling(interval10, cantor6, 0, 6)
    first = extend_sobolev(warm, fsub, 4.0)
    plan = warm._cert_plan
    again = extend_sobolev(warm, fsub, 4.0)
    fresh = extend_sobolev(hf.build_nested_filling(interval10, cantor6, 0, 6),
                           fsub, 4.0)
    assert _cert_bytes(first) == _cert_bytes(again) == _cert_bytes(fresh)
    assert warm._cert_plan is plan
    # the plan holds seed 0's draw, grouped by cell
    n = interval10.n_points
    ii, jj = trace_mod._pair_sample(n, trace_mod._CERT_PAIR_CAP,
                                    np.random.default_rng(0))
    assert _holds_exactly(plan, ii, jj, n)
    assert (ii.size < n * (n - 1) // 2) == bool(sampled)
    assert first.certificate.pairs_checked == ii.size == plan.starts[-1]


def test_sobolev_certificate_blocks_do_not_change_it(pair8, tent,
                                                     monkeypatch):
    fsub = tent[pair8.mask.member_indices]
    whole = extend_sobolev(pair8, fsub, 4.0)
    monkeypatch.setattr(trace_mod, "_CERT_BLOCK", 997)
    pair8._cert_plan = ()
    blocked = extend_sobolev(pair8, fsub, 4.0)
    assert _cert_bytes(blocked) == _cert_bytes(whole)


def test_certificate_plans_never_serve_another_filling(interval10, cantor6,
                                                       pair6, tent):
    fsub = tent[cantor6.member_indices]
    extend_sobolev(pair6, fsub, 4.0)
    other = hf.build_nested_filling(interval10, cantor6, 0, 5)
    assert other._cert_plan == ()
    extend_sobolev(other, fsub, 4.0)
    assert other._cert_plan[0] is not pair6._cert_plan[0]
    assert other.ambient._partition_cache is not \
        pair6.ambient._partition_cache


def _certify_with_spy(nested, fsub, monkeypatch):
    """extend_sobolev's result, with the plan and gradient base that its
    certificate constant was computed from."""
    seen = []
    constant = trace_mod._certificate_constant

    def spy(space, plan, extended, base):
        seen.append((plan, base))
        return constant(space, plan, extended, base)

    monkeypatch.setattr(trace_mod, "_certificate_constant", spy)
    res = extend_sobolev(nested, fsub, 4.0)
    (plan, base), = seen
    return res, plan, base


# full: pair8's plan lists every pair; sampled: a cap below the pair count
# makes it a seeded sample; euclidean: box gaps under the square root
@pytest.mark.parametrize("case", ["full", "sampled", "euclidean"])
def test_pruned_certificate_equals_the_exhaustive_scan(
        pair8, interval10, cantor6, tent, monkeypatch, case):
    if case == "euclidean":
        nested, rows = _bottom_edge_pair()
        x = nested.ambient.space.points[rows]
        fsub = np.sin(5.0 * x[:, 0]) + x[:, 0] ** 2
    else:
        nested = pair8
        if case == "sampled":
            monkeypatch.setattr(trace_mod, "_CERT_PAIR_CAP", 50_000)
            nested = hf.build_nested_filling(interval10, cantor6, 0, 6)
        fsub = tent[cantor6.member_indices]
    constant = trace_mod._certificate_constant
    res, plan, base = _certify_with_spy(nested, fsub, monkeypatch)
    space = nested.ambient.space
    n = space.n_points
    assert (plan.starts[-1] < n * (n - 1) // 2) == (case == "sampled")

    def exhaustive(cells, u, b):
        return certificate_constant(space.points, space.metric_kind,
                                    *trace_mod._cell_pairs(plan, cells), u, b)

    every = _plan_cells(plan)
    nb = plan.dmin.shape[0]
    K = exhaustive(every, res.samples, base)
    assert K > 0.0
    assert res.certificate.K == K
    assert res.certificate.g.tobytes() == (K * base).tobytes()
    # a step up or down out of the first leaf block, over a positive
    # base, puts the largest quotient in a cell between two blocks
    b = base + base.max()
    for step in (1.0, -1.0):
        u = res.samples.copy()
        u[plan.order[:plan.block]] += step
        K = exhaustive(every, u, b)
        assert exhaustive(np.arange(nb) * (nb + 1), u, b) < K
        assert constant(space, plan, u, b) == K


def test_certificate_scan_measures_few_pairs(pair8, tent, monkeypatch):
    # a silent fall-back to the full scan would measure every plan pair
    measured = []
    dist = trace_mod._rowwise_dist

    def counting(a, b, kind):
        measured.append(len(a))
        return dist(a, b, kind)

    monkeypatch.setattr(trace_mod, "_rowwise_dist", counting)
    res = extend_sobolev(pair8, tent[pair8.mask.member_indices], 4.0)
    assert 0 < sum(measured) <= res.certificate.pairs_checked / 3


def test_sobolev_blind_pair_error(interval10, cantor6, tent, monkeypatch):
    # with no edge superposition every pair is dead, so a varying
    # extension must be refused, naming its largest blind increment
    nested = hf.build_nested_filling(interval10, cantor6, 0, 6)
    amb = nested.ambient
    monkeypatch.setattr(amb, "_superpose", lambda w: np.zeros(
        (len(amb.levels), amb.space.n_points)))
    fsub = tent[cantor6.member_indices]
    u = extend_besov(nested, fsub, BESOV).samples
    with pytest.raises(hf.NumericalError) as err:
        extend_sobolev(nested, fsub, 4.0)
    assert str(err.value) == (
        "extension varies across a pair its gradient cannot see "
        "(max %.3g)" % float(u.max() - u.min()))


def test_half_ball_variant_scores_each_side_with_its_own_half_balls(pair8,
                                                                    tent):
    variant = half_ball_substitute(pair8.ambient)
    own = half_ball_substitute(pair8.trace)
    res = trace_besov(pair8, tent, BESOV, variant)
    assert res.trace_norm == besov_fn_norm(pair8.trace, res.samples,
                                           res.trace_params, own)
    assert res.source_norm == besov_fn_norm(pair8.ambient, tent, BESOV,
                                            variant)
    fsub = tent[pair8.mask.member_indices]
    ext = extend_besov(pair8, fsub, BESOV, variant)
    assert ext.source_norm == besov_fn_norm(pair8.trace, fsub,
                                            ext.source_params, own)
    params = SmoothnessParams(0.5, 2.0, 2.0, "nonhom_besov")
    nt = nonhom_trace(pair8, tent, params, variant)
    assert (nt.details["trace_lp_part"], nt.details["trace_seq_part"]) == \
        nonhom_norm(pair8.trace, nt.samples, nt.trace_params, own)
    ne = nonhom_extend(pair8, fsub, params, variant)
    assert (ne.details["source_lp_part"], ne.details["source_seq_part"]) == \
        nonhom_norm(pair8.trace, fsub, ne.source_params, own)
    tt = trace_triebel(pair8, tent, BESOV.replace(kind="triebel"), variant)
    assert tt.trace_norm == besov_fn_norm(pair8.trace, tt.samples,
                                          tt.trace_params, own)
    # the variant belongs to no filling: either side's serves both
    assert trace_besov(pair8, tent, BESOV, own).trace_norm == res.trace_norm


def _bottom_edge_pair():
    """Euclidean 2-D depth-5 cube and its bottom row, levels -1..3."""
    space = hf.unit_cube_space(2, 5, metric="euclidean")
    rows = np.flatnonzero(space.points[:, 1] == space.points[:, 1].min())
    mask = hf.mask_from_descriptor(space, {"indices": rows.tolist(),
                                           "lambda": 1.0})
    return hf.build_nested_filling(space, mask, -1, 3), rows


def test_trace_and_extension_start_below_level_zero():
    nested, rows = _bottom_edge_pair()
    space = nested.ambient.space
    params = SmoothnessParams(0.5, 4.0, 4.0, "besov")
    f = np.sin(3.0 * space.points[:, 0]) + space.points[:, 1] ** 2
    res = trace_besov(nested, f, params)
    # the window telescopes to the finest blend, whose coarse part is the
    # constant root blend
    tr = nested.trace
    fine = level_blend(tr, poisson_extension(nested.ambient, f)[
        nested.vertex_embedding], tr.level_hi)
    assert np.abs(res.samples - fine).max() <= 1e-12
    nh = nonhom_trace(nested, f, params.replace(kind="nonhom_besov"))
    assert np.abs(nh.samples - fine).max() <= 1e-12
    assert np.isfinite([res.trace_norm, res.source_norm]).all()
    back = extend_besov(nested, res.samples, params)
    assert np.isfinite(back.samples).all()
    assert back.restriction_sup_error <= 0.1


def test_euclidean_cube_traces_onto_its_bottom_face():
    # the unit cube's diameter is sqrt(3) * 15/16, so the root level is -1
    space = hf.unit_cube_space(3, 4, metric="euclidean")
    face = np.flatnonzero(space.points[:, 2] == space.points[:, 2].min())
    mask = hf.mask_from_descriptor(space, {"indices": face.tolist(),
                                           "lambda": 2.0})
    nested = hf.build_nested_filling(space, mask, -1, 2)
    params = SmoothnessParams(0.9, 4.0, 4.0, "besov")
    x = space.points
    res = trace_besov(nested, np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2],
                      params)
    ext = extend_besov(nested, res.samples, params)
    for ratio in (res.operator_ratio, ext.operator_ratio):
        assert 0.0 < ratio < np.inf


def _scaled_cantor_pair(scale: float, level_lo: int):
    """The 256-point interval and its depth-4 Cantor subset, stretched by
    ``scale``, over six levels from ``level_lo``."""
    base = hf.unit_cube_space(1, 8)
    mask = hf.cantor_mask(base, 4)
    space = hf.FiniteMetricMeasureSpace(
        base.points * scale, base.weights, base.metric_kind,
        base.resolution * scale, base.declared_Q, base.declared_diam * scale)
    mask = hf.mask_from_descriptor(space, {
        "indices": mask.member_indices.tolist(),
        "lambda": mask.declared_lambda})
    return hf.build_nested_filling(space, mask, level_lo, level_lo + 5)


def test_operators_below_level_zero_are_scale_invariant():
    # stretching the cloud by 2^3 and the window by three levels gives the
    # same balls, partitions and blends; at levels -3..2 the root blends
    # are no longer constant near the subset, so a constant left over by
    # pinning the negative levels would shift every sample
    unit, wide = _scaled_cantor_pair(1.0, 0), _scaled_cantor_pair(8.0, -3)
    x = unit.ambient.space.points[:, 0]
    f = np.sin(3.0 * x) + x ** 2
    f_sub = f[unit.mask.member_indices]
    besov = SmoothnessParams(0.7, 4.0, 4.0, "besov")
    nonhom = besov.replace(kind="nonhom_besov")
    for op, g, params in ((trace_besov, f, besov), (nonhom_trace, f, nonhom),
                          (extend_besov, f_sub, besov),
                          (nonhom_extend, f_sub, nonhom)):
        a, b = op(unit, g, params), op(wide, g, params)
        assert np.abs(a.samples - b.samples).max() <= 1e-12, op.__name__
        if hasattr(a, "restriction_sup_error"):
            assert b.restriction_sup_error == pytest.approx(
                a.restriction_sup_error, rel=1e-12, abs=1e-12)
    tr = wide.trace
    fine = level_blend(tr, poisson_extension(wide.ambient, f)[
        wide.vertex_embedding], tr.level_hi)
    nh = nonhom_trace(wide, f, nonhom)
    assert np.abs(nh.samples - fine).max() <= 1e-12


def test_windows_from_level_zero_keep_their_bytes(pair8, tent):
    # each operator is the plain telescoping sum plus the coarsest blend,
    # and each source norm comes from the one lift the operator makes
    tr, amb = pair8.trace, pair8.ambient
    v = poisson_extension(amb, tent)
    u_sub = discrete_derivative(amb, v)[pair8.edge_embedding]
    expect = telescoping_integral(tr, u_sub) + level_blend(
        tr, v[pair8.vertex_embedding], tr.level_lo)[0]
    res = trace_besov(pair8, tent, BESOV)
    assert res.samples.tobytes() == expect.tobytes()
    assert res.source_norm == res.details["source_seq_norm"] == \
        besov_fn_norm(amb, tent, BESOV)
    f_sub = tent[pair8.mask.member_indices]
    v_sub = poisson_extension(tr, f_sub)
    u_amb = np.zeros(amb.n_edges)
    u_amb[pair8.edge_embedding] = discrete_derivative(tr, v_sub)
    v_amb = np.zeros(amb.n_vertices)
    v_amb[pair8.vertex_embedding] = v_sub
    anchor = pair8.point_embedding[0]
    expect = telescoping_integral(amb, u_amb) + level_blend(
        amb, v_amb, amb.level_lo)[anchor]
    ext = extend_besov(pair8, f_sub, BESOV)
    assert ext.samples.tobytes() == expect.tobytes()
    assert ext.source_norm == besov_fn_norm(tr, f_sub, ext.source_params)
    sob = extend_sobolev(pair8, f_sub, 2.0)
    assert sob.source_norm == besov_fn_norm(tr, f_sub, sob.source_params)


def _traced_plan(nested):
    """The nested filling's certificate plan, with the tracemalloc peak
    of building it."""
    nested.ambient.space._tree()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = trace_mod._cert_pair_plan(nested)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return plan, peak


def _stored_bytes(plan):
    return sum(a.nbytes for a in plan if isinstance(a, np.ndarray))


def test_sampled_certificate_plan_is_drawn_in_int32():
    # 4,096 points have more pairs than the cap, so the plan is sampled
    space = hf.unit_cube_space(1, 12)
    nested = hf.build_nested_filling(space, hf.cantor_mask(space, 7), 0, 4)
    plan, peak = _traced_plan(nested)
    rng = np.random.default_rng(trace_mod._CERT_PAIR_SEED)
    cap = trace_mod._CERT_PAIR_CAP
    ii = rng.integers(0, space.n_points, size=cap)
    jj = rng.integers(0, space.n_points, size=cap)
    keep = ii != jj
    assert _holds_exactly(plan, ii[keep], jj[keep], space.n_points)
    # two one-byte offsets a pair; the build holds no int64 pair array
    assert plan.first.dtype == plan.second.dtype == np.uint8
    assert _stored_bytes(plan) <= 2.2 * keep.sum()
    assert peak <= 17 * cap


def test_full_certificate_plan_is_built_without_int64_pairs(interval10,
                                                            cantor6):
    # 1,024 points have fewer pairs than the cap: the plan lists each once
    nested = hf.build_nested_filling(interval10, cantor6, 0, 3)
    plan, peak = _traced_plan(nested)
    n = interval10.n_points
    ii, jj = np.triu_indices(n, k=1)
    assert _holds_exactly(plan, ii, jj, n)
    assert _stored_bytes(plan) <= 2.2 * ii.size
    assert peak <= 17 * ii.size


def _blocks_hold_their_pairs(plan, n):
    nb = plan.dmin.shape[0]
    starts = plan.starts
    # the cell starts cover the plan exactly once, in cell order
    assert starts.size == nb * nb + 1 and starts[0] == 0
    assert np.all(np.diff(starts) >= 0)
    assert starts[-1] == plan.first.size == plan.second.size
    cells = _plan_cells(plan)
    i, j = trace_mod._cell_pairs(plan, cells)
    pos = np.empty(n, dtype=np.int64)
    pos[plan.order] = np.arange(n)
    cell = np.repeat(cells, np.diff(starts))
    assert np.array_equal(pos[i] // plan.block, cell // nb)
    assert np.array_equal(pos[j] // plan.block, cell % nb)
    assert np.all(i != j)


# full: every pair of 1,024 points; sampled: a cap below the pair count;
# wide: blocks of 300 points need two-byte offsets
@pytest.mark.parametrize("case", ["full", "sampled", "wide"])
def test_certificate_plan_cells_hold_their_pairs(interval10, cantor6,
                                                 monkeypatch, case):
    if case == "sampled":
        monkeypatch.setattr(trace_mod, "_CERT_PAIR_CAP", 50_000)
    if case == "wide":
        monkeypatch.setattr(trace_mod, "_CERT_CELL", 300)
    nested = hf.build_nested_filling(interval10, cantor6, 0, 3)
    plan = trace_mod._cert_pair_plan(nested)
    assert plan.first.dtype == (np.uint16 if case == "wide" else np.uint8)
    _blocks_hold_their_pairs(plan, interval10.n_points)


def _check_wide_plan(space, block, off_t):
    """Check a plan over a large space; return its build's peak."""
    nested = SimpleNamespace(ambient=SimpleNamespace(space=space),
                             _cert_plan=())
    plan, peak = _traced_plan(nested)
    assert plan.block == block and plan.first.dtype == off_t
    _blocks_hold_their_pairs(plan, space.n_points)
    rng = np.random.default_rng(trace_mod._CERT_PAIR_SEED)
    cap = trace_mod._CERT_PAIR_CAP
    ii = rng.integers(0, space.n_points, size=cap)
    jj = rng.integers(0, space.n_points, size=cap)
    keep = ii != jj
    assert _holds_exactly(plan, ii[keep], jj[keep], space.n_points)
    return peak


def test_certificate_plan_keys_widen_past_int32():
    # 65,536 points in blocks of 256: the cell-major keys reach 2^32 - 1,
    # past int32 but inside uint32, so the build still holds four bytes
    # a key (it held eight, 21 bytes a drawn pair, with int64 keys)
    peak = _check_wide_plan(hf.unit_cube_space(2, 8), 256, np.uint8)
    assert peak <= 17 * trace_mod._CERT_PAIR_CAP


def test_certificate_plan_keys_widen_past_uint32():
    # 262,144 points in blocks of 512: the keys need int64
    _check_wide_plan(hf.unit_cube_space(2, 9), 512, np.uint16)
