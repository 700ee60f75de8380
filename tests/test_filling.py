import dataclasses
import functools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial.distance import cdist

import hyperfill as hf
from hyperfill._jsonio import canonical_dumps
from hyperfill.filling import (_assemble, filling_from_dict, filling_to_dict,
                               nested_from_dict, nested_to_dict)

from oracles import (brute_force_audit, edge_ball_matrix, pair_distances,
                     scipy_metric)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_plain_levels_and_radius_law(plain6):
    assert plain6.level_lo == 0 and plain6.level_hi == 6
    for n in plain6.levels:
        vids = plain6.vertices_at_level(n)
        assert np.all(plain6.radii[vids] == 2.0**-n)
        assert np.all(plain6.vertex_levels[vids] == n)


def test_plain_interval_frozen_shape(plain6):
    # frozen from the build probe on the N=8 interval, levels 0..6
    assert plain6.n_vertices == 254
    assert plain6.n_edges == 2018


def test_level_zero_has_two_vertices(plain6):
    # separation 1/2 on a unit interval admits exactly two centers
    assert plain6.vertices_at_level(0).size == 2


def test_separation_invariant(plain6):
    space = plain6.space
    for n in plain6.levels:
        vids = plain6.vertices_at_level(n)
        pts = space.points[plain6.centers[vids]]
        d = cdist(pts, pts, scipy_metric(space))
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 2.0 ** (-n - 1) - 1e-15


def test_half_ball_covering_invariant(plain6):
    space = plain6.space
    for n in plain6.levels:
        vids = plain6.vertices_at_level(n)
        pts = space.points[plain6.centers[vids]]
        d = cdist(space.points, pts, scipy_metric(space))
        assert np.all((d < 2.0 ** (-n) / 2).any(axis=1))


def test_balls_are_open(plain6):
    space = plain6.space
    for vid in (0, 5, 40):
        members = plain6.ball_members(vid)
        d = space.dist_from(space.points[plain6.centers[vid]])
        assert np.array_equal(members, np.flatnonzero(d < plain6.radii[vid]))


def test_edge_rule_and_orientation(tiny_filling):
    rep = hf.audit_filling(tiny_filling)
    assert rep["ok"]
    assert rep["edge_rule_ok"] and rep["orientation_ok"]
    lt = tiny_filling.vertex_levels[tiny_filling.tails]
    lh = tiny_filling.vertex_levels[tiny_filling.heads]
    assert np.all((lt == lh) | (lh == lt + 1))
    same = lt == lh
    assert np.all(tiny_filling.tails[same] < tiny_filling.heads[same])
    assert np.array_equal(tiny_filling.edge_levels, np.minimum(lt, lh))


def test_audit_passes_all_fixtures(plain6, pair8):
    assert hf.audit_filling(plain6)["ok"]
    assert hf.audit_filling(pair8.ambient)["ok"]
    assert hf.audit_filling(pair8.trace)["ok"]


def test_overlap_bounds(plain6, pair8):
    plain_overlap = hf.overlap_audit(plain6)
    assert plain_overlap[0] == 2
    assert max(plain_overlap.values()) <= 4
    # exhaustive values for the canonical pair: the enlarged subset balls
    # stack up to 9 deep at level 5 and the bound is resolution-independent
    assert max(hf.overlap_audit(pair8.ambient).values()) == 9
    assert max(hf.overlap_audit(pair8.trace).values()) == 5


def test_overlap_audit_matches_the_vertex_loop(any_filling):
    fil = any_filling
    want = {}
    for n in fil.levels:
        counts = np.zeros(fil.space.n_points, dtype=np.int64)
        for v in fil.vertices_at_level(n):
            counts[fil.ball_members(v)] += 1
        want[n] = int(counts.max()) if counts.size else 0
    assert hf.overlap_audit(fil) == want


@pytest.mark.parametrize("complement", [False, True])
def test_nested_audit_meets_f_matches_the_ball_loop(pair8, complement):
    # every ambient ball meets the complement of the subset, embedded or not
    mask = pair8.mask
    if complement:
        flags = ~mask.member_flags
        mask = hf.SubsetMask(flags, mask.declared_lambda, flags / flags.sum())
    nested = dataclasses.replace(pair8, mask=mask)
    amb = nested.ambient
    meets = np.array([mask.member_flags[amb.ball_members(v)].any()
                      for v in range(amb.n_vertices)])
    embedded = np.isin(np.arange(nested.ambient.n_vertices),
                       nested.vertex_embedding)
    got = hf.audit_nested(nested)["meets_f_iff_embedded"]
    assert got == bool(np.all(meets == embedded)) == (not complement)


def test_window_validation(interval8):
    with pytest.raises(hf.ConfigError):
        hf.build_filling(interval8, 1, 6)   # 2^-1 below the diameter
    with pytest.raises(hf.ConfigError):
        hf.build_filling(interval8, 0, 7)   # under four times resolution
    with pytest.raises(hf.ConfigError):
        hf.build_filling(interval8, 3, 2)   # empty window
    with pytest.raises(hf.ConfigError):
        hf.build_filling(interval8, -5000, 2)   # 2^5000 overflows
    with pytest.raises(hf.ConfigError):
        hf.build_filling(interval8, 0, 10**400)   # 2^-(10^400) overflows


def test_nested_single_root(pair8):
    assert pair8.ambient.vertices_at_level(0).size == 1
    assert pair8.trace.vertices_at_level(0).size == 1


def test_nested_radius_split(pair8):
    amb = pair8.ambient
    on_f = np.zeros(amb.n_vertices, dtype=bool)
    on_f[pair8.vertex_embedding] = True
    lv = amb.vertex_levels
    assert np.all(amb.radii[on_f] == 4.0 * 2.0 ** (-lv[on_f]))
    assert np.all(amb.radii[~on_f] == 2.0 ** (-lv[~on_f]))


def test_nested_embeddings_exact(pair8):
    rep = hf.audit_nested(pair8)
    assert rep["ok"], rep


def test_cut_trace_keeps_the_counts_of_its_meet_test(pair8):
    trace = pair8.trace
    balls = trace.ball_members
    overlap = trace._cache["_overlaps",]
    assert overlap.dtype == np.int32
    assert overlap.tolist() == [
        np.intersect1d(balls(t), balls(h)).size
        for t, h in zip(trace.tails, trace.heads)]


def test_trace_filling_frozen_shape(pair8):
    # frozen from the build probe on (interval N=10, depth-6 mask, levels 0..8)
    assert pair8.ambient.n_vertices == 745
    assert pair8.ambient.n_edges == 6948
    assert pair8.trace.n_vertices == 119
    assert pair8.trace.n_edges == 598


def test_trace_is_admissible_filling_of_subset(pair8):
    rep = hf.audit_filling(pair8.trace)
    assert rep["ok"]
    assert all(lv["separation_ok"] and lv["covering_ok"]
               for lv in rep["levels"].values())


def test_trace_centers_lie_in_subset(pair8, cantor6):
    # trace centers index the subset cloud; through the embedding they
    # land on ambient points flagged by the mask
    amb_idx = pair8.point_embedding[pair8.trace.centers]
    assert np.all(cantor6.member_flags[amb_idx])


def test_ball_weight_sums_equal_the_per_row_sums(any_filling):
    # one pass over the rows grouped by length keeps each row's own
    # summation, also under random weights
    fil = any_filling
    rng = np.random.default_rng(3)
    for weights in (fil.space.weights,
                    rng.random(fil.space.n_points) * 10.0 ** rng.integers(
                        -3, 4, fil.space.n_points)):
        space = dataclasses.replace(fil.space, weights=weights)
        got = dataclasses.replace(fil, space=space).ball_weight_sums
        want = [weights[fil.ball_members(v)].sum()
                for v in range(fil.n_vertices)]
        assert np.array_equal(got, want)


def test_vertex_membership_matches_ball_lists(plain6):
    memb = plain6.vertex_membership()
    assert memb.shape == (plain6.n_vertices, plain6.space.n_points)
    for vid in (0, 3, 17):
        row = memb[vid].indices
        assert np.array_equal(np.sort(row), plain6.ball_members(vid))


def _count_queried_centers(monkeypatch):
    """A list whose one entry counts the centers handed to the ball
    queries, `ball_row` and `ball_rows`."""
    count = [0]
    for name in ("ball_row", "ball_rows"):
        def counted(self, centers, *args, orig=getattr(
                hf.FiniteMetricMeasureSpace, name), **kwargs):
            count[0] += np.size(centers)
            return orig(self, centers, *args, **kwargs)

        monkeypatch.setattr(hf.FiniteMetricMeasureSpace, name, counted)
    return count


def test_builds_query_each_ball_once(monkeypatch, interval10, cantor6):
    # the net scan's rows are the balls: one ball query per vertex
    count = _count_queried_centers(monkeypatch)
    plain = hf.build_filling(hf.unit_cube_space(2, 5), 0, 3)
    assert count[0] == plain.n_vertices
    count[0] = 0
    nested = hf.build_nested_filling(interval10, cantor6, 0, 8)
    assert count[0] == nested.ambient.n_vertices


def test_ball_members_are_read_only_views_of_the_ball_matrix(any_filling):
    fil = any_filling
    memb = fil.vertex_membership()
    assert memb is fil.balls
    assert memb.indices.dtype == np.int32 and memb.data.dtype == np.float64
    for v in (0, fil.n_vertices // 2, fil.n_vertices - 1):
        row = fil.ball_members(v)
        assert row.size > 0 and np.shares_memory(row, memb.indices)
        with pytest.raises(ValueError):
            row[0] = 0
    assert memb.indices.flags.writeable


def test_filling_has_no_per_vertex_list_field(plain6):
    names = {f.name for f in dataclasses.fields(hf.Filling)}
    assert "balls" in names and "ball_member_list" not in names
    assert not any(isinstance(getattr(plain6, name), list)
                   for name in names)
    with pytest.raises(TypeError):
        dataclasses.replace(plain6,
                            ball_member_list=plain6.ball_member_list)


def test_edge_ball_is_union(plain6):
    e = plain6.n_edges // 2
    want = np.union1d(plain6.ball_members(plain6.tails[e]),
                      plain6.ball_members(plain6.heads[e]))
    assert np.array_equal(plain6.edge_membership()[e].indices, want)
    mass = plain6.edge_ball_mass()
    assert mass[e] == pytest.approx(plain6.space.weights[want].sum())


def test_golden_filling_document(tiny_filling):
    with open(os.path.join(DATA, "interval4_filling.json")) as fh:
        frozen = fh.read()
    assert canonical_dumps(filling_to_dict(tiny_filling)) == frozen


def test_filling_roundtrip(tiny_filling):
    doc = filling_to_dict(tiny_filling)
    back = filling_from_dict(doc)
    assert back.flavor == tiny_filling.flavor
    assert np.array_equal(back.centers, tiny_filling.centers)
    assert np.array_equal(back.tails, tiny_filling.tails)
    assert np.array_equal(back.heads, tiny_filling.heads)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back.balls, name),
                              getattr(tiny_filling.balls, name)), name


def test_filling_from_dict_rejects_partial():
    with pytest.raises(hf.ConfigError):
        filling_from_dict({"flavor": "plain"})


def test_nested_roundtrip(pair6):
    doc = nested_to_dict(pair6)
    back = nested_from_dict(doc)
    assert np.array_equal(back.vertex_embedding, pair6.vertex_embedding)
    assert np.array_equal(back.edge_embedding, pair6.edge_embedding)
    assert back.trace.n_edges == pair6.trace.n_edges
    assert canonical_dumps(nested_to_dict(back)) == canonical_dumps(doc)


def test_vertex_and_edge_accessors_validate(plain6):
    with pytest.raises(hf.ConfigError):
        plain6.ball_members(10**6)
    with pytest.raises(hf.ConfigError):
        plain6.vertices_at_level(99)


def test_edge_membership_matches_per_edge_unions(any_filling):
    fil = any_filling
    want = edge_ball_matrix(fil)
    got = fil.edge_membership()
    assert got.has_sorted_indices
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.data.dtype == bool and got.data.size == got.nnz
    assert np.all(got.data)


def _check_edge_ball_mass(fil):
    """Both call orders give the oracle's product, bit for bit."""
    want = edge_ball_matrix(fil) @ fil.space.weights
    mass_first = dataclasses.replace(fil)
    memb_first = dataclasses.replace(fil)
    memb_first.edge_membership()
    for got in (mass_first.edge_ball_mass(), memb_first.edge_ball_mass()):
        assert np.array_equal(got, want)
    assert np.array_equal(mass_first.edge_membership().indices,
                          memb_first.edge_membership().indices)


def test_edge_ball_mass_is_the_edge_ball_product(any_filling):
    _check_edge_ball_mass(any_filling)


def test_edge_ball_mass_with_random_weights():
    space = hf.unit_cube_space(2, 5, metric="euclidean")
    rng = np.random.default_rng(7)
    space = dataclasses.replace(space,
                                weights=rng.uniform(0.5, 2.0, space.n_points))
    _check_edge_ball_mass(hf.build_filling(space, -1, 3))


def test_q_rows_are_the_shorter_of_overlap_and_difference(any_filling):
    # each edge keeps O_e = B(t) ∩ B(h) (sign -1, both ends counted) or
    # D_e = B(e) \ B(big) (sign +1, the larger end counted), the shorter
    fil = any_filling
    edge_balls = edge_ball_matrix(fil)
    balls = [fil.ball_members(v) for v in range(fil.n_vertices)]
    _, q_t, at_tail, at_head = fil._ball_levels()
    assert q_t.data.dtype == np.float64 and not q_t.data.flags.writeable
    assert np.all(np.abs(q_t.data) == 1.0)
    assert q_t.has_sorted_indices
    # a built filling keeps its build's counts; a copy recounts them
    overlap = fil._overlaps()
    assert overlap.dtype == np.int32
    assert np.array_equal(dataclasses.replace(fil)._overlaps(), overlap)
    kinds = set()
    for e, (t, h) in enumerate(zip(fil.tails, fil.heads)):
        b_e = edge_balls.indices[edge_balls.indptr[e]:edge_balls.indptr[e + 1]]
        o_e = np.intersect1d(balls[t], balls[h])
        assert overlap[e] == o_e.size == balls[t].size + balls[h].size \
            - b_e.size
        big = t if balls[t].size >= balls[h].size else h
        d_e = np.setdiff1d(b_e, balls[big])
        lo, hi = q_t.indptr[e], q_t.indptr[e + 1]
        row = q_t.indices[lo:hi] - (fil.edge_levels[e] - fil.level_lo) \
            * fil.space.n_points
        assert row.size == min(o_e.size, d_e.size)
        if at_tail[e] and at_head[e]:
            assert np.array_equal(row, o_e) and np.all(q_t.data[lo:hi] < 0)
            kinds.add("overlap")
        else:
            counted = t if at_tail[e] else h
            assert at_tail[e] != at_head[e]
            assert balls[counted].size == balls[big].size
            assert np.array_equal(row, np.setdiff1d(b_e, balls[counted]))
            assert np.all(q_t.data[lo:hi] > 0)
            kinds.add("nested" if row.size == 0 else
                      "tail larger" if at_tail[e] else "head larger")
    assert kinds == {"overlap", "tail larger", "head larger", "nested"}


def test_ball_levels_allocate_under_sixteen_bytes_a_q_entry():
    # an int32 index and a float sign per entry of Q, plus the balls, the
    # count products and the per-block buffers of `_row_pairs`; the
    # overlap matrix it replaced held 2.5 times Q's entries here
    fil = hf.build_filling(hf.unit_cube_space(2, 6), 0, 3)
    fil.vertex_membership()
    tracemalloc.start()
    try:
        q_t = fil._ball_levels()[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * q_t.nnz


def test_warm_superpose_allocates_only_vectors():
    # a few float vectors of length L * n, E and V; never a copy of Q
    fil = hf.build_filling(hf.unit_cube_space(2, 5), 0, 3)
    w = np.random.default_rng(3).random(fil.n_edges)
    fil._superpose(w)                   # builds and caches the matrices
    tracemalloc.start()
    try:
        fil._superpose(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lengths = len(fil.levels) * fil.space.n_points + fil.n_edges \
        + fil.n_vertices
    assert peak <= 3 * 8 * lengths


def test_edge_membership_allocates_under_six_bytes_an_entry():
    # an int32 index and a one-byte flag per entry, plus the per-block
    # buffers of `_row_pairs`, which a filling this size amortises
    fil = hf.build_filling(hf.unit_cube_space(2, 6), 0, 3)
    fil._overlaps()
    tracemalloc.start()
    try:
        memb = fil.edge_membership()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * memb.nnz


def _with_edges(fil, tails, heads):
    """A copy of the filling carrying another edge list, in level order."""
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    levels = np.minimum(fil.vertex_levels[tails], fil.vertex_levels[heads])
    order = np.argsort(levels, kind="stable")
    return dataclasses.replace(fil, tails=tails[order], heads=heads[order],
                               edge_levels=levels[order])


def test_edge_ranges_are_contiguous_levels(any_filling):
    fil = any_filling
    stop = 0
    for k in fil.levels:
        lo, hi = fil.edge_range(k)
        assert lo == stop
        assert np.array_equal(np.arange(lo, hi),
                              np.flatnonzero(fil.edge_levels == k))
        stop = hi
    assert stop == fil.n_edges
    with pytest.raises(hf.ConfigError):
        fil.edge_range(fil.level_hi + 1)


def test_audit_recount_flags_dropped_edge(any_filling):
    fil = any_filling
    keep = np.arange(fil.n_edges) != fil.n_edges // 2
    report = hf.audit_filling(
        _with_edges(fil, fil.tails[keep], fil.heads[keep]))
    assert report["edge_rule_ok"] is False
    assert report["orientation_ok"] is True
    assert report["ok"] is False


def test_audit_recount_flags_repeated_edge(any_filling):
    # the same edge set, one edge listed twice: a copy can neither pass
    # the audit nor read counts off its edges
    fil = any_filling
    e = fil.n_edges // 2
    twice = _with_edges(fil, np.insert(fil.tails, e, fil.tails[e]),
                        np.insert(fil.heads, e, fil.heads[e]))
    report = hf.audit_filling(twice)
    assert report["edge_rule_ok"] is False
    assert report["orientation_ok"] is True
    assert report["ok"] is False
    with pytest.raises(hf.ConfigError, match="intersecting"):
        twice._overlaps()


def test_audit_recount_flags_pair_two_levels_apart(any_filling):
    fil = any_filling
    # a root vertex and a level-2 vertex inside its ball share points
    lv = fil.vertex_levels
    a = int(np.flatnonzero(lv == fil.level_lo)[0])
    b = next(int(v) for v in np.flatnonzero(lv == fil.level_lo + 2)
             if np.intersect1d(fil.ball_members(a),
                               fil.ball_members(v)).size)
    report = hf.audit_filling(_with_edges(
        fil, np.append(fil.tails, a), np.append(fil.heads, b)))
    assert report["edge_rule_ok"] is False
    assert report["ok"] is False


def _disjoint_same_level_pair(fil):
    lv = fil.vertex_levels
    for a in np.flatnonzero(lv == fil.level_hi):
        for b in np.flatnonzero(lv == fil.level_hi):
            if a < b and not np.intersect1d(fil.ball_members(a),
                                            fil.ball_members(b)).size:
                return int(a), int(b)
    raise AssertionError("no disjoint pair at the finest level")


@pytest.mark.parametrize("radius", [-0.5, 0.0, float("nan")])
def test_loaded_filling_rejects_a_radius_that_is_not_positive(tiny_filling,
                                                             radius):
    # with the vertex's edges gone, an empty ball would satisfy the edge
    # rule; the loader refuses the radius instead
    doc = filling_to_dict(tiny_filling)
    last = len(doc["vertices"]) - 1
    doc["vertices"][last]["radius"] = radius
    doc["edges"] = [e for e in doc["edges"] if last not in e.values()]
    with pytest.raises(hf.ConfigError, match="radii"):
        filling_from_dict(doc)


def test_loaded_filling_rejects_dropped_edge(tiny_filling):
    doc = filling_to_dict(tiny_filling)
    del doc["edges"][3]
    with pytest.raises(hf.ConfigError, match="intersecting"):
        filling_from_dict(doc)


def test_loaded_filling_rejects_repeated_edge(tiny_filling):
    doc = filling_to_dict(tiny_filling)
    doc["edges"].insert(3, dict(doc["edges"][3]))
    with pytest.raises(hf.ConfigError, match="intersecting"):
        filling_from_dict(doc)


def test_loaded_filling_keeps_the_counts_of_its_edge_rule_check(plain6):
    loaded = filling_from_dict(filling_to_dict(plain6))
    # one recount serves the load's edge-rule check and the audit
    assert loaded._cache["_overlaps",] is loaded._cache["_edge_overlaps",]
    assert np.array_equal(loaded._overlaps(), plain6._overlaps())


def test_loaded_filling_rejects_extra_disjoint_pair(tiny_filling):
    doc = filling_to_dict(tiny_filling)
    a, b = _disjoint_same_level_pair(tiny_filling)
    doc["edges"].append({"tail": a, "head": b})
    with pytest.raises(hf.ConfigError, match="intersecting"):
        filling_from_dict(doc)


def test_loaded_filling_rejects_unsorted_edge_levels(tiny_filling):
    doc = filling_to_dict(tiny_filling)
    # the same edge set, with the last (finest) edge moved to the front
    doc["edges"].insert(0, doc["edges"].pop())
    with pytest.raises(hf.ConfigError, match="ascend by level"):
        filling_from_dict(doc)


def test_loaded_filling_rejects_reversed_same_level_edge(tiny_filling):
    doc = filling_to_dict(tiny_filling)
    lv = tiny_filling.vertex_levels
    edge = next(e for e in doc["edges"] if lv[e["tail"]] == lv[e["head"]])
    edge["tail"], edge["head"] = edge["head"], edge["tail"]
    with pytest.raises(hf.ConfigError, match="oriented"):
        filling_from_dict(doc)


@pytest.mark.parametrize("doc", [
    "not a dict",
    {"space": {"kind": "cube", "dim": 1, "depth": 4}, "flavor": "plain",
     "level_lo": 0, "level_hi": 2, "vertices": [{"center": 0}],
     "edges": []},
    {"space": {"kind": "cube", "dim": 1, "depth": 4}, "flavor": "plain",
     "level_lo": 0, "level_hi": 2,
     "vertices": [{"center": 0, "radius": 1.0, "level": 0}],
     "edges": [{"tail": -1, "head": 0}]},
    {"space": {"kind": "cube", "dim": 1, "depth": 4}, "flavor": "plain",
     "level_lo": 0, "level_hi": 2,
     "vertices": [{"center": 0, "radius": 1.0, "level": 1},
                  {"center": 8, "radius": 1.0, "level": 0}],
     "edges": []},
])
def test_loaded_filling_rejects_malformed_documents(doc):
    with pytest.raises(hf.ConfigError):
        filling_from_dict(doc)


def test_golden_filling_document_loads_unchanged():
    with open(os.path.join(DATA, "interval4_filling.json")) as fh:
        frozen = fh.read()
    loaded = filling_from_dict(json.loads(frozen))
    assert canonical_dumps(filling_to_dict(loaded)) == frozen


@pytest.mark.parametrize("key", ["vertex_embedding", "edge_embedding"])
def test_loaded_nested_rejects_permuted_embedding(pair6, key):
    doc = nested_to_dict(pair6)
    doc[key][0], doc[key][1] = doc[key][1], doc[key][0]
    with pytest.raises(hf.ConfigError, match="embedding"):
        nested_from_dict(doc)


@pytest.mark.parametrize("key", ["point_embedding", "vertex_embedding",
                                 "edge_embedding"])
def test_loaded_nested_rejects_short_or_out_of_range_embedding(pair6, key):
    doc = nested_to_dict(pair6)
    short = dict(doc, **{key: doc[key][:-1]})
    with pytest.raises(hf.ConfigError, match=key):
        nested_from_dict(short)
    wild = dict(doc, **{key: [10**6] * len(doc[key])})
    with pytest.raises(hf.ConfigError, match=key):
        nested_from_dict(wild)


def _scan_rows_agree(fil):
    space = fil.space
    for v in range(fil.n_vertices):
        d = space.dist_from(space.points[fil.centers[v]])
        assert np.array_equal(fil.ball_members(v),
                              np.flatnonzero(d < fil.radii[v]))


def test_ball_rows_match_full_scan(any_filling):
    _scan_rows_agree(any_filling)


def test_euclidean_ball_rows_match_full_scan():
    fil = hf.build_filling(hf.unit_cube_space(2, 4, metric="euclidean"),
                           -1, 2)
    _scan_rows_agree(fil)
    assert hf.audit_filling(fil)["ok"]


def test_audit_flags_ball_rows_missing_a_member(monkeypatch):
    # the audit judges balls on its own distance matrix, so a scan row
    # that loses one member cannot pass it; the lost member lies outside
    # the half-radius ball, so the net itself is unchanged
    orig = hf.FiniteMetricMeasureSpace.ball_row
    lost = []

    def lossy(self, center, radius):
        row, dist = orig(self, center, radius)
        far = int(np.argmax(dist))
        if lost or dist[far] < radius / 2:
            return row, dist
        lost.append(int(row[far]))
        keep = np.arange(row.size) != far
        return row[keep], dist[keep]

    monkeypatch.setattr(hf.FiniteMetricMeasureSpace, "ball_row", lossy)
    report = hf.audit_filling(hf.build_filling(hf.unit_cube_space(1, 6),
                                               0, 4))
    assert lost
    assert report["radius_law_ok"] is False and report["ok"] is False
    assert all(lv["separation_ok"] and lv["covering_ok"]
               for lv in report["levels"].values())


def test_audit_flags_net_blocking_missing_a_member(monkeypatch):
    # each row reports its last point closer than half the radius at the
    # radius: the row keeps it, but the scan does not block it
    orig = hf.FiniteMetricMeasureSpace.ball_row

    def unblocking(self, center, radius):
        row, dist = orig(self, center, radius)
        dist = dist.copy()
        dist[np.flatnonzero(dist < radius / 2)[-1]] = radius
        return row, dist

    monkeypatch.setattr(hf.FiniteMetricMeasureSpace, "ball_row", unblocking)
    report = hf.audit_filling(hf.build_filling(hf.unit_cube_space(1, 6),
                                               0, 4))
    assert report["ok"] is False and report["radius_law_ok"] is True
    assert not all(lv["separation_ok"] for lv in report["levels"].values())


def _without_sole_cover(fil):
    """A copy of the filling without a finest-level vertex whose center
    lies in no other half ball of its level."""
    vids = fil.vertices_at_level(fil.level_hi)
    pts = fil.space.points[fil.centers[vids]]
    d = cdist(pts, pts, scipy_metric(fil.space))
    np.fill_diagonal(d, np.inf)
    at = next(i for i in range(vids.size)
              if not np.any(d[i] < fil.radii[vids] / 2))
    v = int(vids[at])
    keep = np.arange(fil.n_vertices) != v
    new_id = np.cumsum(keep) - 1
    ekeep = keep[fil.tails] & keep[fil.heads]
    return dataclasses.replace(
        fil, centers=fil.centers[keep], radii=fil.radii[keep],
        vertex_levels=fil.vertex_levels[keep],
        tails=new_id[fil.tails[ekeep]], heads=new_id[fil.heads[ekeep]],
        edge_levels=fil.edge_levels[ekeep], balls=fil.balls[keep])


@pytest.mark.parametrize("name", ["plain6", "pair8.ambient", "pair8.trace"])
def test_audit_in_one_vertex_blocks(request, name, monkeypatch):
    fixture, _, side = name.partition(".")
    fil = request.getfixturevalue(fixture)
    fil = getattr(fil, side) if side else fil
    whole = hf.audit_filling(fil)
    monkeypatch.setattr(hf.space, "_BLOCK_BYTES", 1)
    assert hf.audit_filling(fil) == whole

    # a ball that lost a member
    balls = fil.balls.copy()
    v = int(np.flatnonzero(np.diff(balls.indptr) >= 2)[0])
    balls.data[balls.indptr[v]] = 0.0
    balls.eliminate_zeros()
    assert hf.audit_filling(dataclasses.replace(
        fil, balls=balls))["radius_law_ok"] is False

    # two centers of the finest level one cloud point apart
    a, b = fil.vertices_at_level(fil.level_hi)[:2]
    centers = fil.centers.copy()
    centers[b] = centers[a] + 1
    report = hf.audit_filling(dataclasses.replace(fil, centers=centers))
    assert report["levels"][fil.level_hi]["separation_ok"] is False

    # drop a finest-level vertex whose center no other half ball reaches
    report = hf.audit_filling(_without_sole_cover(fil))
    assert report["levels"][fil.level_hi]["covering_ok"] is False
    assert report["ok"] is False


def _random_pointset(dim, n_points, metric, seed):
    """Uniform random points in the unit cube, with the smallest pairwise
    distance as resolution and the largest as diameter."""
    points = np.random.default_rng(seed).random((n_points, dim))
    dist = pair_distances(points, metric)
    return hf.FiniteMetricMeasureSpace(
        points, np.full(n_points, 1.0 / n_points), metric,
        float(dist[dist > 0].min()), float(dim), float(dist.max()))


# Spaces whose widest plain filling the audit is checked on, beside the
# fixtures: the cells span every coordinate of the square and the gasket,
# and the first three of the five of the pointsets.
AUDIT_SPACES = {
    "square_euclidean": lambda: hf.unit_cube_space(2, 4, metric="euclidean"),
    "gasket": lambda: hf.ifs_attractor(hf.sierpinski_system(5))[0],
    "pointset5_sup": lambda: _random_pointset(5, 300, "sup", 0),
    "pointset5_euclidean": lambda: _random_pointset(5, 300, "euclidean", 1),
}
AUDITED = ["tiny_filling", "plain6", "loaded6", "pair8.ambient",
           "pair8.trace", *sorted(AUDIT_SPACES)]


@functools.cache
def _widest_filling(name):
    """The plain filling of an `AUDIT_SPACES` space over every level its
    diameter and resolution admit."""
    space = AUDIT_SPACES[name]()
    return hf.build_filling(space,
                            math.floor(-math.log2(space.declared_diam)),
                            math.floor(-math.log2(4 * space.resolution)))


def _audited(request, name):
    if name in AUDIT_SPACES:
        return _widest_filling(name)
    fixture, _, side = name.partition(".")
    value = request.getfixturevalue(fixture)
    return getattr(value, side) if side else value


def _with_row(fil, v, row):
    """A copy of the filling whose ball v lists ``row`` instead."""
    rows = [fil.ball_members(u) for u in range(fil.n_vertices)]
    rows[v] = np.asarray(row, dtype=rows[v].dtype)
    indptr = np.cumsum([0, *map(len, rows)])
    return dataclasses.replace(fil, balls=sparse.csr_matrix(
        (np.ones(indptr[-1]), np.concatenate(rows), indptr),
        shape=fil.balls.shape))


def _finest_partial_ball(fil):
    """A finest-level vertex whose ball is not the whole cloud."""
    return next(int(v) for v in fil.vertices_at_level(fil.level_hi)
                if fil.ball_members(v).size < fil.space.n_points)


def _drop_member(fil):
    v = int(np.flatnonzero(np.diff(fil.balls.indptr) >= 2)[-1])
    row = fil.ball_members(v)
    return _with_row(fil, v, np.delete(row, row.size // 2))


def _extra_member(fil):
    v = _finest_partial_ball(fil)
    row = fil.ball_members(v)
    far = np.setdiff1d(np.arange(fil.space.n_points), row)[-1]
    return _with_row(fil, v, np.union1d(row, [far]))


def _point_at_radius(fil):
    # the nearest point outside the open ball: on a grid it lies at
    # exactly the radius
    v = _finest_partial_ball(fil)
    dist = fil.space.dist_from(fil.space.points[fil.centers[v]])
    dist[dist < fil.radii[v]] = np.inf
    return _with_row(fil, v, np.union1d(fil.ball_members(v),
                                        [np.argmin(dist)]))


def _moved_center(fil):
    # center b moves next to center a
    a, b = fil.vertices_at_level(fil.level_hi)[:2]
    dist = fil.space.dist_from(fil.space.points[fil.centers[a]])
    dist[fil.centers[[a, b]]] = np.inf
    centers = fil.centers.copy()
    centers[b] = np.argmin(dist)
    return dataclasses.replace(fil, centers=centers)


MUTATIONS = {"dropped_member": _drop_member, "extra_member": _extra_member,
             "point_at_radius": _point_at_radius,
             "moved_center": _moved_center,
             "missing_net_vertex": _without_sole_cover}


@pytest.mark.parametrize("name", AUDITED)
def test_audit_equals_the_brute_force_audit(request, name):
    fil = _audited(request, name)
    report = hf.audit_filling(fil)
    assert report == brute_force_audit(fil)
    assert report["ok"] is True


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", AUDITED)
def test_audit_of_a_broken_filling_equals_the_brute_force_audit(
        request, name, mutation):
    fil = MUTATIONS[mutation](_audited(request, name))
    report = hf.audit_filling(fil)
    assert report == brute_force_audit(fil)
    assert report["ok"] is False


def test_point_at_radius_lies_at_exactly_the_radius(plain6):
    # on a grid the mutation reaches the open ball's boundary
    v = _finest_partial_ball(plain6)
    (extra,) = np.setdiff1d(_point_at_radius(plain6).ball_members(v),
                            plain6.ball_members(v))
    space = plain6.space
    dist = space.dist_from(space.points[plain6.centers[v]])
    assert dist[extra] == plain6.radii[v]


def test_audits_measure_no_point_by_center_block(monkeypatch, plain6, pair8):
    # the audits never ask for a block of distances or a ball query: every
    # distance they measure is between matching rows
    def refuse(*args):
        raise AssertionError("audit measured a distance block")

    def rowwise(*args):
        if any(np.ndim(arg) > 2 for arg in args):
            refuse()
        return kernel(*args)

    kernel = hf.space._rowwise_dist
    for module in (hf.space, hf.filling):
        monkeypatch.setattr(module, "_rowwise_dist", rowwise)
    monkeypatch.setattr(hf.space, "_dist_blocks", refuse)
    for name in ("ball_row", "ball_rows"):
        monkeypatch.setattr(hf.FiniteMetricMeasureSpace, name, refuse)
    for fil in (plain6, pair8.ambient, pair8.trace):
        assert hf.audit_filling(fil)["ok"] is True
    assert hf.audit_nested(pair8)["ok"] is True


# -- the subset filling is the ambient filling cut to F ----------------------

def _row_mask(space, axis, lam):
    """The points of smallest coordinate ``axis``: a row, or a face."""
    idx = np.flatnonzero(space.points[:, axis] == space.points[:, axis].min())
    return hf.mask_from_descriptor(space, {"indices": idx.tolist(),
                                           "lambda": lam})


def _cantor(depth, cantor_depth):
    space = hf.unit_cube_space(1, depth)
    return space, hf.cantor_mask(space, cantor_depth)


def _cube_row(dim, metric, lam):
    space = hf.unit_cube_space(dim, 5 if dim == 2 else 4, metric=metric)
    return space, _row_mask(space, dim - 1, lam)


RESTRICTION_SHAPES = {
    "cantor_pair": (lambda: _cantor(12, 7), 0, 10),
    "interval10_0_5": (lambda: _cantor(10, 6), 0, 5),
    "interval10_0_6": (lambda: _cantor(10, 6), 0, 6),
    "interval10_0_8": (lambda: _cantor(10, 6), 0, 8),
    "interval10_-2_6": (lambda: _cantor(10, 6), -2, 6),
    "interval8": (lambda: _cantor(8, 4), 0, 6),
    "square_sup_row": (lambda: _cube_row(2, "sup", 1.0), 0, 3),
    "square_euclidean_row": (lambda: _cube_row(2, "euclidean", 1.0), -1, 3),
    "cube3_sup_face": (lambda: _cube_row(3, "sup", 2.0), 0, 2),
    "gasket_base": (lambda: hf.ifs_attractor(hf.sierpinski_system(6),
                                             submaps=[0, 1]), 0, 4),
}


def _independent_trace(nested):
    """The subset filling assembled on its own space from the ambient
    vertices of radius 4 * 2^-n, and its edges looked up by key among the
    ambient edges."""
    amb = nested.ambient
    sub, emb = hf.subspace(amb.space, nested.mask)
    to_sub = {int(p): i for i, p in enumerate(emb)}
    centers, radii, ids = {}, {}, []
    for n in amb.levels:
        vids = [int(v) for v in amb.vertices_at_level(n)
                if amb.radii[v] == 4 * 2.0 ** -n]
        centers[n] = [to_sub[int(amb.centers[v])] for v in vids]
        radii[n] = [float(amb.radii[v]) for v in vids]
        ids.extend(vids)
    rows = {n: [sub.ball_row(c, r)[0] for c, r in zip(centers[n], radii[n])]
            for n in amb.levels}
    trace = _assemble(sub, "trace", amb.level_lo, amb.level_hi, centers,
                      radii, rows)
    key = {(int(t), int(h)): e
           for e, (t, h) in enumerate(zip(amb.tails, amb.heads))}
    edges = [key[ids[t], ids[h]] for t, h in zip(trace.tails, trace.heads)]
    return trace, emb, np.array(ids), np.array(edges, dtype=np.int64)


@pytest.mark.parametrize("shape", sorted(RESTRICTION_SHAPES))
def test_trace_filling_equals_an_independent_assembly(shape):
    make, lo, hi = RESTRICTION_SHAPES[shape]
    space, mask = make()
    nested = hf.build_nested_filling(space, mask, lo, hi)
    want, points, vertices, edges = _independent_trace(nested)
    got = nested.trace
    for name in ("centers", "radii", "vertex_levels", "tails", "heads",
                 "edge_levels"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.balls, name),
                              getattr(want.balls, name)), name
    assert canonical_dumps(filling_to_dict(got)) == \
        canonical_dumps(filling_to_dict(want))
    assert np.array_equal(nested.point_embedding, points)
    assert np.array_equal(nested.vertex_embedding, vertices)
    assert np.array_equal(nested.edge_embedding, edges)
    assert hf.audit_nested(nested)["ok"] is True
    assert hf.audit_filling(got)["ok"] is True


def _drop_edge(doc):
    del doc["trace"]["edges"][len(doc["trace"]["edges"]) // 2]


def _swap_edges(doc):
    edges = doc["trace"]["edges"]
    edges[0], edges[1] = edges[1], edges[0]


def _change_radius(doc):
    doc["trace"]["vertices"][-1]["radius"] *= 2


@pytest.mark.parametrize("edit", [_drop_edge, _swap_edges, _change_radius])
def test_loaded_nested_refuses_a_trace_that_is_not_the_restriction(pair6,
                                                                   edit):
    doc = json.loads(canonical_dumps(nested_to_dict(pair6)))
    edit(doc)
    with pytest.raises(hf.ConfigError, match="trace"):
        nested_from_dict(doc)


def test_loaded_nested_refuses_subset_vertices_centered_off_the_subset(pair6):
    # drop the center of the coarsest subset vertex from the subset: the
    # ambient half stays a valid filling, but that vertex leaves F
    doc = nested_to_dict(pair6)
    center = int(pair6.ambient.centers[pair6.vertex_embedding[0]])
    keep = [i for i, p in enumerate(doc["subset"]["indices"]) if p != center]
    doc["subset"] = dict(doc["subset"],
                         indices=[doc["subset"]["indices"][i] for i in keep],
                         weights=[doc["subset"]["weights"][i] for i in keep])
    with pytest.raises(hf.ConfigError, match="centered on the subset"):
        nested_from_dict(doc)
