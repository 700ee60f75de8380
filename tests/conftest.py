import os
from functools import partial

import numpy as np
import pytest

import hyperfill as hf
from hyperfill._kernels import greedy_separated_subset

# CLI tests start `python -m hyperfill` in subprocesses; let them import
# the package these tests import, from a checkout as from an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [os.path.dirname(os.path.dirname(hf.__file__))]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def interval8():
    return hf.unit_cube_space(1, 8)


@pytest.fixture(scope="session")
def plain6(interval8):
    return hf.build_filling(interval8, 0, 6)


@pytest.fixture(scope="session")
def interval10():
    return hf.unit_cube_space(1, 10)


@pytest.fixture(scope="session")
def cantor6(interval10):
    return hf.cantor_mask(interval10, 6)


@pytest.fixture(scope="session")
def pair6(interval10, cantor6):
    return hf.build_nested_filling(interval10, cantor6, 0, 6)


@pytest.fixture(scope="session")
def pair8(interval10, cantor6):
    return hf.build_nested_filling(interval10, cantor6, 0, 8)


@pytest.fixture(scope="session")
def subpair(interval10, cantor6):
    sub, emb = hf.subspace(interval10, cantor6)
    return sub, emb


@pytest.fixture(scope="session")
def cantor_attractor():
    space, _ = hf.ifs_attractor(hf.middle_thirds_system(8))
    return space


@pytest.fixture(scope="session")
def tiny_filling():
    space = hf.unit_cube_space(1, 4)
    return hf.build_filling(space, 0, 2)


def tent_batch(space, count, seed):
    from hyperfill.verify import random_tent_functions
    rng = np.random.default_rng(seed)
    return random_tent_functions(space, count, rng)


def shared_cache_objects(a, b):
    """The objects that the caches of two owners both hold, floats and
    None aside (Python may reuse one float object for equal results)."""
    def held(owner):
        return {id(v) for v in owner._cache.values()
                if not isinstance(v, (float, type(None)))}
    return held(a) & held(b)


@pytest.fixture(scope="session")
def loaded6(plain6):
    from hyperfill.filling import filling_from_dict, filling_to_dict
    return filling_from_dict(filling_to_dict(plain6))


@pytest.fixture(scope="session")
def scan_net():
    """The greedy net scan over ``space.ball_row`` at ``radius``; each
    returned row is checked against the full-scan open ball of its kept
    point.  Returns the kept points."""
    def scan(space, candidates, sep, radius):
        kept, rows = greedy_separated_subset(
            candidates, sep, partial(space.ball_row, radius=radius))
        assert kept.dtype == np.int64 and len(rows) == kept.size
        for c, row in zip(kept, rows):
            want = np.flatnonzero(space.dist_from(space.points[c]) < radius)
            assert np.array_equal(row, want)
        return kept
    return scan


@pytest.fixture(params=["tiny_filling", "plain6", "loaded6", "pair8.ambient",
                        "pair8.trace"])
def any_filling(request):
    """Each plain fixture filling, plain6 as loaded from its document (with
    the counts of the loader's edge-rule check), and both sides of the
    nested pair."""
    name, _, side = request.param.partition(".")
    value = request.getfixturevalue(name)
    return getattr(value, side) if side else value
