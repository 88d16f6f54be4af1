"""Parity checks between the pure and compiled kernel backends."""

from itertools import combinations, product

import pytest

from fqspheres import Point, SplitMix64, circle_through, kernel_backend, make_field
from fqspheres._kernels import _pykernels

try:
    from fqspheres._kernels import _ckernels
except ImportError:
    _ckernels = None

needs_compiled = pytest.mark.skipif(
    _ckernels is None, reason="compiled kernels not built"
)


def random_flats(q, d, seed, max_pts=30, max_sph=30):
    rng = SplitMix64(seed)
    n = 1 + rng.randbelow(min(q**d, max_pts))
    m = 1 + rng.randbelow(min(q ** (d + 1), max_sph))
    pts = []
    for i in rng.sample(q**d, n):
        for _ in range(d):
            pts.append(i % q)
            i //= q
    sph = []
    for i in rng.sample(q ** (d + 1), m):
        lam = i % q
        i //= q
        for _ in range(d):
            sph.append(i % q)
            i //= q
        sph.append(lam)
    return pts, sph


def test_backend_is_reported():
    assert kernel_backend() in ("pure", "compiled")


@needs_compiled
@pytest.mark.parametrize(
    "q,d", [(3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 1)]
)
def test_incidence_kernels_agree_across_backends(q, d):
    for trial in range(25):
        pts, sph = random_flats(q, d, seed=trial * 7919 + q + d)
        for name in ("incidences_naive", "incidences_bucketed", "incidences_lifted"):
            py = getattr(_pykernels, name)(q, d, pts, sph)
            cy = getattr(_ckernels, name)(q, d, pts, sph)
            assert py == cy, (name, q, d, trial)


@needs_compiled
@pytest.mark.parametrize("q,d", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)])
def test_diff_table_agrees_across_backends(q, d):
    assert _pykernels.paraboloid_diff_table(q, d) == _ckernels.paraboloid_diff_table(q, d)


@needs_compiled
@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_circle_kernels_agree_across_backends(q):
    for trial in range(20):
        rng = SplitMix64(trial * 31 + q)
        n = 3 + rng.randbelow(min(q * q, 25) - 2)
        pts = []
        for i in rng.sample(q * q, n):
            pts.extend((i // q, i % q))
        assert _pykernels.determined_circle_ids(q, pts) == _ckernels.determined_circle_ids(q, pts)
        assert _pykernels.circle_point_counts(q, pts) == _ckernels.circle_point_counts(q, pts)


@pytest.mark.parametrize("q", [5, 7])
def test_determined_ids_match_object_level_solver(q):
    """The inlined triple solve must reproduce circle_through exactly."""
    field = make_field(q)
    rng = SplitMix64(q * 1009)
    ids = rng.sample(q * q, 12)
    points = [Point(field, (i // q, i % q)) for i in ids]
    flat = []
    for p in points:
        flat.extend(p.coords)
    expected = set()
    for a, b, c in combinations(points, 3):
        s = circle_through(a, b, c)
        if s is not None:
            ca, cb = s.center.coords
            expected.add((ca * q + cb) * q + s.lam)
    assert set(_pykernels.determined_circle_ids(q, flat)) == expected


@pytest.mark.parametrize("q", [3, 5])
def test_circle_point_counts_match_direct_scan(q):
    field = make_field(q)
    rng = SplitMix64(q * 4111)
    ids = rng.sample(q * q, min(q * q, 9))
    points = [(i // q, i % q) for i in ids]
    flat = [c for p in points for c in p]
    counts = _pykernels.circle_point_counts(q, flat)
    for ca, cb, lam in product(range(q), repeat=3):
        direct = sum(
            1
            for px, py in points
            if ((px - ca) ** 2 + (py - cb) ** 2) % q == lam
        )
        assert counts[(ca * q + cb) * q + lam] == direct


def test_kernels_accept_empty_input():
    assert _pykernels.incidences_naive(5, 2, [], []) == 0
    assert _pykernels.incidences_bucketed(5, 2, [], [0, 0, 1]) == 0
    assert _pykernels.incidences_lifted(5, 2, [1, 1], []) == 0
    assert _pykernels.determined_circle_ids(5, []) == []
    assert _pykernels.circle_point_counts(5, []) == [0] * 125
    if _ckernels is not None:
        assert _ckernels.incidences_naive(5, 2, [], []) == 0
        assert _ckernels.incidences_bucketed(5, 2, [], [0, 0, 1]) == 0
        assert _ckernels.incidences_lifted(5, 2, [1, 1], []) == 0
        assert _ckernels.determined_circle_ids(5, []) == []
        assert _ckernels.circle_point_counts(5, []) == [0] * 125


# Each q lies just past its kernel's exact int64 range (the bounds are
# derived in _ckernels.c); the inputs are empty, so nothing large is allocated.
OUT_OF_RANGE_CALLS = [
    ("incidences_naive", (2**32, 1, [], [])),
    ("incidences_bucketed", (2**32, 1, [], [])),
    ("incidences_lifted", (2**32, 1, [], [])),
    ("incidences_naive", (2**31, 2, [], [])),
    ("paraboloid_diff_table", (2**20, 2)),
    ("determined_circle_ids", (2**15, [])),
    ("circle_point_counts", (2**20, [])),
]


@needs_compiled
@pytest.mark.parametrize(
    "name,args",
    OUT_OF_RANGE_CALLS,
    ids=[f"{name}-q{args[0]}" for name, args in OUT_OF_RANGE_CALLS],
)
def test_compiled_kernels_refuse_q_outside_exact_range(name, args):
    with pytest.raises(ValueError, match="outside the range"):
        getattr(_ckernels, name)(*args)


@needs_compiled
def test_compiled_kernels_accept_q_at_the_edge_of_their_range():
    # d*q^2 <= 2^63 - 1 for the incidence engines, q < 2^15 for the circle solve.
    for name in ("incidences_naive", "incidences_bucketed", "incidences_lifted"):
        assert getattr(_ckernels, name)(2**31 - 1, 2, [], []) == 0
    assert _ckernels.determined_circle_ids(2**15 - 1, [0, 0, 1, 1]) == []


@needs_compiled
def test_compiled_kernels_refuse_malformed_input():
    for bad in ([5, 0], [-1, 0], [0.5, 0]):
        with pytest.raises((ValueError, TypeError)):
            _ckernels.incidences_naive(5, 2, bad, [0, 0, 1])
    with pytest.raises(ValueError):
        _ckernels.incidences_bucketed(5, 0, [], [])
