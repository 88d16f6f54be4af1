from fractions import Fraction

import pytest

from fqspheres import (
    BudgetExceededError,
    ContextMismatchError,
    Point,
    PointSet,
    Sphere,
    SphereFamily,
    SplitMix64,
    check_beck,
    check_incidence_bound,
    check_pinned_average,
    check_pinned_fraction,
    count_incidences,
    determined_circles,
    generate_points,
    make_field,
    pinned_cover,
    pinned_set,
    rich_circles,
    sphere_contains,
)
from fqspheres import _kernels

F5 = make_field(5)
F7 = make_field(7)


def decode(q, d, idx):
    coords = []
    for _ in range(d):
        coords.append(idx % q)
        idx //= q
    return tuple(coords)


def random_points(field, d, n, seed):
    rng = SplitMix64(seed)
    q = field.p
    return PointSet(field, d, [decode(q, d, i) for i in rng.sample(q**d, n)])


def min_size_meeting(q, d, check) -> int:
    # smallest n passing the exact hypothesis comparison, found by scan
    for n in range(1, q**d + 1):
        if check(n):
            return n
    raise AssertionError("no feasible size")


def avg_hypothesis(q, d, eps):
    return lambda n: Fraction(n * n) * eps**2 >= (1 - eps) * q ** (d + 1)


def frac_hypothesis(q, d, a):
    return lambda n: Fraction(n * n) * a**4 >= (1 - a * a) * q ** (d + 1)


# --- incidence bound ---------------------------------------------------


@pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2)])
def test_bound_on_full_plane_vs_all_spheres_is_exact(q, d):
    field = make_field(q)
    P = generate_points(field, d, "full", 0)
    S = SphereFamily(
        field,
        d,
        [
            Sphere(Point(field, decode(q, d, i)), lam)
            for i in range(q**d)
            for lam in range(q)
        ],
    )
    rep = check_incidence_bound(P, S)
    assert rep.incidences == q ** (2 * d)
    assert rep.main_term == Fraction(q ** (2 * d))
    assert rep.theta == 0.0
    assert rep.status == "holds"


def test_bound_vacuous_on_empty_sides():
    P = PointSet(F5, 2)
    S = SphereFamily(F5, 2, [((0, 0), 1)])
    rep = check_incidence_bound(P, S)
    assert rep.status == "vacuous"
    assert rep.theta == 0.0
    assert rep.incidences == 0
    rep = check_incidence_bound(PointSet(F5, 2, [(1, 1)]), SphereFamily(F5, 2))
    assert rep.status == "vacuous"


@pytest.mark.parametrize("q,d", [(5, 2), (7, 2), (7, 3)])
def test_bound_holds_on_seeded_random_instances(q, d):
    field = make_field(q)
    rng = SplitMix64(q * 100 + d)
    for trial in range(20):
        n = 1 + rng.randbelow(min(q**d, 40))
        m = 1 + rng.randbelow(min(q ** (d + 1), 40))
        P = random_points(field, d, n, seed=trial + 1)
        fam = []
        for i in rng.sample(q ** (d + 1), m):
            fam.append(Sphere(Point(field, decode(q, d, i // q)), i % q))
        S = SphereFamily(field, d, fam)
        rep = check_incidence_bound(P, S)
        assert rep.status == "holds"
        assert rep.incidences == count_incidences(P, S, engine="naive")
        assert abs(rep.theta) < 1
        assert (q * rep.incidences - n * m) ** 2 < rep.error_bound_sq


def test_bound_exact_verdict_is_strict():
    # contrived: a bound comparison where the squared deviation is
    # checked exactly, not through floats
    P = PointSet(F5, 2, [(0, 0)])
    S = SphereFamily(F5, 2, [((0, 0), 0)])
    rep = check_incidence_bound(P, S)
    # I = 1, main = 1/5, deviation^2 = (5 - 1)^2 = 16 < 1 * 5^4
    assert rep.status == "holds"
    assert rep.error_bound_sq == 5**4


# --- pinned distances --------------------------------------------------


def test_pinned_set_of_a_line():
    P = PointSet(F5, 2, [(t, 0) for t in range(5)])
    got = {e.value for e in pinned_set(P, Point(F5, (0, 0)))}
    assert got == {0, 1, 4}


def test_pinned_set_context_check():
    P = PointSet(F5, 2, [(1, 1)])
    with pytest.raises(ContextMismatchError):
        pinned_set(P, Point(F7, (0, 0)))


@pytest.mark.parametrize("q,d", [(5, 2), (7, 2), (5, 3)])
def test_pinned_cover_partitions_the_set(q, d):
    field = make_field(q)
    for trial in range(5):
        P = random_points(field, d, 1 + trial * 3 % min(q**d, 30), seed=trial + 50)
        if len(P) == 0:
            continue
        for pin in list(P)[:3]:
            cover = pinned_cover(P, pin)
            assert len(cover) == len(pinned_set(P, pin))
            # spheres around one pin are pairwise disjoint and cover P
            assert count_incidences(P, cover, engine="naive") == len(P)
            seen = set()
            for s in cover:
                for p in P:
                    if sphere_contains(s, p):
                        assert p not in seen
                        seen.add(p)
            assert len(seen) == len(P)


def test_pinned_minimal_sizes_are_the_frozen_ones():
    half = Fraction(1, 2)
    fourfifths = Fraction(4, 5)
    assert min_size_meeting(7, 2, avg_hypothesis(7, 2, half)) == 27
    assert min_size_meeting(13, 2, avg_hypothesis(13, 2, half)) == 67
    assert min_size_meeting(5, 3, avg_hypothesis(5, 3, half)) == 36
    assert min_size_meeting(5, 2, frac_hypothesis(5, 2, fourfifths)) == 11
    assert min_size_meeting(13, 2, frac_hypothesis(13, 2, fourfifths)) == 44
    assert min_size_meeting(13, 2, frac_hypothesis(13, 2, half)) == 163


def test_pinned_average_on_qualifying_sets():
    eps = Fraction(1, 2)
    for trial in range(8):
        P = random_points(F7, 2, 27 + trial * 2, seed=trial + 7)
        rep = check_pinned_average(P, eps)
        assert rep.hypothesis_met
        assert rep.conclusion_holds
        assert rep.average > (1 - eps) * 7
        assert rep.per_pin and sum(rep.per_pin.values()) == rep.average * len(P)


def test_pinned_average_below_threshold_reports_unmet_hypothesis():
    P = random_points(F7, 2, 10, seed=3)
    rep = check_pinned_average(P, Fraction(1, 2))
    assert not rep.hypothesis_met


def test_pinned_fraction_on_qualifying_sets():
    alpha = Fraction(4, 5)
    for trial in range(8):
        P = random_points(F5, 2, 11 + trial, seed=trial + 31)
        rep = check_pinned_fraction(P, alpha)
        assert rep.hypothesis_met
        assert rep.conclusion_holds
        assert Fraction(rep.rich_pins) >= (1 - alpha) * len(P)


def test_pinned_parameter_validation():
    P = PointSet(F5, 2, [(0, 0)])
    for bad in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(ValueError):
            check_pinned_average(P, bad)
        with pytest.raises(ValueError):
            check_pinned_fraction(P, bad)


def test_pinned_accepts_string_fractions():
    P = random_points(F5, 2, 20, seed=1)
    rep = check_pinned_average(P, "1/2")
    assert rep.parameter == Fraction(1, 2)


# --- determined circles ------------------------------------------------


def test_line_determines_no_circles():
    P = generate_points(F5, 2, "line", 0)
    assert determined_circles(P) == set()
    P7 = generate_points(F7, 2, "line", 0)
    assert determined_circles(P7) == set()


def test_full_plane_determined_counts():
    # q=5: -1 is a square, every one of the 125 circles is determined;
    # q=7: the 49 degenerate circles are single points, leaving 294
    assert len(determined_circles(generate_points(F5, 2, "full", 0))) == 125
    assert len(determined_circles(generate_points(F7, 2, "full", 0))) == 294


def test_circle_points_determine_exactly_their_circle():
    P = generate_points(F7, 2, "circle", 0)
    assert len(P) == 8  # q + 1 points when -1 is not a square
    got = determined_circles(P)
    assert got == {Sphere(Point(F7, (0, 0)), 1)}


def test_determined_monotone_under_inclusion():
    rng = SplitMix64(77)
    q = 7
    for trial in range(5):
        big_ids = rng.sample(q * q, 15)
        small_ids = big_ids[:8]
        big = PointSet(F7, 2, [decode(q, 2, i) for i in big_ids])
        small = PointSet(F7, 2, [decode(q, 2, i) for i in small_ids])
        assert determined_circles(small) <= determined_circles(big)


def test_determined_circles_requires_plane_and_budget():
    with pytest.raises(ValueError, match="d = 2"):
        determined_circles(PointSet(F5, 3, [(0, 0, 0)]))
    P = random_points(F7, 2, 30, seed=5)
    with pytest.raises(BudgetExceededError):
        determined_circles(P, budget=10)


def test_determined_circles_refuses_a_huge_circle_table(monkeypatch):
    # Three points fit the triple budget, but either backend's kernel
    # would flag circles in a table of 1627^3 (about 4.3e9) entries.
    def kernel(q, pts):
        pytest.fail(f"kernel reached with a table of {q**3} circles")

    monkeypatch.setattr(_kernels, "determined_circle_ids", kernel)
    P = PointSet(make_field(1627), 2, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(BudgetExceededError, match="circles exceeds the budget"):
        determined_circles(P)


def test_rich_circles_against_direct_scan():
    P = random_points(F5, 2, 12, seed=9)
    for t in (1, 2, 3):
        got = rich_circles(P, t)
        for a in range(5):
            for b in range(5):
                for lam in range(5):
                    s = Sphere(Point(F5, (a, b)), lam)
                    n_on = sum(1 for p in P if sphere_contains(s, p))
                    assert (s in got) == (n_on >= t)


# --- determined-circles lower bound ------------------------------------


def test_beck_reports_on_full_planes():
    rep5 = check_beck(generate_points(F5, 2, "full", 0))
    assert rep5.hypothesis_met
    assert rep5.determined_count == 125
    assert rep5.determined_degenerate_count == 25
    assert rep5.bound == 56
    assert rep5.conclusion_holds
    assert rep5.poor_bound_holds

    rep7 = check_beck(generate_points(F7, 2, "full", 0))
    assert rep7.determined_count == 294
    assert rep7.determined_degenerate_count == 0
    assert rep7.bound == 153
    assert rep7.conclusion_holds


def test_beck_bounds_are_ceilings():
    assert check_beck(generate_points(F5, 2, "full", 0)).bound == 56  # ceil(500/9)
    assert check_beck(generate_points(F7, 2, "full", 0)).bound == 153
    F11 = make_field(11)
    rep = check_beck(generate_points(F11, 2, "random:55", 4))
    assert rep.bound == 592
    F13 = make_field(13)
    rep = check_beck(generate_points(F13, 2, "random:65", 4))
    assert rep.bound == 977


def test_beck_on_a_line_is_vacuous_but_consistent():
    rep = check_beck(generate_points(F5, 2, "line", 0))
    assert not rep.hypothesis_met  # 5 points < 5q = 25
    assert rep.determined_count == 0
    assert rep.poor_circle_count == 125  # every circle has at most 2 line points


@pytest.mark.parametrize("q", [5, 7])
def test_beck_holds_on_random_qualifying_sets(q):
    field = make_field(q)
    for trial in range(6):
        P = generate_points(field, 2, f"random:{5 * q}", trial + 100)
        rep = check_beck(P)
        assert rep.hypothesis_met
        assert rep.conclusion_holds
        assert rep.poor_bound_holds
        assert 9 * rep.poor_circle_count < 5 * q**3


def test_beck_requires_plane():
    with pytest.raises(ValueError, match="d = 2"):
        check_beck(PointSet(F5, 3, [(0, 0, 0)]))
