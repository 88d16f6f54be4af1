"""Checkers for the incidence bound and its geometric corollaries.

Every verdict is decided in exact integer or rational arithmetic; the
reported theta statistic is a floating display value only and never
feeds a comparison. A ``violated`` verdict from any checker means the
implementation is broken somewhere, since the statements being
checked are theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .errors import BudgetExceededError, ContextMismatchError, InternalCheckError
from .field import FieldElement, legendre_symbol
from .geometry import Point, Sphere
from .incidence import PointSet, SphereFamily, count_incidences

DEFAULT_TRIPLE_BUDGET = 50_000_000
DEFAULT_CIRCLE_BUDGET = 5_000_000


@dataclass(frozen=True)
class IncidenceReport:
    q: int
    d: int
    n_points: int
    n_spheres: int
    incidences: int
    main_term: Fraction
    error_bound_sq: int
    theta: float
    status: str
    engine: str


@dataclass(frozen=True)
class PinnedReport:
    q: int
    d: int
    n_points: int
    parameter: Fraction
    hypothesis_met: bool
    conclusion_holds: bool
    per_pin: dict
    average: Fraction
    rich_pins: int


@dataclass(frozen=True)
class BeckReport:
    q: int
    n_points: int
    hypothesis_met: bool
    determined_count: int
    determined_degenerate_count: int
    bound: int
    conclusion_holds: bool
    poor_circle_count: int
    poor_bound_holds: bool


def check_incidence_bound(
    points: PointSet, spheres: SphereFamily, engine: str = "bucketed"
) -> IncidenceReport:
    """Deviation of the incidence count from |P||S|/q, checked exactly.

    The bound asserts (q*I - |P||S|)^2 < |P||S| * q^(d+2). An empty
    side makes the statement vacuous. Theta, the deviation divided by
    its proven ceiling, is reported for display; |theta| < 1 iff the
    bound holds.
    """
    q = points.q
    d = points.d
    inc = count_incidences(points, spheres, engine=engine)
    ps = len(points) * len(spheres)
    main = Fraction(ps, q)
    bound_sq = ps * q ** (d + 2)
    if ps == 0:
        status = "vacuous"
        theta = 0.0
    else:
        status = "holds" if (q * inc - ps) ** 2 < bound_sq else "violated"
        theta = (inc - ps / q) / math.sqrt(ps * q**d)
    return IncidenceReport(
        q=q,
        d=d,
        n_points=len(points),
        n_spheres=len(spheres),
        incidences=inc,
        main_term=main,
        error_bound_sq=bound_sq,
        theta=theta,
        status=status,
        engine=engine,
    )


def pinned_set(points: PointSet, pin: Point) -> set[FieldElement]:
    """All distances from the pin to members of the point set."""
    if pin.field != points.field or pin.dim != points.d:
        raise ContextMismatchError("pin does not match the point set context")
    q = points.q
    py = pin.coords
    out = set()
    for p in points:
        s = 0
        for a, b in zip(p.coords, py):
            t = a - b
            s += t * t
        out.add(FieldElement(points.field, s % q))
    return out


def pinned_cover(points: PointSet, pin: Point) -> SphereFamily:
    """Spheres centered at the pin, one per pinned distance.

    Their point sets are pairwise disjoint, they jointly cover the
    point set, and the family meets it in exactly |P| incidences.
    """
    dists = sorted(e.value for e in pinned_set(points, pin))
    return SphereFamily(
        points.field,
        points.d,
        [Sphere(pin, lam) for lam in dists],
    )


def _pin_sizes(points: PointSet) -> dict[Point, int]:
    """Number of distinct pinned distances for every pin in the set."""
    q = points.q
    coords = [p.coords for p in points]
    sizes = {}
    for p, cp in zip(points, coords):
        seen = set()
        for cq in coords:
            s = 0
            for a, b in zip(cp, cq):
                t = a - b
                s += t * t
            seen.add(s % q)
        sizes[p] = len(seen)
    return sizes


def _as_unit_fraction(value) -> Fraction:
    f = Fraction(value)
    if not 0 < f < 1:
        raise ValueError(f"parameter must lie strictly between 0 and 1, got {f}")
    return f


def check_pinned_average(points: PointSet, epsilon) -> PinnedReport:
    """Average pinned-distance count, against the threshold (1 - eps) * q.

    Hypothesis: |P|^2 * eps^2 >= (1 - eps) * q^(d+1), the squared
    form of the size condition. Conclusion: the average over pins of
    the number of distinct distances exceeds (1 - eps) * q. Both
    comparisons run in exact rational arithmetic.
    """
    eps = _as_unit_fraction(epsilon)
    q = points.q
    d = points.d
    n = len(points)
    sizes = _pin_sizes(points)
    total = sum(sizes.values())
    hypothesis = Fraction(n * n) * eps**2 >= (1 - eps) * q ** (d + 1)
    average = Fraction(total, n) if n else Fraction(0)
    conclusion = average > (1 - eps) * q
    return PinnedReport(
        q=q,
        d=d,
        n_points=n,
        parameter=eps,
        hypothesis_met=hypothesis,
        conclusion_holds=conclusion,
        per_pin={p: c for p, c in sizes.items()},
        average=average,
        rich_pins=sum(1 for c in sizes.values() if Fraction(c) > (1 - eps) * q),
    )


def check_pinned_fraction(points: PointSet, alpha) -> PinnedReport:
    """Fraction of pins seeing many distances, in the two-parameter form.

    Hypothesis: |P|^2 * alpha^4 >= (1 - alpha^2) * q^(d+1). Conclusion:
    at least (1 - alpha) * |P| pins each see more than (1 - alpha) * q
    distinct distances.
    """
    a = _as_unit_fraction(alpha)
    q = points.q
    d = points.d
    n = len(points)
    sizes = _pin_sizes(points)
    hypothesis = Fraction(n * n) * a**4 >= (1 - a * a) * q ** (d + 1)
    rich = sum(1 for c in sizes.values() if Fraction(c) > (1 - a) * q)
    conclusion = Fraction(rich) >= (1 - a) * n
    total = sum(sizes.values())
    return PinnedReport(
        q=q,
        d=d,
        n_points=n,
        parameter=a,
        hypothesis_met=hypothesis,
        conclusion_holds=conclusion,
        per_pin={p: c for p, c in sizes.items()},
        average=Fraction(total, n) if n else Fraction(0),
        rich_pins=rich,
    )


def _require_plane_set(points: PointSet) -> None:
    if points.d != 2:
        raise ValueError("requires d = 2")


def _sphere_from_id(points: PointSet, cid: int) -> Sphere:
    q = points.q
    lam = cid % q
    cb = (cid // q) % q
    ca = cid // (q * q)
    return Sphere(Point(points.field, (ca, cb)), lam)


def determined_circles(
    points: PointSet, budget: int = DEFAULT_TRIPLE_BUDGET
) -> set[Sphere]:
    """Circles through at least one non-collinear triple of the set."""
    _require_plane_set(points)
    q = points.q
    n = len(points)
    triples = n * (n - 1) * (n - 2) // 6
    if triples > budget:
        raise BudgetExceededError(
            f"{triples} triples exceed the budget of {budget}"
        )
    # The kernel flags circles in a table of all q^3 of them.
    if q**3 > DEFAULT_CIRCLE_BUDGET:
        raise BudgetExceededError(
            f"a table of {q**3} circles exceeds the budget of {DEFAULT_CIRCLE_BUDGET}"
        )
    ids = _kernels.determined_circle_ids(q, points.flat())
    return {_sphere_from_id(points, cid) for cid in ids}


def rich_circles(
    points: PointSet, t: int, budget: int = DEFAULT_CIRCLE_BUDGET
) -> set[Sphere]:
    """Circles containing at least t points of the set, by full scan."""
    _require_plane_set(points)
    q = points.q
    if q**3 > budget:
        raise BudgetExceededError(
            f"scanning {q**3} circles exceeds the budget of {budget}"
        )
    counts = _kernels.circle_point_counts(q, points.flat())
    return {
        _sphere_from_id(points, cid)
        for cid, c in enumerate(counts)
        if c >= t
    }


def _all_collinear(coords: list[tuple[int, int]], q: int) -> bool:
    if len(coords) <= 2:
        return True
    ax, ay = coords[0]
    bx, by = coords[1]
    for cx, cy in coords[2:]:
        if ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) % q != 0:
            return False
    return True


def check_beck(
    points: PointSet,
    budget: int = DEFAULT_TRIPLE_BUDGET,
) -> BeckReport:
    """Lower bound on circles determined by a large planar set.

    Hypothesis: |P| >= 5q. Conclusion: the set determines at least
    ceil(4 q^3 / 9) distinct circles. Also reports the count of poor
    circles (at most 2 points each), which must stay below 5 q^3 / 9
    whenever the hypothesis holds.

    Cross-check: the triple-enumeration count must match the full
    circle scan. A circle with 3 or more points of P is determined
    unless it is degenerate (parameter 0) and its points are all
    collinear; a nondegenerate circle meets every line in at most 2
    points, so only degenerate circles need the collinearity filter.
    Disagreement raises InternalCheckError.
    """
    _require_plane_set(points)
    q = points.q
    n = len(points)
    triples = n * (n - 1) * (n - 2) // 6
    if triples > budget or q**3 > DEFAULT_CIRCLE_BUDGET:
        raise BudgetExceededError("instance too large for the configured budgets")
    flat = points.flat()
    det_ids = set(_kernels.determined_circle_ids(q, flat))
    counts = _kernels.circle_point_counts(q, flat)

    poor = sum(1 for c in counts if c <= 2)
    refined = set()
    for cid, c in enumerate(counts):
        if c < 3:
            continue
        if cid % q == 0:
            on = _points_on_circle(points, cid)
            if _all_collinear(on, q):
                continue
        refined.add(cid)
    if refined != det_ids:
        raise InternalCheckError(
            "triple enumeration and circle scan disagree: "
            f"{len(det_ids)} vs {len(refined)} circles"
        )

    bound = -(-4 * q**3 // 9)  # ceil(4 q^3 / 9)
    hypothesis = n >= 5 * q
    conclusion = len(det_ids) >= bound
    poor_ok = 9 * poor < 5 * q**3
    return BeckReport(
        q=q,
        n_points=n,
        hypothesis_met=hypothesis,
        determined_count=len(det_ids),
        determined_degenerate_count=sum(1 for cid in det_ids if cid % q == 0),
        bound=bound,
        conclusion_holds=conclusion,
        poor_circle_count=poor,
        poor_bound_holds=poor_ok,
    )


def _points_on_circle(points: PointSet, cid: int) -> list[tuple[int, int]]:
    q = points.q
    lam = cid % q
    cb = (cid // q) % q
    ca = cid // (q * q)
    out = []
    for p in points:
        px, py = p.coords
        if ((px - ca) ** 2 + (py - cb) ** 2) % q == lam:
            out.append((px, py))
    return out


def legendre_minus_one(q: int) -> int:
    """Legendre symbol of -1; decides the shape of degenerate circles."""
    return legendre_symbol(-1, q)
