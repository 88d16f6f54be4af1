"""Reference values for the counted quantities of each command.

Closed forms where the paper's objects have one, otherwise small
independent computations. Nothing here imports fqspheres. Only counted
quantities are compared, never verdict wording or report bytes.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from pathlib import Path


def digits(i: int, q: int, width: int) -> tuple[int, ...]:
    """Base-q digits of i, most significant first."""
    out = []
    for _ in range(width):
        i, r = divmod(i, q)
        out.append(r)
    return tuple(reversed(out))


def random_rows(rng: random.Random, q: int, width: int, n: int) -> list[tuple[int, ...]]:
    """n distinct rows of ``width`` residues mod q."""
    return [digits(i, q, width) for i in rng.sample(range(q**width), n)]


def write_rows(path: Path, q: int, d: int, kind: str, rows) -> None:
    """A point or sphere file in the program's exchange format."""
    lines = [f"q={q} d={d} kind={kind}"]
    lines += [" ".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def incidence_full_all(q: int, d: int) -> dict:
    """Every point of F_q^d lies on exactly q^d of the q^(d+1) spheres."""
    return {"n_points": q**d, "n_spheres": q ** (d + 1), "incidences": q ** (2 * d)}


def incidences(q: int, d: int, points, spheres) -> dict:
    """Incidence count by a distance histogram per distinct center."""
    lams = defaultdict(list)
    for s in spheres:
        lams[s[:d]].append(s[d])
    total = 0
    for center, wanted in lams.items():
        hist = Counter(sum((a - c) ** 2 for a, c in zip(p, center)) % q for p in points)
        total += sum(hist[lam] for lam in wanted)
    return {"n_points": len(points), "n_spheres": len(spheres), "incidences": total}


def pin_sizes(q: int, points) -> dict[str, int]:
    """Distinct distances seen from each point, keyed like the report's per_pin."""
    return {
        f"{x},{y}": len({((x - u) ** 2 + (y - v) ** 2) % q for u, v in points})
        for x, y in points
    }


def _pinned_form(sizes: dict[str, int], threshold: Fraction) -> dict:
    return {
        "average": Fraction(sum(sizes.values()), len(sizes)),
        "rich_pins": sum(1 for c in sizes.values() if c > threshold),
        "per_pin": sizes,
    }


def pinned(q: int, points, epsilon: Fraction, alpha: Fraction) -> dict:
    """Pin sizes and their summaries for both forms of the pinned check.

    The thresholds (1 - eps) q and (1 - alpha) q are kept non-integral
    by the workloads, so strict and non-strict richness agree.
    """
    sizes = pin_sizes(q, points)
    return _flatten(
        {
            "n_points": len(points),
            "average_form": _pinned_form(sizes, (1 - epsilon) * q),
            "fraction_form": _pinned_form(sizes, (1 - alpha) * q),
        }
    )


def pinned_full_plane(q: int) -> dict:
    """On the full plane every pin sees all q distances."""
    sizes = {f"{x},{y}": q for x, y in product(range(q), repeat=2)}
    form = {"average": Fraction(q), "rich_pins": q * q, "per_pin": sizes}
    return _flatten({"n_points": q * q, "average_form": form, "fraction_form": form})


def beck_full_plane(q: int) -> dict:
    """Determined and poor circles of the full plane.

    Every circle with parameter lam != 0 has q -/+ 1 >= 3 points. The
    degenerate circles (lam = 0) are two crossing lines when
    q = 1 mod 4, so they are determined too; when q = 3 mod 4 they are
    single points, hence poor.
    """
    if q % 4 == 1:
        determined, degenerate, poor = q**3, q * q, 0
    else:
        determined, degenerate, poor = q**3 - q * q, 0, q * q
    return _beck(q * q, determined, degenerate, poor)


def _beck(n: int, determined: int, degenerate: int, poor: int) -> dict:
    return {
        "n_points": n,
        "determined_count": determined,
        "determined_degenerate_count": degenerate,
        "poor_circle_count": poor,
    }


def _collinear(points, q: int) -> bool:
    (ax, ay), rest = points[0], points[1:]
    for bx, by in rest:
        if (bx, by) != (ax, ay):
            return all(
                ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) % q == 0 for cx, cy in rest
            )
    return True


def beck_census(q: int, points) -> dict:
    """Determined and poor circles of a planar set, by scanning all q^3 circles.

    A circle holding 3 or more points is determined unless it is
    degenerate (lam = 0) and those points are collinear: a nondegenerate
    circle meets a line in at most 2 points.
    """
    determined = degenerate = poor = 0
    for a, b in product(range(q), repeat=2):
        dist = [((x - a) ** 2 + (y - b) ** 2) % q for x, y in points]
        hist = [0] * q
        for lam in dist:
            hist[lam] += 1
        poor += sum(1 for c in hist if c <= 2)
        determined += sum(1 for c in hist[1:] if c >= 3)
        if hist[0] >= 3 and not _collinear([p for p, t in zip(points, dist) if t == 0], q):
            determined += 1
            degenerate += 1
    return _beck(len(points), determined, degenerate, poor)


def lemma_raa(q: int, d: int) -> dict:
    """The lifted paraboloid's difference counts: q^d at 0, q^(d-1) elsewhere."""
    return {
        "cells": q ** (d + 1),
        "mismatches": 0,
        "value_at_zero": q**d,
        "max_nonzero": q ** (d - 1),
    }


def identities(trials: int) -> dict:
    return {"trials": trials, "mass_identity_failures": 0, "energy_identity_failures": 0}


def _flatten(expected: dict, prefix: str = "") -> dict:
    """Nested groups become dotted paths; per_pin maps stay whole values."""
    out = {}
    for key, value in expected.items():
        if isinstance(value, dict) and key != "per_pin":
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _as_fraction(value):
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def compare(results: dict, expected: dict) -> list[str]:
    """Mismatches between a report's results and expected values.

    ``expected`` maps dotted paths into ``results`` to values. Fractions
    are compared with the report's num/den strings parsed.
    """
    problems = []
    for path, want in expected.items():
        got = results
        for key in path.split("."):
            got = got.get(key) if isinstance(got, dict) else None
        if isinstance(want, Fraction):
            got = _as_fraction(got)
        if got != want:
            problems.append(f"{path}: got {_short(got)}, expected {_short(want)}")
    return problems


def check_point_file(path: Path, q: int, d: int, rows) -> list[str]:
    """Problems with a written point file, against the rows it must hold."""
    try:
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    header = f"q={q} d={d} kind=points"
    problems = []
    if not lines or lines[0].split() != header.split():
        problems.append(f"{path.name}: header is not {header!r}")
    try:
        got = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
    except ValueError:
        return problems + [f"{path.name}: non-integer row"]
    if len(got) != len(set(got)):
        problems.append(f"{path.name}: duplicate rows")
    if set(got) != set(rows):
        problems.append(f"{path.name}: rows differ from the expected {len(rows)}")
    return problems
