"""The benchmark's workloads: kernel backend, CLI commands and expected counts.

Input files are drawn from the benchmark's own RNG (``random.Random``
seeded from --seed), never from fqspheres.rng, so a change to the
program's generators cannot change them. README.md gives the reason
for each workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable

import refs


@dataclass(frozen=True)
class Step:
    argv: list[str]
    # Problems found in the report's "results" object; empty when correct.
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    backend: str
    steps: list[Step]


def _expect(expected: dict) -> Callable[[dict], list[str]]:
    return partial(refs.compare, expected=expected)


def census(seed: int, work: Path) -> Workload:
    """Full space against all spheres: the paper's headline exact case."""
    steps = [
        Step(
            ["incidence", "--q", str(q), "--d", str(d), "--shape", "full",
             "--spheres", "all", "--engine", "bucketed", "--seed", str(seed)],
            _expect(refs.incidence_full_all(q, d)),
        )
        for q, d in ((61, 2), (17, 3))
    ]
    return Workload("compiled", steps)


def plane_checks(seed: int, work: Path) -> Workload:
    """Pinned-distance and circle checks on planar sets of at most 600 points."""
    rng = random.Random(f"plane-checks {seed}")
    q = 41
    pinned_pts = refs.random_rows(rng, q, 2, 600)
    beck_pts = refs.random_rows(rng, q, 2, 300)
    pinned_file = work / "pinned.txt"
    beck_file = work / "beck.txt"
    refs.write_rows(pinned_file, q, 2, "points", pinned_pts)
    refs.write_rows(beck_file, q, 2, "points", beck_pts)
    # 600 points meet both hypotheses at q = 41 with these parameters,
    # and both thresholds, (1 - eps) q and (1 - alpha) q, are non-integral.
    epsilon, alpha = Fraction(1, 2), Fraction(4, 5)
    steps = [
        Step(["pinned", "--q", "23", "--shape", "full"],
             _expect(refs.pinned_full_plane(23))),
        Step(["pinned", "--points", str(pinned_file),
              "--epsilon", str(epsilon), "--alpha", str(alpha)],
             _expect(refs.pinned(q, pinned_pts, epsilon, alpha))),
        # 19 = 3 mod 4: degenerate circles are single points.
        Step(["beck", "--q", "19", "--shape", "full"],
             _expect(refs.beck_full_plane(19))),
        # 41 = 1 mod 4: degenerate circles are pairs of crossing lines.
        Step(["beck", "--points", str(beck_file)],
             _expect(refs.beck_census(q, beck_pts))),
    ]
    return Workload("compiled", steps)


def _gen_check(path: Path, q: int, d: int, results: dict) -> list[str]:
    rows = list(product(range(q), repeat=d))
    return refs.compare(results, {"n_points": len(rows)}) + refs.check_point_file(
        path, q, d, rows
    )


def oracles_pure(seed: int, work: Path) -> Workload:
    """The independent oracles on the pure backend, fed from files."""
    rng = random.Random(f"oracles-pure {seed}")
    q = 41
    points = refs.random_rows(rng, q, 2, 150)
    # About 3 spheres per center, so most histogram bins go unread.
    spheres = refs.random_rows(rng, q, 3, 5000)
    point_file = work / "points.txt"
    sphere_file = work / "spheres.txt"
    refs.write_rows(point_file, q, 2, "points", points)
    refs.write_rows(sphere_file, q, 2, "spheres", spheres)
    counted = _expect(refs.incidences(q, 2, points, spheres))
    steps = [
        Step(["incidence", "--points", str(point_file), "--spheres", str(sphere_file),
              "--engine", engine], counted)
        for engine in ("naive", "bucketed", "lifted")
    ]
    steps += [
        Step(["lemma-raa", "--q", str(lq), "--d", str(ld)], _expect(refs.lemma_raa(lq, ld)))
        for lq, ld in ((7, 3), (23, 2))
    ]
    # A fixed program seed keeps the drawn set sizes, and so the work,
    # the same for every benchmark seed.
    trials = 8
    steps.append(
        Step(["identities", "--q", "31", "--d", "2", "--trials", str(trials),
              "--max-size", "150", "--seed", "1"],
             _expect(refs.identities(trials)))
    )
    gen_q, gen_d = 31, 3
    gen_file = work / "gen.txt"
    steps.append(
        Step(["gen", "--q", str(gen_q), "--d", str(gen_d), "--shape", "full",
              "--out", str(gen_file)],
             partial(_gen_check, gen_file, gen_q, gen_d))
    )
    return Workload("pure", steps)


WORKLOADS = {
    "census": census,
    "plane-checks": plane_checks,
    "oracles-pure": oracles_pure,
}
