"""The reference checks catch wrong counts fed to them directly."""

import json
import random
from fractions import Fraction
from itertools import product

import refs
from run import step_problems
from workloads import Step


def full_plane(q):
    return list(product(range(q), repeat=2))


def test_compare_accepts_right_counts_and_names_a_wrong_one():
    expected = refs.incidence_full_all(7, 2)
    right = {"n_points": 49, "n_spheres": 343, "incidences": 7**4, "status": "holds"}
    assert refs.compare(right, expected) == []
    wrong = dict(right, incidences=7**4 - 1)
    (problem,) = refs.compare(wrong, expected)
    assert problem.startswith("incidences: got 2400")


def test_compare_parses_fractions_and_walks_nested_groups():
    expected = refs.pinned_full_plane(5)
    report = {
        "n_points": 25,
        "average_form": {"average": "5/1", "rich_pins": 25,
                         "per_pin": {f"{x},{y}": 5 for x, y in full_plane(5)}},
    }
    report["fraction_form"] = dict(report["average_form"])
    assert refs.compare(report, expected) == []
    report["fraction_form"] = dict(report["average_form"], average="24/5")
    assert refs.compare(report, expected) == [
        "fraction_form.average: got Fraction(24, 5), expected Fraction(5, 1)"
    ]
    report["fraction_form"] = dict(report["average_form"], average="not a number")
    assert len(refs.compare(report, expected)) == 1


def test_one_wrong_pin_size_is_caught():
    rng = random.Random(5)
    points = refs.random_rows(rng, 13, 2, 60)
    expected = refs.pinned(13, points, Fraction(1, 2), Fraction(4, 5))
    sizes = dict(expected["average_form.per_pin"])
    report = {"n_points": 60,
              "average_form": {"average": str(expected["average_form.average"]),
                               "rich_pins": expected["average_form.rich_pins"],
                               "per_pin": sizes},
              "fraction_form": {"average": str(expected["fraction_form.average"]),
                                "rich_pins": expected["fraction_form.rich_pins"],
                                "per_pin": sizes}}
    assert refs.compare(report, expected) == []
    key = next(iter(sizes))
    report["average_form"]["per_pin"] = dict(sizes, **{key: sizes[key] + 1})
    assert [p.split(":")[0] for p in refs.compare(report, expected)] == ["average_form.per_pin"]


def test_census_reference_matches_the_closed_forms():
    for q in (5, 7, 13):  # 1, 3 and 1 mod 4
        census = refs.beck_census(q, full_plane(q))
        assert census == refs.beck_full_plane(q)


def test_incidence_reference_matches_the_closed_form():
    for q, d in ((5, 2), (3, 3)):
        points = list(product(range(q), repeat=d))
        spheres = list(product(range(q), repeat=d + 1))
        assert refs.incidences(q, d, points, spheres) == refs.incidence_full_all(q, d)


def test_point_file_check_catches_missing_and_duplicate_rows(tmp_path):
    rows = full_plane(3)
    path = tmp_path / "gen.txt"
    refs.write_rows(path, 3, 2, "points", rows)
    assert refs.check_point_file(path, 3, 2, rows) == []
    refs.write_rows(path, 3, 2, "points", rows[:-1] + [rows[0]])
    assert len(refs.check_point_file(path, 3, 2, rows)) == 2
    refs.write_rows(path, 5, 2, "points", rows)
    assert len(refs.check_point_file(path, 3, 2, rows)) == 1


def test_a_command_fails_on_a_wrong_count_a_violation_or_an_exit_code():
    step = Step(["lemma-raa"], lambda results: refs.compare(results, refs.lemma_raa(7, 2)))
    results = {"cells": 343, "mismatches": 0, "value_at_zero": 49, "max_nonzero": 7}
    report = json.dumps({"verdict": "holds", "results": results})
    ok = {"error": None, "rc": 0, "stderr": "", "stdout": report}
    assert step_problems(step, ok) == []
    wrong = dict(ok, stdout=ok["stdout"].replace('"mismatches": 0', '"mismatches": 3'))
    assert step_problems(step, wrong) == ["mismatches: got 3, expected 0"]
    violated = dict(ok, stdout=ok["stdout"].replace("holds", "violated"))
    assert step_problems(step, violated) == ["verdict is violated"]
    assert step_problems(step, dict(ok, rc=2, stderr="error: bad"))[0].startswith("exit code 2")
    crashed = dict(ok, error="Traceback\nValueError: x")
    assert step_problems(step, crashed) == ["raised ValueError: x"]
