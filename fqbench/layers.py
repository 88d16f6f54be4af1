"""The program's layer boundaries, and the per-layer metrics of the traced run.

A traced pass wraps each boundary function below in the namespace its
caller looks it up in, and nothing per object. ``geometry``, ``field``
and ``rng`` run only inside these boundaries and are charged to their
callers' self time. A boundary that no longer exists is skipped: it
yields no span and no error.
"""

from __future__ import annotations

import importlib
import os
from math import comb

KERNELS = (
    "incidences_naive",
    "incidences_bucketed",
    "incidences_lifted",
    "paraboloid_diff_table",
    "determined_circle_ids",
    "circle_point_counts",
)

# Seconds per pass spent in each CLI command, taken from untraced passes.
COMMANDS = ("incidence", "pinned", "beck", "lemma-raa", "identities", "gen")

THEOREMS = "theorems.self_s"


def command_metric(command: str) -> str:
    return command.replace("-", "_") + "_s"


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _generated(counts, args, kwargs, result) -> None:
    counts["generators.objects"] += len(result)


def _constructed(counts, args, kwargs, result) -> None:
    counts["incidence.objects"] += len(args[0])


def _read(counts, args, kwargs, result) -> None:
    counts["pointfile.read_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _written(counts, args, kwargs, result) -> None:
    counts["pointfile.write_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _rep_pairs(counts, args, kwargs, result) -> None:
    a = _arg(args, kwargs, 0, "A")
    b = _arg(args, kwargs, 1, "B")
    counts["incidence.rep_pairs"] += len(a) * len(b)


def _pin_pairs(counts, args, kwargs, result) -> None:
    n = len(_arg(args, kwargs, 0, "points"))
    counts["theorems.pin_pairs"] += n * n


def _beck(counts, args, kwargs, result) -> None:
    points = _arg(args, kwargs, 0, "points")
    counts["theorems.triples"] += comb(len(points), 3)
    counts["theorems.circles_scanned"] += points.q**3


def _kernel_counter(name: str):
    """Calls, work and computed input bytes (8 per flat residue) of a kernel.

    Work is |P||S| for the incidence engines, q^(2d) for the difference
    table, C(n,3) for the triple enumeration and q^2 n for the circle
    census.
    """
    prefix = f"kernels.{name}."

    def count(counts, args, kwargs, result) -> None:
        q = _arg(args, kwargs, 0, "q")
        counts[prefix + "calls"] += 1
        if name.startswith("incidences_"):
            d = _arg(args, kwargs, 1, "d")
            pts = _arg(args, kwargs, 2, "pts")
            sph = _arg(args, kwargs, 3, "sph")
            m = len(sph) // (d + 1)
            counts[prefix + "work"] += (len(pts) // d) * m
            counts[prefix + "bytes_in"] += 8 * (len(pts) + len(sph))
            if name == "incidences_bucketed":
                centers = len(set(zip(*(sph[k :: d + 1] for k in range(d)))))
                counts[prefix + "spheres"] += m
                counts[prefix + "bins"] += q * centers
        elif name == "paraboloid_diff_table":
            counts[prefix + "work"] += q ** (2 * _arg(args, kwargs, 1, "d"))
        else:
            pts = _arg(args, kwargs, 1, "pts")
            n = len(pts) // 2
            counts[prefix + "bytes_in"] += 8 * len(pts)
            if name == "determined_circle_ids":
                counts[prefix + "work"] += comb(n, 3)
                counts[prefix + "circles"] += len(result)
            else:
                counts[prefix + "work"] += q * q * n

    return count


# (module:attribute path, metric charged with its self time, counter)
BOUNDARIES = (
    ("fqspheres.cli:render", "cli.render_s", None),
    ("fqspheres.cli:generate_points", "generators.self_s", _generated),
    ("fqspheres.cli:generate_spheres", "generators.self_s", _generated),
    ("fqspheres.cli:all_spheres", "generators.self_s", _generated),
    ("fqspheres.cli:read_set", "pointfile.read_s", _read),
    ("fqspheres.cli:write_points", "pointfile.write_s", _written),
    ("fqspheres.incidence:PointSet.__init__", "incidence.construct_s", _constructed),
    ("fqspheres.incidence:SphereFamily.__init__", "incidence.construct_s", _constructed),
    ("fqspheres.incidence:PointSet.flat", "incidence.flat_s", None),
    ("fqspheres.incidence:SphereFamily.flat", "incidence.flat_s", None),
    ("fqspheres.theorems:count_incidences", "incidence.dispatch_s", None),
    ("fqspheres.cli:lifted_diff_table", "incidence.dispatch_s", None),
    ("fqspheres.cli:rep_sum", "incidence.rep_s", _rep_pairs),
    ("fqspheres.cli:additive_energy", "incidence.rep_s", None),
    ("fqspheres.incidence:rep_sum", "incidence.rep_s", _rep_pairs),
    ("fqspheres.incidence:rep_diff", "incidence.rep_s", _rep_pairs),
    ("fqspheres.cli:check_incidence_bound", THEOREMS, None),
    ("fqspheres.cli:check_pinned_average", THEOREMS, None),
    ("fqspheres.cli:check_pinned_fraction", THEOREMS, None),
    ("fqspheres.cli:check_beck", THEOREMS, _beck),
    ("fqspheres.theorems:_pin_sizes", THEOREMS, _pin_pairs),
) + tuple(
    (f"fqspheres._kernels:{k}", f"kernels.{k}.s", _kernel_counter(k)) for k in KERNELS
)

ROOT = ("fqspheres.cli:main", "cli.self_s")


def install(tracer) -> list[str]:
    """Wrap every boundary that exists; returns the ones wrapped."""
    wrapped = []
    for target, metric, counter in BOUNDARIES:
        module, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module)
        except ImportError:
            continue
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            continue
        setattr(owner, attr, tracer.wrap(fn, target, metric, counter))
        wrapped.append(target)
    return wrapped


def _per_layer() -> list[tuple[str, str, str]]:
    rows = [
        ("cli.self_s", "s", "lower"),
        ("cli.render_s", "s", "lower"),
        ("generators.self_s", "s", "lower"),
        ("generators.objects", "count", "lower"),
        ("pointfile.read_s", "s", "lower"),
        ("pointfile.read_bytes", "bytes", "lower"),
        ("pointfile.write_s", "s", "lower"),
        ("pointfile.write_bytes", "bytes", "lower"),
        ("incidence.construct_s", "s", "lower"),
        ("incidence.flat_s", "s", "lower"),
        ("incidence.objects", "count", "lower"),
        ("incidence.dispatch_s", "s", "lower"),
        ("incidence.rep_s", "s", "lower"),
        ("incidence.rep_pairs", "count", "lower"),
    ]
    for k in KERNELS:
        rows += [
            (f"kernels.{k}.s", "s", "lower"),
            (f"kernels.{k}.calls", "count", "lower"),
            (f"kernels.{k}.work", "count", "lower"),
            (f"kernels.{k}.bytes_in", "bytes_computed", "lower"),
        ]
    rows += [
        ("kernels.incidences_bucketed.bins_used_ratio", "ratio", "higher"),
        ("kernels.determined_circle_ids.yield", "ratio", "higher"),
        (THEOREMS, "s", "lower"),
        ("theorems.pin_pairs", "count", "lower"),
        ("theorems.triples", "count", "lower"),
        ("theorems.circles_scanned", "count", "lower"),
        ("trace.bookkeeping_s", "s", "lower"),
        ("trace.pass_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    rows += [(command_metric(c), "s", "lower") for c in COMMANDS]
    return rows


# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = _per_layer()


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def pass_metrics(seconds: dict[str, float], counts: dict[str, int]) -> dict:
    """Per-layer metrics of one traced pass, except trace.pass_s,
    trace.overhead_s and the per-command ones, which run.py adds.

    ``seconds`` is the self time per metric from ``spans.metric_seconds``.
    A layer that did not run reads 0.
    """
    out = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            out[name] = seconds.get(name, 0.0)
        elif unit != "ratio":
            out[name] = counts.get(name, 0)
    bucketed = "kernels.incidences_bucketed."
    out[bucketed + "bins_used_ratio"] = _ratio(
        counts.get(bucketed + "spheres", 0), counts.get(bucketed + "bins", 0)
    )
    circles = "kernels.determined_circle_ids."
    out[circles + "yield"] = _ratio(
        counts.get(circles + "circles", 0), counts.get(circles + "work", 0)
    )
    return out
