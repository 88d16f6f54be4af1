"""Backend parity: every kernel primitive, pure and compiled, on small fixed inputs.

Run in a child whose FQSPHERES_KERNELS is ``compiled``, so that the
package-level kernels are the compiled ones.
"""

from __future__ import annotations

import json
import random
from itertools import product

from refs import random_rows


def _full(q: int, d: int) -> list[int]:
    return [c for p in product(range(q), repeat=d) for c in p]


def _all_spheres(q: int, d: int) -> list[int]:
    return [c for p in product(range(q), repeat=d + 1) for c in p]


def _random_flat(rng: random.Random, q: int, width: int, n: int) -> list[int]:
    return [c for row in random_rows(rng, q, width, n) for c in row]


def parity_cases() -> dict[str, list[tuple]]:
    """Small fixed inputs for every kernel primitive."""
    rng = random.Random("fqbench parity")
    incidence = [
        (7, 2, _full(7, 2), _all_spheres(7, 2)),
        (5, 3, _full(5, 3), _all_spheres(5, 3)),
        (11, 2, _random_flat(rng, 11, 2, 30), _random_flat(rng, 11, 3, 200)),
    ]
    plane = [(7, _full(7, 2)), (13, _random_flat(rng, 13, 2, 40))]
    return {
        "incidences_naive": incidence,
        "incidences_bucketed": incidence,
        "incidences_lifted": incidence,
        "paraboloid_diff_table": [(7, 2), (5, 3)],
        "determined_circle_ids": plane,
        "circle_point_counts": plane,
    }


def run(out_path: str) -> None:
    """Write to out_path whether each primitive agrees across the backends."""
    import fqspheres._kernels as compiled
    from fqspheres._kernels import _pykernels as pure

    agree = {}
    for name, cases in parity_cases().items():
        c_fn = getattr(compiled, name, None)
        p_fn = getattr(pure, name, None)
        if c_fn is None and p_fn is None:
            continue
        try:
            agree[name] = (
                c_fn is not None
                and p_fn is not None
                and all(p_fn(*args) == c_fn(*args) for args in cases)
            )
        except Exception:
            agree[name] = False
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"backend": compiled.kernel_backend(), "agree": agree}, f)
