"""Pure Python counting kernels.

Same signatures and results as the compiled twin ``_ckernels``; used
when the extension is unavailable or FQSPHERES_KERNELS=pure is set.

Inputs are flat lists of canonical residues: points are row-major
n*d, spheres are row-major m*(d+1) with the center first and the
radius parameter last. Callers validate; kernels trust their input.
Circle ids encode (a, b, lam) as (a*q + b)*q + lam.

Python integers never overflow, so these kernels accept any q. The
compiled twin computes in int64 and raises ValueError for a q (or d)
outside the range where that arithmetic is exact, and for an input
value that is not a residue in [0, q).
"""

from __future__ import annotations

from itertools import product

BACKEND_NAME = "pure"


def incidences_naive(q: int, d: int, pts: list[int], sph: list[int]) -> int:
    """Direct double loop: test every (point, sphere) pair."""
    n = len(pts) // d
    stride = d + 1
    m = len(sph) // stride
    total = 0
    if d == 2:
        points = list(zip(pts[0::2], pts[1::2]))
        for j in range(m):
            off = j * stride
            cx = sph[off]
            cy = sph[off + 1]
            lam = sph[off + 2]
            for px, py in points:
                if ((px - cx) ** 2 + (py - cy) ** 2) % q == lam:
                    total += 1
        return total
    points = [tuple(pts[i * d : (i + 1) * d]) for i in range(n)]
    for j in range(m):
        off = j * stride
        center = sph[off : off + d]
        lam = sph[off + d]
        for pt in points:
            s = 0
            for k in range(d):
                t = pt[k] - center[k]
                s += t * t
            if s % q == lam:
                total += 1
    return total


def incidences_bucketed(q: int, d: int, pts: list[int], sph: list[int]) -> int:
    """Group spheres by center, then histogram distances from each center."""
    stride = d + 1
    m = len(sph) // stride
    lams_by_center: dict[tuple[int, ...], list[int]] = {}
    for j in range(m):
        off = j * stride
        lams_by_center.setdefault(tuple(sph[off : off + d]), []).append(
            sph[off + d]
        )
    total = 0
    if d == 2:
        points = list(zip(pts[0::2], pts[1::2]))
        for (cx, cy), lams in lams_by_center.items():
            hist = [0] * q
            for px, py in points:
                hist[((px - cx) ** 2 + (py - cy) ** 2) % q] += 1
            for lam in lams:
                total += hist[lam]
        return total
    n = len(pts) // d
    points = [tuple(pts[i * d : (i + 1) * d]) for i in range(n)]
    for center, lams in lams_by_center.items():
        hist = [0] * q
        for pt in points:
            s = 0
            for k in range(d):
                t = pt[k] - center[k]
                s += t * t
            hist[s % q] += 1
        for lam in lams:
            total += hist[lam]
    return total


def incidences_lifted(q: int, d: int, pts: list[int], sph: list[int]) -> int:
    """Count pairs whose lifted difference lands on the paraboloid.

    Points become (x, 0) rows, spheres become (center, -lam) rows;
    the pair is incident iff the row difference has its last
    coordinate equal to the sum of squares of the first d.
    """
    n = len(pts) // d
    stride = d + 1
    m = len(sph) // stride
    brows = [tuple(pts[i * d : (i + 1) * d]) + (0,) for i in range(n)]
    crows = [
        tuple(sph[j * stride : j * stride + d]) + ((-sph[j * stride + d]) % q,)
        for j in range(m)
    ]
    total = 0
    for b in brows:
        for c in crows:
            s = 0
            for k in range(d):
                t = b[k] - c[k]
                s += t * t
            if s % q == (b[d] - c[d]) % q:
                total += 1
    return total


def paraboloid_diff_table(q: int, d: int) -> list[int]:
    """Difference-count table of the lifted paraboloid against itself.

    Entry at index i1*q^d + i2*q^(d-1) + ... + i_{d+1} counts the
    ordered pairs (a, b) of paraboloid points with a - b == i.
    Computed by direct enumeration of all q^(2d) pairs.
    """
    rows = []
    for u in product(range(q), repeat=d):
        s = 0
        for c in u:
            s += c * c
        rows.append(u + (s % q,))
    counts = [0] * q ** (d + 1)
    for a in rows:
        for b in rows:
            idx = 0
            for k in range(d + 1):
                idx = idx * q + (a[k] - b[k]) % q
            counts[idx] += 1
    return counts


def determined_circle_ids(q: int, pts: list[int]) -> list[int]:
    """Sorted ids of circles through some non-collinear triple of pts.

    Inlines the three-point solve: the system determinant is 4 times
    the collinearity cross product, so collinear triples are skipped
    and every other triple contributes exactly one circle.
    """
    n = len(pts) // 2
    xs = pts[0::2]
    ys = pts[1::2]
    inv = [0] * q
    for a in range(1, q):
        inv[a] = pow(a, q - 2, q)
    flags = bytearray(q * q * q)
    for i in range(n - 2):
        ax = xs[i]
        ay = ys[i]
        s1 = ax * ax + ay * ay
        for j in range(i + 1, n - 1):
            bx = xs[j]
            by = ys[j]
            dx12 = ax - bx
            dy12 = ay - by
            r1 = s1 - bx * bx - by * by
            for k in range(j + 1, n):
                cx = xs[k]
                cy = ys[k]
                dy13 = ay - cy
                disc = (dx12 * dy13 - (ax - cx) * dy12) % q
                if disc == 0:
                    continue
                r2 = s1 - cx * cx - cy * cy
                dinv = inv[4 * disc % q]
                ca = 2 * (r1 * dy13 - r2 * dy12) * dinv % q
                cb = 2 * (dx12 * r2 - (ax - cx) * r1) * dinv % q
                lam = ((ax - ca) ** 2 + (ay - cb) ** 2) % q
                flags[(ca * q + cb) * q + lam] = 1
    return [cid for cid, f in enumerate(flags) if f]


def circle_point_counts(q: int, pts: list[int]) -> list[int]:
    """Points-on-circle counts for all q^3 circles of the plane."""
    points = list(zip(pts[0::2], pts[1::2]))
    counts = [0] * (q * q * q)
    base = 0
    for cx in range(q):
        for cy in range(q):
            for px, py in points:
                counts[base + ((px - cx) ** 2 + (py - cy) ** 2) % q] += 1
            base += q
    return counts
