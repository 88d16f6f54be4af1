/* Compiled counting kernels, the C twin of _pykernels.

   Same six primitives, positional arguments, results and BACKEND_NAME
   contract as _pykernels, whose docstring describes the flat-list
   layout: points row-major n*d, spheres row-major m*(d+1) with the
   center first and the radius parameter last, circle ids
   (a*q + b)*q + lam.

   All arithmetic is exact in int64_t, and every size and index is
   int64_t. Each kernel first checks that q and d lie in the range its
   intermediates provably cover, and raises ValueError otherwise, before
   it converts or allocates anything. The bound is derived next to each
   guard. Every input value must be a residue in [0, q): the tables below
   are indexed by them, so a value outside that range raises ValueError
   instead of reading or writing out of bounds.

   Build: python setup.py build_ext --inplace */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

static PyObject *out_of_range(const char *kernel, int64_t q, int64_t d)
{
    PyErr_Format(PyExc_ValueError,
                 "%s: q=%lld, d=%lld is outside the range where its int64 "
                 "arithmetic is exact",
                 kernel, (long long)q, (long long)d);
    return NULL;
}

/* A new int64 array holding the residues of the sequence seq, with its
   length in *len; NULL with an exception set on failure. */
static int64_t *residues(PyObject *seq, int64_t q, int64_t *len)
{
    PyObject *fast = PySequence_Fast(seq, "kernel input must be a sequence");
    if (fast == NULL)
        return NULL;
    int64_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    int64_t *out = PyMem_New(int64_t, n);
    if (out == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int64_t i = 0; i < n; i++) {
        long long v = PyLong_AsLongLong(items[i]);
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (v < 0 || v >= q) {
            PyErr_Format(PyExc_ValueError,
                         "kernel input %lld is not a residue mod %lld",
                         v, (long long)q);
            goto fail;
        }
        out[i] = v;
    }
    Py_DECREF(fast);
    *len = n;
    return out;
fail:
    PyMem_Free(out);
    Py_DECREF(fast);
    return NULL;
}

/* sum_k (a_k - b_k)^2 over the first d entries, not reduced mod q. */
static inline int64_t square_distance(const int64_t *a, const int64_t *b,
                                      int64_t d)
{
    int64_t s = 0;
    for (int64_t k = 0; k < d; k++) {
        int64_t t = a[k] - b[k];
        s += t * t;
    }
    return s;
}

/* hist[r] += number of the n points p (row-major, width d) with
   |p - c|^2 == r mod q. */
static void distance_histogram(int64_t q, int64_t d, const int64_t *pts,
                               int64_t n, const int64_t *c, int64_t *hist)
{
    for (int64_t i = 0; i < n; i++)
        hist[square_distance(pts + i * d, c, d) % q]++;
}

static int compare_rows(const int64_t *a, const int64_t *b, int64_t width)
{
    for (int64_t k = 0; k < width; k++)
        if (a[k] != b[k])
            return a[k] < b[k] ? -1 : 1;
    return 0;
}

/* Merge sort of the row indices idx[0..n) by the first `width` entries
   of each row; tmp has room for n indices. Runs already in order are
   not merged, so sorted input costs one comparison per merge. */
static void sort_rows(int64_t *idx, int64_t *tmp, int64_t n,
                      const int64_t *rows, int64_t stride, int64_t width)
{
    if (n < 2)
        return;
    int64_t h = n / 2;
    sort_rows(idx, tmp, h, rows, stride, width);
    sort_rows(idx + h, tmp, n - h, rows, stride, width);
    if (compare_rows(rows + idx[h - 1] * stride, rows + idx[h] * stride,
                     width) <= 0)
        return;
    int64_t i = 0, j = h, o = 0;
    while (i < h && j < n)
        tmp[o++] = compare_rows(rows + idx[j] * stride, rows + idx[i] * stride,
                                width) < 0 ? idx[j++] : idx[i++];
    while (i < h)
        tmp[o++] = idx[i++];
    memcpy(idx, tmp, o * sizeof *idx);
}

/* The three incidence engines share one guard. Coordinate differences
   lie in (-q, q), so a sum of d squared differences is below d*q^2,
   and d*q^2 <= INT64_MAX keeps it exact; it also keeps d + 1 from
   overflowing. */
static int incidence_args_ok(int64_t q, int64_t d)
{
    return q >= 2 && d >= 1 && q <= INT64_MAX / d / q;
}

static PyObject *incidences_naive(PyObject *self, PyObject *args)
{
    long long q, d;
    PyObject *pts_obj, *sph_obj;
    if (!PyArg_ParseTuple(args, "LLOO:incidences_naive", &q, &d, &pts_obj,
                          &sph_obj))
        return NULL;
    if (!incidence_args_ok(q, d))
        return out_of_range("incidences_naive", q, d);
    int64_t plen, slen, total = 0;
    int64_t *P = residues(pts_obj, q, &plen);
    int64_t *S = P ? residues(sph_obj, q, &slen) : NULL;
    if (S == NULL) {
        PyMem_Free(P);
        return NULL;
    }
    int64_t n = plen / d, stride = d + 1, m = slen / stride;
    for (int64_t j = 0; j < m; j++) {
        const int64_t *c = S + j * stride;
        for (int64_t i = 0; i < n; i++)
            if (square_distance(P + i * d, c, d) % q == c[d])
                total++;
    }
    PyMem_Free(P);
    PyMem_Free(S);
    return PyLong_FromLongLong(total);
}

static PyObject *incidences_bucketed(PyObject *self, PyObject *args)
{
    long long q, d;
    PyObject *pts_obj, *sph_obj;
    if (!PyArg_ParseTuple(args, "LLOO:incidences_bucketed", &q, &d, &pts_obj,
                          &sph_obj))
        return NULL;
    if (!incidence_args_ok(q, d))
        return out_of_range("incidences_bucketed", q, d);
    PyObject *result = NULL;
    int64_t plen, slen, total = 0;
    int64_t *P = residues(pts_obj, q, &plen);
    int64_t *S = P ? residues(sph_obj, q, &slen) : NULL;
    int64_t *order = NULL, *tmp = NULL, *hist = NULL;
    if (S == NULL)
        goto done;
    int64_t n = plen / d, stride = d + 1, m = slen / stride;
    if (n > 0 && m > 0) {
        /* Sort the spheres by center, so each distinct center gets one
           histogram that serves every radius parameter listed for it. */
        order = PyMem_New(int64_t, m);
        tmp = PyMem_New(int64_t, m);
        hist = PyMem_New(int64_t, q);
        if (order == NULL || tmp == NULL || hist == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        for (int64_t j = 0; j < m; j++)
            order[j] = j;
        sort_rows(order, tmp, m, S, stride, d);
        for (int64_t j = 0; j < m; j++) {
            const int64_t *c = S + order[j] * stride;
            if (j == 0 || compare_rows(c, S + order[j - 1] * stride, d) != 0) {
                memset(hist, 0, q * sizeof *hist);
                distance_histogram(q, d, P, n, c, hist);
            }
            total += hist[c[d]];
        }
    }
    result = PyLong_FromLongLong(total);
done:
    PyMem_Free(P);
    PyMem_Free(S);
    PyMem_Free(order);
    PyMem_Free(tmp);
    PyMem_Free(hist);
    return result;
}

static PyObject *incidences_lifted(PyObject *self, PyObject *args)
{
    long long q, d;
    PyObject *pts_obj, *sph_obj;
    if (!PyArg_ParseTuple(args, "LLOO:incidences_lifted", &q, &d, &pts_obj,
                          &sph_obj))
        return NULL;
    if (!incidence_args_ok(q, d))
        return out_of_range("incidences_lifted", q, d);
    PyObject *result = NULL;
    int64_t plen, slen, total = 0;
    int64_t *P = residues(pts_obj, q, &plen);
    int64_t *S = P ? residues(sph_obj, q, &slen) : NULL;
    int64_t *B = NULL, *C = NULL;
    if (S == NULL)
        goto done;
    /* Points become rows (x, 0) and spheres rows (center, -lam mod q);
       a pair is incident iff the last coordinate of the row difference
       equals the sum of squares of the first d. */
    int64_t n = plen / d, stride = d + 1, m = slen / stride;
    B = PyMem_New(int64_t, n * stride);
    C = PyMem_New(int64_t, m * stride);
    if (B == NULL || C == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int64_t i = 0; i < n; i++) {
        memcpy(B + i * stride, P + i * d, d * sizeof *B);
        B[i * stride + d] = 0;
    }
    for (int64_t j = 0; j < m; j++) {
        memcpy(C + j * stride, S + j * stride, d * sizeof *C);
        C[j * stride + d] = S[j * stride + d] ? q - S[j * stride + d] : 0;
    }
    for (int64_t i = 0; i < n; i++) {
        const int64_t *b = B + i * stride;
        for (int64_t j = 0; j < m; j++) {
            const int64_t *c = C + j * stride;
            int64_t last = b[d] - c[d];
            if (square_distance(b, c, d) % q == (last < 0 ? last + q : last))
                total++;
        }
    }
    result = PyLong_FromLongLong(total);
done:
    PyMem_Free(P);
    PyMem_Free(S);
    PyMem_Free(B);
    PyMem_Free(C);
    return result;
}

/* A new list holding the n counts. */
static PyObject *count_list(const int64_t *counts, int64_t n)
{
    PyObject *out = PyList_New(n);
    if (out == NULL)
        return NULL;
    for (int64_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLongLong(counts[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, v);
    }
    return out;
}

static PyObject *paraboloid_diff_table(PyObject *self, PyObject *args)
{
    long long q, d;
    if (!PyArg_ParseTuple(args, "LL:paraboloid_diff_table", &q, &d))
        return NULL;
    /* The row table holds (d+1)*q^d entries and the count table q^(d+1);
       8*(d+1)*q^(d+1) <= INT64_MAX keeps both byte sizes, every index
       (below q^(d+1)) and every row sum (below d*q^2 <= q^(d+1)) exact. */
    int ok = q >= 2 && d >= 1 && d < INT64_MAX / 8;
    int64_t size = 1;
    for (int64_t k = 0; ok && k <= d; k++)
        if ((ok = size <= INT64_MAX / 8 / (d + 1) / q))
            size *= q;
    if (!ok)
        return out_of_range("paraboloid_diff_table", q, d);
    int64_t stride = d + 1, nrows = size / q;
    PyObject *result = NULL;
    int64_t *rows = PyMem_New(int64_t, nrows * stride);
    int64_t *counts = PyMem_Calloc(size, sizeof(int64_t));
    if (rows == NULL || counts == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* Row r is (u, |u|^2 mod q) for u the base-q digits of r. */
    for (int64_t r = 0; r < nrows; r++) {
        int64_t *row = rows + r * stride;
        int64_t rest = r, s = 0;
        for (int64_t k = d - 1; k >= 0; k--) {
            row[k] = rest % q;
            rest /= q;
            s += row[k] * row[k];
        }
        row[d] = s % q;
    }
    for (int64_t a = 0; a < nrows; a++) {
        const int64_t *ra = rows + a * stride;
        for (int64_t b = 0; b < nrows; b++) {
            const int64_t *rb = rows + b * stride;
            int64_t idx = 0;
            for (int64_t k = 0; k < stride; k++) {
                int64_t t = ra[k] - rb[k];
                idx = idx * q + (t < 0 ? t + q : t);
            }
            counts[idx]++;
        }
    }
    result = count_list(counts, size);
done:
    PyMem_Free(rows);
    PyMem_Free(counts);
    return result;
}

static PyObject *determined_circle_ids(PyObject *self, PyObject *args)
{
    long long q;
    PyObject *pts_obj;
    if (!PyArg_ParseTuple(args, "LO:determined_circle_ids", &q, &pts_obj))
        return NULL;
    /* With coordinates in [0, q): r1, r2 and the cross products lie in
       (-2q^2, 2q^2), so 2*(r1*dy13 - r2*dy12) lies in (-8q^3, 8q^3) and
       its product with an inverse (below q) in (-8q^4, 8q^4). q < 2^15
       gives 8q^4 < 2^63, and keeps the q^3 flag table and its ids below
       2^45. */
    if (q < 2 || q >= (1 << 15))
        return out_of_range("determined_circle_ids", q, 2);
    PyObject *result = NULL;
    int64_t len;
    int64_t *P = residues(pts_obj, q, &len);
    int64_t *inv = NULL;
    unsigned char *flags = NULL;
    if (P == NULL)
        return NULL;
    int64_t n = len / 2, ncircles = q * q * q;
    if (n < 3) {
        result = PyList_New(0);
        goto done;
    }
    inv = PyMem_New(int64_t, q);
    flags = PyMem_Calloc(ncircles, 1);
    if (inv == NULL || flags == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* inv[a] = a^-1 mod q, from q = (q/a)*a + q%a. */
    inv[1] = 1;
    for (int64_t a = 2; a < q; a++)
        inv[a] = (q - q / a) * inv[q % a] % q;
    /* The system determinant is 4 times the collinearity cross product,
       so collinear triples are skipped and every other triple gives
       exactly one circle. */
    for (int64_t i = 0; i < n - 2; i++) {
        int64_t ax = P[2 * i], ay = P[2 * i + 1];
        int64_t s1 = ax * ax + ay * ay;
        for (int64_t j = i + 1; j < n - 1; j++) {
            int64_t bx = P[2 * j], by = P[2 * j + 1];
            int64_t dx12 = ax - bx, dy12 = ay - by;
            int64_t r1 = s1 - bx * bx - by * by;
            for (int64_t k = j + 1; k < n; k++) {
                int64_t cx = P[2 * k], cy = P[2 * k + 1];
                int64_t dx13 = ax - cx, dy13 = ay - cy;
                int64_t disc = (dx12 * dy13 - dx13 * dy12) % q;
                if (disc == 0)
                    continue;
                if (disc < 0)
                    disc += q;
                int64_t r2 = s1 - cx * cx - cy * cy;
                int64_t dinv = inv[4 * disc % q];
                int64_t ca = 2 * (r1 * dy13 - r2 * dy12) * dinv % q;
                int64_t cb = 2 * (dx12 * r2 - dx13 * r1) * dinv % q;
                if (ca < 0)
                    ca += q;
                if (cb < 0)
                    cb += q;
                int64_t lam =
                    ((ax - ca) * (ax - ca) + (ay - cb) * (ay - cb)) % q;
                flags[(ca * q + cb) * q + lam] = 1;
            }
        }
    }
    int64_t found = 0;
    for (int64_t cid = 0; cid < ncircles; cid++)
        found += flags[cid];
    if ((result = PyList_New(found)) == NULL)
        goto done;
    for (int64_t cid = 0, o = 0; cid < ncircles; cid++) {
        if (!flags[cid])
            continue;
        PyObject *v = PyLong_FromLongLong(cid);
        if (v == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, o++, v);
    }
done:
    PyMem_Free(P);
    PyMem_Free(inv);
    PyMem_Free(flags);
    return result;
}

static PyObject *circle_point_counts(PyObject *self, PyObject *args)
{
    long long q;
    PyObject *pts_obj;
    if (!PyArg_ParseTuple(args, "LO:circle_point_counts", &q, &pts_obj))
        return NULL;
    /* The count table holds q^3 int64 entries: 8q^3 bytes fit in int64
       iff q^3 < 2^60, i.e. q < 2^20. Distances stay below 2q^2 < 2^41. */
    if (q < 2 || q >= (1 << 20))
        return out_of_range("circle_point_counts", q, 2);
    PyObject *result = NULL;
    int64_t len;
    int64_t *P = residues(pts_obj, q, &len);
    if (P == NULL)
        return NULL;
    int64_t n = len / 2;
    int64_t *counts = PyMem_Calloc(q * q * q, sizeof(int64_t));
    if (counts == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int64_t cx = 0; cx < q; cx++)
        for (int64_t cy = 0; cy < q; cy++) {
            int64_t c[2] = {cx, cy};
            distance_histogram(q, 2, P, n, c, counts + (cx * q + cy) * q);
        }
    result = count_list(counts, q * q * q);
done:
    PyMem_Free(P);
    PyMem_Free(counts);
    return result;
}

#define KERNEL(name, doc) {#name, name, METH_VARARGS, doc}

static PyMethodDef kernel_methods[] = {
    KERNEL(incidences_naive,
           "Direct double loop: test every (point, sphere) pair."),
    KERNEL(incidences_bucketed,
           "Group spheres by center, then histogram distances from each "
           "center."),
    KERNEL(incidences_lifted,
           "Count pairs whose lifted difference lands on the paraboloid."),
    KERNEL(paraboloid_diff_table,
           "Difference-count table of the lifted paraboloid against itself."),
    KERNEL(determined_circle_ids,
           "Sorted ids of circles through some non-collinear triple of pts."),
    KERNEL(circle_point_counts,
           "Points-on-circle counts for all q^3 circles of the plane."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_ckernels",
    "Compiled counting kernels; see _pykernels for the shared contract.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL &&
        PyModule_AddStringConstant(module, "BACKEND_NAME", "compiled") < 0)
        Py_CLEAR(module);
    return module;
}
