/*
 * One cyclic sweep of proximal coordinate descent, dense and CSR.
 *
 * The arithmetic is the Python sweep's, operation for operation, so the
 * results are bitwise equal to it:
 *   - a row dot is numpy's DOUBLE_dot: d = 0.0; d += ddot(...), through the
 *     ddot that numpy's own BLAS exports; a length-1 row is a plain product
 *     and an empty row 0.0, as ndarray.dot gives them;
 *   - the box step is max(v, lo) then min(w, hi) as Python picks them;
 *   - u[j] = u[j] + delta*z[j], with no FMA (build with -ffp-contract=off).
 *
 * q, lower and upper are arrays of length m, or NULL for the scalar that
 * follows them.  x (length m) and u = Z.T x are updated in place.
 */
#include <stdint.h>
#include <stdlib.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);

static ddot_fn ddot;

void aaopt_set_ddot(void *fn) { ddot = (ddot_fn)fn; }

static double row_dot(int64_t n, const double *z, int64_t inc, const double *u)
{
    double d = 0.0;
    if (n == 1)
        return z[0] * u[0];
    if (n > 1)
        d += ddot(n, z, inc, u, 1);
    return d;
}

static double coordinate(double xi, double d, double qi, double lo, double hi, double beta)
{
    double v = xi - beta * (d + qi);
    double w = lo > v ? lo : v;
    return hi < w ? hi : w;
}

#define AT(a, a0, i) ((a) ? (a)[i] : (a0))

void aaopt_pcd_dense(int64_t m, int64_t n, const double *Z, int64_t row_stride, int64_t col_stride,
                     const double *q, double q0, const double *lo, double lo0,
                     const double *hi, double hi0, double beta, double *x, double *u)
{
    for (int64_t i = 0; i < m; i++) {
        const double *z = Z + i * row_stride;
        double xi = x[i];
        double next = coordinate(xi, row_dot(n, z, col_stride, u), AT(q, q0, i),
                                 AT(lo, lo0, i), AT(hi, hi0, i), beta);
        double delta = next - xi;
        if (delta != 0.0) {
            for (int64_t j = 0; j < n; j++)
                u[j] = u[j] + delta * z[j * col_stride];
            x[i] = next;
        }
    }
}

/* Returns -1 if the gather buffer cannot be allocated, else 0. */
int aaopt_pcd_csr(int64_t m, const int64_t *indptr, const int64_t *indices, const double *data,
                  int64_t max_row, const double *q, double q0, const double *lo, double lo0,
                  const double *hi, double hi0, double beta, double *x, double *u)
{
    /* u[idx] of the current row, gathered so that ddot reads it with stride 1 */
    double *g = malloc((max_row > 0 ? max_row : 1) * sizeof(double));
    if (!g)
        return -1;
    for (int64_t i = 0; i < m; i++) {
        int64_t start = indptr[i], len = indptr[i + 1] - start;
        const int64_t *idx = indices + start;
        const double *z = data + start;
        for (int64_t k = 0; k < len; k++)
            g[k] = u[idx[k]];
        double xi = x[i];
        double next = coordinate(xi, row_dot(len, z, 1, g), AT(q, q0, i),
                                 AT(lo, lo0, i), AT(hi, hi0, i), beta);
        double delta = next - xi;
        if (delta != 0.0) {
            /* u[idx] += delta*data: gather, add, then scatter in order */
            for (int64_t k = 0; k < len; k++)
                u[idx[k]] = g[k] + delta * z[k];
            x[i] = next;
        }
    }
    free(g);
    return 0;
}
