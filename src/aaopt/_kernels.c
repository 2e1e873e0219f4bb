/*
 * The compiled kernels: one cyclic sweep of proximal coordinate descent,
 * dense and CSR, and the Anderson weight solve.  They call the ddot and
 * dgelsd of scipy's Cython API, set once by aaopt_set_blas.
 *
 * The sweep's arithmetic is the Python sweep's, operation for operation, so
 * the results are bitwise equal to it:
 *   - a row dot is numpy's DOUBLE_dot: d = 0.0; d += ddot(...); a length-1
 *     row is a plain product and an empty row 0.0, as ndarray.dot gives them;
 *   - the box step is max(v, lo) then min(w, hi) as Python picks them;
 *   - u[j] = u[j] + delta*z[j], with no FMA (build with -ffp-contract=off).
 *
 * q, lower, upper and x are arrays of length m; x and u = Z.T x are
 * updated in place.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Fortran BLAS and LAPACK, every argument by reference; the callers check the int sizes */
typedef double (*ddot_fn)(const int *n, const double *x, const int *incx, const double *y,
                          const int *incy);
typedef void (*dgelsd_fn)(const int *m, const int *n, const int *nrhs, double *a, const int *lda,
                          double *b, const int *ldb, double *s, const double *rcond, int *rank,
                          double *work, const int *lwork, int *iwork, int *info);

static ddot_fn ddot;
static dgelsd_fn dgelsd;

void aaopt_set_blas(void *ddot_address, void *dgelsd_address)
{
    ddot = (ddot_fn)ddot_address;
    dgelsd = (dgelsd_fn)dgelsd_address;
}

static double row_dot(int64_t n, const double *z, int64_t inc, const double *u)
{
    int len = (int)n, zinc = (int)inc, one = 1;
    double d = 0.0;
    if (n == 1)
        return z[0] * u[0];
    if (n > 1)
        d += ddot(&len, z, &zinc, u, &one);
    return d;
}

static double coordinate(double xi, double d, double qi, double lo, double hi, double beta)
{
    double v = xi - beta * (d + qi);
    double w = lo > v ? lo : v;
    return hi < w ? hi : w;
}

void aaopt_pcd_dense(int64_t m, int64_t n, const double *Z, int64_t row_stride, int64_t col_stride,
                     const double *q, const double *lo, const double *hi, double beta,
                     double *x, double *u)
{
    for (int64_t i = 0; i < m; i++) {
        const double *z = Z + i * row_stride;
        double xi = x[i];
        double next = coordinate(xi, row_dot(n, z, col_stride, u), q[i], lo[i], hi[i], beta);
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
                  int64_t max_row, const double *q, const double *lo, const double *hi,
                  double beta, double *x, double *u)
{
    /* u[idx] of the current row, gathered so that ddot reads it with stride 1 */
    double *g = malloc((size_t)(max_row > 0 ? max_row : 1) * sizeof(double));
    if (!g)
        return -1;
    for (int64_t i = 0; i < m; i++) {
        int64_t start = indptr[i], len = indptr[i + 1] - start;
        const int64_t *idx = indices + start;
        const double *z = data + start;
        for (int64_t k = 0; k < len; k++)
            g[k] = u[idx[k]];
        double xi = x[i];
        double next = coordinate(xi, row_dot(len, z, 1, g), q[i], lo[i], hi[i], beta);
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

/*
 * The Anderson weights of the n x ncol residual matrix R, whose entry
 * (i, j) is R[i*row_stride + j*col_stride], as numpy.linalg.lstsq finds
 * them.  With p = ncol - 1 >= 1 and D = R[:, :-1] - R[:, 1:], theta solves
 *
 *   [D; root*C] theta ~ [R[:, 0]; -root*e0]
 *
 * by dgelsd, C being the ncol x p backward-difference map (-1 on the
 * diagonal, +1 just below it); with root == 0 only the n x p system D,
 * R[:, 0] is solved.  The Fortran-ordered system, its -0.0 entries, rcond =
 * eps*max(rows, p), the workspace query and the queried lwork are those of
 * numpy's lstsq, so theta is its theta bit for bit.  p >= 1, so max(rows, p)
 * is also b's leading dimension.  alpha (length ncol) gets e0 + C theta:
 * every other term of that product is an exact zero, and 0.0 + turns a -0.0
 * into the +0.0 the product gives.
 *
 * Returns the rank of the system, or AAOPT_NONFINITE if R has a NaN or
 * infinite entry, AAOPT_NO_CONVERGENCE if dgelsd reports info != 0 or an
 * entry of D overflows (numpy's lstsq fails on both), or AAOPT_NO_MEMORY.
 */
#define AAOPT_NONFINITE (-1)
#define AAOPT_NO_CONVERGENCE (-2)
#define AAOPT_NO_MEMORY (-3)

int64_t aaopt_aa_weights(int64_t n, int64_t ncol, const double *R, int64_t row_stride,
                         int64_t col_stride, double root, double *alpha)
{
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < ncol; j++)
            if (!isfinite(R[i * row_stride + j * col_stride]))
                return AAOPT_NONFINITE;

    int p = (int)(ncol - 1), nrhs = 1, rank = 0, info = 0, query = -1;
    int m = (int)(root > 0.0 ? n + ncol : n);
    int lda = m > 1 ? m : 1, ldb = m > p ? m : p, min_mp = m < p ? m : p;
    double rcond = DBL_EPSILON * (double)ldb;
    /* a (lda x p), b (ldb), then s (min_mp); b's rows past m are zero */
    size_t a_size = (size_t)lda * (size_t)p;
    double *a = calloc(a_size + (size_t)ldb + (size_t)min_mp, sizeof(double));
    if (!a)
        return AAOPT_NO_MEMORY;
    double *b = a + a_size, *s = b + ldb, *work = NULL;

    for (int j = 0; j < p; j++) {
        double *col = a + (size_t)j * (size_t)lda;
        for (int64_t i = 0; i < n; i++) {
            const double *r = R + i * row_stride + j * col_stride;
            col[i] = r[0] - r[col_stride];
            /* dgelsd would print a DLASCL error, and may never return */
            if (!isfinite(col[i]))
                info = 1;
        }
        if (root > 0.0) {
            col[n + j] = -root;
            col[n + j + 1] = root;
        }
    }
    for (int64_t i = 0; i < n; i++)
        b[i] = R[i * row_stride];
    if (root > 0.0) {
        b[n] = -root;
        for (int64_t i = 1; i < ncol; i++)
            b[n + i] = -0.0;
    }

    int64_t status = AAOPT_NO_CONVERGENCE;
    int iwork_query;
    double work_query;
    if (info == 0)
        dgelsd(&m, &p, &nrhs, a, &lda, b, &ldb, s, &rcond, &rank, &work_query, &query,
               &iwork_query, &info);
    if (info == 0) {
        int lwork = (int)work_query; /* which dgelsd computed as an int */
        size_t size = (size_t)lwork * sizeof(double) + (size_t)iwork_query * sizeof(int);
        work = malloc(size ? size : 1);
        if (!work)
            status = AAOPT_NO_MEMORY;
        else {
            dgelsd(&m, &p, &nrhs, a, &lda, b, &ldb, s, &rcond, &rank, work, &lwork,
                   (int *)(work + lwork), &info);
            if (info == 0)
                status = rank;
        }
    }
    if (status >= 0) {
        /* b holds theta; with m == 0 dgelsd returns at once and theta stays 0 */
        alpha[0] = 1.0 - b[0];
        for (int i = 1; i < p; i++)
            alpha[i] = 0.0 + (b[i - 1] - b[i]);
        alpha[p] = 0.0 + b[p - 1];
    }
    free(work);
    free(a);
    return status;
}
