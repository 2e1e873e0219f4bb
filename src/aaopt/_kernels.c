/*
 * The compiled kernels: one cyclic sweep of proximal coordinate descent,
 * dense and CSR, the lasso proximal-gradient map, dense and CSR, the
 * nonnegative least-squares DRS map, and the Anderson step around the
 * evaluations of H, on the engine's state in place: the weight solve with
 * its sum-to-one fix-up (a port of CPython's math.fsum), the candidate, and
 * the safeguard with the push into the history.  They call the ddot, dgemv,
 * dtrsv and dgelsd of scipy's Cython API, set once by aaopt_set_blas.
 *
 * Each map also writes a readout of every evaluation out = H(x), for the run
 * loop: readout[0] = ||H(x) - x||, as numpy's sqrt of d.dot(d) for
 * d = H(x) - x, and, for the sweep and the lasso map, readout[1] = f(x),
 * the objective at x, from the products the map forms anyway.  The sweep
 * and the lasso map form d in x, so x holds it on return.
 *
 * The sweep's arithmetic is the Python sweep's, operation for operation, so
 * the results are bitwise equal to it:
 *   - a row dot is numpy's DOUBLE_dot: d = 0.0; d += ddot(...) over chunks
 *     of at most INT_MAX/2 + 1 entries, so any length fits ddot's int; a
 *     length-1 row is a plain product and an empty row 0.0, as ndarray.dot
 *     gives them;
 *   - the box step is max(v, lo) then min(w, hi) as Python picks them;
 *   - u[j] = u[j] + delta*z[j], with no FMA (build with -ffp-contract=off).
 *
 * q, lower, upper, x and out are arrays of length m; the sweep runs on out,
 * which starts as x and ends as H(x), and keeps u = Z.T x current in place.
 * f(x) = 0.5*u.u + q.x is read off the u the sweep starts with.  A dense Z
 * is C-ordered, so each row dot reads it with stride 1, as numpy's row dot
 * of a C-ordered Z does.
 */
#include <float.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Fortran BLAS and LAPACK, every argument by reference; row_dot splits ddot's length, and the
   callers of dgemv, dtrsv and dgelsd check theirs */
typedef double (*ddot_fn)(const int *n, const double *x, const int *incx, const double *y,
                          const int *incy);
typedef void (*dgemv_fn)(const char *trans, const int *m, const int *n, const double *alpha,
                         const double *a, const int *lda, const double *x, const int *incx,
                         const double *beta, double *y, const int *incy);
typedef void (*dtrsv_fn)(const char *uplo, const char *trans, const char *diag, const int *n,
                         const double *a, const int *lda, double *x, const int *incx);
typedef void (*dgelsd_fn)(const int *m, const int *n, const int *nrhs, double *a, const int *lda,
                          double *b, const int *ldb, double *s, const double *rcond, int *rank,
                          double *work, const int *lwork, int *iwork, int *info);

static ddot_fn ddot;
static dgemv_fn dgemv;
static dtrsv_fn dtrsv;
static dgelsd_fn dgelsd;

void aaopt_set_blas(void *ddot_address, void *dgemv_address, void *dtrsv_address,
                    void *dgelsd_address)
{
    ddot = (ddot_fn)ddot_address;
    dgemv = (dgemv_fn)dgemv_address;
    dtrsv = (dtrsv_fn)dtrsv_address;
    dgelsd = (dgelsd_fn)dgelsd_address;
}

/* the status codes the kernels return */
#define AAOPT_NONFINITE (-1)
#define AAOPT_NO_CONVERGENCE (-2)
#define AAOPT_NO_MEMORY (-3)
#define AAOPT_TAU_OVERFLOW (-4)
#define AAOPT_SINGULAR (-5)
#define AAOPT_FSUM_OVERFLOW (-6)
#define AAOPT_FSUM_INF_MINUS_INF (-7)
#define AAOPT_NOT_SUMMING_TO_ONE (-8)

/* numpy's NPY_CBLAS_CHUNK; a test builds with a smaller one to run the chunk loop on short rows */
#ifndef DOT_CHUNK
#define DOT_CHUNK (INT_MAX / 2 + 1)
#endif

static double row_dot(int64_t n, const double *z, const double *u)
{
    int one = 1;
    double d = 0.0;
    if (n == 1)
        return z[0] * u[0];
    while (n > 0) {
        int len = n < DOT_CHUNK ? (int)n : DOT_CHUNK;
        d += ddot(&len, z, &one, u, &one);
        z += len;
        u += len;
        n -= len;
    }
    return d;
}

static double coordinate(double xi, double d, double qi, double lo, double hi, double beta)
{
    double v = xi - beta * (d + qi);
    double w = lo > v ? lo : v;
    return hi < w ? hi : w;
}

/* d = out - x, which may be x itself */
static void residual_readout(int64_t n, const double *x, const double *out, double *d,
                             double *readout)
{
    for (int64_t j = 0; j < n; j++)
        d[j] = out[j] - x[j];
    readout[0] = sqrt(row_dot(n, d, d));
}

static void pcd_start(int64_t m, int64_t n, const double *q, const double *x, const double *u,
                      double *out, double *readout)
{
    readout[1] = 0.5 * row_dot(n, u, u) + row_dot(m, q, x);
    memcpy(out, x, (size_t)m * sizeof(double));
}

void aaopt_pcd_dense(int64_t m, int64_t n, const double *Z, const double *q, const double *lo,
                     const double *hi, double beta, double *x, double *u, double *out,
                     double *readout)
{
    pcd_start(m, n, q, x, u, out, readout);
    for (int64_t i = 0; i < m; i++) {
        const double *z = Z + i * n;
        double xi = out[i];
        double next = coordinate(xi, row_dot(n, z, u), q[i], lo[i], hi[i], beta);
        double delta = next - xi;
        if (delta != 0.0) {
            for (int64_t j = 0; j < n; j++)
                u[j] = u[j] + delta * z[j];
            out[i] = next;
        }
    }
    residual_readout(m, x, out, x, readout);
}

/* g holds at least the longest row's count of doubles */
void aaopt_pcd_csr(int64_t m, int64_t n, const int64_t *indptr, const int64_t *indices,
                   const double *data, double *g, const double *q, const double *lo,
                   const double *hi, double beta, double *x, double *u, double *out,
                   double *readout)
{
    pcd_start(m, n, q, x, u, out, readout);
    for (int64_t i = 0; i < m; i++) {
        int64_t start = indptr[i], len = indptr[i + 1] - start;
        const int64_t *idx = indices + start;
        const double *z = data + start;
        /* u[idx] of the current row, gathered so that ddot reads it with stride 1 */
        for (int64_t k = 0; k < len; k++)
            g[k] = u[idx[k]];
        double xi = out[i];
        double next = coordinate(xi, row_dot(len, z, g), q[i], lo[i], hi[i], beta);
        double delta = next - xi;
        if (delta != 0.0) {
            /* u[idx] += delta*data: gather, add, then scatter in order */
            for (int64_t k = 0; k < len; k++)
                u[idx[k]] = g[k] + delta * z[k];
            out[i] = next;
        }
    }
    residual_readout(m, x, out, x, readout);
}

/*
 * The lasso proximal-gradient map, out = H(x) = soft_threshold(x - beta*g,
 * t) with g = A.T (A x - y) and t = beta*lam, as numpy computes it from
 * A.dot(x) - y, A.T.dot(r), x - beta*g and v - minimum(maximum(v, -t), t).
 * x and out have length n, y and r length m; r holds A x - y on return, and
 * f(x) = 0.5*r.r + lam*||x||_1 is read off it.
 *
 * A dense A is m x n, C-ordered and at least 1 x 1.  A product M v (M = A
 * or A.T) with one output entry is numpy's dot of M's one row, which lies
 * at stride 1 in A, with v: row_dot.  Any other is dgemv: 'T' on A's C
 * order for A x, 'N' for A.T r, as numpy calls it, except that numpy forms
 * a product with a v of length 1 by daxpy.  That differs from dgemv only
 * in the sign of a zero entry (or in a NaN where daxpy skips v[0] = 0 and M
 * holds an inf, which makes the gradient non-finite either way), and H
 * turns every zero into +0.0: the dot adds its terms onto 0.0, and the tail
 * below maps |v| <= t to v - v or, when t is 0, adds 0.0.
 *
 * A CSR A has its transpose given as CSR too; each product adds a row's
 * terms in stored order onto 0.0, as scipy's csr_matvec does.
 *
 * The tail is numpy's: NaN passes maximum and minimum, 0.0 is added when t
 * is zero (which turns a -0.0 into +0.0), and a NaN entry becomes +0.0.
 * Returns 0, or AAOPT_NONFINITE, leaving out and the readout undefined, if
 * g has a NaN or infinite entry.
 */
static void dense_product(int transpose, int m, int n, const double *A, const double *v,
                          double *out)
{
    int one = 1;
    double unit = 1.0, zero = 0.0;
    if ((transpose ? n : m) == 1)
        out[0] = row_dot(transpose ? m : n, A, v);
    else
        dgemv(transpose ? "N" : "T", &n, &m, &unit, A, &n, v, &one, &zero, out, &one);
}

static void csr_product(int64_t rows, const int64_t *indptr, const int64_t *indices,
                        const double *data, const double *v, double *out)
{
    for (int64_t i = 0; i < rows; i++) {
        double sum = 0.0;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
            sum += data[k] * v[indices[k]];
        out[i] = sum;
    }
}

static double pairwise_sum(const double *v, int64_t n, int absolute);

/* out holds g on entry and H(x) on return */
static int64_t pga_tail(int64_t m, int64_t n, const double *r, double beta, double lam, double *x,
                        double *out, double *readout)
{
    double t = beta * lam;
    for (int64_t j = 0; j < n; j++)
        if (!isfinite(out[j]))
            return AAOPT_NONFINITE;
    for (int64_t j = 0; j < n; j++) {
        double v = x[j] - beta * out[j];
        double w = -t > v ? -t : v;
        double h = v - (t < w ? t : w);
        if (t == 0.0)
            h += 0.0;
        out[j] = isnan(h) ? 0.0 : h;
    }
    readout[1] = 0.5 * row_dot(m, r, r) + lam * pairwise_sum(x, n, 1);
    residual_readout(n, x, out, x, readout);
    return 0;
}

int64_t aaopt_pga_dense(int64_t m, int64_t n, const double *A, const double *y, double beta,
                        double lam, double *x, double *r, double *out, double *readout)
{
    dense_product(0, (int)m, (int)n, A, x, r);
    for (int64_t i = 0; i < m; i++)
        r[i] = r[i] - y[i];
    dense_product(1, (int)m, (int)n, A, r, out);
    return pga_tail(m, n, r, beta, lam, x, out, readout);
}

int64_t aaopt_pga_csr(int64_t m, int64_t n, const int64_t *indptr, const int64_t *indices,
                      const double *data, const int64_t *t_indptr, const int64_t *t_indices,
                      const double *t_data, const double *y, double beta, double lam,
                      double *x, double *r, double *out, double *readout)
{
    csr_product(m, indptr, indices, data, x, r);
    for (int64_t i = 0; i < m; i++)
        r[i] = r[i] - y[i];
    csr_product(n, t_indptr, t_indices, t_data, r, out);
    return pga_tail(m, n, r, beta, lam, x, out, readout);
}

/*
 * The DRS map of nonnegative least squares, out = z + delta*(y - x) with
 * x = (A.T A + s*I)^-1 (A.T y + w*z) and y = max(2x - z, 0), as
 * prox.quadratic_ls_prox and algorithms.drs_parts compute it in numpy:
 * aty + w*z, overwritten by dtrsv with the Cholesky factor L (n x n, lower,
 * Fortran order) and then with L.T, a finiteness check, and
 * np.maximum(2x - z, 0.0), which keeps a NaN and gives +0.0 for -0.0.
 * readout[0] = ||out - z||, with d formed in x; z is left as it was and y
 * holds the projection on return.  n fits an int: L holds n*n doubles.
 * Returns 0, or AAOPT_NONFINITE, leaving y, out and the readout undefined,
 * if x has a NaN or infinite entry.
 */
int64_t aaopt_drs_nonneg(int64_t n, const double *L, const double *aty, double w, double delta,
                         const double *z, double *x, double *y, double *out, double *readout)
{
    int len = (int)n, one = 1;
    for (int64_t j = 0; j < n; j++)
        x[j] = aty[j] + w * z[j];
    dtrsv("L", "N", "N", &len, L, &len, x, &one);
    dtrsv("L", "T", "N", &len, L, &len, x, &one);
    for (int64_t j = 0; j < n; j++)
        if (!isfinite(x[j]))
            return AAOPT_NONFINITE;
    for (int64_t j = 0; j < n; j++) {
        double v = 2.0 * x[j] - z[j];
        y[j] = isnan(v) || v > 0.0 ? v : 0.0;
        out[j] = z[j] + delta * (y[j] - x[j]);
    }
    residual_readout(n, z, out, x, readout);
    return 0;
}

/*
 * The sum of v[0..n), or of |v[0..n)| if absolute, added as numpy's
 * pairwise_sum adds it: below 8 terms in order from -0.0; up to 128 terms
 * in 8 interleaved partial sums, joined in pairs, then the leftover terms
 * in order; above 128, the halves split at a multiple of 8.  numpy's
 * ndarray.sum of a contiguous array is 0.0 + this sum in memory order.
 */
static double pairwise_sum(const double *v, int64_t n, int absolute)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += absolute ? fabs(v[i]) : v[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = absolute ? fabs(v[j]) : v[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += absolute ? fabs(v[i + j]) : v[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += absolute ? fabs(v[i]) : v[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(v, half, absolute) + pairwise_sum(v + half, n - half, absolute);
}

/*
 * CPython's math.fsum (Modules/mathmodule.c), ported: Shewchuk's exact
 * partials, then the top partials added until the sum turns inexact, with
 * the half-even fix-up across partials.  That sum is correctly rounded, so
 * *sum is Python's, bit for bit.  p has room for n doubles: each term adds
 * at most one partial.  Returns 0, or what Python raises as a status:
 * AAOPT_FSUM_OVERFLOW for OverflowError("intermediate overflow in fsum"),
 * AAOPT_FSUM_INF_MINUS_INF for ValueError("-inf + inf in fsum").  A NaN
 * term, or infinite terms of one sign, make *sum their plain sum.
 */
int64_t aaopt_fsum(int64_t n, const double *v, double *p, double *sum)
{
    int64_t count = 0;
    double special_sum = 0.0, inf_sum = 0.0, x, y, t, hi, yr, lo = 0.0;
    for (int64_t k = 0; k < n; k++) {
        double xsave = x = v[k];
        int64_t i = 0;
        for (int64_t j = 0; j < count; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        count = i;
        if (x != 0.0) {
            if (!isfinite(x)) {
                /* x is inf or NaN; from a finite term, the partials overflowed */
                if (isfinite(xsave))
                    return AAOPT_FSUM_OVERFLOW;
                if (isinf(xsave))
                    inf_sum += xsave;
                special_sum += xsave;
                count = 0;
            } else
                p[count++] = x;
        }
    }
    if (special_sum != 0.0) {
        if (isnan(inf_sum))
            return AAOPT_FSUM_INF_MINUS_INF;
        *sum = special_sum;
        return 0;
    }
    hi = 0.0;
    if (count > 0) {
        hi = p[--count];
        while (count > 0) {
            x = hi;
            y = p[--count];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* round half-even across partials: sum([1e-16, 1, 1e16]) is 1e16 + 2 */
        if (count > 0 && ((lo < 0.0 && p[count - 1] < 0.0) || (lo > 0.0 && p[count - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *sum = hi;
    return 0;
}

/*
 * The index of the largest |v[i]|, or of the smallest: the first of equals,
 * or the first NaN, as np.argmax (np.argmin) of np.abs(v) picks it.
 */
static int64_t pick(const double *v, int64_t n, int largest)
{
    int64_t best = 0;
    double m = fabs(v[0]);
    for (int64_t i = 1; i < n && !isnan(m); i++) {
        double a = fabs(v[i]);
        if (largest ? !(a <= m) : !(a >= m)) {
            m = a;
            best = i;
        }
    }
    return best;
}

/*
 * The sum-to-one contract of the n >= 1 weights alpha.  An ill-conditioned
 * solve can return weights so large that plain float summation no longer
 * resolves the sum: the excess fsum(alpha) - 1 goes into the largest
 * |alpha[i]|, and the excess left after that into the smallest.  Returns 0,
 * aaopt_fsum's failure, AAOPT_NO_MEMORY, or AAOPT_NOT_SUMMING_TO_ONE if the
 * excess left exceeds 1e-12 in magnitude or is NaN.
 */
static int64_t sum_to_one(double *alpha, int64_t n)
{
    double stack[64], *p = n <= 64 ? stack : malloc((size_t)n * sizeof(double)), total = 0.0;
    if (!p)
        return AAOPT_NO_MEMORY;
    int64_t status = aaopt_fsum(n, alpha, p, &total);
    double excess = total - 1.0;
    for (int largest = 1; status == 0 && largest >= 0 && excess != 0.0; largest--) {
        alpha[pick(alpha, n, largest)] -= excess;
        status = aaopt_fsum(n, alpha, p, &total);
        excess = total - 1.0;
    }
    if (p != stack)
        free(p);
    if (status == 0 && !(fabs(excess) <= 1e-12))
        status = AAOPT_NOT_SUMMING_TO_ONE;
    return status;
}

/*
 * The engine's state, which the kernels below read and write in place;
 * anderson.AaState binds them once, when it is built for one config.  The
 * int64 array s holds the scalars below; the float64 array f holds tau
 * (negative: the automatic one), the safeguard factor theta and the newest
 * residual norm.  The ncol stored entries occupy the
 * window [head, head + ncol) of three buffers, newest first: the rows of
 * hbuf (width x n, C order) hold H(x), the columns of rbuf (n x width,
 * C order) the residuals, and norms (width) their norms.
 */
#define S_N 0
#define S_WIDTH 1
#define S_HEAD 2
#define S_NCOL 3
#define S_MEMORY 4
#define S_FINITE 5
#define F_TAU 0
#define F_THETA 1
#define F_NORM 2

/*
 * The Anderson weights of the n x ncol residual matrix R, the window's
 * columns of rbuf, for tau = f[F_TAU], as numpy.linalg.lstsq finds them.
 * With p = ncol - 1 >= 1 and D = R[:, :-1] - R[:, 1:], theta solves
 *
 *   [D; root*C] theta ~ [R[:, 0]; -root*e0]
 *
 * by dgelsd, C being the ncol x p backward-difference map (-1 on the
 * diagonal, +1 just below it); with root == 0 only the n x p system D,
 * R[:, 0] is solved, where root = sqrt(tau) if tau > 0, else 0.  A negative
 * tau asks for the automatic tau = 1e-10*||R||_F^2, its squares summed row
 * by row, as numpy's (R*R).sum() sums them for a C-ordered R.  The
 * Fortran-ordered system, its -0.0 entries, rcond = eps*max(rows, p), the
 * workspace query and the queried lwork are those of numpy's lstsq, so
 * theta is its theta bit for bit.  p >= 1, so max(rows, p) is also b's
 * leading dimension.  alpha (length ncol) gets e0 + C theta: every other
 * term of that product is an exact zero, and 0.0 + turns a -0.0 into the
 * +0.0 the product gives.  alpha is then divided by its sum, taken as
 * numpy's alpha.sum() takes it, and fixed up by sum_to_one.  With one
 * column (p = 0) there is no system: alpha is [1] once R is finite.
 *
 * Returns ncol, or AAOPT_NONFINITE if R has a NaN or infinite entry,
 * AAOPT_TAU_OVERFLOW if the automatic tau is infinite, AAOPT_NO_CONVERGENCE
 * if dgelsd reports info != 0 or an entry of D overflows (numpy's lstsq
 * fails on both), AAOPT_SINGULAR if alpha's sum is zero or not finite,
 * sum_to_one's failures, or AAOPT_NO_MEMORY.
 */
int64_t aaopt_aa_weights(const int64_t *s, const double *f, const double *rbuf, double *alpha)
{
    int64_t n = s[S_N], ncol = s[S_NCOL], width = s[S_WIDTH];
    const double *R = rbuf + s[S_HEAD];
    double tau = f[F_TAU], *squares = NULL; /* the squares of R, for the automatic tau */
    if (ncol == 1) {
        for (int64_t i = 0; i < n; i++)
            if (!isfinite(R[i * width]))
                return AAOPT_NONFINITE;
        alpha[0] = 1.0;
        return 1;
    }
    if (tau < 0.0) {
        size_t size = (size_t)(n * ncol) * sizeof(double);
        squares = malloc(size ? size : 1);
        if (!squares)
            return AAOPT_NO_MEMORY;
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < ncol; j++) {
            double r = R[i * width + j];
            if (!isfinite(r)) {
                free(squares);
                return AAOPT_NONFINITE;
            }
            if (squares)
                squares[i * ncol + j] = r * r;
        }
    if (squares) {
        tau = 1e-10 * (0.0 + pairwise_sum(squares, n * ncol, 0));
        free(squares);
        if (!isfinite(tau))
            return AAOPT_TAU_OVERFLOW;
    }
    double root = tau > 0.0 ? sqrt(tau) : 0.0;

    int p = (int)(ncol - 1), nrhs = 1, rank = 0, info = 0, query = -1;
    int m = (int)(root > 0.0 ? n + ncol : n);
    int lda = m > 1 ? m : 1, ldb = m > p ? m : p, min_mp = m < p ? m : p;
    double rcond = DBL_EPSILON * (double)ldb;
    /* a (lda x p), b (ldb), then the singular values sv (min_mp); b's rows past m are zero */
    size_t a_size = (size_t)lda * (size_t)p;
    double *a = calloc(a_size + (size_t)ldb + (size_t)min_mp, sizeof(double));
    if (!a)
        return AAOPT_NO_MEMORY;
    double *b = a + a_size, *sv = b + ldb, *work = NULL;

    for (int j = 0; j < p; j++) {
        double *col = a + (size_t)j * (size_t)lda;
        for (int64_t i = 0; i < n; i++) {
            const double *r = R + i * width + j;
            col[i] = r[0] - r[1];
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
        b[i] = R[i * width];
    if (root > 0.0) {
        b[n] = -root;
        for (int64_t i = 1; i < ncol; i++)
            b[n + i] = -0.0;
    }

    int64_t status = AAOPT_NO_CONVERGENCE;
    int iwork_query;
    double work_query;
    if (info == 0)
        dgelsd(&m, &p, &nrhs, a, &lda, b, &ldb, sv, &rcond, &rank, &work_query, &query,
               &iwork_query, &info);
    if (info == 0) {
        int lwork = (int)work_query; /* which dgelsd computed as an int */
        size_t size = (size_t)lwork * sizeof(double) + (size_t)iwork_query * sizeof(int);
        work = malloc(size ? size : 1);
        if (!work)
            status = AAOPT_NO_MEMORY;
        else {
            dgelsd(&m, &p, &nrhs, a, &lda, b, &ldb, sv, &rcond, &rank, work, &lwork,
                   (int *)(work + lwork), &info);
            if (info == 0)
                status = ncol;
        }
    }
    if (status >= 0) {
        /* b holds theta; with m == 0 dgelsd returns at once and theta stays 0 */
        alpha[0] = 1.0 - b[0];
        for (int i = 1; i < p; i++)
            alpha[i] = 0.0 + (b[i - 1] - b[i]);
        alpha[p] = 0.0 + b[p - 1];
        double total = 0.0 + pairwise_sum(alpha, ncol, 0);
        if (!isfinite(total) || total == 0.0)
            status = AAOPT_SINGULAR;
        else {
            for (int64_t i = 0; i < ncol; i++)
                alpha[i] /= total;
            int64_t fixed = sum_to_one(alpha, ncol);
            if (fixed < 0)
                status = fixed;
        }
    }
    free(work);
    free(a);
    return status;
}

/*
 * The Anderson candidate: out = sum_j alpha[j] * H_j over the window's rows
 * H_j of hbuf.  Each entry of out adds its terms alpha[j]*H_j[k] in index
 * order onto -0.0, as a loop over the rows does; four entries at a time
 * keep their sums in registers, which changes no bit.  s[S_FINITE] says
 * whether out is finite.  Returns the l1 norm of alpha as numpy's
 * np.abs(alpha).sum() gives it.
 */
double aaopt_aa_combine(int64_t *s, const double *hbuf, const double *alpha, double *out)
{
    int64_t n = s[S_N], ncol = s[S_NCOL], k = 0;
    const double *H = hbuf + s[S_HEAD] * n;
    for (; k + 4 <= n; k += 4) {
        double s0 = -0.0, s1 = -0.0, s2 = -0.0, s3 = -0.0;
        for (int64_t j = 0; j < ncol; j++) {
            const double a = alpha[j], *row = H + j * n + k;
            s0 = s0 + a * row[0];
            s1 = s1 + a * row[1];
            s2 = s2 + a * row[2];
            s3 = s3 + a * row[3];
        }
        out[k] = s0;
        out[k + 1] = s1;
        out[k + 2] = s2;
        out[k + 3] = s3;
    }
    for (; k < n; k++) {
        double sum = -0.0;
        for (int64_t j = 0; j < ncol; j++)
            sum = sum + alpha[j] * H[j * n + k];
        out[k] = sum;
    }
    s[S_FINITE] = 1;
    for (k = 0; k < n; k++)
        if (!isfinite(out[k])) {
            s[S_FINITE] = 0;
            break;
        }
    return 0.0 + pairwise_sum(alpha, ncol, 1);
}

/*
 * The rest of a step, given H's value h at a point x.  mode says what to do:
 *   - AAOPT_JUDGE: x is the candidate.  Form r = h - x and its norm
 *     sqrt(0.0 + ddot(r, r)) (numpy's r.dot(r)), and push the entry only if
 *     the norm is finite and at most theta times the smallest stored norm
 *     (a NaN stored norm is skipped unless it comes first, as Python's min
 *     does, and a NaN bound rejects);
 *   - AAOPT_PLAIN: x is the newest stored evaluation; form r and push;
 *   - AAOPT_KEEP: push the h, r and norm that the last judge formed.
 * Returns 1 if the entry was pushed.  A push keeps the newest
 * min(ncol, memory) entries and writes the new one just before them; when
 * the window starts at 0, the kept entries move to the end of the buffers
 * first, which width >= 2*(memory + 1) keeps clear of them.  A restart sets
 * s[S_NCOL] to 0 before the push.
 */
#define AAOPT_JUDGE 0
#define AAOPT_PLAIN 1
#define AAOPT_KEEP 2

int64_t aaopt_aa_push(int64_t *s, double *f, double *hbuf, double *rbuf, double *norms,
                      const double *h, const double *x, double *r, int64_t mode)
{
    int64_t n = s[S_N], width = s[S_WIDTH], head = s[S_HEAD], ncol = s[S_NCOL];
    if (mode != AAOPT_KEEP) {
        if (mode == AAOPT_PLAIN)
            x = hbuf + head * n;
        for (int64_t k = 0; k < n; k++)
            r[k] = h[k] - x[k];
        f[F_NORM] = sqrt(row_dot(n, r, r));
    }
    double norm = f[F_NORM];
    if (mode == AAOPT_JUDGE) {
        double best = norms[head];
        for (int64_t j = 1; j < ncol; j++)
            if (norms[head + j] < best)
                best = norms[head + j];
        if (!(isfinite(norm) && norm <= f[F_THETA] * best))
            return 0;
    }
    int64_t keep = ncol < s[S_MEMORY] ? ncol : s[S_MEMORY];
    if (head == 0) {
        head = width - keep;
        memcpy(hbuf + head * n, hbuf, (size_t)(keep * n) * sizeof(double));
        for (int64_t i = 0; i < n; i++)
            memcpy(rbuf + i * width + head, rbuf + i * width, (size_t)keep * sizeof(double));
        memcpy(norms + head, norms, (size_t)keep * sizeof(double));
    }
    head -= 1;
    memcpy(hbuf + head * n, h, (size_t)n * sizeof(double));
    for (int64_t i = 0; i < n; i++)
        rbuf[i * width + head] = r[i];
    norms[head] = norm;
    s[S_HEAD] = head;
    s[S_NCOL] = keep + 1;
    return 1;
}
