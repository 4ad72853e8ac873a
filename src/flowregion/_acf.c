/*
 * Autocorrelation lag sums and the Durbin-Levinson recursion for
 * flowregion.dependence.
 *
 * Compiled on first use by flowregion.native and called through ctypes.
 * Every sum here has one fixed order, which a Python loop can reproduce, so
 * the results depend on neither the BLAS library nor its thread count. Build
 * without -ffast-math and with -ffp-contract=off, so that no step is
 * reassociated or fused.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* two float64 lanes, each holding one lag's sums */
typedef double v2d __attribute__((vector_size(16)));

/* lags summed in one pass over the series: eight two-lane accumulators */
#define BLOCK 16

/* terms per chunk of a lag sum */
#define CHUNK 128

#if defined(__GNUC__) && !defined(__clang__)
/* GCC would keep each loaded pair for the pass two terms later and spill
 * those pairs to the stack, which is slower than loading them again */
#pragma GCC optimize("no-predictive-commoning")
#endif

/* two consecutive doubles, at any alignment */
static inline v2d load2(const double *p)
{
    v2d v;
    memcpy(&v, p, sizeof v);
    return v;
}

/*
 * out[k - first] = sum_{t=0}^{n-k-1} xc[t] * xc[t+k] for k = first..last,
 * with 0 <= first <= last < n. The terms of each lag are cut into chunks of
 * CHUNK consecutive t, starting at t = 0; each chunk is summed in order of t
 * from zero, and the chunk sums are added in order to a total that starts
 * at zero. That order does not depend on first or last, and its rounding
 * error grows with CHUNK + n / CHUNK terms instead of the n of one running
 * sum.
 *
 * The series is walked chunk by chunk, so the few kilobytes a chunk reads
 * stay in the L1 cache while every lag takes its terms from them. Within a
 * chunk, a block of BLOCK lags k0..k0+15 shares one vector pass over the t
 * at which every lag of the block has a term; each lag then adds its own
 * remaining terms of the chunk.
 */
void lag_sums(const double *xc, int64_t n, int64_t first, int64_t last, double *out)
{
    const v2d zero = {0.0, 0.0};
    for (int64_t k = first; k <= last; k++)
        out[k - first] = 0.0;
    for (int64_t c0 = 0; c0 < n - first; c0 += CHUNK) {
        int64_t c1 = c0 + CHUNK;
        for (int64_t k0 = first; k0 <= last && c0 < n - k0; k0 += BLOCK) {
            int64_t shared = n - (k0 + BLOCK - 1);
            if (shared > c1)
                shared = c1;
            /* named accumulators, so that they stay in registers */
            v2d p0 = zero, p1 = zero, p2 = zero, p3 = zero, p4 = zero, p5 = zero,
                p6 = zero, p7 = zero;
            for (int64_t t = c0; t < shared; t++) {
                v2d a = {xc[t], xc[t]};
                const double *b = xc + t + k0;
                p0 += a * load2(b);
                p1 += a * load2(b + 2);
                p2 += a * load2(b + 4);
                p3 += a * load2(b + 6);
                p4 += a * load2(b + 8);
                p5 += a * load2(b + 10);
                p6 += a * load2(b + 12);
                p7 += a * load2(b + 14);
            }
            v2d part[BLOCK / 2] = {p0, p1, p2, p3, p4, p5, p6, p7};
            for (int64_t i = 0; i < BLOCK && k0 + i <= last; i++) {
                int64_t k = k0 + i;
                int64_t end = n - k < c1 ? n - k : c1;
                if (c0 >= end)
                    break; /* neither this lag nor a later one has a term here */
                double chunk = part[i / 2][i % 2];
                for (int64_t t = shared > c0 ? shared : c0; t < end; t++)
                    chunk += xc[t] * xc[t + k];
                out[k - first] += chunk;
            }
        }
    }
}

/*
 * Durbin-Levinson recursion from r_1..r_m (r) to the partial
 * autocorrelations phi_1..phi_m, with a (m doubles) as work space for the
 * AR coefficients. Step for step the numpy recursion
 *     num = r[k-1] - a[:k-1] @ r[k-2::-1]
 *     den = 1 - a[:k-1] @ r[:k-1]
 *     a[:k-1] = a[:k-1] - pk * a[k-2::-1]
 * with each dot product a sequential sum. The update reads both old
 * coefficients of a mirrored pair before writing either, as numpy's
 * temporary copy does. Returns 0, or the order k at which |den| < 1e-12,
 * with that denominator in *bad_den.
 */
int64_t durbin_levinson(const double *r, int64_t m, double *phi, double *a, double *bad_den)
{
    phi[0] = a[0] = r[0];
    for (int64_t k = 2; k <= m; k++) {
        double dot_rev = 0.0, dot = 0.0;
        for (int64_t i = 0; i < k - 1; i++) {
            dot_rev += a[i] * r[k - 2 - i];
            dot += a[i] * r[i];
        }
        double num = r[k - 1] - dot_rev;
        double den = 1.0 - dot;
        if (fabs(den) < 1e-12) {
            *bad_den = den;
            return k;
        }
        double pk = num / den;
        for (int64_t i = 0, j = k - 2; i <= j; i++, j--) {
            double ai = a[i], aj = a[j];
            a[i] = ai - pk * aj;
            a[j] = aj - pk * ai;
        }
        a[k - 1] = pk;
        phi[k - 1] = pk;
    }
    return 0;
}
