/*
 * Regression-tree growth and descent for flowregion.forest.
 *
 * Compiled on first use by flowregion.native and called through ctypes.
 * Growth reproduces the reference numpy grower bit for bit, so every
 * floating-point step below keeps numpy's order of operations: node totals
 * use numpy's pairwise summation, the left sums are a sequential cumulative
 * sum, and the gain multiplies by precomputed reciprocals of the child sizes.
 * Build without -ffast-math and with -ffp-contract=off, so that no step is
 * reassociated or fused.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* nodes up to this size are insertion-sorted; larger ones are radix-sorted */
#define INSERTION_MAX 32
/* widest radix digit: 2^11 buckets */
#define DIGIT_BITS 11

/* numpy's pairwise summation of a contiguous float64 array */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/*
 * Sort m words (key << 32 | position) by key, stably: positions are unique
 * and ascending in the input, so equal keys keep their order. Keys are below
 * 2^bits. Returns whichever of a and tmp holds the result.
 */
static uint64_t *sort_words(uint64_t *a, uint64_t *tmp, int64_t m, int bits, int64_t *count)
{
    if (m <= INSERTION_MAX) {
        for (int64_t i = 1; i < m; i++) {
            uint64_t w = a[i];
            int64_t j = i;
            for (; j > 0 && a[j - 1] > w; j--)
                a[j] = a[j - 1];
            a[j] = w;
        }
        return a;
    }
    int passes = (bits + DIGIT_BITS - 1) / DIGIT_BITS;
    int width = passes ? (bits + passes - 1) / passes : 0;
    for (int pass = 0; pass < passes; pass++) {
        int shift = 32 + pass * width;
        int64_t buckets = (int64_t)1 << width;
        uint64_t mask = (uint64_t)buckets - 1;
        memset(count, 0, (size_t)buckets * sizeof *count);
        for (int64_t i = 0; i < m; i++)
            count[(a[i] >> shift) & mask]++;
        int64_t sum = 0;
        for (int64_t b = 0; b < buckets; b++) {
            int64_t c = count[b];
            count[b] = sum;
            sum += c;
        }
        for (int64_t i = 0; i < m; i++)
            tmp[count[(a[i] >> shift) & mask]++] = a[i];
        uint64_t *swap = a;
        a = tmp;
        tmp = swap;
    }
    return a;
}

/*
 * Grow one tree depth-first, left child first, on the bootstrap sample
 * `inbag` (n draws of rows of the n x p matrix X).
 *
 * ranks: p x n keys whose order and equality within each column are those of
 *   X's values. draws: n_draws rows of p candidate orders, one consumed per
 *   node that tries to split; a node's candidates are the first n_cand
 *   entries of its row, scanned in ascending predictor order.
 * The node arrays need room for 2n - 1 nodes. Returns the node count, -1 if
 * the draws ran out, or -2 if memory ran out.
 */
int64_t grow_tree(const double *X, const uint32_t *ranks, const double *y, int64_t n,
                  int64_t p, const int64_t *inbag, const int64_t *draws, int64_t n_draws,
                  int64_t n_cand, int64_t min_node_size, int32_t *feature, double *threshold,
                  int32_t *left, int32_t *right, double *value)
{
    int64_t *rows = malloc((size_t)n * sizeof *rows);
    int64_t *reordered = malloc((size_t)n * sizeof *reordered);
    double *ys = malloc((size_t)n * sizeof *ys);
    double *inv = malloc((size_t)(n + 1) * sizeof *inv);
    uint32_t *keys = malloc((size_t)n * sizeof *keys);
    uint64_t *words = malloc((size_t)3 * n * sizeof *words);
    int64_t *count = malloc(((size_t)1 << DIGIT_BITS) * sizeof *count);
    int64_t *stack = malloc((size_t)3 * (n + 1) * sizeof *stack);
    char *chosen = malloc((size_t)p);
    int64_t result = -2;
    if (!rows || !reordered || !ys || !inv || !keys || !words || !count || !stack || !chosen)
        goto done;

    for (int64_t k = 1; k <= n; k++)
        inv[k] = 1.0 / (double)k;
    for (int64_t i = 0; i < n; i++)
        rows[i] = inbag[i];

    /* the stack holds (node id, first row in `rows`, row count) */
    int64_t n_nodes = 1, next_draw = 0, depth = 1;
    feature[0] = -1;
    threshold[0] = NAN;
    left[0] = right[0] = -1;
    stack[0] = 0;
    stack[1] = 0;
    stack[2] = n;
    while (depth) {
        depth--;
        int64_t node = stack[3 * depth], start = stack[3 * depth + 1], m = stack[3 * depth + 2];
        int64_t *node_rows = rows + start;
        double lo = INFINITY, hi = -INFINITY;
        for (int64_t i = 0; i < m; i++) {
            double v = y[node_rows[i]];
            ys[i] = v;
            lo = v < lo ? v : lo;
            hi = v > hi ? v : hi;
        }
        double total = 0. + pairwise_sum(ys, m);
        value[node] = total / (double)m;
        if (m < 2 * min_node_size || hi == lo)
            continue;
        if (next_draw == n_draws) {
            result = -1;
            goto done;
        }
        memset(chosen, 0, (size_t)p);
        for (int64_t k = 0; k < n_cand; k++)
            chosen[draws[next_draw * p + k]] = 1;
        next_draw++;

        /* valid split positions: both children keep min_node_size rows */
        int64_t first = min_node_size - 1, last = m - min_node_size - 1;
        uint64_t *best = words, *work = words + n, *spare = words + 2 * n;
        double best_gain = -INFINITY;
        int64_t best_f = -1, best_i = -1;
        int nan_found = 0;
        for (int64_t f = 0; f < p && !nan_found; f++) {
            if (!chosen[f])
                continue;
            const uint32_t *col = ranks + f * n;
            uint32_t kmin = UINT32_MAX, kmax = 0;
            for (int64_t i = 0; i < m; i++) {
                uint32_t k = col[node_rows[i]];
                keys[i] = k;
                kmin = k < kmin ? k : kmin;
                kmax = k > kmax ? k : kmax;
            }
            for (int64_t i = 0; i < m; i++)
                work[i] = (uint64_t)(keys[i] - kmin) << 32 | (uint64_t)i;
            int bits = 0;
            while (bits < 32 && (kmax - kmin) >> bits)
                bits++;
            uint64_t *sorted = sort_words(work, spare, m, bits, count);
            uint64_t *other = sorted == work ? spare : work;

            double sl = 0.;
            int improved = 0;
            for (int64_t i = 0; i < last + 1; i++) {
                sl += ys[(uint32_t)sorted[i]];
                if (i < first || sorted[i] >> 32 == sorted[i + 1] >> 32)
                    continue;
                double sr = total - sl;
                double gain = sl * sl * inv[i + 1] + sr * sr * inv[m - 1 - i];
                /* numpy's argmax: the first NaN wins, else the first maximum */
                if (gain > best_gain || gain != gain) {
                    best_gain = gain;
                    best_f = f;
                    best_i = i;
                    improved = 1;
                    if (gain != gain) {
                        nan_found = 1;
                        break;
                    }
                }
            }
            /* the best order so far is kept; the other two buffers are scratch */
            if (improved) {
                work = best;
                best = sorted;
            } else {
                work = sorted;
            }
            spare = other;
        }
        if (best_f < 0)
            continue;

        for (int64_t i = 0; i < m; i++)
            reordered[i] = node_rows[(uint32_t)best[i]];
        memcpy(node_rows, reordered, (size_t)m * sizeof *node_rows);
        int64_t child = n_nodes;
        n_nodes += 2;
        for (int64_t c = child; c < child + 2; c++) {
            feature[c] = -1;
            threshold[c] = NAN;
            left[c] = right[c] = -1;
            value[c] = NAN;
        }
        feature[node] = (int32_t)best_f;
        threshold[node] = 0.5 * (X[node_rows[best_i] * p + best_f]
                                 + X[node_rows[best_i + 1] * p + best_f]);
        left[node] = (int32_t)child;
        right[node] = (int32_t)(child + 1);
        value[node] = NAN;
        int64_t *push = stack + 3 * depth;
        push[0] = child + 1;
        push[1] = start + best_i + 1;
        push[2] = m - best_i - 1;
        push[3] = child;
        push[4] = start;
        push[5] = best_i + 1;
        depth += 2;
    }
    result = n_nodes;

done:
    free(rows);
    free(reordered);
    free(ys);
    free(inv);
    free(keys);
    free(words);
    free(count);
    free(stack);
    free(chosen);
    return result;
}

/*
 * Leaf value reached by each of the n rows of the n x p matrix X.
 *
 * With k > 0, descends k permuted copies of X instead: row r of copy c reads
 * predictor cols[c] from row perms[c * n + r] and every other predictor from
 * row r. out then holds k x n values.
 */
void descend(const int32_t *feature, const double *threshold, const int32_t *left,
             const int32_t *right, const double *value, const double *X, int64_t n,
             int64_t p, const int64_t *cols, const int64_t *perms, int64_t k, double *out)
{
    int64_t copies = k ? k : 1;
    for (int64_t c = 0; c < copies; c++) {
        int64_t col = k ? cols[c] : -1;
        const int64_t *perm = k ? perms + c * n : NULL;
        for (int64_t r = 0; r < n; r++) {
            int32_t node = 0, f;
            while ((f = feature[node]) >= 0) {
                int64_t row = f == col ? perm[r] : r;
                node = X[row * p + f] <= threshold[node] ? left[node] : right[node];
            }
            out[c * n + r] = value[node];
        }
    }
}
