/*
 * Regression-tree growth and descent for flowregion.forest.
 *
 * Compiled on first use by flowregion.native and called through ctypes.
 * Growth reproduces the reference numpy grower bit for bit, so every
 * floating-point step below keeps numpy's order of operations: node totals
 * use numpy's pairwise summation, the left sums are a sequential cumulative
 * sum, and the gain multiplies by precomputed reciprocals of the child sizes.
 * Build without -ffast-math and with -ffp-contract=off, so that no step is
 * reassociated or fused. The split search computes the gain at every sorted
 * position but lets only split positions (between distinct keys) compete,
 * as numpy's argmax over them: the first NaN gain at a split position wins
 * and ends the node's search, else the first strict maximum wins.
 *
 * Every random draw of the forest is made here as numpy's Generator makes
 * it from a PCG64 (O'Neill 2014, XSL-RR 128/64) seeded with the words of
 * seed_states: a bootstrap sample as integers(0, n, size=n), by Lemire's
 * bounded draw (Lemire 2019, ACM TOMACS 29(1):3), and permutation(m) as
 * Generator.shuffle's swaps, by masked rejection. Only the 32-bit draws are
 * reproduced, as every size here is below 2^32. No numpy RNG code runs, so
 * the draws match numpy's only while numpy keeps these algorithms; the
 * tests compare them with the installed numpy (last run: numpy 2.4.6).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* nodes up to 2^SMALL_BITS rows are sorted by counting, larger ones by radix */
#define SMALL_BITS 5
#define SMALL_MAX (1 << SMALL_BITS)
/* widest radix digit: 2^11 buckets */
#define DIGIT_BITS 11

typedef int32_t v4si __attribute__((vector_size(16)));

/* added to the gain at a position that is (1) or is not (0) a split
 * position: a NaN never compares greater */
static const double skip_gain[2] = {NAN, 0.};

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
 * and ascending in the input, so equal keys keep their order. Keys are at
 * least low and below low + 2^bits. Returns whichever of a and tmp holds the
 * result.
 *
 * A small node's word goes to the place given by the count of words below
 * it, counted four at a time on (key - low) << SMALL_BITS | position: a
 * fixed amount of work with no branch on the data, where an insertion sort
 * mispredicts about once per word. Larger nodes, and small ones whose keys
 * leave no room for the position in 31 bits, are radix-sorted with the pass
 * count that touches the fewest words and buckets.
 */
static uint64_t *sort_words(uint64_t *a, uint64_t *tmp, int64_t m, uint32_t low, int bits,
                            int64_t *count)
{
    if (m <= SMALL_MAX && bits <= 31 - SMALL_BITS) {
        union {
            v4si block[SMALL_MAX / 4];
            int32_t key[SMALL_MAX];
        } c;
        int64_t blocks = (m + 3) / 4;
        for (int64_t i = 0; i < 4 * blocks; i++)
            c.key[i] = i < m ? (int32_t)(((a[i] >> 32) - low) << SMALL_BITS | (uint64_t)i)
                             : INT32_MAX;
        for (int64_t i = 0; i < m; i++) {
            v4si key = {c.key[i], c.key[i], c.key[i], c.key[i]}, below = {0, 0, 0, 0};
            for (int64_t b = 0; b < blocks; b++)
                below -= c.block[b] < key;
            tmp[below[0] + below[1] + below[2] + below[3]] = a[i];
        }
        return tmp;
    }
    int passes = (bits + DIGIT_BITS - 1) / DIGIT_BITS;
    int width = passes ? (bits + passes - 1) / passes : 0;
    for (int more = passes + 1; more <= bits; more++) {
        int narrower = (bits + more - 1) / more;
        if (more * (3 * m + ((int64_t)1 << narrower)) < passes * (3 * m + ((int64_t)1 << width))) {
            passes = more;
            width = narrower;
        }
    }
    for (int pass = 0; pass < passes; pass++) {
        int shift = pass * width;
        int64_t buckets = (int64_t)1 << width;
        uint64_t mask = (uint64_t)buckets - 1;
        memset(count, 0, (size_t)buckets * sizeof *count);
        for (int64_t i = 0; i < m; i++)
            count[((a[i] >> 32) - low) >> shift & mask]++;
        int64_t sum = 0;
        for (int64_t b = 0; b < buckets; b++) {
            int64_t c = count[b];
            count[b] = sum;
            sum += c;
        }
        for (int64_t i = 0; i < m; i++)
            tmp[count[((a[i] >> 32) - low) >> shift & mask]++] = a[i];
        uint64_t *swap = a;
        a = tmp;
        tmp = swap;
    }
    return a;
}

/* numpy's PCG64 state, with the half of a 64-bit draw that numpy's
 * next_uint32 keeps for its next call; unsigned __int128 is a GCC and Clang
 * extension */
typedef unsigned __int128 uint128;

#define PCG_MULT ((uint128)2549297995355413924u << 64 | 4865540595714422341u)

struct pcg64 {
    uint128 state, inc;
    uint32_t half;
    int has_half;
};

/* numpy's pcg64_set_seed: seed w0 * 2^64 + w1, stream w2 * 2^64 + w3 */
static void pcg_seed(struct pcg64 *g, const uint64_t *words)
{
    g->inc = ((uint128)words[2] << 64 | words[3]) << 1 | 1;
    g->state = g->inc;
    g->state += (uint128)words[0] << 64 | words[1];
    g->state = g->state * PCG_MULT + g->inc;
    g->has_half = 0;
}

static uint64_t next64(struct pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return x >> rot | x << (-rot & 63);
}

static uint32_t next32(struct pcg64 *g)
{
    if (g->has_half) {
        g->has_half = 0;
        return g->half;
    }
    uint64_t x = next64(g);
    g->half = (uint32_t)(x >> 32);
    g->has_half = 1;
    return (uint32_t)x;
}

/* numpy's buffered_bounded_lemire_uint32: a draw from [0, rng], rng < 2^32 - 1 */
static uint32_t bounded(struct pcg64 *g, uint32_t rng)
{
    uint32_t excl = rng + 1;
    uint64_t m = (uint64_t)next32(g) * excl;
    if ((uint32_t)m < excl) {
        uint32_t threshold = (UINT32_MAX - rng) % excl;
        while ((uint32_t)m < threshold)
            m = (uint64_t)next32(g) * excl;
    }
    return (uint32_t)(m >> 32);
}

/* numpy's Generator.permutation(m) for m < 2^32: arange(m), then a swap of
 * each position i from m - 1 down to 1 with one drawn by random_interval(i),
 * which draws under the smallest all-ones mask not below i until a draw is
 * at most i. It draws from a copy of the generator, which the compiler can
 * then keep in registers across the stores to `out`. */
static void permutation(struct pcg64 *shared, int64_t m, int64_t *out)
{
    struct pcg64 local = *shared, *g = &local;
    for (int64_t i = 0; i < m; i++)
        out[i] = i;
    for (int64_t i = m - 1; i >= 1; i--) {
        uint32_t max = (uint32_t)i, mask = UINT32_MAX >> __builtin_clz(max), j;
        while ((j = next32(g) & mask) > max)
            ;
        int64_t swap = out[j];
        out[j] = out[i];
        out[i] = swap;
    }
    *shared = local;
}

/* one permutation(m) per generator seeded from states[4c .. 4c + 4),
 * c < k, into out[c * m .. (c + 1) * m) */
void permutations(const uint64_t *states, int64_t k, int64_t m, int64_t *out)
{
    for (int64_t c = 0; c < k; c++) {
        struct pcg64 g;
        pcg_seed(&g, states + 4 * c);
        permutation(&g, m, out + c * m);
    }
}

/* scratch memory for growing trees on at most n rows of p predictors, in one block */
struct workspace {
    int64_t *rows, *reordered, *count, *stack, *order;
    double *ys, *inv;
    uint64_t *words;
    char *chosen, *drawn;
};

static void *alloc_workspace(struct workspace *w, int64_t n, int64_t p)
{
    size_t eight_byte = (size_t)(2 * n + ((int64_t)1 << DIGIT_BITS) + 3 * (n + 1) + p + n
                                 + (n + 1) + 3 * n);
    char *block = malloc(eight_byte * 8 + (size_t)(p + n));
    if (!block)
        return NULL;
    w->rows = (int64_t *)block;
    w->reordered = w->rows + n;
    w->count = w->reordered + n;
    w->stack = w->count + ((int64_t)1 << DIGIT_BITS);
    w->order = w->stack + 3 * (n + 1);
    w->ys = (double *)(w->order + p);
    w->inv = w->ys + n;
    w->words = (uint64_t *)(w->inv + n + 1);
    w->chosen = (char *)(w->words + 3 * n);
    w->drawn = w->chosen + p;
    for (int64_t k = 1; k <= n; k++)
        w->inv[k] = 1.0 / (double)k;
    return block;
}

/*
 * Grow one tree depth-first, left child first, on the bootstrap sample
 * `inbag` (n draws of rows of the n_rows x p matrix X).
 *
 * ranks: p x n_rows keys whose order and equality within each column are
 *   those of X's values. Each node that tries to split draws one
 *   permutation(p) from g; its candidates are the first n_cand entries,
 *   scanned in ascending predictor order.
 * The node arrays have room for `room` nodes. Returns the node count, or -3
 * if the room ran out.
 */
static int64_t grow_tree(struct workspace *w, struct pcg64 *g, const double *X,
                         const uint32_t *ranks, const double *y, int64_t n_rows, int64_t n,
                         int64_t p, const int64_t *inbag, int64_t n_cand, int64_t min_node_size,
                         int64_t room, int32_t *feature, double *threshold, int32_t *left,
                         int32_t *right, double *value)
{
    int64_t *rows = w->rows, *stack = w->stack;
    double *ys = w->ys, *inv = w->inv;
    char *chosen = w->chosen;
    for (int64_t i = 0; i < n; i++)
        rows[i] = inbag[i];

    /* the stack holds (node id, first row in `rows`, row count) */
    int64_t n_nodes = 1, depth = 1;
    if (room < 1)
        return -3;
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
        permutation(g, p, w->order);
        memset(chosen, 0, (size_t)p);
        for (int64_t k = 0; k < n_cand; k++)
            chosen[w->order[k]] = 1;

        /* valid split positions: both children keep min_node_size rows */
        int64_t first = min_node_size - 1, last = m - min_node_size - 1;
        uint64_t *best = w->words, *work = w->words + n, *spare = w->words + 2 * n;
        double best_gain = -INFINITY;
        int64_t best_f = -1, best_i = -1;
        int nan_found = 0;
        for (int64_t f = 0; f < p && !nan_found; f++) {
            if (!chosen[f])
                continue;
            const uint32_t *col = ranks + f * n_rows;
            uint32_t kmin = UINT32_MAX, kmax = 0;
            for (int64_t i = 0; i < m; i++) {
                uint32_t k = col[node_rows[i]];
                work[i] = (uint64_t)k << 32 | (uint64_t)i;
                kmin = k < kmin ? k : kmin;
                kmax = k > kmax ? k : kmax;
            }
            int bits = 0;
            while (bits < 32 && (kmax - kmin) >> bits)
                bits++;
            uint64_t *sorted = sort_words(work, spare, m, kmin, bits, w->count);
            uint64_t *other = sorted == work ? spare : work;

            /*
             * The gain is computed at every position from first to last, but
             * only split positions (whose key differs from the next) compete.
             * Bootstrap copies and tied keys make a branch on either test
             * unpredictable, so the candidate's best is kept by selects, and
             * skip_gain turns the gain at any other position into a NaN.
             * numpy's argmax rules hold: a NaN gain at a split position wins
             * and ends the node's search, else the first strict maximum over
             * the candidates in ascending order wins. A NaN gain inside a run
             * of tied keys is ignored.
             */
            double sl = 0., bg = best_gain;
            int64_t bi = -1;
            for (int64_t i = 0; i < first; i++)
                sl += ys[(uint32_t)sorted[i]];
            for (int64_t i = first; i <= last; i++) {
                sl += ys[(uint32_t)sorted[i]];
                int split = sorted[i] >> 32 != sorted[i + 1] >> 32;
                double sr = total - sl;
                double gain = sl * sl * inv[i + 1] + sr * sr * inv[m - 1 - i];
                if (__builtin_expect(gain != gain, 0) && split) {
                    bg = gain;
                    bi = i;
                    nan_found = 1;
                    break;
                }
                gain += skip_gain[split];
                int better = gain > bg;
                bi = better ? i : bi;
                bg = better ? gain : bg;
            }
            /* the best order so far is kept; the other two buffers are scratch */
            if (bi >= 0) {
                best_gain = bg;
                best_f = f;
                best_i = bi;
                work = best;
                best = sorted;
            } else {
                work = sorted;
            }
            spare = other;
        }
        if (best_f < 0)
            continue;
        if (n_nodes + 2 > room)
            return -3;

        for (int64_t i = 0; i < m; i++)
            w->reordered[i] = node_rows[(uint32_t)best[i]];
        memcpy(node_rows, w->reordered, (size_t)m * sizeof *node_rows);
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
    return n_nodes;
}

/*
 * Grow the n_trees trees of a forest into its node store, and list each
 * tree's out-of-bag rows.
 *
 * X, ranks and y hold n_rows rows (see grow_tree). Tree t draws from a
 *   PCG64 seeded from states[4t .. 4t + 4). Without `rows` it samples the
 *   n_rows rows of X; with them, the rows rows[row_start[t] ..
 *   row_start[t+1]), at most n_rows, as if X held only those. Its sample
 *   is numpy's integers(0, n, size=n) on its n rows, mapped through them,
 *   and goes to the first n entries of row t of `inbag`, rows of `width`
 *   entries, width being the largest n. Its nodes then draw their
 *   candidates from the same generator (see grow_tree).
 * Tree t's nodes go to [node_start[t], node_start[t+1]) of the node arrays,
 * which hold `room` nodes; its child indices count from its own first node.
 * Its out-of-bag rows (the rows of X it never drew), ascending, go to
 * [oob_start[t], oob_start[t+1]) of `oob`. Every size must be below 2^32.
 * Returns 0, -2 if memory ran out, or -3 if the node store ran out of room.
 */
int64_t grow_forest(const double *X, const uint32_t *ranks, const double *y, int64_t n_rows,
                    int64_t p, const uint64_t *states, const int64_t *rows,
                    const int64_t *row_start, int64_t width, int64_t n_cand,
                    int64_t min_node_size, int64_t room, int32_t *feature, double *threshold,
                    int32_t *left, int32_t *right, double *value, int64_t *node_start,
                    int64_t *inbag, int64_t *oob, int64_t *oob_start, int64_t n_trees)
{
    struct workspace w;
    void *block = alloc_workspace(&w, n_rows, p);
    if (!block)
        return -2;
    int64_t result = 0;
    node_start[0] = oob_start[0] = 0;
    for (int64_t t = 0; t < n_trees; t++) {
        const int64_t *own = rows ? rows + row_start[t] : NULL;
        int64_t n = rows ? row_start[t + 1] - row_start[t] : n_rows, at = node_start[t];
        int64_t *sample = inbag + t * width;
        struct pcg64 g;
        pcg_seed(&g, states + 4 * t);
        /* numpy draws nothing for a range of one value */
        for (int64_t i = 0; i < n; i++) {
            int64_t draw = n > 1 ? (int64_t)bounded(&g, (uint32_t)(n - 1)) : 0;
            sample[i] = own ? own[draw] : draw;
        }
        int64_t count = grow_tree(&w, &g, X, ranks, y, n_rows, n, p, sample, n_cand,
                                  min_node_size, room - at, feature + at, threshold + at,
                                  left + at, right + at, value + at);
        if (count < 0) {
            result = count;
            break;
        }
        node_start[t + 1] = at + count;

        memset(w.drawn, 0, (size_t)n_rows);
        for (int64_t i = 0; i < n; i++)
            w.drawn[sample[i]] = 1;
        int64_t *out = oob + oob_start[t];
        for (int64_t r = 0; r < n_rows; r++)
            if (!w.drawn[r])
                *out++ = r;
        oob_start[t + 1] = out - oob;
    }
    free(block);
    return result;
}

/* index of the leaf that the predictor values x reach in one tree */
static inline int32_t leaf(const int32_t *feature, const double *threshold, const int32_t *left,
                           const int32_t *right, const double *x)
{
    int32_t node = 0, f;
    while ((f = feature[node]) >= 0)
        node = x[f] <= threshold[node] ? left[node] : right[node];
    return node;
}

/*
 * Leaf values of trees first .. last-1 of a forest stored as grow_forest
 * leaves it, summed per row of the n x p matrix X in tree order.
 *
 * Without `oob`, every tree predicts every row. With it (the forest's
 * out-of-bag lists, X its training rows), each tree predicts only its
 * out-of-bag rows, and counts[r] counts the trees that predicted row r.
 * sums and counts must start at zero.
 *
 * With `cols` as well, the range must hold one tree, with m out-of-bag rows.
 * sums then receives (1 + k) x m values: row 0 the leaf values of the tree's
 * out-of-bag rows, and row 1 + c those of copy c, whose row i reads predictor
 * cols[c] from X[oob[perms[c * m + i]]] and every other predictor from
 * X[oob[i]]. Each copy swaps its value into `row`, p doubles of scratch.
 */
void descend_forest(const int32_t *feature, const double *threshold, const int32_t *left,
                    const int32_t *right, const double *value, const int64_t *node_start,
                    int64_t first, int64_t last, const double *X, int64_t n, int64_t p,
                    int64_t k, const int64_t *oob, const int64_t *oob_start,
                    const int64_t *cols, const int64_t *perms, double *row, double *sums,
                    int64_t *counts)
{
    for (int64_t t = first; t < last; t++) {
        int64_t at = node_start[t];
        const int32_t *f = feature + at, *l = left + at, *r = right + at;
        const double *thr = threshold + at, *v = value + at;
        if (!oob) {
            for (int64_t i = 0; i < n; i++)
                sums[i] += v[leaf(f, thr, l, r, X + i * p)];
            continue;
        }
        const int64_t *o = oob + oob_start[t];
        int64_t m = oob_start[t + 1] - oob_start[t];
        for (int64_t i = 0; i < m; i++) {
            const double *x = X + o[i] * p;
            if (!cols) {
                sums[o[i]] += v[leaf(f, thr, l, r, x)];
                counts[o[i]]++;
                continue;
            }
            memcpy(row, x, (size_t)p * sizeof *row);
            sums[i] = v[leaf(f, thr, l, r, row)];
            for (int64_t c = 0; c < k; c++) {
                int64_t j = cols[c];
                row[j] = X[o[perms[c * m + i]] * p + j];
                sums[(1 + c) * m + i] = v[leaf(f, thr, l, r, row)];
                row[j] = x[j];
            }
        }
    }
}

/* numpy's SeedSequence constants (numpy/random/bit_generator.pyx) */
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define POOL_SIZE 4

static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= MULT_A;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> 16;
}

/*
 * numpy's SeedSequence(entropy).generate_state(4, np.uint64), the state that
 * seeds a PCG64, for b entropy arrays: array i is the uint32 words
 * words[offsets[i] .. offsets[i+1]), and its state goes to out[4i .. 4i+4).
 */
void seed_states(const uint32_t *words, const int64_t *offsets, int64_t b, uint64_t *out)
{
    for (int64_t i = 0; i < b; i++) {
        const uint32_t *entropy = words + offsets[i];
        int64_t size = offsets[i + 1] - offsets[i];
        uint32_t pool[POOL_SIZE], hash = INIT_A;
        for (int64_t j = 0; j < POOL_SIZE; j++)
            pool[j] = hashmix(j < size ? entropy[j] : 0, &hash);
        for (int src = 0; src < POOL_SIZE; src++)
            for (int dst = 0; dst < POOL_SIZE; dst++)
                if (src != dst)
                    pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
        for (int64_t src = POOL_SIZE; src < size; src++)
            for (int dst = 0; dst < POOL_SIZE; dst++)
                pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash));

        uint32_t state[2 * POOL_SIZE];
        hash = INIT_B;
        for (int j = 0; j < 2 * POOL_SIZE; j++) {
            uint32_t value = pool[j % POOL_SIZE] ^ hash;
            hash *= MULT_B;
            value *= hash;
            state[j] = value ^ value >> 16;
        }
        for (int j = 0; j < POOL_SIZE; j++)
            out[POOL_SIZE * i + j] = (uint64_t)state[2 * j + 1] << 32 | state[2 * j];
    }
}
