"""The numpy random-forest grower and descent that the compiled kernel replaced.

Kept as the reference that ``tests/test_tree_kernel.py`` compares the kernel
with bit for bit. ``grow_tree`` and ``tree_predict`` take the arguments of
``forest._grow`` and ``forest._descend``, so a test can patch them in and run
the same ``fit``, ``predict``, ``oob_error`` and ``permutation_importance``.

The grower sorts integer keys instead of floats at each node: every value is
replaced by its dense rank within its column, shifted into the high 32 bits,
and a node ORs each row's position into the low bits. The keys are unique, so
any sort of them gives the stable order of the values: the low word is the
sort order and equal high words mark tied values.
"""

import numpy as np

from flowregion.forest import RegressionTree

_LOW_WORD = np.uint64(0xFFFFFFFF)
_HIGH_SHIFT = np.uint64(32)


def rank_keys(X: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its column, shifted into the high word.

    Laid out predictors x rows, so a node gathers its candidates' keys as rows.
    """
    cols = X.T
    order = cols.argsort(axis=1)
    ordered = np.take_along_axis(cols, order, axis=1)
    steps = np.zeros(cols.shape, dtype=np.uint64)
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    keys = np.empty_like(steps)
    np.put_along_axis(keys, order, steps.cumsum(axis=1) << _HIGH_SHIFT, axis=1)
    return keys


def inverse_sizes(cache: dict, m: int) -> tuple[np.ndarray, np.ndarray]:
    inv = cache.get(m)
    if inv is None:
        sizes = np.arange(1, m, dtype=np.float64)
        inv = (1.0 / sizes, 1.0 / sizes[::-1])
        cache[m] = inv
    return inv


def grow_tree(X, ranks, y, mtry, min_node_size, rng):
    """One tree as ``forest._grow`` grows it. ``ranks`` is ignored: the keys
    are ranked again from X, so a comparison also checks the ranks a caller
    passes to the kernel."""
    keys = rank_keys(X)
    size_cache: dict = {}
    n, p = X.shape
    inbag = rng.integers(0, n, size=n)
    oob = np.flatnonzero(np.bincount(inbag, minlength=n) == 0)
    Xb = X[inbag]
    kb = keys[:, inbag]
    yb = y[inbag]
    positions = np.arange(n, dtype=np.uint64)

    feature = [-1]
    threshold = [np.nan]
    left = [-1]
    right = [-1]
    value = [np.nan]

    n_cand = min(mtry, p)
    stack = [(0, np.arange(n))]
    while stack:
        node, rows = stack.pop()
        ys = yb[rows]
        m = rows.size
        total = float(ys.sum())
        if m < 2 * min_node_size or ys.max() == ys.min():
            value[node] = total / m
            continue
        cand = rng.permutation(p)[:n_cand]
        cand.sort()
        # unique keys: any sort gives the stable order of the values, with
        # ties ordered by position in rows
        ks = kb[cand].take(rows, axis=1)
        ks |= positions[:m]
        ks.sort(axis=1)
        order = (ks & _LOW_WORD).astype(np.intp)
        ranks = ks >> _HIGH_SHIFT
        csum = ys[order].cumsum(axis=1)
        inv_left, inv_right = inverse_sizes(size_cache, m)
        s_left = csum[:, :-1]
        s_right = total - s_left
        gain = s_left * s_left * inv_left + s_right * s_right * inv_right
        gain[ranks[:, 1:] == ranks[:, :-1]] = -np.inf
        if min_node_size > 1:
            gain[:, : min_node_size - 1] = -np.inf
            gain[:, m - min_node_size :] = -np.inf
        # candidates are rows, so the C order is feature-major: ties resolve
        # to the lower predictor index, then the lower threshold
        best = int(gain.argmax())
        j, i = divmod(best, m - 1)
        if gain[j, i] == -np.inf:
            value[node] = total / m
            continue

        # positions 0..i of the j-th sort order are exactly the rows <= thr
        rows_sorted = rows[order[j]]
        f = int(cand[j])
        thr = 0.5 * (Xb[rows_sorted[i], f] + Xb[rows_sorted[i + 1], f])
        left_idx = len(feature)
        feature.extend((-1, -1))
        threshold.extend((np.nan, np.nan))
        left.extend((-1, -1))
        right.extend((-1, -1))
        value.extend((np.nan, np.nan))
        feature[node] = f
        threshold[node] = float(thr)
        left[node] = left_idx
        right[node] = left_idx + 1
        stack.append((left_idx + 1, rows_sorted[i + 1 :]))
        stack.append((left_idx, rows_sorted[: i + 1]))

    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
        inbag=inbag.astype(np.int64),
        oob=oob.astype(np.int64),
    )



def tree_predict(tree: RegressionTree, X: np.ndarray, cols=None,
                  perms=None) -> np.ndarray:
    """Leaf value reached by each row of X.

    Given k predictor indices ``cols`` and a k x n array ``perms`` of row
    permutations, predicts k permuted copies of X in one descent instead:
    row r of copy c reads predictor ``cols[c]`` from row ``perms[c, r]`` and
    every other predictor from row r. The result is then k x n.
    """
    n = X.shape[0]
    feature, threshold = tree.feature, tree.threshold
    left, right, value = tree.left, tree.right, tree.value
    if n == 0:
        return np.empty(0)
    if n < 64 and cols is None:
        # scalar descent beats vectorized traversal for small batches
        lists = getattr(tree, "_lists", None)
        if lists is None:
            lists = (feature.tolist(), threshold.tolist(), left.tolist(),
                     right.tolist(), value.tolist())
            tree._lists = lists
        fl, tl, ll, rl, vl = lists
        out = np.empty(n)
        for i in range(n):
            row = X[i]
            node = 0
            f = fl[node]
            while f >= 0:
                node = ll[node] if row[f] <= tl[node] else rl[node]
                f = fl[node]
            out[i] = vl[node]
        return out
    # rows are flat offsets into X: a 1-d take is cheaper than X[rows, cols]
    p = X.shape[1]
    flat = X.ravel()
    row_off = np.arange(0, n * p, p)
    if cols is not None:
        copy_col = np.repeat(cols, n)
        perm_off = perms.ravel() * p
        row_off = np.tile(row_off, len(cols))
    nodes = np.zeros(row_off.size, dtype=np.int64)
    active = np.flatnonzero(feature[nodes] >= 0)
    while active.size:
        cur = nodes[active]
        f = feature[cur]
        off = row_off[active]
        if cols is not None:
            off = np.where(f == copy_col[active], perm_off[active], off)
        go_left = flat.take(off + f) <= threshold[cur]
        nodes[active] = np.where(go_left, left[cur], right[cur])
        active = active[feature[nodes[active]] >= 0]
    out = value[nodes]
    return out if cols is None else out.reshape(len(cols), n)
