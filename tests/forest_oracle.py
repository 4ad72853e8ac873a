"""The numpy random-forest grower and descent that the compiled kernel replaced.

Kept as the reference that ``tests/test_tree_kernel.py`` compares the kernel
with bit for bit. ``grow_forest``, ``shuffles`` and ``descend_forest`` take
the arguments of ``forest._grow_forest``, ``forest._shuffles`` and
``forest._descend_forest``, so a test can patch them in and run the same
``fit``, ``predict``, ``oob_error``, ``permutation_importance`` and
``cross_predict``. They loop over the per-tree ``grow_tree`` and
``tree_predict``, and draw through numpy's ``Generator``.

The grower sorts integer keys instead of floats at each node: every value is
replaced by its dense rank within its column, shifted into the high 32 bits,
and a node ORs each row's position into the low bits. The keys are unique, so
any sort of them gives the stable order of the values: the low word is the
sort order and equal high words mark tied values.
"""

import numpy as np

from flowregion import forest, seeding
from flowregion.forest import RegressionTree, TreeStore

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
    """One tree of ``forest._grow_forest``. ``ranks`` is ignored: the keys
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
    n, p = X.shape
    feature, threshold = tree.feature, tree.threshold
    left, right, value = tree.left, tree.right, tree.value
    if n == 0:
        return np.empty(0)
    # rows are flat offsets into X: a 1-d take is cheaper than X[rows, cols]
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


def grow_forest(X, ranks, y, mtry, min_node_size, n_trees, states, rows=None) -> TreeStore:
    """One ``grow_tree`` per PCG64 state, packed as ``forest._grow_forest`` packs.

    Tree t draws through numpy from a ``Generator`` whose PCG64 is seeded
    from ``states[t]``, so a comparison also checks the kernel's own draws.
    With ``rows``, tree t grows on ``X[rows[t]]`` and ``y[rows[t]]``; its
    bootstrap draws are mapped back through ``rows[t]``, its out-of-bag rows
    are all rows of X it never drew, and its ``inbag`` row is padded with -1
    to the largest sample."""
    trees = []
    for t, rng in enumerate(map(seeding._generator, states)):
        if rows is None:
            trees.append(grow_tree(X, ranks, y, mtry, min_node_size, rng))
            continue
        tree = grow_tree(X[rows[t]], None, y[rows[t]], mtry, min_node_size, rng)
        tree.inbag = rows[t][tree.inbag]
        tree.oob = np.setdiff1d(np.arange(X.shape[0]), tree.inbag)
        trees.append(tree)
    assert len(trees) == n_trees
    width = max(tree.inbag.size for tree in trees)
    inbag = np.full((n_trees, width), -1, dtype=np.int64)
    for t, tree in enumerate(trees):
        inbag[t, :tree.inbag.size] = tree.inbag

    def packed(name):
        return np.concatenate([getattr(tree, name) for tree in trees])

    return TreeStore(
        feature=packed("feature"), threshold=packed("threshold"), left=packed("left"),
        right=packed("right"), value=packed("value"),
        node_start=np.cumsum([0] + [tree.feature.size for tree in trees]),
        inbag=inbag, oob=packed("oob"),
        oob_start=np.cumsum([0] + [tree.oob.size for tree in trees]))


def shuffles(seed, tree, used, m) -> np.ndarray:
    """``forest._shuffles``, each permutation drawn through numpy."""
    labels = [(forest._PERM_STREAM, tree, j) for j in used.tolist()]
    streams = map(seeding._generator, seeding._states(seed, labels))
    return np.array([rng.permutation(m) for rng in streams], dtype=np.int64).reshape(used.size, m)


def descend_forest(store: TreeStore, X: np.ndarray, oob: bool, tree=None, cols=None,
                   perms=None, totals=None):
    """The sums and counts, or one tree's out-of-bag leaf values and permuted
    copies, of ``forest._descend_forest``, from ``tree_predict`` per tree."""
    trees = store.trees()
    if tree is not None:
        Xo = X[trees[tree].oob]
        return np.vstack([tree_predict(trees[tree], Xo),
                          tree_predict(trees[tree], Xo, cols, perms)])
    n = X.shape[0]
    sums, counts = totals or (np.zeros(n), np.zeros(n, dtype=np.int64))
    for t in trees:
        if not oob:
            sums += tree_predict(t, X)
        elif t.oob.size:
            sums[t.oob] += tree_predict(t, X[t.oob])
            counts[t.oob] += 1
    return sums, counts
