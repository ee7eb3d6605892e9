"""Gradient-boosted regression trees, built from scratch on numpy.

Two tree builders share one boosting loop:

* ``exact``: depth-wise growth, split candidates at midpoints between every
  pair of consecutive distinct feature values. Each column is sorted once per
  fit (XGBoost's presorted column block) and every node keeps its rows in
  that per-column order, so a node gathers its sorted values with one flat
  take and scores all (feature, cut) pairs with one 2-D cumulative sum.
* ``histogram``: leaf-wise (best-first) growth over quantile-binned features,
  with gradient one-side sampling (keep the large-gradient rows, subsample the
  rest with a compensating weight) and exclusive-feature bundling (sparse
  features whose nonzero rows barely overlap share one column). Both
  children of a split build every column's histogram with one flat bincount
  per statistic, and one vectorized pass scores their (children, columns,
  cuts) candidates, with each child's totals broadcast over its block.

Both builders score candidates with one function, ``_best_candidate``, over
a leading axis of row sets: the exact builder passes one node, the histogram
builder both children of a split.

A NaN feature value goes right while an exact tree grows (NaN <= t is
false) and left while a histogram tree grows (it sits in bin 0); a fitted
tree sends it to the side ``default_left`` names, the one with the larger
hessian sum, and boost_fit routes such training rows that way too.

Squared-error loss throughout: gradient = prediction - target, hessian = 1.
Split scoring and leaf weights follow the second-order objective with L2 leaf
regularization ``reg_lambda`` and per-split penalty ``gamma``. boost_fit
records each round's training and validation RMSE, in target units, in a
metrics.FitTrace, the record the networks' trainer fills too.
Non-finite training predictions are the one sign of divergence.

Everything is deterministic given the config seed; nothing here spawns
threads, so results never depend on available parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError
from .metrics import FitTrace
from .savefile import check_fields, from_json, to_json

# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class BoostConfig:
    """Hyperparameters shared by both tree kinds.

    ``max_depth`` binds exact trees, ``max_leaves`` binds histogram trees.
    GOSS keeps the ceil(goss_a * n) largest-|gradient| rows at weight 1 and
    uniformly samples ceil(goss_b * n) of the rest at weight
    (1 - goss_a) / goss_b; goss_a + goss_b = 1 keeps every row at weight 1,
    which is how sampling is switched off.
    """

    rounds: int = field(default=500, metadata={"minimum": 0})
    learning_rate: float = field(default=0.05, metadata={"exclusiveMinimum": 0})
    max_depth: int = field(default=4, metadata={"minimum": 1})
    max_leaves: int = field(default=15, metadata={"minimum": 2})
    reg_lambda: float = field(default=1.0, metadata={"minimum": 0})
    gamma: float = field(default=0.0, metadata={"minimum": 0})
    min_child_hessian: float = field(default=1.0, metadata={"minimum": 0})
    bins: int = field(default=32, metadata={"minimum": 2})
    goss_a: float = field(default=0.2, metadata={"minimum": 0, "maximum": 1})
    goss_b: float = field(default=0.1, metadata={"minimum": 0, "maximum": 1})
    efb_max_conflict: float = field(default=0.0, metadata={"minimum": 0, "exclusiveMaximum": 1})
    early_stop_rounds: int = field(default=50, metadata={"minimum": 1})
    validation_fraction: float = field(default=0.2, metadata={"minimum": 0, "maximum": 0.5})
    seed: int = field(default=0, metadata={"minimum": 0})

    def __post_init__(self):
        check_fields(self)
        if self.goss_a + self.goss_b > 1.0 + 1e-12:
            raise ConfigError("goss_a + goss_b must not exceed 1")


# ---------------------------------------------------------------------------
# split mathematics


def grad_hess(y, pred):
    """Gradient and hessian of 0.5 * (pred - y)^2 per sample."""
    y, pred = np.asarray(y, dtype=float), np.asarray(pred, dtype=float)
    return pred - y, np.ones_like(y)


def _best_candidate(gl, hl, g_total, h_total, cfg, valid) -> list:
    """First best (flat index, gain) of each part's candidate splits, or None if none is valid.

    gl and hl are (parts, features, cuts) arrays: candidate [p, f, k] sends
    gradient sum gl[p, f, k] and hessian sum hl[p, f, k] of part p's rows to
    the left child, and g_total and h_total are the parts' sums, as scalars
    for one part or broadcast as (parts, 1, 1). A candidate's gain is
    0.5 * [GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)] - gamma.
    A candidate is valid when ``valid`` holds, both children carry at least
    min_child_hessian and its gain is a number (a child hessian sum of 0 with
    reg_lambda 0 makes it NaN) above -inf; both callers split only on a
    positive gain. Within each part the first maximum in row-major order
    wins, so ties go to the lowest feature, then the lowest threshold; the
    flat index counts within the part.
    """
    hr = h_total - hl
    ok = (hl >= cfg.min_child_hessian) & (hr >= cfg.min_child_hessian) & valid
    if not ok.any():  # also the exit when there are no candidates: argmax needs one
        return [None] * len(ok)
    gr = g_total - gl
    lam = cfg.reg_lambda
    parent = (g_total * g_total) / (h_total + lam)
    # invalid candidates may divide by zero here; they are masked right after
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gains = gl * gl
        gains /= hl + lam
        gr *= gr
        gr /= hr + lam
        gains += gr
        gains -= parent
        gains *= 0.5
        gains -= cfg.gamma
    ok &= gains == gains  # a NaN gain is no candidate
    gains = np.where(ok, gains, -np.inf).reshape(len(ok), -1)
    found = []
    for best, part in zip(gains.argmax(axis=1).tolist(), gains):
        gain = float(part[best])
        found.append((best, gain) if gain > -math.inf else None)
    return found


def leaf_weight(g_sum, h_sum, reg_lambda) -> float:
    """Optimal leaf value -G / (H + lambda)."""
    return -float(g_sum) / (float(h_sum) + reg_lambda)


# ---------------------------------------------------------------------------
# tree structure


@dataclass
class Tree:
    """One tree as parallel node arrays, nodes in pre-order (XGBoost's RegTree).

    Node 0 is the root; a split's left subtree follows it, then its right
    subtree. Split i sends a row to node ``left[i]`` (always i + 1) when its
    value in column ``feature[i]`` is <= ``threshold[i]`` and to ``right[i]``
    otherwise; a NaN value follows ``default_left[i]``. A leaf has -1 in
    ``feature``, ``left`` and ``right`` and predicts ``weight``; a split keeps
    the weight it had as a leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    default_left: np.ndarray
    gain: np.ndarray
    weight: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _leaf(weight) -> list:
    return [-1, 0.0, True, 0.0, weight, -1, -1]


def _preorder(nodes) -> tuple:
    """(Tree, rank) of node lists [feature, threshold, default_left, gain, weight, left,
    right] whose children index ``nodes``, root first; nodes[i] becomes node rank[i]."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if nodes[i][0] >= 0:
            stack += (nodes[i][6], nodes[i][5])
    rank = {-1: -1, **{i: new for new, i in enumerate(order)}}
    preorder = [nodes[i][:5] + [rank[nodes[i][5]], rank[nodes[i][6]]] for i in order]
    return Tree(*(np.array(col) for col in zip(*preorder))), rank


def predict_tree(tree: Tree, X) -> np.ndarray:
    """Route every row of X to its leaf weight, node by node in pre-order."""
    Xt = np.asarray(X, dtype=float).T
    out = np.empty(Xt.shape[1])
    at = [np.arange(Xt.shape[1])] + [None] * (tree.feature.size - 1)  # the rows at each node
    cols = (tree.feature, tree.threshold, tree.default_left, tree.weight, tree.left, tree.right)
    for i, (f, thr, default_left, weight, left, right) in enumerate(zip(*(c.tolist() for c in cols))):
        if f < 0:
            out[at[i]] = weight
            continue
        v = Xt[f, at[i]]
        go_left = v <= thr
        if default_left:
            go_left |= np.isnan(v)
        at[left], at[right] = at[i][go_left], at[i][~go_left]
    return out


# ---------------------------------------------------------------------------
# exact greedy builder


def build_tree_exact(X, g, h, cfg: BoostConfig, order=None, leaf_of=None) -> Tree:
    """Grow one depth-wise tree by exhaustive split enumeration.

    Every (feature, midpoint-between-distinct-values) candidate is scored;
    the maximum gain wins, ties broken by lowest feature index then lowest
    threshold. A node becomes a leaf at max_depth, when no candidate has
    positive gain, or when every candidate would starve a child below
    min_child_hessian.

    ``order`` is the columns' stable argsort, ``np.argsort(X.T, axis=1,
    kind="stable")``; it is computed here when not given, and boost_fit
    passes it so that X is sorted once per fit. A child keeps the part of its
    parent's (features, rows) order that its rows make up, which is the
    stable argsort of the child's own rows (NaN last, ties by row index).
    ``leaf_of``, when given, receives each row's leaf index under growth.
    """
    X, g, h = (np.asarray(a, dtype=float) for a in (X, g, h))
    if X.ndim != 2 or X.shape[0] != g.size or g.size != h.size:
        raise DataError("X, g, h shapes disagree")
    n, n_features = X.shape
    # row-major, so that one flat take gathers every column in its node order
    Xt, starts = np.ascontiguousarray(X.T), n * np.arange(n_features)[:, None]
    leaf_of = np.empty(n, dtype=np.intp) if leaf_of is None else leaf_of
    nodes = []  # a node is appended before its subtrees grow, so in pre-order

    def grow(rows: np.ndarray, order: np.ndarray, depth: int, h_total: float):
        i = len(nodes)
        g_total = float(g.take(rows).sum())
        nodes.append(_leaf(leaf_weight(g_total, h_total, cfg.reg_lambda)))
        found = None
        if depth < cfg.max_depth and rows.size > 1:
            xs = Xt.take(order + starts)
            gl = g.take(order).cumsum(axis=1)[None, :, :-1]
            hl = h.take(order).cumsum(axis=1)[None, :, :-1]
            found = _best_candidate(gl, hl, g_total, h_total, cfg, valid=xs[:, :-1] < xs[:, 1:])[0]
        if found is None or found[1] <= 0.0:
            leaf_of[rows] = i
            return
        (f, k), gain = divmod(found[0], rows.size - 1), found[1]
        lo, hi = xs[f, k], xs[f, k + 1]
        mid = 0.5 * (lo + hi)
        # The midpoint of adjacent floats rounds to hi, and of huge values
        # overflows; either sends every row left, so lo splits instead.
        thr = float(mid if lo <= mid < hi else lo)
        is_left = Xt[f] <= thr
        at_left = is_left.take(rows)
        left_rows, right_rows = rows.compress(at_left), rows.compress(~at_left)
        in_left = is_left.take(order).ravel()
        h_left, h_right = float(h.take(left_rows).sum()), float(h.take(right_rows).sum())
        nodes[i][:4], nodes[i][5] = (f, thr, h_left >= h_right, gain), i + 1
        grow(left_rows, order.compress(in_left, axis=None).reshape(n_features, -1), depth + 1, h_left)
        nodes[i][6] = len(nodes)
        grow(right_rows, order.compress(~in_left, axis=None).reshape(n_features, -1), depth + 1, h_right)

    rows = np.arange(n)
    order = np.argsort(Xt, axis=1, kind="stable") if order is None else order
    grow(rows, order, 0, float(h.take(rows).sum()))
    return _preorder(nodes)[0]


# ---------------------------------------------------------------------------
# gradient one-side sampling


def goss_sample(g, a: float, b: float, seed: int):
    """Pick rows for one boosting round by gradient magnitude.

    Args:
        g: per-row gradients.
        a: a BoostConfig's goss_a, the fraction of rows kept (largest |g|
            first, ties resolved toward the lower row index).
        b: its goss_b, the fraction of rows sampled uniformly without
            replacement from the rest, each carrying weight (1 - a) / b.
        seed: RNG seed; identical inputs give identical samples.

    Returns:
        (indices, weights), both aligned and sorted by row index.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    if n == 0:
        raise DataError("goss_sample needs at least one row")

    # ceil with a guard against float fuzz (0.2 * 200 must stay 40).
    top_n = min(n, max(0, math.ceil(a * n - 1e-9)))
    order = np.argsort(-np.abs(g), kind="stable")
    top, rest = order[:top_n], order[top_n:]
    rand_n = min(rest.size, max(0, math.ceil(b * n - 1e-9))) if b > 0 else 0

    if rand_n > 0:
        sampled = rest[np.random.default_rng(seed).choice(rest.size, size=rand_n, replace=False)]
        amplify = (1.0 - a) / b
    else:
        sampled, amplify = np.empty(0, dtype=int), 1.0

    idx = np.concatenate([top, sampled]).astype(int)
    weights = np.concatenate([np.ones(top.size), np.full(sampled.size, amplify)])
    order = np.argsort(idx, kind="stable")
    return idx[order], weights[order]


# ---------------------------------------------------------------------------
# exclusive feature bundling


@dataclass
class FeatureBundle:
    """A group of mutually (almost) exclusive sparse features in one column.

    A singleton bundle is the identity: the column passes through unchanged.
    In a multi-feature bundle, feature i's nonzero values map to
    offsets[i] + 1 + (value - lo[i]), so member ranges stay disjoint and
    distinct from the shared zero. Rows where several members are nonzero
    keep the earliest member's value.
    """

    features: list[int]
    lo: list[float]
    offsets: list[float]

    @property
    def is_identity(self) -> bool:
        return len(self.features) == 1


# Features with more than this nonzero fraction are dense and never bundle.
EFB_SPARSE_MAX_FRACTION = 0.2


def efb_bundle(X, max_conflict: float):
    """Greedily group sparse features whose nonzero supports barely overlap.

    Args:
        X: training feature matrix.
        max_conflict: a BoostConfig's efb_max_conflict, the fraction of rows
            on which bundled features may collide (0: perfectly exclusive).

    Returns:
        List of FeatureBundle covering every column exactly once, ordered by
        the lowest member feature index. Dense columns always come back as
        identity bundles.
    """
    X = np.asarray(X, dtype=float)
    n, n_features = X.shape

    nz = [(X[:, f] != 0) & ~np.isnan(X[:, f]) for f in range(n_features)]
    counts = np.array([int(m.sum()) for m in nz])
    sparse = [f for f in range(n_features) if counts[f] <= EFB_SPARSE_MAX_FRACTION * n]
    allowed = int(max_conflict * n + 1e-9)

    groups = []  # [member feature list, occupancy mask, conflict budget used]
    for f in sorted(sparse, key=lambda f: (-counts[f], f)):
        for grp in groups:
            clash = int(np.sum(grp[1] & nz[f]))
            if grp[2] + clash <= allowed:
                grp[0].append(f)
                grp[1] |= nz[f]
                grp[2] += clash
                break
        else:
            groups.append([[f], nz[f].copy(), 0])

    bundles = [FeatureBundle([f], lo=[], offsets=[]) for f in range(n_features) if f not in sparse]
    for members, _, _ in groups:
        members, lo, offsets, cursor = sorted(members), [], [], 0.0
        for f in members if len(members) > 1 else ():  # a singleton passes through
            vals = X[nz[f], f]
            lo.append(float(vals.min()) if vals.size else 0.0)
            offsets.append(cursor)
            cursor += (float(vals.max()) if vals.size else 0.0) - lo[-1] + 1.0
        bundles.append(FeatureBundle(features=members, lo=lo, offsets=offsets))
    return sorted(bundles, key=lambda b: b.features[0])


def apply_bundles(X, bundles) -> np.ndarray:
    """Project a feature matrix onto its bundled columns."""
    X = np.asarray(X, dtype=float)
    out = np.zeros((X.shape[0], len(bundles)))
    for j, bundle in enumerate(bundles):
        if bundle.is_identity:
            out[:, j] = X[:, bundle.features[0]]
            continue
        col = out[:, j]
        # Reverse order so the earliest member wins rows where two collide.
        for f, lo, off in reversed(list(zip(bundle.features, bundle.lo, bundle.offsets))):
            v = X[:, f]
            hit = (v != 0) & ~np.isnan(v)
            col[hit] = off + 1.0 + (v[hit] - lo)
        col[np.isnan(X[:, bundle.features]).any(axis=1)] = np.nan
    return out


# ---------------------------------------------------------------------------
# histogram builder


def quantile_edges(values, bins: int) -> np.ndarray:
    """Split points for one column from training-data quantiles.

    With at most ``bins`` distinct values the edges sit midway between
    consecutive distinct values, so binning is lossless there.
    """
    uniq = np.unique(np.asarray(values, dtype=float))
    uniq = uniq[~np.isnan(uniq)]
    if uniq.size <= 1:
        return np.empty(0)
    if uniq.size <= bins:
        return 0.5 * (uniq[:-1] + uniq[1:])
    qs = np.quantile(values[~np.isnan(values)], np.arange(1, bins) / bins)
    return np.unique(qs)


def _bin_column(values, edges) -> np.ndarray:
    # bin b holds values in (edges[b-1], edges[b]]; NaN parks in bin 0 and is
    # never routed by bin (prediction handles NaN via default_left).
    v = np.nan_to_num(np.asarray(values, dtype=float), nan=-np.inf)
    return np.searchsorted(edges, v, side="left").astype(np.int32)


def _best_hist_splits(parts, totals, flat_bins, can_cut, gw, hw, cfg) -> list:
    """Best valid (gain, column, edge index) of each row set in ``parts``, or None.

    ``totals`` holds each part's (gradient, hessian) sums. ``flat_bins``
    holds column f's bin indices shifted by f * width, and each part's bins
    sit past those of the parts before it, so one bincount per statistic
    fills every histogram of both children of a split, each bin adding the
    same rows in the same order, and one _best_candidate pass scores every
    part's (columns, width - 1) candidates. ``can_cut`` masks the padding
    slots j >= edges[f].size of each column.
    """
    n_cols, n_cuts = can_cut.shape
    size = n_cols * (n_cuts + 1)
    rows = np.concatenate(parts)
    sizes = [r.size for r in parts]
    part = np.repeat(np.arange(len(parts)), sizes)
    b = (flat_bins[rows] + size * part[:, None]).ravel()

    def left_sums(weights):
        hist = np.bincount(b, weights, minlength=len(parts) * size)
        return hist.reshape(len(parts), n_cols, n_cuts + 1).cumsum(axis=2)[:, :, :-1]

    nl = left_sums(None)
    gl, hl = left_sums(gw[rows].repeat(n_cols)), left_sums(hw[rows].repeat(n_cols))
    g_total, h_total = np.array(totals, dtype=float).T[:, :, None, None]
    valid = can_cut & (nl > 0) & (nl < np.array(sizes)[:, None, None])
    found = _best_candidate(gl, hl, g_total, h_total, cfg, valid)
    return [f and (f[1], *divmod(f[0], n_cuts)) for f in found]


def build_tree_hist(bin_idx, edges, g, h, w, rows, cfg: BoostConfig, leaf_of=None) -> Tree:
    """Grow one tree leaf-wise over pre-binned (bundled) columns.

    Args:
        bin_idx: (n, n_bundles) int bin index per row and column.
        edges: per-column split-point arrays matching bin_idx.
        g, h: per-row gradient and hessian over the full training set.
        w: per-row sample weights (GOSS amplification).
        rows: row indices participating in this round.
        cfg: hyperparameters; growth stops at cfg.max_leaves leaves or when
            no leaf has a positive-gain split.
        leaf_of: when given, receives the leaf index of every row of
            ``bin_idx``, also those left out of ``rows``. Those are
            partitioned with the rows at each split: ``bin <= j`` sends a
            row where ``value <= edges[f][j]`` does, except for a NaN
            value, which bins to 0 and which predict_tree routes by
            ``default_left``.

    The best-gain leaf is expanded first; ties fall to the older leaf.
    Thresholds are bin edges, so the tree predicate works on raw bundled
    values at prediction time.
    """
    gw, hw = g * w, h * w
    sizes = np.array([e.size for e in edges], dtype=int)
    n_cuts = int(sizes.max(initial=0))
    flat_bins = bin_idx + (n_cuts + 1) * np.arange(bin_idx.shape[1])
    can_cut = np.arange(n_cuts) < sizes[:, None]

    def search(parts, totals):
        return _best_hist_splits(parts, totals, flat_bins, can_cut, gw, hw, cfg)

    # nodes are numbered in creation order here and renumbered to pre-order below
    root_rows = np.asarray(rows, dtype=int)
    totals = [(gw[root_rows].sum(), hw[root_rows].sum())]
    nodes = [_leaf(leaf_weight(*totals[0], cfg.reg_lambda))]
    # (node, rows, best split or None, every row of bin_idx in the leaf)
    leaves = [(0, root_rows, search([root_rows], totals)[0], np.arange(bin_idx.shape[0]))]
    for n_leaves in range(2, cfg.max_leaves + 1):
        growable = [i for i, (_, _, split, _) in enumerate(leaves) if split and split[0] > 0.0]
        if not growable:
            break
        # max keeps the first, i.e. the earliest-created, of equal gains
        grow = max(growable, key=lambda i: leaves[i][2][0])
        node, node_rows, (gain, f, j), node_all = leaves.pop(grow)
        go_left = bin_idx[node_rows, f] <= j
        parts = [node_rows[go_left], node_rows[~go_left]]
        all_left = bin_idx[node_all, f] <= j
        totals = [(gw[r].sum(), hw[r].sum()) for r in parts]
        default_left = float(totals[0][1]) >= float(totals[1][1])
        nodes[node][:4] = f, float(edges[f][j]), default_left, gain
        nodes[node][5:] = len(nodes), len(nodes) + 1
        # the children of the last split never grow, so they need no search
        splits = search(parts, totals) if n_leaves < cfg.max_leaves else [None, None]
        for r, split, every, sums in zip(parts, splits, (node_all[all_left], node_all[~all_left]), totals):
            leaves.append((len(nodes), r, split, every))
            nodes.append(_leaf(leaf_weight(*sums, cfg.reg_lambda)))

    tree, rank = _preorder(nodes)
    if leaf_of is not None:
        for node, _, _, every in leaves:
            leaf_of[every] = rank[node]
    return tree


# ---------------------------------------------------------------------------
# boosting


@dataclass
class Ensemble:
    """A fitted boosted-tree model.

    prediction(x) = base_score + learning_rate * sum(tree(x) for trees).
    Histogram ensembles carry their feature bundles; inputs are projected
    through them before tree routing.
    """

    kind: str
    base_score: float
    learning_rate: float
    n_features: int
    trees: list[Tree]
    bundles: Optional[list[FeatureBundle]]


def boost_fit(data, cfg: BoostConfig, kind: str = "exact"):
    """Fit a boosted ensemble on (features, targets).

    Args:
        data: (X, y) pair; rows must be in chronological order because the
            validation split takes the tail.
        cfg: hyperparameters.
        kind: 'exact' or 'histogram'.

    Returns:
        (Ensemble, FitTrace). With a validation split, training stops once
        validation RMSE has not improved for cfg.early_stop_rounds rounds and
        the ensemble is truncated to its best round.

    Raises:
        DataError: fewer than 10 rows.
        TrainingDivergedError: a round's training predictions are not finite
            (the round loop's one np.errstate lets overflow pass unwarned).
    """
    if kind not in ("exact", "histogram"):
        raise ConfigError(f"unknown ensemble kind {kind!r}")
    X, y = (np.asarray(a, dtype=float) for a in data)
    n = y.size
    if n < 10:
        raise DataError(f"boosting needs at least 10 rows, got {n}")

    n_val = int(round(cfg.validation_fraction * n))
    n_train = n - n_val
    X_train, y_train = X[:n_train], y[:n_train]
    X_val, y_val = X[n_train:], y[n_train:]

    base = float(np.mean(y))
    ens = Ensemble(kind=kind, base_score=base, learning_rate=cfg.learning_rate, n_features=X.shape[1],
                   trees=[], bundles=None)

    if kind == "histogram":
        ens.bundles = efb_bundle(X_train, cfg.efb_max_conflict)
        Xb_train = apply_bundles(X_train, ens.bundles)
        Xb_val = apply_bundles(X_val, ens.bundles) if n_val else X_val
        edges = [quantile_edges(Xb_train[:, j], cfg.bins) for j in range(Xb_train.shape[1])]
        bin_idx = np.column_stack(
            [_bin_column(Xb_train[:, j], edges[j]) for j in range(Xb_train.shape[1])]
        ) if Xb_train.shape[1] else np.zeros((n_train, 0), dtype=np.int32)
    else:
        Xb_train, Xb_val = X_train, X_val
        order = np.argsort(X_train.T, axis=1, kind="stable")

    pred_train = np.full(n_train, base)
    pred_val = np.full(n_val, base)
    trace = FitTrace()
    best_val = np.inf
    # growth and routing place NaN on different sides, so these rows are routed
    nan_rows = np.flatnonzero(np.isnan(Xb_train).any(axis=1))
    leaf_of = np.empty(n_train, dtype=np.intp)

    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(cfg.rounds):
            g, h = grad_hess(y_train, pred_train)
            if kind == "histogram":
                rows, row_weights = goss_sample(g, cfg.goss_a, cfg.goss_b, cfg.seed + r + 1)
                w = np.zeros(n_train)
                w[rows] = row_weights
                tree = build_tree_hist(bin_idx, edges, g, h, w, rows, cfg, leaf_of=leaf_of)
            else:
                tree = build_tree_exact(X_train, g, h, cfg, order, leaf_of=leaf_of)
            ens.trees.append(tree)

            step = tree.weight[leaf_of]
            if nan_rows.size:
                step[nan_rows] = predict_tree(tree, Xb_train[nan_rows])
            pred_train = pred_train + cfg.learning_rate * step
            if not np.all(np.isfinite(pred_train)):
                raise TrainingDivergedError(f"non-finite predictions at round {r}")
            trace.train.append(float(np.sqrt(np.mean((pred_train - y_train) ** 2))))

            if n_val:
                pred_val = pred_val + cfg.learning_rate * predict_tree(tree, Xb_val)
                v = float(np.sqrt(np.mean((pred_val - y_val) ** 2)))
                trace.val.append(v)
                if v < best_val:
                    best_val = v
                    trace.best = r
                elif r - trace.best >= cfg.early_stop_rounds:
                    break
            else:
                trace.best = r

    if n_val and trace.best >= 0:
        del ens.trees[trace.best + 1 :]
    return ens, trace


def boost_predict(ensemble: Ensemble, X) -> np.ndarray:
    """Evaluate an ensemble on raw (unbundled) feature rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise DataError(
            f"expected {ensemble.n_features} features, got {X.shape[1] if X.ndim == 2 else 'non-2d'}"
        )
    Xb = apply_bundles(X, ensemble.bundles) if ensemble.bundles is not None else X
    out = np.full(X.shape[0], ensemble.base_score)
    for tree in ensemble.trees:
        out += ensemble.learning_rate * predict_tree(tree, Xb)
    return out


# ---------------------------------------------------------------------------
# serialization (traced by name in perfbench, so kept as module functions)


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    return to_json(ensemble)


def _check_trees(trees, width: int) -> None:
    """ValueError unless every tree is laid out as Tree describes; one vector pass.

    A split reads one of ``width`` columns, its left child is next and its right
    child after that within the tree, and every node but the root is the child
    of exactly one split. Children come after their parent, so that is one tree.
    """
    if any("".join(a.dtype.kind for a in vars(t).values()) != "ifbffii" or t.feature.ndim != 1
           or len({a.shape for a in vars(t).values()}) > 1 for t in trees):
        raise ValueError("a tree's node arrays differ in length or type")
    if not trees:
        return
    sizes = np.array([t.feature.size for t in trees])
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    node = np.arange(start.size) - start
    feature, left, right = (np.concatenate([vars(t)[k] for t in trees]) for k in ("feature", "left", "right"))
    split = feature >= 0
    if not np.where(
        split,
        (feature < width) & (left == node + 1) & (node + 1 < right) & (right < np.repeat(sizes, sizes)),
        (feature == -1) & (left == -1) & (right == -1),
    ).all():
        raise ValueError(f"a tree node is neither a leaf nor a split on one of {width} columns")
    children = np.concatenate([left[split], right[split]]) + np.tile(start[split], 2)
    if not np.array_equal(np.bincount(children, minlength=start.size), node > 0):
        raise ValueError("a tree node is not the child of exactly one split")


def ensemble_from_dict(doc: dict) -> Ensemble:
    """Inverse of ensemble_to_dict; reloaded models predict bit-identically.

    Trees come in Tree's flat pre-order layout only. Raises ValueError unless
    the bundles cover every feature once and _check_trees passes.
    """
    ens = from_json(Ensemble, doc)
    width = ens.n_features if ens.bundles is None else len(ens.bundles)
    if ens.bundles is not None and (
        sorted(f for b in ens.bundles for f in b.features) != list(range(ens.n_features))
        or any(len(b.features) > 1 and not len(b.features) == len(b.lo) == len(b.offsets)
               for b in ens.bundles)
    ):
        raise ValueError(f"bundles do not cover the {ens.n_features} features once each")
    _check_trees(ens.trees, width)
    return ens
