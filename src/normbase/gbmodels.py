"""Gradient-boosted regression trees, built from scratch on numpy.

Two tree builders share one boosting loop:

* ``exact``: depth-wise growth, split candidates at midpoints between every
  pair of consecutive distinct feature values. Each column is sorted once per
  fit (XGBoost's presorted column block) and every node keeps its rows in
  that per-column order, so a node scores all (feature, cut) pairs with one
  2-D cumulative sum.
* ``histogram``: leaf-wise (best-first) growth over quantile-binned features,
  with gradient one-side sampling (keep the large-gradient rows, subsample the
  rest with a compensating weight) and exclusive-feature bundling (sparse
  features whose nonzero rows barely overlap share one column). A node builds
  every column's histogram with one flat bincount per statistic.

Squared-error loss throughout: gradient = prediction - target, hessian = 1.
Split scoring and leaf weights follow the second-order objective with L2 leaf
regularization ``reg_lambda`` and per-split penalty ``gamma``.

Everything is deterministic given the config seed; nothing here spawns
threads, so results never depend on available parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError
from .savefile import from_json, to_json

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

    rounds: int = 500
    learning_rate: float = 0.05
    max_depth: int = 4
    max_leaves: int = 15
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_hessian: float = 1.0
    bins: int = 32
    goss_a: float = 0.2
    goss_b: float = 0.1
    efb_max_conflict: float = 0.0
    early_stop_rounds: int = 50
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0:
            raise ConfigError("rounds must be non-negative")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.max_depth < 1 or self.max_leaves < 2:
            raise ConfigError("max_depth >= 1 and max_leaves >= 2 required")
        if self.reg_lambda < 0 or self.gamma < 0 or self.min_child_hessian < 0:
            raise ConfigError("regularization terms must be non-negative")
        if self.bins < 2:
            raise ConfigError("bins must be at least 2")
        if not (0.0 <= self.goss_a <= 1.0 and 0.0 <= self.goss_b <= 1.0):
            raise ConfigError("goss_a and goss_b must lie in [0, 1]")
        if self.goss_a + self.goss_b > 1.0 + 1e-12:
            raise ConfigError("goss_a + goss_b must not exceed 1")
        if not (0.0 <= self.efb_max_conflict < 1.0):
            raise ConfigError("efb_max_conflict must lie in [0, 1)")
        if self.early_stop_rounds < 1:
            raise ConfigError("early_stop_rounds must be at least 1")
        if not (0.0 <= self.validation_fraction <= 0.5):
            raise ConfigError("validation_fraction must lie in [0, 0.5]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


# ---------------------------------------------------------------------------
# split mathematics


def grad_hess(y, pred):
    """Gradient and hessian of 0.5 * (pred - y)^2 per sample."""
    y = np.asarray(y, dtype=float)
    pred = np.asarray(pred, dtype=float)
    return pred - y, np.ones_like(y)


def _best_candidate(gl, hl, g_total, h_total, cfg, valid):
    """First best (flat index, gain) among candidate splits, or None if none is valid.

    gl and hl are (features, cuts) matrices: candidate [f, k] sends gradient
    sum gl[f, k] and hessian sum hl[f, k] to the left child. Its gain is
    0.5 * [GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)] - gamma.
    A candidate is valid when ``valid`` holds, both children carry at least
    min_child_hessian and its gain is a number (a child hessian sum of 0 with
    reg_lambda 0 makes it NaN). The first maximum in row-major order wins, so
    ties go to the lowest feature, then the lowest threshold.
    """
    hr = h_total - hl
    ok = (hl >= cfg.min_child_hessian) & (hr >= cfg.min_child_hessian) & valid
    if not np.any(ok):
        return None
    gr = g_total - gl
    lam = cfg.reg_lambda
    parent = (g_total * g_total) / (h_total + lam)
    # invalid candidates may divide by zero here; they are masked right after
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - cfg.gamma
    gains[~ok | np.isnan(gains)] = -np.inf
    best = int(np.argmax(gains))
    return best, float(gains.flat[best])


def leaf_weight(g_sum, h_sum, reg_lambda) -> float:
    """Optimal leaf value -G / (H + lambda)."""
    return -float(g_sum) / (float(h_sum) + reg_lambda)


# ---------------------------------------------------------------------------
# tree structure


@dataclass
class TreeNode:
    """One node; leaves keep feature = -1 and carry only ``weight``.

    Internal nodes route a sample left when value <= threshold; samples with
    a NaN value follow ``default_left``.
    """

    feature: int = -1
    threshold: float = 0.0
    default_left: bool = True
    gain: float = 0.0
    weight: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    def __reduce__(self):
        # pickle nests calls once per tree level and reaches the recursion
        # limit near depth 500; the pre-order list of node fields is flat
        fields, stack = [], [self]
        while stack:
            nd = stack.pop()
            fields.append((nd.feature, nd.threshold, nd.default_left, nd.gain, nd.weight))
            if not nd.is_leaf:
                stack += (nd.right, nd.left)
        return _tree_from_preorder, (fields,)


def _tree_from_preorder(fields) -> TreeNode:
    """The tree TreeNode.__reduce__ flattened, relinked with an explicit stack."""
    nodes = [TreeNode(*f) for f in fields]
    open_nodes = []  # internal nodes still missing their right child
    for nd in nodes:
        if open_nodes:
            parent = open_nodes[-1]
            if parent.left is None:
                parent.left = nd
            else:
                parent.right = nd
                open_nodes.pop()
        if not nd.is_leaf:
            open_nodes.append(nd)
    return nodes[0]


def predict_tree(node: TreeNode, X) -> np.ndarray:
    """Route every row of X to its leaf weight."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if nd.is_leaf:
            out[idx] = nd.weight
            continue
        v = X[idx, nd.feature]
        nan = np.isnan(v)
        go_left = np.where(nan, nd.default_left, v <= nd.threshold)
        stack.append((nd.left, idx[go_left]))
        stack.append((nd.right, idx[~go_left]))
    return out


# ---------------------------------------------------------------------------
# exact greedy builder


def build_tree_exact(X, g, h, cfg: BoostConfig, order=None) -> TreeNode:
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
    """
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if X.ndim != 2 or X.shape[0] != g.size or g.size != h.size:
        raise DataError("X, g, h shapes disagree")
    n, n_features = X.shape
    Xt = X.T

    def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> TreeNode:
        g_total = float(np.sum(g[rows]))
        h_total = float(np.sum(h[rows]))
        leaf = TreeNode(weight=leaf_weight(g_total, h_total, cfg.reg_lambda))
        if depth >= cfg.max_depth or rows.size < 2:
            return leaf

        xs = np.take_along_axis(Xt, order, axis=1)
        found = _best_candidate(
            np.cumsum(g[order], axis=1)[:, :-1], np.cumsum(h[order], axis=1)[:, :-1],
            g_total, h_total, cfg, valid=xs[:, :-1] < xs[:, 1:],
        )
        if found is None or found[1] <= 0.0:
            return leaf
        (f, k), gain = divmod(found[0], rows.size - 1), found[1]
        lo, hi = xs[f, k], xs[f, k + 1]
        mid = 0.5 * (lo + hi)
        # The midpoint of adjacent floats rounds to hi, and of huge values
        # overflows; either sends every row left, so lo splits instead.
        thr = float(mid if lo <= mid < hi else lo)
        is_left = Xt[f] <= thr
        left_rows, right_rows = rows[is_left[rows]], rows[~is_left[rows]]
        in_left = is_left[order]
        default_left = float(np.sum(h[left_rows])) >= float(np.sum(h[right_rows]))
        return TreeNode(
            feature=f,
            threshold=thr,
            default_left=default_left,
            gain=gain,
            weight=leaf.weight,
            left=grow(left_rows, order[in_left].reshape(n_features, -1), depth + 1),
            right=grow(right_rows, order[~in_left].reshape(n_features, -1), depth + 1),
        )

    if order is None:
        order = np.argsort(Xt, axis=1, kind="stable")
    return grow(np.arange(n), order, 0)


# ---------------------------------------------------------------------------
# gradient one-side sampling


def goss_sample(g, a: float, b: float, seed: int):
    """Pick rows for one boosting round by gradient magnitude.

    Args:
        g: per-row gradients.
        a: fraction of rows kept deterministically (largest |g| first,
            ties resolved toward the lower row index).
        b: fraction of the remaining rows sampled uniformly without
            replacement, each carrying weight (1 - a) / b.
        seed: RNG seed; identical inputs give identical samples.

    Returns:
        (indices, weights), both aligned and sorted by row index.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    if n == 0:
        raise DataError("goss_sample needs at least one row")
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ConfigError("goss fractions must lie in [0, 1]")
    if a + b > 1.0 + 1e-12:
        raise ConfigError("goss_a + goss_b must not exceed 1")

    # ceil with a guard against float fuzz (0.2 * 200 must stay 40).
    top_n = min(n, max(0, math.ceil(a * n - 1e-9)))
    order = np.argsort(-np.abs(g), kind="stable")
    top = order[:top_n]
    rest = order[top_n:]
    rand_n = min(rest.size, max(0, math.ceil(b * n - 1e-9))) if b > 0 else 0

    if rand_n > 0:
        rng = np.random.default_rng(seed)
        sampled = rest[rng.choice(rest.size, size=rand_n, replace=False)]
        amplify = (1.0 - a) / b
    else:
        sampled = np.empty(0, dtype=int)
        amplify = 1.0

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
    lo: list[float] = field(default_factory=list)
    offsets: list[float] = field(default_factory=list)

    @property
    def is_identity(self) -> bool:
        return len(self.features) == 1


# Features with more than this nonzero fraction are dense and never bundle.
EFB_SPARSE_MAX_FRACTION = 0.2


def efb_bundle(X, max_conflict: float):
    """Greedily group sparse features whose nonzero supports barely overlap.

    Args:
        X: training feature matrix.
        max_conflict: tolerated fraction of rows on which bundled features
            collide (0 bundles only perfectly exclusive features).

    Returns:
        List of FeatureBundle covering every column exactly once, ordered by
        the lowest member feature index. Dense columns always come back as
        identity bundles.
    """
    X = np.asarray(X, dtype=float)
    n, n_features = X.shape
    if not (0.0 <= max_conflict < 1.0):
        raise ConfigError("max_conflict must lie in [0, 1)")

    nz = [(X[:, f] != 0) & ~np.isnan(X[:, f]) for f in range(n_features)]
    counts = np.array([int(m.sum()) for m in nz])
    sparse = [f for f in range(n_features) if counts[f] <= EFB_SPARSE_MAX_FRACTION * n]
    allowed = int(max_conflict * n + 1e-9)

    groups = []  # [member feature list, occupancy mask, conflict budget used]
    for f in sorted(sparse, key=lambda f: (-counts[f], f)):
        placed = False
        for grp in groups:
            clash = int(np.sum(grp[1] & nz[f]))
            if grp[2] + clash <= allowed:
                grp[0].append(f)
                grp[1] |= nz[f]
                grp[2] += clash
                placed = True
                break
        if not placed:
            groups.append([[f], nz[f].copy(), 0])

    bundles = []
    for f in range(n_features):
        if f not in sparse:
            bundles.append(FeatureBundle(features=[f]))
    for members, _, _ in groups:
        members = sorted(members)
        if len(members) == 1:
            bundles.append(FeatureBundle(features=members))
            continue
        lo, offsets = [], []
        cursor = 0.0
        for f in members:
            vals = X[:, f][nz[f]]
            f_lo = float(vals.min()) if vals.size else 0.0
            f_hi = float(vals.max()) if vals.size else 0.0
            lo.append(f_lo)
            offsets.append(cursor)
            cursor += (f_hi - f_lo) + 1.0
        bundles.append(FeatureBundle(features=members, lo=lo, offsets=offsets))

    bundles.sort(key=lambda b: b.features[0])
    return bundles


def apply_bundles(X, bundles) -> np.ndarray:
    """Project a feature matrix onto its bundled columns."""
    X = np.asarray(X, dtype=float)
    out = np.zeros((X.shape[0], len(bundles)))
    for j, bundle in enumerate(bundles):
        if bundle.is_identity:
            out[:, j] = X[:, bundle.features[0]]
            continue
        col = np.zeros(X.shape[0])
        bad = np.zeros(X.shape[0], dtype=bool)
        # Reverse order so the earliest member wins rows where two collide.
        for f, lo, off in reversed(list(zip(bundle.features, bundle.lo, bundle.offsets))):
            v = X[:, f]
            bad |= np.isnan(v)
            hit = (v != 0) & ~np.isnan(v)
            col[hit] = off + 1.0 + (v[hit] - lo)
        col[bad] = np.nan
        out[:, j] = col
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


def _best_hist_split(rows, flat_bins, edges, can_cut, gw, hw, cfg):
    """Best valid (gain, column, edge index, threshold) over every column, or None.

    ``flat_bins`` holds column f's bin indices shifted by f * width, so one
    bincount per statistic fills all histograms, and row f of the reshaped
    (columns, width) matrix is column f's. ``can_cut`` masks the padding
    slots j >= edges[f].size of the (columns, width - 1) candidates.
    """
    g_total = float(np.sum(gw[rows]))
    h_total = float(np.sum(hw[rows]))
    n_cols, n_cuts = can_cut.shape
    b = flat_bins[rows].ravel()

    def left_sums(weights):
        hist = np.bincount(b, weights, minlength=n_cols * (n_cuts + 1))
        return np.cumsum(hist.reshape(n_cols, n_cuts + 1), axis=1)[:, :-1]

    nl = left_sums(None)
    found = _best_candidate(
        left_sums(np.repeat(gw[rows], n_cols)), left_sums(np.repeat(hw[rows], n_cols)),
        g_total, h_total, cfg, valid=can_cut & (nl > 0) & (nl < rows.size),
    )
    if found is None:
        return None
    (f, j), gain = divmod(found[0], n_cuts), found[1]
    return gain, f, j, float(edges[f][j])


def build_tree_hist(bin_idx, edges, g, h, w, rows, cfg: BoostConfig) -> TreeNode:
    """Grow one tree leaf-wise over pre-binned (bundled) columns.

    Args:
        bin_idx: (n, n_bundles) int bin index per row and column.
        edges: per-column split-point arrays matching bin_idx.
        g, h: per-row gradient and hessian over the full training set.
        w: per-row sample weights (GOSS amplification).
        rows: row indices participating in this round.
        cfg: hyperparameters; growth stops at cfg.max_leaves leaves or when
            no leaf has a positive-gain split.

    The best-gain leaf is expanded first; ties fall to the older leaf.
    Thresholds are bin edges, so the tree predicate works on raw bundled
    values at prediction time.
    """
    gw = g * w
    hw = h * w
    sizes = np.array([e.size for e in edges], dtype=int)
    n_cuts = int(sizes.max(initial=0))
    flat_bins = bin_idx + (n_cuts + 1) * np.arange(bin_idx.shape[1])
    can_cut = np.arange(n_cuts) < sizes[:, None]

    def make_leaf(r, search=True):
        """A leaf over rows r as (node, r, best split or None)."""
        node = TreeNode(weight=leaf_weight(np.sum(gw[r]), np.sum(hw[r]), cfg.reg_lambda))
        split = _best_hist_split(r, flat_bins, edges, can_cut, gw, hw, cfg) if search else None
        return node, r, split

    leaves = [make_leaf(np.asarray(rows, dtype=int))]
    root = leaves[0][0]
    for n_leaves in range(2, cfg.max_leaves + 1):
        growable = [i for i, (_, _, split) in enumerate(leaves) if split and split[0] > 0.0]
        if not growable:
            break
        # max keeps the first, i.e. the earliest-created, of equal gains
        grow = max(growable, key=lambda i: leaves[i][2][0])
        node, node_rows, (gain, f, j, thr) = leaves.pop(grow)
        go_left = bin_idx[node_rows, f] <= j
        # the children of the last split never grow, so they need no search
        search = n_leaves < cfg.max_leaves
        left, right = (make_leaf(node_rows[m], search) for m in (go_left, ~go_left))
        node.feature, node.threshold, node.gain = f, thr, gain
        node.default_left = float(np.sum(hw[left[1]])) >= float(np.sum(hw[right[1]]))
        node.left, node.right = left[0], right[0]
        leaves += (left, right)

    return root


# ---------------------------------------------------------------------------
# boosting


@dataclass
class BoostTrace:
    """Per-round RMSE record from boost_fit."""

    train_rmse: list = field(default_factory=list)
    val_rmse: list = field(default_factory=list)
    best_round: int = -1

    @property
    def n_rounds(self) -> int:
        return len(self.train_rmse)


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
    trees: list[TreeNode] = field(default_factory=list)
    bundles: Optional[list[FeatureBundle]] = None


def boost_fit(data, cfg: BoostConfig, kind: str = "exact"):
    """Fit a boosted ensemble on (features, targets).

    Args:
        data: (X, y) pair; rows must be in chronological order because the
            validation split takes the tail.
        cfg: hyperparameters.
        kind: 'exact' or 'histogram'.

    Returns:
        (Ensemble, BoostTrace). With a validation split, training stops once
        validation RMSE has not improved for cfg.early_stop_rounds rounds and
        the ensemble is truncated to its best round.

    Raises:
        DataError: fewer than 10 rows.
        TrainingDivergedError: non-finite predictions appeared.
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
    ens = Ensemble(
        kind=kind,
        base_score=base,
        learning_rate=cfg.learning_rate,
        n_features=X.shape[1],
    )

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
    trace = BoostTrace()
    best_val = np.inf
    all_rows = np.arange(n_train)

    for r in range(cfg.rounds):
        g, h = grad_hess(y_train, pred_train)
        if kind == "histogram":
            rows, row_weights = goss_sample(g, cfg.goss_a, cfg.goss_b, cfg.seed + r + 1)
            w = np.zeros(n_train)
            w[rows] = row_weights
            tree = build_tree_hist(bin_idx, edges, g, h, w, rows, cfg)
        else:
            tree = build_tree_exact(X_train, g, h, cfg, order)
        ens.trees.append(tree)

        # overflow is tolerated for one step; the finiteness check below raises
        with np.errstate(over="ignore", invalid="ignore"):
            pred_train = pred_train + cfg.learning_rate * predict_tree(tree, Xb_train)
        if not np.all(np.isfinite(pred_train)):
            raise TrainingDivergedError(f"non-finite predictions at round {r}")
        # a huge-but-finite pred squares to inf; keep it as an inf trace entry
        with np.errstate(over="ignore"):
            trace.train_rmse.append(float(np.sqrt(np.mean((pred_train - y_train) ** 2))))

        if n_val:
            pred_val = pred_val + cfg.learning_rate * predict_tree(tree, Xb_val)
            v = float(np.sqrt(np.mean((pred_val - y_val) ** 2)))
            trace.val_rmse.append(v)
            if v < best_val:
                best_val = v
                trace.best_round = r
            elif r - trace.best_round >= cfg.early_stop_rounds:
                break
        else:
            trace.best_round = r

    if n_val and trace.best_round >= 0:
        del ens.trees[trace.best_round + 1 :]
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


def ensemble_from_dict(doc: dict) -> Ensemble:
    """Inverse of ensemble_to_dict; reloaded models predict bit-identically.

    Raises ValueError unless the bundles cover every feature once and every
    split reads an existing (bundled) column and has both children.
    """
    ens = from_json(Ensemble, doc)
    width = ens.n_features if ens.bundles is None else len(ens.bundles)
    if ens.bundles is not None and (
        sorted(f for b in ens.bundles for f in b.features) != list(range(ens.n_features))
        or any(len(b.features) > 1 and not len(b.features) == len(b.lo) == len(b.offsets)
               for b in ens.bundles)
    ):
        raise ValueError(f"bundles do not cover the {ens.n_features} features once each")
    stack = list(ens.trees)
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        if node.feature >= width or node.left is None or node.right is None:
            raise ValueError(f"a split reads column {node.feature} of {width} or lacks a child")
        stack += (node.left, node.right)
    return ens
