"""Gradient-boosted regression trees, built from scratch on numpy.

Two tree builders share one boosting loop:

* ``exact``: depth-wise growth, split candidates at midpoints between every
  pair of consecutive distinct feature values.
* ``histogram``: leaf-wise (best-first) growth over quantile-binned features,
  with gradient one-side sampling (keep the large-gradient rows, subsample the
  rest with a compensating weight) and exclusive-feature bundling (sparse
  features whose nonzero rows barely overlap share one column).

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


def split_gain(g_left, h_left, g_right, h_right, reg_lambda, gamma) -> float:
    """Objective reduction of a candidate split.

    0.5 * [GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)] - gamma
    """
    gl, hl, gr, hr = float(g_left), float(h_left), float(g_right), float(h_right)
    lam = reg_lambda
    parent = (gl + gr) ** 2 / (hl + hr + lam)
    return 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - gamma


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


def _scan_best_split(xs, gs, hs, g_total, h_total, cfg):
    """Best (gain, threshold, left_count) along one sorted feature column.

    Candidates are midpoints between consecutive distinct values; a candidate
    is valid only when both children carry at least min_child_hessian.
    Returns None when no valid candidate has a finite gain.
    """
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    if cut.size == 0:
        return None
    cg = np.cumsum(gs)
    ch = np.cumsum(hs)
    gl = cg[cut]
    hl = ch[cut]
    gr = g_total - gl
    hr = h_total - hl
    ok = (hl >= cfg.min_child_hessian) & (hr >= cfg.min_child_hessian)
    if not np.any(ok):
        return None
    lam = cfg.reg_lambda
    parent = (g_total * g_total) / (h_total + lam)
    # invalid candidates may divide by zero here; they are masked right after
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - cfg.gamma
    gains[~ok] = -np.inf
    best = int(np.argmax(gains))  # first max -> lowest threshold on ties
    thr = 0.5 * (xs[cut[best]] + xs[cut[best] + 1])
    return float(gains[best]), float(thr), int(cut[best] + 1)


def build_tree_exact(X, g, h, cfg: BoostConfig) -> TreeNode:
    """Grow one depth-wise tree by exhaustive split enumeration.

    Every (feature, midpoint-between-distinct-values) candidate is scored;
    the maximum gain wins, ties broken by lowest feature index then lowest
    threshold. A node becomes a leaf at max_depth, when no candidate has
    positive gain, or when every candidate would starve a child below
    min_child_hessian.
    """
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if X.ndim != 2 or X.shape[0] != g.size or g.size != h.size:
        raise DataError("X, g, h shapes disagree")

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        g_total = float(np.sum(g[rows]))
        h_total = float(np.sum(h[rows]))
        leaf = TreeNode(weight=leaf_weight(g_total, h_total, cfg.reg_lambda))
        if depth >= cfg.max_depth or rows.size < 2:
            return leaf

        best = None  # (gain, feature, threshold)
        for f in range(X.shape[1]):
            xs = X[rows, f]
            order = np.argsort(xs, kind="stable")
            found = _scan_best_split(
                xs[order], g[rows][order], h[rows][order], g_total, h_total, cfg
            )
            if found is None:
                continue
            gain, thr, _ = found
            if best is None or gain > best[0]:
                best = (gain, f, thr)

        if best is None or best[0] <= 0.0:
            return leaf
        gain, f, thr = best
        left_mask = X[rows, f] <= thr
        left_rows, right_rows = rows[left_mask], rows[~left_mask]
        default_left = float(np.sum(h[left_rows])) >= float(np.sum(h[right_rows]))
        return TreeNode(
            feature=f,
            threshold=thr,
            default_left=default_left,
            gain=gain,
            weight=leaf.weight,
            left=grow(left_rows, depth + 1),
            right=grow(right_rows, depth + 1),
        )

    return grow(np.arange(X.shape[0]), 0)


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

    features: list
    lo: list = field(default_factory=list)
    offsets: list = field(default_factory=list)

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


class _HistLeaf:
    """Bookkeeping for one growable leaf during best-first construction."""

    __slots__ = ("node", "rows", "order", "split")

    def __init__(self, node, rows, order):
        self.node = node
        self.rows = rows
        self.order = order
        self.split = None  # (gain, feature, edge_index, threshold)


def _best_hist_split(rows, bin_idx, edges, gw, hw, cfg):
    """Scan every bundled column's histogram for the best valid split."""
    g_total = float(np.sum(gw[rows]))
    h_total = float(np.sum(hw[rows]))
    lam = cfg.reg_lambda
    parent = (g_total * g_total) / (h_total + lam)
    best = None
    for f in range(bin_idx.shape[1]):
        e = edges[f]
        if e.size == 0:
            continue
        nbins = e.size + 1
        b = bin_idx[rows, f]
        hist_g = np.bincount(b, weights=gw[rows], minlength=nbins)
        hist_h = np.bincount(b, weights=hw[rows], minlength=nbins)
        hist_n = np.bincount(b, minlength=nbins)
        gl = np.cumsum(hist_g)[:-1]
        hl = np.cumsum(hist_h)[:-1]
        nl = np.cumsum(hist_n)[:-1]
        hr = h_total - hl
        ok = (
            (hl >= cfg.min_child_hessian)
            & (hr >= cfg.min_child_hessian)
            & (nl > 0)
            & (nl < rows.size)
        )
        if not np.any(ok):
            continue
        gr = g_total - gl
        # invalid candidates may divide by zero here; they are masked right after
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - cfg.gamma
        gains[~ok] = -np.inf
        j = int(np.argmax(gains))  # first max -> lowest threshold on ties
        if best is None or gains[j] > best[0]:
            best = (float(gains[j]), f, j, float(e[j]))
    return best


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

    def make_leaf(r):
        return TreeNode(
            weight=leaf_weight(np.sum(gw[r]), np.sum(hw[r]), cfg.reg_lambda)
        )

    root_rows = np.asarray(rows, dtype=int)
    root = make_leaf(root_rows)
    leaves = [_HistLeaf(root, root_rows, 0)]
    leaves[0].split = _best_hist_split(root_rows, bin_idx, edges, gw, hw, cfg)
    n_leaves = 1
    counter = 1

    while n_leaves < cfg.max_leaves:
        grow = None
        for leaf in leaves:
            if leaf.split is None or leaf.split[0] <= 0.0:
                continue
            if grow is None or leaf.split[0] > grow.split[0]:
                grow = leaf  # strict > keeps the earliest-created leaf on ties
        if grow is None:
            break

        gain, f, j, thr = grow.split
        go_left = bin_idx[grow.rows, f] <= j
        left_rows, right_rows = grow.rows[go_left], grow.rows[~go_left]

        node = grow.node
        node.feature = f
        node.threshold = thr
        node.gain = gain
        node.default_left = float(np.sum(hw[left_rows])) >= float(np.sum(hw[right_rows]))
        node.left = make_leaf(left_rows)
        node.right = make_leaf(right_rows)

        leaves.remove(grow)
        for child_node, child_rows in ((node.left, left_rows), (node.right, right_rows)):
            child = _HistLeaf(child_node, child_rows, counter)
            counter += 1
            child.split = _best_hist_split(child_rows, bin_idx, edges, gw, hw, cfg)
            leaves.append(child)
        n_leaves += 1

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
    trees: list = field(default_factory=list)
    bundles: Optional[list] = None


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
            tree = build_tree_exact(X_train, g, h, cfg)
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
# serialization


def _node_records(root: TreeNode):
    records = []

    def walk(node):
        i = len(records)
        rec = {
            "feature": int(node.feature),
            "threshold": repr(float(node.threshold)),
            "default_left": bool(node.default_left),
            "gain": repr(float(node.gain)),
            "weight": repr(float(node.weight)),
            "left": None,
            "right": None,
        }
        records.append(rec)
        if not node.is_leaf:
            rec["left"] = walk(node.left)
            rec["right"] = walk(node.right)
        return i

    walk(root)
    return records


def _node_from_records(records, i=0) -> TreeNode:
    rec = records[i]
    node = TreeNode(
        feature=rec["feature"],
        threshold=float(rec["threshold"]),
        default_left=rec["default_left"],
        gain=float(rec["gain"]),
        weight=float(rec["weight"]),
    )
    if rec["left"] is not None:
        node.left = _node_from_records(records, rec["left"])
        node.right = _node_from_records(records, rec["right"])
    return node


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    """JSON-ready form with decimal-string floats for exact reload."""
    bundles = None
    if ensemble.bundles is not None:
        bundles = [
            {
                "features": [int(f) for f in b.features],
                "lo": [repr(float(x)) for x in b.lo],
                "offsets": [repr(float(x)) for x in b.offsets],
            }
            for b in ensemble.bundles
        ]
    return {
        "model": "boosted_trees",
        "kind": ensemble.kind,
        "base_score": repr(float(ensemble.base_score)),
        "learning_rate": repr(float(ensemble.learning_rate)),
        "n_features": ensemble.n_features,
        "bundles": bundles,
        "trees": [_node_records(t) for t in ensemble.trees],
    }


def ensemble_from_dict(doc: dict) -> Ensemble:
    """Inverse of ensemble_to_dict; reloaded models predict bit-identically."""
    bundles = None
    if doc.get("bundles") is not None:
        bundles = [
            FeatureBundle(
                features=list(b["features"]),
                lo=[float(x) for x in b["lo"]],
                offsets=[float(x) for x in b["offsets"]],
            )
            for b in doc["bundles"]
        ]
    return Ensemble(
        kind=doc["kind"],
        base_score=float(doc["base_score"]),
        learning_rate=float(doc["learning_rate"]),
        n_features=int(doc["n_features"]),
        trees=[_node_from_records(r) for r in doc["trees"]],
        bundles=bundles,
    )
