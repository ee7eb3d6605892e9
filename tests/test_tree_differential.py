"""gbmodels' tree builders against the per-feature split search they replaced.

``build_tree_exact`` and ``build_tree_hist`` below are the earlier builders,
kept verbatim (except that a threshold whose midpoint rounds onto the upper
value falls back to the lower one, as in gbmodels) with their helpers ``_best_candidate``, ``_scan_best_split``,
``_HistLeaf`` and ``_best_hist_split`` as the oracle: one argsort, cumsum or
bincount per (node, feature). They build the linked ``TreeNode`` trees that
gbmodels stored before its flat node arrays. For every drawn problem the
oracle's tree, converted by the loader of saved nested trees, and the current
builder's tree must have the same seven node arrays bit for bit, so every
split, threshold, gain, leaf weight and child index agrees.

Hessians are drawn from [0.01, 100], where no child hessian sum can round to
zero. With reg_lambda 0 such a sum gives a NaN gain, which the oracle may
pick and the current search never does
(``test_gbmodels.py::TestExactTreeOracle::test_nan_gain_is_never_chosen``).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from normbase import gbmodels as gb
from normbase.errors import DataError
from normbase.gbmodels import BoostConfig, leaf_weight
from normbase.savefile import to_json

# -- oracle: the per-feature split search, unchanged -------------------------


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


def _best_candidate(gl, hl, g_total, h_total, cfg, valid=True):
    """First best (index, gain) among candidate splits, or None if none is valid.

    Candidate k sends gradient sum gl[k] and hessian sum hl[k] to the left
    child. Its gain is
    0.5 * [GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)] - gamma.
    A candidate is valid when ``valid`` holds and both children carry at
    least min_child_hessian; the first maximum wins, which is the lowest
    threshold on ties.
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
    gains[~ok] = -np.inf
    best = int(np.argmax(gains))
    return best, float(gains[best])


def _scan_best_split(xs, gs, hs, g_total, h_total, cfg):
    """Best (gain, threshold) along one sorted feature column, or None.

    Candidates are midpoints between consecutive distinct values.
    """
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    found = _best_candidate(np.cumsum(gs)[cut], np.cumsum(hs)[cut], g_total, h_total, cfg)
    if found is None:
        return None
    best, gain = found
    lo, hi = xs[cut[best]], xs[cut[best] + 1]
    mid = 0.5 * (lo + hi)
    return gain, float(mid if lo <= mid < hi else lo)


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
            gain, thr = found
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


class _HistLeaf:
    """Bookkeeping for one growable leaf during best-first construction."""

    __slots__ = ("node", "rows", "split")

    def __init__(self, node, rows):
        self.node = node
        self.rows = rows
        self.split = None  # (gain, feature, edge_index, threshold)


def _best_hist_split(rows, bin_idx, edges, gw, hw, cfg):
    """Scan every bundled column's histogram for the best valid split."""
    g_total = float(np.sum(gw[rows]))
    h_total = float(np.sum(hw[rows]))
    best = None
    for f in range(bin_idx.shape[1]):
        e = edges[f]
        if e.size == 0:
            continue
        nbins = e.size + 1
        b = bin_idx[rows, f]
        hist_g = np.bincount(b, weights=gw[rows], minlength=nbins)
        hist_h = np.bincount(b, weights=hw[rows], minlength=nbins)
        nl = np.cumsum(np.bincount(b, minlength=nbins))[:-1]
        found = _best_candidate(
            np.cumsum(hist_g)[:-1], np.cumsum(hist_h)[:-1], g_total, h_total, cfg,
            valid=(nl > 0) & (nl < rows.size),
        )
        if found is not None and (best is None or found[1] > best[0]):
            j, gain = found
            best = (gain, f, j, float(e[j]))
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
    leaves = [_HistLeaf(root, root_rows)]
    leaves[0].split = _best_hist_split(root_rows, bin_idx, edges, gw, hw, cfg)
    n_leaves = 1

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
            child = _HistLeaf(child_node, child_rows)
            child.split = _best_hist_split(child_rows, bin_idx, edges, gw, hw, cfg)
            leaves.append(child)
        n_leaves += 1

    return root


# -- drawn problems ----------------------------------------------------------


@st.composite
def problems(draw):
    """A node's rows: features, gradients, hessians and a config.

    Integer-grid values make ties in values and gains; NaN cells and
    constant columns leave some columns with few or no cuts.
    """
    n, n_cols = draw(st.integers(1, 60)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        cells = st.integers(-3, 3).map(float)
    else:
        cells = st.floats(-1e3, 1e3, allow_nan=False)
    X = draw(hnp.arrays(float, (n, n_cols), elements=cells))
    if n_cols > 1 and draw(st.booleans()):
        # a mirrored column makes every gain of column 0 again, at the mirrored cut
        X[:, draw(st.integers(1, n_cols - 1))] = -X[:, 0]
    X[draw(hnp.arrays(bool, (n, n_cols), elements=st.sampled_from([False] * 4 + [True])))] = np.nan
    for j in draw(st.sets(st.integers(0, max(n_cols - 1, 0)), max_size=n_cols)):
        X[:, j] = draw(st.sampled_from([0.0, 1.5, np.nan]))
    grads = st.integers(-3, 3).map(float) if draw(st.booleans()) else st.floats(-10, 10)
    g = draw(hnp.arrays(float, n, elements=grads))
    if draw(st.booleans()):
        h = np.ones(n)
    else:
        h = draw(hnp.arrays(float, n, elements=st.floats(0.01, 100)))
    cfg = BoostConfig(
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        min_child_hessian=draw(st.sampled_from([0.0, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.1])),
        bins=draw(st.sampled_from([2, 4, 32])),
        max_depth=draw(st.integers(1, 5)),
        max_leaves=draw(st.integers(2, 16)),
    )
    return X, g, h, cfg


def assert_same_nodes(tree: gb.Tree, oracle: TreeNode):
    want = gb._flat_tree(to_json(oracle))
    for name, got in vars(tree).items():
        ref = np.array(want[name])
        assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), name


# 1000 and the float below it: their midpoint rounds to 1000 (see
# test_gbmodels.py::TestExactTreeOracle::test_cut_between_adjacent_floats_splits_rows)
ADJACENT_FLOATS = (
    np.array([[np.nextafter(1000.0, 0.0)]] + [[0.0]] * 13 + [[1000.0]]),
    np.eye(15)[14],
    np.ones(15),
    BoostConfig(max_depth=1, reg_lambda=0.0),
)


# Edge cases of the split search, which scores the candidates of every part
# (the exact builder's node, or both children of a histogram split) in one
# pass; a random draw reaches them only now and then.
NO_COLUMNS = (np.zeros((6, 0)), np.arange(6.0), np.ones(6), BoostConfig())
# the root cuts off row 3 alone, and the histogram builder then scores a
# one-row child, which has no candidate, beside a child that has one
ONE_ROW_CHILD = (
    np.array([[0.0], [1.0], [2.0], [9.0]]),
    np.array([1.0, -1.0, 1.0, -20.0]),
    np.ones(4),
    BoostConfig(max_depth=2, max_leaves=3, min_child_hessian=0.0),
)
# six rows of hessian 0.3: every cut leaves a child below 1.0
STARVED_CHILDREN = (
    np.arange(6.0)[:, None],
    np.array([3.0, -1.0, 2.0, -4.0, 5.0, -6.0]),
    np.full(6, 0.3),
    BoostConfig(min_child_hessian=1.0),
)
# one split, whose children are never searched
TWO_LEAVES = (
    np.column_stack([np.arange(8.0), np.arange(8.0) % 3]),
    np.array([1.0, 2.0, 1.0, 3.0, -2.0, -1.0, -3.0, -2.0]),
    np.ones(8),
    BoostConfig(max_depth=1, max_leaves=2),
)
_rng = np.random.default_rng(3)
# 30 rows: GOSS keeps 6 at weight 1 and samples 3 at weight 8
SAMPLED = (
    np.column_stack([np.arange(30.0), _rng.integers(0, 4, 30).astype(float)]),
    3.0 * _rng.normal(size=30),
    np.ones(30),
    BoostConfig(max_leaves=4),
)


@settings(deadline=None, max_examples=300)
@given(problems())
@example(ADJACENT_FLOATS)
@example(NO_COLUMNS)
@example(ONE_ROW_CHILD)
@example(STARVED_CHILDREN)
@example(TWO_LEAVES)
@example(SAMPLED)
def test_exact_builder_matches_per_feature_search(problem):
    X, g, h, cfg = problem
    assert_same_nodes(gb.build_tree_exact(X, g, h, cfg), build_tree_exact(X, g, h, cfg))


@settings(deadline=None, max_examples=300)
@given(problems(), st.sampled_from([None, (0.2, 0.1), (0.5, 0.25)]), st.integers(0, 99))
@example(NO_COLUMNS, None, 0)
@example(ONE_ROW_CHILD, None, 0)
@example(STARVED_CHILDREN, None, 0)
@example(TWO_LEAVES, None, 0)
@example(SAMPLED, (0.2, 0.1), 7)
def test_hist_builder_matches_per_feature_search(problem, goss, seed):
    X, g, h, cfg = problem
    n, n_cols = X.shape
    edges = [gb.quantile_edges(X[:, j], cfg.bins) for j in range(n_cols)]
    bin_idx = np.column_stack(
        [gb._bin_column(X[:, j], edges[j]) for j in range(n_cols)]
    ) if n_cols else np.zeros((n, 0), dtype=np.int32)
    if goss is None:
        rows, w = np.arange(n), np.ones(n)
    else:
        rows, row_weights = gb.goss_sample(g, *goss, seed)
        w = np.zeros(n)
        w[rows] = row_weights
    assert_same_nodes(
        gb.build_tree_hist(bin_idx, edges, g, h, w, rows, cfg),
        build_tree_hist(bin_idx, edges, g, h, w, rows, cfg),
    )
