import dataclasses
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from conftest import nested_tree
from normbase import gbmodels as gb
from normbase.errors import ConfigError, DataError, TrainingDivergedError
from normbase.savefile import to_json

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# independent reference implementation for small exact trees


def ref_gain(gl, hl, gr, hr, lam, gamma):
    parent = (gl + gr) ** 2 / (hl + hr + lam)
    return 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - gamma


def ref_leaf(gs, hs, lam):
    return -sum(gs) / (sum(hs) + lam)


def ref_tree(X, g, h, lam, gamma, min_h, max_depth, depth=0):
    """Plain-python exhaustive tree builder mirroring the documented policy:
    scan features in index order, thresholds ascending, keep strictly better
    gains only; leaf when depth cap hit or best gain <= 0."""
    rows = list(range(len(g)))
    weight = ref_leaf([g[i] for i in rows], [h[i] for i in rows], lam)
    if depth >= max_depth or len(rows) < 2:
        return {"leaf": weight}
    best = None
    n_feat = len(X[0])
    for f in range(n_feat):
        vals = sorted(set(x[f] for x in X))
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            left = [i for i in rows if X[i][f] <= thr]
            right = [i for i in rows if X[i][f] > thr]
            hl = sum(h[i] for i in left)
            hr = sum(h[i] for i in right)
            if hl < min_h or hr < min_h:
                continue
            gl = sum(g[i] for i in left)
            gr = sum(g[i] for i in right)
            gain = ref_gain(gl, hl, gr, hr, lam, gamma)
            if best is None or gain > best[0]:
                best = (gain, f, thr, left, right)
    if best is None or best[0] <= 0.0:
        return {"leaf": weight}
    gain, f, thr, left, right = best
    return {
        "feature": f,
        "threshold": thr,
        "gain": gain,
        "left": ref_tree([X[i] for i in left], [g[i] for i in left],
                         [h[i] for i in left], lam, gamma, min_h, max_depth, depth + 1),
        "right": ref_tree([X[i] for i in right], [g[i] for i in right],
                          [h[i] for i in right], lam, gamma, min_h, max_depth, depth + 1),
    }


def ref_predict(node, x):
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


def assert_same_tree(tree: gb.Tree, ref: dict, rel=1e-12, node=0):
    if "leaf" in ref:
        assert tree.feature[node] == -1
        assert tree.weight[node] == pytest.approx(ref["leaf"], rel=rel, abs=1e-15)
        return
    assert tree.feature[node] == ref["feature"]
    assert tree.threshold[node] == pytest.approx(ref["threshold"], rel=rel)
    assert tree.gain[node] == pytest.approx(ref["gain"], rel=rel, abs=1e-15)
    assert_same_tree(tree, ref["left"], rel, tree.left[node])
    assert_same_tree(tree, ref["right"], rel, tree.right[node])


def chain_tree(depth: int) -> gb.Tree:
    """Split i sends x <= i left to a leaf of weight i + 0.5 and the rest on.

    A row with value i ends in the leaf at depth i + 1, and NaN goes left at
    even depths.
    """
    n = 2 * depth + 1
    split = np.arange(n) % 2 == 0
    split[-1] = False
    node = np.arange(n)
    return gb.Tree(
        feature=np.where(split, 0, -1),
        threshold=np.where(split, node // 2, 0).astype(float),
        default_left=~split | (node % 4 == 0),
        gain=np.where(split, 1.0, 0.0),
        weight=np.where(node % 2 == 1, node // 2 + 0.5, -1.0),
        left=np.where(split, node + 1, -1),
        right=np.where(split, node + 2, -1),
    )


# ---------------------------------------------------------------------------


class TestSplitMath:
    def test_leaf_weight(self):
        assert gb.leaf_weight(-6.0, 3.0, 1.0) == -(-6.0) / 4.0
        assert gb.leaf_weight(2.0, 4.0, 0.0) == -0.5

    def test_grad_hess(self):
        g, h = gb.grad_hess([1.0, 2.0], [1.5, 1.5])
        assert g.tolist() == [0.5, -0.5]
        assert h.tolist() == [1.0, 1.0]


class TestExactTreeOracle:
    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(4, 40))
            n_feat = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 3))
            lam = float(rng.choice([0.0, 0.5, 1.0]))
            gamma = float(rng.choice([0.0, 0.1]))
            # coarse grid values force ties and duplicate feature values
            X = rng.integers(0, 5, size=(n, n_feat)).astype(float)
            g = rng.normal(size=n)
            h = np.ones(n)
            cfg = gb.BoostConfig(
                max_depth=depth, reg_lambda=lam, gamma=gamma, min_child_hessian=1.0
            )
            tree = gb.build_tree_exact(X, g, h, cfg)
            ref = ref_tree(X.tolist(), g.tolist(), h.tolist(), lam, gamma, 1.0, depth)
            assert_same_tree(tree, ref)
            # prediction agreement on the training rows
            pred = gb.predict_tree(tree, X)
            want = [ref_predict(ref, x) for x in X.tolist()]
            np.testing.assert_allclose(pred, want, rtol=1e-12, atol=1e-15)

    def test_passed_order_matches_internal_sort(self):
        rng = np.random.default_rng(17)
        X = rng.integers(0, 6, size=(120, 5)).astype(float)  # ties in every column
        X[rng.random(X.shape) < 0.1] = np.nan
        g, h = rng.normal(size=120), rng.uniform(0.5, 2.0, size=120)
        cfg = gb.BoostConfig(max_depth=5, reg_lambda=0.5)
        order = np.argsort(X.T, axis=1, kind="stable")
        passed = gb.build_tree_exact(X, g, h, cfg, order)
        internal = gb.build_tree_exact(X, g, h, cfg)
        assert json.dumps(to_json(passed)) == json.dumps(to_json(internal))

    def test_fit_sorts_once_with_the_same_trees(self, monkeypatch):
        rng = np.random.default_rng(19)
        X = np.round(rng.normal(size=(80, 4)), 1)
        y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(scale=0.2, size=80)
        cfg = gb.BoostConfig(rounds=15, learning_rate=0.3, max_depth=4)
        ens, _ = gb.boost_fit((X, y), cfg, kind="exact")
        orders = []
        build = gb.build_tree_exact

        def sort_per_tree(X, g, h, cfg, order=None, leaf_of=None):
            orders.append(order)
            return build(X, g, h, cfg, leaf_of=leaf_of)

        monkeypatch.setattr(gb, "build_tree_exact", sort_per_tree)
        per_tree, _ = gb.boost_fit((X, y), cfg, kind="exact")
        assert len(orders) == 15 and all(o is orders[0] for o in orders)
        assert json.dumps(gb.ensemble_to_dict(ens)) == json.dumps(gb.ensemble_to_dict(per_tree))

    def test_pure_node_becomes_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        g = np.array([0.0, 0.0, 0.0])
        tree = gb.build_tree_exact(X, g, np.ones(3), gb.BoostConfig(max_depth=3))
        assert tree.feature.tolist() == [-1]
        assert tree.weight.tolist() == [0.0]

    def test_min_child_hessian_blocks_starved_split(self):
        # only split puts 1 row on a side; min_child_hessian=2 forbids it
        X = np.array([[0.0], [1.0], [1.0], [1.0]])
        g = np.array([5.0, -1.0, -2.0, -2.0])
        cfg = gb.BoostConfig(max_depth=2, min_child_hessian=2.0, reg_lambda=0.0)
        tree = gb.build_tree_exact(X, g, np.ones(4), cfg)
        assert tree.feature.tolist() == [-1]

    @pytest.mark.parametrize("columns", [([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
                                         ([0.0, 2.0, 1.0], [0.0, 0.0, 1.0])])
    def test_nan_gain_is_never_chosen(self, columns):
        # Row 2's hessian vanishes in the node total, so with reg_lambda=0 the
        # cut that leaves row 2 alone on the right scores 0/0 = NaN: on feature
        # 0 ahead of the best cut, or on feature 1 after it. Every other valid
        # cut scores 9.
        X = np.column_stack(columns)
        g = np.array([5.0, -1.0, 0.0])
        h = np.array([1.0, 1.0, 1e-20])
        cfg = gb.BoostConfig(max_depth=1, max_leaves=2, reg_lambda=0.0, min_child_hessian=0.0)
        tree = gb.build_tree_exact(X, g, h, cfg)
        assert (tree.feature[0], tree.threshold[0], tree.gain[0]) == (0, 0.5, 9.0)
        edges = [np.array([0.5, 1.5])] * 2
        bin_idx = np.column_stack([gb._bin_column(X[:, j], edges[j]) for j in (0, 1)])
        hist = gb.build_tree_hist(bin_idx, edges, g, h, np.ones(3), np.arange(3), cfg)
        assert (hist.feature[0], hist.threshold[0], hist.gain[0]) == (0, 0.5, 9.0)

    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    def test_cut_between_adjacent_floats_splits_rows(self, reg_lambda):
        # The midpoint of 1000 and the float just below it rounds to 1000,
        # which would send every row left: an empty right child, a division
        # by zero at reg_lambda 0 and a gain recorded for nothing otherwise.
        below = np.nextafter(1000.0, 0.0)
        X = np.array([[below]] + [[0.0]] * 13 + [[1000.0]])
        g = np.eye(15)[14]
        tree = gb.build_tree_exact(X, g, np.ones(15), gb.BoostConfig(max_depth=1, reg_lambda=reg_lambda))
        assert (tree.feature[0], tree.threshold[0]) == (0, below)
        left, right = tree.weight[tree.left[0]], tree.weight[tree.right[0]]
        assert right == -1.0 / (1.0 + reg_lambda)
        pred = gb.predict_tree(tree, X)
        assert pred.tolist() == [left] * 14 + [right]

    def test_nan_follows_default_side(self):
        tree = gb.Tree(
            feature=np.array([0, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
            default_left=np.array([False, True, True]), gain=np.zeros(3),
            weight=np.array([0.0, -1.0, 1.0]), left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
        )
        out = gb.predict_tree(tree, np.array([[0.0], [np.nan], [1.0]]))
        assert out.tolist() == [-1.0, 1.0, 1.0]
        tree.default_left[0] = True
        out = gb.predict_tree(tree, np.array([[np.nan]]))
        assert out.tolist() == [-1.0]


HAND_X = np.array([[0.0]] * 5 + [[1.0]] * 5)
HAND_Y = np.array([1.0] * 5 + [2.0] * 5)


def hand_cfg(**over):
    base = dict(
        rounds=2, learning_rate=0.5, reg_lambda=0.0, gamma=0.0,
        min_child_hessian=1.0, validation_fraction=0.0,
        goss_a=1.0, goss_b=0.0, seed=0,
    )
    base.update(over)
    return gb.BoostConfig(**base)


class TestBoostHandFixture:
    @pytest.mark.parametrize("kind", ["exact", "histogram"])
    def test_two_round_predictions(self, kind):
        ens, trace = gb.boost_fit((HAND_X, HAND_Y), hand_cfg(), kind=kind)
        assert ens.base_score == 1.5
        pred = gb.boost_predict(ens, np.array([[0.0], [1.0]]))
        # residual halves every round: 1.5 -> 1.25/1.75 -> 1.125/1.875
        assert pred.tolist() == [1.125, 1.875]

    @pytest.mark.parametrize("kind", ["exact", "histogram"])
    def test_geometric_error_decay(self, kind):
        ens, trace = gb.boost_fit((HAND_X, HAND_Y), hand_cfg(rounds=4), kind=kind)
        # all quantities are exact binary fractions, so equality is exact
        assert trace.train == [0.25, 0.125, 0.0625, 0.03125]

    def test_zero_rounds_predicts_mean(self):
        ens, trace = gb.boost_fit((HAND_X, HAND_Y), hand_cfg(rounds=0))
        assert len(trace.train) == 0
        assert gb.boost_predict(ens, HAND_X).tolist() == [1.5] * 10

    def test_base_score_uses_all_rows(self):
        # validation split changes which rows trees see, never the base score
        y = np.array([1.0] * 8 + [9.0] * 2)
        ens, _ = gb.boost_fit(
            (HAND_X, y), hand_cfg(rounds=0, validation_fraction=0.2)
        )
        assert ens.base_score == float(np.mean(y))


class TestTrainRmseMonotone:
    def test_non_increasing_without_regularization(self):
        # with lam=0 each leaf update is a pure mean-shift; for
        # 0 < learning_rate < 2 the per-leaf SSE change is
        # n * w^2 * lr * (lr - 2) <= 0, so RMSE can never rise
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 3))
        y = X @ np.array([2.0, -1.0, 0.5]) + rng.normal(scale=0.3, size=80)
        cfg = gb.BoostConfig(
            rounds=30, learning_rate=0.7, reg_lambda=0.0, max_depth=3,
            validation_fraction=0.0, goss_a=1.0, goss_b=0.0,
        )
        _, trace = gb.boost_fit((X, y), cfg, kind="exact")
        diffs = np.diff(trace.train)
        assert np.all(diffs <= 1e-12)


class TestEarlyStop:
    def test_truncates_to_best_round(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)  # pure noise: validation must degrade
        cfg = gb.BoostConfig(
            rounds=200, learning_rate=0.3, max_depth=3, reg_lambda=0.0,
            min_child_hessian=1.0, early_stop_rounds=5,
            validation_fraction=0.2, goss_a=1.0, goss_b=0.0,
        )
        ens, trace = gb.boost_fit((X, y), cfg, kind="exact")
        assert len(trace.train) < 200
        assert len(ens.trees) == trace.best + 1
        assert trace.val[trace.best] == min(trace.val)

    def test_divergence_detected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40) + 100.0
        cfg = gb.BoostConfig(
            rounds=100, learning_rate=1e8, max_depth=2,
            validation_fraction=0.0, goss_a=1.0, goss_b=0.0,
        )
        with pytest.raises(TrainingDivergedError):
            gb.boost_fit((X, y), cfg, kind="exact")


class TestGoss:
    def test_keep_all_when_fractions_cover_everything(self):
        g = np.random.default_rng(0).normal(size=30)
        idx, w = gb.goss_sample(g, 1.0, 0.0, seed=5)
        assert idx.tolist() == list(range(30))
        assert w.tolist() == [1.0] * 30

    def test_exact_counts_and_weights(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=200)
        idx, w = gb.goss_sample(g, 0.2, 0.1, seed=3)
        assert idx.size == 60  # 40 kept + 20 sampled
        assert np.sum(w == 1.0) == 40
        amplified = w[w != 1.0]
        assert amplified.size == 20
        np.testing.assert_allclose(amplified, 8.0, rtol=1e-15)  # (1-0.2)/0.1

    def test_top_rows_are_largest_gradients(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=100)
        idx, w = gb.goss_sample(g, 0.1, 0.0, seed=0)
        top = set(idx.tolist())
        want = set(np.argsort(-np.abs(g), kind="stable")[:10].tolist())
        assert top == want

    def test_total_weight_is_unbiased_by_construction(self):
        # E[sum of weights] = n exactly; with these fractions it is n for
        # every draw, not just in expectation
        g = np.random.default_rng(2).normal(size=200)
        for seed in range(20):
            _, w = gb.goss_sample(g, 0.2, 0.1, seed=seed)
            assert np.sum(w) == pytest.approx(200.0, rel=1e-12)

    def test_deterministic_per_seed(self):
        g = np.random.default_rng(4).normal(size=50)
        a = gb.goss_sample(g, 0.2, 0.2, seed=12)
        b = gb.goss_sample(g, 0.2, 0.2, seed=12)
        c = gb.goss_sample(g, 0.2, 0.2, seed=13)
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])

    def test_fraction_validation(self):
        g = np.ones(10)
        with pytest.raises(ConfigError):
            gb.goss_sample(g, 0.8, 0.3, seed=0)
        with pytest.raises(DataError):
            gb.goss_sample(np.empty(0), 0.2, 0.1, seed=0)


class TestGossRowsPlacedByBins:
    """The rows GOSS leaves out of a histogram round get their leaf from the
    builder's bin partition, so boost_fit sends only NaN rows and the
    validation split through predict_tree."""

    N_TRAIN = 240

    @staticmethod
    def problem(nan: bool):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(300, 4))
        X[:, 3] = np.round(X[:, 3])  # ties, so rows share bins and edges
        y = X @ np.array([1.5, -2.0, 0.5, 1.0]) + rng.normal(scale=0.2, size=300)
        if nan:
            X[rng.random(300) < 0.05, 1] = np.nan
        cfg = gb.BoostConfig(rounds=25, learning_rate=0.3, goss_a=0.2, goss_b=0.1,
                             validation_fraction=0.2, early_stop_rounds=25, seed=4)
        return X, y, cfg

    def test_predict_tree_scores_only_the_validation_rows(self, monkeypatch):
        X, y, cfg = self.problem(nan=False)
        calls = []
        predict = gb.predict_tree

        def counting(tree, rows):
            calls.append(len(rows))
            return predict(tree, rows)

        monkeypatch.setattr(gb, "predict_tree", counting)
        _, trace = gb.boost_fit((X, y), cfg, kind="histogram")
        assert calls == [300 - self.N_TRAIN] * len(trace.train)

    @pytest.mark.parametrize("nan", [False, True])
    def test_ensemble_equals_routing_every_row(self, monkeypatch, nan):
        X, y, cfg = self.problem(nan)
        binned = to_json(gb.ensemble_to_dict(gb.boost_fit((X, y), cfg, "histogram")[0]))
        X_train = X[:self.N_TRAIN]
        Xb = gb.apply_bundles(X_train, gb.efb_bundle(X_train, cfg.efb_max_conflict))
        build = gb.build_tree_hist

        def routed(bin_idx, edges, g, h, w, rows, cfg, leaf_of=None):
            tree = build(bin_idx, edges, g, h, w, rows, cfg, leaf_of=leaf_of)
            # every row's leaf as predict_tree finds it: route node numbers
            numbered = dataclasses.replace(tree, weight=np.arange(tree.weight.size, dtype=float))
            leaf_of[:] = gb.predict_tree(numbered, Xb).astype(np.intp)
            return tree

        monkeypatch.setattr(gb, "build_tree_hist", routed)
        oracle = to_json(gb.ensemble_to_dict(gb.boost_fit((X, y), cfg, "histogram")[0]))
        assert binned == oracle


class TestEfb:
    def test_dense_columns_stay_identity(self):
        X = np.ones((20, 2))  # every row nonzero -> dense
        bundles = gb.efb_bundle(X, 0.0)
        assert [b.features for b in bundles] == [[0], [1]]
        assert all(b.is_identity for b in bundles)

    def test_exclusive_sparse_columns_bundle(self):
        n = 40
        X = np.zeros((n, 2))
        X[0:4, 0] = [1.0, 2.0, 3.0, 1.5]
        X[10:14, 1] = [5.0, 6.0, 7.0, 5.5]
        bundles = gb.efb_bundle(X, 0.0)
        assert len(bundles) == 1
        assert bundles[0].features == [0, 1]
        out = gb.apply_bundles(X, bundles)
        col = out[:, 0]
        # zero rows stay zero; member ranges never overlap
        assert np.all(col[4:10] == 0.0)
        vals0 = col[0:4]
        vals1 = col[10:14]
        assert vals0.max() < vals1.min()
        # distinct raw values stay distinct after projection
        assert len(np.unique(col[col != 0])) == 8

    def test_conflicting_columns_respect_budget(self):
        n = 40
        X = np.zeros((n, 2))
        X[0:4, 0] = 1.0
        X[3:7, 1] = 1.0  # one overlapping row
        assert len(gb.efb_bundle(X, 0.0)) == 2
        merged = gb.efb_bundle(X, 0.1)  # allows 4 conflicting rows
        assert len(merged) == 1

    def test_collision_keeps_earliest_member(self):
        n = 40
        X = np.zeros((n, 2))
        X[0, 0] = 2.0
        X[0, 1] = 9.0  # collides with feature 0 on row 0
        X[1, 1] = 9.0
        bundles = gb.efb_bundle(X, 0.5)
        assert len(bundles) == 1
        out = gb.apply_bundles(X, bundles)
        lo0 = bundles[0].lo[bundles[0].features.index(0)]
        off0 = bundles[0].offsets[bundles[0].features.index(0)]
        assert out[0, 0] == off0 + 1.0 + (2.0 - lo0)

    def test_nan_propagates(self):
        X = np.zeros((30, 2))
        X[0, 0] = 1.0
        X[5, 1] = np.nan
        bundles = gb.efb_bundle(X, 0.0)
        out = gb.apply_bundles(X, bundles)
        assert np.isnan(out[5]).any()


class TestHistEquivalence:
    """Histogram trees with lossless bins reproduce exact trees."""

    def test_single_split_matches_exact(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            n = int(rng.integers(10, 32))
            X = rng.integers(1, 7, size=(n, 2)).astype(float)  # nonzero: no EFB merge
            y = rng.normal(size=n) * 3.0 + 10.0
            exact_cfg = gb.BoostConfig(
                rounds=3, learning_rate=0.4, max_depth=1, reg_lambda=1.0,
                validation_fraction=0.0, goss_a=1.0, goss_b=0.0, bins=64,
            )
            hist_cfg = gb.BoostConfig(
                rounds=3, learning_rate=0.4, max_leaves=2, reg_lambda=1.0,
                validation_fraction=0.0, goss_a=1.0, goss_b=0.0, bins=64,
            )
            e1, _ = gb.boost_fit((X, y), exact_cfg, kind="exact")
            e2, _ = gb.boost_fit((X, y), hist_cfg, kind="histogram")
            p1 = gb.boost_predict(e1, X)
            p2 = gb.boost_predict(e2, X)
            np.testing.assert_allclose(p1, p2, rtol=1e-12)

    def test_root_split_agrees_at_depth(self):
        # first expansion of the leaf-wise tree is the depth-wise root split
        rng = np.random.default_rng(5)
        X = rng.integers(1, 9, size=(40, 3)).astype(float)
        g = rng.normal(size=40)
        h = np.ones(40)
        cfg = gb.BoostConfig(max_depth=4, max_leaves=15, bins=64, reg_lambda=1.0)
        exact = gb.build_tree_exact(X, g, h, cfg)
        edges = [gb.quantile_edges(X[:, j], cfg.bins) for j in range(3)]
        bin_idx = np.column_stack(
            [gb._bin_column(X[:, j], edges[j]) for j in range(3)]
        )
        hist = gb.build_tree_hist(
            bin_idx, edges, g, h, np.ones(40), np.arange(40), cfg
        )
        assert hist.feature[0] == exact.feature[0]
        assert hist.threshold[0] == pytest.approx(exact.threshold[0], rel=1e-12)
        assert hist.gain[0] == pytest.approx(exact.gain[0], rel=1e-12)


class TestHistWeights:
    def test_duplicating_a_row_equals_doubling_its_weight(self):
        # with lam=0 the objective is weighted SSE, so duplication == weight 2
        rng = np.random.default_rng(17)
        base_X = np.array([[1.0], [2.0], [3.0], [4.0]])
        base_g = rng.normal(size=4)

        dup_X = np.repeat(base_X, 2, axis=0)
        dup_g = np.repeat(base_g, 2)
        cfg = gb.BoostConfig(
            max_leaves=4, reg_lambda=0.0, min_child_hessian=1.0, bins=16
        )
        edges = [gb.quantile_edges(dup_X[:, 0], cfg.bins)]
        bi_dup = np.column_stack([gb._bin_column(dup_X[:, 0], edges[0])])
        t_dup = gb.build_tree_hist(
            bi_dup, edges, dup_g, np.ones(8), np.ones(8), np.arange(8), cfg
        )

        bi_one = np.column_stack([gb._bin_column(base_X[:, 0], edges[0])])
        t_w2 = gb.build_tree_hist(
            bi_one, edges, base_g, np.ones(4), np.full(4, 2.0), np.arange(4), cfg
        )
        np.testing.assert_allclose(
            gb.predict_tree(t_dup, base_X), gb.predict_tree(t_w2, base_X), rtol=1e-12
        )

    def test_weights_matter_under_regularization(self):
        # same setup but lam>0: -G/(H+lam) is no longer weight-linear
        base_X = np.array([[1.0], [2.0], [3.0], [4.0]])
        base_g = np.array([1.0, -2.0, 3.0, -4.0])
        cfg = gb.BoostConfig(max_leaves=4, reg_lambda=1.0, min_child_hessian=1.0)
        edges = [gb.quantile_edges(base_X[:, 0], cfg.bins)]
        bi = np.column_stack([gb._bin_column(base_X[:, 0], edges[0])])
        t1 = gb.build_tree_hist(bi, edges, base_g, np.ones(4), np.ones(4), np.arange(4), cfg)
        t2 = gb.build_tree_hist(bi, edges, base_g, np.ones(4), np.full(4, 2.0), np.arange(4), cfg)
        p1 = gb.predict_tree(t1, base_X)
        p2 = gb.predict_tree(t2, base_X)
        assert not np.allclose(p1, p2, rtol=1e-9)


class TestQuantileEdges:
    def test_few_distinct_values_get_midpoints(self):
        edges = gb.quantile_edges(np.array([1.0, 3.0, 3.0, 7.0]), bins=32)
        assert edges.tolist() == [2.0, 5.0]

    def test_constant_column_has_no_edges(self):
        assert gb.quantile_edges(np.full(10, 4.2), bins=8).size == 0

    def test_many_values_capped_by_bins(self):
        vals = np.arange(1000, dtype=float)
        edges = gb.quantile_edges(vals, bins=16)
        assert 1 <= edges.size <= 15

    def test_binning_respects_edges(self):
        vals = np.array([1.0, 3.0, 3.0, 7.0])
        edges = gb.quantile_edges(vals, bins=32)
        b = gb._bin_column(vals, edges)
        # bin index j <=> value <= edges[j], matching the tree predicate
        for x, bi in zip(vals, b):
            for j, e in enumerate(edges):
                assert (bi <= j) == (x <= e)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["exact", "histogram"])
    def test_round_trip_bit_identical(self, kind):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(60, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(scale=0.2, size=60)
        cfg = gb.BoostConfig(rounds=20, learning_rate=0.2, validation_fraction=0.0)
        ens, _ = gb.boost_fit((X, y), cfg, kind=kind)
        doc = json.loads(json.dumps(gb.ensemble_to_dict(ens), allow_nan=False))
        back = gb.ensemble_from_dict(doc)
        X_new = rng.normal(size=(30, 4))
        np.testing.assert_array_equal(
            gb.boost_predict(ens, X_new), gb.boost_predict(back, X_new)
        )

    def test_round_trip_with_bundles(self):
        rng = np.random.default_rng(8)
        n = 100
        X = np.zeros((n, 3))
        X[:, 0] = rng.normal(size=n)  # dense
        X[rng.choice(n, 10, replace=False), 1] = rng.uniform(1, 2, 10)
        X[rng.choice(n, 10, replace=False), 2] = rng.uniform(5, 6, 10)
        y = X[:, 0] * 2.0 + X[:, 1] + rng.normal(scale=0.1, size=n)
        cfg = gb.BoostConfig(rounds=15, validation_fraction=0.0)
        ens, _ = gb.boost_fit((X, y), cfg, kind="histogram")
        back = gb.ensemble_from_dict(json.loads(json.dumps(gb.ensemble_to_dict(ens))))
        assert back.bundles is not None
        np.testing.assert_array_equal(gb.boost_predict(ens, X), gb.boost_predict(back, X))

    @pytest.mark.parametrize("kind", ["exact", "histogram"])
    def test_fitted_ensemble_pickles_to_the_same_model(self, kind):
        # fitted models cross the process boundary of the model pool by pickle
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        y = X[:, 0] - X[:, 2] + rng.normal(scale=0.1, size=80)
        ens, _ = gb.boost_fit((X, y), gb.BoostConfig(rounds=10, validation_fraction=0.0), kind)
        back = pickle.loads(pickle.dumps(ens))
        assert json.dumps(gb.ensemble_to_dict(back)) == json.dumps(gb.ensemble_to_dict(ens))

    def test_deep_chain_tree_pickles(self):
        # a nested node object pickled once per level and failed near depth 500
        depth = 2000
        tree = chain_tree(depth)
        X = np.append(np.arange(depth + 1.0), np.nan)[:, None]
        back = pickle.loads(pickle.dumps(tree))
        assert gb.predict_tree(back, X).tobytes() == gb.predict_tree(tree, X).tobytes()
        assert gb.predict_tree(tree, X)[:3].tolist() == [0.5, 1.5, 2.5]

    def test_deep_chain_tree_round_trips_through_json(self):
        # the nested form recursed once per level and failed near depth 500
        depth = 2000
        ens = gb.Ensemble(kind="exact", base_score=0.25, learning_rate=0.5, n_features=1,
                          trees=[chain_tree(depth)], bundles=None)
        back = gb.ensemble_from_dict(json.loads(json.dumps(gb.ensemble_to_dict(ens))))
        X = np.append(np.arange(depth + 1.0), np.nan)[:, None]
        assert gb.boost_predict(back, X).tobytes() == gb.boost_predict(ens, X).tobytes()
        for name, a in vars(ens.trees[0]).items():
            b = getattr(back.trees[0], name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("name", ["gbt_exact", "gbt_hist"])
    def test_nan_cells_file_predicts_the_same_bits(self, name):
        # an ensemble fitted on rows with NaN cells while trees were nested
        # node objects, with the predictions that version made
        saved = json.loads((DATA / f"{name}_nan_cells.json").read_text())
        X = np.array(saved["X"], dtype=float)
        ens = gb.ensemble_from_dict(saved["payload"])
        assert gb.boost_predict(ens, X).tobytes() == np.array(saved["predictions"]).tobytes()
        back = gb.ensemble_from_dict(json.loads(json.dumps(gb.ensemble_to_dict(ens))))
        assert json.dumps(gb.ensemble_to_dict(back)) == json.dumps(gb.ensemble_to_dict(ens))

    @pytest.mark.parametrize("name", ["gbt_exact", "gbt_hist"])
    def test_fit_with_nan_cells_gives_the_saved_ensemble(self, name):
        # growth sends NaN right (exact) or left (histogram), while routing
        # follows default_left; the training predictions must follow routing
        saved = json.loads((DATA / f"{name}_nan_cells.json").read_text())
        X, y = np.array(saved["X"], dtype=float), np.array(saved["y"])
        assert np.isnan(X).any()
        ens, _ = gb.boost_fit((X, y), gb.BoostConfig(**saved["config"]), saved["kind"])
        want = gb.ensemble_to_dict(gb.ensemble_from_dict(saved["payload"]))
        assert json.dumps(gb.ensemble_to_dict(ens)) == json.dumps(want)

    BAD_STRUCTURE = [
        "feature_out_of_range", "feature_past_bundles", "missing_child", "bundle_gap",
        "bundle_repeat", "short_offsets", "shared_child", "child_before_parent",
        "unequal_lengths",
    ]

    @staticmethod
    def damaged(damage):
        rng = np.random.default_rng(8)
        X = np.zeros((100, 3))
        X[:, 0] = rng.normal(size=100)
        X[:10, 1] = 1.0  # sparse columns 1 and 2 share one bundle
        X[50:60, 2] = 2.0
        y = X[:, 0] + X[:, 1]
        cfg = gb.BoostConfig(rounds=5, validation_fraction=0.0, bins=8)
        kind = "histogram" if "bundle" in damage or damage == "short_offsets" else "exact"
        doc = json.loads(json.dumps(gb.ensemble_to_dict(gb.boost_fit((X, y), cfg, kind)[0])))
        gb.ensemble_from_dict(json.loads(json.dumps(doc)))
        tree = doc["trees"][0]
        assert tree["feature"][0] >= 0  # the root splits
        if damage == "feature_out_of_range":
            tree["feature"][0] = 3
        elif damage == "feature_past_bundles":
            tree["feature"][0] = len(doc["bundles"])
        elif damage == "missing_child":
            tree["left"][0] = -1
        elif damage == "bundle_gap":
            doc["bundles"].pop()
        elif damage == "bundle_repeat":
            doc["bundles"].append({"features": [0], "lo": [], "offsets": []})
        elif damage == "short_offsets":
            doc["bundles"][-1]["offsets"].pop()
        elif damage == "shared_child":
            # the root's right child is also the right child of the split below it
            assert tree["feature"][1] >= 0
            tree["right"][0] = tree["right"][1]
        elif damage == "child_before_parent":
            # the split below the root points back at the root
            tree["right"][1] = 0
        else:
            tree["weight"].pop()
        return doc

    @pytest.mark.parametrize("damage", BAD_STRUCTURE)
    def test_bad_structure_rejected(self, damage):
        doc = self.damaged(damage)
        with pytest.raises(ValueError):
            gb.ensemble_from_dict(doc)

    def test_nested_layout_rejected(self):
        # one object per node, children inside: the layout before the flat node arrays
        doc = json.loads((DATA / "gbt_exact_nan_cells.json").read_text())["payload"]
        doc["trees"] = [nested_tree(t) for t in doc["trees"]]
        message = "key 'trees.left' must be an array of numbers, not of dtype object"
        with pytest.raises(ValueError, match=f"^{message}$"):
            gb.ensemble_from_dict(json.loads(json.dumps(doc)))


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            gb.BoostConfig(rounds=-1)
        with pytest.raises(ConfigError):
            gb.BoostConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            gb.BoostConfig(max_leaves=1)
        with pytest.raises(ConfigError):
            gb.BoostConfig(bins=1)
        with pytest.raises(ConfigError):
            gb.BoostConfig(goss_a=0.9, goss_b=0.2)
        with pytest.raises(ConfigError):
            gb.BoostConfig(efb_max_conflict=1.0)
        with pytest.raises(ConfigError):
            gb.BoostConfig(validation_fraction=0.6)
        with pytest.raises(ConfigError, match="^seed must be >= 0, not -5$"):
            gb.BoostConfig(seed=-5)

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            gb.boost_fit((np.ones((5, 1)), np.ones(5)), gb.BoostConfig())

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            gb.boost_fit((np.ones((12, 1)), np.ones(12)), gb.BoostConfig(), kind="gpu")

    def test_predict_feature_mismatch(self):
        ens, _ = gb.boost_fit((HAND_X, HAND_Y), hand_cfg(rounds=1))
        with pytest.raises(DataError):
            gb.boost_predict(ens, np.ones((3, 2)))
