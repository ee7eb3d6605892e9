import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normbase import nnmodels as nn
from normbase.errors import ConfigError, DataError, DimensionError, TrainingDivergedError
from normbase.features import TargetScaler

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# finite-difference gradient checking


def numerical_grads(arrays, loss_fn, h=1e-6):
    """Central-difference gradient of loss_fn() w.r.t. every array element."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = a[ix]
            a[ix] = old + h
            up = loss_fn()
            a[ix] = old - h
            down = loss_fn()
            a[ix] = old
            g[ix] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def record_batch_losses(monkeypatch, name):
    """Wrap nnmodels.<name>; the returned list gets (loss, rows) per call."""
    seen = []
    inner = getattr(nn, name)

    def recording(params, inputs, z):
        loss, grads = inner(params, inputs, z)
        seen.append((loss, len(z)))
        return loss, grads

    monkeypatch.setattr(nn, name, recording)
    return seen


def epoch_means(seen, n_train, batch_size):
    """Row-weighted mean batch loss of each epoch, summed in batch order."""
    per_epoch = -(-n_train // batch_size)
    means = []
    for start in range(0, len(seen), per_epoch):
        total = 0.0
        for loss, rows in seen[start : start + per_epoch]:
            total += loss * rows
        means.append(total / n_train)
    return means


def kwh_rmse(params, loss):
    """A z-scored MSE in the unit _fit records it: an RMSE in target units."""
    return math.sqrt(loss) * params.target_scaler.effective_std


def worst_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestMlpGradients:
    def test_tanh_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        for seed in (1, 2, 3):
            params = nn.mlp_init([4, 5, 1], activation="tanh", seed=seed)
            X = rng.normal(size=(6, 4))
            y = rng.normal(size=6)
            _, analytic = nn.mlp_loss_grad(params, X, y)
            numeric = numerical_grads(
                params.arrays(), lambda: nn.mlp_loss_grad(params, X, y)[0]
            )
            assert worst_rel_err(analytic, numeric) < 1e-6

    def test_relu_gradients_match_finite_differences(self):
        # relu is non-differentiable at 0; random preactivations almost never
        # land within the 1e-6 probe, so a fixed seed keeps this stable
        rng = np.random.default_rng(7)
        params = nn.mlp_init([3, 6, 1], activation="relu", seed=5)
        X = rng.normal(size=(8, 3)) + 0.1
        y = rng.normal(size=8)
        _, analytic = nn.mlp_loss_grad(params, X, y)
        numeric = numerical_grads(
            params.arrays(), lambda: nn.mlp_loss_grad(params, X, y)[0]
        )
        assert worst_rel_err(analytic, numeric) < 1e-4

    def test_two_hidden_layers(self):
        rng = np.random.default_rng(3)
        params = nn.mlp_init([3, 4, 4, 1], activation="tanh", seed=9)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        _, analytic = nn.mlp_loss_grad(params, X, y)
        numeric = numerical_grads(
            params.arrays(), lambda: nn.mlp_loss_grad(params, X, y)[0]
        )
        assert worst_rel_err(analytic, numeric) < 1e-6


class TestLstmGradients:
    def test_bptt_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        params = nn.lstm_init(input_size=3, hidden_size=4, seed=2)
        S = rng.normal(size=(5, 3, 3))
        y = rng.normal(size=5)
        _, analytic = nn.lstm_loss_grad(params, S, y)
        numeric = numerical_grads(
            params.arrays(), lambda: nn.lstm_loss_grad(params, S, y)[0]
        )
        assert worst_rel_err(analytic, numeric) < 1e-4

    def test_longer_sequences(self):
        rng = np.random.default_rng(13)
        params = nn.lstm_init(input_size=2, hidden_size=3, seed=4)
        S = rng.normal(size=(4, 7, 2))
        y = rng.normal(size=4)
        _, analytic = nn.lstm_loss_grad(params, S, y)
        numeric = numerical_grads(
            params.arrays(), lambda: nn.lstm_loss_grad(params, S, y)[0]
        )
        assert worst_rel_err(analytic, numeric) < 1e-4


class TestInit:
    def test_glorot_bounds(self):
        params = nn.mlp_init([10, 20, 1], seed=0)
        bound = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(params.weights[0]) <= bound)
        assert np.all(params.biases[0] == 0.0)

    def test_forget_gate_bias_starts_open(self):
        params = nn.lstm_init(3, 5, seed=0)
        assert params.b[1].tolist() == [1.0] * 5
        assert params.b[0].tolist() == [0.0] * 5

    def test_same_seed_same_init(self):
        a = nn.mlp_init([3, 4, 1], seed=12)
        b = nn.mlp_init([3, 4, 1], seed=12)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            nn.mlp_init([3], seed=0)
        with pytest.raises(ConfigError):
            nn.mlp_init([3, 0, 1], seed=0)
        with pytest.raises(ConfigError):
            nn.mlp_init([3, 4, 1], activation="swish", seed=0)
        with pytest.raises(ConfigError):
            nn.lstm_init(0, 4, seed=0)


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            nn.TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            nn.TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            nn.TrainConfig(validation_fraction=0.0)
        with pytest.raises(ConfigError):
            nn.TrainConfig(validation_fraction=0.7)
        with pytest.raises(ConfigError):
            nn.TrainConfig(gradient_clip_norm=0.0)
        with pytest.raises(ConfigError):
            nn.TrainConfig(seed=-1)


def linear_rows(n=50, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 4.0, size=n))
    X = x[:, None]
    y = 3.0 * x + 1.0
    return X, y


class TestClippingContract:
    def test_first_step_moves_exactly_clip_times_lr(self):
        # one epoch, one batch: a single optimizer step. The moment-ratio
        # direction has ~unit components, so its norm far exceeds the tiny
        # clip and the clipped step length is exactly lr * clip.
        X, y = linear_rows(40, seed=1)
        cfg = nn.TrainConfig(
            learning_rate=0.1, epochs=1, batch_size=1000,
            validation_fraction=0.2, gradient_clip_norm=0.5, seed=6,
        )
        before = nn.mlp_init([1, 4, 1], activation="tanh", seed=cfg.seed)
        fitted, trace = nn.mlp_train((X, y), cfg, hidden_sizes=(4,), activation="tanh")
        assert len(trace.train) == 1
        moved = np.sqrt(sum(
            float(np.sum((a - b) ** 2))
            for a, b in zip(fitted.arrays(), before.arrays())
        ))
        assert moved == pytest.approx(0.1 * 0.5, rel=1e-9)

    def test_no_clip_when_norm_is_under_limit(self):
        X, y = linear_rows(40, seed=1)
        cfg = nn.TrainConfig(
            learning_rate=0.1, epochs=1, batch_size=1000,
            validation_fraction=0.2, gradient_clip_norm=1e6, seed=6,
        )
        before = nn.mlp_init([1, 4, 1], activation="tanh", seed=cfg.seed)
        fitted, _ = nn.mlp_train((X, y), cfg, hidden_sizes=(4,), activation="tanh")
        moved = np.sqrt(sum(
            float(np.sum((a - b) ** 2))
            for a, b in zip(fitted.arrays(), before.arrays())
        ))
        # far looser than the clipped run: the step keeps its natural length
        assert moved > 0.1 * 0.5 * 2


class TestMlpTraining:
    def test_learns_linear_map(self):
        X, y = linear_rows(60, seed=4)
        cfg = nn.TrainConfig(learning_rate=0.01, epochs=400, batch_size=16, seed=3)
        params, trace = nn.mlp_train((X, y), cfg, hidden_sizes=(8,), activation="relu")
        n_val = max(1, round(0.2 * 60))
        pred = nn.mlp_predict(params, X[-n_val:])
        rmse = float(np.sqrt(np.mean((pred - y[-n_val:]) ** 2)))
        assert rmse < 0.01 * float(np.mean(y))

    def test_constant_target(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = np.full(40, 42.0)
        cfg = nn.TrainConfig(learning_rate=0.01, epochs=200, batch_size=16, seed=1)
        params, _ = nn.mlp_train((X, y), cfg, hidden_sizes=(4,))
        pred = nn.mlp_predict(params, X)
        assert np.all(np.abs(pred - 42.0) <= 42.0 * 1e-3)

    def test_best_epoch_tracks_minimum_val_loss(self):
        X, y = linear_rows(50, seed=8)
        cfg = nn.TrainConfig(learning_rate=0.02, epochs=60, batch_size=16, seed=2)
        _, trace = nn.mlp_train((X, y), cfg, hidden_sizes=(4,))
        assert trace.val[trace.best] == min(trace.val)

    def test_epoch_losses_are_batch_means_and_validation_mse(self, monkeypatch):
        # train[e] is the row-weighted mean of epoch e's mini-batch losses;
        # the validation loss at the best epoch is the plain MSE of the
        # returned (best-snapshot) params; both are z-scored MSEs recorded
        # as RMSEs in target units
        X, y = linear_rows(50, seed=8)
        cfg = nn.TrainConfig(learning_rate=0.02, epochs=40, batch_size=16, seed=2)
        seen = record_batch_losses(monkeypatch, "mlp_loss_grad")
        params, trace = nn.mlp_train((X, y), cfg, hidden_sizes=(4,))
        n_train = 50 - max(1, round(0.2 * 50))
        assert trace.train == [kwh_rmse(params, m) for m in epoch_means(seen, n_train, cfg.batch_size)]
        z = params.target_scaler.transform(y)
        va = nn.mlp_loss_grad(params, X[n_train:], z[n_train:])[0]
        assert trace.val[trace.best] == kwh_rmse(params, va)

    def test_early_stopping_and_snapshot_restore(self):
        # training longer must return the same parameters as stopping at the
        # best epoch: the returned model is the best-validation snapshot
        rng = np.random.default_rng(10)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)  # noise: validation loss soon degrades
        cfg_long = nn.TrainConfig(
            learning_rate=0.05, epochs=300, batch_size=16,
            early_stop_patience=8, seed=4,
        )
        params_long, trace = nn.mlp_train((X, y), cfg_long, hidden_sizes=(8,))
        assert len(trace.train) < 300  # patience tripped
        cfg_short = nn.TrainConfig(
            learning_rate=0.05, epochs=trace.best + 1, batch_size=16,
            early_stop_patience=8, seed=4,
        )
        params_short, _ = nn.mlp_train((X, y), cfg_short, hidden_sizes=(8,))
        for a, b in zip(params_long.arrays(), params_short.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_retrain_is_bit_identical(self):
        X, y = linear_rows(40, seed=2)
        cfg = nn.TrainConfig(learning_rate=0.01, epochs=30, batch_size=8, seed=9)
        p1, t1 = nn.mlp_train((X, y), cfg, hidden_sizes=(4,))
        p2, t2 = nn.mlp_train((X, y), cfg, hidden_sizes=(4,))
        for a, b in zip(p1.arrays(), p2.arrays()):
            np.testing.assert_array_equal(a, b)
        assert t1.train == t2.train

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            nn.mlp_train((np.ones((20, 2)), np.ones(20)), nn.TrainConfig())

    def test_nan_input_raises_diverged(self):
        X, y = linear_rows(40, seed=0)
        X = X.copy()
        X[5, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            nn.mlp_train((X, y), nn.TrainConfig(epochs=5), hidden_sizes=(4,))

    def test_forward_dimension_check(self):
        params = nn.mlp_init([3, 4, 1], seed=0)
        with pytest.raises(DimensionError):
            nn.mlp_predict(params, np.ones((2, 5)))
        with pytest.raises(DimensionError):
            nn.mlp_predict(params, np.ones(3))


class TestLstmTraining:
    def make_recall_task(self, n=80, length=5, seed=6):
        # target depends only on the final step: the cell must carry the
        # last input through the readout
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(n, length, 2))
        y = 2.0 * S[:, -1, 0] + 10.0
        return S, y

    def test_learns_last_step_readout(self):
        S, y = self.make_recall_task()
        cfg = nn.TrainConfig(learning_rate=0.02, epochs=300, batch_size=32, seed=1)
        params, _ = nn.lstm_train((S, y), cfg, hidden_size=8)
        n_val = max(1, round(0.2 * len(y)))
        pred = nn.lstm_predict(params, S[-n_val:])
        rmse = float(np.sqrt(np.mean((pred - y[-n_val:]) ** 2)))
        assert rmse < 0.05 * float(np.mean(y))

    def test_cell_state_preserved_when_gates_saturate(self):
        # forget gate pinned open and input gate pinned shut: the cell never
        # moves off its zero start, so the output is exactly the readout bias
        params = nn.lstm_init(2, 4, seed=0)
        params.b[1][:] = 1e3   # forget -> sigmoid saturates to exactly 1.0
        params.b[0][:] = -1e3  # input -> exactly 0.0
        params.b_out[0] = 7.25
        S = np.random.default_rng(1).normal(size=(3, 6, 2)) * 10.0
        assert nn.lstm_predict(params, S).tolist() == [7.25] * 3

    def test_retrain_is_bit_identical(self):
        S, y = self.make_recall_task(n=40)
        cfg = nn.TrainConfig(learning_rate=0.02, epochs=20, batch_size=16, seed=3)
        p1, _ = nn.lstm_train((S, y), cfg, hidden_size=4)
        p2, _ = nn.lstm_train((S, y), cfg, hidden_size=4)
        for a, b in zip(p1.arrays(), p2.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_epoch_losses_are_batch_means_and_validation_mse(self, monkeypatch):
        S, y = self.make_recall_task(n=40)
        cfg = nn.TrainConfig(learning_rate=0.02, epochs=20, batch_size=16, seed=3)
        seen = record_batch_losses(monkeypatch, "lstm_loss_grad")
        params, trace = nn.lstm_train((S, y), cfg, hidden_size=4)
        n_train = 40 - max(1, round(0.2 * 40))
        assert trace.train == [kwh_rmse(params, m) for m in epoch_means(seen, n_train, cfg.batch_size)]
        z = params.target_scaler.transform(y)
        va = nn.lstm_loss_grad(params, S[n_train:], z[n_train:])[0]
        assert trace.val[trace.best] == kwh_rmse(params, va)

    def test_parameters_do_not_depend_on_blas_threads(self):
        # batches of 256 windows and 48 hidden units make (256, 48) @ (48, 48)
        # products, large enough for OpenBLAS to split them over threads; the
        # second line is the process's thread count, or 0 without /proc
        script = (
            "import hashlib, os, numpy as np\n"
            "from normbase import nnmodels as nn\n"
            "rng = np.random.default_rng(4)\n"
            "S = rng.normal(size=(400, 4, 6))\n"
            "y = S[:, -1, 0] + 0.1 * rng.normal(size=400)\n"
            "cfg = nn.TrainConfig(epochs=3, batch_size=256, seed=2)\n"
            "params, trace = nn.lstm_train((S, y), cfg, hidden_size=48)\n"
            "blob = b''.join(a.tobytes() for a in params.arrays())\n"
            "print(hashlib.sha256(blob).hexdigest(), trace.train, trace.val)\n"
            "status = '/proc/self/status'\n"
            "print(open(status).read().split('Threads:')[1].split()[0] if os.path.exists(status) else 0)\n"
        )
        src = str(Path(nn.__file__).resolve().parents[1])
        outputs, threads_seen = [], []
        # importing normbase pins one thread only where the variable is unset,
        # so the threaded arm names its count
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            result, seen = proc.stdout.splitlines()
            outputs.append(result)
            threads_seen.append(int(seen))
        assert outputs[0] == outputs[1]
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        if threads_seen[1] and cpus >= 2:
            assert threads_seen[1] > 1

    def test_too_few_sequences(self):
        with pytest.raises(DataError):
            nn.lstm_train((np.ones((10, 3, 2)), np.ones(10)), nn.TrainConfig())

    def test_forward_dimension_check(self):
        params = nn.lstm_init(3, 4, seed=0)
        with pytest.raises(DimensionError):
            nn.lstm_predict(params, np.ones((1, 5, 2)))
        with pytest.raises(DimensionError):
            nn.lstm_predict(params, np.ones((5, 3)))


class TestSerialization:
    def test_mlp_round_trip_bit_identical(self):
        X, y = linear_rows(40, seed=3)
        cfg = nn.TrainConfig(learning_rate=0.01, epochs=20, batch_size=8, seed=7)
        params, _ = nn.mlp_train((X, y), cfg, hidden_sizes=(5,), activation="tanh")
        doc = json.loads(json.dumps(nn.mlp_to_dict(params), allow_nan=False))
        back = nn.mlp_from_dict(doc)
        X_new = np.random.default_rng(1).uniform(0, 4, size=(10, 1))
        np.testing.assert_array_equal(nn.mlp_predict(params, X_new), nn.mlp_predict(back, X_new))

    def test_lstm_round_trip_bit_identical(self):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(35, 4, 2))
        y = S[:, -1, 0] + 5.0
        cfg = nn.TrainConfig(learning_rate=0.02, epochs=15, batch_size=16, seed=8)
        params, _ = nn.lstm_train((S, y), cfg, hidden_size=3)
        doc = json.loads(json.dumps(nn.lstm_to_dict(params), allow_nan=False))
        back = nn.lstm_from_dict(doc)
        S_new = rng.normal(size=(6, 4, 2))
        np.testing.assert_array_equal(nn.lstm_predict(params, S_new), nn.lstm_predict(back, S_new))

    @pytest.mark.parametrize("damage", ["weight_row", "bias", "layer_size", "activation"])
    def test_mlp_arrays_must_fit_layer_sizes(self, damage):
        doc = json.loads(json.dumps(nn.mlp_to_dict(nn.mlp_init([3, 4, 1], seed=0))))
        nn.mlp_from_dict(json.loads(json.dumps(doc)))
        if damage == "weight_row":
            doc["weights"][0].pop()
        elif damage == "bias":
            doc["biases"][1].append(0.0)
        elif damage == "layer_size":
            doc["layer_sizes"][1] = 5
        else:
            doc["activation"] = "sigmoid"
        with pytest.raises(ValueError, match="layer sizes|activation"):
            nn.mlp_from_dict(doc)

    @pytest.mark.parametrize("damage", ["input_size", "hidden_size", "gate_count", "b_out"])
    def test_lstm_arrays_must_fit_sizes(self, damage):
        doc = json.loads(json.dumps(nn.lstm_to_dict(nn.lstm_init(3, 2, seed=0))))
        nn.lstm_from_dict(json.loads(json.dumps(doc)))
        if damage in ("input_size", "hidden_size"):
            doc[damage] += 1
        elif damage == "gate_count":
            doc["U"].pop()
        else:
            doc["b_out"].append(0.0)
        with pytest.raises(ValueError, match="hidden size"):
            nn.lstm_from_dict(doc)

    @pytest.mark.parametrize("damage", ["three_gates", "ragged_gate"])
    def test_lstm_gates_must_be_four_of_one_shape(self, damage):
        doc = json.loads(json.dumps(nn.lstm_to_dict(nn.lstm_init(3, 2, seed=0))))
        if damage == "three_gates":
            doc["W"].pop()
        else:
            doc["W"][2][0].pop()
        with pytest.raises(ValueError):
            nn.lstm_from_dict(doc)

    def test_lstm_saves_each_gate_as_its_own_nested_list(self):
        # the document that W, U and b written as lists of four per-gate
        # arrays gave, built one gate at a time by lstm_init's recipe
        rng = np.random.default_rng(5)

        def glorot(fan_in, fan_out, shape):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, size=shape).tolist()

        doc = {
            "input_size": 3,
            "hidden_size": 2,
            "W": [glorot(3, 2, (3, 2)) for _ in range(4)],
            "U": [glorot(2, 2, (2, 2)) for _ in range(4)],
            "b": [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            "w_out": glorot(2, 1, (2,)),
            "b_out": [0.0],
            "target_scaler": {"mean": 4.5, "std": 2.0},
        }
        params = nn.lstm_init(3, 2, seed=5)
        params.target_scaler = TargetScaler(mean=4.5, std=2.0)
        for sort_keys in (False, True):
            got = json.dumps(nn.lstm_to_dict(params), sort_keys=sort_keys)
            assert got == json.dumps(doc, sort_keys=sort_keys)

    def test_lstm_file_of_per_gate_lists_predicts_the_same_bits(self):
        # a fitted model saved while W, U and b were lists of four per-gate
        # arrays, with windows and the predictions that version made for them
        saved = json.loads((DATA / "lstm_per_gate_lists.json").read_text())
        params = nn.lstm_from_dict(saved["payload"])
        got = nn.lstm_predict(params, np.array(saved["windows"]))
        assert got.tobytes() == np.array(saved["predictions"]).tobytes()
        assert nn.lstm_to_dict(params) == saved["payload"]

    def test_scaler_rides_along(self):
        X, y = linear_rows(40, seed=3)
        cfg = nn.TrainConfig(epochs=5, seed=0)
        params, _ = nn.mlp_train((X, y), cfg, hidden_sizes=(4,))
        back = nn.mlp_from_dict(nn.mlp_to_dict(params))
        assert back.target_scaler.mean == params.target_scaler.mean
        assert back.target_scaler.std == params.target_scaler.std
