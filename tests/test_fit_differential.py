"""nnmodels' training loop against the array-by-array loop it replaced.

``_fit`` and ``_global_norm`` below are the earlier functions, kept as the
oracle: they update the moments of each parameter array on its own and sum
the update norm array by array. The one edit since is how the oracle records
``train_loss``: the row-weighted mean of the epoch's mini-batch losses, in
place of a forward pass over the training split. The oracle trains the
recurrent model on the 14 per-gate views of its gate-stacked arrays, as the
per-gate parameter lists were; the current loop updates flat moment vectors
and sums one partial norm per gate. For every drawn problem both must end with
the same parameters and the same per-epoch losses and best epoch, compared
as raw bytes, so every bit agrees. The oracle records z-scored MSEs in its
own TrainTrace; the current loop records sqrt(loss) * effective_std of each
in a FitTrace, and the comparison converts the oracle's the same way.

The draws cover a clip norm that fires (0.05) and one that never does
(1000), and patiences short enough that early stopping and the
best-validation restore run.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normbase import nnmodels as nn
from normbase.errors import TrainingDivergedError
from normbase.features import TargetScaler
from normbase.nnmodels import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LstmParams, TrainConfig

# -- oracle: the array-by-array loop, unchanged -------------------------------


@dataclass
class TrainTrace:
    """The oracle's per-epoch loss record (z-scored target space)."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1


def _global_norm(arrays) -> float:
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))


def _fit(params, loss_grad, forward, data, cfg: TrainConfig):
    """Shared training loop; updates the arrays of ``params`` in place.

    Args:
        params: MlpParams or LstmParams at their initial values.
        loss_grad: callable(params, inputs, z) -> (loss, grads aligned with
            params.arrays()).
        forward: callable(params, inputs) -> network outputs (model units).
        data: (inputs, targets) arrays in chronological order.
        cfg: loop configuration.

    The last validation_fraction of rows (at least one) is the validation
    split. Targets are z-scored on the training split and the scaler rides
    on the returned params. The update direction is the bias-corrected
    moment ratio; its global L2 norm is clipped at cfg.gradient_clip_norm
    before the learning-rate multiply, so one step never moves parameters
    further than learning_rate * gradient_clip_norm. Each epoch's training
    loss is the row-weighted mean of its mini-batch losses; its validation
    loss is the MSE of a forward pass over the validation split.

    Returns:
        (params at the best-validation epoch, TrainTrace).
    """
    X, y = data
    n_train = y.size - max(1, int(round(cfg.validation_fraction * y.size)))
    scaler = TargetScaler(mean=float(y[:n_train].mean()), std=float(y[:n_train].std()))
    params.target_scaler = scaler
    z = scaler.transform(y)

    arrays = params.arrays()
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    t = 0
    rng = np.random.default_rng(cfg.seed + 1)
    trace = TrainTrace()
    best_val = np.inf
    best_state = [a.copy() for a in arrays]

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_grad(params, X[idx], z[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            loss_sum += loss * idx.size
            t += 1
            updates = []
            for k, g in enumerate(grads):
                m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
                v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * g * g
                m_hat = m[k] / (1.0 - ADAM_BETA1**t)
                v_hat = v[k] / (1.0 - ADAM_BETA2**t)
                updates.append(m_hat / (np.sqrt(v_hat) + ADAM_EPS))
            norm = _global_norm(updates)
            if norm > cfg.gradient_clip_norm:
                scale = cfg.gradient_clip_norm / norm
                updates = [u * scale for u in updates]
            for a, u in zip(arrays, updates):
                a -= cfg.learning_rate * u

        train_loss = loss_sum / n_train
        val_loss = float(np.mean((forward(params, X[n_train:]) - z[n_train:]) ** 2))
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        trace.train_loss.append(train_loss)
        trace.val_loss.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            trace.best_epoch = epoch
            best_state = [a.copy() for a in arrays]
        elif epoch - trace.best_epoch >= cfg.early_stop_patience:
            break

    for a, b in zip(arrays, best_state):
        a[...] = b
    return params, trace


# -- the recurrent model as the oracle saw it: 14 per-gate arrays --------------


class PerGateLstm(LstmParams):
    def arrays(self):
        return [*self.W, *self.U, *self.b, self.w_out, self.b_out]


def _per_gate_loss_grad(params, S, y):
    loss, (dW, dU, db, dw_out, db_out) = nn.lstm_loss_grad(params, S, y)
    return loss, [*dW, *dU, *db, dw_out, db_out]


# -- drawn problems ----------------------------------------------------------


@st.composite
def loop_configs(draw):
    return TrainConfig(
        learning_rate=draw(st.sampled_from([0.001, 0.01, 0.3])),
        epochs=draw(st.integers(1, 12)),
        batch_size=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**16)),
        early_stop_patience=draw(st.sampled_from([1, 2, 50])),
        validation_fraction=draw(st.sampled_from([0.1, 0.2, 0.5])),
        gradient_clip_norm=draw(st.sampled_from([0.05, 1000.0])),
    )


def _targets(rng, first):
    return 3.0 * first + rng.normal(size=first.shape) + 10.0


def _bits(a):
    return np.asarray(a).tobytes()


def _assert_same(got, want):
    (params, trace), (want_params, want_trace) = got, want
    # the oracle's params are read through the current class's arrays()
    for a, w in zip(params.arrays(), type(params).arrays(want_params), strict=True):
        assert a.shape == w.shape
        assert _bits(a) == _bits(w)
    std = want_params.target_scaler.effective_std
    assert _bits(trace.train) == _bits([math.sqrt(x) * std for x in want_trace.train_loss])
    assert _bits(trace.val) == _bits([math.sqrt(x) * std for x in want_trace.val_loss])
    assert trace.best == want_trace.best_epoch
    assert params.target_scaler == want_params.target_scaler


def _lstm_both(S, y, cfg, H):
    got = nn.lstm_train((S, y), cfg, hidden_size=H)
    start = nn.lstm_init(S.shape[2], H, seed=cfg.seed)
    want = _fit(PerGateLstm(**vars(start)), _per_gate_loss_grad, nn._lstm_output, (S, y), cfg)
    return got, want


def _mlp_both(X, y, cfg, hidden, activation):
    got = nn.mlp_train((X, y), cfg, hidden_sizes=hidden, activation=activation)
    start = nn.mlp_init([X.shape[1], *hidden, 1], activation, seed=cfg.seed)
    want = _fit(start, nn.mlp_loss_grad, nn._mlp_output, (X, y), cfg)
    return got, want


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(30, 90), L=st.integers(1, 5), F=st.integers(1, 6), H=st.integers(1, 9),
    data_seed=st.integers(0, 2**32 - 1), cfg=loop_configs(),
)
def test_lstm_fit_matches_array_by_array_loop(n, L, F, H, data_seed, cfg):
    rng = np.random.default_rng(data_seed)
    S = rng.normal(size=(n, L, F))
    _assert_same(*_lstm_both(S, _targets(rng, S[:, -1, 0]), cfg, H))


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(30, 120), F=st.integers(1, 8),
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=2),
    activation=st.sampled_from(nn.MLP_ACTIVATIONS),
    data_seed=st.integers(0, 2**32 - 1), cfg=loop_configs(),
)
def test_mlp_fit_matches_array_by_array_loop(n, F, hidden, activation, data_seed, cfg):
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(n, F))
    _assert_same(*_mlp_both(X, _targets(rng, X[:, 0]), cfg, tuple(hidden), activation))


@pytest.mark.parametrize("clip, learning_rate", [(0.05, 3.0), (1.0, 0.3), (1000.0, 0.3)])
def test_bench_shaped_fits_stop_early_and_match(clip, learning_rate):
    # learning rates this large make the validation loss climb, so the loop
    # stops early and restores an earlier snapshot
    rng = np.random.default_rng(7)
    S = rng.normal(size=(120, 7, 14))
    y = _targets(rng, S[:, -1, 0])
    cfg = TrainConfig(learning_rate=learning_rate, epochs=30, early_stop_patience=3,
                      gradient_clip_norm=clip, seed=4)
    got, want = _lstm_both(S, y, cfg, 32)
    assert len(got[1].train) < cfg.epochs and got[1].best < len(got[1].train) - 1
    _assert_same(got, want)
    X = S[:, -1, :]
    got, want = _mlp_both(X, y, cfg, (32, 16), "relu")
    assert len(got[1].train) < cfg.epochs and got[1].best < len(got[1].train) - 1
    _assert_same(got, want)
