"""Feed-forward and recurrent baselines with analytic gradients.

Both models are trained by one loop, ``_fit``: mini-batch MSE,
moment-estimation updates (beta1 = 0.9, beta2 = 0.999) with bias correction,
global-norm clipping of the moment-normalized update, chronological-tail
validation and best-validation early stopping. Only the mini-batches are
backpropagated; each epoch is scored with a forward pass over the train and
validation splits. Targets are z-scored internally with a dedicated scaler
fitted on the training split; predictions come back in original units.

Gradients are derived by hand (full backpropagation through time for the
recurrent model) and are verified against central finite differences in the
test suite; keep any change here in sync with those checks.

Everything is deterministic given (seed, data, config) and single-threaded,
so results never depend on available parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DimensionError, TrainingDivergedError
from .features import TargetScaler
from .savefile import from_json, to_json

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the shared training loop."""

    learning_rate: float = 0.01
    epochs: int = 500
    batch_size: int = 32
    seed: int = 0
    early_stop_patience: int = 50
    validation_fraction: float = 0.2
    gradient_clip_norm: float = 1000.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1 or self.early_stop_patience < 1:
            raise ConfigError("epochs, batch_size and patience must be positive")
        if not (0.0 < self.validation_fraction <= 0.5):
            raise ConfigError("validation_fraction must lie in (0, 0.5]")
        if self.gradient_clip_norm <= 0:
            raise ConfigError("gradient_clip_norm must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class TrainTrace:
    """Per-epoch loss record (z-scored target space)."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


def _glorot(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    further than learning_rate * gradient_clip_norm. Each epoch's train and
    validation losses are the MSE of a forward pass over each split.

    Returns:
        (params at the best-validation epoch, TrainTrace).
    """
    X, y = data
    n_train = y.size - max(1, int(round(cfg.validation_fraction * y.size)))
    scaler = TargetScaler(mean=float(y[:n_train].mean()), std=float(y[:n_train].std()))
    params.target_scaler = scaler
    z = scaler.transform(y)
    splits = (slice(None, n_train), slice(n_train, None))

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
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_grad(params, X[idx], z[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
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

        train_loss, val_loss = (
            float(np.mean((forward(params, X[rows]) - z[rows]) ** 2)) for rows in splits
        )
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


# ---------------------------------------------------------------------------
# multilayer perceptron


@dataclass
class MlpParams:
    """Fully connected net: linear output, hidden activation per ``activation``.

    weights[l] has shape (layer_sizes[l], layer_sizes[l+1]). ``target_scaler``
    maps network outputs back to original target units.
    """

    layer_sizes: list[int]
    activation: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    target_scaler: Optional[TargetScaler] = None

    def arrays(self):
        return list(self.weights) + list(self.biases)


def mlp_init(layer_sizes, activation: str = "relu", seed: int = 0) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    if activation not in ("relu", "tanh"):
        raise ConfigError(f"unknown activation {activation!r}")
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ConfigError("layer_sizes needs at least input and output sizes")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(_glorot(rng, fan_in, fan_out, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(list(layer_sizes), activation, weights, biases)


def _mlp_forward_batch(params: MlpParams, X):
    """Forward pass keeping per-layer activations for backprop."""
    acts = [np.asarray(X, dtype=float)]
    last = len(params.weights) - 1
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ W + b
        if l < last:
            z = np.maximum(z, 0.0) if params.activation == "relu" else np.tanh(z)
        acts.append(z)
    return acts


def _mlp_output(params: MlpParams, X) -> np.ndarray:
    """Network outputs for a batch of feature rows (model units)."""
    return _mlp_forward_batch(params, X)[-1][:, 0]


def mlp_forward(params: MlpParams, x) -> float:
    """Network output for a single feature vector (model units)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != params.layer_sizes[0]:
        raise DimensionError(f"expected {params.layer_sizes[0]} inputs, got {x.shape}")
    return float(_mlp_output(params, x[None, :])[0])


def mlp_loss_grad(params: MlpParams, X, y):
    """Mean-squared-error loss and its gradient w.r.t. every parameter.

    Operates in model units (no target scaling). Gradient list is aligned
    with params.arrays(): weights first, then biases.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    acts = _mlp_forward_batch(params, X)
    out = acts[-1][:, 0]
    resid = out - y
    n = y.size
    loss = float(np.mean(resid**2))

    delta = (2.0 * resid / n)[:, None]  # d loss / d output
    dW = [None] * len(params.weights)
    db = [None] * len(params.biases)
    for l in range(len(params.weights) - 1, -1, -1):
        dW[l] = acts[l].T @ delta
        db[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ params.weights[l].T
            if params.activation == "relu":
                delta = delta * (acts[l] > 0)
            else:
                delta = delta * (1.0 - acts[l] ** 2)
    return loss, dW + db


def mlp_train(data, cfg: TrainConfig, hidden_sizes=(32,), activation: str = "relu"):
    """Fit an MLP regressor on an (X, y) pair of chronologically ordered rows.

    The validation split is the chronological tail. Targets are z-scored on
    the training split; the fitted scaler rides on the returned params so
    mlp_predict reports original units.

    Returns:
        (MlpParams at the best-validation epoch, TrainTrace).

    Raises:
        DataError: fewer than 30 rows.
    """
    X, y = (np.asarray(a, dtype=float) for a in data)
    if y.size < 30:
        raise DataError(f"mlp_train needs at least 30 rows, got {y.size}")
    params = mlp_init([X.shape[1], *hidden_sizes, 1], activation, seed=cfg.seed)
    return _fit(params, mlp_loss_grad, _mlp_output, (X, y), cfg)


def mlp_predict(params: MlpParams, X) -> np.ndarray:
    """Predictions in original target units."""
    out = _mlp_output(params, np.asarray(X, dtype=float))
    if params.target_scaler is not None:
        out = params.target_scaler.inverse(out)
    return out


# ---------------------------------------------------------------------------
# recurrent model


@dataclass
class LstmParams:
    """Single-layer recurrent cell with a linear readout of the last state.

    Gate order everywhere is (input, forget, output, candidate). W_* act on
    the step input, U_* on the previous hidden state. h_0 = c_0 = 0.
    """

    input_size: int
    hidden_size: int
    W: list[np.ndarray]  # 4 arrays (input_size, hidden_size)
    U: list[np.ndarray]  # 4 arrays (hidden_size, hidden_size)
    b: list[np.ndarray]  # 4 arrays (hidden_size,)
    w_out: np.ndarray  # (hidden_size,)
    b_out: np.ndarray  # shape (1,), kept as array for in-place updates
    target_scaler: Optional[TargetScaler] = None

    def arrays(self):
        return [*self.W, *self.U, *self.b, self.w_out, self.b_out]


def lstm_init(input_size: int, hidden_size: int, seed: int = 0) -> LstmParams:
    """Glorot-uniform weights, forget-gate bias 1, other biases 0."""
    if input_size < 1 or hidden_size < 1:
        raise ConfigError("input_size and hidden_size must be positive")
    rng = np.random.default_rng(seed)
    W = [_glorot(rng, input_size, hidden_size, (input_size, hidden_size)) for _ in range(4)]
    U = [_glorot(rng, hidden_size, hidden_size, (hidden_size, hidden_size)) for _ in range(4)]
    b = [np.zeros(hidden_size) for _ in range(4)]
    b[1] = np.ones(hidden_size)  # forget gate starts open
    w_out = _glorot(rng, hidden_size, 1, (hidden_size,))
    return LstmParams(input_size, hidden_size, W, U, b, w_out, np.zeros(1))


def _lstm_forward_batch(params: LstmParams, S, keep_steps: bool = True):
    """Run the cell over (batch, steps, features).

    With keep_steps, caches the per-step tensors that backpropagation needs;
    prediction skips them, which keeps its memory flat in the batch size.
    """
    S = np.asarray(S, dtype=float)
    B, L, F = S.shape
    H = params.hidden_size
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = []
    for t in range(L):
        x = S[:, t, :]
        gates = [x @ params.W[k] + h @ params.U[k] + params.b[k] for k in range(4)]
        i = _sigmoid(gates[0])
        f = _sigmoid(gates[1])
        o = _sigmoid(gates[2])
        g = np.tanh(gates[3])
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        if keep_steps:
            steps.append({"x": x, "i": i, "f": f, "o": o, "g": g,
                          "c_prev": c_prev, "c": c, "tc": tc})
    out = h @ params.w_out + params.b_out[0]
    return out, h, steps


def _lstm_output(params: LstmParams, S) -> np.ndarray:
    """Readouts for a batch of (steps, features) windows (model units)."""
    return _lstm_forward_batch(params, S, keep_steps=False)[0]


def lstm_forward(params: LstmParams, seq) -> float:
    """Scalar output for one (steps, features) window (model units)."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2 or seq.shape[1] != params.input_size:
        raise DimensionError(f"expected (L, {params.input_size}) sequence, got {seq.shape}")
    return float(_lstm_output(params, seq[None])[0])


def lstm_loss_grad(params: LstmParams, S, y):
    """MSE loss and full backpropagation-through-time gradients.

    Gradient list is aligned with params.arrays():
    W (4), U (4), b (4), w_out, b_out.
    """
    S = np.asarray(S, dtype=float)
    y = np.asarray(y, dtype=float)
    out, h_last, steps = _lstm_forward_batch(params, S)
    resid = out - y
    n = y.size
    loss = float(np.mean(resid**2))

    H = params.hidden_size
    B = S.shape[0]
    d_out = 2.0 * resid / n  # (B,)
    dW = [np.zeros_like(a) for a in params.W]
    dU = [np.zeros_like(a) for a in params.U]
    db = [np.zeros_like(a) for a in params.b]
    dw_out = h_last.T @ d_out
    db_out = np.array([float(np.sum(d_out))])

    dh = d_out[:, None] * params.w_out[None, :]  # (B, H)
    dc = np.zeros((B, H))
    for t in range(len(steps) - 1, -1, -1):
        st = steps[t]
        do = dh * st["tc"]
        dc = dc + dh * st["o"] * (1.0 - st["tc"] ** 2)
        di = dc * st["g"]
        df = dc * st["c_prev"]
        dg = dc * st["i"]
        da = [
            di * st["i"] * (1.0 - st["i"]),
            df * st["f"] * (1.0 - st["f"]),
            do * st["o"] * (1.0 - st["o"]),
            dg * (1.0 - st["g"] ** 2),
        ]
        h_prev = steps[t - 1]["o"] * steps[t - 1]["tc"] if t > 0 else np.zeros((B, H))
        dh = np.zeros((B, H))
        for k in range(4):
            dW[k] += st["x"].T @ da[k]
            dU[k] += h_prev.T @ da[k]
            db[k] += da[k].sum(axis=0)
            dh += da[k] @ params.U[k].T
        dc = dc * st["f"]

    return loss, [*dW, *dU, *db, dw_out, db_out]


def lstm_train(data, cfg: TrainConfig, hidden_size: int = 32):
    """Fit the recurrent model on a (windows, targets) pair in chronological order.

    Same loop and conventions as mlp_train: tail validation split, internal
    target z-scoring, best-validation snapshot.

    Raises:
        DataError: fewer than 30 sequences.
    """
    S, y = (np.asarray(a, dtype=float) for a in data)
    if y.size < 30:
        raise DataError(f"lstm_train needs at least 30 sequences, got {y.size}")
    params = lstm_init(S.shape[2], hidden_size, seed=cfg.seed)
    return _fit(params, lstm_loss_grad, _lstm_output, (S, y), cfg)


def lstm_predict(params: LstmParams, S) -> np.ndarray:
    """Predictions in original target units for (n, L, F) windows."""
    out = _lstm_output(params, np.asarray(S, dtype=float))
    if params.target_scaler is not None:
        out = params.target_scaler.inverse(out)
    return out


# ---------------------------------------------------------------------------
# serialization (traced by name in perfbench, so kept as module functions)


def mlp_to_dict(params: MlpParams) -> dict:
    return to_json(params)


def mlp_from_dict(doc: dict) -> MlpParams:
    return from_json(MlpParams, doc)


def lstm_to_dict(params: LstmParams) -> dict:
    return to_json(params)


def lstm_from_dict(doc: dict) -> LstmParams:
    return from_json(LstmParams, doc)
