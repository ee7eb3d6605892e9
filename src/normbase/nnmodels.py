"""Feed-forward and recurrent baselines with analytic gradients.

Both models are trained by one loop, ``_fit``: mini-batch MSE,
moment-estimation updates (beta1 = 0.9, beta2 = 0.999) with bias correction,
global-norm clipping of the moment-normalized update, chronological-tail
validation and best-validation early stopping. At the start of a fit the
parameters are copied into one flat vector and each params field is rebound
to a view of it (``set_arrays``); the moments, the update and one scratch
vector share its layout, so a step is a fixed sequence of whole-vector
operations writing in place, one subtraction updates every parameter and
the best-validation snapshot is one copy. Only the mini-batches are
backpropagated; an epoch's training loss is the row-weighted mean of its
mini-batch losses, and only the validation split gets a forward pass.
Targets are z-scored internally with a dedicated scaler fitted on the
training split; predictions come back in original units, and so does the
returned metrics.FitTrace, whose curves are per-epoch RMSEs in kWh.
A non-finite epoch loss is the one sign of divergence; see ``_fit``.

Gradients are derived by hand (full backpropagation through time for the
recurrent model) and are verified against central finite differences in the
test suite; keep any change here in sync with those checks.

``LstmParams`` stores the four gates stacked on a leading axis: per step one
(4, B, H) pre-activation from (4, F, H) and (4, H, H) weights, one sigmoid
over the input/forget/output slab and one (4, B, H) gradient slab. A
stacked product makes the same per-gate BLAS calls as four separate
products, so it rounds the same; a fused (F, 4H) product would not (the
BLAS tiles the wider matrix differently), and neither would one
(B, 4H) @ (4H, H) product for the hidden-state gradient.
``tests/test_lstm_differential.py`` keeps the per-gate kernel as the oracle
and checks every bit. Scoring and prediction run in blocks of _SCORE_ROWS
windows (see _lstm_output). Saved, a stacked array is the nested lists of
its four gates, the format that the earlier per-gate lists wrote.

Everything is deterministic given (seed, data, config). Results do not
depend on available parallelism. Importing normbase runs OpenBLAS on one
thread unless OPENBLAS_NUM_THREADS is set, since the fits already run in
worker processes; the test suite trains the same model with one BLAS thread
and with two and compares the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional, get_args

import numpy as np

from .errors import ConfigError, DataError, DimensionError, TrainingDivergedError
from .features import TargetScaler
from .metrics import FitTrace
from .savefile import check_fields, from_json, to_json

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MlpActivation = Literal["relu", "tanh"]
MLP_ACTIVATIONS = get_args(MlpActivation)
# Windows per block when the recurrent model scores or predicts. Keep it a
# multiple of 4: OpenBLAS's matrix-vector kernel sums the rows of a block in
# groups of four from its first row, so blocks on that grid round the
# readout as one batch would.
_SCORE_ROWS = 64


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the shared training loop."""

    learning_rate: float = field(default=0.01, metadata={"exclusiveMinimum": 0})
    epochs: int = field(default=500, metadata={"minimum": 1})
    batch_size: int = field(default=32, metadata={"minimum": 1})
    seed: int = field(default=0, metadata={"minimum": 0})
    early_stop_patience: int = field(default=50, metadata={"minimum": 1})
    validation_fraction: float = field(default=0.2, metadata={"exclusiveMinimum": 0, "maximum": 0.5})
    gradient_clip_norm: float = field(default=1000.0, metadata={"exclusiveMinimum": 0})

    __post_init__ = check_fields


def _glorot(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp only ever sees -|x|, so it cannot overflow.

    min(x, -x) equals -|x| but passes a NaN through unchanged, sign bit
    included, so NaN inputs give the bits the masked form gave. As e <= 1,
    max(e, x >= 0) is the numerator: 1 where x >= 0, e elsewhere.
    """
    e = np.exp(np.minimum(x, -x))
    d = e + 1.0
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, d, out=e)


def _mse(resid) -> float:
    """Mean of resid * resid: np.mean's own reduce and divide, without its wrapper."""
    return float(np.add.reduce(resid * resid)) / resid.size


def _views(flat, arrays) -> list:
    """Views of the vector ``flat`` shaped like ``arrays``, laid end to end."""
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    return [p.reshape(a.shape) for p, a in zip(parts, arrays)]


def _fit(params, loss_grad, forward, data, cfg: TrainConfig):
    """Shared training loop; rebinds the arrays of ``params`` to views of one vector.

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
    moment ratio; its global L2 norm, one sum of squares over the flat
    update vector (see the module docstring), is clipped at
    cfg.gradient_clip_norm before the learning-rate multiply, so one step
    never moves parameters further than learning_rate * gradient_clip_norm.
    Each epoch's training loss is sum(loss_b * |b|) / n_train over its
    mini-batches b, the losses loss_grad returned before each update
    (Keras's convention); its validation loss is the MSE of a forward pass
    over the validation split at the epoch's end, and only that split is
    scored. An epoch where either loss is not finite raises
    TrainingDivergedError; the epoch loop runs under one
    np.errstate(over="ignore", invalid="ignore"), so an overflow on the way
    warns of nothing. Early stopping and the snapshot compare the z-scored
    validation loss; the FitTrace records sqrt(loss) * effective_std of
    both, RMSEs in target units.

    Returns:
        (params at the best-validation epoch, FitTrace).
    """
    X, y = data
    n_train = y.size - max(1, int(round(cfg.validation_fraction * y.size)))
    scaler = TargetScaler(mean=float(y[:n_train].mean()), std=float(y[:n_train].std()))
    params.target_scaler = scaler
    z = scaler.transform(y)
    X_val, z_val = X[n_train:], z[n_train:]

    arrays = params.arrays()
    theta = np.concatenate(arrays, axis=None)
    params.set_arrays(_views(theta, arrays))
    g, m, v, u, s = np.zeros((5, theta.size))
    t = 0
    rng = np.random.default_rng(cfg.seed + 1)
    trace = FitTrace()
    best_val = np.inf
    best = theta.copy()

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_train)
            loss_sum = 0.0
            for start in range(0, n_train, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, grads = loss_grad(params, X[idx], z[idx])
                loss_sum += loss * idx.size
                t += 1
                np.concatenate(grads, axis=None, out=g)
                # the operations of the whole-array expressions, in their order,
                # with each temporary written to s
                m *= ADAM_BETA1
                m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
                v *= ADAM_BETA2
                np.multiply(g, 1.0 - ADAM_BETA2, out=s)
                s *= g
                v += s
                np.divide(m, 1.0 - ADAM_BETA1**t, out=u)
                np.divide(v, 1.0 - ADAM_BETA2**t, out=s)
                np.sqrt(s, out=s)
                s += ADAM_EPS
                u /= s
                np.multiply(u, u, out=s)
                norm = math.sqrt(np.add.reduce(s))
                if norm > cfg.gradient_clip_norm:
                    u *= cfg.gradient_clip_norm / norm
                u *= cfg.learning_rate
                theta -= u

            train_loss = loss_sum / n_train
            val_loss = _mse(forward(params, X_val) - z_val)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            trace.train.append(math.sqrt(train_loss) * scaler.effective_std)
            trace.val.append(math.sqrt(val_loss) * scaler.effective_std)
            if val_loss < best_val:
                best_val = val_loss
                trace.best = epoch
                best = theta.copy()
            elif epoch - trace.best >= cfg.early_stop_patience:
                break

    theta[...] = best
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
    activation: MlpActivation
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    target_scaler: Optional[TargetScaler]

    __post_init__ = check_fields  # the forward pass would read another activation as tanh

    def arrays(self):
        return list(self.weights) + list(self.biases)

    def set_arrays(self, arrays):
        """Inverse of arrays(): bind each field to its array."""
        k = len(self.weights)
        self.weights, self.biases = list(arrays[:k]), list(arrays[k:])


def mlp_init(layer_sizes, activation: str = "relu", seed: int = 0) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ConfigError("layer_sizes needs at least input and output sizes")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(_glorot(rng, fan_in, fan_out, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(list(layer_sizes), activation, weights, biases, target_scaler=None)


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
    loss = _mse(resid)

    delta = (2.0 * resid / n)[:, None]  # d loss / d output
    dW = [None] * len(params.weights)
    db = [None] * len(params.biases)
    for l in range(len(params.weights) - 1, -1, -1):
        dW[l] = acts[l].T @ delta
        db[l] = np.add.reduce(delta, axis=0)
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
        (MlpParams at the best-validation epoch, FitTrace).

    Raises:
        DataError: fewer than 30 rows.
    """
    X, y = (np.asarray(a, dtype=float) for a in data)
    if y.size < 30:
        raise DataError(f"mlp_train needs at least 30 rows, got {y.size}")
    params = mlp_init([X.shape[1], *hidden_sizes, 1], activation, seed=cfg.seed)
    return _fit(params, mlp_loss_grad, _mlp_output, (X, y), cfg)


def mlp_predict(params: MlpParams, X) -> np.ndarray:
    """Predictions in original target units for (n, features) rows.

    A row's last bit can depend on where it sits in the batch, so scoring a
    sub-range can differ by an ulp from scoring it inside a longer one.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.layer_sizes[0]:
        raise DimensionError(f"expected (n, {params.layer_sizes[0]}) rows, got {X.shape}")
    out = _mlp_output(params, X)
    if params.target_scaler is not None:
        out = params.target_scaler.inverse(out)
    return out


# ---------------------------------------------------------------------------
# recurrent model


@dataclass
class LstmParams:
    """Single-layer recurrent cell with a linear readout of the last state.

    Gate order everywhere is (input, forget, output, candidate); W, U and b
    stack the four gates on their first axis and save as four nested lists,
    the format of the earlier per-gate lists. W acts on the step input, U on
    the previous hidden state. h_0 = c_0 = 0.
    """

    input_size: int
    hidden_size: int
    W: np.ndarray  # (4, input_size, hidden_size)
    U: np.ndarray  # (4, hidden_size, hidden_size)
    b: np.ndarray  # (4, hidden_size)
    w_out: np.ndarray  # (hidden_size,)
    b_out: np.ndarray  # shape (1,), kept as array for in-place updates
    target_scaler: Optional[TargetScaler]

    def arrays(self):
        return [self.W, self.U, self.b, self.w_out, self.b_out]

    def set_arrays(self, arrays):
        """Inverse of arrays(): bind each field to its array."""
        self.W, self.U, self.b, self.w_out, self.b_out = arrays


def lstm_init(input_size: int, hidden_size: int, seed: int = 0) -> LstmParams:
    """Glorot-uniform weights, forget-gate bias 1, other biases 0."""
    if input_size < 1 or hidden_size < 1:
        raise ConfigError("input_size and hidden_size must be positive")
    rng = np.random.default_rng(seed)
    W = _glorot(rng, input_size, hidden_size, (4, input_size, hidden_size))
    U = _glorot(rng, hidden_size, hidden_size, (4, hidden_size, hidden_size))
    b = np.zeros((4, hidden_size))
    b[1] = 1.0  # forget gate starts open
    w_out = _glorot(rng, hidden_size, 1, (hidden_size,))
    return LstmParams(input_size, hidden_size, W, U, b, w_out, np.zeros(1), target_scaler=None)


def _lstm_forward_batch(params: LstmParams, S, keep_steps: bool = True):
    """Run the cell over (batch, steps, features).

    Gates are stacked on a leading axis (see the module docstring). With
    keep_steps, caches the per-step tensors that backpropagation needs;
    scoring skips them.
    """
    S = np.asarray(S, dtype=float)
    B, L, F = S.shape
    H = params.hidden_size
    W, U, b = params.W, params.U, params.b[:, None, :]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = []
    for t in range(L):
        x = S[:, t, :]
        z = x @ W
        z += h @ U
        z += b
        ifo = _sigmoid(z[:3])
        g = np.tanh(z[3])
        i, f, o = ifo
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        if keep_steps:
            steps.append((x, ifo, g, c_prev, tc, h_prev))
    out = h @ params.w_out + params.b_out[0]
    return out, h, steps


def _lstm_output(params: LstmParams, S) -> np.ndarray:
    """Readouts for a batch of (steps, features) windows (model units).

    Runs in blocks of _SCORE_ROWS windows, which keeps each product below
    the size at which OpenBLAS starts threads. A last block of one window
    would take NumPy's vector path, whose sums round differently, so it
    joins the block before it.
    """
    blocks = np.split(S, range(_SCORE_ROWS, len(S) - 1, _SCORE_ROWS))
    return np.concatenate([_lstm_forward_batch(params, blk, keep_steps=False)[0] for blk in blocks])


def lstm_loss_grad(params: LstmParams, S, y):
    """MSE loss and full backpropagation-through-time gradients.

    Gradient list is aligned with params.arrays(): W, U, b (gate-stacked),
    w_out, b_out.
    """
    S = np.asarray(S, dtype=float)
    y = np.asarray(y, dtype=float)
    out, h_last, steps = _lstm_forward_batch(params, S)
    resid = out - y
    n = y.size
    loss = _mse(resid)

    H = params.hidden_size
    B = S.shape[0]
    d_out = 2.0 * resid / n  # (B,)
    dW = np.zeros((4, params.input_size, H))
    dU = np.zeros((4, H, H))
    db = np.zeros((4, H))
    dw_out = h_last.T @ d_out
    db_out = np.add.reduce(d_out, keepdims=True)
    UT = params.U.transpose(0, 2, 1)

    dh = d_out[:, None] * params.w_out[None, :]  # (B, H)
    dc = np.zeros((B, H))
    da = np.empty((4, B, H))  # gate pre-activation gradients
    for x, ifo, g, c_prev, tc, h_prev in reversed(steps):
        i, f, o = ifo
        dc += dh * o * (1.0 - tc**2)
        da[0] = dc * g
        da[1] = dc * c_prev
        da[2] = dh * tc
        da[:3] *= ifo
        da[:3] *= 1.0 - ifo
        da[3] = dc * i * (1.0 - g**2)
        dW += x.T @ da
        dU += h_prev.T @ da
        db += np.add.reduce(da, axis=1)
        # summed from zero in gate order, as the gradients of four separate
        # products were; one (B, 4H) @ (4H, H) product rounds differently
        dh = np.add.reduce(da @ UT, axis=0, initial=0.0)
        dc *= f

    return loss, [dW, dU, db, dw_out, db_out]


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
    """Predictions in original target units for (n, L, F) windows.

    A window's last bit can depend on where it sits in the batch, so scoring
    a sub-range can differ by an ulp from scoring it inside a longer one.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 3 or S.shape[2] != params.input_size:
        raise DimensionError(f"expected (n, L, {params.input_size}) windows, got {S.shape}")
    out = _lstm_output(params, S)
    if params.target_scaler is not None:
        out = params.target_scaler.inverse(out)
    return out


# ---------------------------------------------------------------------------
# serialization (traced by name in perfbench, so kept as module functions)


def mlp_to_dict(params: MlpParams) -> dict:
    return to_json(params)


def mlp_from_dict(doc: dict) -> MlpParams:
    """Inverse of mlp_to_dict; ValueError on an array that does not fit layer_sizes
    or an unknown activation."""
    params = from_json(MlpParams, doc)
    sizes = params.layer_sizes
    fit = list(zip(sizes, sizes[1:])) + [(s,) for s in sizes[1:]]
    if len(sizes) < 2 or [a.shape for a in params.arrays()] != fit:
        raise ValueError(f"MLP weights and biases do not fit layer sizes {sizes}")
    return params


def lstm_to_dict(params: LstmParams) -> dict:
    return to_json(params)


def lstm_from_dict(doc: dict) -> LstmParams:
    """Inverse of lstm_to_dict; ValueError if an array does not fit the sizes."""
    params = from_json(LstmParams, doc)
    n_in, n_hid = params.input_size, params.hidden_size
    fit = [(4, n_in, n_hid), (4, n_hid, n_hid), (4, n_hid), (n_hid,), (1,)]
    if [a.shape for a in params.arrays()] != fit:
        raise ValueError(f"LSTM arrays do not fit input size {n_in} and hidden size {n_hid}")
    return params
