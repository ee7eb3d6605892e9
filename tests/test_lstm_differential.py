"""nnmodels' recurrent kernel against the per-gate kernel it replaced.

``_sigmoid``, ``_lstm_forward_batch`` and ``lstm_loss_grad`` below are the
earlier functions, kept verbatim as the oracle: a boolean-mask sigmoid and
four separate gate products per step, forward and backward. For every drawn
problem the gate-stacked kernel must give the same loss, the same 14
gradients and the same readouts, compared as raw bytes, so every bit
agrees, the sign of zero included. Batches run up to 130 windows, which
crosses the block size that ``_lstm_output`` scores in; the oracle scores
the whole batch at once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normbase import nnmodels as nn
from normbase.nnmodels import LstmParams, lstm_init

# -- oracle: the per-gate kernel, unchanged ----------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


# -- drawn problems ----------------------------------------------------------


@st.composite
def problems(draw):
    """Parameters, windows and targets of one mini-batch.

    A drawn scale pushes some problems into saturated gates, where 1 - i and
    1 - g**2 round to zero; integer-grid inputs and zeroed readout weights
    make exact zeros, whose sign the comparison also checks.
    """
    B, L = draw(st.integers(1, 130)), draw(st.integers(1, 8))
    F, H = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
    params = lstm_init(F, H, seed=int(rng.integers(1000)))
    for a in params.arrays():
        a[...] = scale * rng.normal(size=a.shape)
    if draw(st.booleans()):
        params.w_out[rng.random(H) < 0.3] = 0.0
    if draw(st.booleans()):
        S = rng.integers(-2, 3, size=(B, L, F)).astype(float)
    else:
        S = rng.normal(size=(B, L, F))
    y = rng.normal(size=B)
    return params, S, y


def _bits(a):
    return np.asarray(a).tobytes()


@settings(deadline=None, max_examples=300)
@given(problems())
def test_loss_and_gradients_match_per_gate_kernel(problem):
    params, S, y = problem
    loss, (dW, dU, db, dw_out, db_out) = nn.lstm_loss_grad(params, S, y)
    grads = [*dW, *dU, *db, dw_out, db_out]
    want_loss, want_grads = lstm_loss_grad(params, S, y)
    assert _bits(loss) == _bits(want_loss)
    assert len(grads) == len(want_grads) == 14
    for k, (g, w) in enumerate(zip(grads, want_grads)):
        assert g.shape == w.shape, k
        assert _bits(g) == _bits(w), k


@settings(deadline=None, max_examples=300)
@given(problems())
def test_blockwise_scoring_matches_one_batch(problem):
    params, S, _ = problem
    got = nn._lstm_output(params, S)
    assert _bits(got) == _bits(_lstm_forward_batch(params, S, keep_steps=False)[0])


@pytest.mark.parametrize("B", [1, 2, 9, 32, 130])
@pytest.mark.parametrize("F, H", [(1, 1), (14, 1), (14, 2), (3, 3), (14, 32)])
def test_gradients_at_narrow_widths(B, F, H):
    # NumPy sums a single column pairwise and several columns row by row, so
    # H = 1 checks that each gate's bias gradient is still summed on its own
    rng = np.random.default_rng(B * H)
    params = lstm_init(F, H, seed=F)
    S, y = rng.normal(size=(B, 5, F)), rng.normal(size=B)
    loss, (dW, dU, db, dw_out, db_out) = nn.lstm_loss_grad(params, S, y)
    grads = [*dW, *dU, *db, dw_out, db_out]
    want_loss, want_grads = lstm_loss_grad(params, S, y)
    assert _bits(loss) == _bits(want_loss)
    assert [_bits(g) for g in grads] == [_bits(w) for w in want_grads]


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 66, 128, 129, 130, 193])
@pytest.mark.parametrize("H", [1, 3, 32])
def test_block_edges(n, H):
    # 65, 129 and 193 leave one window after the last full block
    rng = np.random.default_rng(n)
    params = lstm_init(14, H, seed=H)
    S = rng.normal(size=(n, 7, 14))
    got = nn._lstm_output(params, S)
    assert got.shape == (n,)
    assert _bits(got) == _bits(_lstm_forward_batch(params, S, keep_steps=False)[0])


def test_sigmoid_bits_on_edge_values():
    tiny = np.finfo(float).tiny
    payload_nan = np.frombuffer(bytes.fromhex("010000000000f87f"), dtype=float)[0]
    edges = [0.0, 709.0, 745.0, 746.0, np.inf, np.nan, payload_nan,
             5e-324, tiny / 2, tiny, 1e-300, 36.7, 37.0]
    x = np.array(edges + [-v for v in edges])
    got = nn._sigmoid(x)
    assert [_bits(v) for v in got] == [_bits(v) for v in _sigmoid(x)]
    # the two zeros map to one half; -745 to the smallest subnormal
    assert got[0] == got[len(edges)] == 0.5
    assert got[len(edges) + 2] == 5e-324
