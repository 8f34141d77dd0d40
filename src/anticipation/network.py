"""Recurrent predictor with per-sequence dropout masks.

The network is a small tanh MLP encoder on per-frame features, an LSTM
core, and linear heads: a K-way regression head (remaining minutes per
instrument), a Kx3 classification head, and an optional phase head.

Dropout is realized as explicit multiplicative masks sampled once per
sequence pass and reused at every time step (one mask per connection
group: encoder input, recurrent input, recurrent hidden state).  A fixed
mask set is one posterior sample of the parameters; averaging passes over
resampled masks is how inference approximates the predictive distribution.

One scan runs the network for every caller, over two batch axes.  Its
rows are mask sets that read the same frames: ``forward`` uses one row,
MC-dropout prediction stacks T sets (``stack_masks``) and runs them as T
rows of one recurrence.  Its models are parameter sets stacked on a leading
model axis: training runs the K models of K horizons on one row, in
lockstep, since they share their initial weights, video order and masks and
differ only in their targets (and, under ``scaled_sigmoid``, the output
scale).  BPTT and Adam carry the same model axis.  MC-dropout prediction
runs the K horizons' models of one sequence as one scan too, each model on
its own T mask sets (mask arrays with a leading model axis).  Time runs in
blocks of at most ``BLOCK`` row-frames, about ``BLOCK`` x 4H gate values per
model whatever the row count, so the memory a scan needs grows with neither
the sequence length nor the number of rows beyond its outputs.  A block's
gate values are gate-major, so every elementwise step of the recurrence
works on contiguous arrays whatever the number of models.

Everything runs on float64 numpy.  Gradients are computed by hand with
backpropagation through time, truncated at window boundaries during
training (state is carried forward, gradients are not).

This module holds the model only: ``artifacts`` writes and reads its
checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional, Sequence

import numpy as np

from . import labels
from .errors import NonNegative, NumericError, Positive, _at_least, check
from .workflow import ProcedureSequence

OUTPUT_MODES = ("linear_clamped", "scaled_sigmoid")
OutputMode = Annotated[str, f"one of {', '.join(OUTPUT_MODES)}", lambda v: v in OUTPUT_MODES]

# Row-frames per block of the scan: a scan over R mask sets computes the
# encoder and the LSTM input projection ``block_frames(R)`` frames at a time,
# at most BLOCK x 4H gate values per model however long or wide it is.
BLOCK = 256

Params = dict  # name -> np.ndarray, insertion-ordered


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: _at_least(1)
    instruments: _at_least(1)
    hidden: _at_least(1) = 64
    encoder: tuple[_at_least(1), ...] = (64, 64)
    phase_classes: _at_least(0) = 0
    dropout: Annotated[float, "a number in [0, 1)", lambda v: 0 <= v < 1] = 0.2
    output_mode: OutputMode = "linear_clamped"
    horizon: Positive = 3.0
    lambda_cls: NonNegative = 1e-2
    lambda_phase: Optional[NonNegative] = None
    weight_decay: NonNegative = 1e-5
    learning_rate: Positive = 1e-4
    window: _at_least(1) = 128
    accum_steps: _at_least(1) = 3
    epochs: _at_least(0) = 100
    seed: _at_least(0) = 0  # numpy seeds no generator from a negative number

    def __post_init__(self):
        check(self, type(self))

    @property
    def encoder_out(self) -> int:
        return self.encoder[-1] if self.encoder else self.input_dim

    @property
    def phase_weight(self) -> float:
        return self.lambda_cls if self.lambda_phase is None else self.lambda_phase


@dataclass(frozen=True)
class DropoutMasks:
    """Scaled keep masks, fixed for the lifetime of one sequence pass."""

    encoder_input: np.ndarray
    recurrent_input: np.ndarray
    recurrent_hidden: np.ndarray


@dataclass
class RawOutputs:
    """Per-frame head outputs before any clamping (with leading model and row
    axes where a pass ran several)."""

    regression: np.ndarray                 # (n, K) minutes
    class_logits: np.ndarray               # (n, K, 3)
    phase_logits: Optional[np.ndarray]     # (n, P) or None

    @property
    def n_frames(self) -> int:
        return self.regression.shape[-2]


def param_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each array of ``config``'s model, in checkpoint order.

    A weight matrix has one row per input (its fan-in); a bias is a vector.
    """
    h, shapes = config.hidden, {}
    widths = (config.input_dim, *config.encoder)
    for l, (fan_in, width) in enumerate(zip(widths, config.encoder)):
        shapes[f"enc{l}_W"], shapes[f"enc{l}_b"] = (fan_in, width), (width,)
    shapes.update(lstm_Wx=(config.encoder_out, 4 * h), lstm_Wh=(h, 4 * h), lstm_b=(4 * h,))
    heads = [("reg", config.instruments), ("cls", 3 * config.instruments)]
    if config.phase_classes > 0:
        heads.append(("phase", config.phase_classes))
    for name, width in heads:
        shapes[f"{name}_W"], shapes[f"{name}_b"] = (h, width), (width,)
    return shapes


def init_params(config: NetworkConfig, seed: int) -> Params:
    """Uniform fan-in initialization; forget-gate bias starts at 1."""
    rng = np.random.default_rng(seed)
    params: Params = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            limit = 1.0 / np.sqrt(shape[0])
            params[name] = rng.uniform(-limit, limit, size=shape)
        else:
            params[name] = np.zeros(shape)
    params["lstm_b"][config.hidden:2 * config.hidden] = 1.0
    return params


def sample_masks(config: NetworkConfig, seed: int) -> DropoutMasks:
    """One posterior sample: i.i.d. Bernoulli keep masks scaled by 1/(1-p)."""
    rng = np.random.default_rng(seed)
    p = config.dropout
    scale = 1.0 / (1.0 - p)

    def draw(size: int) -> np.ndarray:
        return (rng.random(size) >= p).astype(np.float64) * scale

    return DropoutMasks(
        encoder_input=draw(config.input_dim),
        recurrent_input=draw(config.encoder_out),
        recurrent_hidden=draw(config.hidden),
    )


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function as ``0.5 * (1 + tanh(x / 2))``.

    It never overflows, returns exactly 0.0 and 1.0 far in the tails and is
    within one unit in the last place of ``1 / (1 + exp(-x))`` elsewhere.
    ``out`` may be ``x`` itself (or a view of it) for an in-place update.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def stack_masks(masks: Sequence[DropoutMasks]) -> DropoutMasks:
    """R mask sets as one whose arrays have a leading axis of R rows."""
    return DropoutMasks(
        encoder_input=np.stack([m.encoder_input for m in masks]),
        recurrent_input=np.stack([m.recurrent_input for m in masks]),
        recurrent_hidden=np.stack([m.recurrent_hidden for m in masks]),
    )


def _check_dims(config: NetworkConfig, masks: DropoutMasks, features: np.ndarray,
                models: Optional[int] = None) -> None:
    """Features (n, input_dim) and masks of one set, R rows (R, dim) or, given
    ``models``, per-model rows (``models``, R, dim)."""
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise ValueError(
            f"features must be (n, {config.input_dim}), got {features.shape}"
        )
    rows = masks.recurrent_hidden.shape[:-1]
    lead_ok = len(rows) <= 1 or (len(rows) == 2 and rows[0] == models)
    if (not lead_ok
            or masks.encoder_input.shape != rows + (config.input_dim,)
            or masks.recurrent_input.shape != rows + (config.encoder_out,)
            or masks.recurrent_hidden.shape != rows + (config.hidden,)):
        raise ValueError("dropout masks do not match the network configuration")


def _stacked(params: Params) -> Params:
    """One model's parameters as a stack of one: each array gains a leading model axis."""
    return {name: value[None] for name, value in params.items()}


def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` over the last axis of ``x``, as one matrix product per model.

    ``x`` is (K or 1, ..., d), ``w`` (K, d, out) and ``b`` (K, out); a model
    axis of one in ``x`` is shared by all K models.
    """
    out = x.reshape(x.shape[0], -1, x.shape[-1]) @ w
    out += b[:, None]
    return out.reshape(out.shape[0], *x.shape[1:-1], w.shape[-1])


def block_frames(rows: int) -> int:
    """Frames per scan block of ``rows`` rows: the largest power of two <= BLOCK // rows.

    Other lengths can move outputs in the last bit on some BLAS builds, whose
    narrow head matrix products round partial kernel tiles differently."""
    return 1 << (max(BLOCK // rows, 1).bit_length() - 1)


def _scan(params, masks, features, config, state, keep=False, horizons=None):
    """The network over ``features`` for every model and every row of a stacked mask set.

    A model is one parameter set (``params`` arrays are (K, ...)), a row is
    one mask set (``masks`` arrays are (R, dim), the same R sets for every
    model, or (K, R, dim), R sets of each model's own); every model runs
    every row and all read the same frames.  Per block of
    ``block_frames(R)`` frames (at most ``BLOCK`` row-frames per model) the
    encoder and the input projection ``x @ W_x + b`` are computed at once,
    the recurrence steps through the block writing the gate values in place
    over that projection, and the heads read the block's hidden states.  A
    block's gates are gate-major, (frames, 4, K, H, R), so that at each step
    the i/f/o gates together and each gate alone are contiguous for any K;
    the state is (K, H, R), and the recurrent product ``W_h^T @ (h * m_h)``
    is (K, 4H, R), added to the gates through one transposed view.
    ``horizons`` (K,) scales the ``scaled_sigmoid`` output of each model
    (default ``config.horizon``).  Returns the outputs with leading (K, R)
    axes, the final ``(h, c)`` as (K, R, H) arrays, and with ``keep`` (one
    row only) the per-frame arrays BPTT reads: the encoder activations and
    ``xi`` model-major, (K or 1, n, width), and the gates, cells and hidden
    states step-major, (n, K, 1, width).
    """
    # Masks as (K or 1, R, dim): a model axis of one is shared by all models.
    m_in, m_rec, m_hid = (m if m.ndim == 3 else m[None] for m in
                          (masks.encoder_input, masks.recurrent_input, masks.recurrent_hidden))
    models, rows = params["lstm_b"].shape[0], m_hid.shape[1]
    n, h_dim, k = features.shape[0], config.hidden, config.instruments
    h, c = np.zeros((models, h_dim, rows)), np.zeros((models, h_dim, rows))
    if state is not None:
        h.transpose(0, 2, 1)[:], c.transpose(0, 2, 1)[:] = state
    head_names = ["reg", "cls"] + (["phase"] if config.phase_classes > 0 else [])
    heads = {name: np.empty((models, rows, n, params[f"{name}_b"].shape[-1]))
             for name in head_names}
    # sigmoid(a) = (1 + tanh(a / 2)) / 2, so with the i, f and o columns of
    # W_x, W_h and b halved (exact in binary) one tanh over all 4H units
    # yields tanh(a / 2) there and tanh(a) for g: the same values, bit for bit,
    # as ``sigmoid`` on the i/f/o pre-activations.
    half = np.where(np.arange(4 * h_dim) < 3 * h_dim, 0.5, 1.0)
    wx = params["lstm_Wx"] * half
    b = (params["lstm_b"] * half).reshape(models, 4, h_dim).transpose(1, 0, 2)[..., None]
    wh_t = (params["lstm_Wh"] * half).transpose(0, 2, 1).copy()
    # One copy per model: a multiply without broadcasting is the cheaper one.
    m_h = np.broadcast_to(m_hid.transpose(0, 2, 1), (models, h_dim, rows)).copy()
    hm, ig = np.empty((models, h_dim, rows)), np.empty((models, h_dim, rows))
    hw = np.empty((models, 4 * h_dim, rows))
    hw_by_gate = hw.reshape(models, 4, h_dim, rows).transpose(1, 0, 2, 3)
    blocks, step = [], block_frames(rows)
    for start in range(0, n, step):
        frames = features[start:start + step]
        acts = [frames[None, :, None, :] * m_in[:, None]]
        for l in range(len(config.encoder)):
            z = _dense(acts[-1], params[f"enc{l}_W"], params[f"enc{l}_b"])
            acts.append(np.tanh(z, out=z))
        xi = acts[-1] * m_rec[:, None]
        xw = xi.reshape(xi.shape[0], -1, xi.shape[-1]) @ wx
        xw = xw.reshape(models, len(frames), rows, 4, h_dim)
        gates = np.add(xw.transpose(1, 3, 0, 4, 2), b, order="C")
        cells = np.empty((len(frames), models, h_dim, rows))
        hidden = np.empty((len(frames), models, h_dim, rows))
        steps = zip(gates, gates[:, :3], *(gates[:, j] for j in range(4)), cells, hidden)
        for a, ifo, i, f, o, g, c_t, h_t in steps:
            np.multiply(h, m_h, out=hm)
            np.matmul(wh_t, hm, out=hw)
            a += hw_by_gate
            np.tanh(a, out=a)
            ifo += 1.0
            ifo *= 0.5
            c = np.multiply(f, c, out=c_t)
            c += np.multiply(i, g, out=ig)
            h = np.tanh(c, out=h_t)
            h *= o
        by_row = np.ascontiguousarray(hidden.transpose(1, 3, 0, 2))
        for name, out in heads.items():
            out[:, :, start:start + len(frames)] = _dense(by_row, params[f"{name}_W"],
                                                          params[f"{name}_b"])
        if keep:
            gates_4h = gates[..., 0].transpose(0, 2, 1, 3).reshape(len(frames), models, -1)
            blocks.append(([act[:, :, 0] for act in acts + [xi]],
                           [gates_4h, cells[..., 0], hidden[..., 0]]))

    reg_sig = None
    regression = heads["reg"]
    if config.output_mode == "scaled_sigmoid":
        if horizons is None:
            horizons = np.full(models, config.horizon)
        reg_sig = sigmoid(regression)
        regression = horizons[:, None, None, None] * reg_sig
    outputs = RawOutputs(
        regression=regression,
        class_logits=heads["cls"].reshape(models, rows, n, k, 3),
        phase_logits=heads.get("phase"),
    )
    cache = None
    if keep:
        by_model, by_step = zip(*blocks)
        *acts, xi = (np.concatenate(parts, axis=1) for parts in zip(*by_model))
        gates, cells, hidden = (np.concatenate(parts)[:, :, None] for parts in zip(*by_step))
        cache = {"enc_acts": acts, "xi": xi, "gates": gates, "cells": cells, "hidden": hidden,
                 "reg_sig": None if reg_sig is None else reg_sig[:, 0]}
    return outputs, (h.transpose(0, 2, 1).copy(), c.transpose(0, 2, 1).copy()), cache


def _select(outputs: RawOutputs, index) -> RawOutputs:
    return RawOutputs(
        regression=outputs.regression[index],
        class_logits=outputs.class_logits[index],
        phase_logits=None if outputs.phase_logits is None else outputs.phase_logits[index],
    )


def forward(
    params: Params,
    masks: DropoutMasks,
    features: np.ndarray,
    config: NetworkConfig,
    state: Optional[tuple[np.ndarray, np.ndarray]] = None,
    horizons: Optional[np.ndarray] = None,
) -> tuple[RawOutputs, tuple[np.ndarray, np.ndarray]]:
    """Run the network over a sequence of frames, strictly causally.

    The output at frame t depends only on ``features[0..t]`` and the
    initial state; in ``linear_clamped`` mode the regression output is the
    raw linear value (clamping to [0, horizon] happens at metric time).
    ``masks`` is one mask set, or R sets made by :func:`stack_masks`; then
    every output and the returned state carry a leading axis of R rows, one
    pass per set, all computed in one scan.

    ``params`` may also hold K models stacked on a leading axis.  Then every
    output and the state lead with a model axis of K, ``masks`` may carry
    one too, (K, R, dim), to give each model its own sets, and ``horizons``
    (K,) is each model's ``scaled_sigmoid`` horizon (default
    ``config.horizon``).  Each model's outputs are those of its own call.
    """
    features = np.asarray(features, dtype=np.float64)
    stacked = params["lstm_b"].ndim == 2
    _check_dims(config, masks, features, params["lstm_b"].shape[0] if stacked else None)
    one = masks.recurrent_hidden.ndim == 1
    if one:
        masks = stack_masks([masks])
        if state is not None:
            state = tuple(s[..., None, :] for s in state)
    outputs, (h, c), _ = _scan(params if stacked else _stacked(params), masks, features, config,
                               state, horizons=horizons)
    index = (slice(None) if stacked else 0, 0 if one else slice(None))
    return _select(outputs, index), (h[index], c[index])


def smooth_l1(diff: np.ndarray) -> np.ndarray:
    """0.5 d^2 for |d| < 1, |d| - 0.5 otherwise (d in minutes)."""
    a = np.abs(diff)
    return np.where(a < 1.0, 0.5 * diff * diff, a - 0.5)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the last axis; ``out`` may be ``logits`` itself for an in-place update."""
    out = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def compute_loss(
    outputs: RawOutputs,
    remaining: np.ndarray,
    classes: np.ndarray,
    params: Params,
    lambda_cls: float,
    weight_decay: float,
    phase_labels: Optional[np.ndarray] = None,
    lambda_phase: Optional[float] = None,
) -> tuple[float, dict]:
    """Total loss and its additive terms.

    total = mean over frames of sum over instruments of
            [SmoothL1(f, r) + lambda_cls * CE(softmax(logits), c)]
            + weight_decay * ||theta||^2  (+ phase cross entropy term).

    With a leading model axis on the outputs, targets and ``params`` (K
    models; the phase labels are shared) the total and every term are (K,)
    arrays, one loss per model; otherwise they are floats.
    """
    lead = outputs.regression.shape[:-2]
    n = outputs.n_frames
    if remaining.shape != outputs.regression.shape or classes.shape != remaining.shape:
        raise ValueError("outputs and targets have mismatched shapes")
    reg_term = smooth_l1(outputs.regression - remaining).sum(axis=-1).mean(axis=-1)
    logp = _log_softmax(outputs.class_logits)
    picked = np.take_along_axis(logp, classes[..., None].astype(np.int64), axis=-1)[..., 0]
    cls_term = lambda_cls * (-picked).sum(axis=-1).mean(axis=-1)
    l2_term = weight_decay * sum((v * v).reshape(*lead, -1).sum(axis=-1) for v in params.values())
    terms = {"regression": reg_term, "classification": cls_term, "l2": l2_term}
    if phase_labels is not None:
        if outputs.phase_logits is None:
            raise ValueError("phase labels given but the network has no phase head")
        if phase_labels.shape[0] != n:
            raise ValueError("phase labels length mismatch")
        lam_ph = lambda_cls if lambda_phase is None else lambda_phase
        logp_ph = _log_softmax(outputs.phase_logits)
        picked_ph = np.take_along_axis(logp_ph, _phase_index(phase_labels, lead), axis=-1)[..., 0]
        terms["phase"] = lam_ph * (-picked_ph).mean(axis=-1)
    total = sum(terms.values())
    if lead:
        return total, terms
    return float(total), {name: float(value) for name, value in terms.items()}


def _t(w: np.ndarray) -> np.ndarray:
    """Each model's matrix transposed: a view swapping the last two axes."""
    return w.swapaxes(-1, -2)


def _phase_index(phase_labels: np.ndarray, lead: tuple) -> np.ndarray:
    """(n,) phase labels as an index array (1, ..., n, 1) over logits with leading axes ``lead``."""
    return phase_labels.astype(np.int64).reshape((1,) * len(lead) + (-1, 1))


def loss_and_gradients(
    params: Params,
    masks: DropoutMasks,
    features: np.ndarray,
    remaining: np.ndarray,
    classes: np.ndarray,
    config: NetworkConfig,
    phase_labels: Optional[np.ndarray] = None,
    state: Optional[tuple[np.ndarray, np.ndarray]] = None,
    horizons: Optional[np.ndarray] = None,
):
    """Forward pass, loss, and analytic gradients for one window.

    Gradients are truncated at the window boundary: the initial state is
    treated as a constant.  Returns (total, terms, grads, final_state).

    ``params`` is one model, or K models stacked on a leading axis.  Then
    ``remaining`` and ``classes`` are (K, n, I), the state is a pair of
    (K, H) arrays, ``horizons`` (K,) gives each model's ``scaled_sigmoid``
    horizon (default ``config.horizon``), and the loss, every term, every
    gradient and the final state carry the model axis.  All models share the
    masks, frames and phase labels.
    """
    if params["lstm_b"].ndim == 1:
        total, terms, grads, (h, c) = loss_and_gradients(
            _stacked(params), masks, features, remaining[None], classes[None], config,
            phase_labels, None if state is None else (state[0][None], state[1][None]),
        )
        return (float(total[0]), {name: float(v[0]) for name, v in terms.items()},
                {name: g[0] for name, g in grads.items()}, (h[0], c[0]))

    features = np.asarray(features, dtype=np.float64)
    _check_dims(config, masks, features)
    models, n, h_dim = params["lstm_b"].shape[0], features.shape[0], config.hidden
    if horizons is None:
        horizons = np.full(models, config.horizon)
    if state is None:
        state = (np.zeros((models, h_dim)), np.zeros((models, h_dim)))
    outputs, (h, c), cache = _scan(params, stack_masks([masks]), features, config,
                                   (state[0][:, None], state[1][:, None]), keep=True,
                                   horizons=horizons)
    outputs = _select(outputs, (slice(None), 0))
    total, terms = compute_loss(
        outputs, remaining, classes, params,
        config.lambda_cls, config.weight_decay,
        phase_labels=phase_labels, lambda_phase=config.lambda_phase,
    )

    # The recurrence arrays are step-major, (n, K, 1, width), so that the
    # backward loop gets each step's (K, 1, width) views from ``zip``; the
    # head and weight gradients read them per model through transposed views.
    gates, cells, hidden = cache["gates"], cache["cells"], cache["hidden"]
    hidden_prev = np.concatenate([np.reshape(state[0], (1, models, 1, h_dim)), hidden[:-1]])
    cells_prev = np.concatenate([np.reshape(state[1], (1, models, 1, h_dim)), cells[:-1]])
    hidden_t = hidden[:, :, 0].transpose(1, 2, 0)  # (K, H, n)

    # Head gradients, model-major: (K, n, width).
    diff = outputs.regression - remaining
    d_reg = np.clip(diff, -1.0, 1.0) / n
    if config.output_mode == "scaled_sigmoid":
        sig = cache["reg_sig"]
        d_reg = d_reg * horizons[:, None, None] * sig * (1.0 - sig)
    probs = softmax(outputs.class_logits)
    onehot = np.zeros_like(probs)
    np.put_along_axis(onehot, classes[..., None].astype(np.int64), 1.0, axis=-1)
    d_logits = (config.lambda_cls / n) * (probs - onehot)
    d_logits_flat = d_logits.reshape(models, n, -1)

    grads: Params = {name: np.zeros_like(value) for name, value in params.items()}
    grads["reg_W"] = hidden_t @ d_reg
    grads["reg_b"] = d_reg.sum(axis=1)
    grads["cls_W"] = hidden_t @ d_logits_flat
    grads["cls_b"] = d_logits_flat.sum(axis=1)
    d_hidden = d_reg @ _t(params["reg_W"]) + d_logits_flat @ _t(params["cls_W"])
    if phase_labels is not None and outputs.phase_logits is not None:
        probs_ph = softmax(outputs.phase_logits)
        onehot_ph = np.zeros_like(probs_ph)
        np.put_along_axis(onehot_ph, _phase_index(phase_labels, (models,)), 1.0, axis=-1)
        d_phase = (config.phase_weight / n) * (probs_ph - onehot_ph)
        grads["phase_W"] = hidden_t @ d_phase
        grads["phase_b"] = d_phase.sum(axis=1)
        d_hidden = d_hidden + d_phase @ _t(params["phase_W"])
    d_hidden = np.ascontiguousarray(d_hidden.transpose(1, 0, 2))[:, :, None]

    # Backward through time.  The gate-derivative factors are computed for all
    # frames first; the loop only carries dh and dc.  d_gates[t] is dc[t] times
    # dc_factor[t] for the i, f and g gates and dh[t] times o_factor[t] for o.
    gi, gf, go, gg = np.split(gates, 4, axis=-1)
    tanh_c = np.tanh(cells)
    slope = gates[..., :3 * h_dim] * (1.0 - gates[..., :3 * h_dim])
    dc_factor = np.zeros((n, models, 4, h_dim))
    dc_factor[:, :, 0:1] = gg * slope[..., :h_dim]
    dc_factor[:, :, 1:2] = cells_prev * slope[..., h_dim:2 * h_dim]
    dc_factor[:, :, 3:4] = gi * (1.0 - gg * gg)
    o_factor = tanh_c * slope[..., 2 * h_dim:]
    dh_to_dc = go * (1.0 - tanh_c * tanh_c)
    # dh_carry = (d_gates[t] @ W_h^T) * m_h, with the constant mask folded in.
    wh_t = _t(params["lstm_Wh"]) * masks.recurrent_hidden
    d_gates = np.empty((n, models, 1, 4 * h_dim))
    dg_by_gate = d_gates.reshape(n, models, 4, h_dim)
    dh_carry = np.zeros((models, 1, h_dim))
    dc_carry = np.zeros((models, 1, h_dim))
    steps = zip(d_hidden[::-1], dh_to_dc[::-1], dc_factor[::-1], o_factor[::-1], gf[::-1],
                d_gates[::-1], dg_by_gate[::-1], dg_by_gate[:, :, 2:3][::-1])
    for dh, to_dc, factor, o_fac, f, dg, dg_gates, dg_o in steps:
        dh += dh_carry
        dc = dh * to_dc
        dc += dc_carry
        np.multiply(dc, factor, out=dg_gates)
        np.multiply(dh, o_fac, out=dg_o)
        dc_carry = dc * f
        dh_carry = dg @ wh_t

    d_gates = d_gates[:, :, 0]
    d_gates_m = d_gates.transpose(1, 0, 2)  # (K, n, 4H)
    grads["lstm_Wx"] = _t(cache["xi"]) @ d_gates_m
    hm_prev = hidden_prev[:, :, 0] * masks.recurrent_hidden
    grads["lstm_Wh"] = hm_prev.transpose(1, 2, 0) @ d_gates_m
    grads["lstm_b"] = d_gates.sum(axis=0)

    d_enc = (d_gates_m @ _t(params["lstm_Wx"])) * masks.recurrent_input
    for l in range(len(config.encoder) - 1, -1, -1):
        act = cache["enc_acts"][l + 1]
        dz = d_enc * (1.0 - act ** 2)
        grads[f"enc{l}_W"] = _t(cache["enc_acts"][l]) @ dz
        grads[f"enc{l}_b"] = dz.sum(axis=1)
        d_enc = dz @ _t(params[f"enc{l}_W"])

    two_gamma = 2.0 * config.weight_decay
    for name, value in params.items():
        grads[name] += two_gamma * value

    return total, terms, grads, (h[:, 0], c[:, 0])


class Adam:
    """Adaptive-moment update with bias correction."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Params, lr: float):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: Params, grads: Params) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            params[name] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def phase_head_defect(seq: ProcedureSequence, classes: int) -> Optional[str]:
    """Why a phase head of ``classes`` classes (0: none) cannot train on ``seq``, or None."""
    if classes and (seq.phase is None or int(seq.phase.max()) >= classes):
        found = ("its annotations have no phase column" if seq.phase is None
                 else f"it has phase index {int(seq.phase.max())}")
        return f"a head of {classes} class(es) does not fit sequence {seq.id!r}: {found}"
    return None


def train(
    sequences: Sequence[ProcedureSequence],
    config: NetworkConfig,
    horizons: Optional[Sequence[float]] = None,
):
    """Train on full sequences with windowed truncated BPTT.

    Per video and epoch one dropout mask set is sampled and reused for every
    window; recurrent state is carried across windows of ``config.window``
    frames while gradients stop at window boundaries.  Gradients are
    averaged over groups of ``config.accum_steps`` windows before each Adam
    update (a shorter leftover group at the end of a video still updates).
    A non-finite loss or gradient raises ``NumericError`` naming the epoch,
    video, window start frame and horizon (and the parameter) before Adam
    sees it.  Returns the trained parameters and a per-epoch log of loss
    terms.

    With ``horizons``, one model per horizon is trained and a list of
    ``(params, log)`` pairs is returned, one per horizon; ``config.horizon``
    is then unused.  The models share their initial weights, video order and
    masks, which depend on ``config.seed`` only, so they are trained in
    lockstep: one scan, one BPTT pass and one Adam update per step carry
    all of them on a leading model axis, and each model comes out exactly
    as a run of its own would give it.
    """
    if not sequences:
        raise ValueError("train set must be nonempty")
    for seq in sequences:
        if seq.features is None:
            raise ValueError(f"sequence {seq.id!r} has no features")
        if seq.features.shape[1] != config.input_dim:
            raise ValueError(
                f"sequence {seq.id!r} feature dim {seq.features.shape[1]} != {config.input_dim}"
            )
        if defect := phase_head_defect(seq, config.phase_classes):
            raise ValueError(defect)
    horizon_list = [config.horizon] if horizons is None else [float(h) for h in horizons]
    if not horizon_list or not all(h > 0 for h in horizon_list):
        raise ValueError(f"horizons must be a nonempty list of positive numbers, got {horizons}")

    models, horizon_array = len(horizon_list), np.array(horizon_list)
    targets = []
    for seq in sequences:
        per_horizon = labels.compute_targets(seq, horizon_list)
        targets.append((np.stack([t.remaining for t in per_horizon]),
                        np.stack([t.classes for t in per_horizon])))
    params = {name: np.stack([value] * models)
              for name, value in init_params(config, config.seed).items()}
    adam = Adam(params, lr=config.learning_rate)
    logs: list[list[dict]] = [[] for _ in horizon_list]

    def first_bad(values: np.ndarray) -> str:
        """The horizon of the first model whose ``values`` are not all finite."""
        finite = np.isfinite(values).reshape(models, -1).all(axis=1)
        return f"horizon {horizon_list[int(np.argmin(finite))]:g}"

    for epoch in range(config.epochs):
        order = np.random.default_rng(_derived_seed(config.seed, 1, epoch)).permutation(len(sequences))
        sums: dict = {}
        frames_seen = 0
        for vi in order:
            seq, (remaining, classes) = sequences[vi], targets[vi]
            masks = sample_masks(config, _derived_seed(config.seed, 2, epoch, int(vi)))
            state = (np.zeros((models, config.hidden)), np.zeros((models, config.hidden)))
            acc: Optional[Params] = None
            acc_count = 0
            for start in range(0, seq.n_frames, config.window):
                stop = min(start + config.window, seq.n_frames)
                phase_slice = seq.phase[start:stop] if config.phase_classes > 0 else None
                total, terms, grads, state = loss_and_gradients(
                    params, masks,
                    seq.features[start:stop],
                    remaining[:, start:stop],
                    classes[:, start:stop],
                    config,
                    phase_labels=phase_slice,
                    state=state,
                    horizons=horizon_array,
                )
                where = f"at epoch {epoch}, video {seq.id!r}, frame {start}"
                if not np.isfinite(total).all():
                    raise NumericError(f"non-finite loss {where}, {first_bad(total)}")
                for name, g in grads.items():
                    if not np.isfinite(g).all():
                        raise NumericError(
                            f"non-finite gradient in parameter {name!r} {where}, {first_bad(g)}"
                        )
                if acc is None:
                    acc = {k: g.copy() for k, g in grads.items()}
                else:
                    for k, g in grads.items():
                        acc[k] += g
                acc_count += 1
                if acc_count == config.accum_steps:
                    adam.step(params, {k: g / acc_count for k, g in acc.items()})
                    acc, acc_count = None, 0
                nw = stop - start
                frames_seen += nw
                for key, value in {**terms, "total": total}.items():
                    sums[key] = sums.get(key, 0.0) + value * nw
            if acc_count:
                adam.step(params, {k: g / acc_count for k, g in acc.items()})
        for m, log in enumerate(logs):
            log.append({"epoch": epoch,
                        **{k: float(v[m] / max(frames_seen, 1)) for k, v in sums.items()}})
    pairs = [({name: value[m] for name, value in params.items()}, log)
             for m, log in enumerate(logs)]
    return pairs[0] if horizons is None else pairs
