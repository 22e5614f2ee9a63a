"""Minimal deterministic trainer: softmax cross-entropy, SGD or RMSprop.

The trainer exists so experiments can produce their own reference models
in-repo.  It is intentionally small: full-batch shuffling with a seeded
generator, plain backprop through dense layers, lowered convolutions, the
identity-like flatten, and average pooling.  Max pooling is rejected in
training (its subgradient is ambiguous); such layers are still supported by
the forward pass and the MIP encoding with hand-set weights.

The trainer has no layer walk of its own: a minibatch goes through
:func:`mipprune.network.forward` as a 2-D batch, and backprop reads the
trace's per-layer ``(size, n)`` arrays.  Backprop stops at the lowest
parametric layer: nothing reads the gradient of the input.
:func:`evaluate` is the same one batched pass, with or without a mask.

:func:`train` makes every trained array of its copy of the network (dense
weight and bias, conv kernels and channel bias) a view into one flat
parameter vector, so a step joins the gradients once and runs the optimizer
once over that vector.  Every element gets the update it would get on its
own array, bit for bit.  A conv layer's lowered weight and bias are derived
from its kernels where they are read, so nothing follows the update.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import InvalidArgument, TrainingDiverged, UnsupportedFeature
from .linalg import conv_taps, matmat
from .network import Mask, Network, forward

__all__ = ["TrainConfig", "TrainResult", "train", "evaluate", "loss_and_grads", "write_trace_csv"]

RMSPROP_DECAY = 0.9
RMSPROP_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 32
    optimizer: str = "rmsprop"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidArgument("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidArgument("batch_size must be >= 1")
        if not math.isfinite(self.learning_rate):
            raise InvalidArgument("learning_rate must be finite")
        if self.learning_rate < 0:
            raise InvalidArgument("learning_rate must be >= 0")
        if self.optimizer not in ("sgd", "rmsprop"):
            raise InvalidArgument(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainResult:
    net: Network
    trace: list[tuple[int, float, float]] = field(default_factory=list)  # (epoch, loss, acc)


def _param_layers(net: Network) -> list[int]:
    return [i for i, s in enumerate(net.layers) if s.kind in ("dense", "conv")]


def _softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=0, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=0, keepdims=True)


def loss_and_grads(net: Network, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and gradients per parametric layer.

    Returns (loss, grads) with grads[i] = (dW-or-dkernels, dbias) matching
    the layer's parameter shapes. Conv gradients are folded from the lowered
    matrix back onto the kernel entries through
    :func:`~mipprune.linalg.conv_taps`.
    """
    if any(s.kind == "maxpool" for s in net.layers):
        raise UnsupportedFeature("max pooling layers cannot be trained")
    n = x.shape[0]
    trace = forward(net, x)  # layer arrays are (size, n), one column per input
    probs = _softmax(trace.logits)
    eps_free = np.clip(probs[y, np.arange(n)], 1e-300, None)
    loss = float(-np.mean(np.log(eps_free)))

    delta = probs.copy()
    delta[y, np.arange(n)] -= 1.0
    delta /= n  # d loss / d logits

    p_layers = _param_layers(net)
    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for idx in range(len(net.layers) - 1, p_layers[0] - 1, -1):
        spec = net.layers[idx]
        below = trace.post[idx - 1] if idx > 0 else x.T
        if spec.kind in ("dense", "conv"):
            if spec.activation == "relu":
                delta = delta * (trace.pre[idx] > 0)
            dw = matmat(delta, below.T.copy())
            db = delta.sum(axis=1)
            if spec.kind == "conv":
                taps = conv_taps(spec.conv)
                dk = np.bincount(taps.kernel_ids, weights=dw.ravel()[taps.placed],
                                 minlength=spec.kernels.size)
                dcb = db.reshape(-1, spec.rows_per_unit).sum(axis=1)
                grads[idx] = (dk.reshape(spec.kernels.shape), dcb)
            else:
                grads[idx] = (dw, db)
            if idx > p_layers[0]:
                delta = matmat(spec.weight.T.copy(), delta)
        elif spec.kind == "avgpool":
            w = spec.pool_window
            delta = np.repeat(delta / w, w, axis=0)
        # flatten: delta passes through unchanged
    ordered = [grads[i] for i in p_layers]
    return loss, ordered


def _flatten_params(net: Network) -> np.ndarray:
    """One vector holding every trained array of ``net``, which become views into it.

    The order is that of :func:`loss_and_grads`' gradients: per parametric
    layer, the weight (dense) or kernels (conv), then the bias or channel bias.
    """
    names = {"dense": ("weight", "bias"), "conv": ("kernels", "channel_bias")}
    fields = [(spec, name) for spec in (net.layers[i] for i in _param_layers(net))
              for name in names[spec.kind]]
    theta = np.concatenate([getattr(spec, name).ravel() for spec, name in fields])
    start = 0
    for spec, name in fields:
        a = getattr(spec, name)
        setattr(spec, name, theta[start : start + a.size].reshape(a.shape))
        start += a.size
    return theta


def train(net: Network, ds: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train a copy of ``net``; deterministic given (net, ds, cfg) seeds."""
    if ds.dim != net.input_size:
        raise InvalidArgument(f"dataset dim {ds.dim} != network input {net.input_size}")
    model = copy.deepcopy(net)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    theta = _flatten_params(model)
    sq = np.zeros_like(theta) if cfg.optimizer == "rmsprop" else None
    trace: list[tuple[int, float, float]] = []
    n = ds.inputs.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grads(model, ds.inputs[sel], ds.labels[sel])
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            epoch_loss += loss * sel.size
            g = np.concatenate([a.ravel() for pair in grads for a in pair])
            if sq is not None:
                sq *= RMSPROP_DECAY
                sq += (1 - RMSPROP_DECAY) * g * g
                g = g / (np.sqrt(sq) + RMSPROP_EPS)
            theta -= cfg.learning_rate * g
        acc = evaluate(model, ds)
        trace.append((epoch, epoch_loss / n, acc))
    return TrainResult(net=model, trace=trace)


def evaluate(net: Network, ds: Dataset, mask: Mask | None = None) -> float:
    """Fraction of argmax-correct predictions; ties resolve to the lowest class."""
    if ds.labels.size == 0:
        raise InvalidArgument("empty dataset")
    pred = forward(net, ds.inputs, mask).logits.argmax(axis=0)  # first (lowest) index on ties
    return float(np.mean(pred == ds.labels))


def write_trace_csv(trace: list[tuple[int, float, float]], path) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss", "train_acc"])
        for epoch, loss, acc in trace:
            w.writerow([epoch, repr(loss), repr(acc)])
