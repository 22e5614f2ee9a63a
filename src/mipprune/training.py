"""Minimal deterministic trainer: softmax cross-entropy, SGD or RMSprop.

The trainer exists so experiments can produce their own reference models
in-repo.  It is intentionally small: full-batch shuffling with a seeded
generator, plain backprop through dense layers, lowered convolutions, the
identity-like flatten, and average pooling.  Max pooling is rejected in
training (its subgradient is ambiguous); such layers are still supported by
the forward pass and the MIP encoding with hand-set weights.

The trainer has no layer walk of its own: a minibatch goes through
:func:`mipprune.network.forward` as a 2-D batch, and backprop reads the
trace's per-layer ``(size, n)`` arrays.  :func:`evaluate` is the same one
batched pass, with or without a mask.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import InvalidArgument, TrainingDiverged, UnsupportedFeature
from .linalg import conv_index_map, conv_to_matrix, matmat
from .network import LayerSpec, Mask, Network, forward

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
    :func:`~mipprune.linalg.conv_index_map`.
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

    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for idx in range(len(net.layers) - 1, -1, -1):
        spec = net.layers[idx]
        below = trace.post[idx - 1] if idx > 0 else x.T
        if spec.kind in ("dense", "conv"):
            if spec.activation == "relu":
                delta = delta * (trace.pre[idx] > 0)
            dw = matmat(delta, below.T.copy())
            db = delta.sum(axis=1)
            if spec.kind == "conv":
                kmap = conv_index_map(spec.conv)
                placed = kmap >= 0
                dk = np.bincount(kmap[placed], weights=dw[placed], minlength=spec.kernels.size)
                dcb = db.reshape(-1, spec.rows_per_unit).sum(axis=1)
                grads[idx] = (dk.reshape(spec.kernels.shape), dcb)
            else:
                grads[idx] = (dw, db)
            delta = matmat(spec.weight.T.copy(), delta)
        elif spec.kind == "avgpool":
            w = spec.pool_window
            delta = np.repeat(delta / w, w, axis=0)
        # flatten: delta passes through unchanged
    ordered = [grads[i] for i in _param_layers(net)]
    return loss, ordered


def _apply_update(spec: LayerSpec, dw: np.ndarray, db: np.ndarray) -> None:
    """Write updated parameters in place, re-lowering conv layers."""
    if spec.kind == "dense":
        spec.weight -= dw
        spec.bias -= db
    else:
        spec.kernels -= dw
        spec.channel_bias -= db
        spec.weight[...] = conv_to_matrix(spec.kernels, spec.conv)
        spec.bias[...] = np.repeat(spec.channel_bias, spec.rows_per_unit)


def train(net: Network, ds: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train a copy of ``net``; deterministic given (net, ds, cfg) seeds."""
    if ds.dim != net.input_size:
        raise InvalidArgument(f"dataset dim {ds.dim} != network input {net.input_size}")
    model = copy.deepcopy(net)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    p_layers = _param_layers(model)
    sq_avg = None
    if cfg.optimizer == "rmsprop":
        sq_avg = []
        for i in p_layers:
            s = model.layers[i]
            if s.kind == "dense":
                sq_avg.append((np.zeros_like(s.weight), np.zeros_like(s.bias)))
            else:
                sq_avg.append((np.zeros_like(s.kernels), np.zeros_like(s.channel_bias)))
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
            for j, layer_idx in enumerate(p_layers):
                dw, db = grads[j]
                if cfg.optimizer == "rmsprop":
                    sw, sb = sq_avg[j]
                    sw *= RMSPROP_DECAY
                    sw += (1 - RMSPROP_DECAY) * dw * dw
                    sb *= RMSPROP_DECAY
                    sb += (1 - RMSPROP_DECAY) * db * db
                    dw = dw / (np.sqrt(sw) + RMSPROP_EPS)
                    db = db / (np.sqrt(sb) + RMSPROP_EPS)
                _apply_update(
                    model.layers[layer_idx], cfg.learning_rate * dw, cfg.learning_rate * db
                )
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
