"""Interval propagation of per-input pre-activation bounds.

For an input box [x - eps, x + eps] the affine image through a layer is
bounded by splitting the weight matrix into its positive and negative
parts: the lower bound takes the negative part against the upper input and
vice versa.  Intervals are clipped at zero through every ReLU before the
next layer, matching what the activations can actually attain.

One pass bounds a whole batch, its boxes held as rows: every point's lower
bounds, then every point's upper bounds.  Each dense or conv layer multiplies
them all at once through :func:`~mipprune.linalg.matmat` on the rows
transposed, an F-ordered operand, which sums each column as
:func:`~mipprune.linalg.matvec` sums it alone, so a point's bounds are the
same bits at every batch size.  A conv is read as its lowered matrix, once a
call: its taps (:func:`~mipprune.linalg.conv_matmat` on the kernels'
positive and negative parts) sum in another order, which moves the last bits
of the big-M constants and, with them, the solver's path.

At eps == 0 each point's bounds are its own one-input forward pass, the true
pre-activations bit for bit, as the encoder's per-point trace and
:func:`check_soundness` need; a batched forward pass can differ from it in
the last bits of a dense layer.  The bounds serve as the big-M constants of
the mixed-integer encoding and the slack that lets importance scores drop
for neurons that are never active.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .network import Network, forward
from .linalg import matmat

__all__ = ["IntervalBounds", "propagate", "propagate_batch", "check_soundness", "dump_bounds_csv"]
SOUNDNESS_CHUNK = 1024  # samples per forward pass in check_soundness


@dataclass
class IntervalBounds:
    """Per-layer pre/post-activation bounds for one input point.

    ``pre_lo[l]`` / ``pre_hi[l]`` bound the layer's output before its
    activation (for pools, the pooled value itself); ``post_lo`` / ``post_hi``
    bound the value that feeds the next layer.
    """

    pre_lo: list[np.ndarray]
    pre_hi: list[np.ndarray]
    post_lo: list[np.ndarray]
    post_hi: list[np.ndarray]

    def check(self) -> None:
        for lo, hi in zip(self.pre_lo, self.pre_hi):
            if np.any(lo > hi):
                raise InvalidArgument("lower bound exceeds upper bound")


def propagate(net: Network, x, epsilon: float = 0.0) -> IntervalBounds:
    """Bounds for one input point under an L-infinity ball of radius epsilon."""
    return propagate_batch(net, np.asarray(x, dtype=np.float64).reshape(1, -1), epsilon)[0]


def propagate_batch(net: Network, xs: np.ndarray, epsilon: float = 0.0) -> list[IntervalBounds]:
    """Bounds for each row of ``xs`` under an L-infinity ball of radius epsilon."""
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise InvalidArgument(f"epsilon must be finite and >= 0, got {epsilon}")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != net.input_size:
        raise InvalidArgument(f"input shape {xs.shape}, network expects (n, {net.input_size})")

    n = xs.shape[0]
    if epsilon == 0.0:  # each point's own forward pass is both its lower and its upper row
        traces = [forward(net, x) for x in xs] * 2
        pre = [np.stack(z) for z in zip(*(t.pre for t in traces))]
        post = [np.stack(a) for a in zip(*(t.post for t in traces))]
    else:
        pre, post = [], []  # per layer (2n, size): each point's lower row, then each upper row
        box = np.concatenate([xs - epsilon, xs + epsilon])
        for spec in net.layers:
            if spec.kind in ("dense", "conv"):
                weight = spec.weight  # a conv's is lowered on each read: once a layer here
                pos = matmat(np.maximum(weight, 0.0), box.T).T
                neg = matmat(np.minimum(weight, 0.0), box.T).T
                z = np.concatenate([pos[:n] + neg[n:], pos[n:] + neg[:n]]) + spec.bias
                a = np.maximum(z, 0.0) if spec.activation == "relu" else z
            elif spec.kind in ("avgpool", "maxpool"):
                groups = box.reshape(2 * n, box.shape[1] // spec.pool_window, spec.pool_window)
                z = a = groups.mean(axis=2) if spec.kind == "avgpool" else groups.max(axis=2)
            else:  # flatten
                z = a = box
            pre.append(z)
            post.append(a)
            box = np.ascontiguousarray(a)  # so box.T is F-ordered: summed as matvec sums
    out = [IntervalBounds([z[k].copy() for z in pre], [z[n + k].copy() for z in pre],
                          [a[k].copy() for a in post], [a[n + k].copy() for a in post])
           for k in range(n)]
    for b in out:
        b.check()
    return out


def check_soundness(net: Network, x, epsilon: float, n_samples: int, seed: int = 0) -> int:
    """Count sampled pre-activations that escape the propagated bounds.

    Draws ``n_samples`` points uniformly from the input ball, runs the exact
    forward pass, and compares every pre-activation against [lo, hi]. Sound
    bounds give 0.  The samples run as batches of at most ``SOUNDNESS_CHUNK``,
    one forward pass each.  At epsilon 0 every sample is the point, so one
    pass of it, the pass the bounds are bit for bit, counts for them all.
    """
    if n_samples < 1:
        raise InvalidArgument("n_samples must be >= 1")
    b = propagate(net, x, epsilon)
    v = np.asarray(x, dtype=np.float64).ravel()

    def escapes(pts: np.ndarray) -> int:
        pre = forward(net, pts).pre  # (size, len(pts)) per layer
        return sum(int(np.sum(z.T < lo)) + int(np.sum(z.T > hi))
                   for z, lo, hi in zip(pre, b.pre_lo, b.pre_hi))

    if epsilon == 0.0:
        return n_samples * escapes(v[None])
    rng = np.random.Generator(np.random.PCG64(seed))
    # one (k, size) draw gives the values of k draws of one sample each
    sizes = [min(SOUNDNESS_CHUNK, n_samples - s) for s in range(0, n_samples, SOUNDNESS_CHUNK)]
    return sum(escapes(v + rng.uniform(-epsilon, epsilon, size=(k, v.size))) for k in sizes)


def dump_bounds_csv(all_bounds: list[IntervalBounds], path) -> None:
    """Debug dump: one row per (layer, neuron, point) with its pre-activation box."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "neuron", "point", "lower", "upper"])
        for k, b in enumerate(all_bounds):
            for layer, (lo, hi) in enumerate(zip(b.pre_lo, b.pre_hi)):
                for i in range(lo.size):
                    w.writerow([layer, i, k, repr(float(lo[i])), repr(float(hi[i]))])
