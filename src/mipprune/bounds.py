"""Interval propagation of per-input pre-activation bounds.

For an input box [x - eps, x + eps] the affine image through a layer is
bounded by splitting the weight matrix into its positive and negative
parts: the lower bound takes the negative part against the upper input and
vice versa.  Intervals are clipped at zero through every ReLU before the
next layer, matching what the activations can actually attain.

With eps == 0 the box is a single point, and the propagation is computed
as the exact forward pass (same products, same summation order), so the
degenerate interval equals the true pre-activations bit-for-bit.

Bounds are computed per input point; they serve as the big-M constants of
the mixed-integer encoding and the slack that lets importance scores drop
for neurons that are never active.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .network import Network, forward
from .linalg import matvec

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
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise InvalidArgument(f"epsilon must be finite and >= 0, got {epsilon}")
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size != net.input_size:
        raise InvalidArgument(f"input size {v.size}, network expects {net.input_size}")

    if epsilon == 0.0:
        trace = forward(net, v)
        return IntervalBounds(
            pre_lo=[z.copy() for z in trace.pre],
            pre_hi=[z.copy() for z in trace.pre],
            post_lo=[a.copy() for a in trace.post],
            post_hi=[a.copy() for a in trace.post],
        )

    lo = v - epsilon
    hi = v + epsilon
    pre_lo, pre_hi, post_lo, post_hi = [], [], [], []
    for spec in net.layers:
        if spec.kind in ("dense", "conv"):
            weight, bias = spec.weight, spec.bias  # a conv's are lowered on each read
            w_pos = np.maximum(weight, 0.0)
            w_neg = np.minimum(weight, 0.0)
            zl = matvec(w_pos, lo) + matvec(w_neg, hi) + bias
            zh = matvec(w_pos, hi) + matvec(w_neg, lo) + bias
            if spec.activation == "relu":
                al, ah = np.maximum(zl, 0.0), np.maximum(zh, 0.0)
            else:
                al, ah = zl.copy(), zh.copy()
        elif spec.kind == "avgpool":
            zl = lo.reshape(-1, spec.pool_window).mean(axis=1)
            zh = hi.reshape(-1, spec.pool_window).mean(axis=1)
            al, ah = zl.copy(), zh.copy()
        elif spec.kind == "maxpool":
            zl = lo.reshape(-1, spec.pool_window).max(axis=1)
            zh = hi.reshape(-1, spec.pool_window).max(axis=1)
            al, ah = zl.copy(), zh.copy()
        else:
            zl, zh = lo.copy(), hi.copy()
            al, ah = lo.copy(), hi.copy()
        pre_lo.append(zl)
        pre_hi.append(zh)
        post_lo.append(al)
        post_hi.append(ah)
        lo, hi = al, ah
    out = IntervalBounds(pre_lo=pre_lo, pre_hi=pre_hi, post_lo=post_lo, post_hi=post_hi)
    out.check()
    return out


def propagate_batch(net: Network, xs: np.ndarray, epsilon: float = 0.0) -> list[IntervalBounds]:
    return [propagate(net, xs[i], epsilon) for i in range(xs.shape[0])]


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
