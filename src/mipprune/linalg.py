"""Dense matrix kernels and the lowering of 2-D convolution to matrix form.

A convolution layer is stored as its kernels.  The consumers that reason
about a layer (interval propagation, the mixed-integer encoding) read it as
one dense matrix acting on the flattened input image, derived from the
kernels where it is read, so they only ever deal with one layer shape:
y = W x + b.  The forward pass computes W x without W's structural zeros
(:func:`conv_matmat`).

The lowered matrix is doubly blocked Toeplitz.  Its pattern depends only on
the layer's shape, so it is built once per :class:`ConvSpec` as kernel
*indices*, straight from the definition of the convolution
(:func:`conv_index_map`, cached read-only); :func:`conv_to_matrix` is a
gather of the kernel values through that map, and the trainer folds the
gradient of the lowered matrix back onto the kernels through the same map
(:func:`conv_taps` keeps its nonzero positions).  The layers compute true
convolution (kernel flipped), not cross-correlation, so training and
encoding agree exactly.

All kernels here are pure functions on immutable inputs.  The products
use ``np.einsum`` without BLAS dispatch, so a result is the same bit for bit
for the same operands in the same memory layout on the same numpy build.
When the result has two or more columns and both operands are C-ordered,
einsum sums each entry left to right over the shared index, one term at a
time; zero terms then change nothing, since that sum starts from +0.0 and
never becomes -0.0.  That is why :func:`conv_matmat`, which drops the
lowered matrix's structural zeros and keeps the other terms in order,
equals ``matmat(conv_to_matrix(k, spec), x)`` byte for byte.  A one-column
result is summed otherwise: einsum vectorizes each row's sum, so it can
differ in its last bits from the left-to-right sum (as :func:`matvec`
does), and another numpy build may differ too.  :func:`conv_matmat`
multiplies by ``positions * n`` columns, so its output for one input is
that input's column of any batch, bit for bit.  An F-ordered right operand
(one input per row, transposed) is summed the other way: each column as
:func:`matvec` sums it alone, whatever the number of columns, which is what
the batched interval pass relies on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, UnsupportedFeature

__all__ = [
    "ConvSpec", "ConvTaps", "as_matrix", "as_kernels", "conv_index_map",
    "conv_taps", "conv_to_matrix", "conv_matmat", "matvec", "matmat",
]


def as_matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and return a dense float64 matrix.

    Rejects non-2-D shapes, NaN and infinity; optionally enforces dimensions.
    Returns a C-contiguous copy so callers can treat the result as immutable.
    """
    m = np.array(data, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise InvalidArgument(f"matrix must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidArgument("matrix entries must be finite")
    if rows is not None and m.shape[0] != rows:
        raise InvalidArgument(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise InvalidArgument(f"expected {cols} cols, got {m.shape[1]}")
    return m


@dataclass(frozen=True)
class ConvSpec:
    """Shape parameters of a 2-D convolution layer.

    ``padding`` is the number of zero pixels added on every side of the
    input.  Only stride 1 is supported; larger strides are rejected rather
    than silently decomposed.
    """

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    input_h: int
    input_w: int
    padding: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.stride != 1:
            raise UnsupportedFeature(f"stride must be 1, got {self.stride}")
        for name in ("in_channels", "out_channels", "kernel_h", "kernel_w", "input_h", "input_w"):
            if getattr(self, name) < 1:
                raise InvalidArgument(f"{name} must be >= 1")
        if self.padding < 0:
            raise InvalidArgument("padding must be >= 0")
        if self.kernel_h > self.padded_h or self.kernel_w > self.padded_w:
            raise InvalidArgument("kernel dims exceed padded input dims")

    @property
    def padded_h(self) -> int:
        return self.input_h + 2 * self.padding

    @property
    def padded_w(self) -> int:
        return self.input_w + 2 * self.padding

    @property
    def output_h(self) -> int:
        return self.padded_h - self.kernel_h + 1

    @property
    def output_w(self) -> int:
        return self.padded_w - self.kernel_w + 1

    @property
    def input_size(self) -> int:
        return self.in_channels * self.input_h * self.input_w

    @property
    def output_size(self) -> int:
        return self.out_channels * self.output_h * self.output_w


def as_kernels(data, spec: ConvSpec) -> np.ndarray:
    """Validate and return the (out_channels, in_channels, kernel_h, kernel_w)
    float64 kernels of ``spec`` as a C-contiguous copy, as :func:`as_matrix`
    does; rejects another shape, NaN and infinity."""
    k = np.array(data, dtype=np.float64, order="C")
    expect = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
    if k.shape != expect:
        raise InvalidArgument(f"kernel shape {k.shape} does not match spec {expect}")
    if not np.all(np.isfinite(k)):
        raise InvalidArgument("kernel entries must be finite")
    return k


@functools.lru_cache(maxsize=64)
def conv_index_map(spec: ConvSpec) -> np.ndarray:
    """Flat kernel index of every entry of the lowered matrix, -1 where it is zero.

    The result has shape (spec.output_size, spec.input_size); entry (i, j)
    is the position in ``kernels.ravel()`` of the kernel entry the lowering
    places there.  Output (o, oy, ox) reads input (c, iy, ix) through kernel
    entry (o, c, ky, kx) where iy = oy + kernel_h - 1 - ky - padding and
    ix = ox + kernel_w - 1 - kx - padding, the flipped kernel of true
    convolution; taps that land on padding place nothing.  The map is built
    once per spec and cached read-only, so lowering is a gather and folding
    a gradient of the lowered matrix back onto the kernels is a scatter-add
    over the same map.
    """
    oc, ic, kh, kw = spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w
    oh, ow, h, w = spec.output_h, spec.output_w, spec.input_h, spec.input_w
    o, c, oy, ox, ky, kx = np.indices((oc, ic, oh, ow, kh, kw)).reshape(6, -1)
    iy = oy + kh - 1 - ky - spec.padding
    ix = ox + kw - 1 - kx - spec.padding
    inside = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
    out = np.full((spec.output_size, spec.input_size), -1, dtype=np.intp)
    rows = ((o * oh + oy) * ow + ox)[inside]
    cols = ((c * h + iy) * w + ix)[inside]
    out[rows, cols] = (((o * ic + c) * kh + ky) * kw + kx)[inside]
    out.flags.writeable = False
    return out


class ConvTaps(NamedTuple):
    """The lowered matrix of a :class:`ConvSpec` as its nonzero entries.

    ``index`` is (taps, positions), taps = in_channels * kernel_h *
    kernel_w and positions = output_h * output_w: entry (t, p) is the input
    position tap t of output position p reads, in ascending input order down
    each column, or ``input_size`` where the tap lands on padding.  Tap t
    multiplies the kernel entry at t of the kernels flipped in both spatial
    axes and flattened per output channel.  ``placed`` holds the flat
    positions (C order) of the lowered matrix's kernel entries and
    ``kernel_ids`` the flat kernel index at each.
    """

    index: np.ndarray
    placed: np.ndarray
    kernel_ids: np.ndarray


@functools.lru_cache(maxsize=64)
def conv_taps(spec: ConvSpec) -> ConvTaps:
    """The nonzero entries of the lowered matrix, read off
    :func:`conv_index_map` once per spec and cached read-only."""
    kmap = conv_index_map(spec)
    window = spec.kernel_h * spec.kernel_w
    positions = spec.output_h * spec.output_w
    # output channel 0's block holds kernel ids 0 .. in_channels * window - 1;
    # flipping each channel's window puts its taps in ascending input order
    pos, col = np.nonzero(kmap[:positions] >= 0)
    channel, entry = np.divmod(kmap[pos, col], window)
    index = np.full((spec.in_channels * window, positions), spec.input_size, dtype=np.intp)
    index[channel * window + window - 1 - entry, pos] = col
    placed = np.flatnonzero(kmap >= 0)
    taps = ConvTaps(index, placed, kmap.ravel()[placed])
    for a in taps:
        a.flags.writeable = False
    return taps


def conv_to_matrix(kernels, spec: ConvSpec) -> np.ndarray:
    """Lower a convolution to one dense matrix on the flattened input.

    ``kernels`` has shape (out_channels, in_channels, kernel_h, kernel_w).
    The returned matrix M has shape (spec.output_size, spec.input_size) and
    satisfies M @ vec(x) == vec(conv(x)) where conv is true convolution
    (flipped kernel) with ``spec.padding`` zeros per side and stride 1.
    Input and output vectors are laid out channel-major, row-major inside
    each channel.  M is a fresh array the caller may write to.
    """
    k = as_kernels(kernels, spec)
    # index -1 reads the appended structural zero
    return np.append(k.ravel(), 0.0)[conv_index_map(spec)]


def conv_matmat(kernels: np.ndarray, spec: ConvSpec, x: np.ndarray) -> np.ndarray:
    """``matmat(conv_to_matrix(kernels, spec), x)`` without the structural zeros.

    ``x`` is (input_size, n), one input per column.  Each output position's
    taps are gathered through :func:`conv_taps` (a padding tap reads an
    appended zero row), and one product of (out_channels, taps) by
    (taps, positions * n) forms every output, so an input's column is the
    same for every n.  For finite ``x`` and n >= 2 the result is the lowered
    product byte for byte (see the module docstring).
    """
    if x.ndim != 2 or x.shape[0] != spec.input_size:
        raise InvalidArgument(f"input shape {x.shape} does not match spec input {spec.input_size}")
    index = conv_taps(spec).index
    cols = np.concatenate([x, np.zeros((1, x.shape[1]))])[index].reshape(index.shape[0], -1)
    flipped = kernels[:, :, ::-1, ::-1].reshape(spec.out_channels, -1)
    return matmat(flipped, cols).reshape(spec.output_size, x.shape[1])


def matvec(m: np.ndarray, v) -> np.ndarray:
    """Matrix-vector product through ``np.einsum``: the same bits for the same
    operands and memory layout on the same numpy build (see the module
    docstring), not a left-to-right sum per row."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if m.ndim != 2 or m.shape[1] != v.size:
        raise InvalidArgument(f"dimension mismatch: {m.shape} @ ({v.size},)")
    return np.einsum("ij,j->i", m, v, optimize=False)


def matmat(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-matrix product through ``np.einsum``, repeatable as
    :func:`matvec` is.  With C-ordered operands and two or more result
    columns each entry is the left-to-right sum over the shared index; with
    an F-ordered ``x`` each column is ``matvec(m, x[:, k])``, bit for bit."""
    if m.ndim != 2 or x.ndim != 2 or m.shape[1] != x.shape[0]:
        raise InvalidArgument(f"dimension mismatch: {m.shape} @ {x.shape}")
    return np.einsum("ij,jk->ik", m, x, optimize=False)
