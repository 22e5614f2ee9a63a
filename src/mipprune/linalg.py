"""Dense matrix kernels and the lowering of 2-D convolution to matrix form.

Convolution layers in this package are rewritten once, at model build time,
as a single dense matrix acting on the flattened input image.  Every
downstream consumer (forward pass, interval propagation, the mixed-integer
encoding) therefore only ever deals with one layer shape: y = W x + b.

The lowering assembles small Toeplitz matrices, one per kernel row, into a
doubly blocked Toeplitz matrix whose action on vec(input) is the full 2-D
convolution; padded outputs are obtained by selecting the appropriate rows
and columns.  That walk depends only on the layer's shape, so it is run
once per :class:`ConvSpec` over kernel *indices* (:func:`conv_index_map`,
cached read-only); :func:`conv_to_matrix` is a gather of the kernel values
through that map, and the trainer folds the gradient of the lowered matrix
back onto the kernels through the same map.  The layers compute true
convolution (kernel flipped), not cross-correlation, so training and
encoding agree exactly.

All kernels here are pure functions on immutable inputs.  The products
use ``np.einsum`` without BLAS dispatch, so a result is the same bit for bit
for the same operands in the same memory layout on the same numpy build.
The summation order is not left to right: einsum vectorizes each sum over
a C-ordered row, so a row's sum can differ in its last bits from a plain
left-to-right loop (and from the same product on an F-ordered copy, which
is summed one term at a time), and another numpy build may differ too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, UnsupportedFeature

__all__ = [
    "ConvSpec", "as_matrix", "toeplitz_1d", "conv_index_map", "conv_to_matrix", "matvec",
    "matmat",
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


def _toeplitz(seq: np.ndarray, n_cols: int, fill) -> np.ndarray:
    """``seq`` as first column, shifted down one row per column, ``fill`` elsewhere."""
    k = seq.size
    out = np.full((k + n_cols - 1, n_cols), fill, dtype=seq.dtype)
    for j in range(n_cols):
        out[j : j + k, j] = seq
    return out


def toeplitz_1d(sequence, n_cols: int) -> np.ndarray:
    """Toeplitz matrix with ``sequence`` as first column, shifted down per column.

    The result has ``len(sequence) + n_cols - 1`` rows (the sequence is
    zero-extended above and below), so ``M @ x`` is the full 1-D convolution
    of ``sequence`` with a length ``n_cols`` vector ``x``.
    """
    seq = np.asarray(sequence, dtype=np.float64).ravel()
    if seq.size == 0:
        raise InvalidArgument("sequence must be non-empty")
    if n_cols < 1:
        raise InvalidArgument("n_cols must be >= 1")
    return _toeplitz(seq, n_cols, 0.0)


def _full_conv_index(kernel_idx: np.ndarray, in_h: int, in_w: int) -> np.ndarray:
    """Doubly blocked Toeplitz matrix of the full 2-D convolution, as kernel indices.

    Block column i holds the Toeplitz matrix of kernel row d at block row
    i + d, mirroring how a 1-D Toeplitz matrix is built from a sequence.
    Entries no kernel entry reaches hold -1.
    """
    kh, kw = kernel_idx.shape
    out_w = in_w + kw - 1
    blocks = [_toeplitz(kernel_idx[d], in_w, -1) for d in range(kh)]
    m = np.full(((in_h + kh - 1) * out_w, in_h * in_w), -1, dtype=np.intp)
    for i in range(in_h):
        for d in range(kh):
            r = (i + d) * out_w
            c = i * in_w
            m[r : r + out_w, c : c + in_w] = blocks[d]
    return m


def _pad_select(spec: ConvSpec, m_full_padded: np.ndarray) -> np.ndarray:
    """Restrict the padded-input full-convolution matrix to the layer's output.

    Columns for the zero padding are dropped; rows are selected so the output
    covers exactly the stride-1 window positions of the padded input.
    """
    wp = spec.padded_w
    fw = wp + spec.kernel_w - 1
    p = spec.padding
    # columns: positions of the original image inside the zero-padded image
    cols = np.array(
        [(r + p) * wp + (c + p) for r in range(spec.input_h) for c in range(spec.input_w)],
        dtype=np.intp,
    )
    # rows: the "valid" region of the full convolution over the padded image
    r0 = spec.kernel_h - 1
    c0 = spec.kernel_w - 1
    rows = np.array(
        [(r0 + r) * fw + (c0 + c) for r in range(spec.output_h) for c in range(spec.output_w)],
        dtype=np.intp,
    )
    return m_full_padded[np.ix_(rows, cols)]


@functools.lru_cache(maxsize=64)
def conv_index_map(spec: ConvSpec) -> np.ndarray:
    """Flat kernel index of every entry of the lowered matrix, -1 where it is zero.

    The result has shape (spec.output_size, spec.input_size); entry (i, j)
    is the position in ``kernels.ravel()`` of the kernel entry the lowering
    places there.  It is built once per spec by the Toeplitz walk and cached
    read-only, so lowering is a gather and folding a gradient of the lowered
    matrix back onto the kernels is a scatter-add over the same map.
    """
    ohw = spec.output_h * spec.output_w
    ihw = spec.input_h * spec.input_w
    kernel_idx = np.arange(
        spec.out_channels * spec.in_channels * spec.kernel_h * spec.kernel_w, dtype=np.intp
    ).reshape(spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
    out = np.full((spec.output_size, spec.input_size), -1, dtype=np.intp)
    for oc in range(spec.out_channels):
        for ic in range(spec.in_channels):
            full = _full_conv_index(kernel_idx[oc, ic], spec.padded_h, spec.padded_w)
            out[oc * ohw : (oc + 1) * ohw, ic * ihw : (ic + 1) * ihw] = _pad_select(spec, full)
    out.flags.writeable = False
    return out


def conv_to_matrix(kernels, spec: ConvSpec) -> np.ndarray:
    """Lower a convolution to one dense matrix on the flattened input.

    ``kernels`` has shape (out_channels, in_channels, kernel_h, kernel_w).
    The returned matrix M has shape (spec.output_size, spec.input_size) and
    satisfies M @ vec(x) == vec(conv(x)) where conv is true convolution
    (flipped kernel) with ``spec.padding`` zeros per side and stride 1.
    Input and output vectors are laid out channel-major, row-major inside
    each channel.  M is a fresh array the caller may write to.
    """
    k = np.asarray(kernels, dtype=np.float64)
    expect = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
    if k.shape != expect:
        raise InvalidArgument(f"kernel shape {k.shape} does not match spec {expect}")
    if not np.all(np.isfinite(k)):
        raise InvalidArgument("kernel entries must be finite")
    # index -1 reads the appended structural zero
    return np.append(k.ravel(), 0.0)[conv_index_map(spec)]


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
    :func:`matvec` is."""
    if m.ndim != 2 or x.ndim != 2 or m.shape[1] != x.shape[0]:
        raise InvalidArgument(f"dimension mismatch: {m.shape} @ {x.shape}")
    return np.einsum("ij,jk->ik", m, x, optimize=False)
