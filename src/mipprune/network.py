"""Network definition, deterministic init, forward pass, masking, and model files.

A network is an ordered list of layers over flat float64 vectors.  Layer
kinds: ``dense``, ``conv`` (stored as its kernels; its dense matrix is
lowered from them where it is read, see :mod:`mipprune.linalg`),
``avgpool`` / ``maxpool`` (consecutive non-overlapping windows of the
previous output), and ``flatten`` (a no-op marker, kept so conv
architectures read naturally).

:func:`build_network` is the only constructor of layers: it turns layer
descriptors (``dense(...)``, ``conv(...)``, ...) and parameters into a
checked :class:`Network`.  Initialization, model files and structural
pruning all produce descriptors and parameters and call it.

Maskable units are dense-layer neurons and whole conv feature maps; a unit
owns ``LayerSpec.rows_per_unit`` consecutive rows of the (lowered) weight
matrix (1 for dense, the feature-map size for conv), and masking zeroes
them.  The final layer is the logit layer (activation ``none``) and is never
maskable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, ModelFormatError
from .linalg import ConvSpec, as_kernels, as_matrix, conv_matmat, conv_to_matrix, matmat

__all__ = [
    "LayerSpec",
    "Network",
    "Mask",
    "ForwardTrace",
    "dense",
    "conv",
    "avgpool",
    "maxpool",
    "flatten",
    "build_network",
    "init_network",
    "forward",
    "apply_mask",
    "save_network",
    "load_network",
    "float_to_hex",
    "hex_to_float",
]

_KINDS = ("dense", "conv", "avgpool", "maxpool", "flatten")
_ACTIVATIONS = ("relu", "none")


@dataclass
class LayerSpec:
    """One layer. Which fields apply depends on ``kind``.

    dense: weight (out x in), bias (out), activation.
    conv:  kernels (oc, ic, kh, kw), channel_bias (oc), conv spec, activation;
           ``weight`` and ``bias`` are the lowered dense equivalents, derived
           from the kernels and channel bias on every read and read-only, so
           they always follow an edit of the kernels.
    avgpool/maxpool: pool_window (window length over the flat input).
    flatten: nothing.
    """

    kind: str
    _weight: np.ndarray | None = field(default=None, repr=False)
    _bias: np.ndarray | None = field(default=None, repr=False)
    activation: str = "none"
    pool_window: int = 0
    conv: ConvSpec | None = None
    kernels: np.ndarray | None = None
    channel_bias: np.ndarray | None = None

    @property
    def weight(self) -> np.ndarray | None:
        """The layer's dense matrix; a conv's is lowered from its kernels."""
        if self.kind != "conv":
            return self._weight
        w = conv_to_matrix(self.kernels, self.conv)
        w.flags.writeable = False
        return w

    @weight.setter
    def weight(self, value: np.ndarray) -> None:
        if self.kind == "conv":
            raise AttributeError("a conv layer's weight is derived from its kernels")
        self._weight = value

    @property
    def bias(self) -> np.ndarray | None:
        """The layer's bias vector; a conv's repeats each channel bias per position."""
        if self.kind != "conv":
            return self._bias
        b = np.repeat(self.channel_bias, self.rows_per_unit)
        b.flags.writeable = False
        return b

    @bias.setter
    def bias(self, value: np.ndarray) -> None:
        if self.kind == "conv":
            raise AttributeError("a conv layer's bias is derived from its channel bias")
        self._bias = value

    @property
    def rows_per_unit(self) -> int:
        """Rows of the (lowered) weight matrix one maskable unit owns.

        A dense neuron owns its own row; a conv feature map owns the
        ``output_h * output_w`` consecutive rows of its output block.
        """
        return self.conv.output_h * self.conv.output_w if self.kind == "conv" else 1

    def out_size(self, in_size: int) -> int:
        if self.kind == "dense":
            return self.weight.shape[0]
        if self.kind == "conv":
            return self.conv.output_size
        if self.kind in ("avgpool", "maxpool"):
            if in_size % self.pool_window != 0:
                raise InvalidArgument(
                    f"pool window {self.pool_window} does not divide input size {in_size}"
                )
            return in_size // self.pool_window
        return in_size


def dense(width: int, activation: str = "relu") -> dict:
    return {"kind": "dense", "width": width, "activation": activation}


def conv(out_channels: int, kernel_h: int, kernel_w: int, padding: int = 0,
         activation: str = "relu") -> dict:
    return {"kind": "conv", "out_channels": out_channels, "kernel_h": kernel_h,
            "kernel_w": kernel_w, "padding": padding, "activation": activation}


def avgpool(window: int) -> dict:
    return {"kind": "avgpool", "window": window}


def maxpool(window: int) -> dict:
    return {"kind": "maxpool", "window": window}


def flatten() -> dict:
    return {"kind": "flatten"}


@dataclass
class Network:
    """Immutable-by-convention trained or untrained model."""

    layers: list[LayerSpec]
    input_shape: tuple[int, ...]
    seed: int = 0

    @property
    def input_size(self) -> int:
        return math.prod(self.input_shape)

    def layer_sizes(self) -> list[int]:
        """Output vector length of every layer, input first."""
        sizes = [self.input_size]
        for spec in self.layers:
            sizes.append(spec.out_size(sizes[-1]))
        return sizes

    @property
    def n_classes(self) -> int:
        return self.layer_sizes()[-1]

    def validate(self) -> None:
        """Whole-network rules; per-layer shapes are checked by :func:`build_network`."""
        if not self.layers:
            raise InvalidArgument("network needs at least one layer")
        last = self.layers[-1]
        if last.kind != "dense":
            raise InvalidArgument("final layer must be dense (logit layer)")
        if last.activation != "none":
            raise InvalidArgument("final layer must have activation 'none'")
        if not any(s.kind in ("dense", "conv") and s.activation == "relu" for s in self.layers):
            raise InvalidArgument("network needs at least one hidden ReLU layer")

    def prunable_layers(self) -> list[tuple[int, int]]:
        """(layer index, unit count) for every maskable layer.

        Dense hidden layers are maskable per neuron; conv layers per feature
        map. The final (logit) layer is excluded.
        """
        out = []
        for idx, spec in enumerate(self.layers[:-1]):
            if spec.kind == "dense" and spec.activation == "relu":
                out.append((idx, spec.weight.shape[0]))
            elif spec.kind == "conv" and spec.activation == "relu":
                out.append((idx, spec.conv.out_channels))
        return out


@dataclass
class Mask:
    """Per-layer pruning bits, True = unit removed. Keys are layer indices."""

    bits: dict[int, np.ndarray] = field(default_factory=dict)

    def masked_count(self) -> int:
        return int(sum(b.sum() for b in self.bits.values()))

    def total_units(self) -> int:
        return int(sum(b.size for b in self.bits.values()))

    def is_empty(self) -> bool:
        return self.masked_count() == 0

    def validate_against(self, net: Network) -> None:
        prunable = dict(net.prunable_layers())
        for idx, bits in self.bits.items():
            if idx not in prunable:
                raise InvalidArgument(f"layer {idx} is not maskable")
            if bits.size != prunable[idx]:
                raise InvalidArgument(
                    f"layer {idx}: mask has {bits.size} bits, layer has {prunable[idx]} units"
                )
            if bits.all():
                raise InvalidArgument(f"layer {idx}: masking every unit leaves a degenerate network")

    @staticmethod
    def empty(net: Network) -> "Mask":
        return Mask({idx: np.zeros(n, dtype=bool) for idx, n in net.prunable_layers()})


@dataclass
class ForwardTrace:
    """Pre- and post-activation arrays of every layer: ``(size,)`` for one
    input, ``(size, n)`` for a batch of ``n``."""

    pre: list[np.ndarray]
    post: list[np.ndarray]

    @property
    def logits(self) -> np.ndarray:
        return self.post[-1]


def forward(net: Network, x, mask: Mask | None = None) -> ForwardTrace:
    """Run the network on one input or a batch, optionally zeroing masked units.

    A 2-D ``x`` is a batch with one input per row, and every layer array of
    the trace is ``(size, n)`` with one column per input; any other ``x`` is
    one flat input, run as a batch of one and returned as ``(size,)`` arrays.
    A dense layer's product (:func:`~mipprune.linalg.matmat`) for one column
    can differ in its last bits from a column of a wider batch, so a caller
    that must match another per-input computation exactly passes its inputs
    one at a time.  A conv layer multiplies its taps
    (:func:`~mipprune.linalg.conv_matmat`), the same bits at every batch size.

    Masking acts on post-activations: a masked dense neuron or conv feature
    map outputs exactly 0 for every input.
    """
    x = np.asarray(x, dtype=np.float64)
    batch = x.ndim == 2
    v = x.T.copy() if batch else np.ascontiguousarray(x).reshape(-1, 1)
    if v.shape[0] != net.input_size:
        raise InvalidArgument(f"input size {v.shape[0]}, network expects {net.input_size}")
    if mask is not None:
        mask.validate_against(net)
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = []
    for idx, spec in enumerate(net.layers):
        if spec.kind in ("dense", "conv"):
            z = (conv_matmat(spec.kernels, spec.conv, v) if spec.kind == "conv"
                 else matmat(spec.weight, v)) + spec.bias[:, None]
            a = np.maximum(z, 0.0) if spec.activation == "relu" else z.copy()
            if mask is not None and idx in mask.bits:
                a[np.repeat(mask.bits[idx], spec.rows_per_unit)] = 0.0
        elif spec.kind in ("avgpool", "maxpool"):
            groups = v.reshape(-1, spec.pool_window, v.shape[1])
            z = groups.mean(axis=1) if spec.kind == "avgpool" else groups.max(axis=1)
            a = z.copy()
        else:  # flatten
            z = v.copy()
            a = v.copy()
        pre.append(z)
        post.append(a)
        v = a
    if not batch:
        pre, post = [z.ravel() for z in pre], [a.ravel() for a in post]
    return ForwardTrace(pre=pre, post=post)


def _keep_indices(net: Network, mask: Mask) -> list[np.ndarray]:
    """Surviving vector positions of the input and of each layer's output."""
    sizes = net.layer_sizes()
    keep = [np.arange(sizes[0])]
    for idx, spec in enumerate(net.layers):
        cur = keep[-1]
        if spec.kind in ("dense", "conv"):
            bits = mask.bits.get(idx, np.zeros(sizes[idx + 1] // spec.rows_per_unit, dtype=bool))
            cur = np.flatnonzero(~np.repeat(bits, spec.rows_per_unit))
        elif spec.kind in ("avgpool", "maxpool"):
            prev_kept = np.zeros(sizes[idx], dtype=bool)
            prev_kept[cur] = True
            groups = prev_kept.reshape(-1, spec.pool_window)
            full = groups.all(axis=1)
            if not np.all(full | ~groups.any(axis=1)):
                raise InvalidArgument(
                    f"layer {idx}: mask removes part of a pooling window; cannot prune structurally"
                )
            cur = np.flatnonzero(full)
        keep.append(cur)
    return keep


def _descriptor(spec: LayerSpec) -> dict:
    """The layer descriptor :func:`build_network` turns back into ``spec``."""
    if spec.kind == "dense":
        return dense(spec.weight.shape[0], spec.activation)
    if spec.kind == "conv":
        c = spec.conv
        return conv(c.out_channels, c.kernel_h, c.kernel_w, c.padding, spec.activation)
    if spec.kind in ("avgpool", "maxpool"):
        return {"kind": spec.kind, "window": spec.pool_window}
    return flatten()


def apply_mask(net: Network, mask: Mask) -> Network:
    """Structurally pruned copy: masked rows and downstream columns removed.

    The pruned network's forward outputs match the masked forward of the
    original within float round-off (identical up to the dropped zeros).
    """
    mask.validate_against(net)
    keep = _keep_indices(net, mask)
    descs: list[dict] = []
    params: list[tuple[np.ndarray, np.ndarray]] = []
    for idx, spec in enumerate(net.layers):
        desc = _descriptor(spec)
        if spec.kind == "dense":
            desc["width"] = keep[idx + 1].size
            params.append((spec.weight[np.ix_(keep[idx + 1], keep[idx])], spec.bias[keep[idx + 1]]))
        elif spec.kind == "conv":
            if keep[idx].size != spec.conv.input_size:
                raise InvalidArgument(f"layer {idx}: conv input cannot be structurally pruned")
            bits = mask.bits.get(idx, np.zeros(spec.conv.out_channels, dtype=bool))
            units = np.flatnonzero(~bits)
            desc["out_channels"] = units.size
            params.append((spec.kernels[units], spec.channel_bias[units]))
        descs.append(desc)
    return build_network(net.input_shape, descs, seed=net.seed, params=params)


def _vector(data, size: int, name: str) -> np.ndarray:
    v = np.array(data, dtype=np.float64)
    if v.shape != (size,):
        raise InvalidArgument(f"{name} has shape {v.shape}, expected ({size},)")
    if not np.all(np.isfinite(v)):
        raise InvalidArgument(f"{name} entries must be finite")
    return v


def build_network(input_shape, layer_descs: list[dict], seed: int = 0,
                  params: list[tuple[np.ndarray, np.ndarray]] | None = None) -> Network:
    """Assemble a Network from layer descriptors and explicit parameters.

    This is the one place layers are made: every network, whether
    initialized, loaded from a file or pruned, comes from here, so shapes and
    finiteness are checked once.
    ``params`` supplies (weight-or-kernels, bias) per parametric layer in
    order; pass None to zero-initialize.  Errors name the layer index.
    """
    input_shape = (input_shape,) if isinstance(input_shape, int) else input_shape
    input_shape = tuple(int(d) for d in input_shape)
    # the shape a layer reads: (channels, h, w) after the input or a conv, else (size,)
    shape = input_shape if len(input_shape) == 3 else (int(np.prod(input_shape)),)
    p_iter = iter(params) if params is not None else None
    layers: list[LayerSpec] = []
    for idx, desc in enumerate(layer_descs):
        kind = desc["kind"]
        in_size = int(np.prod(shape))
        try:
            if kind not in _KINDS:
                raise InvalidArgument(f"unknown kind {kind!r}")
            p = None
            if kind in ("dense", "conv"):
                if desc["activation"] not in _ACTIVATIONS:
                    raise InvalidArgument(f"bad activation {desc['activation']!r}")
                if p_iter is not None:
                    p = next(p_iter, None)
                    if p is None:
                        raise InvalidArgument("no parameters left for this layer")
            if kind == "dense":
                width = desc["width"]
                if width < 1:
                    raise InvalidArgument(f"dense width must be >= 1, got {width}")
                w, b = p or (np.zeros((width, in_size)), np.zeros(width))
                spec = LayerSpec(kind="dense", _weight=as_matrix(w, width, in_size),
                                 _bias=_vector(b, width, "bias"), activation=desc["activation"])
            elif kind == "conv":
                if len(shape) != 3:
                    raise InvalidArgument("conv layer requires a (channels, h, w) input shape")
                c = ConvSpec(in_channels=shape[0], out_channels=desc["out_channels"],
                             kernel_h=desc["kernel_h"], kernel_w=desc["kernel_w"],
                             input_h=shape[1], input_w=shape[2], padding=desc["padding"])
                kern, cb = p or (np.zeros((c.out_channels, c.in_channels, c.kernel_h, c.kernel_w)),
                                 np.zeros(c.out_channels))
                spec = LayerSpec(kind="conv", activation=desc["activation"], conv=c,
                                 kernels=as_kernels(kern, c),
                                 channel_bias=_vector(cb, c.out_channels, "channel bias"))
            elif kind in ("avgpool", "maxpool"):
                if desc["window"] < 1:
                    raise InvalidArgument(f"pool window must be >= 1, got {desc['window']}")
                spec = LayerSpec(kind=kind, pool_window=desc["window"])
            else:
                spec = LayerSpec(kind="flatten")
            size = spec.out_size(in_size)
        except InvalidArgument as exc:
            raise InvalidArgument(f"layer {idx}: {exc}") from exc
        layers.append(spec)
        c = spec.conv
        shape = (c.out_channels, c.output_h, c.output_w) if c is not None else (size,)
    if p_iter is not None and next(p_iter, None) is not None:
        raise InvalidArgument("more parameter pairs than parametric layers")
    net = Network(layers=layers, input_shape=input_shape, seed=seed)
    net.validate()
    return net


def init_network(input_shape, layer_descs: list[dict], seed: int) -> Network:
    """Deterministic init: uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    The same (architecture, seed) pair always produces bit-identical
    parameters; weights and biases share the fan-in bound.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    params: list[tuple[np.ndarray, np.ndarray]] = []
    for spec in build_network(input_shape, layer_descs).layers:
        if spec.kind in ("dense", "conv"):
            shape = spec.weight.shape if spec.kind == "dense" else spec.kernels.shape
            bound = 1.0 / np.sqrt(np.prod(shape[1:]))
            params.append((rng.uniform(-bound, bound, size=shape),
                           rng.uniform(-bound, bound, size=shape[0])))
    return build_network(input_shape, layer_descs, seed=seed, params=params)


# ---------------------------------------------------------------------------
# model files: self-describing text, weights as big-endian float64 hex
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def float_to_hex(x: float) -> str:
    return struct.pack(">d", float(x)).hex()


def hex_to_float(s: str, line: int | None = None) -> float:
    """Decode one 16-digit float64 hex token; ``line`` is named in the error."""
    if len(s) != 16:
        raise ModelFormatError(f"bad float64 hex token {s!r}", line=line)
    try:
        return struct.unpack(">d", bytes.fromhex(s))[0]
    except ValueError as exc:
        raise ModelFormatError(f"bad float64 hex token {s!r}", line=line) from exc


def _hex_block(arr: np.ndarray) -> list[str]:
    """The values of ``arr`` as indented lines of eight hex tokens each."""
    toks = [float_to_hex(v) for v in np.asarray(arr, dtype=np.float64).ravel()]
    return ["  " + " ".join(toks[i : i + 8]) for i in range(0, len(toks), 8)] or ["  "]


def save_network(net: Network, path) -> None:
    net.validate()
    lines = [
        f"format_version {FORMAT_VERSION}",
        "input_shape " + " ".join(str(d) for d in net.input_shape),
        f"seed {net.seed}",
        f"layers {len(net.layers)}",
    ]
    for idx, spec in enumerate(net.layers):
        lines.append(f"layer {idx} {spec.kind}")
        if spec.kind == "dense":
            lines.append(f"activation {spec.activation}")
            lines.append(f"dims {spec.weight.shape[0]} {spec.weight.shape[1]}")
            lines.append("weights")
            lines.extend(_hex_block(spec.weight))
            lines.append("bias")
            lines.extend(_hex_block(spec.bias))
        elif spec.kind == "conv":
            c = spec.conv
            lines.append(f"activation {spec.activation}")
            lines.append(
                f"convspec {c.in_channels} {c.out_channels} {c.kernel_h} {c.kernel_w} "
                f"{c.input_h} {c.input_w} {c.padding}"
            )
            lines.append("kernels")
            lines.extend(_hex_block(spec.kernels))
            lines.append("channel_bias")
            lines.extend(_hex_block(spec.channel_bias))
        elif spec.kind in ("avgpool", "maxpool"):
            lines.append(f"pool_window {spec.pool_window}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


class _Reader:
    def __init__(self, path):
        with open(path, "r", encoding="ascii") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self, expect: str | None = None) -> list[str]:
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            raise ModelFormatError("unexpected end of file", line=len(self.lines))
        toks = self.lines[self.pos].split()
        self.pos += 1
        if expect is not None and toks[0] != expect:
            raise ModelFormatError(f"expected {expect!r}, got {toks[0]!r}", line=self.pos)
        return toks

    def ints(self, expect: str, count: int | None = None) -> tuple[int, ...]:
        """The non-negative integers after keyword ``expect``; ``count`` of them if given."""
        toks = self.next(expect)[1:]
        if (count is not None and len(toks) != count) or not all(t.isdigit() for t in toks):
            raise ModelFormatError(f"bad {expect!r} line", line=self.pos)
        return tuple(int(t) for t in toks)

    def floats(self, count: int) -> np.ndarray:
        vals: list[float] = []
        while len(vals) < count:
            if self.pos >= len(self.lines):
                raise ModelFormatError(
                    f"expected {count} values, file ended after {len(vals)}", line=self.pos
                )
            for tok in self.lines[self.pos].split():
                vals.append(hex_to_float(tok, line=self.pos + 1))
            self.pos += 1
        if len(vals) != count:
            raise ModelFormatError(f"expected {count} values, got {len(vals)}", line=self.pos)
        return np.array(vals, dtype=np.float64)


def load_network(path) -> Network:
    """Parse a model file; bit-exact inverse of :func:`save_network`.

    The file is read into layer descriptors and parameters and handed to
    :func:`build_network`, which checks them as it checks any network; a
    stored ``convspec`` must equal the one the build derives.
    """
    r = _Reader(path)
    (version,) = r.ints("format_version", 1)
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version}", line=r.pos)
    input_shape = r.ints("input_shape")
    (seed,) = r.ints("seed", 1)
    (n_layers,) = r.ints("layers", 1)
    descs: list[dict] = []
    params: list[tuple[np.ndarray, np.ndarray]] = []
    stored: dict[int, tuple[tuple[int, ...], int]] = {}  # conv layer -> (convspec, line)
    for idx in range(n_layers):
        toks = r.next("layer")
        if toks[1:2] != [str(idx)] or len(toks) != 3:
            raise ModelFormatError(f"expected 'layer {idx} <kind>'", line=r.pos)
        kind = toks[2]
        if kind == "dense":
            activation = r.next("activation")[1]
            rows, cols = r.ints("dims", 2)
            r.next("weights")
            w = r.floats(rows * cols).reshape(rows, cols)
            r.next("bias")
            descs.append(dense(rows, activation))
            params.append((w, r.floats(rows)))
        elif kind == "conv":
            activation = r.next("activation")[1]
            cs = r.ints("convspec", 7)
            stored[idx] = (cs, r.pos)
            ic, oc, kh, kw, _, _, pad = cs
            r.next("kernels")
            kern = r.floats(oc * ic * kh * kw).reshape(oc, ic, kh, kw)
            r.next("channel_bias")
            descs.append(conv(oc, kh, kw, pad, activation))
            params.append((kern, r.floats(oc)))
        elif kind in ("avgpool", "maxpool"):
            descs.append({"kind": kind, "window": r.ints("pool_window", 1)[0]})
        elif kind == "flatten":
            descs.append(flatten())
        else:
            raise ModelFormatError(f"layer {idx}: unknown kind {kind!r}", line=r.pos)
    try:
        net = build_network(input_shape, descs, seed=seed, params=params)
    except InvalidArgument as exc:
        raise ModelFormatError(str(exc)) from exc
    for idx, (cs, line) in stored.items():
        c = net.layers[idx].conv
        built = (c.in_channels, c.out_channels, c.kernel_h, c.kernel_w, c.input_h, c.input_w,
                 c.padding)
        if cs != built:
            raise ModelFormatError(
                f"layer {idx}: convspec {cs} does not match the previous layer, which gives "
                f"{built}", line=line)
    return net
