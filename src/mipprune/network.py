"""Network definition, deterministic init, forward pass, masking, and model files.

A network is an ordered list of layers over flat float64 vectors.  Layer
kinds: ``dense``, ``conv`` (stored as kernels but lowered eagerly to a dense
matrix, see :mod:`mipprune.linalg`), ``avgpool`` / ``maxpool`` (consecutive
non-overlapping windows of the previous output), and ``flatten`` (a no-op
marker, kept so conv architectures read naturally).

Maskable units are dense-layer neurons and whole conv feature maps; masking
a feature map zeroes its entire block of lowered-matrix rows.  The final
layer is the logit layer (activation ``none``) and is never maskable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, ModelFormatError
from .linalg import ConvSpec, as_matrix, conv_to_matrix, matvec

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
           weight/bias hold the lowered dense equivalents and are derived.
    avgpool/maxpool: pool_window (window length over the flat input).
    flatten: nothing.
    """

    kind: str
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    activation: str = "none"
    pool_window: int = 0
    conv: ConvSpec | None = None
    kernels: np.ndarray | None = None
    channel_bias: np.ndarray | None = None

    def out_size(self, in_size: int) -> int:
        if self.kind in ("dense", "conv"):
            return self.weight.shape[0]
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
        return int(np.prod(self.input_shape))

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
        if not self.layers:
            raise InvalidArgument("network needs at least one layer")
        sizes = [self.input_size]
        for idx, spec in enumerate(self.layers):
            if spec.kind not in _KINDS:
                raise InvalidArgument(f"layer {idx}: unknown kind {spec.kind!r}")
            if spec.kind in ("dense", "conv"):
                if spec.activation not in _ACTIVATIONS:
                    raise InvalidArgument(f"layer {idx}: bad activation {spec.activation!r}")
                if spec.weight.ndim != 2 or spec.bias.ndim != 1:
                    raise InvalidArgument(f"layer {idx}: weight/bias rank mismatch")
                if spec.weight.shape[0] != spec.bias.size:
                    raise InvalidArgument(f"layer {idx}: bias length != weight rows")
                if spec.weight.shape[1] != sizes[-1]:
                    raise InvalidArgument(
                        f"layer {idx}: expects input {spec.weight.shape[1]}, gets {sizes[-1]}"
                    )
            sizes.append(spec.out_size(sizes[-1]))
        last = self.layers[-1]
        if last.kind not in ("dense",):
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

    def unit_rows(self, layer_idx: int, unit: int) -> range:
        """Rows of the layer's (lowered) weight matrix owned by one unit."""
        spec = self.layers[layer_idx]
        if spec.kind == "dense":
            return range(unit, unit + 1)
        if spec.kind == "conv":
            hw = spec.conv.output_h * spec.conv.output_w
            return range(unit * hw, (unit + 1) * hw)
        raise InvalidArgument(f"layer {layer_idx} has no maskable units")


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
    """Pre- and post-activation vectors of every layer for one input."""

    pre: list[np.ndarray]
    post: list[np.ndarray]

    @property
    def logits(self) -> np.ndarray:
        return self.post[-1]


def _pool(x: np.ndarray, window: int, op: str) -> np.ndarray:
    groups = x.reshape(-1, window)
    if op == "avgpool":
        return groups.mean(axis=1)
    return groups.max(axis=1)


def forward(net: Network, x, mask: Mask | None = None) -> ForwardTrace:
    """Run the network on one flat input, optionally zeroing masked units.

    Masking acts on post-activations: a masked dense neuron or conv feature
    map outputs exactly 0 for every input.
    """
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size != net.input_size:
        raise InvalidArgument(f"input size {v.size}, network expects {net.input_size}")
    if mask is not None:
        mask.validate_against(net)
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = []
    for idx, spec in enumerate(net.layers):
        if spec.kind in ("dense", "conv"):
            z = matvec(spec.weight, v) + spec.bias
            a = np.maximum(z, 0.0) if spec.activation == "relu" else z.copy()
            if mask is not None and idx in mask.bits:
                for unit in np.flatnonzero(mask.bits[idx]):
                    rows = net.unit_rows(idx, int(unit))
                    a[rows.start : rows.stop] = 0.0
        elif spec.kind in ("avgpool", "maxpool"):
            z = _pool(v, spec.pool_window, spec.kind)
            a = z.copy()
        else:  # flatten
            z = v.copy()
            a = v.copy()
        pre.append(z)
        post.append(a)
        v = a
    return ForwardTrace(pre=pre, post=post)


def _keep_indices(net: Network, mask: Mask) -> list[np.ndarray]:
    """Surviving vector positions after each layer under structural pruning."""
    sizes = net.layer_sizes()
    keep: list[np.ndarray] = []
    prev = np.arange(sizes[0])
    for idx, spec in enumerate(net.layers):
        n_out = sizes[idx + 1]
        if spec.kind in ("dense", "conv"):
            kept = np.ones(n_out, dtype=bool)
            if idx in mask.bits:
                for unit in np.flatnonzero(mask.bits[idx]):
                    rows = net.unit_rows(idx, int(unit))
                    kept[rows.start : rows.stop] = False
            cur = np.flatnonzero(kept)
        elif spec.kind in ("avgpool", "maxpool"):
            prev_kept = np.zeros(sizes[idx], dtype=bool)
            prev_kept[keep[idx - 1] if idx > 0 else prev] = True
            groups = prev_kept.reshape(-1, spec.pool_window)
            full = groups.all(axis=1)
            empty = ~groups.any(axis=1)
            if not np.all(full | empty):
                raise InvalidArgument(
                    f"layer {idx}: mask removes part of a pooling window; cannot prune structurally"
                )
            cur = np.flatnonzero(full)
        else:
            cur = keep[idx - 1].copy() if idx > 0 else prev.copy()
        keep.append(cur)
    return keep


def apply_mask(net: Network, mask: Mask) -> Network:
    """Structurally pruned copy: masked rows and downstream columns removed.

    The pruned network's forward outputs match the masked forward of the
    original within float round-off (identical up to the dropped zeros).
    """
    mask.validate_against(net)
    keep = _keep_indices(net, mask)
    sizes = net.layer_sizes()
    new_layers: list[LayerSpec] = []
    for idx, spec in enumerate(net.layers):
        in_keep = keep[idx - 1] if idx > 0 else np.arange(sizes[0])
        if spec.kind == "dense":
            w = spec.weight[np.ix_(keep[idx], in_keep)]
            b = spec.bias[keep[idx]]
            new_layers.append(LayerSpec(kind="dense", weight=w, bias=b, activation=spec.activation))
        elif spec.kind == "conv":
            bits = mask.bits.get(idx)
            units = (
                np.flatnonzero(~bits)
                if bits is not None
                else np.arange(spec.conv.out_channels)
            )
            if in_keep.size != sizes[idx]:
                raise InvalidArgument(f"layer {idx}: conv input cannot be structurally pruned")
            spec2 = ConvSpec(
                in_channels=spec.conv.in_channels,
                out_channels=int(units.size),
                kernel_h=spec.conv.kernel_h,
                kernel_w=spec.conv.kernel_w,
                input_h=spec.conv.input_h,
                input_w=spec.conv.input_w,
                padding=spec.conv.padding,
            )
            kern = spec.kernels[units]
            cb = spec.channel_bias[units]
            new_layers.append(_make_conv_layer(kern, cb, spec2, spec.activation))
        elif spec.kind in ("avgpool", "maxpool"):
            new_layers.append(LayerSpec(kind=spec.kind, pool_window=spec.pool_window))
        else:
            new_layers.append(LayerSpec(kind="flatten"))
    pruned = Network(layers=new_layers, input_shape=net.input_shape, seed=net.seed)
    pruned.validate()
    return pruned


def _make_conv_layer(kernels: np.ndarray, channel_bias: np.ndarray, spec: ConvSpec,
                     activation: str) -> LayerSpec:
    weight = conv_to_matrix(kernels, spec)
    hw = spec.output_h * spec.output_w
    bias = np.repeat(np.asarray(channel_bias, dtype=np.float64), hw)
    return LayerSpec(
        kind="conv", weight=weight, bias=bias, activation=activation,
        conv=spec, kernels=np.asarray(kernels, dtype=np.float64),
        channel_bias=np.asarray(channel_bias, dtype=np.float64),
    )


def build_network(input_shape, layer_descs: list[dict], seed: int = 0,
                  params: list[tuple[np.ndarray, np.ndarray]] | None = None) -> Network:
    """Assemble a Network from layer descriptors and explicit parameters.

    ``params`` supplies (weight-or-kernels, bias) per parametric layer in
    order; pass None to zero-initialize (useful only for tests).
    """
    if isinstance(input_shape, int):
        input_shape = (input_shape,)
    input_shape = tuple(int(d) for d in input_shape)
    sizes = [int(np.prod(input_shape))]
    chan = input_shape[0] if len(input_shape) == 3 else 1
    spatial = input_shape[1:] if len(input_shape) == 3 else None
    layers: list[LayerSpec] = []
    p_iter = iter(params) if params is not None else None
    for desc in layer_descs:
        kind = desc["kind"]
        if kind == "dense":
            width = desc["width"]
            w, b = (next(p_iter) if p_iter else (np.zeros((width, sizes[-1])), np.zeros(width)))
            layers.append(LayerSpec(kind="dense", weight=as_matrix(w, width, sizes[-1]),
                                    bias=np.asarray(b, dtype=np.float64),
                                    activation=desc["activation"]))
            sizes.append(width)
            spatial = None
        elif kind == "conv":
            if spatial is None:
                raise InvalidArgument("conv layer requires a (channels, h, w) input shape")
            spec = ConvSpec(
                in_channels=chan, out_channels=desc["out_channels"],
                kernel_h=desc["kernel_h"], kernel_w=desc["kernel_w"],
                input_h=spatial[0], input_w=spatial[1], padding=desc["padding"],
            )
            if p_iter:
                kern, cb = next(p_iter)
            else:
                kern = np.zeros((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
                cb = np.zeros(spec.out_channels)
            layers.append(_make_conv_layer(np.asarray(kern, dtype=np.float64),
                                           np.asarray(cb, dtype=np.float64),
                                           spec, desc["activation"]))
            sizes.append(spec.output_size)
            chan = spec.out_channels
            spatial = (spec.output_h, spec.output_w)
        elif kind in ("avgpool", "maxpool"):
            window = desc["window"]
            if sizes[-1] % window != 0:
                raise InvalidArgument(f"pool window {window} does not divide size {sizes[-1]}")
            layers.append(LayerSpec(kind=kind, pool_window=window))
            sizes.append(sizes[-1] // window)
            spatial = None
        elif kind == "flatten":
            layers.append(LayerSpec(kind="flatten"))
            sizes.append(sizes[-1])
            spatial = None
        else:
            raise InvalidArgument(f"unknown layer kind {kind!r}")
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


def hex_to_float(s: str) -> float:
    if len(s) != 16:
        raise ModelFormatError(f"bad float64 hex token {s!r}")
    try:
        return struct.unpack(">d", bytes.fromhex(s))[0]
    except ValueError as exc:
        raise ModelFormatError(f"bad float64 hex token {s!r}") from exc


def _hex_block(arr: np.ndarray, per_line: int = 8) -> list[str]:
    toks = [float_to_hex(v) for v in np.asarray(arr, dtype=np.float64).ravel()]
    return ["  " + " ".join(toks[i : i + per_line]) for i in range(0, len(toks), per_line)] or ["  "]


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

    def floats(self, count: int) -> np.ndarray:
        vals: list[float] = []
        while len(vals) < count:
            if self.pos >= len(self.lines):
                raise ModelFormatError(
                    f"expected {count} values, file ended after {len(vals)}", line=self.pos
                )
            for tok in self.lines[self.pos].split():
                vals.append(hex_to_float(tok))
            self.pos += 1
        if len(vals) != count:
            raise ModelFormatError(f"expected {count} values, got {len(vals)}", line=self.pos)
        return np.array(vals, dtype=np.float64)


def load_network(path) -> Network:
    """Parse a model file; bit-exact inverse of :func:`save_network`."""
    r = _Reader(path)
    toks = r.next("format_version")
    if int(toks[1]) != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {toks[1]}", line=r.pos)
    input_shape = tuple(int(t) for t in r.next("input_shape")[1:])
    seed = int(r.next("seed")[1])
    n_layers = int(r.next("layers")[1])
    layers: list[LayerSpec] = []
    in_size = int(np.prod(input_shape))
    for idx in range(n_layers):
        toks = r.next("layer")
        if int(toks[1]) != idx:
            raise ModelFormatError(f"expected layer {idx}, got {toks[1]}", line=r.pos)
        kind = toks[2]
        if kind == "dense":
            activation = r.next("activation")[1]
            dims = r.next("dims")
            rows, cols = int(dims[1]), int(dims[2])
            if cols != in_size:
                raise ModelFormatError(
                    f"layer {idx}: weight cols {cols} do not match input size {in_size}",
                    line=r.pos,
                )
            r.next("weights")
            w = r.floats(rows * cols).reshape(rows, cols)
            r.next("bias")
            b = r.floats(rows)
            layers.append(LayerSpec(kind="dense", weight=w, bias=b, activation=activation))
            in_size = rows
        elif kind == "conv":
            activation = r.next("activation")[1]
            cs = r.next("convspec")
            spec = ConvSpec(
                in_channels=int(cs[1]), out_channels=int(cs[2]), kernel_h=int(cs[3]),
                kernel_w=int(cs[4]), input_h=int(cs[5]), input_w=int(cs[6]), padding=int(cs[7]),
            )
            if spec.input_size != in_size:
                raise ModelFormatError(
                    f"layer {idx}: conv input {spec.input_size} does not match {in_size}",
                    line=r.pos,
                )
            r.next("kernels")
            kern = r.floats(
                spec.out_channels * spec.in_channels * spec.kernel_h * spec.kernel_w
            ).reshape(spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
            r.next("channel_bias")
            cb = r.floats(spec.out_channels)
            layers.append(_make_conv_layer(kern, cb, spec, activation))
            in_size = spec.output_size
        elif kind in ("avgpool", "maxpool"):
            window = int(r.next("pool_window")[1])
            if in_size % window != 0:
                raise ModelFormatError(
                    f"layer {idx}: pool window {window} does not divide size {in_size}",
                    line=r.pos,
                )
            layers.append(LayerSpec(kind=kind, pool_window=window))
            in_size //= window
        elif kind == "flatten":
            layers.append(LayerSpec(kind="flatten"))
        else:
            raise ModelFormatError(f"layer {idx}: unknown kind {kind!r}", line=r.pos)
    net = Network(layers=layers, input_shape=input_shape, seed=seed)
    try:
        net.validate()
    except InvalidArgument as exc:
        raise ModelFormatError(str(exc)) from exc
    return net
