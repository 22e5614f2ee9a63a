"""Deterministic toy datasets used by the pruning experiments.

Three generators, all reproducible bit-for-bit from (name, seed):

* ``blobs``      Gaussian clusters in low dimension, one per class.
* ``moons``      two interleaved half circles in 2-D, two classes.
* ``minidigits`` procedurally rendered 8x8 digit glyphs with pixel noise,
                 ten classes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ModelFormatError
from .network import _hex_block, _Reader

__all__ = ["Dataset", "make_dataset", "split_dataset", "balanced_batch",
           "save_dataset", "load_dataset"]


@dataclass
class Dataset:
    name: str
    inputs: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, n_classes)
    n_classes: int
    seed: int

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise InvalidArgument("inputs must be (n, d), labels (n,)")
        if self.inputs.shape[0] != self.labels.size:
            raise InvalidArgument("inputs and labels disagree on n")
        if self.labels.size == 0:
            raise InvalidArgument("dataset is empty")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise InvalidArgument("labels out of range")
        counts = np.bincount(self.labels, minlength=self.n_classes)
        if (counts == 0).any():
            raise InvalidArgument("every class must be non-empty")

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.inputs.tobytes())
        h.update(self.labels.astype(np.int64).tobytes())
        return h.hexdigest()[:16]


# 5x7 glyph rows per digit, '#' = ink; padded into the 8x8 canvas.
_GLYPHS = {
    0: (" ### ", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    1: ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    2: (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    3: (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    4: ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    5: ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    6: (" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "),
    7: ("#####", "    #", "   # ", "  #  ", "  #  ", "  #  ", "  #  "),
    8: (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    9: (" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "),
}


def _glyph_image(digit: int) -> np.ndarray:
    img = np.zeros((8, 8), dtype=np.float64)
    rows = _GLYPHS[digit]
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch == "#":
                img[r, c + 1] = 1.0
    return img


_NOISE = 0.1  # standard deviation of the moons jitter and the minidigits pixel noise


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Independent child stream; the same (seed, key) always replays exactly."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,) + key)))


def make_dataset(name: str, n_per_class: int, seed: int, *, n_classes: int | None = None,
                 dim: int = 2, separation: float = 6.0) -> Dataset:
    """Generate one of the toy datasets.

    blobs: ``n_classes`` (default 4) unit-variance Gaussian clusters whose
    centers sit ``separation`` standard deviations apart on a seeded random
    layout in ``dim`` dimensions (2..8).
    moons: two half circles with Gaussian noise; n_classes fixed at 2.
    minidigits: glyphs for digits 0..9 with additive pixel noise.

    Each class draws from its own child stream, so growing ``n_per_class``
    extends every class without changing the points already generated;
    combined with :func:`split_dataset` this yields train/eval splits from
    one distribution.
    """
    if n_per_class < 2:
        raise InvalidArgument("n_per_class must be >= 2")
    if name == "blobs":
        k = 4 if n_classes is None else n_classes
        if k < 2:
            raise InvalidArgument("blobs needs >= 2 classes")
        if not 2 <= dim <= 8:
            raise InvalidArgument("blobs dim must be in [2, 8]")
        # centers equally spaced on a seeded random circle, jittered, then scaled
        # so the closest pair sits exactly `separation` apart; keeps the data
        # scale bounded for every seed
        center_rng = _stream(seed, 0)
        basis = np.linalg.qr(center_rng.normal(size=(dim, dim)))[0][:, :2]
        angles = 2.0 * np.pi * (np.arange(k) / k) + center_rng.uniform(0.0, 2.0 * np.pi)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        centers = ring @ basis.T + 0.05 * center_rng.normal(size=(k, dim))
        dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        min_gap = dists[~np.eye(k, dtype=bool)].min()
        centers *= separation / min_gap
        xs, ys = [], []
        for c in range(k):
            xs.append(centers[c] + _stream(seed, 1, c).normal(size=(n_per_class, dim)))
            ys.append(np.full(n_per_class, c, dtype=np.int64))
        return Dataset(name, np.concatenate(xs), np.concatenate(ys), k, seed)
    if name == "moons":
        if n_classes not in (None, 2):
            raise InvalidArgument("moons has exactly 2 classes")
        xs = []
        for c in range(2):
            t = _stream(seed, 1, c).uniform(0.0, np.pi, size=n_per_class)
            if c == 0:
                arc = np.stack([np.cos(t), np.sin(t)], axis=1)
            else:
                arc = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
            xs.append(arc + _stream(seed, 2, c).normal(scale=_NOISE, size=(n_per_class, 2)))
        labels = np.concatenate(
            [np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64)]
        )
        return Dataset(name, np.concatenate(xs), labels, 2, seed)
    if name == "minidigits":
        if n_classes not in (None, 10):
            raise InvalidArgument("minidigits has exactly 10 classes")
        xs, ys = [], []
        for digit in range(10):
            base = _glyph_image(digit).ravel()
            pics = base[None, :] + _stream(seed, 1, digit).normal(scale=_NOISE, size=(n_per_class, 64))
            xs.append(np.clip(pics, 0.0, 1.0))
            ys.append(np.full(n_per_class, digit, dtype=np.int64))
        return Dataset(name, np.concatenate(xs), np.concatenate(ys), 10, seed)
    raise InvalidArgument(f"unknown dataset {name!r}")


def split_dataset(ds: Dataset, train_per_class: int) -> tuple[Dataset, Dataset]:
    """Deterministic split: first ``train_per_class`` of each class vs the rest."""
    if train_per_class < 1:
        raise InvalidArgument("train_per_class must be >= 1")
    train_idx: list[int] = []
    eval_idx: list[int] = []
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == c)
        if members.size <= train_per_class:
            raise InvalidArgument(
                f"class {c} has {members.size} points, cannot hold out any after "
                f"{train_per_class} for training"
            )
        train_idx.extend(members[:train_per_class].tolist())
        eval_idx.extend(members[train_per_class:].tolist())
    tr = np.array(train_idx, dtype=np.intp)
    ev = np.array(eval_idx, dtype=np.intp)
    train = Dataset(ds.name, ds.inputs[tr].copy(), ds.labels[tr].copy(), ds.n_classes, ds.seed)
    evald = Dataset(ds.name, ds.inputs[ev].copy(), ds.labels[ev].copy(), ds.n_classes, ds.seed)
    return train, evald


def balanced_batch(ds: Dataset, per_class: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """First ``per_class`` points of every class, in class order.

    Deterministic by construction; this is the default batch fed to the
    scoring model.
    """
    if per_class < 1:
        raise InvalidArgument("per_class must be >= 1")
    idx: list[int] = []
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == c)
        if members.size < per_class:
            raise InvalidArgument(f"class {c} has only {members.size} points, need {per_class}")
        idx.extend(members[:per_class].tolist())
    sel = np.array(idx, dtype=np.intp)
    return ds.inputs[sel].copy(), ds.labels[sel].copy()


def save_dataset(ds: Dataset, path) -> None:
    lines = [
        f"dataset {ds.name}",
        f"seed {ds.seed}",
        f"n_classes {ds.n_classes}",
        f"shape {ds.inputs.shape[0]} {ds.inputs.shape[1]}",
        "labels " + " ".join(str(int(v)) for v in ds.labels),
        "inputs",
        *_hex_block(ds.inputs),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    """Parse a ``.ds`` file written by ``save_dataset``; a malformed one raises
    ModelFormatError naming its line."""
    r = _Reader(path)
    toks = r.next("dataset")
    if len(toks) != 2:
        raise ModelFormatError("expected 'dataset <name>'", line=r.pos)
    (seed,) = r.ints("seed", 1)
    (n_classes,) = r.ints("n_classes", 1)
    n, d = r.ints("shape", 2)
    labels = np.array(r.ints("labels", n), dtype=np.int64)
    r.next("inputs")
    first = r.pos
    vals = r.floats(n * d)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        ends = np.cumsum([len(line.split()) for line in r.lines[first:r.pos]])
        raise ModelFormatError("non-finite input value",
                               line=first + 1 + int(np.searchsorted(ends, bad[0], side="right")))
    if any(line.strip() for line in r.lines[r.pos:]):
        raise ModelFormatError(f"more than {n * d} input values", line=r.pos + 1)
    return Dataset(toks[1], vals.reshape(n, d), labels, n_classes, seed)
