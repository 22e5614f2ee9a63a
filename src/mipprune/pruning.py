"""Experiment orchestration: scoring, thresholding, baselines, class-by-class
averaging, parameter sweeps, and cross-dataset mask transfer.

Every stochastic choice takes an explicit seed and every artifact
serializes to deterministic text, so reruns with the same seeds are
byte-identical.  Wall-clock timings are kept on the in-memory objects only
and never written to report files.
"""

from __future__ import annotations

import csv
import hashlib
import time
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bounds import propagate_batch
from .datasets import Dataset, balanced_batch
from .encoding import RESCALE_OFFSETS, encode_network
from .errors import InvalidArgument, ModelFormatError
from .network import Mask, Network, apply_mask
from .solver import SolveConfig, solve_mip
from .training import TrainConfig, evaluate, train

__all__ = [
    "ImportanceReport",
    "ExperimentResult",
    "score",
    "score_classwise",
    "mask_from_scores",
    "baselines",
    "compare_baselines",
    "transfer",
    "sweep",
    "save_report",
    "load_report",
    "save_result",
    "write_sweep_csv",
]


@dataclass
class ImportanceReport:
    """Per-unit importance scores plus everything needed to reproduce them."""

    scores: dict[tuple[int, int], float]
    lam: float
    rescale: str
    epsilon: float
    batch_digest: str
    objective: float
    gap: float
    status: str
    node_count: int
    cut_rounds: int
    lp_pivots: int
    threshold: float | None = None
    wall_time: float = 0.0  # in-memory only, excluded from serialization

    def layer_units(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for layer, unit in self.scores:
            out[layer] = max(out.get(layer, 0), unit + 1)
        return out

    def layer_sums(self) -> dict[int, float]:
        """Per-layer sums of (score + rescale offset)."""
        offset = RESCALE_OFFSETS[self.rescale]
        out: dict[int, float] = {}
        for (layer, _), s in sorted(self.scores.items()):
            out[layer] = float(out.get(layer, 0.0) + s + offset)
        return out

    def to_text(self) -> str:
        lines = [
            "importance_report",
            f"lambda {float(self.lam)!r}",
            f"epsilon {float(self.epsilon)!r}",
            f"rescale {self.rescale}",
            f"threshold {'none' if self.threshold is None else repr(float(self.threshold))}",
            f"batch_digest {self.batch_digest}",
            f"objective {float(self.objective)!r}",
            f"gap {float(self.gap)!r}",
            f"status {self.status}",
            f"nodes {self.node_count}",
            f"cut_rounds {self.cut_rounds}",
            f"lp_pivots {self.lp_pivots}",
        ]
        for layer, total in sorted(self.layer_sums().items()):
            lines.append(f"layer_sum {layer} {total!r}")
        lines.append(f"scores {len(self.scores)}")
        for (layer, unit), s in sorted(self.scores.items()):
            lines.append(f"{layer} {unit} {s!r}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode("ascii")).hexdigest()[:16]


def save_report(report: ImportanceReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(report.to_text())


def load_report(path) -> ImportanceReport:
    """Parse a ``report.txt``; a malformed one raises ModelFormatError with its line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "importance_report":
        raise InvalidArgument(f"{path} is not an importance report")
    head: dict[str, tuple[int, str]] = {}   # key -> (line number, value)
    i = 1
    while i < len(lines) and not lines[i].startswith("scores "):
        toks = lines[i].split()
        if len(toks) < 2:
            raise ModelFormatError(f"expected 'key value', got {lines[i]!r}", i + 1)
        if toks[0] != "layer_sum":   # derived, recomputed from scores
            head[toks[0]] = (i + 1, toks[1])
        i += 1
    if i == len(lines):
        raise ModelFormatError("unexpected end of file before the 'scores' line", len(lines))

    def parse(conv, text: str, lineno: int, what: str):
        try:
            return conv(text)
        except ValueError:
            raise ModelFormatError(f"bad {what} {text!r}", lineno) from None

    def field(key: str, conv=str):
        if key not in head:
            raise ModelFormatError(f"missing header key {key!r}", i + 1)
        lineno, text = head[key]
        return parse(conv, text, lineno, key)

    toks = lines[i].split()
    if len(toks) != 2:
        raise ModelFormatError(f"bad 'scores' line {lines[i]!r}", i + 1)
    count = parse(int, toks[1], i + 1, "score count")
    if len(lines) - i - 1 < count:
        raise ModelFormatError(f"expected {count} score lines, got {len(lines) - i - 1}",
                               len(lines))
    scores: dict[tuple[int, int], float] = {}
    where: dict[tuple[int, int], int] = {}   # (layer, unit) -> line number
    for lineno in range(i + 2, i + 2 + count):
        toks = lines[lineno - 1].split()
        if len(toks) != 3:
            raise ModelFormatError("expected 'layer unit score'", lineno)
        layer, unit, s = (parse(conv, t, lineno, "score line")
                          for conv, t in zip((int, int, float), toks))
        if not np.isfinite(s):
            raise ModelFormatError(f"score must be finite, got {toks[2]}", lineno)
        if (layer, unit) in scores:
            raise ModelFormatError(f"duplicate score for layer {layer} unit {unit}", lineno)
        scores[(layer, unit)] = s
        where[(layer, unit)] = lineno
    # n distinct units of a layer are exactly 0..n-1 iff each lies in that range
    n_units = Counter(layer for layer, _ in scores)
    for (layer, unit), lineno in where.items():
        if not 0 <= unit < n_units[layer]:
            raise ModelFormatError(
                f"layer {layer} has {n_units[layer]} scores, so units must be "
                f"0..{n_units[layer] - 1}, got {unit}", lineno)
    return ImportanceReport(
        scores=scores,
        lam=field("lambda", float),
        rescale=field("rescale"),
        epsilon=field("epsilon", float),
        batch_digest=field("batch_digest"),
        objective=field("objective", float),
        gap=field("gap", float),
        status=field("status"),
        node_count=field("nodes", int),
        cut_rounds=field("cut_rounds", int),
        lp_pivots=field("lp_pivots", int),
        threshold=field("threshold", lambda t: None if t == "none" else float(t)),
    )


@dataclass
class ExperimentResult:
    """Accuracies of the compared pruning strategies at equal pruning counts."""

    kind: str
    reference_accuracy: float
    accuracies: dict[str, float]
    prune_pct: float
    masked_per_layer: dict[int, int]
    seeds: dict[str, int]
    threshold: float
    lam: float

    def to_text(self) -> str:
        lines = [
            "experiment_result",
            f"kind {self.kind}",
            f"reference_accuracy {self.reference_accuracy!r}",
        ]
        for name, acc in sorted(self.accuracies.items()):
            lines.append(f"accuracy {name} {acc!r}")
        lines.append(f"prune_pct {self.prune_pct!r}")
        lines.append(
            "masked_per_layer "
            + " ".join(f"{l}:{c}" for l, c in sorted(self.masked_per_layer.items()))
        )
        lines.append("seeds " + " ".join(f"{k}={v}" for k, v in sorted(self.seeds.items())))
        lines.append(f"threshold {self.threshold!r}")
        lines.append(f"lambda {self.lam!r}")
        return "\n".join(lines) + "\n"


def save_result(result: ExperimentResult, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(result.to_text())


def _labels(ys, n_classes: int) -> np.ndarray:
    """``ys`` as int64, once each is known to be an integer in
    [0, n_classes): a negative label would fail in numpy's ``bincount``,
    and a fractional one would be truncated."""
    ys = np.asarray(ys)
    if ys.ndim != 1 or ys.dtype.kind not in "iuf":
        raise InvalidArgument(f"labels must be a 1-d array of numbers, got shape {ys.shape} "
                              f"of {ys.dtype}")
    bad = np.flatnonzero(~((ys >= 0) & (ys < n_classes) & (ys == np.floor(ys))))
    if bad.size:
        raise InvalidArgument(f"label {ys[bad[0]].item()!r} at {int(bad[0])} is not an integer "
                              f"in [0, {n_classes})")
    return ys.astype(np.int64)


def _check_balanced(ys: np.ndarray, n_classes: int, allow_imbalanced: bool) -> None:
    counts = np.bincount(ys, minlength=n_classes)
    if allow_imbalanced:
        return
    if counts.min() < 1 or counts.min() != counts.max():
        raise InvalidArgument(
            "batch is not balanced (equal points per class); pass allow_imbalanced=True "
            "to score anyway"
        )


def score(net: Network, xs: np.ndarray, ys: np.ndarray, lam: float = 5.0,
          epsilon: float = 0.0, rescale: str = "minus2",
          solve_config: SolveConfig | None = None,
          allow_imbalanced: bool = False) -> ImportanceReport:
    """Bounds -> encoding -> warm start -> solve -> extract scores."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = _labels(ys, net.n_classes)
    _check_balanced(ys, net.n_classes, allow_imbalanced)
    t0 = time.perf_counter()
    bounds = propagate_batch(net, xs, epsilon)
    model = encode_network(net, xs, ys, bounds, lam=lam, rescale=rescale)
    sol = solve_mip(model, solve_config, warm=model.reference_assignment)
    return ImportanceReport(
        scores=model.scores(sol.values),
        lam=float(lam),
        rescale=rescale,
        epsilon=float(epsilon),
        batch_digest=model.batch_digest,
        objective=sol.objective,
        gap=sol.gap,
        status=sol.status,
        node_count=sol.node_count,
        cut_rounds=sol.cut_rounds,
        lp_pivots=sol.lp_pivots,
        wall_time=time.perf_counter() - t0,
    )


def score_classwise(net: Network, ds: Dataset, lam: float = 5.0, epsilon: float = 0.0,
                    rescale: str = "minus2",
                    solve_config: SolveConfig | None = None) -> ImportanceReport:
    """Average one-point-per-class solves.

    Runs one model per class with a single data point, in class order, and
    averages the scores.  (Feeding the same points to one model is
    ``score(net, *balanced_batch(ds, 1), ...)``.)  Each solve writes
    ``solve_config.log_path``, so the file left holds the last class's.
    """
    xs, ys = balanced_batch(ds, per_class=1)
    reports = [score(net, xs[c : c + 1], ys[c : c + 1], lam, epsilon, rescale, solve_config,
                     allow_imbalanced=True) for c in range(ds.n_classes)]
    keys = sorted(reports[0].scores)
    avg = {k: float(np.mean([r.scores[k] for r in reports])) for k in keys}
    digest = hashlib.sha256(
        ("classwise:" + ":".join(r.batch_digest for r in reports)).encode("ascii")
    ).hexdigest()[:16]
    return ImportanceReport(
        scores=avg,
        lam=float(lam),
        rescale=rescale,
        epsilon=float(epsilon),
        batch_digest=digest,
        objective=float(np.mean([r.objective for r in reports])),
        gap=max(r.gap for r in reports),
        # the worst of the classes' statuses
        status=max((r.status for r in reports), key=("optimal", "unverified", "limit").index),
        node_count=sum(r.node_count for r in reports),
        cut_rounds=sum(r.cut_rounds for r in reports),
        lp_pivots=sum(r.lp_pivots for r in reports),
        wall_time=sum(r.wall_time for r in reports),
    )


def mask_from_scores(report: ImportanceReport, threshold: float) -> Mask:
    """Mask units scoring strictly below the threshold, never emptying a layer.

    Thresholds outside [0, 1] are clamped with a warning, and NaN is
    rejected.  If a layer would lose every unit, its top scorer survives
    (lowest index on ties) and a warning is emitted.
    """
    if np.isnan(threshold):
        raise InvalidArgument(f"threshold must be a number, got {threshold}")
    if threshold < 0.0 or threshold > 1.0:
        clamped = min(1.0, max(0.0, threshold))
        warnings.warn(f"threshold {threshold} clamped to {clamped}")
        threshold = clamped
    units = report.layer_units()
    bits: dict[int, np.ndarray] = {}
    for layer, n in sorted(units.items()):
        vals = np.array([report.scores[(layer, u)] for u in range(n)])
        b = vals < threshold
        if b.all():
            survivor = int(np.argmax(vals))
            b[survivor] = False
            warnings.warn(
                f"layer {layer}: threshold {threshold} would mask every unit; "
                f"keeping top scorer {survivor}"
            )
        bits[layer] = b
    return Mask(bits)


def baselines(report: ImportanceReport, threshold: float, seed: int) -> dict[str, Mask]:
    """Same per-layer removal counts, three selection rules.

    ``ours`` masks scores below the threshold, ``random`` draws the same
    number of units uniformly (seeded), ``critical`` removes the highest
    scorers instead.
    """
    ours = mask_from_scores(report, threshold)
    rng = np.random.Generator(np.random.PCG64(seed))
    units = report.layer_units()
    rand_bits: dict[int, np.ndarray] = {}
    crit_bits: dict[int, np.ndarray] = {}
    for layer, n in sorted(units.items()):
        c = int(ours.bits[layer].sum())
        rb = np.zeros(n, dtype=bool)
        cb = np.zeros(n, dtype=bool)
        if c:
            rb[rng.choice(n, size=c, replace=False)] = True
            vals = np.array([report.scores[(layer, u)] for u in range(n)])
            order = sorted(range(n), key=lambda u: (-vals[u], u))
            cb[order[:c]] = True
        rand_bits[layer] = rb
        crit_bits[layer] = cb
    return {"ours": ours, "random": Mask(rand_bits), "critical": Mask(crit_bits)}


def prune_fraction(mask: Mask) -> float:
    total = mask.total_units()
    return mask.masked_count() / total if total else 0.0


def _masked_accuracy(net: Network, ds: Dataset, mask: Mask) -> float:
    """Masked-forward accuracy, cross-checked against structural pruning."""
    acc = evaluate(net, ds, mask)
    if not mask.is_empty():
        try:
            structural = evaluate(apply_mask(net, mask), ds)
        except InvalidArgument:
            structural = None  # mask straddles a pooling window; functional path only
        if structural is not None and abs(structural - acc) > 1e-12:
            raise AssertionError(
                f"pruning equivalence violated: masked {acc!r} vs structural {structural!r}"
            )
    return acc


def compare_baselines(net: Network, train_ds: Dataset, eval_ds: Dataset,
                      report: ImportanceReport, threshold: float, seed: int,
                      finetune_cfg: TrainConfig | None = None) -> ExperimentResult:
    """Reference vs {ours, ours+finetune, random, critical} at equal counts."""
    masks = baselines(report, threshold, seed)
    ref_acc = evaluate(net, eval_ds)
    accs: dict[str, float] = {}
    for name, mask in masks.items():
        accs[name] = _masked_accuracy(net, eval_ds, mask)
    if finetune_cfg is not None:
        pruned = apply_mask(net, masks["ours"])
        ft = train(pruned, train_ds, finetune_cfg)
        accs["ours_ft"] = evaluate(ft.net, eval_ds)
    counts = {l: int(b.sum()) for l, b in sorted(masks["ours"].bits.items())}
    return ExperimentResult(
        kind="baselines",
        reference_accuracy=ref_acc,
        accuracies=accs,
        prune_pct=100.0 * prune_fraction(masks["ours"]),
        masked_per_layer=counts,
        seeds={"baseline": seed},
        threshold=threshold,
        lam=report.lam,
    )


def transfer(input_shape, layer_descs: list[dict], seed: int, source_ds: Dataset,
             target_ds: Dataset, target_eval: Dataset, lam: float, threshold: float,
             source_cfg: TrainConfig, target_cfg: TrainConfig,
             epsilon: float = 0.0, rescale: str = "minus2",
             solve_config: SolveConfig | None = None) -> ExperimentResult:
    """Train on source, score, mask, reset to the shared init, retrain on target.

    The reference run retrains the unmasked network from the same
    initialization, so the comparison isolates the transferred mask.
    """
    from .network import init_network

    net0 = init_network(input_shape, layer_descs, seed)
    if source_ds.dim != net0.input_size or target_ds.dim != net0.input_size:
        raise InvalidArgument("source and target datasets must match the network input")
    trained_src = train(net0, source_ds, source_cfg).net
    xs, ys = balanced_batch(source_ds, per_class=1)
    report = score(trained_src, xs, ys, lam, epsilon, rescale, solve_config)
    mask = mask_from_scores(report, threshold)

    reset = init_network(input_shape, layer_descs, seed)
    masked_net = apply_mask(reset, mask) if not mask.is_empty() else reset
    masked_acc = evaluate(train(masked_net, target_ds, target_cfg).net, target_eval)
    ref_acc = evaluate(train(reset, target_ds, target_cfg).net, target_eval)
    counts = {l: int(b.sum()) for l, b in sorted(mask.bits.items())}
    return ExperimentResult(
        kind="transfer",
        reference_accuracy=ref_acc,
        accuracies={"ours": masked_acc},
        prune_pct=100.0 * prune_fraction(mask),
        masked_per_layer=counts,
        seeds={"net": seed, "source_data": source_ds.seed, "target_data": target_ds.seed},
        threshold=threshold,
        lam=lam,
    )


def sweep(net: Network, eval_ds: Dataset, xs: np.ndarray, ys: np.ndarray, kind: str,
          values: list, threshold: float = 0.1, lam: float = 5.0, epsilon: float = 0.0,
          rescale: str = "minus2",
          solve_config: SolveConfig | None = None) -> list[tuple[str, float, float]]:
    """One (setting, masked accuracy, prune %) row per swept value.

    ``kind`` is one of 'lambda', 'threshold', 'rescale'.  Threshold sweeps
    reuse a single scoring run since the scores do not depend on the
    threshold.
    """
    if not values:
        raise InvalidArgument("sweep needs at least one value")
    rows: list[tuple[str, float, float]] = []
    if kind == "threshold":
        report = score(net, xs, ys, lam, epsilon, rescale, solve_config)
        for thr in values:
            mask = mask_from_scores(report, float(thr))
            rows.append((repr(float(thr)), _masked_accuracy(net, eval_ds, mask),
                         100.0 * prune_fraction(mask)))
        return rows
    for v in values:
        if kind == "lambda":
            report = score(net, xs, ys, float(v), epsilon, rescale, solve_config)
            label = repr(float(v))
        elif kind == "rescale":
            report = score(net, xs, ys, lam, epsilon, str(v), solve_config)
            label = str(v)
        else:
            raise InvalidArgument(f"unknown sweep kind {kind!r}")
        mask = mask_from_scores(report, threshold)
        rows.append((label, _masked_accuracy(net, eval_ds, mask),
                     100.0 * prune_fraction(mask)))
    return rows


def write_sweep_csv(rows: list[tuple[str, float, float]], kind: str, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow([kind, "masked_acc", "prune_pct"])
        for label, acc, pct in rows:
            w.writerow([label, repr(acc), repr(pct)])
