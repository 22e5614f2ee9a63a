"""Checks on a scoring result that do not depend on the bundled solver.

Three independent pieces:

* ``damped_logits`` / ``damped_objective``: the benchmark's own numpy
  forward pass of the damped network,
  ``h = relu(W h + b - (1 - s) * max(U, 0))`` with ``U`` the interval upper
  bound of each pre-activation, and the objective
  ``sparsity + lambda * sum_k (lse(logits_k) - logits_k[y_k])`` recomputed
  from a set of scores.
* ``parse_lp``: a reader for the LP text that ``mipprune.lpformat.write_lp``
  emits (Minimize / Subject To / Bounds / Binaries / End).
* ``highs_bracket``: HiGHS (``scipy.optimize.milp``) inside the benchmark's
  own tangent-cut loop on ``t_lse_k`` and the logits ``h_{L}_{c}_{k}``.
  It brackets the true optimum as [lower, upper]: ``lower`` is the best
  HiGHS dual bound of a relaxation (tangent cuts under-estimate the convex
  log-sum-exp), ``upper`` is ``damped_objective`` at HiGHS's scores.

The model reaches the oracle only through documented interfaces
(``propagate_batch`` -> ``encode_network`` -> ``write_lp``), so a rewrite of
the model's internals cannot change what the oracle checks.  scipy is
imported lazily: the benchmark reads its peak memory before any check runs.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings
from dataclasses import dataclass

import numpy as np

from mipprune import lpformat
from mipprune.bounds import propagate_batch
from mipprune.encoding import encode_network

RESCALE_OFFSETS = {"minus2": -2.0, "minus1": -1.0, "none": 0.0}

# Fixed from the solver's default gap_tol / oa_tol (1e-6 each): the bundled
# solver may stop 1e-6 * max(1, |obj|) short and leave each point's
# log-sum-exp epigraph 1e-6 loose.
REL_TOL = 1e-6
OA_TOL = 1e-6

# The oracle itself works two orders of magnitude finer than those tolerances.
HIGHS_OPTIONS = {"mip_rel_gap": 1e-10, "mip_abs_gap": 1e-10, "time_limit": 60.0,
                 "mip_feasibility_tolerance": 1e-9, "primal_feasibility_tolerance": 1e-9}
CUT_TOL = 1e-8
CLOSE_TOL = 1e-7
MAX_ROUNDS = 200


def lse(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + float(np.log(np.sum(np.exp(v - m))))


def prunable_units(net) -> list[tuple[int, int, int]]:
    """(layer, unit count, rows per unit) of every hidden ReLU layer."""
    out = []
    for idx, spec in enumerate(net.layers[:-1]):
        if spec.kind in ("dense", "conv") and spec.activation == "relu":
            if spec.kind == "dense":
                out.append((idx, spec.weight.shape[0], 1))
            else:
                c = spec.conv
                out.append((idx, c.out_channels, c.output_h * c.output_w))
    return out


def damped_logits(net, x: np.ndarray, upper: list[np.ndarray],
                  scores: dict[tuple[int, int], float]) -> np.ndarray:
    """Logits of the damped network at one input; ``upper[l]`` bounds layer l."""
    rows_per_unit = {layer: (n, r) for layer, n, r in prunable_units(net)}
    h = np.asarray(x, dtype=np.float64).ravel()
    for idx, spec in enumerate(net.layers):
        if spec.kind in ("dense", "conv"):
            z = spec.weight @ h + spec.bias
            if idx in rows_per_unit:
                n, r = rows_per_unit[idx]
                s = np.repeat([scores[(idx, u)] for u in range(n)], r)
                z = z - (1.0 - s) * np.maximum(upper[idx], 0.0)
            h = np.maximum(z, 0.0) if spec.activation == "relu" else z
        elif spec.kind == "avgpool":
            h = h.reshape(-1, spec.pool_window).mean(axis=1)
        elif spec.kind == "maxpool":
            h = h.reshape(-1, spec.pool_window).max(axis=1)
    return h


def damped_objective(net, xs, ys, bounds, scores, lam: float, rescale: str) -> float:
    """sparsity(scores) + lam * sum_k (lse - logit_y) over the damped network."""
    offset = RESCALE_OFFSETS[rescale]
    units = prunable_units(net)
    sums = [sum(scores[(layer, u)] + offset for u in range(n)) for layer, n, _ in units]
    sparsity = (sum(sums) - min(sums)) / sum(n for _, n, _ in units)
    soft = 0.0
    for k in range(xs.shape[0]):
        logits = damped_logits(net, xs[k], bounds[k].pre_hi, scores)
        soft += lse(logits) - float(logits[int(ys[k])])
    return float(sparsity + lam * soft)


# -- LP text -----------------------------------------------------------------


@dataclass
class ParsedLp:
    names: list[str]
    c: np.ndarray
    const: float
    a: np.ndarray            # (m, n) dense
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray       # bool per variable

    def index(self, name: str) -> int:
        return self.names.index(name)


def _terms(tokens: list[str]) -> list[tuple[float, str]]:
    """``c x + c y - c z`` (first coefficient may carry its own sign)."""
    out: list[tuple[float, str]] = []
    sign = 1.0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
            i += 1
            continue
        out.append((sign * float(tok), tokens[i + 1]))
        sign = 1.0
        i += 2
    return out


def parse_lp(text: str) -> ParsedLp:
    """Read the LP layout ``write_lp`` emits; variable order is first use."""
    const = 0.0
    section = None
    obj_terms: list[tuple[float, str]] = []
    rows: list[tuple[list[tuple[float, str]], str, float]] = []
    bounds: dict[str, tuple[float, float]] = {}
    binaries: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            toks = line[1:].split()
            if toks[:2] == ["objective", "constant"]:
                const = float(toks[2])
            continue
        if line in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            section = line
            continue
        if section == "Minimize":
            obj_terms = _terms(line.split(":", 1)[1].split())
        elif section == "Subject To":
            toks = line.split(":", 1)[1].split()
            rows.append((_terms(toks[:-2]), toks[-2], float(toks[-1])))
        elif section == "Bounds":
            toks = line.split()
            if len(toks) == 2 and toks[1] == "free":
                bounds[toks[0]] = (-np.inf, np.inf)
            elif len(toks) == 3 and toks[1] == "=":
                bounds[toks[0]] = (float(toks[2]), float(toks[2]))
            elif len(toks) == 5 and toks[1] == toks[3] == "<=":
                bounds[toks[2]] = (float(toks[0]), float(toks[4]))
            else:
                raise ValueError(f"unreadable bound line {raw!r}")
        elif section == "Binaries":
            binaries.update(line.split())
        else:
            raise ValueError(f"line outside any section: {raw!r}")
    names: list[str] = []
    index: dict[str, int] = {}
    for terms in [obj_terms] + [r[0] for r in rows]:
        for _, name in terms:
            if name not in index:
                index[name] = len(names)
                names.append(name)
    for name in bounds:
        if name not in index:
            index[name] = len(names)
            names.append(name)
    n = len(names)
    c = np.zeros(n)
    for coef, name in obj_terms:
        c[index[name]] += coef
    a = np.zeros((len(rows), n))
    row_lo = np.full(len(rows), -np.inf)
    row_hi = np.full(len(rows), np.inf)
    for i, (terms, sense, rhs) in enumerate(rows):
        for coef, name in terms:
            a[i, index[name]] += coef
        if sense in ("<=", "="):
            row_hi[i] = rhs
        if sense in (">=", "="):
            row_lo[i] = rhs
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    for name, (lo, hi) in bounds.items():
        lb[index[name]], ub[index[name]] = lo, hi
    binary = np.array([name in binaries for name in names], dtype=bool)
    return ParsedLp(names, c, const, a, row_lo, row_hi, lb, ub, binary)


def model_lp_text(net, xs, ys, epsilon: float, lam: float, rescale: str, workdir: str):
    """Bounds and the LP text of a fresh encoding of the instance."""
    bounds = propagate_batch(net, xs, epsilon)
    model = encode_network(net, xs, ys, bounds, lam=lam, rescale=rescale)
    fd, path = tempfile.mkstemp(suffix=".lp", dir=workdir)
    os.close(fd)
    try:
        lpformat.write_lp(model, path)
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    finally:
        os.remove(path)
    return bounds, text


# -- HiGHS bracket -----------------------------------------------------------


@dataclass
class Bracket:
    lower: float
    upper: float
    cut_rounds: int
    highs_s: float            # time inside milp, all rounds
    last_highs_s: float       # time of the final milp solve


def highs_bracket(net, xs, ys, bounds, lp_text: str, lam: float, rescale: str) -> Bracket:
    """Tangent-cut loop around HiGHS until the bracket closes."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp = parse_lp(lp_text)
    last = len(net.layers) - 1
    n_classes = net.layers[-1].weight.shape[0]
    t_idx = [lp.index(f"t_lse_{k}") for k in range(xs.shape[0])]
    logit_idx = [[lp.index(f"h_{last}_{c}_{k}") for c in range(n_classes)]
                 for k in range(xs.shape[0])]
    s_idx = {(layer, u): lp.index(f"s_{layer}_{u}")
             for layer, n, _ in prunable_units(net) for u in range(n)}

    a, row_lo, row_hi = lp.a, lp.row_lo, lp.row_hi
    lower, upper = -np.inf, np.inf
    highs_s = last_s = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            # scipy passes mip_abs_gap to HiGHS verbatim, with a warning
            warnings.simplefilter("ignore", RuntimeWarning)
            res = milp(lp.c, integrality=lp.binary.astype(int), bounds=Bounds(lp.lb, lp.ub),
                       constraints=LinearConstraint(a, row_lo, row_hi), options=HIGHS_OPTIONS)
        last_s = time.perf_counter() - t0
        highs_s += last_s
        if res.x is None or res.status != 0:
            raise RuntimeError(f"HiGHS did not solve the instance: {res.message}")
        lower = max(lower, float(res.mip_dual_bound) + lp.const)
        x = res.x
        scores = {key: min(1.0, max(0.0, float(x[j]))) for key, j in s_idx.items()}
        upper = min(upper, damped_objective(net, xs, ys, bounds, scores, lam, rescale))
        cuts = []
        for k, t in enumerate(t_idx):
            logits = x[logit_idx[k]]
            if lse(logits) - x[t] > CUT_TOL:
                sig = np.exp(logits - lse(logits))
                row = np.zeros(len(lp.names))
                row[t] = 1.0
                row[logit_idx[k]] = -sig
                cuts.append((row, lse(logits) - float(sig @ logits)))
        if not cuts or upper - lower <= CLOSE_TOL * max(1.0, abs(upper)) or rounds >= MAX_ROUNDS:
            break
        rounds += 1
        a = np.vstack([a] + [r for r, _ in cuts])
        row_lo = np.concatenate([row_lo, [b for _, b in cuts]])
        row_hi = np.concatenate([row_hi, np.full(len(cuts), np.inf)])
    return Bracket(lower, upper, rounds, highs_s, last_s)


# -- per-operation checks ----------------------------------------------------


@dataclass
class Instance:
    """One score() call: the network, the batch and the scoring settings."""

    name: str
    net: object
    xs: np.ndarray
    ys: np.ndarray
    lam: float
    epsilon: float
    rescale: str = "minus2"
    allow_imbalanced: bool = False


@dataclass
class Reference:
    """What every report of one instance is checked against."""

    bounds: list
    unpruned: float
    bracket: Bracket


def reference(inst: Instance, workdir: str) -> Reference:
    bounds, text = model_lp_text(inst.net, inst.xs, inst.ys, inst.epsilon, inst.lam,
                                 inst.rescale, workdir)
    ones = {(layer, u): 1.0 for layer, n, _ in prunable_units(inst.net) for u in range(n)}
    unpruned = damped_objective(inst.net, inst.xs, inst.ys, bounds, ones, inst.lam,
                                inst.rescale)
    bracket = highs_bracket(inst.net, inst.xs, inst.ys, bounds, text, inst.lam, inst.rescale)
    return Reference(bounds, unpruned, bracket)


def check_report(inst: Instance, ref: Reference, report, first_text: str) -> list[str]:
    """Names of the checks the report fails, with the numbers that failed."""
    failed: list[str] = []
    obj = float(report.objective)
    rel = REL_TOL * max(1.0, abs(obj))
    if report.status != "optimal":
        failed.append(f"status: {report.status!r} is not 'optimal'")
    expected = {(layer, u) for layer, n, _ in prunable_units(inst.net) for u in range(n)}
    values = list(report.scores.values())
    if set(report.scores) != expected or not all(0.0 <= v <= 1.0 for v in values):
        failed.append(f"scores: {len(report.scores)} keys for {len(expected)} units "
                      f"or a score outside [0, 1]")
        return failed  # the recomputations below need one score per unit
    recomputed = damped_objective(inst.net, inst.xs, inst.ys, ref.bounds, report.scores,
                                  inst.lam, inst.rescale)
    if abs(recomputed - obj) > rel:
        failed.append(f"objective_recomputed: report {obj!r}, damped pass {recomputed!r}")
    if obj > ref.unpruned + rel:
        failed.append(f"no_worse_than_unpruned: {obj!r} > s=1 value {ref.unpruned!r}")
    tol = rel + inst.lam * inst.xs.shape[0] * OA_TOL
    lo, hi = ref.bracket.lower, ref.bracket.upper
    if not lo - tol <= obj <= hi + tol:
        failed.append(f"oracle_bracket: {obj!r} not in [{lo!r}, {hi!r}] +- {tol:.3g}")
    if report.to_text() != first_text:
        failed.append("deterministic: report text differs from the first pass")
    return failed
