"""Mixed-integer model of a ReLU network with neuron importance variables.

Variables, per batch point k:

* ``h_l_j_k``  continuous activation of unit j in layer l (post-ReLU for
  hidden layers, raw logits for the output layer, pooled values for pools);
* ``z_l_j_k``  binary on/off state of a ReLU unit;
* ``t_lse_k``  epigraph value for the log-sum-exp of the logits.

Shared across points:

* ``s_l_u``    importance score in [0, 1], one per prunable unit (hidden
  dense neuron or conv feature map), the quantity this package exists to
  compute;
* ``t_min``   epigraph variable for the smallest per-layer importance sum.

A ReLU unit with pre-activation bounds [L, U] and importance s satisfies

    h >= 0
    h + (1 - z) L <= w.h_prev + b - (1 - s) max(U, 0)
    h <= z U
    h >= w.h_prev + b - (1 - s) max(U, 0)

so an active unit outputs its affine value damped by (1 - s) max(U, 0) and
an inactive one outputs zero; units whose upper bound is never positive can
take s = 0 at no cost.  Bounds come from interval propagation per input
point.  Units with U <= 0 have z fixed to 0 and units with L >= 0 have z
fixed to 1 before solving.

The objective minimizes

    [ sum_l I_l  -  min_l I_l ] / (number of prunable units)
      + lambda * sum_k [ t_lse_k - y_k . h_out_k ]

with I_l the layer sum of (s + offset) for offset in {-2, -1, 0}.  The min
term is linearized through ``t_min <= I_l``; the log-sum-exp epigraph is
enforced by an outer-approximation cut pool seeded with one tangent cut at
the reference logits of every point.

Constraints are stored once, as a compressed row store on ``MipModel``:
``row_ptr`` (row i owns entries ``row_ptr[i]:row_ptr[i + 1]``), ``col_idx``
(variable ids, ascending within a row) and ``row_val`` (coefficients), plus
one ``sense``, ``rhs`` and ``tag`` per row.  Rows are only appended: the
encoder writes the network's rows, then each tangent cut of a solve is one
more row.  The solver, the LP writer and the feasibility check all read
these arrays.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .bounds import IntervalBounds
from .errors import InvalidArgument
from .network import Network, forward

__all__ = [
    "VarRef",
    "MipModel",
    "RESCALE_OFFSETS",
    "encode_network",
    "encode_maxpool",
    "add_lse_cut",
    "log_sum_exp",
    "softmax_probs",
]

RESCALE_OFFSETS = {"minus2": -2.0, "minus1": -1.0, "none": 0.0}

INF = float("inf")


def log_sum_exp(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + float(np.log(np.sum(np.exp(v - m))))


def softmax_probs(v: np.ndarray) -> np.ndarray:
    m = np.max(v)
    e = np.exp(v - m)
    return e / e.sum()


@dataclass
class VarRef:
    idx: int
    name: str
    kind: str  # 'h', 'z', 's', 'm', 'w', 't_lse', 't_min'
    lb: float
    ub: float
    binary: bool = False
    layer: int | None = None
    unit: int | None = None
    point: int | None = None


@dataclass
class MipModel:
    """Variables, constraint rows, objective, and cut pool of one encoding.

    Row i reads ``sum(row_val[e] * x[col_idx[e]]) sense[i] rhs[i]`` over the
    entries e in ``row_ptr[i]:row_ptr[i + 1]``, with sense 'L' (<=), 'G' (>=)
    or 'E' (=); ``tag[i]`` names the kind of row (``relu_cap``, ``lse_cut``,
    ...).  Cuts append rows, so row ids never change.  ``dense_rows`` gives
    the same rows as a dense matrix, and ``split_fixed`` its columns split by
    whether the variable's own bounds fix it, cached until a row or variable
    is added.  ``var_arrays`` gives the bounds and the objective as arrays,
    cached until a variable or an objective term is added.
    """

    variables: list[VarRef] = field(default_factory=list)
    row_ptr: array = field(default_factory=lambda: array("q", [0]))
    col_idx: array = field(default_factory=lambda: array("q"))
    row_val: array = field(default_factory=lambda: array("d"))
    sense: list[str] = field(default_factory=list)
    rhs: array = field(default_factory=lambda: array("d"))
    tag: list[str] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    objective_const: float = 0.0
    lam: float = 5.0
    rescale: str = "minus2"
    labels: np.ndarray | None = None
    n_points: int = 0
    # bookkeeping filled by encode_network
    logit_vars: list[list[int]] = field(default_factory=list)   # per point
    tlse_vars: list[int] = field(default_factory=list)          # per point
    s_vars: dict[tuple[int, int], int] = field(default_factory=dict)
    prunable: list[tuple[int, int]] = field(default_factory=list)
    reference_assignment: np.ndarray | None = None
    batch_digest: str = ""
    _split: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _vars: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    def add_var(self, name: str, kind: str, lb: float, ub: float, binary: bool = False,
                layer: int | None = None, unit: int | None = None,
                point: int | None = None) -> int:
        idx = len(self.variables)
        self.variables.append(VarRef(idx, name, kind, lb, ub, binary, layer, unit, point))
        self._split = self._vars = None
        return idx

    def add_constraint(self, coefs: Mapping[int, float], sense: str, rhs: float,
                       tag: str) -> int:
        """Append the row ``sum(c * x[j] for j, c in coefs) sense rhs``.

        Zero coefficients are dropped; returns the new row id.
        """
        entries = sorted((int(j), float(c)) for j, c in coefs.items() if c != 0.0)
        if not entries:
            raise InvalidArgument(f"constraint {tag!r} has no variables")
        if not np.all(np.isfinite([c for _, c in entries])) or not np.isfinite(rhs):
            raise InvalidArgument(f"constraint {tag!r} has non-finite data")
        for j, c in entries:
            self.col_idx.append(j)
            self.row_val.append(c)
        self.row_ptr.append(len(self.col_idx))
        self.sense.append(sense)
        self.rhs.append(rhs)
        self.tag.append(tag)
        self._split = None
        return len(self.rhs) - 1

    def add_objective_term(self, idx: int, coef: float) -> None:
        self.objective[idx] = self.objective.get(idx, 0.0) + coef
        self._vars = None

    # -- rows --------------------------------------------------------------

    @property
    def constraints(self) -> range:
        """Row ids; ``len(model.constraints)`` is the row count."""
        return range(len(self.rhs))

    def row(self, i: int) -> dict[int, float]:
        """Coefficients of row ``i`` as ``{variable id: coefficient}``."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return dict(zip(self.col_idx[lo:hi], self.row_val[lo:hi]))

    def dense_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(a, sense, rhs)`` with ``a`` dense, rows by variables,
        built on each call."""
        a = np.zeros((len(self.rhs), len(self.variables)), dtype=np.float64)
        entry_rows = np.repeat(np.arange(len(self.rhs)), np.diff(self.row_ptr))
        a[entry_rows, np.array(self.col_idx, dtype=np.intp)] = self.row_val
        return _frozen(a, np.array(self.sense, dtype="U1"), np.array(self.rhs))

    def split_fixed(self) -> tuple[np.ndarray, ...]:
        """Read-only ``(cols, fixed, a_cols, a_fixed, sense, rhs)``: the ids of
        the variables with ``lb < ub`` and of those with ``lb == ub``, the
        dense rows' columns for each, and each row's sense and rhs.

        The blocks are C-ordered, and that layout fixes the last bits of the
        LP arithmetic: :mod:`.linalg`'s products sum a row in an order that
        depends on its operand's memory layout, so an F-ordered block gives
        other round-off, and can give other pivots and another alternate
        optimum.

        Cached until a row or a variable is added, and then written again
        straight from the row store.  (Extended in place by a cut round's
        rows instead, the cached arrays stayed alive between the round's
        tableaux and raised peak RSS by 1-2 MB on the score benchmark, in
        the same time.)
        """
        if self._split is None:
            m = len(self.rhs)
            lb, ub, _ = self.var_arrays()
            is_fixed = lb == ub
            cols, fixed = np.flatnonzero(~is_fixed), np.flatnonzero(is_fixed)
            a_cols = np.zeros((m, cols.size), dtype=np.float64)
            a_fixed = np.zeros((m, fixed.size), dtype=np.float64)
            pos = np.empty(is_fixed.size, dtype=np.intp)  # each variable's column in its block
            pos[cols], pos[fixed] = np.arange(cols.size), np.arange(fixed.size)
            rows = np.repeat(np.arange(m), np.diff(self.row_ptr))
            var = np.array(self.col_idx, dtype=np.intp)
            val = np.array(self.row_val)
            on = is_fixed[var]
            a_cols[rows[~on], pos[var[~on]]] = val[~on]
            a_fixed[rows[on], pos[var[on]]] = val[on]
            self._split = _frozen(cols, fixed, a_cols, a_fixed, np.array(self.sense, dtype="U1"),
                                  np.array(self.rhs))
        return self._split

    def var_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(lb, ub, c)``: each variable's bounds and objective
        coefficient."""
        if self._vars is None:
            c = np.zeros(len(self.variables), dtype=np.float64)
            c[list(self.objective)] = list(self.objective.values())
            self._vars = _frozen(np.array([v.lb for v in self.variables], dtype=np.float64),
                                 np.array([v.ub for v in self.variables], dtype=np.float64), c)
        return self._vars

    # -- evaluation --------------------------------------------------------

    def n_binary(self) -> int:
        return sum(1 for v in self.variables if v.binary)

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.objective_const + sum(c * x[j] for j, c in self.objective.items()))

    def check_assignment(self, x: np.ndarray, tol: float = 1e-6) -> list[str]:
        """All violated bounds/constraints, worst first is not guaranteed."""
        bad: list[str] = []
        for v in self.variables:
            if x[v.idx] < v.lb - tol or x[v.idx] > v.ub + tol:
                bad.append(f"bound of {v.name}: {x[v.idx]!r} not in [{v.lb!r}, {v.ub!r}]")
            if v.binary and min(abs(x[v.idx]), abs(x[v.idx] - 1.0)) > tol:
                bad.append(f"binary {v.name} is fractional: {x[v.idx]!r}")
        a, sense, rhs = self.dense_rows()
        r = a @ x - rhs
        viol = np.where(sense == "L", r, np.where(sense == "G", -r, np.abs(r)))
        for i in np.flatnonzero(viol > tol).tolist():
            bad.append(f"constraint {i} [{self.tag[i]}] violated by {float(viol[i])!r}")
        return bad

    def with_exact_lse(self, x: np.ndarray) -> np.ndarray:
        """Copy of ``x`` with each ``t_lse_k`` set to the log-sum-exp of its logits."""
        y = np.array(x, dtype=np.float64)
        for k, t_idx in enumerate(self.tlse_vars):
            y[t_idx] = log_sum_exp(y[self.logit_vars[k]])
        return y

    def true_objective(self, x: np.ndarray) -> float:
        """Objective with the epigraph variables replaced by their exact values."""
        return self.objective_value(self.with_exact_lse(x))

    def decompose(self, x: np.ndarray) -> tuple[float, float]:
        """(sparsity term, softmax term) recomputed from first principles."""
        offset = RESCALE_OFFSETS[self.rescale]
        n_prunable = sum(n for _, n in self.prunable)
        layer_sums = []
        for layer, n in self.prunable:
            layer_sums.append(
                sum(x[self.s_vars[(layer, u)]] + offset for u in range(n))
            )
        sparsity = (sum(layer_sums) - min(layer_sums)) / n_prunable
        soft = 0.0
        for k in range(self.n_points):
            logits = np.array([x[j] for j in self.logit_vars[k]])
            soft += log_sum_exp(logits) - float(logits[self.labels[k]])
        return sparsity, soft

    def scores(self, x: np.ndarray) -> dict[tuple[int, int], float]:
        """Importance scores clamped into [0, 1]."""
        return {
            key: min(1.0, max(0.0, float(x[idx]))) for key, idx in self.s_vars.items()
        }


def _frozen(*arrays: np.ndarray) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def encode_maxpool(model: MipModel, input_vars: list[int], uppers, layer: int, group: int,
                   point: int) -> tuple[int, list[int], list[int]]:
    """Max of ``input_vars`` via selection binaries and product variables.

    Exactly one selector m_i is on; the output x dominates every input and
    is capped by the selected input through the product w_i = h_i m_i,
    linearized with the standard envelope over [0, U_i].  Returns the output
    variable, the selector variables, and the product variables.
    """
    uppers = [float(u) for u in uppers]
    if len(uppers) != len(input_vars):
        raise InvalidArgument("one upper bound per pooled input is required")
    if not all(np.isfinite(uppers)):
        raise InvalidArgument("pooled inputs need finite upper bounds")
    lbs = [model.variables[j].lb for j in input_vars]
    u_pool = max(uppers)  # deactivated selectors must not cap the pooled max
    out = model.add_var(f"h_{layer}_{group}_{point}", "h", max(lbs), u_pool,
                        layer=layer, unit=group, point=point)
    m_vars: list[int] = []
    w_vars: list[int] = []
    for i, (hj, u) in enumerate(zip(input_vars, uppers)):
        m = model.add_var(f"m_{layer}_{group}_{i}_{point}", "m", 0.0, 1.0, binary=True,
                          layer=layer, unit=group, point=point)
        w = model.add_var(f"w_{layer}_{group}_{i}_{point}", "w", 0.0, max(u, 0.0),
                          layer=layer, unit=group, point=point)
        m_vars.append(m)
        w_vars.append(w)
        # x >= h_i
        model.add_constraint({out: 1.0, hj: -1.0}, "G", 0.0, "maxpool_ge")
        # x <= w_i + U_pool (1 - m_i): binding only for the selected input
        model.add_constraint({out: 1.0, w: -1.0, m: u_pool}, "L", u_pool, "maxpool_select")
        # product envelope: w_i <= U_i m_i ; w_i <= h_i ; w_i >= h_i - U_i (1 - m_i)
        model.add_constraint({w: 1.0, m: -u}, "L", 0.0, "maxpool_prod_cap")
        model.add_constraint({w: 1.0, hj: -1.0}, "L", 0.0, "maxpool_prod_le")
        model.add_constraint({w: 1.0, hj: -1.0, m: -u}, "G", -u, "maxpool_prod_ge")
    model.add_constraint(dict.fromkeys(m_vars, 1.0), "E", 1.0, "maxpool_choose")
    return out, m_vars, w_vars


def add_lse_cut(model: MipModel, point: int, anchor: np.ndarray) -> int:
    """Tangent cut t_lse_k >= lse(anchor) + softmax(anchor) . (h - anchor).

    A supporting hyperplane of the convex log-sum-exp, so the cut never
    excludes a point satisfying the true epigraph.  Appends one row.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    if not np.all(np.isfinite(anchor)):
        raise InvalidArgument("cut anchor must be finite")
    sig = softmax_probs(anchor)
    rhs = log_sum_exp(anchor) - float(np.dot(sig, anchor))
    coefs = {model.tlse_vars[point]: 1.0, **dict(zip(model.logit_vars[point], -sig))}
    return model.add_constraint(coefs, "G", rhs, "lse_cut")


def _batch_digest(xs: np.ndarray, ys: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(xs, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(ys, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _affine_constants(weight: np.ndarray, bias: np.ndarray, const: np.ndarray) -> np.ndarray:
    """``weight @ const + bias`` summed input by input over nonzero weights only.

    This order of the sums is part of the encoding: it fixes the last bit of
    every right-hand side, and so the LP text.
    """
    pc = np.array(bias, dtype=np.float64)
    for i in range(weight.shape[1]):
        col = weight[:, i]
        pc = np.where(col != 0.0, pc + col * const[i], pc)
    return pc


def encode_network(net: Network, xs: np.ndarray, ys: np.ndarray,
                   bounds: list[IntervalBounds], lam: float = 5.0,
                   rescale: str = "minus2") -> MipModel:
    """Build the full model for a batch of inputs with one-hot labels ``ys``.

    ``bounds[k]`` must hold the interval bounds of input k.  Inputs enter as
    constants, not variables; epsilon only widens the bounds.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise InvalidArgument("batch must be a non-empty (n, d) array")
    if ys.shape != (xs.shape[0],):
        raise InvalidArgument("labels must be one per batch point")
    if lam <= 0:
        raise InvalidArgument("lambda must be positive")
    if rescale not in RESCALE_OFFSETS:
        raise InvalidArgument(f"unknown rescale mode {rescale!r}")
    if len(bounds) != xs.shape[0]:
        raise InvalidArgument("one IntervalBounds per batch point is required")
    for k, b in enumerate(bounds):
        if len(b.pre_lo) != len(net.layers):
            raise InvalidArgument(f"bounds for point {k} do not cover every layer")
    net.validate()
    n_classes = net.n_classes
    if ys.min() < 0 or ys.max() >= n_classes:
        raise InvalidArgument("label out of range for the network's logit count")

    model = MipModel(lam=float(lam), rescale=rescale, labels=ys.copy(), n_points=xs.shape[0])
    model.prunable = net.prunable_layers()
    model.batch_digest = _batch_digest(xs, ys)
    offset = RESCALE_OFFSETS[rescale]
    n_prunable = sum(n for _, n in model.prunable)
    if n_prunable == 0:
        raise InvalidArgument("network has no prunable units")

    # shared importance variables
    for layer, n_units in model.prunable:
        for u in range(n_units):
            s = model.add_var(f"s_{layer}_{u}", "s", 0.0, 1.0, layer=layer, unit=u)
            model.s_vars[(layer, u)] = s
            model.add_objective_term(s, 1.0 / n_prunable)
    model.objective_const += offset

    t_min = model.add_var("t_min", "t_min", -INF, INF)
    model.add_objective_term(t_min, -1.0 / n_prunable)
    for layer, n_units in model.prunable:
        coefs = {t_min: 1.0, **{model.s_vars[(layer, u)]: -1.0 for u in range(n_units)}}
        model.add_constraint(coefs, "L", offset * n_units, "min_layer_epigraph")

    prunable_set = dict(model.prunable)
    reference: dict[int, float] = {}

    for k in range(xs.shape[0]):
        bnd = bounds[k]
        trace = forward(net, xs[k])
        # the previous layer: its variable ids (None while it is the input,
        # which enters as constants) and its constant values
        prev_vars: np.ndarray | None = None
        prev_const = xs[k]
        for l_idx, spec in enumerate(net.layers):
            if spec.kind in ("dense", "conv"):
                relu = spec.activation == "relu"
                weight = spec.weight
                # w.h_prev + b splits into terms over prev_vars and the constant pc
                pc = _affine_constants(weight, spec.bias, prev_const).tolist()
                cur: list[int] = []
                for j in range(weight.shape[0]):
                    lo = float(bnd.pre_lo[l_idx][j])
                    hi = float(bnd.pre_hi[l_idx][j])
                    neg_terms: dict[int, float] = {}  # -w.h_prev, moved to the left
                    if prev_vars is not None:
                        nz = np.flatnonzero(weight[j])
                        neg_terms = dict(zip(prev_vars[nz].tolist(), (-weight[j, nz]).tolist()))
                    if relu:
                        max_u = max(hi, 0.0)
                        h = model.add_var(f"h_{l_idx}_{j}_{k}", "h", 0.0, max_u,
                                          layer=l_idx, unit=j, point=k)
                        if hi <= 0.0:
                            z_lb = z_ub = 0.0
                        elif lo >= 0.0:
                            z_lb = z_ub = 1.0
                        else:
                            z_lb, z_ub = 0.0, 1.0
                        z = model.add_var(f"z_{l_idx}_{j}_{k}", "z", z_lb, z_ub, binary=True,
                                          layer=l_idx, unit=j, point=k)
                        damp: dict[int, float] = {}
                        if l_idx in prunable_set:
                            damp = {model.s_vars[(l_idx, j // spec.rows_per_unit)]: -max_u}
                        shift = max_u if damp else 0.0
                        # "+ 0.0" turns -0.0 into 0.0: a zero right-hand side prints as 0.0
                        # h + (1 - z) L <= psum - (1 - s) max(U, 0)
                        model.add_constraint({h: 1.0, z: -lo, **neg_terms, **damp}, "L",
                                             (pc[j] - lo) - shift + 0.0, "relu_upper_on")
                        # h <= z U
                        model.add_constraint({h: 1.0, z: -hi}, "L", 0.0, "relu_cap")
                        # h >= psum - (1 - s) max(U, 0)
                        model.add_constraint({h: 1.0, **neg_terms, **damp}, "G",
                                             pc[j] - shift + 0.0, "relu_lower_on")
                        psum_obs = float(trace.pre[l_idx][j])
                        z_obs = 1.0 if psum_obs > 0.0 else 0.0
                        if z_lb == z_ub:
                            z_obs = z_lb
                        reference[z] = z_obs
                    else:
                        h = model.add_var(f"h_{l_idx}_{j}_{k}", "h", lo, hi,
                                          layer=l_idx, unit=j, point=k)
                        model.add_constraint({h: 1.0, **neg_terms}, "E", pc[j] + 0.0, "affine_out")
                    cur.append(h)
                    reference[h] = float(trace.post[l_idx][j])
            elif spec.kind == "avgpool":
                window = spec.pool_window
                n_groups = len(prev_const) // window
                # minus the mean of the constants, summed in window order
                neg_mean = np.zeros(n_groups)
                groups = np.reshape(prev_const[: n_groups * window], (n_groups, window))
                for i in range(window):
                    neg_mean = neg_mean + (-1.0 / window) * groups[:, i]
                cur = []
                for g in range(n_groups):
                    out = model.add_var(f"h_{l_idx}_{g}_{k}", "h",
                                        float(bnd.pre_lo[l_idx][g]), float(bnd.pre_hi[l_idx][g]),
                                        layer=l_idx, unit=g, point=k)
                    coefs = {out: 1.0}
                    if prev_vars is not None:
                        coefs.update(dict.fromkeys(
                            prev_vars[g * window : (g + 1) * window].tolist(), -1.0 / window))
                    model.add_constraint(coefs, "E", 0.0 - float(neg_mean[g]), "avgpool_mean")
                    cur.append(out)
                    reference[out] = float(trace.post[l_idx][g])
            elif spec.kind == "maxpool":
                if prev_vars is None:
                    raise InvalidArgument(
                        "max pooling directly over the input layer is not supported"
                    )
                window = spec.pool_window
                cur = []
                for g in range(len(prev_vars) // window):
                    members = prev_vars[g * window : (g + 1) * window].tolist()
                    uppers = bnd.post_hi[l_idx - 1][g * window : (g + 1) * window]
                    out, m_vars, w_vars = encode_maxpool(model, members, uppers, l_idx, g, k)
                    cur.append(out)
                    vals = trace.post[l_idx - 1][g * window : (g + 1) * window]
                    best = int(np.argmax(vals))
                    reference[out] = float(trace.post[l_idx][g])
                    for i, (m, w) in enumerate(zip(m_vars, w_vars)):
                        reference[m] = 1.0 if i == best else 0.0
                        reference[w] = float(vals[i]) if i == best else 0.0
            else:  # flatten
                continue
            prev_vars = np.array(cur, dtype=np.int64)
            prev_const = np.zeros(len(cur))
        model.logit_vars.append(prev_vars.tolist())
        t = model.add_var(f"t_lse_{k}", "t_lse", -INF, INF, point=k)
        model.tlse_vars.append(t)
        model.add_objective_term(t, lam)
        logits_obs = trace.logits
        reference[t] = log_sum_exp(logits_obs)
        model.add_objective_term(model.logit_vars[k][int(ys[k])], -lam)

    # importance defaults and epigraph reference values
    for key, idx in model.s_vars.items():
        reference[idx] = 1.0
    layer_consts = [n * (1.0 + offset) for _, n in model.prunable]
    reference[t_min] = min(layer_consts)

    for k in range(xs.shape[0]):
        anchor = np.array([reference[j] for j in model.logit_vars[k]])
        add_lse_cut(model, k, anchor)

    x_ref = np.zeros(len(model.variables), dtype=np.float64)
    for idx, val in reference.items():
        x_ref[idx] = val
    model.reference_assignment = x_ref
    return model
