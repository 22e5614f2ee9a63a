"""Mixed-integer model of a ReLU network with neuron importance variables.

Variables, per batch point k:

* ``h_l_j_k``  continuous activation of unit j in layer l (post-ReLU for
  hidden layers, raw logits for the output layer, pooled values for pools);
* ``z_l_j_k``  binary on/off state of an unstable ReLU unit (one whose
  bounds leave its state undecided), the only decision the search makes
  for a unit;
* ``t_lse_k``  epigraph value for the log-sum-exp of the logits.

Shared across points:

* ``s_l_u``    importance score in [0, 1], one per prunable unit (hidden
  dense neuron or conv feature map), the quantity this package exists to
  compute;
* ``t_min``   epigraph variable for the smallest per-layer importance sum.

A ReLU unit with pre-activation bounds [L, U] and importance s satisfies

    h >= 0
    h + (1 - z) L <= w.h_prev + b - (1 - s) max(U, 0)     'relu_upper_on'
    h <= z U                                             'relu_cap'
    h >= w.h_prev + b - (1 - s) max(U, 0)                'relu_lower_on'

so an active unit outputs its affine value damped by (1 - s) max(U, 0) and
an inactive one outputs zero; units whose upper bound is never positive can
take s = 0 at no cost.  Bounds come from interval propagation per input
point.  The bounds decide a stable unit's state, so it has no z: it is
active when L >= 0 < U and inactive when U <= 0.  Only an unstable unit
gets z and all three rows.  A stable unit's cap is its h's box
[0, max(U, 0)], so it is not written; a stable inactive unit keeps its
upper row at z = 0, with no z term, and its lower row, and a stable
active one is the single row

    h - w.h_prev - max(U, 0) s = b - max(U, 0)            'relu_active'

with the lower row's entries and rhs, bit for bit (Tjeng, Xiao & Tedrake,
ICLR 2019, encode a decided unit linearly too).

The objective minimizes

    [ sum_l I_l  -  min_l I_l ] / (number of prunable units)
      + lambda * sum_k [ t_lse_k - y_k . h_out_k ]

with I_l the layer sum of (s + offset) for offset in {-2, -1, 0}.  The min
term is linearized through ``t_min <= I_l``; the log-sum-exp epigraph is
enforced by an outer-approximation cut pool seeded with one tangent cut at
the reference logits of every point.

Every variable has two finite bounds, so every node LP is boxed.  Each
``t`` gets a box that no LP optimum touches, with n_l the units of
prunable layer l and [L_k, U_k] the logit bounds of point k:

    t_min    in [min_l n_l offset - 1,  min_l n_l (1 + offset) + 1]
    t_lse_k  in [c0_k - 1,  lse(U_k) + 1]

At an optimum t_min = min_l I_l, which lies in [min_l n_l offset,
min_l n_l (1 + offset)].  c0_k is the seed cut with every logit at L_k, so
every LP implies t_lse_k >= c0_k; lambda > 0 keeps t_lse_k on its cuts,
and no tangent exceeds lse(U_k) on the logit box.

Constraints are stored once, as a compressed row store on ``MipModel``:
``row_ptr`` (row i owns entries ``row_ptr[i]:row_ptr[i + 1]``), ``col_idx``
(variable ids, ascending within a row) and ``row_val`` (coefficients), plus
one ``sense``, ``rhs`` and ``tag`` per row.  Rows are only appended: the
encoder writes the network's rows one layer block at a time (a dense, conv
or average-pool layer's rows for one point are built as arrays and
appended in one step by ``MipModel.add_rows``; a pool is written as the
affine layer of its window means), then each tangent cut of a solve is one
more row.  The solver, the LP writer and the feasibility
check all read these arrays.  The solver reads them through
``MipModel.split_fixed``: the node LP over the variables the model leaves
free, without the rows left with no free column whose constant holds.
There is no other presolve: the encoder already writes a decided unit's
rows in their final form, no ``maxpool_ge`` row over a fixed input, and no
selector for a pooled input that another input's lower bound dominates.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import IntervalBounds
from .errors import InvalidArgument
from .network import Network, forward

__all__ = [
    "VarRef",
    "LpRows",
    "MipModel",
    "RESCALE_OFFSETS",
    "encode_network",
    "encode_maxpool",
    "add_lse_cut",
    "lse_tangent",
    "log_sum_exp",
    "softmax_probs",
]

RESCALE_OFFSETS = {"minus2": -2.0, "minus1": -1.0, "none": 0.0}

INF = float("inf")
CUT_SNAP = 1e-12   # softmax entry below which a tangent drops its logit term


def log_sum_exp(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + float(np.log(np.sum(np.exp(v - m))))


def softmax_probs(v: np.ndarray) -> np.ndarray:
    m = np.max(v)
    e = np.exp(v - m)
    return e / e.sum()


class LpRows(NamedTuple):
    """A model's node LP, as :meth:`MipModel.split_fixed` reads it from the
    row store; every array is read-only.  The model rows missing from
    ``rows`` are those with no free column whose constant holds."""

    cols: np.ndarray   # ids of the variables with lb < ub: the LP's columns
    fixed: np.ndarray  # ids of the variables with lb == ub
    rows: np.ndarray   # the model row each LP row stands for, ascending
    a: np.ndarray      # the LP rows over ``cols``, C-ordered
    sense: np.ndarray
    rhs: np.ndarray    # each LP row's rhs with the fixed variables substituted


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
    the same rows as a dense matrix.  ``split_fixed`` gives the node LP: the
    rows over the variables the model's own bounds leave free, but those
    left empty and holding, cached until a row or variable is added.
    ``var_arrays`` gives the bounds and the objective as arrays, cached
    until a variable or an objective term is added.
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
    _split: LpRows | None = field(default=None, init=False, repr=False, compare=False)
    _vars: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    def add_var(self, name: str, kind: str, lb: float, ub: float, binary: bool = False,
                layer: int | None = None, unit: int | None = None,
                point: int | None = None) -> int:
        idx = len(self.variables)
        self.add_vars([VarRef(idx, name, kind, lb, ub, binary, layer, unit, point)])
        return idx

    def add_vars(self, refs: list[VarRef]) -> None:
        """Append variables in one step; their ids must continue the model's."""
        self.variables.extend(refs)
        self._split = self._vars = None

    def add_constraint(self, coefs: Mapping[int, float], sense: str, rhs: float,
                       tag: str) -> int:
        """Append the row ``sum(c * x[j] for j, c in coefs) sense rhs``.

        Zero coefficients are dropped; returns the new row id.
        """
        self.add_rows(np.zeros(len(coefs), dtype=np.intp), list(coefs), list(coefs.values()),
                      [sense], [rhs], [tag])
        return len(self.rhs) - 1

    def add_rows(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 sense: list[str], rhs: np.ndarray, tag: list[str]) -> None:
        """Append a block of rows in one step: entry e puts ``vals[e]`` on
        variable ``cols[e]`` in the block's row ``rows[e]``, and block row i
        reads ``sense[i]`` ``rhs[i]`` with tag ``tag[i]``.

        The entries may come in any order, each variable at most once a row;
        zero coefficients are dropped and each row's entries are stored in
        ascending id order.  Nothing is appended when a row names a variable
        the model does not have, or has no entry left, or non-finite data.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.int64)
        bad = np.flatnonzero((cols < 0) | (cols >= len(self.variables)))
        if bad.size:
            e = bad[np.argmin(rows[bad])]
            raise InvalidArgument(f"constraint {tag[rows[e]]!r} names variable {cols[e]}, "
                                  f"not in [0, {len(self.variables)})")
        vals = np.asarray(vals, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        on = vals != 0.0
        order = np.lexsort((cols[on], rows[on]))
        rows, cols, vals = rows[on][order], cols[on][order], vals[on][order]
        count = np.bincount(rows, minlength=rhs.size)
        if not (count.all() and np.isfinite(vals).all() and np.isfinite(rhs).all()):
            finite = np.isfinite(rhs) & (np.bincount(rows, weights=~np.isfinite(vals),
                                                     minlength=rhs.size) == 0)
            i = int(np.flatnonzero((count == 0) | ~finite)[0])
            why = "has no variables" if count[i] == 0 else "has non-finite data"
            raise InvalidArgument(f"constraint {tag[i]!r} {why}")
        if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
            raise InvalidArgument("a variable appears twice in one row")
        ends = len(self.col_idx) + np.cumsum(count)
        self.col_idx.frombytes(cols.tobytes())
        self.row_val.frombytes(vals.tobytes())
        self.row_ptr.frombytes(ends.astype(np.int64).tobytes())
        self.sense.extend(sense)
        self.rhs.frombytes(rhs.tobytes())
        self.tag.extend(tag)
        self._split = None

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
        rows, var, val = self._entries()
        a[rows, var] = val
        return _frozen(a, np.array(self.sense, dtype="U1"), np.array(self.rhs))

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, var, val)``: each stored entry's row, variable and
        coefficient, row by row."""
        rows = np.repeat(np.arange(len(self.rhs)), np.diff(self.row_ptr))
        return rows, np.array(self.col_idx, dtype=np.intp), np.array(self.row_val)

    def split_fixed(self) -> LpRows:
        """The node LP's rows, read-only (see :class:`LpRows`): the model's
        rows in row order, each with its model sense, over the variables the
        model leaves free, with the fixed variables (``lb == ub``)
        substituted into each rhs, summed in entry order.

        A row with no free column whose constant holds is left out, an exact
        test on the substituted rhs, so the LP keeps the same feasible set;
        a violated one is kept, so the LP reports the model infeasible.  On
        an encoded network these are, among others, the rows of first-layer
        stable inactive units.  A cut row always has a free ``t_lse``.
        Ref: Andersen & Andersen, "Presolving in linear programming", Math.
        Prog. 71, 1995.

        The LP block is C-ordered, and that layout fixes the last bits of
        the LP arithmetic: :mod:`.linalg`'s products sum a row in an order
        that depends on its operand's memory layout, so an F-ordered block
        gives other round-off, and can give other pivots and another
        alternate optimum.

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
            rows, var, val = self._entries()
            on = is_fixed[var]
            b = np.array(self.rhs) - np.bincount(rows[on], weights=val[on] * lb[var[on]],
                                                 minlength=m)
            sense = np.array(self.sense, dtype="U1")
            kept = np.bincount(rows[~on], minlength=m) > 0
            i = np.flatnonzero(~kept)  # the rows with no free column: kept when violated
            kept[i] = np.where(sense[i] == "L", b[i] < 0.0,
                               np.where(sense[i] == "G", b[i] > 0.0, b[i] != 0.0))
            lp_rows = np.flatnonzero(kept)
            at = np.full(m, -1)  # each model row's LP row, -1 when left out
            at[lp_rows] = np.arange(lp_rows.size)
            pos = np.empty(is_fixed.size, dtype=np.intp)  # each variable's LP column
            pos[cols] = np.arange(cols.size)
            on = ~on & kept[rows]
            a = np.zeros((lp_rows.size, cols.size), dtype=np.float64)
            a[at[rows[on]], pos[var[on]]] = val[on]
            self._split = LpRows(*_frozen(cols, fixed, lp_rows, a, sense[lp_rows], b[lp_rows]))
        return self._split

    def var_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(lb, ub, c)``: each variable's bounds and objective
        coefficient."""
        if self._vars is None:
            c = np.zeros(len(self.variables), dtype=np.float64)
            c[list(self.objective)] = list(self.objective.values())
            self._vars = _frozen(np.array([v.lb for v in self.variables], dtype=np.float64),
                                 np.array([v.ub for v in self.variables], dtype=np.float64), c,
                                 np.array([v.binary for v in self.variables], dtype=bool))
        return self._vars[:3]

    def binary_mask(self) -> np.ndarray:
        """Read-only mask of the binary variables, cached as
        :meth:`var_arrays` is."""
        self.var_arrays()
        return self._vars[3]

    # -- evaluation --------------------------------------------------------

    def n_binary(self) -> int:
        return int(self.binary_mask().sum())

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.objective_const + sum(c * x[j] for j, c in self.objective.items()))

    def check_assignment(self, x: np.ndarray, tol: float = 1e-6) -> list[str]:
        """All violated bounds and constraints: each variable's bound breach
        and then its fractional binary value, in id order, then each violated
        row, in row order."""
        x = np.asarray(x, dtype=np.float64)
        lb, ub, _ = self.var_arrays()
        out = (x < lb - tol) | (x > ub + tol)
        frac = self.binary_mask() & (np.minimum(np.abs(x), np.abs(x - 1.0)) > tol)
        bad: list[str] = []
        for j in np.flatnonzero(out | frac).tolist():
            v = self.variables[j]
            if out[j]:
                bad.append(f"bound of {v.name}: {x[j]!r} not in [{v.lb!r}, {v.ub!r}]")
            if frac[j]:
                bad.append(f"binary {v.name} is fractional: {x[j]!r}")
        rows, var, val = self._entries()
        r = np.bincount(rows, weights=val * x[var], minlength=len(self.rhs)) - np.array(self.rhs)
        sense = np.array(self.sense, dtype="U1")
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
                   point: int) -> tuple[int, dict[int, int], dict[int, int]]:
    """Max of ``input_vars`` via selection binaries and product variables.

    Exactly one selector m_i is on; the output x dominates every input (a
    fixed one through x's lower bound, with no row) and is capped by the
    selected input through the product w_i = h_i m_i, linearized with the
    standard envelope over [0, U_i].  A member another member k dominates,
    U_i < L_k or U_i <= L_k with k < i, gets no selector, product or row:
    x's lower bound max(L) already gives x >= h_i, and the lowest member
    with the largest L is never dominated.  Returns the output variable and
    the selector and product variables keyed by member position.
    """
    uppers = [float(u) for u in uppers]
    if len(uppers) != len(input_vars):
        raise InvalidArgument("one upper bound per pooled input is required")
    if not all(np.isfinite(uppers)):
        raise InvalidArgument("pooled inputs need finite upper bounds")
    lbs = [model.variables[j].lb for j in input_vars]
    lb_pool = max(lbs)
    u_pool = max(uppers)  # deactivated selectors must not cap the pooled max
    out = model.add_var(f"h_{layer}_{group}_{point}", "h", lb_pool, u_pool,
                        layer=layer, unit=group, point=point)
    m_vars: dict[int, int] = {}
    w_vars: dict[int, int] = {}
    lb_before = -INF  # the largest lower bound of the members before i
    for i, (hj, u) in enumerate(zip(input_vars, uppers)):
        dominated = u < lb_pool or u <= lb_before
        lb_before = max(lb_before, lbs[i])
        if dominated:
            continue
        m = m_vars[i] = model.add_var(f"m_{layer}_{group}_{i}_{point}", "m", 0.0, 1.0,
                                      binary=True, layer=layer, unit=group, point=point)
        w = w_vars[i] = model.add_var(f"w_{layer}_{group}_{i}_{point}", "w", 0.0, max(u, 0.0),
                                      layer=layer, unit=group, point=point)
        # x >= h_i, which x's lower bound max(lbs) implies for a fixed h_i
        if model.variables[hj].lb != model.variables[hj].ub:
            model.add_constraint({out: 1.0, hj: -1.0}, "G", 0.0, "maxpool_ge")
        # x <= w_i + U_pool (1 - m_i): binding only for the selected input
        model.add_constraint({out: 1.0, w: -1.0, m: u_pool}, "L", u_pool, "maxpool_select")
        # product envelope: w_i <= U_i m_i ; w_i <= h_i ; w_i >= h_i - U_i (1 - m_i)
        model.add_constraint({w: 1.0, m: -u}, "L", 0.0, "maxpool_prod_cap")
        model.add_constraint({w: 1.0, hj: -1.0}, "L", 0.0, "maxpool_prod_le")
        model.add_constraint({w: 1.0, hj: -1.0, m: -u}, "G", -u, "maxpool_prod_ge")
    model.add_constraint(dict.fromkeys(m_vars.values(), 1.0), "E", 1.0, "maxpool_choose")
    return out, m_vars, w_vars


def lse_tangent(model: MipModel, point: int, anchor: np.ndarray) -> tuple[dict[int, float], float]:
    """Coefficients and rhs of the 'G' row t_lse_k >= lse(anchor) +
    softmax(anchor) . (h - anchor), a supporting hyperplane of the convex
    log-sum-exp, so it never excludes a point of the true epigraph.

    A softmax entry below ``CUT_SNAP`` (a logit 28 under the largest gives
    7e-13) is snapped soundly: its term ``sigma_j h_j`` is dropped and
    ``sigma_j lb_j`` added to the rhs, which only weakens the row since
    ``h_j >= lb_j``.  A logit with no finite lower bound keeps its term.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    if not np.all(np.isfinite(anchor)):
        raise InvalidArgument("cut anchor must be finite")
    sig = softmax_probs(anchor)
    rhs = log_sum_exp(anchor) - float(np.dot(sig, anchor))
    coefs = {model.tlse_vars[point]: 1.0}
    for j, s in zip(model.logit_vars[point], sig.tolist()):
        lb = model.variables[j].lb
        if s < CUT_SNAP and np.isfinite(lb):
            rhs += s * lb
        else:
            coefs[j] = -s
    return coefs, rhs


def add_lse_cut(model: MipModel, point: int, anchor: np.ndarray) -> int:
    """Append the tangent row of :func:`lse_tangent` at ``anchor`` as an
    'lse_cut'; returns its row id."""
    coefs, rhs = lse_tangent(model, point, anchor)
    return model.add_constraint(coefs, "G", rhs, "lse_cut")


def _batch_digest(xs: np.ndarray, ys: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(xs, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(ys, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _affine_constants(weight: np.ndarray, bias: np.ndarray, const: np.ndarray) -> np.ndarray:
    """``weight @ const + bias`` summed input by input over nonzero weights only.

    This order of the sums is part of the encoding: it fixes the last bit of
    every right-hand side, and so the LP text.  A zero constant is skipped:
    its terms are signed zeros, which can change only the sign of a zero
    ``pc``, and every right-hand side built from ``pc`` ends in "+ 0.0".
    """
    pc = np.array(bias, dtype=np.float64)
    for i in np.flatnonzero(const).tolist():
        col = weight[:, i]
        pc = np.where(col != 0.0, pc + col * const[i], pc)
    return pc


def _encode_affine_layer(model: MipModel, weight: np.ndarray, bias: np.ndarray, relu: bool,
                         s_ids: np.ndarray | None, l_idx: int, point: int, bnd: IntervalBounds,
                         trace, prev_vars: np.ndarray | None, prev_const: np.ndarray,
                         reference: dict[int, float]) -> list[int]:
    """Add an affine layer's variables for one point, and its rows as one
    block; returns the layer's ``h`` ids and records their reference values
    (and the binaries') in ``reference``.  Dense, conv and average-pool
    layers all come here: a pool is the weight 1/window on each window,
    with zero bias and no activation.

    Each unit j gets ``h``, then ``z`` when it is an unstable ReLU unit.  A
    ReLU unit gets the rows the module docstring gives its state, any other
    unit one 'affine_out' equality.  ``s_ids`` holds the importance variable
    of each unit of a prunable layer, None otherwise.  The terms
    ``-w.h_prev`` move to the left; ``w.h_prev + b`` over the constants of
    the previous layer is the constant ``pc`` (see
    :func:`_affine_constants`).  "+ 0.0" turns a -0.0 rhs into 0.0, which
    prints as 0.0.
    """
    n_units = weight.shape[0]
    lo = np.asarray(bnd.pre_lo[l_idx], dtype=np.float64)
    hi = np.asarray(bnd.pre_hi[l_idx], dtype=np.float64)
    pc = _affine_constants(weight, bias, prev_const)
    # stable active (L >= 0 < U) and stable inactive (U <= 0) ReLU units are
    # decided by their bounds; only an unstable one gets a z, right after its h
    active, inactive = (hi > 0.0) & (lo >= 0.0), hi <= 0.0
    unstable = relu & ~(active | inactive)
    per = 1 + unstable  # variables per unit
    h = len(model.variables) + np.cumsum(per) - per
    # -w.h_prev: entry e of unit ju[e] on the previous layer's variable
    ju, ii = np.nonzero(weight) if prev_vars is not None else (np.zeros(0, np.intp),) * 2
    prev_ids = np.zeros(0, np.int64) if prev_vars is None else prev_vars[ii]
    neg_w = -weight[ju, ii]
    if not relu:
        model.add_vars([VarRef(i, f"h_{l_idx}_{j}_{point}", "h", lb, ub, False, l_idx, j, point)
                        for j, (i, lb, ub) in enumerate(zip(h.tolist(), lo.tolist(),
                                                            hi.tolist()))])
        model.add_rows(np.concatenate([np.arange(n_units), ju]),
                       np.concatenate([h, prev_ids]),
                       np.concatenate([np.ones(n_units), neg_w]),
                       ["E"] * n_units, pc + 0.0, ["affine_out"] * n_units)
    else:
        max_u = np.where(0.0 > hi, 0.0, hi)  # max(hi, 0.0), -0.0 kept as Python keeps it
        refs: list[VarRef] = []
        for j, (i, u, free) in enumerate(zip(h.tolist(), max_u.tolist(), unstable.tolist())):
            refs.append(VarRef(i, f"h_{l_idx}_{j}_{point}", "h", 0.0, u, False, l_idx, j, point))
            if free:
                refs.append(VarRef(i + 1, f"z_{l_idx}_{j}_{point}", "z", 0.0, 1.0, True, l_idx,
                                   j, point))
        model.add_vars(refs)
        z = h[unstable] + 1
        # rows per unit: unstable 3 (upper, cap, lower), stable inactive 2
        # (upper, lower), stable active 1 (the lower row as an equality)
        on = ~active  # the units with an upper row
        count = np.where(active, 1, np.where(unstable, 3, 2))
        upper = np.cumsum(count) - count
        cap, lower = upper[unstable] + 1, upper + count - 1
        e = on[ju]  # the -w.h_prev entries of the upper rows
        rows = [upper[on], upper[unstable], upper[ju[e]], cap, cap, lower, lower[ju]]
        cols = [h[on], z, prev_ids[e], h[unstable], z, h, prev_ids]
        vals = [np.ones(on.sum()), -lo[unstable], neg_w[e], np.ones(cap.size), -hi[unstable],
                np.ones(n_units), neg_w]
        shift = np.zeros(n_units)
        if s_ids is not None:
            # -(1 - s) max(U, 0): the s term on the left, the constant in the rhs
            rows += [upper[on], lower]
            cols += [s_ids[on], s_ids]
            vals += [-max_u[on], -max_u]
            shift = max_u
        # h + (1 - z) L <= psum - (1 - s) max(U, 0), with z = 0 when U <= 0;
        # h <= z U;  h >= psum - (1 - s) max(U, 0), or = when L >= 0 < U
        rhs, sense = np.zeros(count.sum()), np.full(count.sum(), "L")
        tag = np.full(count.sum(), "relu_upper_on")
        rhs[upper[on]] = ((pc - lo) - shift + 0.0)[on]
        rhs[lower] = pc - shift + 0.0
        sense[lower], tag[cap], tag[lower] = "G", "relu_cap", "relu_lower_on"
        sense[lower[active]], tag[lower[active]] = "E", "relu_active"
        model.add_rows(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                       sense.tolist(), rhs, tag.tolist())
        # the binary's reference is the unit's observed state
        z_obs = np.where(np.asarray(trace.pre[l_idx])[unstable] > 0.0, 1.0, 0.0)
        reference.update(zip(z.tolist(), z_obs.tolist()))
    ids = h.tolist()
    reference.update(zip(ids, np.asarray(trace.post[l_idx], dtype=np.float64).tolist()))
    return ids


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
    if not (np.isfinite(lam) and lam > 0):
        raise InvalidArgument(f"lambda must be positive and finite, got {lam}")
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

    # the box of min_l I_l, widened by 1: no LP optimum touches it
    layer_consts = [n * (1.0 + offset) for _, n in model.prunable]
    t_min = model.add_var("t_min", "t_min", min(n * offset for _, n in model.prunable) - 1.0,
                          min(layer_consts) + 1.0)
    model.add_objective_term(t_min, -1.0 / n_prunable)
    for layer, n_units in model.prunable:
        coefs = {t_min: 1.0, **{model.s_vars[(layer, u)]: -1.0 for u in range(n_units)}}
        model.add_constraint(coefs, "L", offset * n_units, "min_layer_epigraph")

    # the importance variable of each weight row of a prunable layer
    s_rows = {layer: np.repeat([model.s_vars[(layer, u)] for u in range(n_units)],
                               net.layers[layer].rows_per_unit)
              for layer, n_units in model.prunable}
    reference: dict[int, float] = {}
    anchors: list[np.ndarray] = []  # each point's reference logits: its seed cut's anchor
    # (weight, bias, relu) of each affine layer, read once: a conv's weight
    # is lowered on every read, and a window mean is affine with weight
    # 1/window on each window
    affine: dict[int, tuple[np.ndarray, np.ndarray, bool]] = {}
    for l_idx, (spec, size) in enumerate(zip(net.layers, net.layer_sizes()[1:])):
        if spec.kind in ("dense", "conv"):
            affine[l_idx] = (spec.weight, spec.bias, spec.activation == "relu")
        elif spec.kind == "avgpool":
            window = spec.pool_window
            affine[l_idx] = (np.kron(np.eye(size), np.full(window, 1.0 / window)),
                             np.zeros(size), False)

    for k in range(xs.shape[0]):
        bnd = bounds[k]
        trace = forward(net, xs[k])
        # the previous layer: its variable ids (None while it is the input,
        # which enters as constants) and its constant values
        prev_vars: np.ndarray | None = None
        prev_const = xs[k]
        for l_idx, spec in enumerate(net.layers):
            if l_idx in affine:
                cur = _encode_affine_layer(model, *affine[l_idx], s_rows.get(l_idx), l_idx, k,
                                           bnd, trace, prev_vars, prev_const, reference)
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
                    for i, m in m_vars.items():
                        reference[m] = 1.0 if i == best else 0.0
                        reference[w_vars[i]] = float(vals[i]) if i == best else 0.0
            else:  # flatten
                continue
            prev_vars = np.array(cur, dtype=np.int64)
            prev_const = np.zeros(len(cur))
        model.logit_vars.append(prev_vars.tolist())
        anchors.append(np.array([reference[j] for j in model.logit_vars[k]]))
        lb, ub, _ = model.var_arrays()
        lo, hi = lb[model.logit_vars[k]], ub[model.logit_vars[k]]
        # the seed tangent at the logits' lower bounds, which every LP implies,
        # and the largest log-sum-exp, which lambda > 0 keeps every LP under
        seed = log_sum_exp(anchors[k]) + float(np.dot(softmax_probs(anchors[k]), lo - anchors[k]))
        t = model.add_var(f"t_lse_{k}", "t_lse", seed - 1.0, log_sum_exp(hi) + 1.0, point=k)
        model.tlse_vars.append(t)
        model.add_objective_term(t, lam)
        reference[t] = log_sum_exp(trace.logits)
        model.add_objective_term(model.logit_vars[k][int(ys[k])], -lam)

    # importance defaults and epigraph reference values
    for key, idx in model.s_vars.items():
        reference[idx] = 1.0
    reference[t_min] = min(layer_consts)

    for k, anchor in enumerate(anchors):
        add_lse_cut(model, k, anchor)

    x_ref = np.zeros(len(model.variables), dtype=np.float64)
    for idx, val in reference.items():
        x_ref[idx] = val
    model.reference_assignment = x_ref
    return model
