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
[0, max(U, 0)], so it is not written, and a stable active one is the
single row

    h - w.h_prev - max(U, 0) s = b - max(U, 0)            'relu_active'

with the lower row's entries and rhs, bit for bit.  A unit of a layer
without activation (dense, conv or average pool) is an active unit with box
[L, U] and no s, and its row is tagged 'affine_out'.  A hidden unit whose
box is a single point (a stable inactive unit's [0, 0], a linear unit with
L == U, or a max pool over such units only) is a constant of the next
layer, as an input is, and has no variable: its rows keep their variable
entries, and its value moves into their rhs.  A row left with no variable
is not stored; its constant must hold within ``CONST_TOL`` (round-off), or
the bounds are not sound for the point and :func:`encode_network` raises.
(Tjeng, Xiao & Tedrake, ICLR 2019, encode a decided unit linearly too, and
drop the units it switches off.)

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
one ``sense``, ``rhs`` and ``tag`` per row.  Rows are only appended, and
only by ``MipModel.add_rows``, which checks a block, drops its zero
entries and its rows left with no variable, and stores the rest in one
pass.  The encoder appends the network's rows one block a layer and point
(a pool is written as the affine layer of its window means), then each
tangent cut of a solve is one more row.  The solver, the LP writer and the
feasibility check all read these arrays, and the node LP is these rows
over every variable (``MipModel.dense_rows``).  There is no presolve: the
encoder writes a decided unit's rows in their final form, no variable for
a unit its bounds fix, and no selector for a pooled input that another
input's lower bound dominates.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress

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
    "lse_tangent",
    "log_sum_exp",
    "softmax_probs",
]

RESCALE_OFFSETS = {"minus2": -2.0, "minus1": -1.0, "none": 0.0}

CUT_SNAP = 1e-12   # softmax entry below which a tangent drops its logit term
CONST_TOL = 1e-6   # breach a row left with no variable may show (round-off)


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
    ...).  Cuts append rows, so row ids never change.  Every variable has
    two finite bounds.  The node LP is the model itself: ``dense_rows``
    gives the rows as a dense matrix over every variable, cached until a
    row or a variable is added, and ``var_arrays`` the bounds and the
    objective as arrays, cached until a variable or an objective term is
    added.
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
    _rows: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _vars: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    def add_var(self, name: str, kind: str, lb: float, ub: float, binary: bool = False,
                layer: int | None = None, unit: int | None = None,
                point: int | None = None) -> int:
        idx = len(self.variables)
        self.add_vars([VarRef(idx, name, kind, lb, ub, binary, layer, unit, point)])
        return idx

    def add_vars(self, refs: list[VarRef]) -> None:
        """Append variables in one step.  A variable whose id does not
        continue the model's, or with a non-finite bound, is refused, by
        name, and nothing is appended."""
        for idx, v in enumerate(refs, len(self.variables)):
            if v.idx != idx:
                raise InvalidArgument(f"variable {v.name!r} has id {v.idx}, not the next id {idx}")
            if not (math.isfinite(v.lb) and math.isfinite(v.ub)):
                raise InvalidArgument(f"variable {v.name!r} has bounds [{float(v.lb)!r}, "
                                      f"{float(v.ub)!r}]: every variable needs two finite bounds")
        self.variables.extend(refs)
        self._rows = self._vars = None

    def add_constraint(self, coefs: Mapping[int, float], sense: str, rhs: float,
                       tag: str) -> int | None:
        """Append the row ``sum(c * x[j] for j, c in coefs) sense rhs``: the
        block of :meth:`add_rows` with one row.  Returns the new row id, or
        None when the row has no variable and holds."""
        n_rows = len(self.rhs)
        self.add_rows(np.zeros(len(coefs), dtype=np.intp), list(coefs), list(coefs.values()),
                      [sense], [rhs], [tag])
        return n_rows if len(self.rhs) > n_rows else None

    def add_rows(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 sense: list[str] | np.ndarray, rhs: np.ndarray,
                 tag: list[str] | np.ndarray) -> None:
        """Append a block of rows in one step: entry e puts ``vals[e]`` on
        variable ``cols[e]`` in the block's row ``rows[e]``, and block row i
        reads ``sense[i]`` ('L', 'G' or 'E') ``rhs[i]`` with tag ``tag[i]``.

        The entries may come in any order, each variable at most once a row;
        zero coefficients are dropped and each row's entries are stored in
        ascending id order.  A row left with no entry reads ``0 sense rhs``:
        it is not stored when it holds within ``CONST_TOL`` (round-off), and
        refused when it does not.  Nothing is appended when a row names a
        variable the model does not have, another sense, non-finite data or
        a broken constant.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.int64)
        sense, tag = np.asarray(sense).tolist(), np.asarray(tag).tolist()
        rhs = np.asarray(rhs, dtype=np.float64)
        bad = np.flatnonzero((cols < 0) | (cols >= len(self.variables)))
        if bad.size:
            e = bad[np.argmin(rows[bad])]
            raise InvalidArgument(f"constraint {tag[rows[e]]!r} names variable {cols[e]}, "
                                  f"not in [0, {len(self.variables)})")
        bad = [i for i, s in enumerate(sense) if s not in ("L", "G", "E")]
        if bad:
            raise InvalidArgument(f"constraint {tag[bad[0]]!r} has sense {sense[bad[0]]!r}, "
                                  "not 'L', 'G' or 'E'")
        vals = np.asarray(vals, dtype=np.float64)
        on = vals != 0.0
        rows, cols, vals = rows[on], cols[on], vals[on]
        if not (np.isfinite(vals).all() and np.isfinite(rhs).all()):
            nan_rows = np.bincount(rows, weights=~np.isfinite(vals), minlength=rhs.size) > 0
            i = np.flatnonzero(~np.isfinite(rhs) | nan_rows)[0]
            raise InvalidArgument(f"constraint {tag[i]!r} has non-finite data")
        count = np.bincount(rows, minlength=rhs.size)
        kept = count > 0
        if not kept.all():
            s = np.array(sense)
            breach = np.where(s == "L", -rhs, np.where(s == "G", rhs, np.abs(rhs)))
            broken = np.flatnonzero(~kept & (breach > CONST_TOL))
            if broken.size:
                i = broken[0]
                raise InvalidArgument(f"constraint {tag[i]!r} has no variables and is broken "
                                      f"by {float(breach[i])!r}")
            sense, tag = list(compress(sense, kept)), list(compress(tag, kept))
            count, rhs = count[kept], rhs[kept]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
            raise InvalidArgument("a variable appears twice in one row")
        ends = len(self.col_idx) + np.cumsum(count)
        self.col_idx.frombytes(cols.tobytes())
        self.row_val.frombytes(vals.tobytes())
        self.row_ptr.frombytes(ends.astype(np.int64).tobytes())
        self.sense.extend(sense)
        self.rhs.frombytes(rhs.tobytes())
        self.tag.extend(tag)
        self._rows = None

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
        """The node LP's rows, read-only ``(a, sense, rhs)``: ``a`` dense,
        rows by variables.

        ``a`` is C-ordered, and that layout fixes the last bits of the LP
        arithmetic: :mod:`.linalg`'s products sum a row in an order that
        depends on its operand's memory layout, so an F-ordered ``a`` gives
        other round-off, and can give other pivots and another alternate
        optimum.

        Cached until a row or a variable is added, and then written again
        straight from the row store.  (Extended in place by a cut round's
        rows instead, the cached arrays stayed alive between the round's
        tableaux and raised peak RSS by 1-2 MB on the score benchmark, in
        the same time.)
        """
        if self._rows is None:
            a = np.zeros((len(self.rhs), len(self.variables)), dtype=np.float64)
            rows, var, val = self._entries()
            a[rows, var] = val
            self._rows = _frozen(a, np.array(self.sense, dtype="U1"), np.array(self.rhs))
        return self._rows

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, var, val)``: each stored entry's row, variable and
        coefficient, row by row."""
        rows = np.repeat(np.arange(len(self.rhs)), np.diff(self.row_ptr))
        return rows, np.array(self.col_idx, dtype=np.intp), np.array(self.row_val)

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

    An id of -1 is a constant member, whose value is its upper bound.
    Exactly one selector m_i is on; the output x dominates every variable
    input through a row, and every constant one through x's lower bound, and
    is capped by the selected input through the product w_i = h_i m_i,
    linearized with the standard envelope over [0, U_i]; a constant c_i's
    product is c_i m_i itself, so it gets a selector and its select row
    only.  A member another member k dominates, U_i < L_k or U_i <= L_k
    with k < i, gets no selector, product or row: x's lower bound max(L)
    already gives x >= h_i, and the lowest member with the largest L is
    never dominated.  Returns the output variable and the selector and
    product variables keyed by member position.  A window of constants is
    the constant max(U): it gets no variable and no row, and its id is -1.
    """
    uppers = [float(u) for u in uppers]
    if len(uppers) != len(input_vars):
        raise InvalidArgument("one upper bound per pooled input is required")
    if not all(np.isfinite(uppers)):
        raise InvalidArgument("pooled inputs need finite upper bounds")
    lbs = [u if j < 0 else model.variables[j].lb for j, u in zip(input_vars, uppers)]
    lb_pool = max(lbs)
    u_pool = max(uppers)  # deactivated selectors must not cap the pooled max
    m_vars: dict[int, int] = {}
    w_vars: dict[int, int] = {}
    if max(input_vars) < 0:
        return -1, m_vars, w_vars
    out = model.add_var(f"h_{layer}_{group}_{point}", "h", lb_pool, u_pool,
                        layer=layer, unit=group, point=point)
    lb_before = -np.inf  # the largest lower bound of the members before i
    for i, (hj, u) in enumerate(zip(input_vars, uppers)):
        dominated = u < lb_pool or u <= lb_before
        lb_before = max(lb_before, lbs[i])
        if dominated:
            continue
        m = m_vars[i] = model.add_var(f"m_{layer}_{group}_{i}_{point}", "m", 0.0, 1.0,
                                      binary=True, layer=layer, unit=group, point=point)
        if hj < 0:
            # x <= c_i m_i + U_pool (1 - m_i)
            model.add_constraint({out: 1.0, m: u_pool - u}, "L", u_pool, "maxpool_select")
            continue
        w = w_vars[i] = model.add_var(f"w_{layer}_{group}_{i}_{point}", "w", 0.0, max(u, 0.0),
                                      layer=layer, unit=group, point=point)
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
    ``h_j >= lb_j``.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    if not np.all(np.isfinite(anchor)):
        raise InvalidArgument("cut anchor must be finite")
    sig = softmax_probs(anchor)
    rhs = log_sum_exp(anchor) - float(np.dot(sig, anchor))
    coefs = {model.tlse_vars[point]: 1.0}
    for j, s in zip(model.logit_vars[point], sig.tolist()):
        if s < CUT_SNAP:
            rhs += s * model.variables[j].lb
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
                         trace, prev_vars: np.ndarray, prev_const: np.ndarray, hidden: bool,
                         reference: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Add an affine layer's variables for one point, and its rows as one
    block; returns the layer's ``(ids, constants)`` and records the
    reference values of its variables in ``reference``.  Dense, conv and
    average-pool layers all come here: a pool is the weight 1/window on each
    window, with zero bias and no activation.

    Each unit j gets ``h``, then ``z`` when it is an unstable ReLU unit,
    unless it is ``hidden`` and its box is a single point: then it is a
    constant, with id -1 and that point as its constant (0 for every other
    unit).  ``prev_vars`` and ``prev_const`` give the previous layer the
    same way.  Each unit gets the rows the module docstring gives its state;
    a unit of a layer without ReLU is active.  ``s_ids`` holds the
    importance variable of each unit of a prunable layer, None otherwise.
    The terms ``-w.h_prev`` over the previous layer's variables move to the
    left; ``w.h_prev + b`` over its constants is the constant ``pc`` (see
    :func:`_affine_constants`).  "+ 0.0" turns a -0.0 rhs into 0.0, which
    prints as 0.0.
    """
    n_units = weight.shape[0]
    lo = np.asarray(bnd.pre_lo[l_idx], dtype=np.float64)
    hi = np.asarray(bnd.pre_hi[l_idx], dtype=np.float64)
    pc = _affine_constants(weight, bias, prev_const)
    # stable active (L >= 0 < U) and stable inactive (U <= 0) ReLU units are
    # decided by their bounds, and a linear unit is active; only an unstable
    # unit gets a z, right after its h
    active, inactive = ((hi > 0.0) & (lo >= 0.0)) | (not relu), (hi <= 0.0) & relu
    unstable = ~(active | inactive)
    max_u = np.where(0.0 > hi, 0.0, hi)  # max(hi, 0.0), -0.0 kept as Python keeps it
    box_lo, box_hi = (np.zeros(n_units), max_u) if relu else (lo, hi)
    const = hidden & (box_lo == box_hi)
    var, value = ~const, np.where(const, box_lo, 0.0)
    per = var.astype(np.int64) + unstable  # variables per unit
    h = len(model.variables) + np.cumsum(per) - per
    z = h[unstable] + 1
    # -w.h_prev: entry e of unit ju[e] on the previous layer's variable
    ju, ii = np.nonzero(weight)
    live = prev_vars[ii] >= 0
    ju, ii = ju[live], ii[live]
    prev_ids, neg_w = prev_vars[ii], -weight[ju, ii]
    refs: list[VarRef] = []
    for j, (i, lb, ub, has_h, free) in enumerate(zip(h.tolist(), box_lo.tolist(), box_hi.tolist(),
                                                     var.tolist(), unstable.tolist())):
        if has_h:
            refs.append(VarRef(i, f"h_{l_idx}_{j}_{point}", "h", lb, ub, False, l_idx, j, point))
        if free:
            refs.append(VarRef(i + 1, f"z_{l_idx}_{j}_{point}", "z", 0.0, 1.0, True, l_idx, j,
                               point))
    model.add_vars(refs)
    # rows per unit: unstable 3 (upper, cap, lower), stable inactive 2
    # (upper, lower), active 1 (the lower row as an equality)
    on = ~active  # the units with an upper row
    count = np.where(active, 1, np.where(unstable, 3, 2))
    upper = np.cumsum(count) - count
    cap, lower = upper[unstable] + 1, upper + count - 1
    e = on[ju]  # the -w.h_prev entries of the upper rows
    rows = [upper[unstable], upper[unstable], upper[ju[e]], cap, cap, lower[var], lower[ju]]
    cols = [h[unstable], z, prev_ids[e], h[unstable], z, h[var], prev_ids]
    vals = [np.ones(z.size), -lo[unstable], neg_w[e], np.ones(z.size), -hi[unstable],
            np.ones(var.sum()), neg_w]
    shift = np.zeros(n_units)
    if s_ids is not None:
        # -(1 - s) max(U, 0): the s term on the left, the constant in the rhs
        rows += [upper[on], lower]
        cols += [s_ids[on], s_ids]
        vals += [-max_u[on], -max_u]
        shift = max_u
    # h + (1 - z) L <= psum - (1 - s) max(U, 0), with z = 0 and h = 0 when
    # U <= 0;  h <= z U;  h >= psum - (1 - s) max(U, 0), or = when active;
    # a constant h moves its value to the rhs
    rhs, sense = np.zeros(count.sum()), np.full(count.sum(), "L")
    tag = np.full(count.sum(), "relu_upper_on")
    rhs[upper[on]] = ((pc - lo) - shift + 0.0)[on]
    rhs[lower] = pc - shift - value + 0.0
    sense[lower], tag[cap], tag[lower] = "G", "relu_cap", "relu_lower_on"
    sense[lower[active]], tag[lower[active]] = "E", "relu_active" if relu else "affine_out"
    model.add_rows(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), sense, rhs,
                   tag)
    # the binary's reference is the unit's observed state
    z_obs = np.where(np.asarray(trace.pre[l_idx])[unstable] > 0.0, 1.0, 0.0)
    reference.update(zip(z.tolist(), z_obs.tolist()))
    post = np.asarray(trace.post[l_idx], dtype=np.float64)
    reference.update(zip(h[var].tolist(), post[var].tolist()))
    return np.where(const, -1, h), value


def encode_network(net: Network, xs: np.ndarray, ys: np.ndarray,
                   bounds: list[IntervalBounds], lam: float = 5.0,
                   rescale: str = "minus2") -> MipModel:
    """Build the full model for a batch of inputs with one-hot labels ``ys``.

    ``bounds[k]`` must hold the interval bounds of input k.  Inputs enter as
    constants, not variables, as does every hidden unit whose box is a
    single point; epsilon only widens the bounds.  Bounds that switch a
    unit off where the point turns it on break a row with no variable, and
    raise :class:`InvalidArgument`.
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

    if next(s.kind for s in net.layers if s.kind != "flatten") == "maxpool":
        raise InvalidArgument("max pooling directly over the input layer is not supported")
    last = len(net.layers) - 1
    for k in range(xs.shape[0]):
        bnd = bounds[k]
        trace = forward(net, xs[k])
        # the previous layer: its variable ids, -1 for a constant (every input
        # is one), and its constants' values, 0 for a variable
        prev_vars, prev_const = np.full(xs.shape[1], -1), xs[k]
        for l_idx, spec in enumerate(net.layers):
            if l_idx in affine:
                prev_vars, prev_const = _encode_affine_layer(
                    model, *affine[l_idx], s_rows.get(l_idx), l_idx, k, bnd, trace, prev_vars,
                    prev_const, l_idx < last, reference)
            elif spec.kind == "maxpool":
                window = spec.pool_window
                cur, values = [], np.zeros(len(prev_vars) // window)
                for g in range(values.size):
                    members = prev_vars[g * window : (g + 1) * window].tolist()
                    uppers = bnd.post_hi[l_idx - 1][g * window : (g + 1) * window]
                    out, m_vars, w_vars = encode_maxpool(model, members, uppers, l_idx, g, k)
                    cur.append(out)
                    vals = trace.post[l_idx - 1][g * window : (g + 1) * window]
                    best = int(np.argmax(vals))
                    if out < 0:
                        values[g] = max(uppers)
                    else:
                        reference[out] = float(trace.post[l_idx][g])
                    for i, m in m_vars.items():
                        reference[m] = 1.0 if i == best else 0.0
                    for i, w in w_vars.items():
                        reference[w] = float(vals[i]) if i == best else 0.0
                prev_vars, prev_const = np.array(cur, dtype=np.int64), values
        model.logit_vars.append(prev_vars.tolist())
        anchors.append(np.array([reference[j] for j in model.logit_vars[k]]))
        lo, hi = bnd.pre_lo[-1], bnd.pre_hi[-1]  # the logits' box
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
