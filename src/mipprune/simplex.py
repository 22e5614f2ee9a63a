"""Bounded-variable dense simplex for small linear programs: a two-phase
primal solve from scratch, a primal phase two started at a given vertex,
and a dual simplex warm-started from a basis, all on one tableau layout.

Every variable is one tableau column ``v >= 0`` with ``x = base + dirn * v``:
shifted from a finite lower bound, mirrored from a finite upper bound when
there is no lower one (or when a warm start puts it there), or left free
when both bounds are infinite.  A finite width ``ub - lb`` is enforced in the
ratio test: a variable that reaches it is complemented (``v' = width - v``),
so nonbasic columns always sit at zero, the rhs column holds the basic
values, and ``base`` is ``lb`` or ``ub`` as ``dirn`` is +1 or -1.  The
tableau is one dense numpy array, but encodings leave most of it zero, so
each pivot's rank-1 update touches only the nonzero rows of the pivot column
crossed with the nonzero columns of the pivot row.

Primal pricing is Dantzig's rule (most negative reduced cost, lowest index
on ties; a free nonbasic column prices by its magnitude).  After a streak of
2*(m+n) degenerate pivots the pricing switches to Bland's rule, which
guarantees termination; it switches back once the objective strictly
improves.  Each switch, and each exit at the stall cap, is counted on the
:class:`LpResult`.

The tableau keeps every structural column (a fixed one has width 0) and
gives row ``i`` one logical ``s_i`` in ``a_i x + s_i = rhs_i``, bounded by
the row's sense: [0, inf) for 'L', (-inf, 0] for 'G', {0} for 'E'.  A
width-0 column never enters.  The cold solve, from scratch, starts from
the all-logical tableau: a row whose logical starts infeasible gets an
artificial, basic in its place, which phase one prices out; phase two then
runs on the real objective.  A warm solve starts from a :class:`Tableau`:
the final tableau of the last answer when the caller carries one (a
branch-and-bound search passes each LP's tableau to the next), else the
all-logical tableau.  One routine moves either to the given
:class:`Basis`: it adapts the bounds, appends the rows the tableau lacks
with their logicals basic, pivots in each wanted column that is not basic
(largest |entry| among the rows held by an unwanted id), and computes the
basic values from the original arrays; the reduced-cost row carries over,
since the objective is fixed.  It then runs a dual simplex (largest bound
violation leaves; Harris two-pass ratio test) and the primal loop as a
clean-up.  A carried tableau that gives up leaves the LP to the
all-logical start.  A start at a feasible vertex uses the same move from
the all-logical tableau: each column inside its bounds is pivoted into a
row the point holds tight, every other column stays at the bound the
point holds, and phase two of the primal loop runs from there.  Products
use the fixed-order kernels of :mod:`.linalg`, never BLAS or LAPACK, so
results are bit-reproducible.

Every 'optimal' answer is checked on the original arrays: the primal
residual of rows and bounds, and the reduced costs recomputed from the row
duals.  A warm 'infeasible' answer must come with a Farkas row that proves
it on the original rows and bounds.  A warm start that cannot be refactored
or certified falls back to the cold solve, and so does a vertex start whose
point is not a vertex or is infeasible, or whose answer fails its check; a
cold optimum that fails the check is refactored on its own final basis and
cleaned up once through the warm path.  Ref: Koberstein, "The dual simplex
method, techniques for a fast and stable implementation", PhD thesis,
Paderborn 2005, ch. 4-6; Bixby, "Solving real-world linear programs: a
decade and more of progress", Oper. Res. 50, 2002; Harris, "Pivot selection
methods of the Devex LP code", Math. Prog. 5, 1973.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, MipPruneError
from .linalg import matmat, matvec

__all__ = ["Basis", "LinearProgram", "LpResult", "Tableau", "solve_lp_arrays"]

_RC_TOL = 1e-9
_PIV_TOL = 1e-9
_FEAS_TOL = 1e-7
_MAX_PIVOTS = 200_000
_HARRIS_TOL = 1e-9     # reduced-cost relaxation of the dual ratio test's first pass
_DUAL_FEAS_TOL = 1e-9  # bound violation the dual simplex leaves to the clean-up
_CERT_PRIMAL = 1e-6    # largest row or bound breach of a certified point
_CERT_DUAL = 1e-7      # largest wrong-signed reduced cost of a certified point
_DROP_TOL = 1e-12      # a carried tableau entry below this is round-off: set to zero


class SimplexNumericsError(MipPruneError, RuntimeError):
    """The pivot loop exceeded its safety cap; the instance is ill-posed."""


@dataclass
class LinearProgram:
    """min c @ x + const  s.t.  a @ x (sense) rhs,  lb <= x <= ub."""

    c: np.ndarray
    a: np.ndarray          # (m, n), dense
    sense: np.ndarray      # array of 'L', 'G', 'E'
    rhs: np.ndarray
    lb: np.ndarray         # -inf allowed
    ub: np.ndarray         # +inf allowed
    const: float = 0.0

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class Basis:
    """A basis of an LP with ``n`` structural columns, in a form that outlives
    its tableau.

    ``ids`` holds one id per row: a structural ``j < n``, or ``n + i`` for row
    ``i``'s logical.  Rows appended after the basis was taken (cuts) enter
    with their logicals basic.  ``at_upper[j]`` says a nonbasic structural
    sits at its upper bound.
    """

    ids: np.ndarray        # int32, sorted
    at_upper: np.ndarray   # bool, one per structural


@dataclass
class Tableau:
    """The final tableau of an answer, to start a later LP of the same
    search from: the same rows and objective, possibly other bounds, and
    possibly more rows appended.

    ``t`` is laid out as in :func:`_pivot_loop` over the structurals and one
    logical per row; ``basis`` holds the column basic in each row, ``dirn``
    the orientation of each column, and ``rho`` the scale of each row
    (tableau row ``i`` started as ``rho_i`` times row ``i``, and its
    logical's column as ``dirn`` times the unit vector; the cold solve
    negates both for a row whose logical starts below zero).  It is
    consumed: the next LP changes it in place.
    """

    t: np.ndarray
    basis: np.ndarray      # int64, one column id per row
    dirn: np.ndarray
    rho: np.ndarray


@dataclass
class LpResult:
    """Outcome of one LP solve.

    ``pivots`` counts simplex iterations, dual and primal: basis changes plus
    bound flips.  The pivots that move a tableau to the given basis are
    counted apart: ``carry_pivots`` from the carried tableau,
    ``refactor_pivots`` from a fresh all-logical one (when no tableau was
    carried, when the carried one gave up, in a repair, and to a start
    point's basis).
    ``bland_switches`` and ``stall_exits`` count the primal loop's turns to
    Bland's rule and its exits at the stall cap.  Every 'optimal' answer,
    and every warm 'infeasible' one, has its final ``tableau``.
    """

    status: str            # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0
    basis: Basis | None = None      # the final basis of an 'optimal' answer
    warm: bool = False              # answered from the given basis or point
    fallback: str | None = None     # why the given basis or point was not used
    repaired: bool = False          # a cold optimum refactored and cleaned up
    certified: bool = False         # the answer passed its check on the original arrays
    refactor_pivots: int = 0
    dual_pivots: int = 0
    carried: bool = False           # started from a carried tableau
    carry_fallback: str | None = None   # why the carried tableau did not answer
    carry_pivots: int = 0
    bland_switches: int = 0
    stall_exits: int = 0
    tableau: Tableau | None = None  # the final tableau, to carry on


def _complement(t: np.ndarray, dirn: np.ndarray, j: int, w: float) -> None:
    """Substitute ``v_j = w - v_j'`` in ``t``; ``w = 0`` negates a free column."""
    if w:
        t[:, -1] -= w * t[:, j]
    t[:, j] *= -1.0
    dirn[j] = -dirn[j]


def _pivot(t: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Pivot on ``t[r, j]``: normalize row ``r`` and eliminate column ``j``.

    The tableau is dense, but the rank-1 update touches only the rows with a
    nonzero pivot-column entry (reduced-cost row included, row ``r``
    excluded) crossed with the columns, the rhs column among them, that are
    nonzero in the normalized pivot row.  Every skipped entry would have had
    ``x - 0*y`` subtracted, so the result equals the full dense update bit
    for bit, up to the sign of a zero.
    """
    t[r] /= t[r, j]
    rows = t[:, j].nonzero()[0]
    rows = rows[rows != r]
    cols = t[r].nonzero()[0]
    t[rows[:, None], cols] -= t[rows, j][:, None] * t[r, cols]
    t[:-1, j] = 0.0
    t[r, j] = 1.0
    basis[r] = j


def _pivot_loop(t: np.ndarray, basis: np.ndarray, width: np.ndarray, free: np.ndarray,
                dirn: np.ndarray, tol: float, bland_after: int,
                allowed: np.ndarray, out: LpResult) -> tuple[str, int]:
    """Run simplex iterations on tableau ``t`` in place.

    ``t`` is (m+1, k+1): m constraint rows, reduced-cost row last, rhs column
    last.  ``width``, ``free`` and ``dirn`` describe the k columns; ``dirn``
    is updated by each complement.  ``width`` and ``free`` also describe the
    basis ids past k: the cold solve's artificials, basic but not stored.
    ``allowed`` masks the k columns eligible to enter.  Each switch to
    Bland's rule and each exit at the stall cap is counted in ``out``.
    Returns (status, iteration count).
    """
    m = t.shape[0] - 1
    pivots = 0
    degen_streak = 0
    stall = 0
    stall_cap = 4 * bland_after + 1000
    best_neg_obj = t[-1, -1]
    bland = False
    rc_view = t[-1, :-1]
    rhs_col = t[:-1, -1]
    free_col = free[:rc_view.size]
    while True:
        price = np.where(free_col, -np.abs(rc_view), rc_view)
        if bland:
            cands = np.flatnonzero((price < -tol) & allowed)
            if cands.size == 0:
                return "optimal", pivots
            j = int(cands[0])
        else:
            masked = np.where(allowed, price, 0.0)
            j = int(np.argmin(masked))
            if masked[j] >= -tol:
                return "optimal", pivots
        if rc_view[j] > 0.0:
            _complement(t, dirn, j, 0.0)  # a free column enters downward
        col = t[:-1, j]
        wb = width[basis]
        down = (col > _PIV_TOL) & ~free[basis]
        up = (col < -_PIV_TOL) & np.isfinite(wb)
        ratios = np.full(m, np.inf)
        ratios[down] = rhs_col[down] / col[down]
        ratios[up] = (rhs_col[up] - wb[up]) / col[up]
        rmin = float(ratios.min(initial=np.inf))
        step = min(rmin, float(width[j]))
        if step == np.inf:
            # a ray whose reduced cost is only noise-deep is a stalled optimum,
            # not a real unbounded direction
            if rc_view[j] > -1e-7:
                return "optimal", pivots
            return "unbounded", pivots
        if width[j] <= rmin:
            _complement(t, dirn, j, width[j])  # bound flip, basis unchanged
        else:
            ties = np.flatnonzero(ratios <= rmin + 1e-12)
            r = int(ties[np.argmin(basis[ties])])  # lowest leaving variable index
            if up[r]:
                # the leaving variable stops at its width: complement it so
                # that it leaves at zero
                _complement(t, dirn, basis[r], wb[r])
                t[r] *= -1.0
            _pivot(t, basis, r, j)
        pivots += 1
        # zero out round-off noise only; large excursions would flag real trouble
        wb = width[basis]
        noise = ((rhs_col < 0.0) & (rhs_col > -1e-10)) | ((rhs_col > wb) & (rhs_col < wb + 1e-10))
        if noise.any():
            rhs_col[noise] = np.clip(rhs_col[noise], 0.0, wb[noise])
        if step <= tol:
            degen_streak += 1
            if degen_streak > bland_after and not bland:
                bland = True
                out.bland_switches += 1
        else:
            degen_streak = 0
            bland = False
        # objective cell holds minus the objective; treat noise-level motion
        # as a stall so float round-off cannot orbit the loop forever
        if t[-1, -1] > best_neg_obj + 1e-12 * max(1.0, abs(best_neg_obj)):
            best_neg_obj = t[-1, -1]
            stall = 0
        else:
            stall += 1
            if stall > stall_cap:
                out.stall_exits += 1
                return "optimal", pivots
        if pivots > _MAX_PIVOTS:
            raise SimplexNumericsError(f"pivot cap {_MAX_PIVOTS} exceeded")


def _price_out(t: np.ndarray, basis: np.ndarray) -> None:
    """Zero the reduced-cost row on the basic columns, row by row."""
    for r in range(basis.size):
        cb = t[-1, basis[r]]
        if cb != 0.0:
            t[-1] -= cb * t[r]


def _dual_loop(t: np.ndarray, basis: np.ndarray, width: np.ndarray, free: np.ndarray,
               dirn: np.ndarray, cap: int) -> tuple[str, int, int]:
    """Run dual simplex iterations on tableau ``t`` in place.

    ``t`` is laid out as in :func:`_pivot_loop` and starts dual feasible.
    The basic variable with the largest bound violation leaves, lowest id on
    ties; one above its width is complemented first, so it leaves at zero.
    The entering column comes from a Harris two-pass ratio test: the least
    ratio with reduced costs relaxed by ``_HARRIS_TOL``, then the largest
    |pivot| among the columns within it, lowest index on ties.  Returns
    (status, row, iterations): 'optimal' once no violation exceeds
    ``_DUAL_FEAS_TOL``; 'infeasible' with the row that has no entering
    column (a dual ray); 'stalled' after ``cap`` iterations.
    """
    rhs = t[:-1, -1]
    d = t[-1, :-1]
    movable = (width > 0.0) | free
    nonbasic = np.ones(d.size, dtype=bool)
    nonbasic[basis] = False
    pivots = 0
    while True:
        wb = width[basis]
        viol = np.maximum(-rhs, rhs - wb)
        viol[free[basis]] = 0.0
        worst = viol.max(initial=0.0)
        if worst <= _DUAL_FEAS_TOL:
            return "optimal", -1, pivots
        if pivots >= cap:
            return "stalled", -1, pivots
        rows = np.flatnonzero(viol == worst)
        r = int(rows[np.argmin(basis[rows])])
        if rhs[r] > wb[r]:
            _complement(t, dirn, basis[r], wb[r])
            t[r] *= -1.0
        row = t[r, :-1]
        cand = np.flatnonzero(nonbasic & movable
                              & ((row < -_PIV_TOL) | (free & (row > _PIV_TOL))))
        if cand.size == 0:
            return "infeasible", r, pivots
        alpha = np.abs(row[cand])
        dj = np.where(free[cand], np.abs(d[cand]), np.maximum(d[cand], 0.0))
        theta = float(((dj + _HARRIS_TOL) / alpha).min())
        within = np.flatnonzero(dj / alpha <= theta)
        q = int(cand[within[np.argmax(alpha[within])]])
        if row[q] > 0.0:
            _complement(t, dirn, q, 0.0)  # a free column enters downward
        nonbasic[basis[r]] = True
        nonbasic[q] = False
        _pivot(t, basis, r, q)
        pivots += 1


def _certified_optimal(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray, x: np.ndarray,
                       y: np.ndarray) -> bool:
    """Check ``x`` and the row duals ``y`` on the original arrays.

    ``x`` must break no row or bound by more than ``_CERT_PRIMAL``.  The
    reduced costs ``c - a.T y`` and the logicals' ``-y`` must have the sign
    their variable's position allows, up to ``_CERT_DUAL``: positive only at
    a lower bound, negative only at an upper one.
    """
    sense = np.asarray(lp.sense, dtype="U1")
    le, ge = sense == "L", sense == "G"
    r = matvec(lp.a, x) - lp.rhs
    breach = np.where(le, r, np.where(ge, -r, np.abs(r)))
    if max(breach.max(initial=0.0), (lb - x).max(initial=0.0),
           (x - ub).max(initial=0.0)) > _CERT_PRIMAL:
        return False
    d = lp.c - matvec(lp.a.T, y)
    bad_col = (lb < ub) & (((d > _CERT_DUAL) & (x - lb > _CERT_PRIMAL))
                           | ((d < -_CERT_DUAL) & (ub - x > _CERT_PRIMAL)))
    bad_row = ((le & ((y > _CERT_DUAL) | ((y < -_CERT_DUAL) & (r < -_CERT_PRIMAL))))
               | (ge & ((y < -_CERT_DUAL) | ((y > _CERT_DUAL) & (r > _CERT_PRIMAL)))))
    return not (bad_col.any() or bad_row.any())


def _certified_infeasible(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray,
                          mult: np.ndarray, rho: np.ndarray) -> bool:
    """Whether multipliers ``mult`` of the scaled rows ``rho_i * row_i`` prove
    ``lp`` infeasible on its original rows and bounds.

    With ``u = mult * rho`` (normalized, wrong-signed entries set to zero so
    that ``g x <= u.rhs`` with ``g = a.T u`` is valid), infeasibility is
    proven when the least ``g x`` over the bounds exceeds ``u.rhs`` by more
    than ``_CERT_PRIMAL``.  A coefficient up to ``_PIV_TOL`` on an unbounded
    side counts as zero.
    """
    top = np.abs(mult).max(initial=0.0)
    if top == 0.0:
        return False
    sense = np.asarray(lp.sense, dtype="U1")
    u = mult / top * rho
    u[((sense == "L") & (u < 0.0)) | ((sense == "G") & (u > 0.0))] = 0.0
    g = matvec(lp.a.T, u)
    side = np.where(g > 0.0, lb, ub)
    side[np.isinf(side) & (np.abs(g) <= _PIV_TOL)] = 0.0
    return float((g * side).sum()) - float((u * lp.rhs).sum()) > _CERT_PRIMAL


def _finish(res: LpResult, lp: LinearProgram, lb: np.ndarray, ub: np.ndarray,
            tab: Tableau) -> LpResult:
    """Fill ``res`` in as the optimum that ``tab`` ends on, and give it ``tab``
    to carry on."""
    m, n = lp.m, lp.n
    t, dirn = tab.t, tab.dirn
    v = np.zeros(n + m, dtype=np.float64)
    v[tab.basis] = t[:-1, -1]
    x = _base(lb, ub, dirn[:n]) + dirn[:n] * v[:n]
    res.status = "optimal"
    res.x = x
    # recompute the objective from the original data: immune to tableau drift
    res.objective = float(np.dot(lp.c, x)) + lp.const
    res.basis = Basis(np.sort(tab.basis).astype(np.int32),
                      (dirn[:n] < 0) & (np.isfinite(lb) | np.isfinite(ub)))
    # the row duals are minus the logicals' reduced costs, unscaled
    res.certified = _certified_optimal(lp, lb, ub, x, -t[-1, n:-1] * dirn[n:] * tab.rho)
    res.tableau = tab
    return res


def _row_scale(a: np.ndarray, b: np.ndarray, sense: np.ndarray) -> np.ndarray:
    """``rho``: tableau row ``i`` is ``rho_i`` times row ``i``, scaled so that its
    largest entry, rhs ``b_i`` included, is 1 and negated for a 'G' row, so
    that every logical is >= 0."""
    scale = np.maximum(np.maximum(a.max(axis=1, initial=0.0), -a.min(axis=1, initial=0.0)),
                       np.abs(b))
    scale[scale < 1e-12] = 1.0
    return np.where(np.asarray(sense, dtype="U1") == "G", -1.0, 1.0) / scale


def _base(lb: np.ndarray, ub: np.ndarray, dirn: np.ndarray) -> np.ndarray:
    """The bound each structural's column is measured from: 0 when free."""
    return np.where(np.isinf(lb) & np.isinf(ub), 0.0, np.where(dirn > 0, lb, ub))


def _all_logical(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray,
                 at_upper: np.ndarray) -> Tableau:
    """The tableau of ``lp`` on its all-logical basis, basic values included; a
    structural sits at its upper bound where ``at_upper`` says so or where it
    has no lower one."""
    m, n = lp.m, lp.n
    has_lo, has_hi = np.isfinite(lb), np.isfinite(ub)
    dirn = np.concatenate([np.where(has_hi & (at_upper | ~has_lo), -1.0, 1.0), np.ones(m)])
    b = lp.rhs - matvec(lp.a, _base(lb, ub, dirn[:n]))
    rho = _row_scale(lp.a, b, lp.sense)
    t = np.zeros((m + 1, n + m + 1), dtype=np.float64)
    np.multiply(lp.a, dirn[:n], out=t[:m, :n])
    t[:m, :n] *= rho[:, None]
    t[np.arange(m), n + np.arange(m)] = 1.0
    t[:m, -1] = rho * b
    t[-1, :n] = lp.c * dirn[:n]
    return Tableau(t, n + np.arange(m), dirn, rho)


def _carry(tab: Tableau, lp: LinearProgram, lb: np.ndarray, ub: np.ndarray) -> Tableau:
    """``tab``, the final tableau of an LP with the first rows and the objective
    of ``lp``, made a tableau of ``lp``.

    A column whose base bound is gone is mirrored.  The rows ``tab`` lacks
    are appended with their logicals basic, after the basic columns are
    eliminated from them.
    """
    m, n, m0 = lp.m, lp.n, tab.basis.size
    if m0 > m or tab.t.shape != (m0 + 1, n + m0 + 1):
        raise InvalidArgument(f"tableau of {m0} rows does not fit an LP with {m} rows "
                              f"and {n} columns")
    # cancellation leaves round-off where a fresh tableau has zeros; kept, it
    # would fill the tableau in over the LPs and slow every sparse pivot
    tab.t[(tab.t < _DROP_TOL) & (tab.t > -_DROP_TOL)] = 0.0
    has_lo, has_hi = np.isfinite(lb), np.isfinite(ub)
    dirn = tab.dirn
    for j in np.flatnonzero(np.where(dirn[:n] > 0, has_hi & ~has_lo, has_lo & ~has_hi)).tolist():
        _complement(tab.t, dirn, j, 0.0)
    if m == m0:
        return tab
    k0, p = n + m0, m - m0
    a = lp.a[m0:]
    rho = _row_scale(a, lp.rhs[m0:] - matvec(a, _base(lb, ub, dirn[:n])), lp.sense[m0:])
    t = np.zeros((m + 1, n + m + 1), dtype=np.float64)
    t[:m0, :k0] = tab.t[:m0, :k0]
    t[-1, :k0] = tab.t[-1, :k0]
    new = t[m0:m]
    np.multiply(a, dirn[:n], out=new[:, :n])
    new[:, :n] *= rho[:, None]
    coef = new[:, tab.basis]
    rows = np.flatnonzero(coef.any(axis=0))
    new[:, :k0] -= matmat(coef[:, rows], tab.t[rows, :k0])
    new[:, tab.basis] = 0.0
    new[np.arange(p), k0 + np.arange(p)] = 1.0
    # in place, so that the old array is freed now
    tab.t, tab.basis = t, np.concatenate([tab.basis, n + np.arange(m0, m)])
    tab.dirn, tab.rho = np.concatenate([dirn, np.ones(p)]), np.concatenate([tab.rho, rho])
    return tab


def _solve_from(tab: Tableau, lp: LinearProgram, lb: np.ndarray, ub: np.ndarray,
                wanted: np.ndarray, out: LpResult, primal: bool = False) -> int:
    """Move ``tab`` to a basis that holds the ``wanted`` ids, then solve.

    Each wanted column that is not basic is pivoted in, in id order, on the
    row held by an unwanted id with the largest |entry| (lowest row on ties;
    none above ``_PIV_TOL`` means singular).  More wanted ids than rows give
    up at once ('not_vertex'); with fewer, the rows no wanted id takes keep
    their unwanted basic column.  The objective is fixed, so the reduced-cost
    row needs no price-out.  Without ``primal`` the start is made dual
    feasible (nonbasic boxed columns move to the bound their reduced cost
    asks for), the rhs column is computed from the original arrays, and a
    dual simplex and a primal clean-up follow.  With ``primal`` each
    nonbasic column stays at the bound the tableau measures it from, and
    phase two runs from the start if no basic value breaks its bounds by
    more than ``_FEAS_TOL``.  ``out`` gets the answer and the simplex
    iterations, or ``fallback``: 'not_vertex', 'singular', 'dual_infeasible'
    (a wrong-signed reduced cost on an unbounded column), 'infeasible_start'
    (a primal start out of bounds), 'stalled' (the dual iteration cap),
    'unbounded' (the primal loop found a ray) or 'uncertified' (the answer
    failed its check).  Returns the pivots of the move.
    """
    m, n = lp.m, lp.n
    k = n + m
    t, basis, dirn, rho = tab.t, tab.basis, tab.dirn, tab.rho
    sense = np.asarray(lp.sense, dtype="U1")
    has_lo, has_hi = np.isfinite(lb), np.isfinite(ub)
    free = np.concatenate([~has_lo & ~has_hi, np.zeros(m, dtype=bool)])
    width = np.concatenate([ub - lb, np.where(sense == "E", 0.0, np.inf)])
    if np.count_nonzero(wanted) > m:
        out.fallback = "not_vertex"
        return 0
    t[:, -1] = 0.0  # computed after the move
    basic = np.zeros(k, dtype=bool)
    basic[basis] = True
    moved = 0
    for j in np.flatnonzero(wanted & ~basic).tolist():
        rows = np.flatnonzero(~wanted[basis])
        col = np.abs(t[rows, j])
        r = int(np.argmax(col))  # largest |entry|, lowest row on ties
        if col[r] <= _PIV_TOL:
            out.fallback = "singular"
            return moved
        _pivot(t, basis, int(rows[r]), j)
        moved += 1

    if not primal:
        # a dual feasible start: boxed columns move to the bound their reduced
        # cost asks for; an unbounded one priced the wrong way gives up
        d = t[-1, :-1]
        nonbasic = np.ones(k, dtype=bool)
        nonbasic[basis] = False
        if np.any(nonbasic & np.isinf(width) & (np.where(free, np.abs(d), -d) > _CERT_DUAL)):
            out.fallback = "dual_infeasible"
            return moved
        flip = np.flatnonzero(nonbasic & np.isfinite(width) & (width > 0.0) & (d < -_RC_TOL))
        t[:, flip] *= -1.0
        dirn[flip] *= -1.0
    # basic values B^-1 (rho * (rhs - a @ base)); B^-1 is the logical block
    # times the logicals' dirn
    rhs = t[:-1, -1]
    b = dirn[n:] * rho * (lp.rhs - matvec(lp.a, _base(lb, ub, dirn[:n])))
    rhs[:] = matvec(t[:m, n:k], b)
    cost = np.concatenate([lp.c * dirn[:n], np.zeros(m)])
    t[-1, -1] = -matvec(rhs[None], cost[basis])[0]

    if primal:
        if np.any(~free[basis] & (np.maximum(-rhs, rhs - width[basis]) > _FEAS_TOL)):
            out.fallback = "infeasible_start"
            return moved
    else:
        status, r, p = _dual_loop(t, basis, width, free, dirn, 2 * (m + k))
        out.dual_pivots += p
        out.pivots += p
        if status == "stalled":
            out.fallback = status
            return moved
        if status == "infeasible":
            if not _certified_infeasible(lp, lb, ub, t[r, n:k] * dirn[n:], rho):
                out.fallback = "uncertified"
                return moved
            out.status = "infeasible"
            out.certified = out.warm = True
            out.tableau = tab
            return moved
    np.clip(rhs, np.where(free[basis], -np.inf, 0.0), width[basis], out=rhs)
    status, p = _pivot_loop(t, basis, width, free, dirn, _RC_TOL, 2 * (m + k),
                            (width > 0.0) | free, out)
    out.pivots += p
    if status == "unbounded":
        out.fallback = status
        return moved
    _finish(out, lp, lb, ub, tab)
    if not out.certified:
        out.fallback = "uncertified"
        return moved
    out.warm = True
    return moved


def _solve_warm(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray, start: Basis,
                carried: Tableau | None = None) -> LpResult:
    """Solve ``lp`` from the basis ``start``, reached from the ``carried``
    tableau when given and from the all-logical tableau otherwise.

    A carried tableau that gives up (``carry_fallback`` says why) leaves the
    LP to the all-logical start; ``fallback`` says why that one gave up too.
    """
    m, n = lp.m, lp.n
    ids = np.asarray(start.ids, dtype=np.int64)
    if ids.size > m or start.at_upper.size != n or np.any((ids < 0) | (ids >= n + ids.size)):
        raise InvalidArgument(f"basis of {ids.size} rows does not fit an LP with {m} rows "
                              f"and {n} columns")
    wanted = np.zeros(n + m, dtype=bool)
    wanted[ids] = True
    wanted[n + ids.size:] = True  # appended rows: logicals basic
    out = LpResult("optimal", None, None)
    if carried is not None:
        tried = LpResult("optimal", None, None, carried=True)
        tried.carry_pivots = _solve_from(_carry(carried, lp, lb, ub), lp, lb, ub, wanted, tried)
        if tried.fallback is None:
            return tried
        out.carried, out.carry_fallback = True, tried.fallback
        _add_work(out, tried)
    out.refactor_pivots += _solve_from(_all_logical(lp, lb, ub, start.at_upper), lp, lb, ub,
                                       wanted, out)
    return out


def _solve_at(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray, point: np.ndarray) -> LpResult:
    """Phase two of ``lp`` from the basis of its vertex ``point``.

    A structural within ``_FEAS_TOL`` of a bound is nonbasic there; every
    other one is pivoted in from the all-logical tableau, into a row that
    ``point`` holds tight (within ``_FEAS_TOL``), while the logicals of the
    other rows stay basic.  ``fallback`` says why the start was not used.
    """
    at_lo, at_hi = np.abs(point - lb) <= _FEAS_TOL, np.abs(point - ub) <= _FEAS_TOL
    tight = np.abs(matvec(lp.a, point) - lp.rhs) <= _FEAS_TOL
    out = LpResult("optimal", None, None)
    out.refactor_pivots = _solve_from(_all_logical(lp, lb, ub, at_hi & ~at_lo), lp, lb, ub,
                                      np.concatenate([~(at_lo | at_hi), ~tight]), out,
                                      primal=True)
    return out


def _solve_cold(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray) -> LpResult:
    """The two-phase primal simplex from the all-logical tableau.

    A row whose logical starts below zero is negated, rhs included: its
    ``rho_i`` changes sign and its logical is measured the other way
    (``dirn`` -1).  Each row whose logical then starts infeasible, a negated
    row or an 'E' row off zero, gets an artificial basic in its place.  Row
    ``i``'s artificial column is its logical's column up to sign, so it is
    not stored: it is the basis id ``n + m + i``, priced out by phase one and
    never let in.  One left basic at zero has held row ``i`` throughout, so
    the logical's column there is still a signed unit vector: the row goes to
    the logical, negated where that sign is -1, and no row is dropped.
    """
    m, n = lp.m, lp.n
    k = n + m
    out = LpResult("optimal", None, None)
    tab = _all_logical(lp, lb, ub, np.zeros(n, dtype=bool))
    t, basis, dirn, rho = tab.t, tab.basis, tab.dirn, tab.rho
    sense = np.asarray(lp.sense, dtype="U1")
    neg = np.flatnonzero(t[:m, -1] < 0.0)
    t[neg] *= -1.0
    rho[neg] *= -1.0
    dirn[n + neg] = -1.0
    arts = np.flatnonzero((dirn[n:] < 0.0) | ((sense == "E") & (t[:m, -1] > 0.0)))
    free = np.concatenate([np.isinf(lb) & np.isinf(ub), np.zeros(2 * m, dtype=bool)])
    width = np.concatenate([ub - lb, np.where(sense == "E", 0.0, np.inf), np.full(m, np.inf)])
    allowed = (width[:k] > 0.0) | free[:k]
    if arts.size:
        basis[arts] += m
        t[-1] = 0.0
        for r in arts.tolist():
            t[-1] -= t[r]
        _, out.pivots = _pivot_loop(t, basis, width, free, dirn, _RC_TOL, 2 * (m + k),
                                    allowed, out)
        # the phase-one objective is bounded below by zero, so an "unbounded"
        # verdict can only be round-off noise in a reduced cost
        if -t[-1, -1] > _FEAS_TOL:
            out.status = "infeasible"
            return out
        rows = np.flatnonzero(basis >= k)
        t[rows[dirn[n + rows] < 0.0]] *= -1.0
        t[rows, -1] = 0.0
        basis[rows] -= m
        t[-1] = 0.0
        t[-1, :n] = lp.c * dirn[:n]
        _price_out(t, basis)
    status, p = _pivot_loop(t, basis, width, free, dirn, _RC_TOL, 2 * (m + k), allowed, out)
    out.pivots += p
    if status == "unbounded":
        out.status = status
        return out
    return _finish(out, lp, lb, ub, tab)


def _add_work(res: LpResult, other: LpResult) -> None:
    res.pivots += other.pivots
    res.refactor_pivots += other.refactor_pivots
    res.carry_pivots += other.carry_pivots
    res.dual_pivots += other.dual_pivots
    res.bland_switches += other.bland_switches
    res.stall_exits += other.stall_exits


def solve_lp_arrays(lp: LinearProgram, basis: Basis | None = None,
                    tableau: Tableau | None = None, point: np.ndarray | None = None) -> LpResult:
    """Solve a bounded-variable LP, warm-started from ``basis`` or ``point``
    when one is given.

    ``tableau`` is the final tableau of an earlier answer on the same rows
    and objective (``LpResult.tableau``; other bounds and appended rows are
    fine); the basis is then reached from it, and it is consumed.
    ``point`` is a feasible vertex of ``lp``; phase two starts from its
    basis.  Without a start, or when the start gives up, the LP is solved
    cold.  A cold optimum that fails its certificate is repaired once
    through the warm path from its own final basis; one that still fails is
    returned with ``certified`` false.
    """
    if tableau is not None and basis is None:
        raise InvalidArgument("a carried tableau needs a basis to move to")
    if point is not None and (basis is not None or np.shape(point) != (lp.n,)):
        raise InvalidArgument("a start point needs one value per column and no basis")
    lb = lp.lb.astype(np.float64)
    ub = lp.ub.astype(np.float64)
    if np.any(lb > ub):
        return LpResult("infeasible", None, None, 0, certified=True)
    if basis is not None:
        tried = _solve_warm(lp, lb, ub, basis, tableau)
    elif point is not None:
        tried = _solve_at(lp, lb, ub, np.asarray(point, dtype=np.float64))
    else:
        tried = None
    if tried is not None and tried.fallback is None:
        return tried
    res = _solve_cold(lp, lb, ub)
    if res.status == "optimal" and not res.certified:
        fix = _solve_warm(lp, lb, ub, res.basis)
        if fix.fallback is None:
            _add_work(fix, res)
            fix.warm, fix.repaired = False, True
            res = fix
        else:
            _add_work(res, fix)
    if tried is not None:  # the work of the warm start that gave up
        _add_work(res, tried)
        res.fallback = tried.fallback
        res.carried, res.carry_fallback = tried.carried, tried.carry_fallback
    return res
