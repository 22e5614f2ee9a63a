"""Bounded-variable dense simplex for small linear programs: one routine
moves a tableau to a starting basis, then runs a dual simplex and a primal
clean-up or, from a feasible vertex, the primal simplex alone.

Every variable is one tableau column ``v >= 0`` with ``x = base + dirn * v``:
shifted from a finite lower bound, mirrored from a finite upper bound when
there is no lower one (or when a start puts it there), or left free when
both bounds are infinite.  A finite width ``ub - lb`` is enforced in the
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
improves.  The dual simplex (largest bound violation leaves; Harris
two-pass ratio test) keeps to Bland's rule after as long a streak.  Each
switch, and each exit at the primal stall cap, is counted on the
:class:`LpResult`.

The tableau keeps every structural column (a fixed one has width 0) and
gives row ``i`` one logical ``s_i`` in ``a_i x + s_i = rhs_i``, bounded by
the row's sense: [0, inf) for 'L', (-inf, 0] for 'G', {0} for 'E'.  A
width-0 column never enters.  A start is a :class:`Tableau` and the ids
wanted basic in it.  The routine adapts the bounds, appends the rows the
tableau lacks with their logicals basic, pivots in each wanted column that
is not basic (largest |entry| among the rows held by an unwanted id), and
computes the basic values from the original arrays; the reduced-cost row
carries over, since the objective is fixed.  Products use the kernels of
:mod:`.linalg`, never BLAS or LAPACK, so results repeat bit for bit for the
same operand layout on the same numpy build.

Every 'optimal' answer is checked on the original arrays: the primal
residual of rows and bounds, and the reduced costs recomputed from the row
duals.  A certified 'infeasible' answer comes with a Farkas row that proves
it on the original rows and bounds, and a certified 'unbounded' one with an
improving ray and a feasible point that passed their checks; only the last
start's answer can be uncertified.  :func:`solve_lp_arrays`
tries the starts of an LP in order and the first that answers is returned:
with a basis, the final tableau of the last answer when the caller carries
one (a branch-and-bound search passes each LP's tableau to the next), then
a fresh all-logical tableau; with a vertex, the all-logical tableau moved
to the vertex's basis.  The last start, and the only one of an LP given
none, is a fresh tableau moved to the final basis of the LP's recession
LP; it keeps its answer.  Each start is recorded on the :class:`LpResult`.
Ref: Koberstein, "The dual simplex method, techniques for a fast and stable
implementation", PhD thesis, Paderborn 2005, ch. 4-6; Bixby, "Solving
real-world linear programs: a decade and more of progress", Oper. Res. 50,
2002; Harris, "Pivot selection methods of the Devex LP code", Math. Prog. 5,
1973.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """A pivot loop exceeded its safety cap, or the last start of an LP gave
    up; the instance is ill-posed."""


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
    logical's column as the unit vector).  It is consumed: the next LP
    changes it in place.
    """

    t: np.ndarray
    basis: np.ndarray      # int64, one column id per row
    dirn: np.ndarray
    rho: np.ndarray


@dataclass
class LpResult:
    """Outcome of one LP solve.

    ``attempts`` records each start tried, in order, as ``(kind, reason,
    move_pivots)``.  ``kind`` is 'carried' (the carried tableau), 'fresh' (an
    all-logical tableau moved to the given basis), 'vertex' (one moved to
    the basis of the given point) or 'cold' (one moved to the final basis
    of the recession LP, see :func:`_solve_cold`).  ``reason`` is None for
    the one start that answered and says why each other gave up (see
    :func:`_solve_from`).  ``move_pivots`` moved the start's tableau to its
    basis; they are not in ``pivots``, which counts the simplex iterations
    of every attempt and of the recession LP, dual and primal: basis
    changes plus bound flips.  ``bland_switches`` counts both loops' turns
    to Bland's rule, ``stall_exits`` the primal loop's exits at its stall
    cap.  Only a 'cold' answer can be uncertified.  Every 'optimal'
    answer, and every certified 'infeasible' one on the LP's own costs, has
    its final ``tableau``.
    """

    status: str            # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0
    basis: Basis | None = None      # the final basis of an 'optimal' answer
    certified: bool = False         # the answer passed its check on the original arrays
    dual_pivots: int = 0
    bland_switches: int = 0
    stall_exits: int = 0
    tableau: Tableau | None = None  # the final tableau, to carry on
    attempts: list[tuple[str, str | None, int]] = field(default_factory=list)

    def attempt(self, kind: str, reason: str | None, moved: int = 0) -> bool:
        """Record one start; returns whether it answered.  The 'cold' start
        is the last one: its give-up raises :class:`SimplexNumericsError`."""
        if kind == "cold" and reason is not None:
            raise SimplexNumericsError(f"the cold start gave up: {reason}")
        self.attempts.append((kind, reason, moved))
        return reason is None

    def verdict(self, status: str, certified: bool, tableau: Tableau | None = None) -> None:
        """Answer ``status`` with no point."""
        self.status, self.certified, self.tableau = status, certified, tableau
        self.x = self.objective = self.basis = None


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
                dirn: np.ndarray, tol: float, bland_after: int, out: LpResult) -> tuple[str, int]:
    """Run simplex iterations on tableau ``t`` in place.

    ``t`` is (m+1, k+1): m constraint rows, reduced-cost row last, rhs column
    last.  ``width``, ``free`` and ``dirn`` describe the k columns; ``dirn``
    is updated by each complement.  A column of width 0 never enters.  Each
    switch to Bland's rule and each exit at the stall cap is counted in
    ``out``.  Returns (status, iteration count).
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
    allowed = (width > 0.0) | free
    while True:
        price = np.where(free, -np.abs(rc_view), rc_view)
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


def _dual_loop(t: np.ndarray, basis: np.ndarray, width: np.ndarray, free: np.ndarray,
               dirn: np.ndarray, bland_after: int, out: LpResult) -> tuple[str, int, int]:
    """Run dual simplex iterations on tableau ``t`` in place.

    ``t`` is laid out as in :func:`_pivot_loop` and starts dual feasible.
    The basic variable with the largest bound violation leaves, lowest id on
    ties; one above its width is complemented first, so it leaves at zero.
    The entering column comes from a Harris two-pass ratio test: the least
    ratio with reduced costs relaxed by ``_HARRIS_TOL``, then the largest
    |pivot| among the columns within it, lowest index on ties.  A step is
    degenerate when its entering reduced cost is at most ``_HARRIS_TOL``;
    after ``bland_after`` in a row the loop keeps to Bland's rule, counted
    in ``out``: the violated row of lowest basis id leaves, and the lowest
    column of least ratio enters, reduced costs up to ``_HARRIS_TOL``
    counted as zero.  Returns (status, row, iterations): 'optimal' once no
    violation exceeds ``_DUAL_FEAS_TOL``, or 'infeasible' with the row that
    has no entering column (a dual ray).
    """
    rhs = t[:-1, -1]
    d = t[-1, :-1]
    movable = (width > 0.0) | free
    nonbasic = np.ones(d.size, dtype=bool)
    nonbasic[basis] = False
    pivots = 0
    degen_streak = 0
    bland = False
    while True:
        wb = width[basis]
        viol = np.maximum(-rhs, rhs - wb)
        viol[free[basis]] = 0.0
        worst = viol.max(initial=0.0)
        if worst <= _DUAL_FEAS_TOL:
            return "optimal", -1, pivots
        rows = np.flatnonzero(viol > _DUAL_FEAS_TOL if bland else viol == worst)
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
        if bland:
            i = int(np.argmin(np.where(dj > _HARRIS_TOL, dj, 0.0) / alpha))
        else:
            theta = float(((dj + _HARRIS_TOL) / alpha).min())
            within = np.flatnonzero(dj / alpha <= theta)
            i = int(within[np.argmax(alpha[within])])
        q = int(cand[i])
        if row[q] > 0.0:
            _complement(t, dirn, q, 0.0)  # a free column enters downward
        nonbasic[basis[r]] = True
        nonbasic[q] = False
        _pivot(t, basis, r, q)
        pivots += 1
        degen_streak = 0 if dj[i] > _HARRIS_TOL else degen_streak + 1
        if not bland and degen_streak >= bland_after:
            bland = True
            out.bland_switches += 1
        if pivots > _MAX_PIVOTS:
            raise SimplexNumericsError(f"pivot cap {_MAX_PIVOTS} exceeded")


def _certified_optimal(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray, x: np.ndarray,
                       y: np.ndarray | None) -> bool:
    """Check ``x`` and the row duals ``y`` on the original arrays.

    ``x`` must break no row or bound by more than ``_CERT_PRIMAL``.  The
    reduced costs ``c - a.T y`` and the logicals' ``-y`` must have the sign
    their variable's position allows, up to ``_CERT_DUAL``: positive only at
    a lower bound, negative only at an upper one.  With ``y`` None only
    ``x`` is checked.
    """
    sense = np.asarray(lp.sense, dtype="U1")
    le, ge = sense == "L", sense == "G"
    r = matvec(lp.a, x) - lp.rhs
    breach = np.where(le, r, np.where(ge, -r, np.abs(r)))
    if max(breach.max(initial=0.0), (lb - x).max(initial=0.0),
           (x - ub).max(initial=0.0)) > _CERT_PRIMAL:
        return False
    if y is None:
        return True
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
            tab: Tableau, keep: bool = False) -> bool:
    """Fill ``res`` in as the optimum that ``tab`` ends on, and give it ``tab``
    to carry on, if that optimum passes its check on the original arrays or
    ``keep`` is set.  Returns whether it passed."""
    m, n = lp.m, lp.n
    t, dirn = tab.t, tab.dirn
    v = np.zeros(n + m, dtype=np.float64)
    v[tab.basis] = t[:-1, -1]
    x = _base(lb, ub, dirn[:n]) + dirn[:n] * v[:n]
    # the row duals are minus the logicals' reduced costs, unscaled
    certified = _certified_optimal(lp, lb, ub, x, -t[-1, n:-1] * dirn[n:] * tab.rho)
    if certified or keep:
        res.status, res.x, res.certified, res.tableau = "optimal", x, certified, tab
        # recompute the objective from the original data: immune to tableau drift
        res.objective = float(np.dot(lp.c, x)) + lp.const
        res.basis = Basis(np.sort(tab.basis).astype(np.int32),
                          (dirn[:n] < 0) & (np.isfinite(lb) | np.isfinite(ub)))
    return certified


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
                wanted: np.ndarray, out: LpResult, kind: str) -> bool:
    """Move ``tab`` to a basis that holds the ``wanted`` ids, then solve.

    Each wanted column that is not basic is pivoted in, in id order, on the
    row held by an unwanted id with the largest |entry| (lowest row on ties;
    none above ``_PIV_TOL`` means singular).  More wanted ids than rows give
    up at once ('not_vertex'); with fewer, the rows no wanted id takes keep
    their unwanted basic column.  The objective is fixed, so the reduced-cost
    row needs no price-out.  Unless ``kind`` is 'vertex' the start is made
    dual feasible (nonbasic boxed columns move to the bound their reduced
    cost asks for), the rhs column is computed from the original arrays, and
    a dual simplex and a primal clean-up follow.  A 'vertex' start keeps each
    nonbasic column at the bound the tableau measures it from, and phase two
    runs from it if no basic value breaks its bounds by more than
    ``_FEAS_TOL``.  ``out`` gets the answer and the simplex iterations, and
    the attempt with the pivots of the move and, when the start gives up,
    its reason: 'not_vertex', 'singular', 'dual_infeasible' (a wrong-signed
    reduced cost on an unbounded column), 'infeasible_start' (a 'vertex'
    start out of bounds), 'unbounded' (the primal loop found a ray) or
    'uncertified' (the answer failed its check; ``out`` keeps no part of
    it).  A 'cold' start answers whatever its loops end on, with
    ``certified`` false unless checked: an uncertified optimum, 'unbounded'
    for a ray of the clean-up, and an unproven infeasible verdict taken for
    round-off, the clean-up running from the clipped basic values; if its
    point breaks a row or bound, the answer is 'infeasible'.  Returns
    whether the start answered.
    """
    m, n = lp.m, lp.n
    k = n + m
    primal, last = kind == "vertex", kind == "cold"
    t, basis, dirn, rho = tab.t, tab.basis, tab.dirn, tab.rho
    sense = np.asarray(lp.sense, dtype="U1")
    has_lo, has_hi = np.isfinite(lb), np.isfinite(ub)
    free = np.concatenate([~has_lo & ~has_hi, np.zeros(m, dtype=bool)])
    width = np.concatenate([ub - lb, np.where(sense == "E", 0.0, np.inf)])
    if np.count_nonzero(wanted) > m:
        return out.attempt(kind, "not_vertex")
    t[:, -1] = 0.0  # computed after the move
    basic = np.zeros(k, dtype=bool)
    basic[basis] = True
    moved = 0
    for j in np.flatnonzero(wanted & ~basic).tolist():
        rows = np.flatnonzero(~wanted[basis])
        col = np.abs(t[rows, j])
        r = int(np.argmax(col))  # largest |entry|, lowest row on ties
        if col[r] <= _PIV_TOL:
            return out.attempt(kind, "singular", moved)
        _pivot(t, basis, int(rows[r]), j)
        moved += 1

    if not primal:
        # a dual feasible start: boxed columns move to the bound their reduced
        # cost asks for; an unbounded one priced the wrong way gives up
        d = t[-1, :-1]
        nonbasic = np.ones(k, dtype=bool)
        nonbasic[basis] = False
        if np.any(nonbasic & np.isinf(width) & (np.where(free, np.abs(d), -d) > _CERT_DUAL)):
            return out.attempt(kind, "dual_infeasible", moved)
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

    dual = "optimal"
    if primal:
        if np.any(~free[basis] & (np.maximum(-rhs, rhs - width[basis]) > _FEAS_TOL)):
            return out.attempt(kind, "infeasible_start", moved)
    else:
        dual, r, p = _dual_loop(t, basis, width, free, dirn, 2 * (m + k), out)
        out.dual_pivots += p
        out.pivots += p
        if dual == "infeasible":
            if _certified_infeasible(lp, lb, ub, t[r, n:k] * dirn[n:], rho):
                out.verdict(dual, True, tab)
                return out.attempt(kind, None, moved)
            if not last:
                return out.attempt(kind, "uncertified", moved)
    np.clip(rhs, np.where(free[basis], -np.inf, 0.0), width[basis], out=rhs)
    status, p = _pivot_loop(t, basis, width, free, dirn, _RC_TOL, 2 * (m + k), out)
    out.pivots += p
    if status == "unbounded":
        if not last:
            return out.attempt(kind, status, moved)
        out.verdict(status, False)  # the clean-up's ray is not checked
    elif not _finish(out, lp, lb, ub, tab, keep=last):
        if not last:
            return out.attempt(kind, "uncertified", moved)
        if dual == "infeasible" and not _certified_optimal(lp, lb, ub, out.x, None):
            out.verdict(dual, False)  # the clean-up's point breaks a row or bound
    return out.attempt(kind, None, moved)


def _wanted(lp: LinearProgram, basis: Basis) -> np.ndarray:
    """The columns ``basis`` holds, and the logicals of the rows appended
    since, as a mask over the columns of ``lp``."""
    m, n = lp.m, lp.n
    ids = np.asarray(basis.ids, dtype=np.int64)
    if ids.size > m or basis.at_upper.size != n or np.any((ids < 0) | (ids >= n + ids.size)):
        raise InvalidArgument(f"basis of {ids.size} rows does not fit an LP with {m} rows "
                              f"and {n} columns")
    wanted = np.zeros(n + m, dtype=bool)
    wanted[ids] = True
    wanted[n + ids.size:] = True  # appended rows: logicals basic
    return wanted


def _starts(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray, basis: Basis | None,
            carried: Tableau | None, point: np.ndarray | None):
    """Yield the warm starts of ``lp`` as ``(kind, tableau, wanted)``, in the
    order they are tried; each tableau is made only when its start is
    reached.

    With ``basis``: the ``carried`` tableau, when given, then a fresh
    all-logical one, both moved to ``basis``.  With ``point``: a fresh
    tableau moved to the point's basis, where a structural within
    ``_FEAS_TOL`` of a bound is nonbasic there and every other one is wanted
    basic, in a row ``point`` holds tight (within ``_FEAS_TOL``), while the
    logicals of the other rows stay basic.
    """
    if basis is not None:
        wanted = _wanted(lp, basis)
        if carried is not None:
            yield "carried", _carry(carried, lp, lb, ub), wanted
        yield "fresh", _all_logical(lp, lb, ub, basis.at_upper), wanted
    elif point is not None:
        point = np.asarray(point, dtype=np.float64)
        at_lo, at_hi = np.abs(point - lb) <= _FEAS_TOL, np.abs(point - ub) <= _FEAS_TOL
        tight = np.abs(matvec(lp.a, point) - lp.rhs) <= _FEAS_TOL
        yield ("vertex", _all_logical(lp, lb, ub, at_hi & ~at_lo),
               np.concatenate([~(at_lo | at_hi), ~tight]))


def _solve_cold(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray, out: LpResult) -> None:
    """Answer ``lp`` into ``out`` by its 'cold' start.

    The recession LP has the rows and objective of ``lp``, rhs 0, and boxes
    of the directions each column can move in without limit: [0, 0] when
    boxed or fixed, [0, 1] with only a lower bound, [-1, 0] with only an
    upper one, [-1, 1] when free.  It starts from the all-logical tableau
    of ``lp``, which is dual feasible for it and scales the rows as every
    start here does, so that both LPs judge reduced costs alike.  If its
    objective is at least ``-_CERT_DUAL``, its final basis is dual feasible
    for ``lp``, and the start is a fresh all-logical tableau moved there.
    Otherwise its point is an improving ray, and ``lp`` is unbounded when
    feasible: the start solves ``lp`` with the unbounded columns' costs set
    to 0 from the all-logical tableau.  The recession LP is answered into
    ``out`` too, which the start then overwrites; it adds iterations but no
    attempt.  A give-up raises :class:`SimplexNumericsError`.
    """
    m, n = lp.m, lp.n
    has_lo, has_hi = np.isfinite(lb), np.isfinite(ub)
    logicals, lower = np.arange(n + m) >= n, np.zeros(n, dtype=bool)
    rlb, rub = np.where(has_lo, 0.0, -1.0), np.where(has_hi, 0.0, 1.0)
    rec = LinearProgram(lp.c, lp.a, lp.sense, np.zeros(m), rlb, rub)
    _solve_from(_all_logical(lp, lb, ub, lower), rec, rlb, rub, logicals, out, "cold")
    out.attempts.pop()  # the recession LP is not a start of ``lp``
    rec_basis, rec_optimal = out.basis, out.status == "optimal"
    if rec_optimal and out.objective >= -_CERT_DUAL:
        _solve_from(_all_logical(lp, lb, ub, lower), lp, lb, ub, _wanted(lp, rec_basis), out,
                    "cold")
        return
    if not (rec_optimal and out.certified):
        raise SimplexNumericsError("the recession LP found no checked improving ray")
    feas = LinearProgram(np.where(has_lo & has_hi, lp.c, 0.0), lp.a, lp.sense, lp.rhs, lb, ub)
    _solve_from(_all_logical(feas, lb, ub, lower), feas, lb, ub, logicals, out, "cold")
    if out.status == "infeasible":
        out.tableau = None  # priced for the zeroed costs, not for those of ``lp``
    else:
        out.verdict("unbounded", out.certified)


def solve_lp_arrays(lp: LinearProgram, basis: Basis | None = None,
                    tableau: Tableau | None = None, point: np.ndarray | None = None) -> LpResult:
    """Solve a bounded-variable LP from the first of its starts that answers.

    With ``basis`` the starts are the carried ``tableau``, when one is given,
    then a fresh all-logical tableau, both moved to ``basis``.  ``tableau`` is
    the final tableau of an earlier answer on the same rows and objective
    (``LpResult.tableau``; other bounds and appended rows are fine), and it
    is consumed.  With ``point``, a feasible vertex of ``lp``, the start is a
    fresh tableau moved to its basis, and phase two runs from there.  When
    every start gives up, or there is none, the 'cold' start answers (see
    :func:`_solve_cold`); an answer of it that fails its check is returned
    with ``certified`` false.  ``LpResult.attempts`` records every start.
    """
    if tableau is not None and basis is None:
        raise InvalidArgument("a carried tableau needs a basis to move to")
    if point is not None and (basis is not None or np.shape(point) != (lp.n,)):
        raise InvalidArgument("a start point needs one value per column and no basis")
    lb = lp.lb.astype(np.float64)
    ub = lp.ub.astype(np.float64)
    if np.any(lb > ub):
        return LpResult("infeasible", None, None, certified=True, attempts=[("cold", None, 0)])
    out = LpResult("optimal", None, None)
    for kind, tab, wanted in _starts(lp, lb, ub, basis, tableau, point):
        if _solve_from(tab, lp, lb, ub, wanted, out, kind):
            return out
    _solve_cold(lp, lb, ub, out)
    return out
