"""Bounded-variable dense simplex for small linear programs: one routine
moves a tableau to a starting basis, then runs a dual simplex and a primal
clean-up or, from a feasible vertex, the primal simplex alone.

Every structural column is boxed: ``lb <= x <= ub`` with both bounds
finite (:func:`solve_lp_arrays` refuses an infinite one), so the LP has an
optimum whenever it is feasible, and there are no rays.  A column is
``v >= 0`` with ``x = base + dirn * v``, measured from ``lb`` (``dirn``
+1) or from ``ub`` (``dirn`` -1).  Its width ``ub - lb`` is enforced in the
ratio test: a variable that reaches it is complemented (``v' = width -
v``), so nonbasic columns always sit at zero and the rhs column holds the
basic values.  The tableau is one dense numpy array, but encodings leave
most of it zero, so each pivot's rank-1 update touches only the nonzero
rows of the pivot column crossed with the nonzero columns of the pivot row,
and keeps it sparse by zeroing each entry it leaves below ``_DROP_TOL``
(round-off).

Primal pricing is Dantzig's rule (most negative reduced cost, lowest index
on ties), and the dual simplex lets the largest bound violation leave
(Harris two-pass ratio test).  A step is degenerate in both unless it moves
the objective past its best value by more than 1e-12 relative.  After a
streak of 2*(m+n) degenerate steps either loop keeps to Bland's rule, which
guarantees termination (the dual one passes over tiny pivots); each switch
is counted on the :class:`LpResult`.

The tableau keeps every structural column (a fixed one has width 0) and
gives row ``i`` one logical ``s_i`` in ``a_i x + s_i = rhs_i``, bounded by
the row's sense: [0, inf) for 'L', (-inf, 0] for 'G', {0} for 'E'.  A
width-0 column never enters.  A start is a :class:`Tableau` and the ids
wanted basic in it.  The routine adapts the bounds, appends the rows the
tableau lacks with their logicals basic, brings each wanted column that is
not basic into the basis, and computes the basic values from the original
arrays; the reduced-cost row carries over, since the objective is fixed.
On an all-logical tableau the triangular part of the wanted basis is placed
first, one elimination level at a time (a crash basis, see :func:`_crash`):
a level is a set of row singletons, or column singletons, whose pivots form
a diagonal block, so one update places them all.  The columns no level
places (the bump), and every column of a carried tableau, are pivoted in
one at a time (largest |entry| among the rows held by an unwanted id).
Products use the kernels of :mod:`.linalg`, never BLAS or LAPACK, so
results repeat bit for bit for the same operand layout on the same numpy
build.

:func:`solve_lp_arrays` tries the starts of an LP in order and returns the
first that answers: with a basis, the final tableau of the last answer when
the caller carries one (a branch-and-bound search passes each LP's tableau
to the next), then a fresh all-logical tableau; with a vertex, the
all-logical tableau moved to the vertex's basis (a ReLU network's vertex
basis is triangular, layer by layer, so this takes one level a layer and
no pivot).  The last start, and the only one of an LP given none, is
'cold': the all-logical tableau with each column at the bound its cost
prefers, which is dual feasible, so the dual simplex runs from it at once.
It always answers, an LP with no rows or no columns too: with no rows each
column stays at its cost's bound, and with no columns a violated row is its
own Farkas row.  Each start is recorded on the :class:`LpResult`.

An answer is 'optimal' or 'infeasible'.  Every 'optimal' answer is checked
on the original arrays: the primal residual of rows and bounds, and the
reduced costs recomputed from the row duals.  A certified 'infeasible'
answer comes with a Farkas row that proves it on the original rows and
bounds.  An answer that fails its check ends its start, except on the cold
start, which keeps it with ``certified`` false: only a cold answer can be
uncertified.
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
_DROP_TOL = 1e-12      # an entry a pivot updates to below this is round-off: set to zero
_BLAND_PIV = 1e-3      # least |pivot| of a Bland entering column, relative to the largest
_CRASH_PIV = 1e-2      # least |pivot| of a crash level, relative to its row and column


class SimplexNumericsError(MipPruneError, RuntimeError):
    """A pivot loop exceeded its safety cap; the instance is ill-posed."""


@dataclass
class LinearProgram:
    """min c @ x + const  s.t.  a @ x (sense) rhs,  lb <= x <= ub."""

    c: np.ndarray
    a: np.ndarray          # (m, n), dense
    sense: np.ndarray      # array of 'L', 'G', 'E'
    rhs: np.ndarray
    lb: np.ndarray         # finite
    ub: np.ndarray         # finite
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
    move_pivots, levels)``.  ``kind`` is 'carried' (the carried tableau),
    'fresh' (an all-logical tableau moved to the given basis), 'vertex' (one
    moved to the basis of the given point) or 'cold' (the all-logical one with
    each column at the bound its cost prefers).  ``reason`` is None
    for the one start that answered and says why each other gave up (see
    :func:`_solve_from`).  ``levels`` placed the triangular part of an
    all-logical start's basis (see :func:`_crash`), and ``move_pivots``
    moved the start's tableau the rest of the way to its basis: the bump of
    an all-logical start, every column of a carried one.  They are not in
    ``pivots``, which counts the simplex iterations of every attempt, dual
    and primal: basis changes plus bound flips.  ``bland_switches`` counts
    both loops' turns to Bland's rule.  The 'cold' start always answers, and
    only its answer can be uncertified.  Every 'optimal' answer, and every
    'infeasible' one a start proved, has its final ``tableau``.
    """

    status: str            # 'optimal' | 'infeasible'
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0
    basis: Basis | None = None      # the final basis of an 'optimal' answer
    certified: bool = False         # the answer passed its check on the original arrays
    dual_pivots: int = 0
    bland_switches: int = 0
    tableau: Tableau | None = None  # the final tableau, to carry on
    attempts: list[tuple[str, str | None, int, int]] = field(default_factory=list)

    def attempt(self, kind: str, reason: str | None, moved: int = 0, levels: int = 0) -> bool:
        """Record one start; returns whether it answered."""
        self.attempts.append((kind, reason, moved, levels))
        return reason is None

    def verdict(self, status: str, certified: bool, tableau: Tableau | None = None) -> None:
        """Answer ``status`` with no point."""
        self.status, self.certified, self.tableau = status, certified, tableau
        self.x = self.objective = self.basis = None


def _complement(t: np.ndarray, dirn: np.ndarray, j: int, w: float) -> None:
    """Substitute ``v_j = w - v_j'`` in ``t``."""
    if w:
        t[:, -1] -= w * t[:, j]
    t[:, j] *= -1.0
    dirn[j] = -dirn[j]


def _pivot(t: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Pivot on ``t[r, j]``: normalize row ``r`` and eliminate column ``j``.

    The tableau is dense, but the rank-1 update touches only the rows with a
    nonzero pivot-column entry (reduced-cost row included, row ``r``
    excluded) crossed with the columns, the rhs column among them, that are
    nonzero in the normalized pivot row; a skipped entry would have had
    ``x - 0*y`` subtracted.  An updated entry below ``_DROP_TOL`` in
    magnitude is the round-off of a cancellation and is set to zero.
    """
    t[r] /= t[r, j]
    rows = t[:, j].nonzero()[0]
    rows = rows[rows != r]
    cols = t[r].nonzero()[0]
    block = t[rows[:, None], cols] - t[rows, j][:, None] * t[r, cols]
    t[rows[:, None], cols] = np.where(np.abs(block) < _DROP_TOL, 0.0, block)
    t[:-1, j] = 0.0
    t[r, j] = 1.0
    basis[r] = j


def _pivot_loop(t: np.ndarray, basis: np.ndarray, width: np.ndarray, dirn: np.ndarray,
                bland_after: int, out: LpResult) -> int:
    """Run primal simplex iterations on tableau ``t`` in place, until no
    column prices below ``-_RC_TOL``; returns the iteration count.

    ``t`` is (m+1, k+1): m constraint rows, reduced-cost row last, rhs column
    last.  ``width`` and ``dirn`` describe the k columns; ``dirn`` is
    updated by each complement.  A column of width 0 never enters.  A step
    is degenerate unless it lowers the objective past its best value so far
    by more than 1e-12 relative, as in :func:`_dual_loop`; after
    ``bland_after`` in a row the loop keeps to Bland's rule, counted in
    ``out``: the lowest column priced below ``-_RC_TOL`` enters.  Only a
    logical can enter with no bound on its step, and then its column moves
    no basic structural by more than ``_PIV_TOL`` a unit, so its price is
    round-off: the loop stops there, and the answer's check judges the
    point.
    """
    m = t.shape[0] - 1
    pivots = 0
    degen_streak = 0
    best_neg_obj = t[-1, -1]
    bland = False
    rc_view = t[-1, :-1]
    rhs_col = t[:-1, -1]
    allowed = width > 0.0
    while True:
        price = np.where(allowed, rc_view, 0.0)
        cands = np.flatnonzero(price < -_RC_TOL)
        if cands.size == 0:
            return pivots
        j = int(cands[0]) if bland else int(np.argmin(price))
        col = t[:-1, j]
        wb = width[basis]
        down = col > _PIV_TOL
        up = (col < -_PIV_TOL) & np.isfinite(wb)
        ratios = np.full(m, np.inf)
        ratios[down] = rhs_col[down] / col[down]
        ratios[up] = (rhs_col[up] - wb[up]) / col[up]
        rmin = float(ratios.min(initial=np.inf))
        if min(rmin, float(width[j])) == np.inf:
            return pivots
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
        # the objective cell holds minus the objective, which a primal step
        # lowers; noise-level motion counts as degenerate, so that float
        # round-off cannot reset the streak
        if t[-1, -1] > best_neg_obj + 1e-12 * max(1.0, abs(best_neg_obj)):
            best_neg_obj = t[-1, -1]
            degen_streak = 0
        else:
            degen_streak += 1
        if not bland and degen_streak >= bland_after:
            bland = True
            out.bland_switches += 1
        if pivots > _MAX_PIVOTS:
            raise SimplexNumericsError(f"pivot cap {_MAX_PIVOTS} exceeded")


def _dual_loop(t: np.ndarray, basis: np.ndarray, width: np.ndarray, dirn: np.ndarray,
               bland_after: int, out: LpResult) -> tuple[str, int, int]:
    """Run dual simplex iterations on tableau ``t`` in place.

    ``t`` is laid out as in :func:`_pivot_loop` and starts dual feasible.
    The basic variable with the largest bound violation leaves, lowest id on
    ties; one above its width is complemented first, so it leaves at zero.
    The entering column comes from a Harris two-pass ratio test: the least
    ratio with reduced costs relaxed by ``_HARRIS_TOL``, then the largest
    |pivot| among the columns within it, lowest index on ties.  A step is
    degenerate unless it raises the objective past its best value so far by
    more than 1e-12 relative, so that round-off cannot reset the streak;
    after ``bland_after`` in a row the loop keeps to Bland's rule, counted
    in ``out``: the violated row of lowest basis id leaves, and the lowest
    column within the first pass's bound enters whose |pivot| is at least
    ``_BLAND_PIV`` times the largest there (a pivot of 1e-9 can blow the
    basic values up to 1e11).  Returns (status, row, iterations): 'optimal'
    once no violation exceeds ``_DUAL_FEAS_TOL``, or 'infeasible' with the
    row that has no entering column (a dual ray).
    """
    rhs = t[:-1, -1]
    d = t[-1, :-1]
    movable = width > 0.0
    nonbasic = np.ones(d.size, dtype=bool)
    nonbasic[basis] = False
    pivots = 0
    degen_streak = 0
    best_neg_obj = t[-1, -1]
    bland = False
    while True:
        wb = width[basis]
        viol = np.maximum(-rhs, rhs - wb)
        worst = viol.max(initial=0.0)
        if worst <= _DUAL_FEAS_TOL:
            return "optimal", -1, pivots
        rows = np.flatnonzero(viol > _DUAL_FEAS_TOL if bland else viol == worst)
        r = int(rows[np.argmin(basis[rows])])
        if rhs[r] > wb[r]:
            _complement(t, dirn, basis[r], wb[r])
            t[r] *= -1.0
        row = t[r, :-1]
        cand = np.flatnonzero(nonbasic & movable & (row < -_PIV_TOL))
        if cand.size == 0:
            return "infeasible", r, pivots
        alpha = -row[cand]
        dj = np.maximum(d[cand], 0.0)
        theta = float(((dj + _HARRIS_TOL) / alpha).min())
        within = np.flatnonzero(dj / alpha <= theta)
        if bland:
            # the lowest column whose |pivot| is not tiny beside the largest
            i = int(within[np.argmax(alpha[within] >= _BLAND_PIV * alpha[within].max())])
        else:
            i = int(within[np.argmax(alpha[within])])
        q = int(cand[i])
        nonbasic[basis[r]] = True
        nonbasic[q] = False
        _pivot(t, basis, r, q)
        pivots += 1
        # the objective cell holds minus the objective, which a dual step
        # raises; noise-level motion counts as degenerate, as in _pivot_loop
        if t[-1, -1] < best_neg_obj - 1e-12 * max(1.0, abs(best_neg_obj)):
            best_neg_obj = t[-1, -1]
            degen_streak = 0
        else:
            degen_streak += 1
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
    than ``_CERT_PRIMAL``.
    """
    top = np.abs(mult).max(initial=0.0)
    if top == 0.0:
        return False
    sense = np.asarray(lp.sense, dtype="U1")
    u = mult / top * rho
    u[((sense == "L") & (u < 0.0)) | ((sense == "G") & (u > 0.0))] = 0.0
    g = matvec(lp.a.T, u)
    side = np.where(g > 0.0, lb, ub)
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
        res.basis = Basis(np.sort(tab.basis).astype(np.int32), dirn[:n] < 0)
    return certified


def _row_scale(a: np.ndarray, b: np.ndarray, sense: np.ndarray) -> np.ndarray:
    """``rho``: tableau row ``i`` is ``rho_i`` times row ``i``, scaled so that its
    largest entry, rhs ``b_i`` included, is 1 and negated for a 'G' row, so
    that every logical is >= 0.  A row with no entries is not scaled, so that
    its constant's breach is judged in the row's own units."""
    big = np.maximum(a.max(axis=1, initial=0.0), -a.min(axis=1, initial=0.0))
    scale = np.where(big > 0.0, np.maximum(big, np.abs(b)), 1.0)
    scale[scale < 1e-12] = 1.0
    return np.where(np.asarray(sense, dtype="U1") == "G", -1.0, 1.0) / scale


def _base(lb: np.ndarray, ub: np.ndarray, dirn: np.ndarray) -> np.ndarray:
    """The bound each structural's column is measured from."""
    return np.where(dirn > 0, lb, ub)


def _all_logical(lp: LinearProgram, lb: np.ndarray, ub: np.ndarray,
                 at_upper: np.ndarray) -> Tableau:
    """The tableau of ``lp`` on its all-logical basis, basic values included; a
    structural sits at its upper bound where ``at_upper`` says so."""
    m, n = lp.m, lp.n
    dirn = np.concatenate([np.where(at_upper, -1.0, 1.0), np.ones(m)])
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

    The rows ``tab`` lacks are appended with their logicals basic, after
    the basic columns are eliminated from them.
    """
    m, n, m0 = lp.m, lp.n, tab.basis.size
    if m0 > m or tab.t.shape != (m0 + 1, n + m0 + 1):
        raise InvalidArgument(f"tableau of {m0} rows does not fit an LP with {m} rows "
                              f"and {n} columns")
    dirn = tab.dirn
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


def _place(t: np.ndarray, basis: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """Make the columns ``q`` basic in the rows ``p`` in one update; the block
    ``t[p, q]`` must be diagonal.

    The rows ``p`` are normalized, then every other row ``i`` loses
    ``t[i, q] @ t[p]``.  The product is formed from the nonzero entries
    only: each nonzero ``t[i, q_l]`` times each nonzero ``t[p_l, j]``, each
    entry's terms subtracted one by one in ``l`` order, so only the entries
    that get a term change; one updated below ``_DROP_TOL`` in magnitude is
    set to zero, as in :func:`_pivot`.  Each column ``q_l`` ends as the unit vector
    of row ``p_l`` exactly (``x / x`` is 1 and ``x - x * 1`` is 0).
    """
    row = t[p] / t[p, q][:, None]
    t[p] = row
    col = t[:, q]
    col[p] = 0.0
    ci, cl = np.nonzero(col)               # the other rows' entries in the columns q
    rl, rj = np.nonzero(row)               # the rows p's entries, row by row
    per_row = np.bincount(rl, minlength=p.size)
    k = per_row[cl]                        # terms each column entry makes
    e = np.arange(k.sum()) + np.repeat(np.cumsum(per_row)[cl] - np.cumsum(k), k)
    i, j = np.repeat(ci, k), rj[e]
    # the terms of each entry come in l order, and are subtracted in it
    np.subtract.at(t, (i, j), np.repeat(col[ci, cl], k) * row[rl[e], j])
    t[i, j] = np.where(np.abs(t[i, j]) < _DROP_TOL, 0.0, t[i, j])
    basis[p] = q


def _crash(t: np.ndarray, basis: np.ndarray, wanted: np.ndarray) -> int:
    """Place the triangular part of the ``wanted`` basis into tableau ``t``,
    one elimination level at a time; returns the number of levels.

    The active rows are those held by an unwanted id, the active columns
    the wanted ones not yet basic.  A level is every active row with one
    nonzero among the active columns (a row singleton), or, when there is
    none, every active column with one nonzero among the active rows (a
    column singleton).  Its pivots pass a threshold test: each is at least
    ``_CRASH_PIV`` times the largest entry of its row and of its column in
    the block of active rows and columns, as first read.  Among pivots on
    the same column (row singletons) or the same row (column singletons)
    the largest |pivot| wins, lowest index on ties.  The level's pivot
    block is then diagonal, so one update places it (see :func:`_place`).
    Neither kind of level changes the active rows' entries in the active
    columns, so they are read once.  The columns no level places (the bump)
    are left to the caller.  Ref: Bixby, Oper. Res. 50, 2002 (crash bases).
    """
    basic = np.zeros(wanted.size, dtype=bool)
    basic[basis] = True
    rows = np.flatnonzero(~wanted[basis])
    cols = np.flatnonzero(wanted & ~basic)
    er, ec = np.nonzero(t[np.ix_(rows, cols)])  # the active block's entries
    mag = np.abs(t[rows[er], cols[ec]])
    row_top, col_top = np.zeros(rows.size), np.zeros(cols.size)
    np.maximum.at(row_top, er, mag)
    np.maximum.at(col_top, ec, mag)
    stable = mag >= _CRASH_PIV * np.maximum(row_top[er], col_top[ec])
    row_on = np.ones(rows.size, dtype=bool)
    col_on = np.ones(cols.size, dtype=bool)
    levels = 0
    while True:
        on = row_on[er] & col_on[ec]
        r, c, piv, ok = er[on], ec[on], mag[on], stable[on]
        by_row = ok & (np.bincount(r, minlength=rows.size)[r] == 1)
        by_col = ok & (np.bincount(c, minlength=cols.size)[c] == 1)
        if not by_row.any() and not by_col.any():
            return levels
        # one pivot per column (row singletons) or per row (column singletons)
        ok = by_row if by_row.any() else by_col
        r, c, piv = r[ok], c[ok], piv[ok]
        key, other = (c, r) if ok is by_row else (r, c)
        order = np.lexsort((other, -piv, key))
        head = key[order]
        first = order[np.concatenate(([True], head[1:] != head[:-1]))]
        r, c = r[first], c[first]
        _place(t, basis, rows[r], cols[c])
        row_on[r] = False
        col_on[c] = False
        levels += 1


def _solve_from(tab: Tableau, lp: LinearProgram, lb: np.ndarray, ub: np.ndarray,
                wanted: np.ndarray, out: LpResult, kind: str) -> bool:
    """Move ``tab`` to a basis that holds the ``wanted`` ids, then solve.

    Unless ``kind`` is 'carried', ``tab`` is all-logical, and the triangular
    part of the wanted basis is placed by :func:`_crash`'s elimination
    levels first.  Each wanted column still not basic (the bump) is pivoted
    in, in id order, on the row held by an unwanted id with the largest
    |entry| (lowest row on ties; none above ``_PIV_TOL`` means singular).
    More wanted ids than rows give up at once ('not_vertex'); with fewer,
    the rows no wanted id takes keep their unwanted basic column.  The
    objective is fixed, so the reduced-cost row needs no price-out.  Unless
    ``kind`` is 'vertex' the start is made dual feasible (nonbasic
    structurals move to the bound their reduced cost asks for), the rhs
    column is computed from the original arrays, and a dual simplex and a
    primal clean-up follow.  A 'vertex' start keeps each nonbasic column at
    the bound the tableau measures it from, and phase two runs from it if
    no basic value breaks its bounds by more than ``_FEAS_TOL``.  ``out``
    gets the answer and the simplex iterations, and the attempt with the
    pivots and levels of the move and, when the start gives up, its reason:
    'not_vertex', 'singular', 'dual_infeasible' (a nonbasic logical priced
    the wrong way), 'infeasible_start' (a 'vertex' start out of bounds) or
    'uncertified' (the answer failed its check; ``out`` keeps no part of
    it).  The 'cold' start wants the all-logical basis, so none of these
    can stop it: it answers whatever its loops end on, with ``certified``
    false unless checked: an uncertified optimum, or an unproven infeasible
    verdict taken for round-off, the clean-up running from the clipped
    basic values; if that point breaks a row or bound, the answer is
    'infeasible'.  Returns whether the start answered.
    """
    m, n = lp.m, lp.n
    k = n + m
    primal, last = kind == "vertex", kind == "cold"
    t, basis, dirn, rho = tab.t, tab.basis, tab.dirn, tab.rho
    width = np.concatenate([ub - lb, np.where(np.asarray(lp.sense, dtype="U1") == "E", 0.0,
                                              np.inf)])
    if np.count_nonzero(wanted) > m:
        return out.attempt(kind, "not_vertex")
    t[:, -1] = 0.0  # computed after the move
    levels = 0 if kind == "carried" else _crash(t, basis, wanted)
    basic = np.zeros(k, dtype=bool)
    basic[basis] = True
    moved = 0
    for j in np.flatnonzero(wanted & ~basic).tolist():
        rows = np.flatnonzero(~wanted[basis])
        col = np.abs(t[rows, j])
        r = int(np.argmax(col))  # largest |entry|, lowest row on ties
        if col[r] <= _PIV_TOL:
            return out.attempt(kind, "singular", moved, levels)
        _pivot(t, basis, int(rows[r]), j)
        moved += 1

    if not primal:
        # a dual feasible start: structurals move to the bound their reduced
        # cost asks for; a logical priced the wrong way gives up
        d = t[-1, :-1]
        nonbasic = np.ones(k, dtype=bool)
        nonbasic[basis] = False
        if np.any(nonbasic & np.isinf(width) & (d < -_CERT_DUAL)):
            return out.attempt(kind, "dual_infeasible", moved, levels)
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
        if np.any(np.maximum(-rhs, rhs - width[basis]) > _FEAS_TOL):
            return out.attempt(kind, "infeasible_start", moved, levels)
    else:
        dual, r, p = _dual_loop(t, basis, width, dirn, 2 * (m + k), out)
        out.dual_pivots += p
        out.pivots += p
        if dual == "infeasible":
            if _certified_infeasible(lp, lb, ub, t[r, n:k] * dirn[n:], rho):
                out.verdict(dual, True, tab)
                return out.attempt(kind, None, moved, levels)
            if not last:
                return out.attempt(kind, "uncertified", moved, levels)
    np.clip(rhs, 0.0, width[basis], out=rhs)
    out.pivots += _pivot_loop(t, basis, width, dirn, 2 * (m + k), out)
    if not _finish(out, lp, lb, ub, tab, keep=last):
        if not last:
            return out.attempt(kind, "uncertified", moved, levels)
        if dual == "infeasible" and not _certified_optimal(lp, lb, ub, out.x, None):
            out.verdict(dual, False)  # the clean-up's point breaks a row or bound
    return out.attempt(kind, None, moved, levels)


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
    """Yield the starts of ``lp`` as ``(kind, tableau, wanted)``, in the order
    they are tried; each tableau is made only when its start is reached.

    With ``basis``: the ``carried`` tableau, when given, then a fresh
    all-logical one, both moved to ``basis``.  With ``point``: a fresh
    tableau moved to the point's basis, where a structural within
    ``_FEAS_TOL`` of a bound is nonbasic there and every other one is wanted
    basic, in a row ``point`` holds tight (within ``_FEAS_TOL``), while the
    logicals of the other rows stay basic.  Last, 'cold': the all-logical
    tableau with each structural at the bound its cost prefers.
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
    yield "cold", _all_logical(lp, lb, ub, lp.c < 0.0), np.arange(lp.n + lp.m) >= lp.n


def solve_lp_arrays(lp: LinearProgram, basis: Basis | None = None,
                    tableau: Tableau | None = None, point: np.ndarray | None = None) -> LpResult:
    """Solve a bounded-variable LP from the first of its starts that answers.

    Every structural column must be boxed: a column with an infinite bound
    raises :class:`InvalidArgument`, which names it.  With ``basis`` the
    starts are the carried ``tableau``, when one is given, then a fresh
    all-logical tableau, both moved to ``basis``.  ``tableau`` is the final
    tableau of an earlier answer on the same rows and objective
    (``LpResult.tableau``; other bounds and appended rows are fine), and it
    is consumed.  With ``point``, a feasible vertex of ``lp``, the start is a
    fresh tableau moved to its basis, and phase two runs from there.  The
    'cold' start comes last and always answers; its answer is returned with
    ``certified`` false when it fails its check.  ``LpResult.attempts``
    records every start.
    """
    if tableau is not None and basis is None:
        raise InvalidArgument("a carried tableau needs a basis to move to")
    if point is not None and (basis is not None or np.shape(point) != (lp.n,)):
        raise InvalidArgument("a start point needs one value per column and no basis")
    lb = lp.lb.astype(np.float64)
    ub = lp.ub.astype(np.float64)
    unboxed = np.flatnonzero(~(np.isfinite(lb) & np.isfinite(ub)))
    if unboxed.size:
        j = int(unboxed[0])
        raise InvalidArgument(f"column {j} has bounds [{float(lb[j])!r}, {float(ub[j])!r}]: "
                              "every column needs two finite bounds")
    if np.any(lb > ub):
        out = LpResult("infeasible", None, None, certified=True)
        out.attempt("cold", None)
        return out
    out = LpResult("optimal", None, None)
    for kind, tab, wanted in _starts(lp, lb, ub, basis, tableau, point):
        if _solve_from(tab, lp, lb, ub, wanted, out, kind):
            break
    return out
