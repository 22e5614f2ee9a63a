"""Bounded-variable two-phase dense simplex for small linear programs.

Fixed variables are substituted.  Every other variable is one tableau
column ``v >= 0`` with ``x = base + dirn * v``: shifted from a finite lower
bound, mirrored from a finite upper bound when there is no lower one, or
left free when both bounds are infinite.  A finite width ``ub - lb`` is
enforced in the ratio test: a variable that reaches it is complemented
(``v' = width - v``), so nonbasic columns always sit at zero, the rhs
column holds the basic values, and ``base`` is ``lb`` or ``ub`` as ``dirn``
is +1 or -1.  The tableau is one dense numpy array, but encodings leave
most of it zero, so each pivot's rank-1 update touches only the nonzero
rows of the pivot column crossed with the nonzero columns of the pivot row.

Pricing is Dantzig's rule (most negative reduced cost, lowest index on
ties; a free nonbasic column prices by its magnitude).  After a streak of
2*(m+n) degenerate pivots the pricing switches to Bland's rule, which
guarantees termination; it switches back once the objective strictly
improves.  Ref: Koberstein, "The dual simplex method, techniques for a fast
and stable implementation", PhD thesis, Paderborn 2005.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MipPruneError

__all__ = ["LinearProgram", "LpResult", "solve_lp_arrays"]

_RC_TOL = 1e-9
_PIV_TOL = 1e-9
_FEAS_TOL = 1e-7
_MAX_PIVOTS = 200_000


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


@dataclass
class LpResult:
    status: str            # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0        # simplex iterations: basis changes plus bound flips


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
                allowed: np.ndarray) -> tuple[str, int]:
    """Run simplex iterations on tableau ``t`` in place.

    ``t`` is (m+1, k+1): m constraint rows, reduced-cost row last, rhs column
    last.  ``width``, ``free`` and ``dirn`` describe the k columns; ``dirn``
    is updated by each complement.  ``allowed`` masks columns eligible to
    enter (used to lock out artificials).  Returns (status, iteration count).
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
            if degen_streak > bland_after:
                bland = True
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
                return "optimal", pivots
        if pivots > _MAX_PIVOTS:
            raise SimplexNumericsError(f"pivot cap {_MAX_PIVOTS} exceeded")


def _solve_columns(a: np.ndarray, b: np.ndarray, senses: np.ndarray, c: np.ndarray,
                   width: np.ndarray, free: np.ndarray, dirn: np.ndarray):
    """Two-phase simplex for min c y, a y (sense) b over columns ``y = dirn * v``.

    Each ``v`` lies in [0, width], or is unrestricted where ``free``.
    Returns (status, v, dirn, iterations) with the final orientation ``dirn``.
    """
    m, n = a.shape
    a = a * dirn
    b = b.copy()
    senses = senses.copy()
    if m:
        # row equilibration: badly scaled encodings otherwise wreck the
        # absolute pivot tolerances
        row_scale = np.maximum(np.abs(a).max(axis=1, initial=0.0), np.abs(b))
        row_scale[row_scale < 1e-12] = 1.0
        a /= row_scale[:, None]
        b /= row_scale
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    senses[flip] = np.where(senses[flip] == "L", "G", np.where(senses[flip] == "G", "L", "E"))

    slack_rows = np.flatnonzero(senses == "L")
    surplus_rows = np.flatnonzero(senses == "G")
    art_rows = np.flatnonzero(senses != "L")  # 'G' and 'E' rows need artificials

    n_slack = slack_rows.size
    n_surp = surplus_rows.size
    n_art = art_rows.size
    art0 = n + n_slack + n_surp
    k = art0 + n_art

    t = np.zeros((m + 1, k + 1), dtype=np.float64)
    t[:m, :n] = a
    t[:m, -1] = b
    t[slack_rows, n + np.arange(n_slack)] = 1.0
    t[surplus_rows, n + n_slack + np.arange(n_surp)] = -1.0
    t[art_rows, art0 + np.arange(n_art)] = 1.0

    basis = np.zeros(m, dtype=np.int64)
    basis[slack_rows] = n + np.arange(n_slack)
    basis[art_rows] = art0 + np.arange(n_art)

    # slack, surplus and artificial columns are plain v >= 0
    width = np.concatenate([width, np.full(k - n, np.inf)])
    free = np.concatenate([free, np.zeros(k - n, dtype=bool)])
    dirn = np.concatenate([dirn, np.ones(k - n)])

    total_pivots = 0
    bland_after = 2 * (m + k)
    is_art = np.zeros(k, dtype=bool)
    is_art[art0:] = True

    if n_art:
        # phase one: price out the artificials; they never re-enter
        t[-1, :] = 0.0
        t[-1, art0:k] = 1.0
        for r in art_rows:
            t[-1] -= t[r]
        status, p = _pivot_loop(t, basis, width, free, dirn, _RC_TOL, bland_after, ~is_art)
        total_pivots += p
        # the phase-one objective is bounded below by zero, so an "unbounded"
        # verdict can only be round-off noise in a reduced cost; fall through
        # to the objective test either way
        if -t[-1, -1] > _FEAS_TOL:
            return "infeasible", None, None, total_pivots
        # drive remaining artificials out of the basis or drop redundant rows
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if is_art[basis[r]]:
                cand = np.flatnonzero((np.abs(t[r, :k]) > _PIV_TOL) & ~is_art)
                if cand.size:
                    _pivot(t, basis, r, int(cand[0]))
                    total_pivots += 1
                else:
                    keep[r] = False
        if not keep.all():
            rows = np.flatnonzero(keep)
            t = np.vstack([t[rows], t[-1:]])
            basis = basis[rows]
            m = rows.size

    # phase two on the real objective, in the columns' current orientation;
    # artificial columns locked out
    t[-1, :] = 0.0
    t[-1, :n] = c * dirn[:n]
    for r in range(m):
        cb = t[-1, basis[r]]
        if cb != 0.0:
            t[-1] -= cb * t[r]
    status, p = _pivot_loop(t, basis, width, free, dirn, _RC_TOL, bland_after, ~is_art)
    total_pivots += p
    if status == "unbounded":
        return "unbounded", None, None, total_pivots
    v = np.zeros(k, dtype=np.float64)
    v[basis] = t[:m, -1]
    return "optimal", v[:n], dirn[:n], total_pivots


def solve_lp_arrays(lp: LinearProgram) -> LpResult:
    """Solve a bounded-variable LP with the bounded-variable simplex."""
    lb = lp.lb.astype(np.float64)
    ub = lp.ub.astype(np.float64)
    if np.any(lb > ub):
        return LpResult("infeasible", None, None, 0)

    fixed = lb == ub
    x = np.where(fixed, lb, 0.0)
    a = lp.a.astype(np.float64)
    rhs = lp.rhs.astype(np.float64) - a @ x
    sense = np.asarray(lp.sense, dtype="U1")

    if fixed.all():
        # everything fixed: only feasibility to check
        bad = (((sense == "L") & (rhs < -_FEAS_TOL)) | ((sense == "G") & (rhs > _FEAS_TOL))
               | ((sense == "E") & (np.abs(rhs) > _FEAS_TOL)))
        if bad.any():
            return LpResult("infeasible", None, None, 0)
        return LpResult("optimal", x, lp.const + float(np.dot(lp.c, x)), 0)

    idx = np.flatnonzero(~fixed)
    lo, hi = lb[idx], ub[idx]
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    free = ~has_lo & ~has_hi
    a = a[:, idx]
    rhs = rhs - a @ np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    status, v, dirn, pivots = _solve_columns(a, rhs, sense, lp.c[idx].astype(np.float64),
                                             hi - lo, free, np.where(has_lo | free, 1.0, -1.0))
    if status != "optimal":
        return LpResult(status, None, None, pivots)
    x[idx] = np.where(free, 0.0, np.where(dirn > 0, lo, hi)) + dirn * v
    # recompute the objective from the original data: immune to tableau drift
    obj = float(np.dot(lp.c, x)) + lp.const
    return LpResult("optimal", x, obj, pivots)
