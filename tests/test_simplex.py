from itertools import combinations

import numpy as np
import pytest

from mipprune import simplex
from mipprune.errors import InvalidArgument
from mipprune.simplex import (_DROP_TOL, Basis, LinearProgram, LpResult, _dual_loop, _pivot,
                              _pivot_loop, solve_lp_arrays)
from mipprune.solver import LpCounters


def make_lp(c, a, sense, rhs, lb, ub):
    return LinearProgram(
        c=np.asarray(c, dtype=np.float64),
        a=np.asarray(a, dtype=np.float64).reshape(len(rhs), len(c)),
        sense=np.asarray(sense, dtype="U1"),
        rhs=np.asarray(rhs, dtype=np.float64),
        lb=np.asarray(lb, dtype=np.float64),
        ub=np.asarray(ub, dtype=np.float64),
    )


def vertex_enumeration(lp):
    """Oracle: enumerate all basic points from n-subsets of tight constraints.

    Collects every row (as equality) and every finite bound, solves each
    n-subset, keeps feasible points, and minimizes the objective over them.
    Exponential, fine for n <= 6.
    """
    n = lp.n
    planes = []
    for i in range(lp.m):
        planes.append((lp.a[i], lp.rhs[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lb[j]):
            planes.append((e.copy(), lp.lb[j]))
        if np.isfinite(lp.ub[j]):
            planes.append((e.copy(), lp.ub[j]))
    best = None
    feasible_any = False
    for subset in combinations(range(len(planes)), n):
        a = np.array([planes[i][0] for i in subset])
        b = np.array([planes[i][1] for i in subset])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not _feasible(lp, x):
            continue
        feasible_any = True
        val = float(lp.c @ x)
        if best is None or val < best:
            best = val
    return best, feasible_any


def _feasible(lp, x, tol=1e-9):
    if np.any(x < lp.lb - tol) or np.any(x > lp.ub + tol):
        return False
    lhs = lp.a @ x
    for i in range(lp.m):
        if lp.sense[i] == "L" and lhs[i] > lp.rhs[i] + tol:
            return False
        if lp.sense[i] == "G" and lhs[i] < lp.rhs[i] - tol:
            return False
        if lp.sense[i] == "E" and abs(lhs[i] - lp.rhs[i]) > tol:
            return False
    return True


def random_mixed_lp(rng):
    """A feasible LP with 1-6 boxed or fixed columns and 0-6 mixed rows."""
    kinds = ["box", "fixed"]
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 7))
    c = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(-1.0, 1.0, size=n)
    sense = rng.choice(["L", "G", "E"], size=m, p=[0.45, 0.45, 0.1])
    slack = rng.uniform(0.0, 1.0, size=m)
    rhs = a @ x0 + np.where(sense == "L", slack, np.where(sense == "G", -slack, 0.0))
    kind = rng.choice(kinds, size=n)
    lo = x0 - rng.uniform(0.2, 2.0, size=n)
    hi = x0 + rng.uniform(0.2, 2.0, size=n)
    lb = np.where(kind == "box", lo, x0)
    ub = np.where(kind == "box", hi, x0)
    return make_lp(c, a, sense, rhs, lb, ub)


def starts(r):
    """``r.attempts`` as 'kind' for the start that answered and 'kind:reason'
    for each one that gave up, in the order tried."""
    return [kind if why is None else f"{kind}:{why}" for kind, why, *_ in r.attempts]


def highs(lp):
    """(status, objective) of ``lp`` from HiGHS through scipy's linprog."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    s = lp.sense
    ref = linprog(lp.c, A_ub=np.vstack([lp.a[s == "L"], -lp.a[s == "G"]]),
                  b_ub=np.concatenate([lp.rhs[s == "L"], -lp.rhs[s == "G"]]),
                  A_eq=lp.a[s == "E"], b_eq=lp.rhs[s == "E"],
                  bounds=list(zip(lp.lb, lp.ub)), method="highs")
    return {0: "optimal", 2: "infeasible"}[ref.status], ref.fun


class TestSimple:
    def test_min_x_with_floor(self):
        lp = make_lp([1.0], [[1.0]], ["G"], [3.0], [-10.0], [10.0])
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(3.0, abs=1e-9)

    def test_contradictory_rows_infeasible(self):
        lp = make_lp([1.0], [[1.0], [1.0]], ["L", "G"], [0.0, 1.0], [-10.0], [10.0])
        assert solve_lp_arrays(lp).status == "infeasible"

    def test_all_fixed_feasibility_only(self):
        lp = make_lp([2.0, 1.0], [[1.0, 1.0]], ["L"], [5.0], [1.0, 2.0], [1.0, 2.0])
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(4.0)

    @pytest.mark.parametrize("lb, ub", [(-np.inf, 1.0), (0.0, np.inf), (-np.inf, np.inf),
                                        (np.nan, 1.0)])
    def test_unboxed_column_rejected(self, lb, ub):
        """Every column needs two finite bounds; the error names the first
        column without them."""
        lp = make_lp([1.0, 1.0], [[1.0, 1.0]], ["G"], [1.0], [0.0, lb], [1.0, ub])
        with pytest.raises(InvalidArgument, match=r"^column 1 has bounds"):
            solve_lp_arrays(lp)


class TestRandomAgainstVertexEnumeration:
    def test_two_hundred_random_lps(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 9))
            c = rng.normal(size=n)
            a = rng.normal(size=(m, n))
            x0 = rng.uniform(-1.0, 1.0, size=n)
            sense = rng.choice(["L", "G", "E"], size=m, p=[0.45, 0.45, 0.1])
            slack = rng.uniform(0.0, 1.0, size=m)
            rhs = a @ x0 + np.where(sense == "L", slack, np.where(sense == "G", -slack, 0.0))
            lb = x0 - rng.uniform(0.2, 2.0, size=n)
            ub = x0 + rng.uniform(0.2, 2.0, size=n)
            lp = make_lp(c, a, sense, rhs, lb, ub)
            want, feas = vertex_enumeration(lp)
            if not feas:
                continue
            r = solve_lp_arrays(lp)
            assert r.status == "optimal", f"lp declared {r.status}"
            assert r.objective == pytest.approx(want, abs=1e-7)
            assert _feasible(lp, r.x, tol=1e-7)
            checked += 1

    def test_deterministic_resolve(self):
        rng = np.random.default_rng(22)
        c = rng.normal(size=5)
        a = rng.normal(size=(6, 5))
        rhs = a @ np.zeros(5) + 1.0
        lp = make_lp(c, a, ["L"] * 6, rhs, [-1.0] * 5, [1.0] * 5)
        r1 = solve_lp_arrays(lp)
        r2 = solve_lp_arrays(lp)
        assert r1.objective == r2.objective
        assert r1.x.tobytes() == r2.x.tobytes()
        assert r1.pivots == r2.pivots


class TestDegenerate:
    def test_highly_degenerate_terminates(self):
        # many redundant rows through the same vertex force degenerate pivots
        n = 4
        c = -np.ones(n)
        rows = []
        rhs = []
        for subset in combinations(range(n), 2):
            row = np.zeros(n)
            row[list(subset)] = 1.0
            rows.append(row)
            rhs.append(1.0)
        lp = make_lp(c, np.array(rows), ["L"] * len(rows), rhs, [0.0] * n, [2.0] * n)
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(-2.0, abs=1e-9)

    def test_beale_cycle_switches_to_bland(self):
        """Beale's LP cycles under Dantzig pricing with the lowest-id leaving
        rule when its slacks hold the lowest ids; the loop must leave the
        cycle through Bland's rule, once, and count it."""
        t = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0, 0.0],
                      [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0, 0.0]])
        k = 7
        out = LpResult("optimal", None, None)
        pivots = _pivot_loop(t, np.array([0, 1, 2]), np.full(k, np.inf), np.ones(k), 2 * (3 + k),
                             out)
        assert -t[-1, -1] == pytest.approx(-1.25, abs=1e-12)
        assert pivots > 2 * (3 + k)  # the degenerate streak ran out first
        assert out.bland_switches == 1

    def test_beale_keeps_to_bland_past_an_improving_step(self, monkeypatch):
        """Beale's LP beside a separate row ``x7 + x8 <= 1`` priced -0.1 and
        -0.2, too shallow to enter during the cycle.  After the switch the
        loop keeps to Bland's rule to the end: each entering column is the
        lowest one priced below ``_RC_TOL``, also after the steps that improve
        the objective, so x7 enters before x8, whose price is the larger."""
        t = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0, 0.0, 0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0, 0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                      [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0, -0.1, -0.2, 0.0, 0.0]])
        k = 10
        out = LpResult("optimal", None, None)
        after = []  # (entering, lowest candidate, objective cell) of each step after the switch
        real = simplex._pivot

        def recording(t, basis, r, j):
            if out.bland_switches:
                low = int(np.flatnonzero(t[-1, :-1] < -simplex._RC_TOL)[0])
                after.append((j, low, t[-1, -1]))
            real(t, basis, r, j)

        monkeypatch.setattr(simplex, "_pivot", recording)
        _pivot_loop(t, np.array([0, 1, 2, 9]), np.full(k, np.inf), np.ones(k), 2 * (4 + k), out)
        assert out.bland_switches == 1
        assert -t[-1, -1] == pytest.approx(-1.45, abs=1e-12)
        cells = [cell for *_, cell in after]
        assert any(b > a for a, b in zip(cells, cells[1:]))  # improved, then pivoted again
        assert [j for j, *_ in after] == [low for _, low, _ in after]
        assert [j for j, *_ in after][-2:] == [7, 8]

    def test_noise_level_primal_step_keeps_the_degenerate_streak(self):
        """min -2e-9 (x0 + x1)  s.t.  x0 <= 1e-4,  x1 <= 1e-4,  x >= 0.  Each
        step enters a column at reduced cost -2e-9, below ``_RC_TOL``, and
        moves it by 1e-4, but the objective by only 2e-13.  Both steps count
        as degenerate, so a streak of 2 turns the loop to Bland's rule; a
        test on the step length alone would reset the streak at each step."""
        lp = make_lp([-2e-9, -2e-9], [[1.0, 0.0], [0.0, 1.0]], ["L"] * 2, [1e-4, 1e-4],
                     [0.0] * 2, [np.inf] * 2)
        tab = simplex._all_logical(lp, lp.lb, lp.ub, np.zeros(2, dtype=bool))
        out = LpResult("optimal", None, None)
        iters = _pivot_loop(tab.t, tab.basis, np.full(4, np.inf), tab.dirn, 2, out)
        assert (iters, tab.basis.tolist()) == (2, [0, 1])
        assert -tab.t[-1, -1] == pytest.approx(-4e-13, rel=1e-9)
        assert out.bland_switches == 1

    @pytest.mark.parametrize("bland_after, want", [
        (100, [(0, 0), (2, 2)]),                  # Harris: the largest violation leaves
        (1, [(0, 0), (1, 1), (2, 2), (1, 4)]),    # Bland: the lowest basis id, the lowest column
    ])
    def test_dual_loop_keeps_to_bland_after_a_degenerate_streak(self, bland_after, want,
                                                                 monkeypatch):
        """min 5e-10 x1  s.t.  x0 >= 1,  x1 + 2 x2 >= 0.5,  x2 >= 0.8,  x >= 0.  The
        first step, on the row of x0, is degenerate.  Under the Harris rule the
        row of x2 leaves next and closes the row of x1.  After the switch the
        violated row of lowest basis id leaves instead, and x1 enters it ahead
        of x2's larger pivot, its reduced cost below ``_HARRIS_TOL`` counted as
        zero; the rule then stays on to the end."""
        lp = make_lp([0.0, 5e-10, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]],
                     ["G"] * 3, [1.0, 0.5, 0.8], [0.0] * 3, [np.inf] * 3)
        pivots = []
        real = simplex._pivot

        def recording(t, basis, r, j):
            pivots.append((r, j))
            real(t, basis, r, j)

        monkeypatch.setattr(simplex, "_pivot", recording)
        tab = simplex._all_logical(lp, lp.lb, lp.ub, np.zeros(3, dtype=bool))
        out = LpResult("optimal", None, None)
        status, _, iters = _dual_loop(tab.t, tab.basis, np.full(6, np.inf), tab.dirn, bland_after,
                                      out)
        assert (status, iters, pivots) == ("optimal", len(want), want)
        assert out.bland_switches == (bland_after == 1)
        assert tab.basis.tolist() == [0, 4, 2]  # x0 = 1, x2 = 0.8, the row of x1 slack
        assert tab.t[:-1, -1] == pytest.approx([1.0, 0.55, 0.8], abs=1e-12)

    def test_noise_level_dual_step_keeps_the_degenerate_streak(self):
        """min 2e-9 x1  s.t.  x0 >= 1,  x1 >= 1e-4,  x >= 0.  The first step
        enters x0 at reduced cost 0; the second enters x1 at 2e-9, above
        ``_HARRIS_TOL``, but moves the objective by only 2e-13.  Both count as
        degenerate, so a streak of 2 turns the loop to Bland's rule; a test
        on the entering reduced cost alone would reset the streak at the
        second step."""
        lp = make_lp([0.0, 2e-9], [[1.0, 0.0], [0.0, 1.0]], ["G"] * 2, [1.0, 1e-4],
                     [0.0] * 2, [np.inf] * 2)
        tab = simplex._all_logical(lp, lp.lb, lp.ub, np.zeros(2, dtype=bool))
        out = LpResult("optimal", None, None)
        status, _, iters = _dual_loop(tab.t, tab.basis, np.full(4, np.inf), tab.dirn, 2, out)
        assert (status, iters, tab.basis.tolist()) == ("optimal", 2, [0, 1])
        assert -tab.t[-1, -1] == pytest.approx(2e-13, rel=1e-9)
        assert out.bland_switches == 1

    def test_bland_passes_over_a_tiny_pivot(self):
        """min 0  s.t.  x0 >= 1,  1e-8 x1 + x2 >= 1,  x >= 0.  The degenerate
        first step turns the loop to Bland's rule; on the second row x1 and x2
        tie at ratio 0, and x1, the lower column, would pivot on 1e-8 and take
        the value 1e8.  x2 enters instead."""
        lp = make_lp([0.0] * 3, [[1.0, 0.0, 0.0], [0.0, 1e-8, 1.0]], ["G"] * 2, [1.0, 1.0],
                     [0.0] * 3, [np.inf] * 3)
        tab = simplex._all_logical(lp, lp.lb, lp.ub, np.zeros(3, dtype=bool))
        out = LpResult("optimal", None, None)
        status, _, iters = _dual_loop(tab.t, tab.basis, np.full(5, np.inf), tab.dirn, 1, out)
        assert (status, iters, out.bland_switches) == ("optimal", 2, 1)
        assert tab.basis.tolist() == [0, 2]
        assert tab.t[:-1, -1] == pytest.approx([1.0, 1.0], abs=1e-12)


class TestBoundKinds:
    def test_leave_at_upper_bound(self):
        # x0 <= x1 pins x0 to x1 once x0 is basic; raising x1 then drives the
        # basic x0 to its upper bound 1, where it must leave
        lp = make_lp([-1.0, -0.1], [[1.0, -1.0]], ["L"], [0.0], [0.0, 0.0], [1.0, 5.0])
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(-1.5, abs=1e-12)
        assert r.x == pytest.approx([1.0, 5.0], abs=1e-12)

    def test_zero_rows_solved_by_bound_flips(self):
        lp = make_lp([-1.0, 2.0, -3.0, 0.5], np.zeros((0, 4)), [], [],
                     [0.0, -1.0, 2.0, -4.0], [1.0, 3.0, 5.0, 0.0])
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.x.tolist() == [1.0, -1.0, 5.0, -4.0]
        assert r.objective == pytest.approx(-1.0 - 2.0 - 15.0 - 2.0)
        assert r.pivots == 0  # the start puts each column at the bound its cost asks for

    def test_random_mixed_bound_kinds_match_highs(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            lp = random_mixed_lp(rng)
            want, fun = highs(lp)
            assert want == "optimal"  # feasible and boxed by construction
            r = solve_lp_arrays(lp)
            assert (r.status, r.certified, starts(r)) == (want, True, ["cold"])
            assert r.objective == pytest.approx(fun, abs=1e-7)
            assert _feasible(lp, r.x, tol=1e-7)

    def test_random_infeasible_lps_are_certified(self):
        """A feasible LP plus a row that contradicts one of its rows: the
        answer from scratch is 'infeasible' with a Farkas row that passed its
        check."""
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 100:
            lp = random_mixed_lp(rng)
            if lp.m == 0:
                continue
            i = int(rng.integers(lp.m))
            gap = rng.uniform(0.1, 1.0)
            kind, rhs = ("L", lp.rhs[i] - gap) if lp.sense[i] == "G" else ("G", lp.rhs[i] + gap)
            bad = make_lp(lp.c, np.vstack([lp.a, lp.a[i]]), np.append(lp.sense, kind),
                          np.append(lp.rhs, rhs), lp.lb, lp.ub)
            assert highs(bad)[0] == "infeasible"
            r = solve_lp_arrays(bad)
            assert r.status == "infeasible" and r.certified
            assert starts(r) == ["cold"]
            checked += 1


class TestNoRowsOrColumns:
    """An LP with no rows or no columns is answered by its first start with
    no pivot: each column at the bound its cost asks for, and 'infeasible'
    only on a row its constant breaks, which is its own Farkas row."""

    def test_no_columns(self):
        for sense, rhs, want in ((["L", "G", "E"], [0.0, 0.0, 0.0], "optimal"),
                                 (["L", "E"], [1.0, 1e-9], "optimal"),
                                 (["L", "G"], [1.0, 1e-3], "infeasible"),
                                 (["E"], [-2.0], "infeasible"),
                                 (["L"], [-1e-5], "infeasible")):
            lp = make_lp([], np.zeros((len(rhs), 0)), sense, rhs, [], [])
            lp.const = 1.5
            r = solve_lp_arrays(lp)
            assert (r.status, r.certified, starts(r), r.pivots) == (want, True, ["cold"], 0)
            if want == "optimal":
                assert r.objective == 1.5 and r.x.size == 0 and r.basis.ids.size == len(rhs)
            else:
                assert r.x is None and r.tableau is not None

    def test_no_rows(self):
        lb, ub = [0.0, -1.0, -2.0, 2.0], [1.0, 3.0, 4.0, 5.0]
        r = solve_lp_arrays(make_lp([-1.0, 1e-9, 0.0, 2.0], np.zeros((0, 4)), [], [], lb, ub))
        assert (r.status, r.certified, starts(r), r.pivots) == ("optimal", True, ["cold"], 0)
        assert r.x.tolist() == [1.0, -1.0, -2.0, 2.0]
        assert r.objective == pytest.approx(-1.0 - 1e-9 + 4.0)

    def test_first_start_answers_and_the_tableau_carries_on(self):
        lp = make_lp([1.0, -1.0], np.zeros((0, 2)), [], [], [0.0, 0.0], [1.0, 1.0])
        r = solve_lp_arrays(lp, point=np.array([0.0, 0.0]))
        assert starts(r) == ["vertex"] and r.x.tolist() == [0.0, 1.0]
        w = solve_lp_arrays(lp, r.basis)
        assert starts(w) == ["fresh"] and w.x.tolist() == [0.0, 1.0]
        c = solve_lp_arrays(lp, r.basis, r.tableau)
        assert starts(c) == ["carried"] and c.x.tolist() == [0.0, 1.0]
        with pytest.raises(InvalidArgument):
            solve_lp_arrays(lp, Basis(np.array([0], dtype=np.int32), np.zeros(2, bool)))


class TestDependentRows:
    """Linearly dependent rows solved from scratch: a dependent row keeps its
    logical basic in the final basis instead of being dropped."""

    CASES = {
        "duplicated-E": ([1.0, -1.0, 0.5], [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                         ["E", "E", "L"], [2.0, 2.0, 1.0], [0.0] * 3, [3.0] * 3),
        "E-sum-of-two": ([1.0, 2.0, -1.0], [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 1.0]],
                         ["E", "E", "E"], [1.0, 2.0, 3.0], [0.0] * 3, [2.0] * 3),
        "duplicated-G": ([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], ["G", "G"], [1.0, 1.0],
                         [-5.0, 0.0], [5.0, 2.0]),
        "inconsistent-pair": ([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], ["E", "E"], [1.0, 2.0],
                              [0.0, 0.0], [3.0, 3.0]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_highs(self, name):
        lp = make_lp(*self.CASES[name])
        want, fun = highs(lp)
        r = solve_lp_arrays(lp)
        assert r.status == want
        if want == "optimal":
            assert r.certified
            assert r.objective == pytest.approx(fun, abs=1e-9)
            assert r.basis.ids.size == lp.m  # no row dropped
            assert r.basis.ids.max() >= lp.n  # a dependent row's logical is basic
            # the answer's tableau carries on like any other
            c = solve_lp_arrays(lp, r.basis, r.tableau)
            assert starts(c) == ["carried"] and c.certified and c.pivots == 0


def dense_pivot(t, r, j):
    """The textbook update: every row minus its pivot-column entry times the
    normalized pivot row; then the updated block's entries (nonzero rows of
    the pivot column, row ``r`` excluded, by nonzero columns of the pivot
    row) below ``_DROP_TOL`` set to zero, and column ``j`` set to its unit
    vector."""
    t = t.copy()
    t[r] /= t[r, j]
    col = t[:, j].copy()
    col[r] = 0.0
    t = t - np.outer(col, t[r])
    t[np.outer(col != 0.0, t[r] != 0.0) & (np.abs(t) < _DROP_TOL)] = 0.0
    t[:-1, j] = 0.0
    t[r, j] = 1.0
    return t


class TestPivotKernel:
    """``_pivot`` skips the entries a pivot leaves as they are and drops the
    round-off it makes; the result must equal the dense update, with the
    updated block's entries below ``_DROP_TOL`` set to zero, entry by
    entry."""

    @staticmethod
    def check(t, r, j):
        want = dense_pivot(t, r, j)
        basis = np.arange(t.shape[0] - 1)
        _pivot(t, basis, r, j)
        assert (t == want).all()  # ==, so -0.0 and +0.0 compare equal
        unit = np.zeros(t.shape[0])
        unit[r] = 1.0
        assert (t[:, j] == unit).all()
        assert basis[r] == j

    @pytest.mark.parametrize("seed, kind", [(0, "zero-reduced-cost"), (1, "dense-pivot-row"),
                                            (2, "sparse")])
    def test_structured_zeros_match_dense_update(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            m, k = int(rng.integers(3, 12)), int(rng.integers(3, 15))
            t = rng.normal(size=(m + 1, k + 1)) * (rng.random((m + 1, k + 1)) < 0.4)
            r, j = int(rng.integers(m)), int(rng.integers(k))
            t[r, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            t[(r + 1) % m, j] = 0.0  # a row the update skips
            if kind == "zero-reduced-cost":
                t[-1, j] = 0.0
            if kind == "dense-pivot-row":
                t[r] = np.where(t[r] == 0.0, rng.uniform(0.5, 2.0, size=k + 1), t[r])
            else:
                t[r, (j + 1) % (k + 1)] = 0.0  # a column the update skips
            self.check(t, r, j)

    def test_nothing_skipped_matches_dense_update(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0.5, 2.0, size=(7, 9)) * rng.choice([-1.0, 1.0], size=(7, 9))
        self.check(t, 3, 4)

    def test_cancellation_leaves_an_exact_zero(self):
        """0.1 + 0.2 minus 0.3 times 1 is 5.55e-17 in floating point; the
        update drops it, while a tiny entry the update skips stays."""
        t = np.array([[1.0, 1.0, 0.0, 2.0],
                      [0.3, 0.1 + 0.2, 1e-13, 1.0],
                      [0.0, 1.0, 5.0, 0.0]])
        self.check(t, 0, 0)
        assert t[1, 1] == 0.0 and t[1, 2] == 1e-13 and t[1, 3] == 1.0 - 0.3 * 2.0


def changed_lp(lp, res, change, rng):
    """``lp`` after a branch and/or appended cuts, as a node's child sees it.

    'fix' fixes a basic structural at the floor or ceiling of its value;
    'rows' appends 1-3 rows violated at ``res.x``, the first a 'G' row shaped
    like a log-sum-exp tangent (+1 on one column, minus a probability vector
    on the others); 'both' does both.
    """
    lb, ub = lp.lb.copy(), lp.ub.copy()
    a, sense, rhs = lp.a, lp.sense, lp.rhs
    if change in ("fix", "both"):
        basic = [j for j in res.basis.ids.tolist() if j < lp.n and lb[j] < ub[j]]
        if basic:
            j = basic[int(rng.integers(len(basic)))]
            lb[j] = ub[j] = (np.floor if rng.random() < 0.5 else np.ceil)(res.x[j])
    if change in ("rows", "both"):
        rows, senses, rhss = [], [], []
        for k in range(int(rng.integers(1, 4))):
            if k == 0:
                row = np.zeros(lp.n)
                row[int(rng.integers(lp.n))] = 1.0
                w = rng.random(lp.n) * (row == 0.0)
                if w.sum() > 0.0:
                    row -= w / w.sum()
                kind = "G"
            else:
                row = rng.normal(size=lp.n)
                kind = str(rng.choice(["L", "G"]))
            cut = rng.uniform(0.05, 0.5)
            val = float(row @ res.x)
            rows.append(row)
            senses.append(kind)
            rhss.append(val + cut if kind == "G" else val - cut)
        a = np.vstack([a, rows])
        sense = np.concatenate([sense, np.asarray(senses, dtype="U1")])
        rhs = np.concatenate([rhs, rhss])
    return make_lp(lp.c, a, sense, rhs, lb, ub)


def with_fixing(lp, j, value):
    lb, ub = lp.lb.copy(), lp.ub.copy()
    lb[j] = ub[j] = value
    return make_lp(lp.c, lp.a, lp.sense, lp.rhs, lb, ub)


class TestWarmStart:
    """Warm starts from a cold optimum's basis, or reached from the final
    tableau of the last answer (carried), checked against HiGHS."""

    @staticmethod
    def cold_optima(seed, count):
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            lp = random_mixed_lp(rng)
            r = solve_lp_arrays(lp)
            if r.status == "optimal":
                out.append((lp, r))
        return out, rng

    def test_own_optimal_basis_takes_no_pivots(self):
        for lp, r in self.cold_optima(31, 150)[0]:
            w = solve_lp_arrays(lp, r.basis)
            assert starts(w) == ["fresh"] and w.certified
            assert w.pivots == 0
            assert w.objective == pytest.approx(r.objective, rel=1e-9, abs=1e-9)
            c = solve_lp_arrays(lp, r.basis, r.tableau)
            assert c.attempts == [("carried", None, 0, 0)] and c.certified and c.pivots == 0
            assert c.objective == pytest.approx(r.objective, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("change", ["fix", "rows", "both"])
    def test_changed_lp_matches_highs(self, change):
        optima, rng = self.cold_optima(32, 200)
        seen = {"optimal": 0, "infeasible": 0}
        warm = 0
        for lp, r in optima:
            lp2 = changed_lp(lp, r, change, rng)
            want, fun = highs(lp2)
            w = solve_lp_arrays(lp2, r.basis)
            assert w.status == want
            warm += starts(w) == ["fresh"]
            if want in seen:
                seen[want] += 1
            if want == "optimal":
                assert w.certified
                assert w.objective == pytest.approx(fun, abs=1e-7)
                assert _feasible(lp2, w.x, tol=1e-7)
        assert min(seen.values()) >= 10
        assert warm == len(optima)  # none of these well-posed LPs falls back

    @staticmethod
    def check_carried(lp, res):
        want, fun = highs(lp)
        assert res.status == want
        assert res.attempts[0][0] == "carried" and res.certified
        if want == "optimal":
            assert res.objective == pytest.approx(fun, abs=1e-7)
            assert _feasible(lp, res.x, tol=1e-7)
        return want

    @pytest.mark.parametrize("change", ["fix", "release", "rows", "both"])
    def test_carried_from_own_final_basis(self, change):
        """The next LP starts from the basis the carried tableau ended on:
        a cut round, or a child popped right after its parent."""
        optima, rng = self.cold_optima(34, 150)
        seen = {"optimal": 0, "infeasible": 0}
        for lp, w in optima:
            if change == "release":
                # branch a basic boxed column to one end of its box, then
                # release it, as a binary's fixing is released in the search
                boxed = [j for j in w.basis.ids.tolist()
                         if j < lp.n and np.isfinite(lp.ub[j] - lp.lb[j]) and lp.lb[j] < lp.ub[j]]
                if not boxed:
                    continue
                j = boxed[int(rng.integers(len(boxed)))]
                fixed = with_fixing(lp, j, (lp.lb if rng.random() < 0.5 else lp.ub)[j])
                w = solve_lp_arrays(fixed, w.basis, w.tableau)
                if w.status != "optimal":
                    continue
                lp2 = lp
            else:
                lp2 = changed_lp(lp, w, change, rng)
            res = solve_lp_arrays(lp2, w.basis, w.tableau)
            seen[self.check_carried(lp2, res)] += 1
            assert starts(res) == ["carried"]
        assert seen["optimal"] >= 10 and (change == "release" or seen["infeasible"] >= 10)

    @pytest.mark.parametrize("rows", [False, True])
    def test_carried_to_sibling_basis(self, rows):
        """A node's second child starts from its parent's basis while the
        carried tableau ended on the first child's optimum."""
        optima, rng = self.cold_optima(35, 150)
        moved = 0
        for lp, w in optima:
            basic = [j for j in w.basis.ids.tolist() if j < lp.n and lp.lb[j] < lp.ub[j]]
            if not basic:
                continue
            j = basic[int(rng.integers(len(basic)))]
            first = solve_lp_arrays(with_fixing(lp, j, np.floor(w.x[j])), w.basis, w.tableau)
            if first.tableau is None:
                continue
            second = with_fixing(lp, j, np.ceil(w.x[j]))
            if rows:
                second = changed_lp(second, w, "rows", rng)
            res = solve_lp_arrays(second, w.basis, first.tableau)
            self.check_carried(second, res)
            assert starts(res) == ["carried"]
            moved += res.attempts[0][2] > 0
        assert moved >= 20

    def test_carried_answer_failing_its_check_is_answered_fresh(self, monkeypatch):
        (lp, w), = self.cold_optima(36, 1)[0]
        lp2 = make_lp(lp.c, np.vstack([lp.a, lp.c]), np.append(lp.sense, "G"),
                      np.append(lp.rhs, w.objective + 0.1), lp.lb, lp.ub)
        real = simplex._certified_optimal
        verdicts = []

        def carried_check_fails(*args):  # the carried path is certified first
            verdicts.append(len(verdicts) > 0 and real(*args))
            return verdicts[-1]

        monkeypatch.setattr(simplex, "_certified_optimal", carried_check_fails)
        res = solve_lp_arrays(lp2, w.basis, w.tableau)
        assert verdicts == [False, True]
        assert starts(res) == ["carried:uncertified", "fresh"] and res.certified
        assert res.attempts[1][3] > 0  # the fresh tableau is moved to the basis
        assert self.check_carried(lp2, res) == "optimal"
        counts = LpCounters()
        counts.add(res)
        assert counts.answered == {"fresh": 1} and counts.gave_up == {"carried:uncertified": 1}
        assert counts.move_pivots == {kind: p for kind, _, p, _ in res.attempts if p}


class TestWarmFallbacks:
    """Each way a warm start gives up ends in the cold solve's answer."""

    def test_singular_basis(self):
        # columns 0 and 1 are parallel on both rows, so they cannot both be basic
        lp = make_lp([1.0, 1.0, 0.0], [[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]], ["G", "G"],
                     [1.0, 1.0], [0.0, 0.0, 0.0], [5.0, 5.0, 5.0])
        r = solve_lp_arrays(lp, Basis(np.array([0, 1], dtype=np.int32), np.zeros(3, bool)))
        assert starts(r) == ["fresh:singular", "cold"]
        assert r.status == "optimal" and r.certified
        assert r.objective == pytest.approx(0.25)

    # x0 basic in its 'L' row leaves that row's logical nonbasic at 0, priced
    # -1: raising it lowers x0, which lowers the objective, and it has no
    # upper bound to move to
    DUAL_INFEASIBLE = make_lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], ["L", "G"], [3.0, 1.0],
                              [0.0, 0.0], [5.0, 5.0])

    def test_dual_infeasible_start(self):
        r = solve_lp_arrays(self.DUAL_INFEASIBLE,
                            Basis(np.array([0, 3], dtype=np.int32), np.zeros(2, bool)))
        assert starts(r) == ["fresh:dual_infeasible", "cold"]
        assert r.status == "optimal"
        assert r.objective == pytest.approx(1.0)

    def test_uncertified_infeasible_verdict(self):
        # infeasible by 1e-8: the dual ray exists, but its margin is below the
        # certificate's tolerance, so the cold solve decides (and accepts x)
        lp = make_lp([-1.0], [[1.0], [1.0]], ["L", "G"], [0.0, 1e-8], [-1.0], [1.0])
        r = solve_lp_arrays(lp, Basis(np.array([0, 2], dtype=np.int32), np.zeros(1, bool)))
        assert starts(r) == ["fresh:uncertified", "cold"]
        assert r.status == "optimal" and r.certified
        assert abs(r.x[0]) <= 1e-7

    @pytest.mark.parametrize("reason", ["singular", "dual_infeasible"])
    def test_carried_and_fresh_both_give_up(self, reason):
        """A basis that no tableau can start from: the carried tableau and the
        fresh one give up alike, and the cold solve answers."""
        lp, ids = {
            "singular": (make_lp([1.0, 1.0, 0.0], [[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]], ["G", "G"],
                                 [1.0, 1.0], [0.0, 0.0, 0.0], [5.0, 5.0, 5.0]), [0, 1]),
            "dual_infeasible": (self.DUAL_INFEASIBLE, [0, 3]),
        }[reason]
        carried = solve_lp_arrays(lp).tableau
        r = solve_lp_arrays(lp, Basis(np.array(ids, dtype=np.int32), np.zeros(lp.n, bool)),
                            carried)
        assert starts(r) == [f"carried:{reason}", f"fresh:{reason}", "cold"]
        want, fun = highs(lp)
        assert r.status == want == "optimal" and r.certified
        assert r.objective == pytest.approx(fun, abs=1e-9)
        counts = LpCounters()
        counts.add(r)
        assert counts.answered == {"cold": 1}
        assert counts.gave_up == {f"carried:{reason}": 1, f"fresh:{reason}": 1}

    def test_cold_optimum_failing_its_check_is_kept(self, monkeypatch):
        """The cold start is the last one: an optimum that fails its check is
        returned with ``certified`` false and counted."""
        lp = make_lp([-1.0, -0.1], [[1.0, -1.0]], ["L"], [0.0], [0.0, 0.0], [1.0, 5.0])
        monkeypatch.setattr(simplex, "_certified_optimal", lambda *args: False)
        r = solve_lp_arrays(lp)
        assert r.status == "optimal" and not r.certified
        assert starts(r) == ["cold"]
        assert r.objective == pytest.approx(-1.5, abs=1e-12)
        counts = LpCounters()
        counts.add(r)
        assert counts.answered == {"cold": 1} and counts.uncertified_lps == 1

    @pytest.mark.parametrize("gap, status", [(1.0, "infeasible"), (1e-8, "optimal")])
    def test_cold_infeasible_verdict_failing_its_check_is_cleaned_up(self, gap, status,
                                                                      monkeypatch):
        """An unproven infeasible verdict of the cold start is taken for
        round-off: the primal clean-up runs from the clipped basic values.
        Rows ``gap`` apart give a point that breaks one by ``gap``: at 1 the
        answer is 'infeasible', unproven; at 1e-8 it is the checked optimum."""
        lp = make_lp([1.0], [[1.0], [1.0]], ["L", "G"], [0.0, gap], [-10.0], [10.0])
        verdicts = []
        monkeypatch.setattr(simplex, "_certified_infeasible", lambda *args: verdicts.append(False))
        r = solve_lp_arrays(lp)
        assert verdicts == [False]  # the dual simplex said 'infeasible'
        assert starts(r) == ["cold"]
        assert (r.status, r.certified) == (status, status == "optimal")
        if status == "optimal":
            assert r.x == pytest.approx([gap], abs=1e-12)
        else:
            assert r.x is r.objective is r.basis is r.tableau is None


def highs_point(lp, c):
    """A basic optimum of ``lp`` under the objective ``c`` from HiGHS' dual
    simplex, or None when there is none."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    s = lp.sense
    ref = linprog(c, A_ub=np.vstack([lp.a[s == "L"], -lp.a[s == "G"]]),
                  b_ub=np.concatenate([lp.rhs[s == "L"], -lp.rhs[s == "G"]]),
                  A_eq=lp.a[s == "E"], b_eq=lp.rhs[s == "E"],
                  bounds=list(zip(lp.lb, lp.ub)), method="highs-ds",
                  options={"presolve": False})
    return ref.x if ref.status == 0 else None


def is_vertex(lp, x, tol=1e-7):
    """Whether the rows and bounds tight at ``x`` have rank n."""
    tight = [lp.a[i] for i in range(lp.m) if abs(lp.a[i] @ x - lp.rhs[i]) <= tol]
    tight += [np.eye(lp.n)[j] for j in range(lp.n)
              if min(abs(x[j] - lp.lb[j]), abs(x[j] - lp.ub[j])) <= tol]
    return bool(tight) and np.linalg.matrix_rank(np.array(tight)) == lp.n


class TestCrashStart:
    """Phase two from the basis of a given vertex, and its fallbacks."""

    # min -x0 - x1  s.t.  x0 + x1 <= 1.5,  0 <= x <= 1: optimum -1.5
    LP = make_lp([-1.0, -1.0], [[1.0, 1.0]], ["L"], [1.5], [0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("point", [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    def test_vertex_start_is_certified_without_cold_solve(self, point):
        r = solve_lp_arrays(self.LP, point=np.array(point))
        assert starts(r) == ["vertex"] and r.certified and r.dual_pivots == 0
        assert r.objective == pytest.approx(-1.5, abs=1e-12)
        # x0 moves into the row in one elimination level, with no bump pivot
        assert r.attempts[0][2:] == (0, 1 if point == [0.5, 1.0] else 0)
        assert r.tableau is not None

    BUMPS = {
        # at (1, 1, 1) the three rows are tight and every column is inside its
        # box: x2 is a column singleton, placed in one level; x0 and x1 then
        # form a 2 x 2 block with no singleton, pivoted in as a bump
        "block": (make_lp([-1.0, -2.0, 0.5], [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [-1.0, 0.0, 1.0]],
                          ["L", "L", "L"], [2.0, 0.0, 0.0], [0.0] * 3, [3.0] * 3),
                  [1.0, 1.0, 1.0], (2, 1)),
        # at (1, 1, 0) both rows are tight: x1 is a column singleton, placed
        # in one level; x0's entry in the first row is 0.002 of the largest
        # in its column, below the crash threshold, so it is a bump pivot
        "tiny": (make_lp([-2.0, -1.0, 0.5], [[1e-3, 0.0, 1.0], [1.0, 1.0, 0.0]], ["L", "L"],
                         [1e-3, 2.0], [0.0] * 3, [3.0] * 3),
                 [1.0, 1.0, 0.0], (1, 1)),
    }

    @pytest.mark.parametrize("name", sorted(BUMPS))
    def test_bump_is_pivoted_in_after_the_levels(self, name):
        lp, point, (moved, levels) = self.BUMPS[name]
        r = solve_lp_arrays(lp, point=np.array(point))
        assert starts(r) == ["vertex"] and r.certified and r.dual_pivots == 0
        assert r.attempts[0][2:] == (moved, levels)
        assert r.objective == pytest.approx(highs(lp)[1], abs=1e-9)
        counts = LpCounters()
        counts.add(r)
        assert counts.move_pivots == {"vertex": moved} and counts.elim_levels == {"vertex": levels}
        assert f"move_pivots vertex:{moved} elim_levels vertex:{levels} " in counts.to_text()

    @pytest.mark.parametrize("point, reason", [
        ([0.5, 0.5], "not_vertex"),        # two columns inside their box, the row slack
        ([1.0, 1.0], "infeasible_start"),  # the row's logical starts at -0.5
    ])
    def test_unusable_point_falls_back_to_cold(self, point, reason):
        r = solve_lp_arrays(self.LP, point=np.array(point))
        assert starts(r) == [f"vertex:{reason}", "cold"]
        assert r.status == "optimal" and r.certified
        assert r.objective == pytest.approx(-1.5, abs=1e-12)
        counts = LpCounters()
        counts.add(r)
        assert (counts.answered, counts.gave_up) == ({"cold": 1}, {f"vertex:{reason}": 1})

    def test_point_of_the_wrong_size_or_with_a_basis_rejected(self):
        for kwargs in ({"point": np.zeros(3)},
                       {"point": np.zeros(2), "basis": Basis(np.array([2], dtype=np.int32),
                                                             np.zeros(2, bool))}):
            with pytest.raises(InvalidArgument):
                solve_lp_arrays(self.LP, **kwargs)

    def test_singular_move_falls_back_to_cold(self):
        # both rows are tight at x0 = 1 and parallel, so x1 finds no pivot
        lp = make_lp([1.0, -1.0], [[1.0, 0.0], [2.0, 0.0]], ["L", "L"], [1.0, 2.0],
                     [0.0, 0.0], [2.0, 2.0])
        r = solve_lp_arrays(lp, point=np.array([1.0, 0.5]))
        assert starts(r) == ["vertex:singular", "cold"]
        assert r.objective == pytest.approx(-2.0, abs=1e-12)

    def test_answer_failing_its_check_falls_back_to_cold(self, monkeypatch):
        real = simplex._certified_optimal
        verdicts = []

        def crash_check_fails(*args):  # the crash answer is checked first
            verdicts.append(len(verdicts) > 0 and real(*args))
            return verdicts[-1]

        monkeypatch.setattr(simplex, "_certified_optimal", crash_check_fails)
        r = solve_lp_arrays(self.LP, point=np.array([0.0, 0.0]))
        assert verdicts == [False, True]
        assert starts(r) == ["vertex:uncertified", "cold"] and r.certified
        assert r.objective == pytest.approx(-1.5, abs=1e-12)

    def test_random_vertices_match_highs(self):
        """Each vertex is HiGHS' optimum under another objective."""
        rng = np.random.default_rng(37)
        started = 0
        for _ in range(300):
            lp = random_mixed_lp(rng)
            want, fun = highs(lp)
            x = highs_point(lp, rng.normal(size=lp.n))
            if want != "optimal" or x is None or not is_vertex(lp, x):
                continue
            r = solve_lp_arrays(lp, point=x)
            assert starts(r) == ["vertex"] and r.certified and r.dual_pivots == 0
            assert r.objective == pytest.approx(fun, abs=1e-7)
            assert _feasible(lp, r.x, tol=1e-7)
            started += 1
        assert started >= 100

    def test_random_unusable_points_fall_back_with_a_reason(self):
        """The midpoint of two vertices is not one; a vertex of the LP without
        one of its rows that breaks that row is infeasible.  Both end in the
        cold solve's answer."""
        rng = np.random.default_rng(38)
        reasons = {}
        for _ in range(300):
            lp = random_mixed_lp(rng)
            want, fun = highs(lp)
            if want != "optimal" or lp.m == 0:
                continue
            x1 = highs_point(lp, rng.normal(size=lp.n))
            x2 = highs_point(lp, rng.normal(size=lp.n))
            keep = np.arange(lp.m) != rng.integers(lp.m)
            fewer = make_lp(lp.c, lp.a[keep], lp.sense[keep], lp.rhs[keep], lp.lb, lp.ub)
            x3 = highs_point(fewer, rng.normal(size=lp.n))
            points = [] if x1 is None or x2 is None else [(x1 + x2) / 2.0]
            if x3 is not None and is_vertex(fewer, x3) and not _feasible(lp, x3, tol=1e-6):
                points.append(x3)
            for x in points:
                if is_vertex(lp, x) and _feasible(lp, x, tol=1e-7):
                    continue
                r = solve_lp_arrays(lp, point=x)
                (kind, why, *_), answer = r.attempts
                assert kind == "vertex" and why in ("not_vertex", "singular", "infeasible_start")
                assert answer[:2] == ("cold", None) and r.certified
                assert r.objective == pytest.approx(fun, abs=1e-7)
                reasons[why] = reasons.get(why, 0) + 1
        assert reasons.get("not_vertex", 0) >= 20 and reasons.get("infeasible_start", 0) >= 20
