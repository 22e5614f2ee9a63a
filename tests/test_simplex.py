from itertools import combinations

import numpy as np
import pytest

from mipprune.simplex import LinearProgram, _pivot, solve_lp_arrays


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


class TestSimple:
    def test_min_x_with_floor(self):
        lp = make_lp([1.0], [[1.0]], ["G"], [3.0], [-np.inf], [np.inf])
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(3.0, abs=1e-9)

    def test_contradictory_rows_infeasible(self):
        lp = make_lp([1.0], [[1.0], [1.0]], ["L", "G"], [0.0, 1.0], [-np.inf], [np.inf])
        assert solve_lp_arrays(lp).status == "infeasible"

    def test_unbounded_detected(self):
        lp = make_lp([-1.0], np.zeros((0, 1)), [], [], [0.0], [np.inf])
        assert solve_lp_arrays(lp).status == "unbounded"

    def test_all_fixed_feasibility_only(self):
        lp = make_lp([2.0, 1.0], [[1.0, 1.0]], ["L"], [5.0], [1.0, 2.0], [1.0, 2.0])
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(4.0)

    def test_free_variable_split(self):
        lp = make_lp([1.0, 0.0], [[1.0, 1.0]], ["E"], [0.0],
                     [-np.inf, 0.0], [np.inf, 2.0])
        r = solve_lp_arrays(lp)
        # x0 = -x1; minimizing x0 pushes x1 to its cap
        assert r.objective == pytest.approx(-2.0, abs=1e-9)


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
        lp = make_lp(c, np.array(rows), ["L"] * len(rows), rhs, [0.0] * n, [np.inf] * n)
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(-2.0, abs=1e-9)


class TestBoundKinds:
    def test_leave_at_upper_bound(self):
        # x0 <= x1 pins x0 to x1 once x0 is basic; raising x1 then drives the
        # basic x0 to its upper bound 1, where it must leave
        lp = make_lp([-1.0, -0.1], [[1.0, -1.0]], ["L"], [0.0], [0.0, 0.0], [1.0, 5.0])
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(-1.5, abs=1e-12)
        assert r.x == pytest.approx([1.0, 5.0], abs=1e-12)

    def test_free_variable_enters_downward(self):
        # x0 is free with a positive cost, so it must decrease from zero
        lp = make_lp([1.0, -1.0], [[1.0, 1.0]], ["G"], [-2.0], [-np.inf, 0.0], [np.inf, 1.0])
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(-4.0, abs=1e-12)
        assert r.x == pytest.approx([-3.0, 1.0], abs=1e-12)

    def test_zero_rows_solved_by_bound_flips(self):
        lp = make_lp([-1.0, 2.0, -3.0, 0.5], np.zeros((0, 4)), [], [],
                     [0.0, -1.0, 2.0, -4.0], [1.0, 3.0, 5.0, 0.0])
        r = solve_lp_arrays(lp)
        assert r.status == "optimal"
        assert r.x.tolist() == [1.0, -1.0, 5.0, -4.0]
        assert r.objective == pytest.approx(-1.0 - 2.0 - 15.0 - 2.0)
        assert r.pivots == 2  # one flip per column with a negative cost

    def test_random_mixed_bound_kinds_match_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(23)
        kinds = ["box", "lower", "upper", "free", "fixed"]
        seen = {"optimal": 0, "unbounded": 0}
        for _ in range(300):
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
            lb = np.where(np.isin(kind, ["box", "lower"]), lo,
                          np.where(kind == "fixed", x0, -np.inf))
            ub = np.where(np.isin(kind, ["box", "upper"]), hi,
                          np.where(kind == "fixed", x0, np.inf))
            lp = make_lp(c, a, sense, rhs, lb, ub)
            ref = linprog(c, A_ub=np.vstack([a[sense == "L"], -a[sense == "G"]]),
                          b_ub=np.concatenate([rhs[sense == "L"], -rhs[sense == "G"]]),
                          A_eq=a[sense == "E"], b_eq=rhs[sense == "E"],
                          bounds=list(zip(lb, ub)), method="highs",
                          # presolve reports some unbounded LPs as infeasible
                          options={"presolve": False})
            assert ref.status in (0, 3)  # feasible by construction
            want = "optimal" if ref.status == 0 else "unbounded"
            r = solve_lp_arrays(lp)
            assert r.status == want
            seen[want] += 1
            if want == "optimal":
                assert r.objective == pytest.approx(ref.fun, abs=1e-7)
                assert _feasible(lp, r.x, tol=1e-7)
        assert min(seen.values()) >= 20


def dense_pivot(t, r, j):
    """The textbook update: every row minus its pivot-column entry times the
    normalized pivot row, then column ``j`` set to its unit vector."""
    t = t.copy()
    t[r] /= t[r, j]
    col = t[:, j].copy()
    col[r] = 0.0
    t = t - np.outer(col, t[r])
    t[:-1, j] = 0.0
    t[r, j] = 1.0
    return t


class TestPivotKernel:
    """``_pivot`` skips the entries a pivot leaves as they are; the result
    must equal the dense update entry by entry."""

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
