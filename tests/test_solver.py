from itertools import product

import numpy as np
import pytest

import mipprune.solver
from mipprune import simplex
from mipprune.encoding import MipModel
from mipprune.errors import InvalidArgument, NoIncumbent
from mipprune.simplex import LinearProgram, solve_lp_arrays
from mipprune.solver import (INT_TOL, LpCounters, SolveConfig, _fractional_binaries, solve_lp,
                             solve_mip, warm_start)


def build_model(c, a, sense, rhs, lb, ub, binary_mask):
    """Assemble a MipModel straight from arrays (no network involved)."""
    model = MipModel()
    for j in range(len(c)):
        model.add_var(
            f"h_0_{j}_0" if not binary_mask[j] else f"z_0_{j}_0",
            "z" if binary_mask[j] else "h",
            lb[j], ub[j], binary=bool(binary_mask[j]),
        )
        if c[j]:
            model.add_objective_term(j, float(c[j]))
    for i in range(len(rhs)):
        coefs = {j: float(a[i][j]) for j in range(len(c)) if a[i][j]}
        model.add_constraint(coefs, sense[i], float(rhs[i]), f"row{i}")
    return model


def enumeration_optimum(model):
    """Oracle: brute-force every binary fixing, solve the continuous rest."""
    bins = [v.idx for v in model.variables if v.binary]
    best = None
    for bits in product((0.0, 1.0), repeat=len(bins)):
        fix = dict(zip(bins, bits))
        res = solve_lp(model, fix)
        if res.status != "optimal":
            continue
        if best is None or res.objective < best:
            best = res.objective
    return best


class TestKnapsackToy:
    def test_three_x_plus_two_y(self):
        model = build_model(
            c=[-3.0, -2.0], a=[[1.0, 1.0]], sense=["L"], rhs=[1.0],
            lb=[0.0, 0.0], ub=[1.0, 1.0], binary_mask=[True, True],
        )
        sol = solve_mip(model, SolveConfig())
        assert sol.objective == pytest.approx(-3.0, abs=1e-9)
        assert sol.values[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.gap <= 1e-6

    def test_all_fixed_by_bounds_solves_at_root(self):
        model = build_model(
            c=[1.0, 1.0], a=[[1.0, 1.0]], sense=["G"], rhs=[1.0],
            lb=[1.0, 0.0], ub=[1.0, 0.0], binary_mask=[True, True],
        )
        sol = solve_mip(model, SolveConfig())
        assert sol.node_count == 1
        assert sol.objective == pytest.approx(1.0)


class TestCrossedBounds:
    """A variable box with ``lb > ub`` makes the LP infeasible before any
    start: the answer is a certified 'infeasible' of the cold start."""

    def make(self):
        return build_model(c=[1.0, 1.0], a=[[1.0, 1.0]], sense=["G"], rhs=[1.0],
                           lb=[0.0, 1.0], ub=[1.0, 0.0], binary_mask=[True, False])

    def test_counted_as_a_cold_answer(self):
        res = solve_lp(self.make())
        assert (res.status, res.certified) == ("infeasible", True)
        counts = LpCounters()
        counts.add(res)
        assert counts.to_text().startswith("answered cold:1 gave_up none ")

    def test_search_has_no_incumbent(self):
        with pytest.raises(NoIncumbent):
            solve_mip(self.make(), SolveConfig())


class TestSolveConfig:
    @pytest.mark.parametrize("kwargs", [
        {"gap_tol": -1.0}, {"gap_tol": float("nan")}, {"gap_tol": float("inf")},
        {"node_limit": -3}, {"time_limit": -1.0}, {"time_limit": float("nan")},
    ])
    def test_values_that_change_the_answer_rejected(self, kwargs):
        with pytest.raises(InvalidArgument):
            SolveConfig(**kwargs)

    def test_edges_accepted(self):
        cfg = SolveConfig(gap_tol=0.0, node_limit=0, time_limit=float("inf"))
        assert (cfg.gap_tol, cfg.node_limit, cfg.time_limit) == (0.0, 0, float("inf"))


class TestModelFixedColumns:
    @pytest.mark.parametrize("fixings", [{}, {0: 0.0}, {3: 2.0}])
    def test_left_out_of_the_lp_and_mapped_back(self, fixings):
        """Variables 1 and 3 are fixed by their own bounds, so they are no LP
        columns: the answer's basis covers the other two only, while its x
        and objective are those of the full LP.  A fixing that moves a
        variable the model fixes is rejected: its terms are already in the
        LP's rhs."""
        c, lb, ub = [-1.0, -2.0, 0.1, 0.5], [0.0, 0.5, 0.0, 1.0], [1.0, 0.5, 2.0, 1.0]
        a, sense, rhs = [[1.0, 0.0, -1.0, 1.0], [1.0, 1.0, 1.0, 0.0]], ["L", "G"], [1.3, 1.0]
        model = build_model(c, a, sense, rhs, lb, ub, [True, False, False, False])
        if 3 in fixings:
            with pytest.raises(InvalidArgument, match="moves a variable the model fixes"):
                solve_lp(model, fixings)
            return
        res = solve_lp(model, fixings)
        lb, ub = np.array(lb), np.array(ub)
        for j, val in fixings.items():
            lb[j] = ub[j] = val
        full = solve_lp_arrays(LinearProgram(np.array(c), np.array(a), np.array(sense),
                                             np.array(rhs), lb, ub))
        assert res.status == full.status == "optimal" and res.certified
        assert res.basis.at_upper.size == 2 and res.tableau.t.shape == (3, 5)
        assert res.x == pytest.approx(full.x, abs=1e-12)
        assert res.objective == pytest.approx(full.objective, abs=1e-12)


class TestRandomMilpsAgainstEnumeration:
    def test_fifty_instances(self):
        rng = np.random.default_rng(33)
        solved = 0
        while solved < 50:
            nb = int(rng.integers(2, 9))
            nc = int(rng.integers(1, 6))
            n = nb + nc
            m = int(rng.integers(1, 7))
            c = rng.normal(size=n).round(3)
            a = rng.normal(size=(m, n)).round(3)
            x0 = np.concatenate([rng.integers(0, 2, nb).astype(float),
                                 rng.uniform(0, 1, nc)])
            sense = rng.choice(["L", "G"], size=m)
            slack = rng.uniform(0.0, 2.0, size=m)
            rhs = a @ x0 + np.where(sense == "L", slack, -slack)
            lb = np.concatenate([np.zeros(nb), np.full(nc, -2.0)])
            ub = np.concatenate([np.ones(nb), np.full(nc, 2.0)])
            binary = [True] * nb + [False] * nc
            model = build_model(c, a, sense, rhs, lb, ub, binary)
            want = enumeration_optimum(model)
            assert want is not None  # feasible by construction
            sol = solve_mip(model, SolveConfig())
            assert sol.objective == pytest.approx(want, abs=1e-6)
            assert sol.gap <= 1e-6
            solved += 1


class TestWarmStart:
    def make(self):
        # min x + y  s.t. x + y >= 1, binaries
        return build_model(
            c=[1.0, 1.0], a=[[1.0, 1.0]], sense=["G"], rhs=[1.0],
            lb=[0.0, 0.0], ub=[1.0, 1.0], binary_mask=[True, True],
        )

    def test_accepted_and_objective_matches(self):
        model = self.make()
        x = np.array([1.0, 1.0])
        obj = warm_start(model, x)
        assert obj == pytest.approx(2.0)

    def test_infeasible_warm_start_rejected_with_reason(self):
        model = self.make()
        with pytest.raises(InvalidArgument) as err:
            warm_start(model, np.array([0.0, 0.0]))
        assert "row0" in str(err.value)

    def test_messages_in_variable_then_row_order(self):
        """Each variable's bound breach, then its fractional value, in id
        order, then each violated row; a rejected warm start names the
        first."""
        model = self.make()
        x = np.array([0.25, -0.5])
        assert model.check_assignment(x) == [
            "binary z_0_0_0 is fractional: np.float64(0.25)",
            "bound of z_0_1_0: np.float64(-0.5) not in [0.0, 1.0]",
            "binary z_0_1_0 is fractional: np.float64(-0.5)",
            "constraint 0 [row0] violated by 1.25",
        ]
        with pytest.raises(InvalidArgument) as err:
            warm_start(model, x)
        assert str(err.value) == ("warm start rejected: "
                                  "binary z_0_0_0 is fractional: np.float64(0.25)")

    def test_final_never_worse_than_warm(self):
        model = self.make()
        sol = solve_mip(model, SolveConfig(), warm=np.array([1.0, 1.0]))
        assert sol.objective <= 2.0 + 1e-12
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_model_returns_warm_incumbent(self):
        model = self.make()
        # contradictory extra row makes the relaxation infeasible
        model.add_constraint({0: 1.0}, "G", 2.0, "bad")
        with pytest.raises(NoIncumbent):
            solve_mip(model, SolveConfig())


class TestDeterminism:
    def test_identical_node_logs(self):
        rng = np.random.default_rng(40)
        c = rng.normal(size=6)
        a = rng.normal(size=(4, 6))
        x0 = rng.integers(0, 2, size=6).astype(float)
        rhs = a @ x0 + rng.uniform(0.1, 0.5, size=4)
        model = build_model(c, a, ["L"] * 4, rhs, [0.0] * 6, [1.0] * 6, [True] * 6)
        s1 = solve_mip(model, SolveConfig())
        model2 = build_model(c, a, ["L"] * 4, rhs, [0.0] * 6, [1.0] * 6, [True] * 6)  # fresh model
        s2 = solve_mip(model2, SolveConfig())
        assert s1.log_lines == s2.log_lines
        assert s1.objective == s2.objective
        assert s1.values.tobytes() == s2.values.tobytes()

    def test_fractional_binaries_match_a_loop(self):
        """The numpy filter gives what a walk over the binaries gives: the
        same ids in order, and fractionalities of the same value and type, so
        the branching key rounds them alike."""
        rng = np.random.default_rng(43)
        x = np.concatenate([[0.0, 1.0, 0.5, 1.5, 2.5, 1e-7, 1.0 - 2e-6, -0.5], rng.random(40)])
        ids = np.concatenate([np.arange(8), 8 + np.flatnonzero(rng.random(40) < 0.7)])
        want = []
        for j in ids.tolist():
            frac = abs(x[j] - round(x[j]))
            if frac > INT_TOL:
                want.append((frac, j))
        got = _fractional_binaries(x, ids)
        assert got == want and len(got) > 20
        assert [(type(f), type(j)) for f, j in got] == [(type(f), type(j)) for f, j in want]

    def test_bound_sandwich_on_enumerated_instance(self):
        rng = np.random.default_rng(41)
        c = rng.normal(size=5)
        a = rng.normal(size=(3, 5))
        rhs = a @ np.full(5, 0.5) + 0.5
        model = build_model(c, a, ["L"] * 3, rhs, [0.0] * 5, [1.0] * 5, [True] * 5)
        want = enumeration_optimum(model)
        sol = solve_mip(model, SolveConfig())
        assert sol.objective == pytest.approx(want, abs=1e-7)
        # reported gap is proven: bound <= optimum <= incumbent
        assert sol.gap <= 1e-6

    def test_node_limit_reports_limit_status(self):
        rng = np.random.default_rng(42)
        n = 10
        c = -rng.uniform(1, 2, size=n)
        a = rng.uniform(0.1, 1.0, size=(1, n))
        rhs = [float(a.sum() * 0.37)]
        model = build_model(c, a, ["L"], rhs, [0.0] * n, [1.0] * n, [True] * n)
        sol = solve_mip(model, SolveConfig(node_limit=2),
                        warm=np.zeros(n))
        assert sol.status == "limit"
        assert sol.gap > 0.0


class TestOneNodeLoop:
    def test_root_solved_once(self, monkeypatch):
        calls = []
        real = mipprune.solver.solve_lp

        def counting(model, fixings=None, basis=None, tableau=None, point=None):
            calls.append(dict(fixings or {}))
            return real(model, fixings, basis, tableau, point)

        monkeypatch.setattr(mipprune.solver, "solve_lp", counting)
        rng = np.random.default_rng(40)
        c = rng.normal(size=6)
        a = rng.normal(size=(4, 6))
        rhs = a @ rng.integers(0, 2, size=6).astype(float) + rng.uniform(0.1, 0.5, size=4)
        models = [
            (build_model(c, a, ["L"] * 4, rhs, [0.0] * 6, [1.0] * 6, [True] * 6), None),
            (TestWarmStart().make(), None),
            (TestWarmStart().make(), np.array([1.0, 0.0])),   # warm start closes the root
        ]
        for model, warm in models:
            calls.clear()
            sol = solve_mip(model, SolveConfig(), warm=warm)
            assert len(calls) == sol.node_count
            assert calls.count({}) == 1

    def test_root_closed_by_warm_start_counts_one_node(self):
        sol = solve_mip(TestWarmStart().make(), SolveConfig(), warm=np.array([1.0, 0.0]))
        assert sol.node_count == 1
        assert sol.status == "optimal"
        assert sol.log_lines[0].endswith("pruned-bound")

    def test_node_limit_zero_leaves_root_open(self):
        sol = solve_mip(TestWarmStart().make(), SolveConfig(node_limit=0),
                        warm=np.array([1.0, 1.0]))
        assert sol.node_count == 0
        assert sol.status == "limit"
        assert sol.gap == float("inf")


class TestUncertifiedAnswers:
    def test_unproven_infeasible_node_is_pruned_not_taken(self, monkeypatch):
        """min z + y  s.t.  z >= 0.5,  z + y <= 1.5,  z binary,  0 <= y <= 1.
        The branch z = 0 is infeasible.  With every Farkas row failing its
        check, each start of that LP gives up until the cold start's clean-up
        ends on z = 0, which breaks the first row: the node is pruned as
        infeasible, unproven, and never becomes the incumbent."""

        def model():
            return build_model(c=[1.0, 1.0], a=[[1.0, 0.0], [1.0, 1.0]], sense=["G", "L"],
                               rhs=[0.5, 1.5], lb=[0.0, 0.0], ub=[1.0, 1.0],
                               binary_mask=[True, False])

        want = solve_mip(model(), SolveConfig())
        monkeypatch.setattr(simplex, "_certified_infeasible", lambda *args: False)
        m = model()
        sol = solve_mip(m, SolveConfig())
        assert sol.objective == want.objective == 1.0
        assert m.check_assignment(sol.values) == []
        assert sol.log_lines[1].endswith("pruned-infeasible")
        counts = sol.lp_counters
        assert counts.gave_up == {"carried:uncertified": 1, "fresh:uncertified": 1}
        assert counts.answered["cold"] == 2 and counts.uncertified_lps == 1

    def test_uncertified_cold_answers_make_the_solve_unverified(self, monkeypatch):
        """With every optimum failing its check, each LP that ends on one is
        answered by the cold start, which keeps it uncertified.  The search
        closes the gap as it does with the check, but on answers no check
        passed, so the solve ends 'unverified', not 'optimal'."""
        want = solve_mip(fractional_knapsack(), SolveConfig())
        monkeypatch.setattr(simplex, "_certified_optimal", lambda *args: False)
        sol = solve_mip(fractional_knapsack(), SolveConfig())
        assert (want.status, sol.status) == ("optimal", "unverified")
        assert sol.gap <= 1e-6 and sol.objective == pytest.approx(want.objective, abs=1e-9)
        counts = sol.lp_counters
        assert counts.uncertified_lps == counts.answered["cold"] > 0
        assert sol.log_lines[-1].startswith("end status unverified ")


class TestBoxedLps:
    def test_unboxed_column_rejected(self):
        """Every column of a node LP needs two finite bounds; the error names
        the LP's column (here the model's variable 1, as no variable is
        fixed)."""
        model = build_model(c=[1.0, 1.0], a=[[1.0, 1.0]], sense=["G"], rhs=[1.0],
                            lb=[0.0, -np.inf], ub=[1.0, 2.0], binary_mask=[True, False])
        for solve in (solve_lp, solve_mip):
            with pytest.raises(InvalidArgument, match=r"^column 1 has bounds \[-inf, 2\.0\]"):
                solve(model)


def fractional_knapsack():
    rng = np.random.default_rng(42)  # a knapsack whose relaxation is fractional
    n = 10
    c = -rng.uniform(1, 2, size=n)
    a = rng.uniform(0.1, 1.0, size=(1, n))
    return build_model(c, a, ["L"], [float(a.sum() * 0.37)], [0.0] * n, [1.0] * n, [True] * n)


class TestWarmStartedNodes:
    def test_only_the_root_solves_cold(self, monkeypatch):
        """Every node LP after the root starts from its node's basis.  The root
        starts at the warm incumbent's vertex when there is one (the empty
        knapsack: every column at its lower bound), and solves cold without."""
        starts = []
        real = mipprune.solver.solve_lp

        def recording(model, fixings=None, basis=None, tableau=None, point=None):
            res = real(model, fixings, basis, tableau, point)
            starts.append((basis is not None, point is not None,
                           [kind for kind, why, *_ in res.attempts if why is None]))
            return res

        monkeypatch.setattr(mipprune.solver, "solve_lp", recording)
        for warm in (False, True):
            starts.clear()
            model = fractional_knapsack()
            sol = solve_mip(model, SolveConfig(), warm=np.zeros(10) if warm else None)
            assert sol.objective == pytest.approx(enumeration_optimum(model), abs=1e-9)
            assert len(starts) == sol.node_count > 1
            root = "vertex" if warm else "cold"
            assert starts[0] == (False, warm, [root])
            # every LP after the root is answered from the last answer's
            # tableau, the root's included
            assert all(given and not point and answered == ["carried"]
                       for given, point, answered in starts[1:])
            counts = sol.lp_counters
            assert counts.answered == {root: 1, "carried": len(starts) - 1}
            assert counts.gave_up == {} and counts.uncertified_lps == 0
            assert counts.dual_pivots + counts.primal_pivots == sol.lp_pivots
            assert sol.log_lines[-1].endswith(counts.to_text())
            assert (f"answered carried:{len(starts) - 1},{root}:1 gave_up none"
                    in sol.log_lines[-1])
            # no column is inside its box at the empty knapsack: the root moves nothing
            assert set(counts.move_pivots) <= {"carried"}
            assert counts.bland_switches == 0

    def test_carried_answers_failing_their_check_are_answered_fresh(self, monkeypatch):
        """A stand-in certificate fails every answer reached from a carried
        tableau; each such LP is answered from a fresh all-logical tableau and
        counted by its reason, and the search is unchanged."""
        want = solve_mip(fractional_knapsack(), SolveConfig())
        carrying = []  # the root starts from _all_logical too, and is certified as usual
        real_carry, real_fresh = simplex._carry, simplex._all_logical
        real_opt, real_inf = simplex._certified_optimal, simplex._certified_infeasible

        def carry(*args):
            carrying.append(True)
            return real_carry(*args)

        def fresh(*args):
            carrying.append(False)
            return real_fresh(*args)

        monkeypatch.setattr(simplex, "_carry", carry)
        monkeypatch.setattr(simplex, "_all_logical", fresh)
        monkeypatch.setattr(simplex, "_certified_optimal",
                            lambda *args: not carrying[-1] and real_opt(*args))
        monkeypatch.setattr(simplex, "_certified_infeasible",
                            lambda *args: not carrying[-1] and real_inf(*args))
        sol = solve_mip(fractional_knapsack(), SolveConfig())
        counts = sol.lp_counters
        carried = sol.node_count - 1
        assert carried > 0
        assert counts.gave_up == {"carried:uncertified": carried}
        assert counts.answered == {"cold": 1, "fresh": carried}
        # one fresh tableau for the root and one for each carried LP that
        # gave up
        assert carrying.count(True) == carried
        assert carrying.count(False) == carried + 1 and not carrying[0]
        assert counts.elim_levels["fresh"] > 0
        assert set(want.lp_counters.move_pivots) <= {"carried"}
        assert sol.objective == want.objective
        assert sol.values.tobytes() == want.values.tobytes()
