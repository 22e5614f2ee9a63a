from itertools import product

import numpy as np
import pytest

import mipprune.solver
from mipprune import simplex
from mipprune.encoding import MipModel
from mipprune.errors import InvalidArgument, NoIncumbent
from mipprune.simplex import LinearProgram, solve_lp_arrays
from mipprune.solver import SolveConfig, solve_lp, solve_mip, warm_start


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


class TestModelFixedColumns:
    @pytest.mark.parametrize("fixings", [{}, {0: 0.0}, {3: 2.0}])
    def test_left_out_of_the_lp_and_mapped_back(self, fixings):
        """Variables 1 and 3 are fixed by their own bounds, so they are no LP
        columns: the answer's basis covers the other two only, while its x
        and objective are those of the full LP, also when a fixing moves a
        variable the model fixes."""
        c, lb, ub = [-1.0, -2.0, 0.1, 0.5], [0.0, 0.5, 0.0, 1.0], [1.0, 0.5, 2.0, 1.0]
        a, sense, rhs = [[1.0, 0.0, -1.0, 1.0], [1.0, 1.0, 1.0, 0.0]], ["L", "G"], [1.3, 1.0]
        res = solve_lp(build_model(c, a, sense, rhs, lb, ub, [True, False, False, False]),
                       fixings)
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
                           [kind for kind, why, _ in res.attempts if why is None]))
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
            assert (counts.bland_switches, counts.stall_exits) == (0, 0)

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
        # two fresh tableaus for the root (its recession LP's and its own)
        # and one for each carried LP that gave up
        assert carrying.count(True) == carried
        assert carrying.count(False) == carried + 2 and not carrying[0]
        assert counts.move_pivots["fresh"] > 0
        assert set(want.lp_counters.move_pivots) <= {"carried"}
        assert sol.objective == want.objective
        assert sol.values.tobytes() == want.values.tobytes()
