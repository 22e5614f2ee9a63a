"""Exact solving of the encoded models: LP relaxations, best-first branch
and bound over the binaries, and an outer-approximation loop that tightens
the log-sum-exp epigraph at integer-feasible candidates.

The search is one loop over a queue of nodes, the root included.  It ends
when the queue runs dry, when the incumbent closes the gap, or at
``node_limit`` / ``time_limit``.  The cut loop ends per integer node once
the epigraph violation is at most ``OA_TOL``; each of its rounds is one
more popped node, so the same limits bound it.

Each node LP leaves out the variables the model itself fixes (stable
units' binaries among them); a branching fixes a binary as a column of
width 0.  The root LP starts at the vertex of the warm incumbent, when
there is one: phase two of the primal simplex runs from that point's
basis.  Each queued node carries the final basis of the LP it came from:
a child gets its parent's, a cut round its own node's (the new cut rows
enter with their logicals basic).  Its LP is then warm-started from that
basis by the dual simplex.  Only a root without a warm incumbent, and a
start that gives up, solve from scratch.  The search also keeps the final
tableau of the last LP answered, the root's included, and hands it to the
next LP, which reaches its node's basis from it in a few pivots instead of
rebuilding the tableau from the all-logical start; that tableau lives in
one :func:`solve_mip` call only.  How each LP was answered is counted in
:class:`LpCounters` and written on the log's ``end status`` line.

Everything is deterministic: node selection breaks ties by insertion order,
branching picks the most fractional binary (lowest id on ties), and the
underlying simplex is itself deterministic.  Distinct solves share no
state, so callers may run several in parallel threads.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .encoding import MipModel, add_lse_cut
from .errors import InvalidArgument, NoIncumbent
from .linalg import matvec
from .simplex import Basis, LinearProgram, LpResult, Tableau, solve_lp_arrays

__all__ = ["LpCounters", "SolveConfig", "Solution", "solve_lp", "solve_mip", "warm_start"]

OA_TOL = 1e-6    # log-sum-exp epigraph slack accepted at an integer node
INT_TOL = 1e-6   # distance from 0 or 1 at which a binary counts as integral


@dataclass
class SolveConfig:
    gap_tol: float = 1e-6
    node_limit: int = 100_000
    time_limit: float = float("inf")   # seconds
    log_path: str | None = None


@dataclass
class LpCounters:
    """How the LPs of one solve were answered; kept in memory only.

    ``warm_lps`` were answered from the start their node carried: a basis,
    or for the root the warm incumbent's vertex.  ``cold_lps`` were answered
    from scratch: a root without a warm incumbent, and every start that gave
    up, counted by reason in ``fallbacks``.  ``carried_lps`` started from the
    last LP's final tableau; those it did not answer are counted by reason
    in ``carry_fallbacks`` and went on from a fresh all-logical tableau.
    ``repaired_lps`` are cold optima that failed their certificate
    and passed it after one refactor and clean-up; ``uncertified_lps`` are
    'optimal' answers that still fail it.  ``dual_pivots`` plus
    ``primal_pivots`` make ``Solution.lp_pivots``; the pivots that move a
    tableau to a node's basis are not in it: ``carry_pivots`` from the
    carried tableau, ``refactor_pivots`` from a fresh one (the root's move
    to its vertex, after a carry fallback, in a repair, or when the last LP
    left no tableau).
    ``bland_switches`` and ``stall_exits`` count the primal loop's turns to
    Bland's rule and its exits at the stall cap.
    """

    warm_lps: int = 0
    cold_lps: int = 0
    carried_lps: int = 0
    repaired_lps: int = 0
    uncertified_lps: int = 0
    refactor_pivots: int = 0
    carry_pivots: int = 0
    dual_pivots: int = 0
    primal_pivots: int = 0
    bland_switches: int = 0
    stall_exits: int = 0
    fallbacks: dict[str, int] = field(default_factory=dict)
    carry_fallbacks: dict[str, int] = field(default_factory=dict)

    def add(self, res: LpResult) -> None:
        if res.warm:
            self.warm_lps += 1
        else:
            self.cold_lps += 1
        if res.fallback:
            self.fallbacks[res.fallback] = self.fallbacks.get(res.fallback, 0) + 1
        if res.carry_fallback:
            self.carry_fallbacks[res.carry_fallback] = (
                self.carry_fallbacks.get(res.carry_fallback, 0) + 1)
        self.carried_lps += res.carried
        self.repaired_lps += res.repaired
        self.uncertified_lps += res.status == "optimal" and not res.certified
        self.refactor_pivots += res.refactor_pivots
        self.carry_pivots += res.carry_pivots
        self.dual_pivots += res.dual_pivots
        self.primal_pivots += res.pivots - res.dual_pivots
        self.bland_switches += res.bland_switches
        self.stall_exits += res.stall_exits

    def to_text(self) -> str:
        def reasons(counts: dict[str, int]) -> str:
            return ",".join(f"{k}:{v}" for k, v in sorted(counts.items())) or "none"

        return (f"warm_lps {self.warm_lps} cold_lps {self.cold_lps} "
                f"fallbacks {reasons(self.fallbacks)} carried_lps {self.carried_lps} "
                f"carry_fallbacks {reasons(self.carry_fallbacks)} "
                f"repaired_lps {self.repaired_lps} uncertified_lps {self.uncertified_lps} "
                f"refactor_pivots {self.refactor_pivots} carry_pivots {self.carry_pivots} "
                f"dual_pivots {self.dual_pivots} primal_pivots {self.primal_pivots} "
                f"bland_switches {self.bland_switches} stall_exits {self.stall_exits}")


@dataclass
class Solution:
    """Best assignment found, with proof-of-optimality bookkeeping.

    ``lp_pivots`` counts simplex iterations over every LP of the search,
    dual and primal: basis changes plus bound flips.  The pivots that move
    a tableau to a node's starting basis are not among them; they are in
    ``lp_counters.carry_pivots`` and ``lp_counters.refactor_pivots``.
    """

    values: np.ndarray
    objective: float
    gap: float
    node_count: int
    cut_rounds: int
    wall_time: float
    lp_pivots: int
    status: str                      # 'optimal' | 'limit'
    log_lines: list[str] = field(default_factory=list)
    lp_counters: LpCounters = field(default_factory=LpCounters)


def solve_lp(model: MipModel, fixings: dict[int, float] | None = None,
             basis: Basis | None = None, tableau: Tableau | None = None,
             point: np.ndarray | None = None) -> LpResult:
    """Solve the continuous relaxation (binaries relaxed into their boxes),
    warm-started from ``basis`` when given, which is reached from the carried
    ``tableau`` when one is given too, or from the basis of the vertex
    ``point`` (one value per variable).

    The variables the model itself fixes (``lb == ub``) are left out of the
    LP; a fixing makes a column of width 0.  So ``basis`` and ``tableau``,
    like the answer's, index only the variables the model does not fix,
    while the answer's ``x`` has every variable.
    """
    cols, fixed, a, a_fixed, sense, rhs = model.split_fixed()
    lb, ub, c = model.var_arrays()
    if fixings:
        lb, ub = lb.copy(), ub.copy()
        for j, val in fixings.items():
            lb[j] = ub[j] = val
    res = solve_lp_arrays(LinearProgram(
        c=c[cols], a=a, sense=sense, rhs=rhs - matvec(a_fixed, lb[fixed]), lb=lb[cols],
        ub=ub[cols], const=model.objective_const + float(np.dot(c[fixed], lb[fixed]))),
        basis, tableau, None if point is None else point[cols])
    if res.x is not None:
        x = lb.copy()
        x[cols] = res.x
        res.x = x
    return res


def warm_start(model: MipModel, assignment: np.ndarray) -> float:
    """Validate a feasible assignment and return its true objective.

    Raises with the first violated constraint when the assignment is not
    feasible, so a bad warm start fails loudly instead of corrupting the
    incumbent.
    """
    assignment = np.asarray(assignment, dtype=np.float64)
    if assignment.size != len(model.variables):
        raise InvalidArgument("assignment length does not match the model")
    bad = model.check_assignment(assignment)
    if bad:
        raise InvalidArgument(f"warm start rejected: {bad[0]}")
    return model.true_objective(assignment)


def _fractional_binaries(model: MipModel, x: np.ndarray) -> list[tuple[float, int]]:
    out = []
    for v in model.variables:
        if not v.binary or v.lb == v.ub:
            continue
        frac = abs(x[v.idx] - round(x[v.idx]))
        if frac > INT_TOL:
            out.append((frac, v.idx))
    return out


def solve_mip(model: MipModel, config: SolveConfig | None = None,
              warm: np.ndarray | None = None) -> Solution:
    """Best-first branch and bound with most-fractional branching.

    The root is an ordinary node, pushed with bound -inf.  At every
    integer-feasible LP optimum the log-sum-exp epigraph is checked; while
    it is violated by more than ``OA_TOL`` the node gets tangent cuts and is
    pushed again with its own basis; a child is pushed with its parent's.
    Each such cut round is one more popped node, so
    ``node_limit`` and ``time_limit`` bound the cut loop like the rest of
    the search, and a stop inside it leaves that node's bound behind
    ``gap`` and the status 'limit'.  Incumbent objectives are always
    evaluated with the exact log-sum-exp, so the reported value decomposes
    into sparsity + lambda * softmax without cut slack.
    """
    cfg = config or SolveConfig()
    t0 = time.perf_counter()
    log: list[str] = []
    counters = LpCounters()
    carried: Tableau | None = None   # the last warm LP's final tableau
    cut_rounds = 0
    node_count = 0

    incumbent: np.ndarray | None = None
    incumbent_obj = float("inf")
    if warm is not None:
        incumbent_obj = warm_start(model, warm)
        incumbent = model.with_exact_lse(warm)

    # (bound, insertion order, fixings, basis to warm-start from)
    heap: list[tuple[float, int, dict[int, float], Basis | None]] = [(float("-inf"), 0, {}, None)]
    counter = 1

    def current_gap(best_bound: float) -> float:
        if incumbent_obj == float("inf"):
            return float("inf")
        return max(0.0, incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj))

    best_bound = float("-inf")
    status = "optimal"

    def node_line(kind: str) -> None:
        log.append(
            f"node {node_count} bound {best_bound!r} "
            f"incumbent {incumbent_obj!r} gap {current_gap(best_bound)!r} {kind}"
        )

    while heap:
        if node_count >= cfg.node_limit or (time.perf_counter() - t0) > cfg.time_limit:
            status = "limit"
            best_bound = heap[0][0]   # the least bound among the open nodes
            break
        bound, _, fixings, start = heapq.heappop(heap)
        best_bound = bound  # best-first: the popped node carries the smallest bound
        if incumbent is not None and bound >= incumbent_obj - cfg.gap_tol * max(1.0, abs(incumbent_obj)):
            # every open node is within tolerance of the incumbent
            break
        node_count += 1
        # only the root has no basis: it starts at the warm incumbent's vertex
        point = incumbent if start is None else None
        res = solve_lp(model, fixings, start, carried, point)
        carried = res.tableau
        counters.add(res)
        if res.status == "infeasible":
            node_line("pruned-infeasible")
            continue
        if res.status == "unbounded":
            raise NoIncumbent("node relaxation is unbounded")
        x = res.x
        obj = res.objective
        if incumbent is not None and obj >= incumbent_obj - cfg.gap_tol * max(1.0, abs(incumbent_obj)):
            node_line("pruned-bound")
            continue
        fracs = _fractional_binaries(model, x)
        if not fracs:
            # integer feasible: enforce the epigraph before accepting
            candidate = model.with_exact_lse(x)
            viols = {k: candidate[t] - x[t] for k, t in enumerate(model.tlse_vars)
                     if candidate[t] - x[t] > 0}
            if max(viols.values(), default=0.0) > OA_TOL:
                for k in viols:
                    add_lse_cut(model, k, x[model.logit_vars[k]])
                cut_rounds += 1
                heapq.heappush(heap, (obj, counter, fixings, res.basis))
                counter += 1
                node_line("cut-round")
                continue
            cand_obj = model.objective_value(candidate)
            if cand_obj < incumbent_obj:
                incumbent = candidate
                incumbent_obj = cand_obj
            node_line("integer")
            continue
        # branch on the most fractional binary, lowest id on ties
        fracs.sort(key=lambda t: (-round(t[0], 12), t[1]))
        _, j = fracs[0]
        for val in (0.0, 1.0):
            child = dict(fixings)
            child[j] = val
            heapq.heappush(heap, (obj, counter, child, res.basis))
            counter += 1
        node_line(f"branch {j}")

    if incumbent is None:
        raise NoIncumbent(f"no feasible solution within limits (nodes={node_count})")
    if not heap and status == "optimal":
        best_bound = incumbent_obj
    gap = current_gap(best_bound)
    if gap > cfg.gap_tol:
        status = "limit"
    log.append(f"end status {status} nodes {node_count} cut_rounds {cut_rounds} "
               f"bound {best_bound!r} incumbent {incumbent_obj!r} gap {gap!r} "
               f"{counters.to_text()}")
    if cfg.log_path:
        with open(cfg.log_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(log) + "\n")
    return Solution(
        values=incumbent, objective=incumbent_obj, gap=gap, node_count=node_count,
        cut_rounds=cut_rounds, wall_time=time.perf_counter() - t0,
        lp_pivots=counters.dual_pivots + counters.primal_pivots, status=status,
        log_lines=log, lp_counters=counters,
    )
