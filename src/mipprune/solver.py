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
width 0.  Each queued node carries the final basis of the LP it came from:
a child gets its parent's, a cut round its own node's (the new cut rows
enter with their logicals basic).  The search also keeps the final tableau
of the last LP answered, the root's included; that tableau lives in one
:func:`solve_mip` call only.  A node's LP tries its starts in order: that
carried tableau moved to the node's basis in a few pivots, then a fresh
all-logical tableau moved there, each finished by the dual simplex.  The
root has no basis; it starts at the vertex of the warm incumbent, when
there is one, and runs phase two of the primal simplex from that point's
basis.  A root without a warm incumbent, and an LP whose every start gives
up, take the 'cold' start: a fresh tableau moved to the final basis of the
LP's recession LP, finished by the dual simplex too.  Each LP records its
starts in ``LpResult.attempts``; :class:`LpCounters` sums them, and the
log's ``end status`` line shows the sums.

Everything is deterministic: node selection breaks ties by insertion order,
branching picks the most fractional binary (lowest id on ties), and the
underlying simplex is itself deterministic.  Distinct solves share no
state, so callers may run several in parallel threads.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
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
    """How the LPs of one solve were answered, read from each LP's
    ``LpResult.attempts``; kept in memory only.

    ``answered`` counts the LPs by the kind of start that answered them,
    ``gave_up`` the starts that gave up by ``kind:reason``, and
    ``move_pivots`` the pivots spent moving a tableau to its basis, by kind.
    ``uncertified_lps`` are answers that did not pass their check on the
    original arrays.  ``dual_pivots`` plus ``primal_pivots`` make
    ``Solution.lp_pivots``; the move pivots are not in it.
    ``bland_switches`` counts the dual and primal loops' turns to Bland's
    rule, ``stall_exits`` the primal loop's exits at its stall cap.
    """

    answered: Counter[str] = field(default_factory=Counter)
    gave_up: Counter[str] = field(default_factory=Counter)
    move_pivots: Counter[str] = field(default_factory=Counter)
    uncertified_lps: int = 0
    dual_pivots: int = 0
    primal_pivots: int = 0
    bland_switches: int = 0
    stall_exits: int = 0

    def add(self, res: LpResult) -> None:
        for kind, reason, moved in res.attempts:
            if reason is None:
                self.answered[kind] += 1
            else:
                self.gave_up[f"{kind}:{reason}"] += 1
            if moved:
                self.move_pivots[kind] += moved
        self.uncertified_lps += not res.certified
        self.dual_pivots += res.dual_pivots
        self.primal_pivots += res.pivots - res.dual_pivots
        self.bland_switches += res.bland_switches
        self.stall_exits += res.stall_exits

    def to_text(self) -> str:
        def counts(c: Counter[str]) -> str:
            return ",".join(f"{k}:{v}" for k, v in sorted(c.items())) or "none"

        return (f"answered {counts(self.answered)} gave_up {counts(self.gave_up)} "
                f"move_pivots {counts(self.move_pivots)} "
                f"uncertified_lps {self.uncertified_lps} "
                f"dual_pivots {self.dual_pivots} primal_pivots {self.primal_pivots} "
                f"bland_switches {self.bland_switches} stall_exits {self.stall_exits}")


@dataclass
class Solution:
    """Best assignment found, with proof-of-optimality bookkeeping.

    ``lp_pivots`` counts simplex iterations over every LP of the search,
    dual and primal: basis changes plus bound flips.  The pivots that move
    a tableau to a node's starting basis are not among them; they are in
    ``lp_counters.move_pivots``, by the kind of start.  ``lp_counters`` also
    counts the LPs by the start that answered them and the starts that gave
    up, by reason.
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
    """Solve the continuous relaxation (binaries relaxed into their boxes).

    The starts are tried in order until one answers: with ``basis``, the
    carried ``tableau`` moved to it, when one is given, then a fresh
    all-logical tableau moved to it; with ``point`` (one value per
    variable), a fresh tableau moved to the basis of that vertex.  When
    every start gives up, or there is none, the 'cold' start answers from
    the final basis of the LP's recession LP.  The answer's ``attempts``
    says how each start went.

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
    carried: Tableau | None = None   # the last LP's final tableau
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
