"""Exact solving of the encoded models: LP relaxations, best-first branch
and bound over the binaries, and an outer-approximation loop that tightens
the log-sum-exp epigraph at integer-feasible candidates.

The search is one loop over a queue of nodes, the root included.  It ends
when the queue runs dry, when the incumbent closes the gap, or at
``node_limit`` / ``time_limit``.  The cut loop ends per integer node once
the epigraph violation is at most ``OA_TOL``; each of its rounds is one
more popped node, so the same limits bound it.  A round's LP point with
exact epigraph values is feasible and becomes the incumbent when better,
and its tangents are placed by in-out separation: halfway between the LP
point's logits and the incumbent's, where that tangent still cuts the LP
point off by more than ``OA_TOL``, else at the LP point (Kelley's cut).
So every round still cuts off its LP point, and the anchors zig-zag less
than Kelley's, which jump with each LP point.  Ref:
Ben-Ameur & Neto, "Acceleration of cutting-plane and column generation
algorithms", Networks 49, 2007; Kelley, J. SIAM 8, 1960.

Each node LP is the model's own rows and columns
(:meth:`MipModel.dense_rows`), built once per model and again only when a
cut round appends rows.  (The model holds only the search's decisions: a
binary ``z`` for an unstable unit alone, a stable unit's rows in their
final form, and no variable for a unit its bounds switch off.)  The cut
rows are appended after the encoded rows, so row ids hold from one LP to
the next.  A branching fixes a binary as a column of width 0.  Each queued
node carries the final basis of the LP it came from: a child gets its
parent's, a cut round its own node's (the new cut rows enter with their
logicals basic).  The search also keeps the final tableau of the last LP answered, the root's
included; that tableau lives in one :func:`solve_mip` call only.  A node's
LP tries its starts in order: that carried tableau moved to the node's
basis in a few pivots, then a fresh all-logical tableau moved there, each
finished by the dual simplex.  The root has no basis; it starts at the
vertex of the warm incumbent, when there is one, and runs phase two of the
primal simplex from that point's basis.  That basis is triangular (each
layer's basic activations depend only on earlier layers), so its tableau
is built from the all-logical one by elimination levels, one per layer and
one for the epigraph rows, with no general pivot; a basis with a part no
level places pivots that part in, and counts the pivots.  A root without
a warm incumbent, and an LP whose every start gives up, take the 'cold'
start: the all-logical tableau with each column at the bound its cost
prefers, finished by the dual simplex too.  Every column is boxed (the
encoder bounds ``t_min`` and each ``t_lse``), so every node LP has an
optimum or is infeasible.  Each LP records its starts in
``LpResult.attempts``, with the pivots and elimination levels that moved
its tableau; :class:`LpCounters` sums them and adds the node LP's row
counts, and the log's ``end status`` line shows them all.

A solve ends 'optimal' when the search closed the gap on LP answers that
all passed their check on the original arrays, 'unverified' when it closed
it but used an answer that did not (only a cold start returns one), and
'limit' when a node or time limit stopped it first.

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

from .encoding import MipModel, lse_tangent
from .errors import InvalidArgument, NoIncumbent
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

    def __post_init__(self):
        if not 0.0 <= self.gap_tol < float("inf"):
            raise InvalidArgument(f"gap_tol must be finite and >= 0, got {self.gap_tol!r}")
        if self.node_limit < 0:
            raise InvalidArgument(f"node_limit must be >= 0, got {self.node_limit!r}")
        if not self.time_limit >= 0.0:
            raise InvalidArgument(f"time_limit must be >= 0, got {self.time_limit!r}")


@dataclass
class LpCounters:
    """How the LPs of one solve were answered, read from each LP's
    ``LpResult.attempts``; kept in memory only.

    ``answered`` counts the LPs by the kind of start that answered them,
    ``gave_up`` the starts that gave up by ``kind:reason``,
    ``elim_levels`` the elimination levels that placed the triangular part
    of each all-logical start's basis, by kind, and ``move_pivots`` the
    pivots spent moving a tableau the rest of the way to its basis, by
    kind: for an all-logical start ('fresh', 'vertex', 'cold') these are
    the bump's pivots.
    ``uncertified_lps`` are answers that did not pass their check on the
    original arrays.  ``dual_pivots`` plus ``primal_pivots`` make
    ``Solution.lp_pivots``; the move pivots are not in it.
    ``bland_switches`` counts the dual and primal loops' turns to Bland's
    rule.  ``lp_rows`` counts the model's rows at the start of the search;
    later cut rows come on top.
    """

    answered: Counter[str] = field(default_factory=Counter)
    gave_up: Counter[str] = field(default_factory=Counter)
    move_pivots: Counter[str] = field(default_factory=Counter)
    elim_levels: Counter[str] = field(default_factory=Counter)
    uncertified_lps: int = 0
    dual_pivots: int = 0
    primal_pivots: int = 0
    bland_switches: int = 0
    lp_rows: int = 0

    def add(self, res: LpResult) -> None:
        for kind, reason, moved, levels in res.attempts:
            if reason is None:
                self.answered[kind] += 1
            else:
                self.gave_up[f"{kind}:{reason}"] += 1
            if moved:
                self.move_pivots[kind] += moved
            if levels:
                self.elim_levels[kind] += levels
        self.uncertified_lps += not res.certified
        self.dual_pivots += res.dual_pivots
        self.primal_pivots += res.pivots - res.dual_pivots
        self.bland_switches += res.bland_switches

    def to_text(self) -> str:
        def counts(c: Counter[str]) -> str:
            return ",".join(f"{k}:{v}" for k, v in sorted(c.items())) or "none"

        return (f"answered {counts(self.answered)} gave_up {counts(self.gave_up)} "
                f"move_pivots {counts(self.move_pivots)} "
                f"elim_levels {counts(self.elim_levels)} "
                f"uncertified_lps {self.uncertified_lps} "
                f"dual_pivots {self.dual_pivots} primal_pivots {self.primal_pivots} "
                f"bland_switches {self.bland_switches} "
                f"lp_rows {self.lp_rows}")


@dataclass
class Solution:
    """Best assignment found, with proof-of-optimality bookkeeping.

    ``lp_pivots`` counts simplex iterations over every LP of the search,
    dual and primal: basis changes plus bound flips.  The pivots that move
    a tableau to a node's starting basis are not among them; they are in
    ``lp_counters.move_pivots``, by the kind of start.  ``lp_counters`` also
    counts the LPs by the start that answered them and the starts that gave
    up, by reason.  ``cut_incumbents`` counts the cut rounds whose point
    became the incumbent, and ``oa_cuts`` the tangent cuts by anchor: 'inout'
    or 'lp'.  ``status`` is 'optimal', 'unverified' or 'limit', as the
    module docstring says.
    """

    values: np.ndarray
    objective: float
    gap: float
    node_count: int
    cut_rounds: int
    wall_time: float
    lp_pivots: int
    status: str                      # 'optimal' | 'unverified' | 'limit'
    cut_incumbents: int = 0
    oa_cuts: Counter[str] = field(default_factory=Counter)
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
    the all-logical basis.  The answer's ``attempts`` says how each start
    went.

    The LP is the model itself: its rows over every variable, with a
    fixing as a column of width 0, so ``basis``, ``tableau``, ``point`` and
    the answer all index the model's variables and rows.
    """
    a, sense, rhs = model.dense_rows()
    lb, ub, c = model.var_arrays()
    if fixings:
        lb, ub = lb.copy(), ub.copy()
        for j, val in fixings.items():
            lb[j] = ub[j] = val
    return solve_lp_arrays(LinearProgram(c=c, a=a, sense=sense, rhs=rhs, lb=lb, ub=ub,
                                         const=model.objective_const), basis, tableau, point)


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


def _fractional_binaries(x: np.ndarray, binaries: np.ndarray) -> list[tuple[float, int]]:
    """``(fractionality, id)`` of each of the ``binaries`` ids whose value in
    ``x`` is more than ``INT_TOL`` from the nearest integer, in id order."""
    frac = np.abs(x[binaries] - np.round(x[binaries]))
    keep = frac > INT_TOL
    # numpy scalars, not floats: the branching key's round(frac, 12) rounds them
    # as numpy does, which Python's rounding of a float does not always match
    return list(zip(frac[keep], binaries[keep].tolist()))


def solve_mip(model: MipModel, config: SolveConfig | None = None,
              warm: np.ndarray | None = None) -> Solution:
    """Best-first branch and bound with most-fractional branching.

    The root is an ordinary node, pushed with bound -inf.  At every
    integer-feasible LP optimum the point with exact log-sum-exp epigraph
    values is a candidate incumbent.  While the epigraph is violated by more
    than ``OA_TOL`` the node also gets one tangent cut per violated point,
    at the in-out anchor or at the LP point (see the module docstring), and
    is pushed again with its own basis; a child is pushed with its parent's.
    Each such cut round is one more popped node, so
    ``node_limit`` and ``time_limit`` bound the cut loop like the rest of
    the search, and a stop inside it leaves that node's bound behind
    ``gap`` and the status 'limit'.  Incumbent objectives are always
    evaluated with the exact log-sum-exp, so the reported value decomposes
    into sparsity + lambda * softmax without cut slack.
    ``Solution.cut_incumbents`` counts the rounds whose candidate became
    the incumbent, and ``Solution.oa_cuts`` the tangents by anchor,
    'inout' or 'lp'; the log's ``end status`` line shows both.
    """
    cfg = config or SolveConfig()
    t0 = time.perf_counter()
    log: list[str] = []
    counters = LpCounters(lp_rows=len(model.constraints))
    # the binaries the model itself leaves free; a branching fixes them at 0 or 1
    lb, ub, _ = model.var_arrays()
    binaries = np.flatnonzero(model.binary_mask() & (lb < ub))
    carried: Tableau | None = None   # the last LP's final tableau
    cut_rounds = 0
    cut_incumbents = 0
    oa_cuts = Counter(inout=0, lp=0)
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
        x = res.x
        obj = res.objective
        if incumbent is not None and obj >= incumbent_obj - cfg.gap_tol * max(1.0, abs(incumbent_obj)):
            node_line("pruned-bound")
            continue
        fracs = _fractional_binaries(x, binaries)
        if not fracs:
            # integer feasible: its exact-epigraph copy is a feasible point,
            # an incumbent even while the epigraph still needs cuts
            candidate = model.with_exact_lse(x)
            cand_obj = model.objective_value(candidate)
            cut = any(candidate[t] - x[t] > OA_TOL for t in model.tlse_vars)
            if cand_obj < incumbent_obj:
                incumbent = candidate
                incumbent_obj = cand_obj
                cut_incumbents += cut
            if not cut:
                node_line("integer")
                continue
            for k, t in enumerate(model.tlse_vars):
                if candidate[t] <= x[t]:
                    continue
                h_lp = x[model.logit_vars[k]]
                h_inc = incumbent[model.logit_vars[k]]
                # in-out: the tangent halfway to the incumbent, where it still
                # cuts the LP point off; else the tangent at the LP point
                inout = not np.array_equal(h_inc, h_lp)
                if inout:
                    coefs, rhs = lse_tangent(model, k, 0.5 * (h_inc + h_lp))
                    inout = rhs - sum(c * x[j] for j, c in coefs.items()) > OA_TOL
                if not inout:
                    coefs, rhs = lse_tangent(model, k, h_lp)
                model.add_constraint(coefs, "G", rhs, "lse_cut")
                oa_cuts["inout" if inout else "lp"] += 1
            cut_rounds += 1
            heapq.heappush(heap, (obj, counter, fixings, res.basis))
            counter += 1
            node_line("cut-round")
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
    elif status == "optimal" and counters.uncertified_lps:
        status = "unverified"
    log.append(f"end status {status} nodes {node_count} cut_rounds {cut_rounds} "
               f"cut_incumbents {cut_incumbents} "
               f"oa_cuts inout:{oa_cuts['inout']},lp:{oa_cuts['lp']} "
               f"bound {best_bound!r} incumbent {incumbent_obj!r} gap {gap!r} "
               f"{counters.to_text()}")
    if cfg.log_path:
        with open(cfg.log_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(log) + "\n")
    return Solution(
        values=incumbent, objective=incumbent_obj, gap=gap, node_count=node_count,
        cut_rounds=cut_rounds, cut_incumbents=cut_incumbents, oa_cuts=oa_cuts,
        wall_time=time.perf_counter() - t0,
        lp_pivots=counters.dual_pivots + counters.primal_pivots, status=status,
        log_lines=log, lp_counters=counters,
    )
