"""Tests of the benchmark's own checks: none of them is vacuous.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from mipprune import lpformat  # noqa: E402
from mipprune.bounds import propagate, propagate_batch  # noqa: E402
from mipprune.encoding import encode_network  # noqa: E402
from mipprune.network import avgpool, conv, dense, flatten, forward, init_network  # noqa: E402
from mipprune.pruning import score  # noqa: E402

import oracle  # noqa: E402

XS = np.array([[0.5, -0.3], [-0.4, 0.6]])
YS = np.array([0, 1])


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A small scored instance, its reference and its report."""
    net = init_network(2, [dense(3), dense(2), dense(2, activation="none")], seed=4)
    inst = oracle.Instance("tiny", net, XS, YS, lam=1.0, epsilon=0.5)
    ref = oracle.reference(inst, str(tmp_path_factory.mktemp("lp")))
    report = score(net, XS, YS, lam=1.0, epsilon=0.5)
    return inst, ref, report


def _failed_checks(inst, ref, report, first_text):
    return {msg.split(":")[0] for msg in oracle.check_report(inst, ref, report, first_text)}


def test_genuine_report_passes(scored):
    inst, ref, report = scored
    assert _failed_checks(inst, ref, report, report.to_text()) == set()


@pytest.mark.parametrize("corrupt, check", [
    (lambda r: dataclasses.replace(r, objective=r.objective + 1e-3), "objective_recomputed"),
    (lambda r: dataclasses.replace(r, objective=r.objective + 1e-3), "oracle_bracket"),
    (lambda r: dataclasses.replace(r, objective=r.objective - 1e-3), "oracle_bracket"),
    (lambda r: dataclasses.replace(r, status="limit"), "status"),
    (lambda r: dataclasses.replace(r, scores=dict(list(r.scores.items())[1:])), "scores"),
    (lambda r: dataclasses.replace(r, scores={**r.scores, (0, 0): 1.5}), "scores"),
])
def test_corrupted_report_is_rejected(scored, corrupt, check):
    inst, ref, report = scored
    bad = corrupt(report)
    assert check in _failed_checks(inst, ref, bad, bad.to_text())


def test_flipped_score_is_rejected(scored):
    inst, ref, report = scored
    # a unit of the layer with the larger sum: flipping it moves the sparsity term
    sums = {}
    for (layer, _), s in report.scores.items():
        sums[layer] = sums.get(layer, 0.0) + s
    layer = max(sums, key=sums.get)
    key = next(k for k, s in sorted(report.scores.items()) if k[0] == layer and abs(1 - 2 * s) > 0.1)
    flipped = dataclasses.replace(report, scores={**report.scores, key: 1.0 - report.scores[key]})
    assert "objective_recomputed" in _failed_checks(inst, ref, flipped, flipped.to_text())


def test_worse_than_unpruned_is_rejected(scored):
    inst, ref, report = scored
    ones = {k: 1.0 for k in report.scores}
    bad = dataclasses.replace(report, scores=ones, objective=ref.unpruned + 1e-3)
    assert "no_worse_than_unpruned" in _failed_checks(inst, ref, bad, bad.to_text())


def test_changed_text_is_rejected(scored):
    inst, ref, report = scored
    assert "deterministic" in _failed_checks(inst, ref, report, report.to_text() + "x")


def test_damped_pass_at_full_scores_equals_forward():
    rng = np.random.default_rng(0)
    nets = [
        init_network(2, [dense(5), dense(3), dense(4, activation="none")], seed=1),
        init_network((1, 6, 6), [conv(2, 3, 3), avgpool(4), flatten(), dense(3),
                                 dense(3, activation="none")], seed=2),
    ]
    for net in nets:
        x = rng.normal(size=net.input_size)
        upper = propagate(net, x, 0.3).pre_hi
        ones = {(layer, u): 1.0 for layer, n, _ in oracle.prunable_units(net) for u in range(n)}
        np.testing.assert_allclose(oracle.damped_logits(net, x, upper, ones),
                                   forward(net, x).logits, rtol=0, atol=1e-12)


def test_parsed_lp_matches_model(tmp_path):
    net = init_network(2, [dense(3), dense(2), dense(2, activation="none")], seed=4)
    model = encode_network(net, XS, YS, propagate_batch(net, XS, 0.5), lam=1.0)
    path = tmp_path / "m.lp"
    lpformat.write_lp(model, path)
    lp = oracle.parse_lp(path.read_text())
    order = [lp.index(v.name) for v in model.variables]
    x = np.empty(len(lp.names))
    x[order] = model.reference_assignment
    assert lp.c @ x + lp.const == pytest.approx(model.objective_value(model.reference_assignment),
                                                abs=1e-12)
    assert len(lp.row_lo) == len(model.constraints)
    assert int(lp.binary.sum()) == model.n_binary()


def _brute_force(net, xs, ys, lam, epsilon, grid):
    """Best damped objective over an s-grid for a net with one unit per hidden layer.

    A grid point is feasible when every damped pre-activation stays in the
    range the encoding allows it: [L, U] for a unit that can switch, [L, 0]
    for one that is always off, [0, U] for one that is always on, and the
    logit box for the output layer.
    """
    bounds = propagate_batch(net, xs, epsilon)
    s1, s2 = np.meshgrid(grid, grid, indexing="ij")
    s = [s1.ravel(), s2.ravel()]
    feasible = np.ones(s1.size, dtype=bool)
    soft = np.zeros(s1.size)
    for k in range(xs.shape[0]):
        h = np.tile(xs[k], (s1.size, 1))
        for idx, spec in enumerate(net.layers):
            z = h @ spec.weight.T + spec.bias
            lo, hi = bounds[k].pre_lo[idx], bounds[k].pre_hi[idx]
            if spec.activation == "relu":
                z = z - (1.0 - s[idx][:, None]) * np.maximum(hi, 0.0)
                z_lo = np.where(lo >= 0.0, 0.0, lo)
                z_hi = np.where(hi <= 0.0, 0.0, hi)
                h = np.maximum(z, 0.0)
            else:
                z_lo, z_hi = lo, hi
                h = z
            feasible &= np.all((z >= z_lo - 1e-9) & (z <= z_hi + 1e-9), axis=1)
        m = h.max(axis=1)
        soft += m + np.log(np.exp(h - m[:, None]).sum(axis=1)) - h[:, int(ys[k])]
    layer_sums = np.stack([s[0] - 2.0, s[1] - 2.0])
    sparsity = (layer_sums.sum(axis=0) - layer_sums.min(axis=0)) / 2.0
    values = np.where(feasible, sparsity + lam * soft, np.inf)
    return float(values.min())


def test_oracle_matches_brute_force(tmp_path):
    net = init_network(2, [dense(1), dense(1), dense(2, activation="none")], seed=4)
    inst = oracle.Instance("brute", net, XS, YS, lam=1.0, epsilon=0.5)
    ref = oracle.reference(inst, str(tmp_path))
    best = _brute_force(net, XS, YS, 1.0, 0.5, np.linspace(0.0, 1.0, 801))
    lower, upper = ref.bracket.lower, ref.bracket.upper
    assert upper - lower <= 1e-7
    assert lower <= best + 1e-9           # no grid point beats the oracle's lower bound
    assert upper <= best + 1e-9           # the oracle is at least as good as the grid
    assert best - upper <= 1e-3           # and the grid comes close to it
    assert best < ref.unpruned - 0.1      # the optimum prunes: not the trivial s = 1 corner
