"""Acceptance suite: one test per criterion, each ending in a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 6-10 share one battery of trained networks (module cache);
criterion 12 rebuilds everything from scratch and byte-compares the reports.
"""

import time
from itertools import combinations, product

import numpy as np
import pytest

import mipprune.solver
from mipprune.bounds import check_soundness, propagate_batch
from mipprune.datasets import balanced_batch, make_dataset, split_dataset
from mipprune.encoding import MipModel, encode_maxpool, encode_network
from mipprune.linalg import ConvSpec, conv_to_matrix, matvec
from mipprune.network import avgpool, conv, dense, flatten, forward, init_network
from mipprune.pruning import (
    ImportanceReport,
    baselines,
    compare_baselines,
    mask_from_scores,
    prune_fraction,
    score,
    score_classwise,
    transfer,
)
from mipprune.simplex import LinearProgram, solve_lp_arrays
from mipprune.solver import SolveConfig, solve_lp, solve_mip
from mipprune.training import TrainConfig, evaluate, loss_and_grads, train

# criterion-6 experimental settings, shared by criteria 6-10 and 12
N_SEEDS = 5
DATA = dict(name="blobs", n_per_class=80, n_classes=4, dim=2, separation=5.0)
TRAIN = dict(epochs=150, learning_rate=1e-2, batch_size=32, optimizer="rmsprop")
ARCH = [dense(16), dense(8), dense(4, activation="none")]
LAMBDA = 5.0
EPSILON = 0.5
THRESH_GRID = [round(0.02 * i, 2) for i in range(1, 49)]

_CACHE: dict = {}


def crit6_setup(seed: int):
    key = ("setup", seed)
    if key not in _CACHE:
        full = make_dataset(DATA["name"], DATA["n_per_class"], seed=100 + seed,
                            n_classes=DATA["n_classes"], dim=DATA["dim"],
                            separation=DATA["separation"])
        train_ds, eval_ds = split_dataset(full, DATA["n_per_class"] // 2)
        net = train(init_network(DATA["dim"], ARCH, seed=seed), train_ds,
                    TrainConfig(seed=seed, **TRAIN)).net
        _CACHE[key] = (net, train_ds, eval_ds)
    return _CACHE[key]


def crit6_report(seed: int, lam: float = LAMBDA, rescale: str = "minus2"):
    key = ("report", seed, lam, rescale)
    if key not in _CACHE:
        net, train_ds, _ = crit6_setup(seed)
        xs, ys = balanced_batch(train_ds, 1)
        _CACHE[key] = score(net, xs, ys, lam=lam, epsilon=EPSILON, rescale=rescale)
    return _CACHE[key]


def window_threshold(report: ImportanceReport):
    values = np.array(sorted(report.scores.values()))
    for t in THRESH_GRID:
        if 0.10 <= float((values < t).mean()) <= 0.40:
            return t
    return None


def random_small_net(rng, with_conv: bool):
    if with_conv:
        side = int(rng.integers(3, 5))
        layers = [conv(int(rng.integers(1, 3)), 2, 2), avgpool(side - 1), flatten(),
                  dense(int(rng.integers(2, 4)), activation="none")]
        shape = (1, side, side)
    else:
        widths = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3)))]
        layers = [dense(w) for w in widths] + [dense(int(rng.integers(2, 5)), activation="none")]
        shape = int(rng.integers(2, 5))
    return init_network(shape, layers, seed=int(rng.integers(0, 2**31)))


class TestCriterion01EncodingFidelity:
    def test_forward_assignment_feasible_and_reproduces_logits(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1001)
        for trial in range(20):
            net = random_small_net(rng, with_conv=trial % 3 == 0)
            n_points = int(rng.integers(1, 5))
            xs = rng.normal(size=(n_points, net.input_size))
            ys = rng.integers(0, net.n_classes, size=n_points)
            bounds = propagate_batch(net, xs, 0.0)
            model = encode_network(net, xs, ys, bounds, lam=LAMBDA)
            assert model.check_assignment(model.reference_assignment, tol=1e-9) == []
            for k in range(n_points):
                got = np.array([model.reference_assignment[j] for j in model.logit_vars[k]])
                want = forward(net, xs[k]).logits
                assert np.max(np.abs(got - want)) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        print(f"criterion 1 PASS: 20 nets encoding-faithful ({elapsed:.1f}s)")


def vertex_enumeration(lp):
    n = lp.n
    planes = [(lp.a[i], lp.rhs[i]) for i in range(lp.m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lb[j]):
            planes.append((e.copy(), lp.lb[j]))
        if np.isfinite(lp.ub[j]):
            planes.append((e.copy(), lp.ub[j]))
    best = None
    for subset in combinations(range(len(planes)), n):
        a = np.array([planes[i][0] for i in subset])
        b = np.array([planes[i][1] for i in subset])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < lp.lb - 1e-9) or np.any(x > lp.ub + 1e-9):
            continue
        lhs = lp.a @ x
        ok = True
        for i in range(lp.m):
            if lp.sense[i] == "L" and lhs[i] > lp.rhs[i] + 1e-9:
                ok = False
            elif lp.sense[i] == "G" and lhs[i] < lp.rhs[i] - 1e-9:
                ok = False
            elif lp.sense[i] == "E" and abs(lhs[i] - lp.rhs[i]) > 1e-9:
                ok = False
        if not ok:
            continue
        val = float(lp.c @ x)
        if best is None or val < best:
            best = val
    return best


def array_model(c, a, sense, rhs, lb, ub, binary_mask):
    model = MipModel()
    for j in range(len(c)):
        model.add_var(f"z_0_{j}_0" if binary_mask[j] else f"h_0_{j}_0",
                      "z" if binary_mask[j] else "h", lb[j], ub[j],
                      binary=bool(binary_mask[j]))
        if c[j]:
            model.add_objective_term(j, float(c[j]))
    for i in range(len(rhs)):
        coefs = {j: float(a[i][j]) for j in range(len(c)) if a[i][j]}
        model.add_constraint(coefs, sense[i], float(rhs[i]), f"row{i}")
    return model


class TestCriterion02SolverExactness:
    def test_milps_match_enumeration_and_lps_match_vertices(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2002)
        for trial in range(50):
            nb = 12 if trial < 2 else int(rng.integers(2, 10))
            nc = int(rng.integers(1, 14))
            n, m = nb + nc, int(rng.integers(1, 7))
            c = rng.normal(size=n).round(3)
            a = rng.normal(size=(m, n)).round(3)
            x0 = np.concatenate([rng.integers(0, 2, nb).astype(float),
                                 rng.uniform(0, 1, nc)])
            sense = rng.choice(["L", "G"], size=m)
            slack = rng.uniform(0.1, 2.0, size=m)
            rhs = a @ x0 + np.where(sense == "L", slack, -slack)
            lb = np.concatenate([np.zeros(nb), np.full(nc, -2.0)])
            ub = np.concatenate([np.ones(nb), np.full(nc, 2.0)])
            model = array_model(c, a, sense, rhs, lb, ub, [True] * nb + [False] * nc)
            best = None
            for bits in product((0.0, 1.0), repeat=nb):
                res = solve_lp(model, dict(zip(range(nb), bits)))
                if res.status == "optimal" and (best is None or res.objective < best):
                    best = res.objective
            sol = solve_mip(model, SolveConfig())
            assert sol.objective == pytest.approx(best, abs=1e-6)

        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 9))
            c = rng.normal(size=n)
            a = rng.normal(size=(m, n))
            x0 = rng.uniform(-1, 1, size=n)
            sense = rng.choice(["L", "G", "E"], size=m, p=[0.45, 0.45, 0.1])
            slack = rng.uniform(0.0, 1.0, size=m)
            rhs = a @ x0 + np.where(sense == "L", slack,
                                    np.where(sense == "G", -slack, 0.0))
            lp = LinearProgram(c=c, a=a, sense=np.asarray(sense, dtype="U1"), rhs=rhs,
                               lb=x0 - rng.uniform(0.2, 2.0, size=n),
                               ub=x0 + rng.uniform(0.2, 2.0, size=n))
            want = vertex_enumeration(lp)
            if want is None:
                continue
            got = solve_lp_arrays(lp)
            assert got.status == "optimal"
            assert got.objective == pytest.approx(want, abs=1e-7)
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        print(f"criterion 2 PASS: 50 MILPs + 200 LPs match enumeration ({elapsed:.1f}s)")


class TestCriterion03BoundSoundness:
    def test_no_sampled_violations(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3003)
        for trial in range(20):
            net = random_small_net(rng, with_conv=trial % 4 == 0)
            x = rng.normal(size=net.input_size)
            for eps in (0.0, 0.05):
                assert check_soundness(net, x, eps, 1000, seed=trial) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        print(f"criterion 3 PASS: 0 violations over 20 nets x 2 eps x 1000 samples ({elapsed:.1f}s)")


class TestCriterion04Toeplitz:
    def test_lowering_equals_direct_convolution(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(4004)
        for _ in range(200):
            h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            kh, kw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
            pad = int(rng.integers(0, 3))
            spec = ConvSpec(1, 1, kh, kw, h, w, padding=pad)
            kern = rng.normal(size=(1, 1, kh, kw))
            m = conv_to_matrix(kern, spec)
            x = rng.normal(size=(h, w))
            got = matvec(m, x.ravel())
            xp = np.zeros((h + 2 * pad, w + 2 * pad))
            xp[pad : pad + h, pad : pad + w] = x
            want = np.zeros((spec.output_h, spec.output_w))
            for r in range(spec.output_h):
                for cc in range(spec.output_w):
                    acc = 0.0
                    for p in range(kh):
                        for q in range(kw):
                            acc += kern[0, 0, p, q] * xp[r + kh - 1 - p, cc + kw - 1 - q]
                    want[r, cc] = acc
            assert np.max(np.abs(got - want.ravel())) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        print(f"criterion 4 PASS: 200 lowerings match direct convolution ({elapsed:.1f}s)")


class TestCriterion05MaxpoolEncoding:
    def test_mip_optimum_equals_arithmetic_max(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(5005)
        for _ in range(200):
            width = int(rng.integers(2, 5))
            vals = rng.uniform(0.0, 5.0, size=width)
            model = MipModel()
            in_vars = [model.add_var(f"h_0_{j}_0", "h", v, v) for j, v in enumerate(vals)]
            uppers = (vals + rng.uniform(0.0, 1.0, size=width)).tolist()
            out, _, _ = encode_maxpool(model, in_vars, uppers, 1, 0, 0)
            model.add_objective_term(out, 1.0)
            sol = solve_mip(model, SolveConfig())
            assert sol.values[out] == pytest.approx(float(vals.max()), abs=1e-7)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        print(f"criterion 5 PASS: 200 pooled optima equal max ({elapsed:.1f}s)")


class TestCriterion06PruningOrder:
    def test_strategy_ordering_at_desk_scale(self):
        refs, ours, rand, crit = [], [], [], []
        for seed in range(N_SEEDS):
            net, train_ds, eval_ds = crit6_setup(seed)
            assert evaluate(net, train_ds) >= 0.95
            report = crit6_report(seed)
            assert report.wall_time < 60.0
            thr = window_threshold(report)
            assert thr is not None, "no threshold prunes 10-40%"
            result = compare_baselines(net, train_ds, eval_ds, report, thr, seed=seed)
            assert 10.0 <= result.prune_pct <= 40.0
            refs.append(result.reference_accuracy)
            ours.append(result.accuracies["ours"])
            rand.append(result.accuracies["random"])
            crit.append(result.accuracies["critical"])
        m_ours, m_rand, m_crit = np.mean(ours), np.mean(rand), np.mean(crit)
        assert m_ours >= m_rand + 0.02
        assert m_rand >= m_crit
        assert m_ours >= np.mean(refs) - 0.05
        print(
            f"criterion 6 PASS: ref {np.mean(refs):.3f} ours {m_ours:.3f} "
            f"random {m_rand:.3f} critical {m_crit:.3f}"
        )


class TestCriterion07LambdaDirection:
    def test_prune_pct_nonincreasing_in_lambda(self):
        t0 = time.perf_counter()
        lams = [0.5, 1.0, 5.0, 25.0]
        pcts = []
        for lam in lams:
            report = crit6_report(0, lam=lam)
            mask = mask_from_scores(report, 0.3)
            pcts.append(100.0 * prune_fraction(mask))
        if np.allclose(pcts, pcts[0]):
            rho = 0.0  # a flat response is (weakly) non-increasing
        else:
            from scipy.stats import spearmanr

            rho = float(spearmanr(lams, pcts).statistic)
        assert rho <= 0.0 + 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        print(f"criterion 7 PASS: prune% over lambda {pcts}, spearman {rho:.2f} ({elapsed:.1f}s)")


class TestCriterion08RescalingDirection:
    def test_offset_minus2_prunes_at_least_as_much(self):
        t0 = time.perf_counter()
        pct2, pct0 = [], []
        for seed in range(N_SEEDS):
            for rescale, out in (("minus2", pct2), ("none", pct0)):
                report = crit6_report(seed, rescale=rescale)
                mask = mask_from_scores(report, 0.05)
                out.append(100.0 * prune_fraction(mask))
        assert np.mean(pct2) >= np.mean(pct0) - 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        print(
            f"criterion 8 PASS: prune% minus2 {np.mean(pct2):.1f} >= none {np.mean(pct0):.1f} "
            f"({elapsed:.1f}s)"
        )

    def test_rescale_none_lps_answered_without_giving_up(self, monkeypatch):
        """The seed-1 'none' solve answers every LP without a give-up, and
        every answer passes its check.  Its long degenerate runs came from
        the stable active units' 'L'/'G' row pairs, which the encoder now
        writes as one 'E' row each, so the guard on Bland's rule replays the
        search's LPs on the model's rows with each such row split back into
        its pair: each LP fresh from the replayed answer
        of the LP its node's basis came from, the root from the warm vertex.
        Some of those still leave a degenerate run by Bland's rule, and each
        answer has the search's objective."""
        net, train_ds, _ = crit6_setup(1)
        xs, ys = balanced_batch(train_ds, 1)
        model = encode_network(net, xs, ys, propagate_batch(net, xs, EPSILON), lam=LAMBDA,
                               rescale="none")
        calls, made, real = [], {}, mipprune.solver.solve_lp

        def recording(model, fixings=None, basis=None, tableau=None, point=None):
            res = real(model, fixings, basis, tableau, point)
            parent = None if basis is None else made[id(basis)]
            calls.append((dict(fixings or {}), parent, len(model.constraints), res))
            made[id(res.basis)] = len(calls) - 1
            return res

        monkeypatch.setattr(mipprune.solver, "solve_lp", recording)
        sol = solve_mip(model, SolveConfig(), warm=model.reference_assignment)
        counts = sol.lp_counters
        assert not counts.gave_up
        assert counts.uncertified_lps == 0
        assert sol.objective == crit6_report(1, rescale="none").objective

        a, sense, rhs = model.dense_rows()
        # each 'relu_active' row twice in a row, first as 'L', then as 'G'
        order = np.sort(np.concatenate([np.arange(rhs.size),
                                        np.flatnonzero(np.array(model.tag) == "relu_active")]))
        twin = order[1:] == order[:-1]
        assert twin.sum() > 0
        a, sense, rhs = a[order], sense[order], rhs[order]
        sense[np.flatnonzero(twin)], sense[np.flatnonzero(twin) + 1] = "L", "G"
        lb0, ub0, c = model.var_arrays()
        replayed, switches = [], 0
        for fixings, parent, m, res in calls:
            m = int(np.searchsorted(order, m))  # the rows of the LP's model rows
            lb, ub = lb0.copy(), ub0.copy()
            for j, val in fixings.items():
                lb[j] = ub[j] = val
            lp = LinearProgram(c, a[:m], sense[:m], rhs[:m], lb, ub, model.objective_const)
            if parent is None:
                full = solve_lp_arrays(lp, point=model.reference_assignment)
            else:
                full = solve_lp_arrays(lp, replayed[parent].basis)
            replayed.append(full)
            switches += full.bland_switches
            assert full.status == res.status and full.certified
            if res.status == "optimal":
                assert full.objective == pytest.approx(res.objective, abs=1e-7)
        assert len(calls) > 1 and switches > 0


class TestCriterion09ClassByClass:
    # at threshold 0.5 some layers keep only their top scorer
    @pytest.mark.filterwarnings("ignore:.*would mask every unit:UserWarning")
    def test_independent_vs_simultaneous(self):
        t0 = time.perf_counter()
        small_thr, large_thr = 0.05, 0.5
        acc_i, acc_s, pp_i, pp_s = [], [], [], []
        for seed in range(N_SEEDS):
            net, train_ds, eval_ds = crit6_setup(seed)
            rep_i, rep_s = classwise_reports(seed)
            acc_i.append(evaluate(net, eval_ds, mask_from_scores(rep_i, small_thr)))
            acc_s.append(evaluate(net, eval_ds, mask_from_scores(rep_s, small_thr)))
            pp_i.append(prune_fraction(mask_from_scores(rep_i, large_thr)))
            pp_s.append(prune_fraction(mask_from_scores(rep_s, large_thr)))
        assert abs(np.mean(acc_i) - np.mean(acc_s)) <= 0.03
        assert np.mean(pp_i) >= np.mean(pp_s) - 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        print(
            f"criterion 9 PASS: |idp-sim| {abs(np.mean(acc_i)-np.mean(acc_s)):.3f}, "
            f"idp prune {100*np.mean(pp_i):.0f}% >= sim {100*np.mean(pp_s):.0f}% ({elapsed:.1f}s)"
        )


def classwise_reports(seed: int):
    key = ("classwise", seed)
    if key not in _CACHE:
        net, train_ds, _ = crit6_setup(seed)
        _CACHE[key] = (
            score_classwise(net, train_ds, lam=LAMBDA, epsilon=EPSILON),
            score(net, *balanced_batch(train_ds, 1), lam=LAMBDA, epsilon=EPSILON),
        )
    return _CACHE[key]


TRANSFER_ARCH = [dense(16), dense(8), dense(2, activation="none")]
TRANSFER_CFG = dict(epochs=150, learning_rate=1e-2, batch_size=32, optimizer="rmsprop")


def run_transfer():
    full_src = make_dataset("blobs", 80, seed=300, n_classes=2, dim=2, separation=5.0)
    src, _ = split_dataset(full_src, 40)
    full_tgt = make_dataset("moons", 80, seed=301)
    tgt, tgt_eval = split_dataset(full_tgt, 40)
    cfg = TrainConfig(seed=0, **TRANSFER_CFG)
    return transfer(2, TRANSFER_ARCH, 0, src, tgt, tgt_eval, LAMBDA, 0.5, cfg, cfg,
                    epsilon=EPSILON)


class TestCriterion10Transfer:
    def test_mask_transfer_within_five_points(self):
        t0 = time.perf_counter()
        result = _CACHE.setdefault("transfer", run_transfer())
        assert result.prune_pct >= 10.0
        assert abs(result.accuracies["ours"] - result.reference_accuracy) <= 0.05
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        print(
            f"criterion 10 PASS: masked {result.accuracies['ours']:.3f} vs "
            f"ref {result.reference_accuracy:.3f} at {result.prune_pct:.0f}% pruning ({elapsed:.1f}s)"
        )


class TestCriterion11GradientCheck:
    def test_backprop_matches_central_differences(self):
        from gradcheck import finite_difference_grads, rel_err

        t0 = time.perf_counter()
        rng = np.random.default_rng(1111)
        nets = [
            init_network(3, [dense(4), dense(3, activation="none")], seed=1),
            init_network((1, 3, 3), [conv(2, 2, 2), avgpool(2), flatten(),
                                     dense(3, activation="none")], seed=2),
        ]
        for net in nets:
            x = rng.normal(size=(4, net.input_size))
            y = rng.integers(0, net.n_classes, size=4)
            _, got = loss_and_grads(net, x, y)
            want = finite_difference_grads(net, x, y)
            for (gw, gb), (fw, fb) in zip(got, want):
                assert rel_err(gw, fw) <= 1e-4
                assert rel_err(gb, fb) <= 1e-4
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        print(f"criterion 11 PASS: gradients match finite differences ({elapsed:.1f}s)")


class TestCriterion12Determinism:
    def test_repeat_runs_byte_identical(self):
        t0 = time.perf_counter()
        # criterion 6/7/8 reports: fresh recomputation must reproduce the cache
        for seed in range(N_SEEDS):
            net, train_ds, _ = crit6_setup(seed)
            xs, ys = balanced_batch(train_ds, 1)
            again = score(net, xs, ys, lam=LAMBDA, epsilon=EPSILON)
            assert again.to_text() == crit6_report(seed).to_text()
        again = score(crit6_setup(0)[0], *balanced_batch(crit6_setup(0)[1], 1),
                      lam=0.5, epsilon=EPSILON)
        assert again.to_text() == crit6_report(0, lam=0.5).to_text()
        again = score(crit6_setup(0)[0], *balanced_batch(crit6_setup(0)[1], 1),
                      lam=LAMBDA, epsilon=EPSILON, rescale="none")
        assert again.to_text() == crit6_report(0, rescale="none").to_text()
        # criterion 9 classwise reports
        net, train_ds, _ = crit6_setup(0)
        rep_i, rep_s = classwise_reports(0)
        assert score_classwise(net, train_ds, lam=LAMBDA,
                               epsilon=EPSILON).to_text() == rep_i.to_text()
        assert score(net, *balanced_batch(train_ds, 1), lam=LAMBDA,
                     epsilon=EPSILON).to_text() == rep_s.to_text()
        # criterion 10 transfer result, end to end
        assert run_transfer().to_text() == _CACHE["transfer"].to_text()
        # and retraining itself is bit-stable
        net2, _, _ = crit6_setup(0)
        fresh = train(init_network(DATA["dim"], ARCH, seed=0),
                      split_dataset(make_dataset(DATA["name"], DATA["n_per_class"],
                                                 seed=100, n_classes=DATA["n_classes"],
                                                 dim=DATA["dim"],
                                                 separation=DATA["separation"]),
                                    DATA["n_per_class"] // 2)[0],
                      TrainConfig(seed=0, **TRAIN)).net
        for a, b in zip(net2.layers, fresh.layers):
            assert a.weight.tobytes() == b.weight.tobytes()
        elapsed = time.perf_counter() - t0
        print(f"criterion 12 PASS: reruns byte-identical ({elapsed:.1f}s)")
