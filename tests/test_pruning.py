import dataclasses
import functools
import hashlib

import mipprune.pruning
import mipprune.solver

import numpy as np
import pytest

from mipprune.bounds import propagate_batch
from mipprune.datasets import Dataset, balanced_batch, make_dataset, split_dataset
from mipprune.encoding import encode_network
from mipprune.errors import InvalidArgument, ModelFormatError
from mipprune.network import Mask, avgpool, conv, dense, flatten, forward, init_network
from mipprune.pruning import (
    ImportanceReport,
    baselines,
    compare_baselines,
    load_report,
    mask_from_scores,
    prune_fraction,
    save_report,
    score,
    score_classwise,
    sweep,
    transfer,
)
from mipprune.simplex import _CERT_PRIMAL, _DROP_TOL
from mipprune.solver import OA_TOL, SolveConfig, solve_lp
from mipprune.training import TrainConfig, evaluate, train


def small_trained(seed=0, n_classes=3, widths=(6, 4)):
    full = make_dataset("blobs", 24, seed=50 + seed, n_classes=n_classes, dim=2,
                        separation=5.0)
    train_ds, eval_ds = split_dataset(full, 12)
    layers = [dense(w) for w in widths] + [dense(n_classes, activation="none")]
    net = train(init_network(2, layers, seed=seed), train_ds,
                TrainConfig(epochs=80, learning_rate=1e-2, seed=seed)).net
    return net, train_ds, eval_ds


def report_from(scores, lam=5.0, rescale="minus2"):
    return ImportanceReport(
        scores=scores, lam=lam, rescale=rescale, epsilon=0.0, batch_digest="x",
        objective=0.0, gap=0.0, status="optimal", node_count=1, cut_rounds=0, lp_pivots=0,
    )


class TestScore:
    def test_zero_outgoing_neuron_prunable_with_zero_logit_change(self):
        net, train_ds, _ = small_trained(seed=1)
        # sever a layer-2 unit from the logits
        net.layers[2].weight[:, 1] = 0.0
        xs, ys = balanced_batch(train_ds, 1)
        rep = score(net, xs, ys, lam=5.0)
        assert rep.scores[(1, 1)] <= 0.01
        mask = Mask.empty(net)
        mask.bits[1][1] = True
        for k in range(xs.shape[0]):
            a = forward(net, xs[k]).logits
            b = forward(net, xs[k], mask).logits
            assert np.max(np.abs(a - b)) <= 1e-9

    def test_large_lambda_never_prunes_more(self):
        net, train_ds, _ = small_trained(seed=2)
        xs, ys = balanced_batch(train_ds, 1)
        rep5 = score(net, xs, ys, lam=5.0, epsilon=0.2)
        rep1k = score(net, xs, ys, lam=1000.0, epsilon=0.2)
        for thr in (0.1, 0.3, 0.5):
            p5 = prune_fraction(mask_from_scores(rep5, thr))
            p1k = prune_fraction(mask_from_scores(rep1k, thr))
            assert p1k <= p5 + 1e-12

    def test_scoring_twice_identical_bytes(self):
        net, train_ds, _ = small_trained(seed=3)
        xs, ys = balanced_batch(train_ds, 1)
        a = score(net, xs, ys, lam=5.0, epsilon=0.1)
        b = score(net, xs, ys, lam=5.0, epsilon=0.1)
        assert a.to_text() == b.to_text()

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=1)
        xs, ys = np.array([[0.1, 0.2], [0.3, -0.1]]), np.array([0, 1])
        msg = f"lambda must be positive and finite, got {lam}"
        with pytest.raises(InvalidArgument, match=msg):
            score(net, xs, ys, lam=lam)

    def test_imbalanced_batch_needs_flag(self):
        net, train_ds, _ = small_trained(seed=4)
        xs, ys = balanced_batch(train_ds, 1)
        with pytest.raises(InvalidArgument):
            score(net, xs[:2], ys[:2], lam=5.0)
        rep = score(net, xs[:2], ys[:2], lam=5.0, allow_imbalanced=True)
        assert len(rep.scores) == 10

    def test_objective_never_worse_than_no_pruning(self):
        net, train_ds, _ = small_trained(seed=5)
        xs, ys = balanced_batch(train_ds, 1)
        rep = score(net, xs, ys, lam=5.0)
        bounds = propagate_batch(net, xs, 0.0)
        model = encode_network(net, xs, ys, bounds, lam=5.0)
        warm_obj = model.true_objective(model.reference_assignment)
        assert rep.objective <= warm_obj + 1e-12


class TestMaskFromScores:
    def test_nan_threshold_rejected(self):
        rep = report_from({(0, 0): 0.5, (0, 1): 1.0})
        with pytest.raises(InvalidArgument, match="threshold must be a number, got nan"):
            mask_from_scores(rep, float("nan"))

    def test_threshold_zero_masks_nothing(self):
        rep = report_from({(0, 0): 0.0, (0, 1): 0.7})
        assert mask_from_scores(rep, 0.0).is_empty()

    def test_above_one_clamped_with_warning(self):
        rep = report_from({(0, 0): 0.5, (0, 1): 1.0})
        with pytest.warns(UserWarning):
            mask = mask_from_scores(rep, 1.5)
        assert mask.bits[0].tolist() == [True, False]

    def test_masks_exactly_below_threshold(self):
        rep = report_from({(0, 0): 0.01, (0, 1): 0.2, (0, 2): 0.9})
        mask = mask_from_scores(rep, 0.05)
        assert mask.bits[0].tolist() == [True, False, False]

    def test_layer_retention_keeps_top_scorer(self):
        rep = report_from({(0, 0): 0.1, (0, 1): 0.3, (0, 2): 0.2})
        with pytest.warns(UserWarning):
            mask = mask_from_scores(rep, 0.9)
        assert mask.bits[0].tolist() == [True, False, True]


class TestBaselines:
    def test_empty_ours_empty_all(self):
        rep = report_from({(0, 0): 0.9, (0, 1): 0.8})
        out = baselines(rep, 0.1, seed=1)
        assert all(m.is_empty() for m in out.values())

    def test_equal_counts_per_layer(self):
        rng = np.random.default_rng(7)
        scores = {(l, u): float(rng.uniform()) for l in (0, 1) for u in range(6)}
        rep = report_from(scores)
        out = baselines(rep, 0.5, seed=2)
        for layer in (0, 1):
            c = out["ours"].bits[layer].sum()
            assert out["random"].bits[layer].sum() == c
            assert out["critical"].bits[layer].sum() == c

    def test_critical_takes_highest(self):
        rep = report_from({(0, 0): 0.05, (0, 1): 0.95, (0, 2): 0.5})
        out = baselines(rep, 0.1, seed=3)
        assert out["ours"].bits[0].tolist() == [True, False, False]
        assert out["critical"].bits[0].tolist() == [False, True, False]

    def test_compare_baselines_prune_pct_consistent(self):
        net, train_ds, eval_ds = small_trained(seed=6)
        xs, ys = balanced_batch(train_ds, 1)
        rep = score(net, xs, ys, lam=5.0, epsilon=0.2)
        result = compare_baselines(net, train_ds, eval_ds, rep, 0.4, seed=1,
                                   finetune_cfg=TrainConfig(epochs=1, learning_rate=1e-2, seed=0))
        mask = mask_from_scores(rep, 0.4)
        assert result.prune_pct == pytest.approx(100.0 * prune_fraction(mask), abs=1e-12)
        assert set(result.accuracies) == {"ours", "ours_ft", "random", "critical"}


class TestClasswise:
    def test_single_class_modes_agree(self):
        # with one class, averaging per-class solves is the one-model score
        rng = np.random.default_rng(8)
        inputs = rng.normal(size=(6, 2))
        ds = Dataset("one", inputs, np.zeros(6, dtype=np.int64), 1, 0)
        net = init_network(2, [dense(4), dense(3), dense(1, activation="none")], seed=9)
        rep_i = score_classwise(net, ds, lam=5.0)
        rep_s = score(net, *balanced_batch(ds, 1), lam=5.0)
        for key in rep_i.scores:
            assert rep_i.scores[key] == pytest.approx(rep_s.scores[key], abs=1e-9)

    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_only_the_last_class_writes_the_log(self, tmp_path, n_classes):
        """The classes are solved in order and each solve rewrites the log,
        so the file left holds only the last class's solve."""
        if n_classes == 1:
            # blobs needs two classes; one class is the single-class set above
            inputs = np.random.default_rng(8).normal(size=(6, 2))
            train_ds = Dataset("one", inputs, np.zeros(6, dtype=np.int64), 1, 0)
            net = init_network(2, [dense(4), dense(3), dense(1, activation="none")], seed=9)
        else:
            net, train_ds, _ = small_trained(seed=10, n_classes=n_classes)
        xs, ys = balanced_batch(train_ds, 1)
        texts = []
        for c in range(n_classes):
            path = tmp_path / f"class{c}.log"
            score(net, xs[c : c + 1], ys[c : c + 1], lam=5.0, epsilon=0.1,
                  solve_config=SolveConfig(log_path=str(path)), allow_imbalanced=True)
            texts.append(path.read_text())
        log = tmp_path / "solver.log"
        score_classwise(net, train_ds, lam=5.0, epsilon=0.1,
                        solve_config=SolveConfig(log_path=str(log)))
        # every class's solve logs differently, so a match names the last
        assert len(set(texts)) == n_classes
        assert log.read_text() == texts[-1]
        assert log.read_text().count("end status ") == 1
        assert texts[-1].splitlines()[-1].startswith("end status ")


    @pytest.mark.parametrize("statuses, want", [
        (("optimal", "optimal", "optimal"), "optimal"),
        (("optimal", "unverified", "optimal"), "unverified"),
        (("unverified", "limit", "optimal"), "limit"),
    ])
    def test_status_is_the_worst_of_the_classes(self, statuses, want, monkeypatch):
        ds = Dataset("three", np.zeros((3, 2)), np.arange(3, dtype=np.int64), 3, 0)
        it = iter(statuses)
        monkeypatch.setattr(mipprune.pruning, "score", lambda *args, **kwargs: dataclasses.replace(
            report_from({(0, 0): 0.5}), status=next(it)))
        assert score_classwise(None, ds).status == want


class TestTransfer:
    ARCH = [dense(6), dense(4), dense(2, activation="none")]

    def datasets(self):
        src, _ = split_dataset(make_dataset("blobs", 24, seed=70, n_classes=2, dim=2,
                                            separation=5.0), 12)
        full_tgt = make_dataset("moons", 24, seed=71)
        tgt, tgt_eval = split_dataset(full_tgt, 12)
        return src, tgt, tgt_eval

    def test_empty_mask_transfer_bit_deterministic(self):
        src, tgt, tgt_eval = self.datasets()
        cfg = TrainConfig(epochs=60, learning_rate=1e-2, seed=0)
        result = transfer(2, self.ARCH, 0, src, tgt, tgt_eval, 5.0, 0.0, cfg, cfg)
        assert result.prune_pct == 0.0
        assert result.accuracies["ours"] == result.reference_accuracy

    def test_same_source_and_target_consistency(self):
        src, _, _ = self.datasets()
        full = make_dataset("blobs", 24, seed=70, n_classes=2, dim=2, separation=5.0)
        tr, ev = split_dataset(full, 12)
        cfg = TrainConfig(epochs=60, learning_rate=1e-2, seed=0)
        result = transfer(2, self.ARCH, 0, tr, tr, ev, 5.0, 0.3, cfg, cfg, epsilon=0.2)
        # same-distribution retrain stays near the direct masked accuracy
        net = train(init_network(2, self.ARCH, 0), tr, cfg).net
        xs, ys = balanced_batch(tr, 1)
        rep = score(net, xs, ys, lam=5.0, epsilon=0.2)
        masked_acc = evaluate(net, ev, mask_from_scores(rep, 0.3))
        assert abs(result.accuracies["ours"] - masked_acc) <= 0.05

    def test_shape_mismatch_rejected(self):
        src, tgt, tgt_eval = self.datasets()
        cfg = TrainConfig(epochs=5, seed=0)
        with pytest.raises(InvalidArgument):
            transfer(3, [dense(4), dense(2, activation="none")], 0, src, tgt, tgt_eval,
                     5.0, 0.1, cfg, cfg)


class TestSweep:
    def test_single_setting_equals_direct_call(self):
        net, train_ds, eval_ds = small_trained(seed=12)
        xs, ys = balanced_batch(train_ds, 1)
        rows = sweep(net, eval_ds, xs, ys, "lambda", [5.0], threshold=0.3, epsilon=0.1)
        rep = score(net, xs, ys, lam=5.0, epsilon=0.1)
        mask = mask_from_scores(rep, 0.3)
        assert rows[0][1] == pytest.approx(evaluate(net, eval_ds, mask), abs=1e-12)
        assert rows[0][2] == pytest.approx(100.0 * prune_fraction(mask), abs=1e-12)

    def test_threshold_sweep_scores_once(self):
        net, train_ds, eval_ds = small_trained(seed=13)
        xs, ys = balanced_batch(train_ds, 1)
        rows = sweep(net, eval_ds, xs, ys, "threshold", [0.0, 0.5, 0.9], epsilon=0.1)
        assert len(rows) == 3
        pcts = [r[2] for r in rows]
        assert pcts == sorted(pcts)  # higher threshold never prunes less

    def test_empty_values_rejected(self):
        net, train_ds, eval_ds = small_trained(seed=14)
        xs, ys = balanced_batch(train_ds, 1)
        with pytest.raises(InvalidArgument):
            sweep(net, eval_ds, xs, ys, "lambda", [])


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        net, train_ds, _ = small_trained(seed=15)
        xs, ys = balanced_batch(train_ds, 1)
        rep = score(net, xs, ys, lam=5.0)
        save_report(rep, tmp_path / "r.txt")
        loaded = load_report(tmp_path / "r.txt")
        assert loaded.scores == rep.scores
        assert loaded.lam == rep.lam
        assert loaded.to_text() == rep.to_text()

    @pytest.mark.parametrize("edit, line", [
        (lambda ls: ls[:ls.index("scores 2")], 13),                       # no scores line
        (lambda ls: [l for l in ls if not l.startswith("threshold")], 13),  # missing key
        (lambda ls: [l.replace("gap 0.0", "gap abc") for l in ls], 8),     # not a number
        (lambda ls: ls[:-1], 15),                                         # too few scores
        (lambda ls: ls[:-1] + ["1 0 1.0"], 16),                           # unit 0 twice
        (lambda ls: ls[:-1] + ["1 2 1.0"], 16),                           # units 0 and 2
        (lambda ls: ls[:-1] + ["1 1 nan"], 16),                           # non-finite scores
        (lambda ls: ls[:-1] + ["1 1 inf"], 16),
        (lambda ls: ls[:-2] + ["1 0 -inf"] + ls[-1:], 15),
    ], ids=["no-scores-line", "missing-key", "non-numeric", "truncated-scores",
            "duplicate-unit", "unit-gap", "nan-score", "inf-score", "minus-inf-score"])
    def test_malformed_report_names_its_line(self, tmp_path, edit, line):
        text = report_from({(1, 0): 0.25, (1, 1): 1.0}).to_text()
        (tmp_path / "r.txt").write_text("\n".join(edit(text.splitlines())) + "\n")
        with pytest.raises(ModelFormatError) as err:
            load_report(tmp_path / "r.txt")
        assert err.value.line == line

    def test_scores_clamped_into_unit_interval(self):
        net, train_ds, _ = small_trained(seed=16)
        xs, ys = balanced_batch(train_ds, 1)
        rep = score(net, xs, ys, lam=5.0, epsilon=0.3)
        assert all(0.0 <= v <= 1.0 for v in rep.scores.values())


class TestGoldenReports:
    """``score(...).to_text()`` of three benchmark instances, pinned by sha256.

    The instances are built as the score benchmark builds them: the seed-0
    blobs net of its ``dense-1pt`` workload (eps 0.5, 1 point per class) and
    classes 4 and 6 of its ``conv-classwise`` workload (eps 0.05; class 4
    needs 1 cut round, class 6 needs 7).  Any change to the simplex's
    arithmetic (the round-off each pivot drops below ``_DROP_TOL`` among
    it), its pivot choices, the rows the node LP keeps, the cut rows or
    the search moves at least one digest; an alternate optimum within
    ``gap_tol`` is a new digest, and CHANGES.md lists the objectives before
    and after each re-pin.
    """

    DIGESTS = {
        "dense-seed0": "dda1a70fba8ca6f608ab39bd028f7af1e6e1254cf419b37f0a05c22e0f1aca26",
        "conv-class4": "3917b37448bcd9923217768c7882c6db57c2cd69909c4fa1a07e2016ccd63978",
        "conv-class6": "c5c720e6818b47756b7b2a76ba77dd20438d692e185420fee4a2b968417dac56",
    }

    @staticmethod
    @functools.cache
    def dense_instance(seed=0):
        full = make_dataset("blobs", 80, seed=100 + seed, n_classes=4, dim=2, separation=5.0)
        train_ds, _ = split_dataset(full, 40)
        arch = [dense(16), dense(8), dense(4, activation="none")]
        cfg = TrainConfig(epochs=150, learning_rate=1e-2, batch_size=32, optimizer="rmsprop",
                          seed=seed)
        net = train(init_network(2, arch, seed=seed), train_ds, cfg).net
        return net, *balanced_batch(train_ds, 1)

    @staticmethod
    @functools.cache
    def conv_instance():
        full = make_dataset("minidigits", 30, seed=7)
        train_ds, _ = split_dataset(full, 20)
        arch = [conv(2, 3, 3), avgpool(4), flatten(), dense(8), dense(10, activation="none")]
        cfg = TrainConfig(epochs=60, learning_rate=1e-2, optimizer="rmsprop", seed=0)
        net = train(init_network((1, 8, 8), arch, seed=0), train_ds, cfg).net
        return net, *balanced_batch(train_ds, 1)

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_report_digest(self, name):
        if name == "dense-seed0":
            net, xs, ys = self.dense_instance()
            rep = score(net, xs, ys, lam=5.0, epsilon=0.5)
        else:
            c = int(name[-1])
            net, xs, ys = self.conv_instance()
            rep = score(net, xs[c : c + 1], ys[c : c + 1], lam=5.0, epsilon=0.05,
                        allow_imbalanced=True)
        assert hashlib.sha256(rep.to_text().encode()).hexdigest() == self.DIGESTS[name]

    def test_node_lps_start_from_the_carried_tableau(self, monkeypatch):
        """Rebuilding every warm LP's tableau from the all-logical start took
        2,360 refactor pivots on conv class 4.  Every LP after the root now
        starts from the last answer's tableau; only a carried tableau that
        gives up would still rebuild, and none does here.  The root starts at
        the warm incumbent's vertex, and no LP is solved cold.  That vertex's
        basis is triangular: its tableau is built from the all-logical one in
        five elimination levels (conv, pool, dense, logits, epigraph) with no
        bump pivot, where moving it one pivot per column took 92."""
        sols, lps = [], []
        real, real_lp = mipprune.pruning.solve_mip, mipprune.solver.solve_lp

        def recording(*args, **kwargs):
            sols.append(real(*args, **kwargs))
            return sols[-1]

        def recording_lp(*args, **kwargs):
            lps.append(real_lp(*args, **kwargs))
            return lps[-1]

        monkeypatch.setattr(mipprune.pruning, "solve_mip", recording)
        monkeypatch.setattr(mipprune.solver, "solve_lp", recording_lp)
        net, xs, ys = self.conv_instance()
        rep = score(net, xs[4:5], ys[4:5], lam=5.0, epsilon=0.05, allow_imbalanced=True)
        counts = sols[0].lp_counters
        assert len(lps) > 1 and counts.answered == {"vertex": 1, "carried": len(lps) - 1}
        assert lps[0].attempts == [("vertex", None, 0, 5)]
        assert counts.gave_up == {} and counts.uncertified_lps == 0
        assert set(counts.move_pivots) == {"carried"} and counts.elim_levels == {"vertex": 5}
        assert " elim_levels vertex:5 " in sols[0].log_lines[-1]
        assert "elim_levels" not in rep.to_text()

    def test_carried_tableaux_hold_no_round_off(self, monkeypatch):
        """Each pivot sets the entries it leaves below ``_DROP_TOL`` to zero,
        so no node LP's final tableau fills in with round-off.  Before that
        was done in the pivot, one tableau of this search held 18,432
        entries with 0 < |x| < ``_DROP_TOL``."""
        most = []
        real_lp = mipprune.solver.solve_lp

        def counting_lp(*args, **kwargs):
            res = real_lp(*args, **kwargs)
            if res.tableau is not None:  # counted now: the next LP changes it in place
                tiny = np.abs(res.tableau.t)
                most.append(int(np.count_nonzero((tiny > 0.0) & (tiny < _DROP_TOL))))
            return res

        monkeypatch.setattr(mipprune.solver, "solve_lp", counting_lp)
        net, xs, ys = self.conv_instance()
        score(net, xs[4:5], ys[4:5], lam=5.0, epsilon=0.05, allow_imbalanced=True)
        assert len(most) > 1 and max(most) < 100

    def test_no_tableau_crosses_solves(self):
        """Scoring one model right after another in the same thread gives the
        report the second model gets alone."""
        net_a, xs_a, ys_a = self.dense_instance(1)
        net_b, xs_b, ys_b = self.dense_instance(0)
        alone = score(net_b, xs_b, ys_b, lam=5.0, epsilon=0.5).to_text()
        score(net_a, xs_a, ys_a, lam=5.0, epsilon=0.5)
        assert score(net_b, xs_b, ys_b, lam=5.0, epsilon=0.5).to_text() == alone


class TestPresolvedLp:
    """The node LP, without the model's empty rows, checked against the full
    rows on two benchmark models: the dense-1pt seed-0 net and conv class
    8."""

    @staticmethod
    def model(name):
        if name == "dense-seed0":
            (net, xs, ys), eps = TestGoldenReports.dense_instance(), 0.5
        else:
            net, xs, ys = TestGoldenReports.conv_instance()
            xs, ys, eps = xs[8:9], ys[8:9], 0.05
        return encode_network(net, xs, ys, propagate_batch(net, xs, eps), lam=5.0)

    @pytest.mark.parametrize("name", ["dense-seed0", "conv-class8"])
    def test_root_lp_matches_highs_on_the_full_rows(self, name):
        """The root LP as the search solves it, from the warm vertex.  HiGHS
        gives conv class 8's full LP 3.2e-9 above this solver's optimum, with
        or without the empty rows, hence the 1e-8.  The model has no fixed
        binary, and its node LP leaves some empty rows out."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        model = self.model(name)
        lb, ub, c = model.var_arrays()
        binary = model.binary_mask()
        assert model.split_fixed().rows.size < len(model.constraints)
        assert "relu_active" in model.tag and binary.any() and np.all(lb[binary] < ub[binary])
        res = solve_lp(model, point=model.with_exact_lse(model.reference_assignment))
        a, sense, rhs = model.dense_rows()
        le, ge, eq = sense == "L", sense == "G", sense == "E"
        ref = linprog(c, A_ub=np.vstack([a[le], -a[ge]]), b_ub=np.concatenate([rhs[le], -rhs[ge]]),
                      A_eq=a[eq], b_eq=rhs[eq], bounds=list(zip(lb, ub)), method="highs")
        assert ref.status == 0 and res.status == "optimal" and res.certified
        assert res.objective == pytest.approx(ref.fun + model.objective_const, abs=1e-8)

    def test_dropped_rows_hold_at_every_lp_answer(self, monkeypatch):
        """Every row the node LP leaves out holds within ``_CERT_PRIMAL`` at
        every LP answer of the class-8 search, cut rounds included.  The
        node LP's row counts at the start of the search are on the log's
        ``end status`` line, not in the report."""
        answers, sols = [], []
        real, real_lp = mipprune.pruning.solve_mip, mipprune.solver.solve_lp

        def recording(*args, **kwargs):
            sols.append(real(*args, **kwargs))
            return sols[-1]

        def recording_lp(model, *args, **kwargs):
            answers.append((model, real_lp(model, *args, **kwargs)))
            return answers[-1][1]

        monkeypatch.setattr(mipprune.pruning, "solve_mip", recording)
        monkeypatch.setattr(mipprune.solver, "solve_lp", recording_lp)
        net, xs, ys = TestGoldenReports.conv_instance()
        rep = score(net, xs[8:9], ys[8:9], lam=5.0, epsilon=0.05, allow_imbalanced=True)
        model = answers[0][0]
        kept, n_cuts = model.split_fixed().rows, sum(sols[0].oa_cuts.values())
        a, sense, rhs = model.dense_rows()
        rows = np.setdiff1d(np.arange(rhs.size), kept)
        assert rows.size > 0 and n_cuts > 0 and kept[-n_cuts:].tolist() == list(
            range(rhs.size - n_cuts, rhs.size))
        assert (f" lp_rows {kept.size - n_cuts} empty_rows {rows.size}"
                in sols[0].log_lines[-1])
        assert "lp_rows" not in rep.to_text() and "empty_rows" not in rep.to_text()
        points = [res.x for _, res in answers if res.status == "optimal"]
        assert len(points) > 40
        for x in points:
            r = a[rows] @ x - rhs[rows]
            breach = np.where(sense[rows] == "L", r, np.where(sense[rows] == "G", -r, np.abs(r)))
            assert breach.max() <= _CERT_PRIMAL


class TestOracleBracket:
    def test_dense_seed1_objective_inside_highs_bracket(self):
        """The seed-1 net of the benchmark's ``dense-1pt`` workload needs OA cuts,
        and its node LPs once broke their own rows (returning -0.456525).  The
        bracket is the benchmark's HiGHS tangent-cut loop on the same model,
        widened by its tolerance (lam * points * OA_TOL plus 1e-6 relative)."""
        net, xs, ys = TestGoldenReports.dense_instance(1)
        rep = score(net, xs, ys, lam=5.0, epsilon=0.5)
        assert rep.status == "optimal"
        assert -0.4691659224 - 2.1e-5 <= rep.objective <= -0.4691658375 + 2.1e-5

    def test_conv_class8_objective_inside_highs_bracket(self):
        """Class 8 of the benchmark's ``conv-classwise`` workload takes the
        most cut rounds of any benchmark instance (42), and once kept
        'optimal' after a cut-round budget ran out (returning -0.216084).  The
        bracket is the benchmark's HiGHS tangent-cut loop on the same model,
        widened by 6e-6 (lam * points * OA_TOL plus 1e-6 relative)."""
        net, xs, ys = TestGoldenReports.conv_instance()
        rep = score(net, xs[8:9], ys[8:9], lam=5.0, epsilon=0.05, allow_imbalanced=True)
        assert rep.status == "optimal"
        assert -0.216421664249123 - 6e-6 <= rep.objective <= -0.216421569987647 + 6e-6


class TestCutLoop:
    def test_class8_rounds_cut_off_their_lp_points_and_keep_checked_incumbents(
            self, monkeypatch):
        """Conv class 8 needs the most cut rounds of the benchmark (87 with
        tangents at the LP point only).  Each round's exact-epigraph point is a
        feasible incumbent when it is better, and each tangent sits halfway to
        the incumbent where that still cuts the LP point off.  Every round's
        rows cut its LP point off by more than ``OA_TOL``, and every incumbent
        a round takes passes the model's check at its true objective."""
        sols, lps = [], []   # lps: (rows before the LP, its point) per node
        real, real_lp = mipprune.pruning.solve_mip, mipprune.solver.solve_lp

        def recording(model, *args, **kwargs):
            sols.append((model, real(model, *args, **kwargs)))
            return sols[-1][1]

        def recording_lp(model, *args, **kwargs):
            rows = len(model.constraints)
            res = real_lp(model, *args, **kwargs)
            lps.append((rows, res.x))
            return res

        monkeypatch.setattr(mipprune.pruning, "solve_mip", recording)
        monkeypatch.setattr(mipprune.solver, "solve_lp", recording_lp)
        net, xs, ys = TestGoldenReports.conv_instance()
        rep = score(net, xs[8:9], ys[8:9], lam=5.0, epsilon=0.05, allow_imbalanced=True)
        (model, sol), = sols
        assert sol.cut_rounds == rep.cut_rounds < 60
        *nodes, end = sol.log_lines
        assert len(nodes) == len(lps) == sol.node_count
        a, _, rhs = model.dense_rows()
        ends = [rows for rows, _ in lps[1:]] + [len(rhs)]
        incumbent = model.true_objective(model.reference_assignment)
        rounds = taken = 0
        for line, (first, x), last in zip(nodes, lps, ends):
            new_incumbent = float(line.split()[5])
            if line.endswith("cut-round"):
                rounds += 1
                assert last > first
                assert np.all(rhs[first:last] - a[first:last] @ x > OA_TOL)
                if new_incumbent < incumbent:
                    taken += 1
                    point = model.with_exact_lse(x)
                    assert model.check_assignment(point) == []
                    assert model.objective_value(point) == model.true_objective(point)
                    assert model.objective_value(point) == new_incumbent
            else:
                assert last == first
            incumbent = new_incumbent
        assert rounds == sol.cut_rounds
        assert 0 < taken == sol.cut_incumbents
        assert sum(sol.oa_cuts.values()) == len(rhs) - lps[0][0]
        assert (f"cut_incumbents {taken} oa_cuts inout:{sol.oa_cuts['inout']},"
                f"lp:{sol.oa_cuts['lp']} ") in end
        assert "cut_incumbents" not in rep.to_text() and "oa_cuts" not in rep.to_text()
