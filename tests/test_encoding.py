import hashlib

import numpy as np
import pytest
import test_lpformat
import test_pruning

import mipprune.network
from mipprune.bounds import propagate_batch
from mipprune.encoding import (
    MipModel,
    VarRef,
    _affine_constants,
    add_lse_cut,
    encode_maxpool,
    encode_network,
    log_sum_exp,
    softmax_probs,
)
from mipprune.errors import InvalidArgument
from mipprune.linalg import conv_to_matrix
from mipprune.lpformat import write_lp
from mipprune.network import avgpool, build_network, conv, dense, flatten, forward, init_network, maxpool
from mipprune.simplex import LinearProgram, solve_lp_arrays
from mipprune.solver import SolveConfig, solve_lp, solve_mip


def tiny_net(seed=0):
    return init_network(2, [dense(2), dense(2, activation="none")], seed=seed)


def encoded(net, xs, ys, lam=5.0, rescale="minus2", eps=0.0):
    bounds = propagate_batch(net, np.asarray(xs, dtype=np.float64), eps)
    return encode_network(net, np.asarray(xs, dtype=np.float64),
                          np.asarray(ys, dtype=np.int64), bounds, lam=lam, rescale=rescale)


class TestVariableCounts:
    def test_one_point_two_neurons_two_logits(self):
        model = encoded(tiny_net(), [[0.5, -0.3]], [1])
        kinds = {}
        for v in model.variables:
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
        assert kinds["h"] == 4          # 2 hidden + 2 logits, input folded as constants
        assert kinds.get("z", 0) == 0   # eps 0 decides every unit
        assert kinds["s"] == 2          # logit head is not prunable
        assert kinds.get("m", 0) == 0
        assert kinds["t_lse"] == 1
        assert kinds["t_min"] == 1

    def test_only_unstable_units_get_a_binary(self, tmp_path):
        """A ReLU unit has a ``z`` exactly when its bounds leave it unstable
        (L < 0 < U), right after its ``h``, and a stable inactive one (U <= 0)
        has neither; so every binary is free, and the LP file lists exactly
        those.  On a net where both hidden layers have unstable, stable
        active and stable inactive units, and on the benchmark's dense-1pt
        seed-0 model (88 of 96 units stable, 45 of them inactive)."""
        net = init_network(2, [dense(6), dense(5), dense(3, activation="none")], seed=4)
        xs = np.array([[0.4, -0.2], [-0.7, 0.3]])
        model = encoded(net, xs, [0, 2], eps=0.2)
        bounds = propagate_batch(net, xs, 0.2)
        ids = {v.name: v.idx for v in model.variables}
        states = set()
        for k in range(2):
            for l in range(2):
                for j, (lo, hi) in enumerate(zip(bounds[k].pre_lo[l], bounds[k].pre_hi[l])):
                    state = "active" if lo >= 0.0 < hi else "inactive" if hi <= 0.0 else "unstable"
                    states.add((l, state))
                    if state == "inactive":
                        assert f"h_{l}_{j}_{k}" not in ids and f"z_{l}_{j}_{k}" not in ids
                        continue
                    h = ids[f"h_{l}_{j}_{k}"]
                    if state == "unstable":
                        assert ids[f"z_{l}_{j}_{k}"] == h + 1
                    else:
                        assert f"z_{l}_{j}_{k}" not in ids
        assert states == {(l, s) for l in range(2) for s in ("active", "inactive", "unstable")}
        lb, ub, _ = model.var_arrays()
        binary = model.binary_mask()
        assert binary.any() and np.all(lb[binary] < ub[binary])
        write_lp(model, tmp_path / "m.lp")
        listed = (tmp_path / "m.lp").read_text().split("Binaries\n")[1].split("End")[0].split()
        assert listed == [model.variables[j].name for j in np.flatnonzero(binary & (lb < ub))]
        net, xs, ys = test_pruning.TestGoldenReports.dense_instance()
        model = encode_network(net, xs, ys, propagate_batch(net, xs, 0.5), lam=5.0)
        lb, ub, _ = model.var_arrays()
        binary = model.binary_mask()
        assert (len(model.variables), int(binary.sum())) == (104, 8)
        assert np.all(lb[binary] < ub[binary])

    def test_lambda_must_be_positive(self):
        with pytest.raises(InvalidArgument):
            encoded(tiny_net(), [[0.0, 0.0]], [0], lam=0.0)

    def test_bounds_must_cover_batch(self):
        net = tiny_net()
        xs = np.zeros((2, 2))
        bounds = propagate_batch(net, xs[:1], 0.0)
        with pytest.raises(InvalidArgument):
            encode_network(net, xs, np.array([0, 1]), bounds)


class TestReluConstraintAlgebra:
    def test_s_equal_one_recovers_plain_big_m(self):
        """At s = 1 each first-layer row is the plain big-M row of its unit,
        found through the row's own ``h`` (the row's last 'h' entry).  The
        inactive unit is the constant 0: no ``h``, and its rows, with no
        variable left, are not written."""
        net = tiny_net(seed=3)
        x = np.array([[0.7, 0.2]])
        model = encoded(net, x, [0])
        bounds = propagate_batch(net, x, 0.0)[0]
        w, b = net.layers[0].weight, net.layers[0].bias
        seen = []
        for i in model.constraints:
            h = [model.variables[j] for j in model.row(i) if model.variables[j].kind == "h"]
            if not model.tag[i].startswith("relu_") or h[-1].layer != 0:
                continue
            j = h[-1].unit
            coefs, psum = model.row(i), float(w[j] @ x[0] + b[j])
            s_idx = model.s_vars[(0, j)]
            rhs_at_s1 = model.rhs[i] - coefs.get(s_idx, 0.0) * 1.0
            if model.tag[i] != "relu_cap":
                assert coefs.get(s_idx, 0.0) == pytest.approx(-max(bounds.pre_hi[0][j], 0.0))
            seen.append((j, model.tag[i]))
            if model.tag[i] == "relu_upper_on":
                # h + (1-z) L <= w x + b, i.e. h - L z <= w x + b - L
                assert rhs_at_s1 == pytest.approx(psum - bounds.pre_lo[0][j], abs=1e-12)
            elif model.tag[i] in ("relu_lower_on", "relu_active"):
                # h >= w x + b, or h = w x + b for a stable active unit
                assert rhs_at_s1 == pytest.approx(psum, abs=1e-12)
        # an inactive unit (no variable, no row) and an active one (one 'E' row)
        assert bounds.pre_hi[0][0] <= 0.0 < bounds.pre_lo[0][1]
        assert "h_0_0_0" not in {v.name for v in model.variables}
        assert sorted(seen) == [(1, "relu_active")]

    def test_each_unit_writes_the_rows_of_its_state(self):
        """Rebuilt unit by unit from the weights and bounds, the ReLU rows in
        order by tag, sense, entries and rhs bits: an unstable unit (L < 0 <
        U) has its upper, cap and lower rows, a stable active one (L >= 0 <
        U) only the lower row as an equality, tagged 'relu_active', and a
        stable inactive one (U <= 0) is the constant 0, with no ``h``: its
        upper and lower rows keep their entries on the previous layer's
        variables, and a row left with none is not written, its constant
        holding.  Only an unstable unit has a ``z``."""
        net = init_network(2, [dense(6), dense(5), dense(3, activation="none")], seed=4)
        xs = np.array([[0.4, -0.2], [-0.7, 0.3]])
        model = encoded(net, xs, [0, 2], eps=0.2)
        bounds = propagate_batch(net, xs, 0.2)
        ids = {v.name: v.idx for v in model.variables}
        got = [(model.tag[i], model.sense[i], model.row(i), model.rhs[i].hex())
               for i in model.constraints if model.tag[i].startswith("relu_")]
        want, states = [], set()
        for k, l in ((k, l) for k in range(2) for l in range(2)):
            weight, bias = net.layers[l].weight, net.layers[l].bias
            for j in range(weight.shape[0]):
                lo, hi = bounds[k].pre_lo[l][j], bounds[k].pre_hi[l][j]
                max_u, h, z = max(hi, 0.0), ids.get(f"h_{l}_{j}_{k}"), ids.get(f"z_{l}_{j}_{k}")
                pc, prev = float(bias[j]), {}
                for i, wi in enumerate(weight[j].tolist()):
                    if wi != 0.0 and l == 0:
                        pc = pc + wi * float(xs[k][i])
                    elif wi != 0.0 and f"h_0_{i}_{k}" in ids:
                        prev[ids[f"h_0_{i}_{k}"]] = -wi
                damped = {**prev, model.s_vars[(l, j)]: -max_u}
                upper_rhs = (pc - lo) - max_u + 0.0
                lower_rhs = pc - max_u + 0.0
                if lo >= 0.0 < hi:
                    rows, state = [("relu_active", "E", {h: 1.0, **damped}, lower_rhs)], "active"
                elif hi <= 0.0:
                    rows = [("relu_upper_on", "L", damped, upper_rhs),
                            ("relu_lower_on", "G", dict(damped), lower_rhs)]
                    state = "inactive"
                else:
                    rows = [("relu_upper_on", "L", {h: 1.0, **damped, z: -lo}, upper_rhs),
                            ("relu_cap", "L", {h: 1.0, z: -hi}, 0.0),
                            ("relu_lower_on", "G", {h: 1.0, **damped}, lower_rhs)]
                    state = "unstable"
                assert (h is None) == (state == "inactive"), (k, l, j)
                assert (z is None) == (state != "unstable"), (k, l, j)
                for tag, sense, coefs, rhs in rows:
                    for key in [key for key, val in coefs.items() if val == 0.0]:
                        del coefs[key]  # zero coefficients are not stored
                    if coefs:
                        want.append((tag, sense, coefs, rhs.hex()))
                    else:
                        assert (rhs >= 0.0) if sense == "L" else (rhs <= 0.0)
                states.add((l, state))
        assert got == want
        assert states == {(l, s) for l in range(2) for s in ("active", "inactive", "unstable")}

    def test_dead_neuron_admits_zero_score(self):
        # force one hidden neuron dead: large negative bias
        w1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        b1 = np.array([0.0, 0.0, -100.0])
        w2 = np.random.default_rng(1).normal(size=(2, 3))
        net = build_network(2, [dense(3), dense(2, activation="none")],
                            params=[(w1, b1), (w2, np.zeros(2))])
        xs = np.array([[0.4, 0.6], [0.2, -0.1]])
        model = encoded(net, xs, [0, 1])
        ref = model.reference_assignment.copy()
        dead_s = model.s_vars[(0, 2)]
        ref[dead_s] = 0.0
        # t_min is an epigraph helper: keep it consistent with the new scores
        t_min = next(v.idx for v in model.variables if v.kind == "t_min")
        offset = -2.0
        ref[t_min] = min(
            sum(ref[model.s_vars[(layer, u)]] + offset for u in range(n))
            for layer, n in model.prunable
        )
        assert model.check_assignment(ref) == []

    def test_reference_assignment_feasible_and_matches_logits(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            net = init_network(3, [dense(4), dense(3), dense(2, activation="none")], seed=seed)
            xs = rng.normal(size=(3, 3))
            ys = rng.integers(0, 2, size=3)
            model = encoded(net, xs, ys)
            assert model.check_assignment(model.reference_assignment, tol=1e-9) == []
            for k in range(3):
                got = np.array([model.reference_assignment[j] for j in model.logit_vars[k]])
                want = forward(net, xs[k]).logits
                assert np.max(np.abs(got - want)) <= 1e-9

    def test_conv_and_pool_reference_feasible(self):
        rng = np.random.default_rng(3)
        net = init_network((1, 3, 3), [conv(2, 2, 2), avgpool(2), flatten(),
                                       dense(2, activation="none")], seed=7)
        xs = rng.normal(size=(2, 9))
        model = encoded(net, xs, [0, 1])
        assert model.check_assignment(model.reference_assignment, tol=1e-9) == []

    def test_each_conv_is_lowered_once_per_model(self, monkeypatch):
        net = init_network((1, 5, 5), [conv(2, 2, 2), conv(2, 2, 2), avgpool(2), flatten(),
                                       dense(2, activation="none")], seed=9)
        xs = np.random.default_rng(10).normal(size=(3, 25))
        bounds = propagate_batch(net, xs, 0.1)
        calls = []

        def counting(kernels, spec):
            calls.append(spec)
            return conv_to_matrix(kernels, spec)

        monkeypatch.setattr(mipprune.network, "conv_to_matrix", counting)
        model = encode_network(net, xs, np.array([0, 1, 0]), bounds)
        assert calls == [net.layers[0].conv, net.layers[1].conv]
        assert model.check_assignment(model.reference_assignment, tol=1e-9) == []

    def test_each_conv_is_lowered_once_per_bounds_pass(self, monkeypatch):
        net = init_network((1, 5, 5), [conv(2, 2, 2), conv(2, 2, 2), avgpool(2), flatten(),
                                       dense(2, activation="none")], seed=9)
        xs = np.random.default_rng(11).normal(size=(10, 25))
        calls = []

        def counting(kernels, spec):
            calls.append(spec)
            return conv_to_matrix(kernels, spec)

        monkeypatch.setattr(mipprune.network, "conv_to_matrix", counting)
        assert len(propagate_batch(net, xs, 0.05)) == 10
        assert calls == [net.layers[0].conv, net.layers[1].conv]

    def test_maxpool_reference_feasible(self):
        rng = np.random.default_rng(4)
        net = init_network(4, [dense(4), maxpool(2), dense(2, activation="none")], seed=8)
        xs = rng.normal(size=(2, 4))
        model = encoded(net, xs, [0, 1])
        assert model.check_assignment(model.reference_assignment, tol=1e-9) == []


class TestObjective:
    def test_decomposition_matches_reported(self):
        net = init_network(2, [dense(4), dense(3, activation="none")], seed=9)
        xs = np.random.default_rng(5).normal(size=(3, 2))
        model = encoded(net, xs, [0, 1, 2])
        sol = solve_mip(model, SolveConfig(), warm=model.reference_assignment)
        sparsity, soft = model.decompose(sol.values)
        assert sparsity + model.lam * soft == pytest.approx(sol.objective, abs=1e-9)

    def test_rescale_offsets_shift_layer_sums(self):
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=10)
        xs = np.array([[0.1, 0.2]])
        for rescale, offset in (("minus2", -2.0), ("minus1", -1.0), ("none", 0.0)):
            model = encoded(net, xs, [0], rescale=rescale)
            ref = model.reference_assignment
            sparsity, _ = model.decompose(ref)
            # all scores are 1 in the reference: one prunable layer, sum cancels
            assert sparsity == pytest.approx(0.0, abs=1e-12)
            assert model.objective_const == pytest.approx(offset)


class TestMaxpoolEncoding:
    def build(self, values, uppers):
        model = MipModel()
        in_vars = []
        for i, v in enumerate(values):
            idx = model.add_var(f"h_0_{i}_0", "h", v, v)  # fixed inputs
            in_vars.append(idx)
        out, m_vars, w_vars = encode_maxpool(model, in_vars, uppers, 1, 0, 0)
        return model, out, m_vars

    def test_three_one_only_argmax_feasible(self):
        model, out, m_vars = self.build([3.0, 1.0], [3.0, 1.0])
        assert list(m_vars) == [0]  # the 1, below the 3's lower bound, gets no selector
        model.add_objective_term(out, 1.0)
        sol = solve_mip(model, SolveConfig())
        assert sol.values[out] == pytest.approx(3.0, abs=1e-9)
        assert sol.values[m_vars[0]] == pytest.approx(1.0, abs=1e-6)

    def test_dominated_members_get_no_selector(self):
        """A member whose upper bound is below another's lower bound, or
        equal to an earlier one's, gets no selector, product or row; the
        pooled output still spans [max L, max U] and equals the max."""
        boxes = [(1.0, 2.0), (0.0, 0.5), (1.0, 3.0), (0.5, 1.0), (2.0, 2.5), (2.0, 2.0)]
        model = MipModel()
        in_vars = [model.add_var(f"h_0_{i}_0", "h", lo, hi) for i, (lo, hi) in enumerate(boxes)]
        n_rows = len(model.constraints)
        out, m_vars, w_vars = encode_maxpool(model, in_vars, [hi for _, hi in boxes], 1, 0, 0)
        assert list(m_vars) == list(w_vars) == [0, 2, 4]
        assert sum(v.kind in ("m", "w") for v in model.variables) == 6
        # per kept member: ge, select and three product rows; one choose row
        assert len(model.constraints) - n_rows == 3 * 5 + 1
        assert (model.variables[out].lb, model.variables[out].ub) == (2.0, 3.0)
        for sign, want in ((1.0, 2.0), (-1.0, 3.0)):
            model.objective.clear()
            model.add_objective_term(out, sign)
            sol = solve_mip(model, SolveConfig())
            assert sol.values[out] == pytest.approx(want, abs=1e-9)
            assert sol.values[out] == pytest.approx(max(sol.values[in_vars]), abs=1e-9)

    def test_all_zero_inputs(self):
        model, out, _ = self.build([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        model.add_objective_term(out, 1.0)
        sol = solve_mip(model, SolveConfig())
        assert sol.values[out] == pytest.approx(0.0, abs=1e-9)

    def test_constant_members(self):
        """A member given as -1 is a constant, its value its upper bound.  An
        undominated one gets a selector and the select row x <= c m +
        U (1 - m) only, the row that x <= w + U (1 - m) is at w = c m; a
        window of constants is the constant max, with no variable or row."""
        model = MipModel()
        h = model.add_var("h_0_1_0", "h", 0.0, 3.0)
        out, m_vars, w_vars = encode_maxpool(model, [-1, h, -1], [1.0, 3.0, 0.5], 1, 0, 0)
        assert (model.variables[out].lb, model.variables[out].ub) == (1.0, 3.0)
        assert list(m_vars) == [0, 1] and list(w_vars) == [1]  # the 0.5 is dominated
        selects = [(model.row(i), model.rhs[i]) for i in model.constraints
                   if model.tag[i] == "maxpool_select"]
        assert selects[0] == ({out: 1.0, m_vars[0]: 2.0}, 3.0)
        assert sum(model.row(i).get(h) is not None for i in model.constraints) == 3
        for sign, want in ((1.0, 1.0), (-1.0, 3.0)):
            model.objective.clear()
            model.add_objective_term(out, sign)
            assert solve_mip(model, SolveConfig()).values[out] == pytest.approx(want, abs=1e-9)
        n_vars, n_rows = len(model.variables), len(model.constraints)
        assert encode_maxpool(model, [-1, -1], [0.0, 0.0], 1, 1, 0) == (-1, {}, {})
        assert (len(model.variables), len(model.constraints)) == (n_vars, n_rows)

    @pytest.mark.parametrize("head", [[], [flatten()]])
    def test_pool_over_the_input_refused(self, head):
        """A max pool whose members are inputs, after a flatten or not, is
        refused: an input is a constant, but not its box's upper bound."""
        net = init_network(4, head + [maxpool(2), dense(2), dense(2, activation="none")], seed=0)
        with pytest.raises(InvalidArgument, match="max pooling directly over the input"):
            encoded(net, [[0.1, 0.5, 0.2, 0.3], [0.3, 0.2, 0.9, 0.1]], [0, 1], eps=0.1)

    def test_random_fixings_match_arithmetic_max(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            vals = rng.uniform(0.0, 5.0, size=4)
            model, out, _ = self.build(vals.tolist(), (vals + rng.uniform(0, 1, 4)).tolist())
            model.add_objective_term(out, 1.0)
            sol = solve_mip(model, SolveConfig())
            assert sol.values[out] == pytest.approx(float(vals.max()), abs=1e-7)


class TestLseCuts:
    def make_point_model(self):
        model = MipModel(n_points=1, labels=np.array([0]))
        h1 = model.add_var("h_2_0_0", "h", -10.0, 10.0)
        h2 = model.add_var("h_2_1_0", "h", -10.0, 10.0)
        # a box no LP optimum touches: every cut keeps t within ln 2 + 10
        t = model.add_var("t_lse_0", "t_lse", -20.0, 20.0)
        model.logit_vars = [[h1, h2]]
        model.tlse_vars = [t]
        return model, (h1, h2), t

    def test_symmetric_anchor_gives_ln2(self):
        model, (h1, h2), t = self.make_point_model()
        idx = add_lse_cut(model, 0, np.array([0.0, 0.0]))
        coefs = model.row(idx)
        assert model.rhs[idx] == pytest.approx(np.log(2.0))
        assert coefs[h1] == pytest.approx(-0.5)
        assert coefs[h2] == pytest.approx(-0.5)
        assert coefs[t] == pytest.approx(1.0)

    def test_tangency_at_anchor(self):
        model, (h1, h2), t = self.make_point_model()
        rng = np.random.default_rng(7)
        for _ in range(20):
            anchor = rng.normal(size=2)
            idx = add_lse_cut(model, 0, anchor)
            x = np.zeros(len(model.variables))
            x[h1], x[h2] = anchor
            x[t] = log_sum_exp(anchor)
            lhs = sum(c * x[j] for j, c in model.row(idx).items())
            assert abs(lhs - model.rhs[idx]) <= 1e-12

    def cut_loop_model(self):
        # min t - h1 over the box: the root LP sits on the seed cut at
        # h = (10, -10) with t - h1 = ln 2 - 10, while the exact value there is ~0
        model, (h1, h2), t = self.make_point_model()
        add_lse_cut(model, 0, np.array([0.0, 0.0]))
        model.add_objective_term(t, 1.0)
        model.add_objective_term(h1, -1.0)
        return model, (h1, h2), t

    def test_cut_loop_runs_until_epigraph_closes(self):
        model, _, _ = self.cut_loop_model()
        sol = solve_mip(model, SolveConfig())
        assert sol.status == "optimal"
        assert sol.gap == pytest.approx(0.0, abs=1e-6)
        assert sol.objective == pytest.approx(0.0, abs=1e-6)
        assert sol.cut_rounds > 0

    def test_node_limit_inside_cut_loop_reports_limit(self):
        model, _, t = self.cut_loop_model()
        warm = np.zeros(len(model.variables))
        warm[t] = np.log(2.0)   # h = 0 on the seed cut: objective ln 2
        sol = solve_mip(model, SolveConfig(node_limit=1), warm=warm)
        assert sol.cut_rounds == 1
        assert sol.status == "limit"
        assert sol.gap > 0.0
        assert sol.log_lines[-1].startswith("end status limit")

    def test_tiny_softmax_terms_snapped_soundly(self):
        """At the anchor (10, -46, 0, -60) the softmax of the second and fourth
        logits is about 1e-25 and 1e-31.  Each of their terms leaves the row
        and sigma * lb joins the rhs, the second's first.  The row still never
        exceeds the log-sum-exp over the box."""
        model = MipModel(n_points=1, labels=np.array([0]))
        h = [model.add_var(f"h_2_{j}_0", "h", lo, 50.0)
             for j, lo in enumerate((-50.0, -50.0, -50.0, -70.0))]
        t = model.add_var("t_lse_0", "t_lse", -100.0, 100.0)
        model.logit_vars, model.tlse_vars = [h], [t]
        anchor = np.array([10.0, -46.0, 0.0, -60.0])
        sig = softmax_probs(anchor)
        assert sig[1] < 1e-12 and sig[3] < 1e-12
        idx = add_lse_cut(model, 0, anchor)
        coefs = model.row(idx)
        assert sorted(coefs) == [h[0], h[2], t]
        assert model.rhs[idx] == (log_sum_exp(anchor) - float(np.dot(sig, anchor))
                                  + sig[1] * -50.0 + sig[3] * -70.0)
        rng = np.random.default_rng(9)
        for point in rng.uniform([-50.0, -50.0, -50.0, -70.0], 50.0, size=(200, 4)):
            cut = model.rhs[idx] + sum(-c * point[h.index(j)] for j, c in coefs.items() if j != t)
            assert cut <= log_sum_exp(point) + 1e-9

    def test_cut_underestimates_lse_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            anchor = rng.normal(scale=2.0, size=3)
            h = rng.normal(scale=2.0, size=3)
            sig = softmax_probs(anchor)
            cut_value = log_sum_exp(anchor) + float(sig @ (h - anchor))
            assert cut_value <= log_sum_exp(h) + 1e-9


class TestAddConstraint:
    def test_row_with_no_variable_left_out_or_refused(self):
        """A row with no nonzero entry reads ``0 sense rhs``.  One that holds
        within ``CONST_TOL`` is not stored, and ``add_constraint`` returns
        None for it; one its constant breaks is refused with the breach, and
        nothing is appended."""
        model = MipModel()
        a = model.add_var("h_0_0_0", "h", 0.0, 1.0)
        for coefs, sense, rhs in (({}, "L", 0.0), ({a: 0.0}, "G", -2.0), ({}, "E", 1e-7),
                                  ({a: 0.0}, "L", -1e-6)):
            assert model.add_constraint(coefs, sense, rhs, "t") is None
        assert model.add_constraint({a: 1.0}, "L", 1.0, "ok") == 0
        for coefs, sense, rhs in (({}, "L", -0.5), ({a: 0.0}, "G", 2e-6), ({}, "E", -3.0)):
            with pytest.raises(InvalidArgument, match=f"^constraint 't' has no variables and is "
                                                      f"broken by {abs(rhs)!r}$"):
                model.add_constraint(coefs, sense, rhs, "t")
        assert model.tag == ["ok"] and list(model.row_ptr) == [0, 1]

    @pytest.mark.parametrize("sense", ["X", "l", "LE", ""])
    def test_unknown_sense_refused(self, sense):
        """A sense other than 'L', 'G' or 'E' is refused with the row's tag,
        and nothing is appended: the simplex, the feasibility check and the
        LP writer each read only those three."""
        model = MipModel()
        a = model.add_var("h_0_0_0", "h", 0.0, 1.0)
        msg = f"^constraint 'b' has sense {sense!r}, not 'L', 'G' or 'E'$"
        with pytest.raises(InvalidArgument, match=msg):
            model.add_constraint({a: 1.0}, sense, 1.0, "b")
        with pytest.raises(InvalidArgument, match=msg):
            model.add_rows([0, 1], [a, a], [1.0, 1.0], ["L", sense], [1.0, 1.0], ["a", "b"])
        assert len(model.constraints) == 0 and len(model.col_idx) == 0

    def test_variable_id_must_continue_the_model(self):
        """A variable whose id is not the next one is refused by name, and
        nothing of its block is appended."""
        model = MipModel()
        model.add_var("h_0_0_0", "h", 0.0, 1.0)
        with pytest.raises(InvalidArgument, match=r"^variable 'h_0_2_0' has id 5, not the next "
                                                  r"id 2$"):
            model.add_vars([VarRef(1, "h_0_1_0", "h", 0.0, 1.0),
                            VarRef(5, "h_0_2_0", "h", 0.0, 1.0)])
        assert [v.name for v in model.variables] == ["h_0_0_0"]
        assert model.var_arrays()[0].size == 1

    @pytest.mark.parametrize("bad", [-1, 2, 5])
    def test_variable_outside_the_model_rejected(self, bad):
        """An id below 0 would bind the last variable through Python's
        indexing, and one past the end would fail only when the LP is built;
        both are refused with the row's tag, and nothing is appended."""
        model = MipModel()
        for j in range(2):
            model.add_var(f"h_0_{j}_0", "h", 0.0, 2.0)
        model.add_constraint({0: 1.0}, "L", 1.0, "ok")
        with pytest.raises(InvalidArgument, match=f"'x' names variable {bad}, not in \\[0, 2\\)"):
            model.add_constraint({bad: 1.0}, "L", 1.5, "x")
        with pytest.raises(InvalidArgument, match="'second' names variable"):
            model.add_rows([1, 0, 1], [0, 1, bad], [1.0, 1.0, 1.0], list("LL"), np.zeros(2),
                           ["first", "second"])
        assert len(model.constraints) == 1 and len(model.col_idx) == 1

    def test_non_finite_data_rejected(self):
        model = MipModel()
        a = model.add_var("h_0_0_0", "h", 0.0, 1.0)
        for coefs, rhs in (({a: np.inf}, 0.0), ({a: np.nan}, 0.0), ({a: 1.0}, -np.inf)):
            with pytest.raises(InvalidArgument):
                model.add_constraint(coefs, "L", rhs, "t")
        assert len(model.constraints) == 0

    def test_block_equals_its_rows_added_one_by_one(self):
        """``add_rows`` stores a block, its entries given in any order, as
        ``add_constraint`` stores the same rows one at a time."""
        rng = np.random.default_rng(3)
        one, block = MipModel(), MipModel()
        for model in (one, block):
            for j in range(6):
                model.add_var(f"h_0_{j}_0", "h", -1.0, 1.0)
        rows, cols, vals = [], [], []
        for i in range(4):
            coefs = {int(j): float(rng.normal()) for j in rng.choice(6, size=3, replace=False)}
            coefs[int(rng.integers(6))] = 0.0  # a zero coefficient is dropped
            one.add_constraint(coefs, "LGEL"[i], float(i), f"r{i}")
            rows += [i] * len(coefs)
            cols += list(coefs)
            vals += list(coefs.values())
        block.add_rows(rows[::-1], cols[::-1], vals[::-1], list("LGEL"), np.arange(4.0),
                       [f"r{i}" for i in range(4)])
        for name in ("row_ptr", "col_idx", "row_val", "rhs", "sense", "tag"):
            assert getattr(block, name) == getattr(one, name), name

    def test_bad_block_names_its_first_bad_row_and_appends_nothing(self):
        """Row 'b' of the first block has no entry left and holds, so it
        would be left out, and 'c' is the first bad row; of two rows whose
        constants break, the first is named, not the one broken most."""
        model = MipModel()
        for j in range(2):
            model.add_var(f"h_0_{j}_0", "h", 0.0, 1.0)
        with pytest.raises(InvalidArgument, match="'c' has non-finite data"):
            model.add_rows([0, 1, 2], [0, 1, 1], [1.0, 0.0, np.nan], list("LLL"), np.zeros(3),
                           ["a", "b", "c"])
        with pytest.raises(InvalidArgument, match="^constraint 'b' has no variables and is broken "
                                                  "by 1.0$"):
            model.add_rows([0, 1, 3], [0, 1, 1], [1.0, 0.0, 1.0], list("LGEL"),
                           [1.0, 1.0, 5.0, 1.0], ["a", "b", "c", "d"])
        with pytest.raises(InvalidArgument, match="'a' has non-finite data"):
            model.add_rows([0], [0], [1.0], ["L"], [np.inf], ["a"])
        with pytest.raises(InvalidArgument, match="twice"):
            model.add_rows([0, 0], [1, 1], [1.0, 2.0], ["L"], [0.0], ["a"])
        assert len(model.constraints) == 0 and len(model.col_idx) == 0
        model.add_rows([2, 0, 1], [1, 0, 1], [-1.0, 1.0, 0.0], list("LGG"), [1.0, 0.0, -1.0],
                       ["a", "b", "c"])
        assert (model.tag, model.sense, list(model.rhs)) == (["a", "c"], ["L", "G"], [1.0, -1.0])
        assert list(model.row_ptr) == [0, 1, 2] and model.row(1) == {1: -1.0}

    def test_rows_read_back_sorted_and_dense(self):
        model = MipModel()
        a, b, c = (model.add_var(f"h_0_{j}_0", "h", 0.0, 1.0) for j in range(3))
        model.add_constraint({c: 2.0, a: -1.0, b: 0.0}, "G", 0.5, "first")
        model.add_constraint({b: 3.0}, "E", -0.0, "second")
        assert model.row(0) == {a: -1.0, c: 2.0}
        assert list(model.col_idx) == [a, c, b]
        assert list(model.row_ptr) == [0, 2, 3]
        dense, sense, rhs = model.dense_rows()
        assert dense.tolist() == [[-1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]
        assert sense.tolist() == ["G", "E"]
        assert rhs.tolist() == [0.5, -0.0]
        assert not dense.flags.writeable
        # a new row is read back at once
        model.add_constraint({a: 1.0}, "L", 1.0, "cut")
        assert model.dense_rows()[0].shape == (3, 3)

    def test_node_lp_after_cuts_is_the_row_store(self):
        """Read after every cut, as a search reads it, the node LP is the
        model's own rows over every variable, bit for bit, read-only, and
        cached until a row is added.  A cut extends it by one row and
        changes none before it."""
        net = init_network(2, [dense(6), dense(3, activation="none")], seed=4)
        xs = np.array([[0.4, -0.2], [-0.7, 0.3]])
        model = encoded(net, xs, [0, 2], eps=0.2)
        assert set(model.sense) == {"L", "G", "E"}
        last = model.dense_rows()
        assert model.dense_rows() is last
        for k, anchor in enumerate(np.random.default_rng(5).normal(size=(6, 3))):
            add_lse_cut(model, k % 2, anchor)
            a, sense, rhs = lp = model.dense_rows()
            assert a.shape == (len(model.constraints), len(model.variables)) and a.flags.c_contiguous
            for i in model.constraints:
                cols = np.flatnonzero(a[i])
                assert cols.tolist() == list(model.row(i))
                assert a[i, cols].tobytes() == np.array(list(model.row(i).values())).tobytes()
            assert rhs.tobytes() == np.array(model.rhs).tobytes()
            assert sense.tolist() == model.sense
            assert not any(arr.flags.writeable for arr in lp)
            assert a[:-1].tobytes() == last[0].tobytes()
            assert rhs[:-1].tobytes() == last[2].tobytes()
            last = lp

    def test_variable_arrays_follow_bounds_and_objective(self):
        model = MipModel()
        a = model.add_var("s_0_0", "s", 0.0, 1.0)
        b = model.add_var("t_min", "t_min", -3.0, 4.0)
        model.add_objective_term(a, 0.5)
        lb, ub, c = model.var_arrays()
        assert (lb.tolist(), ub.tolist(), c.tolist()) == ([0.0, -3.0], [1.0, 4.0], [0.5, 0.0])
        model.add_objective_term(b, -2.0)
        model.add_var("h_0_0_0", "h", 0.0, 0.0)
        lb, ub, c = model.var_arrays()
        assert (lb.tolist(), ub.tolist(), c.tolist()) == ([0.0, -3.0, 0.0], [1.0, 4.0, 0.0],
                                                          [0.5, -2.0, 0.0])
        assert not (lb.flags.writeable or ub.flags.writeable or c.flags.writeable)
        for lo, hi in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(InvalidArgument, match=r"^variable 'h_0_1_0' has bounds \["):
                model.add_var("h_0_1_0", "h", lo, hi)
        assert len(model.variables) == 3 and model.var_arrays()[0].size == 3


class TestPresolveRows:
    """No presolve runs between the model and its node LP.  The rows one
    would drop, those with no variable, are never written by the encoder,
    and a hand-built row over width-0 columns only stays in the LP."""

    @staticmethod
    def model(*rows):
        """x fixed at 1, y in [0, 2], z in [-1, 1], then the given rows."""
        model = MipModel()
        model.add_var("h_0_0_0", "h", 1.0, 1.0)
        model.add_var("h_0_1_0", "h", 0.0, 2.0)
        model.add_var("h_0_2_0", "h", -1.0, 1.0)
        model.add_objective_term(1, 1.0)
        for coefs, sense, rhs in rows:
            model.add_constraint(coefs, sense, rhs, "row")
        return model

    def test_every_row_reaches_the_lp(self):
        """No rule drops a row: the node LP holds every model row as it is,
        over every column, one over the fixed x alone too, and answers as
        the LP over y and z with x's terms moved to the rhs."""
        rows = (
            ({0: 1.0}, "L", 1.0),             # 1 <= 1
            ({0: 1.0, 1: 1.0}, "L", 2.5),     # y <= 1.5
            ({2: -2.0}, "G", -1.0),           # z <= 0.5
            ({0: -1.0, 1: 1.0, 2: 1.0}, "G", 0.5),   # y + z >= 1.5
        )
        model = self.model(*rows)
        a, sense, rhs = model.dense_rows()
        assert a.tolist() == [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -2.0],
                              [-1.0, 1.0, 1.0]]
        assert sense.tolist() == ["L", "L", "G", "G"] and rhs.tolist() == [1.0, 2.5, -1.0, 0.5]
        res = solve_lp(model)
        moved = solve_lp_arrays(LinearProgram(np.array([1.0, 0.0]), a[1:, 1:], sense[1:],
                                              rhs[1:] - a[1:, 0], np.array([0.0, -1.0]),
                                              np.array([2.0, 1.0])))
        assert res.status == moved.status == "optimal" and res.certified
        assert res.objective == pytest.approx(moved.objective, abs=1e-12)
        assert res.x.tolist() == pytest.approx([1.0, *moved.x], abs=1e-12)

    @pytest.mark.parametrize("arch, eps", [
        ([dense(6), dense(3, activation="none")], 0.2),
        ([dense(4), maxpool(2), dense(3, activation="none")], 0.1),
        ([dense(6), dense(5), dense(3, activation="none")], 0.0),
    ])
    def test_matches_a_loop_over_the_rows(self, arch, eps):
        """A walk over the rows finds a variable in each, and a walk over the
        units finds a hidden ``h`` with a box wider than a point exactly for
        each unit not switched off, a pool's output for each window not all
        switched off.  Each model has stable inactive first-layer units,
        whose rows have no variable.  A max pool writes one ``maxpool_ge``
        row per variable input it selects, and none for a constant."""
        net = init_network(2, arch, seed=4)
        xs = np.array([[0.4, -0.2], [-0.7, 0.3]])
        model = encoded(net, xs, [0, 2], eps=eps)
        bounds = propagate_batch(net, xs, eps)
        assert all(model.row(i) for i in model.constraints)
        lb, ub, _ = model.var_arrays()
        names = {v.name: v.idx for v in model.variables}
        off = set()
        for k, (l, spec) in ((k, ls) for k in range(2) for ls in enumerate(net.layers[:-1])):
            for j in range(bounds[k].pre_hi[l].size):
                name = f"h_{l}_{j}_{k}"
                if spec.kind == "maxpool":
                    members = {f"h_{l - 1}_{i}_{k}" for i in range(j * 2, j * 2 + 2)}
                    dead = members <= off
                else:
                    dead = bounds[k].pre_hi[l][j] <= 0.0
                if dead:
                    off.add(name)
                assert (name in names) == (not dead), name
                assert dead or lb[names[name]] < ub[names[name]]
        assert any(name.startswith("h_0_") for name in off)
        ge = [i for i in model.constraints if model.tag[i] == "maxpool_ge"]
        inputs = [j for i in ge for j, c in model.row(i).items() if c == -1.0]
        assert len(inputs) == len(ge) and all(model.variables[j].layer == 0 for j in inputs)
        pooled = any(spec["kind"] == "maxpool" for spec in arch)
        assert bool(ge) == pooled

    def test_violated_empty_row_kept_and_the_lp_certified_infeasible(self):
        """A row over a width-0 column alone that its value breaks stays in
        the LP, which is certified infeasible."""
        model = self.model(({1: 1.0, 2: 1.0}, "L", 1.0), ({0: 1.0}, "L", 0.5))
        assert len(model.dense_rows()[2]) == 2
        res = solve_lp(model)
        assert res.status == "infeasible" and res.certified


class TestPresolveFixing:
    def test_z_fixed_from_bounds(self):
        """At eps 0 the bounds decide every unit, so the model has no z; a
        stable inactive unit, whose box [0, max(U, 0)] is a point, is the
        constant 0, with no h."""
        net = tiny_net(seed=11)
        xs = np.array([[0.9, -0.4]])
        model = encoded(net, xs, [0])
        bounds = propagate_batch(net, xs, 0.0)[0]
        assert not any(v.kind == "z" or v.binary for v in model.variables)
        hidden = {v.unit: v for v in model.variables if v.kind == "h" and v.layer == 0}
        assert set(hidden) == set(np.flatnonzero(bounds.pre_hi[0] > 0.0).tolist()) == {1}
        for v in hidden.values():
            assert (v.lb, v.ub) == (0.0, bounds.pre_hi[0][v.unit])

    def test_z_free_inside_wide_bounds(self):
        net = tiny_net(seed=12)
        xs = np.array([[0.0, 0.0]])
        model = encoded(net, xs, [0], eps=5.0)
        free = [v for v in model.variables if v.kind == "z" and v.lb != v.ub]
        assert free, "a wide input ball should leave some units undecided"


class TestBoxedColumns:
    """Every variable the encoder writes has two finite bounds, so every node
    LP is boxed.  ``t_min`` gets the box of min_l I_l and each ``t_lse`` one
    from its seed cut up to the largest log-sum-exp, each widened by 1, so
    no LP optimum touches them.  The fixtures are the three small encodings
    of the LP-text goldens and the two benchmark models."""

    NAMES = ["dense", "conv-avgpool", "conv-maxpool", "dense-1pt-seed0", "conv-classwise-class0"]

    @staticmethod
    def model(name):
        golden = test_pruning.TestGoldenReports
        if name == "dense-1pt-seed0":
            (net, xs, ys), eps = golden.dense_instance(), 0.5
        elif name == "conv-classwise-class0":
            net, xs, ys = golden.conv_instance()
            xs, ys, eps = xs[0:1], ys[0:1], 0.05
        else:
            shape, arch = test_lpformat.TestGoldenText.ARCHS[name]
            net = init_network(shape, arch, seed=5)
            xs = np.random.default_rng(5).normal(size=(2, int(np.prod(shape))))
            ys, eps = np.array([0, 2]), 0.1
        return encode_network(net, xs, ys, propagate_batch(net, xs, eps), lam=5.0)

    @pytest.mark.parametrize("name", NAMES)
    def test_reference_and_incumbent_strictly_inside(self, name):
        model = self.model(name)
        lb, ub, _ = model.var_arrays()
        assert np.isfinite(lb).all() and np.isfinite(ub).all()
        t = [v.idx for v in model.variables if v.kind in ("t_min", "t_lse")]
        assert len(t) == 1 + model.n_points
        sol = solve_mip(model, SolveConfig(), warm=model.reference_assignment)
        assert sol.status == "optimal"
        for x in (model.reference_assignment, sol.values):
            assert np.all(lb[t] < x[t]) and np.all(x[t] < ub[t])

    @pytest.mark.parametrize("name", NAMES)
    def test_no_fixed_variable_and_no_empty_row(self, name):
        """The encoder writes no variable whose box is a point, and no row
        without a variable: the model is the node LP, with nothing for a
        presolve to take out."""
        model = self.model(name)
        lb, ub, _ = model.var_arrays()
        assert np.all(lb < ub)
        assert np.all(np.diff(model.row_ptr) > 0)

    @pytest.mark.parametrize("name", NAMES)
    def test_seed_cut_implies_the_t_lse_lower_bound(self, name):
        """Each point's seed cut, with every logit at the bound that makes
        it weakest, gives ``t_lse >= lb + 1``: the LP never reaches lb."""
        model = self.model(name)
        lb, ub, _ = model.var_arrays()
        seeds = [i for i in model.constraints if model.tag[i] == "lse_cut"]
        assert len(seeds) == model.n_points
        for i, t in zip(seeds, model.tlse_vars):
            row = model.row(i)
            assert row.pop(t) == 1.0
            implied = model.rhs[i] - sum(c * (ub[j] if c > 0.0 else lb[j]) for j, c in row.items())
            assert implied - lb[t] == pytest.approx(1.0, abs=1e-9)


class TestUnsoundBounds:
    def test_unit_switched_off_where_the_point_turns_it_on_raises(self):
        """Bounds that put a first-layer unit's upper bound at or below 0
        while the point's own pre-activation is positive make the unit the
        constant 0, and its lower row, with no variable left, reads
        0 >= w.x + b: the encoder refuses it instead of writing a model the
        point does not satisfy."""
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=1)
        xs = np.array([[0.5, -0.3]])
        bounds = propagate_batch(net, xs, 0.0)
        pre = forward(net, xs[0]).pre[0]
        j = int(np.argmax(pre))
        assert pre[j] > 1e-3
        for hi in (0.0, -1.0):
            bounds[0].pre_lo[0][j] = min(bounds[0].pre_lo[0][j], hi)
            bounds[0].pre_hi[0][j] = hi
            with pytest.raises(InvalidArgument, match="'relu_lower_on' has no variables and is "
                                                      "broken by"):
                encode_network(net, xs, np.array([0]), bounds)

    def test_round_off_in_a_dropped_row_is_accepted(self):
        """At eps 0 the upper row of switched-off unit 6 of point 0 reads
        0 <= (w.x + b) - L, which the encoder's sum of w.x + b breaks by
        2.8e-17 against the forward pass's L.  That is round-off: the row is
        left out like the unit's lower row, and the reference point is
        feasible."""
        net = init_network(3, [dense(8), dense(2, activation="none")], seed=0)
        xs = np.random.default_rng(0).normal(size=(4, 3))
        bounds = propagate_batch(net, xs, 0.0)
        pc = _affine_constants(net.layers[0].weight, net.layers[0].bias, xs[0])[6]
        assert bounds[0].pre_hi[0][6] <= 0.0 and -1e-16 < pc - bounds[0].pre_lo[0][6] < 0.0
        model = encode_network(net, xs, np.array([0, 1, 0, 1]), bounds)
        assert "h_0_6_0" not in {v.name for v in model.variables}
        assert model.check_assignment(model.reference_assignment, tol=1e-9) == []


class TestGoldenNodeLp:
    """The node LP of each of the ten benchmark models, as the search hands
    it to the simplex (rows, senses, rhs, objective, bounds and constant),
    pinned by sha256.  The digests were recorded from the LP that a
    substitution of the model's fixed variables gave before the encoder
    wrote no such variable; the model's own arrays now give the same bytes."""

    DIGESTS = {
        "dense-1pt-seed0": "aafd6a7287d4694ab95e9c99d70e15c6f9741677377c4aa4f43c60d3c4200f65",
        "dense-1pt-seed1": "b14ade6739747f67b96343d66de1974a672b0b8d5bcf0151994c02e8d13618aa",
        "dense-1pt-seed2": "5471539a731f6b7a7dabf350b4a8b907f5000d0e4d83fe5fb19a43865a992659",
        "dense-1pt-seed3": "8c3d041a47480fe57ee97d4713b44ace7d5b411ffbab1392a9dea830c4860211",
        "dense-1pt-seed4": "3818ad13e89a8f8af079c44237d6755f6ec8b6b14757dd78b5d35947eb9f079a",
        "conv-classwise-class0": "486d1a8f4e5b6ffb4bd32413c43875f111e7b68c20ef70098a941097e8e02d85",
        "conv-classwise-class2": "0d9a863a292623610604d9f1eca0dc9038941340df55796a21f73574e454d38b",
        "conv-classwise-class4": "811ef2615850a765fdeac63a5f6a0e5bfedb9dccf5b1dd35d6695e0f6de087c0",
        "conv-classwise-class6": "3415ce9f8627d51db6087624d1c5451f30381cdffd6f90e1cc78c8aa821cefdf",
        "conv-classwise-class8": "4755832897e78f0c7f831afdb8fcd5eb7ec2f7a5a38ff22b6c1ef52ca469846c",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, name):
        golden = test_pruning.TestGoldenReports
        if name.startswith("dense"):
            (net, xs, ys), eps = golden.dense_instance(int(name[-1])), 0.5
        else:
            c = int(name[-1])
            net, xs, ys = golden.conv_instance()
            xs, ys, eps = xs[c : c + 1], ys[c : c + 1], 0.05
        model = encode_network(net, xs, ys, propagate_batch(net, xs, eps), lam=5.0)
        a, sense, rhs = model.dense_rows()
        lb, ub, c = model.var_arrays()
        h = hashlib.sha256(repr(a.shape).encode())
        for arr in (a, sense, rhs, c, lb, ub, np.float64(model.objective_const)):
            h.update(arr.tobytes())
        assert h.hexdigest() == self.DIGESTS[name]
