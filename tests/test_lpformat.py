import hashlib
import re

import numpy as np
import pytest
import test_pruning

from mipprune.bounds import propagate_batch
from mipprune.datasets import make_dataset
from mipprune.encoding import encode_network
from mipprune.errors import ModelFormatError
from mipprune.lpformat import read_solution, write_lp, write_solution
from mipprune.network import avgpool, conv, dense, flatten, init_network, maxpool, save_network
from mipprune.solver import SolveConfig, solve_mip
from mipprune.training import TrainConfig, train

NUM = r"-?\d+(\.\d+)?([eE][+-]?\d+)?"
TERM = rf"[+-] {NUM} [a-z][a-z0-9_]*"
FIRST_TERM = rf"-?{NUM} [a-z][a-z0-9_]*"
EXPR = rf"{FIRST_TERM}( {TERM})*"


def make_model(seed=0, with_pool=False, eps=0.0):
    if with_pool:
        net = init_network(4, [dense(4), maxpool(2), dense(2, activation="none")], seed=seed)
        xs = np.random.default_rng(seed).normal(size=(2, 4))
    else:
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=seed)
        xs = np.random.default_rng(seed).normal(size=(2, 2))
    ys = np.array([0, 1])
    bounds = propagate_batch(net, xs, eps)
    return encode_network(net, xs, ys, bounds)


class TestWriter:
    def test_sections_in_order(self, tmp_path):
        model = make_model()
        p = tmp_path / "m.lp"
        write_lp(model, p)
        text = p.read_text()
        idx = [text.index(s) for s in ("Minimize", "Subject To", "Bounds", "End")]
        assert idx == sorted(idx)

    def test_strict_grammar(self, tmp_path):
        model = make_model(with_pool=True)
        p = tmp_path / "m.lp"
        write_lp(model, p)
        lines = p.read_text().splitlines()
        section = None
        for line in lines:
            if line.startswith("\\"):
                continue
            if line in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
                section = line
                continue
            body = line.strip()
            if section == "Minimize":
                assert re.fullmatch(rf"obj: {EXPR}", body), body
            elif section == "Subject To":
                assert re.fullmatch(rf"c\d+: {EXPR} (<=|>=|=) {NUM}", body), body
            elif section == "Bounds":
                ok = (
                    re.fullmatch(rf"{NUM} <= [a-z][a-z0-9_]* <= {NUM}", body)
                    or re.fullmatch(rf"[a-z][a-z0-9_]* = {NUM}", body)
                )
                assert ok, body
            elif section == "Binaries":
                assert re.fullmatch(r"([a-z][a-z0-9_]*)( [a-z][a-z0-9_]*)*", body), body

    def test_binaries_section_lists_exactly_z_and_m(self, tmp_path):
        """At eps 0.5 some units stay unstable, so the section holds both
        kinds of binary."""
        model = make_model(with_pool=True, eps=0.5)
        p = tmp_path / "m.lp"
        write_lp(model, p)
        text = p.read_text()
        body = text.split("Binaries")[1].split("End")[0].split()
        want = sorted(v.name for v in model.variables if v.binary)
        assert sorted(body) == want
        assert {name[:2] for name in body} == {"z_", "m_"}

    def test_stable_variable_names(self, tmp_path):
        """Names of every kind, a ``z`` too: at eps 0.5 some unit is unstable."""
        model = make_model(eps=0.5)
        names = [v.name for v in model.variables]
        assert any(re.fullmatch(r"h_\d+_\d+_\d+", n) for n in names)
        assert any(re.fullmatch(r"z_\d+_\d+_\d+", n) for n in names)
        assert any(re.fullmatch(r"s_\d+_\d+", n) for n in names)
        assert "t_min" in names
        assert any(n.startswith("t_lse_") for n in names)


class TestSolutionRoundTrip:
    def test_own_incumbent_round_trips(self, tmp_path):
        model = make_model(seed=3)
        sol = solve_mip(model, SolveConfig(), warm=model.reference_assignment)
        p = tmp_path / "m.sol"
        write_solution(model, sol.values, sol.objective, p)
        x, obj = read_solution(model, p)
        assert obj == pytest.approx(sol.objective, abs=1e-9)
        assert np.max(np.abs(x - sol.values)) <= 1e-15
        assert model.check_assignment(x) == []

    def test_unknown_variable_rejected(self, tmp_path):
        model = make_model()
        p = tmp_path / "bad.sol"
        p.write_text("# objective 0\nnope_0_0 1.0\n")
        with pytest.raises(ModelFormatError):
            read_solution(model, p)

    def test_malformed_line_reports_number(self, tmp_path):
        model = make_model()
        p = tmp_path / "bad.sol"
        p.write_text("s_0_0 1.0 extra\n")
        with pytest.raises(ModelFormatError) as err:
            read_solution(model, p)
        assert err.value.line == 1

    def test_missing_vars_default_zero(self, tmp_path):
        model = make_model()
        p = tmp_path / "part.sol"
        p.write_text("s_0_0 0.25\n")
        x, obj = read_solution(model, p)
        assert obj is None
        assert x[model.s_vars[(0, 0)]] == 0.25
        assert np.count_nonzero(x) == 1


class TestGoldenText:
    """The LP text of six fixed encodings and of two benchmark models, and
    the model files of four short training runs, pinned by sha256.

    Any change to variable order, row order, a coefficient or a right-hand
    side changes an LP digest, and any change to the bits of training or of
    the conv lowering changes a model-file digest, so an internal rewrite
    must leave these files byte for byte as they are.
    """

    ARCHS = {
        "dense": (3, [dense(4), dense(3), dense(3, activation="none")]),
        "conv-avgpool": ((1, 4, 4), [conv(2, 2, 2), avgpool(3), flatten(),
                                     dense(3, activation="none")]),
        "conv-maxpool": ((1, 4, 4), [conv(2, 2, 2), maxpool(3), flatten(),
                                     dense(3, activation="none")]),
    }
    DIGESTS = {
        "dense": "ebcdd113e341b5da12c19feea3c4edea2203da584381dbdc96ba5edeb213c8fb",
        "conv-avgpool": "4c6071fef1a824e2e5a9e16cf7a80e6ee047c1d1812dd388950fc3a63386f92a",
        "conv-maxpool": "470026a85004d2f97dd47802434accd5d62e0bb2fd5146ce8d71b43f3e85429e",
    }

    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_digest(self, name, tmp_path):
        shape, arch = self.ARCHS[name]
        net = init_network(shape, arch, seed=5)
        xs = np.random.default_rng(5).normal(size=(2, int(np.prod(shape))))
        ys = np.array([0, 2])
        bounds = propagate_batch(net, xs, 0.1)
        model = encode_network(net, xs, ys, bounds)
        p = tmp_path / "m.lp"
        write_lp(model, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.DIGESTS[name]

    POOL_OVER_INPUT = "d2276965fa749a5988600c749781d27826d52ad1a868720a1b059796d6905f21"

    def test_pool_over_input_digest(self, tmp_path):
        """An average pool over the input, whose rows read constants only
        (every input is one): a whole window of zeros in point 0, one zero
        entry in point 1."""
        net = init_network(8, [avgpool(2), dense(3), dense(3, activation="none")], seed=5)
        xs = np.random.default_rng(5).normal(size=(2, 8))
        xs[0, 2:4] = xs[1, 5] = 0.0
        model = encode_network(net, xs, np.array([0, 2]), propagate_batch(net, xs, 0.1))
        p = tmp_path / "m.lp"
        write_lp(model, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.POOL_OVER_INPUT

    HIDDEN_LINEAR = {
        0.0: "9bd116f8ec31838eb5005d3eeaacb2dccb178f2411fe0798e04d493a55ffcdb1",
        0.1: "307161df2bba1dbd6447bd90093f25536faf18dbcec037df8cbb93ba8b0f3afa",
    }

    @pytest.mark.parametrize("eps", sorted(HIDDEN_LINEAR))
    def test_hidden_linear_layer_digest(self, eps, tmp_path):
        """Hidden dense layers without activation, one on the input and one
        after a ReLU layer: each unit is one 'affine_out' equality over its
        box [L, U].  At eps 0 each first-layer unit has L == U and is a
        constant of the ReLU layer, with no variable."""
        arch = [dense(3, activation="none"), dense(4), dense(3, activation="none"),
                dense(3, activation="none")]
        net = init_network(3, arch, seed=5)
        xs = np.random.default_rng(5).normal(size=(2, 3))
        model = encode_network(net, xs, np.array([0, 2]), propagate_batch(net, xs, eps))
        assert any(v.layer == 0 for v in model.variables) == (eps > 0.0)
        p = tmp_path / "m.lp"
        write_lp(model, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.HIDDEN_LINEAR[eps]

    BENCH_DIGESTS = {
        "dense-1pt-seed0": "97b35e42027a0627194c0a62fcc962178be0d0eaa21bfd81d8a9a61aa64de807",
        "conv-classwise-class0": "af71ec147dac7f353e73ffa1d39ed1a904d4db8d429cdd720dce1e910338e772",
    }

    @pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
    def test_benchmark_model_digest(self, name, tmp_path):
        """The models the score benchmark encodes: the dense-1pt seed-0 net
        (eps 0.5, one point per class) and conv-classwise class 0 (eps 0.05),
        with a hidden dense ReLU after a pool and a mix of stable and
        unstable units that the small fixtures above lack."""
        golden = test_pruning.TestGoldenReports
        if name == "dense-1pt-seed0":
            (net, xs, ys), eps = golden.dense_instance(), 0.5
        else:
            net, xs, ys = golden.conv_instance()
            xs, ys, eps = xs[0:1], ys[0:1], 0.05
        model = encode_network(net, xs, ys, propagate_batch(net, xs, eps), lam=5.0)
        p = tmp_path / "m.lp"
        write_lp(model, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.BENCH_DIGESTS[name]

    CONV_CONV = [conv(2, 3, 3, padding=1), conv(3, 2, 2), avgpool(7), flatten(), dense(4),
                 dense(10, activation="none")]
    # (dataset, per class, data seed, extra), input shape, arch, (optimizer, batch size)
    TRAINED = {
        "dense-blobs": (("blobs", 10, 3, {"n_classes": 3, "dim": 2}), 2,
                        [dense(6), dense(4), dense(3, activation="none")], ("rmsprop", 8)),
        "conv-minidigits": (("minidigits", 6, 7, {}), (1, 8, 8),
                            [conv(2, 3, 3), avgpool(4), flatten(), dense(10, activation="none")],
                            ("rmsprop", 8)),
        # a padded conv under a second conv; 50 points in batches of 7 end
        # every epoch on a one-input batch
        "conv-conv-rmsprop": (("minidigits", 5, 7, {}), (1, 8, 8), CONV_CONV, ("rmsprop", 7)),
        "conv-conv-sgd": (("minidigits", 5, 7, {}), (1, 8, 8), CONV_CONV, ("sgd", 7)),
    }
    TRAINED_DIGESTS = {
        "dense-blobs": "0a26baa795f8fa70e3f1e2fcc869c67873c1da4b597f990fbfe41835a591c2aa",
        "conv-minidigits": "ebc38ba6f949e0d36aa3e444206248f984252e938186299fd03fb03d016305d2",
        "conv-conv-rmsprop": "4643b402aca9a4d0ed5a6f1686510d9ecdf85e2d89bc4bfa26738eac03948c83",
        "conv-conv-sgd": "823b5be72997cac314e82f74922fe70bf454172ed12a42923c5d149ec397977a",
    }

    @pytest.mark.parametrize("name", sorted(TRAINED))
    def test_training_digest(self, name, tmp_path):
        (data, per_class, data_seed, extra), shape, arch, (opt, batch) = self.TRAINED[name]
        ds = make_dataset(data, per_class, seed=data_seed, **extra)
        cfg = TrainConfig(epochs=5, learning_rate=1e-2, batch_size=batch, optimizer=opt, seed=2)
        net = train(init_network(shape, arch, seed=1), ds, cfg).net
        p = tmp_path / "m.net"
        save_network(net, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.TRAINED_DIGESTS[name]
