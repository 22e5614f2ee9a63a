import numpy as np
import pytest

import mipprune.network
from mipprune.errors import InvalidArgument, ModelFormatError
from mipprune.linalg import conv_matmat, conv_to_matrix, matmat
from mipprune.network import (
    Mask,
    apply_mask,
    avgpool,
    build_network,
    conv,
    dense,
    flatten,
    float_to_hex,
    forward,
    init_network,
    load_network,
    maxpool,
    save_network,
)

MLP = [dense(5), dense(3), dense(2, activation="none")]


def naive_forward(net, x):
    """Oracle: per-neuron python loops, no vectorization."""
    v = list(map(float, x))
    for spec in net.layers:
        if spec.kind in ("dense", "conv"):
            out = []
            for i in range(spec.weight.shape[0]):
                acc = float(spec.bias[i])
                for j, vj in enumerate(v):
                    acc += float(spec.weight[i, j]) * vj
                out.append(max(acc, 0.0) if spec.activation == "relu" else acc)
            v = out
        elif spec.kind == "avgpool":
            v = [sum(v[g : g + spec.pool_window]) / spec.pool_window
                 for g in range(0, len(v), spec.pool_window)]
        elif spec.kind == "maxpool":
            v = [max(v[g : g + spec.pool_window])
                 for g in range(0, len(v), spec.pool_window)]
    return np.array(v)


class TestForward:
    def test_relu_definition(self):
        net = build_network(2, [dense(2), dense(2, activation="none")],
                            params=[(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))])
        trace = forward(net, [-1.0, 2.0])
        assert trace.post[0].tolist() == [0.0, 2.0]

    def test_full_layer_mask_equals_zeroed_weights(self):
        net = init_network(3, [dense(4), dense(2, activation="none")], seed=1)
        mask = Mask.empty(net)
        mask.bits[0][:] = [True, True, True, False]
        x = np.array([0.3, -0.2, 0.9])
        masked = forward(net, x, mask).logits
        zeroed = init_network(3, [dense(4), dense(2, activation="none")], seed=1)
        for u in range(3):
            zeroed.layers[0].weight[u, :] = 0.0
            zeroed.layers[0].bias[u] = 0.0
        assert np.max(np.abs(forward(zeroed, x).logits - masked)) <= 1e-12

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(2)
        net = init_network(4, [dense(6), dense(3, activation="none")], seed=7)
        for _ in range(100):
            x = rng.normal(size=4)
            assert np.max(np.abs(forward(net, x).logits - naive_forward(net, x))) <= 1e-12

    def test_conv_and_pool_match_naive(self):
        rng = np.random.default_rng(3)
        net = init_network((1, 4, 4), [conv(2, 2, 2), avgpool(3), flatten(),
                                       dense(3, activation="none")], seed=4)
        for _ in range(20):
            x = rng.normal(size=16)
            assert np.max(np.abs(forward(net, x).logits - naive_forward(net, x))) <= 1e-10

    def test_shape_mismatch(self):
        net = init_network(3, MLP, seed=0)
        with pytest.raises(InvalidArgument):
            forward(net, [1.0, 2.0])

    BATCH_NETS = {
        "dense": (3, MLP),
        "conv-avgpool": ((1, 4, 4), [conv(2, 2, 2), avgpool(3), flatten(),
                                     dense(3, activation="none")]),
        "padded-conv-maxpool": ((1, 4, 4), [conv(3, 3, 3, padding=1), maxpool(4), flatten(),
                                            dense(2, activation="none")]),
    }

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("name", list(BATCH_NETS))
    def test_batch_matches_single_inputs(self, name, masked):
        shape, descs = self.BATCH_NETS[name]
        net = init_network(shape, descs, seed=11)
        mask = None
        if masked:
            mask = Mask.empty(net)
            mask.bits[0][1] = True
        xs = np.random.default_rng(12).normal(size=(7, net.input_size))
        batch = forward(net, xs, mask)
        sizes = net.layer_sizes()[1:]
        assert [z.shape for z in batch.pre] == [(size, 7) for size in sizes]
        assert [a.shape for a in batch.post] == [(size, 7) for size in sizes]
        for k, x in enumerate(xs):
            single = forward(net, x, mask)
            for got, want in zip(batch.pre + batch.post, single.pre + single.post):
                assert np.max(np.abs(got[:, k] - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_batched_conv_has_the_lowered_products_bits(self, n):
        """A conv layer on a batch multiplies its taps; for two or more inputs
        that is ``matmat(weight, x) + bias`` byte for byte (a one-column sum
        can differ from the lowered product in its last bits)."""
        net = init_network((2, 5, 5), [conv(3, 3, 3, padding=1), conv(2, 2, 2), flatten(),
                                       dense(3, activation="none")], seed=13)
        xs = np.random.default_rng(14).normal(size=(n, net.input_size))
        trace = forward(net, xs)
        v = xs.T.copy()
        for idx in (0, 1):
            spec = net.layers[idx]
            want = conv_matmat(spec.kernels, spec.conv, v) + spec.bias[:, None]
            assert trace.pre[idx].tobytes() == want.tobytes()
            if n >= 2:
                lowered = matmat(spec.weight, v) + spec.bias[:, None]
                assert want.tobytes() == lowered.tobytes()
            v = trace.post[idx]

    def test_one_input_conv_is_its_column_of_a_batch(self):
        net = init_network((2, 5, 5), [conv(3, 3, 3, padding=1), conv(2, 2, 2), avgpool(2),
                                       flatten(), dense(3, activation="none")], seed=17)
        xs = np.random.default_rng(18).normal(size=(4, net.input_size))
        batch = forward(net, xs)
        for k, x in enumerate(xs):
            single = forward(net, x)
            for idx in (0, 1):
                assert single.pre[idx].tobytes() == batch.pre[idx][:, k].tobytes()

    def test_one_input_conv_forward_lowers_nothing(self, monkeypatch):
        calls = []

        def counting(kernels, spec):
            calls.append(spec)
            return conv_to_matrix(kernels, spec)

        monkeypatch.setattr(mipprune.network, "conv_to_matrix", counting)
        net = init_network((1, 5, 5), [conv(2, 2, 2), conv(2, 2, 2), flatten(),
                                       dense(3, activation="none")], seed=19)
        forward(net, np.random.default_rng(20).normal(size=net.input_size))
        assert calls == []


class TestConvLayer:
    NET = ((2, 5, 5), [conv(3, 3, 3, padding=1), flatten(), dense(3, activation="none")])

    def test_weight_and_bias_follow_the_kernels(self):
        net = init_network(*self.NET, seed=15)
        spec = net.layers[0]
        spec.kernels[1, 0, 2, 1] += 0.25
        spec.channel_bias[2] = -1.5
        assert spec.weight.tobytes() == conv_to_matrix(spec.kernels, spec.conv).tobytes()
        assert spec.bias.tobytes() == np.repeat(spec.channel_bias, 25).tobytes()
        x = np.random.default_rng(16).normal(size=net.input_size)
        assert forward(net, x).pre[0].tobytes() == (
            conv_matmat(spec.kernels, spec.conv, x[:, None]).ravel() + spec.bias).tobytes()

    def test_write_into_weight_or_bias_raises(self):
        spec = init_network(*self.NET, seed=15).layers[0]
        with pytest.raises(ValueError, match="read-only"):
            spec.weight[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            spec.bias[0] = 1.0
        with pytest.raises(AttributeError, match="derived from its kernels"):
            spec.weight = np.zeros((75, 50))
        dense_spec = init_network(*self.NET, seed=15).layers[2]
        dense_spec.weight[0, 0] = 1.0  # a dense layer's stored weight stays writable
        assert dense_spec.weight[0, 0] == 1.0


class TestApplyMask:
    def test_empty_mask_identity(self):
        net = init_network(3, MLP, seed=5)
        pruned = apply_mask(net, Mask.empty(net))
        assert [l.weight.shape for l in pruned.layers] == [l.weight.shape for l in net.layers]
        for a, b in zip(pruned.layers, net.layers):
            assert np.array_equal(a.weight, b.weight)

    def test_one_neuron_structural_equals_masked(self):
        rng = np.random.default_rng(8)
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=9)
        mask = Mask.empty(net)
        mask.bits[0][1] = True
        pruned = apply_mask(net, mask)
        assert pruned.layers[0].weight.shape[0] == 2
        for _ in range(50):
            x = rng.normal(size=2)
            a = forward(net, x, mask).logits
            b = forward(pruned, x).logits
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_dead_outgoing_neuron_bit_identical(self):
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=10)
        net.layers[1].weight[:, 2] = 0.0
        mask = Mask.empty(net)
        mask.bits[0][2] = True
        pruned = apply_mask(net, mask)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=2)
            assert forward(net, x).logits.tobytes() == forward(pruned, x).logits.tobytes()

    def test_mask_whole_layer_rejected(self):
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=1)
        mask = Mask.empty(net)
        mask.bits[0][:] = True
        with pytest.raises(InvalidArgument):
            apply_mask(net, mask)

    def test_conv_feature_map_pruning(self):
        rng = np.random.default_rng(12)
        net = init_network((1, 3, 3), [conv(3, 2, 2), flatten(), dense(2, activation="none")],
                           seed=13)
        mask = Mask.empty(net)
        mask.bits[0][1] = True
        pruned = apply_mask(net, mask)
        assert pruned.layers[0].conv.out_channels == 2
        for _ in range(25):
            x = rng.normal(size=9)
            a = forward(net, x, mask).logits
            b = forward(pruned, x).logits
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_padded_conv_maxpool_structural_equals_masked(self):
        rng = np.random.default_rng(17)
        # 4x4 output per map, pool window 4 = four pooled values per map
        net = init_network((1, 4, 4), [conv(3, 3, 3, padding=1), maxpool(4), flatten(),
                                       dense(2, activation="none")], seed=18)
        mask = Mask.empty(net)
        mask.bits[0][1] = True
        pruned = apply_mask(net, mask)
        assert pruned.layers[0].conv.out_channels == 2
        assert pruned.layers[0].weight.shape == (32, 16)
        for _ in range(20):
            x = rng.normal(size=16)
            assert np.max(np.abs(forward(net, x, mask).logits - forward(pruned, x).logits)) <= 1e-12

    def test_masking_first_of_two_convs_rejected(self):
        net = init_network((1, 4, 4), [conv(2, 2, 2), conv(2, 2, 2), flatten(),
                                       dense(2, activation="none")], seed=19)
        mask = Mask.empty(net)
        mask.bits[0][0] = True
        with pytest.raises(InvalidArgument, match="conv input"):
            apply_mask(net, mask)

    def test_conv_pool_aligned_pruning(self):
        rng = np.random.default_rng(14)
        # 2x2 output per map, pool window 4 = one pooled value per map
        net = init_network((1, 3, 3), [conv(2, 2, 2), avgpool(4), flatten(),
                                       dense(2, activation="none")], seed=15)
        mask = Mask.empty(net)
        mask.bits[0][0] = True
        pruned = apply_mask(net, mask)
        for _ in range(10):
            x = rng.normal(size=9)
            assert np.max(np.abs(forward(net, x, mask).logits - forward(pruned, x).logits)) <= 1e-12

    def test_random_masks_structural_equivalence(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            net = init_network(3, [dense(6), dense(5), dense(3, activation="none")], seed=trial)
            mask = Mask.empty(net)
            for layer in mask.bits:
                n = mask.bits[layer].size
                k = int(rng.integers(0, n))
                mask.bits[layer][rng.choice(n, size=k, replace=False)] = True
            x = rng.normal(size=3)
            a = forward(net, x, mask).logits
            b = forward(apply_mask(net, mask), x).logits
            assert np.max(np.abs(a - b)) <= 1e-12


class TestInit:
    def test_same_seed_identical_files(self, tmp_path):
        a = init_network(3, MLP, seed=42)
        b = init_network(3, MLP, seed=42)
        save_network(a, tmp_path / "a.net")
        save_network(b, tmp_path / "b.net")
        assert (tmp_path / "a.net").read_bytes() == (tmp_path / "b.net").read_bytes()

    def test_different_seeds_differ(self):
        a = init_network(3, MLP, seed=1)
        b = init_network(3, MLP, seed=2)
        assert any(
            not np.array_equal(x.weight, y.weight)
            for x, y in zip(a.layers, b.layers)
        )

    def test_fan_in_bound(self):
        net = init_network(4, [dense(8), dense(2, activation="none")], seed=3)
        assert np.all(np.abs(net.layers[0].weight) <= 0.5)
        assert np.all(np.abs(net.layers[0].bias) <= 0.5)
        bound = 1.0 / np.sqrt(8)
        assert np.all(np.abs(net.layers[1].weight) <= bound)

    @pytest.mark.parametrize("width", [0, -1])
    def test_dense_width_below_one_rejected(self, width):
        with pytest.raises(InvalidArgument, match="layer 0: dense width must be >= 1"):
            build_network(2, [dense(width), dense(3, activation="none")])

    def test_needs_hidden_relu(self):
        with pytest.raises(InvalidArgument):
            init_network(2, [dense(2, activation="none")], seed=0).validate()


class TestModelFiles:
    def test_round_trip_random_networks(self, tmp_path):
        for seed in range(20):
            net = init_network(3, [dense(4), dense(3), dense(2, activation="none")], seed=seed)
            p = tmp_path / f"m{seed}.net"
            save_network(net, p)
            loaded = load_network(p)
            for a, b in zip(net.layers, loaded.layers):
                assert a.weight.tobytes() == b.weight.tobytes()
                assert a.bias.tobytes() == b.bias.tobytes()

    CONV_NETS = {
        "padded-conv-flatten": [conv(2, 3, 3, padding=1), flatten(), dense(2, activation="none")],
        "padded-conv-maxpool": [conv(2, 3, 3, padding=1), maxpool(4), flatten(),
                                dense(2, activation="none")],
        "conv-avgpool": [conv(2, 2, 2), avgpool(3), flatten(), dense(2, activation="none")],
        "two-convs": [conv(2, 2, 2), conv(3, 2, 2, padding=1), flatten(),
                      dense(2, activation="none")],
    }

    @pytest.mark.parametrize("name", list(CONV_NETS))
    def test_conv_round_trip(self, name, tmp_path):
        net = init_network((1, 4, 4), self.CONV_NETS[name], seed=6)
        save_network(net, tmp_path / "c.net")
        loaded = load_network(tmp_path / "c.net")
        assert loaded.layers[0].kernels.tobytes() == net.layers[0].kernels.tobytes()
        assert loaded.layers[0].weight.tobytes() == net.layers[0].weight.tobytes()
        save_network(loaded, tmp_path / "again.net")
        assert (tmp_path / "again.net").read_bytes() == (tmp_path / "c.net").read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        net = init_network(3, MLP, seed=1)
        p = tmp_path / "t.net"
        save_network(net, p)
        text = p.read_text().splitlines()
        p.write_text("\n".join(text[: len(text) // 2]))
        with pytest.raises(ModelFormatError):
            load_network(p)

    def test_dim_mismatch_names_layer(self, tmp_path):
        net = init_network(3, MLP, seed=1)
        p = tmp_path / "d.net"
        save_network(net, p)
        text = p.read_text().replace("dims 5 3", "dims 5 4")
        p.write_text(text)
        with pytest.raises(ModelFormatError):
            load_network(p)

    def test_zero_width_dense_layer_rejected(self, tmp_path):
        zero = float_to_hex(0.0)
        p = tmp_path / "z.net"
        p.write_text("\n".join([
            "format_version 1", "input_shape 2", "seed 0", "layers 2",
            "layer 0 dense", "activation relu", "dims 0 2", "weights", "bias",
            "layer 1 dense", "activation none", "dims 3 0", "weights", "bias",
            f"  {zero} {zero} {zero}",
        ]) + "\n")
        with pytest.raises(ModelFormatError, match="layer 0: dense width"):
            load_network(p)

    @staticmethod
    def corrupt(tmp_path, net, edit):
        """Save ``net``, rewrite its file with ``edit(lines)`` and load it back."""
        p = tmp_path / "bad.net"
        save_network(net, p)
        lines = p.read_text().splitlines()
        edit(lines)
        p.write_text("\n".join(lines) + "\n")
        return load_network(p)

    def test_nan_weight_rejected(self, tmp_path):
        net = init_network(3, MLP, seed=1)

        def edit(lines):
            i = lines.index("weights") + 1
            lines[i] = "  " + " ".join(["7ff8000000000000"] + lines[i].split()[1:])

        with pytest.raises(ModelFormatError, match="layer 0"):
            self.corrupt(tmp_path, net, edit)

    def test_bad_hex_token_names_its_line(self, tmp_path):
        net = init_network(3, MLP, seed=1)

        def edit(lines):
            i = lines.index("weights") + 2  # the second line of layer 0's weights: line 10
            lines[i] = "  " + " ".join(["00zz000000000000"] + lines[i].split()[1:])

        with pytest.raises(ModelFormatError, match="line 10: bad float64 hex token"):
            self.corrupt(tmp_path, net, edit)

    def test_inf_bias_rejected(self, tmp_path):
        net = init_network(3, MLP, seed=1)

        def edit(lines):
            i = [k for k, line in enumerate(lines) if line == "bias"][1] + 1
            lines[i] = "  " + " ".join(lines[i].split()[:-1] + ["7ff0000000000000"])

        with pytest.raises(ModelFormatError, match="layer 1"):
            self.corrupt(tmp_path, net, edit)

    def test_convspec_input_dims_must_match_previous_layer(self, tmp_path):
        # layer 1 reads the 3x3 maps of layer 0; its file claims 4x4 input maps
        net = init_network((1, 4, 4), [conv(2, 2, 2), conv(2, 2, 2), flatten(),
                                       dense(2, activation="none")], seed=3)

        def edit(lines):
            i = lines.index("convspec 2 2 2 2 3 3 0")
            lines[i] = "convspec 2 2 2 2 4 4 0"

        with pytest.raises(ModelFormatError, match="layer 1"):
            self.corrupt(tmp_path, net, edit)
